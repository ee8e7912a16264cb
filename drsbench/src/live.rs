//! `vld_live` and `null_live`: the threaded runtime driven by one
//! generator (spout) thread.
//!
//! Each run has an open-loop phase — seeded Poisson arrivals at a fixed
//! root rate, every root timed from its *scheduled* send time to the
//! terminal operator's result — followed by a few flood phases, unpaced
//! batches of a fixed root count whose tuples-executed-per-second is the
//! capacity. `vld_live` runs the real VLD kernels at a fixed allocation;
//! `null_live` runs trivial kernels of the same shape and fan-out and
//! alternates between two allocations at a fixed cadence, so it is the
//! workload that drives `RuntimeEngine::rebalance`.

use crate::report::{median, quantile, Outcome};
use crate::trace::{self, Probe, Tracer};
use drs_apps::vld::live::{synth_frame, AggregateBolt, ExtractBolt, MatchBolt};
use drs_runtime::{
    Bolt, Collector, MetricsSnapshot, RuntimeBuilder, RuntimeEngine, Spout, Tuple, Value,
    VecCollector,
};
use drs_topology::{EdgeOptions, Topology, TopologyBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Vld,
    Null,
}

/// Bolt names in model order. The null topology reuses VLD's names so the
/// per-layer metrics of both workloads line up.
const BOLTS: [&str; 3] = ["sift-extractor", "feature-matcher", "matching-aggregator"];

/// Distinct synthetic frames; root `i` carries frame `frame_of[i]`.
const FRAME_POOL: usize = 4096;
/// Logo library size and seed, match distance and detection threshold of
/// the VLD kernels. The library is part of the application, not of its
/// input, so it does not vary with the workload seed: a seeded library
/// changes the match fan-out, and with it tuples/s, by 30%.
const LOGOS: usize = 24;
const LIBRARY_SEED: u64 = 7;
const MAX_DISTANCE: f32 = 0.35;
const MIN_MATCHES: u32 = 3;
/// Tuples the null fan-out bolt emits per root, matching VLD's fan-out.
const NULL_FANOUT: i64 = 8;
/// Channel capacity (envelopes): bounds queue memory in the floods.
const CHANNEL_CAPACITY: usize = 1024;
/// Rounds per second of `--seconds`, each an open-loop segment followed
/// by a flood, so a transient slowdown of the host touches few of them
/// and a longer run takes more rounds, not longer ones. The capacity is
/// the floods' pooled tuples per second (single floods swing between two
/// speeds on a shared host, which defeats a median of them); a traced run
/// traces the odd rounds only and compares their floods with the even
/// rounds'.
const ROUNDS_PER_SECOND: f64 = 1.0;
/// Shares of `--seconds` spent in open-loop segments and in floods.
const OPEN_SHARE: f64 = 0.6;
const FLOOD_SHARE: f64 = 0.3;
/// Latency limit for `tmax_met_frac` on the live workloads.
const LIVE_TMAX_MS: f64 = 20.0;
/// Cadence of `null_live`'s allocation flips.
const REBALANCE_EVERY: Duration = Duration::from_millis(200);
/// How long a phase may take to drain before its open roots count as
/// failed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(20);
/// Setups per run, one before the measurement and the rest after it;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Fixed parameters of one live workload.
struct Plan {
    rounds: usize,
    /// Open-loop root rate (roots/s): about a fifth (VLD) or a quarter
    /// (null) of flood capacity on a 2-CPU reference box.
    open_rate: f64,
    /// Roots per open-loop segment.
    open_roots: usize,
    /// Roots per flood, sized for about `FLOOD_SHARE` of a round on the
    /// reference box.
    flood_roots: usize,
    allocation: Vec<u32>,
    /// The second shape `null_live` flips to; equal executor total.
    alternate: Option<Vec<u32>>,
}

impl Plan {
    fn new(kind: Kind, seconds: f64) -> Plan {
        // Reference flood capacities in roots/s, used only to size the
        // fixed root counts.
        let (open_rate, flood_ref, allocation, alternate) = match kind {
            Kind::Vld => (20_000.0, 90_000.0, vec![1, 10, 11, 1], None),
            Kind::Null => (
                40_000.0,
                100_000.0,
                vec![1, 2, 2, 1],
                Some(vec![1, 3, 1, 1]),
            ),
        };
        let rounds = (seconds * ROUNDS_PER_SECOND).round().max(2.0) as usize;
        let per_round = seconds / rounds as f64;
        Plan {
            rounds,
            open_rate,
            open_roots: (open_rate * per_round * OPEN_SHARE) as usize,
            flood_roots: (flood_ref * per_round * FLOOD_SHARE) as usize,
            allocation,
            alternate,
        }
    }

    /// Root ids of round `r`'s open segment and flood.
    fn round(&self, r: usize) -> (Range<usize>, Range<usize>) {
        let start = r * (self.open_roots + self.flood_roots);
        let open = start..start + self.open_roots;
        (open.clone(), open.end..open.end + self.flood_roots)
    }

    /// Root ids of the all-CPU flood a traced run adds.
    fn scaling_flood(&self) -> Range<usize> {
        let start = self.round(self.rounds).0.start;
        start..start + self.flood_roots
    }
}

/// Everything generated from the seed before the engine starts, plus the
/// per-root timestamps the wrappers fill in.
struct Inputs {
    kind: Kind,
    epoch: Instant,
    /// Each open-loop root's due time, in ns after its segment starts
    /// (0 for flood roots).
    due_ns: Vec<u64>,
    frames: Vec<Vec<u8>>,
    frame_of: Vec<u32>,
    /// ns after `epoch` at which each root was handed to the engine.
    handoff_ns: Vec<AtomicU64>,
    /// ns after `epoch` of each root's first result.
    result_ns: Vec<AtomicU64>,
    /// Results each root produced.
    results: Vec<AtomicU32>,
}

impl Inputs {
    fn generate(kind: Kind, seed: u64, plan: &Plan, total: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut due_ns = vec![0; total];
        for r in 0..plan.rounds {
            let mut t = 0.0f64;
            for due in &mut due_ns[plan.round(r).0] {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -u.ln() / plan.open_rate;
                *due = (t * 1e9) as u64;
            }
        }
        let (frames, frame_of) = match kind {
            Kind::Vld => {
                let frames = (0..FRAME_POOL)
                    .map(|_| {
                        let complexity = rng.gen_range(0.2..0.9);
                        synth_frame(&mut rng, complexity)
                    })
                    .collect();
                let frame_of = (0..total)
                    .map(|_| rng.gen_range(0..FRAME_POOL as u32))
                    .collect();
                (frames, frame_of)
            }
            Kind::Null => (Vec::new(), Vec::new()),
        };
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Inputs {
            kind,
            epoch: Instant::now(),
            due_ns,
            frames,
            frame_of,
            handoff_ns: zeros(total),
            result_ns: zeros(total),
            results: (0..total).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn root(&self, id: usize) -> Tuple {
        match self.kind {
            Kind::Vld => Tuple::new(vec![
                Value::Int(id as i64),
                Value::Bytes(self.frames[self.frame_of[id] as usize].clone()),
            ]),
            Kind::Null => Tuple::of(id as i64),
        }
    }
}

const IDLE: u8 = 0;
const OPEN: u8 = 1;
const FLOOD: u8 = 2;

/// The main thread's handle on the generator: which phase runs, when the
/// current segment started, and the root id it ends before.
#[derive(Default)]
struct Control {
    phase: AtomicU8,
    start_ns: AtomicU64,
    end: AtomicU64,
}

/// The single generator. It hands roots over in batches — open-loop roots
/// once due, flood roots as fast as the engine takes them — and stamps
/// each root's handoff time. Segments cover consecutive root ids.
struct Source {
    inputs: Arc<Inputs>,
    ctl: Arc<Control>,
    probe: Arc<Probe>,
    cursor: usize,
}

/// How long an idle generator sleeps between polls of its control.
const IDLE_POLL: Duration = Duration::from_micros(500);

impl Source {
    fn emit(&mut self, max: usize, out: &mut Vec<Tuple>) -> Duration {
        let inputs = &*self.inputs;
        let phase = self.ctl.phase.load(Ordering::Acquire);
        if phase == IDLE {
            return IDLE_POLL;
        }
        let start = self.ctl.start_ns.load(Ordering::Acquire);
        let end = self.ctl.end.load(Ordering::Acquire) as usize;
        let now = inputs.now_ns();
        let due = |id: usize| {
            if phase == OPEN {
                start + inputs.due_ns[id]
            } else {
                0
            }
        };
        while out.len() < max && self.cursor < end && due(self.cursor) <= now {
            out.push(inputs.root(self.cursor));
            inputs.handoff_ns[self.cursor].store(now, Ordering::Relaxed);
            self.cursor += 1;
        }
        if self.cursor >= end {
            let _ =
                self.ctl
                    .phase
                    .compare_exchange(phase, IDLE, Ordering::AcqRel, Ordering::Acquire);
            IDLE_POLL
        } else if out.len() == max || phase == FLOOD {
            Duration::ZERO
        } else {
            Duration::from_nanos(due(self.cursor).saturating_sub(now))
        }
    }
}

impl Spout for Source {
    fn next(&mut self) -> Option<drs_runtime::SpoutEmission> {
        // The engine only calls `next_batch`; a single-root form of it.
        let mut out = Vec::with_capacity(1);
        let wait = self.next_batch(1, &mut out);
        out.pop().map(|tuple| drs_runtime::SpoutEmission {
            tuple,
            wait: wait.unwrap_or_default(),
        })
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Tuple>) -> Option<Duration> {
        let probe = Arc::clone(&self.probe);
        Some(probe.time(|| self.emit(max, out)))
    }
}

/// Times every `execute` of the wrapped bolt while its probe is on.
struct Timed<B> {
    inner: B,
    probe: Arc<Probe>,
}

impl<B> Timed<B> {
    fn new(probe: &Arc<Probe>, inner: B) -> Self {
        Timed {
            inner,
            probe: Arc::clone(probe),
        }
    }
}

impl<B: Bolt> Bolt for Timed<B> {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let inner = &mut self.inner;
        self.probe.time(|| inner.execute(tuple, collector));
    }
}

/// Wraps the terminal bolt: stamps each result with its root's id.
struct Terminal<B> {
    inner: B,
    inputs: Arc<Inputs>,
}

impl<B> Terminal<B> {
    fn new(inputs: &Arc<Inputs>, inner: B) -> Self {
        Terminal {
            inner,
            inputs: Arc::clone(inputs),
        }
    }
}

struct Recorder<'a> {
    out: &'a mut dyn Collector,
    inputs: &'a Inputs,
}

impl Collector for Recorder<'_> {
    fn emit(&mut self, tuple: Tuple) {
        if let Some(id) = tuple.field(0).and_then(Value::as_int) {
            let id = id as usize;
            let now = self.inputs.now_ns();
            let _ = self.inputs.result_ns[id].compare_exchange(
                0,
                now,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            self.inputs.results[id].fetch_add(1, Ordering::Relaxed);
        }
        self.out.emit(tuple);
    }
}

impl<B: Bolt> Bolt for Terminal<B> {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let mut recorder = Recorder {
            out: collector,
            inputs: &self.inputs,
        };
        self.inner.execute(tuple, &mut recorder);
    }
}

/// Null kernels: fan each root out to `NULL_FANOUT` tuples, forward them,
/// and emit one result per root once all have arrived.
struct FanOut;
impl Bolt for FanOut {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        if let Some(id) = tuple.field(0).and_then(Value::as_int) {
            for j in 0..NULL_FANOUT {
                collector.emit(Tuple::new(vec![Value::Int(id), Value::Int(j)]));
            }
        }
    }
}

struct Forward;
impl Bolt for Forward {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        collector.emit(tuple.clone());
    }
}

#[derive(Default)]
struct Join {
    seen: HashMap<i64, i64>,
}
impl Bolt for Join {
    fn execute(&mut self, tuple: &Tuple, collector: &mut dyn Collector) {
        let Some(id) = tuple.field(0).and_then(Value::as_int) else {
            return;
        };
        let n = self.seen.entry(id).or_insert(0);
        *n += 1;
        if *n == NULL_FANOUT {
            self.seen.remove(&id);
            collector.emit(Tuple::of(id));
        }
    }
}

fn topology(kind: Kind) -> Topology {
    if kind == Kind::Vld {
        return drs_apps::VldProfile::paper().topology();
    }
    let mut b = TopologyBuilder::new();
    let spout = b.spout("video-spout");
    let ids = BOLTS.map(|name| b.bolt(name));
    b.edge(spout, ids[0]).expect("valid edge");
    let fanout = EdgeOptions {
        gain: NULL_FANOUT as f64,
        ..Default::default()
    };
    b.edge_with(ids[0], ids[1], fanout).expect("valid edge");
    b.edge(ids[1], ids[2]).expect("valid edge");
    b.build().expect("null topology is valid")
}

/// The wrappers' probes: one per bolt plus the generator's.
struct Probes {
    bolts: [Arc<Probe>; 3],
    generator: Arc<Probe>,
}

impl Probes {
    fn new(tracer: Option<&Arc<Tracer>>) -> Probes {
        let probe = |name: String| tracer.map_or_else(Probe::off, |t| Probe::new(t, &name));
        Probes {
            bolts: BOLTS.map(|b| probe(format!("apps.{b}.execute"))),
            generator: probe("loadgen.next_batch".to_owned()),
        }
    }

    fn set(&self, on: bool) {
        for p in self.all() {
            p.set(on);
        }
    }

    fn set_parent(&self, parent: u64) {
        for p in self.all() {
            if let Some(s) = p.stats() {
                s.set_parent(parent);
            }
        }
    }

    fn all(&self) -> impl Iterator<Item = &Arc<Probe>> {
        self.bolts.iter().chain(std::iter::once(&self.generator))
    }

    /// Total ns inside the bolts and inside the generator so far.
    fn busy_ns(&self) -> (u64, u64) {
        let bolts = self.bolts.iter().map(|p| p.totals().1).sum();
        (bolts, self.generator.totals().1)
    }
}

#[allow(clippy::too_many_arguments)]
fn start_engine(
    kind: Kind,
    inputs: &Arc<Inputs>,
    ctl: &Arc<Control>,
    probes: &Probes,
    allocation: &[u32],
    workers: usize,
    cursor: usize,
) -> RuntimeEngine {
    let topo = topology(kind);
    let ids: Vec<_> = topo.operators().iter().map(|o| o.id()).collect();
    let source = Source {
        inputs: Arc::clone(inputs),
        ctl: Arc::clone(ctl),
        probe: Arc::clone(&probes.generator),
        cursor,
    };
    let builder = RuntimeBuilder::new(topo)
        .spout(ids[0], Box::new(source))
        .allocation(allocation.to_vec())
        .workers(workers)
        .channel_capacity(CHANNEL_CAPACITY);
    let [p0, p1, p2] = probes.bolts.clone();
    let inputs = Arc::clone(inputs);
    let builder = match kind {
        Kind::Vld => builder
            .bolt(ids[1], move || Timed::new(&p0, ExtractBolt::new()))
            .bolt(ids[2], move || {
                Timed::new(&p1, MatchBolt::new(LOGOS, MAX_DISTANCE, LIBRARY_SEED))
            })
            .bolt(ids[3], move || {
                Timed::new(&p2, Terminal::new(&inputs, AggregateBolt::new(MIN_MATCHES)))
            }),
        Kind::Null => builder
            .bolt(ids[1], move || Timed::new(&p0, FanOut))
            .bolt(ids[2], move || Timed::new(&p1, Forward))
            .bolt(ids[3], move || {
                Timed::new(&p2, Terminal::new(&inputs, Join::default()))
            }),
    };
    builder.start().expect("live topology is wired")
}

/// Cumulative engine metrics over every snapshot window.
#[derive(Default)]
struct Totals {
    tuples: u64,
    acked: u64,
}

impl Totals {
    fn take(&mut self, snap: &MetricsSnapshot) -> u64 {
        let tuples: u64 = snap.operators.iter().map(|o| o.completions).sum();
        self.tuples += tuples;
        self.acked += snap.sojourn.count();
        tuples
    }
}

/// What one segment measured.
struct Segment {
    /// ns after `Inputs::epoch` at which the segment started.
    start_ns: u64,
    /// From the first root's handoff until the last tree was acked.
    secs: f64,
    tuples: u64,
    cpu_ns: u64,
    exec_ns: u64,
    gen_ns: u64,
    busy_secs: [f64; 3],
}

/// Tuples executed per second over `segments` together.
fn capacity(segments: &[Segment]) -> f64 {
    let tuples: u64 = segments.iter().map(|s| s.tuples).sum();
    tuples as f64 / segments.iter().map(|s| s.secs).sum::<f64>()
}

/// Hands the roots of `range` to `engine` — paced by their due times in
/// an `OPEN` segment, as fast as they are taken in a `FLOOD` — calling
/// `tick` every millisecond meanwhile, then waits for every tree to be
/// acked. Returns the trees still open at the drain deadline on failure.
#[allow(clippy::too_many_arguments)]
fn segment(
    engine: &mut RuntimeEngine,
    inputs: &Inputs,
    ctl: &Control,
    probes: &Probes,
    phase: u8,
    range: Range<usize>,
    totals: &mut Totals,
    mut tick: impl FnMut(&mut RuntimeEngine),
) -> Result<Segment, u64> {
    totals.take(&engine.metrics_snapshot());
    let cpu0 = trace::process_cpu_ns();
    let (exec0, gen0) = probes.busy_ns();
    let start_ns = inputs.now_ns();
    ctl.end.store(range.end as u64, Ordering::Release);
    ctl.start_ns.store(start_ns, Ordering::Release);
    ctl.phase.store(phase, Ordering::Release);
    while ctl.phase.load(Ordering::Acquire) != IDLE {
        std::thread::sleep(Duration::from_millis(1));
        tick(engine);
    }
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while engine.open_trees() > 0 {
        if Instant::now() > deadline {
            return Err(engine.open_trees());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let end_ns = inputs.now_ns();
    let snap = engine.metrics_snapshot();
    let tuples = totals.take(&snap);
    let (exec1, gen1) = probes.busy_ns();
    let first = inputs.handoff_ns[range.start].load(Ordering::Relaxed);
    let mut busy_secs = [0.0; 3];
    for (b, op) in busy_secs.iter_mut().zip(&snap.operators[1..]) {
        *b = op.busy_secs;
    }
    Ok(Segment {
        start_ns,
        secs: end_ns.saturating_sub(first) as f64 / 1e9,
        tuples,
        cpu_ns: trace::process_cpu_ns() - cpu0,
        exec_ns: exec1 - exec0,
        gen_ns: gen1 - gen0,
        busy_secs,
    })
}

/// `null_live`'s allocation flips, and the executors in force over time.
struct Flips {
    base: Vec<u32>,
    alternate: Option<Vec<u32>>,
    current: Vec<u32>,
    next_flip: Instant,
    since: Instant,
    /// `(seconds, bolt executors)` per stretch between flips.
    stretches: Vec<(f64, u32)>,
    pauses_us: Vec<f64>,
}

impl Flips {
    fn new(plan: &Plan) -> Flips {
        let now = Instant::now();
        Flips {
            base: plan.allocation.clone(),
            alternate: plan.alternate.clone(),
            current: plan.allocation.clone(),
            next_flip: now + REBALANCE_EVERY,
            since: now,
            stretches: Vec::new(),
            pauses_us: Vec::new(),
        }
    }

    fn switch(&mut self, engine: &mut RuntimeEngine, to: Vec<u32>) {
        let executors = self.current[1..].iter().sum();
        self.stretches
            .push((self.since.elapsed().as_secs_f64(), executors));
        self.since = Instant::now();
        let pause = engine.rebalance(to.clone()).expect("valid allocation");
        self.pauses_us.push(pause.as_secs_f64() * 1e6);
        self.current = to;
    }

    /// Flips shape when the cadence says so.
    fn tick(&mut self, engine: &mut RuntimeEngine) {
        let Some(alternate) = &self.alternate else {
            return;
        };
        if Instant::now() < self.next_flip {
            return;
        }
        let to = if self.current == self.base {
            alternate.clone()
        } else {
            self.base.clone()
        };
        self.switch(engine, to);
        self.next_flip += REBALANCE_EVERY;
    }

    /// Returns to the base shape, so every flood runs at the same one.
    fn reset(&mut self, engine: &mut RuntimeEngine) {
        if self.current != self.base {
            self.switch(engine, self.base.clone());
        }
    }

    /// Time-weighted mean bolt executors in force.
    fn executors_mean(&self) -> f64 {
        let last = (
            self.since.elapsed().as_secs_f64(),
            self.current[1..].iter().sum(),
        );
        let all = self.stretches.iter().chain(std::iter::once(&last));
        let secs: f64 = all.clone().map(|s| s.0).sum();
        all.map(|&(s, k)| s * f64::from(k)).sum::<f64>() / secs
    }
}

/// The single-threaded reference: the same kernels called in a loop.
/// Returns the results each root should produce and the tuples executed.
fn reference(kind: Kind, inputs: &Inputs, roots: usize) -> (Vec<u32>, u64) {
    let mut stage = [
        VecCollector::new(),
        VecCollector::new(),
        VecCollector::new(),
    ];
    let mut tuples = 0u64;
    let mut bolts: [Box<dyn Bolt>; 3] = match kind {
        Kind::Vld => [
            Box::new(ExtractBolt::new()),
            Box::new(MatchBolt::new(LOGOS, MAX_DISTANCE, LIBRARY_SEED)),
            Box::new(AggregateBolt::new(MIN_MATCHES)),
        ],
        Kind::Null => [
            Box::new(FanOut),
            Box::new(Forward),
            Box::new(Join::default()),
        ],
    };
    let mut results = vec![0u32; roots];
    for (id, count) in results.iter_mut().enumerate() {
        let root = match kind {
            Kind::Vld => Tuple::new(vec![
                Value::Int(id as i64),
                Value::Bytes(inputs.frames[id].clone()),
            ]),
            Kind::Null => Tuple::of(id as i64),
        };
        bolts[0].execute(&root, &mut stage[0]);
        tuples += 1;
        for s in 0..2 {
            let (head, tail) = stage.split_at_mut(s + 1);
            for t in head[s].drain_tuples() {
                bolts[s + 1].execute(&t, &mut tail[0]);
                tuples += 1;
            }
        }
        *count = stage[2].drain_tuples().count() as u32;
    }
    (results, tuples)
}

/// Compares the results each root produced with the reference's.
pub fn compare_results(expected: &[u32], actual: &[u32]) -> Result<(), String> {
    if expected.len() != actual.len() {
        return Err(format!(
            "{} roots checked against a reference of {}",
            actual.len(),
            expected.len()
        ));
    }
    let wrong: Vec<usize> = (0..expected.len())
        .filter(|&i| expected[i] != actual[i])
        .collect();
    match wrong.first() {
        None => Ok(()),
        Some(&i) => Err(format!(
            "{} of {} roots disagree with the single-threaded reference \
             (first: root {i}, {} results, expected {})",
            wrong.len(),
            expected.len(),
            actual[i],
            expected[i]
        )),
    }
}

pub fn run(kind: Kind, seed: u64, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    // One CPU is left to the generator thread: with the pool on every CPU
    // the three busy threads time-share two CPUs and the flood capacity
    // spread over 15% between identical runs.
    let workers = (trace::nproc() - 1).clamp(1, 2);
    let plan = Plan::new(kind, seconds);
    // A traced run adds one flood on an engine with a worker per CPU, for
    // the scaling ratio.
    let total = if tracer.is_some() {
        plan.scaling_flood().end
    } else {
        plan.scaling_flood().start
    };
    let setup = |tracer: Option<&Arc<Tracer>>| {
        let t = Instant::now();
        let inputs = Arc::new(Inputs::generate(kind, seed, &plan, total));
        let ctl = Arc::new(Control::default());
        let probes = Probes::new(tracer);
        let engine = start_engine(kind, &inputs, &ctl, &probes, &plan.allocation, workers, 0);
        (t.elapsed().as_secs_f64(), engine, inputs, ctl, probes)
    };
    let (first_setup, mut engine, inputs, ctl, probes) = setup(tracer);
    let mut setups = vec![first_setup];
    let mut out = Outcome {
        workers,
        ..Outcome::default()
    };
    let mut totals = Totals::default();
    let mut flips = Flips::new(&plan);
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    let mut open_starts = Vec::with_capacity(plan.rounds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for r in 0..plan.rounds {
        let trace_this = tracer.is_some() && r % 2 == 1;
        let span = tracer.map_or(0, |t| t.reserve());
        probes.set_parent(span);
        probes.set(trace_this);
        let started = Instant::now();
        let (open, flood) = plan.round(r);
        let measured = segment(
            &mut engine,
            &inputs,
            &ctl,
            &probes,
            OPEN,
            open,
            &mut totals,
            |e| flips.tick(e),
        )
        .and_then(|o| {
            open_starts.push(o.start_ns);
            if r == 0 && tracer.is_some() {
                // The engine's histogram is cumulative: read it before
                // any flood joins it.
                let ms = |q| engine.sojourn_quantile(q).unwrap_or(0.0) * 1e3;
                layers.push(("runtime.sojourn_ms_p50", ms(0.5)));
                layers.push(("runtime.sojourn_ms_p99", ms(0.99)));
            }
            flips.reset(&mut engine);
            let f = segment(
                &mut engine,
                &inputs,
                &ctl,
                &probes,
                FLOOD,
                flood,
                &mut totals,
                |_| {},
            )?;
            Ok((o, f))
        });
        let (o, f) = match measured {
            Ok(segments) => segments,
            Err(open_trees) => {
                out.failed += open_trees;
                out.fail(format!(
                    "round {r}: {open_trees} trees still open after {DRAIN_DEADLINE:?}"
                ));
                break;
            }
        };
        if let (Some(t), true) = (tracer, trace_this) {
            let busy = o.exec_ns + o.gen_ns + f.exec_ns + f.gen_ns;
            t.record_busy(
                span,
                0,
                "live.round",
                started,
                Instant::now(),
                busy,
                Some(o.cpu_ns + f.cpu_ns),
            );
        }
        if trace_this {
            traced.push(f);
        } else {
            plain.push(f);
        }
    }
    probes.set(false);
    out.e2e.throughput_per_s = capacity(&plain);
    out.e2e.executors_mean = flips.executors_mean();
    if tracer.is_some() {
        let suspensions: u64 = engine.suspensions().iter().flatten().sum();
        let peak = engine
            .peak_queue_depths()
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0);
        totals.take(&engine.metrics_snapshot());
        layers.push((
            "runtime.suspensions_per_ktuple",
            suspensions as f64 / (totals.tuples.max(1) as f64 / 1e3),
        ));
        layers.push(("runtime.peak_queue_depth", peak as f64));
    }
    out.attempted = plan.scaling_flood().start as u64;
    totals.take(&engine.shutdown(Duration::from_secs(5)));

    let mut all_cpus_cap = None;
    if tracer.is_some() {
        let off = Probes::new(None);
        let range = plan.scaling_flood();
        let cpus = trace::nproc();
        let mut all = start_engine(
            kind,
            &inputs,
            &ctl,
            &off,
            &plan.allocation,
            cpus,
            range.start,
        );
        match segment(
            &mut all,
            &inputs,
            &ctl,
            &off,
            FLOOD,
            range,
            &mut totals,
            |_| {},
        ) {
            Ok(f) => all_cpus_cap = Some(capacity(&[f])),
            Err(open) => out.fail(format!("all-CPU flood: {open} trees still open")),
        }
        out.attempted += plan.flood_roots as u64;
        totals.take(&all.shutdown(Duration::from_secs(5)));
    }

    // Correctness: every root against the single-threaded reference.
    let started = Instant::now();
    let (expected, ref_tuples) = match kind {
        Kind::Vld => {
            let (per_frame, tuples) = reference(kind, &inputs, FRAME_POOL);
            let expected: Vec<u32> = inputs
                .frame_of
                .iter()
                .map(|&f| per_frame[f as usize])
                .collect();
            (expected, tuples)
        }
        Kind::Null => {
            let n = 20_000;
            let (per_root, tuples) = reference(kind, &inputs, n);
            if let Err(e) = compare_results(&vec![1; n], &per_root) {
                out.fail(format!("null reference: {e}"));
            }
            (vec![1; total], tuples)
        }
    };
    let ref_secs = started.elapsed().as_secs_f64();
    let actual: Vec<u32> = inputs
        .results
        .iter()
        .map(|r| r.load(Ordering::Relaxed))
        .collect();
    if let Err(e) = compare_results(&expected, &actual) {
        out.fail(e);
    }
    if totals.acked != out.attempted {
        out.fail(format!(
            "{} roots emitted, {} acked",
            out.attempted, totals.acked
        ));
    }

    // Latency: open-loop roots, from their scheduled send time.
    // Per round, so one round hit by a host hiccup cannot move the median.
    let mut round_p50 = Vec::with_capacity(plan.rounds);
    let mut round_p90 = Vec::with_capacity(plan.rounds);
    let mut lags = Vec::new();
    let (mut met, mut due) = (0u64, 0u64);
    for (r, &segment_start) in open_starts.iter().enumerate() {
        let mut latencies = Vec::new();
        for id in plan.round(r).0 {
            let scheduled = segment_start + inputs.due_ns[id];
            let handoff = inputs.handoff_ns[id].load(Ordering::Relaxed);
            lags.push(handoff.saturating_sub(scheduled) as f64 / 1e6);
            if expected[id] == 0 {
                continue;
            }
            due += 1;
            if actual[id] > 0 {
                let result = inputs.result_ns[id].load(Ordering::Relaxed);
                let ms = result.saturating_sub(scheduled) as f64 / 1e6;
                met += u64::from(ms <= LIVE_TMAX_MS);
                latencies.push(ms);
            }
        }
        if latencies.is_empty() {
            out.fail(format!(
                "no root of round {r}'s open segment produced a result"
            ));
        }
        round_p50.push(quantile(&latencies, 0.5));
        // The traced run's tail diagnostic, from its untraced rounds.
        if tracer.is_some() && r % 2 == 0 {
            round_p90.push(quantile(&latencies, 0.9));
        }
    }
    out.e2e.latency_ms_p50 = median(&round_p50);
    out.e2e.tmax_met_frac = met as f64 / due.max(1) as f64;

    if tracer.is_some() {
        let traced_secs: f64 = traced.iter().map(|f| f.secs).sum();
        let traced_tuples: u64 = traced.iter().map(|f| f.tuples).sum();
        let worker_secs = workers as f64 * traced_secs;
        let exec: u64 = traced.iter().map(|f| f.exec_ns).sum();
        let engine_ns: i128 = traced
            .iter()
            .map(|f| f.cpu_ns as i128 - f.exec_ns as i128 - f.gen_ns as i128)
            .sum();
        layers.push(("latency_ms_p90", median(&round_p90)));
        layers.push(("loadgen.lag_ms_p99", quantile(&lags, 0.99)));
        for (i, b) in BOLTS.iter().enumerate() {
            let (calls, ns) = probes.bolts[i].totals();
            layers.push((us_per_tuple_name(b), ns as f64 / 1e3 / calls.max(1) as f64));
            let busy: f64 = traced.iter().map(|f| f.busy_secs[i]).sum();
            layers.push((busy_share_name(b), busy / worker_secs));
        }
        layers.push(("apps.busy_share", exec as f64 / 1e9 / worker_secs));
        layers.push((
            "apps.single_thread_tuples_per_s",
            ref_tuples as f64 / ref_secs,
        ));
        layers.push((
            "runtime.cpu_us_per_tuple",
            engine_ns as f64 / 1e3 / traced_tuples.max(1) as f64,
        ));
        if kind == Kind::Null {
            layers.push(("runtime.rebalance_pause_us_p50", median(&flips.pauses_us)));
        }
        if let Some(all) = all_cpus_cap {
            layers.push(("runtime.scaling_ratio", all / out.e2e.throughput_per_s));
        }
        let traced_cap = capacity(&traced);
        layers.push((
            "trace.overhead_frac",
            1.0 - traced_cap / out.e2e.throughput_per_s,
        ));
    }
    out.layers = layers;

    // The remaining setups, each torn down at once.
    drop((inputs, ctl, probes));
    for _ in 1..SETUP_REPEATS {
        let (secs, engine, ..) = setup(None);
        setups.push(secs);
        let _ = engine.shutdown(Duration::ZERO);
    }
    out.e2e.setup_s = median(&setups);
    out
}

fn us_per_tuple_name(bolt: &str) -> &'static str {
    match bolt {
        "sift-extractor" => "apps.sift-extractor.us_per_tuple",
        "feature-matcher" => "apps.feature-matcher.us_per_tuple",
        _ => "apps.matching-aggregator.us_per_tuple",
    }
}

fn busy_share_name(bolt: &str) -> &'static str {
    match bolt {
        "sift-extractor" => "runtime.sift-extractor.busy_share",
        "feature-matcher" => "runtime.feature-matcher.busy_share",
        _ => "runtime.matching-aggregator.busy_share",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_is_caught() {
        let seed = 7;
        let inputs = Inputs::generate(Kind::Vld, seed, &Plan::new(Kind::Vld, 0.0), 0);
        let (reference, tuples) = reference(Kind::Vld, &inputs, 256);
        assert!(tuples > 256, "the kernels fan out");
        assert!(reference.contains(&1), "some frames are detected");
        assert!(compare_results(&reference, &reference).is_ok());
        let mut corrupted = reference.clone();
        corrupted[17] ^= 1;
        let err = compare_results(&corrupted, &reference).unwrap_err();
        assert!(err.contains("root 17"), "{err}");
    }

    #[test]
    fn null_kernels_yield_one_result_per_root() {
        let inputs = Inputs::generate(Kind::Null, 1, &Plan::new(Kind::Null, 0.0), 0);
        let (results, tuples) = reference(Kind::Null, &inputs, 100);
        assert_eq!(results, vec![1; 100]);
        assert_eq!(tuples, 100 * (1 + 2 * NULL_FANOUT as u64));
        assert!(compare_results(&vec![1; 100], &[&results[..99], &[2]].concat()).is_err());
    }
}
