//! Perf trajectory: heap+incremental scheduling vs the retained reference
//! implementation, the calendar event queue vs a binary-heap reference,
//! end-to-end simulator throughput, live-runtime throughput, the
//! machine-placement comparison (solver vs round-robin on the contended
//! fleet), and the saturation soak's latency percentiles under
//! continuous rebalances — rendered as tables and exported as machine-readable
//! `BENCH_PERF.json` so successive PRs can compare like for like
//! (`repro perfdiff` gates the trajectory in CI).

use crate::report::render_table;
use crate::timing::time_per_call_us;
use drs_apps::vld::live::{AggregateBolt, ExtractBolt, FrameSpout, MatchBolt};
use drs_apps::{FpdProfile, VldProfile};
use drs_core::scheduler::{assign_processors, assign_processors_reference};
use drs_runtime::operator::{Spout, SpoutEmission};
use drs_runtime::RuntimeBuilder;
use drs_sim::calendar::CalendarQueue;
use drs_sim::SimDuration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Scheduling comparison at one `Kmax`.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedPoint {
    /// The processor budget.
    pub k_max: u32,
    /// Mean microseconds per heap+incremental `assign_processors` call.
    pub heap_us: f64,
    /// Mean microseconds per from-scratch reference call.
    pub reference_us: f64,
}

impl SchedPoint {
    /// `reference / heap` — how many times faster the production path is.
    pub fn speedup(&self) -> f64 {
        self.reference_us / self.heap_us
    }
}

/// Event-queue comparison at one pending-population size: mean cost of one
/// hold cycle (pop + re-insert) with `pending` events resident.
#[derive(Debug, Clone, PartialEq)]
pub struct EventQueuePoint {
    /// Events resident in the queue during the hold loop.
    pub pending: u64,
    /// Mean nanoseconds per hold cycle on the calendar queue.
    pub calendar_ns: f64,
    /// Mean nanoseconds per hold cycle on the binary-heap reference.
    pub heap_ns: f64,
}

impl EventQueuePoint {
    /// `heap / calendar` — how many times faster the calendar queue is.
    pub fn speedup(&self) -> f64 {
        self.heap_ns / self.calendar_ns
    }
}

/// The calendar-ladder scale guard: one hold-model point whose reinserts
/// are far-future-heavy (most pops teleport deep past the calendar's
/// current year), at a 10⁶ pending population — the access pattern that
/// stresses ladder wraparound and empty-bucket scans rather than the
/// steady near-term churn of [`EventQueuePoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventQueueFarPoint {
    /// Events resident in the queue during the hold loop.
    pub pending: u64,
    /// Mean nanoseconds per hold cycle on the calendar queue.
    pub calendar_ns: f64,
    /// Mean nanoseconds per hold cycle on the binary-heap reference.
    pub heap_ns: f64,
}

impl EventQueueFarPoint {
    /// `heap / calendar` — how many times faster the calendar queue is.
    pub fn speedup(&self) -> f64 {
        self.heap_ns / self.calendar_ns
    }
}

/// The fleet-scale negotiation comparison embedded in the snapshot: the
/// smoke shape of `repro fleet --scale 100k` (100k shards, 5% demand
/// churn per window), reduced to the gated numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScalePoint {
    /// Shards in the synthetic fleet.
    pub shards: u64,
    /// Percent of shards whose demand drifts per window.
    pub churn_pct: f64,
    /// Mean microseconds per contended window, warm-start incremental.
    pub incremental_us: f64,
    /// Mean microseconds per contended window, from-scratch reference.
    pub scratch_us: f64,
    /// Heap allocations across one zero-churn steady-state incremental
    /// window — must be 0; `None` when no allocation probe is installed.
    pub steady_allocs: Option<u64>,
}

impl FleetScalePoint {
    /// `scratch / incremental` — how many times faster the warm path is.
    pub fn speedup(&self) -> f64 {
        self.scratch_us / self.incremental_us
    }
}

/// The placement-scale comparison embedded in the snapshot: the smoke
/// shape of `repro fleet --scale 100k --place` (100k shards on a shared
/// 64-machine pool, 5% request churn per window), reduced to the gated
/// numbers — the warm epoch-band
/// [`drs_core::placement::FleetPlacementState`] against a from-scratch
/// `placement::plan` per window.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementScalePoint {
    /// Shards in the synthetic fleet.
    pub shards: u64,
    /// Percent of shards whose placement request drifts per window.
    pub churn_pct: f64,
    /// Mean microseconds per drifting window, warm incremental arm.
    pub incremental_us: f64,
    /// Mean microseconds per drifting window, from-scratch `plan` arm.
    pub scratch_us: f64,
    /// Heap allocations across one zero-drift steady-state incremental
    /// window — must be 0; `None` when no allocation probe is installed.
    pub steady_allocs: Option<u64>,
}

impl PlacementScalePoint {
    /// `scratch / incremental` — how many times faster the warm path is.
    pub fn speedup(&self) -> f64 {
        self.scratch_us / self.incremental_us
    }
}

/// Simulator throughput for one workload profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPoint {
    /// Workload name (`vld` / `fpd`).
    pub name: &'static str,
    /// Simulated seconds driven per run.
    pub simulated_secs: u64,
    /// Best (minimum) wall-clock milliseconds across the measurement runs.
    pub wall_ms: f64,
    /// Fully processed tuple trees per wall-clock second (at the best run).
    pub trees_per_wall_sec: f64,
}

/// Live-runtime throughput on one pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimePoint {
    /// Pipeline name (`vld_live`).
    pub pipeline: &'static str,
    /// Root tuples (frames) pushed through per run.
    pub frames: u64,
    /// Best (minimum) wall-clock milliseconds across the measurement runs.
    pub wall_ms: f64,
    /// Tuples executed per wall-clock second across all bolts (at the best
    /// run).
    pub tuples_per_wall_sec: f64,
}

/// Live-runtime throughput at one worker-pool size, with far more logical
/// executors than workers (`Σk_i ≫ workers` — the decoupling claim).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerPoolPoint {
    /// Pool worker threads.
    pub workers: usize,
    /// Best (minimum) wall-clock milliseconds across the measurement runs.
    pub wall_ms: f64,
    /// Tuples executed per wall-clock second across all bolts (at the best
    /// run).
    pub tuples_per_wall_sec: f64,
}

/// Measured rebalance pause of the pool engine against the
/// thread-per-executor reference.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePoint {
    /// Best (minimum) microseconds for a live shrink rebalance on the
    /// pool engine (weight write + quiesce of the shrinking operators).
    pub pool_pause_us: f64,
    /// Best (minimum) microseconds for the thread-per-executor reference:
    /// stop-flag + join of the old executor generation + spawn of the new
    /// one, threads parked in the same 5 ms recv loop the old engine ran.
    pub thread_join_pause_us: f64,
}

impl RebalancePoint {
    /// `thread_join / pool` — how many times cheaper the pool rebalance is.
    pub fn speedup(&self) -> f64 {
        self.thread_join_pause_us / self.pool_pause_us
    }
}

/// One placement policy's outcome on the `repro place` smoke scenario
/// (the contended 8-machine VLD+FPD fleet). Virtual-clock simulation with
/// fixed seeds: the numbers are deterministic, so the perfdiff gate can
/// hold them to tight tolerances across machines.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPoint {
    /// `solver` (the resource-aware placement) or `round_robin` (the
    /// capacity-oblivious baseline, kept as the reference oracle).
    pub policy: &'static str,
    /// Fleet-wide fraction of edge tuples that crossed machines.
    pub cross_fraction: f64,
    /// Completion-weighted mean end-to-end sojourn across the fleet (ms).
    pub mean_sojourn_ms: f64,
    /// Relative cut vs the round-robin baseline (`1 − solver/baseline`);
    /// zero on the baseline's own row.
    pub cross_cut: f64,
}

/// The saturation-soak outcome embedded in the snapshot: the smoke shape
/// of `repro soak` (flood + continuous rebalances through deliberately
/// small bounded channels), reduced to the gated numbers. Latency
/// percentiles are the headline — throughput under churn is table stakes,
/// the tail is what production feels.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakPoint {
    /// Scenario name (`vld_churn`).
    pub scenario: &'static str,
    /// Median ingress→ack latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile ingress→ack latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile ingress→ack latency, milliseconds.
    pub p99_ms: f64,
    /// Peak input-queue depth on any slot (≤ the channel capacity — the
    /// hard bound).
    pub max_queue_depth: u64,
    /// Executor-task suspensions taken on full downstream channels.
    pub suspensions: u64,
    /// Tuples executed per wall-clock second over the soak.
    pub tuples_per_sec: f64,
}

/// The whole perf snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Scheduling sweep over the Table II `Kmax` values.
    pub scheduling: Vec<SchedPoint>,
    /// Event-queue hold-model sweep over pending-population sizes.
    pub event_queue: Vec<EventQueuePoint>,
    /// The far-future-heavy calendar-ladder guard at 10⁶ pending events.
    pub event_queue_far: EventQueueFarPoint,
    /// Fleet-scale warm-start negotiation vs from-scratch (smoke shape of
    /// `repro fleet --scale 100k`).
    pub fleet_scale: FleetScalePoint,
    /// Placement-scale warm-start machine assignment vs from-scratch
    /// (smoke shape of `repro fleet --scale 100k --place`).
    pub placement_scale: PlacementScalePoint,
    /// Simulator end-to-end runs.
    pub simulator: Vec<SimPoint>,
    /// Live-runtime end-to-end runs.
    pub runtime: Vec<RuntimePoint>,
    /// Worker-pool sweep (same pipeline, varying pool size, k ≫ workers).
    pub worker_pool: Vec<WorkerPoolPoint>,
    /// Rebalance pause: pool vs thread-per-executor reference.
    pub rebalance: RebalancePoint,
    /// Machine placement on the contended fleet: solver vs round-robin.
    pub placement: Vec<PlacementPoint>,
    /// Saturation soak under continuous rebalances (smoke shape).
    pub soak: SoakPoint,
}

/// Pending-population sizes of the event-queue sweep.
pub const EVENT_QUEUE_SWEEP: [u64; 3] = [10_000, 100_000, 1_000_000];

/// Pool sizes of the worker-pool sweep; the pipeline runs Σk = 7 logical
/// executors at every point, so each point has k ≫ workers.
pub const WORKER_POOL_SWEEP: [usize; 3] = [1, 2, 4];

/// Hold cycles per event-queue point. Deliberately independent of
/// `--quick`: the measured cost amortizes re-seed spills over the op
/// count, so changing it would systematically shift the metric and flake
/// the perfdiff gate between the committed baseline and CI's smoke run.
const EVENT_QUEUE_HOLD_OPS: u64 = 400_000;

/// Measurement repetitions for the wall-clock rows; the minimum wall time
/// is reported so the perfdiff gate sees scheduler/allocator noise, not the
/// workload.
const WALL_RUNS: u32 = 3;

/// Frames pushed through the live VLD pipeline per run. Deliberately
/// independent of `--quick` so the committed baseline and the CI smoke run
/// measure the same steady-state mix.
const RUNTIME_FRAMES: u64 = 4_000;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The minimal scheduler interface the hold model drives.
trait HoldQueue {
    fn push(&mut self, time: u64);
    fn pop(&mut self) -> u64;
}

impl HoldQueue for CalendarQueue<u32> {
    fn push(&mut self, time: u64) {
        CalendarQueue::push(self, time, 0);
    }

    fn pop(&mut self) -> u64 {
        CalendarQueue::pop(self)
            .expect("hold model never empties")
            .0
    }
}

/// The binary-heap reference: the exact `(time, FIFO sequence)` ordering
/// the simulator used before the calendar swap.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    next_seq: u64,
}

impl HoldQueue for HeapQueue {
    fn push(&mut self, time: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq)));
    }

    fn pop(&mut self) -> u64 {
        self.heap.pop().expect("hold model never empties").0 .0
    }
}

/// Hold-model benchmark of one queue implementation: pre-fill `pending`
/// events, then time `ops` pop-and-reinsert cycles (the simulator's
/// steady-state pattern). Returns mean nanoseconds per cycle.
fn hold_model_ns<Q: HoldQueue>(queue: &mut Q, pending: u64, ops: u64, seed: u64) -> f64 {
    let mut rng = XorShift(seed | 1);
    for _ in 0..pending {
        queue.push(rng.next() % (pending * 1_000));
    }
    let start = Instant::now();
    for _ in 0..ops {
        let t = queue.pop();
        // Bounded forward increments keep the population's time density
        // stationary, as simulator service/arrival sampling does.
        queue.push(t + 500 + rng.next() % 2_000_000);
    }
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// Times the calendar queue against the binary-heap reference at one
/// pending-population size, `ops` hold cycles each (best of
/// `WALL_RUNS` − 1 attempts, so one scheduler hiccup cannot poison a
/// committed number).
pub fn event_queue_point(pending: u64, ops: u64, seed: u64) -> EventQueuePoint {
    let mut calendar_ns = f64::INFINITY;
    let mut heap_ns = f64::INFINITY;
    for _ in 0..WALL_RUNS.saturating_sub(1).max(1) {
        let mut calendar: CalendarQueue<u32> = CalendarQueue::new();
        calendar_ns = calendar_ns.min(hold_model_ns(&mut calendar, pending, ops, seed));
        let mut heap = HeapQueue::default();
        heap_ns = heap_ns.min(hold_model_ns(&mut heap, pending, ops, seed));
    }
    EventQueuePoint {
        pending,
        calendar_ns,
        heap_ns,
    }
}

/// [`event_queue_point`] across the whole [`EVENT_QUEUE_SWEEP`].
pub fn run_event_queue(ops: u64, seed: u64) -> Vec<EventQueuePoint> {
    EVENT_QUEUE_SWEEP
        .iter()
        .map(|&pending| event_queue_point(pending, ops, seed))
        .collect()
}

/// Far-future-heavy hold model: 7 of 8 reinserts jump ~10³–10⁶× further
/// ahead than the near-term churn of [`hold_model_ns`], so the pending
/// population collapses into a distant cloud the scheduler must wade
/// through — the pattern that punishes a mis-sized calendar ladder with
/// long empty-bucket scans. Returns mean nanoseconds per cycle.
fn hold_model_far_ns<Q: HoldQueue>(queue: &mut Q, pending: u64, ops: u64, seed: u64) -> f64 {
    let mut rng = XorShift(seed | 1);
    for _ in 0..pending {
        queue.push(rng.next() % (pending * 1_000));
    }
    let start = Instant::now();
    for _ in 0..ops {
        let t = queue.pop();
        let jump = if rng.next().is_multiple_of(8) {
            500 + rng.next() % 2_000_000
        } else {
            1_000_000_000 + rng.next() % 4_000_000_000
        };
        queue.push(t + jump);
    }
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// Times the calendar queue against the binary-heap reference on the
/// far-future-heavy hold model (best of `WALL_RUNS` − 1 attempts).
pub fn event_queue_far_point(pending: u64, ops: u64, seed: u64) -> EventQueueFarPoint {
    let mut calendar_ns = f64::INFINITY;
    let mut heap_ns = f64::INFINITY;
    for _ in 0..WALL_RUNS.saturating_sub(1).max(1) {
        let mut calendar: CalendarQueue<u32> = CalendarQueue::new();
        calendar_ns = calendar_ns.min(hold_model_far_ns(&mut calendar, pending, ops, seed));
        let mut heap = HeapQueue::default();
        heap_ns = heap_ns.min(hold_model_far_ns(&mut heap, pending, ops, seed));
    }
    EventQueueFarPoint {
        pending,
        calendar_ns,
        heap_ns,
    }
}

/// A spout adapter stripping inter-emission waits, so the pipeline runs
/// throughput-bound rather than arrival-paced; overrides the batch hook so
/// the engine ships full spout batches through one channel send per edge.
/// Shared with the saturation soak (`crate::soak`).
pub(crate) struct Unthrottled<S>(pub(crate) S);

impl<S: Spout> Spout for Unthrottled<S> {
    fn next(&mut self) -> Option<SpoutEmission> {
        self.0.next().map(|e| SpoutEmission {
            wait: Duration::ZERO,
            ..e
        })
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<drs_runtime::Tuple>) -> Option<Duration> {
        for _ in 0..max {
            let Some(emission) = self.0.next() else {
                return (!out.is_empty()).then_some(Duration::ZERO);
            };
            out.push(emission.tuple);
        }
        Some(Duration::ZERO)
    }
}

/// One throughput run of the live VLD pipeline (synthetic frames → feature
/// extraction → logo matching → aggregation) on the pool runtime, at
/// `workers` pool threads (`None` = the engine default). Returns
/// `(wall_secs, tuples_executed)`.
fn run_vld_live_once(frames: u64, seed: u64, workers: Option<usize>) -> (f64, u64) {
    let topo = VldProfile::paper().topology();
    let ids: Vec<_> = topo.operators().iter().map(|o| o.id()).collect();
    let start = Instant::now();
    let mut builder = RuntimeBuilder::new(topo)
        .spout(
            ids[0],
            Box::new(Unthrottled(FrameSpout::new(1.0e6, seed, Some(frames)))),
        )
        .bolt(ids[1], ExtractBolt::new)
        .bolt(ids[2], move || MatchBolt::new(24, 0.35, seed))
        .bolt(ids[3], || AggregateBolt::new(3))
        .allocation(vec![1, 4, 2, 1]);
    if let Some(workers) = workers {
        builder = builder.workers(workers);
    }
    let engine = builder.start().expect("valid runtime");
    let drained = engine.wait_until_drained(Duration::from_secs(120));
    assert!(
        drained,
        "VLD pipeline failed to drain {frames} frames within 120 s — \
         the runner is too loaded for a valid throughput measurement"
    );
    let wall = start.elapsed().as_secs_f64();
    let snap = engine.shutdown(Duration::from_secs(1));
    let tuples: u64 = snap.operators.iter().map(|o| o.completions).sum();
    (wall, tuples)
}

/// Measures the pool engine's live rebalance pause: a hot two-stage
/// pipeline is repeatedly shrunk and re-grown; each *shrink* pause (the
/// expensive direction — it quiesces the shrinking operator) is measured
/// and the minimum returned, in microseconds.
pub fn pool_rebalance_pause_us(rounds: u32) -> f64 {
    use drs_runtime::operator::{Bolt, Collector};
    use drs_runtime::tuple::Tuple;
    use drs_topology::TopologyBuilder;

    struct Flood;
    impl Spout for Flood {
        fn next(&mut self) -> Option<SpoutEmission> {
            Some(SpoutEmission {
                tuple: Tuple::of(0i64),
                wait: Duration::ZERO,
            })
        }
    }
    struct Busy;
    impl Bolt for Busy {
        fn execute(&mut self, _t: &Tuple, _c: &mut dyn Collector) {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    let mut b = TopologyBuilder::new();
    let src = b.spout("src");
    let work = b.bolt("work");
    b.edge(src, work).unwrap();
    let mut engine = RuntimeBuilder::new(b.build().unwrap())
        .spout(src, Box::new(Flood))
        .bolt(work, || Busy)
        .allocation(vec![1, 8])
        .workers(4)
        .channel_capacity(1_024)
        .start()
        .expect("valid runtime");
    std::thread::sleep(Duration::from_millis(20));
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let pause = engine.rebalance(vec![1, 3]).expect("valid allocation");
        best = best.min(pause.as_secs_f64() * 1e6);
        engine.rebalance(vec![1, 8]).expect("valid allocation");
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = engine.shutdown(Duration::ZERO);
    best
}

/// The thread-per-executor rebalance reference: the old engine's pause was
/// a stop-flag broadcast, a join of every bolt executor thread of the old
/// generation (each parked in a 5 ms `recv_batch_timeout` loop, exactly as
/// the old executor loop was), and a spawn of the new generation. Returns
/// the minimum measured pause across `rounds`, in microseconds, for an
/// `old_threads` → `new_threads` transition.
pub fn thread_join_rebalance_pause_us(old_threads: usize, new_threads: usize, rounds: u32) -> f64 {
    use crossbeam::channel::{bounded, Receiver, RecvTimeoutError};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn spawn_generation(
        rx: &Receiver<u32>,
        n: usize,
    ) -> (Arc<AtomicBool>, Vec<std::thread::JoinHandle<()>>) {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..n)
            .map(|j| {
                let rx = rx.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Stagger the park phases uniformly across the 5 ms
                    // quantum: a real engine's executors park at arbitrary
                    // phases, so the join waits for the worst residual
                    // (~one quantum). Without the stagger every thread
                    // parks in lockstep and the measured join collapses to
                    // a phase boundary, flattering the old path.
                    std::thread::sleep(Duration::from_micros(5_000 * j as u64 / n.max(1) as u64));
                    let mut inbox = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        match rx.recv_batch_timeout(&mut inbox, 128, Duration::from_millis(5)) {
                            Ok(_) => inbox.clear(),
                            Err(RecvTimeoutError::Timeout) => continue,
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                })
            })
            .collect();
        (stop, handles)
    }

    let (_tx, rx) = bounded::<u32>(16);
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        // Every round measures the same old -> new transition: time the
        // join of a fresh `old_threads` generation plus the spawn of the
        // `new_threads` one, then tear the new generation down untimed.
        let (stop_old, old_handles) = spawn_generation(&rx, old_threads);
        // Let the generation park in its recv loop, as a steady-state
        // engine's executors would be.
        std::thread::sleep(Duration::from_millis(10));
        let start = Instant::now();
        stop_old.store(true, Ordering::Release);
        for h in old_handles {
            let _ = h.join();
        }
        let (stop_new, new_handles) = spawn_generation(&rx, new_threads);
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
        stop_new.store(true, Ordering::Release);
        for h in new_handles {
            let _ = h.join();
        }
    }
    best
}

/// Times both scheduling implementations across the `Kmax` sweep
/// (`iterations` calls each), the event-queue sweep, the two simulator
/// profiles and the live VLD pipeline.
///
/// The network is `table2::overhead_network`, so the JSON
/// trajectory is comparable like for like with the Table II rows.
pub fn run_perf(iterations: u32, seed: u64) -> PerfReport {
    let net = crate::table2::overhead_network();
    let scheduling = crate::table2::K_MAX_SWEEP
        .iter()
        .map(|&k_max| {
            let heap_us = time_per_call_us(iterations, || {
                std::hint::black_box(assign_processors(&net, k_max).expect("feasible"));
            });
            // Same iteration cap as table2: the reference is ~25x slower
            // per call, so full iterations would add seconds for no
            // precision.
            let reference_us = time_per_call_us(iterations.div_ceil(10), || {
                std::hint::black_box(assign_processors_reference(&net, k_max).expect("feasible"));
            });
            SchedPoint {
                k_max,
                heap_us,
                reference_us,
            }
        })
        .collect();

    let event_queue = run_event_queue(EVENT_QUEUE_HOLD_OPS, seed);
    let event_queue_far = event_queue_far_point(1_000_000, EVENT_QUEUE_HOLD_OPS, seed);

    // The fleet-scale comparison always runs the 100k-shard smoke shape
    // (deliberately independent of `iterations`/`--quick`): baseline and
    // CI must negotiate the same fleet. The absolute µs carry runner bias,
    // but the incremental-vs-scratch ratio — the tentpole claim — is
    // hardware-immune, like the scheduling speedup.
    let scale_config =
        crate::fleet_scale::FleetScaleConfig::named("100k", true, seed).expect("known scale name");
    let scale_run = crate::fleet_scale::run_fleet_scale(&scale_config);
    let fleet_scale = FleetScalePoint {
        shards: scale_config.shards as u64,
        churn_pct: scale_config.churn_fraction * 100.0,
        incremental_us: scale_run.incremental.negotiate_us,
        scratch_us: scale_run.scratch.negotiate_us,
        steady_allocs: scale_run.incremental.steady_allocs,
    };

    // The placement twin: same 100k smoke shape, warm epoch-band
    // placement state vs a from-scratch `placement::plan` per drifting
    // window. Like fleet_scale, the absolute µs carry runner bias but the
    // incremental-vs-scratch ratio is hardware-immune.
    let place_scale_config =
        crate::place_scale::PlaceScaleConfig::named("100k", true, seed).expect("known scale name");
    let place_scale_run = crate::place_scale::run_place_scale(&place_scale_config);
    let placement_scale = PlacementScalePoint {
        shards: place_scale_config.shards as u64,
        churn_pct: place_scale_config.churn_fraction * 100.0,
        incremental_us: place_scale_run.incremental_us,
        scratch_us: place_scale_run.scratch_us,
        steady_allocs: place_scale_run.steady_allocs,
    };

    let mut simulator = Vec::new();
    for (name, secs) in [("vld", 60u64), ("fpd", 10u64)] {
        // Minimum wall time over the runs: identical seeds make every run
        // the same simulation, so the spread is pure scheduler/allocator
        // noise and the minimum is the honest cost.
        let mut best_wall = f64::INFINITY;
        let mut trees = 0;
        for _ in 0..WALL_RUNS {
            let start = Instant::now();
            trees = match name {
                "vld" => {
                    let mut sim = VldProfile::paper().build_simulation([10, 11, 1], seed);
                    sim.run_for(SimDuration::from_secs(secs));
                    sim.total_sojourn_stats().count()
                }
                _ => {
                    let mut sim = FpdProfile::paper().build_simulation([6, 13, 3], seed);
                    sim.run_for(SimDuration::from_secs(secs));
                    sim.total_sojourn_stats().count()
                }
            };
            best_wall = best_wall.min(start.elapsed().as_secs_f64());
        }
        simulator.push(SimPoint {
            name,
            simulated_secs: secs,
            wall_ms: best_wall * 1e3,
            trees_per_wall_sec: trees as f64 / best_wall,
        });
    }

    let mut best_wall = f64::INFINITY;
    let mut tuples = 0;
    for _ in 0..WALL_RUNS {
        let (wall, t) = run_vld_live_once(RUNTIME_FRAMES, seed, None);
        if wall < best_wall {
            best_wall = wall;
            tuples = t;
        }
    }
    let runtime = vec![RuntimePoint {
        pipeline: "vld_live",
        frames: RUNTIME_FRAMES,
        wall_ms: best_wall * 1e3,
        tuples_per_wall_sec: tuples as f64 / best_wall,
    }];

    // The decoupling sweep: same pipeline and logical allocation (Σk = 7),
    // pool sizes far below it.
    let worker_pool = WORKER_POOL_SWEEP
        .iter()
        .map(|&workers| {
            let mut best_wall = f64::INFINITY;
            let mut tuples = 0;
            for _ in 0..WALL_RUNS.saturating_sub(1).max(1) {
                let (wall, t) = run_vld_live_once(RUNTIME_FRAMES, seed, Some(workers));
                if wall < best_wall {
                    best_wall = wall;
                    tuples = t;
                }
            }
            WorkerPoolPoint {
                workers,
                wall_ms: best_wall * 1e3,
                tuples_per_wall_sec: tuples as f64 / best_wall,
            }
        })
        .collect();

    let rebalance = RebalancePoint {
        pool_pause_us: pool_rebalance_pause_us(5),
        thread_join_pause_us: thread_join_rebalance_pause_us(8, 3, 5),
    };

    // The placement comparison always runs the smoke shape (deliberately
    // independent of `iterations`/`--quick`): it is a deterministic
    // virtual-clock scenario, so baseline and CI must measure the same
    // thing.
    let place_run = crate::place::run_place(&crate::place::PlaceBenchConfig::smoke(seed));
    let placement = vec![
        PlacementPoint {
            policy: "solver",
            cross_fraction: place_run.solver.cross_fraction(),
            mean_sojourn_ms: place_run.solver.mean_sojourn_ms,
            cross_cut: place_run.cross_cut(),
        },
        PlacementPoint {
            policy: "round_robin",
            cross_fraction: place_run.round_robin.cross_fraction(),
            mean_sojourn_ms: place_run.round_robin.mean_sojourn_ms,
            cross_cut: 0.0,
        },
    ];

    // The soak, like placement, always runs its smoke shape: same flood,
    // same churn cadence, same channel capacity as CI, so the committed
    // latency percentiles compare like for like.
    let soak_run = crate::soak::run_soak(&crate::soak::SoakConfig::smoke(seed));
    let soak = SoakPoint {
        scenario: crate::soak::SOAK_SCENARIO,
        p50_ms: soak_run.p50_ms,
        p95_ms: soak_run.p95_ms,
        p99_ms: soak_run.p99_ms,
        max_queue_depth: soak_run.max_queue_depth,
        suspensions: soak_run.suspensions,
        tuples_per_sec: soak_run.tuples_per_sec(),
    };

    PerfReport {
        scheduling,
        event_queue,
        event_queue_far,
        fleet_scale,
        placement_scale,
        simulator,
        runtime,
        worker_pool,
        rebalance,
        placement,
        soak,
    }
}

/// Renders the report as ASCII tables.
pub fn render_perf(report: &PerfReport) -> String {
    let sched_rows: Vec<Vec<String>> = report
        .scheduling
        .iter()
        .map(|p| {
            vec![
                p.k_max.to_string(),
                format!("{:.2}", p.heap_us),
                format!("{:.2}", p.reference_us),
                format!("{:.1}x", p.speedup()),
            ]
        })
        .collect();
    let mut out = render_table(
        "Scheduling: heap+incremental vs from-scratch reference (µs per call)",
        &["Kmax", "heap (µs)", "reference (µs)", "speedup"],
        &sched_rows,
    );
    let eq_rows: Vec<Vec<String>> = report
        .event_queue
        .iter()
        .map(|p| {
            vec![
                p.pending.to_string(),
                format!("{:.1}", p.calendar_ns),
                format!("{:.1}", p.heap_ns),
                format!("{:.1}x", p.speedup()),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Event queue: calendar vs binary heap (ns per hold cycle)",
        &["pending", "calendar (ns)", "heap (ns)", "speedup"],
        &eq_rows,
    ));
    out.push_str(&render_table(
        "Event queue, far-future-heavy (ladder scale guard)",
        &["pending", "calendar (ns)", "heap (ns)", "speedup"],
        &[vec![
            report.event_queue_far.pending.to_string(),
            format!("{:.1}", report.event_queue_far.calendar_ns),
            format!("{:.1}", report.event_queue_far.heap_ns),
            format!("{:.1}x", report.event_queue_far.speedup()),
        ]],
    ));
    out.push_str(&render_table(
        "Fleet scale: incremental vs from-scratch negotiation (µs per contended window)",
        &[
            "shards",
            "churn %",
            "incremental (µs)",
            "from-scratch (µs)",
            "speedup",
            "steady allocs",
        ],
        &[vec![
            report.fleet_scale.shards.to_string(),
            format!("{:.0}", report.fleet_scale.churn_pct),
            format!("{:.1}", report.fleet_scale.incremental_us),
            format!("{:.1}", report.fleet_scale.scratch_us),
            format!("{:.1}x", report.fleet_scale.speedup()),
            report
                .fleet_scale
                .steady_allocs
                .map_or_else(|| "n/a".to_owned(), |n| n.to_string()),
        ]],
    ));
    out.push_str(&render_table(
        "Placement scale: incremental vs from-scratch machine assignment (µs per drifting window)",
        &[
            "shards",
            "churn %",
            "incremental (µs)",
            "from-scratch (µs)",
            "speedup",
            "steady allocs",
        ],
        &[vec![
            report.placement_scale.shards.to_string(),
            format!("{:.0}", report.placement_scale.churn_pct),
            format!("{:.1}", report.placement_scale.incremental_us),
            format!("{:.1}", report.placement_scale.scratch_us),
            format!("{:.1}x", report.placement_scale.speedup()),
            report
                .placement_scale
                .steady_allocs
                .map_or_else(|| "n/a".to_owned(), |n| n.to_string()),
        ]],
    ));
    let sim_rows: Vec<Vec<String>> = report
        .simulator
        .iter()
        .map(|p| {
            vec![
                p.name.to_owned(),
                p.simulated_secs.to_string(),
                format!("{:.1}", p.wall_ms),
                format!("{:.0}", p.trees_per_wall_sec),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Simulator throughput (best of runs)",
        &["app", "sim secs", "wall (ms)", "trees/wall-sec"],
        &sim_rows,
    ));
    let rt_rows: Vec<Vec<String>> = report
        .runtime
        .iter()
        .map(|p| {
            vec![
                p.pipeline.to_owned(),
                p.frames.to_string(),
                format!("{:.1}", p.wall_ms),
                format!("{:.0}", p.tuples_per_wall_sec),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Runtime throughput (best of runs)",
        &["pipeline", "frames", "wall (ms)", "tuples/wall-sec"],
        &rt_rows,
    ));
    let wp_rows: Vec<Vec<String>> = report
        .worker_pool
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                format!("{:.1}", p.wall_ms),
                format!("{:.0}", p.tuples_per_wall_sec),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Worker-pool sweep: vld_live at Σk = 7 logical executors",
        &["workers", "wall (ms)", "tuples/wall-sec"],
        &wp_rows,
    ));
    out.push_str(&render_table(
        "Rebalance pause: pool vs thread-per-executor (µs, best of rounds)",
        &["pool (µs)", "thread-join (µs)", "speedup"],
        &[vec![
            format!("{:.1}", report.rebalance.pool_pause_us),
            format!("{:.1}", report.rebalance.thread_join_pause_us),
            format!("{:.1}x", report.rebalance.speedup()),
        ]],
    ));
    let place_rows: Vec<Vec<String>> = report
        .placement
        .iter()
        .map(|p| {
            vec![
                p.policy.to_owned(),
                format!("{:.3}", p.cross_fraction),
                format!("{:.1}", p.mean_sojourn_ms),
                format!("{:.0}%", p.cross_cut * 100.0),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Placement: solver vs round-robin on the contended 8-machine fleet",
        &["policy", "cross fraction", "sojourn (ms)", "cut"],
        &place_rows,
    ));
    out.push_str(&render_table(
        "Soak: saturation latency under continuous rebalances",
        &[
            "scenario",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "max depth",
            "suspensions",
            "tuples/sec",
        ],
        &[vec![
            report.soak.scenario.to_owned(),
            format!("{:.3}", report.soak.p50_ms),
            format!("{:.3}", report.soak.p95_ms),
            format!("{:.3}", report.soak.p99_ms),
            report.soak.max_queue_depth.to_string(),
            report.soak.suspensions.to_string(),
            format!("{:.0}", report.soak.tuples_per_sec),
        ]],
    ));
    out
}

/// Serialises the report as JSON (hand-rolled: the offline build has no
/// serde_json; the schema is flat enough that escaping never arises).
pub fn perf_json(report: &PerfReport) -> String {
    let mut s = String::from("{\n  \"scheduling\": [\n");
    for (i, p) in report.scheduling.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"k_max\": {}, \"heap_us\": {:.4}, \"reference_us\": {:.4}, \"speedup\": {:.2}}}{}\n",
            p.k_max,
            p.heap_us,
            p.reference_us,
            p.speedup(),
            if i + 1 < report.scheduling.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"event_queue\": [\n");
    for (i, p) in report.event_queue.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"pending\": {}, \"calendar_ns\": {:.2}, \"heap_ns\": {:.2}, \"eq_speedup\": {:.2}}}{}\n",
            p.pending,
            p.calendar_ns,
            p.heap_ns,
            p.speedup(),
            if i + 1 < report.event_queue.len() { "," } else { "" },
        ));
    }
    // `far_pending` (not `pending`) keeps the line-keyed perfdiff parser
    // from reading this row as a regular event_queue point.
    s.push_str("  ],\n  \"event_queue_far\": [\n");
    s.push_str(&format!(
        "    {{\"far_pending\": {}, \"calendar_ns\": {:.2}, \"heap_ns\": {:.2}, \"far_speedup\": {:.2}}}\n",
        report.event_queue_far.pending,
        report.event_queue_far.calendar_ns,
        report.event_queue_far.heap_ns,
        report.event_queue_far.speedup(),
    ));
    // Emitted only when the allocation probe ran (it always does under
    // the repro binary); `shards` is this section's disjoint line key.
    let steady = report
        .fleet_scale
        .steady_allocs
        .map_or_else(String::new, |n| format!(", \"steady_allocs\": {n}"));
    s.push_str("  ],\n  \"fleet_scale\": [\n");
    s.push_str(&format!(
        "    {{\"shards\": {}, \"churn_pct\": {:.1}, \"incremental_us\": {:.2}, \"scratch_us\": {:.2}, \"fleet_speedup\": {:.2}{}}}\n",
        report.fleet_scale.shards,
        report.fleet_scale.churn_pct,
        report.fleet_scale.incremental_us,
        report.fleet_scale.scratch_us,
        report.fleet_scale.speedup(),
        steady,
    ));
    // `place_shards`/`place_incremental_us` (not `shards`/`incremental_us`)
    // keep the line-keyed perfdiff parser from reading this row as a
    // fleet_scale point.
    let place_steady = report
        .placement_scale
        .steady_allocs
        .map_or_else(String::new, |n| format!(", \"place_steady_allocs\": {n}"));
    s.push_str("  ],\n  \"placement_scale\": [\n");
    s.push_str(&format!(
        "    {{\"place_shards\": {}, \"churn_pct\": {:.1}, \"place_incremental_us\": {:.2}, \"place_scratch_us\": {:.2}, \"place_speedup\": {:.2}{}}}\n",
        report.placement_scale.shards,
        report.placement_scale.churn_pct,
        report.placement_scale.incremental_us,
        report.placement_scale.scratch_us,
        report.placement_scale.speedup(),
        place_steady,
    ));
    s.push_str("  ],\n  \"simulator\": [\n");
    for (i, p) in report.simulator.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"app\": \"{}\", \"simulated_secs\": {}, \"wall_ms\": {:.2}, \"trees_per_wall_sec\": {:.1}}}{}\n",
            p.name,
            p.simulated_secs,
            p.wall_ms,
            p.trees_per_wall_sec,
            if i + 1 < report.simulator.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"runtime\": [\n");
    for (i, p) in report.runtime.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"pipeline\": \"{}\", \"frames\": {}, \"wall_ms\": {:.2}, \"tuples_per_wall_sec\": {:.1}}}{}\n",
            p.pipeline,
            p.frames,
            p.wall_ms,
            p.tuples_per_wall_sec,
            if i + 1 < report.runtime.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"worker_pool\": [\n");
    for (i, p) in report.worker_pool.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workers\": {}, \"wall_ms\": {:.2}, \"tuples_per_wall_sec\": {:.1}}}{}\n",
            p.workers,
            p.wall_ms,
            p.tuples_per_wall_sec,
            if i + 1 < report.worker_pool.len() {
                ","
            } else {
                ""
            },
        ));
    }
    s.push_str("  ],\n  \"rebalance\": [\n");
    s.push_str(&format!(
        "    {{\"path\": \"pool\", \"pause_us\": {:.2}, \"pause_speedup\": {:.2}}},\n",
        report.rebalance.pool_pause_us,
        report.rebalance.speedup(),
    ));
    s.push_str(&format!(
        "    {{\"path\": \"thread_join\", \"pause_us\": {:.2}}}\n",
        report.rebalance.thread_join_pause_us,
    ));
    s.push_str("  ],\n  \"placement\": [\n");
    for (i, p) in report.placement.iter().enumerate() {
        // The cut is only meaningful relative to the baseline row, so it
        // is emitted (and gated) on the solver row alone.
        let cut = if p.policy == "solver" {
            format!(", \"cross_cut\": {:.4}", p.cross_cut)
        } else {
            String::new()
        };
        s.push_str(&format!(
            "    {{\"policy\": \"{}\", \"cross_fraction\": {:.4}, \"mean_sojourn_ms\": {:.2}{}}}{}\n",
            p.policy,
            p.cross_fraction,
            p.mean_sojourn_ms,
            cut,
            if i + 1 < report.placement.len() { "," } else { "" },
        ));
    }
    // The soak line's keys are disjoint from every other section's
    // (no `workers`/`tuples_per_wall_sec`/`pipeline` here), so the
    // line-keyed perfdiff parser can never mistake it for another row.
    s.push_str("  ],\n  \"soak\": [\n");
    s.push_str(&format!(
        "    {{\"scenario\": \"{}\", \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_queue_depth\": {}, \"suspensions\": {}, \"soak_tuples_per_sec\": {:.1}}}\n",
        report.soak.scenario,
        report.soak.p50_ms,
        report.soak.p95_ms,
        report.soak.p99_ms,
        report.soak.max_queue_depth,
        report.soak.suspensions,
        report.soak.tuples_per_sec,
    ));
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_path_beats_reference_at_large_kmax() {
        // Times only the Kmax = 192 pair (not the full run_perf sweep with
        // its simulator runs — that is repro's job). Wall-clock assertion:
        // measured ≈ 25x in release and ≈ 20x in debug, so the 5x
        // acceptance bar has a wide margin — but a loaded runner can still
        // produce an outlier, so take the best of a few attempts.
        let net = crate::table2::overhead_network();
        let best = (0..3)
            .map(|_| {
                let heap_us = time_per_call_us(300, || {
                    std::hint::black_box(assign_processors(&net, 192).expect("feasible"));
                });
                let reference_us = time_per_call_us(30, || {
                    std::hint::black_box(assign_processors_reference(&net, 192).expect("feasible"));
                });
                SchedPoint {
                    k_max: 192,
                    heap_us,
                    reference_us,
                }
            })
            .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
            .expect("three attempts");
        assert!(
            best.speedup() >= 5.0,
            "speedup at Kmax=192 only {:.1}x ({:.2}µs vs {:.2}µs)",
            best.speedup(),
            best.heap_us,
            best.reference_us
        );
    }

    #[test]
    fn calendar_queue_beats_heap_at_large_populations() {
        // The tentpole claim, as a wall-clock assertion: at 10^5+ pending
        // events the O(1) calendar queue must beat the O(log m) heap on
        // the hold model. Best of three attempts to shrug off runner
        // noise; the margin is ~2-4x in release, so >1x is a wide bar.
        let best = (0..3)
            .map(|_| event_queue_point(100_000, 50_000, 7))
            .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
            .expect("three attempts");
        assert!(
            best.speedup() > 1.0,
            "calendar {:.1} ns/op vs heap {:.1} ns/op at 10^5 pending",
            best.calendar_ns,
            best.heap_ns
        );
    }

    fn report_fixture() -> PerfReport {
        PerfReport {
            scheduling: vec![SchedPoint {
                k_max: 12,
                heap_us: 1.0,
                reference_us: 5.0,
            }],
            event_queue: vec![EventQueuePoint {
                pending: 100_000,
                calendar_ns: 50.0,
                heap_ns: 150.0,
            }],
            event_queue_far: EventQueueFarPoint {
                pending: 1_000_000,
                calendar_ns: 900.0,
                heap_ns: 2_700.0,
            },
            fleet_scale: FleetScalePoint {
                shards: 100_000,
                churn_pct: 5.0,
                incremental_us: 60_000.0,
                scratch_us: 1_000_000.0,
                steady_allocs: Some(0),
            },
            placement_scale: PlacementScalePoint {
                shards: 100_000,
                churn_pct: 5.0,
                incremental_us: 30_000.0,
                scratch_us: 600_000.0,
                steady_allocs: Some(0),
            },
            simulator: vec![SimPoint {
                name: "vld",
                simulated_secs: 60,
                wall_ms: 10.0,
                trees_per_wall_sec: 100.0,
            }],
            runtime: vec![RuntimePoint {
                pipeline: "vld_live",
                frames: 4_000,
                wall_ms: 60.0,
                tuples_per_wall_sec: 1.0e6,
            }],
            worker_pool: vec![WorkerPoolPoint {
                workers: 2,
                wall_ms: 70.0,
                tuples_per_wall_sec: 0.9e6,
            }],
            rebalance: RebalancePoint {
                pool_pause_us: 200.0,
                thread_join_pause_us: 6_000.0,
            },
            placement: vec![
                PlacementPoint {
                    policy: "solver",
                    cross_fraction: 0.37,
                    mean_sojourn_ms: 180.0,
                    cross_cut: 0.5,
                },
                PlacementPoint {
                    policy: "round_robin",
                    cross_fraction: 0.74,
                    mean_sojourn_ms: 195.0,
                    cross_cut: 0.0,
                },
            ],
            soak: SoakPoint {
                scenario: "vld_churn",
                p50_ms: 1.5,
                p95_ms: 4.0,
                p99_ms: 9.0,
                max_queue_depth: 128,
                suspensions: 5_000,
                tuples_per_sec: 0.5e6,
            },
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = perf_json(&report_fixture());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"k_max\": 12"));
        assert!(json.contains("\"speedup\": 5.00"));
        assert!(json.contains("\"pending\": 100000"));
        assert!(json.contains("\"eq_speedup\": 3.00"));
        assert!(json.contains("\"far_pending\": 1000000"));
        assert!(json.contains("\"far_speedup\": 3.00"));
        assert!(json.contains("\"shards\": 100000"));
        assert!(json.contains("\"churn_pct\": 5.0"));
        assert!(json.contains("\"fleet_speedup\": 16.67"));
        assert!(json.contains("\"steady_allocs\": 0"));
        assert!(json.contains("\"place_shards\": 100000"));
        assert!(json.contains("\"place_incremental_us\": 30000.00"));
        assert!(json.contains("\"place_speedup\": 20.00"));
        assert!(json.contains("\"place_steady_allocs\": 0"));
        assert!(json.contains("\"app\": \"vld\""));
        assert!(json.contains("\"pipeline\": \"vld_live\""));
        assert!(json.contains("\"workers\": 2"));
        assert!(json.contains("\"path\": \"pool\""));
        assert!(json.contains("\"pause_speedup\": 30.00"));
        assert!(json.contains("\"path\": \"thread_join\""));
        assert!(json.contains("\"policy\": \"solver\""));
        assert!(json.contains("\"cross_cut\": 0.5000"));
        assert!(json.contains("\"policy\": \"round_robin\""));
        // The baseline row carries no cut: it IS the reference.
        assert_eq!(json.matches("cross_cut").count(), 1);
        assert!(json.contains("\"scenario\": \"vld_churn\""));
        assert!(json.contains("\"p50_ms\": 1.500"));
        assert!(json.contains("\"p99_ms\": 9.000"));
        assert!(json.contains("\"max_queue_depth\": 128"));
        assert!(json.contains("\"suspensions\": 5000"));
        assert!(json.contains("\"soak_tuples_per_sec\": 500000.0"));
        assert!(!json.contains("},\n  ]"), "no trailing commas:\n{json}");
    }

    #[test]
    fn render_includes_all_sections() {
        let s = render_perf(&report_fixture());
        assert!(s.contains("speedup"));
        assert!(s.contains("trees/wall-sec"));
        assert!(s.contains("calendar (ns)"));
        assert!(s.contains("far-future-heavy"));
        assert!(s.contains("incremental vs from-scratch negotiation"));
        assert!(s.contains("incremental vs from-scratch machine assignment"));
        assert!(s.contains("steady allocs"));
        assert!(s.contains("tuples/wall-sec"));
        assert!(s.contains("Worker-pool sweep"));
        assert!(s.contains("thread-join (µs)"));
        assert!(s.contains("Placement: solver vs round-robin"));
        assert!(s.contains("cross fraction"));
        assert!(s.contains("Soak: saturation latency"));
        assert!(s.contains("p99 (ms)"));
    }

    #[test]
    fn pool_rebalance_pause_beats_thread_join() {
        // The tentpole claim as a wall-clock assertion: a live shrink on
        // the pool (weight write + envelope-boundary quiesce) must be
        // cheaper than stopping and re-spawning a thread generation parked
        // in 5 ms recv loops. Best of three attempts; the measured margin
        // is ~10-30x, so >1x is a wide bar.
        let best = (0..3)
            .map(|_| RebalancePoint {
                pool_pause_us: pool_rebalance_pause_us(3),
                thread_join_pause_us: thread_join_rebalance_pause_us(8, 3, 3),
            })
            .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
            .expect("three attempts");
        assert!(
            best.speedup() > 1.0,
            "pool pause {:.1}µs vs thread-join {:.1}µs",
            best.pool_pause_us,
            best.thread_join_pause_us
        );
    }
}
