//! `fleet_100k`: `FleetDriver::step` over 100,000 analytic 2-operator
//! shards with negotiation and machine placement, single-threaded.
//!
//! Each shard reports the M/M/k sojourn of its current load and
//! allocation (`fleet::mmk_measured_sojourn`). Every window a seeded 5% of
//! shards redraw their load factor within ±20% of their own base; shards
//! start from that same stationary distribution (started at base rates
//! the window cost only plateaus after about 80 windows). The budget is
//! 95% of aggregate demand, so negotiation is contended, and executors
//! are placed on 64 uniform machines.

use crate::report::{mean, median, quantile, Outcome};
use crate::timed::Timed;
use crate::trace::{self, Probe, Tracer};
use drs_core::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use drs_core::fleet::{
    mmk_measured_sojourn, FleetDriver, FleetDriverConfig, FleetShardSpec, ShardPlacementInfo,
};
use drs_core::placement::MachinePool;
use drs_core::scheduler;
use drs_queueing::jackson::JacksonNetwork;
use drs_topology::ResourceProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

pub const SHARDS: usize = 100_000;
const MACHINES: usize = 64;
/// Share of shards that redraw their load factor each window.
const DRIFT_SHARE: f64 = 0.05;
/// Load factors are drawn uniformly from `1 ± DRIFT` times the base.
const DRIFT: f64 = 0.2;
/// The budget as a share of aggregate demand at the initial loads.
const BUDGET_SHARE: f64 = 0.95;
/// Pool capacity as a multiple of the initial demand's resource units.
const POOL_HEADROOM: f64 = 1.3;
/// Warm-up windows in set-up; the first full placement solve is among
/// them.
const WARMUP_WINDOWS: u64 = 6;
/// Setups per run, one before the measurement and the rest after it;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Windows run after set-up and before timing. The window cost climbs
/// for about 20 windows after set-up (≈210 → 400 ms on a 2-CPU reference
/// box) and only then levels off, with a batch placement re-solve about
/// every 16 windows; timing the climb made the run's median hinge on how
/// much of it a run covered.
const SETTLE_WINDOWS: usize = 20;
/// Levelled-off window wall time on the reference box, used only to turn
/// `--seconds` into a fixed window count, so every run covers the same
/// stretch of the re-solve cycle.
const REFERENCE_WINDOW_S: f64 = 0.4;
/// Upper bound handed to Program 6 when computing a shard's demand.
const DEMAND_CAP: u32 = 4096;

/// One analytic shard: a 2-operator chain under M/M/k queueing.
#[derive(Debug, Clone)]
pub struct AnalyticShard {
    rate: f64,
    gain: f64,
    mu: [f64; 2],
    factor: f64,
    allocation: Vec<u32>,
}

impl CspBackend for AnalyticShard {
    fn backend_name(&self) -> &'static str {
        "analytic"
    }

    fn operator_names(&self) -> Vec<String> {
        vec!["first".to_owned(), "second".to_owned()]
    }

    fn current_allocation(&self) -> Vec<u32> {
        self.allocation.clone()
    }

    fn current_allocation_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.allocation);
    }

    fn advance(&mut self, window_secs: f64) -> WindowSample {
        let mut out = WindowSample::default();
        self.advance_into(window_secs, &mut out);
        out
    }

    fn advance_into(&mut self, window_secs: f64, out: &mut WindowSample) {
        let rate = self.rate * self.factor;
        let second = rate * self.gain;
        out.external_rate = Some(rate);
        out.operators.clear();
        out.operators.push(OperatorSample {
            arrival_rate: Some(rate),
            service_rate: Some(self.mu[0]),
        });
        out.operators.push(OperatorSample {
            arrival_rate: Some(second),
            service_rate: Some(self.mu[1]),
        });
        // Jackson: E[T] = E[T0] + (λ1/λ0)·E[T1].
        out.mean_sojourn = Some(
            mmk_measured_sojourn(rate, self.mu[0], self.allocation[0])
                + self.gain * mmk_measured_sojourn(second, self.mu[1], self.allocation[1]),
        );
        out.std_sojourn = None;
        out.completed = (rate * window_secs) as u64;
    }

    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        self.allocation.clone_from(&plan.allocation);
        Ok(AppliedRebalance {
            allocation: plan.allocation.clone(),
            pause_secs: plan.pause_secs,
        })
    }
}

/// What the benchmark knows about each shard, for the checks.
#[derive(Debug, Clone)]
struct ShardGen {
    rate: f64,
    gain: f64,
    mu: [f64; 2],
    units: [f64; 2],
    t_max: f64,
    /// Fewest executors that keep each operator stable at the lowest load
    /// the drift can draw; the negotiator never grants below the stable
    /// floor of a smoothed load, which is at least this.
    floor: [u32; 2],
}

impl ShardGen {
    fn draw(rng: &mut StdRng) -> ShardGen {
        let rate = rng.gen_range(5.0..50.0);
        let gain = rng.gen_range(1.0..3.0);
        let loads: [f64; 2] = [rng.gen_range(2.0..6.0), rng.gen_range(2.0..6.0)];
        let mu = [rate / loads[0], rate * gain / loads[1]];
        ShardGen {
            rate,
            gain,
            mu,
            units: [rng.gen_range(0.5..1.5), rng.gen_range(0.5..1.5)],
            t_max: 1.5 * (1.0 / mu[0] + gain / mu[1]),
            floor: loads.map(|a| ((1.0 - DRIFT) * a).floor() as u32 + 1),
        }
    }

    /// The shard's own Program 6 answer at load factor `factor`.
    fn demand(&self, factor: f64) -> Vec<u32> {
        let rate = self.rate * factor;
        let net =
            JacksonNetwork::from_rates(rate, &[(rate, self.mu[0]), (rate * self.gain, self.mu[1])])
                .expect("positive rates");
        scheduler::min_processors_for_target(&net, self.t_max, DEMAND_CAP)
            .expect("Tmax is 1.5x the no-queueing sojourn")
            .into_vec()
    }

    fn factor(rng: &mut StdRng) -> f64 {
        rng.gen_range(1.0 - DRIFT..1.0 + DRIFT)
    }
}

type Fleet = FleetDriver<Timed<AnalyticShard>>;

/// Builds the fleet and runs its warm-up windows.
fn build(seed: u64, probe: &Arc<Probe>) -> (Fleet, Vec<ShardGen>, u32, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gens: Vec<ShardGen> = (0..SHARDS).map(|_| ShardGen::draw(&mut rng)).collect();
    let mut demand_total = 0u64;
    let mut units_total = 0.0;
    let specs: Vec<_> = gens
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let factor = ShardGen::factor(&mut rng);
            let allocation = g.demand(factor);
            demand_total += allocation.iter().map(|&k| u64::from(k)).sum::<u64>();
            units_total +=
                f64::from(allocation[0]) * g.units[0] + f64::from(allocation[1]) * g.units[1];
            let shard = AnalyticShard {
                rate: g.rate,
                gain: g.gain,
                mu: g.mu,
                factor,
                allocation,
            };
            FleetShardSpec::new(
                format!("s{i}"),
                g.t_max,
                Timed::new(shard, Arc::clone(probe)),
            )
            .with_placement(ShardPlacementInfo {
                profiles: g.units.map(ResourceProfile::uniform).to_vec(),
                edges: vec![(0, 1, g.gain)],
            })
        })
        .collect();
    let k_max = (demand_total as f64 * BUDGET_SHARE) as u32;
    let mut config = FleetDriverConfig::new(k_max);
    config.record_timeline = false;
    let mut fleet = FleetDriver::new(config, specs).expect("valid fleet");
    let capacity = units_total * POOL_HEADROOM / MACHINES as f64;
    fleet.set_machine_pool(
        MachinePool::uniform(MACHINES, ResourceProfile::uniform(capacity)).expect("valid pool"),
    );
    for _ in 0..WARMUP_WINDOWS {
        drift(&mut fleet, &mut rng);
        fleet.step();
    }
    (fleet, gens, k_max, rng)
}

/// Redraws the load factor of a seeded 5% of shards.
fn drift(fleet: &mut Fleet, rng: &mut StdRng) {
    for _ in 0..(SHARDS as f64 * DRIFT_SHARE) as usize {
        let i = rng.gen_range(0..SHARDS);
        fleet.backend_mut(i).inner.factor = ShardGen::factor(rng);
    }
}

/// Per-window tallies from `last_window()`.
#[derive(Debug, Default)]
struct Tally {
    shard_windows: u64,
    failed: u64,
    missed: u64,
    executors: u64,
    capped: u64,
    gated: u64,
    rebalanced: u64,
}

/// Checks one window and adds it to the tally: total granted within the
/// budget, no live shard below its stability floor.
fn check_window(
    fleet: &Fleet,
    gens: &[ShardGen],
    k_max: u32,
    tally: &mut Tally,
) -> Result<(), String> {
    let w = fleet.last_window();
    if w.total_granted > u64::from(k_max) {
        return Err(format!(
            "window {}: granted {} > k_max {k_max}",
            w.window, w.total_granted
        ));
    }
    tally.shard_windows += w.shards.len() as u64;
    if w.error.is_some() {
        tally.failed += w.shards.len() as u64;
    }
    for (s, g) in w.shards.iter().zip(gens) {
        if w.error.is_none() && s.error.is_some() {
            tally.failed += 1;
        }
        if !s.dead && s.allocation.iter().zip(&g.floor).any(|(k, f)| k < f) {
            return Err(format!(
                "window {}: shard {} runs {:?}, below its stability floor {:?}",
                w.window, s.name, s.allocation, g.floor
            ));
        }
        let met = s.mean_sojourn_ms.is_some_and(|ms| ms <= g.t_max * 1e3);
        tally.missed += u64::from(!met);
        tally.executors += s.granted();
        tally.capped += u64::from(s.capped);
        tally.gated += u64::from(s.gated);
        tally.rebalanced += u64::from(s.rebalanced);
    }
    Ok(())
}

/// Checks that every shard's placement fits the machines' capacity.
fn check_placements(fleet: &Fleet, gens: &[ShardGen]) -> Result<(), String> {
    let pool = fleet.machine_pool().ok_or("no machine pool installed")?;
    let mut used = vec![ResourceProfile::uniform(0.0); pool.len()];
    for (i, g) in gens.iter().enumerate() {
        let Some(placement) = fleet.shard_placement(i) else {
            continue;
        };
        let profiles = g.units.map(ResourceProfile::uniform);
        for (u, p) in used.iter_mut().zip(placement.usage(&profiles)) {
            u.cpu += p.cpu;
            u.mem += p.mem;
            u.net += p.net;
        }
    }
    for (m, (u, spec)) in used.iter().zip(pool.machines()).enumerate() {
        let c = spec.capacity;
        let slack = 1e-6 * c.cpu.max(1.0);
        if u.cpu > c.cpu + slack || u.mem > c.mem + slack || u.net > c.net + slack {
            return Err(format!("machine {m} over capacity: uses {u:?} of {c:?}"));
        }
    }
    Ok(())
}

/// What a traced run does in a window: nothing, time the backend calls,
/// or count allocations (kept apart so neither inflates the other).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Timed,
    Counted,
}

/// The traced run's window modes, repeated: every timed or counted window
/// sits between two plain ones, so its tracing overhead is measured
/// against its neighbours — the window cost drifts through a run.
const TRACED_MODES: [Mode; 4] = [Mode::Plain, Mode::Timed, Mode::Plain, Mode::Counted];

pub fn run(seed: u64, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let probe = tracer.map_or_else(Probe::off, |t| Probe::new(t, "backend.call"));
    let windows = (seconds / REFERENCE_WINDOW_S).round().max(3.0) as usize;
    let started = Instant::now();
    let (mut fleet, gens, k_max, mut rng) = build(seed, &probe);
    let mut setups = vec![started.elapsed().as_secs_f64()];
    let mut out = Outcome::default();

    // The settling windows are checked like measured ones; only their
    // failures count.
    let mut settle = Tally::default();
    for _ in 0..SETTLE_WINDOWS {
        drift(&mut fleet, &mut rng);
        fleet.step();
        if let Err(e) = check_window(&fleet, &gens, k_max, &mut settle) {
            out.fail(e);
            break;
        }
    }

    let phase_span = tracer.map_or(0, |t| t.reserve());
    let phase_start = Instant::now();
    let mut tally = Tally::default();
    let (mut plain_ms, mut backend_ms, mut self_ms) = (vec![], vec![], vec![]);
    // Every window's mode and wall time, in order.
    let mut steps: Vec<(Mode, f64)> = Vec::with_capacity(windows);
    let mut allocs = 0;
    let (solver0, full0, wasted0) = (
        fleet.placement_solver_calls(),
        fleet.placement_full_solves(),
        fleet.wasted_grants(),
    );
    for w in (0..windows).take_while(|_| out.failure.is_none()) {
        let mode = match tracer {
            Some(_) => TRACED_MODES[w % TRACED_MODES.len()],
            None => Mode::Plain,
        };
        drift(&mut fleet, &mut rng);
        let span = tracer
            .filter(|_| mode == Mode::Timed)
            .map_or(0, |t| t.reserve());
        if let Some(s) = probe.stats() {
            s.set_parent(span);
        }
        probe.set(mode == Mode::Timed);
        let backend0 = probe.totals().1;
        trace::arm_alloc_counter(mode == Mode::Counted);
        let allocs0 = trace::allocations();
        let start = Instant::now();
        fleet.step();
        let end = Instant::now();
        trace::arm_alloc_counter(false);
        probe.set(false);
        let ms = (end - start).as_secs_f64() * 1e3;
        steps.push((mode, ms));
        match mode {
            Mode::Plain => plain_ms.push(ms),
            Mode::Timed => {
                let backend_ns = probe.totals().1 - backend0;
                if let Some(t) = tracer {
                    t.record_busy(
                        span,
                        phase_span,
                        "core.fleet.step",
                        start,
                        end,
                        backend_ns,
                        None,
                    );
                }
                backend_ms.push(backend_ns as f64 / 1e6);
                self_ms.push(ms - backend_ns as f64 / 1e6);
            }
            Mode::Counted => allocs += trace::allocations() - allocs0,
        }
        if let Err(e) = check_window(&fleet, &gens, k_max, &mut tally) {
            out.fail(e);
            break;
        }
    }
    if let Some(t) = tracer {
        t.record(phase_span, 0, "fleet.measure", phase_start, Instant::now());
    }
    if let Err(e) = check_placements(&fleet, &gens) {
        out.fail(e);
    }
    out.attempted = settle.shard_windows + tally.shard_windows;
    out.failed = settle.failed + tally.failed;
    out.e2e.latency_ms_p50 = quantile(&plain_ms, 0.5);
    let plain_secs: f64 = plain_ms.iter().sum::<f64>() / 1e3;
    out.e2e.throughput_per_s = SHARDS as f64 * plain_ms.len() as f64 / plain_secs;
    let shard_windows = tally.shard_windows.max(1) as f64;
    out.e2e.executors_mean = tally.executors as f64 / shard_windows;
    out.e2e.tmax_met_frac = 1.0 - tally.missed as f64 / shard_windows;

    if tracer.is_some() {
        let measured = (tally.shard_windows / SHARDS as u64).max(1) as f64;
        let counted = steps.iter().filter(|s| s.0 == Mode::Counted).count().max(1) as f64;
        // Each timed window against the mean of its two plain neighbours.
        let overhead: Vec<f64> = steps
            .windows(3)
            .filter(|w| w[1].0 == Mode::Timed)
            .map(|w| 2.0 * w[1].1 / (w[0].1 + w[2].1) - 1.0)
            .collect();
        out.layers = vec![
            ("latency_ms_p90", quantile(&plain_ms, 0.9)),
            ("backend.calls_ms_per_window", mean(&backend_ms)),
            ("core.fleet.step_self_ms_p50", median(&self_ms)),
            (
                "core.placement.solver_calls_per_window",
                (fleet.placement_solver_calls() - solver0) as f64 / measured,
            ),
            (
                "core.placement.full_solves",
                (fleet.placement_full_solves() - full0) as f64,
            ),
            (
                "core.fleet.capped_per_window",
                tally.capped as f64 / measured,
            ),
            ("core.fleet.gated_per_window", tally.gated as f64 / measured),
            (
                "core.fleet.rebalanced_per_window",
                tally.rebalanced as f64 / measured,
            ),
            (
                "core.fleet.wasted_grants",
                (fleet.wasted_grants() - wasted0) as f64,
            ),
            ("alloc.per_window", allocs as f64 / counted),
            ("trace.overhead_frac", median(&overhead)),
        ];
    }

    // The remaining setups, each dropped at once.
    drop((fleet, gens));
    for _ in 1..SETUP_REPEATS {
        let t = Instant::now();
        let built = build(seed, &Probe::off());
        setups.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    out.e2e.setup_s = median(&setups);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet(shards: usize) -> (Fleet, Vec<ShardGen>, u32) {
        let mut rng = StdRng::seed_from_u64(3);
        let probe = Probe::off();
        let gens: Vec<ShardGen> = (0..shards).map(|_| ShardGen::draw(&mut rng)).collect();
        let specs = gens
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let shard = AnalyticShard {
                    rate: g.rate,
                    gain: g.gain,
                    mu: g.mu,
                    factor: 1.0,
                    allocation: g.demand(1.0),
                };
                FleetShardSpec::new(
                    format!("s{i}"),
                    g.t_max,
                    Timed::new(shard, Arc::clone(&probe)),
                )
            })
            .collect();
        let k_max = 40 * shards as u32;
        let mut fleet =
            FleetDriver::new(FleetDriverConfig::new(k_max), specs).expect("valid fleet");
        fleet.run_windows(4);
        (fleet, gens, k_max)
    }

    #[test]
    fn window_checks_pass_on_a_sound_fleet_and_catch_a_corrupted_floor() {
        let (fleet, mut gens, k_max) = small_fleet(20);
        let mut tally = Tally::default();
        assert_eq!(check_window(&fleet, &gens, k_max, &mut tally), Ok(()));
        assert_eq!(tally.shard_windows, 20);
        // A reference floor above what the shard runs must be reported.
        gens[5].floor = [u32::MAX; 2];
        let err = check_window(&fleet, &gens, k_max, &mut Tally::default()).unwrap_err();
        assert!(err.contains("shard s5"), "{err}");
        // So must a budget below what the fleet was granted.
        let err = check_window(&fleet, &gens, 1, &mut Tally::default()).unwrap_err();
        assert!(err.contains("k_max"), "{err}");
    }
}
