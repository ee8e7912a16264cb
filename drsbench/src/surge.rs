//! `surge_sim`: `DrsDriver` over the deterministic `Simulator` in the
//! surge scenario — the VLD paper profile from (9:10:1) under
//! `MinResources(Tmax = 2 s)` on a 4-machine pool, with the frame rate
//! ×1.35 over windows 10–20 of 34 one-minute windows, over a fixed number
//! of consecutive seeds derived from the workload seed. Every seed gives
//! the quality figures, which repeat exactly for one workload seed and
//! run length; the untraced seeds give the timings.

use crate::report::{mean, median, quantile, Outcome};
use crate::timed::Timed;
use crate::trace::{Probe, Tracer};
use drs_apps::VldProfile;
use drs_core::config::DrsConfig;
use drs_core::controller::DrsController;
use drs_core::driver::{DrsDriver, TimelinePoint};
use drs_core::measurer::Smoothing;
use drs_core::negotiator::{MachinePool, MachinePoolConfig};
use drs_queueing::distribution::Distribution;
use drs_sim::Simulator;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

const WINDOWS: u64 = 34;
const SURGE_AT: u64 = 10;
const RELAX_AT: u64 = 20;
const SURGE_FACTOR: f64 = 1.35;
const WINDOW_SECS: f64 = 60.0;
const T_MAX: f64 = 2.0;
const INITIAL: [u32; 3] = [9, 10, 1];
const MACHINES: u32 = 4;
const WARMUP_WINDOWS: u64 = 4;
/// Setups per run — each builds every seed's driver and runs its DRS
/// warm-up windows — one before the measurement and the rest after it;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Seeds run per second of `--seconds` on a 2-CPU reference box, used
/// only to turn `--seconds` into a fixed seed count.
const SEEDS_PER_SECOND: f64 = 4.5;

type Driver = DrsDriver<Timed<Simulator>>;

fn first_seed(seed: u64) -> u64 {
    seed.wrapping_mul(1_000)
}

fn driver(seed: u64, probe: &Arc<Probe>) -> Driver {
    let profile = VldProfile::paper();
    let sim = profile.build_simulation(INITIAL, seed);
    let pool = MachinePool::new(MachinePoolConfig::default(), MACHINES).expect("valid pool");
    let mut config = DrsConfig::min_resources(T_MAX);
    config.cooldown_windows = 2;
    config.smoothing = Smoothing::Alpha { alpha: 0.7 };
    config.warmup_windows = WARMUP_WINDOWS;
    let drs = DrsController::new(config, INITIAL.to_vec(), pool).expect("valid controller");
    DrsDriver::new(Timed::new(sim, Arc::clone(probe)), drs, WINDOW_SECS).expect("wiring matches")
}

/// One seed's run.
#[derive(Debug, Default)]
struct SeedRun {
    timeline: Vec<TimelinePoint>,
    /// Wall and backend time of each post-warm-up window.
    window_ms: Vec<f64>,
    backend_ms: Vec<f64>,
    residuals: Vec<f64>,
    /// First window whose allocation exceeded the pool's capacity.
    over_pool: Option<u64>,
}

impl SeedRun {
    /// Runs `windows` of the surge scenario on `d`, recording each.
    fn advance(&mut self, d: &mut Driver, probe: &Probe, windows: Range<u64>) {
        let profile = VldProfile::paper();
        let spout = d.backend().inner.topology().operator_by_name("video-spout");
        let spout = spout.expect("vld topology").id();
        for w in windows {
            if w == SURGE_AT || w == RELAX_AT {
                let rate = profile.frame_rate * if w == SURGE_AT { SURGE_FACTOR } else { 1.0 };
                let interarrival = Distribution::uniform(0.0, 2.0 / rate).expect("valid uniform");
                d.backend_mut()
                    .inner
                    .set_spout_interarrival(spout, interarrival)
                    .expect("spout exists");
            }
            let logged = d.controller().log().len();
            let backend0 = probe.totals().1;
            let start = Instant::now();
            d.run_windows(1);
            if w >= WARMUP_WINDOWS {
                self.window_ms.push(start.elapsed().as_secs_f64() * 1e3);
                self.backend_ms
                    .push((probe.totals().1 - backend0) as f64 / 1e6);
            }
            let point = d.timeline().last().expect("ran a window");
            let executors: u32 = point.allocation.iter().sum();
            if executors > d.controller().pool().executor_capacity() && self.over_pool.is_none() {
                self.over_pool = Some(w);
            }
            let estimate = d.controller().log()[logged..]
                .last()
                .and_then(|e| e.current_estimate);
            if let (Some(est), Some(ms)) = (estimate, point.mean_sojourn_ms) {
                let measured = ms / 1e3;
                self.residuals.push((est - measured).abs() / measured);
            }
        }
        self.timeline = d.timeline().to_vec();
    }
}

/// A whole seed, warm-up included.
fn run_seed(mut d: Driver, probe: &Probe) -> SeedRun {
    let mut run = SeedRun::default();
    run.advance(&mut d, probe, 0..WINDOWS);
    run
}

/// Bit-identical replay check: `Debug` prints every `f64` in its shortest
/// round-trip form, so equal renderings mean equal bits.
pub fn same_timeline(a: &[TimelinePoint], b: &[TimelinePoint]) -> Result<(), String> {
    let (a, b) = (format!("{a:?}"), format!("{b:?}"));
    if a == b {
        return Ok(());
    }
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    Err(format!(
        "replay diverges from the first run at byte {at} of its timeline"
    ))
}

pub fn run(seed: u64, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let probe = tracer.map_or_else(Probe::off, |t| Probe::new(t, "sim.backend_call"));
    let first = first_seed(seed);
    let seeds = ((seconds * SEEDS_PER_SECOND).round() as u64).max(1);
    // Set-up: every seed's driver, through its DRS warm-up windows.
    let set_up = |probe: &Arc<Probe>| -> (f64, Vec<(Driver, SeedRun)>) {
        let t = Instant::now();
        let block = (0..seeds)
            .map(|i| {
                let mut d = driver(first + i, probe);
                let mut run = SeedRun::default();
                run.advance(&mut d, probe, 0..WARMUP_WINDOWS);
                (d, run)
            })
            .collect();
        (t.elapsed().as_secs_f64(), block)
    };
    let (secs, block) = set_up(&probe);
    let mut setups = vec![secs];
    let mut out = Outcome::default();

    // A traced run times every odd seed and compares with the even ones.
    let mut block = block.into_iter();
    // Every seed's run in seed order, with whether it was traced.
    let mut runs = Vec::with_capacity(seeds as usize);
    for i in 0..seeds {
        let tracing = tracer.is_some() && i % 2 == 1;
        let (mut d, mut run) = block.next().expect("a driver per seed");
        let span = tracer
            .filter(|_| tracing)
            .map(|t| (t.reserve(), Instant::now()));
        if let (Some((id, _)), Some(s)) = (span, probe.stats()) {
            s.set_parent(id);
        }
        probe.set(tracing);
        run.advance(&mut d, &probe, WARMUP_WINDOWS..WINDOWS);
        probe.set(false);
        if let (Some(t), Some((id, start))) = (tracer, span) {
            let backend_ns = (run.backend_ms.iter().sum::<f64>() * 1e6) as u64;
            t.record_busy(
                id,
                0,
                "core.driver.run_seed",
                start,
                Instant::now(),
                backend_ns,
                None,
            );
        }
        if let Some(w) = run.over_pool {
            out.fail(format!(
                "seed {}: allocation exceeds the machine pool in window {w}",
                first + i
            ));
        }
        runs.push((tracing, run));
    }
    let pick = |traced: bool| -> Vec<&SeedRun> {
        runs.iter()
            .filter(|r| r.0 == traced)
            .map(|r| &r.1)
            .collect()
    };

    // Replaying the first seed must give a bit-identical timeline.
    let replay = run_seed(driver(first, &Probe::off()), &Probe::off());
    if let Err(e) = same_timeline(&runs[0].1.timeline, &replay.timeline) {
        out.fail(e);
    }

    let points = || runs.iter().flat_map(|r| &r.1.timeline);
    out.attempted = points().count() as u64;
    out.failed = points().filter(|p| p.backend_error.is_some()).count() as u64;
    let scored: Vec<&TimelinePoint> = points().filter(|p| p.window >= WARMUP_WINDOWS).collect();
    let met = scored
        .iter()
        .filter(|p| p.mean_sojourn_ms.is_some_and(|ms| ms <= T_MAX * 1e3))
        .count();
    out.e2e.tmax_met_frac = met as f64 / scored.len() as f64;
    let executors: Vec<f64> = points()
        .map(|p| f64::from(p.allocation.iter().sum::<u32>()))
        .collect();
    out.e2e.executors_mean = mean(&executors);

    let plain = pick(false);
    let window_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.window_ms.iter().copied())
        .collect();
    out.e2e.latency_ms_p50 = quantile(&window_ms, 0.5);
    let trees_per_s = |runs: &[&SeedRun]| {
        let trees: u64 = runs
            .iter()
            .flat_map(|r| &r.timeline[WARMUP_WINDOWS as usize..])
            .map(|p| p.completed)
            .sum();
        let ms: f64 = runs.iter().flat_map(|r| &r.window_ms).sum();
        trees as f64 / (ms / 1e3)
    };
    out.e2e.throughput_per_s = trees_per_s(&plain);

    if tracer.is_some() {
        let traced = pick(true);
        let windows: Vec<(f64, f64)> = traced
            .iter()
            .flat_map(|r| {
                r.window_ms
                    .iter()
                    .copied()
                    .zip(r.backend_ms.iter().copied())
            })
            .collect();
        let rebalances: Vec<f64> = runs
            .iter()
            .map(|r| r.1.timeline.iter().filter(|p| p.rebalanced).count() as f64)
            .collect();
        let residuals: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.1.residuals.iter().copied())
            .collect();
        let trees: Vec<f64> = points().map(|p| p.completed as f64).collect();
        let backend: Vec<f64> = windows.iter().map(|w| w.1).collect();
        let decide_us: Vec<f64> = windows.iter().map(|w| (w.0 - w.1) * 1e3).collect();
        out.layers = vec![
            ("latency_ms_p90", quantile(&window_ms, 0.9)),
            ("sim.advance_ms_per_window", mean(&backend)),
            ("sim.trees_per_window", mean(&trees)),
            ("core.driver.decide_us_per_window", mean(&decide_us)),
            ("core.driver.rebalances", mean(&rebalances)),
            ("core.model.residual_median", median(&residuals)),
            (
                "trace.overhead_frac",
                1.0 - trees_per_s(&traced) / out.e2e.throughput_per_s,
            ),
        ];
    }

    for _ in 1..SETUP_REPEATS {
        setups.push(set_up(&Probe::off()).0);
    }
    out.e2e.setup_s = median(&setups);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_check_catches_a_corrupted_timeline() {
        let probe = Probe::off();
        let a = run_seed(driver(5, &probe), &probe);
        let b = run_seed(driver(5, &probe), &probe);
        assert_eq!(same_timeline(&a.timeline, &b.timeline), Ok(()));
        assert!(a.over_pool.is_none());
        let mut corrupted = b.timeline.clone();
        corrupted[12].completed += 1;
        assert!(same_timeline(&a.timeline, &corrupted).is_err());
    }
}
