//! `repro fleet --scale`: the million-entity negotiation benchmark.
//!
//! Synthetic shard fleets at 1k/10k/100k/1m shards share one contended
//! processor budget; every window a configurable fraction of shards drifts
//! (arrival and service rates re-scale together, so offered loads — and
//! with them the stability floors — hold still while every marginal
//! benefit moves). Two arms negotiate the identical demand sequence:
//!
//! * **incremental** — one warm [`FleetNegotiator`] carried across
//!   windows via [`FleetNegotiator::negotiate`]: per-window cost is
//!   O(changed shards + executor moves);
//! * **from-scratch** — a [`FleetNegotiator::negotiate_scratch`] call per
//!   window, the O(fleet) reference the warm path must beat.
//!
//! Reported per arm: mean negotiate-µs per contended window, plus the heap
//! allocations one zero-churn steady-state window performs (via the
//! allocation probe the `repro` binary installs — the incremental arm must
//! report **0**). The 100k/5%-churn point feeds the `fleet_scale` section
//! of `BENCH_PERF.json`, gated by `repro perfdiff`.

use drs_core::fleet::{FleetNegotiator, ShardDemand};
use drs_queueing::jackson::JacksonNetwork;
use std::sync::OnceLock;
use std::time::Instant;

/// Counts heap allocations performed by the process so far. Installed by
/// the `repro` binary (whose `#[global_allocator]` counts); the library
/// itself is `forbid(unsafe_code)` and cannot host the allocator.
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Registers the allocation probe. Later registrations are ignored.
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

/// Configuration of one fleet-scale run.
#[derive(Debug, Clone)]
pub struct FleetScaleConfig {
    /// Shards in the synthetic fleet.
    pub shards: usize,
    /// Operators per shard (1 at the million-shard point to bound memory).
    pub ops_per_shard: usize,
    /// Fraction of shards whose demand drifts each window.
    pub churn_fraction: f64,
    /// Contended windows driven through the incremental arm.
    pub windows: u64,
    /// Contended windows driven through the from-scratch arm (smaller at
    /// the largest scales — the reference arm is the slow one).
    pub scratch_windows: u64,
    /// RNG seed; both arms replay the identical drift sequence from it.
    pub seed: u64,
}

impl FleetScaleConfig {
    /// The named scale points of `repro fleet --scale`.
    ///
    /// Returns `None` for an unknown scale name.
    pub fn named(scale: &str, smoke: bool, seed: u64) -> Option<Self> {
        let (shards, ops_per_shard) = match scale {
            "1k" => (1_000, 2),
            "10k" => (10_000, 2),
            "100k" => (100_000, 2),
            "1m" => (1_000_000, 1),
            _ => return None,
        };
        let (windows, scratch_windows) = if smoke {
            (3, if shards >= 1_000_000 { 1 } else { 2 })
        } else {
            (10, if shards >= 1_000_000 { 2 } else { 5 })
        };
        Some(FleetScaleConfig {
            shards,
            ops_per_shard,
            churn_fraction: 0.05,
            windows,
            scratch_windows,
            seed,
        })
    }
}

/// One arm's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmStats {
    /// Mean microseconds per contended (churning) window.
    pub negotiate_us: f64,
    /// Heap allocations across one zero-churn steady-state window;
    /// `None` when no allocation probe is installed (library tests).
    pub steady_allocs: Option<u64>,
}

/// The outcome of one fleet-scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScaleRun {
    /// Microseconds the initial full build (window 0) took — identical
    /// work in both arms, reported once.
    pub build_us: f64,
    /// The warm-start incremental arm.
    pub incremental: ArmStats,
    /// The from-scratch reference arm.
    pub scratch: ArmStats,
    /// Total executors granted in the last incremental window (sanity:
    /// the budget is fully spent under contention).
    pub granted: u64,
    /// The contended budget both arms negotiated within.
    pub budget: u32,
}

impl FleetScaleRun {
    /// `scratch / incremental` — how many times faster the warm path is
    /// per contended window.
    pub fn speedup(&self) -> f64 {
        self.scratch.negotiate_us / self.incremental.negotiate_us
    }
}

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() % (1 << 24)) as f64 / (1 << 24) as f64
    }
}

/// One shard's generator state: rates are re-derived (not accumulated) per
/// drift so both arms replay bit-identical demand sequences.
#[derive(Clone)]
struct ShardGen {
    /// Per-operator base `(λ, µ)`.
    base: Vec<(f64, f64)>,
    /// Current drift factor applied to both rates of every operator.
    drift: f64,
}

impl ShardGen {
    fn demand(&self, desired: &[u32]) -> ShardDemand {
        let pairs: Vec<(f64, f64)> = self
            .base
            .iter()
            .map(|&(l, m)| (l * self.drift, m * self.drift))
            .collect();
        let external = pairs[0].0;
        ShardDemand {
            network: JacksonNetwork::from_rates(external, &pairs).expect("positive rates"),
            desired: desired.to_vec(),
        }
    }
}

/// Builds the synthetic fleet: per-operator offered loads in a stable
/// range, desired allocations a few executors above the stability floor,
/// and a budget at 70% of the surplus — contended every window.
fn build_fleet(config: &FleetScaleConfig) -> (Vec<ShardGen>, Vec<Vec<u32>>, u32) {
    let mut rng = XorShift::new(config.seed);
    let mut gens = Vec::with_capacity(config.shards);
    let mut desired = Vec::with_capacity(config.shards);
    let mut floor_total: u64 = 0;
    let mut desired_total: u64 = 0;
    for _ in 0..config.shards {
        let base: Vec<(f64, f64)> = (0..config.ops_per_shard)
            .map(|_| {
                let lambda = 5.0 + rng.unit() * 45.0;
                let load = 0.5 + rng.unit() * 2.5; // offered load a = λ/µ
                (lambda, lambda / load)
            })
            .collect();
        let gen = ShardGen { base, drift: 1.0 };
        let network = JacksonNetwork::from_rates(gen.base[0].0, &gen.base).expect("positive rates");
        let want: Vec<u32> = network
            .min_stable_allocation()
            .iter()
            .map(|&floor| {
                floor_total += u64::from(floor);
                let want = floor + 1 + (rng.next() % 3) as u32;
                desired_total += u64::from(want);
                want
            })
            .collect();
        gens.push(gen);
        desired.push(want);
    }
    let surplus = desired_total - floor_total;
    let budget = floor_total + surplus * 7 / 10;
    let budget = u32::try_from(budget).expect("budget fits u32");
    (gens, desired, budget)
}

/// Applies window `w`'s drift to the generator fleet and rewrites the
/// touched entries of `demands` in place. The drift schedule depends only
/// on `(seed, w)`, so both arms replay it identically.
fn drift_window(
    config: &FleetScaleConfig,
    w: u64,
    gens: &mut [ShardGen],
    desired: &[Vec<u32>],
    demands: &mut [ShardDemand],
) {
    let mut rng = XorShift::new(config.seed ^ (w.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    let churn = ((config.shards as f64) * config.churn_fraction).round() as usize;
    for _ in 0..churn {
        let i = (rng.next() % config.shards as u64) as usize;
        // λ and µ scale together: loads — and the stability floors — hold
        // still, but every marginal benefit on the shard moves.
        gens[i].drift = 0.75 + rng.unit() * 0.5;
        demands[i] = gens[i].demand(&desired[i]);
    }
}

/// Runs both arms over the same drift sequence.
pub fn run_fleet_scale(config: &FleetScaleConfig) -> FleetScaleRun {
    let probe = ALLOC_PROBE.get().copied();
    let (mut gens, desired, budget) = build_fleet(config);
    let mut demands: Vec<ShardDemand> = gens
        .iter()
        .zip(&desired)
        .map(|(g, d)| g.demand(d))
        .collect();

    // Incremental arm: one warm negotiator across every window.
    let mut negotiator = FleetNegotiator::new(budget);
    let start = Instant::now();
    negotiator
        .negotiate(budget, &demands)
        .expect("feasible budget");
    let build_us = start.elapsed().as_secs_f64() * 1e6;

    let mut inc_secs = 0.0;
    for w in 1..=config.windows {
        drift_window(config, w, &mut gens, &desired, &mut demands);
        let start = Instant::now();
        negotiator
            .negotiate(budget, &demands)
            .expect("feasible budget");
        inc_secs += start.elapsed().as_secs_f64();
    }
    // Zero-churn steady-state window: demand bits unchanged, so the warm
    // path must not allocate at all.
    let inc_steady = probe.map(|p| {
        let before = p();
        negotiator
            .negotiate(budget, &demands)
            .expect("feasible budget");
        p() - before
    });
    let granted: u64 = negotiator.grants().iter().map(|g| g.total()).sum();
    let incremental = ArmStats {
        negotiate_us: inc_secs * 1e6 / config.windows as f64,
        steady_allocs: inc_steady,
    };

    // From-scratch arm: identical drift replay, fresh negotiation per
    // window (fewer windows — this is the slow arm).
    let (mut gens, desired, _) = build_fleet(config);
    let mut demands: Vec<ShardDemand> = gens
        .iter()
        .zip(&desired)
        .map(|(g, d)| g.demand(d))
        .collect();
    // Borrowing the demands is part of each from-scratch call's cost.
    let scratch_call = |demands: &[ShardDemand]| {
        let refs: Vec<&ShardDemand> = demands.iter().collect();
        FleetNegotiator::negotiate_scratch(budget, &refs).expect("feasible budget")
    };
    let mut scratch_secs = 0.0;
    let mut last_grants = Vec::new();
    for w in 1..=config.scratch_windows {
        drift_window(config, w, &mut gens, &desired, &mut demands);
        let start = Instant::now();
        last_grants = scratch_call(&demands);
        scratch_secs += start.elapsed().as_secs_f64();
    }
    let scratch_steady = probe.map(|p| {
        let before = p();
        std::hint::black_box(scratch_call(&demands));
        p() - before
    });
    let scratch = ArmStats {
        negotiate_us: scratch_secs * 1e6 / config.scratch_windows as f64,
        steady_allocs: scratch_steady,
    };

    // Cross-arm parity at the deepest shared window: the warm result must
    // be bit-identical to the from-scratch reference for the same demands.
    if config.scratch_windows >= config.windows {
        assert_eq!(
            negotiator.grants(),
            &last_grants[..],
            "incremental diverged from from-scratch negotiation"
        );
    }

    FleetScaleRun {
        build_us,
        incremental,
        scratch,
        granted,
        budget,
    }
}

/// Renders one run as a table plus the headline ratio.
pub fn render_fleet_scale(config: &FleetScaleConfig, run: &FleetScaleRun) -> String {
    let allocs = |a: &ArmStats| {
        a.steady_allocs
            .map_or_else(|| "n/a".to_owned(), |n| n.to_string())
    };
    let rows = vec![
        vec![
            "incremental".to_owned(),
            format!("{:.1}", run.incremental.negotiate_us),
            allocs(&run.incremental),
        ],
        vec![
            "from-scratch".to_owned(),
            format!("{:.1}", run.scratch.negotiate_us),
            allocs(&run.scratch),
        ],
    ];
    let mut out = crate::report::render_table(
        &format!(
            "Fleet negotiation at {} shards, {:.0}% churn/window (budget {}, granted {})",
            config.shards,
            config.churn_fraction * 100.0,
            run.budget,
            run.granted,
        ),
        &["arm", "negotiate (µs/window)", "steady-state allocs"],
        &rows,
    );
    out.push_str(&format!(
        "initial build: {:.1} µs; incremental speedup per contended window: {:.1}x\n",
        run.build_us,
        run.speedup(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_run_is_contended_and_consistent() {
        let config = FleetScaleConfig {
            shards: 200,
            ops_per_shard: 2,
            churn_fraction: 0.1,
            windows: 4,
            scratch_windows: 4,
            seed: 2015,
        };
        // scratch_windows == windows, so run_fleet_scale itself asserts
        // grant-for-grant parity of the two arms at the final window.
        let run = run_fleet_scale(&config);
        assert_eq!(run.granted, u64::from(run.budget), "budget fully spent");
        assert!(run.incremental.negotiate_us > 0.0);
        assert!(run.scratch.negotiate_us > 0.0);
        // No probe in lib tests.
        assert_eq!(run.incremental.steady_allocs, None);
        let rendered = render_fleet_scale(&config, &run);
        assert!(rendered.contains("incremental"), "{rendered}");
        assert!(rendered.contains("from-scratch"), "{rendered}");
    }

    #[test]
    fn named_scales_parse() {
        for (name, shards) in [
            ("1k", 1_000),
            ("10k", 10_000),
            ("100k", 100_000),
            ("1m", 1_000_000),
        ] {
            let c = FleetScaleConfig::named(name, true, 1).unwrap();
            assert_eq!(c.shards, shards);
            assert!(c.scratch_windows <= c.windows);
        }
        assert!(FleetScaleConfig::named("2k", true, 1).is_none());
    }
}
