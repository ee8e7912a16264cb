//! Fleet-scale DRS: one processor budget shared by many topologies.
//!
//! The paper's controller supervises a *single* streaming application, but a
//! production cluster runs many topologies competing for one machine pool
//! (the scenario R-Storm's resource-aware scheduling targets). This module
//! lifts the DRS loop to that setting:
//!
//! * a [`FleetNegotiator`] owns the global processor budget `Kmax` and
//!   arbitrates per-topology allocations. When the sum of per-topology
//!   demands fits the budget every shard receives exactly its own
//!   single-topology schedule; when it does not, the negotiator applies the
//!   paper's max-marginal-benefit rule *across* topologies — the same lazy
//!   benefit heap as [`crate::scheduler::assign_processors`], run at fleet
//!   granularity over every `(shard, operator)` pair — and hands each shard
//!   a capped plan. No shard is ever pushed below its minimum stable
//!   allocation;
//! * a [`FleetDriver`] runs one DRS measure→smooth→model→schedule loop per
//!   shard (each shard is an independent [`CspBackend`] on its own clock)
//!   but resolves contention centrally every window. Capacity freed by a
//!   shard whose demand drops is re-offered to starved shards on the next
//!   negotiation round;
//! * before any grant is actuated it passes the shard's own cost/benefit
//!   **decision gate** ([`crate::decision`], configured via
//!   [`FleetDriverConfig::decision`]): noise-driven ±1 grant wobble is
//!   kept rather than paid for with a pause every window, while target
//!   violations, instability and real scale-downs still act. Shrinks
//!   bypass the gate while the budget is contended — capped shards are
//!   starving, so freed capacity must actually flow. Note the flip side:
//!   an *uncontended* scale-down is deferred while the shard's measured
//!   latency violates its target (never shrink a struggling shard), which
//!   can also defer another shard's grow until the pool frees up.
//!
//! # Incremental warm-start negotiation
//!
//! Rebuilding the fleet-wide benefit heap from scratch every window costs
//! `O(total operators)` even when almost nothing moved — at 10⁵–10⁶ shards
//! that alone dwarfs the window budget. The negotiator therefore persists
//! its contended-round state across windows and repairs it instead:
//!
//! * each shard's [`drs_queueing::incremental::NetworkSojourn`] walk and its
//!   position on the marginal-benefit heaps survive the window boundary;
//!   demand epochs (bumped only when a shard's validated demand actually
//!   changes bit-for-bit) stamp every cached entry, and stale entries are
//!   discarded lazily on pop rather than eagerly rebuilt;
//! * a window's negotiation then costs `O(changed shards + executors
//!   moved)`: shards whose demand, floor and desired vector are unchanged
//!   are never re-walked, and budget changes replay only the boundary of
//!   the previous fixpoint (ascend on freed capacity, descend on lost
//!   capacity);
//! * a changed shard is **re-seated**, not re-climbed: its walk is rebuilt
//!   at the stability floor under the new network (in place — no
//!   allocation) and walked forward locally to as many executors as it
//!   held before, always taking its own best step. Under α-smoothing most
//!   of a large fleet's shards keep changing bitwise for dozens of windows
//!   after a load shift while their greedy order barely moves, so the
//!   global heaps then move only the few executors whose rank across
//!   shards actually shifted;
//! * the warm path ([`FleetNegotiator::negotiate`]) is *observationally
//!   identical* to the retained from-scratch reference
//!   ([`FleetNegotiator::negotiate_scratch`]) — same grants,
//!   same errors, bit for bit — property-tested across randomized demand
//!   drift, shard churn and budget schedules;
//! * a fully settled window — no demand epoch moved, every grant equal to
//!   the allocation in force — runs **allocation-free** end to end
//!   through [`FleetDriver`]: backends fill reusable buffers via the
//!   `*_into` hooks on [`CspBackend`], and a counting-allocator test
//!   holds the zero.
//!
//! `repro fleet --scale {1k,10k,100k,1m}` benchmarks the warm path
//! against the from-scratch reference at those fleet sizes; the `100k`
//! point is exported as the `fleet_scale` section of `BENCH_PERF.json`
//! and regression-gated by `repro perfdiff`.
//!
//! # Degraded control plane
//!
//! Production control channels lose, delay and duplicate messages, and
//! shards crash; the paper's convergence results all assume neither
//! happens. The fleet loop is hardened for the degraded case (the
//! `drs_sim::faults` module provides the matching deterministic fault
//! injector). The contract, per failure mode:
//!
//! * **Retried** — an actuation whose acknowledgement never arrives
//!   ([`crate::driver::BackendError::Timeout`]) is retried with capped
//!   exponential backoff ([`crate::driver::ActuationRetry`], cap
//!   [`FleetDriverConfig::retry_backoff_cap`]); windows inside the
//!   backoff record an `actuation deferred` error instead of spamming
//!   the channel. Any acknowledgement — success *or* refusal — proves
//!   the channel alive and resets the backoff.
//! * **Rejected** — every actuation carries a per-shard monotonically
//!   increasing epoch ([`RebalancePlan::epoch`]); a backend must apply
//!   only strictly newer epochs, so a late or duplicated command is
//!   rejected at the shard instead of double-counted.
//! * **Discounted** — measurement reports may be stale (delayed, or a
//!   starved window substituted from history):
//!   [`SampleBuilder`] tracks the age of every fallback rate and the
//!   smoothed estimate weighs the sample down by
//!   [`FleetDriverConfig::stale_decay`]`^age` instead of treating a
//!   3-window-old report as current.
//! * **Reclaimed** — a shard whose reports stop entirely for
//!   [`FleetDriverConfig::lease_windows`] consecutive windows is
//!   presumed dead (lease expiry): its executors stop reserving budget,
//!   it is excluded from the fleet total, and the negotiator re-offers
//!   its capacity to starved shards. A shard that was merely partitioned
//!   renews its lease with the first report after the heal; the
//!   over-budget guard below then re-converges the fleet.
//! * **Deferred** — a refused or lost shrink leaves its executors in
//!   force, so any grow that would push the *realized* fleet total over
//!   `Kmax` is deferred to a later window rather than over-committing
//!   the pool (the PR 5 guard, extended to lost actuations and lease
//!   revivals).
//!
//! [`FleetDriver::checkpoint`] snapshots the entire control plane —
//! negotiator, per-shard measurement state, epochs, backoff state,
//! timeline, and (the backend being `Clone`) the backends with their
//! virtual clocks — so long scenario sweeps can branch from a common
//! prefix and replay deterministically.
//!
//! The `drs-sim` crate's `Simulator` is a backend for this driver, so
//! `FleetDriver<Simulator>` is the sharded multi-topology simulator;
//! `repro fleet` in `crates/bench` runs a four-topology mixed VLD+FPD
//! fleet under a contended budget, and `repro fleet --faults <scenario>`
//! runs the same fleet through the fault injector.
//!
//! # Example
//!
//! Two fixed-rate mock shards contending for a budget smaller than their
//! combined demand:
//!
//! ```
//! use drs_core::driver::{
//!     AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
//! };
//! use drs_core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec};
//!
//! /// One operator at fixed measured rates; rebalances always succeed.
//! struct StaticShard {
//!     rate: f64,
//!     allocation: Vec<u32>,
//! }
//!
//! impl CspBackend for StaticShard {
//!     fn backend_name(&self) -> &'static str {
//!         "static"
//!     }
//!     fn operator_names(&self) -> Vec<String> {
//!         vec!["work".to_owned()]
//!     }
//!     fn current_allocation(&self) -> Vec<u32> {
//!         self.allocation.clone()
//!     }
//!     fn advance(&mut self, _window_secs: f64) -> WindowSample {
//!         WindowSample {
//!             external_rate: Some(self.rate),
//!             operators: vec![OperatorSample {
//!                 arrival_rate: Some(self.rate),
//!                 service_rate: Some(10.0),
//!             }],
//!             mean_sojourn: Some(0.5),
//!             std_sojourn: None,
//!             completed: 100,
//!         }
//!     }
//!     fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
//!         self.allocation = plan.allocation.clone();
//!         Ok(AppliedRebalance {
//!             allocation: plan.allocation.clone(),
//!             pause_secs: plan.pause_secs,
//!         })
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let shard = |rate| StaticShard { rate, allocation: vec![4] };
//! let mut config = FleetDriverConfig::new(12); // Kmax = 12 for the whole fleet
//! config.warmup_windows = 1;
//! let mut fleet = FleetDriver::new(
//!     config,
//!     vec![
//!         FleetShardSpec::new("hot", 0.11, shard(60.0)),
//!         FleetShardSpec::new("cold", 0.11, shard(30.0)),
//!     ],
//! )?;
//! fleet.run_windows(4);
//! let last = fleet.timeline().last().unwrap();
//! // The budget is fully arbitrated: grants sum to at most Kmax…
//! assert!(last.total_granted <= 12);
//! // …and the hotter shard wins the larger share.
//! assert!(last.shards[0].allocation[0] > last.shards[1].allocation[0]);
//! # Ok(())
//! # }
//! ```

use crate::decision::{self, DecisionInputs, DecisionPolicy};
use crate::driver::{ActuationRetry, BackendError, CspBackend, RebalancePlan, WindowSample};
use crate::measurer::{Measurer, RawSample, SampleBuilder, Smoothing};
use crate::model::PerformanceModel;
use crate::placement::{
    self, EdgeTraffic, MachinePool as PlacementPool, OperatorLoad, Placement, PlacementRequest,
};
use crate::scheduler::{self, Candidate, ScheduleError};
use drs_queueing::incremental::NetworkSojourn;
use drs_queueing::jackson::JacksonNetwork;
use drs_topology::ResourceProfile;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::fmt;
use std::sync::Arc;

/// Total executors in an allocation (`u64` so fleet-wide sums cannot
/// overflow).
fn executor_total(allocation: &[u32]) -> u64 {
    allocation.iter().map(|&k| u64::from(k)).sum()
}

/// One topology's resource demand, as submitted to the negotiator.
#[derive(Debug)]
pub struct ShardDemand {
    /// The shard's fitted open network (model order).
    pub network: JacksonNetwork,
    /// The allocation the shard's own single-topology schedule asks for
    /// (its Program 6 / Algorithm 1 answer, one entry per model operator).
    pub desired: Vec<u32>,
}

// Manual impl so `clone_from` reuses both buffers: the incremental
// negotiator refreshes its per-slot demand cache in place on every change,
// and the driver refreshes its packed demand list the same way.
impl Clone for ShardDemand {
    fn clone(&self) -> Self {
        ShardDemand {
            network: self.network.clone(),
            desired: self.desired.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.network.clone_from(&source.network);
        self.desired.clone_from(&source.desired);
    }
}

/// Bitwise demand equality — the incremental negotiator's change detector.
/// "Unchanged" must mean "every floating-point model value recomputes
/// identically", so rates compare on bits: `PartialEq` would equate
/// `-0.0 == 0.0` (distinct under `total_cmp`, which orders the benefit
/// heap). A NaN rate compares equal to itself on bits, so a pathological
/// demand is at worst re-entered or cached consistently — never diffed
/// into an inconsistent warm state.
fn demand_bits_equal(a: &ShardDemand, b: &ShardDemand) -> bool {
    a.desired == b.desired
        && a.network.external_rate().to_bits() == b.network.external_rate().to_bits()
        && a.network.len() == b.network.len()
        && a.network
            .operators()
            .iter()
            .zip(b.network.operators())
            .all(|(x, y)| {
                x.arrival_rate().to_bits() == y.arrival_rate().to_bits()
                    && x.service_rate().to_bits() == y.service_rate().to_bits()
            })
}

/// What the negotiator granted one shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardGrant {
    /// Executors per model operator the shard may run.
    pub allocation: Vec<u32>,
    /// Whether the grant falls short of the shard's desired total (the
    /// budget was contended and this shard's plan was capped).
    pub capped: bool,
}

impl ShardGrant {
    /// Total executors granted.
    pub fn total(&self) -> u64 {
        executor_total(&self.allocation)
    }
}

/// Error from fleet-level budget negotiation.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Even the minimum stable allocations of all shards exceed the budget:
    /// the fleet cannot be made stable at any split.
    InsufficientBudget {
        /// Processors required for every shard to stay stable.
        required: u64,
        /// Processors available.
        available: u32,
    },
    /// A demand's `desired` vector does not match its network's operator
    /// count (a wiring error).
    DemandLength {
        /// Index of the offending shard.
        shard: usize,
        /// Operators the network models.
        expected: usize,
        /// Entries the desired allocation carries.
        actual: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::InsufficientBudget {
                required,
                available,
            } => write!(
                f,
                "insufficient fleet budget: stability of all shards needs {required} \
                 processors, only {available} available"
            ),
            FleetError::DemandLength {
                shard,
                expected,
                actual,
            } => write!(
                f,
                "shard {shard} demand has {actual} entries, its network models {expected} operators"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// One `(shard, op)` step in the warm heaps — either a frontier step (the
/// next processor the pair would take) or a taken step (the weakest it
/// holds). Entries are stamped with the slot's generation and the op's
/// sequence number at push time; any later rebuild or move stales them, and
/// stale entries are discarded lazily on pop instead of removed eagerly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WarmEntry {
    /// Effective (prefix-min clamped) weighted marginal benefit δ.
    delta: f64,
    slot: u32,
    op: u32,
    generation: u64,
    seq: u64,
}

/// The greedy order over warm steps: largest δ first, ties to the smallest
/// `(slot, op)` — the same strict total order as the from-scratch
/// [`Candidate`] heap, so warm and cold negotiation tie-break identically.
/// The ascent heap pops its best frontier step; the descent heap holds
/// `Reverse<Ascend>` and pops the weakest taken step, so the two are the
/// two ends of one order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ascend(WarmEntry);

impl Eq for Ascend {}

impl Ord for Ascend {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .delta
            .total_cmp(&other.0.delta)
            .then_with(|| (other.0.slot, other.0.op).cmp(&(self.0.slot, self.0.op)))
    }
}

impl PartialOrd for Ascend {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-shard warm state carried across windows by the incremental
/// negotiator (see [`FleetNegotiator::negotiate`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SlotState {
    /// The demand the warm state was built from (bitwise cache key — see
    /// `demand_bits_equal`).
    demand: ShardDemand,
    /// Per-op minimum stable allocation (cached).
    floor: Vec<u32>,
    /// `demand.desired` raised to the floor — what an uncontended window
    /// grants verbatim.
    desired_floored: Vec<u32>,
    floor_total: u64,
    desired_total: u64,
    /// The shard's reversible sojourn walk, parked at its current grant
    /// position. `None` until the slot first negotiates contended.
    walk: Option<NetworkSojourn>,
    /// Per-op stack of the *effective* (prefix-min clamped) δ of every
    /// step taken above the floor; the top is the op's weakest taken step.
    taken: Vec<Vec<f64>>,
    /// Steps taken above the floor, across all ops.
    taken_total: u64,
    /// Per-op stamp, bumped on every step/revoke/unpark of that op.
    op_seq: Vec<u64>,
    /// Slot stamp (drawn from the negotiator's global counter on rebuild,
    /// so entries of a removed-then-replaced slot can never revive).
    generation: u64,
    /// The walk no longer matches `demand` (it changed, or the slot is
    /// new); re-seated by `FleetNegotiator::rebuild_slot` on the next
    /// contended window.
    walk_stale: bool,
    /// The published grant no longer matches the warm state; rewritten
    /// before `FleetNegotiator::negotiate` returns.
    grant_dirty: bool,
    /// Frontier entries of this slot were discarded while it sat at its
    /// demand cap; a revoke that drops it below the cap re-enters them.
    parked: bool,
}

impl SlotState {
    /// Demand cap: steps above the floor this shard may take.
    fn cap(&self) -> u64 {
        self.desired_total - self.floor_total
    }

    /// Effective frontier δ of `op`: the raw marginal benefit at the walk's
    /// current position, clamped to the weakest taken step of the same op.
    /// The clamp makes every per-op δ stream monotone non-increasing even
    /// under floating-point wobble — exactly the `min` applied when the
    /// from-scratch loop pushes a successor candidate — which is what keeps
    /// warm equilibria and cold runs bit-identical.
    fn frontier_eff(&self, op: usize) -> f64 {
        let walk = self.walk.as_ref().expect("contended slot carries a walk");
        let raw = walk.weighted_marginal_benefit(op);
        match self.taken[op].last() {
            Some(&top) => raw.min(top),
            None => raw,
        }
    }
}

/// Mode memory for [`FleetNegotiator::negotiate`]:
/// transitions between uncontended and contended windows are the only
/// points where grants must be reconciled fleet-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum NegotiationMode {
    /// No successful incremental negotiation yet.
    Initial,
    /// Last window granted every shard its floored desire.
    Uncontended,
    /// Last window ran the warm greedy equilibrium.
    Contended,
}

/// The fleet budget negotiator: owns `Kmax` and arbitrates competing
/// per-topology demands (see the [module docs](self)).
///
/// Two entry points compute identical grants:
///
/// * [`FleetNegotiator::negotiate`] — warm-started from the previous
///   window's state, `O(changed shards + executor moves)` per call and
///   allocation-free when nothing changed; what [`FleetDriver`] runs every
///   window. Grants are read back through [`FleetNegotiator::grants`].
/// * [`FleetNegotiator::negotiate_scratch`] — stateless, from scratch,
///   `O(fleet)` per call; the oracle the proptests compare against, and
///   the driver's gate-aware re-offer round.
///
/// The warm state is a pure cache: any warm position converges to the same
/// bit-identical grants a cold run computes, so checkpoint clones,
/// mid-sequence errors and restores are all safe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetNegotiator {
    k_max: u32,
    /// Warm per-shard state, indexed like the demand slice.
    slots: Vec<SlotState>,
    /// Published grants, indexed like the demand slice.
    grants: Vec<ShardGrant>,
    /// Frontier steps, best first (lazy, stamped — see [`WarmEntry`]).
    ascent: std::collections::BinaryHeap<Ascend>,
    /// Taken steps, weakest first (lazy, stamped).
    descent: std::collections::BinaryHeap<Reverse<Ascend>>,
    sum_floor: u64,
    sum_desired: u64,
    sum_taken: u64,
    /// Live `(shard, op)` pairs across all slots (heap-compaction bound).
    total_ops: usize,
    /// Monotone stamp source for slot generations.
    stamp: u64,
    mode: NegotiationMode,
    /// Slots whose grant must be rewritten (deduplicated by
    /// `SlotState::grant_dirty`; survives an errored call so no rewrite is
    /// ever lost).
    touched: Vec<u32>,
    /// Global take/revoke steps the fix-up has run (cumulative) — what the
    /// warm re-seat of changed slots exists to keep small.
    fixup_moves: u64,
}

impl FleetNegotiator {
    /// Creates a negotiator owning a global budget of `k_max` processors.
    pub fn new(k_max: u32) -> Self {
        FleetNegotiator {
            k_max,
            slots: Vec::new(),
            grants: Vec::new(),
            ascent: std::collections::BinaryHeap::new(),
            descent: std::collections::BinaryHeap::new(),
            sum_floor: 0,
            sum_desired: 0,
            sum_taken: 0,
            total_ops: 0,
            stamp: 0,
            mode: NegotiationMode::Initial,
            touched: Vec::new(),
            fixup_moves: 0,
        }
    }

    /// The global processor budget.
    pub fn k_max(&self) -> u32 {
        self.k_max
    }

    /// From-scratch arbitration of `demands` within `budget` — the oracle
    /// the warm [`FleetNegotiator::negotiate`] must match, and the round
    /// the driver's gate-aware re-offer runs. Demands are borrowed, so
    /// excluding held shards costs a reference each instead of a deep
    /// `ShardDemand` copy. `budget` may be below `Kmax` (the driver
    /// reserves the executors of shards that carry no usable model yet).
    ///
    /// When the desired totals fit the budget every shard is granted
    /// exactly its desired allocation — the fleet schedule *equals* the
    /// single-topology schedules. Otherwise every shard starts from its
    /// minimum stable allocation and the surplus is spent one processor at
    /// a time on the `(shard, operator)` pair with the largest weighted
    /// marginal benefit `δ = λ_i·(E[T_i](k) − E[T_i](k+1))` — comparable
    /// across topologies because it is an absolute tuple-seconds-per-second
    /// reduction — until the budget is exhausted. No shard ever receives
    /// more than it asked for: once a shard reaches its desired total its
    /// candidates retire, so surplus only flows to shards still short of
    /// their own schedule. (One exception: stability always wins — a
    /// `desired` below the network's minimum stable allocation is raised
    /// to that minimum, since schedules produced by
    /// [`scheduler::min_processors_for_target`] /
    /// [`scheduler::assign_processors`] never sit below it.)
    ///
    /// # Errors
    ///
    /// * [`FleetError::DemandLength`] — a desired vector does not match its
    ///   network.
    /// * [`FleetError::InsufficientBudget`] — the minimum stable
    ///   allocations alone exceed `budget`.
    pub fn negotiate_scratch(
        budget: u32,
        demands: &[&ShardDemand],
    ) -> Result<Vec<ShardGrant>, FleetError> {
        for (i, d) in demands.iter().enumerate() {
            if d.desired.len() != d.network.len() {
                return Err(FleetError::DemandLength {
                    shard: i,
                    expected: d.network.len(),
                    actual: d.desired.len(),
                });
            }
        }
        // Stability floor: a desired entry below the operator's minimum
        // stable count is raised to it, in both branches.
        let desired: Vec<Vec<u32>> = demands
            .iter()
            .map(|d| {
                d.desired
                    .iter()
                    .zip(d.network.min_stable_allocation())
                    .map(|(&want, floor)| want.max(floor))
                    .collect()
            })
            .collect();
        let desired_totals: Vec<u64> = desired.iter().map(|a| executor_total(a)).collect();
        let total_desired: u64 = desired_totals.iter().sum();
        if total_desired <= u64::from(budget) {
            return Ok(desired
                .into_iter()
                .map(|allocation| ShardGrant {
                    allocation,
                    capped: false,
                })
                .collect());
        }

        // Contended: fleet-granularity Algorithm 1 from the minimum stable
        // allocations, spending the whole budget — the scheduler's lazy
        // benefit heap keyed by `(shard, op)`, plus per-shard demand caps:
        // a shard at its desired total retires from the heap, so no
        // processor lands where no target needs it while another shard is
        // starved.
        let mut states: Vec<NetworkSojourn> = demands
            .iter()
            .map(|d| NetworkSojourn::at_min_stable(&d.network))
            .collect();
        let mut totals: Vec<u64> = states
            .iter()
            .map(|s| executor_total(&s.allocation()))
            .collect();
        let required: u64 = totals.iter().sum();
        if required > u64::from(budget) {
            return Err(FleetError::InsufficientBudget {
                required,
                available: budget,
            });
        }
        let mut heap: std::collections::BinaryHeap<Candidate<(usize, usize)>> = states
            .iter()
            .enumerate()
            .flat_map(|(shard, state)| {
                (0..state.len()).map(move |op| Candidate {
                    delta: state.weighted_marginal_benefit(op),
                    key: (shard, op),
                })
            })
            .collect();
        let mut remaining = u64::from(budget) - required;
        while remaining > 0 {
            let Some(best) = heap.pop() else {
                break; // every shard saturated its demand
            };
            let (shard, op) = best.key;
            if totals[shard] >= desired_totals[shard] {
                // Shard already has everything it asked for: retire its
                // candidate so the surplus flows to still-short shards.
                continue;
            }
            states[shard].increment(op);
            totals[shard] += 1;
            remaining -= 1;
            // The successor δ is clamped to the step just taken: in exact
            // arithmetic convexity makes every per-op δ stream monotone
            // non-increasing anyway, so the clamp only absorbs ulp-level
            // floating-point wobble — and it is what guarantees the warm
            // incremental path (which stores these effective δs in its
            // taken-stacks) reaches bit-identical grants from any start.
            heap.push(Candidate {
                delta: states[shard].weighted_marginal_benefit(op).min(best.delta),
                key: (shard, op),
            });
        }
        Ok(states
            .iter()
            .zip(&desired_totals)
            .map(|(state, &desired)| {
                let allocation = state.allocation();
                let granted = executor_total(&allocation);
                ShardGrant {
                    allocation,
                    capped: granted < desired,
                }
            })
            .collect())
    }

    /// The grants computed by the last successful
    /// [`FleetNegotiator::negotiate`] call, indexed like the demand slice
    /// it was given. Unspecified (possibly stale) after an `Err` — callers
    /// must not actuate grants from a failed round.
    pub fn grants(&self) -> &[ShardGrant] {
        &self.grants
    }

    /// Incremental warm-start arbitration: computes exactly what
    /// [`FleetNegotiator::negotiate_scratch`] would return for `budget` and
    /// `demands` — bit-identical allocations and `capped` flags, the
    /// proptests pin it — but in `O(changed shards + executor moves)` by
    /// reusing the previous window's state, and without a single heap
    /// allocation when nothing changed. Results are published through
    /// [`FleetNegotiator::grants`].
    ///
    /// Per window it
    ///
    /// 1. **diffs** each slot's demand against the cached one (bitwise —
    ///    `demand_bits_equal`); unchanged slots are not touched at all;
    /// 2. re-derives floors/desires for changed slots and, on a contended
    ///    window, **re-seats** them: the reversible [`NetworkSojourn`] walk
    ///    is rebuilt at the stability floor (changed rates invalidate the
    ///    carried Erlang-B history) and walked forward locally, best own
    ///    step first, to the slot's previous executor count (clamped to its
    ///    new cap). Unchanged slots keep their walk parked at the previous
    ///    grant;
    /// 3. **fixes up** the warm equilibrium: revoke the globally weakest
    ///    taken step (via [`NetworkSojourn::decrement`] — the O(1)
    ///    step-down machinery) while over the spend target, take the
    ///    globally best frontier step while under it, then exchange while
    ///    any frontier step of a below-cap shard outranks a taken step;
    /// 4. rewrites the grant of every slot whose walk moved.
    ///
    /// The fix-up terminates at the unique greedy equilibrium: per-op δ
    /// streams are monotone (prefix-min clamped, matching the from-scratch
    /// successor clamp), and every slot holds the top of its own δ streams
    /// (the re-seat walks each slot greedily, and global takes and revokes
    /// keep that shape), so the final state is fully characterized by "no
    /// frontier step outranks a taken step" plus the per-shard caps — the
    /// same state the cold heap run reaches, independent of the warm
    /// starting position. A re-seat at the previous executor count leaves
    /// the fix-up only the executors whose rank across slots shifted.
    ///
    /// # Errors
    ///
    /// The same errors, in the same precedence, as
    /// [`FleetNegotiator::negotiate_scratch`]. A failed call leaves the
    /// cache consistent: the next successful call converges as usual.
    pub fn negotiate(&mut self, budget: u32, demands: &[ShardDemand]) -> Result<(), FleetError> {
        debug_assert!(u32::try_from(demands.len()).is_ok());
        // Slots beyond the end of the demand slice retire (fleet shrank or
        // re-packed); their heap entries die by the slot-index bound check.
        while self.slots.len() > demands.len() {
            let slot = self.slots.pop().expect("len checked above");
            self.sum_floor -= slot.floor_total;
            self.sum_desired -= slot.desired_total;
            self.sum_taken -= slot.taken_total;
            self.total_ops -= slot.demand.network.len();
        }
        self.grants.truncate(demands.len());

        // Diff pass, in slot order (so the first invalid changed slot
        // reports the same `DemandLength` a from-scratch validation would).
        for (i, d) in demands.iter().enumerate() {
            let changed = match self.slots.get(i) {
                Some(slot) => !demand_bits_equal(&slot.demand, d),
                None => true,
            };
            if !changed {
                continue;
            }
            if d.desired.len() != d.network.len() {
                return Err(FleetError::DemandLength {
                    shard: i,
                    expected: d.network.len(),
                    actual: d.desired.len(),
                });
            }
            if i == self.slots.len() {
                self.slots.push(SlotState {
                    demand: d.clone(),
                    floor: Vec::new(),
                    desired_floored: Vec::new(),
                    floor_total: 0,
                    desired_total: 0,
                    walk: None,
                    taken: Vec::new(),
                    taken_total: 0,
                    op_seq: Vec::new(),
                    generation: 0,
                    walk_stale: true,
                    grant_dirty: false,
                    parked: false,
                });
            } else {
                let slot = &mut self.slots[i];
                self.sum_floor -= slot.floor_total;
                self.sum_desired -= slot.desired_total;
                self.total_ops -= slot.demand.network.len();
                slot.demand.clone_from(d);
            }
            let slot = &mut self.slots[i];
            slot.floor.clear();
            slot.floor
                .extend(d.network.operators().iter().map(|q| q.min_stable_servers()));
            {
                let SlotState {
                    floor,
                    desired_floored,
                    ..
                } = slot;
                desired_floored.clear();
                desired_floored.extend(
                    d.desired
                        .iter()
                        .zip(floor.iter())
                        .map(|(&want, &f)| want.max(f)),
                );
            }
            slot.floor_total = executor_total(&slot.floor);
            slot.desired_total = executor_total(&slot.desired_floored);
            slot.walk_stale = true;
            self.sum_floor += slot.floor_total;
            self.sum_desired += slot.desired_total;
            self.total_ops += d.network.len();
            if !slot.grant_dirty {
                slot.grant_dirty = true;
                self.touched.push(i as u32);
            }
        }
        if self.grants.len() < demands.len() {
            self.grants.resize_with(demands.len(), || ShardGrant {
                allocation: Vec::new(),
                capped: false,
            });
        }
        debug_assert_eq!(self.slots.len(), demands.len());

        // Uncontended: every shard gets exactly its floored desire.
        if self.sum_desired <= u64::from(budget) {
            if self.mode == NegotiationMode::Uncontended {
                // Steady uncontended: only changed slots re-enter.
                for idx in 0..self.touched.len() {
                    let i = self.touched[idx] as usize;
                    if i >= self.slots.len() {
                        continue;
                    }
                    let slot = &mut self.slots[i];
                    self.grants[i].allocation.clone_from(&slot.desired_floored);
                    self.grants[i].capped = false;
                    slot.grant_dirty = false;
                }
            } else {
                // Transition (or first round): contended grants can differ
                // from the floored desire on any capped slot — reconcile
                // fleet-wide once.
                for (i, slot) in self.slots.iter_mut().enumerate() {
                    let grant = &mut self.grants[i];
                    if slot.grant_dirty || grant.capped || grant.allocation != slot.desired_floored
                    {
                        grant.allocation.clone_from(&slot.desired_floored);
                        grant.capped = false;
                    }
                    slot.grant_dirty = false;
                }
            }
            self.touched.clear();
            self.mode = NegotiationMode::Uncontended;
            return Ok(());
        }
        if self.sum_floor > u64::from(budget) {
            return Err(FleetError::InsufficientBudget {
                required: self.sum_floor,
                available: budget,
            });
        }

        // Contended. Rebuild the walks of changed slots at their floor
        // (changed rates invalidate the Erlang-B histories); unchanged
        // slots keep their walks parked at the previous grant and only
        // move by explicit increments/decrements below.
        let transition = self.mode != NegotiationMode::Contended;
        self.mode = NegotiationMode::Contended;
        for i in 0..self.slots.len() {
            if self.slots[i].walk_stale {
                self.rebuild_slot(i);
            }
        }
        if transition {
            // Entering contention from an uncontended stretch: published
            // grants are floored desires, while walks still hold their
            // last-contended positions. Any mismatch must be rewritten
            // even if the fix-up below never moves that slot.
            for i in 0..self.slots.len() {
                let slot = &self.slots[i];
                if slot.grant_dirty {
                    continue;
                }
                let walk = slot.walk.as_ref().expect("rebuilt above");
                let grant = &self.grants[i].allocation;
                let matches = grant.len() == walk.len()
                    && grant
                        .iter()
                        .enumerate()
                        .all(|(op, &k)| walk.servers(op) == k);
                if !matches {
                    self.slots[i].grant_dirty = true;
                    self.touched.push(i as u32);
                }
            }
        }

        // The spend target: the budget above the floors, truncated to what
        // the caps can absorb (the from-scratch loop stops early when every
        // shard saturates its demand).
        let target = (u64::from(budget) - self.sum_floor).min(self.sum_desired - self.sum_floor);
        while self.sum_taken > target {
            self.revoke_weakest();
        }
        while self.sum_taken < target {
            if !self.take_best() {
                debug_assert!(false, "frontier exhausted below the spend target");
                break;
            }
        }
        // Exchange while a frontier step of a below-cap shard strictly
        // precedes a taken step in the greedy order: the warm state is not
        // yet the greedy equilibrium.
        while let (Some(f), Some(a)) = (self.clean_ascent_top(), self.clean_descent_top()) {
            if Ascend(f) <= Ascend(a) {
                break;
            }
            self.revoke_weakest();
            self.take_best();
        }

        // Publish the grant of every slot whose warm state moved.
        for idx in 0..self.touched.len() {
            let i = self.touched[idx] as usize;
            if i >= self.slots.len() {
                continue;
            }
            let slot = &mut self.slots[i];
            slot.grant_dirty = false;
            let walk = slot.walk.as_ref().expect("contended slots carry walks");
            walk.write_allocation(&mut self.grants[i].allocation);
            self.grants[i].capped = slot.floor_total + slot.taken_total < slot.desired_total;
        }
        self.touched.clear();
        self.maybe_compact();
        Ok(())
    }

    /// Re-seats slot `i` under its cached (changed) demand, invalidating
    /// every heap entry it ever pushed (fresh generation).
    ///
    /// The walk is rebuilt at the stability floor — changed rates
    /// invalidate the carried Erlang-B history — in place, reusing its
    /// buffers. It is then walked forward *locally* for as many steps as
    /// the slot held before (clamped to its new demand cap), each step
    /// taking the op with the largest effective frontier δ, ties to the
    /// smaller op: the [`Ascend`] order restricted to one slot. The slot
    /// thus holds the top of its own δ streams, the same shape every
    /// global take/revoke preserves, so the fix-up in
    /// [`FleetNegotiator::negotiate`] only moves the executors whose rank
    /// across slots actually shifted instead of re-climbing the whole slot
    /// through the global heaps. Finally the
    /// slot's frontier steps (unless it sits at its cap) and weakest taken
    /// steps enter the heaps, one of each per op.
    fn rebuild_slot(&mut self, i: usize) {
        let generation = self.stamp;
        self.stamp += 1;
        let slot = &mut self.slots[i];
        let ops = slot.demand.network.len();
        const FLOOR_FITS: &str = "floor allocation length matches the network";
        match &mut slot.walk {
            Some(walk) => walk
                .reset_reversible(&slot.demand.network, &slot.floor)
                .expect(FLOOR_FITS),
            None => {
                slot.walk = Some(
                    NetworkSojourn::reversible(&slot.demand.network, &slot.floor)
                        .expect(FLOOR_FITS),
                );
            }
        }
        for stack in &mut slot.taken {
            stack.clear();
        }
        slot.taken.resize_with(ops, Vec::new);
        slot.op_seq.clear();
        slot.op_seq.resize(ops, 0);
        slot.generation = generation;
        slot.walk_stale = false;
        let steps = slot.taken_total.min(slot.cap());
        for _ in 0..steps {
            let mut best = 0;
            let mut best_delta = slot.frontier_eff(0);
            for op in 1..ops {
                let delta = slot.frontier_eff(op);
                if delta.total_cmp(&best_delta).is_gt() {
                    best = op;
                    best_delta = delta;
                }
            }
            slot.walk.as_mut().expect("just built").increment(best);
            slot.taken[best].push(best_delta);
        }
        self.sum_taken = self.sum_taken - slot.taken_total + steps;
        slot.taken_total = steps;
        slot.parked = steps >= slot.cap();
        self.mark_touched(i);
        for op in 0..ops {
            self.refresh_op(i, op);
        }
    }

    /// Whether a heap entry still refers to live warm state.
    fn entry_live(&self, e: &WarmEntry) -> bool {
        match self.slots.get(e.slot as usize) {
            Some(slot) => e.generation == slot.generation && e.seq == slot.op_seq[e.op as usize],
            None => false,
        }
    }

    /// Discards stale entries (and parks at-cap slots) until the ascent top
    /// is a live frontier step of a below-cap slot, returning it un-popped.
    fn clean_ascent_top(&mut self) -> Option<WarmEntry> {
        loop {
            let e = self.ascent.peek()?.0;
            if !self.entry_live(&e) {
                self.ascent.pop();
                continue;
            }
            let slot = &mut self.slots[e.slot as usize];
            if slot.taken_total >= slot.cap() {
                // At its demand cap: this frontier cannot compete (the
                // from-scratch loop discards candidates of saturated
                // shards the same way). Park the slot; a revoke dropping
                // it below the cap re-enters every frontier.
                slot.parked = true;
                self.ascent.pop();
                continue;
            }
            return Some(e);
        }
    }

    /// Discards stale entries until the descent top is a live weakest taken
    /// step, returning it un-popped.
    fn clean_descent_top(&mut self) -> Option<WarmEntry> {
        loop {
            let e = self.descent.peek()?.0 .0;
            if !self.entry_live(&e) {
                self.descent.pop();
                continue;
            }
            return Some(e);
        }
    }

    /// After slot `i`'s op moved (or re-entered) under a fresh sequence
    /// number — which stales both of the op's old heap entries — push its
    /// current frontier step (unless the slot is parked) and, if any step
    /// is held, its weakest taken step.
    fn refresh_op(&mut self, i: usize, op: usize) {
        let slot = &self.slots[i];
        let entry = WarmEntry {
            delta: slot.frontier_eff(op),
            slot: i as u32,
            op: op as u32,
            generation: slot.generation,
            seq: slot.op_seq[op],
        };
        if !slot.parked {
            self.ascent.push(Ascend(entry));
        }
        if let Some(&top) = slot.taken[op].last() {
            self.descent.push(Reverse(Ascend(WarmEntry {
                delta: top,
                ..entry
            })));
        }
    }

    /// Marks slot `i`'s grant for rewriting (deduplicated).
    fn mark_touched(&mut self, i: usize) {
        if !self.slots[i].grant_dirty {
            self.slots[i].grant_dirty = true;
            self.touched.push(i as u32);
        }
    }

    /// Takes the globally best frontier step (walk increment). `false` when
    /// every slot sits at its demand cap.
    fn take_best(&mut self) -> bool {
        let Some(e) = self.clean_ascent_top() else {
            return false;
        };
        self.ascent.pop();
        self.fixup_moves += 1;
        let i = e.slot as usize;
        let op = e.op as usize;
        {
            let slot = &mut self.slots[i];
            slot.op_seq[op] += 1;
            slot.walk.as_mut().expect("live entry").increment(op);
            // The entry's δ *is* the effective (clamped) δ of this step.
            slot.taken[op].push(e.delta);
            slot.taken_total += 1;
        }
        self.sum_taken += 1;
        self.mark_touched(i);
        self.refresh_op(i, op);
        true
    }

    /// Revokes the globally weakest taken step (walk decrement — the O(1)
    /// step-down machinery's production caller). Un-parks the slot when the
    /// revoke drops it below its demand cap.
    fn revoke_weakest(&mut self) {
        let e = self
            .clean_descent_top()
            .expect("taken steps outstanding imply a live descent top");
        self.descent.pop();
        self.fixup_moves += 1;
        let i = e.slot as usize;
        let op = e.op as usize;
        let was_at_cap = {
            let slot = &mut self.slots[i];
            let was_at_cap = slot.taken_total >= slot.cap();
            slot.op_seq[op] += 1;
            slot.walk.as_mut().expect("live entry").decrement(op);
            let popped = slot.taken[op].pop().expect("live descent entry");
            debug_assert_eq!(popped.to_bits(), e.delta.to_bits());
            slot.taken_total -= 1;
            was_at_cap
        };
        self.sum_taken -= 1;
        self.mark_touched(i);
        self.refresh_op(i, op);
        if was_at_cap {
            self.unpark(i);
        }
    }

    /// Re-enters every frontier step of a previously parked slot (its
    /// at-cap frontiers were discarded lazily; now that it is below its cap
    /// again they must compete). Stamps fresh sequence numbers so any
    /// surviving old entries of this slot go stale rather than duplicate.
    fn unpark(&mut self, i: usize) {
        if !self.slots[i].parked {
            return;
        }
        let ops = {
            let slot = &mut self.slots[i];
            slot.parked = false;
            for s in &mut slot.op_seq {
                *s += 1;
            }
            slot.op_seq.len()
        };
        for op in 0..ops {
            self.refresh_op(i, op);
        }
    }

    /// Rebuilds a heap in place once stale entries dominate it (rare;
    /// amortized against the pushes that bloated it).
    fn maybe_compact(&mut self) {
        let cap = 4 * self.total_ops + 64;
        if self.ascent.len() > cap {
            let heap = std::mem::take(&mut self.ascent);
            let live: Vec<Ascend> = heap
                .into_vec()
                .into_iter()
                .filter(|e| self.entry_live(&e.0))
                .collect();
            self.ascent = std::collections::BinaryHeap::from(live);
        }
        if self.descent.len() > cap {
            let heap = std::mem::take(&mut self.descent);
            let live: Vec<Reverse<Ascend>> = heap
                .into_vec()
                .into_iter()
                .filter(|e| self.entry_live(&e.0 .0))
                .collect();
            self.descent = std::collections::BinaryHeap::from(live);
        }
    }
}

/// Configuration of a [`FleetDriver`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetDriverConfig {
    /// The global processor budget shared by every shard.
    pub k_max: u32,
    /// Measurement window length in seconds (every shard advances by this
    /// much each fleet step).
    pub window_secs: f64,
    /// Windows to observe before the first negotiation (estimates are
    /// unreliable while queues fill).
    pub warmup_windows: u64,
    /// Smoothing applied to each shard's measurement streams.
    pub smoothing: Smoothing,
    /// Pause charged to a shard for each rebalance (seconds) — the fleet
    /// re-assigns executors within a fixed machine pool, so the cheap
    /// steady-state pause of the improved DRS re-balancing applies.
    pub pause_secs: f64,
    /// The per-shard rebalance cost/benefit gate (paper App. B-B), applied
    /// before any grant is actuated: a grant that differs from the running
    /// allocation is executed only when the shard's own model says the
    /// move is worth its pause. This is what keeps noise-driven ±1 grant
    /// wobble from re-balancing every shard every window. One exception:
    /// while the budget is *contended*, shrinks bypass the gate — capped
    /// shards are starving, so freed capacity must actually flow.
    pub decision: DecisionPolicy,
    /// Lease length for shard liveness, in windows: a shard that produces
    /// no usable measurement report for this many *consecutive* windows is
    /// presumed dead — its executors stop reserving budget and the
    /// negotiator re-offers them to starved shards. The first usable
    /// report renews the lease. `0` disables the check (no shard is ever
    /// presumed dead).
    pub lease_windows: u64,
    /// Cap, in windows, on the exponential backoff applied between retries
    /// of an unacknowledged actuation (see
    /// [`crate::driver::ActuationRetry`]). The backoff doubles on every
    /// consecutive timeout — 1, 2, 4, … — up to this cap.
    pub retry_backoff_cap: u64,
    /// Per-window decay applied to the credibility of stale measurement
    /// evidence: a sample whose oldest substituted rate is `a` windows old
    /// enters the smoother with weight `stale_decay^a` (see
    /// [`SampleBuilder::weight`]). `1.0` disables staleness discounting;
    /// values are clamped to `(0, 1]`.
    pub stale_decay: f64,
    /// Whether every window is appended to [`FleetDriver::timeline`]
    /// (default `true`). Large fleets driven for many windows turn this
    /// off: the driver then keeps only [`FleetDriver::last_window`] —
    /// updated in place, so a steady-state window records itself without
    /// allocating — and `timeline()` stays empty.
    pub record_timeline: bool,
    /// Relative dead-band on measured edge rates for placement-epoch
    /// purposes: a shard's cached placement inputs count as *changed*
    /// (bumping its placement epoch and re-solving its machine
    /// assignment) only when an edge's new rate differs from the cached
    /// one by more than this fraction of the cached rate. Absorbs
    /// measurement wobble that would otherwise dirty every shard every
    /// window; allocation or resource-profile changes always count.
    /// `0.0` disables the band (any rate movement re-places the shard).
    pub placement_rate_band: f64,
}

impl FleetDriverConfig {
    /// A sensible fleet configuration for the given budget: 60 s windows,
    /// 2 warmup windows, α = 0.5 smoothing, 0.5 s rebalance pause, the
    /// default decision gate hardened for fleet noise
    /// (`min_executor_savings` = 2, so a one-executor scale-down — the
    /// classic noise wobble — never pays for a pause on its own), a
    /// 3-window liveness lease, an 8-window retry-backoff cap, 0.5
    /// per-window stale-evidence decay, and a 5% placement rate band.
    pub fn new(k_max: u32) -> Self {
        FleetDriverConfig {
            k_max,
            window_secs: 60.0,
            warmup_windows: 2,
            smoothing: Smoothing::Alpha { alpha: 0.5 },
            pause_secs: 0.5,
            decision: DecisionPolicy {
                min_executor_savings: 2,
                ..DecisionPolicy::default()
            },
            lease_windows: 3,
            retry_backoff_cap: 8,
            stale_decay: 0.5,
            record_timeline: true,
            placement_rate_band: 0.05,
        }
    }
}

/// Per-shard placement metadata for fleets that share a machine pool
/// ([`FleetDriver::set_machine_pool`]): what one executor of each model
/// operator costs and how tuples flow between operators. Shards without
/// this metadata keep negotiating executor *counts* but receive no machine
/// assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlacementInfo {
    /// Per-executor resource demand of each model operator (model order).
    /// Missing entries default to [`ResourceProfile::default`].
    pub profiles: Vec<ResourceProfile>,
    /// Directed edges between model operators as `(from, to, gain)`: the
    /// edge's tuple rate this window is `gain` times operator `from`'s
    /// measured arrival rate (falling back to `gain` alone while the rate
    /// is unmeasured).
    pub edges: Vec<(usize, usize, f64)>,
}

impl ShardPlacementInfo {
    /// The measured tuple rate on edge `(from, gain)` this window.
    fn edge_rate(&self, from: usize, gain: f64, sample: &WindowSample) -> f64 {
        gain * sample
            .operators
            .get(from)
            .and_then(|o| o.arrival_rate)
            .unwrap_or(1.0)
    }

    /// The placement request for running `allocation` given this window's
    /// measured `sample`.
    pub fn request(&self, allocation: &[u32], sample: &WindowSample) -> PlacementRequest {
        let mut out = PlacementRequest::default();
        self.request_into(&mut out, allocation, sample);
        out
    }

    /// [`ShardPlacementInfo::request`] into a reused buffer — the
    /// allocation-free form the warm placement state rewrites in place.
    pub fn request_into(
        &self,
        out: &mut PlacementRequest,
        allocation: &[u32],
        sample: &WindowSample,
    ) {
        out.operators.clear();
        out.operators
            .extend(allocation.iter().enumerate().map(|(i, &k)| OperatorLoad {
                executors: k,
                profile: self.profiles.get(i).copied().unwrap_or_default(),
            }));
        out.edges.clear();
        out.edges
            .extend(self.edges.iter().map(|&(from, to, gain)| EdgeTraffic {
                from,
                to,
                rate: self.edge_rate(from, gain, sample),
            }));
    }

    /// Whether `cached` still describes running `allocation` under this
    /// window's `sample`, up to the relative `rate_band` on edge rates:
    /// executor counts and resource profiles must match exactly, while an
    /// edge rate may drift within `rate_band` of the cached rate without
    /// counting as a change. This is the placement-epoch predicate — a
    /// `false` here is what dirties a shard's machine assignment.
    pub fn request_matches(
        &self,
        cached: &PlacementRequest,
        allocation: &[u32],
        sample: &WindowSample,
        rate_band: f64,
    ) -> bool {
        if cached.operators.len() != allocation.len() || cached.edges.len() != self.edges.len() {
            return false;
        }
        for (i, (op, &k)) in cached.operators.iter().zip(allocation).enumerate() {
            if op.executors != k || op.profile != self.profiles.get(i).copied().unwrap_or_default()
            {
                return false;
            }
        }
        for (edge, &(from, to, gain)) in cached.edges.iter().zip(&self.edges) {
            if edge.from != from || edge.to != to {
                return false;
            }
            let rate = self.edge_rate(from, gain, sample);
            if (rate - edge.rate).abs() > rate_band * edge.rate.abs() {
                return false;
            }
        }
        true
    }
}

/// One shard handed to [`FleetDriver::new`]: a named backend plus its
/// latency target.
#[derive(Debug)]
pub struct FleetShardSpec<B> {
    /// Shard name (shown in timelines; should be unique).
    pub name: String,
    /// The shard's real-time constraint `Tmax` in seconds: each window the
    /// shard demands its Program 6 answer
    /// ([`scheduler::min_processors_for_target`]) for this target.
    pub t_max_secs: f64,
    /// The shard's CSP backend.
    pub backend: B,
    /// Placement metadata, for fleets that share a machine pool (optional;
    /// see [`ShardPlacementInfo`]).
    pub placement: Option<ShardPlacementInfo>,
}

impl<B> FleetShardSpec<B> {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, t_max_secs: f64, backend: B) -> Self {
        FleetShardSpec {
            name: name.into(),
            t_max_secs,
            backend,
            placement: None,
        }
    }

    /// Declares placement metadata (builder style).
    pub fn with_placement(mut self, info: ShardPlacementInfo) -> Self {
        self.placement = Some(info);
        self
    }
}

/// Error from [`FleetDriver::new`].
#[derive(Debug, Clone, PartialEq)]
pub enum FleetDriverError {
    /// No shards were supplied.
    NoShards,
    /// The window length is not a positive finite number of seconds.
    InvalidWindow(f64),
    /// A shard's latency target is not positive and finite.
    InvalidTarget {
        /// The shard's name.
        shard: String,
        /// The offending target.
        t_max_secs: f64,
    },
    /// The smoothing configuration is invalid.
    Smoothing(crate::measurer::InvalidSmoothing),
    /// A shard's backend exposes no model operators.
    NoOperators {
        /// The shard's name.
        shard: String,
    },
}

impl fmt::Display for FleetDriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetDriverError::NoShards => write!(f, "a fleet needs at least one shard"),
            FleetDriverError::InvalidWindow(w) => {
                write!(f, "window length must be positive and finite, got {w}")
            }
            FleetDriverError::InvalidTarget { shard, t_max_secs } => write!(
                f,
                "shard {shard}: latency target must be positive and finite, got {t_max_secs}"
            ),
            FleetDriverError::Smoothing(e) => write!(f, "{e}"),
            FleetDriverError::NoOperators { shard } => {
                write!(f, "shard {shard}: backend exposes no model operators")
            }
        }
    }
}

impl std::error::Error for FleetDriverError {}

/// One shard's slice of a [`FleetWindow`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardPoint {
    /// The shard's name. Recorded per window because churn
    /// ([`FleetDriver::add_shard`] / [`FleetDriver::remove_shard`]) can
    /// shift shard indices mid-run — correlate timelines by name, not
    /// position.
    pub name: String,
    /// Whether the shard's liveness lease was expired this window (no
    /// usable report for [`FleetDriverConfig::lease_windows`] consecutive
    /// windows): the shard is presumed dead, its executors are excluded
    /// from [`FleetWindow::total_granted`] and its budget is re-offered.
    pub dead: bool,
    /// Measured mean complete sojourn time in milliseconds, when any tuple
    /// finished in the window.
    pub mean_sojourn_ms: Option<f64>,
    /// Tuples the shard fully processed during the window.
    pub completed: u64,
    /// The shard's model-operator allocation at the end of the window. A
    /// rebalance applied this window counts from this window (the same
    /// convention as `DrsDriver`'s timeline), even while the backend is
    /// still charging the rebalance pause.
    pub allocation: Vec<u32>,
    /// Total executors the shard's own single-topology schedule demanded
    /// this window (`None` during warmup or while the shard has no usable
    /// model).
    pub demand: Option<u64>,
    /// Whether the negotiator capped this shard below its demand.
    pub capped: bool,
    /// Whether a rebalance was applied to this shard during the window.
    pub rebalanced: bool,
    /// Whether the negotiator's grant differed from the running allocation
    /// but the cost/benefit gate kept the current one (noise damping).
    pub gated: bool,
    /// Shard-level error this window (model fit, scheduling or a backend
    /// refusal), if any.
    pub error: Option<String>,
}

impl ShardPoint {
    /// Total executors the shard runs at the end of the window.
    pub fn granted(&self) -> u64 {
        executor_total(&self.allocation)
    }
}

/// One fleet measurement window: every shard advanced once, one central
/// negotiation round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetWindow {
    /// Window index (0-based).
    pub window: u64,
    /// Whether demand exceeded the budget this window (some plan was
    /// capped).
    pub contended: bool,
    /// Total executors in force across the fleet at the end of the
    /// window, counting live shards only — a dead shard's executors are
    /// reclaimed (see [`ShardPoint::dead`]).
    pub total_granted: u64,
    /// Per-shard records, in shard index order (independent of the order
    /// shards were advanced in).
    pub shards: Vec<ShardPoint>,
    /// Fleet-level negotiation error, if the round could not be arbitrated
    /// (every shard keeps its previous allocation).
    pub error: Option<String>,
}

/// Per-shard loop state owned by the driver.
#[derive(Debug, Clone)]
struct ShardState<B> {
    name: String,
    t_max_secs: f64,
    backend: B,
    samples: SampleBuilder,
    measurer: Measurer,
    /// Last actuation epoch issued to this shard's backend (strictly
    /// increasing; stale/duplicate commands are rejected shard-side).
    epoch: u64,
    /// Capped-backoff retry state for unacknowledged actuations.
    retry: ActuationRetry,
    /// Liveness lease expired: no usable report for `lease_windows`
    /// consecutive windows.
    dead: bool,
    /// Placement metadata (when the fleet shares a machine pool).
    placement_info: Option<ShardPlacementInfo>,
    /// The machine assignment currently in force on the backend.
    placement: Option<Placement>,
    /// Reused buffer for this shard's raw sample (fed to the measurer).
    raw: RawSample,
    /// [`Measurer::rates_epoch`] at the last model refit; `u64::MAX`
    /// forces one. While the epoch stands still the cached
    /// `demand`/`demand_error` below are authoritative and the (allocating)
    /// refit is skipped — a sojourn-only move leaves the model inputs, and
    /// so the demand, bitwise unchanged.
    demand_epoch: u64,
    /// The demand fitted at `demand_epoch` (`None`: no usable model).
    demand: Option<ShardDemand>,
    /// The fit error at `demand_epoch`, replayed into the timeline each
    /// window while the broken estimates stand still.
    demand_error: Option<String>,
}

/// Per-window working buffers, reused across windows so the fleet loop
/// allocates nothing per shard in steady state (the per-shard `Vec`s this
/// replaces dominated the loop's allocation profile). Per-window buffers
/// are cleared at the top of every [`FleetDriver::step_with_order`]; the
/// packed demand buffer (`demands`/`demand_idx`/`modeled`) deliberately
/// persists across windows, so unchanged shards hand the incremental
/// negotiator bitwise-identical slots — its no-op fast path.
#[derive(Debug, Clone, Default)]
struct FleetScratch {
    /// Permutation check for the caller-supplied advance order.
    seen: Vec<bool>,
    /// This window's measurement report per shard (buffers reused; every
    /// entry is overwritten by `advance_into` before it is read).
    samples: Vec<WindowSample>,
    /// Shard-level error per shard.
    errors: Vec<Option<String>>,
    /// Index into `demands` per shard (`None`: no usable model).
    /// Persists across windows together with `demands`/`modeled`.
    demand_idx: Vec<Option<usize>>,
    /// Packed negotiation demands, mirroring each modeled shard's cached
    /// fit (handed to the negotiator directly — no per-window clone).
    demands: Vec<ShardDemand>,
    /// Shard index per `demands` entry.
    modeled: Vec<usize>,
    /// Shards whose model was refitted this window.
    refit: Vec<usize>,
    capped: Vec<bool>,
    gated: Vec<bool>,
    /// Shrinks the gate-aware pass promoted to urgent (holding them would
    /// starve another shard): they bypass the actuation-time gate.
    urgent: Vec<bool>,
    rebalanced: Vec<bool>,
    /// Round-1 grant withdrawn by the gate-aware pass: ignore the
    /// negotiator's slot for this shard this window.
    suppressed: Vec<bool>,
    /// Index into `round2_grants` per shard, for shards the gate-aware
    /// second round re-granted.
    round2_idx: Vec<Option<usize>>,
    round2_grants: Vec<ShardGrant>,
    /// Whether this window's round-1 negotiation succeeded (the
    /// negotiator's published grants are usable).
    negotiated_ok: bool,
    /// The allocation a rebalance put in force this window.
    applied: Vec<Option<Vec<u32>>>,
    /// The allocation in force per shard, cached once per window (buffers
    /// reused; overwritten via `current_allocation_into` before use).
    current_allocs: Vec<Vec<u32>>,
    /// Executors currently in force per shard.
    current_totals: Vec<u64>,
    /// Executor total each shard is about to run (its grant where one
    /// stands, its current total otherwise) — the actuation sort key.
    target_totals: Vec<u64>,
    actuation_order: Vec<usize>,
    /// Shards held back by the gate-aware pass.
    held: Vec<usize>,
    /// Shard index per entry of the gate-aware re-offer round.
    round_shards: Vec<usize>,
    /// This window's solved machine assignment per shard, as a slot into
    /// the warm placement state (`place`) — the placement itself stays
    /// cached there and is cloned only when a command actually carries it.
    planned_slots: Vec<Option<usize>>,
    /// The warm-start placement cache (persists across windows): cached
    /// requests, solved placements, residual pool capacity, per-shard
    /// placement epochs. See [`placement::FleetPlacementState`].
    place: placement::FleetPlacementState,
    /// Shard index → warm-state slot, persisted across windows and
    /// re-validated by name each window (churn shifts shard indices).
    place_slots: Vec<Option<usize>>,
}

impl FleetScratch {
    /// Clears the per-window buffers and sizes the per-shard ones for `n`
    /// shards. The packed demand mirror survives untouched.
    fn reset(&mut self, n: usize) {
        self.seen.clear();
        self.seen.resize(n, false);
        self.samples.resize_with(n, WindowSample::default);
        self.errors.resize_with(n, || None);
        for e in &mut self.errors {
            *e = None;
        }
        self.refit.clear();
        self.capped.clear();
        self.capped.resize(n, false);
        self.gated.clear();
        self.gated.resize(n, false);
        self.urgent.clear();
        self.urgent.resize(n, false);
        self.rebalanced.clear();
        self.rebalanced.resize(n, false);
        self.suppressed.clear();
        self.suppressed.resize(n, false);
        self.round2_idx.clear();
        self.round2_idx.resize(n, None);
        self.round2_grants.clear();
        self.negotiated_ok = false;
        self.applied.resize_with(n, || None);
        for a in &mut self.applied {
            *a = None;
        }
        self.current_allocs.resize_with(n, Vec::new);
        self.current_totals.clear();
        self.target_totals.clear();
        self.actuation_order.clear();
        self.held.clear();
        self.round_shards.clear();
        self.planned_slots.clear();
        self.planned_slots.resize(n, None);
        // `place`/`place_slots` persist across windows (the warm-start
        // placement cache); slots are re-validated by name when used.
        if self.place_slots.len() != n {
            self.place_slots.clear();
            self.place_slots.resize(n, None);
        }
    }

    /// The grant shard `i` should actuate this window, resolved across the
    /// two negotiation rounds: `None` when negotiation failed, the shard
    /// has no usable model, or the gate-aware pass withdrew the grant;
    /// the round-2 re-offer where one stands; the negotiator's published
    /// round-1 slot otherwise. Borrow-split from the driver so callers can
    /// hold the negotiator and the scratch independently.
    fn grant<'a>(&'a self, negotiator: &'a FleetNegotiator, i: usize) -> Option<&'a ShardGrant> {
        if !self.negotiated_ok || self.suppressed[i] {
            return None;
        }
        if let Some(r2) = self.round2_idx[i] {
            return Some(&self.round2_grants[r2]);
        }
        self.demand_idx
            .get(i)
            .copied()
            .flatten()
            .map(|slot| &negotiator.grants()[slot])
    }
}

/// The fleet control loop: one DRS loop per shard, contention resolved
/// centrally each window by a [`FleetNegotiator`].
///
/// See the [module docs](self) for the scheme, the degraded-channel
/// contract, and a runnable example.
#[derive(Debug, Clone)]
pub struct FleetDriver<B: CspBackend> {
    shards: Vec<ShardState<B>>,
    /// Shared copy-on-write: [`FleetDriver::checkpoint`] clones the `Arc`,
    /// not the negotiator's warm state; [`Arc::make_mut`] at the negotiate
    /// site deep-clones lazily, only when a driver that still shares the
    /// state with a checkpoint (or a restored branch) next negotiates.
    negotiator: Arc<FleetNegotiator>,
    config: FleetDriverConfig,
    machine_pool: Option<PlacementPool>,
    wasted_grants: u64,
    scratch: FleetScratch,
    timeline: Vec<FleetWindow>,
    /// Windows completed so far — the window counter even when
    /// [`FleetDriverConfig::record_timeline`] keeps `timeline` empty.
    completed_windows: u64,
    /// The most recent window's record, maintained in place (no per-window
    /// allocation in steady state).
    last_window: FleetWindow,
    /// Reused index-order buffer backing [`FleetDriver::step`].
    order_buf: Vec<usize>,
}

/// A snapshot of the full fleet control plane — negotiator, per-shard
/// measurement/epoch/backoff state, timeline, and the backends themselves
/// (including any virtual clocks a simulator backend carries).
///
/// Taken with [`FleetDriver::checkpoint`]; a checkpoint can be restored
/// any number of times ([`FleetDriver::from_checkpoint`]) so long
/// scenario sweeps branch from a common prefix instead of replaying it.
/// Continuing from a restore is bit-identical to never having stopped —
/// the checkpoint round-trip tests lock this in.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCheckpoint<B: CspBackend> {
    driver: FleetDriver<B>,
}

impl<B: CspBackend> FleetCheckpoint<B> {
    /// Consumes the checkpoint, yielding a driver positioned exactly
    /// where [`FleetDriver::checkpoint`] was called.
    pub fn into_driver(self) -> FleetDriver<B> {
        self.driver
    }

    /// The fleet window index the checkpoint was taken at (number of
    /// completed windows).
    pub fn window(&self) -> u64 {
        self.driver.completed_windows
    }
}

impl<B: CspBackend> FleetDriver<B> {
    /// Creates a fleet driver over `shards`.
    ///
    /// # Errors
    ///
    /// * [`FleetDriverError::NoShards`] — empty shard list.
    /// * [`FleetDriverError::InvalidWindow`] /
    ///   [`FleetDriverError::InvalidTarget`] — non-positive or non-finite
    ///   window length or latency target.
    /// * [`FleetDriverError::NoOperators`] — a backend exposes no bolts.
    /// * [`FleetDriverError::Smoothing`] — invalid smoothing parameters.
    pub fn new(
        config: FleetDriverConfig,
        shards: Vec<FleetShardSpec<B>>,
    ) -> Result<Self, FleetDriverError> {
        if shards.is_empty() {
            return Err(FleetDriverError::NoShards);
        }
        if !config.window_secs.is_finite() || config.window_secs <= 0.0 {
            return Err(FleetDriverError::InvalidWindow(config.window_secs));
        }
        let mut states = Vec::with_capacity(shards.len());
        for spec in shards {
            states.push(Self::shard_state(&config, spec)?);
        }
        Ok(FleetDriver {
            shards: states,
            negotiator: Arc::new(FleetNegotiator::new(config.k_max)),
            config,
            machine_pool: None,
            wasted_grants: 0,
            scratch: FleetScratch::default(),
            timeline: Vec::new(),
            completed_windows: 0,
            last_window: FleetWindow {
                window: 0,
                contended: false,
                total_granted: 0,
                shards: Vec::new(),
                error: None,
            },
            order_buf: Vec::new(),
        })
    }

    /// Validates a spec and builds its fresh loop state.
    fn shard_state(
        config: &FleetDriverConfig,
        spec: FleetShardSpec<B>,
    ) -> Result<ShardState<B>, FleetDriverError> {
        if !spec.t_max_secs.is_finite() || spec.t_max_secs <= 0.0 {
            return Err(FleetDriverError::InvalidTarget {
                shard: spec.name,
                t_max_secs: spec.t_max_secs,
            });
        }
        let n_ops = spec.backend.operator_names().len();
        if n_ops == 0 {
            return Err(FleetDriverError::NoOperators { shard: spec.name });
        }
        let measurer =
            Measurer::new(n_ops, config.smoothing).map_err(FleetDriverError::Smoothing)?;
        Ok(ShardState {
            name: spec.name,
            t_max_secs: spec.t_max_secs,
            backend: spec.backend,
            samples: SampleBuilder::new(),
            measurer,
            epoch: 0,
            retry: ActuationRetry::new(config.retry_backoff_cap),
            dead: false,
            placement_info: spec.placement,
            placement: None,
            raw: RawSample {
                external_rate: 0.0,
                operators: Vec::new(),
                mean_sojourn: None,
            },
            demand_epoch: u64::MAX,
            demand: None,
            demand_error: None,
        })
    }

    /// Joins a new topology to the running fleet (churn). The shard starts
    /// with fresh measurement state: until its model warms up it reserves
    /// its current allocation out of the budget like any unmodeled shard,
    /// then negotiates normally. Returns the new shard's index (indices of
    /// existing shards are unchanged by a join).
    ///
    /// # Errors
    ///
    /// The same per-shard validation as [`FleetDriver::new`]:
    /// [`FleetDriverError::InvalidTarget`] /
    /// [`FleetDriverError::NoOperators`] / [`FleetDriverError::Smoothing`].
    pub fn add_shard(&mut self, spec: FleetShardSpec<B>) -> Result<usize, FleetDriverError> {
        let state = Self::shard_state(&self.config, spec)?;
        self.shards.push(state);
        Ok(self.shards.len() - 1)
    }

    /// Removes shard `i` from the fleet (graceful leave), returning its
    /// backend. Its executors stop counting against the budget from the
    /// next window, so the freed capacity is re-offered on the next
    /// negotiation round. Indices of later shards shift down by one —
    /// correlate timelines across churn by [`ShardPoint::name`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the fleet would become empty.
    pub fn remove_shard(&mut self, i: usize) -> B {
        assert!(
            self.shards.len() > 1,
            "a fleet needs at least one shard; cannot remove the last one"
        );
        self.shards.remove(i).backend
    }

    /// The fleet timeline recorded so far (empty when
    /// [`FleetDriverConfig::record_timeline`] is off).
    pub fn timeline(&self) -> &[FleetWindow] {
        &self.timeline
    }

    /// The most recent window's record — available even when the timeline
    /// is not being recorded. Meaningless before the first step.
    pub fn last_window(&self) -> &FleetWindow {
        &self.last_window
    }

    /// Windows completed so far (the timeline length when recording).
    pub fn completed_windows(&self) -> u64 {
        self.completed_windows
    }

    /// Whether shard `i`'s liveness lease is currently expired (see
    /// [`FleetDriverConfig::lease_windows`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_dead(&self, i: usize) -> bool {
        self.shards[i].dead
    }

    /// Shard `i`'s capped-backoff retry state (see
    /// [`crate::driver::ActuationRetry`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn actuation_retry(&self, i: usize) -> &ActuationRetry {
        &self.shards[i].retry
    }

    /// The negotiator (budget introspection).
    pub fn negotiator(&self) -> &FleetNegotiator {
        &self.negotiator
    }

    /// Installs a shared machine pool: from the next window on, the driver
    /// re-solves the fleet's machine assignment every round (over the live
    /// shards that declared [`ShardPlacementInfo`]) and threads it through
    /// the control plane — a shard that rebalances carries its assignment
    /// in [`RebalancePlan::placement`], and a shard whose executor counts
    /// are unchanged but whose assignment moved receives it via
    /// [`CspBackend::apply_placement`].
    pub fn set_machine_pool(&mut self, pool: PlacementPool) {
        self.machine_pool = Some(pool);
    }

    /// The shared machine pool, when one is installed.
    pub fn machine_pool(&self) -> Option<&PlacementPool> {
        self.machine_pool.as_ref()
    }

    /// Shard `i`'s machine assignment currently in force, when the fleet
    /// shares a machine pool and the shard declared placement metadata.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_placement(&self, i: usize) -> Option<&Placement> {
        self.shards[i].placement.as_ref()
    }

    /// Cumulative per-shard greedy solves the warm placement state has
    /// performed (see [`placement::FleetPlacementState::solver_calls`]).
    /// A settled window adds zero.
    pub fn placement_solver_calls(&self) -> u64 {
        self.scratch.place.solver_calls()
    }

    /// Cumulative batch re-solves of the whole fleet's placement — the
    /// first placement-enabled window, pool changes, drift-triggered
    /// anchor solves, and explicit invalidations.
    pub fn placement_full_solves(&self) -> u64 {
        self.scratch.place.full_solves()
    }

    /// Forces the next placement-enabled window to batch re-solve every
    /// shard from scratch (see
    /// [`placement::FleetPlacementState::invalidate`]).
    pub fn invalidate_placement_cache(&mut self) {
        self.scratch.place.invalidate();
    }

    /// Grant/refuse round-trips wasted at *actuation* time: a negotiated
    /// grant discarded by the shard-side decision gate, or a grow deferred
    /// because a refused shrink left the realized fleet total too high.
    /// The gate-aware negotiation pass exists to keep this counter flat —
    /// refusals are discovered while the budget is still being arbitrated,
    /// so the surplus lands with a shard that will actually actuate it.
    pub fn wasted_grants(&self) -> u64 {
        self.wasted_grants
    }

    /// The configuration.
    pub fn config(&self) -> &FleetDriverConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard names, in shard index order.
    pub fn shard_names(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.name.as_str()).collect()
    }

    /// Shard `i`'s backend.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn backend(&self, i: usize) -> &B {
        &self.shards[i].backend
    }

    /// Mutable access to shard `i`'s backend (e.g. to inject workload
    /// drift mid-run).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn backend_mut(&mut self, i: usize) -> &mut B {
        &mut self.shards[i].backend
    }

    /// Runs `windows` fleet windows (shards advanced in index order),
    /// returning the new timeline entries.
    pub fn run_windows(&mut self, windows: u64) -> &[FleetWindow] {
        let first_new = self.timeline.len();
        for _ in 0..windows {
            self.step();
        }
        &self.timeline[first_new..]
    }

    /// Runs one fleet window, advancing shards in index order.
    pub fn step(&mut self) -> &FleetWindow {
        let mut order = std::mem::take(&mut self.order_buf);
        order.clear();
        order.extend(0..self.shards.len());
        self.step_with_order(&order);
        self.order_buf = order;
        &self.last_window
    }

    /// Runs one fleet window, advancing the shard backends in the given
    /// order. Because every shard runs on its own isolated clock, the
    /// interleaving must not affect any shard's measurements — the
    /// determinism tests lock this in.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..shard_count()`.
    pub fn step_with_order(&mut self, order: &[usize]) -> &FleetWindow {
        let n = self.shards.len();
        // The scratch buffers live on the driver so the loop allocates
        // nothing per shard in steady state; taken out for the duration of
        // the step to keep the borrow checker happy, put back at the end.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.reset(n);
        assert_eq!(order.len(), n, "order must cover every shard exactly once");
        for &i in order {
            assert!(
                i < n && !scratch.seen[i],
                "order must be a permutation of 0..{n}, got {order:?}"
            );
            scratch.seen[i] = true;
        }

        // 1. Advance every shard one window, in the caller's order. The
        //    sample buffers are reused window over window.
        for &i in order {
            self.shards[i]
                .backend
                .advance_into(self.config.window_secs, &mut scratch.samples[i]);
        }

        // 2. Feed the measurers (shard index order; each stream is
        //    per-shard, so this is order-independent too). Stale evidence
        //    enters the smoother discounted by `stale_decay^age`, and a
        //    run of `lease_windows` fully-missed reports expires the
        //    shard's liveness lease; the first usable report renews it.
        for (shard, sample) in self.shards.iter_mut().zip(&scratch.samples) {
            let ShardState {
                samples,
                measurer,
                raw,
                ..
            } = shard;
            if samples.build_into(sample, raw) {
                let weight = samples.weight(self.config.stale_decay);
                measurer.observe_weighted(raw, weight);
            }
            shard.dead = self.config.lease_windows > 0
                && shard.samples.missed_windows() >= self.config.lease_windows;
        }

        // 2b. Cache each shard's running allocation once for the window
        //     (every later phase reads these instead of re-asking the
        //     backend and re-allocating the answer).
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .backend
                .current_allocation_into(&mut scratch.current_allocs[i]);
            scratch
                .current_totals
                .push(executor_total(&scratch.current_allocs[i]));
        }

        let window = self.completed_windows;
        let mut fleet_error = None;
        let mut contended = false;

        if window >= self.config.warmup_windows {
            // 3. Each shard's own single-topology demand. The (allocating)
            //    model refit runs only when the shard's smoothed rates
            //    actually moved (`Measurer::rates_epoch`); a steady shard reuses
            //    its cached fit, which also hands the negotiator a
            //    bitwise-identical demand — its no-op fast path. A dead
            //    shard submits none: its (stale) model must not keep
            //    claiming budget for a machine that is gone.
            for (i, shard) in self.shards.iter_mut().enumerate() {
                if shard.dead {
                    // Forget the cache so a revived shard refits at once.
                    shard.demand_epoch = u64::MAX;
                    shard.demand = None;
                    shard.demand_error = None;
                    continue;
                }
                let epoch = shard.measurer.rates_epoch();
                if epoch != shard.demand_epoch {
                    shard.demand_epoch = epoch;
                    shard.demand_error = None;
                    scratch.refit.push(i);
                    shard.demand = match shard.measurer.estimates() {
                        None => None,
                        Some(est) => match PerformanceModel::new(&est.to_model_inputs()) {
                            Ok(model) => {
                                match shard_demand(&model, shard.t_max_secs, self.config.k_max) {
                                    Ok(desired) => Some(ShardDemand {
                                        network: model.network().clone(),
                                        desired,
                                    }),
                                    Err(e) => {
                                        shard.demand_error = Some(e.to_string());
                                        None
                                    }
                                }
                            }
                            Err(e) => {
                                shard.demand_error = Some(e.to_string());
                                None
                            }
                        },
                    };
                }
                if let Some(e) = &shard.demand_error {
                    scratch.errors[i] = Some(e.clone());
                }
            }

            // 3b. Mirror the per-shard caches into the persistent packed
            //     demand buffer. When the modeled set is unchanged, only
            //     the slots refitted this window are rewritten (in place);
            //     churn in the modeled set repacks, reusing the buffers.
            let mut stable = scratch.demand_idx.len() == n;
            if stable {
                let mut next = 0usize;
                for i in 0..n {
                    match (self.shards[i].demand.is_some(), scratch.demand_idx[i]) {
                        (true, Some(slot)) if slot == next => next += 1,
                        (false, None) => {}
                        _ => {
                            stable = false;
                            break;
                        }
                    }
                }
                stable = stable && next == scratch.modeled.len();
            }
            if stable {
                for idx in 0..scratch.refit.len() {
                    let i = scratch.refit[idx];
                    if let (Some(slot), Some(d)) =
                        (scratch.demand_idx[i], self.shards[i].demand.as_ref())
                    {
                        scratch.demands[slot].clone_from(d);
                    }
                }
            } else {
                scratch.modeled.clear();
                scratch.demand_idx.clear();
                scratch.demand_idx.resize(n, None);
                let mut slot = 0usize;
                for i in 0..n {
                    let Some(d) = self.shards[i].demand.as_ref() else {
                        continue;
                    };
                    if slot < scratch.demands.len() {
                        scratch.demands[slot].clone_from(d);
                    } else {
                        scratch.demands.push(d.clone());
                    }
                    scratch.demand_idx[i] = Some(slot);
                    scratch.modeled.push(i);
                    slot += 1;
                }
                scratch.demands.truncate(slot);
            }

            // 4. Central arbitration — warm-start incremental: per-window
            //    cost is O(changed slots + executor moves), zero heap
            //    allocations when nothing changed. Shards without a usable
            //    model keep their current allocation; their executors are
            //    reserved out of the budget before the others negotiate.
            //    Dead shards reserve nothing — lease expiry is precisely
            //    the signal that their grants are reclaimed and re-offered.
            if !scratch.modeled.is_empty() {
                let reserved: u64 = (0..n)
                    .filter(|&i| scratch.demand_idx[i].is_none() && !self.shards[i].dead)
                    .map(|i| scratch.current_totals[i])
                    .sum();
                let budget = u32::try_from(u64::from(self.config.k_max).saturating_sub(reserved))
                    .expect("reserved budget is clamped below k_max, which fits in u32");
                // `make_mut` only clones when a checkpoint still shares
                // the warm state; a driver that never branched mutates in
                // place with no per-window cost.
                match Arc::make_mut(&mut self.negotiator).negotiate(budget, &scratch.demands) {
                    Ok(()) => {
                        scratch.negotiated_ok = true;
                        let grants = self.negotiator.grants();
                        contended = grants.iter().any(|g| g.capped);
                        for (grant, &shard) in grants.iter().zip(&scratch.modeled) {
                            scratch.capped[shard] = grant.capped;
                        }
                        // 4b. Gate-aware wobble pass: consult each shard's
                        //     decision gate *now* and re-arbitrate around
                        //     refusals, instead of discovering them at
                        //     actuation time.
                        self.gate_aware_pass(&mut scratch, budget, contended);
                    }
                    Err(e) => fleet_error = Some(e.to_string()),
                }
            }

            // 4c. With a shared machine pool installed, solve the fleet's
            //     machine assignment from the allocations about to be run.
            self.plan_placements(&mut scratch, &mut fleet_error);

            // 5. Actuate: rebalance every shard whose grant differs from
            //    what it currently runs — shrinks before grows, and every
            //    grow is re-checked against the *realized* fleet total
            //    first, so a refused shrink (e.g. a shard still mid-pause)
            //    can never combine with a successful grow to push the
            //    fleet over `Kmax` against a real pool.
            //
            // Dead shards' executors are ghosts (the machine is gone):
            // they neither occupy the pool nor block grows.
            let mut fleet_total: u64 = scratch
                .current_totals
                .iter()
                .zip(&self.shards)
                .filter(|(_, s)| !s.dead)
                .map(|(&t, _)| t)
                .sum();
            {
                // Distinct from the caller's `order` (the measurement
                // interleaving): actuation always shrinks first. The
                // unstable sort is deterministic — every key ends in the
                // unique shard index — and, unlike the stable sort, does
                // not allocate its merge buffer.
                for i in 0..n {
                    let target = scratch
                        .grant(&self.negotiator, i)
                        .map_or(scratch.current_totals[i], ShardGrant::total);
                    scratch.target_totals.push(target);
                }
                let FleetScratch {
                    actuation_order,
                    target_totals,
                    current_totals,
                    ..
                } = &mut scratch;
                actuation_order.extend(0..n);
                actuation_order
                    .sort_unstable_by_key(|&i| (target_totals[i] > current_totals[i], i));
            }
            for slot in 0..n {
                let i = scratch.actuation_order[slot];
                {
                    let Some(grant) = scratch.grant(&self.negotiator, i) else {
                        continue;
                    };
                    if grant.allocation == scratch.current_allocs[i] {
                        continue;
                    }
                }
                // Channel in backoff after an unacknowledged actuation:
                // hold this window's command instead of spamming the
                // (evidently degraded) control channel.
                if !self.shards[i].retry.ready(window) {
                    scratch.errors[i] = Some(format!(
                        "actuation deferred: backoff after timeout (next attempt in {} windows)",
                        self.shards[i].retry.holdoff(window)
                    ));
                    continue;
                }
                // Per-shard cost/benefit gate (paper App. B-B), now a
                // safety net behind the gate-aware negotiation pass:
                // anything refused here is a wasted grant/refuse
                // round-trip the pass failed to predict. Contended and
                // promoted shrinks bypass the gate — capped shards are
                // starving and the freed capacity must actually flow.
                let urgent_shrink = (contended || scratch.urgent[i])
                    && scratch.target_totals[i] < scratch.current_totals[i];
                let refused = !urgent_shrink && {
                    let grant = scratch
                        .grant(&self.negotiator, i)
                        .expect("resolved just above");
                    self.gate_refuses(i, grant, &scratch.current_allocs[i], &scratch)
                };
                if refused {
                    scratch.gated[i] = true;
                    self.wasted_grants += 1;
                    continue;
                }
                if scratch.target_totals[i] > scratch.current_totals[i]
                    && fleet_total - scratch.current_totals[i] + scratch.target_totals[i]
                        > u64::from(self.config.k_max)
                {
                    // An earlier shrink was refused and its executors are
                    // still in force: defer this grow to a later window
                    // rather than over-commit the pool.
                    scratch.errors[i] = Some(format!(
                        "grow to {} deferred: a refused shrink left the fleet at {} of {} executors",
                        scratch.target_totals[i],
                        fleet_total,
                        self.config.k_max
                    ));
                    self.wasted_grants += 1;
                    continue;
                }
                // The grant leaves the negotiator's warm state by clone
                // exactly once, here — on a window that actually moves
                // this shard.
                let allocation = scratch
                    .grant(&self.negotiator, i)
                    .expect("resolved just above")
                    .allocation
                    .clone();
                let placement = scratch.planned_slots[i]
                    .take()
                    .map(|slot| scratch.place.placement(slot).clone());
                // Every command carries a fresh, strictly increasing
                // epoch: a backend behind a delaying/duplicating channel
                // rejects anything stale instead of double-applying it.
                let shard = &mut self.shards[i];
                shard.epoch += 1;
                let plan = RebalancePlan {
                    allocation,
                    pause_secs: self.config.pause_secs,
                    epoch: shard.epoch,
                    placement,
                };
                match shard.backend.apply(&plan) {
                    Ok(applied) => {
                        shard.retry.on_ack();
                        scratch.rebalanced[i] = true;
                        let applied_total = executor_total(&applied.allocation);
                        fleet_total = fleet_total - scratch.current_totals[i] + applied_total;
                        // The machine assignment rode the rebalance plan;
                        // it is in force only if the backend actually put
                        // the matching executor counts in force.
                        if let Some(p) = plan.placement {
                            if p.allocation_matches(&applied.allocation) {
                                shard.placement = Some(p);
                            }
                        }
                        // A backend may adjust what it puts in force (and a
                        // simulator defers the swap until its pause ends):
                        // the timeline must carry the allocation the
                        // rebalance put in force, as `DrsDriver` does —
                        // otherwise a contended window would pair this
                        // round's demand/capped flags with last round's
                        // allocations.
                        scratch.applied[i] = Some(applied.allocation);
                    }
                    Err(e) => {
                        // A timeout means the command or its ack vanished:
                        // back off before retrying. Any other error is an
                        // acknowledgement (the channel works, the shard
                        // refused), so the backoff resets. Either way the
                        // backend is believed to keep its previous
                        // allocation; the freed/claimed capacity is
                        // re-offered next window.
                        if matches!(e, BackendError::Timeout(_)) {
                            shard.retry.on_timeout(window);
                        } else {
                            shard.retry.on_ack();
                        }
                        scratch.errors[i] = Some(e.to_string());
                    }
                }
            }

            // 5b. Placement-only moves: a shard whose executor counts did
            //     not change this window can still need its machine
            //     assignment refreshed (fleet-wide traffic shifted the
            //     shared pool). Those assignments go through the dedicated
            //     control-plane call instead of a full rebalance.
            for i in 0..n {
                if scratch.rebalanced[i] {
                    continue;
                }
                let Some(slot) = scratch.planned_slots[i].take() else {
                    continue;
                };
                let p = scratch.place.placement(slot);
                let shard = &mut self.shards[i];
                if shard.dead || shard.placement.as_ref() == Some(p) {
                    continue;
                }
                // A deferred or refused grant leaves the assignment solved
                // for an allocation the backend never adopted: drop it and
                // re-solve next window. (Not rebalanced this window, so
                // the cached allocation is still what the backend runs.)
                if !p.allocation_matches(&scratch.current_allocs[i]) {
                    continue;
                }
                match shard.backend.apply_placement(p) {
                    Ok(()) => shard.placement = Some(p.clone()),
                    Err(e) => {
                        if scratch.errors[i].is_none() {
                            scratch.errors[i] = Some(format!("placement: {e}"));
                        }
                    }
                }
            }
        }

        // 6. Record the window in place: the applied allocation where a
        //    rebalance fired this window, the cached live allocation
        //    otherwise. `last_window` is updated field by field (steady
        //    state allocates nothing); the timeline, when recorded, takes
        //    a clone.
        self.last_window.window = window;
        self.last_window.contended = contended;
        self.last_window.error = fleet_error;
        self.last_window.shards.resize_with(n, || ShardPoint {
            name: String::new(),
            dead: false,
            mean_sojourn_ms: None,
            completed: 0,
            allocation: Vec::new(),
            demand: None,
            capped: false,
            rebalanced: false,
            gated: false,
            error: None,
        });
        let mut total_granted = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            let point = &mut self.last_window.shards[i];
            point.name.clone_from(&shard.name);
            point.dead = shard.dead;
            let sample = &scratch.samples[i];
            point.mean_sojourn_ms = sample.mean_sojourn.map(|s| s * 1e3);
            point.completed = sample.completed;
            match scratch.applied[i].take() {
                Some(a) => point.allocation = a,
                None => point.allocation.clone_from(&scratch.current_allocs[i]),
            }
            point.demand = scratch
                .demand_idx
                .get(i)
                .copied()
                .flatten()
                .map(|slot| executor_total(&scratch.demands[slot].desired));
            point.capped = scratch.capped[i];
            point.rebalanced = scratch.rebalanced[i];
            point.gated = scratch.gated[i];
            point.error = scratch.errors[i].take();
            if !point.dead {
                // Dead shards' grants are reclaimed — only live executors
                // occupy the pool.
                total_granted += executor_total(&point.allocation);
            }
        }
        self.last_window.total_granted = total_granted;
        self.completed_windows += 1;
        self.scratch = scratch;
        if self.config.record_timeline {
            self.timeline.push(self.last_window.clone());
            self.timeline.last().expect("just pushed")
        } else {
            &self.last_window
        }
    }

    /// Whether shard `i`'s own cost/benefit gate (paper App. B-B) refuses
    /// `grant` given what it currently runs. `false` when the shard has no
    /// usable model this window.
    fn gate_refuses(
        &self,
        i: usize,
        grant: &ShardGrant,
        current: &[u32],
        scratch: &FleetScratch,
    ) -> bool {
        let Some(slot) = scratch.demand_idx[i] else {
            return false;
        };
        let network = &scratch.demands[slot].network;
        let sample = &scratch.samples[i];
        let verdict = decision::decide(
            &self.config.decision,
            &DecisionInputs {
                current_estimate: network.expected_sojourn(current).unwrap_or(f64::INFINITY),
                candidate_estimate: network
                    .expected_sojourn(&grant.allocation)
                    .unwrap_or(f64::INFINITY),
                current_allocation: current.to_vec(),
                candidate_allocation: grant.allocation.clone(),
                pause_secs: self.config.pause_secs,
                t_max: Some(self.shards[i].t_max_secs),
                measured_sojourn: sample.mean_sojourn,
            },
        );
        !verdict.is_rebalance()
    }

    /// The gate-aware wobble pass (phase 4b of the window): consult every
    /// modeled shard's decision gate on its freshly negotiated grant and
    /// arbitrate around the refusals *now*, instead of discovering them at
    /// actuation time and stranding the capacity for a window.
    ///
    /// Refused shards are held at their current allocation and the rest
    /// re-negotiate within the realized budget (what the held shards keep
    /// in force comes off the top). Two outcomes:
    ///
    /// * the re-negotiation is uncontended — the holds stand (`gated`),
    ///   and every remaining grant fits the realized pool, so nothing is
    ///   deferred at actuation;
    /// * the re-negotiation is capped or infeasible — the "wobble" was
    ///   load-bearing after all (holding it starves another shard), so the
    ///   round-1 grants stand and the held shrinks are promoted to urgent:
    ///   they bypass the actuation gate exactly like contended shrinks.
    fn gate_aware_pass(&self, scratch: &mut FleetScratch, budget: u32, contended: bool) {
        for slot in 0..scratch.modeled.len() {
            let i = scratch.modeled[slot];
            let grant = &self.negotiator.grants()[slot];
            if grant.allocation == scratch.current_allocs[i] {
                continue;
            }
            if contended && grant.total() < scratch.current_totals[i] {
                continue; // contended shrinks actuate unconditionally
            }
            if self.gate_refuses(i, grant, &scratch.current_allocs[i], scratch) {
                scratch.held.push(i);
            }
        }
        if scratch.held.is_empty() {
            return;
        }
        if scratch.held.len() == scratch.modeled.len() {
            for idx in 0..scratch.held.len() {
                let i = scratch.held[idx];
                scratch.gated[i] = true;
                scratch.suppressed[i] = true;
            }
            return;
        }
        let held_reserved: u64 = scratch
            .held
            .iter()
            .map(|&i| scratch.current_totals[i])
            .sum();
        let budget2 =
            u32::try_from(u64::from(budget).saturating_sub(held_reserved)).unwrap_or(u32::MAX);
        // The re-offer round runs over *borrowed* demands through the
        // stateless from-scratch path: a subset round must not disturb the
        // warm per-slot state the incremental negotiator carries for the
        // full fleet.
        let result = {
            let FleetScratch {
                demands,
                modeled,
                held,
                round_shards,
                ..
            } = &mut *scratch;
            let mut round_refs: Vec<&ShardDemand> = Vec::with_capacity(modeled.len() - held.len());
            for slot in 0..modeled.len() {
                let i = modeled[slot];
                if held.contains(&i) {
                    continue;
                }
                round_shards.push(i);
                round_refs.push(&demands[slot]);
            }
            FleetNegotiator::negotiate_scratch(budget2, &round_refs)
        };
        match result {
            Ok(granted) if granted.iter().all(|g| !g.capped) => {
                for idx in 0..scratch.held.len() {
                    let i = scratch.held[idx];
                    scratch.gated[i] = true;
                    scratch.suppressed[i] = true;
                }
                scratch.round2_grants = granted;
                for (r2, &i) in scratch.round_shards.iter().enumerate() {
                    scratch.capped[i] = scratch.round2_grants[r2].capped;
                    scratch.round2_idx[i] = Some(r2);
                }
            }
            _ => {
                for idx in 0..scratch.held.len() {
                    let i = scratch.held[idx];
                    scratch.urgent[i] = true;
                }
            }
        }
    }

    /// Phase 4c: with a shared machine pool installed, refresh the warm
    /// placement state ([`placement::FleetPlacementState`]) from the
    /// allocation each live metadata-carrying shard is about to run (its
    /// grant where one stands, its current executors otherwise) and this
    /// window's measured edge rates, then replan. Only shards whose
    /// inputs actually changed — executor counts, resource profiles, or
    /// edge rates beyond [`FleetDriverConfig::placement_rate_band`] — are
    /// re-solved, against the pool's residual capacity; a settled window
    /// performs zero solver calls and zero allocations. Solve order is
    /// sorted-name on every path, so the assignment stays independent of
    /// shard indices and advance order, and the drift-bounded batch
    /// re-solve inside `replan` keeps sequential repair anchored to what
    /// [`placement::plan`] would produce.
    fn plan_placements(&self, scratch: &mut FleetScratch, fleet_error: &mut Option<String>) {
        let Some(pool) = &self.machine_pool else {
            return;
        };
        // The warm state and its slot maps step out of the scratch so the
        // grant/sample lookups below can keep borrowing it immutably.
        let mut place = std::mem::take(&mut scratch.place);
        let mut place_slots = std::mem::take(&mut scratch.place_slots);
        let mut planned_slots = std::mem::take(&mut scratch.planned_slots);
        place.begin_window();
        place.sync_pool(pool);
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.dead {
                // Not marked seen: the sweep refunds its machine usage
                // (its executors are ghosts until the lease renews).
                continue;
            }
            let Some(info) = &shard.placement_info else {
                continue;
            };
            // Cached slot, re-validated by name (churn shifts indices);
            // lookup/insert only on mismatch.
            let slot = match place_slots[i] {
                Some(s) if place.slot_name(s) == shard.name => s,
                _ => place
                    .slot_of(&shard.name)
                    .unwrap_or_else(|| place.insert(&shard.name)),
            };
            place_slots[i] = Some(slot);
            let target: &[u32] = match scratch.grant(&self.negotiator, i) {
                Some(grant) => &grant.allocation,
                None => &scratch.current_allocs[i],
            };
            let sample = &scratch.samples[i];
            if !info.request_matches(
                place.request(slot),
                target,
                sample,
                self.config.placement_rate_band,
            ) {
                info.request_into(place.touch(slot), target, sample);
            }
            place.mark_seen(slot);
            planned_slots[i] = Some(slot);
        }
        if let Err(e) = place.replan() {
            // No assignment is trusted this window; the warm state batch
            // re-solves on the next one.
            for s in planned_slots.iter_mut() {
                *s = None;
            }
            if fleet_error.is_none() {
                *fleet_error = Some(format!("placement: {e}"));
            }
        }
        scratch.place = place;
        scratch.place_slots = place_slots;
        scratch.planned_slots = planned_slots;
    }
}

impl<B: CspBackend + Clone> FleetDriver<B> {
    /// Snapshots the full fleet state (see [`FleetCheckpoint`]). Cheap
    /// relative to re-running a scenario prefix: per-shard state and the
    /// backends clone, but the negotiator's warm state is shared
    /// copy-on-write — the checkpoint holds the same `Arc`, and whichever
    /// driver negotiates next pays the one lazy clone. A branching sweep
    /// that restores many times from one checkpoint clones the warm state
    /// once per *diverging* branch, not once per restore.
    pub fn checkpoint(&self) -> FleetCheckpoint<B> {
        FleetCheckpoint {
            driver: self.clone(),
        }
    }

    /// Restores a driver from a checkpoint without consuming it, so one
    /// common prefix can branch into many scenario continuations.
    /// Continuing from the restored driver is bit-identical to continuing
    /// from the original at the moment [`FleetDriver::checkpoint`] ran.
    pub fn from_checkpoint(checkpoint: &FleetCheckpoint<B>) -> Self {
        checkpoint.driver.clone()
    }
}

/// The M/M/k-consistent "measured" sojourn a mock shard backend should
/// report for its current rates and allocation — an unstable queue
/// measures "very slow" (5 s), never infinite. Mock backends feeding the
/// per-shard decision gate must use this (rather than a constant) or the
/// gate sees a world no live engine produces: a permanently violated
/// target freezes every scale-down behind the "never shrink a struggling
/// shard" rule. Test support, not part of the public API surface.
#[doc(hidden)]
pub fn mmk_measured_sojourn(rate: f64, mu: f64, servers: u32) -> f64 {
    let predicted = drs_queueing::erlang::MmKQueue::new(rate, mu)
        .map(|q| q.expected_sojourn(servers))
        .unwrap_or(f64::INFINITY);
    if predicted.is_finite() {
        predicted
    } else {
        5.0
    }
}

/// One shard's single-topology schedule: its Program 6 answer for `t_max`,
/// falling back to spending the whole budget (Algorithm 1) when the target
/// cannot be met within it.
fn shard_demand(
    model: &PerformanceModel,
    t_max: f64,
    k_max: u32,
) -> Result<Vec<u32>, ScheduleError> {
    match scheduler::min_processors_for_target(model.network(), t_max, k_max) {
        Ok(a) => Ok(a.into_vec()),
        Err(ScheduleError::CapExceeded { .. } | ScheduleError::TargetUnreachable { .. }) => {
            scheduler::assign_processors(model.network(), k_max).map(|a| a.into_vec())
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{AppliedRebalance, BackendError, CspBackend, OperatorSample, WindowSample};

    /// Fixed-rate mock shard; rate can be changed mid-run. Reports the
    /// M/M/k-consistent measured sojourn via [`mmk_measured_sojourn`] so
    /// the decision gate sees the same world a live engine would. Can be
    /// silenced (crash: reports stop) and can time out applies (lost
    /// command/ack); records every epoch it is commanded with.
    #[derive(Debug, Clone)]
    struct StaticShard {
        rate: f64,
        mu: f64,
        allocation: Vec<u32>,
        fail_applies: usize,
        timeout_applies: usize,
        silent: bool,
        seen_epochs: Vec<u64>,
        placement_calls: usize,
    }

    impl StaticShard {
        fn new(rate: f64, mu: f64, k: u32) -> Self {
            StaticShard {
                rate,
                mu,
                allocation: vec![k],
                fail_applies: 0,
                timeout_applies: 0,
                silent: false,
                seen_epochs: Vec::new(),
                placement_calls: 0,
            }
        }
    }

    impl CspBackend for StaticShard {
        fn backend_name(&self) -> &'static str {
            "static"
        }
        fn operator_names(&self) -> Vec<String> {
            vec!["work".to_owned()]
        }
        fn current_allocation(&self) -> Vec<u32> {
            self.allocation.clone()
        }
        fn advance(&mut self, _window_secs: f64) -> WindowSample {
            if self.silent {
                return WindowSample {
                    external_rate: None,
                    operators: vec![OperatorSample {
                        arrival_rate: None,
                        service_rate: None,
                    }],
                    mean_sojourn: None,
                    std_sojourn: None,
                    completed: 0,
                };
            }
            let measured = mmk_measured_sojourn(self.rate, self.mu, self.allocation[0]);
            WindowSample {
                external_rate: Some(self.rate),
                operators: vec![OperatorSample {
                    arrival_rate: Some(self.rate),
                    service_rate: Some(self.mu),
                }],
                mean_sojourn: Some(measured),
                std_sojourn: None,
                completed: 100,
            }
        }
        fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
            self.seen_epochs.push(plan.epoch);
            if self.timeout_applies > 0 {
                self.timeout_applies -= 1;
                return Err(BackendError::Timeout("command lost".to_owned()));
            }
            if self.fail_applies > 0 {
                self.fail_applies -= 1;
                return Err(BackendError::RebalanceUnavailable(
                    "pause in progress".to_owned(),
                ));
            }
            self.allocation = plan.allocation.clone();
            Ok(AppliedRebalance {
                allocation: plan.allocation.clone(),
                pause_secs: plan.pause_secs,
            })
        }
        fn apply_placement(&mut self, _placement: &Placement) -> Result<(), BackendError> {
            self.placement_calls += 1;
            Ok(())
        }
    }

    fn net(lambda: f64, mu: f64) -> JacksonNetwork {
        JacksonNetwork::from_rates(lambda, &[(lambda, mu)]).unwrap()
    }

    fn demand(lambda: f64, mu: f64, desired: Vec<u32>) -> ShardDemand {
        ShardDemand {
            network: net(lambda, mu),
            desired,
        }
    }

    /// Negotiates `demands` within `budget` on both entry points — warm on
    /// a fresh negotiator and from scratch — asserts they agree, and
    /// returns the result.
    fn negotiate(budget: u32, demands: &[ShardDemand]) -> Result<Vec<ShardGrant>, FleetError> {
        let refs: Vec<&ShardDemand> = demands.iter().collect();
        let scratch = FleetNegotiator::negotiate_scratch(budget, &refs);
        let mut negotiator = FleetNegotiator::new(budget);
        let warm = negotiator
            .negotiate(budget, demands)
            .map(|()| negotiator.grants().to_vec());
        assert_eq!(warm, scratch, "warm and from-scratch negotiation differ");
        scratch
    }

    #[test]
    fn uncontended_grants_equal_single_topology_schedules() {
        let budget = 20;
        let demands = vec![demand(40.0, 10.0, vec![6]), demand(20.0, 10.0, vec![4])];
        let grants = negotiate(budget, &demands).unwrap();
        assert_eq!(grants[0].allocation, vec![6]);
        assert_eq!(grants[1].allocation, vec![4]);
        assert!(grants.iter().all(|g| !g.capped));
    }

    #[test]
    fn contended_grants_spend_exactly_the_budget() {
        let budget = 12;
        // Desired 9 + 7 = 16 > 12; min stable 5 + 3 = 8 ≤ 12.
        let demands = vec![demand(45.0, 10.0, vec![9]), demand(25.0, 10.0, vec![7])];
        let grants = negotiate(budget, &demands).unwrap();
        let total: u64 = grants.iter().map(ShardGrant::total).sum();
        assert_eq!(total, 12);
        // Nobody below the minimum stable allocation.
        assert!(grants[0].allocation[0] >= 5);
        assert!(grants[1].allocation[0] >= 3);
        // At least one shard fell short of its desire.
        assert!(grants.iter().any(|g| g.capped));
    }

    #[test]
    fn contention_favours_the_higher_marginal_benefit() {
        let budget = 10;
        // Same service law; shard 0 carries 3x the traffic, so its marginal
        // benefits dominate and it must end up with the bigger share.
        let demands = vec![demand(60.0, 10.0, vec![10]), demand(20.0, 10.0, vec![8])];
        let grants = negotiate(budget, &demands).unwrap();
        assert!(grants[0].allocation[0] > grants[1].allocation[0]);
    }

    #[test]
    fn insufficient_budget_detected() {
        let budget = 6;
        // Min stables: 5 + 3 = 8 > 6.
        let demands = vec![demand(45.0, 10.0, vec![9]), demand(25.0, 10.0, vec![7])];
        let err = negotiate(budget, &demands).unwrap_err();
        assert_eq!(
            err,
            FleetError::InsufficientBudget {
                required: 8,
                available: 6
            }
        );
    }

    #[test]
    fn desired_below_min_stable_is_raised_in_both_branches() {
        // λ/µ = 4.5 needs 5 executors; a demand of 1 is unstable and must
        // be floored at 5 — with room to spare (uncontended path)…
        let budget = 20;
        let grants = negotiate(budget, &[demand(45.0, 10.0, vec![1])]).unwrap();
        assert_eq!(grants[0].allocation, vec![5]);
        assert!(!grants[0].capped);
        // …and under contention (second shard forces the greedy branch).
        let budget = 9;
        let demands = vec![demand(45.0, 10.0, vec![1]), demand(25.0, 10.0, vec![7])];
        let grants = negotiate(budget, &demands).unwrap();
        assert!(grants[0].allocation[0] >= 5);
        let total: u64 = grants.iter().map(ShardGrant::total).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn demand_length_mismatch_detected() {
        let budget = 10;
        let demands = vec![demand(10.0, 10.0, vec![2, 2])];
        assert!(matches!(
            negotiate(budget, &demands).unwrap_err(),
            FleetError::DemandLength { shard: 0, .. }
        ));
    }

    #[test]
    fn negotiation_is_deterministic() {
        let budget = 14;
        let demands = vec![
            demand(45.0, 10.0, vec![9]),
            demand(45.0, 10.0, vec![9]),
            demand(25.0, 10.0, vec![7]),
        ];
        let a = negotiate(budget, &demands).unwrap();
        let b = negotiate(budget, &demands).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nudged_slots_are_reseated_without_reclimbing_the_global_heaps() {
        // A contended fleet of 1,000 two-operator shards; then every
        // slot's network moves by one ulp — the α-smoothing tail, where
        // every refit changes the rates but almost never the greedy order.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |lo: f64, hi: f64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            lo + (hi - lo) * (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut demands: Vec<ShardDemand> = (0..1_000)
            .map(|_| {
                let lambda = draw(20.0, 80.0);
                let network = JacksonNetwork::from_rates(
                    lambda,
                    &[(lambda, draw(4.0, 12.0)), (lambda * 2.0, draw(15.0, 40.0))],
                )
                .unwrap();
                let desired = network
                    .min_stable_allocation()
                    .iter()
                    .map(|&k| k + 1 + (draw(0.0, 4.0) as u32))
                    .collect();
                ShardDemand { network, desired }
            })
            .collect();
        let floors: u64 = demands
            .iter()
            .map(|d| executor_total(&d.network.min_stable_allocation()))
            .sum();
        let desired: u64 = demands.iter().map(|d| executor_total(&d.desired)).sum();
        let budget = u32::try_from(floors + (desired - floors) * 3 / 5).unwrap();

        let mut warm = FleetNegotiator::new(budget);
        warm.negotiate(budget, &demands).unwrap();
        for d in &mut demands {
            let pairs: Vec<(f64, f64)> = d
                .network
                .operators()
                .iter()
                .map(|q| {
                    let lambda = f64::from_bits(q.arrival_rate().to_bits() + 1);
                    (lambda, q.service_rate())
                })
                .collect();
            d.network = JacksonNetwork::from_rates(d.network.external_rate(), &pairs).unwrap();
        }
        let reseated = warm.sum_taken;
        let moves_before = warm.fixup_moves;
        warm.negotiate(budget, &demands).unwrap();
        let refs: Vec<&ShardDemand> = demands.iter().collect();
        assert_eq!(
            warm.grants(),
            &FleetNegotiator::negotiate_scratch(budget, &refs).unwrap()[..]
        );
        let moves = warm.fixup_moves - moves_before;
        assert!(
            reseated >= 1_000,
            "the fleet must hold executors above its floors"
        );
        assert!(
            moves * 20 < reseated,
            "{moves} global take/revoke steps to re-seat {reseated} executors"
        );
    }

    fn fleet(k_max: u32, shards: Vec<(&str, f64, StaticShard)>) -> FleetDriver<StaticShard> {
        let mut config = FleetDriverConfig::new(k_max);
        config.warmup_windows = 1;
        config.window_secs = 1.0;
        FleetDriver::new(
            config,
            shards
                .into_iter()
                .map(|(name, t_max, backend)| FleetShardSpec::new(name, t_max, backend))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn sojourn_only_moves_do_not_refit() {
        // Constant rates, but the shard starts unstable: the grow moves its
        // measured sojourn, whose α-smoother then keeps moving for dozens
        // of windows while the rate streams stand still.
        let mut fleet = fleet(40, vec![("a", 0.2, StaticShard::new(40.0, 10.0, 4))]);
        fleet.run_windows(3);
        assert_ne!(fleet.backend(0).allocation, vec![4], "the shard must grow");
        for _ in 0..10 {
            let epoch = fleet.shards[0].measurer.epoch();
            fleet.step();
            assert!(
                fleet.shards[0].measurer.epoch() > epoch,
                "the sojourn stream must still be moving"
            );
            assert!(fleet.scratch.refit.is_empty(), "sojourn-only move refitted");
        }
    }

    #[test]
    fn driver_arbitrates_within_budget_and_records_timeline() {
        let mut f = fleet(
            12,
            vec![
                ("hot", 0.11, StaticShard::new(60.0, 10.0, 7)),
                ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
            ],
        );
        f.run_windows(4);
        assert_eq!(f.timeline().len(), 4);
        let last = f.timeline().last().unwrap();
        assert!(last.total_granted <= 12);
        assert!(last.contended, "0.11 s targets at these loads must contend");
        assert!(last.shards.iter().any(|s| s.capped));
        // The hot shard out-ranks the cold one under contention.
        assert!(last.shards[0].allocation[0] > last.shards[1].allocation[0]);
        // Demands are recorded once the model warms up.
        assert!(last.shards.iter().all(|s| s.demand.is_some()));
        assert_eq!(f.shard_names(), vec!["hot", "cold"]);
    }

    #[test]
    fn warmup_windows_do_not_negotiate() {
        let mut f = fleet(12, vec![("only", 0.5, StaticShard::new(30.0, 10.0, 4))]);
        f.step();
        let w = &f.timeline()[0];
        assert!(w.shards[0].demand.is_none());
        assert!(!w.shards[0].rebalanced);
        assert_eq!(w.shards[0].allocation, vec![4]);
    }

    #[test]
    fn freed_capacity_is_reoffered_when_demand_drops() {
        let mut f = fleet(
            12,
            vec![
                ("a", 0.11, StaticShard::new(60.0, 10.0, 7)),
                ("b", 0.11, StaticShard::new(30.0, 10.0, 5)),
            ],
        );
        f.run_windows(4);
        let before = f.timeline().last().unwrap().shards[1].granted();
        assert!(f.timeline().last().unwrap().contended);
        // Shard a's load collapses: its demand shrinks and the freed
        // executors flow to shard b on later windows (α-smoothing takes a
        // couple of rounds to fade the old rate out).
        f.backend_mut(0).rate = 5.0;
        f.run_windows(6);
        let last = f.timeline().last().unwrap();
        assert!(
            last.shards[1].granted() > before,
            "shard b should inherit freed capacity: {} vs {before}",
            last.shards[1].granted()
        );
        assert!(last.total_granted <= 12);
    }

    #[test]
    fn backend_refusal_is_recorded_and_retried() {
        let mut hot = StaticShard::new(60.0, 10.0, 7);
        hot.fail_applies = 1;
        let mut f = fleet(
            12,
            vec![
                ("hot", 0.11, hot),
                ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
            ],
        );
        f.run_windows(4);
        let refused = f
            .timeline()
            .iter()
            .flat_map(|w| &w.shards)
            .find(|s| s.error.is_some())
            .expect("the refused apply must be recorded");
        assert!(refused
            .error
            .as_deref()
            .unwrap()
            .contains("rebalance unavailable"));
        // A later window retries and the fleet still lands within budget.
        assert!(f.timeline().last().unwrap().total_granted <= 12);
    }

    #[test]
    fn refused_shrink_defers_grows_instead_of_overcommitting() {
        // Shard a runs 8 but now only needs ~4; shard b runs 4 and wants 9.
        // a's shrink is refused (mid-pause): applying b's grow anyway would
        // put 17 executors on a 12-processor pool. The driver must defer
        // the grow and catch up once the shrink lands.
        let mut a = StaticShard::new(15.0, 10.0, 8);
        a.fail_applies = 1;
        let mut f = fleet(
            12,
            vec![("a", 0.11, a), ("b", 0.11, StaticShard::new(60.0, 10.0, 4))],
        );
        f.run_windows(2);
        let w = f.timeline().last().unwrap();
        assert!(
            w.total_granted <= 12,
            "fleet over budget after refused shrink: {w:?}"
        );
        assert!(w.shards[0]
            .error
            .as_deref()
            .is_some_and(|e| e.contains("rebalance unavailable")));
        assert!(
            w.shards[1]
                .error
                .as_deref()
                .is_some_and(|e| e.contains("deferred")),
            "the grow must be deferred: {w:?}"
        );
        assert_eq!(w.shards[1].allocation, vec![4], "b must not grow yet");
        // Next window the shrink applies and the deferred grow catches up.
        f.run_windows(2);
        let w = f.timeline().last().unwrap();
        assert!(w.total_granted <= 12);
        assert!(w.shards[1].granted() > 4, "b grows once capacity is freed");
    }

    #[test]
    fn rebalanced_flag_tracks_actual_changes_only() {
        let mut f = fleet(
            20,
            vec![
                ("a", 0.5, StaticShard::new(40.0, 10.0, 7)),
                ("b", 0.5, StaticShard::new(20.0, 10.0, 5)),
            ],
        );
        f.run_windows(6);
        // Once converged, no shard keeps reporting rebalances.
        let last = f.timeline().last().unwrap();
        assert!(last.shards.iter().all(|s| !s.rebalanced));
        // But some earlier window did rebalance.
        assert!(f
            .timeline()
            .iter()
            .any(|w| w.shards.iter().any(|s| s.rebalanced)));
    }

    #[test]
    fn construction_errors() {
        let config = FleetDriverConfig::new(10);
        assert_eq!(
            FleetDriver::<StaticShard>::new(config, vec![]).unwrap_err(),
            FleetDriverError::NoShards
        );
        let mut bad = FleetDriverConfig::new(10);
        bad.window_secs = 0.0;
        assert_eq!(
            FleetDriver::new(
                bad,
                vec![FleetShardSpec::new(
                    "s",
                    1.0,
                    StaticShard::new(10.0, 10.0, 2)
                )]
            )
            .unwrap_err(),
            FleetDriverError::InvalidWindow(0.0)
        );
        assert!(matches!(
            FleetDriver::new(
                config,
                vec![FleetShardSpec::new(
                    "s",
                    -1.0,
                    StaticShard::new(10.0, 10.0, 2)
                )]
            )
            .unwrap_err(),
            FleetDriverError::InvalidTarget { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_interleaving_order_panics() {
        let mut f = fleet(
            12,
            vec![
                ("a", 0.5, StaticShard::new(10.0, 10.0, 2)),
                ("b", 0.5, StaticShard::new(10.0, 10.0, 2)),
            ],
        );
        f.step_with_order(&[0, 0]);
    }

    #[test]
    fn timeout_backs_off_then_retries_with_fresh_epochs() {
        // The shard needs to grow but its first two commands vanish.
        let mut shard = StaticShard::new(60.0, 10.0, 4);
        shard.timeout_applies = 2;
        let mut f = fleet(20, vec![("only", 0.11, shard)]);
        f.run_windows(10);

        let errors: Vec<String> = f
            .timeline()
            .iter()
            .filter_map(|w| w.shards[0].error.clone())
            .collect();
        let timeouts = errors
            .iter()
            .filter(|e| e.contains("unacknowledged"))
            .count();
        let deferred = errors
            .iter()
            .filter(|e| e.contains("deferred: backoff"))
            .count();
        assert_eq!(timeouts, 2, "both lost commands recorded: {errors:?}");
        assert!(
            deferred >= 1,
            "the doubled backoff must hold at least one window: {errors:?}"
        );
        // The third attempt lands and the shard converges.
        assert!(f.timeline().iter().any(|w| w.shards[0].rebalanced));
        assert!(f.backend(0).allocation[0] > 4);
        // Every command on the wire carried a fresh, strictly increasing
        // epoch — a replaying channel could never double-apply.
        let epochs = &f.backend(0).seen_epochs;
        assert_eq!(epochs.len(), 3, "two timeouts + one success: {epochs:?}");
        assert!(epochs.windows(2).all(|p| p[0] < p[1]), "{epochs:?}");
        // After the ack the backoff is fully reset.
        assert!(f.actuation_retry(0).ready(f.timeline().len() as u64));
    }

    #[test]
    fn refusal_acks_the_channel_and_resets_backoff() {
        let mut shard = StaticShard::new(60.0, 10.0, 4);
        shard.fail_applies = 1;
        let mut f = fleet(20, vec![("only", 0.11, shard)]);
        f.run_windows(6);
        // A refusal is an acknowledgement: no window is ever spent in
        // backoff, and the retry lands on the very next round.
        assert!(f.timeline().iter().all(|w| !w.shards[0]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("backoff")));
        assert!(f.timeline().iter().any(|w| w.shards[0].rebalanced));
    }

    #[test]
    fn dead_shard_budget_is_reclaimed_within_lease_windows() {
        // Contended: hot wants more than the remainder cold leaves it.
        let mut f = fleet(
            12,
            vec![
                ("hot", 0.11, StaticShard::new(60.0, 10.0, 7)),
                ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
            ],
        );
        f.run_windows(5);
        let before = f.timeline().last().unwrap();
        assert!(before.contended);
        let hot_before = before.shards[0].granted();

        // Cold's machine dies: reports stop. Within lease_windows (3) +
        // one negotiation round, the lease expires and hot inherits the
        // reclaimed budget.
        f.backend_mut(1).silent = true;
        let lease = f.config().lease_windows;
        f.run_windows(lease + 2);
        let after = f.timeline().last().unwrap();
        assert!(after.shards[1].dead, "cold's lease must expire: {after:?}");
        assert!(f.shard_dead(1));
        assert!(
            after.shards[0].granted() > hot_before,
            "hot must inherit reclaimed budget: {} vs {hot_before}",
            after.shards[0].granted()
        );
        // Live-only accounting keeps the pool within budget.
        assert!(after.total_granted <= 12);

        // The shard heals: the first report renews the lease and it
        // negotiates again; grows elsewhere defer until the fleet
        // re-converges under Kmax.
        f.backend_mut(1).silent = false;
        f.run_windows(6);
        let healed = f.timeline().last().unwrap();
        assert!(!healed.shards[1].dead);
        assert!(
            healed.total_granted <= 12,
            "over budget after heal: {healed:?}"
        );
    }

    #[test]
    fn checkpoint_restore_continue_is_bit_identical() {
        let build = || {
            fleet(
                12,
                vec![
                    ("hot", 0.11, StaticShard::new(60.0, 10.0, 7)),
                    ("cold", 0.11, StaticShard::new(30.0, 10.0, 4)),
                ],
            )
        };
        // Uninterrupted run.
        let mut straight = build();
        straight.run_windows(12);

        // Same run, checkpointed mid-way and branched twice.
        let mut prefix = build();
        prefix.run_windows(5);
        let ckpt = prefix.checkpoint();
        assert_eq!(ckpt.window(), 5);
        // The checkpoint shares the negotiator's warm state copy-on-write:
        // no deep clone until one of the branches actually negotiates.
        assert!(
            Arc::ptr_eq(&prefix.negotiator, &ckpt.driver.negotiator),
            "checkpoint must share, not clone, the negotiator"
        );
        let mut branch_a = FleetDriver::from_checkpoint(&ckpt);
        assert!(Arc::ptr_eq(&prefix.negotiator, &branch_a.negotiator));
        let mut branch_b = ckpt.into_driver();
        // The original keeps running past the checkpoint too: its lazy
        // clone at the negotiate site must not leak into the branches.
        prefix.run_windows(7);
        branch_a.run_windows(7);
        branch_b.run_windows(7);
        assert!(
            !Arc::ptr_eq(&prefix.negotiator, &branch_a.negotiator),
            "diverging branches must have unshared after negotiating"
        );

        assert_eq!(straight.timeline(), prefix.timeline());
        assert_eq!(straight.timeline(), branch_a.timeline());
        assert_eq!(straight.timeline(), branch_b.timeline());
    }

    #[test]
    fn churn_add_and_remove_shards_mid_run() {
        let mut f = fleet(
            20,
            vec![
                ("a", 0.11, StaticShard::new(40.0, 10.0, 5)),
                ("b", 0.11, StaticShard::new(30.0, 10.0, 4)),
            ],
        );
        f.run_windows(3);
        assert_eq!(f.timeline().last().unwrap().shards.len(), 2);

        // A topology joins mid-run…
        let joined = f
            .add_shard(FleetShardSpec::new(
                "c",
                0.11,
                StaticShard::new(20.0, 10.0, 3),
            ))
            .unwrap();
        assert_eq!(joined, 2);
        f.run_windows(4);
        let w = f.timeline().last().unwrap();
        assert_eq!(w.shards.len(), 3);
        assert_eq!(w.shards[2].name, "c");
        assert!(w.shards[2].demand.is_some(), "joined shard negotiates");
        assert!(w.total_granted <= 20);

        // …and another leaves. Names keep the timeline correlatable.
        let removed = f.remove_shard(0);
        assert_eq!(removed.rate, 40.0);
        f.run_windows(2);
        let w = f.timeline().last().unwrap();
        assert_eq!(w.shards.len(), 2);
        assert_eq!(
            w.shards.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["b", "c"]
        );
        assert!(w.total_granted <= 20);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn removing_the_last_shard_panics() {
        let mut f = fleet(10, vec![("only", 0.5, StaticShard::new(10.0, 10.0, 2))]);
        f.remove_shard(0);
    }

    /// The gate-aware pass: shard a's −1 wobble shrink is refused by its
    /// gate at *negotiation* time, so shard b's grow is sized to the
    /// realized pool (a keeps its 8) and actuates without a deferral. The
    /// old flow discovered a's refusal at actuation and granted b a grow
    /// that could only bounce off the over-commit guard — one wasted
    /// grant/refuse round-trip per window, forever. Churn (a third shard
    /// joining and leaving) must not reintroduce any.
    #[test]
    fn gate_aware_negotiation_avoids_wasted_round_trips_under_churn() {
        let mut f = fleet(
            13,
            vec![
                ("a", 0.2, StaticShard::new(55.0, 10.0, 8)),
                ("b", 0.2, StaticShard::new(25.0, 10.0, 3)),
            ],
        );
        f.run_windows(5);
        let w = f.timeline().last().unwrap();
        // a's shrink 8→7 saves one executor: held by its gate, visibly.
        assert!(w.shards[0].gated, "a's wobble shrink must be held: {w:?}");
        assert_eq!(w.shards[0].allocation, vec![8]);
        // b still actuated its grow out of the free budget.
        assert_eq!(w.shards[1].allocation, vec![4], "b must reach its demand");
        assert_eq!(f.wasted_grants(), 0, "no refusal discovered at actuation");

        // Churn: a third shard joins (the pool tightens, a's held surplus
        // becomes load-bearing and must flow), then leaves again.
        f.add_shard(FleetShardSpec::new(
            "c",
            0.2,
            StaticShard::new(25.0, 10.0, 3),
        ))
        .unwrap();
        f.run_windows(6);
        assert!(f.timeline().last().unwrap().total_granted <= 13);
        f.remove_shard(2);
        f.run_windows(4);
        let w = f.timeline().last().unwrap();
        assert!(w.total_granted <= 13);
        assert_eq!(
            f.wasted_grants(),
            0,
            "churn must not reintroduce wasted grant/refuse round-trips"
        );
        assert!(
            f.timeline()
                .iter()
                .all(|w| w.shards.iter().all(|s| s.error.is_none())),
            "no deferrals anywhere: {:?}",
            f.timeline()
                .iter()
                .flat_map(|w| &w.shards)
                .filter_map(|s| s.error.clone())
                .collect::<Vec<_>>()
        );
    }

    /// The revert arm of the gate-aware pass: holding a's refused shrink
    /// would starve b below its minimum stable allocation, so the wobble
    /// is load-bearing — a's shrink is promoted past the gate and b's grow
    /// follows in the same window. The old flow livelocked here: a gated
    /// every window, b deferred every window.
    #[test]
    fn load_bearing_wobble_is_promoted_instead_of_stranded() {
        let mut f = fleet(
            12,
            vec![
                ("a", 0.2, StaticShard::new(55.0, 10.0, 8)),
                ("b", 0.2, StaticShard::new(42.0, 10.0, 4)),
            ],
        );
        f.run_windows(6);
        let w = f.timeline().last().unwrap();
        assert_eq!(w.shards[0].allocation, vec![7], "a's shrink must land");
        assert_eq!(w.shards[1].allocation, vec![5], "b's grow must land");
        assert_eq!(f.wasted_grants(), 0);
        assert!(
            f.timeline().iter().all(|w| w.shards.iter().all(|s| !s
                .error
                .as_deref()
                .unwrap_or("")
                .contains("deferred"))),
            "nothing may bounce off the over-commit guard: {:?}",
            f.timeline().last()
        );
    }

    /// End-to-end machine placement in the fleet: with a shared pool
    /// installed, every live shard with metadata gets a machine assignment
    /// (via `apply_placement` when its executor counts are unchanged),
    /// the assignment matches the running allocation, and the combined
    /// usage respects every machine's capacity vector.
    #[test]
    fn machine_pool_threads_placement_end_to_end() {
        let pool = PlacementPool::uniform(2, ResourceProfile::uniform(16.0)).unwrap();
        let profile = ResourceProfile::uniform(2.0);
        let info = ShardPlacementInfo {
            profiles: vec![profile],
            edges: vec![],
        };
        // Both shards already run their demanded allocation: no rebalance
        // ever fires, so the assignment must travel via `apply_placement`.
        let mut config = FleetDriverConfig::new(20);
        config.warmup_windows = 1;
        config.window_secs = 1.0;
        let mut f = FleetDriver::new(
            config,
            vec![
                FleetShardSpec::new("a", 0.2, StaticShard::new(40.0, 10.0, 5))
                    .with_placement(info.clone()),
                FleetShardSpec::new("b", 0.2, StaticShard::new(25.0, 10.0, 4))
                    .with_placement(info.clone()),
            ],
        )
        .unwrap();
        f.set_machine_pool(pool);
        f.run_windows(4);

        let mut usage = vec![ResourceProfile::uniform(0.0); 2];
        for i in 0..2 {
            let p = f.shard_placement(i).expect("placement in force");
            assert_eq!(p.allocation(), f.backend(i).allocation, "shard {i}");
            for (m, u) in p.usage(&info.profiles).iter().enumerate() {
                usage[m].cpu += u.cpu;
                usage[m].mem += u.mem;
                usage[m].net += u.net;
            }
            assert!(
                f.backend(i).placement_calls >= 1,
                "assignment must go through apply_placement"
            );
        }
        for u in &usage {
            assert!(u.cpu <= 16.0 && u.mem <= 16.0 && u.net <= 16.0, "{u}");
        }
        // In-force assignments are stable: re-solving an unchanged fleet
        // must not keep issuing placement commands.
        let calls: Vec<usize> = (0..2).map(|i| f.backend(i).placement_calls).collect();
        f.run_windows(3);
        assert_eq!(
            calls,
            (0..2)
                .map(|i| f.backend(i).placement_calls)
                .collect::<Vec<_>>(),
            "converged fleet must not re-issue identical assignments"
        );
    }

    /// Regression: a settled placement-enabled fleet performs *zero*
    /// per-shard solver calls per window — the warm state sees every
    /// request unchanged and replans nothing.
    #[test]
    fn unchanged_fleet_performs_zero_placement_solver_calls() {
        let pool = PlacementPool::uniform(2, ResourceProfile::uniform(16.0)).unwrap();
        let info = ShardPlacementInfo {
            profiles: vec![ResourceProfile::uniform(2.0)],
            edges: vec![],
        };
        let mut config = FleetDriverConfig::new(20);
        config.warmup_windows = 1;
        config.window_secs = 1.0;
        let mut f = FleetDriver::new(
            config,
            vec![
                FleetShardSpec::new("a", 0.2, StaticShard::new(40.0, 10.0, 5))
                    .with_placement(info.clone()),
                FleetShardSpec::new("b", 0.2, StaticShard::new(25.0, 10.0, 4)).with_placement(info),
            ],
        )
        .unwrap();
        f.set_machine_pool(pool);
        f.run_windows(6);
        let solver_calls = f.placement_solver_calls();
        let full_solves = f.placement_full_solves();
        assert!(full_solves >= 1, "the first window batch-solves");
        f.run_windows(10);
        assert_eq!(
            f.placement_solver_calls(),
            solver_calls,
            "settled windows must not touch the placement solver"
        );
        assert_eq!(f.placement_full_solves(), full_solves);
        // An explicit invalidation forces exactly one batch re-solve.
        f.invalidate_placement_cache();
        f.run_windows(1);
        assert_eq!(f.placement_full_solves(), full_solves + 1);
    }

    /// The placement rate band: edge-rate wobble inside
    /// [`FleetDriverConfig::placement_rate_band`] must not dirty a shard
    /// (no solver call), while a shift beyond the band must.
    #[test]
    fn placement_rate_band_absorbs_wobble_but_tracks_real_shifts() {
        let pool = PlacementPool::uniform(2, ResourceProfile::uniform(16.0)).unwrap();
        let info = ShardPlacementInfo {
            profiles: vec![ResourceProfile::uniform(2.0)],
            // A self-loop edge whose rate is the operator's measured
            // arrival rate — the only input that wobbles below.
            edges: vec![(0, 0, 1.0)],
        };
        let mut config = FleetDriverConfig::new(20);
        config.warmup_windows = 1;
        config.window_secs = 1.0;
        // Generous latency target: rate wobble in (40, 49] keeps the
        // demanded allocation at the minimum stable 5, so only the edge
        // rate moves.
        let mut f = FleetDriver::new(
            config,
            vec![
                FleetShardSpec::new("a", 0.5, StaticShard::new(40.0, 10.0, 5)).with_placement(info),
            ],
        )
        .unwrap();
        f.set_machine_pool(pool);
        f.run_windows(6);
        let settled = f.placement_solver_calls();

        // +2.5% wobble: inside the 5% band, absorbed.
        f.backend_mut(0).rate = 41.0;
        f.run_windows(3);
        assert_eq!(
            f.placement_solver_calls(),
            settled,
            "in-band rate wobble must not re-solve placement"
        );

        // +20%: outside the band, the shard goes dirty and re-solves.
        f.backend_mut(0).rate = 48.0;
        f.run_windows(3);
        assert!(
            f.placement_solver_calls() > settled,
            "an out-of-band rate shift must reach the solver"
        );
    }
}
