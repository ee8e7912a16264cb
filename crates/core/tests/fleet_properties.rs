//! Property tests for the fleet budget negotiator — for random topologies
//! and budgets, capped allocations sum to at most `Kmax`, no shard is ever
//! starved below its minimum stable allocation, and the fleet schedule
//! equals the single-topology schedules whenever total demand fits the
//! budget — plus the rebalance-churn guarantee of the per-shard decision
//! gate: measurement noise that wobbles the grants must not re-balance the
//! fleet every window.

use drs_core::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use drs_core::fleet::{
    FleetDriver, FleetDriverConfig, FleetNegotiator, FleetShardSpec, ShardDemand,
};
use drs_core::scheduler::{self, ScheduleError};
use drs_queueing::jackson::JacksonNetwork;
use proptest::collection::vec;
use proptest::prelude::*;

/// A random shard: a small open network with per-operator offered loads in
/// a stability-friendly range, plus its own Program 6 demand.
fn shard_networks(loads: &[Vec<(f64, f64)>], external: &[f64]) -> Vec<JacksonNetwork> {
    loads
        .iter()
        .zip(external)
        .map(|(ops, &lambda0)| {
            let pairs: Vec<(f64, f64)> = ops
                .iter()
                .map(|&(fan, load)| {
                    let lambda = lambda0 * fan;
                    // offered load a = λ/µ fixed by draw: µ = λ / a.
                    (lambda, lambda / load)
                })
                .collect();
            JacksonNetwork::from_rates(lambda0, &pairs).expect("positive rates")
        })
        .collect()
}

/// `net` with operator `op`'s `(arrival, service)` rates replaced by
/// `f(arrival, service)`; every other rate is carried over bit for bit.
fn with_operator_rates(
    net: &JacksonNetwork,
    op: usize,
    f: impl Fn(f64, f64) -> (f64, f64),
) -> JacksonNetwork {
    let pairs: Vec<(f64, f64)> = net
        .operators()
        .iter()
        .enumerate()
        .map(|(j, q)| {
            let rates = (q.arrival_rate(), q.service_rate());
            if j == op {
                f(rates.0, rates.1)
            } else {
                rates
            }
        })
        .collect();
    JacksonNetwork::from_rates(net.external_rate(), &pairs).expect("positive rates")
}

/// `x` moved by `ulps` units in the last place (positive `x` only).
fn nudge(x: f64, ulps: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
}

/// Each shard's own single-topology schedule for its target.
fn desired_allocations(
    networks: &[JacksonNetwork],
    slack: &[f64],
    cap: u32,
) -> Option<Vec<Vec<u32>>> {
    networks
        .iter()
        .zip(slack)
        .map(|(net, &s)| {
            let t_max = scheduler::no_queueing_bound(net) * s;
            match scheduler::min_processors_for_target(net, t_max, cap) {
                Ok(a) => Some(a.into_vec()),
                // Targets barely above the bound can blow past the cap on
                // unlucky draws; skip those cases.
                Err(ScheduleError::CapExceeded { .. }) => None,
                Err(e) => panic!("unexpected schedule error: {e}"),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fleet_grants_respect_budget_minimums_and_uncontended_parity(
        // 1–4 shards, each with 1–3 operators.
        loads in vec(vec((0.25f64..4.0, 0.3f64..5.5), 1..=3), 1..=4),
        external in vec(2.0f64..60.0, 4),
        slack in vec(1.3f64..4.0, 4),
        budget_scale in 0.3f64..1.5,
    ) {
        let n = loads.len();
        let networks = shard_networks(&loads, &external[..n]);
        let Some(desired) = desired_allocations(&networks, &slack[..n], 512) else {
            // Unreachable-within-cap draw: nothing to test.
            return Ok(());
        };

        let min_stables: Vec<Vec<u32>> =
            networks.iter().map(|net| net.min_stable_allocation()).collect();
        let total_desired: u64 = desired
            .iter()
            .flat_map(|a| a.iter().map(|&k| u64::from(k)))
            .sum();
        let total_min: u64 = min_stables
            .iter()
            .flat_map(|a| a.iter().map(|&k| u64::from(k)))
            .sum();

        // A budget anywhere between "hopeless" and "roomy".
        let k_max = ((total_desired as f64 * budget_scale) as u64)
            .min(u64::from(u32::MAX)) as u32;

        let demands: Vec<ShardDemand> = networks
            .iter()
            .zip(&desired)
            .map(|(net, d)| ShardDemand { network: net.clone(), desired: d.clone() })
            .collect();
        let refs: Vec<&ShardDemand> = demands.iter().collect();

        match FleetNegotiator::negotiate_scratch(k_max, &refs) {
            Err(e) => {
                // The only legitimate failure: even stability does not fit.
                prop_assert!(
                    total_min > u64::from(k_max),
                    "negotiation failed with {e} although stability fits \
                     (min {total_min} ≤ budget {k_max})"
                );
            }
            Ok(grants) => {
                prop_assert_eq!(grants.len(), n);

                // 1. Grants never exceed the budget.
                let total_granted: u64 = grants.iter().map(|g| g.total()).sum();
                prop_assert!(
                    total_granted <= u64::from(k_max),
                    "granted {} > budget {}",
                    total_granted,
                    k_max
                );

                // 2. No shard starved below its minimum stable allocation.
                for (i, (grant, min)) in grants.iter().zip(&min_stables).enumerate() {
                    for (op, (&got, &need)) in
                        grant.allocation.iter().zip(min.iter()).enumerate()
                    {
                        prop_assert!(
                            got >= need,
                            "shard {i} op {op} starved: granted {got} < min stable {need}"
                        );
                    }
                }

                // 3. No shard granted more than its own schedule asked
                //    for: surplus must flow to still-short shards instead.
                for (i, (grant, want)) in grants.iter().zip(&desired).enumerate() {
                    let want_total: u64 = want.iter().map(|&k| u64::from(k)).sum();
                    prop_assert!(
                        grant.total() <= want_total,
                        "shard {} over-granted: {} > desired {}",
                        i,
                        grant.total(),
                        want_total
                    );
                }

                // 4. When total demand fits, the fleet schedule IS the
                //    single-topology schedules, uncapped.
                if total_desired <= u64::from(k_max) {
                    for (i, (grant, want)) in grants.iter().zip(&desired).enumerate() {
                        prop_assert_eq!(
                            &grant.allocation, want,
                            "shard {} diverged from its solo schedule", i
                        );
                        prop_assert!(!grant.capped);
                    }
                } else {
                    // 5. Contended: the whole budget is put to work (no
                    //    processor idles while shards are starved), and at
                    //    least one shard is marked capped.
                    prop_assert_eq!(total_granted, u64::from(k_max));
                    prop_assert!(grants.iter().any(|g| g.capped));
                }
            }
        }
    }
}

/// A shard whose measured arrival rate wobbles a few percent around its
/// nominal value (deterministic xorshift jitter), reporting the
/// M/M/k-consistent sojourn for whatever it currently runs — the classic
/// "healthy but noisy" fleet member whose grant drifts ±1 executor from
/// window to window.
#[derive(Debug)]
struct NoisyShard {
    nominal_rate: f64,
    mu: f64,
    allocation: Vec<u32>,
    rng: u64,
}

impl NoisyShard {
    fn new(nominal_rate: f64, mu: f64, k: u32, seed: u64) -> Self {
        NoisyShard {
            nominal_rate,
            mu,
            allocation: vec![k],
            rng: seed | 1,
        }
    }

    fn jitter(&mut self) -> f64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        // ±15% multiplicative noise — enough for the smoothed rate to
        // keep crossing Program 6 demand boundaries.
        1.0 + ((self.rng % 1_000) as f64 / 1_000.0 - 0.5) * 0.3
    }
}

impl CspBackend for NoisyShard {
    fn backend_name(&self) -> &'static str {
        "noisy"
    }
    fn operator_names(&self) -> Vec<String> {
        vec!["work".to_owned()]
    }
    fn current_allocation(&self) -> Vec<u32> {
        self.allocation.clone()
    }
    fn advance(&mut self, _window_secs: f64) -> WindowSample {
        let rate = self.nominal_rate * self.jitter();
        WindowSample {
            external_rate: Some(rate),
            operators: vec![OperatorSample {
                arrival_rate: Some(rate),
                service_rate: Some(self.mu),
            }],
            mean_sojourn: Some(drs_core::fleet::mmk_measured_sojourn(
                rate,
                self.mu,
                self.allocation[0],
            )),
            std_sojourn: None,
            completed: 100,
        }
    }
    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        self.allocation = plan.allocation.clone();
        Ok(AppliedRebalance {
            allocation: plan.allocation.clone(),
            pause_secs: plan.pause_secs,
        })
    }
}

#[test]
fn decision_gate_damps_noise_driven_rebalance_churn() {
    // Three healthy shards with ±15% rate noise and loose targets: their
    // Program 6 demands wobble ±1 executor across windows, but the
    // cost/benefit gate must keep the fleet from re-balancing on every
    // wobble. Without the gate every demand change was actuated verbatim
    // (the pre-gate driver re-balanced whenever the grant differed).
    const WINDOWS: u64 = 30;
    const SETTLE: usize = 8;
    let mut config = FleetDriverConfig::new(40);
    config.warmup_windows = 1;
    config.window_secs = 1.0;
    let mut fleet = FleetDriver::new(
        config,
        vec![
            FleetShardSpec::new("a", 0.2, NoisyShard::new(40.0, 10.0, 6, 11)),
            FleetShardSpec::new("b", 0.2, NoisyShard::new(25.0, 10.0, 4, 23)),
            FleetShardSpec::new("c", 0.2, NoisyShard::new(55.0, 10.0, 8, 47)),
        ],
    )
    .unwrap();
    fleet.run_windows(WINDOWS);
    let timeline = fleet.timeline();
    assert_eq!(timeline.len() as u64, WINDOWS);

    let settled = &timeline[SETTLE..];
    // The noise is real: demands keep moving after settling...
    let demand_changes = settled
        .windows(2)
        .filter(|pair| {
            pair[0].shards.iter().map(|s| s.demand).collect::<Vec<_>>()
                != pair[1].shards.iter().map(|s| s.demand).collect::<Vec<_>>()
        })
        .count();
    assert!(
        demand_changes > settled.len() / 3,
        "the workload must actually wobble for this test to mean anything \
         ({demand_changes} demand changes in {} windows)",
        settled.len()
    );
    // ...and the gate visibly absorbs grant wobble...
    let gated_windows = settled
        .iter()
        .filter(|w| w.shards.iter().any(|s| s.gated))
        .count();
    assert!(
        gated_windows > 0,
        "some wobble must reach the gate and be kept"
    );
    // ...so actuated rebalances stay rare: once settled, well under one
    // shard-rebalance per window on average (the pre-gate driver paid one
    // per demand change per shard).
    let churn: usize = settled
        .iter()
        .map(|w| w.shards.iter().filter(|s| s.rebalanced).count())
        .sum();
    assert!(
        churn <= settled.len() / 4,
        "gate failed to damp churn: {churn} shard-rebalances in {} settled windows",
        settled.len()
    );
    // The fleet never exceeds its budget while damping.
    assert!(timeline.iter().all(|w| w.total_granted <= 40));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The warm-start incremental negotiator is *observationally identical*
    /// to from-scratch negotiation: across any sequence of demand drifts,
    /// desired-allocation wobbles, shard churn (add/remove), budget swings,
    /// and even invalid demands, every window's `Result` — grants
    /// bit-for-bit, `capped` flags, and error variants included — equals
    /// what a fresh negotiator produces for the same inputs. Two kinds
    /// target the warm re-seat of a changed slot: a few-ulp nudge of one
    /// operator's rates (the tail of α-smoothing, where every refit moves
    /// the rates but almost never the greedy order), and a large move of
    /// one operator's arrival rate under a fixed `desired` (a capped
    /// shard's best operator mix flips, so the re-seated walk must be
    /// walked back through the global heaps).
    #[test]
    fn incremental_negotiation_matches_from_scratch(
        loads in vec(vec((0.25f64..4.0, 0.3f64..5.5), 1..=3), 1..=4),
        external in vec(2.0f64..60.0, 4),
        slack in vec(1.3f64..4.0, 4),
        // Per-window mutation script, drawn up front (no flat_map in the
        // vendored proptest): (kind, selector, rate scale, budget scale).
        steps in vec((0u8..7, 0usize..8, 0.7f64..1.4, 0.25f64..1.3), 1..=12),
    ) {
        let n = loads.len();
        let mut networks = shard_networks(&loads, &external[..n]);
        let Some(mut desired) = desired_allocations(&networks, &slack[..n], 512) else {
            return Ok(());
        };
        let mut loads = loads;
        let mut external = external[..n].to_vec();

        // One warm negotiator carried across every window of the script.
        let mut warm = FleetNegotiator::new(0);

        let check = |warm: &mut FleetNegotiator,
                         budget: u32,
                         demands: &[ShardDemand],
                         window: usize|
         -> Result<(), TestCaseError> {
            let refs: Vec<&ShardDemand> = demands.iter().collect();
            let scratch = FleetNegotiator::negotiate_scratch(budget, &refs);
            let incremental = warm
                .negotiate(budget, demands)
                .map(|()| warm.grants().to_vec());
            prop_assert_eq!(
                incremental,
                scratch,
                "window {} diverged from from-scratch negotiation",
                window
            );
            Ok(())
        };

        for (window, &(kind, sel, rate_scale, budget_scale)) in steps.iter().enumerate() {
            let n = networks.len();
            match kind {
                // Demand drift: one shard's arrival rates move, offered
                // loads (and thus minimum stable allocations) held fixed.
                0 => {
                    let i = sel % n;
                    external[i] *= rate_scale;
                    networks[i] =
                        shard_networks(&loads[i..=i], &external[i..=i]).pop().unwrap();
                }
                // Desired wobble: one operator's schedule target steps by
                // ±1 (possibly below minimum stable — the floor must win
                // identically on both paths).
                1 => {
                    let i = sel % n;
                    let op = sel % desired[i].len();
                    desired[i][op] = if rate_scale > 1.0 {
                        desired[i][op].saturating_add(1)
                    } else {
                        desired[i][op].saturating_sub(1)
                    };
                }
                // Shard leaves the fleet.
                2 if n > 1 => {
                    let i = sel % n;
                    loads.remove(i);
                    external.remove(i);
                    networks.remove(i);
                    desired.remove(i);
                }
                // Shard joins the fleet (cloned from an existing one with
                // a scaled arrival rate).
                3 if n < 6 => {
                    let j = sel % n;
                    let lam = external[j] * rate_scale;
                    loads.push(loads[j].clone());
                    external.push(lam);
                    let added =
                        shard_networks(&loads[loads.len() - 1..], &[lam]).pop().unwrap();
                    networks.push(added);
                    desired.push(desired[j].clone());
                }
                // Ulp nudge: one operator's rates move by a few units in
                // the last place; `desired` is unchanged.
                5 => {
                    let i = sel % n;
                    let op = sel % networks[i].len();
                    let ulps = 1 + (sel as i64 % 4);
                    let ulps = if rate_scale > 1.0 { ulps } else { -ulps };
                    networks[i] = with_operator_rates(&networks[i], op, |lambda, mu| {
                        (nudge(lambda, ulps), nudge(mu, -ulps))
                    });
                }
                // Mix flip: one operator's arrival rate moves a long way
                // while `desired` stays fixed.
                6 => {
                    let i = sel % n;
                    let op = sel % networks[i].len();
                    let factor = if rate_scale > 1.0 {
                        rate_scale * 3.0
                    } else {
                        rate_scale / 3.0
                    };
                    networks[i] =
                        with_operator_rates(&networks[i], op, |lambda, mu| (lambda * factor, mu));
                }
                _ => {} // pure budget move: demands unchanged this window
            }

            let demands: Vec<ShardDemand> = networks
                .iter()
                .zip(&desired)
                .map(|(net, d)| ShardDemand { network: net.clone(), desired: d.clone() })
                .collect();
            let total_desired: u64 = desired
                .iter()
                .flat_map(|a| a.iter().map(|&k| u64::from(k)))
                .sum();
            let budget = ((total_desired as f64 * budget_scale) as u64)
                .min(u64::from(u32::MAX)) as u32;

            // Corruption window: a desired vector that does not match its
            // network must produce the identical error without poisoning
            // the warm state for later windows.
            if kind == 4 {
                let mut bad = demands.clone();
                let i = sel % bad.len();
                bad[i].desired.push(1);
                check(&mut warm, budget, &bad, window)?;
            }

            check(&mut warm, budget, &demands, window)?;
            // Zero-churn repeat: the pure steady-state path (no demand
            // diff at all) must reproduce the same grants.
            check(&mut warm, budget, &demands, window)?;
        }
    }
}
