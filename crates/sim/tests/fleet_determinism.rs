//! The simulator fleet, `FleetDriver<Simulator>`.
//!
//! * Shard-interleaving determinism: two runs of the same fleet config
//!   (same seeds) produce bit-identical per-shard timelines even when the
//!   shards are advanced in different orders within every window — the
//!   guarantee that shard virtual clocks (and RNGs) are fully isolated
//!   from each other; a fleet shard replays its standalone event stream.
//! * Arbitration and actuation reach the simulators: a contended budget is
//!   spent exactly, machine placements install their edge crossing
//!   probabilities, and injected workload drift moves capacity between
//!   shards.

use drs_core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec};
use drs_queueing::distribution::Distribution;
use drs_sim::workload::OperatorBehavior;
use drs_sim::{SimulationBuilder, Simulator};
use drs_topology::TopologyBuilder;

fn chain_sim(lambda: f64, mu: f64, k: u32, seed: u64) -> Simulator {
    let mut b = TopologyBuilder::new();
    let spout = b.spout("src");
    let bolt = b.bolt("work");
    b.edge(spout, bolt).unwrap();
    SimulationBuilder::new(b.build().unwrap())
        .behavior(
            spout,
            OperatorBehavior::Spout {
                interarrival: Distribution::exponential(lambda).unwrap(),
            },
        )
        .behavior(
            bolt,
            OperatorBehavior::Bolt {
                service: Distribution::exponential(mu).unwrap(),
            },
        )
        .allocation(vec![1, k])
        .seed(seed)
        .build()
        .unwrap()
}

/// The same three-shard fleet every time: mixed loads under a contended
/// budget, so arbitration (not just measurement) is exercised.
fn fleet() -> FleetDriver<Simulator> {
    let mut config = FleetDriverConfig::new(13);
    config.window_secs = 20.0;
    config.warmup_windows = 1;
    FleetDriver::new(
        config,
        vec![
            FleetShardSpec::new("hot", 0.12, chain_sim(45.0, 10.0, 5, 101)),
            FleetShardSpec::new("warm", 0.12, chain_sim(25.0, 10.0, 3, 202)),
            FleetShardSpec::new("cold", 0.12, chain_sim(12.0, 10.0, 2, 303)),
        ],
    )
    .unwrap()
}

const WINDOWS: usize = 10;

#[test]
fn interleaving_order_does_not_change_any_shard_timeline() {
    // Run A: shards advanced in index order every window.
    let mut a = fleet();
    for _ in 0..WINDOWS {
        a.step();
    }

    // Run B: a different permutation every window (rotations and the
    // reverse), exercising every relative order of the three shards.
    let orders: [[usize; 3]; 4] = [[2, 1, 0], [1, 2, 0], [2, 0, 1], [1, 0, 2]];
    let mut b = fleet();
    for w in 0..WINDOWS {
        b.step_with_order(&orders[w % orders.len()]);
    }

    // Bit-identical: PartialEq on the timeline compares every float the
    // shards measured and every allocation the negotiator granted.
    assert_eq!(a.timeline(), b.timeline());

    // The shard clocks themselves ended in identical states.
    for i in 0..a.shard_count() {
        assert_eq!(a.backend(i).now(), b.backend(i).now());
        assert_eq!(
            a.backend(i).total_external_arrivals(),
            b.backend(i).total_external_arrivals()
        );
        assert_eq!(
            a.backend(i).total_sojourn_stats().mean(),
            b.backend(i).total_sojourn_stats().mean()
        );
        assert_eq!(a.backend(i).allocation(), b.backend(i).allocation());
    }
}

#[test]
fn identical_runs_are_bit_identical() {
    let mut a = fleet();
    let mut b = fleet();
    a.run_windows(WINDOWS as u64);
    b.run_windows(WINDOWS as u64);
    assert_eq!(a.timeline(), b.timeline());
}

/// A fleet on 30 s windows with one warm-up window.
fn small_fleet(k_max: u32, shards: Vec<(&str, f64, Simulator)>) -> FleetDriver<Simulator> {
    let mut config = FleetDriverConfig::new(k_max);
    config.window_secs = 30.0;
    config.warmup_windows = 1;
    FleetDriver::new(
        config,
        shards
            .into_iter()
            .map(|(name, t_max, sim)| FleetShardSpec::new(name, t_max, sim))
            .collect(),
    )
    .unwrap()
}

#[test]
fn shard_clocks_are_isolated() {
    // A shard inside a fleet measures exactly what the same simulator
    // measures standing alone: the other shards' event streams never
    // touch its clock or its RNG.
    let mut fleet = small_fleet(
        32,
        vec![
            ("a", 1.0, chain_sim(50.0, 20.0, 4, 7)),
            ("b", 1.0, chain_sim(80.0, 30.0, 4, 11)),
        ],
    );
    // Advance only via the fleet, interleaving b before a.
    fleet.step_with_order(&[1, 0]);

    let mut solo = chain_sim(50.0, 20.0, 4, 7);
    solo.run_for(drs_sim::time::SimDuration::from_secs(30));
    let w = solo.take_window();

    let shard_a = fleet.backend(0);
    assert_eq!(shard_a.now(), solo.now());
    assert_eq!(
        shard_a.total_external_arrivals(),
        solo.total_external_arrivals()
    );
    assert_eq!(
        fleet.timeline()[0].shards[0].completed,
        w.sojourn.count(),
        "fleet shard must replay the standalone event stream exactly"
    );
}

#[test]
fn contended_fleet_caps_to_budget() {
    // Both shards want ~6+ executors for a 0.12 s target; the budget
    // holds 9. The fleet must spend exactly the budget and keep
    // both shards at or above their minimum stable allocation.
    let mut fleet = small_fleet(
        9,
        vec![
            ("hot", 0.12, chain_sim(45.0, 10.0, 5, 3)),
            ("cold", 0.12, chain_sim(25.0, 10.0, 3, 5)),
        ],
    );
    fleet.run_windows(6);
    let last = fleet.timeline().last().unwrap();
    assert!(last.contended, "budget 9 must contend: {last:?}");
    assert_eq!(last.total_granted, 9);
    assert!(last.shards.iter().any(|s| s.capped));
    assert!(last.shards[0].allocation[0] >= 5);
    assert!(last.shards[1].allocation[0] >= 3);
    // The allocations really are in force in the simulators.
    assert_eq!(
        fleet.backend(0).allocation()[1],
        last.shards[0].allocation[0]
    );
    assert_eq!(
        fleet.backend(1).allocation()[1],
        last.shards[1].allocation[0]
    );
}

#[test]
fn machine_placement_reaches_the_shard_simulators() {
    use drs_core::fleet::ShardPlacementInfo;
    use drs_core::placement::MachinePool as PlacementPool;
    use drs_topology::ResourceProfile;

    // One stable shard (λ=25, μ=10, k=4 meets a 0.3 s target) on a
    // 2-machine pool whose per-machine capacity only fits two of its
    // four executors: the solver must split 2/2, and the placement-only
    // actuation path must install the resulting 0.5 crossing
    // probability on the spout→bolt edge of the live simulator.
    let mut config = FleetDriverConfig::new(8);
    config.window_secs = 30.0;
    config.warmup_windows = 1;
    let spec = FleetShardSpec::new("a", 0.3, chain_sim(25.0, 10.0, 4, 9)).with_placement(
        ShardPlacementInfo {
            profiles: vec![ResourceProfile::uniform(1.0)],
            edges: vec![],
        },
    );
    let mut fleet = FleetDriver::new(config, vec![spec]).unwrap();
    fleet.set_machine_pool(PlacementPool::uniform(2, ResourceProfile::uniform(2.0)).unwrap());
    fleet.run_windows(4);

    let placement = fleet
        .shard_placement(0)
        .expect("placement must be in force");
    assert_eq!(placement.allocation(), vec![4]);
    assert_eq!(placement.counts()[0], vec![2, 2]);
    assert_eq!(fleet.backend(0).edge_cross_probabilities(), &[0.5]);
    let last = fleet.timeline().last().unwrap();
    assert!(last.shards[0].error.is_none(), "no errors: {last:?}");
}

#[test]
fn drift_injection_redistributes_capacity() {
    let mut fleet = small_fleet(
        9,
        vec![
            ("hot", 0.12, chain_sim(45.0, 10.0, 5, 3)),
            ("cold", 0.12, chain_sim(25.0, 10.0, 3, 5)),
        ],
    );
    fleet.run_windows(6);
    let before = fleet.timeline().last().unwrap().shards[1].granted();
    // The hot shard's load collapses; its freed executors must flow to
    // the cold shard over the following windows.
    let spout = fleet
        .backend(0)
        .topology()
        .operator_by_name("src")
        .unwrap()
        .id();
    fleet
        .backend_mut(0)
        .set_spout_interarrival(spout, Distribution::exponential(5.0).unwrap())
        .unwrap();
    fleet.run_windows(8);
    let last = fleet.timeline().last().unwrap();
    assert!(
        last.shards[1].granted() > before,
        "cold shard should inherit freed capacity: {} vs {before}",
        last.shards[1].granted()
    );
    assert!(last.total_granted <= 9);
}
