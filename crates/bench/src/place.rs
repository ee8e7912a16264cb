//! `repro place`: machine-granular placement on a contended pool.
//!
//! The same mixed VLD+FPD fleet as `repro fleet` — two VLD and two FPD
//! shards negotiating one processor budget — now shares an 8-machine pool
//! whose per-machine capacity holds only a slice of any one shard. Two
//! runs with identical seeds and identical executor allocations compare
//! placement policies end to end:
//!
//! * **solver** — the fleet driver plans one pool-wide
//!   [`drs_core::placement::plan`] per window (greedy-by-resource-distance
//!   with the exhaustive oracle on small instances), actuated through
//!   `CspBackend::apply_placement` so each shard simulator draws its
//!   machine-crossing edges from the solved executor split;
//! * **round_robin** — the capacity-oblivious baseline: every operator's
//!   executors are dealt across the machines in index order, the way a
//!   placement-unaware scheduler would.
//!
//! Every tuple that crosses a machine boundary is charged the configured
//! network delay, so the policies separate on two measurements: the
//! cross-machine tuple fraction and the end-to-end sojourn. Both runs are
//! deterministic (virtual clocks, seeded RNGs), and the solver's summary
//! feeds the `placement` section of `BENCH_PERF.json` so `repro perfdiff`
//! gates the cut across PRs.

use crate::fleet::{FPD_T_MAX, VLD_T_MAX};
use crate::report::render_table;
use drs_apps::{FpdProfile, VldProfile};
use drs_core::driver::CspBackend;
use drs_core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec, ShardPlacementInfo};
use drs_core::placement::{self, MachinePool, OperatorLoad, PlacementRequest};
use drs_sim::{SimDuration, Simulator};
use drs_topology::ResourceProfile;

/// The `repro place` run shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaceBenchConfig {
    /// Machines in the shared pool.
    pub machines: usize,
    /// Uniform per-machine capacity (in executor-units on every resource
    /// axis; one executor of any operator costs 1.0). Deliberately far
    /// below any shard's executor count, so no shard fits on one machine
    /// and the solver has to split under contention.
    pub machine_capacity: f64,
    /// Fleet measurement windows to run.
    pub windows: u64,
    /// Window length in (virtual) seconds.
    pub window_secs: f64,
    /// The global processor budget shared by the four topologies.
    pub k_max: u32,
    /// Base RNG seed (each shard offsets it).
    pub seed: u64,
    /// Network delay charged to every tuple crossing machines, in
    /// milliseconds.
    pub cross_delay_ms: f64,
}

impl Default for PlaceBenchConfig {
    fn default() -> Self {
        PlaceBenchConfig {
            machines: 8,
            machine_capacity: 12.0,
            windows: 10,
            window_secs: 30.0,
            k_max: 64,
            seed: 2015,
            cross_delay_ms: 5.0,
        }
    }
}

impl PlaceBenchConfig {
    /// The CI smoke variant: short windows, few of them. Also the shape
    /// `repro perf` embeds in `BENCH_PERF.json` — deliberately independent
    /// of `--quick`, so the committed baseline and the CI smoke run
    /// measure the same deterministic scenario.
    pub fn smoke(seed: u64) -> Self {
        PlaceBenchConfig {
            windows: 6,
            window_secs: 10.0,
            seed,
            ..Default::default()
        }
    }
}

/// One policy's end-to-end measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacePolicyRun {
    /// Tuples that crossed a machine boundary, summed over the shards.
    pub cross_tuples: u64,
    /// Tuples sent over any edge, summed over the shards.
    pub edge_tuples: u64,
    /// Completion-weighted mean end-to-end sojourn across the fleet (ms).
    pub mean_sojourn_ms: f64,
    /// Tuple trees completed, summed over the shards.
    pub completed: u64,
    /// Per-shard cross-machine fraction, shard index order.
    pub shard_cross: Vec<f64>,
    /// Final model-operator allocation of each shard, shard index order.
    pub final_allocations: Vec<Vec<u32>>,
}

impl PlacePolicyRun {
    /// Fleet-wide fraction of edge tuples that crossed machines.
    pub fn cross_fraction(&self) -> f64 {
        if self.edge_tuples == 0 {
            0.0
        } else {
            self.cross_tuples as f64 / self.edge_tuples as f64
        }
    }
}

/// A finished placement comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceRun {
    /// Shard names, in shard index order.
    pub names: Vec<String>,
    /// The solver run.
    pub solver: PlacePolicyRun,
    /// The round-robin baseline.
    pub round_robin: PlacePolicyRun,
    /// Highest per-machine load (any resource axis) under the solver's
    /// final fleet-wide placement.
    pub peak_machine_load: f64,
    /// The pool's uniform per-machine capacity, for reference.
    pub machine_capacity: f64,
}

impl PlaceRun {
    /// Relative cut of the cross-machine fraction: `1 − solver/baseline`.
    pub fn cross_cut(&self) -> f64 {
        let baseline = self.round_robin.cross_fraction();
        if baseline <= 0.0 {
            0.0
        } else {
            1.0 - self.solver.cross_fraction() / baseline
        }
    }
}

/// Per-executor cost and tuple flow of the VLD model operators (sift →
/// matcher → aggregator): every executor costs one unit on every axis, and
/// each edge carries the upstream operator's measured arrival rate scaled
/// by the paper topology's gain — 30 features per frame on the dominant
/// sift→matcher edge, 5% selectivity into the aggregator.
fn vld_placement_info(profile: &VldProfile) -> ShardPlacementInfo {
    ShardPlacementInfo {
        profiles: vec![ResourceProfile::uniform(1.0); 3],
        edges: vec![
            (0, 1, profile.features_per_frame),
            (1, 2, profile.match_selectivity),
        ],
    }
}

/// Per-executor cost and tuple flow of the FPD model operators (generator
/// → detector → reporter, with the detector's notify self-loop): the
/// generator fans 8 candidates per window event into the detector, which
/// is where the placement traffic lives.
fn fpd_placement_info(profile: &FpdProfile) -> ShardPlacementInfo {
    ShardPlacementInfo {
        profiles: vec![ResourceProfile::uniform(1.0); 3],
        edges: vec![
            (0, 1, profile.candidates_per_event),
            (1, 1, profile.notify_probability),
            (1, 2, profile.report_probability),
        ],
    }
}

/// Builds the four-topology fleet with placement metadata and the
/// cross-machine delay installed on every shard simulator.
fn build_fleet(config: &PlaceBenchConfig) -> FleetDriver<Simulator> {
    let vld = VldProfile::paper();
    let fpd = FpdProfile::paper();
    let mut driver_config = FleetDriverConfig::new(config.k_max);
    driver_config.window_secs = config.window_secs;
    let mut fleet = FleetDriver::new(
        driver_config,
        vec![
            FleetShardSpec::new(
                "vld-a",
                VLD_T_MAX,
                vld.build_simulation([8, 8, 1], config.seed),
            )
            .with_placement(vld_placement_info(&vld)),
            FleetShardSpec::new(
                "vld-b",
                VLD_T_MAX,
                vld.build_simulation([8, 8, 1], config.seed + 1),
            )
            .with_placement(vld_placement_info(&vld)),
            FleetShardSpec::new(
                "fpd-a",
                FPD_T_MAX,
                fpd.build_simulation([5, 12, 2], config.seed + 2),
            )
            .with_placement(fpd_placement_info(&fpd)),
            FleetShardSpec::new(
                "fpd-b",
                FPD_T_MAX,
                fpd.build_simulation([5, 12, 2], config.seed + 3),
            )
            .with_placement(fpd_placement_info(&fpd)),
        ],
    )
    .expect("valid fleet");
    let delay = SimDuration::from_secs_f64(config.cross_delay_ms / 1e3);
    for i in 0..fleet.shard_count() {
        fleet.backend_mut(i).set_cross_machine_delay(delay);
    }
    fleet
}

/// The shared pool both policies place onto.
fn pool(config: &PlaceBenchConfig) -> MachinePool {
    MachinePool::uniform(
        config.machines,
        ResourceProfile::uniform(config.machine_capacity),
    )
    .expect("valid pool")
}

/// Deals `allocation` across the pool in machine index order — the
/// capacity-oblivious baseline — and installs it on shard `i`.
fn apply_round_robin(fleet: &mut FleetDriver<Simulator>, i: usize, pool: &MachinePool) {
    let allocation = fleet.backend(i).current_allocation();
    let request = PlacementRequest {
        operators: allocation
            .iter()
            .map(|&k| OperatorLoad {
                executors: k,
                profile: ResourceProfile::uniform(1.0),
            })
            .collect(),
        edges: Vec::new(),
    };
    let placed = placement::round_robin(pool, &request).expect("round robin fits one shard");
    fleet
        .backend_mut(i)
        .apply_placement(&placed)
        .expect("placement matches the shard topology");
}

/// Runs one policy. `solver = true` installs the machine pool on the fleet
/// driver (placement planned and actuated inside the window loop);
/// `solver = false` deals every shard round-robin after each window
/// instead. Returns the measurements plus, for the solver, the final
/// fleet-wide per-machine load peak.
fn run_policy(config: &PlaceBenchConfig, solver: bool) -> (PlacePolicyRun, f64) {
    let mut fleet = build_fleet(config);
    let shared = pool(config);
    if solver {
        fleet.set_machine_pool(shared.clone());
    }
    for _ in 0..config.windows {
        fleet.step();
        if !solver {
            for i in 0..fleet.shard_count() {
                apply_round_robin(&mut fleet, i, &shared);
            }
        }
    }

    let mut run = PlacePolicyRun {
        cross_tuples: 0,
        edge_tuples: 0,
        mean_sojourn_ms: 0.0,
        completed: 0,
        shard_cross: Vec::new(),
        final_allocations: Vec::new(),
    };
    let mut sojourn_weighted = 0.0;
    for i in 0..fleet.shard_count() {
        let sim = fleet.backend(i);
        run.cross_tuples += sim.cross_machine_tuples();
        run.edge_tuples += sim.edge_tuples();
        run.shard_cross.push(sim.cross_machine_fraction());
        run.final_allocations.push(sim.current_allocation());
        let stats = sim.total_sojourn_stats();
        sojourn_weighted += stats.mean().unwrap_or(0.0) * stats.count() as f64;
        run.completed += stats.count();
    }
    if run.completed > 0 {
        run.mean_sojourn_ms = sojourn_weighted / run.completed as f64 * 1e3;
    }

    let mut peak = 0.0f64;
    if solver {
        // Fleet-wide per-machine load under the final placements: the
        // solver must never pierce a capacity vector. Every model operator
        // of both apps costs one uniform unit per executor.
        let profiles = vec![ResourceProfile::uniform(1.0); 3];
        let mut used = vec![ResourceProfile::uniform(0.0); config.machines];
        for i in 0..fleet.shard_count() {
            if let Some(p) = fleet.shard_placement(i) {
                for (m, u) in p.usage(&profiles).into_iter().enumerate() {
                    used[m].cpu += u.cpu;
                    used[m].mem += u.mem;
                    used[m].net += u.net;
                }
            }
        }
        for u in &used {
            peak = peak.max(u.cpu).max(u.mem).max(u.net);
        }
    }
    (run, peak)
}

/// Runs the full comparison: identical fleets (same seeds, same budget),
/// solver placement vs the round-robin deal.
pub fn run_place(config: &PlaceBenchConfig) -> PlaceRun {
    let names = build_fleet(config)
        .shard_names()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let (solver, peak_machine_load) = run_policy(config, true);
    let (round_robin, _) = run_policy(config, false);
    PlaceRun {
        names,
        solver,
        round_robin,
        peak_machine_load,
        machine_capacity: config.machine_capacity,
    }
}

/// Renders the comparison: per-shard crossing fractions, fleet aggregates,
/// and the capacity headroom of the solved placement.
pub fn render_place(config: &PlaceBenchConfig, run: &PlaceRun) -> String {
    let mut rows: Vec<Vec<String>> = run
        .names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            vec![
                name.clone(),
                format!("{:?}", run.solver.final_allocations[i]),
                format!("{:.3}", run.solver.shard_cross[i]),
                format!("{:.3}", run.round_robin.shard_cross[i]),
            ]
        })
        .collect();
    rows.push(vec![
        "fleet".to_owned(),
        String::new(),
        format!("{:.3}", run.solver.cross_fraction()),
        format!("{:.3}", run.round_robin.cross_fraction()),
    ]);
    let mut out = render_table(
        &format!(
            "placement — {} machines x capacity {:.0}, Kmax={}, {:.0} ms cross delay \
             ({} windows x {:.0} s)",
            config.machines,
            config.machine_capacity,
            config.k_max,
            config.cross_delay_ms,
            config.windows,
            config.window_secs,
        ),
        &["shard", "final k", "solver cross", "round-robin cross"],
        &rows,
    );
    out.push_str(&format!(
        "   cross-machine fraction: solver {:.3} vs round-robin {:.3} ({:.0}% cut)\n",
        run.solver.cross_fraction(),
        run.round_robin.cross_fraction(),
        run.cross_cut() * 100.0,
    ));
    out.push_str(&format!(
        "   mean sojourn: solver {:.1} ms vs round-robin {:.1} ms \
         ({} vs {} trees completed)\n",
        run.solver.mean_sojourn_ms,
        run.round_robin.mean_sojourn_ms,
        run.solver.completed,
        run.round_robin.completed,
    ));
    out.push_str(&format!(
        "   peak machine load {:.1} of {:.0} capacity — every vector respected\n",
        run.peak_machine_load, run.machine_capacity,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_cuts_cross_traffic_within_capacity() {
        let config = PlaceBenchConfig::smoke(2015);
        let run = run_place(&config);

        // Both policies really produced cross-machine traffic to compare.
        assert!(run.round_robin.cross_tuples > 0, "{run:?}");
        assert!(run.solver.edge_tuples > 0, "{run:?}");

        // Identical executor allocations: the placement policy must not
        // perturb what the negotiated control loop grants.
        assert_eq!(
            run.solver.final_allocations, run.round_robin.final_allocations,
            "policies diverged in executor counts"
        );

        // The acceptance bar: the solver cuts the cross-machine tuple
        // fraction by at least 30% against the round-robin deal…
        assert!(
            run.solver.cross_fraction() <= 0.7 * run.round_robin.cross_fraction(),
            "cut only {:.0}%: solver {:.3} vs round-robin {:.3}",
            run.cross_cut() * 100.0,
            run.solver.cross_fraction(),
            run.round_robin.cross_fraction(),
        );
        // …without ever piercing a machine's capacity vector.
        assert!(
            run.peak_machine_load <= run.machine_capacity + 1e-9,
            "peak load {} over capacity {}",
            run.peak_machine_load,
            run.machine_capacity,
        );
        // Fewer crossings at a 5 ms toll must show up end to end.
        assert!(
            run.solver.mean_sojourn_ms <= run.round_robin.mean_sojourn_ms,
            "solver sojourn {:.1} ms vs round-robin {:.1} ms",
            run.solver.mean_sojourn_ms,
            run.round_robin.mean_sojourn_ms,
        );

        let rendered = render_place(&config, &run);
        assert!(rendered.contains("cross-machine fraction"));
        assert!(rendered.contains("vld-a"));
    }
}
