//! `repro fleet --faults <scenario>`: the four-topology fleet under a
//! degraded control plane.
//!
//! Each named scenario wraps the [`crate::fleet`] fleet's shards in
//! [`drs_sim::FaultyShard`]s — seeded, deterministic control channels
//! injecting loss, delay, duplication, partitions, churn or crashes —
//! and runs the hardened `drs_core::fleet` loop against them. The
//! rendered timeline shows, window by window, every injected fault next
//! to the control-plane reaction it provoked (timeouts, backoff
//! deferrals, stale-epoch rejections, dead-shard budget reclaim).

use crate::fleet::{FleetBenchConfig, FPD_T_MAX, VLD_T_MAX};
use crate::report::{fmt_allocation, render_table};
use drs_apps::{FpdProfile, VldProfile};
use drs_core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec, FleetWindow, ShardPoint};
use drs_sim::{
    ControlChannel, FaultEvent, FaultyShard, LinkFaults, Partition, Simulator, WindowJitter,
};

/// A named control-plane fault scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// The CI variant: moderate loss both ways over the short smoke run.
    Smoke,
    /// Heavy message loss: ≥25% of reports and actuations dropped, plus
    /// lost acks and duplicated commands.
    Lossy,
    /// High latency: reports trail by 1–2 windows, commands by 0–1, with
    /// duplicates — reordering without loss.
    Laggy,
    /// One shard fully partitioned for the middle third of the run, then
    /// healed.
    Partition,
    /// Shard churn: a new shard joins a third of the way in; another
    /// leaves gracefully at two thirds.
    Churn,
    /// Machine failures: two shards crash silently mid-run and never
    /// come back — the lease must reclaim their budget.
    CrashStorm,
}

impl FaultScenario {
    /// Every scenario, in display order.
    pub const ALL: [FaultScenario; 6] = [
        FaultScenario::Smoke,
        FaultScenario::Lossy,
        FaultScenario::Laggy,
        FaultScenario::Partition,
        FaultScenario::Churn,
        FaultScenario::CrashStorm,
    ];

    /// Parses a CLI scenario name.
    pub fn parse(name: &str) -> Option<Self> {
        FaultScenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            FaultScenario::Smoke => "smoke",
            FaultScenario::Lossy => "lossy",
            FaultScenario::Laggy => "laggy",
            FaultScenario::Partition => "partition",
            FaultScenario::Churn => "churn",
            FaultScenario::CrashStorm => "crash-storm",
        }
    }

    /// One-line description for the rendered header.
    pub fn describe(self) -> &'static str {
        match self {
            FaultScenario::Smoke => "20% loss both directions (CI smoke)",
            FaultScenario::Lossy => "25% report+command loss, 10% ack loss, duplicates",
            FaultScenario::Laggy => "reports 1-2 windows late, commands 0-1, duplicates",
            FaultScenario::Partition => "vld-b partitioned for the middle third",
            FaultScenario::Churn => "fpd-c joins at 1/3, vld-b leaves at 2/3",
            FaultScenario::CrashStorm => "vld-b and fpd-b crash mid-run",
        }
    }

    /// The link fault model every shard's channel runs under.
    fn link_faults(self) -> LinkFaults {
        match self {
            FaultScenario::Smoke => LinkFaults {
                report_loss: 0.2,
                command_loss: 0.2,
                ..LinkFaults::none()
            },
            FaultScenario::Lossy => LinkFaults {
                report_loss: 0.25,
                command_loss: 0.25,
                ack_loss: 0.1,
                command_duplicate: 0.1,
                ..LinkFaults::none()
            },
            FaultScenario::Laggy => LinkFaults {
                report_delay: WindowJitter { base: 1, jitter: 1 },
                command_delay: WindowJitter { base: 0, jitter: 1 },
                command_duplicate: 0.1,
                ..LinkFaults::none()
            },
            // Partition / churn / crash scenarios keep the links clean so
            // the rendered reaction is attributable to the one fault.
            FaultScenario::Partition | FaultScenario::Churn => LinkFaults::none(),
            FaultScenario::CrashStorm => LinkFaults {
                report_loss: 0.1,
                command_loss: 0.1,
                ..LinkFaults::none()
            },
        }
    }
}

/// A finished fault-injected fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyFleetRun {
    /// The scenario that ran.
    pub scenario: FaultScenario,
    /// Every shard name that ever appeared, in first-seen order (churn
    /// adds and removes shards mid-run).
    pub names: Vec<String>,
    /// The recorded fleet timeline.
    pub timeline: Vec<FleetWindow>,
    /// Per-shard fault logs, keyed by shard name (removed shards keep
    /// the log collected up to their departure).
    pub faults: Vec<(String, Vec<FaultEvent>)>,
}

fn wrap(sim: Simulator, seed: u64, scenario: FaultScenario) -> FaultyShard<Simulator> {
    FaultyShard::new(sim, ControlChannel::new(seed, scenario.link_faults()))
}

/// Builds the four-topology fleet behind fault-injected channels.
pub fn build_faulty_fleet(
    config: &FleetBenchConfig,
    scenario: FaultScenario,
) -> FleetDriver<FaultyShard<Simulator>> {
    let vld = VldProfile::paper();
    let fpd = FpdProfile::paper();
    let mut driver_config = FleetDriverConfig::new(config.k_max);
    driver_config.window_secs = config.window_secs;
    // Channel seeds are offset from the workload seeds so changing the
    // fault dice never perturbs the traffic.
    let ch = |i: u64| config.seed.wrapping_mul(31).wrapping_add(i);
    let mut shards = vec![
        wrap(
            vld.build_simulation([8, 8, 1], config.seed),
            ch(0),
            scenario,
        ),
        wrap(
            vld.build_simulation([8, 8, 1], config.seed + 1),
            ch(1),
            scenario,
        ),
        wrap(
            fpd.build_simulation([5, 12, 2], config.seed + 2),
            ch(2),
            scenario,
        ),
        wrap(
            fpd.build_simulation([5, 12, 2], config.seed + 3),
            ch(3),
            scenario,
        ),
    ];
    if scenario == FaultScenario::Partition {
        let shard = &mut shards[1];
        let channel = shard.channel().clone().with_partition(Partition {
            from_window: config.windows / 3,
            heal_window: config.windows * 2 / 3,
        });
        *shard = FaultyShard::new(shard.inner().clone(), channel);
    }
    if scenario == FaultScenario::CrashStorm {
        shards[1].crash_at(config.windows / 2);
        shards[3].crash_at(config.windows / 2 + 1);
    }
    let mut it = shards.into_iter();
    FleetDriver::new(
        driver_config,
        vec![
            FleetShardSpec::new("vld-a", VLD_T_MAX, it.next().expect("four shards")),
            FleetShardSpec::new("vld-b", VLD_T_MAX, it.next().expect("four shards")),
            FleetShardSpec::new("fpd-a", FPD_T_MAX, it.next().expect("four shards")),
            FleetShardSpec::new("fpd-b", FPD_T_MAX, it.next().expect("four shards")),
        ],
    )
    .expect("valid fleet")
}

/// Runs a scenario to completion.
pub fn run_faulty_fleet(config: &FleetBenchConfig, scenario: FaultScenario) -> FaultyFleetRun {
    let mut fleet = build_faulty_fleet(config, scenario);
    let mut names: Vec<String> = fleet.shard_names().into_iter().map(str::to_owned).collect();
    let mut departed: Vec<(String, Vec<FaultEvent>)> = Vec::new();
    let join_at = config.windows / 3;
    let leave_at = config.windows * 2 / 3;
    for window in 0..config.windows {
        if scenario == FaultScenario::Churn {
            if window == join_at {
                let fpd = FpdProfile::paper();
                let shard = wrap(
                    fpd.build_simulation([5, 12, 2], config.seed + 4),
                    config.seed.wrapping_mul(31).wrapping_add(4),
                    scenario,
                );
                fleet
                    .add_shard(FleetShardSpec::new("fpd-c", FPD_T_MAX, shard))
                    .expect("valid joining shard");
                names.push("fpd-c".to_owned());
            }
            if window == leave_at {
                let name = fleet.shard_names()[1].to_owned();
                let removed = fleet.remove_shard(1);
                departed.push((name, removed.fault_log().to_vec()));
            }
        }
        fleet.step();
    }
    let mut faults: Vec<(String, Vec<FaultEvent>)> = fleet
        .shard_names()
        .iter()
        .enumerate()
        .map(|(i, name)| ((*name).to_owned(), fleet.backend(i).fault_log().to_vec()))
        .collect();
    faults.extend(departed);
    faults.sort_by_key(|(name, _)| names.iter().position(|n| n == name));
    FaultyFleetRun {
        scenario,
        names,
        timeline: fleet.timeline().to_vec(),
        faults,
    }
}

/// One shard's cell: `granted/demand` plus flags — `C` capped, `R`
/// rebalanced, `D` dead (lease expired), `E` actuation error this
/// window — or `·` when the shard is not in the fleet that window.
fn cell(point: Option<&ShardPoint>) -> String {
    let Some(p) = point else {
        return "·".to_owned();
    };
    let demand = p.demand.map_or_else(
        || format!("{}/-", p.granted()),
        |d| format!("{}/{d}", p.granted()),
    );
    let mut flags = String::new();
    if p.capped {
        flags.push('C');
    }
    if p.rebalanced {
        flags.push('R');
    }
    if p.dead {
        flags.push('D');
    }
    if p.error.is_some() {
        flags.push('E');
    }
    format!("{demand}{flags}")
}

/// Renders the scenario timeline: the per-window grant table, then the
/// merged fault/reaction log (every injected fault and every deferred,
/// rejected or timed-out actuation, in window order).
pub fn render_faulty_fleet(config: &FleetBenchConfig, run: &FaultyFleetRun) -> String {
    let mut header: Vec<String> = vec!["window".to_owned()];
    header.extend(run.names.iter().map(|n| format!("{n} k/demand")));
    header.push("Σk".to_owned());
    header.push(String::new());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = run
        .timeline
        .iter()
        .map(|w| {
            let mut row = vec![format!("{}", w.window + 1)];
            for name in &run.names {
                row.push(cell(w.shards.iter().find(|p| &p.name == name)));
            }
            row.push(format!("{}", w.total_granted));
            row.push(if w.contended {
                "contended".to_owned()
            } else {
                String::new()
            });
            row
        })
        .collect();
    let mut out = render_table(
        &format!(
            "fleet --faults {} — {} ({} windows of {:.0} s, Kmax={}, seed {})",
            run.scenario.name(),
            run.scenario.describe(),
            config.windows,
            config.window_secs,
            config.k_max,
            config.seed,
        ),
        &header_refs,
        &rows,
    );

    // The merged fault/reaction log: injected faults from the channels,
    // control-plane reactions from the timeline's per-shard errors.
    let mut events: Vec<(u64, String)> = Vec::new();
    for (name, log) in &run.faults {
        for e in log {
            events.push((e.window, format!("{name}: {}", e.kind)));
        }
    }
    for w in &run.timeline {
        for p in &w.shards {
            if let Some(e) = &p.error {
                events.push((w.window, format!("{}: {e}", p.name)));
            }
        }
    }
    events.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    out.push_str("fault log (injected faults and control-plane reactions):\n");
    if events.is_empty() {
        out.push_str("  (none)\n");
    }
    for (window, line) in &events {
        out.push_str(&format!("  w{:>3}  {line}\n", window + 1));
    }

    let last = run.timeline.last().expect("non-empty timeline");
    for p in &last.shards {
        out.push_str(&format!(
            "{:>8}: final {} ({} executors{}{})\n",
            p.name,
            fmt_allocation(&p.allocation),
            p.granted(),
            if p.capped { ", capped" } else { "" },
            if p.dead { ", presumed dead" } else { "" },
        ));
    }
    out.push_str(&format!(
        "   fleet: {} of {} executors placed; {} contended window(s); {} fault event(s)\n",
        last.total_granted,
        config.k_max,
        run.timeline.iter().filter(|w| w.contended).count(),
        events.len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> FleetBenchConfig {
        FleetBenchConfig::smoke(2015)
    }

    #[test]
    fn scenario_names_round_trip() {
        for s in FaultScenario::ALL {
            assert_eq!(FaultScenario::parse(s.name()), Some(s));
        }
        assert_eq!(FaultScenario::parse("nope"), None);
    }

    #[test]
    fn lossy_scenario_respects_budget_and_replays_deterministically() {
        let config = smoke_config();
        let run = run_faulty_fleet(&config, FaultScenario::Lossy);
        assert_eq!(run.timeline.len(), config.windows as usize);
        for w in &run.timeline {
            assert!(
                w.total_granted <= u64::from(config.k_max),
                "window {} over budget: {w:?}",
                w.window
            );
        }
        assert!(
            run.faults.iter().any(|(_, log)| !log.is_empty()),
            "a lossy channel must log faults"
        );
        let again = run_faulty_fleet(&config, FaultScenario::Lossy);
        assert_eq!(run, again, "same seed and scenario must replay exactly");
        let rendered = render_faulty_fleet(&config, &run);
        assert!(rendered.contains("fault log"));
    }

    #[test]
    fn crash_storm_reclaims_the_dead_shards_budget() {
        let config = smoke_config();
        let run = run_faulty_fleet(&config, FaultScenario::CrashStorm);
        let crash_window = config.windows / 2;
        let last = run.timeline.last().unwrap();
        let dead: Vec<&str> = last
            .shards
            .iter()
            .filter(|p| p.dead)
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(
            dead,
            vec!["vld-b", "fpd-b"],
            "both crashed shards must be lease-expired by the end: {last:?}"
        );
        // The lease fires within lease_windows of the crash.
        let lease = FleetDriverConfig::new(config.k_max).lease_windows;
        let first_dead = run
            .timeline
            .iter()
            .find(|w| w.shards.iter().any(|p| p.dead))
            .expect("a shard must die");
        assert!(
            first_dead.window <= crash_window + lease + 1,
            "lease must expire within {lease} windows of the crash at {crash_window}: \
             first dead at {}",
            first_dead.window
        );
        // Live shards keep the fleet under budget without the ghosts.
        assert!(last.total_granted <= u64::from(config.k_max));
        let live_granted: u64 = last
            .shards
            .iter()
            .filter(|p| !p.dead)
            .map(ShardPoint::granted)
            .sum();
        assert_eq!(live_granted, last.total_granted);
    }

    #[test]
    fn churn_adds_then_removes_shards_mid_run() {
        let config = smoke_config();
        let run = run_faulty_fleet(&config, FaultScenario::Churn);
        assert_eq!(
            run.names,
            vec!["vld-a", "vld-b", "fpd-a", "fpd-b", "fpd-c"],
            "the joining shard must be recorded"
        );
        let first = &run.timeline[0];
        assert_eq!(first.shards.len(), 4);
        let mid = &run.timeline[config.windows as usize / 3];
        assert_eq!(mid.shards.len(), 5, "fpd-c must have joined: {mid:?}");
        let last = run.timeline.last().unwrap();
        assert_eq!(last.shards.len(), 4, "vld-b must have left: {last:?}");
        assert!(last.shards.iter().all(|p| p.name != "vld-b"));
        // A joining shard brings its own executors, so the fleet may run
        // over budget for the windows it takes the negotiator to shrink
        // the incumbents (grows are deferred the whole time); it must be
        // back at or under Kmax shortly after.
        let join_at = config.windows / 3;
        for w in &run.timeline {
            if !(join_at..join_at + 3).contains(&w.window) {
                assert!(
                    w.total_granted <= u64::from(config.k_max),
                    "window {} over budget: {w:?}",
                    w.window
                );
            }
        }
        // The removed shard's fault log survives in the run record.
        assert!(run.faults.iter().any(|(n, _)| n == "vld-b"));
        let rendered = render_faulty_fleet(&config, &run);
        assert!(rendered.contains("fpd-c"));
    }

    #[test]
    fn partition_darkens_then_heals_one_shard() {
        let config = smoke_config();
        let run = run_faulty_fleet(&config, FaultScenario::Partition);
        let (_, vld_b_log) = run
            .faults
            .iter()
            .find(|(n, _)| n == "vld-b")
            .expect("vld-b log");
        use drs_sim::FaultKind;
        assert!(vld_b_log
            .iter()
            .any(|e| e.kind == FaultKind::PartitionStarted));
        assert!(vld_b_log
            .iter()
            .any(|e| e.kind == FaultKind::PartitionHealed));
        for w in &run.timeline {
            assert!(w.total_granted <= u64::from(config.k_max));
        }
    }
}
