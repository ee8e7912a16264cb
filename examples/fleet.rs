//! Fleet mode: four topologies, one processor budget.
//!
//! Two VLD and two FPD pipelines run as independent simulator shards (each
//! on its own virtual clock) under a single `FleetDriver` owning a global
//! budget `Kmax` smaller than the sum of the shards' single-topology
//! demands. Each window every shard computes its own Program 6 schedule;
//! the driver arbitrates contention with the paper's
//! max-marginal-benefit rule applied *across* topologies and hands each
//! shard a capped plan. Mid-run one VLD shard's frame rate collapses and
//! the freed executors flow to the shards that were starved.
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use drs::apps::{FpdProfile, VldProfile};
use drs::core::fleet::{FleetDriver, FleetDriverConfig, FleetShardSpec};
use drs::queueing::distribution::Distribution;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const K_MAX: u32 = 80;
    let vld = VldProfile::paper();
    let fpd = FpdProfile::paper();

    let mut config = FleetDriverConfig::new(K_MAX);
    config.window_secs = 30.0;
    let mut fleet = FleetDriver::new(
        config,
        vec![
            FleetShardSpec::new("vld-a", 1.7, vld.build_simulation([8, 8, 1], 7)),
            FleetShardSpec::new("vld-b", 1.7, vld.build_simulation([8, 8, 1], 8)),
            FleetShardSpec::new("fpd-a", 0.045, fpd.build_simulation([5, 12, 2], 9)),
            FleetShardSpec::new("fpd-b", 0.045, fpd.build_simulation([5, 12, 2], 10)),
        ],
    )?;

    println!(
        "fleet of {} topologies under Kmax = {K_MAX}",
        fleet.shard_count()
    );
    println!("window | per-shard granted/demand (C = capped) | Σ granted");
    for window in 0..14 {
        if window == 7 {
            // vld-b's stream dries up: 13 -> 4 frames/s.
            let spout = fleet
                .backend(1)
                .topology()
                .operator_by_name("video-spout")
                .expect("vld topology")
                .id();
            fleet
                .backend_mut(1)
                .set_spout_interarrival(spout, Distribution::exponential(4.0)?)?;
            println!("-- vld-b load collapses --");
        }
        let w = fleet.step();
        let cells: Vec<String> = w
            .shards
            .iter()
            .map(|s| {
                format!(
                    "{}{}{}",
                    s.granted(),
                    s.demand.map_or(String::new(), |d| format!("/{d}")),
                    if s.capped { "C" } else { "" }
                )
            })
            .collect();
        println!(
            "{:>6} | {:<38} | {:>3}{}",
            w.window + 1,
            cells.join("  "),
            w.total_granted,
            if w.contended { "  (contended)" } else { "" },
        );
    }

    let last = fleet.timeline().last().expect("ran windows");
    println!(
        "\nfinal split: {}",
        fleet
            .shard_names()
            .iter()
            .zip(&last.shards)
            .map(|(n, s)| format!("{n}={}", s.granted()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}
