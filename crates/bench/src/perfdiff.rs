//! `repro perfdiff`: compares two `BENCH_PERF.json` snapshots and fails on
//! regressions — the CI gate that keeps the perf trajectory honest across
//! PRs.
//!
//! Gated metrics are the ones a code change actually moves:
//!
//! * `scheduling[].heap_us` (lower is better) — the production scheduling
//!   path, per `Kmax`;
//! * `scheduling[].speedup` (higher is better) — heap vs the retained
//!   from-scratch reference. Being a same-machine ratio, this one is
//!   immune to the hardware delta between the machine that committed the
//!   baseline and the runner doing the comparison, so it stays meaningful
//!   even when the absolute timings carry a systematic bias;
//! * `event_queue[].calendar_ns` (lower is better) and
//!   `event_queue[].eq_speedup` (higher is better) — the simulator's
//!   calendar event queue against its binary-heap reference, per pending
//!   population;
//! * `event_queue_far[].calendar_ns` (lower is better) and
//!   `event_queue_far[].far_speedup` (higher is better) — the same pair
//!   on the far-future-heavy ladder-scale guard at 10⁶ pending events;
//! * `fleet_scale[].incremental_us` (lower is better),
//!   `fleet_scale[].fleet_speedup` (higher is better) and
//!   `fleet_scale[].steady_allocs` (lower is better) — warm-start
//!   incremental fleet negotiation per contended window against the
//!   from-scratch reference at 100k shards / 5% churn, plus the heap
//!   allocations of a zero-churn steady-state window (held at 0 by a
//!   `drs-core` test; gated here so it can only ratchet down);
//! * `placement_scale[].place_incremental_us` (lower is better),
//!   `placement_scale[].place_speedup` (higher is better) and
//!   `placement_scale[].place_steady_allocs` (lower is better) — the
//!   warm epoch-band placement state
//!   (`drs_core::placement::FleetPlacementState`) per drifting window
//!   against a from-scratch `placement::plan` at 100k shards / 5%
//!   request churn on a 64-machine pool, plus the heap allocations of a
//!   zero-drift steady-state window. The allocs gate starts from a zero
//!   baseline, so *any* nonzero current value hard-fails (infinite
//!   regression) rather than slipping under a relative tolerance;
//! * `simulator[].trees_per_wall_sec` (higher is better) — end-to-end
//!   simulator throughput, per workload;
//! * `runtime[].tuples_per_wall_sec` (higher is better) — end-to-end live
//!   runtime throughput, per pipeline;
//! * `worker_pool[].tuples_per_wall_sec` (higher is better) — the same
//!   pipeline at fixed small pool sizes with Σk ≫ workers, per pool size;
//! * `rebalance[pool].pause_us` (lower is better) and
//!   `rebalance[pool].pause_speedup` (higher is better) — the live
//!   rebalance pause against the retained thread-per-executor reference;
//! * `placement[solver].cross_fraction` and
//!   `placement[solver].mean_sojourn_ms` (both lower is better) and
//!   `placement[solver].cross_cut` (higher is better) — the machine
//!   placement solver against the round-robin deal on the contended fleet
//!   scenario. These come from a seeded virtual-clock simulation, so they
//!   are deterministic: any drift is a code change, not runner noise;
//! * `soak[vld_churn].p50_ms` / `.p95_ms` / `.p99_ms` and
//!   `.max_queue_depth` (all lower is better) and
//!   `.soak_tuples_per_sec` (higher is better) — ingress→ack latency
//!   percentiles, peak bounded-queue depth and throughput of the
//!   saturation soak under continuous rebalances (`crate::soak`). The
//!   `suspensions` count on the same row is scheduling-dependent noise
//!   and deliberately not gated.
//!
//! The `reference_us`/`heap_ns`/`thread_join` columns and the
//! `round_robin` placement row alone are the deliberately naive oracles
//! and are not gated directly. The parser reads
//! only the flat schema [`crate::perf::perf_json`] writes (the offline
//! build has no serde_json).
//!
//! **Schema growth:** a metric present in the *current* snapshot but absent
//! from an older baseline is reported informationally (verdict `new`) and
//! never fails the gate — so adding metrics does not require regenerating
//! every historical baseline. A baseline metric missing from the current
//! snapshot is still an error: losing coverage must be deliberate.

use std::fmt::Write as _;

/// One gated metric compared across the two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric label, e.g. `scheduling[k_max=48].heap_us`.
    pub name: String,
    /// Baseline value. `NaN` marks a metric absent from the baseline
    /// (schema growth): informational, never an offender.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Whether larger values are better for this metric.
    pub higher_is_better: bool,
}

impl MetricDelta {
    /// Relative regression of `current` vs `baseline` (positive = worse),
    /// direction-aware. `0.0` for metrics new in the current snapshot.
    pub fn regression(&self) -> f64 {
        if self.is_new() {
            return 0.0;
        }
        if self.baseline <= 0.0 {
            // A zero baseline is meaningful for lower-is-better counters
            // (steady-state allocations per window): any nonzero current
            // regresses from nothing. A ratio against zero is otherwise
            // undefined — treat those as neutral.
            return if !self.higher_is_better && self.current > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
        }
        if self.higher_is_better {
            (self.baseline - self.current) / self.baseline
        } else {
            (self.current - self.baseline) / self.baseline
        }
    }

    /// Whether the metric is missing from the (older) baseline snapshot.
    pub fn is_new(&self) -> bool {
        self.baseline.is_nan()
    }
}

/// Error from loading or comparing snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfDiffError(pub String);

impl std::fmt::Display for PerfDiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "perfdiff: {}", self.0)
    }
}

impl std::error::Error for PerfDiffError {}

/// Extracts `"key": value` from one JSON object line.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    rest.split('"').next()
}

/// One row kind of `BENCH_PERF.json`: `(key, value, label, metrics)`. A
/// line is of that kind when it carries field `key` — holding the string
/// `value`, when one is given — and the key's value fills the `{}` in
/// `label`. Each metric is `(field, higher_is_better, required)`: a line
/// missing a required metric gates nothing; optional companions are gated
/// when present.
type Row = (
    &'static str,
    Option<&'static str>,
    &'static str,
    &'static [(&'static str, bool, bool)],
);

/// Every gated metric (see the module docs). A line may match several rows.
#[rustfmt::skip]
const ROWS: &[Row] = &[
    ("k_max",        None,           "scheduling[k_max={}]",        &[("heap_us", false, true), ("speedup", true, false)]),
    ("pending",      None,           "event_queue[pending={}]",     &[("calendar_ns", false, true), ("eq_speedup", true, false)]),
    ("far_pending",  None,           "event_queue_far[pending={}]", &[("calendar_ns", false, true), ("far_speedup", true, false)]),
    ("shards",       None,           "fleet_scale[shards={}]",      &[("incremental_us", false, true), ("fleet_speedup", true, false),
                                                                      ("steady_allocs", false, false)]),
    ("place_shards", None,           "placement_scale[shards={}]",  &[("place_incremental_us", false, true), ("place_speedup", true, false),
                                                                      ("place_steady_allocs", false, false)]),
    ("app",          None,           "simulator[{}]",               &[("trees_per_wall_sec", true, true)]),
    ("pipeline",     None,           "runtime[{}]",                 &[("tuples_per_wall_sec", true, true)]),
    ("workers",      None,           "worker_pool[workers={}]",     &[("tuples_per_wall_sec", true, true)]),
    ("path",         Some("pool"),   "rebalance[pool]",             &[("pause_us", false, true), ("pause_speedup", true, false)]),
    ("policy",       Some("solver"), "placement[solver]",           &[("cross_fraction", false, true), ("mean_sojourn_ms", false, false),
                                                                      ("cross_cut", true, false)]),
    ("scenario",     None,           "soak[{}]",                    &[("p50_ms", false, false), ("p95_ms", false, false), ("p99_ms", false, false),
                                                                      ("max_queue_depth", false, false), ("soak_tuples_per_sec", true, false)]),
];

/// Parses the gated metrics out of a `BENCH_PERF.json` body.
///
/// # Errors
///
/// [`PerfDiffError`] when no gated metric can be found (wrong file or
/// schema drift).
pub fn parse_metrics(json: &str) -> Result<Vec<MetricDelta>, PerfDiffError> {
    let mut metrics = Vec::new();
    for line in json.lines() {
        for &(key, value, label, columns) in ROWS {
            let id = match (value, field_str(line, key)) {
                (Some(want), Some(got)) if got == want => got.to_owned(),
                (None, Some(text)) => text.to_owned(),
                (None, None) => match field_f64(line, key) {
                    Some(number) => number.to_string(),
                    None => continue,
                },
                (Some(_), _) => continue,
            };
            let values: Vec<Option<f64>> = columns
                .iter()
                .map(|&(metric, _, _)| field_f64(line, metric))
                .collect();
            if columns
                .iter()
                .zip(&values)
                .any(|(&(_, _, required), value)| required && value.is_none())
            {
                continue;
            }
            let label = label.replace("{}", &id);
            for (&(metric, higher_is_better, _), value) in columns.iter().zip(values) {
                if let Some(baseline) = value {
                    metrics.push(MetricDelta {
                        name: format!("{label}.{metric}"),
                        baseline,
                        current: f64::NAN,
                        higher_is_better,
                    });
                }
            }
        }
    }
    if metrics.is_empty() {
        return Err(PerfDiffError(
            "no gated metrics found (is this a BENCH_PERF.json?)".to_owned(),
        ));
    }
    Ok(metrics)
}

/// Pairs up baseline and current snapshots by metric name. Metrics the
/// current snapshot adds over an older baseline come back flagged
/// [`MetricDelta::is_new`] (informational).
///
/// # Errors
///
/// [`PerfDiffError`] when either file fails to parse or a baseline metric
/// is missing from the current snapshot.
pub fn diff(baseline_json: &str, current_json: &str) -> Result<Vec<MetricDelta>, PerfDiffError> {
    let baseline = parse_metrics(baseline_json)?;
    let current = parse_metrics(current_json)?;
    let mut deltas: Vec<MetricDelta> = baseline
        .into_iter()
        .map(|mut m| {
            let cur = current
                .iter()
                .find(|c| c.name == m.name)
                .ok_or_else(|| PerfDiffError(format!("metric {} missing from current", m.name)))?;
            m.current = cur.baseline;
            Ok(m)
        })
        .collect::<Result<_, PerfDiffError>>()?;
    // Schema growth: metrics the baseline predates are informational.
    for c in current {
        if !deltas.iter().any(|d| d.name == c.name) {
            deltas.push(MetricDelta {
                name: c.name,
                baseline: f64::NAN,
                current: c.baseline,
                higher_is_better: c.higher_is_better,
            });
        }
    }
    Ok(deltas)
}

/// Renders the comparison and returns the offending metrics (regression
/// beyond `tolerance`, e.g. `0.15` = 15%). Metrics new in the current
/// snapshot render as `new` and never offend.
pub fn report(deltas: &[MetricDelta], tolerance: f64) -> (String, Vec<&MetricDelta>) {
    let mut out = String::new();
    let mut offenders = Vec::new();
    writeln!(
        out,
        "{:<48} {:>12} {:>12} {:>9}  verdict",
        "metric", "baseline", "current", "delta"
    )
    .expect("write to string");
    for d in deltas {
        if d.is_new() {
            writeln!(
                out,
                "{:<48} {:>12} {:>12.2} {:>9}  new (not in baseline; informational)",
                d.name, "-", d.current, "-"
            )
            .expect("write to string");
            continue;
        }
        let regression = d.regression();
        let verdict = if regression > tolerance {
            offenders.push(d);
            "REGRESSED"
        } else if regression < -tolerance {
            "improved"
        } else {
            "ok"
        };
        let signed_change = (d.current - d.baseline) / d.baseline.max(f64::MIN_POSITIVE);
        writeln!(
            out,
            "{:<48} {:>12.2} {:>12.2} {:>+8.1}%  {verdict}",
            d.name,
            d.baseline,
            d.current,
            signed_change * 100.0
        )
        .expect("write to string");
    }
    (out, offenders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{
        perf_json, EventQueueFarPoint, EventQueuePoint, FleetScalePoint, PerfReport,
        PlacementPoint, PlacementScalePoint, RebalancePoint, RuntimePoint, SchedPoint, SimPoint,
        SoakPoint, WorkerPoolPoint,
    };

    /// The far-future event-queue row shared by the fixtures; varied only
    /// by the dedicated test.
    fn far_point() -> EventQueueFarPoint {
        EventQueueFarPoint {
            pending: 1_000_000,
            calendar_ns: 900.0,
            heap_ns: 2_700.0,
        }
    }

    /// The fleet-scale row shared by the fixtures; varied only by the
    /// dedicated test.
    fn fleet_scale_point() -> FleetScalePoint {
        FleetScalePoint {
            shards: 100_000,
            churn_pct: 5.0,
            incremental_us: 60_000.0,
            scratch_us: 1_000_000.0,
            steady_allocs: Some(0),
        }
    }

    /// The placement-scale row shared by the fixtures; varied only by the
    /// dedicated test.
    fn placement_scale_point() -> PlacementScalePoint {
        PlacementScalePoint {
            shards: 100_000,
            churn_pct: 5.0,
            incremental_us: 30_000.0,
            scratch_us: 600_000.0,
            steady_allocs: Some(0),
        }
    }

    /// The soak row shared by the fixtures; varied only by the
    /// soak-specific test.
    fn soak_point() -> SoakPoint {
        SoakPoint {
            scenario: "vld_churn",
            p50_ms: 1.5,
            p95_ms: 4.0,
            p99_ms: 9.0,
            max_queue_depth: 128,
            suspensions: 5_000,
            tuples_per_sec: 0.5e6,
        }
    }

    /// The placement rows shared by the fixtures; varied only by the
    /// placement-specific tests.
    fn placement_rows(cross: f64, sojourn: f64, cut: f64) -> Vec<PlacementPoint> {
        vec![
            PlacementPoint {
                policy: "solver",
                cross_fraction: cross,
                mean_sojourn_ms: sojourn,
                cross_cut: cut,
            },
            PlacementPoint {
                policy: "round_robin",
                cross_fraction: 0.74,
                mean_sojourn_ms: 195.0,
                cross_cut: 0.0,
            },
        ]
    }

    /// Fixture with every gated section; the worker-pool and rebalance
    /// values are parameterised separately so the older tests (which vary
    /// only the scheduling/event-queue/throughput metrics) keep their
    /// exact offender counts.
    #[allow(clippy::too_many_arguments)]
    fn snapshot_with(
        heap_us: f64,
        cal_ns: f64,
        tps: f64,
        rt_tps: f64,
        wp_tps: f64,
        pool_pause_us: f64,
        thread_join_pause_us: f64,
        placement: Vec<PlacementPoint>,
        soak: SoakPoint,
    ) -> String {
        perf_json(&PerfReport {
            scheduling: vec![SchedPoint {
                k_max: 48,
                heap_us,
                reference_us: heap_us * 20.0,
            }],
            event_queue: vec![EventQueuePoint {
                pending: 100_000,
                calendar_ns: cal_ns,
                heap_ns: cal_ns * 3.0,
            }],
            event_queue_far: far_point(),
            fleet_scale: fleet_scale_point(),
            placement_scale: placement_scale_point(),
            simulator: vec![SimPoint {
                name: "vld",
                simulated_secs: 60,
                wall_ms: 10.0,
                trees_per_wall_sec: tps,
            }],
            runtime: vec![RuntimePoint {
                pipeline: "vld_live",
                frames: 4_000,
                wall_ms: 60.0,
                tuples_per_wall_sec: rt_tps,
            }],
            worker_pool: vec![WorkerPoolPoint {
                workers: 2,
                wall_ms: 70.0,
                tuples_per_wall_sec: wp_tps,
            }],
            rebalance: RebalancePoint {
                pool_pause_us,
                thread_join_pause_us,
            },
            placement,
            soak,
        })
    }

    fn full_snapshot(heap_us: f64, cal_ns: f64, tps: f64, rt_tps: f64) -> String {
        snapshot_with(
            heap_us,
            cal_ns,
            tps,
            rt_tps,
            0.8e6,
            200.0,
            6_000.0,
            placement_rows(0.37, 180.0, 0.5),
            soak_point(),
        )
    }

    fn snapshot(heap_us: f64, tps: f64) -> String {
        full_snapshot(heap_us, 50.0, tps, 1.0e6)
    }

    /// A baseline predating the event-queue, runtime, worker-pool,
    /// rebalance and placement sections.
    fn old_schema_snapshot(heap_us: f64, tps: f64) -> String {
        snapshot(heap_us, tps)
            .lines()
            .filter(|l| {
                !l.contains("pending")
                    && !l.contains("shards")
                    && !l.contains("pipeline")
                    && !l.contains("workers")
                    && !l.contains("\"path\"")
                    && !l.contains("\"policy\"")
                    && !l.contains("\"scenario\"")
                    && !l.contains("\"event_queue\"")
                    && !l.contains("\"event_queue_far\"")
                    && !l.contains("\"fleet_scale\"")
                    && !l.contains("\"placement_scale\"")
                    && !l.contains("\"runtime\"")
                    && !l.contains("\"worker_pool\"")
                    && !l.contains("\"rebalance\"")
                    && !l.contains("\"placement\"")
                    && !l.contains("\"soak\"")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn round_trips_the_perf_json_schema() {
        let metrics = parse_metrics(&snapshot(2.0, 1000.0)).unwrap();
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "scheduling[k_max=48].heap_us",
                "scheduling[k_max=48].speedup",
                "event_queue[pending=100000].calendar_ns",
                "event_queue[pending=100000].eq_speedup",
                "event_queue_far[pending=1000000].calendar_ns",
                "event_queue_far[pending=1000000].far_speedup",
                "fleet_scale[shards=100000].incremental_us",
                "fleet_scale[shards=100000].fleet_speedup",
                "fleet_scale[shards=100000].steady_allocs",
                "placement_scale[shards=100000].place_incremental_us",
                "placement_scale[shards=100000].place_speedup",
                "placement_scale[shards=100000].place_steady_allocs",
                "simulator[vld].trees_per_wall_sec",
                "runtime[vld_live].tuples_per_wall_sec",
                "worker_pool[workers=2].tuples_per_wall_sec",
                "rebalance[pool].pause_us",
                "rebalance[pool].pause_speedup",
                "placement[solver].cross_fraction",
                "placement[solver].mean_sojourn_ms",
                "placement[solver].cross_cut",
                "soak[vld_churn].p50_ms",
                "soak[vld_churn].p95_ms",
                "soak[vld_churn].p99_ms",
                "soak[vld_churn].max_queue_depth",
                "soak[vld_churn].soak_tuples_per_sec",
            ]
        );
        let expect_higher = [
            false, true, false, true, false, true, false, true, false, false, true, false, true,
            true, true, false, true, false, false, true, false, false, false, false, true,
        ];
        for (m, &higher) in metrics.iter().zip(&expect_higher) {
            assert_eq!(m.higher_is_better, higher, "{}", m.name);
        }
    }

    #[test]
    fn rebalance_pause_is_gated_direction_aware() {
        // Pause doubles while the thread-join reference doubles with it:
        // pause_us offends, the hardware-immune speedup ratio does not.
        let rows = || placement_rows(0.37, 180.0, 0.5);
        let deltas = diff(
            &snapshot_with(
                2.0,
                50.0,
                1000.0,
                1.0e6,
                0.8e6,
                200.0,
                6_000.0,
                rows(),
                soak_point(),
            ),
            &snapshot_with(
                2.0,
                50.0,
                1000.0,
                1.0e6,
                0.8e6,
                400.0,
                12_000.0,
                rows(),
                soak_point(),
            ),
        )
        .unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(
            offenders
                .iter()
                .any(|m| m.name == "rebalance[pool].pause_us"),
            "{rendered}"
        );
        assert!(!offenders.iter().any(|m| m.name.contains("pause_speedup")));

        // Pause doubles against the *same* reference: the ratio regresses
        // too, and a worker-pool throughput drop is flagged independently.
        let deltas = diff(
            &snapshot_with(
                2.0,
                50.0,
                1000.0,
                1.0e6,
                0.8e6,
                200.0,
                6_000.0,
                rows(),
                soak_point(),
            ),
            &snapshot_with(
                2.0,
                50.0,
                1000.0,
                1.0e6,
                0.4e6,
                400.0,
                6_000.0,
                rows(),
                soak_point(),
            ),
        )
        .unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(
            offenders.iter().any(|m| m.name.contains("pause_speedup")),
            "{rendered}"
        );
        assert!(
            offenders
                .iter()
                .any(|m| m.name == "worker_pool[workers=2].tuples_per_wall_sec"),
            "{rendered}"
        );
    }

    #[test]
    fn placement_solver_metrics_are_gated_direction_aware() {
        let with_placement = |rows| {
            snapshot_with(
                2.0,
                50.0,
                1000.0,
                1.0e6,
                0.8e6,
                200.0,
                6_000.0,
                rows,
                soak_point(),
            )
        };
        // The solver losing ground offends on both the (lower-is-better)
        // cross fraction and the (higher-is-better) cut; sojourn, held
        // steady, stays clean. The round_robin oracle row is never gated.
        let base = with_placement(placement_rows(0.37, 180.0, 0.5));
        let worse = with_placement(placement_rows(0.60, 180.0, 0.19));
        let deltas = diff(&base, &worse).unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(
            offenders
                .iter()
                .any(|m| m.name == "placement[solver].cross_fraction"),
            "{rendered}"
        );
        assert!(
            offenders
                .iter()
                .any(|m| m.name == "placement[solver].cross_cut"),
            "{rendered}"
        );
        assert!(
            !offenders.iter().any(|m| m.name.contains("sojourn")),
            "{rendered}"
        );
        assert!(!offenders.iter().any(|m| m.name.contains("round_robin")));

        // Improvement in the same metrics is never an offence.
        let better = with_placement(placement_rows(0.25, 170.0, 0.66));
        let deltas = diff(&base, &better).unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(
            !offenders.iter().any(|m| m.name.starts_with("placement")),
            "{rendered}"
        );
    }

    #[test]
    fn soak_latency_is_gated_direction_aware() {
        let with_soak = |soak| {
            snapshot_with(
                2.0,
                50.0,
                1000.0,
                1.0e6,
                0.8e6,
                200.0,
                6_000.0,
                placement_rows(0.37, 180.0, 0.5),
                soak,
            )
        };
        // The tail blowing up and the soak throughput collapsing both
        // offend; p50, held steady, stays clean — and the suspensions
        // count (scheduling noise) is never a gated metric at all.
        let base = with_soak(soak_point());
        let worse = with_soak(SoakPoint {
            p99_ms: 25.0,
            suspensions: 80_000,
            tuples_per_sec: 0.2e6,
            ..soak_point()
        });
        let deltas = diff(&base, &worse).unwrap();
        assert!(!deltas.iter().any(|d| d.name.contains("suspensions")));
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(
            offenders.iter().any(|m| m.name == "soak[vld_churn].p99_ms"),
            "{rendered}"
        );
        assert!(
            offenders
                .iter()
                .any(|m| m.name == "soak[vld_churn].soak_tuples_per_sec"),
            "{rendered}"
        );
        assert!(
            !offenders.iter().any(|m| m.name.contains("p50_ms")),
            "{rendered}"
        );

        // Improvement in the same metrics is never an offence.
        let better = with_soak(SoakPoint {
            p50_ms: 0.8,
            p95_ms: 2.0,
            p99_ms: 4.0,
            tuples_per_sec: 0.9e6,
            ..soak_point()
        });
        let deltas = diff(&base, &better).unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(
            !offenders.iter().any(|m| m.name.starts_with("soak")),
            "{rendered}"
        );
    }

    #[test]
    fn flags_regressions_in_either_direction() {
        // heap_us up 50% and throughput down 50% regress; the speedup
        // ratio is unchanged (the mock reference scales with heap), so it
        // stays ok — exactly the hardware-bias-immune behaviour it is
        // gated for.
        let deltas = diff(&snapshot(2.0, 1000.0), &snapshot(3.0, 500.0)).unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert_eq!(offenders.len(), 2, "{rendered}");
        assert!(rendered.contains("REGRESSED"));
        assert!(!offenders.iter().any(|m| m.name.contains("speedup")));

        // A genuine algorithmic regression moves the ratio even when raw
        // timings scale together: heap 4x slower on the same reference.
        let slower = perf_json(&PerfReport {
            scheduling: vec![SchedPoint {
                k_max: 48,
                heap_us: 8.0,
                reference_us: 40.0,
            }],
            event_queue: vec![EventQueuePoint {
                pending: 100_000,
                calendar_ns: 50.0,
                heap_ns: 150.0,
            }],
            event_queue_far: far_point(),
            fleet_scale: fleet_scale_point(),
            placement_scale: placement_scale_point(),
            simulator: vec![SimPoint {
                name: "vld",
                simulated_secs: 60,
                wall_ms: 10.0,
                trees_per_wall_sec: 1000.0,
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
                tuples_per_wall_sec: 0.8e6,
            }],
            rebalance: RebalancePoint {
                pool_pause_us: 200.0,
                thread_join_pause_us: 6_000.0,
            },
            placement: placement_rows(0.37, 180.0, 0.5),
            soak: soak_point(),
        });
        let deltas = diff(&snapshot(2.0, 1000.0), &slower).unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(
            offenders.iter().any(|m| m.name.contains("speedup")),
            "{rendered}"
        );
    }

    #[test]
    fn event_queue_and_runtime_metrics_are_gated() {
        // Calendar 2x slower and runtime throughput halved: both offend.
        // The fixture ties heap_ns to calendar_ns (3x), so eq_speedup is
        // constant across the pair and must *not* offend — the gate on the
        // ratio fires only for genuine algorithmic movement, mirroring the
        // scheduling speedup's hardware-bias immunity.
        let deltas = diff(
            &full_snapshot(2.0, 50.0, 1000.0, 1.0e6),
            &full_snapshot(2.0, 100.0, 1000.0, 0.5e6),
        )
        .unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(
            offenders
                .iter()
                .any(|m| m.name == "event_queue[pending=100000].calendar_ns"),
            "{rendered}"
        );
        assert!(
            offenders
                .iter()
                .any(|m| m.name == "runtime[vld_live].tuples_per_wall_sec"),
            "{rendered}"
        );
        assert!(!offenders.iter().any(|m| m.name.contains("eq_speedup")));

        // Calendar slower against the *same* heap reference: the ratio
        // regresses and the gate catches it.
        let current = perf_json(&PerfReport {
            scheduling: vec![SchedPoint {
                k_max: 48,
                heap_us: 2.0,
                reference_us: 40.0,
            }],
            event_queue: vec![EventQueuePoint {
                pending: 100_000,
                calendar_ns: 100.0,
                heap_ns: 150.0,
            }],
            event_queue_far: far_point(),
            fleet_scale: fleet_scale_point(),
            placement_scale: placement_scale_point(),
            simulator: vec![SimPoint {
                name: "vld",
                simulated_secs: 60,
                wall_ms: 10.0,
                trees_per_wall_sec: 1000.0,
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
                tuples_per_wall_sec: 0.8e6,
            }],
            rebalance: RebalancePoint {
                pool_pause_us: 200.0,
                thread_join_pause_us: 6_000.0,
            },
            placement: placement_rows(0.37, 180.0, 0.5),
            soak: soak_point(),
        });
        let deltas = diff(&full_snapshot(2.0, 50.0, 1000.0, 1.0e6), &current).unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(
            offenders.iter().any(|m| m.name.contains("eq_speedup")),
            "{rendered}"
        );
    }

    /// Build the fixture snapshot with the far-queue, fleet-scale and
    /// placement-scale rows swapped out, leaving every other section at
    /// its shared default.
    fn snapshot_with_scale_points(
        far: EventQueueFarPoint,
        fleet: FleetScalePoint,
        place: PlacementScalePoint,
    ) -> String {
        perf_json(&PerfReport {
            scheduling: vec![SchedPoint {
                k_max: 48,
                heap_us: 2.0,
                reference_us: 40.0,
            }],
            event_queue: vec![EventQueuePoint {
                pending: 100_000,
                calendar_ns: 50.0,
                heap_ns: 150.0,
            }],
            event_queue_far: far,
            fleet_scale: fleet,
            placement_scale: place,
            simulator: vec![SimPoint {
                name: "vld",
                simulated_secs: 60,
                wall_ms: 10.0,
                trees_per_wall_sec: 1000.0,
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
                tuples_per_wall_sec: 0.8e6,
            }],
            rebalance: RebalancePoint {
                pool_pause_us: 200.0,
                thread_join_pause_us: 6_000.0,
            },
            placement: placement_rows(0.37, 180.0, 0.5),
            soak: soak_point(),
        })
    }

    #[test]
    fn fleet_scale_and_far_queue_are_gated_direction_aware() {
        // Incremental negotiation triples while the from-scratch reference
        // holds still, and the far-future calendar point quadruples against
        // a fixed heap reference: the wall metrics and both hardware-immune
        // speedup ratios must all offend.
        let baseline =
            snapshot_with_scale_points(far_point(), fleet_scale_point(), placement_scale_point());
        let slow_far = EventQueueFarPoint {
            calendar_ns: far_point().calendar_ns * 4.0,
            ..far_point()
        };
        let slow_fleet = FleetScalePoint {
            incremental_us: fleet_scale_point().incremental_us * 3.0,
            ..fleet_scale_point()
        };
        let deltas = diff(
            &baseline,
            &snapshot_with_scale_points(slow_far, slow_fleet, placement_scale_point()),
        )
        .unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        for name in [
            "event_queue_far[pending=1000000].calendar_ns",
            "event_queue_far[pending=1000000].far_speedup",
            "fleet_scale[shards=100000].incremental_us",
            "fleet_scale[shards=100000].fleet_speedup",
        ] {
            assert!(
                offenders.iter().any(|m| m.name == name),
                "{name}\n{rendered}"
            );
        }
        // A burst of steady-state allocations is caught by the same gate.
        let leaky = FleetScalePoint {
            steady_allocs: Some(4_096),
            ..fleet_scale_point()
        };
        let deltas = diff(
            &snapshot_with_scale_points(far_point(), fleet_scale_point(), placement_scale_point()),
            &snapshot_with_scale_points(far_point(), leaky, placement_scale_point()),
        )
        .unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(
            offenders
                .iter()
                .any(|m| m.name == "fleet_scale[shards=100000].steady_allocs"),
            "{rendered}"
        );
    }

    #[test]
    fn placement_scale_is_gated_direction_aware() {
        // The incremental placement window triples while the from-scratch
        // arm holds still: both the wall metric and the hardware-immune
        // speedup ratio offend. The untouched fleet_scale twin stays clean
        // — the `place_`-prefixed keys keep the two sections' rows apart
        // in the line-keyed parser.
        let baseline =
            snapshot_with_scale_points(far_point(), fleet_scale_point(), placement_scale_point());
        let slow = PlacementScalePoint {
            incremental_us: placement_scale_point().incremental_us * 3.0,
            ..placement_scale_point()
        };
        let deltas = diff(
            &baseline,
            &snapshot_with_scale_points(far_point(), fleet_scale_point(), slow),
        )
        .unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        for name in [
            "placement_scale[shards=100000].place_incremental_us",
            "placement_scale[shards=100000].place_speedup",
        ] {
            assert!(
                offenders.iter().any(|m| m.name == name),
                "{name}\n{rendered}"
            );
        }
        assert!(
            !offenders.iter().any(|m| m.name.starts_with("fleet_scale")),
            "{rendered}"
        );

        // Steady placement allocations leaking in from the zero baseline
        // hard-fail: the regression is infinite, beyond any tolerance.
        let leaky = PlacementScalePoint {
            steady_allocs: Some(64),
            ..placement_scale_point()
        };
        let deltas = diff(
            &baseline,
            &snapshot_with_scale_points(far_point(), fleet_scale_point(), leaky),
        )
        .unwrap();
        let alloc_delta = deltas
            .iter()
            .find(|d| d.name == "placement_scale[shards=100000].place_steady_allocs")
            .expect("gated metric present");
        assert_eq!(alloc_delta.regression(), f64::INFINITY);
        let (rendered, offenders) = report(&deltas, 1_000_000.0);
        assert!(
            offenders
                .iter()
                .any(|m| m.name == "placement_scale[shards=100000].place_steady_allocs"),
            "an infinite regression must offend at any tolerance\n{rendered}"
        );
    }

    #[test]
    fn metrics_new_in_current_are_informational_not_failures() {
        // An old-schema baseline (no event_queue / runtime sections)
        // against a full current snapshot: the gate must pass, and the new
        // metrics must render as informational.
        let deltas = diff(&old_schema_snapshot(2.0, 1000.0), &snapshot(2.0, 1000.0)).unwrap();
        let news: Vec<&MetricDelta> = deltas.iter().filter(|d| d.is_new()).collect();
        assert_eq!(
            news.len(),
            22,
            "calendar_ns, eq_speedup, the two event_queue_far metrics, the \
             three fleet_scale metrics, the three placement_scale metrics, \
             runtime tps, worker_pool tps, pause_us, pause_speedup, \
             cross_fraction, mean_sojourn_ms, cross_cut, and the five soak \
             metrics"
        );
        assert!(news.iter().all(|d| d.regression() == 0.0));
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(offenders.is_empty(), "{rendered}");
        assert!(rendered.contains("new (not in baseline; informational)"));
        // Even with an absurd tolerance of zero, new metrics never offend.
        let (_, offenders) = report(&deltas, 0.0);
        assert!(offenders.iter().all(|m| !m.is_new()));
    }

    #[test]
    fn passes_within_tolerance_and_on_improvement() {
        let deltas = diff(&snapshot(2.0, 1000.0), &snapshot(2.1, 2000.0)).unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(offenders.is_empty(), "{rendered}");
        assert!(rendered.contains("improved"));
    }

    #[test]
    fn rejects_non_perf_files() {
        assert!(parse_metrics("{\"unrelated\": true}").is_err());
        assert!(diff(&snapshot(1.0, 1.0), "{}").is_err());
    }

    #[test]
    fn direction_awareness_is_per_metric() {
        // heap_us *down* and throughput *down* move the same way
        // numerically, but only the throughput drop is a regression.
        let deltas = diff(&snapshot(2.0, 1000.0), &snapshot(1.0, 500.0)).unwrap();
        let heap = deltas.iter().find(|d| d.name.contains("heap_us")).unwrap();
        let tps = deltas
            .iter()
            .find(|d| d.name.contains("trees_per_wall_sec"))
            .unwrap();
        assert!(heap.regression() < 0.0, "lower heap_us is an improvement");
        assert!(tps.regression() > 0.0, "lower throughput is a regression");
        let (_, offenders) = report(&deltas, 0.15);
        assert!(offenders.iter().all(|m| !m.name.contains("heap_us")));
        assert!(offenders
            .iter()
            .any(|m| m.name.contains("trees_per_wall_sec")));
    }

    #[test]
    fn regression_exactly_at_tolerance_passes() {
        // The gate is strict-greater: a 15.000% regression at 15% tolerance
        // must NOT fail the build (noise lands on the boundary).
        let deltas = diff(&snapshot(2.0, 1000.0), &snapshot(2.0, 850.0)).unwrap();
        let tps = deltas
            .iter()
            .find(|d| d.name.contains("trees_per_wall_sec"))
            .unwrap();
        assert!((tps.regression() - 0.15).abs() < 1e-12);
        let (_, offenders) = report(&deltas, 0.15);
        assert!(offenders.is_empty());
        // One ulp beyond the boundary fails.
        let deltas = diff(&snapshot(2.0, 1000.0), &snapshot(2.0, 849.0)).unwrap();
        let (_, offenders) = report(&deltas, 0.15);
        assert_eq!(offenders.len(), 1);
    }

    #[test]
    fn zero_tolerance_flags_any_regression() {
        let deltas = diff(&snapshot(2.0, 1000.0), &snapshot(2.0001, 999.0)).unwrap();
        let (_, offenders) = report(&deltas, 0.0);
        assert!(offenders.len() >= 2, "heap_us and throughput both slipped");
    }

    #[test]
    fn zero_or_negative_baseline_never_divides_by_zero() {
        // A lower-is-better counter growing from a zero baseline is a real
        // regression (steady-state allocations leaking in): flagged, and
        // without ever dividing by the zero.
        let d = MetricDelta {
            name: "synthetic".to_owned(),
            baseline: 0.0,
            current: 5.0,
            higher_is_better: false,
        };
        assert_eq!(d.regression(), f64::INFINITY);
        // A higher-is-better ratio against a zero baseline stays neutral:
        // there is no meaningful reference to regress from.
        let n = MetricDelta {
            name: "neutral".to_owned(),
            baseline: 0.0,
            current: 5.0,
            higher_is_better: true,
        };
        assert_eq!(n.regression(), 0.0);
        let deltas = [d, n];
        let (rendered, offenders) = report(&deltas, 0.15);
        assert_eq!(offenders.len(), 1);
        assert!(rendered.contains("synthetic"));
        assert!(rendered.contains("neutral"));
    }

    #[test]
    fn missing_metric_in_current_is_reported_by_name() {
        // Current snapshot parses but lacks the scheduling rows the
        // baseline gates on: losing coverage stays a hard error even
        // though *gaining* metrics is informational.
        let current = snapshot(2.0, 1000.0)
            .lines()
            .filter(|l| !l.contains("k_max"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = diff(&snapshot(2.0, 1000.0), &current).unwrap_err();
        assert!(
            err.to_string().contains("scheduling[k_max=48].heap_us"),
            "error must name the missing metric: {err}"
        );
    }

    #[test]
    fn malformed_and_empty_baselines_are_errors_not_panics() {
        for junk in ["", "not json at all", "{\"k_max\": }", "[1, 2, 3]"] {
            let err = parse_metrics(junk).unwrap_err();
            assert!(err.to_string().contains("perfdiff"), "{junk:?} -> {err}");
            assert!(
                diff(junk, &snapshot(1.0, 1.0)).is_err(),
                "baseline {junk:?}"
            );
            assert!(diff(&snapshot(1.0, 1.0), junk).is_err(), "current {junk:?}");
        }
    }

    #[test]
    fn improvement_label_requires_beating_tolerance() {
        // A 10% gain at 15% tolerance is "ok", not "improved": the label
        // only fires outside the noise band, mirroring the regression side.
        let deltas = diff(&snapshot(2.0, 1000.0), &snapshot(2.0, 1100.0)).unwrap();
        let (rendered, offenders) = report(&deltas, 0.15);
        assert!(offenders.is_empty());
        assert!(!rendered.contains("improved"), "{rendered}");
        let deltas = diff(&snapshot(2.0, 1000.0), &snapshot(2.0, 1300.0)).unwrap();
        let (rendered, _) = report(&deltas, 0.15);
        assert!(rendered.contains("improved"), "{rendered}");
    }
}
