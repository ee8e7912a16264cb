//! Metric names, summary statistics and the result line.

use crate::trace::json_str;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload's untraced run. The
/// names and units match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("executors_mean", "executors"),
    ("tmax_met_frac", "ratio"),
];

/// Per-layer metrics, printed by every workload's traced run. A metric of
/// a layer the workload does not exercise reads 0 (see the README's
/// table for which workload fills which metric).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("latency_ms_p90", "ms"),
    ("loadgen.lag_ms_p99", "ms"),
    ("apps.sift-extractor.us_per_tuple", "us"),
    ("apps.feature-matcher.us_per_tuple", "us"),
    ("apps.matching-aggregator.us_per_tuple", "us"),
    ("apps.busy_share", "ratio"),
    ("apps.single_thread_tuples_per_s", "tuples/s"),
    ("runtime.cpu_us_per_tuple", "us"),
    ("runtime.sojourn_ms_p50", "ms"),
    ("runtime.sojourn_ms_p99", "ms"),
    ("runtime.suspensions_per_ktuple", "1/ktuple"),
    ("runtime.peak_queue_depth", "count"),
    ("runtime.sift-extractor.busy_share", "ratio"),
    ("runtime.feature-matcher.busy_share", "ratio"),
    ("runtime.matching-aggregator.busy_share", "ratio"),
    ("runtime.rebalance_pause_us_p50", "us"),
    ("runtime.scaling_ratio", "ratio"),
    ("backend.calls_ms_per_window", "ms"),
    ("core.fleet.step_self_ms_p50", "ms"),
    ("core.placement.solver_calls_per_window", "count"),
    ("core.placement.full_solves", "count"),
    ("core.fleet.capped_per_window", "count"),
    ("core.fleet.gated_per_window", "count"),
    ("core.fleet.rebalanced_per_window", "count"),
    ("core.fleet.wasted_grants", "count"),
    ("alloc.per_window", "count"),
    ("sim.advance_ms_per_window", "ms"),
    ("sim.trees_per_window", "count"),
    ("core.driver.decide_us_per_window", "us"),
    ("core.driver.rebalances", "count"),
    ("core.model.residual_median", "ratio"),
];

/// The end-to-end figures of one workload run (see the README for what
/// each means on each workload).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub latency_ms_p50: f64,
    pub throughput_per_s: f64,
    pub executors_mean: f64,
    pub tmax_met_frac: f64,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The first failed correctness check, if any.
    pub failure: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: EndToEnd,
    /// Per-layer values this workload measured (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Worker threads the workload drove (0 for single-threaded ones).
    pub workers: usize,
}

impl Outcome {
    /// Records a failed check, keeping the first.
    pub fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": v, "unit": u}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"name\":").count();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Workloads are named too; every other name is a metric above.
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + 4);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
