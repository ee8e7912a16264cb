//! `drsbench`: the end-to-end and per-layer benchmark of the DRS stack.
//!
//! ```text
//! drsbench --workload <vld_live|null_live|fleet_100k|surge_sim>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one metadata line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans to `traces/` in this package's directory. See
//! README.md for the workloads and metrics.

mod fleet;
mod live;
mod report;
mod surge;
mod timed;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::sync::Arc;
use std::time::Instant;
use trace::json_str;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

const WORKLOADS: [&str; 4] = ["vld_live", "null_live", "fleet_100k", "surge_sim"];

const USAGE: &str = "usage: drsbench --workload <vld_live|null_live|fleet_100k|surge_sim> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("expected seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Metadata printed with every result, so runs on different boxes are
/// never compared blindly.
fn meta_line(args: &Args, workers: usize, load_start: &str, run_secs: f64) -> String {
    format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}, \"workers\": {}, \
         \"loadavg_start\": {}, \"loadavg_end\": {}, \"run_s\": {:.3}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        trace::nproc(),
        json_str(&trace::cpu_model()),
        json_str(env!("DRSBENCH_RUSTC")),
        json_str(env!("DRSBENCH_GIT_REV")),
        workers,
        json_str(load_start),
        json_str(&trace::loadavg()),
        run_secs
    )
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("drsbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let load_start = trace::loadavg();
    let started = Instant::now();
    let tracer = args.trace.then(|| Arc::new(trace::Tracer::new()));
    let t = tracer.as_ref();
    let outcome: Outcome = match args.workload.as_str() {
        "vld_live" => live::run(live::Kind::Vld, args.seed, args.seconds, t),
        "null_live" => live::run(live::Kind::Null, args.seed, args.seconds, t),
        "fleet_100k" => fleet::run(args.seed, args.seconds, t),
        _ => surge::run(args.seed, args.seconds, t),
    };
    let peak_rss_mb = trace::peak_rss_mb();
    let meta = meta_line(
        &args,
        outcome.workers,
        &load_start,
        started.elapsed().as_secs_f64(),
    );

    let mut failure = outcome.failure.clone();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let error_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "error_frac" => Some(error_frac),
                _ => outcome
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v),
            };
            metrics.push((name, value.unwrap_or(0.0), unit));
        }
    } else {
        let e = &outcome.e2e;
        for &(name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => e.setup_s,
                "peak_rss_mb" => peak_rss_mb,
                "latency_ms_p50" => e.latency_ms_p50,
                "throughput_per_s" => e.throughput_per_s,
                "executors_mean" => e.executors_mean,
                _ => e.tmax_met_frac,
            };
            metrics.push((name, value, unit));
        }
    }
    if let Some((name, ..)) = metrics.iter().find(|m| !m.1.is_finite()) {
        failure.get_or_insert(format!("metric {name} is not a finite number"));
    }
    for m in &mut metrics {
        if !m.1.is_finite() {
            m.1 = 0.0;
        }
    }

    if let Some(tracer) = &tracer {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let body = format!("{meta}\n{}", tracer.to_json_lines());
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("drsbench: could not write {}: {e}", path.display());
        }
    }
    if let Some(why) = &failure {
        eprintln!("drsbench: correctness check failed: {why}");
    }
    println!("{meta}");
    println!(
        "{}",
        report::result_line(
            failure.is_none(),
            outcome.attempted,
            outcome.failed,
            &metrics
        )
    );
    if failure.is_some() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_contract_arguments() {
        let args = parse_args(&strings(&[
            "--workload",
            "surge_sim",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(
            args,
            Args {
                workload: "surge_sim".to_owned(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &["--workload", "vld_live", "--seed", "x", "--seconds", "1"],
            &["--workload", "vld_live", "--seed", "1", "--seconds", "0"],
            &["--workload", "vld_live", "--seed", "1"],
            &[
                "--workload",
                "vld_live",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--seed"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
