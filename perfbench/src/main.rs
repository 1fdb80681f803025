//! One repeatable benchmark for the flexcs decode, serving, tiling and
//! Monte-Carlo paths.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <parent_dir> <change_dir>
//! perfbench record <fig6c_resample|mc_yield>
//! ```
//!
//! A run prints a human-readable report line (`report: {...}`, with the
//! environment stamp, every check, sample counts and `null` for
//! percentiles the sample cannot support) and then, as its last line,
//! the result object. With `--trace 0` the result holds the end-to-end
//! metrics `BENCHMARK.json` lists; with `--trace 1` its per-layer
//! metrics, from a traced run. A failed output check prints
//! `"correct": false` and exits with code 1.

mod compare;
mod env;
mod expected;
mod fig6c;
mod harness;
mod host;
mod json;
mod mc;
mod megapixel;
mod replay;
mod stats;
mod tactile;
mod trace;

use harness::{Args, Outcome};
use json::Json;
use std::process::ExitCode;
use std::sync::OnceLock;

pub const WORKLOADS: [&str; 4] = [
    "fig6c_resample",
    "tactile_serve",
    "megapixel_tiled",
    "mc_yield",
];

/// `BENCHMARK.json`, the one list of metric names, units, directions
/// and bounds: the runs print what it lists and the compare mode judges
/// by it.
fn spec() -> &'static Json {
    static SPEC: OnceLock<Json> = OnceLock::new();
    SPEC.get_or_init(|| {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    })
}

/// One metric listed in `BENCHMARK.json`.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The metrics `BENCHMARK.json` lists under `kind` (`end_to_end` or
/// `per_layer`), in its order.
pub fn listed(kind: &str) -> Vec<MetricSpec> {
    spec()
        .get(kind)
        .map_or(&[][..], Json::as_array)
        .iter()
        .map(|m| MetricSpec {
            name: m.get("name").and_then(Json::as_str).expect("metric name"),
            unit: m.get("unit").and_then(Json::as_str).expect("metric unit"),
            lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

static TRACE_TAG: OnceLock<String> = OnceLock::new();

/// Writes a traced run's spans to `.perfbench/trace/<workload>-<seed>.csv`.
pub fn write_trace(tracer: &trace::Tracer, workload: &str) {
    let tag = TRACE_TAG.get().map_or("run", String::as_str);
    let path = std::path::PathBuf::from(format!(".perfbench/trace/{workload}-{tag}.csv"));
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      perfbench compare <parent_dir> <change_dir>\n\
         \x20      perfbench record <fig6c_resample|mc_yield>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => args.trace = value == "1",
            _ => return None,
        }
    }
    WORKLOADS.contains(&args.workload.as_str()).then_some(args)
}

/// Threads a workload's decoders may fan out to: one, except for
/// `megapixel_tiled`'s 2-thread check.
fn threads_for(workload: &str) -> usize {
    match workload {
        "megapixel_tiled" => 2,
        _ => 1,
    }
}

fn metric(value: Option<f64>, unit: &str) -> Json {
    Json::obj([
        ("value", Json::num_or_null(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// Every end-to-end figure of a run; the result line carries the ones
/// `BENCHMARK.json` lists and the report line all of them. `setup_s` is
/// the median of the run's set-ups (spread over the run) and
/// `throughput` counts the workload's operation (`Outcome::op`) per
/// second, both at the reference host speed (`host`); the report's
/// `throughput_raw` is at the host's own speed. Latencies are per
/// operation
/// (from the due time in the open-loop `tactile_serve`, with refused
/// frames counted as infinitely late).
fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, Option<f64>)> {
    let lat = &outcome.latencies_ms;
    vec![
        ("setup_s", Some(stats::median(&outcome.setup_s))),
        ("throughput", Some(outcome.throughput)),
        ("peak_rss_mb", env::peak_rss_mb()),
        ("latency_p50_ms", stats::percentile(lat, 0.50)),
        ("latency_p99_ms", stats::percentile(lat, 0.99)),
        ("latency_mean_ms", Some(stats::mean(lat))),
        (
            "fail_frac",
            Some(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
    ]
}

fn run(args: &Args) -> ExitCode {
    let outcome: Outcome = match args.workload.as_str() {
        "fig6c_resample" => fig6c::run(args),
        "tactile_serve" => tactile::run(args),
        "megapixel_tiled" => megapixel::run(args),
        "mc_yield" => mc::run(args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let correct = outcome.checks.iter().all(|c| c.ok) && outcome.attempted > 0;
    let lat = &outcome.latencies_ms;
    let e2e = end_to_end(&outcome);

    let checks = outcome
        .checks
        .iter()
        .map(|c| {
            Json::obj([
                ("name", Json::Str(c.name.into())),
                ("ok", Json::Bool(c.ok)),
                ("detail", Json::Str(c.detail.clone())),
            ])
        })
        .collect();
    let mut report = std::collections::BTreeMap::new();
    report.insert("workload".to_string(), Json::Str(args.workload.clone()));
    report.insert("seed".to_string(), Json::Num(args.seed as f64));
    report.insert("scenario".to_string(), Json::Num(args.scenario() as f64));
    report.insert("trace".to_string(), Json::Bool(args.trace));
    report.insert("env".to_string(), env::stamp(outcome.threads));
    report.insert("checks".to_string(), Json::Arr(checks));
    report.insert("operation".to_string(), Json::Str(outcome.op.into()));
    report.insert("latency_samples".to_string(), Json::Num(lat.len() as f64));
    report.insert(
        "setup_samples_s".to_string(),
        Json::Arr(outcome.setup_s.iter().map(|&s| Json::Num(s)).collect()),
    );
    report.insert(
        "throughput_raw".to_string(),
        Json::Num(outcome.throughput_raw),
    );
    let host_ms: Vec<f64> = outcome.host_s.iter().map(|s| s * 1e3).collect();
    report.insert(
        "host_pass_ms_p50".to_string(),
        Json::Num(stats::median(&host_ms)),
    );
    report.insert(
        "host_pass_ms_range".to_string(),
        Json::Arr(vec![
            Json::Num(host_ms.iter().copied().fold(f64::INFINITY, f64::min)),
            Json::Num(host_ms.iter().copied().fold(0.0, f64::max)),
        ]),
    );
    for &(k, v) in &e2e {
        report.insert(k.to_string(), Json::num_or_null(v));
    }
    for (k, v) in &outcome.extra {
        report.insert(k.to_string(), v.clone());
    }
    for (k, v) in &outcome.layers {
        report.insert(k.to_string(), Json::num_or_null(*v));
    }
    println!("report: {}", Json::Obj(report).render());

    // A layer a workload does not exercise, or a percentile its sample
    // cannot support, reads 0 in the result line (null in the report).
    let (kind, figures, missing) = if args.trace {
        ("per_layer", &outcome.layers, Some(0.0))
    } else {
        ("end_to_end", &e2e, None)
    };
    let metrics: std::collections::BTreeMap<String, Json> = listed(kind)
        .iter()
        .map(|m| {
            let value = figures
                .iter()
                .find(|(k, _)| *k == m.name)
                .and_then(|(_, v)| *v)
                .or(missing);
            (m.name.to_string(), metric(value, m.unit))
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        for c in outcome.checks.iter().filter(|c| !c.ok) {
            eprintln!("perfbench: check {} failed: {}", c.name, c.detail);
        }
        ExitCode::FAILURE
    }
}

fn record(argv: &[String]) -> ExitCode {
    let Some(workload) = argv.first() else {
        return usage();
    };
    std::env::set_var("FLEXCS_THREADS", threads_for(workload).to_string());
    for scenario in 0..harness::SCENARIOS {
        let values = match workload.as_str() {
            "fig6c_resample" => fig6c::record(scenario),
            "mc_yield" => mc::record(scenario),
            _ => return usage(),
        };
        for (key, value) in values {
            println!("{}", expected::line(workload, scenario, key, value));
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => compare::main(&argv[1..]),
        Some("record") => record(&argv[1..]),
        _ => {
            let Some(args) = parse_args(&argv) else {
                return usage();
            };
            // Pin the library fan-outs before anything reads the
            // thread count (it is read once and cached).
            std::env::set_var("FLEXCS_THREADS", threads_for(&args.workload).to_string());
            let _ = TRACE_TAG.set(args.seed.to_string());
            run(&args)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_end_to_end_metric_is_computed() {
        let figures = end_to_end(&Outcome::default());
        for m in listed("end_to_end") {
            assert!(
                figures.iter().any(|(k, _)| *k == m.name),
                "{} is listed but not computed",
                m.name
            );
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        assert!(!listed("per_layer").is_empty());
    }
}
