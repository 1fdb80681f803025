//! Compare mode: judges a change against its parent from paired runs.
//!
//! `perfbench compare <parent_dir> <change_dir>` reads, from each
//! directory, `<workload>.jsonl`: the result lines of that side's runs
//! in the order they were made (run i of the parent pairs with run i of
//! the change; alternate which side runs first). Metric directions and
//! bounds come from `BENCHMARK.json`.
//!
//! A workload with any run reading `"correct": false`, on either side,
//! is rejected and not judged. Otherwise, per metric:
//! - **unresolved**: either side's quartile spread, as a share of its
//!   median, is wider than the bound, unless every change run reads
//!   better than every parent run;
//! - **regression**: the change's median is worse than the parent's by
//!   more than the bound (as a share of the parent's median);
//! - **gain**: the change wins at least 9/10 of the pairs (ties count
//!   for neither), the medians differ by more than the parent's
//!   interquartile distance, and the change's median count of failed
//!   operations is no higher than the parent's (shedding load is not a
//!   gain);
//! - **unchanged** otherwise. Per-layer metrics have no bound and are
//!   judged by the gain rule only.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    Unchanged,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, q3) = quartiles(values);
        Side {
            median: median(values),
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Judgement {
    pub verdict: Verdict,
    pub parent: Side,
    pub change: Side,
    pub wins: usize,
    pub pairs: usize,
}

/// Applies the rule above to paired runs of one metric;
/// `fails_more` says whether the change's median failed count is above
/// the parent's.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
    fails_more: bool,
) -> Judgement {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (p, c) = (Side::of(parent), Side::of(change));
    let improvement = if lower_is_better {
        p.median - c.median
    } else {
        c.median - p.median
    };
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better(cv, pv)));
    let gain = pairs > 0 && wins * 10 >= pairs * 9 && improvement > p.q3 - p.q1 && !fails_more;
    let verdict = match bound {
        Some(b) if p.spread().max(c.spread()) > b && !all_better => Verdict::Unresolved,
        Some(b) if -improvement > b * p.median.abs() => Verdict::Regression,
        _ if gain => Verdict::Gain,
        _ => Verdict::Unchanged,
    };
    Judgement {
        verdict,
        parent: p,
        change: c,
        wins,
        pairs,
    }
}

/// Every result line in `path`.
fn read_runs(path: &std::path::Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .map(Json::parse)
        .collect()
}

fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Runs that do not read `"correct": true`.
fn incorrect(runs: &[Json]) -> usize {
    runs.iter()
        .filter(|r| r.get("correct") != Some(&Json::Bool(true)))
        .count()
}

fn median_failed(runs: &[Json]) -> f64 {
    let failed: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.get("failed")?.as_f64())
        .collect();
    median(&failed)
}

/// Judges every listed metric of one workload, prints a line per
/// metric and appends a row per metric to `rows`. Returns the number of
/// regressions, or 1 when the workload is rejected.
fn judge_workload(workload: &str, parent: &[Json], change: &[Json], rows: &mut Vec<Json>) -> usize {
    let bad = (incorrect(parent), incorrect(change));
    if bad != (0, 0) {
        println!(
            "  rejected: {} parent and {} change runs are not correct",
            bad.0, bad.1
        );
        rows.push(Json::obj([
            ("workload", Json::Str(workload.into())),
            ("verdict", Json::Str("rejected".into())),
        ]));
        return 1;
    }
    let fails_more = median_failed(change) > median_failed(parent);
    let mut regressions = 0;
    for m in ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|kind| crate::listed(kind))
    {
        let (p, c) = (values(parent, m.name), values(change, m.name));
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let j = judge(&p, &c, m.lower_is_better, m.bound, fails_more);
        regressions += usize::from(j.verdict == Verdict::Regression);
        println!(
            "  {:<34} parent {:>12.6} [{:.6}, {:.6}]  change {:>12.6} [{:.6}, {:.6}]  wins {}/{}  {}",
            m.name, j.parent.median, j.parent.q1, j.parent.q3, j.change.median, j.change.q1,
            j.change.q3, j.wins, j.pairs, j.verdict.name()
        );
        let side = |s: Side| {
            Json::obj([
                ("median", Json::Num(s.median)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
            ])
        };
        rows.push(Json::obj([
            ("workload", Json::Str(workload.into())),
            ("metric", Json::Str(m.name.into())),
            ("parent", side(j.parent)),
            ("change", side(j.change)),
            ("wins", Json::Num(j.wins as f64)),
            ("pairs", Json::Num(j.pairs as f64)),
            ("verdict", Json::Str(j.verdict.name().into())),
        ]));
    }
    regressions
}

pub fn main(argv: &[String]) -> ExitCode {
    let [parent_dir, change_dir] = argv else {
        eprintln!("usage: perfbench compare <parent_dir> <change_dir>");
        return ExitCode::from(2);
    };
    let mut failures = 0;
    let mut rows = Vec::new();
    for workload in crate::WORKLOADS {
        let file = format!("{workload}.jsonl");
        let sides = (
            read_runs(&std::path::Path::new(parent_dir).join(&file)),
            read_runs(&std::path::Path::new(change_dir).join(&file)),
        );
        let (Ok(parent), Ok(change)) = sides else {
            continue;
        };
        println!(
            "{workload}: {} parent runs, {} change runs",
            parent.len(),
            change.len()
        );
        failures += judge_workload(workload, &parent, &change, &mut rows);
    }
    println!("{}", Json::obj([("comparisons", Json::Arr(rows))]).render());
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 5)).collect()
    }

    #[test]
    fn clear_win_is_a_gain() {
        // Latency: parent 100..104 ms, change 90..94 ms.
        let j = judge(&runs(100.0, 1.0), &runs(90.0, 1.0), true, Some(0.1), false);
        assert_eq!(j.verdict, Verdict::Gain);
        assert_eq!((j.wins, j.pairs), (10, 10));
        assert_eq!(j.parent.median, 102.0);
    }

    #[test]
    fn gain_needs_nine_tenths_of_pairs() {
        let parent = runs(100.0, 1.0);
        let mut change = runs(90.0, 1.0);
        change[0] = 200.0;
        change[1] = 200.0;
        let j = judge(&parent, &change, true, Some(0.5), false);
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::Unchanged);
        change[1] = 91.0;
        assert_eq!(
            judge(&parent, &change, true, Some(0.5), false).verdict,
            Verdict::Gain
        );
    }

    #[test]
    fn gain_needs_medians_apart_by_more_than_the_parent_spread() {
        // Every pair wins by 0.5, but the parent's quartiles are 4 apart.
        let parent = runs(100.0, 2.0);
        let change: Vec<f64> = parent.iter().map(|v| v - 0.5).collect();
        let j = judge(&parent, &change, true, Some(0.1), false);
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn worse_than_the_bound_is_a_regression() {
        // Throughput (higher is better) drops 10 % against a 5 % bound.
        let j = judge(
            &runs(100.0, 0.1),
            &runs(90.0, 0.1),
            false,
            Some(0.05),
            false,
        );
        assert_eq!(j.verdict, Verdict::Regression);
        // Within the bound it is unchanged.
        let j = judge(
            &runs(100.0, 0.1),
            &runs(97.0, 0.1),
            false,
            Some(0.05),
            false,
        );
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        // Quartiles 20 apart around 100: a 20 % spread against 5 %.
        let noisy = runs(90.0, 10.0);
        let j = judge(&runs(100.0, 0.1), &noisy, true, Some(0.05), false);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let j = judge(&runs(200.0, 0.1), &noisy, true, Some(0.05), false);
        assert_eq!(j.verdict, Verdict::Gain);
    }

    #[test]
    fn per_layer_metrics_are_judged_by_the_gain_rule_only() {
        let j = judge(&runs(100.0, 1.0), &runs(150.0, 1.0), true, None, false);
        assert_eq!(j.verdict, Verdict::Unchanged);
        let j = judge(&runs(100.0, 1.0), &runs(50.0, 1.0), true, None, false);
        assert_eq!(j.verdict, Verdict::Gain);
    }

    #[test]
    fn no_gain_when_the_change_fails_more_operations() {
        // Latency looks 10 % better, but the change refused more work.
        let j = judge(&runs(100.0, 1.0), &runs(90.0, 1.0), true, Some(0.1), true);
        assert_eq!(j.verdict, Verdict::Unchanged);
        // A regression is still reported.
        let j = judge(&runs(100.0, 1.0), &runs(150.0, 1.0), true, Some(0.1), true);
        assert_eq!(j.verdict, Verdict::Regression);
    }

    /// A result line with one metric.
    fn result(correct: bool, failed: u32, metric: &str, value: f64) -> Json {
        Json::parse(&format!(
            r#"{{"correct": {correct}, "attempted": 100, "failed": {failed}, "metrics": {{"{metric}": {{"value": {value}, "unit": "s"}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn incorrect_runs_and_failed_counts_are_read_from_result_lines() {
        let runs = [
            result(true, 0, "setup_s", 1.0),
            result(false, 3, "setup_s", 1.0),
            result(true, 2, "setup_s", 1.5),
        ];
        assert_eq!(incorrect(&runs), 1);
        assert_eq!(median_failed(&runs), 2.0);
        assert_eq!(values(&runs, "setup_s"), vec![1.0, 1.0, 1.5]);
    }

    #[test]
    fn a_workload_with_an_incorrect_run_is_rejected() {
        let good: Vec<Json> = (0..10).map(|_| result(true, 0, "setup_s", 1.0)).collect();
        let mut rows = Vec::new();
        assert_eq!(judge_workload("mc_yield", &good, &good, &mut rows), 0);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("verdict").and_then(Json::as_str),
            Some("unchanged")
        );
        let mut bad = good.clone();
        bad[3] = result(false, 0, "setup_s", 1.0);
        let mut rows = Vec::new();
        assert_eq!(judge_workload("mc_yield", &good, &bad, &mut rows), 1);
        assert_eq!(
            rows[0].get("verdict").and_then(Json::as_str),
            Some("rejected")
        );
    }
}
