//! What every workload shares: arguments, the closed-loop timer,
//! repeated set-up, output checks and the outcome a run reports.

use crate::host::{self, Reference};
use crate::json::Json;
use crate::stats::{mean, median};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Scenarios with recorded expected outputs; a seed selects
/// `seed % SCENARIOS`, so any seed maps onto a recorded input.
pub const SCENARIOS: u64 = 64;

impl Args {
    pub fn scenario(&self) -> u64 {
        self.seed % SCENARIOS
    }
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Threads the workload runs, load generator included.
    pub threads: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Set-up time of each repetition at the reference host speed, s.
    pub setup_s: Vec<f64>,
    /// Operations per second at the reference host speed (see
    /// [`crate::host`]) and what one operation is: at the median time
    /// of each operation in the closed loops, at saturation in the open
    /// loop.
    pub throughput: f64,
    /// Operations per second at the host's own speed: at the fastest
    /// time of each operation, or the fastest saturation burst
    /// (reported, not gated).
    pub throughput_raw: f64,
    /// Reference pass times measured through the run, s.
    pub host_s: Vec<f64>,
    pub op: &'static str,
    /// Latency of each timed operation, ms.
    pub latencies_ms: Vec<f64>,
    pub checks: Vec<Check>,
    /// Workload-specific end-to-end figures, reported but not gated.
    pub extra: Vec<(&'static str, Json)>,
    /// Per-layer metrics of a traced run.
    pub layers: Vec<(&'static str, Option<f64>)>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn layer(&mut self, name: &'static str, value: impl Into<Option<f64>>) {
        self.layers.push((name, value.into()));
    }
}

/// Set-ups per run (spread over it); `setup_s` is their median.
pub const SETUPS: usize = 10;

/// Result of a closed loop: one client issuing the next operation when
/// the previous one returns.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Time of each round's set-up at the reference host speed, s.
    pub setup_s: Vec<f64>,
    /// Latency of each operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Index of each operation within its round.
    pub index: Vec<u64>,
    /// Reference pass time right after each operation, s.
    pub host_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl ClosedLoop {
    /// Fills `out`'s counts and throughputs, where one operation does
    /// `work` units and `op(i)` names the operation the `i`-th of a
    /// round performs. Each operation's time is counted in reference
    /// passes of the stretch right after it, which other tenants of the
    /// host slow alike; the throughput is taken at the mean, over
    /// distinct operations, of each one's median count.
    pub fn report_into(&self, out: &mut Outcome, work: f64, op: impl Fn(u64) -> usize) {
        let mut passes: Vec<Vec<f64>> = Vec::new();
        let mut fastest: Vec<f64> = Vec::new();
        for ((&i, &ms), &host_s) in self.index.iter().zip(&self.latencies_ms).zip(&self.host_s) {
            let k = op(i);
            if passes.len() <= k {
                passes.resize(k + 1, Vec::new());
                fastest.resize(k + 1, f64::INFINITY);
            }
            passes[k].push(ms / 1e3 / host_s);
            fastest[k] = fastest[k].min(ms);
        }
        passes.retain(|p| !p.is_empty());
        fastest.retain(|ms| ms.is_finite());
        let per_op: Vec<f64> = passes.iter().map(|p| median(p)).collect();
        out.attempted = self.attempted;
        out.failed = self.failed;
        out.throughput = work / (mean(&per_op) * host::NOMINAL_S);
        out.throughput_raw = work * 1e3 / mean(&fastest);
        out.host_s = self.host_s.clone();
    }
}

/// Splits `seconds` into `rounds`. Each round times a fresh `setup()`,
/// then calls `op(&mut state, i)` for i = 0, 1, ... until its share of
/// the run has passed (at least `min_ops` times), and drops the state.
/// A stretch of reference passes follows the set-up and each operation
/// ([`Reference::after`]). Every round repeats the same operations from
/// the same state; spread over the run, the set-ups meet the same range
/// of host load as the operations. `op` returns whether the operation
/// succeeded.
pub fn closed_rounds<T>(
    seconds: f64,
    rounds: usize,
    min_ops: u64,
    mut setup: impl FnMut() -> T,
    mut op: impl FnMut(&mut T, u64) -> bool,
) -> ClosedLoop {
    let mut out = ClosedLoop::default();
    let reference = Reference::new();
    let rounds = rounds.max(1);
    let start = Instant::now();
    for r in 0..rounds {
        // Rounds end at fixed points of the run, so one that overruns
        // shortens the next.
        let end = seconds * (r + 1) as f64 / rounds as f64;
        let t0 = Instant::now();
        let mut state = setup();
        let setup_s = t0.elapsed().as_secs_f64();
        out.setup_s
            .push(host::at_reference(setup_s, reference.after(setup_s)));
        for i in 0.. {
            let t0 = Instant::now();
            let ok = op(&mut state, i);
            let op_s = t0.elapsed().as_secs_f64();
            out.latencies_ms.push(op_s * 1e3);
            out.host_s.push(reference.after(op_s));
            out.index.push(i);
            out.attempted += 1;
            out.failed += u64::from(!ok);
            if i + 1 >= min_ops && start.elapsed().as_secs_f64() >= end {
                break;
            }
        }
    }
    out
}

/// One round of `closed_rounds` without a set-up.
pub fn closed_loop(seconds: f64, min_ops: u64, mut op: impl FnMut(u64) -> bool) -> ClosedLoop {
    closed_rounds(seconds, 1, min_ops, || (), |_, i| op(i))
}

/// Bit patterns of a frame, for exact comparisons.
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_each_operation_in_reference_passes() {
        // Operations 0 and 1 take 10 and 30 reference passes. The host
        // ran twice as slow throughout (operations and reference alike),
        // and the third run of each was slowed alone.
        let slow = 2.0 * host::NOMINAL_S;
        let ms = |passes: f64| passes * slow * 1e3;
        let run = ClosedLoop {
            latencies_ms: vec![ms(10.0), ms(30.0), ms(10.0), ms(30.0), ms(13.0), ms(45.0)],
            index: vec![0, 1, 2, 3, 4, 5],
            host_s: vec![slow; 6],
            ..ClosedLoop::default()
        };
        let mut out = Outcome::default();
        run.report_into(&mut out, 1.0, |i| i as usize % 2);
        let want = 1.0 / (20.0 * host::NOMINAL_S);
        assert!((out.throughput / want - 1.0).abs() < 1e-12);
        // At the host's own speed the same run reads half as fast.
        assert!((out.throughput_raw / (want / 2.0) - 1.0).abs() < 1e-12);
        // As one operation: the median of 10, 10, 13, 30, 30, 45.
        run.report_into(&mut out, 1.0, |_| 0);
        assert!((out.throughput / (1.0 / (21.5 * host::NOMINAL_S)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_round_times_its_set_up_and_restarts_the_operations() {
        let mut setups = 0;
        let mut seen = Vec::new();
        let run = closed_rounds(
            0.0,
            3,
            2,
            || {
                setups += 1;
                setups
            },
            |round, i| {
                seen.push((*round, i));
                i == 0
            },
        );
        assert_eq!(run.setup_s.len(), 3);
        assert_eq!(run.index, [0, 1, 0, 1, 0, 1]);
        assert_eq!(run.host_s.len(), 6);
        assert_eq!(seen, [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]);
        assert_eq!((run.attempted, run.failed), (6, 3));
    }
}
