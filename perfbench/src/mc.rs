//! `mc_yield`: the 500-sample Monte-Carlo yield sweep of a 16x16
//! statically selected readout column through `McEngine` (MNA assembly,
//! shared-symbolic sparse LU refactorization, the `McPool`). One
//! client, closed loop, one `McEngine` thread.

use crate::expected;
use crate::harness::{closed_loop, closed_rounds, Args, Outcome, SETUPS};
use crate::json::Json;
use crate::stats::percentile;
use crate::trace::Tracer;
use flexcs_circuit::{
    Circuit, CntTftModel, McEngine, McEngineConfig, McReport, McSample, McTrial, NodeId,
    PtSensorModel, VariationModel, Waveform,
};
use std::time::Instant;

const SIDE: usize = 16;
const TRIALS: usize = 500;
const VDD: f64 = 3.0;
/// One thread: a 2-thread sweep is only as fast as the slower of the
/// host's two vCPUs, and on a shared host its fastest time moved ~20 %
/// between runs (one thread's: under 1 %).
const THREADS: usize = 1;
/// A trial passes when every row readout stays this close (V) to the
/// nominal readout.
const PASS_WINDOW: f64 = 0.025;

/// One statically selected column of a `SIDE x SIDE` pixel array:
/// column 0's active-low select is on, every other column off, so one
/// DC solve reads the selected column through its access TFTs. `model`
/// supplies each access TFT's compact model in raster order.
fn readout_circuit(
    mut model: impl FnMut() -> CntTftModel,
) -> flexcs_circuit::Result<(Circuit, Vec<NodeId>)> {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_vsource(vdd, NodeId::GROUND, Waveform::Dc(VDD));
    let sels: Vec<NodeId> = (0..SIDE)
        .map(|c| {
            let n = ckt.node(&format!("sel{c}"));
            let level = if c == 0 { 0.0 } else { VDD };
            ckt.add_vsource(n, NodeId::GROUND, Waveform::Dc(level));
            n
        })
        .collect();
    let rows: Vec<NodeId> = (0..SIDE).map(|r| ckt.node(&format!("row{r}"))).collect();
    for &row in &rows {
        ckt.add_resistor(row, NodeId::GROUND, 10_000.0)?;
    }
    let sensor = PtSensorModel::default();
    for (r, &row) in rows.iter().enumerate() {
        for (c, &sel) in sels.iter().enumerate() {
            let x = ckt.fresh_node("px");
            ckt.add_tft_with_model(sel, x, vdd, 20.0, model())?;
            let t = 20.0 + 20.0 * ((r * SIDE + c) as f64 / (SIDE * SIDE) as f64);
            ckt.add_resistor(x, row, sensor.resistance(t))?;
        }
    }
    Ok((ckt, rows))
}

struct Setup {
    engine: McEngine,
    variation: VariationModel,
    nominal_rows: Vec<f64>,
}

/// McEngine plus the nominal circuit and its DC readout, and one
/// warm-up sweep (thread stacks, allocator arenas).
fn setup() -> Setup {
    let (ckt, rows) = readout_circuit(CntTftModel::default).expect("nominal circuit builds");
    let op = ckt.dc_operating_point().expect("nominal readout converges");
    let s = Setup {
        engine: McEngine::new(McEngineConfig {
            threads: Some(THREADS),
            ..McEngineConfig::default()
        }),
        variation: VariationModel::default(),
        nominal_rows: rows.iter().map(|&n| op.voltage(n)).collect(),
    };
    sweep(&s, 0).expect("warm-up sweep converges");
    s
}

fn sweep_seed(scenario: u64) -> u64 {
    0x5eed_2020 + scenario
}

/// One trial: perturbed circuit, DC solve, worst row deviation.
fn trial_sample(
    s: &Setup,
    trial: &mut McTrial<'_>,
    mut timed: impl FnMut(&'static str, Instant, Instant),
) -> flexcs_circuit::Result<McSample> {
    let t0 = Instant::now();
    let (ckt, rows) = readout_circuit(|| trial.perturb(&s.variation, &CntTftModel::default()))?;
    let t1 = Instant::now();
    let op = trial.dc(&ckt)?;
    let t2 = Instant::now();
    let worst = rows
        .iter()
        .zip(&s.nominal_rows)
        .map(|(&n, &v0)| (op.voltage(n) - v0).abs())
        .fold(0.0f64, f64::max);
    timed("circuit.mc.build", t0, t1);
    timed("circuit.mc.dc", t1, t2);
    timed("circuit.mc.sample", t0, Instant::now());
    Ok(McSample {
        value: worst,
        pass: worst < PASS_WINDOW,
    })
}

fn sweep(s: &Setup, seed: u64) -> flexcs_circuit::Result<McReport> {
    s.engine
        .run(TRIALS, seed, |trial| trial_sample(s, trial, |_, _, _| {}))
}

fn stats_of(report: &McReport) -> [(&'static str, f64); 3] {
    [
        ("yield", report.stats.yield_fraction()),
        ("margin_p50", report.stats.p50()),
        ("margin_p95", report.stats.p95()),
    ]
}

fn same_stats(a: &McReport, b: &McReport) -> bool {
    a.stats.passes == b.stats.passes
        && crate::harness::bits(&a.stats.values) == crate::harness::bits(&b.stats.values)
}

/// Untraced sweeps for `seconds` in `rounds`; returns the outcome and
/// the first sweep's report.
fn untraced(scenario: u64, seconds: f64, rounds: usize) -> (Outcome, Option<McReport>) {
    let mut out = Outcome {
        threads: THREADS,
        op: "sample",
        ..Outcome::default()
    };
    let seed = sweep_seed(scenario);
    let mut first: Option<McReport> = None;
    let mut diverged = 0usize;
    let run = closed_rounds(seconds, rounds, 1, setup, |s, _| match sweep(s, seed) {
        Ok(report) => {
            match &first {
                None => first = Some(report),
                Some(f) => diverged += usize::from(!same_stats(f, &report)),
            }
            true
        }
        Err(_) => false,
    });
    run.report_into(&mut out, TRIALS as f64, |_| 0);
    out.setup_s = run.setup_s;
    out.latencies_ms = run.latencies_ms;
    out.check(
        "sweeps_repeat",
        diverged == 0,
        format!("{diverged} sweeps differ from the first"),
    );
    if let Some(f) = &first {
        for (key, value) in stats_of(f) {
            out.extra.push((key, Json::Num(value)));
            expected::check_value(&mut out, "mc_yield", scenario, key, value);
        }
    }
    (out, first)
}

fn traced(scenario: u64, seconds: f64, reference: Option<&McReport>, untraced_tp: f64) -> Outcome {
    let mut out = Outcome {
        threads: THREADS,
        op: "sample",
        ..Outcome::default()
    };
    let s = setup();
    let tracer = Tracer::new();
    let seed = sweep_seed(scenario);
    let mut reports = Vec::new();
    let run = closed_loop(seconds, 1, |i| {
        let span = tracer.request("circuit.mc.sweep", i);
        let parent = span.id();
        let report = s.engine.run(TRIALS, seed, |trial| {
            let nominal = trial.is_nominal();
            trial_sample(&s, trial, |name, a, b| {
                if !nominal {
                    tracer.record(name, parent, i, a, b);
                }
            })
        });
        drop(span);
        match report {
            Ok(r) => {
                reports.push(r);
                true
            }
            Err(_) => false,
        }
    });
    run.report_into(&mut out, TRIALS as f64, |_| 0);
    let identical = reference.is_some_and(|r| reports.iter().all(|t| same_stats(r, t)));
    out.check(
        "replay_bit_identical",
        identical,
        "traced sweeps reproduce the untraced McEngine::run stats bit for bit",
    );

    let sm = tracer.summary();
    let samples: Vec<f64> = sm
        .span("circuit.mc.sample")
        .map(|s| s.durations_us.iter().map(|us| us / 1e3).collect())
        .unwrap_or_default();
    let n = samples.len().max(1) as f64;
    let sum = |f: fn(&McReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    out.layer("circuit.mc.sample_ms_p50", percentile(&samples, 0.50));
    out.layer("circuit.mc.sample_ms_p99", percentile(&samples, 0.99));
    out.layer("circuit.mc.build_us", sm.total_per("circuit.mc.build", n));
    out.layer("circuit.mc.dc_us", sm.total_per("circuit.mc.dc", n));
    out.layer("circuit.mc.refactors", sum(|r| r.refactors) / n);
    out.layer(
        "circuit.mc.warm_newton_saved",
        sum(|r| r.warm_newton_saved) / n,
    );
    out.layer(
        "circuit.mc.pool_reuse_ratio",
        sum(|r| r.pool_reuses) / sum(|r| r.pool_checkouts).max(1.0),
    );
    let sweep_us = sm.total_per("circuit.mc.sweep", 1.0);
    out.layer(
        "parallel.efficiency",
        sm.total_per("circuit.mc.sample", 1.0) / (THREADS as f64 * sweep_us),
    );
    out.layer(
        "trace.overhead_pct",
        (untraced_tp / out.throughput - 1.0) * 100.0,
    );
    crate::write_trace(&tracer, "mc_yield");
    out
}

pub fn run(args: &Args) -> Outcome {
    if !args.trace {
        return untraced(args.scenario(), args.seconds, SETUPS).0;
    }
    let (base, reference) = untraced(args.scenario(), args.seconds / 2.0, SETUPS / 2);
    let mut out = traced(
        args.scenario(),
        args.seconds / 2.0,
        reference.as_ref(),
        base.throughput,
    );
    out.checks.extend(base.checks);
    out
}

/// The recorded values of `scenario`: yield and margin quantiles.
pub fn record(scenario: u64) -> Vec<(&'static str, f64)> {
    let report = sweep(&setup(), sweep_seed(scenario)).expect("sweep converges");
    stats_of(&report).to_vec()
}
