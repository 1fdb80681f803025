//! `fig6c_resample`: the paper's robustness path (Sec. 4b, Fig. 6c).
//!
//! A drifting 32x32 thermal sequence with 10 % stuck pixels, each frame
//! reconstructed by resample-median over 10 warm FISTA decodes at
//! M = N/2. One client, one thread, closed loop.

use crate::expected;
use crate::harness::{bits, closed_rounds, Args, Outcome, SETUPS};
use crate::replay::{self, WarmParts};
use crate::stats::mean;
use crate::trace::Tracer;
use flexcs_core::{
    rmse, Decoder, SamplingPlan, SamplingStrategy, SparseErrorModel, StrategySession,
};
use flexcs_datasets::{normalize_unit, thermal_sequence, ThermalConfig};
use flexcs_linalg::{vecops, Matrix};
use flexcs_transform::Dct2d;
use std::sync::Arc;

const SIDE: usize = 32;
const N: usize = SIDE * SIDE;
const M: usize = N / 2;
const ROUNDS: usize = 10;
const ERROR_FRACTION: f64 = 0.10;
/// Distinct frames in the sequence; the loop cycles through them and
/// the accuracy check covers the first pass.
const FRAMES: usize = 16;
/// The frame decoded during set-up: the last, so that the first pass,
/// like every later one, warm-starts frame 0 from frame `FRAMES - 1`.
const WARMUP: usize = FRAMES - 1;

struct Inputs {
    scenario: u64,
    truth: Vec<Matrix>,
    measured: Vec<Matrix>,
    seeds: Vec<u64>,
}

fn inputs(scenario: u64) -> Inputs {
    let frames = thermal_sequence(&ThermalConfig::default(), FRAMES, 2020 + scenario);
    let truth: Vec<Matrix> = frames.iter().map(normalize_unit).collect();
    let model = SparseErrorModel::new(ERROR_FRACTION).expect("valid error fraction");
    let measured = truth
        .iter()
        .enumerate()
        .map(|(k, t)| model.corrupt(t, scenario * 7919 + k as u64 * 131).0)
        .collect();
    let seeds = (0..FRAMES as u64)
        .map(|k| scenario * 1000 + k * 17)
        .collect();
    Inputs {
        scenario,
        truth,
        measured,
        seeds,
    }
}

fn new_session() -> StrategySession {
    StrategySession::new(SamplingStrategy::ResampleMedian { rounds: ROUNDS }).with_warm_decode()
}

/// Runs the untraced loop for `seconds` in `rounds`; returns the
/// outcome and the frames of the first pass (for the replay check).
fn untraced(inp: &Inputs, seconds: f64, rounds: usize) -> (Outcome, Vec<Matrix>) {
    let mut out = Outcome {
        threads: 1,
        op: "frame",
        ..Outcome::default()
    };
    // Set-up: decoder, session and one warm-up frame (fills the plan
    // cache and the solver workspace). Every round restarts the warm
    // chain from it, so every round decodes the same frames.
    let setup = || {
        let decoder = Decoder::default();
        let mut session = new_session();
        session
            .reconstruct(&inp.measured[WARMUP], M, &decoder, inp.seeds[WARMUP])
            .expect("warm-up frame decodes");
        (decoder, session)
    };
    let mut first_pass = Vec::with_capacity(FRAMES);
    let mut errors = Vec::with_capacity(FRAMES);
    let mut diverged = 0usize;
    let run = closed_rounds(
        seconds,
        rounds,
        FRAMES as u64,
        setup,
        |(decoder, session), i| {
            let k = i as usize % FRAMES;
            match session.reconstruct(&inp.measured[k], M, decoder, inp.seeds[k]) {
                Ok(frame) => {
                    if first_pass.len() < FRAMES {
                        errors.push(rmse(&frame, &inp.truth[k]));
                        first_pass.push(frame);
                    } else if let Some(want) = first_pass.get(i as usize) {
                        diverged += usize::from(bits(frame.as_slice()) != bits(want.as_slice()));
                    }
                    true
                }
                Err(_) => false,
            }
        },
    );
    run.report_into(&mut out, 1.0, |i| i as usize % FRAMES);
    out.setup_s = run.setup_s;
    out.latencies_ms = run.latencies_ms;
    out.check(
        "rounds_repeat",
        diverged == 0,
        format!("{diverged} frames differ from the first round's"),
    );

    // The Fig. 6c claim: the resampled median beats one blind decode
    // of the same corrupted frames.
    let decoder = Decoder::default();
    let oblivious = mean(
        &(0..FRAMES)
            .map(|k| {
                let frame = SamplingStrategy::Oblivious
                    .reconstruct(&inp.measured[k], M, &decoder, inp.seeds[k])
                    .expect("oblivious decode");
                rmse(&frame, &inp.truth[k])
            })
            .collect::<Vec<_>>(),
    );
    let mean_rmse = mean(&errors);
    out.extra.push(("rmse", crate::json::Json::Num(mean_rmse)));
    out.extra
        .push(("rmse_oblivious", crate::json::Json::Num(oblivious)));
    out.check(
        "beats_oblivious",
        mean_rmse < oblivious,
        format!("mean rmse {mean_rmse:.5} vs one blind decode {oblivious:.5} over {FRAMES} frames"),
    );
    expected::check_value(&mut out, "fig6c_resample", inp.scenario, "rmse", mean_rmse);
    (out, first_pass)
}

/// One traced frame: the session's warm resample-median chain replayed
/// from public pieces.
fn traced_frame(
    tracer: &Tracer,
    decoder: &Decoder,
    plan: &Arc<Dct2d>,
    measured: &Matrix,
    seed: u64,
    parts: &mut WarmParts,
    iterations: &mut Vec<f64>,
) -> Result<Matrix, String> {
    let flat = measured.to_flat();
    let mut stacks: Vec<Vec<f64>> = (0..N).map(|_| Vec::with_capacity(ROUNDS)).collect();
    for r in 0..ROUNDS {
        let sampling = tracer.span("core.sampling.plan");
        let sampling_plan =
            SamplingPlan::random_subset(N, M, &[], seed.wrapping_add(r as u64 * 77))
                .map_err(|e| e.to_string())?;
        let y = sampling_plan.measure(&flat);
        drop(sampling);
        let (frame, report) = replay::decode(
            tracer,
            decoder,
            plan,
            SIDE,
            SIDE,
            sampling_plan.selected(),
            &y,
            parts,
        )?;
        iterations.push(report.iterations as f64);
        for (stack, &v) in stacks.iter_mut().zip(frame.as_slice()) {
            stack.push(v);
        }
    }
    let _median = tracer.span("core.strategy.median");
    Ok(Matrix::from_fn(SIDE, SIDE, |i, j| {
        vecops::median(&stacks[i * SIDE + j])
    }))
}

fn traced(
    inp: &Inputs,
    seconds: f64,
    rounds: usize,
    reference: &[Matrix],
    untraced_tp: f64,
) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        op: "frame",
        ..Outcome::default()
    };
    let tracer = Tracer::new();
    let decoder = Decoder::default();
    let plan = Arc::new(Dct2d::new(SIDE, SIDE).expect("32x32 plan"));
    let mut iterations = Vec::new();
    // Rounds as in the untraced run. Each starts from the same warm-up
    // frame as the untraced session, so the warm chain (and every
    // replayed frame) matches it bit for bit.
    let setup = || {
        let mut parts = WarmParts::default();
        traced_frame(
            &Tracer::new(),
            &decoder,
            &plan,
            &inp.measured[WARMUP],
            inp.seeds[WARMUP],
            &mut parts,
            &mut Vec::new(),
        )
        .expect("warm-up frame decodes");
        parts
    };
    let mut counters = [0u64; 3];
    let mut mismatches = 0usize;
    let run = closed_rounds(seconds, rounds, FRAMES as u64, setup, |parts, i| {
        let k = i as usize % FRAMES;
        let _frame = tracer.request("frame", i);
        let before = replay::warm_counters(&parts.warm);
        let frame = traced_frame(
            &tracer,
            &decoder,
            &plan,
            &inp.measured[k],
            inp.seeds[k],
            parts,
            &mut iterations,
        );
        let after = replay::warm_counters(&parts.warm);
        for (c, (a, b)) in counters.iter_mut().zip(after.iter().zip(before)) {
            *c += a - b;
        }
        match frame {
            Ok(frame) => {
                if let Some(want) = reference.get(i as usize) {
                    mismatches += usize::from(bits(frame.as_slice()) != bits(want.as_slice()));
                }
                true
            }
            Err(_) => false,
        }
    });
    run.report_into(&mut out, 1.0, |i| i as usize % FRAMES);
    out.check(
        "replay_bit_identical",
        mismatches == 0 && reference.len() == FRAMES,
        format!(
            "{mismatches} of {} replayed frames (first pass of each round) differ from StrategySession::reconstruct",
            reference.len() as u64 * run.setup_s.len() as u64
        ),
    );

    let s = tracer.summary();
    let solves = iterations.len() as f64;
    let per_solve = |k: usize| counters[k] as f64 / solves;
    replay::decode_layers(&mut out, &s, solves);
    out.layer("solver.iterations", mean(&iterations));
    out.layer("solver.warm_starts", per_solve(0));
    out.layer("solver.saved_iterations", per_solve(1));
    out.layer("solver.restarts", per_solve(2));
    out.layer(
        "core.sampling.plan_us",
        s.total_per("core.sampling.plan", solves),
    );
    out.layer(
        "core.strategy.median_us",
        s.total_per("core.strategy.median", run.attempted as f64),
    );
    out.layer(
        "trace.overhead_pct",
        (untraced_tp / out.throughput - 1.0) * 100.0,
    );
    crate::write_trace(&tracer, "fig6c_resample");
    out
}

pub fn run(args: &Args) -> Outcome {
    let inp = inputs(args.scenario());
    if !args.trace {
        return untraced(&inp, args.seconds, SETUPS).0;
    }
    // Traced run: half the time untraced (the reference frames and the
    // overhead baseline), half traced.
    let (base, reference) = untraced(&inp, args.seconds / 2.0, SETUPS / 2);
    let mut out = traced(
        &inp,
        args.seconds / 2.0,
        SETUPS / 2,
        &reference,
        base.throughput,
    );
    out.checks.extend(base.checks);
    out
}

/// The recorded values of `scenario`: the mean rmse of the first pass.
pub fn record(scenario: u64) -> Vec<(&'static str, f64)> {
    let (out, _) = untraced(&inputs(scenario), 0.0, 1);
    out.extra
        .iter()
        .filter(|(k, _)| *k == "rmse")
        .filter_map(|(k, v)| Some((*k, v.as_f64()?)))
        .collect()
}
