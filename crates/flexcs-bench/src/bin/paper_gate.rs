//! CI gate replaying the paper's headline numbers with full telemetry.
//!
//! Runs the temperature-imaging robustness experiment at 0/10/20 %
//! injected sparse errors and checks the claims the reproduction stands
//! on:
//!
//! - with CS reconstruction, RMSE at 10 % errors stays at or below
//!   0.08 (the paper reports ~0.05 against ~0.20 without CS), with
//!   and without decode-side warm starts;
//! - every robustness strategy (testing-based exclusion, median
//!   resampling, RPCA filtering) beats the no-strategy oblivious pass
//!   under blind errors;
//! - frames decoded through the `flexcs-serve` engine come back
//!   bit-identical to the direct decoder path, so the RMSE claims hold
//!   unchanged for served traffic;
//! - the telemetry layer actually observed the run: solver iteration
//!   counts, residual traces, RPCA sweeps and per-stage timings are all
//!   present in the exported snapshot.
//!
//! The telemetry JSON snapshot is written to the path given as the
//! first argument (default `artifacts/paper_gate_telemetry.json`); its
//! per-stage span timings are the instrumented counterpart of the
//! per-layer figures `perfbench --trace 1` reports.
//!
//! Run with:
//! `cargo run --release -p flexcs-bench --features telemetry --bin paper_gate`
//!
//! Exits non-zero when any check fails, so CI can gate on it.

use flexcs_bench::{f4, pct, print_table};
use flexcs_core::{
    outlier_indices, rmse, rpca, run_experiment_batch, run_experiment_stream, Decoder,
    ExperimentConfig, RpcaConfig, SamplingStrategy, SparseErrorModel, SvdPolicy,
};
use flexcs_datasets::{normalize_unit, thermal_frames, ThermalConfig};
use flexcs_linalg::simd;
use flexcs_telemetry::MemoryRecorder;
use std::sync::Arc;

/// Collects failed checks so one run reports every violation at once.
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        println!("  [{}] {name}: {detail}", if ok { "ok" } else { "FAIL" });
        if !ok {
            self.failures.push(format!("{name}: {detail}"));
        }
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "artifacts/paper_gate_telemetry.json".to_string());
    let recorder = Arc::new(MemoryRecorder::with_caps(100_000, 16_384, 4_096));
    flexcs_telemetry::install(recorder.clone())
        .expect("paper_gate is the only recorder installer in this process");
    let mut gate = Gate {
        failures: Vec::new(),
    };
    let seed = 2020;
    let frames = thermal_frames(&ThermalConfig::default(), 3, seed);

    // ----- Headline sweep (Fig. 6a): 50 % sampling, 0/10/20 % errors.
    // The active kernel tier is logged up front so a gate transcript is
    // attributable to the code path that produced it (the CI matrix
    // runs this binary under both the detected tier and
    // FLEXCS_FORCE_SCALAR=1).
    println!(
        "paper_gate: temperature imaging, 32x32, 50% sampling, 3 frames \
         (simd tier: {})\n",
        simd::tier_name()
    );
    let errors = [0.0, 0.10, 0.20];
    let mut rows = Vec::new();
    let mut cs = Vec::new();
    let mut raw = Vec::new();
    for &error in &errors {
        let config = ExperimentConfig {
            sampling_fraction: 0.5,
            error_fraction: error,
            seed,
            ..ExperimentConfig::default()
        };
        let (rmse_cs, rmse_raw) =
            run_experiment_batch(&frames, &config).expect("headline sweep runs");
        rows.push(vec![pct(error), f4(rmse_cs), f4(rmse_raw)]);
        cs.push(rmse_cs);
        raw.push(rmse_raw);
    }
    print_table(&["errors", "rmse with CS", "rmse w/o CS"], &rows);
    println!();
    gate.check(
        "headline-rmse",
        cs[1] <= 0.08,
        format!("rmse with CS at 10% errors = {:.4} (gate: <= 0.08)", cs[1]),
    );
    gate.check(
        "headline-reduction",
        cs[1] < raw[1] / 2.0,
        format!(
            "CS at 10% errors beats raw by >2x ({:.4} vs {:.4})",
            cs[1], raw[1]
        ),
    );
    gate.check(
        "raw-degrades",
        raw[0] < raw[1] && raw[1] < raw[2],
        format!("raw rmse grows with error rate: {raw:?}"),
    );
    gate.check(
        "cs-survives-20pct",
        cs[2] < raw[2],
        format!(
            "CS still beats raw at 20% errors ({:.4} vs {:.4})",
            cs[2], raw[2]
        ),
    );

    // ----- The headline point again with decode warm starts enabled:
    // seeding each solve from the previous frame's solution must not
    // cost reconstruction quality (same Fig. 6a gate).
    let warm_config = ExperimentConfig {
        sampling_fraction: 0.5,
        error_fraction: 0.10,
        seed,
        warm_decode: true,
        ..ExperimentConfig::default()
    };
    let warm_outcomes = run_experiment_stream(&frames, &warm_config).expect("warm sweep runs");
    let warm_rmse =
        warm_outcomes.iter().map(|o| o.rmse_cs).sum::<f64>() / warm_outcomes.len() as f64;
    gate.check(
        "headline-rmse-warm",
        warm_rmse <= 0.08,
        format!("rmse with warm decode at 10% errors = {warm_rmse:.4} (gate: <= 0.08)"),
    );
    gate.check(
        "warm-starts-active",
        recorder.counter_value("solver.warm_starts") > 0,
        format!(
            "solver.warm_starts = {} (decode warm starts exercised)",
            recorder.counter_value("solver.warm_starts")
        ),
    );

    // ----- Strategy ordering under blind errors (Fig. 6c).
    println!("\nstrategy ordering at 10% blind errors (mean over frames):\n");
    let decoder = Decoder::default();
    let m = 32 * 32 / 2;
    let strategies = [
        SamplingStrategy::Oblivious,
        SamplingStrategy::exclude_tested(),
        SamplingStrategy::ResampleMedian { rounds: 10 },
        SamplingStrategy::RpcaFilter { threshold: 0.3 },
    ];
    let mut means = Vec::new();
    let mut srows = Vec::new();
    for strategy in &strategies {
        let mut acc = 0.0;
        for (k, frame) in frames.iter().enumerate() {
            let truth = normalize_unit(frame);
            let (bad, _) = SparseErrorModel::new(0.10)
                .expect("valid error fraction")
                .corrupt(&truth, seed + k as u64 * 131);
            let rec = strategy
                .reconstruct(&bad, m, &decoder, seed + k as u64 * 17)
                .expect("strategy reconstructs");
            acc += rmse(&rec, &truth);
        }
        let mean = acc / frames.len() as f64;
        srows.push(vec![strategy.name().to_string(), f4(mean)]);
        means.push(mean);
    }
    print_table(&["strategy", "rmse"], &srows);
    println!();
    let oblivious = means[0];
    for (strategy, &mean) in strategies.iter().zip(&means).skip(1) {
        gate.check(
            strategy.name(),
            mean < oblivious,
            format!("{mean:.4} beats oblivious {oblivious:.4}"),
        );
    }

    // ----- Randomized vs exact RPCA: the fast L-update engine must
    // flag exactly the same outliers on the Fig. 6c scenarios (the
    // 32x32 frames ride the randomized path under the Auto policy).
    println!("\nrpca engine equivalence (exact Jacobi vs randomized truncated SVD):\n");
    let exact_cfg = RpcaConfig {
        svd: SvdPolicy::Exact,
        ..RpcaConfig::default()
    };
    let auto_cfg = RpcaConfig::default();
    for (k, frame) in frames.iter().enumerate() {
        let truth = normalize_unit(frame);
        let (bad, _) = SparseErrorModel::new(0.10)
            .expect("valid error fraction")
            .corrupt(&truth, seed + k as u64 * 131);
        let dec_exact = rpca(&bad, &exact_cfg).expect("exact rpca converges");
        let dec_fast = rpca(&bad, &auto_cfg).expect("randomized rpca converges");
        let mut flagged_exact = outlier_indices(&dec_exact, 0.3);
        let mut flagged_fast = outlier_indices(&dec_fast, 0.3);
        flagged_exact.sort_unstable();
        flagged_fast.sort_unstable();
        gate.check(
            "rpca-outliers-unchanged",
            flagged_exact == flagged_fast,
            format!(
                "frame {k}: {} outliers exact vs {} randomized{}",
                flagged_exact.len(),
                flagged_fast.len(),
                if flagged_exact == flagged_fast {
                    " (identical sets)"
                } else {
                    " (SETS DIFFER)"
                }
            ),
        );
    }
    gate.check(
        "rpca-rsvd-active",
        recorder.counter_value("rpca.rsvd.solves") > 0,
        format!(
            "rpca.rsvd.solves = {} (randomized path exercised at 32x32)",
            recorder.counter_value("rpca.rsvd.solves")
        ),
    );

    // ----- Service-path equivalence: the same measurements decoded
    // through the flexcs-serve engine must come back bit-identical to
    // the direct decoder path — the serving layer adds scheduling and
    // session management, never numerics — so every RMSE claim above
    // holds unchanged for frames served by the engine.
    println!("\nserve-path equivalence (engine vs direct decoder):\n");
    {
        use flexcs_core::{DecodeWarmState, SamplingPlan};
        use flexcs_serve::{Engine, EngineConfig, FrameRequest, SessionConfig};

        let engine = Engine::new(EngineConfig::default());
        let tenant = engine.register_tenant(SessionConfig::named("paper-gate"));
        let direct = Decoder::default();
        let mut warm = DecodeWarmState::new();
        let mut inputs = Vec::new();
        for (k, frame) in frames.iter().enumerate() {
            let truth = normalize_unit(frame);
            let n = truth.rows() * truth.cols();
            let plan = SamplingPlan::random_subset(n, n / 2, &[], seed + k as u64)
                .expect("sampling plan builds");
            let req = FrameRequest {
                rows: truth.rows(),
                cols: truth.cols(),
                selected: plan.selected().to_vec(),
                y: plan.measure(&truth.to_flat()),
            };
            inputs.push((truth, req));
        }
        let handles: Vec<_> = inputs
            .iter()
            .map(|(_, req)| {
                engine
                    .submit(tenant, req.clone())
                    .expect("engine is running")
                    .accepted()
                    .expect("queue has room")
            })
            .collect();
        for (k, ((truth, req), handle)) in inputs.iter().zip(handles).enumerate() {
            let served = handle.wait().expect("serve decode succeeds");
            let reference = direct
                .reconstruct_warm(req.rows, req.cols, &req.selected, &req.y, &mut warm)
                .expect("direct decode succeeds");
            let identical = served.frame == reference.frame;
            gate.check(
                "serve-path-identical",
                identical,
                format!(
                    "frame {k}: engine rmse {:.4} vs direct {:.4}{}",
                    rmse(&served.frame, truth),
                    rmse(&reference.frame, truth),
                    if identical {
                        " (bit-identical)"
                    } else {
                        " (FRAMES DIFFER)"
                    }
                ),
            );
        }
        engine.shutdown();
    }

    // ----- Adaptive-tier routing: a scripted tactile micro-stream
    // through an adaptive serve session must exercise every decode
    // tier — previous-frame reuse, budget-capped delta, greedy event,
    // full event — and the serve layer must attribute each frame to
    // its tier (checked below via the serve.tier.* counters).
    println!("\nadaptive-tier routing (serve.tier.* coverage):\n");
    {
        use flexcs_core::{AdaptiveConfig, SamplingPlan};
        use flexcs_linalg::Matrix;
        use flexcs_serve::{Engine, EngineConfig, FrameRequest, SessionConfig};
        use flexcs_transform::Dct2d;

        let (rows, cols) = (16, 16);
        let n = rows * cols;
        let dct = Dct2d::new(rows, cols).expect("dct builds");
        // Tier gating re-encodes the previous reconstruction through
        // the cached plan, so the scan pattern stays fixed across the
        // stream (as it is on a deployed array).
        let plan = SamplingPlan::random_subset(n, n / 2, &[], seed + 777).expect("plan builds");
        let mut scenes: Vec<Matrix> = Vec::new();
        let mut coeffs = Matrix::zeros(rows, cols);
        coeffs[(0, 0)] = 4.0;
        coeffs[(1, 1)] = 1.5;
        coeffs[(0, 3)] = -0.9;
        coeffs[(2, 2)] = 0.7;
        coeffs[(4, 1)] = 0.5;
        // Frame 0 has no reference: an event, and a 5-sparse one, so it
        // routes to the greedy tier. The two repeats hold still.
        scenes.push(coeffs.clone());
        scenes.push(coeffs.clone());
        scenes.push(coeffs.clone());
        for _ in 0..2 {
            // One coefficient drifts by ~13 % of the frame norm: inside
            // the delta band (5–30 % relative residual).
            coeffs[(1, 1)] += 0.6;
            scenes.push(coeffs.clone());
        }
        // An abrupt dense scene (120 active coefficients) overwhelms
        // the greedy sparsity cap and takes the full decode, then
        // settles into a final static hold.
        let mut dense = Matrix::zeros(rows, cols);
        for i in 0..12 {
            for j in 0..10 {
                dense[(i, j)] = if (i + j) % 2 == 0 { 0.5 } else { -0.5 };
            }
        }
        scenes.push(dense.clone());
        scenes.push(dense);

        let engine = Engine::new(EngineConfig::default());
        let tenant = engine.register_tenant(
            SessionConfig::named("paper-gate-adaptive").with_adaptive(AdaptiveConfig::default()),
        );
        // Waiting on each frame before submitting the next keeps the
        // stream ordered regardless of worker scheduling — tier gating
        // is a per-session sequential contract.
        for scene in &scenes {
            let frame = dct.inverse(scene).expect("inverse dct");
            let req = FrameRequest {
                rows,
                cols,
                selected: plan.selected().to_vec(),
                y: plan.measure(&frame.to_flat()),
            };
            engine
                .submit(tenant, req)
                .expect("engine is running")
                .accepted()
                .expect("queue has room")
                .wait()
                .expect("adaptive decode succeeds");
        }
        engine.shutdown();
        for t in ["static", "delta", "event_greedy", "event_full"] {
            let counter = format!("serve.tier.{t}");
            let v = recorder.counter_value(&counter);
            gate.check(
                "tel-serve-tiers",
                v > 0,
                format!("{counter} = {v} (tier exercised and attributed)"),
            );
        }
    }

    // ----- Block-path equivalence: a frame tiled through the block
    // pipeline must reproduce the per-block fresh-workspace decodes
    // exactly (zero overlap ⇒ bitwise pasting), so the block fan-out
    // adds scale, never numerics.
    println!("\nblock-path equivalence (block pipeline vs fresh decodes):\n");
    {
        use flexcs_core::{BlockGrid, BlockGridConfig, BlockPipeline, BlockPipelineConfig};
        use flexcs_linalg::Matrix;

        let truth = normalize_unit(&frames[0]);
        let (rows, cols) = truth.shape();
        let grid = BlockGrid::new(
            rows * 2,
            cols * 2,
            BlockGridConfig {
                block: rows,
                overlap: 0,
            },
        )
        .expect("grid builds");
        let big = Matrix::from_fn(rows * 2, cols * 2, |i, j| truth[(i % rows, j % cols)]);
        let meas = grid
            .measure(&big, 0.5, &[], seed)
            .expect("block measurement succeeds");
        let pipeline = BlockPipeline::new(Decoder::default(), BlockPipelineConfig::default());
        let out = pipeline
            .decode(&grid, &meas)
            .expect("block decode succeeds");
        let fresh = Decoder::default();
        let mut identical = true;
        for (i, block) in meas.blocks.iter().enumerate() {
            let tile = fresh
                .reconstruct(rows, cols, block.plan.selected(), &block.y)
                .expect("fresh block decode succeeds")
                .frame;
            let rect = grid.rect(i);
            identical &= (0..rows).all(|r| {
                (0..cols).all(|c| {
                    out.frame[(rect.row0 + r, rect.col0 + c)].to_bits() == tile[(r, c)].to_bits()
                })
            });
        }
        gate.check(
            "block-path-identical",
            identical,
            format!(
                "{} tiled block decodes vs fresh workspaces{}",
                grid.block_count(),
                if identical {
                    " (bit-identical)"
                } else {
                    " (FRAMES DIFFER)"
                }
            ),
        );
    }

    // ----- The telemetry layer must have observed all of the above.
    println!("\ntelemetry coverage:\n");
    let fista_iters = recorder.counter_value("solver.fista.iterations");
    gate.check(
        "tel-solver-iterations",
        fista_iters > 0,
        format!("solver.fista.iterations = {fista_iters}"),
    );
    gate.check(
        "tel-residual-trace",
        recorder.solver_trace_len() > 0
            && recorder
                .histogram_snapshot("solver.fista.residual")
                .is_some(),
        format!("{} solver iterates traced", recorder.solver_trace_len()),
    );
    gate.check(
        "tel-rpca-sweeps",
        recorder.counter_value("rpca.sweeps") > 0 && !recorder.rpca_trace().is_empty(),
        format!("rpca.sweeps = {}", recorder.counter_value("rpca.sweeps")),
    );
    let tier_counter = format!("simd.tier.{}", simd::tier_name());
    gate.check(
        "tel-simd-tier",
        recorder.counter_value(&tier_counter) > 0,
        format!(
            "{tier_counter} = {} (decode runs attributed to the active kernel tier)",
            recorder.counter_value(&tier_counter)
        ),
    );
    gate.check(
        "tel-serve-frames",
        recorder.counter_value("serve.frames") > 0 && recorder.counter_value("serve.submitted") > 0,
        format!(
            "serve.frames = {} (engine decodes attributed by the serve layer)",
            recorder.counter_value("serve.frames")
        ),
    );
    gate.check(
        "tel-block-counters",
        recorder.counter_value("blocks.decoded") > 0
            && recorder.histogram_snapshot("blocks.block_ms").is_some(),
        format!(
            "blocks.decoded = {} (block fan-out instrumented)",
            recorder.counter_value("blocks.decoded")
        ),
    );
    // A tiny Monte-Carlo yield sweep exercises the circuit engine's
    // instrumentation: sample/refactor/warm-start counters plus the
    // per-sample latency histogram must land in the snapshot.
    let mc_report = flexcs_circuit::inverter_yield_mc(
        &flexcs_circuit::McEngine::default(),
        &flexcs_circuit::VariationModel::default(),
        3.0,
        0.6,
        4,
        seed,
    )
    .expect("MC telemetry sweep runs");
    gate.check(
        "tel-mc-counters",
        recorder.counter_value("mc.samples") == 4
            && recorder.counter_value("mc.refactors") > 0
            && recorder.counter_value("mc.refactors") == mc_report.refactors
            && recorder.histogram_snapshot("mc.sample_ms").is_some(),
        format!(
            "mc.samples = {}, mc.refactors = {}, mc.warm_newton_saved = {} \
             (Monte-Carlo engine instrumented)",
            recorder.counter_value("mc.samples"),
            recorder.counter_value("mc.refactors"),
            recorder.counter_value("mc.warm_newton_saved"),
        ),
    );
    for span in ["decode.solve", "decode.inverse", "strategy.sampling"] {
        let summary = recorder.span_summary(span);
        gate.check(
            "tel-span",
            summary.is_some(),
            match summary {
                Some(s) => format!(
                    "{span}: {} spans, mean {:.1} us",
                    s.count,
                    s.mean_ns() / 1e3
                ),
                None => format!("{span}: never recorded"),
            },
        );
    }
    let frame_reports = recorder.frames();
    gate.check(
        "tel-frame-reports",
        frame_reports.len() >= errors.len() * frames.len(),
        format!("{} per-frame reports", frame_reports.len()),
    );
    gate.check(
        "tel-frames-finite",
        !frame_reports.is_empty() && frame_reports.iter().all(|f| f.rmse.is_finite()),
        "every frame report carries a finite rmse".to_string(),
    );

    // ----- Export the snapshot for CI artifacts / baseline comparison.
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create artifacts dir");
        }
    }
    std::fs::write(&out_path, recorder.snapshot_json()).expect("write telemetry snapshot");
    println!("\nwrote telemetry snapshot to {out_path}");
    if let Some(s) = recorder.span_summary("decode.solve") {
        println!(
            "decode.solve mean: {:.1} us over {} solves \
             (perfbench measures the uninstrumented decode path)",
            s.mean_ns() / 1e3,
            s.count
        );
    }

    if gate.failures.is_empty() {
        println!("\npaper_gate: all checks passed");
    } else {
        println!("\npaper_gate: {} check(s) FAILED:", gate.failures.len());
        for f in &gate.failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
