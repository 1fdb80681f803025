//! The traced decode: `Decoder::reconstruct_warm` rebuilt from its
//! public pieces, with a span around each layer.
//!
//! The steps and their order follow the decoder exactly (shared DCT
//! plan, `SubsampledDctOperator::with_plan`, λ scaled by the largest
//! measurement correlation, `SparseSolver::solve_warm`, inverse DCT), so
//! the replayed frame is bit-identical to the public call; the
//! workloads check that on every traced run.

use crate::harness::Outcome;
use crate::trace::{Summary, TimingOp, Tracer};
use flexcs_core::{BasisKind, Decoder, SubsampledDctOperator};
use flexcs_linalg::{vecops, Matrix};
use flexcs_solver::{LinearOperator, SolveReport, SolveWorkspace, SparseSolver, WarmStart};
use flexcs_transform::{devectorize, Dct2d};
use std::sync::Arc;

/// Warm solver state carried across related solves, like the
/// decoder's `DecodeWarmState`.
#[derive(Debug, Default)]
pub struct WarmParts {
    pub ws: SolveWorkspace,
    pub warm: WarmStart,
}

/// The decoder's λ rule: scale the configured relative λ by ‖Aᵀy‖∞.
fn scaled_solver(base: &SparseSolver, op: &SubsampledDctOperator, y: &[f64]) -> SparseSolver {
    match base {
        SparseSolver::Fista(cfg) | SparseSolver::Ista(cfg) => {
            let scale = vecops::norm_inf(&op.apply_transpose(y));
            let mut scaled = cfg.clone();
            if scale > 0.0 {
                scaled.lambda = cfg.lambda * scale;
            }
            match base {
                SparseSolver::Fista(_) => SparseSolver::Fista(scaled),
                _ => SparseSolver::Ista(scaled),
            }
        }
        other => other.clone(),
    }
}

/// One traced warm decode of a `rows x cols` frame measured at
/// `selected`; returns the frame and the solver report.
#[allow(clippy::too_many_arguments)]
pub fn decode(
    tracer: &Tracer,
    decoder: &Decoder,
    plan: &Arc<Dct2d>,
    rows: usize,
    cols: usize,
    selected: &[usize],
    y: &[f64],
    parts: &mut WarmParts,
) -> Result<(Matrix, SolveReport), String> {
    let _decode = tracer.span("core.decode");
    let setup = tracer.span("core.decode.setup");
    let op = SubsampledDctOperator::with_plan(
        rows,
        cols,
        selected.to_vec(),
        BasisKind::Dct,
        Arc::clone(plan),
    )
    .map_err(|e| e.to_string())?;
    let solver = scaled_solver(decoder.solver(), &op, y);
    drop(setup);

    let solve = tracer.span("solver.solve");
    let timing = TimingOp::new(&op);
    let recovery = solver
        .solve_warm(&timing, y, &mut parts.ws, &mut parts.warm)
        .map_err(|e| e.to_string())?;
    timing.flush(tracer, solve.id());
    drop(solve);

    let _inverse = tracer.span("transform.inverse");
    let coefficients = devectorize(&recovery.x, rows, cols).map_err(|e| e.to_string())?;
    let frame = plan.inverse(&coefficients).map_err(|e| e.to_string())?;
    Ok((frame, recovery.report))
}

/// Solver counters of a warm state, for per-solve deltas.
pub fn warm_counters(warm: &WarmStart) -> [u64; 3] {
    [warm.warm_starts(), warm.saved_iterations(), warm.restarts()]
}

/// Transform, solver and decode layer metrics of replayed decodes.
pub fn decode_layers(out: &mut Outcome, s: &Summary, solves: f64) {
    let calls = s.agg_calls("transform.apply") + s.agg_calls("transform.apply_t");
    out.layer("transform.apply_calls", calls as f64 / solves);
    out.layer("transform.apply_us", s.agg_mean_us("transform.apply"));
    out.layer("transform.apply_t_us", s.agg_mean_us("transform.apply_t"));
    out.layer(
        "transform.norm_us",
        s.aggregates.get("transform.norm").map_or(0.0, |a| a.1) / solves,
    );
    out.layer(
        "transform.inverse_us",
        s.total_per("transform.inverse", solves),
    );
    out.layer("solver.arith_us", s.self_per("solver.solve", solves));
    out.layer(
        "core.decode.setup_us",
        s.total_per("core.decode.setup", solves),
    );
    out.layer("core.decode.solve_us", s.total_per("solver.solve", solves));
}
