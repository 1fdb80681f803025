//! Telemetry contract for FISTA's adaptive restart: `solver.restarts`
//! counts restarts taken, `solver.restart_fallbacks` counts restart
//! tests that re-ran the index-order sum because the reordered sum could
//! not certify its sign.
//!
//! The recorder is process-global, so this test lives in a binary of
//! its own.

#![cfg(feature = "telemetry")]

use flexcs_linalg::{vecops, Matrix};
use flexcs_solver::{fista, DenseOperator, IstaConfig, LinearOperator, SolveWorkspace, WarmStart};
use flexcs_telemetry::MemoryRecorder;
use std::sync::Arc;

#[test]
fn restart_counters_report_restarts_and_fallbacks() {
    let recorder = Arc::new(MemoryRecorder::new());
    flexcs_telemetry::install(recorder.clone()).expect("first install");
    let op = DenseOperator::new(Matrix::from_fn(24, 48, |i, j| {
        ((i * 48 + j) as f64 * 0.7).sin() / 24f64.sqrt()
    }));
    let (mut ws, mut warm) = (SolveWorkspace::new(), WarmStart::new());

    // A warm stream over drifting measurements restarts, and every
    // restart test certifies its sign: no fallback.
    let mut cfg = IstaConfig::with_lambda(1e-3);
    cfg.max_iterations = 300;
    for k in 0..6 {
        let b: Vec<f64> = (0..24)
            .map(|i| ((i as f64) * 0.31 + k as f64 * 0.9).sin())
            .collect();
        fista(&op, &b, &cfg, &mut ws, Some(&mut warm)).unwrap();
    }
    let restarts = recorder.counter_value("solver.restarts");
    assert!(restarts > 0);
    assert_eq!(restarts, warm.restarts());
    assert_eq!(recorder.counter_value("solver.restart_fallbacks"), 0);

    // λ above ‖Aᵀb‖∞ keeps every iterate at 0: the warm solve's one
    // restart test sees only zero products and falls back.
    let b: Vec<f64> = (0..24).map(|i| (i as f64 * 0.3).cos()).collect();
    let cfg = IstaConfig::with_lambda(vecops::norm_inf(&op.apply_transpose(&b)) * 1.5);
    let (mut ws, mut warm) = (SolveWorkspace::new(), WarmStart::new());
    fista(&op, &b, &cfg, &mut ws, Some(&mut warm)).unwrap();
    let rec = fista(&op, &b, &cfg, &mut ws, Some(&mut warm)).unwrap();
    assert_eq!(rec.report.iterations, 1);
    assert_eq!(recorder.counter_value("solver.restart_fallbacks"), 1);
    assert_eq!(recorder.counter_value("solver.restarts"), restarts);
}
