//! Ablation: sampling-matrix ensemble (DESIGN.md Sec. 5).
//!
//! Classic CS theory favors dense Gaussian/Bernoulli Φ; the paper uses
//! identity-row subsampling because a scan is all the flexible hardware
//! can afford. This bench quantifies that trade-off: RMSE vs sampling
//! rate for all three ensembles (no sparse errors, same decoder).
//!
//! Run with: `cargo run --release -p flexcs-bench --bin sampling_ablation`

use flexcs_bench::{f4, pct, print_table};
use flexcs_core::{rmse, Decoder, SamplingKind, SamplingPlan};
use flexcs_datasets::{normalize_unit, thermal_frame, ThermalConfig};
use flexcs_linalg::Matrix;
use flexcs_solver::{DenseOperator, LinearOperator};
use flexcs_transform::{devectorize, psi_matrix, Dct2d};

/// Reconstructs from dense measurements `y = Φ·frame` by solving over
/// `A = Φ·Ψ` with the default FISTA decoder settings.
fn reconstruct_dense(
    phi: &Matrix,
    y: &[f64],
    rows: usize,
    cols: usize,
) -> Result<Matrix, Box<dyn std::error::Error>> {
    let psi = psi_matrix(rows, cols)?;
    let a = phi.matmul(&psi)?;
    let op = DenseOperator::new(a);
    let mut cfg = flexcs_solver::IstaConfig::with_lambda(2e-3);
    cfg.max_iterations = 400;
    cfg.tol = 1e-7;
    // Scale lambda like the Decoder does.
    let aty = op.apply_transpose(y);
    cfg.lambda *= flexcs_linalg::vecops::norm_inf(&aty).max(1e-12);
    let rec = flexcs_solver::SparseSolver::Fista(cfg).solve(&op, y)?;
    let coeffs = devectorize(&rec.x, rows, cols)?;
    Ok(Dct2d::new(rows, cols)?.inverse(&coeffs)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 2020;
    let (rows, cols) = (16, 16); // dense ensembles need Φ·Ψ materialized
    let n = rows * cols;
    println!("sampling-matrix ablation — {rows}x{cols} thermal frame, no errors\n");
    let truth = normalize_unit(&thermal_frame(
        &ThermalConfig {
            rows,
            cols,
            ..ThermalConfig::default()
        },
        seed,
    ));
    let flat = truth.to_flat();

    let mut table = Vec::new();
    for &fraction in &[0.3, 0.4, 0.5, 0.6] {
        let m = (n as f64 * fraction) as usize;
        let mut cells = vec![pct(fraction)];
        // Identity subset (the paper's scanned Φ).
        let plan = SamplingPlan::random_subset(n, m, &[], seed)?;
        let y = plan.measure(&flat);
        let rec = Decoder::default().reconstruct(rows, cols, plan.selected(), &y)?;
        cells.push(f4(rmse(&rec.frame, &truth)));
        // Dense ensembles.
        for kind in [SamplingKind::Bernoulli, SamplingKind::Gaussian] {
            let plan = SamplingPlan::dense(kind, n, m, seed)?;
            let y = plan.measure(&flat);
            let rec = reconstruct_dense(plan.dense_matrix().unwrap(), &y, rows, cols)?;
            cells.push(f4(rmse(&rec, &truth)));
        }
        table.push(cells);
    }
    print_table(
        &["sampling", "identity (paper)", "bernoulli", "gaussian"],
        &table,
    );
    println!("\ndense ensembles win at low rates (incoherence), but identity subsampling");
    println!("closes the gap by ~50-60% sampling — and only it maps to a simple scan");
    println!("realizable in low-yield flexible hardware (the paper's design point).");
    Ok(())
}
