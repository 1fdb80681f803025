//! Greedy sparse-recovery solvers: OMP, CoSaMP and Subspace Pursuit.
//!
//! These recover a K-sparse coefficient vector from `b = A·x` by
//! iteratively identifying the support and refitting by least squares.
//! They are the fast, easily-tuned baselines the flexcs decoder offers
//! alongside the convex (L1) solvers the paper's Eq. 9 calls for — and
//! the low-latency tier the adaptive decode pipeline routes small-K
//! event frames to.
//!
//! Like the iterative solvers, each algorithm takes the caller's
//! [`SolveWorkspace`], whose greedy arena makes the inner loop
//! allocation-free after warm-up; reusing a workspace is bit-identical
//! to a fresh one.

use crate::error::{Result, SolverError};
use crate::op::{check_measurements, dense_submatrix_into, LinearOperator};
use crate::report::{Recovery, SolveReport};
use crate::tel;
use crate::workspace::SolveWorkspace;
use flexcs_linalg::vecops;
use flexcs_linalg::{Matrix, QrScratch};

/// Configuration shared by the greedy solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyConfig {
    /// Target sparsity `K` (maximum support size).
    pub sparsity: usize,
    /// Stop when `‖r‖₂ ≤ residual_tol · ‖b‖₂`.
    pub residual_tol: f64,
    /// Iteration budget (OMP additionally never exceeds `K` iterations).
    pub max_iterations: usize,
    /// Stall-abort progress threshold: an OMP iteration counts as
    /// stalled when it leaves more than `stall_factor` of the previous
    /// residual norm. Only consulted when `stall_patience > 0`.
    pub stall_factor: f64,
    /// Abort (unconverged) after this many *consecutive* stalled OMP
    /// iterations. `0` (the default) disables the guard, preserving the
    /// historical run-to-budget behavior. Callers that attempt a greedy
    /// fast path with a fallback solver — like the adaptive decode
    /// pipeline — set this so a scene that is not greedy-recoverable
    /// fails in a handful of iterations instead of burning the whole
    /// sparsity budget on O(m·K²) refits. CoSaMP and Subspace Pursuit
    /// ignore it: their refit-and-prune structure already self-
    /// terminates when the residual stops improving.
    pub stall_patience: usize,
}

impl GreedyConfig {
    /// Creates a configuration with the given sparsity and sensible
    /// defaults (`residual_tol = 1e-6`, `max_iterations = 100`, stall
    /// guard disabled).
    pub fn with_sparsity(sparsity: usize) -> Self {
        GreedyConfig {
            sparsity,
            residual_tol: 1e-6,
            max_iterations: 100,
            stall_factor: 0.0,
            stall_patience: 0,
        }
    }

    fn validate(&self, op: &dyn LinearOperator) -> Result<()> {
        if self.sparsity == 0 {
            return Err(SolverError::InvalidParameter(
                "sparsity must be positive".to_string(),
            ));
        }
        if self.sparsity > op.rows() {
            return Err(SolverError::InvalidParameter(format!(
                "sparsity {} exceeds measurement count {}",
                self.sparsity,
                op.rows()
            )));
        }
        Ok(())
    }
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig::with_sparsity(10)
    }
}

/// Preallocated buffer arena for the greedy solvers.
///
/// Holds the support set, its O(1)-membership boolean mask, the
/// correlation spectrum, residual/coefficient buffers and the
/// least-squares refit scratch (dense submatrix + packed QR factors).
/// Buffers grow on first use and are reused verbatim afterwards, so the
/// greedy solvers run allocation-free inner loops after warm-up. The
/// buffers hold garbage between solves — every solver fully
/// (re)initializes what it reads, so reusing one workspace across
/// different problems is bit-identical to using a fresh one each time.
#[derive(Debug, Clone)]
pub(crate) struct GreedyWorkspace {
    /// Current support (selected atom indices).
    support: Vec<usize>,
    /// Candidate support under construction (CoSaMP/SP).
    new_support: Vec<usize>,
    /// Merged support for the expand step (CoSaMP/SP).
    merged: Vec<usize>,
    /// Top-correlation candidate indices.
    omega: Vec<usize>,
    /// Prune-step index selection.
    keep: Vec<usize>,
    /// O(1) membership mask over the `n` atoms (cleared after each use).
    in_support: Vec<bool>,
    /// Correlation spectrum `Aᵀr` (`n`).
    corr: Vec<f64>,
    /// Correlation magnitudes restricted to the merged support.
    corr_mag: Vec<f64>,
    /// Current residual `b − A·x` (`m`).
    residual: Vec<f64>,
    /// Candidate residual (SP).
    new_residual: Vec<f64>,
    /// Coefficients on the current support.
    coef: Vec<f64>,
    /// Candidate coefficients (SP).
    new_coef: Vec<f64>,
    /// Coefficients on the merged support (CoSaMP/SP expand refit).
    coef_merged: Vec<f64>,
    /// Refit prediction `A_S·coef` (`m`).
    fit: Vec<f64>,
    /// Dense iterate (CoSaMP tracks the scattered estimate).
    x: Vec<f64>,
    /// Column-extraction basis scratch (`LinearOperator::column_into`).
    basis: Vec<f64>,
    /// Column-extraction output scratch.
    col: Vec<f64>,
    /// Dense submatrix restricted to the support, rebuilt per refit.
    sub: Matrix,
    /// Packed QR factorization storage reused across refits.
    qr: QrScratch,
}

impl Default for GreedyWorkspace {
    fn default() -> Self {
        GreedyWorkspace {
            support: Vec::new(),
            new_support: Vec::new(),
            merged: Vec::new(),
            omega: Vec::new(),
            keep: Vec::new(),
            in_support: Vec::new(),
            corr: Vec::new(),
            corr_mag: Vec::new(),
            residual: Vec::new(),
            new_residual: Vec::new(),
            coef: Vec::new(),
            new_coef: Vec::new(),
            coef_merged: Vec::new(),
            fit: Vec::new(),
            x: Vec::new(),
            basis: Vec::new(),
            col: Vec::new(),
            sub: Matrix::zeros(0, 0),
            qr: QrScratch::new(),
        }
    }
}

fn scatter(n: usize, support: &[usize], values: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for (&j, &v) in support.iter().zip(values) {
        x[j] = v;
    }
    x
}

/// Least-squares coefficients on a support, into workspace buffers.
#[allow(clippy::too_many_arguments)]
fn refit_coef_in(
    op: &dyn LinearOperator,
    support: &[usize],
    b: &[f64],
    sub: &mut Matrix,
    qr: &mut QrScratch,
    basis: &mut Vec<f64>,
    col: &mut Vec<f64>,
    coef: &mut Vec<f64>,
) -> Result<()> {
    dense_submatrix_into(op, support, sub, basis, col);
    qr.factor_from(sub)?;
    qr.solve_least_squares_into(b, coef)?;
    Ok(())
}

/// [`refit_coef_in`] plus the prediction and residual `b − A_S·coef`.
#[allow(clippy::too_many_arguments)]
fn refit_in(
    op: &dyn LinearOperator,
    support: &[usize],
    b: &[f64],
    sub: &mut Matrix,
    qr: &mut QrScratch,
    basis: &mut Vec<f64>,
    col: &mut Vec<f64>,
    coef: &mut Vec<f64>,
    fit: &mut Vec<f64>,
    residual: &mut Vec<f64>,
) -> Result<()> {
    refit_coef_in(op, support, b, sub, qr, basis, col, coef)?;
    sub.matvec_into(coef, fit)?;
    vecops::sub_into(residual, b, fit);
    Ok(())
}

/// Orthogonal Matching Pursuit, over the caller's [`SolveWorkspace`].
///
/// Adds one atom per iteration (the column most correlated with the
/// residual) and refits by least squares on the accumulated support.
/// The support scan uses an O(1) membership mask, the correlation
/// spectrum lands in a reused buffer via `apply_transpose_into`, and
/// every refit reuses the submatrix and QR storage.
///
/// # Errors
///
/// Returns [`SolverError::DimensionMismatch`] for a wrong-length `b`,
/// [`SolverError::InvalidParameter`] for an unusable configuration, and
/// propagates rank-deficiency failures from the inner least squares.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::Matrix;
/// use flexcs_solver::{omp, DenseOperator, GreedyConfig, SolveWorkspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // x = (0, 3, 0) measured by a well-conditioned 2x3 matrix.
/// let a = Matrix::from_rows(&[&[1.0, 0.6, 0.2], &[0.1, 0.8, -0.5]])?;
/// let op = DenseOperator::new(a);
/// let b = [1.8, 2.4];
/// let cfg = GreedyConfig::with_sparsity(1);
/// let rec = omp(&op, &b, &cfg, &mut SolveWorkspace::new())?;
/// assert!((rec.x[1] - 3.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn omp(
    op: &dyn LinearOperator,
    b: &[f64],
    config: &GreedyConfig,
    ws: &mut SolveWorkspace,
) -> Result<Recovery> {
    let ws = &mut ws.greedy;
    check_measurements(op, b)?;
    config.validate(op)?;
    let n = op.cols();
    let b_norm = vecops::norm2(b);
    if b_norm == 0.0 {
        return Ok(Recovery::new(
            vec![0.0; n],
            SolveReport::new(0, 0.0, true, 0.0),
        ));
    }
    ws.support.clear();
    ws.in_support.clear();
    ws.in_support.resize(n, false);
    ws.residual.clear();
    ws.residual.extend_from_slice(b);
    ws.coef.clear();
    // OMP's support only ever appends, so the dense refit submatrix is
    // grown one column per iteration instead of being re-extracted from
    // the operator on every refit — O(K) column extractions total
    // rather than O(K²).
    ws.sub.reset_zeros(op.rows(), 0);
    let mut iterations = 0;
    let mut prev_rn = b_norm;
    let mut stalled = 0usize;
    let budget = config.sparsity.min(config.max_iterations);
    for _ in 0..budget {
        iterations += 1;
        op.apply_transpose_into(&ws.residual, &mut ws.corr);
        // Best new atom not already selected (O(1) membership mask).
        let mut best = None;
        let mut best_mag = 0.0;
        for (j, &c) in ws.corr.iter().enumerate() {
            if ws.in_support[j] {
                continue;
            }
            if c.abs() > best_mag {
                best_mag = c.abs();
                best = Some(j);
            }
        }
        let Some(j) = best else { break };
        if best_mag < 1e-14 * b_norm {
            break;
        }
        ws.support.push(j);
        ws.in_support[j] = true;
        op.column_into(j, &mut ws.basis, &mut ws.col);
        ws.sub.append_col(&ws.col)?;
        ws.qr.factor_from(&ws.sub)?;
        ws.qr.solve_least_squares_into(b, &mut ws.coef)?;
        ws.sub.matvec_into(&ws.coef, &mut ws.fit)?;
        vecops::sub_into(&mut ws.residual, b, &ws.fit);
        let rn = vecops::norm2(&ws.residual);
        if tel::enabled() {
            tel::iteration(
                "omp",
                iterations,
                vecops::norm1(&ws.coef),
                rn,
                ws.support.len() as f64,
            );
        }
        if rn <= config.residual_tol * b_norm {
            break;
        }
        if config.stall_patience > 0 {
            if rn > config.stall_factor * prev_rn {
                stalled += 1;
                if stalled >= config.stall_patience {
                    break;
                }
            } else {
                stalled = 0;
            }
        }
        prev_rn = rn;
    }
    let res_norm = vecops::norm2(&ws.residual);
    tel::solve_done("omp", iterations, res_norm <= config.residual_tol * b_norm);
    let x = scatter(n, &ws.support, &ws.coef);
    let l1 = vecops::norm1(&x);
    Ok(Recovery::new(
        x,
        SolveReport::new(
            iterations,
            res_norm,
            res_norm <= config.residual_tol * b_norm,
            l1,
        ),
    ))
}

/// CoSaMP (Compressive Sampling Matching Pursuit), over the caller's
/// [`SolveWorkspace`]; allocation-free inner loop after warm-up.
///
/// Each iteration merges the current support with the `2K` most
/// correlated atoms, solves least squares on the merged set, and prunes
/// back to the best `K` entries.
///
/// # Errors
///
/// See [`omp`].
pub fn cosamp(
    op: &dyn LinearOperator,
    b: &[f64],
    config: &GreedyConfig,
    ws: &mut SolveWorkspace,
) -> Result<Recovery> {
    let ws = &mut ws.greedy;
    check_measurements(op, b)?;
    config.validate(op)?;
    let n = op.cols();
    let k = config.sparsity;
    let b_norm = vecops::norm2(b);
    if b_norm == 0.0 {
        return Ok(Recovery::new(
            vec![0.0; n],
            SolveReport::new(0, 0.0, true, 0.0),
        ));
    }
    ws.x.clear();
    ws.x.resize(n, 0.0);
    ws.in_support.clear();
    ws.in_support.resize(n, false);
    ws.residual.clear();
    ws.residual.extend_from_slice(b);
    let mut best_res = f64::INFINITY;
    let mut iterations = 0;
    for _ in 0..config.max_iterations {
        iterations += 1;
        op.apply_transpose_into(&ws.residual, &mut ws.corr);
        vecops::top_k_indices_into(&ws.corr, (2 * k).min(n), &mut ws.omega);
        // Merge the current support (nonzeros of x) with the candidates,
        // using the mask for O(1) duplicate checks.
        ws.merged.clear();
        for (j, &v) in ws.x.iter().enumerate() {
            if v != 0.0 {
                ws.merged.push(j);
            }
        }
        for &j in &ws.merged {
            ws.in_support[j] = true;
        }
        for i in 0..ws.omega.len() {
            let j = ws.omega[i];
            if !ws.in_support[j] {
                ws.merged.push(j);
                ws.in_support[j] = true;
            }
        }
        for &j in &ws.merged {
            ws.in_support[j] = false;
        }
        // Keep the merged support solvable (<= m columns).
        if ws.merged.len() > op.rows() {
            ws.corr_mag.clear();
            for &j in &ws.merged {
                ws.corr_mag.push(ws.corr[j].abs());
            }
            vecops::top_k_indices_into(&ws.corr_mag, op.rows(), &mut ws.keep);
            ws.new_support.clear();
            for &i in &ws.keep {
                ws.new_support.push(ws.merged[i]);
            }
            std::mem::swap(&mut ws.merged, &mut ws.new_support);
        }
        refit_coef_in(
            op,
            &ws.merged,
            b,
            &mut ws.sub,
            &mut ws.qr,
            &mut ws.basis,
            &mut ws.col,
            &mut ws.coef_merged,
        )?;
        // Prune to the K largest coefficients.
        vecops::top_k_indices_into(&ws.coef_merged, k, &mut ws.keep);
        ws.support.clear();
        for &i in &ws.keep {
            ws.support.push(ws.merged[i]);
        }
        // Final refit on the pruned support for an orthogonal residual.
        refit_in(
            op,
            &ws.support,
            b,
            &mut ws.sub,
            &mut ws.qr,
            &mut ws.basis,
            &mut ws.col,
            &mut ws.coef,
            &mut ws.fit,
            &mut ws.residual,
        )?;
        for v in ws.x.iter_mut() {
            *v = 0.0;
        }
        for (&j, &v) in ws.support.iter().zip(&ws.coef) {
            ws.x[j] = v;
        }
        let res_norm = vecops::norm2(&ws.residual);
        if tel::enabled() {
            tel::iteration(
                "cosamp",
                iterations,
                vecops::norm1(&ws.x),
                res_norm,
                ws.support.len() as f64,
            );
        }
        if res_norm <= config.residual_tol * b_norm {
            break;
        }
        if res_norm >= best_res * (1.0 - 1e-9) {
            // No further progress.
            break;
        }
        best_res = res_norm;
    }
    let res_norm = vecops::norm2(&ws.residual);
    tel::solve_done(
        "cosamp",
        iterations,
        res_norm <= config.residual_tol * b_norm,
    );
    let x = ws.x.clone();
    let l1 = vecops::norm1(&x);
    Ok(Recovery::new(
        x,
        SolveReport::new(
            iterations,
            res_norm,
            res_norm <= config.residual_tol * b_norm,
            l1,
        ),
    ))
}

/// Subspace Pursuit, over the caller's [`SolveWorkspace`];
/// allocation-free inner loop after warm-up.
///
/// Like CoSaMP but expands by only `K` candidate atoms per iteration and
/// tracks the best support found; converges in few iterations on
/// well-conditioned problems.
///
/// # Errors
///
/// See [`omp`].
pub fn subspace_pursuit(
    op: &dyn LinearOperator,
    b: &[f64],
    config: &GreedyConfig,
    ws: &mut SolveWorkspace,
) -> Result<Recovery> {
    let ws = &mut ws.greedy;
    check_measurements(op, b)?;
    config.validate(op)?;
    let n = op.cols();
    let k = config.sparsity;
    let b_norm = vecops::norm2(b);
    if b_norm == 0.0 {
        return Ok(Recovery::new(
            vec![0.0; n],
            SolveReport::new(0, 0.0, true, 0.0),
        ));
    }
    ws.in_support.clear();
    ws.in_support.resize(n, false);
    // Initial support: top-K correlations with b.
    op.apply_transpose_into(b, &mut ws.corr);
    vecops::top_k_indices_into(&ws.corr, k.min(n), &mut ws.support);
    refit_in(
        op,
        &ws.support,
        b,
        &mut ws.sub,
        &mut ws.qr,
        &mut ws.basis,
        &mut ws.col,
        &mut ws.coef,
        &mut ws.fit,
        &mut ws.residual,
    )?;
    let mut best_res = vecops::norm2(&ws.residual);
    let mut iterations = 1;
    for _ in 0..config.max_iterations {
        if best_res <= config.residual_tol * b_norm {
            break;
        }
        iterations += 1;
        op.apply_transpose_into(&ws.residual, &mut ws.corr);
        vecops::top_k_indices_into(&ws.corr, k.min(n), &mut ws.omega);
        ws.merged.clear();
        ws.merged.extend_from_slice(&ws.support);
        for &j in &ws.merged {
            ws.in_support[j] = true;
        }
        for i in 0..ws.omega.len() {
            let j = ws.omega[i];
            if !ws.in_support[j] {
                ws.merged.push(j);
                ws.in_support[j] = true;
            }
        }
        for &j in &ws.merged {
            ws.in_support[j] = false;
        }
        if ws.merged.len() > op.rows() {
            ws.merged.truncate(op.rows());
        }
        refit_coef_in(
            op,
            &ws.merged,
            b,
            &mut ws.sub,
            &mut ws.qr,
            &mut ws.basis,
            &mut ws.col,
            &mut ws.coef_merged,
        )?;
        vecops::top_k_indices_into(&ws.coef_merged, k, &mut ws.keep);
        ws.new_support.clear();
        for &i in &ws.keep {
            ws.new_support.push(ws.merged[i]);
        }
        refit_in(
            op,
            &ws.new_support,
            b,
            &mut ws.sub,
            &mut ws.qr,
            &mut ws.basis,
            &mut ws.col,
            &mut ws.new_coef,
            &mut ws.fit,
            &mut ws.new_residual,
        )?;
        let new_res = vecops::norm2(&ws.new_residual);
        if tel::enabled() {
            tel::iteration(
                "subspace_pursuit",
                iterations,
                vecops::norm1(&ws.new_coef),
                new_res,
                ws.new_support.len() as f64,
            );
        }
        if new_res >= best_res * (1.0 - 1e-12) {
            break;
        }
        std::mem::swap(&mut ws.support, &mut ws.new_support);
        std::mem::swap(&mut ws.coef, &mut ws.new_coef);
        std::mem::swap(&mut ws.residual, &mut ws.new_residual);
        best_res = new_res;
    }
    tel::solve_done(
        "subspace_pursuit",
        iterations,
        best_res <= config.residual_tol * b_norm,
    );
    let x = scatter(n, &ws.support, &ws.coef);
    let l1 = vecops::norm1(&x);
    Ok(Recovery::new(
        x,
        SolveReport::new(
            iterations,
            best_res,
            best_res <= config.residual_tol * b_norm,
            l1,
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{gaussian_operator, sparse_signal};
    use crate::DenseOperator;
    use flexcs_linalg::Matrix;

    type Greedy =
        fn(&dyn LinearOperator, &[f64], &GreedyConfig, &mut SolveWorkspace) -> Result<Recovery>;

    fn exact_recovery(solver: Greedy, seed: u64) {
        let (m, n, k) = (40, 100, 5);
        let op = gaussian_operator(m, n, seed);
        let x_true = sparse_signal(n, k, seed + 1);
        let b = op.apply(&x_true);
        let rec = solver(
            &op,
            &b,
            &GreedyConfig::with_sparsity(k),
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        for (a, t) in rec.x.iter().zip(&x_true) {
            assert!((a - t).abs() < 1e-6, "recovery mismatch: {a} vs {t}");
        }
        assert!(rec.report.converged);
    }

    #[test]
    fn omp_exact_recovery() {
        exact_recovery(omp, 11);
    }

    #[test]
    fn cosamp_exact_recovery() {
        exact_recovery(cosamp, 22);
    }

    #[test]
    fn subspace_pursuit_exact_recovery() {
        exact_recovery(subspace_pursuit, 33);
    }

    #[test]
    fn omp_support_size_bounded_by_k() {
        let op = gaussian_operator(30, 80, 5);
        let x_true = sparse_signal(80, 4, 6);
        let b = op.apply(&x_true);
        let rec = omp(
            &op,
            &b,
            &GreedyConfig::with_sparsity(4),
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        assert!(rec.support_size(1e-9) <= 4);
    }

    #[test]
    fn zero_measurements_give_zero_solution() {
        let op = gaussian_operator(10, 20, 1);
        let b = vec![0.0; 10];
        for solver in [omp, cosamp, subspace_pursuit] {
            let rec = solver(
                &op,
                &b,
                &GreedyConfig::with_sparsity(3),
                &mut SolveWorkspace::new(),
            )
            .unwrap();
            assert!(rec.x.iter().all(|&v| v == 0.0));
            assert!(rec.report.converged);
        }
    }

    #[test]
    fn rejects_bad_config() {
        let op = gaussian_operator(10, 20, 2);
        let b = vec![1.0; 10];
        let bad_k = GreedyConfig::with_sparsity(0);
        assert!(omp(&op, &b, &bad_k, &mut SolveWorkspace::new()).is_err());
        let too_big = GreedyConfig::with_sparsity(11);
        assert!(cosamp(&op, &b, &too_big, &mut SolveWorkspace::new()).is_err());
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let op = gaussian_operator(10, 20, 3);
        let b = vec![1.0; 9];
        assert!(matches!(
            subspace_pursuit(
                &op,
                &b,
                &GreedyConfig::with_sparsity(2),
                &mut SolveWorkspace::new()
            ),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn noisy_recovery_degrades_gracefully() {
        let (m, n, k) = (60, 120, 6);
        let op = gaussian_operator(m, n, 77);
        let x_true = sparse_signal(n, k, 78);
        let mut b = op.apply(&x_true);
        // Small additive noise.
        for (i, v) in b.iter_mut().enumerate() {
            *v += 1e-3 * ((i as f64) * 1.7).sin();
        }
        let mut cfg = GreedyConfig::with_sparsity(k);
        cfg.residual_tol = 1e-2;
        let rec = omp(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
        let err: f64 = rec
            .x
            .iter()
            .zip(&x_true)
            .map(|(a, t)| (a - t) * (a - t))
            .sum::<f64>()
            .sqrt();
        let signal: f64 = vecops::norm2(&x_true);
        assert!(
            err / signal < 0.05,
            "relative error {} too big",
            err / signal
        );
    }

    #[test]
    fn omp_identity_operator_copies_b() {
        let op = DenseOperator::new(Matrix::identity(5));
        let b = [0.0, 2.0, 0.0, -1.0, 0.0];
        let rec = omp(
            &op,
            &b,
            &GreedyConfig::with_sparsity(2),
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        assert!((rec.x[1] - 2.0).abs() < 1e-12);
        assert!((rec.x[3] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn stall_guard_aborts_unrecoverable_scene_early() {
        // A dense x (every entry active) gives OMP ~sqrt(1 - 1/n) residual
        // decay per atom: with the stall guard armed the attempt gives up
        // after a handful of iterations instead of burning the whole
        // sparsity budget; without it (the default), it runs to budget.
        let (m, n) = (60, 120);
        let op = gaussian_operator(m, n, 55);
        let x_dense: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * (i as f64 * 0.7).sin()).collect();
        let b = op.apply(&x_dense);
        let mut cfg = GreedyConfig::with_sparsity(40);
        let full = omp(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
        cfg.stall_factor = 0.95;
        cfg.stall_patience = 4;
        let aborted = omp(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
        assert!(!aborted.report.converged);
        assert!(
            aborted.report.iterations < full.report.iterations,
            "stall guard should abort before the full budget ({} vs {})",
            aborted.report.iterations,
            full.report.iterations
        );
        assert!(
            aborted.report.iterations <= 25,
            "aborted after {} of {} iterations",
            aborted.report.iterations,
            full.report.iterations
        );
    }

    #[test]
    fn stall_guard_disabled_is_bit_identical_to_default() {
        let (m, n, k) = (40, 100, 5);
        let op = gaussian_operator(m, n, 66);
        let b = op.apply(&sparse_signal(n, k, 67));
        let base = omp(
            &op,
            &b,
            &GreedyConfig::with_sparsity(k),
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        let mut cfg = GreedyConfig::with_sparsity(k);
        cfg.stall_factor = 0.95;
        cfg.stall_patience = 0; // patience 0 disables the guard entirely
        let guarded = omp(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
        assert_eq!(base.x, guarded.x);
        assert_eq!(base.report.iterations, guarded.report.iterations);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_problems() {
        let mut ws = SolveWorkspace::new();
        for seed in [101_u64, 202, 303] {
            let (m, n, k) = (35, 90, 4);
            let op = gaussian_operator(m, n, seed);
            let b = op.apply(&sparse_signal(n, k, seed + 1));
            let cfg = GreedyConfig::with_sparsity(k);
            for solver in [omp as Greedy, cosamp, subspace_pursuit] {
                let fresh = solver(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
                let reused = solver(&op, &b, &cfg, &mut ws).unwrap();
                assert_eq!(fresh.x, reused.x);
                assert_eq!(fresh.report.iterations, reused.report.iterations);
            }
        }
    }
}
