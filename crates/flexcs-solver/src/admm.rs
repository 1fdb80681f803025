//! ADMM solvers: basis-pursuit denoising (LASSO form) and exact basis
//! pursuit (the paper's Eq. 9, `min ‖x‖₁ s.t. Φ·y = Φ·Ψ·x`).
//!
//! Both cache a single `m x m` Cholesky factorization (via the matrix
//! inversion lemma for BPDN), so per-iteration cost is two triangular
//! solves plus operator products.

use crate::error::{Result, SolverError};
use crate::op::{check_measurements, LinearOperator};
use crate::report::{Recovery, SolveReport};
use crate::tel;
use crate::workspace::SolveWorkspace;
use flexcs_linalg::vecops;
use flexcs_linalg::{Cholesky, Matrix};

/// Configuration for the ADMM solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmConfig {
    /// Augmented-Lagrangian penalty ρ.
    pub rho: f64,
    /// L1 weight λ (ignored by [`admm_basis_pursuit`], which enforces the
    /// measurements exactly).
    pub lambda: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Primal/dual residual tolerance (absolute, on normalized iterates).
    pub tol: f64,
}

impl AdmmConfig {
    /// Creates a configuration with the given λ and defaults
    /// (`rho = 1.0`, `max_iterations = 500`, `tol = 1e-6`).
    pub fn with_lambda(lambda: f64) -> Self {
        AdmmConfig {
            rho: 1.0,
            lambda,
            max_iterations: 500,
            tol: 1e-6,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.rho > 0.0) {
            return Err(SolverError::InvalidParameter(format!(
                "rho must be positive, got {}",
                self.rho
            )));
        }
        if !(self.lambda >= 0.0) {
            return Err(SolverError::InvalidParameter(format!(
                "lambda must be non-negative, got {}",
                self.lambda
            )));
        }
        if self.max_iterations == 0 {
            return Err(SolverError::InvalidParameter(
                "max_iterations must be positive".to_string(),
            ));
        }
        Ok(())
    }
}

impl Default for AdmmConfig {
    fn default() -> Self {
        AdmmConfig::with_lambda(1e-3)
    }
}

/// Builds `ρI_m + A·Aᵀ` from a dense measurement matrix.
fn gram_rho(a: &Matrix, rho: f64) -> Matrix {
    let m = a.rows();
    let mut g = Matrix::zeros(m, m);
    for i in 0..m {
        for j in i..m {
            let v = vecops::dot(a.row(i), a.row(j));
            g[(i, j)] = v;
            g[(j, i)] = v;
        }
    }
    for i in 0..m {
        g[(i, i)] += rho;
    }
    g
}

/// ADMM for basis-pursuit denoising:
/// `min_x λ‖x‖₁ + ½‖A·x − b‖₂²`, over the caller's [`SolveWorkspace`].
///
/// The x-update inverts `(AᵀA + ρI)` through the matrix inversion lemma,
/// so only an `m x m` SPD factorization is required even when `n ≫ m`.
/// The inner loop performs zero heap allocation (`z` is double-buffered
/// in the workspace).
///
/// # Errors
///
/// Returns [`SolverError::DimensionMismatch`] for a wrong-length `b`,
/// [`SolverError::InvalidParameter`] for bad configuration values, and
/// propagates factorization failures.
pub fn admm_bpdn(
    op: &dyn LinearOperator,
    b: &[f64],
    config: &AdmmConfig,
    ws: &mut SolveWorkspace,
) -> Result<Recovery> {
    check_measurements(op, b)?;
    config.validate()?;
    let n = op.cols();
    let mut rho = config.rho;
    let a = op.to_dense();
    let mut chol = Cholesky::factor(&gram_rho(&a, rho))?;
    op.apply_transpose_into(b, &mut ws.weights); // Aᵀb, fixed across the loop.
                                                 // Over-relaxation constant (Boyd et al. recommend 1.5–1.8).
    let alpha = 1.8;

    for buf in [&mut ws.z, &mut ws.z_old, &mut ws.u, &mut ws.x] {
        buf.clear();
        buf.resize(n, 0.0);
    }
    let mut iterations = 0;
    let mut converged = false;
    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        // x-update: (AᵀA + ρI) x = Aᵀb + ρ(z − u), via
        // x = q/ρ − Aᵀ (ρI + AAᵀ)⁻¹ A q / ρ with q the rhs.
        ws.q.clear();
        ws.q.extend(
            ws.weights
                .iter()
                .zip(ws.z.iter().zip(&ws.u))
                .map(|(t, (zi, ui))| t + rho * (zi - ui)),
        );
        op.apply_into(&ws.q, &mut ws.ax);
        chol.solve_into(&ws.ax, &mut ws.w_m)?;
        op.apply_transpose_into(&ws.w_m, &mut ws.grad);
        for i in 0..n {
            ws.x[i] = (ws.q[i] - ws.grad[i]) / rho;
        }
        // z-update on the over-relaxed point; the previous z moves into
        // the double buffer instead of being cloned.
        std::mem::swap(&mut ws.z, &mut ws.z_old);
        for i in 0..n {
            let xh = alpha * ws.x[i] + (1.0 - alpha) * ws.z_old[i];
            ws.z[i] = xh + ws.u[i];
        }
        vecops::soft_threshold_mut(&mut ws.z, config.lambda / rho);
        // Dual update (same relaxed point).
        for i in 0..n {
            let xh = alpha * ws.x[i] + (1.0 - alpha) * ws.z_old[i];
            ws.u[i] += xh - ws.z[i];
        }
        // Residuals.
        let prim = vecops::diff_norm2(&ws.x, &ws.z);
        let dual = rho * vecops::diff_norm2(&ws.z, &ws.z_old);
        let scale = vecops::norm2(&ws.x).max(vecops::norm2(&ws.z)).max(1.0);
        if tel::enabled() {
            tel::iteration(
                "admm_bpdn",
                iterations,
                config.lambda * vecops::norm1(&ws.z),
                prim.max(dual),
                rho,
            );
        }
        if prim <= config.tol * scale && dual <= config.tol * scale {
            converged = true;
            break;
        }
        // Residual balancing (He–Yang–Wang): keep primal and dual
        // residuals within 10x of each other, rescaling u and
        // refactoring when ρ changes.
        if iter % 10 == 9 {
            let mut new_rho = rho;
            if prim > 10.0 * dual {
                new_rho = rho * 2.0;
            } else if dual > 10.0 * prim {
                new_rho = rho / 2.0;
            }
            if new_rho != rho {
                let ratio = rho / new_rho;
                for ui in ws.u.iter_mut() {
                    *ui *= ratio;
                }
                rho = new_rho;
                chol = Cholesky::factor(&gram_rho(&a, rho))?;
            }
        }
    }
    tel::solve_done("admm_bpdn", iterations, converged);
    op.apply_into(&ws.z, &mut ws.ax);
    let residual = vecops::diff_norm2(&ws.ax, b);
    let objective = config.lambda * vecops::norm1(&ws.z) + 0.5 * residual * residual;
    Ok(Recovery::new(
        ws.z.clone(),
        SolveReport::new(iterations, residual, converged, objective),
    ))
}

/// ADMM for exact basis pursuit: `min ‖x‖₁ s.t. A·x = b`, over the
/// caller's [`SolveWorkspace`].
///
/// The x-update projects onto the affine constraint set using a cached
/// factorization of `A·Aᵀ`; the z-update is soft thresholding with
/// `1/ρ`. The inner loop performs zero heap allocation.
///
/// # Errors
///
/// See [`admm_bpdn`]; additionally fails when `A·Aᵀ` is singular (rank
/// deficient measurements).
///
/// # Examples
///
/// ```
/// use flexcs_linalg::Matrix;
/// use flexcs_solver::{admm_basis_pursuit, AdmmConfig, DenseOperator, SolveWorkspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.3, -0.2], &[0.2, 1.1, 0.4]])?;
/// let op = DenseOperator::new(a);
/// let b = [1.0, 0.2]; // x = (1, 0, 0) satisfies A x = b exactly
/// let cfg = AdmmConfig::default();
/// let rec = admm_basis_pursuit(&op, &b, &cfg, &mut SolveWorkspace::new())?;
/// assert!(rec.report.residual_norm < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn admm_basis_pursuit(
    op: &dyn LinearOperator,
    b: &[f64],
    config: &AdmmConfig,
    ws: &mut SolveWorkspace,
) -> Result<Recovery> {
    check_measurements(op, b)?;
    config.validate()?;
    let n = op.cols();
    let rho = config.rho;
    let a = op.to_dense();
    // AAᵀ with a whisper of regularization for numerical rank safety.
    let chol = Cholesky::factor(&gram_rho(&a, 1e-12))?;

    for buf in [&mut ws.z, &mut ws.z_old, &mut ws.u] {
        buf.clear();
        buf.resize(n, 0.0);
    }
    let mut iterations = 0;
    let mut converged = false;
    loop {
        iterations += 1;
        // x-update: project v = z − u onto {x : A x = b}, i.e.
        // x = v − Aᵀ(AAᵀ)⁻¹(A v − b).
        vecops::sub_into(&mut ws.y, &ws.z, &ws.u);
        op.apply_into(&ws.y, &mut ws.ax);
        vecops::sub_into(&mut ws.r, &ws.ax, b);
        chol.solve_into(&ws.r, &mut ws.w_m)?;
        op.apply_transpose_into(&ws.w_m, &mut ws.grad);
        vecops::sub_into(&mut ws.x, &ws.y, &ws.grad);
        // z-update; the previous z moves into the double buffer instead
        // of being cloned.
        std::mem::swap(&mut ws.z, &mut ws.z_old);
        for i in 0..n {
            ws.z[i] = ws.x[i] + ws.u[i];
        }
        vecops::soft_threshold_mut(&mut ws.z, 1.0 / rho);
        for i in 0..n {
            ws.u[i] += ws.x[i] - ws.z[i];
        }
        let prim = vecops::diff_norm2(&ws.x, &ws.z);
        let dual = rho * vecops::diff_norm2(&ws.z, &ws.z_old);
        let scale = vecops::norm2(&ws.x).max(vecops::norm2(&ws.z)).max(1.0);
        if tel::enabled() {
            tel::iteration(
                "admm_bp",
                iterations,
                vecops::norm1(&ws.x),
                prim.max(dual),
                rho,
            );
        }
        if prim <= config.tol * scale && dual <= config.tol * scale {
            converged = true;
            break;
        }
        if iterations >= config.max_iterations {
            break;
        }
    }
    tel::solve_done("admm_bp", iterations, converged);
    // Report x (feasible) rather than z (sparse but infeasible); callers
    // get an exact-measurement solution whose L1 norm ADMM minimized.
    op.apply_into(&ws.x, &mut ws.ax);
    let residual = vecops::diff_norm2(&ws.ax, b);
    let objective = vecops::norm1(&ws.x);
    Ok(Recovery::new(
        ws.x.clone(),
        SolveReport::new(iterations, residual, converged, objective),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{gaussian_operator, sparse_signal};

    #[test]
    fn bpdn_recovers_sparse_signal() {
        let (m, n, k) = (50, 100, 5);
        let op = gaussian_operator(m, n, 21);
        let x_true = sparse_signal(n, k, 22);
        let b = op.apply(&x_true);
        let mut cfg = AdmmConfig::with_lambda(1e-4);
        cfg.max_iterations = 8000;
        cfg.tol = 1e-10;
        let rec = admm_bpdn(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
        let err = vecops::norm2(&vecops::sub(&rec.x, &x_true)) / vecops::norm2(&x_true);
        assert!(err < 2e-2, "relative error {err}");
    }

    #[test]
    fn basis_pursuit_recovers_exactly() {
        let (m, n, k) = (50, 100, 5);
        let op = gaussian_operator(m, n, 31);
        let x_true = sparse_signal(n, k, 32);
        let b = op.apply(&x_true);
        let cfg = AdmmConfig {
            max_iterations: 3000,
            tol: 1e-9,
            rho: 5.0,
            ..AdmmConfig::default()
        };
        let rec = admm_basis_pursuit(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
        let err = vecops::norm2(&vecops::sub(&rec.x, &x_true)) / vecops::norm2(&x_true);
        assert!(err < 1e-3, "relative error {err}");
        assert!(rec.report.residual_norm < 1e-6);
    }

    #[test]
    fn basis_pursuit_solution_is_feasible() {
        let op = gaussian_operator(20, 60, 41);
        let x_true = sparse_signal(60, 3, 42);
        let b = op.apply(&x_true);
        let rec = admm_basis_pursuit(&op, &b, &AdmmConfig::default(), &mut SolveWorkspace::new())
            .unwrap();
        assert!(rec.report.residual_norm < 1e-5 * vecops::norm2(&b).max(1.0));
    }

    #[test]
    fn bpdn_large_lambda_zeroes_solution() {
        let op = gaussian_operator(15, 30, 51);
        let b: Vec<f64> = (0..15).map(|i| (i as f64).cos()).collect();
        let atb = op.apply_transpose(&b);
        let mut cfg = AdmmConfig::with_lambda(vecops::norm_inf(&atb) * 2.0);
        cfg.max_iterations = 1000;
        let rec = admm_bpdn(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
        assert!(vecops::norm_inf(&rec.x) < 1e-8);
    }

    #[test]
    fn invalid_config_rejected() {
        let op = gaussian_operator(10, 20, 61);
        let b = vec![0.0; 10];
        let mut cfg = AdmmConfig {
            rho: 0.0,
            ..AdmmConfig::default()
        };
        assert!(admm_bpdn(&op, &b, &cfg, &mut SolveWorkspace::new()).is_err());
        cfg.rho = 1.0;
        cfg.lambda = -1.0;
        assert!(admm_bpdn(&op, &b, &cfg, &mut SolveWorkspace::new()).is_err());
        cfg.lambda = 0.0;
        cfg.max_iterations = 0;
        assert!(admm_basis_pursuit(&op, &b, &cfg, &mut SolveWorkspace::new()).is_err());
    }

    #[test]
    fn wrong_rhs_rejected() {
        let op = gaussian_operator(10, 20, 71);
        assert!(admm_bpdn(
            &op,
            &[0.0; 9],
            &AdmmConfig::default(),
            &mut SolveWorkspace::new()
        )
        .is_err());
    }

    #[test]
    fn bp_objective_close_to_true_l1() {
        let (m, n, k) = (40, 80, 4);
        let op = gaussian_operator(m, n, 81);
        let x_true = sparse_signal(n, k, 82);
        let b = op.apply(&x_true);
        let cfg = AdmmConfig {
            max_iterations: 3000,
            rho: 5.0,
            ..AdmmConfig::default()
        };
        let rec = admm_basis_pursuit(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
        let true_l1 = vecops::norm1(&x_true);
        assert!(rec.report.objective <= true_l1 * 1.01 + 1e-9);
    }
}
