//! Iteratively Reweighted Least Squares for basis pursuit.
//!
//! Solves `min ‖x‖₁ s.t. A·x = b` through a sequence of weighted
//! least-norm problems `min Σ x_i²/w_i s.t. A·x = b` with
//! `w_i = |x_i| + ε` and ε annealed toward zero — the classic
//! Chartrand–Yin scheme (specialized to p = 1).

use crate::error::{Result, SolverError};
use crate::op::{check_measurements, LinearOperator};
use crate::report::{Recovery, SolveReport};
use crate::tel;
use crate::workspace::SolveWorkspace;
use flexcs_linalg::vecops;
use flexcs_linalg::{Cholesky, Matrix};

/// Configuration for [`irls`].
#[derive(Debug, Clone, PartialEq)]
pub struct IrlsConfig {
    /// Outer iteration budget.
    pub max_iterations: usize,
    /// Stop when the relative solution change falls below this.
    pub tol: f64,
    /// Initial smoothing ε, relative to the minimum-norm solution's
    /// largest magnitude (scale invariance).
    pub epsilon_start: f64,
    /// Terminal smoothing ε (iteration stops annealing here), relative
    /// to the same scale.
    pub epsilon_min: f64,
}

impl Default for IrlsConfig {
    fn default() -> Self {
        IrlsConfig {
            max_iterations: 100,
            tol: 1e-8,
            epsilon_start: 1.0,
            epsilon_min: 1e-8,
        }
    }
}

impl IrlsConfig {
    fn validate(&self) -> Result<()> {
        if self.max_iterations == 0 {
            return Err(SolverError::InvalidParameter(
                "max_iterations must be positive".to_string(),
            ));
        }
        if !(self.epsilon_start > 0.0 && self.epsilon_min > 0.0) {
            return Err(SolverError::InvalidParameter(
                "epsilon values must be positive".to_string(),
            ));
        }
        if self.epsilon_min > self.epsilon_start {
            return Err(SolverError::InvalidParameter(
                "epsilon_min must not exceed epsilon_start".to_string(),
            ));
        }
        Ok(())
    }
}

/// IRLS basis pursuit, over the caller's [`SolveWorkspace`].
///
/// Each outer iteration solves `x = W·Aᵀ·(A·W·Aᵀ)⁻¹·b` with
/// `W = diag(|x| + ε)`, which is the minimizer of the weighted L2 norm
/// under the equality constraints; ε is divided by 10 whenever the
/// iterate stabilizes, sharpening the L1 surrogate. Iterate, weight and
/// Gram-system buffers are recycled across outer iterations (and across
/// solves), leaving only the Cholesky factorization's own allocation per
/// outer iteration.
///
/// # Errors
///
/// Returns [`SolverError::DimensionMismatch`] for a wrong-length `b`,
/// [`SolverError::InvalidParameter`] for a bad configuration, and
/// propagates failures factoring `A·W·Aᵀ` (rank-deficient measurements).
///
/// # Examples
///
/// ```
/// use flexcs_linalg::Matrix;
/// use flexcs_solver::{irls, DenseOperator, IrlsConfig, SolveWorkspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.5, -0.3], &[0.2, 1.0, 0.8]])?;
/// let op = DenseOperator::new(a);
/// let b = [2.0, 0.4]; // x = (2, 0, 0)
/// let rec = irls(&op, &b, &IrlsConfig::default(), &mut SolveWorkspace::new())?;
/// assert!((rec.x[0] - 2.0).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn irls(
    op: &dyn LinearOperator,
    b: &[f64],
    config: &IrlsConfig,
    ws: &mut SolveWorkspace,
) -> Result<Recovery> {
    check_measurements(op, b)?;
    config.validate()?;
    let m = op.rows();
    let n = op.cols();
    let b_norm = vecops::norm2(b);
    if b_norm == 0.0 {
        return Ok(Recovery::new(
            vec![0.0; n],
            SolveReport::new(0, 0.0, true, 0.0),
        ));
    }
    let a = op.to_dense();
    // Start from the minimum-L2-norm solution (W = I).
    ws.x.clear();
    ws.x.resize(n, 1.0);
    let g = match ws.gram.as_mut() {
        Some(g) if g.rows() == m && g.cols() == m => g,
        _ => ws.gram.insert(Matrix::zeros(m, m)),
    };
    // ε anneals relative to the solution scale so that recovery is
    // invariant to measurement scaling (x(αb) = α·x(b)).
    let mut scale_est = 0.0;
    let mut eps = config.epsilon_start;
    let mut iterations = 0;
    let mut converged = false;
    for _ in 0..config.max_iterations {
        iterations += 1;
        // W = diag(|x| + eps); G = A W Aᵀ (m x m SPD).
        ws.weights.clear();
        ws.weights.extend(ws.x.iter().map(|&v: &f64| v.abs() + eps));
        for i in 0..m {
            for j in i..m {
                let mut s = 0.0;
                let ri = a.row(i);
                let rj = a.row(j);
                for t in 0..n {
                    s += ri[t] * ws.weights[t] * rj[t];
                }
                g[(i, j)] = s;
                g[(j, i)] = s;
            }
        }
        // Tiny diagonal lift keeps the factorization robust as W decays.
        let lift = 1e-12 * (1.0 + g.trace().unwrap_or(0.0) / m as f64);
        for i in 0..m {
            g[(i, i)] += lift;
        }
        Cholesky::factor(g)?.solve_into(b, &mut ws.w_m)?;
        op.apply_transpose_into(&ws.w_m, &mut ws.grad);
        ws.x_next.clear();
        ws.x_next
            .extend(ws.grad.iter().zip(&ws.weights).map(|(v, wi)| v * wi));
        if iterations == 1 {
            // Calibrate the annealing schedule to the first (min-norm)
            // solution's magnitude.
            scale_est = vecops::norm_inf(&ws.x_next).max(1e-12);
            eps = config.epsilon_start * scale_est;
        }
        let change = vecops::diff_norm2(&ws.x_next, &ws.x);
        let scale = vecops::norm2(&ws.x_next).max(1e-12);
        std::mem::swap(&mut ws.x, &mut ws.x_next);
        if tel::enabled() {
            tel::iteration(
                "irls",
                iterations,
                vecops::norm1(&ws.x),
                change / scale,
                eps,
            );
        }
        let eps_floor = config.epsilon_min * scale_est.max(1e-12);
        if change <= config.tol.max(eps * 1e-3 / scale_est.max(1e-12)) * scale {
            if eps <= eps_floor {
                converged = true;
                break;
            }
            eps = (eps / 10.0).max(eps_floor);
        }
    }
    tel::solve_done("irls", iterations, converged);
    op.apply_into(&ws.x, &mut ws.ax);
    let residual = vecops::diff_norm2(&ws.ax, b);
    Ok(Recovery::new(
        ws.x.clone(),
        SolveReport::new(iterations, residual, converged, vecops::norm1(&ws.x)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{gaussian_operator, sparse_signal};

    #[test]
    fn recovers_sparse_signal() {
        let (m, n, k) = (40, 80, 4);
        let op = gaussian_operator(m, n, 7);
        let x_true = sparse_signal(n, k, 8);
        let b = op.apply(&x_true);
        let rec = irls(&op, &b, &IrlsConfig::default(), &mut SolveWorkspace::new()).unwrap();
        let err = vecops::norm2(&vecops::sub(&rec.x, &x_true)) / vecops::norm2(&x_true);
        assert!(err < 1e-4, "relative error {err}");
    }

    #[test]
    fn solution_satisfies_measurements() {
        let op = gaussian_operator(25, 50, 17);
        let x_true = sparse_signal(50, 3, 18);
        let b = op.apply(&x_true);
        let rec = irls(&op, &b, &IrlsConfig::default(), &mut SolveWorkspace::new()).unwrap();
        assert!(rec.report.residual_norm < 1e-8 * vecops::norm2(&b).max(1.0));
    }

    #[test]
    fn zero_rhs_gives_zero() {
        let op = gaussian_operator(10, 30, 27);
        let rec = irls(
            &op,
            &[0.0; 10],
            &IrlsConfig::default(),
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        assert!(rec.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn l1_norm_not_worse_than_truth() {
        let (m, n, k) = (30, 60, 3);
        let op = gaussian_operator(m, n, 37);
        let x_true = sparse_signal(n, k, 38);
        let b = op.apply(&x_true);
        let rec = irls(&op, &b, &IrlsConfig::default(), &mut SolveWorkspace::new()).unwrap();
        assert!(rec.report.objective <= vecops::norm1(&x_true) * (1.0 + 1e-6));
    }

    #[test]
    fn config_validation() {
        let op = gaussian_operator(5, 10, 47);
        let b = vec![1.0; 5];
        let mut cfg = IrlsConfig {
            max_iterations: 0,
            ..IrlsConfig::default()
        };
        assert!(irls(&op, &b, &cfg, &mut SolveWorkspace::new()).is_err());
        cfg.max_iterations = 10;
        cfg.epsilon_start = 0.0;
        assert!(irls(&op, &b, &cfg, &mut SolveWorkspace::new()).is_err());
        cfg.epsilon_start = 1e-9;
        cfg.epsilon_min = 1.0;
        assert!(irls(&op, &b, &cfg, &mut SolveWorkspace::new()).is_err());
    }

    #[test]
    fn wrong_rhs_rejected() {
        let op = gaussian_operator(8, 16, 57);
        assert!(irls(
            &op,
            &[1.0; 7],
            &IrlsConfig::default(),
            &mut SolveWorkspace::new()
        )
        .is_err());
    }
}
