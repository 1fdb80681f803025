//! Primal–dual interior-point LP solver for basis pursuit.
//!
//! The paper (Sec. 3.1) notes the L1 problem "can be re-formulated as a
//! linear programming problem and solved efficiently in the silicon
//! side". This module does exactly that: with the split `x = z⁺ − z⁻`,
//! basis pursuit becomes the standard-form LP
//!
//! ```text
//! min 1ᵀz   s.t.  [A, −A]·z = b,  z ≥ 0,
//! ```
//!
//! solved by a path-following primal–dual interior-point method whose
//! Newton systems reduce to `m x m` normal equations.

use crate::error::{Result, SolverError};
use crate::op::{check_measurements, LinearOperator};
use crate::report::{Recovery, SolveReport};
use crate::tel;
use flexcs_linalg::vecops;
use flexcs_linalg::{Cholesky, Matrix};

/// Duality-gap tolerance: stop when `μ = zᵀs / 2n` falls below this.
const GAP_TOL: f64 = 1e-9;

/// Infeasibility tolerance on the primal/dual residual norms.
const FEAS_TOL: f64 = 1e-8;

/// Centering parameter σ in (0, 1).
const SIGMA: f64 = 0.2;

/// Configuration for [`lp_basis_pursuit`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpConfig {
    /// Iteration budget (interior-point iterations).
    pub max_iterations: usize,
}

impl Default for LpConfig {
    fn default() -> Self {
        LpConfig {
            max_iterations: 100,
        }
    }
}

impl LpConfig {
    fn validate(&self) -> Result<()> {
        if self.max_iterations == 0 {
            return Err(SolverError::InvalidParameter(
                "max_iterations must be positive".to_string(),
            ));
        }
        Ok(())
    }
}

/// Basis pursuit via a primal–dual interior-point LP.
///
/// # Errors
///
/// Returns [`SolverError::DimensionMismatch`] for a wrong-length `b`,
/// [`SolverError::InvalidParameter`] for a bad configuration, and
/// propagates normal-equation factorization failures (rank-deficient
/// measurement matrices).
///
/// # Examples
///
/// ```
/// use flexcs_linalg::Matrix;
/// use flexcs_solver::{lp_basis_pursuit, DenseOperator, LpConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.4, -0.1], &[0.3, 1.0, 0.6]])?;
/// let op = DenseOperator::new(a);
/// let b = [-2.0, -0.6]; // x = (-2, 0, 0)
/// let rec = lp_basis_pursuit(&op, &b, &LpConfig::default())?;
/// assert!((rec.x[0] + 2.0).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
pub fn lp_basis_pursuit(op: &dyn LinearOperator, b: &[f64], config: &LpConfig) -> Result<Recovery> {
    check_measurements(op, b)?;
    config.validate()?;
    let m = op.rows();
    let n = op.cols();
    let n2 = 2 * n;
    let b_norm = vecops::norm2(b);
    if b_norm == 0.0 {
        return Ok(Recovery::new(
            vec![0.0; n],
            SolveReport::new(0, 0.0, true, 0.0),
        ));
    }
    let a = op.to_dense();

    // Split-variable helpers: A_eq = [A, -A].
    let apply_aeq = |z: &[f64]| -> Vec<f64> {
        let diff: Vec<f64> = (0..n).map(|j| z[j] - z[n + j]).collect();
        a.matvec(&diff).expect("dims fixed")
    };
    let apply_aeq_t = |y: &[f64]| -> Vec<f64> {
        let aty = a.matvec_transpose(y).expect("dims fixed");
        let mut out = vec![0.0; n2];
        for j in 0..n {
            out[j] = aty[j];
            out[n + j] = -aty[j];
        }
        out
    };

    // Interior starting point.
    let mut z = vec![1.0; n2];
    let mut s = vec![1.0; n2];
    let mut y = vec![0.0; m];

    let mut iterations = 0;
    let mut converged = false;
    for _ in 0..config.max_iterations {
        iterations += 1;
        // Residuals.
        let aeq_z = apply_aeq(&z);
        let r_p = vecops::sub(b, &aeq_z);
        let aeqt_y = apply_aeq_t(&y);
        // r_d = c − A_eqᵀy − s with c = 1.
        let r_d: Vec<f64> = (0..n2).map(|i| 1.0 - aeqt_y[i] - s[i]).collect();
        let mu = vecops::dot(&z, &s) / n2 as f64;
        let rp_norm = vecops::norm2(&r_p);
        let rd_norm = vecops::norm2(&r_d);
        if tel::enabled() {
            // objective = 1ᵀz (the LP cost), residual = worse of the
            // primal/dual infeasibilities, step = duality-gap measure μ.
            tel::iteration(
                "lp",
                iterations,
                z.iter().sum::<f64>(),
                rp_norm.max(rd_norm),
                mu,
            );
        }
        if mu < GAP_TOL
            && rp_norm < FEAS_TOL * (1.0 + b_norm)
            && rd_norm < FEAS_TOL * (n2 as f64).sqrt()
        {
            converged = true;
            break;
        }
        // Complementarity target: r_c = σμ·1 − ZS·1.
        let target = SIGMA * mu;
        // Scaling D = Z S⁻¹, split as d_plus/d_minus per original column.
        let d: Vec<f64> = (0..n2).map(|i| z[i] / s[i]).collect();
        // Normal matrix M = A (D⁺ + D⁻) Aᵀ.
        let dsum: Vec<f64> = (0..n).map(|j| d[j] + d[n + j]).collect();
        let mut normal = Matrix::zeros(m, m);
        for i in 0..m {
            let ri = a.row(i);
            for i2 in i..m {
                let r2 = a.row(i2);
                let mut acc = 0.0;
                for j in 0..n {
                    acc += ri[j] * dsum[j] * r2[j];
                }
                normal[(i, i2)] = acc;
                normal[(i2, i)] = acc;
            }
        }
        let lift = 1e-12 * (1.0 + normal.trace().unwrap_or(0.0) / m as f64);
        for i in 0..m {
            normal[(i, i)] += lift;
        }
        // rhs = r_p + A_eq D (r_d − Z⁻¹ r_c), r_c_i = target − z_i s_i.
        let mut v = vec![0.0; n2];
        for i in 0..n2 {
            let rc = target - z[i] * s[i];
            v[i] = d[i] * (r_d[i] - rc / z[i]);
        }
        let aeq_v = apply_aeq(&v);
        let rhs = vecops::add(&r_p, &aeq_v);
        let dy = Cholesky::factor(&normal)?.solve(&rhs)?;
        // Back-substitute.
        let aeqt_dy = apply_aeq_t(&dy);
        let mut dz = vec![0.0; n2];
        let mut ds = vec![0.0; n2];
        for i in 0..n2 {
            let rc = target - z[i] * s[i];
            dz[i] = d[i] * (aeqt_dy[i] + rc / z[i] - r_d[i]);
            ds[i] = (rc - s[i] * dz[i]) / z[i];
        }
        // Fraction-to-boundary step lengths.
        let mut alpha_p = 1.0_f64;
        let mut alpha_d = 1.0_f64;
        for i in 0..n2 {
            if dz[i] < 0.0 {
                alpha_p = alpha_p.min(-z[i] / dz[i]);
            }
            if ds[i] < 0.0 {
                alpha_d = alpha_d.min(-s[i] / ds[i]);
            }
        }
        alpha_p = (alpha_p * 0.995).min(1.0);
        alpha_d = (alpha_d * 0.995).min(1.0);
        for i in 0..n2 {
            z[i] += alpha_p * dz[i];
            s[i] += alpha_d * ds[i];
        }
        for (yi, dyi) in y.iter_mut().zip(&dy) {
            *yi += alpha_d * dyi;
        }
        if z.iter().chain(s.iter()).any(|v| !v.is_finite()) {
            return Err(SolverError::Diverged {
                iteration: iterations,
            });
        }
    }
    tel::solve_done("lp", iterations, converged);
    let x: Vec<f64> = (0..n).map(|j| z[j] - z[n + j]).collect();
    let ax = op.apply(&x);
    let residual = vecops::norm2(&vecops::sub(&ax, b));
    Ok(Recovery::new(
        x.clone(),
        SolveReport::new(iterations, residual, converged, vecops::norm1(&x)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{gaussian_operator, sparse_signal};

    #[test]
    fn recovers_sparse_signal_exactly() {
        let (m, n, k) = (40, 80, 4);
        let op = gaussian_operator(m, n, 91);
        let x_true = sparse_signal(n, k, 92);
        let b = op.apply(&x_true);
        let rec = lp_basis_pursuit(&op, &b, &LpConfig::default()).unwrap();
        let err = vecops::norm2(&vecops::sub(&rec.x, &x_true)) / vecops::norm2(&x_true);
        assert!(err < 1e-5, "relative error {err}");
        assert!(rec.report.converged);
    }

    #[test]
    fn solution_is_feasible() {
        let op = gaussian_operator(30, 70, 101);
        let x_true = sparse_signal(70, 5, 102);
        let b = op.apply(&x_true);
        let rec = lp_basis_pursuit(&op, &b, &LpConfig::default()).unwrap();
        assert!(rec.report.residual_norm < 1e-6 * vecops::norm2(&b));
    }

    #[test]
    fn objective_minimal() {
        let (m, n, k) = (25, 50, 3);
        let op = gaussian_operator(m, n, 111);
        let x_true = sparse_signal(n, k, 112);
        let b = op.apply(&x_true);
        let rec = lp_basis_pursuit(&op, &b, &LpConfig::default()).unwrap();
        // In the exact-recovery regime the L1 minimum is the true signal.
        assert!((rec.report.objective - vecops::norm1(&x_true)).abs() < 1e-5);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let op = gaussian_operator(10, 20, 121);
        let rec = lp_basis_pursuit(&op, &[0.0; 10], &LpConfig::default()).unwrap();
        assert!(rec.x.iter().all(|&v| v == 0.0));
        assert_eq!(rec.report.iterations, 0);
    }

    #[test]
    fn config_validation() {
        let op = gaussian_operator(5, 10, 131);
        let b = vec![1.0; 5];
        let cfg = LpConfig { max_iterations: 0 };
        assert!(lp_basis_pursuit(&op, &b, &cfg).is_err());
    }

    #[test]
    fn wrong_rhs_rejected() {
        let op = gaussian_operator(8, 16, 141);
        assert!(lp_basis_pursuit(&op, &[1.0; 7], &LpConfig::default()).is_err());
    }
}
