//! ISTA and FISTA proximal-gradient solvers for the LASSO problem
//! `min_x  λ‖x‖₁ + ½‖A·x − b‖₂²`.
//!
//! FISTA is the flexcs decoder's default: it only needs operator
//! applications (so the implicit subsampled-DCT operator stays implicit)
//! and converges at the accelerated O(1/k²) rate.

use crate::error::{Result, SolverError};
use crate::op::{check_measurements, LinearOperator};
use crate::report::{Recovery, SolveReport};
use crate::tel;
use crate::workspace::{SolveWorkspace, WarmStart};
use flexcs_linalg::vecops;

/// Configuration for [`ista`] / [`fista`].
#[derive(Debug, Clone, PartialEq)]
pub struct IstaConfig {
    /// L1 regularization weight λ.
    pub lambda: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Stop when the relative solution change drops below this.
    pub tol: f64,
    /// Lipschitz constant `L ≥ ‖A‖₂²`; estimated by power iteration when
    /// `None`.
    pub lipschitz: Option<f64>,
}

impl IstaConfig {
    /// Creates a configuration with the given λ and defaults
    /// (`max_iterations = 500`, `tol = 1e-6`, auto Lipschitz).
    pub fn with_lambda(lambda: f64) -> Self {
        IstaConfig {
            lambda,
            max_iterations: 500,
            tol: 1e-6,
            lipschitz: None,
        }
    }

    fn validate(&self) -> Result<()> {
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
        if let Some(l) = self.lipschitz {
            if !(l > 0.0) {
                return Err(SolverError::InvalidParameter(format!(
                    "lipschitz must be positive, got {l}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for IstaConfig {
    fn default() -> Self {
        IstaConfig::with_lambda(1e-3)
    }
}

fn lasso_objective_in(
    op: &dyn LinearOperator,
    b: &[f64],
    x: &[f64],
    lambda: f64,
    ax: &mut Vec<f64>,
    r: &mut Vec<f64>,
) -> (f64, f64) {
    op.apply_into(x, ax);
    vecops::sub_into(r, ax, b);
    let rn = vecops::norm2(r);
    (lambda * vecops::norm1(x) + 0.5 * rn * rn, rn)
}

fn run_in(
    op: &dyn LinearOperator,
    b: &[f64],
    config: &IstaConfig,
    accelerated: bool,
    ws: &mut SolveWorkspace,
    mut warm: Option<&mut WarmStart>,
) -> Result<Recovery> {
    check_measurements(op, b)?;
    config.validate()?;
    let n = op.cols();
    let l = match config.lipschitz {
        Some(l) => l,
        None => match warm.as_deref_mut() {
            // Warm streams reuse the cached spectral norm across rounds;
            // the first round computes it exactly like the cold branch.
            Some(w) => w.lipschitz(op),
            None => {
                let s = op.spectral_norm_estimate(30);
                // Safety margin against power-iteration underestimation.
                (s * s * 1.02).max(1e-12)
            }
        },
    };
    let step = 1.0 / l;
    let thresh = config.lambda * step;

    let solver_name = if accelerated { "fista" } else { "ista" };
    // Seed the iterate from the previous round's solution when one is
    // carried; zeros otherwise (identical to the cold start).
    ws.x.clear();
    let mut warmed = false;
    if let Some(w) = warm.as_deref_mut() {
        if let Some(seed) = w.seed(n) {
            ws.x.extend_from_slice(seed);
            warmed = true;
        }
    }
    if warmed {
        warm.as_deref_mut()
            .expect("warmed implies warm")
            .note_warm_start();
    } else {
        ws.x.resize(n, 0.0);
    }
    ws.y.clear();
    ws.y.extend_from_slice(&ws.x); // Momentum point (equals x for plain ISTA).
    let mut t = 1.0_f64;
    let mut iterations = 0;
    let mut converged = false;
    let mut restarts = 0u64;
    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        // Gradient step at y: y - step * Aᵀ(Ay - b).
        op.apply_into(&ws.y, &mut ws.ax);
        vecops::sub_into(&mut ws.r, &ws.ax, b);
        op.apply_transpose_into(&ws.r, &mut ws.grad);
        ws.x_next.resize(n, 0.0);
        vecops::prox_grad_step_into(&mut ws.x_next, &ws.y, &ws.grad, step, thresh);
        // A NaN or infinite entry makes the norm non-finite, so the
        // entry scan runs only then; it tells divergence from a norm
        // that merely overflowed. Checked before `max`, which drops NaN.
        let nrm = vecops::norm2(&ws.x_next);
        if !nrm.is_finite() && ws.x_next.iter().any(|v| !v.is_finite()) {
            return Err(SolverError::Diverged {
                iteration: iterations,
            });
        }
        // Relative-change stopping rule.
        let change = vecops::diff_norm2(&ws.x_next, &ws.x);
        let scale = nrm.max(1e-12);
        if accelerated {
            // Gradient-scheme adaptive restart (O'Donoghue & Candès):
            // drop momentum when it points against the descent
            // direction. Only active on warm-started solves so the cold
            // iterate sequence stays bit-identical to the historical
            // implementation.
            if warmed {
                let mut s = 0.0;
                for ((yi, xni), xi) in ws.y.iter().zip(&ws.x_next).zip(&ws.x) {
                    s += (yi - xni) * (xni - xi);
                }
                if s > 0.0 {
                    t = 1.0;
                    restarts += 1;
                }
            }
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_next;
            ws.y.resize(n, 0.0);
            vecops::momentum_into(&mut ws.y, &ws.x_next, &ws.x, beta);
            t = t_next;
        } else {
            ws.y.clear();
            ws.y.extend_from_slice(&ws.x_next);
        }
        std::mem::swap(&mut ws.x, &mut ws.x_next);
        if tel::enabled() {
            // The gradient residual Ay − b is already at hand; reuse it
            // rather than re-applying the operator.
            let rn = vecops::norm2(&ws.r);
            let obj = config.lambda * vecops::norm1(&ws.x) + 0.5 * rn * rn;
            tel::iteration(solver_name, iterations, obj, rn, step);
        }
        // An overflowed norm makes the rule `∞ ≤ ∞` (or `x ≤ ∞`), which
        // holds without the iterates having settled: only a finite norm
        // may stop the solve. Finite-norm solves are unaffected.
        if nrm.is_finite() && change <= config.tol * scale {
            converged = true;
            break;
        }
    }
    tel::solve_done(solver_name, iterations, converged);
    if let Some(w) = warm {
        w.note_restarts(restarts);
        w.finish_solve(&ws.x, iterations, warmed);
    }
    let (objective, residual) =
        lasso_objective_in(op, b, &ws.x, config.lambda, &mut ws.ax, &mut ws.r);
    Ok(Recovery::new(
        ws.x.clone(),
        SolveReport::new(iterations, residual, converged, objective),
    ))
}

/// Plain ISTA (proximal gradient) for the LASSO, over the caller's
/// [`SolveWorkspace`] (the inner loop performs zero heap allocation).
///
/// With `warm = Some(..)` the iterate is seeded from the carried
/// previous solution and the cached spectral norm replaces power
/// iteration; see [`fista`]. `None` runs cold.
///
/// # Errors
///
/// Returns [`SolverError::DimensionMismatch`] for a wrong-length `b`,
/// [`SolverError::InvalidParameter`] for an unusable configuration, and
/// [`SolverError::Diverged`] if iterates become non-finite (only possible
/// with a user-supplied too-small Lipschitz constant).
pub fn ista(
    op: &dyn LinearOperator,
    b: &[f64],
    config: &IstaConfig,
    ws: &mut SolveWorkspace,
    warm: Option<&mut WarmStart>,
) -> Result<Recovery> {
    run_in(op, b, config, false, ws, warm)
}

/// FISTA (accelerated proximal gradient) for the LASSO, over the
/// caller's [`SolveWorkspace`] (the inner loop performs zero heap
/// allocation; reusing a workspace is bit-identical to a fresh one).
///
/// With `warm = Some(..)` the solve seeds the iterate from the carried
/// previous solution, reuses the cached spectral norm instead of
/// re-running power iteration, and enables gradient-scheme adaptive
/// restart so stale momentum cannot fight the warm start. The first
/// solve on a fresh (or shape-changed) [`WarmStart`] runs cold and is
/// bit-identical to `warm = None`.
///
/// # Errors
///
/// See [`ista`].
///
/// # Examples
///
/// ```
/// use flexcs_linalg::Matrix;
/// use flexcs_solver::{fista, DenseOperator, IstaConfig, SolveWorkspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.5, 0.0], &[0.0, 0.4, 1.0]])?;
/// let op = DenseOperator::new(a);
/// let b = [2.0, 1.0]; // x = (2, 0, 1) fits exactly
/// let cfg = IstaConfig::with_lambda(1e-6);
/// let rec = fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None)?;
/// assert!(rec.report.residual_norm < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn fista(
    op: &dyn LinearOperator,
    b: &[f64],
    config: &IstaConfig,
    ws: &mut SolveWorkspace,
    warm: Option<&mut WarmStart>,
) -> Result<Recovery> {
    run_in(op, b, config, true, ws, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{gaussian_operator, sparse_signal};

    #[test]
    fn fista_recovers_sparse_signal() {
        let (m, n, k) = (60, 128, 6);
        let op = gaussian_operator(m, n, 5);
        let x_true = sparse_signal(n, k, 6);
        let b = op.apply(&x_true);
        let mut cfg = IstaConfig::with_lambda(1e-4);
        cfg.max_iterations = 3000;
        cfg.tol = 1e-9;
        let rec = fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap();
        let err = vecops::norm2(&vecops::sub(&rec.x, &x_true)) / vecops::norm2(&x_true);
        assert!(err < 1e-2, "relative error {err}");
    }

    #[test]
    fn fista_converges_faster_than_ista() {
        let (m, n, k) = (40, 80, 4);
        let op = gaussian_operator(m, n, 9);
        let x_true = sparse_signal(n, k, 10);
        let b = op.apply(&x_true);
        let mut cfg = IstaConfig::with_lambda(1e-3);
        cfg.max_iterations = 200;
        cfg.tol = 0.0; // force full budget
        let ri = ista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap();
        let rf = fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap();
        assert!(
            rf.report.objective <= ri.report.objective + 1e-12,
            "fista objective {} vs ista {}",
            rf.report.objective,
            ri.report.objective
        );
    }

    #[test]
    fn large_lambda_gives_zero_solution() {
        let op = gaussian_operator(20, 40, 3);
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).sin()).collect();
        // λ above ‖Aᵀb‖∞ forces x = 0.
        let atb = op.apply_transpose(&b);
        let lambda = vecops::norm_inf(&atb) * 1.5;
        let cfg = IstaConfig::with_lambda(lambda);
        let rec = fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap();
        assert!(vecops::norm_inf(&rec.x) < 1e-10);
        assert!(rec.report.converged);
    }

    #[test]
    fn objective_decreases_with_smaller_lambda() {
        let op = gaussian_operator(30, 60, 4);
        let x_true = sparse_signal(60, 4, 42);
        let b = op.apply(&x_true);
        let mut c1 = IstaConfig::with_lambda(1e-2);
        c1.max_iterations = 1000;
        let mut c2 = IstaConfig::with_lambda(1e-4);
        c2.max_iterations = 1000;
        let r1 = fista(&op, &b, &c1, &mut SolveWorkspace::new(), None).unwrap();
        let r2 = fista(&op, &b, &c2, &mut SolveWorkspace::new(), None).unwrap();
        assert!(r2.report.residual_norm <= r1.report.residual_norm + 1e-9);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let op = gaussian_operator(10, 20, 1);
        let b = vec![0.0; 10];
        let mut cfg = IstaConfig::with_lambda(-1.0);
        assert!(fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).is_err());
        cfg.lambda = 1.0;
        cfg.max_iterations = 0;
        assert!(ista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).is_err());
        cfg.max_iterations = 10;
        cfg.lipschitz = Some(-2.0);
        assert!(fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).is_err());
    }

    #[test]
    fn explicit_lipschitz_accepted() {
        let op = gaussian_operator(15, 30, 8);
        let x_true = sparse_signal(30, 2, 9);
        let b = op.apply(&x_true);
        let mut cfg = IstaConfig::with_lambda(1e-4);
        cfg.lipschitz = Some(op.spectral_norm_estimate(50).powi(2) * 1.1);
        cfg.max_iterations = 2000;
        let rec = fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap();
        let err = vecops::norm2(&vecops::sub(&rec.x, &x_true));
        assert!(err < 0.05 * vecops::norm2(&x_true));
    }

    #[test]
    fn too_small_lipschitz_diverges_at_a_fixed_iteration() {
        // A step 10⁴× too long makes the iterates grow geometrically.
        // Their norm overflows to +∞ while every entry is still finite
        // (with `tol = 0` the stopping test `change <= 0·∞` is false, so
        // the solve goes on); only a later non-finite entry ends it.
        let op = gaussian_operator(20, 40, 7);
        let b = op.apply(&sparse_signal(40, 3, 8));
        let mut cfg = IstaConfig::with_lambda(1e-3);
        cfg.lipschitz = Some(op.spectral_norm_estimate(50).powi(2) * 1e-4);
        cfg.max_iterations = 10_000;
        cfg.tol = 0.0;
        let err = fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap_err();
        assert!(
            matches!(err, SolverError::Diverged { iteration: 73 }),
            "{err:?}"
        );
    }

    #[test]
    fn overflowed_norms_never_report_convergence() {
        // Measurements near 1e200 make ‖x_next‖ and ‖x_next − x‖ both
        // overflow to +∞ on the first iteration while every entry stays
        // finite; `∞ ≤ tol·∞` must not count as convergence.
        let op = gaussian_operator(20, 40, 7);
        let b: Vec<f64> = op
            .apply(&sparse_signal(40, 3, 8))
            .iter()
            .map(|v| v * 1e200)
            .collect();
        let cfg = IstaConfig::with_lambda(1e-3);
        match fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None) {
            Ok(rec) => assert!(
                !rec.report.converged || rec.report.residual_norm.is_finite(),
                "converged after {} iterations with residual {}",
                rec.report.iterations,
                rec.report.residual_norm
            ),
            Err(e) => assert!(matches!(e, SolverError::Diverged { .. }), "{e:?}"),
        }
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let op = gaussian_operator(10, 20, 2);
        assert!(matches!(
            fista(
                &op,
                &[1.0; 9],
                &IstaConfig::default(),
                &mut SolveWorkspace::new(),
                None
            ),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }
}
