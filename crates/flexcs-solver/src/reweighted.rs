//! Iteratively reweighted L1 minimization (Candès–Wakin–Boyd).
//!
//! Plain L1 penalizes large coefficients more than small ones, biasing
//! recovery; reweighting solves a short sequence of *weighted* LASSO
//! problems with `w_i = 1/(|x_i| + ε)`, approaching the L0 ideal. The
//! flexcs decoder exposes this as a drop-in upgrade over FISTA at ~R×
//! its cost (R = reweighting rounds). Notably, the weighted subproblem
//! is solved by the same FISTA machinery through a variable change:
//! with `u = W·x`, `min λ‖W x‖₁ + ½‖A x − b‖²` becomes a standard LASSO
//! in `u` over the column-scaled operator `A·W⁻¹`.

use crate::error::{Result, SolverError};
use crate::ista::{fista, IstaConfig};
use crate::op::{check_measurements, LinearOperator};
use crate::report::{Recovery, SolveReport};
use crate::tel;
use crate::workspace::SolveWorkspace;
use flexcs_linalg::vecops;
use std::cell::RefCell;

/// Configuration for [`reweighted_l1`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReweightedConfig {
    /// Inner LASSO configuration (λ, iterations, tolerance).
    pub inner: IstaConfig,
    /// Reweighting rounds (3–5 suffice per the original paper).
    pub rounds: usize,
    /// Weight smoothing ε, relative to the largest first-round
    /// coefficient magnitude.
    pub epsilon: f64,
}

impl Default for ReweightedConfig {
    fn default() -> Self {
        let mut inner = IstaConfig::with_lambda(1e-3);
        inner.max_iterations = 300;
        ReweightedConfig {
            inner,
            rounds: 4,
            epsilon: 0.1,
        }
    }
}

/// A column-scaled view `A·D` of an operator (`D` diagonal), used to
/// solve weighted LASSO problems with an unweighted solver.
struct ColumnScaled<'a> {
    op: &'a dyn LinearOperator,
    scale: Vec<f64>,
    /// Scratch for the scaled input, so `apply_into` stays
    /// allocation-free inside solver iteration loops (interior mutability
    /// because `LinearOperator` applications take `&self`).
    scratch: RefCell<Vec<f64>>,
}

impl<'a> ColumnScaled<'a> {
    fn new(op: &'a dyn LinearOperator, scale: Vec<f64>) -> Self {
        ColumnScaled {
            op,
            scale,
            scratch: RefCell::new(Vec::new()),
        }
    }
}

impl LinearOperator for ColumnScaled<'_> {
    fn rows(&self) -> usize {
        self.op.rows()
    }

    fn cols(&self) -> usize {
        self.op.cols()
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.apply_into(x, &mut out);
        out
    }

    fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.apply_transpose_into(y, &mut out);
        out
    }

    fn apply_into(&self, x: &[f64], out: &mut Vec<f64>) {
        let mut scaled = self.scratch.borrow_mut();
        scaled.clear();
        scaled.extend(x.iter().zip(&self.scale).map(|(v, s)| v * s));
        self.op.apply_into(&scaled, out);
    }

    fn apply_transpose_into(&self, y: &[f64], out: &mut Vec<f64>) {
        self.op.apply_transpose_into(y, out);
        for (v, s) in out.iter_mut().zip(&self.scale) {
            *v *= s;
        }
    }
}

/// Iteratively reweighted L1: a short sequence of weighted LASSO solves
/// with weights `w_i = 1/(|x_i| + ε)` from the previous round. The
/// caller's [`SolveWorkspace`] is shared by the inner FISTA solves, so
/// their iteration loops are allocation-free.
///
/// # Errors
///
/// Returns [`SolverError::DimensionMismatch`] for a wrong-length `b`,
/// [`SolverError::InvalidParameter`] for a bad configuration, and
/// propagates inner-solver failures.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::Matrix;
/// use flexcs_solver::{reweighted_l1, DenseOperator, ReweightedConfig, SolveWorkspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.4, 0.2], &[0.1, 1.0, -0.6]])?;
/// let op = DenseOperator::new(a);
/// let b = [2.0, 0.2]; // x = (2, 0, 0)
/// let cfg = ReweightedConfig::default();
/// let rec = reweighted_l1(&op, &b, &cfg, &mut SolveWorkspace::new())?;
/// assert!((rec.x[0] - 2.0).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn reweighted_l1(
    op: &dyn LinearOperator,
    b: &[f64],
    config: &ReweightedConfig,
    ws: &mut SolveWorkspace,
) -> Result<Recovery> {
    check_measurements(op, b)?;
    if config.rounds == 0 {
        return Err(SolverError::InvalidParameter(
            "rounds must be positive".to_string(),
        ));
    }
    if !(config.epsilon > 0.0) {
        return Err(SolverError::InvalidParameter(format!(
            "epsilon must be positive, got {}",
            config.epsilon
        )));
    }
    let n = op.cols();
    // Round 0: plain LASSO.
    let mut recovery = fista(op, b, &config.inner, ws, None)?;
    let mut total_iterations = recovery.report.iterations;
    if tel::enabled() {
        // One event per reweighting round (the inner FISTA emits its own
        // per-iterate trace): iteration = round index, step = ε scale.
        tel::iteration(
            "reweighted_l1",
            0,
            vecops::norm1(&recovery.x),
            recovery.report.residual_norm,
            config.epsilon,
        );
    }
    for round in 1..config.rounds {
        let magnitude_scale = vecops::norm_inf(&recovery.x);
        if magnitude_scale == 0.0 {
            break;
        }
        let eps = config.epsilon * magnitude_scale;
        // Inverse weights d_i = |x_i| + ε: large coefficients keep their
        // freedom, small ones are pushed toward zero.
        let scale: Vec<f64> = recovery.x.iter().map(|v| v.abs() + eps).collect();
        let scaled_op = ColumnScaled::new(op, scale);
        let inner = fista(&scaled_op, b, &config.inner, ws, None)?;
        total_iterations += inner.report.iterations;
        // Map back: x = D·u.
        let x: Vec<f64> = inner
            .x
            .iter()
            .zip(&scaled_op.scale)
            .map(|(u, s)| u * s)
            .collect();
        let converged = inner.report.converged;
        op.apply_into(&x, &mut ws.ax);
        let residual = vecops::diff_norm2(&ws.ax, b);
        if tel::enabled() {
            tel::iteration("reweighted_l1", round, vecops::norm1(&x), residual, eps);
        }
        recovery = Recovery::new(
            x,
            SolveReport::new(total_iterations, residual, converged, 0.0),
        );
    }
    tel::solve_done("reweighted_l1", total_iterations, recovery.report.converged);
    // Final objective: plain L1 of the solution (comparable across
    // solvers).
    let objective = vecops::norm1(&recovery.x);
    let _ = n;
    recovery.report.objective = objective;
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ista::fista;
    use crate::testutil::{gaussian_operator, sparse_signal};

    #[test]
    fn reweighting_improves_on_plain_fista() {
        // A hard regime: few measurements relative to sparsity.
        let (m, n, k) = (28, 80, 7);
        let op = gaussian_operator(m, n, 61);
        let x_true = sparse_signal(n, k, 62);
        let b = op.apply(&x_true);
        let mut cfg = ReweightedConfig::default();
        cfg.inner.lambda = 1e-4;
        cfg.inner.max_iterations = 800;
        let plain = fista(&op, &b, &cfg.inner, &mut SolveWorkspace::new(), None).unwrap();
        let rw = reweighted_l1(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
        let err = |x: &[f64]| vecops::norm2(&vecops::sub(x, &x_true));
        assert!(
            err(&rw.x) <= err(&plain.x) * 1.02,
            "reweighted {} vs plain {}",
            err(&rw.x),
            err(&plain.x)
        );
    }

    #[test]
    fn exact_recovery_in_easy_regime() {
        let (m, n, k) = (50, 100, 5);
        let op = gaussian_operator(m, n, 71);
        let x_true = sparse_signal(n, k, 72);
        let b = op.apply(&x_true);
        let mut cfg = ReweightedConfig::default();
        cfg.inner.lambda = 1e-4;
        cfg.inner.max_iterations = 1000;
        let rec = reweighted_l1(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
        let err = vecops::norm2(&vecops::sub(&rec.x, &x_true)) / vecops::norm2(&x_true);
        assert!(err < 1e-2, "relative error {err}");
    }

    #[test]
    fn zero_measurements_give_zero() {
        let op = gaussian_operator(10, 20, 81);
        let rec = reweighted_l1(
            &op,
            &[0.0; 10],
            &ReweightedConfig::default(),
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        assert!(vecops::norm_inf(&rec.x) < 1e-12);
    }

    #[test]
    fn config_validation() {
        let op = gaussian_operator(5, 10, 91);
        let b = vec![1.0; 5];
        let mut cfg = ReweightedConfig {
            rounds: 0,
            ..ReweightedConfig::default()
        };
        assert!(reweighted_l1(&op, &b, &cfg, &mut SolveWorkspace::new()).is_err());
        cfg.rounds = 2;
        cfg.epsilon = 0.0;
        assert!(reweighted_l1(&op, &b, &cfg, &mut SolveWorkspace::new()).is_err());
        assert!(reweighted_l1(
            &op,
            &[1.0; 4],
            &ReweightedConfig::default(),
            &mut SolveWorkspace::new()
        )
        .is_err());
    }

    #[test]
    fn support_shrinks_or_holds_across_rounds() {
        let (m, n, k) = (40, 90, 4);
        let op = gaussian_operator(m, n, 93);
        let x_true = sparse_signal(n, k, 94);
        let b = op.apply(&x_true);
        let mut one_round = ReweightedConfig {
            rounds: 1,
            ..ReweightedConfig::default()
        };
        one_round.inner.lambda = 1e-3;
        let mut four_rounds = one_round.clone();
        four_rounds.rounds = 4;
        let r1 = reweighted_l1(&op, &b, &one_round, &mut SolveWorkspace::new()).unwrap();
        let r4 = reweighted_l1(&op, &b, &four_rounds, &mut SolveWorkspace::new()).unwrap();
        assert!(r4.support_size(1e-6) <= r1.support_size(1e-6) + 2);
    }
}
