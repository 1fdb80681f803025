//! Greedy sparse recovery: Orthogonal Matching Pursuit.
//!
//! OMP recovers a K-sparse coefficient vector from `b = A·x` by adding
//! one atom per iteration and refitting by least squares. It is the
//! fast, easily-tuned baseline the flexcs decoder offers alongside the
//! convex (L1) solvers the paper's Eq. 9 calls for — and the low-latency
//! tier the adaptive decode pipeline routes small-K event frames to.
//!
//! Like the iterative solvers, it takes the caller's [`SolveWorkspace`],
//! whose greedy arena makes the inner loop allocation-free after
//! warm-up; reusing a workspace is bit-identical to a fresh one.

use crate::error::{Result, SolverError};
use crate::op::{check_measurements, LinearOperator};
use crate::report::{Recovery, SolveReport};
use crate::tel;
use crate::workspace::SolveWorkspace;
use flexcs_linalg::vecops;
use flexcs_linalg::{Matrix, QrScratch};

/// Stall-abort progress threshold: an OMP iteration counts as stalled
/// when it leaves more than this fraction of the previous residual norm
/// (consulted only when [`GreedyConfig::stall_patience`] `> 0`). A dense
/// scene where each atom explains only ~1/K_true of the remaining energy
/// shrinks the residual by roughly `sqrt(1 − 1/K_true)` per pick
/// (≈ 0.97 for K_true ≈ 100, as in the adaptive-video scale gate's dense
/// event), while greedy-recoverable sparse events progress at 0.45–0.87
/// per atom — 0.95 separates the two with margin on both sides.
const STALL_FACTOR: f64 = 0.95;

/// Configuration of the greedy solver ([`omp`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyConfig {
    /// Target sparsity `K`: the maximum support size, and so OMP's
    /// iteration budget (one atom per iteration).
    pub sparsity: usize,
    /// Stop when `‖r‖₂ ≤ residual_tol · ‖b‖₂`.
    pub residual_tol: f64,
    /// Abort (unconverged) after this many *consecutive* stalled OMP
    /// iterations, each leaving more than 95 % of the previous residual
    /// norm. `0` (the default) disables the guard, preserving the
    /// historical run-to-budget behavior. Callers that attempt a greedy
    /// fast path with a fallback solver — like the adaptive decode
    /// pipeline — set this so a scene that is not greedy-recoverable
    /// fails in a handful of iterations instead of burning the whole
    /// sparsity budget on O(m·K²) refits.
    pub stall_patience: usize,
}

impl GreedyConfig {
    /// Creates a configuration with the given sparsity and sensible
    /// defaults (`residual_tol = 1e-6`, stall guard disabled).
    pub fn with_sparsity(sparsity: usize) -> Self {
        GreedyConfig {
            sparsity,
            residual_tol: 1e-6,
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

/// Preallocated buffer arena for [`omp`].
///
/// Holds the support set, its O(1)-membership boolean mask, the
/// correlation spectrum, residual/coefficient buffers and the
/// least-squares refit scratch (dense submatrix + packed QR factors).
/// Buffers grow on first use and are reused verbatim afterwards, so OMP
/// runs an allocation-free inner loop after warm-up. The buffers hold
/// garbage between solves — OMP fully (re)initializes what it reads, so
/// reusing one workspace across different problems is bit-identical to
/// using a fresh one each time.
#[derive(Debug, Clone)]
pub(crate) struct GreedyWorkspace {
    /// Current support (selected atom indices).
    support: Vec<usize>,
    /// O(1) membership mask over the `n` atoms (reset per solve).
    in_support: Vec<bool>,
    /// Correlation spectrum `Aᵀr` (`n`).
    corr: Vec<f64>,
    /// Current residual `b − A·x` (`m`).
    residual: Vec<f64>,
    /// Coefficients on the current support.
    coef: Vec<f64>,
    /// Refit prediction `A_S·coef` (`m`).
    fit: Vec<f64>,
    /// Column-extraction basis scratch (`LinearOperator::column_into`).
    basis: Vec<f64>,
    /// Column-extraction output scratch.
    col: Vec<f64>,
    /// Dense submatrix restricted to the support, grown one column per
    /// iteration.
    sub: Matrix,
    /// Packed QR factorization storage reused across refits.
    qr: QrScratch,
}

impl Default for GreedyWorkspace {
    fn default() -> Self {
        GreedyWorkspace {
            support: Vec::new(),
            in_support: Vec::new(),
            corr: Vec::new(),
            residual: Vec::new(),
            coef: Vec::new(),
            fit: Vec::new(),
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
    for _ in 0..config.sparsity {
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
            if rn > STALL_FACTOR * prev_rn {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{gaussian_operator, sparse_signal};
    use crate::DenseOperator;
    use flexcs_linalg::Matrix;

    #[test]
    fn omp_exact_recovery() {
        let (m, n, k) = (40, 100, 5);
        let op = gaussian_operator(m, n, 11);
        let x_true = sparse_signal(n, k, 12);
        let b = op.apply(&x_true);
        let rec = omp(
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
        let rec = omp(
            &op,
            &b,
            &GreedyConfig::with_sparsity(3),
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        assert!(rec.x.iter().all(|&v| v == 0.0));
        assert!(rec.report.converged);
    }

    #[test]
    fn rejects_bad_config() {
        let op = gaussian_operator(10, 20, 2);
        let b = vec![1.0; 10];
        let bad_k = GreedyConfig::with_sparsity(0);
        assert!(omp(&op, &b, &bad_k, &mut SolveWorkspace::new()).is_err());
        let too_big = GreedyConfig::with_sparsity(11);
        assert!(omp(&op, &b, &too_big, &mut SolveWorkspace::new()).is_err());
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let op = gaussian_operator(10, 20, 3);
        let b = vec![1.0; 9];
        assert!(matches!(
            omp(
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
    fn iteration_budget_is_the_sparsity() {
        // A dense x never meets the residual tolerance, so OMP spends its
        // whole budget: one atom per unit of sparsity, K = 120 of them.
        let (m, n) = (150, 300);
        let op = gaussian_operator(m, n, 88);
        let x_dense: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * (i as f64 * 0.3).cos()).collect();
        let b = op.apply(&x_dense);
        let rec = omp(
            &op,
            &b,
            &GreedyConfig::with_sparsity(120),
            &mut SolveWorkspace::new(),
        )
        .unwrap();
        assert_eq!(rec.report.iterations, 120);
        assert!(!rec.report.converged);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_problems() {
        let mut ws = SolveWorkspace::new();
        for seed in [101_u64, 202, 303] {
            let (m, n, k) = (35, 90, 4);
            let op = gaussian_operator(m, n, seed);
            let b = op.apply(&sparse_signal(n, k, seed + 1));
            let cfg = GreedyConfig::with_sparsity(k);
            let fresh = omp(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
            let reused = omp(&op, &b, &cfg, &mut ws).unwrap();
            assert_eq!(fresh.x, reused.x);
            assert_eq!(fresh.report.iterations, reused.report.iterations);
        }
    }
}
