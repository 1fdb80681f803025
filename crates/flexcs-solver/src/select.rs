//! Unified solver selection.
//!
//! The flexcs decoder lets callers pick any recovery algorithm through a
//! single enum — the knob the `solver_ablation` bench sweeps.

use crate::error::Result;
use crate::greedy::{omp, GreedyConfig};
use crate::ista::{fista, ista, IstaConfig};
use crate::lp::{lp_basis_pursuit, LpConfig};
use crate::op::LinearOperator;
use crate::report::Recovery;
use crate::workspace::{SolveWorkspace, WarmStart};
use std::fmt;

/// A sparse-recovery algorithm plus its configuration.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::Matrix;
/// use flexcs_solver::{DenseOperator, IstaConfig, SparseSolver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.2], &[0.1, 1.0]])?;
/// let op = DenseOperator::new(a);
/// let solver = SparseSolver::Fista(IstaConfig::with_lambda(1e-6));
/// let rec = solver.solve(&op, &[1.0, 0.1])?;
/// assert!((rec.x[0] - 1.0).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SparseSolver {
    /// Orthogonal Matching Pursuit — the adaptive pipeline's greedy tier.
    Omp(GreedyConfig),
    /// Plain ISTA (LASSO).
    Ista(IstaConfig),
    /// FISTA (accelerated LASSO) — the pipeline default.
    Fista(IstaConfig),
    /// Interior-point LP basis pursuit (the paper's Eq. 9 reformulation).
    LpBasisPursuit(LpConfig),
}

impl SparseSolver {
    /// Runs the selected solver cold on a fresh [`SolveWorkspace`].
    ///
    /// # Errors
    ///
    /// Propagates the selected solver's errors; see the individual solver
    /// functions.
    pub fn solve(&self, op: &dyn LinearOperator, b: &[f64]) -> Result<Recovery> {
        self.run(op, b, &mut SolveWorkspace::new(), None)
    }

    /// Runs the selected solver over the caller's [`SolveWorkspace`]
    /// (allocation-free inner loops for every solver but the LP, which
    /// does not use it), with cross-solve warm starting for the
    /// proximal-gradient solvers (ISTA/FISTA): the iterate is seeded
    /// from `warm`'s carried solution and the cached spectral norm
    /// replaces per-solve power iteration. The other solvers ignore
    /// `warm`.
    ///
    /// # Errors
    ///
    /// See [`SparseSolver::solve`].
    pub fn solve_warm(
        &self,
        op: &dyn LinearOperator,
        b: &[f64],
        ws: &mut SolveWorkspace,
        warm: &mut WarmStart,
    ) -> Result<Recovery> {
        self.run(op, b, ws, Some(warm))
    }

    fn run(
        &self,
        op: &dyn LinearOperator,
        b: &[f64],
        ws: &mut SolveWorkspace,
        warm: Option<&mut WarmStart>,
    ) -> Result<Recovery> {
        match self {
            SparseSolver::Omp(c) => omp(op, b, c, ws),
            SparseSolver::Ista(c) => ista(op, b, c, ws, warm),
            SparseSolver::Fista(c) => fista(op, b, c, ws, warm),
            SparseSolver::LpBasisPursuit(c) => lp_basis_pursuit(op, b, c),
        }
    }

    /// Returns a copy of this solver with its iteration budget capped at
    /// `budget` (for OMP, whose budget is its sparsity, the sparsity is
    /// capped). The adaptive decode tier uses this to derive a cheap
    /// partial-decode solver for `Delta` frames from the session's
    /// full-decode configuration.
    #[must_use]
    pub fn with_iteration_budget(&self, budget: usize) -> Self {
        let budget = budget.max(1);
        let mut capped = self.clone();
        match &mut capped {
            SparseSolver::Omp(c) => c.sparsity = c.sparsity.min(budget),
            SparseSolver::Ista(c) | SparseSolver::Fista(c) => {
                c.max_iterations = c.max_iterations.min(budget);
            }
            SparseSolver::LpBasisPursuit(c) => c.max_iterations = c.max_iterations.min(budget),
        }
        capped
    }

    /// Short machine-friendly name (used by the bench harness tables).
    pub fn name(&self) -> &'static str {
        match self {
            SparseSolver::Omp(_) => "omp",
            SparseSolver::Ista(_) => "ista",
            SparseSolver::Fista(_) => "fista",
            SparseSolver::LpBasisPursuit(_) => "lp-bp",
        }
    }

    /// `true` for solvers that materialize the dense measurement matrix
    /// (the LP); implicit-operator pipelines may prefer the others at
    /// large `N`.
    pub fn requires_dense(&self) -> bool {
        matches!(self, SparseSolver::LpBasisPursuit(_))
    }
}

impl Default for SparseSolver {
    /// FISTA with `λ = 1e-3`, the flexcs pipeline default.
    fn default() -> Self {
        SparseSolver::Fista(IstaConfig::with_lambda(1e-3))
    }
}

impl fmt::Display for SparseSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{gaussian_operator, sparse_signal};
    use flexcs_linalg::vecops;

    #[test]
    fn every_solver_recovers_the_same_signal() {
        let (m, n, k) = (40, 80, 4);
        let op = gaussian_operator(m, n, 161);
        let x_true = sparse_signal(n, k, 162);
        let b = op.apply(&x_true);
        let mut fista_cfg = IstaConfig::with_lambda(1e-5);
        fista_cfg.max_iterations = 4000;
        fista_cfg.tol = 1e-10;
        let solvers = [
            SparseSolver::Omp(GreedyConfig::with_sparsity(k)),
            SparseSolver::Fista(fista_cfg),
            SparseSolver::LpBasisPursuit(LpConfig::default()),
        ];
        for solver in &solvers {
            let rec = solver.solve(&op, &b).unwrap();
            let err = vecops::norm2(&vecops::sub(&rec.x, &x_true)) / vecops::norm2(&x_true);
            assert!(err < 0.05, "{} relative error {err}", solver.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let names = [
            SparseSolver::Omp(GreedyConfig::default()).name(),
            SparseSolver::Ista(IstaConfig::default()).name(),
            SparseSolver::Fista(IstaConfig::default()).name(),
            SparseSolver::LpBasisPursuit(LpConfig::default()).name(),
        ];
        let mut set = std::collections::HashSet::new();
        for n in names {
            assert!(set.insert(n), "duplicate solver name {n}");
        }
    }

    #[test]
    fn dense_requirement_flags() {
        assert!(!SparseSolver::default().requires_dense());
        assert!(!SparseSolver::Omp(GreedyConfig::default()).requires_dense());
        assert!(SparseSolver::LpBasisPursuit(LpConfig::default()).requires_dense());
    }

    #[test]
    fn display_matches_name() {
        let s = SparseSolver::default();
        assert_eq!(format!("{s}"), s.name());
    }
}
