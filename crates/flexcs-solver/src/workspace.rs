//! Reusable solver workspaces and cross-solve warm starts.
//!
//! The paper's resampling strategy (Sec. 4) decodes several random
//! measurement subsets of the *same frame* and medians the results, and
//! the streaming pipeline decodes many highly correlated frames in a
//! row. Both patterns repeat structurally identical solves, so the two
//! dominant per-solve costs — heap traffic inside the iteration loops
//! and the power-iteration Lipschitz estimate — are pure waste after
//! the first round.
//!
//! [`SolveWorkspace`] is a buffer arena borrowed by the solvers that
//! iterate ([`crate::ista`], [`crate::fista`], [`crate::omp`]): all
//! iterate/gradient/residual vectors live here and are recycled across
//! solves, so the inner loops perform zero heap allocation.
//! [`crate::SparseSolver::solve`] simply creates a throwaway workspace,
//! and a reused workspace gives bit-identical results to a fresh one.
//!
//! [`WarmStart`] carries state *between* related solves: the previous
//! solution (used to seed the next solve's iterate) and the
//! spectral-norm estimate, so later rounds skip power iteration
//! entirely. It also keeps the `solver.warm_starts` /
//! `solver.restarts` / `solver.restart_fallbacks` /
//! `solver.warm.saved_iterations` telemetry counters.

use crate::greedy::GreedyWorkspace;
use crate::op::LinearOperator;
use crate::tel;

/// Preallocated buffer arena for the iterative solvers.
///
/// Buffers are grown on first use and reused verbatim afterwards; a
/// workspace sized for one problem shape adapts to another without
/// reallocating beyond the high-water mark. The buffers hold garbage
/// between solves — every solver fully (re)initializes what it reads.
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
/// let b = [2.0, 1.0];
/// let cfg = IstaConfig::with_lambda(1e-6);
/// let mut ws = SolveWorkspace::new();
/// let first = fista(&op, &b, &cfg, &mut ws, None)?;
/// let again = fista(&op, &b, &cfg, &mut ws, None)?; // allocation-free inner loop
/// assert_eq!(first.x, again.x); // a reused workspace is bit-identical to a fresh one
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct SolveWorkspace {
    /// Current iterate (signal length `n`).
    pub(crate) x: Vec<f64>,
    /// Momentum / auxiliary point (`n`).
    pub(crate) y: Vec<f64>,
    /// Next iterate under construction (`n`).
    pub(crate) x_next: Vec<f64>,
    /// Gradient `Aᵀr` (`n`).
    pub(crate) grad: Vec<f64>,
    /// Operator output `A·x` (measurement length `m`).
    pub(crate) ax: Vec<f64>,
    /// Residual `A·x − b` (`m`).
    pub(crate) r: Vec<f64>,
    /// Measurements in the operator's gradient layout
    /// ([`LinearOperator::stage_measurements`]).
    pub(crate) staged: Vec<f64>,
    /// Arena for OMP (support mask, correlation buffer, refit scratch),
    /// so the greedy solver runs allocation-free too.
    pub(crate) greedy: GreedyWorkspace,
}

impl SolveWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SolveWorkspace::default()
    }

    /// Drops all held memory (buffers regrow on the next solve).
    pub fn reset(&mut self) {
        *self = SolveWorkspace::default();
    }
}

/// Cross-solve warm-start state: previous solution, cached spectral
/// norm, and warm-start telemetry counters.
///
/// One `WarmStart` follows one logical stream of related solves (the
/// resampling rounds of a frame, or consecutive frames of a stream).
/// The first solve runs cold and records its solution and spectral
/// norm; every later solve over an operator of the same shape is seeded
/// from the previous solution and reuses the cached norm instead of
/// re-running power iteration. A shape change resets the state.
///
/// Warm-started FISTA additionally enables the O'Donoghue–Candès
/// gradient-scheme adaptive restart so stale momentum cannot fight the
/// warm start; restarts are counted here and in `solver.restarts`.
#[derive(Clone, Debug, Default)]
pub struct WarmStart {
    x0: Option<Vec<f64>>,
    shape: Option<(usize, usize)>,
    norm: Option<f64>,
    baseline_iterations: Option<usize>,
    warm_starts: u64,
    restarts: u64,
    saved_iterations: u64,
}

impl WarmStart {
    /// Fresh warm-start state (first solve will run cold).
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// Forgets the carried solution and cached norm; counters survive.
    pub fn clear(&mut self) {
        self.x0 = None;
        self.shape = None;
        self.norm = None;
        self.baseline_iterations = None;
    }

    /// Number of solves that were seeded from a previous solution.
    pub fn warm_starts(&self) -> u64 {
        self.warm_starts
    }

    /// Number of adaptive momentum restarts taken by warm FISTA solves.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Iterations saved by warm solves relative to the cold baseline of
    /// the current stream (first cold solve after a shape change).
    pub fn saved_iterations(&self) -> u64 {
        self.saved_iterations
    }

    /// Aligns the state with the operator shape, clearing stale carried
    /// state when the shape changed. Called by solvers on entry.
    pub(crate) fn prepare(&mut self, op: &dyn LinearOperator) {
        let shape = (op.rows(), op.cols());
        if self.shape != Some(shape) {
            self.clear();
            self.shape = Some(shape);
        }
    }

    /// Lipschitz constant `L ≥ ‖A‖₂²` for the prox-gradient step.
    ///
    /// First call per shape runs the same 30-step power iteration as
    /// the cold path (1.02 safety margin, bit-identical `L`); later
    /// calls reuse the cached norm with a wider 1.05 margin, because
    /// row-resampled operators of the same shape have slightly varying
    /// norms and a too-small `L` diverges.
    pub(crate) fn lipschitz(&mut self, op: &dyn LinearOperator) -> f64 {
        self.prepare(op);
        let (s, margin) = match self.norm {
            Some(s) => (s, 1.05),
            None => {
                let s = op.spectral_norm_estimate(30);
                self.norm = Some(s);
                (s, 1.02)
            }
        };
        (s * s * margin).max(1e-12)
    }

    /// Previous solution to seed from, when one of the right length is
    /// carried.
    pub(crate) fn seed(&self, n: usize) -> Option<&[f64]> {
        self.x0.as_deref().filter(|x| x.len() == n)
    }

    /// Replaces the carried solution with an externally produced one —
    /// e.g. a greedy fast-tier decode — so the next warm solve over an
    /// operator of the given `(rows, cols)` shape seeds from it. A shape
    /// change clears the stale cached norm first; counters survive.
    pub fn absorb_solution(&mut self, shape: (usize, usize), x: &[f64]) {
        if self.shape != Some(shape) {
            self.clear();
            self.shape = Some(shape);
        }
        let buf = self.x0.get_or_insert_with(Vec::new);
        buf.clear();
        buf.extend_from_slice(x);
    }

    /// Records that a solve consumed the carried seed.
    pub(crate) fn note_warm_start(&mut self) {
        self.warm_starts += 1;
        tel::counter("solver.warm_starts", 1);
    }

    /// Records adaptive restarts taken during a solve, and how many
    /// restart tests re-ran the index-order sum because the reordered
    /// one could not certify its sign (`solver.restart_fallbacks`).
    pub(crate) fn note_restarts(&mut self, restarts: u64, fallbacks: u64) {
        if restarts > 0 {
            self.restarts += restarts;
            tel::counter("solver.restarts", restarts);
        }
        if fallbacks > 0 {
            tel::counter("solver.restart_fallbacks", fallbacks);
        }
    }

    /// Absorbs a finished solve: stores the solution for the next round
    /// (reusing the carried buffer) and updates the saved-iteration
    /// accounting against the stream's cold baseline.
    pub(crate) fn finish_solve(&mut self, x: &[f64], iterations: usize, warmed: bool) {
        let buf = self.x0.get_or_insert_with(Vec::new);
        buf.clear();
        buf.extend_from_slice(x);
        if warmed {
            let baseline = self.baseline_iterations.unwrap_or(iterations);
            let saved = baseline.saturating_sub(iterations) as u64;
            self.saved_iterations += saved;
            tel::counter("solver.warm.saved_iterations", saved);
        } else {
            self.baseline_iterations = Some(iterations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::gaussian_operator;

    #[test]
    fn warm_start_shape_change_resets_carried_state() {
        let op_a = gaussian_operator(10, 20, 1);
        let op_b = gaussian_operator(12, 20, 2);
        let mut warm = WarmStart::new();
        warm.prepare(&op_a);
        warm.finish_solve(&[1.0; 20], 7, false);
        assert!(warm.seed(20).is_some());
        warm.prepare(&op_a);
        assert!(warm.seed(20).is_some(), "same shape keeps the seed");
        warm.prepare(&op_b);
        assert!(warm.seed(20).is_none(), "shape change clears the seed");
    }

    #[test]
    fn lipschitz_first_call_matches_cold_formula_then_reuses() {
        let op = gaussian_operator(15, 30, 3);
        let mut warm = WarmStart::new();
        let s = op.spectral_norm_estimate(30);
        let cold = (s * s * 1.02).max(1e-12);
        assert_eq!(warm.lipschitz(&op).to_bits(), cold.to_bits());
        // Second call reuses the cached norm with the wider margin.
        let reused = (s * s * 1.05).max(1e-12);
        assert_eq!(warm.lipschitz(&op).to_bits(), reused.to_bits());
    }

    #[test]
    fn saved_iteration_accounting_uses_cold_baseline() {
        let mut warm = WarmStart::new();
        warm.finish_solve(&[0.0; 4], 100, false); // cold baseline
        warm.finish_solve(&[0.0; 4], 30, true);
        warm.finish_solve(&[0.0; 4], 120, true); // never negative
        assert_eq!(warm.saved_iterations(), 70);
    }

    #[test]
    fn counters_survive_clear() {
        let mut warm = WarmStart::new();
        warm.note_warm_start();
        warm.note_restarts(3, 1);
        warm.clear();
        assert_eq!(warm.warm_starts(), 1);
        assert_eq!(warm.restarts(), 3);
    }
}
