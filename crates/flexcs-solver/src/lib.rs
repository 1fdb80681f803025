//! # flexcs-solver
//!
//! Sparse-recovery solvers for the flexcs compressed-sensing decoder
//! (DAC 2020 *Robust Design of Large Area Flexible Electronics via
//! Compressed Sensing* reproduction).
//!
//! The paper's decoder solves the L1 problem of Eq. 9,
//! `min ‖x‖₁ s.t. Φ·y = Φ·Ψ·x`, "through convex optimization or …
//! re-formulated as a linear programming problem". Rust has no mature CS
//! solver ecosystem, so this crate implements the full stack from
//! scratch, keeping only the solvers the pipeline or the paper uses:
//!
//! | family | functions | problem | used by |
//! |---|---|---|---|
//! | greedy | [`omp`] | K-sparse least squares | the adaptive greedy tier |
//! | proximal | [`ista`], [`fista`] | LASSO `λ‖x‖₁ + ½‖Ax−b‖₂²` | every decode (FISTA) |
//! | interior point | [`lp_basis_pursuit`] | exact BP as an LP | the paper's reference |
//!
//! Each algorithm has exactly one entry point: a function under its
//! bare name that takes the caller's [`SolveWorkspace`] (ISTA and FISTA
//! also take an optional [`WarmStart`]; the LP solver needs no
//! workspace). [`SparseSolver`] is the one dispatch over all of them:
//! [`SparseSolver::solve`] runs cold on a fresh workspace and
//! [`SparseSolver::solve_warm`] reuses the caller's workspace and warm
//! state.
//!
//! All solvers work through the [`LinearOperator`] abstraction so the
//! flexcs pipeline can keep `A = Φ·Ψ` implicit (separable DCT transforms)
//! — only the LP (flagged by [`SparseSolver::requires_dense`])
//! materializes `A`.
//!
//! ## Example
//!
//! ```
//! use flexcs_linalg::Matrix;
//! use flexcs_solver::{DenseOperator, GreedyConfig, SparseSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 2 measurements of a 1-sparse signal in R^3.
//! let a = Matrix::from_rows(&[&[0.2, 0.9, 0.1], &[0.1, 0.9, 0.2]])?;
//! let op = DenseOperator::new(a);
//! let b = [1.8, 1.8]; // x = (0, 2, 0)
//! let rec = SparseSolver::Omp(GreedyConfig::with_sparsity(1)).solve(&op, &b)?;
//! assert!((rec.x[1] - 2.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Validation guards are written `!(x > 0.0)` on purpose: the negated
// comparison also rejects NaN parameters, which `x <= 0.0` would let
// through.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod error;
mod greedy;
mod ista;
mod lp;
mod op;
mod report;
mod select;
mod tel;
mod workspace;

pub use error::{Result, SolverError};
pub use greedy::{omp, GreedyConfig};
pub use ista::{fista, ista, IstaConfig};
pub use lp::{lp_basis_pursuit, LpConfig};
pub use op::{check_measurements, power_iteration_norm, DenseOperator, LinearOperator};
pub use report::{Recovery, SolveReport};
pub use select::SparseSolver;
pub use workspace::{SolveWorkspace, WarmStart};

#[cfg(test)]
pub(crate) mod testutil {
    //! Deterministic fixtures for solver tests: Gaussian measurement
    //! matrices and K-sparse ground-truth signals.

    use crate::DenseOperator;
    use flexcs_linalg::{Matrix, SplitMix64};

    /// Random Gaussian `m x n` operator with unit-norm expected columns.
    pub fn gaussian_operator(m: usize, n: usize, seed: u64) -> DenseOperator {
        let mut rng = SplitMix64::new(seed);
        let scale = 1.0 / (m as f64).sqrt();
        DenseOperator::new(Matrix::from_fn(m, n, |_, _| rng.gaussian() * scale))
    }

    /// K-sparse signal with ±[1, 2) magnitudes at random positions.
    pub fn sparse_signal(n: usize, k: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        let mut x = vec![0.0; n];
        let mut placed = 0;
        while placed < k {
            let idx = (rng.next_u64() % n as u64) as usize;
            if x[idx] == 0.0 {
                let sign = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
                x[idx] = sign * (1.0 + rng.uniform());
                placed += 1;
            }
        }
        x
    }
}
