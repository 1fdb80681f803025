//! # flexcs-linalg
//!
//! Self-contained dense linear algebra for the flexcs stack — the Rust
//! reproduction of *"Robust Design of Large Area Flexible Electronics via
//! Compressed Sensing"* (DAC 2020).
//!
//! The crate deliberately implements everything from scratch (the
//! reproduction brief forbids external linear-algebra dependencies) and is
//! sized for the problem domain: sensor frames up to a few thousand pixels,
//! MNA circuit Jacobians of a few hundred nodes, and RPCA on frame-sized
//! matrices.
//!
//! ## Contents
//!
//! - [`Matrix`]: dense row-major `f64` matrix with the usual algebra.
//! - [`vecops`]: slice-level vector kernels (dot, norms, the fused FISTA step).
//! - [`simd`]: runtime-dispatched micro-kernel tiers (x86_64 AVX2+FMA /
//!   portable scalar, the only tier on other targets) behind a
//!   `OnceLock`'d kernel table.
//! - [`Lu`] / [`solve`]: partially pivoted LU for general square systems.
//! - [`Cholesky`] / [`solve_spd`]: SPD solves for Gram systems.
//! - [`Qr`] / [`solve_least_squares`]: Householder QR for least squares.
//! - [`Svd`]: one-sided Jacobi SVD (thin), plus singular-value shrinkage
//!   for RPCA.
//! - [`Rsvd`]: randomized truncated SVD (Gaussian range finder, block
//!   power iterations, residual certificate) for the RPCA hot path.
//! - [`Complex`] / [`ComplexMatrix`]: complex solves for AC circuit
//!   analysis.
//!
//! ## Example
//!
//! ```
//! use flexcs_linalg::{Matrix, Svd};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = Matrix::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 5) as f64);
//! let svd = Svd::compute(&a)?;
//! let a2 = svd.truncated(2); // best rank-2 approximation
//! assert!(a2.norm_fro() <= a.norm_fro() + 1e-12);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the `simd` module's vector tiers opt
// back in with a module-level `allow(unsafe_code)` (runtime-dispatched
// `std::arch` intrinsics behind safe, length-checked wrappers). All
// other code in the workspace stays on safe Rust, enforced by the
// grep lint in scripts/check.sh.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// Factorization kernels are written as index loops over sub-ranges of
// rows/columns, mirroring the textbook algorithms (and keeping the
// triangular-solve bounds visible); iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod complex;
mod error;
mod lu;
mod matrix;
mod qr;
mod rsvd;
pub mod simd;
mod svd;
pub mod vecops;

pub use cholesky::{solve_spd, Cholesky};
pub use complex::{Complex, ComplexMatrix};
pub use error::{LinalgError, Result};
pub use lu::{solve, Lu};
pub use matrix::Matrix;
pub use qr::{solve_least_squares, Qr, QrScratch};
pub use rsvd::{Rsvd, RsvdConfig};
pub use svd::{spectral_norm_estimate, Svd};
