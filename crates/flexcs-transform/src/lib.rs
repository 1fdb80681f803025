//! # flexcs-transform
//!
//! Sparsifying transforms and sparsity statistics for the flexcs stack
//! (DAC 2020 *Robust Design of Large Area Flexible Electronics via
//! Compressed Sensing* reproduction).
//!
//! The paper's pipeline represents sensor frames in the 2-D DCT basis
//! (Eqs. 3–7), measures how sparse natural body signals are there
//! (Fig. 2), and reconstructs frames by inverting the basis after L1
//! recovery. This crate provides:
//!
//! - [`DctPlan`] / [`Dct2d`]: orthonormal DCT-II and inverse for any size,
//!   taking the fast Lee recursion for power-of-two lengths.
//! - [`psi_matrix`]: the dense basis Ψ of paper Eq. 4/5, with
//!   [`vectorize`]/[`devectorize`] helpers.
//! - [`sparsity`] statistics: sorted magnitudes (Fig. 2a), significant
//!   coefficient counts at the paper's `1e-4` threshold (Fig. 2b),
//!   best-K approximation and the Eq. 1 measurement estimate.
//!
//! ## Example
//!
//! ```
//! use flexcs_linalg::Matrix;
//! use flexcs_transform::{Dct2d, sparsity};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A smooth frame is highly compressible in the DCT domain.
//! let frame = Matrix::from_fn(16, 16, |i, j| {
//!     ((i as f64) * 0.2).sin() + ((j as f64) * 0.15).cos()
//! });
//! let coeffs = Dct2d::new(16, 16)?.forward(&frame)?;
//! let report = sparsity::analyze(&coeffs);
//! assert!(report.fraction < 0.5, "smooth frames are sparse in DCT");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basis;
mod dct;
mod error;
pub mod sparsity;

pub use basis::{devectorize, psi_matrix, vectorize};
pub use dct::{Dct2d, DctPlan};
pub use error::{Result, TransformError};
pub use sparsity::{
    analyze, best_k_approximation, k_term_relative_error, required_measurements, significant_count,
    significant_fraction, sorted_magnitudes, sparsity_for_energy, SparsityReport,
    PAPER_SIGNIFICANCE_THRESHOLD,
};
