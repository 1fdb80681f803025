//! Dense 2-D DCT basis matrix Ψ (paper Eqs. 4–7).
//!
//! The paper writes the sensor frame as `y = Ψ·x` with `y` the vectorized
//! pixel values and `x` the vectorized DCT coefficients. For solvers we
//! normally apply Ψ implicitly through [`crate::Dct2d`] (an O(N^1.5)
//! separable transform); this module also materializes the dense `N x N`
//! matrix for validation, coherence analysis and small problems.

use crate::dct::Dct2d;
use crate::error::Result;
use flexcs_linalg::Matrix;

/// Builds the dense orthonormal basis Ψ for `rows x cols` frames.
///
/// Vectorization is row-major: pixel `(a, b)` maps to index `a·cols + b`
/// and coefficient `(u, v)` to `u·cols + v`. The entry is
/// `Ψ[(a·cols+b), (u·cols+v)] = α_u β_v cos(π(2a+1)u / (2·rows)) ·
/// cos(π(2b+1)v / (2·cols))`, exactly Eq. 5 generalized to rectangular
/// frames.
///
/// # Errors
///
/// Returns a transform error if either dimension is zero.
///
/// # Examples
///
/// ```
/// use flexcs_transform::psi_matrix;
/// use flexcs_linalg::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let psi = psi_matrix(4, 4)?;
/// // Ψ is orthonormal: ΨᵀΨ = I.
/// let g = psi.transpose().matmul(&psi)?;
/// assert!(g.max_abs_diff(&Matrix::identity(16))? < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn psi_matrix(rows: usize, cols: usize) -> Result<Matrix> {
    let plan = Dct2d::new(rows, cols)?;
    let n = rows * cols;
    // Column (u, v) of Ψ is the inverse DCT of the (u, v) unit coefficient.
    let mut psi = Matrix::zeros(n, n);
    let mut unit = Matrix::zeros(rows, cols);
    for u in 0..rows {
        for v in 0..cols {
            unit[(u, v)] = 1.0;
            let img = plan.inverse(&unit)?;
            unit[(u, v)] = 0.0;
            let col = u * cols + v;
            for a in 0..rows {
                for b in 0..cols {
                    psi[(a * cols + b, col)] = img[(a, b)];
                }
            }
        }
    }
    Ok(psi)
}

/// Vectorizes a frame row-major (`(a, b) -> a·cols + b`), the ordering
/// [`psi_matrix`] assumes.
pub fn vectorize(frame: &Matrix) -> Vec<f64> {
    frame.to_flat()
}

/// Reshapes a row-major vector back into a `rows x cols` frame.
///
/// # Errors
///
/// Returns a transform error if `v.len() != rows·cols`.
pub fn devectorize(v: &[f64], rows: usize, cols: usize) -> Result<Matrix> {
    Matrix::from_vec(rows, cols, v.to_vec()).map_err(|_| {
        crate::error::TransformError::InvalidLength {
            len: v.len(),
            reason: "vector length does not match frame shape",
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psi_is_orthonormal() {
        let psi = psi_matrix(3, 5).unwrap();
        let g = psi.transpose().matmul(&psi).unwrap();
        assert!(g.max_abs_diff(&Matrix::identity(15)).unwrap() < 1e-12);
    }

    #[test]
    fn psi_matches_separable_transform() {
        let rows = 4;
        let cols = 3;
        let plan = Dct2d::new(rows, cols).unwrap();
        let psi = psi_matrix(rows, cols).unwrap();
        let coeffs = Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) as f64 * 0.37).sin());
        let img_sep = plan.inverse(&coeffs).unwrap();
        let img_vec = psi.matvec(&vectorize(&coeffs)).unwrap();
        let img_dense = devectorize(&img_vec, rows, cols).unwrap();
        assert!(img_dense.max_abs_diff(&img_sep).unwrap() < 1e-12);
    }

    #[test]
    fn psi_matches_paper_eq5_form() {
        use std::f64::consts::PI;
        // Square array, compare a few entries against the explicit Eq. 5.
        let s = 4usize; // sqrt(N)
        let psi = psi_matrix(s, s).unwrap();
        let nf = s as f64;
        let alpha = |u: usize| {
            if u == 0 {
                (1.0 / nf).sqrt()
            } else {
                (2.0 / nf).sqrt()
            }
        };
        for a in 0..s {
            for b in 0..s {
                for u in 0..s {
                    for v in 0..s {
                        let expect = alpha(u)
                            * alpha(v)
                            * (PI * (2.0 * a as f64 + 1.0) * u as f64 / (2.0 * nf)).cos()
                            * (PI * (2.0 * b as f64 + 1.0) * v as f64 / (2.0 * nf)).cos();
                        let got = psi[(a * s + b, u * s + v)];
                        assert!((expect - got).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn vectorize_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let v = vectorize(&m);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0]);
        let back = devectorize(&v, 2, 2).unwrap();
        assert_eq!(back, m);
        assert!(devectorize(&v, 3, 2).is_err());
    }
}
