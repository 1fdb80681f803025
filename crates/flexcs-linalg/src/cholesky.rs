//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The LP basis-pursuit solver's interior-point Newton steps reduce to
//! `m x m` normal equations, and least squares forms Gram systems
//! `AᵀA x = Aᵀ b`; both are SPD and solved fastest by Cholesky.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::{Matrix, Cholesky};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::factor(&a)?;
/// let x = ch.solve(&[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is assumed, not checked.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is not
    /// strictly positive.
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { index: i });
                    }
                    l[(i, i)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` by two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for a wrong-length rhs.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "cholesky solve: expected rhs of length {n}, got {}",
                b.len()
            )));
        }
        let mut y = b.to_vec();
        self.solve_in_place(&mut y);
        Ok(y)
    }

    fn solve_in_place(&self, y: &mut [f64]) {
        let n = self.dim();
        // Forward: L y = b.
        for i in 0..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.l[(i, j)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.l[(j, i)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
    }
}

/// Solves the SPD system `A·x = b` in one call.
///
/// # Errors
///
/// See [`Cholesky::factor`] and [`Cholesky::solve`].
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Cholesky::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_matches_hand_computation() {
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        let expect =
            Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[6.0, 1.0, 0.0], &[-8.0, 5.0, 3.0]]).unwrap();
        assert!(ch.l().max_abs_diff(&expect).unwrap() < 1e-12);
    }

    #[test]
    fn l_lt_reconstructs() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]).unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[5.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = [6.0, 4.0];
        let x_ch = solve_spd(&a, &b).unwrap();
        let x_lu = crate::lu::solve(&a, &b).unwrap();
        for (p, q) in x_ch.iter().zip(&x_lu) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_rejects_bad_len() {
        let ch = Cholesky::factor(&Matrix::identity(2)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }
}
