//! Householder QR factorization and least-squares solves.
//!
//! OMP-family solvers repeatedly solve over-determined systems restricted
//! to the current support set; QR is the numerically robust way to do so.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// A Householder QR factorization `A = Q·R` of an `m x n` matrix with
/// `m >= n`.
///
/// The factorization stores the Householder vectors implicitly and exposes
/// a thin `Q` (`m x n`) and square `R` (`n x n`) on demand.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::{Matrix, Qr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Fit y = a + b t through three points (least squares).
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let qr = Qr::factor(&a)?;
/// let coef = qr.solve_least_squares(&[1.0, 2.0, 3.0])?;
/// assert!((coef[0] - 1.0).abs() < 1e-12);
/// assert!((coef[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factorization: R in the upper triangle, Householder vectors
    /// below the diagonal (with implicit unit leading entry).
    qr: Matrix,
    /// Scalar `beta` for each Householder reflector `H = I - beta v vᵀ`.
    betas: Vec<f64>,
}

impl Qr {
    /// Factors an `m x n` matrix with `m >= n`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `m < n`.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::DimensionMismatch(format!(
                "qr: need rows >= cols, got {m}x{n}"
            )));
        }
        let mut qr = a.clone();
        let mut betas = Vec::with_capacity(n);
        householder_factor_in_place(&mut qr, &mut betas);
        Ok(Qr { qr, betas })
    }

    /// Shape `(m, n)` of the factored matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.qr.shape()
    }

    /// Applies `Qᵀ` to a vector of length `m`.
    fn apply_qt(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        apply_qt_in_place(&self.qr, &self.betas, &mut y);
        y
    }

    /// Solves the least-squares problem `min ||A·x - b||₂`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != m`, or
    /// [`LinalgError::Singular`] when `A` is rank deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let m = self.qr.rows();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch(format!(
                "qr solve: expected rhs of length {m}, got {}",
                b.len()
            )));
        }
        let y = self.apply_qt(b);
        let mut x = Vec::new();
        back_substitute(&self.qr, &y, &mut x)?;
        Ok(x)
    }

    /// Materializes the thin orthonormal factor `Q` (`m x n`).
    pub fn q_thin(&self) -> Matrix {
        let (m, n) = self.qr.shape();
        let mut q = Matrix::zeros(m, n);
        // Apply reflectors in reverse to the first n identity columns.
        for j in 0..n {
            let mut e = vec![0.0; m];
            e[j] = 1.0;
            for k in (0..n).rev() {
                let beta = self.betas[k];
                if beta == 0.0 {
                    continue;
                }
                let mut s = e[k];
                for i in (k + 1)..m {
                    s += self.qr[(i, k)] * e[i];
                }
                s *= beta;
                e[k] -= s;
                for i in (k + 1)..m {
                    e[i] -= s * self.qr[(i, k)];
                }
            }
            for i in 0..m {
                q[(i, j)] = e[i];
            }
        }
        q
    }

    /// Materializes the square upper-triangular factor `R` (`n x n`).
    pub fn r(&self) -> Matrix {
        let n = self.qr.cols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }
}

/// Householder factorization of the matrix held in `qr`, in place: R in
/// the upper triangle, normalized reflector vectors below the diagonal.
/// Shared by [`Qr::factor`] and [`QrScratch`] so both produce
/// bit-identical factors.
fn householder_factor_in_place(qr: &mut Matrix, betas: &mut Vec<f64>) {
    let (m, n) = qr.shape();
    betas.clear();
    for k in 0..n {
        // Householder vector for column k below row k.
        let mut norm = 0.0;
        for i in k..m {
            norm += qr[(i, k)] * qr[(i, k)];
        }
        let norm = norm.sqrt();
        if norm == 0.0 {
            betas.push(0.0);
            continue;
        }
        let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
        let v0 = qr[(k, k)] - alpha;
        // v = (v0, a[k+1..m, k]); normalized so v[0] = 1.
        let mut vsq = v0 * v0;
        for i in (k + 1)..m {
            vsq += qr[(i, k)] * qr[(i, k)];
        }
        if vsq == 0.0 {
            betas.push(0.0);
            continue;
        }
        let beta = 2.0 * v0 * v0 / vsq;
        // Store normalized vector below the diagonal (v/v0, unit head).
        for i in (k + 1)..m {
            qr[(i, k)] /= v0;
        }
        qr[(k, k)] = alpha;
        // Apply H to the remaining columns.
        for j in (k + 1)..n {
            let mut s = qr[(k, j)];
            for i in (k + 1)..m {
                s += qr[(i, k)] * qr[(i, j)];
            }
            s *= beta;
            qr[(k, j)] -= s;
            for i in (k + 1)..m {
                let vik = qr[(i, k)];
                qr[(i, j)] -= s * vik;
            }
        }
        betas.push(beta);
    }
}

/// Applies `Qᵀ` (as stored reflectors) to `y` in place.
fn apply_qt_in_place(qr: &Matrix, betas: &[f64], y: &mut [f64]) {
    let (m, n) = qr.shape();
    for k in 0..n {
        let beta = betas[k];
        if beta == 0.0 {
            continue;
        }
        let mut s = y[k];
        for i in (k + 1)..m {
            s += qr[(i, k)] * y[i];
        }
        s *= beta;
        y[k] -= s;
        for i in (k + 1)..m {
            y[i] -= s * qr[(i, k)];
        }
    }
}

/// Back substitution on the R factor's upper triangle; `x` is resized to
/// `n`. A diagonal entry tiny relative to the largest one signals rank
/// deficiency.
fn back_substitute(qr: &Matrix, y: &[f64], x: &mut Vec<f64>) -> Result<()> {
    let n = qr.cols();
    let rmax = (0..n).fold(0.0_f64, |m, i| m.max(qr[(i, i)].abs()));
    x.clear();
    x.resize(n, 0.0);
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in (i + 1)..n {
            s -= qr[(i, j)] * x[j];
        }
        let rii = qr[(i, i)];
        if rii.abs() <= rmax * 1e-13 {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = s / rii;
    }
    Ok(())
}

/// Reusable storage for repeated QR least-squares solves.
///
/// The greedy sparse solvers refit on a growing support every iteration;
/// factoring through a scratch reuses the packed-factor matrix, reflector
/// scalars and `Qᵀb` buffer across refits instead of allocating each
/// time. Factors and solutions are bit-identical to [`Qr::factor`] +
/// [`Qr::solve_least_squares`] — both run the same in-place routines.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::{Matrix, Qr, QrScratch};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let mut scratch = QrScratch::new();
/// scratch.factor_from(&a)?;
/// let mut x = Vec::new();
/// scratch.solve_least_squares_into(&[1.0, 2.0, 3.0], &mut x)?;
/// let reference = Qr::factor(&a)?.solve_least_squares(&[1.0, 2.0, 3.0])?;
/// assert_eq!(x, reference);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QrScratch {
    qr: Matrix,
    betas: Vec<f64>,
    y: Vec<f64>,
}

impl QrScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        QrScratch {
            qr: Matrix::zeros(0, 0),
            betas: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Factors `a` into the scratch storage, reusing prior allocations.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `a` has more columns
    /// than rows.
    pub fn factor_from(&mut self, a: &Matrix) -> Result<()> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::DimensionMismatch(format!(
                "qr: need rows >= cols, got {m}x{n}"
            )));
        }
        self.qr.copy_from(a);
        householder_factor_in_place(&mut self.qr, &mut self.betas);
        Ok(())
    }

    /// Shape `(m, n)` of the most recently factored matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.qr.shape()
    }

    /// Solves `min ||A·x - b||₂` against the held factorization, writing
    /// the solution into `x` (resized to `n`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != m`, or
    /// [`LinalgError::Singular`] when `A` is rank deficient.
    pub fn solve_least_squares_into(&mut self, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        let (m, _) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch(format!(
                "qr solve: expected rhs of length {m}, got {}",
                b.len()
            )));
        }
        self.y.clear();
        self.y.extend_from_slice(b);
        apply_qt_in_place(&self.qr, &self.betas, &mut self.y);
        back_substitute(&self.qr, &self.y, x)
    }
}

impl Default for QrScratch {
    fn default() -> Self {
        QrScratch::new()
    }
}

/// One-shot least-squares solve `min ||A·x - b||₂`.
///
/// # Errors
///
/// See [`Qr::factor`] and [`Qr::solve_least_squares`].
pub fn solve_least_squares(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Qr::factor(a)?.solve_least_squares(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    #[test]
    fn qr_reconstructs_a() {
        let mut r = lcg(7);
        let a = Matrix::from_fn(8, 5, |_, _| r());
        let qr = Qr::factor(&a).unwrap();
        let rec = qr.q_thin().matmul(&qr.r()).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn q_is_orthonormal() {
        let mut r = lcg(13);
        let a = Matrix::from_fn(10, 4, |_, _| r());
        let q = Qr::factor(&a).unwrap().q_thin();
        let qtq = q.transpose().matmul(&q).unwrap();
        assert!(qtq.max_abs_diff(&Matrix::identity(4)).unwrap() < 1e-10);
    }

    #[test]
    fn exact_square_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = solve_least_squares(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let mut r = lcg(99);
        let a = Matrix::from_fn(20, 6, |_, _| r());
        let b: Vec<f64> = (0..20).map(|_| r()).collect();
        let x_qr = solve_least_squares(&a, &b).unwrap();
        // Normal equations via Cholesky.
        let at = a.transpose();
        let g = at.matmul(&a).unwrap();
        let rhs = at.matvec(&b).unwrap();
        let x_ne = crate::cholesky::solve_spd(&g, &rhs).unwrap();
        for (p, q) in x_qr.iter().zip(&x_ne) {
            assert!((p - q).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_underdetermined() {
        let a = Matrix::zeros(2, 4);
        assert!(Qr::factor(&a).is_err());
    }

    #[test]
    fn detects_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let qr = Qr::factor(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }
}
