//! Linear-operator abstraction for measurement matrices.
//!
//! CS decoders only need matrix-vector products with `A = Φ·Ψ` and its
//! transpose. Representing `A` as a trait lets the flexcs pipeline plug in
//! the *implicit* subsampled-DCT operator (O(N^1.5) separable transforms)
//! while the greedy solvers and tests can use a dense matrix.

use crate::error::{Result, SolverError};
use flexcs_linalg::Matrix;

/// A real linear operator `A : R^n -> R^m`.
///
/// Implementations must guarantee that [`apply_transpose`] is the exact
/// adjoint of [`apply`]; solvers rely on `⟨A x, y⟩ = ⟨x, Aᵀ y⟩`.
///
/// [`apply`]: LinearOperator::apply
/// [`apply_transpose`]: LinearOperator::apply_transpose
pub trait LinearOperator {
    /// Output dimension `m` (number of measurements).
    fn rows(&self) -> usize;

    /// Input dimension `n` (signal length).
    fn cols(&self) -> usize;

    /// Computes `A·x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.cols()`; solvers
    /// always pass correctly sized inputs.
    fn apply(&self, x: &[f64]) -> Vec<f64>;

    /// Computes `Aᵀ·y`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `y.len() != self.rows()`.
    fn apply_transpose(&self, y: &[f64]) -> Vec<f64>;

    /// Computes `A·x` into a caller-owned buffer.
    ///
    /// The default delegates to [`apply`] and moves the result, so every
    /// operator works; operators on the solver hot path (dense matrices,
    /// the subsampled DCT) override it to write in place so the
    /// workspace-based solvers run allocation-free.
    /// Overrides must produce bit-identical values to [`apply`].
    ///
    /// [`apply`]: LinearOperator::apply
    fn apply_into(&self, x: &[f64], out: &mut Vec<f64>) {
        *out = self.apply(x);
    }

    /// Computes `Aᵀ·y` into a caller-owned buffer.
    ///
    /// Same contract as [`apply_into`], for the adjoint.
    ///
    /// [`apply_into`]: LinearOperator::apply_into
    fn apply_transpose_into(&self, y: &[f64], out: &mut Vec<f64>) {
        *out = self.apply_transpose(y);
    }

    /// Writes measurements `b` into `staged` in the form
    /// [`gradient_into`] reads them; called once per solve.
    ///
    /// The default copies `b`. An operator that overrides one of this
    /// method and [`gradient_into`] overrides both, so a wrapper that
    /// forwards neither (and so runs both defaults) stays consistent.
    ///
    /// [`gradient_into`]: LinearOperator::gradient_into
    fn stage_measurements(&self, b: &[f64], staged: &mut Vec<f64>) {
        staged.clear();
        staged.extend_from_slice(b);
    }

    /// Computes the least-squares gradient `Aᵀ(A·y − b)` into `out`, with
    /// `staged` from [`stage_measurements`] on the same `b`.
    ///
    /// The default is [`apply_into`] into `ax`, `r = ax − b` and
    /// [`apply_transpose_into`] of `r`. Overrides must produce
    /// bit-identical values to it; they may leave `ax` and `r` untouched.
    ///
    /// [`stage_measurements`]: LinearOperator::stage_measurements
    /// [`apply_into`]: LinearOperator::apply_into
    /// [`apply_transpose_into`]: LinearOperator::apply_transpose_into
    fn gradient_into(
        &self,
        y: &[f64],
        staged: &[f64],
        ax: &mut Vec<f64>,
        r: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        self.apply_into(y, ax);
        flexcs_linalg::vecops::sub_into(r, ax, staged);
        self.apply_transpose_into(r, out);
    }

    /// Materializes column `j` (defaults to `A·e_j`).
    fn column(&self, j: usize) -> Vec<f64> {
        let mut basis = Vec::new();
        let mut out = Vec::new();
        self.column_into(j, &mut basis, &mut out);
        out
    }

    /// Materializes column `j` into `out`, reusing `basis` as the
    /// unit-vector scratch so a loop over many columns does not zero a
    /// fresh `cols()`-length buffer per call.
    ///
    /// `basis` must be empty or all zeros on entry (any previous
    /// `column_into` call leaves it that way); it is resized to
    /// `cols()` and restored to all zeros before returning.
    fn column_into(&self, j: usize, basis: &mut Vec<f64>, out: &mut Vec<f64>) {
        basis.resize(self.cols(), 0.0);
        basis[j] = 1.0;
        *out = self.apply(basis);
        basis[j] = 0.0;
    }

    /// Materializes the dense `m x n` matrix row by row via the adjoint.
    ///
    /// Cost is `m` adjoint applications; intended for the dense-only
    /// solver (the LP) and for tests.
    fn to_dense(&self) -> Matrix {
        let m = self.rows();
        let n = self.cols();
        let mut a = Matrix::zeros(m, n);
        let mut e = vec![0.0; m];
        for i in 0..m {
            e[i] = 1.0;
            let row = self.apply_transpose(&e);
            e[i] = 0.0;
            a.row_mut(i).copy_from_slice(&row);
        }
        a
    }

    /// Estimates the spectral norm `‖A‖₂` by power iteration on `AᵀA`.
    ///
    /// ISTA/FISTA use `1/‖A‖₂²` as a safe step size. Streams of related
    /// solves carry the estimate across solves in their
    /// [`WarmStart`](crate::WarmStart) instead of on the operator.
    fn spectral_norm_estimate(&self, iterations: usize) -> f64 {
        power_iteration_norm(self, iterations)
    }
}

/// Power iteration on `AᵀA`: the default
/// [`LinearOperator::spectral_norm_estimate`].
///
/// Exposed so operators overriding the trait method can still reach
/// the reference algorithm without recursing.
pub fn power_iteration_norm<O: LinearOperator + ?Sized>(op: &O, iterations: usize) -> f64 {
    let n = op.cols();
    if n == 0 || op.rows() == 0 {
        return 0.0;
    }
    let mut x: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.01 * ((i as f64) * 0.73).sin())
        .collect();
    // Two product buffers reused across iterations: operators with
    // in-place `_into` overrides run the whole loop allocation-free.
    let (mut ax, mut atax) = (Vec::new(), Vec::new());
    let mut norm = 0.0;
    for _ in 0..iterations.max(1) {
        op.apply_into(&x, &mut ax);
        op.apply_transpose_into(&ax, &mut atax);
        let s = flexcs_linalg::vecops::norm2(&atax);
        if s == 0.0 {
            return 0.0;
        }
        norm = s.sqrt();
        for (xi, v) in x.iter_mut().zip(&atax) {
            *xi = v / s;
        }
    }
    norm
}

/// Validates that a measurement vector matches the operator's output
/// dimension.
///
/// # Errors
///
/// Returns [`SolverError::DimensionMismatch`] on disagreement.
pub fn check_measurements(op: &dyn LinearOperator, b: &[f64]) -> Result<()> {
    if b.len() != op.rows() {
        return Err(SolverError::DimensionMismatch {
            expected: op.rows(),
            got: b.len(),
        });
    }
    Ok(())
}

/// A dense-matrix operator.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::Matrix;
/// use flexcs_solver::{DenseOperator, LinearOperator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, -1.0]])?;
/// let op = DenseOperator::new(a);
/// assert_eq!(op.apply(&[1.0, 1.0, 1.0]), vec![3.0, 0.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseOperator {
    a: Matrix,
}

impl DenseOperator {
    /// Wraps a dense matrix.
    pub fn new(a: Matrix) -> Self {
        DenseOperator { a }
    }

    /// Borrows the underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }
}

impl From<Matrix> for DenseOperator {
    fn from(a: Matrix) -> Self {
        DenseOperator::new(a)
    }
}

impl LinearOperator for DenseOperator {
    fn rows(&self) -> usize {
        self.a.rows()
    }

    fn cols(&self) -> usize {
        self.a.cols()
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        self.a.matvec(x).expect("caller passes cols()-length input")
    }

    fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        self.a
            .matvec_transpose(y)
            .expect("caller passes rows()-length input")
    }

    fn apply_into(&self, x: &[f64], out: &mut Vec<f64>) {
        self.a
            .matvec_into(x, out)
            .expect("caller passes cols()-length input");
    }

    fn apply_transpose_into(&self, y: &[f64], out: &mut Vec<f64>) {
        self.a
            .matvec_transpose_into(y, out)
            .expect("caller passes rows()-length input");
    }

    fn column_into(&self, j: usize, _basis: &mut Vec<f64>, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.a.rows()).map(|i| self.a[(i, j)]));
    }

    fn to_dense(&self) -> Matrix {
        self.a.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_op() -> DenseOperator {
        DenseOperator::new(Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, -1.0]]).unwrap())
    }

    #[test]
    fn apply_and_adjoint_are_consistent() {
        let op = sample_op();
        let x = [1.0, -1.0, 2.0];
        let y = [0.5, 2.0];
        let ax = op.apply(&x);
        let aty = op.apply_transpose(&y);
        let lhs = flexcs_linalg::vecops::dot(&ax, &y);
        let rhs = flexcs_linalg::vecops::dot(&x, &aty);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn column_extraction() {
        let op = sample_op();
        assert_eq!(op.column(1), vec![2.0, 1.0]);
    }

    #[test]
    fn column_into_reuses_scratch_across_calls() {
        // Exercise the default (apply-based) implementation through a
        // wrapper that hides DenseOperator's direct-copy override.
        struct Opaque(DenseOperator);
        impl LinearOperator for Opaque {
            fn rows(&self) -> usize {
                self.0.rows()
            }
            fn cols(&self) -> usize {
                self.0.cols()
            }
            fn apply(&self, x: &[f64]) -> Vec<f64> {
                self.0.apply(x)
            }
            fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
                self.0.apply_transpose(y)
            }
        }
        let op = Opaque(sample_op());
        let mut basis = Vec::new();
        let mut out = Vec::new();
        for j in 0..op.cols() {
            op.column_into(j, &mut basis, &mut out);
            assert_eq!(out, op.0.column(j), "column {j}");
        }
        assert!(
            basis.iter().all(|&v| v == 0.0),
            "scratch must be zeroed between calls"
        );
    }

    #[test]
    fn to_dense_roundtrip() {
        let op = sample_op();
        let d = op.to_dense();
        assert_eq!(&d, op.matrix());
    }

    #[test]
    fn default_to_dense_via_adjoint() {
        // Wrap in a newtype that hides the dense shortcut.
        struct Opaque(DenseOperator);
        impl LinearOperator for Opaque {
            fn rows(&self) -> usize {
                self.0.rows()
            }
            fn cols(&self) -> usize {
                self.0.cols()
            }
            fn apply(&self, x: &[f64]) -> Vec<f64> {
                self.0.apply(x)
            }
            fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
                self.0.apply_transpose(y)
            }
        }
        let op = Opaque(sample_op());
        assert_eq!(&op.to_dense(), op.0.matrix());
    }

    #[test]
    fn spectral_norm_close_to_exact() {
        let op = sample_op();
        let est = op.spectral_norm_estimate(60);
        let exact = flexcs_linalg::spectral_norm_estimate(op.matrix(), 200);
        assert!((est - exact).abs() / exact < 1e-6);
    }

    #[test]
    fn spectral_norm_is_deterministic() {
        let op = sample_op();
        let est = op.spectral_norm_estimate(60);
        assert_eq!(op.spectral_norm_estimate(60).to_bits(), est.to_bits());
        assert_eq!(
            op.clone().spectral_norm_estimate(60).to_bits(),
            est.to_bits()
        );
    }

    #[test]
    fn check_measurements_rejects_mismatch() {
        let op = sample_op();
        assert!(check_measurements(&op, &[1.0, 2.0]).is_ok());
        assert!(matches!(
            check_measurements(&op, &[1.0]),
            Err(SolverError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }
}
