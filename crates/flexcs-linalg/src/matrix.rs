//! Dense, row-major, `f64` matrix type.
//!
//! [`Matrix`] is the workhorse container of the flexcs stack: sensor frames,
//! DCT bases, measurement operators and RPCA decompositions are all carried
//! as dense matrices. The representation is a contiguous row-major
//! `Vec<f64>`, which keeps iteration cache-friendly for the moderate sizes
//! (tens to a few thousand rows) used by large-area sensor arrays.

use crate::error::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every entry equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if rows have unequal
    /// lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::DimensionMismatch(
                "from_rows: empty input".to_string(),
            ));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch(format!(
                    "from_rows: row {i} has {} entries, expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows *
    /// cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "from_vec: {rows}x{cols} needs {} entries, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a column vector (an `n x 1` matrix) from a slice.
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Overwrites `self` with a copy of `other`, reusing the existing
    /// allocation when capacity allows (the in-place analogue of
    /// `clone`, for buffers recycled across solves).
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Reshapes `self` to an all-zero `rows x cols` matrix, reusing the
    /// existing allocation when capacity allows (the in-place analogue
    /// of [`Matrix::zeros`]).
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Appends `col` as a new rightmost column, preserving all existing
    /// entries. The row-major storage is re-packed back-to-front in
    /// place, so the append is O(rows·cols) moves and allocation-free
    /// once the underlying buffer has capacity — this is what lets an
    /// incrementally-grown least-squares submatrix (e.g. OMP's support
    /// matrix) avoid re-extracting every column on each refit.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `col.len() !=
    /// self.rows()`.
    pub fn append_col(&mut self, col: &[f64]) -> Result<()> {
        if col.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "append_col: column of length {} onto a matrix with {} rows",
                col.len(),
                self.rows
            )));
        }
        let (m, k) = (self.rows, self.cols);
        self.data.resize(m * (k + 1), 0.0);
        // Walk rows bottom-up (and entries right-to-left) so every move
        // writes ahead of all still-unmoved data: row i lands at offset
        // i·(k+1) ≥ i·k, past the end of unmoved row i−1.
        for i in (0..m).rev() {
            for c in (0..k).rev() {
                self.data[i * (k + 1) + c] = self.data[i * k + c];
            }
            self.data[i * (k + 1) + k] = col[i];
        }
        self.cols = k + 1;
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns entry `(i, j)` if in bounds.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Iterates over all entries in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutably iterates over all entries in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Shared-dimension block edge for [`Matrix::matmul`]: a
    /// `MATMUL_BLOCK_K x MATMUL_BLOCK_J` panel of `rhs` (64 KiB) stays
    /// resident in L2 while it is swept once per output-row block.
    const MATMUL_BLOCK_K: usize = 64;
    /// Output-column block edge for [`Matrix::matmul`] (1 KiB output-row
    /// slice, L1-resident across the `k` sweep).
    const MATMUL_BLOCK_J: usize = 128;

    /// Matrix product `self * rhs`.
    ///
    /// Cache-blocked ikj kernel: the innermost loop streams contiguous
    /// row slices of `rhs` and the output, and `(k, j)` blocking keeps
    /// the active `rhs` panel and output slice cache-resident, so large
    /// products (SVD/QR/LP inner steps) run several times faster than a
    /// naive triple loop.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "matmul: lhs is {}x{} but rhs is {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let (m, kk, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        // The inner panel update is a dispatched axpy (elementwise, so
        // bit-identical to the historical open-coded loop on every
        // tier); the table lookup is hoisted out of the block sweep.
        let kern = crate::simd::kernels();
        for jb in (0..n).step_by(Self::MATMUL_BLOCK_J) {
            let j_end = (jb + Self::MATMUL_BLOCK_J).min(n);
            for kb in (0..kk).step_by(Self::MATMUL_BLOCK_K) {
                let k_end = (kb + Self::MATMUL_BLOCK_K).min(kk);
                for i in 0..m {
                    let arow = &self.data[i * kk..(i + 1) * kk];
                    let orow = &mut out.data[i * n + jb..i * n + j_end];
                    for k in kb..k_end {
                        let a = arow[k];
                        if a == 0.0 {
                            continue;
                        }
                        let rrow = &rhs.data[k * n + jb..k * n + j_end];
                        (kern.axpy)(a, rrow, orow);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Transpose-aware product `self * rhsᵀ` without materializing the
    /// transpose.
    ///
    /// Both operands are walked along contiguous rows (each output entry
    /// is a row-row dot product), so this is both allocation-free and
    /// cache-friendly where `a.matmul(&b.transpose())` would first build
    /// a strided copy.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless `self.cols() ==
    /// rhs.cols()`.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "matmul_transpose_b: lhs is {}x{} but rhs is {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        // Materialize the transpose and run the blocked axpy kernel: the
        // row-by-row dot-product formulation serializes on its reduction
        // chain and measures 1.5-2x slower than transpose + matmul, so
        // the O(k·n) copy buys a strictly faster product.
        self.matmul(&rhs.transpose())
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() !=
    /// self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "matvec: matrix is {}x{} but vector has length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut y = vec![0.0; self.rows];
        self.matvec_fill(x, &mut y);
        Ok(y)
    }

    /// [`Matrix::matvec`] into a caller-owned buffer (resized to fit):
    /// the allocation-free variant solver inner loops call through
    /// `LinearOperator::apply_into`. Results are bit-identical to
    /// [`Matrix::matvec`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() !=
    /// self.cols()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "matvec_into: matrix is {}x{} but vector has length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        out.resize(self.rows, 0.0);
        self.matvec_fill(x, out);
        Ok(())
    }

    fn matvec_fill(&self, x: &[f64], y: &mut [f64]) {
        // Per-row dispatched dot product: a reduction, so vector tiers
        // re-associate within the documented ≤ 1e-12 relative tolerance
        // (the scalar tier reproduces the historical sum exactly).
        let kern = crate::simd::kernels();
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = (kern.dot)(row, x);
        }
    }

    /// Transposed matrix-vector product `selfᵀ * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() !=
    /// self.rows()`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "matvec_transpose: matrix is {}x{} but vector has length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut y = vec![0.0; self.cols];
        self.matvec_transpose_fill(x, &mut y);
        Ok(y)
    }

    /// [`Matrix::matvec_transpose`] into a caller-owned buffer (resized
    /// and zeroed): the allocation-free variant solver inner loops call
    /// through `LinearOperator::apply_transpose_into`. Results are
    /// bit-identical to [`Matrix::matvec_transpose`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() !=
    /// self.rows()`.
    pub fn matvec_transpose_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "matvec_transpose: matrix is {}x{} but vector has length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        out.clear();
        out.resize(self.cols, 0.0);
        self.matvec_transpose_fill(x, out);
        Ok(())
    }

    fn matvec_transpose_fill(&self, x: &[f64], y: &mut [f64]) {
        // Per-row dispatched axpy (elementwise, bit-identical across
        // tiers), keeping the historical zero-coefficient row skip.
        let kern = crate::simd::kernels();
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            (kern.axpy)(xi, row, y);
        }
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "bad row range {r0}..{r1}");
        assert!(c0 <= c1 && c1 <= self.cols, "bad column range {c0}..{c1}");
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Builds a matrix from the given subset of this matrix's rows.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        Matrix::from_fn(indices.len(), self.cols, |i, j| self[(indices[i], j)])
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Returns `self * s` (entrywise).
    pub fn scaled(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Frobenius norm `sqrt(sum of squares)`.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Sum of absolute entries (entrywise L1 norm).
    pub fn norm_l1(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Trace (sum of diagonal entries) of a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all entries.
    ///
    /// Returns `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Minimum entry (`+inf` for an empty matrix).
    pub fn min(&self) -> f64 {
        self.data.iter().fold(f64::INFINITY, |m, &v| m.min(v))
    }

    /// Maximum entry (`-inf` for an empty matrix).
    pub fn max(&self) -> f64 {
        self.data.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
    }

    /// Flattens to a row-major vector (clone of storage).
    pub fn to_flat(&self) -> Vec<f64> {
        self.data.clone()
    }

    /// `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute difference with another matrix of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Result<f64> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch(format!(
                "max_abs_diff: {}x{} vs {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs())))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

macro_rules! elementwise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Matrix> for &Matrix {
            type Output = Matrix;

            fn $method(self, rhs: &Matrix) -> Matrix {
                assert_eq!(
                    self.shape(),
                    rhs.shape(),
                    concat!(stringify!($method), ": shape mismatch")
                );
                Matrix {
                    rows: self.rows,
                    cols: self.cols,
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }

        impl $trait<Matrix> for Matrix {
            type Output = Matrix;

            fn $method(self, rhs: Matrix) -> Matrix {
                (&self).$method(&rhs)
            }
        }
    };
}

elementwise_binop!(Add, add, +);
elementwise_binop!(Sub, sub, -);

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl Mul<f64> for Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl Neg for Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn append_col_grows_in_place_and_matches_rebuild() {
        let mut grown = Matrix::zeros(3, 0);
        let cols = [[1.0, 4.0, 7.0], [2.0, 5.0, 8.0], [3.0, 6.0, 9.0]];
        for c in &cols {
            grown.append_col(c).unwrap();
        }
        let rebuilt =
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        assert_eq!(grown.as_slice(), rebuilt.as_slice());
        assert_eq!(grown.shape(), (3, 3));
        assert!(sample().append_col(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace().unwrap(), 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let e = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
        assert!(matches!(e, Err(LinalgError::DimensionMismatch(_))));
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample();
        let b = a.transpose();
        let c = a.matmul(&b).unwrap();
        // [1 2 3; 4 5 6] * [1 4; 2 5; 3 6] = [14 32; 32 77]
        assert_eq!(
            c,
            Matrix::from_rows(&[&[14.0, 32.0], &[32.0, 77.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn blocked_matmul_matches_naive_across_block_edges() {
        // Sizes straddling the (k, j) block boundaries exercise every
        // partial-block path of the blocked kernel.
        for &(m, k, n) in &[
            (3usize, 5usize, 4usize),
            (65, 130, 129),
            (128, 64, 256),
            (1, 200, 1),
        ] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 7) as f64 * 0.013).sin());
            let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 17) as f64 * 0.011).cos());
            let fast = a.matmul(&b).unwrap();
            let mut naive = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for t in 0..k {
                        acc += a[(i, t)] * b[(t, j)];
                    }
                    naive[(i, j)] = acc;
                }
            }
            assert!(
                fast.max_abs_diff(&naive).unwrap() < 1e-10,
                "{m}x{k}x{n} diverged"
            );
        }
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Matrix::from_fn(7, 9, |i, j| ((i + 2 * j) as f64 * 0.3).sin());
        let b = Matrix::from_fn(5, 9, |i, j| ((3 * i + j) as f64 * 0.2).cos());
        let fast = a.matmul_transpose_b(&b).unwrap();
        let reference = a.matmul(&b.transpose()).unwrap();
        assert!(fast.max_abs_diff(&reference).unwrap() < 1e-12);
        assert!(a.matmul_transpose_b(&Matrix::zeros(4, 3)).is_err());
    }

    #[test]
    fn matvec_and_transpose_agree_with_dense() {
        let a = sample();
        let y = a.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
        let z = a.matvec_transpose(&[1.0, 1.0]).unwrap();
        assert_eq!(z, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn submatrix_and_selection() {
        let a = sample();
        let s = a.submatrix(0, 2, 1, 3);
        assert_eq!(s, Matrix::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]).unwrap());
        let r = a.select_rows(&[1]);
        assert_eq!(r, Matrix::from_rows(&[&[4.0, 5.0, 6.0]]).unwrap());
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]).unwrap();
        assert!((a.norm_fro() - 5.0).abs() < 1e-12);
        assert_eq!(a.norm_max(), 4.0);
        assert_eq!(a.norm_l1(), 7.0);
    }

    #[test]
    fn arithmetic_operators() {
        let a = sample();
        let b = &a + &a;
        assert_eq!(b[(1, 2)], 12.0);
        let c = &b - &a;
        assert_eq!(c, a);
        let d = &a * 2.0;
        assert_eq!(d, b);
        let e = -&a;
        assert_eq!(e[(0, 0)], -1.0);
        let mut f = a.clone();
        f += &a;
        assert_eq!(f, b);
        f -= &a;
        assert_eq!(f, a);
    }

    #[test]
    fn statistics() {
        let a = sample();
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 6.0);
    }

    #[test]
    fn row_col_access() {
        let a = sample();
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
        assert_eq!(a.get(1, 2), Some(6.0));
        assert_eq!(a.get(2, 0), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = sample();
        let _ = a[(5, 0)];
    }

    #[test]
    fn debug_is_nonempty() {
        let a = sample();
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn max_abs_diff_works() {
        let a = sample();
        let mut b = a.clone();
        b[(0, 0)] += 0.25;
        assert!((a.max_abs_diff(&b).unwrap() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn from_diagonal_places_entries() {
        let d = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d.trace().unwrap(), 6.0);
    }
}
