//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! One-sided Jacobi is chosen over Golub–Kahan bidiagonalization because it
//! is simple, unconditionally convergent, and delivers high relative
//! accuracy — plenty for the moderate matrix sizes (sensor frames up to a
//! few hundred per side) that RPCA and low-rank analysis need.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// A thin singular value decomposition `A = U·Σ·Vᵀ`.
///
/// For an `m x n` input, `u` is `m x k`, `v` is `n x k` and `sigma` has
/// length `k = min(m, n)`, with singular values sorted in non-increasing
/// order.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::{Matrix, Svd};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]])?;
/// let svd = Svd::compute(&a)?;
/// assert!((svd.sigma()[0] - 3.0).abs() < 1e-12);
/// assert!((svd.sigma()[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: Matrix,
    sigma: Vec<f64>,
    v: Matrix,
}

impl Svd {
    /// Computes the thin SVD of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotConverged`] if the Jacobi sweeps do not
    /// reach the orthogonality tolerance (practically unreachable for
    /// finite input) or [`LinalgError::InvalidArgument`] for an empty
    /// matrix.
    pub fn compute(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::InvalidArgument(
                "svd: empty matrix".to_string(),
            ));
        }
        if m >= n {
            Self::compute_tall(a)
        } else {
            // SVD(Aᵀ) = V Σ Uᵀ — swap factors.
            let svd_t = Self::compute_tall(&a.transpose())?;
            Ok(Svd {
                u: svd_t.v,
                sigma: svd_t.sigma,
                v: svd_t.u,
            })
        }
    }

    /// One-sided Jacobi on a tall (m >= n) matrix.
    fn compute_tall(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        let (wt, vt, _sweeps) = jacobi_sweeps(a)?;
        // Singular values are the column norms; U columns are normalized
        // columns of W.
        let sig: Vec<f64> = wt
            .chunks_exact(m)
            .map(|col| col.iter().fold(0.0, |s, w| s + w * w).sqrt())
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&p, &q| {
            sig[q]
                .partial_cmp(&sig[p])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut u = Matrix::zeros(m, n);
        let mut vo = Matrix::zeros(n, n);
        let mut sigma = vec![0.0; n];
        for (new_j, &old_j) in order.iter().enumerate() {
            let s = sig[old_j];
            sigma[new_j] = s;
            // A zero column stays zero; callers treat rank-deficient
            // tails via sigma == 0.
            if s > 0.0 {
                for (i, w) in wt[old_j * m..(old_j + 1) * m].iter().enumerate() {
                    u[(i, new_j)] = w / s;
                }
            }
            for (i, v) in vt[old_j * n..(old_j + 1) * n].iter().enumerate() {
                vo[(i, new_j)] = *v;
            }
        }
        Ok(Svd { u, sigma, v: vo })
    }

    /// Left singular vectors (`m x k`).
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// Singular values, non-increasing.
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// Right singular vectors (`n x k`).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Reconstructs `U·Σ·Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let us = Matrix::from_fn(self.u.rows(), self.sigma.len(), |i, j| {
            self.u[(i, j)] * self.sigma[j]
        });
        us.matmul_transpose_b(&self.v)
            .expect("svd factors have consistent shapes")
    }

    /// Numerical rank: number of singular values above
    /// `tol * sigma_max`.
    ///
    /// The tolerance is **relative** to the largest singular value —
    /// the usual convention for "numerical rank". Callers holding an
    /// absolute singular-value threshold (like RPCA's shrinkage level
    /// `1/μ`) must use [`Svd::rank_abs`] instead: converting via
    /// `rank(t / sigma_max)` round-trips through a division whose
    /// rounding can move the count by one when a singular value sits
    /// exactly at the boundary.
    pub fn rank(&self, tol: f64) -> usize {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        self.sigma.iter().filter(|&&s| s > tol * smax).count()
    }

    /// Number of singular values strictly above the **absolute**
    /// threshold — exactly the count [`Svd::shrink`] retains for
    /// `tau = threshold`. See [`Svd::rank`] for the relative variant.
    pub fn rank_abs(&self, threshold: f64) -> usize {
        self.sigma.iter().filter(|&&s| s > threshold).count()
    }

    /// Best rank-`r` approximation (truncated SVD).
    pub fn truncated(&self, r: usize) -> Matrix {
        let r = r.min(self.sigma.len());
        let us = Matrix::from_fn(self.u.rows(), r, |i, j| self.u[(i, j)] * self.sigma[j]);
        let vt = Matrix::from_fn(r, self.v.rows(), |i, j| self.v[(j, i)]);
        us.matmul(&vt).expect("truncated factors consistent")
    }

    /// Applies soft thresholding to the singular values and reconstructs —
    /// the singular-value shrinkage operator used by RPCA.
    pub fn shrink(&self, tau: f64) -> Matrix {
        let k = self.sigma.len();
        let mut shrunk = Matrix::zeros(self.u.rows(), self.v.rows());
        for j in 0..k {
            let s = (self.sigma[j] - tau).max(0.0);
            if s == 0.0 {
                continue;
            }
            for i in 0..self.u.rows() {
                let uis = self.u[(i, j)] * s;
                for l in 0..self.v.rows() {
                    shrunk[(i, l)] += uis * self.v[(l, j)];
                }
            }
        }
        shrunk
    }

    /// Spectral norm (largest singular value); 0.0 for an empty spectrum.
    pub fn spectral_norm(&self) -> f64 {
        self.sigma.first().copied().unwrap_or(0.0)
    }
}

/// The one-sided Jacobi sweeps of a tall `m x n` matrix `A`: rotates
/// column pairs `(p, q)`, `p < q`, in row-major pair order until every
/// pair is orthogonal to `1e-14` relative. Returns `(wt, vt, sweeps)`:
/// the rotations run on transposed copies so each streams two contiguous
/// rows, row `p` of `wt` (`n x m`) is column `p` of `W = A·V`, row `p`
/// of `vt` (`n x n`) is column `p` of `V`, and `sweeps` counts the
/// sweeps run, the converging one included.
fn jacobi_sweeps(a: &Matrix) -> Result<(Vec<f64>, Vec<f64>, usize)> {
    let (m, n) = a.shape();
    let mut wt = a.transpose().into_vec();
    let mut vt = Matrix::identity(n).into_vec();
    let eps = 1e-14;
    let max_sweeps = 60;
    let mut converged = false;
    let mut off = 0.0;
    let mut sweeps = 0;
    // Columns with negligible norm relative to the matrix are
    // numerically null; rotating them only churns rounding noise.
    let fro2: f64 = a.iter().map(|v| v * v).sum();
    let null_tol = fro2 * 1e-28;
    while sweeps < max_sweeps {
        sweeps += 1;
        off = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for columns p, q.
                let (wp, wq) = row_pair(&mut wt, m, p, q);
                let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                for (&x, &y) in wp.iter().zip(wq.iter()) {
                    app += x * x;
                    aqq += y * y;
                    apq += x * y;
                }
                if app <= null_tol || aqq <= null_tol {
                    continue;
                }
                let denom = (app * aqq).sqrt();
                if denom > 0.0 {
                    off = off.max(apq.abs() / denom);
                }
                if apq.abs() <= eps * denom || denom == 0.0 {
                    continue;
                }
                // Jacobi rotation zeroing the (p, q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate(wp, wq, c, s);
                let (vp, vq) = row_pair(&mut vt, n, p, q);
                rotate(vp, vq, c, s);
            }
        }
        if off <= eps * 8.0 {
            converged = true;
            break;
        }
    }
    if !converged && off > 1e-7 {
        return Err(LinalgError::NotConverged {
            iterations: max_sweeps,
            residual: off,
        });
    }
    Ok((wt, vt, sweeps))
}

/// Rows `p < q` of a row-major buffer with rows of length `len`.
fn row_pair(buf: &mut [f64], len: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = buf.split_at_mut(q * len);
    (&mut head[p * len..(p + 1) * len], &mut tail[..len])
}

/// Applies the plane rotation `(xp, xq) ← (c·xp − s·xq, s·xp + c·xq)`.
fn rotate(xp: &mut [f64], xq: &mut [f64], c: f64, s: f64) {
    for (a, b) in xp.iter_mut().zip(xq.iter_mut()) {
        let (wp, wq) = (*a, *b);
        *a = c * wp - s * wq;
        *b = s * wp + c * wq;
    }
}

/// Largest singular value of `a`, via a handful of power iterations on
/// `AᵀA`. Cheaper than a full SVD when only the operator norm is needed
/// (e.g. for ISTA/FISTA step sizes).
pub fn spectral_norm_estimate(a: &Matrix, iterations: usize) -> f64 {
    let n = a.cols();
    if n == 0 || a.rows() == 0 {
        return 0.0;
    }
    // Deterministic start vector with energy in all coordinates.
    let mut x: Vec<f64> = (0..n)
        .map(|i| 1.0 + (i as f64 * 0.7).sin() * 0.01)
        .collect();
    let mut norm = 0.0;
    for _ in 0..iterations.max(1) {
        let ax = a.matvec(&x).expect("dims fixed");
        let atax = a.matvec_transpose(&ax).expect("dims fixed");
        norm = crate::vecops::norm2(&atax).sqrt();
        let scale = crate::vecops::norm2(&atax);
        if scale == 0.0 {
            return 0.0;
        }
        x = atax.iter().map(|v| v / scale).collect();
    }
    norm
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

    /// FNV-1a over the bit patterns of `values`.
    fn bit_hash(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    #[test]
    fn jacobi_sweeps_keep_their_recorded_bits() {
        // Recorded when the sweep rotated columns of the row-major W and
        // V in place: W and V hashed column by column, then σ and the
        // sweep count.
        let mut r = lcg(11);
        let square = Matrix::from_fn(37, 37, |_, _| r());
        let tall = Matrix::from_fn(50, 20, |_, _| r());
        let factor = Matrix::from_fn(37, 3, |_, _| r());
        let low_rank = factor.matmul(&Matrix::from_fn(3, 37, |_, _| r())).unwrap();
        let mut deficient = Matrix::from_fn(30, 12, |_, _| r());
        for i in 0..30 {
            deficient[(i, 4)] = 0.0;
            deficient[(i, 9)] = deficient[(i, 2)];
        }
        let got: Vec<(u64, u64, u64, usize)> = [square, tall, low_rank, deficient]
            .iter()
            .map(|a| {
                let (wt, vt, sweeps) = jacobi_sweeps(a).unwrap();
                let svd = Svd::compute(a).unwrap();
                (bit_hash(&wt), bit_hash(&vt), bit_hash(svd.sigma()), sweeps)
            })
            .collect();
        let recorded = [
            (
                0x207b_046e_3048_0cc7,
                0xd53e_ee27_6cb0_2b4d,
                0x53c8_6243_241f_138f,
                9,
            ),
            (
                0x6272_1fbe_71e8_37cb,
                0xa4dc_ca0c_0b87_2775,
                0x811b_1130_1999_02dc,
                7,
            ),
            (
                0x82be_ad2b_1034_32fd,
                0x2d13_041b_d4f0_d386,
                0x01be_0252_1f3f_c489,
                6,
            ),
            (
                0x0b71_c78a_f7c5_e27e,
                0xa80f_8706_81eb_27b4,
                0x8138_18e1_3b77_f221,
                7,
            ),
        ];
        assert_eq!(got, recorded, "(W hash, V hash, sigma hash, sweeps)");
    }

    #[test]
    fn diagonal_singular_values() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]).unwrap();
        let svd = Svd::compute(&a).unwrap();
        assert!((svd.sigma()[0] - 3.0).abs() < 1e-12);
        assert!((svd.sigma()[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_tall() {
        let mut r = lcg(3);
        let a = Matrix::from_fn(9, 5, |_, _| r());
        let svd = Svd::compute(&a).unwrap();
        assert!(svd.reconstruct().max_abs_diff(&a).unwrap() < 1e-9);
    }

    #[test]
    fn reconstruction_wide() {
        let mut r = lcg(4);
        let a = Matrix::from_fn(4, 7, |_, _| r());
        let svd = Svd::compute(&a).unwrap();
        assert!(svd.reconstruct().max_abs_diff(&a).unwrap() < 1e-9);
        assert_eq!(svd.sigma().len(), 4);
        assert_eq!(svd.u().shape(), (4, 4));
        assert_eq!(svd.v().shape(), (7, 4));
    }

    #[test]
    fn factors_are_orthonormal() {
        let mut r = lcg(5);
        let a = Matrix::from_fn(8, 6, |_, _| r());
        let svd = Svd::compute(&a).unwrap();
        let utu = svd.u().transpose().matmul(svd.u()).unwrap();
        let vtv = svd.v().transpose().matmul(svd.v()).unwrap();
        assert!(utu.max_abs_diff(&Matrix::identity(6)).unwrap() < 1e-9);
        assert!(vtv.max_abs_diff(&Matrix::identity(6)).unwrap() < 1e-9);
    }

    #[test]
    fn sigma_is_sorted_nonincreasing() {
        let mut r = lcg(6);
        let a = Matrix::from_fn(10, 10, |_, _| r());
        let svd = Svd::compute(&a).unwrap();
        for w in svd.sigma().windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn rank_of_low_rank_matrix() {
        // Rank-2 outer-product construction.
        let u = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let v = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0]]).unwrap();
        let a = u.matmul(&v).unwrap();
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 2);
    }

    #[test]
    fn truncation_is_best_approximation_energy() {
        let mut r = lcg(8);
        let a = Matrix::from_fn(6, 6, |_, _| r());
        let svd = Svd::compute(&a).unwrap();
        let a2 = svd.truncated(2);
        let err = (&a - &a2).norm_fro();
        // Eckart–Young: error equals sqrt of the sum of trailing squared
        // singular values.
        let expect: f64 = svd.sigma()[2..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((err - expect).abs() < 1e-9);
    }

    #[test]
    fn shrink_matches_manual() {
        let a = Matrix::from_diagonal(&[5.0, 1.0]);
        let svd = Svd::compute(&a).unwrap();
        let s = svd.shrink(2.0);
        assert!(s.max_abs_diff(&Matrix::from_diagonal(&[3.0, 0.0])).unwrap() < 1e-12);
    }

    #[test]
    fn spectral_norm_estimate_close_to_svd() {
        let mut r = lcg(11);
        let a = Matrix::from_fn(12, 9, |_, _| r());
        let svd = Svd::compute(&a).unwrap();
        let est = spectral_norm_estimate(&a, 50);
        assert!((est - svd.spectral_norm()).abs() / svd.spectral_norm() < 1e-6);
    }

    #[test]
    fn zero_matrix_has_zero_sigma() {
        let svd = Svd::compute(&Matrix::zeros(3, 3)).unwrap();
        assert!(svd.sigma().iter().all(|&s| s == 0.0));
        assert_eq!(svd.rank(1e-12), 0);
    }

    #[test]
    fn empty_matrix_rejected() {
        assert!(Svd::compute(&Matrix::zeros(0, 3)).is_err());
    }

    #[test]
    fn spectral_norm_is_largest_singular_value() {
        let a = Matrix::from_diagonal(&[3.0, 4.0]);
        let svd = Svd::compute(&a).unwrap();
        assert!((svd.spectral_norm() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rank_is_relative_and_rank_abs_is_absolute() {
        // Pins the threshold semantics: rank() scales by sigma_max,
        // rank_abs() does not.
        let a = Matrix::from_diagonal(&[8.0, 4.0, 1.0, 0.25]);
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(0.5), 1); // > 0.5 * 8 = 4 (strict)
        assert_eq!(svd.rank_abs(0.5), 3); // > 0.5 absolute
        assert_eq!(svd.rank_abs(4.0), 1); // strict at the boundary
        assert_eq!(svd.rank_abs(0.0), 4);
        // rank_abs counts exactly what shrink retains.
        let tau = 0.5;
        let retained = svd.sigma().iter().filter(|&&s| s - tau > 0.0).count();
        assert_eq!(svd.rank_abs(tau), retained);
    }
}
