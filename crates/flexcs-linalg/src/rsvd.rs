//! Randomized truncated SVD (Halko–Martinsson–Tropp range finder).
//!
//! [`Rsvd`] computes the top-`r` singular triplets of an `m x n` matrix
//! in O(m·n·l) time (l = r + oversampling) instead of the one-sided
//! Jacobi kernel's O(m·n²) per sweep: sketch the range with a Gaussian
//! test matrix, tighten it with QR-re-orthonormalized block power
//! iterations, then run the exact Jacobi SVD on the small projected
//! matrix `B = Qᵀ·A`. Everything is deterministic: the test matrix
//! comes from a fixed-seed [`SplitMix64`] stream, so the same input
//! always produces bit-identical factors.
//!
//! Two extras matter to the RPCA caller:
//!
//! - **Warm starts.** [`Rsvd::compute_warm`] seeds the subspace from a
//!   previous `Q` (the dominant subspace of inexact-ALM iterates drifts
//!   slowly), so it runs one power pass instead of a cold start's two.
//! - **A residual certificate.** [`Rsvd::residual`] reports
//!   `‖A − Q·Qᵀ·A‖_F` (computed exactly from the Frobenius identity
//!   `‖A‖²_F = ‖Qᵀ·A‖²_F + ‖A − Q·Qᵀ·A‖²_F`), so callers can detect
//!   under-capture and either grow the subspace or fall back to the
//!   exact SVD.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::qr::Qr;
use crate::rng::SplitMix64;
use crate::svd::Svd;

/// Extra subspace columns beyond the requested rank. More columns buy
/// capture accuracy at O(m·n) cost per column.
pub const RSVD_OVERSAMPLE: usize = 8;

/// Seed of the Gaussian test matrix (fixed so decompositions are
/// reproducible run to run).
const SEED: u64 = 0x00f1_e6c5;

/// Block power passes on a cold start (each is one `A·Aᵀ` application
/// with QR re-orthonormalization). A warm start runs one: its subspace
/// already points at the dominant directions.
const COLD_POWER_PASSES: usize = 2;

/// A randomized truncated SVD `A ≈ U·Σ·Vᵀ` with
/// `l = rank + RSVD_OVERSAMPLE` computed triplets, plus the captured
/// subspace and an error certificate.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::{Matrix, Rsvd, Svd};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Rank-2 matrix: the randomized SVD recovers both singular values.
/// let u = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[1.0, -1.0]])?;
/// let v = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 3.0]])?;
/// let a = u.matmul(&v)?;
/// let rsvd = Rsvd::compute(&a, 2)?;
/// let exact = Svd::compute(&a)?;
/// assert!((rsvd.sigma()[0] - exact.sigma()[0]).abs() < 1e-10);
/// assert!((rsvd.sigma()[1] - exact.sigma()[1]).abs() < 1e-10);
/// // Rank 2 fully captured: the certificate sits at its ~1e-8·‖A‖_F
/// // floating-point cancellation floor rather than at zero.
/// assert!(rsvd.residual() < 1e-6 * a.norm_fro());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Rsvd {
    u: Matrix,
    sigma: Vec<f64>,
    v: Matrix,
    subspace: Matrix,
    residual: f64,
}

impl Rsvd {
    /// Computes a randomized truncated SVD capturing (at least) the top
    /// `rank` triplets of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for an empty matrix or
    /// `rank == 0`, and propagates QR/SVD failures.
    pub fn compute(a: &Matrix, rank: usize) -> Result<Self> {
        Self::compute_warm(a, rank, None)
    }

    /// [`Rsvd::compute`] with a warm-started subspace: the leading
    /// columns of the sketch are taken from `warm` (a previous
    /// [`Rsvd::subspace`] with matching row count) and only the
    /// remainder is drawn fresh from the Gaussian stream. One power
    /// pass then tightens the combined subspace and re-projects stale
    /// directions through `A`, so a slowly drifting dominant subspace
    /// (RPCA's inexact-ALM iterates) converges with a single pass.
    ///
    /// A `warm` matrix with mismatched rows (or zero columns) is
    /// ignored, and the solve runs as a cold start.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for an empty matrix or
    /// `rank == 0`, and propagates QR/SVD failures.
    pub fn compute_warm(a: &Matrix, rank: usize, warm: Option<&Matrix>) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::InvalidArgument(
                "rsvd: empty matrix".to_string(),
            ));
        }
        if rank == 0 {
            return Err(LinalgError::InvalidArgument(
                "rsvd: rank must be at least 1".to_string(),
            ));
        }
        let l = (rank + RSVD_OVERSAMPLE).clamp(1, m.min(n));
        let warm = warm.filter(|q| q.rows() == m && q.cols() > 0);

        // Sketch Y spanning (approximately) the range of A: warm
        // columns verbatim, the rest A·Ω with Gaussian Ω.
        let sketch = match warm {
            Some(q) => {
                let keep = q.cols().min(l);
                if keep == l {
                    q.submatrix(0, m, 0, l)
                } else {
                    let omega = gaussian(n, l - keep);
                    let fresh = panel_matmul(a, &omega)?;
                    Matrix::from_fn(m, l, |i, j| {
                        if j < keep {
                            q[(i, j)]
                        } else {
                            fresh[(i, j - keep)]
                        }
                    })
                }
            }
            None => panel_matmul(a, &gaussian(n, l))?,
        };
        let mut q = Qr::factor(&sketch)?.q_thin();

        // Block power iterations: Q ← orth(A·orth(Aᵀ·Q)). QR after each
        // half-step keeps the basis numerically orthonormal (plain
        // power iterations collapse onto the top singular vector).
        let passes = if warm.is_some() { 1 } else { COLD_POWER_PASSES };
        for _ in 0..passes {
            let z = q.transpose().matmul(a)?.transpose();
            let qz = Qr::factor(&z)?.q_thin();
            let y = panel_matmul(a, &qz)?;
            q = Qr::factor(&y)?.q_thin();
        }

        // Project to the small side and finish with the exact SVD:
        // B = Qᵀ·A is l x n, so the Jacobi kernel costs O(n·l²) per
        // sweep instead of O(m·n²).
        let b = q.transpose().matmul(a)?;
        let svd_b = Svd::compute(&b)?;
        let a_fro2: f64 = a.iter().map(|x| x * x).sum();
        let b_fro2: f64 = b.iter().map(|x| x * x).sum();
        let residual = (a_fro2 - b_fro2).max(0.0).sqrt();
        let u = q.matmul(svd_b.u())?;
        Ok(Rsvd {
            u,
            sigma: svd_b.sigma().to_vec(),
            v: svd_b.v().clone(),
            subspace: q,
            residual,
        })
    }

    /// Left singular vectors (`m x l`).
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// Computed singular values (length `l`, non-increasing). Only the
    /// leading `rank` are accurate to working precision; the
    /// oversampling tail is an estimate used for adaptation decisions.
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// Right singular vectors (`n x l`).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// The captured orthonormal range basis `Q` (`m x l`) — feed this
    /// back into [`Rsvd::compute_warm`] to warm-start the next solve.
    pub fn subspace(&self) -> &Matrix {
        &self.subspace
    }

    /// Error certificate `‖A − Q·Qᵀ·A‖_F`: the Frobenius mass of `A`
    /// outside the captured subspace. An upper bound on every
    /// uncaptured singular value, so `residual() <= t` certifies that
    /// no discarded singular value exceeds `t`.
    ///
    /// Computed from the identity `‖A‖²_F − ‖Qᵀ·A‖²_F`, whose floating
    /// point cancellation leaves a noise floor of roughly
    /// `1e-8 · ‖A‖_F`; treat smaller values as "fully captured" rather
    /// than meaningful tail estimates.
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Largest computed singular value (0.0 for an empty spectrum).
    pub fn spectral_norm(&self) -> f64 {
        self.sigma.first().copied().unwrap_or(0.0)
    }

    /// Number of computed singular values strictly above the **absolute**
    /// threshold — the count singular-value shrinkage retains. Compare
    /// with [`Svd::rank`], which is relative to `σ_max`.
    pub fn rank_abs(&self, threshold: f64) -> usize {
        self.sigma.iter().filter(|&&s| s > threshold).count()
    }

    /// Reconstructs `U·Σ·Vᵀ` from the computed triplets.
    pub fn reconstruct(&self) -> Matrix {
        let us = Matrix::from_fn(self.u.rows(), self.sigma.len(), |i, j| {
            self.u[(i, j)] * self.sigma[j]
        });
        us.matmul_transpose_b(&self.v)
            .expect("rsvd factors have consistent shapes")
    }

    /// Applies soft thresholding to the singular values and
    /// reconstructs — the singular-value shrinkage operator used by
    /// RPCA. Triplets with `σ <= tau` contribute nothing, so the cost
    /// is O(m·n·r) with `r` the retained rank.
    pub fn shrink(&self, tau: f64) -> Matrix {
        let mut shrunk = Matrix::zeros(self.u.rows(), self.v.rows());
        for (j, &sig) in self.sigma.iter().enumerate() {
            let s = (sig - tau).max(0.0);
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
}

/// Deterministic standard-Gaussian test matrix from a [`SplitMix64`]
/// stream, both Box–Muller branches per uniform pair. Stateless across
/// calls: the same `(rows, cols)` always yields the same matrix.
fn gaussian(rows: usize, cols: usize) -> Matrix {
    let mut rng = SplitMix64::from_state(SEED ^ 0x6a09_e667_f3bc_c908);
    // (0, 1) open on both ends so ln() below is always finite.
    let mut uniform = move || ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let count = rows * cols;
    let mut data = Vec::with_capacity(count);
    while data.len() < count {
        let r = (-2.0 * uniform().ln()).sqrt();
        let theta = std::f64::consts::TAU * uniform();
        data.push(r * theta.cos());
        if data.len() < count {
            data.push(r * theta.sin());
        }
    }
    Matrix::from_vec(rows, cols, data).expect("sized exactly above")
}

/// Row-panel edge for the fan-out product: panels this tall amortize
/// thread hand-off while staying well inside L2 alongside the (skinny)
/// right operand.
const PANEL_ROWS: usize = 64;

/// `a * b` with the rows of `a` fanned out across threads in
/// [`PANEL_ROWS`]-row panels (the range finder's products are tall and
/// skinny: `m` large, `b` a few dozen columns wide).
///
/// Bit-identical to [`Matrix::matmul`]: each output row is produced by
/// the same blocked kernel over the same operands in the same
/// floating-point order regardless of which panel — or thread — it
/// lands in, and panels are reassembled in index order.
fn panel_matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let (m, inner) = a.shape();
    if inner != b.rows() || m < 2 * PANEL_ROWS || flexcs_parallel::default_threads() == 1 {
        return a.matmul(b);
    }
    let panels = m.div_ceil(PANEL_ROWS);
    let blocks = flexcs_parallel::par_map_indices(panels, |p| {
        let r0 = p * PANEL_ROWS;
        let r1 = ((p + 1) * PANEL_ROWS).min(m);
        a.submatrix(r0, r1, 0, inner)
            .matmul(b)
            .expect("inner dimensions checked before fan-out")
    });
    let mut data = Vec::with_capacity(m * b.cols());
    for block in blocks {
        data.extend_from_slice(block.as_slice());
    }
    Matrix::from_vec(m, b.cols(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic low-rank + small-noise test matrix.
    fn low_rank(m: usize, n: usize, rank: usize, noise: f64) -> Matrix {
        let u = Matrix::from_fn(m, rank, |i, r| ((i * (r + 2)) as f64 * 0.37).sin() + 0.1);
        let v = Matrix::from_fn(rank, n, |r, j| ((j * (r + 3)) as f64 * 0.23).cos() - 0.05);
        let mut a = u.matmul(&v).unwrap();
        if noise > 0.0 {
            let e = Matrix::from_fn(m, n, |i, j| ((i * 31 + j * 17) as f64 * 0.71).sin() * noise);
            a += &e;
        }
        a
    }

    #[test]
    fn matches_exact_svd_on_low_rank_input() {
        for &(m, n) in &[(40usize, 30usize), (30, 40), (32, 32)] {
            let a = low_rank(m, n, 4, 0.0);
            let exact = Svd::compute(&a).unwrap();
            let rsvd = Rsvd::compute(&a, 4).unwrap();
            for j in 0..4 {
                assert!(
                    (rsvd.sigma()[j] - exact.sigma()[j]).abs() < 1e-9,
                    "{m}x{n} sigma[{j}]: {} vs {}",
                    rsvd.sigma()[j],
                    exact.sigma()[j]
                );
            }
            assert!(
                rsvd.reconstruct().max_abs_diff(&a).unwrap() < 1e-9,
                "{m}x{n} reconstruction"
            );
            // The certificate's cancellation floor is ~1e-8·‖A‖_F.
            assert!(
                rsvd.residual() < 1e-6 * a.norm_fro(),
                "{m}x{n} certificate {}",
                rsvd.residual()
            );
        }
    }

    #[test]
    fn certificate_reports_uncaptured_energy() {
        // Rank-16 matrix sketched at rank 2 (2 + 8 oversampled
        // columns): the certificate must report the missing tail, and
        // it must upper-bound every uncaptured singular value.
        let a = low_rank(36, 28, 16, 0.0);
        let rsvd = Rsvd::compute(&a, 2).unwrap();
        let exact = Svd::compute(&a).unwrap();
        assert!(rsvd.residual() > 1e-3, "residual {}", rsvd.residual());
        // ‖A − QQᵀA‖_F >= σ_11(A) when only 10 directions are captured.
        assert!(rsvd.residual() >= exact.sigma()[10] * 0.99);
    }

    #[test]
    fn warm_start_with_true_subspace_needs_one_pass() {
        let a = low_rank(48, 32, 3, 1e-9);
        let cold = Rsvd::compute(&a, 3).unwrap();
        // Perturb A slightly (next "frame") and reuse the subspace.
        let b = &a + &Matrix::from_fn(48, 32, |i, j| ((i + 2 * j) as f64 * 0.5).sin() * 1e-6);
        let warm = Rsvd::compute_warm(&b, 3, Some(cold.subspace())).unwrap();
        let exact = Svd::compute(&b).unwrap();
        for j in 0..3 {
            assert!(
                (warm.sigma()[j] - exact.sigma()[j]).abs() < 1e-7,
                "sigma[{j}]: {} vs {}",
                warm.sigma()[j],
                exact.sigma()[j]
            );
        }
    }

    #[test]
    fn warm_start_ignores_mismatched_shapes() {
        let a = low_rank(20, 16, 2, 0.0);
        let stale = Matrix::zeros(7, 3); // wrong row count
        let rsvd = Rsvd::compute_warm(&a, 2, Some(&stale)).unwrap();
        assert!(rsvd.reconstruct().max_abs_diff(&a).unwrap() < 1e-9);
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let a = low_rank(33, 27, 3, 1e-3);
        let r1 = Rsvd::compute(&a, 3).unwrap();
        let r2 = Rsvd::compute(&a, 3).unwrap();
        assert_eq!(r1.sigma(), r2.sigma());
        assert_eq!(r1.u().as_slice(), r2.u().as_slice());
        assert_eq!(r1.v().as_slice(), r2.v().as_slice());
        assert_eq!(r1.subspace().as_slice(), r2.subspace().as_slice());
    }

    #[test]
    fn shrink_matches_exact_shrink_when_captured() {
        let a = low_rank(30, 30, 3, 0.0);
        let tau = Svd::compute(&a).unwrap().sigma()[1] * 0.5;
        let exact = Svd::compute(&a).unwrap().shrink(tau);
        let fast = Rsvd::compute(&a, 3).unwrap().shrink(tau);
        assert!(exact.max_abs_diff(&fast).unwrap() < 1e-8);
    }

    #[test]
    fn rank_abs_counts_absolute_threshold() {
        let a = Matrix::from_diagonal(&[5.0, 3.0, 1.0, 0.2]);
        let rsvd = Rsvd::compute(&a, 4).unwrap();
        assert_eq!(rsvd.rank_abs(0.5), 3);
        assert_eq!(rsvd.rank_abs(4.0), 1);
        assert_eq!(rsvd.rank_abs(10.0), 0);
    }

    #[test]
    fn subspace_is_orthonormal() {
        let a = low_rank(40, 24, 5, 1e-2);
        let rsvd = Rsvd::compute(&a, 5).unwrap();
        let q = rsvd.subspace();
        let qtq = q.transpose().matmul(q).unwrap();
        assert!(qtq.max_abs_diff(&Matrix::identity(q.cols())).unwrap() < 1e-10);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(Rsvd::compute(&Matrix::zeros(0, 3), 1).is_err());
        assert!(Rsvd::compute(&Matrix::zeros(3, 3), 0).is_err());
    }

    #[test]
    fn zero_matrix_yields_zero_spectrum() {
        let rsvd = Rsvd::compute(&Matrix::zeros(12, 9), 2).unwrap();
        assert!(rsvd.sigma().iter().all(|&s| s == 0.0));
        assert!(rsvd.residual() == 0.0);
        assert_eq!(rsvd.rank_abs(0.0), 0);
    }

    #[test]
    fn gaussian_stream_is_seeded_and_plausible() {
        let g1 = gaussian(50, 20);
        let g2 = gaussian(50, 20);
        assert_eq!(g1.as_slice(), g2.as_slice());
        // Standard-normal moments, loosely.
        let mean = g1.mean();
        let var = g1.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 999.0;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var - 1.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn panel_product_is_bit_identical_to_matmul() {
        // Shapes straddling the panel edge, including a remainder panel.
        for &m in &[PANEL_ROWS * 2, PANEL_ROWS * 3 + 17, 200] {
            let a = Matrix::from_fn(m, 40, |i, j| ((i * 13 + j * 7) as f64 * 0.011).sin());
            let b = Matrix::from_fn(40, 12, |i, j| ((i * 5 + j * 3) as f64 * 0.017).cos());
            let fast = panel_matmul(&a, &b).unwrap();
            let reference = a.matmul(&b).unwrap();
            assert_eq!(fast.as_slice(), reference.as_slice(), "{m} rows diverged");
        }
    }
}
