//! Orthonormal DCT-II / DCT-III (inverse) transforms, 1-D and 2-D.
//!
//! The paper expresses sensor frames in the 2-D DCT basis (Eqs. 3–7) and
//! reconstructs with the IDCT. [`DctPlan`] is the one place that picks
//! a kernel: an O(n log n) in-place Lee recursion for power-of-two
//! lengths (forward DCT-II and a matching exact inverse DCT-III) or a
//! precomputed dense cosine matrix for every other size. [`Dct2d`]
//! applies the 1-D plans separably, every pass a multi-lane transform
//! over one transposed staging layout whatever kernel each axis runs,
//! and keeps per-thread scratch storage so repeated frames do not
//! reallocate.

use crate::error::{Result, TransformError};
use flexcs_linalg::simd::{self, CODELET_MAX};
use flexcs_linalg::Matrix;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::OnceLock;

thread_local! {
    /// Per-thread 1-D fast-kernel workspace. Scratch used to live on
    /// the plan behind a `Mutex`; the block-tiled decode fan-out hammers
    /// one shared plan from every worker at once, and even a `try_lock`
    /// with an allocate-on-contention fallback turned the hot path into
    /// one allocation per transform. Thread-local scratch is contention-
    /// free and allocation-free once each worker's buffer is warm.
    static PLAN_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Per-thread 2-D frame workspace (transpose staging and multi-lane
    /// scratch), shared by every [`Dct2d`] the thread applies.
    static FRAME_SCRATCH: RefCell<Dct2dScratch> = RefCell::new(Dct2dScratch::default());
}

/// Which kernel a [`DctPlan`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DctKernel {
    /// O(n log n) Lee recursion (power-of-two lengths).
    Fast,
    /// Dense n x n cosine-matrix product (any length).
    Dense,
}

/// A precomputed orthonormal DCT-II plan for a fixed length.
///
/// The transform computed is `y_k = a_k · Σ_t x_t cos(π (2t + 1) k /
/// (2n))` with `a_0 = √(1/n)`, `a_k = √(2/n)`; the inverse is the
/// orthonormal DCT-III (the transpose, since the map is orthonormal).
/// Power-of-two lengths run the O(n log n) Lee recursion; other lengths
/// fall back to a dense cosine matrix. Both kernels agree to ~1e-12.
/// Fast-path scratch is thread-local, so one plan shared across many
/// worker threads transforms concurrently with no lock and no per-call
/// allocation.
///
/// # Examples
///
/// ```
/// use flexcs_transform::DctPlan;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let plan = DctPlan::new(8)?;
/// let x = vec![1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0];
/// let coeffs = plan.forward(&x)?;
/// let back = plan.inverse(&coeffs)?;
/// for (a, b) in x.iter().zip(&back) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DctPlan {
    n: usize,
    kernel: DctKernel,
    /// Dense n x n forward DCT-II matrix; eager for the dense kernel,
    /// built on demand (via [`DctPlan::matrix`]) for the fast kernel.
    dense: OnceLock<Matrix>,
    /// Twiddle factors per recursion level: `levels[l][i] =
    /// cos((i + 0.5)·π / m)` for `m = n >> l`. Empty for the dense kernel.
    levels: Vec<Vec<f64>>,
    /// Reciprocal twiddles `0.5 / levels[l][i]`, so the forward butterfly
    /// multiplies instead of divides (divides dominate the lane cost).
    inv_levels: Vec<Vec<f64>>,
    /// Lane-codelet twiddles for the bottom `min(n, 32)`-point levels,
    /// level by level: reciprocal twiddles (forward) and doubled cosines
    /// `2·cos` (inverse; the same product `lee_inverse` forms).
    codelet_inv: Vec<f64>,
    codelet_twice_cos: Vec<f64>,
    a0: f64,
    ak: f64,
    inv_a0: f64,
    inv_ak: f64,
}

fn cosine_matrix(n: usize) -> Matrix {
    let nf = n as f64;
    let a0 = (1.0 / nf).sqrt();
    let ak = (2.0 / nf).sqrt();
    Matrix::from_fn(n, n, |k, t| {
        let scale = if k == 0 { a0 } else { ak };
        scale * (PI * (2.0 * t as f64 + 1.0) * k as f64 / (2.0 * nf)).cos()
    })
}

fn twiddle_levels(n: usize) -> Vec<Vec<f64>> {
    let mut levels = Vec::new();
    let mut m = n;
    while m >= 2 {
        let mf = m as f64;
        levels.push(
            (0..m / 2)
                .map(|i| ((i as f64 + 0.5) * PI / mf).cos())
                .collect(),
        );
        m /= 2;
    }
    levels
}

impl DctPlan {
    /// Builds a plan for length `n`, choosing the fast Lee kernel for
    /// power-of-two lengths and the dense kernel otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(TransformError::InvalidLength {
                len: 0,
                reason: "dct plan length must be positive",
            });
        }
        let nf = n as f64;
        let kernel = if n.is_power_of_two() {
            DctKernel::Fast
        } else {
            DctKernel::Dense
        };
        let levels = if kernel == DctKernel::Fast {
            twiddle_levels(n)
        } else {
            Vec::new()
        };
        let inv_levels: Vec<Vec<f64>> = levels
            .iter()
            .map(|l| l.iter().map(|c| 0.5 / c).collect())
            .collect();
        let codelet_levels = levels.len().min(CODELET_MAX.trailing_zeros() as usize);
        let tail = levels.len() - codelet_levels;
        let codelet_inv = inv_levels[tail..].concat();
        let codelet_twice_cos = levels[tail..].iter().flatten().map(|c| 2.0 * c).collect();
        let a0 = (1.0 / nf).sqrt();
        let ak = (2.0 / nf).sqrt();
        let plan = DctPlan {
            n,
            kernel,
            dense: OnceLock::new(),
            levels,
            inv_levels,
            codelet_inv,
            codelet_twice_cos,
            a0,
            ak,
            inv_a0: 1.0 / a0,
            inv_ak: 1.0 / ak,
        };
        if kernel == DctKernel::Dense {
            let _ = plan.dense.set(cosine_matrix(n));
        }
        Ok(plan)
    }

    /// Builds a plan that always uses the dense cosine-matrix kernel,
    /// even for power-of-two lengths. Reference path for validating the
    /// fast kernel and for benchmarking.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] if `n == 0`.
    pub fn with_dense(n: usize) -> Result<Self> {
        let mut plan = DctPlan::new(n)?;
        if plan.kernel == DctKernel::Fast {
            plan.kernel = DctKernel::Dense;
            plan.levels = Vec::new();
            plan.inv_levels = Vec::new();
            plan.codelet_inv = Vec::new();
            plan.codelet_twice_cos = Vec::new();
            let _ = plan.dense.set(cosine_matrix(n));
        }
        Ok(plan)
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `true` when this plan runs the O(n log n) Lee kernel.
    pub fn is_fast(&self) -> bool {
        self.kernel == DctKernel::Fast
    }

    /// Borrows the orthonormal cosine matrix (built on demand for
    /// fast-kernel plans).
    pub fn matrix(&self) -> &Matrix {
        self.dense.get_or_init(|| cosine_matrix(self.n))
    }

    /// Forward orthonormal DCT-II.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] when `x.len()` differs
    /// from the plan length.
    pub fn forward(&self, x: &[f64]) -> Result<Vec<f64>> {
        self.check(x.len())?;
        let mut out = vec![0.0; self.n];
        self.forward_unchecked(x, &mut out);
        Ok(out)
    }

    /// Inverse transform (orthonormal DCT-III).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] when `x.len()` differs
    /// from the plan length.
    pub fn inverse(&self, x: &[f64]) -> Result<Vec<f64>> {
        self.check(x.len())?;
        let mut out = vec![0.0; self.n];
        self.inverse_unchecked(x, &mut out);
        Ok(out)
    }

    /// Forward transform into a caller-provided buffer (no allocation on
    /// the fast path once the plan scratch is warm).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] when either slice
    /// length differs from the plan length.
    pub fn forward_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        self.check(x.len())?;
        self.check(out.len())?;
        self.forward_unchecked(x, out);
        Ok(())
    }

    /// Inverse transform into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] when either slice
    /// length differs from the plan length.
    pub fn inverse_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        self.check(x.len())?;
        self.check(out.len())?;
        self.inverse_unchecked(x, out);
        Ok(())
    }

    /// The fast kernel runs the single-lane Lee recursion, the reference
    /// the multi-lane codelets are pinned to; the dense kernel runs its
    /// lane transform on one lane.
    fn forward_unchecked(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(x);
        match self.kernel {
            DctKernel::Fast => {
                self.with_scratch(|s| lee_forward(out, s, &self.inv_levels));
                out[0] *= self.a0;
                (simd::kernels().scale)(&mut out[1..], self.ak);
            }
            DctKernel::Dense => self.with_scratch(|s| self.dense_lanes(out, s, 1, true)),
        }
    }

    fn inverse_unchecked(&self, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(x);
        match self.kernel {
            DctKernel::Fast => {
                out[0] *= self.inv_a0;
                (simd::kernels().scale)(&mut out[1..], self.inv_ak);
                self.with_scratch(|s| lee_inverse(out, s, &self.levels));
            }
            DctKernel::Dense => self.with_scratch(|s| self.dense_lanes(out, s, 1, false)),
        }
    }

    /// Runs `f` with this thread's scratch buffer (resized to n):
    /// contention-free however many threads share the plan. The
    /// `try_borrow_mut` fallback covers re-entrant use only (a transform
    /// invoked from inside another transform's closure).
    fn with_scratch<R>(&self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        PLAN_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut guard) => {
                guard.resize(self.n, 0.0);
                f(&mut guard)
            }
            Err(_) => f(&mut vec![0.0; self.n]),
        })
    }

    /// Orthonormal forward transform of every lane of the row-major
    /// `n x w` buffer `v` (one lane per column). Up to the codelet length
    /// the whole transform is one codelet call that scales on its store;
    /// longer lanes sweep the upper levels and scale afterwards. `s` is
    /// the scratch (same size as `v`), unused by the codelet.
    fn forward_lanes(&self, v: &mut [f64], s: &mut [f64], w: usize) {
        let kern = simd::kernels();
        if self.kernel == DctKernel::Dense {
            self.dense_lanes(v, s, w, true);
        } else if self.n <= CODELET_MAX {
            (kern.lee_forward_lanes)(v, w, &self.codelet_inv, self.a0, self.ak);
        } else {
            lee_forward_cols(v, s, w, &self.inv_levels, &self.codelet_inv);
            (kern.scale)(&mut v[..w], self.a0);
            (kern.scale)(&mut v[w..], self.ak);
        }
    }

    /// Inverse of [`DctPlan::forward_lanes`], in place.
    fn inverse_lanes(&self, v: &mut [f64], s: &mut [f64], w: usize) {
        let kern = simd::kernels();
        if self.kernel == DctKernel::Dense {
            self.dense_lanes(v, s, w, false);
        } else if self.n <= CODELET_MAX {
            (kern.lee_inverse_lanes)(v, w, &self.codelet_twice_cos, self.inv_a0, self.inv_ak);
        } else {
            (kern.scale)(&mut v[..w], self.inv_a0);
            (kern.scale)(&mut v[w..], self.inv_ak);
            lee_inverse_cols(v, s, w, &self.levels, &self.codelet_twice_cos);
        }
    }

    /// Dense kernel over the lanes of `v`, in place: output row `k` is
    /// `Σ_t C[k][t]·v_t` forward (`C[t][k]` inverse) for the cosine
    /// matrix `C`, built in `s` by one dispatched `axpy` per coefficient,
    /// so every tier rounds each lane alike. The forward sum starts from
    /// `-0.0` and runs in `t` order, as the scalar tier's `dot` does, so
    /// it keeps that dot product's bits, signed zeros included.
    fn dense_lanes(&self, v: &mut [f64], s: &mut [f64], w: usize, forward: bool) {
        let (c, kern) = (self.matrix(), simd::kernels());
        let s = &mut s[..v.len()];
        for (k, out) in s.chunks_exact_mut(w).enumerate() {
            out.fill(if forward { -0.0 } else { 0.0 });
            for (t, x) in v.chunks_exact(w).enumerate() {
                let coef = if forward { c[(k, t)] } else { c[(t, k)] };
                (kern.axpy)(coef, x, out);
            }
        }
        v.copy_from_slice(s);
    }

    fn check(&self, len: usize) -> Result<()> {
        if len != self.n {
            return Err(TransformError::InvalidLength {
                len,
                reason: "input length differs from plan length",
            });
        }
        Ok(())
    }
}

/// In-place unscaled DCT-II by Lee's recursion. `v` holds the input and
/// receives the output; `s` is a same-length workspace; `inv_levels` are
/// the per-level reciprocal twiddles (`0.5 / cos`), so the butterfly is
/// all multiplies.
fn lee_forward(v: &mut [f64], s: &mut [f64], inv_levels: &[Vec<f64>]) {
    let n = v.len();
    if n == 1 {
        return;
    }
    if n == 2 {
        // Unrolled base case: skips two n=1 recursion frames per pair.
        let (x, y) = (v[0], v[1]);
        v[0] = x + y;
        v[1] = (x - y) * inv_levels[0][0];
        return;
    }
    let half = n / 2;
    let recip = &inv_levels[0];
    let (alpha, beta) = s.split_at_mut(half);
    for i in 0..half {
        let x = v[i];
        let y = v[n - 1 - i];
        alpha[i] = x + y;
        beta[i] = (x - y) * recip[i];
    }
    {
        // The input halves of `v` are dead now — reuse them as the
        // recursion's workspace so the whole transform is allocation-free.
        let (va, vb) = v.split_at_mut(half);
        lee_forward(alpha, va, &inv_levels[1..]);
        lee_forward(beta, vb, &inv_levels[1..]);
    }
    for i in 0..half - 1 {
        v[i * 2] = alpha[i];
        v[i * 2 + 1] = beta[i] + beta[i + 1];
    }
    v[n - 2] = alpha[half - 1];
    v[n - 1] = beta[half - 1];
}

/// Exact inverse of [`lee_forward`] (an unscaled DCT-III up to the
/// DCT-II normalization): undoes the interleave, inverts the half-size
/// transforms, and reconstructs the butterfly.
fn lee_inverse(v: &mut [f64], s: &mut [f64], levels: &[Vec<f64>]) {
    let n = v.len();
    if n == 1 {
        return;
    }
    if n == 2 {
        let (a, b) = (v[0], v[1]);
        let diff = 2.0 * levels[0][0] * b;
        v[0] = 0.5 * (a + diff);
        v[1] = 0.5 * (a - diff);
        return;
    }
    let half = n / 2;
    let cosines = &levels[0];
    let (alpha, beta) = s.split_at_mut(half);
    for i in 0..half {
        alpha[i] = v[i * 2];
    }
    beta[half - 1] = v[n - 1];
    for i in (0..half - 1).rev() {
        beta[i] = v[i * 2 + 1] - beta[i + 1];
    }
    {
        let (va, vb) = v.split_at_mut(half);
        lee_inverse(alpha, va, &levels[1..]);
        lee_inverse(beta, vb, &levels[1..]);
    }
    for i in 0..half {
        let diff = 2.0 * cosines[i] * beta[i];
        v[i] = 0.5 * (alpha[i] + diff);
        v[n - 1 - i] = 0.5 * (alpha[i] - diff);
    }
}

/// Multi-lane Lee forward recursion: treats the row-major `n x w` buffer
/// `v` as `w` independent length-`n` lanes (one per column) and applies
/// the butterfly to whole rows at a time, so the column pass of the 2-D
/// transform stays on contiguous memory with no per-column gather. Each
/// sweep level halves the length; at the codelet length the dispatched
/// register-blocked codelet ([`simd::Kernels::lee_forward_lanes`])
/// finishes the sub-block in one load and one store. Unscaled.
fn lee_forward_cols(
    v: &mut [f64],
    s: &mut [f64],
    w: usize,
    inv_levels: &[Vec<f64>],
    codelet: &[f64],
) {
    let n = v.len() / w;
    let kern = simd::kernels();
    if n <= CODELET_MAX {
        // Unit scales: the caller scales the whole lane once at the end.
        (kern.lee_forward_lanes)(v, w, codelet, 1.0, 1.0);
        return;
    }
    let half = n / 2;
    let recip = &inv_levels[0];
    let (alpha, beta) = s.split_at_mut(half * w);
    for i in 0..half {
        let inv = recip[i];
        let (arow, brow) = (
            &mut alpha[i * w..(i + 1) * w],
            &mut beta[i * w..(i + 1) * w],
        );
        let x = &v[i * w..(i + 1) * w];
        let y = &v[(n - 1 - i) * w..(n - i) * w];
        (kern.butterfly_split)(arow, brow, x, y, inv);
    }
    {
        let (va, vb) = v.split_at_mut(half * w);
        lee_forward_cols(alpha, va, w, &inv_levels[1..], codelet);
        lee_forward_cols(beta, vb, w, &inv_levels[1..], codelet);
    }
    for i in 0..half - 1 {
        v[i * 2 * w..(i * 2 + 1) * w].copy_from_slice(&alpha[i * w..(i + 1) * w]);
        let dst = &mut v[(i * 2 + 1) * w..(i * 2 + 2) * w];
        let (b0, b1) = (&beta[i * w..(i + 1) * w], &beta[(i + 1) * w..(i + 2) * w]);
        (kern.add)(dst, b0, b1);
    }
    v[(n - 2) * w..(n - 1) * w].copy_from_slice(&alpha[(half - 1) * w..half * w]);
    v[(n - 1) * w..n * w].copy_from_slice(&beta[(half - 1) * w..half * w]);
}

/// Multi-lane inverse of [`lee_forward_cols`], with the codelet
/// ([`simd::Kernels::lee_inverse_lanes`]) as its base case. Unscaled.
fn lee_inverse_cols(v: &mut [f64], s: &mut [f64], w: usize, levels: &[Vec<f64>], codelet: &[f64]) {
    let n = v.len() / w;
    let kern = simd::kernels();
    if n <= CODELET_MAX {
        (kern.lee_inverse_lanes)(v, w, codelet, 1.0, 1.0);
        return;
    }
    let half = n / 2;
    let cosines = &levels[0];
    let (alpha, beta) = s.split_at_mut(half * w);
    for i in 0..half {
        alpha[i * w..(i + 1) * w].copy_from_slice(&v[i * 2 * w..(i * 2 + 1) * w]);
    }
    beta[(half - 1) * w..half * w].copy_from_slice(&v[(n - 1) * w..n * w]);
    for i in (0..half - 1).rev() {
        let (head, tail) = beta.split_at_mut((i + 1) * w);
        let dst = &mut head[i * w..];
        let next = &tail[..w];
        let src = &v[(i * 2 + 1) * w..(i * 2 + 2) * w];
        (kern.sub)(dst, src, next);
    }
    {
        let (va, vb) = v.split_at_mut(half * w);
        lee_inverse_cols(alpha, va, w, &levels[1..], codelet);
        lee_inverse_cols(beta, vb, w, &levels[1..], codelet);
    }
    for i in 0..half {
        let twice_cos = 2.0 * cosines[i];
        let (arow, brow) = (&alpha[i * w..(i + 1) * w], &beta[i * w..(i + 1) * w]);
        let (head, tail) = v.split_at_mut((n - 1 - i) * w);
        let top = &mut head[i * w..(i + 1) * w];
        let bottom = &mut tail[..w];
        (kern.butterfly_merge)(top, bottom, arow, brow, twice_cos);
    }
}

/// Scratch buffers reused across [`Dct2d`] applications on the same
/// thread: two frame-sized buffers that take turns as the staging frame
/// and the multi-lane scratch.
#[derive(Debug, Default)]
struct Dct2dScratch {
    aux: Vec<f64>,
    aux2: Vec<f64>,
}

/// A 2-D separable orthonormal DCT for `rows x cols` frames.
///
/// Each axis runs through a [`DctPlan`], which alone picks its kernel
/// (fast Lee on power-of-two extents, dense otherwise); both passes are
/// multi-lane transforms, the row pass over the frame staged transposed
/// (`cols x rows`) and the column pass over the row-major frame.
/// Intermediate buffers live in per-thread scratch storage, so the
/// slice entry points
/// ([`Dct2d::forward_into`], [`Dct2d::inverse_into`] and the sampled
/// [`Dct2d::inverse_gather`] / [`Dct2d::scatter_forward`]) allocate
/// nothing once the thread's scratch is warm — even when many worker
/// threads share one cached plan (the block-tiled decode fan-out),
/// since thread-local scratch needs no lock at all.
///
/// # Examples
///
/// ```
/// use flexcs_transform::Dct2d;
/// use flexcs_linalg::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dct = Dct2d::new(4, 6)?;
/// let img = Matrix::from_fn(4, 6, |i, j| (i + j) as f64);
/// let coeffs = dct.forward(&img)?;
/// let back = dct.inverse(&coeffs)?;
/// assert!(back.max_abs_diff(&img)? < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dct2d {
    row_plan: DctPlan,
    col_plan: DctPlan,
}

impl Dct2d {
    /// Builds a 2-D plan for `rows x cols` frames.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] if either dimension is
    /// zero.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        Ok(Dct2d {
            row_plan: DctPlan::new(cols)?,
            col_plan: DctPlan::new(rows)?,
        })
    }

    /// Builds a 2-D plan that forces the dense cosine-matrix kernel on
    /// both axes (reference/benchmark path).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] if either dimension is
    /// zero.
    pub fn with_dense(rows: usize, cols: usize) -> Result<Self> {
        Ok(Dct2d {
            row_plan: DctPlan::with_dense(cols)?,
            col_plan: DctPlan::with_dense(rows)?,
        })
    }

    /// Frame shape `(rows, cols)` accepted by this plan.
    pub fn shape(&self) -> (usize, usize) {
        (self.col_plan.len(), self.row_plan.len())
    }

    /// `true` when both axes run the O(n log n) kernel.
    pub fn is_fast(&self) -> bool {
        self.row_plan.is_fast() && self.col_plan.is_fast()
    }

    /// Forward 2-D DCT-II of a frame.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::ShapeMismatch`] when the frame shape
    /// differs from the plan shape.
    pub fn forward(&self, frame: &Matrix) -> Result<Matrix> {
        self.check(frame)?;
        let (rows, cols) = frame.shape();
        let mut out = Matrix::zeros(rows, cols);
        self.forward_into(frame.as_slice(), out.as_mut_slice())?;
        Ok(out)
    }

    /// Inverse 2-D DCT (orthonormal DCT-III) of a coefficient frame.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::ShapeMismatch`] when the coefficient
    /// shape differs from the plan shape.
    pub fn inverse(&self, coeffs: &Matrix) -> Result<Matrix> {
        self.check(coeffs)?;
        let (rows, cols) = coeffs.shape();
        let mut out = Matrix::zeros(rows, cols);
        self.inverse_into(coeffs.as_slice(), out.as_mut_slice())?;
        Ok(out)
    }

    /// Forward 2-D DCT-II of a row-major frame into a caller buffer;
    /// bit-identical to [`Dct2d::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] unless both slices
    /// hold `rows * cols` values.
    pub fn forward_into(&self, frame: &[f64], out: &mut [f64]) -> Result<()> {
        self.check_len(frame.len())?;
        self.check_len(out.len())?;
        let (rows, cols) = self.shape();
        self.forward_staged(out, |staged| {
            (simd::kernels().transpose)(frame, staged, rows, cols);
        });
        Ok(())
    }

    /// Inverse 2-D DCT of row-major coefficients into a caller buffer;
    /// bit-identical to [`Dct2d::inverse`].
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] unless both slices
    /// hold `rows * cols` values.
    pub fn inverse_into(&self, coeffs: &[f64], out: &mut [f64]) -> Result<()> {
        self.check_len(coeffs.len())?;
        self.check_len(out.len())?;
        let (rows, cols) = self.shape();
        self.inverse_staged(coeffs, |staged| {
            (simd::kernels().transpose)(staged, out, cols, rows);
        });
        Ok(())
    }

    /// Maps row-major pixel indices to their positions in the transposed
    /// (`cols x rows`) staging layout [`Dct2d::inverse_gather`] reads and
    /// [`Dct2d::scatter_forward`] writes. Compute once per sampling
    /// pattern; the per-apply loops then do no index arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidArgument`] for an index outside
    /// the frame.
    pub fn sample_positions(&self, selected: &[usize]) -> Result<Vec<usize>> {
        let (rows, cols) = self.shape();
        if let Some(&i) = selected.iter().find(|&&i| i >= rows * cols) {
            return Err(TransformError::InvalidArgument(format!(
                "sample index {i} outside the {rows}x{cols} frame"
            )));
        }
        Ok(selected
            .iter()
            .map(|&i| (i % cols) * rows + i / cols)
            .collect())
    }

    /// Sampled synthesis `Φ·Ψ`: the inverse 2-D DCT of row-major
    /// `coeffs`, gathered at `positions` (from
    /// [`Dct2d::sample_positions`] on this plan) into `out`.
    /// Bit-identical to [`Dct2d::inverse`] followed by a gather, but the
    /// samples are read straight from the transposed staging buffer,
    /// skipping the final transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] unless `coeffs` holds
    /// `rows * cols` values and `out` one value per position.
    ///
    /// # Panics
    ///
    /// Panics on a position outside the frame.
    pub fn inverse_gather(
        &self,
        coeffs: &[f64],
        positions: &[usize],
        out: &mut [f64],
    ) -> Result<()> {
        self.check_len(coeffs.len())?;
        check_samples(out.len(), positions.len())?;
        self.inverse_staged(coeffs, |staged| {
            for (o, &p) in out.iter_mut().zip(positions) {
                *o = staged[p];
            }
        });
        Ok(())
    }

    /// Sampled analysis `Ψᵀ·Φᵀ`: scatters `values` at `positions` (from
    /// [`Dct2d::sample_positions`] on this plan) into an otherwise zero
    /// frame and writes its forward 2-D DCT to `out` (row-major).
    /// Bit-identical to a scatter followed by [`Dct2d::forward`], but the
    /// values land straight in the zeroed transposed staging buffer,
    /// skipping the first transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] unless `values` holds
    /// one value per position and `out` holds `rows * cols` values.
    ///
    /// # Panics
    ///
    /// Panics on a position outside the frame.
    pub fn scatter_forward(
        &self,
        values: &[f64],
        positions: &[usize],
        out: &mut [f64],
    ) -> Result<()> {
        check_samples(values.len(), positions.len())?;
        self.check_len(out.len())?;
        self.forward_staged(out, |staged| {
            staged.fill(0.0);
            for (&v, &p) in values.iter().zip(positions) {
                staged[p] = v;
            }
        });
        Ok(())
    }

    /// The LASSO gradient of the sampled synthesis in one staging pass:
    /// the inverse 2-D DCT of row-major `coeffs`, minus `staged` and
    /// masked by `mask` slot by slot in the transposed staging layout
    /// ([`simd::Kernels::masked_sub`]: all-ones words keep the
    /// difference, zero words write `+0.0`), then the forward 2-D DCT of
    /// that frame into row-major `out`.
    ///
    /// With `staged` holding measurements `b` scattered at `positions`
    /// (from [`Dct2d::sample_positions`]) and `mask` all-ones exactly
    /// there, this is `Ψᵀ·Φᵀ(Φ·Ψ·coeffs − b)`, bit-identical to
    /// [`Dct2d::inverse_gather`], a subtract and
    /// [`Dct2d::scatter_forward`], without the gather, the zero fill and
    /// the scatter.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::InvalidLength`] unless `coeffs`,
    /// `staged`, `mask` and `out` each hold `rows * cols` values.
    pub fn masked_residual_forward(
        &self,
        coeffs: &[f64],
        staged: &[f64],
        mask: &[u64],
        out: &mut [f64],
    ) -> Result<()> {
        for len in [coeffs.len(), staged.len(), mask.len(), out.len()] {
            self.check_len(len)?;
        }
        let (rows, cols) = self.shape();
        with_frame_scratch(|s| {
            self.inverse_to_staging(s, coeffs);
            (simd::kernels().masked_sub)(lanes(&mut s.aux, rows * cols), staged, mask);
            self.forward_from_staging(s, out);
        });
        Ok(())
    }

    /// Forward transform into row-major `out` of the frame that `stage`
    /// writes into the transposed staging buffer.
    fn forward_staged(&self, out: &mut [f64], stage: impl FnOnce(&mut [f64])) {
        let (rows, cols) = self.shape();
        with_frame_scratch(|s| {
            stage(lanes(&mut s.aux, rows * cols));
            self.forward_from_staging(s, out);
        });
    }

    /// Inverse transform of row-major `coeffs`, handing `finish` the
    /// result in the transposed staging layout.
    fn inverse_staged(&self, coeffs: &[f64], finish: impl FnOnce(&[f64])) {
        let (rows, cols) = self.shape();
        with_frame_scratch(|s| {
            self.inverse_to_staging(s, coeffs);
            finish(lanes(&mut s.aux, rows * cols));
        });
    }

    /// Forward transform of the frame staged transposed in `s.aux` into
    /// row-major `out`.
    ///
    /// Separable transform: rows then columns here, columns then rows
    /// in the inverse (order only matters for matching the adjoint
    /// exactly, cost is identical). Both passes run the multi-lane
    /// kernel over contiguous memory — the row pass on the transposed
    /// staging buffer — so every codelet strip vectorizes across lanes.
    fn forward_from_staging(&self, s: &mut Dct2dScratch, out: &mut [f64]) {
        let (rows, cols) = self.shape();
        let t = lanes(&mut s.aux, rows * cols);
        self.row_plan
            .forward_lanes(t, lanes(&mut s.aux2, rows * cols), rows);
        (simd::kernels().transpose)(t, out, cols, rows);
        self.col_plan
            .forward_lanes(out, lanes(&mut s.aux, rows * cols), cols);
    }

    /// Inverse transform of row-major `coeffs`, left in `s.aux` in the
    /// transposed staging layout.
    fn inverse_to_staging(&self, s: &mut Dct2dScratch, coeffs: &[f64]) {
        let (rows, cols) = self.shape();
        let data = lanes(&mut s.aux2, rows * cols);
        data.copy_from_slice(coeffs);
        self.col_plan
            .inverse_lanes(data, lanes(&mut s.aux, rows * cols), cols);
        let t = lanes(&mut s.aux, rows * cols);
        (simd::kernels().transpose)(data, t, rows, cols);
        self.row_plan.inverse_lanes(t, data, rows);
    }

    fn check(&self, frame: &Matrix) -> Result<()> {
        if frame.shape() != self.shape() {
            return Err(TransformError::ShapeMismatch {
                expected: self.shape(),
                got: frame.shape(),
            });
        }
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<()> {
        let (rows, cols) = self.shape();
        if len != rows * cols {
            return Err(TransformError::InvalidLength {
                len,
                reason: "slice length differs from the plan's frame size",
            });
        }
        Ok(())
    }
}

/// Rejects a sample buffer whose length differs from the position count.
fn check_samples(len: usize, positions: usize) -> Result<()> {
    if len != positions {
        return Err(TransformError::InvalidLength {
            len,
            reason: "sample count differs from the number of positions",
        });
    }
    Ok(())
}

/// The first `len` values of `buf`, growing it as needed but never
/// shrinking it, so plans of different shapes sharing one thread's
/// scratch do not re-zero the buffer on every call.
fn lanes(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Runs `f` with this thread's frame scratch; the `try_borrow_mut`
/// fallback covers re-entrant use only.
fn with_frame_scratch<R>(f: impl FnOnce(&mut Dct2dScratch) -> R) -> R {
    FRAME_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut guard) => f(&mut guard),
        Err(_) => f(&mut Dct2dScratch::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dct2_unscaled(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                x.iter()
                    .enumerate()
                    .map(|(t, &v)| {
                        v * (PI * (2.0 * t as f64 + 1.0) * k as f64 / (2.0 * n as f64)).cos()
                    })
                    .sum()
            })
            .collect()
    }

    #[test]
    fn plan_rejects_zero_length() {
        assert!(DctPlan::new(0).is_err());
        assert!(DctPlan::with_dense(0).is_err());
    }

    #[test]
    fn kernel_dispatch_follows_length() {
        assert!(DctPlan::new(64).unwrap().is_fast());
        assert!(DctPlan::new(1).unwrap().is_fast());
        assert!(!DctPlan::new(100).unwrap().is_fast());
        assert!(!DctPlan::with_dense(64).unwrap().is_fast());
        assert!(Dct2d::new(8, 16).unwrap().is_fast());
        assert!(!Dct2d::new(8, 12).unwrap().is_fast());
        assert!(!Dct2d::with_dense(8, 8).unwrap().is_fast());
    }

    #[test]
    fn plan_matrix_is_orthonormal() {
        let plan = DctPlan::new(16).unwrap();
        let c = plan.matrix();
        let prod = c.matmul(&c.transpose()).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(16)).unwrap() < 1e-12);
    }

    #[test]
    fn roundtrip_1d() {
        for n in [1usize, 2, 11, 16, 64] {
            let plan = DctPlan::new(n).unwrap();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            let y = plan.forward(&x).unwrap();
            let back = plan.inverse(&y).unwrap();
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-12, "n={n}");
            }
        }
    }

    #[test]
    fn fast_and_dense_kernels_agree() {
        for n in [1usize, 2, 8, 64, 256] {
            let fast = DctPlan::new(n).unwrap();
            let dense = DctPlan::with_dense(n).unwrap();
            assert!(fast.is_fast() && !dense.is_fast());
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * i) as f64 * 0.13).sin() * 4.0)
                .collect();
            let yf = fast.forward(&x).unwrap();
            let yd = dense.forward(&x).unwrap();
            for (a, b) in yf.iter().zip(&yd) {
                assert!((a - b).abs() < 1e-10, "forward n={n}: {a} vs {b}");
            }
            let bf = fast.inverse(&yf).unwrap();
            let bd = dense.inverse(&yf).unwrap();
            for (a, b) in bf.iter().zip(&bd) {
                assert!((a - b).abs() < 1e-10, "inverse n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn forward_into_matches_forward_and_reuses_buffer() {
        let plan = DctPlan::new(32).unwrap();
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut out = vec![0.0; 32];
        plan.forward_into(&x, &mut out).unwrap();
        assert_eq!(out, plan.forward(&x).unwrap());
        let mut back = vec![0.0; 32];
        plan.inverse_into(&out, &mut back).unwrap();
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(plan.forward_into(&x, &mut [0.0; 3]).is_err());
    }

    #[test]
    fn parseval_energy_preserved() {
        let plan = DctPlan::new(9).unwrap();
        let x: Vec<f64> = (0..9).map(|i| i as f64 - 4.0).collect();
        let y = plan.forward(&x).unwrap();
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ey: f64 = y.iter().map(|v| v * v).sum();
        assert!((ex - ey).abs() < 1e-10);
    }

    #[test]
    fn constant_signal_has_single_dc_coefficient() {
        let plan = DctPlan::new(8).unwrap();
        let y = plan.forward(&[2.0; 8]).unwrap();
        assert!((y[0] - 2.0 * 8.0_f64.sqrt()).abs() < 1e-12);
        for v in &y[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn wrong_length_rejected() {
        let plan = DctPlan::new(4).unwrap();
        assert!(plan.forward(&[1.0; 5]).is_err());
        assert!(plan.inverse(&[1.0; 3]).is_err());
    }

    #[test]
    fn dct2d_roundtrip_rect() {
        let d = Dct2d::new(5, 7).unwrap();
        let img = Matrix::from_fn(5, 7, |i, j| ((i * 3 + j) as f64 * 0.7).cos());
        let c = d.forward(&img).unwrap();
        let back = d.inverse(&c).unwrap();
        assert!(back.max_abs_diff(&img).unwrap() < 1e-12);
    }

    #[test]
    fn dct2d_fast_matches_dense() {
        for (rows, cols) in [(8usize, 8usize), (16, 32), (16, 12)] {
            let fast = Dct2d::new(rows, cols).unwrap();
            let dense = Dct2d::with_dense(rows, cols).unwrap();
            let img = Matrix::from_fn(rows, cols, |i, j| ((i * 5 + j * 3) as f64 * 0.21).sin());
            let cf = fast.forward(&img).unwrap();
            let cd = dense.forward(&img).unwrap();
            assert!(
                cf.max_abs_diff(&cd).unwrap() < 1e-10,
                "{rows}x{cols} forward"
            );
            let bf = fast.inverse(&cf).unwrap();
            let bd = dense.inverse(&cf).unwrap();
            assert!(
                bf.max_abs_diff(&bd).unwrap() < 1e-10,
                "{rows}x{cols} inverse"
            );
        }
    }

    #[test]
    fn dct2d_slice_entry_points_match_matrix_forms_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rows, cols) in [(8usize, 8usize), (16, 32), (12, 8), (8, 12), (5, 7)] {
            let d = Dct2d::new(rows, cols).unwrap();
            let img = Matrix::from_fn(rows, cols, |i, j| ((i * 7 + j * 3) as f64 * 0.19).sin());
            let mut out = vec![0.0; rows * cols];
            d.forward_into(img.as_slice(), &mut out).unwrap();
            assert_eq!(bits(&out), bits(d.forward(&img).unwrap().as_slice()));
            d.inverse_into(img.as_slice(), &mut out).unwrap();
            assert_eq!(bits(&out), bits(d.inverse(&img).unwrap().as_slice()));
        }
    }

    #[test]
    fn dct2d_slice_entry_points_reject_wrong_lengths() {
        let d = Dct2d::new(4, 4).unwrap();
        let (frame, mut out) = (vec![1.0; 16], vec![0.0; 16]);
        let wrong = |r: Result<()>| matches!(r, Err(TransformError::InvalidLength { .. }));
        assert!(wrong(d.forward_into(&frame[..15], &mut out)));
        assert!(wrong(d.forward_into(&frame, &mut out[..3])));
        assert!(wrong(d.inverse_into(&frame[..15], &mut out)));
        assert!(wrong(d.inverse_into(&frame, &mut [0.0; 17])));
        let pos = d.sample_positions(&[1, 6, 11]).unwrap();
        assert!(wrong(d.inverse_gather(&frame[..15], &pos, &mut [0.0; 3])));
        assert!(wrong(d.inverse_gather(&frame, &pos, &mut [0.0; 2])));
        assert!(wrong(d.scatter_forward(&[1.0; 4], &pos, &mut out)));
        assert!(wrong(d.scatter_forward(&[1.0; 3], &pos, &mut out[..8])));
        assert!(d.sample_positions(&[16]).is_err());
    }

    #[test]
    fn sample_positions_follow_the_staging_layout() {
        // Fast row kernel: the transposed (cols x rows) layout.
        assert_eq!(
            Dct2d::new(4, 8)
                .unwrap()
                .sample_positions(&[0, 1, 9])
                .unwrap(),
            vec![0, 4, 5]
        );
        // Dense row kernel: the same transposed layout.
        assert_eq!(
            Dct2d::new(4, 6)
                .unwrap()
                .sample_positions(&[0, 1, 9])
                .unwrap(),
            vec![0, 4, 13]
        );
    }

    #[test]
    fn dct2d_repeated_frames_are_stable() {
        // Scratch reuse must not leak state between applications.
        let d = Dct2d::new(16, 16).unwrap();
        let a = Matrix::from_fn(16, 16, |i, j| ((i + 2 * j) as f64 * 0.11).sin());
        let b = Matrix::from_fn(16, 16, |i, j| ((3 * i + j) as f64 * 0.07).cos());
        let ca1 = d.forward(&a).unwrap();
        let _cb = d.forward(&b).unwrap();
        let ca2 = d.forward(&a).unwrap();
        assert_eq!(ca1.as_slice(), ca2.as_slice());
    }

    #[test]
    fn dct2d_energy_preserved() {
        let d = Dct2d::new(6, 6).unwrap();
        let img = Matrix::from_fn(6, 6, |i, j| (i as f64 - j as f64) * 0.5);
        let c = d.forward(&img).unwrap();
        assert!((img.norm_fro() - c.norm_fro()).abs() < 1e-10);
    }

    #[test]
    fn dct2d_shape_mismatch_rejected() {
        let d = Dct2d::new(4, 4).unwrap();
        assert!(d.forward(&Matrix::zeros(4, 5)).is_err());
        assert!(matches!(
            d.inverse(&Matrix::zeros(3, 4)),
            Err(TransformError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn dct2d_of_constant_is_dc_only() {
        let d = Dct2d::new(4, 4).unwrap();
        let img = Matrix::filled(4, 4, 1.0);
        let c = d.forward(&img).unwrap();
        assert!((c[(0, 0)] - 4.0).abs() < 1e-12);
        assert!(c.norm_l1() - c[(0, 0)].abs() < 1e-10);
    }

    #[test]
    fn plan_matches_naive_orthonormal() {
        for n in 2usize..=64 {
            let x: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.13).sin()).collect();
            let plan = DctPlan::new(n).unwrap().forward(&x).unwrap();
            let (a0, ak) = ((1.0 / n as f64).sqrt(), (2.0 / n as f64).sqrt());
            let naive = naive_dct2_unscaled(&x);
            for (k, (a, b)) in plan.iter().zip(&naive).enumerate() {
                let b = b * if k == 0 { a0 } else { ak };
                assert!((a - b).abs() < 1e-9, "n={n} k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn plan_inverse_round_trips() {
        for n in [1usize, 4, 32, 128] {
            let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
            let plan = DctPlan::new(n).unwrap();
            let back = plan.inverse(&plan.forward(&x).unwrap()).unwrap();
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-12, "n={n}");
            }
        }
    }
}
