//! Robust Principal Component Analysis via the inexact augmented
//! Lagrange multiplier method (paper ref. \[29\], used by the Fig. 6c
//! outlier-detection sampling strategy).
//!
//! Decomposes a frame `D = L + S` with `L` low rank (the smooth sensing
//! field) and `S` sparse (stuck pixels / transient upsets), by
//! minimizing `‖L‖_* + λ‖S‖₁` subject to `D = L + S`.
//!
//! ## Performance architecture
//!
//! The L-update — singular-value shrinkage of `D − S + Y/μ` — is the
//! hot path: one SVD per ALM sweep. Above [`RSVD_CROSSOVER`] the solver
//! replaces the full one-sided Jacobi SVD (O(m·n²) per sweep) with the
//! randomized truncated engine ([`flexcs_linalg::Rsvd`], O(m·n·r)):
//!
//! - **Rank adaptation**: the solve starts from a small predicted rank
//!   and grows the sketch until the shrink threshold `1/μ` clears the
//!   computed tail (`σ_last <= 1/μ`), shrinking the prediction again
//!   when the sweep over-captures (Lin/Chen/Ma's partial-SVD rule).
//! - **Warm starts**: the captured subspace `Q` is carried from one ALM
//!   sweep to the next (one power pass instead of two), and — via
//!   [`RpcaStream`] — from frame `t` into `t+1` together with the
//!   converged sparse support.
//! - **Certificate fallback**: each randomized solve carries the
//!   residual certificate `‖A − QQᵀA‖_F`; if the uncaptured mass is
//!   inconsistent with a tail entirely below `1/μ`, the sketch grows,
//!   and past half the spectrum the solver falls back to the exact
//!   Jacobi SVD (which is no slower there).
//!
//! ## Threshold semantics
//!
//! Two different threshold conventions meet in this module; they are
//! deliberately **not** interchangeable:
//!
//! - Singular-value shrinkage uses **absolute** thresholds: the ALM
//!   L-update keeps `σ > 1/μ` (counted by [`Svd::rank_abs`] /
//!   `Rsvd::rank_abs`). `Svd::rank(tol)` is *relative* to `σ_max` and
//!   must not be fed an absolute cutoff.
//! - Outlier flagging ([`outlier_indices`], [`transient_outliers`]) is
//!   **relative** to the sparse component's own maximum magnitude:
//!   `|S_ij| > factor · max|S|` with `factor` clamped to `[0, 1]`.

use crate::error::{CoreError, Result};
use crate::tel;
use flexcs_linalg::{simd, spectral_norm_estimate, Matrix, Rsvd, Svd, RSVD_OVERSAMPLE};

/// Matrices with `min(rows, cols)` below this stay on the exact Jacobi
/// SVD under [`SvdPolicy::Auto`] — the randomized machinery only pays
/// for itself once the full spectrum is meaningfully larger than the
/// retained rank. Kept below the paper's 32×32 frame size so the
/// Fig. 6c decode scenarios ride the fast path.
pub const RSVD_CROSSOVER: usize = 24;

/// Cold-start rank prediction for the adaptive randomized L-update.
const RSVD_START_RANK: usize = 5;

/// Convergence tolerance on `‖D − L − S‖_F / ‖D‖_F`.
const TOL: f64 = 1e-7;

/// ALM sweep budget.
const MAX_ITERATIONS: usize = 200;

/// Which SVD engine the ALM L-update uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvdPolicy {
    /// Exact Jacobi below [`RSVD_CROSSOVER`] (bit-exact with the
    /// historical solver), randomized at and above it.
    Auto,
    /// Always the exact one-sided Jacobi SVD: the reference the
    /// randomized path is checked against.
    Exact,
}

/// RPCA configuration. The sparsity weight is the standard
/// `λ = 1/√max(rows, cols)` of the paper's ref. \[29\].
#[derive(Debug, Clone, PartialEq)]
pub struct RpcaConfig {
    /// SVD engine for the L-update (default [`SvdPolicy::Auto`]).
    pub svd: SvdPolicy,
}

impl Default for RpcaConfig {
    fn default() -> Self {
        RpcaConfig {
            svd: SvdPolicy::Auto,
        }
    }
}

/// Result of an RPCA decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcaDecomposition {
    /// Low-rank component.
    pub low_rank: Matrix,
    /// Sparse component.
    pub sparse: Matrix,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Warm-start state harvested from a converged RPCA solve: the final
/// left subspace, its retained rank, and the sparse component (support
/// plus values). Fed into [`rpca_warm`] for the next, similar problem
/// (the following frame of an [`RpcaStream`]); state with mismatched
/// shapes is ignored, so reuse across heterogeneous problems is safe,
/// just useless.
#[derive(Debug, Clone)]
struct RpcaWarmStart {
    subspace: Option<Matrix>,
    /// Retained rank of the converged low-rank component.
    rank: usize,
    sparse: Matrix,
}

/// Runs inexact-ALM RPCA on `d`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for empty input,
/// [`CoreError::NonFiniteMeasurement`] (row-major index) for a NaN/±Inf
/// entry, and propagates SVD failures.
pub fn rpca(d: &Matrix, config: &RpcaConfig) -> Result<RpcaDecomposition> {
    rpca_warm(d, config, None).map(|(dec, _)| dec)
}

/// [`rpca`] with cross-solve warm starting: seeds the sparse iterate
/// and the randomized engine's subspace from a previous solve's
/// [`RpcaWarmStart`], and returns the state of this solve for the next
/// one. Warm state whose shapes don't match `d` is ignored.
///
/// Warm starting changes the iteration trajectory (fewer sweeps on
/// slowly varying sequences), not the fixed point: both cold and warm
/// solves converge to the same decomposition within the tolerance.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for empty input,
/// [`CoreError::NonFiniteMeasurement`] (row-major index) for a NaN/±Inf
/// entry, and propagates SVD failures.
fn rpca_warm(
    d: &Matrix,
    config: &RpcaConfig,
    warm: Option<&RpcaWarmStart>,
) -> Result<(RpcaDecomposition, RpcaWarmStart)> {
    let (m, n) = d.shape();
    if m == 0 || n == 0 {
        return Err(CoreError::InvalidConfig("rpca: empty matrix".to_string()));
    }
    // The one ingress for `rpca`, `rpca_multiframe`, `RpcaStream` and
    // the block defect pass: a NaN/±Inf entry would otherwise run the
    // whole iteration budget and come back unconverged.
    if let Some(index) = d.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(CoreError::NonFiniteMeasurement { index });
    }
    let lambda = 1.0 / (m.max(n) as f64).sqrt();
    let d_norm = d.norm_fro();
    if d_norm == 0.0 {
        let dec = RpcaDecomposition {
            low_rank: Matrix::zeros(m, n),
            sparse: Matrix::zeros(m, n),
            iterations: 0,
            converged: true,
        };
        let warm_out = RpcaWarmStart {
            subspace: None,
            rank: 0,
            sparse: Matrix::zeros(m, n),
        };
        return Ok((dec, warm_out));
    }
    // Standard IALM initialization (Lin, Chen & Ma 2010). The scale
    // only needs the spectral norm, so a power iteration replaces the
    // full SVD the solver used to pay for here.
    let spectral = spectral_norm_estimate(d, 50);
    let inf_norm = d.norm_max() / lambda;
    let dual_scale = spectral.max(inf_norm).max(1e-12);
    let mut y = d.scaled(1.0 / dual_scale);
    // Warm-started sparse iterate: the support of stuck pixels barely
    // moves between adjacent frames, so starting from the previous S
    // skips the sweeps that rediscover it.
    let mut s = match warm {
        Some(w) if w.sparse.shape() == (m, n) => {
            tel::counter("rpca.warm_starts", 1);
            w.sparse.clone()
        }
        _ => Matrix::zeros(m, n),
    };
    let mut engine = LUpdater::new(config.svd, m, n, warm);
    let mut mu = 1.25 / spectral.max(1e-12);
    let mu_max = mu * 1e7;
    let rho = 1.2;
    let mut low_rank = Matrix::zeros(m, n);
    let mut rank = 0;
    let mut iterations = 0;
    let mut converged = false;
    // Per-sweep scratch: the L-update target is the only temporary that
    // must materialize; the S-update, dual update, and residual fuse
    // into in-place passes over the existing buffers.
    let mut target = Matrix::zeros(m, n);
    let d_sl = d.as_slice();
    // The three fused sweeps below run the dispatched SIMD kernels: the
    // L-/S-update targets are elementwise (bit-identical to the scalar
    // loops on every tier); the dual-update residual is a reduction
    // (≤ 1e-12 relative across tiers, scalar tier exact).
    let kern = simd::kernels();
    for _ in 0..MAX_ITERATIONS {
        iterations += 1;
        let inv_mu = 1.0 / mu;
        // L-update: singular-value shrinkage of D − S + Y/μ.
        (kern.sub_add_scaled)(
            target.as_mut_slice(),
            d_sl,
            s.as_slice(),
            y.as_slice(),
            inv_mu,
        );
        let (l_next, l_rank) = engine.update(&target, inv_mu)?;
        low_rank = l_next;
        rank = l_rank;
        // S-update: entrywise soft threshold of D − L + Y/μ, written
        // straight into the sparse iterate (its old value is dead).
        let thr = lambda / mu;
        (kern.sub_add_scaled_shrink)(
            s.as_mut_slice(),
            d_sl,
            low_rank.as_slice(),
            y.as_slice(),
            inv_mu,
            thr,
        );
        // Dual update Y += μ(D − L − S), fused with the residual norm.
        let z2 = (kern.dual_update_residual_sq)(
            y.as_mut_slice(),
            d_sl,
            low_rank.as_slice(),
            s.as_slice(),
            mu,
        );
        let residual_ratio = z2.sqrt() / d_norm;
        if tel::enabled() {
            // The L-update already knows its retained rank — no second
            // spectral pass needed.
            let sparse_count = s.as_slice().iter().filter(|&&v| v != 0.0).count();
            tel::rpca_sweep(iterations, rank, sparse_count, residual_ratio, mu);
        }
        mu = (mu * rho).min(mu_max);
        if residual_ratio < TOL {
            converged = true;
            break;
        }
    }
    tel::counter("rpca.decompositions", 1);
    let warm_out = RpcaWarmStart {
        subspace: engine.subspace,
        rank,
        sparse: s.clone(),
    };
    let dec = RpcaDecomposition {
        low_rank,
        sparse: s,
        iterations,
        converged,
    };
    Ok((dec, warm_out))
}

/// The ALM L-update engine: exact Jacobi or adaptive randomized
/// truncation with a subspace carried across sweeps.
struct LUpdater {
    randomized: bool,
    subspace: Option<Matrix>,
    predicted_rank: usize,
}

impl LUpdater {
    fn new(policy: SvdPolicy, m: usize, n: usize, warm: Option<&RpcaWarmStart>) -> Self {
        let randomized = match policy {
            SvdPolicy::Exact => false,
            SvdPolicy::Auto => m.min(n) >= RSVD_CROSSOVER,
        };
        let subspace = warm
            .and_then(|w| w.subspace.clone())
            .filter(|q| randomized && q.rows() == m && q.cols() > 0);
        let predicted_rank = warm
            .map(|w| w.rank)
            .filter(|&r| r > 0)
            .unwrap_or(RSVD_START_RANK);
        LUpdater {
            randomized,
            subspace,
            predicted_rank,
        }
    }

    /// Shrinks the singular values of `target` by `tau`, returning the
    /// shrunk matrix and the retained rank.
    fn update(&mut self, target: &Matrix, tau: f64) -> Result<(Matrix, usize)> {
        if !self.randomized {
            return self.exact(target, tau);
        }
        let (m, n) = target.shape();
        let k = m.min(n);
        // Past half the spectrum the exact kernel is at least as cheap
        // as sketch + small SVD + reconstruction.
        let cap = (k / 2).max(1);
        let fro2: f64 = target.iter().map(|v| v * v).sum();
        let mut rank = self.predicted_rank.clamp(1, k);
        loop {
            if rank + RSVD_OVERSAMPLE >= cap {
                tel::counter("rpca.rsvd.exact_fallbacks", 1);
                return self.exact(target, tau);
            }
            let rs = Rsvd::compute_warm(target, rank, self.subspace.as_ref())?;
            tel::counter("rpca.rsvd.solves", 1);
            let sigma = rs.sigma();
            let l = sigma.len();
            // Accept when (a) the shrink threshold cuts inside the
            // computed spectrum, and (b) the certificate's uncaptured
            // mass is consistent with a tail entirely below tau (the
            // slack term absorbs the certificate's cancellation floor).
            let spectrum_cut = sigma.last().is_none_or(|&s| s <= tau);
            let tail_bound = (k - l) as f64 * tau * tau * 1.05 + 1e-14 * fro2;
            let certified = rs.residual() * rs.residual() <= tail_bound;
            if spectrum_cut && certified {
                let svp = rs.rank_abs(tau);
                tel::histogram("rpca.rsvd.rank", svp as f64);
                tel::histogram("rpca.rsvd.subspace_cols", l as f64);
                let shrunk = rs.shrink(tau);
                self.subspace = Some(rs.subspace().clone());
                // Lin/Chen/Ma partial-SVD prediction: tighten to just
                // above the retained rank, or step up when saturated.
                self.predicted_rank = if svp < l {
                    svp + 1
                } else {
                    (svp + ((k as f64 * 0.05).ceil() as usize).max(1)).min(k)
                };
                return Ok((shrunk, svp));
            }
            // Under-capture: keep the directions found so far and grow.
            tel::counter("rpca.rsvd.regrows", 1);
            self.subspace = Some(rs.subspace().clone());
            rank = (rank + (rank / 2).max(4)).min(k);
        }
    }

    fn exact(&mut self, target: &Matrix, tau: f64) -> Result<(Matrix, usize)> {
        let svd = Svd::compute(target)?;
        let rank = svd.rank_abs(tau);
        if self.randomized {
            // Harvest a subspace so the next sweep can warm-start the
            // randomized path even after a fallback.
            let m = target.rows();
            let cols = (rank + RSVD_OVERSAMPLE).clamp(1, svd.u().cols());
            self.subspace = Some(svd.u().submatrix(0, m, 0, cols));
            self.predicted_rank = (rank + 1).max(RSVD_START_RANK.min(target.cols()));
        }
        Ok((svd.shrink(tau), rank))
    }
}

/// Streaming RPCA over a frame sequence: every [`RpcaStream::push`]
/// decomposes one frame, warm-started from the previous frame's
/// converged subspace and sparse support. Frames of a different shape
/// transparently reset the carried state.
#[derive(Debug, Clone)]
pub struct RpcaStream {
    config: RpcaConfig,
    warm: Option<RpcaWarmStart>,
}

impl RpcaStream {
    /// Creates a stream with no carried state yet.
    pub fn new(config: RpcaConfig) -> Self {
        RpcaStream { config, warm: None }
    }

    /// The stream's RPCA configuration.
    pub fn config(&self) -> &RpcaConfig {
        &self.config
    }

    /// Rank carried from the last converged solve, if any.
    pub fn warm_rank(&self) -> Option<usize> {
        self.warm.as_ref().map(|w| w.rank)
    }

    /// Drops the carried warm-start state.
    pub fn reset(&mut self) {
        self.warm = None;
    }

    /// Decomposes `frame`, warm-starting from the previous push.
    ///
    /// # Errors
    ///
    /// Propagates [`rpca`] failures; the carried state is left
    /// untouched on error.
    pub fn push(&mut self, frame: &Matrix) -> Result<RpcaDecomposition> {
        if self
            .warm
            .as_ref()
            .is_some_and(|w| w.sparse.shape() != frame.shape())
        {
            self.warm = None;
        }
        let (dec, warm) = rpca_warm(frame, &self.config, self.warm.as_ref())?;
        self.warm = Some(warm);
        Ok(dec)
    }
}

/// Flags outlier pixels: indices whose sparse-component magnitude
/// exceeds `threshold_factor` times the sparse component's maximum
/// (pixels with no sparse energy are never flagged).
///
/// `threshold_factor` is **relative** (clamped to `[0, 1]`): the cutoff
/// is `factor · max|S|`, and the comparison is strict — so a factor of
/// `1.0` (or anything larger) flags nothing unless several entries tie
/// the maximum. This is deliberately a different convention from the
/// solver's absolute singular-value threshold `1/μ` (see the module
/// docs on threshold semantics).
pub fn outlier_indices(decomposition: &RpcaDecomposition, threshold_factor: f64) -> Vec<usize> {
    let s = &decomposition.sparse;
    let max = s.norm_max();
    if max == 0.0 {
        return Vec::new();
    }
    let thr = threshold_factor.clamp(0.0, 1.0) * max;
    let cols = s.cols();
    let mut out = Vec::new();
    for i in 0..s.rows() {
        for j in 0..cols {
            if s[(i, j)].abs() > thr {
                out.push(i * cols + j);
            }
        }
    }
    out
}

/// Multi-frame RPCA: stacks `frames` (all the same shape) as the
/// columns of a `N x T` matrix and decomposes it.
///
/// The temporal low-rank component captures persistent scene content;
/// the sparse component isolates *transient* upsets (the
/// surveillance-video use of the paper's ref. \[29\]). A constant stuck
/// row may land in either component depending on its magnitude versus
/// `λ·√T` — for reliable static-defect mapping use the per-frame
/// persistence vote of [`persistent_outliers`] instead.
///
/// Returns the decomposition of the stacked matrix (`low_rank` and
/// `sparse` are `N x T`; column `t` is frame `t` vectorized row-major).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an empty frame list or
/// mismatched shapes, and propagates [`rpca`] failures.
pub fn rpca_multiframe(frames: &[Matrix], config: &RpcaConfig) -> Result<RpcaDecomposition> {
    let Some(first) = frames.first() else {
        return Err(CoreError::InvalidConfig(
            "rpca_multiframe: no frames".to_string(),
        ));
    };
    let shape = first.shape();
    if frames.iter().any(|f| f.shape() != shape) {
        return Err(CoreError::InvalidConfig(
            "rpca_multiframe: frames differ in shape".to_string(),
        ));
    }
    let n = shape.0 * shape.1;
    let t = frames.len();
    let mut stacked = Matrix::zeros(n, t);
    for (col, frame) in frames.iter().enumerate() {
        for (row, &v) in frame.to_flat().iter().enumerate() {
            stacked[(row, col)] = v;
        }
    }
    rpca(&stacked, config)
}

/// Maps *static* defects from a frame sequence: runs spatial RPCA on
/// each frame, flags its outliers, and returns pixels flagged in at
/// least `persistence` (fraction) of the frames. Fabrication defects
/// are flagged in every frame; transient upsets in one — the
/// multi-frame version of the paper's "testing to identify those
/// defects".
///
/// Frames are decomposed independently (cold) so they can fan out
/// across threads with results identical to the serial loop; for
/// sequential warm-started decode use [`RpcaStream`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an empty frame list and
/// propagates [`rpca`] failures.
pub fn persistent_outliers(
    frames: &[Matrix],
    config: &RpcaConfig,
    threshold_factor: f64,
    persistence: f64,
) -> Result<Vec<usize>> {
    let Some(first) = frames.first() else {
        return Err(CoreError::InvalidConfig(
            "persistent_outliers: no frames".to_string(),
        ));
    };
    let n = first.rows() * first.cols();
    for frame in frames {
        if frame.shape() != first.shape() {
            return Err(CoreError::InvalidConfig(
                "persistent_outliers: frames differ in shape".to_string(),
            ));
        }
    }
    // Each frame's RPCA is independent; fan out and merge hit counts
    // afterwards (order-insensitive, so results match the serial loop).
    let per_frame = flexcs_parallel::par_map_indices(frames.len(), |k| {
        rpca(&frames[k], config).map(|dec| outlier_indices(&dec, threshold_factor))
    });
    let mut hits = vec![0usize; n];
    for flagged in per_frame {
        for idx in flagged? {
            hits[idx] += 1;
        }
    }
    let needed = (((frames.len() as f64) * persistence.clamp(0.0, 1.0)).ceil() as usize).max(1);
    Ok((0..n).filter(|&i| hits[i] >= needed).collect())
}

/// Flags *transient* upsets from a multi-frame decomposition: `(pixel,
/// frame)` pairs whose temporal-sparse component is large.
/// `threshold_factor` follows the same relative convention as
/// [`outlier_indices`].
pub fn transient_outliers(
    decomposition: &RpcaDecomposition,
    threshold_factor: f64,
) -> Vec<(usize, usize)> {
    let s = &decomposition.sparse;
    let max = s.norm_max();
    if max == 0.0 {
        return Vec::new();
    }
    let thr = threshold_factor.clamp(0.0, 1.0) * max;
    let mut out = Vec::new();
    for pixel in 0..s.rows() {
        for t in 0..s.cols() {
            if s[(pixel, t)].abs() > thr {
                out.push((pixel, t));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic low-rank + sparse test matrix.
    fn synthetic(
        m: usize,
        n: usize,
        rank: usize,
        outliers: &[(usize, usize, f64)],
    ) -> (Matrix, Matrix, Matrix) {
        let u = Matrix::from_fn(m, rank, |i, r| ((i * (r + 2)) as f64 * 0.31).sin());
        let v = Matrix::from_fn(rank, n, |r, j| ((j * (r + 3)) as f64 * 0.17).cos());
        let l = u.matmul(&v).unwrap();
        let mut s = Matrix::zeros(m, n);
        for &(i, j, val) in outliers {
            s[(i, j)] = val;
        }
        (&l + &s, l, s)
    }

    #[test]
    fn recovers_low_rank_plus_sparse() {
        let outliers = [(2, 3, 5.0), (7, 1, -4.0), (5, 9, 6.0)];
        let (d, l_true, s_true) = synthetic(12, 10, 2, &outliers);
        let dec = rpca(&d, &RpcaConfig::default()).unwrap();
        assert!(dec.converged);
        assert!(
            dec.low_rank.max_abs_diff(&l_true).unwrap() < 1e-3,
            "L error {}",
            dec.low_rank.max_abs_diff(&l_true).unwrap()
        );
        assert!(
            dec.sparse.max_abs_diff(&s_true).unwrap() < 1e-3,
            "S error {}",
            dec.sparse.max_abs_diff(&s_true).unwrap()
        );
    }

    #[test]
    fn decomposition_sums_to_input() {
        let (d, _, _) = synthetic(8, 8, 2, &[(1, 1, 3.0)]);
        let dec = rpca(&d, &RpcaConfig::default()).unwrap();
        let sum = &dec.low_rank + &dec.sparse;
        assert!(sum.max_abs_diff(&d).unwrap() < 1e-5);
    }

    #[test]
    fn outlier_indices_find_injected_pixels() {
        let outliers = [(0, 4, 8.0), (6, 2, -7.0)];
        let (d, _, _) = synthetic(10, 8, 2, &outliers);
        let dec = rpca(&d, &RpcaConfig::default()).unwrap();
        let mut flagged = outlier_indices(&dec, 0.5);
        flagged.sort_unstable();
        assert_eq!(flagged, vec![4, 50]);
    }

    #[test]
    fn zero_matrix_short_circuits() {
        let dec = rpca(&Matrix::zeros(4, 4), &RpcaConfig::default()).unwrap();
        assert!(dec.converged);
        assert_eq!(dec.iterations, 0);
        assert!(outlier_indices(&dec, 0.5).is_empty());
    }

    #[test]
    fn clean_low_rank_has_tiny_sparse_part() {
        let (d, _, _) = synthetic(10, 10, 2, &[]);
        let dec = rpca(&d, &RpcaConfig::default()).unwrap();
        assert!(
            dec.sparse.norm_max() < 1e-4,
            "sparse residue {}",
            dec.sparse.norm_max()
        );
    }

    #[test]
    fn randomized_matches_exact_above_crossover() {
        // 40x36 is above the crossover: Auto takes the randomized path.
        let outliers = [(3, 7, 6.0), (20, 12, -5.0), (35, 30, 7.0)];
        let (d, l_true, _) = synthetic(40, 36, 3, &outliers);
        let exact = rpca(
            &d,
            &RpcaConfig {
                svd: SvdPolicy::Exact,
            },
        )
        .unwrap();
        let fast = rpca(&d, &RpcaConfig::default()).unwrap();
        assert!(fast.converged);
        assert!(
            fast.low_rank.max_abs_diff(&l_true).unwrap() < 1e-3,
            "randomized L error {}",
            fast.low_rank.max_abs_diff(&l_true).unwrap()
        );
        assert!(
            fast.low_rank.max_abs_diff(&exact.low_rank).unwrap() < 1e-4,
            "exact vs randomized L gap {}",
            fast.low_rank.max_abs_diff(&exact.low_rank).unwrap()
        );
        let mut flagged_exact = outlier_indices(&exact, 0.5);
        let mut flagged_fast = outlier_indices(&fast, 0.5);
        flagged_exact.sort_unstable();
        flagged_fast.sort_unstable();
        assert_eq!(flagged_exact, flagged_fast);
    }

    #[test]
    fn auto_policy_is_exact_below_crossover() {
        // Below the crossover Auto and Exact must be bit-identical.
        let (d, _, _) = synthetic(16, 16, 2, &[(2, 2, 4.0)]);
        let auto = rpca(&d, &RpcaConfig::default()).unwrap();
        let exact = rpca(
            &d,
            &RpcaConfig {
                svd: SvdPolicy::Exact,
            },
        )
        .unwrap();
        assert_eq!(auto, exact);
    }

    #[test]
    fn randomized_path_is_deterministic() {
        let (d, _, _) = synthetic(36, 32, 3, &[(5, 5, 6.0), (17, 20, -6.0)]);
        // 36x32 is above the crossover: Auto takes the randomized path.
        let cfg = RpcaConfig::default();
        let a = rpca(&d, &cfg).unwrap();
        let b = rpca(&d, &cfg).unwrap();
        // PartialEq on Matrix is exact f64 equality: bit-identical.
        assert_eq!(a, b);
    }

    #[test]
    fn warm_stream_matches_cold_solves() {
        // Slowly drifting low-rank scene with a fixed stuck pixel.
        let frames: Vec<Matrix> = (0..4)
            .map(|t| {
                let mut f = Matrix::from_fn(32, 32, |i, j| {
                    0.5 + 0.3 * ((i as f64 * 0.2 + t as f64 * 0.05).sin())
                        + 0.2 * ((j as f64) * 0.15).cos()
                });
                f[(9, 13)] = 4.0;
                f
            })
            .collect();
        let mut stream = RpcaStream::new(RpcaConfig::default());
        for frame in &frames {
            let warm_dec = stream.push(frame).unwrap();
            assert!(warm_dec.converged);
            let cold_dec = rpca(frame, &RpcaConfig::default()).unwrap();
            let mut warm_flagged = outlier_indices(&warm_dec, 0.3);
            let mut cold_flagged = outlier_indices(&cold_dec, 0.3);
            warm_flagged.sort_unstable();
            cold_flagged.sort_unstable();
            assert_eq!(warm_flagged, cold_flagged);
            assert!(
                warm_dec.low_rank.max_abs_diff(&cold_dec.low_rank).unwrap() < 1e-4,
                "warm vs cold L gap {}",
                warm_dec.low_rank.max_abs_diff(&cold_dec.low_rank).unwrap()
            );
        }
        assert!(stream.warm_rank().unwrap_or(0) > 0);
    }

    #[test]
    fn stream_resets_on_shape_change() {
        let (d1, _, _) = synthetic(32, 32, 2, &[(1, 1, 5.0)]);
        let (d2, _, _) = synthetic(28, 24, 2, &[(2, 2, 5.0)]);
        let mut stream = RpcaStream::new(RpcaConfig::default());
        stream.push(&d1).unwrap();
        assert!(stream.warm_rank().is_some());
        let dec = stream.push(&d2).unwrap(); // different shape: no panic
        assert!(dec.converged);
        stream.reset();
        assert!(stream.warm_rank().is_none());
    }

    #[test]
    fn outlier_threshold_semantics_pinned() {
        // Regression pin for the relative/clamped/strict flagging rule.
        let dec = RpcaDecomposition {
            low_rank: Matrix::zeros(2, 2),
            sparse: Matrix::from_rows(&[&[2.0, -1.0], &[0.5, 0.0]]).unwrap(),
            iterations: 1,
            converged: true,
        };
        // factor > 1 clamps to 1: strict comparison flags nothing.
        assert!(outlier_indices(&dec, 1.5).is_empty());
        // factor 0 flags every nonzero entry (|s| > 0).
        assert_eq!(outlier_indices(&dec, 0.0), vec![0, 1, 2]);
        // Negative factors clamp to 0.
        assert_eq!(outlier_indices(&dec, -3.0), vec![0, 1, 2]);
        // Interior factor: cutoff is factor * max|S| = 0.6 * 2.0.
        assert_eq!(outlier_indices(&dec, 0.6), vec![0]);
    }

    /// Smooth scenes varying over time + one stuck pixel (all frames) +
    /// one transient upset (single frame).
    fn defect_sequence() -> Vec<Matrix> {
        (0..6)
            .map(|t| {
                let mut f = Matrix::from_fn(8, 8, |i, j| {
                    0.5 + 0.3 * ((i as f64 + t as f64) * 0.4).sin() + 0.2 * ((j as f64) * 0.3).cos()
                });
                f[(2, 3)] = 3.0; // stuck pixel: every frame
                if t == 2 {
                    f[(5, 5)] = -2.0; // transient: one frame only
                }
                f
            })
            .collect()
    }

    #[test]
    fn persistent_outliers_map_static_defects() {
        let frames = defect_sequence();
        let flagged = persistent_outliers(&frames, &RpcaConfig::default(), 0.3, 0.9).unwrap();
        assert!(
            flagged.contains(&(2 * 8 + 3)),
            "stuck pixel flagged: {flagged:?}"
        );
        assert!(
            !flagged.contains(&(5 * 8 + 5)),
            "transient must not be flagged as persistent"
        );
    }

    #[test]
    fn multiframe_sparse_isolates_transients() {
        let frames = defect_sequence();
        let dec = rpca_multiframe(&frames, &RpcaConfig::default()).unwrap();
        let transients = transient_outliers(&dec, 0.4);
        assert!(
            transients.contains(&(5 * 8 + 5, 2)),
            "transient upset located at (pixel 45, frame 2): {transients:?}"
        );
        // Whether a constant stuck row lands in L (rank-1 content) or S
        // (λ-cheap persistent outlier) depends on its magnitude vs λ√T;
        // either way, persistent_outliers is the reliable static test.
        // Here we only require that the transient is clearly separated
        // in its own (pixel, frame) cell.
        let frame2_hits: Vec<usize> = transients
            .iter()
            .filter(|&&(_, t)| t == 2)
            .map(|&(p, _)| p)
            .collect();
        assert!(frame2_hits.contains(&(5 * 8 + 5)));
    }

    #[test]
    fn multiframe_validates_input() {
        assert!(rpca_multiframe(&[], &RpcaConfig::default()).is_err());
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(4, 5);
        assert!(rpca_multiframe(&[a, b], &RpcaConfig::default()).is_err());
        assert!(persistent_outliers(&[], &RpcaConfig::default(), 0.3, 0.5).is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(rpca(&Matrix::zeros(3, 0), &RpcaConfig::default()).is_err());
    }

    #[test]
    fn non_finite_input_is_rejected_at_ingress() {
        let (d, _, _) = synthetic(12, 12, 2, &[]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut frame = d.clone();
            frame[(4, 7)] = bad;
            let expected = CoreError::NonFiniteMeasurement { index: 4 * 12 + 7 };
            let cfg = RpcaConfig::default();
            assert_eq!(rpca(&frame, &cfg).err(), Some(expected.clone()), "{bad}");
            assert_eq!(
                RpcaStream::new(cfg.clone()).push(&frame).err(),
                Some(expected),
                "{bad}"
            );
            // Stacked as column 1 of a 144 x 2 matrix.
            assert_eq!(
                rpca_multiframe(&[d.clone(), frame], &cfg).err(),
                Some(CoreError::NonFiniteMeasurement {
                    index: (4 * 12 + 7) * 2 + 1
                }),
                "{bad}"
            );
        }
    }
}
