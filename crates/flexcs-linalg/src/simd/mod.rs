//! Runtime-dispatched SIMD micro-kernel layer for the decode hot path.
//!
//! Every hot inner loop of the decode stack — the `vecops` fused
//! kernels, the blocked-matmul / matvec panels, the Lee-DCT lane
//! codelets, butterflies and transpose, the masked subtract of the fused
//! FISTA gradient, and the RPCA shrinkage/residual updates — funnels
//! through the [`Kernels`] table returned by
//! [`kernels`]. The table is selected exactly once per process (a
//! [`OnceLock`]) from:
//!
//! 1. **`FLEXCS_FORCE_SCALAR`** — if set to anything other than
//!    `""`/`"0"`/`"false"`, the portable [`scalar`] tier is used
//!    regardless of CPU features (for A/B testing both paths on one
//!    host).
//! 2. **x86_64 AVX2+FMA** — selected when
//!    `is_x86_feature_detected!("avx2")` and `("fma")` both pass. When
//!    `("avx512f")` passes too, the table is the same tier with three
//!    kernels 8 lanes per `__m512d` (`avx512.rs`): the Lee lane
//!    codelets, `fista_step` and `transpose`. Its tier name stays
//!    `x86_64-avx2+fma`; every other entry, the `dot` and dual-update
//!    reductions included, is the AVX2 table's.
//! 3. **Portable scalar** — the historical Rust loops, retained
//!    verbatim in [`scalar`]; always the fallback, and the only table
//!    on every target other than x86_64 (aarch64 included).
//!
//! Only CPU detection picks the lane width; there is no setting for
//! it. [`codelet_lanes`] reports the width the selected table runs (4,
//! or 8 on AVX-512 hosts), and [`host_kernel_tables`] lists every table
//! the host can run, so tests cover the 4-lane kernels on AVX-512 hosts
//! too.
//!
//! ## Tolerance policy
//!
//! The tier name, not the lane width, keys the rounding: reductions
//! re-associate per tier (below), and perfbench's recorded figures are
//! keyed by [`tier_name`]. Every table of one tier rounds its
//! reductions alike (`dot`, `fista_step`'s norm and change, the RPCA
//! dual residual; an 8-lane accumulator holds the AVX2 tier's two
//! 4-lane ones side by side), and the lane width changes no bit.
//!
//! - *Elementwise* kernels (axpy, scale, sub/add, masked sub, momentum, the `x⁺`
//!   that `fista_step` writes (its shrink included), DCT butterflies and
//!   lane codelets, RPCA shrink targets) are **bit-identical** across
//!   tiers: vector tiers use explicit mul/add/sub intrinsics — never
//!   fused multiply-add — so each lane performs the exact scalar
//!   rounding sequence. The lane codelets share one recursion body, run
//!   on register lanes (4-lane AVX2, 8-lane AVX-512) or on the scalar
//!   tier's `[f64; 4]` arrays, and also agree on NaN bits, lane by lane,
//!   whatever strip a lane lands in. So do the Lee sweep kernels: `add`
//!   and `butterfly_merge`, whose adds may meet two NaNs, return
//!   `f64::NAN` for every NaN output on every tier.
//! - *Reductions* (`dot`, the RPCA dual residual, `fista_step`'s norm
//!   and change) may **re-associate** (wide accumulators, FMA) and are
//!   pinned to the scalar tier at ≤ 1e-12 relative error by property
//!   tests (`flexcs-linalg/tests/simd_props.rs`). Within one tier,
//!   `fista_step`'s `‖x⁺‖²` and `‖x⁺ − x‖²` are still bit-identical to
//!   that tier's `dot` of the written `x⁺` with itself and of the
//!   materialized difference with itself: FISTA's stop rule reads them,
//!   and it keeps the bits it had when they were separate passes.
//! - `fista_step`'s restart sums `Σ pᵢ` and `Σ |pᵢ|` take any order on
//!   any tier. FISTA uses them only to certify the sign of the
//!   index-order sum of the same products, and re-runs that sum when the
//!   rounding bound cannot (see `flexcs_solver::fista`).
//!
//! ## Adding a kernel
//!
//! 1. Add the reference loop to [`scalar`] (move it verbatim from the
//!    call site; it stays the semantic baseline).
//! 2. Add a `fn` pointer field to [`Kernels`] and wire it in both
//!    tables, `SCALAR` and `AVX2_FMA` (`AVX2_FMA` may simply reuse the
//!    scalar fn until a vector implementation exists).
//!    `AVX2_FMA_AVX512` overrides the fields it runs 8 lanes wide and
//!    copies the rest from `AVX2_FMA`; override one only where its
//!    scale-gate row beats the AVX2 row, and keep the AVX2 association
//!    order in an 8-lane reduction, so that both tables of the tier
//!    round alike.
//! 3. If vectorized: elementwise ⇒ mul/add only (bit-identity);
//!    reduction ⇒ document re-association and extend the ≤ 1e-12
//!    proptests and the same-tier bit test. Every intrinsic block needs
//!    a `// SAFETY:` comment.
//! 4. Call it via `simd::kernels()` from the hot loop.
//!
//! All `unsafe` in the workspace lives in this module's vector tiers,
//! `avx2.rs` and `avx512.rs` (`scripts/check.sh` enforces this with a
//! grep lint).

use std::sync::OnceLock;

mod codelet;
pub mod scalar;

pub use codelet::CODELET_MAX;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;

/// Which micro-kernel tier the process selected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdTier {
    /// Portable scalar reference tier (always available).
    Scalar,
    /// x86_64 AVX2 + FMA tier (4-wide `f64`).
    Avx2Fma,
}

impl SimdTier {
    /// Stable identifier recorded in telemetry (`simd.tier.<name>`) and
    /// in perfbench's environment stamp (`simd_tier`).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2Fma => "x86_64-avx2+fma",
        }
    }
}

/// Lee-DCT butterfly lane loop: two output lanes from two input lanes
/// and one scalar coefficient (`butterfly_split` / `butterfly_merge`).
pub type ButterflyFn = fn(&mut [f64], &mut [f64], &[f64], &[f64], f64);

/// Lee-DCT lane codelet over a row-major `n x w` frame (`n` a power of
/// two `≤ 32`): `(v, w, twiddles, s0, sk)`, see
/// [`Kernels::lee_forward_lanes`] / [`Kernels::lee_inverse_lanes`].
pub type LeeLanesFn = fn(&mut [f64], usize, &[f64], f64, f64);

/// Out-of-place transpose `(src, dst, rows, cols)`: `src` is
/// `rows x cols`, `dst` becomes `cols x rows`.
pub type TransposeFn = fn(&[f64], &mut [f64], usize, usize);

/// Masked subtract `(v, b, mask)`, see [`Kernels::masked_sub`].
pub type MaskedSubFn = fn(&mut [f64], &[f64], &[u64]);

/// RPCA L-update target `out = (a − b) + c·k`.
pub type SubAddScaledFn = fn(&mut [f64], &[f64], &[f64], &[f64], f64);

/// RPCA S-update `out = shrink((a − b) + c·k, thr)`.
pub type SubAddScaledShrinkFn = fn(&mut [f64], &[f64], &[f64], &[f64], f64, f64);

/// RPCA dual update `y += mu·(d − l − s)`, returning the residual `Σ z²`.
pub type DualUpdateFn = fn(&mut [f64], &[f64], &[f64], &[f64], f64) -> f64;

/// One FISTA vector pass `(x_next, y, g, x, step, t)`, see
/// [`Kernels::fista_step`].
pub type FistaStepFn = fn(&mut [f64], &[f64], &[f64], &[f64], f64, f64) -> FistaSums;

/// The reductions one [`Kernels::fista_step`] pass returns beside the
/// `x⁺` it writes. `pᵢ = (yᵢ − x⁺ᵢ)·(x⁺ᵢ − xᵢ)` is the adaptive-restart
/// product, computed as two subtractions and a multiply (no FMA), so
/// every order of summation adds the same values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FistaSums {
    /// `‖x⁺‖²`, bit-identical to the tier's `dot(x⁺, x⁺)`.
    pub norm_sq: f64,
    /// `‖x⁺ − x‖²`, bit-identical to the tier's `dot(d, d)` of the
    /// materialized difference `d = x⁺ − x`.
    pub change_sq: f64,
    /// `Σ pᵢ` in an order each kernel table chooses.
    pub restart: f64,
    /// `Σ |pᵢ|` in an order each kernel table chooses.
    pub restart_abs: f64,
}

/// Table of micro-kernel entry points for one tier.
///
/// All fields are safe `fn` pointers; the vector tiers do their own
/// length checking before entering `target_feature` code. Callers grab
/// the process-wide table once via [`kernels`] (or [`scalar_kernels`]
/// for an explicit reference baseline, e.g. microbenchmarks).
pub struct Kernels {
    /// Tier this table belongs to.
    pub tier: SimdTier,
    /// `y += alpha * x` (elementwise, bit-identical across tiers).
    pub axpy: fn(alpha: f64, x: &[f64], y: &mut [f64]),
    /// `a *= s` (elementwise, bit-identical across tiers).
    pub scale: fn(a: &mut [f64], s: f64),
    /// `out = a - b` (elementwise, bit-identical across tiers).
    pub sub: fn(out: &mut [f64], a: &[f64], b: &[f64]),
    /// `v = (v − b) & mask` on the bits: an all-ones mask word keeps the
    /// difference, a zero word writes `+0.0` (elementwise, bit-identical
    /// across tiers). The masked residual of the fused FISTA gradient.
    pub masked_sub: MaskedSubFn,
    /// `out = a + b`, every NaN sum `f64::NAN` (elementwise,
    /// bit-identical across tiers).
    pub add: fn(out: &mut [f64], a: &[f64], b: &[f64]),
    /// Dot product (reduction, ≤ 1e-12 relative across tiers).
    pub dot: fn(a: &[f64], b: &[f64]) -> f64,
    /// The FISTA vector tail in one pass: writes
    /// `x_next[i] = shrink(y[i] − step·g[i], t)` (elementwise,
    /// bit-identical) and returns its [`FistaSums`] against the previous
    /// iterate `x` (reductions; norm and change bit-identical to `dot`
    /// within a tier).
    pub fista_step: FistaStepFn,
    /// `y[i] = xn[i] + beta·(xn[i] − xo[i])` (elementwise,
    /// bit-identical).
    pub momentum: fn(y: &mut [f64], xn: &[f64], xo: &[f64], beta: f64),
    /// Lee-DCT forward butterfly lane loop: `alpha = x + y`,
    /// `beta = (x − y)·inv` (elementwise, bit-identical).
    pub butterfly_split: ButterflyFn,
    /// Lee-DCT inverse butterfly lane loop: `top = 0.5·(alpha + c·beta)`,
    /// `bottom = 0.5·(alpha − c·beta)`, every NaN output `f64::NAN`
    /// (elementwise, bit-identical).
    pub butterfly_merge: ButterflyFn,
    /// Lee-DCT forward lane codelet: the unscaled DCT-II of every lane
    /// (`n − 1` reciprocal twiddles `0.5 / cos`, level by level), row 0
    /// scaled by `s0` and the others by `sk` on the store (elementwise,
    /// bit-identical).
    pub lee_forward_lanes: LeeLanesFn,
    /// Lee-DCT inverse lane codelet: rows scaled by `s0` / `sk` on the
    /// load, then the exact inverse recursion (`n − 1` doubled cosines,
    /// level by level) on every lane (elementwise, bit-identical).
    pub lee_inverse_lanes: LeeLanesFn,
    /// Lanes one strip of the two Lee codelets transforms at once (4, or
    /// 8 on AVX-512 hosts, whose table also runs `fista_step` and
    /// `transpose` 8 lanes wide); moves no bit.
    pub codelet_lanes: usize,
    /// Out-of-place transpose (data movement, identical across tiers).
    pub transpose: TransposeFn,
    /// RPCA L-update target `out = (a − b) + c·k` (elementwise,
    /// bit-identical).
    pub sub_add_scaled: SubAddScaledFn,
    /// RPCA S-update `out = shrink((a − b) + c·k, thr)` (elementwise,
    /// bit-identical).
    pub sub_add_scaled_shrink: SubAddScaledShrinkFn,
    /// RPCA dual update `y += mu·z`, `z = d − l − s`, returns `Σ z²`
    /// (update elementwise bit-identical; returned sum is a reduction,
    /// ≤ 1e-12 relative).
    pub dual_update_residual_sq: DualUpdateFn,
}

/// Portable scalar reference table (always available on every target).
static SCALAR: Kernels = Kernels {
    tier: SimdTier::Scalar,
    axpy: scalar::axpy,
    scale: scalar::scale,
    sub: scalar::sub,
    masked_sub: scalar::masked_sub,
    add: scalar::add,
    dot: scalar::dot,
    fista_step: scalar::fista_step,
    momentum: scalar::momentum,
    butterfly_split: scalar::butterfly_split,
    butterfly_merge: scalar::butterfly_merge,
    lee_forward_lanes: scalar::lee_forward_lanes,
    lee_inverse_lanes: scalar::lee_inverse_lanes,
    codelet_lanes: codelet::STRIP,
    transpose: scalar::transpose,
    sub_add_scaled: scalar::sub_add_scaled,
    sub_add_scaled_shrink: scalar::sub_add_scaled_shrink,
    dual_update_residual_sq: scalar::dual_update_residual_sq,
};

#[cfg(target_arch = "x86_64")]
static AVX2_FMA: Kernels = Kernels {
    tier: SimdTier::Avx2Fma,
    axpy: avx2::axpy,
    scale: avx2::scale,
    sub: avx2::sub,
    masked_sub: avx2::masked_sub,
    add: avx2::add,
    dot: avx2::dot,
    fista_step: avx2::fista_step,
    momentum: avx2::momentum,
    butterfly_split: avx2::butterfly_split,
    butterfly_merge: avx2::butterfly_merge,
    lee_forward_lanes: avx2::lee_forward_lanes,
    lee_inverse_lanes: avx2::lee_inverse_lanes,
    codelet_lanes: <avx2::Ymm as codelet::Lane>::WIDTH,
    transpose: avx2::transpose,
    sub_add_scaled: avx2::sub_add_scaled,
    sub_add_scaled_shrink: avx2::sub_add_scaled_shrink,
    dual_update_residual_sq: avx2::dual_update_residual_sq,
};

/// The AVX2+FMA tier with the Lee codelets, the prox step and the
/// transpose 8 lanes wide, for hosts
/// that also report `avx512f`. Its reductions round as `AVX2_FMA`'s.
#[cfg(target_arch = "x86_64")]
static AVX2_FMA_AVX512: Kernels = Kernels {
    fista_step: avx512::fista_step,
    transpose: avx512::transpose,
    lee_forward_lanes: avx512::lee_forward_lanes,
    lee_inverse_lanes: avx512::lee_inverse_lanes,
    codelet_lanes: <avx512::Zmm as codelet::Lane>::WIDTH,
    ..AVX2_FMA
};

/// Interprets the `FLEXCS_FORCE_SCALAR` environment value: unset,
/// empty, `"0"`, or (case-insensitive) `"false"` leave runtime
/// detection on; anything else forces the scalar tier.
fn force_scalar(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(s) => !(s.is_empty() || s == "0" || s.eq_ignore_ascii_case("false")),
    }
}

fn select() -> &'static Kernels {
    let env = std::env::var("FLEXCS_FORCE_SCALAR").ok();
    if force_scalar(env.as_deref()) {
        return &SCALAR;
    }
    host_kernel_tables()
        .pop()
        .expect("the scalar table is always listed")
}

/// Every kernel table this host's CPU can run, the scalar reference
/// first and the one runtime detection prefers last (see the module
/// docs). Property tests run each of them against the scalar table; this
/// is no setting, and only [`kernels`] picks the table a process uses.
#[doc(hidden)]
pub fn host_kernel_tables() -> Vec<&'static Kernels> {
    // Other targets list the scalar table alone.
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
    let mut tables = vec![&SCALAR];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            tables.push(&AVX2_FMA);
            if std::arch::is_x86_feature_detected!("avx512f") {
                tables.push(&AVX2_FMA_AVX512);
            }
        }
    }
    tables
}

/// Process-wide kernel table: selected on first call (see the module
/// docs for the selection order) and fixed for the process lifetime.
pub fn kernels() -> &'static Kernels {
    static KERNELS: OnceLock<&'static Kernels> = OnceLock::new();
    KERNELS.get_or_init(select)
}

/// The scalar reference table, regardless of what [`kernels`] selected.
/// Used by microbenchmarks and property tests as the baseline side.
pub fn scalar_kernels() -> &'static Kernels {
    &SCALAR
}

/// The tier [`kernels`] selected for this process.
pub fn tier() -> SimdTier {
    kernels().tier
}

/// Stable name of the selected tier (see [`SimdTier::name`]).
pub fn tier_name() -> &'static str {
    kernels().tier.name()
}

/// Lanes one Lee codelet strip of the selected table transforms at once
/// (see [`Kernels::codelet_lanes`]), recorded in telemetry as
/// `simd.codelet_lanes.<n>`.
pub fn codelet_lanes() -> usize {
    kernels().codelet_lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_scalar_parsing() {
        assert!(!force_scalar(None));
        assert!(!force_scalar(Some("")));
        assert!(!force_scalar(Some("0")));
        assert!(!force_scalar(Some("false")));
        assert!(!force_scalar(Some("FALSE")));
        assert!(force_scalar(Some("1")));
        assert!(force_scalar(Some("true")));
        assert!(force_scalar(Some("yes")));
    }

    #[test]
    fn selected_tier_is_consistent() {
        let k = kernels();
        assert_eq!(k.tier, tier());
        assert_eq!(k.tier.name(), tier_name());
        // The scalar table always reports the scalar tier.
        assert_eq!(scalar_kernels().tier, SimdTier::Scalar);
        assert_eq!(SimdTier::Scalar.name(), "scalar");
        assert_eq!(k.codelet_lanes, codelet_lanes());
    }

    #[test]
    fn host_tables_list_scalar_first_and_the_detected_table_last() {
        let tables = host_kernel_tables();
        assert!(std::ptr::eq(tables[0], scalar_kernels()));
        let env = std::env::var("FLEXCS_FORCE_SCALAR").ok();
        if !force_scalar(env.as_deref()) {
            assert!(std::ptr::eq(kernels(), *tables.last().unwrap()));
        }
        for k in &tables {
            assert!(matches!(k.codelet_lanes, 4 | 8), "{:?}", k.tier);
            // An 8-lane table is the AVX2+FMA tier under its name.
            if k.codelet_lanes == 8 {
                assert_eq!(k.tier.name(), "x86_64-avx2+fma");
            }
        }
    }

    #[test]
    fn dispatched_elementwise_kernels_match_scalar_bitwise() {
        let k = kernels();
        let s = scalar_kernels();
        let n = 37; // odd length exercises every remainder path
        let a: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 19) as f64 - 9.0).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 53 + 7) % 23) as f64 - 11.0).collect();

        let mut y0 = b.clone();
        let mut y1 = b.clone();
        (k.axpy)(0.75, &a, &mut y0);
        (s.axpy)(0.75, &a, &mut y1);
        assert_eq!(y0, y1);

        let c: Vec<f64> = (0..n).map(|i| ((i * 29 + 3) % 17) as f64 - 8.0).collect();
        let mut o0 = vec![0.0; n];
        let mut o1 = vec![0.0; n];
        (k.fista_step)(&mut o0, &a, &b, &c, 0.3, 1.5);
        (s.fista_step)(&mut o1, &a, &b, &c, 0.3, 1.5);
        assert_eq!(o0, o1);
    }

    #[test]
    fn dispatched_reductions_match_scalar_closely() {
        let k = kernels();
        let s = scalar_kernels();
        let n = 1001;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).cos()).collect();
        let (d0, d1) = ((k.dot)(&a, &b), (s.dot)(&a, &b));
        assert!((d0 - d1).abs() <= 1e-12 * d1.abs().max(1.0));
        let c: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let (mut x0, mut x1) = (vec![0.0; n], vec![0.0; n]);
        let f0 = (k.fista_step)(&mut x0, &a, &b, &c, 0.5, 0.01);
        let f1 = (s.fista_step)(&mut x1, &a, &b, &c, 0.5, 0.01);
        assert!((f0.norm_sq - f1.norm_sq).abs() <= 1e-12 * f1.norm_sq.abs().max(1.0));
        assert!((f0.change_sq - f1.change_sq).abs() <= 1e-12 * f1.change_sq.abs().max(1.0));
    }

    #[test]
    fn fista_step_norms_bit_identical_to_dot_within_tier() {
        let k = kernels();
        let n = 37;
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin() * 3.0).collect();
        let g: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).cos()).collect();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos() * 2.0).collect();
        let mut xn = vec![0.0; n];
        let sums = (k.fista_step)(&mut xn, &y, &g, &x, 0.4, 0.2);
        let mut d = vec![0.0; n];
        (k.sub)(&mut d, &xn, &x);
        assert_eq!(sums.norm_sq.to_bits(), (k.dot)(&xn, &xn).to_bits());
        assert_eq!(sums.change_sq.to_bits(), (k.dot)(&d, &d).to_bits());
    }
}
