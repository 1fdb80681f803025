//! aarch64 NEON kernel tier (2-wide `f64`).
//!
//! Mirrors the AVX2 tier's structure and numerical contract: safe
//! length-checking wrappers over `#[target_feature(enable = "neon")]`
//! inner functions, only reachable through the kernel table in
//! [`super`] after `is_aarch64_feature_detected!("neon")` succeeds.
//!
//! - Elementwise kernels use separate `vmulq_f64` + `vaddq_f64`/
//!   `vsubq_f64` (never `vfmaq_f64`) so every lane performs the scalar
//!   tier's exact rounding sequence — bit-identical results.
//! - Reductions (`dot`, the dual-update residual, `fista_step`'s norm
//!   and change) use two 2-lane `vfmaq_f64` accumulators (four elements
//!   per iteration) with a fixed horizontal-sum order, re-associating vs
//!   scalar within the documented ≤ 1e-12 relative tolerance.
//!   `fista_step` runs the prox step, [`dot`] and the difference norm as
//!   three passes, so its norm and change match `dot` bit for bit within
//!   this tier.
//! - The soft-threshold blend applies the `v < -t` arm first and lets
//!   the `v > t` arm overwrite, reproducing the scalar branch priority
//!   for every input (including `t < 0` and NaN).
#![allow(unsafe_code)]

use std::arch::aarch64::*;

/// `y += alpha * x`, bit-identical to the scalar tier.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { axpy_inner(alpha, x, y) }
}

#[target_feature(enable = "neon")]
unsafe fn axpy_inner(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = y.len();
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let va = vdupq_n_f64(alpha);
    let mut i = 0;
    // SAFETY: i + 2 <= n on both equal-length slices.
    while i + 2 <= n {
        let vx = vld1q_f64(xp.add(i));
        let vy = vld1q_f64(yp.add(i));
        // mul + add (not fused) to match the scalar rounding sequence.
        vst1q_f64(yp.add(i), vaddq_f64(vy, vmulq_f64(va, vx)));
        i += 2;
    }
    while i < n {
        *yp.add(i) += alpha * *xp.add(i);
        i += 1;
    }
}

/// `a *= s`, bit-identical to the scalar tier.
pub fn scale(a: &mut [f64], s: f64) {
    // SAFETY: NEON verified at tier selection.
    unsafe { scale_inner(a, s) }
}

#[target_feature(enable = "neon")]
unsafe fn scale_inner(a: &mut [f64], s: f64) {
    let n = a.len();
    let ap = a.as_mut_ptr();
    let vs = vdupq_n_f64(s);
    let mut i = 0;
    // SAFETY: i + 2 <= n; in-bounds access.
    while i + 2 <= n {
        vst1q_f64(ap.add(i), vmulq_f64(vld1q_f64(ap.add(i)), vs));
        i += 2;
    }
    while i < n {
        *ap.add(i) *= s;
        i += 1;
    }
}

/// `out = a - b`, bit-identical to the scalar tier.
pub fn sub(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    assert_eq!(out.len(), a.len(), "sub: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { sub_inner(out, a, b) }
}

#[target_feature(enable = "neon")]
unsafe fn sub_inner(out: &mut [f64], a: &[f64], b: &[f64]) {
    let n = out.len();
    let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut i = 0;
    // SAFETY: i + 2 <= n on all three equal-length slices.
    while i + 2 <= n {
        vst1q_f64(
            op.add(i),
            vsubq_f64(vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i))),
        );
        i += 2;
    }
    while i < n {
        *op.add(i) = *ap.add(i) - *bp.add(i);
        i += 1;
    }
}

/// `out = a + b`, bit-identical to the scalar tier (NaN sums included).
pub fn add(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    assert_eq!(out.len(), a.len(), "add: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { add_inner(out, a, b) }
}

#[target_feature(enable = "neon")]
unsafe fn add_inner(out: &mut [f64], a: &[f64], b: &[f64]) {
    let n = out.len();
    let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut i = 0;
    // SAFETY: i + 2 <= n on all three equal-length slices.
    while i + 2 <= n {
        let sum = vaddq_f64(vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i)));
        vst1q_f64(op.add(i), canonical_nan(sum));
        i += 2;
    }
    while i < n {
        *op.add(i) = super::scalar::canonical_nan(*ap.add(i) + *bp.add(i));
        i += 1;
    }
}

/// Horizontal sum of `acc0 + acc1` in a fixed order, shared by every
/// reduction in this tier.
#[target_feature(enable = "neon")]
unsafe fn hsum(acc0: float64x2_t, acc1: float64x2_t) -> f64 {
    let pair = vaddq_f64(acc0, acc1);
    vgetq_lane_f64::<0>(pair) + vgetq_lane_f64::<1>(pair)
}

/// Dot product with two 2-lane fused accumulators (re-associated
/// reduction; ≤ 1e-12 relative vs the scalar tier).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { dot_inner(a, b) }
}

#[target_feature(enable = "neon")]
unsafe fn dot_inner(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f64(0.0);
    let mut acc1 = vdupq_n_f64(0.0);
    let mut i = 0;
    // SAFETY: i + 4 <= n on both equal-length slices.
    while i + 4 <= n {
        acc0 = vfmaq_f64(acc0, vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i)));
        acc1 = vfmaq_f64(acc1, vld1q_f64(ap.add(i + 2)), vld1q_f64(bp.add(i + 2)));
        i += 4;
    }
    if i + 2 <= n {
        acc0 = vfmaq_f64(acc0, vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i)));
        i += 2;
    }
    let mut s = hsum(acc0, acc1);
    while i < n {
        s += *ap.add(i) * *bp.add(i);
        i += 1;
    }
    s
}

/// `Σ (a_i − b_i)²` with the same accumulator structure as [`dot`], so it
/// is bit-identical to `dot(d, d)` of the materialized difference.
#[target_feature(enable = "neon")]
unsafe fn diff_norm2_sq_inner(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = vdupq_n_f64(0.0);
    let mut acc1 = vdupq_n_f64(0.0);
    let mut i = 0;
    // SAFETY: i + 4 <= n on both equal-length slices.
    while i + 4 <= n {
        let d0 = vsubq_f64(vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i)));
        acc0 = vfmaq_f64(acc0, d0, d0);
        let d1 = vsubq_f64(vld1q_f64(ap.add(i + 2)), vld1q_f64(bp.add(i + 2)));
        acc1 = vfmaq_f64(acc1, d1, d1);
        i += 4;
    }
    if i + 2 <= n {
        let d0 = vsubq_f64(vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i)));
        acc0 = vfmaq_f64(acc0, d0, d0);
        i += 2;
    }
    let mut s = hsum(acc0, acc1);
    while i < n {
        let d = *ap.add(i) - *bp.add(i);
        s += d * d;
        i += 1;
    }
    s
}

/// Two-lane soft threshold mirroring the scalar branch priority: blend
/// in the `v < -t` arm first, then let the `v > t` arm overwrite.
#[target_feature(enable = "neon")]
unsafe fn shrink_f64x2(v: float64x2_t, t: float64x2_t, neg_t: float64x2_t) -> float64x2_t {
    let pos = vcgtq_f64(v, t);
    let neg = vcltq_f64(v, neg_t);
    let r = vbslq_f64(neg, vaddq_f64(v, t), vdupq_n_f64(0.0));
    vbslq_f64(pos, vsubq_f64(v, t), r)
}

/// One FISTA vector pass as three: the prox step (bit-identical to the
/// scalar tier), then this tier's [`dot`] of `x⁺` with itself and its
/// difference norm against `x`, then the restart sums in index order.
pub fn fista_step(
    xn: &mut [f64],
    y: &[f64],
    g: &[f64],
    x: &[f64],
    step: f64,
    t: f64,
) -> super::FistaSums {
    let n = xn.len();
    assert_eq!(y.len(), n, "fista_step: length mismatch");
    assert_eq!(g.len(), n, "fista_step: length mismatch");
    assert_eq!(x.len(), n, "fista_step: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { prox_grad_step_inner(xn, y, g, step, t) };
    let xn: &[f64] = xn;
    // SAFETY: NEON verified at tier selection; lengths checked.
    let (norm_sq, change_sq) = unsafe { (dot_inner(xn, xn), diff_norm2_sq_inner(xn, x)) };
    let (mut restart, mut restart_abs) = (0.0, 0.0);
    for ((yi, vi), xi) in y.iter().zip(xn).zip(x) {
        let p = (yi - vi) * (vi - xi);
        restart += p;
        restart_abs += p.abs();
    }
    super::FistaSums {
        norm_sq,
        change_sq,
        restart,
        restart_abs,
    }
}

/// `out[i] = shrink(y[i] − step·g[i], t)`, bit-identical to the scalar
/// tier.
#[target_feature(enable = "neon")]
unsafe fn prox_grad_step_inner(out: &mut [f64], y: &[f64], g: &[f64], step: f64, t: f64) {
    let n = out.len();
    let (op, yp, gp) = (out.as_mut_ptr(), y.as_ptr(), g.as_ptr());
    let vs = vdupq_n_f64(step);
    let vt = vdupq_n_f64(t);
    let vnt = vdupq_n_f64(-t);
    let mut i = 0;
    // SAFETY: i + 2 <= n on all three equal-length slices.
    while i + 2 <= n {
        let v = vsubq_f64(vld1q_f64(yp.add(i)), vmulq_f64(vs, vld1q_f64(gp.add(i))));
        vst1q_f64(op.add(i), shrink_f64x2(v, vt, vnt));
        i += 2;
    }
    while i < n {
        *op.add(i) = super::scalar::shrink(*yp.add(i) - step * *gp.add(i), t);
        i += 1;
    }
}

/// FISTA momentum extrapolation, bit-identical to the scalar tier.
pub fn momentum(y: &mut [f64], xn: &[f64], xo: &[f64], beta: f64) {
    assert_eq!(y.len(), xn.len(), "momentum: length mismatch");
    assert_eq!(y.len(), xo.len(), "momentum: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { momentum_inner(y, xn, xo, beta) }
}

#[target_feature(enable = "neon")]
unsafe fn momentum_inner(y: &mut [f64], xn: &[f64], xo: &[f64], beta: f64) {
    let n = y.len();
    let (yp, np, op) = (y.as_mut_ptr(), xn.as_ptr(), xo.as_ptr());
    let vb = vdupq_n_f64(beta);
    let mut i = 0;
    // SAFETY: i + 2 <= n on all three equal-length slices.
    while i + 2 <= n {
        let vn = vld1q_f64(np.add(i));
        let d = vsubq_f64(vn, vld1q_f64(op.add(i)));
        vst1q_f64(yp.add(i), vaddq_f64(vn, vmulq_f64(vb, d)));
        i += 2;
    }
    while i < n {
        let (ni, oi) = (*np.add(i), *op.add(i));
        *yp.add(i) = ni + beta * (ni - oi);
        i += 1;
    }
}

/// DCT butterfly split lane loop, bit-identical to the scalar tier.
pub fn butterfly_split(alpha: &mut [f64], beta: &mut [f64], x: &[f64], y: &[f64], inv: f64) {
    let w = alpha.len();
    assert_eq!(beta.len(), w, "butterfly_split: length mismatch");
    assert_eq!(x.len(), w, "butterfly_split: length mismatch");
    assert_eq!(y.len(), w, "butterfly_split: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { butterfly_split_inner(alpha, beta, x, y, inv) }
}

#[target_feature(enable = "neon")]
unsafe fn butterfly_split_inner(
    alpha: &mut [f64],
    beta: &mut [f64],
    x: &[f64],
    y: &[f64],
    inv: f64,
) {
    let w = alpha.len();
    let (aptr, bptr, xp, yp) = (
        alpha.as_mut_ptr(),
        beta.as_mut_ptr(),
        x.as_ptr(),
        y.as_ptr(),
    );
    let vi = vdupq_n_f64(inv);
    let mut j = 0;
    // SAFETY: j + 2 <= w on all four equal-length slices.
    while j + 2 <= w {
        let vx = vld1q_f64(xp.add(j));
        let vy = vld1q_f64(yp.add(j));
        vst1q_f64(aptr.add(j), vaddq_f64(vx, vy));
        vst1q_f64(bptr.add(j), vmulq_f64(vsubq_f64(vx, vy), vi));
        j += 2;
    }
    while j < w {
        let (xv, yv) = (*xp.add(j), *yp.add(j));
        *aptr.add(j) = xv + yv;
        *bptr.add(j) = (xv - yv) * inv;
        j += 1;
    }
}

/// DCT inverse butterfly merge lane loop, bit-identical to the scalar
/// tier (NaN outputs included).
pub fn butterfly_merge(
    top: &mut [f64],
    bottom: &mut [f64],
    alpha: &[f64],
    beta: &[f64],
    twice_cos: f64,
) {
    let w = top.len();
    assert_eq!(bottom.len(), w, "butterfly_merge: length mismatch");
    assert_eq!(alpha.len(), w, "butterfly_merge: length mismatch");
    assert_eq!(beta.len(), w, "butterfly_merge: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { butterfly_merge_inner(top, bottom, alpha, beta, twice_cos) }
}

#[target_feature(enable = "neon")]
unsafe fn butterfly_merge_inner(
    top: &mut [f64],
    bottom: &mut [f64],
    alpha: &[f64],
    beta: &[f64],
    twice_cos: f64,
) {
    let w = top.len();
    let (tp, bp, ap, btp) = (
        top.as_mut_ptr(),
        bottom.as_mut_ptr(),
        alpha.as_ptr(),
        beta.as_ptr(),
    );
    let vc = vdupq_n_f64(twice_cos);
    let vh = vdupq_n_f64(0.5);
    let mut j = 0;
    // SAFETY: j + 2 <= w on all four equal-length slices.
    while j + 2 <= w {
        let va = vld1q_f64(ap.add(j));
        let diff = vmulq_f64(vc, vld1q_f64(btp.add(j)));
        let top = vmulq_f64(vh, vaddq_f64(va, diff));
        let bottom = vmulq_f64(vh, vsubq_f64(va, diff));
        vst1q_f64(tp.add(j), canonical_nan(top));
        vst1q_f64(bp.add(j), canonical_nan(bottom));
        j += 2;
    }
    while j < w {
        let diff = twice_cos * *btp.add(j);
        let av = *ap.add(j);
        *tp.add(j) = super::scalar::canonical_nan(0.5 * (av + diff));
        *bp.add(j) = super::scalar::canonical_nan(0.5 * (av - diff));
        j += 1;
    }
}

/// Every NaN lane of `v` replaced by `f64::NAN`, the vector form of
/// [`super::scalar::canonical_nan`].
///
/// # Safety
///
/// The CPU must support NEON, as tier selection checked before any
/// caller runs.
#[inline(always)]
unsafe fn canonical_nan(v: float64x2_t) -> float64x2_t {
    vbslq_f64(vceqq_f64(v, v), v, vdupq_n_f64(f64::NAN))
}

/// Fused RPCA L-update target `out = (a − b) + c·k`, bit-identical to
/// the scalar tier.
pub fn sub_add_scaled(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64], k: f64) {
    let n = out.len();
    assert_eq!(a.len(), n, "sub_add_scaled: length mismatch");
    assert_eq!(b.len(), n, "sub_add_scaled: length mismatch");
    assert_eq!(c.len(), n, "sub_add_scaled: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { sub_add_scaled_inner(out, a, b, c, k) }
}

#[target_feature(enable = "neon")]
unsafe fn sub_add_scaled_inner(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64], k: f64) {
    let n = out.len();
    let (op, ap, bp, cp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr(), c.as_ptr());
    let vk = vdupq_n_f64(k);
    let mut i = 0;
    // SAFETY: i + 2 <= n on all four equal-length slices.
    while i + 2 <= n {
        let d = vsubq_f64(vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i)));
        let s = vmulq_f64(vld1q_f64(cp.add(i)), vk);
        vst1q_f64(op.add(i), vaddq_f64(d, s));
        i += 2;
    }
    while i < n {
        *op.add(i) = (*ap.add(i) - *bp.add(i)) + *cp.add(i) * k;
        i += 1;
    }
}

/// Fused RPCA S-update `out = shrink((a − b) + c·k, thr)`, bit-identical
/// to the scalar tier.
pub fn sub_add_scaled_shrink(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64], k: f64, thr: f64) {
    let n = out.len();
    assert_eq!(a.len(), n, "sub_add_scaled_shrink: length mismatch");
    assert_eq!(b.len(), n, "sub_add_scaled_shrink: length mismatch");
    assert_eq!(c.len(), n, "sub_add_scaled_shrink: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { sub_add_scaled_shrink_inner(out, a, b, c, k, thr) }
}

#[target_feature(enable = "neon")]
unsafe fn sub_add_scaled_shrink_inner(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    c: &[f64],
    k: f64,
    thr: f64,
) {
    let n = out.len();
    let (op, ap, bp, cp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr(), c.as_ptr());
    let vk = vdupq_n_f64(k);
    let vt = vdupq_n_f64(thr);
    let vnt = vdupq_n_f64(-thr);
    let mut i = 0;
    // SAFETY: i + 2 <= n on all four equal-length slices.
    while i + 2 <= n {
        let d = vsubq_f64(vld1q_f64(ap.add(i)), vld1q_f64(bp.add(i)));
        let v = vaddq_f64(d, vmulq_f64(vld1q_f64(cp.add(i)), vk));
        vst1q_f64(op.add(i), shrink_f64x2(v, vt, vnt));
        i += 2;
    }
    while i < n {
        let v = (*ap.add(i) - *bp.add(i)) + *cp.add(i) * k;
        *op.add(i) = super::scalar::shrink(v, thr);
        i += 1;
    }
}

/// Lee DCT-II lane codelet: the shared [`super::codelet`] body compiled
/// for NEON (no fused multiply-add), so it is bit-identical to the
/// scalar tier.
pub fn lee_forward_lanes(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    // SAFETY: NEON verified at tier selection; the body is safe code
    // that checks its own lengths.
    unsafe { lee_forward_lanes_inner(v, w, twiddles, s0, sk) }
}

#[target_feature(enable = "neon")]
unsafe fn lee_forward_lanes_inner(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    super::codelet::forward(v, w, twiddles, s0, sk);
}

/// Lee DCT-III lane codelet: the shared [`super::codelet`] body
/// compiled for NEON (no fused multiply-add), so it is bit-identical to
/// the scalar tier.
pub fn lee_inverse_lanes(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    // SAFETY: NEON verified at tier selection; the body is safe code
    // that checks its own lengths.
    unsafe { lee_inverse_lanes_inner(v, w, twiddles, s0, sk) }
}

#[target_feature(enable = "neon")]
unsafe fn lee_inverse_lanes_inner(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    super::codelet::inverse(v, w, twiddles, s0, sk);
}

/// Fused RPCA dual update `y += mu·z`, `z = d − l − s`, returning `Σ z²`
/// (elementwise part bit-identical; returned sum re-associates,
/// ≤ 1e-12 relative vs the scalar tier).
pub fn dual_update_residual_sq(y: &mut [f64], d: &[f64], l: &[f64], s: &[f64], mu: f64) -> f64 {
    let n = y.len();
    assert_eq!(d.len(), n, "dual_update_residual_sq: length mismatch");
    assert_eq!(l.len(), n, "dual_update_residual_sq: length mismatch");
    assert_eq!(s.len(), n, "dual_update_residual_sq: length mismatch");
    // SAFETY: NEON verified at tier selection; lengths checked.
    unsafe { dual_update_residual_sq_inner(y, d, l, s, mu) }
}

#[target_feature(enable = "neon")]
unsafe fn dual_update_residual_sq_inner(
    y: &mut [f64],
    d: &[f64],
    l: &[f64],
    s: &[f64],
    mu: f64,
) -> f64 {
    let n = y.len();
    let (yp, dp, lp, sp) = (y.as_mut_ptr(), d.as_ptr(), l.as_ptr(), s.as_ptr());
    let vm = vdupq_n_f64(mu);
    let mut acc = vdupq_n_f64(0.0);
    let mut i = 0;
    // SAFETY: i + 2 <= n on all four equal-length slices.
    while i + 2 <= n {
        let z = vsubq_f64(
            vsubq_f64(vld1q_f64(dp.add(i)), vld1q_f64(lp.add(i))),
            vld1q_f64(sp.add(i)),
        );
        // mul + add (not fused) so the y update matches scalar exactly.
        vst1q_f64(yp.add(i), vaddq_f64(vld1q_f64(yp.add(i)), vmulq_f64(vm, z)));
        acc = vfmaq_f64(acc, z, z);
        i += 2;
    }
    let mut z2 = vgetq_lane_f64::<0>(acc) + vgetq_lane_f64::<1>(acc);
    while i < n {
        let z = *dp.add(i) - *lp.add(i) - *sp.add(i);
        *yp.add(i) += mu * z;
        z2 += z * z;
        i += 1;
    }
    z2
}
