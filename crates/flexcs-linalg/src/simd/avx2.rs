//! x86_64 AVX2+FMA kernel tier.
//!
//! Every public entry point is a safe wrapper that checks slice lengths
//! and then calls a `#[target_feature(enable = "avx2,fma")]` inner
//! function. The wrappers are only ever reachable through the kernel
//! table in [`super`], which selects this tier exclusively after
//! `is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")`
//! succeeds at process start, so the target-feature precondition holds
//! at every call site.
//!
//! Numerical contract (see the tolerance policy in [`super`]):
//!
//! - **Elementwise kernels** use explicit `_mm256_mul_pd` +
//!   `_mm256_add_pd`/`_mm256_sub_pd` sequences — never fused
//!   multiply-add — so every lane performs exactly the scalar tier's
//!   rounding sequence and results are bit-identical to
//!   [`super::scalar`].
//! - **Reductions** (`dot`, the dual-update residual, `fista_step`'s
//!   norm and change) run four/eight-wide FMA accumulators and therefore
//!   re-associate; they agree with the scalar tier to ≤ 1e-12 relative.
//!   `fista_step` accumulates its norm and change on `dot`'s structure,
//!   so each stays bit-identical to `dot` of the written `x⁺` (or of the
//!   materialized `x⁺ − x`) with itself *within this tier*. Its restart
//!   sums add the same no-FMA products by lane.
//! - The Lee lane codelets run the shared recursion body in
//!   [`super::codelet`] on [`Ymm`] lanes, one `__m256d` each, inside
//!   `#[target_feature(enable = "avx2")]` wrappers. Every level
//!   operation is one `_mm256_add_pd`, `_mm256_sub_pd` or
//!   `_mm256_mul_pd` (never FMA), so each lane repeats the scalar tier's
//!   `[f64; 4]` arithmetic and the results are bit-identical to it, NaN
//!   bits included. The 4×4 transpose only moves data, so it is
//!   identical too.
//! - Soft-threshold branches are mirrored with a blend sequence whose
//!   last write corresponds to the scalar `v > t` arm, reproducing the
//!   scalar branch priority bit for bit (including `t < 0` and NaN
//!   inputs).
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `y += alpha * x`, bit-identical to the scalar tier.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { axpy_inner(alpha, x, y) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_inner(alpha: f64, x: &[f64], y: &mut [f64]) {
    let n = y.len();
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let va = _mm256_set1_pd(alpha);
    let mut i = 0;
    // SAFETY: i + 4 <= n == x.len() == y.len(); loads/stores stay in
    // bounds and are unaligned-tolerant (`loadu`/`storeu`).
    while i + 4 <= n {
        let vx = _mm256_loadu_pd(xp.add(i));
        let vy = _mm256_loadu_pd(yp.add(i));
        // mul + add (not FMA) to match the scalar rounding sequence.
        _mm256_storeu_pd(yp.add(i), _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
        i += 4;
    }
    while i < n {
        *yp.add(i) += alpha * *xp.add(i);
        i += 1;
    }
}

/// `a *= s`, bit-identical to the scalar tier.
pub fn scale(a: &mut [f64], s: f64) {
    // SAFETY: AVX2+FMA verified at tier selection.
    unsafe { scale_inner(a, s) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn scale_inner(a: &mut [f64], s: f64) {
    let n = a.len();
    let ap = a.as_mut_ptr();
    let vs = _mm256_set1_pd(s);
    let mut i = 0;
    // SAFETY: i + 4 <= n; in-bounds unaligned access.
    while i + 4 <= n {
        let v = _mm256_loadu_pd(ap.add(i));
        _mm256_storeu_pd(ap.add(i), _mm256_mul_pd(v, vs));
        i += 4;
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
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { sub_inner(out, a, b) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sub_inner(out: &mut [f64], a: &[f64], b: &[f64]) {
    let n = out.len();
    let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut i = 0;
    // SAFETY: i + 4 <= n for all three equal-length slices.
    while i + 4 <= n {
        let va = _mm256_loadu_pd(ap.add(i));
        let vb = _mm256_loadu_pd(bp.add(i));
        _mm256_storeu_pd(op.add(i), _mm256_sub_pd(va, vb));
        i += 4;
    }
    while i < n {
        *op.add(i) = *ap.add(i) - *bp.add(i);
        i += 1;
    }
}

/// `v = (v − b) & mask` on the bits, bit-identical to the scalar tier.
pub fn masked_sub(v: &mut [f64], b: &[f64], mask: &[u64]) {
    assert_eq!(v.len(), b.len(), "masked_sub: length mismatch");
    assert_eq!(v.len(), mask.len(), "masked_sub: length mismatch");
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { masked_sub_inner(v, b, mask) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn masked_sub_inner(v: &mut [f64], b: &[f64], mask: &[u64]) {
    let n = v.len();
    let (vp, bp, mp) = (v.as_mut_ptr(), b.as_ptr(), mask.as_ptr());
    let mut i = 0;
    // SAFETY: i + 4 <= n for all three equal-length slices.
    while i + 4 <= n {
        let d = _mm256_sub_pd(_mm256_loadu_pd(vp.add(i)), _mm256_loadu_pd(bp.add(i)));
        let m = _mm256_castsi256_pd(_mm256_loadu_si256(mp.add(i).cast()));
        _mm256_storeu_pd(vp.add(i), _mm256_and_pd(d, m));
        i += 4;
    }
    while i < n {
        let d = *vp.add(i) - *bp.add(i);
        *vp.add(i) = f64::from_bits(d.to_bits() & *mp.add(i));
        i += 1;
    }
}

/// `out = a + b`, bit-identical to the scalar tier (NaN sums included).
pub fn add(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    assert_eq!(out.len(), a.len(), "add: length mismatch");
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { add_inner(out, a, b) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn add_inner(out: &mut [f64], a: &[f64], b: &[f64]) {
    let n = out.len();
    let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut i = 0;
    // SAFETY: i + 4 <= n for all three equal-length slices.
    while i + 4 <= n {
        let va = _mm256_loadu_pd(ap.add(i));
        let vb = _mm256_loadu_pd(bp.add(i));
        _mm256_storeu_pd(op.add(i), canonical_nan(_mm256_add_pd(va, vb)));
        i += 4;
    }
    while i < n {
        *op.add(i) = super::scalar::canonical_nan(*ap.add(i) + *bp.add(i));
        i += 1;
    }
}

/// Horizontal sum of a 256-bit accumulator in a fixed order:
/// `(l0 + l2) + (l1 + l3)`. Shared by every reduction so their
/// association order is mutually consistent, the AVX-512 table's
/// `fista_step` included.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, as tier selection checked before
/// any caller runs.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn hsum(acc: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd(acc, 1);
    let pair = _mm_add_pd(lo, hi);
    _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair))
}

/// Dot product with two four-lane FMA accumulators (re-associated
/// reduction; ≤ 1e-12 relative vs the scalar tier).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { dot_inner(a, b) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_inner(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    // SAFETY: i + 8 <= n on both equal-length slices.
    while i + 8 <= n {
        let a0 = _mm256_loadu_pd(ap.add(i));
        let b0 = _mm256_loadu_pd(bp.add(i));
        acc0 = _mm256_fmadd_pd(a0, b0, acc0);
        let a1 = _mm256_loadu_pd(ap.add(i + 4));
        let b1 = _mm256_loadu_pd(bp.add(i + 4));
        acc1 = _mm256_fmadd_pd(a1, b1, acc1);
        i += 8;
    }
    if i + 4 <= n {
        let a0 = _mm256_loadu_pd(ap.add(i));
        let b0 = _mm256_loadu_pd(bp.add(i));
        acc0 = _mm256_fmadd_pd(a0, b0, acc0);
        i += 4;
    }
    let mut s = hsum(_mm256_add_pd(acc0, acc1));
    while i < n {
        s += *ap.add(i) * *bp.add(i);
        i += 1;
    }
    s
}

/// Four-lane soft threshold mirroring the scalar branch priority: start
/// from zero, blend in the `v < -t` arm, then let the `v > t` arm
/// overwrite — identical to `if v > t {v-t} else if v < -t {v+t} else
/// {0}` for every input, including `t < 0` (both masks set: the `v > t`
/// arm wins, as in the scalar chain) and NaN (neither mask set: 0).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn shrink_pd(v: __m256d, t: __m256d, neg_t: __m256d) -> __m256d {
    let pos = _mm256_cmp_pd::<_CMP_GT_OQ>(v, t);
    let neg = _mm256_cmp_pd::<_CMP_LT_OQ>(v, neg_t);
    let r = _mm256_blendv_pd(_mm256_setzero_pd(), _mm256_add_pd(v, t), neg);
    _mm256_blendv_pd(r, _mm256_sub_pd(v, t), pos)
}

/// One FISTA vector pass: the prox step as mul-then-sub and the shrink
/// blend (so `x⁺` is bit-identical to the scalar tier), with `‖x⁺‖²` and
/// `‖x⁺ − x‖²` on [`dot`]'s accumulator structure (so each is
/// bit-identical to this tier's `dot` of `x⁺`, or of the materialized
/// difference, with itself). The restart products are two subtractions
/// and a multiply, as the scalar tier's, summed by lane.
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
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { fista_step_inner(xn, y, g, x, step, t) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fista_step_inner(
    xn: &mut [f64],
    y: &[f64],
    g: &[f64],
    x: &[f64],
    step: f64,
    t: f64,
) -> super::FistaSums {
    let n = xn.len();
    let ptrs = (xn.as_mut_ptr(), y.as_ptr(), g.as_ptr(), x.as_ptr());
    let consts = (_mm256_set1_pd(step), _mm256_set1_pd(t), _mm256_set1_pd(-t));
    let sign = _mm256_set1_pd(-0.0);
    let (mut n0, mut n1) = (_mm256_setzero_pd(), _mm256_setzero_pd());
    let (mut c0, mut c1) = (_mm256_setzero_pd(), _mm256_setzero_pd());
    let (mut ps, mut pa) = (_mm256_setzero_pd(), _mm256_setzero_pd());
    let mut i = 0;
    // SAFETY (all `fista_lanes` calls): i + 4 <= n on all four
    // equal-length slices.
    while i + 8 <= n {
        let (v0, d0, p0) = fista_lanes(ptrs, i, consts);
        n0 = _mm256_fmadd_pd(v0, v0, n0);
        c0 = _mm256_fmadd_pd(d0, d0, c0);
        let (v1, d1, p1) = fista_lanes(ptrs, i + 4, consts);
        n1 = _mm256_fmadd_pd(v1, v1, n1);
        c1 = _mm256_fmadd_pd(d1, d1, c1);
        ps = _mm256_add_pd(ps, _mm256_add_pd(p0, p1));
        let (a0, a1) = (_mm256_andnot_pd(sign, p0), _mm256_andnot_pd(sign, p1));
        pa = _mm256_add_pd(pa, _mm256_add_pd(a0, a1));
        i += 8;
    }
    if i + 4 <= n {
        let (v0, d0, p0) = fista_lanes(ptrs, i, consts);
        n0 = _mm256_fmadd_pd(v0, v0, n0);
        c0 = _mm256_fmadd_pd(d0, d0, c0);
        ps = _mm256_add_pd(ps, p0);
        pa = _mm256_add_pd(pa, _mm256_andnot_pd(sign, p0));
        i += 4;
    }
    let mut norm_sq = hsum(_mm256_add_pd(n0, n1));
    let mut change_sq = hsum(_mm256_add_pd(c0, c1));
    let (mut restart, mut restart_abs) = (hsum(ps), hsum(pa));
    let (op, yp, gp, xp) = ptrs;
    while i < n {
        let yi = *yp.add(i);
        let v = super::scalar::shrink(yi - step * *gp.add(i), t);
        *op.add(i) = v;
        norm_sq += v * v;
        let d = v - *xp.add(i);
        change_sq += d * d;
        let p = (yi - v) * d;
        restart += p;
        restart_abs += p.abs();
        i += 1;
    }
    super::FistaSums {
        norm_sq,
        change_sq,
        restart,
        restart_abs,
    }
}

/// Four lanes of [`fista_step`] at offset `i` of `(x⁺, y, g, x)`: stores
/// `x⁺ = shrink(y − step·g, t)` and returns `(x⁺, x⁺ − x, (y − x⁺)·(x⁺ − x))`,
/// given `(step, t, −t)` broadcast.
///
/// # Safety
///
/// The CPU must support AVX2, as tier selection checked before any
/// caller runs, and `i + 4` must not exceed the length of any of the
/// four slices behind the pointers.
#[inline(always)]
pub(super) unsafe fn fista_lanes(
    (op, yp, gp, xp): (*mut f64, *const f64, *const f64, *const f64),
    i: usize,
    (vs, vt, vnt): (__m256d, __m256d, __m256d),
) -> (__m256d, __m256d, __m256d) {
    let vy = _mm256_loadu_pd(yp.add(i));
    let v = shrink_pd(
        _mm256_sub_pd(vy, _mm256_mul_pd(vs, _mm256_loadu_pd(gp.add(i)))),
        vt,
        vnt,
    );
    _mm256_storeu_pd(op.add(i), v);
    let d = _mm256_sub_pd(v, _mm256_loadu_pd(xp.add(i)));
    (v, d, _mm256_mul_pd(_mm256_sub_pd(vy, v), d))
}

/// FISTA momentum extrapolation, bit-identical to the scalar tier.
pub fn momentum(y: &mut [f64], xn: &[f64], xo: &[f64], beta: f64) {
    assert_eq!(y.len(), xn.len(), "momentum: length mismatch");
    assert_eq!(y.len(), xo.len(), "momentum: length mismatch");
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { momentum_inner(y, xn, xo, beta) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn momentum_inner(y: &mut [f64], xn: &[f64], xo: &[f64], beta: f64) {
    let n = y.len();
    let (yp, np, op) = (y.as_mut_ptr(), xn.as_ptr(), xo.as_ptr());
    let vb = _mm256_set1_pd(beta);
    let mut i = 0;
    // SAFETY: i + 4 <= n on all three equal-length slices.
    while i + 4 <= n {
        let vn = _mm256_loadu_pd(np.add(i));
        let vo = _mm256_loadu_pd(op.add(i));
        let d = _mm256_sub_pd(vn, vo);
        _mm256_storeu_pd(yp.add(i), _mm256_add_pd(vn, _mm256_mul_pd(vb, d)));
        i += 4;
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
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { butterfly_split_inner(alpha, beta, x, y, inv) }
}

#[target_feature(enable = "avx2", enable = "fma")]
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
    let vi = _mm256_set1_pd(inv);
    let mut j = 0;
    // SAFETY: j + 4 <= w on all four equal-length slices.
    while j + 4 <= w {
        let vx = _mm256_loadu_pd(xp.add(j));
        let vy = _mm256_loadu_pd(yp.add(j));
        _mm256_storeu_pd(aptr.add(j), _mm256_add_pd(vx, vy));
        _mm256_storeu_pd(bptr.add(j), _mm256_mul_pd(_mm256_sub_pd(vx, vy), vi));
        j += 4;
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
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { butterfly_merge_inner(top, bottom, alpha, beta, twice_cos) }
}

#[target_feature(enable = "avx2", enable = "fma")]
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
    let vc = _mm256_set1_pd(twice_cos);
    let vh = _mm256_set1_pd(0.5);
    let mut j = 0;
    // SAFETY: j + 4 <= w on all four equal-length slices.
    while j + 4 <= w {
        let va = _mm256_loadu_pd(ap.add(j));
        let diff = _mm256_mul_pd(vc, _mm256_loadu_pd(btp.add(j)));
        let top = _mm256_mul_pd(vh, _mm256_add_pd(va, diff));
        let bottom = _mm256_mul_pd(vh, _mm256_sub_pd(va, diff));
        _mm256_storeu_pd(tp.add(j), canonical_nan(top));
        _mm256_storeu_pd(bp.add(j), canonical_nan(bottom));
        j += 4;
    }
    while j < w {
        let diff = twice_cos * *btp.add(j);
        let av = *ap.add(j);
        *tp.add(j) = super::scalar::canonical_nan(0.5 * (av + diff));
        *bp.add(j) = super::scalar::canonical_nan(0.5 * (av - diff));
        j += 1;
    }
}

/// Fused RPCA L-update target `out = (a − b) + c·k`, bit-identical to
/// the scalar tier.
pub fn sub_add_scaled(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64], k: f64) {
    let n = out.len();
    assert_eq!(a.len(), n, "sub_add_scaled: length mismatch");
    assert_eq!(b.len(), n, "sub_add_scaled: length mismatch");
    assert_eq!(c.len(), n, "sub_add_scaled: length mismatch");
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { sub_add_scaled_inner(out, a, b, c, k) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sub_add_scaled_inner(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64], k: f64) {
    let n = out.len();
    let (op, ap, bp, cp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr(), c.as_ptr());
    let vk = _mm256_set1_pd(k);
    let mut i = 0;
    // SAFETY: i + 4 <= n on all four equal-length slices.
    while i + 4 <= n {
        let d = _mm256_sub_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
        let s = _mm256_mul_pd(_mm256_loadu_pd(cp.add(i)), vk);
        _mm256_storeu_pd(op.add(i), _mm256_add_pd(d, s));
        i += 4;
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
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { sub_add_scaled_shrink_inner(out, a, b, c, k, thr) }
}

#[target_feature(enable = "avx2", enable = "fma")]
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
    let vk = _mm256_set1_pd(k);
    let vt = _mm256_set1_pd(thr);
    let vnt = _mm256_set1_pd(-thr);
    let mut i = 0;
    // SAFETY: i + 4 <= n on all four equal-length slices.
    while i + 4 <= n {
        let d = _mm256_sub_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)));
        let v = _mm256_add_pd(d, _mm256_mul_pd(_mm256_loadu_pd(cp.add(i)), vk));
        _mm256_storeu_pd(op.add(i), shrink_pd(v, vt, vnt));
        i += 4;
    }
    while i < n {
        let v = (*ap.add(i) - *bp.add(i)) + *cp.add(i) * k;
        *op.add(i) = super::scalar::shrink(v, thr);
        i += 1;
    }
}

/// Four adjacent codelet lanes in one AVX2 register: the
/// [`super::codelet::Lane`] the codelet wrappers below run the shared
/// recursion body on, and the tail strip of the AVX-512 codelets. The
/// type is private to the `simd` module, and only the
/// `#[target_feature(enable = "avx2")]` codelet wrappers below and the
/// `avx512f` ones in `avx512.rs` (which implies AVX2) build values of
/// it, so every method runs on a CPU that passed AVX2 detection at tier
/// selection. `add`, `sub` and `mul` are one intrinsic each (never FMA),
/// so each lane rounds exactly as the scalar tier's `[f64; 4]` lanes do.
#[derive(Clone, Copy)]
pub(super) struct Ymm(__m256d);

impl super::codelet::Lane for Ymm {
    const WIDTH: usize = 4;
    type Tail = [f64; 1];

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: AVX2 verified at tier selection (see the type docs).
        Ymm(unsafe { _mm256_setzero_pd() })
    }

    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        assert_eq!(src.len(), 4, "lee lanes: strip load length");
        // SAFETY: AVX2 verified at tier selection (see the type docs);
        // `src` holds the four values read, and `loadu` takes any
        // alignment.
        Ymm(unsafe { _mm256_loadu_pd(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        assert_eq!(dst.len(), 4, "lee lanes: strip store length");
        // SAFETY: AVX2 verified at tier selection (see the type docs);
        // `dst` holds the four values written, and `storeu` takes any
        // alignment.
        unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: AVX2 verified at tier selection (see the type docs).
        Ymm(unsafe { _mm256_add_pd(self.0, b.0) })
    }

    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        // SAFETY: AVX2 verified at tier selection (see the type docs).
        Ymm(unsafe { _mm256_sub_pd(self.0, b.0) })
    }

    #[inline(always)]
    fn mul(self, s: f64) -> Self {
        // SAFETY: AVX2 verified at tier selection (see the type docs).
        Ymm(unsafe { _mm256_mul_pd(self.0, _mm256_set1_pd(s)) })
    }

    #[inline(always)]
    fn any_nan(self) -> bool {
        // SAFETY: AVX2 verified at tier selection (see the type docs).
        unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_UNORD_Q>(self.0, self.0)) != 0 }
    }

    #[inline(always)]
    fn canonical_nan_where(self, row0: Self) -> Self {
        // SAFETY: AVX2 verified at tier selection (see the type docs).
        Ymm(unsafe {
            let lanes = _mm256_cmp_pd::<_CMP_UNORD_Q>(row0.0, row0.0);
            _mm256_blendv_pd(self.0, canonical_nan(self.0), lanes)
        })
    }
}

/// Every NaN lane of `v` replaced by `f64::NAN`, the vector form of
/// [`super::scalar::canonical_nan`].
///
/// # Safety
///
/// The CPU must support AVX2, as tier selection checked before any
/// caller runs.
#[inline(always)]
unsafe fn canonical_nan(v: __m256d) -> __m256d {
    let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(v, v);
    _mm256_blendv_pd(v, _mm256_set1_pd(f64::NAN), nan)
}

/// Lee DCT-II lane codelet: the shared [`super::codelet`] body run on
/// [`Ymm`] lanes (no FMA), so it is bit-identical to the scalar tier.
pub fn lee_forward_lanes(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    // SAFETY: AVX2 verified at tier selection; the body checks its own
    // lengths.
    unsafe { lee_forward_lanes_inner(v, w, twiddles, s0, sk) }
}

#[target_feature(enable = "avx2")]
unsafe fn lee_forward_lanes_inner(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    super::codelet::forward_with::<Ymm>(v, w, twiddles, s0, sk);
}

/// Lee DCT-III lane codelet: the shared [`super::codelet`] body run on
/// [`Ymm`] lanes (no FMA), so it is bit-identical to the scalar tier.
pub fn lee_inverse_lanes(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    // SAFETY: AVX2 verified at tier selection; the body checks its own
    // lengths.
    unsafe { lee_inverse_lanes_inner(v, w, twiddles, s0, sk) }
}

#[target_feature(enable = "avx2")]
unsafe fn lee_inverse_lanes_inner(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    super::codelet::inverse_with::<Ymm>(v, w, twiddles, s0, sk);
}

/// Out-of-place transpose (`rows x cols` → `cols x rows`) in
/// register-blocked 4×4 tiles; pure data movement, so identical to the
/// scalar tier.
pub fn transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "transpose: length mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose: length mismatch");
    // SAFETY: AVX2 verified at tier selection; lengths checked.
    unsafe { transpose_inner(src, dst, rows, cols) }
}

/// The body of [`transpose`], for callers that checked the lengths.
///
/// # Safety
///
/// The CPU must support AVX2, and both slices must hold `rows * cols`
/// values.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn transpose_inner(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    // Cache tile (a multiple of the 4×4 register block).
    const TILE: usize = 32;
    let (r4, c4) = (rows & !3, cols & !3);
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    for ib in (0..r4).step_by(TILE) {
        let i_end = (ib + TILE).min(r4);
        for jb in (0..c4).step_by(TILE) {
            let j_end = (jb + TILE).min(c4);
            for i in (ib..i_end).step_by(4) {
                for j in (jb..j_end).step_by(4) {
                    // SAFETY: i + 3 < r4 <= rows and j + 3 < c4 <= cols,
                    // so the four source rows and four destination rows
                    // stay inside the rows * cols buffers.
                    let s = sp.add(i * cols + j);
                    let r0 = _mm256_loadu_pd(s);
                    let r1 = _mm256_loadu_pd(s.add(cols));
                    let r2 = _mm256_loadu_pd(s.add(2 * cols));
                    let r3 = _mm256_loadu_pd(s.add(3 * cols));
                    let t0 = _mm256_unpacklo_pd(r0, r1);
                    let t1 = _mm256_unpackhi_pd(r0, r1);
                    let t2 = _mm256_unpacklo_pd(r2, r3);
                    let t3 = _mm256_unpackhi_pd(r2, r3);
                    let d = dp.add(j * rows + i);
                    _mm256_storeu_pd(d, _mm256_permute2f128_pd::<0x20>(t0, t2));
                    _mm256_storeu_pd(d.add(rows), _mm256_permute2f128_pd::<0x20>(t1, t3));
                    _mm256_storeu_pd(d.add(2 * rows), _mm256_permute2f128_pd::<0x31>(t0, t2));
                    _mm256_storeu_pd(d.add(3 * rows), _mm256_permute2f128_pd::<0x31>(t1, t3));
                }
            }
        }
    }
    // Ragged edges: the last `cols % 4` columns of every row, then the
    // last `rows % 4` rows of the remaining columns.
    for i in 0..rows {
        for j in c4..cols {
            dst[j * rows + i] = src[i * cols + j];
        }
    }
    for i in r4..rows {
        for j in 0..c4 {
            dst[j * rows + i] = src[i * cols + j];
        }
    }
}

/// Fused RPCA dual update `y += mu·z`, `z = d − l − s`, returning `Σ z²`
/// (elementwise part bit-identical; the returned sum re-associates,
/// ≤ 1e-12 relative vs the scalar tier).
pub fn dual_update_residual_sq(y: &mut [f64], d: &[f64], l: &[f64], s: &[f64], mu: f64) -> f64 {
    let n = y.len();
    assert_eq!(d.len(), n, "dual_update_residual_sq: length mismatch");
    assert_eq!(l.len(), n, "dual_update_residual_sq: length mismatch");
    assert_eq!(s.len(), n, "dual_update_residual_sq: length mismatch");
    // SAFETY: AVX2+FMA verified at tier selection; lengths checked.
    unsafe { dual_update_residual_sq_inner(y, d, l, s, mu) }
}

#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dual_update_residual_sq_inner(
    y: &mut [f64],
    d: &[f64],
    l: &[f64],
    s: &[f64],
    mu: f64,
) -> f64 {
    let n = y.len();
    let (yp, dp, lp, sp) = (y.as_mut_ptr(), d.as_ptr(), l.as_ptr(), s.as_ptr());
    let vm = _mm256_set1_pd(mu);
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    // SAFETY: i + 4 <= n on all four equal-length slices.
    while i + 4 <= n {
        let z = _mm256_sub_pd(
            _mm256_sub_pd(_mm256_loadu_pd(dp.add(i)), _mm256_loadu_pd(lp.add(i))),
            _mm256_loadu_pd(sp.add(i)),
        );
        let vy = _mm256_loadu_pd(yp.add(i));
        // mul + add (not FMA) so the y update matches scalar exactly.
        _mm256_storeu_pd(yp.add(i), _mm256_add_pd(vy, _mm256_mul_pd(vm, z)));
        acc = _mm256_fmadd_pd(z, z, acc);
        i += 4;
    }
    let mut z2 = hsum(acc);
    while i < n {
        let z = *dp.add(i) - *lp.add(i) - *sp.add(i);
        *yp.add(i) += mu * z;
        z2 += z * z;
        i += 1;
    }
    z2
}
