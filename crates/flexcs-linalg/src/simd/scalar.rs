//! Portable scalar reference tier.
//!
//! These are the historical `vecops`/`matrix`/DCT/RPCA inner loops,
//! retained verbatim as the semantic baseline every vectorized tier is
//! validated against: elementwise kernels must reproduce these bit for
//! bit, reductions to ≤ 1e-12 relative (see the module docs in
//! [`super`]). The four-lane `chunks_exact` unrolling is part of the
//! reference semantics — per-element arithmetic is unchanged by it —
//! and also lets the autovectorizer emit decent code on targets with no
//! hand-written tier.

/// `y += alpha * x` (reference for [`super::Kernels::axpy`]).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (yk, xk) in yc.by_ref().zip(xc.by_ref()) {
        yk[0] += alpha * xk[0];
        yk[1] += alpha * xk[1];
        yk[2] += alpha * xk[2];
        yk[3] += alpha * xk[3];
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// `a *= s` entrywise (reference for [`super::Kernels::scale`]).
pub fn scale(a: &mut [f64], s: f64) {
    for v in a {
        *v *= s;
    }
}

/// `out = a - b` entrywise (reference for [`super::Kernels::sub`]).
pub fn sub(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    assert_eq!(out.len(), a.len(), "sub: length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// `v = (v − b) & mask` entrywise on the bits (reference for
/// [`super::Kernels::masked_sub`]): an all-ones `mask` word keeps the
/// difference, a zero word writes `+0.0` whatever the difference was
/// (NaN and ±∞ included). No branch and no multiply.
pub fn masked_sub(v: &mut [f64], b: &[f64], mask: &[u64]) {
    assert_eq!(v.len(), b.len(), "masked_sub: length mismatch");
    assert_eq!(v.len(), mask.len(), "masked_sub: length mismatch");
    for ((o, y), m) in v.iter_mut().zip(b).zip(mask) {
        *o = f64::from_bits((*o - y).to_bits() & m);
    }
}

/// `out = a + b` entrywise, every NaN sum `f64::NAN` (reference for
/// [`super::Kernels::add`]).
pub fn add(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    assert_eq!(out.len(), a.len(), "add: length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = canonical_nan(x + y);
    }
}

/// `v`, or `f64::NAN` when `v` is any NaN. When both operands of an add
/// are NaNs, IEEE 754 leaves open which one the sum carries, and the
/// compiler may swap the operands of `x + y` differently per tier; the
/// kernels whose adds can meet two NaNs (`add`, `butterfly_merge`)
/// return this one NaN instead, as the lane codelets do.
#[inline(always)]
pub(super) fn canonical_nan(v: f64) -> f64 {
    if v.is_nan() {
        f64::NAN
    } else {
        v
    }
}

/// Dot product (reference for [`super::Kernels::dot`]): strict
/// index-order accumulation from the `Sum for f64` identity `-0.0`.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Soft-threshold shrinkage `sign(v)·max(|v| − t, 0)`.
#[inline(always)]
pub fn shrink(v: f64, t: f64) -> f64 {
    if v > t {
        v - t
    } else if v < -t {
        v + t
    } else {
        0.0
    }
}

/// One FISTA vector pass (reference for [`super::Kernels::fista_step`]):
/// writes `xn[i] = shrink(y[i] − step·g[i], t)` and returns its sums
/// against the previous iterate `x`.
///
/// `‖x⁺‖²` and `‖x⁺ − x‖²` accumulate in index order from `-0.0`, so
/// they are bit-identical to [`dot`] of `x⁺` and of the materialized
/// difference with themselves. The restart sums `Σ pᵢ` and `Σ |pᵢ|`,
/// `pᵢ = (yᵢ − x⁺ᵢ)·(x⁺ᵢ − xᵢ)`, run as four interleaved partial sums
/// (element `i` into lane `i % 4`) joined as `(l0 + l2) + (l1 + l3)`, so
/// no one chain of dependent adds spans the vector.
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
    let (mut norm_sq, mut change_sq) = (-0.0, -0.0);
    let (mut p, mut a) = ([0.0; 4], [0.0; 4]);
    let mut lane = |l: usize, o: &mut f64, yi: f64, gi: f64, xi: f64| {
        let v = shrink(yi - step * gi, t);
        *o = v;
        norm_sq += v * v;
        let d = v - xi;
        change_sq += d * d;
        let pi = (yi - v) * d;
        p[l] += pi;
        a[l] += pi.abs();
    };
    let mut oc = xn.chunks_exact_mut(4);
    let (mut yc, mut gc, mut xc) = (y.chunks_exact(4), g.chunks_exact(4), x.chunks_exact(4));
    for (((ok, yk), gk), xk) in oc
        .by_ref()
        .zip(yc.by_ref())
        .zip(gc.by_ref())
        .zip(xc.by_ref())
    {
        for l in 0..4 {
            lane(l, &mut ok[l], yk[l], gk[l], xk[l]);
        }
    }
    let tail = oc.into_remainder().iter_mut().zip(yc.remainder());
    for (l, ((o, &yi), (&gi, &xi))) in tail
        .zip(gc.remainder().iter().zip(xc.remainder()))
        .enumerate()
    {
        lane(l, o, yi, gi, xi);
    }
    super::FistaSums {
        norm_sq,
        change_sq,
        restart: (p[0] + p[2]) + (p[1] + p[3]),
        restart_abs: (a[0] + a[2]) + (a[1] + a[3]),
    }
}

/// FISTA momentum `y[i] = xn[i] + beta·(xn[i] − xo[i])` (reference for
/// [`super::Kernels::momentum`]).
pub fn momentum(y: &mut [f64], xn: &[f64], xo: &[f64], beta: f64) {
    assert_eq!(y.len(), xn.len(), "momentum: length mismatch");
    assert_eq!(y.len(), xo.len(), "momentum: length mismatch");
    let mut yc = y.chunks_exact_mut(4);
    let mut nc = xn.chunks_exact(4);
    let mut oc = xo.chunks_exact(4);
    for ((yk, nk), ok) in yc.by_ref().zip(nc.by_ref()).zip(oc.by_ref()) {
        yk[0] = nk[0] + beta * (nk[0] - ok[0]);
        yk[1] = nk[1] + beta * (nk[1] - ok[1]);
        yk[2] = nk[2] + beta * (nk[2] - ok[2]);
        yk[3] = nk[3] + beta * (nk[3] - ok[3]);
    }
    for ((yi, ni), oi) in yc
        .into_remainder()
        .iter_mut()
        .zip(nc.remainder())
        .zip(oc.remainder())
    {
        *yi = ni + beta * (ni - oi);
    }
}

/// DCT butterfly split `alpha = x + y`, `beta = (x − y)·inv` (reference
/// for [`super::Kernels::butterfly_split`]): the lane loop of the
/// multi-lane Lee forward recursion.
pub fn butterfly_split(alpha: &mut [f64], beta: &mut [f64], x: &[f64], y: &[f64], inv: f64) {
    let w = alpha.len();
    assert_eq!(beta.len(), w, "butterfly_split: length mismatch");
    assert_eq!(x.len(), w, "butterfly_split: length mismatch");
    assert_eq!(y.len(), w, "butterfly_split: length mismatch");
    for j in 0..w {
        alpha[j] = x[j] + y[j];
        beta[j] = (x[j] - y[j]) * inv;
    }
}

/// DCT inverse butterfly merge `top = 0.5·(alpha + c·beta)`,
/// `bottom = 0.5·(alpha − c·beta)` with `c = twice_cos`, every NaN
/// output `f64::NAN` (reference for [`super::Kernels::butterfly_merge`]):
/// the lane loop of the multi-lane Lee inverse recursion.
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
    for j in 0..w {
        let diff = twice_cos * beta[j];
        top[j] = canonical_nan(0.5 * (alpha[j] + diff));
        bottom[j] = canonical_nan(0.5 * (alpha[j] - diff));
    }
}

/// Register-blocked Lee DCT-II over the lanes of a row-major `n x w`
/// frame, scaled on the store (reference for
/// [`super::Kernels::lee_forward_lanes`]; body in `simd/codelet.rs`).
pub fn lee_forward_lanes(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    super::codelet::forward(v, w, twiddles, s0, sk);
}

/// Register-blocked inverse of [`lee_forward_lanes`], scaled on the
/// load (reference for [`super::Kernels::lee_inverse_lanes`]; body in
/// `simd/codelet.rs`).
pub fn lee_inverse_lanes(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    super::codelet::inverse(v, w, twiddles, s0, sk);
}

/// Out-of-place transpose: `src` is `rows x cols`, `dst` becomes
/// `cols x rows` (reference for [`super::Kernels::transpose`]). Tiling
/// keeps both access streams cache-resident.
pub fn transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "transpose: length mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose: length mismatch");
    const TILE: usize = 32;
    for ib in (0..rows).step_by(TILE) {
        let i_end = (ib + TILE).min(rows);
        for jb in (0..cols).step_by(TILE) {
            let j_end = (jb + TILE).min(cols);
            for i in ib..i_end {
                let srow = &src[i * cols..(i + 1) * cols];
                for j in jb..j_end {
                    dst[j * rows + i] = srow[j];
                }
            }
        }
    }
}

/// Fused RPCA L-update target `out = (a − b) + c·k` (reference for
/// [`super::Kernels::sub_add_scaled`]).
pub fn sub_add_scaled(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64], k: f64) {
    let n = out.len();
    assert_eq!(a.len(), n, "sub_add_scaled: length mismatch");
    assert_eq!(b.len(), n, "sub_add_scaled: length mismatch");
    assert_eq!(c.len(), n, "sub_add_scaled: length mismatch");
    for idx in 0..n {
        out[idx] = (a[idx] - b[idx]) + c[idx] * k;
    }
}

/// Fused RPCA S-update `out = shrink((a − b) + c·k, thr)` (reference
/// for [`super::Kernels::sub_add_scaled_shrink`]).
pub fn sub_add_scaled_shrink(out: &mut [f64], a: &[f64], b: &[f64], c: &[f64], k: f64, thr: f64) {
    let n = out.len();
    assert_eq!(a.len(), n, "sub_add_scaled_shrink: length mismatch");
    assert_eq!(b.len(), n, "sub_add_scaled_shrink: length mismatch");
    assert_eq!(c.len(), n, "sub_add_scaled_shrink: length mismatch");
    for idx in 0..n {
        let v = (a[idx] - b[idx]) + c[idx] * k;
        out[idx] = shrink(v, thr);
    }
}

/// Fused RPCA dual update `y += mu·z` with `z = d − l − s`, returning
/// `Σ z²` (reference for [`super::Kernels::dual_update_residual_sq`]):
/// strict index-order accumulation from `0.0`.
pub fn dual_update_residual_sq(y: &mut [f64], d: &[f64], l: &[f64], s: &[f64], mu: f64) -> f64 {
    let n = y.len();
    assert_eq!(d.len(), n, "dual_update_residual_sq: length mismatch");
    assert_eq!(l.len(), n, "dual_update_residual_sq: length mismatch");
    assert_eq!(s.len(), n, "dual_update_residual_sq: length mismatch");
    let mut z2 = 0.0;
    for idx in 0..n {
        let z = d[idx] - l[idx] - s[idx];
        y[idx] += mu * z;
        z2 += z * z;
    }
    z2
}
