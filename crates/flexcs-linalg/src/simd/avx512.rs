//! x86_64 AVX-512 kernels: the AVX2+FMA tier's Lee codelets, prox step
//! and transpose, eight lanes per register.
//!
//! On hosts that report `avx512f` as well as AVX2 and FMA, the kernel
//! table in [`super`] swaps these entries into the AVX2+FMA table: the
//! two Lee lane codelets, `fista_step` and `transpose`. Every other
//! kernel, and the tier name, stay the
//! AVX2+FMA tier's. The public wrappers are only ever reachable through
//! that table, which selects them exclusively after
//! `is_x86_feature_detected!("avx512f")` succeeds at process start, so
//! the target-feature precondition of the
//! `#[target_feature(enable = "avx512f")]` inner functions holds at
//! every call site (AVX-512F implies the AVX2 and FMA that the shared
//! AVX2 helpers need).
//!
//! Numerical contract (see the tolerance policy in [`super`]):
//!
//! - The codelets run the shared recursion body in [`super::codelet`]
//!   on [`Zmm`] lanes, one `__m512d` each, with the 4-lane leftover
//!   strip on the AVX2 tier's `Ymm` lane. Every level operation is one
//!   `_mm512_add_pd`, `_mm512_sub_pd` or `_mm512_mul_pd` (never FMA),
//!   so each lane repeats the scalar tier's arithmetic and the results
//!   are bit-identical to it, NaN bits included: the per-lane NaN rule
//!   of [`super::codelet`] is one masked move here.
//! - The `x⁺` of `fista_step` uses the same single mul/sub intrinsics,
//!   and the shrink is two masked arithmetic ops in the scalar branch
//!   priority, so it is bit-identical to the scalar tier.
//! - `fista_step`'s `‖x⁺‖²` and `‖x⁺ − x‖²` are bit-identical to the
//!   AVX2 tier's: one 8-lane FMA accumulator is its two 4-lane ones
//!   side by side. Only the restart sums take an order of their own.
//! - The 8×8 transpose only moves data.
#![allow(unsafe_code)]

use std::arch::x86_64::*;

use super::avx2::Ymm;

/// Eight adjacent codelet lanes in one AVX-512 register: the
/// [`super::codelet::Lane`] the codelet wrappers below run the shared
/// recursion body on. The type is private to the `simd` module, and only
/// the `#[target_feature(enable = "avx512f")]` codelet wrappers build
/// values of it, so every method runs on a CPU that passed AVX-512F
/// detection at tier selection. `add`, `sub` and `mul` are one intrinsic
/// each (never FMA), so each lane rounds exactly as the scalar tier's
/// lanes do.
#[derive(Clone, Copy)]
pub(super) struct Zmm(__m512d);

impl super::codelet::Lane for Zmm {
    const WIDTH: usize = 8;
    type Tail = Ymm;

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: AVX-512F verified at tier selection (see the type docs).
        Zmm(unsafe { _mm512_setzero_pd() })
    }

    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        assert_eq!(src.len(), 8, "lee lanes: strip load length");
        // SAFETY: AVX-512F verified at tier selection (see the type
        // docs); `src` holds the eight values read, and `loadu` takes any
        // alignment.
        Zmm(unsafe { _mm512_loadu_pd(src.as_ptr()) })
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        assert_eq!(dst.len(), 8, "lee lanes: strip store length");
        // SAFETY: AVX-512F verified at tier selection (see the type
        // docs); `dst` holds the eight values written, and `storeu`
        // takes any alignment.
        unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), self.0) }
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: AVX-512F verified at tier selection (see the type docs).
        Zmm(unsafe { _mm512_add_pd(self.0, b.0) })
    }

    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        // SAFETY: AVX-512F verified at tier selection (see the type docs).
        Zmm(unsafe { _mm512_sub_pd(self.0, b.0) })
    }

    #[inline(always)]
    fn mul(self, s: f64) -> Self {
        // SAFETY: AVX-512F verified at tier selection (see the type docs).
        Zmm(unsafe { _mm512_mul_pd(self.0, _mm512_set1_pd(s)) })
    }

    #[inline(always)]
    fn any_nan(self) -> bool {
        // SAFETY: AVX-512F verified at tier selection (see the type docs).
        unsafe { _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(self.0, self.0) != 0 }
    }

    #[inline(always)]
    fn canonical_nan_where(self, row0: Self) -> Self {
        // SAFETY: AVX-512F verified at tier selection (see the type docs).
        Zmm(unsafe {
            let nan = _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(self.0, self.0)
                & _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(row0.0, row0.0);
            _mm512_mask_mov_pd(self.0, nan, _mm512_set1_pd(f64::NAN))
        })
    }
}

/// Lee DCT-II lane codelet: the shared [`super::codelet`] body run on
/// [`Zmm`] lanes (no FMA), so it is bit-identical to the scalar tier.
pub fn lee_forward_lanes(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    // SAFETY: AVX-512F verified at tier selection; the body checks its
    // own lengths.
    unsafe { lee_forward_lanes_inner(v, w, twiddles, s0, sk) }
}

#[target_feature(enable = "avx512f")]
unsafe fn lee_forward_lanes_inner(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    super::codelet::forward_with::<Zmm>(v, w, twiddles, s0, sk);
}

/// Lee DCT-III lane codelet: the shared [`super::codelet`] body run on
/// [`Zmm`] lanes (no FMA), so it is bit-identical to the scalar tier.
pub fn lee_inverse_lanes(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    // SAFETY: AVX-512F verified at tier selection; the body checks its
    // own lengths.
    unsafe { lee_inverse_lanes_inner(v, w, twiddles, s0, sk) }
}

#[target_feature(enable = "avx512f")]
unsafe fn lee_inverse_lanes_inner(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    super::codelet::inverse_with::<Zmm>(v, w, twiddles, s0, sk);
}

/// One FISTA vector pass, eight lanes per register: `x⁺` as the AVX2
/// tier computes it (bit-identical to the scalar tier), and `‖x⁺‖²` and
/// `‖x⁺ − x‖²` bit-identical to the AVX2 tier's, because one 8-lane
/// accumulator is the AVX2 tier's two 4-lane ones side by side: lane
/// `j` of the `__m512d` is AVX2 accumulator `j / 4`, lane `j % 4`. The
/// last whole 4-lane block, the join and the scalar tail then run the
/// AVX2 code. The restart sums add the same products in 8 lanes, folded
/// to 4 before that block: an order of their own, as
/// [`super::FistaSums`] allows.
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
    // SAFETY: AVX-512F verified at tier selection; lengths checked.
    unsafe { fista_step_inner(xn, y, g, x, step, t) }
}

#[target_feature(enable = "avx512f")]
unsafe fn fista_step_inner(
    xn: &mut [f64],
    y: &[f64],
    g: &[f64],
    x: &[f64],
    step: f64,
    t: f64,
) -> super::FistaSums {
    let n = xn.len();
    let (op, yp, gp, xp) = (xn.as_mut_ptr(), y.as_ptr(), g.as_ptr(), x.as_ptr());
    let (vs, vt, vnt) = (_mm512_set1_pd(step), _mm512_set1_pd(t), _mm512_set1_pd(-t));
    let (mut norm, mut change) = (_mm512_setzero_pd(), _mm512_setzero_pd());
    let (mut ps, mut pa) = (_mm512_setzero_pd(), _mm512_setzero_pd());
    let mut i = 0;
    // SAFETY: i + 8 <= n on all four equal-length slices.
    while i + 8 <= n {
        let vy = _mm512_loadu_pd(yp.add(i));
        let u = _mm512_sub_pd(vy, _mm512_mul_pd(vs, _mm512_loadu_pd(gp.add(i))));
        // The scalar branch priority: zero, then the `u < −t` arm, then
        // the `u > t` arm over it (the AVX2 blend order).
        let neg = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(u, vnt);
        let pos = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(u, vt);
        let v = _mm512_mask_sub_pd(_mm512_maskz_add_pd(neg, u, vt), pos, u, vt);
        _mm512_storeu_pd(op.add(i), v);
        let d = _mm512_sub_pd(v, _mm512_loadu_pd(xp.add(i)));
        norm = _mm512_fmadd_pd(v, v, norm);
        change = _mm512_fmadd_pd(d, d, change);
        let p = _mm512_mul_pd(_mm512_sub_pd(vy, v), d);
        ps = _mm512_add_pd(ps, p);
        pa = _mm512_add_pd(pa, _mm512_abs_pd(p));
        i += 8;
    }
    let (mut n0, n1) = halves(norm);
    let (mut c0, c1) = halves(change);
    let (mut ps4, mut pa4) = (fold(ps), fold(pa));
    if i + 4 <= n {
        // SAFETY: i + 4 <= n on all four equal-length slices.
        let (v0, d0, p0) = super::avx2::fista_lanes(
            (op, yp, gp, xp),
            i,
            (_mm256_set1_pd(step), _mm256_set1_pd(t), _mm256_set1_pd(-t)),
        );
        n0 = _mm256_fmadd_pd(v0, v0, n0);
        c0 = _mm256_fmadd_pd(d0, d0, c0);
        ps4 = _mm256_add_pd(ps4, p0);
        pa4 = _mm256_add_pd(pa4, _mm256_andnot_pd(_mm256_set1_pd(-0.0), p0));
        i += 4;
    }
    let mut norm_sq = super::avx2::hsum(_mm256_add_pd(n0, n1));
    let mut change_sq = super::avx2::hsum(_mm256_add_pd(c0, c1));
    let (mut restart, mut restart_abs) = (super::avx2::hsum(ps4), super::avx2::hsum(pa4));
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

/// The low and high four lanes of `v`: the AVX2 tier's accumulators
/// `0` and `1` in [`fista_step`]'s layout.
///
/// # Safety
///
/// The CPU must support AVX-512F, as tier selection checked before any
/// caller runs.
#[inline(always)]
unsafe fn halves(v: __m512d) -> (__m256d, __m256d) {
    (_mm512_castpd512_pd256(v), _mm512_extractf64x4_pd::<1>(v))
}

/// The two halves of `v` added lane by lane: 8 partial sums folded to
/// the AVX2 tier's 4.
///
/// # Safety
///
/// The CPU must support AVX-512F, as tier selection checked before any
/// caller runs.
#[inline(always)]
unsafe fn fold(v: __m512d) -> __m256d {
    let (lo, hi) = halves(v);
    _mm256_add_pd(lo, hi)
}

/// Out-of-place transpose (`rows x cols` → `cols x rows`) in
/// register-blocked 8×8 tiles; pure data movement, so identical to the
/// scalar tier. Shapes that are not multiples of 8 both ways take the
/// AVX2 tier's 4×4 tiles.
pub fn transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "transpose: length mismatch");
    assert_eq!(dst.len(), rows * cols, "transpose: length mismatch");
    if !rows.is_multiple_of(8) || !cols.is_multiple_of(8) {
        // SAFETY: AVX-512F (which implies AVX2) verified at tier
        // selection; lengths checked.
        return unsafe { super::avx2::transpose_inner(src, dst, rows, cols) };
    }
    // SAFETY: AVX-512F verified at tier selection; lengths checked, and
    // both extents are multiples of 8.
    unsafe { transpose_inner(src, dst, rows, cols) }
}

#[target_feature(enable = "avx512f")]
unsafe fn transpose_inner(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    // Cache tile (a multiple of the 8×8 register block).
    const TILE: usize = 32;
    let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
    for ib in (0..rows).step_by(TILE) {
        let i_end = (ib + TILE).min(rows);
        for jb in (0..cols).step_by(TILE) {
            let j_end = (jb + TILE).min(cols);
            for i in (ib..i_end).step_by(8) {
                for j in (jb..j_end).step_by(8) {
                    // SAFETY: i + 7 < rows and j + 7 < cols (both
                    // multiples of 8), so the eight source rows and the
                    // eight destination rows stay inside the buffers.
                    transpose8x8(sp.add(i * cols + j), cols, dp.add(j * rows + i), rows);
                }
            }
        }
    }
}

/// Transposes the 8×8 block at `s` (row stride `s_stride`) into `d` (row
/// stride `d_stride`) in registers: pairs of rows interleave, then two
/// rounds of 128-bit block shuffles gather each column.
///
/// # Safety
///
/// The CPU must support AVX-512F, and the eight rows of eight values at
/// `s` and at `d` must lie inside their buffers.
#[inline(always)]
unsafe fn transpose8x8(s: *const f64, s_stride: usize, d: *mut f64, d_stride: usize) {
    let row = |k: usize| s.add(k * s_stride);
    // t[2k] holds (r[2k][c], r[2k+1][c]) for the even columns c, t[2k+1]
    // for the odd ones, one 128-bit block per column pair.
    let (r0, r1) = (_mm512_loadu_pd(row(0)), _mm512_loadu_pd(row(1)));
    let (r2, r3) = (_mm512_loadu_pd(row(2)), _mm512_loadu_pd(row(3)));
    let (r4, r5) = (_mm512_loadu_pd(row(4)), _mm512_loadu_pd(row(5)));
    let (r6, r7) = (_mm512_loadu_pd(row(6)), _mm512_loadu_pd(row(7)));
    let t = [
        _mm512_unpacklo_pd(r0, r1),
        _mm512_unpackhi_pd(r0, r1),
        _mm512_unpacklo_pd(r2, r3),
        _mm512_unpackhi_pd(r2, r3),
        _mm512_unpacklo_pd(r4, r5),
        _mm512_unpackhi_pd(r4, r5),
        _mm512_unpacklo_pd(r6, r7),
        _mm512_unpackhi_pd(r6, r7),
    ];
    // Blocks (0, 2) and (1, 3) of rows 0–3, then of rows 4–7.
    let u = [
        _mm512_shuffle_f64x2::<0x88>(t[0], t[2]),
        _mm512_shuffle_f64x2::<0x88>(t[1], t[3]),
        _mm512_shuffle_f64x2::<0xdd>(t[0], t[2]),
        _mm512_shuffle_f64x2::<0xdd>(t[1], t[3]),
    ];
    let v = [
        _mm512_shuffle_f64x2::<0x88>(t[4], t[6]),
        _mm512_shuffle_f64x2::<0x88>(t[5], t[7]),
        _mm512_shuffle_f64x2::<0xdd>(t[4], t[6]),
        _mm512_shuffle_f64x2::<0xdd>(t[5], t[7]),
    ];
    // Column c: block c/2 of t[c % 2] (rows 0–1), t[2 + c % 2] (rows
    // 2–3), t[4 + c % 2], t[6 + c % 2].
    for (c, k, hi) in [
        (0, 0, false),
        (1, 1, false),
        (2, 2, false),
        (3, 3, false),
        (4, 0, true),
        (5, 1, true),
        (6, 2, true),
        (7, 3, true),
    ] {
        let col = if hi {
            _mm512_shuffle_f64x2::<0xdd>(u[k], v[k])
        } else {
            _mm512_shuffle_f64x2::<0x88>(u[k], v[k])
        };
        _mm512_storeu_pd(d.add(c * d_stride), col);
    }
}
