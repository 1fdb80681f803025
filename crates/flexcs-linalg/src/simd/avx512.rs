//! x86_64 AVX-512 lane codelets: the Lee lane codelets of the AVX2+FMA
//! tier, eight lanes per register.
//!
//! On hosts that report `avx512f` as well as AVX2 and FMA, the kernel
//! table in [`super`] swaps these two entries into the AVX2+FMA table;
//! every other kernel, and the tier name, stay the AVX2+FMA tier's. The
//! public wrappers are only ever reachable through that table, which
//! selects them exclusively after `is_x86_feature_detected!("avx512f")`
//! succeeds at process start, so the target-feature precondition of the
//! `#[target_feature(enable = "avx512f")]` inner functions holds at every
//! call site.
//!
//! Numerical contract (see the tolerance policy in [`super`]): the
//! codelets run the shared recursion body in [`super::codelet`] on
//! [`Zmm`] lanes, one `__m512d` each, with the 4-lane leftover strip on
//! the AVX2 tier's `Ymm` lane. Every level operation is one
//! `_mm512_add_pd`, `_mm512_sub_pd` or `_mm512_mul_pd` (never FMA), so
//! each lane repeats the scalar tier's arithmetic and the results are
//! bit-identical to it, NaN bits included: the per-lane NaN rule of
//! [`super::codelet`] is one masked move here.
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
