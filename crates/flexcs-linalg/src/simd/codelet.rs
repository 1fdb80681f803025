//! Register-blocked Lee DCT lane codelets: the body behind
//! [`super::Kernels::lee_forward_lanes`] and
//! [`super::Kernels::lee_inverse_lanes`].
//!
//! The buffer is a row-major `n x w` frame holding `w` independent
//! length-`n` lanes (one per column), `n` a power of two `≤`
//! [`CODELET_MAX`]. A strip of adjacent lanes is loaded once, runs every
//! Lee recursion level in registers, spilling to the stack where it must
//! (fixed-size levels for n = 2, 4, 8, 16, 32), and is stored once.
//! Each lane performs exactly the arithmetic of the single-lane
//! recursion in `flexcs-transform` (same operations, same order, no
//! fused multiply-add), so results are bit-identical to it and across
//! tiers.
//!
//! One recursion body serves every lane kind: the levels are generic
//! over a [`Lane`], one element of a strip. [`forward`] and [`inverse`]
//! run them on `[f64; 4]` arrays; the scalar tier calls these as is, on
//! x86_64 under `FLEXCS_FORCE_SCALAR` and on every other target. The
//! x86_64 tier runs the same levels through [`forward_with`] /
//! [`inverse_with`] on register lane types of its own: one `__m256d`
//! per strip element (`avx2.rs`), or one `__m512d` on AVX-512 hosts
//! (`avx512.rs`). On `[f64; 4]` arrays the 32-point codelet compiled
//! for AVX2 kept a 3 KiB stack frame busy with general-register moves,
//! and the register lane type (with the row walk of [`next_row`]) about
//! halves the forward codelet's time and cuts the inverse's by a fifth;
//! a 32-row strip still spills from AVX2's 16 registers, and AVX-512's
//! 32 hold twice the lanes with fewer spills. This file is safe Rust;
//! the intrinsics and their `unsafe` stay in the tier files.
//!
//! ## Strip widths
//!
//! A sweep runs whole strips of the lane type's [`Lane::WIDTH`] (8 for
//! `__m512d`, 4 otherwise), then one strip of its [`Lane::Tail`] type
//! while that fits (4 lanes in one `__m256d` after the 8-lane strips),
//! then the lanes left at the right edge one at a time, so a width that
//! is not a multiple of 8 does not fall back to single lanes. The strip
//! width moves no bit: every lane repeats the single-lane arithmetic
//! whichever strip it lands in.
//!
//! ## NaN bits
//!
//! NaN payloads are pinned too, per lane. When two NaNs meet in an add,
//! IEEE 754 leaves open which one the result carries, and the compiler
//! may swap an add's operands differently per tier. Every output of a
//! lane mixes every input of it through adds, subtracts and multiplies,
//! so a lane with a NaN input has a NaN in row 0 of its unscaled output;
//! in each such lane every NaN is replaced by `f64::NAN` before the
//! store (whose finite forward scales keep it `f64::NAN`). Any other NaN
//! was made by an invalid operation such as `∞ − ∞`, and the platform's
//! one default NaN then meets only copies of itself; those lanes are
//! left alone even when a neighbour in the strip is replaced, so a
//! lane's bits never depend on the lanes beside it. So the tiers and
//! strip widths agree on every input bit for bit, NaN bits included,
//! given finite twiddles and scales.

/// Longest transform a codelet runs in one piece.
pub const CODELET_MAX: usize = 32;

/// Lanes per `[f64; STRIP]` strip of the scalar tier.
pub(super) const STRIP: usize = 4;

/// The same element of [`Lane::WIDTH`] adjacent lanes, with the
/// operations a Lee level performs on it. Every implementation rounds
/// each lane exactly as one scalar `f64` operation does (never a fused
/// multiply-add), which keeps all lane types bit-identical.
pub(super) trait Lane: Copy {
    /// Adjacent lanes one value holds.
    const WIDTH: usize;
    /// Lane type of the one narrower strip a sweep runs on the lanes
    /// left over after the whole `Self` strips, when it fits; single
    /// lanes take the rest. `[f64; 1]` when there is no such strip
    /// (see the module docs).
    type Tail: Lane;
    /// Every lane `0.0`.
    fn zero() -> Self;
    /// Lane `l` from `src[l]`; `src` holds exactly `WIDTH` values.
    fn load(src: &[f64]) -> Self;
    /// Lane `l` into `dst[l]`; `dst` holds exactly `WIDTH` values.
    fn store(self, dst: &mut [f64]);
    /// Lanewise `self + b`.
    fn add(self, b: Self) -> Self;
    /// Lanewise `self − b`.
    fn sub(self, b: Self) -> Self;
    /// Every lane times `s`.
    fn mul(self, s: f64) -> Self;
    /// Whether any lane is NaN.
    fn any_nan(self) -> bool;
    /// Every NaN lane whose lane of `row0` is NaN too replaced by
    /// `f64::NAN`; the other lanes unchanged.
    fn canonical_nan_where(self, row0: Self) -> Self;
}

impl<const L: usize> Lane for [f64; L] {
    const WIDTH: usize = L;
    type Tail = [f64; 1];

    #[inline(always)]
    fn zero() -> Self {
        [0.0; L]
    }

    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        let mut out = [0.0; L];
        out.copy_from_slice(src);
        out
    }

    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        dst.copy_from_slice(&self);
    }

    #[inline(always)]
    fn add(self, b: Self) -> Self {
        let mut out = self;
        for l in 0..L {
            out[l] = self[l] + b[l];
        }
        out
    }

    #[inline(always)]
    fn sub(self, b: Self) -> Self {
        let mut out = self;
        for l in 0..L {
            out[l] = self[l] - b[l];
        }
        out
    }

    #[inline(always)]
    fn mul(self, s: f64) -> Self {
        let mut out = self;
        for l in 0..L {
            out[l] = self[l] * s;
        }
        out
    }

    #[inline(always)]
    fn any_nan(self) -> bool {
        self.iter().fold(false, |any, e| any | e.is_nan())
    }

    #[inline(always)]
    fn canonical_nan_where(self, row0: Self) -> Self {
        let mut out = self;
        for l in 0..L {
            if row0[l].is_nan() {
                out[l] = super::scalar::canonical_nan(self[l]);
            }
        }
        out
    }
}

// The levels below index with literals only (the `[$i]` lists), so the
// whole codelet is straight-line code over fixed array slots, which the
// compiler keeps in registers, spilling to the stack where it must.
// Loops over the slots would leave the arrays in memory.

/// Forward DCT-II level for length `$n` (`$half = $n / 2`; `$i` runs
/// over `0..$half`, `$j` over `0..$half - 1`): the Lee butterfly
/// `alpha = x + y`, `beta = (x − y)·inv`, the two half-length
/// transforms, then the interleave `out[2i] = alpha[i]`,
/// `out[2i + 1] = beta[i] + beta[i + 1]`. `tw` holds this level's
/// `$half` reciprocal twiddles followed by the lower levels'.
macro_rules! forward_level {
    ($name:ident, $n:literal, $half:literal, $sub:ident, [$($i:literal)*], [$($j:literal)*]) => {
        #[inline(always)]
        fn $name<T: Lane>(x: &mut [T; $n], tw: &[f64]) {
            let (t, rest) = tw.split_at($half);
            let mut a = [T::zero(); $half];
            let mut b = [T::zero(); $half];
            $(
                a[$i] = x[$i].add(x[$n - 1 - $i]);
                b[$i] = x[$i].sub(x[$n - 1 - $i]).mul(t[$i]);
            )*
            $sub(&mut a, rest);
            $sub(&mut b, rest);
            $(
                x[2 * $j] = a[$j];
                x[2 * $j + 1] = b[$j].add(b[$j + 1]);
            )*
            x[$n - 2] = a[$half - 1];
            x[$n - 1] = b[$half - 1];
        }
    };
}

/// Inverse (DCT-III) level for length `$n` (`$i` runs over `0..$half`,
/// `$j` down from `$half - 2` to 0): undoes the interleave (`beta` by a
/// descending difference), inverts the half-length transforms, and
/// rebuilds the butterfly `0.5·(alpha ± tc·beta)`. `tw` holds this
/// level's `$half` doubled cosines followed by the lower levels'.
macro_rules! inverse_level {
    ($name:ident, $n:literal, $half:literal, $sub:ident, [$($i:literal)*], [$($j:literal)*]) => {
        #[inline(always)]
        fn $name<T: Lane>(x: &mut [T; $n], tw: &[f64]) {
            let (t, rest) = tw.split_at($half);
            let mut a = [T::zero(); $half];
            let mut b = [T::zero(); $half];
            $(
                a[$i] = x[2 * $i];
            )*
            b[$half - 1] = x[$n - 1];
            $(
                b[$j] = x[2 * $j + 1].sub(b[$j + 1]);
            )*
            $sub(&mut a, rest);
            $sub(&mut b, rest);
            $(
                let diff = b[$i].mul(t[$i]);
                x[$i] = a[$i].add(diff).mul(0.5);
                x[$n - 1 - $i] = a[$i].sub(diff).mul(0.5);
            )*
        }
    };
}

/// Length-1 transform: the identity.
#[inline(always)]
fn level1<T: Lane>(_: &mut [T; 1], _: &[f64]) {}

forward_level!(forward2, 2, 1, level1, [0], []);
forward_level!(forward4, 4, 2, forward2, [0 1], [0]);
forward_level!(forward8, 8, 4, forward4, [0 1 2 3], [0 1 2]);
forward_level!(forward16, 16, 8, forward8, [0 1 2 3 4 5 6 7], [0 1 2 3 4 5 6]);
forward_level!(
    forward32, 32, 16, forward16,
    [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15],
    [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14]
);
inverse_level!(inverse2, 2, 1, level1, [0], []);
inverse_level!(inverse4, 4, 2, inverse2, [0 1], [0]);
inverse_level!(inverse8, 8, 4, inverse4, [0 1 2 3], [2 1 0]);
inverse_level!(inverse16, 16, 8, inverse8, [0 1 2 3 4 5 6 7], [6 5 4 3 2 1 0]);
inverse_level!(
    inverse32, 32, 16, inverse16,
    [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15],
    [14 13 12 11 10 9 8 7 6 5 4 3 2 1 0]
);

/// Checks the codelet arguments and returns the transform length.
#[inline(always)]
fn codelet_len(len: usize, w: usize, twiddles: usize, kernel: &str) -> usize {
    assert!(w > 0, "{kernel}: zero lanes");
    let n = len / w;
    assert_eq!(n * w, len, "{kernel}: buffer is not n x w");
    assert!(
        n.is_power_of_two() && n <= CODELET_MAX,
        "{kernel}: length {n} is not a power of two <= {CODELET_MAX}"
    );
    assert_eq!(twiddles, n - 1, "{kernel}: wrong twiddle count");
    n
}

/// Splits the next `w`-long row off the front of `rest`.
#[inline(always)]
fn next_row<'a>(rest: &mut &'a [f64], w: usize) -> &'a [f64] {
    let (row, tail) = rest.split_at(w);
    *rest = tail;
    row
}

/// [`next_row`] for a mutable buffer.
#[inline(always)]
fn next_row_mut<'a>(rest: &mut &'a mut [f64], w: usize) -> &'a mut [f64] {
    let (row, tail) = std::mem::take(rest).split_at_mut(w);
    *rest = tail;
    row
}

/// Transforms the `$lane::WIDTH` lanes starting at column `$j` with the
/// length-`$n` `$level`, whose rows are `$r`. Forward: one load, every
/// level, one store scaled by `$s0` (row 0) and `$sk` (the other rows).
/// Inverse: one load scaled the same way, every level, one store. Before
/// the store, each lane whose row 0 is NaN gets canonical NaNs (see the
/// module docs).
///
/// Rows are listed, not looped over, and walked with [`next_row`], so the
/// strip is straight-line code whose only bounds check per row is the
/// split (the column range provably fits a `w`-long row). The level is
/// called in this body, not passed in as a closure: a closure may be
/// compiled apart from the `#[target_feature]` wrapper, where it never
/// sees the wrapper's vector extensions.
macro_rules! strip {
    (forward, $lane:ty, $level:ident, $n:literal, [$($r:literal)*], $v:ident, $w:ident, $j:ident, $tw:ident, $s0:ident, $sk:ident) => {{
        let cols = $j..$j + <$lane as Lane>::WIDTH;
        let mut x = [<$lane as Lane>::zero(); $n];
        let mut rest: &[f64] = $v;
        $(
            x[$r] = <$lane as Lane>::load(&next_row(&mut rest, $w)[cols.clone()]);
        )*
        $level(&mut x, $tw);
        if x[0].any_nan() {
            let row0 = x[0];
            $(
                x[$r] = x[$r].canonical_nan_where(row0);
            )*
        }
        let mut rest: &mut [f64] = $v;
        $(
            let s = if $r == 0 { $s0 } else { $sk };
            x[$r].mul(s).store(&mut next_row_mut(&mut rest, $w)[cols.clone()]);
        )*
    }};
    (inverse, $lane:ty, $level:ident, $n:literal, [$($r:literal)*], $v:ident, $w:ident, $j:ident, $tw:ident, $s0:ident, $sk:ident) => {{
        let cols = $j..$j + <$lane as Lane>::WIDTH;
        let mut x = [<$lane as Lane>::zero(); $n];
        let mut rest: &[f64] = $v;
        $(
            let s = if $r == 0 { $s0 } else { $sk };
            x[$r] = <$lane as Lane>::load(&next_row(&mut rest, $w)[cols.clone()]).mul(s);
        )*
        $level(&mut x, $tw);
        if x[0].any_nan() {
            let row0 = x[0];
            $(
                x[$r] = x[$r].canonical_nan_where(row0);
            )*
        }
        let mut rest: &mut [f64] = $v;
        $(
            x[$r].store(&mut next_row_mut(&mut rest, $w)[cols.clone()]);
        )*
    }};
}

/// Runs the length-`$n` `$level` (rows `$rows`) over every lane in
/// direction `$dir`: whole strips of `$strip` lanes, then one strip of
/// its [`Lane::Tail`] if that is wider than one lane and fits, then the
/// leftover lanes one by one.
macro_rules! sweep_strips {
    ($dir:ident, $strip:ty, $level:ident, $n:literal, $rows:tt, $v:ident, $w:ident, $tw:ident, $s0:ident, $sk:ident) => {{
        let mut j = 0;
        while j + <$strip as Lane>::WIDTH <= $w {
            strip!($dir, $strip, $level, $n, $rows, $v, $w, j, $tw, $s0, $sk);
            j += <$strip as Lane>::WIDTH;
        }
        let tail = <<$strip as Lane>::Tail as Lane>::WIDTH;
        if tail > 1 && j + tail <= $w {
            strip!(
                $dir,
                <$strip as Lane>::Tail,
                $level,
                $n,
                $rows,
                $v,
                $w,
                j,
                $tw,
                $s0,
                $sk
            );
            j += tail;
        }
        while j < $w {
            strip!($dir, [f64; 1], $level, $n, $rows, $v, $w, j, $tw, $s0, $sk);
            j += 1;
        }
    }};
}

/// Runs the length-`$n` codelet in direction `$dir` over strips of
/// `$strip`; `$levels` names the levels for n = 1, 2, 4, 8, 16 and 32.
macro_rules! sweep_len {
    ($dir:ident, $strip:ty, $n:expr, [$l1:ident $l2:ident $l4:ident $l8:ident $l16:ident $l32:ident], $v:ident, $w:ident, $tw:ident, $s0:ident, $sk:ident) => {
        match $n {
            1 => sweep_strips!($dir, $strip, $l1, 1, [0], $v, $w, $tw, $s0, $sk),
            2 => sweep_strips!($dir, $strip, $l2, 2, [0 1], $v, $w, $tw, $s0, $sk),
            4 => sweep_strips!($dir, $strip, $l4, 4, [0 1 2 3], $v, $w, $tw, $s0, $sk),
            8 => sweep_strips!($dir, $strip, $l8, 8, [0 1 2 3 4 5 6 7], $v, $w, $tw, $s0, $sk),
            16 => sweep_strips!(
                $dir, $strip, $l16, 16,
                [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15],
                $v, $w, $tw, $s0, $sk
            ),
            _ => sweep_strips!(
                $dir, $strip, $l32, 32,
                [0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31],
                $v, $w, $tw, $s0, $sk
            ),
        }
    };
}

/// Unscaled Lee DCT-II of every lane, then row 0 scaled by `s0` and the
/// other rows by `sk` on the store. `twiddles` are the `n − 1`
/// reciprocal twiddles `0.5 / cos((i + 0.5)·π / m)`, level by level
/// from `m = n` down to `m = 2`.
#[inline(always)]
pub fn forward(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    forward_with::<[f64; STRIP]>(v, w, twiddles, s0, sk);
}

/// [`forward`] over strips of lane type `S`.
#[inline(always)]
pub(super) fn forward_with<S: Lane>(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    let n = codelet_len(v.len(), w, twiddles.len(), "lee_forward_lanes");
    sweep_len!(
        forward, S, n,
        [level1 forward2 forward4 forward8 forward16 forward32],
        v, w, twiddles, s0, sk
    );
}

/// Row 0 scaled by `s0` and the other rows by `sk` on the load, then the
/// exact inverse of the unscaled [`forward`] recursion on every lane.
/// `twiddles` are the `n − 1` doubled cosines `2·cos((i + 0.5)·π / m)`,
/// level by level from `m = n` down to `m = 2`.
#[inline(always)]
pub fn inverse(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    inverse_with::<[f64; STRIP]>(v, w, twiddles, s0, sk);
}

/// [`inverse`] over strips of lane type `S`.
#[inline(always)]
pub(super) fn inverse_with<S: Lane>(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    let n = codelet_len(v.len(), w, twiddles.len(), "lee_inverse_lanes");
    sweep_len!(
        inverse, S, n,
        [level1 inverse2 inverse4 inverse8 inverse16 inverse32],
        v, w, twiddles, s0, sk
    );
}
