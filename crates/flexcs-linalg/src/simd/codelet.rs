//! Register-blocked Lee DCT lane codelets: the body behind
//! [`super::Kernels::lee_forward_lanes`] and
//! [`super::Kernels::lee_inverse_lanes`].
//!
//! The buffer is a row-major `n x w` frame holding `w` independent
//! length-`n` lanes (one per column), `n` a power of two `≤`
//! [`CODELET_MAX`]. A strip of [`STRIP`] adjacent lanes is loaded once,
//! runs every Lee recursion level in registers, spilling to the stack
//! where it must (fixed-size levels for n = 2, 4, 8, 16, 32), and is
//! stored once; lanes left over at the right edge run the same body one
//! at a time. Each lane performs exactly the arithmetic of the
//! single-lane recursion in `flexcs-transform` (same operations, same
//! order, no fused multiply-add), so results are bit-identical to it
//! and across tiers.
//!
//! This file is plain safe Rust. The scalar tier calls it as is; the
//! vector tiers call it from inside `#[target_feature]` wrappers, so the
//! compiler maps each `[f64; STRIP]` operation onto vector registers.

/// Longest transform a codelet runs in one piece.
pub const CODELET_MAX: usize = 32;

/// Lanes per register block (one AVX2 register, two NEON registers).
const STRIP: usize = 4;

/// One register block: the same element of `L` adjacent lanes.
type Lanes<const L: usize> = [f64; L];

#[inline(always)]
fn add<const L: usize>(a: Lanes<L>, b: Lanes<L>) -> Lanes<L> {
    let mut out = a;
    for l in 0..L {
        out[l] = a[l] + b[l];
    }
    out
}

#[inline(always)]
fn sub<const L: usize>(a: Lanes<L>, b: Lanes<L>) -> Lanes<L> {
    let mut out = a;
    for l in 0..L {
        out[l] = a[l] - b[l];
    }
    out
}

#[inline(always)]
fn mul<const L: usize>(a: Lanes<L>, s: f64) -> Lanes<L> {
    let mut out = a;
    for l in 0..L {
        out[l] = a[l] * s;
    }
    out
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
        fn $name<const L: usize>(x: &mut [Lanes<L>; $n], tw: &[f64]) {
            let (t, rest) = tw.split_at($half);
            let mut a = [[0.0; L]; $half];
            let mut b = [[0.0; L]; $half];
            $(
                a[$i] = add(x[$i], x[$n - 1 - $i]);
                b[$i] = mul(sub(x[$i], x[$n - 1 - $i]), t[$i]);
            )*
            $sub(&mut a, rest);
            $sub(&mut b, rest);
            $(
                x[2 * $j] = a[$j];
                x[2 * $j + 1] = add(b[$j], b[$j + 1]);
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
        fn $name<const L: usize>(x: &mut [Lanes<L>; $n], tw: &[f64]) {
            let (t, rest) = tw.split_at($half);
            let mut a = [[0.0; L]; $half];
            let mut b = [[0.0; L]; $half];
            $(
                a[$i] = x[2 * $i];
            )*
            b[$half - 1] = x[$n - 1];
            $(
                b[$j] = sub(x[2 * $j + 1], b[$j + 1]);
            )*
            $sub(&mut a, rest);
            $sub(&mut b, rest);
            $(
                let diff = mul(b[$i], t[$i]);
                x[$i] = mul(add(a[$i], diff), 0.5);
                x[$n - 1 - $i] = mul(sub(a[$i], diff), 0.5);
            )*
        }
    };
}

/// Length-1 transform: the identity.
#[inline(always)]
fn level1<const L: usize>(_: &mut [Lanes<L>; 1], _: &[f64]) {}

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

/// Transforms the `$l` lanes starting at column `$j` with the
/// length-`$n` `$level`. Forward: one load, every level, one store
/// scaled by `$s0` (row 0) and `$sk` (the other rows). Inverse: one load
/// scaled the same way, every level, one store. The level is called in
/// this body, not passed in as a closure: a closure call goes through a
/// `Fn::call` shim compiled apart from the `#[target_feature]` wrapper,
/// so it never sees the wrapper's vector extensions.
macro_rules! strip {
    (forward, $level:ident, $n:literal, $l:expr, $v:ident, $w:ident, $j:ident, $tw:ident, $s0:ident, $sk:ident) => {{
        let mut x = [[0.0; $l]; $n];
        for (r, xr) in x.iter_mut().enumerate() {
            xr.copy_from_slice(&$v[r * $w + $j..r * $w + $j + $l]);
        }
        $level(&mut x, $tw);
        for (r, xr) in x.iter().enumerate() {
            let s = if r == 0 { $s0 } else { $sk };
            for (d, &e) in $v[r * $w + $j..r * $w + $j + $l].iter_mut().zip(xr) {
                *d = e * s;
            }
        }
    }};
    (inverse, $level:ident, $n:literal, $l:expr, $v:ident, $w:ident, $j:ident, $tw:ident, $s0:ident, $sk:ident) => {{
        let mut x = [[0.0; $l]; $n];
        for (r, xr) in x.iter_mut().enumerate() {
            let s = if r == 0 { $s0 } else { $sk };
            for (e, &src) in xr.iter_mut().zip(&$v[r * $w + $j..r * $w + $j + $l]) {
                *e = src * s;
            }
        }
        $level(&mut x, $tw);
        for (r, xr) in x.iter().enumerate() {
            $v[r * $w + $j..r * $w + $j + $l].copy_from_slice(xr);
        }
    }};
}

/// Runs the length-`$n` `$level` over every lane in direction `$dir`:
/// whole strips of [`STRIP`] lanes, then the leftover lanes one by one.
macro_rules! sweep_strips {
    ($dir:ident, $level:ident, $n:literal, $v:ident, $w:ident, $tw:ident, $s0:ident, $sk:ident) => {{
        let mut j = 0;
        while j + STRIP <= $w {
            strip!($dir, $level, $n, STRIP, $v, $w, j, $tw, $s0, $sk);
            j += STRIP;
        }
        while j < $w {
            strip!($dir, $level, $n, 1, $v, $w, j, $tw, $s0, $sk);
            j += 1;
        }
    }};
}

/// Unscaled Lee DCT-II of every lane, then row 0 scaled by `s0` and the
/// other rows by `sk` on the store. `twiddles` are the `n − 1`
/// reciprocal twiddles `0.5 / cos((i + 0.5)·π / m)`, level by level
/// from `m = n` down to `m = 2`.
#[inline(always)]
pub fn forward(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    match codelet_len(v.len(), w, twiddles.len(), "lee_forward_lanes") {
        1 => sweep_strips!(forward, level1, 1, v, w, twiddles, s0, sk),
        2 => sweep_strips!(forward, forward2, 2, v, w, twiddles, s0, sk),
        4 => sweep_strips!(forward, forward4, 4, v, w, twiddles, s0, sk),
        8 => sweep_strips!(forward, forward8, 8, v, w, twiddles, s0, sk),
        16 => sweep_strips!(forward, forward16, 16, v, w, twiddles, s0, sk),
        _ => sweep_strips!(forward, forward32, 32, v, w, twiddles, s0, sk),
    }
}

/// Row 0 scaled by `s0` and the other rows by `sk` on the load, then the
/// exact inverse of the unscaled [`forward`] recursion on every lane.
/// `twiddles` are the `n − 1` doubled cosines `2·cos((i + 0.5)·π / m)`,
/// level by level from `m = n` down to `m = 2`.
#[inline(always)]
pub fn inverse(v: &mut [f64], w: usize, twiddles: &[f64], s0: f64, sk: f64) {
    match codelet_len(v.len(), w, twiddles.len(), "lee_inverse_lanes") {
        1 => sweep_strips!(inverse, level1, 1, v, w, twiddles, s0, sk),
        2 => sweep_strips!(inverse, inverse2, 2, v, w, twiddles, s0, sk),
        4 => sweep_strips!(inverse, inverse4, 4, v, w, twiddles, s0, sk),
        8 => sweep_strips!(inverse, inverse8, 8, v, w, twiddles, s0, sk),
        16 => sweep_strips!(inverse, inverse16, 16, v, w, twiddles, s0, sk),
        _ => sweep_strips!(inverse, inverse32, 32, v, w, twiddles, s0, sk),
    }
}
