//! Free functions on `&[f64]` vectors.
//!
//! Solver inner loops (ISTA/FISTA, OMP, the LP) operate on plain slices for
//! zero-overhead interop with [`crate::Matrix`] storage. These helpers keep
//! that code readable without committing to a heavier `Vector` newtype.
//!
//! The hot kernels (axpy, dot, fused prox/momentum steps, shrinkage)
//! delegate to the runtime-dispatched tier in [`crate::simd`]:
//! elementwise results are bit-identical across tiers, reductions agree
//! to ≤ 1e-12 relative (see the tolerance policy there).

use crate::simd;

/// Dot product of two equal-length slices.
///
/// Dispatched reduction (see [`crate::simd`]): vector tiers re-associate
/// and agree with the scalar reference to ≤ 1e-12 relative.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    (simd::kernels().dot)(a, b)
}

/// Euclidean norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// L1 norm (sum of absolute values).
pub fn norm1(a: &[f64]) -> f64 {
    a.iter().map(|v| v.abs()).sum()
}

/// Infinity norm (largest absolute value).
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// `y += alpha * x` in place.
///
/// Dispatched elementwise kernel (see [`crate::simd`]); results are
/// bit-identical to the scalar reference loop on every tier.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    (simd::kernels().axpy)(alpha, x, y)
}

/// Scales a slice in place (dispatched elementwise kernel,
/// bit-identical across tiers).
pub fn scale(a: &mut [f64], s: f64) {
    (simd::kernels().scale)(a, s)
}

/// Elementwise sum, returning a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Elementwise difference `a - b`, returning a new vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Elementwise difference `a - b` written into `out` (resized to fit) —
/// the allocation-free counterpart of [`sub`] for solver inner loops.
///
/// # Panics
///
/// Panics if the input slices have different lengths.
pub fn sub_into(out: &mut Vec<f64>, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "sub_into: length mismatch");
    // In the solver hot loops `out` is already the right length, so this
    // resize is a no-op and the dispatched kernel writes in one pass.
    out.resize(a.len(), 0.0);
    (simd::kernels().sub)(out, a, b);
}

/// `‖a − b‖₂` without materializing the difference vector.
///
/// Dispatched reduction: every tier accumulates `(a_i − b_i)²` with the
/// exact same structure as its [`dot`] kernel, so the result stays
/// bit-identical to `norm2(&sub(a, b))` — solvers rely on that for
/// reproducible stopping decisions. Across tiers the value agrees to
/// ≤ 1e-12 relative (see [`crate::simd`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn diff_norm2(a: &[f64], b: &[f64]) -> f64 {
    (simd::kernels().diff_norm2_sq)(a, b).sqrt()
}

/// Fused proximal-gradient step: `out[i] = soft(y[i] − step·g[i], t)`,
/// the ISTA/FISTA inner-loop kernel (gradient descent at the momentum
/// point followed by shrinkage) in one pass with no temporaries.
///
/// Per-element arithmetic matches the open-coded
/// `y − step·g` + [`soft_threshold_mut`] sequence exactly, so results
/// are bit-identical on every tier (dispatched elementwise kernel, see
/// [`crate::simd`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn prox_grad_step_into(out: &mut [f64], y: &[f64], g: &[f64], step: f64, t: f64) {
    (simd::kernels().prox_grad_step)(out, y, g, step, t)
}

/// FISTA momentum extrapolation:
/// `y[i] = xn[i] + beta·(xn[i] − xo[i])` with no temporaries
/// (dispatched elementwise kernel, bit-identical across tiers).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn momentum_into(y: &mut [f64], xn: &[f64], xo: &[f64], beta: f64) {
    (simd::kernels().momentum)(y, xn, xo, beta)
}

/// Soft-thresholding (shrinkage) operator applied entrywise:
/// `sign(v) * max(|v| - t, 0)`.
///
/// This is the proximal operator of `t * ||.||_1` and the core of
/// the ISTA/FISTA L1 solvers.
pub fn soft_threshold(a: &[f64], t: f64) -> Vec<f64> {
    let mut out = a.to_vec();
    soft_threshold_mut(&mut out, t);
    out
}

/// In-place soft thresholding; see [`soft_threshold`].
///
/// Dispatched elementwise kernel: every result bit matches the scalar
/// reference loop on every tier (vector tiers mirror the branch
/// priority with a blend sequence).
pub fn soft_threshold_mut(a: &mut [f64], t: f64) {
    (simd::kernels().soft_threshold)(a, t)
}

/// Indices of the `k` largest-magnitude entries (unsorted order).
///
/// If `k >= a.len()`, returns all indices.
pub fn top_k_indices(a: &[f64], k: usize) -> Vec<usize> {
    let mut idx = Vec::new();
    top_k_indices_into(a, k, &mut idx);
    idx
}

/// [`top_k_indices`] into a caller-provided buffer (cleared first), so
/// repeated selections reuse the index storage. Results are identical.
pub fn top_k_indices_into(a: &[f64], k: usize, idx: &mut Vec<usize>) {
    idx.clear();
    idx.extend(0..a.len());
    if k >= a.len() {
        return;
    }
    idx.select_nth_unstable_by(k, |&i, &j| {
        a[j].abs()
            .partial_cmp(&a[i].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k);
}

/// Number of entries with magnitude strictly above `tol`.
pub fn count_above(a: &[f64], tol: f64) -> usize {
    a.iter().filter(|v| v.abs() > tol).count()
}

/// Median of a slice (average of middle two for even lengths).
///
/// Returns `f64::NAN` for an empty slice.
pub fn median(a: &[f64]) -> f64 {
    if a.is_empty() {
        return f64::NAN;
    }
    let mut v = a.to_vec();
    v.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Sample standard deviation (0.0 for fewer than two entries).
pub fn std_dev(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    let var = a.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (a.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, -4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
        assert_eq!(norm1(&a), 7.0);
        assert_eq!(norm_inf(&a), 4.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = [1.0, 2.0];
        let b = [3.0, 5.0];
        assert_eq!(add(&a, &b), vec![4.0, 7.0]);
        assert_eq!(sub(&b, &a), vec![2.0, 3.0]);
        let mut c = [1.0, -2.0];
        scale(&mut c, -3.0);
        assert_eq!(c, [-3.0, 6.0]);
    }

    #[test]
    fn soft_threshold_shrinks_toward_zero() {
        let v = [3.0, -0.5, 0.5, -3.0, 1.0];
        let s = soft_threshold(&v, 1.0);
        assert_eq!(s, vec![2.0, 0.0, 0.0, -2.0, 0.0]);
        let mut w = v;
        soft_threshold_mut(&mut w, 1.0);
        assert_eq!(w.to_vec(), s);
    }

    #[test]
    fn top_k_selects_largest_magnitudes() {
        let v = [0.1, -5.0, 3.0, 0.0, 4.0];
        let mut idx = top_k_indices(&v, 2);
        idx.sort_unstable();
        assert_eq!(idx, vec![1, 4]);
        assert_eq!(top_k_indices(&v, 10).len(), 5);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn statistics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(
            (std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.138089935299395).abs() < 1e-12
        );
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn count_above_threshold() {
        assert_eq!(count_above(&[0.1, -0.5, 2.0], 0.4), 2);
    }

    /// Deterministic pseudo-random fill exercising both the unrolled
    /// chunks and the remainder lanes (lengths not divisible by 4).
    fn ramp(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64) * 0.7 + phase).sin() * 3.0)
            .collect()
    }

    #[test]
    fn sub_into_matches_sub() {
        for n in [0, 1, 3, 4, 7, 16, 33] {
            let a = ramp(n, 0.1);
            let b = ramp(n, 1.9);
            let mut out = vec![f64::NAN; 2]; // stale content must be discarded
            sub_into(&mut out, &a, &b);
            assert_eq!(out, sub(&a, &b), "n = {n}");
        }
    }

    #[test]
    fn diff_norm2_bit_identical_to_sub_then_norm2() {
        for n in [0, 1, 3, 4, 7, 16, 33, 100] {
            let a = ramp(n, 0.3);
            let b = ramp(n, 2.7);
            let fused = diff_norm2(&a, &b);
            let reference = norm2(&sub(&a, &b));
            assert_eq!(fused.to_bits(), reference.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn prox_grad_step_bit_identical_to_open_coded() {
        for n in [0, 1, 3, 4, 7, 16, 33] {
            let y = ramp(n, 0.5);
            let g = ramp(n, 1.1);
            let (step, t) = (0.37, 0.25);
            let mut fused = vec![0.0; n];
            prox_grad_step_into(&mut fused, &y, &g, step, t);
            let mut reference: Vec<f64> = y.iter().zip(&g).map(|(yi, gi)| yi - step * gi).collect();
            soft_threshold_mut(&mut reference, t);
            for (a, b) in fused.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn momentum_into_matches_open_coded() {
        for n in [0, 1, 3, 4, 7, 16, 33] {
            let xn = ramp(n, 0.2);
            let xo = ramp(n, 1.4);
            let beta = 0.61;
            let mut y = vec![0.0; n];
            momentum_into(&mut y, &xn, &xo, beta);
            let reference: Vec<f64> = xn
                .iter()
                .zip(&xo)
                .map(|(a, b)| a + beta * (a - b))
                .collect();
            for (a, b) in y.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn axpy_unrolled_handles_remainders() {
        for n in [0, 1, 3, 4, 5, 8, 11] {
            let x = ramp(n, 0.9);
            let mut y = ramp(n, 2.2);
            let reference: Vec<f64> = y.iter().zip(&x).map(|(yi, xi)| yi + 1.75 * xi).collect();
            axpy(1.75, &x, &mut y);
            assert_eq!(y, reference, "n = {n}");
        }
    }
}
