//! Free functions on `&[f64]` vectors.
//!
//! Solver inner loops (ISTA/FISTA, OMP, the LP) operate on plain slices for
//! zero-overhead interop with [`crate::Matrix`] storage. These helpers keep
//! that code readable without committing to a heavier `Vector` newtype.
//!
//! The hot kernels (axpy, dot, the fused FISTA step, momentum) delegate
//! to the runtime-dispatched tier in [`crate::simd`]:
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

/// The FISTA vector tail in one pass: writes the proximal-gradient step
/// `x_next[i] = soft(y[i] − step·g[i], t)` (gradient descent at the
/// momentum point followed by shrinkage) and returns, against the
/// previous iterate `x`, `‖x⁺‖²`, `‖x⁺ − x‖²` and the adaptive-restart
/// sums `Σ pᵢ`, `Σ |pᵢ|` with `pᵢ = (yᵢ − x⁺ᵢ)·(x⁺ᵢ − xᵢ)`.
///
/// `x_next` is bit-identical on every tier to the open-coded
/// `y − step·g` followed by [`simd::scalar::shrink`] of each element.
/// `‖x⁺‖²` and `‖x⁺ − x‖²` are bit-identical to [`dot`] of `x_next`,
/// and of the materialized difference, with itself, so the solver's stopping
/// decisions keep their bits; across tiers they agree to ≤ 1e-12
/// relative. The restart sums are added in a table-chosen order (see
/// [`crate::simd::FistaSums`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn fista_step(
    x_next: &mut [f64],
    y: &[f64],
    g: &[f64],
    x: &[f64],
    step: f64,
    t: f64,
) -> simd::FistaSums {
    (simd::kernels().fista_step)(x_next, y, g, x, step, t)
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
    fn fista_step_matches_open_coded_passes() {
        for n in [0, 1, 3, 4, 7, 8, 16, 33, 100] {
            let y = ramp(n, 0.5);
            let g = ramp(n, 1.1);
            let x = ramp(n, 2.7);
            let (step, t) = (0.37, 0.25);
            let mut fused = vec![0.0; n];
            let sums = fista_step(&mut fused, &y, &g, &x, step, t);
            let reference: Vec<f64> = y
                .iter()
                .zip(&g)
                .map(|(yi, gi)| simd::scalar::shrink(yi - step * gi, t))
                .collect();
            for (a, b) in fused.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
            let d = sub(&reference, &x);
            assert_eq!(
                sums.norm_sq.to_bits(),
                dot(&reference, &reference).to_bits()
            );
            assert_eq!(sums.change_sq.to_bits(), dot(&d, &d).to_bits());
            let products: Vec<f64> = y
                .iter()
                .zip(&reference)
                .zip(&x)
                .map(|((yi, vi), xi)| (yi - vi) * (vi - xi))
                .collect();
            let exact: f64 = products.iter().sum();
            let abs: f64 = products.iter().map(|p| p.abs()).sum();
            assert!((sums.restart - exact).abs() <= 2.0 * n as f64 * f64::EPSILON * abs);
            assert!((sums.restart_abs - abs).abs() <= 2.0 * n as f64 * f64::EPSILON * abs);
        }
        // With step 0 the pass is the bare shrink `sign(v)·max(|v| − t, 0)`.
        let v = [3.0, -0.5, 0.5, -3.0, 1.0];
        let mut shrunk = [f64::NAN; 5];
        fista_step(&mut shrunk, &v, &[0.0; 5], &[0.0; 5], 0.0, 1.0);
        assert_eq!(shrunk, [2.0, 0.0, 0.0, -2.0, 0.0]);
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
