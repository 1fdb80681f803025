//! Reconstruction-quality metrics.

use flexcs_linalg::Matrix;

/// Root-mean-square error between two equal-shape frames — the paper's
/// temperature-imaging metric (Fig. 6a/6c).
///
/// # Panics
///
/// Panics on a shape mismatch.
pub fn rmse(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape(), "rmse: shape mismatch");
    let n = (a.rows() * a.cols()) as f64;
    if n == 0.0 {
        return 0.0; // an empty frame has no error, not 0/0
    }
    let sse: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
    (sse / n).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_of_identical_is_zero() {
        let a = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        assert_eq!(rmse(&a, &a), 0.0);
    }

    #[test]
    fn rmse_known_value() {
        let a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 0.5);
        assert!((rmse(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rmse: shape mismatch")]
    fn shape_mismatch_panics() {
        rmse(&Matrix::zeros(2, 2), &Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn transposed_shapes_are_still_mismatched() {
        // Same element count is not enough — shapes must match exactly.
        rmse(&Matrix::zeros(2, 3), &Matrix::zeros(3, 2));
    }

    #[test]
    fn zero_size_frames() {
        // 0×0 frames: the error sum is empty and n = 0; the metric must
        // settle on a defined value instead of NaN from 0/0.
        let e = Matrix::zeros(0, 0);
        assert_eq!(rmse(&e, &e), 0.0);
    }
}
