//! Sparse-error injection (paper Sec. 4, Fig. 7).
//!
//! "We … randomly choose a certain percentage of pixels to inject
//! noises. We set those selected pixels to 0/1 to emulate the extreme
//! values as observed in real measurements." Errors cover both
//! fabrication defects (static) and transient upsets — the sparse-error
//! model is the same.

use crate::error::{CoreError, Result};
use flexcs_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probability a corrupted pixel sticks at 1 (the rest stick at 0).
const HIGH_PROBABILITY: f64 = 0.5;

/// The sparse-error model: a fraction of pixels stuck at 0 or 1, half
/// low and half high in expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseErrorModel {
    /// Fraction of pixels corrupted, in `[0, 1]`.
    pub fraction: f64,
}

impl SparseErrorModel {
    /// Creates the paper's symmetric model (half stuck low, half high).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a fraction outside
    /// `[0, 1]`.
    pub fn new(fraction: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(CoreError::InvalidConfig(format!(
                "error fraction must lie in [0, 1], got {fraction}"
            )));
        }
        Ok(SparseErrorModel { fraction })
    }

    /// Applies the model to a normalized frame, returning the corrupted
    /// frame and the sorted indices of corrupted pixels.
    pub fn corrupt(&self, frame: &Matrix, seed: u64) -> (Matrix, Vec<usize>) {
        let n = frame.rows() * frame.cols();
        let count = ((n as f64) * self.fraction).round() as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe44);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..count.min(n) {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        let mut corrupted_indices = idx[..count.min(n)].to_vec();
        corrupted_indices.sort_unstable();
        let mut out = frame.clone();
        let cols = frame.cols();
        for &i in &corrupted_indices {
            let value = if rng.gen_bool(HIGH_PROBABILITY) {
                1.0
            } else {
                0.0
            };
            out[(i / cols, i % cols)] = value;
        }
        (out, corrupted_indices)
    }
}

/// Detects candidate stuck pixels by thresholding extremes: values at or
/// beyond `margin` of the rails 0/1 are flagged. This is the simple
/// "testing to identify those defects" step of Sec. 4.2 (real defects
/// "show extreme results either very high or almost zero currents").
pub fn detect_extremes(frame: &Matrix, margin: f64) -> Vec<usize> {
    let cols = frame.cols();
    let mut out = Vec::new();
    for i in 0..frame.rows() {
        for j in 0..cols {
            let v = frame[(i, j)];
            if v <= margin || v >= 1.0 - margin {
                out.push(i * cols + j);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid_frame() -> Matrix {
        Matrix::filled(10, 10, 0.5)
    }

    #[test]
    fn corrupts_requested_fraction() {
        let model = SparseErrorModel::new(0.1).unwrap();
        let (corrupted, idx) = model.corrupt(&mid_frame(), 1);
        assert_eq!(idx.len(), 10);
        for &i in &idx {
            let v = corrupted[(i / 10, i % 10)];
            assert!(v == 0.0 || v == 1.0, "stuck value {v}");
        }
        // Non-corrupted pixels untouched.
        let untouched = (0..100).filter(|i| !idx.contains(i)).count();
        assert_eq!(untouched, 90);
    }

    #[test]
    fn zero_fraction_is_identity() {
        let model = SparseErrorModel::new(0.0).unwrap();
        let (corrupted, idx) = model.corrupt(&mid_frame(), 3);
        assert!(idx.is_empty());
        assert_eq!(corrupted, mid_frame());
    }

    #[test]
    fn both_polarities_occur() {
        let model = SparseErrorModel::new(0.5).unwrap();
        let (corrupted, idx) = model.corrupt(&mid_frame(), 5);
        let highs = idx
            .iter()
            .filter(|&&i| corrupted[(i / 10, i % 10)] == 1.0)
            .count();
        assert!(highs > 5 && highs < idx.len() - 5, "highs = {highs}");
    }

    #[test]
    fn deterministic_per_seed() {
        let model = SparseErrorModel::new(0.2).unwrap();
        assert_eq!(
            model.corrupt(&mid_frame(), 9),
            model.corrupt(&mid_frame(), 9)
        );
        assert_ne!(
            model.corrupt(&mid_frame(), 9).1,
            model.corrupt(&mid_frame(), 10).1
        );
    }

    #[test]
    fn invalid_fraction_rejected() {
        assert!(SparseErrorModel::new(-0.1).is_err());
        assert!(SparseErrorModel::new(1.5).is_err());
    }

    #[test]
    fn detect_extremes_finds_stuck_pixels() {
        let model = SparseErrorModel::new(0.15).unwrap();
        let (corrupted, idx) = model.corrupt(&mid_frame(), 11);
        let detected = detect_extremes(&corrupted, 0.02);
        assert_eq!(detected, idx, "mid-gray frame: exactly the stuck pixels");
    }

    #[test]
    fn detect_extremes_margin_behavior() {
        let mut f = Matrix::filled(2, 2, 0.5);
        f[(0, 0)] = 0.01;
        f[(1, 1)] = 0.995;
        let d = detect_extremes(&f, 0.02);
        assert_eq!(d, vec![0, 3]);
        assert!(detect_extremes(&f, 0.0).is_empty());
    }
}
