//! Sampling-matrix construction (the paper's `Φ_M`).
//!
//! The paper's encoder uses `M` randomly chosen rows of the identity —
//! implementable in flexible hardware as an active-matrix scan (Fig. 4).
//! Dense Gaussian/Bernoulli ensembles, which classic CS theory prefers,
//! cannot be realized with a simple scan; that is the paper's design
//! trade-off, and no encoder here produces them.

use crate::error::{CoreError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sampling plan: which pixels of an `n`-pixel frame are measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingPlan {
    n: usize,
    /// Sampled pixel indices, ascending.
    selected: Vec<usize>,
}

impl SamplingPlan {
    /// Draws a random identity-subset plan measuring `m` of the `n`
    /// pixels, never touching `excluded` indices (the tested-defective
    /// set).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientSamples`] when fewer than `m`
    /// usable pixels remain, or [`CoreError::InvalidConfig`] for
    /// `m == 0` or out-of-range exclusions.
    pub fn random_subset(n: usize, m: usize, excluded: &[usize], seed: u64) -> Result<Self> {
        if m == 0 || n == 0 {
            return Err(CoreError::InvalidConfig(format!(
                "need positive dimensions, got m = {m}, n = {n}"
            )));
        }
        if excluded.iter().any(|&i| i >= n) {
            return Err(CoreError::InvalidConfig(
                "excluded index out of range".to_string(),
            ));
        }
        let mut usable: Vec<usize> = {
            let mut excluded_mask = vec![false; n];
            for &i in excluded {
                excluded_mask[i] = true;
            }
            (0..n).filter(|&i| !excluded_mask[i]).collect()
        };
        if usable.len() < m {
            return Err(CoreError::InsufficientSamples {
                requested: m,
                available: usable.len(),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        // Partial Fisher–Yates.
        for i in 0..m {
            let j = rng.gen_range(i..usable.len());
            usable.swap(i, j);
        }
        let mut selected = usable[..m].to_vec();
        selected.sort_unstable();
        Ok(SamplingPlan { n, selected })
    }

    /// Measurement count `m`.
    pub fn measurement_count(&self) -> usize {
        self.selected.len()
    }

    /// Sampled pixel indices, ascending.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Applies `Φ` to a full signal, producing the measurement vector.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` is not the plan's pixel count `n`.
    pub fn measure(&self, signal: &[f64]) -> Vec<f64> {
        assert_eq!(signal.len(), self.n, "measure: wrong signal length");
        self.selected.iter().map(|&i| signal[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_subset_respects_count_and_exclusions() {
        let plan = SamplingPlan::random_subset(100, 40, &[0, 1, 2, 3], 7).unwrap();
        assert_eq!(plan.measurement_count(), 40);
        assert!(plan.selected().iter().all(|&i| (4..100).contains(&i)));
        // Ascending and distinct.
        assert!(plan.selected().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn random_subset_is_seeded() {
        let a = SamplingPlan::random_subset(50, 20, &[], 1).unwrap();
        let b = SamplingPlan::random_subset(50, 20, &[], 1).unwrap();
        let c = SamplingPlan::random_subset(50, 20, &[], 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn insufficient_pixels_rejected() {
        let excluded: Vec<usize> = (0..95).collect();
        let e = SamplingPlan::random_subset(100, 10, &excluded, 3);
        assert!(matches!(
            e,
            Err(CoreError::InsufficientSamples {
                requested: 10,
                available: 5
            })
        ));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SamplingPlan::random_subset(10, 0, &[], 1).is_err());
        assert!(SamplingPlan::random_subset(10, 5, &[10], 1).is_err());
    }

    #[test]
    fn measure_identity_subset_gathers() {
        let plan = SamplingPlan::random_subset(5, 2, &[0, 2, 4], 1).unwrap();
        assert_eq!(plan.selected(), &[1, 3]);
        let y = plan.measure(&[10.0, 11.0, 12.0, 13.0, 14.0]);
        assert_eq!(y, vec![11.0, 13.0]);
    }
}
