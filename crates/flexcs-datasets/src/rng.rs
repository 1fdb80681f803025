//! Seeded random-number helpers shared by the dataset generators.
//!
//! Every generator in this crate takes an explicit `u64` seed so that
//! experiments are exactly reproducible run-to-run (the reproduction
//! brief's RNG discipline).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG wrapper with the handful of draw shapes the generators
/// need.
#[derive(Debug, Clone)]
pub struct DatasetRng {
    inner: StdRng,
}

impl DatasetRng {
    /// Creates a deterministic RNG from a seed.
    pub fn new(seed: u64) -> Self {
        DatasetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if lo == hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Standard-normal draw (Box–Muller).
    pub fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.inner.gen_range(1e-12..1.0);
        let u2: f64 = self.inner.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.gaussian()
    }

    /// Uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        self.inner.gen_range(0..n)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DatasetRng::new(42);
        let mut b = DatasetRng::new(42);
        for _ in 0..10 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DatasetRng::new(1);
        let mut b = DatasetRng::new(2);
        let va: Vec<f64> = (0..8).map(|_| a.uniform(0.0, 1.0)).collect();
        let vb: Vec<f64> = (0..8).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gaussian_moments_roughly_standard() {
        let mut rng = DatasetRng::new(7);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = DatasetRng::new(11);
        for _ in 0..100 {
            let v = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DatasetRng::new(13);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
