//! Deterministic weight initialization.

use flexcs_linalg::SplitMix64;

/// He (Kaiming) initialization: a draw from `N(0, √(2/fan_in))`.
pub(crate) fn he(rng: &mut SplitMix64, fan_in: usize) -> f64 {
    rng.gaussian() * (2.0 / fan_in as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_variance_scales_with_fan_in() {
        let mut rng = SplitMix64::new(3);
        let n = 20_000;
        let fan_in = 50;
        let var: f64 = (0..n).map(|_| he(&mut rng, fan_in).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 2.0 / fan_in as f64).abs() < 0.005, "var {var}");
    }
}
