//! Property-based tests for the dataset generators.

use flexcs_datasets::{
    gaussian_blur, normalize_unit, tactile_frame, thermal_frame, ultrasound_frame, Dataset,
    TactileConfig, ThermalConfig, UltrasoundConfig, TACTILE_CLASS_COUNT,
};
use flexcs_linalg::Matrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn thermal_frames_stay_in_physical_range(seed in 0u64..5000) {
        let cfg = ThermalConfig::default();
        let f = thermal_frame(&cfg, seed);
        // 22 °C ambient and 34 °C skin, within 2 °C.
        prop_assert!(f.min() > 20.0);
        prop_assert!(f.max() < 36.0);
        prop_assert!(f.is_finite());
    }

    #[test]
    fn tactile_frames_nonnegative_and_bounded(seed in 0u64..5000, class in 0usize..26) {
        let f = tactile_frame(&TactileConfig::default(), class, seed);
        prop_assert!(f.min() >= 0.0);
        prop_assert!(f.max() < 1.5);
        prop_assert!(f.is_finite());
    }

    #[test]
    fn ultrasound_frames_bounded(seed in 0u64..5000) {
        let f = ultrasound_frame(&UltrasoundConfig::default(), seed);
        prop_assert!(f.norm_max() < 5.0);
        prop_assert!(f.is_finite());
    }

    #[test]
    fn generators_are_deterministic(seed in 0u64..1000) {
        prop_assert_eq!(
            thermal_frame(&ThermalConfig::default(), seed),
            thermal_frame(&ThermalConfig::default(), seed)
        );
        prop_assert_eq!(
            tactile_frame(&TactileConfig::default(), (seed % 26) as usize, seed),
            tactile_frame(&TactileConfig::default(), (seed % 26) as usize, seed)
        );
    }

    #[test]
    fn normalize_unit_output_in_unit_interval(
        values in proptest::collection::vec(-100.0..100.0f64, 24),
    ) {
        let m = Matrix::from_vec(4, 6, values).unwrap();
        let n = normalize_unit(&m);
        prop_assert!(n.min() >= 0.0);
        prop_assert!(n.max() <= 1.0);
        // Order preserved.
        for i in 0..4 {
            for j in 0..5 {
                let d_raw = m[(i, j)] - m[(i, j + 1)];
                let d_norm = n[(i, j)] - n[(i, j + 1)];
                prop_assert!(d_raw * d_norm >= -1e-12);
            }
        }
    }

    #[test]
    fn blur_preserves_mean(sigma in 0.2..3.0f64, seed in 0u64..100) {
        let f = thermal_frame(&ThermalConfig::default(), seed);
        let b = gaussian_blur(&f, sigma);
        // Replicate-border blur keeps the global mean within a whisker.
        prop_assert!((b.mean() - f.mean()).abs() < 0.05 * f.mean().abs().max(1.0));
        // And never exceeds the original extremes.
        prop_assert!(b.max() <= f.max() + 1e-9);
        prop_assert!(b.min() >= f.min() - 1e-9);
    }

    #[test]
    fn stratified_split_partitions(per_class in 2usize..6, seed in 0u64..500) {
        let cfg = TactileConfig { rows: 8, cols: 8, ..TactileConfig::default() };
        let mut frames = Vec::new();
        let mut labels = Vec::new();
        for class in 0..4usize {
            for k in 0..per_class {
                frames.push(tactile_frame(&cfg, class, seed + (class * 100 + k) as u64));
                labels.push(class);
            }
        }
        let ds = Dataset::new(frames, labels).unwrap();
        let (train, test) = ds.split(0.7, seed).unwrap();
        prop_assert_eq!(train.len() + test.len(), 4 * per_class);
        // Every class appears in both halves.
        for class in 0..4 {
            prop_assert!(train.labels().contains(&class));
            prop_assert!(test.labels().contains(&class));
        }
    }

    #[test]
    fn class_count_is_constant(_x in 0..1) {
        prop_assert_eq!(TACTILE_CLASS_COUNT, 26);
    }
}
