//! A warm FISTA stream whose adaptive momentum restart fires keeps the
//! bits recorded for each SIMD tier: every restart decision, iteration
//! count and decoded frame repeats exactly.
//!
//! The restart test sums `(yᵢ − x⁺ᵢ)·(x⁺ᵢ − xᵢ)` in another order than
//! the index-order loop it replaces, and takes that sum's sign only when
//! a rounding bound certifies it (see `flexcs_solver::fista`). A sign
//! taken wrongly would change the iterates, so these hashes would move.
//! The stop rule reads the tier's `dot` reductions, which re-associate
//! across tiers; the scalar and AVX2 tiers were each recorded and read
//! the same values.

use flexcs_core::{DecodeWarmState, Decoder, SamplingPlan, SparseErrorModel};
use flexcs_linalg::{simd, Matrix};

/// FNV-1a over the bit patterns of `values`.
fn bit_hash(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn smooth_frame(rows: usize, cols: usize, phase: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        0.5 + 0.3 * ((i as f64) * 0.4 + phase).sin() + 0.2 * ((j as f64) * 0.3 + phase).cos()
    })
}

#[test]
fn warm_resample_stream_keeps_recorded_bits_on_each_tier() {
    let (rows, cols) = (32, 32);
    let n = rows * cols;
    let decoder = Decoder::default();
    let mut state = DecodeWarmState::new();
    let mut decoded = Vec::new();
    let mut iterations = 0;
    // Three corrupted frames, four resampled subsets each, all on one
    // warm state: the fig6c_resample decode pattern.
    for k in 0..3u64 {
        let (measured, _) = SparseErrorModel::new(0.1)
            .unwrap()
            .corrupt(&smooth_frame(rows, cols, k as f64 * 0.7), 11 + k);
        let flat = measured.to_flat();
        for r in 0..4u64 {
            let plan = SamplingPlan::random_subset(n, n / 2, &[], 100 * k + r).unwrap();
            let y = plan.measure(&flat);
            let rec = decoder
                .reconstruct_warm(rows, cols, plan.selected(), &y, &mut state)
                .unwrap();
            iterations += rec.report.iterations;
            decoded.extend_from_slice(rec.frame.as_slice());
        }
    }
    assert!(state.restarts() > 0, "the stream must exercise the restart");
    let got = (bit_hash(&decoded), iterations, state.restarts());
    // Recorded when the restart sum was one index-order loop and the
    // prox step, norm and change were separate passes.
    assert_eq!(
        got,
        (0x59c7_678f_7f65_b3b8, 3189, 35),
        "(frame hash, iterations, restarts) on {}",
        simd::tier_name()
    );
}
