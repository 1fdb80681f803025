//! Every decode path keeps the bits recorded for each SIMD tier: the
//! cold decode on a fast (32×32) and a dense non-power-of-two (24×24)
//! DCT kernel, an adaptive full decode followed by a delta-tier decode,
//! and a 2×2-block tiled decode with its RPCA defect map.
//!
//! Each case hashes its decoded frames (FNV-1a over the bit patterns)
//! and totals its solver iterations. The stop rules read the tier's
//! `dot` reductions, which re-associate across tiers, so each tier has
//! its own record; a tier without one is logged and skipped.

use flexcs_core::{
    AdaptiveConfig, AdaptivePipeline, BlockGrid, BlockGridConfig, BlockPipeline,
    BlockPipelineConfig, DecodeTier, DecodeWarmState, Decoder, SamplingPlan, SparseErrorModel,
};
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

/// Checks `got` against the record for the running tier, or logs and
/// skips a tier that has none.
fn assert_recorded<T: PartialEq + std::fmt::Debug>(case: &str, got: T, records: &[(&str, T)]) {
    let tier = simd::tier_name();
    match records.iter().find(|(name, _)| *name == tier) {
        Some((_, want)) => assert_eq!(&got, want, "{case} on {tier}"),
        None => eprintln!("{case}: no record for tier {tier}, got {got:?}; skipped"),
    }
}

/// A cold decode of a corrupted smooth frame sampled at half density.
fn cold_decode(rows: usize, cols: usize) -> (u64, usize) {
    let n = rows * cols;
    let (measured, _) = SparseErrorModel::new(0.1)
        .unwrap()
        .corrupt(&smooth_frame(rows, cols, 0.3), 5);
    let plan = SamplingPlan::random_subset(n, n / 2, &[], 17).unwrap();
    let y = plan.measure(&measured.to_flat());
    let rec = Decoder::default()
        .reconstruct(rows, cols, plan.selected(), &y)
        .unwrap();
    (bit_hash(rec.frame.as_slice()), rec.report.iterations)
}

#[test]
fn cold_decode_keeps_recorded_bits_on_the_fast_kernel() {
    assert_recorded(
        "32x32 cold decode",
        cold_decode(32, 32),
        &[
            ("scalar", (0xb18b_a662_a476_ff79, 400)),
            ("x86_64-avx2+fma", (0x3ec2_bf13_a817_b987, 400)),
        ],
    );
}

#[test]
fn cold_decode_keeps_recorded_bits_on_the_dense_kernel() {
    assert_recorded(
        "24x24 cold decode",
        cold_decode(24, 24),
        &[
            ("scalar", (0x98a6_b7a1_16dc_dbf6, 400)),
            ("x86_64-avx2+fma", (0x98a6_b7a1_16dc_dbf6, 400)),
        ],
    );
}

#[test]
fn adaptive_full_then_delta_decode_keeps_recorded_bits() {
    let (rows, cols) = (32, 32);
    let n = rows * cols;
    let plan = SamplingPlan::random_subset(n, n / 2, &[], 23).unwrap();
    let decoder = Decoder::default();
    let mut pipeline = AdaptivePipeline::new(AdaptiveConfig::default());
    let mut warm = DecodeWarmState::new();
    let first = smooth_frame(rows, cols, 0.0);
    // A small drift on top of the first scene: the change detector's
    // relative residual lands between the static and delta thresholds.
    let second = Matrix::from_fn(rows, cols, |i, j| {
        first[(i, j)] + 0.08 * ((i + 2 * j) as f64 * 0.5).sin()
    });
    let mut tiers = Vec::new();
    let mut decoded = Vec::new();
    let mut iterations = 0;
    for frame in [&first, &second] {
        let y = plan.measure(&frame.to_flat());
        let (rec, tier) = pipeline
            .decode(&decoder, rows, cols, plan.selected(), &y, &mut warm)
            .unwrap();
        tiers.push(tier);
        iterations += rec.report.iterations;
        decoded.extend_from_slice(rec.frame.as_slice());
    }
    assert_eq!(tiers[1], DecodeTier::Delta, "tiers {tiers:?}");
    assert_recorded(
        "adaptive full + delta decode",
        (tiers[0], bit_hash(&decoded), iterations),
        &[
            ("scalar", (DecodeTier::EventFull, 0xc15f_457e_693c_bdb7, 97)),
            (
                "x86_64-avx2+fma",
                (DecodeTier::EventFull, 0xc15f_457e_693c_bdb7, 97),
            ),
        ],
    );
}

#[test]
fn block_decode_with_defect_map_keeps_recorded_bits() {
    let grid = BlockGrid::new(
        32,
        32,
        BlockGridConfig {
            block: 16,
            overlap: 0,
        },
    )
    .unwrap();
    assert_eq!(grid.grid_shape(), (2, 2));
    let meas = grid
        .measure(&smooth_frame(32, 32, 1.1), 0.5, &[], 9)
        .unwrap();
    let out = BlockPipeline::new(Decoder::default(), BlockPipelineConfig::default())
        .decode(&grid, &meas)
        .unwrap();
    let iterations: usize = out.reports.iter().map(|r| r.iterations).sum();
    assert_recorded(
        "2x2-block decode",
        (
            bit_hash(out.frame.as_slice()),
            bit_hash(out.block_means.as_slice()),
            iterations,
            out.defect_blocks,
        ),
        &[
            (
                "scalar",
                (0xeb11_b87e_d3ca_ad9a, 0x4f70_6459_a988_7edf, 448, vec![1]),
            ),
            (
                "x86_64-avx2+fma",
                (0x0346_417d_763d_1bf5, 0xac35_b4c8_c0c8_be42, 448, vec![1]),
            ),
        ],
    );
}
