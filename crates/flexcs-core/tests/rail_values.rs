//! Rail-valued data: a faulty array can read every pixel at one rail
//! (all 0.0 or all 1.0) or alternate between them. Such measurement
//! vectors are finite and in range, so no ingress check rejects them;
//! each decode path must still return an all-finite frame close to the
//! rails it measured, never a panic, NaN or garbage.

use flexcs_core::{
    rmse, AdaptiveConfig, AdaptivePipeline, BlockGrid, BlockGridConfig, BlockPipeline,
    BlockPipelineConfig, DecodeTier, DecodeWarmState, Decoder, SamplingPlan,
};
use flexcs_linalg::Matrix;

/// Largest RMSE accepted against the rail frame itself (measured: at
/// most 0.024, on the 64×64 block-decoded checkerboard).
const MAX_RMSE: f64 = 0.05;

/// Frames whose every pixel sits on a rail: all low, all high, and a
/// 0/1 checkerboard.
fn rail_frames(rows: usize, cols: usize) -> [(&'static str, Matrix); 3] {
    [
        ("all 0.0", Matrix::filled(rows, cols, 0.0)),
        ("all 1.0", Matrix::filled(rows, cols, 1.0)),
        (
            "checkerboard",
            Matrix::from_fn(rows, cols, |i, j| ((i + j) % 2) as f64),
        ),
    ]
}

#[test]
fn rail_valued_measurements_decode_to_finite_frames() {
    let decoder = Decoder::default();
    let plan = SamplingPlan::random_subset(32 * 32, 512, &[], 2020).unwrap();

    for (name, frame) in rail_frames(32, 32) {
        let y = plan.measure(&frame.to_flat());
        let rec = decoder.reconstruct(32, 32, plan.selected(), &y).unwrap();
        assert!(rec.frame.is_finite(), "{name}: direct decode not finite");
        assert!(rmse(&rec.frame, &frame) < MAX_RMSE, "{name}: direct decode");
    }

    // Adaptive stream: a smooth reference frame, its `Static` repeat,
    // then the rail frames.
    let mut pipeline = AdaptivePipeline::new(AdaptiveConfig::default());
    let mut warm = DecodeWarmState::new();
    let reference = Matrix::from_fn(32, 32, |i, j| {
        0.5 + 0.3 * ((i as f64) * 0.2).sin() * ((j as f64) * 0.15).cos()
    });
    let y_ref = plan.measure(&reference.to_flat());
    pipeline
        .decode(&decoder, 32, 32, plan.selected(), &y_ref, &mut warm)
        .unwrap();
    let (_, tier) = pipeline
        .decode(&decoder, 32, 32, plan.selected(), &y_ref, &mut warm)
        .unwrap();
    assert_eq!(tier, DecodeTier::Static);
    let mut fed = 2;
    for (name, frame) in rail_frames(32, 32) {
        let y = plan.measure(&frame.to_flat());
        let (rec, tier) = pipeline
            .decode(&decoder, 32, 32, plan.selected(), &y, &mut warm)
            .unwrap();
        fed += 1;
        assert!(rec.frame.is_finite(), "{name}: adaptive decode not finite");
        assert!(
            rmse(&rec.frame, &frame) < MAX_RMSE,
            "{name}: {tier:?} decode"
        );
        assert_eq!(pipeline.tier_counts().total(), fed, "{name}");
    }

    // Each rail frame at 64×64 through the block pipeline.
    let grid = BlockGrid::new(
        64,
        64,
        BlockGridConfig {
            block: 32,
            overlap: 8,
        },
    )
    .unwrap();
    let blocks = BlockPipeline::new(decoder, BlockPipelineConfig { threads: None });
    for (name, frame) in rail_frames(64, 64) {
        let meas = grid.measure(&frame, 0.5, &[], 7).unwrap();
        let out = blocks.decode(&grid, &meas).unwrap();
        assert!(out.frame.is_finite(), "{name}: block decode not finite");
        assert!(rmse(&out.frame, &frame) < MAX_RMSE, "{name}: block decode");
    }
}
