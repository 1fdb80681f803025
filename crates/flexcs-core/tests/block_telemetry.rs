//! Telemetry contract for the block-tiled decode pipeline: one
//! `blocks.decoded` count and one latency sample per block, and the
//! seam pixel count.
//!
//! The recorder is process-global, so this test lives in a binary of
//! its own: any other test decoding concurrently in the same process
//! would add its blocks to the counters under test.

#![cfg(feature = "telemetry")]

use flexcs_core::{BlockGrid, BlockGridConfig, BlockPipeline, BlockPipelineConfig, Decoder};
use flexcs_linalg::Matrix;
use flexcs_telemetry::MemoryRecorder;
use std::sync::Arc;

#[test]
fn telemetry_records_block_counters_and_latency() {
    let recorder = Arc::new(MemoryRecorder::new());
    flexcs_telemetry::install(recorder.clone()).expect("first install");

    let frame = Matrix::from_fn(32, 32, |i, j| {
        0.5 + 0.3 * ((i as f64) * 0.045).sin() + 0.2 * ((j as f64) * 0.06).cos()
    });
    let grid = BlockGrid::new(
        32,
        32,
        BlockGridConfig {
            block: 16,
            overlap: 4,
        },
    )
    .unwrap();
    let meas = grid.measure(&frame, 0.6, &[], 9).unwrap();
    let pipe = BlockPipeline::new(Decoder::default(), BlockPipelineConfig::default());
    let out = pipe.decode(&grid, &meas).unwrap();

    let blocks = grid.block_count() as u64;
    assert_eq!(recorder.counter_value("blocks.decoded"), blocks);
    assert_eq!(
        recorder.counter_value("blocks.seam_px"),
        out.seam_pixels as u64
    );
    let hist = recorder
        .histogram_snapshot("blocks.block_ms")
        .expect("per-block latency histogram recorded");
    assert_eq!(hist.count, blocks);
}
