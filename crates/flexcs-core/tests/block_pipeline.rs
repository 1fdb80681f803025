//! Correctness contract for the block-tiled decode pipeline:
//!
//! - overlap-and-average deblocking agrees with the untiled decode
//!   within tolerance, and seam pixels are *exact* averages of their
//!   contributing blocks (property-tested over random geometries);
//! - zero-overlap tiling is bit-identical to pasting independent
//!   per-block decodes on fresh workspaces (which also proves the
//!   pooled workspaces leak nothing between solves);
//! - results are bit-identical for every thread count.
//!
//! The telemetry counters are checked in `block_telemetry.rs`, a binary
//! of their own, because the recorder is process-global.

use flexcs_core::{rmse, BlockGrid, BlockGridConfig, BlockPipeline, BlockPipelineConfig, Decoder};
use flexcs_linalg::Matrix;
use proptest::prelude::*;

/// A smooth, DCT-compressible frame (what a large-area thermal/tactile
/// array actually measures), so every tile decodes accurately.
fn smooth_frame(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        0.5 + 0.3 * ((i as f64) * 0.045).sin()
            + 0.2 * ((j as f64) * 0.06).cos()
            + 0.1 * (((i + j) as f64) * 0.02).sin()
    })
}

fn pipeline(threads: Option<usize>) -> BlockPipeline {
    BlockPipeline::new(
        Decoder::default(),
        BlockPipelineConfig {
            threads,
            ..BlockPipelineConfig::default()
        },
    )
}

#[test]
fn tiled_decode_matches_untiled_within_tolerance() {
    let frame = smooth_frame(64, 64);
    let grid = BlockGrid::new(
        64,
        64,
        BlockGridConfig {
            block: 32,
            overlap: 8,
        },
    )
    .unwrap();
    let meas = grid.measure(&frame, 0.5, &[], 11).unwrap();
    let tiled = pipeline(None).decode(&grid, &meas).unwrap();

    // Untiled reference: the whole frame as one field, same density.
    let decoder = Decoder::default();
    let n = 64 * 64;
    let plan = flexcs_core::SamplingPlan::random_subset(n, n / 2, &[], 11).unwrap();
    let y = plan.measure(&frame.to_flat());
    let untiled = decoder
        .reconstruct(64, 64, plan.selected(), &y)
        .unwrap()
        .frame;

    let rmse_tiled = rmse(&tiled.frame, &frame);
    let rmse_untiled = rmse(&untiled, &frame);
    assert!(
        rmse_tiled < 0.05,
        "tiled reconstruction off ground truth: rmse {rmse_tiled}"
    );
    assert!(
        rmse_untiled < 0.05,
        "untiled reconstruction off ground truth: rmse {rmse_untiled}"
    );
    assert!(
        rmse(&tiled.frame, &untiled) < 0.08,
        "tiled and untiled reconstructions disagree"
    );
    assert!(tiled.seam_pixels > 0, "overlapping grid must report seams");
}

#[test]
fn zero_overlap_tiling_is_bit_identical_to_independent_decodes() {
    let frame = smooth_frame(48, 64);
    let grid = BlockGrid::new(
        48,
        64,
        BlockGridConfig {
            block: 16,
            overlap: 0,
        },
    )
    .unwrap();
    let meas = grid.measure(&frame, 0.6, &[], 23).unwrap();
    let out = pipeline(None).decode(&grid, &meas).unwrap();
    assert_eq!(out.seam_pixels, 0);

    // Independent reference: each block decoded cold on its own fresh
    // decoder and workspace, pasted into place.
    let b = grid.block_size();
    for (i, block) in meas.blocks.iter().enumerate() {
        let tile = Decoder::default()
            .reconstruct(b, b, block.plan.selected(), &block.y)
            .unwrap()
            .frame;
        let rect = grid.rect(i);
        for r in 0..b {
            for c in 0..b {
                assert_eq!(
                    out.frame[(rect.row0 + r, rect.col0 + c)].to_bits(),
                    tile[(r, c)].to_bits(),
                    "block {i} pixel ({r}, {c}) differs from the fresh decode"
                );
            }
        }
    }
}

#[test]
fn overlapping_decode_is_bit_identical_to_fresh_workspace_reassembly() {
    let frame = smooth_frame(40, 40);
    let grid = BlockGrid::new(
        40,
        40,
        BlockGridConfig {
            block: 16,
            overlap: 4,
        },
    )
    .unwrap();
    let meas = grid.measure(&frame, 0.6, &[], 5).unwrap();

    // Pool of 1 workspace maximizes reuse: every block after the first
    // decodes on a recycled (cleared) workspace.
    let pipe = BlockPipeline::new(
        Decoder::default(),
        BlockPipelineConfig {
            pool_capacity: 1,
            ..BlockPipelineConfig::default()
        },
    );
    let pooled = pipe.decode(&grid, &meas).unwrap();
    assert_eq!(pipe.pool().checkouts(), grid.block_count() as u64);
    assert_eq!(
        pipe.pool().reuses(),
        grid.block_count() as u64 - 1,
        "cap-1 pool must serve every block after the first by reuse"
    );

    let b = grid.block_size();
    let tiles: Vec<Matrix> = meas
        .blocks
        .iter()
        .map(|block| {
            Decoder::default()
                .reconstruct(b, b, block.plan.selected(), &block.y)
                .unwrap()
                .frame
        })
        .collect();
    let (reference, seam) = grid.reassemble(&tiles).unwrap();
    assert_eq!(pooled.seam_pixels, seam);
    for (a, r) in pooled.frame.as_slice().iter().zip(reference.as_slice()) {
        assert_eq!(
            a.to_bits(),
            r.to_bits(),
            "pooled decode deviates from fresh"
        );
    }
}

#[test]
fn decode_is_bit_identical_across_thread_counts() {
    let frame = smooth_frame(48, 48);
    let grid = BlockGrid::new(
        48,
        48,
        BlockGridConfig {
            block: 16,
            overlap: 4,
        },
    )
    .unwrap();
    let meas = grid.measure(&frame, 0.55, &[], 77).unwrap();

    let serial = pipeline(Some(1)).decode(&grid, &meas).unwrap();
    for threads in [2usize, 3, 7] {
        let fanned = pipeline(Some(threads)).decode(&grid, &meas).unwrap();
        assert_eq!(fanned.frame.as_slice().len(), serial.frame.as_slice().len());
        for (a, s) in fanned.frame.as_slice().iter().zip(serial.frame.as_slice()) {
            assert_eq!(
                a.to_bits(),
                s.to_bits(),
                "{threads}-thread decode deviates from serial"
            );
        }
        assert_eq!(fanned.seam_pixels, serial.seam_pixels);
        assert_eq!(fanned.defect_blocks, serial.defect_blocks);
    }
}

#[test]
fn excluded_pixels_are_never_sampled_in_any_block() {
    let grid = BlockGrid::new(
        32,
        32,
        BlockGridConfig {
            block: 16,
            overlap: 8,
        },
    )
    .unwrap();
    let excluded = [0usize, 5 * 32 + 7, 15 * 32 + 15, 31 * 32 + 31];
    for i in 0..grid.block_count() {
        let plan = grid.plan_for_block(i, 0.9, &excluded, 3).unwrap();
        let rect = grid.rect(i);
        let b = grid.block_size();
        for &local in plan.selected() {
            let global = (rect.row0 + local / b) * 32 + rect.col0 + local % b;
            assert!(
                !excluded.contains(&global),
                "block {i} samples excluded pixel {global}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over random geometries and tile contents (some of them −0.0):
    /// single-cover pixels are bit-identical to their tile, seam pixels
    /// are bit-identical to a first-assign, tile-index-order average of
    /// every covering tile, and coverage is total.
    #[test]
    fn reassembly_fuses_tiles_exactly(
        rows in 8usize..40,
        cols in 8usize..40,
        block in 4usize..16,
        overlap_frac in 0usize..4,
        salt in 0u64..1_000_000_000_000,
    ) {
        let block = block.min(rows).min(cols);
        let overlap = (block - 1).min(overlap_frac * block / 4);
        let grid = BlockGrid::new(rows, cols, BlockGridConfig { block, overlap }).unwrap();

        // Deterministic pseudo-random tile values from the salt; one in
        // eight is −0.0, whose sign an add-into-zero fold would lose.
        let tiles: Vec<Matrix> = (0..grid.block_count())
            .map(|i| Matrix::from_fn(block, block, |r, c| {
                let h = salt
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((i * block * block + r * block + c) as u64);
                if h % 8 == 0 {
                    -0.0
                } else {
                    (h % 10_000) as f64 / 157.0 - 31.0
                }
            }))
            .collect();
        let (frame, seam) = grid.reassemble(&tiles).unwrap();

        // Independent cover model, each pixel's covers in tile-index
        // order.
        let mut covers: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); rows * cols];
        for i in 0..grid.block_count() {
            let rect = grid.rect(i);
            for r in 0..block {
                for c in 0..block {
                    covers[(rect.row0 + r) * cols + rect.col0 + c].push((i, r, c));
                }
            }
        }

        let mut seam_count = 0usize;
        for (p, cover) in covers.iter().enumerate() {
            prop_assert!(!cover.is_empty(), "pixel {p} uncovered");
            let (pr, pc) = (p / cols, p % cols);
            if cover.len() == 1 {
                let (i, r, c) = cover[0];
                prop_assert_eq!(frame[(pr, pc)].to_bits(), tiles[i][(r, c)].to_bits());
            } else {
                seam_count += 1;
                let (i, r, c) = cover[0];
                let mut sum = tiles[i][(r, c)];
                for &(i, r, c) in &cover[1..] {
                    sum += tiles[i][(r, c)];
                }
                let avg = sum / cover.len() as f64;
                prop_assert_eq!(
                    frame[(pr, pc)].to_bits(),
                    avg.to_bits(),
                    "seam pixel {} not the exact average",
                    p
                );
            }
        }
        prop_assert_eq!(seam, seam_count);
    }

    /// Per-block sampling plans reproduce from `(master_seed, index)`
    /// and differ across blocks and seeds.
    #[test]
    fn block_plans_are_reproducible_and_decorrelated(seed in 0u64..1_000_000_000_000) {
        let grid = BlockGrid::new(64, 64, BlockGridConfig { block: 16, overlap: 4 }).unwrap();
        let a = grid.plan_for_block(3, 0.5, &[], seed).unwrap();
        let b = grid.plan_for_block(3, 0.5, &[], seed).unwrap();
        prop_assert_eq!(a.selected(), b.selected(), "same (seed, index) must reproduce");
        let other_block = grid.plan_for_block(4, 0.5, &[], seed).unwrap();
        let other_seed = grid.plan_for_block(3, 0.5, &[], seed ^ 1).unwrap();
        prop_assert_ne!(a.selected(), other_block.selected());
        prop_assert_ne!(a.selected(), other_seed.selected());
    }
}
