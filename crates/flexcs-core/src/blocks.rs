//! Block-tiled CS decode for megapixel frames.
//!
//! The paper reconstructs one 32×32 field; this module scales the same
//! machinery to 256×256–1024×1024 frames by tiling them into B×B blocks
//! (the block-wise acquisition of on-sensor compressed sampling), so a
//! frame becomes thousands of *independent* small decodes instead of
//! one intractable large one:
//!
//! - [`BlockGrid`] places overlapping B×B tiles over the frame and
//!   derives every block's [`SamplingPlan`] from a single master seed,
//!   so an entire megapixel acquisition is reproducible from one u64.
//! - [`BlockPipeline`] fans the per-block decodes out through
//!   `flexcs-parallel`, folding each tile into the frame as soon as
//!   every lower-index tile has been (index-ordered reassembly keeps
//!   results bit-identical for any thread count, and the working set is
//!   the frame, not every tile) while all blocks share one
//!   [`Decoder`] (one cached `Dct2d` plan). Each block solves cold on
//!   its worker thread's solver workspace, so the pipeline holds no
//!   per-block or per-worker arenas of its own.
//! - Overlapping tiles are fused by **overlap-and-average** deblocking:
//!   every seam pixel is the exact average of its contributing blocks,
//!   and zero-overlap tiling is bit-identical to pasting independent
//!   block decodes.
//! - A global RPCA pass over the **block-mean image** (one pixel per
//!   block) yields an array-level defect map: a cluster of stuck pixels
//!   shifts its block's mean off the smooth low-rank field and shows up
//!   in the sparse component.
//!
//! Telemetry (feature `telemetry`): `blocks.decoded` and
//! `blocks.seam_px` counters plus a `blocks.block_ms` per-block latency
//! histogram.

use crate::decode::{DecodeWarmState, Decoder};
use crate::error::{CoreError, Result};
use crate::rpca::{outlier_indices, rpca, RpcaConfig};
use crate::sampling::SamplingPlan;
use crate::tel;
use flexcs_linalg::{Matrix, SplitMix64};
use flexcs_parallel::Pool;
use flexcs_solver::SolveReport;
use std::time::Instant;

/// Relative cut of the global RPCA defect pass: a block is flagged when
/// its sparse residual exceeds this fraction of the maximum (see
/// [`outlier_indices`]).
const DEFECT_THRESHOLD: f64 = 0.5;

/// Tiling geometry: block edge and inter-block overlap, both in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGridConfig {
    /// Block edge `B`; every tile is `B x B`.
    pub block: usize,
    /// Pixels shared between adjacent tiles (overlap-and-average
    /// deblocking). `0` tiles the frame disjointly.
    pub overlap: usize,
}

impl Default for BlockGridConfig {
    /// 32×32 blocks (the paper's native field size, so every per-frame
    /// optimization applies verbatim per block) with a 4-pixel seam.
    fn default() -> Self {
        BlockGridConfig {
            block: 32,
            overlap: 4,
        }
    }
}

/// Placement of one tile inside the frame (tiles are always `B x B`;
/// edge tiles are anchored so they end exactly at the frame border).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRect {
    /// First frame row covered.
    pub row0: usize,
    /// First frame column covered.
    pub col0: usize,
}

/// One SplitMix64 output from Weyl state `z` — decorrelates per-block
/// seeds drawn from one master seed, so block plans are independent but
/// the whole grid reproduces from a single u64.
fn splitmix64(z: u64) -> u64 {
    SplitMix64::from_state(z).next_u64()
}

/// A tiling of a `rows x cols` frame into overlapping `B x B` blocks.
///
/// Tiles start every `B - overlap` pixels along each axis; the final
/// tile per axis is anchored at the frame edge, so every pixel is
/// covered by at least one tile regardless of divisibility.
///
/// # Examples
///
/// ```
/// use flexcs_core::{BlockGrid, BlockGridConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = BlockGrid::new(256, 256, BlockGridConfig { block: 32, overlap: 4 })?;
/// assert_eq!(grid.grid_shape(), (9, 9));
/// assert_eq!(grid.block_count(), 81);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockGrid {
    rows: usize,
    cols: usize,
    block: usize,
    overlap: usize,
    row_starts: Vec<usize>,
    col_starts: Vec<usize>,
}

fn tile_starts(dim: usize, block: usize, stride: usize) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut s = 0;
    loop {
        if s + block >= dim {
            starts.push(dim - block);
            break;
        }
        starts.push(s);
        s += stride;
    }
    starts
}

impl BlockGrid {
    /// Builds the tiling for a `rows x cols` frame.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the block is zero, does not fit
    /// inside the frame, or the overlap is not smaller than the block.
    pub fn new(rows: usize, cols: usize, config: BlockGridConfig) -> Result<Self> {
        let BlockGridConfig { block, overlap } = config;
        if block == 0 {
            return Err(CoreError::InvalidConfig(
                "block edge must be positive".to_string(),
            ));
        }
        if overlap >= block {
            return Err(CoreError::InvalidConfig(format!(
                "overlap {overlap} must be smaller than the block edge {block}"
            )));
        }
        if block > rows || block > cols {
            return Err(CoreError::InvalidConfig(format!(
                "{block}x{block} blocks do not fit a {rows}x{cols} frame"
            )));
        }
        let stride = block - overlap;
        Ok(BlockGrid {
            rows,
            cols,
            block,
            overlap,
            row_starts: tile_starts(rows, block, stride),
            col_starts: tile_starts(cols, block, stride),
        })
    }

    /// Frame shape `(rows, cols)` this grid tiles.
    pub fn frame_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Block edge `B`.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Inter-block overlap in pixels.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Grid shape `(tile rows, tile cols)`.
    pub fn grid_shape(&self) -> (usize, usize) {
        (self.row_starts.len(), self.col_starts.len())
    }

    /// Total number of tiles.
    pub fn block_count(&self) -> usize {
        self.row_starts.len() * self.col_starts.len()
    }

    /// Placement of tile `index` (row-major over the grid).
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.block_count()`.
    pub fn rect(&self, index: usize) -> BlockRect {
        let gc = self.col_starts.len();
        BlockRect {
            row0: self.row_starts[index / gc],
            col0: self.col_starts[index % gc],
        }
    }

    /// Per-block sampling seed derived from the master seed: distinct
    /// per tile, reproducible from `(master_seed, index)` alone.
    pub fn block_seed(&self, master_seed: u64, index: usize) -> u64 {
        splitmix64(master_seed ^ splitmix64(index as u64))
    }

    /// Builds tile `index`'s identity-subset sampling plan: a fraction
    /// `density` of the tile's pixels, avoiding `excluded` (global,
    /// frame-flat pixel indices — the tested-defective set), seeded from
    /// the master seed. When exclusions crowd a tile, the measurement
    /// count is clamped to the usable pixels rather than failing.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for a density outside `(0, 1]`, and
    /// [`CoreError::InsufficientSamples`] when a tile has no usable
    /// pixel left.
    pub fn plan_for_block(
        &self,
        index: usize,
        density: f64,
        excluded: &[usize],
        master_seed: u64,
    ) -> Result<SamplingPlan> {
        if !(density > 0.0) || density > 1.0 {
            return Err(CoreError::InvalidConfig(format!(
                "sampling density {density} outside (0, 1]"
            )));
        }
        let n = self.block * self.block;
        let local = self.local_exclusions(index, excluded);
        let usable = n - local.len();
        if usable == 0 {
            return Err(CoreError::InsufficientSamples {
                requested: 1,
                available: 0,
            });
        }
        let m = (((n as f64) * density).round() as usize).clamp(1, usable);
        SamplingPlan::random_subset(n, m, &local, self.block_seed(master_seed, index))
    }

    /// Maps global (frame-flat) excluded pixel indices into tile-local
    /// flat indices; a pixel under several overlapping tiles is excluded
    /// in each of them.
    fn local_exclusions(&self, index: usize, excluded: &[usize]) -> Vec<usize> {
        let rect = self.rect(index);
        let mut local: Vec<usize> = excluded
            .iter()
            .filter_map(|&p| {
                let (r, c) = (p / self.cols, p % self.cols);
                (r >= rect.row0
                    && r < rect.row0 + self.block
                    && c >= rect.col0
                    && c < rect.col0 + self.block)
                    .then(|| (r - rect.row0) * self.block + (c - rect.col0))
            })
            .collect();
        local.sort_unstable();
        local.dedup();
        local
    }

    /// Measures every tile of a full frame: the block-wise acquisition
    /// an on-sensor encoder would perform. Only the compressed per-tile
    /// measurements survive — the frame itself never travels.
    ///
    /// # Errors
    ///
    /// Propagates plan-construction failures ([`BlockGrid::plan_for_block`])
    /// and rejects a frame whose shape differs from the grid's.
    pub fn measure(
        &self,
        frame: &Matrix,
        density: f64,
        excluded: &[usize],
        master_seed: u64,
    ) -> Result<BlockMeasurements> {
        if frame.shape() != (self.rows, self.cols) {
            return Err(CoreError::InvalidConfig(format!(
                "frame shape {:?} differs from grid {:?}",
                frame.shape(),
                (self.rows, self.cols)
            )));
        }
        let blocks = (0..self.block_count())
            .map(|i| {
                let plan = self.plan_for_block(i, density, excluded, master_seed)?;
                let rect = self.rect(i);
                let tile = frame.submatrix(
                    rect.row0,
                    rect.row0 + self.block,
                    rect.col0,
                    rect.col0 + self.block,
                );
                let y = plan.measure(&tile.to_flat());
                Ok(BlockMeasurement { plan, y })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(BlockMeasurements { blocks })
    }

    /// Overlap-and-average deblocking: fuses per-tile reconstructions
    /// into the full frame. Pixels covered by one tile are copied
    /// bit-identically; seam pixels (covered by several tiles) become
    /// the exact average of every contributing tile, accumulated in
    /// tile-index order. Returns the frame and the seam-pixel count.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the tile count or any tile
    /// shape disagrees with the grid.
    pub fn reassemble(&self, tiles: &[Matrix]) -> Result<(Matrix, usize)> {
        if tiles.len() != self.block_count() {
            return Err(CoreError::InvalidConfig(format!(
                "{} tiles for a {}-block grid",
                tiles.len(),
                self.block_count()
            )));
        }
        let mut deblock = Deblocker::new(self);
        for tile in tiles {
            deblock.add(tile)?;
        }
        deblock.finish()
    }
}

/// How many tiles cover each pixel along one axis.
fn cover_counts(starts: &[usize], block: usize, dim: usize) -> Vec<usize> {
    let mut cover = vec![0; dim];
    for &s in starts {
        for c in &mut cover[s..s + block] {
            *c += 1;
        }
    }
    cover
}

/// The one overlap-and-average implementation, folding tiles into a
/// frame-sized sum in tile-index order: a pixel's first covering tile
/// assigns and later ones add. Because tiles are row-major and their
/// starts ascend, the first tile over pixel `(r, c)` is the one at
/// (lowest tile row covering `r`, lowest tile column covering `c`), and
/// the pixel's cover count is `row_cover[r] * col_cover[c]` — both read
/// off the grid, so no per-pixel count is kept.
struct Deblocker<'g> {
    grid: &'g BlockGrid,
    sum: Vec<f64>,
    next: usize,
}

impl<'g> Deblocker<'g> {
    fn new(grid: &'g BlockGrid) -> Self {
        Deblocker {
            grid,
            sum: vec![0.0; grid.rows * grid.cols],
            next: 0,
        }
    }

    /// Folds the next tile, in tile-index order, into the frame.
    fn add(&mut self, tile: &Matrix) -> Result<()> {
        let index = self.next;
        let g = self.grid;
        let b = g.block;
        if tile.shape() != (b, b) {
            return Err(CoreError::InvalidConfig(format!(
                "tile {index} has shape {:?}, expected {b}x{b}",
                tile.shape()
            )));
        }
        let gc = g.col_starts.len();
        let (tr, tc) = (index / gc, index % gc);
        let rect = g.rect(index);
        // Leading rows (columns) of this tile that the previous tile row
        // (column) also covers already hold an earlier contribution.
        let seen = |starts: &[usize], t: usize, start: usize| {
            if t == 0 {
                0
            } else {
                (starts[t - 1] + b).saturating_sub(start)
            }
        };
        let seen_rows = seen(&g.row_starts, tr, rect.row0);
        let seen_cols = seen(&g.col_starts, tc, rect.col0);
        for br in 0..b {
            let base = (rect.row0 + br) * g.cols + rect.col0;
            let dst = &mut self.sum[base..base + b];
            let src = tile.row(br);
            let first = if br < seen_rows { b } else { seen_cols };
            for (d, &v) in dst[..first].iter_mut().zip(&src[..first]) {
                *d += v;
            }
            dst[first..].copy_from_slice(&src[first..]);
        }
        self.next += 1;
        Ok(())
    }

    /// Divides every seam pixel by its cover count and returns the frame
    /// and the seam-pixel count.
    fn finish(mut self) -> Result<(Matrix, usize)> {
        let g = self.grid;
        debug_assert_eq!(self.next, g.block_count(), "every tile folded");
        let row_cover = cover_counts(&g.row_starts, g.block, g.rows);
        let col_cover = cover_counts(&g.col_starts, g.block, g.cols);
        let mut seam = 0usize;
        for (row, &rc) in self.sum.chunks_exact_mut(g.cols).zip(&row_cover) {
            for (s, &cc) in row.iter_mut().zip(&col_cover) {
                let c = rc * cc;
                if c > 1 {
                    seam += 1;
                    *s /= c as f64;
                }
            }
        }
        let frame = Matrix::from_vec(g.rows, g.cols, self.sum)?;
        Ok((frame, seam))
    }
}

/// One tile's acquisition: its sampling plan and measurement vector.
#[derive(Debug, Clone)]
pub struct BlockMeasurement {
    /// The tile's identity-subset plan (tile-local pixel indices).
    pub plan: SamplingPlan,
    /// Measurements at the plan's selected pixels.
    pub y: Vec<f64>,
}

/// All per-tile measurements of one frame, tile-index order.
#[derive(Debug, Clone)]
pub struct BlockMeasurements {
    /// Per-tile acquisitions, indexed like [`BlockGrid::rect`].
    pub blocks: Vec<BlockMeasurement>,
}

/// A bounded, blocking pool of [`DecodeWarmState`]s. The library does
/// not use it: [`BlockPipeline`] solves each block through a fresh state
/// on its thread's solver workspace. The alias remains only because the
/// benchmark's traced megapixel replay names it, and goes with that
/// replay (ROADMAP items 10 and 4).
pub type DecodePool = Pool<DecodeWarmState>;

/// Configuration for [`BlockPipeline`].
#[derive(Debug, Clone, Default)]
pub struct BlockPipelineConfig {
    /// Worker-thread cap for the per-block fan-out; `None` uses the
    /// `flexcs-parallel` default pool (the `FLEXCS_THREADS` override
    /// applies). Results are bit-identical for every setting.
    pub threads: Option<usize>,
}

/// Result of a block-tiled decode.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// The deblocked full frame.
    pub frame: Matrix,
    /// Per-tile solver diagnostics, tile-index order.
    pub reports: Vec<SolveReport>,
    /// Block-mean image (one pixel per tile, grid shape).
    pub block_means: Matrix,
    /// Tiles flagged by the global RPCA defect pass (tile indices);
    /// empty when the grid is a single strip.
    pub defect_blocks: Vec<usize>,
    /// Pixels fused from more than one tile.
    pub seam_pixels: usize,
}

/// The block-tiled decode pipeline: one shared [`Decoder`] (single
/// cached DCT plan) and a deterministic parallel fan-out over tiles.
///
/// # Examples
///
/// ```
/// use flexcs_core::{BlockGrid, BlockGridConfig, BlockPipeline, BlockPipelineConfig, Decoder};
/// use flexcs_linalg::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A smooth 64x64 frame, tiled into 16x16 blocks with 4-px seams.
/// let frame = Matrix::from_fn(64, 64, |i, j| {
///     (i as f64 * 0.05).cos() + (j as f64 * 0.04).sin()
/// });
/// let grid = BlockGrid::new(64, 64, BlockGridConfig { block: 16, overlap: 4 })?;
/// let meas = grid.measure(&frame, 0.6, &[], 7)?;
/// let pipeline = BlockPipeline::new(Decoder::default(), BlockPipelineConfig::default());
/// let out = pipeline.decode(&grid, &meas)?;
/// assert!(flexcs_core::rmse(&out.frame, &frame) < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BlockPipeline {
    decoder: Decoder,
    /// Fan-out width: the configured `threads`, or the default pool
    /// size.
    workers: usize,
}

impl BlockPipeline {
    /// Builds a pipeline around a decoder configuration.
    pub fn new(decoder: Decoder, config: BlockPipelineConfig) -> Self {
        let workers = config
            .threads
            .unwrap_or_else(flexcs_parallel::default_threads)
            .max(1);
        BlockPipeline { decoder, workers }
    }

    /// Decodes one tiled frame: parallel cold per-tile solves,
    /// overlap-and-average deblocking, and the global RPCA defect pass
    /// over the block-mean image.
    ///
    /// Each tile is folded into the frame as soon as every lower-index
    /// tile has been, so the working set is the frame plus the few tiles
    /// that finish ahead of a slower one. The result is bit-identical
    /// for every thread count and to a serial loop of cold
    /// [`Decoder::reconstruct`] calls: tiles fold in index order
    /// whatever the scheduling, and every tile starts from a fresh
    /// [`DecodeWarmState`].
    ///
    /// # Errors
    ///
    /// Propagates per-tile decode failures (the lowest failing tile's)
    /// and tile/grid mismatches.
    pub fn decode(&self, grid: &BlockGrid, meas: &BlockMeasurements) -> Result<BlockOutcome> {
        let count = grid.block_count();
        if meas.blocks.len() != count {
            return Err(CoreError::InvalidConfig(format!(
                "{} measured blocks for a {count}-block grid",
                meas.blocks.len(),
            )));
        }
        let b = grid.block_size();
        let track = tel::enabled();
        let (grid_rows, grid_cols) = grid.grid_shape();
        let mut deblock = Deblocker::new(grid);
        let mut reports = Vec::with_capacity(count);
        let mut means = Vec::with_capacity(count);
        let mut folded = Ok(());
        flexcs_parallel::par_for_each_ordered_with(
            self.workers,
            count,
            |i| -> Result<(Matrix, SolveReport)> {
                let block = &meas.blocks[i];
                let t0 = track.then(Instant::now);
                let rec = self.decoder.reconstruct_warm(
                    b,
                    b,
                    block.plan.selected(),
                    &block.y,
                    &mut DecodeWarmState::new(),
                )?;
                if let Some(t0) = t0 {
                    tel::counter("blocks.decoded", 1);
                    tel::histogram("blocks.block_ms", t0.elapsed().as_secs_f64() * 1e3);
                }
                Ok((rec.frame, rec.report))
            },
            // Tiles arrive in index order; after the first failure the
            // rest are still solved but no longer folded, so the lowest
            // failing index's error is the one returned.
            |decoded| {
                if folded.is_ok() {
                    folded = decoded.and_then(|(tile, report)| {
                        deblock.add(&tile)?;
                        means.push(tile.mean());
                        reports.push(report);
                        Ok(())
                    });
                }
            },
        );
        folded?;
        let (frame, seam_pixels) = deblock.finish()?;
        if track {
            tel::counter("blocks.seam_px", seam_pixels as u64);
        }
        let block_means = Matrix::from_vec(grid_rows, grid_cols, means)?;
        // RPCA needs a genuinely 2-D mean image; a single strip of
        // blocks has no low-rank structure to separate from.
        let defect_blocks = if grid_rows >= 2 && grid_cols >= 2 {
            let dec = rpca(&block_means, &RpcaConfig::default())?;
            outlier_indices(&dec, DEFECT_THRESHOLD)
        } else {
            Vec::new()
        };
        Ok(BlockOutcome {
            frame,
            reports,
            block_means,
            defect_blocks,
            seam_pixels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rejects_bad_geometry() {
        let cfg = |block, overlap| BlockGridConfig { block, overlap };
        assert!(BlockGrid::new(64, 64, cfg(0, 0)).is_err());
        assert!(BlockGrid::new(64, 64, cfg(8, 8)).is_err());
        assert!(BlockGrid::new(64, 64, cfg(128, 0)).is_err());
        assert!(BlockGrid::new(4, 64, cfg(8, 0)).is_err());
    }

    #[test]
    fn grid_covers_every_pixel_exactly_once_without_overlap() {
        let grid = BlockGrid::new(
            64,
            96,
            BlockGridConfig {
                block: 32,
                overlap: 0,
            },
        )
        .unwrap();
        assert_eq!(grid.grid_shape(), (2, 3));
        let mut covered = vec![0u32; 64 * 96];
        for i in 0..grid.block_count() {
            let rect = grid.rect(i);
            for r in rect.row0..rect.row0 + 32 {
                for c in rect.col0..rect.col0 + 32 {
                    covered[r * 96 + c] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn grid_covers_non_divisible_frames() {
        // 100 is not divisible by the 28-pixel stride; the edge tiles
        // must be anchored at the border, covering every pixel.
        let grid = BlockGrid::new(
            100,
            70,
            BlockGridConfig {
                block: 32,
                overlap: 4,
            },
        )
        .unwrap();
        let mut covered = vec![0u32; 100 * 70];
        for i in 0..grid.block_count() {
            let rect = grid.rect(i);
            assert!(rect.row0 + 32 <= 100 && rect.col0 + 32 <= 70);
            for r in rect.row0..rect.row0 + 32 {
                for c in rect.col0..rect.col0 + 32 {
                    covered[r * 70 + c] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c >= 1));
    }

    #[test]
    fn block_seeds_are_distinct_and_reproducible() {
        let grid = BlockGrid::new(128, 128, BlockGridConfig::default()).unwrap();
        let seeds: Vec<u64> = (0..grid.block_count())
            .map(|i| grid.block_seed(42, i))
            .collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "per-block seeds collide");
        assert_eq!(grid.block_seed(42, 3), seeds[3]);
        assert_ne!(grid.block_seed(43, 3), seeds[3]);
    }

    #[test]
    fn exclusions_map_into_overlapping_tiles() {
        let grid = BlockGrid::new(
            16,
            16,
            BlockGridConfig {
                block: 8,
                overlap: 4,
            },
        )
        .unwrap();
        // Pixel (6, 6) sits in the overlap of four tiles.
        let p = 6 * 16 + 6;
        let mut containing = 0;
        for i in 0..grid.block_count() {
            let plan = grid.plan_for_block(i, 1.0, &[p], 9).unwrap();
            let rect = grid.rect(i);
            let inside =
                (rect.row0..rect.row0 + 8).contains(&6) && (rect.col0..rect.col0 + 8).contains(&6);
            if inside {
                containing += 1;
                let local = (6 - rect.row0) * 8 + (6 - rect.col0);
                assert!(
                    !plan.selected().contains(&local),
                    "tile {i} still samples the excluded pixel"
                );
                assert_eq!(plan.measurement_count(), 63, "clamped to usable pixels");
            }
        }
        assert!(containing >= 2, "test pixel must sit on a seam");
    }

    #[test]
    fn reassemble_rejects_mismatches() {
        let grid = BlockGrid::new(
            16,
            16,
            BlockGridConfig {
                block: 8,
                overlap: 0,
            },
        )
        .unwrap();
        assert!(grid.reassemble(&[]).is_err());
        let bad: Vec<Matrix> = (0..4).map(|_| Matrix::zeros(4, 4)).collect();
        assert!(grid.reassemble(&bad).is_err());
    }

    #[test]
    fn seam_pixels_are_exact_averages() {
        let grid = BlockGrid::new(
            12,
            8,
            BlockGridConfig {
                block: 8,
                overlap: 4,
            },
        )
        .unwrap();
        assert_eq!(grid.grid_shape(), (2, 1));
        let tiles = vec![Matrix::filled(8, 8, 1.0), Matrix::filled(8, 8, 3.0)];
        let (frame, seam) = grid.reassemble(&tiles).unwrap();
        assert_eq!(seam, 4 * 8, "4 overlapping rows of 8 pixels");
        for r in 0..12 {
            for c in 0..8 {
                let expected = if r < 4 {
                    1.0
                } else if r < 8 {
                    2.0 // exact average of 1.0 and 3.0
                } else {
                    3.0
                };
                assert_eq!(frame[(r, c)], expected, "pixel ({r}, {c})");
            }
        }
    }

    #[test]
    fn zero_overlap_reassembly_is_bit_identical_pasting() {
        let grid = BlockGrid::new(
            8,
            8,
            BlockGridConfig {
                block: 4,
                overlap: 0,
            },
        )
        .unwrap();
        let tiles: Vec<Matrix> = (0..4)
            .map(|i| Matrix::from_fn(4, 4, |r, c| (i * 16 + r * 4 + c) as f64 * 0.37 - 3.0))
            .collect();
        let (frame, seam) = grid.reassemble(&tiles).unwrap();
        assert_eq!(seam, 0);
        for (i, tile) in tiles.iter().enumerate() {
            let rect = grid.rect(i);
            for r in 0..4 {
                for c in 0..4 {
                    assert_eq!(
                        frame[(rect.row0 + r, rect.col0 + c)].to_bits(),
                        tile[(r, c)].to_bits()
                    );
                }
            }
        }
    }
}
