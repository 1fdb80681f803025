//! `megapixel_tiled`: a 1024x1024 smooth field with a 24x24 stuck patch
//! through `BlockGrid` (32 px blocks, 4 px overlap) and one
//! `BlockPipeline`: 1369 cold per-block solves, the `DecodePool`, the
//! `flexcs-parallel` fan-out, `BlockGrid::reassemble` and the RPCA
//! block-mean defect map. One client, closed loop, one pipeline thread;
//! the output is checked against a 2-thread pipeline.

use crate::harness::{bits, closed_loop, closed_rounds, Args, Outcome, SETUPS};
use crate::json::Json;
use crate::replay::{self, WarmParts};
use crate::stats::{mean, percentile};
use crate::trace::Tracer;
use flexcs_core::{
    outlier_indices, rmse, rpca, BlockGrid, BlockGridConfig, BlockMeasurements, BlockOutcome,
    BlockPipeline, BlockPipelineConfig, DecodePool, Decoder, RpcaConfig,
};
use flexcs_linalg::Matrix;
use flexcs_transform::Dct2d;
use std::cell::RefCell;
use std::sync::Arc;

const SIDE: usize = 1024;
const BLOCK: usize = 32;
const OVERLAP: usize = 4;
const DENSITY: f64 = 0.5;
const PATCH: usize = 24;
/// Side of the warm-up frame decoded during set-up.
const WARMUP_SIDE: usize = 256;
/// One thread: a 2-thread frame is only as fast as the slower of the
/// host's two vCPUs, which on a shared host makes its fastest time move
/// between runs.
const THREADS: usize = 1;
/// The pipeline's default RPCA outlier threshold.
const DEFECT_THRESHOLD: f64 = 0.5;

struct Inputs {
    clean: Matrix,
    grid: BlockGrid,
    meas: BlockMeasurements,
    /// A smaller frame cut from the same field, decoded during set-up
    /// to fill the plan cache, the pool and the allocator.
    warmup: (BlockGrid, BlockMeasurements),
    /// Top-left pixel of the stuck patch.
    patch: (usize, usize),
}

fn inputs(scenario: u64) -> Inputs {
    // The scenario shifts the field's phases, not its frequencies, so
    // every scenario costs about the same to decode.
    let s = scenario as f64;
    let clean = Matrix::from_fn(SIDE, SIDE, |i, j| {
        0.5 + 0.3 * (i as f64 * 0.013 + s).sin()
            + 0.2 * (j as f64 * 0.017 + 0.7 * s).cos()
            + 0.15 * ((i + j) as f64 * 0.008 + 1.3 * s).sin()
    });
    // The patch lands in the interior, at a place set by the scenario.
    let patch = (
        200 + (scenario as usize * 97) % 600,
        200 + (scenario as usize * 61) % 600,
    );
    let mut damaged = clean.clone();
    for dr in 0..PATCH {
        for dc in 0..PATCH {
            damaged[(patch.0 + dr, patch.1 + dc)] = 1.0;
        }
    }
    let grid = BlockGrid::new(
        SIDE,
        SIDE,
        BlockGridConfig {
            block: BLOCK,
            overlap: OVERLAP,
        },
    )
    .expect("1024x1024 grid");
    let meas = grid
        .measure(&damaged, DENSITY, &[], 29 + scenario)
        .expect("every block measures");
    let config = BlockGridConfig {
        block: BLOCK,
        overlap: OVERLAP,
    };
    let warmup_grid = BlockGrid::new(WARMUP_SIDE, WARMUP_SIDE, config).expect("warm-up grid");
    let warmup_meas = warmup_grid
        .measure(
            &clean.submatrix(0, WARMUP_SIDE, 0, WARMUP_SIDE),
            DENSITY,
            &[],
            scenario,
        )
        .expect("every warm-up block measures");
    Inputs {
        clean,
        grid,
        meas,
        warmup: (warmup_grid, warmup_meas),
        patch,
    }
}

fn pipeline(threads: usize) -> BlockPipeline {
    BlockPipeline::new(
        Decoder::default(),
        BlockPipelineConfig {
            threads: Some(threads),
            ..BlockPipelineConfig::default()
        },
    )
}

/// Whether block `index` overlaps the stuck patch.
fn covers_patch(inp: &Inputs, index: usize) -> bool {
    let r = inp.grid.rect(index);
    let (pr, pc) = inp.patch;
    r.row0 < pr + PATCH && pr < r.row0 + BLOCK && r.col0 < pc + PATCH && pc < r.col0 + BLOCK
}

fn mpix_per_frame() -> f64 {
    (SIDE * SIDE) as f64 / 1e6
}

fn untraced(inp: &Inputs, seconds: f64, rounds: usize) -> (Outcome, Option<BlockOutcome>) {
    let mut out = Outcome {
        threads: THREADS,
        op: "Mpix",
        ..Outcome::default()
    };
    // Set-up: pipeline and pool construction plus one warm-up frame.
    let setup = || {
        let pipe = pipeline(THREADS);
        pipe.decode(&inp.warmup.0, &inp.warmup.1)
            .expect("warm-up frame decodes");
        pipe
    };
    let mut first: Option<BlockOutcome> = None;
    let mut diverged = 0usize;
    let run = closed_rounds(seconds, rounds, 1, setup, |pipe, _| {
        match pipe.decode(&inp.grid, &inp.meas) {
            Ok(o) => {
                match &first {
                    None => first = Some(o),
                    Some(f) => {
                        diverged +=
                            usize::from(bits(f.frame.as_slice()) != bits(o.frame.as_slice()))
                    }
                }
                true
            }
            Err(_) => false,
        }
    });
    run.report_into(&mut out, mpix_per_frame(), |_| 0);
    out.setup_s = run.setup_s;
    out.latencies_ms = run.latencies_ms;
    out.check(
        "frames_repeat",
        diverged == 0,
        format!("{diverged} frames differ from the first"),
    );
    if let Some(f) = &first {
        let flagged = f.defect_blocks.iter().any(|&b| covers_patch(inp, b));
        out.check(
            "defect_flagged",
            flagged,
            format!(
                "flagged blocks {:?}, patch at {:?}",
                f.defect_blocks, inp.patch
            ),
        );
        let parallel = pipeline(2)
            .decode(&inp.grid, &inp.meas)
            .expect("2-thread decode");
        out.check(
            "thread_invariant",
            bits(parallel.frame.as_slice()) == bits(f.frame.as_slice())
                && parallel.defect_blocks == f.defect_blocks,
            "1-thread and 2-thread BlockPipeline::decode agree bit for bit",
        );
        out.extra
            .push(("rmse", Json::Num(rmse(&f.frame, &inp.clean))));
        out.extra
            .push(("defect_blocks", Json::Num(f.defect_blocks.len() as f64)));
    }
    out.extra.push((
        "frame_latency_ms",
        Json::Arr(out.latencies_ms.iter().map(|&v| Json::Num(v)).collect()),
    ));
    (out, first)
}

thread_local! {
    static PARTS: RefCell<WarmParts> = RefCell::new(WarmParts::default());
}

/// One traced frame: the pipeline's per-block decodes, reassembly and
/// defect pass replayed from public pieces.
fn traced_frame(
    tracer: &Tracer,
    inp: &Inputs,
    decoder: &Decoder,
    plan: &Arc<Dct2d>,
    pool: &DecodePool,
    request: u64,
) -> Result<(Matrix, Vec<usize>, Vec<f64>), String> {
    let _frame = tracer.request("frame", request);
    let fanout = tracer.span("core.blocks.fanout");
    let tiles = flexcs_parallel::par_map_indices_with(THREADS, inp.meas.blocks.len(), |i| {
        let block = &inp.meas.blocks[i];
        let _span = tracer.request("core.blocks.block", request);
        let wait = tracer.span("core.blocks.pool_wait");
        let checkout = pool.checkout();
        drop(wait);
        // The pool hands out cleared workspaces, so each block solves
        // cold; the replay clears its own warm state the same way.
        let tile = PARTS.with(|parts| {
            let mut parts = parts.borrow_mut();
            parts.warm.clear();
            replay::decode(
                tracer,
                decoder,
                plan,
                BLOCK,
                BLOCK,
                block.plan.selected(),
                &block.y,
                &mut parts,
            )
        });
        drop(checkout);
        tile.map(|(frame, report)| (frame, report.iterations))
    });
    drop(fanout);
    let (tiles, iterations): (Vec<Matrix>, Vec<f64>) = tiles
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|(t, it)| (t, it as f64))
        .unzip();

    let reassemble = tracer.span("core.blocks.reassemble");
    let (frame, _) = inp.grid.reassemble(&tiles).map_err(|e| e.to_string())?;
    drop(reassemble);

    let _defect = tracer.span("core.rpca.defect");
    let (gr, gc) = inp.grid.grid_shape();
    let means = Matrix::from_fn(gr, gc, |r, c| tiles[r * gc + c].mean());
    let dec = rpca(&means, &RpcaConfig::default()).map_err(|e| e.to_string())?;
    Ok((frame, outlier_indices(&dec, DEFECT_THRESHOLD), iterations))
}

fn traced(
    inp: &Inputs,
    seconds: f64,
    reference: Option<&BlockOutcome>,
    untraced_tp: f64,
) -> Outcome {
    let mut out = Outcome {
        threads: THREADS,
        op: "Mpix",
        ..Outcome::default()
    };
    let tracer = Tracer::new();
    let decoder = Decoder::default();
    let plan = Arc::new(Dct2d::new(BLOCK, BLOCK).expect("32x32 plan"));
    let pool = DecodePool::with_capacity(THREADS);
    let mut mismatches = 0usize;
    let mut iterations = Vec::new();
    let run = closed_loop(seconds, 1, |i| {
        match traced_frame(&tracer, inp, &decoder, &plan, &pool, i) {
            Ok((frame, defects, its)) => {
                iterations.extend(its);
                let same = reference.is_some_and(|r| {
                    bits(r.frame.as_slice()) == bits(frame.as_slice()) && r.defect_blocks == defects
                });
                mismatches += usize::from(!same);
                true
            }
            Err(_) => false,
        }
    });
    run.report_into(&mut out, mpix_per_frame(), |_| 0);
    out.check(
        "replay_bit_identical",
        mismatches == 0,
        format!(
            "{mismatches} of {} replayed frames differ from BlockPipeline::decode",
            run.attempted
        ),
    );

    let s = tracer.summary();
    let frames = run.attempted as f64;
    let blocks: Vec<f64> = s
        .span("core.blocks.block")
        .map(|b| b.durations_us.iter().map(|us| us / 1e3).collect())
        .unwrap_or_default();
    let solves = blocks.len() as f64;
    replay::decode_layers(&mut out, &s, solves);
    out.layer("core.blocks.block_ms_p50", percentile(&blocks, 0.50));
    out.layer("core.blocks.block_ms_p99", percentile(&blocks, 0.99));
    out.layer(
        "core.blocks.pool_wait_us",
        s.total_per("core.blocks.pool_wait", solves),
    );
    out.layer(
        "core.blocks.pool_reuse_ratio",
        pool.reuses() as f64 / pool.checkouts().max(1) as f64,
    );
    out.layer(
        "core.blocks.reassemble_ms",
        s.total_per("core.blocks.reassemble", frames) / 1e3,
    );
    out.layer(
        "core.rpca.defect_ms",
        s.total_per("core.rpca.defect", frames) / 1e3,
    );
    out.layer(
        "parallel.efficiency",
        blocks.iter().sum::<f64>() * 1e3
            / (THREADS as f64 * s.total_per("core.blocks.fanout", 1.0)),
    );
    out.layer("solver.iterations", mean(&iterations));
    out.layer(
        "trace.overhead_pct",
        (untraced_tp / out.throughput - 1.0) * 100.0,
    );
    crate::write_trace(&tracer, "megapixel_tiled");
    out
}

pub fn run(args: &Args) -> Outcome {
    let inp = inputs(args.scenario());
    if !args.trace {
        return untraced(&inp, args.seconds, SETUPS).0;
    }
    let (base, reference) = untraced(&inp, args.seconds / 2.0, SETUPS / 2);
    let mut out = traced(
        &inp,
        args.seconds / 2.0,
        reference.as_ref(),
        base.throughput,
    );
    out.checks.extend(base.checks);
    out
}
