//! Proof that the implicit `Φ_M·Ψ` operator and the decode loops built
//! on it are allocation-free once warm.
//!
//! A counting global allocator measures heap traffic on the calling
//! thread (per-thread, so tests running concurrently in this binary
//! cannot add to the count being measured): allocation calls, and live
//! and peak bytes. Three kinds of assertion:
//!
//! - an operator product through `apply_into` / `apply_transpose_into`
//!   allocates nothing after one warm-up call, on the Lee lane codelet
//!   alone (32x32, 8x32), with an upper sweep level above it (64x64),
//!   and on the dense kernel (12x12);
//! - FISTA, power iteration, a warm `Decoder` solve, an adaptive
//!   delta-tier frame and a block-tiled decode allocate exactly as
//!   often under a 10-iteration budget as under a 200-iteration one, so
//!   their iteration loops allocate nothing (whatever they allocate is
//!   per call, not per iteration);
//! - a block-tiled decode's heap peaks near one output frame: tiles
//!   fold into the frame as they finish, so neither every tile nor a
//!   frame-sized count buffer is ever held;
//! - a `DecodeWarmState` keeps no solver buffers between solves: its
//!   stream's carried solution, nothing of the per-thread workspace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `const` initialisation: no lazy-init allocation and no destructor
    // registration, so the allocator can bump them re-entrantly.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed on this thread (negative when it
    // frees memory another thread allocated), and the running maximum.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` keeps allocations made during thread teardown safe.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn track_bytes(delta: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        track_bytes(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_bytes(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        track_bytes(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by the calling thread while `f` runs.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Peak live heap bytes on the calling thread while `f` runs, above the
/// level it started from.
fn peak_bytes_during<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let start = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(start));
    let out = f();
    (PEAK_BYTES.with(Cell::get) - start, out)
}

use flexcs_core::{
    AdaptiveConfig, AdaptivePipeline, BlockGrid, BlockGridConfig, BlockPipeline,
    BlockPipelineConfig, DecodeTier, DecodeWarmState, Decoder, SamplingPlan, SubsampledDctOperator,
};
use flexcs_linalg::Matrix;
use flexcs_solver::{
    fista, power_iteration_norm, GreedyConfig, IstaConfig, LinearOperator, SolveWorkspace,
    SparseSolver,
};

/// A random ascending half-density selection over a `rows x cols` frame.
fn operator(rows: usize, cols: usize, seed: u64) -> SubsampledDctOperator {
    let n = rows * cols;
    let plan = SamplingPlan::random_subset(n, n / 2, &[], seed).unwrap();
    SubsampledDctOperator::new(rows, cols, plan.selected().to_vec()).unwrap()
}

fn smooth_frame(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        0.5 + 0.3 * ((i as f64) * 0.21).sin() + 0.2 * ((j as f64) * 0.17).cos()
    })
}

/// FISTA that runs its whole budget (`tol = 0` never triggers).
fn budget_config(max_iterations: usize) -> IstaConfig {
    let mut cfg = IstaConfig::with_lambda(1e-3);
    cfg.max_iterations = max_iterations;
    cfg.tol = 0.0;
    cfg
}

#[test]
fn operator_products_are_allocation_free_after_warmup() {
    // 32 x 32 and 8 x 32 run only the Lee lane codelet, 64 x 64 its upper
    // sweep level on top of it, and 12 x 12 the dense kernel.
    for (rows, cols) in [(32, 32), (12, 12), (64, 64), (8, 32)] {
        let op = operator(rows, cols, 7);
        let x: Vec<f64> = (0..op.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let y: Vec<f64> = (0..op.rows()).map(|i| (i as f64 * 0.7).cos()).collect();
        let (mut ax, mut aty) = (Vec::new(), Vec::new());
        // Warm-up: sizes the caller buffers and this thread's scratch.
        op.apply_into(&x, &mut ax);
        op.apply_transpose_into(&y, &mut aty);
        let (forward, ()) = allocations_during(|| {
            for _ in 0..5 {
                op.apply_into(&x, &mut ax);
            }
        });
        let (adjoint, ()) = allocations_during(|| {
            for _ in 0..5 {
                op.apply_transpose_into(&y, &mut aty);
            }
        });
        assert_eq!(forward, 0, "{rows}x{cols} apply_into allocated");
        assert_eq!(adjoint, 0, "{rows}x{cols} apply_transpose_into allocated");
    }
}

#[test]
fn fista_over_the_operator_allocates_independently_of_budget() {
    let op = operator(32, 32, 11);
    let truth: Vec<f64> = (0..op.cols())
        .map(|i| if i % 37 == 0 { 1.0 } else { 0.0 })
        .collect();
    let b = op.apply(&truth);
    let mut ws = SolveWorkspace::new();
    let counts: Vec<u64> = [10, 200]
        .into_iter()
        .map(|budget| {
            let cfg = budget_config(budget);
            fista(&op, &b, &cfg, &mut ws, None).unwrap();
            let (count, rec) = allocations_during(|| fista(&op, &b, &cfg, &mut ws, None).unwrap());
            assert_eq!(rec.report.iterations, budget, "ran the whole budget");
            count
        })
        .collect();
    assert_eq!(counts[0], counts[1], "FISTA loop allocates per iteration");
}

#[test]
fn power_iteration_allocates_independently_of_budget() {
    let op = operator(32, 32, 13);
    power_iteration_norm(&op, 10);
    let (short, _) = allocations_during(|| power_iteration_norm(&op, 10));
    let (long, _) = allocations_during(|| power_iteration_norm(&op, 200));
    assert_eq!(short, long, "power iteration allocates per iteration");
}

#[test]
fn warm_decode_allocates_independently_of_budget() {
    let (rows, cols) = (32, 32);
    let n = rows * cols;
    let plan = SamplingPlan::random_subset(n, n / 2, &[], 17).unwrap();
    let y = plan.measure(smooth_frame(rows, cols).as_slice());
    let counts: Vec<u64> = [10, 200]
        .into_iter()
        .map(|budget| {
            let decoder = Decoder::new(SparseSolver::Fista(budget_config(budget)));
            let mut state = DecodeWarmState::new();
            decoder
                .reconstruct_warm(rows, cols, plan.selected(), &y, &mut state)
                .unwrap();
            let (count, rec) = allocations_during(|| {
                decoder
                    .reconstruct_warm(rows, cols, plan.selected(), &y, &mut state)
                    .unwrap()
            });
            assert_eq!(rec.report.iterations, budget, "ran the whole budget");
            count
        })
        .collect();
    assert_eq!(counts[0], counts[1], "warm decode allocates per iteration");
}

#[test]
fn adaptive_delta_frame_allocates_independently_of_budget() {
    let (rows, cols) = (16, 16);
    let n = rows * cols;
    let plan = SamplingPlan::random_subset(n, n / 2, &[], 19).unwrap();
    let hold = plan.measure(smooth_frame(rows, cols).as_slice());
    // ~9 % relative drift: between the static and event thresholds.
    let drift: Vec<f64> = hold.iter().map(|v| 1.1 * v).collect();
    let counts: Vec<u64> = [10, 200]
        .into_iter()
        .map(|budget| {
            // The decoder's own budget is far above the delta tier's, so
            // the delta budget alone caps the drift frame's solve.
            let decoder = Decoder::new(SparseSolver::Fista(budget_config(1000)));
            let mut pipeline = AdaptivePipeline::new(AdaptiveConfig {
                delta_iteration_budget: budget,
                frame_budget_us: None,
                ..AdaptiveConfig::default()
            });
            let mut warm = DecodeWarmState::new();
            pipeline
                .decode(&decoder, rows, cols, plan.selected(), &hold, &mut warm)
                .unwrap();
            let (count, (rec, tier)) = allocations_during(|| {
                pipeline
                    .decode(&decoder, rows, cols, plan.selected(), &drift, &mut warm)
                    .unwrap()
            });
            assert_eq!(tier, DecodeTier::Delta);
            assert_eq!(rec.report.iterations, budget, "ran the whole budget");
            count
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "adaptive delta decode allocates per iteration"
    );
}

#[test]
fn block_decode_allocates_independently_of_budget() {
    // One column of two blocks: a single strip, so the decode skips the
    // RPCA defect map, whose own iteration count follows the block
    // means, which differ between the two budgets.
    let frame = smooth_frame(32, 16);
    let grid = BlockGrid::new(
        32,
        16,
        BlockGridConfig {
            block: 16,
            overlap: 0,
        },
    )
    .unwrap();
    let meas = grid.measure(&frame, 0.5, &[], 3).unwrap();
    let counts: Vec<u64> = [10, 200]
        .into_iter()
        .map(|budget| {
            // One worker: the fan-out runs inline, on the counted thread.
            let pipe = BlockPipeline::new(
                Decoder::new(SparseSolver::Fista(budget_config(budget))),
                BlockPipelineConfig { threads: Some(1) },
            );
            pipe.decode(&grid, &meas).unwrap();
            let (count, out) = allocations_during(|| pipe.decode(&grid, &meas).unwrap());
            assert!(out.reports.iter().all(|r| r.iterations == budget));
            count
        })
        .collect();
    assert_eq!(counts[0], counts[1], "block decode allocates per iteration");
}

#[test]
fn block_decode_heap_peaks_near_one_frame() {
    // 512 x 512 in 32 x 32 tiles with 4-px seams: 19 x 19 = 361 tiles,
    // whose reconstructions alone would be 1.4 x the frame's bytes.
    let side = 512;
    let frame = smooth_frame(side, side);
    let grid = BlockGrid::new(side, side, BlockGridConfig::default()).unwrap();
    assert_eq!(grid.block_count(), 361);
    let meas = grid.measure(&frame, 0.5, &[], 5).unwrap();
    // One worker: the fan-out runs inline, so every allocation of the
    // decode lands on the counted thread.
    let pipe = BlockPipeline::new(Decoder::default(), BlockPipelineConfig { threads: Some(1) });
    let (peak, out) = peak_bytes_during(|| pipe.decode(&grid, &meas).unwrap());
    assert_eq!(out.reports.len(), 361);
    let frame_bytes = (side * side * std::mem::size_of::<f64>()) as i64;
    assert!(
        peak * 4 <= frame_bytes * 5,
        "block decode peaked at {peak} heap bytes, over 1.25 x the {frame_bytes}-byte frame"
    );
}

#[test]
fn warm_states_keep_no_solver_buffers() {
    // 32 streams (serve tenants, say) each run one FISTA and one OMP
    // decode of a 32x32 frame. Each state may keep its carried
    // coefficients and little else: 2 x N f64 per state is the bound.
    let (rows, cols) = (32, 32);
    let n = rows * cols;
    let plan = SamplingPlan::random_subset(n, n / 2, &[], 23).unwrap();
    let y = plan.measure(smooth_frame(rows, cols).as_slice());
    let decoder = Decoder::default();
    let omp = SparseSolver::Omp(GreedyConfig::with_sparsity(24));
    let decode = |state: &mut DecodeWarmState| {
        decoder
            .reconstruct_warm(rows, cols, plan.selected(), &y, state)
            .unwrap();
        decoder
            .reconstruct_with_solver(&omp, rows, cols, plan.selected(), &y, state)
            .unwrap();
    };
    // Warm-up: fills the plan cache and sizes this thread's scratch.
    decode(&mut DecodeWarmState::new());
    const STATES: usize = 32;
    let mut states = Vec::with_capacity(STATES);
    let start = LIVE_BYTES.with(Cell::get);
    for _ in 0..STATES {
        let mut state = DecodeWarmState::new();
        decode(&mut state);
        states.push(state);
    }
    let kept = LIVE_BYTES.with(Cell::get) - start;
    let bound = (STATES * 2 * n * std::mem::size_of::<f64>()) as i64;
    assert!(
        kept <= bound,
        "{STATES} warm states keep {kept} heap bytes, over the {bound}-byte bound"
    );
    assert_eq!(states.len(), STATES);
}
