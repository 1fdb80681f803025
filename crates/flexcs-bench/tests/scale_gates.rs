//! Wall-clock and scale gates for the decode kernels, the serving
//! engine, the sparse MNA backend, the Monte-Carlo engine, the
//! block-tiled pipeline and the adaptive tactile-video decode.
//!
//! Every test here times or scales real work, so all are `#[ignore]`d
//! in the default suite. Run them in release, one at a time so no two
//! gates share the cores they measure:
//!
//! ```text
//! cargo test --release -p flexcs-bench --test scale_gates -- --ignored --test-threads=1
//! ```
//!
//! Thread counts are fixed in each test (4 where a gate measures a
//! parallel speedup), so the 4-thread speedup gates need a host with at
//! least 4 hardware threads. Add `--nocapture` to see the measured
//! figures; a failing gate reports them in its message either way.
//! Repeated, noise-banded throughput figures come from `perfbench/`;
//! these gates only hold each path above its floor.

use flexcs_circuit::{
    Circuit, CntTftModel, McEngine, McEngineConfig, McReport, McSample, NodeId, PtSensorModel,
    SolverPolicy, TftArray, VariationModel, Waveform,
};
use flexcs_core::{
    rmse, rpca, AdaptiveConfig, AdaptivePipeline, BlockGrid, BlockGridConfig, BlockPipeline,
    BlockPipelineConfig, DecodeTier, DecodeWarmState, Decoder, RpcaConfig, SamplingPlan,
    SamplingStrategy, StrategySession, SubsampledDctOperator, SvdPolicy, TierCounts,
};
use flexcs_linalg::{simd, vecops, Matrix};
use flexcs_serve::{Engine, EngineConfig, FrameHandle, FrameRequest, SessionConfig, Submit};
use flexcs_solver::LinearOperator;
use flexcs_transform::Dct2d;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads for every gate that measures a parallel speedup.
const THREADS: usize = 4;

/// Median of `samples` (upper median for even lengths).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median wall time of `reps` runs of `f`, in seconds, and the last
/// run's output.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps > 0, "at least one rep");
    let mut samples = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(black_box(f()));
        samples.push(t0.elapsed().as_secs_f64());
    }
    (median(&mut samples), out.expect("reps > 0"))
}

/// Bit patterns of a frame, for exact comparisons.
fn bits(frame: &Matrix) -> Vec<u64> {
    frame.as_slice().iter().map(|v| v.to_bits()).collect()
}

// ---------------------------------------------------------------------
// Decode kernels and RPCA
// ---------------------------------------------------------------------

/// Times one kernel under the scalar table and the dispatched table;
/// returns ns/call as `(scalar, dispatched)`. Each sample runs `inner`
/// calls so sub-microsecond kernels stay measurable, and the two sides'
/// samples alternate, so a slow spell of a shared host lands on both.
fn kernel_ns(inner: usize, mut scalar: impl FnMut(), mut dispatched: impl FnMut()) -> (f64, f64) {
    // Page in buffers and settle the dispatch table.
    scalar();
    dispatched();
    let sample = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..inner {
            f();
        }
        t0.elapsed().as_secs_f64() / inner as f64 * 1e9
    };
    let (mut s, mut d) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        s.push(sample(&mut scalar));
        d.push(sample(&mut dispatched));
    }
    (median(&mut s), median(&mut d))
}

#[test]
#[ignore = "wall-clock gate: run in release by CI scale-gates"]
fn decode_kernels_rpca_and_warm_resample() {
    // Resample-median, 10 rounds on a 32x32 frame, cold vs through a
    // warm-decode session. The session persists across reps, so the
    // timed calls measure the steady state of a warm stream.
    let frame32 = Matrix::from_fn(32, 32, |i, j| {
        0.5 + 0.3 * ((i as f64) * 0.4).sin() + 0.2 * ((j as f64) * 0.3).cos()
    });
    let decoder = Decoder::default();
    let strategy = SamplingStrategy::ResampleMedian { rounds: 10 };
    strategy.reconstruct(&frame32, 500, &decoder, 5).unwrap();
    let (cold_s, _) = median_secs(5, || {
        strategy.reconstruct(&frame32, 500, &decoder, 5).unwrap()
    });
    let mut session = StrategySession::new(strategy.clone()).with_warm_decode();
    session.reconstruct(&frame32, 500, &decoder, 5).unwrap();
    let (warm_s, _) = median_secs(5, || {
        session.reconstruct(&frame32, 500, &decoder, 5).unwrap()
    });
    let warm_speedup = cold_s / warm_s;

    // RPCA on a 64x64 smooth (low-rank) field with sparse stuck
    // pixels: exact Jacobi vs the randomized truncated SVD.
    let n64 = 64usize;
    let mut frame64 = Matrix::from_fn(n64, n64, |i, j| {
        0.5 + 0.3 * ((i as f64) * 0.19).sin()
            + 0.2 * ((j as f64) * 0.23).cos()
            + 0.1 * ((i as f64) * 0.11).cos() * ((j as f64) * 0.07).sin()
    });
    for k in 0..200 {
        let idx = (k * 131 + 17) % (n64 * n64);
        frame64[(idx / n64, idx % n64)] = if k % 2 == 0 { 1.0 } else { 0.0 };
    }
    let exact_cfg = RpcaConfig {
        svd: SvdPolicy::Exact,
    };
    let rsvd_cfg = RpcaConfig::default(); // Auto: randomized at 64x64
    assert!(rpca(&frame64, &exact_cfg).unwrap().converged);
    assert!(rpca(&frame64, &rsvd_cfg).unwrap().converged);
    let (exact_s, _) = median_secs(3, || rpca(&frame64, &exact_cfg).unwrap());
    let (rsvd_s, _) = median_secs(5, || rpca(&frame64, &rsvd_cfg).unwrap());
    let rpca_speedup = exact_s / rsvd_s;

    // Per-kernel scalar vs dispatched on n = 2048 slices (L1-resident,
    // the size regime of the solver's inner loops). Elementwise kernels
    // write into per-table scratch; reductions black_box their inputs
    // and result so the statically known fn pointers cannot fold away.
    let nk = 2048usize;
    let ka: Vec<f64> = (0..nk).map(|i| ((i as f64) * 0.13).sin()).collect();
    let kb: Vec<f64> = (0..nk).map(|i| ((i as f64) * 0.29).cos()).collect();
    let kc: Vec<f64> = (0..nk).map(|i| ((i as f64) * 0.07).sin() * 0.5).collect();
    let inner = 400usize;
    let scal = simd::scalar_kernels();
    // Every vector table the host can run, each row labelled with its
    // lane width: on an AVX-512 host the 8-lane table's rows print next
    // to the AVX2 table's 4-lane ones (it runs `fista_step` and
    // `transpose` 8 lanes wide and copies the other rows' kernels).
    let mask: Vec<u64> = (0..nk)
        .map(|i| if i % 3 == 0 { 0 } else { u64::MAX })
        .collect();
    let (tr, tc) = (32usize, 32usize);
    let mut rows: Vec<(String, (f64, f64))> = Vec::new();
    for k in simd::host_kernel_tables() {
        if k.tier == scal.tier {
            continue;
        }
        let label = |name: &str| format!("{name} ({} lanes)", k.codelet_lanes);
        let (mut ys, mut yd) = (kb.clone(), kb.clone());
        rows.push((
            label("axpy"),
            kernel_ns(
                inner,
                || (scal.axpy)(0.5, black_box(&ka), black_box(&mut ys[..])),
                || (k.axpy)(0.5, black_box(&ka), black_box(&mut yd[..])),
            ),
        ));
        rows.push((
            label("dot"),
            kernel_ns(
                inner,
                || {
                    black_box((scal.dot)(black_box(&ka), black_box(&kb)));
                },
                || {
                    black_box((k.dot)(black_box(&ka), black_box(&kb)));
                },
            ),
        ));
        let (mut ps, mut pd) = (vec![0.0; nk], vec![0.0; nk]);
        rows.push((
            label("fista_step"),
            kernel_ns(
                inner,
                || {
                    black_box((scal.fista_step)(
                        black_box(&mut ps[..]),
                        &ka,
                        &kb,
                        &kc,
                        0.05,
                        0.01,
                    ));
                },
                || {
                    black_box((k.fista_step)(
                        black_box(&mut pd[..]),
                        &ka,
                        &kb,
                        &kc,
                        0.05,
                        0.01,
                    ));
                },
            ),
        ));
        let (mut ms, mut md) = (vec![0.0; nk], vec![0.0; nk]);
        rows.push((
            label("momentum"),
            kernel_ns(
                inner,
                || (scal.momentum)(black_box(&mut ms[..]), &ka, &kb, 0.7),
                || (k.momentum)(black_box(&mut md[..]), &ka, &kb, 0.7),
            ),
        ));
        let (mut bs, mut bd) = (vec![0.0; nk], vec![0.0; nk]);
        rows.push((
            label("sub"),
            kernel_ns(
                inner,
                || (scal.sub)(black_box(&mut bs[..]), &ka, &kb),
                || (k.sub)(black_box(&mut bd[..]), &ka, &kb),
            ),
        ));
        // In place, so the residual drifts by `kb` per call: bounded
        // over the timed calls.
        let (mut vs, mut vd) = (ka.clone(), ka.clone());
        rows.push((
            label("masked_sub"),
            kernel_ns(
                inner,
                || (scal.masked_sub)(black_box(&mut vs[..]), &kb, &mask),
                || (k.masked_sub)(black_box(&mut vd[..]), &kb, &mask),
            ),
        ));
        let (mut ts, mut td) = (vec![0.0; tr * tc], vec![0.0; tr * tc]);
        rows.push((
            label("transpose 32x32"),
            kernel_ns(
                inner,
                || (scal.transpose)(black_box(&ka[..tr * tc]), &mut ts, tr, tc),
                || (k.transpose)(black_box(&ka[..tr * tc]), &mut td, tr, tc),
            ),
        ));
        let (mut ss, mut sd) = (vec![0.0; nk], vec![0.0; nk]);
        rows.push((
            label("sub_add_scaled"),
            kernel_ns(
                inner,
                || (scal.sub_add_scaled)(black_box(&mut ss[..]), &ka, &kb, &kc, 0.25),
                || (k.sub_add_scaled)(black_box(&mut sd[..]), &ka, &kb, &kc, 0.25),
            ),
        ));
        let (mut hs, mut hd) = (vec![0.0; nk], vec![0.0; nk]);
        rows.push((
            label("sub_add_scaled_shrink"),
            kernel_ns(
                inner,
                || (scal.sub_add_scaled_shrink)(black_box(&mut hs[..]), &ka, &kb, &kc, 0.25, 0.1),
                || (k.sub_add_scaled_shrink)(black_box(&mut hd[..]), &ka, &kb, &kc, 0.25, 0.1),
            ),
        ));
    }
    let tier = simd::tier_name();

    // The Lee lane codelets on a 32x32 frame (32 lanes of length 32, the
    // decode path's block size), each transforming its buffer in place,
    // on every vector table the host can run.
    // Orthonormal scales keep the repeated transforms bounded, so no
    // timed call meets an infinity or NaN.
    let (n, w) = (32usize, 32usize);
    let (inv_tw, cos_tw) = lee_twiddles(n);
    let (a0, ak) = ((1.0 / n as f64).sqrt(), (2.0 / n as f64).sqrt());
    let frame: Vec<f64> = (0..n * w).map(|i| ((i as f64) * 0.37).sin()).collect();
    let mut codelet_rows = Vec::new();
    for k in simd::host_kernel_tables() {
        if k.tier == scal.tier {
            continue;
        }
        let (mut fs, mut fd) = (frame.clone(), frame.clone());
        let (mut is, mut id) = (frame.clone(), frame.clone());
        codelet_rows.push((
            format!("lee_forward_lanes ({} lanes)", k.codelet_lanes),
            LEE_FORWARD_FLOOR,
            kernel_ns(
                inner,
                || (scal.lee_forward_lanes)(black_box(&mut fs[..]), w, &inv_tw, a0, ak),
                || (k.lee_forward_lanes)(black_box(&mut fd[..]), w, &inv_tw, a0, ak),
            ),
        ));
        codelet_rows.push((
            format!("lee_inverse_lanes ({} lanes)", k.codelet_lanes),
            LEE_INVERSE_FLOOR,
            kernel_ns(
                inner,
                || (scal.lee_inverse_lanes)(black_box(&mut is[..]), w, &cos_tw, 1.0 / a0, 1.0 / ak),
                || (k.lee_inverse_lanes)(black_box(&mut id[..]), w, &cos_tw, 1.0 / a0, 1.0 / ak),
            ),
        ));
    }

    println!(
        "warm resample {warm_speedup:.2}x ({:.1} -> {:.1} ms), rpca rsvd {rpca_speedup:.2}x \
         ({:.2} -> {:.2} ms), tier {tier}",
        cold_s * 1e3,
        warm_s * 1e3,
        exact_s * 1e3,
        rsvd_s * 1e3
    );
    assert!(
        rpca_speedup >= 1.0,
        "rsvd/exact RPCA speedup {rpca_speedup:.2} < 1.0"
    );
    assert!(
        warm_speedup >= 1.0,
        "warm/cold resample speedup {warm_speedup:.2} < 1.0"
    );

    // Compute-bound kernels carry named floors over the scalar tier: a
    // vector tier that is not really vectorized reads about 1x there.
    // The memory-bound rows stream two to four slices per multiply and
    // read 1.1-2.4x on a 2-vCPU x86_64 host, so they are printed only.
    let mut gated: Vec<(String, f64, (f64, f64))> = Vec::new();
    for (name, times) in rows {
        match KERNEL_FLOORS
            .iter()
            .find(|(kernel, _)| name.split(' ').next() == Some(*kernel))
        {
            Some(&(_, floor)) => gated.push((name, floor, times)),
            _ => {
                let (s, d) = times;
                println!(
                    "kernel {name}: scalar {s:.1} ns, dispatched {d:.1} ns, {:.2}x (not gated)",
                    s / d
                );
            }
        }
    }
    gated.extend(codelet_rows);
    for (name, floor, (s, d)) in &gated {
        println!(
            "kernel {name}: scalar {s:.1} ns, dispatched {d:.1} ns, {:.2}x (floor {floor}x)",
            s / d
        );
    }
    for (name, floor, (s, d)) in &gated {
        let speedup = s / d;
        assert!(
            speedup >= *floor,
            "tier {tier}: {name} {speedup:.2}x over scalar (need >= {floor}x)"
        );
    }
}

/// Least speedup of one fused FISTA gradient over the unfused
/// composition it replaced, on a 32x32 operator sampling 512 pixels:
/// the fused pass must not be slower. On a 2-vCPU x86_64 host with
/// avx512f, eight runs read 1.15–1.29× (median 1.19×) with the 8-lane
/// table and 1.02–1.17× (median 1.09×) with the 4-lane AVX2 table, so
/// the floor sits below both.
const FUSED_GRADIENT_FLOOR: f64 = 1.0;

/// The layer the fused gradient moved: `LinearOperator::gradient_into`
/// on the subsampled DCT operator (one inverse DCT, a masked subtract in
/// the staging layout, one forward DCT) against the `apply_into` →
/// `sub_into` → `apply_transpose_into` composition FISTA ran before,
/// with its gather, zero fill and scatter. Both sides must agree bit for
/// bit; the two time in alternating samples.
#[test]
#[ignore = "wall-clock gate: run in release by CI scale-gates"]
fn fused_gradient_beats_unfused_composition() {
    let (rows, cols, m) = (32usize, 32usize, 512usize);
    let n = rows * cols;
    let plan = SamplingPlan::random_subset(n, m, &[], 7).unwrap();
    let op = SubsampledDctOperator::new(rows, cols, plan.selected().to_vec()).unwrap();
    let y: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() * 0.1).collect();
    let b: Vec<f64> = (0..m).map(|i| ((i as f64) * 0.53).cos()).collect();
    let mut staged = Vec::new();
    op.stage_measurements(&b, &mut staged);
    let (mut ax, mut r, mut unfused) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fax, mut fr, mut fused) = (Vec::new(), Vec::new(), Vec::new());
    let (unfused_ns, fused_ns) = kernel_ns(
        200,
        || {
            op.apply_into(black_box(&y), &mut ax);
            vecops::sub_into(&mut r, &ax, &b);
            op.apply_transpose_into(&r, black_box(&mut unfused));
        },
        || {
            op.gradient_into(
                black_box(&y),
                &staged,
                &mut fax,
                &mut fr,
                black_box(&mut fused),
            )
        },
    );
    let same = unfused
        .iter()
        .zip(&fused)
        .all(|(u, f)| u.to_bits() == f.to_bits());
    assert!(same && unfused.len() == n, "fused gradient changed bits");
    let speedup = unfused_ns / fused_ns;
    println!(
        "gradient 32x32, M = {m}: unfused {:.2} us, fused {:.2} us, {speedup:.2}x \
         (floor {FUSED_GRADIENT_FLOOR}x), tier {} ({} lanes)",
        unfused_ns * 1e-3,
        fused_ns * 1e-3,
        simd::tier_name(),
        simd::codelet_lanes()
    );
    assert!(
        speedup >= FUSED_GRADIENT_FLOOR,
        "fused gradient {speedup:.2}x over the unfused composition (need >= {FUSED_GRADIENT_FLOOR}x)"
    );
}

/// Least speedups over the scalar tier that the compute-bound n = 2048
/// kernels must show on every vector table the host can run.
const KERNEL_FLOORS: [(&str, f64); 2] = [("dot", 2.0), ("fista_step", 2.0)];

/// Least speedup over the scalar tier that the 32-point forward lane
/// codelet must show on every vector table the host can run.
const LEE_FORWARD_FLOOR: f64 = 2.0;

/// Least speedup over the scalar tier that the 32-point inverse lane
/// codelet must show on every vector table the host can run. The 4-lane
/// AVX2 inverse reads 2.0-2.8x on a 2-vCPU x86_64 host and the 8-lane
/// AVX-512 one 3.0-4.7x, so the floor sits below both.
const LEE_INVERSE_FLOOR: f64 = 1.5;

/// Codelet twiddles for length `n`, level by level from `m = n` down to
/// `m = 2`: reciprocal twiddles `0.5 / cos((i + 0.5)·π / m)` (forward)
/// and doubled cosines `2·cos((i + 0.5)·π / m)` (inverse).
fn lee_twiddles(n: usize) -> (Vec<f64>, Vec<f64>) {
    let (mut inv, mut twice_cos) = (Vec::new(), Vec::new());
    let mut m = n;
    while m >= 2 {
        for i in 0..m / 2 {
            let c = ((i as f64 + 0.5) * std::f64::consts::PI / m as f64).cos();
            inv.push(0.5 / c);
            twice_cos.push(2.0 * c);
        }
        m /= 2;
    }
    (inv, twice_cos)
}

// ---------------------------------------------------------------------
// Serving engine vs a naive thread-per-frame service
// ---------------------------------------------------------------------

/// Sensor streams in the serving gate.
const SERVE_STREAMS: usize = 1000;
/// Frames per stream in the serving gate.
const FRAMES_PER_STREAM: usize = 3;
/// Fraction of pixels measured per served frame.
const SERVE_DENSITY: f64 = 0.5;

/// One stream's requests: frame `t` drifts the DCT coefficients
/// slightly, so consecutive frames are correlated (warm starts engage)
/// but not identical. Only the compressed measurements travel.
fn stream_requests(dct: &Dct2d, frames: usize, stream_seed: u64) -> Vec<FrameRequest> {
    let (rows, cols) = dct.shape();
    let n = rows * cols;
    let m = ((n as f64) * SERVE_DENSITY) as usize;
    (0..frames)
        .map(|t| {
            let mut coeffs = Matrix::zeros(rows, cols);
            let drift = t as f64 * 0.05;
            coeffs[(0, 0)] = 4.0 + drift * ((stream_seed % 7) as f64);
            coeffs[(1, 0)] = 1.5 - drift;
            coeffs[(0, 2)] = -1.0 + 0.3 * ((stream_seed as f64 + t as f64) * 0.7).sin();
            coeffs[(2, 1)] = 0.8 + 0.1 * ((stream_seed as f64) * 0.3).cos();
            let frame = dct.inverse(&coeffs).unwrap();
            let plan = SamplingPlan::random_subset(n, m, &[], stream_seed * 31 + t as u64).unwrap();
            FrameRequest {
                rows,
                cols,
                selected: plan.selected().to_vec(),
                y: plan.measure(&frame.to_flat()),
            }
        })
        .collect()
}

/// Submits, retrying on backpressure.
fn submit_with_retry(engine: &Engine, tenant: usize, req: &FrameRequest) -> FrameHandle {
    loop {
        match engine
            .submit(tenant, req.clone())
            .expect("engine is running")
        {
            Submit::Accepted(handle) => return handle,
            // Give the workers a slice to drain the queue.
            Submit::Rejected { .. } => std::thread::sleep(Duration::from_micros(100)),
        }
    }
}

/// Drives every stream through a 4-worker engine, round-robin across
/// tenants so per-tenant frames arrive in order, and waits for every
/// frame. Asserts the run's completion and latency invariants (p50/p99
/// by nearest rank over every frame's own `DecodedFrame::latency`) and
/// returns frames per second.
fn engine_fps(streams: &[Vec<FrameRequest>]) -> f64 {
    let engine = Engine::new(EngineConfig {
        workers: THREADS,
        queue_capacity: 8,
        ..EngineConfig::default()
    });
    let tenants: Vec<usize> = (0..streams.len())
        .map(|i| engine.register_tenant(SessionConfig::named(format!("s{i}"))))
        .collect();
    let total: usize = streams.iter().map(Vec::len).sum();
    let (secs, mut latencies) = median_secs(1, || {
        let mut handles = Vec::with_capacity(total);
        for f in 0..FRAMES_PER_STREAM {
            for (stream, &tenant) in streams.iter().zip(&tenants) {
                handles.push(submit_with_retry(&engine, tenant, &stream[f]));
            }
        }
        handles
            .into_iter()
            .map(|handle| {
                let frame = handle.wait().expect("decode succeeds");
                black_box(frame.report.iterations);
                frame.latency
            })
            .collect::<Vec<Duration>>()
    });
    let metrics = engine.metrics();
    engine.shutdown();
    let fps = total as f64 / secs;
    latencies.sort_unstable();
    let rank_ms = |q: f64| {
        let rank = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[rank].as_secs_f64() * 1e3
    };
    let (p50, p99) = (rank_ms(0.50), rank_ms(0.99));
    println!("engine {fps:.0} fps, p50 {p50:.2} ms, p99 {p99:.2} ms");
    assert_eq!(metrics.completed() as usize, total, "every frame completes");
    assert_eq!(metrics.failed, 0, "no frame fails");
    assert!(
        fps > 0.0 && p99 > 0.0,
        "serve fps {fps} and p99 {p99} must be positive"
    );
    assert!(p50 <= p99, "serve p50 {p50} ms exceeds p99 {p99} ms");
    fps
}

/// The service design the engine replaces: one OS thread per frame,
/// each cold-decoding on a fresh decoder. Returns frames per second.
fn naive_fps(streams: &[Vec<FrameRequest>]) -> f64 {
    let total: usize = streams.iter().map(Vec::len).sum();
    let decode = |req: &FrameRequest| {
        let rec = Decoder::default()
            .reconstruct(req.rows, req.cols, &req.selected, &req.y)
            .expect("decode succeeds");
        black_box(rec.report.iterations);
    };
    let (secs, ()) = median_secs(1, || {
        let mut joins = Vec::with_capacity(total);
        for req in streams.iter().flatten() {
            let owned = req.clone();
            let spawned = std::thread::Builder::new()
                .name("naive-decode".into())
                .stack_size(512 * 1024)
                .spawn(move || decode(&owned));
            match spawned {
                Ok(join) => joins.push(join),
                // Thread limit hit: decode inline so the baseline
                // still finishes every frame.
                Err(_) => decode(req),
            }
        }
        for join in joins {
            join.join().expect("naive decode thread panicked");
        }
    });
    total as f64 / secs
}

#[test]
#[ignore = "wall-clock gate: run in release by CI scale-gates"]
fn serve_engine_beats_naive_thread_per_frame() {
    // Mixed shapes: mostly 16x16, every fourth stream 8x8.
    let dct16 = Dct2d::new(16, 16).unwrap();
    let dct8 = Dct2d::new(8, 8).unwrap();
    let streams: Vec<Vec<FrameRequest>> = (0..SERVE_STREAMS)
        .map(|i| {
            let dct = if i % 4 == 3 { &dct8 } else { &dct16 };
            stream_requests(dct, FRAMES_PER_STREAM, i as u64 + 1)
        })
        .collect();
    let served = engine_fps(&streams);
    let naive = naive_fps(&streams);
    let speedup = served / naive;
    println!("naive {naive:.0} fps; engine/naive {speedup:.2}x");
    assert!(
        speedup >= 1.5,
        "engine/naive {speedup:.2} < 1.5 (engine no longer beats the naive baseline)"
    );
}

// ---------------------------------------------------------------------
// Sparse MNA backend: 8x8 dense vs sparse, 32x32 and 64x64 scans
// ---------------------------------------------------------------------

/// Deterministic synthetic temperature scene in `[0, 1]`: smooth plus a
/// hot spot, like the paper's thermal maps.
fn scene(rows: usize, cols: usize) -> Vec<f64> {
    let mut s = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let x = c as f64 / cols.max(2) as f64;
            let y = r as f64 / rows.max(2) as f64;
            let smooth =
                0.4 + 0.3 * (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin();
            let hot = if (x - 0.7).abs() < 0.1 && (y - 0.3).abs() < 0.1 {
                0.3
            } else {
                0.0
            };
            s.push((smooth + hot).clamp(0.0, 1.0));
        }
    }
    s
}

fn array(rows: usize, cols: usize) -> TftArray {
    TftArray::build(rows, cols, &scene(rows, cols)).expect("array builds")
}

/// Scans `array` under `policy` once per rep; returns the median
/// seconds and the row voltages of every scan cycle.
fn timed_scan(array: &TftArray, policy: SolverPolicy, reps: usize) -> (f64, Vec<f64>) {
    let (secs, result) = median_secs(reps, || array.scan_with(policy).expect("scan converges"));
    (secs, result.flattened_voltages())
}

#[test]
#[ignore = "wall-clock gate: run in release by CI scale-gates"]
fn mna_sparse_beats_dense_and_scans_32x32() {
    // Overlapping size: both backends on the identical netlist.
    let small = array(8, 8);
    let (dense_s, dense) = timed_scan(&small, SolverPolicy::Dense, 3);
    let (sparse_s, sparse) = timed_scan(&small, SolverPolicy::Sparse, 3);
    let speedup = dense_s / sparse_s;
    let max_dev = dense
        .iter()
        .zip(&sparse)
        .map(|(d, s)| (d - s).abs())
        .fold(0.0f64, f64::max);

    // Full 32x32 array with its column scanner: sparse only (dense is
    // O(n^3) per Newton iteration at n in the thousands).
    let full = array(32, 32);
    let (dim, nnz) = full.circuit().mna_sparsity();
    let nnz_frac = nnz as f64 / (dim as f64 * dim as f64);
    let (scan_s, _) = timed_scan(&full, SolverPolicy::Sparse, 1);

    println!(
        "8x8 dense/sparse {speedup:.2}x, max dev {max_dev:.3e}; 32x32 ({} TFTs, {dim} \
         unknowns, nnz {nnz_frac:.5}) scan {scan_s:.1} s",
        full.tft_count()
    );
    assert!(
        speedup >= 2.0,
        "8x8 dense/sparse speedup {speedup:.2} < 2.0"
    );
    assert!(
        max_dev <= 1e-9,
        "dense-vs-sparse row-voltage deviation {max_dev:e} > 1e-9"
    );
    // 60 s leaves slack for slow shared runners while still catching
    // an O(n^3) regression (the dense path would take tens of minutes).
    assert!(
        scan_s <= 60.0,
        "32x32 sparse scan took {scan_s:.1} s (> 60 s)"
    );
    assert!(
        0.0 < nnz_frac && nnz_frac < 0.05,
        "32x32 Jacobian density {nnz_frac} out of the sparse regime"
    );
}

#[test]
#[ignore = "wall-clock gate: run in release by CI scale-gates"]
fn scan64_fits_budget() {
    // Paper-scale array through the sparse backend with flush-based
    // power-up.
    let big = array(64, 64);
    let tfts = big.tft_count();
    let (scan_s, _) = timed_scan(&big, SolverPolicy::Sparse, 1);
    println!(
        "64x64 ({tfts} TFTs, {} unknowns) scan {scan_s:.1} s",
        big.unknowns()
    );
    assert!(
        scan_s <= 180.0,
        "64x64 sparse scan took {scan_s:.1} s (> 180 s)"
    );
    assert!(
        tfts > 5000,
        "64x64 array lost its transistors ({tfts} TFTs)"
    );
}

// ---------------------------------------------------------------------
// Monte-Carlo engine
// ---------------------------------------------------------------------

/// Rows/cols of the Monte-Carlo readout column: 256 pixels, past the
/// sparse crossover so the sweep exercises the shared-symbolic path.
const MC_SIDE: usize = 16;
const MC_TRIALS: usize = 500;
const MC_VDD: f64 = 3.0;

/// One statically selected column of a `side x side` pixel array:
/// column 0's active-low select is tied on, every other column off, so
/// one DC solve reads the whole selected column through its access
/// TFTs. `model` supplies each access TFT's compact model in raster
/// order.
fn static_readout_circuit(
    side: usize,
    mut model: impl FnMut() -> CntTftModel,
) -> flexcs_circuit::Result<(Circuit, Vec<NodeId>)> {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.add_vsource(vdd, NodeId::GROUND, Waveform::Dc(MC_VDD));
    let sels: Vec<NodeId> = (0..side)
        .map(|c| {
            let n = ckt.node(&format!("sel{c}"));
            // p-type: gate low = V_sg = VDD (on); gate at VDD = off.
            ckt.add_vsource(
                n,
                NodeId::GROUND,
                Waveform::Dc(if c == 0 { 0.0 } else { MC_VDD }),
            );
            n
        })
        .collect();
    let rows: Vec<NodeId> = (0..side).map(|r| ckt.node(&format!("row{r}"))).collect();
    for &rl in &rows {
        ckt.add_resistor(rl, NodeId::GROUND, 10_000.0)?;
    }
    let sensor = PtSensorModel::default();
    for (r, &row) in rows.iter().enumerate() {
        for (c, &sel) in sels.iter().enumerate() {
            let x = ckt.fresh_node("px");
            ckt.add_tft_with_model(sel, x, vdd, 20.0, model())?;
            let t = 20.0 + 20.0 * ((r * side + c) as f64 / (side * side) as f64);
            ckt.add_resistor(x, row, sensor.resistance(t))?;
        }
    }
    Ok((ckt, rows))
}

/// Runs the yield sweep on `engine`; returns median seconds and the
/// report. A trial passes when every row readout of the selected
/// column stays within 25 mV of the nominal readout.
fn mc_sweep(engine: &McEngine, nominal_rows: &[f64]) -> (f64, McReport) {
    let variation = VariationModel::default();
    median_secs(1, || {
        engine
            .run(MC_TRIALS, 0x5eed_2020, |trial| {
                let (ckt, rows) = static_readout_circuit(MC_SIDE, || {
                    trial.perturb(&variation, &CntTftModel::default())
                })?;
                let op = trial.dc(&ckt)?;
                let worst = rows
                    .iter()
                    .zip(nominal_rows)
                    .map(|(&n, &v0)| (op.voltage(n) - v0).abs())
                    .fold(0.0f64, f64::max);
                Ok(McSample {
                    value: worst,
                    pass: worst < 0.025,
                })
            })
            .expect("MC sweep converges")
    })
}

#[test]
#[ignore = "wall-clock gate: run in release by CI scale-gates"]
fn mc_engine_beats_serial_cold() {
    let (nom_ckt, nom_rows) =
        static_readout_circuit(MC_SIDE, CntTftModel::default).expect("nominal circuit builds");
    let nom_op = nom_ckt
        .dc_operating_point()
        .expect("nominal readout converges");
    let nominal: Vec<f64> = nom_rows.iter().map(|&n| nom_op.voltage(n)).collect();

    // Serial cold-factor baseline: one thread, no symbolic sharing, no
    // warm starts.
    let (serial_s, serial) = mc_sweep(&McEngine::serial_cold(), &nominal);
    let engine = |threads| {
        McEngine::new(McEngineConfig {
            threads: Some(threads),
        })
    };
    let (par_s, par) = mc_sweep(&engine(THREADS), &nominal);
    let (_, one) = mc_sweep(&engine(1), &nominal);
    let speedup = serial_s / par_s;
    let yield_frac = par.stats.yield_fraction();

    println!(
        "MC {MC_TRIALS} samples: serial cold {serial_s:.2} s, {THREADS} threads {par_s:.2} s \
         ({speedup:.2}x), {} refactors, {} Newton iterations saved, yield {yield_frac:.4}",
        par.refactors, par.warm_newton_saved
    );
    assert!(
        speedup >= 2.0,
        "{THREADS}-thread MC speedup {speedup:.2} < 2.0 over serial cold"
    );
    // Same config at 1 thread reproduces the parallel run bit for bit.
    assert!(
        one.stats == par.stats,
        "MC stats diverged between 1 and {THREADS} threads"
    );
    assert_eq!(one.refactors, par.refactors);
    assert_eq!(one.warm_newton_saved, par.warm_newton_saved);
    assert!(par.refactors > 0, "MC engine recorded no refactorizations");
    assert!(
        par.warm_newton_saved > 0,
        "nominal-seeded warm starts saved no Newton iterations"
    );
    // Cold and warm configs agree statistically, not bitwise: verdicts
    // may flip only for trials within Newton tolerance of the threshold.
    assert!(
        serial.stats.passes.abs_diff(par.stats.passes) <= 2,
        "cold ({}) and warm ({}) engines disagree on yield beyond borderline trials",
        serial.stats.passes,
        par.stats.passes
    );
    assert!(
        (0.0..=1.0).contains(&yield_frac),
        "yield {yield_frac} out of range"
    );
}

// ---------------------------------------------------------------------
// Block-tiled pipeline
// ---------------------------------------------------------------------

/// Fraction of pixels measured per block (the paper's ~50 % regime).
const BLOCK_DENSITY: f64 = 0.5;
const GRID: BlockGridConfig = BlockGridConfig {
    block: 32,
    overlap: 4,
};

/// A smooth, DCT-compressible field at megapixel scale.
fn smooth_frame(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        0.5 + 0.3 * ((i as f64) * 0.013).sin()
            + 0.2 * ((j as f64) * 0.017).cos()
            + 0.15 * (((i + j) as f64) * 0.008).sin()
    })
}

fn block_pipeline(threads: usize) -> BlockPipeline {
    BlockPipeline::new(
        Decoder::default(),
        BlockPipelineConfig {
            threads: Some(threads),
        },
    )
}

/// Seconds for `THREADS` workers each running 200 forward transforms
/// on the plan `make_plan` hands them (shared `Arc` or own clone).
fn dct_fanout_secs(make_plan: impl Fn() -> Arc<Dct2d>) -> f64 {
    let frame = smooth_frame(32, 32);
    median_secs(5, || {
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let plan = make_plan();
                let frame = &frame;
                scope.spawn(move || {
                    for _ in 0..200 {
                        black_box(plan.forward(black_box(frame)).unwrap());
                    }
                });
            }
        })
    })
    .0
}

#[test]
#[ignore = "wall-clock gate: run in release by CI scale-gates"]
fn block_fanout_scales() {
    // Thread-local plan scratch: a shared plan must not serialize the
    // fan-out against per-thread clones.
    let shared = Arc::new(Dct2d::new(32, 32).unwrap());
    let shared_s = dct_fanout_secs(|| Arc::clone(&shared));
    let cloned_s = dct_fanout_secs(|| Arc::new((*shared).clone()));
    let dct_ratio = shared_s / cloned_s;

    // 256x256 tiled into 81 blocks: 1 worker vs 4.
    let frame = smooth_frame(256, 256);
    let grid = BlockGrid::new(256, 256, GRID).unwrap();
    let meas = grid.measure(&frame, BLOCK_DENSITY, &[], 11).unwrap();
    let serial_pipe = block_pipeline(1);
    let par_pipe = block_pipeline(THREADS);
    let (serial_s, serial) = median_secs(3, || serial_pipe.decode(&grid, &meas).unwrap());
    let (par_s, par) = median_secs(3, || par_pipe.decode(&grid, &meas).unwrap());
    let speedup = serial_s / par_s;

    println!(
        "DCT shared/cloned {dct_ratio:.2}; 256x256 1 worker {:.1} ms, {THREADS} workers {:.1} ms \
         ({speedup:.2}x)",
        serial_s * 1e3,
        par_s * 1e3
    );
    assert!(
        dct_ratio <= 2.0,
        "shared-plan DCT fan-out is serializing (shared/cloned {dct_ratio:.2} > 2.0)"
    );
    assert_eq!(
        bits(&par.frame),
        bits(&serial.frame),
        "{THREADS}-worker tiled decode must be bit-identical to 1 worker"
    );
    assert!(
        speedup >= 2.0,
        "{THREADS}-worker block speedup {speedup:.2} < 2.0"
    );
}

#[test]
#[ignore = "scale gate: run in release by CI scale-gates"]
fn block_tiling_accuracy_and_megapixel_defect_map() {
    // 256x256 tiled vs the same frame decoded untiled as one field.
    let side = 256;
    let frame = smooth_frame(side, side);
    let grid = BlockGrid::new(side, side, GRID).unwrap();
    let meas = grid.measure(&frame, BLOCK_DENSITY, &[], 11).unwrap();
    let tiled_rmse = rmse(
        &block_pipeline(THREADS).decode(&grid, &meas).unwrap().frame,
        &frame,
    );
    let n = side * side;
    let plan =
        SamplingPlan::random_subset(n, ((n as f64) * BLOCK_DENSITY) as usize, &[], 11).unwrap();
    let untiled = Decoder::default()
        .reconstruct(side, side, plan.selected(), &plan.measure(&frame.to_flat()))
        .unwrap()
        .frame;
    let parity = (tiled_rmse - rmse(&untiled, &frame)).abs();

    // 1024x1024 with a 24x24 stuck-high patch sized to dominate one
    // block's mean.
    let mega = 1024;
    let mut mega_frame = smooth_frame(mega, mega);
    let patch = (mega / 2, mega / 3);
    for dr in 0..24 {
        for dc in 0..24 {
            mega_frame[(patch.0 + dr, patch.1 + dc)] = 1.0;
        }
    }
    let mega_grid = BlockGrid::new(mega, mega, GRID).unwrap();
    let mega_meas = mega_grid
        .measure(&mega_frame, BLOCK_DENSITY, &[], 29)
        .unwrap();
    let mega_pipe = block_pipeline(THREADS);
    let out = mega_pipe.decode(&mega_grid, &mega_meas).unwrap();
    let mega_rmse = rmse(&out.frame, &mega_frame);

    println!(
        "256x256 tiled rmse {tiled_rmse:.5} (parity gap {parity:.5}); 1024x1024 rmse \
         {mega_rmse:.5}, {} defect blocks",
        out.defect_blocks.len()
    );
    assert!(parity <= 0.02, "tiled-vs-untiled RMSE gap {parity} > 0.02");
    assert!(tiled_rmse <= 0.05, "256x256 tiled rmse {tiled_rmse} > 0.05");
    assert!(
        mega_rmse <= 0.05,
        "1024x1024 block decode rmse {mega_rmse} > 0.05"
    );
    assert!(
        !out.defect_blocks.is_empty(),
        "RPCA block-mean defect map missed the stuck-pixel patch"
    );
}

// ---------------------------------------------------------------------
// Adaptive tactile-video decode
// ---------------------------------------------------------------------

const VIDEO_SIDE: usize = 32;
const VIDEO_FRAMES: usize = 360;

/// Scripted tactile stream as sparse DCT codes: long static holds, a
/// slide, an abrupt sparse touch, a rotation and a dense scene change.
/// Holds repeat the previous frame exactly; slides move energy between
/// a fixed pair of coefficients; the touch adds a few support positions
/// at once; the dense event activates far more coefficients than the
/// greedy tier accepts.
fn storyboard(total: usize) -> Vec<Matrix> {
    let slide = 24;
    let rotate = 16;
    let holds = total - slide - rotate - 2;
    let hold_a = holds * 30 / 100;
    let hold_b = holds * 25 / 100;
    let hold_c = holds * 25 / 100;
    let hold_d = holds - hold_a - hold_b - hold_c;
    let mut scenes = Vec::with_capacity(total);
    let hold = |scenes: &mut Vec<Matrix>, scene: &Matrix, n: usize| {
        scenes.extend(std::iter::repeat_n(scene.clone(), n));
    };

    // Resting contact: a 6-sparse scene.
    let mut current = Matrix::zeros(VIDEO_SIDE, VIDEO_SIDE);
    for (i, j, v) in [
        (0, 0, 4.0),
        (1, 1, 1.6),
        (2, 0, -0.9),
        (0, 3, 0.7),
        (3, 2, 0.6),
        (1, 4, -0.5),
    ] {
        current[(i, j)] = v;
    }
    hold(&mut scenes, &current, hold_a);

    // Slide: energy moves from (1,1) to (1,2) in delta-sized steps.
    for t in 1..=slide {
        let f = t as f64 / slide as f64;
        current[(1, 1)] = 1.6 * (1.0 - f);
        current[(1, 2)] = 1.6 * f;
        current[(2, 0)] = -0.9 - 0.5 * f;
        scenes.push(current.clone());
    }
    hold(&mut scenes, &current, hold_b);

    // Abrupt sparse touch: three new support positions at once.
    current[(5, 5)] = 2.5;
    current[(6, 2)] = -1.4;
    current[(4, 7)] = 1.1;
    scenes.push(current.clone());
    hold(&mut scenes, &current, hold_c);

    // Rotation: the touch redistributes between its positions.
    for t in 1..=rotate {
        let f = t as f64 / rotate as f64;
        current[(5, 5)] = 2.5 * (1.0 - 0.6 * f);
        current[(6, 6)] = 2.0 * f;
        current[(4, 7)] = 1.1 + 0.8 * f;
        scenes.push(current.clone());
    }

    // Dense scene change: far too many coefficients for greedy.
    let mut dense = Matrix::zeros(VIDEO_SIDE, VIDEO_SIDE);
    let mut v = 1.3f64;
    for i in 0..12 {
        for j in 0..10 {
            v = -v * 0.97;
            dense[(i, j)] = v + 0.2 * ((i * 7 + j * 3) as f64 * 0.41).sin();
        }
    }
    scenes.push(dense.clone());
    hold(&mut scenes, &dense, hold_d);
    scenes
}

/// One decode of the whole stream.
struct VideoPass {
    mean_rmse: f64,
    /// Per-frame decode latencies (µs) by tier: static, delta,
    /// event-greedy, event-full.
    tier_us: [Vec<f64>; 4],
    counts: TierCounts,
}

/// Decodes every frame, through `pipeline` when given and through warm
/// FISTA otherwise.
fn video_pass(
    frames: &[Matrix],
    measurements: &[Vec<f64>],
    plan: &SamplingPlan,
    mut pipeline: Option<AdaptivePipeline>,
) -> VideoPass {
    let decoder = Decoder::default();
    let mut warm = DecodeWarmState::new();
    let mut tier_us: [Vec<f64>; 4] = Default::default();
    let mut total_rmse = 0.0;
    for (truth, y) in frames.iter().zip(measurements) {
        let f0 = Instant::now();
        let (rec, tier) = match &mut pipeline {
            Some(p) => p
                .decode(
                    &decoder,
                    VIDEO_SIDE,
                    VIDEO_SIDE,
                    plan.selected(),
                    y,
                    &mut warm,
                )
                .unwrap(),
            None => (
                decoder
                    .reconstruct_warm(VIDEO_SIDE, VIDEO_SIDE, plan.selected(), y, &mut warm)
                    .unwrap(),
                DecodeTier::EventFull,
            ),
        };
        let slot = match tier {
            DecodeTier::Static => 0,
            DecodeTier::Delta => 1,
            DecodeTier::EventGreedy => 2,
            DecodeTier::EventFull => 3,
        };
        tier_us[slot].push(f0.elapsed().as_secs_f64() * 1e6);
        total_rmse += rmse(&rec.frame, truth);
        black_box(rec.report.iterations);
    }
    VideoPass {
        mean_rmse: total_rmse / frames.len() as f64,
        tier_us,
        counts: pipeline.map(|p| p.tier_counts()).unwrap_or_default(),
    }
}

#[test]
#[ignore = "wall-clock gate: run in release by CI scale-gates"]
fn adaptive_video_beats_decode_everything() {
    let n = VIDEO_SIDE * VIDEO_SIDE;
    let dct = Dct2d::new(VIDEO_SIDE, VIDEO_SIDE).unwrap();
    // The scan pattern is fixed for the whole stream, as in a fielded
    // readout.
    let plan = SamplingPlan::random_subset(n, n / 2, &[], 42).unwrap();
    let frames: Vec<Matrix> = storyboard(VIDEO_FRAMES)
        .iter()
        .map(|c| dct.inverse(c).unwrap())
        .collect();
    let measurements: Vec<Vec<f64>> = frames.iter().map(|f| plan.measure(&f.to_flat())).collect();

    let (baseline_s, baseline) = median_secs(5, || video_pass(&frames, &measurements, &plan, None));
    // Deployment tuning, not library defaults: a 250 µs frame budget
    // for the latency governor, the delta budget starting where the
    // governor would steer it, and a paranoia full decode about once
    // per second of 100 fps video.
    let config = AdaptiveConfig {
        frame_budget_us: Some(250.0),
        delta_iteration_budget: 30,
        force_full_every: 100,
        ..AdaptiveConfig::default()
    };
    let (adaptive_s, mut adaptive) = median_secs(5, || {
        video_pass(
            &frames,
            &measurements,
            &plan,
            Some(AdaptivePipeline::new(config.clone())),
        )
    });
    let speedup = baseline_s / adaptive_s;
    let degradation = adaptive.mean_rmse - baseline.mean_rmse;
    let counts = adaptive.counts;
    let static_p50 = median(&mut adaptive.tier_us[0]);
    let delta_p50 = median(&mut adaptive.tier_us[1]);

    println!(
        "video {VIDEO_FRAMES} frames: {speedup:.2}x vs decode-everything, rmse {:.5} -> {:.5}, \
         tiers {counts:?}, static p50 {static_p50:.1} us, delta p50 {delta_p50:.1} us",
        baseline.mean_rmse, adaptive.mean_rmse
    );
    assert!(
        speedup >= 2.0,
        "adaptive speedup {speedup:.2} < 2.0 (gating no longer pays off)"
    );
    assert!(
        degradation <= 0.01,
        "adaptive RMSE degradation {degradation} > 0.01 vs decode-everything"
    );
    // Every tier must fire: a routing regression (everything an Event)
    // can still pass the speedup gate on a mostly-static stream.
    for (tier, count) in [
        ("static", counts.static_frames),
        ("delta", counts.delta),
        ("event_greedy", counts.event_greedy),
        ("event_full", counts.event_full),
    ] {
        assert!(count > 0, "tactile stream never exercised the {tier} tier");
    }
    assert!(
        static_p50 <= delta_p50,
        "static tier p50 {static_p50} us should undercut delta p50 {delta_p50} us"
    );
}
