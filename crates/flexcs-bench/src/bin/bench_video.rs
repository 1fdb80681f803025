//! Tactile-video benchmark for the event-driven adaptive decode tier,
//! emitted as JSON for `scripts/bench_baseline.sh` to merge into
//! `BENCH_decode.json` (the `video_*` fields).
//!
//! The workload models what a deployed large-area tactile array
//! actually streams: long static holds (nothing touches the sensor),
//! slow slides and rotations of a contact patch (small frame-to-frame
//! drift), and occasional abrupt events — a new sparse touch, or a
//! dense scene change. Scenes are animated directly in the 2-D DCT
//! coefficient domain so every truth frame has a known sparse code:
//! holds repeat the previous frame exactly, slides move energy between
//! a fixed pair of coefficients in steps, touch events add a few new
//! support positions at once, and the dense event activates far more
//! coefficients than the greedy tier accepts. The scan pattern (the
//! sampling plan Φ_M) is fixed for the whole stream, as it is in a
//! fielded Fig. 4 readout.
//!
//! Two decoders run the identical stream:
//!
//! - **baseline**: the pre-existing decode-everything path — every
//!   frame through warm FISTA ([`Decoder::reconstruct_warm`]).
//! - **adaptive**: the [`AdaptivePipeline`] — O(M) change detection
//!   gates every frame into previous-frame reuse, a budget-capped
//!   delta solve, the greedy OMP fast tier, or a full decode.
//!
//! Reported: decode rate for both paths (`video_speedup` is the
//! CI-gated headline, must stay >= 2.0), per-tier latency p50/p99,
//! per-tier frame counts, and mean RMSE against the generating truth
//! for both paths (`video_rmse_degradation` must stay <= 0.01). The
//! binary also asserts, every run, that a pipeline decoding every
//! frame in full (`force_full_every: 1`, `greedy_max_sparsity: 0`) is
//! bit-identical to the baseline path on a stream prefix; the
//! `video_bit_identical_disabled` key records that guard.
//!
//! Frame count can be overridden for smoke runs: `bench_video [frames]`.

use flexcs_core::{
    rmse, AdaptiveConfig, AdaptivePipeline, DecodeTier, DecodeWarmState, Decoder, SamplingPlan,
};
use flexcs_linalg::Matrix;
use flexcs_transform::Dct2d;
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 32;
const COLS: usize = 32;
/// Fraction of pixels measured per frame (the paper's ~50 % regime).
const DENSITY: f64 = 0.5;

/// One frame of the tactile stream: its sparse DCT code.
#[derive(Clone)]
struct Scene {
    coeffs: Matrix,
}

impl Scene {
    fn blank() -> Self {
        Scene {
            coeffs: Matrix::zeros(ROWS, COLS),
        }
    }

    fn set(&mut self, i: usize, j: usize, v: f64) -> &mut Self {
        self.coeffs[(i, j)] = v;
        self
    }
}

/// Builds the scripted stream: `total` scenes across the segments
/// described in the module docs. The dynamic segments (slide, rotate,
/// the two abrupt events) have fixed lengths — they are the scripted
/// gestures — while the static holds stretch to fill the requested
/// frame count, matching how a real tactile array spends most of its
/// life idle between contacts.
fn storyboard(total: usize) -> Vec<Scene> {
    let total = total.max(60);
    let slide = 24;
    let rotate = 16;
    let holds = total - slide - rotate - 2;
    let hold_a = holds * 30 / 100;
    let hold_b = holds * 25 / 100;
    let hold_c = holds * 25 / 100;
    let hold_d = holds - hold_a - hold_b - hold_c;

    let mut scenes = Vec::with_capacity(total);

    // Resting contact: a 6-sparse scene.
    let mut rest = Scene::blank();
    rest.set(0, 0, 4.0)
        .set(1, 1, 1.6)
        .set(2, 0, -0.9)
        .set(0, 3, 0.7)
        .set(3, 2, 0.6)
        .set(1, 4, -0.5);
    for _ in 0..hold_a {
        scenes.push(rest.clone());
    }

    // Slide: the contact's energy moves from (1,1) to (1,2) in steps
    // sized to land in the delta band (a few percent of frame energy
    // per frame).
    let mut current = rest.clone();
    for t in 1..=slide {
        let f = t as f64 / slide as f64;
        current.set(1, 1, 1.6 * (1.0 - f));
        current.set(1, 2, 1.6 * f);
        current.set(2, 0, -0.9 - 0.5 * f);
        scenes.push(current.clone());
    }
    for _ in 0..hold_b {
        scenes.push(current.clone());
    }

    // Abrupt sparse touch: three new support positions at once. The
    // scene stays sparse, so the event should route to the greedy
    // tier.
    current.set(5, 5, 2.5);
    current.set(6, 2, -1.4);
    current.set(4, 7, 1.1);
    scenes.push(current.clone());
    for _ in 0..hold_c {
        scenes.push(current.clone());
    }

    // Rotation: the touch redistributes between its positions.
    for t in 1..=rotate {
        let f = t as f64 / rotate as f64;
        current.set(5, 5, 2.5 * (1.0 - 0.6 * f));
        current.set(6, 6, 2.0 * f);
        current.set(4, 7, 1.1 + 0.8 * f);
        scenes.push(current.clone());
    }

    // Dense scene change: something large and textured lands on the
    // array — far too many active coefficients for the greedy tier.
    let mut dense = Scene::blank();
    let mut v = 1.3f64;
    for i in 0..12 {
        for j in 0..10 {
            v = -v * 0.97;
            dense.set(i, j, v + 0.2 * ((i * 7 + j * 3) as f64 * 0.41).sin());
        }
    }
    scenes.push(dense.clone());
    for _ in 0..hold_d {
        scenes.push(dense.clone());
    }

    scenes.truncate(total);
    scenes
}

/// Nearest-rank percentile of unsorted microsecond samples.
fn percentile_us(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[rank]
}

const TIER_LABELS: [&str; 4] = ["static", "delta", "event_greedy", "event_full"];

/// One timed decode of the full stream.
struct PassStats {
    seconds: f64,
    mean_rmse: f64,
    /// Per-frame decode latencies (µs), bucketed by tier.
    tier_us: [Vec<f64>; 4],
    counts: flexcs_core::TierCounts,
}

/// Decode-everything pass: every frame through warm FISTA.
fn run_baseline(frames: &[Matrix], measurements: &[Vec<f64>], plan: &SamplingPlan) -> PassStats {
    let decoder = Decoder::default();
    let mut warm = DecodeWarmState::new();
    let mut mean_rmse = 0.0;
    let t0 = Instant::now();
    for (truth, y) in frames.iter().zip(measurements) {
        let rec = decoder
            .reconstruct_warm(ROWS, COLS, plan.selected(), y, &mut warm)
            .unwrap();
        mean_rmse += rmse(&rec.frame, truth);
        black_box(rec.report.iterations);
    }
    let seconds = t0.elapsed().as_secs_f64();
    PassStats {
        seconds,
        mean_rmse: mean_rmse / frames.len() as f64,
        tier_us: Default::default(),
        counts: flexcs_core::TierCounts::default(),
    }
}

/// Adaptive pass: every frame through the change-gated tier router,
/// with a 250 µs frame budget so the latency governor tunes the delta
/// tier to the machine.
fn run_adaptive(frames: &[Matrix], measurements: &[Vec<f64>], plan: &SamplingPlan) -> PassStats {
    let decoder = Decoder::default();
    let mut warm = DecodeWarmState::new();
    let config = AdaptiveConfig {
        frame_budget_us: Some(250.0),
        // Deployment tuning, not library defaults: the delta budget
        // starts where the governor would steer it for a 250 µs frame
        // budget, and the paranoia full decode fires about once per
        // second of 100 fps video.
        delta_iteration_budget: 30,
        force_full_every: 100,
        ..AdaptiveConfig::default()
    };
    let mut pipeline = AdaptivePipeline::new(config);
    let mut tier_us: [Vec<f64>; 4] = Default::default();
    let mut mean_rmse = 0.0;
    let t0 = Instant::now();
    for (truth, y) in frames.iter().zip(measurements) {
        let f0 = Instant::now();
        let (rec, tier) = pipeline
            .decode(&decoder, ROWS, COLS, plan.selected(), y, &mut warm)
            .unwrap();
        let us = f0.elapsed().as_secs_f64() * 1e6;
        let slot = match tier {
            DecodeTier::Static => 0,
            DecodeTier::Delta => 1,
            DecodeTier::EventGreedy => 2,
            DecodeTier::EventFull => 3,
        };
        tier_us[slot].push(us);
        mean_rmse += rmse(&rec.frame, truth);
        black_box(rec.report.iterations);
    }
    let seconds = t0.elapsed().as_secs_f64();
    PassStats {
        seconds,
        mean_rmse: mean_rmse / frames.len() as f64,
        tier_us,
        counts: pipeline.tier_counts(),
    }
}

fn main() {
    let total: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(360);
    // Passes per path; the fastest pass is reported, which filters OS
    // scheduling hiccups out of the fps comparison (RMSE and tier
    // routing are deterministic across passes).
    let passes: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
        .max(1);

    let n = ROWS * COLS;
    let m = (n as f64 * DENSITY) as usize;
    let dct = Dct2d::new(ROWS, COLS).unwrap();
    let plan = SamplingPlan::random_subset(n, m, &[], 42).unwrap();

    eprintln!("bench_video: rendering {total}-frame tactile storyboard ({ROWS}x{COLS}, m={m})");
    let scenes = storyboard(total);
    let frames: Vec<Matrix> = scenes
        .iter()
        .map(|s| dct.inverse(&s.coeffs).unwrap())
        .collect();
    let measurements: Vec<Vec<f64>> = frames.iter().map(|f| plan.measure(&f.to_flat())).collect();

    // ---- Bit-identity guard: every-frame-full pipeline == baseline ----
    // Every frame is a forced event and the greedy tier is capped at
    // zero atoms, so the router adds nothing to the warm full decode.
    {
        let decoder = Decoder::default();
        let mut warm_ref = DecodeWarmState::new();
        let mut warm_adp = DecodeWarmState::new();
        let mut full_only = AdaptivePipeline::new(AdaptiveConfig {
            force_full_every: 1,
            greedy_max_sparsity: 0,
            ..AdaptiveConfig::default()
        });
        for y in measurements.iter().take(8) {
            let reference = decoder
                .reconstruct_warm(ROWS, COLS, plan.selected(), y, &mut warm_ref)
                .unwrap();
            let (adaptive, _) = full_only
                .decode(&decoder, ROWS, COLS, plan.selected(), y, &mut warm_adp)
                .unwrap();
            assert_eq!(
                reference.frame.as_slice(),
                adaptive.frame.as_slice(),
                "every-frame-full adaptive pipeline must be bit-identical to reconstruct_warm"
            );
        }
        eprintln!("bench_video: every-frame-full pipeline bit-identity holds on 8-frame prefix");
    }

    // ---- Timed passes: best-of-N for both paths ----
    let baseline = (0..passes)
        .map(|_| run_baseline(&frames, &measurements, &plan))
        .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap())
        .unwrap();
    let baseline_fps = total as f64 / baseline.seconds;
    let baseline_rmse = baseline.mean_rmse;
    eprintln!("bench_video: baseline {baseline_fps:.0} fps, mean rmse {baseline_rmse:.5}");

    let adaptive = (0..passes)
        .map(|_| run_adaptive(&frames, &measurements, &plan))
        .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap())
        .unwrap();
    let adaptive_fps = total as f64 / adaptive.seconds;
    let adaptive_rmse = adaptive.mean_rmse;
    let counts = adaptive.counts;
    let mut tier_us = adaptive.tier_us;
    eprintln!(
        "bench_video: adaptive {adaptive_fps:.0} fps, mean rmse {adaptive_rmse:.5}, tiers {counts:?}"
    );

    let speedup = adaptive_fps / baseline_fps;
    let degradation = adaptive_rmse - baseline_rmse;

    println!("{{");
    println!(
        "  \"_comment_video\": \"Tactile-video adaptive-decode benchmark (bench_video \
         binary): a scripted 32x32 stream — long static holds, a slide, an abrupt \
         sparse touch, a rotation, a dense scene change — decoded twice from the same \
         fixed sampling plan. video_baseline_* decodes every frame through warm FISTA; \
         video_adaptive_* routes each frame through the O(M) change detector into \
         previous-frame reuse / budget-capped delta decode / greedy OMP fast tier / \
         full decode. video_speedup is the CI-gated headline (>= 2.0) and \
         video_rmse_degradation the fidelity guard (<= 0.01, both paths scored \
         against the generating truth). Per-tier latencies are per-frame decode \
         times in microseconds.\","
    );
    println!("  \"video_frames\": {total},");
    println!("  \"video_shape\": \"{ROWS}x{COLS}\",");
    println!("  \"video_sampling_density\": {DENSITY},");
    println!("  \"video_baseline_fps\": {baseline_fps:.1},");
    println!("  \"video_adaptive_fps\": {adaptive_fps:.1},");
    println!("  \"video_speedup\": {speedup:.2},");
    println!("  \"video_baseline_rmse\": {baseline_rmse:.6},");
    println!("  \"video_adaptive_rmse\": {adaptive_rmse:.6},");
    println!("  \"video_rmse_degradation\": {degradation:.6},");
    println!("  \"video_tier_static\": {},", counts.static_frames);
    println!("  \"video_tier_delta\": {},", counts.delta);
    println!("  \"video_tier_event_greedy\": {},", counts.event_greedy);
    println!("  \"video_tier_event_full\": {},", counts.event_full);
    for (label, samples) in TIER_LABELS.iter().zip(tier_us.iter_mut()) {
        let p50 = percentile_us(samples, 0.50);
        let p99 = percentile_us(samples, 0.99);
        println!("  \"video_{label}_p50_us\": {p50:.1},");
        println!("  \"video_{label}_p99_us\": {p99:.1},");
    }
    println!("  \"video_bit_identical_disabled\": true");
    println!("}}");
}
