//! `tactile_serve`: many 32x32 tactile tenants streaming a scripted
//! storyboard at 100 fps each through one `Engine` with adaptive
//! sessions. Open loop: one generator thread submits every frame when
//! it is due (tenants spread evenly over each frame period), one engine
//! worker serves them, and rejected submits are not retried. Each
//! frame's latency counts from its due time; a rejected or failed frame
//! counts as infinitely late. After the nominal stream the run searches
//! the capacity (the highest offered rate whose p99 latency meets the
//! 10 ms limit) and then measures the saturation rate (the highest rate
//! served without a growing backlog), which is the gated throughput, in
//! rounds on freshly set-up engines.

use crate::harness::{Args, Outcome, SETUPS};
use crate::host::{self, Reference};
use crate::json::Json;
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use flexcs_core::{
    rmse, AdaptiveConfig, AdaptivePipeline, DecodeTier, DecodeWarmState, Decoder, Reconstruction,
    SamplingPlan, SparseErrorModel,
};
use flexcs_linalg::Matrix;
use flexcs_serve::{
    DecodeBackend, Engine, EngineConfig, FrameHandle, FrameRequest, FrameResult, Session,
    SessionConfig, Submit,
};
use flexcs_transform::Dct2d;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SIDE: usize = 32;
const N: usize = SIDE * SIDE;
const M: usize = N / 2;
/// Tenants streaming at once; sized so the single worker serves each
/// period's burst well within the limit at the nominal rate.
pub const TENANTS: usize = 96;
const FPS: f64 = 100.0;
/// One frame period at 100 fps: the latency limit.
const LIMIT_MS: f64 = 10.0;
const STUCK_FRACTION: f64 = 0.03;
const STORY_FRAMES: usize = 360;
const FORCE_FULL_EVERY: usize = 100;
/// Tenants whose served stream is checked against a direct decode.
const CHECKED_TENANTS: [usize; 4] = [0, TENANTS / 3, 2 * TENANTS / 3, TENANTS - 1];
/// Shares of the run spent streaming at the nominal rate and searching
/// the capacity; the saturation probe takes the rest.
const NOMINAL_SHARE: f64 = 0.15;
const CAPACITY_SHARE: f64 = 0.1;
/// Each capacity probe offers this many times the previous one's rate.
const PROBE_STEP: f64 = 1.12;
const PROBE_SECONDS: f64 = 0.4;

fn adaptive_config() -> AdaptiveConfig {
    // No frame budget: the latency governor would make decodes depend
    // on timing, and served frames must equal a direct decode.
    AdaptiveConfig {
        delta_iteration_budget: 30,
        force_full_every: FORCE_FULL_EVERY,
        ..AdaptiveConfig::default()
    }
}

/// The scripted storyboard: long holds, a slide, an abrupt sparse
/// touch, a rotation and a dense scene change, animated in the DCT
/// domain. Returns the distinct scenes and, per frame, its scene index.
fn storyboard(dct: &Dct2d) -> (Vec<Matrix>, Vec<usize>) {
    let mut coeffs: Vec<Matrix> = Vec::new();
    let mut index = Vec::with_capacity(STORY_FRAMES);
    let mut push = |c: &Matrix, frames: usize, index: &mut Vec<usize>| {
        coeffs.push(c.clone());
        index.extend(std::iter::repeat_n(coeffs.len() - 1, frames));
    };
    let (slide, rotate) = (24, 16);
    let holds = STORY_FRAMES - slide - rotate - 2;
    let hold = [holds * 30 / 100, holds * 25 / 100, holds * 25 / 100];
    let hold_d = holds - hold.iter().sum::<usize>();

    let mut cur = Matrix::zeros(SIDE, SIDE);
    for (i, j, v) in [
        (0, 0, 4.0),
        (1, 1, 1.6),
        (2, 0, -0.9),
        (0, 3, 0.7),
        (3, 2, 0.6),
        (1, 4, -0.5),
    ] {
        cur[(i, j)] = v;
    }
    push(&cur, hold[0], &mut index);
    for t in 1..=slide {
        let f = t as f64 / slide as f64;
        cur[(1, 1)] = 1.6 * (1.0 - f);
        cur[(1, 2)] = 1.6 * f;
        cur[(2, 0)] = -0.9 - 0.5 * f;
        push(&cur, if t == slide { 1 + hold[1] } else { 1 }, &mut index);
    }
    cur[(5, 5)] = 2.5;
    cur[(6, 2)] = -1.4;
    cur[(4, 7)] = 1.1;
    push(&cur, 1 + hold[2], &mut index);
    for t in 1..=rotate {
        let f = t as f64 / rotate as f64;
        cur[(5, 5)] = 2.5 * (1.0 - 0.6 * f);
        cur[(6, 6)] = 2.0 * f;
        cur[(4, 7)] = 1.1 + 0.8 * f;
        push(&cur, 1, &mut index);
    }
    let mut dense = Matrix::zeros(SIDE, SIDE);
    let mut v = 1.3f64;
    for i in 0..12 {
        for j in 0..10 {
            v = -v * 0.97;
            dense[(i, j)] = v + 0.2 * ((i * 7 + j * 3) as f64 * 0.41).sin();
        }
    }
    push(&dense, 1 + hold_d, &mut index);
    let frames = coeffs
        .iter()
        .map(|c| dct.inverse(c).expect("32x32 scene"))
        .collect();
    (frames, index)
}

/// One tenant's stream: its sampling plan (stuck pixels excluded), the
/// measurements of every distinct scene and its storyboard phase.
struct Tenant {
    selected: Vec<usize>,
    y: Vec<Vec<f64>>,
    phase: usize,
}

struct Inputs {
    scenes: Vec<Matrix>,
    index: Vec<usize>,
    tenants: Vec<Tenant>,
}

/// Frames each session decodes before timing: staggered across tenants
/// so their periodic forced full decodes (`force_full_every`) fall in
/// different periods instead of all at once.
fn warmup_frames(tenant: usize) -> u64 {
    1 + (tenant * FORCE_FULL_EVERY / TENANTS) as u64
}

/// Position in tenant `tenant`'s stream of the frame due in timed
/// period `k` (periods count from 1).
fn position(tenant: usize, k: u64) -> u64 {
    warmup_frames(tenant) - 1 + k
}

impl Inputs {
    fn scene(&self, tenant: usize, k: u64) -> usize {
        let t = &self.tenants[tenant];
        self.index[(t.phase + k as usize) % self.index.len()]
    }

    fn request(&self, tenant: usize, k: u64) -> FrameRequest {
        let t = &self.tenants[tenant];
        FrameRequest {
            rows: SIDE,
            cols: SIDE,
            selected: t.selected.clone(),
            y: t.y[self.scene(tenant, k)].clone(),
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn inputs(scenario: u64) -> Inputs {
    let dct = Dct2d::new(SIDE, SIDE).expect("32x32 plan");
    let (scenes, index) = storyboard(&dct);
    let stuck_model = SparseErrorModel::new(STUCK_FRACTION).expect("valid fraction");
    // Phases are spread evenly around the storyboard, turned by a
    // scenario offset, so every scenario offers the same load over time.
    let offset = (splitmix(scenario) % STORY_FRAMES as u64) as usize;
    let tenants = (0..TENANTS)
        .map(|t| {
            let seed = splitmix(scenario * 1_000_003 + t as u64);
            // A fixed stuck-pixel map per tenant, excluded from its plan;
            // the stuck values are in the frame but never sampled.
            let (_, stuck) = stuck_model.corrupt(&scenes[0], seed);
            let plan = SamplingPlan::random_subset(N, M, &stuck, seed).expect("plan fits");
            let y = scenes
                .iter()
                .map(|s| plan.measure(&stuck_model.corrupt(s, seed).0.to_flat()))
                .collect();
            Tenant {
                selected: plan.selected().to_vec(),
                y,
                phase: (offset + t * STORY_FRAMES / TENANTS) % STORY_FRAMES,
            }
        })
        .collect();
    Inputs {
        scenes,
        index,
        tenants,
    }
}

/// FNV-1a over a frame's bit patterns.
fn frame_hash(frame: &Matrix) -> u64 {
    frame.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Open-loop generator statistics.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub offered: u64,
    pub rejected: u64,
    pub failed: u64,
    /// Latency of each offered frame from its due time, ms; infinite
    /// for a rejected or failed frame.
    pub latencies_ms: Vec<f64>,
    /// How late the generator submitted each frame, ms.
    pub lag_ms: Vec<f64>,
    pub wall_s: f64,
    /// Frames outstanding halfway through and at the end of generation.
    pub backlog: (usize, usize),
}

impl OpenLoop {
    /// Frames that missed the limit, were rejected or failed.
    fn late(&self) -> u64 {
        self.latencies_ms.iter().filter(|&&l| l > LIMIT_MS).count() as u64
    }

    fn p99(&self) -> f64 {
        percentile(&self.latencies_ms, 0.99).unwrap_or(f64::INFINITY)
    }

    /// Whether p99 latency (refused frames included) is within the
    /// limit without a growing backlog.
    fn meets_limit(&self) -> bool {
        let growing = self.backlog.1 > 2 * self.backlog.0 + TENANTS;
        !growing && self.p99() <= LIMIT_MS
    }
}

/// Offers frame `k` of tenant `i` at `start + (k + i/tenants)/fps` (the
/// tenants spread evenly over each frame period) for `seconds`,
/// starting at frame `first_k`, and waits for every accepted frame. A
/// frame's latency is its submit lateness plus the engine-measured
/// `DecodedFrame::latency`, so a stall delays every frame due during it;
/// a rejected or failed frame's is infinite. `done` sees each result in
/// per-tenant order.
pub fn open_loop(
    engine: &Engine,
    tenants: &[usize],
    fps: f64,
    seconds: f64,
    first_k: u64,
    mut request: impl FnMut(usize, u64) -> FrameRequest,
    mut done: impl FnMut(usize, u64, &FrameResult),
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let period = 1.0 / fps;
    let frames = (seconds * fps).ceil().max(1.0) as u64;
    let mut pending: VecDeque<(usize, u64, f64, FrameHandle)> = VecDeque::new();
    let mut finish = |out: &mut OpenLoop, (i, k, lag, handle): (usize, u64, f64, FrameHandle)| {
        let result = handle.wait();
        match &result {
            Ok(d) => out.latencies_ms.push(lag + d.latency.as_secs_f64() * 1e3),
            Err(_) => {
                out.failed += 1;
                out.latencies_ms.push(f64::INFINITY);
            }
        }
        done(i, k, &result);
    };
    let start = Instant::now();
    for k in 0..frames {
        if k == frames / 2 {
            out.backlog.0 = pending.iter().filter(|p| !p.3.is_done()).count();
        }
        for (i, &tenant) in tenants.iter().enumerate() {
            let slot = k as f64 + i as f64 / tenants.len() as f64;
            let due = start + Duration::from_secs_f64(slot * period);
            // Sleep until due; oversleeping shows as generator lag.
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let req = request(i, first_k + k);
            let submitted = Instant::now();
            let lag = submitted.saturating_duration_since(due).as_secs_f64() * 1e3;
            out.offered += 1;
            out.lag_ms.push(lag);
            match engine.submit(tenant, req) {
                Ok(Submit::Accepted(handle)) => pending.push_back((i, first_k + k, lag, handle)),
                Ok(Submit::Rejected { .. }) => {
                    out.rejected += 1;
                    out.latencies_ms.push(f64::INFINITY);
                }
                Err(_) => {
                    out.failed += 1;
                    out.latencies_ms.push(f64::INFINITY);
                }
            }
            while pending.front().is_some_and(|p| p.3.is_done()) {
                let p = pending.pop_front().expect("front checked");
                finish(&mut out, p);
            }
        }
    }
    out.backlog.1 = pending.iter().filter(|p| !p.3.is_done()).count();
    while let Some(p) = pending.pop_front() {
        finish(&mut out, p);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Service time and tier of every decode, per tenant, recorded by the
/// traced run's backend.
type ServiceLog = Mutex<Vec<Vec<(f64, DecodeTier)>>>;

/// The `WarmDecodeBackend` adaptive path with a span around each decode.
struct TimingBackend {
    tracer: Arc<Tracer>,
    log: Arc<ServiceLog>,
}

impl DecodeBackend for TimingBackend {
    fn decode(
        &self,
        req: &FrameRequest,
        session: &mut Session,
    ) -> flexcs_core::Result<Reconstruction> {
        let tenant: usize = session.name()[1..]
            .parse()
            .expect("tenants are named t<index>");
        let t0 = Instant::now();
        let span = self.tracer.request("serve.service", tenant as u64);
        let (decoder, warm, adaptive) = session.adaptive_parts();
        let pipeline = adaptive.expect("tactile sessions are adaptive");
        let (rec, tier) =
            pipeline.decode(decoder, req.rows, req.cols, &req.selected, &req.y, warm)?;
        drop(span);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.log.lock().expect("service log")[tenant].push((us, tier));
        Ok(rec)
    }
}

struct Served {
    engine: Engine,
    ids: Vec<usize>,
}

/// Engine start, tenant registration and one warm-up frame per tenant
/// (frame 0 of its stream), so every session holds its plan, workspace
/// and reference frame before timing.
/// Warm-up frames per tenant submitted before waiting for them; below
/// the engine's per-tenant queue capacity.
const WARMUP_CHUNK: usize = 32;

fn start(inp: &Inputs, backend: Option<Arc<dyn DecodeBackend>>) -> Served {
    let config = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let engine = match backend {
        Some(b) => Engine::with_backend(config, b),
        None => Engine::new(config),
    };
    let ids: Vec<usize> = (0..TENANTS)
        .map(|t| {
            engine.register_tenant(
                SessionConfig::named(format!("t{t}")).with_adaptive(adaptive_config()),
            )
        })
        .collect();
    // Warm-up frames go in chunks that fit the tenant queues, each
    // tenant's in stream order.
    let frames = warmup_frames(TENANTS - 1);
    for chunk in (0..frames).step_by(WARMUP_CHUNK) {
        let mut handles: Vec<FrameHandle> = Vec::new();
        for pos in chunk..(chunk + WARMUP_CHUNK as u64).min(frames) {
            handles.extend(
                ids.iter()
                    .enumerate()
                    .filter(|&(i, _)| pos < warmup_frames(i))
                    .filter_map(|(i, &id)| engine.submit(id, inp.request(i, pos)).ok()?.accepted()),
            );
        }
        for h in handles {
            wait_batched(h).expect("warm-up frame decodes");
        }
    }
    Served { engine, ids }
}

/// How long the generator sleeps before waiting on a frame that is not
/// done yet, when the worker has more frames queued.
const BACKOFF: Duration = Duration::from_millis(1);

/// Waits for a frame behind others in the queue. Sleeping first lets
/// completions pile up, so the busy worker is not asked to wake this
/// thread once per frame: a cross-vCPU wake-up whose cost on a shared
/// host moves with the other tenants' load.
fn wait_batched(handle: FrameHandle) -> FrameResult {
    if !handle.is_done() {
        std::thread::sleep(BACKOFF);
    }
    handle.wait()
}

/// Served-frame hashes of the checked tenants, in order, with the frame
/// index each came from.
type Hashes = Vec<Vec<(u64, u64)>>;

fn direct_hashes(inp: &Inputs, served: &Hashes) -> bool {
    CHECKED_TENANTS.iter().zip(served).all(|(&t, hashes)| {
        let decoder = Decoder::default();
        let mut warm = DecodeWarmState::new();
        let mut pipeline = AdaptivePipeline::new(adaptive_config());
        let tenant = &inp.tenants[t];
        let mut decode = |k: u64| {
            let y = &tenant.y[inp.scene(t, k)];
            pipeline
                .decode(&decoder, SIDE, SIDE, &tenant.selected, y, &mut warm)
                .map(|(rec, _)| frame_hash(&rec.frame))
        };
        if (0..warmup_frames(t)).any(|pos| decode(pos).is_err()) {
            return false;
        }
        // Frames a tenant never got served (rejected) are skipped, as
        // the engine never decoded them.
        hashes.iter().all(|&(k, h)| decode(k).ok() == Some(h))
    })
}

/// What a stream's served frames are scored into.
struct Scores {
    /// Served-frame hashes of the checked tenants.
    hashes: Hashes,
    /// RMSE of every served frame against its scene.
    errors: Vec<f64>,
    /// Engine-measured latency of each tenant's frames, in order.
    engine_ms: Vec<Vec<f64>>,
}

/// Runs the stream at `FPS` for `seconds`, scoring each served frame.
fn stream(inp: &Inputs, served: &Served, seconds: f64) -> (OpenLoop, Scores) {
    let mut scores = Scores {
        hashes: vec![Vec::new(); CHECKED_TENANTS.len()],
        errors: Vec::new(),
        engine_ms: vec![Vec::new(); TENANTS],
    };
    let r = open_loop(
        &served.engine,
        &served.ids,
        FPS,
        seconds,
        1,
        |i, k| inp.request(i, position(i, k)),
        |i, k, result| {
            if let Ok(d) = result {
                let pos = position(i, k);
                scores
                    .errors
                    .push(rmse(&d.frame, &inp.scenes[inp.scene(i, pos)]));
                scores.engine_ms[i].push(d.latency.as_secs_f64() * 1e3);
                if let Some(c) = CHECKED_TENANTS.iter().position(|&t| t == i) {
                    scores.hashes[c].push((pos, frame_hash(&d.frame)));
                }
            }
        },
    );
    (r, scores)
}

/// One capacity probe: the offered rate and the p99 latency it got.
#[derive(Debug, Clone, Copy)]
struct Probe {
    fps: f64,
    p99_ms: f64,
}

/// Highest offered rate (frames/s over all tenants) that meets the
/// limit. Probes the per-tenant rate geometrically, by `PROBE_STEP`,
/// up from `FPS` while it meets the limit (down while it does not),
/// then interpolates p99 linearly between the last rate that met the
/// limit and the first that did not to where it reaches `LIMIT_MS`.
/// Probes continue the same streams from frame `*next_k`.
fn capacity(inp: &Inputs, served: &Served, next_k: &mut u64) -> Option<f64> {
    let mut probe = |factor: f64| {
        let fps = FPS * factor;
        let r = open_loop(
            &served.engine,
            &served.ids,
            fps,
            PROBE_SECONDS,
            *next_k,
            |i, k| inp.request(i, position(i, k)),
            |_, _, _| {},
        );
        *next_k += (PROBE_SECONDS * fps).ceil() as u64;
        let p = Probe {
            fps: fps * TENANTS as f64,
            p99_ms: r.p99(),
        };
        (p, r.meets_limit())
    };
    let (first, up) = probe(1.0);
    let mut last = first;
    for step in 1..=16 {
        let factor = if up {
            PROBE_STEP.powi(step)
        } else {
            PROBE_STEP.powi(-step)
        };
        let (p, ok) = probe(factor);
        if ok != up {
            let (pass, fail) = if up { (last, p) } else { (p, last) };
            return Some(interpolate(pass, fail));
        }
        last = p;
    }
    up.then_some(last.fps)
}

/// Rate between a probe that met the limit and one that did not at
/// which p99 latency reaches the limit.
fn interpolate(pass: Probe, fail: Probe) -> f64 {
    if !fail.p99_ms.is_finite() || fail.p99_ms <= pass.p99_ms {
        return pass.fps;
    }
    let t = ((LIMIT_MS - pass.p99_ms) / (fail.p99_ms - pass.p99_ms)).clamp(0.0, 1.0);
    pass.fps + t * (fail.fps - pass.fps)
}

/// Rounds of the saturation probe, each on a freshly set-up engine.
const SATURATION_ROUNDS: usize = SETUPS - 1;
/// Frames each tenant keeps outstanding in the saturation probe.
const SATURATION_DEPTH: usize = 8;
/// Time one burst of the saturation probe keeps every tenant's frames
/// outstanding.
const WINDOW_S: f64 = 0.25;

/// One burst of the saturation probe: its served frames per second and
/// the reference pass time of the stretch right after it.
#[derive(Debug, Clone, Copy)]
struct Burst {
    fps: f64,
    host_s: f64,
}

/// Served frames per second in bursts, for `seconds` (at least one
/// burst). A burst tops every tenant up to `SATURATION_DEPTH` frames
/// outstanding and keeps it there for `WINDOW_S`, so the worker is never
/// idle and this is the highest rate the engine sustains without a
/// growing backlog; the generator waits for the oldest frame
/// (`wait_batched`) and then submits that tenant's next one. The burst
/// then drains, and a stretch of reference passes runs while the engine
/// is idle ([`Reference::after`]). Continues each stream from frame
/// `first_k`.
fn saturation(
    inp: &Inputs,
    served: &Served,
    first_k: u64,
    seconds: f64,
    reference: &Reference,
) -> Vec<Burst> {
    let mut next = vec![first_k; TENANTS];
    let mut submit = |i: usize, pending: &mut VecDeque<(usize, FrameHandle)>| {
        let req = inp.request(i, position(i, next[i]));
        next[i] += 1;
        if let Ok(Submit::Accepted(handle)) = served.engine.submit(served.ids[i], req) {
            pending.push_back((i, handle));
        }
    };
    let mut bursts = Vec::new();
    let start = Instant::now();
    while bursts.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let mut pending = VecDeque::new();
        for _ in 0..SATURATION_DEPTH {
            for i in 0..TENANTS {
                submit(i, &mut pending);
            }
        }
        let mut frames = 0u64;
        while let Some((i, handle)) = pending.pop_front() {
            frames += u64::from(wait_batched(handle).is_ok());
            if t0.elapsed().as_secs_f64() < WINDOW_S {
                submit(i, &mut pending);
            }
        }
        let burst_s = t0.elapsed().as_secs_f64();
        bursts.push(Burst {
            fps: frames as f64 / burst_s,
            host_s: reference.after(burst_s),
        });
    }
    bursts
}

fn untraced(inp: &Inputs, seconds: f64, probe: bool) -> Outcome {
    let mut out = Outcome {
        threads: 2,
        op: "frame",
        ..Outcome::default()
    };
    let reference = Reference::new();
    let t0 = Instant::now();
    let served = start(inp, None);
    let setup_s = t0.elapsed().as_secs_f64();
    out.setup_s
        .push(host::at_reference(setup_s, reference.after(setup_s)));
    let t0 = Instant::now();
    let nominal_s = if probe {
        seconds * NOMINAL_SHARE
    } else {
        seconds
    };
    let (r, scores) = stream(inp, &served, nominal_s);
    out.attempted = r.offered;
    out.failed = r.rejected + r.failed;
    out.check(
        "served_equals_direct",
        direct_hashes(inp, &scores.hashes),
        format!(
            "tenants {CHECKED_TENANTS:?}: served frames equal a direct AdaptivePipeline::decode"
        ),
    );
    out.extra
        .push(("offered_fps", Json::Num(FPS * TENANTS as f64)));
    out.extra
        .push(("late_frac", Json::Num(r.late() as f64 / r.offered as f64)));
    out.extra.push(("rmse", Json::Num(mean(&scores.errors))));
    out.extra.push((
        "generator_lag_ms_p99",
        Json::num_or_null(percentile(&r.lag_ms, 0.99)),
    ));
    out.extra.push((
        "backlog_mid_end",
        Json::Arr(vec![
            Json::Num(r.backlog.0 as f64),
            Json::Num(r.backlog.1 as f64),
        ]),
    ));
    out.extra.push((
        "served_fps",
        Json::Num((r.offered - r.rejected - r.failed) as f64 / r.wall_s),
    ));
    if probe {
        // Capacity searches continue the nominal streams. The p99 limit
        // sits close to the time of the heaviest decodes, so a search
        // moves with every slow stretch of a shared host (searches of
        // one run differ by up to 2x): it is reported, not gated.
        let mut next_k = 1 + (nominal_s * FPS).ceil() as u64;
        let capacity_s = seconds * CAPACITY_SHARE;
        let mut found = Vec::new();
        let t1 = Instant::now();
        while t1.elapsed().as_secs_f64() < capacity_s {
            found.extend(capacity(inp, &served, &mut next_k));
        }
        served.engine.shutdown();
        drop(served);
        // The rest of the run: saturation rounds, each on a fresh engine
        // whose set-up is timed and whose streams restart after the
        // warm-up, so every round serves the same frames. Each burst's
        // rate is scaled to the reference host speed by the stretch
        // after it; the gated throughput is the median burst.
        let mut bursts = Vec::new();
        for r in 0..SATURATION_ROUNDS {
            let share = (seconds - t0.elapsed().as_secs_f64()) / (SATURATION_ROUNDS - r) as f64;
            let t1 = Instant::now();
            let served = start(inp, None);
            let setup_s = t1.elapsed().as_secs_f64();
            out.setup_s
                .push(host::at_reference(setup_s, reference.after(setup_s)));
            let left = share - t1.elapsed().as_secs_f64();
            bursts.extend(saturation(inp, &served, 1, left, &reference));
            served.engine.shutdown();
        }
        let scaled: Vec<f64> = bursts.iter().map(|b| b.fps * host::scale(b.host_s)).collect();
        out.throughput = median(&scaled);
        out.throughput_raw = bursts.iter().map(|b| b.fps).fold(0.0, f64::max);
        out.host_s = bursts.iter().map(|b| b.host_s).collect();
        out.extra.push((
            "capacity_fps",
            Json::num_or_null((!found.is_empty()).then(|| median(&found))),
        ));
        out.extra.push((
            "capacity_searches_fps",
            Json::Arr(found.into_iter().map(Json::Num).collect()),
        ));
        out.extra.push((
            "saturation_bursts_fps",
            Json::Arr(bursts.iter().map(|b| Json::Num(b.fps)).collect()),
        ));
    } else {
        served.engine.shutdown();
    }
    out.latencies_ms = r.latencies_ms;
    out
}

fn traced(inp: &Inputs, seconds: f64, untraced_p50_ms: f64) -> Outcome {
    let mut out = Outcome {
        threads: 2,
        op: "frame",
        ..Outcome::default()
    };
    let tracer = Arc::new(Tracer::new());
    let log: Arc<ServiceLog> = Arc::new(Mutex::new(vec![Vec::new(); TENANTS]));
    let backend = TimingBackend {
        tracer: Arc::clone(&tracer),
        log: Arc::clone(&log),
    };
    let served = start(inp, Some(Arc::new(backend)));
    let warmup_batches = served.engine.metrics().batches;
    log.lock()
        .expect("service log")
        .iter_mut()
        .for_each(Vec::clear);
    let (r, scores) = stream(inp, &served, seconds);
    let metrics = served.engine.metrics();
    served.engine.shutdown();
    out.attempted = r.offered;
    out.failed = r.rejected + r.failed;
    out.check(
        "replay_bit_identical",
        direct_hashes(inp, &scores.hashes),
        "frames served through the timing backend equal a direct AdaptivePipeline::decode",
    );

    let log = log.lock().expect("service log");
    let mut by_tier: [Vec<f64>; 4] = Default::default();
    let mut service = Vec::new();
    let mut queue_wait = Vec::new();
    for (t, entries) in log.iter().enumerate() {
        for (j, &(us, tier)) in entries.iter().enumerate() {
            by_tier[tier_slot(tier)].push(us);
            service.push(us);
            if let Some(lat) = scores.engine_ms[t].get(j) {
                queue_wait.push(lat - us / 1e3);
            }
        }
    }
    let total = service.len().max(1) as f64;
    for (slot, name) in [
        "core.adaptive.tier_static",
        "core.adaptive.tier_delta",
        "core.adaptive.tier_event_greedy",
        "core.adaptive.tier_event_full",
    ]
    .into_iter()
    .enumerate()
    {
        out.layer(name, by_tier[slot].len() as f64 / total);
    }
    for (slot, (p50, p99)) in [
        ("core.adaptive.static_us_p50", "core.adaptive.static_us_p99"),
        ("core.adaptive.delta_us_p50", "core.adaptive.delta_us_p99"),
        ("core.adaptive.greedy_us_p50", "core.adaptive.greedy_us_p99"),
        ("core.adaptive.full_us_p50", "core.adaptive.full_us_p99"),
    ]
    .into_iter()
    .enumerate()
    {
        out.layer(p50, percentile(&by_tier[slot], 0.50));
        out.layer(p99, percentile(&by_tier[slot], 0.99));
    }
    out.layer(
        "core.adaptive.skip_ratio",
        1.0 - by_tier[3].len() as f64 / total,
    );
    out.layer("serve.queue_wait_ms_p50", percentile(&queue_wait, 0.50));
    out.layer("serve.queue_wait_ms_p99", percentile(&queue_wait, 0.99));
    out.layer("serve.service_us_p50", percentile(&service, 0.50));
    out.layer("serve.service_us_p99", percentile(&service, 0.99));
    out.layer(
        "serve.worker_busy_frac",
        service.iter().sum::<f64>() / 1e6 / r.wall_s,
    );
    let batches = (metrics.batches - warmup_batches) as f64;
    out.layer("serve.batches", batches / r.wall_s);
    out.layer("serve.mean_batch", total / batches.max(1.0));
    out.layer("serve.rejections", metrics.rejected as f64);
    out.layer("serve.generator_lag_ms_p99", percentile(&r.lag_ms, 0.99));
    // Open loop: the offered rate is fixed, so tracing shows up as
    // latency rather than throughput.
    out.layer(
        "trace.overhead_pct",
        (median(&r.latencies_ms) / untraced_p50_ms - 1.0) * 100.0,
    );
    out.extra.push((
        "tier_counts",
        Json::Arr(by_tier.iter().map(|v| Json::Num(v.len() as f64)).collect()),
    ));
    out.extra.push((
        "latency_p99_ms_traced",
        Json::num_or_null(percentile(&r.latencies_ms, 0.99)),
    ));
    drop(log);
    crate::write_trace(&tracer, "tactile_serve");
    out
}

fn tier_slot(tier: DecodeTier) -> usize {
    match tier {
        DecodeTier::Static => 0,
        DecodeTier::Delta => 1,
        DecodeTier::EventGreedy => 2,
        DecodeTier::EventFull => 3,
    }
}

pub fn run(args: &Args) -> Outcome {
    let inp = inputs(args.scenario());
    if !args.trace {
        return untraced(&inp, args.seconds, true);
    }
    let base = untraced(&inp, args.seconds / 2.0, false);
    let mut out = traced(&inp, args.seconds / 2.0, median(&base.latencies_ms));
    out.checks.extend(base.checks);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend that stalls on the first frame it serves.
    struct Stall(Mutex<bool>);

    impl DecodeBackend for Stall {
        fn decode(
            &self,
            req: &FrameRequest,
            _: &mut Session,
        ) -> flexcs_core::Result<Reconstruction> {
            let mut first = self.0.lock().unwrap();
            if *first {
                *first = false;
                std::thread::sleep(Duration::from_millis(60));
            }
            Ok(Reconstruction {
                frame: Matrix::zeros(req.rows, req.cols),
                coefficients: Matrix::zeros(req.rows, req.cols),
                report: flexcs_solver::SolveReport::new(0, 0.0, true, 0.0),
            })
        }
    }

    #[test]
    fn a_stalled_worker_delays_every_frame_due_during_the_stall() {
        let engine = Engine::with_backend(
            EngineConfig {
                workers: 1,
                queue_capacity: 1024,
                ..EngineConfig::default()
            },
            Arc::new(Stall(Mutex::new(true))),
        );
        let tenant = engine.register_tenant(SessionConfig::named("t0"));
        let req = FrameRequest {
            rows: 2,
            cols: 2,
            selected: vec![0, 3],
            y: vec![1.0, 2.0],
        };
        // 1000 fps for 40 ms: every frame after the first is due while
        // the worker stalls on frame 0 for 60 ms.
        let mut order = Vec::new();
        let r = open_loop(
            &engine,
            &[tenant],
            1000.0,
            0.04,
            0,
            |_, _| req.clone(),
            |_, k, _| order.push(k),
        );
        assert_eq!(r.offered, 40);
        assert_eq!(r.latencies_ms.len(), 40);
        assert_eq!(order, (0..40).collect::<Vec<_>>());
        for (k, &lat) in r.latencies_ms.iter().enumerate() {
            // Frame k is due k ms after the start and cannot finish
            // before the stall ends at 60 ms.
            let floor = 60.0 - k as f64;
            assert!(
                lat >= floor - 0.5,
                "frame {k}: latency {lat:.2} ms < {floor} ms"
            );
        }
        engine.shutdown();
    }

    #[test]
    fn refused_frames_count_as_missing_the_limit() {
        // A one-frame queue behind a 60 ms stall refuses most of a
        // 1000 fps stream.
        let engine = Engine::with_backend(
            EngineConfig {
                workers: 1,
                queue_capacity: 1,
                ..EngineConfig::default()
            },
            Arc::new(Stall(Mutex::new(true))),
        );
        let tenant = engine.register_tenant(SessionConfig::named("t0"));
        let req = FrameRequest {
            rows: 2,
            cols: 2,
            selected: vec![0, 3],
            y: vec![1.0, 2.0],
        };
        let r = open_loop(
            &engine,
            &[tenant],
            1000.0,
            0.04,
            0,
            |_, _| req.clone(),
            |_, _, _| {},
        );
        engine.shutdown();
        assert!(r.rejected > 0);
        assert_eq!(r.latencies_ms.len() as u64, r.offered);
        let refused = r.latencies_ms.iter().filter(|l| l.is_infinite()).count() as u64;
        assert_eq!(refused, r.rejected + r.failed);
        assert!(r.late() >= refused);
        assert!(!r.meets_limit());
    }
}
