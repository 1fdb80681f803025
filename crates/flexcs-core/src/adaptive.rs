//! Event-driven adaptive decode: change-detection frame gating plus a
//! zero-allocation greedy fast tier.
//!
//! Tactile and thermal streams from large-area arrays are dominated by
//! frames where *nothing happened*: long static holds punctuated by
//! slow drift and occasional abrupt events. Solving the full Eq. 9
//! program for every frame spends the same FISTA budget on a frame that
//! is bit-for-bit the previous scene as on a genuine event.
//!
//! The identity-subset sampling plan (a Fig. 4 scan) makes change
//! detection nearly free: re-encoding the previous reconstruction
//! through the cached plan is a gather of its flat frame at the
//! `selected` pixel indices, so an O(M) residual test against the raw
//! measurements — no solve, no operator build — classifies every
//! incoming frame before any decode work is committed:
//!
//! - `Static` — the measurements match the previous reconstruction;
//!   reuse it outright.
//! - `Delta` — small drift; run a warm partial decode under a reduced
//!   iteration budget, seeded from the previous coefficients.
//! - `Event` — the scene changed; decode in full. When
//!   the correlation spectrum of the measurement residual says the
//!   change is genuinely sparse, the decode routes to OMP (the
//!   allocation-free greedy tier) instead of FISTA and falls back to
//!   the full solver if greedy fails to converge.
//!
//! A `force_full_every` guard bounds drift accumulation: every Nth
//! frame is decoded in full no matter what the detector says.
//!
//! [`AdaptivePipeline`] packages the detector, the tier routing and the
//! per-tier accounting; `flexcs-serve` attaches one per session.

use crate::basisop::{BasisKind, SubsampledDctOperator};
use crate::decode::{DecodeWarmState, Decoder, Reconstruction};
use crate::error::{CoreError, Result};
use crate::tel;
use flexcs_linalg::{vecops, Matrix};
use flexcs_solver::{GreedyConfig, LinearOperator, SparseSolver};
use flexcs_transform::vectorize;
use std::time::Instant;

/// Floor on the delta tier's iteration budget when the latency governor
/// shrinks it.
const MIN_DELTA_ITERATIONS: usize = 5;

/// Relative measurement residual at or below which a frame is `Static`.
const STATIC_THRESHOLD: f64 = 0.05;

/// Relative measurement residual at or below which a frame is `Delta`
/// (above: `Event`).
const DELTA_THRESHOLD: f64 = 0.30;

/// Relative correlation cut for the greedy tier's sparsity estimate:
/// residual-spectrum entries with `|c| ≥ κ·max|c|` count toward K.
const GREEDY_KAPPA: f64 = 0.15;

/// Relative residual at which the greedy tier declares convergence; a
/// non-converged greedy decode falls back to the full solver.
const GREEDY_RESIDUAL_TOL: f64 = 1e-4;

/// Consecutive stalled iterations (see [`GreedyConfig::stall_patience`])
/// before the greedy attempt gives up and the event falls through to the
/// full solver.
const GREEDY_STALL_PATIENCE: usize = 4;

/// Change-detector verdict for one incoming frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameClass {
    /// Measurements match the previous reconstruction within the static
    /// threshold: no decode needed.
    Static,
    /// Small drift: a warm partial decode suffices.
    Delta,
    /// Scene change (or no usable previous frame, or the forced-full
    /// guard fired): decode in full.
    Event,
}

/// Which decode path actually produced a frame's reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeTier {
    /// Previous reconstruction reused verbatim.
    Static,
    /// Warm partial decode under a reduced iteration budget.
    Delta,
    /// Full decode through the greedy fast tier (OMP).
    EventGreedy,
    /// Full decode through the session's configured solver.
    EventFull,
}

impl DecodeTier {
    /// Stable machine-friendly name (`static`, `delta`, `event_greedy`,
    /// `event_full`) — the suffix of the `serve.tier.*` counters.
    pub fn name(&self) -> &'static str {
        match self {
            DecodeTier::Static => "static",
            DecodeTier::Delta => "delta",
            DecodeTier::EventGreedy => "event_greedy",
            DecodeTier::EventFull => "event_full",
        }
    }
}

/// Per-tier frame counts accumulated by an [`AdaptivePipeline`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Frames served by reusing the previous reconstruction.
    pub static_frames: u64,
    /// Frames decoded by the budget-capped warm delta tier.
    pub delta: u64,
    /// Event frames decoded by the greedy fast tier.
    pub event_greedy: u64,
    /// Event frames decoded by the full configured solver.
    pub event_full: u64,
}

impl TierCounts {
    /// Total frames routed through the pipeline.
    pub fn total(&self) -> u64 {
        self.static_frames + self.delta + self.event_greedy + self.event_full
    }
}

/// Tuning for the adaptive decode tier.
///
/// `force_full_every: 1` with `greedy_max_sparsity: 0` sends every frame
/// to [`Decoder::reconstruct_warm`], bit-identical to calling it
/// directly: each frame is a forced `Event` and the greedy tier is
/// capped at zero atoms.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Decode every Nth frame in full regardless of classification, so
    /// partial-decode drift cannot accumulate unboundedly. `0` disables
    /// the guard.
    pub force_full_every: usize,
    /// Iteration budget for the delta tier's warm partial decode (the
    /// latency governor may shrink it at runtime, never below 5
    /// iterations).
    pub delta_iteration_budget: usize,
    /// Largest estimated total sparsity still routed to the greedy
    /// tier; denser events go straight to the full solver.
    pub greedy_max_sparsity: usize,
    /// Per-frame latency budget in microseconds. When set, an EMA of
    /// delta-tier decode time steers the delta iteration budget:
    /// over-budget halves it, comfortably under-budget grows it back
    /// toward `delta_iteration_budget`.
    pub frame_budget_us: Option<f64>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            force_full_every: 64,
            delta_iteration_budget: 60,
            greedy_max_sparsity: 64,
            frame_budget_us: None,
        }
    }
}

impl AdaptiveConfig {
    /// Rejects frame budgets the latency governor cannot act on.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `frame_budget_us` is set but not
    /// a finite positive number.
    pub fn validate(&self) -> Result<()> {
        if let Some(budget) = self.frame_budget_us {
            if !(budget.is_finite() && budget > 0.0) {
                return Err(CoreError::InvalidConfig(format!(
                    "frame_budget_us must be finite and > 0, got {budget}"
                )));
            }
        }
        Ok(())
    }
}

/// O(M) frame-change detector over the identity-subset sampling plan.
///
/// Classifying a new frame gathers the reference frame (the previous
/// reconstruction, which the caller owns) at the plan's `selected`
/// indices (that *is* re-encoding under Φ_M) and compares against the
/// raw measurements. No solve and no operator are built on this path.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChangeDetector {
    /// Frames classified since the last full decode, for the
    /// forced-full guard.
    frames_since_full: usize,
    /// Measurement-length residual scratch, reused across frames.
    residual: Vec<f64>,
}

impl ChangeDetector {
    /// Fresh detector; the first frame always classifies as `Event`.
    pub fn new() -> Self {
        ChangeDetector::default()
    }

    /// Classifies a frame's measurements `y` at pixel indices
    /// `selected` against the `reference` frame (`None` before the first
    /// reconstruction). Counts the frame toward the forced-full guard.
    pub fn classify(
        &mut self,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
        reference: Option<&Matrix>,
        config: &AdaptiveConfig,
    ) -> FrameClass {
        self.frames_since_full += 1;
        let n = rows * cols;
        let prev = match reference {
            Some(frame)
                if frame.shape() == (rows, cols)
                    && selected.len() == y.len()
                    && selected.iter().all(|&i| i < n) =>
            {
                frame.as_slice()
            }
            // No comparable previous frame (or malformed request — the
            // decode itself will produce the proper error).
            _ => return FrameClass::Event,
        };
        // Φ_M applied to the previous reconstruction is a gather.
        self.residual.clear();
        self.residual
            .extend(selected.iter().zip(y).map(|(&i, &v)| v - prev[i]));
        let y_norm = vecops::norm2(y).max(f64::MIN_POSITIVE);
        let rel = vecops::norm2(&self.residual) / y_norm;
        if config.force_full_every > 0 && self.frames_since_full >= config.force_full_every {
            return FrameClass::Event;
        }
        if rel <= STATIC_THRESHOLD {
            FrameClass::Static
        } else if rel <= DELTA_THRESHOLD {
            FrameClass::Delta
        } else {
            FrameClass::Event
        }
    }

    /// Resets the forced-full countdown (call after a full-quality
    /// decode: `event_greedy` or `event_full`).
    pub fn note_full_decode(&mut self) {
        self.frames_since_full = 0;
    }

    /// Measurement residual `y − Φ_M·x_prev` of the last comparable
    /// classification, for downstream sparsity estimation.
    pub fn residual(&self) -> &[f64] {
        &self.residual
    }

    /// Restarts the forced-full countdown and drops the residual.
    pub fn reset(&mut self) {
        self.frames_since_full = 0;
        self.residual.clear();
    }
}

/// Change-gated tier router around a [`Decoder`].
///
/// One pipeline follows one stream of frames (e.g. a serve session):
/// it owns the change detector, the previous reconstruction, the
/// per-tier counters and the delta-tier latency governor. The decoder and warm state stay caller-owned so the
/// pipeline composes with the existing session plumbing.
///
/// # Examples
///
/// ```
/// use flexcs_core::{AdaptiveConfig, AdaptivePipeline, DecodeTier, DecodeWarmState, Decoder, SamplingPlan};
/// use flexcs_linalg::Matrix;
/// use flexcs_transform::Dct2d;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dct = Dct2d::new(8, 8)?;
/// let mut coeffs = Matrix::zeros(8, 8);
/// coeffs[(0, 0)] = 4.0;
/// coeffs[(1, 2)] = 1.5;
/// let frame = dct.inverse(&coeffs)?;
/// let plan = SamplingPlan::random_subset(64, 40, &[], 7)?;
/// let y = plan.measure(&frame.to_flat());
///
/// let decoder = Decoder::default();
/// let mut warm = DecodeWarmState::new();
/// let mut pipeline = AdaptivePipeline::new(AdaptiveConfig::default());
/// let (_, tier) = pipeline.decode(&decoder, 8, 8, plan.selected(), &y, &mut warm)?;
/// assert_ne!(tier, DecodeTier::Static); // first frame decodes in full
/// let (rec, tier) = pipeline.decode(&decoder, 8, 8, plan.selected(), &y, &mut warm)?;
/// assert_eq!(tier, DecodeTier::Static); // unchanged frame is reused
/// assert!(rec.frame.max_abs_diff(&frame)? < 0.02);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdaptivePipeline {
    config: AdaptiveConfig,
    /// Why `config` cannot decode, found once by [`AdaptivePipeline::new`];
    /// every decode returns it.
    invalid: Option<CoreError>,
    detector: ChangeDetector,
    prev: Option<Reconstruction>,
    tiers: TierCounts,
    /// Current delta-tier iteration budget (latency-governed).
    delta_budget: usize,
    /// EMA of delta-tier decode latency in µs.
    ema_us: Option<f64>,
    /// Scratch for the residual correlation spectrum (length N).
    corr: Vec<f64>,
}

impl AdaptivePipeline {
    /// Builds a pipeline, validating `config` once: an invalid
    /// configuration (see [`AdaptiveConfig::validate`]) is reported by
    /// every [`AdaptivePipeline::decode`] call.
    pub fn new(config: AdaptiveConfig) -> Self {
        let delta_budget = config.delta_iteration_budget.max(MIN_DELTA_ITERATIONS);
        AdaptivePipeline {
            invalid: config.validate().err(),
            config,
            detector: ChangeDetector::new(),
            prev: None,
            tiers: TierCounts::default(),
            delta_budget,
            ema_us: None,
            corr: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Per-tier frame counts so far.
    pub fn tier_counts(&self) -> TierCounts {
        self.tiers
    }

    /// Drops all carried stream state (reference frame, previous
    /// reconstruction, latency EMA); tier counters survive.
    pub fn reset(&mut self) {
        self.detector.reset();
        self.prev = None;
        self.ema_us = None;
        self.delta_budget = self.config.delta_iteration_budget.max(MIN_DELTA_ITERATIONS);
    }

    /// Decodes one frame through the cheapest tier the change detector
    /// allows, returning the reconstruction and the tier that produced
    /// it.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the pipeline's configuration
    /// failed [`AdaptiveConfig::validate`] at construction; otherwise
    /// propagates decode failures, see [`Decoder::reconstruct`].
    pub fn decode(
        &mut self,
        decoder: &Decoder,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
        warm: &mut DecodeWarmState,
    ) -> Result<(Reconstruction, DecodeTier)> {
        if let Some(e) = &self.invalid {
            return Err(e.clone());
        }
        let reference = self.prev.as_ref().map(|rec| &rec.frame);
        let class = self
            .detector
            .classify(rows, cols, selected, y, reference, &self.config);
        let tier = match class {
            FrameClass::Static => {
                // `classify` only returns Static when a comparable
                // previous reconstruction exists.
                let rec = self.prev.clone().expect("static verdict without a frame");
                self.count(DecodeTier::Static);
                return Ok((rec, DecodeTier::Static));
            }
            FrameClass::Delta => {
                let solver = decoder.solver().with_iteration_budget(self.delta_budget);
                let started = Instant::now();
                let rec =
                    decoder.reconstruct_with_solver(&solver, rows, cols, selected, y, warm)?;
                self.govern_delta_budget(started);
                self.finish(rec, DecodeTier::Delta)
            }
            FrameClass::Event => {
                let tier = self.decode_event(decoder, rows, cols, selected, y, warm)?;
                self.detector.note_full_decode();
                tier
            }
        };
        let rec = self
            .prev
            .clone()
            .expect("finish() always stores the reconstruction");
        Ok((rec, tier))
    }

    /// Full decode of an event frame: greedy fast tier when the
    /// residual spectrum says the scene is sparse enough, otherwise (or
    /// on greedy non-convergence) the session's configured solver.
    fn decode_event(
        &mut self,
        decoder: &Decoder,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
        warm: &mut DecodeWarmState,
    ) -> Result<DecodeTier> {
        if let Some(sparsity) = self.greedy_sparsity(decoder, rows, cols, selected, y) {
            // A scene that is not greedy-recoverable (K badly
            // under-estimated, e.g. a dense event aliasing down to a
            // small correlation count) must fail in a handful of
            // iterations, not after `sparsity` O(m·K²) refits — the
            // full solver is waiting right behind this attempt.
            let solver = SparseSolver::Omp(GreedyConfig {
                sparsity,
                residual_tol: GREEDY_RESIDUAL_TOL,
                stall_patience: GREEDY_STALL_PATIENCE,
            });
            let rec = decoder.reconstruct_with_solver(&solver, rows, cols, selected, y, warm)?;
            if rec.report.converged {
                // Seed the next warm FISTA solve from the greedy
                // solution so the fast tier still primes delta decodes.
                warm.absorb_coefficients(
                    (selected.len(), rows * cols),
                    &vectorize(&rec.coefficients),
                );
                return Ok(self.finish(rec, DecodeTier::EventGreedy));
            }
        }
        let rec = decoder.reconstruct_warm(rows, cols, selected, y, warm)?;
        Ok(self.finish(rec, DecodeTier::EventFull))
    }

    /// Greedy-tier sparsity budget for this event, or `None` when the
    /// event should go to the full solver. K is estimated by counting
    /// residual-spectrum correlations within `κ` of the peak, plus the
    /// carried support of the previous coefficients (the greedy decode
    /// must re-explain the whole scene, not just the change).
    fn greedy_sparsity(
        &mut self,
        decoder: &Decoder,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
    ) -> Option<usize> {
        // The least-squares refits need a comfortably overdetermined
        // system; tiny measurement sets always take the full path.
        let cap = self.config.greedy_max_sparsity.min(selected.len() / 3);
        if cap == 0 || selected.len() != y.len() {
            return None;
        }
        let plan = decoder.plan_for(rows, cols).ok()?;
        let op =
            SubsampledDctOperator::with_plan(rows, cols, selected.to_vec(), BasisKind::Dct, plan)
                .ok()?;
        // Residual spectrum: Ψᵀ·Φ_Mᵀ applied to (y − Φ_M·x_prev), or to
        // y itself when no reference frame exists.
        let residual = if self.detector.residual().len() == y.len() {
            self.detector.residual()
        } else {
            y
        };
        op.apply_transpose_into(residual, &mut self.corr);
        let peak = vecops::norm_inf(&self.corr);
        if peak <= 0.0 {
            // Spectrally empty event (e.g. all-zero first frame): one
            // atom is plenty.
            return Some(1);
        }
        let cut = GREEDY_KAPPA * peak;
        let k_residual = self.corr.iter().filter(|c| c.abs() >= cut).count();
        let k_prev = self.prev.as_ref().map_or(0, |rec| {
            let coeffs = rec.coefficients.as_slice();
            let peak = vecops::norm_inf(coeffs);
            let cut = 1e-3 * peak;
            if peak > 0.0 {
                coeffs.iter().filter(|c| c.abs() >= cut).count()
            } else {
                0
            }
        });
        let k_total = k_residual + k_prev;
        if k_total == 0 || k_total > cap {
            return None;
        }
        // Head-room so a slightly under-estimated K still converges;
        // OMP stops early at the residual tolerance anyway.
        Some((k_total + k_total / 2 + 2).min(cap))
    }

    /// Stores the reconstruction as the new reference and counts the
    /// tier.
    fn finish(&mut self, rec: Reconstruction, tier: DecodeTier) -> DecodeTier {
        self.prev = Some(rec);
        self.count(tier);
        tier
    }

    fn count(&mut self, tier: DecodeTier) {
        match tier {
            DecodeTier::Static => self.tiers.static_frames += 1,
            DecodeTier::Delta => self.tiers.delta += 1,
            DecodeTier::EventGreedy => self.tiers.event_greedy += 1,
            DecodeTier::EventFull => self.tiers.event_full += 1,
        }
        if tel::enabled() {
            tel::counter(&format!("decode.tier.{}", tier.name()), 1);
        }
    }

    /// Latency governor: steer the delta iteration budget toward the
    /// per-frame budget using an EMA of observed delta decode time.
    fn govern_delta_budget(&mut self, started: Instant) {
        let Some(budget) = self.config.frame_budget_us else {
            return;
        };
        let us = started.elapsed().as_secs_f64() * 1e6;
        let ema = match self.ema_us {
            Some(prev) => 0.7 * prev + 0.3 * us,
            None => us,
        };
        self.ema_us = Some(ema);
        if ema > budget {
            self.delta_budget = (self.delta_budget / 2).max(MIN_DELTA_ITERATIONS);
        } else if ema < 0.5 * budget && self.delta_budget < self.config.delta_iteration_budget {
            self.delta_budget = (self.delta_budget + self.delta_budget / 4 + 1)
                .min(self.config.delta_iteration_budget);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplingPlan;
    use flexcs_linalg::Matrix;
    use flexcs_transform::Dct2d;

    /// A frame that is exactly K-sparse in the DCT domain, with the
    /// leading coefficient scaled by `dc` (animating `dc` drifts the
    /// scene without changing the support).
    fn sparse_frame(rows: usize, cols: usize, dc: f64) -> Matrix {
        let dct = Dct2d::new(rows, cols).unwrap();
        let mut coeffs = Matrix::zeros(rows, cols);
        coeffs[(0, 0)] = 5.0 * dc;
        coeffs[(0, 1)] = 2.0;
        coeffs[(1, 0)] = -1.5;
        coeffs[(2, 2)] = 1.0;
        dct.inverse(&coeffs).unwrap()
    }

    fn measure(frame: &Matrix, plan: &SamplingPlan) -> Vec<f64> {
        plan.measure(&frame.to_flat())
    }

    #[test]
    fn static_stream_classifies_static_after_first_frame() {
        let cfg = AdaptiveConfig::default();
        let mut det = ChangeDetector::new();
        let frame = sparse_frame(8, 8, 1.0);
        let plan = SamplingPlan::random_subset(64, 40, &[], 5).unwrap();
        let y = measure(&frame, &plan);
        assert_eq!(
            det.classify(8, 8, plan.selected(), &y, None, &cfg),
            FrameClass::Event,
            "no reference frame yet"
        );
        det.note_full_decode();
        for _ in 0..5 {
            assert_eq!(
                det.classify(8, 8, plan.selected(), &y, Some(&frame), &cfg),
                FrameClass::Static
            );
        }
    }

    #[test]
    fn step_change_classifies_event() {
        let cfg = AdaptiveConfig::default();
        let mut det = ChangeDetector::new();
        let plan = SamplingPlan::random_subset(64, 40, &[], 6).unwrap();
        let before = sparse_frame(8, 8, 1.0);
        det.note_full_decode();
        // An abrupt scene change: different support, different scale.
        let dct = Dct2d::new(8, 8).unwrap();
        let mut coeffs = Matrix::zeros(8, 8);
        coeffs[(4, 4)] = 6.0;
        coeffs[(5, 1)] = -3.0;
        let after = dct.inverse(&coeffs).unwrap();
        let y = measure(&after, &plan);
        assert_eq!(
            det.classify(8, 8, plan.selected(), &y, Some(&before), &cfg),
            FrameClass::Event
        );
    }

    #[test]
    fn drift_classifies_delta() {
        let cfg = AdaptiveConfig::default();
        let mut det = ChangeDetector::new();
        let plan = SamplingPlan::random_subset(64, 40, &[], 7).unwrap();
        let before = sparse_frame(8, 8, 1.0);
        det.note_full_decode();
        // ~10 % drift on the dominant coefficient: between the static
        // and event thresholds.
        let after = sparse_frame(8, 8, 1.12);
        let y = measure(&after, &plan);
        let class = det.classify(8, 8, plan.selected(), &y, Some(&before), &cfg);
        let rel = vecops::norm2(det.residual()) / vecops::norm2(&y);
        assert_eq!(class, FrameClass::Delta, "relative residual {rel}");
    }

    #[test]
    fn forced_full_guard_fires_every_nth_frame() {
        let cfg = AdaptiveConfig {
            force_full_every: 3,
            ..AdaptiveConfig::default()
        };
        let mut det = ChangeDetector::new();
        let plan = SamplingPlan::random_subset(64, 40, &[], 8).unwrap();
        let frame = sparse_frame(8, 8, 1.0);
        det.note_full_decode();
        let y = measure(&frame, &plan);
        assert_eq!(
            det.classify(8, 8, plan.selected(), &y, Some(&frame), &cfg),
            FrameClass::Static
        );
        assert_eq!(
            det.classify(8, 8, plan.selected(), &y, Some(&frame), &cfg),
            FrameClass::Static
        );
        // Third frame since the last full decode: forced Event even
        // though the measurements are unchanged.
        assert_eq!(
            det.classify(8, 8, plan.selected(), &y, Some(&frame), &cfg),
            FrameClass::Event
        );
        det.note_full_decode();
        assert_eq!(
            det.classify(8, 8, plan.selected(), &y, Some(&frame), &cfg),
            FrameClass::Static
        );
    }

    #[test]
    fn shape_change_resets_to_event() {
        let cfg = AdaptiveConfig::default();
        let mut det = ChangeDetector::new();
        let big = sparse_frame(8, 8, 1.0);
        let plan = SamplingPlan::random_subset(16, 10, &[], 9).unwrap();
        let small = sparse_frame(4, 4, 1.0);
        let y = measure(&small, &plan);
        assert_eq!(
            det.classify(4, 4, plan.selected(), &y, Some(&big), &cfg),
            FrameClass::Event
        );
    }

    #[test]
    fn pipeline_routes_static_delta_event() {
        let decoder = Decoder::default();
        let mut warm = DecodeWarmState::new();
        let mut pipeline = AdaptivePipeline::new(AdaptiveConfig::default());
        let plan = SamplingPlan::random_subset(64, 40, &[], 11).unwrap();
        // Frame 1: event (cold). Frames 2-3: static holds. Frame 4:
        // drift. Frame 5: abrupt change.
        let f1 = sparse_frame(8, 8, 1.0);
        let y1 = measure(&f1, &plan);
        let (_, t1) = pipeline
            .decode(&decoder, 8, 8, plan.selected(), &y1, &mut warm)
            .unwrap();
        assert!(matches!(
            t1,
            DecodeTier::EventGreedy | DecodeTier::EventFull
        ));
        for _ in 0..2 {
            let (rec, tier) = pipeline
                .decode(&decoder, 8, 8, plan.selected(), &y1, &mut warm)
                .unwrap();
            assert_eq!(tier, DecodeTier::Static);
            assert!(rec.frame.max_abs_diff(&f1).unwrap() < 0.02);
        }
        let f4 = sparse_frame(8, 8, 1.12);
        let y4 = measure(&f4, &plan);
        let (rec, tier) = pipeline
            .decode(&decoder, 8, 8, plan.selected(), &y4, &mut warm)
            .unwrap();
        assert_eq!(tier, DecodeTier::Delta);
        assert!(rec.frame.max_abs_diff(&f4).unwrap() < 0.05);
        let dct = Dct2d::new(8, 8).unwrap();
        let mut coeffs = Matrix::zeros(8, 8);
        coeffs[(4, 4)] = 6.0;
        let f5 = dct.inverse(&coeffs).unwrap();
        let y5 = measure(&f5, &plan);
        let (rec, tier) = pipeline
            .decode(&decoder, 8, 8, plan.selected(), &y5, &mut warm)
            .unwrap();
        assert!(matches!(
            tier,
            DecodeTier::EventGreedy | DecodeTier::EventFull
        ));
        assert!(rec.frame.max_abs_diff(&f5).unwrap() < 0.05);
        let counts = pipeline.tier_counts();
        assert_eq!(counts.static_frames, 2);
        assert_eq!(counts.delta, 1);
        assert_eq!(counts.total(), 5);
    }

    #[test]
    fn sparse_event_routes_to_greedy_tier() {
        let decoder = Decoder::default();
        let mut warm = DecodeWarmState::new();
        let mut pipeline = AdaptivePipeline::new(AdaptiveConfig::default());
        let plan = SamplingPlan::random_subset(256, 160, &[], 13).unwrap();
        // A genuinely 3-sparse scene on a 16x16 array: the residual
        // spectrum is concentrated, so the event goes to OMP and
        // recovers (near-)exactly.
        let dct = Dct2d::new(16, 16).unwrap();
        let mut coeffs = Matrix::zeros(16, 16);
        coeffs[(0, 0)] = 4.0;
        coeffs[(2, 1)] = 2.0;
        coeffs[(1, 3)] = -1.0;
        let frame = dct.inverse(&coeffs).unwrap();
        let y = measure(&frame, &plan);
        let (rec, tier) = pipeline
            .decode(&decoder, 16, 16, plan.selected(), &y, &mut warm)
            .unwrap();
        assert_eq!(tier, DecodeTier::EventGreedy);
        assert!(
            rec.frame.max_abs_diff(&frame).unwrap() < 1e-6,
            "greedy event decode should be near-exact, err {}",
            rec.frame.max_abs_diff(&frame).unwrap()
        );
        assert_eq!(pipeline.tier_counts().event_greedy, 1);
    }

    #[test]
    fn disabled_pipeline_is_bit_identical_to_warm_path() {
        // Every frame a forced event, greedy capped at zero atoms: the
        // router adds nothing to the warm full decode.
        let decoder = Decoder::default();
        let plan = SamplingPlan::random_subset(64, 40, &[], 17).unwrap();
        let frames = [
            sparse_frame(8, 8, 1.0),
            sparse_frame(8, 8, 1.0),
            sparse_frame(8, 8, 1.3),
        ];
        let mut warm_ref = DecodeWarmState::new();
        let mut warm_adp = DecodeWarmState::new();
        let mut pipeline = AdaptivePipeline::new(AdaptiveConfig {
            force_full_every: 1,
            greedy_max_sparsity: 0,
            ..AdaptiveConfig::default()
        });
        for frame in &frames {
            let y = measure(frame, &plan);
            let reference = decoder
                .reconstruct_warm(8, 8, plan.selected(), &y, &mut warm_ref)
                .unwrap();
            let (adaptive, tier) = pipeline
                .decode(&decoder, 8, 8, plan.selected(), &y, &mut warm_adp)
                .unwrap();
            assert_eq!(tier, DecodeTier::EventFull);
            assert_eq!(adaptive.frame.as_slice(), reference.frame.as_slice());
            assert_eq!(
                adaptive.coefficients.as_slice(),
                reference.coefficients.as_slice()
            );
        }
        assert_eq!(pipeline.tier_counts().event_full, 3);
    }

    #[test]
    fn invalid_config_fails_every_decode() {
        let decoder = Decoder::default();
        let plan = SamplingPlan::random_subset(64, 40, &[], 21).unwrap();
        let y = measure(&sparse_frame(8, 8, 1.0), &plan);
        // A frame budget the latency governor cannot act on: a
        // non-positive one would pin the delta tier at its floor, a NaN
        // one would silently disable the governor.
        let bad_budgets = [-1.0, 0.0, f64::NAN, f64::INFINITY].map(|b| AdaptiveConfig {
            frame_budget_us: Some(b),
            ..AdaptiveConfig::default()
        });
        for cfg in bad_budgets {
            assert!(
                matches!(cfg.validate(), Err(CoreError::InvalidConfig(_))),
                "{cfg:?} accepted"
            );
            let mut warm = DecodeWarmState::new();
            let mut pipeline = AdaptivePipeline::new(cfg);
            for _ in 0..2 {
                let result = pipeline.decode(&decoder, 8, 8, plan.selected(), &y, &mut warm);
                assert!(
                    matches!(result, Err(CoreError::InvalidConfig(_))),
                    "{result:?}"
                );
            }
            assert_eq!(pipeline.tier_counts().total(), 0);
            assert_eq!(warm.warm_starts(), 0, "no solve ran");
        }
    }

    #[test]
    fn bad_frames_after_a_reference_fail_typed_and_leave_the_stream_intact() {
        let decoder = Decoder::default();
        let cfg = AdaptiveConfig::default();
        let mut warm = DecodeWarmState::new();
        let mut pipeline = AdaptivePipeline::new(cfg.clone());
        let plan = SamplingPlan::random_subset(64, 40, &[], 11).unwrap();
        let frame = sparse_frame(8, 8, 1.0);
        let y = measure(&frame, &plan);
        pipeline
            .decode(&decoder, 8, 8, plan.selected(), &y, &mut warm)
            .unwrap();
        let (_, tier) = pipeline
            .decode(&decoder, 8, 8, plan.selected(), &y, &mut warm)
            .unwrap();
        assert_eq!(tier, DecodeTier::Static);
        let counts = pipeline.tier_counts();

        let mut bad_frames = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut y_bad = y.clone();
            y_bad[3] = bad;
            bad_frames.push((y_bad, CoreError::NonFiniteMeasurement { index: 3 }));
        }
        for scale in [1e160, 1e200, 1e308] {
            let y_bad = y.iter().map(|v| v * scale).collect();
            bad_frames.push((y_bad, CoreError::MeasurementOverflow));
        }
        for (y_bad, expected) in &bad_frames {
            // The detector's verdict on a bad frame must never be
            // Static (a stale frame served for bad input): a NaN or
            // overflowing `y` makes the relative residual NaN, which
            // fails both threshold comparisons and lands on Event, so
            // the decoder's ingress checks see the frame.
            let verdict =
                ChangeDetector::new().classify(8, 8, plan.selected(), y_bad, Some(&frame), &cfg);
            assert_eq!(verdict, FrameClass::Event, "{expected:?}");
            let result = pipeline.decode(&decoder, 8, 8, plan.selected(), y_bad, &mut warm);
            assert!(
                matches!(&result, Err(e) if e == expected),
                "expected {expected:?}, got {result:?}"
            );
            assert_eq!(pipeline.tier_counts(), counts);
        }

        // The stream goes on: a drifted good frame still decodes.
        let drifted = sparse_frame(8, 8, 1.12);
        let y_drifted = measure(&drifted, &plan);
        let (rec, tier) = pipeline
            .decode(&decoder, 8, 8, plan.selected(), &y_drifted, &mut warm)
            .unwrap();
        assert_eq!(tier, DecodeTier::Delta);
        assert!(rec.frame.max_abs_diff(&drifted).unwrap() < 0.05);
        assert_eq!(pipeline.tier_counts().total(), counts.total() + 1);
    }

    #[test]
    fn reset_forgets_reference_frame_but_keeps_counts() {
        let decoder = Decoder::default();
        let mut warm = DecodeWarmState::new();
        let mut pipeline = AdaptivePipeline::new(AdaptiveConfig::default());
        let plan = SamplingPlan::random_subset(64, 40, &[], 19).unwrap();
        let frame = sparse_frame(8, 8, 1.0);
        let y = measure(&frame, &plan);
        pipeline
            .decode(&decoder, 8, 8, plan.selected(), &y, &mut warm)
            .unwrap();
        let (_, tier) = pipeline
            .decode(&decoder, 8, 8, plan.selected(), &y, &mut warm)
            .unwrap();
        assert_eq!(tier, DecodeTier::Static);
        let before = pipeline.tier_counts();
        pipeline.reset();
        let (_, tier) = pipeline
            .decode(&decoder, 8, 8, plan.selected(), &y, &mut warm)
            .unwrap();
        assert_ne!(tier, DecodeTier::Static, "reset must forget the frame");
        assert_eq!(pipeline.tier_counts().total(), before.total() + 1);
    }
}
