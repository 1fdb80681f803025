//! Per-tenant decode sessions and the pluggable decode backend.
//!
//! A [`Session`] owns the state a tenant's stream carries from frame
//! to frame: the tenant's [`Decoder`] (whose internal `Dct2d` plan
//! cache persists across frames), and a [`DecodeWarmState`] carrying
//! the previous solution and cached spectral norm. Solver scratch is
//! not per tenant: warm decodes run on the worker thread's workspace,
//! so the session holds no solver buffers. The engine guarantees
//! exclusive access — a session is locked by exactly one worker at a
//! time and its frames are decoded in FIFO submission order — so
//! per-tenant results are bit-identical to running the same sequence
//! serially, regardless of how many workers the engine runs or which
//! worker stole the batch.

use crate::error::ServeError;
use crate::tel;
use flexcs_core::{
    AdaptiveConfig, AdaptivePipeline, DecodeWarmState, Decoder, Reconstruction, TierCounts,
};

/// A frame submitted for decoding: measurements taken at a subset of
/// pixel indices of a `rows x cols` frame (the paper's identity-subset
/// scan).
#[derive(Debug, Clone)]
pub struct FrameRequest {
    /// Frame height.
    pub rows: usize,
    /// Frame width.
    pub cols: usize,
    /// Sampled pixel indices, ascending (the sampling plan Φ_M).
    pub selected: Vec<usize>,
    /// Measurements at `selected`, same length.
    pub y: Vec<f64>,
}

impl FrameRequest {
    /// Cheap structural validation done at submit time, before the
    /// request ever reaches a worker.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(ServeError::BadRequest(format!(
                "frame shape {}x{} has a zero dimension",
                self.rows, self.cols
            )));
        }
        if self.selected.len() != self.y.len() {
            return Err(ServeError::BadRequest(format!(
                "{} selected indices but {} measurements",
                self.selected.len(),
                self.y.len()
            )));
        }
        if self.selected.is_empty() {
            return Err(ServeError::BadRequest("no measurements".to_string()));
        }
        if let Some(i) = self.y.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::BadRequest(format!(
                "measurement {i} is not finite ({})",
                self.y[i]
            )));
        }
        Ok(())
    }

    /// Shape key used by the scheduler's same-shape batching.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

/// How a session decodes its stream of frames.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeMode {
    /// Every frame solves from scratch.
    Cold,
    /// Each solve seeds from the tenant's previous solution
    /// (cross-frame warm starts); the first frame after a shape change
    /// runs cold automatically.
    Warm,
    /// Event-driven adaptive tier routing on top of warm decodes: each
    /// frame is gated by the O(M) change detector and served by the
    /// cheapest tier (previous-frame reuse, budget-capped delta decode,
    /// greedy fast tier, or full decode). The config's
    /// `frame_budget_us` doubles as the session's per-frame latency
    /// budget.
    Adaptive(AdaptiveConfig),
}

/// Configuration for one tenant session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Human-readable tenant name (telemetry labels).
    pub name: String,
    /// Decoder configuration the tenant's frames run through.
    pub decoder: Decoder,
    /// How the tenant's frames are decoded; [`DecodeMode::Warm`] by
    /// default.
    pub mode: DecodeMode,
}

impl SessionConfig {
    /// Default session (FISTA decoder, warm decode) with a name.
    pub fn named(name: impl Into<String>) -> Self {
        SessionConfig {
            name: name.into(),
            decoder: Decoder::default(),
            mode: DecodeMode::Warm,
        }
    }

    /// Replaces the decoder (builder style).
    #[must_use]
    pub fn with_decoder(mut self, decoder: Decoder) -> Self {
        self.decoder = decoder;
        self
    }

    /// Decodes every frame cold (builder style), replacing the mode.
    #[must_use]
    pub fn cold(mut self) -> Self {
        self.mode = DecodeMode::Cold;
        self
    }

    /// Enables adaptive tier routing (builder style), replacing the
    /// mode.
    #[must_use]
    pub fn with_adaptive(mut self, config: AdaptiveConfig) -> Self {
        self.mode = DecodeMode::Adaptive(config);
        self
    }

    /// Sets the per-frame latency budget of the adaptive tier in
    /// microseconds (builder style): the delta tier's iteration budget
    /// is steered to keep decode time under it. Switches to adaptive
    /// routing with defaults when the session is not adaptive yet.
    #[must_use]
    pub fn with_frame_budget_us(self, budget_us: f64) -> Self {
        let mut cfg = match self.mode {
            DecodeMode::Adaptive(ref cfg) => cfg.clone(),
            _ => AdaptiveConfig::default(),
        };
        cfg.frame_budget_us = Some(budget_us);
        self.with_adaptive(cfg)
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig::named("tenant")
    }
}

/// The live form of a [`DecodeMode`]: the adaptive mode owns its tier
/// router (boxed: it dwarfs the other variants).
#[derive(Debug)]
enum LiveMode {
    Cold,
    Warm,
    Adaptive(Box<AdaptivePipeline>),
}

/// Live per-tenant state, exclusively held by one worker at a time.
#[derive(Debug)]
pub struct Session {
    name: String,
    decoder: Decoder,
    warm: DecodeWarmState,
    mode: LiveMode,
    frames_decoded: u64,
}

impl Session {
    pub(crate) fn new(config: SessionConfig) -> Self {
        Session {
            name: config.name,
            decoder: config.decoder,
            warm: DecodeWarmState::new(),
            mode: match config.mode {
                DecodeMode::Cold => LiveMode::Cold,
                DecodeMode::Warm => LiveMode::Warm,
                DecodeMode::Adaptive(cfg) => {
                    LiveMode::Adaptive(Box::new(AdaptivePipeline::new(cfg)))
                }
            },
            frames_decoded: 0,
        }
    }

    /// Tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's decoder (plan cache included).
    pub fn decoder(&self) -> &Decoder {
        &self.decoder
    }

    /// Split borrow for adaptive decodes: decoder, warm state and the
    /// tier pipeline (when the session is adaptive).
    pub fn adaptive_parts(
        &mut self,
    ) -> (
        &Decoder,
        &mut DecodeWarmState,
        Option<&mut AdaptivePipeline>,
    ) {
        let pipeline = match &mut self.mode {
            LiveMode::Adaptive(pipeline) => Some(pipeline.as_mut()),
            LiveMode::Cold | LiveMode::Warm => None,
        };
        (&self.decoder, &mut self.warm, pipeline)
    }

    /// Per-tier frame counts of the adaptive router, when the session
    /// is adaptive.
    pub fn tier_counts(&self) -> Option<TierCounts> {
        match &self.mode {
            LiveMode::Adaptive(pipeline) => Some(pipeline.tier_counts()),
            LiveMode::Cold | LiveMode::Warm => None,
        }
    }

    /// Frames this session has decoded (successfully or not).
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded
    }

    /// Solves seeded from a previous solution so far.
    pub fn warm_starts(&self) -> u64 {
        self.warm.warm_starts()
    }

    pub(crate) fn note_frame(&mut self) {
        self.frames_decoded += 1;
    }

    /// Called after a decode panic: the carried solution and adaptive
    /// reference frame may be mid-update, so the next solve must run
    /// cold rather than inherit torn state. The worker thread's solver
    /// workspace needs no reset: every solver reinitializes what it
    /// reads.
    pub(crate) fn reset_after_panic(&mut self) {
        self.warm = DecodeWarmState::new();
        if let LiveMode::Adaptive(pipeline) = &mut self.mode {
            pipeline.reset();
        }
    }
}

/// Pluggable decode implementation.
///
/// The engine routes every frame through the session's backend; the
/// default [`WarmDecodeBackend`] calls the real decoder. Tests inject
/// failing or panicking backends to exercise the scheduler's fault
/// paths, and benches inject instrumented ones.
pub trait DecodeBackend: Send + Sync {
    /// Decodes one frame using (and updating) the tenant's session
    /// state.
    ///
    /// # Errors
    ///
    /// Propagates decoder failures; the engine maps them onto
    /// [`ServeError::Decode`] for the frame's handle.
    fn decode(
        &self,
        req: &FrameRequest,
        session: &mut Session,
    ) -> flexcs_core::Result<Reconstruction>;
}

/// Default backend: the flexcs-core decoder, dispatched on the
/// session's [`DecodeMode`]. Cold sessions decode from scratch, warm
/// sessions seed from the previous solution, and adaptive sessions
/// route each frame through the change-gated pipeline (emitting
/// `serve.tier.{static,delta,event_greedy,event_full}` counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmDecodeBackend;

impl DecodeBackend for WarmDecodeBackend {
    fn decode(
        &self,
        req: &FrameRequest,
        session: &mut Session,
    ) -> flexcs_core::Result<Reconstruction> {
        let Session {
            decoder,
            warm,
            mode,
            ..
        } = session;
        let (rows, cols, selected, y) = (req.rows, req.cols, &req.selected, &req.y);
        match mode {
            LiveMode::Cold => decoder.reconstruct(rows, cols, selected, y),
            LiveMode::Warm => decoder.reconstruct_warm(rows, cols, selected, y, warm),
            LiveMode::Adaptive(pipeline) => {
                let (rec, tier) = pipeline.decode(decoder, rows, cols, selected, y, warm)?;
                if tel::enabled() {
                    tel::counter(&format!("serve.tier.{}", tier.name()), 1);
                }
                Ok(rec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_malformed_requests() {
        let bad_shape = FrameRequest {
            rows: 0,
            cols: 4,
            selected: vec![0],
            y: vec![1.0],
        };
        assert!(matches!(
            bad_shape.validate(),
            Err(ServeError::BadRequest(_))
        ));
        let mismatched = FrameRequest {
            rows: 4,
            cols: 4,
            selected: vec![0, 1],
            y: vec![1.0],
        };
        assert!(matches!(
            mismatched.validate(),
            Err(ServeError::BadRequest(_))
        ));
        let empty = FrameRequest {
            rows: 4,
            cols: 4,
            selected: vec![],
            y: vec![],
        };
        assert!(matches!(empty.validate(), Err(ServeError::BadRequest(_))));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let non_finite = FrameRequest {
                rows: 4,
                cols: 4,
                selected: vec![0, 1],
                y: vec![1.0, bad],
            };
            assert!(matches!(
                non_finite.validate(),
                Err(ServeError::BadRequest(_))
            ));
        }
    }

    #[test]
    fn session_resets_warm_state_after_panic() {
        let mut s = Session::new(SessionConfig::named("t"));
        s.note_frame();
        assert_eq!(s.frames_decoded(), 1);
        s.reset_after_panic();
        assert_eq!(s.warm_starts(), 0);
    }

    use flexcs_core::SamplingPlan;
    use flexcs_linalg::Matrix;
    use flexcs_transform::Dct2d;

    /// A DCT-sparse 8x8 frame whose dominant coefficient scales with
    /// `dc`, plus its measurements under a fixed plan.
    fn frame_request(dc: f64) -> FrameRequest {
        let dct = Dct2d::new(8, 8).unwrap();
        let mut coeffs = Matrix::zeros(8, 8);
        coeffs[(0, 0)] = 5.0 * dc;
        coeffs[(0, 1)] = 2.0;
        coeffs[(1, 0)] = -1.5;
        coeffs[(2, 2)] = 1.0;
        let frame = dct.inverse(&coeffs).unwrap();
        let plan = SamplingPlan::random_subset(64, 40, &[], 23).unwrap();
        FrameRequest {
            rows: 8,
            cols: 8,
            selected: plan.selected().to_vec(),
            y: plan.measure(&frame.to_flat()),
        }
    }

    #[test]
    fn adaptive_session_routes_static_and_delta_tiers() {
        let mut s = Session::new(
            SessionConfig::named("adaptive").with_adaptive(flexcs_core::AdaptiveConfig::default()),
        );
        let backend = WarmDecodeBackend;
        let hold = frame_request(1.0);
        backend.decode(&hold, &mut s).unwrap(); // event (first frame)
        backend.decode(&hold, &mut s).unwrap(); // static
        backend.decode(&hold, &mut s).unwrap(); // static
        backend.decode(&frame_request(1.12), &mut s).unwrap(); // drift
        let counts = s.tier_counts().unwrap();
        assert_eq!(counts.static_frames, 2, "{counts:?}");
        assert_eq!(counts.delta, 1, "{counts:?}");
        assert_eq!(counts.event_greedy + counts.event_full, 1, "{counts:?}");
    }

    #[test]
    fn static_tier_returns_previous_reconstruction() {
        let mut s = Session::new(
            SessionConfig::named("adaptive").with_adaptive(flexcs_core::AdaptiveConfig::default()),
        );
        let backend = WarmDecodeBackend;
        let hold = frame_request(1.0);
        let first = backend.decode(&hold, &mut s).unwrap();
        let second = backend.decode(&hold, &mut s).unwrap();
        assert_eq!(first.frame.as_slice(), second.frame.as_slice());
        assert_eq!(s.tier_counts().unwrap().static_frames, 1);
    }

    #[test]
    fn cold_builder_drops_adaptive_routing() {
        let cfg = SessionConfig::named("t")
            .with_adaptive(flexcs_core::AdaptiveConfig::default())
            .cold();
        assert_eq!(cfg.mode, DecodeMode::Cold);
        let s = Session::new(cfg);
        assert!(s.tier_counts().is_none());
    }

    #[test]
    fn frame_budget_builder_enables_adaptive() {
        let cfg = SessionConfig::named("t").with_frame_budget_us(500.0);
        let DecodeMode::Adaptive(adaptive) = &cfg.mode else {
            panic!("not adaptive: {:?}", cfg.mode);
        };
        assert_eq!(adaptive.frame_budget_us, Some(500.0));
        // A second budget keeps the rest of the adaptive config.
        let cfg = SessionConfig::named("t")
            .with_adaptive(flexcs_core::AdaptiveConfig {
                delta_iteration_budget: 7,
                ..Default::default()
            })
            .with_frame_budget_us(250.0);
        let DecodeMode::Adaptive(adaptive) = &cfg.mode else {
            panic!("not adaptive: {:?}", cfg.mode);
        };
        assert_eq!(adaptive.delta_iteration_budget, 7);
        assert_eq!(adaptive.frame_budget_us, Some(250.0));
    }

    #[test]
    fn panic_reset_forgets_adaptive_reference_frame() {
        let mut s = Session::new(
            SessionConfig::named("adaptive").with_adaptive(flexcs_core::AdaptiveConfig::default()),
        );
        let backend = WarmDecodeBackend;
        let hold = frame_request(1.0);
        backend.decode(&hold, &mut s).unwrap();
        backend.decode(&hold, &mut s).unwrap();
        assert_eq!(s.tier_counts().unwrap().static_frames, 1);
        s.reset_after_panic();
        // The reference frame is gone: the identical measurements must
        // decode in full again rather than reuse possibly-torn state.
        backend.decode(&hold, &mut s).unwrap();
        let counts = s.tier_counts().unwrap();
        assert_eq!(counts.static_frames, 1, "{counts:?}");
        assert_eq!(counts.event_greedy + counts.event_full, 2, "{counts:?}");
    }
}
