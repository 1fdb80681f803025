//! Convergence telemetry for the flexcs stack.
//!
//! A std-only observability layer in the style of the `log` crate: the
//! instrumented crates (`flexcs-solver`, `flexcs-core`,
//! `flexcs-parallel`) emit events through free functions here, and a
//! harness that wants the data installs a [`Recorder`] once per
//! process. With no recorder installed every emission is a single
//! relaxed atomic load; with the downstream `telemetry` cargo features
//! *disabled* the instrumentation isn't even compiled — call sites
//! guard on a `const false` and dead-code-eliminate entirely.
//!
//! Event model:
//!
//! - **Counters** — monotonic `u64` totals (`counter`).
//! - **Histograms** — fixed log₁₀-bucket distributions of `f64` values
//!   ([`Histogram`]).
//! - **Spans** — wall-clock scoped timers ([`SpanTimer`]) whose
//!   durations land in per-name histograms (nanoseconds).
//! - **Structured traces** — [`SolverIteration`] per solver iterate,
//!   [`RpcaSweep`] per RPCA/ALM sweep, [`FrameReport`] per decoded
//!   frame.
//!
//! [`MemoryRecorder`] aggregates everything in memory and exports a
//! JSON snapshot (schema documented in DESIGN.md §Observability and on
//! [`MemoryRecorder::snapshot_json`]).
//!
//! # Examples
//!
//! ```
//! use flexcs_telemetry as tel;
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(tel::MemoryRecorder::new());
//! // Install may fail if another recorder won the race; keep our Arc
//! // regardless — snapshots come from it, not from the global.
//! let _ = tel::install(recorder.clone());
//! tel::counter("decode.frames", 1);
//! {
//!     let _span = tel::span("decode.solve");
//!     // ... timed work ...
//! }
//! let json = recorder.snapshot_json();
//! assert!(json.contains("\"decode.frames\""));
//! ```

mod json;
mod recorder;

pub use recorder::{Histogram, HistogramSnapshot, MemoryRecorder, SpanSummary};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One solver iterate: emitted from every `flexcs-solver` iteration
/// loop (ISTA/FISTA, OMP, LP).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverIteration {
    /// Solver name (`"fista"`, `"ista"`, `"omp"` or `"lp"`).
    pub solver: &'static str,
    /// Zero-based iteration index within one solve.
    pub iteration: usize,
    /// Objective value at this iterate (solver-specific; NaN when the
    /// solver does not track one cheaply).
    pub objective: f64,
    /// Convergence residual at this iterate (solver-specific norm).
    pub residual: f64,
    /// Step size in effect (1/L for ISTA/FISTA, μ for the LP barrier,
    /// support size for OMP).
    pub step_size: f64,
}

/// One RPCA inexact-ALM sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcaSweep {
    /// Zero-based sweep index.
    pub iteration: usize,
    /// Rank of the low-rank iterate after singular-value shrinkage.
    pub rank: usize,
    /// Non-zeros in the sparse iterate after soft-thresholding.
    pub sparse_count: usize,
    /// Convergence measure ‖D−L−S‖_F / ‖D‖_F.
    pub residual_ratio: f64,
    /// Current penalty parameter μ.
    pub mu: f64,
}

/// One decoded frame, emitted by the experiment pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// Frame index within the batch (0 for single-frame runs).
    pub frame_index: usize,
    /// Robustness strategy that produced the reconstruction.
    pub strategy: String,
    /// Fraction of pixels with injected sparse errors.
    pub error_fraction: f64,
    /// Reconstruction RMSE against the ground-truth frame.
    pub rmse: f64,
    /// Iterations the underlying solver spent.
    pub solver_iterations: usize,
    /// Whether the solver reported convergence.
    pub converged: bool,
    /// End-to-end wall-clock for the frame, nanoseconds.
    pub elapsed_ns: u64,
}

/// Sink for telemetry events. Implementations must be cheap and
/// lock-light: solvers emit from inner loops.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &str, delta: u64);
    /// Records `value` into the named fixed-bucket histogram.
    fn histogram(&self, name: &str, value: f64);
    /// Records a completed span of `nanos` wall-clock nanoseconds.
    fn span_ns(&self, name: &str, nanos: u64);
    /// Records one solver iterate.
    fn solver_iteration(&self, event: &SolverIteration);
    /// Records one RPCA sweep.
    fn rpca_sweep(&self, event: &RpcaSweep);
    /// Records one decoded frame.
    fn frame(&self, report: &FrameReport);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Arc<dyn Recorder>> = OnceLock::new();

/// Error returned by [`install`] when a recorder is already in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallError;

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a telemetry recorder is already installed")
    }
}

impl std::error::Error for InstallError {}

/// Installs the process-global recorder. The first call wins; later
/// calls fail with [`InstallError`] and leave the original in place.
///
/// # Errors
///
/// Fails when a recorder was already installed.
pub fn install(recorder: Arc<dyn Recorder>) -> Result<(), InstallError> {
    RECORDER.set(recorder).map_err(|_| InstallError)?;
    ENABLED.store(true, Ordering::Release);
    Ok(())
}

/// Whether a recorder is installed. A single relaxed load — the fast
/// path every instrumented loop checks before doing any extra work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn with(f: impl FnOnce(&dyn Recorder)) {
    if enabled() {
        if let Some(r) = RECORDER.get() {
            f(&**r);
        }
    }
}

/// Adds `delta` to a named monotonic counter.
#[inline]
pub fn counter(name: &str, delta: u64) {
    with(|r| r.counter(name, delta));
}

/// Records a value into a named histogram.
#[inline]
pub fn histogram(name: &str, value: f64) {
    with(|r| r.histogram(name, value));
}

/// Records a completed span duration in nanoseconds.
#[inline]
pub fn span_ns(name: &str, nanos: u64) {
    with(|r| r.span_ns(name, nanos));
}

/// Emits one solver iterate.
#[inline]
pub fn solver_iteration(event: &SolverIteration) {
    with(|r| r.solver_iteration(event));
}

/// Emits one RPCA sweep.
#[inline]
pub fn rpca_sweep(event: &RpcaSweep) {
    with(|r| r.rpca_sweep(event));
}

/// Emits one frame report.
#[inline]
pub fn frame(report: &FrameReport) {
    with(|r| r.frame(report));
}

/// Scoped wall-clock timer: measures from [`span`] to drop and records
/// the duration under its name. When telemetry is disabled at the time
/// of creation the timer never reads the clock.
#[derive(Debug)]
pub struct SpanTimer {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Elapsed nanoseconds so far (0 when telemetry was disabled at
    /// creation).
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            span_ns(self.name, nanos);
        }
    }
}

/// Starts a scoped span timer recording under `name` on drop.
#[inline]
pub fn span(name: &'static str) -> SpanTimer {
    SpanTimer {
        name,
        start: enabled().then(Instant::now),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder is process-wide state; keep every test that
    // installs one in this single test to avoid cross-test ordering
    // effects (`cargo test` runs tests concurrently).
    #[test]
    fn global_install_routes_events_and_rejects_second_install() {
        assert!(!enabled());
        // Spans created while disabled never read the clock.
        let idle = span("idle");
        assert_eq!(idle.elapsed_ns(), 0);
        drop(idle);

        let recorder = Arc::new(MemoryRecorder::new());
        install(recorder.clone()).expect("first install succeeds");
        assert!(enabled());
        assert_eq!(install(Arc::new(MemoryRecorder::new())), Err(InstallError));

        counter("unit.count", 2);
        counter("unit.count", 3);
        histogram("unit.hist", 0.25);
        {
            let _s = span("unit.span");
        }
        solver_iteration(&SolverIteration {
            solver: "fista",
            iteration: 0,
            objective: 1.5,
            residual: 0.1,
            step_size: 0.01,
        });
        rpca_sweep(&RpcaSweep {
            iteration: 0,
            rank: 3,
            sparse_count: 17,
            residual_ratio: 0.5,
            mu: 1.0,
        });
        frame(&FrameReport {
            frame_index: 0,
            strategy: "oblivious".into(),
            error_fraction: 0.1,
            rmse: 0.04,
            solver_iterations: 123,
            converged: true,
            elapsed_ns: 1_000,
        });

        let json = recorder.snapshot_json();
        assert!(json.contains("\"unit.count\": 5"));
        assert!(json.contains("\"unit.hist\""));
        assert!(json.contains("\"unit.span\""));
        assert!(json.contains("\"fista\""));
        assert!(json.contains("\"rpca_trace\""));
        assert!(json.contains("\"oblivious\""));
    }
}
