//! Telemetry shim for the core pipeline: forwards spans, counters and
//! pipeline events to `flexcs-telemetry` when the `telemetry` feature is
//! on, and compiles to nothing when it is off.
//!
//! Call sites guard any extra computation (rank counts, name
//! formatting) behind `if tel::enabled()`; with the feature off
//! `enabled()` is a `const false` so those blocks disappear.

#[cfg(feature = "telemetry")]
mod imp {
    pub(crate) use flexcs_telemetry::span;

    /// Whether a recorder is installed (one relaxed atomic load).
    #[inline]
    pub(crate) fn enabled() -> bool {
        flexcs_telemetry::enabled()
    }

    #[inline]
    pub(crate) fn counter(name: &str, delta: u64) {
        flexcs_telemetry::counter(name, delta);
    }

    #[inline]
    pub(crate) fn histogram(name: &str, value: f64) {
        flexcs_telemetry::histogram(name, value);
    }

    /// Emits one RPCA inexact-ALM sweep.
    #[inline]
    pub(crate) fn rpca_sweep(
        iteration: usize,
        rank: usize,
        sparse_count: usize,
        residual_ratio: f64,
        mu: f64,
    ) {
        flexcs_telemetry::rpca_sweep(&flexcs_telemetry::RpcaSweep {
            iteration,
            rank,
            sparse_count,
            residual_ratio,
            mu,
        });
    }

    /// Emits one per-frame experiment report.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn frame(
        frame_index: usize,
        strategy: &str,
        error_fraction: f64,
        rmse: f64,
        solver_iterations: usize,
        converged: bool,
        elapsed_ns: u64,
    ) {
        flexcs_telemetry::frame(&flexcs_telemetry::FrameReport {
            frame_index,
            strategy: strategy.to_string(),
            error_fraction,
            rmse,
            solver_iterations,
            converged,
            elapsed_ns,
        });
    }
}

#[cfg(not(feature = "telemetry"))]
mod imp {
    /// Zero-sized stand-in for [`flexcs_telemetry::SpanTimer`].
    pub(crate) struct SpanTimer;

    impl SpanTimer {
        pub(crate) fn elapsed_ns(&self) -> u64 {
            0
        }
    }

    // The real SpanTimer is a drop guard; mirroring Drop here keeps
    // the `drop(span)` call sites meaningful in both builds.
    impl Drop for SpanTimer {
        fn drop(&mut self) {}
    }

    #[inline(always)]
    pub(crate) fn span(_: &'static str) -> SpanTimer {
        SpanTimer
    }

    #[inline(always)]
    pub(crate) fn enabled() -> bool {
        false
    }

    #[inline(always)]
    pub(crate) fn counter(_: &str, _: u64) {}

    #[inline(always)]
    pub(crate) fn histogram(_: &str, _: f64) {}

    #[inline(always)]
    pub(crate) fn rpca_sweep(_: usize, _: usize, _: usize, _: f64, _: f64) {}

    #[inline(always)]
    pub(crate) fn frame(_: usize, _: &str, _: f64, _: f64, _: usize, _: bool, _: u64) {}
}

pub(crate) use imp::*;
