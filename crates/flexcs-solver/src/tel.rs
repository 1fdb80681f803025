//! Telemetry shim: forwards convergence events to `flexcs-telemetry`
//! when the `telemetry` feature is on, and compiles to nothing when it
//! is off.
//!
//! Call sites guard any extra computation (residual norms, objective
//! values) behind `if tel::enabled()`. Without the feature `enabled()`
//! is a `const false`, so those blocks — and the instrumentation
//! itself — are dead code the optimizer removes entirely.

#[cfg(feature = "telemetry")]
mod imp {
    /// Whether a recorder is installed (one relaxed atomic load).
    #[inline]
    pub(crate) fn enabled() -> bool {
        flexcs_telemetry::enabled()
    }

    /// Emits one solver iterate.
    #[inline]
    pub(crate) fn iteration(
        solver: &'static str,
        iteration: usize,
        objective: f64,
        residual: f64,
        step_size: f64,
    ) {
        flexcs_telemetry::solver_iteration(&flexcs_telemetry::SolverIteration {
            solver,
            iteration,
            objective,
            residual,
            step_size,
        });
    }

    /// Bumps a named counter (warm starts, restarts, saved iterations).
    #[inline]
    pub(crate) fn counter(name: &str, delta: u64) {
        flexcs_telemetry::counter(name, delta);
    }

    /// Records the completion of one solve. The name `format!`s are
    /// heap traffic, so bail before them when no recorder is installed
    /// — the greedy solvers are allocation-free after warm-up and
    /// the alloc tests hold that bar with the feature compiled in.
    pub(crate) fn solve_done(solver: &'static str, iterations: usize, converged: bool) {
        if !enabled() {
            return;
        }
        flexcs_telemetry::counter(&format!("solver.{solver}.solves"), 1);
        if converged {
            flexcs_telemetry::counter(&format!("solver.{solver}.converged"), 1);
        }
        flexcs_telemetry::histogram(
            &format!("solver.{solver}.iterations_per_solve"),
            iterations as f64,
        );
    }
}

#[cfg(not(feature = "telemetry"))]
mod imp {
    #[inline(always)]
    pub(crate) fn enabled() -> bool {
        false
    }

    #[inline(always)]
    pub(crate) fn iteration(_: &'static str, _: usize, _: f64, _: f64, _: f64) {}

    #[inline(always)]
    pub(crate) fn counter(_: &str, _: u64) {}

    #[inline(always)]
    pub(crate) fn solve_done(_: &'static str, _: usize, _: bool) {}
}

pub(crate) use imp::*;
