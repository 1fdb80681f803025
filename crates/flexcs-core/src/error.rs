//! Error type for the flexcs core pipeline.

use std::error::Error;
use std::fmt;

/// Error produced by the robust-sensing pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration value was out of range.
    InvalidConfig(String),
    /// Not enough usable pixels remained to take the requested samples.
    InsufficientSamples {
        /// Samples requested.
        requested: usize,
        /// Usable pixels available.
        available: usize,
    },
    /// A measurement (or an RPCA input entry) was NaN or ±Inf; no
    /// solver can decode it.
    NonFiniteMeasurement {
        /// Position of the first non-finite value in the measurement
        /// vector, or row-major in an RPCA input matrix.
        index: usize,
    },
    /// Every measurement is finite but ‖y‖₂ overflows `f64`, so no
    /// solver norm of it is finite.
    MeasurementOverflow,
    /// A transform failure (shape mismatches and the like).
    Transform(flexcs_transform::TransformError),
    /// A recovery-solver failure.
    Solver(flexcs_solver::SolverError),
    /// A linear-algebra failure (RPCA internals).
    Linalg(flexcs_linalg::LinalgError),
    /// A circuit-model failure (hardware-in-the-loop encoder).
    Circuit(flexcs_circuit::CircuitError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::InsufficientSamples {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} samples but only {available} usable pixels remain"
            ),
            CoreError::NonFiniteMeasurement { index } => {
                write!(f, "measurement {index} is not finite")
            }
            CoreError::MeasurementOverflow => write!(f, "measurement norm overflows f64"),
            CoreError::Transform(e) => write!(f, "transform failure: {e}"),
            CoreError::Solver(e) => write!(f, "solver failure: {e}"),
            CoreError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            CoreError::Circuit(e) => write!(f, "circuit failure: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Transform(e) => Some(e),
            CoreError::Solver(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            CoreError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<flexcs_transform::TransformError> for CoreError {
    fn from(e: flexcs_transform::TransformError) -> Self {
        CoreError::Transform(e)
    }
}

impl From<flexcs_solver::SolverError> for CoreError {
    fn from(e: flexcs_solver::SolverError) -> Self {
        CoreError::Solver(e)
    }
}

impl From<flexcs_linalg::LinalgError> for CoreError {
    fn from(e: flexcs_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl From<flexcs_circuit::CircuitError> for CoreError {
    fn from(e: flexcs_circuit::CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = CoreError::InsufficientSamples {
            requested: 100,
            available: 10,
        };
        assert!(e.to_string().contains("100"));
        let e: CoreError = flexcs_solver::SolverError::Diverged { iteration: 3 }.into();
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
