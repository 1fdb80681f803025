//! Error types for transform operations.

use std::error::Error;
use std::fmt;

/// Error produced by DCT plans and sparsity analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// An input length was unusable for the requested transform.
    InvalidLength {
        /// Offending length.
        len: usize,
        /// Why the length is invalid.
        reason: &'static str,
    },
    /// A 2-D input had the wrong shape for the plan.
    ShapeMismatch {
        /// Shape the plan accepts.
        expected: (usize, usize),
        /// Shape that was provided.
        got: (usize, usize),
    },
    /// A parameter was outside its valid domain.
    InvalidArgument(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::InvalidLength { len, reason } => {
                write!(f, "invalid length {len}: {reason}")
            }
            TransformError::ShapeMismatch { expected, got } => write!(
                f,
                "shape mismatch: plan accepts {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            TransformError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for TransformError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, TransformError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TransformError::InvalidLength {
            len: 0,
            reason: "must be positive",
        };
        assert_eq!(e.to_string(), "invalid length 0: must be positive");
        let e = TransformError::ShapeMismatch {
            expected: (4, 4),
            got: (3, 5),
        };
        assert!(e.to_string().contains("4x4"));
        assert!(e.to_string().contains("3x5"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TransformError>();
    }
}
