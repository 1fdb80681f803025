//! # flexcs-nn
//!
//! From-scratch CNN/ResNet substrate for the flexcs tactile-recognition
//! case study (DAC 2020 *Robust Design of Large Area Flexible
//! Electronics via Compressed Sensing* reproduction).
//!
//! The paper evaluates robustness by classifying 26 objects from 32x32
//! tactile frames with a ResNet \[28\] trained with Adam, categorical
//! cross-entropy, max pooling, dropout, plateau LR decay and
//! best-validation-weights selection (Sec. 4.2). Rust has no suitable
//! small dependency for this, so the crate implements the full stack:
//!
//! - [`Tensor`]: dense `[C, H, W]` tensors.
//! - [`layers`]: [`Conv2d`], [`Dense`], [`Relu`], [`MaxPool2d`],
//!   [`Dropout`], [`Flatten`], [`GlobalAvgPool`] with hand-derived
//!   backward passes (all finite-difference tested).
//! - [`ResidualBlock`] / [`Sequential`] / [`build_tactile_resnet`].
//! - [`softmax`] / [`cross_entropy_with_logits`].
//! - [`Adam`] / [`ReduceLrOnPlateau`].
//! - [`fit`]: the paper's training recipe; [`evaluate`], [`accuracy`],
//!   [`tensor_from_frame`].
//!
//! ## Example
//!
//! ```
//! use flexcs_nn::{build_tactile_resnet, tensor_from_frame, Layer};
//! use flexcs_linalg::Matrix;
//!
//! let mut net = build_tactile_resnet(26, 4, 42);
//! let frame = Matrix::zeros(32, 32);
//! let logits = net.forward(&tensor_from_frame(&frame), false);
//! assert_eq!(logits.shape(), &[26]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod init;
pub mod layers;
mod loss;
mod metrics;
mod optim;
mod resnet;
mod tensor;
mod train;

pub use layers::{Conv2d, Dense, Dropout, Flatten, GlobalAvgPool, Layer, MaxPool2d, Relu};
pub use loss::{cross_entropy_with_logits, softmax};
pub use metrics::{accuracy, evaluate, tensor_from_frame};
pub use optim::{Adam, ReduceLrOnPlateau};
pub use resnet::{build_tactile_resnet, ResidualBlock, Sequential};
pub use tensor::Tensor;
pub use train::{fit, FitReport, TrainConfig};
