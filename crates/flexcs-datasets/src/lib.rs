//! # flexcs-datasets
//!
//! Synthetic body-sensing datasets for the flexcs stack (DAC 2020
//! *Robust Design of Large Area Flexible Electronics via Compressed
//! Sensing* reproduction).
//!
//! The paper evaluates on three public datasets that are not
//! redistributable here; this crate provides procedural substitutes that
//! preserve the properties the experiments depend on (documented in
//! DESIGN.md):
//!
//! | paper dataset | substitute | preserved property |
//! |---|---|---|
//! | thermal hand biometrics \[14\] | [`thermal_frame`] | smooth warm-body fields, ~50 % DCT sparsity |
//! | 26-object tactile glove \[5\] | [`tactile_frame`] | 32x32 class-discriminative contact maps |
//! | breast-lesion ultrasound RF \[15\] | [`ultrasound_frame`] | band-limited pulse-echo structure, 100x33 |
//!
//! [`Dataset`] adds labeling and deterministic stratified splits;
//! [`normalize_unit`] implements the paper's `[0, 1]` normalization
//! step.
//!
//! All generators take explicit seeds — identical seeds give identical
//! frames on every platform.
//!
//! ## Example
//!
//! ```
//! use flexcs_datasets::{thermal_frame, normalize_unit, ThermalConfig};
//!
//! let frame = normalize_unit(&thermal_frame(&ThermalConfig::default(), 42));
//! assert_eq!(frame.min(), 0.0);
//! assert_eq!(frame.max(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod filter;
mod rng;
mod tactile;
mod thermal;
mod ultrasound;

pub use dataset::{normalize_unit, Dataset, DatasetError};
pub use filter::gaussian_blur;
pub use rng::DatasetRng;
pub use tactile::{tactile_dataset, tactile_frame, TactileConfig, TACTILE_CLASS_COUNT};
pub use thermal::{thermal_frame, thermal_frames, thermal_sequence, ThermalConfig};
pub use ultrasound::{ultrasound_frame, UltrasoundConfig};
