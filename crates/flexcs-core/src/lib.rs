//! # flexcs-core
//!
//! The primary contribution of *Robust Design of Large Area Flexible
//! Electronics via Compressed Sensing* (DAC 2020): a robust sensing
//! scheme pairing a trivially simple flexible-electronics CS encoder
//! with a powerful silicon-side decoder, so that large-area sensor
//! arrays tolerate the sparse errors (device defects, transient upsets)
//! that low-temperature flexible fabrication makes unavoidable.
//!
//! ## Architecture
//!
//! ```text
//!   scene ──► [SparseErrorModel / ActiveMatrix defects]
//!         ──► SamplingStrategy (exclude-tested / oblivious /
//!                               resample-median / RPCA filter)
//!         ──► SamplingPlan Φ_M (identity subset — a Fig. 4 scan)
//!         ──► measurements y_M
//!         ──► Decoder: min ‖x‖₁ s.t. Φ_M·y = Φ_M·Ψ·x   (Eq. 9)
//!         ──► reconstructed frame, RMSE / accuracy
//! ```
//!
//! Key types: [`SamplingPlan`], [`SparseErrorModel`], [`Decoder`] (over
//! the implicit [`SubsampledDctOperator`]), [`SamplingStrategy`],
//! [`rpca`], [`run_experiment`] (the Fig. 7 flow), [`comm_cost`]
//! (Sec. 4.1) and [`CircuitEncoder`] (hardware-in-the-loop via
//! `flexcs-circuit`).
//!
//! ## Example
//!
//! ```
//! use flexcs_core::{run_experiment, ExperimentConfig};
//! use flexcs_datasets::{thermal_frame, ThermalConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ThermalConfig { rows: 16, cols: 16, ..ThermalConfig::default() };
//! let frame = thermal_frame(&cfg, 7);
//! // The paper's headline setting: ~10 % sparse errors, ~50 % sampling.
//! let outcome = run_experiment(&frame, &ExperimentConfig::default())?;
//! assert!(outcome.rmse_cs < outcome.rmse_raw, "CS beats raw readout");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Validation guards are written `!(x > 0.0)` on purpose: the negated
// comparison also rejects NaN parameters, which `x <= 0.0` would let
// through.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod adaptive;
mod basisop;
mod blocks;
mod comm;
mod decode;
mod encoder;
mod error;
mod inject;
mod metrics;
mod pipeline;
mod rpca;
mod sampling;
mod strategy;
mod tel;

pub use adaptive::{AdaptiveConfig, AdaptivePipeline, DecodeTier, TierCounts};
pub use basisop::{BasisKind, SubsampledDctOperator};
pub use blocks::{
    BlockGrid, BlockGridConfig, BlockMeasurement, BlockMeasurements, BlockOutcome, BlockPipeline,
    BlockPipelineConfig, BlockRect, DecodePool,
};
pub use comm::{comm_cost, comm_cost_for_sparsity, CommCostReport};
pub use decode::{DecodeWarmState, Decoder, Reconstruction};
pub use encoder::{Acquisition, CircuitEncoder};
pub use error::{CoreError, Result};
pub use inject::{detect_extremes, SparseErrorModel};
pub use metrics::rmse;
pub use pipeline::{
    run_experiment, run_experiment_batch, run_experiment_stream, ExperimentConfig,
    ExperimentOutcome,
};
pub use rpca::{
    outlier_indices, persistent_outliers, rpca, rpca_multiframe, transient_outliers, RpcaConfig,
    RpcaDecomposition, RpcaStream, SvdPolicy, RSVD_CROSSOVER,
};
pub use sampling::SamplingPlan;
pub use strategy::{SamplingStrategy, StrategySession};

/// Always `true`: every build fans work out across threads, and
/// `FLEXCS_THREADS=1` (or an explicit `threads: Some(1)`) selects the
/// serial path at run time. Kept only for perfbench's environment stamp.
pub fn parallel_enabled() -> bool {
    true
}
