//! # flexcs
//!
//! Umbrella crate for the flexcs stack — a Rust reproduction of
//! *"Robust Design of Large Area Flexible Electronics via Compressed
//! Sensing"* (Shao, Lei, Huang, Bao, Cheng — DAC 2020).
//!
//! Large-area flexible sensor arrays (temperature, tactile, ultrasound)
//! suffer sparse errors — stuck pixels from fabrication defects and
//! transient upsets. The paper's insight: body-sensing signals are ~50 %
//! sparse in the DCT domain, so a *trivially simple* flexible-electronics
//! encoder (random pixel scan) plus a *powerful* silicon decoder
//! (L1 recovery) tolerates those errors at the system level.
//!
//! Each subsystem lives in its own crate, re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`linalg`] | `flexcs-linalg` | dense matrices, LU/QR/Cholesky/SVD, complex solves |
//! | [`transform`] | `flexcs-transform` | 1-D/2-D DCT, Ψ basis, sparsity statistics |
//! | [`solver`] | `flexcs-solver` | ISTA/FISTA, OMP, interior-point LP |
//! | [`circuit`] | `flexcs-circuit` | CNT-TFT model, MNA simulator, pseudo-CMOS cells, shift register, amplifier, active matrix |
//! | [`datasets`] | `flexcs-datasets` | synthetic thermal / tactile / ultrasound generators |
//! | [`nn`] | `flexcs-nn` | from-scratch ResNet, Adam, training loop |
//! | [`core`] | `flexcs-core` | sampling Φ, error injection, decoder, RPCA, strategies, Fig. 7 pipeline |
//! | [`serve`] | `flexcs-serve` | multi-tenant batched decode engine: sessions, shared-ready-queue scheduler, backpressure, latency metrics |
//!
//! ## Quickstart
//!
//! ```
//! use flexcs::core::{run_experiment, ExperimentConfig};
//! use flexcs::datasets::{thermal_frame, ThermalConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let frame = thermal_frame(
//!     &ThermalConfig { rows: 16, cols: 16, ..ThermalConfig::default() },
//!     42,
//! );
//! let outcome = run_experiment(&frame, &ExperimentConfig::default())?;
//! println!(
//!     "RMSE with CS: {:.3} — without: {:.3}",
//!     outcome.rmse_cs, outcome.rmse_raw
//! );
//! assert!(outcome.rmse_cs < outcome.rmse_raw);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flexcs_circuit as circuit;
pub use flexcs_core as core;
pub use flexcs_datasets as datasets;
pub use flexcs_linalg as linalg;
pub use flexcs_nn as nn;
pub use flexcs_serve as serve;
pub use flexcs_solver as solver;
pub use flexcs_transform as transform;
