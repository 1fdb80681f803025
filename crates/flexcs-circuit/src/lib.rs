//! # flexcs-circuit
//!
//! Transistor-level simulation of the paper's flexible CS encoder
//! (DAC 2020 *Robust Design of Large Area Flexible Electronics via
//! Compressed Sensing* reproduction).
//!
//! The paper demonstrates encoder feasibility by *fabricating* a CNT-TFT
//! temperature-sensor array, an 8-stage shift register and a self-biased
//! amplifier (Fig. 5). This crate demonstrates the same feasibility in
//! simulation, from the compact model up:
//!
//! - [`CntTftModel`]: smooth charge-based p-type CNT TFT I–V model
//!   (after the paper's validated Verilog-A model, ref. \[11\]).
//! - [`Circuit`]: SPICE-style netlist with MNA
//!   [`dc_operating_point`](Circuit::dc_operating_point), backward-Euler
//!   [`transient`](Circuit::transient) and small-signal
//!   [`ac_sweep`](Circuit::ac_sweep) analyses.
//! - [`CellLibrary`]: pseudo-CMOS (mono-type p-TFT) inverter / NAND /
//!   XOR / latch / flip-flop cells, per ref. \[25\].
//! - [`build_shift_register`]: the Fig. 5c–d scan driver.
//! - [`build_self_biased_amplifier`]: the Fig. 5e two-stage amplifier.
//! - [`read_pixel_current`] / [`PtSensorModel`]: the Fig. 5b Pt
//!   temperature pixel.
//! - [`ScanSchedule`] + [`ActiveMatrix`]: the Fig. 4 active-matrix
//!   encoder — `Φ_M` realized as per-column row-select words scanned in
//!   `√N` cycles, with stuck-pixel defect injection.
//!
//! ## Example
//!
//! ```
//! use flexcs_circuit::{Circuit, CellLibrary, NodeId, Waveform};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // DC-verify a pseudo-CMOS inverter at VDD = 3 V, VSS = −3 V.
//! let mut ckt = Circuit::new();
//! let lib = CellLibrary::with_rails(&mut ckt, 3.0, -3.0);
//! let input = ckt.node("in");
//! ckt.add_vsource(input, NodeId::GROUND, Waveform::Dc(3.0));
//! let out = lib.inverter(&mut ckt, input)?;
//! let op = ckt.dc_operating_point()?;
//! assert!(op.voltage(out) < 0.6, "logic-1 in gives logic-0 out");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Validation guards are written `!(x > 0.0)` on purpose: the negated
// comparison also rejects NaN parameters, which `x <= 0.0` would let
// through.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod ac;
mod active_matrix;
mod amplifier;
mod cells;
mod device;
mod error;
mod mc;
mod mna;
mod netlist;
mod ring_oscillator;
mod scan;
mod scan_driver;
mod sensor;
mod shift_register;
mod solver;
pub mod sparse;
mod tel;
mod transient;
mod variation;
mod waveform;

pub use ac::{log_frequencies, AcSweep};
pub use active_matrix::{
    ActiveMatrix, ActiveMatrixConfig, PixelCalibration, PixelDefect, TftArray, TftArrayConfig,
};
pub use amplifier::{build_self_biased_amplifier, Amplifier, AmplifierConfig};
pub use cells::{CellLibrary, PseudoCmosSizing};
pub use device::{CntTftModel, TftOperatingPoint};
pub use error::{CircuitError, Result};
pub use mc::{McEngine, McEngineConfig, McReport, McSample, McTrial};
pub use mna::{OperatingPoint, GMIN};
pub use netlist::{Circuit, Element, ElementId, NodeId};
pub use ring_oscillator::{
    build_ring_oscillator, measure_oscillation, ring_oscillator_frequency,
    ring_oscillator_frequency_with_model, OscillationMeasurement, RingOscillator,
};
pub use scan::{ArrayScanResult, ScanSchedule};
pub use scan_driver::serial_row_stream;
pub use sensor::{
    linearity_fit, pixel_access_model, pixel_temperature_sweep, read_pixel_current, PixelBias,
    PtSensorModel,
};
pub use shift_register::{build_shift_register, ShiftRegister};
pub use solver::{SolverPolicy, SymbolicShare, SPARSE_CROSSOVER};
pub use transient::{TransientConfig, TransientResult};
pub use variation::{
    amplifier_gain_spread_mc, inverter_yield_mc, ring_frequency_spread_mc, scan_chain_yield_mc,
    MonteCarloStats, VariationModel,
};
pub use waveform::{Trace, Waveform};
