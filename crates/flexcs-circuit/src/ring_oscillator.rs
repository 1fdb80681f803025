//! Pseudo-CMOS ring oscillators.
//!
//! The paper's process was "validated thoroughly with wafer level
//! fabrications and electrical measurements with > 5000 CNT TFTs and 44
//! five-stage ring oscillators" (Sec. 3.2). A ring oscillator is the
//! canonical process-speed monitor: its period is `2·n·t_d` for `n`
//! stages of delay `t_d`, so the oscillation frequency reads out the
//! average gate delay directly. This module builds the same structure
//! from the pseudo-CMOS cell library and measures it in transient
//! simulation.

use crate::cells::{CellLibrary, DRIVE_WL, LOAD_WL, OUT_DRIVE_WL, OUT_LOAD_WL};
use crate::error::{CircuitError, Result};
use crate::netlist::{Circuit, NodeId};
use crate::transient::TransientConfig;
use crate::waveform::Trace;

/// A constructed ring oscillator.
#[derive(Debug, Clone)]
pub struct RingOscillator {
    /// The ring nodes (output of each inverter; `nodes[0]` is the node
    /// fed back into the first inverter).
    pub nodes: Vec<NodeId>,
    /// TFTs used.
    pub tft_count: usize,
}

/// Builds an `stages`-inverter ring (must be odd for astable
/// oscillation). The ring wires each inverter's output to the next
/// input, with the last output closing the loop; `load_cap` farads of
/// interconnect/probe load hang on every ring node (large-area flexible
/// wiring is capacitive — tens of pF per line — and this load sets the
/// oscillation period).
///
/// # Errors
///
/// Returns [`CircuitError::InvalidParameter`] for an even or zero stage
/// count or non-positive load; propagates netlist failures.
pub fn build_ring_oscillator(
    ckt: &mut Circuit,
    lib: &CellLibrary,
    stages: usize,
    load_cap: f64,
) -> Result<RingOscillator> {
    if stages == 0 || stages.is_multiple_of(2) {
        return Err(CircuitError::InvalidParameter(format!(
            "ring oscillator needs an odd stage count, got {stages}"
        )));
    }
    let before = ckt.tft_count();
    // Create the ring nodes up front; each inverter writes into the next
    // node via the `nand2_into`-style manual construction.
    let nodes: Vec<NodeId> = (0..stages)
        .map(|k| ckt.fresh_node(&format!("ring{k}")))
        .collect();
    for &node in &nodes {
        ckt.add_capacitor(node, NodeId::GROUND, load_cap)?;
    }
    for k in 0..stages {
        let input = nodes[k];
        let output = nodes[(k + 1) % stages];
        // Pseudo-CMOS inverter into an existing node.
        let v1 = ckt.fresh_node("ro_v1");
        ckt.add_tft_with_model(input, v1, lib.vdd, DRIVE_WL, lib.model.clone())?;
        ckt.add_tft_with_model(lib.vss, lib.vss, v1, LOAD_WL, lib.model.clone())?;
        ckt.add_tft_with_model(input, output, lib.vdd, OUT_DRIVE_WL, lib.model.clone())?;
        ckt.add_tft_with_model(v1, NodeId::GROUND, output, OUT_LOAD_WL, lib.model.clone())?;
    }
    Ok(RingOscillator {
        nodes,
        tft_count: ckt.tft_count() - before,
    })
}

/// Measured oscillation characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct OscillationMeasurement {
    /// Mean oscillation frequency, hertz.
    pub frequency: f64,
    /// Peak-to-peak output swing, volts.
    pub swing: f64,
    /// Number of full periods observed.
    pub periods: usize,
}

/// Extracts frequency and swing from an oscillating trace, using rising
/// crossings through `threshold` after discarding `settle` seconds of
/// start-up transient.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidParameter`] when fewer than three
/// crossings are found (no sustained oscillation).
pub fn measure_oscillation(
    trace: &Trace,
    threshold: f64,
    settle: f64,
) -> Result<OscillationMeasurement> {
    let crossings: Vec<f64> = trace
        .rising_crossings(threshold)
        .into_iter()
        .filter(|&t| t >= settle)
        .collect();
    if crossings.len() < 3 {
        return Err(CircuitError::InvalidParameter(format!(
            "no sustained oscillation: {} crossings after settle",
            crossings.len()
        )));
    }
    let periods = crossings.len() - 1;
    let total = crossings[crossings.len() - 1] - crossings[0];
    let t_end = trace.times().last().copied().unwrap_or(0.0);
    let swing = trace.peak_to_peak(settle, t_end).unwrap_or(0.0);
    Ok(OscillationMeasurement {
        frequency: periods as f64 / total,
        swing,
        periods,
    })
}

/// Convenience: builds a `stages`-stage ring at ±`vdd` rails, runs a
/// transient of `t_stop` seconds with `dt` steps, and measures the
/// oscillation at the first ring node.
///
/// # Errors
///
/// Propagates construction, simulation and measurement failures.
pub fn ring_oscillator_frequency(
    stages: usize,
    vdd: f64,
    t_stop: f64,
    dt: f64,
) -> Result<OscillationMeasurement> {
    ring_oscillator_frequency_with_model(stages, vdd, t_stop, dt, crate::CntTftModel::default())
}

/// As [`ring_oscillator_frequency`] with explicit device-model
/// parameters — the hook the Monte-Carlo process monitor uses.
///
/// # Errors
///
/// Propagates construction, simulation and measurement failures.
pub fn ring_oscillator_frequency_with_model(
    stages: usize,
    vdd: f64,
    t_stop: f64,
    dt: f64,
    model: crate::CntTftModel,
) -> Result<OscillationMeasurement> {
    let mut ckt = Circuit::new();
    let mut lib = CellLibrary::with_rails(&mut ckt, vdd, -vdd);
    lib.model = model;
    let ring = build_ring_oscillator(&mut ckt, &lib, stages, 47e-12)?;
    // Start from the all-zero state (not the DC fixed point, which for a
    // ring is the metastable midpoint): the asymmetric initial condition
    // kicks the oscillation off.
    let mut config = TransientConfig::new(t_stop, dt);
    config.start_from_dc = false;
    let result = ckt.transient(&config)?;
    measure_oscillation(&result.trace(ring.nodes[0]), vdd / 2.0, t_stop * 0.3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_even_stage_counts() {
        let mut ckt = Circuit::new();
        let lib = CellLibrary::with_rails(&mut ckt, 3.0, -3.0);
        assert!(build_ring_oscillator(&mut ckt, &lib, 4, 47e-12).is_err());
        assert!(build_ring_oscillator(&mut ckt, &lib, 0, 47e-12).is_err());
    }

    #[test]
    fn five_stage_ring_oscillates() {
        // The paper's monitor structure: 5 stages, VDD 3 V.
        let m = ring_oscillator_frequency(5, 3.0, 4e-3, 2e-6).unwrap();
        // Our compact model + load sizing put the stage delay in the
        // tens of microseconds — kHz-class oscillation, consistent with
        // the <10 kHz flexible-circuit regime the paper cites.
        assert!(
            m.frequency > 200.0 && m.frequency < 50_000.0,
            "frequency {} Hz",
            m.frequency
        );
        assert!(m.swing > 1.5, "swing {} V", m.swing);
        assert!(m.periods >= 3);
    }

    #[test]
    fn more_stages_oscillate_slower() {
        let f5 = ring_oscillator_frequency(5, 3.0, 4e-3, 2e-6)
            .unwrap()
            .frequency;
        let f9 = ring_oscillator_frequency(9, 3.0, 6e-3, 2e-6)
            .unwrap()
            .frequency;
        assert!(
            f9 < f5,
            "9-stage ({f9} Hz) should be slower than 5-stage ({f5} Hz)"
        );
        // Period scales roughly linearly with stage count.
        let ratio = f5 / f9;
        assert!(ratio > 1.2 && ratio < 3.0, "frequency ratio {ratio}");
    }

    #[test]
    fn tft_count_is_four_per_stage() {
        let mut ckt = Circuit::new();
        let lib = CellLibrary::with_rails(&mut ckt, 3.0, -3.0);
        let ring = build_ring_oscillator(&mut ckt, &lib, 5, 47e-12).unwrap();
        assert_eq!(ring.tft_count, 20);
        assert_eq!(ring.nodes.len(), 5);
    }

    #[test]
    fn measure_rejects_flat_trace() {
        let mut tr = Trace::new();
        for k in 0..100 {
            tr.push(k as f64 * 1e-6, 0.0);
        }
        assert!(measure_oscillation(&tr, 1.5, 0.0).is_err());
    }
}
