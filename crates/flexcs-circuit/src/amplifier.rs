//! Self-biased high-gain amplifier (paper Fig. 5e).
//!
//! Two stages, all p-type: the first is a pseudo-CMOS inverter (M1–M4)
//! with a feedback TFT (M9, gate at `V_tune`, biased in the linear
//! region) from its output back to its input, plus an input capacitor
//! that blocks DC. Because no DC current can flow into the capacitor or
//! the gates, the feedback forces `V_in = V_out` for the first stage —
//! parking it exactly at its switching threshold, the high-gain point —
//! with no separate bias network ("self-biased"). The second stage
//! (M5–M8) is a common-source pseudo-CMOS stage buffering the output.
//! The paper reports 28 dB gain at 30 kHz from a 50 mV input with
//! `C = 1 nF`, `V_tune = 1 V`, `VDD = 3 V`, `VSS = −3 V`.

use crate::cells::CellLibrary;
use crate::error::Result;
use crate::netlist::{Circuit, ElementId, NodeId};
use crate::waveform::Waveform;

/// Input AC-coupling capacitor, farads (paper: 1 nF).
const C_IN: f64 = 1e-9;
/// Feedback-device tuning gate voltage, volts (paper: 1 V).
const V_TUNE: f64 = 1.0;
/// Feedback TFT geometry W/L (paper M9: 50 µm / 10 µm).
const FEEDBACK_WL: f64 = 5.0;

/// Nodes of a constructed amplifier.
#[derive(Debug, Clone)]
pub struct Amplifier {
    /// External input node (drive this with the signal source).
    pub input: NodeId,
    /// Internal (AC-coupled, self-biased) first-stage input.
    pub gate: NodeId,
    /// First-stage output.
    pub stage1_out: NodeId,
    /// Amplifier output (second-stage output).
    pub output: NodeId,
    /// The `V_tune` source element.
    pub v_tune_source: ElementId,
    /// TFTs added by the amplifier.
    pub tft_count: usize,
}

/// Builds the self-biased two-stage amplifier at the paper's Fig. 5e
/// values (`C = 1 nF`, `V_tune = 1 V`, M9 = 50 µm / 10 µm), returning
/// its node handles. `input` is created (or reused) under the given
/// name.
///
/// # Errors
///
/// Propagates netlist-construction failures.
///
/// # Examples
///
/// ```no_run
/// use flexcs_circuit::{build_self_biased_amplifier, CellLibrary, Circuit};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ckt = Circuit::new();
/// let lib = CellLibrary::with_rails(&mut ckt, 3.0, -3.0);
/// let amp = build_self_biased_amplifier(&mut ckt, &lib, "vin")?;
/// assert_eq!(amp.tft_count, 9);
/// # Ok(())
/// # }
/// ```
pub fn build_self_biased_amplifier(
    ckt: &mut Circuit,
    lib: &CellLibrary,
    input_name: &str,
) -> Result<Amplifier> {
    let before = ckt.tft_count();
    let input = ckt.node(input_name);
    let gate = ckt.fresh_node("amp_gate");
    // AC coupling.
    ckt.add_capacitor(input, gate, C_IN)?;
    // First stage: pseudo-CMOS inverter (M1–M4).
    let stage1_out = lib.inverter(ckt, gate)?;
    // Feedback device M9 in the linear region between input and output
    // of the first stage.
    let v_tune = ckt.fresh_node("vtune");
    let v_tune_source = ckt.add_vsource(v_tune, NodeId::GROUND, Waveform::Dc(V_TUNE));
    ckt.add_tft(v_tune, gate, stage1_out, FEEDBACK_WL)?;
    // Second stage: common-source buffer (M5–M8).
    let output = lib.inverter(ckt, stage1_out)?;
    Ok(Amplifier {
        input,
        gate,
        stage1_out,
        output,
        v_tune_source,
        tft_count: ckt.tft_count() - before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::log_frequencies;
    use crate::transient::TransientConfig;

    fn build() -> (Circuit, Amplifier, ElementId) {
        let mut ckt = Circuit::new();
        let lib = CellLibrary::with_rails(&mut ckt, 3.0, -3.0);
        let amp = build_self_biased_amplifier(&mut ckt, &lib, "vin").unwrap();
        let vin = ckt.find_node("vin").unwrap();
        let src = ckt.add_vsource(vin, NodeId::GROUND, Waveform::Dc(0.0));
        (ckt, amp, src)
    }

    #[test]
    fn self_bias_parks_first_stage_at_trip_point() {
        let (ckt, amp, _) = build();
        let op = ckt.dc_operating_point().unwrap();
        let vg = op.voltage(amp.gate);
        let vo = op.voltage(amp.stage1_out);
        // Feedback equalizes input and output of stage 1.
        assert!((vg - vo).abs() < 0.05, "gate {vg} vs out {vo}");
        // The trip point sits strictly inside the rails.
        assert!(vg > 0.5 && vg < 2.9, "trip point {vg}");
    }

    #[test]
    fn midband_gain_matches_paper_ballpark() {
        let (ckt, amp, src) = build();
        let sweep = ckt.ac_sweep(src, &[30e3]).unwrap();
        let gain_db = sweep.gain_db(amp.output)[0];
        // Paper: 28 dB at 30 kHz. Accept the right ballpark for a
        // re-fit compact model.
        assert!(
            gain_db > 20.0 && gain_db < 40.0,
            "gain at 30 kHz = {gain_db:.1} dB"
        );
    }

    #[test]
    fn response_is_bandpass() {
        let (ckt, amp, src) = build();
        let freqs = log_frequencies(1.0, 1e7, 4);
        let sweep = ckt.ac_sweep(src, &freqs).unwrap();
        let mags = sweep.magnitude(amp.output);
        let peak = mags.iter().cloned().fold(0.0_f64, f64::max);
        // AC coupling kills DC; device capacitance rolls off the top.
        assert!(mags[0] < peak * 0.2, "low-frequency rejection");
        assert!(*mags.last().unwrap() < peak * 0.9, "high-frequency rolloff");
    }

    #[test]
    fn transient_amplifies_small_sine() {
        let (mut ckt, amp, src) = build();
        // Paper stimulus: 50 mV at 30 kHz.
        ckt.set_source_waveform(
            src,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 0.05,
                frequency: 30e3,
                phase: 0.0,
            },
        )
        .unwrap();
        let period = 1.0 / 30e3;
        let result = ckt
            .transient(&TransientConfig::new(6.0 * period, period / 80.0))
            .unwrap();
        let tr = result.trace(amp.output);
        // Skip the settling transient; measure steady-state swing.
        let pp = tr.peak_to_peak(3.0 * period, 6.0 * period).unwrap();
        // 28 dB on a 100 mV pp input would be 2.5 V pp; accept > 0.6 V
        // (16 dB) to < 4 V for the re-fit model.
        assert!(pp > 0.6 && pp < 4.0, "output swing {pp:.3} V pp");
    }

    #[test]
    fn tft_count_is_nine() {
        let (ckt, amp, _) = build();
        // M1–M4, M5–M8 and M9, as in the paper's schematic.
        assert_eq!(amp.tft_count, 9);
        assert_eq!(ckt.tft_count(), 9);
    }
}
