//! Pseudo-CMOS standard cells built from p-type CNT TFTs.
//!
//! Air-stable n-type CNT TFTs do not exist, so the paper adopts the
//! pseudo-CMOS design style (Huang et al., DATE 2010 — paper ref. [25]):
//! every gate uses only p-type devices plus a negative tuning supply
//! `VSS`, whose level-shifted internal node drives the output pull-down
//! for rail-to-rail swing. The flexcs encoder's shift registers and
//! amplifier are assembled from these cells.
//!
//! Topology of the pseudo-D inverter (all devices p-type):
//!
//! ```text
//!  VDD ──M1(S)──┐           VDD ──M3(S)──┐
//!   IN ──M1(G)  ├─ V1        IN ──M3(G)  ├─ OUT
//!               │                        │
//!  V1 ──M2(S)   │           OUT ──M4(S)  │
//!  VSS ──M2(G)  │            V1 ──M4(G)  │
//!  VSS ──M2(D)──┘           GND ──M4(D)──┘
//! ```
//!
//! With `IN` low, M1 holds `V1` near `VDD`, M3 pulls `OUT` to `VDD` and
//! M4 (gate high) is off. With `IN` high, M2 drags `V1` to `VSS`
//! (≈ −VDD), which over-drives M4's gate far below ground so `OUT`
//! discharges fully to 0 V — the level-shifting trick that gives
//! mono-type logic a full output swing.

use crate::device::CntTftModel;
use crate::error::Result;
use crate::netlist::{Circuit, NodeId};

// Pseudo-CMOS device sizing (W/L ratios), validated by the DC
// truth-table tests: strong drive against a weak always-on load.
/// First-stage drive device (M1).
pub(crate) const DRIVE_WL: f64 = 20.0;
/// First-stage always-on load (M2).
pub(crate) const LOAD_WL: f64 = 1.0;
/// Output-stage pull-up (M3).
pub(crate) const OUT_DRIVE_WL: f64 = 10.0;
/// Output-stage pull-down (M4).
pub(crate) const OUT_LOAD_WL: f64 = 10.0;

/// A pseudo-CMOS cell generator bound to supply rails and a device
/// model.
///
/// # Examples
///
/// ```
/// use flexcs_circuit::{CellLibrary, Circuit, NodeId, Waveform};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ckt = Circuit::new();
/// let lib = CellLibrary::with_rails(&mut ckt, 3.0, -3.0);
/// let input = ckt.node("in");
/// ckt.add_vsource(input, NodeId::GROUND, Waveform::Dc(0.0));
/// let out = lib.inverter(&mut ckt, input)?;
/// let op = ckt.dc_operating_point()?;
/// assert!(op.voltage(out) > 2.5, "logic-0 in gives logic-1 out");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CellLibrary {
    /// Positive supply node.
    pub vdd: NodeId,
    /// Negative tuning supply node (pseudo-CMOS `VSS`, typically −VDD).
    pub vss: NodeId,
    /// Compact model shared by all cell devices.
    pub model: CntTftModel,
}

impl CellLibrary {
    /// Creates a library bound to existing rail nodes.
    pub fn new(vdd: NodeId, vss: NodeId) -> Self {
        CellLibrary {
            vdd,
            vss,
            model: CntTftModel::default(),
        }
    }

    /// Convenience: creates `vdd`/`vss` rail nodes with DC sources and
    /// returns a library bound to them.
    pub fn with_rails(ckt: &mut Circuit, vdd_volts: f64, vss_volts: f64) -> Self {
        let vdd = ckt.node("vdd");
        let vss = ckt.node("vss");
        ckt.add_vsource(
            vdd,
            NodeId::GROUND,
            crate::waveform::Waveform::Dc(vdd_volts),
        );
        ckt.add_vsource(
            vss,
            NodeId::GROUND,
            crate::waveform::Waveform::Dc(vss_volts),
        );
        CellLibrary::new(vdd, vss)
    }

    /// First (level-shifting) stage shared by all gates: drive devices
    /// in parallel from the inputs, always-on load to `VSS`. Returns the
    /// internal node `V1`.
    fn input_stage(&self, ckt: &mut Circuit, inputs: &[NodeId]) -> Result<NodeId> {
        let v1 = ckt.fresh_node("v1");
        for &input in inputs {
            ckt.add_tft_with_model(input, v1, self.vdd, DRIVE_WL, self.model.clone())?;
        }
        ckt.add_tft_with_model(self.vss, self.vss, v1, LOAD_WL, self.model.clone())?;
        Ok(v1)
    }

    /// Output stage: pull-ups from the inputs, pull-down gated by `V1`.
    fn output_stage(&self, ckt: &mut Circuit, inputs: &[NodeId], v1: NodeId) -> Result<NodeId> {
        let out = ckt.fresh_node("out");
        for &input in inputs {
            ckt.add_tft_with_model(input, out, self.vdd, OUT_DRIVE_WL, self.model.clone())?;
        }
        ckt.add_tft_with_model(v1, NodeId::GROUND, out, OUT_LOAD_WL, self.model.clone())?;
        Ok(out)
    }

    /// Pseudo-CMOS inverter (4 TFTs). Returns the output node.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures.
    pub fn inverter(&self, ckt: &mut Circuit, input: NodeId) -> Result<NodeId> {
        let v1 = self.input_stage(ckt, &[input])?;
        self.output_stage(ckt, &[input], v1)
    }

    /// Pseudo-CMOS 2-input NAND (6 TFTs): output low only when both
    /// inputs are high.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures.
    pub fn nand2(&self, ckt: &mut Circuit, a: NodeId, b: NodeId) -> Result<NodeId> {
        let v1 = self.input_stage(ckt, &[a, b])?;
        self.output_stage(ckt, &[a, b], v1)
    }

    /// Non-inverting buffer (two cascaded inverters, 8 TFTs).
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures.
    pub fn buffer(&self, ckt: &mut Circuit, input: NodeId) -> Result<NodeId> {
        let mid = self.inverter(ckt, input)?;
        self.inverter(ckt, mid)
    }

    /// 2-input XOR assembled from four NAND gates (24 TFTs), the third
    /// logic cell the paper lists for its digital library.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures.
    pub fn xor2(&self, ckt: &mut Circuit, a: NodeId, b: NodeId) -> Result<NodeId> {
        let nab = self.nand2(ckt, a, b)?;
        let na = self.nand2(ckt, a, nab)?;
        let nb = self.nand2(ckt, b, nab)?;
        self.nand2(ckt, na, nb)
    }

    /// Gated D latch (4 NANDs + input inverter): transparent while `en`
    /// is high, holding while low. Returns `(q, q_bar)`.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures.
    pub fn d_latch(&self, ckt: &mut Circuit, d: NodeId, en: NodeId) -> Result<(NodeId, NodeId)> {
        let d_bar = self.inverter(ckt, d)?;
        let set_bar = self.nand2(ckt, d, en)?;
        let reset_bar = self.nand2(ckt, d_bar, en)?;
        // Cross-coupled NAND pair. Create the output nodes first so each
        // gate can reference the other's output.
        let q = ckt.fresh_node("q");
        let q_bar = ckt.fresh_node("qb");
        self.nand2_into(ckt, set_bar, q_bar, q)?;
        self.nand2_into(ckt, reset_bar, q, q_bar)?;
        Ok((q, q_bar))
    }

    /// NAND2 variant writing into a pre-existing output node (needed for
    /// cross-coupled structures).
    fn nand2_into(&self, ckt: &mut Circuit, a: NodeId, b: NodeId, out: NodeId) -> Result<()> {
        let v1 = self.input_stage(ckt, &[a, b])?;
        for &input in &[a, b] {
            ckt.add_tft_with_model(input, out, self.vdd, OUT_DRIVE_WL, self.model.clone())?;
        }
        ckt.add_tft_with_model(v1, NodeId::GROUND, out, OUT_LOAD_WL, self.model.clone())?;
        Ok(())
    }

    /// Positive-edge-triggered master–slave D flip-flop (two latches +
    /// clock inverter). Returns the `q` output.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures.
    pub fn dff(&self, ckt: &mut Circuit, d: NodeId, clk: NodeId) -> Result<NodeId> {
        let (q, _) = self.dff_c(ckt, d, clk)?;
        Ok(q)
    }

    /// Like [`CellLibrary::dff`] but returns both `(q, q_bar)`. The
    /// complemented output comes from the slave latch's internal NAND
    /// pair, so it costs no extra transistors — which is how the
    /// active-matrix scan driver gets the low-enabled (active-low)
    /// column selects the paper's p-type access TFTs need.
    ///
    /// # Errors
    ///
    /// Propagates netlist-construction failures.
    pub fn dff_c(&self, ckt: &mut Circuit, d: NodeId, clk: NodeId) -> Result<(NodeId, NodeId)> {
        let clk_bar = self.inverter(ckt, clk)?;
        // Master transparent while clk low, slave while clk high.
        let (qm, _) = self.d_latch(ckt, d, clk_bar)?;
        self.d_latch(ckt, qm, clk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::TransientConfig;
    use crate::waveform::Waveform;

    const VDD: f64 = 3.0;
    const VSS: f64 = -3.0;
    /// Logic thresholds for checking rail-to-rail outputs.
    const HI: f64 = 2.4;
    const LO: f64 = 0.6;

    fn dc_out(
        build: impl FnOnce(&mut Circuit, &CellLibrary, &[NodeId]) -> NodeId,
        ins: &[f64],
    ) -> f64 {
        let mut ckt = Circuit::new();
        let lib = CellLibrary::with_rails(&mut ckt, VDD, VSS);
        let inputs: Vec<NodeId> = ins
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                let n = ckt.node(&format!("in{k}"));
                ckt.add_vsource(n, NodeId::GROUND, Waveform::Dc(v));
                n
            })
            .collect();
        let out = build(&mut ckt, &lib, &inputs);
        let op = ckt.dc_operating_point().unwrap();
        op.voltage(out)
    }

    #[test]
    fn inverter_truth_table() {
        let low_in = dc_out(|c, l, i| l.inverter(c, i[0]).unwrap(), &[0.0]);
        let high_in = dc_out(|c, l, i| l.inverter(c, i[0]).unwrap(), &[VDD]);
        assert!(low_in > HI, "inv(0) = {low_in}");
        assert!(high_in < LO, "inv(1) = {high_in}");
    }

    #[test]
    fn inverter_has_gain_at_midpoint() {
        // Output must swing more than the input step around the trip
        // point (regenerative logic levels).
        let mut prev = None;
        let mut max_slope = 0.0_f64;
        for k in 0..=30 {
            let vin = k as f64 * 0.1;
            let vout = dc_out(|c, l, i| l.inverter(c, i[0]).unwrap(), &[vin]);
            if let Some(p) = prev {
                max_slope = max_slope.max((p - vout) / 0.1_f64);
            }
            prev = Some(vout);
        }
        assert!(max_slope > 2.0, "max |dVout/dVin| = {max_slope}");
    }

    #[test]
    fn nand_truth_table() {
        let f = |a: f64, b: f64| dc_out(|c, l, i| l.nand2(c, i[0], i[1]).unwrap(), &[a, b]);
        assert!(f(0.0, 0.0) > HI);
        assert!(f(0.0, VDD) > HI);
        assert!(f(VDD, 0.0) > HI);
        assert!(f(VDD, VDD) < LO);
    }

    #[test]
    fn xor_truth_table() {
        let f = |a: f64, b: f64| dc_out(|c, l, i| l.xor2(c, i[0], i[1]).unwrap(), &[a, b]);
        assert!(f(0.0, 0.0) < LO, "xor(0,0) = {}", f(0.0, 0.0));
        assert!(f(0.0, VDD) > HI, "xor(0,1) = {}", f(0.0, VDD));
        assert!(f(VDD, 0.0) > HI, "xor(1,0) = {}", f(VDD, 0.0));
        assert!(f(VDD, VDD) < LO, "xor(1,1) = {}", f(VDD, VDD));
    }

    #[test]
    fn buffer_restores_levels() {
        let low = dc_out(|c, l, i| l.buffer(c, i[0]).unwrap(), &[0.3]);
        let high = dc_out(|c, l, i| l.buffer(c, i[0]).unwrap(), &[VDD - 0.3]);
        assert!(low < LO, "buf(weak 0) = {low}");
        assert!(high > HI, "buf(weak 1) = {high}");
    }

    #[test]
    fn cell_tft_counts() {
        let mut ckt = Circuit::new();
        let lib = CellLibrary::with_rails(&mut ckt, VDD, VSS);
        let a = ckt.node("a");
        lib.inverter(&mut ckt, a).unwrap();
        assert_eq!(ckt.tft_count(), 4);
        let b = ckt.node("b");
        lib.nand2(&mut ckt, a, b).unwrap();
        assert_eq!(ckt.tft_count(), 10);
        lib.xor2(&mut ckt, a, b).unwrap();
        assert_eq!(ckt.tft_count(), 34);
    }

    #[test]
    fn latch_is_transparent_then_holds() {
        let mut ckt = Circuit::new();
        let lib = CellLibrary::with_rails(&mut ckt, VDD, VSS);
        let d = ckt.node("d");
        let en = ckt.node("en");
        // Data: high until 0.4 ms then low. Enable: high until 0.25 ms.
        ckt.add_vsource(
            d,
            NodeId::GROUND,
            Waveform::Pulse {
                v0: VDD,
                v1: 0.0,
                delay: 0.4e-3,
                rise: 2e-6,
                fall: 2e-6,
                width: 1.0,
                period: 0.0,
            },
        );
        ckt.add_vsource(
            en,
            NodeId::GROUND,
            Waveform::Pulse {
                v0: VDD,
                v1: 0.0,
                delay: 0.25e-3,
                rise: 2e-6,
                fall: 2e-6,
                width: 1.0,
                period: 0.0,
            },
        );
        let (q, _) = lib.d_latch(&mut ckt, d, en).unwrap();
        let result = ckt.transient(&TransientConfig::new(0.6e-3, 2e-6)).unwrap();
        let tr = result.trace(q);
        // Transparent phase: q follows d (high).
        assert!(tr.value_at(0.2e-3).unwrap() > HI, "transparent high");
        // After enable falls, d drops at 0.4 ms but q must hold high.
        assert!(tr.value_at(0.55e-3).unwrap() > HI, "hold phase");
    }

    #[test]
    fn dff_captures_on_rising_edge() {
        let mut ckt = Circuit::new();
        let lib = CellLibrary::with_rails(&mut ckt, VDD, VSS);
        let d = ckt.node("d");
        let clk = ckt.node("clk");
        // Data high from the start; clock rises at 0.2 ms.
        ckt.add_vsource(d, NodeId::GROUND, Waveform::Dc(VDD));
        ckt.add_vsource(
            clk,
            NodeId::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: VDD,
                delay: 0.2e-3,
                rise: 2e-6,
                fall: 2e-6,
                width: 0.2e-3,
                period: 0.4e-3,
            },
        );
        let q = lib.dff(&mut ckt, d, clk).unwrap();
        let result = ckt.transient(&TransientConfig::new(0.5e-3, 2e-6)).unwrap();
        let tr = result.trace(q);
        // After the rising edge the stored 1 appears at q.
        assert!(
            tr.value_at(0.45e-3).unwrap() > HI,
            "q after edge {}",
            tr.value_at(0.45e-3).unwrap()
        );
    }
}
