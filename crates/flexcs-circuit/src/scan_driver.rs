//! Transistor-level scan drivers for the Fig. 4 encoder.
//!
//! The paper's active matrix is scanned by two shift registers: the
//! *column* driver marches a one-hot select across the array (one
//! column per cycle, `√N` cycles total), while the *row* driver is
//! serially loaded with the row-select word of the upcoming column —
//! the blocks of the summed `Φ_M` rows. This module builds both drivers
//! from the pseudo-CMOS [`crate::CellLibrary`] and generates the serial
//! bit stream that realizes a given [`ScanSchedule`].

use crate::cells::CellLibrary;
use crate::error::Result;
use crate::netlist::{Circuit, NodeId};
use crate::scan::ScanSchedule;
use crate::shift_register::{build_shift_register, ShiftRegister};
use crate::waveform::Waveform;

/// Builds the one-hot column scanner: a `cols`-stage register whose data
/// input carries a single token pulse, injected only after
/// `flush_cycles` clock cycles of zeros have been shifted through the
/// register. Its `outputs` are the per-column selects; its active-low
/// `outputs_bar` (low exactly while the column is selected) drive the
/// p-type pixel access TFTs directly.
///
/// `clk` must carry the scan clock; the token pulse waveform is created
/// on a fresh node and returned as part of the netlist.
///
/// This is real scan-chain bring-up: the cross-coupled NAND latches of
/// a long register have many DC solutions (Newton on the bistable
/// system is fragile past a handful of stages), so large arrays start
/// the transient from the all-zero power-up state instead. From
/// power-up every latch resolves to the all-high invalid state; shifting
/// zeros for `cols` cycles flushes that garbage out before the one-hot
/// token enters, so stage `c` is high exactly during absolute cycle
/// `flush_cycles + c`.
///
/// # Errors
///
/// Propagates netlist-construction failures.
pub fn build_column_scanner_flushed(
    ckt: &mut Circuit,
    lib: &CellLibrary,
    cols: usize,
    clk: NodeId,
    scan_clock_hz: f64,
    vdd: f64,
    flush_cycles: usize,
) -> Result<ShiftRegister> {
    let token = ckt.fresh_node("scan_token");
    let period = 1.0 / scan_clock_hz;
    // Token low through the flush, then one period-wide pulse
    // straddling the rising clock edge at `flush_cycles · T`.
    let wave = Waveform::Pulse {
        v0: 0.0,
        v1: vdd,
        delay: (flush_cycles as f64 - 0.9) * period,
        rise: period * 0.02,
        fall: period * 0.02,
        width: period,
        period: 0.0,
    };
    ckt.add_vsource(token, NodeId::GROUND, wave);
    build_shift_register(ckt, lib, cols, token, clk)
}

/// Serial bit stream that loads a schedule's row words into the row
/// shift register.
///
/// The row register shifts one bit per fast clock; after `rows` shifts
/// the bit shifted *first* sits in the last stage. Hence each cycle's
/// word is streamed most-significant-stage first:
/// `word[rows-1], …, word[0]`, cycle after cycle.
pub fn serial_row_stream(schedule: &ScanSchedule) -> Vec<bool> {
    let rows = schedule.rows();
    let mut bits = Vec::with_capacity(rows * schedule.cols());
    for c in 0..schedule.cycles() {
        let word = schedule.row_word(c);
        for r in (0..rows).rev() {
            bits.push(word[r]);
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::TransientConfig;

    #[test]
    fn serial_stream_layout() {
        // 3x3 array, pixels (0,0), (2,1) sampled.
        let schedule = ScanSchedule::from_selected(3, 3, &[0, 7]).unwrap();
        let bits = serial_row_stream(&schedule);
        assert_eq!(bits.len(), 9);
        // Cycle 0 (column 0): word = [true, false, false], streamed
        // reversed: f, f, t.
        assert_eq!(&bits[0..3], &[false, false, true]);
        // Cycle 1 (column 1): pixel (2,1): word = [f, f, t] reversed:
        // t, f, f.
        assert_eq!(&bits[3..6], &[true, false, false]);
        // Cycle 2: empty.
        assert_eq!(&bits[6..9], &[false, false, false]);
    }

    #[test]
    fn column_scanner_marches_one_hot() {
        // 3-column scanner at 10 kHz with the production bring-up
        // (`TftArray::scan`): power-up from the all-zero state, `cols`
        // flush cycles, then stage c is high during cycle `flush + c`
        // and exactly one stage is high per cycle.
        let vdd = 3.0;
        let f_scan = 10e3;
        let cols = 3;
        let mut ckt = Circuit::new();
        let lib = CellLibrary::with_rails(&mut ckt, vdd, -vdd);
        let clk = ckt.node("clk");
        ckt.add_vsource(clk, NodeId::GROUND, Waveform::clock(0.0, vdd, f_scan));
        let scanner =
            build_column_scanner_flushed(&mut ckt, &lib, cols, clk, f_scan, vdd, cols).unwrap();
        let period = 1.0 / f_scan;
        let flush = cols as f64;
        let mut tc = TransientConfig::new(2.0 * flush * period, 2e-6);
        tc.start_from_dc = false;
        let result = ckt.transient(&tc).unwrap();
        for cycle in 0..cols {
            // Sample late in the cycle, as `TftArray::scan` does.
            let t = (flush + cycle as f64 + 0.9) * period;
            let mut high = Vec::new();
            for (stage, &q) in scanner.outputs.iter().enumerate() {
                if result.trace(q).value_at(t).unwrap() > vdd / 2.0 {
                    high.push(stage);
                }
            }
            assert_eq!(high, vec![cycle], "cycle {cycle}: high stages {high:?}");
        }
    }
}
