//! Scan-out schedule for the active-matrix CS encoder (paper Fig. 4).
//!
//! The sampling matrix `Φ_M` consists of `M` randomly chosen rows of the
//! identity, so each pixel is sampled at most once. Summing its rows
//! gives a length-`N` indicator vector that splits into `√N` blocks —
//! one row-select word per array column. The shift registers then scan
//! the array in `√N` cycles: cycle `c` activates column `c` and reads
//! the selected rows of that column.

use crate::error::{CircuitError, Result};

/// The per-cycle row-select words realizing one sampling pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSchedule {
    rows: usize,
    cols: usize,
    /// `column_masks[c][r]` is `true` when pixel `(r, c)` is sampled in
    /// cycle `c`.
    column_masks: Vec<Vec<bool>>,
}

impl ScanSchedule {
    /// Builds a schedule from the set of sampled pixel indices
    /// (row-major: pixel `(r, c)` has index `r·cols + c`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for zero dimensions,
    /// out-of-range indices, or duplicate indices (`Φ_M` rows are
    /// distinct identity rows, so a pixel cannot be sampled twice).
    pub fn from_selected(rows: usize, cols: usize, selected: &[usize]) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(CircuitError::InvalidParameter(
                "scan schedule needs positive dimensions".to_string(),
            ));
        }
        let mut column_masks = vec![vec![false; rows]; cols];
        for &idx in selected {
            if idx >= rows * cols {
                return Err(CircuitError::InvalidParameter(format!(
                    "pixel index {idx} out of range for {rows}x{cols} array"
                )));
            }
            let r = idx / cols;
            let c = idx % cols;
            if column_masks[c][r] {
                return Err(CircuitError::InvalidParameter(format!(
                    "pixel index {idx} sampled twice"
                )));
            }
            column_masks[c][r] = true;
        }
        Ok(ScanSchedule {
            rows,
            cols,
            column_masks,
        })
    }

    /// Array row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of scan cycles needed: one per column (`√N` for a square
    /// array), matching the paper's claim.
    pub fn cycles(&self) -> usize {
        self.cols
    }

    /// Row-select word for cycle `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cycles()`.
    pub fn row_word(&self, c: usize) -> &[bool] {
        &self.column_masks[c]
    }

    /// Total sampled pixels `M`.
    pub fn sample_count(&self) -> usize {
        self.column_masks
            .iter()
            .map(|m| m.iter().filter(|&&b| b).count())
            .sum()
    }

    /// Pixel indices in readout order: cycle by cycle (column-major),
    /// rows ascending within a cycle. This is the order in which the
    /// measurement vector leaves the array.
    pub fn readout_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.sample_count());
        for c in 0..self.cols {
            for r in 0..self.rows {
                if self.column_masks[c][r] {
                    order.push(r * self.cols + c);
                }
            }
        }
        order
    }
}

/// Row-line voltages captured from a transistor-level array scan
/// ([`crate::TftArray::scan`]): one frame of `rows` voltages per scan
/// cycle, sampled late in each cycle once the selected column has
/// settled.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayScanResult {
    rows: usize,
    cols: usize,
    /// `frames[c][r]` is the voltage on row line `r` during cycle `c`.
    frames: Vec<Vec<f64>>,
}

impl ArrayScanResult {
    pub(crate) fn new(rows: usize, cols: usize, frames: Vec<Vec<f64>>) -> Self {
        debug_assert_eq!(frames.len(), cols);
        debug_assert!(frames.iter().all(|f| f.len() == rows));
        ArrayScanResult { rows, cols, frames }
    }

    /// Array row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array column count (= scan cycles).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Voltage of row line `r` during scan cycle `c` — the readout of
    /// pixel `(r, c)` when that pixel is selected.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    pub fn row_voltage(&self, r: usize, c: usize) -> f64 {
        self.frames[c][r]
    }

    /// Extracts the measurement vector a [`ScanSchedule`] selects, in
    /// [`ScanSchedule::readout_order`]: cycle by cycle, rows ascending —
    /// the `Φ_M·y` vector the CS decoder consumes, straight from the
    /// simulated row lines.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] when the schedule's
    /// shape differs from the scanned array.
    pub fn measurements(&self, schedule: &ScanSchedule) -> Result<Vec<f64>> {
        if schedule.rows() != self.rows || schedule.cols() != self.cols {
            return Err(CircuitError::InvalidParameter(format!(
                "schedule is {}x{} but scan is {}x{}",
                schedule.rows(),
                schedule.cols(),
                self.rows,
                self.cols
            )));
        }
        let mut out = Vec::with_capacity(schedule.sample_count());
        for c in 0..self.cols {
            let word = schedule.row_word(c);
            for (&sel, &v) in word.iter().zip(&self.frames[c]) {
                if sel {
                    out.push(v);
                }
            }
        }
        Ok(out)
    }

    /// All row-line voltages flattened cycle-major: element
    /// `c * rows + r` is [`row_voltage(r, c)`](Self::row_voltage).
    /// Benches and downstream decoders use this instead of re-deriving
    /// the frame layout by hand.
    pub fn flattened_voltages(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for frame in &self.frames {
            out.extend_from_slice(frame);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_result_measurement_mapping() {
        // frames[c][r] = 10c + r lets the mapping be read off directly.
        let frames: Vec<Vec<f64>> = (0..3)
            .map(|c| (0..3).map(|r| (10 * c + r) as f64).collect())
            .collect();
        let res = ArrayScanResult::new(3, 3, frames);
        assert_eq!(res.row_voltage(2, 1), 12.0);
        // Pixels (0,0), (2,1), (1,1): readout order is column-major.
        let s = ScanSchedule::from_selected(3, 3, &[0, 7, 4]).unwrap();
        assert_eq!(res.measurements(&s).unwrap(), vec![0.0, 11.0, 12.0]);
        let wrong = ScanSchedule::from_selected(2, 2, &[]).unwrap();
        assert!(res.measurements(&wrong).is_err());
        // Flattened layout is cycle-major: c * rows + r.
        let flat = res.flattened_voltages();
        assert_eq!(flat.len(), 9);
        assert_eq!(flat[3 + 2], res.row_voltage(2, 1));
        assert_eq!(flat[..3], [0.0, 1.0, 2.0]);
    }

    #[test]
    fn schedule_covers_exactly_the_selection() {
        let selected = [0usize, 5, 7, 10, 13];
        let s = ScanSchedule::from_selected(4, 4, &selected).unwrap();
        assert_eq!(s.sample_count(), 5);
        let mut order = s.readout_order();
        order.sort_unstable();
        assert_eq!(order, selected);
    }

    #[test]
    fn cycle_count_is_column_count() {
        let s = ScanSchedule::from_selected(8, 8, &[3, 9]).unwrap();
        assert_eq!(s.cycles(), 8);
        // Paper: a square N-pixel array scans in √N cycles.
        assert_eq!(s.cycles() * s.cycles(), 64);
    }

    #[test]
    fn readout_order_is_column_major() {
        // Pixels (0,1)=1 and (2,0)=8 in a 3x3 array: column 0 first.
        let s = ScanSchedule::from_selected(3, 3, &[1, 6]).unwrap();
        assert_eq!(s.readout_order(), vec![6, 1]);
    }

    #[test]
    fn row_word_reflects_mask() {
        let s = ScanSchedule::from_selected(3, 3, &[4]).unwrap(); // (1,1)
        assert_eq!(s.row_word(1), &[false, true, false]);
        assert_eq!(s.row_word(0), &[false, false, false]);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(ScanSchedule::from_selected(0, 3, &[]).is_err());
        assert!(ScanSchedule::from_selected(3, 3, &[9]).is_err());
        assert!(ScanSchedule::from_selected(3, 3, &[2, 2]).is_err());
    }

    #[test]
    fn empty_selection_is_valid() {
        let s = ScanSchedule::from_selected(2, 2, &[]).unwrap();
        assert_eq!(s.sample_count(), 0);
        assert!(s.readout_order().is_empty());
    }
}
