//! Hardware-in-the-loop encoder: the CS front end backed by the
//! circuit-level active-matrix model.
//!
//! [`crate::pipeline`] injects errors mathematically; this module
//! instead routes the scene through [`flexcs_circuit::ActiveMatrix`] —
//! defects, gain mismatch and readout noise come from the (calibrated)
//! device model, and the sampling pattern is executed as a Fig. 4 scan
//! schedule. It closes the loop between the paper's hardware section
//! (Sec. 3) and its system evaluation (Sec. 4).

use crate::error::Result;
use crate::sampling::SamplingPlan;
use flexcs_circuit::{ActiveMatrix, ScanSchedule};
use flexcs_linalg::Matrix;

/// A CS encoder bound to a simulated active-matrix array.
#[derive(Debug, Clone)]
pub struct CircuitEncoder {
    array: ActiveMatrix,
}

/// One encoded acquisition.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Sampled pixel indices, ascending (matches
    /// [`crate::SubsampledDctOperator`] ordering).
    pub selected: Vec<usize>,
    /// Measurements aligned with `selected`.
    pub measurements: Vec<f64>,
    /// Scan cycles the schedule needed.
    pub scan_cycles: usize,
}

impl CircuitEncoder {
    /// Wraps an array model.
    pub fn new(array: ActiveMatrix) -> Self {
        CircuitEncoder { array }
    }

    /// Borrows the underlying array.
    pub fn array(&self) -> &ActiveMatrix {
        &self.array
    }

    /// Mutably borrows the underlying array (defect injection).
    pub fn array_mut(&mut self) -> &mut ActiveMatrix {
        &mut self.array
    }

    /// Acquires a sampled measurement vector from a normalized scene.
    ///
    /// The plan's pixel set is turned into a scan schedule (per-column
    /// row words, `√N` cycles), read through the array model, and the
    /// readout-ordered measurements are re-sorted into ascending pixel
    /// order for the decoder.
    ///
    /// # Errors
    ///
    /// Propagates schedule/array failures (shape mismatches).
    pub fn acquire(&self, scene: &Matrix, plan: &SamplingPlan, seed: u64) -> Result<Acquisition> {
        let schedule =
            ScanSchedule::from_selected(self.array.rows(), self.array.cols(), plan.selected())?;
        let readout = self
            .array
            .read_scheduled(&scene.to_flat(), &schedule, seed)?;
        // Pair readout-order measurements with their pixel indices, then
        // sort ascending.
        let order = schedule.readout_order();
        let mut pairs: Vec<(usize, f64)> = order.into_iter().zip(readout).collect();
        pairs.sort_by_key(|(i, _)| *i);
        Ok(Acquisition {
            selected: pairs.iter().map(|(i, _)| *i).collect(),
            measurements: pairs.into_iter().map(|(_, v)| v).collect(),
            scan_cycles: schedule.cycles(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::Decoder;
    use crate::metrics::rmse;
    use flexcs_circuit::PixelDefect;
    use flexcs_transform::Dct2d;

    fn encoder(rows: usize, cols: usize) -> CircuitEncoder {
        CircuitEncoder::new(ActiveMatrix::new(rows, cols).unwrap())
    }

    fn smooth_scene(rows: usize, cols: usize) -> Matrix {
        let dct = Dct2d::new(rows, cols).unwrap();
        let mut coeffs = Matrix::zeros(rows, cols);
        coeffs[(0, 0)] = 6.0;
        coeffs[(0, 1)] = 1.2;
        coeffs[(1, 0)] = -0.9;
        coeffs[(2, 1)] = 0.5;
        let raw = dct.inverse(&coeffs).unwrap();
        let (min, max) = (raw.min(), raw.max());
        raw.map(|v| (v - min) / (max - min))
    }

    #[test]
    fn acquisition_matches_plan() {
        let enc = encoder(8, 8);
        let scene = smooth_scene(8, 8);
        let plan = SamplingPlan::random_subset(64, 30, &[], 3).unwrap();
        let acq = enc.acquire(&scene, &plan, 5).unwrap();
        assert_eq!(acq.selected, plan.selected());
        assert_eq!(acq.measurements.len(), 30);
        assert_eq!(acq.scan_cycles, 8);
    }

    #[test]
    fn measurements_track_scene_values() {
        let enc = encoder(8, 8);
        let scene = smooth_scene(8, 8);
        let plan = SamplingPlan::random_subset(64, 20, &[], 7).unwrap();
        let acq = enc.acquire(&scene, &plan, 9).unwrap();
        let flat = scene.to_flat();
        for (&i, &v) in acq.selected.iter().zip(&acq.measurements) {
            assert!((v - flat[i]).abs() < 0.05, "pixel {i}: {v} vs {}", flat[i]);
        }
    }

    #[test]
    fn end_to_end_hardware_reconstruction() {
        let enc = encoder(8, 8);
        let scene = smooth_scene(8, 8);
        let plan = SamplingPlan::random_subset(64, 40, &[], 11).unwrap();
        let acq = enc.acquire(&scene, &plan, 13).unwrap();
        let rec = Decoder::default()
            .reconstruct(8, 8, &acq.selected, &acq.measurements)
            .unwrap();
        assert!(
            rmse(&rec.frame, &scene) < 0.05,
            "hardware-loop rmse {}",
            rmse(&rec.frame, &scene)
        );
    }

    #[test]
    fn defective_pixels_show_in_measurements() {
        let mut enc = encoder(8, 8);
        enc.array_mut().set_defect(10, PixelDefect::StuckHigh);
        let scene = smooth_scene(8, 8);
        // Force pixel 10 into the plan by excluding everything above 32
        // until it is picked; simpler: sample everything.
        let plan = SamplingPlan::random_subset(64, 64, &[], 1).unwrap();
        let acq = enc.acquire(&scene, &plan, 3).unwrap();
        let pos = acq.selected.iter().position(|&i| i == 10).unwrap();
        assert_eq!(acq.measurements[pos], 1.0);
    }
}
