//! Behavioral active-matrix array with defect injection.
//!
//! The transistor-level pixel ([`crate::read_pixel_current`]) is exact
//! but a full frame would need thousands of DC solves per read. This
//! module calibrates the pixel's temperature→current transfer once at
//! the circuit level and then reads whole frames behaviorally: linear
//! transfer + per-pixel gain variation + readout noise + stuck defects —
//! the device non-idealities the paper's robustness study targets
//! ("device defects/transient errors … usually show extreme results
//! either very high or almost zero currents").

use crate::cells::CellLibrary;
use crate::error::{CircuitError, Result};
use crate::netlist::{Circuit, NodeId};
use crate::scan::{ArrayScanResult, ScanSchedule};
use crate::scan_driver::build_column_scanner_flushed;
use crate::sensor::{linearity_fit, pixel_temperature_sweep, PixelBias, PtSensorModel};
use crate::solver::SolverPolicy;
use crate::transient::TransientConfig;
use crate::waveform::Waveform;
use flexcs_linalg::SplitMix64;

/// Per-pixel defect state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PixelDefect {
    /// Healthy pixel.
    #[default]
    None,
    /// Open circuit / dead device: reads almost zero current.
    StuckLow,
    /// Shorted device: reads a very high current.
    StuckHigh,
}

/// Pixel transfer calibration: `i = slope·t + intercept`, extracted from
/// a transistor-level temperature sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PixelCalibration {
    /// Current-per-degree slope, A/°C.
    pub slope: f64,
    /// Zero-temperature intercept, A.
    pub intercept: f64,
    /// Fit quality from the underlying sweep.
    pub r_squared: f64,
}

impl PixelCalibration {
    /// Runs the transistor-level sweep over `[t_min, t_max]` and fits
    /// the linear transfer.
    ///
    /// # Errors
    ///
    /// Propagates circuit-simulation failures, or
    /// [`CircuitError::InvalidParameter`] if the fitted transfer is
    /// degenerate.
    pub fn from_circuit(
        sensor: &PtSensorModel,
        bias: &PixelBias,
        t_min: f64,
        t_max: f64,
    ) -> Result<Self> {
        let sweep = pixel_temperature_sweep(sensor, bias, t_min, t_max, 9)?;
        let (slope, intercept, r_squared) = linearity_fit(&sweep);
        if slope == 0.0 {
            return Err(CircuitError::InvalidParameter(
                "pixel transfer has zero slope; check bias".to_string(),
            ));
        }
        Ok(PixelCalibration {
            slope,
            intercept,
            r_squared,
        })
    }

    /// Current produced at temperature `t`.
    pub fn current_at(&self, t: f64) -> f64 {
        self.slope * t + self.intercept
    }

    /// Temperature recovered from a measured current.
    pub fn temperature_at(&self, i: f64) -> f64 {
        (i - self.intercept) / self.slope
    }
}

/// Temperature range, °C, that normalized scene values `[0, 1]` span
/// in both array models.
const T_RANGE: (f64, f64) = (20.0, 40.0);
/// Relative per-pixel gain mismatch of [`ActiveMatrix`] (std of a
/// multiplicative factor).
const GAIN_MISMATCH: f64 = 0.005;
/// Additive readout-current noise of [`ActiveMatrix`], relative to full
/// scale.
const READOUT_NOISE: f64 = 0.002;

/// A behavioral large-area sensing array: scenes span 20–40 °C, with
/// 0.5 % per-pixel gain mismatch and 0.2 % readout noise.
///
/// # Examples
///
/// ```
/// use flexcs_circuit::ActiveMatrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let array = ActiveMatrix::new(8, 8)?;
/// // A uniform 30 °C scene reads back near 0.5 in normalized units.
/// let frame = vec![0.5; 64];
/// let reading = array.read_normalized(&frame, 1)?;
/// assert!((reading[10] - 0.5).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ActiveMatrix {
    rows: usize,
    cols: usize,
    calibration: PixelCalibration,
    defects: Vec<PixelDefect>,
    gains: Vec<f64>,
}

impl ActiveMatrix {
    /// Builds a `rows × cols` array, calibrating the pixel transfer at
    /// the transistor level.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for zero dimensions
    /// and propagates calibration failures.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        Self::with_seed(rows, cols, 0x5eed)
    }

    /// Like [`ActiveMatrix::new`] with an explicit mismatch seed.
    ///
    /// # Errors
    ///
    /// See [`ActiveMatrix::new`].
    pub fn with_seed(rows: usize, cols: usize, seed: u64) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(CircuitError::InvalidParameter(
                "array needs positive dimensions".to_string(),
            ));
        }
        let calibration = PixelCalibration::from_circuit(
            &PtSensorModel::default(),
            &PixelBias::default(),
            T_RANGE.0,
            T_RANGE.1,
        )?;
        let n = rows * cols;
        let mut rng = SplitMix64::new(seed);
        let gains = (0..n)
            .map(|_| 1.0 + GAIN_MISMATCH * rng.gaussian())
            .collect();
        Ok(ActiveMatrix {
            rows,
            cols,
            calibration,
            defects: vec![PixelDefect::None; n],
            gains,
        })
    }

    /// Array rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Pixel count `N`.
    pub fn len(&self) -> usize {
        self.defects.len()
    }

    /// `true` for an empty array (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.defects.is_empty()
    }

    /// Current defect map.
    pub fn defects(&self) -> &[PixelDefect] {
        &self.defects
    }

    /// Indices of defective pixels.
    pub fn defective_indices(&self) -> Vec<usize> {
        self.defects
            .iter()
            .enumerate()
            .filter(|(_, d)| **d != PixelDefect::None)
            .map(|(i, _)| i)
            .collect()
    }

    /// Sets one pixel's defect state.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn set_defect(&mut self, index: usize, defect: PixelDefect) {
        self.defects[index] = defect;
    }

    /// Injects random stuck defects on `fraction` of the pixels (half
    /// low, half high in expectation), per the paper's sparse-error
    /// model.
    pub fn inject_defects(&mut self, fraction: f64, seed: u64) {
        let fraction = fraction.clamp(0.0, 1.0);
        let n = self.len();
        let count = ((n as f64) * fraction).round() as usize;
        let mut rng = SplitMix64::new(seed ^ 0xdefec7);
        // Sample distinct indices by shuffling.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            idx.swap(i, j);
        }
        for &i in idx.iter().take(count) {
            self.defects[i] = if rng.uniform() < 0.5 {
                PixelDefect::StuckLow
            } else {
                PixelDefect::StuckHigh
            };
        }
    }

    /// Reads the full frame. `scene` holds normalized `[0, 1]` pixel
    /// values (row-major); the return is the normalized measured frame,
    /// with defects showing as 0/1 extremes and healthy pixels carrying
    /// gain mismatch + readout noise.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] when `scene.len()`
    /// differs from the pixel count.
    pub fn read_normalized(&self, scene: &[f64], seed: u64) -> Result<Vec<f64>> {
        let order: Vec<usize> = (0..self.len()).collect();
        self.read_indices(scene, &order, seed)
    }

    /// Reads only the pixels a [`ScanSchedule`] selects, in readout
    /// order — the measurement vector `Φ_M·y` the CS decoder consumes.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for a scene-length
    /// mismatch or a schedule shaped differently from the array.
    pub fn read_scheduled(
        &self,
        scene: &[f64],
        schedule: &ScanSchedule,
        seed: u64,
    ) -> Result<Vec<f64>> {
        if schedule.rows() != self.rows || schedule.cols() != self.cols {
            return Err(CircuitError::InvalidParameter(format!(
                "schedule is {}x{} but array is {}x{}",
                schedule.rows(),
                schedule.cols(),
                self.rows,
                self.cols
            )));
        }
        self.read_indices(scene, &schedule.readout_order(), seed)
    }

    fn read_indices(&self, scene: &[f64], indices: &[usize], seed: u64) -> Result<Vec<f64>> {
        let n = self.len();
        if scene.len() != n {
            return Err(CircuitError::InvalidParameter(format!(
                "scene has {} pixels, array has {n}",
                scene.len()
            )));
        }
        let (t0, t1) = T_RANGE;
        let full_scale = (self.calibration.current_at(t1) - self.calibration.current_at(t0)).abs();
        let mut rng = SplitMix64::new(seed ^ 0x4ead);
        let mut out = Vec::with_capacity(indices.len());
        for &i in indices {
            let v = match self.defects[i] {
                PixelDefect::StuckLow => 0.0,
                PixelDefect::StuckHigh => 1.0,
                PixelDefect::None => {
                    // Scene value → temperature → current → (mismatched,
                    // noisy) measurement → temperature → normalized.
                    // Pixels are offset-calibrated at `t0` (the paper's
                    // flow tests the array before use), so the residual
                    // gain mismatch applies to the signal span only.
                    let t = t0 + scene[i].clamp(0.0, 1.0) * (t1 - t0);
                    let ideal = self.calibration.current_at(t);
                    let i_ref = self.calibration.current_at(t0);
                    let measured = i_ref
                        + (ideal - i_ref) * self.gains[i]
                        + full_scale * READOUT_NOISE * rng.gaussian();
                    let t_est = self.calibration.temperature_at(measured);
                    (t_est - t0) / (t1 - t0)
                }
            };
            out.push(v);
        }
        Ok(out)
    }
}

/// Positive supply, volts (the pseudo-CMOS rails are `±VDD`).
const VDD: f64 = 3.0;
/// Column-scan clock, hertz (paper: 10 kHz).
const SCAN_CLOCK_HZ: f64 = 10e3;
/// Backward-Euler steps per scan cycle.
const STEPS_PER_CYCLE: usize = 50;
/// Per-row current-sense resistor to ground, ohms.
const R_SENSE: f64 = 10_000.0;
/// Pixel access-TFT geometry `W/L`.
const PIXEL_W_OVER_L: f64 = 20.0;

/// Transistor-level active-matrix array: a pseudo-CMOS column scanner
/// (shift register marching a one-hot token) plus one access TFT and Pt
/// resistor per pixel, all in a single [`Circuit`].
///
/// Each pixel is `VDD ──[access TFT]── x ──[R_pt(T)]── row line`, the
/// TFT gated by the scanner's *active-low* column select (p-type: the
/// selected column's low `q_bar` gives the full `V_sg = VDD` drive;
/// deselected columns sit at `V_sg = 0`, off). Every row line carries a
/// sense resistor to ground, so the row-line voltage during cycle `c`
/// reads pixel `(r, c)` directly. A full scene is scanned in `cols`
/// clock cycles with one transient run — this is the full-array
/// simulation the sparse MNA engine exists for: a 32×32 array is
/// ~3 000 TFTs and ~1 800 MNA unknowns, far past the dense crossover.
///
/// The array runs at the paper's operating point: `VDD = 3 V`, a 10 kHz
/// scan clock, a default Pt RTD per pixel and a 20–40 °C scene range.
#[derive(Debug, Clone)]
pub struct TftArray {
    circuit: Circuit,
    cols: usize,
    row_lines: Vec<NodeId>,
    tft_count: usize,
}

impl TftArray {
    /// Builds a `rows × cols` array circuit for a normalized scene
    /// (`scene[r·cols + c]` in `[0, 1]` maps linearly onto 20–40 °C).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for zero dimensions or
    /// a scene-length mismatch; propagates netlist-construction
    /// failures.
    pub fn build(rows: usize, cols: usize, scene: &[f64]) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(CircuitError::InvalidParameter(
                "array needs positive dimensions".to_string(),
            ));
        }
        if scene.len() != rows * cols {
            return Err(CircuitError::InvalidParameter(format!(
                "scene has {} pixels, array needs {}",
                scene.len(),
                rows * cols
            )));
        }
        let mut ckt = Circuit::new();
        let lib = CellLibrary::with_rails(&mut ckt, VDD, -VDD);
        let clk = ckt.node("scan_clk");
        ckt.add_vsource(
            clk,
            NodeId::GROUND,
            Waveform::clock(0.0, VDD, SCAN_CLOCK_HZ),
        );
        // Power-up bring-up: the transient starts from the all-zero
        // state (a `cols`-stage register of bistable latches has no
        // reliably solvable DC point), and `cols` flush cycles shift the
        // power-up garbage out before the token enters.
        let scanner =
            build_column_scanner_flushed(&mut ckt, &lib, cols, clk, SCAN_CLOCK_HZ, VDD, cols)?;
        let row_lines: Vec<NodeId> = (0..rows).map(|r| ckt.node(&format!("row{r}"))).collect();
        for &rl in &row_lines {
            ckt.add_resistor(rl, NodeId::GROUND, R_SENSE)?;
        }
        let sensor = PtSensorModel::default();
        let (t0, t1) = T_RANGE;
        for r in 0..rows {
            for c in 0..cols {
                let x = ckt.fresh_node("px");
                // p-type access TFT: source on VDD, drain at the pixel
                // node, gate on the active-low column select.
                ckt.add_tft(scanner.outputs_bar[c], x, lib.vdd, PIXEL_W_OVER_L)?;
                let t = t0 + scene[r * cols + c].clamp(0.0, 1.0) * (t1 - t0);
                ckt.add_resistor(x, row_lines[r], sensor.resistance(t))?;
            }
        }
        let tft_count = ckt.tft_count();
        Ok(TftArray {
            circuit: ckt,
            cols,
            row_lines,
            tft_count,
        })
    }

    /// The underlying netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Per-row sense nodes.
    pub fn row_lines(&self) -> &[NodeId] {
        &self.row_lines
    }

    /// Total TFTs in the circuit (scanner + pixels).
    pub fn tft_count(&self) -> usize {
        self.tft_count
    }

    /// Number of MNA unknowns the scan solves per Newton iteration.
    pub fn unknowns(&self) -> usize {
        crate::mna::Assembler::new(&self.circuit).dim()
    }

    /// Scans the whole array (one transient over `cols` clock cycles)
    /// with the default solver policy — sparse for any full-scale array.
    ///
    /// # Errors
    ///
    /// See [`TftArray::scan_with`].
    pub fn scan(&self) -> Result<ArrayScanResult> {
        self.scan_with(SolverPolicy::Auto)
    }

    /// Like [`TftArray::scan`] with an explicit linear-solver policy.
    ///
    /// The transient starts from power-up (all-zero state) and runs
    /// `cols` flush cycles before the token enters, then `cols` scan
    /// cycles. Row lines are sampled at `(flush + c + 0.9)·T` — late in
    /// scan cycle `c`, once the selected column has settled.
    ///
    /// # Errors
    ///
    /// Propagates transient-simulation failures.
    pub fn scan_with(&self, policy: SolverPolicy) -> Result<ArrayScanResult> {
        let period = 1.0 / SCAN_CLOCK_HZ;
        let flush = self.cols as f64;
        let t_stop = 2.0 * flush * period;
        let dt = period / STEPS_PER_CYCLE as f64;
        let mut tc = TransientConfig::new(t_stop, dt);
        tc.start_from_dc = false;
        let result = self.circuit.transient_with(&tc, policy)?;
        let mut frames = Vec::with_capacity(self.cols);
        for c in 0..self.cols {
            let t = (flush + c as f64 + 0.9) * period;
            frames.push(
                self.row_lines
                    .iter()
                    .map(|&n| {
                        result
                            .trace(n)
                            .value_at(t)
                            .expect("sample time within the run")
                    })
                    .collect(),
            );
        }
        Ok(ArrayScanResult::new(
            self.row_lines.len(),
            self.cols,
            frames,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_array() -> ActiveMatrix {
        ActiveMatrix::new(8, 8).unwrap()
    }

    #[test]
    fn calibration_is_linear_and_invertible() {
        let cal = PixelCalibration::from_circuit(
            &PtSensorModel::default(),
            &PixelBias::default(),
            T_RANGE.0,
            T_RANGE.1,
        )
        .unwrap();
        assert!(cal.r_squared > 0.99);
        let i = cal.current_at(33.0);
        assert!((cal.temperature_at(i) - 33.0).abs() < 1e-9);
    }

    #[test]
    fn healthy_read_tracks_scene() {
        let array = small_array();
        let scene: Vec<f64> = (0..64).map(|i| (i % 8) as f64 / 7.0).collect();
        let read = array.read_normalized(&scene, 3).unwrap();
        for (s, r) in scene.iter().zip(&read) {
            assert!((s - r).abs() < 0.08, "scene {s} read {r}");
        }
    }

    #[test]
    fn read_is_deterministic_per_seed() {
        let array = small_array();
        let scene = vec![0.4; 64];
        assert_eq!(
            array.read_normalized(&scene, 9).unwrap(),
            array.read_normalized(&scene, 9).unwrap()
        );
        assert_ne!(
            array.read_normalized(&scene, 9).unwrap(),
            array.read_normalized(&scene, 10).unwrap()
        );
    }

    #[test]
    fn defects_read_extreme_values() {
        let mut array = small_array();
        array.set_defect(5, PixelDefect::StuckLow);
        array.set_defect(6, PixelDefect::StuckHigh);
        let scene = vec![0.5; 64];
        let read = array.read_normalized(&scene, 1).unwrap();
        assert_eq!(read[5], 0.0);
        assert_eq!(read[6], 1.0);
        assert!((read[7] - 0.5).abs() < 0.05);
    }

    #[test]
    fn inject_defects_hits_requested_fraction() {
        let mut array = small_array();
        array.inject_defects(0.25, 7);
        let bad = array.defective_indices().len();
        assert_eq!(bad, 16);
        // Both polarities appear.
        let lows = array
            .defects()
            .iter()
            .filter(|d| **d == PixelDefect::StuckLow)
            .count();
        assert!(lows > 0 && lows < bad);
    }

    #[test]
    fn scheduled_read_matches_full_read_subset() {
        let mut array = small_array();
        array.set_defect(9, PixelDefect::StuckHigh);
        let scene: Vec<f64> = (0..64).map(|i| (i as f64) / 63.0).collect();
        let schedule = crate::scan::ScanSchedule::from_selected(8, 8, &[2, 9, 17, 33]).unwrap();
        let order = schedule.readout_order();
        let sel = array.read_scheduled(&scene, &schedule, 5).unwrap();
        assert_eq!(sel.len(), 4);
        // Stuck pixel shows its extreme wherever it lands in the order.
        let pos = order.iter().position(|&i| i == 9).unwrap();
        assert_eq!(sel[pos], 1.0);
    }

    #[test]
    fn tft_array_rejects_bad_shapes() {
        assert!(TftArray::build(0, 32, &[]).is_err());
        // Scene-length mismatch.
        assert!(TftArray::build(2, 2, &[0.0; 3]).is_err());
    }

    #[test]
    fn tft_array_scan_reads_scene() {
        // 2x3 array: column 0 has (cold, hot) pixels, column 1 the
        // reverse, column 2 equal. A hotter pixel has more Pt
        // resistance, so its selected-cycle row voltage is lower.
        let scene = [0.0, 1.0, 0.5, 1.0, 0.0, 0.5];
        let array = TftArray::build(2, 3, &scene).unwrap();
        // 3 scanner stages x 60 TFTs + 6 pixel access TFTs.
        assert_eq!(array.tft_count(), 3 * 60 + 6);
        assert_eq!(array.row_lines().len(), 2);
        assert!(array.unknowns() > 0);
        let scan = array.scan().unwrap();
        let v = |r: usize, c: usize| scan.row_voltage(r, c);
        // All selected readings are a real signal above the sense floor.
        for c in 0..3 {
            for r in 0..2 {
                assert!(v(r, c) > 0.05, "pixel ({r},{c}) reads {}", v(r, c));
            }
        }
        assert!(v(0, 0) > v(1, 0), "cycle 0: cold row must read higher");
        assert!(v(0, 1) < v(1, 1), "cycle 1: hot row must read lower");
        assert!(
            (v(0, 2) - v(1, 2)).abs() < 0.01,
            "cycle 2: equal pixels read {} vs {}",
            v(0, 2),
            v(1, 2)
        );
        // The measurement mapping picks the scheduled pixels.
        let schedule = ScanSchedule::from_selected(2, 3, &[0, 4]).unwrap();
        let m = scan.measurements(&schedule).unwrap();
        assert_eq!(m, vec![v(0, 0), v(1, 1)]);
    }

    #[test]
    fn shape_validation() {
        let array = small_array();
        assert!(array.read_normalized(&[0.0; 5], 1).is_err());
        let wrong = crate::scan::ScanSchedule::from_selected(4, 4, &[1]).unwrap();
        assert!(array.read_scheduled(&[0.0; 64], &wrong, 1).is_err());
        assert!(ActiveMatrix::new(0, 32).is_err());
    }
}
