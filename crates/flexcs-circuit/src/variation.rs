//! Monte-Carlo device-variation analysis.
//!
//! The paper's premise is that flexible fabrication suffers "large
//! device variation, device defects and transient errors". The system
//! solution (CS) handles defects; this module quantifies what *process
//! variation* does to the encoder circuits themselves — the classic
//! EDA yield questions: does the pseudo-CMOS inverter still produce
//! valid logic levels when every TFT's threshold and transconductance
//! are perturbed? How much does the amplifier's gain spread?

use crate::amplifier::{build_self_biased_amplifier, AmplifierConfig};
use crate::cells::CellLibrary;
use crate::device::CntTftModel;
use crate::error::Result;
use crate::mc::{McEngine, McReport, McSample, McTrial};
use crate::netlist::{Circuit, NodeId};
use crate::transient::TransientConfig;
use crate::waveform::Waveform;

/// Per-device random variation magnitudes.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationModel {
    /// Threshold-voltage standard deviation, volts (CNT TFT reports run
    /// 50–150 mV).
    pub vth_sigma: f64,
    /// Relative transconductance (`k_p`) standard deviation.
    pub kp_rel_sigma: f64,
}

impl Default for VariationModel {
    /// 100 mV σ(Vth), 10 % σ(kp) — mid-range for CNT TFT literature.
    fn default() -> Self {
        VariationModel {
            vth_sigma: 0.1,
            kp_rel_sigma: 0.1,
        }
    }
}

impl VariationModel {
    /// Applies standard-normal draws `(g_vth, g_kp)` to a nominal
    /// model. Factored out so the Monte-Carlo engine's nominal pass can
    /// feed zeros (an exactly unperturbed device) through the same
    /// arithmetic as the sampled trials.
    pub(crate) fn perturb_with(&self, nominal: &CntTftModel, g_vth: f64, g_kp: f64) -> CntTftModel {
        let mut m = nominal.clone();
        m.vth_abs += self.vth_sigma * g_vth;
        m.kp *= (1.0 + self.kp_rel_sigma * g_kp).max(0.05);
        m
    }
}

/// Statistics of one Monte-Carlo metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloStats {
    /// Trials run.
    pub trials: usize,
    /// Trials meeting the pass condition.
    pub passes: usize,
    /// Metric samples, one per trial.
    pub values: Vec<f64>,
}

impl MonteCarloStats {
    /// Pass fraction (parametric yield).
    pub fn yield_fraction(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.passes as f64 / self.trials as f64
        }
    }

    /// Sample mean of the metric.
    pub fn mean(&self) -> f64 {
        flexcs_linalg::vecops::mean(&self.values)
    }

    /// Sample standard deviation of the metric. Zero or one sample has
    /// no spread: the n ≤ 1 case returns exactly `0.0` rather than
    /// relying on downstream conventions.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() <= 1 {
            return 0.0;
        }
        flexcs_linalg::vecops::std_dev(&self.values)
    }

    /// Linear-interpolated percentile of the metric, `p` in `[0, 100]`
    /// (values outside are clamped). Returns NaN with no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }

    /// Median of the metric.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile of the metric.
    pub fn p95(&self) -> f64 {
        self.percentile(95.0)
    }

    /// Smallest metric value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest metric value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Builds a pseudo-CMOS inverter whose four devices carry independent
/// variation draws, returning `(circuit, output)`.
fn varied_inverter(
    variation: &VariationModel,
    vdd: f64,
    trial: &mut McTrial<'_>,
    vin: f64,
) -> Result<(Circuit, NodeId)> {
    let mut ckt = Circuit::new();
    let lib = CellLibrary::with_rails(&mut ckt, vdd, -vdd);
    let input = ckt.node("in");
    ckt.add_vsource(input, NodeId::GROUND, Waveform::Dc(vin));
    // The cell library clones its model per device; emulate per-device
    // variation by building the inverter manually with perturbed models.
    let nominal = lib.model.clone();
    let sizing = lib.sizing.clone();
    let v1 = ckt.fresh_node("v1");
    ckt.add_tft_with_model(
        input,
        v1,
        lib.vdd,
        sizing.drive,
        trial.perturb(variation, &nominal),
    )?;
    ckt.add_tft_with_model(
        lib.vss,
        lib.vss,
        v1,
        sizing.load,
        trial.perturb(variation, &nominal),
    )?;
    let out = ckt.fresh_node("out");
    ckt.add_tft_with_model(
        input,
        out,
        lib.vdd,
        sizing.out_drive,
        trial.perturb(variation, &nominal),
    )?;
    ckt.add_tft_with_model(
        v1,
        NodeId::GROUND,
        out,
        sizing.out_load,
        trial.perturb(variation, &nominal),
    )?;
    Ok((ckt, out))
}

/// Monte-Carlo yield of the pseudo-CMOS inverter's static logic levels:
/// a trial passes when `V_out(0) > vdd − margin` and
/// `V_out(vdd) < margin`. The metric recorded per trial is the *static
/// noise margin proxy* `min(V_out(0) − vdd/2, vdd/2 − V_out(vdd))`.
///
/// Trials run on `engine` (its fan-out, solver policy, shared symbolic
/// analysis and warm starts); the report carries the statistics and
/// the engine's solver counts.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn inverter_yield_mc(
    engine: &McEngine,
    variation: &VariationModel,
    vdd: f64,
    margin: f64,
    trials: usize,
    seed: u64,
) -> Result<McReport> {
    engine.run(trials, seed, |trial| {
        let (ckt_low, out_low) = varied_inverter(variation, vdd, trial, 0.0)?;
        let v_high = trial.dc(&ckt_low)?.voltage(out_low);
        let (ckt_high, out_high) = varied_inverter(variation, vdd, trial, vdd)?;
        let v_low = trial.dc(&ckt_high)?.voltage(out_high);
        // Note: the two ends use independent device draws; static yield
        // is conservative under that pessimism.
        Ok(McSample {
            value: (v_high - vdd / 2.0).min(vdd / 2.0 - v_low),
            pass: v_high > vdd - margin && v_low < margin,
        })
    })
}

/// Monte-Carlo spread of the self-biased amplifier's mid-band gain (dB
/// at `freq`); a trial passes when the gain exceeds `min_gain_db`.
///
/// Device variation is applied to the library model per trial (all nine
/// TFTs share the draw — the paper's amplifier is small enough that
/// systematic variation dominates). Trials fan out on `engine`; the AC
/// sweep linearizes about an auto-policy DC operating point.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn amplifier_gain_spread_mc(
    engine: &McEngine,
    variation: &VariationModel,
    freq: f64,
    min_gain_db: f64,
    trials: usize,
    seed: u64,
) -> Result<McReport> {
    engine.run(trials, seed ^ 0xa321, |trial| {
        let mut ckt = Circuit::new();
        let mut lib = CellLibrary::with_rails(&mut ckt, 3.0, -3.0);
        lib.model = trial.perturb(variation, &CntTftModel::default());
        let amp = build_self_biased_amplifier(&mut ckt, &lib, "vin", &AmplifierConfig::default())?;
        let vin = ckt.find_node("vin")?;
        let src = ckt.add_vsource(vin, NodeId::GROUND, Waveform::Dc(0.0));
        let gain_db = ckt.ac_sweep(src, &[freq])?.gain_db(amp.output)[0];
        Ok(McSample {
            value: gain_db,
            pass: gain_db >= min_gain_db,
        })
    })
}

/// Monte-Carlo spread of the five-stage ring-oscillator frequency — the
/// paper's own process monitor ("44 five-stage ring oscillators"),
/// reproduced statistically. Records frequency samples in hertz; a
/// trial passes when the ring oscillates at all. Trials fan out on
/// `engine`; the ring transient itself uses the auto-policy solver.
///
/// # Errors
///
/// Propagates simulation failures unrelated to oscillation (a ring that
/// fails to oscillate counts as a failed trial, not an error).
pub fn ring_frequency_spread_mc(
    engine: &McEngine,
    variation: &VariationModel,
    trials: usize,
    seed: u64,
) -> Result<McReport> {
    engine.run(trials, seed ^ 0x0c111, |trial| {
        let model = trial.perturb(variation, &CntTftModel::default());
        match crate::ring_oscillator::ring_oscillator_frequency_with_model(
            5, 3.0, 4e-3, 4e-6, model,
        ) {
            Ok(m) => Ok(McSample {
                value: m.frequency,
                pass: true,
            }),
            Err(_) => Ok(McSample {
                value: 0.0,
                pass: false,
            }),
        }
    })
}

/// Monte-Carlo yield of the one-hot column-scan chain under device
/// variation: each trial builds a `cols`-stage scan register whose
/// library model carries a fresh variation draw, runs the full scan
/// transient (under `engine`'s solver policy, so large chains can use
/// the sparse engine), and passes when every scan cycle has its own
/// select — and only it — above `VDD/2` at the sample point. The metric is the
/// worst-cycle one-hot margin, `min(v_sel − VDD/2, VDD/2 − max
/// v_other)` in volts.
///
/// The trial starts from the power-up state rather than a DC solve: the
/// flip-flops' cross-coupled latches are bistable, so their DC problem
/// has multiple solutions and Newton's basin boundaries are chaotically
/// sensitive to the variation draw. As in real scan-chain bring-up, the
/// register is instead *flushed* — clocked with zeros for `cols` cycles
/// to shift out the power-up garbage — before the token is injected, so
/// the one-hot march is judged on cycles `cols..2·cols`.
///
/// The scan transient runs through the engine's pooled workspaces, so
/// with symbolic sharing only the first trial on each workspace pays the
/// sparse pattern analysis.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn scan_chain_yield_mc(
    engine: &McEngine,
    variation: &VariationModel,
    cols: usize,
    trials: usize,
    seed: u64,
) -> Result<McReport> {
    let vdd = 3.0;
    let f_scan = 10e3;
    let period = 1.0 / f_scan;
    let flush = cols as f64;
    engine.run(trials, seed ^ 0x5ca2, |trial| {
        let mut ckt = Circuit::new();
        let mut lib = CellLibrary::with_rails(&mut ckt, vdd, -vdd);
        lib.model = trial.perturb(variation, &CntTftModel::default());
        let clk = ckt.node("clk");
        ckt.add_vsource(clk, NodeId::GROUND, Waveform::clock(0.0, vdd, f_scan));
        // Token high for the one period straddling the flush-complete
        // clock edge at t = cols·T, zero before (flush) and after.
        let token = ckt.node("token");
        ckt.add_vsource(
            token,
            NodeId::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: vdd,
                delay: (flush - 0.9) * period,
                rise: period * 0.02,
                fall: period * 0.02,
                width: period,
                period: 0.0,
            },
        );
        let sr = crate::shift_register::build_shift_register(&mut ckt, &lib, cols, token, clk)?;
        let mut tconfig = TransientConfig::new(2.0 * flush * period, period / 50.0);
        tconfig.start_from_dc = false;
        let result = trial.transient(&ckt, &tconfig)?;
        let mut margin = f64::INFINITY;
        for cycle in 0..cols {
            // Stage `c` carries the token during cycle `cols + c`.
            let t = (flush + cycle as f64 + 0.9) * period;
            let v_sel = result.trace(sr.outputs[cycle]).value_at(t).unwrap_or(0.0);
            let v_other = sr
                .outputs
                .iter()
                .enumerate()
                .filter(|(s, _)| *s != cycle)
                .map(|(_, &q)| result.trace(q).value_at(t).unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            margin = margin.min((v_sel - vdd / 2.0).min(vdd / 2.0 - v_other));
        }
        Ok(McSample {
            value: margin,
            pass: margin > 0.0,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_variation_gives_full_yield() {
        let none = VariationModel {
            vth_sigma: 0.0,
            kp_rel_sigma: 0.0,
        };
        let stats = inverter_yield_mc(&McEngine::default(), &none, 3.0, 0.6, 5, 1)
            .unwrap()
            .stats;
        assert_eq!(stats.yield_fraction(), 1.0);
        // All trials identical.
        assert!(stats.std_dev() < 1e-9);
    }

    #[test]
    fn nominal_variation_keeps_high_yield() {
        let nominal = VariationModel::default();
        let stats = inverter_yield_mc(&McEngine::default(), &nominal, 3.0, 0.6, 25, 2)
            .unwrap()
            .stats;
        assert!(
            stats.yield_fraction() >= 0.9,
            "inverter yield {} under nominal variation",
            stats.yield_fraction()
        );
    }

    #[test]
    fn extreme_variation_degrades_yield_and_widens_spread() {
        let nominal = VariationModel::default();
        let mild = inverter_yield_mc(&McEngine::default(), &nominal, 3.0, 0.6, 20, 3)
            .unwrap()
            .stats;
        let wild = VariationModel {
            vth_sigma: 0.8,
            kp_rel_sigma: 0.5,
        };
        let bad = inverter_yield_mc(&McEngine::default(), &wild, 3.0, 0.6, 20, 3)
            .unwrap()
            .stats;
        assert!(bad.yield_fraction() <= mild.yield_fraction());
        assert!(bad.std_dev() > mild.std_dev());
    }

    #[test]
    fn amplifier_gain_spread_is_reported() {
        let nominal = VariationModel::default();
        let stats = amplifier_gain_spread_mc(&McEngine::default(), &nominal, 30e3, 20.0, 10, 4)
            .unwrap()
            .stats;
        assert_eq!(stats.trials, 10);
        assert!(stats.mean() > 20.0, "mean gain {}", stats.mean());
        assert!(stats.min() <= stats.mean() && stats.mean() <= stats.max());
        assert!(stats.yield_fraction() > 0.5);
    }

    #[test]
    fn ring_monitor_spread() {
        let nominal = VariationModel::default();
        let stats = ring_frequency_spread_mc(&McEngine::default(), &nominal, 6, 5)
            .unwrap()
            .stats;
        assert_eq!(stats.trials, 6);
        assert!(
            stats.yield_fraction() > 0.8,
            "ring yield {}",
            stats.yield_fraction()
        );
        // Frequencies cluster in the kHz monitor band and actually vary.
        assert!(
            stats.mean() > 500.0 && stats.mean() < 20_000.0,
            "mean {}",
            stats.mean()
        );
        assert!(stats.std_dev() > 0.0);
    }

    #[test]
    fn scan_chain_survives_nominal_variation() {
        let nominal = VariationModel::default();
        let stats = scan_chain_yield_mc(&McEngine::default(), &nominal, 2, 2, 11)
            .unwrap()
            .stats;
        assert_eq!(stats.trials, 2);
        assert_eq!(stats.yield_fraction(), 1.0, "margins {:?}", stats.values);
        assert!(stats.min() > 0.5, "worst margin {}", stats.min());
    }

    #[test]
    fn stats_helpers() {
        let s = MonteCarloStats {
            trials: 4,
            passes: 3,
            values: vec![1.0, 2.0, 3.0, 4.0],
        };
        assert_eq!(s.yield_fraction(), 0.75);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        let empty = MonteCarloStats {
            trials: 0,
            passes: 0,
            values: vec![],
        };
        assert_eq!(empty.yield_fraction(), 0.0);
    }

    #[test]
    fn percentiles_interpolate_sorted_values() {
        let s = MonteCarloStats {
            trials: 4,
            passes: 4,
            // Unsorted on purpose: percentile sorts a copy.
            values: vec![4.0, 1.0, 3.0, 2.0],
        };
        assert_eq!(s.p50(), 2.5);
        assert!((s.p95() - 3.85).abs() < 1e-12, "p95 = {}", s.p95());
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 4.0);
        let one = MonteCarloStats {
            trials: 1,
            passes: 1,
            values: vec![7.0],
        };
        assert_eq!(one.p50(), 7.0);
        assert_eq!(one.p95(), 7.0);
        // n <= 1: standard deviation is defined as zero, not NaN.
        assert_eq!(one.std_dev(), 0.0);
        let empty = MonteCarloStats {
            trials: 0,
            passes: 0,
            values: vec![],
        };
        assert_eq!(empty.std_dev(), 0.0);
        assert!(empty.p50().is_nan());
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        // Same seed => bit-identical stats (values, passes, everything);
        // different seed => different draw stream.
        let run = |seed| {
            inverter_yield_mc(
                &McEngine::default(),
                &VariationModel::default(),
                3.0,
                0.6,
                6,
                seed,
            )
            .unwrap()
            .stats
        };
        let a = run(77);
        assert_eq!(a, run(77));
        let c = run(78);
        assert_ne!(a.values, c.values);
    }
}
