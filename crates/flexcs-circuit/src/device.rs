//! Compact model for p-type carbon-nanotube thin-film transistors.
//!
//! The paper's encoder is built from CNT TFTs whose behaviour the authors
//! captured in a validated Verilog-A compact model (ref. \[11\], "Compact
//! Modeling of Thin Film Transistors for Flexible Hybrid IoT Design").
//! This module reimplements the same class of model: a single smooth
//! charge-based I–V equation (EKV-style softplus interpolation) covering
//! subthreshold, triode and saturation, plus channel-length modulation
//! and lumped gate capacitances. Smoothness everywhere (C¹ in all
//! terminal voltages) is what lets the MNA Newton iteration converge
//! reliably.
//!
//! Only p-type devices are modeled: air-stable n-type CNT TFTs do not
//! exist (paper Sec. 3.2), which is exactly why the pseudo-CMOS cells in
//! [`crate::cells`] use mono-type transistors.

/// Parameters of the p-type CNT TFT compact model.
///
/// Defaults are fit to the magnitudes reported for the paper's process
/// (ref. \[9\]): |Vth| ≈ 0.8 V, process transconductance ≈ 0.5 µA/V² per
/// W/L square, subthreshold slope ≈ 280 mV/dec, λ ≈ 0.05 V⁻¹.
#[derive(Debug, Clone, PartialEq)]
pub struct CntTftModel {
    /// Process transconductance `k_p = µ·C_ox` in A/V² (per unit W/L).
    pub kp: f64,
    /// Threshold-voltage magnitude in volts (enhancement p-type).
    pub vth_abs: f64,
    /// Smoothness / subthreshold parameter in volts
    /// (slope ≈ `ss·ln 10` V/dec).
    pub ss: f64,
    /// Channel-length modulation in 1/V.
    pub lambda: f64,
    /// Gate–source capacitance per unit W/L, farads.
    pub cgs_per_wl: f64,
    /// Gate–drain capacitance per unit W/L, farads.
    pub cgd_per_wl: f64,
}

impl Default for CntTftModel {
    fn default() -> Self {
        CntTftModel {
            kp: 0.5e-6,
            vth_abs: 0.8,
            ss: 0.12,
            lambda: 0.05,
            cgs_per_wl: 5e-15,
            cgd_per_wl: 5e-15,
        }
    }
}

/// Linearized operating point of one TFT: the source→drain current and
/// its partial derivatives with respect to the terminal voltages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TftOperatingPoint {
    /// Channel current flowing source → drain, amps (positive in normal
    /// p-type operation where `V_s > V_d`).
    pub i_sd: f64,
    /// `∂i_sd/∂V_g` (negative transconductance for p-type).
    pub di_dvg: f64,
    /// `∂i_sd/∂V_d`.
    pub di_dvd: f64,
    /// `∂i_sd/∂V_s`.
    pub di_dvs: f64,
}

/// Softplus charge: `q(v) = ss·ln(1 + e^(v/ss))`, with linear/zero
/// asymptotes handled without overflow.
fn softplus(v: f64, ss: f64) -> f64 {
    let x = v / ss;
    if x > 30.0 {
        v
    } else if x < -30.0 {
        0.0
    } else {
        ss * x.exp().ln_1p()
    }
}

/// Logistic derivative of [`softplus`].
fn sigmoid(v: f64, ss: f64) -> f64 {
    let x = v / ss;
    if x > 30.0 {
        1.0
    } else if x < -30.0 {
        0.0
    } else {
        1.0 / (1.0 + (-x).exp())
    }
}

/// Smooth |v| with curvature near zero (keeps CLM C¹).
fn softabs(v: f64) -> f64 {
    (v * v + 1e-6).sqrt()
}

impl CntTftModel {
    /// Evaluates the model at terminal voltages `(v_g, v_d, v_s)` for a
    /// device of the given `w_over_l`.
    ///
    /// The charge-based current is
    /// `i_sd = (k_p·W/L / 2)·(q(V_sg − |Vth|)² − q(V_dg − |Vth|)²)·(1 + λ·|V_sd|)`
    /// which reduces to the familiar square-law in saturation and the
    /// triode expression for small `V_sd`, while remaining smooth through
    /// subthreshold.
    ///
    /// # Examples
    ///
    /// ```
    /// use flexcs_circuit::CntTftModel;
    ///
    /// let model = CntTftModel::default();
    /// // Strongly on: gate 3 V below source.
    /// let on = model.eval(0.0, 0.5, 3.0, 10.0);
    /// // Off: gate at the source potential.
    /// let off = model.eval(3.0, 0.5, 3.0, 10.0);
    /// assert!(on.i_sd > 1e3 * off.i_sd.abs());
    /// ```
    pub fn eval(&self, v_g: f64, v_d: f64, v_s: f64, w_over_l: f64) -> TftOperatingPoint {
        let beta = self.kp * w_over_l;
        let ov_s = (v_s - v_g) - self.vth_abs;
        let ov_d = (v_d - v_g) - self.vth_abs;
        let q_s = softplus(ov_s, self.ss);
        let q_d = softplus(ov_d, self.ss);
        let sig_s = sigmoid(ov_s, self.ss);
        let sig_d = sigmoid(ov_d, self.ss);
        let i0 = 0.5 * beta * (q_s * q_s - q_d * q_d);
        let vsd = v_s - v_d;
        let sa = softabs(vsd);
        let clm = 1.0 + self.lambda * sa;
        let dclm_dvsd = self.lambda * vsd / sa;

        let i_sd = i0 * clm;
        let di0_dvs = beta * q_s * sig_s;
        let di0_dvd = -beta * q_d * sig_d;
        let di0_dvg = -(di0_dvs + di0_dvd);
        TftOperatingPoint {
            i_sd,
            di_dvg: di0_dvg * clm,
            di_dvd: di0_dvd * clm - i0 * dclm_dvsd,
            di_dvs: di0_dvs * clm + i0 * dclm_dvsd,
        }
    }

    /// Gate–source capacitance for a device of the given `w_over_l`.
    pub fn cgs(&self, w_over_l: f64) -> f64 {
        self.cgs_per_wl * w_over_l
    }

    /// Gate–drain capacitance for a device of the given `w_over_l`.
    pub fn cgd(&self, w_over_l: f64) -> f64 {
        self.cgd_per_wl * w_over_l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WL: f64 = 10.0;

    fn model() -> CntTftModel {
        CntTftModel::default()
    }

    #[test]
    fn off_device_leaks_negligibly() {
        let m = model();
        // Gate at source: Vsg = 0, deep subthreshold.
        let op = m.eval(3.0, 0.0, 3.0, WL);
        assert!(op.i_sd.abs() < 1e-9, "off current {}", op.i_sd);
    }

    #[test]
    fn saturation_matches_square_law() {
        let m = model();
        // Vs = 3, Vg = 0 → Vsg = 3, overdrive 2.2; drain far below.
        let op = m.eval(0.0, -3.0, 3.0, WL);
        // Square law `(k_p·W/L / 2)·(V_sg − |Vth|)²` with channel-length
        // modulation.
        let ov = 3.0 - m.vth_abs;
        let expect = 0.5 * m.kp * WL * ov * ov * (1.0 + m.lambda * 6.0);
        assert!(
            (op.i_sd - expect).abs() / expect < 0.05,
            "sat current {} vs {}",
            op.i_sd,
            expect
        );
    }

    #[test]
    fn triode_matches_classic_expression() {
        let m = model();
        // Small Vsd = 0.1 with strong overdrive.
        let (vg, vd, vs) = (0.0, 2.9, 3.0);
        let op = m.eval(vg, vd, vs, WL);
        let ov = 3.0 - m.vth_abs;
        let vsd = vs - vd;
        let classic = m.kp * WL * (ov - vsd / 2.0) * vsd * (1.0 + m.lambda * vsd);
        assert!(
            (op.i_sd - classic).abs() / classic < 0.05,
            "triode {} vs {}",
            op.i_sd,
            classic
        );
    }

    #[test]
    fn current_reverses_with_swapped_terminals() {
        let m = model();
        let fwd = m.eval(0.0, 1.0, 2.0, WL);
        let rev = m.eval(0.0, 2.0, 1.0, WL);
        assert!((fwd.i_sd + rev.i_sd).abs() < 1e-9 * fwd.i_sd.abs().max(1e-12));
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = model();
        let (vg, vd, vs) = (0.3, 0.7, 2.5);
        let h = 1e-6;
        let op = m.eval(vg, vd, vs, WL);
        let dg = (m.eval(vg + h, vd, vs, WL).i_sd - m.eval(vg - h, vd, vs, WL).i_sd) / (2.0 * h);
        let dd = (m.eval(vg, vd + h, vs, WL).i_sd - m.eval(vg, vd - h, vs, WL).i_sd) / (2.0 * h);
        let ds = (m.eval(vg, vd, vs + h, WL).i_sd - m.eval(vg, vd, vs - h, WL).i_sd) / (2.0 * h);
        let scale = op.i_sd.abs().max(1e-9);
        assert!(
            (op.di_dvg - dg).abs() / scale < 1e-3,
            "gm {} vs {}",
            op.di_dvg,
            dg
        );
        assert!(
            (op.di_dvd - dd).abs() / scale < 1e-3,
            "gd {} vs {}",
            op.di_dvd,
            dd
        );
        assert!(
            (op.di_dvs - ds).abs() / scale < 1e-3,
            "gs {} vs {}",
            op.di_dvs,
            ds
        );
    }

    #[test]
    fn subthreshold_slope_is_exponential() {
        let m = model();
        // Sweep gate in subthreshold; current should scale ~ e^(ΔV/ss)
        // per ss volts (factor e each ss for the square regime ~ e^2).
        let i1 = m.eval(2.6, 0.0, 3.0, WL).i_sd; // Vsg=0.4
        let i2 = m.eval(2.48, 0.0, 3.0, WL).i_sd; // Vsg=0.52
        let ratio = i2 / i1;
        assert!(ratio > 2.0 && ratio < 12.0, "subthreshold ratio {ratio}");
    }

    #[test]
    fn current_scales_with_wl() {
        let m = model();
        let a = m.eval(0.0, 0.0, 3.0, 5.0).i_sd;
        let b = m.eval(0.0, 0.0, 3.0, 10.0).i_sd;
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    fn capacitances_scale_linearly() {
        let m = model();
        assert!((m.cgs(10.0) - 2.0 * m.cgs(5.0)).abs() < 1e-24);
        assert!((m.cgd(6.0) - 6.0 * m.cgd_per_wl).abs() < 1e-24);
    }

    #[test]
    fn model_is_smooth_through_vth() {
        // No kinks: second difference stays bounded across the threshold.
        let m = model();
        let mut prev = 0.0;
        let mut prev_d = 0.0;
        for k in 0..200 {
            let vg = 3.0 - k as f64 * 0.02; // sweep Vsg 0..4
            let i = m.eval(vg, 0.0, 3.0, WL).i_sd;
            if k >= 2 {
                let d = i - prev;
                let dd = d - prev_d;
                assert!(dd.abs() < 2e-6, "kink at vg={vg}: {dd}");
            }
            prev_d = i - prev;
            prev = i;
        }
    }
}
