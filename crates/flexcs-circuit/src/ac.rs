//! Small-signal AC analysis.
//!
//! Linearizes every nonlinear device at the DC operating point and
//! solves `(G + jωC)·x = b` per frequency, with a unit AC excitation on
//! one chosen voltage source — how the amplifier's 28 dB @ 30 kHz gain
//! (paper Fig. 5e) is measured.

use crate::error::{CircuitError, Result};
use crate::mna::{Assembler, OperatingPoint, GMIN};
use crate::netlist::{Circuit, Element, ElementId, NodeId};
use crate::solver::SolverPolicy;
use crate::sparse::{CsrMatrix, SparseLu, SymbolicLu, Triplets};
use flexcs_linalg::{Complex, ComplexMatrix};

/// Result of an AC sweep: node phasors per frequency point.
#[derive(Debug, Clone, PartialEq)]
pub struct AcSweep {
    freqs: Vec<f64>,
    /// `phasors[k][node]` is the complex node voltage at `freqs[k]`.
    phasors: Vec<Vec<Complex>>,
}

impl AcSweep {
    /// The swept frequencies, hertz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Phasor of `node` at frequency index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn phasor(&self, node: NodeId, k: usize) -> Complex {
        self.phasors[k][node.index()]
    }

    /// Magnitude response of a node across the sweep.
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        self.phasors.iter().map(|p| p[node.index()].abs()).collect()
    }

    /// Gain in dB of a node across the sweep (relative to the unit
    /// excitation).
    pub fn gain_db(&self, node: NodeId) -> Vec<f64> {
        self.phasors
            .iter()
            .map(|p| p[node.index()].abs_db())
            .collect()
    }

    /// Phase (radians) of a node across the sweep.
    pub fn phase(&self, node: NodeId) -> Vec<f64> {
        self.phasors.iter().map(|p| p[node.index()].arg()).collect()
    }
}

impl Circuit {
    /// Runs an AC sweep with a unit small-signal excitation on the
    /// voltage source `excite` (all other independent sources are
    /// AC-grounded), at the given frequencies.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidElement`] when `excite` is not a
    /// voltage source, [`CircuitError::InvalidParameter`] for an empty or
    /// non-positive frequency list, and propagates DC/solve failures.
    pub fn ac_sweep(&self, excite: ElementId, freqs: &[f64]) -> Result<AcSweep> {
        self.ac_sweep_with(excite, freqs, SolverPolicy::Auto)
    }

    /// Like [`Circuit::ac_sweep`] with an explicit linear-solver policy
    /// for both the DC operating point and the per-frequency solves.
    ///
    /// # Errors
    ///
    /// See [`Circuit::ac_sweep`].
    pub fn ac_sweep_with(
        &self,
        excite: ElementId,
        freqs: &[f64],
        policy: SolverPolicy,
    ) -> Result<AcSweep> {
        if freqs.is_empty() || freqs.iter().any(|f| !(*f > 0.0)) {
            return Err(CircuitError::InvalidParameter(
                "frequencies must be positive and non-empty".to_string(),
            ));
        }
        if !matches!(self.elements().get(excite.0), Some(Element::VSource { .. })) {
            return Err(CircuitError::InvalidElement(format!(
                "element {} is not a voltage source",
                excite.0
            )));
        }
        let op = self.dc_operating_point_with(policy)?;
        self.ac_sweep_at_with(excite, freqs, &op, policy)
    }

    /// Like [`Circuit::ac_sweep_with`] but reuses a pre-computed
    /// operating point. The sparse path converts `(G + jωC)·x = b` into
    /// its real-equivalent `2·dim` system `[G, −ωC; ωC, G]`; the sparsity
    /// pattern is frequency-independent, so the symbolic factorization
    /// is computed once and only values are refilled per frequency.
    ///
    /// # Errors
    ///
    /// See [`Circuit::ac_sweep`].
    pub fn ac_sweep_at_with(
        &self,
        excite: ElementId,
        freqs: &[f64],
        op: &OperatingPoint,
        policy: SolverPolicy,
    ) -> Result<AcSweep> {
        let asm = Assembler::new(self);
        let dim = asm.dim();
        let n_free = asm.n_free;
        let volt = |n: NodeId| op.voltage(n);
        let var = |n: NodeId| -> Option<usize> {
            if n.index() == 0 {
                None
            } else {
                Some(n.index() - 1)
            }
        };

        // Frequency-independent conductance entries G (coordinate list,
        // duplicates sum) and capacitance list.
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        let mut caps: Vec<(Option<usize>, Option<usize>, f64)> = Vec::new();
        let add_g =
            |entries: &mut Vec<(usize, usize, f64)>, i: Option<usize>, j: Option<usize>, v: f64| {
                if let (Some(i), Some(j)) = (i, j) {
                    entries.push((i, j, v));
                }
            };
        for i in 0..n_free {
            entries.push((i, i, GMIN));
        }
        let mut vsrc_branch = 0usize;
        let mut excite_branch = None;
        for (idx, element) in self.elements().iter().enumerate() {
            match element {
                Element::Resistor { a, b, ohms } => {
                    let gg = 1.0 / ohms;
                    let (ia, ib) = (var(*a), var(*b));
                    add_g(&mut entries, ia, ia, gg);
                    add_g(&mut entries, ib, ib, gg);
                    add_g(&mut entries, ia, ib, -gg);
                    add_g(&mut entries, ib, ia, -gg);
                }
                Element::Capacitor { a, b, farads } => {
                    caps.push((var(*a), var(*b), *farads));
                }
                Element::VSource { p, n, .. } => {
                    let branch = n_free + vsrc_branch;
                    if idx == excite.0 {
                        excite_branch = Some(branch);
                    }
                    vsrc_branch += 1;
                    let (ip, in_) = (var(*p), var(*n));
                    if let Some(ip) = ip {
                        entries.push((ip, branch, 1.0));
                        entries.push((branch, ip, 1.0));
                    }
                    if let Some(in_) = in_ {
                        entries.push((in_, branch, -1.0));
                        entries.push((branch, in_, -1.0));
                    }
                }
                Element::ISource { .. } => {
                    // AC-open (no small-signal contribution).
                }
                Element::Tft {
                    g: gate,
                    d,
                    s,
                    w_over_l,
                    model,
                } => {
                    let pt = model.eval(volt(*gate), volt(*d), volt(*s), *w_over_l);
                    let (ig, id, is) = (var(*gate), var(*d), var(*s));
                    // Channel current i_sd(vg, vd, vs): KCL rows s (+) and
                    // d (−), columns per derivative.
                    for (row, sign) in [(is, 1.0), (id, -1.0)] {
                        add_g(&mut entries, row, ig, sign * pt.di_dvg);
                        add_g(&mut entries, row, id, sign * pt.di_dvd);
                        add_g(&mut entries, row, is, sign * pt.di_dvs);
                    }
                    caps.push((ig, is, model.cgs(*w_over_l)));
                    caps.push((ig, id, model.cgd(*w_over_l)));
                }
            }
        }
        let excite_branch = excite_branch
            .ok_or_else(|| CircuitError::InvalidElement("excited source not found".to_string()))?;

        if policy.use_sparse(dim) {
            let phasors = ac_sparse_phasors(
                dim,
                n_free,
                self.node_count(),
                &entries,
                &caps,
                excite_branch,
                freqs,
            )?;
            return Ok(AcSweep {
                freqs: freqs.to_vec(),
                phasors,
            });
        }

        // Dense path (historical behavior): scatter the coordinate list
        // into a full matrix per frequency.
        let mut g = vec![0.0; dim * dim];
        for &(i, j, v) in &entries {
            g[i * dim + j] += v;
        }
        let mut phasors = Vec::with_capacity(freqs.len());
        for &f in freqs {
            let omega = std::f64::consts::TAU * f;
            let mut y = ComplexMatrix::zeros(dim);
            for i in 0..dim {
                for j in 0..dim {
                    let v = g[i * dim + j];
                    if v != 0.0 {
                        y.set(i, j, Complex::from_real(v));
                    }
                }
            }
            for &(a, b, c) in &caps {
                let jb = Complex::new(0.0, omega * c);
                if let Some(a) = a {
                    y.add_at(a, a, jb);
                }
                if let Some(b) = b {
                    y.add_at(b, b, jb);
                }
                if let (Some(a), Some(b)) = (a, b) {
                    y.add_at(a, b, -jb);
                    y.add_at(b, a, -jb);
                }
            }
            let mut rhs = vec![Complex::ZERO; dim];
            rhs[excite_branch] = Complex::ONE;
            let x = y.solve(&rhs)?;
            // Repack into full node list (ground = 0).
            let mut p = vec![Complex::ZERO; self.node_count()];
            p[1..=n_free].copy_from_slice(&x[..n_free]);
            phasors.push(p);
        }
        Ok(AcSweep {
            freqs: freqs.to_vec(),
            phasors,
        })
    }
}

/// Stamps the real-equivalent system of `(G + jB)·(xr + j·xi) = b` at
/// one frequency: block form `[G, −B; B, G]` over `2·dim` unknowns,
/// where `B = ωC`. Entry *order* is deterministic and independent of
/// `omega`, so the same call builds the pattern (into triplets) and the
/// per-frequency values (into a flat vector).
fn fill_real_system(
    entries: &[(usize, usize, f64)],
    caps: &[(Option<usize>, Option<usize>, f64)],
    dim: usize,
    omega: f64,
    add: &mut dyn FnMut(usize, usize, f64),
) {
    for &(i, j, v) in entries {
        add(i, j, v);
        add(i + dim, j + dim, v);
    }
    for &(a, b, c) in caps {
        // +jωc on the two diagonals, −jωc on the couplings; a complex
        // entry `jb` at (r, c) lands as −b at (r, c+dim) and +b at
        // (r+dim, c).
        let bc = omega * c;
        if let Some(a) = a {
            add(a, a + dim, -bc);
            add(a + dim, a, bc);
        }
        if let Some(b) = b {
            add(b, b + dim, -bc);
            add(b + dim, b, bc);
        }
        if let (Some(a), Some(b)) = (a, b) {
            add(a, b + dim, bc);
            add(a + dim, b, -bc);
            add(b, a + dim, bc);
            add(b + dim, a, -bc);
        }
    }
}

/// Sparse AC sweep over the real-equivalent system: symbolic analysis
/// once at the first frequency, value-refill + numeric refactor per
/// subsequent frequency.
#[allow(clippy::too_many_arguments)]
fn ac_sparse_phasors(
    dim: usize,
    n_free: usize,
    node_count: usize,
    entries: &[(usize, usize, f64)],
    caps: &[(Option<usize>, Option<usize>, f64)],
    excite_branch: usize,
    freqs: &[f64],
) -> Result<Vec<Vec<Complex>>> {
    let mut tri = Triplets::new(2 * dim);
    fill_real_system(
        entries,
        caps,
        dim,
        std::f64::consts::TAU * freqs[0],
        &mut |i, j, v| tri.push(i, j, v),
    );
    let (mut csr, slots) = CsrMatrix::from_triplets(&tri);
    let sym = SymbolicLu::analyze(&csr)?;
    let mut lu = SparseLu::factor(&sym, &csr)?;
    let mut tvals: Vec<f64> = Vec::with_capacity(tri.len());
    let mut rhs = vec![0.0; 2 * dim];
    rhs[excite_branch] = 1.0;
    let mut phasors = Vec::with_capacity(freqs.len());
    for (k, &f) in freqs.iter().enumerate() {
        if k > 0 {
            tvals.clear();
            fill_real_system(
                entries,
                caps,
                dim,
                std::f64::consts::TAU * f,
                &mut |_, _, v| tvals.push(v),
            );
            csr.set_values(&slots, &tvals);
            lu.refactor(&sym, &csr)?;
        }
        let x = lu.solve_refined(&sym, &csr, &rhs)?;
        let mut p = vec![Complex::ZERO; node_count];
        for i in 0..n_free {
            p[i + 1] = Complex::new(x[i], x[i + dim]);
        }
        phasors.push(p);
    }
    Ok(phasors)
}

/// Logarithmically spaced frequency points from `f_start` to `f_stop`
/// (inclusive), `points_per_decade` per decade.
pub fn log_frequencies(f_start: f64, f_stop: f64, points_per_decade: usize) -> Vec<f64> {
    if !(f_start > 0.0) || !(f_stop > f_start) || points_per_decade == 0 {
        return vec![];
    }
    let decades = (f_stop / f_start).log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..n)
        .map(|i| f_start * 10f64.powf(i as f64 * decades / (n - 1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn rc_lowpass_corner() {
        let mut c = Circuit::new();
        let src = c.node("in");
        let out = c.node("out");
        let v = c.add_vsource(src, NodeId::GROUND, Waveform::Dc(0.0));
        let r = 1000.0;
        let cap = 1e-6;
        c.add_resistor(src, out, r).unwrap();
        c.add_capacitor(out, NodeId::GROUND, cap).unwrap();
        let fc = 1.0 / (std::f64::consts::TAU * r * cap);
        let sweep = c.ac_sweep(v, &[fc / 100.0, fc, fc * 100.0]).unwrap();
        let mags = sweep.magnitude(out);
        assert!((mags[0] - 1.0).abs() < 1e-3, "passband {}", mags[0]);
        assert!(
            (mags[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3,
            "corner {}",
            mags[1]
        );
        assert!(mags[2] < 0.02, "stopband {}", mags[2]);
        // Phase at the corner is -45°.
        let ph = sweep.phase(out)[1];
        assert!((ph + std::f64::consts::FRAC_PI_4).abs() < 1e-2);
    }

    #[test]
    fn divider_is_flat() {
        let mut c = Circuit::new();
        let src = c.node("in");
        let out = c.node("out");
        let v = c.add_vsource(src, NodeId::GROUND, Waveform::Dc(0.0));
        c.add_resistor(src, out, 1000.0).unwrap();
        c.add_resistor(out, NodeId::GROUND, 1000.0).unwrap();
        let sweep = c.ac_sweep(v, &[10.0, 1e3, 1e6]).unwrap();
        for m in sweep.magnitude(out) {
            assert!((m - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn tft_common_source_has_gain() {
        // Simple p-type common-source stage with resistive load: small-
        // signal gain = gm * (Rload || ro) > 1 with proper bias.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let out = c.node("out");
        c.add_vsource(vdd, NodeId::GROUND, Waveform::Dc(3.0));
        // Bias for mid-rail output: Id ≈ 7.5 µA through 200 kΩ.
        let vg = c.add_vsource(vin, NodeId::GROUND, Waveform::Dc(1.43));
        c.add_tft(vin, out, vdd, 50.0).unwrap();
        c.add_resistor(out, NodeId::GROUND, 200_000.0).unwrap();
        let sweep = c.ac_sweep(vg, &[100.0]).unwrap();
        let gain = sweep.magnitude(out)[0];
        assert!(gain > 2.0, "gain {gain}");
    }

    #[test]
    fn sparse_matches_dense_on_rc_ladder() {
        // Same circuit, forced Dense vs forced Sparse: phasors must
        // agree to 1e-9 (the only difference is the linear solver).
        let mut c = Circuit::new();
        let src = c.node("in");
        let v = c.add_vsource(src, NodeId::GROUND, Waveform::Dc(0.0));
        let mut prev = src;
        let mut taps = Vec::new();
        for k in 0..12 {
            let n = c.node(&format!("n{k}"));
            c.add_resistor(prev, n, 500.0 + 100.0 * k as f64).unwrap();
            c.add_capacitor(n, NodeId::GROUND, 1e-7).unwrap();
            taps.push(n);
            prev = n;
        }
        let freqs = [10.0, 320.0, 1e3, 3.2e4, 1e6];
        let dense = c.ac_sweep_with(v, &freqs, SolverPolicy::Dense).unwrap();
        let sparse = c.ac_sweep_with(v, &freqs, SolverPolicy::Sparse).unwrap();
        for (k, &f) in freqs.iter().enumerate() {
            for &n in &taps {
                let d = dense.phasor(n, k);
                let s = sparse.phasor(n, k);
                assert!(
                    (d.re - s.re).abs() < 1e-9 && (d.im - s.im).abs() < 1e-9,
                    "mismatch at f={} node {:?}: dense {:?} sparse {:?}",
                    f,
                    n,
                    d,
                    s
                );
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let r = c.add_resistor(a, NodeId::GROUND, 100.0).unwrap();
        let v = c.add_vsource(a, NodeId::GROUND, Waveform::Dc(1.0));
        assert!(c.ac_sweep(r, &[100.0]).is_err());
        assert!(c.ac_sweep(v, &[]).is_err());
        assert!(c.ac_sweep(v, &[-5.0]).is_err());
    }

    #[test]
    fn log_frequencies_cover_range() {
        let f = log_frequencies(10.0, 1e5, 10);
        assert!((f[0] - 10.0).abs() < 1e-9);
        assert!((f.last().unwrap() - 1e5).abs() < 1.0);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
        assert!(log_frequencies(0.0, 10.0, 5).is_empty());
        assert!(log_frequencies(10.0, 1.0, 5).is_empty());
    }
}
