//! Fixed-step backward-Euler transient analysis.
//!
//! Backward Euler is A-stable, which lets the shift-register and
//! amplifier simulations take steps sized by signal dynamics (fractions
//! of a clock period) rather than by the fastest device time constant.

use crate::error::{CircuitError, Result};
use crate::mna::Assembler;
use crate::netlist::{Circuit, NodeId};
use crate::solver::{MnaSolver, SolverPolicy};
use crate::waveform::Trace;

/// Configuration of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientConfig {
    /// Stop time, seconds.
    pub t_stop: f64,
    /// Fixed step size, seconds.
    pub dt: f64,
    /// Start from the DC operating point at `t = 0` (otherwise start
    /// from all-zero state).
    pub start_from_dc: bool,
}

impl TransientConfig {
    /// Creates a configuration running to `t_stop` with step `dt`,
    /// starting from the DC operating point.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        TransientConfig {
            t_stop,
            dt,
            start_from_dc: true,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.t_stop > 0.0) || !(self.dt > 0.0) || self.dt > self.t_stop {
            return Err(CircuitError::InvalidParameter(format!(
                "need 0 < dt <= t_stop, got dt = {}, t_stop = {}",
                self.dt, self.t_stop
            )));
        }
        Ok(())
    }
}

/// Result of a transient run: node voltages over time.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `states[k]` holds all node voltages (ground included) at
    /// `times[k]`.
    states: Vec<Vec<f64>>,
}

impl TransientResult {
    /// The simulated time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no steps were stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Extracts the full trace of one node.
    pub fn trace(&self, node: NodeId) -> Trace {
        let mut tr = Trace::new();
        for (t, s) in self.times.iter().zip(&self.states) {
            tr.push(*t, s[node.index()]);
        }
        tr
    }
}

/// One BE step from `(t0, x0)` to `t1`, bisecting on Newton failure up
/// to 8 refinement levels. The solver backend is shared across steps —
/// sub-stepping changes only companion values (`h`, history), never the
/// sparsity pattern, so the sparse symbolic factorization survives.
fn step_recursive(
    asm: &Assembler,
    solver: &mut MnaSolver,
    x0: &[f64],
    t0: f64,
    t1: f64,
    depth: usize,
) -> Result<Vec<f64>> {
    match asm.newton(solver, x0.to_vec(), t1, Some((t1 - t0, x0)), 1.0) {
        Ok(x) => Ok(x),
        Err(e) => {
            if depth >= 8 {
                return Err(e);
            }
            let tm = 0.5 * (t0 + t1);
            let xm = step_recursive(asm, solver, x0, t0, tm, depth + 1)?;
            step_recursive(asm, solver, &xm, tm, t1, depth + 1)
        }
    }
}

impl Circuit {
    /// Runs a backward-Euler transient simulation.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] for a bad
    /// configuration, [`CircuitError::TransientStepFailed`] when Newton
    /// fails mid-run, and propagates DC-solve errors from the initial
    /// operating point.
    ///
    /// # Examples
    ///
    /// ```
    /// use flexcs_circuit::{Circuit, NodeId, TransientConfig, Waveform};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // RC low-pass step response: v(t) = 1 - e^(-t/RC).
    /// let mut ckt = Circuit::new();
    /// let src = ckt.node("src");
    /// let out = ckt.node("out");
    /// ckt.add_vsource(src, NodeId::GROUND, Waveform::Pulse {
    ///     v0: 0.0, v1: 1.0, delay: 0.0, rise: 1e-9, fall: 1e-9,
    ///     width: 1.0, period: 0.0,
    /// });
    /// ckt.add_resistor(src, out, 1000.0)?;
    /// ckt.add_capacitor(out, NodeId::GROUND, 1e-6)?;
    /// let result = ckt.transient(&TransientConfig::new(5e-3, 5e-6))?;
    /// let v_end = result.trace(out).values().last().copied().unwrap();
    /// assert!((v_end - 1.0).abs() < 1e-2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn transient(&self, config: &TransientConfig) -> Result<TransientResult> {
        self.transient_with(config, SolverPolicy::Auto)
    }

    /// Like [`Circuit::transient`] with an explicit linear-solver
    /// policy. One solver backend is reused for every timestep, so the
    /// sparse path performs its symbolic factorization exactly once for
    /// the whole run.
    ///
    /// # Errors
    ///
    /// See [`Circuit::transient`].
    pub fn transient_with(
        &self,
        config: &TransientConfig,
        policy: SolverPolicy,
    ) -> Result<TransientResult> {
        let mut solver = MnaSolver::new(policy, Assembler::new(self).dim());
        transient_in(self, config, &mut solver, policy)
    }
}

/// [`Circuit::transient_with`] run *in* a caller-supplied solver
/// backend. The Monte-Carlo engine uses this to carry a pooled
/// (possibly shared-symbolic) solver across samples: the solver's
/// cached pattern survives between transient runs of same-topology
/// circuits, so only the first sample on a workspace pays the symbolic
/// analysis. `policy` is used only for the initial DC solve when
/// `config.start_from_dc` is set (the DC assembly has a different
/// sparsity pattern and would thrash the transient solver's cache).
pub(crate) fn transient_in(
    ckt: &Circuit,
    config: &TransientConfig,
    solver: &mut MnaSolver,
    policy: SolverPolicy,
) -> Result<TransientResult> {
    config.validate()?;
    let asm = Assembler::new(ckt);
    // Initial state.
    let mut x = if config.start_from_dc {
        let op = ckt.dc_operating_point_at_with(0.0, policy)?;
        // Re-pack: free node voltages then branch currents.
        let mut x0 = vec![0.0; asm.dim()];
        x0[..asm.n_free].copy_from_slice(&op.voltages()[1..=asm.n_free]);
        for (k, &e) in asm.vsrc_elements.iter().enumerate() {
            x0[asm.n_free + k] = op
                .source_current(crate::netlist::ElementId(e))
                .unwrap_or(0.0);
        }
        x0
    } else {
        vec![0.0; asm.dim()]
    };

    let steps = (config.t_stop / config.dt).ceil() as usize;
    let mut times = Vec::with_capacity(steps + 1);
    let mut states = Vec::with_capacity(steps + 1);
    let store = |x: &[f64], states: &mut Vec<Vec<f64>>| {
        let mut v = vec![0.0; ckt.node_count()];
        v[1..=asm.n_free].copy_from_slice(&x[..asm.n_free]);
        states.push(v);
    };
    times.push(0.0);
    store(&x, &mut states);
    let mut t = 0.0;
    for _ in 0..steps {
        let t_next = (t + config.dt).min(config.t_stop);
        // Accumulated rounding can leave a vanishing final step whose
        // backward-Euler companion conductances (C/h) overflow.
        if t_next - t <= config.dt * 1e-9 {
            break;
        }
        let x_prev = x.clone();
        // Backward Euler: solve at t_next with companion history.
        // Sharp switching events (latch flips) may need recursively
        // refined sub-steps.
        x = step_recursive(&asm, solver, &x_prev, t, t_next, 0)
            .map_err(|_| CircuitError::TransientStepFailed { time: t_next })?;
        t = t_next;
        times.push(t);
        store(&x, &mut states);
        if t >= config.t_stop {
            break;
        }
    }
    Ok(TransientResult { times, states })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn rc_charging_matches_analytic() {
        let mut c = Circuit::new();
        let src = c.node("src");
        let out = c.node("out");
        c.add_vsource(
            src,
            NodeId::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 10.0,
                period: 0.0,
            },
        );
        let r = 1000.0;
        let cap = 1e-6;
        c.add_resistor(src, out, r).unwrap();
        c.add_capacitor(out, NodeId::GROUND, cap).unwrap();
        let tau = r * cap;
        let result = c
            .transient(&TransientConfig::new(3.0 * tau, tau / 200.0))
            .unwrap();
        let tr = result.trace(out);
        for &frac in &[0.5, 1.0, 2.0] {
            let t = frac * tau;
            let expect = 1.0 - (-frac).exp();
            let got = tr.value_at(t).unwrap();
            assert!(
                (got - expect).abs() < 0.01,
                "t={t}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn rc_discharge_from_dc() {
        // Start from DC with the source high, then the pulse drops.
        let mut c = Circuit::new();
        let src = c.node("src");
        let out = c.node("out");
        c.add_vsource(
            src,
            NodeId::GROUND,
            Waveform::Pulse {
                v0: 2.0,
                v1: 0.0,
                delay: 1e-4,
                rise: 1e-9,
                fall: 1e-9,
                width: 1.0,
                period: 0.0,
            },
        );
        c.add_resistor(src, out, 1000.0).unwrap();
        c.add_capacitor(out, NodeId::GROUND, 1e-7).unwrap();
        let result = c.transient(&TransientConfig::new(1e-3, 1e-6)).unwrap();
        let tr = result.trace(out);
        // Initially at DC: 2 V.
        assert!((tr.value_at(0.0).unwrap() - 2.0).abs() < 1e-6);
        // Long after the drop: 0 V.
        assert!(tr.value_at(9e-4).unwrap().abs() < 0.02);
    }

    #[test]
    fn sine_passes_through_resistor() {
        let mut c = Circuit::new();
        let src = c.node("src");
        c.add_vsource(
            src,
            NodeId::GROUND,
            Waveform::Sine {
                offset: 0.0,
                amplitude: 1.0,
                frequency: 1000.0,
                phase: 0.0,
            },
        );
        c.add_resistor(src, NodeId::GROUND, 50.0).unwrap();
        let result = c.transient(&TransientConfig::new(2e-3, 1e-6)).unwrap();
        let tr = result.trace(src);
        let pp = tr.peak_to_peak(0.0, 2e-3).unwrap();
        assert!((pp - 2.0).abs() < 0.01, "pp = {pp}");
    }

    #[test]
    fn invalid_config_rejected() {
        let c = Circuit::new();
        assert!(c.transient(&TransientConfig::new(0.0, 1e-6)).is_err());
        assert!(c.transient(&TransientConfig::new(1e-3, 0.0)).is_err());
        assert!(c.transient(&TransientConfig::new(1e-6, 1e-3)).is_err());
    }

    #[test]
    fn result_accessors() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource(a, NodeId::GROUND, Waveform::Dc(1.0));
        c.add_resistor(a, NodeId::GROUND, 1.0).unwrap();
        let r = c.transient(&TransientConfig::new(1e-6, 1e-7)).unwrap();
        assert!(!r.is_empty());
        assert_eq!(r.times().len(), r.len());
        assert!((r.trace(a).value_at(1e-6).unwrap() - 1.0).abs() < 1e-9);
    }
}
