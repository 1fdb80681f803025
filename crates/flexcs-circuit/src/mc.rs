//! Parallel Monte-Carlo yield engine with shared-symbolic
//! refactorization.
//!
//! Variation sweeps have a structural invariant the generic solver path
//! cannot see: every sample perturbs device *values* on an identical
//! netlist *topology*, so all samples share the exact MNA sparsity
//! pattern. [`McEngine`] exploits that three ways:
//!
//! - **Shared symbolic analysis** — the nominal pass publishes each
//!   solve slot's pattern, slot map and symbolic LU into a
//!   [`SymbolicShare`]; samples skip triplet sorting, matching,
//!   ordering and symbolic fill, doing only a slot-mapped value refill
//!   plus the numeric factorization. The numeric phase is pivot-free
//!   and value accumulation is order-normalized, so a shared-symbolic
//!   factor is bit-identical to a cold per-sample build.
//! - **Pooled per-thread workspaces** — solver backends (with their
//!   cached patterns and factor arenas) live in a bounded, blocking
//!   `flexcs_parallel::Pool`, the same pool `flexcs-core`'s block
//!   decoder uses; a sample checks one out, reuses its caches, and
//!   returns it. Unlike the block decoder, the engine does *not* clear
//!   what it checks out: every refill fully overwrites the cached
//!   values, so reuse is bit-identical to a fresh build by
//!   construction.
//! - **Newton warm starts** — DC solves seed Newton from the nominal
//!   sample's solution; perturbed samples usually converge in a
//!   fraction of the cold iteration count, and a seed that fails to
//!   converge silently falls back to the cold cascade.
//!
//! ## Determinism contract
//!
//! Results are **bit-identical for any thread count**. Each trial
//! derives its RNG from a SplitMix64 finalizer over `(seed, trial)` —
//! no state is streamed between trials — and `flexcs-parallel`
//! reassembles results in index order. Pool scheduling cannot leak into
//! results because every solver path (cold build, shared-symbolic
//! build, cached refill) produces bit-identical factors.
//!
//! ## Example
//!
//! ```
//! use flexcs_circuit::{McEngine, McSample, VariationModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let variation = VariationModel::default();
//! let report = McEngine::default().run(8, 42, |trial| {
//!     // Draw a perturbed device and judge it however the sweep needs;
//!     // here: threshold magnitude stays under 1 V.
//!     let m = trial.perturb(&variation, &Default::default());
//!     Ok(McSample {
//!         value: m.vth_abs,
//!         pass: m.vth_abs.abs() < 1.0,
//!     })
//! })?;
//! assert_eq!(report.stats.trials, 8);
//! # Ok(())
//! # }
//! ```

use crate::device::CntTftModel;
use crate::error::{CircuitError, Result};
use crate::mna::{dc_solve_in, Assembler, OperatingPoint};
use crate::netlist::Circuit;
use crate::solver::{MnaSolver, SolverPolicy, SymbolicShare};
use crate::tel;
use crate::transient::{transient_in, TransientConfig, TransientResult};
use crate::variation::{MonteCarloStats, VariationModel};
use flexcs_parallel::Pool;
use std::sync::Mutex;
use std::time::Instant;

/// Deterministic SplitMix64 RNG: per-trial variation draws here, and
/// the active-matrix mismatch, defect and readout-noise patterns.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e3779b97f4a7c15))
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    pub(crate) fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub(crate) fn gaussian(&mut self) -> f64 {
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Per-trial seed: a SplitMix64 finalizer over `(seed, trial)`. Pure in
/// its inputs, so trial `i` draws the same variation stream no matter
/// which thread runs it (or in what order).
fn sample_seed(seed: u64, trial: u64) -> u64 {
    let mut z = seed ^ trial.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Configuration of a [`McEngine`].
#[derive(Debug, Clone, Default)]
pub struct McEngineConfig {
    /// Worker-thread cap; `None` uses the `flexcs-parallel` default
    /// (the `FLEXCS_THREADS` override applies). Results are
    /// bit-identical for every setting.
    pub threads: Option<usize>,
}

/// One trial's verdict: the recorded metric and the pass flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSample {
    /// Metric value recorded into [`MonteCarloStats::values`].
    pub value: f64,
    /// Whether the trial meets the sweep's pass condition.
    pub pass: bool,
}

/// Aggregate result of one [`McEngine::run`].
#[derive(Debug, Clone)]
pub struct McReport {
    /// Per-trial metric statistics (bit-identical for any thread
    /// count).
    pub stats: MonteCarloStats,
    /// Numeric factorizations performed across the nominal pass and
    /// all trials (mirrors the `mc.refactors` telemetry counter).
    pub refactors: u64,
    /// Newton iterations saved by warm starting, summed as
    /// `max(0, nominal_iters − trial_iters)` over every warm DC solve
    /// (mirrors `mc.warm_newton_saved`).
    pub warm_newton_saved: u64,
    /// Workspace checkouts served by the pool.
    pub pool_checkouts: u64,
    /// Checkouts served by reusing a returned workspace.
    pub pool_reuses: u64,
}

/// Workspace carried by one trial at a time: per-call-slot solver
/// backends whose cached patterns and factor arenas survive across the
/// samples the pool hands them to.
#[derive(Debug, Default)]
struct McWorkspace {
    dc: Vec<MnaSolver>,
    tran: Vec<MnaSolver>,
}

impl McWorkspace {
    fn factor_sum(&self) -> u64 {
        self.dc
            .iter()
            .chain(&self.tran)
            .map(MnaSolver::factor_count)
            .sum()
    }
}

/// Per-call-slot [`SymbolicShare`] tables, grown lazily as the eval
/// closure makes solve calls. The `k`-th DC (or transient) call of
/// every trial maps to the same share — trials must make their solve
/// calls on same-topology circuits in the same order, which is what a
/// variation sweep does by construction. A trial that violates this is
/// caught by the share's shape fingerprint and falls back to a cold
/// build.
#[derive(Debug, Default)]
struct ShareTables {
    dc: Mutex<Vec<SymbolicShare>>,
    tran: Mutex<Vec<SymbolicShare>>,
}

fn share_at(table: &Mutex<Vec<SymbolicShare>>, slot: usize) -> SymbolicShare {
    let mut v = table.lock().unwrap_or_else(|e| e.into_inner());
    while v.len() <= slot {
        v.push(SymbolicShare::new());
    }
    v[slot].clone()
}

/// Warm-start data recorded by the nominal pass: per DC-call-slot, the
/// solved unknown vector and the Newton iterations it took cold.
#[derive(Debug, Default)]
struct NominalRecord {
    dc: Vec<(Vec<f64>, usize)>,
}

/// One trial's context, handed to the eval closure: deterministic
/// variation draws plus solve entry points that route through the
/// engine's pooled, shared-symbolic, warm-started solver machinery.
#[derive(Debug)]
pub struct McTrial<'e> {
    trial: usize,
    nominal: bool,
    rng: Rng,
    engine: &'e McEngine,
    tables: &'e ShareTables,
    warm: Option<&'e NominalRecord>,
    ws: &'e mut McWorkspace,
    dc_calls: usize,
    tran_calls: usize,
    /// Written during the nominal pass only.
    record: NominalRecord,
    warm_saved: u64,
}

impl McTrial<'_> {
    /// Zero-based trial index (0 during the nominal pass as well).
    pub fn trial(&self) -> usize {
        self.trial
    }

    /// `true` during the engine's nominal pre-pass, where every
    /// variation draw is pinned to its mean.
    pub fn is_nominal(&self) -> bool {
        self.nominal
    }

    /// Standard-normal draw from the trial's deterministic stream
    /// (exactly `0.0` during the nominal pass).
    pub fn gaussian(&mut self) -> f64 {
        if self.nominal {
            0.0
        } else {
            self.rng.gaussian()
        }
    }

    /// Uniform `[0, 1)` draw from the trial's deterministic stream
    /// (exactly `0.5` during the nominal pass).
    pub fn uniform(&mut self) -> f64 {
        if self.nominal {
            0.5
        } else {
            self.rng.uniform()
        }
    }

    /// Draws a perturbed copy of a nominal device model (unchanged
    /// during the nominal pass). Consumes two [`McTrial::gaussian`]
    /// draws.
    pub fn perturb(&mut self, variation: &VariationModel, nominal: &CntTftModel) -> CntTftModel {
        let g_vth = self.gaussian();
        let g_kp = self.gaussian();
        variation.perturb_with(nominal, g_vth, g_kp)
    }

    /// DC operating point at `t = 0` through the engine's solver
    /// machinery (pooled workspace slot, shared symbolic analysis,
    /// nominal-seeded Newton warm start).
    ///
    /// # Errors
    ///
    /// Propagates DC convergence and singular-matrix failures.
    pub fn dc(&mut self, ckt: &Circuit) -> Result<OperatingPoint> {
        self.dc_at(ckt, 0.0)
    }

    /// [`McTrial::dc`] with waveforms evaluated at time `t`.
    ///
    /// # Errors
    ///
    /// See [`McTrial::dc`].
    pub fn dc_at(&mut self, ckt: &Circuit, t: f64) -> Result<OperatingPoint> {
        let slot = self.dc_calls;
        self.dc_calls += 1;
        let asm = Assembler::new(ckt);
        if self.ws.dc.len() <= slot {
            let share = (!self.engine.cold).then(|| share_at(&self.tables.dc, slot));
            self.ws
                .dc
                .push(MnaSolver::with_share(SolverPolicy::Auto, asm.dim(), share));
        }
        let seed = if !self.nominal && !self.engine.cold {
            self.warm
                .and_then(|w| w.dc.get(slot))
                .map(|(x, _)| x.as_slice())
        } else {
            None
        };
        let (x, iters) = dc_solve_in(ckt, t, &mut self.ws.dc[slot], seed)?;
        if self.nominal {
            self.record.dc.push((x.clone(), iters));
        } else if let Some((_, nominal_iters)) = self
            .warm
            .and_then(|w| w.dc.get(slot))
            .filter(|_| seed.is_some())
        {
            self.warm_saved += nominal_iters.saturating_sub(iters) as u64;
        }
        Ok(asm.package(&x))
    }

    /// Backward-Euler transient through the engine's solver machinery:
    /// the workspace slot's solver (and with sharing, its symbolic
    /// analysis) is carried across trials, so only the first sample on
    /// a fresh workspace pays pattern construction.
    ///
    /// # Errors
    ///
    /// See [`Circuit::transient`].
    pub fn transient(
        &mut self,
        ckt: &Circuit,
        config: &TransientConfig,
    ) -> Result<TransientResult> {
        let slot = self.tran_calls;
        self.tran_calls += 1;
        if self.ws.tran.len() <= slot {
            let share = (!self.engine.cold).then(|| share_at(&self.tables.tran, slot));
            let dim = Assembler::new(ckt).dim();
            self.ws
                .tran
                .push(MnaSolver::with_share(SolverPolicy::Auto, dim, share));
        }
        transient_in(ckt, config, &mut self.ws.tran[slot], SolverPolicy::Auto)
    }
}

/// The parallel Monte-Carlo yield engine. See the module docs for the
/// machinery; see `McEngine::run` for the evaluation contract.
#[derive(Debug, Clone, Default)]
pub struct McEngine {
    cfg: McEngineConfig,
    /// The [`McEngine::serial_cold`] baseline: no symbolic sharing, no
    /// Newton warm starts, and a fresh workspace per trial.
    cold: bool,
}

impl McEngine {
    /// An engine with an explicit configuration.
    pub fn new(cfg: McEngineConfig) -> Self {
        McEngine { cfg, cold: false }
    }

    /// The serial cold-factor baseline: one thread, no symbolic
    /// sharing, no warm starts, no pooled workspaces — every sample is
    /// an independent cold solve that pays its own pattern construction
    /// and symbolic analysis, as the pre-engine helpers ran. Benchmarks
    /// measure the engine's speedup against this configuration. Its
    /// statistics are deterministic but not bitwise-comparable to the
    /// default engine's: warm starts change Newton trajectories.
    pub fn serial_cold() -> Self {
        McEngine {
            cfg: McEngineConfig { threads: Some(1) },
            cold: true,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &McEngineConfig {
        &self.cfg
    }

    /// Runs `trials` evaluations of `eval` and aggregates their
    /// samples.
    ///
    /// `eval` is called once per trial with an [`McTrial`] supplying
    /// deterministic variation draws and pooled solve entry points. It
    /// must be a pure function of the trial context: same draws → same
    /// sample. The engine first runs a serial *nominal pass* (draws
    /// pinned to their means) to publish symbolic patterns and record
    /// warm-start seeds, then fans the trials out across worker
    /// threads. The nominal pass's sample is not part of the
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest-trial-index) evaluation error;
    /// the failing trial is deterministic for any thread count.
    pub fn run<F>(&self, trials: usize, seed: u64, eval: F) -> Result<McReport>
    where
        F: Fn(&mut McTrial<'_>) -> Result<McSample> + Sync,
    {
        let threads = self
            .cfg
            .threads
            .unwrap_or_else(flexcs_parallel::default_threads);
        let tables = ShareTables::default();

        // Nominal pass: zero perturbation, cold solve. Publishes the
        // symbolic patterns and records warm-start seeds.
        let mut nominal_ws = McWorkspace::default();
        let mut nominal_ctx = McTrial {
            trial: 0,
            nominal: true,
            rng: Rng::new(seed),
            engine: self,
            tables: &tables,
            warm: None,
            ws: &mut nominal_ws,
            dc_calls: 0,
            tran_calls: 0,
            record: NominalRecord::default(),
            warm_saved: 0,
        };
        eval(&mut nominal_ctx)?;
        let warm = std::mem::take(&mut nominal_ctx.record);
        let nominal_factors = nominal_ws.factor_sum();

        let pool: Pool<McWorkspace> = Pool::with_capacity(threads);
        if !self.cold {
            pool.seed(nominal_ws);
        }

        struct TrialOut {
            value: f64,
            pass: bool,
            refactors: u64,
            warm_saved: u64,
            ms: f64,
        }
        let outs = flexcs_parallel::try_par_map_indices_with(threads, trials, |i| {
            let started = Instant::now();
            // Cold baseline: a fresh workspace per trial (no pooling)
            // makes every sample pay pattern construction + symbolic
            // analysis itself.
            let mut fresh = McWorkspace::default();
            let mut pooled = (!self.cold).then(|| pool.checkout());
            let ws = pooled.as_deref_mut().unwrap_or(&mut fresh);
            let factors_before = ws.factor_sum();
            let mut ctx = McTrial {
                trial: i,
                nominal: false,
                rng: Rng::new(sample_seed(seed, i as u64)),
                engine: self,
                tables: &tables,
                warm: Some(&warm),
                ws,
                dc_calls: 0,
                tran_calls: 0,
                record: NominalRecord::default(),
                warm_saved: 0,
            };
            let sample = eval(&mut ctx)?;
            let warm_saved = ctx.warm_saved;
            let refactors = ctx.ws.factor_sum() - factors_before;
            Ok::<TrialOut, CircuitError>(TrialOut {
                value: sample.value,
                pass: sample.pass,
                refactors,
                warm_saved,
                ms: started.elapsed().as_secs_f64() * 1e3,
            })
        })?;

        let mut values = Vec::with_capacity(trials);
        let mut passes = 0;
        let mut refactors = nominal_factors;
        let mut warm_newton_saved = 0;
        for out in &outs {
            values.push(out.value);
            passes += out.pass as usize;
            refactors += out.refactors;
            warm_newton_saved += out.warm_saved;
        }
        if tel::enabled() {
            tel::counter("mc.samples", trials as u64);
            tel::counter("mc.refactors", refactors);
            tel::counter("mc.warm_newton_saved", warm_newton_saved);
            for out in &outs {
                tel::histogram("mc.sample_ms", out.ms);
            }
        }
        Ok(McReport {
            stats: MonteCarloStats {
                trials,
                passes,
                values,
            },
            refactors,
            warm_newton_saved,
            pool_checkouts: pool.checkouts(),
            pool_reuses: pool.reuses(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NodeId;
    use crate::waveform::Waveform;

    fn divider_metric(trial: &mut McTrial<'_>) -> Result<McSample> {
        // A varied resistive divider: value = v(mid), pass when within
        // 10 % of the nominal 2 V.
        let r_lo = 2000.0 * (1.0 + 0.05 * trial.gaussian());
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let mid = c.node("mid");
        c.add_vsource(vdd, NodeId::GROUND, Waveform::Dc(3.0));
        c.add_resistor(vdd, mid, 1000.0)?;
        c.add_resistor(mid, NodeId::GROUND, r_lo)?;
        let v = trial.dc(&c)?.voltage(mid);
        Ok(McSample {
            value: v,
            pass: (v - 2.0).abs() < 0.2,
        })
    }

    #[test]
    fn trial_draws_are_independent_of_order() {
        assert_ne!(sample_seed(7, 0), sample_seed(7, 1));
        assert_ne!(sample_seed(7, 1), sample_seed(8, 1));
    }

    #[test]
    fn engine_matches_across_thread_counts() {
        let run = |threads| {
            McEngine::new(McEngineConfig {
                threads: Some(threads),
            })
            .run(16, 99, divider_metric)
            .unwrap()
        };
        let serial = run(1);
        for threads in [2, 4] {
            let par = run(threads);
            assert_eq!(serial.stats, par.stats, "threads = {threads}");
            assert_eq!(serial.warm_newton_saved, par.warm_newton_saved);
        }
    }

    #[test]
    fn nominal_pass_pins_draws() {
        let report = McEngine::default()
            .run(3, 5, |trial| {
                if trial.is_nominal() {
                    assert_eq!(trial.gaussian(), 0.0);
                    assert_eq!(trial.uniform(), 0.5);
                }
                Ok(McSample {
                    value: trial.gaussian(),
                    pass: true,
                })
            })
            .unwrap();
        assert_eq!(report.stats.trials, 3);
        // Sampled trials draw nonzero.
        assert!(report.stats.values.iter().any(|v| *v != 0.0));
    }

    #[test]
    fn pool_reuses_workspaces() {
        let report = McEngine::new(McEngineConfig { threads: Some(1) })
            .run(6, 1, divider_metric)
            .unwrap();
        // One workspace (seeded by the nominal pass) serves all six
        // serial trials.
        assert_eq!(report.pool_checkouts, 6);
        assert_eq!(report.pool_reuses, 6);
        assert!(report.refactors > 0);
    }

    #[test]
    fn errors_are_deterministic() {
        let r = McEngine::default().run(8, 3, |trial| {
            if trial.is_nominal() || trial.trial() < 5 {
                Ok(McSample {
                    value: 0.0,
                    pass: true,
                })
            } else {
                Err(crate::error::CircuitError::InvalidParameter(format!(
                    "trial {}",
                    trial.trial()
                )))
            }
        });
        match r {
            Err(crate::error::CircuitError::InvalidParameter(msg)) => {
                assert_eq!(msg, "trial 5", "lowest failing index wins");
            }
            other => panic!("expected deterministic error, got {other:?}"),
        }
    }
}
