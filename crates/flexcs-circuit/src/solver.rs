//! Linear-solver backends for the MNA Newton loop.
//!
//! Every analysis (DC, transient, AC) funnels its linearized systems
//! through a [`LinearSolver`], selected by [`SolverPolicy`]: dense LU
//! below [`SPARSE_CROSSOVER`] unknowns (where dense factorization is
//! faster and bit-compatible with the historical behavior), the
//! [`crate::sparse`] engine above it. The sparse backend builds its
//! sparsity pattern and symbolic factorization on the *first* assembly
//! and then only refills values and refactors numerically — the pattern
//! is fixed once the netlist is built, so the symbolic analysis is
//! shared across all Newton iterations and transient timesteps.

use crate::error::Result;
use crate::mna::{Assembler, TripletStamper, ValueStamper};
use crate::sparse::{CsrMatrix, SparseLu, SymbolicLu, Triplets};
use flexcs_linalg::Lu;
use std::sync::{Arc, Mutex};

/// Dimension at and above which [`SolverPolicy::Auto`] switches from the
/// dense to the sparse backend. Chosen from the `bench_circuit`
/// crossover sweep: MNA Jacobians near this size are ~95 % zeros and the
/// sparse factor already wins, while the historical small-circuit tests
/// (cells, amplifier, small registers) all stay on the dense path.
pub const SPARSE_CROSSOVER: usize = 96;

/// Which linear-solver backend an analysis should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverPolicy {
    /// Dense below [`SPARSE_CROSSOVER`] unknowns, sparse at or above.
    #[default]
    Auto,
    /// Always dense (the historical behavior).
    Dense,
    /// Always sparse.
    Sparse,
}

impl SolverPolicy {
    /// Whether the sparse backend is selected for a system of `dim`
    /// unknowns.
    pub fn use_sparse(self, dim: usize) -> bool {
        match self {
            SolverPolicy::Auto => dim >= SPARSE_CROSSOVER,
            SolverPolicy::Dense => false,
            SolverPolicy::Sparse => true,
        }
    }
}

/// A linear-solver backend: assembles the Jacobian at an iterate,
/// factors it, and solves against Newton right-hand sides.
pub(crate) trait LinearSolver {
    /// Assembles `J(x)` and `F(x)`, factors `J`, and returns `F`.
    fn assemble_and_factor(
        &mut self,
        asm: &Assembler<'_>,
        x: &[f64],
        t: f64,
        companion: Option<(f64, &[f64])>,
        src_scale: f64,
    ) -> Result<Vec<f64>>;

    /// Solves `J·delta = b` against the last factored Jacobian.
    fn solve(&self, b: &[f64]) -> Result<Vec<f64>>;
}

/// Dense backend: full-matrix assembly + partial-pivoting LU.
#[derive(Debug, Default)]
pub(crate) struct DenseSolver {
    lu: Option<Lu>,
    factors: u64,
}

impl LinearSolver for DenseSolver {
    fn assemble_and_factor(
        &mut self,
        asm: &Assembler<'_>,
        x: &[f64],
        t: f64,
        companion: Option<(f64, &[f64])>,
        src_scale: f64,
    ) -> Result<Vec<f64>> {
        let (j, f) = asm.assemble(x, t, companion, src_scale);
        self.lu = Some(Lu::factor(&j)?);
        self.factors += 1;
        Ok(f)
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let lu = self.lu.as_ref().expect("solve before factor");
        Ok(lu.solve(b)?)
    }
}

/// The immutable symbolic side of one sparse assembly: the CSR pattern
/// skeleton, the triplet-stream slot map, and the symbolic LU. Shared
/// read-only across solvers via [`SymbolicShare`].
#[derive(Debug)]
struct SharedPattern {
    /// Pattern skeleton; values are stale and fully overwritten by
    /// every consumer's slot refill before use.
    csr: CsrMatrix,
    slots: Arc<Vec<usize>>,
    sym: Arc<SymbolicLu>,
    /// Triplet-stream length the pattern was built from — a cheap
    /// fingerprint that catches a consumer stamping a different
    /// netlist shape, which then falls back to a cold build.
    tri_len: usize,
}

/// A handle that shares one netlist's symbolic analyses across many
/// `SparseSolver` instances (the crate's private sparse MNA solver).
///
/// Monte-Carlo variation sweeps solve thousands of circuits with the
/// *same topology* (hence the same sparsity pattern) and different
/// device values. The first solver to assemble under a given companion
/// mode publishes its pattern, slot map, and symbolic LU here; every
/// later solver skips triplet sorting, matching, ordering, and symbolic
/// fill entirely — it stamps values, refills through the shared slot
/// map, and runs only the numeric factorization. Because the numeric
/// phase is pivot-free and value refills accumulate duplicates in
/// stamp order on both paths, a shared-symbolic factorization is
/// **bit-identical** to a cold per-sample build.
///
/// Cloning is cheap (one `Arc`); all clones address the same slots.
/// DC and transient assemblies have different patterns (capacitors
/// only stamp in companion mode) and are cached independently.
#[derive(Debug, Clone, Default)]
pub struct SymbolicShare {
    inner: Arc<ShareInner>,
}

#[derive(Debug, Default)]
struct ShareInner {
    /// Index 0 = DC pattern, index 1 = transient (companion) pattern.
    modes: [Mutex<Option<Arc<SharedPattern>>>; 2],
}

impl SymbolicShare {
    /// Creates an empty share; patterns are published by the first
    /// solver to assemble under each companion mode.
    pub fn new() -> Self {
        Self::default()
    }

    fn get(&self, companion_mode: bool) -> Option<Arc<SharedPattern>> {
        self.inner.modes[companion_mode as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// First publisher wins; later publishers keep their private copy.
    fn publish(&self, companion_mode: bool, pattern: Arc<SharedPattern>) {
        let mut slot = self.inner.modes[companion_mode as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(pattern);
        }
    }
}

/// Cached sparse assembly/factorization state. Built once per sparsity
/// pattern (per companion mode: capacitors only stamp in transient);
/// later assemblies refill values through the slot map and refactor on
/// the reused symbolic analysis.
#[derive(Debug)]
struct SparseState {
    csr: CsrMatrix,
    slots: Arc<Vec<usize>>,
    sym: Arc<SymbolicLu>,
    lu: SparseLu,
    /// Reusable triplet-value buffer for slot refills.
    vals: Vec<f64>,
    /// Pattern was built with transient companion stamps.
    companion_mode: bool,
}

/// Sparse backend: triplet assembly, CSR with slot-map value refill, and
/// the static-pivot sparse LU with symbolic reuse — optionally seeded
/// from (and publishing to) a [`SymbolicShare`].
#[derive(Debug, Default)]
pub(crate) struct SparseSolver {
    state: Option<SparseState>,
    share: Option<SymbolicShare>,
    factors: u64,
}

impl SparseSolver {
    fn with_share(share: Option<SymbolicShare>) -> Self {
        SparseSolver {
            state: None,
            share,
            factors: 0,
        }
    }

    /// Builds state from a shared pattern when one exists and matches
    /// this assembly's shape.
    fn state_from_share(
        &mut self,
        asm: &Assembler<'_>,
        x: &[f64],
        t: f64,
        companion: Option<(f64, &[f64])>,
        src_scale: f64,
    ) -> Option<Result<Vec<f64>>> {
        let mode = companion.is_some();
        let pat = self.share.as_ref()?.get(mode)?;
        if pat.csr.dim() != asm.dim() {
            return None;
        }
        let mut vals = Vec::with_capacity(pat.tri_len);
        let f = asm.assemble_with(&mut ValueStamper(&mut vals), x, t, companion, src_scale);
        if vals.len() != pat.tri_len {
            // The netlist stamped a different stream shape than the
            // published pattern; disown the share hit (the stamped
            // values are value-only and cannot seed a cold build).
            return None;
        }
        let mut csr = pat.csr.clone();
        csr.set_values(&pat.slots, &vals);
        let lu = match SparseLu::factor(&pat.sym, &csr) {
            Ok(lu) => lu,
            Err(e) => return Some(Err(e)),
        };
        self.factors += 1;
        self.state = Some(SparseState {
            csr,
            slots: Arc::clone(&pat.slots),
            sym: Arc::clone(&pat.sym),
            lu,
            vals,
            companion_mode: mode,
        });
        Some(Ok(f))
    }
}

impl LinearSolver for SparseSolver {
    fn assemble_and_factor(
        &mut self,
        asm: &Assembler<'_>,
        x: &[f64],
        t: f64,
        companion: Option<(f64, &[f64])>,
        src_scale: f64,
    ) -> Result<Vec<f64>> {
        let mode = companion.is_some();
        if self
            .state
            .as_ref()
            .is_some_and(|s| s.companion_mode != mode || s.csr.dim() != asm.dim())
        {
            self.state = None;
        }
        if let Some(st) = &mut self.state {
            st.vals.clear();
            let f = asm.assemble_with(&mut ValueStamper(&mut st.vals), x, t, companion, src_scale);
            if st.vals.len() == st.slots.len() {
                st.csr.set_values(&st.slots, &st.vals);
                st.lu.refactor(&st.sym, &st.csr)?;
                self.factors += 1;
                return Ok(f);
            }
            // Same dimension but a different stamp stream (a different
            // netlist was handed to a pooled solver): rebuild cold.
            self.state = None;
        }
        if let Some(r) = self.state_from_share(asm, x, t, companion, src_scale) {
            return r;
        }
        let mut tri = Triplets::new(asm.dim());
        let f = asm.assemble_with(&mut TripletStamper(&mut tri), x, t, companion, src_scale);
        let (csr, slots) = CsrMatrix::from_triplets(&tri);
        let sym = SymbolicLu::analyze(&csr)?;
        let lu = SparseLu::factor(&sym, &csr)?;
        self.factors += 1;
        let slots = Arc::new(slots);
        let sym = Arc::new(sym);
        if let Some(share) = &self.share {
            share.publish(
                mode,
                Arc::new(SharedPattern {
                    csr: csr.clone(),
                    slots: Arc::clone(&slots),
                    sym: Arc::clone(&sym),
                    tri_len: tri.len(),
                }),
            );
        }
        self.state = Some(SparseState {
            csr,
            slots,
            sym,
            lu,
            vals: Vec::with_capacity(tri.len()),
            companion_mode: mode,
        });
        Ok(f)
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let st = self.state.as_ref().expect("solve before factor");
        st.lu.solve_refined(&st.sym, &st.csr, b)
    }
}

/// Policy-selected backend handed to [`Assembler::newton`].
#[derive(Debug)]
pub(crate) enum MnaSolver {
    /// Dense LU backend.
    Dense(DenseSolver),
    /// Sparse LU backend with cached symbolic analysis. Boxed: the
    /// cached CSR/symbolic state dwarfs the dense variant.
    Sparse(Box<SparseSolver>),
}

impl MnaSolver {
    /// Creates the backend `policy` selects for a `dim`-unknown system.
    pub fn new(policy: SolverPolicy, dim: usize) -> MnaSolver {
        Self::with_share(policy, dim, None)
    }

    /// Like [`MnaSolver::new`], additionally wiring a [`SymbolicShare`]
    /// into the sparse backend so symbolic analyses are reused across
    /// solvers of same-topology netlists. The dense backend ignores the
    /// share.
    pub fn with_share(policy: SolverPolicy, dim: usize, share: Option<SymbolicShare>) -> MnaSolver {
        if policy.use_sparse(dim) {
            MnaSolver::Sparse(Box::new(SparseSolver::with_share(share)))
        } else {
            MnaSolver::Dense(DenseSolver::default())
        }
    }

    /// Number of numeric factorizations performed over this solver's
    /// lifetime (dense LU factors and sparse numeric (re)factors both
    /// count; symbolic analyses do not).
    pub fn factor_count(&self) -> u64 {
        match self {
            MnaSolver::Dense(s) => s.factors,
            MnaSolver::Sparse(s) => s.factors,
        }
    }

    /// `true` when the sparse backend was selected.
    #[cfg(test)]
    pub fn is_sparse(&self) -> bool {
        matches!(self, MnaSolver::Sparse(_))
    }
}

impl LinearSolver for MnaSolver {
    fn assemble_and_factor(
        &mut self,
        asm: &Assembler<'_>,
        x: &[f64],
        t: f64,
        companion: Option<(f64, &[f64])>,
        src_scale: f64,
    ) -> Result<Vec<f64>> {
        match self {
            MnaSolver::Dense(s) => s.assemble_and_factor(asm, x, t, companion, src_scale),
            MnaSolver::Sparse(s) => s.assemble_and_factor(asm, x, t, companion, src_scale),
        }
    }

    fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        match self {
            MnaSolver::Dense(s) => s.solve(b),
            MnaSolver::Sparse(s) => s.solve(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_selection() {
        assert!(!SolverPolicy::Auto.use_sparse(SPARSE_CROSSOVER - 1));
        assert!(SolverPolicy::Auto.use_sparse(SPARSE_CROSSOVER));
        assert!(!SolverPolicy::Dense.use_sparse(100_000));
        assert!(SolverPolicy::Sparse.use_sparse(2));
        assert_eq!(SolverPolicy::default(), SolverPolicy::Auto);
    }

    #[test]
    fn backend_matches_policy() {
        assert!(!MnaSolver::new(SolverPolicy::Auto, 10).is_sparse());
        assert!(MnaSolver::new(SolverPolicy::Auto, 500).is_sparse());
        assert!(MnaSolver::new(SolverPolicy::Sparse, 10).is_sparse());
        assert!(!MnaSolver::new(SolverPolicy::Dense, 500).is_sparse());
    }
}
