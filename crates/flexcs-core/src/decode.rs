//! The silicon-side CS decoder (paper Eq. 9).
//!
//! Solves `min ‖x‖₁ s.t. Φ_M·y = Φ_M·Ψ·x` (or its LASSO relaxation) over
//! the 2-D DCT basis, then inverts the basis to obtain the reconstructed
//! frame.

use crate::basisop::{BasisKind, SubsampledDctOperator};
use crate::error::{CoreError, Result};
use crate::tel;
use flexcs_linalg::{simd, Matrix};
use flexcs_solver::{
    IstaConfig, LinearOperator, SolveReport, SolveWorkspace, SolverError, SparseSolver, WarmStart,
};
use flexcs_transform::{devectorize, haar2d_full_inverse, Dct2d};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

thread_local! {
    /// Per-thread solver arena for every decode. Scratch belongs to the
    /// thread and carried state to the stream: a [`DecodeWarmState`]
    /// holds only what the next solve of its stream reads, so serving
    /// many tenants holds one arena per decoding thread, not one per
    /// tenant. A reused workspace is bit-identical to a fresh one.
    ///
    /// The arena keeps the largest buffers any decode on its thread has
    /// needed, until the thread exits: dropping a stream's state frees
    /// none of it.
    static SOLVE_WORKSPACE: RefCell<SolveWorkspace> = RefCell::new(SolveWorkspace::new());
}

/// Runs `f` with this thread's solver workspace; the `try_borrow_mut`
/// fallback covers re-entrant use only (a decode invoked from inside
/// another decode's solve).
fn with_solve_workspace<R>(f: impl FnOnce(&mut SolveWorkspace) -> R) -> R {
    SOLVE_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut guard) => f(&mut guard),
        Err(_) => f(&mut SolveWorkspace::new()),
    })
}

/// A configured CS decoder.
///
/// # Examples
///
/// ```
/// use flexcs_core::{Decoder, SamplingPlan};
/// use flexcs_linalg::Matrix;
/// use flexcs_transform::Dct2d;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A DCT-sparse frame sampled at 60 %: reconstruction is near exact.
/// let dct = Dct2d::new(8, 8)?;
/// let mut coeffs = Matrix::zeros(8, 8);
/// coeffs[(0, 0)] = 4.0;
/// coeffs[(1, 2)] = 1.5;
/// coeffs[(3, 0)] = -1.0;
/// let frame = dct.inverse(&coeffs)?;
/// let plan = SamplingPlan::random_subset(64, 38, &[], 7)?;
/// let y = plan.measure(&frame.to_flat());
/// let result = Decoder::default().reconstruct(8, 8, plan.selected(), &y)?;
/// assert!(result.frame.max_abs_diff(&frame)? < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Decoder {
    solver: SparseSolver,
    basis: BasisKind,
    /// Most-recently-used 2-D DCT plan, keyed by its shape. Repeated
    /// reconstructions of same-shaped frames (the common case: every
    /// resample round and batch frame) skip the twiddle-table rebuild.
    plan_cache: Mutex<Option<Arc<Dct2d>>>,
}

impl Clone for Decoder {
    fn clone(&self) -> Self {
        Decoder {
            solver: self.solver.clone(),
            basis: self.basis,
            plan_cache: Mutex::new(
                self.plan_cache
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone(),
            ),
        }
    }
}

/// Decode-side warm-start state: the previous solution's DCT
/// coefficients, the cached spectral norm and the warm-start counters.
///
/// Passed to [`Decoder::reconstruct_warm`] across related solves —
/// consecutive resampling rounds of one frame, or consecutive frames of
/// a stream — so each solve after the first starts from the previous
/// coefficients and skips the per-round power iteration. This composes
/// with the RPCA subspace warm starts of the streaming session layer:
/// RPCA carries the low-rank subspace across frames, this carries the
/// sparse code.
///
/// The state holds no solver buffers: warm solves run on one workspace
/// per decoding thread, so a state costs one coefficient vector however
/// many streams exist.
///
/// [`Decoder::reconstruct`] is a solve from a fresh state; a shape or
/// sampling-density change simply resets the carried state on the next
/// solve.
#[derive(Clone, Debug, Default)]
pub struct DecodeWarmState {
    warm: WarmStart,
}

impl DecodeWarmState {
    /// Fresh state; the first reconstruction through it runs cold.
    pub fn new() -> Self {
        DecodeWarmState::default()
    }

    /// Number of solves seeded from a previous solution.
    pub fn warm_starts(&self) -> u64 {
        self.warm.warm_starts()
    }

    /// Adaptive FISTA momentum restarts taken across warm solves.
    pub fn restarts(&self) -> u64 {
        self.warm.restarts()
    }

    /// Iterations saved by warm solves relative to the cold baseline.
    pub fn saved_iterations(&self) -> u64 {
        self.warm.saved_iterations()
    }

    /// Forgets the carried solution and cached norm (counters survive);
    /// the next reconstruction runs cold again.
    pub fn clear(&mut self) {
        self.warm.clear();
    }

    /// Adopts externally produced basis coefficients (vectorized, length
    /// `rows·cols`) as the carried solution for an operator of the given
    /// `(measurements, coefficients)` shape. The adaptive decode tier
    /// uses this to seed the next warm FISTA solve from a greedy
    /// fast-tier result, so a cheap event decode still primes the
    /// following delta decodes.
    pub fn absorb_coefficients(&mut self, shape: (usize, usize), coefficients: &[f64]) {
        self.warm.absorb_solution(shape, coefficients);
    }
}

/// A reconstruction: the frame, its DCT coefficients and solver
/// diagnostics.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// Reconstructed frame (`x_cs` mapped through `Ψ`).
    pub frame: Matrix,
    /// Recovered DCT coefficients.
    pub coefficients: Matrix,
    /// Solver diagnostics.
    pub report: SolveReport,
}

impl Decoder {
    /// Creates a decoder with the given solver (DCT basis).
    pub fn new(solver: SparseSolver) -> Self {
        Decoder {
            solver,
            basis: BasisKind::Dct,
            plan_cache: Mutex::new(None),
        }
    }

    /// Selects the sparsity basis (builder style).
    #[must_use]
    pub fn with_basis(mut self, basis: BasisKind) -> Self {
        self.basis = basis;
        self
    }

    /// Borrows the solver configuration.
    pub fn solver(&self) -> &SparseSolver {
        &self.solver
    }

    /// Basis in use.
    pub fn basis(&self) -> BasisKind {
        self.basis
    }

    /// Reconstructs a `rows x cols` frame from measurements `y` taken at
    /// the (ascending) pixel indices `selected`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonFiniteMeasurement`] when `y` holds a NaN
    /// or ±Inf, [`CoreError::MeasurementOverflow`] when ‖y‖₂ overflows,
    /// and propagates operator-construction and solver failures.
    pub fn reconstruct(
        &self,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
    ) -> Result<Reconstruction> {
        // A fresh carried state makes the warm solve the cold one.
        self.reconstruct_inner(rows, cols, selected, y, &mut DecodeWarmState::new(), None)
    }

    /// [`Decoder::reconstruct`] with cross-solve warm starting: the
    /// solver is seeded from the previous solution carried in `state`,
    /// runs on this thread's solver workspace, and serves the Lipschitz
    /// constant from the cached spectral norm instead of re-running
    /// power iteration. The first call on a fresh (or shape-changed)
    /// state is bit-identical to [`Decoder::reconstruct`].
    ///
    /// # Errors
    ///
    /// See [`Decoder::reconstruct`].
    pub fn reconstruct_warm(
        &self,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
        state: &mut DecodeWarmState,
    ) -> Result<Reconstruction> {
        self.reconstruct_inner(rows, cols, selected, y, state, None)
    }

    /// [`Decoder::reconstruct_warm`] with a per-call solver override:
    /// the decode runs `solver` instead of the configured one, while
    /// basis, plan cache and λ-scaling behave exactly as usual. The
    /// adaptive tier derives its delta (budget-capped FISTA) and
    /// event-greedy (OMP) decodes from the session solver this way
    /// without rebuilding the decoder.
    ///
    /// # Errors
    ///
    /// See [`Decoder::reconstruct`].
    pub fn reconstruct_with_solver(
        &self,
        solver: &SparseSolver,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
        state: &mut DecodeWarmState,
    ) -> Result<Reconstruction> {
        self.reconstruct_inner(rows, cols, selected, y, state, Some(solver))
    }

    fn reconstruct_inner(
        &self,
        rows: usize,
        cols: usize,
        selected: &[usize],
        y: &[f64],
        state: &mut DecodeWarmState,
        solver_override: Option<&SparseSolver>,
    ) -> Result<Reconstruction> {
        if tel::enabled() {
            // Tag every decode with the micro-kernel tier that produced
            // it, so perf traces are attributable to the hardware path
            // (`simd.tier.scalar`, `simd.tier.x86_64-avx2+fma`, ...),
            // and with the Lee codelet strip width the tier runs
            // (`simd.codelet_lanes.4`, or `.8` on AVX-512 hosts).
            tel::counter(&format!("simd.tier.{}", simd::tier_name()), 1);
            tel::counter(&format!("simd.codelet_lanes.{}", simd::codelet_lanes()), 1);
        }
        let setup_span = tel::span("decode.setup");
        let plan = self.plan_for(rows, cols)?;
        let op = SubsampledDctOperator::with_plan(rows, cols, selected.to_vec(), self.basis, plan)?;
        // Checked before the λ scaling below, which applies Aᵀ to `y`
        // ahead of any solver-side validation.
        if y.len() != op.rows() {
            return Err(SolverError::DimensionMismatch {
                expected: op.rows(),
                got: y.len(),
            }
            .into());
        }
        if let Some(index) = y.iter().position(|v| !v.is_finite()) {
            return Err(CoreError::NonFiniteMeasurement { index });
        }
        // Finite entries can still square-sum past f64::MAX; every
        // solver norm of such a `y` is then ±Inf or NaN, and FISTA's
        // iterates would overflow the same way.
        if !flexcs_linalg::vecops::norm2(y).is_finite() {
            return Err(CoreError::MeasurementOverflow);
        }
        // Scale λ for LASSO-type solvers relative to the measurement
        // correlations so behaviour is signal-amplitude invariant.
        let solver = self.scaled_solver(solver_override.unwrap_or(&self.solver), &op, y);
        drop(setup_span);
        let solve_span = tel::span("decode.solve");
        let recovery = with_solve_workspace(|ws| solver.solve_warm(&op, y, ws, &mut state.warm))?;
        drop(solve_span);
        if tel::enabled() {
            tel::histogram(
                "decode.solver_iterations",
                recovery.report.iterations as f64,
            );
            tel::histogram("decode.residual_norm", recovery.report.residual_norm);
        }
        let inverse_span = tel::span("decode.inverse");
        let coefficients = devectorize(&recovery.x, rows, cols)?;
        let frame = match self.basis {
            BasisKind::Dct => op.plan().inverse(&coefficients)?,
            BasisKind::Haar => haar2d_full_inverse(&coefficients)?,
        };
        drop(inverse_span);
        Ok(Reconstruction {
            frame,
            coefficients,
            report: recovery.report,
        })
    }

    /// Returns the cached plan when its shape matches, otherwise builds
    /// and caches a fresh one. Shared plans are safe across threads —
    /// `Dct2d` keeps its scratch per thread, so no lock is taken — and
    /// parallel resample rounds all borrow the same tables.
    pub(crate) fn plan_for(&self, rows: usize, cols: usize) -> Result<Arc<Dct2d>> {
        let mut cache = self.plan_cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = cache.as_ref() {
            if plan.shape() == (rows, cols) {
                return Ok(Arc::clone(plan));
            }
        }
        let plan = Arc::new(Dct2d::new(rows, cols)?);
        *cache = Some(Arc::clone(&plan));
        Ok(plan)
    }

    fn scaled_solver(
        &self,
        base: &SparseSolver,
        op: &SubsampledDctOperator,
        y: &[f64],
    ) -> SparseSolver {
        match base {
            SparseSolver::Fista(cfg) | SparseSolver::Ista(cfg) => {
                let scale = flexcs_linalg::vecops::norm_inf(&op.apply_transpose(y));
                let mut scaled = cfg.clone();
                if scale > 0.0 {
                    scaled.lambda = cfg.lambda * scale;
                }
                match base {
                    SparseSolver::Fista(_) => SparseSolver::Fista(scaled),
                    _ => SparseSolver::Ista(scaled),
                }
            }
            other => other.clone(),
        }
    }
}

impl Default for Decoder {
    /// FISTA with relative `λ = 2e-3`, 400 iterations — fast and robust
    /// for the paper's 32x32 frames.
    fn default() -> Self {
        let mut cfg = IstaConfig::with_lambda(2e-3);
        cfg.max_iterations = 400;
        cfg.tol = 1e-7;
        Decoder::new(SparseSolver::Fista(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplingPlan;
    use flexcs_solver::{GreedyConfig, LpConfig};

    /// A frame that is exactly K-sparse in the DCT domain.
    fn sparse_frame(rows: usize, cols: usize) -> Matrix {
        let dct = Dct2d::new(rows, cols).unwrap();
        let mut coeffs = Matrix::zeros(rows, cols);
        coeffs[(0, 0)] = 5.0;
        coeffs[(0, 1)] = 2.0;
        coeffs[(1, 0)] = -1.5;
        coeffs[(2, 2)] = 1.0;
        coeffs[(1, 3)] = 0.8;
        dct.inverse(&coeffs).unwrap()
    }

    #[test]
    fn fista_decoder_reconstructs_sparse_frame() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 40, &[], 5).unwrap();
        let y = plan.measure(&frame.to_flat());
        let rec = Decoder::default()
            .reconstruct(8, 8, plan.selected(), &y)
            .unwrap();
        assert!(
            rec.frame.max_abs_diff(&frame).unwrap() < 0.02,
            "error {}",
            rec.frame.max_abs_diff(&frame).unwrap()
        );
    }

    #[test]
    fn degenerate_selections_are_rejected() {
        let decoder = Decoder::default();
        for (selected, y) in [(vec![3, 3, 7], vec![1.0, 1.0, 0.5]), (vec![], vec![])] {
            assert!(
                matches!(
                    decoder.reconstruct(4, 4, &selected, &y),
                    Err(CoreError::InvalidConfig(_))
                ),
                "{selected:?} accepted"
            );
        }
    }

    #[test]
    fn measurement_count_mismatch_is_a_typed_error() {
        let result = Decoder::default().reconstruct(4, 4, &[1, 5, 9], &[1.0, 2.0]);
        assert!(matches!(
            result,
            Err(CoreError::Solver(SolverError::DimensionMismatch {
                expected: 3,
                got: 2
            }))
        ));
    }

    #[test]
    fn non_finite_measurements_are_a_typed_error() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 40, &[], 5).unwrap();
        let clean = plan.measure(&frame.to_flat());
        let solvers = [
            SparseSolver::Fista(IstaConfig::default()),
            SparseSolver::Omp(GreedyConfig::with_sparsity(5)),
            SparseSolver::LpBasisPursuit(LpConfig::default()),
        ];
        for solver in solvers {
            let decoder = Decoder::new(solver);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut y = clean.clone();
                y[3] = bad;
                let result = decoder.reconstruct(8, 8, plan.selected(), &y);
                assert_eq!(
                    result.err(),
                    Some(CoreError::NonFiniteMeasurement { index: 3 }),
                    "{:?} accepted y[3] = {bad}",
                    decoder.solver()
                );
            }
        }
    }

    #[test]
    fn overflowing_measurement_norms_are_a_typed_error() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 32, &[], 5).unwrap();
        let clean = plan.measure(&frame.to_flat());
        let decoder = Decoder::default();
        for scale in [1e160, 1e308] {
            let y: Vec<f64> = clean.iter().map(|v| v * scale).collect();
            assert!(y.iter().all(|v| v.is_finite()));
            assert_eq!(
                decoder.reconstruct(8, 8, plan.selected(), &y).err(),
                Some(CoreError::MeasurementOverflow),
                "y scaled by {scale:e} accepted"
            );
        }
        // Large but representable norms still decode.
        let y: Vec<f64> = clean.iter().map(|v| v * 1e150).collect();
        let rec = decoder.reconstruct(8, 8, plan.selected(), &y).unwrap();
        assert!(rec.report.residual_norm.is_finite());
        assert!(rec.frame.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn reentrant_warm_decode_falls_back_to_a_fresh_workspace() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 40, &[], 5).unwrap();
        let y = plan.measure(&frame.to_flat());
        let decoder = Decoder::default();
        let decode = || {
            let mut state = DecodeWarmState::new();
            decoder
                .reconstruct_warm(8, 8, plan.selected(), &y, &mut state)
                .unwrap()
        };
        let outer = decode();
        // With this thread's workspace already borrowed, the nested
        // decode runs on a fresh one, and a fresh workspace gives the
        // same bits as a reused one.
        let nested = with_solve_workspace(|_| decode());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&nested.frame), bits(&outer.frame));
        assert_eq!(nested.report.iterations, outer.report.iterations);
    }

    #[test]
    fn block_pipeline_rejects_non_finite_measurements() {
        use crate::blocks::{BlockGrid, BlockGridConfig, BlockPipeline, BlockPipelineConfig};
        let frame = Matrix::from_fn(32, 32, |i, j| (i as f64 * 0.1).cos() + j as f64 * 0.01);
        let grid = BlockGrid::new(
            32,
            32,
            BlockGridConfig {
                block: 16,
                overlap: 0,
            },
        )
        .unwrap();
        let mut meas = grid.measure(&frame, 0.5, &[], 11).unwrap();
        meas.blocks[2].y[0] = f64::INFINITY;
        let pipeline = BlockPipeline::new(Decoder::default(), BlockPipelineConfig::default());
        assert_eq!(
            pipeline.decode(&grid, &meas).err(),
            Some(CoreError::NonFiniteMeasurement { index: 0 })
        );
    }

    #[test]
    fn greedy_decoder_reconstructs_exactly() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 40, &[], 6).unwrap();
        let y = plan.measure(&frame.to_flat());
        let decoder = Decoder::new(SparseSolver::Omp(GreedyConfig::with_sparsity(5)));
        let rec = decoder.reconstruct(8, 8, plan.selected(), &y).unwrap();
        assert!(rec.frame.max_abs_diff(&frame).unwrap() < 1e-8);
        assert!(rec.report.converged);
    }

    #[test]
    fn lp_decoder_works() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 40, &[], 8).unwrap();
        let y = plan.measure(&frame.to_flat());
        let decoder = Decoder::new(SparseSolver::LpBasisPursuit(LpConfig::default()));
        let rec = decoder.reconstruct(8, 8, plan.selected(), &y).unwrap();
        assert!(
            rec.frame.max_abs_diff(&frame).unwrap() < 0.01,
            "error {}",
            rec.frame.max_abs_diff(&frame).unwrap()
        );
    }

    #[test]
    fn coefficients_match_frame() {
        let frame = sparse_frame(8, 8);
        let plan = SamplingPlan::random_subset(64, 48, &[], 9).unwrap();
        let y = plan.measure(&frame.to_flat());
        let rec = Decoder::default()
            .reconstruct(8, 8, plan.selected(), &y)
            .unwrap();
        let from_coeffs = Dct2d::new(8, 8)
            .unwrap()
            .inverse(&rec.coefficients)
            .unwrap();
        assert!(from_coeffs.max_abs_diff(&rec.frame).unwrap() < 1e-12);
    }

    #[test]
    fn haar_basis_decoder_reconstructs_piecewise_constant() {
        use flexcs_transform::haar2d_full_inverse;
        // A frame that is exactly sparse in the Haar basis (few wavelet
        // coefficients) — blocky structure the DCT handles poorly.
        let mut coeffs = Matrix::zeros(8, 8);
        coeffs[(0, 0)] = 4.0;
        coeffs[(1, 0)] = 1.5;
        coeffs[(0, 1)] = -1.0;
        coeffs[(2, 2)] = 0.7;
        let frame = haar2d_full_inverse(&coeffs).unwrap();
        let plan = SamplingPlan::random_subset(64, 40, &[], 3).unwrap();
        let y = plan.measure(&frame.to_flat());
        let decoder = Decoder::default().with_basis(crate::BasisKind::Haar);
        let rec = decoder.reconstruct(8, 8, plan.selected(), &y).unwrap();
        assert!(
            rec.frame.max_abs_diff(&frame).unwrap() < 0.05,
            "haar error {}",
            rec.frame.max_abs_diff(&frame).unwrap()
        );
    }

    #[test]
    fn mismatched_measurements_rejected() {
        let decoder = Decoder::default();
        let e = decoder.reconstruct(4, 4, &[0, 1, 2], &[1.0, 2.0]);
        assert!(e.is_err());
    }
}
