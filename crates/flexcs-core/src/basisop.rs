//! The implicit measurement operator `A = Φ_M·Ψ` (paper Eq. 8).
//!
//! `Ψ` maps DCT coefficients to pixels (2-D inverse DCT); `Φ_M` gathers
//! the sampled pixels. Keeping the operator implicit lets FISTA-class
//! solvers run in O(N^1.5) per iteration instead of O(M·N) dense
//! products — the practical difference between decoding a 32x32 frame in
//! milliseconds versus materializing a 512x1024 matrix.

use crate::error::{CoreError, Result};
use flexcs_solver::LinearOperator;
use flexcs_transform::Dct2d;
use std::sync::Arc;

/// The operator's sparsity basis: only the paper's 2-D DCT. The Haar
/// wavelet basis was retired after it measured 2.6–3.5× the DCT's RMSE
/// (EXPERIMENTS.md). This one-variant type and the argument
/// [`SubsampledDctOperator::with_plan`] ignores remain only because the
/// benchmark's `replay.rs` spells them; both go with that replay
/// (ROADMAP item 10).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BasisKind {
    /// 2-D orthonormal DCT (the paper's basis).
    #[default]
    Dct,
}

/// Implicit `Φ_M·Ψ` operator for identity-subset sampling over the
/// orthonormal 2-D DCT basis.
#[derive(Debug, Clone)]
pub struct SubsampledDctOperator {
    rows: usize,
    cols: usize,
    plan: Arc<Dct2d>,
    selected: Vec<usize>,
    /// `selected` in the layout the plan's fused sampled transforms
    /// read and write ([`Dct2d::sample_positions`]).
    positions: Vec<usize>,
    /// One word per slot of that layout: all ones at `positions`, zero
    /// elsewhere ([`Dct2d::masked_residual_forward`]).
    mask: Vec<u64>,
}

impl SubsampledDctOperator {
    /// Creates the operator for a `rows x cols` frame sampled at the
    /// given strictly ascending pixel indices, in the DCT basis.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for empty dimensions, an
    /// empty selection, indices that are out of range or not strictly
    /// ascending (a repeated index would make the scatter in
    /// [`LinearOperator::apply_transpose`] overwrite instead of
    /// accumulate, so `Aᵀ` would no longer be `A`'s adjoint).
    pub fn new(rows: usize, cols: usize, selected: Vec<usize>) -> Result<Self> {
        let plan = Arc::new(Dct2d::new(rows, cols)?);
        Self::with_plan(rows, cols, selected, BasisKind::Dct, plan)
    }

    /// Creates the operator around an existing (shared) 2-D DCT plan.
    ///
    /// Building a plan precomputes twiddle tables, so callers decoding
    /// many sampling patterns of the same frame shape — the decoder's
    /// resample-median rounds, batch runs — share one plan instead of
    /// rebuilding it per operator. The plan's internal scratch is
    /// contention-safe, so one `Arc` may serve concurrent operators.
    ///
    /// The basis is always the DCT: the `BasisKind` argument is ignored
    /// and goes with the benchmark's `replay.rs`, which passes it
    /// (ROADMAP item 10).
    ///
    /// # Errors
    ///
    /// As [`SubsampledDctOperator::new`]; additionally the plan shape
    /// must match `rows x cols`.
    pub fn with_plan(
        rows: usize,
        cols: usize,
        selected: Vec<usize>,
        _basis: BasisKind,
        plan: Arc<Dct2d>,
    ) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(CoreError::InvalidConfig(
                "operator needs positive dimensions".to_string(),
            ));
        }
        if selected.is_empty() {
            return Err(CoreError::InvalidConfig(
                "operator needs at least one selected pixel".to_string(),
            ));
        }
        if selected.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CoreError::InvalidConfig(
                "selected indices must be strictly ascending".to_string(),
            ));
        }
        // Strictly ascending, so the last index is the largest.
        if selected[selected.len() - 1] >= rows * cols {
            return Err(CoreError::InvalidConfig(
                "selected index out of range".to_string(),
            ));
        }
        if plan.shape() != (rows, cols) {
            return Err(CoreError::InvalidConfig(format!(
                "plan shape {:?} does not match frame {rows}x{cols}",
                plan.shape()
            )));
        }
        let positions = plan.sample_positions(&selected)?;
        let mut mask = vec![0; rows * cols];
        for &p in &positions {
            mask[p] = u64::MAX;
        }
        Ok(SubsampledDctOperator {
            rows,
            cols,
            plan,
            selected,
            positions,
            mask,
        })
    }

    /// The shared 2-D DCT plan.
    pub fn plan(&self) -> &Arc<Dct2d> {
        &self.plan
    }

    /// Frame shape.
    pub fn frame_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Sampled pixel indices.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }
}

impl LinearOperator for SubsampledDctOperator {
    fn rows(&self) -> usize {
        self.selected.len()
    }

    fn cols(&self) -> usize {
        self.rows * self.cols
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.apply_into(x, &mut out);
        out
    }

    fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.apply_transpose_into(y, &mut out);
        out
    }

    fn apply_into(&self, x: &[f64], out: &mut Vec<f64>) {
        // Ψ·x (synthesis), then gather the sampled pixels. The gather
        // runs inside the transform, from its transposed staging
        // buffer, and allocates nothing once the thread scratch is warm.
        out.resize(self.selected.len(), 0.0);
        self.plan
            .inverse_gather(x, &self.positions, out)
            .expect("length checked by caller");
    }

    fn apply_transpose_into(&self, y: &[f64], out: &mut Vec<f64>) {
        // Ψᵀ·Φᵀ·y = analysis(scatter(y)); Ψ orthonormal so Ψᵀ = Ψ⁻¹.
        out.resize(self.rows * self.cols, 0.0);
        self.plan
            .scatter_forward(y, &self.positions, out)
            .expect("length checked by caller");
    }

    fn stage_measurements(&self, b: &[f64], staged: &mut Vec<f64>) {
        // Φᵀ·b, once per solve, in the plan's staging layout.
        staged.clear();
        staged.resize(self.rows * self.cols, 0.0);
        for (&p, &v) in self.positions.iter().zip(b) {
            staged[p] = v;
        }
    }

    fn gradient_into(
        &self,
        y: &[f64],
        staged: &[f64],
        _ax: &mut Vec<f64>,
        _r: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        // Ψᵀ(mask ⊙ Ψy − Φᵀb) in one pass through the staging buffer.
        out.resize(self.rows * self.cols, 0.0);
        self.plan
            .masked_residual_forward(y, staged, &self.mask, out)
            .expect("lengths checked by caller");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplingPlan;
    use flexcs_linalg::{vecops, Matrix};
    use flexcs_transform::{devectorize, psi_matrix};
    use proptest::prelude::*;

    /// The unfused forward path: devectorize, full inverse 2-D DCT,
    /// then gather the sampled pixels.
    fn unfused_apply(op: &SubsampledDctOperator, x: &[f64]) -> Vec<f64> {
        let (rows, cols) = op.frame_shape();
        let coeffs = devectorize(x, rows, cols).unwrap();
        let frame = op.plan().inverse(&coeffs).unwrap();
        op.selected().iter().map(|&i| frame.as_slice()[i]).collect()
    }

    /// The unfused adjoint path: scatter into a zero frame, then the
    /// full forward 2-D DCT.
    fn unfused_apply_transpose(op: &SubsampledDctOperator, y: &[f64]) -> Vec<f64> {
        let (rows, cols) = op.frame_shape();
        let mut frame = Matrix::zeros(rows, cols);
        for (&i, &v) in op.selected().iter().zip(y) {
            frame.as_mut_slice()[i] = v;
        }
        op.plan().forward(&frame).unwrap().to_flat()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused gather/scatter transforms change data movement
        /// only: every product equals the unfused composition bit for
        /// bit, on fast (8x8, 32x32, 16x32), mixed (12x8: dense
        /// columns, fast rows) and dense (5x7) shapes.
        #[test]
        fn fused_products_match_unfused_bitwise(
            shape in 0usize..5,
            density in 0.02f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            let (rows, cols) = [(8, 8), (32, 32), (16, 32), (12, 8), (5, 7)][shape];
            let n = rows * cols;
            let m = ((n as f64 * density) as usize).clamp(1, n);
            let plan = SamplingPlan::random_subset(n, m, &[], seed).unwrap();
            let op = SubsampledDctOperator::new(rows, cols, plan.selected().to_vec()).unwrap();
            let x: Vec<f64> = (0..n)
                .map(|i| ((i as f64 + 1.0) * (seed % 997) as f64 * 1e-3).sin())
                .collect();
            let y: Vec<f64> = (0..m)
                .map(|i| ((i as f64 + 0.5) * (seed % 991) as f64 * 1e-3).cos())
                .collect();
            let (mut ax, mut aty) = (vec![7.0; 3], vec![7.0; 3]);
            op.apply_into(&x, &mut ax);
            op.apply_transpose_into(&y, &mut aty);
            prop_assert_eq!(bits(&ax), bits(&unfused_apply(&op, &x)));
            prop_assert_eq!(bits(&aty), bits(&unfused_apply_transpose(&op, &y)));
            prop_assert_eq!(bits(&op.apply(&x)), bits(&ax));
            prop_assert_eq!(bits(&op.apply_transpose(&y)), bits(&aty));
        }
    }

    #[test]
    fn matches_dense_phi_psi() {
        let (rows, cols) = (4, 5);
        let selected = vec![1, 7, 8, 13, 19];
        let op = SubsampledDctOperator::new(rows, cols, selected.clone()).unwrap();
        // Dense construction: gather rows of Ψ.
        let psi = psi_matrix(rows, cols).unwrap();
        let dense = psi.select_rows(&selected);
        let x: Vec<f64> = (0..rows * cols)
            .map(|i| ((i as f64) * 0.37).sin())
            .collect();
        let implicit = op.apply(&x);
        let explicit = dense.matvec(&x).unwrap();
        for (a, b) in implicit.iter().zip(&explicit) {
            assert!((a - b).abs() < 1e-12);
        }
        let y: Vec<f64> = (0..selected.len()).map(|i| (i as f64) - 2.0).collect();
        let implicit_t = op.apply_transpose(&y);
        let explicit_t = dense.matvec_transpose(&y).unwrap();
        for (a, b) in implicit_t.iter().zip(&explicit_t) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn adjoint_identity_holds() {
        let op = SubsampledDctOperator::new(6, 6, vec![0, 5, 11, 17, 23, 29, 35]).unwrap();
        let x: Vec<f64> = (0..36).map(|i| ((i * i) as f64 * 0.11).cos()).collect();
        let y: Vec<f64> = (0..7).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let ax = op.apply(&x);
        let aty = op.apply_transpose(&y);
        assert!((vecops::dot(&ax, &y) - vecops::dot(&x, &aty)).abs() < 1e-10);
    }

    #[test]
    fn operator_norm_at_most_one() {
        // Rows of an orthonormal matrix: spectral norm ≤ 1.
        let op = SubsampledDctOperator::new(8, 8, (0..32).collect()).unwrap();
        let norm = op.spectral_norm_estimate(40);
        assert!(norm <= 1.0 + 1e-9, "norm {norm}");
    }

    #[test]
    fn shared_plan_operators_match_owned_plan() {
        let (rows, cols) = (6, 4);
        let plan = Arc::new(Dct2d::new(rows, cols).unwrap());
        let x: Vec<f64> = (0..rows * cols)
            .map(|i| ((i as f64) * 0.29).sin())
            .collect();
        for selected in [vec![0, 3, 9, 17, 23], (0..rows * cols).step_by(2).collect()] {
            let shared = SubsampledDctOperator::with_plan(
                rows,
                cols,
                selected.clone(),
                BasisKind::Dct,
                Arc::clone(&plan),
            )
            .unwrap();
            let owned = SubsampledDctOperator::new(rows, cols, selected).unwrap();
            assert_eq!(shared.apply(&x), owned.apply(&x));
            assert!(
                Arc::ptr_eq(shared.plan(), &plan),
                "plan is shared, not cloned"
            );
        }
    }

    #[test]
    fn with_plan_rejects_shape_mismatch() {
        let plan = Arc::new(Dct2d::new(4, 4).unwrap());
        assert!(SubsampledDctOperator::with_plan(4, 5, vec![0], BasisKind::Dct, plan).is_err());
    }

    #[test]
    fn spectral_norm_is_deterministic() {
        let op = SubsampledDctOperator::new(8, 8, (0..32).collect()).unwrap();
        let first = op.spectral_norm_estimate(40);
        assert_eq!(op.spectral_norm_estimate(40).to_bits(), first.to_bits());
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(SubsampledDctOperator::new(0, 4, vec![]).is_err());
        assert!(SubsampledDctOperator::new(4, 4, vec![16]).is_err());
    }

    #[test]
    fn rejects_duplicate_unsorted_and_empty_selections() {
        // A repeated index would make the adjoint's scatter overwrite
        // instead of accumulate, so Aᵀ would stop being A's adjoint.
        for selected in [vec![3, 3, 7], vec![7, 3], vec![]] {
            assert!(
                matches!(
                    SubsampledDctOperator::new(4, 4, selected.clone()),
                    Err(CoreError::InvalidConfig(_))
                ),
                "{selected:?} accepted"
            );
        }
        assert!(SubsampledDctOperator::new(4, 4, vec![3, 7]).is_ok());
    }

    #[test]
    fn full_sampling_is_orthonormal() {
        let op = SubsampledDctOperator::new(4, 4, (0..16).collect()).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64).sqrt()).collect();
        let back = op.apply_transpose(&op.apply(&x));
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
