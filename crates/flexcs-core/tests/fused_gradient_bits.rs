//! The subsampled DCT operator's fused FISTA gradient keeps the bits of
//! the unfused composition it replaces.
//!
//! [`LinearOperator::gradient_into`] on [`SubsampledDctOperator`] runs
//! `Ψᵀ(mask ⊙ Ψy − Φᵀb)` in one staging pass; the trait default runs
//! `apply_into`, `sub_into` and `apply_transpose_into`. The property
//! test pins one to the other bit for bit on fast (32×32, 64×64) and
//! dense non-power-of-two (24×40) shapes, with one sample, every pixel
//! sampled and random subsets, and with NaN and ±∞ planted in `y` and
//! `b`. The solve test runs FISTA, cold and then warm (where adaptive
//! restart is on), through a wrapper that forwards only the applies, as
//! a timing wrapper does, and requires the direct operator's `x` and
//! report bit for bit.

use flexcs_core::{SamplingPlan, SubsampledDctOperator};
use flexcs_linalg::vecops;
use flexcs_solver::{fista, IstaConfig, LinearOperator, SolveWorkspace, WarmStart};
use proptest::prelude::*;

/// Forwards `apply`/`apply_transpose` (and their `_into` forms) only, so
/// the solver's staging and gradient calls take the trait defaults.
struct AppliesOnly<'a>(&'a SubsampledDctOperator);

impl LinearOperator for AppliesOnly<'_> {
    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn cols(&self) -> usize {
        self.0.cols()
    }

    fn apply(&self, x: &[f64]) -> Vec<f64> {
        self.0.apply(x)
    }

    fn apply_transpose(&self, y: &[f64]) -> Vec<f64> {
        self.0.apply_transpose(y)
    }

    fn apply_into(&self, x: &[f64], out: &mut Vec<f64>) {
        self.0.apply_into(x, out);
    }

    fn apply_transpose_into(&self, y: &[f64], out: &mut Vec<f64>) {
        self.0.apply_transpose_into(y, out);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Values planted in `y` and `b`: both infinities and NaNs.
const SPECIALS: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];

/// The fused gradient against the unfused composition, both with stale
/// content in every output and scratch buffer.
fn check_gradient(op: &SubsampledDctOperator, y: &[f64], b: &[f64]) {
    let mut staged = vec![7.0; 5];
    op.stage_measurements(b, &mut staged);
    let (mut ax, mut r, mut fused) = (vec![7.0; 3], vec![7.0; 3], vec![7.0; 3]);
    op.gradient_into(y, &staged, &mut ax, &mut r, &mut fused);

    let (mut ax, mut r, mut unfused) = (vec![7.0; 3], vec![7.0; 3], vec![7.0; 3]);
    op.apply_into(y, &mut ax);
    vecops::sub_into(&mut r, &ax, b);
    op.apply_transpose_into(&r, &mut unfused);
    assert_eq!(bits(&fused), bits(&unfused), "{:?}", op.frame_shape());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_gradient_matches_unfused_bitwise(
        shape in 0usize..3,
        size in 0usize..3,
        seed in 0u64..u64::MAX,
        plant_y in proptest::collection::vec(0usize..64 * 64, 0..4),
        plant_b in proptest::collection::vec(0usize..64 * 64, 0..4),
        kinds in proptest::collection::vec(0usize..SPECIALS.len(), 8),
    ) {
        let (rows, cols) = [(32, 32), (64, 64), (24, 40)][shape];
        let n = rows * cols;
        let m = [1, n, 1 + (seed % n as u64) as usize][size];
        let plan = SamplingPlan::random_subset(n, m, &[], seed).unwrap();
        let op = SubsampledDctOperator::new(rows, cols, plan.selected().to_vec()).unwrap();
        let mut y: Vec<f64> = (0..n)
            .map(|i| ((i as f64 + 1.0) * (seed % 997) as f64 * 1e-3).sin())
            .collect();
        let mut b: Vec<f64> = (0..m)
            .map(|i| ((i as f64 + 0.5) * (seed % 991) as f64 * 1e-3).cos())
            .collect();
        check_gradient(&op, &y, &b);
        for (&at, &kind) in plant_y.iter().zip(&kinds) {
            y[at % n] = SPECIALS[kind];
        }
        for (&at, &kind) in plant_b.iter().zip(kinds.iter().rev()) {
            b[at % m] = SPECIALS[kind];
        }
        check_gradient(&op, &y, &b);
    }
}

#[test]
fn fista_through_an_applies_only_wrapper_matches_the_direct_operator() {
    let (rows, cols) = (32, 32);
    let n = rows * cols;
    let frame: Vec<f64> = (0..n)
        .map(|i| {
            let (r, c) = ((i / cols) as f64, (i % cols) as f64);
            0.5 + 0.3 * (r * 0.4).sin() + 0.2 * (c * 0.3).cos()
        })
        .collect();
    let mut cfg = IstaConfig::with_lambda(1e-3);
    cfg.max_iterations = 300;
    let (mut direct_ws, mut wrapped_ws) = (SolveWorkspace::new(), SolveWorkspace::new());
    let (mut direct_warm, mut wrapped_warm) = (WarmStart::new(), WarmStart::new());
    for round in 0..4 {
        let plan = SamplingPlan::random_subset(n, n / 2, &[], 11 + round).unwrap();
        let op = SubsampledDctOperator::new(rows, cols, plan.selected().to_vec()).unwrap();
        let b: Vec<f64> = plan.selected().iter().map(|&i| frame[i]).collect();
        let direct = fista(&op, &b, &cfg, &mut direct_ws, Some(&mut direct_warm)).unwrap();
        let wrapped = fista(
            &AppliesOnly(&op),
            &b,
            &cfg,
            &mut wrapped_ws,
            Some(&mut wrapped_warm),
        )
        .unwrap();
        assert_eq!(bits(&direct.x), bits(&wrapped.x), "round {round}");
        let report_bits = |r: &flexcs_solver::SolveReport| {
            (
                r.iterations,
                r.residual_norm.to_bits(),
                r.converged,
                r.objective.to_bits(),
            )
        };
        assert_eq!(
            report_bits(&direct.report),
            report_bits(&wrapped.report),
            "round {round}"
        );
    }
    assert!(direct_warm.warm_starts() > 0);
    assert_eq!(direct_warm.restarts(), wrapped_warm.restarts());
}
