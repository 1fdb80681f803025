//! Property-based tests for the sparse-recovery solvers.

use flexcs_linalg::{vecops, Matrix, SplitMix64};
use flexcs_solver::{
    fista, ista, lp_basis_pursuit, omp, DenseOperator, GreedyConfig, IstaConfig, LinearOperator,
    LpConfig, SolveWorkspace, WarmStart,
};
use proptest::prelude::*;

/// Deterministic Gaussian operator from a seed (normalized columns in
/// expectation).
fn gaussian_op(m: usize, n: usize, seed: u64) -> DenseOperator {
    let mut rng = SplitMix64::new(seed);
    let scale = 1.0 / (m as f64).sqrt();
    DenseOperator::new(Matrix::from_fn(m, n, |_, _| rng.gaussian() * scale))
}

/// K-sparse ground truth with magnitudes >= 1 at seeded positions.
fn sparse_truth(n: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut x = vec![0.0; n];
    let mut placed = 0;
    while placed < k {
        let idx = (next() * n as f64) as usize % n;
        if x[idx] == 0.0 {
            x[idx] = if next() < 0.5 { -1.0 } else { 1.0 } * (1.0 + next());
            placed += 1;
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn omp_converged_implies_exact_recovery(seed in 0u64..500, k in 1usize..6) {
        // Random Gaussian ensembles occasionally defeat greedy atom
        // selection (a weak column plus a correlated impostor), in which
        // case OMP reports non-convergence. The sound property is the
        // implication: a converged report means the truth was found —
        // a wrong support fitting b exactly has probability zero.
        let (m, n) = (12 * k + 12, 24 * k + 20);
        let op = gaussian_op(m, n, seed);
        let x = sparse_truth(n, k, seed + 1);
        let b = op.apply(&x);
        let rec = omp(&op, &b, &GreedyConfig::with_sparsity(k), &mut SolveWorkspace::new()).unwrap();
        if rec.report.converged {
            let err = vecops::norm2(&vecops::sub(&rec.x, &x));
            prop_assert!(err < 1e-6 * vecops::norm2(&x), "err {err}");
        }
    }

    #[test]
    fn fista_objective_never_worse_than_zero_vector(seed in 0u64..500) {
        let op = gaussian_op(20, 50, seed);
        let x = sparse_truth(50, 4, seed + 2);
        let b = op.apply(&x);
        let cfg = IstaConfig::with_lambda(1e-2);
        let rec = fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap();
        // Objective at 0 is ½‖b‖²; the solver must do at least as well.
        let zero_obj = 0.5 * vecops::dot(&b, &b);
        prop_assert!(rec.report.objective <= zero_obj + 1e-9);
    }

    #[test]
    fn fista_solution_sparser_with_larger_lambda(seed in 0u64..200) {
        let op = gaussian_op(24, 60, seed);
        let x = sparse_truth(60, 5, seed + 3);
        let b = op.apply(&x);
        let mut small = IstaConfig::with_lambda(1e-4);
        small.max_iterations = 600;
        let mut large = IstaConfig::with_lambda(5e-1);
        large.max_iterations = 600;
        let rec_small = fista(&op, &b, &small, &mut SolveWorkspace::new(), None).unwrap();
        let rec_large = fista(&op, &b, &large, &mut SolveWorkspace::new(), None).unwrap();
        prop_assert!(
            rec_large.support_size(1e-8) <= rec_small.support_size(1e-8)
        );
    }

    #[test]
    fn basis_pursuit_feasible_and_l1_optimal_vs_truth(seed in 0u64..200) {
        let (m, n, k) = (30, 60, 3);
        let op = gaussian_op(m, n, seed);
        let x = sparse_truth(n, k, seed + 4);
        let b = op.apply(&x);
        let rec = lp_basis_pursuit(&op, &b, &LpConfig::default()).unwrap();
        // Feasibility.
        prop_assert!(rec.report.residual_norm < 1e-4 * (1.0 + vecops::norm2(&b)));
        // L1 optimality relative to the (feasible) truth.
        prop_assert!(vecops::norm1(&rec.x) <= vecops::norm1(&x) * (1.0 + 1e-3));
    }

    #[test]
    fn warm_fista_matches_cold_solution(seed in 0u64..200) {
        // Overdetermined LASSO (strongly convex): the minimizer is
        // unique, so a warm-seeded solve must land on the same point as
        // the cold one, well inside the solver tolerance.
        let (m, n, k) = (40, 24, 4);
        let op = gaussian_op(m, n, seed);
        let x = sparse_truth(n, k, seed + 7);
        let b = op.apply(&x);
        let mut cfg = IstaConfig::with_lambda(1e-3);
        cfg.max_iterations = 2000;
        cfg.tol = 1e-12;
        let cold = fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap();
        let mut ws = SolveWorkspace::new();
        let mut warm = WarmStart::new();
        fista(&op, &b, &cfg, &mut ws, Some(&mut warm)).unwrap(); // round 1: cold, records seed
        let rewarmed = fista(&op, &b, &cfg, &mut ws, Some(&mut warm)).unwrap();
        let diff = vecops::norm2(&vecops::sub(&rewarmed.x, &cold.x));
        prop_assert!(diff < 1e-8 * (1.0 + vecops::norm2(&cold.x)), "diff {diff}");
    }

    #[test]
    fn warm_second_round_never_needs_more_iterations(seed in 0u64..200) {
        // Re-solving the same instance from the previous solution must
        // not cost more iterations than the cold solve did.
        let (m, n, k) = (30, 60, 4);
        let op = gaussian_op(m, n, seed);
        let x = sparse_truth(n, k, seed + 8);
        let b = op.apply(&x);
        let mut cfg = IstaConfig::with_lambda(1e-3);
        cfg.max_iterations = 1500;
        let mut ws = SolveWorkspace::new();
        let mut warm = WarmStart::new();
        let first = fista(&op, &b, &cfg, &mut ws, Some(&mut warm)).unwrap();
        let second = fista(&op, &b, &cfg, &mut ws, Some(&mut warm)).unwrap();
        prop_assert!(
            second.report.iterations <= first.report.iterations,
            "warm {} vs cold {}", second.report.iterations, first.report.iterations
        );
        prop_assert_eq!(warm.warm_starts(), 1);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh(seed in 0u64..200) {
        // One workspace carried across solvers and instances: every
        // result must match a solve on a fresh workspace bit for bit.
        let (m, n, k) = (20, 40, 3);
        let mut ws = SolveWorkspace::new();
        for round in 0..2u64 {
            let op = gaussian_op(m, n, seed + round * 31);
            let x = sparse_truth(n, k, seed + 9 + round);
            let b = op.apply(&x);
            let cfg = IstaConfig::with_lambda(1e-3);
            let a = fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap();
            let a_reused = fista(&op, &b, &cfg, &mut ws, None).unwrap();
            prop_assert_eq!(a.x, a_reused.x);
            let c = ista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap();
            let c_reused = ista(&op, &b, &cfg, &mut ws, None).unwrap();
            prop_assert_eq!(c.x, c_reused.x);
        }
    }

    #[test]
    fn greedy_workspace_reuse_is_bit_identical_to_fresh(seed in 0u64..200, k in 1usize..6) {
        // One workspace carried across two problem instances: every OMP
        // result must match a solve on a fresh workspace bit for bit,
        // including iteration counts.
        let (m, n) = (10 * k + 10, 20 * k + 16);
        let mut ws = SolveWorkspace::new();
        for round in 0..2u64 {
            let op = gaussian_op(m, n, seed + round * 17);
            let x = sparse_truth(n, k, seed + 11 + round);
            let b = op.apply(&x);
            let cfg = GreedyConfig::with_sparsity(k);
            let a = omp(&op, &b, &cfg, &mut SolveWorkspace::new()).unwrap();
            let a_reused = omp(&op, &b, &cfg, &mut ws).unwrap();
            prop_assert_eq!(a.x, a_reused.x);
            prop_assert_eq!(a.report.iterations, a_reused.report.iterations);
        }
    }

    #[test]
    fn operator_scaling_scales_recovery(seed in 0u64..200, alpha in 0.1..5.0f64) {
        // Solving with measurements α·b recovers α·x for basis pursuit
        // (positive homogeneity of the L1 problem).
        let (m, n, k) = (20, 40, 3);
        let op = gaussian_op(m, n, seed);
        let x = sparse_truth(n, k, seed + 6);
        let b = op.apply(&x);
        let scaled: Vec<f64> = b.iter().map(|v| v * alpha).collect();
        let r1 = lp_basis_pursuit(&op, &b, &LpConfig::default()).unwrap();
        let r2 = lp_basis_pursuit(&op, &scaled, &LpConfig::default()).unwrap();
        // The interior-point method's absolute stopping tolerances
        // break exact homogeneity, so require agreement to ~2 % at the
        // whole-vector level.
        let scaled_x: Vec<f64> = r1.x.iter().map(|v| v * alpha).collect();
        let diff = vecops::norm2(&vecops::sub(&scaled_x, &r2.x));
        let scale = alpha * vecops::norm2(&r1.x);
        prop_assert!(diff < 2e-2 * scale.max(1e-9), "diff {diff} at scale {scale}");
    }
}

proptest! {
    // Fewer cases: the near-exact FISTA reference solve (λ = 1e-6,
    // tol = 1e-12) is by far the most expensive solve in this file.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn omp_matches_fista_on_truly_sparse_signals(seed in 0u64..100, k in 1usize..5) {
        // On genuinely K-sparse signals with a comfortable measurement
        // margin, a converged OMP must land on the FISTA answer: same
        // support and a residual within tolerance — the property the
        // adaptive decode tier's greedy routing relies on.
        let (m, n) = (14 * k + 16, 24 * k + 24);
        let op = gaussian_op(m, n, seed.wrapping_mul(7) + 3);
        let x = sparse_truth(n, k, seed + 13);
        let b = op.apply(&x);
        let greedy = omp(&op, &b, &GreedyConfig::with_sparsity(k), &mut SolveWorkspace::new()).unwrap();
        if greedy.report.converged {
            prop_assert!(greedy.report.residual_norm <= 1e-6 * vecops::norm2(&b));
            let mut cfg = IstaConfig::with_lambda(1e-6);
            cfg.max_iterations = 30_000;
            cfg.tol = 1e-12;
            let convex = fista(&op, &b, &cfg, &mut SolveWorkspace::new(), None).unwrap();
            // Same support: the K largest-magnitude FISTA entries sit
            // exactly where OMP put its atoms (true entries are >= 1,
            // spurious LASSO shrinkage residue is far smaller).
            let mut greedy_support = vecops::top_k_indices(&greedy.x, k);
            let mut convex_support = vecops::top_k_indices(&convex.x, k);
            greedy_support.sort_unstable();
            convex_support.sort_unstable();
            prop_assert_eq!(greedy_support, convex_support);
            // And the same coefficients to within the LASSO bias.
            let diff = vecops::norm2(&vecops::sub(&greedy.x, &convex.x));
            prop_assert!(diff < 5e-2 * vecops::norm2(&x), "diff {diff}");
        }
    }
}
