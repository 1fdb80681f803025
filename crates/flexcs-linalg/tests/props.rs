//! Property-based tests for the linear-algebra kernels.

use flexcs_linalg::{solve, solve_spd, vecops, Cholesky, Lu, Matrix, Qr, Rsvd, Svd};
use proptest::prelude::*;

/// Strategy: matrix entries bounded away from pathological magnitude.
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("sized"))
}

/// Strategy: well-conditioned square matrix (diagonally dominated).
fn dominant_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n, n).prop_map(move |mut m| {
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] += row_sum + 1.0;
        }
        m
    })
}

/// Strategy: SPD matrix via `AᵀA + I`.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n, n).prop_map(move |a| {
        let mut g = a.transpose().matmul(&a).expect("square");
        for i in 0..n {
            g[(i, i)] += 1.0;
        }
        g
    })
}

/// Shared body for the rsvd-vs-Jacobi shape properties: builds an
/// `m x n` rank-`r` matrix (plus ~1e-9 entrywise noise) from the drawn
/// factor entries, then checks the randomized engine against the exact
/// one-sided Jacobi kernel on the same input.
fn assert_rsvd_matches_jacobi(m: usize, n: usize, r: usize, uf: &[f64], vf: &[f64], noise: &[f64]) {
    let u = Matrix::from_vec(m, r, uf[..m * r].to_vec()).expect("sized");
    let v = Matrix::from_vec(r, n, vf[..r * n].to_vec()).expect("sized");
    let mut a = u.matmul(&v).expect("conformable factors");
    a += &Matrix::from_vec(m, n, noise.to_vec()).expect("sized");
    let exact = Svd::compute(&a).expect("jacobi svd");
    let rsvd = Rsvd::compute(&a, r).expect("rsvd");
    // Leading `r` singular values agree to 1e-8 (entries are O(1), so
    // sigma_1 is at most a few tens and both kernels resolve it to
    // working precision).
    for (j, (rs, es)) in rsvd.sigma()[..r]
        .iter()
        .zip(&exact.sigma()[..r])
        .enumerate()
    {
        assert!(
            (rs - es).abs() < 1e-8,
            "{m}x{n} rank {r} sigma[{j}]: {rs} vs {es}"
        );
    }
    // Rank r is fully captured, so the reconstruction error is bounded
    // by the injected noise mass (plus the certificate floor).
    let err = (&a - &rsvd.reconstruct()).norm_fro();
    assert!(
        err < 1e-6 * (1.0 + a.norm_fro()),
        "{m}x{n} rank {r} reconstruction error {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn lu_solves_dominant_systems(a in dominant_strategy(8), b in proptest::collection::vec(-5.0..5.0f64, 8)) {
        let x = solve(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (p, q) in ax.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-8);
        }
    }

    #[test]
    fn lu_det_sign_flips_with_row_swap(a in dominant_strategy(5)) {
        let d1 = Lu::factor(&a).unwrap().det();
        let mut swapped = a.clone();
        for j in 0..5 {
            let tmp = swapped[(0, j)];
            swapped[(0, j)] = swapped[(1, j)];
            swapped[(1, j)] = tmp;
        }
        let d2 = Lu::factor(&swapped).unwrap().det();
        prop_assert!((d1 + d2).abs() < 1e-6 * d1.abs().max(1.0));
    }

    #[test]
    fn cholesky_matches_lu_on_spd(g in spd_strategy(6), b in proptest::collection::vec(-3.0..3.0f64, 6)) {
        let x_ch = solve_spd(&g, &b).unwrap();
        let x_lu = solve(&g, &b).unwrap();
        for (p, q) in x_ch.iter().zip(&x_lu) {
            prop_assert!((p - q).abs() < 1e-7);
        }
    }

    #[test]
    fn cholesky_factor_reconstructs(g in spd_strategy(7)) {
        let ch = Cholesky::factor(&g).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        prop_assert!(rec.max_abs_diff(&g).unwrap() < 1e-8 * (1.0 + g.norm_max()));
    }

    #[test]
    fn qr_q_orthonormal_r_upper(a in matrix_strategy(9, 5)) {
        let qr = Qr::factor(&a).unwrap();
        let q = qr.q_thin();
        let qtq = q.transpose().matmul(&q).unwrap();
        prop_assert!(qtq.max_abs_diff(&Matrix::identity(5)).unwrap() < 1e-9);
        let r = qr.r();
        for i in 0..5 {
            for j in 0..i {
                prop_assert_eq!(r[(i, j)], 0.0);
            }
        }
        let rec = q.matmul(&r).unwrap();
        prop_assert!(rec.max_abs_diff(&a).unwrap() < 1e-9 * (1.0 + a.norm_max()));
    }

    #[test]
    fn least_squares_residual_orthogonal_to_columns(
        a in matrix_strategy(10, 4),
        b in proptest::collection::vec(-5.0..5.0f64, 10),
    ) {
        // Skip near-rank-deficient draws.
        let qr = Qr::factor(&a).unwrap();
        let x = match qr.solve_least_squares(&b) {
            Ok(x) => x,
            Err(_) => return Ok(()),
        };
        let ax = a.matvec(&x).unwrap();
        let r = vecops::sub(&b, &ax);
        let atr = a.matvec_transpose(&r).unwrap();
        // Normal equations: Aᵀ(b − Ax) = 0.
        prop_assert!(vecops::norm_inf(&atr) < 1e-6 * (1.0 + vecops::norm2(&b)));
    }

    #[test]
    fn svd_singular_values_nonnegative_sorted(a in matrix_strategy(6, 9)) {
        let svd = Svd::compute(&a).unwrap();
        for w in svd.sigma().windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        prop_assert!(svd.sigma().iter().all(|&s| s >= 0.0));
        // Frobenius identity: ‖A‖_F² = Σσ².
        let fro2: f64 = a.iter().map(|v| v * v).sum();
        let sig2: f64 = svd.sigma().iter().map(|s| s * s).sum();
        prop_assert!((fro2 - sig2).abs() < 1e-7 * (1.0 + fro2));
    }

    #[test]
    fn svd_truncation_error_is_eckart_young(a in matrix_strategy(7, 7), r in 1usize..6) {
        let svd = Svd::compute(&a).unwrap();
        let ar = svd.truncated(r);
        let err = (&a - &ar).norm_fro();
        let tail: f64 = svd.sigma()[r..].iter().map(|s| s * s).sum::<f64>().sqrt();
        prop_assert!((err - tail).abs() < 1e-7 * (1.0 + a.norm_fro()));
    }

    #[test]
    fn median_lies_within_range(v in proptest::collection::vec(-10.0..10.0f64, 1..20)) {
        let m = vecops::median(&v);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo && m <= hi);
    }

    #[test]
    fn rsvd_matches_jacobi_on_tall_low_rank(
        r in 1usize..7,
        uf in proptest::collection::vec(-1.0..1.0f64, 24 * 6),
        vf in proptest::collection::vec(-1.0..1.0f64, 6 * 12),
        noise in proptest::collection::vec(-1e-9..1e-9f64, 24 * 12),
    ) {
        assert_rsvd_matches_jacobi(24, 12, r, &uf, &vf, &noise);
    }

    #[test]
    fn rsvd_matches_jacobi_on_wide_low_rank(
        r in 1usize..7,
        uf in proptest::collection::vec(-1.0..1.0f64, 12 * 6),
        vf in proptest::collection::vec(-1.0..1.0f64, 6 * 24),
        noise in proptest::collection::vec(-1e-9..1e-9f64, 12 * 24),
    ) {
        assert_rsvd_matches_jacobi(12, 24, r, &uf, &vf, &noise);
    }

    #[test]
    fn rsvd_matches_jacobi_on_square_low_rank(
        r in 1usize..9,
        uf in proptest::collection::vec(-1.0..1.0f64, 16 * 8),
        vf in proptest::collection::vec(-1.0..1.0f64, 8 * 16),
        noise in proptest::collection::vec(-1e-9..1e-9f64, 16 * 16),
    ) {
        assert_rsvd_matches_jacobi(16, 16, r, &uf, &vf, &noise);
    }

    #[test]
    fn rsvd_certificate_matches_direct_projection_error(a in matrix_strategy(18, 10), r in 1usize..5) {
        // U·Sigma·Vᵀ equals Q·Qᵀ·A exactly (B's SVD is lossless), so the
        // directly computed reconstruction error must agree with the
        // Frobenius-identity certificate up to its cancellation floor
        // (~1e-8·‖A‖_F).
        let rsvd = Rsvd::compute(&a, r).unwrap();
        let err = (&a - &rsvd.reconstruct()).norm_fro();
        prop_assert!((err - rsvd.residual()).abs() < 1e-5 * (1.0 + a.norm_fro()));
    }

    #[test]
    fn rsvd_same_seed_is_bit_identical(
        a in matrix_strategy(20, 14),
        r in 1usize..6,
    ) {
        // Holds for any `FLEXCS_THREADS`: the panel fan-out is
        // bit-identical to the serial blocked kernel, and the Gaussian
        // sketch depends only on its shape.
        let r1 = Rsvd::compute(&a, r).unwrap();
        let r2 = Rsvd::compute(&a, r).unwrap();
        prop_assert_eq!(r1.sigma(), r2.sigma());
        prop_assert_eq!(r1.u().as_slice(), r2.u().as_slice());
        prop_assert_eq!(r1.v().as_slice(), r2.v().as_slice());
        prop_assert_eq!(r1.subspace().as_slice(), r2.subspace().as_slice());
    }

    #[test]
    fn top_k_indices_have_largest_magnitudes(
        v in proptest::collection::vec(-10.0..10.0f64, 15),
        k in 1usize..15,
    ) {
        let idx = vecops::top_k_indices(&v, k);
        prop_assert_eq!(idx.len(), k);
        let min_kept = idx.iter().map(|&i| v[i].abs()).fold(f64::INFINITY, f64::min);
        for (i, val) in v.iter().enumerate() {
            if !idx.contains(&i) {
                prop_assert!(val.abs() <= min_kept + 1e-12);
            }
        }
    }
}
