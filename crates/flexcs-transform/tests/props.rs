//! Property-based tests for the transform layer.

use flexcs_linalg::Matrix;
use flexcs_transform::{dwt, psi_matrix, sparsity, Dct2d, DctPlan};
use proptest::prelude::*;

fn frame_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-8.0..8.0f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).expect("sized"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dct1d_roundtrip(v in proptest::collection::vec(-5.0..5.0f64, 1..40)) {
        let plan = DctPlan::new(v.len()).unwrap();
        let back = plan.inverse(&plan.forward(&v).unwrap()).unwrap();
        for (a, b) in v.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn dct1d_linear(u in proptest::collection::vec(-5.0..5.0f64, 12), v in proptest::collection::vec(-5.0..5.0f64, 12), alpha in -3.0..3.0f64) {
        let plan = DctPlan::new(12).unwrap();
        let mix: Vec<f64> = u.iter().zip(&v).map(|(a, b)| a + alpha * b).collect();
        let lhs = plan.forward(&mix).unwrap();
        let fu = plan.forward(&u).unwrap();
        let fv = plan.forward(&v).unwrap();
        for i in 0..12 {
            prop_assert!((lhs[i] - (fu[i] + alpha * fv[i])).abs() < 1e-10);
        }
    }

    #[test]
    fn fast_dct_agrees_with_dense_plan(v in proptest::collection::vec(-5.0..5.0f64, 64)) {
        // DctPlan::new(64) already takes the fast kernel, so the dense
        // reference must be requested explicitly.
        let fast = DctPlan::new(64).unwrap().forward(&v).unwrap();
        let dense = DctPlan::with_dense(64).unwrap().forward(&v).unwrap();
        for (a, b) in fast.iter().zip(&dense) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn fast_and_dense_plans_agree_across_lengths(seed in 0u64..1000) {
        // Powers of two exercise the Lee recursion (including its
        // unrolled n = 2 base); 100 exercises the dense fallback selector.
        for n in [1usize, 2, 8, 64, 100, 256] {
            let v: Vec<f64> = (0..n)
                .map(|i| ((i as f64 + seed as f64) * 0.37).sin() * 5.0)
                .collect();
            let fast = DctPlan::new(n).unwrap();
            let dense = DctPlan::with_dense(n).unwrap();
            let ff = fast.forward(&v).unwrap();
            let df = dense.forward(&v).unwrap();
            for (a, b) in ff.iter().zip(&df) {
                prop_assert!((a - b).abs() < 1e-10, "forward n={}", n);
            }
            let fi = fast.inverse(&ff).unwrap();
            let di = dense.inverse(&df).unwrap();
            for (a, b) in fi.iter().zip(&di) {
                prop_assert!((a - b).abs() < 1e-10, "inverse n={}", n);
            }
            // And the fast inverse is exact against the input.
            for (a, b) in fi.iter().zip(&v) {
                prop_assert!((a - b).abs() < 1e-10, "roundtrip n={}", n);
            }
        }
    }

    #[test]
    fn dct2d_fast_agrees_with_dense_plan(frame in frame_strategy(8, 8)) {
        let fast = Dct2d::new(8, 8).unwrap();
        let dense = Dct2d::with_dense(8, 8).unwrap();
        let ff = fast.forward(&frame).unwrap();
        let df = dense.forward(&frame).unwrap();
        prop_assert!(ff.max_abs_diff(&df).unwrap() < 1e-10);
        let fi = fast.inverse(&ff).unwrap();
        prop_assert!(fi.max_abs_diff(&frame).unwrap() < 1e-10);
    }

    #[test]
    fn dct2d_parseval(frame in frame_strategy(6, 9)) {
        let plan = Dct2d::new(6, 9).unwrap();
        let coeffs = plan.forward(&frame).unwrap();
        prop_assert!((coeffs.norm_fro() - frame.norm_fro()).abs() < 1e-9 * (1.0 + frame.norm_fro()));
    }

    #[test]
    fn psi_matvec_equals_idct(frame in frame_strategy(4, 5)) {
        let psi = psi_matrix(4, 5).unwrap();
        let plan = Dct2d::new(4, 5).unwrap();
        let via_matrix = psi.matvec(&frame.to_flat()).unwrap();
        let via_plan = plan.inverse(&frame).unwrap().to_flat();
        for (a, b) in via_matrix.iter().zip(&via_plan) {
            prop_assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn haar_roundtrip_and_parseval(v in proptest::collection::vec(-5.0..5.0f64, 32)) {
        let y = dwt::haar_forward(&v).unwrap();
        let back = dwt::haar_inverse(&y).unwrap();
        for (a, b) in v.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-10);
        }
        let e_in: f64 = v.iter().map(|x| x * x).sum();
        let e_out: f64 = y.iter().map(|x| x * x).sum();
        prop_assert!((e_in - e_out).abs() < 1e-9 * (1.0 + e_in));
    }

    #[test]
    fn haar2d_roundtrip(frame in frame_strategy(8, 8)) {
        let y = dwt::haar2d_forward_level(&frame).unwrap();
        let back = dwt::haar2d_inverse_level(&y).unwrap();
        prop_assert!(back.max_abs_diff(&frame).unwrap() < 1e-10);
    }

    #[test]
    fn best_k_keeps_energy_order(frame in frame_strategy(5, 5), k in 1usize..25) {
        let kept = sparsity::best_k_approximation(&frame, k);
        // Energy of kept is the max over any k-subset: compare against
        // keeping the first k entries.
        let naive = {
            let mut m = frame.clone();
            let mut count = 0;
            for i in 0..5 {
                for j in 0..5 {
                    if count >= k {
                        m[(i, j)] = 0.0;
                    }
                    count += 1;
                }
            }
            m
        };
        prop_assert!(kept.norm_fro() >= naive.norm_fro() - 1e-12);
    }

    #[test]
    fn significant_count_monotone_in_tolerance(frame in frame_strategy(6, 6)) {
        let strict = sparsity::significant_count(&frame, 1e-1);
        let loose = sparsity::significant_count(&frame, 1e-6);
        prop_assert!(strict <= loose);
    }

    #[test]
    fn required_measurements_bounds(k in 0usize..200, n in 1usize..200) {
        let m = sparsity::required_measurements(k, n);
        prop_assert!(m <= n);
        if k > 0 && k < n {
            prop_assert!(m >= 1);
        }
    }
}

/// Deterministic pseudo-random values in `[-8, 8)` from a seed
/// (splitmix64), with every seventh value scaled by 1e6 so the frames
/// mix magnitudes.
fn seeded_values(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64 * 16.0 - 8.0;
            if i % 7 == 3 {
                u * 1e6
            } else {
                u
            }
        })
        .collect()
}

/// Separable 2-D transform built from single-lane 1-D plans: forward is
/// every row then every column, inverse every column then every row —
/// the pass order `Dct2d` documents.
fn separable_reference(rows: usize, cols: usize, data: &[f64], forward: bool) -> Vec<f64> {
    let (row_plan, col_plan) = (DctPlan::new(cols).unwrap(), DctPlan::new(rows).unwrap());
    let apply = |plan: &DctPlan, x: &[f64]| {
        if forward {
            plan.forward(x).unwrap()
        } else {
            plan.inverse(x).unwrap()
        }
    };
    let mut out = data.to_vec();
    let row_pass = |out: &mut Vec<f64>| {
        for r in 0..rows {
            let y = apply(&row_plan, &out[r * cols..(r + 1) * cols]);
            out[r * cols..(r + 1) * cols].copy_from_slice(&y);
        }
    };
    let col_pass = |out: &mut Vec<f64>| {
        for c in 0..cols {
            let x: Vec<f64> = (0..rows).map(|r| out[r * cols + c]).collect();
            for (r, v) in apply(&col_plan, &x).into_iter().enumerate() {
                out[r * cols + c] = v;
            }
        }
    };
    if forward {
        row_pass(&mut out);
        col_pass(&mut out);
    } else {
        col_pass(&mut out);
        row_pass(&mut out);
    }
    out
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:?} vs {w:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn dct2d_entry_points_match_separable_single_lane_plans_bitwise(seed in 0u64..1_000_000) {
        // Every power-of-two shape up to 128 x 128 (sweep levels above
        // the 32-point codelet, the codelet alone, and 1-lane edges),
        // plus shapes with one or both axes dense (non-power-of-two).
        let pow2 = [1usize, 2, 4, 8, 16, 32, 64, 128];
        let mut shapes: Vec<(usize, usize)> = pow2
            .iter()
            .flat_map(|&r| pow2.iter().map(move |&c| (r, c)))
            .collect();
        shapes.extend([(12, 32), (32, 12), (6, 64), (64, 12), (12, 6), (24, 40)]);
        for (rows, cols) in shapes {
            let n = rows * cols;
            let what = |entry: &str| format!("{rows}x{cols} {entry}");
            let dct = Dct2d::new(rows, cols).unwrap();
            let data = seeded_values(seed ^ (n as u64), n);
            let frame = Matrix::from_vec(rows, cols, data.clone()).unwrap();
            let want_fwd = separable_reference(rows, cols, &data, true);
            let want_inv = separable_reference(rows, cols, &data, false);

            assert_bits(dct.forward(&frame).unwrap().as_slice(), &want_fwd, &what("forward"));
            assert_bits(dct.inverse(&frame).unwrap().as_slice(), &want_inv, &what("inverse"));
            let mut out = vec![0.0; n];
            dct.forward_into(&data, &mut out).unwrap();
            assert_bits(&out, &want_fwd, &what("forward_into"));
            dct.inverse_into(&data, &mut out).unwrap();
            assert_bits(&out, &want_inv, &what("inverse_into"));

            // Sampled forms: about a third of the pixels, picked by seed.
            let selected: Vec<usize> = (0..n)
                .filter(|&i| ((i as u64).wrapping_mul(2_654_435_761) ^ seed).is_multiple_of(3))
                .collect();
            let positions = dct.sample_positions(&selected).unwrap();
            let mut gathered = vec![0.0; selected.len()];
            dct.inverse_gather(&data, &positions, &mut gathered).unwrap();
            let want_gather: Vec<f64> = selected.iter().map(|&i| want_inv[i]).collect();
            assert_bits(&gathered, &want_gather, &what("inverse_gather"));

            let values = seeded_values(seed.wrapping_add(1), selected.len());
            let mut scattered = vec![0.0; n];
            for (&i, &v) in selected.iter().zip(&values) {
                scattered[i] = v;
            }
            dct.scatter_forward(&values, &positions, &mut out).unwrap();
            let want_scatter = separable_reference(rows, cols, &scattered, true);
            assert_bits(&out, &want_scatter, &what("scatter_forward"));
        }
    }
}

/// FNV-1a over the bit patterns of `values`.
fn bit_hash(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

#[test]
fn dense_axis_transforms_keep_their_recorded_bits_on_every_tier() {
    // Recorded on the scalar tier. Every tier must reproduce them: the
    // dense kernel is elementwise `axpy` work, and the fast axis of
    // 12 x 32 runs the bit-identical Lee codelets. Each hash covers a
    // seeded frame and an all `-0.0` frame, whose outputs pin the signs
    // of zero sums.
    let recorded: [(usize, usize, u64, u64); 3] = [
        (24, 40, 0x957fd426fef78749, 0xc42e95e4ddf7551f),
        (12, 12, 0xfdfc40b57f1bb686, 0x3864c83624ad0b41),
        (12, 32, 0x9849c15c0f1cffec, 0x099f7bdd1467c348),
    ];
    let got: Vec<(usize, usize, u64, u64)> = recorded
        .iter()
        .map(|&(rows, cols, _, _)| {
            let n = rows * cols;
            let dct = Dct2d::new(rows, cols).unwrap();
            let (mut fwd, mut inv) = (Vec::new(), Vec::new());
            for frame in [seeded_values(n as u64, n), vec![-0.0; n]] {
                let mut out = vec![0.0; n];
                dct.forward_into(&frame, &mut out).unwrap();
                fwd.extend_from_slice(&out);
                dct.inverse_into(&frame, &mut out).unwrap();
                inv.extend_from_slice(&out);
            }
            (rows, cols, bit_hash(&fwd), bit_hash(&inv))
        })
        .collect();
    assert_eq!(got, recorded, "(rows, cols, forward hash, inverse hash)");
}
