//! Property tests pinning every SIMD kernel table the host can run to
//! the scalar reference tier.
//!
//! Contract (see `flexcs_linalg::simd`): elementwise kernels are
//! **bit-identical** to the scalar tier on every input; reductions may
//! re-associate but must agree to **≤ 1e-12 relative**. Each case runs
//! every table of `simd::host_kernel_tables()`, not only the one the
//! process selected: on an AVX-512 host that is the scalar table, the
//! AVX2+FMA table with 4-lane codelets and the one with 8-lane
//! codelets, so the narrower codelets stay covered where runtime
//! detection never picks them, and the CI `FLEXCS_FORCE_SCALAR=1` leg
//! runs the same comparisons.
//!
//! Lengths are drawn across 0..=67 (via full-length draws sliced to
//! an independent length) to hit the empty case, the
//! sub-vector-width remainders, and full vector blocks of every tier
//! (4/8-wide AVX2, 4-wide scalar unrolling). The Lee
//! lane codelets draw 1..=68 lanes (whole 8- and 4-lane strips plus
//! every leftover count) at every codelet length, with up to five
//! special values planted per frame (`SPECIALS`: NaN bits must agree
//! too), and every width 1..=40 is checked lane by lane against each
//! lane transformed alone, so no lane's bits depend on its neighbours;
//! the Lee sweep kernels `add`/`sub` and `butterfly_merge` get up to
//! five planted pairs, so two NaNs meet in one add, and so does the
//! masked subtract of the fused FISTA gradient. The transpose draws
//! shapes up to 69 x 69 (ragged 4×4 blocks on both edges, several cache
//! tiles) and each one rounded up to multiples of 8 (the AVX-512 8×8
//! tiles). `fista_step` runs every length 0..=67 in each case, with up to
//! five special values planted in each of `y`, `g` and `x`.
//!
//! Tables that share a tier name must also agree with each other bit for
//! bit on every reduction (`dot`, `fista_step`'s norm and change, the
//! dual-update residual): the tier name keys the rounding that
//! perfbench's recorded figures hold. `report_host_kernel_tables` names
//! the tables a run covered (`--nocapture` prints them).

use flexcs_linalg::simd::{self, Kernels};
use proptest::prelude::*;

const REL_TOL: f64 = 1e-12;

/// Maximum vector length drawn by the suite; each case slices its
/// full-length draws down to an independently drawn `n in 0..=67`
/// (the vendored proptest has no dependent-length combinator).
const MAX_LEN: usize = 68;

/// Strategy: one full-length bounded vector (sliced to length by cases).
fn full_vec() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0..100.0f64, MAX_LEN)
}

fn assert_bits_eq(dispatched: &[f64], scalar: &[f64], kernel: &str) {
    assert_eq!(dispatched.len(), scalar.len(), "{kernel}: length drift");
    for (i, (d, s)) in dispatched.iter().zip(scalar).enumerate() {
        assert_eq!(
            d.to_bits(),
            s.to_bits(),
            "{kernel}[{i}]: {d:?} ({:#x}) vs scalar {s:?} ({:#x})",
            d.to_bits(),
            s.to_bits()
        );
    }
}

/// `kernel` labelled with the table it ran on.
fn on(k: &Kernels, kernel: &str) -> String {
    format!(
        "{kernel} on {:?} ({} codelet lanes)",
        k.tier, k.codelet_lanes
    )
}

fn assert_rel_close(dispatched: f64, scalar: f64, kernel: &str) {
    let tol = REL_TOL * scalar.abs().max(1.0);
    assert!(
        (dispatched - scalar).abs() <= tol,
        "{kernel}: {dispatched} vs scalar {scalar} (tol {tol})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn axpy_bit_identical(va in full_vec(), vb in full_vec(), n in 0usize..MAX_LEN, alpha in -10.0..10.0f64) {
        let (x, y) = (va[..n].to_vec(), vb[..n].to_vec());
        let mut ys = y.clone();
        (simd::scalar_kernels().axpy)(alpha, &x, &mut ys);
        for k in simd::host_kernel_tables() {
            let mut yd = y.clone();
            (k.axpy)(alpha, &x, &mut yd);
            assert_bits_eq(&yd, &ys, &on(k, "axpy"));
        }
    }

    #[test]
    fn scale_bit_identical(va in full_vec(), n in 0usize..MAX_LEN, s in -10.0..10.0f64) {
        let mut b = va[..n].to_vec();
        (simd::scalar_kernels().scale)(&mut b, s);
        for k in simd::host_kernel_tables() {
            let mut a = va[..n].to_vec();
            (k.scale)(&mut a, s);
            assert_bits_eq(&a, &b, &on(k, "scale"));
        }
    }

    #[test]
    fn sub_and_add_bit_identical(
        va in full_vec(),
        vb in full_vec(),
        n in 0usize..MAX_LEN,
        plant_at in proptest::collection::vec(0usize..MAX_LEN, 0..6),
        kinds_a in proptest::collection::vec(0usize..SPECIALS.len(), 6),
        kinds_b in proptest::collection::vec(0usize..SPECIALS.len(), 6),
    ) {
        let (a, b) = planted_pair(&va[..n], &vb[..n], &plant_at, &kinds_a, &kinds_b);
        let s = simd::scalar_kernels();
        let n = a.len();
        let (mut ss, mut sa) = (vec![0.0; n], vec![0.0; n]);
        (s.sub)(&mut ss, &a, &b);
        (s.add)(&mut sa, &a, &b);
        for k in simd::host_kernel_tables() {
            let mut od = vec![0.0; n];
            (k.sub)(&mut od, &a, &b);
            assert_bits_eq(&od, &ss, &on(k, "sub"));
            (k.add)(&mut od, &a, &b);
            assert_bits_eq(&od, &sa, &on(k, "add"));
        }
    }

    #[test]
    fn masked_sub_bit_identical(
        va in full_vec(),
        vb in full_vec(),
        n in 0usize..MAX_LEN,
        keep in proptest::collection::vec(0usize..2, MAX_LEN),
        plant_at in proptest::collection::vec(0usize..MAX_LEN, 0..6),
        kinds_a in proptest::collection::vec(0usize..SPECIALS.len(), 6),
        kinds_b in proptest::collection::vec(0usize..SPECIALS.len(), 6),
    ) {
        let (v, b) = planted_pair(&va[..n], &vb[..n], &plant_at, &kinds_a, &kinds_b);
        let mask: Vec<u64> = keep[..n].iter().map(|&k| if k == 1 { u64::MAX } else { 0 }).collect();
        let mut vs = v.clone();
        (simd::scalar_kernels().masked_sub)(&mut vs, &b, &mask);
        for (i, (&got, &m)) in vs.iter().zip(&mask).enumerate() {
            if m == 0 {
                prop_assert_eq!(got.to_bits(), 0, "masked slot {} not +0.0", i);
            } else {
                prop_assert_eq!(got.to_bits(), (v[i] - b[i]).to_bits(), "kept slot {}", i);
            }
        }
        for k in simd::host_kernel_tables() {
            let mut vd = v.clone();
            (k.masked_sub)(&mut vd, &b, &mask);
            assert_bits_eq(&vd, &vs, &on(k, "masked_sub"));
        }
    }

    #[test]
    fn momentum_bit_identical(va in full_vec(), vb in full_vec(), n in 0usize..MAX_LEN, beta in 0.0..1.0f64) {
        let (xn, xo) = (va[..n].to_vec(), vb[..n].to_vec());
        let mut ys = vec![0.0; n];
        (simd::scalar_kernels().momentum)(&mut ys, &xn, &xo, beta);
        for k in simd::host_kernel_tables() {
            let mut yd = vec![0.0; n];
            (k.momentum)(&mut yd, &xn, &xo, beta);
            assert_bits_eq(&yd, &ys, &on(k, "momentum"));
        }
    }

    #[test]
    fn butterfly_split_bit_identical(va in full_vec(), vb in full_vec(), n in 0usize..MAX_LEN, inv in 0.5..20.0f64) {
        let (x, y) = (va[..n].to_vec(), vb[..n].to_vec());
        let (mut as_, mut bs) = (vec![0.0; n], vec![0.0; n]);
        (simd::scalar_kernels().butterfly_split)(&mut as_, &mut bs, &x, &y, inv);
        for k in simd::host_kernel_tables() {
            let (mut ad, mut bd) = (vec![0.0; n], vec![0.0; n]);
            (k.butterfly_split)(&mut ad, &mut bd, &x, &y, inv);
            assert_bits_eq(&ad, &as_, &on(k, "butterfly_split alpha"));
            assert_bits_eq(&bd, &bs, &on(k, "butterfly_split beta"));
        }
    }

    #[test]
    fn butterfly_merge_bit_identical(
        va in full_vec(),
        vb in full_vec(),
        n in 0usize..MAX_LEN,
        c in -2.0..2.0f64,
        plant_at in proptest::collection::vec(0usize..MAX_LEN, 0..6),
        kinds_a in proptest::collection::vec(0usize..SPECIALS.len(), 6),
        kinds_b in proptest::collection::vec(0usize..SPECIALS.len(), 6),
    ) {
        let (alpha, beta) = planted_pair(&va[..n], &vb[..n], &plant_at, &kinds_a, &kinds_b);
        let w = alpha.len();
        let (mut ts, mut bs) = (vec![0.0; w], vec![0.0; w]);
        (simd::scalar_kernels().butterfly_merge)(&mut ts, &mut bs, &alpha, &beta, c);
        for k in simd::host_kernel_tables() {
            let (mut td, mut bd) = (vec![0.0; w], vec![0.0; w]);
            (k.butterfly_merge)(&mut td, &mut bd, &alpha, &beta, c);
            assert_bits_eq(&td, &ts, &on(k, "butterfly_merge top"));
            assert_bits_eq(&bd, &bs, &on(k, "butterfly_merge bottom"));
        }
    }

    #[test]
    fn sub_add_scaled_bit_identical(va in full_vec(), vb in full_vec(), vc in full_vec(), n in 0usize..MAX_LEN, k in -5.0..5.0f64) {
        let (a, b, c) = (va[..n].to_vec(), vb[..n].to_vec(), vc[..n].to_vec());
        let mut os = vec![0.0; n];
        (simd::scalar_kernels().sub_add_scaled)(&mut os, &a, &b, &c, k);
        for t in simd::host_kernel_tables() {
            let mut od = vec![0.0; n];
            (t.sub_add_scaled)(&mut od, &a, &b, &c, k);
            assert_bits_eq(&od, &os, &on(t, "sub_add_scaled"));
        }
    }

    #[test]
    fn sub_add_scaled_shrink_bit_identical(va in full_vec(), vb in full_vec(), vc in full_vec(), n in 0usize..MAX_LEN, k in -5.0..5.0f64, thr in 0.0..10.0f64) {
        let (a, b, c) = (va[..n].to_vec(), vb[..n].to_vec(), vc[..n].to_vec());
        let mut os = vec![0.0; n];
        (simd::scalar_kernels().sub_add_scaled_shrink)(&mut os, &a, &b, &c, k, thr);
        for t in simd::host_kernel_tables() {
            let mut od = vec![0.0; n];
            (t.sub_add_scaled_shrink)(&mut od, &a, &b, &c, k, thr);
            assert_bits_eq(&od, &os, &on(t, "sub_add_scaled_shrink"));
        }
    }

    #[test]
    fn dot_within_reduction_tolerance(va in full_vec(), vb in full_vec(), n in 0usize..MAX_LEN) {
        let (a, b) = (va[..n].to_vec(), vb[..n].to_vec());
        let s = (simd::scalar_kernels().dot)(&a, &b);
        for k in simd::host_kernel_tables() {
            assert_rel_close((k.dot)(&a, &b), s, &on(k, "dot"));
        }
    }

    #[test]
    fn dual_update_residual_consistent(va in full_vec(), vb in full_vec(), vc in full_vec(), n in 0usize..MAX_LEN, mu in 0.1..10.0f64) {
        let (d, l, s) = (va[..n].to_vec(), vb[..n].to_vec(), vc[..n].to_vec());
        // y starts from d (any equal-length buffer works); the updated
        // dual is elementwise (bit-identical), the returned Σz² is a
        // reduction (≤ 1e-12 relative).
        let mut ys = d.clone();
        let zs = (simd::scalar_kernels().dual_update_residual_sq)(&mut ys, &d, &l, &s, mu);
        for k in simd::host_kernel_tables() {
            let mut yd = d.clone();
            let zd = (k.dual_update_residual_sq)(&mut yd, &d, &l, &s, mu);
            assert_bits_eq(&yd, &ys, &on(k, "dual_update y"));
            assert_rel_close(zd, zs, &on(k, "dual_update residual"));
        }
    }

    #[test]
    fn fista_step_matches_staged_kernels_at_every_length(
        vy in full_vec(),
        vg in full_vec(),
        vx in full_vec(),
        step in 0.0..2.0f64,
        t in 0.0..10.0f64,
        plant_at in proptest::collection::vec(0usize..MAX_LEN, 0..6),
        kinds_y in proptest::collection::vec(0usize..SPECIALS.len(), 6),
        kinds_x in proptest::collection::vec(0usize..SPECIALS.len(), 6),
    ) {
        let (y, x) = planted_pair(&vy, &vx, &plant_at, &kinds_y, &kinds_x);
        let mut g = vg.clone();
        for (&at, &kind) in plant_at.iter().zip(&kinds_x).skip(1) {
            g[(at * 7 + 3) % MAX_LEN] = SPECIALS[kind];
        }
        for n in 0..MAX_LEN {
            check_fista_step(&y[..n], &g[..n], &x[..n], step, t);
        }
    }
    #[test]
    fn same_tier_tables_share_reduction_bits(
        va in full_vec(),
        vb in full_vec(),
        vc in full_vec(),
        plant_at in proptest::collection::vec(0usize..MAX_LEN, 0..6),
        kinds_a in proptest::collection::vec(0usize..SPECIALS.len(), 6),
        kinds_b in proptest::collection::vec(0usize..SPECIALS.len(), 6),
    ) {
        let (a, b) = planted_pair(&va, &vb, &plant_at, &kinds_a, &kinds_b);
        let mut c = vc.clone();
        for (&at, &kind) in plant_at.iter().zip(&kinds_b).skip(1) {
            c[(at * 7 + 3) % MAX_LEN] = SPECIALS[kind];
        }
        check_same_tier_reductions(&a, &b, &c);
    }

    #[test]
    fn lee_lanes_bit_identical(
        vals in proptest::collection::vec(-100.0..100.0f64, simd::CODELET_MAX * MAX_LEN),
        w in 1usize..MAX_LEN + 1,
        log_n in 0usize..6,
        s0 in -2.0..2.0f64,
        sk in -2.0..2.0f64,
        plant_at in proptest::collection::vec(0usize..simd::CODELET_MAX * MAX_LEN, 0..6),
        plant_kind in proptest::collection::vec(0usize..SPECIALS.len(), 6),
    ) {
        let n = 1usize << log_n;
        let mut v = vals[..n * w].to_vec();
        for (&at, &kind) in plant_at.iter().zip(&plant_kind) {
            v[at % (n * w)] = SPECIALS[kind];
        }
        let v = &v[..];
        let (inv, twice_cos) = lee_twiddles(n);
        let (mut fs, mut is) = (v.to_vec(), v.to_vec());
        (simd::scalar_kernels().lee_forward_lanes)(&mut fs, w, &inv, s0, sk);
        (simd::scalar_kernels().lee_inverse_lanes)(&mut is, w, &twice_cos, s0, sk);
        for k in simd::host_kernel_tables() {
            let (mut fd, mut id) = (v.to_vec(), v.to_vec());
            (k.lee_forward_lanes)(&mut fd, w, &inv, s0, sk);
            assert_bits_eq(&fd, &fs, &on(k, "lee_forward_lanes"));
            (k.lee_inverse_lanes)(&mut id, w, &twice_cos, s0, sk);
            assert_bits_eq(&id, &is, &on(k, "lee_inverse_lanes"));
        }
    }

    #[test]
    fn lee_lanes_match_each_lane_alone(
        vals in proptest::collection::vec(-100.0..100.0f64, simd::CODELET_MAX * LANE_ALONE_MAX_W),
        log_n in 0usize..6,
        s0 in -2.0..2.0f64,
        sk in -2.0..2.0f64,
        plant_at in proptest::collection::vec(0usize..simd::CODELET_MAX * LANE_ALONE_MAX_W, 0..24),
        plant_kind in proptest::collection::vec(0usize..SPECIALS.len(), 24),
    ) {
        let n = 1usize << log_n;
        for w in 1..=LANE_ALONE_MAX_W {
            let mut v = vals[..n * w].to_vec();
            for (&at, &kind) in plant_at.iter().zip(&plant_kind) {
                v[at % (n * w)] = SPECIALS[kind];
            }
            check_lanes_alone(&v, n, w, s0, sk);
        }
    }

    #[test]
    fn transpose_bit_identical(
        vals in proptest::collection::vec(-100.0..100.0f64, 72 * 72),
        rows in 1usize..70,
        cols in 1usize..70,
    ) {
        // The drawn shape, then the same rounded up to multiples of 8
        // both ways (the AVX-512 table's 8×8 register tiles).
        for (rows, cols) in [(rows, cols), ((rows + 7) & !7, (cols + 7) & !7)] {
            let src = &vals[..rows * cols];
            let mut ts = vec![0.0; rows * cols];
            (simd::scalar_kernels().transpose)(src, &mut ts, rows, cols);
            for k in simd::host_kernel_tables() {
                let mut td = vec![0.0; rows * cols];
                (k.transpose)(src, &mut td, rows, cols);
                assert_bits_eq(&td, &ts, &on(k, &format!("transpose {rows} x {cols}")));
            }
            for i in 0..rows {
                for j in 0..cols {
                    prop_assert_eq!(ts[j * rows + i].to_bits(), src[i * cols + j].to_bits());
                }
            }
        }
    }
}

/// Every host table against the first one listed under the same tier
/// name: the reductions re-associate per tier name, not per table, so
/// `dot`, `fista_step` (`x⁺`, norm and change) and the
/// `dual_update_residual_sq` sum agree bit for bit between, say, the
/// AVX2+FMA table and the one with the 8-lane AVX-512 kernels. Every
/// length 0..=67, with special values planted in every input; two NaN
/// sums may carry different payloads (IEEE 754 leaves open which NaN a
/// sum of two carries), so any NaN counts as equal there.
fn check_same_tier_reductions(a: &[f64], b: &[f64], c: &[f64]) {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    let tables = simd::host_kernel_tables();
    for k in &tables {
        let first = tables
            .iter()
            .find(|f| f.tier.name() == k.tier.name())
            .expect("k itself matches");
        for n in 0..MAX_LEN {
            let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
            let what = |part: &str| format!("{} vs {}, n = {n}", on(k, part), on(first, part));
            let (d0, d1) = ((first.dot)(a, b), (k.dot)(a, b));
            assert!(same(d0, d1), "{}: {d0:?} vs {d1:?}", what("dot"));

            let (mut x0, mut x1) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            let f0 = (first.fista_step)(&mut x0, a, b, c, 0.3, 0.5);
            let f1 = (k.fista_step)(&mut x1, a, b, c, 0.3, 0.5);
            assert_bits_eq(&x1, &x0, &what("fista_step x_next"));
            for (v0, v1, part) in [
                (f0.norm_sq, f1.norm_sq, "fista_step norm"),
                (f0.change_sq, f1.change_sq, "fista_step change"),
            ] {
                assert!(same(v0, v1), "{}: {v0:?} vs {v1:?}", what(part));
            }

            let (mut y0, mut y1) = (a.to_vec(), a.to_vec());
            let z0 = (first.dual_update_residual_sq)(&mut y0, a, b, c, 0.7);
            let z1 = (k.dual_update_residual_sq)(&mut y1, a, b, c, 0.7);
            assert!(
                same(z0, z1),
                "{}: {z0:?} vs {z1:?}",
                what("dual_update residual")
            );
        }
    }
}

/// Names each table the suite compares on stderr (tier name and lane
/// width), so a log shows which tables a host covered: a run on a host
/// without `avx512f` lists no 8-lane table and so did not exercise the
/// AVX-512 entries. `--nocapture` shows it.
#[test]
fn report_host_kernel_tables() {
    let tables = simd::host_kernel_tables();
    for k in &tables {
        eprintln!(
            "simd_props kernel table: {}, {} lanes",
            k.tier.name(),
            k.codelet_lanes
        );
    }
    assert!(std::ptr::eq(tables[0], simd::scalar_kernels()));
}

/// `fista_step` on the dispatched and on the scalar tier against the
/// staged kernels it replaces: `x⁺` bit for bit against the scalar
/// `shrink(y − step·g, t)`, `‖x⁺‖²` and `‖x⁺ − x‖²` bit for bit against
/// the same tier's `dot` of `x⁺`, and of `sub(x⁺, x)`, with itself. The
/// two norms may both be NaN with different payloads (IEEE 754 leaves
/// open which NaN a sum of two carries); any NaN counts as equal there.
/// The restart sums lie within `n·ε·Σ|pᵢ|` of the index-order sums of
/// the same products when those are finite.
fn check_fista_step(y: &[f64], g: &[f64], x: &[f64], step: f64, t: f64) {
    let n = y.len();
    let want: Vec<f64> = y
        .iter()
        .zip(g)
        .map(|(yi, gi)| simd::scalar::shrink(yi - step * gi, t))
        .collect();
    for k in simd::host_kernel_tables() {
        let what = |part: &str| format!("{}, n = {n}", on(k, &format!("fista_step {part}")));
        let mut xn = vec![f64::NAN; n];
        let sums = (k.fista_step)(&mut xn, y, g, x, step, t);
        assert_bits_eq(&xn, &want, &what("x_next"));
        let mut d = vec![0.0; n];
        (k.sub)(&mut d, &xn, x);
        for (got, staged, part) in [
            (sums.norm_sq, (k.dot)(&xn, &xn), "norm"),
            (sums.change_sq, (k.dot)(&d, &d), "change"),
        ] {
            let same = got.to_bits() == staged.to_bits() || (got.is_nan() && staged.is_nan());
            assert!(same, "{}: {got:?} vs staged {staged:?}", what(part));
        }
        let products: Vec<f64> = y
            .iter()
            .zip(&xn)
            .zip(x)
            .map(|((yi, vi), xi)| (yi - vi) * (vi - xi))
            .collect();
        let sequential = products.iter().fold(0.0, |s, p| s + p);
        let abs = products.iter().fold(0.0, |s, p| s + p.abs());
        if abs.is_finite() {
            let tol = n as f64 * f64::EPSILON * abs;
            assert!(
                (sums.restart - sequential).abs() <= tol,
                "{}",
                what("restart")
            );
            assert!(
                (sums.restart_abs - abs).abs() <= tol,
                "{}",
                what("restart_abs")
            );
        } else {
            // A NaN product makes both sums NaN; ±∞ products without a
            // NaN make `Σ|pᵢ|` +∞.
            assert_eq!(
                sums.restart_abs.is_nan(),
                abs.is_nan(),
                "{}",
                what("restart_abs")
            );
            assert!(!sums.restart_abs.is_finite(), "{}", what("restart_abs"));
        }
    }
}

/// Widest frame the lane-alone codelet check runs (every width from 1,
/// so each strip width and leftover count of every table shows up).
const LANE_ALONE_MAX_W: usize = 40;

/// Both Lee codelets of every host table on the `n x w` frame `v`
/// against each lane transformed alone (`w = 1`) on the same table: a
/// lane's bits, NaN bits included, must not depend on its neighbours.
fn check_lanes_alone(v: &[f64], n: usize, w: usize, s0: f64, sk: f64) {
    let (inv, twice_cos) = lee_twiddles(n);
    for k in simd::host_kernel_tables() {
        let codelets = [
            (k.lee_forward_lanes, &inv, "lee_forward_lanes"),
            (k.lee_inverse_lanes, &twice_cos, "lee_inverse_lanes"),
        ];
        for (codelet, tw, name) in codelets {
            let mut frame = v.to_vec();
            codelet(&mut frame, w, tw, s0, sk);
            for j in 0..w {
                let mut lane: Vec<f64> = (0..n).map(|r| v[r * w + j]).collect();
                codelet(&mut lane, 1, tw, s0, sk);
                let in_frame: Vec<f64> = (0..n).map(|r| frame[r * w + j]).collect();
                assert_bits_eq(
                    &in_frame,
                    &lane,
                    &on(k, &format!("{name} lane {j} of {n} x {w}")),
                );
            }
        }
    }
}

/// A NaN in lane 0's row 0 must not change the NaN bits of lane 1, whose
/// `∞ − ∞` makes the platform's default NaN in rows 1..: every width
/// from 1 to [`LANE_ALONE_MAX_W`] and every codelet length.
#[test]
fn lee_lane_nan_bits_ignore_neighbours() {
    for log_n in 1..6 {
        let n = 1usize << log_n;
        for w in 2..=LANE_ALONE_MAX_W {
            let mut v: Vec<f64> = (0..n * w).map(|i| (i as f64 * 0.37).sin()).collect();
            v[0] = f64::NAN;
            // Lane 1 reads +∞ in its first two rows: row 0 sums to +∞,
            // the differences of the two make NaNs.
            v[1] = f64::INFINITY;
            v[w + 1] = f64::INFINITY;
            check_lanes_alone(&v, n, w, 1.0, 1.0);
        }
    }
}

/// Values the codelet, `add`/`sub` and `butterfly_merge` bit tests
/// plant in their drawn inputs: signed zeros, subnormals, magnitudes
/// that overflow inside a level, infinities and NaNs (the quiet default,
/// its negation and one with a payload).
const SPECIALS: [f64; 11] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 4.0,
    -5e-324,
    1e300,
    -1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7ff8_0000_0000_1234),
];

/// Copies of `a` and `b` with [`SPECIALS`] planted at each position of
/// `at` (modulo the length): `kinds_a[i]` and `kinds_b[i]` pick the
/// values planted at `at[i]` in `a` and in `b`, so special values meet
/// each other in the kernels' two-operand adds, not only finite values.
fn planted_pair(
    a: &[f64],
    b: &[f64],
    at: &[usize],
    kinds_a: &[usize],
    kinds_b: &[usize],
) -> (Vec<f64>, Vec<f64>) {
    let (mut a, mut b, n) = (a.to_vec(), b.to_vec(), a.len());
    if n > 0 {
        for ((&i, &ka), &kb) in at.iter().zip(kinds_a).zip(kinds_b) {
            a[i % n] = SPECIALS[ka];
            b[i % n] = SPECIALS[kb];
        }
    }
    (a, b)
}

/// Codelet twiddles for length `n`, level by level from `m = n` down to
/// `m = 2`: reciprocal twiddles `0.5 / cos((i + 0.5)·π / m)` (forward)
/// and doubled cosines `2·cos((i + 0.5)·π / m)` (inverse).
fn lee_twiddles(n: usize) -> (Vec<f64>, Vec<f64>) {
    let (mut inv, mut twice_cos) = (Vec::new(), Vec::new());
    let mut m = n;
    while m >= 2 {
        for i in 0..m / 2 {
            let c = ((i as f64 + 0.5) * std::f64::consts::PI / m as f64).cos();
            inv.push(0.5 / c);
            twice_cos.push(2.0 * c);
        }
        m /= 2;
    }
    (inv, twice_cos)
}
