//! Property tests for the parallel Monte-Carlo engine's determinism
//! contract: shared-symbolic refactorization must be bit-identical to a
//! cold per-sample factorization even under concurrent use, and the
//! engine's statistics must be invariant in the thread count.

use flexcs_circuit::sparse::{CsrMatrix, SparseLu, SymbolicLu, Triplets};
use flexcs_circuit::{Circuit, McEngine, McEngineConfig, McSample, NodeId, SolverPolicy, Waveform};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::sync::Arc;

/// Random coordinate entries for an `n`-dimensional system (same
/// construction as `sparse_props`): raw indices reduced mod `n`,
/// duplicates allowed on purpose.
fn make_entries(n: usize, ri: &[usize], ci: &[usize], vs: &[f64]) -> Vec<(usize, usize, f64)> {
    ri.iter()
        .zip(ci)
        .zip(vs)
        .map(|((&i, &j), &v)| (i % n, j % n, v))
        .collect()
}

/// Diagonally-dominant triplets plus the push-order value vector that
/// `set_values` consumes.
fn build_dd(n: usize, entries: &[(usize, usize, f64)]) -> (Triplets, Vec<f64>) {
    let mut row_abs = vec![0.0f64; n];
    for &(i, _, v) in entries {
        row_abs[i] += v.abs();
    }
    let mut tri = Triplets::new(n);
    let mut tvals = Vec::new();
    for &(i, j, v) in entries {
        tri.push(i, j, v);
        tvals.push(v);
    }
    for (i, &ra) in row_abs.iter().enumerate() {
        tri.push(i, i, ra + 1.0);
        tvals.push(ra + 1.0);
    }
    (tri, tvals)
}

/// Deterministic per-sample value perturbation (keeps diagonal
/// dominance: pure positive scaling).
fn sample_vals(tvals: &[f64], sample: usize) -> Vec<f64> {
    let scale = 1.0 + 0.25 * (sample as f64 + 1.0);
    tvals.iter().map(|v| v * scale).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Many threads refactoring concurrently against ONE shared
    /// symbolic analysis produce factors bit-identical to a cold
    /// per-sample pipeline (fresh `from_triplets` + fresh `analyze` +
    /// `factor`) run serially. This is the load-bearing property behind
    /// `SymbolicShare`: sharing the pattern cannot perturb numerics.
    #[test]
    fn shared_symbolic_concurrent_refactor_is_bit_identical(
        n in 3usize..20,
        ri in pvec(0usize..4096, 0..80),
        ci in pvec(0usize..4096, 80),
        vs in pvec(-1.0..1.0f64, 80),
    ) {
        let entries = make_entries(n, &ri, &ci, &vs);
        let (tri, tvals) = build_dd(n, &entries);
        const SAMPLES: usize = 8;

        // Cold reference: every sample rebuilds the whole pipeline.
        let cold: Vec<Vec<f64>> = (0..SAMPLES)
            .map(|s| {
                let mut cold_tri = Triplets::new(n);
                for (&(i, j, _), &v) in entries.iter().zip(&tvals) {
                    cold_tri.push(i, j, v * (1.0 + 0.25 * (s as f64 + 1.0)));
                }
                // Re-append the diagonal boost scaled the same way.
                for (i, &v) in tvals[entries.len()..].iter().enumerate() {
                    cold_tri.push(i, i, v * (1.0 + 0.25 * (s as f64 + 1.0)));
                }
                let (csr, _) = CsrMatrix::from_triplets(&cold_tri);
                let sym = SymbolicLu::analyze(&csr).unwrap();
                SparseLu::factor(&sym, &csr).unwrap().values().to_vec()
            })
            .collect();

        // Shared path: one symbolic analysis, concurrent slot-mapped
        // refills + refactorizations on per-thread clones of the CSR
        // skeleton.
        let (csr0, slots) = CsrMatrix::from_triplets(&tri);
        let sym = Arc::new(SymbolicLu::analyze(&csr0).unwrap());
        let slots = Arc::new(slots);
        let mut shared: Vec<Option<Vec<f64>>> = vec![None; SAMPLES];
        std::thread::scope(|scope| {
            for (s, out) in shared.iter_mut().enumerate() {
                let sym = Arc::clone(&sym);
                let slots = Arc::clone(&slots);
                let csr0 = &csr0;
                let tvals = &tvals;
                scope.spawn(move || {
                    let mut csr = csr0.clone();
                    csr.set_values(&slots, &sample_vals(tvals, s));
                    let mut lu = SparseLu::factor(&sym, &csr).unwrap();
                    // Refactor once more in place: same values, so the
                    // factors must not move at all.
                    let first = lu.values().to_vec();
                    lu.refactor(&sym, &csr).unwrap();
                    assert_eq!(first, lu.values());
                    *out = Some(first);
                });
            }
        });
        for (s, (shared_vals, cold_vals)) in shared.iter().zip(&cold).enumerate() {
            prop_assert_eq!(
                shared_vals.as_ref().unwrap(),
                cold_vals,
                "sample {} diverged between shared and cold pipelines",
                s
            );
        }
    }

    /// Engine statistics are a pure function of `(trials, seed,
    /// config)` — the thread count is not part of the result. Runs the
    /// same sweep at 1, 2, 4 and 7 threads and demands bit-identical
    /// values in order.
    #[test]
    fn engine_stats_invariant_in_thread_count(
        trials in 1usize..12,
        seed in 0u64..u64::MAX,
        sigma in 0.0..0.2f64,
    ) {
        let run = |threads: usize| {
            let engine = McEngine::new(McEngineConfig {
                threads: Some(threads),
                policy: SolverPolicy::Auto,
            });
            engine
                .run(trials, seed, |trial| {
                    let r_lo = 2000.0 * (1.0 + sigma * trial.gaussian());
                    let mut c = Circuit::new();
                    let vdd = c.node("vdd");
                    let mid = c.node("mid");
                    c.add_vsource(vdd, NodeId::GROUND, Waveform::Dc(3.0));
                    c.add_resistor(vdd, mid, 1000.0)?;
                    c.add_resistor(mid, NodeId::GROUND, r_lo.max(1.0))?;
                    let v = trial.dc(&c)?.voltage(mid);
                    Ok(McSample {
                        value: v,
                        pass: (v - 2.0).abs() < 0.2,
                    })
                })
                .unwrap()
        };
        let base = run(1);
        for threads in [2usize, 4, 7] {
            let par = run(threads);
            prop_assert_eq!(
                &base.stats,
                &par.stats,
                "stats diverged at {} threads",
                threads
            );
            prop_assert_eq!(base.warm_newton_saved, par.warm_newton_saved);
            prop_assert_eq!(base.refactors, par.refactors);
        }
    }
}
