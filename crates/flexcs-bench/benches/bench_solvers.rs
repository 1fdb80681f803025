//! Criterion benchmarks for the sparse-recovery solvers at the paper's
//! decoding operating point (32x32 frame, 50 % sampling).

use criterion::{criterion_group, criterion_main, Criterion};
use flexcs_core::{SamplingPlan, SubsampledDctOperator};
use flexcs_linalg::Matrix;
use flexcs_solver::{GreedyConfig, IrlsConfig, IstaConfig, SparseSolver};
use flexcs_transform::Dct2d;
use std::hint::black_box;

/// A 16x16 DCT-sparse problem (small enough for the dense solvers).
fn problem16() -> (SubsampledDctOperator, Vec<f64>) {
    let dct = Dct2d::new(16, 16).unwrap();
    let mut coeffs = Matrix::zeros(16, 16);
    for (i, j, v) in [
        (0, 0, 5.0),
        (0, 1, 2.0),
        (1, 0, -1.0),
        (2, 3, 0.7),
        (4, 1, 0.5),
    ] {
        coeffs[(i, j)] = v;
    }
    let frame = dct.inverse(&coeffs).unwrap();
    let plan = SamplingPlan::random_subset(256, 128, &[], 7).unwrap();
    let y = plan.measure(&frame.to_flat());
    let op = SubsampledDctOperator::new(16, 16, plan.selected().to_vec()).unwrap();
    (op, y)
}

fn bench_solvers(c: &mut Criterion) {
    let (op, y) = problem16();
    let mut group = c.benchmark_group("solver_16x16_50pct");
    group.sample_size(20);

    let mut fista_cfg = IstaConfig::with_lambda(1e-4);
    fista_cfg.max_iterations = 300;
    let greedy = GreedyConfig::with_sparsity(8);
    let solvers = [
        ("fista", SparseSolver::Fista(fista_cfg)),
        ("omp_k8", SparseSolver::Omp(greedy.clone())),
        ("subspace_pursuit_k8", SparseSolver::SubspacePursuit(greedy)),
        ("irls", SparseSolver::Irls(IrlsConfig::default())),
    ];
    for (name, solver) in &solvers {
        group.bench_function(name, |b| {
            b.iter(|| solver.solve(black_box(&op), black_box(&y)).unwrap())
        });
    }
    group.finish();
}

fn bench_operator(c: &mut Criterion) {
    // The implicit operator's apply cost dominates FISTA iterations.
    let plan = SamplingPlan::random_subset(1024, 512, &[], 3).unwrap();
    let op = SubsampledDctOperator::new(32, 32, plan.selected().to_vec()).unwrap();
    let x: Vec<f64> = (0..1024).map(|i| ((i as f64) * 0.1).sin()).collect();
    let y: Vec<f64> = (0..512).map(|i| ((i as f64) * 0.2).cos()).collect();
    let mut group = c.benchmark_group("operator_32x32");
    group.bench_function("apply", |b| {
        b.iter(|| flexcs_solver::LinearOperator::apply(black_box(&op), black_box(&x)))
    });
    group.bench_function("apply_transpose", |b| {
        b.iter(|| flexcs_solver::LinearOperator::apply_transpose(black_box(&op), black_box(&y)))
    });
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_operator);
criterion_main!(benches);
