//! Cross-crate integration tests: the full encoder→decoder pipeline
//! assembled from every subsystem.

use flexcs::circuit::{ActiveMatrix, ActiveMatrixConfig};
use flexcs::core::{
    rmse, run_experiment, CircuitEncoder, Decoder, ExperimentConfig, SamplingPlan,
    SamplingStrategy, SparseErrorModel,
};
use flexcs::datasets::{
    normalize_unit, tactile_frame, thermal_frame, TactileConfig, ThermalConfig,
};
use flexcs::linalg::Matrix;
use flexcs::solver::{GreedyConfig, SparseSolver};
use flexcs::transform::{sparsity, Dct2d};

fn small_thermal(seed: u64) -> Matrix {
    thermal_frame(
        &ThermalConfig {
            rows: 16,
            cols: 16,
            ..ThermalConfig::default()
        },
        seed,
    )
}

#[test]
fn headline_rmse_reduction_reproduced() {
    // Paper: with ~10 % sparse errors, RMSE drops from 0.20 to 0.05.
    // Averaged over frames, at 32x32, our synthetic substitute lands in
    // the same regime: raw ≈ 0.2, CS well under half of that.
    let mut raw_sum = 0.0;
    let mut cs_sum = 0.0;
    let trials = 3;
    for seed in 0..trials {
        let frame = thermal_frame(&ThermalConfig::default(), seed);
        let outcome = run_experiment(
            &frame,
            &ExperimentConfig {
                sampling_fraction: 0.5,
                error_fraction: 0.10,
                seed,
                ..ExperimentConfig::default()
            },
        )
        .unwrap();
        raw_sum += outcome.rmse_raw;
        cs_sum += outcome.rmse_cs;
    }
    let raw = raw_sum / trials as f64;
    let cs = cs_sum / trials as f64;
    assert!((0.15..0.30).contains(&raw), "raw rmse {raw}");
    assert!(cs < 0.10, "cs rmse {cs}");
    assert!(cs < raw / 2.0, "cs {cs} vs raw {raw}");
}

#[test]
fn dataset_transform_solver_roundtrip() {
    // Thermal frames are DCT-compressible enough that 60 % sampling
    // reconstructs them closely even with a greedy solver.
    let frame = normalize_unit(&small_thermal(5));
    let coeffs = Dct2d::new(16, 16).unwrap().forward(&frame).unwrap();
    let k90 = sparsity::sparsity_for_energy(&coeffs, 0.995).unwrap();
    assert!(k90 < 128, "k99.5 = {k90} should be far below N = 256");

    let plan = SamplingPlan::random_subset(256, 154, &[], 1).unwrap();
    let y = plan.measure(&frame.to_flat());
    let decoder = Decoder::new(SparseSolver::Omp(GreedyConfig::with_sparsity(k90.min(70))));
    let rec = decoder.reconstruct(16, 16, plan.selected(), &y).unwrap();
    assert!(
        rmse(&rec.frame, &frame) < 0.08,
        "rmse {}",
        rmse(&rec.frame, &frame)
    );
}

#[test]
fn hardware_in_the_loop_matches_mathematical_pipeline() {
    // The circuit-level encoder (defects + mismatch + noise from the
    // device model) must land near the idealized pipeline's RMSE.
    let scene = normalize_unit(&small_thermal(9));
    let config = ActiveMatrixConfig {
        rows: 16,
        cols: 16,
        ..ActiveMatrixConfig::default()
    };
    let mut encoder = CircuitEncoder::new(ActiveMatrix::new(config).unwrap());
    encoder.array_mut().inject_defects(0.08, 3);
    let excluded = encoder.array().defective_indices();
    let plan = SamplingPlan::random_subset(256, 140, &excluded, 11).unwrap();
    let acq = encoder.acquire(&scene, &plan, 13).unwrap();
    let rec = Decoder::default()
        .reconstruct(16, 16, &acq.selected, &acq.measurements)
        .unwrap();
    let hw_rmse = rmse(&rec.frame, &scene);
    assert!(hw_rmse < 0.08, "hardware-loop rmse {hw_rmse}");
}

#[test]
fn tactile_frames_survive_cs_roundtrip() {
    // Tactile contact maps (sharper than thermal) still reconstruct
    // recognizably at 55 % sampling with 10 % errors excluded by test.
    let frame = tactile_frame(&TactileConfig::default(), 7, 3);
    let truth = normalize_unit(&frame);
    let (bad, _) = SparseErrorModel::new(0.10).unwrap().corrupt(&truth, 5);
    let rec = SamplingStrategy::exclude_tested()
        .reconstruct(&bad, 563, &Decoder::default(), 7)
        .unwrap();
    let e_cs = rmse(&rec, &truth);
    let e_raw = rmse(&bad, &truth);
    assert!(e_cs < e_raw, "cs {e_cs} vs raw {e_raw}");
    assert!(e_cs < 0.12, "cs rmse {e_cs}");
}

#[test]
fn strategies_rank_as_figure_6c() {
    // Above ~8 % blind errors, RPCA filtering beats median resampling
    // (paper Fig. 6c); both beat a single oblivious pass.
    let trials = 3;
    let mut rmse_median = 0.0;
    let mut rmse_rpca = 0.0;
    let mut rmse_single = 0.0;
    for seed in 0..trials {
        let truth = normalize_unit(&small_thermal(20 + seed));
        let (bad, _) = SparseErrorModel::new(0.10).unwrap().corrupt(&truth, seed);
        let decoder = Decoder::default();
        let m = 140;
        rmse_single += rmse(
            &SamplingStrategy::Oblivious
                .reconstruct(&bad, m, &decoder, seed)
                .unwrap(),
            &truth,
        );
        rmse_median += rmse(
            &SamplingStrategy::ResampleMedian { rounds: 10 }
                .reconstruct(&bad, m, &decoder, seed)
                .unwrap(),
            &truth,
        );
        rmse_rpca += rmse(
            &SamplingStrategy::RpcaFilter { threshold: 0.3 }
                .reconstruct(&bad, m, &decoder, seed)
                .unwrap(),
            &truth,
        );
    }
    assert!(
        rmse_median < rmse_single,
        "median {rmse_median} vs single {rmse_single}"
    );
    assert!(
        rmse_rpca < rmse_median,
        "rpca {rmse_rpca} vs median {rmse_median} at 10 % errors"
    );
}

#[test]
fn sampling_percentage_sweep_shape() {
    // RMSE decreases with sampling percentage and the decrease slows
    // down (the Eq. 2 measurement-error bound) — Fig. 6a's shape.
    let frame = small_thermal(31);
    // Average over several seeds: the curve's *shape* is the claim,
    // and any single plan draw is noisy at 31×31.
    const SEEDS: u64 = 6;
    let rmse_at = |fraction: f64| {
        let mut acc = 0.0;
        for seed in 0..SEEDS {
            acc += run_experiment(
                &frame,
                &ExperimentConfig {
                    sampling_fraction: fraction,
                    error_fraction: 0.05,
                    seed,
                    ..ExperimentConfig::default()
                },
            )
            .unwrap()
            .rmse_cs;
        }
        acc / SEEDS as f64
    };
    let r45 = rmse_at(0.45);
    let r60 = rmse_at(0.60);
    let r75 = rmse_at(0.75);
    assert!(r60 < r45, "rmse(60%) = {r60} vs rmse(45%) = {r45}");
    assert!(r75 < r60 * 1.05, "rmse(75%) = {r75} vs rmse(60%) = {r60}");
    let gain1 = r45 - r60;
    let gain2 = r60 - r75;
    assert!(
        gain2 < gain1 * 1.2,
        "diminishing returns: {gain1} then {gain2}"
    );
}
