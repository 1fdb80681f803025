//! Bit-identity checks for the thread fan-out: every fan-out point in
//! the recovery pipeline must produce results identical to a
//! hand-rolled serial loop over the same public APIs. The fan-out uses
//! the default pool, so these compare real threads against the serial
//! loop whenever it has more than one worker (pin `FLEXCS_THREADS=2`
//! on a single-core host); at `FLEXCS_THREADS=1` both sides are serial.

use flexcs_core::{
    outlier_indices, persistent_outliers, rpca, run_experiment, run_experiment_batch, Decoder,
    ExperimentConfig, RpcaConfig, SamplingPlan, SamplingStrategy,
};
use flexcs_linalg::{vecops, Matrix};

fn smooth_frame(rows: usize, cols: usize, phase: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        0.5 + 0.3 * ((i as f64) * 0.4 + phase).sin() + 0.2 * ((j as f64) * 0.3).cos()
    })
}

#[test]
fn resample_median_parallel_matches_serial_reference() {
    let measured = smooth_frame(16, 16, 0.0);
    let decoder = Decoder::default();
    let (rows, cols) = measured.shape();
    let n = rows * cols;
    let (m, seed, rounds) = (140usize, 42u64, 6usize);

    let parallel = SamplingStrategy::ResampleMedian { rounds }
        .reconstruct(&measured, m, &decoder, seed)
        .unwrap();

    // Serial reference: the same per-round seed schedule, one round at
    // a time, medians per pixel.
    let flat = measured.to_flat();
    let mut stacks: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); n];
    for r in 0..rounds {
        let plan =
            SamplingPlan::random_subset(n, m, &[], seed.wrapping_add(r as u64 * 77)).unwrap();
        let y = plan.measure(&flat);
        let rec = decoder
            .reconstruct(rows, cols, plan.selected(), &y)
            .unwrap()
            .frame;
        for (stack, &v) in stacks.iter_mut().zip(rec.as_slice()) {
            stack.push(v);
        }
    }
    let serial = Matrix::from_fn(rows, cols, |i, j| vecops::median(&stacks[i * cols + j]));

    assert_eq!(
        parallel.as_slice(),
        serial.as_slice(),
        "parallel resample-median must be bit-identical to the serial loop"
    );
}

#[test]
fn experiment_batch_parallel_matches_serial_reference() {
    let frames: Vec<Matrix> = (0..5)
        .map(|k| smooth_frame(12, 12, k as f64 * 0.9))
        .collect();
    let config = ExperimentConfig {
        seed: 99,
        ..ExperimentConfig::default()
    };

    let (batch_cs, batch_raw) = run_experiment_batch(&frames, &config).unwrap();

    // Serial reference: frame k under seed + k*1013, averaged in order.
    let mut sum_cs = 0.0;
    let mut sum_raw = 0.0;
    for (k, frame) in frames.iter().enumerate() {
        let mut cfg = config.clone();
        cfg.seed = config.seed.wrapping_add(k as u64 * 1013);
        let outcome = run_experiment(frame, &cfg).unwrap();
        sum_cs += outcome.rmse_cs;
        sum_raw += outcome.rmse_raw;
    }
    let serial_cs = sum_cs / frames.len() as f64;
    let serial_raw = sum_raw / frames.len() as f64;

    assert_eq!(batch_cs.to_bits(), serial_cs.to_bits());
    assert_eq!(batch_raw.to_bits(), serial_raw.to_bits());
}

#[test]
fn persistent_outliers_parallel_matches_serial_reference() {
    // Frames sharing two stuck pixels plus per-frame noise structure.
    let frames: Vec<Matrix> = (0..4)
        .map(|k| {
            let mut f = smooth_frame(10, 10, k as f64 * 0.5);
            f[(2, 3)] = 0.0;
            f[(7, 1)] = 1.0;
            f
        })
        .collect();
    let config = RpcaConfig::default();
    let (threshold, persistence) = (0.5, 0.75);

    let fanned = persistent_outliers(&frames, &config, threshold, persistence).unwrap();

    let n = frames[0].rows() * frames[0].cols();
    let mut hits = vec![0usize; n];
    for frame in &frames {
        let dec = rpca(frame, &config).unwrap();
        for idx in outlier_indices(&dec, threshold) {
            hits[idx] += 1;
        }
    }
    let needed = (((frames.len() as f64) * persistence).ceil() as usize).max(1);
    let serial: Vec<usize> = (0..n).filter(|&i| hits[i] >= needed).collect();

    assert_eq!(fanned, serial);
}
