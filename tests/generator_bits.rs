//! Every seeded generator and fixed design point keeps its recorded
//! bits: the dataset generators, error injection and measurement noise,
//! the behavioral and transistor-level arrays, the Fig. 5e amplifier,
//! the randomized SVD (cold and warm), per-block seeds and `flexcs-nn`
//! weight initialization. Each case hashes the bit patterns of its
//! output, so any change to a seed, stream, constant or operation order
//! moves a hash.

use flexcs::circuit::{
    build_self_biased_amplifier, log_frequencies, ActiveMatrix, CellLibrary, Circuit, NodeId,
    PixelDefect, TftArray, Waveform,
};
use flexcs::core::{
    run_experiment, BlockGrid, BlockGridConfig, ExperimentConfig, SparseErrorModel,
};
use flexcs::datasets::{thermal_sequence, ultrasound_frame, ThermalConfig, UltrasoundConfig};
use flexcs::linalg::{Matrix, Rsvd};
use flexcs::nn::{Dense, Layer, Tensor};

/// FNV-1a over the bit patterns of `values`.
fn bit_hash(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn smooth_frame(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        0.5 + 0.3 * (i as f64 * 0.4).sin() + 0.2 * (j as f64 * 0.3).cos()
    })
}

#[test]
fn dataset_generators_keep_their_bits() {
    let frames = thermal_sequence(&ThermalConfig::default(), 3, 2020);
    let flat: Vec<f64> = frames.iter().flat_map(|f| f.to_flat()).collect();
    let us = ultrasound_frame(&UltrasoundConfig::default(), 7);
    assert_eq!(
        (bit_hash(&flat), bit_hash(us.as_slice())),
        (278618955636912529, 1661353378023650801)
    );
}

#[test]
fn error_injection_and_measurement_noise_keep_their_bits() {
    let frame = smooth_frame(16, 16);
    let (corrupted, indices) = SparseErrorModel::new(0.1).unwrap().corrupt(&frame, 11);
    let indices: Vec<f64> = indices.iter().map(|&i| i as f64).collect();
    let noisy = run_experiment(
        &frame,
        &ExperimentConfig {
            sampling_fraction: 0.3,
            measurement_noise: 0.01,
            seed: 5,
            ..ExperimentConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        (
            bit_hash(corrupted.as_slice()),
            bit_hash(&indices),
            bit_hash(noisy.corrupted.as_slice())
        ),
        (
            16778774561866273733,
            438528076302320968,
            5253105085805093737
        )
    );
}

#[test]
fn block_seeds_keep_their_bits() {
    let grid = BlockGrid::new(96, 96, BlockGridConfig::default()).unwrap();
    let seeds: Vec<f64> = (0..grid.block_count())
        .map(|i| f64::from_bits(grid.block_seed(0x00c0_ffee, i)))
        .collect();
    assert_eq!(bit_hash(&seeds), 14130280949356304039);
}

#[test]
fn active_matrix_read_keeps_its_bits() {
    let mut array = ActiveMatrix::new(8, 8).unwrap();
    array.inject_defects(0.1, 3);
    array.set_defect(0, PixelDefect::None);
    let scene: Vec<f64> = (0..64).map(|i| (i % 9) as f64 / 8.0).collect();
    let read = array.read_normalized(&scene, 4).unwrap();
    assert_eq!(bit_hash(&read), 14072143671141474987);
}

#[test]
fn tft_array_scan_keeps_its_bits() {
    let scene = [0.0, 1.0, 0.5, 1.0, 0.0, 0.5];
    let scan = TftArray::build(2, 3, &scene).unwrap().scan().unwrap();
    let volts: Vec<f64> = (0..3)
        .flat_map(|c| (0..2).map(move |r| (r, c)))
        .map(|(r, c)| scan.row_voltage(r, c))
        .collect();
    assert_eq!(bit_hash(&volts), 15103943716305326411);
}

#[test]
fn amplifier_ac_gain_keeps_its_bits() {
    let mut ckt = Circuit::new();
    let lib = CellLibrary::with_rails(&mut ckt, 3.0, -3.0);
    let amp = build_self_biased_amplifier(&mut ckt, &lib, "vin").unwrap();
    let vin = ckt.find_node("vin").unwrap();
    let src = ckt.add_vsource(vin, NodeId::GROUND, Waveform::Dc(0.0));
    let sweep = ckt.ac_sweep(src, &log_frequencies(100.0, 1e6, 3)).unwrap();
    assert_eq!(bit_hash(&sweep.gain_db(amp.output)), 16114085825930658356);
}

#[test]
fn randomized_svd_keeps_its_bits_cold_and_warm() {
    let a = Matrix::from_fn(48, 40, |i, j| {
        ((i * 3 + 1) as f64 * 0.17).sin() * ((j + 2) as f64 * 0.11).cos()
            + 0.5 * ((i + 2 * j) as f64 * 0.05).sin()
            + 0.01 * ((i * 7 + j * 13) as f64 * 0.9).sin()
    });
    let b = &a + &Matrix::from_fn(48, 40, |i, j| ((i + j) as f64 * 0.3).cos() * 1e-3);
    let cold = Rsvd::compute_warm(&a, 4, None).unwrap();
    // Rank 6 sketches 14 columns: the 12 warm ones plus 2 fresh draws.
    let warm = Rsvd::compute_warm(&b, 6, Some(cold.subspace())).unwrap();
    let hash = |r: &Rsvd| {
        let mut all = r.sigma().to_vec();
        all.extend_from_slice(r.u().as_slice());
        all.extend_from_slice(r.v().as_slice());
        all.extend_from_slice(r.subspace().as_slice());
        all.push(r.residual());
        bit_hash(&all)
    };
    assert_eq!(
        (hash(&cold), hash(&warm)),
        (9827225685952099277, 10582522321426054144)
    );
}

#[test]
fn nn_weight_init_keeps_its_bits() {
    let (inputs, outputs) = (6, 4);
    let mut layer = Dense::new(inputs, outputs, 42);
    // Unit inputs read the weight columns out exactly.
    let weights: Vec<f64> = (0..inputs)
        .flat_map(|k| {
            let x = Tensor::from_fn(&[inputs], |i| if i == k { 1.0 } else { 0.0 });
            layer.forward(&x, false).into_vec()
        })
        .collect();
    assert_eq!(bit_hash(&weights), 2069683741011918037);
}
