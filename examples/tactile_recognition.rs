//! Tactile object recognition (paper Sec. 4.2, Fig. 6b in miniature).
//!
//! Trains a small ResNet on synthetic 26-class tactile frames, then
//! evaluates test accuracy on (a) clean frames, (b) frames with 10 %
//! stuck pixels, and (c) CS reconstructions of the corrupted frames —
//! reproducing the paper's accuracy-boost effect.
//!
//! Run with: `cargo run --release --example tactile_recognition`
//! (training takes a couple of minutes).

use flexcs::core::{Decoder, SamplingStrategy, SparseErrorModel};
use flexcs::datasets::{tactile_dataset, Dataset, TactileConfig, TACTILE_CLASS_COUNT};
use flexcs::linalg::Matrix;
use flexcs::nn::{accuracy, build_tactile_resnet, fit, tensor_from_frame, Tensor, TrainConfig};

fn to_samples(ds: &Dataset) -> Vec<(Tensor, usize)> {
    ds.iter()
        .map(|(frame, label)| (tensor_from_frame(frame), label))
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 13;
    // 20 grasps per object is enough for a clear demonstration.
    let (frames, labels) = tactile_dataset(&TactileConfig::default(), 20, seed);
    let dataset = Dataset::new(frames, labels)?;
    let (train_set, test_set) = dataset.split(0.75, seed)?;
    println!(
        "tactile recognition: {} classes, {} train / {} test frames",
        TACTILE_CLASS_COUNT,
        train_set.len(),
        test_set.len()
    );

    let mut net = build_tactile_resnet(TACTILE_CLASS_COUNT, 8, seed);
    let config = TrainConfig {
        epochs: 10,
        batch_size: 16,
        lr: 3e-3,
        verbose: true,
        seed,
    };
    println!("\ntraining ResNet (Adam, cross-entropy, plateau LR decay)...");
    let report = fit(
        &mut net,
        &to_samples(&train_set),
        &to_samples(&test_set),
        &config,
    );
    println!(
        "best validation accuracy: {:.1}% (epoch {})",
        report.best_val_accuracy * 100.0,
        report.best_epoch
    );

    // Corrupt the test frames with 10 % sparse errors, keeping the
    // injected defect maps (the paper's flow identifies defects by
    // offline testing before sampling).
    let error_model = SparseErrorModel::new(0.10)?;
    let corrupted_with_defects: Vec<(Matrix, Vec<usize>)> = test_set
        .frames()
        .iter()
        .enumerate()
        .map(|(k, f)| error_model.corrupt(f, seed + k as u64))
        .collect();
    let corrupted: Vec<Matrix> = corrupted_with_defects
        .iter()
        .map(|(f, _)| f.clone())
        .collect();

    // CS-reconstruct each corrupted frame (55 % sampling, tested
    // defects excluded).
    let decoder = Decoder::default();
    let m = (32 * 32) * 55 / 100;
    let reconstructed: Vec<Matrix> = corrupted_with_defects
        .iter()
        .enumerate()
        .map(|(k, (f, defects))| {
            SamplingStrategy::ExcludeKnown {
                indices: defects.clone(),
            }
            .reconstruct(f, m, &decoder, seed + 31 * k as u64)
        })
        .collect::<Result<_, _>>()?;

    let labeled = |frames: &[Matrix]| -> Vec<(Tensor, usize)> {
        frames
            .iter()
            .zip(test_set.labels())
            .map(|(f, &l)| (tensor_from_frame(f), l))
            .collect()
    };
    let acc_clean = accuracy(&mut net, &labeled(test_set.frames()));
    let acc_raw = accuracy(&mut net, &labeled(&corrupted));
    let acc_cs = accuracy(&mut net, &labeled(&reconstructed));

    println!(
        "\naccuracy on clean test frames         : {:.1}%",
        acc_clean * 100.0
    );
    println!(
        "accuracy with 10% stuck pixels (raw)  : {:.1}%",
        acc_raw * 100.0
    );
    println!(
        "accuracy after CS reconstruction      : {:.1}%",
        acc_cs * 100.0
    );
    println!(
        "\nCS recovers {:.1} points of the {:.1}-point corruption loss.",
        (acc_cs - acc_raw) * 100.0,
        (acc_clean - acc_raw) * 100.0
    );
    Ok(())
}
