//! Regenerates paper Fig. 6b: tactile object-recognition accuracy with
//! and without CS under sparse errors (paper headline: 65 % → 84 % at
//! ~10 % errors).
//!
//! Splits the grasps three ways: the ResNet trains once on the training
//! split (plus its CS reconstructions), keeps the epoch that scores best
//! on the validation split, and is then scored on the held-out test
//! split (a) raw-corrupted and (b) CS-reconstructed, across error rates
//! and sampling percentages.
//!
//! Run with: `cargo run --release -p flexcs-bench --bin fig6b_accuracy`
//! (expect several minutes: CNN training plus hundreds of
//! reconstructions).

use flexcs_bench::{pct, print_table};
use flexcs_core::{Decoder, SamplingStrategy, SparseErrorModel};
use flexcs_datasets::{tactile_dataset, Dataset, TactileConfig, TACTILE_CLASS_COUNT};
use flexcs_linalg::Matrix;
use flexcs_nn::{accuracy, build_tactile_resnet, fit, tensor_from_frame, Tensor, TrainConfig};

fn to_samples(frames: &[Matrix], labels: &[usize]) -> Vec<(Tensor, usize)> {
    frames
        .iter()
        .zip(labels)
        .map(|(f, &l)| (tensor_from_frame(f), l))
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 2020;
    let per_class = 24;
    println!(
        "Fig. 6b — object recognition accuracy, {} classes x {per_class} grasps (seed {seed})\n",
        TACTILE_CLASS_COUNT
    );
    let (frames, labels) = tactile_dataset(&TactileConfig::default(), per_class, seed);
    let dataset = Dataset::new(frames, labels)?;
    let (train_val_set, test_set) = dataset.split(0.75, seed)?;
    // Best-epoch selection needs frames of its own: scoring it on the
    // test split would pick the epoch by the figure being measured.
    let (train_set, val_set) = train_val_set.split(5.0 / 6.0, seed + 1)?;

    let decoder = Decoder::default();

    // The deployed system always reads through the CS path, so the
    // classifier is trained on both pristine frames and their CS
    // reconstructions (clean, 55 % sampling) — otherwise the slight
    // reconstruction smoothing is an artificial distribution shift.
    // Clean frames have no defects, so nothing is excluded.
    let strategy_train = SamplingStrategy::ExcludeKnown { indices: vec![] };
    println!(
        "augmenting {} training frames with their CS reconstructions...",
        train_set.len()
    );
    let n = 32 * 32;
    let m55 = n * 55 / 100;
    let mut train_samples = to_samples(train_set.frames(), train_set.labels());
    for (k, (frame, label)) in train_set.iter().enumerate() {
        let rec = strategy_train.reconstruct(frame, m55, &decoder, seed + 7919 * k as u64)?;
        train_samples.push((tensor_from_frame(&rec), label));
    }

    println!(
        "training ResNet on {} samples, validating on {}, testing on {}...",
        train_samples.len(),
        val_set.len(),
        test_set.len()
    );
    let mut net = build_tactile_resnet(TACTILE_CLASS_COUNT, 8, seed);
    let report = fit(
        &mut net,
        &train_samples,
        &to_samples(val_set.frames(), val_set.labels()),
        &TrainConfig {
            epochs: 16,
            batch_size: 16,
            lr: 3e-3,
            verbose: true,
            seed,
            ..TrainConfig::default()
        },
    );
    println!(
        "clean validation accuracy: {:.1}% (best epoch {})\n",
        report.best_val_accuracy * 100.0,
        report.best_epoch
    );
    let errors = [0.0, 0.05, 0.10, 0.15, 0.20];
    let samplings = [0.45, 0.55];
    let n = 32 * 32;

    let mut table = Vec::new();
    for &error in &errors {
        // Corrupt the test frames once per error rate, remembering the
        // injected defect map: the paper identifies defects by testing,
        // so the encoder knows which pixels to exclude.
        let corrupted: Vec<(Matrix, Vec<usize>)> = test_set
            .frames()
            .iter()
            .enumerate()
            .map(|(k, f)| {
                SparseErrorModel::new(error)
                    .expect("valid fraction")
                    .corrupt(f, seed + k as u64 * 7)
            })
            .collect();
        let corrupted_frames: Vec<Matrix> = corrupted.iter().map(|(f, _)| f.clone()).collect();
        let acc_raw = accuracy(&mut net, &to_samples(&corrupted_frames, test_set.labels()));
        let mut cells = vec![pct(error), format!("{:.1}%", acc_raw * 100.0)];
        for &sampling in &samplings {
            let m = (n as f64 * sampling) as usize;
            let reconstructed: Vec<Matrix> = corrupted
                .iter()
                .enumerate()
                .map(|(k, (f, defects))| {
                    SamplingStrategy::ExcludeKnown {
                        indices: defects.clone(),
                    }
                    .reconstruct(f, m, &decoder, seed + 97 * k as u64)
                    .expect("reconstruction")
                })
                .collect();
            let acc_cs = accuracy(&mut net, &to_samples(&reconstructed, test_set.labels()));
            cells.push(format!("{:.1}%", acc_cs * 100.0));
        }
        println!("  error rate {} done", pct(error));
        table.push(cells);
    }
    println!();
    print_table(
        &["errors", "acc w/o cs", "acc w/ cs @45%", "acc w/ cs @55%"],
        &table,
    );
    println!("\npaper shape: accuracy w/o CS collapses with errors; CS holds it high");
    println!("paper headline @10% errors: 65% w/o cs -> 84% w/ cs");
    Ok(())
}
