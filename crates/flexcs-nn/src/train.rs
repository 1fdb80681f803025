//! Training loop with minibatches, Adam, plateau LR decay and
//! best-weights selection — the paper's recipe: "trained with error
//! backpropagation using Adam optimizer and categorical cross-entropy…
//! we reduce the learning rate by a factor of 10 until validation loss
//! converges. The weights that achieve the best validation accuracy are
//! selected for the final evaluation."

use crate::layers::Layer;
use crate::loss::cross_entropy_with_logits;
use crate::metrics::evaluate;
use crate::optim::{Adam, ReduceLrOnPlateau};
use crate::resnet::Sequential;
use crate::tensor::Tensor;
use flexcs_linalg::SplitMix64;

/// Epochs without validation-loss improvement before a 10x LR
/// reduction.
const PLATEAU_PATIENCE: usize = 2;

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size (gradients averaged over the batch).
    pub batch_size: usize,
    /// Initial Adam learning rate.
    pub lr: f64,
    /// Shuffle seed.
    pub seed: u64,
    /// Print one line per epoch to stdout.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 15,
            batch_size: 16,
            lr: 3e-3,
            seed: 0,
            verbose: false,
        }
    }
}

/// Per-epoch history and the selected best model.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Validation loss per epoch.
    pub val_loss: Vec<f64>,
    /// Validation accuracy per epoch.
    pub val_accuracy: Vec<f64>,
    /// Epoch index with the best validation accuracy.
    pub best_epoch: usize,
    /// That best validation accuracy.
    pub best_val_accuracy: f64,
}

/// Trains `net` on `(tensor, label)` samples; on return the network
/// holds the best-validation-accuracy weights.
///
/// # Panics
///
/// Panics if `train` or `val` is empty, or `batch_size == 0`.
pub fn fit(
    net: &mut Sequential,
    train: &[(Tensor, usize)],
    val: &[(Tensor, usize)],
    config: &TrainConfig,
) -> FitReport {
    assert!(!train.is_empty() && !val.is_empty(), "fit needs data");
    assert!(config.batch_size > 0, "batch size must be positive");
    let mut opt = Adam::new(config.lr);
    let mut sched = ReduceLrOnPlateau::new(PLATEAU_PATIENCE);
    let mut rng = SplitMix64::new(config.seed);
    let mut order: Vec<usize> = (0..train.len()).collect();

    let mut report = FitReport {
        train_loss: Vec::new(),
        val_loss: Vec::new(),
        val_accuracy: Vec::new(),
        best_epoch: 0,
        best_val_accuracy: 0.0,
    };
    let mut best_snapshot = net.snapshot();

    for epoch in 0..config.epochs {
        // Shuffle.
        for i in (1..order.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.batch_size) {
            net.zero_grads();
            let mut batch_loss = 0.0;
            for &idx in batch {
                let (x, label) = &train[idx];
                let logits = net.forward(x, true);
                let (loss, mut grad) = cross_entropy_with_logits(&logits, *label);
                batch_loss += loss;
                // Average gradients over the batch.
                grad.scale(1.0 / batch.len() as f64);
                net.backward(&grad);
            }
            epoch_loss += batch_loss;
            opt.step(net);
        }
        epoch_loss /= train.len() as f64;

        let (vl, va) = evaluate(net, val);
        report.train_loss.push(epoch_loss);
        report.val_loss.push(vl);
        report.val_accuracy.push(va);
        if va > report.best_val_accuracy {
            report.best_val_accuracy = va;
            report.best_epoch = epoch;
            best_snapshot = net.snapshot();
        }
        let reduced = sched.observe(vl, &mut opt.lr);
        if config.verbose {
            println!(
                "epoch {epoch:>3}: train loss {epoch_loss:.4}, val loss {vl:.4}, val acc {:.1}%{}",
                va * 100.0,
                if reduced { " (lr reduced)" } else { "" }
            );
        }
    }
    net.restore(&best_snapshot);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, Relu};
    use crate::resnet::Sequential;

    /// Tiny separable 2-class problem: mean of the frame decides.
    fn toy_data(count: usize, seed: u64) -> Vec<(Tensor, usize)> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                let label = (rng.uniform() < 0.5) as usize;
                let base = if label == 1 { 0.8 } else { 0.2 };
                let x = Tensor::from_fn(&[1, 4, 4], |_| base + 0.1 * (rng.uniform() - 0.5));
                (x, label)
            })
            .collect()
    }

    fn toy_net(seed: u64) -> Sequential {
        Sequential::new()
            .push(Flatten::new())
            .push(Dense::new(16, 8, seed))
            .push(Relu::new())
            .push(Dense::new(8, 2, seed ^ 1))
    }

    #[test]
    fn fit_learns_toy_problem() {
        let train = toy_data(60, 1);
        let val = toy_data(20, 2);
        let mut net = toy_net(3);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 8,
            lr: 1e-2,
            ..TrainConfig::default()
        };
        let report = fit(&mut net, &train, &val, &cfg);
        assert!(
            report.best_val_accuracy > 0.9,
            "best accuracy {}",
            report.best_val_accuracy
        );
        assert_eq!(report.train_loss.len(), 20);
        // Training loss trends down.
        assert!(report.train_loss.last().unwrap() < &report.train_loss[0]);
    }

    #[test]
    fn fit_restores_best_weights() {
        let train = toy_data(40, 5);
        let val = toy_data(16, 6);
        let mut net = toy_net(7);
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 8,
            lr: 1e-2,
            ..TrainConfig::default()
        };
        let report = fit(&mut net, &train, &val, &cfg);
        let (_, acc_now) = evaluate(&mut net, &val);
        assert!((acc_now - report.best_val_accuracy).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fit needs data")]
    fn fit_rejects_empty_data() {
        let mut net = toy_net(1);
        fit(&mut net, &[], &[], &TrainConfig::default());
    }

    #[test]
    fn fit_is_deterministic() {
        let train = toy_data(30, 9);
        let val = toy_data(10, 10);
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let mut n1 = toy_net(11);
        let r1 = fit(&mut n1, &train, &val, &cfg);
        let mut n2 = toy_net(11);
        let r2 = fit(&mut n2, &train, &val, &cfg);
        assert_eq!(r1.train_loss, r2.train_loss);
        assert_eq!(n1.snapshot(), n2.snapshot());
    }
}
