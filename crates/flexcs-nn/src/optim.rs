//! Optimizers and learning-rate scheduling.
//!
//! The paper trains "with error backpropagation using Adam optimizer"
//! and reduces "the learning rate by a factor of 10 until validation
//! loss converges" — implemented here as [`Adam`] plus
//! [`ReduceLrOnPlateau`].

use crate::layers::Layer;

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Epsilon for numerical stability.
    pub eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates Adam with the customary `β₁ = 0.9`, `β₂ = 0.999`.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to all parameters of `net`.
    pub fn step(&mut self, net: &mut dyn Layer) {
        self.t += 1;
        let t = self.t as f64;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let mut buf_idx = 0;
        let (m_all, v_all) = (&mut self.m, &mut self.v);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        net.visit_params(&mut |w, g| {
            if m_all.len() <= buf_idx {
                m_all.push(vec![0.0; w.len()]);
                v_all.push(vec![0.0; w.len()]);
            }
            let m = &mut m_all[buf_idx];
            let v = &mut v_all[buf_idx];
            for i in 0..w.len() {
                m[i] = b1 * m[i] + (1.0 - b1) * g[i];
                v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                w[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            buf_idx += 1;
        });
    }
}

/// Learning-rate scheduler: divides the rate by `factor` after
/// `patience` consecutive epochs without validation-loss improvement.
#[derive(Debug, Clone)]
pub struct ReduceLrOnPlateau {
    /// Division factor applied on plateau (paper: 10).
    pub factor: f64,
    /// Epochs without improvement tolerated before reducing.
    pub patience: usize,
    /// Lower bound on the learning rate.
    pub min_lr: f64,
    best: f64,
    stale: usize,
}

impl ReduceLrOnPlateau {
    /// Creates a scheduler with the paper's factor of 10.
    pub fn new(patience: usize) -> Self {
        ReduceLrOnPlateau {
            factor: 10.0,
            patience,
            min_lr: 1e-6,
            best: f64::INFINITY,
            stale: 0,
        }
    }

    /// Observes one epoch's validation loss; updates `lr` in place and
    /// returns `true` when a reduction happened.
    pub fn observe(&mut self, val_loss: f64, lr: &mut f64) -> bool {
        if val_loss < self.best - 1e-12 {
            self.best = val_loss;
            self.stale = 0;
            return false;
        }
        self.stale += 1;
        if self.stale > self.patience && *lr > self.min_lr {
            *lr = (*lr / self.factor).max(self.min_lr);
            self.stale = 0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer};
    use crate::loss::cross_entropy_with_logits;
    use crate::tensor::Tensor;

    fn train_toy(mut step: impl FnMut(&mut Dense)) -> f64 {
        // Learn to map a fixed input to class 1.
        let mut layer = Dense::new(4, 3, 1);
        let x = Tensor::from_vec(&[4], vec![0.5, -0.2, 0.8, 0.1]);
        let mut final_loss = f64::INFINITY;
        for _ in 0..200 {
            layer.zero_grads();
            let logits = layer.forward(&x, true);
            let (loss, grad) = cross_entropy_with_logits(&logits, 1);
            layer.backward(&grad);
            step(&mut layer);
            final_loss = loss;
        }
        final_loss
    }

    #[test]
    fn adam_reduces_loss_fast() {
        let mut opt = Adam::new(0.05);
        let loss = train_toy(|l| opt.step(l));
        assert!(loss < 1e-2, "final loss {loss}");
    }

    #[test]
    fn plateau_scheduler_reduces_lr() {
        let mut sched = ReduceLrOnPlateau::new(2);
        let mut lr = 1.0;
        // Improvement: no reduction.
        assert!(!sched.observe(1.0, &mut lr));
        assert!(!sched.observe(0.5, &mut lr));
        // Stale epochs.
        assert!(!sched.observe(0.6, &mut lr));
        assert!(!sched.observe(0.6, &mut lr));
        assert!(sched.observe(0.6, &mut lr));
        assert!((lr - 0.1).abs() < 1e-12);
        // Respects the floor.
        let mut tiny = 1e-6;
        let mut s2 = ReduceLrOnPlateau::new(0);
        assert!(!s2.observe(1.0, &mut tiny));
        assert!(!s2.observe(2.0, &mut tiny));
        assert_eq!(tiny, 1e-6);
    }
}
