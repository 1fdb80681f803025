//! Residual blocks and the small ResNet used for tactile recognition.
//!
//! The paper classifies 32x32 tactile frames into 26 object classes with
//! a ResNet [28] using max pooling and dropout. This module provides the
//! same architecture family at a scale a CPU reproduces in minutes.

use crate::layers::{Conv2d, Dense, Dropout, Flatten, GlobalAvgPool, Layer, MaxPool2d, Relu};
use crate::tensor::Tensor;

/// A pre-activation-free residual block:
/// `y = relu(x + conv2(relu(conv1(x))))` with channel-preserving 3x3
/// convolutions.
pub struct ResidualBlock {
    conv1: Conv2d,
    relu1: Relu,
    conv2: Conv2d,
    relu_out: Relu,
}

impl ResidualBlock {
    /// Creates a block with `channels` in/out channels.
    pub fn new(channels: usize, seed: u64) -> Self {
        ResidualBlock {
            conv1: Conv2d::new(channels, channels, 3, seed),
            relu1: Relu::new(),
            conv2: Conv2d::new(channels, channels, 3, seed ^ 0xabcd),
            relu_out: Relu::new(),
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let h = self.conv1.forward(x, train);
        let h = self.relu1.forward(&h, train);
        let mut h = self.conv2.forward(&h, train);
        h.add_assign(x); // skip connection
        self.relu_out.forward(&h, train)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.relu_out.backward(grad);
        // Branch: through conv2 → relu1 → conv1; skip: identity.
        let g_branch = self.conv2.backward(&g);
        let g_branch = self.relu1.backward(&g_branch);
        let mut gx = self.conv1.backward(&g_branch);
        gx.add_assign(&g); // skip path gradient
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.conv1.visit_params(f);
        self.conv2.visit_params(f);
    }

    fn zero_grads(&mut self) {
        self.conv1.zero_grads();
        self.conv2.zero_grads();
    }

    fn name(&self) -> &'static str {
        "resblock"
    }
}

/// A simple sequential network of boxed layers.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Copies all parameters into a flat snapshot (for best-weights
    /// selection).
    pub fn snapshot(&mut self) -> Vec<f64> {
        let mut out = Vec::new();
        self.visit_params(&mut |w, _| out.extend_from_slice(w));
        out
    }

    /// Restores parameters from a snapshot created by
    /// [`Sequential::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match.
    pub fn restore(&mut self, snapshot: &[f64]) {
        let mut offset = 0;
        self.visit_params(&mut |w, _| {
            w.copy_from_slice(&snapshot[offset..offset + w.len()]);
            offset += w.len();
        });
        assert_eq!(offset, snapshot.len(), "snapshot length mismatch");
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, train);
        }
        h
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

/// Builds the tactile-recognition ResNet: stem conv → residual block →
/// max-pool → residual block → max-pool → dropout → global average pool
/// → dense classifier.
///
/// `width` is the channel count (8 reproduces the paper's trends in
/// minutes on a CPU).
pub fn build_tactile_resnet(classes: usize, width: usize, seed: u64) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(1, width, 3, seed))
        .push(Relu::new())
        .push(ResidualBlock::new(width, seed ^ 0x11))
        .push(MaxPool2d::new())
        .push(ResidualBlock::new(width, seed ^ 0x22))
        .push(MaxPool2d::new())
        .push(Dropout::new(0.3, seed ^ 0x33))
        .push(GlobalAvgPool::new())
        .push(Flatten::new())
        .push(Dense::new(width, classes, seed ^ 0x44))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_block_preserves_shape() {
        let mut block = ResidualBlock::new(4, 1);
        let x = Tensor::from_fn(&[4, 8, 8], |i| (i as f64 * 0.01).sin());
        let y = block.forward(&x, false);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn residual_block_gradient_matches_finite_difference() {
        let mut block = ResidualBlock::new(2, 3);
        let x = Tensor::from_fn(&[2, 4, 4], |i| ((i * 13 % 7) as f64 - 3.0) * 0.2);
        let y = block.forward(&x, false);
        let ones = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let gx = block.backward(&ones);
        let h = 1e-6;
        for i in [0usize, 5, 11, 21, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fp: f64 = block.forward(&xp, false).as_slice().iter().sum();
            let fm: f64 = block.forward(&xm, false).as_slice().iter().sum();
            let num = (fp - fm) / (2.0 * h);
            assert!(
                (num - gx.as_slice()[i]).abs() < 1e-4,
                "grad[{i}]: {} vs {num}",
                gx.as_slice()[i]
            );
        }
    }

    #[test]
    fn sequential_composes() {
        let mut net = Sequential::new()
            .push(Conv2d::new(1, 2, 3, 5))
            .push(Relu::new())
            .push(Flatten::new())
            .push(Dense::new(2 * 4 * 4, 3, 6));
        let x = Tensor::from_fn(&[1, 4, 4], |i| i as f64 * 0.1);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[3]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut net = build_tactile_resnet(5, 4, 7);
        let snap = net.snapshot();
        let x = Tensor::from_fn(&[1, 8, 8], |i| (i as f64 * 0.03).cos());
        let y0 = net.forward(&x, false);
        // Perturb, then restore.
        net.visit_params(&mut |w, _| {
            for v in w.iter_mut() {
                *v += 0.1;
            }
        });
        let y1 = net.forward(&x, false);
        assert_ne!(y0.as_slice(), y1.as_slice());
        net.restore(&snap);
        let y2 = net.forward(&x, false);
        for (a, b) in y0.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn tactile_resnet_output_dimension() {
        let mut net = build_tactile_resnet(26, 4, 1);
        let x = Tensor::from_fn(&[1, 32, 32], |i| (i % 11) as f64 * 0.05);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[26]);
    }
}
