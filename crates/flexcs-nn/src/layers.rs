//! Neural-network layers with explicit forward/backward passes.
//!
//! The paper's tactile case study uses a ResNet-style CNN with max
//! pooling and dropout (Sec. 4.2). Everything here is written for
//! single-sample `[C, H, W]` tensors; the trainer accumulates gradients
//! over a minibatch before each optimizer step.

use crate::init::he;
use crate::tensor::Tensor;
use flexcs_linalg::SplitMix64;

/// A differentiable layer processing one sample at a time.
///
/// `backward` must be called after `forward` (layers cache their inputs)
/// and accumulates parameter gradients internally until
/// [`Layer::zero_grads`].
pub trait Layer {
    /// Forward pass. `train` enables training-only behaviour (dropout).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backward pass: receives `∂L/∂output`, returns `∂L/∂input`.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// Visits `(params, grads)` buffers in a stable order.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut [f64], &mut [f64])) {}

    /// Clears accumulated gradients.
    fn zero_grads(&mut self) {}

    /// Short layer name for summaries.
    fn name(&self) -> &'static str;
}

/// 2-D convolution, stride 1, "same" zero padding, square kernel.
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    /// `[out_ch, in_ch, k, k]` flattened.
    weight: Vec<f64>,
    bias: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    cache_x: Option<Tensor>,
}

impl Conv2d {
    /// Creates a `k x k` same-padded convolution with He-initialized
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even or any dimension is zero.
    pub fn new(in_ch: usize, out_ch: usize, k: usize, seed: u64) -> Self {
        assert!(k % 2 == 1, "conv kernel must be odd for same padding");
        assert!(in_ch > 0 && out_ch > 0 && k > 0);
        let mut rng = SplitMix64::new(seed);
        let fan_in = in_ch * k * k;
        let weight = (0..out_ch * in_ch * k * k)
            .map(|_| he(&mut rng, fan_in))
            .collect();
        Conv2d {
            in_ch,
            out_ch,
            k,
            weight,
            bias: vec![0.0; out_ch],
            grad_w: vec![0.0; out_ch * in_ch * k * k],
            grad_b: vec![0.0; out_ch],
            cache_x: None,
        }
    }

    fn w(&self, o: usize, c: usize, i: usize, j: usize) -> f64 {
        self.weight[((o * self.in_ch + c) * self.k + i) * self.k + j]
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let (c_in, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        assert_eq!(c_in, self.in_ch, "conv input channel mismatch");
        let p = self.k / 2;
        let mut y = Tensor::zeros(&[self.out_ch, h, w]);
        for o in 0..self.out_ch {
            for i in 0..h {
                for j in 0..w {
                    let mut acc = self.bias[o];
                    for c in 0..self.in_ch {
                        for di in 0..self.k {
                            let ii = i + di;
                            if ii < p || ii - p >= h {
                                continue;
                            }
                            for dj in 0..self.k {
                                let jj = j + dj;
                                if jj < p || jj - p >= w {
                                    continue;
                                }
                                acc += self.w(o, c, di, dj) * x.at3(c, ii - p, jj - p);
                            }
                        }
                    }
                    *y.at3_mut(o, i, j) = acc;
                }
            }
        }
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cache_x.as_ref().expect("forward before backward");
        let (h, w) = (x.shape()[1], x.shape()[2]);
        let p = self.k / 2;
        let mut gx = Tensor::zeros(&[self.in_ch, h, w]);
        for o in 0..self.out_ch {
            for i in 0..h {
                for j in 0..w {
                    let g = grad.at3(o, i, j);
                    if g == 0.0 {
                        continue;
                    }
                    self.grad_b[o] += g;
                    for c in 0..self.in_ch {
                        for di in 0..self.k {
                            let ii = i + di;
                            if ii < p || ii - p >= h {
                                continue;
                            }
                            for dj in 0..self.k {
                                let jj = j + dj;
                                if jj < p || jj - p >= w {
                                    continue;
                                }
                                let widx = ((o * self.in_ch + c) * self.k + di) * self.k + dj;
                                self.grad_w[widx] += g * x.at3(c, ii - p, jj - p);
                                *gx.at3_mut(c, ii - p, jj - p) += g * self.weight[widx];
                            }
                        }
                    }
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.weight, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// Fully connected layer on rank-1 tensors.
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    weight: Vec<f64>,
    bias: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    cache_x: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        Dense {
            in_dim,
            out_dim,
            weight: (0..in_dim * out_dim)
                .map(|_| he(&mut rng, in_dim))
                .collect(),
            bias: vec![0.0; out_dim],
            grad_w: vec![0.0; in_dim * out_dim],
            grad_b: vec![0.0; out_dim],
            cache_x: None,
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.len(), self.in_dim, "dense input size mismatch");
        let xs = x.as_slice();
        let mut y = Tensor::zeros(&[self.out_dim]);
        let ys = y.as_mut_slice();
        for (o, yo) in ys.iter_mut().enumerate() {
            let row = &self.weight[o * self.in_dim..(o + 1) * self.in_dim];
            *yo = self.bias[o] + row.iter().zip(xs).map(|(a, b)| a * b).sum::<f64>();
        }
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cache_x.as_ref().expect("forward before backward");
        let xs = x.as_slice();
        let gs = grad.as_slice();
        let mut gx = Tensor::zeros(&[self.in_dim]);
        let gxs = gx.as_mut_slice();
        for (o, &g) in gs.iter().enumerate() {
            self.grad_b[o] += g;
            let row = &self.weight[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut self.grad_w[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                grow[i] += g * xs[i];
                gxs[i] += g * row[i];
            }
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.weight, &mut self.grad_w);
        f(&mut self.bias, &mut self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.mask = x.as_slice().iter().map(|&v| v > 0.0).collect();
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = grad.clone();
        for (v, &m) in g.as_mut_slice().iter_mut().zip(&self.mask) {
            if !m {
                *v = 0.0;
            }
        }
        g
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// 2x2 max pooling, stride 2 (paper: "Max pooling … for reducing
/// dimensionality").
#[derive(Default)]
pub struct MaxPool2d {
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a 2x2/stride-2 pooling layer.
    pub fn new() -> Self {
        MaxPool2d::default()
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        assert!(h % 2 == 0 && w % 2 == 0, "maxpool needs even dimensions");
        let (ho, wo) = (h / 2, w / 2);
        let mut y = Tensor::zeros(&[c, ho, wo]);
        self.argmax = vec![0; c * ho * wo];
        self.in_shape = x.shape().to_vec();
        for ci in 0..c {
            for i in 0..ho {
                for j in 0..wo {
                    let mut best = f64::NEG_INFINITY;
                    let mut best_idx = 0;
                    for di in 0..2 {
                        for dj in 0..2 {
                            let v = x.at3(ci, 2 * i + di, 2 * j + dj);
                            if v > best {
                                best = v;
                                best_idx = (ci * h + 2 * i + di) * w + 2 * j + dj;
                            }
                        }
                    }
                    *y.at3_mut(ci, i, j) = best;
                    self.argmax[(ci * ho + i) * wo + j] = best_idx;
                }
            }
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut gx = Tensor::zeros(&self.in_shape);
        for (k, &src) in self.argmax.iter().enumerate() {
            gx.as_mut_slice()[src] += grad.as_slice()[k];
        }
        gx
    }

    fn name(&self) -> &'static str {
        "maxpool2"
    }
}

/// Inverted dropout (paper: "'Dropout' … for avoiding overfitting").
pub struct Dropout {
    p_drop: f64,
    rng: SplitMix64,
    mask: Vec<f64>,
}

impl Dropout {
    /// Creates a dropout layer dropping activations with probability
    /// `p_drop`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p_drop < 1`.
    pub fn new(p_drop: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p_drop), "p_drop must be in [0, 1)");
        Dropout {
            p_drop,
            rng: SplitMix64::new(seed),
            mask: Vec::new(),
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p_drop == 0.0 {
            self.mask = vec![1.0; x.len()];
            return x.clone();
        }
        let keep = 1.0 - self.p_drop;
        self.mask = (0..x.len())
            .map(|_| {
                if self.rng.uniform() < self.p_drop {
                    0.0
                } else {
                    1.0 / keep
                }
            })
            .collect();
        let mut y = x.clone();
        for (v, m) in y.as_mut_slice().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = grad.clone();
        for (v, m) in g.as_mut_slice().iter_mut().zip(&self.mask) {
            *v *= m;
        }
        g
    }

    fn name(&self) -> &'static str {
        "dropout"
    }
}

/// Flattens to rank 1.
#[derive(Default)]
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.in_shape = x.shape().to_vec();
        let mut y = x.clone();
        let n = y.len();
        y.reshape(&[n]);
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut g = grad.clone();
        g.reshape(&self.in_shape);
        g
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

/// Global average pooling over spatial dimensions: `[C, H, W] -> [C]`.
#[derive(Default)]
pub struct GlobalAvgPool {
    in_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        self.in_shape = x.shape().to_vec();
        let mut y = Tensor::zeros(&[c]);
        for ci in 0..c {
            let mut acc = 0.0;
            for i in 0..h {
                for j in 0..w {
                    acc += x.at3(ci, i, j);
                }
            }
            y.as_mut_slice()[ci] = acc / (h * w) as f64;
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (c, h, w) = (self.in_shape[0], self.in_shape[1], self.in_shape[2]);
        let scale = 1.0 / (h * w) as f64;
        let mut gx = Tensor::zeros(&self.in_shape);
        for ci in 0..c {
            let g = grad.as_slice()[ci] * scale;
            for i in 0..h {
                for j in 0..w {
                    *gx.at3_mut(ci, i, j) = g;
                }
            }
        }
        gx
    }

    fn name(&self) -> &'static str {
        "gap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_check(layer: &mut dyn Layer, x: &Tensor, tol: f64) {
        // Loss = sum(forward(x)); compare analytic dL/dx against finite
        // differences.
        let y = layer.forward(x, false);
        let ones = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let gx = layer.backward(&ones);
        let h = 1e-6;
        for i in 0..x.len().min(20) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fp: f64 = layer.forward(&xp, false).as_slice().iter().sum();
            let fm: f64 = layer.forward(&xm, false).as_slice().iter().sum();
            let num = (fp - fm) / (2.0 * h);
            let ana = gx.as_slice()[i];
            assert!(
                (num - ana).abs() < tol,
                "{} grad[{i}]: analytic {ana} vs numeric {num}",
                layer.name()
            );
        }
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        conv.visit_params(&mut |w, _| {
            if w.len() == 9 {
                w.copy_from_slice(&[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
            } else {
                w[0] = 0.0;
            }
        });
        let x = Tensor::from_fn(&[1, 4, 4], |i| i as f64);
        let y = conv.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_gradients_match_finite_difference() {
        let mut conv = Conv2d::new(2, 3, 3, 7);
        let x = Tensor::from_fn(&[2, 5, 5], |i| ((i * 31 % 17) as f64 - 8.0) * 0.1);
        finite_diff_check(&mut conv, &x, 1e-5);
    }

    #[test]
    fn conv_weight_gradients_match_finite_difference() {
        let mut conv = Conv2d::new(1, 2, 3, 9);
        let x = Tensor::from_fn(&[1, 4, 4], |i| (i as f64 * 0.37).sin());
        let y = conv.forward(&x, false);
        let ones = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        conv.zero_grads();
        conv.forward(&x, false);
        conv.backward(&ones);
        // Collect analytic gradients and compare a few entries.
        let mut grads = Vec::new();
        conv.visit_params(&mut |_, g| grads.push(g.to_vec()));
        let h = 1e-6;
        for pi in 0..6 {
            let mut plus = 0.0;
            let mut minus = 0.0;
            for (dir, out) in [(h, &mut plus), (-h, &mut minus)] {
                let mut k = 0;
                conv.visit_params(&mut |w, _| {
                    if k == 0 {
                        w[pi] += dir;
                    }
                    k += 1;
                });
                *out = conv.forward(&x, false).as_slice().iter().sum();
                let mut k = 0;
                conv.visit_params(&mut |w, _| {
                    if k == 0 {
                        w[pi] -= dir;
                    }
                    k += 1;
                });
            }
            let num = (plus - minus) / (2.0 * h);
            assert!(
                (num - grads[0][pi]).abs() < 1e-5,
                "weight grad[{pi}]: {} vs {num}",
                grads[0][pi]
            );
        }
    }

    #[test]
    fn dense_gradients_match_finite_difference() {
        let mut dense = Dense::new(6, 4, 5);
        let x = Tensor::from_fn(&[6], |i| (i as f64) * 0.3 - 1.0);
        finite_diff_check(&mut dense, &x, 1e-6);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 2.0, -0.5, 0.5]);
        let y = relu.forward(&x, false);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 0.5]);
        let g = relu.backward(&Tensor::from_vec(&[4], vec![1.0; 4]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_selects_and_routes() {
        let mut pool = MaxPool2d::new();
        let x = Tensor::from_vec(&[1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 6.0]);
        let y = pool.forward(&x, false);
        assert_eq!(y.as_slice(), &[5.0, 6.0]);
        let g = pool.backward(&Tensor::from_vec(&[1, 1, 2], vec![10.0, 20.0]));
        assert_eq!(g.as_slice(), &[0.0, 10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 20.0]);
    }

    #[test]
    fn dropout_scales_kept_units_and_is_identity_in_eval() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::from_vec(&[1000], vec![1.0; 1000]);
        let y = d.forward(&x, true);
        let kept = y.as_slice().iter().filter(|&&v| v > 0.0).count();
        assert!((kept as f64 - 500.0).abs() < 80.0, "kept {kept}");
        // Kept units are scaled to preserve the expectation.
        let mean: f64 = y.as_slice().iter().sum::<f64>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
        let y_eval = d.forward(&x, false);
        assert_eq!(y_eval.as_slice(), x.as_slice());
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 4], |i| i as f64);
        let y = f.forward(&x, false);
        assert_eq!(y.shape(), &[24]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 4]);
    }

    #[test]
    fn gap_averages_and_distributes() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec(&[2, 1, 2], vec![1.0, 3.0, 5.0, 7.0]);
        let y = gap.forward(&x, false);
        assert_eq!(y.as_slice(), &[2.0, 6.0]);
        let g = gap.backward(&Tensor::from_vec(&[2], vec![2.0, 4.0]));
        assert_eq!(g.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
    }
}
