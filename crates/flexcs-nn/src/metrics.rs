//! Evaluation metrics: loss and accuracy.

use crate::layers::Layer;
use crate::loss::cross_entropy_with_logits;
use crate::resnet::Sequential;
use crate::tensor::Tensor;
use flexcs_linalg::Matrix;

/// Evaluates `(mean loss, accuracy)` of the network on labeled samples
/// (inference mode: dropout disabled).
pub fn evaluate(net: &mut Sequential, data: &[(Tensor, usize)]) -> (f64, f64) {
    if data.is_empty() {
        return (0.0, 0.0);
    }
    let mut loss_sum = 0.0;
    let mut correct = 0usize;
    for (x, label) in data {
        let logits = net.forward(x, false);
        let (loss, _) = cross_entropy_with_logits(&logits, *label);
        loss_sum += loss;
        if logits.argmax() == *label {
            correct += 1;
        }
    }
    (
        loss_sum / data.len() as f64,
        correct as f64 / data.len() as f64,
    )
}

/// Classification accuracy only.
pub fn accuracy(net: &mut Sequential, data: &[(Tensor, usize)]) -> f64 {
    evaluate(net, data).1
}

/// Converts a sensor frame into a `[1, rows, cols]` network input.
pub fn tensor_from_frame(frame: &Matrix) -> Tensor {
    Tensor::from_vec(&[1, frame.rows(), frame.cols()], frame.to_flat())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten};
    use crate::resnet::Sequential;

    fn fixed_net() -> Sequential {
        // Deterministic 2-class "net" on 2x1 inputs: class = argmax of
        // the identity-mapped input.
        let mut dense = Dense::new(2, 2, 0);
        dense.visit_params(&mut |w, _| {
            if w.len() == 4 {
                w.copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
            } else {
                w.iter_mut().for_each(|v| *v = 0.0);
            }
        });
        Sequential::new().push(Flatten::new()).push(dense)
    }

    fn sample(a: f64, b: f64, label: usize) -> (Tensor, usize) {
        (Tensor::from_vec(&[1, 2, 1], vec![a, b]), label)
    }

    #[test]
    fn accuracy_counts_correct_predictions() {
        let mut net = fixed_net();
        let data = vec![
            sample(1.0, 0.0, 0),
            sample(0.0, 1.0, 1),
            sample(1.0, 0.0, 1), // wrong
            sample(0.0, 1.0, 1),
        ];
        assert!((accuracy(&mut net, &data) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn evaluate_on_empty_is_zero() {
        let mut net = fixed_net();
        assert_eq!(evaluate(&mut net, &[]), (0.0, 0.0));
    }

    #[test]
    fn tensor_from_frame_shape() {
        let f = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let t = tensor_from_frame(&f);
        assert_eq!(t.shape(), &[1, 3, 4]);
        assert_eq!(t.at3(0, 2, 3), 11.0);
    }
}
