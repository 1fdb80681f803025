//! Labeled frame collections, normalization and splits.

use crate::rng::DatasetRng;
use flexcs_linalg::Matrix;
use std::fmt;

/// Error produced by dataset operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetError {
    /// Frames and labels disagreed in count.
    LengthMismatch {
        /// Number of frames provided.
        frames: usize,
        /// Number of labels provided.
        labels: usize,
    },
    /// A split fraction was outside `(0, 1)`.
    BadFraction(f64),
    /// The dataset was empty where content is required.
    Empty,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::LengthMismatch { frames, labels } => {
                write!(
                    f,
                    "frame count {frames} does not match label count {labels}"
                )
            }
            DatasetError::BadFraction(v) => {
                write!(f, "split fraction must lie in (0, 1), got {v}")
            }
            DatasetError::Empty => write!(f, "dataset is empty"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// A labeled collection of sensor frames.
///
/// # Examples
///
/// ```
/// use flexcs_datasets::{Dataset, TactileConfig, tactile_dataset};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (frames, labels) = tactile_dataset(&TactileConfig::default(), 2, 7);
/// let ds = Dataset::new(frames, labels)?;
/// let (train, test) = ds.split(0.75, 42)?;
/// assert_eq!(train.len() + test.len(), 52);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    frames: Vec<Matrix>,
    labels: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset from parallel frame/label vectors.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::LengthMismatch`] if the lengths differ.
    pub fn new(frames: Vec<Matrix>, labels: Vec<usize>) -> Result<Self, DatasetError> {
        if frames.len() != labels.len() {
            return Err(DatasetError::LengthMismatch {
                frames: frames.len(),
                labels: labels.len(),
            });
        }
        Ok(Dataset { frames, labels })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Borrows the frames.
    pub fn frames(&self) -> &[Matrix] {
        &self.frames
    }

    /// Borrows the labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of distinct classes (`max label + 1`; 0 when empty).
    pub fn class_count(&self) -> usize {
        self.labels.iter().max().map_or(0, |m| m + 1)
    }

    /// Iterates over `(frame, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Matrix, usize)> {
        self.frames.iter().zip(self.labels.iter().copied())
    }

    /// Splits into `(train, test)` with `train_fraction` of each class's
    /// samples (stratified) going to the training set.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::BadFraction`] unless
    /// `0 < train_fraction < 1`, or [`DatasetError::Empty`] on an empty
    /// dataset.
    pub fn split(
        &self,
        train_fraction: f64,
        seed: u64,
    ) -> Result<(Dataset, Dataset), DatasetError> {
        if !(train_fraction > 0.0 && train_fraction < 1.0) {
            return Err(DatasetError::BadFraction(train_fraction));
        }
        if self.is_empty() {
            return Err(DatasetError::Empty);
        }
        let mut rng = DatasetRng::new(seed);
        let classes = self.class_count();
        let mut train_frames = Vec::new();
        let mut train_labels = Vec::new();
        let mut test_frames = Vec::new();
        let mut test_labels = Vec::new();
        for class in 0..classes {
            let mut members: Vec<usize> = (0..self.len())
                .filter(|&i| self.labels[i] == class)
                .collect();
            if members.is_empty() {
                continue;
            }
            rng.shuffle(&mut members);
            // At least one sample on each side when the class has >= 2.
            let mut n_train = ((members.len() as f64) * train_fraction).round() as usize;
            n_train = n_train.clamp(
                usize::from(members.len() >= 2),
                members.len() - usize::from(members.len() >= 2),
            );
            for (k, &i) in members.iter().enumerate() {
                if k < n_train {
                    train_frames.push(self.frames[i].clone());
                    train_labels.push(self.labels[i]);
                } else {
                    test_frames.push(self.frames[i].clone());
                    test_labels.push(self.labels[i]);
                }
            }
        }
        Ok((
            Dataset {
                frames: train_frames,
                labels: train_labels,
            },
            Dataset {
                frames: test_frames,
                labels: test_labels,
            },
        ))
    }
}

/// Normalizes a frame into `[0, 1]` by global min–max (the paper's first
/// experiment step: "we first normalize the value of the dataset to the
/// range of [0, 1]"). A constant frame maps to all zeros.
pub fn normalize_unit(frame: &Matrix) -> Matrix {
    let min = frame.min();
    let max = frame.max();
    let range = max - min;
    if range <= 0.0 {
        return Matrix::zeros(frame.rows(), frame.cols());
    }
    frame.map(|v| (v - min) / range)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(label_counts: &[usize]) -> Dataset {
        let mut frames = Vec::new();
        let mut labels = Vec::new();
        for (class, &count) in label_counts.iter().enumerate() {
            for k in 0..count {
                frames.push(Matrix::filled(2, 2, (class * 10 + k) as f64));
                labels.push(class);
            }
        }
        Dataset::new(frames, labels).unwrap()
    }

    #[test]
    fn new_rejects_mismatched_lengths() {
        let e = Dataset::new(vec![Matrix::zeros(1, 1)], vec![0, 1]);
        assert!(matches!(e, Err(DatasetError::LengthMismatch { .. })));
    }

    #[test]
    fn class_count_from_labels() {
        let ds = tiny(&[3, 2, 4]);
        assert_eq!(ds.class_count(), 3);
        assert_eq!(ds.len(), 9);
        assert!(!ds.is_empty());
    }

    #[test]
    fn split_is_stratified() {
        let ds = tiny(&[10, 10]);
        let (train, test) = ds.split(0.8, 1).unwrap();
        assert_eq!(train.len(), 16);
        assert_eq!(test.len(), 4);
        for class in 0..2 {
            assert_eq!(train.labels().iter().filter(|&&l| l == class).count(), 8);
            assert_eq!(test.labels().iter().filter(|&&l| l == class).count(), 2);
        }
    }

    #[test]
    fn split_keeps_a_test_sample_for_tiny_classes() {
        let ds = tiny(&[2]);
        let (train, test) = ds.split(0.9, 2).unwrap();
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 1);
    }

    #[test]
    fn split_rejects_bad_fraction_and_empty() {
        let ds = tiny(&[4]);
        assert!(matches!(
            ds.split(0.0, 1),
            Err(DatasetError::BadFraction(_))
        ));
        assert!(matches!(
            ds.split(1.0, 1),
            Err(DatasetError::BadFraction(_))
        ));
        let empty = Dataset::new(vec![], vec![]).unwrap();
        assert!(matches!(empty.split(0.5, 1), Err(DatasetError::Empty)));
    }

    #[test]
    fn normalize_unit_maps_to_unit_interval() {
        let m = Matrix::from_rows(&[&[2.0, 4.0], &[6.0, 10.0]]).unwrap();
        let n = normalize_unit(&m);
        assert_eq!(n.min(), 0.0);
        assert_eq!(n.max(), 1.0);
        assert!((n[(0, 1)] - 0.25).abs() < 1e-12);
        // Constant frame maps to zeros, not NaN.
        let c = normalize_unit(&Matrix::filled(2, 2, 5.0));
        assert_eq!(c.sum(), 0.0);
    }
}
