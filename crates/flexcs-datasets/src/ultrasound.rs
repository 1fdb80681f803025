//! Simulated ultrasound RF frames.
//!
//! Substitutes for the open breast-lesion RF dataset [15] used only for
//! the paper's Fig. 2 sparsity statistics: each frame is a set of A-lines
//! (depth samples × transducer channels) built from Gaussian-enveloped
//! pulse echoes of random scatterers plus attenuated speckle noise — the
//! same band-limited, DCT-compressible structure as real pulse-echo RF.

use crate::rng::DatasetRng;
use flexcs_linalg::Matrix;

/// Center frequency in cycles per sample (normalized).
const CENTER_FREQ: f64 = 0.15;
/// Pulse envelope standard deviation in samples.
const PULSE_SIGMA: f64 = 4.0;
/// Number of strong scatterers per frame.
const SCATTERERS: usize = 6;

/// Configuration of the ultrasound RF generator. Frames hold echoes of
/// 6 scatterers at 0.15 cycles/sample.
#[derive(Debug, Clone, PartialEq)]
pub struct UltrasoundConfig {
    /// Depth samples per A-line (paper frame: 100x33).
    pub samples: usize,
    /// Transducer channels.
    pub channels: usize,
    /// Additive noise floor relative to unit echo amplitude.
    pub noise_std: f64,
}

impl Default for UltrasoundConfig {
    /// 100x33 frames with a 0.01 noise floor.
    fn default() -> Self {
        UltrasoundConfig {
            samples: 100,
            channels: 33,
            noise_std: 0.01,
        }
    }
}

/// Generates one RF frame (`samples x channels`).
///
/// Scatterers are point reflectors at random depths/lateral positions;
/// each produces a Gabor echo along nearby channels with hyperbolic delay
/// curvature, and deeper echoes are attenuated — the standard pulse-echo
/// physics at synthetic-data fidelity.
///
/// # Examples
///
/// ```
/// use flexcs_datasets::{ultrasound_frame, UltrasoundConfig};
///
/// let frame = ultrasound_frame(&UltrasoundConfig::default(), 3);
/// assert_eq!(frame.shape(), (100, 33));
/// ```
pub fn ultrasound_frame(config: &UltrasoundConfig, seed: u64) -> Matrix {
    let mut rng = DatasetRng::new(seed ^ 0x7573_6f6e); // "uson"
    let samples = config.samples;
    let channels = config.channels;
    // Scatterer population.
    struct Scat {
        depth: f64,
        lateral: f64,
        amp: f64,
        phase: f64,
    }
    let scats: Vec<Scat> = (0..SCATTERERS)
        .map(|_| Scat {
            depth: rng.uniform(0.15, 0.9) * samples as f64,
            lateral: rng.uniform(0.1, 0.9) * channels as f64,
            amp: rng.uniform(0.4, 1.0),
            phase: rng.uniform(0.0, std::f64::consts::TAU),
        })
        .collect();
    let aperture = channels as f64 * 0.35;
    let two_sigma2 = 2.0 * PULSE_SIGMA * PULSE_SIGMA;
    let mut frame = Matrix::zeros(samples, channels);
    for ch in 0..channels {
        for s in &scats {
            let dx = ch as f64 - s.lateral;
            if dx.abs() > aperture {
                continue;
            }
            // Hyperbolic delay: echo arrives later off-axis.
            let delay = (s.depth * s.depth + dx * dx * 4.0).sqrt();
            // Depth attenuation.
            let atten = (-(delay / samples as f64) * 1.2).exp();
            let lateral_weight = (-(dx / aperture) * (dx / aperture) * 3.0).exp();
            for t in 0..samples {
                let dt = t as f64 - delay;
                if dt.abs() > 4.0 * PULSE_SIGMA {
                    continue;
                }
                let env = (-(dt * dt) / two_sigma2).exp();
                let carrier = (std::f64::consts::TAU * CENTER_FREQ * dt + s.phase).cos();
                frame[(t, ch)] += s.amp * atten * lateral_weight * env * carrier;
            }
        }
        // Speckle/noise floor.
        for t in 0..samples {
            frame[(t, ch)] += rng.normal(0.0, config.noise_std);
        }
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let cfg = UltrasoundConfig::default();
        let a = ultrasound_frame(&cfg, 1);
        assert_eq!(a.shape(), (100, 33));
        assert_eq!(a, ultrasound_frame(&cfg, 1));
        assert!(a.max_abs_diff(&ultrasound_frame(&cfg, 2)).unwrap() > 1e-3);
    }

    #[test]
    fn echoes_present_and_bounded() {
        let cfg = UltrasoundConfig::default();
        for seed in 0..5 {
            let f = ultrasound_frame(&cfg, seed);
            assert!(f.norm_max() > 0.1, "seed {seed}: no echo energy");
            assert!(f.norm_max() < 5.0, "seed {seed}: unphysical amplitude");
        }
    }

    #[test]
    fn band_limited_spectrum_is_compressible() {
        use flexcs_transform::{sparsity, Dct2d};
        let cfg = UltrasoundConfig::default();
        let dct = Dct2d::new(cfg.samples, cfg.channels).unwrap();
        let f = ultrasound_frame(&cfg, 9);
        let c = dct.forward(&f).unwrap();
        let n = cfg.samples * cfg.channels;
        let k99 = sparsity::sparsity_for_energy(&c, 0.99).unwrap();
        // Band-limited RF keeps 99 % of energy well under the full
        // dimension.
        assert!(k99 < n * 3 / 5, "k99 = {k99} of {n}");
    }

    #[test]
    fn custom_shape_respected() {
        let cfg = UltrasoundConfig {
            samples: 64,
            channels: 16,
            ..UltrasoundConfig::default()
        };
        assert_eq!(ultrasound_frame(&cfg, 0).shape(), (64, 16));
    }
}
