//! Synthetic thermal-hand imagery.
//!
//! Substitutes for the thermal-hand biometric dataset of
//! Font-Aragones et al. [14] used by the paper's temperature-sensing
//! experiments: a parametric hand (palm ellipse + five finger capsules)
//! radiating over a cooler ambient gradient, with sensor noise. The
//! generator is tuned so that frames show the paper's Fig. 2 DCT-domain
//! compressibility (smooth large-scale structure, rapidly decaying
//! spectrum).

use crate::rng::DatasetRng;
use flexcs_linalg::Matrix;

/// Ambient (background) temperature in °C.
const AMBIENT: f64 = 22.0;
/// Peak skin temperature in °C.
const SKIN_TEMP: f64 = 34.0;

/// Configuration of the thermal-hand generator. Frames show a hand at
/// up to 34 °C over a 22 °C ambient.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Frame rows (paper uses 32x32 temperature arrays).
    pub rows: usize,
    /// Frame columns.
    pub cols: usize,
    /// Gaussian sensor-noise standard deviation in °C.
    pub noise_std: f64,
    /// Point-spread-function sigma in pixels (thermal diffusion + sensor
    /// optics); 0 disables blurring.
    pub psf_sigma: f64,
}

impl Default for ThermalConfig {
    /// 32x32 frames with 0.02 °C noise.
    fn default() -> Self {
        ThermalConfig {
            rows: 32,
            cols: 32,
            noise_std: 0.02,
            psf_sigma: 0.8,
        }
    }
}

/// Smooth bump: 1 at center with Gaussian falloff (radius-1 rim at
/// ~0.11). Heat diffusion makes real thermal images edge-free, which is
/// also what gives them the paper's Fig. 2 spectral decay.
fn bump(d2: f64) -> f64 {
    (-2.2 * d2).exp()
}

/// Distance²-to-segment helper for finger capsules, normalized by width.
fn capsule_dist2(px: f64, py: f64, ax: f64, ay: f64, bx: f64, by: f64, w: f64) -> f64 {
    let abx = bx - ax;
    let aby = by - ay;
    let apx = px - ax;
    let apy = py - ay;
    let len2 = abx * abx + aby * aby;
    let t = if len2 > 0.0 {
        ((apx * abx + apy * aby) / len2).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let cx = ax + t * abx;
    let cy = ay + t * aby;
    let dx = px - cx;
    let dy = py - cy;
    (dx * dx + dy * dy) / (w * w)
}

/// Generates one thermal-hand frame in °C.
///
/// The hand pose (position, scale, rotation, finger spread) is drawn from
/// `seed`, so different seeds give a population of frames with a shared
/// statistical character — the analogue of the 100-sample analysis in the
/// paper's Fig. 2b.
///
/// # Examples
///
/// ```
/// use flexcs_datasets::{thermal_frame, ThermalConfig};
///
/// let frame = thermal_frame(&ThermalConfig::default(), 7);
/// assert_eq!(frame.shape(), (32, 32));
/// // Hand pixels are warmer than ambient.
/// assert!(frame.max() > 30.0);
/// assert!(frame.min() < 25.0);
/// ```
pub fn thermal_frame(config: &ThermalConfig, seed: u64) -> Matrix {
    let mut rng = DatasetRng::new(seed ^ 0x7465_6d70); // "temp"
    let rows = config.rows;
    let cols = config.cols;
    let rf = rows as f64;
    let cf = cols as f64;

    // Pose.
    let cx = rng.uniform(0.42, 0.58) * cf;
    let cy = rng.uniform(0.52, 0.68) * rf;
    let scale = rng.uniform(0.26, 0.34) * rf.min(cf);
    let rot = rng.uniform(-0.35, 0.35);
    let spread = rng.uniform(0.75, 1.15);
    let warmth = rng.uniform(0.92, 1.0);

    // Ambient gradient direction and strength.
    let gx = rng.uniform(-1.0, 1.0);
    let gy = rng.uniform(-1.0, 1.0);
    let gmag = rng.uniform(0.2, 0.8);

    let (sin_r, cos_r) = rot.sin_cos();
    // Finger base angles relative to the palm's up direction.
    let finger_angles = [-0.55, -0.28, 0.0, 0.26, 0.62];
    let finger_lens = [0.75, 1.05, 1.15, 1.05, 0.8];
    let mut fingers = Vec::with_capacity(5);
    for (ang, len) in finger_angles.iter().zip(finger_lens) {
        let a = ang * spread + rng.uniform(-0.05, 0.05);
        // Palm-frame direction (pointing "up" the image).
        let dx = a.sin();
        let dy = -a.cos();
        // Rotate into frame coordinates.
        let rdx = cos_r * dx - sin_r * dy;
        let rdy = sin_r * dx + cos_r * dy;
        // Base on the palm rim, tip beyond.
        let bx = cx + rdx * scale * 0.75;
        let by = cy + rdy * scale * 0.75;
        let tx = cx + rdx * scale * (0.75 + len);
        let ty = cy + rdy * scale * (0.75 + len);
        fingers.push((bx, by, tx, ty, scale * rng.uniform(0.16, 0.2)));
    }

    let clean = Matrix::from_fn(rows, cols, |i, j| {
        let x = j as f64 + 0.5;
        let y = i as f64 + 0.5;
        // Palm: rotated ellipse.
        let ux = x - cx;
        let uy = y - cy;
        let px = (cos_r * ux + sin_r * uy) / (scale * 0.95);
        let py = (-sin_r * ux + cos_r * uy) / (scale * 1.1);
        let mut heat = bump(px * px + py * py);
        for &(bx, by, tx, ty, w) in &fingers {
            heat = heat.max(bump(capsule_dist2(x, y, bx, by, tx, ty, w)));
        }
        let ambient = AMBIENT + gmag * (gx * (x / cf - 0.5) + gy * (y / rf - 0.5));
        let skin = SKIN_TEMP * warmth;
        ambient + heat * (skin - ambient)
    });
    // Sensor PSF, then additive readout noise (noise is not blurred).
    let blurred = crate::filter::gaussian_blur(&clean, config.psf_sigma);
    blurred.map(|v| v + rng.normal(0.0, config.noise_std))
}

/// Generates a batch of thermal frames with consecutive sub-seeds.
pub fn thermal_frames(config: &ThermalConfig, count: usize, seed: u64) -> Vec<Matrix> {
    (0..count)
        .map(|i| thermal_frame(config, seed.wrapping_add(i as u64 * 0x9e37)))
        .collect()
}

/// Generates a temporally coherent sequence: the *same* hand (seeded
/// pose) drifting smoothly across the array over `count` frames — the
/// input the multi-frame RPCA defect-mapping workflow expects, where
/// scene content is correlated across time but not static.
pub fn thermal_sequence(config: &ThermalConfig, count: usize, seed: u64) -> Vec<Matrix> {
    let mut rng = DatasetRng::new(seed ^ 0x5e9);
    // Constant drift velocity in pixels/frame, small enough to stay on
    // screen over the sequence.
    let vx = rng.uniform(-0.8, 0.8);
    let vy = rng.uniform(-0.8, 0.8);
    (0..count)
        .map(|t| {
            // Same base seed → same pose; shift by resampling through a
            // translated coordinate system via per-frame sub-config.
            let frame = thermal_frame(config, seed);
            shift_frame(&frame, vx * t as f64, vy * t as f64, AMBIENT)
        })
        .collect()
}

/// Shifts a frame by a (fractional) pixel offset with bilinear
/// interpolation, filling exposed borders with `fill`.
fn shift_frame(frame: &Matrix, dx: f64, dy: f64, fill: f64) -> Matrix {
    let (rows, cols) = frame.shape();
    Matrix::from_fn(rows, cols, |i, j| {
        let src_x = j as f64 - dx;
        let src_y = i as f64 - dy;
        let x0 = src_x.floor();
        let y0 = src_y.floor();
        let fx = src_x - x0;
        let fy = src_y - y0;
        let sample = |yy: f64, xx: f64| -> f64 {
            if yy < 0.0 || xx < 0.0 || yy >= rows as f64 || xx >= cols as f64 {
                fill
            } else {
                frame[(yy as usize, xx as usize)]
            }
        };
        let v00 = sample(y0, x0);
        let v01 = sample(y0, x0 + 1.0);
        let v10 = sample(y0 + 1.0, x0);
        let v11 = sample(y0 + 1.0, x0 + 1.0);
        v00 * (1.0 - fx) * (1.0 - fy)
            + v01 * fx * (1.0 - fy)
            + v10 * (1.0 - fx) * fy
            + v11 * fx * fy
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_has_requested_shape() {
        let cfg = ThermalConfig {
            rows: 24,
            cols: 40,
            ..ThermalConfig::default()
        };
        let f = thermal_frame(&cfg, 1);
        assert_eq!(f.shape(), (24, 40));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ThermalConfig::default();
        let a = thermal_frame(&cfg, 5);
        let b = thermal_frame(&cfg, 5);
        assert_eq!(a, b);
        let c = thermal_frame(&cfg, 6);
        assert!(a.max_abs_diff(&c).unwrap() > 0.1);
    }

    #[test]
    fn temperatures_physically_plausible() {
        let cfg = ThermalConfig::default();
        for seed in 0..10 {
            let f = thermal_frame(&cfg, seed);
            assert!(f.min() > AMBIENT - 2.0, "seed {seed}: min {}", f.min());
            assert!(f.max() < SKIN_TEMP + 2.0, "seed {seed}: max {}", f.max());
            // The hand occupies a nontrivial warm area (PSF blurring
            // lowers finger peaks, so the threshold sits at 29 °C).
            let warm = f.iter().filter(|&&t| t > 29.0).count();
            let total = f.rows() * f.cols();
            assert!(warm > total / 25, "seed {seed}: warm fraction too small");
            assert!(warm < total * 3 / 4, "seed {seed}: warm fraction too big");
        }
    }

    #[test]
    fn frames_are_dct_compressible() {
        // The claim behind the whole paper: ≤ ~60 % significant DCT
        // coefficients and fast decay on natural body-sensing frames.
        use flexcs_transform::{sparsity, Dct2d};
        let cfg = ThermalConfig::default();
        let dct = Dct2d::new(cfg.rows, cfg.cols).unwrap();
        let mut fractions = Vec::new();
        for seed in 0..20 {
            let f = thermal_frame(&cfg, seed);
            let c = dct.forward(&f).unwrap();
            fractions.push(sparsity::significant_fraction(
                &c,
                sparsity::PAPER_SIGNIFICANCE_THRESHOLD,
            ));
            // 10 % of coefficients already capture 99 % of the energy.
            let k99 = sparsity::sparsity_for_energy(&c, 0.99).unwrap();
            assert!(
                k99 < (cfg.rows * cfg.cols) / 5,
                "seed {seed}: k99 = {k99} too large"
            );
        }
        let mean: f64 = fractions.iter().sum::<f64>() / fractions.len() as f64;
        assert!(mean < 0.75, "mean significant fraction {mean}");
    }

    #[test]
    fn sequence_is_coherent_but_moving() {
        let cfg = ThermalConfig::default();
        let seq = thermal_sequence(&cfg, 5, 11);
        assert_eq!(seq.len(), 5);
        // Consecutive frames are more similar than distant ones.
        let d01 = seq[0].max_abs_diff(&seq[1]).unwrap();
        let d04 = seq[0].max_abs_diff(&seq[4]).unwrap();
        assert!(d01 > 0.0, "frames actually move");
        assert!(d04 >= d01, "drift accumulates: {d04} vs {d01}");
        // Temperatures remain physical.
        for f in &seq {
            assert!(f.min() > AMBIENT - 2.0 && f.max() < SKIN_TEMP + 2.0);
        }
    }

    #[test]
    fn shift_frame_identity_at_zero_offset() {
        let f = thermal_frame(&ThermalConfig::default(), 3);
        let s = shift_frame(&f, 0.0, 0.0, 22.0);
        assert!(s.max_abs_diff(&f).unwrap() < 1e-12);
    }

    #[test]
    fn batch_generation_count_and_diversity() {
        let frames = thermal_frames(&ThermalConfig::default(), 5, 99);
        assert_eq!(frames.len(), 5);
        assert!(frames[0].max_abs_diff(&frames[4]).unwrap() > 0.1);
    }
}
