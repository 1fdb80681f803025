//! End-to-end robustness experiment (paper Fig. 7).
//!
//! "Instead of directly using the noisy inputs, we perform the sampling
//! and reconstruction before the RMSE evaluation and classification":
//! normalize → inject sparse errors → (strategy) sample → reconstruct →
//! compare to ground truth. The "w/o CS" baseline consumes the corrupted
//! frame directly.

use crate::decode::Decoder;
use crate::error::Result;
use crate::inject::SparseErrorModel;
use crate::metrics::rmse;
use crate::strategy::{SamplingStrategy, StrategySession};
use crate::tel;
use flexcs_datasets::{normalize_unit, DatasetRng};
use flexcs_linalg::Matrix;

/// Configuration of one robustness experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Fraction of pixels sampled (`M/N`, the paper sweeps 45–60 %).
    pub sampling_fraction: f64,
    /// Fraction of pixels hit by sparse errors (paper sweeps 0–20 %).
    pub error_fraction: f64,
    /// Sampling strategy.
    pub strategy: SamplingStrategy,
    /// CS decoder.
    pub decoder: Decoder,
    /// Additive Gaussian measurement-noise std ε (normalized units) —
    /// the measurement-error term of the paper's Eq. 2 bound.
    pub measurement_noise: f64,
    /// Base RNG seed; error injection and sampling derive from it.
    pub seed: u64,
    /// Carry decode-side warm starts across the frames (and resampling
    /// rounds) of [`run_experiment_stream`]: each solve seeds from the
    /// previous solution's DCT coefficients. Off by default so streamed
    /// results stay bit-identical to per-frame runs.
    pub warm_decode: bool,
}

impl Default for ExperimentConfig {
    /// 50 % sampling, 10 % errors (the paper's headline point),
    /// exclude-tested strategy, FISTA decoder.
    fn default() -> Self {
        ExperimentConfig {
            sampling_fraction: 0.5,
            error_fraction: 0.1,
            strategy: SamplingStrategy::exclude_tested(),
            decoder: Decoder::default(),
            measurement_noise: 0.0,
            seed: 0,
            warm_decode: false,
        }
    }
}

/// Outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Ground-truth normalized frame.
    pub truth: Matrix,
    /// Corrupted frame as acquired (the "w/o CS" input).
    pub corrupted: Matrix,
    /// CS reconstruction.
    pub reconstructed: Matrix,
    /// RMSE of the CS reconstruction against the truth.
    pub rmse_cs: f64,
    /// RMSE of the corrupted frame against the truth (w/o CS baseline).
    pub rmse_raw: f64,
    /// Number of pixels corrupted.
    pub corrupted_count: usize,
}

/// Runs one experiment on a raw (unnormalized) frame.
///
/// # Errors
///
/// Returns a configuration error for fractions outside `[0, 1]` (or a
/// zero sampling fraction) and propagates pipeline failures.
pub fn run_experiment(frame: &Matrix, config: &ExperimentConfig) -> Result<ExperimentOutcome> {
    run_experiment_inner(frame, config, None)
}

fn run_experiment_inner(
    frame: &Matrix,
    config: &ExperimentConfig,
    session: Option<&mut StrategySession>,
) -> Result<ExperimentOutcome> {
    if !(config.sampling_fraction > 0.0 && config.sampling_fraction <= 1.0) {
        return Err(crate::error::CoreError::InvalidConfig(format!(
            "sampling fraction must lie in (0, 1], got {}",
            config.sampling_fraction
        )));
    }
    let frame_span = tel::span("pipeline.frame");
    // Step 1 (Fig. 7): normalize to [0, 1].
    let truth = normalize_unit(frame);
    let (rows, cols) = truth.shape();
    let n = rows * cols;
    // Step 2: inject sparse errors, then additive measurement noise ε
    // on the healthy pixels (Eq. 2's measurement-error source).
    let model = SparseErrorModel::new(config.error_fraction)?;
    let (mut corrupted, corrupted_indices) = model.corrupt(&truth, config.seed);
    if config.measurement_noise > 0.0 {
        let mut rng = DatasetRng::new(config.seed ^ 0x0e25);
        let cols = corrupted.cols();
        let mut stuck = vec![false; n];
        for &i in &corrupted_indices {
            stuck[i] = true;
        }
        for i in 0..corrupted.rows() {
            for j in 0..cols {
                if !stuck[i * cols + j] {
                    corrupted[(i, j)] += config.measurement_noise * rng.gaussian();
                }
            }
        }
    }
    // Step 3–4: strategy-driven sampling + reconstruction (through the
    // session when one carries state across a frame sequence).
    let m = ((n as f64) * config.sampling_fraction).round().max(1.0) as usize;
    let (reconstructed, stats) = match session {
        Some(session) => session.reconstruct_traced(
            &corrupted,
            m.min(n),
            &config.decoder,
            config.seed ^ 0x5a5a,
        )?,
        None => config.strategy.reconstruct_traced(
            &corrupted,
            m.min(n),
            &config.decoder,
            config.seed ^ 0x5a5a,
        )?,
    };
    // Step 5: evaluate.
    let rmse_cs = rmse(&reconstructed, &truth);
    if tel::enabled() {
        // frame_index carries the experiment seed: it is the only
        // stable per-frame identity at this layer (batch trials derive
        // distinct seeds per frame).
        tel::frame(
            config.seed as usize,
            config.strategy.name(),
            config.error_fraction,
            rmse_cs,
            stats.solver_iterations,
            stats.converged,
            frame_span.elapsed_ns(),
        );
    }
    Ok(ExperimentOutcome {
        rmse_cs,
        rmse_raw: rmse(&corrupted, &truth),
        truth,
        corrupted,
        reconstructed,
        corrupted_count: corrupted_indices.len(),
    })
}

/// Averages an experiment over several frames (trial `k` uses
/// `seed + k`), returning `(mean rmse_cs, mean rmse_raw)`.
///
/// # Errors
///
/// Propagates per-frame failures; returns a configuration error for an
/// empty frame list.
pub fn run_experiment_batch(frames: &[Matrix], config: &ExperimentConfig) -> Result<(f64, f64)> {
    if frames.is_empty() {
        return Err(crate::error::CoreError::InvalidConfig(
            "experiment batch needs at least one frame".to_string(),
        ));
    }
    // Frame k's config depends only on k, so frames fan out across
    // threads with results identical to the serial loop.
    let outcomes = flexcs_parallel::par_map_indices(frames.len(), |k| {
        let mut cfg = config.clone();
        cfg.seed = config.seed.wrapping_add(k as u64 * 1013);
        run_experiment(&frames[k], &cfg)
    });
    let mut sum_cs = 0.0;
    let mut sum_raw = 0.0;
    for outcome in outcomes {
        let outcome = outcome?;
        sum_cs += outcome.rmse_cs;
        sum_raw += outcome.rmse_raw;
    }
    Ok((sum_cs / frames.len() as f64, sum_raw / frames.len() as f64))
}

/// Runs one experiment per frame **sequentially**, carrying strategy
/// state from frame to frame (trial `k` uses `seed + k·1013`, the same
/// schedule as [`run_experiment_batch`]).
///
/// The streaming counterpart of [`run_experiment_batch`]: the batch
/// fans independent cold solves out across threads, while the stream
/// trades that parallelism for cross-frame warm starts (the RPCA-filter
/// strategy's subspace and sparse support, plus — with
/// [`ExperimentConfig::warm_decode`] — the decoder's solver state).
/// With `warm_decode` off, stateless strategies produce outcomes
/// identical to per-frame [`run_experiment`] calls.
///
/// # Errors
///
/// Propagates per-frame failures; returns a configuration error for an
/// empty frame list.
pub fn run_experiment_stream(
    frames: &[Matrix],
    config: &ExperimentConfig,
) -> Result<Vec<ExperimentOutcome>> {
    if frames.is_empty() {
        return Err(crate::error::CoreError::InvalidConfig(
            "experiment stream needs at least one frame".to_string(),
        ));
    }
    let mut session = StrategySession::new(config.strategy.clone());
    if config.warm_decode {
        session = session.with_warm_decode();
    }
    let mut outcomes = Vec::with_capacity(frames.len());
    for (k, frame) in frames.iter().enumerate() {
        let mut cfg = config.clone();
        cfg.seed = config.seed.wrapping_add(k as u64 * 1013);
        outcomes.push(run_experiment_inner(frame, &cfg, Some(&mut session))?);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcs_datasets::{thermal_frame, ThermalConfig};

    fn thermal(seed: u64) -> Matrix {
        let cfg = ThermalConfig {
            rows: 16,
            cols: 16,
            ..ThermalConfig::default()
        };
        thermal_frame(&cfg, seed)
    }

    #[test]
    fn cs_beats_raw_at_moderate_errors() {
        // The paper's headline: at ~10 % errors CS reconstruction has a
        // far lower RMSE than using the corrupted frame directly.
        let frame = thermal(1);
        let config = ExperimentConfig {
            sampling_fraction: 0.55,
            error_fraction: 0.1,
            ..ExperimentConfig::default()
        };
        let outcome = run_experiment(&frame, &config).unwrap();
        assert!(
            outcome.rmse_cs < outcome.rmse_raw * 0.6,
            "cs {:.4} vs raw {:.4}",
            outcome.rmse_cs,
            outcome.rmse_raw
        );
    }

    #[test]
    fn raw_rmse_grows_with_error_fraction() {
        let frame = thermal(2);
        let mut last = 0.0;
        for ef in [0.0, 0.05, 0.1, 0.2] {
            let config = ExperimentConfig {
                error_fraction: ef,
                ..ExperimentConfig::default()
            };
            let outcome = run_experiment(&frame, &config).unwrap();
            assert!(
                outcome.rmse_raw >= last,
                "raw rmse not monotone at {ef}: {} < {last}",
                outcome.rmse_raw
            );
            last = outcome.rmse_raw;
        }
    }

    #[test]
    fn more_sampling_reduces_cs_rmse() {
        let frame = thermal(3);
        let rmse_at = |fraction: f64| {
            let config = ExperimentConfig {
                sampling_fraction: fraction,
                error_fraction: 0.05,
                seed: 4,
                ..ExperimentConfig::default()
            };
            run_experiment(&frame, &config).unwrap().rmse_cs
        };
        let lo = rmse_at(0.3);
        let hi = rmse_at(0.65);
        assert!(hi < lo, "rmse at 65 % ({hi:.4}) should beat 30 % ({lo:.4})");
    }

    #[test]
    fn corrupted_count_tracks_fraction() {
        let frame = thermal(5);
        let config = ExperimentConfig {
            error_fraction: 0.1,
            ..ExperimentConfig::default()
        };
        let outcome = run_experiment(&frame, &config).unwrap();
        assert_eq!(outcome.corrupted_count, 26); // 10 % of 256, rounded
    }

    #[test]
    fn batch_averages_over_frames() {
        let frames: Vec<Matrix> = (0..3).map(thermal).collect();
        let config = ExperimentConfig::default();
        let (cs, raw) = run_experiment_batch(&frames, &config).unwrap();
        assert!(cs > 0.0 && raw > 0.0);
        assert!(cs < raw);
        assert!(run_experiment_batch(&[], &config).is_err());
    }

    #[test]
    fn stream_matches_per_frame_runs_for_stateless_strategies() {
        let frames: Vec<Matrix> = (0..3).map(thermal).collect();
        let config = ExperimentConfig::default(); // exclude-tested: stateless
        let streamed = run_experiment_stream(&frames, &config).unwrap();
        for (k, outcome) in streamed.iter().enumerate() {
            let mut cfg = config.clone();
            cfg.seed = config.seed.wrapping_add(k as u64 * 1013);
            let solo = run_experiment(&frames[k], &cfg).unwrap();
            assert_eq!(
                outcome.reconstructed.as_slice(),
                solo.reconstructed.as_slice()
            );
            assert_eq!(outcome.rmse_cs, solo.rmse_cs);
        }
        assert!(run_experiment_stream(&[], &config).is_err());
    }

    #[test]
    fn stream_warm_starts_rpca_filter() {
        let frames: Vec<Matrix> = (0..3)
            .map(|t| {
                let cfg = ThermalConfig {
                    rows: 32,
                    cols: 32,
                    ..ThermalConfig::default()
                };
                thermal_frame(&cfg, 40 + t)
            })
            .collect();
        let config = ExperimentConfig {
            strategy: SamplingStrategy::RpcaFilter { threshold: 0.3 },
            error_fraction: 0.08,
            seed: 7,
            ..ExperimentConfig::default()
        };
        let streamed = run_experiment_stream(&frames, &config).unwrap();
        assert_eq!(streamed.len(), 3);
        for (k, outcome) in streamed.iter().enumerate() {
            // Warm-started RPCA must not change the decode quality: the
            // outcome agrees with the independent cold run.
            let mut cfg = config.clone();
            cfg.seed = config.seed.wrapping_add(k as u64 * 1013);
            let solo = run_experiment(&frames[k], &cfg).unwrap();
            assert_eq!(
                outcome.reconstructed.as_slice(),
                solo.reconstructed.as_slice(),
                "frame {k} diverged under warm start"
            );
        }
    }

    #[test]
    fn warm_decode_stream_keeps_accuracy() {
        let frames: Vec<Matrix> = (0..3).map(thermal).collect();
        let cold_cfg = ExperimentConfig {
            strategy: SamplingStrategy::ResampleMedian { rounds: 4 },
            error_fraction: 0.05,
            seed: 11,
            ..ExperimentConfig::default()
        };
        let warm_cfg = ExperimentConfig {
            warm_decode: true,
            ..cold_cfg.clone()
        };
        let cold = run_experiment_stream(&frames, &cold_cfg).unwrap();
        let warm = run_experiment_stream(&frames, &warm_cfg).unwrap();
        for (k, (c, w)) in cold.iter().zip(&warm).enumerate() {
            assert!(
                (w.rmse_cs - c.rmse_cs).abs() < 5e-3,
                "frame {k}: warm rmse {} vs cold {}",
                w.rmse_cs,
                c.rmse_cs
            );
        }
    }

    #[test]
    fn measurement_noise_degrades_rmse_smoothly() {
        let frame = thermal(8);
        // Average over seeds: at 8×8 a single noise draw can land
        // favourably; the monotone claim is about the expectation.
        let rmse_at = |eps: f64| {
            let mut acc = 0.0;
            for seed in 0..5 {
                let config = ExperimentConfig {
                    error_fraction: 0.0,
                    measurement_noise: eps,
                    seed,
                    ..ExperimentConfig::default()
                };
                acc += run_experiment(&frame, &config).unwrap().rmse_cs;
            }
            acc / 5.0
        };
        let clean = rmse_at(0.0);
        let mild = rmse_at(0.02);
        let heavy = rmse_at(0.10);
        // Near the decoder's error floor, ε-level noise can nudge RMSE
        // either way (a dithering effect on the λ scaling) — so the
        // bound is |Δ| = O(ε), not strict monotonicity.
        assert!(
            (mild - clean).abs() < 0.02 * 2.0,
            "mild {mild} vs clean {clean}"
        );
        assert!(heavy > mild, "more noise, more error");
        // Eq. 2: the noise contribution is O(sqrt(N/M)·ε), i.e. same
        // order as ε — not catastrophically amplified.
        assert!(heavy < clean + 0.1 * 4.0, "heavy {heavy} vs clean {clean}");
    }

    #[test]
    fn invalid_fractions_rejected() {
        let frame = thermal(6);
        let mut config = ExperimentConfig {
            sampling_fraction: 0.0,
            ..ExperimentConfig::default()
        };
        assert!(run_experiment(&frame, &config).is_err());
        config.sampling_fraction = 0.5;
        config.error_fraction = 1.2;
        assert!(run_experiment(&frame, &config).is_err());
    }
}
