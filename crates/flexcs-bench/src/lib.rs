//! # flexcs-bench
//!
//! Figure-regeneration harness for the DAC 2020 reproduction. Each
//! binary regenerates one table/figure of the paper (see DESIGN.md's
//! per-experiment index); this library holds the shared sweep logic so
//! the binaries and the integration tests agree on parameters. The
//! wall-clock and scale gates live in `tests/scale_gates.rs`; repeated,
//! noise-banded throughput figures come from the `perfbench/` harness.
//!
//! | binary | paper artefact |
//! |---|---|
//! | `fig2_sparsity` | Fig. 2a/2b + Eq. 1 sparsity statistics |
//! | `fig5_circuits` | Fig. 5b/5c/5d/5e circuit measurements |
//! | `fig6a_rmse` | Fig. 6a RMSE vs sparse errors & sampling % |
//! | `fig6b_accuracy` | Fig. 6b classification accuracy |
//! | `fig6c_strategies` | Fig. 6c RPCA vs resampling |
//! | `comm_cost` | Sec. 4.1 communication-cost reduction |
//! | `solver_ablation` | decoder-solver comparison (design choice) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flexcs_core::{run_experiment_batch, Decoder, ExperimentConfig, SamplingStrategy};
use flexcs_linalg::Matrix;

/// One row of the Fig. 6a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6aRow {
    /// Sampling percentage `M/N`.
    pub sampling: f64,
    /// Sparse-error percentage.
    pub errors: f64,
    /// Mean RMSE with CS reconstruction.
    pub rmse_cs: f64,
    /// Mean RMSE without CS (corrupted frame).
    pub rmse_raw: f64,
}

/// Runs the Fig. 6a sweep over frames for every
/// `(sampling, error)` grid point.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig6a_sweep(
    frames: &[Matrix],
    samplings: &[f64],
    errors: &[f64],
    seed: u64,
) -> flexcs_core::Result<Vec<Fig6aRow>> {
    let mut rows = Vec::with_capacity(samplings.len() * errors.len());
    for &sampling in samplings {
        for &error in errors {
            let config = ExperimentConfig {
                sampling_fraction: sampling,
                error_fraction: error,
                strategy: SamplingStrategy::exclude_tested(),
                decoder: Decoder::default(),
                seed,
                ..ExperimentConfig::default()
            };
            let (rmse_cs, rmse_raw) = run_experiment_batch(frames, &config)?;
            rows.push(Fig6aRow {
                sampling,
                errors: error,
                rmse_cs,
                rmse_raw,
            });
        }
    }
    Ok(rows)
}

/// Prints a fixed-width table: a header row then formatted records.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let fields: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", fields.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a percentage for tables.
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// Formats a 4-decimal float for tables.
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcs_datasets::{thermal_frames, ThermalConfig};

    #[test]
    fn fig6a_sweep_produces_grid() {
        let cfg = ThermalConfig {
            rows: 12,
            cols: 12,
            ..ThermalConfig::default()
        };
        let frames = thermal_frames(&cfg, 2, 5);
        let rows = fig6a_sweep(&frames, &[0.5, 0.6], &[0.0, 0.1], 1).unwrap();
        assert_eq!(rows.len(), 4);
        // Zero errors: raw rmse ≈ 0; with errors it grows.
        let zero = rows.iter().find(|r| r.errors == 0.0).unwrap();
        let ten = rows.iter().find(|r| r.errors == 0.1).unwrap();
        assert!(zero.rmse_raw < ten.rmse_raw);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.45), "45%");
        assert_eq!(f4(0.12345), "0.1235");
    }
}
