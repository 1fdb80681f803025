//! Robust sampling strategies (paper Sec. 4.2–4.3).
//!
//! - [`SamplingStrategy::ExcludeTested`]: defects are identified by
//!   testing, so sampling draws from good pixels only (the main Fig. 6a/b
//!   setting).
//! - [`SamplingStrategy::Oblivious`]: sample blindly, defects included —
//!   the pessimistic baseline the advanced strategies improve on.
//! - [`SamplingStrategy::ResampleMedian`]: acquire once, then decode
//!   several random subsets on the silicon side and take the per-pixel
//!   median (Fig. 6c "mean/median from 10 rounds of resampling").
//! - [`SamplingStrategy::RpcaFilter`]: detect outliers with RPCA first,
//!   exclude them, then sample and reconstruct (Fig. 6c "RPCA").

use crate::decode::{DecodeWarmState, Decoder, Reconstruction};
use crate::error::Result;
use crate::inject::detect_extremes;
use crate::rpca::{outlier_indices, RpcaConfig, RpcaStream};
use crate::sampling::SamplingPlan;
use crate::tel;
use flexcs_linalg::{vecops, Matrix};
use std::borrow::Cow;

/// Solver effort accumulated across one strategy invocation (summed
/// over resampling rounds where applicable).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReconstructStats {
    /// Total solver iterations spent.
    pub(crate) solver_iterations: usize,
    /// Whether every underlying solve converged.
    pub(crate) converged: bool,
}

/// How the encoder chooses pixels in the presence of sparse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplingStrategy {
    /// Exclude pixels whose values sit at the 0/1 extremes (defects are
    /// found by testing), then sample from the rest.
    ///
    /// Appropriate when legitimate signal values avoid the rails (e.g.
    /// normalized temperature fields). For signals with true zeros
    /// (tactile background), use [`SamplingStrategy::ExcludeKnown`] with
    /// the offline test results instead.
    ExcludeTested {
        /// Extreme-detection margin from the rails.
        margin: f64,
    },
    /// Exclude an explicitly known defect list — the paper's "after
    /// testing to identify those defects" flow, where defects are mapped
    /// offline rather than inferred from one frame.
    ExcludeKnown {
        /// Defective pixel indices from testing.
        indices: Vec<usize>,
    },
    /// Sample uniformly, including defective pixels.
    Oblivious,
    /// Acquire all pixels once, then reconstruct `rounds` random subsets
    /// and take the per-pixel median.
    ResampleMedian {
        /// Number of resampling rounds (paper: 10).
        rounds: usize,
    },
    /// Exclude RPCA-flagged outliers, then sample from the rest.
    RpcaFilter {
        /// Outlier threshold as a fraction of the largest sparse-
        /// component magnitude.
        threshold: f64,
    },
}

impl SamplingStrategy {
    /// The paper's default testing-based exclusion.
    pub fn exclude_tested() -> Self {
        SamplingStrategy::ExcludeTested { margin: 0.02 }
    }

    /// Short name for result tables.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingStrategy::ExcludeTested { .. } => "exclude-tested",
            SamplingStrategy::ExcludeKnown { .. } => "exclude-known",
            SamplingStrategy::Oblivious => "oblivious",
            SamplingStrategy::ResampleMedian { .. } => "resample-median",
            SamplingStrategy::RpcaFilter { .. } => "rpca-filter",
        }
    }

    /// Runs the strategy: from the corrupted acquisition `measured`
    /// (a full normalized frame as stored on the silicon side), sample
    /// `m` pixels and reconstruct.
    ///
    /// # Errors
    ///
    /// Propagates sampling/decoding failures (e.g. too few usable
    /// pixels).
    pub fn reconstruct(
        &self,
        measured: &Matrix,
        m: usize,
        decoder: &Decoder,
        seed: u64,
    ) -> Result<Matrix> {
        Ok(self.reconstruct_traced(measured, m, decoder, seed)?.0)
    }

    /// [`SamplingStrategy::reconstruct`] plus the solver effort spent —
    /// the pipeline uses this to fill per-frame telemetry reports.
    pub(crate) fn reconstruct_traced(
        &self,
        measured: &Matrix,
        m: usize,
        decoder: &Decoder,
        seed: u64,
    ) -> Result<(Matrix, ReconstructStats)> {
        self.reconstruct_with(measured, m, decoder, seed, &mut SessionState::new())
    }

    /// Runs the strategy against the state `state` carries from the
    /// previous frames of a sequence. A fresh state is the stateless
    /// [`SamplingStrategy::reconstruct`]: its RPCA stream's first push is
    /// a cold `rpca` solve, and without decode warm state every
    /// decode is cold.
    fn reconstruct_with(
        &self,
        measured: &Matrix,
        m: usize,
        decoder: &Decoder,
        seed: u64,
        state: &mut SessionState,
    ) -> Result<(Matrix, ReconstructStats)> {
        let excluded = match self {
            SamplingStrategy::ResampleMedian { rounds } => {
                return resample_median(
                    measured,
                    m,
                    *rounds,
                    decoder,
                    seed,
                    state.decode_warm.as_mut(),
                );
            }
            SamplingStrategy::Oblivious => None,
            SamplingStrategy::ExcludeKnown { indices } => Some(Cow::Borrowed(indices.as_slice())),
            SamplingStrategy::ExcludeTested { margin } => {
                Some(Cow::Owned(detect_extremes(measured, *margin)))
            }
            SamplingStrategy::RpcaFilter { threshold } => {
                let _rpca_span = tel::span("strategy.rpca_filter");
                let decomposition = state.rpca_stream.push(measured)?;
                Some(Cow::Owned(outlier_indices(&decomposition, *threshold)))
            }
        };
        decode_sample(
            measured,
            m,
            excluded.as_deref(),
            decoder,
            seed,
            state.decode_warm.as_mut(),
        )
    }
}

/// The single-decode tail shared by every strategy but
/// `ResampleMedian`: sample `m` pixels outside `excluded`, measure them
/// and decode — warm-started when `warm` is given, cold otherwise.
///
/// `Some(excluded)` clamps `m` to the distinct pixels left. `None` (the
/// oblivious baseline) keeps `m` as asked, so a budget above N fails
/// with `CoreError::InsufficientSamples`.
fn decode_sample(
    measured: &Matrix,
    m: usize,
    excluded: Option<&[usize]>,
    decoder: &Decoder,
    seed: u64,
    warm: Option<&mut DecodeWarmState>,
) -> Result<(Matrix, ReconstructStats)> {
    let (rows, cols) = measured.shape();
    let n = rows * cols;
    let sampling_span = tel::span("strategy.sampling");
    let (m, excluded) = match excluded {
        Some(excluded) => (m.min(n - distinct_pixels(excluded, n)), excluded),
        None => (m, &[][..]),
    };
    let plan = SamplingPlan::random_subset(n, m, excluded, seed)?;
    let y = plan.measure(measured.as_slice());
    drop(sampling_span);
    let rec = match warm {
        Some(warm) => decoder.reconstruct_warm(rows, cols, plan.selected(), &y, warm)?,
        None => decoder.reconstruct(rows, cols, plan.selected(), &y)?,
    };
    let stats = ReconstructStats {
        solver_iterations: rec.report.iterations,
        converged: rec.report.converged,
    };
    Ok((rec.frame, stats))
}

/// Number of distinct in-range pixels in `excluded`: the pixels a
/// sampling plan over `n` pixels actually keeps out.
fn distinct_pixels(excluded: &[usize], n: usize) -> usize {
    let mut seen = vec![false; n];
    excluded
        .iter()
        .filter(|&&i| i < n && !std::mem::replace(&mut seen[i], true))
        .count()
}

/// `ResampleMedian`: decode `rounds` random `m`-subsets of the frame
/// and take the per-pixel median.
fn resample_median(
    measured: &Matrix,
    m: usize,
    rounds: usize,
    decoder: &Decoder,
    seed: u64,
    warm: Option<&mut DecodeWarmState>,
) -> Result<(Matrix, ReconstructStats)> {
    let (rows, cols) = measured.shape();
    let n = rows * cols;
    let flat = measured.as_slice();
    let rounds = rounds.max(1);
    let round_plan =
        |r: usize| SamplingPlan::random_subset(n, m, &[], seed.wrapping_add(r as u64 * 77));
    let recs: Vec<Reconstruction> = match warm {
        // Warm rounds chain through one shared solver state — round r
        // seeds from round r−1's coefficients of the same frame — so
        // they must run sequentially. Per-round plan seeds are the same
        // as the cold fan-out's.
        Some(warm) => (0..rounds)
            .map(|r| {
                let plan = round_plan(r)?;
                let y = plan.measure(flat);
                decoder.reconstruct_warm(rows, cols, plan.selected(), &y, warm)
            })
            .collect::<Result<_>>()?,
        // Each cold round is seeded from its index alone, so the
        // fan-out is bit-identical to the serial loop.
        None => crate::par::maybe_par_map_indices(rounds, |r| {
            let plan = round_plan(r)?;
            let y = plan.measure(flat);
            decoder.reconstruct(rows, cols, plan.selected(), &y)
        })
        .into_iter()
        .collect::<Result<_>>()?,
    };
    let mut stats = ReconstructStats {
        solver_iterations: 0,
        converged: true,
    };
    let mut stacks: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); n];
    for rec in recs {
        stats.solver_iterations += rec.report.iterations;
        stats.converged &= rec.report.converged;
        for (stack, &v) in stacks.iter_mut().zip(rec.frame.as_slice()) {
            stack.push(v);
        }
    }
    let merge_span = tel::span("strategy.median_merge");
    let merged = Matrix::from_fn(rows, cols, |i, j| vecops::median(&stacks[i * cols + j]));
    drop(merge_span);
    Ok((merged, stats))
}

/// State a [`StrategySession`] carries across the frames of a sequence:
/// the RPCA decomposition stream and the (opt-in) decode-side warm
/// starts.
#[derive(Debug, Clone)]
struct SessionState {
    rpca_stream: RpcaStream,
    decode_warm: Option<DecodeWarmState>,
}

impl SessionState {
    fn new() -> Self {
        SessionState {
            rpca_stream: RpcaStream::new(RpcaConfig::default()),
            decode_warm: None,
        }
    }
}

/// A strategy plus the state it carries across the frames of a
/// sequence. By default only [`SamplingStrategy::RpcaFilter`] is
/// stateful — it warm-starts each frame's RPCA decomposition (subspace
/// and sparse support) from the previous one — so for every other
/// strategy a fresh session behaves exactly like calling
/// [`SamplingStrategy::reconstruct`] per frame.
///
/// [`StrategySession::with_warm_decode`] additionally carries solver
/// state across *decodes*: each resampling round and each frame seeds
/// its solve from the previous solution's DCT coefficients, reuses one
/// preallocated workspace, and skips the per-round power iteration.
/// This trades bit-identity to the per-frame cold path for fewer
/// solver iterations on correlated solves.
#[derive(Debug, Clone)]
pub struct StrategySession {
    strategy: SamplingStrategy,
    state: SessionState,
}

impl StrategySession {
    /// Starts a session with no carried state.
    pub fn new(strategy: SamplingStrategy) -> Self {
        StrategySession {
            strategy,
            state: SessionState::new(),
        }
    }

    /// Enables decode-side warm starts (builder style): consecutive
    /// decodes seed from the previous solution instead of from zero.
    #[must_use]
    pub fn with_warm_decode(mut self) -> Self {
        self.state.decode_warm = Some(DecodeWarmState::new());
        self
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> &SamplingStrategy {
        &self.strategy
    }

    /// Borrows the decode warm-start state (for its counters), when
    /// enabled via [`StrategySession::with_warm_decode`].
    pub fn decode_warm(&self) -> Option<&DecodeWarmState> {
        self.state.decode_warm.as_ref()
    }

    /// Reconstructs the next frame of the sequence, updating the
    /// carried state.
    ///
    /// # Errors
    ///
    /// Propagates sampling/decoding failures (e.g. too few usable
    /// pixels).
    pub fn reconstruct(
        &mut self,
        measured: &Matrix,
        m: usize,
        decoder: &Decoder,
        seed: u64,
    ) -> Result<Matrix> {
        Ok(self.reconstruct_traced(measured, m, decoder, seed)?.0)
    }

    /// [`StrategySession::reconstruct`] plus solver effort, for the
    /// pipeline's telemetry reports.
    pub(crate) fn reconstruct_traced(
        &mut self,
        measured: &Matrix,
        m: usize,
        decoder: &Decoder,
        seed: u64,
    ) -> Result<(Matrix, ReconstructStats)> {
        self.strategy
            .reconstruct_with(measured, m, decoder, seed, &mut self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::SparseErrorModel;
    use crate::metrics::rmse;

    /// A smooth synthetic frame, normalized to [0, 1].
    fn smooth_frame(rows: usize, cols: usize) -> Matrix {
        let raw = Matrix::from_fn(rows, cols, |i, j| {
            0.5 + 0.3 * ((i as f64) * 0.4).sin() + 0.2 * ((j as f64) * 0.3).cos()
        });
        let min = raw.min();
        let max = raw.max();
        raw.map(|v| (v - min) / (max - min))
    }

    fn corrupted(rows: usize, cols: usize, fraction: f64, seed: u64) -> (Matrix, Matrix) {
        let truth = smooth_frame(rows, cols);
        let (bad, _) = SparseErrorModel::new(fraction)
            .unwrap()
            .corrupt(&truth, seed);
        (truth, bad)
    }

    #[test]
    fn exclude_tested_beats_oblivious_under_errors() {
        let (truth, bad) = corrupted(16, 16, 0.1, 3);
        let decoder = Decoder::default();
        let m = 150;
        let r_excl = SamplingStrategy::exclude_tested()
            .reconstruct(&bad, m, &decoder, 1)
            .unwrap();
        let r_obl = SamplingStrategy::Oblivious
            .reconstruct(&bad, m, &decoder, 1)
            .unwrap();
        let e_excl = rmse(&r_excl, &truth);
        let e_obl = rmse(&r_obl, &truth);
        assert!(
            e_excl < e_obl,
            "exclude {e_excl:.4} should beat oblivious {e_obl:.4}"
        );
    }

    #[test]
    fn resample_median_tolerates_blind_errors() {
        // Average over seeds: any single plan draw can get (un)lucky
        // with where the stuck pixels land, the median advantage is a
        // statistical claim.
        let decoder = Decoder::default();
        let m = 150;
        let mut e_single = 0.0;
        let mut e_median = 0.0;
        for seed in 0..4 {
            let (truth, bad) = corrupted(16, 16, 0.05, 7 + seed);
            let single = SamplingStrategy::Oblivious
                .reconstruct(&bad, m, &decoder, 2 + seed)
                .unwrap();
            let median = SamplingStrategy::ResampleMedian { rounds: 10 }
                .reconstruct(&bad, m, &decoder, 2 + seed)
                .unwrap();
            e_single += rmse(&single, &truth);
            e_median += rmse(&median, &truth);
        }
        assert!(
            e_median < e_single,
            "median {:.4} vs single {:.4}",
            e_median / 4.0,
            e_single / 4.0
        );
    }

    #[test]
    fn rpca_filter_excludes_most_stuck_pixels() {
        let (truth, bad) = corrupted(16, 16, 0.08, 11);
        let decoder = Decoder::default();
        let rec = SamplingStrategy::RpcaFilter { threshold: 0.3 }
            .reconstruct(&bad, 150, &decoder, 3)
            .unwrap();
        // With outliers excluded the reconstruction approaches the
        // clean frame.
        assert!(rmse(&rec, &truth) < 0.12, "rmse {}", rmse(&rec, &truth));
    }

    #[test]
    fn no_errors_all_strategies_agree_roughly() {
        let truth = smooth_frame(12, 12);
        let decoder = Decoder::default();
        for strategy in [
            SamplingStrategy::exclude_tested(),
            SamplingStrategy::Oblivious,
            SamplingStrategy::ResampleMedian { rounds: 3 },
            SamplingStrategy::RpcaFilter { threshold: 0.5 },
        ] {
            let rec = strategy.reconstruct(&truth, 100, &decoder, 5).unwrap();
            let e = rmse(&rec, &truth);
            assert!(e < 0.12, "{}: rmse {e}", strategy.name());
        }
    }

    #[test]
    fn exclude_known_uses_the_given_mask() {
        let (truth, bad) = corrupted(16, 16, 0.1, 21);
        // Recover the injected indices by diffing.
        let indices: Vec<usize> = (0..256)
            .filter(|&i| (bad[(i / 16, i % 16)] - truth[(i / 16, i % 16)]).abs() > 1e-12)
            .collect();
        let decoder = Decoder::default();
        let rec = SamplingStrategy::ExcludeKnown { indices }
            .reconstruct(&bad, 150, &decoder, 4)
            .unwrap();
        assert!(rmse(&rec, &truth) < 0.08, "rmse {}", rmse(&rec, &truth));
    }

    #[test]
    fn exclude_known_differs_with_sample_budget() {
        // Regression test: different m must actually change the plan.
        let (_, bad) = corrupted(16, 16, 0.05, 31);
        let decoder = Decoder::default();
        let strategy = SamplingStrategy::ExcludeKnown { indices: vec![] };
        let r1 = strategy.reconstruct(&bad, 100, &decoder, 9).unwrap();
        let r2 = strategy.reconstruct(&bad, 180, &decoder, 9).unwrap();
        assert!(
            (&r1 - &r2).norm_fro() > 1e-9,
            "budgets produced identical plans"
        );
    }

    #[test]
    fn exclude_known_duplicates_do_not_shrink_the_sample() {
        // The budget is clamped by the distinct defects, not the list
        // length: 200 copies of one index exclude one pixel.
        let (_, bad) = corrupted(16, 16, 0.05, 71);
        let decoder = Decoder::default();
        let repeated = SamplingStrategy::ExcludeKnown {
            indices: vec![5; 200],
        }
        .reconstruct(&bad, 150, &decoder, 6)
        .unwrap();
        let single = SamplingStrategy::ExcludeKnown { indices: vec![5] }
            .reconstruct(&bad, 150, &decoder, 6)
            .unwrap();
        assert_eq!(repeated.as_slice(), single.as_slice());
    }

    #[test]
    fn oblivious_budget_above_n_is_an_error() {
        // Only the excluding strategies clamp the budget.
        let truth = smooth_frame(8, 8);
        let err = SamplingStrategy::Oblivious
            .reconstruct(&truth, 65, &Decoder::default(), 1)
            .unwrap_err();
        assert!(
            matches!(
                err,
                crate::CoreError::InsufficientSamples {
                    requested: 65,
                    available: 64
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn session_is_transparent_for_stateless_strategies() {
        let (_, bad) = corrupted(16, 16, 0.05, 41);
        let decoder = Decoder::default();
        for strategy in [
            SamplingStrategy::exclude_tested(),
            SamplingStrategy::Oblivious,
            SamplingStrategy::ResampleMedian { rounds: 3 },
        ] {
            let mut session = StrategySession::new(strategy.clone());
            for seed in [1u64, 2, 3] {
                let streamed = session.reconstruct(&bad, 150, &decoder, seed).unwrap();
                let stateless = strategy.reconstruct(&bad, 150, &decoder, seed).unwrap();
                assert_eq!(
                    streamed.as_slice(),
                    stateless.as_slice(),
                    "{} diverged under a session",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn session_rpca_filter_matches_cold_per_frame() {
        // 32x32 puts RPCA on the randomized engine; the warm-started
        // session must exclude the same outliers (and hence produce the
        // same reconstruction) as per-frame cold solves.
        let decoder = Decoder::default();
        let strategy = SamplingStrategy::RpcaFilter { threshold: 0.3 };
        let mut session = StrategySession::new(strategy.clone());
        for seed in 0..3u64 {
            let (_, bad) = corrupted(32, 32, 0.08, 60 + seed);
            let streamed = session.reconstruct(&bad, 560, &decoder, seed).unwrap();
            let cold = strategy.reconstruct(&bad, 560, &decoder, seed).unwrap();
            assert_eq!(
                streamed.as_slice(),
                cold.as_slice(),
                "warm-started frame {seed} diverged"
            );
        }
    }

    #[test]
    fn warm_decode_session_tracks_cold_resample_median() {
        let (truth, bad) = corrupted(16, 16, 0.05, 51);
        let decoder = Decoder::default();
        let strategy = SamplingStrategy::ResampleMedian { rounds: 5 };
        let cold = strategy.reconstruct(&bad, 150, &decoder, 7).unwrap();
        let mut session = StrategySession::new(strategy).with_warm_decode();
        let warm = session.reconstruct(&bad, 150, &decoder, 7).unwrap();
        // Warm rounds converge to (nearly) the same LASSO minimizers,
        // so the merged frames agree to reconstruction accuracy even
        // though the iterate paths differ.
        let drift = rmse(&warm, &cold);
        assert!(drift < 5e-3, "warm vs cold rmse {drift}");
        assert!(
            (rmse(&warm, &truth) - rmse(&cold, &truth)).abs() < 5e-3,
            "warm {} vs cold {} accuracy",
            rmse(&warm, &truth),
            rmse(&cold, &truth)
        );
        let state = session.decode_warm().unwrap();
        assert!(
            state.warm_starts() >= 4,
            "rounds after the first should warm-start, got {}",
            state.warm_starts()
        );
    }

    #[test]
    fn warm_decode_carries_across_frames() {
        let decoder = Decoder::default();
        let mut session = StrategySession::new(SamplingStrategy::Oblivious).with_warm_decode();
        for seed in 0..3u64 {
            let (_, bad) = corrupted(16, 16, 0.03, 90 + seed);
            session.reconstruct(&bad, 150, &decoder, seed).unwrap();
        }
        let state = session.decode_warm().unwrap();
        assert_eq!(
            state.warm_starts(),
            2,
            "frames after the first should warm-start"
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SamplingStrategy::Oblivious.name(), "oblivious");
        assert_eq!(
            SamplingStrategy::ResampleMedian { rounds: 10 }.name(),
            "resample-median"
        );
    }
}
