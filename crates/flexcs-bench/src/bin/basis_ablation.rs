//! Ablation: sparsity basis (DESIGN.md Sec. 5).
//!
//! The paper develops the DCT formulation and remarks that wavelets
//! "can be applied as well". This bench quantifies the choice: DCT vs
//! full 2-D Haar reconstruction RMSE on the smooth thermal signal and
//! on the blockier tactile contact maps, at the Fig. 6a operating point.
//!
//! Run with: `cargo run --release -p flexcs-bench --bin basis_ablation`

use flexcs_bench::{f4, pct, print_table};
use flexcs_core::{rmse, BasisKind, Decoder, SamplingPlan, SparseErrorModel};
use flexcs_datasets::{normalize_unit, tactile_frame, thermal_frame, TactileConfig, ThermalConfig};
use flexcs_linalg::Matrix;

fn reconstruct(
    truth: &Matrix,
    basis: BasisKind,
    sampling: f64,
    errors: f64,
    seed: u64,
) -> Result<f64, Box<dyn std::error::Error>> {
    let (bad, defects) = SparseErrorModel::new(errors)?.corrupt(truth, seed);
    let n = truth.rows() * truth.cols();
    let m = ((n as f64) * sampling) as usize;
    let m_eff = m.min(n - defects.len());
    let plan = SamplingPlan::random_subset(n, m_eff, &defects, seed ^ 0xb1)?;
    let y = plan.measure(&bad.to_flat());
    let decoder = Decoder::default().with_basis(basis);
    let rec = decoder.reconstruct(truth.rows(), truth.cols(), plan.selected(), &y)?;
    Ok(rmse(&rec.frame, truth))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 2020;
    let trials = 4;
    println!("basis ablation — DCT vs Haar wavelets, 32x32, 10% tested-out errors\n");

    let mut table = Vec::new();
    let mut ratios = Vec::new(); // (signal, Haar RMSE / DCT RMSE)
    for &sampling in &[0.45, 0.55, 0.65] {
        for (name, frames) in [
            (
                "thermal",
                (0..trials)
                    .map(|k| normalize_unit(&thermal_frame(&ThermalConfig::default(), seed + k)))
                    .collect::<Vec<_>>(),
            ),
            (
                "tactile",
                (0..trials)
                    .map(|k| {
                        normalize_unit(&tactile_frame(
                            &TactileConfig::default(),
                            (k as usize * 7) % 26,
                            seed + k,
                        ))
                    })
                    .collect::<Vec<_>>(),
            ),
        ] {
            let mut dct_acc = 0.0;
            let mut haar_acc = 0.0;
            for (k, truth) in frames.iter().enumerate() {
                dct_acc += reconstruct(truth, BasisKind::Dct, sampling, 0.10, seed + k as u64)?;
                haar_acc += reconstruct(truth, BasisKind::Haar, sampling, 0.10, seed + k as u64)?;
            }
            let ratio = haar_acc / dct_acc;
            ratios.push((name, ratio));
            table.push(vec![
                name.to_string(),
                pct(sampling),
                f4(dct_acc / trials as f64),
                f4(haar_acc / trials as f64),
                format!("{ratio:.2}x"),
            ]);
        }
    }
    print_table(
        &["signal", "sampling", "dct rmse", "haar rmse", "haar/dct"],
        &table,
    );
    println!("\nHaar RMSE over DCT RMSE, per signal (the paper's Sec. 2 \"other");
    println!("transformations\" remark quantified):");
    for signal in ["thermal", "tactile"] {
        let of_signal = || ratios.iter().filter(|(s, _)| *s == signal).map(|&(_, r)| r);
        let lo = of_signal().fold(f64::INFINITY, f64::min);
        let hi = of_signal().fold(0.0, f64::max);
        println!("  {signal}: {lo:.2}x to {hi:.2}x");
    }
    Ok(())
}
