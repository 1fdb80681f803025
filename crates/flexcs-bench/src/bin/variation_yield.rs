//! Monte-Carlo yield of the encoder circuits under CNT-TFT process
//! variation (the "large device variation" the paper's introduction
//! motivates, quantified at the circuit level).
//!
//! Run with: `cargo run --release -p flexcs-bench --bin variation_yield`

use flexcs_bench::{f4, print_table};
use flexcs_circuit::{
    amplifier_gain_spread_mc, inverter_yield_mc, ring_frequency_spread_mc, McEngine, VariationModel,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 2020;
    let trials = 60;
    // All sweeps run on the parallel Monte-Carlo engine: one shared
    // symbolic analysis per call slot, pooled warm workspaces,
    // nominal-seeded Newton; stats are bit-identical for any
    // FLEXCS_THREADS setting.
    let engine = McEngine::default();
    println!("Monte-Carlo yield under CNT-TFT process variation ({trials} trials/point)\n");

    println!("pseudo-CMOS inverter static logic levels (pass: rail-to-rail within 0.6 V):\n");
    let mut table = Vec::new();
    let mut refactors = 0;
    let mut newton_saved = 0;
    for (vth_sigma, kp_sigma) in [
        (0.05, 0.05),
        (0.10, 0.10),
        (0.20, 0.15),
        (0.30, 0.20),
        (0.50, 0.30),
    ] {
        let variation = VariationModel {
            vth_sigma,
            kp_rel_sigma: kp_sigma,
        };
        let report = inverter_yield_mc(&engine, &variation, 3.0, 0.6, trials, seed)?;
        let stats = &report.stats;
        refactors += report.refactors;
        newton_saved += report.warm_newton_saved;
        table.push(vec![
            format!("{:.0} mV", vth_sigma * 1000.0),
            format!("{:.0}%", kp_sigma * 100.0),
            format!("{:.0}%", stats.yield_fraction() * 100.0),
            f4(stats.mean()),
            f4(stats.std_dev()),
            f4(stats.p50()),
            f4(stats.p95()),
        ]);
    }
    print_table(
        &[
            "sigma(Vth)",
            "sigma(kp)",
            "yield",
            "margin mean (V)",
            "margin std",
            "p50",
            "p95",
        ],
        &table,
    );
    println!(
        "\n({refactors} numeric refactorizations across the sweep, \
         {newton_saved} Newton iterations saved by nominal warm starts)"
    );

    println!("\nself-biased amplifier mid-band gain at 30 kHz (pass: >= 20 dB):\n");
    let mut table = Vec::new();
    for (vth_sigma, kp_sigma) in [(0.05, 0.05), (0.10, 0.10), (0.20, 0.15)] {
        let variation = VariationModel {
            vth_sigma,
            kp_rel_sigma: kp_sigma,
        };
        let stats = amplifier_gain_spread_mc(&engine, &variation, 30e3, 20.0, trials, seed)?.stats;
        table.push(vec![
            format!("{:.0} mV", vth_sigma * 1000.0),
            format!("{:.0}%", kp_sigma * 100.0),
            format!("{:.0}%", stats.yield_fraction() * 100.0),
            format!("{:.1} dB", stats.mean()),
            format!("{:.1} dB", stats.std_dev()),
            format!("{:.1}..{:.1} dB", stats.min(), stats.max()),
        ]);
    }
    print_table(
        &[
            "sigma(Vth)",
            "sigma(kp)",
            "yield",
            "gain mean",
            "gain std",
            "range",
        ],
        &table,
    );
    println!("\nfive-stage ring-oscillator process monitor (the paper's '44 ring oscillators'):\n");
    let mut table = Vec::new();
    for (vth_sigma, kp_sigma) in [(0.05, 0.05), (0.10, 0.10), (0.20, 0.15)] {
        let variation = VariationModel {
            vth_sigma,
            kp_rel_sigma: kp_sigma,
        };
        let stats = ring_frequency_spread_mc(&engine, &variation, 20, seed)?.stats;
        table.push(vec![
            format!("{:.0} mV", vth_sigma * 1000.0),
            format!("{:.0}%", kp_sigma * 100.0),
            format!("{:.0}%", stats.yield_fraction() * 100.0),
            format!("{:.2} kHz", stats.mean() / 1e3),
            format!("{:.2} kHz", stats.std_dev() / 1e3),
        ]);
    }
    print_table(
        &["sigma(Vth)", "sigma(kp)", "osc yield", "f mean", "f std"],
        &table,
    );
    println!("\nthe self-biased topology absorbs threshold shifts (its feedback re-centers");
    println!("the trip point), which is exactly why the paper chose it for flexible TFTs;");
    println!("the ring monitor's frequency spread reads out the process corner directly.");
    Ok(())
}
