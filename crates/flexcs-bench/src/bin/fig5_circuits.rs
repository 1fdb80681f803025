//! Regenerates paper Fig. 5: the measured characteristics of the
//! fabricated CNT-TFT encoder building blocks, in simulation.
//!
//! - Fig. 5b: Pt temperature pixel I–V linearity at VWL = 1 V, VBL = 0.
//! - Fig. 5c/d: 8-stage shift register waveforms, CLK 10 kHz, data
//!   1 kHz, VDD 3 V.
//! - Fig. 5e: self-biased amplifier gain/frequency (paper: 28 dB @
//!   30 kHz from a 50 mV input).
//!
//! Run with: `cargo run --release -p flexcs-bench --bin fig5_circuits`
//! (the transistor-level 8-stage register takes a minute or two).

use flexcs_bench::print_table;
use flexcs_circuit::{
    build_self_biased_amplifier, build_shift_register, linearity_fit, log_frequencies,
    pixel_temperature_sweep, ring_oscillator_frequency, CellLibrary, Circuit, NodeId, PixelBias,
    PtSensorModel, TransientConfig, Waveform,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Fig. 5b: pixel linearity --------------------------------------
    println!("Fig. 5b — Pt temperature pixel (VWL = 1 V, VBL = 0 V, W/L = 500/25)\n");
    let sweep = pixel_temperature_sweep(
        &PtSensorModel::default(),
        &PixelBias::default(),
        20.0,
        100.0,
        9,
    )?;
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|(t, i)| vec![format!("{t:.0}"), format!("{:.4}", i * 1e6)])
        .collect();
    print_table(&["T (degC)", "I (uA)"], &rows);
    let (slope, _, r2) = linearity_fit(&sweep);
    println!(
        "\n  linear fit: {:.2} nA/degC, r^2 = {r2:.5} (paper: \"great linearity\")\n",
        slope * 1e9
    );

    // ---- Fig. 5c/d: 8-stage shift register -----------------------------
    println!("Fig. 5c/d — 8-stage shift register, CLK 10 kHz / data 1 kHz / VDD 3 V");
    let vdd = 3.0;
    let mut ckt = Circuit::new();
    let lib = CellLibrary::with_rails(&mut ckt, vdd, -vdd);
    let data = ckt.node("data");
    let clk = ckt.node("clk");
    let t_clk = 1e-4;
    ckt.add_vsource(clk, NodeId::GROUND, Waveform::clock(0.0, vdd, 10e3));
    // 1 kHz data: one full cycle holds 10 clock periods (5 high, 5 low).
    ckt.add_vsource(data, NodeId::GROUND, Waveform::clock(0.0, vdd, 1e3));
    let sr = build_shift_register(&mut ckt, &lib, 8, data, clk)?;
    println!(
        "  {} TFTs (paper: 304 with a compact dynamic latch; see DESIGN.md)",
        sr.tft_count
    );
    println!("  simulating 1.2 ms transient at the transistor level...");
    let result = ckt.transient(&TransientConfig::new(1.2e-3, 2.5e-6))?;
    // Sample each stage at mid-period instants and print the marching
    // bit pattern.
    let mut rows = Vec::new();
    for step in 1..=11usize {
        let t = step as f64 * t_clk + 0.75 * t_clk;
        if t > 1.2e-3 {
            break;
        }
        let mut cells = vec![format!("{:.2}", t * 1e3)];
        let d = if Waveform::clock(0.0, vdd, 1e3).value(t) > vdd / 2.0 {
            1
        } else {
            0
        };
        cells.push(format!("{d}"));
        for &q in &sr.outputs {
            let v = result.trace(q).value_at(t).unwrap();
            cells.push(if v > vdd / 2.0 {
                "1".into()
            } else {
                "0".into()
            });
        }
        rows.push(cells);
    }
    print_table(
        &[
            "t (ms)", "D", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8",
        ],
        &rows,
    );
    println!("\n  (the 1 kHz data pattern shifts one stage per 10 kHz clock edge)\n");

    // ---- Fig. 5e: self-biased amplifier --------------------------------
    println!("Fig. 5e — self-biased amplifier (C = 1 nF, Vtune = 1 V, VDD/VSS = +/-3 V)\n");
    let mut amp_ckt = Circuit::new();
    let amp_lib = CellLibrary::with_rails(&mut amp_ckt, vdd, -vdd);
    let amp = build_self_biased_amplifier(&mut amp_ckt, &amp_lib, "vin")?;
    let vin = amp_ckt.find_node("vin")?;
    let src = amp_ckt.add_vsource(vin, NodeId::GROUND, Waveform::Dc(0.0));
    let freqs = log_frequencies(100.0, 1e6, 3);
    let ac = amp_ckt.ac_sweep(src, &freqs)?;
    let gains = ac.gain_db(amp.output);
    let rows: Vec<Vec<String>> = freqs
        .iter()
        .zip(&gains)
        .map(|(f, g)| vec![format!("{f:.0}"), format!("{g:.1}")])
        .collect();
    print_table(&["f (Hz)", "gain (dB)"], &rows);

    // Transient check at the paper's stimulus: 50 mV, 30 kHz.
    amp_ckt.set_source_waveform(
        src,
        Waveform::Sine {
            offset: 0.0,
            amplitude: 0.05,
            frequency: 30e3,
            phase: 0.0,
        },
    )?;
    let period = 1.0 / 30e3;
    let tr = amp_ckt
        .transient(&TransientConfig::new(6.0 * period, period / 100.0))?
        .trace(amp.output);
    let pp = tr.peak_to_peak(3.0 * period, 6.0 * period).unwrap();
    println!(
        "\n  transient: 50 mV @ 30 kHz in -> {:.2} V pp out ({:.1} dB); paper: ~1.3 V, 28 dB",
        pp,
        20.0 * (pp / 0.1).log10()
    );

    // ---- Sec. 3.2 process monitor: five-stage ring oscillator ----------
    println!("\nSec. 3.2 — five-stage ring oscillator (the paper's process monitor)\n");
    let ring = ring_oscillator_frequency(5, 3.0, 4e-3, 2e-6)?;
    println!(
        "  f_osc = {:.2} kHz over {} periods, output swing {:.2} V pp",
        ring.frequency / 1e3,
        ring.periods,
        ring.swing
    );
    println!("  (kHz-class oscillation at 47 pF line load — the paper's <10 kHz regime)");
    Ok(())
}
