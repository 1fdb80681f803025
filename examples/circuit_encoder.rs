//! The flexible CS encoder at the transistor level (paper Sec. 3,
//! Fig. 5).
//!
//! Exercises every fabricated building block in simulation: the Pt
//! temperature pixel (linearity), the pseudo-CMOS cell library, a
//! 2-stage shift register shifting a pulse at 10 kHz, the self-biased
//! amplifier's gain at 30 kHz, and finally a hardware-in-the-loop CS
//! acquisition through the active-matrix model.
//!
//! Run with: `cargo run --release --example circuit_encoder`

use flexcs::circuit::{
    build_self_biased_amplifier, build_shift_register, linearity_fit, pixel_temperature_sweep,
    ActiveMatrix, CellLibrary, Circuit, NodeId, PixelBias, PtSensorModel, TransientConfig,
    Waveform,
};
use flexcs::core::{CircuitEncoder, Decoder, SamplingPlan};
use flexcs::datasets::{normalize_unit, thermal_frame, ThermalConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("flexcs circuit encoder walkthrough (all CNT-TFT, pseudo-CMOS)\n");

    // --- Fig. 5b: temperature pixel linearity --------------------------
    let sweep = pixel_temperature_sweep(
        &PtSensorModel::default(),
        &PixelBias::default(),
        20.0,
        100.0,
        9,
    )?;
    let (slope, _, r2) = linearity_fit(&sweep);
    println!("pixel: I(T) sweep 20–100 °C");
    for (t, i) in &sweep {
        println!("  T = {t:>5.1} °C  ->  I = {:>8.3} µA", i * 1e6);
    }
    println!(
        "  linear fit: slope {:.3} nA/°C, r² = {r2:.5}\n",
        slope * 1e9
    );

    // --- Fig. 5c/d: shift register at 10 kHz ---------------------------
    let mut ckt = Circuit::new();
    let lib = CellLibrary::with_rails(&mut ckt, 3.0, -3.0);
    let data = ckt.node("data");
    let clk = ckt.node("clk");
    let t_clk = 1e-4; // 10 kHz
    ckt.add_vsource(clk, NodeId::GROUND, Waveform::clock(0.0, 3.0, 10e3));
    ckt.add_vsource(
        data,
        NodeId::GROUND,
        Waveform::Pulse {
            v0: 3.0,
            v1: 0.0,
            delay: t_clk * 0.9,
            rise: 2e-6,
            fall: 2e-6,
            width: 1.0,
            period: 0.0,
        },
    );
    let sr = build_shift_register(&mut ckt, &lib, 2, data, clk)?;
    println!(
        "shift register: 2 stages, {} TFTs, CLK 10 kHz, VDD 3 V",
        sr.tft_count
    );
    let result = ckt.transient(&TransientConfig::new(3.0 * t_clk, 2e-6))?;
    for (k, &q) in sr.outputs.iter().enumerate() {
        let tr = result.trace(q);
        println!(
            "  stage {}: q @ 0.9T = {:+.2} V, @ 1.9T = {:+.2} V, @ 2.9T = {:+.2} V",
            k + 1,
            tr.value_at(0.9 * t_clk).unwrap(),
            tr.value_at(1.9 * t_clk).unwrap(),
            tr.value_at(2.9 * t_clk).unwrap(),
        );
    }
    println!("  (the logic 1 marches one stage per rising edge)\n");

    // --- Fig. 5e: self-biased amplifier --------------------------------
    let mut amp_ckt = Circuit::new();
    let amp_lib = CellLibrary::with_rails(&mut amp_ckt, 3.0, -3.0);
    let amp = build_self_biased_amplifier(&mut amp_ckt, &amp_lib, "vin")?;
    let vin = amp_ckt.find_node("vin")?;
    let src = amp_ckt.add_vsource(vin, NodeId::GROUND, Waveform::Dc(0.0));
    let sweep = amp_ckt.ac_sweep(src, &[3e3, 10e3, 30e3, 100e3, 300e3])?;
    println!("self-biased amplifier ({} TFTs):", amp.tft_count);
    for (f, g) in sweep.freqs().iter().zip(sweep.gain_db(amp.output)) {
        println!("  {:>7.0} Hz: {:>6.1} dB", f, g);
    }
    println!("  (paper reports 28 dB at 30 kHz)\n");

    // --- Fig. 4: hardware-in-the-loop CS acquisition -------------------
    let scene = normalize_unit(&thermal_frame(
        &ThermalConfig {
            rows: 16,
            cols: 16,
            ..ThermalConfig::default()
        },
        3,
    ));
    let mut encoder = CircuitEncoder::new(ActiveMatrix::new(16, 16)?);
    encoder.array_mut().inject_defects(0.05, 99);
    let defect_count = encoder.array().defective_indices().len();

    let excluded = encoder.array().defective_indices();
    let plan = SamplingPlan::random_subset(256, 140, &excluded, 17)?;
    let acq = encoder.acquire(&scene, &plan, 21)?;
    let rec = Decoder::default().reconstruct(16, 16, &acq.selected, &acq.measurements)?;
    let rmse = flexcs::core::rmse(&rec.frame, &scene);
    println!("active matrix: 16x16, {defect_count} injected defects (excluded by test)");
    println!(
        "  scan: {} cycles, {} measurements (55 %)",
        acq.scan_cycles,
        acq.measurements.len()
    );
    println!("  reconstruction RMSE vs scene: {rmse:.4}");
    Ok(())
}
