//! Recorded outputs per scenario, checked bit for bit.
//!
//! `expected.txt` holds one line per value:
//! `<simd tier> <workload> <scenario> <key> <f64 bits in hex>`. The SIMD
//! tier is part of the key because kernels of different tiers may round
//! differently; on a tier with no records only the workload's own
//! bounds apply. Regenerate with `perfbench record`.

use crate::harness::Outcome;

const RECORDED: &str = include_str!("../expected.txt");

fn lookup(tier: &str, workload: &str, scenario: u64, key: &str) -> (bool, Option<u64>) {
    let mut tier_known = false;
    for line in RECORDED.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 5 || f[0] != tier || f[1] != workload {
            continue;
        }
        tier_known = true;
        if f[2].parse::<u64>().ok() == Some(scenario) && f[3] == key {
            return (true, u64::from_str_radix(f[4], 16).ok());
        }
    }
    (tier_known, None)
}

/// Adds a check that `value` equals the recorded value bit for bit.
pub fn check_value(
    out: &mut Outcome,
    workload: &str,
    scenario: u64,
    key: &'static str,
    value: f64,
) {
    let tier = flexcs_linalg::simd::tier_name();
    let name = "matches_recorded";
    match lookup(tier, workload, scenario, key) {
        (_, Some(want)) => out.check(
            name,
            value.to_bits() == want,
            format!(
                "{key} {value:e} vs recorded {:e} (scenario {scenario})",
                f64::from_bits(want)
            ),
        ),
        (true, None) => out.check(
            name,
            false,
            format!("no recorded {key} for scenario {scenario}"),
        ),
        (false, None) => out.check(
            name,
            true,
            format!("no records for simd tier {tier}; {key} not compared"),
        ),
    }
}

/// One record line.
pub fn line(workload: &str, scenario: u64, key: &str, value: f64) -> String {
    format!(
        "{} {workload} {scenario} {key} {:016x}",
        flexcs_linalg::simd::tier_name(),
        value.to_bits()
    )
}
