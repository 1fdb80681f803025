//! Host-speed reference: a fixed kernel of the benchmark's own, timed
//! beside the measured operations, by which throughput is stated at a
//! reference host speed.
//!
//! The benchmark runs on a few vCPUs of a shared host. For minutes at a
//! time other tenants slow every thread of this one, fixed kernels
//! included, by up to ~1.7x, and a run of tens of seconds cannot wait
//! that out. The reference kernel slows with the host but not with the
//! program (it calls no program code), so an operation's time divided
//! by the reference pass time of the same stretch of the run moves with
//! the program only.

use std::hint::black_box;
use std::time::Instant;

/// About the seconds one reference pass takes on a calm host (2-vCPU
/// x86_64 VM, AVX2+FMA; 0.31-0.40 ms measured on a busy one). It only
/// turns times counted in passes back into seconds; a comparison of
/// two builds cancels it.
pub const NOMINAL_S: f64 = 3.0e-4;

/// Reference time after an operation, as a share of the operation's
/// own time: long enough that both meet the same host load, including
/// the stalls of a time-sliced vCPU.
const SHARE: f64 = 0.5;
/// Longest stretch of reference passes, s.
const MAX_STRETCH_S: f64 = 0.2;

/// Elements of the floating-point arrays (L1-resident, as a 32x32
/// frame is).
const FP_LEN: usize = 1024;
/// Entries of the random-access table (16 KiB, L1-resident).
const TABLE_LEN: usize = 1 << 12;

/// The reference kernel's inputs, built once.
pub struct Reference {
    x: Vec<f64>,
    table: Vec<u32>,
}

impl Reference {
    pub fn new() -> Self {
        let x = (0..FP_LEN)
            .map(|i| ((i * 37) % 101) as f64 / 101.0 - 0.5)
            .collect();
        let mut z = 0x2545_f491_4f6c_dd1d_u64;
        let table = (0..TABLE_LEN)
            .map(|_| {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                (z % TABLE_LEN as u64) as u32
            })
            .collect();
        Self { x, table }
    }

    /// One pass: floating-point vector sweeps, a chain of dependent
    /// random reads and small allocations, the three things the
    /// workloads spend their time on.
    fn pass(&self) {
        let mut y = vec![0.0f64; FP_LEN];
        let mut acc = 0.0;
        for k in 0..120 {
            let step = 0.01 * (k % 7) as f64;
            for (yi, &xi) in y.iter_mut().zip(&self.x) {
                let v = *yi + step * xi;
                *yi = v.signum() * (v.abs() - 1e-4).max(0.0);
            }
            acc += y.iter().zip(&self.x).map(|(a, b)| a * b).sum::<f64>();
        }
        black_box(acc);
        let mut i = 1u32;
        for _ in 0..50_000 {
            i = self.table[i as usize];
        }
        black_box(i);
        let mut live: Vec<Vec<f64>> = Vec::with_capacity(16);
        for k in 0..600 {
            let mut v = Vec::with_capacity(32 + k % 96);
            v.extend((0..16).map(f64::from));
            live.push(black_box(v));
            if live.len() == 16 {
                live.clear();
            }
        }
        black_box(live);
    }

    /// Mean pass time over passes run for at least `seconds` (at least
    /// one pass), s. The mean, not the fastest pass: a time-sliced
    /// vCPU's stalls slow an operation and the stretch beside it alike.
    pub fn stretch(&self, seconds: f64) -> f64 {
        let t0 = Instant::now();
        let mut passes = 0u32;
        loop {
            self.pass();
            passes += 1;
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed >= seconds {
                return elapsed / f64::from(passes);
            }
        }
    }

    /// Reference pass time right after an operation that took `op_s`.
    pub fn after(&self, op_s: f64) -> f64 {
        self.stretch((op_s * SHARE).min(MAX_STRETCH_S))
    }
}

/// Factor that takes a rate measured while a reference pass took
/// `host_s` to the reference host speed.
pub fn scale(host_s: f64) -> f64 {
    host_s / NOMINAL_S
}

/// A time of `seconds` measured while a reference pass took `host_s`,
/// at the reference host speed.
pub fn at_reference(seconds: f64, host_s: f64) -> f64 {
    seconds / scale(host_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stretch_lasts_at_least_its_length_and_one_pass() {
        let r = Reference::new();
        let t0 = Instant::now();
        let pass = r.stretch(0.01);
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(elapsed >= 0.01);
        assert!(pass > 0.0 && pass <= elapsed);
        assert!(r.stretch(0.0) > 0.0);
    }
}
