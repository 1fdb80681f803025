//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the seeded generator
//! behind the randomized SVD's test matrix, per-block sampling seeds,
//! the circuit Monte-Carlo and array draws, and `flexcs-nn` weight
//! initialization. A stream is pure in its seed, so every consumer
//! reproduces bit for bit on any thread count.

/// SplitMix64's Weyl increment, `2⁶⁴/φ` rounded to odd.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output finalizer: a bijective 64-bit mix, usable on its
/// own as a hash of a `u64` key.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 stream with uniform and Gaussian draws.
///
/// # Examples
///
/// ```
/// use flexcs_linalg::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.uniform();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

// `#[inline]` keeps draws inlinable in the other crates' sampling
// loops, as their own in-crate copies were.
impl SplitMix64 {
    /// Seeds a stream whose Weyl state starts one increment past `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self::from_state(seed.wrapping_add(GOLDEN_GAMMA))
    }

    /// A stream at Weyl state `state`: its first output is
    /// `mix64(state + GOLDEN_GAMMA)`, as in the reference SplitMix64.
    #[inline]
    pub fn from_state(state: u64) -> Self {
        SplitMix64(state)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN_GAMMA);
        mix64(self.0)
    }

    /// Uniform draw in `[0, 1)` from the top 53 bits of one output.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard-normal draw (Box–Muller, cosine branch; two uniforms
    /// per draw, the first floored at `1e-300` so its log is finite).
    #[inline]
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream() {
        // First outputs of the reference SplitMix64 seeded with 0.
        let mut rng = SplitMix64::from_state(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        // `new` starts one Weyl step later.
        let mut seeded = SplitMix64::new(0);
        assert_eq!(seeded.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }
}
