//! Deterministic pseudo-random number generation for trace synthesis.
//!
//! The synthesizer must produce byte-identical traces forever — results in
//! `EXPERIMENTS.md` reference concrete numbers — so we implement a small,
//! well-known generator (xoshiro256**) seeded via SplitMix64 instead of
//! depending on an external crate whose stream may change across versions.

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A xoshiro256** pseudo-random generator.
///
/// Deterministic, fast, and statistically strong enough for synthetic noise
/// generation. Not cryptographically secure.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Creates a generator seeded from a string label (e.g. a region code).
    pub fn from_label(label: &str, salt: u64) -> Self {
        // FNV-1a over the label, mixed with the salt.
        let hash = crate::container::fnv1a64(label.as_bytes());
        Self::seeded(hash ^ salt.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Returns the next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // Use the top 53 bits for a full-precision mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Returns a standard normal sample (Box–Muller transform).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.uniform().max(1e-12);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below() requires a positive bound");
        // Multiply-shift bounded sampling; bias is negligible for our use.
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Xoshiro256::seeded(42);
        let mut b = Xoshiro256::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::seeded(1);
        let mut b = Xoshiro256::seeded(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn label_seeding_is_stable_and_distinct() {
        let mut a = Xoshiro256::from_label("US-CA", 7);
        let mut b = Xoshiro256::from_label("US-CA", 7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = Xoshiro256::from_label("US-WA", 7);
        let mut d = Xoshiro256::from_label("US-CA", 8);
        assert_ne!(b.next_u64(), c.next_u64());
        assert_ne!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Xoshiro256::seeded(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Xoshiro256::seeded(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256::seeded(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Xoshiro256::seeded(17);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        Xoshiro256::seeded(1).below(0);
    }
}
