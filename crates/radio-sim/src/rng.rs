//! Deterministic pseudo-random number generation.
//!
//! The simulator cannot use `rand::thread_rng`-style entropy: every run
//! must be a pure function of its seed. [`SimRng`] implements
//! xoshiro256++ (Blackman & Vigna) seeded through SplitMix64, the same
//! construction the reference implementations use. It is small, fast and
//! has no external state.
//!
//! Independent streams (one per node, one for the workload, …) are derived
//! with [`SimRng::fork`], which mixes a stream identifier into the seed so
//! that adding a node never perturbs the random sequence of another.
//!
//! [`SimRng::stream`] is a second derivation of the same idea: a
//! counter-keyed SplitMix64 derivation straight from the *master seed*,
//! needing no root generator value at all, so anything that knows
//! `(master_seed, stream_id)` can mint the stream locally (see
//! `SimConfig::rng_streams`).

/// A deterministic xoshiro256++ pseudo-random number generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent stream for `stream_id`.
    ///
    /// Forking is stable: the same `(seed, stream_id)` always yields the
    /// same stream, and distinct ids yield decorrelated streams.
    #[must_use]
    pub fn fork(&self, stream_id: u64) -> SimRng {
        let mut mix = self.s[0] ^ stream_id.wrapping_mul(0xd6e8_feb8_6659_fd93);
        let base = splitmix64(&mut mix);
        SimRng::new(base ^ self.s[3].rotate_left(23))
    }

    /// Derives an independent stream for `stream_id` directly from a
    /// master seed — a pure, counter-keyed SplitMix64 derivation.
    ///
    /// Unlike [`SimRng::fork`] (which mixes the *root generator's state*
    /// into the child), `stream` depends only on `(seed, stream_id)`:
    /// two SplitMix64 steps walk the counter away from the plain-seed
    /// sequence before the usual xoshiro seeding, so `stream(s, k)` is
    /// decorrelated both from `new(s)` and from every other counter.
    /// Any thread can evaluate it without sharing a generator.
    #[must_use]
    pub fn stream(seed: u64, stream_id: u64) -> SimRng {
        let mut key = stream_id.wrapping_mul(0x9e6c_63d0_876a_46ad);
        let a = splitmix64(&mut key);
        let b = splitmix64(&mut key);
        SimRng::new(seed ^ a ^ b.rotate_left(17))
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Widening multiply rejection sampling (unbiased).
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        if lo == hi {
            return lo;
        }
        lo + self.gen_range(hi - lo + 1)
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// A standard-normal sample (Box–Muller).
    pub fn gen_normal(&mut self) -> f64 {
        let u1 = (self.gen_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.gen_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// An exponentially distributed sample with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive.
    pub fn gen_exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive, got {mean}");
        -mean * (1.0 - self.gen_f64()).ln()
    }

    /// Shuffles a slice (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_stable_and_decorrelated() {
        let root = SimRng::new(99);
        let mut f1 = root.fork(1);
        let mut f1_again = root.fork(1);
        let mut f2 = root.fork(2);
        assert_eq!(f1.next_u64(), f1_again.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn stream_is_pure_in_seed_and_counter() {
        let mut a = SimRng::stream(99, 7);
        let mut b = SimRng::stream(99, 7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut other_counter = SimRng::stream(99, 8);
        let mut other_seed = SimRng::stream(100, 7);
        let same_counter = (0..64)
            .filter(|_| a.next_u64() == other_counter.next_u64())
            .count();
        let same_seed = (0..64)
            .filter(|_| b.next_u64() == other_seed.next_u64())
            .count();
        assert_eq!(same_counter, 0);
        assert_eq!(same_seed, 0);
    }

    #[test]
    fn stream_is_decorrelated_from_plain_seeding_and_fork() {
        // The counter derivation must not collide with `new(seed)` (the
        // master generator itself) or with the fork-based node streams it
        // is an alternative to.
        let mut st = SimRng::stream(42, 0);
        let mut plain = SimRng::new(42);
        let mut forked = SimRng::new(42).fork(1);
        let vs_plain = (0..64)
            .filter(|_| st.next_u64() == plain.next_u64())
            .count();
        let mut st = SimRng::stream(42, 1);
        let vs_fork = (0..64)
            .filter(|_| st.next_u64() == forked.next_u64())
            .count();
        assert_eq!(vs_plain, 0);
        assert_eq!(vs_fork, 0);
    }

    #[test]
    fn gen_range_bounds_respected() {
        let mut rng = SimRng::new(3);
        for bound in [1u64, 2, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = SimRng::new(5);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.gen_range(10) as usize] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_range_inclusive_hits_both_ends() {
        let mut rng = SimRng::new(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match rng.gen_range_inclusive(5, 8) {
                5 => saw_lo = true,
                8 => saw_hi = true,
                6 | 7 => {}
                v => panic!("out of range: {v}"),
            }
        }
        assert!(saw_lo && saw_hi);
        assert_eq!(rng.gen_range_inclusive(4, 4), 4);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(13);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = SimRng::new(17);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "got {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn gen_normal_moments() {
        let mut rng = SimRng::new(19);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gen_exponential_mean() {
        let mut rng = SimRng::new(23);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.gen_exponential(5.0)).sum::<f64>() / f64::from(n);
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(29);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gen_range_zero_bound_panics() {
        SimRng::new(1).gen_range(0);
    }
}
