//! A small, fully offline property-test harness.
//!
//! The workspace used to rely on `proptest` for randomised testing, but
//! the build must resolve with zero registry access, so this crate
//! provides the subset the test-suite actually needs, driven by the same
//! deterministic PRNG ([`radio_sim::rng::SimRng`]) the simulator uses:
//!
//! * [`forall`] — run a property against `cases` generated inputs. Every
//!   case derives its own 64-bit seed from the master seed; on failure
//!   the case seed is printed so the exact input can be replayed with
//!   `TESTKIT_SEED=<seed> cargo test <name>`.
//! * [`Gen`] — a seeded generator handle with helpers for integers,
//!   floats, booleans, byte vectors and weighted choices. Generators are
//!   plain `Fn(&mut Gen) -> T` closures, composed with ordinary Rust.
//! * Greedy size shrinking: when a case fails, the harness re-generates
//!   the input from the same case seed at smaller size budgets and
//!   reports the smallest input that still fails, so counterexamples
//!   stay readable without generator-aware shrinkers.
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`] —
//!   assertion macros that fail the *case* (returning `Err` with a
//!   message) instead of panicking, so the harness can shrink.
//!
//! Environment knobs: `TESTKIT_CASES` overrides the case count,
//! `TESTKIT_SEED` replays one specific case seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;

use radio_sim::rng::SimRng;

/// Default number of generated cases per property.
pub const DEFAULT_CASES: u32 = 96;

/// Size budgets tried (largest first) when shrinking a failing case.
const SHRINK_SIZES: &[f64] = &[0.05, 0.15, 0.35, 0.65];

/// A seeded input generator handed to generator closures.
///
/// Wraps the deterministic simulator PRNG and adds a *size budget* in
/// `(0, 1]`: collection generators scale their maximum length by it, so
/// the harness can re-generate smaller variants of a failing input from
/// the same seed.
pub struct Gen {
    rng: SimRng,
    size: f64,
}

impl Gen {
    /// A generator with the full size budget.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: SimRng::new(seed),
            size: 1.0,
        }
    }

    /// Direct access to the underlying PRNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// The current size budget in `(0, 1]`.
    #[must_use]
    pub fn size(&self) -> f64 {
        self.size
    }

    /// Uniform `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform `u32`.
    pub fn u32(&mut self) -> u32 {
        self.rng.next_u64() as u32
    }

    /// Uniform `u16`.
    pub fn u16(&mut self) -> u16 {
        self.rng.next_u64() as u16
    }

    /// Uniform `u8`.
    pub fn u8(&mut self) -> u8 {
        self.rng.next_u64() as u8
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_in(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range_inclusive(lo, hi)
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.int_in(lo as u64, hi as u64) as usize
    }

    /// A collection length in `[lo, hi]`, with `hi` scaled down by the
    /// size budget during shrinking (never below `lo`).
    pub fn len_in(&mut self, lo: usize, hi: usize) -> usize {
        let scaled = lo + (((hi - lo) as f64) * self.size).round() as usize;
        self.usize_in(lo, scaled.max(lo))
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.rng.gen_f64()
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<T: Clone>(&mut self, options: &[T]) -> T {
        assert!(!options.is_empty(), "choose from empty slice");
        options[self.usize_in(0, options.len() - 1)].clone()
    }

    /// A vector of `len_in(lo, hi)` elements drawn from `f`.
    pub fn vec_of<T>(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.len_in(lo, hi);
        (0..n).map(|_| f(self)).collect()
    }

    /// A byte vector of `len_in(lo, hi)` uniform bytes.
    pub fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        self.vec_of(lo, hi, Gen::u8)
    }
}

/// Number of cases to run: `TESTKIT_CASES` or [`DEFAULT_CASES`].
#[must_use]
pub fn case_count() -> u32 {
    std::env::var("TESTKIT_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

/// Runs `prop` against `case_count()` inputs drawn from `gen`.
///
/// Each case gets an independent 64-bit seed derived from the master
/// seed (a stable hash of `name`, so adding a property never perturbs
/// another's inputs). On failure the input is shrunk by re-generating at
/// smaller size budgets, then the harness panics with the case seed and
/// the smallest failing input.
///
/// # Panics
///
/// Panics if any generated case fails, after shrinking.
pub fn forall<T: Debug>(
    name: &str,
    mut gen: impl FnMut(&mut Gen) -> T,
    mut prop: impl FnMut(&T) -> Result<(), String>,
) {
    // Replay mode: a single, explicitly seeded case.
    if let Ok(v) = std::env::var("TESTKIT_SEED") {
        let seed: u64 = v
            .parse()
            .unwrap_or_else(|_| panic!("bad TESTKIT_SEED '{v}'"));
        run_case(name, seed, &mut gen, &mut prop);
        return;
    }
    let mut master = SimRng::new(fnv1a(name.as_bytes()));
    for _ in 0..case_count() {
        let case_seed = master.next_u64();
        run_case(name, case_seed, &mut gen, &mut prop);
    }
}

/// Runs exactly one case from `case_seed` (the harness's replay path,
/// also handy for pinning a historical counterexample as a unit test).
///
/// # Panics
///
/// Panics if the case fails.
pub fn run_case<T: Debug>(
    name: &str,
    case_seed: u64,
    gen: &mut impl FnMut(&mut Gen) -> T,
    prop: &mut impl FnMut(&T) -> Result<(), String>,
) {
    let mut check = |size: f64| -> Option<(T, String)> {
        let mut g = Gen {
            rng: SimRng::new(case_seed),
            size,
        };
        let value = gen(&mut g);
        match prop(&value) {
            Ok(()) => None,
            Err(msg) => Some((value, msg)),
        }
    };
    let Some((full_value, full_msg)) = check(1.0) else {
        return;
    };
    // Greedy shrink: smallest size budget whose regenerated input still
    // fails wins; otherwise keep the original counterexample.
    let shrunk = SHRINK_SIZES.iter().find_map(|&s| check(s).map(|f| (s, f)));
    let (size, (value, msg)) = shrunk.unwrap_or((1.0, (full_value, full_msg)));
    panic!(
        "property '{name}' failed: {msg}\n\
         counterexample (size budget {size}): {value:#?}\n\
         replay with: TESTKIT_SEED={case_seed} TESTKIT_CASES=1 cargo test {name}"
    );
}

/// FNV-1a, 64-bit: a stable, dependency-free digest. Property names
/// hash to their master seeds with it, and the golden-fingerprint tests
/// pin the hash of each scenario's canonical dump.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fails the enclosing property case when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the enclosing property case when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{} != {}: {:?} vs {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

/// Fails the enclosing property case when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "{} == {}: both {:?}",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        forall(
            "tautology",
            |g| g.int_in(0, 100),
            |_| {
                count += 1;
                Ok(())
            },
        );
        assert_eq!(count, case_count());
    }

    #[test]
    #[should_panic(expected = "replay with: TESTKIT_SEED=")]
    fn failing_property_reports_seed() {
        forall("always_fails", Gen::u8, |_| Err("nope".into()));
    }

    #[test]
    #[should_panic(expected = "size budget 0.05")]
    fn failing_vec_property_shrinks() {
        // Any non-empty vec fails, so shrinking should find the smallest
        // size budget (collections stay non-empty at lo = 1).
        forall(
            "shrinks_to_min_budget",
            |g| g.bytes(1, 400),
            |v: &Vec<u8>| {
                if v.is_empty() {
                    Ok(())
                } else {
                    Err(format!("len {}", v.len()))
                }
            },
        );
    }

    #[test]
    fn generation_is_deterministic_per_name() {
        let collect = |name: &str| {
            let mut vals = Vec::new();
            forall(
                name,
                |g| g.u64(),
                |v| {
                    vals.push(*v);
                    Ok(())
                },
            );
            vals
        };
        assert_eq!(collect("stream_a"), collect("stream_a"));
        assert_ne!(collect("stream_a"), collect("stream_b"));
    }

    #[test]
    fn run_case_is_reproducible() {
        let value_of = |seed: u64| {
            let mut got = None;
            run_case(
                "pin",
                seed,
                &mut |g: &mut Gen| g.bytes(0, 64),
                &mut |v: &Vec<u8>| {
                    got = Some(v.clone());
                    Ok(())
                },
            );
            got.unwrap()
        };
        assert_eq!(value_of(7), value_of(7));
    }

    #[test]
    fn len_in_respects_bounds_at_all_sizes() {
        for &size in &[0.05, 0.5, 1.0] {
            let mut g = Gen::new(3);
            g.size = size;
            for _ in 0..200 {
                let n = g.len_in(2, 40);
                assert!((2..=40).contains(&n), "{n} at size {size}");
            }
        }
    }

    #[test]
    fn choose_and_bounds() {
        let mut g = Gen::new(9);
        for _ in 0..100 {
            assert!([1, 2, 3].contains(&g.choose(&[1, 2, 3])));
            let v = g.int_in(5, 9);
            assert!((5..=9).contains(&v));
        }
    }
}
