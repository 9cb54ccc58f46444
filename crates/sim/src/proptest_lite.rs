//! A deterministic property-test harness.
//!
//! Each property runs a fixed number of cases. Case inputs are drawn from
//! a [`SimRng`] stream derived from the property's name and the case
//! index, so a test failure is reproducible *by construction*: the
//! failure report prints the case seed, and setting `STELLAR_PT_SEED` to
//! that value re-runs exactly the failing case.
//!
//! ```text
//! proptest_lite: property 'routes_are_well_formed' failed at case 17/64
//! (seed 0x3a738775a6da5a01); replay with STELLAR_PT_SEED=0x3a738775a6da5a01
//! ```
//!
//! Unlike proptest there is no shrinking: cases stay small instead
//! (prefer many small cases over few large ones), and the seed replay
//! makes a debugger or `dbg!` session cheap.
//!
//! ```
//! use stellar_sim::proptest_lite::check;
//!
//! check("reverse_is_involutive", 64, |g| {
//!     let v = g.vec(0, 20, |g| g.u64(0, 100));
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(v, w);
//! });
//! ```

use crate::SimRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Per-case input generator: a thin layer of range/collection helpers
/// over a seeded [`SimRng`].
#[derive(Debug)]
pub struct Gen {
    rng: SimRng,
}

impl Gen {
    /// A generator for one case.
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: SimRng::from_seed(seed),
        }
    }

    /// The underlying stream, for properties that need raw draws.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.range(lo, hi)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.range(lo as u64, hi as u64) as u32
    }

    /// Uniform `u8` in `[lo, hi)`.
    pub fn u8(&mut self, lo: u8, hi: u8) -> u8 {
        self.rng.range(lo as u64, hi as u64) as u8
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.range(lo as u64, hi as u64) as usize
    }

    /// Fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.rng.chance(0.5)
    }

    /// A vector with a uniform length in `[min_len, max_len)` whose
    /// elements come from `f`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize(min_len, max_len);
        (0..n).map(|_| f(self)).collect()
    }

    /// Uniformly pick one element of a slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        self.rng.choice(items)
    }
}

/// Seed for case `i` of the named property (FNV-1a over the name, mixed
/// with the index via SplitMix64's finalizer).
fn case_seed(name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    let mut z = h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn replay_seed() -> Option<u64> {
    let raw = std::env::var("STELLAR_PT_SEED").ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => panic!("STELLAR_PT_SEED is set but not a u64: {raw:?}"),
    }
}

/// Run `cases` randomized cases of a property.
///
/// Cases run in parallel on the [`par`](crate::par) work pool (each case
/// already has its own seed-derived [`Gen`], so cases are independent by
/// construction), which is why the property must be `Fn + Sync` rather
/// than `FnMut`. Failure reporting stays deterministic regardless of
/// scheduling: every case runs, and the harness reports — and re-raises
/// the panic of — the *lowest-index* failing case, exactly the case a
/// sequential run would have stopped on. The report prints the case seed;
/// setting `STELLAR_PT_SEED` to that value re-runs exactly the failing
/// case, single-threaded, as before.
pub fn check(name: &str, cases: u32, property: impl Fn(&mut Gen) + Sync) {
    if let Some(seed) = replay_seed() {
        eprintln!("proptest_lite: replaying '{name}' with seed {seed:#x}");
        property(&mut Gen::from_seed(seed));
        return;
    }
    let indices: Vec<u64> = (0..cases as u64).collect();
    let failures = crate::par::par_map(&indices, |&case| {
        let seed = case_seed(name, case);
        catch_unwind(AssertUnwindSafe(|| {
            property(&mut Gen::from_seed(seed));
        }))
        .err()
        .map(|panic| (seed, panic))
    });
    for (case, failure) in failures.into_iter().enumerate() {
        if let Some((seed, panic)) = failure {
            eprintln!(
                "proptest_lite: property '{name}' failed at case {case}/{cases} \
                 (seed {seed:#x}); replay with STELLAR_PT_SEED={seed:#x}"
            );
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_a_true_property() {
        check("addition_commutes", 50, |g| {
            let a = g.u64(0, 1 << 30);
            let b = g.u64(0, 1 << 30);
            assert_eq!(a + b, b + a);
        });
    }

    #[test]
    fn case_seeds_are_stable_and_distinct() {
        assert_eq!(case_seed("p", 0), case_seed("p", 0));
        assert_ne!(case_seed("p", 0), case_seed("p", 1));
        assert_ne!(case_seed("p", 0), case_seed("q", 0));
    }

    #[test]
    fn failing_property_panics() {
        let failed = catch_unwind(AssertUnwindSafe(|| {
            check("always_fails", 5, |_| panic!("nope"));
        }));
        assert!(failed.is_err());
    }

    #[test]
    fn vec_respects_bounds() {
        check("vec_bounds", 50, |g| {
            let v = g.vec(2, 10, |g| g.u8(0, 5));
            assert!((2..10).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        });
    }
}
