//! Minimal seeded property-test harness (the in-repo `proptest`
//! replacement).
//!
//! [`crate::prop_cases!`] declares `#[test]` functions whose body runs
//! N times, each with a fresh [`Rng`] seeded from a
//! deterministic per-case seed. On failure the harness reports the
//! exact seed so the case reproduces with
//! `VCU_PROP_SEED=<seed> cargo test <name>`.
//!
//! ```ignore
//! vcu_rng::prop_cases! {
//!     /// Reversal twice is the identity.
//!     #[cases(256)]
//!     fn reverse_round_trips(rng) {
//!         let n = rng.gen_range(0usize..100);
//!         let v: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         assert_eq!(v, w);
//!     }
//! }
//! ```

use crate::{Rng, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Derives the seed for `case` of property `name`: an FNV-1a hash of
/// the property name mixed through SplitMix64 with the case index, so
/// every property explores a distinct but fully deterministic region
/// of seed space.
pub fn case_seed(name: &str, case: u64) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    let mut sm = SplitMix64::new(h ^ case);
    sm.next_u64()
}

/// Runs `body` for `cases` seeded cases, panicking with the failing
/// seed on the first failure. Honors `VCU_PROP_SEED=<u64>` to replay a
/// single reported seed.
pub fn run_cases<F: FnMut(&mut Rng)>(name: &str, cases: u64, mut body: F) {
    if let Ok(s) = std::env::var("VCU_PROP_SEED") {
        let seed: u64 = s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("VCU_PROP_SEED must be a u64, got {s:?}"));
        let mut rng = Rng::seed_from_u64(seed);
        body(&mut rng);
        return;
    }
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut rng = Rng::seed_from_u64(seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        if let Err(cause) = outcome {
            let msg = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "property '{name}' failed at case {case}/{cases} \
                 (replay with VCU_PROP_SEED={seed}):\n  {msg}"
            );
        }
    }
}

/// Declares seeded property tests. Each item becomes a `#[test]` whose
/// body runs `#[cases(N)]` times with a fresh deterministic [`Rng`]
/// bound to the given identifier.
#[macro_export]
macro_rules! prop_cases {
    ($($(#[doc = $doc:expr])* #[cases($n:expr)] fn $name:ident($rng:ident) $body:block)+) => {
        $(
            $(#[doc = $doc])*
            #[test]
            fn $name() {
                $crate::prop::run_cases(stringify!($name), $n, |$rng| $body);
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_stable_and_distinct() {
        assert_eq!(case_seed("foo", 0), case_seed("foo", 0));
        assert_ne!(case_seed("foo", 0), case_seed("foo", 1));
        assert_ne!(case_seed("foo", 0), case_seed("bar", 0));
    }

    #[test]
    fn failing_case_reports_seed() {
        let result = catch_unwind(|| {
            run_cases("always_fails", 3, |_rng| panic!("boom"));
        });
        let err = result.expect_err("must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("VCU_PROP_SEED="), "message: {msg}");
        assert!(msg.contains("boom"), "message: {msg}");
    }

    prop_cases! {
        /// The macro itself wires up and passes a trivial property.
        #[cases(16)]
        fn macro_smoke(rng) {
            let a = rng.gen_range(0u32..100);
            assert!(a < 100);
        }
    }
}
