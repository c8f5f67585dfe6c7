//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The workspace builds in fully offline environments, so the real
//! crates.io `proptest` cannot be fetched.  This crate implements the subset
//! the workspace's property tests use: the [`proptest!`] macro, integer and
//! float range strategies, [`collection::vec`], [`prop_assert!`],
//! [`prop_assert_eq!`] and [`prop_assume!`], with a deterministic per-test
//! RNG so failures are reproducible.
//!
//! Unlike the real crate there is no shrinking: a failing case reports the
//! case number and the assertion message.
//!
//! # Example
//!
//! ```
//! use proptest::prelude::*;
//!
//! proptest! {
//!     // In a test module this would carry `#[test]`.
//!     fn addition_commutes(a in -100i32..100, b in -100i32..100) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! addition_commutes();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Why a generated test case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case was rejected by [`prop_assume!`]; it does not count towards
    /// the configured number of cases.
    Reject,
    /// A `prop_assert*` failed with the given message.
    Fail(String),
}

/// Runner configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),+ $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )+};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// Strategies over collections.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Lengths accepted by [`vec()`].
    pub trait SizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    /// A strategy producing `Vec`s whose elements come from `element` and
    /// whose length is drawn from `len`.
    #[derive(Debug)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// Generates vectors of values from `element` with lengths in `len`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Builds the deterministic RNG for one property test, seeded from the test
/// name so each test gets an independent but reproducible stream.
pub fn test_rng(test_name: &str) -> StdRng {
    // FNV-1a over the test name: stable across Rust versions, unlike
    // `DefaultHasher`.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h)
}

/// Defines property tests.  See the crate-level example.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $( $(#[$attr:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                let mut accepted: u32 = 0;
                let mut attempts: u64 = 0;
                let max_attempts: u64 = (config.cases as u64) * 20 + 100;
                while accepted < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "proptest `{}`: too many cases rejected by prop_assume!",
                        stringify!($name),
                    );
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)*
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        Ok(()) => accepted += 1,
                        Err($crate::TestCaseError::Reject) => continue,
                        Err($crate::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest `{}` failed on case {}: {}",
                                stringify!($name),
                                accepted,
                                msg,
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// `assert!` that reports through the property-test runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through the property-test runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left != right {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                left,
                right,
            )));
        }
    }};
}

/// Rejects the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::{
        collection, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(a in 0u8..=1, b in -5i32..5, x in -1.0f64..1.0) {
            prop_assert!(a <= 1);
            prop_assert!((-5..5).contains(&b));
            prop_assert!((-1.0..1.0).contains(&x));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn vec_strategy_respects_length(v in collection::vec(0u8..=1, 2..10)) {
            prop_assert!(v.len() >= 2 && v.len() < 10);
            prop_assert!(v.iter().all(|&b| b <= 1));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0usize..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn test_rng_is_deterministic() {
        use rand::Rng;
        let mut a = super::test_rng("x");
        let mut b = super::test_rng("x");
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    proptest! {
        // No #[test] attribute: invoked manually by `failing_property_panics`.
        fn always_fails(_n in 0u8..4) {
            prop_assert!(false, "boom");
        }
    }

    #[test]
    #[should_panic(expected = "failed on case")]
    fn failing_property_panics() {
        always_fails();
    }
}
