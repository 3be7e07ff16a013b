//! A vendored, dependency-free stand-in for the `proptest` crate.
//!
//! The container this workspace builds in has no access to crates-io, so
//! the real `proptest` cannot be fetched. This crate implements exactly
//! the API subset the workspace's property tests use — `proptest!`,
//! `prop_assert*`, `prop_oneof!`, `any`, integer/float range strategies,
//! tuples, `prop_map`, and `collection::{vec, btree_set}` — on top of a
//! deterministic SplitMix64 stream, so `cargo test` runs offline and every
//! case is reproducible run-to-run.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! - **No shrinking.** A failing case panics with the generated inputs via
//!   the normal assertion message; there is no minimization pass.
//! - **No failure persistence.** `.proptest-regressions` files are ignored.
//! - **Fixed seeding.** The RNG seed derives from the test's module path,
//!   name and case index, so runs are bit-identical across invocations —
//!   which this repository wants anyway (see `tlbdown-sim`'s determinism
//!   contract).

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Runner configuration: the `cases` knob of real proptest.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases, as real proptest's
    /// `ProptestConfig::with_cases`.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig::with_cases(256)
    }
}

/// The common imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for case in 0..cfg.cases {
                let mut rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case as u64,
                );
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    (($cfg:expr);) => {};
}

/// Assert a condition inside a property (plain `assert!` here: with no
/// shrinking pass there is nothing gentler to do than panic).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Choose among strategies, optionally weighted (`w => strat`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}
