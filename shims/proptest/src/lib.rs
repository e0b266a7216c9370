//! Offline stand-in for `proptest`: randomized property testing without
//! shrinking. Covers the surface this workspace uses — the `proptest!`
//! macro (with `#![proptest_config]` headers), `prop_assert!` /
//! `prop_assert_eq!` / `prop_assume!`, range and tuple strategies,
//! `collection::vec`, `option::of`, `any::<T>()`, `prop_map` /
//! `prop_flat_map`, and `ProptestConfig::with_cases`.
//!
//! Each property runs `cases` times with values drawn from a
//! deterministic per-test rng (seeded from the test's name), so failures
//! are reproducible run to run. On failure the offending case is
//! reported via panic; there is no shrinking, so the printed values are
//! the raw failing sample.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Controls how many cases each property runs.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful (non-rejected) cases required.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a single test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case was vetoed by `prop_assume!`; it does not count.
    Reject(String),
    /// A `prop_assert!`-style check failed.
    Fail(String),
}

impl TestCaseError {
    /// Builds a rejection (from `prop_assume!`).
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }

    /// Builds a failure (from `prop_assert!` and friends).
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

/// A generator of values of type `Self::Value`.
///
/// Unlike real proptest there is no value tree / shrinking: a strategy
/// is just a seeded sampler.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }

    /// Feeds generated values into a strategy-producing `f` and samples
    /// from the result (for dependent generation).
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { source: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.source.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<T: rand::SampleUniform + Copy> Strategy for core::ops::Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rand::Rng::gen_range(rng, self.clone())
    }
}

impl<T: rand::SampleUniform + Copy> Strategy for core::ops::RangeInclusive<T> {
    type Value = T;

    fn generate(&self, rng: &mut StdRng) -> T {
        rand::Rng::gen_range(rng, self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// Types with a canonical "anything goes" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rand::Rng::gen::<bool>(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rand::Rng::gen::<$t>(rng)
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rand::Rng::gen::<f64>(rng)
    }
}

/// Strategy for the full domain of `A` (via [`Arbitrary`]).
pub fn any<A: Arbitrary>() -> Any<A> {
    Any(core::marker::PhantomData)
}

/// See [`any`].
pub struct Any<A>(core::marker::PhantomData<A>);

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;

    fn generate(&self, rng: &mut StdRng) -> A {
        A::arbitrary(rng)
    }
}

pub mod collection {
    //! Collection strategies (`vec`).
    use super::{StdRng, Strategy};

    /// A size specification: exact, half-open, or inclusive.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_incl: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_incl: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_incl: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_incl: *r.end(),
            }
        }
    }

    /// `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = rand::Rng::gen_range(rng, self.size.lo..=self.size.hi_incl);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.
    use super::{StdRng, Strategy};

    /// `Option<S::Value>`, `Some` three times out of four.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            if rand::Rng::gen_bool(rng, 0.75) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Deterministic per-test rng (FNV-1a of the test name). Macro plumbing;
/// not part of the public proptest API.
#[doc(hidden)]
pub fn __new_rng(test_name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ 0x1234_5678_9abc_def0)
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Declares property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled executions.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::__new_rng(concat!(module_path!(), "::", stringify!($name)));
            let mut passed: u32 = 0;
            let mut attempts: u32 = 0;
            while passed < config.cases {
                attempts += 1;
                if attempts > config.cases.saturating_mul(20).saturating_add(100) {
                    panic!(
                        "proptest {}: too many rejected cases ({} attempts for {} passes)",
                        stringify!($name),
                        attempts,
                        passed
                    );
                }
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                match outcome {
                    ::core::result::Result::Ok(()) => passed += 1,
                    ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed (case {} of {}): {}",
                            stringify!($name),
                            passed + 1,
                            config.cases,
                            msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { cfg = ($cfg); $($rest)* }
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs == *rhs) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($lhs),
                stringify!($rhs),
                lhs,
                rhs
            )));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)*) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs == *rhs) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)*),
                lhs,
                rhs
            )));
        }
    }};
}

/// `assert_ne!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if *lhs == *rhs {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($lhs),
                stringify!($rhs),
                lhs
            )));
        }
    }};
}

/// Vetoes the current case (it is regenerated, not counted as a pass).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn pairs() -> impl Strategy<Value = (u32, u32)> {
        (0u32..100, 0u32..100)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ranges stay in bounds; tuples and maps compose.
        #[test]
        fn ranges_in_bounds((a, b) in pairs(), f in 0.5f64..2.0) {
            prop_assert!(a < 100 && b < 100);
            prop_assert!((0.5..2.0).contains(&f));
        }

        /// Assume rejects without failing.
        #[test]
        fn assume_filters(v in 0usize..10) {
            prop_assume!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0);
        }

        /// Vectors honour their size range; flat_map sees dependent sizes.
        #[test]
        fn vec_sizes(v in crate::collection::vec(0i32..5, 3..7)) {
            prop_assert!((3..7).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (0..5).contains(x)));
        }

        /// option::of produces both variants across a run.
        #[test]
        fn option_of_mixes(vs in crate::collection::vec(crate::option::of(0u64..5), 64)) {
            prop_assert!(vs.iter().any(|o| o.is_some()));
            prop_assert!(vs.iter().any(|o| o.is_none()));
        }
    }

    proptest! {
        /// Default config (no header) also compiles and runs.
        #[test]
        fn flat_map_dependent(pair in (2usize..8).prop_flat_map(|n| {
            crate::collection::vec(0usize..n, n).prop_map(move |v| (n, v))
        })) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&x| x < n));
        }
    }

    #[test]
    #[should_panic(expected = "too many rejected cases")]
    fn starved_assume_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unreachable_code)]
            fn inner(v in 0usize..10) {
                prop_assume!(v > 100);
                let _ = v;
            }
        }
        inner();
    }
}
