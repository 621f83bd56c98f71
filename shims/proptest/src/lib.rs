//! Minimal, deterministic re-implementation of the `proptest` API surface
//! used by this workspace (see `shims/README.md` for scope and caveats).
//!
//! Each `proptest!`-generated test runs `ProptestConfig::cases` cases with
//! inputs drawn from the given strategies by a SplitMix64 RNG seeded from
//! the test's name (plus the optional `PROPTEST_SEED` environment
//! variable), so failures reproduce exactly. There is no shrinking: a
//! failure reports the generated inputs verbatim.

use std::fmt::Debug;

pub mod test_runner {
    /// Run configuration. Only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is skipped.
        Reject,
        /// A `prop_assert*!` failed.
        Fail(String),
    }

    /// SplitMix64 — tiny, seedable, and statistically fine for test-input
    /// generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        /// Deterministic seed derived from the test name (FNV-1a) and the
        /// optional `PROPTEST_SEED` env var.
        pub fn deterministic(name: &str) -> TestRng {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(extra) = s.parse::<u64>() {
                    h ^= extra.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                }
            }
            TestRng { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Modulo bias is irrelevant at test-generation quality.
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::fmt::Debug;
    use std::ops::Range;

    /// A source of random values. Unlike real proptest there is no value
    /// tree: generation is direct and unshrinkable.
    pub trait Strategy {
        type Value: Debug;
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// `strategy.prop_map(f)`.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            let v = self.start + rng.next_f64() * (self.end - self.start);
            // Guard against rounding up to the exclusive bound.
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    /// Full-range generation for `any::<T>()`.
    pub trait Arbitrary: Debug + Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    /// `any::<T>()` — the full-range strategy for `T`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod bool {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// `prop::bool::ANY`.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::fmt::Debug;
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// `prop::collection::vec(element_strategy, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + rng.below(span.max(1)) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::fmt::Debug;

    /// `prop::sample::select(values)` — uniform choice from a vector.
    pub fn select<T: Clone + Debug>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select from empty vector");
        Select { values }
    }

    #[derive(Debug, Clone)]
    pub struct Select<T> {
        values: Vec<T>,
    }

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.values[rng.below(self.values.len() as u64) as usize].clone()
        }
    }
}

/// The items tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Module-style access (`prop::collection::vec`, `prop::bool::ANY`,
    /// `prop::sample::select`), mirroring the real crate's prelude.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Render one generated binding for a failure report.
pub fn format_binding<T: Debug>(name: &str, value: &T, out: &mut String) {
    use std::fmt::Write;
    let _ = write!(out, "\n    {name} = {value:?}");
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{}\n  left: {:?}\n right: {:?}", format!($($fmt)+), l, r);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "{}\n  both: {:?}", format!($($fmt)+), l);
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// The `proptest! { ... }` block macro: expands every contained function
/// into a `#[test]` that runs `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@funcs ($cfg) $($rest)*);
    };
    (@funcs ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    // Generate all inputs up front so the failure report can
                    // show them even when the body diverges early.
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                    let mut rendered = String::new();
                    $($crate::format_binding(stringify!($arg), &$arg, &mut rendered);)*
                    let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "proptest case {case}/{} failed: {msg}\n  inputs:{rendered}",
                                config.cases
                            );
                        }
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let v = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let f = (-2.0f64..3.0).generate(&mut rng);
            assert!((-2.0..3.0).contains(&f));
            let i = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn collection_vec_sizes() {
        let mut rng = TestRng::from_seed(2);
        for _ in 0..200 {
            let v = prop::collection::vec(0u64..10, 1..5).generate(&mut rng);
            assert!((1..5).contains(&v.len()));
            let exact = prop::collection::vec(0u64..10, 6).generate(&mut rng);
            assert_eq!(exact.len(), 6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_asserts(a in 0u64..100, b in prop::bool::ANY) {
            prop_assume!(a != 99);
            prop_assert!(a < 100, "a = {a}");
            prop_assert_eq!(b as u64 * 2 / 2, b as u64);
            prop_assert_ne!(a + 1, 0);
        }

        #[test]
        fn map_and_select_work(
            g in (1usize..10).prop_map(|n| n * 2),
            pick in prop::sample::select(vec![1i32, 3, 5]),
        ) {
            prop_assert_eq!(g % 2, 0);
            prop_assert!(pick % 2 == 1);
        }
    }
}
