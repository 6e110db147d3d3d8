//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no reachable crates-io registry, so this
//! local shim provides the subset of proptest the workspace's property
//! tests use: range/tuple/`Just`/`prop_oneof!`/`collection::vec`
//! strategies with `prop_map`/`prop_flat_map`/`prop_recursive`,
//! `any::<bool>()`/`any::<char>()`, the `proptest!` /
//! `prop_assert*!` / `prop_assume!` macros, and a deterministic
//! runner.
//!
//! Deliberate simplifications versus real proptest:
//!
//! * **No shrinking** — a failing case panics with its formatted
//!   message immediately (the workspace's assertions embed the full
//!   history text, which is the useful artifact).
//! * **Seeding is fixed per test name**, so runs are reproducible;
//!   `.proptest-regressions` files are ignored.

#![warn(missing_docs)]

/// Strategy trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng as _;
    use std::ops::Range;
    use std::rc::Rc;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f`
        /// builds out of it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Builds a recursive strategy: `self` generates the leaves and
        /// `recurse` wraps a strategy for smaller values into one for
        /// larger ones, applied `depth` times with a leaf/branch coin
        /// flip per level (the size hints of real proptest are
        /// accepted and ignored).
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let leaf = Rc::new(self);
            let mut strat: BoxedStrategy<Self::Value> = Box::new(Rc::clone(&leaf));
            for _ in 0..depth {
                strat = Box::new(Union::new(vec![
                    Box::new(Rc::clone(&leaf)),
                    Box::new(recurse(strat)),
                ]));
            }
            strat
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy> Strategy for Rc<S> {
        type Value = S::Value;
        fn new_value(&self, rng: &mut TestRng) -> S::Value {
            (**self).new_value(rng)
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            (**self).new_value(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn new_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.new_value(rng)).new_value(rng)
        }
    }

    /// Uniform choice among boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let ix = rng.gen_range(0..self.options.len());
            self.options[ix].new_value(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    macro_rules! tuple_strategy {
        ($($s:ident => $ix:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$ix.new_value(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A => 0);
    tuple_strategy!(A => 0, B => 1);
    tuple_strategy!(A => 0, B => 1, C => 2);
    tuple_strategy!(A => 0, B => 1, C => 2, D => 3);
    tuple_strategy!(A => 0, B => 1, C => 2, D => 3, E => 4);
    tuple_strategy!(A => 0, B => 1, C => 2, D => 3, E => 4, F => 5);
    tuple_strategy!(A => 0, B => 1, C => 2, D => 3, E => 4, F => 5, G => 6);
    tuple_strategy!(A => 0, B => 1, C => 2, D => 3, E => 4, F => 5, G => 6, H => 7);

    /// Any Unicode scalar value (backs `any::<char>()`), weighted so
    /// that short strings routinely mix the classes text codecs treat
    /// differently: C0 controls, printable ASCII, the rest of the BMP
    /// and astral code points.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyChar;

    impl Strategy for AnyChar {
        type Value = char;
        fn new_value(&self, rng: &mut TestRng) -> char {
            let range = match rng.gen_range(0..4u8) {
                0 => 0x00..0x20u32,
                1 => 0x20..0x7f,
                2 => 0x7f..0x1_0000,
                _ => 0x1_0000..0x11_0000,
            };
            loop {
                // Rejects only the surrogate gap.
                if let Some(c) = char::from_u32(rng.gen_range(range.clone())) {
                    return c;
                }
            }
        }
    }

    /// Uniform `bool` (backs `any::<bool>()`).
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.gen_bool(0.5)
        }
    }
}

/// `any::<T>()` support for the types the workspace samples.
pub mod arbitrary {
    use crate::strategy::{AnyBool, AnyChar, Strategy};

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// The canonical strategy for the type.
        type Strategy: Strategy<Value = Self>;
        /// Builds the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    impl Arbitrary for bool {
        type Strategy = AnyBool;
        fn arbitrary() -> AnyBool {
            AnyBool
        }
    }

    impl Arbitrary for char {
        type Strategy = AnyChar;
        fn arbitrary() -> AnyChar {
            AnyChar
        }
    }

    /// The canonical strategy for `A` (`any::<bool>()` etc.).
    pub fn any<A: Arbitrary>() -> A::Strategy {
        A::arbitrary()
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng as _;
    use std::ops::Range;

    /// A strategy for `Vec`s with a length drawn from `size` and
    /// elements from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors; `size` is a half-open length range.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "collection::vec: empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Configuration, error type and the case-driving runner.
pub mod test_runner {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use rand::SeedableRng as _;

    /// The RNG handed to strategies.
    pub type TestRng = rand::rngs::StdRng;

    /// Runner configuration (only `cases` is honored).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the test fails with this message.
        Fail(String),
        /// `prop_assume!` rejected the inputs; the case is retried.
        Reject,
    }

    impl TestCaseError {
        /// Builds a failure with a message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }
    }

    /// Drives the cases of one `proptest!` test function.
    pub struct TestRunner {
        config: ProptestConfig,
        name: &'static str,
    }

    impl TestRunner {
        /// Creates a runner for the named test.
        pub fn new(config: ProptestConfig, name: &'static str) -> TestRunner {
            TestRunner { config, name }
        }

        /// Runs cases until `config.cases` succeed; panics on the
        /// first failure (no shrinking) or when assumptions reject too
        /// many inputs.
        pub fn run<T>(
            &mut self,
            mut gen: impl FnMut(&mut TestRng) -> T,
            mut test: impl FnMut(T) -> Result<(), TestCaseError>,
        ) {
            let mut hasher = DefaultHasher::new();
            self.name.hash(&mut hasher);
            let mut rng = TestRng::seed_from_u64(hasher.finish());
            let mut passed = 0u32;
            let mut rejected = 0u32;
            let max_rejects = self.config.cases.saturating_mul(16).max(1024);
            while passed < self.config.cases {
                match test(gen(&mut rng)) {
                    Ok(()) => passed += 1,
                    Err(TestCaseError::Reject) => {
                        rejected += 1;
                        if rejected > max_rejects {
                            panic!(
                                "proptest {}: too many rejected cases ({rejected}) — \
                                 assumption is unsatisfiable in practice",
                                self.name
                            );
                        }
                    }
                    Err(TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {} failed after {passed} passing case(s): {msg}",
                            self.name
                        );
                    }
                }
            }
        }
    }
}

/// Everything a test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case
/// (not the process) so the runner can report the generated inputs'
/// formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `assert_eq!` for `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), format!($($fmt)*), a, b
        );
    }};
}

/// `assert_ne!` for `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Rejects the current case unless the assumption holds; the runner
/// draws fresh inputs instead of failing.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` block
/// becomes a `#[test]` running `ProptestConfig::cases` generated
/// cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let mut runner = $crate::test_runner::TestRunner::new($cfg, stringify!($name));
            runner.run(
                |__rng| ($($crate::strategy::Strategy::new_value(&($strat), __rng),)+),
                |($($pat,)+)| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(x in 0usize..10, (a, b) in (0u64..5, 0.0f64..1.0)) {
            prop_assert!(x < 10);
            prop_assert!(a < 5, "a = {a}");
            prop_assert!((0.0..1.0).contains(&b));
        }

        #[test]
        fn combinators_compose(v in crate::collection::vec(any::<bool>(), 1..9)) {
            prop_assert!(!v.is_empty() && v.len() < 9);
        }

        #[test]
        fn assume_rejects_gracefully(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    proptest! {
        #[test]
        fn flat_map_and_oneof(
            (n, k) in (1usize..6).prop_flat_map(|n| (Just(n), 0..n)),
            f in prop_oneof![Just(0.0f64), 0.0f64..1.0],
        ) {
            prop_assert!(k < n);
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    proptest! {
        #[test]
        fn chars_cover_every_class_and_recursion_is_bounded(
            s in crate::collection::vec(any::<char>(), 64..65),
            depth in Just(0u32).prop_recursive(3, 8, 2, |inner| inner.prop_map(|d| d + 1)),
        ) {
            prop_assert!(s.iter().any(|c| (*c as u32) < 0x20), "no C0 control in {s:?}");
            prop_assert!(s.iter().any(|c| (*c as u32) >= 0x1_0000), "no astral char in {s:?}");
            prop_assert!(depth <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "failed after")]
    fn failures_panic_with_message() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(8), "always_fails");
        runner.run(|_| (), |()| Err(TestCaseError::fail("boom")));
    }
}
