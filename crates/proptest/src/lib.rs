//! A vendored, dependency-free subset of the `proptest` API — the
//! surface the workspace property tests use: [`Strategy`] with
//! `prop_map` / `prop_recursive` / `boxed`, range and tuple strategies,
//! [`Just`], `any::<T>()`, a tiny regex-pattern string strategy, the
//! [`collection`] builders, and the `proptest!` / `prop_assert*` /
//! `prop_oneof!` macros.
//!
//! Generation is purely random (SplitMix64, seeded per test from the
//! test name) with **no shrinking**: a failing case panics with the
//! case number and message. Determinism per test name keeps failures
//! reproducible across runs. `PROPTEST_CASES=<n>` in the environment
//! overrides every property's case count (e.g. a deep CI run).

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

/// The deterministic random source handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed deterministically from an arbitrary label (the test name).
    pub fn deterministic(label: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// The next 64 random bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erase behind a cheaply clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// Build a recursive strategy: `self` is the leaf case, `branch`
    /// wraps an inner strategy into composite cases, and `depth` bounds
    /// the nesting. (`_size`/`_branching` are accepted for upstream
    /// signature compatibility; nesting depth is the effective bound.)
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _size: u32,
        _branching: u32,
        branch: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth.max(1) {
            let deeper = branch(current).boxed();
            current = BoxedStrategy::weighted_union(vec![(1, leaf.clone()), (3, deeper)]);
        }
        current
    }
}

/// Object-safe bridge used by [`BoxedStrategy`].
trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, cheaply clonable strategy handle.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

impl<T: 'static> BoxedStrategy<T> {
    /// Choose among `arms` with the given relative weights, then
    /// generate from the chosen arm.
    pub fn weighted_union(arms: Vec<(u32, BoxedStrategy<T>)>) -> BoxedStrategy<T> {
        assert!(!arms.is_empty(), "union of zero strategies");
        Union { arms }.boxed()
    }
}

struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut target = rng.next_u64() % total.max(1);
        for (w, arm) in &self.arms {
            let w = u64::from(*w);
            if target < w {
                return arm.generate(rng);
            }
            target -= w;
        }
        self.arms.last().expect("non-empty").1.generate(rng)
    }
}

/// The mapped strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(
                    self.start < self.end,
                    "cannot sample empty range {}..{}",
                    self.start,
                    self.end
                );
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128) % span;
                (self.start as i128 + offset as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical strategy, used through [`any`].
pub trait Arbitrary: Sized {
    /// Generate an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ---------------------------------------------------------------------
// Regex-pattern string strategy (`"[ab]{1,2}"` style patterns).
// ---------------------------------------------------------------------

enum PatternAtom {
    Literal(char),
    Class(Vec<char>),
}

struct PatternPiece {
    atom: PatternAtom,
    min: usize,
    max: usize,
}

fn parse_pattern(pattern: &str) -> Vec<PatternPiece> {
    let mut chars = pattern.chars().peekable();
    let mut pieces = Vec::new();
    while let Some(c) = chars.next() {
        let atom = match c {
            '[' => {
                let mut class = Vec::new();
                let mut prev: Option<char> = None;
                for d in chars.by_ref() {
                    match d {
                        ']' => break,
                        '-' => {
                            // Range like `a-z`: expand using the previous
                            // char and the next one.
                            prev = Some('-');
                            class.push('-');
                        }
                        d => {
                            if prev == Some('-') && class.len() >= 2 {
                                let lo = class[class.len() - 2];
                                class.truncate(class.len() - 2);
                                let mut ch = lo;
                                while ch <= d {
                                    class.push(ch);
                                    ch = char::from_u32(ch as u32 + 1).unwrap_or(char::MAX);
                                    if ch == char::MAX {
                                        break;
                                    }
                                }
                            } else {
                                class.push(d);
                            }
                            prev = Some(d);
                        }
                    }
                }
                PatternAtom::Class(class)
            }
            '\\' => PatternAtom::Literal(chars.next().unwrap_or('\\')),
            c => PatternAtom::Literal(c),
        };
        // Optional quantifier.
        let (min, max) = match chars.peek() {
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for d in chars.by_ref() {
                    if d == '}' {
                        break;
                    }
                    spec.push(d);
                }
                if let Some((lo, hi)) = spec.split_once(',') {
                    let lo = lo.trim().parse().unwrap_or(0);
                    let hi = hi.trim().parse().unwrap_or(lo.max(1));
                    (lo, hi)
                } else {
                    let n = spec.trim().parse().unwrap_or(1);
                    (n, n)
                }
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            Some('*') => {
                chars.next();
                (0, 4)
            }
            Some('+') => {
                chars.next();
                (1, 4)
            }
            _ => (1, 1),
        };
        pieces.push(PatternPiece { atom, min, max });
    }
    pieces
}

impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse_pattern(self) {
            let n = piece.min + rng.below(piece.max - piece.min + 1);
            for _ in 0..n {
                match &piece.atom {
                    PatternAtom::Literal(c) => out.push(*c),
                    PatternAtom::Class(class) => {
                        if !class.is_empty() {
                            out.push(class[rng.below(class.len())]);
                        }
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Collection strategies.
// ---------------------------------------------------------------------

/// Collection-size specifications (`0..8`, `0..=8`, or an exact size).
pub trait SizeRange {
    /// Inclusive `(min, max)` bounds.
    fn bounds(&self) -> (usize, usize);
}

impl SizeRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        (self.start, self.end.saturating_sub(1))
    }
}

impl SizeRange for std::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

impl SizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

/// Strategies over standard collections.
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};
    use std::collections::BTreeSet;

    /// The strategy returned by [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    /// A `Vec` with length drawn from `size` and elements from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl SizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { elem, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.min + rng.below(self.max - self.min + 1);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// The strategy returned by [`btree_set`].
    #[derive(Clone)]
    pub struct BTreeSetStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    /// A `BTreeSet` with size drawn from `size`. Duplicate draws are
    /// retried a bounded number of times, so small element domains may
    /// yield sets below the requested minimum — matching how the tests
    /// use it (minimum 0 everywhere).
    pub fn btree_set<S>(elem: S, size: impl SizeRange) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        let (min, max) = size.bounds();
        BTreeSetStrategy { elem, min, max }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.min + rng.below(self.max - self.min + 1);
            let mut out = BTreeSet::new();
            let mut attempts = 0;
            while out.len() < target && attempts < target * 10 + 16 {
                out.insert(self.elem.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub use collection::{btree_set, vec};

// ---------------------------------------------------------------------
// Runner configuration and failure reporting.
// ---------------------------------------------------------------------

/// Runner configuration (`cases` is the only knob the tests use; the
/// `PROPTEST_CASES` environment variable overrides it).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A test-case failure (from `prop_assert*` or `TestCaseError::fail`).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Fail the current case with a message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// The case count `PROPTEST_CASES` asks for, if set: a positive integer
/// that replaces every property's own `cases`, so CI can run deep and
/// local runs shallow. A set but malformed value panics rather than
/// silently running the default.
fn cases_override(var: Option<&str>) -> Option<u32> {
    let v = var?;
    match v.trim().parse::<u32>() {
        Ok(n) if n > 0 => Some(n),
        _ => panic!("PROPTEST_CASES must be a positive integer, got {v:?}"),
    }
}

#[doc(hidden)]
pub fn run_property<F>(name: &str, cfg: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng, u32) -> Result<(), TestCaseError>,
{
    let mut rng = TestRng::deterministic(name);
    let cases =
        cases_override(std::env::var("PROPTEST_CASES").ok().as_deref()).unwrap_or(cfg.cases);
    for i in 0..cases {
        if let Err(e) = case(&mut rng, i) {
            panic!("property `{name}` failed at case {i}/{cases}: {e}");
        }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

// ---------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------

/// Choose uniformly among several strategies for the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::BoxedStrategy::weighted_union(vec![
            $((1u32, $crate::Strategy::boxed($arm))),+
        ])
    };
}

/// Assert within a property; failure aborts the case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert equality within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                l,
                r,
                format!($($fmt)+),
            )));
        }
    }};
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                $crate::run_property(stringify!($name), &cfg, |rng, _case| {
                    $(let $arg = $crate::Strategy::generate(&($strategy), rng);)*
                    $body
                    ::std::result::Result::Ok(())
                });
            }
        )*
    };
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = crate::TestRng::deterministic("bounds");
        let s = (0u32..5, -6i64..6, 1usize..4);
        for _ in 0..200 {
            let (a, b, c) = s.generate(&mut rng);
            assert!(a < 5);
            assert!((-6..6).contains(&b));
            assert!((1..4).contains(&c));
        }
    }

    #[test]
    fn union_covers_all_arms() {
        let mut rng = crate::TestRng::deterministic("union");
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let seen: BTreeSet<u8> = (0..100).map(|_| s.generate(&mut rng)).collect();
        assert_eq!(seen, BTreeSet::from([1, 2, 3]));
    }

    #[test]
    fn recursion_terminates_and_nests() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf,
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf => 0,
                Tree::Node(l, r) => 1 + depth(l).max(depth(r)),
            }
        }
        let strat = Just(Tree::Leaf).prop_recursive(3, 20, 2, |inner| {
            (inner.clone(), inner).prop_map(|(l, r)| Tree::Node(Box::new(l), Box::new(r)))
        });
        let mut rng = crate::TestRng::deterministic("trees");
        let mut max_depth = 0;
        for _ in 0..300 {
            max_depth = max_depth.max(depth(&strat.generate(&mut rng)));
        }
        assert!(max_depth >= 2, "recursion never nested: {max_depth}");
        assert!(
            max_depth <= 3,
            "recursion exceeded depth bound: {max_depth}"
        );
    }

    #[test]
    fn pattern_strategy_matches_shape() {
        let mut rng = crate::TestRng::deterministic("patterns");
        let s: &'static str = "[ab]{1,2}";
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(
                (1..=2).contains(&v.len()) && v.chars().all(|c| c == 'a' || c == 'b'),
                "{v:?}"
            );
        }
    }

    #[test]
    fn collections_respect_size_bounds() {
        let mut rng = crate::TestRng::deterministic("collections");
        let v = crate::collection::vec(0u32..10, 2..5);
        let s = crate::collection::btree_set(0u32..100, 0..=6);
        for _ in 0..100 {
            let xs = v.generate(&mut rng);
            assert!((2..=4).contains(&xs.len()), "{xs:?}");
            let set = s.generate(&mut rng);
            assert!(set.len() <= 6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: args bind, prop_assert_eq works, `?` works.
        #[test]
        fn macro_smoke(x in 0u32..10, y in 0u32..10) {
            let sum = x + y;
            prop_assert!(sum < 20, "sum {} out of range", sum);
            prop_assert_eq!(sum, y + x);
            let parsed: u32 = sum
                .to_string()
                .parse()
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            prop_assert_eq!(parsed, sum);
        }
    }

    #[test]
    fn case_override_reads_positive_integers_only() {
        assert_eq!(crate::cases_override(None), None);
        assert_eq!(crate::cases_override(Some("4096")), Some(4096));
        assert_eq!(crate::cases_override(Some(" 7\n")), Some(7));
        for bad in ["0", "-1", "many", ""] {
            let caught = std::panic::catch_unwind(|| crate::cases_override(Some(bad)));
            assert!(caught.is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        crate::run_property(
            "always_fails",
            &ProptestConfig::with_cases(5),
            |_rng, _case| Err(TestCaseError::fail("boom")),
        );
    }
}
