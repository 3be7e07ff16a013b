//! Value-generation strategies: ranges, tuples, `prop_map`, unions.

use std::ops::{Range, RangeInclusive};

use crate::test_runner::TestRng;

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value from `rng`.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub(crate) type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
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

/// Weighted choice among strategies of a common value type
/// (built by `prop_oneof!`).
pub struct Union<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Build a union from `(weight, strategy)` pairs.
    pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        let total = options.iter().map(|(w, _)| *w as u64).sum();
        assert!(total > 0, "prop_oneof! weights must not all be zero");
        Union { options, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.gen_range(self.total);
        for (w, s) in &self.options {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weight bookkeeping covered the whole range")
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.gen_range(width) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let width = (hi as u64) - (lo as u64);
                if width == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.gen_range(width + 1) as $t
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.gen_range(width) as i128) as $t
            }
        }
    )+};
}

signed_range_strategy!(i8, i16, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($n:ident $idx:tt),+))+) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TestRng {
        TestRng::for_case("strategy::tests", 0)
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let v = (10u32..20).generate(&mut r);
            assert!((10..20).contains(&v));
            let f = (-1.5f64..2.5).generate(&mut r);
            assert!((-1.5..2.5).contains(&f));
            let i = (5u64..=5).generate(&mut r);
            assert_eq!(i, 5);
        }
    }

    #[test]
    fn map_and_tuple_compose() {
        let mut r = rng();
        let s = (0u32..4, 0u64..8).prop_map(|(a, b)| a as u64 + b);
        for _ in 0..100 {
            assert!(s.generate(&mut r) < 11);
        }
    }

    #[test]
    fn union_honours_weights() {
        let mut r = rng();
        let u = Union::new(vec![(3, Just(1u8).boxed()), (1, Just(2u8).boxed())]);
        let mut ones = 0;
        for _ in 0..1000 {
            if u.generate(&mut r) == 1 {
                ones += 1;
            }
        }
        assert!((600..900).contains(&ones), "got {ones} ones out of 1000");
    }
}
