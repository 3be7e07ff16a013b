//! Collection strategies: `vec` and `btree_set`.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A size specification for collection strategies (from a `Range<usize>`).
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.gen_range((self.hi - self.lo) as u64) as usize
    }
}

/// Vectors of `size` elements drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Ordered sets of `size` distinct elements drawn from `element`. If the
/// element domain is too small, the set may fall short of the requested
/// minimum after a bounded number of draws (mirrors proptest's rejection
/// cap without its global-reject machinery).
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let n = self.size.pick(rng);
        let mut out = BTreeSet::new();
        let mut attempts = 0usize;
        while out.len() < n && attempts < 64 + 16 * n {
            out.insert(self.element.generate(rng));
            attempts += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sizes_in_range() {
        let mut rng = TestRng::for_case("collection::tests", 0);
        let s = vec(0u32..100, 3..7);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn btree_set_is_distinct_and_sized() {
        let mut rng = TestRng::for_case("collection::tests", 1);
        let s = btree_set(0u64..1000, 5..20);
        for _ in 0..100 {
            let set = s.generate(&mut rng);
            assert!((5..20).contains(&set.len()));
        }
    }
}
