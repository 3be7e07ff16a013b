//! Streaming statistics used by the measurement harness.

use std::collections::BTreeMap;
use std::fmt;

use tlbdown_sweep::Json;
use tlbdown_types::Cycles;

/// Streaming mean and standard deviation (Welford's algorithm).
///
/// The paper reports "the average and standard deviation" over 5 runs of
/// each microbenchmark (§5.1); this is the accumulator behind those columns.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Add one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Add a cycle-valued observation.
    pub fn record_cycles(&mut self, c: Cycles) {
        self.record(c.as_u64() as f64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 with fewer than two observations).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Merge another summary into this one (parallel Welford combination).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} ± {:.1} (n={})",
            self.mean(),
            self.stddev(),
            self.n
        )
    }
}

/// A named set of monotone counters (TLB misses, IPIs sent, ...).
///
/// Counter arithmetic is saturating, never wrapping: at the 10M-op
/// scale tier a release build must not silently wrap a merge total the
/// way unchecked `+=` would (debug builds would panic, release builds
/// would wrap to a small number and corrupt every derived metric). A
/// saturated addition is recorded in an explicit overflow count that
/// surfaces in the JSON rendering as `counter_overflow` — present only
/// when non-zero, so existing renderings are unchanged byte-for-byte.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    counts: BTreeMap<&'static str, u64>,
    overflows: u64,
}

impl Counter {
    /// An empty counter set.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increment `name` by one.
    pub fn bump(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment `name` by `by`, saturating at `u64::MAX` (and counting
    /// the saturation) instead of wrapping in release builds.
    pub fn add(&mut self, name: &'static str, by: u64) {
        let slot = self.counts.entry(name).or_insert(0);
        match slot.checked_add(by) {
            Some(v) => *slot = v,
            None => {
                *slot = u64::MAX;
                self.overflows += 1;
            }
        }
    }

    /// Current value of `name` (0 if never bumped).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }

    /// Add every counter of `other` into this set (sweep-layer reduction
    /// of per-run machines into one aggregate block). Saturations that
    /// `other` already absorbed carry over.
    pub fn merge(&mut self, other: &Counter) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
        self.overflows = self.overflows.saturating_add(other.overflows);
    }

    /// The counters as a canonical [`Json`] object: keys in sorted
    /// (BTreeMap) order, integer values. Counters are deterministic
    /// sim-side state, so the rendering is byte-stable across runs and
    /// thread counts — the `BENCH_*.json` diff relies on that. A
    /// `counter_overflow` key is appended only when a saturation
    /// occurred, so clean runs render exactly as before.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::Obj(
            self.counts
                .iter()
                .map(|(k, v)| ((*k).to_string(), Json::U64(*v)))
                .collect(),
        );
        if self.overflows > 0 {
            obj = obj.with("counter_overflow", Json::U64(self.overflows));
        }
        obj
    }

    /// Compact rendering of [`Counter::to_json`].
    pub fn render_json(&self) -> String {
        self.to_json().render()
    }
}

/// A power-of-two bucketed latency histogram.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering `[0, 2^63)` in 64 log2 buckets.
    pub(crate) fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            total: 0,
        }
    }

    /// Record a value; bucket `i` holds values in `[2^i, 2^(i+1))`
    /// (bucket 0 also holds 0). Counts saturate rather than wrap.
    pub fn record(&mut self, value: u64) {
        let idx = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.total = self.total.saturating_add(1);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// An upper bound on the p-th percentile (0.0–1.0): the exclusive top of
    /// the bucket containing that rank.
    pub fn percentile_ub(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reset every counter to zero.
    fn clear(c: &mut Counter) {
        c.counts.clear();
        c.overflows = 0;
    }

    /// The summary as a compact canonical JSON object. Means and σ are
    /// exact f64s computed from deterministic inputs, and the shared
    /// writer's float policy (whole values as integers, non-finite as
    /// `null`) keeps the rendering byte-stable for identical runs.
    fn render_json(s: &Summary) -> String {
        Json::obj()
            .with("n", Json::U64(s.n))
            .with("mean", Json::F64(s.mean()))
            .with("stddev", Json::F64(s.stddev()))
            .render()
    }
    #[test]
    fn summary_mean_and_stddev() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample stddev of this classic dataset is ~2.138.
        assert!((s.stddev() - 2.1380899).abs() < 1e-6);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i * i % 37) as f64).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..40] {
            a.record(x);
        }
        for &x in &data[40..] {
            b.record(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counter::new();
        c.bump("ipi");
        c.add("ipi", 2);
        c.bump("miss");
        assert_eq!(c.get("ipi"), 3);
        assert_eq!(c.get("miss"), 1);
        assert_eq!(c.get("absent"), 0);
        let all: Vec<_> = c.iter().collect();
        assert_eq!(all, vec![("ipi", 3), ("miss", 1)]);
        clear(&mut c);
        assert_eq!(c.get("ipi"), 0);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        // p50 falls in the [2,4) or [4,8) region → upper bound ≤ 8.
        assert!(h.percentile_ub(0.5) <= 8);
        // p100 covers 1000 → bucket [512,1024) → ub 1024.
        assert_eq!(h.percentile_ub(1.0), 1024);
        assert_eq!(h.buckets[9], 1, "1000 lands in [512, 1024)");
    }

    #[test]
    fn counter_merge_and_json() {
        let mut a = Counter::new();
        a.add("ipis_sent", 3);
        a.bump("shootdown_done");
        let mut b = Counter::new();
        b.add("ipis_sent", 2);
        b.bump("demand_fault");
        a.merge(&b);
        assert_eq!(a.get("ipis_sent"), 5);
        // Keys render sorted (BTreeMap order), values as integers.
        assert_eq!(
            a.render_json(),
            "{\"demand_fault\":1,\"ipis_sent\":5,\"shootdown_done\":1}"
        );
        assert_eq!(Counter::new().render_json(), "{}");
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut c = Counter::new();
        c.add("near_max", u64::MAX - 1);
        c.add("near_max", 5); // would wrap to 3 with unchecked +=
        assert_eq!(c.get("near_max"), u64::MAX);
        assert_eq!(c.overflows, 1);
        assert_eq!(
            c.render_json(),
            format!("{{\"near_max\":{},\"counter_overflow\":1}}", u64::MAX),
        );
        // Merging carries the saturation record along.
        let mut total = Counter::new();
        total.merge(&c);
        assert_eq!(total.overflows, 1);
        assert_eq!(total.get("near_max"), u64::MAX);
        // A clean counter renders with no overflow key at all.
        let mut clean = Counter::new();
        clean.bump("ok");
        assert_eq!(clean.render_json(), "{\"ok\":1}");
        clear(&mut c);
        assert_eq!(c.overflows, 0);
    }

    #[test]
    fn summary_json_is_canonical() {
        let mut s = Summary::new();
        s.record(2.0);
        s.record(4.0);
        assert_eq!(
            render_json(&s),
            "{\"n\":2,\"mean\":3,\"stddev\":1.4142135623730951}"
        );
        assert_eq!(
            render_json(&Summary::new()),
            "{\"n\":0,\"mean\":0,\"stddev\":0}"
        );
    }

    #[test]
    fn histogram_handles_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile_ub(1.0), 2);
    }
}
