//! Structured per-job metrics for the sweep layer.
//!
//! Every sweep job reports a [`JobMetrics`] block: headline sim-side
//! values (simulated cycles, latency means, speedups) plus the full
//! machine counter set (IPIs, shootdowns, flushes — serialized through
//! [`tlbdown_sim::Counter::to_json`]). All of it is *deterministic
//! simulation state*: identical across hosts, thread counts and reruns.
//! `BENCH_*.json` therefore diffs these blocks byte-exactly — any drift
//! is a real behavioural change, not noise — while host wall-clock
//! stays outside, in the non-canonical part of the snapshot.

use std::collections::BTreeMap;

use tlbdown_sim::Counter;
use tlbdown_sweep::Json;

/// The deterministic sim-side metric block of one sweep job.
#[derive(Clone, Debug, Default)]
pub struct JobMetrics {
    /// Headline metrics, canonical (sorted) key order.
    values: BTreeMap<String, Json>,
    /// Machine counters accumulated across the job's runs.
    counters: Counter,
}

impl JobMetrics {
    /// An empty block.
    pub(crate) fn new() -> Self {
        JobMetrics::default()
    }

    /// Record an integer metric.
    pub(crate) fn put_u64(&mut self, key: &str, v: u64) {
        self.values.insert(key.to_string(), Json::U64(v));
    }

    /// Record a float metric (must be finite — these come from
    /// deterministic simulation math).
    pub(crate) fn put_f64(&mut self, key: &str, v: f64) {
        debug_assert!(v.is_finite(), "non-finite metric {key}");
        self.values.insert(key.to_string(), Json::F64(v));
    }

    /// A metric recorded with [`Self::put_f64`] or [`Self::put_u64`].
    pub(crate) fn get_f64(&self, key: &str) -> Option<f64> {
        self.values.get(key).and_then(Json::as_f64)
    }

    /// Merge a machine counter set into the block.
    pub(crate) fn merge_counters(&mut self, c: &Counter) {
        self.counters.merge(c);
    }

    /// The canonical JSON object: headline keys in sorted order, then
    /// the full counter set under `"counters"`.
    pub(crate) fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (k, v) in &self.values {
            obj = obj.with(k, v.clone());
        }
        obj.with("counters", self.counters.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_canonical_and_sorted() {
        let mut m = JobMetrics::new();
        m.put_f64("zeta", 1.5);
        m.put_u64("alpha", 7);
        let mut c = Counter::new();
        c.add("ipis_sent", 3);
        m.merge_counters(&c);
        assert_eq!(
            m.to_json().render(),
            "{\"alpha\":7,\"zeta\":1.5,\"counters\":{\"ipis_sent\":3}}"
        );
        // Whole-valued floats canonicalize to integers.
        let mut w = JobMetrics::new();
        w.put_f64("v", 4.0);
        assert_eq!(w.to_json().render(), "{\"v\":4,\"counters\":{}}");
    }
}
