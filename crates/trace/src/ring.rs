//! Bounded per-core ring buffers and the per-core sink over them.
//!
//! Tracing must never change simulated behaviour, so the buffers are
//! bounded and allocation-free on the push path after warm-up: a full
//! ring drops its *oldest* record and counts the drop, rather than
//! growing or blocking. The explicit drop counter lets consumers tell a
//! short trace from a truncated one.

use std::collections::VecDeque;

use crate::event::TraceRecord;

/// A bounded record buffer that drops its oldest entry when full.
#[derive(Clone, Debug)]
pub struct Ring {
    buf: VecDeque<TraceRecord>,
    cap: usize,
    dropped: u64,
}

impl Ring {
    /// A ring holding at most `cap` records (`cap` ≥ 1).
    pub(crate) fn new(cap: usize) -> Ring {
        assert!(cap >= 1, "trace ring capacity must be at least 1");
        Ring {
            buf: VecDeque::with_capacity(cap),
            cap,
            dropped: 0,
        }
    }

    /// Append a record, evicting the oldest one if the ring is full.
    pub(crate) fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Records evicted so far; monotone over the ring's lifetime.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the buffered records, oldest first. The drop counter is
    /// *not* reset — it counts evictions, not reads.
    pub(crate) fn drain(&mut self) -> Vec<TraceRecord> {
        self.buf.drain(..).collect()
    }
}

/// The production sink: one bounded [`Ring`] per core, so one noisy
/// core cannot evict another core's records.
#[derive(Clone, Debug)]
pub struct RingSink {
    rings: Vec<Ring>,
    cap: usize,
}

impl RingSink {
    /// A sink with `cores` rings of `cap` records each.
    pub(crate) fn new(cores: usize, cap: usize) -> RingSink {
        RingSink {
            rings: (0..cores).map(|_| Ring::new(cap)).collect(),
            cap,
        }
    }

    /// Accept one record.
    pub(crate) fn emit(&mut self, rec: TraceRecord) {
        let idx = rec.core.index();
        while self.rings.len() <= idx {
            self.rings.push(Ring::new(self.cap));
        }
        self.rings[idx].push(rec);
    }

    /// Per-core drop counts.
    pub(crate) fn dropped_per_core(&self) -> Vec<u64> {
        self.rings.iter().map(Ring::dropped).collect()
    }

    /// Drain every ring and merge the records back into global emission
    /// order (by `seq` — each ring is already seq-sorted, so this is a
    /// deterministic k-way merge done as one sort).
    pub(crate) fn drain_merged(&mut self) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = Vec::new();
        for r in &mut self.rings {
            all.extend(r.drain());
        }
        all.sort_unstable_by_key(|r| r.seq);
        all
    }
}

#[cfg(test)]
mod tests {
    use tlbdown_types::{CoreId, Cycles};

    use super::*;
    use crate::event::TraceEvent;

    fn rec(seq: u64, core: u32) -> TraceRecord {
        TraceRecord {
            seq,
            at: Cycles::new(seq * 10),
            dispatch: seq,
            core: CoreId(core),
            op: None,
            ev: TraceEvent::IpiDeliver,
        }
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut r = Ring::new(3);
        for s in 0..5 {
            r.push(rec(s, 0));
        }
        assert_eq!(r.buf.len(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.buf.iter().map(|x| x.seq).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest records are the ones evicted");
    }

    #[test]
    fn drop_counter_is_monotone_across_drains() {
        let mut r = Ring::new(2);
        for s in 0..4 {
            r.push(rec(s, 0));
        }
        assert_eq!(r.dropped(), 2);
        let drained = r.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(r.dropped(), 2, "draining does not reset the counter");
        for s in 4..9 {
            r.push(rec(s, 0));
        }
        assert_eq!(r.dropped(), 5);
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut r = Ring::new(1);
        r.push(rec(0, 0));
        r.push(rec(1, 0));
        r.push(rec(2, 0));
        assert_eq!(r.buf.len(), 1);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.buf.iter().next().unwrap().seq, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn capacity_zero_is_rejected() {
        let _ = Ring::new(0);
    }

    #[test]
    fn ring_sink_routes_by_core_and_merges_by_seq() {
        let mut s = RingSink::new(2, 8);
        s.emit(rec(0, 1));
        s.emit(rec(1, 0));
        s.emit(rec(2, 1));
        // A core beyond the initial sizing grows the sink rather than
        // panicking or silently dropping.
        s.emit(rec(3, 5));
        let merged = s.drain_merged();
        assert_eq!(
            merged.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(s.dropped_per_core().iter().sum::<u64>(), 0);
    }

    #[test]
    fn per_core_isolation_under_overflow() {
        let mut s = RingSink::new(2, 2);
        // Core 0 is noisy; core 1 emits two records.
        for seq in 0..10 {
            s.emit(rec(seq, 0));
        }
        s.emit(rec(10, 1));
        s.emit(rec(11, 1));
        let dropped = s.dropped_per_core();
        assert_eq!(dropped, vec![8, 0], "core 1 lost nothing to core 0");
        let merged = s.drain_merged();
        assert!(merged.iter().any(|r| r.seq == 10));
        assert!(merged.iter().any(|r| r.seq == 11));
    }
}
