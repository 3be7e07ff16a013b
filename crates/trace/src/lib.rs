//! `tlbdown-trace`: deterministic event tracing and shootdown
//! critical-path analysis.
//!
//! The simulator's counters say *that* an optimization level is faster;
//! this crate says *where the cycles went*. The kernel emits typed
//! [`TraceEvent`]s (IPI sends/deliveries/acks, INVLPGs, full flushes,
//! page walks, cacheline transfers, CSQ traffic, lazy-TLB skips,
//! shootdown phase transitions, fault-plan perturbations) into per-core
//! bounded ring buffers; the [`span`] module reconstructs each
//! shootdown's span tree and attributes its end-to-end latency to five
//! phases — exactly, by construction — and the [`chrome`] module
//! exports the whole trace as Chrome `trace_event` JSON that opens in
//! Perfetto.
//!
//! Determinism is load-bearing (DESIGN.md §13): records are stamped
//! with simulated time and the engine's dispatch count, never host
//! state, and emission never mutates simulation state — a traced run
//! and an untraced run of the same seed produce byte-identical sim
//! metrics, and two traced runs produce byte-identical trace JSON.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod ring;
pub mod span;

pub use chrome::{to_chrome_json, validate_chrome};
pub use event::{AckKind, PerturbKind, SdPhaseKind, SkipKind, TraceEvent, TraceRecord};
pub use ring::{Ring, RingSink};
pub use span::{
    analyze, render_attribution_table, render_phase_diff, Analysis, Phase, PhaseTotals,
    ShootdownSpan,
};

use event::LOCAL_OP_BIT;
use tlbdown_types::{CoreId, Cycles};

/// A captured trace: the merged record stream plus per-core drop
/// counts.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All records in global emission order (sorted by
    /// `TraceRecord::seq`).
    pub records: Vec<TraceRecord>,
    /// Per-core ring-buffer drop counts at capture time.
    pub(crate) dropped: Vec<u64>,
}

impl Trace {
    /// Number of records captured.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the capture holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records dropped across all cores.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }
}

/// The emission front-end the kernel owns: a global sequence counter, a
/// local-operation id allocator, and per-core rings.
///
/// A tracer starts disabled; [`Tracer::enable`] sizes the rings. The
/// disabled fast path is a single branch per emission hook.
#[derive(Clone, Debug)]
pub struct Tracer {
    enabled: bool,
    sink: RingSink,
    seq: u64,
    next_local: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that records nothing until enabled.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            sink: RingSink::new(0, 1),
            seq: 0,
            next_local: 0,
        }
    }

    /// Start recording into `cores` per-core rings of `per_core_cap`
    /// records each.
    pub fn enable(&mut self, cores: usize, per_core_cap: usize) {
        self.sink = RingSink::new(cores, per_core_cap);
        self.enabled = true;
    }

    /// Whether emission is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Emit one event. No-op while disabled.
    pub fn emit(
        &mut self,
        at: Cycles,
        dispatch: u64,
        core: CoreId,
        op: Option<u64>,
        ev: TraceEvent,
    ) {
        if !self.enabled {
            return;
        }
        let rec = TraceRecord {
            seq: self.seq,
            at,
            dispatch,
            core,
            op,
            ev,
        };
        self.seq += 1;
        self.sink.emit(rec);
    }

    /// Allocate an operation id for a shootdown that never registered a
    /// machine-level id (no remote targets). The high bit keeps these
    /// disjoint from real `ShootdownId` values.
    pub fn alloc_local_op(&mut self) -> u64 {
        let id = self.next_local | LOCAL_OP_BIT;
        self.next_local += 1;
        id
    }

    /// Capture and clear the buffered records. Sequence and id counters
    /// keep running, so repeated captures stay globally ordered.
    pub fn take(&mut self) -> Trace {
        Trace {
            dropped: self.sink.dropped_per_core(),
            records: self.sink.drain_merged(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_emits_nothing() {
        let mut t = Tracer::disabled();
        t.emit(Cycles::new(5), 0, CoreId(0), None, TraceEvent::IpiDeliver);
        assert_eq!(t.seq, 0);
        assert!(t.take().is_empty());
    }

    #[test]
    fn emit_take_round_trip_preserves_global_order() {
        let mut t = Tracer::disabled();
        t.enable(2, 16);
        for i in 0..6u64 {
            t.emit(
                Cycles::new(i * 7),
                i,
                CoreId((i % 2) as u32),
                None,
                TraceEvent::CsqDrain { n: i },
            );
        }
        let tr = t.take();
        assert_eq!(tr.len(), 6);
        assert_eq!(
            tr.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        assert_eq!(tr.dropped, vec![0, 0]);
        // A second capture starts empty but keeps the seq counter.
        t.emit(Cycles::ZERO, 9, CoreId(0), None, TraceEvent::IpiDeliver);
        let tr2 = t.take();
        assert_eq!(tr2.records[0].seq, 6);
    }

    #[test]
    fn local_op_ids_have_the_high_bit() {
        let mut t = Tracer::disabled();
        let a = t.alloc_local_op();
        let b = t.alloc_local_op();
        assert_ne!(a, b);
        assert!(a & LOCAL_OP_BIT != 0);
        assert!(b & LOCAL_OP_BIT != 0);
    }
}
