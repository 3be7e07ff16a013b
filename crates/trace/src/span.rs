//! Span-tree reconstruction and critical-path phase attribution.
//!
//! The initiator emits a phase record at *entry* into each shootdown
//! stage and a single completion record carrying the final
//! synchronization cost. Consecutive entry marks therefore partition
//! the initiator's timeline exactly: stage `S`'s window runs from its
//! entry mark to the next stage's entry mark (or to the completion
//! record), with no gaps and no overlap. That is what makes the
//! headline guarantee cheap to uphold — **per-phase attribution sums to
//! the end-to-end latency by construction**, for every shootdown, at
//! every optimization level.
//!
//! The five reported phases follow the paper's decomposition:
//!
//! - **initiator setup** — target computation plus the initiator's own
//!   kernel/user flush work (`Prep`, `LocalFlush`, `UserFlush`),
//! - **ipi in-flight** — CSD enqueue and ICR writes (`SendIpis`),
//! - **remote flush** — the part of the wait window before the last
//!   acknowledgement arrived (responders were still flushing),
//! - **ack wait** — the rest of the wait window (the initiator noticing
//!   the already-arrived final ack),
//! - **sync overhead** — the final acknowledgement poll, one CFD-line
//!   pull per target.

use std::collections::BTreeMap;

use tlbdown_types::{CoreId, Cycles};

use crate::event::{AckKind, SdPhaseKind, TraceEvent, LOCAL_OP_BIT};
use crate::Trace;

/// The five attribution phases, in presentation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Target computation + the initiator's local flush work.
    Setup,
    /// CSD enqueue + ICR writes.
    IpiInFlight,
    /// Waiting while responders still flush.
    RemoteFlush,
    /// Waiting after the final ack already arrived.
    AckWait,
    /// The final acknowledgement poll.
    Sync,
}

impl Phase {
    /// All phases, in presentation order.
    pub(crate) const ALL: [Phase; 5] = [
        Phase::Setup,
        Phase::IpiInFlight,
        Phase::RemoteFlush,
        Phase::AckWait,
        Phase::Sync,
    ];

    /// Paper-style row label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Phase::Setup => "initiator setup",
            Phase::IpiInFlight => "ipi in-flight",
            Phase::RemoteFlush => "remote flush",
            Phase::AckWait => "ack wait",
            Phase::Sync => "sync overhead",
        }
    }

    /// Index into per-span / aggregate phase arrays.
    pub fn idx(self) -> usize {
        match self {
            Phase::Setup => 0,
            Phase::IpiInFlight => 1,
            Phase::RemoteFlush => 2,
            Phase::AckWait => 3,
            Phase::Sync => 4,
        }
    }
}

/// One reconstructed shootdown: its timeline, stage windows, remote
/// legs, and the exact phase attribution.
#[derive(Clone, Debug)]
pub struct ShootdownSpan {
    /// Operation id ([`LOCAL_OP_BIT`] set for local-only flushes).
    pub op: u64,
    /// The initiating core.
    pub(crate) initiator: CoreId,
    /// Entry into `Prep` — the start of the operation.
    pub(crate) start: Cycles,
    /// Completion including the final sync poll.
    pub(crate) end: Cycles,
    /// Stage-entry marks, in time order (the span's children).
    pub(crate) marks: Vec<(SdPhaseKind, Cycles)>,
    /// Acknowledgements observed for this operation: responder, time,
    /// and early/late/forced.
    pub acks: Vec<(CoreId, Cycles, AckKind)>,
    /// IPIs sent for this operation.
    pub(crate) ipis: u64,
    /// Cycles attributed to each [`Phase`], indexed by [`Phase::idx`].
    /// Sums exactly to `end - start`.
    pub phases: [u64; 5],
}

impl ShootdownSpan {
    /// End-to-end latency in cycles.
    pub fn end_to_end(&self) -> u64 {
        self.end.as_u64() - self.start.as_u64()
    }

    /// Sum of the per-phase attribution (equals [`Self::end_to_end`]).
    pub fn phase_sum(&self) -> u64 {
        self.phases.iter().sum()
    }

    /// Whether this operation never involved remote cores.
    pub fn is_local_only(&self) -> bool {
        self.op & LOCAL_OP_BIT != 0
    }
}

/// The result of reconstructing a trace.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Completed shootdown spans, ordered by start time (then op id).
    pub spans: Vec<ShootdownSpan>,
    /// Operations that had phase records but no completion record
    /// (truncated by ring overflow, or still in flight at capture).
    pub incomplete: u64,
}

struct SpanBuilder {
    initiator: CoreId,
    marks: Vec<(SdPhaseKind, Cycles)>,
    acks: Vec<(CoreId, Cycles, AckKind)>,
    ipis: u64,
}

/// Reconstruct every shootdown span in `trace`.
///
/// Records are processed in global emission order; concurrent and
/// interleaved operations are separated by their operation id, so an
/// initiator on core 0 and one on core 2 can overlap arbitrarily.
pub fn analyze(trace: &Trace) -> Analysis {
    let mut building: BTreeMap<u64, SpanBuilder> = BTreeMap::new();
    let mut spans: Vec<ShootdownSpan> = Vec::new();
    let mut incomplete = 0u64;
    for rec in &trace.records {
        let Some(op) = rec.op else { continue };
        match rec.ev {
            TraceEvent::SdPhase { phase } => {
                let b = building.entry(op).or_insert_with(|| SpanBuilder {
                    initiator: rec.core,
                    marks: Vec::new(),
                    acks: Vec::new(),
                    ipis: 0,
                });
                b.marks.push((phase, rec.at));
            }
            TraceEvent::IpiSend { .. } => {
                if let Some(b) = building.get_mut(&op) {
                    b.ipis += 1;
                }
            }
            TraceEvent::IpiAck { kind, by } => {
                if let Some(b) = building.get_mut(&op) {
                    b.acks.push((by, rec.at, kind));
                }
            }
            TraceEvent::SdDone { sync } => {
                let Some(b) = building.remove(&op) else {
                    incomplete += 1;
                    continue;
                };
                if let Some(span) = finish(op, b, rec.at, sync) {
                    spans.push(span);
                } else {
                    incomplete += 1;
                }
            }
            _ => {}
        }
    }
    incomplete += building.len() as u64;
    spans.sort_by_key(|s| (s.start, s.op));
    Analysis { spans, incomplete }
}

/// Close a span: turn entry marks into exact windows and attribute them.
fn finish(op: u64, b: SpanBuilder, done_at: Cycles, sync: Cycles) -> Option<ShootdownSpan> {
    let first = b.marks.first()?;
    let start = first.1;
    let end = done_at + sync;
    let mut phases = [0u64; 5];
    for (i, (kind, at)) in b.marks.iter().enumerate() {
        let window_end = b.marks.get(i + 1).map(|m| m.1).unwrap_or(done_at);
        let window = window_end.as_u64().saturating_sub(at.as_u64());
        match kind {
            SdPhaseKind::Prep | SdPhaseKind::LocalFlush | SdPhaseKind::UserFlush => {
                phases[Phase::Setup.idx()] += window;
            }
            SdPhaseKind::SendIpis => phases[Phase::IpiInFlight.idx()] += window,
            SdPhaseKind::Wait => {
                // Split the wait window at the final acknowledgement:
                // before it, responders were still flushing; after it,
                // the initiator was merely noticing.
                let wait_start = at.as_u64();
                let last_ack = b.acks.iter().map(|(_, t, _)| t.as_u64()).max();
                let split = last_ack
                    .unwrap_or(wait_start)
                    .clamp(wait_start, window_end.as_u64());
                phases[Phase::RemoteFlush.idx()] += split - wait_start;
                phases[Phase::AckWait.idx()] += window_end.as_u64() - split;
            }
        }
    }
    phases[Phase::Sync.idx()] += sync.as_u64();
    Some(ShootdownSpan {
        op,
        initiator: b.initiator,
        start,
        end,
        marks: b.marks,
        acks: b.acks,
        ipis: b.ipis,
        phases,
    })
}

/// Per-phase totals over a set of spans (one column of the paper-style
/// attribution table).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotals {
    /// Spans accumulated.
    pub shootdowns: u64,
    /// Total cycles per phase, indexed by [`Phase::idx`].
    pub cycles: [u64; 5],
}

impl PhaseTotals {
    /// Totals over the spans of `a`. With `remote_only`, local-only
    /// flushes (no IPIs, no waiting) are excluded so they do not dilute
    /// the shootdown critical path.
    pub fn of(a: &Analysis, remote_only: bool) -> PhaseTotals {
        let mut t = PhaseTotals::default();
        for s in &a.spans {
            if remote_only && s.is_local_only() {
                continue;
            }
            t.shootdowns += 1;
            for (acc, v) in t.cycles.iter_mut().zip(s.phases.iter()) {
                *acc += v;
            }
        }
        t
    }

    /// Total cycles across all phases.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Mean cycles per shootdown for one phase.
    pub(crate) fn mean(&self, p: Phase) -> f64 {
        if self.shootdowns == 0 {
            0.0
        } else {
            self.cycles[p.idx()] as f64 / self.shootdowns as f64
        }
    }

    /// Mean end-to-end cycles per shootdown.
    pub fn mean_total(&self) -> f64 {
        if self.shootdowns == 0 {
            0.0
        } else {
            self.total_cycles() as f64 / self.shootdowns as f64
        }
    }
}

/// Render the paper-style "where did the cycles go" table: one column
/// per configuration, mean cycles per shootdown for each phase.
pub fn render_attribution_table(cols: &[(String, PhaseTotals)]) -> String {
    use std::fmt::Write as _;
    let label_w = 16usize;
    let col_w = cols
        .iter()
        .map(|(name, _)| name.len().max(10))
        .collect::<Vec<_>>();
    let mut out = String::new();
    let _ = write!(out, "{:<label_w$}", "phase");
    for ((name, _), w) in cols.iter().zip(&col_w) {
        let _ = write!(out, "  {name:>w$}");
    }
    out.push('\n');
    for p in Phase::ALL {
        let _ = write!(out, "{:<label_w$}", p.label());
        for ((_, t), w) in cols.iter().zip(&col_w) {
            let _ = write!(out, "  {:>w$.1}", t.mean(p));
        }
        out.push('\n');
    }
    let _ = write!(out, "{:<label_w$}", "end-to-end");
    for ((_, t), w) in cols.iter().zip(&col_w) {
        let _ = write!(out, "  {:>w$.1}", t.mean_total());
    }
    out.push('\n');
    let _ = write!(out, "{:<label_w$}", "shootdowns");
    for ((_, t), w) in cols.iter().zip(&col_w) {
        let _ = write!(out, "  {:>w$}", t.shootdowns);
    }
    out.push('\n');
    out
}

/// Render a per-phase diff between two configurations: where the cycles
/// moved between `a` and `b`.
pub fn render_phase_diff(a: &(String, PhaseTotals), b: &(String, PhaseTotals)) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:<16}{:>12}{:>12}{:>12}", "phase", a.0, b.0, "delta");
    let mut rows: Vec<(&str, f64, f64)> = Phase::ALL
        .iter()
        .map(|p| (p.label(), a.1.mean(*p), b.1.mean(*p)))
        .collect();
    rows.push(("end-to-end", a.1.mean_total(), b.1.mean_total()));
    for (label, va, vb) in rows {
        let _ = writeln!(out, "{label:<16}{va:>12.1}{vb:>12.1}{:>+12.1}", vb - va);
    }
    out
}

#[cfg(test)]
mod tests {
    use tlbdown_types::{CoreId, Cycles};

    use super::*;
    use crate::event::{TraceEvent, TraceRecord};

    /// Hand-build a record stream (no kernel involved).
    struct Stream {
        recs: Vec<TraceRecord>,
    }

    impl Stream {
        fn new() -> Stream {
            Stream { recs: Vec::new() }
        }

        fn push(&mut self, at: u64, core: u32, op: u64, ev: TraceEvent) -> &mut Self {
            let seq = self.recs.len() as u64;
            self.recs.push(TraceRecord {
                seq,
                at: Cycles::new(at),
                dispatch: seq,
                core: CoreId(core),
                op: Some(op),
                ev,
            });
            self
        }

        fn trace(self) -> Trace {
            Trace {
                records: self.recs,
                dropped: vec![0],
            }
        }
    }

    fn phase(p: SdPhaseKind) -> TraceEvent {
        TraceEvent::SdPhase { phase: p }
    }

    #[test]
    fn single_span_partitions_exactly() {
        let mut s = Stream::new();
        s.push(1000, 0, 7, phase(SdPhaseKind::Prep))
            .push(1100, 0, 7, phase(SdPhaseKind::SendIpis))
            .push(1300, 0, 7, TraceEvent::IpiSend { to: CoreId(1) })
            .push(1300, 0, 7, phase(SdPhaseKind::LocalFlush))
            .push(1500, 0, 7, phase(SdPhaseKind::UserFlush))
            .push(1600, 0, 7, phase(SdPhaseKind::Wait))
            .push(
                2000,
                1,
                7,
                TraceEvent::IpiAck {
                    kind: AckKind::Late,
                    by: CoreId(1),
                },
            )
            .push(
                2200,
                0,
                7,
                TraceEvent::SdDone {
                    sync: Cycles::new(44),
                },
            );
        let a = analyze(&s.trace());
        assert_eq!(a.incomplete, 0);
        assert_eq!(a.spans.len(), 1);
        let sp = &a.spans[0];
        assert_eq!(sp.initiator, CoreId(0));
        assert_eq!(sp.ipis, 1);
        assert_eq!(sp.end_to_end(), 2200 + 44 - 1000);
        assert_eq!(sp.phase_sum(), sp.end_to_end());
        // Setup = prep (100) + local (200) + user (100) = 400.
        assert_eq!(sp.phases[Phase::Setup.idx()], 400);
        assert_eq!(sp.phases[Phase::IpiInFlight.idx()], 200);
        // Wait window 1600..2200 splits at the ack (2000).
        assert_eq!(sp.phases[Phase::RemoteFlush.idx()], 400);
        assert_eq!(sp.phases[Phase::AckWait.idx()], 200);
        assert_eq!(sp.phases[Phase::Sync.idx()], 44);
    }

    #[test]
    fn interleaved_concurrent_spans_stay_separate() {
        // Two initiators (cores 0 and 2) whose operations overlap in
        // time, with interleaved record streams.
        let mut s = Stream::new();
        s.push(100, 0, 1, phase(SdPhaseKind::Prep))
            .push(150, 2, 2, phase(SdPhaseKind::Prep))
            .push(200, 0, 1, phase(SdPhaseKind::SendIpis))
            .push(260, 2, 2, phase(SdPhaseKind::SendIpis))
            .push(300, 0, 1, phase(SdPhaseKind::LocalFlush))
            .push(310, 2, 2, phase(SdPhaseKind::LocalFlush))
            .push(340, 2, 2, phase(SdPhaseKind::UserFlush))
            .push(350, 0, 1, phase(SdPhaseKind::UserFlush))
            .push(400, 0, 1, phase(SdPhaseKind::Wait))
            .push(410, 2, 2, phase(SdPhaseKind::Wait))
            .push(
                500,
                1,
                1,
                TraceEvent::IpiAck {
                    kind: AckKind::Early,
                    by: CoreId(1),
                },
            )
            .push(
                520,
                3,
                2,
                TraceEvent::IpiAck {
                    kind: AckKind::Late,
                    by: CoreId(3),
                },
            )
            .push(
                600,
                0,
                1,
                TraceEvent::SdDone {
                    sync: Cycles::new(10),
                },
            )
            .push(
                700,
                2,
                2,
                TraceEvent::SdDone {
                    sync: Cycles::new(20),
                },
            );
        let a = analyze(&s.trace());
        assert_eq!(a.incomplete, 0);
        assert_eq!(a.spans.len(), 2);
        let s1 = a.spans.iter().find(|s| s.op == 1).unwrap();
        let s2 = a.spans.iter().find(|s| s.op == 2).unwrap();
        assert_eq!(s1.initiator, CoreId(0));
        assert_eq!(s2.initiator, CoreId(2));
        assert_eq!(s1.phase_sum(), s1.end_to_end());
        assert_eq!(s2.phase_sum(), s2.end_to_end());
        assert_eq!(s1.end_to_end(), 600 + 10 - 100);
        assert_eq!(s2.end_to_end(), 700 + 20 - 150);
        assert_eq!(s1.acks.len(), 1);
        assert_eq!(s2.acks.len(), 1);
        assert_eq!(s1.acks[0].2, AckKind::Early);
    }

    #[test]
    fn early_ack_before_wait_attributes_whole_window_to_ack_wait() {
        // The final ack arrives while the initiator is still flushing
        // locally (§3.2 early ack + concurrent flush). Nothing of the
        // wait window is "remote flush" then.
        let mut s = Stream::new();
        s.push(0, 0, 9, phase(SdPhaseKind::Prep))
            .push(10, 0, 9, phase(SdPhaseKind::SendIpis))
            .push(50, 0, 9, phase(SdPhaseKind::LocalFlush))
            .push(
                60,
                1,
                9,
                TraceEvent::IpiAck {
                    kind: AckKind::Early,
                    by: CoreId(1),
                },
            )
            .push(80, 0, 9, phase(SdPhaseKind::UserFlush))
            .push(100, 0, 9, phase(SdPhaseKind::Wait))
            .push(
                130,
                0,
                9,
                TraceEvent::SdDone {
                    sync: Cycles::new(5),
                },
            );
        let a = analyze(&s.trace());
        let sp = &a.spans[0];
        assert_eq!(sp.phases[Phase::RemoteFlush.idx()], 0);
        assert_eq!(sp.phases[Phase::AckWait.idx()], 30);
        assert_eq!(sp.phase_sum(), sp.end_to_end());
    }

    #[test]
    fn watchdog_stall_lands_in_the_wait_split_exactly() {
        // A watchdog-degraded chain: the initiator enters Wait, the
        // responder's IPI is lost, the watchdog fires and eventually
        // force-acks on the responder's behalf much later. The entire
        // stall must land inside the Wait window's split — RemoteFlush
        // up to the forced ack, AckWait after — never in setup or IPI
        // phases, and the partition must stay exact.
        let mut s = Stream::new();
        s.push(0, 0, 5, phase(SdPhaseKind::Prep))
            .push(100, 0, 5, phase(SdPhaseKind::SendIpis))
            .push(300, 0, 5, TraceEvent::IpiSend { to: CoreId(1) })
            .push(300, 0, 5, phase(SdPhaseKind::LocalFlush))
            .push(500, 0, 5, phase(SdPhaseKind::UserFlush))
            .push(600, 0, 5, phase(SdPhaseKind::Wait))
            // ... 250_000 cycles of watchdog escalation later ...
            .push(
                250_600,
                0,
                5,
                TraceEvent::IpiAck {
                    kind: AckKind::Forced,
                    by: CoreId(1),
                },
            )
            .push(
                250_900,
                0,
                5,
                TraceEvent::SdDone {
                    sync: Cycles::new(25),
                },
            );
        let a = analyze(&s.trace());
        assert_eq!(a.incomplete, 0);
        let sp = &a.spans[0];
        assert_eq!(sp.phase_sum(), sp.end_to_end());
        assert_eq!(sp.acks.len(), 1);
        assert_eq!(sp.acks[0].2, AckKind::Forced);
        // The stall never bleeds into setup/IPI attribution.
        assert_eq!(sp.phases[Phase::Setup.idx()], 400);
        assert_eq!(sp.phases[Phase::IpiInFlight.idx()], 200);
        // Wait window 600..250_900 splits at the forced ack (250_600).
        assert_eq!(sp.phases[Phase::RemoteFlush.idx()], 250_000);
        assert_eq!(sp.phases[Phase::AckWait.idx()], 300);
        assert_eq!(sp.phases[Phase::Sync.idx()], 25);
    }

    #[test]
    fn truncated_spans_are_counted_not_invented() {
        let mut s = Stream::new();
        // Completion without any phase records (entry marks were
        // evicted by ring overflow).
        s.push(
            500,
            0,
            3,
            TraceEvent::SdDone {
                sync: Cycles::new(1),
            },
        )
        // Phase records without completion (still in flight).
        .push(600, 1, 4, phase(SdPhaseKind::Prep));
        let a = analyze(&s.trace());
        assert_eq!(a.spans.len(), 0);
        assert_eq!(a.incomplete, 2);
    }

    #[test]
    fn totals_and_rendering() {
        let mut s = Stream::new();
        s.push(0, 0, 1, phase(SdPhaseKind::Prep))
            .push(100, 0, 1, phase(SdPhaseKind::Wait))
            .push(
                150,
                0,
                1,
                TraceEvent::SdDone {
                    sync: Cycles::new(50),
                },
            )
            .push(0, 1, 2 | LOCAL_OP_BIT, phase(SdPhaseKind::Prep))
            .push(
                30,
                1,
                2 | LOCAL_OP_BIT,
                TraceEvent::SdDone { sync: Cycles::ZERO },
            );
        let a = analyze(&s.trace());
        let all = PhaseTotals::of(&a, false);
        let remote = PhaseTotals::of(&a, true);
        assert_eq!(all.shootdowns, 2);
        assert_eq!(remote.shootdowns, 1);
        assert_eq!(remote.total_cycles(), 200);
        let table = render_attribution_table(&[("baseline".into(), remote)]);
        assert!(table.contains("initiator setup"));
        assert!(table.contains("sync overhead"));
        assert!(table.contains("200.0"));
        let diff = render_phase_diff(&("a".into(), remote), &("b".into(), all));
        assert!(diff.contains("end-to-end"));
    }
}
