//! The typed trace vocabulary.
//!
//! Every record the kernel emits is one [`TraceEvent`] wrapped in a
//! [`TraceRecord`] that stamps it with simulated time, the emitting
//! core, the engine's dispatch count and (when the event belongs to a
//! shootdown operation) the operation id. The vocabulary is deliberately
//! closed and `Copy`: emission never allocates, and two runs that take
//! the same simulated path produce byte-identical record streams.

use tlbdown_types::{CoreId, Cycles};

/// Bit set in a trace operation id when the shootdown never registered a
/// machine-level `ShootdownId` (no remote targets — a purely local
/// flush). Keeps tracer-allocated ids disjoint from real ones without
/// perturbing the machine's id allocator.
pub(crate) const LOCAL_OP_BIT: u64 = 1 << 63;

/// Initiator-side shootdown stage, as traced. Mirrors the kernel's
/// `SdStage` minus its terminal state: a phase record marks *entry* into
/// a stage, and completion is a separate [`TraceEvent::SdDone`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SdPhaseKind {
    /// Target computation and lazy-mode filtering.
    Prep,
    /// CSD enqueue + ICR writes for every target.
    SendIpis,
    /// Local kernel-PCID flush.
    LocalFlush,
    /// Local user-PCID flush (PTI).
    UserFlush,
    /// Spin-wait for remote acknowledgements.
    Wait,
}

impl SdPhaseKind {
    /// Stable lower-case label (used in exported trace names).
    pub(crate) fn label(self) -> &'static str {
        match self {
            SdPhaseKind::Prep => "prep",
            SdPhaseKind::SendIpis => "send_ipis",
            SdPhaseKind::LocalFlush => "local_flush",
            SdPhaseKind::UserFlush => "user_flush",
            SdPhaseKind::Wait => "wait",
        }
    }
}

/// How a responder acknowledged a shootdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckKind {
    /// §3.2 early acknowledgement on handler entry, before flushing.
    Early,
    /// Baseline acknowledgement after the flush completed.
    Late,
    /// Watchdog-degraded forced full flush acknowledged on behalf of a
    /// responder that never got its IPI.
    Forced,
}

impl AckKind {
    /// Stable lower-case label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AckKind::Early => "early",
            AckKind::Late => "late",
            AckKind::Forced => "forced",
        }
    }
}

/// Why a flush (or an IPI) was skipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipKind {
    /// Candidate is in lazy-TLB mode — no IPI needed.
    Lazy,
    /// Candidate is inside a §4.2 batched syscall — it re-syncs itself.
    Batched,
    /// Responder's generation already covers the flush.
    Responder,
    /// Initiator's local generation already covers the flush.
    LocalGen,
    /// CSQ entry whose shootdown record was already torn down.
    StaleCsq,
}

impl SkipKind {
    /// Stable lower-case label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            SkipKind::Lazy => "lazy",
            SkipKind::Batched => "batched",
            SkipKind::Responder => "responder",
            SkipKind::LocalGen => "local_gen",
            SkipKind::StaleCsq => "stale_csq",
        }
    }
}

/// A fault-plan (chaos) perturbation that the trace makes visible.
///
/// The watchdog variants mirror the escalation ladder one rung each:
/// `WatchdogArmed` (timer scheduled at `SendIpis`), `WatchdogFired`
/// (timeout elapsed with acks missing), `WatchdogResend` (a bounded
/// retry with exponential backoff + jitter), `WatchdogDegrade` (gave up:
/// forced full flush per laggard), and the quarantine pair around a
/// laggard's exile from the selective-IPI path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PerturbKind {
    /// An IPI delivery was dropped by the fault plan.
    IpiDropped,
    /// An IPI delivery was duplicated by the fault plan.
    IpiDuplicated,
    /// A responder entered its handler late.
    IrqEntryDelay,
    /// The csd-lock watchdog was armed for a shootdown.
    WatchdogArmed,
    /// The csd-lock watchdog fired.
    WatchdogFired,
    /// The watchdog re-sent the shootdown IPIs.
    WatchdogResend,
    /// The watchdog gave up and degraded to a forced full flush.
    WatchdogDegrade,
    /// A laggard core entered quarantine after K consecutive stalls.
    QuarantineEnter,
    /// A quarantined core finished probation and rejoined the IPI path.
    QuarantineExit,
    /// The storm detector widened a watchdog timeout under load.
    StormWiden,
}

impl PerturbKind {
    /// Stable lower-case label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            PerturbKind::IpiDropped => "ipi_dropped",
            PerturbKind::IpiDuplicated => "ipi_duplicated",
            PerturbKind::IrqEntryDelay => "irq_entry_delay",
            PerturbKind::WatchdogArmed => "watchdog_armed",
            PerturbKind::WatchdogFired => "watchdog_fired",
            PerturbKind::WatchdogResend => "watchdog_resend",
            PerturbKind::WatchdogDegrade => "watchdog_degrade",
            PerturbKind::QuarantineEnter => "quarantine_enter",
            PerturbKind::QuarantineExit => "quarantine_exit",
            PerturbKind::StormWiden => "storm_widen",
        }
    }
}

/// One traced occurrence. Shootdown-phase events carry their operation
/// in the surrounding [`TraceRecord::op`]; the payloads here are the
/// event-specific details only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// The initiator entered a shootdown stage.
    SdPhase {
        /// The stage being entered.
        phase: SdPhaseKind,
    },
    /// The initiator's wait completed; `sync` is the final
    /// acknowledgement-poll cost still to elapse (one CFD-line pull per
    /// target).
    SdDone {
        /// Remaining synchronization cost after the last recorded step.
        sync: Cycles,
    },
    /// An IPI was handed to the fabric for `to`.
    IpiSend {
        /// Destination core.
        to: CoreId,
    },
    /// A shootdown IPI arrived at the local APIC of the stamped core.
    IpiDeliver,
    /// A responder acknowledged the stamped operation.
    IpiAck {
        /// Early / late / forced.
        kind: AckKind,
        /// The acknowledging core.
        by: CoreId,
    },
    /// One `INVLPG` / `INVPCID`-single on the stamped core.
    Invlpg {
        /// Flushed virtual address.
        va: u64,
        /// `true` for the user PCID (PTI sibling), `false` for kernel.
        user: bool,
    },
    /// A full PCID flush on the stamped core.
    FullFlush {
        /// `true` for the user PCID.
        user: bool,
    },
    /// A hardware page walk (TLB miss that hit the page tables).
    PageWalk {
        /// The translated virtual address.
        va: u64,
    },
    /// A cross-core cacheline transfer charged to the stamped core
    /// (CSD/CFD lines; the §3.3 coherence traffic).
    CachelineTransfer {
        /// Transfer cost in cycles.
        cost: Cycles,
    },
    /// A cacheline transfer was routed hop-by-hop through a non-flat
    /// interconnect topology (ring/mesh). Emitted alongside the plain
    /// [`TraceEvent::CachelineTransfer`] cost accounting — the cost is an
    /// instantaneous annotation, so phase attribution (and the
    /// `phase_sum() == end_to_end()` identity) is untouched.
    RoutedTransfer {
        /// Source core.
        from: CoreId,
        /// Destination core.
        to: CoreId,
        /// Physical-node hops traversed.
        hops: u64,
        /// End-to-end routed cost including link queueing.
        cost: Cycles,
    },
    /// The initiator pushed a work item onto `to`'s call-single queue.
    CsqEnqueue {
        /// The responder whose queue was appended to.
        to: CoreId,
    },
    /// The responder drained its call-single queue.
    CsqDrain {
        /// Items drained (0 for a spurious IRQ).
        n: u64,
    },
    /// A flush or IPI was skipped (lazy TLB, covered generation, ...).
    Skip {
        /// Why.
        kind: SkipKind,
    },
    /// Deferred in-context user flushes ran at kernel exit (§3.4).
    InContextFlush {
        /// Entries flushed.
        n: u64,
    },
    /// A user-PCID flush was deferred to kernel exit instead of running
    /// eagerly.
    UserFlushDeferred,
    /// §4.1 CoW trick: an atomic RMW replaced the local INVLPG.
    AtomicRmw {
        /// The touched virtual address.
        va: u64,
    },
    /// A fault-plan perturbation fired.
    Perturb {
        /// Which perturbation.
        kind: PerturbKind,
    },
    /// An address-space operation mutated VMAs / PTEs.
    MmOp {
        /// Stable operation label (`"munmap"`, `"madvise_dontneed"`, ...).
        kind: &'static str,
        /// Pages affected.
        pages: u64,
    },
    /// The event engine dispatched a non-resume event.
    EngineDispatch {
        /// Stable event-kind label.
        kind: &'static str,
    },
}

impl TraceEvent {
    /// Stable exported name for the event (Chrome `trace_event` `name`).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::SdPhase { .. } => "sd_phase",
            TraceEvent::SdDone { .. } => "sd_done",
            TraceEvent::IpiSend { .. } => "ipi_send",
            TraceEvent::IpiDeliver => "ipi_deliver",
            TraceEvent::IpiAck { .. } => "ipi_ack",
            TraceEvent::Invlpg { .. } => "invlpg",
            TraceEvent::FullFlush { .. } => "full_flush",
            TraceEvent::PageWalk { .. } => "page_walk",
            TraceEvent::CachelineTransfer { .. } => "cacheline_transfer",
            TraceEvent::RoutedTransfer { .. } => "routed_transfer",
            TraceEvent::CsqEnqueue { .. } => "csq_enqueue",
            TraceEvent::CsqDrain { .. } => "csq_drain",
            TraceEvent::Skip { .. } => "skip",
            TraceEvent::InContextFlush { .. } => "in_context_flush",
            TraceEvent::UserFlushDeferred => "user_flush_deferred",
            TraceEvent::AtomicRmw { .. } => "atomic_rmw",
            TraceEvent::Perturb { .. } => "perturb",
            TraceEvent::MmOp { .. } => "mm_op",
            TraceEvent::EngineDispatch { .. } => "engine_dispatch",
        }
    }
}

/// One emitted record: an event plus its deterministic stamps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global emission order, assigned by the tracer. Total and gapless
    /// *before* ring-buffer drops; the analysis layer sorts on it.
    pub(crate) seq: u64,
    /// Simulated time of emission.
    pub(crate) at: Cycles,
    /// The engine's processed-event count at emission — ties a record to
    /// the exact dispatch it happened under.
    pub(crate) dispatch: u64,
    /// The core the event happened on.
    pub(crate) core: CoreId,
    /// The shootdown operation this record belongs to, if any. Real
    /// `ShootdownId` values for remote operations; tracer-allocated ids
    /// with [`LOCAL_OP_BIT`] set for local-only flushes.
    pub(crate) op: Option<u64>,
    /// The event.
    pub ev: TraceEvent,
}
