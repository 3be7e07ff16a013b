//! Shootdown lifecycle bookkeeping and the early-acknowledgement rule.

use std::collections::BTreeSet;

use crate::info::FlushTlbInfo;
use crate::opts::OptConfig;
use tlbdown_types::{CoreId, Cycles};

/// Identifier of one in-flight shootdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShootdownId(pub u64);

/// Where a shootdown is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShootdownPhase {
    /// The initiator is issuing ICR writes.
    SendingIpis,
    /// IPIs sent; the initiator is spin-waiting on acknowledgements (and,
    /// with concurrent flushing, working through its local flush).
    WaitingAcks,
    /// All acknowledgements received.
    Done,
}

/// Decide whether a shootdown may use early acknowledgement (§3.2).
///
/// Early ack is unsafe when page tables are freed: after acknowledging but
/// before flushing, a speculative page walk on the responder could touch
/// the freed table and raise a machine check. Linux's `flush_tlb_info`
/// already carries the `freed_tables` flag; "the initiator decides whether
/// to use early acknowledgment based on this flag and instructs the
/// responders accordingly".
pub fn use_early_ack(info: &FlushTlbInfo, opts: &OptConfig) -> bool {
    opts.early_ack && !info.freed_tables
}

/// One in-flight shootdown, tracked by the initiator.
#[derive(Clone, Debug, Hash)]
pub struct Shootdown {
    /// Unique id.
    pub(crate) id: ShootdownId,
    /// The initiating core.
    pub initiator: CoreId,
    /// The work description sent to responders.
    pub info: FlushTlbInfo,
    /// All responder cores targeted (immutable after creation).
    pub targets: Vec<CoreId>,
    /// Responder cores that have not yet acknowledged.
    pub pending_acks: BTreeSet<CoreId>,
    /// Whether responders were instructed to acknowledge early.
    pub early_ack: bool,
    /// Simulated time at which the initiator started the operation
    /// (for latency accounting).
    pub(crate) started: Cycles,
    /// Phase of the protocol.
    pub(crate) phase: ShootdownPhase,
}

impl Shootdown {
    /// Create a shootdown awaiting acknowledgement from `targets`.
    pub fn new(
        id: ShootdownId,
        initiator: CoreId,
        info: FlushTlbInfo,
        targets: impl IntoIterator<Item = CoreId>,
        early_ack: bool,
        started: Cycles,
    ) -> Self {
        let targets: Vec<CoreId> = targets.into_iter().collect();
        Shootdown {
            id,
            initiator,
            info,
            pending_acks: targets.iter().copied().collect(),
            targets,
            early_ack,
            started,
            phase: ShootdownPhase::SendingIpis,
        }
    }

    /// Number of outstanding acknowledgements.
    pub fn outstanding(&self) -> usize {
        self.pending_acks.len()
    }

    /// Record an acknowledgement from `core`; returns `true` when this was
    /// the last one (the initiator's spin-wait can end).
    pub fn ack(&mut self, core: CoreId) -> bool {
        let removed = self.pending_acks.remove(&core);
        debug_assert!(removed, "duplicate or unexpected ack from {core}");
        if self.pending_acks.is_empty() {
            self.phase = ShootdownPhase::Done;
            true
        } else {
            false
        }
    }

    /// Whether every responder has acknowledged.
    pub fn complete(&self) -> bool {
        self.pending_acks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_types::{MmId, PageSize, VirtAddr, VirtRange};

    fn info(freed: bool) -> FlushTlbInfo {
        let mut i = FlushTlbInfo::ranged(
            MmId::new(1),
            VirtRange::pages(VirtAddr::new(0x1000), 1, PageSize::Size4K),
            PageSize::Size4K,
            1,
        );
        i.freed_tables = freed;
        i
    }

    #[test]
    fn early_ack_follows_opt_and_freed_tables() {
        assert!(!use_early_ack(&info(false), &OptConfig::baseline()));
        assert!(use_early_ack(&info(false), &OptConfig::all()));
        assert!(
            !use_early_ack(&info(true), &OptConfig::all()),
            "freed tables forbid early ack regardless of the opt"
        );
    }

    #[test]
    fn ack_bookkeeping() {
        let mut sd = Shootdown::new(
            ShootdownId(1),
            CoreId(0),
            info(false),
            [CoreId(1), CoreId(2), CoreId(3)],
            true,
            Cycles::new(100),
        );
        assert_eq!(sd.outstanding(), 3);
        assert!(!sd.ack(CoreId(2)));
        assert!(!sd.ack(CoreId(1)));
        assert!(!sd.complete());
        assert!(sd.ack(CoreId(3)));
        assert!(sd.complete());
        assert_eq!(sd.phase, ShootdownPhase::Done);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate or unexpected ack")]
    fn duplicate_ack_panics_in_debug() {
        let mut sd = Shootdown::new(
            ShootdownId(1),
            CoreId(0),
            info(false),
            [CoreId(1)],
            false,
            Cycles::ZERO,
        );
        sd.ack(CoreId(1));
        sd.ack(CoreId(1));
    }

    #[test]
    fn empty_target_set_is_immediately_complete() {
        let sd = Shootdown::new(
            ShootdownId(2),
            CoreId(0),
            info(false),
            [],
            false,
            Cycles::ZERO,
        );
        assert!(sd.complete());
    }
}
