//! TLB generation tracking — Linux's `mm->context.tlb_gen` protocol.
//!
//! Every PTE-modifying operation bumps the mm's generation before
//! requesting flushes; each CPU tracks the generation its TLB is synced to
//! for its loaded mm. The decision function below is a faithful port of
//! `flush_tlb_func_common()` from Linux 5.2.8, and it is what produces the
//! §5.2 "TLB flush storm" behaviour: when flushes race, a responder
//! observes `mm_tlb_gen > f->new_tlb_gen`, performs one full flush covering
//! *all* outstanding generations, and every later-arriving request is then
//! skipped (`local == mm_tlb_gen`) — making early acknowledgement and
//! in-context flushing moot in exactly the way Figure 10 shows.

use crate::info::FlushTlbInfo;
use tlbdown_types::{PageSize, VirtRange};

/// The mm-side generation counter (`mm->context.tlb_gen`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MmGen {
    gen: u64,
}

impl MmGen {
    /// A fresh address space at generation 0.
    pub fn new() -> Self {
        MmGen { gen: 0 }
    }

    /// Current generation.
    pub fn current(&self) -> u64 {
        self.gen
    }

    /// `inc_mm_tlb_gen()`: bump before requesting flushes; returns the new
    /// generation to stamp into the [`FlushTlbInfo`].
    pub fn bump(&mut self) -> u64 {
        self.gen += 1;
        self.gen
    }
}

/// What a CPU receiving a flush request must do.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FlushAction {
    /// The local TLB already covers this generation — nothing to do.
    /// (The fast path that defeats early acknowledgement during storms.)
    Skip,
    /// Flush just the named range, bringing the CPU to `upto`.
    Selective {
        /// Range to invalidate.
        range: VirtRange,
        /// Stride of the entries.
        stride: PageSize,
        /// The local generation after the flush.
        upto: u64,
    },
    /// Flush the whole address space, bringing the CPU to `upto`
    /// (== the mm generation at decision time, covering every outstanding
    /// request at once).
    Full {
        /// The local generation after the flush.
        upto: u64,
    },
}

/// Port of `flush_tlb_func_common()`: decide how to service `info` on a
/// CPU whose TLB is synced to `local_gen`, while the mm is currently at
/// `mm_gen`.
///
/// # Examples
///
/// ```
/// use tlbdown_core::{flush_decision, FlushAction, FlushTlbInfo};
/// use tlbdown_types::{MmId, PageSize, VirtAddr, VirtRange};
///
/// let range = VirtRange::pages(VirtAddr::new(0x1000), 2, PageSize::Size4K);
/// let info = FlushTlbInfo::ranged(MmId::new(1), range, PageSize::Size4K, 5);
/// // Exactly one generation behind: a selective flush suffices.
/// assert!(matches!(flush_decision(4, 5, &info), FlushAction::Selective { .. }));
/// // Outstanding generations (a flush storm): one full flush covers all.
/// assert_eq!(flush_decision(3, 7, &info), FlushAction::Full { upto: 7 });
/// // Already covered by an earlier full flush: skip.
/// assert_eq!(flush_decision(7, 7, &info), FlushAction::Skip);
/// ```
///
/// # Panics
///
/// Debug-asserts the same invariants Linux `WARN_ON`s: the local
/// generation never exceeds the mm generation, and no request is stamped
/// beyond the mm generation.
pub fn flush_decision(local_gen: u64, mm_gen: u64, info: &FlushTlbInfo) -> FlushAction {
    debug_assert!(local_gen <= mm_gen, "local_tlb_gen ran ahead of mm_tlb_gen");
    debug_assert!(info.new_tlb_gen <= mm_gen, "flush request from the future");

    if local_gen == mm_gen {
        // Another flush already brought us fully up to date.
        return FlushAction::Skip;
    }
    if !info.effective_full() && info.new_tlb_gen == local_gen + 1 && info.new_tlb_gen == mm_gen {
        FlushAction::Selective {
            range: info.range,
            stride: info.stride,
            upto: info.new_tlb_gen,
        }
    } else {
        // Either a full flush was requested, or multiple generations are
        // outstanding: one full flush covers them all.
        FlushAction::Full { upto: mm_gen }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_types::{MmId, VirtAddr};

    fn ranged(new_gen: u64, pages: u64) -> FlushTlbInfo {
        FlushTlbInfo::ranged(
            MmId::new(1),
            VirtRange::pages(VirtAddr::new(0x1000), pages, PageSize::Size4K),
            PageSize::Size4K,
            new_gen,
        )
    }

    #[test]
    fn up_to_date_cpu_skips() {
        let a = flush_decision(5, 5, &ranged(5, 1));
        assert_eq!(a, FlushAction::Skip);
    }

    #[test]
    fn single_step_selective() {
        let a = flush_decision(4, 5, &ranged(5, 10));
        match a {
            FlushAction::Selective { upto, .. } => assert_eq!(upto, 5),
            other => panic!("expected selective, got {other:?}"),
        }
    }

    #[test]
    fn outstanding_generations_force_full() {
        // mm at 7 but request stamped 5: more flushes are pending → full
        // flush to 7 (the storm behaviour).
        let a = flush_decision(4, 7, &ranged(5, 1));
        assert_eq!(a, FlushAction::Full { upto: 7 });
    }

    #[test]
    fn stale_request_after_full_is_skipped() {
        // After the full flush above (local = 7), the late request for
        // generation 6 arrives and is skipped.
        let a = flush_decision(7, 7, &ranged(6, 1));
        assert_eq!(a, FlushAction::Skip);
    }

    #[test]
    fn lagging_local_gen_forces_full() {
        // local two behind even though the request is the newest.
        let a = flush_decision(3, 5, &ranged(5, 1));
        assert_eq!(a, FlushAction::Full { upto: 5 });
    }

    #[test]
    fn over_ceiling_request_goes_full() {
        let a = flush_decision(4, 5, &ranged(5, 34));
        assert_eq!(a, FlushAction::Full { upto: 5 });
    }

    #[test]
    fn explicit_full_request() {
        let a = flush_decision(4, 5, &FlushTlbInfo::full(MmId::new(1), 5));
        assert_eq!(a, FlushAction::Full { upto: 5 });
    }

    #[test]
    fn mm_gen_bumps_monotonically() {
        let mut g = MmGen::new();
        assert_eq!(g.current(), 0);
        assert_eq!(g.bump(), 1);
        assert_eq!(g.bump(), 2);
        assert_eq!(g.current(), 2);
    }

    #[test]
    fn storm_simulation_three_racing_flushes() {
        // Three initiators bump the generation before any responder runs.
        let mut g = MmGen::new();
        let i1 = ranged(g.bump(), 1);
        let i2 = ranged(g.bump(), 1);
        let i3 = ranged(g.bump(), 1);
        let mm = g.current();
        let mut local = 0;
        // First arriving request sees 3 outstanding gens → full flush.
        match flush_decision(local, mm, &i2) {
            FlushAction::Full { upto } => local = upto,
            other => panic!("expected full, got {other:?}"),
        }
        // The rest are skips — the behaviour §5.2 blames for early-ack's
        // vanishing benefit above 10 threads.
        assert_eq!(flush_decision(local, mm, &i1), FlushAction::Skip);
        assert_eq!(flush_decision(local, mm, &i3), FlushAction::Skip);
    }
}
