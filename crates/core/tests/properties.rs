//! Property tests for the protocol engine's pure logic.

use proptest::prelude::*;
use tlbdown_core::{
    flush_decision, BatchState, DeferredUserFlush, FlushAction, FlushTlbInfo, MmGen, FLUSH_CEILING,
};
use tlbdown_types::{MmId, PageSize, VirtAddr, VirtRange};

fn info(gen: u64, start_page: u64, pages: u64) -> FlushTlbInfo {
    FlushTlbInfo::ranged(
        MmId::new(1),
        VirtRange::pages(VirtAddr::new(start_page << 12), pages, PageSize::Size4K),
        PageSize::Size4K,
        gen,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The generation protocol always makes progress and never regresses:
    /// for any interleaving of flush requests, applying the decisions in
    /// any arrival order leaves the CPU at most at mm_gen and never lower
    /// than before; and once synced, all stale requests are skips.
    #[test]
    fn generation_tracking_is_monotone_and_convergent(
        arrival in proptest::collection::vec(0usize..8, 1..8),
        pages in 1u64..40,
    ) {
        let mut mm = MmGen::new();
        let reqs: Vec<FlushTlbInfo> =
            (0..8).map(|i| info(mm.bump(), i * 64, pages)).collect();
        let mm_gen = mm.current();
        let mut local = 0u64;
        for &i in &arrival {
            let before = local;
            match flush_decision(local, mm_gen, &reqs[i]) {
                FlushAction::Skip => {}
                FlushAction::Selective { upto, .. } => local = upto,
                FlushAction::Full { upto } => local = upto,
            }
            prop_assert!(local >= before, "local generation regressed");
            prop_assert!(local <= mm_gen, "local generation overtook the mm");
        }
        // One more pass over every request now converges to all-skips or
        // one final full flush that reaches mm_gen.
        for r in &reqs {
            match flush_decision(local, mm_gen, r) {
                FlushAction::Skip => {}
                FlushAction::Full { upto } => {
                    prop_assert_eq!(upto, mm_gen);
                    local = upto;
                }
                FlushAction::Selective { upto, .. } => {
                    prop_assert_eq!(upto, mm_gen);
                    local = upto;
                }
            }
        }
        prop_assert_eq!(local, mm_gen, "the protocol must converge");
        for r in &reqs {
            prop_assert_eq!(flush_decision(local, mm_gen, r), FlushAction::Skip);
        }
    }

    /// The deferred-flush merge always *covers* everything recorded: any
    /// page in any recorded range is inside the final pending range, or
    /// the record escalated to full. And selective records never exceed
    /// the 33-entry ceiling.
    #[test]
    fn deferred_merge_covers_all_records(
        ranges in proptest::collection::vec((0u64..512, 1u64..16), 1..12),
    ) {
        let mut d = DeferredUserFlush::new();
        for (start, len) in &ranges {
            d.record(
                VirtRange::pages(VirtAddr::new(start << 12), *len, PageSize::Size4K),
                PageSize::Size4K,
            );
        }
        let p = d.pending().expect("records pend");
        if !p.full {
            prop_assert!(p.entries() <= FLUSH_CEILING, "selective pending over the ceiling");
            for (start, len) in &ranges {
                for vpn in *start..(*start + *len) {
                    prop_assert!(
                        p.range.contains(VirtAddr::new(vpn << 12)),
                        "page {vpn} escaped the merged range"
                    );
                }
            }
        }
    }

    /// Batching never loses work: everything deferred is either present
    /// verbatim at the barrier or subsumed by a full flush stamped with
    /// the newest generation.
    #[test]
    fn batching_preserves_flush_obligations(n in 1usize..12) {
        let mut b = BatchState::new();
        b.begin();
        let infos: Vec<FlushTlbInfo> =
            (0..n).map(|i| info(i as u64 + 1, (i as u64) * 8, 2)).collect();
        for i in &infos {
            b.defer(*i);
        }
        let out = b.end();
        prop_assert!(!out.is_empty());
        let max_full_gen = out.iter().filter(|o| o.full).map(|o| o.new_tlb_gen).max();
        for i in &infos {
            let verbatim = out.iter().any(|o| o == i);
            let subsumed = max_full_gen.map(|g| i.new_tlb_gen <= g).unwrap_or(false);
            prop_assert!(
                verbatim || subsumed,
                "deferred flush (gen {}) neither preserved nor subsumed",
                i.new_tlb_gen
            );
        }
        if max_full_gen.is_none() {
            // No overflow: everything exactly preserved, in order.
            prop_assert_eq!(out.len(), n);
            for (a, b) in out.iter().zip(infos.iter()) {
                prop_assert_eq!(a, b);
            }
        }
    }
}
