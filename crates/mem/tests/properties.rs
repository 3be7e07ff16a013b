//! Property tests for the page-table substrate.

use proptest::prelude::*;
use tlbdown_mem::{AddrSpace, FrameState, PhysMem};
use tlbdown_types::{PageSize, PteFlags, VirtAddr, VirtRange};

fn arb_pages() -> impl Strategy<Value = Vec<u64>> {
    // Distinct virtual page numbers spread over a few table sub-trees.
    proptest::collection::btree_set(0u64..4096, 1..64).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// map → walk returns exactly what was mapped, for every page.
    #[test]
    fn map_walk_roundtrip(pages in arb_pages()) {
        let mut mem = PhysMem::new(1 << 20);
        let mut s = AddrSpace::new(&mut mem).unwrap();
        let mut expect = Vec::new();
        for vpn in &pages {
            let va = VirtAddr::new(vpn << 12);
            let pa = mem.alloc(FrameState::UserPage).unwrap();
            s.map(&mut mem, va, pa, PageSize::Size4K, PteFlags::user_rw()).unwrap();
            expect.push((va, pa));
        }
        for (va, pa) in expect {
            let w = s.walk(va).unwrap();
            prop_assert_eq!(w.pte.addr, pa);
            prop_assert_eq!(w.size, PageSize::Size4K);
            prop_assert_eq!(w.page_base, va);
        }
    }

    /// unmap_range leaves no translations behind and frees every table it
    /// emptied; destroy releases everything (frame conservation).
    #[test]
    fn unmap_then_destroy_conserves_frames(pages in arb_pages()) {
        let mut mem = PhysMem::new(1 << 20);
        let before = mem.allocated_frames();
        let mut s = AddrSpace::new(&mut mem).unwrap();
        let mut data = Vec::new();
        for vpn in &pages {
            let va = VirtAddr::new(vpn << 12);
            let pa = mem.alloc(FrameState::UserPage).unwrap();
            s.map(&mut mem, va, pa, PageSize::Size4K, PteFlags::user_rw()).unwrap();
            data.push(pa);
        }
        let whole = VirtRange::new(VirtAddr::new(0), VirtAddr::new(4097 << 12));
        let out = s.unmap_range(&mut mem, whole);
        prop_assert_eq!(out.removed.len(), pages.len());
        prop_assert!(out.freed_tables);
        for vpn in &pages {
            prop_assert!(s.walk(VirtAddr::new(vpn << 12)).is_err());
        }
        for pa in data {
            mem.free(pa);
        }
        s.destroy(&mut mem);
        prop_assert_eq!(mem.allocated_frames(), before);
    }

    /// zap_range removes exactly the requested leaves and nothing else.
    #[test]
    fn zap_is_precise(pages in arb_pages(), lo in 0u64..4096, len in 1u64..256) {
        let mut mem = PhysMem::new(1 << 20);
        let mut s = AddrSpace::new(&mut mem).unwrap();
        for vpn in &pages {
            let pa = mem.alloc(FrameState::UserPage).unwrap();
            s.map(&mut mem, VirtAddr::new(vpn << 12), pa, PageSize::Size4K, PteFlags::user_rw())
                .unwrap();
        }
        let hi = (lo + len).min(4096);
        let range = VirtRange::new(VirtAddr::new(lo << 12), VirtAddr::new(hi << 12));
        let out = s.zap_range(range);
        let expected: Vec<u64> =
            pages.iter().copied().filter(|v| *v >= lo && *v < hi).collect();
        prop_assert_eq!(out.removed.len(), expected.len());
        prop_assert!(!out.freed_tables, "zap never frees tables");
        for vpn in &pages {
            let present = s.walk(VirtAddr::new(vpn << 12)).is_ok();
            prop_assert_eq!(present, !(*vpn >= lo && *vpn < hi));
        }
    }

    /// protect_range is idempotent and flag-exact.
    #[test]
    fn protect_idempotent(pages in arb_pages()) {
        let mut mem = PhysMem::new(1 << 20);
        let mut s = AddrSpace::new(&mut mem).unwrap();
        for vpn in &pages {
            let pa = mem.alloc(FrameState::UserPage).unwrap();
            s.map(&mut mem, VirtAddr::new(vpn << 12), pa, PageSize::Size4K, PteFlags::user_rw())
                .unwrap();
        }
        let whole = VirtRange::new(VirtAddr::new(0), VirtAddr::new(4097 << 12));
        let first = s.protect_range(whole, PteFlags::empty(), PteFlags::WRITABLE);
        prop_assert_eq!(first.len(), pages.len());
        let second = s.protect_range(whole, PteFlags::empty(), PteFlags::WRITABLE);
        prop_assert!(second.is_empty(), "second pass must change nothing");
        for vpn in &pages {
            let (pte, _) = s.entry(VirtAddr::new(vpn << 12)).unwrap();
            prop_assert!(!pte.writable());
            prop_assert!(pte.present());
        }
    }
}
