//! Property tests for the page-table substrate.

use proptest::prelude::*;
use tlbdown_mem::{AddrSpace, FrameState, PhysMem, Walk};
use tlbdown_types::{PageSize, PteFlags, SimError, VirtAddr, VirtRange};

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

/// Every probe's walk, mapped or not.
fn walks(s: &AddrSpace, probes: &[VirtAddr]) -> Vec<Result<Walk, SimError>> {
    probes.iter().map(|&va| s.walk(va)).collect()
}

/// Map `pages` 4KB pages from `base`.
fn map_pages(mem: &mut PhysMem, s: &mut AddrSpace, base: u64, pages: u64) {
    for i in 0..pages {
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        let va = VirtAddr::new(base + i * 4096);
        s.map(mem, va, pa, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
    }
}

/// A 2MB-aligned window mapped by one huge leaf, then split.
const HUGE: u64 = 0x4020_0000;
/// 4KB pages in one page table, and a subtree that starts empty.
const SMALL: u64 = 0x10_0000;
const FAR: u64 = 0x7f00_0000_0000;

#[test]
fn cloned_page_tables_stay_isolated() {
    // An address space and its memory, cloned: the two share every
    // table page until one side writes it. Each step runs on one side
    // and then the other, and must leave every walk of the other side
    // as it was, while changing its own.
    let mut mem = PhysMem::new(1 << 20);
    let mut s = AddrSpace::new(&mut mem).unwrap();
    map_pages(&mut mem, &mut s, SMALL, 24);
    let huge = mem
        .alloc_contiguous_aligned(512, 512, FrameState::UserPage)
        .unwrap();
    s.map(
        &mut mem,
        VirtAddr::new(HUGE),
        huge,
        PageSize::Size2M,
        PteFlags::user_rw(),
    )
    .unwrap();
    let mut sides = [(mem.clone(), s.clone()), (mem, s)];
    let probes: Vec<VirtAddr> = [(HUGE, 513), (SMALL, 40), (FAR, 8)]
        .iter()
        .flat_map(|&(base, pages)| (0..pages).map(move |i| VirtAddr::new(base + i * 4096)))
        .collect();
    type Step = fn(&mut PhysMem, &mut AddrSpace);
    let steps: [(&str, Step); 4] = [
        ("map", |mem, s| {
            // Into a shared page table, and into a new subtree.
            map_pages(mem, s, SMALL + 24 * 4096, 8);
            map_pages(mem, s, FAR, 4);
        }),
        ("zap", |_, s| {
            let zapped = s.zap_range(VirtRange::pages(VirtAddr::new(SMALL), 8, PageSize::Size4K));
            assert_eq!(zapped.removed.len(), 8);
        }),
        ("split", |mem, s| {
            assert!(s.split_huge_leaf(mem, VirtAddr::new(HUGE)).unwrap());
        }),
        ("unmap", |mem, s| {
            let freed = [HUGE, SMALL, FAR].map(|base| {
                let range = VirtRange::pages(VirtAddr::new(base), 512, PageSize::Size4K);
                s.unmap_range(mem, range).freed_tables
            });
            assert_eq!(freed, [true; 3]);
        }),
    ];
    for (name, step) in steps {
        for side in [0, 1] {
            let other = walks(&sides[1 - side].1, &probes);
            let own = walks(&sides[side].1, &probes);
            let (mem, s) = &mut sides[side];
            step(mem, s);
            assert_eq!(
                walks(&sides[1 - side].1, &probes),
                other,
                "{name} on side {side} reached the other side"
            );
            assert_ne!(
                walks(&sides[side].1, &probes),
                own,
                "{name} changed nothing"
            );
        }
    }
}
