//! Table 4: dTLB misses after a full vs selective flush, under page
//! fracturing.
//!
//! Protocol, per row: build the (guest page size, host page size) mapping
//! configuration, touch a working set to fill the TLB, reset counters,
//! perform either a full flush or a *selective* flush of an address that
//! was never mapped (exactly as the paper does — "the flushed page was
//! not mapped in the page-tables so it could not have been cached"), then
//! touch the working set again and report the dTLB misses. A fractured
//! configuration turns the selective flush into a full flush, so its
//! selective-column count matches the full-column count.

use tlbdown_mem::{AddrSpace, FrameState, PhysMem};
use tlbdown_tlb::Tlb;
use tlbdown_types::{CostModel, PageSize, Pcid, PteFlags, VirtAddr};
use tlbdown_virt::{build_nested_mappings, NestedCpu};

/// One Table 4 row.
#[derive(Clone, Debug)]
pub(crate) struct Table4Row {
    /// "VM" or "Bare-Metal".
    pub(crate) env: &'static str,
    /// Host page size.
    pub(crate) host: PageSize,
    /// Guest page size (equals host size for bare metal).
    pub(crate) guest: Option<PageSize>,
    /// dTLB misses in the re-touch pass after a full flush.
    pub(crate) full_flush_misses: u64,
    /// dTLB misses in the re-touch pass after a selective flush of an
    /// unrelated, unmapped address.
    pub(crate) selective_flush_misses: u64,
}

const REGION_BYTES: u64 = 16 << 20; // 16MB working set
const GVA_BASE: u64 = 0x4000_0000;
/// An address far outside the working set, never mapped.
const UNMAPPED: u64 = 0x7f00_0000_0000;

fn vm_row(guest: PageSize, host: PageSize) -> Table4Row {
    let run = |selective: bool| -> u64 {
        let mut mem = PhysMem::new(1 << 24);
        let mut gspace = AddrSpace::new(&mut mem).expect("guest tables");
        let mut ept = AddrSpace::new(&mut mem).expect("ept tables");
        build_nested_mappings(
            &mut mem,
            &mut gspace,
            &mut ept,
            VirtAddr::new(GVA_BASE),
            REGION_BYTES,
            guest,
            host,
        )
        .expect("nested mapping");
        // Large TLB so capacity evictions don't pollute the count.
        let mut cpu = NestedCpu::new(1 << 20, CostModel::default());
        let pages = REGION_BYTES / 4096;
        for i in 0..pages {
            cpu.access(VirtAddr::new(GVA_BASE + i * 4096), &gspace, &ept)
                .expect("mapped");
        }
        cpu.tlb.reset_stats();
        if selective {
            cpu.invlpg(VirtAddr::new(UNMAPPED));
        } else {
            cpu.full_flush();
        }
        for i in 0..pages {
            cpu.access(VirtAddr::new(GVA_BASE + i * 4096), &gspace, &ept)
                .expect("mapped");
        }
        cpu.tlb.stats().misses
    };
    Table4Row {
        env: "VM",
        host,
        guest: Some(guest),
        full_flush_misses: run(false),
        selective_flush_misses: run(true),
    }
}

fn bare_metal_row(host: PageSize) -> Table4Row {
    let run = |selective: bool| -> u64 {
        let mut mem = PhysMem::new(1 << 24);
        let mut space = AddrSpace::new(&mut mem).expect("tables");
        // Direct mapping at the chosen page size.
        let frames = REGION_BYTES / 4096;
        let base = mem
            .alloc_contiguous(frames + host.base_pages(), FrameState::UserPage)
            .expect("frames");
        let base =
            tlbdown_types::PhysAddr::new((base.as_u64() + host.bytes() - 1) & !(host.bytes() - 1));
        let mut off = 0;
        while off < REGION_BYTES {
            space
                .map(
                    &mut mem,
                    VirtAddr::new(GVA_BASE + off),
                    base.add(off),
                    host,
                    PteFlags::user_rw(),
                )
                .expect("map");
            off += host.bytes();
        }
        let mut tlb = Tlb::new(1 << 20);
        let costs = CostModel::default();
        let pcid = Pcid::new(1);
        let pages = REGION_BYTES / 4096;
        for i in 0..pages {
            tlb.access(
                pcid,
                VirtAddr::new(GVA_BASE + i * 4096),
                false,
                true,
                &mut space,
                &costs,
            )
            .expect("mapped");
        }
        tlb.reset_stats();
        if selective {
            tlb.invlpg(pcid, VirtAddr::new(UNMAPPED));
        } else {
            tlb.flush_pcid(pcid);
        }
        for i in 0..pages {
            tlb.access(
                pcid,
                VirtAddr::new(GVA_BASE + i * 4096),
                false,
                true,
                &mut space,
                &costs,
            )
            .expect("mapped");
        }
        tlb.stats().misses
    };
    Table4Row {
        env: "Bare-Metal",
        host,
        guest: None,
        full_flush_misses: run(false),
        selective_flush_misses: run(true),
    }
}

/// Produce all six Table 4 rows.
pub(crate) fn table4() -> Vec<Table4Row> {
    vec![
        vm_row(PageSize::Size4K, PageSize::Size4K),
        vm_row(PageSize::Size2M, PageSize::Size4K),
        vm_row(PageSize::Size4K, PageSize::Size2M),
        vm_row(PageSize::Size2M, PageSize::Size2M),
        bare_metal_row(PageSize::Size4K),
        bare_metal_row(PageSize::Size2M),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractured_row_full_flushes_on_selective() {
        let row = vm_row(PageSize::Size2M, PageSize::Size4K);
        assert_eq!(
            row.selective_flush_misses, row.full_flush_misses,
            "fractured guest: selective flush behaves like a full flush"
        );
        assert!(row.full_flush_misses >= REGION_BYTES / 4096);
    }

    #[test]
    fn unfractured_rows_keep_selective_cheap() {
        for (g, h) in [
            (PageSize::Size4K, PageSize::Size4K),
            (PageSize::Size4K, PageSize::Size2M),
            (PageSize::Size2M, PageSize::Size2M),
        ] {
            let row = vm_row(g, h);
            assert!(
                row.selective_flush_misses * 100 < row.full_flush_misses.max(1),
                "guest {g} host {h}: selective {} should be ≪ full {}",
                row.selective_flush_misses,
                row.full_flush_misses
            );
        }
    }

    #[test]
    fn bare_metal_never_fractures() {
        for h in [PageSize::Size4K, PageSize::Size2M] {
            let row = bare_metal_row(h);
            assert_eq!(row.selective_flush_misses, 0, "nothing mapped was flushed");
            assert!(row.full_flush_misses > 0);
        }
    }

    #[test]
    fn hugepages_reduce_full_flush_misses() {
        // The paper's 4M vs 102M contrast: 2M/2M refills per hugepage, not
        // per 4KB piece.
        let small = vm_row(PageSize::Size4K, PageSize::Size4K);
        let huge = vm_row(PageSize::Size2M, PageSize::Size2M);
        assert!(huge.full_flush_misses * 100 <= small.full_flush_misses);
    }
}
