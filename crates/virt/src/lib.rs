//! Nested translation and page fracturing (paper §7, Figure 12, Table 4).
//!
//! Under virtualization the TLB caches **composed** translations from
//! guest-virtual addresses (GVA) straight to host-physical addresses
//! (HPA): a walk first translates GVA→GPA through the guest page tables,
//! then GPA→HPA through the host (EPT) tables. When a guest 2MB hugepage
//! is backed by host 4KB pages, the composed mapping cannot be represented
//! as one 2MB TLB entry — the hardware caches individual 4KB pieces,
//! *fracturing* the guest page (Figure 12; "page splintering", Pham et al. \[27\]).
//!
//! The paper's undiscussed finding: Intel CPUs appear to keep a flag
//! recording whether *any* cached translation came from such a fractured
//! walk; while it is set, any selective flush (`INVLPG`) escalates to a
//! full TLB flush, because the CPU cannot cheaply find all the 4KB pieces
//! of a 2MB invalidation. Table 4 measures the resulting dTLB misses.
//! `tlbdown-tlb` implements the flag; this crate provides the two-level
//! walk that sets it and the [`NestedCpu`] used by the Table 4 harness.

use tlbdown_mem::{AddrSpace, PhysMem, Pte};
use tlbdown_tlb::Tlb;
use tlbdown_types::{CostModel, Cycles, PageSize, Pcid, PhysAddr, SimError, SimResult, VirtAddr};

/// Result of one nested access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NestedAccess {
    /// Final host-physical address.
    pub(crate) hpa: PhysAddr,
    /// Whether the TLB already held the composed translation.
    pub(crate) hit: bool,
    /// Cycle cost including the two-dimensional walk on a miss.
    pub(crate) cost: Cycles,
    /// Whether the cached entry is fractured (guest page larger than the
    /// host page backing it).
    pub(crate) fractured: bool,
}

/// The composed page size of a nested walk: the smaller of the guest and
/// host page sizes, since one TLB entry can only cover a region that is
/// uniform in both dimensions.
pub(crate) fn composed_size(guest: PageSize, host: PageSize) -> PageSize {
    guest.min(host)
}

/// Whether a (guest, host) page-size pair fractures the guest page.
pub(crate) fn is_fractured(guest: PageSize, host: PageSize) -> bool {
    host < guest
}

/// A virtual CPU translating through guest page tables under an EPT.
#[derive(Debug)]
pub struct NestedCpu {
    /// The composed-translation TLB (models the hardware dTLB).
    pub tlb: Tlb,
    /// PCID the guest runs under (a single guest context here).
    pub(crate) pcid: Pcid,
    costs: CostModel,
}

impl NestedCpu {
    /// A fresh vCPU with the given TLB capacity.
    pub fn new(tlb_capacity: usize, costs: CostModel) -> Self {
        NestedCpu {
            tlb: Tlb::new(tlb_capacity),
            pcid: Pcid::new(1),
            costs,
        }
    }

    /// Perform a guest data access at `gva`.
    ///
    /// On a TLB miss the hardware performs the two-dimensional walk:
    /// GVA→GPA through `guest`, then GPA→HPA through `ept`, and caches the
    /// composed entry — marked fractured when the guest page is larger
    /// than its host backing.
    pub fn access(
        &mut self,
        gva: VirtAddr,
        guest: &AddrSpace,
        ept: &AddrSpace,
    ) -> SimResult<NestedAccess> {
        if let Some(e) = self.tlb.lookup(self.pcid, gva) {
            let hpa = e.pte.addr.add(gva.page_offset(e.size));
            let fractured = e.fractured;
            self.tlb.record_hit();
            return Ok(NestedAccess {
                hpa,
                hit: true,
                cost: self.costs.mem_access,
                fractured,
            });
        }
        // Two-dimensional walk.
        let gwalk = guest.walk(gva)?;
        let gpa = gwalk.translate(gva);
        let hwalk = ept.walk(VirtAddr::new(gpa.as_u64()))?;
        let hpa = hwalk.translate(VirtAddr::new(gpa.as_u64()));
        let size = composed_size(gwalk.size, hwalk.size);
        let fractured = is_fractured(gwalk.size, hwalk.size);
        let page_base = gva.align_down(size);
        let hpa_base = PhysAddr::new(hpa.as_u64() & !(size.bytes() - 1));
        self.tlb.record_miss();
        self.tlb.insert_nested(
            self.pcid,
            page_base,
            size,
            Pte::new(hpa_base, gwalk.pte.flags),
            fractured,
        );
        // Cost: both dimensions walked; each guest level needs an EPT walk
        // of its own on real hardware — approximate with the documented
        // nested overhead per level.
        let cost = self.costs.mem_access
            + self.costs.page_walk_pwc_miss
            + self.costs.nested_walk_extra * 4;
        Ok(NestedAccess {
            hpa,
            hit: false,
            cost,
            fractured,
        })
    }

    /// Guest executes `INVLPG gva` (selective flush). Escalates to a full
    /// flush when the fracture flag is set — the Table 4 behaviour.
    pub fn invlpg(&mut self, gva: VirtAddr) {
        self.tlb.invlpg(self.pcid, gva);
    }

    /// Guest performs a full TLB flush (CR3 write).
    pub fn full_flush(&mut self) {
        self.tlb.flush_pcid(self.pcid);
    }
}

/// The paravirtual mitigation the paper proposes as future work (§7): the
/// host tells the guest whether page fracturing *may* occur, and the
/// guest's flush policy uses one full flush instead of a futile sequence
/// of selective flushes (each of which would full-flush anyway).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParavirtFlushPolicy {
    /// Host-provided hint: fracturing may happen in this configuration.
    pub fracturing_possible: bool,
}

/// What the guest should execute to invalidate `n` pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GuestFlushPlan {
    /// Issue one `INVLPG` per page.
    Selective {
        /// Number of pages to invalidate individually.
        pages: u64,
    },
    /// Issue a single full flush.
    Full,
}

impl ParavirtFlushPolicy {
    /// Plan a flush of `pages` pages, honouring the hint and the guest's
    /// usual full-flush ceiling.
    ///
    /// Without the hint, the guest uses Linux's 33-entry ceiling. With
    /// the hint and more than one page to flush, selective flushes are
    /// pointless — the first one already wipes the TLB — so the guest
    /// issues one full flush and saves the remaining `INVLPG`s (§7: "the
    /// host may also inform the VM OS, using a paravirtual protocol,
    /// whether page fracturing may happen").
    pub(crate) fn plan(&self, pages: u64, ceiling: u64) -> GuestFlushPlan {
        if pages > ceiling {
            return GuestFlushPlan::Full;
        }
        if self.fracturing_possible && pages > 1 {
            GuestFlushPlan::Full
        } else {
            GuestFlushPlan::Selective { pages }
        }
    }

    /// Execute the plan on a vCPU for the given base address; returns the
    /// number of flush instructions issued.
    pub fn execute(&self, cpu: &mut NestedCpu, base: VirtAddr, pages: u64, ceiling: u64) -> u64 {
        match self.plan(pages, ceiling) {
            GuestFlushPlan::Full => {
                cpu.full_flush();
                1
            }
            GuestFlushPlan::Selective { pages } => {
                for i in 0..pages {
                    cpu.invlpg(base.add(i * 4096));
                }
                pages
            }
        }
    }
}

/// Identity-map `pages` 4KB-pages of guest-physical space into `ept`
/// using host pages of size `host_size`, and map the same range in the
/// guest tables with pages of `guest_size`, starting at `gva_base`.
/// Returns the number of guest pages mapped.
///
/// The harness uses this to build each row of Table 4.
pub fn build_nested_mappings(
    mem: &mut PhysMem,
    guest: &mut AddrSpace,
    ept: &mut AddrSpace,
    gva_base: VirtAddr,
    bytes: u64,
    guest_size: PageSize,
    host_size: PageSize,
) -> SimResult<u64> {
    use tlbdown_mem::FrameState;
    use tlbdown_types::PteFlags;
    if !bytes.is_multiple_of(guest_size.bytes()) || !bytes.is_multiple_of(host_size.bytes()) {
        return Err(SimError::InvalidArgument(
            "region must be a multiple of both page sizes".into(),
        ));
    }
    // Guest-physical space: identity-like, starting high to avoid clashes.
    let gpa_base = 0x8000_0000u64;
    // Host frames backing the whole region.
    let frames_needed = bytes / 4096;
    let host_base =
        mem.alloc_contiguous(frames_needed + host_size.base_pages(), FrameState::UserPage)?;
    let host_base =
        PhysAddr::new((host_base.as_u64() + host_size.bytes() - 1) & !(host_size.bytes() - 1));
    // EPT: map GPA→HPA at host_size granularity.
    let mut off = 0;
    while off < bytes {
        ept.map(
            mem,
            VirtAddr::new(gpa_base + off),
            host_base.add(off),
            host_size,
            PteFlags::user_rw().without(PteFlags::NX),
        )?;
        off += host_size.bytes();
    }
    // Guest tables: map GVA→GPA at guest_size granularity.
    let mut off = 0;
    let mut count = 0;
    while off < bytes {
        guest.map(
            mem,
            gva_base.add(off),
            PhysAddr::new(gpa_base + off),
            guest_size,
            PteFlags::user_rw(),
        )?;
        off += guest_size.bytes();
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_mem::PhysMem;

    fn setup(
        guest_size: PageSize,
        host_size: PageSize,
        bytes: u64,
    ) -> (NestedCpu, AddrSpace, AddrSpace) {
        let mut mem = PhysMem::new(1 << 22);
        let mut guest = AddrSpace::new(&mut mem).unwrap();
        let mut ept = AddrSpace::new(&mut mem).unwrap();
        build_nested_mappings(
            &mut mem,
            &mut guest,
            &mut ept,
            VirtAddr::new(0x4000_0000),
            bytes,
            guest_size,
            host_size,
        )
        .unwrap();
        (NestedCpu::new(1 << 16, CostModel::default()), guest, ept)
    }

    #[test]
    fn composed_size_is_min() {
        assert_eq!(
            composed_size(PageSize::Size2M, PageSize::Size4K),
            PageSize::Size4K
        );
        assert_eq!(
            composed_size(PageSize::Size4K, PageSize::Size2M),
            PageSize::Size4K
        );
        assert_eq!(
            composed_size(PageSize::Size2M, PageSize::Size2M),
            PageSize::Size2M
        );
        assert!(is_fractured(PageSize::Size2M, PageSize::Size4K));
        assert!(!is_fractured(PageSize::Size4K, PageSize::Size2M));
        assert!(!is_fractured(PageSize::Size2M, PageSize::Size2M));
    }

    #[test]
    fn nested_access_translates_and_caches() {
        let (mut cpu, guest, ept) = setup(PageSize::Size4K, PageSize::Size4K, 1 << 20);
        let gva = VirtAddr::new(0x4000_0123);
        let a1 = cpu.access(gva, &guest, &ept).unwrap();
        assert!(!a1.hit);
        assert!(!a1.fractured);
        let a2 = cpu.access(gva, &guest, &ept).unwrap();
        assert!(a2.hit);
        assert_eq!(a1.hpa, a2.hpa);
        assert_eq!(a1.hpa.as_u64() & 0xfff, 0x123);
    }

    #[test]
    fn guest_huge_over_host_small_fractures() {
        let (mut cpu, guest, ept) = setup(PageSize::Size2M, PageSize::Size4K, 4 << 20);
        let base = VirtAddr::new(0x4000_0000);
        let a = cpu.access(base, &guest, &ept).unwrap();
        assert!(a.fractured);
        assert!(cpu.tlb.fracture_flag());
        // Two accesses within the same guest 2MB page but different host
        // 4KB pages are separate TLB entries (splintering).
        cpu.access(base.add(0x1000), &guest, &ept).unwrap();
        assert_eq!(cpu.tlb.len(), 2);
    }

    #[test]
    fn guest_huge_over_host_huge_does_not_fracture() {
        let (mut cpu, guest, ept) = setup(PageSize::Size2M, PageSize::Size2M, 4 << 20);
        let base = VirtAddr::new(0x4000_0000);
        let a = cpu.access(base, &guest, &ept).unwrap();
        assert!(!a.fractured);
        // The whole 2MB page is one entry: a distant offset hits.
        let a2 = cpu.access(base.add(0x1f_0000), &guest, &ept).unwrap();
        assert!(a2.hit);
        assert_eq!(cpu.tlb.len(), 1);
    }

    #[test]
    fn selective_flush_escalates_only_when_fractured() {
        // Fractured: INVLPG of one page wipes everything.
        let (mut cpu, guest, ept) = setup(PageSize::Size2M, PageSize::Size4K, 4 << 20);
        let base = VirtAddr::new(0x4000_0000);
        for i in 0..64 {
            cpu.access(base.add(i * 0x1000), &guest, &ept).unwrap();
        }
        assert_eq!(cpu.tlb.len(), 64);
        cpu.invlpg(base);
        assert_eq!(cpu.tlb.len(), 0, "fracture flag forces a full flush");
        assert_eq!(cpu.tlb.stats().fracture_escalations, 1);

        // Not fractured: INVLPG stays selective.
        let (mut cpu, guest, ept) = setup(PageSize::Size4K, PageSize::Size4K, 1 << 20);
        for i in 0..64 {
            cpu.access(base.add(i * 0x1000), &guest, &ept).unwrap();
        }
        cpu.invlpg(base);
        assert_eq!(cpu.tlb.len(), 63);
        assert_eq!(cpu.tlb.stats().fracture_escalations, 0);
    }

    #[test]
    fn paravirt_hint_plans_full_flush_when_fracturing() {
        let hinted = ParavirtFlushPolicy {
            fracturing_possible: true,
        };
        let unhinted = ParavirtFlushPolicy {
            fracturing_possible: false,
        };
        assert_eq!(hinted.plan(1, 33), GuestFlushPlan::Selective { pages: 1 });
        assert_eq!(hinted.plan(2, 33), GuestFlushPlan::Full);
        assert_eq!(
            unhinted.plan(10, 33),
            GuestFlushPlan::Selective { pages: 10 }
        );
        assert_eq!(
            unhinted.plan(34, 33),
            GuestFlushPlan::Full,
            "ceiling still applies"
        );
    }

    #[test]
    fn paravirt_hint_avoids_futile_selective_storm() {
        // Fractured config: without the hint the guest issues N INVLPGs,
        // each a full flush; with the hint it issues one.
        let (mut cpu, guest, ept) = setup(PageSize::Size2M, PageSize::Size4K, 4 << 20);
        let base = VirtAddr::new(0x4000_0000);
        for i in 0..32 {
            cpu.access(base.add(i * 0x1000), &guest, &ept).unwrap();
        }
        let unhinted = ParavirtFlushPolicy {
            fracturing_possible: false,
        };
        let issued = unhinted.execute(&mut cpu, base, 16, 33);
        assert_eq!(issued, 16, "16 INVLPGs issued");
        assert_eq!(
            cpu.tlb.stats().fracture_escalations,
            1,
            "first one wiped the TLB"
        );

        let (mut cpu, guest, ept) = setup(PageSize::Size2M, PageSize::Size4K, 4 << 20);
        for i in 0..32 {
            cpu.access(base.add(i * 0x1000), &guest, &ept).unwrap();
        }
        let hinted = ParavirtFlushPolicy {
            fracturing_possible: true,
        };
        let issued = hinted.execute(&mut cpu, base, 16, 33);
        assert_eq!(issued, 1, "one full flush replaces the storm");
        assert!(cpu.tlb.is_empty());
        assert_eq!(cpu.tlb.stats().fracture_escalations, 0);
    }

    #[test]
    fn misses_after_flush_match_table4_shape() {
        // The Table 4 protocol in miniature: touch N pages, flush
        // selectively, re-touch, count misses.
        let touch_all = |cpu: &mut NestedCpu, guest: &AddrSpace, ept: &AddrSpace, n: u64| {
            for i in 0..n {
                cpu.access(VirtAddr::new(0x4000_0000 + i * 0x1000), guest, ept)
                    .unwrap();
            }
        };
        // Fractured config: selective flush behaves like a full flush.
        let (mut cpu, guest, ept) = setup(PageSize::Size2M, PageSize::Size4K, 4 << 20);
        touch_all(&mut cpu, &guest, &ept, 512);
        cpu.tlb.reset_stats();
        cpu.invlpg(VirtAddr::new(0x4000_0000));
        touch_all(&mut cpu, &guest, &ept, 512);
        let fractured_misses = cpu.tlb.stats().misses;

        // Non-fractured config: selective flush only costs one refill.
        let (mut cpu, guest, ept) = setup(PageSize::Size4K, PageSize::Size4K, 4 << 20);
        touch_all(&mut cpu, &guest, &ept, 512);
        cpu.tlb.reset_stats();
        cpu.invlpg(VirtAddr::new(0x4000_0000));
        touch_all(&mut cpu, &guest, &ept, 512);
        let clean_misses = cpu.tlb.stats().misses;

        assert_eq!(fractured_misses, 512);
        assert_eq!(clean_misses, 1);
    }
}
