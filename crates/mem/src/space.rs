//! Radix page tables: a faithful 4-level x86-64 structure.
//!
//! Each [`AddrSpace`] owns its table pages (keyed by physical frame number)
//! while the frames themselves come from [`PhysMem`], so freed-table
//! detection and walk traces work on real physical addresses.
//!
//! Table pages are shared copy-on-write: a clone of an address space
//! shares every 8 KB page with the original until one side writes it,
//! and `table_mut`, the one write accessor, copies the page then.

use std::rc::Rc;

use crate::frame::{FrameState, PhysMem};
use crate::pte::{Pte, TablePage};
use tlbdown_types::{
    FastMap, PageSize, PhysAddr, PteFlags, SimError, SimResult, VirtAddr, VirtRange,
};

/// Result of a page walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Walk {
    /// The leaf entry found.
    pub pte: Pte,
    /// The page size mapped by the leaf.
    pub size: PageSize,
    /// Base virtual address of the mapped page.
    pub page_base: VirtAddr,
    /// The table pages traversed, root first; only the first `depth`
    /// entries are meaningful.
    trace: [PhysAddr; 4],
    /// Tables traversed: 2 to 4 (a 1GB, 2MB or 4KB leaf).
    depth: u8,
}

impl Walk {
    /// Translate `va` through this walk's leaf.
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        self.pte.addr.add(va.page_offset(self.size))
    }

    /// The table page holding the leaf entry.
    pub(crate) fn leaf_table(&self) -> PhysAddr {
        self.trace[usize::from(self.depth) - 1]
    }
}

/// Outcome of a range zap/unmap.
#[derive(Clone, Debug, Default)]
pub struct UnmapOutcome {
    /// The leaf entries removed: `(page base, old entry, page size)`.
    pub removed: Vec<(VirtAddr, Pte, PageSize)>,
    /// Whether any page-table pages were freed. When true, the subsequent
    /// TLB shootdown must not use early acknowledgement (paper §3.2) — this
    /// is Linux's `flush_tlb_info::freed_tables` flag.
    pub freed_tables: bool,
}

/// A 4-level page table tree (levels 3..0 = PML4, PDPT, PD, PT).
#[derive(Clone, Debug)]
pub struct AddrSpace {
    root: PhysAddr,
    tables: FastMap<u64, Rc<TablePage>>,
}

/// Flags used on non-leaf (table-pointer) entries.
fn table_flags() -> PteFlags {
    PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::USER
}

impl AddrSpace {
    /// Create an empty address space with a fresh root table.
    pub fn new(mem: &mut PhysMem) -> SimResult<Self> {
        let mut s = AddrSpace {
            root: PhysAddr(0),
            tables: FastMap::default(),
        };
        s.root = s.alloc_table(mem)?;
        Ok(s)
    }

    fn alloc_table(&mut self, mem: &mut PhysMem) -> SimResult<PhysAddr> {
        let addr = mem.alloc(FrameState::PageTable)?;
        self.tables.insert(addr.pfn(), Rc::new([Pte::EMPTY; 512]));
        Ok(addr)
    }

    fn free_table(&mut self, mem: &mut PhysMem, addr: PhysAddr) {
        let existed = self.tables.remove(&addr.pfn()).is_some();
        debug_assert!(existed, "freeing unknown table {addr}");
        mem.free(addr);
    }

    fn table(&self, addr: PhysAddr) -> &TablePage {
        self.tables
            .get(&addr.pfn())
            .expect("dangling table pointer")
    }

    /// The table page at `addr`, for writing: a page this address space
    /// still shares with a clone is copied first.
    fn table_mut(&mut self, addr: PhysAddr) -> &mut TablePage {
        Rc::make_mut(
            self.tables
                .get_mut(&addr.pfn())
                .expect("dangling table pointer"),
        )
    }

    /// The table level at which a leaf of `size` lives (0 for 4KB, 1 for
    /// 2MB, 2 for 1GB).
    fn leaf_level(size: PageSize) -> u8 {
        match size {
            PageSize::Size4K => 0,
            PageSize::Size2M => 1,
            PageSize::Size1G => 2,
        }
    }

    /// Map `va -> pa` with the given size and flags.
    ///
    /// Fails with `InvalidArgument` on misalignment or if anything is
    /// already mapped at `va` (callers must unmap first; this catches
    /// kernel bookkeeping bugs).
    pub fn map(
        &mut self,
        mem: &mut PhysMem,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> SimResult<()> {
        if !va.is_aligned(size) || pa.as_u64() & (size.bytes() - 1) != 0 {
            return Err(SimError::InvalidArgument(format!(
                "map {va} -> {pa} not aligned to {size}"
            )));
        }
        let leaf = Self::leaf_level(size);
        let mut table_addr = self.root;
        for level in (leaf + 1..=3).rev() {
            let idx = va.pt_index(level);
            let entry = self.table(table_addr)[idx];
            if entry.present() {
                if entry.huge() {
                    return Err(SimError::InvalidArgument(format!(
                        "hugepage already mapped over {va}"
                    )));
                }
                table_addr = entry.addr;
            } else {
                let new = self.alloc_table(mem)?;
                self.table_mut(table_addr)[idx] = Pte::new(new, table_flags());
                table_addr = new;
            }
        }
        let idx = va.pt_index(leaf);
        let slot = &mut self.table_mut(table_addr)[idx];
        if slot.present() {
            return Err(SimError::InvalidArgument(format!("{va} already mapped")));
        }
        let mut f = flags;
        if size != PageSize::Size4K {
            f |= PteFlags::HUGE;
        }
        *slot = Pte::new(pa, f);
        Ok(())
    }

    /// Walk the tables for `va`, returning the leaf and the trace of table
    /// pages touched. Does not modify accessed/dirty bits.
    pub fn walk(&self, va: VirtAddr) -> SimResult<Walk> {
        let mut trace = [self.root; 4];
        for (depth, level) in (0..=3u8).rev().enumerate() {
            let entry = self.table(trace[depth])[va.pt_index(level)];
            if !entry.present() {
                return Err(SimError::NotMapped(va));
            }
            let size = match level {
                2 if entry.huge() => Some(PageSize::Size1G),
                1 if entry.huge() => Some(PageSize::Size2M),
                0 => Some(PageSize::Size4K),
                _ => None,
            };
            if let Some(size) = size {
                return Ok(Walk {
                    pte: entry,
                    size,
                    page_base: va.align_down(size),
                    trace,
                    depth: depth as u8 + 1,
                });
            }
            trace[depth + 1] = entry.addr;
        }
        unreachable!("level-0 entries always terminate the walk");
    }

    /// The leaf entry for `va`, if mapped.
    pub fn entry(&self, va: VirtAddr) -> Option<(Pte, PageSize)> {
        self.walk(va).ok().map(|w| (w.pte, w.size))
    }

    /// Replace the leaf entry for `va` with the result of `f`.
    ///
    /// Returns the old entry. Used for permission changes, dirty-bit
    /// updates, and the CoW PTE swap.
    pub fn update_entry(&mut self, va: VirtAddr, f: impl FnOnce(Pte) -> Pte) -> SimResult<Pte> {
        let walk = self.walk(va)?;
        let leaf_table = walk.leaf_table();
        let level = Self::leaf_level(walk.size);
        let idx = va.pt_index(level);
        let slot = &mut self.table_mut(leaf_table)[idx];
        let old = *slot;
        *slot = f(old);
        Ok(old)
    }

    /// Set the accessed (and optionally dirty) bit, as the MMU does when a
    /// translation is used.
    pub fn mark_used(&mut self, va: VirtAddr, write: bool) -> SimResult<()> {
        self.update_entry(va, |p| {
            let p = p.with(PteFlags::ACCESSED);
            if write {
                p.with(PteFlags::DIRTY)
            } else {
                p
            }
        })?;
        Ok(())
    }

    /// Clear leaf entries in `range` but keep the table pages
    /// (`madvise(MADV_DONTNEED)` / reclaim behaviour).
    pub fn zap_range(&mut self, range: VirtRange) -> UnmapOutcome {
        let mut out = UnmapOutcome::default();
        let mut va = range.start.align_down(PageSize::Size4K);
        while va < range.end {
            match self.walk(va) {
                Ok(w) => {
                    let level = Self::leaf_level(w.size);
                    self.table_mut(w.leaf_table())[va.pt_index(level)] = Pte::EMPTY;
                    out.removed.push((w.page_base, w.pte, w.size));
                    va = w.page_base.add(w.size.bytes());
                }
                Err(_) => va = va.add(PageSize::Size4K.bytes()),
            }
        }
        out
    }

    /// Clear leaf entries in `range` *and* free page-table pages that
    /// become empty (`munmap` behaviour). Sets `freed_tables` accordingly.
    pub fn unmap_range(&mut self, mem: &mut PhysMem, range: VirtRange) -> UnmapOutcome {
        let mut out = self.zap_range(range);
        // Garbage-collect empty tables bottom-up, across the affected
        // portion of the tree. A full GC pass is simplest and correct.
        let freed = self.collect_empty_tables(mem, self.root, 3);
        out.freed_tables = freed > 0;
        out
    }

    /// Recursively free empty table pages under `table_addr`; returns the
    /// number of tables freed. The root itself is never freed.
    fn collect_empty_tables(&mut self, mem: &mut PhysMem, table_addr: PhysAddr, level: u8) -> u64 {
        let mut freed = 0;
        for idx in 0..512 {
            let entry = self.table(table_addr)[idx];
            if !entry.present() || entry.huge() || level == 0 {
                continue;
            }
            freed += self.collect_empty_tables(mem, entry.addr, level - 1);
            let child_empty = self.table(entry.addr).iter().all(|e| !e.present());
            if child_empty {
                self.free_table(mem, entry.addr);
                self.table_mut(table_addr)[idx] = Pte::EMPTY;
                freed += 1;
            }
        }
        freed
    }

    /// Apply a flag change to every present leaf in `range`; returns the
    /// changed `(page base, new entry, size)` triples (mprotect / writeback
    /// clean behaviour).
    pub fn protect_range(
        &mut self,
        range: VirtRange,
        set: PteFlags,
        clear: PteFlags,
    ) -> Vec<(VirtAddr, Pte, PageSize)> {
        let mut changed = Vec::new();
        let mut va = range.start.align_down(PageSize::Size4K);
        while va < range.end {
            match self.walk(va) {
                Ok(w) => {
                    let new = w.pte.with(set).without(clear);
                    if new != w.pte {
                        let level = Self::leaf_level(w.size);
                        self.table_mut(w.leaf_table())[va.pt_index(level)] = new;
                        changed.push((w.page_base, new, w.size));
                    }
                    va = w.page_base.add(w.size.bytes());
                }
                Err(_) => va = va.add(PageSize::Size4K.bytes()),
            }
        }
        changed
    }

    /// Split the 2MB huge leaf covering `va` in place: the leaf is
    /// replaced by a table of 512 4KB entries pointing at the same frames
    /// with the same flags (Linux's `__split_huge_pmd`). Every 4KB
    /// translation is unchanged, so the only stale cached state is the
    /// huge-grained TLB entry itself — which the caller's ranged flush
    /// removes, because INVLPG drops covering huge entries too.
    ///
    /// Returns `Ok(true)` if a split happened, `Ok(false)` if the leaf is
    /// already 4KB. 1GB leaves are not split (nothing maps them this way).
    pub fn split_huge_leaf(&mut self, mem: &mut PhysMem, va: VirtAddr) -> SimResult<bool> {
        let w = self.walk(va)?;
        match w.size {
            PageSize::Size4K => return Ok(false),
            PageSize::Size1G => {
                return Err(SimError::InvalidArgument(format!(
                    "cannot split 1GB leaf at {va}"
                )))
            }
            PageSize::Size2M => {}
        }
        let parent = w.leaf_table();
        let idx = w.page_base.pt_index(1);
        let new = self.alloc_table(mem)?;
        let flags = w.pte.flags.without(PteFlags::HUGE);
        for i in 0..512u64 {
            self.table_mut(new)[i as usize] = Pte::new(w.pte.addr.add(i * 4096), flags);
        }
        self.table_mut(parent)[idx] = Pte::new(new, table_flags());
        Ok(true)
    }

    /// If the 4KB page table covering the 2MB-aligned window at `va`
    /// exists but holds no present entries (every PTE was zapped, e.g.
    /// by `MADV_DONTNEED`, which does not garbage-collect tables),
    /// unlink and free it, leaving the PD slot empty so a hugepage leaf
    /// can be installed — the fault-time analogue of collapsing an
    /// empty PMD before a THP allocation. Returns true if a table was
    /// freed.
    pub fn collapse_empty_pt(&mut self, mem: &mut PhysMem, va: VirtAddr) -> bool {
        let win = va.align_down(PageSize::Size2M);
        let mut table_addr = self.root;
        for level in (2..=3).rev() {
            let entry = self.table(table_addr)[win.pt_index(level)];
            if !entry.present() || entry.huge() {
                return false;
            }
            table_addr = entry.addr;
        }
        let entry = self.table(table_addr)[win.pt_index(1)];
        if !entry.present() || entry.huge() {
            return false;
        }
        if self.table(entry.addr).iter().any(|e| e.present()) {
            return false;
        }
        self.free_table(mem, entry.addr);
        self.table_mut(table_addr)[win.pt_index(1)] = Pte::EMPTY;
        true
    }

    /// Enumerate present leaves in `range` as `(page base, entry, size)`.
    pub fn iter_range(&self, range: VirtRange) -> Vec<(VirtAddr, Pte, PageSize)> {
        let mut found = Vec::new();
        let mut va = range.start.align_down(PageSize::Size4K);
        while va < range.end {
            match self.walk(va) {
                Ok(w) => {
                    found.push((w.page_base, w.pte, w.size));
                    va = w.page_base.add(w.size.bytes());
                }
                Err(_) => va = va.add(PageSize::Size4K.bytes()),
            }
        }
        found
    }

    /// Free every table page including the root (address-space teardown).
    pub fn destroy(mut self, mem: &mut PhysMem) {
        let pfns: Vec<u64> = self.tables.keys().copied().collect();
        for pfn in pfns {
            self.free_table(mem, PhysAddr::new(pfn << 12));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, AddrSpace) {
        let mut mem = PhysMem::new(1 << 20);
        let space = AddrSpace::new(&mut mem).unwrap();
        (mem, space)
    }

    #[test]
    fn map_walk_roundtrip_4k() {
        let (mut mem, mut s) = setup();
        let va = VirtAddr::new(0x7f00_0000_0000);
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        s.map(&mut mem, va, pa, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        let w = s.walk(va.add(0x123)).unwrap();
        assert_eq!(w.pte.addr, pa);
        assert_eq!(w.size, PageSize::Size4K);
        assert_eq!(w.translate(va.add(0x123)), pa.add(0x123));
        assert_eq!(w.depth, 4, "4KB walk touches 4 table pages");
        assert_eq!(w.page_base, va);
    }

    #[test]
    fn map_walk_roundtrip_2m() {
        let (mut mem, mut s) = setup();
        let va = VirtAddr::new(0x4020_0000);
        let pa = mem.alloc_contiguous(512, FrameState::UserPage).unwrap();
        // alloc_contiguous may return unaligned base; align for the test.
        let pa = PhysAddr::new((pa.as_u64() + HUGE - 1) & !(HUGE - 1));
        const HUGE: u64 = 2 * 1024 * 1024;
        s.map(&mut mem, va, pa, PageSize::Size2M, PteFlags::user_rw())
            .unwrap();
        let w = s.walk(va.add(0x12345)).unwrap();
        assert_eq!(w.size, PageSize::Size2M);
        assert!(w.pte.huge());
        assert_eq!(w.depth, 3, "2MB walk touches 3 table pages");
        assert_eq!(w.translate(va.add(0x12345)), pa.add(0x12345));
    }

    #[test]
    fn split_huge_leaf_preserves_every_translation() {
        let (mut mem, mut s) = setup();
        let va = VirtAddr::new(0x4020_0000);
        let pa = mem
            .alloc_contiguous_aligned(512, 512, FrameState::UserPage)
            .unwrap();
        s.map(&mut mem, va, pa, PageSize::Size2M, PteFlags::user_rw())
            .unwrap();
        assert!(s.split_huge_leaf(&mut mem, va.add(0x5_1000)).unwrap());
        // Now 512 4K leaves covering the same frames with the same flags.
        for i in [0u64, 1, 17, 511] {
            let w = s.walk(va.add(i * 4096 + 0x321)).unwrap();
            assert_eq!(w.size, PageSize::Size4K);
            assert_eq!(
                w.translate(va.add(i * 4096 + 0x321)),
                pa.add(i * 4096 + 0x321)
            );
            assert!(w.pte.flags.permits(true, false, true));
            assert!(!w.pte.huge());
        }
        // Idempotent: the leaf is already 4K.
        assert!(!s.split_huge_leaf(&mut mem, va).unwrap());
        // A partial zap after the split removes exactly the zapped pages.
        let out = s.zap_range(VirtRange::pages(va, 8, PageSize::Size4K));
        assert_eq!(out.removed.len(), 8);
        assert!(s.walk(va).is_err());
        assert!(s.walk(va.add(8 * 4096)).is_ok(), "remainder still mapped");
    }

    #[test]
    fn collapse_empty_pt_rearms_huge_mapping_after_zap() {
        let (mut mem, mut s) = setup();
        let va = VirtAddr::new(0x4020_0000);
        for i in 0..512u64 {
            let pa = mem.alloc(FrameState::UserPage).unwrap();
            s.map(
                &mut mem,
                va.add(i * 4096),
                pa,
                PageSize::Size4K,
                PteFlags::user_rw(),
            )
            .unwrap();
        }
        // Populated table: no collapse.
        assert!(!s.collapse_empty_pt(&mut mem, va.add(0x1234)));
        s.zap_range(VirtRange::pages(va, 512, PageSize::Size4K));
        // zap_range leaves the empty PT in place, blocking a 2M map...
        let huge_pa = mem
            .alloc_contiguous_aligned(512, 512, FrameState::UserPage)
            .unwrap();
        assert!(s
            .map(&mut mem, va, huge_pa, PageSize::Size2M, PteFlags::user_rw())
            .is_err());
        // ...until the collapse frees it.
        assert!(s.collapse_empty_pt(&mut mem, va.add(0x1234)));
        assert!(
            !s.collapse_empty_pt(&mut mem, va),
            "second collapse is a no-op"
        );
        s.map(&mut mem, va, huge_pa, PageSize::Size2M, PteFlags::user_rw())
            .unwrap();
        assert_eq!(s.walk(va).unwrap().size, PageSize::Size2M);
    }

    #[test]
    fn aligned_contiguous_alloc_is_aligned() {
        let mut mem = PhysMem::new(1 << 20);
        mem.alloc(FrameState::KernelPage).unwrap(); // skew the cursor
        let pa = mem
            .alloc_contiguous_aligned(512, 512, FrameState::UserPage)
            .unwrap();
        assert_eq!(pa.as_u64() % (2 * 1024 * 1024), 0);
    }

    #[test]
    fn double_map_is_an_error() {
        let (mut mem, mut s) = setup();
        let va = VirtAddr::new(0x1000);
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        s.map(&mut mem, va, pa, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        assert!(s
            .map(&mut mem, va, pa, PageSize::Size4K, PteFlags::user_rw())
            .is_err());
    }

    #[test]
    fn misaligned_map_is_an_error() {
        let (mut mem, mut s) = setup();
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        assert!(s
            .map(
                &mut mem,
                VirtAddr::new(0x800),
                pa,
                PageSize::Size4K,
                PteFlags::user_rw()
            )
            .is_err());
    }

    #[test]
    fn walk_of_unmapped_fails() {
        let (_mem, s) = setup();
        assert_eq!(
            s.walk(VirtAddr::new(0x5000)),
            Err(SimError::NotMapped(VirtAddr::new(0x5000)))
        );
    }

    #[test]
    fn zap_keeps_tables_unmap_frees_them() {
        let (mut mem, mut s) = setup();
        let base = VirtAddr::new(0x10_0000);
        for i in 0..8 {
            let pa = mem.alloc(FrameState::UserPage).unwrap();
            s.map(
                &mut mem,
                base.add(i * 4096),
                pa,
                PageSize::Size4K,
                PteFlags::user_rw(),
            )
            .unwrap();
        }
        let tables_before = s.tables.len();
        let out = s.zap_range(VirtRange::pages(base, 8, PageSize::Size4K));
        assert_eq!(out.removed.len(), 8);
        assert!(!out.freed_tables, "zap must keep table pages");
        assert_eq!(s.tables.len(), tables_before, "zap must keep table pages");

        // Remap and then unmap: tables are garbage-collected.
        for i in 0..8 {
            let pa = mem.alloc(FrameState::UserPage).unwrap();
            s.map(
                &mut mem,
                base.add(i * 4096),
                pa,
                PageSize::Size4K,
                PteFlags::user_rw(),
            )
            .unwrap();
        }
        let out = s.unmap_range(&mut mem, VirtRange::pages(base, 8, PageSize::Size4K));
        assert_eq!(out.removed.len(), 8);
        assert!(out.freed_tables, "unmap must free empty table pages");
        assert_eq!(s.tables.len(), 1, "only the root remains");
    }

    #[test]
    fn protect_range_write_protects() {
        let (mut mem, mut s) = setup();
        let base = VirtAddr::new(0x20_0000);
        for i in 0..4 {
            let pa = mem.alloc(FrameState::UserPage).unwrap();
            s.map(
                &mut mem,
                base.add(i * 4096),
                pa,
                PageSize::Size4K,
                PteFlags::user_rw(),
            )
            .unwrap();
        }
        let changed = s.protect_range(
            VirtRange::pages(base, 4, PageSize::Size4K),
            PteFlags::empty(),
            PteFlags::WRITABLE,
        );
        assert_eq!(changed.len(), 4);
        for (va, pte, _) in changed {
            assert!(!pte.writable());
            assert_eq!(s.entry(va).unwrap().0, pte);
        }
        // A second identical pass changes nothing.
        let changed = s.protect_range(
            VirtRange::pages(base, 4, PageSize::Size4K),
            PteFlags::empty(),
            PteFlags::WRITABLE,
        );
        assert!(changed.is_empty());
    }

    #[test]
    fn mark_used_sets_accessed_and_dirty() {
        let (mut mem, mut s) = setup();
        let va = VirtAddr::new(0x3000);
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        s.map(&mut mem, va, pa, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        s.mark_used(va, false).unwrap();
        let (p, _) = s.entry(va).unwrap();
        assert!(p.flags.contains(PteFlags::ACCESSED));
        assert!(!p.dirty());
        s.mark_used(va, true).unwrap();
        assert!(s.entry(va).unwrap().0.dirty());
    }

    #[test]
    fn destroy_frees_all_tables() {
        let (mut mem, mut s) = setup();
        for i in 0..4 {
            let pa = mem.alloc(FrameState::UserPage).unwrap();
            s.map(
                &mut mem,
                VirtAddr::new(0x4000_0000 + i * 0x20_0000 * 512),
                pa,
                PageSize::Size4K,
                PteFlags::user_rw(),
            )
            .unwrap();
        }
        let frames_before_destroy = mem.allocated_frames();
        let tables = s.tables.len() as u64;
        assert!(tables > 1);
        s.destroy(&mut mem);
        assert_eq!(mem.allocated_frames(), frames_before_destroy - tables);
    }

    #[test]
    fn iter_range_skips_holes() {
        let (mut mem, mut s) = setup();
        let base = VirtAddr::new(0x50_0000);
        for i in [0u64, 2, 5] {
            let pa = mem.alloc(FrameState::UserPage).unwrap();
            s.map(
                &mut mem,
                base.add(i * 4096),
                pa,
                PageSize::Size4K,
                PteFlags::user_rw(),
            )
            .unwrap();
        }
        let found = s.iter_range(VirtRange::pages(base, 6, PageSize::Size4K));
        let vas: Vec<u64> = found
            .iter()
            .map(|(v, _, _)| (v.as_u64() - base.as_u64()) / 4096)
            .collect();
        assert_eq!(vas, vec![0, 2, 5]);
    }

    #[test]
    fn update_entry_returns_old() {
        let (mut mem, mut s) = setup();
        let va = VirtAddr::new(0x6000);
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        s.map(&mut mem, va, pa, PageSize::Size4K, PteFlags::user_cow())
            .unwrap();
        let pa2 = mem.alloc(FrameState::UserPage).unwrap();
        let old = s
            .update_entry(va, |_| Pte::new(pa2, PteFlags::user_rw()))
            .unwrap();
        assert_eq!(old.addr, pa);
        assert!(old.flags.contains(PteFlags::COW));
        let (new, _) = s.entry(va).unwrap();
        assert_eq!(new.addr, pa2);
        assert!(new.writable());
    }
}
