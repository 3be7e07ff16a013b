//! Address spaces, VMAs and the simulated page cache.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::sem::RwSem;
use tlbdown_core::MmGen;
use tlbdown_mem::{AddrSpace, Pte};
use tlbdown_types::{CoreId, FastMap, Pcid, PhysAddr, SimError, SimResult, VirtAddr, VirtRange};

/// Identifier of a simulated file (page-cache object).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// A simulated file: a page-cache page per 4KB offset. Dirtiness lives in
/// the PTEs that map it (and the machine's dirty index).
#[derive(Debug)]
pub struct File {
    /// Page-cache frames, one per file page.
    pub pages: Vec<PhysAddr>,
}

/// What backs a VMA.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmaKind {
    /// Private anonymous memory (demand-zero).
    Anon,
    /// Shared file mapping (`MAP_SHARED`): writes dirty the page cache.
    FileShared {
        /// Backing file.
        file: FileId,
        /// File offset of the mapping start, in pages.
        page_offset: u64,
    },
    /// Private file mapping (`MAP_PRIVATE`): reads share page-cache frames
    /// copy-on-write.
    FilePrivate {
        /// Backing file.
        file: FileId,
        /// File offset of the mapping start, in pages.
        page_offset: u64,
    },
}

/// A virtual memory area.
#[derive(Clone, Debug)]
pub struct Vma {
    /// The address range covered.
    pub range: VirtRange,
    /// Backing store.
    pub kind: VmaKind,
    /// Whether writes are permitted (`PROT_WRITE`).
    pub prot_write: bool,
    /// Whether execution is permitted (`PROT_EXEC`).
    pub prot_exec: bool,
    /// Whether this VMA is eligible for transparent-hugepage promotion
    /// (`MADV_HUGEPAGE`): a demand fault in a fully-unmapped, 2MB-aligned
    /// window of an anonymous THP VMA maps one 2MB leaf instead of a 4KB
    /// page. Ranged zaps split the leaf in place first (fracture).
    pub thp: bool,
}

impl Vma {
    /// Whether `va` falls inside this VMA.
    pub(crate) fn contains(&self, va: VirtAddr) -> bool {
        self.range.contains(va)
    }
}

/// Capacity of the per-mm reuse-skip window (L7). Bounded so parked
/// frames — which stay referenced and unfreed while parked — cannot grow
/// without limit; overflow evicts the oldest entry and pays its flush debt.
pub const REUSE_WINDOW_CAP: usize = 32;

/// One parked page in the reuse-skip window: the exact PTE the zap
/// removed, the kernel-side PTE version recorded at park time, and the
/// oracle `(vpn, version)` pairs whose flush guarantee is still owed.
#[derive(Clone, Debug)]
pub(crate) struct ReuseEntry {
    /// The removed PTE, reinstalled verbatim on a window hit.
    pub(crate) pte: Pte,
    /// Kernel-side PTE version at park time; a reuse is only legal while
    /// this still equals the page's current version.
    pub(crate) version: u64,
    /// Oracle pairs owed to `retire_exact` if a debt flush ever runs.
    /// Empty once the guarantee has been declared (reuse restore, or the
    /// buggy retire-at-park shortcut).
    pub(crate) retire: Vec<(u64, u64)>,
}

/// The bounded per-mm window of recently zapped pages (arXiv 2409.10946).
///
/// `madvise(DONTNEED)` under `OptConfig::reuse_skip` parks zapped pages
/// here instead of flushing: the frame stays referenced, the PTE and its
/// version are remembered, and the oracle pairs stay *un-retired* (an
/// elided flush may never claim the guarantee). A demand fault that hits
/// the window with a matching version reinstalls the identical PTE with no
/// shootdown; any conflicting operation (munmap/mprotect/writeback/re-zap)
/// or a capacity eviction pays the debt — a real flush that retires the
/// parked pairs — before the page changes meaning.
#[derive(Debug, Default)]
pub struct ReuseWindow {
    entries: BTreeMap<u64, ReuseEntry>,
    order: VecDeque<u64>,
}

impl ReuseWindow {
    /// A fresh, empty window.
    pub(crate) fn new() -> Self {
        ReuseWindow::default()
    }

    /// Park a zapped page. Returns the evicted oldest entry when the
    /// window is at `cap` (the caller must pay its flush debt). The cap
    /// comes from [`crate::KernelConfig::reuse_window_cap`] so scenarios
    /// can shrink the window and exercise capacity evictions with small
    /// workloads.
    pub(crate) fn park(
        &mut self,
        vpn: u64,
        entry: ReuseEntry,
        cap: usize,
    ) -> Option<(u64, ReuseEntry)> {
        let mut evicted = None;
        if !self.entries.contains_key(&vpn) && self.entries.len() >= cap {
            if let Some(old_vpn) = self.order.pop_front() {
                evicted = self.entries.remove(&old_vpn).map(|e| (old_vpn, e));
            }
        }
        if self.entries.insert(vpn, entry).is_none() {
            self.order.push_back(vpn);
        }
        evicted
    }

    /// Remove and return the parked entry for `vpn`, if any.
    pub(crate) fn take(&mut self, vpn: u64) -> Option<ReuseEntry> {
        let e = self.entries.remove(&vpn);
        if e.is_some() {
            self.order.retain(|&v| v != vpn);
        }
        e
    }

    /// Peek at the parked entry for `vpn`.
    pub(crate) fn get(&self, vpn: u64) -> Option<&ReuseEntry> {
        self.entries.get(&vpn)
    }

    /// Mutable peek (version refresh on a covering re-zap).
    pub(crate) fn get_mut(&mut self, vpn: u64) -> Option<&mut ReuseEntry> {
        self.entries.get_mut(&vpn)
    }

    /// Remove and return every parked entry whose page lies in `range`
    /// (conflicting-operation invalidation), in ascending vpn order.
    pub(crate) fn take_range(&mut self, range: VirtRange) -> Vec<(u64, ReuseEntry)> {
        let lo = range.start.vpn();
        let hi = range.end.vpn();
        let vpns: Vec<u64> = self
            .entries
            .range(lo..hi.max(lo))
            .map(|(&v, _)| v)
            .collect();
        let mut out = Vec::new();
        for vpn in vpns {
            if let Some(e) = self.take(vpn) {
                out.push((vpn, e));
            }
        }
        out
    }

    /// Number of parked pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate parked entries in ascending vpn order (digest folding).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&u64, &ReuseEntry)> {
        self.entries.iter()
    }

    /// The FIFO eviction order, oldest first. Part of the protocol state:
    /// which entry an overflow evicts decides which debt flush runs next.
    pub(crate) fn fifo_order(&self) -> impl Iterator<Item = &u64> {
        self.order.iter()
    }
}

/// A stale PTE in a socket's numaPTE page-table replica: the translation
/// the replica still holds and the version it corresponds to. Only the
/// `buggy_numapte` injection ever creates these — the real L8 path syncs
/// every socket's replica deterministically at update time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StalePte {
    /// The old translation the un-synced replica still serves.
    pub(crate) pte: Pte,
    /// The modification version the replica last saw (current - 1 at the
    /// time the sync was skipped).
    pub(crate) version: u64,
}

/// An address space (`mm_struct`).
#[derive(Debug)]
pub struct Mm {
    /// The (kernel-view) page tables. Under PTI the user view shares leaf
    /// PTEs; the simulation models the user view as the same table set
    /// accessed under the user PCID.
    pub space: AddrSpace,
    /// TLB generation counter.
    pub gen: MmGen,
    /// Cores on which this mm is (or may be) loaded, including lazy ones.
    pub(crate) cpumask: BTreeSet<CoreId>,
    /// VMAs by start address.
    pub(crate) vmas: BTreeMap<u64, Vma>,
    /// `mmap_sem`.
    pub(crate) mmap_sem: RwSem,
    /// The kernel-view PCID assigned to this mm (user view is the PTI
    /// sibling). The simulation assigns PCIDs globally and never recycles
    /// them — a documented simplification of Linux's 6-slot per-CPU cache.
    pub pcid: Pcid,
    /// Next unused address for anonymous mmap placement.
    pub mmap_cursor: VirtAddr,
    /// L7 reuse-skip window of recently zapped pages. Empty (and never
    /// consulted) unless `OptConfig::reuse_skip` is on.
    pub reuse: ReuseWindow,
    /// Kernel-side per-page PTE version counters backing the reuse-skip
    /// versioned-PTE check. Maintained only while `reuse_skip` is on, so
    /// the oracle-independent kernel can prove "nothing modified this page
    /// since it was parked" without consulting the checker.
    pub pte_versions: BTreeMap<u64, u64>,
    /// L8 numaPTE replica staleness, per socket: vpns whose per-socket
    /// page-table replica still holds an old PTE. The real replica-sync
    /// path keeps this empty; only `buggy_numapte` (skipping remote-socket
    /// sync) populates it.
    pub(crate) numa_stale: BTreeMap<u32, BTreeMap<u64, StalePte>>,
}

impl Mm {
    /// Find the VMA containing `va`.
    pub fn vma_at(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas
            .range(..=va.as_u64())
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(va))
    }

    /// Insert a VMA; rejects overlap.
    pub fn insert_vma(&mut self, vma: Vma) -> SimResult<()> {
        let overlapping = self.vmas.values().any(|v| v.range.overlaps(&vma.range));
        if overlapping {
            return Err(SimError::InvalidArgument(format!(
                "vma {:?} overlaps an existing mapping",
                vma.range
            )));
        }
        self.vmas.insert(vma.range.start.as_u64(), vma);
        Ok(())
    }

    /// Remove VMAs fully covered by `range`; partial overlaps split.
    pub(crate) fn remove_vmas(&mut self, range: VirtRange) -> Vec<Vma> {
        let keys: Vec<u64> = self
            .vmas
            .iter()
            .filter(|(_, v)| v.range.overlaps(&range))
            .map(|(k, _)| *k)
            .collect();
        let mut removed = Vec::new();
        for k in keys {
            let Some(v) = self.vmas.remove(&k) else {
                continue;
            };
            // Split off any uncovered prefix/suffix.
            if v.range.start < range.start {
                let mut prefix = v.clone();
                prefix.range = VirtRange::new(v.range.start, range.start);
                self.vmas.insert(prefix.range.start.as_u64(), prefix);
            }
            if v.range.end > range.end {
                let mut suffix = v.clone();
                suffix.range = VirtRange::new(range.end, v.range.end);
                // File-backed VMAs must shift their page offset.
                suffix.kind = match v.kind {
                    VmaKind::FileShared { file, page_offset } => VmaKind::FileShared {
                        file,
                        page_offset: page_offset
                            + (range.end.as_u64() - v.range.start.as_u64()) / 4096,
                    },
                    VmaKind::FilePrivate { file, page_offset } => VmaKind::FilePrivate {
                        file,
                        page_offset: page_offset
                            + (range.end.as_u64() - v.range.start.as_u64()) / 4096,
                    },
                    k => k,
                };
                self.vmas.insert(suffix.range.start.as_u64(), suffix);
            }
            removed.push(v);
        }
        removed
    }
}

/// Reference counts for data frames shared across mappings (CoW, page
/// cache), i.e. `struct page::_refcount`.
#[derive(Debug, Default)]
pub(crate) struct FrameRefs {
    refs: FastMap<u64, u32>,
}

impl FrameRefs {
    /// New empty table.
    pub(crate) fn new() -> Self {
        FrameRefs::default()
    }

    /// Increment the refcount of the frame at `pa` (insert at 1).
    pub(crate) fn get_page(&mut self, pa: PhysAddr) {
        *self.refs.entry(pa.pfn()).or_insert(0) += 1;
    }

    /// Decrement; returns `Ok(true)` when the count hits zero (frame may
    /// be freed by the caller). An untracked frame — a double free or an
    /// unmatched put — surfaces as [`SimError::FrameUnderflow`] so the
    /// unmap/CoW hot paths record it instead of panicking.
    pub(crate) fn put_page(&mut self, pa: PhysAddr) -> SimResult<bool> {
        let Some(c) = self.refs.get_mut(&pa.pfn()) else {
            return Err(SimError::FrameUnderflow { pfn: pa.pfn() });
        };
        *c -= 1;
        if *c == 0 {
            self.refs.remove(&pa.pfn());
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

impl crate::machine::Machine {
    /// Record an address-space operation (`munmap`, `madvise_dontneed`,
    /// …) in the trace.
    pub(crate) fn trace_mm_op(
        &mut self,
        core: tlbdown_types::CoreId,
        kind: &'static str,
        pages: u64,
    ) {
        crate::tracewire::trace_emit!(
            self,
            core,
            None::<u64>,
            tlbdown_trace::TraceEvent::MmOp { kind, pages }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_mem::PhysMem;
    use tlbdown_types::PageSize;

    fn mm() -> (PhysMem, Mm) {
        let mut mem = PhysMem::new(1 << 16);
        let space = AddrSpace::new(&mut mem).unwrap();
        let m = Mm {
            space,
            gen: MmGen::new(),
            cpumask: BTreeSet::new(),
            vmas: BTreeMap::new(),
            mmap_sem: RwSem::new(),
            pcid: Pcid::new(1),
            mmap_cursor: VirtAddr::new(0x1000_0000),
            reuse: ReuseWindow::new(),
            pte_versions: BTreeMap::new(),
            numa_stale: BTreeMap::new(),
        };
        (mem, m)
    }

    fn anon(start: u64, pages: u64) -> Vma {
        Vma {
            range: VirtRange::pages(VirtAddr::new(start), pages, PageSize::Size4K),
            kind: VmaKind::Anon,
            prot_write: true,
            prot_exec: false,
            thp: false,
        }
    }

    #[test]
    fn vma_lookup() {
        let (_mem, mut m) = mm();
        m.insert_vma(anon(0x1000, 4)).unwrap();
        m.insert_vma(anon(0x10000, 2)).unwrap();
        assert!(m.vma_at(VirtAddr::new(0x2000)).is_some());
        assert!(m.vma_at(VirtAddr::new(0x5000)).is_none());
        assert!(m.vma_at(VirtAddr::new(0x11000)).is_some());
        assert!(m.vma_at(VirtAddr::new(0xfff)).is_none());
    }

    #[test]
    fn overlapping_vma_rejected() {
        let (_mem, mut m) = mm();
        m.insert_vma(anon(0x1000, 4)).unwrap();
        assert!(m.insert_vma(anon(0x3000, 4)).is_err());
    }

    #[test]
    fn remove_vmas_splits_partial_overlap() {
        let (_mem, mut m) = mm();
        m.insert_vma(anon(0x1000, 10)).unwrap();
        // Unmap the middle 4 pages.
        let removed = m.remove_vmas(VirtRange::pages(VirtAddr::new(0x3000), 4, PageSize::Size4K));
        assert_eq!(removed.len(), 1);
        assert_eq!(m.vmas.len(), 2, "prefix and suffix remain");
        assert!(m.vma_at(VirtAddr::new(0x1000)).is_some());
        assert!(m.vma_at(VirtAddr::new(0x3000)).is_none());
        assert!(m.vma_at(VirtAddr::new(0x7000)).is_some());
    }

    #[test]
    fn file_suffix_offset_shifts() {
        let (_mem, mut m) = mm();
        let vma = Vma {
            range: VirtRange::pages(VirtAddr::new(0x1000), 8, PageSize::Size4K),
            kind: VmaKind::FileShared {
                file: FileId(1),
                page_offset: 10,
            },
            prot_write: true,
            prot_exec: false,
            thp: false,
        };
        m.insert_vma(vma).unwrap();
        m.remove_vmas(VirtRange::pages(VirtAddr::new(0x1000), 3, PageSize::Size4K));
        let suffix = m.vma_at(VirtAddr::new(0x4000)).unwrap();
        match suffix.kind {
            VmaKind::FileShared { page_offset, .. } => assert_eq!(page_offset, 13),
            _ => panic!("wrong kind"),
        }
    }

    fn parked(version: u64) -> ReuseEntry {
        ReuseEntry {
            pte: Pte::new(PhysAddr::new(0x8000), tlbdown_types::PteFlags::user_rw()),
            version,
            retire: vec![(1, version)],
        }
    }

    #[test]
    fn reuse_window_parks_and_takes() {
        let mut w = ReuseWindow::new();
        assert!(w.park(7, parked(1), REUSE_WINDOW_CAP).is_none());
        assert!(w.entries.contains_key(&7));
        let e = w.take(7).unwrap();
        assert_eq!(e.version, 1);
        assert!(w.is_empty());
        assert!(w.take(7).is_none());
    }

    #[test]
    fn reuse_window_evicts_oldest_at_capacity() {
        let mut w = ReuseWindow::new();
        for vpn in 0..REUSE_WINDOW_CAP as u64 {
            assert!(w.park(vpn, parked(1), REUSE_WINDOW_CAP).is_none());
        }
        // One more: vpn 0 (the oldest) must pop out for debt payment.
        let (evicted_vpn, _) = w.park(1000, parked(2), REUSE_WINDOW_CAP).unwrap();
        assert_eq!(evicted_vpn, 0);
        assert_eq!(w.len(), REUSE_WINDOW_CAP);
        assert!(!w.entries.contains_key(&0) && w.entries.contains_key(&1000));
    }

    #[test]
    fn reuse_window_take_range_invalidates_overlap() {
        let mut w = ReuseWindow::new();
        for vpn in [2u64, 5, 9] {
            w.park(vpn, parked(1), REUSE_WINDOW_CAP);
        }
        // Pages [4, 8) cover vpn 5 only.
        let hit = w.take_range(VirtRange::pages(
            VirtAddr::new(4 * 4096),
            4,
            PageSize::Size4K,
        ));
        assert_eq!(hit.iter().map(|(v, _)| *v).collect::<Vec<_>>(), vec![5]);
        assert!(
            w.entries.contains_key(&2) && w.entries.contains_key(&9) && !w.entries.contains_key(&5)
        );
    }

    #[test]
    fn frame_refcounts() {
        let mut r = FrameRefs::new();
        let pa = PhysAddr::new(0x5000);
        r.get_page(pa);
        r.get_page(pa);
        assert_eq!(r.refs.get(&pa.pfn()), Some(&2));
        assert_eq!(r.put_page(pa), Ok(false));
        assert_eq!(r.put_page(pa), Ok(true));
        assert_eq!(r.refs.get(&pa.pfn()), None);
        // A third put is a double free: a typed error, not a panic.
        assert_eq!(
            r.put_page(pa),
            Err(SimError::FrameUnderflow { pfn: pa.pfn() })
        );
    }
}
