//! The TLB data structure and its flush-instruction semantics.

use std::collections::VecDeque;

use tlbdown_mem::{AddrSpace, Pte};
use tlbdown_types::{CostModel, Cycles, FastMap, FastSet, PageSize, Pcid, VirtAddr};

use crate::geometry::{SetAssocGeometry, TlbGeometry};

/// Tag used in entry keys for global entries (matched under any PCID).
const GLOBAL_TAG: u16 = u16::MAX;

/// Default unified TLB capacity, sized like a Skylake STLB.
pub(crate) const DEFAULT_CAPACITY: usize = 1536;
/// Default paging-structure cache capacity.
pub(crate) const DEFAULT_PWC_CAPACITY: usize = 32;

/// One cached translation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TlbEntry {
    /// Base virtual address of the mapped page.
    pub page_base: VirtAddr,
    /// Size of the mapped page.
    pub size: PageSize,
    /// PCID this entry was filled under (meaningless if `global`).
    pub pcid: Pcid,
    /// Whether the entry matches under any PCID.
    pub global: bool,
    /// Snapshot of the page-table entry at fill time. The kernel's safety
    /// oracle compares this against the live page tables.
    pub pte: Pte,
    /// Whether the entry was created by a fractured nested walk
    /// (2MB guest page over 4KB host pages — §7 / Table 4).
    pub fractured: bool,
    /// Monotone fill sequence number (FIFO replacement & staleness checks).
    pub fill_seq: u64,
}

type Key = (u16, u64, u8);

fn size_idx(s: PageSize) -> u8 {
    match s {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    }
}

fn key_for(pcid_tag: u16, va: VirtAddr, size: PageSize) -> Key {
    (pcid_tag, va.align_down(size).as_u64(), size_idx(size))
}

fn size_shift(idx: u8) -> u32 {
    match idx {
        0 => 12,
        1 => 21,
        _ => 30,
    }
}

/// STLB slot for a key: structure id (0 = unified 4K/2M, 1 = 1G) plus the
/// set index, and that structure's associativity. Sets are indexed by the
/// virtual page number at the page's native shift, like hardware — entries
/// from different PCIDs compete for the same set.
fn stlb_slot(g: &SetAssocGeometry, key: &Key) -> ((u8, u32), u32) {
    let (_, base, idx) = *key;
    let vpn = base >> size_shift(idx);
    let (structure, sw) = if idx == 2 {
        (1u8, g.stlb_1g)
    } else {
        (0u8, g.stlb_4k_2m)
    };
    ((structure, (vpn % u64::from(sw.sets)) as u32), sw.ways)
}

/// L1 slot for a key: one structure per page size.
fn l1_slot(g: &SetAssocGeometry, key: &Key) -> ((u8, u32), u32) {
    let (_, base, idx) = *key;
    let vpn = base >> size_shift(idx);
    let sw = match idx {
        0 => g.l1_4k,
        1 => g.l1_2m,
        _ => g.l1_1g,
    };
    ((idx, (vpn % u64::from(sw.sets)) as u32), sw.ways)
}

/// Why a TLB access could not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbFault {
    /// No present mapping for the address.
    NotPresent,
    /// A mapping exists but forbids the access (e.g. write to CoW page).
    Protection,
}

/// Result of a successful TLB access.
#[derive(Clone, Debug)]
pub struct Access {
    /// Whether the access hit the TLB (false = filled by a page walk).
    pub hit: bool,
    /// Cycle cost of the access, including any page walk.
    pub cost: Cycles,
    /// The entry used or created, for oracle checks.
    pub entry: TlbEntry,
}

/// Counters for one TLB.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Accesses satisfied from the TLB.
    pub hits: u64,
    /// Accesses requiring a page walk.
    pub misses: u64,
    /// Entries inserted.
    pub(crate) fills: u64,
    /// Entries removed by any flush.
    pub(crate) entries_invalidated: u64,
    /// Selective (single-address) flush operations executed as requested.
    pub(crate) selective_flushes: u64,
    /// Full flushes executed as requested (CR3 write / flush_all).
    pub(crate) full_flushes: u64,
    /// Selective flushes escalated to full flushes by the fracture flag.
    pub fracture_escalations: u64,
    /// Complete paging-structure-cache wipes (INVLPG side-effect).
    pub(crate) pwc_flushes: u64,
    /// Entries dropped because a permission re-walk replaced them.
    pub(crate) perm_rewalks: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Times the fractured-entry accounting was found inconsistent and
    /// repaired (a residue after a full wipe, or a decrement below
    /// zero). Always zero in a correct model; checked in release builds
    /// too, where the old `debug_assert` would have let a stuck fracture
    /// flag silently escalate every later selective flush.
    pub(crate) fracture_leaks: u64,
    /// Hits that missed the L1 arrays and paid the STLB penalty. Always
    /// zero under the legacy single-pool geometry.
    pub stlb_hits: u64,
}

/// A small instruction-TLB model.
///
/// The ITLB only matters for one rule in the paper: the CoW optimization
/// must be skipped for executable PTEs because a data write does not evict
/// ITLB entries (§4.1). The model is therefore minimal: fill on fetch,
/// invalidate on the same flush operations as the dTLB, and *not* on data
/// accesses.
#[derive(Debug, Default)]
pub struct ItlbModel {
    entries: FastMap<Key, TlbEntry>,
}

impl ItlbModel {
    /// Look up a cached instruction translation.
    pub(crate) fn lookup(&self, pcid: Pcid, va: VirtAddr) -> Option<&TlbEntry> {
        for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            if let Some(e) = self.entries.get(&key_for(pcid.0, va, size)) {
                return Some(e);
            }
            if let Some(e) = self.entries.get(&key_for(GLOBAL_TAG, va, size)) {
                return Some(e);
            }
        }
        None
    }

    fn insert(&mut self, e: TlbEntry) {
        let tag = if e.global { GLOBAL_TAG } else { e.pcid.0 };
        self.entries.insert(key_for(tag, e.page_base, e.size), e);
    }

    fn invalidate_addr(&mut self, pcid_tag: Option<u16>, va: VirtAddr, and_globals: bool) {
        for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            if let Some(tag) = pcid_tag {
                self.entries.remove(&key_for(tag, va, size));
            }
            if and_globals {
                self.entries.remove(&key_for(GLOBAL_TAG, va, size));
            }
        }
    }

    fn flush_pcid(&mut self, pcid: Pcid) {
        self.entries.retain(|(tag, _, _), _| *tag != pcid.0);
    }

    fn flush_all(&mut self, include_global: bool) {
        if include_global {
            self.entries.clear();
        } else {
            self.entries.retain(|(tag, _, _), _| *tag == GLOBAL_TAG);
        }
    }
}

/// A per-core TLB with PCID tagging, a paging-structure cache and an ITLB.
///
/// # Examples
///
/// ```
/// use tlbdown_tlb::Tlb;
/// use tlbdown_mem::Pte;
/// use tlbdown_types::{PageSize, Pcid, PhysAddr, PteFlags, VirtAddr};
///
/// let mut tlb = Tlb::default();
/// let pte = Pte::new(PhysAddr::new(0x5000), PteFlags::user_rw());
/// tlb.fill_speculative(Pcid::new(1), VirtAddr::new(0x1000), PageSize::Size4K, pte);
/// assert!(tlb.lookup(Pcid::new(1), VirtAddr::new(0x1234)).is_some());
/// // Entries are PCID-tagged: another address space misses.
/// assert!(tlb.lookup(Pcid::new(2), VirtAddr::new(0x1234)).is_none());
/// // INVLPG removes the translation (and wipes the paging-structure cache).
/// tlb.invlpg(Pcid::new(1), VirtAddr::new(0x1000));
/// assert!(tlb.lookup(Pcid::new(1), VirtAddr::new(0x1234)).is_none());
/// ```
#[derive(Debug)]
pub struct Tlb {
    geometry: TlbGeometry,
    capacity: usize,
    entries: FastMap<Key, TlbEntry>,
    fifo: VecDeque<Key>,
    // Set-associative state, unused (and empty) under the legacy geometry.
    // `entries` stays the single source of truth for presence; these index
    // it per (structure, set) for replacement, and `l1` marks the subset
    // cached in the first-level arrays (inclusive hierarchy).
    set_fifo: FastMap<(u8, u32), VecDeque<Key>>,
    set_occ: FastMap<(u8, u32), u32>,
    l1: FastSet<Key>,
    l1_fifo: FastMap<(u8, u32), VecDeque<Key>>,
    l1_occ: FastMap<(u8, u32), u32>,
    split_blind_invlpg: bool,
    fill_seq: u64,
    fractured_count: usize,
    pwc: FastMap<(u16, u64), u64>,
    pwc_fifo: VecDeque<(u16, u64)>,
    pwc_capacity: usize,
    itlb: ItlbModel,
    stats: TlbStats,
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl Tlb {
    /// Create a TLB with the given unified capacity (legacy geometry).
    pub fn new(capacity: usize) -> Self {
        Self::with_geometry(TlbGeometry::Legacy { capacity })
    }

    /// Create a TLB with an explicit geometry.
    pub fn with_geometry(geometry: TlbGeometry) -> Self {
        let capacity = match &geometry {
            TlbGeometry::Legacy { capacity } => *capacity,
            // Under set-associative geometry capacity pressure is per set;
            // the pool bound is the STLB total so the legacy eviction loop
            // can never fire first.
            TlbGeometry::SetAssoc(g) => (g.stlb_4k_2m.capacity() + g.stlb_1g.capacity()) as usize,
        };
        Tlb {
            geometry,
            capacity,
            entries: FastMap::default(),
            fifo: VecDeque::new(),
            set_fifo: FastMap::default(),
            set_occ: FastMap::default(),
            l1: FastSet::default(),
            l1_fifo: FastMap::default(),
            l1_occ: FastMap::default(),
            split_blind_invlpg: false,
            fill_seq: 0,
            fractured_count: 0,
            pwc: FastMap::default(),
            pwc_fifo: VecDeque::new(),
            pwc_capacity: DEFAULT_PWC_CAPACITY,
            itlb: ItlbModel::default(),
            stats: TlbStats::default(),
        }
    }

    /// Inject the split-blind flush bug: selective flushes only remove the
    /// 4K-sized entry for the address, as if the flush loop walked the
    /// range at 4K stride assuming a huge-page split already removed the
    /// huge-grained entries. Full flushes are unaffected. Used by the
    /// `buggy_fracture` checker canary.
    pub fn set_split_blind_invlpg(&mut self, buggy: bool) {
        self.split_blind_invlpg = buggy;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Reset statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Count a hit observed by an external lookup path (used by access
    /// models, like the nested-translation CPU, that call [`Tlb::lookup`]
    /// directly).
    pub fn record_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Count a miss observed by an external lookup path.
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether any cached entry is fractured (the inferred Intel flag
    /// behind Table 4's full-flush behaviour).
    pub fn fracture_flag(&self) -> bool {
        self.fractured_count > 0
    }

    /// Iterate over all cached data translations (oracle checks).
    pub fn iter_entries(&self) -> impl Iterator<Item = &TlbEntry> {
        self.entries.values()
    }

    /// Look up the cached translation for `(pcid, va)`, if any.
    pub fn lookup(&self, pcid: Pcid, va: VirtAddr) -> Option<&TlbEntry> {
        for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            if let Some(e) = self.entries.get(&key_for(pcid.0, va, size)) {
                return Some(e);
            }
            if let Some(e) = self.entries.get(&key_for(GLOBAL_TAG, va, size)) {
                return Some(e);
            }
        }
        None
    }

    /// Drop one fractured entry from the count without wrapping: a
    /// decrement below zero means the accounting already broke, so it is
    /// recorded and skipped instead of underflowing `usize` in release.
    fn uncount_fractured(&mut self) {
        if self.fractured_count == 0 {
            self.stats.fracture_leaks += 1;
        } else {
            self.fractured_count -= 1;
        }
    }

    fn remove_key(&mut self, key: &Key) -> Option<TlbEntry> {
        let e = self.entries.remove(key)?;
        if e.fractured {
            self.uncount_fractured();
        }
        if let TlbGeometry::SetAssoc(g) = &self.geometry {
            let (slot, _) = stlb_slot(g, key);
            if let Some(occ) = self.set_occ.get_mut(&slot) {
                *occ = occ.saturating_sub(1);
            }
            if self.l1.remove(key) {
                let (slot, _) = l1_slot(g, key);
                if let Some(occ) = self.l1_occ.get_mut(&slot) {
                    *occ = occ.saturating_sub(1);
                }
            }
        }
        self.stats.entries_invalidated += 1;
        Some(e)
    }

    /// Promote a (present) translation into its L1 array, evicting the
    /// FIFO-oldest L1 resident of that set. L1 eviction only drops the L1
    /// residency bit — the entry stays in the STLB (inclusive hierarchy).
    fn l1_promote(&mut self, key: Key) {
        let TlbGeometry::SetAssoc(g) = &self.geometry else {
            return;
        };
        if !self.l1.insert(key) {
            return;
        }
        let (slot, ways) = l1_slot(g, &key);
        self.l1_fifo.entry(slot).or_default().push_back(key);
        *self.l1_occ.entry(slot).or_insert(0) += 1;
        while self.l1_occ.get(&slot).copied().unwrap_or(0) > ways {
            let Some(victim) = self.l1_fifo.get_mut(&slot).and_then(|q| q.pop_front()) else {
                break;
            };
            if self.l1.remove(&victim) {
                *self.l1_occ.get_mut(&slot).expect("occupied slot") -= 1;
            }
        }
    }

    /// Insert an entry, evicting FIFO-oldest entries on capacity pressure —
    /// pool-wide under the legacy geometry, per STLB set under a
    /// set-associative one.
    pub fn insert(&mut self, mut e: TlbEntry) {
        self.fill_seq += 1;
        e.fill_seq = self.fill_seq;
        let tag = if e.global { GLOBAL_TAG } else { e.pcid.0 };
        let key = key_for(tag, e.page_base, e.size);
        if e.fractured {
            self.fractured_count += 1;
        }
        let set_slot = match &self.geometry {
            TlbGeometry::Legacy { .. } => None,
            TlbGeometry::SetAssoc(g) => Some(stlb_slot(g, &key)),
        };
        if let Some(old) = self.entries.insert(key, e) {
            if old.fractured {
                self.uncount_fractured();
            }
        } else if let Some((slot, _)) = set_slot {
            self.set_fifo.entry(slot).or_default().push_back(key);
            *self.set_occ.entry(slot).or_insert(0) += 1;
        } else {
            self.fifo.push_back(key);
        }
        self.stats.fills += 1;
        if let Some((slot, ways)) = set_slot {
            while self.set_occ.get(&slot).copied().unwrap_or(0) > ways {
                let Some(victim) = self.set_fifo.get_mut(&slot).and_then(|q| q.pop_front()) else {
                    break;
                };
                if self.entries.contains_key(&victim) {
                    self.remove_key(&victim);
                    self.stats.evictions += 1;
                    // Evictions are not flush invalidations.
                    self.stats.entries_invalidated -= 1;
                }
            }
            self.l1_promote(key);
        } else {
            while self.entries.len() > self.capacity {
                if let Some(victim) = self.fifo.pop_front() {
                    if self.entries.contains_key(&victim) {
                        self.remove_key(&victim);
                        self.stats.evictions += 1;
                        // Evictions are not flush invalidations.
                        self.stats.entries_invalidated -= 1;
                    }
                } else {
                    break;
                }
            }
        }
    }

    /// Record a speculative fill: the CPU is architecturally free to cache
    /// a PTE any time it is present in the page tables, in particular
    /// between a page fault being raised and the kernel updating the PTE
    /// (the §4.1 hazard).
    pub fn fill_speculative(&mut self, pcid: Pcid, page_base: VirtAddr, size: PageSize, pte: Pte) {
        self.insert(TlbEntry {
            page_base,
            size,
            pcid,
            global: pte.global(),
            pte,
            fractured: false,
            fill_seq: 0,
        });
    }

    // --- Paging-structure cache ---

    /// Whether the PWC covers the upper levels of a walk for `(pcid, va)`.
    pub(crate) fn pwc_hit(&self, pcid: Pcid, va: VirtAddr) -> bool {
        self.pwc.contains_key(&(pcid.0, va.as_u64() >> 21))
    }

    fn pwc_insert(&mut self, pcid: Pcid, va: VirtAddr) {
        let key = (pcid.0, va.as_u64() >> 21);
        if self.pwc.insert(key, self.fill_seq).is_none() {
            self.pwc_fifo.push_back(key);
            while self.pwc.len() > self.pwc_capacity {
                if let Some(victim) = self.pwc_fifo.pop_front() {
                    self.pwc.remove(&victim);
                } else {
                    break;
                }
            }
        }
    }

    fn pwc_flush_all(&mut self) {
        if !self.pwc.is_empty() {
            self.stats.pwc_flushes += 1;
        }
        self.pwc.clear();
        self.pwc_fifo.clear();
    }

    // --- Flush instructions ---

    /// Escalate a selective flush to a full flush because a fractured entry
    /// is (or may be) cached — the Table 4 behaviour.
    fn fracture_escalate(&mut self) {
        self.stats.fracture_escalations += 1;
        let keys: Vec<Key> = self.entries.keys().copied().collect();
        for k in &keys {
            self.remove_key(k);
        }
        self.fifo.clear();
        self.set_fifo.clear();
        self.set_occ.clear();
        self.l1.clear();
        self.l1_fifo.clear();
        self.l1_occ.clear();
        self.itlb.flush_all(true);
        self.pwc_flush_all();
        // Every entry was just removed, so any residue is an accounting
        // bug — and a sticky one: it would pin the fracture flag and
        // escalate every future selective flush to a full flush. Repair
        // and record it (in release builds too) rather than asserting
        // only in debug builds.
        if self.fractured_count != 0 {
            self.stats.fracture_leaks += 1;
            self.fractured_count = 0;
        }
    }

    /// `INVLPG`: invalidate the translation for `va` in the *current*
    /// address space, including global entries for that address, and — the
    /// documented x86 side-effect the paper leans on in §3.4/§4.1 — flush
    /// the entire paging-structure cache.
    ///
    /// If the fracture flag is set, the flush escalates to a full TLB flush
    /// (Table 4).
    pub fn invlpg(&mut self, current: Pcid, va: VirtAddr) {
        if self.fracture_flag() {
            self.fracture_escalate();
            return;
        }
        self.stats.selective_flushes += 1;
        for &size in self.flushed_sizes() {
            let k = key_for(current.0, va, size);
            self.remove_key(&k);
            let kg = key_for(GLOBAL_TAG, va, size);
            self.remove_key(&kg);
        }
        self.itlb.invalidate_addr(Some(current.0), va, true);
        self.pwc_flush_all();
    }

    /// Page sizes a selective flush removes. The split-blind bug drops
    /// only the 4K-sized entry, leaving any covering huge-page entry
    /// cached — the stale-2M hazard the `buggy_fracture` canary exists to
    /// catch.
    fn flushed_sizes(&self) -> &'static [PageSize] {
        if self.split_blind_invlpg {
            &[PageSize::Size4K]
        } else {
            &[PageSize::Size4K, PageSize::Size2M, PageSize::Size1G]
        }
    }

    /// `INVPCID` individual-address mode: invalidate the translation for
    /// `(pcid, va)` — global entries and unrelated paging-structure-cache
    /// entries are *not* touched (§3.4 notes this makes it safer than
    /// `INVLPG` for operating systems that rely on PWC flushes).
    pub fn invpcid_single(&mut self, pcid: Pcid, va: VirtAddr) {
        if self.fracture_flag() {
            self.fracture_escalate();
            return;
        }
        self.stats.selective_flushes += 1;
        for &size in self.flushed_sizes() {
            let k = key_for(pcid.0, va, size);
            self.remove_key(&k);
        }
        self.itlb.invalidate_addr(Some(pcid.0), va, false);
        // Only the PWC entries belonging to this address are dropped.
        self.pwc.remove(&(pcid.0, va.as_u64() >> 21));
    }

    /// CR3 write: flush all non-global entries of `pcid` (a full flush of
    /// one address space), keeping global entries.
    pub fn flush_pcid(&mut self, pcid: Pcid) {
        self.stats.full_flushes += 1;
        let keys: Vec<Key> = self
            .entries
            .keys()
            .filter(|(tag, _, _)| *tag == pcid.0)
            .copied()
            .collect();
        for k in &keys {
            self.remove_key(k);
        }
        self.itlb.flush_pcid(pcid);
        let pcid_raw = pcid.0;
        self.pwc.retain(|(tag, _), _| *tag != pcid_raw);
    }

    /// Flush everything; `include_global` models toggling CR4.PGE.
    pub fn flush_all(&mut self, include_global: bool) {
        self.stats.full_flushes += 1;
        let keys: Vec<Key> = self
            .entries
            .keys()
            .filter(|(tag, _, _)| include_global || *tag != GLOBAL_TAG)
            .copied()
            .collect();
        for k in &keys {
            self.remove_key(k);
        }
        self.itlb.flush_all(include_global);
        self.pwc_flush_all();
    }

    // --- Access paths ---

    /// Perform a data access: translate `(pcid, va)` for a read or write at
    /// the given privilege, filling from `space`'s page tables on a miss.
    ///
    /// On a hit the cached entry is used *without consulting the page
    /// tables* — exactly the hardware behaviour that makes shootdowns
    /// necessary. A hit whose cached permissions forbid the access is
    /// dropped and re-walked (architectural behaviour; the mechanism behind
    /// the §4.1 CoW trick).
    pub fn access(
        &mut self,
        pcid: Pcid,
        va: VirtAddr,
        write: bool,
        user: bool,
        space: &mut AddrSpace,
        costs: &CostModel,
    ) -> Result<Access, TlbFault> {
        if let Some(e) = self.lookup(pcid, va).cloned() {
            if e.pte.flags.permits(write, false, user) {
                self.stats.hits += 1;
                let tag = if e.global { GLOBAL_TAG } else { e.pcid.0 };
                let key = key_for(tag, e.page_base, e.size);
                let mut cost = costs.mem_access;
                if let TlbGeometry::SetAssoc(g) = &self.geometry {
                    if !self.l1.contains(&key) {
                        // Present only at the second level: pay the STLB
                        // penalty and promote into the L1 array.
                        cost = Cycles(cost.0 + g.stlb_hit_extra);
                        self.stats.stlb_hits += 1;
                        self.l1_promote(key);
                    }
                }
                return Ok(Access {
                    hit: true,
                    cost,
                    entry: e,
                });
            }
            // Permission mismatch: drop the stale entry and re-walk.
            let tag = if e.global { GLOBAL_TAG } else { e.pcid.0 };
            let k = key_for(tag, e.page_base, e.size);
            self.remove_key(&k);
            self.stats.perm_rewalks += 1;
        }
        self.walk_and_fill(pcid, va, write, user, space, costs, false)
    }

    /// Perform an instruction fetch through the ITLB.
    pub fn fetch(
        &mut self,
        pcid: Pcid,
        va: VirtAddr,
        user: bool,
        space: &mut AddrSpace,
        costs: &CostModel,
    ) -> Result<Access, TlbFault> {
        if let Some(e) = self.itlb.lookup(pcid, va).cloned() {
            if e.pte.flags.permits(false, true, user) {
                self.stats.hits += 1;
                return Ok(Access {
                    hit: true,
                    cost: costs.mem_access,
                    entry: e,
                });
            }
        }
        let walk = space.walk(va).map_err(|_| TlbFault::NotPresent)?;
        if !walk.pte.flags.permits(false, true, user) {
            return Err(TlbFault::Protection);
        }
        let entry = TlbEntry {
            page_base: walk.page_base,
            size: walk.size,
            pcid,
            global: walk.pte.global(),
            pte: walk.pte,
            fractured: false,
            fill_seq: 0,
        };
        self.itlb.insert(entry.clone());
        self.stats.misses += 1;
        let cost = costs.mem_access + costs.page_walk_pwc_miss;
        Ok(Access {
            hit: false,
            cost,
            entry,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_and_fill(
        &mut self,
        pcid: Pcid,
        va: VirtAddr,
        write: bool,
        user: bool,
        space: &mut AddrSpace,
        costs: &CostModel,
        fractured: bool,
    ) -> Result<Access, TlbFault> {
        let walk = space.walk(va).map_err(|_| TlbFault::NotPresent)?;
        if !walk.pte.flags.permits(write, false, user) {
            return Err(TlbFault::Protection);
        }
        let walk_cost = if self.pwc_hit(pcid, va) {
            costs.page_walk_pwc_hit
        } else {
            costs.page_walk_pwc_miss
        };
        space.mark_used(va, write).expect("walked page must exist");
        // The snapshot must reflect the A/D update the MMU just performed.
        let (pte, _) = space.entry(va).expect("walked page must exist");
        let entry = TlbEntry {
            page_base: walk.page_base,
            size: walk.size,
            pcid,
            global: pte.global(),
            pte,
            fractured,
            fill_seq: 0,
        };
        self.insert(entry.clone());
        self.pwc_insert(pcid, va);
        self.stats.misses += 1;
        Ok(Access {
            hit: false,
            cost: costs.mem_access + walk_cost,
            entry,
        })
    }

    /// Insert a pre-composed (possibly fractured) translation, as the
    /// nested-walk hardware of `tlbdown-virt` produces.
    pub fn insert_nested(
        &mut self,
        pcid: Pcid,
        page_base: VirtAddr,
        size: PageSize,
        pte: Pte,
        fractured: bool,
    ) {
        self.insert(TlbEntry {
            page_base,
            size,
            pcid,
            global: false,
            pte,
            fractured,
            fill_seq: 0,
        });
        self.pwc_insert(pcid, page_base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_mem::{FrameState, PhysMem};
    use tlbdown_types::{PhysAddr, PteFlags};

    /// The physical address `va` translates to through the entry an
    /// access used.
    fn translated(a: &Access, va: VirtAddr) -> PhysAddr {
        a.entry.pte.addr.add(va.page_offset(a.entry.size))
    }

    /// Whether a translation is cached in the first-level arrays (always
    /// false under the legacy geometry, which has no levels).
    fn in_l1(tlb: &Tlb, pcid: Pcid, va: VirtAddr, size: PageSize) -> bool {
        tlb.l1.contains(&key_for(pcid.0, va, size))
            || tlb.l1.contains(&key_for(GLOBAL_TAG, va, size))
    }

    fn setup() -> (PhysMem, AddrSpace, Tlb, CostModel) {
        let mut mem = PhysMem::new(1 << 20);
        let space = AddrSpace::new(&mut mem).unwrap();
        (mem, space, Tlb::default(), CostModel::default())
    }

    fn map_user_page(mem: &mut PhysMem, s: &mut AddrSpace, va: u64) -> PhysAddr {
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        s.map(
            mem,
            VirtAddr::new(va),
            pa,
            PageSize::Size4K,
            PteFlags::user_rw(),
        )
        .unwrap();
        pa
    }

    const P: Pcid = Pcid(1);

    #[test]
    fn miss_then_hit() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        let pa = map_user_page(&mut mem, &mut s, 0x1000);
        let a1 = tlb
            .access(P, VirtAddr::new(0x1234), false, true, &mut s, &costs)
            .unwrap();
        assert!(!a1.hit);
        assert_eq!(translated(&a1, VirtAddr::new(0x1234)), pa.add(0x234));
        let a2 = tlb
            .access(P, VirtAddr::new(0x1678), false, true, &mut s, &costs)
            .unwrap();
        assert!(a2.hit);
        assert_eq!(translated(&a2, VirtAddr::new(0x1678)), pa.add(0x678));
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
        assert!(a2.cost < a1.cost);
    }

    #[test]
    fn hit_ignores_page_table_changes() {
        // The raison d'être of shootdowns: a cached entry keeps translating
        // to the old frame after the PTE changes.
        let (mut mem, mut s, mut tlb, costs) = setup();
        let pa_old = map_user_page(&mut mem, &mut s, 0x1000);
        tlb.access(P, VirtAddr::new(0x1000), false, true, &mut s, &costs)
            .unwrap();
        let pa_new = mem.alloc(FrameState::UserPage).unwrap();
        s.update_entry(VirtAddr::new(0x1000), |p| Pte::new(pa_new, p.flags))
            .unwrap();
        let a = tlb
            .access(P, VirtAddr::new(0x1000), false, true, &mut s, &costs)
            .unwrap();
        assert!(a.hit);
        assert_eq!(
            translated(&a, VirtAddr::new(0x1000)),
            pa_old,
            "stale entry still used — that's the hazard"
        );
    }

    #[test]
    fn invlpg_removes_entry_and_flushes_pwc() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        map_user_page(&mut mem, &mut s, 0x1000);
        map_user_page(&mut mem, &mut s, 0x40_0000);
        tlb.access(P, VirtAddr::new(0x1000), false, true, &mut s, &costs)
            .unwrap();
        tlb.access(P, VirtAddr::new(0x40_0000), false, true, &mut s, &costs)
            .unwrap();
        assert!(tlb.pwc.len() >= 2);
        tlb.invlpg(P, VirtAddr::new(0x1000));
        assert!(tlb.lookup(P, VirtAddr::new(0x1000)).is_none());
        assert!(tlb.lookup(P, VirtAddr::new(0x40_0000)).is_some());
        assert_eq!(tlb.pwc.len(), 0, "INVLPG wipes the whole PWC");
        assert_eq!(tlb.stats().pwc_flushes, 1);
    }

    #[test]
    fn invpcid_preserves_unrelated_pwc() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        map_user_page(&mut mem, &mut s, 0x1000);
        map_user_page(&mut mem, &mut s, 0x40_0000);
        tlb.access(P, VirtAddr::new(0x1000), false, true, &mut s, &costs)
            .unwrap();
        tlb.access(P, VirtAddr::new(0x40_0000), false, true, &mut s, &costs)
            .unwrap();
        let pwc_before = tlb.pwc.len();
        tlb.invpcid_single(P, VirtAddr::new(0x1000));
        assert!(tlb.lookup(P, VirtAddr::new(0x1000)).is_none());
        assert_eq!(
            tlb.pwc.len(),
            pwc_before - 1,
            "only the target's PWC entry drops"
        );
    }

    #[test]
    fn invpcid_does_not_flush_globals() {
        let (mut mem, mut s, mut tlb, _costs) = setup();
        let pa = mem.alloc(FrameState::KernelPage).unwrap();
        s.map(
            &mut mem,
            VirtAddr::new(0x9000),
            pa,
            PageSize::Size4K,
            PteFlags::kernel_rw(true),
        )
        .unwrap();
        tlb.fill_speculative(
            P,
            VirtAddr::new(0x9000),
            PageSize::Size4K,
            Pte::new(pa, PteFlags::kernel_rw(true)),
        );
        tlb.invpcid_single(P, VirtAddr::new(0x9000));
        assert!(
            tlb.lookup(P, VirtAddr::new(0x9000)).is_some(),
            "global survives INVPCID"
        );
        tlb.invlpg(P, VirtAddr::new(0x9000));
        assert!(
            tlb.lookup(P, VirtAddr::new(0x9000)).is_none(),
            "INVLPG drops globals"
        );
    }

    #[test]
    fn flush_pcid_keeps_globals_and_other_pcids() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        map_user_page(&mut mem, &mut s, 0x1000);
        tlb.access(P, VirtAddr::new(0x1000), false, true, &mut s, &costs)
            .unwrap();
        tlb.access(Pcid(2), VirtAddr::new(0x1000), false, true, &mut s, &costs)
            .unwrap();
        let gpa = mem.alloc(FrameState::KernelPage).unwrap();
        tlb.fill_speculative(
            P,
            VirtAddr::new(0x8000),
            PageSize::Size4K,
            Pte::new(gpa, PteFlags::kernel_rw(true)),
        );
        tlb.flush_pcid(P);
        assert!(tlb.lookup(P, VirtAddr::new(0x1000)).is_none());
        assert!(tlb.lookup(Pcid(2), VirtAddr::new(0x1000)).is_some());
        assert!(
            tlb.lookup(P, VirtAddr::new(0x8000)).is_some(),
            "global survives CR3 write"
        );
        tlb.flush_all(true);
        assert!(tlb.is_empty());
    }

    #[test]
    fn write_to_write_protected_entry_rewalks() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        let va = VirtAddr::new(0x2000);
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        s.map(&mut mem, va, pa, PageSize::Size4K, PteFlags::user_cow())
            .unwrap();
        // Read fills a read-only entry.
        tlb.access(P, va, false, true, &mut s, &costs).unwrap();
        // Kernel performs the CoW swap: new frame, writable.
        let pa2 = mem.alloc(FrameState::UserPage).unwrap();
        s.update_entry(va, |_| Pte::new(pa2, PteFlags::user_rw()))
            .unwrap();
        // A write cannot use the stale read-only entry: hardware re-walks.
        let a = tlb.access(P, va, true, true, &mut s, &costs).unwrap();
        assert!(!a.hit);
        assert_eq!(translated(&a, va), pa2);
        assert_eq!(tlb.stats().perm_rewalks, 1);
        // And the fresh writable entry is now cached.
        let a = tlb.access(P, va, true, true, &mut s, &costs).unwrap();
        assert!(a.hit);
    }

    #[test]
    fn protection_fault_when_tables_forbid() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        let va = VirtAddr::new(0x3000);
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        s.map(&mut mem, va, pa, PageSize::Size4K, PteFlags::user_cow())
            .unwrap();
        assert_eq!(
            tlb.access(P, va, true, true, &mut s, &costs).unwrap_err(),
            TlbFault::Protection
        );
        assert_eq!(
            tlb.access(P, VirtAddr::new(0x0dea_d000), false, true, &mut s, &costs)
                .unwrap_err(),
            TlbFault::NotPresent
        );
    }

    #[test]
    fn accessed_and_dirty_bits_set_on_fill() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        let va = VirtAddr::new(0x4000);
        map_user_page(&mut mem, &mut s, 0x4000);
        tlb.access(P, va, true, true, &mut s, &costs).unwrap();
        let (pte, _) = s.entry(va).unwrap();
        assert!(pte.flags.contains(PteFlags::ACCESSED));
        assert!(pte.dirty());
        // The cached snapshot includes the D bit.
        assert!(tlb.lookup(P, va).unwrap().pte.dirty());
    }

    #[test]
    fn capacity_eviction_is_fifo() {
        let (mut mem, mut s, _tlb, costs) = setup();
        let mut tlb = Tlb::new(4);
        for i in 0..6u64 {
            map_user_page(&mut mem, &mut s, 0x10_0000 + i * 0x1000);
            tlb.access(
                P,
                VirtAddr::new(0x10_0000 + i * 0x1000),
                false,
                true,
                &mut s,
                &costs,
            )
            .unwrap();
        }
        assert_eq!(tlb.len(), 4);
        assert_eq!(tlb.stats().evictions, 2);
        assert!(
            tlb.lookup(P, VirtAddr::new(0x10_0000)).is_none(),
            "oldest evicted"
        );
        assert!(
            tlb.lookup(P, VirtAddr::new(0x10_5000)).is_some(),
            "newest kept"
        );
    }

    #[test]
    fn fracture_flag_escalates_selective_flush() {
        let (mut mem, _s, mut tlb, _costs) = setup();
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        tlb.insert_nested(
            P,
            VirtAddr::new(0x20_0000),
            PageSize::Size4K,
            Pte::new(pa, PteFlags::user_rw()),
            true,
        );
        tlb.insert_nested(
            P,
            VirtAddr::new(0x30_0000),
            PageSize::Size4K,
            Pte::new(pa, PteFlags::user_rw()),
            false,
        );
        assert!(tlb.fracture_flag());
        // Selective flush of an *unrelated* address wipes everything.
        tlb.invlpg(P, VirtAddr::new(0x5000_0000));
        assert!(tlb.is_empty());
        assert!(!tlb.fracture_flag());
        assert_eq!(tlb.stats().fracture_escalations, 1);
        assert_eq!(tlb.stats().selective_flushes, 0);
    }

    #[test]
    fn no_escalation_without_fractured_entries() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        map_user_page(&mut mem, &mut s, 0x1000);
        tlb.access(P, VirtAddr::new(0x1000), false, true, &mut s, &costs)
            .unwrap();
        tlb.invlpg(P, VirtAddr::new(0x7000));
        assert_eq!(tlb.stats().fracture_escalations, 0);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn itlb_unaffected_by_data_access_but_flushed_by_invlpg() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        let va = VirtAddr::new(0x5000);
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        s.map(&mut mem, va, pa, PageSize::Size4K, PteFlags::user_rx())
            .unwrap();
        tlb.fetch(P, va, true, &mut s, &costs).unwrap();
        assert_eq!(tlb.itlb.entries.len(), 1);
        // Data accesses do not touch the ITLB (the §4.1 executable-PTE rule).
        let va2 = VirtAddr::new(0x6000);
        map_user_page(&mut mem, &mut s, 0x6000);
        tlb.access(P, va2, true, true, &mut s, &costs).unwrap();
        assert_eq!(tlb.itlb.entries.len(), 1);
        tlb.invlpg(P, va);
        assert_eq!(tlb.itlb.entries.len(), 0);
    }

    #[test]
    fn set_assoc_evicts_within_the_conflicting_set() {
        let (mut mem, mut s, _tlb, costs) = setup();
        let mut tlb = Tlb::with_geometry(TlbGeometry::skylake_sp());
        // 13 pages whose 4K VPNs all map to STLB set 0 (vpn % 128 == 0)
        // overflow the 12-way set while the pool is nowhere near full.
        for k in 0..13u64 {
            let va = 0x40_0000 + k * 128 * 0x1000;
            map_user_page(&mut mem, &mut s, va);
            tlb.access(P, VirtAddr::new(va), false, true, &mut s, &costs)
                .unwrap();
        }
        assert_eq!(tlb.len(), 12, "set capacity, not pool capacity, binds");
        assert_eq!(tlb.stats().evictions, 1);
        assert!(
            tlb.lookup(P, VirtAddr::new(0x40_0000)).is_none(),
            "set-FIFO oldest evicted"
        );
        // A page in a different set is untouched by that pressure.
        map_user_page(&mut mem, &mut s, 0x41_0000);
        tlb.access(P, VirtAddr::new(0x41_0000), false, true, &mut s, &costs)
            .unwrap();
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn l1_miss_pays_stlb_penalty_then_promotes() {
        let (mut mem, mut s, _tlb, costs) = setup();
        let mut tlb = Tlb::with_geometry(TlbGeometry::skylake_sp());
        // 5 pages sharing L1-4K set 0 (vpn % 16 == 0) overflow its 4 ways;
        // their STLB sets (vpn % 128) are all distinct, so every entry
        // stays present and only L1 residency is lost.
        for k in 0..5u64 {
            let va = 0x40_0000 + k * 16 * 0x1000;
            map_user_page(&mut mem, &mut s, va);
            tlb.access(P, VirtAddr::new(va), false, true, &mut s, &costs)
                .unwrap();
        }
        assert_eq!(tlb.len(), 5);
        let first = VirtAddr::new(0x40_0000);
        assert!(!in_l1(&tlb, P, first, PageSize::Size4K), "L1-evicted");
        let slow = tlb.access(P, first, false, true, &mut s, &costs).unwrap();
        assert!(slow.hit);
        assert_eq!(slow.cost, Cycles(costs.mem_access.0 + 9));
        assert_eq!(tlb.stats().stlb_hits, 1);
        // Promoted back: the next access is an L1 hit at base cost.
        let fast = tlb.access(P, first, false, true, &mut s, &costs).unwrap();
        assert_eq!(fast.cost, costs.mem_access);
        assert_eq!(tlb.stats().stlb_hits, 1);
    }

    #[test]
    fn split_blind_invlpg_leaves_huge_entry_cached() {
        let (mut mem, _s, mut tlb, _costs) = setup();
        let pa = mem.alloc(FrameState::UserPage).unwrap();
        let huge = VirtAddr::new(0x20_0000);
        tlb.fill_speculative(P, huge, PageSize::Size2M, Pte::new(pa, PteFlags::user_rw()));
        // A correct flush removes the covering 2M entry.
        tlb.invlpg(P, VirtAddr::new(0x20_3000));
        assert!(tlb.lookup(P, VirtAddr::new(0x20_3000)).is_none());
        // The split-blind flush only strips the 4K-sized key: the huge
        // entry survives and keeps translating.
        tlb.fill_speculative(P, huge, PageSize::Size2M, Pte::new(pa, PteFlags::user_rw()));
        tlb.set_split_blind_invlpg(true);
        tlb.invlpg(P, VirtAddr::new(0x20_3000));
        assert!(
            tlb.lookup(P, VirtAddr::new(0x20_3000)).is_some(),
            "stale 2M entry survives the buggy flush"
        );
        // Full flushes are not split-blind.
        tlb.flush_all(true);
        assert!(tlb.is_empty());
    }

    #[test]
    fn legacy_geometry_has_no_l1_or_stlb_penalty() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        map_user_page(&mut mem, &mut s, 0x1000);
        tlb.access(P, VirtAddr::new(0x1000), false, true, &mut s, &costs)
            .unwrap();
        let a = tlb
            .access(P, VirtAddr::new(0x1000), false, true, &mut s, &costs)
            .unwrap();
        assert_eq!(a.cost, costs.mem_access);
        assert_eq!(tlb.stats().stlb_hits, 0);
        assert!(!in_l1(&tlb, P, VirtAddr::new(0x1000), PageSize::Size4K));
    }

    #[test]
    fn speculative_fill_creates_stale_entry() {
        let (mut mem, mut s, mut tlb, costs) = setup();
        let va = VirtAddr::new(0x7000);
        let pa = map_user_page(&mut mem, &mut s, 0x7000);
        // CPU speculatively caches the PTE without any program access.
        let (pte, _) = s.entry(va).unwrap();
        tlb.fill_speculative(P, va, PageSize::Size4K, pte);
        // PTE changes; the speculative entry still hits.
        let pa2 = mem.alloc(FrameState::UserPage).unwrap();
        s.update_entry(va, |p| Pte::new(pa2, p.flags)).unwrap();
        let a = tlb.access(P, va, false, true, &mut s, &costs).unwrap();
        assert!(a.hit);
        assert_eq!(translated(&a, va), pa);
    }
}
