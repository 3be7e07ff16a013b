//! The TLB data structure and its flush-instruction semantics.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;

use tlbdown_mem::{AddrSpace, Pte};
use tlbdown_types::{CostModel, Cycles, FastMap, PageSize, Pcid, VirtAddr};

use crate::geometry::{L1Arrays, SetWays, TlbGeometry};

/// Tag used in entry keys for global entries (matched under any PCID).
const GLOBAL_TAG: u16 = u16::MAX;

/// Paging-structure cache capacity.
const PWC_CAPACITY: usize = 32;

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
    /// Monotone fill sequence number: the fill order, by which the state
    /// digest sorts cached entries.
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

/// The key an entry is cached under.
fn key_of(e: &TlbEntry) -> Key {
    let tag = if e.global { GLOBAL_TAG } else { e.pcid.0 };
    key_for(tag, e.page_base, e.size)
}

/// The virtual page number of a key, at its page size's native shift.
fn vpn(key: &Key) -> u64 {
    let (_, base, idx) = *key;
    base >> [12, 21, 30][usize::from(idx)]
}

/// The STLB set that caches `key`; the dedicated 1G STLB's sets, if
/// there is one, are numbered after the shared STLB's.
fn stlb_set(g: &TlbGeometry, key: &Key) -> usize {
    match g.stlb_1g {
        Some(sw) if key.2 == 2 => g.stlb.sets + sw.set(vpn(key)),
        _ => g.stlb.set(vpn(key)),
    }
}

/// The L1 set that caches `key`, numbering the sets of the 4K, 2M and
/// 1G arrays in that order.
fn l1_set(l1: &L1Arrays, key: &Key) -> usize {
    let idx = usize::from(key.2);
    let before: usize = l1.arrays[..idx].iter().map(|a| a.sets).sum();
    before + l1.arrays[idx].set(vpn(key))
}

/// The paging-structure-cache key of a walk for `(pcid, va)`.
fn pwc_key(pcid: Pcid, va: VirtAddr) -> (u16, u64) {
    (pcid.0, va.as_u64() >> 21)
}

/// A bounded FIFO set of keys: the replacement policy of every TLB
/// structure (each STLB set, each L1 set and the paging-structure
/// cache). Each admission is numbered, so the slot a removed key leaves
/// behind can never evict a live key, not even the same key admitted
/// again.
#[derive(Clone, Debug)]
struct Fifo<K> {
    /// How many keys it holds at most.
    ways: usize,
    /// Every live key and the number of its admission.
    live: FastMap<K, u64>,
    /// Admissions, oldest first. A slot whose number is not its key's
    /// live one was left by a removed key.
    order: VecDeque<(K, u64)>,
    /// Admissions so far.
    admitted: u64,
}

impl<K: Copy + Eq + Hash> Fifo<K> {
    fn new(ways: usize) -> Self {
        Fifo {
            ways,
            live: FastMap::default(),
            order: VecDeque::new(),
            admitted: 0,
        }
    }

    fn contains(&self, key: &K) -> bool {
        self.live.contains_key(key)
    }

    /// Admit `key` unless it is live, and evict and return the oldest
    /// live key if the set overflows. Stale slots are dropped when they
    /// reach the front, and all at once when they make the queue twice
    /// as long as the set, so they cannot pile up while nothing
    /// overflows.
    fn admit(&mut self, key: K) -> Option<K> {
        let Entry::Vacant(slot) = self.live.entry(key) else {
            return None;
        };
        self.admitted += 1;
        slot.insert(self.admitted);
        self.order.push_back((key, self.admitted));
        if self.order.len() > 2 * self.ways {
            let live = &self.live;
            self.order.retain(|(k, n)| live.get(k) == Some(n));
        }
        if self.live.len() <= self.ways {
            return None;
        }
        while let Some((k, n)) = self.order.pop_front() {
            if self.live.get(&k) == Some(&n) {
                self.live.remove(&k);
                return Some(k);
            }
        }
        None
    }

    fn remove(&mut self, key: &K) {
        self.live.remove(key);
    }

    fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.live.retain(|k, _| keep(k));
    }

    fn clear(&mut self) {
        self.live.clear();
        self.order.clear();
    }
}

/// One empty FIFO per set of `arrays`, in order.
fn fifos(arrays: impl IntoIterator<Item = SetWays>) -> Vec<Fifo<Key>> {
    arrays
        .into_iter()
        .flat_map(|a| (0..a.sets).map(move |_| Fifo::new(a.ways)))
        .collect()
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
    /// Selective flushes escalated to full flushes by the fracture flag.
    pub fracture_escalations: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Times the fractured-entry accounting was found inconsistent and
    /// repaired (a residue after a full wipe, or a decrement below
    /// zero). Always zero in a correct model; checked in release builds
    /// too, where the old `debug_assert` would have let a stuck fracture
    /// flag silently escalate every later selective flush.
    pub fracture_leaks: u64,
    /// Hits that missed the L1 arrays and paid the STLB penalty. Always
    /// zero under a geometry without an L1 level, such as the legacy
    /// pool.
    pub stlb_hits: u64,
}

/// A small instruction-TLB model.
///
/// The ITLB only matters for one rule in the paper: the CoW optimization
/// must be skipped for executable PTEs because a data write does not evict
/// ITLB entries (§4.1). The model is therefore minimal: fill on fetch,
/// invalidate on the same flush operations as the dTLB, and *not* on data
/// accesses.
#[derive(Clone, Debug, Default)]
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
        self.entries.insert(key_of(&e), e);
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
#[derive(Clone, Debug)]
pub struct Tlb {
    geometry: TlbGeometry,
    /// Every cached translation: the single source of truth for
    /// presence.
    entries: FastMap<Key, TlbEntry>,
    /// One FIFO per STLB set over the keys of `entries`, numbered as
    /// `stlb_set` does. Built at the first fill, so a core that never
    /// fills allocates nothing.
    sets: Vec<Fifo<Key>>,
    /// One FIFO per L1 set, numbered as `l1_set` does, over the subset
    /// of `entries` the first level caches (an inclusive hierarchy).
    /// Built with `sets`; empty without an L1 level.
    l1: Vec<Fifo<Key>>,
    split_blind_invlpg: bool,
    fill_seq: u64,
    fractured_count: usize,
    pwc: Fifo<(u16, u64)>,
    itlb: ItlbModel,
    stats: TlbStats,
}

impl Default for Tlb {
    fn default() -> Self {
        Self::with_geometry(TlbGeometry::legacy())
    }
}

impl Tlb {
    /// Create a TLB that is one fully-shared FIFO pool of `capacity`
    /// entries (the legacy geometry at another capacity).
    pub fn new(capacity: usize) -> Self {
        Self::with_geometry(TlbGeometry {
            stlb: SetWays {
                sets: 1,
                ways: capacity,
            },
            ..TlbGeometry::legacy()
        })
    }

    /// Create a TLB with an explicit geometry.
    pub fn with_geometry(geometry: TlbGeometry) -> Self {
        Tlb {
            geometry,
            sets: Vec::new(),
            l1: Vec::new(),
            entries: FastMap::default(),
            split_blind_invlpg: false,
            fill_seq: 0,
            fractured_count: 0,
            pwc: Fifo::new(PWC_CAPACITY),
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
        self.sets[stlb_set(&self.geometry, key)].remove(key);
        if let Some(l1) = &self.geometry.l1 {
            self.l1[l1_set(l1, key)].remove(key);
        }
        Some(e)
    }

    /// Remove every entry whose key `doomed` picks.
    fn remove_where(&mut self, doomed: impl Fn(&Key) -> bool) {
        let keys: Vec<Key> = self.entries.keys().filter(|k| doomed(k)).copied().collect();
        for k in &keys {
            self.remove_key(k);
        }
    }

    /// Promote a (present) translation into its L1 array, evicting the
    /// FIFO-oldest L1 resident of that set. L1 eviction only drops the L1
    /// residency — the entry stays in the STLB (inclusive hierarchy).
    /// Returns the STLB-hit penalty if the translation was not in L1, and
    /// `None` without an L1 level.
    fn l1_promote(&mut self, key: Key) -> Option<u64> {
        let l1 = self.geometry.l1.as_ref()?;
        let set = &mut self.l1[l1_set(l1, &key)];
        if set.contains(&key) {
            return None;
        }
        set.admit(key);
        Some(l1.stlb_hit_extra)
    }

    /// Insert an entry, evicting the FIFO-oldest entry of its STLB set on
    /// capacity pressure.
    pub fn insert(&mut self, mut e: TlbEntry) {
        if self.sets.is_empty() {
            let g = &self.geometry;
            self.sets = fifos(std::iter::once(g.stlb).chain(g.stlb_1g));
            self.l1 = fifos(g.l1.iter().flat_map(|l1| l1.arrays));
        }
        self.fill_seq += 1;
        e.fill_seq = self.fill_seq;
        let key = key_of(&e);
        if e.fractured {
            self.fractured_count += 1;
        }
        if let Some(old) = self.entries.insert(key, e) {
            if old.fractured {
                self.uncount_fractured();
            }
        } else if let Some(victim) = self.sets[stlb_set(&self.geometry, &key)].admit(key) {
            self.remove_key(&victim);
            self.stats.evictions += 1;
        }
        self.l1_promote(key);
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

    // --- Flush instructions ---

    /// Escalate a selective flush to a full flush because a fractured entry
    /// is (or may be) cached — the Table 4 behaviour.
    fn fracture_escalate(&mut self) {
        self.stats.fracture_escalations += 1;
        self.flush_all(true);
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
        for &size in self.flushed_sizes() {
            let k = key_for(current.0, va, size);
            self.remove_key(&k);
            let kg = key_for(GLOBAL_TAG, va, size);
            self.remove_key(&kg);
        }
        self.itlb.invalidate_addr(Some(current.0), va, true);
        self.pwc.clear();
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
        for &size in self.flushed_sizes() {
            let k = key_for(pcid.0, va, size);
            self.remove_key(&k);
        }
        self.itlb.invalidate_addr(Some(pcid.0), va, false);
        // Only the PWC entries belonging to this address are dropped.
        self.pwc.remove(&pwc_key(pcid, va));
    }

    /// CR3 write: flush all non-global entries of `pcid` (a full flush of
    /// one address space), keeping global entries.
    pub fn flush_pcid(&mut self, pcid: Pcid) {
        self.remove_where(|(tag, _, _)| *tag == pcid.0);
        self.itlb.flush_pcid(pcid);
        self.pwc.retain(|(tag, _)| *tag != pcid.0);
    }

    /// Flush everything; `include_global` models toggling CR4.PGE.
    pub fn flush_all(&mut self, include_global: bool) {
        self.remove_where(|(tag, _, _)| include_global || *tag != GLOBAL_TAG);
        self.itlb.flush_all(include_global);
        self.pwc.clear();
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
                let mut cost = costs.mem_access;
                if let Some(extra) = self.l1_promote(key_of(&e)) {
                    // Present only at the second level: pay the STLB
                    // penalty (the entry is now promoted into L1).
                    cost = Cycles(cost.0 + extra);
                    self.stats.stlb_hits += 1;
                }
                return Ok(Access {
                    hit: true,
                    cost,
                    entry: e,
                });
            }
            // Permission mismatch: drop the stale entry and re-walk.
            self.remove_key(&key_of(&e));
        }
        let walk = space.walk(va).map_err(|_| TlbFault::NotPresent)?;
        if !walk.pte.flags.permits(write, false, user) {
            return Err(TlbFault::Protection);
        }
        let walk_cost = if self.pwc.contains(&pwc_key(pcid, va)) {
            costs.page_walk_pwc_hit
        } else {
            costs.page_walk_pwc_miss
        };
        space
            .mark_used(va, write)
            .map_err(|_| TlbFault::NotPresent)?;
        // The snapshot must reflect the A/D update the MMU just performed.
        let (pte, _) = space.entry(va).ok_or(TlbFault::NotPresent)?;
        let entry = TlbEntry {
            page_base: walk.page_base,
            size: walk.size,
            pcid,
            global: pte.global(),
            pte,
            fractured: false,
            fill_seq: 0,
        };
        self.insert(entry.clone());
        self.pwc.admit(pwc_key(pcid, va));
        self.stats.misses += 1;
        Ok(Access {
            hit: false,
            cost: costs.mem_access + walk_cost,
            entry,
        })
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
        self.pwc.admit(pwc_key(pcid, page_base));
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
    /// false under the legacy geometry, which has no L1 level).
    fn in_l1(tlb: &Tlb, pcid: Pcid, va: VirtAddr, size: PageSize) -> bool {
        let keys = [key_for(pcid.0, va, size), key_for(GLOBAL_TAG, va, size)];
        tlb.l1
            .iter()
            .any(|set| keys.iter().any(|k| set.contains(k)))
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
        assert!(tlb.pwc.live.len() >= 2);
        tlb.invlpg(P, VirtAddr::new(0x1000));
        assert!(tlb.lookup(P, VirtAddr::new(0x1000)).is_none());
        assert!(tlb.lookup(P, VirtAddr::new(0x40_0000)).is_some());
        assert_eq!(tlb.pwc.live.len(), 0, "INVLPG wipes the whole PWC");
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
        let pwc_before = tlb.pwc.live.len();
        tlb.invpcid_single(P, VirtAddr::new(0x1000));
        assert!(tlb.lookup(P, VirtAddr::new(0x1000)).is_none());
        assert_eq!(
            tlb.pwc.live.len(),
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
        assert_eq!(tlb.stats().misses, 2);
        assert_eq!(tlb.len(), 1, "the re-walk replaced the stale entry");
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
        assert!(tlb.pwc.live.is_empty(), "the escalation wipes the PWC too");
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
    fn a_refilled_l1_entry_outlives_older_ones() {
        // Four pages fill L1-4K set 0 (vpn % 16 == 0) in distinct STLB
        // sets. The oldest is flushed and filled again, so a fifth page
        // must push the second-oldest out of L1, not the refilled one.
        let mut tlb = Tlb::with_geometry(TlbGeometry::skylake_sp());
        let pte = Pte::new(PhysAddr::new(0x5000), PteFlags::user_rw());
        let va = |k: u64| VirtAddr::new(0x40_0000 + k * 16 * 0x1000);
        for k in 0..4 {
            tlb.fill_speculative(P, va(k), PageSize::Size4K, pte);
        }
        tlb.invpcid_single(P, va(0));
        tlb.fill_speculative(P, va(0), PageSize::Size4K, pte);
        tlb.fill_speculative(P, va(4), PageSize::Size4K, pte);
        let l1: Vec<bool> = (0..5)
            .map(|k| in_l1(&tlb, P, va(k), PageSize::Size4K))
            .collect();
        assert_eq!(l1, [true, false, true, true, true]);
        assert_eq!(tlb.len(), 5, "L1 eviction keeps the STLB entry");
    }

    #[test]
    fn a_refilled_pwc_entry_outlives_older_ones() {
        // Fill the 32-entry PWC, drop and refill the oldest region, then
        // overflow it: the second-oldest region goes, not the refilled one.
        let mut tlb = Tlb::default();
        let pte = Pte::new(PhysAddr::new(0x5000), PteFlags::user_rw());
        let va = |k: u64| VirtAddr::new(k << 21);
        for k in 0..32 {
            tlb.insert_nested(P, va(k), PageSize::Size4K, pte, false);
        }
        tlb.invpcid_single(P, va(0));
        tlb.insert_nested(P, va(0), PageSize::Size4K, pte, false);
        tlb.insert_nested(P, va(32), PageSize::Size4K, pte, false);
        let cached = |k| tlb.pwc.contains(&pwc_key(P, va(k)));
        assert_eq!((cached(0), cached(1), cached(32)), (true, false, true));
        assert_eq!(tlb.pwc.live.len(), PWC_CAPACITY);
    }

    #[test]
    fn flushed_keys_leave_no_growing_queue() {
        // The pool never overflows here, so no eviction pops the stale
        // slots each flush leaves behind; the queue must not grow anyway.
        let mut tlb = Tlb::default();
        let pte = Pte::new(PhysAddr::new(0x5000), PteFlags::user_rw());
        for _ in 0..10_000 {
            tlb.fill_speculative(P, VirtAddr::new(0x1000), PageSize::Size4K, pte);
            tlb.invlpg(P, VirtAddr::new(0x1000));
        }
        assert!(tlb.sets[0].order.len() <= 2 * 1536);
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
