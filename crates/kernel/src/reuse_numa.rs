//! The two follow-on protocol levels: L7 reuse-skip (arXiv 2409.10946)
//! and L8 numaPTE (arXiv 2401.15558).
//!
//! **Reuse-skip** targets allocator churn: user allocators return pages
//! with `madvise(DONTNEED)` and fault the same addresses back in moments
//! later. Instead of paying a shootdown per zap, the kernel parks each
//! zapped page — PTE, frame reference and a kernel-side PTE version — in a
//! bounded per-mm window and elides the flush. The oracle pairs for the
//! elided flush stay **un-retired**: hardware staleness during an open
//! window is legal, so eliding without claiming the guarantee is sound by
//! construction. A demand fault that hits the window with a *matching
//! version* and compatible permissions reinstalls the identical PTE with
//! no flush, then declares the guarantee via [`Oracle::reuse_restored`]
//! (every surviving entry translates the restored-identical mapping, so
//! their fills are re-stamped before the version retires). Any conflicting
//! operation — munmap, mprotect, writeback, window overflow — pays the
//! debt first: a real flush carrying the parked retire pairs.
//!
//! **numaPTE** replicates page tables per socket. PTE updates run a
//! deterministic replica-sync to every remote socket (charged as one
//! cacheline-batch transfer per remote socket, routed through the
//! interconnect hop distances); in exchange, page walks and responder-side
//! shootdown-metadata fetches resolve node-locally. The `buggy_numapte`
//! injection refreshes only the updating core's socket and leaves remote
//! replicas stale, so a remote walk translates through the old PTE at the
//! old version — the schedule explorer catches the resulting stale read
//! once the real update's flush retires.
//!
//! [`Oracle::reuse_restored`]: crate::oracle::Oracle::reuse_restored

use tlbdown_mem::Pte;
use tlbdown_types::{CoreId, Cycles, FastMap, MmId, PageSize, PhysAddr, VirtAddr, VirtRange};

use crate::config::InjectedBug;
use crate::cpu::SyscallFrame;
use crate::machine::Machine;
use crate::mm::{ReuseEntry, StalePte, Vma};

/// PTEs per cacheline: a replica-sync ships one line per 8 updated
/// entries, like the real page-table write-back traffic would.
const PTES_PER_LINE: u64 = 8;

impl Machine {
    /// Whether the L7 reuse window machinery is live.
    pub(crate) fn reuse_active(&self) -> bool {
        self.cfg.opts.reuse_skip
    }

    /// Whether L8 numaPTE replication is live (needs a second socket for
    /// replicas to exist at all).
    pub(crate) fn numa_pte_active(&self) -> bool {
        self.cfg.opts.numa_pte && self.cfg.topo.num_sockets() > 1
    }

    /// Bump the kernel-side PTE version of every page in `range`. Mirrors
    /// the oracle's `range_modified` sites so the reuse-time version check
    /// is oracle-independent. No-op (and no state) unless reuse-skip is on.
    pub(crate) fn reuse_bump_versions(&mut self, mm_id: MmId, range: VirtRange) {
        if !self.reuse_active() {
            return;
        }
        if let Some(mm) = self.mms.get_mut(&mm_id) {
            let mut va = range.start;
            while va < range.end {
                *mm.pte_versions.entry(va.vpn()).or_insert(0) += 1;
                va = va.add(4096);
            }
        }
    }

    /// Pay the flush debt of one parked page: a real (queued) flush
    /// carrying the parked retire pairs, plus the frame release the park
    /// deferred. Runs on eviction, replacement, and conflicting-operation
    /// invalidation.
    pub(crate) fn reuse_pay_debt(
        &mut self,
        sf: &mut SyscallFrame,
        mm_id: MmId,
        vpn: u64,
        entry: ReuseEntry,
    ) {
        let page_range = VirtRange::pages(VirtAddr::new(vpn << 12), 1, PageSize::Size4K);
        let Ok(owed) = self.owe_flush(mm_id, page_range, entry.retire) else {
            return;
        };
        self.stats.counters.bump("reuse_debt_flush");
        self.queue_flush(sf, owed);
        self.release_frame(entry.pte.addr, &mut sf.pending_frees);
    }

    /// Invalidate parked entries overlapping `range` before a conflicting
    /// operation (munmap / mprotect / writeback) changes what the pages
    /// mean: each hit pays its debt flush. No-op when reuse-skip is off.
    pub(crate) fn reuse_invalidate_range(
        &mut self,
        sf: &mut SyscallFrame,
        mm_id: MmId,
        range: VirtRange,
    ) {
        if !self.reuse_active() {
            return;
        }
        let hits = match self.mms.get_mut(&mm_id) {
            Some(mm) => mm.reuse.take_range(range),
            None => return,
        };
        for (vpn, entry) in hits {
            self.reuse_pay_debt(sf, mm_id, vpn, entry);
        }
    }

    /// Park the pages a reuse-skip `madvise(DONTNEED)` zap removed,
    /// eliding their shootdown. Already-parked pages covered by the range
    /// are refreshed to the new version (a re-zap of a zapped page is a
    /// no-op whose new oracle pair simply joins the parked debt).
    pub(crate) fn reuse_park_zap(
        &mut self,
        sf: &mut SyscallFrame,
        mm_id: MmId,
        range: VirtRange,
        removed: &[(VirtAddr, Pte, PageSize)],
    ) {
        let any_change = !removed.is_empty();
        if any_change {
            self.reuse_bump_versions(mm_id, range);
        }
        // Oracle versions for the whole range, as the non-elided path
        // would have recorded them. Pairs for pages that had no PTE carry
        // no flush debt; leaving them un-retired is the conservative
        // (always-legal) direction.
        let pairs: FastMap<u64, u64> = if any_change {
            self.oracle
                .range_modified(mm_id, range)
                .into_iter()
                .collect()
        } else {
            Default::default()
        };
        let buggy = self.cfg.injects(InjectedBug::ReuseSkip);
        // Refresh parked pages the zap range covers but the zap itself
        // did not touch (their PTEs were already gone).
        if any_change {
            let mut va = range.start;
            while va < range.end {
                let vpn = va.vpn();
                let touched = removed.iter().any(|(r, _, _)| r.vpn() == vpn);
                if !touched {
                    let new_pair = pairs.get(&vpn).map(|&v| (vpn, v));
                    if let Some(mm) = self.mms.get_mut(&mm_id) {
                        let current = mm.pte_versions.get(&vpn).copied().unwrap_or(0);
                        if let Some(e) = mm.reuse.get_mut(vpn) {
                            e.version = current;
                            if let Some(p) = new_pair {
                                e.retire.push(p);
                            }
                        }
                    }
                }
                va = va.add(4096);
            }
        }
        let n = removed.len() as u64;
        for &(va, pte, _) in removed {
            let vpn = va.vpn();
            let version = self
                .mms
                .get(&mm_id)
                .and_then(|m| m.pte_versions.get(&vpn).copied())
                .unwrap_or(0);
            let mut retire: Vec<(u64, u64)> =
                pairs.get(&vpn).map(|&v| vec![(vpn, v)]).unwrap_or_default();
            if buggy && !retire.is_empty() {
                // THE INJECTED BUG: claim the flush guarantee at park
                // time, skipping the versioned-PTE deferral protocol —
                // no flush ran, no fills were re-stamped, yet the pairs
                // retire. Any pre-park entry surviving on another core is
                // now a stale read waiting for a schedule to expose it.
                self.oracle.retire_exact(mm_id, &retire);
                retire.clear();
                self.stats.counters.bump("reuse_buggy_retire");
            }
            // A stale twin already parked for this vpn becomes debt.
            let old = match self.mms.get_mut(&mm_id) {
                Some(mm) => mm.reuse.take(vpn),
                None => None,
            };
            if let Some(old) = old {
                self.reuse_pay_debt(sf, mm_id, vpn, old);
            }
            let cap = self.cfg.reuse_window_cap;
            let evicted = match self.mms.get_mut(&mm_id) {
                Some(mm) => mm.reuse.park(
                    vpn,
                    ReuseEntry {
                        pte,
                        version,
                        retire,
                    },
                    cap,
                ),
                None => None,
            };
            if let Some((evpn, evicted)) = evicted {
                self.stats.counters.bump("reuse_evict");
                self.reuse_pay_debt(sf, mm_id, evpn, evicted);
            }
        }
        self.stats.counters.add("reuse_park", n);
    }

    /// Try to satisfy a demand fault from the reuse window. On a hit the
    /// identical PTE is reinstalled with **no flush**: the versioned-PTE
    /// check (`kernel pte_versions[vpn] == parked version`) proves nothing
    /// modified the page since it was parked, so every surviving TLB entry
    /// translates correctly again and the guarantee is declared through
    /// [`crate::oracle::Oracle::reuse_restored`]. `buggy_reuse_skip` skips
    /// the version check. A miss (version moved or permissions differ)
    /// leaves the parked debt in place for a later invalidation to pay and
    /// falls back to the ordinary fault path.
    pub(crate) fn reuse_try_hit(
        &mut self,
        core: CoreId,
        mm_id: MmId,
        vma: &Vma,
        page: VirtAddr,
        write: bool,
        fetch: bool,
    ) -> Option<PhysAddr> {
        if !self.reuse_active() {
            return None;
        }
        let vpn = page.vpn();
        let (pte, version) = {
            let e = self.mms.get(&mm_id)?.reuse.get(vpn)?;
            (e.pte, e.version)
        };
        // §4.1-style hazard, reused: the CPU may speculatively cache the
        // parked PTE inside the fault window, before the version check.
        let pcid = self.user_mode_pcid(core);
        self.tlbs[core.index()].fill_speculative(pcid, page, PageSize::Size4K, pte);
        let current = self
            .mms
            .get(&mm_id)?
            .pte_versions
            .get(&vpn)
            .copied()
            .unwrap_or(0);
        // "Same mapping, same permissions": the access must be satisfiable
        // and the parked writability must match what the VMA grants now.
        let perms_ok = pte.flags.permits(write, fetch, true) && pte.writable() == vma.prot_write;
        let version_ok = current == version || self.cfg.injects(InjectedBug::ReuseSkip);
        if !(perms_ok && version_ok) {
            // Not reusable: evict the speculative stale fill locally and
            // take the normal path. The parked entry stays as recorded
            // debt — its version can no longer match, so it sits inert
            // until an invalidation or eviction pays it off.
            self.tlbs[core.index()].invlpg(pcid, page);
            self.stats.counters.bump("reuse_version_miss");
            return None;
        }
        let entry = self.mms.get_mut(&mm_id)?.reuse.take(vpn)?;
        let map_ok = {
            let mm = self.mms.get_mut(&mm_id)?;
            mm.space
                .map(
                    &mut self.mem,
                    page,
                    entry.pte.addr,
                    PageSize::Size4K,
                    entry.pte.flags,
                )
                .is_ok()
        };
        if !map_ok {
            // Re-park so the frame reference and debt stay tracked.
            self.tlbs[core.index()].invlpg(pcid, page);
            let cap = self.cfg.reuse_window_cap;
            if let Some(mm) = self.mms.get_mut(&mm_id) {
                mm.reuse.park(vpn, entry, cap);
            }
            return None;
        }
        for &(_, v) in &entry.retire {
            self.oracle.reuse_restored(mm_id, page, v);
        }
        // The speculative fill now caches a *valid* identical
        // translation: record it at the current version.
        self.oracle
            .tlb_filled(core, pcid.is_user_view(), mm_id, page);
        if entry.pte.dirty() {
            self.dirty_index.entry(mm_id).or_default().insert(vpn);
        }
        self.stats.counters.bump("reuse_hit");
        Some(entry.pte.addr)
    }

    /// Propagate a PTE update to every socket's page-table replica (L8).
    /// `changed` lists the updated entries as `(page, old entry, size)`.
    ///
    /// The real path charges one cacheline batch per remote socket, routed
    /// through the interconnect hop distance to that socket, and keeps all
    /// replicas current. The `buggy_numapte` injection refreshes only the
    /// updating core's socket, recording the old PTE (at `version - 1`)
    /// as stale state every remote socket will keep serving to walks.
    pub(crate) fn numa_replica_update(
        &mut self,
        core: CoreId,
        mm_id: MmId,
        changed: &[(VirtAddr, Pte, PageSize)],
        pairs: &[(u64, u64)],
    ) -> Cycles {
        if !self.numa_pte_active() || changed.is_empty() {
            return Cycles::ZERO;
        }
        let sockets = self.cfg.topo.num_sockets();
        let per_socket = self.cfg.topo.cores_per_socket();
        let my_socket = self.cfg.topo.socket_of(core);
        let mut cost = Cycles::ZERO;
        if self.cfg.injects(InjectedBug::NumaPte) {
            // THE INJECTED BUG: only the local replica sees the update.
            let Some(mm) = self.mms.get_mut(&mm_id) else {
                return Cycles::ZERO;
            };
            if let Some(local) = mm.numa_stale.get_mut(&my_socket) {
                for (va, ..) in changed {
                    local.remove(&va.vpn());
                }
            }
            for s in 0..sockets {
                if s == my_socket {
                    continue;
                }
                let stale = mm.numa_stale.entry(s).or_default();
                for (va, old_pte, _) in changed {
                    let vnew = pairs
                        .iter()
                        .find(|(vp, _)| *vp == va.vpn())
                        .map(|&(_, v)| v)
                        .unwrap_or(1);
                    stale.insert(
                        va.vpn(),
                        StalePte {
                            pte: *old_pte,
                            version: vnew.saturating_sub(1),
                        },
                    );
                }
            }
            self.stats
                .counters
                .add("numapte_sync_skipped", (sockets - 1) as u64);
        } else {
            // Deterministic replica-sync: the update's page-table lines
            // travel once to each remote socket.
            let lines = (changed.len() as u64).div_ceil(PTES_PER_LINE);
            for s in 0..sockets {
                if s == my_socket {
                    continue;
                }
                let rep = CoreId(s * per_socket);
                let hops = self.dir.jitter_hops(core, rep);
                cost += self.cfg.costs.mem_access * (lines * (1 + hops));
                self.stats.counters.bump("numapte_replica_sync");
            }
            if let Some(mm) = self.mms.get_mut(&mm_id) {
                for stale in mm.numa_stale.values_mut() {
                    for (va, ..) in changed {
                        stale.remove(&va.vpn());
                    }
                }
            }
        }
        cost
    }

    /// A page walk on `core` consults its socket's replica first. Under
    /// the real L8 path replicas are always current — the walk merely
    /// counts as node-local. Under `buggy_numapte` a stale replica entry
    /// satisfies the walk with the *old* PTE: the TLB fills at the old
    /// version and the subsequent access hits through it. Returns whether
    /// a stale fill was installed.
    pub(crate) fn numa_stale_walk(
        &mut self,
        core: CoreId,
        mm_id: MmId,
        va: VirtAddr,
        write: bool,
        fetch: bool,
    ) -> bool {
        if !self.numa_pte_active() {
            return false;
        }
        let socket = self.cfg.topo.socket_of(core);
        let page = va.align_down(PageSize::Size4K);
        let stale = {
            let Some(mm) = self.mms.get(&mm_id) else {
                return false;
            };
            mm.numa_stale
                .get(&socket)
                .and_then(|m| m.get(&page.vpn()))
                .copied()
        };
        let Some(sp) = stale else {
            return false;
        };
        if !sp.pte.flags.permits(write, fetch, true) {
            return false;
        }
        let pcid = self.user_mode_pcid(core);
        self.tlbs[core.index()].fill_speculative(pcid, page, PageSize::Size4K, sp.pte);
        self.oracle
            .tlb_filled_at(core, pcid.is_user_view(), mm_id, page, sp.version);
        self.stats.counters.bump("numapte_stale_walk");
        true
    }

    /// A demand fault wrote a fresh PTE on `core`'s socket replica: clear
    /// any stale record it held for the page. The real sync path clears
    /// every socket; the buggy path only the faulting one (the others are
    /// exactly the replicas it fails to maintain).
    pub(crate) fn numa_fault_filled(&mut self, core: CoreId, mm_id: MmId, page: VirtAddr) {
        if !self.numa_pte_active() {
            return;
        }
        let my_socket = self.cfg.topo.socket_of(core);
        let buggy = self.cfg.injects(InjectedBug::NumaPte);
        let Some(mm) = self.mms.get_mut(&mm_id) else {
            return;
        };
        if buggy {
            if let Some(local) = mm.numa_stale.get_mut(&my_socket) {
                local.remove(&page.vpn());
            }
        } else {
            for stale in mm.numa_stale.values_mut() {
                stale.remove(&page.vpn());
            }
        }
        self.stats.counters.bump("numapte_local_walk");
    }
}
