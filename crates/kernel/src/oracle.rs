//! The TLB-coherence safety oracle.
//!
//! The kernel's contract is: once a PTE-modifying operation *completes its
//! flush guarantee* (a synchronous shootdown finishes on the initiator, a
//! batching barrier runs, a deferred in-context flush executes before the
//! return to user), no user-mode access anywhere may translate through the
//! old entry. Hardware staleness *during* the window is legal — that is
//! why shootdowns exist at all.
//!
//! The oracle tracks, per `(mm, page)`, a modification **version** and the
//! highest version whose removal the kernel has **retired** (guaranteed).
//! Every TLB fill records the page version the entry was created under;
//! every user access through a cached entry checks
//! `fill_version >= retired_version`. A violation is precisely the hazard
//! class the paper warns aggressive batching creates (§2.3.2), and it is
//! what the LATR-style lazy mode in this repository trips.

use tlbdown_types::{CoreId, FastMap, MmId, SimError, VirtAddr, VirtRange};

/// The safety oracle.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Current modification version per (mm, vpn).
    versions: FastMap<(MmId, u64), u64>,
    /// Highest version whose flush has been guaranteed, per (mm, vpn).
    retired: FastMap<(MmId, u64), u64>,
    /// Fill-time version of live TLB entries, per (core, pcid-view, mm,
    /// vpn). The view bit distinguishes kernel- and user-PCID entries so
    /// PTI double-flush bugs are caught independently per view.
    fills: FastMap<(CoreId, bool, MmId, u64), u64>,
    /// Violations found.
    violations: Vec<SimError>,
}

impl Oracle {
    /// A fresh oracle.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Record that the PTE mapping `(mm, page)` changed (unmap, protect,
    /// CoW swap). Returns the new version, which the caller hands to
    /// [`Oracle::retire_exact`] as a `(vpn, version)` pair when the
    /// covering flush completes.
    pub fn pte_modified(&mut self, mm: MmId, page: VirtAddr) -> u64 {
        let v = self.versions.entry((mm, page.vpn())).or_insert(0);
        *v += 1;
        *v
    }

    /// Record every page of `range` as modified; returns the
    /// `(vpn, version)` pairs to hand to [`Oracle::retire_exact`] when the
    /// covering flush completes. Retiring at flush time using the *then*
    /// current versions would overcommit: another core may have modified a
    /// page again (with its own flush still in flight) between this
    /// operation's PTE update and its flush completion.
    pub fn range_modified(&mut self, mm: MmId, range: VirtRange) -> Vec<(u64, u64)> {
        let mut pairs = Vec::new();
        let mut va = range.start;
        while va < range.end {
            pairs.push((va.vpn(), self.pte_modified(mm, va)));
            va = va.add(4096);
        }
        pairs
    }

    /// The kernel has completed the flush guarantee for exactly the given
    /// `(vpn, version)` pairs.
    pub fn retire_exact(&mut self, mm: MmId, pairs: &[(u64, u64)]) {
        for &(vpn, ver) in pairs {
            let r = self.retired.entry((mm, vpn)).or_insert(0);
            *r = (*r).max(ver);
        }
    }

    /// Record a TLB fill on `core` (under the kernel- or user-PCID view)
    /// for `(mm, page)` at the current version.
    pub fn tlb_filled(&mut self, core: CoreId, user_view: bool, mm: MmId, page: VirtAddr) {
        let v = self.versions.get(&(mm, page.vpn())).copied().unwrap_or(0);
        self.fills.insert((core, user_view, mm, page.vpn()), v);
    }

    /// Record a TLB fill at an *explicit* version rather than the current
    /// one. Used when the modelled hardware translates through state that
    /// lags the real page tables — a stale numaPTE socket replica fills at
    /// the version the replica last saw, so a later retire of the real
    /// update correctly flags any access that survives it.
    pub fn tlb_filled_at(
        &mut self,
        core: CoreId,
        user_view: bool,
        mm: MmId,
        page: VirtAddr,
        version: u64,
    ) {
        self.fills
            .insert((core, user_view, mm, page.vpn()), version);
    }

    /// Current modification version of `(mm, page)` (0 if never modified).
    pub fn current_version(&self, mm: MmId, page: VirtAddr) -> u64 {
        self.versions.get(&(mm, page.vpn())).copied().unwrap_or(0)
    }

    /// The reuse-skip window restored `(mm, page)` to a PTE byte-identical
    /// to its pre-`version` state, with no intervening modification (the
    /// kernel's versioned-PTE check proved `version` is still the page's
    /// current version). Every live entry for the page — any core, either
    /// view — therefore translates correctly again: re-stamp older fills
    /// to `version` and retire it. This is the only sound way to retire a
    /// version whose flush was elided; retiring without the re-stamp (what
    /// `buggy_reuse_skip` effectively does at park time) flags the very
    /// next hit through a surviving entry.
    pub fn reuse_restored(&mut self, mm: MmId, page: VirtAddr, version: u64) {
        for ((_, _, m, vp), fill) in self.fills.iter_mut() {
            if *m == mm && *vp == page.vpn() && *fill < version {
                *fill = version;
            }
        }
        let r = self.retired.entry((mm, page.vpn())).or_insert(0);
        *r = (*r).max(version);
    }

    /// Check a user-mode (or NMI uaccess) access on `core` that *hit* the
    /// TLB. Records a violation if the entry predates a retired flush.
    pub fn check_hit(
        &mut self,
        core: CoreId,
        user_view: bool,
        mm: MmId,
        page: VirtAddr,
        detail: &str,
    ) {
        let key = (mm, page.vpn());
        let retired = self.retired.get(&key).copied().unwrap_or(0);
        if retired == 0 {
            return;
        }
        let fill = self
            .fills
            .get(&(core, user_view, mm, page.vpn()))
            .copied()
            .unwrap_or(0);
        if fill < retired {
            self.violations.push(SimError::StaleTlbAccess {
                core,
                mm,
                addr: page,
                detail: format!(
                    "entry filled at version {fill} used after version {retired} retired: {detail}"
                ),
            });
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[SimError] {
        &self.violations
    }

    /// Record an externally detected violation (e.g. machine check).
    pub fn record(&mut self, e: SimError) {
        self.violations.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_types::PageSize;

    const MM: MmId = MmId(1);
    const CORE: CoreId = CoreId(0);

    fn page(n: u64) -> VirtAddr {
        VirtAddr::new(n * 4096)
    }

    /// The range holding just [`page`]`(1)`.
    fn one_page() -> VirtRange {
        VirtRange::pages(page(1), 1, PageSize::Size4K)
    }

    #[test]
    fn fresh_entries_are_fine() {
        let mut o = Oracle::new();
        o.tlb_filled(CORE, false, MM, page(1));
        o.check_hit(CORE, false, MM, page(1), "test");
        assert!(o.violations().is_empty());
    }

    #[test]
    fn stale_after_retire_is_a_violation() {
        let mut o = Oracle::new();
        o.tlb_filled(CORE, false, MM, page(1)); // filled at version 0
        let pairs = o.range_modified(MM, one_page()); // version 1
                                                      // Window: access before retire is legal.
        o.check_hit(CORE, false, MM, page(1), "during window");
        assert!(o.violations().is_empty());
        o.retire_exact(MM, &pairs);
        o.check_hit(CORE, false, MM, page(1), "after retire");
        assert_eq!(o.violations().len(), 1);
    }

    #[test]
    fn refill_after_modify_is_fine() {
        let mut o = Oracle::new();
        let pairs = o.range_modified(MM, one_page());
        o.retire_exact(MM, &pairs);
        // The flush removed the entry; the next access refills at v1.
        o.tlb_filled(CORE, false, MM, page(1));
        o.check_hit(CORE, false, MM, page(1), "refilled");
        assert!(o.violations().is_empty());
    }

    #[test]
    fn kernel_and_user_views_are_independent() {
        // PTI: the same page lives under two PCIDs. A refill in the user
        // view must not launder a stale kernel-view entry (this is exactly
        // the double-flush bug class PTI introduces).
        let mut o = Oracle::new();
        o.tlb_filled(CORE, true, MM, page(1)); // user view, v0
        o.tlb_filled(CORE, false, MM, page(1)); // kernel view, v0
        let pairs = o.range_modified(MM, one_page());
        o.retire_exact(MM, &pairs);
        // Only the user view refills after the flush.
        o.tlb_filled(CORE, true, MM, page(1));
        o.check_hit(CORE, true, MM, page(1), "user view refilled");
        assert!(o.violations().is_empty());
        o.check_hit(CORE, false, MM, page(1), "kernel view still stale");
        assert_eq!(
            o.violations().len(),
            1,
            "stale kernel-view entry must be caught independently"
        );
    }

    #[test]
    fn broken_lazy_mode_skipping_one_page_is_caught() {
        // Regression for the §2.3.2 hazard: a lazy mode that claims the
        // flush guarantee for a whole range but never actually invalidates
        // one page. The refilled pages are clean; the first hit through
        // the skipped page's surviving entry is flagged.
        let mut o = Oracle::new();
        let range = VirtRange::pages(page(4), 4, PageSize::Size4K);
        for n in 4..8 {
            o.tlb_filled(CORE, false, MM, page(n));
        }
        let pairs = o.range_modified(MM, range);
        o.retire_exact(MM, &pairs); // kernel claims: all four are flushed
        for n in [4, 5, 7] {
            o.tlb_filled(CORE, false, MM, page(n)); // really flushed: refill
            o.check_hit(CORE, false, MM, page(n), "refilled after flush");
        }
        assert!(o.violations().is_empty());
        // Page 6 was silently skipped — its v0 entry survived the "flush".
        o.check_hit(CORE, false, MM, page(6), "lazy mode skipped this page");
        assert_eq!(
            o.violations().len(),
            1,
            "the skipped page's stale entry must trip the oracle"
        );
    }

    #[test]
    fn reuse_restore_launders_identical_translations() {
        // Reuse-skip: zap parks the page (no retire — elision is legal
        // while the pairs stay un-retired), then the re-fault restores the
        // identical PTE and declares the guarantee via reuse_restored.
        let mut o = Oracle::new();
        o.tlb_filled(CORE, false, MM, page(1)); // remote entry at v0
        let v = o.pte_modified(MM, page(1)); // parked at v1, flush elided
        o.check_hit(CORE, false, MM, page(1), "during elided window");
        assert!(o.violations().is_empty(), "un-retired window is legal");
        o.reuse_restored(MM, page(1), v);
        o.check_hit(CORE, false, MM, page(1), "after identical restore");
        assert!(
            o.violations().is_empty(),
            "an entry translating a restored-identical PTE is coherent"
        );
    }

    #[test]
    fn retire_without_restore_flags_survivors() {
        // The buggy_reuse_skip shape: claim the guarantee at park time
        // (plain retire_exact) without flushing or re-stamping — the
        // surviving entry's next hit must be a violation.
        let mut o = Oracle::new();
        o.tlb_filled(CORE, false, MM, page(1));
        let v = o.pte_modified(MM, page(1));
        o.retire_exact(MM, &[(page(1).vpn(), v)]);
        o.check_hit(CORE, false, MM, page(1), "survivor after bogus retire");
        assert_eq!(o.violations().len(), 1);
    }

    #[test]
    fn stale_replica_fill_records_old_version() {
        // numaPTE: a walk through a stale socket replica fills at the old
        // version; once the real update's flush retires, a hit through
        // that entry is exactly the stale-read the replica sync prevents.
        let mut o = Oracle::new();
        let v = o.pte_modified(MM, page(2));
        o.tlb_filled_at(CORE, false, MM, page(2), v - 1);
        o.check_hit(CORE, false, MM, page(2), "before retire");
        assert!(o.violations().is_empty());
        o.retire_exact(MM, &[(page(2).vpn(), v)]);
        o.check_hit(CORE, false, MM, page(2), "stale replica fill after retire");
        assert_eq!(o.violations().len(), 1);
    }

    #[test]
    fn current_version_tracks_modifications() {
        let mut o = Oracle::new();
        assert_eq!(o.current_version(MM, page(3)), 0);
        o.pte_modified(MM, page(3));
        o.pte_modified(MM, page(3));
        assert_eq!(o.current_version(MM, page(3)), 2);
    }

    #[test]
    fn per_core_independence() {
        let mut o = Oracle::new();
        o.tlb_filled(CoreId(0), false, MM, page(1));
        let pairs = o.range_modified(MM, one_page());
        o.retire_exact(MM, &pairs);
        // Core 1 refilled after the change; core 0 kept the stale entry.
        o.tlb_filled(CoreId(1), false, MM, page(1));
        o.check_hit(CoreId(1), false, MM, page(1), "fresh on core 1");
        assert!(o.violations().is_empty());
        o.check_hit(CoreId(0), false, MM, page(1), "stale on core 0");
        assert_eq!(o.violations().len(), 1);
    }
}
