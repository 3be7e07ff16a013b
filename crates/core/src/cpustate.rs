//! Per-CPU TLB state — Linux's `cpu_tlbstate`.

use crate::deferred::DeferredUserFlush;
use tlbdown_types::{MmId, Pcid};

/// The per-CPU TLB bookkeeping the shootdown protocol consults.
#[derive(Clone, Debug, Hash)]
pub struct CpuTlbState {
    /// The address space loaded on this CPU.
    pub loaded_mm: MmId,
    /// PCID used while in kernel mode for the loaded mm.
    pub kernel_pcid: Pcid,
    /// PCID of the PTI user-view sibling address space.
    pub user_pcid: Pcid,
    /// Lazy-TLB mode: a kernel thread is running on top of this mm, so
    /// shootdown IPIs may be skipped; the CPU re-syncs via the generation
    /// check before returning to the user thread (§3.3 item 1).
    pub is_lazy: bool,
    /// The mm generation this CPU's TLB is synced to for `loaded_mm`.
    pub local_tlb_gen: u64,
    /// Pending deferred user-PCID flushes (§3.4 and the baseline
    /// full-flush deferral).
    pub deferred_user: DeferredUserFlush,
}

impl CpuTlbState {
    /// State for a CPU that has just loaded `mm` (synced to `mm_gen`).
    pub fn load_mm(mm: MmId, kernel_pcid: Pcid, mm_gen: u64) -> Self {
        CpuTlbState {
            loaded_mm: mm,
            kernel_pcid,
            user_pcid: kernel_pcid.user_sibling(),
            is_lazy: false,
            local_tlb_gen: mm_gen,
            deferred_user: DeferredUserFlush::new(),
        }
    }

    /// Whether this CPU needs an IPI for a flush of `mm`: it must have the
    /// mm loaded and not be in lazy mode.
    pub fn needs_ipi_for(&self, mm: MmId) -> bool {
        self.loaded_mm == mm && !self.is_lazy
    }

    /// `nmi_uaccess_okay()`, extended per §3.2: userspace memory may be
    /// touched from NMI context only if the loaded mm is the expected one
    /// *and* no acknowledged-but-unexecuted TLB flushes are pending.
    pub fn nmi_uaccess_okay(&self, expected_mm: MmId, shootdown_flush_pending: bool) -> bool {
        self.loaded_mm == expected_mm
            && !shootdown_flush_pending
            && !self.deferred_user.is_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_types::{PageSize, VirtAddr, VirtRange};

    #[test]
    fn load_mm_syncs_generation() {
        let s = CpuTlbState::load_mm(MmId::new(3), Pcid::new(2), 17);
        assert_eq!(s.local_tlb_gen, 17);
        assert_eq!(s.user_pcid, Pcid::new(2).user_sibling());
        assert!(!s.is_lazy);
    }

    #[test]
    fn ipi_needed_only_for_loaded_non_lazy() {
        let mut s = CpuTlbState::load_mm(MmId::new(3), Pcid::new(2), 0);
        assert!(s.needs_ipi_for(MmId::new(3)));
        assert!(!s.needs_ipi_for(MmId::new(4)));
        s.is_lazy = true;
        assert!(!s.needs_ipi_for(MmId::new(3)));
    }

    #[test]
    fn nmi_uaccess_check_extension() {
        let mut s = CpuTlbState::load_mm(MmId::new(3), Pcid::new(2), 0);
        assert!(s.nmi_uaccess_okay(MmId::new(3), false));
        // Wrong mm (mid context switch).
        assert!(!s.nmi_uaccess_okay(MmId::new(4), false));
        // Early-acked but unflushed shootdown pending (the §3.2 extension).
        assert!(!s.nmi_uaccess_okay(MmId::new(3), true));
        // Deferred in-context flush pending.
        s.deferred_user.record(
            VirtRange::pages(VirtAddr::new(0x1000), 1, PageSize::Size4K),
            PageSize::Size4K,
        );
        assert!(!s.nmi_uaccess_okay(MmId::new(3), false));
    }
}
