//! `struct flush_tlb_info`: the work description a shootdown carries.

use tlbdown_types::{MmId, PageSize, VirtRange};

/// Linux's `tlb_single_page_flush_ceiling`: flush requests covering more
/// than this many pages are executed as full flushes (§2.1: "Linux places
/// the ceiling at 33").
pub const FLUSH_CEILING: u64 = 33;

/// Description of one TLB flush request, mirroring Linux's
/// `struct flush_tlb_info` (§3.3 item 2, §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlushTlbInfo {
    /// The address space whose mappings changed.
    pub mm: MmId,
    /// The affected virtual range (ignored when `full`).
    pub range: VirtRange,
    /// The stride (page size) of the entries in the range.
    pub stride: PageSize,
    /// The `mm` generation this flush brings a CPU up to.
    pub new_tlb_gen: u64,
    /// Whether page-table pages were freed by the operation. When set,
    /// early acknowledgement must not be used (§3.2) and the flush may not
    /// be deferred past the address-space switch (§3.4).
    pub freed_tables: bool,
    /// Request a full flush regardless of range.
    pub full: bool,
}

impl FlushTlbInfo {
    /// A ranged flush request.
    pub fn ranged(mm: MmId, range: VirtRange, stride: PageSize, new_tlb_gen: u64) -> Self {
        FlushTlbInfo {
            mm,
            range,
            stride,
            new_tlb_gen,
            freed_tables: false,
            full: false,
        }
    }

    /// A full-flush request.
    pub(crate) fn full(mm: MmId, new_tlb_gen: u64) -> Self {
        FlushTlbInfo {
            mm,
            range: VirtRange::new(tlbdown_types::VirtAddr(0), tlbdown_types::VirtAddr(0)),
            stride: PageSize::Size4K,
            new_tlb_gen,
            freed_tables: false,
            full: true,
        }
    }

    /// Mark that the operation freed page tables.
    pub fn with_freed_tables(mut self) -> Self {
        self.freed_tables = true;
        self
    }

    /// Number of pages this request names (0 when full).
    pub(crate) fn page_count(&self) -> u64 {
        if self.full {
            0
        } else {
            self.range.page_count(self.stride)
        }
    }

    /// Whether the request should be executed as a full flush: either it
    /// asks for one, or it exceeds the 33-entry ceiling.
    pub fn effective_full(&self) -> bool {
        self.full || self.page_count() > FLUSH_CEILING
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_types::VirtAddr;

    fn range(pages: u64) -> VirtRange {
        VirtRange::pages(VirtAddr::new(0x10_0000), pages, PageSize::Size4K)
    }

    #[test]
    fn ceiling_escalates_to_full() {
        let mm = MmId::new(1);
        let small = FlushTlbInfo::ranged(mm, range(33), PageSize::Size4K, 2);
        assert!(!small.effective_full());
        assert_eq!(small.page_count(), 33);
        let big = FlushTlbInfo::ranged(mm, range(34), PageSize::Size4K, 2);
        assert!(big.effective_full());
    }

    #[test]
    fn full_request_is_full() {
        let f = FlushTlbInfo::full(MmId::new(1), 3);
        assert!(f.effective_full());
        assert_eq!(f.page_count(), 0);
    }

    #[test]
    fn freed_tables_marker() {
        let f =
            FlushTlbInfo::ranged(MmId::new(1), range(1), PageSize::Size4K, 2).with_freed_tables();
        assert!(f.freed_tables);
    }

    #[test]
    fn hugepage_stride_counts_correctly() {
        let r = VirtRange::pages(VirtAddr::new(0x4000_0000), 5, PageSize::Size2M);
        let f = FlushTlbInfo::ranged(MmId::new(1), r, PageSize::Size2M, 2);
        assert_eq!(f.page_count(), 5);
        assert!(!f.effective_full());
    }
}
