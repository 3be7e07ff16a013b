//! In-context (deferred) user-PCID flushes — §3.4.
//!
//! Under PTI every flush must hit two address spaces. The baseline kernel
//! flushes the user PCID's PTEs eagerly with `INVPCID` (slow); full flushes
//! are already deferred to the return-to-user CR3 reload (free). The
//! in-context optimization defers *selective* user flushes too: the kernel
//! records `(start, end, stride)` per CPU, merges pending ranges, and runs
//! the flushes with the cheaper `INVLPG` once the user address space is
//! active — followed by an `lfence` so Spectre-v1 cannot speculatively skip
//! the loop.

use crate::info::FLUSH_CEILING;
use tlbdown_types::{PageSize, VirtRange};

/// A recorded pending flush of the user address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PendingFlush {
    /// Merged range to invalidate (meaningless when `full`).
    pub range: VirtRange,
    /// Stride of the entries (the smallest stride among merged requests).
    pub stride: PageSize,
    /// Whether the pending work escalated to a full user-PCID flush.
    pub full: bool,
}

impl PendingFlush {
    /// Number of INVLPG executions this flush needs (0 when full).
    pub fn entries(&self) -> u64 {
        if self.full {
            0
        } else {
            self.range.page_count(self.stride)
        }
    }
}

/// Per-CPU deferred-flush state (`struct tlb_state` extension).
///
/// # Examples
///
/// ```
/// use tlbdown_core::DeferredUserFlush;
/// use tlbdown_types::{PageSize, VirtAddr, VirtRange};
///
/// let mut d = DeferredUserFlush::new();
/// d.record(VirtRange::pages(VirtAddr::new(0x1000), 4, PageSize::Size4K), PageSize::Size4K);
/// d.record(VirtRange::pages(VirtAddr::new(0x5000), 2, PageSize::Size4K), PageSize::Size4K);
/// // Adjacent records merged into one 6-page range, still selective.
/// let p = d.take().unwrap();
/// assert!(!p.full);
/// assert_eq!(p.entries(), 6);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct DeferredUserFlush {
    pending: Option<PendingFlush>,
}

impl DeferredUserFlush {
    /// No pending flushes.
    pub fn new() -> Self {
        DeferredUserFlush { pending: None }
    }

    /// Whether any user flush is pending on this CPU.
    pub(crate) fn is_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Peek at the pending flush.
    pub fn pending(&self) -> Option<&PendingFlush> {
        self.pending.as_ref()
    }

    /// Record a selective flush of `range`. Pending flushes are merged
    /// into a single covering range; if the merged range exceeds the
    /// 33-entry ceiling, the record escalates to a full flush (§3.4: "If
    /// the resulting range size exceeds a fixed threshold ... a full flush
    /// is performed upon return to userspace").
    pub fn record(&mut self, range: VirtRange, stride: PageSize) {
        let merged = match self.pending {
            None => PendingFlush {
                range,
                stride,
                full: false,
            },
            Some(p) if p.full => p,
            Some(p) => {
                let stride = p.stride.min(stride);
                PendingFlush {
                    range: p.range.merge(&range),
                    stride,
                    full: false,
                }
            }
        };
        let merged = if merged.entries() > FLUSH_CEILING {
            PendingFlush {
                full: true,
                ..merged
            }
        } else {
            merged
        };
        self.pending = Some(merged);
    }

    /// Record that a full user flush is required (also the baseline path
    /// for full flushes, which Linux already defers to the CR3 reload).
    pub fn record_full(&mut self) {
        self.pending = Some(PendingFlush {
            range: VirtRange::new(tlbdown_types::VirtAddr(0), tlbdown_types::VirtAddr(0)),
            stride: PageSize::Size4K,
            full: true,
        });
    }

    /// Take the pending work at return-to-user (or at the forced flush
    /// points: no-stack IRET returns and page-table-freeing operations).
    pub fn take(&mut self) -> Option<PendingFlush> {
        self.pending.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_types::VirtAddr;

    fn pages(start: u64, n: u64) -> VirtRange {
        VirtRange::pages(VirtAddr::new(start), n, PageSize::Size4K)
    }

    #[test]
    fn single_record_kept_verbatim() {
        let mut d = DeferredUserFlush::new();
        assert!(!d.is_pending());
        d.record(pages(0x1000, 4), PageSize::Size4K);
        let p = d.pending().unwrap();
        assert!(!p.full);
        assert_eq!(p.entries(), 4);
    }

    #[test]
    fn adjacent_records_merge() {
        let mut d = DeferredUserFlush::new();
        d.record(pages(0x1000, 4), PageSize::Size4K);
        d.record(pages(0x5000, 2), PageSize::Size4K);
        let p = d.pending().unwrap();
        assert_eq!(p.range, pages(0x1000, 6));
        assert_eq!(p.entries(), 6);
    }

    #[test]
    fn distant_records_merge_to_covering_range_and_escalate() {
        let mut d = DeferredUserFlush::new();
        d.record(pages(0x1000, 1), PageSize::Size4K);
        d.record(pages(0x100_0000, 1), PageSize::Size4K);
        // Covering range has thousands of pages → full flush.
        assert!(d.pending().unwrap().full);
    }

    #[test]
    fn exactly_ceiling_stays_selective() {
        let mut d = DeferredUserFlush::new();
        d.record(pages(0x1000, FLUSH_CEILING), PageSize::Size4K);
        assert!(!d.pending().unwrap().full);
        d.record(pages(0x1000 + FLUSH_CEILING * 0x1000, 1), PageSize::Size4K);
        assert!(d.pending().unwrap().full, "34 pages exceeds the ceiling");
    }

    #[test]
    fn full_absorbs_later_records() {
        let mut d = DeferredUserFlush::new();
        d.record_full();
        d.record(pages(0x1000, 1), PageSize::Size4K);
        assert!(d.pending().unwrap().full);
    }

    #[test]
    fn take_clears() {
        let mut d = DeferredUserFlush::new();
        d.record(pages(0x1000, 2), PageSize::Size4K);
        let p = d.take().unwrap();
        assert_eq!(p.entries(), 2);
        assert!(!d.is_pending());
        assert!(d.take().is_none());
    }

    #[test]
    fn mixed_strides_use_finer_stride() {
        let mut d = DeferredUserFlush::new();
        let huge = VirtRange::pages(VirtAddr::new(0x20_0000), 1, PageSize::Size2M);
        d.record(huge, PageSize::Size2M);
        d.record(pages(0x20_0000, 1), PageSize::Size4K);
        let p = d.pending().unwrap();
        assert_eq!(p.stride, PageSize::Size4K);
        // 512 4KB pages in a 2MB range exceeds the ceiling.
        assert!(p.full);
    }
}
