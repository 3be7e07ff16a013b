//! Userspace-safe batching — §4.2.
//!
//! System calls that write-protect and clean PTEs of dirty file-backed
//! pages (`msync`, `munmap`, `madvise(MADV_DONTNEED)`) touch no user memory
//! while they run and already hold `mm->mmap_sem`; the memory barrier that
//! makes deferred flushes safe can therefore piggy-back on the semaphore
//! release. The implementation mirrors the paper: a `batched_mode`
//! indicator plus four `flush_tlb_info` slots tracking the deferred
//! flushes; overflow merges everything into one full-mm flush.

use crate::info::FlushTlbInfo;

/// Number of deferred-flush slots ("we also allocate 4 entries to keep
/// track of the deferred flushes").
pub(crate) const BATCH_SLOTS: usize = 4;

/// What happened to a flush handed to [`BatchState::defer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeferOutcome {
    /// Stored in a free slot.
    Deferred,
    /// Slots were full: all pending work merged into a single full-mm
    /// flush occupying one slot.
    MergedToFull,
}

/// Per-task batched-flush state.
#[derive(Clone, Debug, Default, Hash)]
pub struct BatchState {
    active: bool,
    slots: Vec<FlushTlbInfo>,
}

impl BatchState {
    /// Inactive, empty state.
    pub fn new() -> Self {
        BatchState::default()
    }

    /// Enter batched mode at the start of a suitable system call.
    ///
    /// # Panics
    ///
    /// Panics if batched mode is already active — the syscalls that use it
    /// do not nest.
    pub fn begin(&mut self) {
        assert!(!self.active, "batched mode does not nest");
        self.active = true;
    }

    /// Defer a flush. Must only be called while active.
    pub fn defer(&mut self, info: FlushTlbInfo) -> DeferOutcome {
        debug_assert!(self.active, "defer outside batched mode");
        if self.slots.len() < BATCH_SLOTS {
            self.slots.push(info);
            DeferOutcome::Deferred
        } else {
            // Overflow: collapse everything into one full flush stamped
            // with the newest generation.
            let mm = info.mm;
            let newest = self
                .slots
                .iter()
                .map(|i| i.new_tlb_gen)
                .chain([info.new_tlb_gen])
                .max()
                .expect("slots are non-empty here");
            let freed = self.slots.iter().any(|i| i.freed_tables) || info.freed_tables;
            let mut merged = FlushTlbInfo::full(mm, newest);
            merged.freed_tables = freed;
            self.slots.clear();
            self.slots.push(merged);
            DeferOutcome::MergedToFull
        }
    }

    /// Leave batched mode at `mmap_sem` release, returning the deferred
    /// flushes that must now be executed (the barrier point).
    pub fn end(&mut self) -> Vec<FlushTlbInfo> {
        debug_assert!(self.active, "end outside batched mode");
        self.active = false;
        std::mem::take(&mut self.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_types::{MmId, PageSize, VirtAddr, VirtRange};

    fn info(gen: u64) -> FlushTlbInfo {
        FlushTlbInfo::ranged(
            MmId::new(1),
            VirtRange::pages(VirtAddr::new(0x1000 * gen), 2, PageSize::Size4K),
            PageSize::Size4K,
            gen,
        )
    }

    #[test]
    fn defer_and_release() {
        let mut b = BatchState::new();
        b.begin();
        assert!(b.active);
        assert_eq!(b.defer(info(1)), DeferOutcome::Deferred);
        assert_eq!(b.defer(info(2)), DeferOutcome::Deferred);
        let out = b.end();
        assert!(!b.active);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].new_tlb_gen, 1);
    }

    #[test]
    fn overflow_merges_to_full() {
        let mut b = BatchState::new();
        b.begin();
        for g in 1..=4 {
            assert_eq!(b.defer(info(g)), DeferOutcome::Deferred);
        }
        assert_eq!(b.defer(info(5)), DeferOutcome::MergedToFull);
        let out = b.end();
        assert_eq!(out.len(), 1);
        assert!(out[0].full);
        assert_eq!(
            out[0].new_tlb_gen, 5,
            "merged flush carries the newest generation"
        );
    }

    #[test]
    fn overflow_preserves_freed_tables() {
        let mut b = BatchState::new();
        b.begin();
        b.defer(info(1).with_freed_tables());
        for g in 2..=5 {
            b.defer(info(g));
        }
        let out = b.end();
        assert!(out[0].freed_tables, "freed_tables must survive the merge");
    }

    #[test]
    fn end_resets_for_reuse() {
        let mut b = BatchState::new();
        b.begin();
        b.defer(info(1));
        b.end();
        b.begin();
        assert_eq!(b.slots.len(), 0);
        b.end();
    }

    #[test]
    #[should_panic(expected = "does not nest")]
    fn nesting_panics() {
        let mut b = BatchState::new();
        b.begin();
        b.begin();
    }
}
