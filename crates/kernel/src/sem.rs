//! A reader–writer semaphore model (`mm->mmap_sem`).
//!
//! The semaphore matters twice in the paper: the kernel "typically holds
//! locks during flush, increasing contention" (§2.2), and userspace-safe
//! batching piggybacks its memory barrier on the `mmap_sem` release
//! (§4.2). The model is a fair FIFO rwsem granting to cores.

use std::collections::VecDeque;

use tlbdown_types::CoreId;

/// Lock mode requested by a waiter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SemMode {
    /// Shared (down_read).
    Read,
    /// Exclusive (down_write).
    Write,
}

/// A fair FIFO reader–writer semaphore.
#[derive(Clone, Debug, Default)]
pub(crate) struct RwSem {
    readers: Vec<CoreId>,
    writer: Option<CoreId>,
    waiters: VecDeque<(CoreId, SemMode)>,
}

impl RwSem {
    /// An unlocked semaphore.
    pub(crate) fn new() -> Self {
        RwSem::default()
    }

    /// Whether `core` currently holds the semaphore in any mode.
    pub(crate) fn held_by(&self, core: CoreId) -> bool {
        self.writer == Some(core) || self.readers.contains(&core)
    }

    /// Whether anyone holds the semaphore.
    pub(crate) fn is_locked(&self) -> bool {
        self.writer.is_some() || !self.readers.is_empty()
    }

    /// Try to acquire; on contention the core is queued and `false` is
    /// returned (the caller blocks until [`RwSem::release`] grants it).
    pub(crate) fn acquire(&mut self, core: CoreId, mode: SemMode) -> bool {
        debug_assert!(!self.held_by(core), "mmap_sem does not nest");
        let can = match mode {
            // Fairness: readers don't overtake queued writers.
            SemMode::Read => self.writer.is_none() && self.waiters.is_empty(),
            SemMode::Write => !self.is_locked() && self.waiters.is_empty(),
        };
        if can {
            match mode {
                SemMode::Read => self.readers.push(core),
                SemMode::Write => self.writer = Some(core),
            }
            true
        } else {
            self.waiters.push_back((core, mode));
            false
        }
    }

    /// Release the semaphore held by `core`, returning the cores that are
    /// granted the lock as a result (to be woken).
    ///
    /// # Panics
    ///
    /// Panics if `core` does not hold the semaphore.
    pub(crate) fn release(&mut self, core: CoreId) -> Vec<CoreId> {
        if self.writer == Some(core) {
            self.writer = None;
        } else if let Some(pos) = self.readers.iter().position(|&c| c == core) {
            self.readers.remove(pos);
        } else {
            panic!("{core} released a semaphore it does not hold");
        }
        self.grant()
    }

    /// Grant the lock to waiters now that it (partially) freed up.
    fn grant(&mut self) -> Vec<CoreId> {
        let mut woken = Vec::new();
        while let Some(&(core, mode)) = self.waiters.front() {
            match mode {
                SemMode::Write => {
                    if self.is_locked() {
                        break;
                    }
                    self.writer = Some(core);
                    self.waiters.pop_front();
                    woken.push(core);
                    break; // writer is exclusive
                }
                SemMode::Read => {
                    if self.writer.is_some() {
                        break;
                    }
                    self.readers.push(core);
                    self.waiters.pop_front();
                    woken.push(core);
                    // Keep granting consecutive readers.
                }
            }
        }
        woken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: CoreId = CoreId(0);
    const B: CoreId = CoreId(1);
    const C: CoreId = CoreId(2);

    #[test]
    fn readers_share() {
        let mut s = RwSem::new();
        assert!(s.acquire(A, SemMode::Read));
        assert!(s.acquire(B, SemMode::Read));
        assert!(s.held_by(A) && s.held_by(B));
    }

    #[test]
    fn writer_excludes() {
        let mut s = RwSem::new();
        assert!(s.acquire(A, SemMode::Write));
        assert!(!s.acquire(B, SemMode::Read));
        assert!(!s.acquire(C, SemMode::Write));
        assert_eq!(s.waiters.len(), 2);
        let woken = s.release(A);
        assert_eq!(woken, vec![B], "FIFO: reader B first");
        let woken = s.release(B);
        assert_eq!(woken, vec![C]);
        assert!(s.held_by(C));
    }

    #[test]
    fn readers_do_not_overtake_queued_writer() {
        let mut s = RwSem::new();
        assert!(s.acquire(A, SemMode::Read));
        assert!(!s.acquire(B, SemMode::Write));
        // C's read request queues behind the writer (fairness).
        assert!(!s.acquire(C, SemMode::Read));
        let woken = s.release(A);
        assert_eq!(woken, vec![B]);
        let woken = s.release(B);
        assert_eq!(woken, vec![C]);
    }

    #[test]
    fn consecutive_readers_wake_together() {
        let mut s = RwSem::new();
        assert!(s.acquire(A, SemMode::Write));
        assert!(!s.acquire(B, SemMode::Read));
        assert!(!s.acquire(C, SemMode::Read));
        let woken = s.release(A);
        assert_eq!(woken, vec![B, C]);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn release_without_hold_panics() {
        let mut s = RwSem::new();
        s.release(A);
    }
}
