//! Physical frame allocation with use-after-free detection.

use tlbdown_types::{FastMap, PhysAddr, SimError, SimResult};

/// What a physical frame is currently used for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameState {
    /// Never allocated or freed and available for reuse.
    Free,
    /// Holds a page table at some level.
    PageTable,
    /// Holds user data.
    UserPage,
    /// Holds kernel data.
    KernelPage,
}

/// The simulated machine's physical memory.
///
/// Frames are 4KB. Contiguous multi-frame allocations back 2MB hugepages.
/// The allocator keeps per-frame state so the rest of the system can ask
/// "is this frame still a live page table?" — the question behind the
/// machine-check hazard of §3.2 (speculative page walks through freed
/// tables) and behind several safety assertions in the test suite.
#[derive(Clone, Debug)]
pub struct PhysMem {
    total_frames: u64,
    next_never_used: u64,
    free_list: Vec<u64>,
    states: FastMap<u64, FrameState>,
    allocated: u64,
}

impl PhysMem {
    /// Create a memory of `total_frames` 4KB frames.
    pub fn new(total_frames: u64) -> Self {
        PhysMem {
            total_frames,
            next_never_used: 1, // frame 0 reserved so PhysAddr(0) is never valid
            free_list: Vec::new(),
            states: FastMap::default(),
            allocated: 0,
        }
    }

    /// Memory sized like the paper's testbed (256GB) — far more than any
    /// workload here touches, so allocation never fails in benchmarks.
    pub fn paper_machine() -> Self {
        PhysMem::new(256 * 1024 * 1024 * 1024 / 4096)
    }

    /// Number of frames currently allocated.
    pub fn allocated_frames(&self) -> u64 {
        self.allocated
    }

    /// Allocate one 4KB frame for the given use.
    pub fn alloc(&mut self, state: FrameState) -> SimResult<PhysAddr> {
        debug_assert_ne!(state, FrameState::Free);
        let pfn = if let Some(pfn) = self.free_list.pop() {
            pfn
        } else if self.next_never_used < self.total_frames {
            let pfn = self.next_never_used;
            self.next_never_used += 1;
            pfn
        } else {
            return Err(SimError::OutOfMemory);
        };
        self.states.insert(pfn, state);
        self.allocated += 1;
        Ok(PhysAddr::new(pfn << 12))
    }

    /// Allocate `count` physically contiguous frames (hugepage backing).
    ///
    /// Contiguity is only taken from the never-used region for simplicity;
    /// the simulation never fragments enough to matter.
    pub fn alloc_contiguous(&mut self, count: u64, state: FrameState) -> SimResult<PhysAddr> {
        debug_assert_ne!(state, FrameState::Free);
        if self.next_never_used + count > self.total_frames {
            return Err(SimError::OutOfMemory);
        }
        let base = self.next_never_used;
        self.next_never_used += count;
        for pfn in base..base + count {
            self.states.insert(pfn, state);
        }
        self.allocated += count;
        Ok(PhysAddr::new(base << 12))
    }

    /// Allocate `count` physically contiguous frames whose base is
    /// aligned to `align` frames (2MB hugepage leaves need a 512-frame
    /// aligned base so the PTE address bits are valid).
    ///
    /// Frames skipped to reach alignment stay in the never-used region's
    /// past and are not reclaimed — with the simulated 256GB this waste
    /// is irrelevant, and keeping them out of the free list preserves the
    /// invariant that contiguity only comes from never-used space.
    pub fn alloc_contiguous_aligned(
        &mut self,
        count: u64,
        align: u64,
        state: FrameState,
    ) -> SimResult<PhysAddr> {
        debug_assert!(align.is_power_of_two());
        let aligned = (self.next_never_used + align - 1) & !(align - 1);
        if aligned + count > self.total_frames {
            return Err(SimError::OutOfMemory);
        }
        self.next_never_used = aligned;
        self.alloc_contiguous(count, state)
    }

    /// Free a frame for reuse.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on double free.
    pub fn free(&mut self, addr: PhysAddr) {
        let pfn = addr.pfn();
        let prev = self.states.insert(pfn, FrameState::Free);
        debug_assert!(
            prev.is_some() && prev != Some(FrameState::Free),
            "double free of frame {pfn:#x}"
        );
        self.free_list.push(pfn);
        self.allocated -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Current state of the frame containing `addr`.
    fn state(m: &PhysMem, addr: PhysAddr) -> FrameState {
        m.states
            .get(&addr.pfn())
            .copied()
            .unwrap_or(FrameState::Free)
    }

    #[test]
    fn alloc_free_cycle() {
        let mut m = PhysMem::new(1024);
        let a = m.alloc(FrameState::UserPage).unwrap();
        assert_eq!(state(&m, a), FrameState::UserPage);
        assert_eq!(m.allocated_frames(), 1);
        m.free(a);
        assert_eq!(state(&m, a), FrameState::Free);
        assert_eq!(m.allocated_frames(), 0);
        // Frame is recycled.
        let b = m.alloc(FrameState::PageTable).unwrap();
        assert_eq!(a, b);
        assert_eq!(state(&m, b), FrameState::PageTable);
    }

    #[test]
    fn frame_zero_is_reserved() {
        let mut m = PhysMem::new(16);
        let a = m.alloc(FrameState::UserPage).unwrap();
        assert_ne!(a.pfn(), 0);
    }

    #[test]
    fn out_of_memory_is_an_error() {
        let mut m = PhysMem::new(3);
        m.alloc(FrameState::UserPage).unwrap(); // frame 1
        m.alloc(FrameState::UserPage).unwrap(); // frame 2
        assert_eq!(m.alloc(FrameState::UserPage), Err(SimError::OutOfMemory));
    }

    #[test]
    fn contiguous_allocation_is_contiguous() {
        let mut m = PhysMem::new(4096);
        let base = m.alloc_contiguous(512, FrameState::UserPage).unwrap();
        for i in 0..512 {
            assert_eq!(state(&m, base.add(i * 4096)), FrameState::UserPage);
        }
        assert_eq!(m.allocated_frames(), 512);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug() {
        let mut m = PhysMem::new(64);
        let a = m.alloc(FrameState::UserPage).unwrap();
        m.free(a);
        m.free(a);
    }
}
