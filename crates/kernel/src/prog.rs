//! User programs: the workload interface.
//!
//! A [`Prog`] is a small state machine: each time the core is ready to
//! execute the next user-level step, the kernel calls [`Prog::next`] with
//! a [`ProgCtx`] carrying the result of the previous action (e.g. the
//! address returned by `mmap`). Programs run entirely in user mode; the
//! kernel turns [`ProgAction`]s into simulated instructions, page faults
//! and system calls.

use tlbdown_sim::SplitMix64;
use tlbdown_types::{Cycles, VirtAddr};

use crate::mm::FileId;

/// A system call a program can issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Syscall {
    /// Map `pages` of private anonymous memory; returns the address.
    MmapAnon {
        /// Number of 4KB pages.
        pages: u64,
    },
    /// Map `pages` of a file; returns the address.
    MmapFile {
        /// Backing file.
        file: FileId,
        /// Offset into the file, in pages.
        page_offset: u64,
        /// Number of 4KB pages.
        pages: u64,
        /// `MAP_SHARED` when true, `MAP_PRIVATE` (CoW) when false.
        shared: bool,
    },
    /// Unmap `[addr, addr + pages*4K)`.
    Munmap {
        /// Start address.
        addr: VirtAddr,
        /// Number of 4KB pages.
        pages: u64,
    },
    /// `madvise(MADV_DONTNEED)` on the range.
    MadviseDontNeed {
        /// Start address.
        addr: VirtAddr,
        /// Number of 4KB pages.
        pages: u64,
    },
    /// `msync`: write back dirty pages of the range (write-protects and
    /// cleans their PTEs — the flush-heavy writeback path).
    Msync {
        /// Start address.
        addr: VirtAddr,
        /// Number of 4KB pages.
        pages: u64,
    },
    /// `fdatasync`: write back every dirty page of the file through all
    /// mapping VMAs of the calling mm (the Sysbench §5.2 path).
    Fdatasync {
        /// File to write back.
        file: FileId,
    },
    /// `send`-style kernel read of a user buffer (the Apache §5.3 path:
    /// the kernel touches user memory, exercising kernel-PCID entries).
    Send {
        /// Start address.
        addr: VirtAddr,
        /// Number of 4KB pages.
        pages: u64,
    },
    /// `mprotect` changing writability of the range.
    Mprotect {
        /// Start address.
        addr: VirtAddr,
        /// Number of 4KB pages.
        pages: u64,
        /// New writability.
        write: bool,
    },
}

/// The next step a program wants to take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgAction {
    /// Execute for `0` cycles — ask again immediately (internal
    /// bookkeeping steps).
    Nop,
    /// Burn CPU for the given number of cycles.
    Compute(Cycles),
    /// Load or store one location.
    Access {
        /// Virtual address.
        va: VirtAddr,
        /// Whether the access is a store.
        write: bool,
    },
    /// Fetch/execute an instruction at the address (exercises the ITLB).
    Fetch {
        /// Virtual address.
        va: VirtAddr,
    },
    /// Issue a system call; its result arrives in [`ProgCtx::retval`].
    Syscall(Syscall),
    /// Yield the CPU to the next thread pinned to this core.
    Yield,
    /// Terminate the thread.
    Exit,
}

/// Context handed to a program on each step.
#[derive(Clone, Debug, Default)]
pub struct ProgCtx {
    /// Result of the previous action (e.g. the address `mmap` returned, as
    /// a raw u64), 0 otherwise.
    pub retval: u64,
    /// Current simulated time (for self-measuring workloads).
    pub now: Cycles,
}

/// A user program. Every program is `Clone` (through [`ProgClone`]), so
/// a machine can be copied mid-run.
pub trait Prog: ProgClone {
    /// Produce the next action. `ctx.retval` carries the result of the
    /// previous action.
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction;

    /// `Some(P)` promises that every call of [`Prog::next`], whatever its
    /// context, returns `Compute(P)` and changes nothing, so the kernel
    /// may run a stretch of those steps in closed form (DESIGN §3). The
    /// default, `None`, promises nothing.
    fn spin_period(&self) -> Option<Cycles> {
        None
    }
}

/// Cloning behind `Box<dyn Prog>`: implemented for every `Prog + Clone`,
/// so a program only derives `Clone`.
pub trait ProgClone {
    /// A boxed copy of this program, in its current state.
    fn clone_box(&self) -> Box<dyn Prog>;
}

impl<T: Prog + Clone + 'static> ProgClone for T {
    fn clone_box(&self) -> Box<dyn Prog> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Prog> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A program executing a fixed list of actions, then exiting — for any
/// program whose steps do not depend on syscall results.
#[derive(Clone, Debug)]
pub struct ScriptProg {
    script: Vec<ProgAction>,
    idx: usize,
}

impl ScriptProg {
    /// Run the given actions in order, then exit.
    pub fn new(script: Vec<ProgAction>) -> Self {
        ScriptProg { script, idx: 0 }
    }
}

impl Prog for ScriptProg {
    fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
        let a = self
            .script
            .get(self.idx)
            .copied()
            .unwrap_or(ProgAction::Exit);
        self.idx += 1;
        a
    }
}

/// A program that spins forever in user mode (the microbenchmark's
/// "responder" thread, §5.1).
#[derive(Clone, Debug, Default)]
pub struct BusyLoopProg;

/// Cycles of one [`BusyLoopProg`] step.
const SPIN: Cycles = Cycles::new(200);

impl Prog for BusyLoopProg {
    fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
        ProgAction::Compute(SPIN)
    }

    fn spin_period(&self) -> Option<Cycles> {
        Some(SPIN)
    }
}

/// The canonical shootdown generator: mmap `pages` of anonymous memory,
/// touch every page, `madvise(MADV_DONTNEED)` the range, and repeat
/// `iters` times. Each iteration zaps live PTEs and so forces one full
/// shootdown against every core sharing the mm — the §5.1 initiator
/// shape, reused by the workloads, the chaos harness and benches.
#[derive(Clone, Debug)]
pub struct MadviseLoopProg {
    pages: u64,
    iters: u64,
    jitter: Option<SplitMix64>,
    state: u32,
    addr: u64,
    touch: u64,
    iter: u64,
}

impl MadviseLoopProg {
    /// Loop over `pages` pages for `iters` iterations.
    pub fn new(pages: u64, iters: u64) -> Self {
        MadviseLoopProg {
            pages,
            iters,
            jitter: None,
            state: 0,
            addr: 0,
            touch: 0,
            iter: 0,
        }
    }

    /// Compute for a seeded 0–95 cycles before each `madvise`. The
    /// paper's σ comes from real-machine noise; here it comes from this.
    pub fn with_jitter(mut self, rng: SplitMix64) -> Self {
        self.jitter = Some(rng);
        self
    }

    /// Loop over the already-mapped range at `addr` instead of mapping
    /// one first.
    pub fn premapped(mut self, addr: VirtAddr) -> Self {
        self.addr = addr.as_u64();
        self.state = 2;
        self
    }

    fn zap(&mut self) -> ProgAction {
        self.state = 4;
        ProgAction::Syscall(Syscall::MadviseDontNeed {
            addr: VirtAddr::new(self.addr),
            pages: self.pages,
        })
    }
}

impl Prog for MadviseLoopProg {
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
        match self.state {
            0 => {
                self.state = 1;
                ProgAction::Syscall(Syscall::MmapAnon { pages: self.pages })
            }
            1 => {
                self.addr = ctx.retval;
                self.touch = 0;
                self.state = 2;
                ProgAction::Nop
            }
            2 if self.touch < self.pages => {
                let va = VirtAddr::new(self.addr + self.touch * 4096);
                self.touch += 1;
                ProgAction::Access { va, write: true }
            }
            2 => match &mut self.jitter {
                Some(rng) => {
                    self.state = 3;
                    ProgAction::Compute(Cycles::new(rng.gen_range(96)))
                }
                None => self.zap(),
            },
            3 => self.zap(),
            4 => {
                self.iter += 1;
                if self.iter >= self.iters {
                    ProgAction::Exit
                } else {
                    self.touch = 0;
                    self.state = 2;
                    ProgAction::Nop
                }
            }
            _ => ProgAction::Exit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_prog_replays_then_exits() {
        let mut p = ScriptProg::new(vec![
            ProgAction::Compute(Cycles::new(10)),
            ProgAction::Access {
                va: VirtAddr::new(0x1000),
                write: false,
            },
        ]);
        let ctx = ProgCtx::default();
        assert_eq!(p.next(&ctx), ProgAction::Compute(Cycles::new(10)));
        assert_eq!(
            p.next(&ctx),
            ProgAction::Access {
                va: VirtAddr::new(0x1000),
                write: false
            }
        );
        assert_eq!(p.next(&ctx), ProgAction::Exit);
        assert_eq!(p.next(&ctx), ProgAction::Exit);
    }

    #[test]
    fn madvise_loop_jitters_before_each_zap_of_a_premapped_range() {
        let mut p = MadviseLoopProg::new(2, 2)
            .with_jitter(SplitMix64::new(7))
            .premapped(VirtAddr::new(0x4000));
        let ctx = ProgCtx::default();
        for tail in [ProgAction::Nop, ProgAction::Exit] {
            for va in [0x4000, 0x5000] {
                let va = VirtAddr::new(va);
                assert_eq!(p.next(&ctx), ProgAction::Access { va, write: true });
            }
            assert!(matches!(p.next(&ctx), ProgAction::Compute(c) if c.as_u64() < 96));
            assert_eq!(
                p.next(&ctx),
                ProgAction::Syscall(Syscall::MadviseDontNeed {
                    addr: VirtAddr::new(0x4000),
                    pages: 2
                })
            );
            assert_eq!(p.next(&ctx), tail);
        }
    }

    #[test]
    fn busy_loop_never_exits() {
        // Every step computes for the declared spin period, whatever the
        // context; no other program declares one.
        let mut p = BusyLoopProg;
        let period = p.spin_period().expect("the busy loop spins");
        for i in 0..10 {
            let ctx = ProgCtx {
                retval: i * (u64::MAX / 9),
                now: Cycles::new(i * 1_000),
            };
            assert_eq!(p.next(&ctx), ProgAction::Compute(period));
        }
        assert_eq!(MadviseLoopProg::new(1, 1).spin_period(), None);
        assert_eq!(ScriptProg::new(vec![]).spin_period(), None);
    }
}
