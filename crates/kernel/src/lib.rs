//! The simulated kernel: a Linux-5.2.8-like memory-management subsystem
//! running on the `tlbdown` machine model.
//!
//! [`Machine`] owns everything: the discrete-event engine, per-core TLBs,
//! the coherence directory, the IPI fabric, address spaces with real radix
//! page tables, and per-core execution state. User programs (implementors
//! of [`prog::Prog`]) run on cores and issue memory accesses and system
//! calls; the kernel services them with the same structure as Linux:
//!
//! - `mmap` / `munmap` / `mprotect` / `madvise(DONTNEED)` / `msync` /
//!   `fdatasync`-style writeback ([`machine::Machine`] syscall paths),
//! - demand paging and CoW via the page-fault handler,
//! - TLB shootdowns through the SMP layer, with every optimization of the
//!   paper switchable via [`tlbdown_core::OptConfig`],
//! - PTI ("safe mode"): dual PCIDs, double flushes, trampoline costs,
//! - lazy-TLB mode and `tlb_gen` tracking,
//! - an optional LATR-style *lazy shootdown* mode
//!   ([`config::KernelConfig::lazy_latr`]) reproducing the related-work
//!   behaviour the paper argues is hazardous,
//! - the [`oracle`]: a safety checker that flags any user-mode access
//!   translating through a TLB entry whose removal the kernel has already
//!   guaranteed,
//! - deterministic event tracing (the `trace` feature, on by default):
//!   [`machine::Machine::start_tracing`] records typed `tlbdown_trace`
//!   events — shootdown phases, IPIs, flushes, page walks, cacheline
//!   transfers — without perturbing simulation state.

pub mod chaos;
pub mod config;
pub mod cpu;
pub mod digest;
pub mod event;
mod exec;
pub mod machine;
pub mod mm;
pub mod oracle;
pub mod prog;
mod reuse_numa;
pub mod sem;
mod shoot;
mod tracewire;

pub use chaos::{ChaosConfig, WatchdogConfig};
pub use config::{InjectedBug, KernelConfig};
pub use cpu::Cpu;
pub use event::Event;
pub use machine::{Machine, MachineStats};
pub use mm::{FileId, Mm, Vma, VmaKind};
pub use oracle::Oracle;
pub use prog::{MadviseLoopProg, Prog, ProgAction, ProgCtx, Syscall};
pub use tlbdown_tlb::TlbGeometry;
