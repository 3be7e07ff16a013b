//! `tlbdown` — a full-system reproduction of *"Don't shoot down TLB
//! shootdowns!"* (Amit, Tai, Wei — EuroSys 2020).
//!
//! The paper optimizes the Linux TLB shootdown path with six techniques;
//! this workspace reproduces the system as a deterministic discrete-event
//! simulation of a multicore x86 machine running a Linux-like
//! memory-management kernel, with every technique implemented as real
//! switchable protocol code:
//!
//! 1. **Concurrent flushing** (§3.1) — the initiator overlaps its local
//!    flush with IPI delivery and remote flushing.
//! 2. **Early acknowledgement** (§3.2) — responders ack on handler entry
//!    (disabled when page tables are freed; NMI handlers extend
//!    `nmi_uaccess_okay`).
//! 3. **Cacheline consolidation** (§3.3) — the SMP layer's contended
//!    lines shrink from four classes to two.
//! 4. **In-context flushes** (§3.4) — user-PCID PTE flushes defer to
//!    kernel exit and run with `INVLPG` instead of `INVPCID`.
//! 5. **CoW flush avoidance** (§4.1) — an atomic no-op access replaces
//!    the local flush on copy-on-write faults.
//! 6. **Userspace-safe batching** (§4.2) — `msync`/`munmap`/`madvise`
//!    defer flushes to the `mmap_sem` release barrier, and batched cores
//!    are skipped by other initiators' IPIs.
//!
//! # Quickstart
//!
//! ```
//! use tlbdown::kernel::{KernelConfig, Machine};
//! use tlbdown::kernel::prog::{BusyLoopProg, ProgAction, ScriptProg};
//! use tlbdown::core::OptConfig;
//! use tlbdown::types::{CoreId, Cycles, VirtAddr};
//! use tlbdown::kernel::Syscall;
//!
//! // Boot a 4-core machine with every optimization on.
//! let cfg = KernelConfig::test_machine(4).with_opts(OptConfig::all());
//! let mut m = Machine::new(cfg);
//! let mm = m.create_process().expect("boot: create process");
//!
//! // A program that maps a page and releases it (forcing a shootdown,
//! // since the busy thread on core 1 shares the address space).
//! m.spawn(mm, CoreId(0), Box::new(ScriptProg::new(vec![
//!     ProgAction::Syscall(Syscall::MmapAnon { pages: 1 }),
//! ])));
//! m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
//! m.run_until(Cycles::new(1_000_000));
//! assert!(m.violations().is_empty());
//! let _ = VirtAddr::new(0);
//! ```
//!
//! See `examples/` for complete scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

/// x2APIC IPI fabric model.
pub use tlbdown_apic as apic;
/// MESI cacheline coherence cost model.
pub use tlbdown_cache as cache;
/// Bounded model checker: schedule exploration, shrinking, replay.
pub use tlbdown_check as check;
/// The shootdown protocol engine (the paper's contribution).
pub use tlbdown_core as core;
/// The simulated kernel and machine.
pub use tlbdown_kernel as kernel;
/// Physical memory and page tables.
pub use tlbdown_mem as mem;
/// Discrete-event engine, RNG and statistics.
pub use tlbdown_sim as sim;
/// The TLB model.
pub use tlbdown_tlb as tlb;
/// Interconnect topology: flat, ring and mesh link routing.
pub use tlbdown_topo as topo;
/// Deterministic event tracing and shootdown critical-path analysis.
pub use tlbdown_trace as trace;
/// Shared vocabulary types.
pub use tlbdown_types as types;
/// Nested translation and page fracturing.
pub use tlbdown_virt as virt;
/// The paper's workloads.
pub use tlbdown_workloads as workloads;

/// README's Rust snippets, compiled and run as doc tests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
