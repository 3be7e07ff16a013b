//! Workload generators reproducing the paper's §5 evaluation.
//!
//! Each module builds a [`tlbdown_kernel::Machine`], runs the workload the
//! paper describes, and extracts the metric the paper reports:
//!
//! - [`madvise`]: the §5.1 microbenchmark behind Figures 5–8 and Table 3 —
//!   `mmap` + touch + `madvise(MADV_DONTNEED)` with a busy-wait responder,
//!   reporting initiator syscall cycles and responder interruption cycles.
//! - [`cow`]: the §4.1/Figure 9 copy-on-write fault microbenchmark.
//! - [`sysbench`]: the §5.2/Figure 10 random-write + `fdatasync` workload
//!   on a memory-mapped file over emulated persistent memory.
//! - [`apache`]: the §5.3/Figure 11 thread-per-request webserver model
//!   that mmaps, touches, sends and munmaps a small file per request.
//!   Its [`apache::ServeWorker`] is the one serving program: the storm
//!   bystanders and the fleet nodes run it too.

//! - [`storm`]: the shootdown-storm adversary — SEV-Step-style monitor
//!   cores write-protect/unprotect a victim's working set in a tight
//!   loop while bystanders serve Apache-style traffic, driving the
//!   watchdog escalation ladder and the storm survival matrix.

pub mod apache;
pub mod churn;
pub mod cow;
pub mod madvise;
pub mod storm;
pub mod sysbench;

pub use madvise::Placement;
