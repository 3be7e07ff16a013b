//! `tlbdown-sweep`: the parallel sweep engine.
//!
//! Every evaluation surface in this repo — the figure/table
//! reproductions and the model-checking gate — is a set of *independent
//! deterministic simulations*: each job builds its own `Machine`
//! (machines share no state), runs it to completion, and renders a
//! result. That shape fans out perfectly, and this crate provides the
//! harness: a thread pool over `std::thread` + channels whose workers
//! pop one shared job list behind a `Mutex` (no rayon: the workspace
//! builds offline), plus a canonical reduction rule that keeps parallel
//! output byte-identical to serial output.
//!
//! The determinism argument (DESIGN.md §12) is two-layered:
//!
//! 1. **Per-job isolation.** A job is a closure that constructs
//!    everything it touches. No job observes another job's memory, the
//!    scheduling of the pool, or wall-clock time; its output is a pure
//!    function of its inputs.
//! 2. **Canonical reduction.** Results are collected in whatever order
//!    workers finish, then sorted by the job's stable ID before anything
//!    is rendered or compared. Thread count and completion order
//!    therefore cannot leak into the reduced output.
//!
//! Host-side wall-clock measurements (per-job and whole-sweep) ride
//! alongside as *non-canonical* fields: they inform the perf gate but
//! are excluded from any byte-compared block.
//!
//! The [`json`] module is a dependency-free JSON writer/parser used for
//! the `BENCH_*.json` perf snapshots and `explore_report.json` (the
//! container has no serde).

#![warn(missing_docs)]

pub mod json;
pub mod pool;

pub use json::Json;
pub use pool::{reduce_rendered, resolve_threads, run_jobs, Job, JobError, JobResult, SweepReport};
