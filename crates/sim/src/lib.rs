//! Deterministic discrete-event simulation engine.
//!
//! The whole reproduction rests on this crate being *deterministic*: given a
//! seed, every run produces bit-identical event orderings, so benchmark
//! deltas between protocol variants are attributable to the protocol alone.
//!
//! The engine is deliberately generic: it knows nothing about TLBs or
//! kernels. It provides:
//!
//! - [`Engine`]: a time-ordered event queue with deterministic FIFO
//!   tie-breaking for simultaneous events, which can also dispatch a run
//!   of events that each only reschedule themselves with one period
//!   ([`Periodic`]) in closed form,
//! - [`sched`]: the pluggable [`Scheduler`] policy deciding among
//!   commutative-ambiguous events — the branch points a model checker
//!   (the `check` crate) enumerates; [`FifoScheduler`] reproduces the
//!   plain `pop` order,
//! - [`rng::SplitMix64`]: a tiny, seedable PRNG used by workload generators,
//! - [`stats`]: streaming summaries (Welford mean/σ), counters and
//!   log-scale histograms used by the measurement harness.

pub mod engine;
pub mod fault;
pub mod rng;
pub mod sched;
pub mod stats;

pub use engine::{Engine, Periodic};
pub use fault::{FaultPlan, FaultSpec, IpiFault};
pub use rng::SplitMix64;
pub use sched::{FifoScheduler, Scheduler};
pub use stats::{Counter, Histogram, Summary};
