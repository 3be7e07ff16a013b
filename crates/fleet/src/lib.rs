//! Fleet resilience tier: many simulated machines behind a
//! deterministic load balancer.
//!
//! The paper's evaluation stops at one dual-socket machine; real
//! deployments of its kernel run *fleets* of them behind load
//! balancers, where the interesting failures are machine-scale — a
//! node crashes and reboots with stone-cold TLBs, a straggler triples
//! every service time, a link partitions, a co-tenant churns through
//! mmap/munmap storms. This crate composes the existing single-machine
//! simulator into that picture:
//!
//! - [`fault`]: the machine-level fault axis — [`FleetFaultSpec`]
//!   mirrors the IPI layer's fieldwise-max merge lattice one layer up,
//!   and [`FleetFaultPlan`] expands it into prefix-stable per-machine
//!   fates.
//! - [`node`]: phase 1 — each machine is a full `kernel::Machine`
//!   running Apache-style serving workers (plus tenant churn when the
//!   plan says so), crashing and [`cold-rebooting`] mid-window if fated,
//!   summarized into a pure [`NodeProfile`].
//! - [`lb`]: phase 2 — a serial, seeded DES load balancer with
//!   timeouts, bounded jittered-exponential-backoff retries, hedged
//!   re-dispatch, and probe-driven ejection/probation; every request
//!   ends served or typed-failed.
//! - [`run`]: the orchestration — node jobs shard across the sweep
//!   pool, reduce in canonical machine order, feed the serial LB, and
//!   the whole document is byte-identical at any thread count
//!   ([`replay_fleet`] proves it).
//!
//! [`cold-rebooting`]: tlbdown_kernel::Machine::cold_reboot

pub mod fault;
pub mod lb;
pub mod node;
pub mod run;

pub use fault::{FleetFaultPlan, FleetFaultSpec, MachineFaults};
pub use lb::{LbCfg, LbResult, RequestError};
pub use node::{run_node, NodeCfg, NodeProfile, CHURN_SLOTS, WINDOW, WORKERS};
pub use run::{replay_fleet, run_fleet, window_secs, FleetCfg, FleetResult};
