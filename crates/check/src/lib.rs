//! `tlbdown-check`: a bounded model checker for the shootdown protocols.
//!
//! The simulator is deterministic by construction, which is great for
//! reproducibility and terrible for finding races: one seed explores one
//! interleaving. This crate turns the determinism into leverage. The
//! engine's [`Scheduler`](tlbdown_sim::Scheduler) hook exposes the points
//! where real hardware is *allowed* to reorder events — same-cycle
//! calendar ties, and interrupt arrivals whose latency is an estimate
//! rather than a contract — as explicit branch points, and the
//! [`explore`](explore::explore) driver walks the resulting tree under
//! preemption/depth/state-digest bounds, checking the safety oracle and a
//! liveness invariant after every event.
//!
//! A violation yields a [`Schedule`]: the exact choice
//! vector, serializable as `sched:v1:...`, that re-executes the failure
//! byte-identically. [`shrink`](shrink::shrink) then minimizes it to the
//! few choices that actually matter.
//!
//! ```
//! use tlbdown_check::{explore, scenario, Bounds};
//!
//! let bounds = Bounds::default().with_max_schedules(50);
//! let report = explore::explore(
//!     &|| scenario::dueling_madvise(tlbdown_core::OptConfig::all()),
//!     &bounds,
//! );
//! assert!(report.all_safe());
//! ```

#![warn(missing_docs)]

pub mod explore;
pub mod gate;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use explore::{explore, replay_twice, run_schedule, Bounds, Counterexample, Report};
pub use gate::{
    explore_opt_level, explore_opt_level_mesh, run_canary, Canary, CanaryReport, GateReport,
    LevelReport, CANARIES,
};
pub use schedule::Schedule;
pub use shrink::{shrink, Shrunk};
