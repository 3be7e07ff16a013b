//! The explore *gate* as a library: parallel-safe per-level entry
//! points, the seeded-bug canaries, and a machine-readable summary.
//!
//! `cargo xtask explore` used to inline all of this and emit only
//! pass/fail text; CI needs to track exploration-budget creep (schedules
//! spent per level, canary shrink size) across commits, so the gate now
//! produces a [`GateReport`] that serializes to `explore_report.json`.
//!
//! Parallel safety: [`explore_opt_level`] and [`Canary::run`] build every
//! machine they touch from scratch and share no mutable state, so the
//! sweep engine can run the per-level DFS explorations on separate
//! worker threads. Each level's DFS is deterministic in
//! isolation (the explorer is a pure function of scenario + bounds),
//! which keeps the merged report byte-identical no matter the thread
//! count or completion order.

use tlbdown_kernel::{InjectedBug, Machine};
use tlbdown_sweep::Json;

use crate::explore::{explore, replay_twice, run_schedule, Bounds};
use crate::scenario;
use crate::shrink;

/// Total schedule budget for the whole gate, across all configurations.
pub const DEFAULT_BUDGET: u64 = 50_000;

/// Per-optimization-level schedule budget.
pub(crate) const PER_LEVEL_SCHEDULES: u64 = 2_000;

/// The bounds used for each per-level exploration.
pub fn per_level_bounds() -> Bounds {
    Bounds::default().with_max_schedules(PER_LEVEL_SCHEDULES)
}

/// Result of exploring one cumulative optimization level.
#[derive(Clone, Debug)]
pub struct LevelReport {
    /// The cumulative optimization level
    /// (0..=[`tlbdown_core::OptConfig::MAX_LEVEL`]).
    pub level: u8,
    /// Schedules executed.
    pub schedules: u64,
    /// Branch points encountered across all runs.
    pub branch_points: u64,
    /// Distinct post-branch state digests.
    pub distinct_states: usize,
    /// Branch-list walks cut short by digest pruning.
    pub pruned_digest: u64,
    /// State digests computed. Printed by `cargo xtask explore` but kept
    /// out of the JSON, so `explore_report.json` stays at schema 4.
    pub digests: u64,
    /// Whether every explored schedule was safe and live.
    pub safe: bool,
    /// Rendering of the counterexample schedule + violations, if any.
    pub violation: Option<String>,
}

impl LevelReport {
    fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .with("level", Json::U64(self.level as u64))
            .with("schedules", Json::U64(self.schedules))
            .with("branch_points", Json::U64(self.branch_points))
            .with("distinct_states", Json::U64(self.distinct_states as u64))
            .with("pruned_digest", Json::U64(self.pruned_digest))
            .with("safe", Json::Bool(self.safe));
        if let Some(v) = &self.violation {
            obj = obj.with("violation", Json::Str(v.clone()));
        }
        obj
    }
}

/// Explore the dueling-madvise scenario at one cumulative optimization
/// level. Parallel-safe: builds everything internally.
pub fn explore_opt_level(level: u8, bounds: &Bounds) -> LevelReport {
    explore_level_scenario(level, &|| scenario::dueling_madvise_at(level), bounds)
}

/// Explore the dueling-madvise scenario routed over the 2D mesh
/// interconnect at one cumulative optimization level. The interconnect
/// only reshapes latencies, so every interleaving it can produce is
/// already in the explorer's reach — this sweep proves the protocol
/// stays safe and live under mesh timing at every level.
pub fn explore_opt_level_mesh(level: u8, bounds: &Bounds) -> LevelReport {
    explore_level_scenario(level, &|| scenario::dueling_madvise_mesh_at(level), bounds)
}

fn explore_level_scenario(
    level: u8,
    build: &crate::explore::Scenario<'_>,
    bounds: &Bounds,
) -> LevelReport {
    let report = explore(build, bounds);
    let violation = report.counterexample.as_ref().map(|cex| {
        let mut s = format!("schedule {}", cex.schedule);
        for v in &cex.violations {
            s += &format!("; {v}");
        }
        if cex.liveness {
            s += "; liveness breach";
        }
        s
    });
    LevelReport {
        level,
        schedules: report.stats.schedules,
        branch_points: report.stats.branch_points,
        distinct_states: report.stats.distinct_states,
        pruned_digest: report.stats.pruned_digest,
        digests: report.stats.digests,
        safe: report.all_safe(),
        violation,
    }
}

/// Result of the seeded-bug canary: the checker must still have teeth.
#[derive(Clone, Debug)]
pub struct CanaryReport {
    /// The seeded bug must be FIFO-safe (it needs exploration to find).
    pub fifo_safe: bool,
    /// Whether exploration caught the seeded bug.
    pub caught: bool,
    /// Schedules spent until the catch (0 if missed).
    pub caught_in_schedules: u64,
    /// Choices in the shrunk counterexample.
    pub shrunk_choices: usize,
    /// Shrinker trials spent.
    pub shrink_trials: u64,
    /// The shrunk schedule artifact (`sched:v1:...`).
    pub schedule: String,
    /// Whether the shrunk schedule replayed byte-identically and still
    /// violated.
    pub replay_ok: bool,
    /// Whether the corrected check explored clean.
    pub safe_clean: bool,
    /// Schedules spent proving the corrected check clean.
    pub safe_schedules: u64,
    /// Total schedules + shrink trials the canary consumed.
    pub spent: u64,
}

impl CanaryReport {
    /// Whether every canary requirement held (shrunk size ≤ `max_choices`).
    pub fn pass(&self, max_choices: usize) -> bool {
        self.fifo_safe
            && self.caught
            && self.shrunk_choices <= max_choices
            && self.replay_ok
            && self.safe_clean
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("fifo_safe", Json::Bool(self.fifo_safe))
            .with("caught", Json::Bool(self.caught))
            .with("caught_in_schedules", Json::U64(self.caught_in_schedules))
            .with("shrunk_choices", Json::U64(self.shrunk_choices as u64))
            .with("shrink_trials", Json::U64(self.shrink_trials))
            .with("schedule", Json::Str(self.schedule.clone()))
            .with("replay_ok", Json::Bool(self.replay_ok))
            .with("safe_clean", Json::Bool(self.safe_clean))
            .with("safe_schedules", Json::U64(self.safe_schedules))
            .with("spent", Json::U64(self.spent))
    }
}

/// One seeded-bug canary: a probe scenario whose `buggy` variant the
/// checker must catch and whose real variant must explore clean.
#[derive(Clone, Copy, Debug)]
pub struct Canary {
    /// The canary's key in `explore_report.json`.
    pub key: &'static str,
    /// The seeded bug.
    pub bug: InjectedBug,
    /// The probe scenario: `probe(true)` seeds the bug.
    pub(crate) probe: fn(bool) -> Machine,
}

/// Every canary the explore gate runs, in report order:
/// - the §3.2 NMI check that misses a pending flush;
/// - a quarantined responder that keeps the selective path but drops
///   the `acked_unflushed` bookkeeping;
/// - an INVLPG that evicts only the 4KB-sized key, leaving a split
///   hugepage's stale 2MB entry cached;
/// - a reuse-window park that retires its oracle pairs at once instead
///   of at debt-flush time (L7);
/// - a numaPTE update that reaches only the initiating socket's
///   page-table replica (L8).
pub const CANARIES: [Canary; 5] = [
    Canary {
        key: "canary",
        bug: InjectedBug::NmiCheck,
        probe: scenario::nmi_probe_demo,
    },
    Canary {
        key: "quarantine_canary",
        bug: InjectedBug::Quarantine,
        probe: scenario::quarantine_probe_demo,
    },
    Canary {
        key: "fracture_canary",
        bug: InjectedBug::Fracture,
        probe: scenario::fracture_probe_demo,
    },
    Canary {
        key: "reuse_skip_canary",
        bug: InjectedBug::ReuseSkip,
        probe: scenario::reuse_probe_demo,
    },
    Canary {
        key: "numapte_canary",
        bug: InjectedBug::NumaPte,
        probe: scenario::numapte_probe_demo,
    },
];

impl Canary {
    /// Catch the seeded bug, shrink it, replay it byte-identically, and
    /// prove the real variant clean. Parallel-safe.
    pub fn run(&self, bounds: &Bounds, shrink_budget: u64) -> CanaryReport {
        let probe = self.probe;
        run_canary_scenario(&|| probe(true), &|| probe(false), bounds, shrink_budget)
    }
}

/// Run the §3.2 NMI canary (the first of [`CANARIES`]).
pub fn run_canary(bounds: &Bounds, shrink_budget: u64) -> CanaryReport {
    CANARIES[0].run(bounds, shrink_budget)
}

/// The shared canary harness: `buggy` must be FIFO-safe yet caught by
/// exploration; the shrunk counterexample must replay byte-identically;
/// `safe` must explore clean under the same bounds.
pub(crate) fn run_canary_scenario(
    buggy: &crate::explore::Scenario<'_>,
    safe: &crate::explore::Scenario<'_>,
    bounds: &Bounds,
    shrink_budget: u64,
) -> CanaryReport {
    let mut spent = 0u64;
    let fifo_safe = !run_schedule(buggy, &[]).violated();
    spent += 1;
    if !fifo_safe {
        return CanaryReport {
            fifo_safe,
            caught: false,
            caught_in_schedules: 0,
            shrunk_choices: 0,
            shrink_trials: 0,
            schedule: String::new(),
            replay_ok: false,
            safe_clean: false,
            safe_schedules: 0,
            spent,
        };
    }
    let report = explore(buggy, bounds);
    spent += report.stats.schedules;
    let Some(cex) = report.counterexample else {
        return CanaryReport {
            fifo_safe,
            caught: false,
            caught_in_schedules: report.stats.schedules,
            shrunk_choices: 0,
            shrink_trials: 0,
            schedule: String::new(),
            replay_ok: false,
            safe_clean: false,
            safe_schedules: 0,
            spent,
        };
    };
    let minimized = shrink::shrink(buggy, &cex.schedule, shrink_budget);
    spent += minimized.stats.trials;
    let replay_ok = matches!(
        replay_twice(buggy, bounds, &minimized.schedule),
        Ok(rep) if rep.violated()
    );
    spent += 2;
    let safe_report = explore(safe, bounds);
    spent += safe_report.stats.schedules;
    CanaryReport {
        fifo_safe,
        caught: true,
        caught_in_schedules: report.stats.schedules,
        shrunk_choices: minimized.schedule.len(),
        shrink_trials: minimized.stats.trials,
        schedule: minimized.schedule.to_string(),
        replay_ok,
        safe_clean: safe_report.all_safe(),
        safe_schedules: safe_report.stats.schedules,
        spent,
    }
}

/// The whole gate, machine-readable: written to `explore_report.json` by
/// `cargo xtask explore` so CI can track budget creep, not just
/// pass/fail.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Total schedule budget.
    pub budget: u64,
    /// Schedules + shrink trials actually spent.
    pub spent: u64,
    /// Worker threads the level sweep ran on (does not affect any other
    /// field — see the parallel-safety note in the module docs).
    pub threads: usize,
    /// Per-optimization-level results, in level order.
    pub levels: Vec<LevelReport>,
    /// Per-level results over the 2D mesh interconnect, in level order.
    pub mesh_levels: Vec<LevelReport>,
    /// Each canary's result under its [`Canary::key`], in
    /// [`CANARIES`] order.
    pub canaries: Vec<(&'static str, CanaryReport)>,
    /// Maximum choices allowed in each shrunk canary schedule.
    pub max_canary_choices: usize,
}

impl GateReport {
    /// Whether every gate requirement held.
    pub fn pass(&self) -> bool {
        self.levels.iter().all(|l| l.safe)
            && self.mesh_levels.iter().all(|l| l.safe)
            && self
                .canaries
                .iter()
                .all(|(_, c)| c.pass(self.max_canary_choices))
            && self.spent <= self.budget
    }

    /// Serialize for `explore_report.json`.
    pub fn to_json(&self) -> Json {
        let json = Json::obj()
            .with("schema_version", Json::U64(4))
            .with("budget", Json::U64(self.budget))
            .with("spent", Json::U64(self.spent))
            .with("threads", Json::U64(self.threads as u64))
            .with("pass", Json::Bool(self.pass()))
            .with(
                "levels",
                Json::Arr(self.levels.iter().map(|l| l.to_json()).collect()),
            )
            .with(
                "mesh_levels",
                Json::Arr(self.mesh_levels.iter().map(|l| l.to_json()).collect()),
            );
        self.canaries
            .iter()
            .fold(json, |json, (key, c)| json.with(key, c.to_json()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_zero_explores_safe() {
        let bounds = Bounds::default().with_max_schedules(50);
        let rep = explore_opt_level(0, &bounds);
        assert!(rep.safe, "{:?}", rep.violation);
        assert!(rep.schedules > 0);
        assert!(rep.to_json().render().contains("\"safe\":true"));
    }

    #[test]
    fn mesh_level_zero_explores_safe() {
        let bounds = Bounds::default().with_max_schedules(50);
        let rep = explore_opt_level_mesh(0, &bounds);
        assert!(rep.safe, "{:?}", rep.violation);
        assert!(rep.schedules > 0);
    }

    #[test]
    fn every_canary_has_teeth_and_its_real_path_is_clean() {
        // Each canary end-to-end at a small budget: the seeded bug needs
        // exploration (FIFO-safe), is caught quickly, shrinks small,
        // replays byte-identically, and the real path explores clean.
        let bounds = Bounds::default().with_max_schedules(200);
        for canary in &CANARIES {
            let rep = canary.run(&bounds, 500);
            assert!(rep.pass(20), "{:?} canary failed: {rep:?}", canary.bug);
        }
    }

    #[test]
    fn gate_report_serializes() {
        let level = LevelReport {
            level: 3,
            schedules: 10,
            branch_points: 20,
            distinct_states: 5,
            pruned_digest: 1,
            digests: 6,
            safe: true,
            violation: None,
        };
        // The digest count is console-only: the level JSON stays schema 4.
        assert_eq!(level.to_json().get("digests"), None);
        let canary = CanaryReport {
            fifo_safe: true,
            caught: true,
            caught_in_schedules: 6,
            shrunk_choices: 3,
            shrink_trials: 40,
            schedule: "sched:v1:0,1".into(),
            replay_ok: true,
            safe_clean: true,
            safe_schedules: 9,
            spent: 57,
        };
        let gate = GateReport {
            budget: DEFAULT_BUDGET,
            spent: 67,
            threads: 4,
            mesh_levels: vec![level.clone()],
            levels: vec![level],
            canaries: CANARIES.iter().map(|c| (c.key, canary.clone())).collect(),
            max_canary_choices: 20,
        };
        assert!(gate.pass());
        let json = gate.to_json();
        assert_eq!(json.get("pass"), Some(&Json::Bool(true)));
        assert_eq!(
            json.get("canary").and_then(|c| c.get("shrunk_choices")),
            Some(&Json::U64(3))
        );
        // The rendering parses back (what CI consumers will do).
        assert!(Json::parse(&json.render_pretty()).is_ok());
    }
}
