//! The bounded schedule explorer: DFS over branch points.
//!
//! One *run* executes a scenario machine to completion under an
//! `ExploreScheduler`: a forced prefix of branch choices is replayed,
//! and every branch point past the prefix takes the FIFO default while
//! recording how many candidates were available. The explorer then
//! enumerates alternatives — for each branch point `i` beyond the prefix
//! and each unexplored candidate `alt`, the prefix `choices[..i] + [alt]`
//! is pushed onto the DFS stack — subject to three bounds:
//!
//! - **preemption bound**: at most `preemption_bound` non-FIFO choices
//!   per schedule (the classic Musuvathi/Qadeer iterative-context-bound
//!   argument: real concurrency bugs need very few preemptions);
//! - **branch-depth bound**: branch points past `MAX_BRANCH_POINTS` are
//!   not expanded;
//! - **digest pruning**: the walk over a run's branch list reads the
//!   machine's [`state_digest`](tlbdown_kernel::Machine::state_digest)
//!   after each branch it expands; at the first post-choice state reached
//!   before, the remainder of the list is not re-expanded (an identical
//!   state implies an identical future, up to digest granularity — see
//!   `kernel::digest`). The run digests exactly those branch points: none
//!   inside the forced prefix or past the depth bound, none after the
//!   first repeat, and none at all with pruning off.
//!
//! A pushed prefix does not replay from step 0. Just before each branch
//! point whose alternatives the walk will push, the run snapshots its
//! machine, step count and recorded choices and arities; the alternatives
//! sit on the stack next to that snapshot, and each starts from it. A
//! clone of the machine is exact, so a restored run is the fresh run of
//! the same prefix, byte for byte; the first run of each search,
//! [`run_schedule`], [`replay_twice`] and the shrinker start from fresh
//! machines and stay the judges.
//!
//! After every run the checker asserts the safety oracle found no stale
//! TLB use *and* the liveness invariant holds: the event queue drained
//! within the step budget with no shootdown still in flight, no queued
//! CSQ work, and no acknowledged-but-unflushed items. Any breach yields a
//! [`Counterexample`] carrying a replayable [`Schedule`].

use std::fmt::{self, Write as _};
use std::rc::Rc;

use tlbdown_kernel::Machine;
use tlbdown_sim::Scheduler;
use tlbdown_types::{Cycles, FastSet, SimError};

use crate::schedule::Schedule;

/// A scenario: a deterministic recipe producing a fresh machine. Every
/// run of the closure must build an identical machine (same config, same
/// programs, same injections) — the schedule is the only free variable.
pub(crate) type Scenario<'a> = dyn Fn() -> Machine + 'a;

/// Per-run event budget; a run that fails to drain its queue within it
/// is reported as a liveness violation, so scenarios must use
/// terminating programs.
const MAX_STEPS: u64 = 500_000;

/// Branch points past this index are not expanded (depth bound).
const MAX_BRANCH_POINTS: usize = 256;

/// Timing-perturbation window handed to the scheduler: race-eligible
/// interrupt arrivals within this many cycles of the minimum pending fire
/// time join the candidate set.
pub const WINDOW: Cycles = Cycles::new(2_000);

/// Exploration bounds.
#[derive(Clone, Debug)]
pub struct Bounds {
    /// Total schedules (runs) to execute before giving up.
    pub max_schedules: u64,
    /// Maximum non-FIFO choices per schedule (preemption bound).
    pub preemption_bound: usize,
    /// Whether digest-based pruning is on.
    pub prune: bool,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            max_schedules: 2_000,
            preemption_bound: 3,
            prune: true,
        }
    }
}

impl Bounds {
    /// Builder-style: set the schedule budget.
    pub fn with_max_schedules(mut self, n: u64) -> Self {
        self.max_schedules = n;
        self
    }

    /// Builder-style: set the preemption bound.
    pub fn with_preemptions(mut self, n: usize) -> Self {
        self.preemption_bound = n;
        self
    }
}

/// The recording/replaying scheduler driving one run. Forced choices are
/// consumed first; every branch point past them takes candidate 0 (FIFO).
/// Arity and the choice actually taken are recorded at each branch.
#[derive(Debug)]
struct ExploreScheduler<'f> {
    forced: &'f [u16],
    /// Choice taken at each branch point encountered so far.
    choices: Vec<u16>,
    /// Candidate count at each branch point encountered so far.
    arities: Vec<u16>,
}

impl Scheduler for ExploreScheduler<'_> {
    fn window(&self) -> Cycles {
        WINDOW
    }

    fn choose(&mut self, candidates: usize) -> usize {
        let i = self.choices.len();
        let pick = match self.forced.get(i) {
            // A forced choice beyond the observed arity clamps to the last
            // candidate (can happen while shrinking mutates schedules).
            Some(c) => (*c as usize).min(candidates - 1),
            None => 0,
        };
        self.arities.push(candidates.min(u16::MAX as usize) as u16);
        self.choices.push(pick as u16);
        pick
    }
}

/// Everything observed during one run. The final digest and the stats
/// rendering are computed on demand from the finished machine the report
/// keeps, so runs whose caller only asks [`RunReport::violated`] never
/// pay for them.
pub struct RunReport {
    /// The full choice vector actually taken (forced prefix, clamped,
    /// plus FIFO defaults).
    pub(crate) schedule: Schedule,
    /// Candidate count at each branch point.
    pub(crate) arities: Vec<u16>,
    /// Events processed.
    pub steps: u64,
    /// Whether the event queue drained within the step budget.
    pub(crate) drained: bool,
    /// Oracle violations (stale TLB use, machine checks).
    pub violations: Vec<SimError>,
    /// Non-fatal kernel errors recorded during the run.
    pub(crate) errors: Vec<SimError>,
    /// Whether the liveness invariant held at the end of the run.
    pub(crate) live: bool,
    machine: Machine,
}

impl RunReport {
    /// Whether this run breached safety or liveness.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty() || !self.live
    }

    /// Canonical rendering of final time, digest, violations, errors and
    /// sorted counters — byte-compared by replay verification.
    pub fn stats_render(&self) -> String {
        render_run(&self.machine, self.steps)
    }
}

impl fmt::Debug for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunReport")
            .field("schedule", &self.schedule)
            .field("arities", &self.arities)
            .field("steps", &self.steps)
            .field("drained", &self.drained)
            .field("violations", &self.violations)
            .field("errors", &self.errors)
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

/// The liveness invariant checked once a run ends: nothing in flight.
fn liveness_ok(m: &Machine, drained: bool) -> bool {
    drained
        && m.shootdowns.is_empty()
        && m.cpus
            .iter()
            .all(|c| c.csq.is_empty() && c.acked_unflushed == 0)
}

/// Canonical rendering of a finished machine for byte-identical replay
/// comparison. Each digest component gets its own line, so a replay
/// divergence names the part of the state that differs.
pub(crate) fn render_run(m: &Machine, steps: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "steps {steps}");
    let _ = writeln!(out, "final_time {}", m.now().as_u64());
    let _ = writeln!(out, "digest {:#018x}", m.state_digest());
    for (name, d) in m.digest_components() {
        let _ = writeln!(out, "digest.{name} {d:#018x}");
    }
    let _ = writeln!(out, "violations {}", m.violations().len());
    for v in m.violations() {
        let _ = writeln!(out, "violation {v}");
    }
    let _ = writeln!(out, "errors {}", m.recorded_errors().len());
    let mut counters: Vec<(&'static str, u64)> = m.stats.counters.iter().collect();
    counters.sort_unstable();
    for (k, v) in counters {
        let _ = writeln!(out, "counter {k} {v}");
    }
    out
}

/// Where a run starts: a machine, the events it has dispatched and the
/// choices and arities its scheduler has recorded. A fresh start is a
/// built scenario machine with nothing recorded; a snapshot is a copy of
/// a run taken just before one of its branch points.
#[derive(Clone)]
struct Snapshot {
    machine: Machine,
    steps: u64,
    choices: Vec<u16>,
    arities: Vec<u16>,
}

impl Snapshot {
    fn fresh(build: &Scenario<'_>) -> Self {
        Snapshot {
            machine: build(),
            steps: 0,
            choices: Vec::new(),
            arities: Vec::new(),
        }
    }
}

/// What one explorer run records for the walk over its branch list. That
/// walk starts at branch `from` (the end of the forced prefix), never
/// reads a branch at or past `MAX_BRANCH_POINTS`, and stops at the first
/// post-branch digest seen before — in `visited` or earlier in the same
/// run. The run digests exactly the branches the walk reads (none with
/// pruning off), and snapshots the machine just before each branch whose
/// alternatives the walk pushes (none when the forced prefix has spent
/// the preemption budget).
struct Walk<'v> {
    from: usize,
    prune: bool,
    push: bool,
    visited: &'v FastSet<u64>,
    /// `digests[k]` is the state digest after branch point `from + k`.
    digests: Vec<u64>,
    repeated: bool,
    /// `snapshots[k]` is the start of branch point `from + k`.
    snapshots: Vec<Rc<Snapshot>>,
}

impl<'v> Walk<'v> {
    fn new(from: usize, prune: bool, push: bool, visited: &'v FastSet<u64>) -> Self {
        Walk {
            from,
            prune,
            push,
            visited,
            digests: Vec::new(),
            repeated: false,
            snapshots: Vec::new(),
        }
    }

    /// Whether the walk reaches branch point `i`.
    fn reaches(&self, i: usize) -> bool {
        !self.repeated && (self.from..MAX_BRANCH_POINTS).contains(&i)
    }

    /// Whether the walk pushes the alternatives of branch point `i`, if
    /// the next step is one, and so needs its snapshot.
    fn wants_snapshot(&self, i: usize) -> bool {
        self.push && self.reaches(i)
    }

    /// Take the state digest after branch point `i` if the walk will read
    /// it; `digest` is called only then.
    fn after_branch(&mut self, i: usize, digest: impl FnOnce() -> u64) {
        if !self.prune || !self.reaches(i) {
            return;
        }
        let d = digest();
        self.repeated = self.visited.contains(&d) || self.digests.contains(&d);
        self.digests.push(d);
    }
}

/// Execute one schedule against a fresh scenario machine. Takes no state
/// digest; the report computes its final one on demand.
pub fn run_schedule(build: &Scenario<'_>, forced: &[u16]) -> RunReport {
    execute(Snapshot::fresh(build), forced, None)
}

/// The run loop behind [`run_schedule`] and [`explore`], from a fresh
/// machine or a snapshot: only an explorer run passes a walk, and only
/// its walk takes state digests and snapshots.
fn execute(start: Snapshot, forced: &[u16], mut walk: Option<&mut Walk<'_>>) -> RunReport {
    let Snapshot {
        machine: mut m,
        mut steps,
        choices,
        arities,
    } = start;
    let mut sched = ExploreScheduler {
        forced,
        choices,
        arities,
    };
    let mut drained = false;
    loop {
        if steps >= MAX_STEPS {
            break;
        }
        let branches_before = sched.arities.len();
        if let Some(w) = walk.as_deref_mut() {
            // The next step records branch point `branches_before` exactly
            // when it offers more than one candidate.
            if w.wants_snapshot(branches_before) && m.candidates(WINDOW) > 1 {
                w.snapshots.push(Rc::new(Snapshot {
                    machine: m.clone(),
                    steps,
                    choices: sched.choices.clone(),
                    arities: sched.arities.clone(),
                }));
            }
        }
        if !m.step_with(&mut sched) {
            drained = true;
            break;
        }
        steps += 1;
        // One step makes at most one scheduling choice, so a new branch
        // point has index `branches_before`.
        if sched.arities.len() > branches_before {
            if let Some(w) = walk.as_deref_mut() {
                w.after_branch(branches_before, || m.state_digest());
            }
        }
        if !m.violations().is_empty() {
            // Safety already broken: stop here so the counterexample's
            // branch list (and thus the shrinker's search space) stays as
            // short as possible.
            break;
        }
    }
    let live = m.violations().is_empty() && liveness_ok(&m, drained);
    RunReport {
        schedule: Schedule::new(sched.choices),
        arities: sched.arities,
        steps,
        drained,
        violations: m.violations().to_vec(),
        errors: m.recorded_errors().to_vec(),
        live,
        machine: m,
    }
}

/// Aggregate exploration counters (recorded in EXPERIMENTS.md by the
/// xtask gate).
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Schedules executed.
    pub schedules: u64,
    /// Total branch points encountered across all runs.
    pub branch_points: u64,
    /// Deepest branch list observed in a single run.
    pub max_branch_depth: usize,
    /// Distinct post-branch state digests seen.
    pub distinct_states: usize,
    /// State digests computed. A clean exploration computes exactly the
    /// ones its walks read: `distinct_states + pruned_digest`.
    pub digests: u64,
    /// Branch-list walks cut short by a repeated state digest.
    pub pruned_digest: u64,
    /// Alternatives dropped by the preemption bound.
    pub pruned_preemption: u64,
    /// Branch points not expanded due to the depth bound.
    pub pruned_depth: u64,
    /// Whether the schedule budget ran out with work left on the stack.
    pub budget_exhausted: bool,
}

/// A safety or liveness breach with its replayable schedule.
#[derive(Debug)]
pub struct Counterexample {
    /// The violating schedule (normalized: trailing FIFO choices dropped).
    pub schedule: Schedule,
    /// What the oracle reported.
    pub violations: Vec<SimError>,
    /// Whether the breach was a liveness failure (queue failed to drain
    /// or left in-flight shootdown state) rather than an oracle hit.
    pub liveness: bool,
}

/// Result of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Aggregate counters.
    pub stats: ExploreStats,
    /// The first breach found, if any.
    pub counterexample: Option<Counterexample>,
}

impl Report {
    /// Whether every explored schedule satisfied safety and liveness.
    pub fn all_safe(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// DFS over branch points: run the FIFO schedule, then systematically
/// flip one choice at a time, deepest-first, under `bounds`. Stops at the
/// first violation (returning its counterexample) or when the stack or
/// the schedule budget is exhausted.
pub fn explore(build: &Scenario<'_>, bounds: &Bounds) -> Report {
    let mut stats = ExploreStats::default();
    let mut visited: FastSet<u64> = FastSet::default();
    // A prefix to run, and the snapshot taken just before its last branch
    // point (none for the first run, which starts fresh).
    let mut stack: Vec<(Vec<u16>, Option<Rc<Snapshot>>)> = vec![(Vec::new(), None)];
    while let Some((prefix, snapshot)) = stack.pop() {
        if stats.schedules >= bounds.max_schedules {
            stats.budget_exhausted = true;
            break;
        }
        let from = prefix.len();
        let push = prefix.iter().filter(|c| **c != 0).count() < bounds.preemption_bound;
        // The last alternative to leave the stack takes the snapshot over;
        // the others start from a copy.
        let start = match snapshot {
            Some(s) => Rc::try_unwrap(s).unwrap_or_else(|s| (*s).clone()),
            None => Snapshot::fresh(build),
        };
        let mut walk = Walk::new(from, bounds.prune, push, &visited);
        let run = execute(start, &prefix, Some(&mut walk));
        let Walk {
            digests, snapshots, ..
        } = walk;
        stats.schedules += 1;
        stats.digests += digests.len() as u64;
        stats.branch_points += run.arities.len() as u64;
        stats.max_branch_depth = stats.max_branch_depth.max(run.arities.len());
        if run.violated() {
            stats.distinct_states = visited.len();
            return Report {
                stats,
                counterexample: Some(Counterexample {
                    schedule: run.schedule.normalized(),
                    liveness: run.violations.is_empty(),
                    violations: run.violations,
                }),
            };
        }
        // Expand alternatives at every branch point past the forced
        // prefix. Walking stops early at the depth bound or at a state
        // digest that has been expanded before (its continuation's branch
        // structure is identical and already covered). The run digested
        // exactly the branch points this walk reads and snapshotted
        // exactly those whose alternatives it pushes.
        for i in from..run.arities.len() {
            if i >= MAX_BRANCH_POINTS {
                stats.pruned_depth += 1;
                break;
            }
            let arity = run.arities[i] as usize;
            if push {
                let snapshot = &snapshots[i - from];
                for alt in 1..arity {
                    let mut next = run.schedule.choices[..i].to_vec();
                    next.push(alt as u16);
                    stack.push((next, Some(Rc::clone(snapshot))));
                }
            } else {
                stats.pruned_preemption += (arity - 1) as u64;
            }
            if bounds.prune && !visited.insert(digests[i - from]) {
                stats.pruned_digest += 1;
                break;
            }
        }
    }
    stats.distinct_states = visited.len();
    Report {
        stats,
        counterexample: None,
    }
}

/// Replay verification: execute `schedule` twice against fresh scenario
/// machines and require byte-identical outcomes: the stats rendering,
/// which carries the step count and final digest. Returns the (identical)
/// report, or an error listing the lines that differ.
///
/// A single run reads none of the `Bounds`; the parameter stays because
/// the benchmark package calls this function with it.
pub fn replay_twice(
    build: &Scenario<'_>,
    _bounds: &Bounds,
    schedule: &Schedule,
) -> Result<RunReport, String> {
    let a = run_schedule(build, &schedule.choices);
    let b = run_schedule(build, &schedule.choices);
    let (ra, rb) = (a.stats_render(), b.stats_render());
    if ra != rb {
        return Err(format!("replay diverged:\n{}", render_diff(&ra, &rb)));
    }
    Ok(a)
}

/// The lines at which two renderings differ, as `run1:`/`run2:` pairs; a
/// line present on one side only pairs with `<absent>`.
pub(crate) fn render_diff(a: &str, b: &str) -> String {
    let (mut la, mut lb) = (a.lines(), b.lines());
    let mut diff = String::new();
    loop {
        match (la.next(), lb.next()) {
            (None, None) => return diff,
            (x, y) if x == y => {}
            (x, y) => {
                let _ = writeln!(
                    diff,
                    "run1: {}\nrun2: {}",
                    x.unwrap_or("<absent>"),
                    y.unwrap_or("<absent>")
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use tlbdown_core::OptConfig;
    use tlbdown_kernel::Machine;
    use tlbdown_sim::SplitMix64;
    use tlbdown_types::FastSet;

    use super::{execute, render_diff, run_schedule, RunReport, Snapshot, Walk, MAX_BRANCH_POINTS};
    use crate::scenario;

    /// A walk from branch point `from` over a run whose digest after
    /// branch point `i` is `feed[i]`: the digests it takes and the branch
    /// points it snapshots.
    fn walk(
        from: usize,
        prune: bool,
        push: bool,
        visited: &[u64],
        feed: &[u64],
    ) -> (Vec<u64>, Vec<usize>) {
        let visited: FastSet<u64> = visited.iter().copied().collect();
        let mut walk = Walk::new(from, prune, push, &visited);
        let mut snapshotted = Vec::new();
        for (i, &d) in feed.iter().enumerate() {
            if walk.wants_snapshot(i) {
                snapshotted.push(i);
            }
            walk.after_branch(i, || d);
        }
        (walk.digests, snapshotted)
    }

    #[test]
    fn digest_walk_stops_after_the_first_repeat() {
        // A digest seen earlier in the same run ends the walk, once the
        // branch that repeats it has been snapshotted...
        assert_eq!(
            walk(0, true, true, &[], &[1, 2, 1, 3]),
            (vec![1, 2, 1], vec![0, 1, 2])
        );
        // ...and so does one already visited by earlier runs.
        assert_eq!(
            walk(0, true, true, &[2], &[1, 2, 3]),
            (vec![1, 2], vec![0, 1])
        );
    }

    #[test]
    fn digest_walk_skips_the_prefix_and_the_depth_bound() {
        let feed: Vec<u64> = (0..MAX_BRANCH_POINTS as u64 + 2).collect();
        let reached: Vec<usize> = (2..MAX_BRANCH_POINTS).collect();
        let (digests, snapshotted) = walk(2, true, true, &[], &feed);
        assert_eq!(digests, feed[2..MAX_BRANCH_POINTS]);
        assert_eq!(snapshotted, reached);
        // Pruning off: the walk reads no digest but pushes the
        // alternatives of every branch point it reaches...
        assert_eq!(walk(2, false, true, &[], &feed), (vec![], reached));
        // ...and a prefix that spent the preemption budget pushes none.
        assert_eq!(walk(2, true, false, &[], &feed).1, [] as [usize; 0]);
    }

    /// What a restored run must share with a fresh one.
    fn outcome(r: &RunReport) -> (String, Vec<u16>, Vec<u16>) {
        (
            r.stats_render(),
            r.schedule.choices.clone(),
            r.arities.clone(),
        )
    }

    #[test]
    fn a_restored_run_is_a_fresh_run() {
        // Seeded random prefixes on the flat and mesh duels at every
        // level, with interrupt jitter on, so a clone must carry the
        // noise stream too. A prefix `p` draws each choice inside its
        // branch point's arity. The run of `p[..j]` snapshots branch
        // point `j` and steps on; the snapshot, restored under `p` from a
        // copy and taken over, must match the fresh run of `p`, and the
        // source must match the fresh run of `p[..j]`.
        let mut rng = SplitMix64::new(0x5eed_c10e);
        let mut restored_alts = 0;
        for level in 0..=OptConfig::MAX_LEVEL as u8 {
            let duels: [fn(u8) -> Machine; 2] = [
                scenario::dueling_madvise_at,
                scenario::dueling_madvise_mesh_at,
            ];
            for duel in duels {
                let build = || {
                    let mut m = duel(level);
                    m.cfg.noise_cycles = 40;
                    m
                };
                for _ in 0..3 {
                    let len = 1 + rng.gen_range(12) as usize;
                    let mut p: Vec<u16> = Vec::new();
                    while p.len() < len {
                        let run = run_schedule(&build, &p);
                        let Some(&arity) = run.arities.get(p.len()) else {
                            break;
                        };
                        p.push(rng.gen_range(u64::from(arity)) as u16);
                    }
                    let j = rng.gen_range(p.len() as u64) as usize;
                    restored_alts += usize::from(p[j] != 0);
                    let visited = FastSet::default();
                    let mut w = Walk::new(j, false, true, &visited);
                    let source = execute(Snapshot::fresh(&build), &p[..j], Some(&mut w));
                    let case = format!("L{level} p {p:?} j {j}");
                    assert_eq!(
                        outcome(&source),
                        outcome(&run_schedule(&build, &p[..j])),
                        "{case}: the source"
                    );
                    let snapshot = w.snapshots.swap_remove(0);
                    let fresh = outcome(&run_schedule(&build, &p));
                    let copy = execute((*snapshot).clone(), &p, None);
                    assert_eq!(outcome(&copy), fresh, "{case}: from a copy");
                    let Ok(taken) = Rc::try_unwrap(snapshot) else {
                        panic!("{case}: the snapshot is shared");
                    };
                    assert_eq!(outcome(&execute(taken, &p, None)), fresh, "{case}");
                }
            }
        }
        assert!(restored_alts > 10, "only {restored_alts} non-FIFO restores");
    }

    #[test]
    fn render_diff_is_empty_for_equal_renderings() {
        assert_eq!(
            render_diff("steps 3\ndigest 0x1\n", "steps 3\ndigest 0x1\n"),
            ""
        );
    }

    #[test]
    fn render_diff_pairs_changed_lines() {
        assert_eq!(
            render_diff(
                "steps 3\ndigest 0x1\nerrors 0\n",
                "steps 3\ndigest 0x2\nerrors 0\n"
            ),
            "run1: digest 0x1\nrun2: digest 0x2\n"
        );
    }

    #[test]
    fn render_diff_names_the_differing_digest_component() {
        let build = || scenario::dueling_madvise_at(0);
        let a = run_schedule(&build, &[]);
        let mut b = run_schedule(&build, &[]);
        b.machine.cpus[0].resume_token += 1;
        let (ra, rb) = (a.stats_render(), b.stats_render());
        let line = |r: &str, key: &str| {
            r.lines()
                .find(|l| l.starts_with(key))
                .expect("rendered")
                .to_owned()
        };
        assert_eq!(
            render_diff(&ra, &rb),
            format!(
                "run1: {}\nrun2: {}\nrun1: {}\nrun2: {}\n",
                line(&ra, "digest "),
                line(&rb, "digest "),
                line(&ra, "digest.cpus "),
                line(&rb, "digest.cpus "),
            )
        );
    }

    #[test]
    fn render_diff_shows_a_one_sided_tail() {
        assert_eq!(
            render_diff("errors 0\n", "errors 0\ncounter tlb_flush 2\n"),
            "run1: <absent>\nrun2: counter tlb_flush 2\n"
        );
        assert_eq!(
            render_diff("violations 1\nviolation stale\n", "violations 1\n"),
            "run1: violation stale\nrun2: <absent>\n"
        );
    }
}
