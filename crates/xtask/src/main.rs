//! Repo automation, `cargo xtask <command>` style:
//!
//! - `cargo xtask fmt` — the formatting gate: `cargo fmt --all -- --check`.
//! - `cargo xtask clippy` — the lint gate: `cargo clippy --all-targets`
//!   and then `cargo doc --no-deps --workspace`, each with warnings
//!   promoted to errors (rustdoc warns about dead, private or ambiguous
//!   intra-doc links).
//! - `cargo xtask explore [--threads N] [--out PATH]` — the
//!   model-checking gate: bounded schedule exploration of the shootdown
//!   protocols at every cumulative optimization level (zero violations
//!   expected), fanned across host cores by the sweep pool, plus the
//!   seeded-bug canaries. Budgeted at 50k schedules. Its machine-readable
//!   summary must match `--out` (default `explore_report.json`) in every
//!   field but `threads`, and is written there only if the gate passed.
//! - `cargo xtask trace [--out PATH]` — the tracing gate: capture the
//!   calibrated dueling-madvise workload at every cumulative optimization
//!   level, print the paper-style "where did the cycles go" table, write
//!   a sample `.trace.json` (opens in Perfetto). Exact attribution,
//!   replay, thread-count invariance and the export's schema are tier-1
//!   tests (`check/tests/trace_phases.rs`,
//!   `bench/tests/trace_determinism.rs`).
//! - `cargo xtask <snapshot gate> [--scale quick|full] [--out PATH]` —
//!   one row of [`ENTRIES`] each, every one run by [`snapshot_gate`]:
//!   - `bench` (`BENCH_1.json`, quick): the calibrated paper matrix —
//!     Figs 5/7 at every opt level, Fig 9, Tables 3 and 4, the Fig 4
//!     ablation, and the top safe-mode level of Figs 10/11 — which is
//!     quick-scale at either `--scale`.
//!   - `scalebench` (`BENCH_2.json`, full): the dual-socket 2×56-core,
//!     10M-event tier, one job; its sim block pins the engine's dispatch
//!     order at scale, and the job must be present.
//!   - `storm` (`BENCH_3.json`, quick): the SEV-Step-style adversary
//!     pack ({mild, brisk, savage} × {none, ipi-drop, late-responder,
//!     combined}) at every paper opt level, on the flat and the mesh
//!     fabric. Every level of every cell must survive — zero oracle
//!     violations, no wedge, all threads done — and the victim must
//!     observe the storm. Prints the victim fault-latency signal table.
//!   - `fleet` (`BENCH_4.json`, quick): machine-fault × IPI-fault
//!     presets over N full-kernel machines behind a deterministic load
//!     balancer, plus the headline tier (full scale: 1000+ machines,
//!     100k+ cores). Every cell's survival verdicts must hold.
//!   - `topobench` (`BENCH_6.json`, full): {flat, ring, mesh} × {4K,
//!     THP} at the 2×56 tier under the Skylake-SP TLB geometry, plus the
//!     huge-page fracture table. Ring and mesh must diverge from flat;
//!     the THP column must promote and split.
//!   - `optbench` (`BENCH_7.json`, quick): reuse-churn and cross-socket
//!     AutoNUMA cells at L6/L7/L8. L7 must elide shootdowns the L6
//!     control keeps, L8 alone must sync page-table replicas, and every
//!     migration-storm cell must survive.
//!
//!   The driver takes the same five steps for each: (1) run the matrix
//!   at 1 pool thread and at max(2, cores), each cell simulated once per
//!   run; (2) fail on a panicked job or on any sim block that differs
//!   between the two runs, which is every gate's replay check; (3) run the
//!   entry's check; (4) diff against `--out` — a changed sim block, or a
//!   baseline job of this scale missing from the run, fails; baseline
//!   jobs of the other scale are carried over verbatim; wall-clock is
//!   bounded at [`WALL_TOLERANCE`]× the baseline's unless something was
//!   carried; (5) write the 1-thread snapshot to `--out`, only if every
//!   step passed.
//! - `cargo xtask ci [--gates fast|full]` — every gate above.
//!   `--gates fast` runs the PR-blocking tier (fmt, clippy);
//!   `--gates full` runs explore, the six snapshot gates at
//!   their CI scales, and trace; omitting the flag runs both tiers. All
//!   selected gates run even if an early one fails; a final table
//!   reports per-gate pass/fail with wall-clock, the machine-readable
//!   verdicts land in `ci_report.json` next to each crate's effective
//!   source-line count and its public-declaration count (the size and
//!   API-surface trajectories, tracked like wall-clock), and the exit
//!   code is nonzero if any gate failed.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use tlbdown_bench::loc::{effective_loc, Loc};
use tlbdown_bench::report::{
    diff_sim_metrics, differences, job_json, render_bench_json, render_snapshot, sim_blocks,
    total_wall_ns,
};
use tlbdown_bench::{
    bench_jobs, bench_matrix, optbench_levels, optbench_matrix, scale_matrix, storm_matrix,
    topobench_matrix, MatrixJob, Scale,
};
use tlbdown_check::gate::{
    per_level_bounds, CanaryReport, GateReport, LevelReport, CANARIES, DEFAULT_BUDGET,
};
use tlbdown_check::{explore_opt_level, explore_opt_level_mesh, Bounds};
use tlbdown_core::OptConfig;
use tlbdown_fleet::{run_fleet, FleetCfg, FleetFaultSpec, CHURN_SLOTS, WINDOW, WORKERS};
use tlbdown_kernel::InjectedBug;
use tlbdown_sim::fault::FaultSpec;
use tlbdown_sweep::{resolve_threads, run_jobs, Job, Json};
use tlbdown_trace::{
    analyze, render_attribution_table, render_phase_diff, to_chrome_json, PhaseTotals, Trace,
};
use tlbdown_workloads::storm::StormIntensity;

/// Maximum choices allowed in the shrunk canary counterexample.
const MAX_CANARY_CHOICES: usize = 20;

/// Shrinker trial budget for the canary.
const SHRINK_BUDGET: u64 = 2_000;

/// Wall-clock tolerance for the snapshot gates: a run may take at most
/// this multiple of its baseline's wall-clock. Generous, because
/// committed baselines cross hardware; the teeth of the gate are the
/// byte-exact sim-metric diff.
const WALL_TOLERANCE: f64 = 3.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("fmt") => fmt(),
        Some("clippy") => clippy(),
        Some("explore") => explore_gate(
            parse_threads(&args),
            &flag(&args, "--out").unwrap_or_else(|| "explore_report.json".into()),
        ),
        Some("trace") => {
            trace_gate(&flag(&args, "--out").unwrap_or_else(|| "sample.trace.json".into()))
        }
        Some("ci") => return ci(parse_gates(&args)),
        cmd => match ENTRIES.iter().find(|e| Some(e.name) == cmd) {
            Some(entry) => snapshot_gate(
                entry,
                parse_scale(&args).unwrap_or(entry.scale),
                &flag(&args, "--out").unwrap_or_else(|| entry.out.into()),
            )
            .is_empty(),
            None => {
                let names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
                eprintln!(
                    "usage: cargo xtask <fmt | clippy | \
                     explore [--threads N] [--out PATH] | \
                     trace [--out PATH] | ci [--gates fast|full] | \
                     {} [--scale quick|full] [--out PATH]>",
                    names.join(" | ")
                );
                return ExitCode::FAILURE;
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The value following `name`, if present.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_threads(args: &[String]) -> usize {
    flag(args, "--threads")
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("xtask: bad --threads {s:?}, expected a count (0 = all cores)");
                std::process::exit(2);
            })
        })
        .unwrap_or(0)
}

/// The `--scale` value, if given.
fn parse_scale(args: &[String]) -> Option<Scale> {
    match flag(args, "--scale").as_deref() {
        None => None,
        Some("quick") => Some(Scale::Quick),
        Some("full") => Some(Scale::Full),
        Some(other) => {
            eprintln!("xtask: bad --scale {other:?}, expected quick or full");
            std::process::exit(2);
        }
    }
}

/// Which CI tier `--gates` selects: `fast` (the PR-blocking gates),
/// `full` (the long matrix gates) or, when absent, `all`.
fn parse_gates(args: &[String]) -> &'static str {
    match flag(args, "--gates").as_deref() {
        None => "all",
        Some("fast") => "fast",
        Some("full") => "full",
        Some(other) => {
            eprintln!("xtask: bad --gates {other:?}, expected fast or full");
            std::process::exit(2);
        }
    }
}

/// The current commit hash, for snapshot provenance.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run_cargo(what: &str, args: &[&str], envs: &[(&str, &str)]) -> bool {
    let prefix: String = envs.iter().map(|(k, v)| format!("{k}={v:?} ")).collect();
    println!("xtask: {prefix}cargo {}", args.join(" "));
    let status = Command::new(env!("CARGO", "run via cargo"))
        .args(args)
        .envs(envs.iter().copied())
        .status();
    match status {
        Ok(s) if s.success() => true,
        Ok(_) => {
            eprintln!("xtask: {what} failed");
            false
        }
        Err(e) => {
            eprintln!("xtask: could not run cargo {what}: {e}");
            false
        }
    }
}

fn fmt() -> bool {
    run_cargo("fmt", &["fmt", "--all", "--", "--check"], &[])
}

fn clippy() -> bool {
    let lints = run_cargo(
        "clippy",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
        &[],
    );
    let docs = run_cargo(
        "doc",
        &["doc", "--no-deps", "--workspace"],
        &[("RUSTDOCFLAGS", "-D warnings")],
    );
    lints && docs
}

/// The per-level explorations as sweep jobs: every cumulative level over
/// the flat reference interconnect, then the same levels routed over the
/// 2D mesh. Each per-level DFS is deterministic in isolation, so the
/// jobs can run on any worker in any order.
fn explore_level_jobs() -> Vec<Job<(LevelReport, bool)>> {
    let mut jobs: Vec<Job<(LevelReport, bool)>> = OptConfig::all_levels()
        .map(|(level, _, _)| {
            let bounds = per_level_bounds();
            Job::new(format!("explore/L{level}"), move || {
                (explore_opt_level(level, &bounds), false)
            })
        })
        .collect();
    jobs.extend(OptConfig::all_levels().map(|(level, _, _)| {
        let bounds = per_level_bounds();
        Job::new(format!("explore/mesh/L{level}"), move || {
            (explore_opt_level_mesh(level, &bounds), true)
        })
    }));
    jobs
}

fn print_level(topo: &str, rep: &LevelReport) {
    println!(
        "xtask: {topo} opt level {}: {} schedules, {} branch points, \
         {} distinct states, {} digest-pruned, {:.1} digests/schedule — {}",
        rep.level,
        rep.schedules,
        rep.branch_points,
        rep.distinct_states,
        rep.pruned_digest,
        rep.digests as f64 / rep.schedules.max(1) as f64,
        if rep.safe { "safe" } else { "VIOLATION" }
    );
    if let Some(v) = &rep.violation {
        eprintln!("xtask: counterexample at opt level {}: {v}", rep.level);
    }
}

fn print_canary(bug: InjectedBug, c: &CanaryReport) {
    if c.pass(MAX_CANARY_CHOICES) {
        println!(
            "xtask: {bug:?} canary OK — seeded bug caught in {} schedules, shrunk to {} choices \
             ({} trials), replays byte-identically; correct check clean in {} schedules",
            c.caught_in_schedules, c.shrunk_choices, c.shrink_trials, c.safe_schedules
        );
    } else {
        // Every requirement, so the one that broke is on the line: the
        // bug must need exploration (FIFO-safe), be caught, shrink to at
        // most MAX_CANARY_CHOICES, replay, and the correct check must
        // explore clean.
        eprintln!(
            "xtask: CANARY FAILED — {bug:?}: fifo_safe {}, caught {}, shrunk to {} choices \
             (max {MAX_CANARY_CHOICES}), replay_ok {}, safe_clean {}; schedule {}",
            c.fifo_safe, c.caught, c.shrunk_choices, c.replay_ok, c.safe_clean, c.schedule
        );
    }
}

/// Every way the explore report `doc` differs from the baseline `base`,
/// one message per key path, `threads` aside: the one field the worker
/// count moves.
fn report_changes(doc: &Json, base: &Json) -> Vec<String> {
    let without_threads = |j: &Json| match j {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "threads")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    differences(&without_threads(doc), &without_threads(base), "")
        .into_iter()
        .map(|(path, cur, base)| format!("{path} is {cur} (baseline {base})"))
        .collect()
}

/// The model-checking gate: per-level explorations (flat and mesh, all
/// of [`OptConfig::all_levels`]) fanned across the sweep pool, the
/// seeded-bug canaries and a budget check. The machine-readable report
/// must match the baseline at `out` in every field but `threads`, and is
/// written to `out` only when the gate passes, so a failed run leaves
/// the committed report alone; delete it to re-baseline on purpose.
fn explore_gate(threads: usize, out: &str) -> bool {
    let per_level = per_level_bounds();
    println!(
        "xtask: bounded schedule exploration, budget {DEFAULT_BUDGET} schedules \
         (preemption bound {}, window {} cycles)",
        per_level.preemption_bound,
        tlbdown_check::explore::WINDOW.as_u64()
    );
    let sweep = run_jobs(explore_level_jobs(), threads);
    let mut levels: Vec<LevelReport> = Vec::new();
    let mut mesh_levels: Vec<LevelReport> = Vec::new();
    for r in &sweep.results {
        let (rep, mesh) = r.output.clone();
        if mesh {
            mesh_levels.push(rep);
        } else {
            levels.push(rep);
        }
    }
    for rep in &levels {
        print_level("flat", rep);
    }
    for rep in &mesh_levels {
        print_level("mesh", rep);
    }
    let canaries: Vec<(&str, CanaryReport)> = CANARIES
        .iter()
        .map(|c| {
            let report = c.run(&Bounds::default(), SHRINK_BUDGET);
            print_canary(c.bug, &report);
            (c.key, report)
        })
        .collect();
    let level_spent: u64 = levels.iter().chain(&mesh_levels).map(|l| l.schedules).sum();
    let spent = level_spent + canaries.iter().map(|(_, c)| c.spent).sum::<u64>();
    let gate = GateReport {
        budget: DEFAULT_BUDGET,
        spent,
        threads: sweep.threads,
        levels,
        mesh_levels,
        canaries,
        max_canary_choices: MAX_CANARY_CHOICES,
    };
    if spent > DEFAULT_BUDGET {
        eprintln!("xtask: BUDGET EXCEEDED — {spent} schedules > {DEFAULT_BUDGET}");
    }
    let doc = gate.to_json();
    let changes = match std::fs::read_to_string(out).map(|t| Json::parse(&t)) {
        Err(_) => {
            println!("xtask: no baseline at {out}; nothing to diff against");
            Vec::new()
        }
        Ok(Err(e)) => vec![format!("baseline {out} is not valid JSON ({e})")],
        Ok(Ok(base)) => report_changes(&doc, &base),
    };
    for c in &changes {
        eprintln!("xtask: explore GATE FAILED — {c}");
    }
    if !gate.pass() || !changes.is_empty() {
        return false;
    }
    if let Err(e) = std::fs::write(out, doc.render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!(
        "xtask: wrote {out} ({} levels, {} threads, {:.0?} wall)",
        gate.levels.len(),
        sweep.threads,
        sweep.elapsed
    );
    println!("xtask: explore OK — {spent} of {DEFAULT_BUDGET} schedule budget used");
    true
}

/// One run of a snapshot entry: the snapshot, and one message per job
/// that failed.
type Run = (Json, Vec<String>);

/// A snapshot gate: a committed `BENCH_*.json`, the matrix behind it and
/// the invariants it must hold. [`snapshot_gate`] runs every entry the
/// same way.
struct Entry {
    /// The command, and its row in `ci_report.json`.
    name: &'static str,
    /// The committed snapshot: the default `--out`, and the baseline.
    out: &'static str,
    /// The CI scale; `--scale` overrides it.
    scale: Scale,
    /// Run the matrix on `threads` pool workers.
    run: fn(Scale, usize) -> Run,
    /// The entry's invariants over a run's snapshot, one message per
    /// failure.
    check: fn(&Json, Scale) -> Vec<String>,
}

/// The snapshot gates, in snapshot order.
static ENTRIES: [Entry; 6] = [
    Entry {
        name: "bench",
        out: "BENCH_1.json",
        scale: Scale::Quick,
        run: |_, threads| sweep_run(bench_matrix(), threads),
        check: |_, _| Vec::new(),
    },
    Entry {
        name: "scalebench",
        out: "BENCH_2.json",
        scale: Scale::Full,
        run: |scale, threads| sweep_run(scale_matrix(scale), threads),
        check: check_scale,
    },
    Entry {
        name: "storm",
        out: "BENCH_3.json",
        scale: Scale::Quick,
        run: |scale, threads| sweep_run(storm_matrix(scale), threads),
        check: check_storm,
    },
    Entry {
        name: "fleet",
        out: "BENCH_4.json",
        scale: Scale::Quick,
        run: fleet_run,
        check: check_fleet,
    },
    Entry {
        name: "topobench",
        out: "BENCH_6.json",
        scale: Scale::Full,
        run: |scale, threads| sweep_run(topobench_matrix(scale), threads),
        check: check_topo,
    },
    Entry {
        name: "optbench",
        out: "BENCH_7.json",
        scale: Scale::Quick,
        run: |scale, threads| sweep_run(optbench_matrix(scale), threads),
        check: check_opt,
    },
];

/// Run matrix jobs through the sweep pool.
fn sweep_run(jobs: Vec<MatrixJob>, threads: usize) -> Run {
    let sweep = run_jobs(bench_jobs(jobs), threads);
    let failures = sweep
        .failures
        .iter()
        .map(|f| format!("job {} panicked: {}", f.id, f.message))
        .collect();
    (render_bench_json(&sweep, &git_rev()), failures)
}

/// The driver: run `entry` at `scale` through the five steps in the
/// module docs, writing `out` only if every step passed. Returns the
/// failures.
fn snapshot_gate(entry: &Entry, scale: Scale, out: &str) -> Vec<String> {
    let (name, s, threads) = (entry.name, scale.label(), resolve_threads(0).max(2));
    println!("xtask: {name} at {s} scale on 1 and {threads} threads");
    let start = Instant::now();
    let serial = (entry.run)(scale, 1);
    let pooled = (entry.run)(scale, threads);
    let base = std::fs::read_to_string(out).ok().map(|t| Json::parse(&t));
    let base_doc = base.as_ref().and_then(|b| b.as_ref().ok());
    let (doc, mut failures) = judge(entry, scale, serial, pooled, base_doc);
    match &base {
        None => println!("xtask: no baseline at {out}; nothing to diff against"),
        Some(Err(e)) => failures.push(format!("baseline {out} is not valid JSON ({e})")),
        Some(Ok(_)) => {}
    }
    if failures.is_empty() {
        match std::fs::write(out, doc.render_pretty()) {
            Ok(()) => println!("xtask: wrote {out}; {name} OK in {:.2?}", start.elapsed()),
            Err(e) => failures.push(format!("could not write {out}: {e}")),
        }
    }
    for f in &failures {
        eprintln!("xtask: {name} GATE FAILED — {f}");
    }
    failures
}

/// Driver steps 2–4, without I/O: judge the 1-thread `serial` run
/// against the `pooled` run, the entry's check and the baseline.
/// Returns the snapshot to write — the serial run plus the baseline's
/// carried jobs — and every failure.
fn judge(
    entry: &Entry,
    scale: Scale,
    serial: Run,
    pooled: Run,
    base: Option<&Json>,
) -> (Json, Vec<String>) {
    let (mut doc, mut failures) = serial;
    failures.extend(pooled.1);
    let threads = pooled.0.get("threads").and_then(Json::as_u64).unwrap_or(0);
    for c in diff_sim_metrics(&pooled.0, &doc).changed {
        failures.push(format!(
            "{}: {} is {} at {threads} threads but {} at 1",
            c.id, c.path, c.current, c.baseline
        ));
    }
    failures.extend((entry.check)(&doc, scale));
    let Some(base) = base else {
        return (doc, failures);
    };
    let other = if scale == Scale::Quick {
        "full"
    } else {
        "quick"
    };
    // Carried: baseline jobs the run did not produce whose ID names the
    // other scale (`bench` runs its quick jobs at either scale).
    let ran = sim_blocks(&doc);
    let (carried, same): (Vec<Json>, Vec<Json>) = jobs(base)
        .iter()
        .cloned()
        .partition(|j| !ran.contains_key(id_of(j)) && id_of(j).split('/').any(|seg| seg == other));
    let diff = diff_sim_metrics(&doc, &Json::obj().with("jobs", Json::Arr(same)));
    for c in diff.changed {
        failures.push(format!(
            "{}: {} is {} (baseline {})",
            c.id, c.path, c.current, c.baseline
        ));
    }
    for id in diff.removed {
        failures.push(format!("{id}: in the baseline but missing from the run"));
    }
    for id in diff.added {
        println!("xtask: new job (no baseline): {id}");
    }
    if !carried.is_empty() {
        println!(
            "xtask: carried {} {other}-scale job(s) over from the baseline; \
             wall-clock bound skipped",
            carried.len()
        );
        let mut all = [jobs(&doc), &carried].concat();
        all.sort_by(|a, b| id_of(a).cmp(id_of(b)));
        if let Json::Obj(pairs) = &mut doc {
            if let Some((_, v)) = pairs.iter_mut().find(|(k, _)| k == "jobs") {
                *v = Json::Arr(all);
            }
        }
    } else if let (Some(cur), Some(prev)) = (total_wall_ns(&doc), total_wall_ns(base)) {
        if cur as f64 > WALL_TOLERANCE * prev as f64 {
            failures.push(format!(
                "wall-clock {:.2?} is over {WALL_TOLERANCE:.1}x the baseline's {:.2?}",
                Duration::from_nanos(cur),
                Duration::from_nanos(prev)
            ));
        }
    }
    (doc, failures)
}

/// The jobs of a snapshot.
fn jobs(doc: &Json) -> &[Json] {
    doc.get("jobs").and_then(Json::as_arr).unwrap_or(&[])
}

/// A snapshot job's ID.
fn id_of(job: &Json) -> &str {
    job.get("id").and_then(Json::as_str).unwrap_or("")
}

/// A `u64` field of one job's deterministic sim block, if present.
fn sim_u64(doc: &Json, id: &str, key: &str) -> Option<u64> {
    jobs(doc)
        .iter()
        .find(|j| id_of(j) == id)?
        .get("sim")?
        .get(key)?
        .as_u64()
}

/// Survival verdicts a cell records, each with its surviving value.
const SURVIVAL: [(&str, u64); 3] = [("violations", 0), ("wedged", 0), ("threads_done", 1)];

/// The survival rule: job `id` must record each of `verdicts`, under
/// `prefix`, with its surviving value. A missing key fails too.
fn survival(doc: &Json, id: &str, prefix: &str, verdicts: &[(&str, u64)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, want) in verdicts {
        let got = sim_u64(doc, id, &format!("{prefix}{key}"));
        if got != Some(*want) {
            failures.push(format!("{id}: {prefix}{key} is {got:?}, want {want}"));
        }
    }
    failures
}

/// `scalebench`: the tier's one job must be in the run.
fn check_scale(doc: &Json, scale: Scale) -> Vec<String> {
    let id = format!("scale/{}/2x56", scale.label());
    if sim_blocks(doc).contains_key(&id) {
        Vec::new()
    } else {
        vec![format!("{id} is missing")]
    }
}

/// Opt levels every storm cell runs (L0..L6): the paper's levels, since
/// the cells' sim blocks are byte-pinned by `BENCH_3.json`.
const STORM_LEVELS: usize = OptConfig::PAPER_NUM_LEVELS;

/// `storm`: every level of every cell survives, and the victim sees the
/// storm (it is only an adversary if it is observed). Prints the victim
/// signal table of both fabrics.
fn check_storm(doc: &Json, scale: Scale) -> Vec<String> {
    let mut failures = Vec::new();
    for job in storm_matrix(scale) {
        for level in 0..STORM_LEVELS {
            let prefix = format!("L{level}_");
            failures.extend(survival(doc, &job.id, &prefix, &SURVIVAL));
            if sim_u64(doc, &job.id, &format!("{prefix}victim_faults")).unwrap_or(0) == 0 {
                failures.push(format!("{} L{level}: the victim saw no storm", job.id));
            }
        }
    }
    for (fabric, seg) in [("flat", ""), ("mesh", "mesh/")] {
        println!("xtask: victim fault-latency signal ({fabric}, fault preset none), cycles:");
        print!("{}", storm_signal_table(doc, scale, seg));
    }
    failures
}

/// The victim signal-observability table: fault-latency percentile
/// upper bounds per opt level, one column group per storm intensity,
/// read from the fault-free cells of one fabric (`seg` is its job-ID
/// segment). This is the table EXPERIMENTS.md records.
fn storm_signal_table(doc: &Json, scale: Scale, seg: &str) -> String {
    let mut out = format!("{:<6}", "level");
    for i in StormIntensity::ALL {
        out += &format!("  {:>7} p50/p90/p99 (n)     ", i.label());
    }
    out.push('\n');
    for level in 0..STORM_LEVELS {
        out += &format!("L{level:<5}");
        for i in StormIntensity::ALL {
            let id = format!("storm/{}/{seg}{}/none", scale.label(), i.label());
            let [p50, p90, p99, n] = ["fault_p50", "fault_p90", "fault_p99", "victim_faults"]
                .map(|k| sim_u64(doc, &id, &format!("L{level}_{k}")).unwrap_or(0));
            out += &format!("  {p50:>7}/{p90:>6}/{p99:>7} ({n:>5})");
        }
        out.push('\n');
    }
    out
}

/// `fleet`: every cell's survival verdicts hold, and at full scale the
/// headline tier is fleet-sized.
fn check_fleet(doc: &Json, scale: Scale) -> Vec<String> {
    let mut failures = Vec::new();
    for job in jobs(doc) {
        let verdicts = job.get("sim").and_then(|s| s.get("verdicts"));
        for key in [
            "fully_accounted",
            "zero_violations",
            "crashed_recovered_or_ejected",
        ] {
            if verdicts.and_then(|v| v.get(key)) != Some(&Json::Bool(true)) {
                failures.push(format!("{}: {key} is not true", id_of(job)));
            }
        }
    }
    if scale == Scale::Full {
        let id = "fleet/full/headline";
        let machines = sim_u64(doc, id, "machines").unwrap_or(0);
        let cores = sim_u64(doc, id, "total_cores").unwrap_or(0);
        if machines < 1000 || cores < 100_000 {
            failures.push(format!("{id}: only {machines} machines, {cores} cores"));
        }
    }
    failures
}

/// `topobench`: every cell replays; ring and mesh diverge from flat
/// (same workload and seed, so an equal digest means the routed
/// interconnect changed nothing); the fracture table shows the THP
/// lifecycle.
fn check_topo(doc: &Json, scale: Scale) -> Vec<String> {
    let s = scale.label();
    let mut failures = Vec::new();
    for pages in ["4k", "thp"] {
        let digest = |topo: &str| sim_u64(doc, &format!("topo/{s}/{topo}/{pages}"), "state_digest");
        for topo in ["ring", "mesh"] {
            match (digest("flat"), digest(topo)) {
                (Some(f), Some(r)) if f != r => {}
                (flat, routed) => failures.push(format!(
                    "{topo}/{pages} digest {routed:?} does not differ from flat's {flat:?}"
                )),
            }
        }
    }
    let frac = format!("topo/{s}/fracture");
    let promotes = sim_u64(doc, &frac, "thp_thp_promote").unwrap_or(0);
    let splits = sim_u64(doc, &frac, "thp_thp_split").unwrap_or(0);
    if promotes == 0 || splits == 0 {
        failures.push(format!(
            "{frac}: {promotes} promotions / {splits} splits; the THP churn never \
             exercised the huge-page lifecycle"
        ));
    }
    failures
}

/// `optbench`: every migration-storm cell survives; the window-fitting
/// reuse churn elides shootdowns at L7
/// while the L6 control keeps the window dark; the migration storm
/// syncs page-table replicas at L8 and only there.
fn check_opt(doc: &Json, scale: Scale) -> Vec<String> {
    let s = scale.label();
    let mut failures: Vec<String> = optbench_matrix(scale)
        .iter()
        .filter(|j| j.id.contains("/numa/"))
        .flat_map(|j| survival(doc, &j.id, "", &SURVIVAL))
        .collect();
    let [l6, l7, l8] = optbench_levels();
    let reuse = |level, key| sim_u64(doc, &format!("opt/{s}/reuse/fitting/L{level}"), key);
    match (
        reuse(l6, "shootdowns"),
        reuse(l7, "shootdowns"),
        reuse(l6, "reuse_hits"),
        reuse(l7, "reuse_hits"),
    ) {
        (Some(c), Some(r), Some(0), Some(h)) if r < c && h > 0 => {}
        other => failures.push(format!(
            "reuse-skip teeth: (L6 shootdowns, L7 shootdowns, L6 hits, L7 hits) = {other:?}, \
             expected L7 < L6 with L6 hits = 0 and L7 hits > 0"
        )),
    }
    let syncs = |l| {
        sim_u64(
            doc,
            &format!("opt/{s}/numa/numa-storm/L{l}"),
            "replica_syncs",
        )
    };
    match (syncs(l6), syncs(l8)) {
        (Some(0), Some(r)) if r > 0 => {}
        other => failures.push(format!(
            "numaPTE teeth: (L6, L8) replica syncs = {other:?}, expected (0, > 0)"
        )),
    }
    failures
}

/// The fleet survival matrix: machine-level fault presets crossed with
/// IPI-level presets, plus the headline tier.
fn fleet_cells(scale: Scale) -> Vec<(String, FleetCfg)> {
    let ipi_axis: [(&str, FaultSpec); 3] = [
        ("none", FaultSpec::none()),
        ("ipi-drop", FaultSpec::ipi_drop()),
        ("combined", FaultSpec::combined()),
    ];
    let cell_machines = match scale {
        Scale::Quick => 8,
        Scale::Full => 16,
    };
    let mut cells = Vec::new();
    let mut idx = 0u64;
    for (mname, mspec) in FleetFaultSpec::matrix() {
        for (iname, ipi) in &ipi_axis {
            let id = format!("fleet/{}/{mname}/{iname}", scale.label());
            let seed = 0x5eed_f1ee_7000 + idx;
            idx += 1;
            cells.push((
                id,
                FleetCfg::quick(cell_machines, mspec.clone().with_ipi(ipi.clone()), seed),
            ));
        }
    }
    // The headline tier runs the hardest mix at fleet scale: every
    // machine-level hazard armed, IPI drops underneath.
    let headline_spec = FleetFaultSpec::combined().with_ipi(FaultSpec::ipi_drop());
    let headline = match scale {
        Scale::Quick => FleetCfg::quick(120, headline_spec, 0x5eed_f1ee_8000),
        Scale::Full => FleetCfg::full_tier(headline_spec, 0x5eed_f1ee_8000),
    };
    cells.push((format!("fleet/{}/headline", scale.label()), headline));
    cells
}

/// The `fleet` entry's run: every cell of [`fleet_cells`] in turn, each
/// a [`run_fleet`] sharded over `threads` workers.
fn fleet_run(scale: Scale, threads: usize) -> Run {
    let start = Instant::now();
    let (mut jobs, mut failures) = (Vec::new(), Vec::new());
    for (id, cfg) in fleet_cells(scale) {
        let cell_start = Instant::now();
        match run_fleet(&cfg, threads) {
            Ok(r) => {
                let config = Json::obj()
                    .with("machines", Json::U64(u64::from(cfg.machines)))
                    .with("total_cores", Json::U64(cfg.total_cores()))
                    .with("window", Json::U64(WINDOW))
                    .with("workers", Json::U64(u64::from(WORKERS)))
                    .with("churn_slots", Json::U64(u64::from(CHURN_SLOTS)))
                    .with("seed", Json::U64(cfg.seed));
                jobs.push(job_json(&id, config, r.sim_json(), cell_start.elapsed()));
            }
            Err(e) => failures.push(format!("{id}: {e}")),
        }
    }
    let doc = render_snapshot(jobs, threads, start.elapsed(), &git_rev());
    (doc, failures)
}

/// One traced run of the calibrated trace-gate workload. Paper levels
/// trace `dueling_madvise` exactly as before; the elision levels trace
/// the shrunk-window variant so debt flushes keep the spans non-empty.
fn traced_dueling(level: usize) -> Trace {
    let mut m = tlbdown_check::scenario::dueling_madvise_at(level as u8);
    m.start_tracing(1 << 14);
    m.run();
    m.take_trace()
}

/// The tracing gate: the per-phase attribution table at every
/// optimization level and a sample export (Perfetto-loadable) written
/// to `out`. Exact attribution, replay, thread-count invariance and the
/// export's schema are tier-1 tests on the same runs.
fn trace_gate(out: &str) -> bool {
    let columns: Vec<_> = OptConfig::all_levels()
        .map(|(level, _, _)| {
            let a = analyze(&traced_dueling(level as usize));
            (format!("L{level}"), PhaseTotals::of(&a, true))
        })
        .collect();
    println!("xtask: critical path, dueling_madvise, mean cycles per remote shootdown:");
    print!("{}", render_attribution_table(&columns));
    if let (Some(first), Some(last)) = (columns.first(), columns.last()) {
        print!("{}", render_phase_diff(first, last));
    }

    let sample = to_chrome_json(&traced_dueling(6));
    if let Err(e) = std::fs::write(out, sample.render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!("xtask: wrote {out}");
    println!("xtask: trace OK");
    true
}

/// Effective source lines and public declarations of every crate in the
/// workspace: the [`effective_loc`] counts (no blanks, comments or test
/// modules) summed over each `.rs` file under `crates/<name>/src`,
/// sorted by name.
fn crate_loc() -> std::io::Result<Vec<(String, Loc)>> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(crates)? {
        let dir = entry?.path();
        let src = dir.join("src");
        if src.is_dir() {
            let name = dir
                .file_name()
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            out.push((name, dir_loc(&src)?));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// [`effective_loc`] summed over every `.rs` file under `dir`.
fn dir_loc(dir: &Path) -> std::io::Result<Loc> {
    let mut sum = Loc::default();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let loc = if path.is_dir() {
            dir_loc(&path)?
        } else if path.extension().is_some_and(|e| e == "rs") {
            effective_loc(&std::fs::read_to_string(&path)?)
        } else {
            continue;
        };
        sum.lines += loc.lines;
        sum.public += loc.public;
    }
    Ok(sum)
}

/// Every gate of the selected tier, in order. All of them run even if
/// an early one fails — one CI invocation reports every broken gate,
/// not just the first. Each gate is wall-clock timed; the summary table
/// prints a time column and the same rows land machine-readably in
/// `ci_report.json` (gate, verdict, seconds) for the CI artifact,
/// together with every crate's effective source-line count.
fn ci(which: &str) -> ExitCode {
    type GateFn = Box<dyn FnOnce() -> bool>;
    // (name, fast-tier?, gate). The fast tier is the PR-blocking set —
    // cheap, seconds each; the full tier is the long matrix gates CI
    // runs in a parallel job.
    let mut gates: Vec<(&str, bool, GateFn)> = vec![
        ("fmt", true, Box::new(fmt)),
        ("clippy", true, Box::new(clippy)),
        (
            "explore",
            false,
            Box::new(|| explore_gate(0, "explore_report.json")),
        ),
    ];
    for e in &ENTRIES {
        gates.push((
            e.name,
            false,
            Box::new(|| snapshot_gate(e, e.scale, e.out).is_empty()),
        ));
    }
    gates.push(("trace", false, Box::new(|| trace_gate("sample.trace.json"))));
    let mut rows: Vec<(&str, bool, Duration)> = Vec::new();
    for (name, fast, gate) in gates {
        if which != "all" && (which == "fast") != fast {
            continue;
        }
        let start = Instant::now();
        let ok = gate();
        rows.push((name, ok, start.elapsed()));
    }
    println!("xtask: ── gate summary ──");
    let mut all_ok = true;
    for (name, ok, wall) in &rows {
        println!(
            "xtask:   {name:<10} {:<4} {:>9.2?}",
            if *ok { "PASS" } else { "FAIL" },
            wall
        );
        all_ok &= ok;
    }
    let (loc, public) = match crate_loc() {
        Ok(per_crate) => {
            let block = |count: fn(&Loc) -> u64| {
                let total: u64 = per_crate.iter().map(|(_, l)| count(l)).sum();
                let crates = per_crate.iter().fold(Json::obj(), |o, (name, l)| {
                    o.with(name, Json::U64(count(l)))
                });
                (
                    total,
                    Json::obj()
                        .with("crates", crates)
                        .with("total", Json::U64(total)),
                )
            };
            let (lines, loc) = block(|l| l.lines);
            let (decls, public) = block(|l| l.public);
            println!(
                "xtask: {lines} effective source lines, {decls} of them public \
                 declarations, across {} crates",
                per_crate.len()
            );
            (loc, public)
        }
        Err(e) => {
            eprintln!("xtask: could not count source lines: {e}");
            all_ok = false;
            (Json::Null, Json::Null)
        }
    };
    let report = Json::obj()
        .with("schema_version", Json::U64(1))
        .with("git_rev", Json::Str(git_rev()))
        .with("gates", Json::Str(which.into()))
        .with("pass", Json::Bool(all_ok))
        .with(
            "results",
            Json::Arr(
                rows.iter()
                    .map(|(name, ok, wall)| {
                        Json::obj()
                            .with("gate", Json::Str((*name).into()))
                            .with(
                                "verdict",
                                Json::Str(if *ok { "pass" } else { "fail" }.into()),
                            )
                            .with("seconds", Json::F64(wall.as_secs_f64()))
                    })
                    .collect(),
            ),
        )
        .with("loc", loc)
        .with("public_decls", public);
    if let Err(e) = std::fs::write("ci_report.json", report.render_pretty()) {
        eprintln!("xtask: could not write ci_report.json: {e}");
        all_ok = false;
    } else {
        println!("xtask: wrote ci_report.json");
    }
    if all_ok {
        println!("xtask: ci OK — all {} gates passed", rows.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask: ci FAILED — see the gate summary above");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    //! Every snapshot-gate condition, exercised on doctored copies of the
    //! committed snapshots: no simulation runs here.

    use super::*;

    fn entry(name: &str) -> &'static Entry {
        ENTRIES
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no entry {name}"))
    }

    /// The committed snapshot of entry `name`.
    fn committed(name: &str) -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(entry(name).out);
        let text = std::fs::read_to_string(&path).expect("committed snapshot");
        Json::parse(&text).expect("committed snapshot parses")
    }

    /// Member `key` of an object, mutably.
    fn member<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(pairs) = v else {
            panic!("{key}: not an object")
        };
        &mut pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no member {key}"))
            .1
    }

    /// The jobs array of a snapshot, mutably.
    fn jobs_mut(doc: &mut Json) -> &mut Vec<Json> {
        let Json::Arr(jobs) = member(doc, "jobs") else {
            panic!("jobs is not an array")
        };
        jobs
    }

    /// The sim block of job `id`, mutably.
    fn sim<'a>(doc: &'a mut Json, id: &str) -> &'a mut Json {
        let job = jobs_mut(doc)
            .iter_mut()
            .find(|j| id_of(j) == id)
            .unwrap_or_else(|| panic!("no job {id}"));
        member(job, "sim")
    }

    fn bump(v: &mut Json) {
        *v = Json::U64(v.as_u64().expect("a count") + 1);
    }

    /// The driver, given `doc` as both runs of `name` at `scale` and no
    /// baseline, fails through the entry's check with a message that
    /// contains `want`.
    fn assert_check_fails(name: &str, doc: &Json, scale: Scale, want: &str) {
        let run = (doc.clone(), Vec::new());
        let (_, failures) = judge(entry(name), scale, run.clone(), run, None);
        assert_has(&failures, want);
    }

    /// Judge `run` (as both thread counts' result) against the committed
    /// snapshot of `name` at the entry's CI scale.
    fn judge_run(name: &str, run: Run) -> (Json, Vec<String>) {
        let e = entry(name);
        judge(e, e.scale, run.clone(), run, Some(&committed(name)))
    }

    fn assert_has(failures: &[String], want: &str) {
        assert!(
            failures.iter().any(|f| f.contains(want)),
            "expected a failure containing {want:?}, got {failures:?}"
        );
    }

    /// The committed explore report.
    fn committed_explore_report() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../explore_report.json");
        let text = std::fs::read_to_string(path).expect("committed explore report");
        Json::parse(&text).expect("committed explore report parses")
    }

    #[test]
    fn the_explore_report_diff_ignores_only_the_thread_count() {
        let base = committed_explore_report();
        assert_eq!(report_changes(&base, &base), Vec::<String>::new());
        let mut doc = base.clone();
        bump(member(&mut doc, "threads"));
        assert_eq!(report_changes(&doc, &base), Vec::<String>::new());
        let Json::Arr(levels) = member(&mut doc, "mesh_levels") else {
            panic!("mesh_levels is not an array")
        };
        bump(member(&mut levels[8], "schedules"));
        bump(member(member(&mut doc, "canary"), "shrunk_choices"));
        let changes = report_changes(&doc, &base);
        assert_eq!(changes.len(), 2, "{changes:?}");
        assert_has(&changes, ".mesh_levels[8].schedules is");
        assert_has(&changes, ".canary.shrunk_choices is");
    }

    #[test]
    fn every_committed_snapshot_passes_its_own_gate() {
        for e in &ENTRIES {
            let doc = committed(e.name);
            assert_eq!((e.check)(&doc, e.scale), Vec::<String>::new(), "{}", e.name);
            let (out, failures) = judge_run(e.name, (doc.clone(), Vec::new()));
            assert_eq!(failures, Vec::<String>::new(), "{}", e.name);
            assert_eq!(sim_blocks(&out), sim_blocks(&doc), "{}", e.name);
        }
        // The fleet snapshot holds both scales; the full cells pass the
        // full-scale check, headline size included.
        assert_eq!(
            check_fleet(&committed("fleet"), Scale::Full),
            Vec::<String>::new()
        );
    }

    #[test]
    fn scalebench_fails_when_the_tier_job_is_missing() {
        let mut doc = committed("scalebench");
        jobs_mut(&mut doc).retain(|j| id_of(j) != "scale/full/2x56");
        assert_check_fails(
            "scalebench",
            &doc,
            Scale::Full,
            "scale/full/2x56 is missing",
        );
    }

    #[test]
    fn topobench_fails_when_a_routed_digest_equals_flat() {
        for (topo, pages) in [("ring", "4k"), ("mesh", "thp")] {
            let mut doc = committed("topobench");
            let flat = sim_u64(&doc, &format!("topo/full/flat/{pages}"), "state_digest");
            let routed = sim(&mut doc, &format!("topo/full/{topo}/{pages}"));
            *member(routed, "state_digest") = Json::U64(flat.expect("flat digest"));
            let want = format!("{topo}/{pages} digest");
            assert_check_fails("topobench", &doc, Scale::Full, &want);
        }
    }

    #[test]
    fn topobench_fails_without_promotions_or_splits() {
        for key in ["thp_thp_promote", "thp_thp_split"] {
            let mut doc = committed("topobench");
            *member(sim(&mut doc, "topo/full/fracture"), key) = Json::U64(0);
            assert_check_fails("topobench", &doc, Scale::Full, "huge-page lifecycle");
        }
    }

    #[test]
    fn optbench_fails_without_reuse_hits_or_when_l6_syncs_a_replica() {
        let mut doc = committed("optbench");
        *member(sim(&mut doc, "opt/quick/reuse/fitting/L7"), "reuse_hits") = Json::U64(0);
        assert_check_fails("optbench", &doc, Scale::Quick, "reuse-skip teeth");
        let mut doc = committed("optbench");
        *member(
            sim(&mut doc, "opt/quick/numa/numa-storm/L6"),
            "replica_syncs",
        ) = Json::U64(1);
        assert_check_fails("optbench", &doc, Scale::Quick, "numaPTE teeth");
    }

    #[test]
    fn optbench_fails_when_a_migration_storm_cell_does_not_survive() {
        let mut doc = committed("optbench");
        *member(sim(&mut doc, "opt/quick/numa/periodic/L7"), "wedged") = Json::U64(1);
        assert_check_fails("optbench", &doc, Scale::Quick, "L7: wedged is Some(1)");
    }

    #[test]
    fn storm_fails_on_a_level_without_victim_faults() {
        let mut doc = committed("storm");
        *member(
            sim(&mut doc, "storm/quick/mesh/mild/none"),
            "L3_victim_faults",
        ) = Json::U64(0);
        assert_check_fails("storm", &doc, Scale::Quick, "L3: the victim saw no storm");
    }

    #[test]
    fn storm_fails_on_a_missing_or_wrong_survival_key() {
        let mut doc = committed("storm");
        let Json::Obj(pairs) = sim(&mut doc, "storm/quick/savage/combined") else {
            panic!("sim is an object")
        };
        pairs.retain(|(k, _)| k != "L2_wedged");
        assert_check_fails("storm", &doc, Scale::Quick, "L2_wedged is None");
        *member(sim(&mut doc, "storm/quick/brisk/ipi-drop"), "L4_violations") = Json::U64(1);
        assert_check_fails("storm", &doc, Scale::Quick, "L4_violations is Some(1)");
    }

    #[test]
    fn fleet_fails_on_a_false_verdict() {
        for key in [
            "fully_accounted",
            "zero_violations",
            "crashed_recovered_or_ejected",
        ] {
            let mut doc = committed("fleet");
            let verdicts = member(sim(&mut doc, "fleet/quick/crash/combined"), "verdicts");
            *member(verdicts, key) = Json::Bool(false);
            assert_check_fails("fleet", &doc, Scale::Quick, &format!("{key} is not true"));
        }
    }

    #[test]
    fn fleet_headline_under_1000_machines_fails_at_full_scale() {
        let mut doc = committed("fleet");
        *member(sim(&mut doc, "fleet/full/headline"), "machines") = Json::U64(999);
        assert_check_fails("fleet", &doc, Scale::Full, "only 999 machines");
        // The quick headline is CI-sized by design.
        assert_eq!(check_fleet(&doc, Scale::Quick), Vec::<String>::new());
    }

    #[test]
    fn a_thread_count_divergence_fails() {
        for (name, id, key) in [
            ("optbench", "opt/quick/reuse/fitting/L6", "sim_cycles"),
            ("storm", "storm/quick/mild/late-responder", "L5_digest"),
        ] {
            let serial = committed(name);
            let mut pooled = serial.clone();
            *member(&mut pooled, "threads") = Json::U64(2);
            bump(member(sim(&mut pooled, id), key));
            let e = entry(name);
            let (_, failures) = judge(
                e,
                e.scale,
                (serial.clone(), Vec::new()),
                (pooled, Vec::new()),
                Some(&serial),
            );
            assert_has(&failures, &format!("{id}: sim.{key} is"));
            assert_has(&failures, "at 2 threads but");
        }
    }

    #[test]
    fn a_panicked_job_fails_and_cannot_pass_as_a_removal() {
        let mut doc = committed("bench");
        jobs_mut(&mut doc).retain(|j| id_of(j) != "table4/row0");
        let panicked = vec!["job table4/row0 panicked: boom".to_string()];
        let (_, failures) = judge_run("bench", (doc.clone(), panicked.clone()));
        assert_has(&failures, "job table4/row0 panicked: boom");
        assert_has(
            &failures,
            "table4/row0: in the baseline but missing from the run",
        );
        // A panic in the pooled run alone fails too.
        let (e, base) = (entry("bench"), committed("bench"));
        let serial = (base.clone(), Vec::new());
        let (_, failures) = judge(e, e.scale, serial, (doc, panicked), Some(&base));
        assert_has(&failures, "job table4/row0 panicked: boom");
    }

    #[test]
    fn a_missing_same_scale_job_fails() {
        let mut doc = committed("bench");
        jobs_mut(&mut doc).retain(|j| id_of(j) != "fig9/quick/C1");
        let (_, failures) = judge_run("bench", (doc, Vec::new()));
        assert_eq!(
            failures,
            vec!["fig9/quick/C1: in the baseline but missing from the run".to_string()]
        );
    }

    #[test]
    fn a_changed_sim_block_fails_naming_its_path() {
        let mut doc = committed("optbench");
        bump(member(
            sim(&mut doc, "opt/quick/numa/numa-storm/L6"),
            "sim_cycles",
        ));
        let (_, failures) = judge_run("optbench", (doc, Vec::new()));
        assert_has(&failures, "opt/quick/numa/numa-storm/L6: sim.sim_cycles is");
        assert_has(&failures, "(baseline ");
    }

    #[test]
    fn other_scale_jobs_are_carried_verbatim_and_lift_the_wall_bound() {
        let base = committed("fleet");
        let mut run = base.clone();
        jobs_mut(&mut run).retain(|j| id_of(j).starts_with("fleet/quick/"));
        // A run far slower than its baseline passes when jobs were
        // carried: the totals of two scales are not comparable.
        *member(member(&mut run, "totals"), "wall_ns") = Json::U64(u64::MAX / 2);
        let (out, failures) = judge_run("fleet", (run, Vec::new()));
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(jobs(&out), jobs(&base), "carried jobs come back verbatim");
        // A job the run produced is diffed, whatever scale its ID names.
        let (e, base) = (entry("bench"), committed("bench"));
        let run = (base.clone(), Vec::new());
        let (out, failures) = judge(e, Scale::Full, run.clone(), run, Some(&base));
        assert_eq!(failures, Vec::<String>::new());
        assert_eq!(jobs(&out), jobs(&base), "nothing carried, nothing doubled");
    }

    #[test]
    fn wall_clock_is_bounded_when_nothing_was_carried() {
        let mut run = committed("optbench");
        let wall = member(member(&mut run, "totals"), "wall_ns");
        *wall = Json::U64(wall.as_u64().expect("wall_ns") * 4);
        let (_, failures) = judge_run("optbench", (run, Vec::new()));
        assert_has(&failures, "wall-clock");
    }

    /// A test entry whose run reproduces `optbench`'s committed snapshot
    /// with one drifted sim value.
    static DRIFTED: Entry = Entry {
        name: "drifted",
        out: "BENCH_7.json",
        scale: Scale::Quick,
        run: |_, _| {
            let mut doc = committed("optbench");
            bump(member(
                sim(&mut doc, "opt/quick/numa/numa-storm/L6"),
                "sim_cycles",
            ));
            (doc, Vec::new())
        },
        check: |_, _| Vec::new(),
    };

    #[test]
    fn a_failing_gate_leaves_its_baseline_alone() {
        let path = std::env::temp_dir().join(format!("xtask-drift-{}.json", std::process::id()));
        let baseline = committed("optbench").render_pretty();
        std::fs::write(&path, &baseline).expect("write scratch baseline");
        let out = path.to_str().expect("utf-8 temp path");
        let first = snapshot_gate(&DRIFTED, Scale::Quick, out);
        assert_has(&first, "sim.sim_cycles is");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), baseline);
        let second = snapshot_gate(&DRIFTED, Scale::Quick, out);
        assert_eq!(second, first, "a rerun fails the same way");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), baseline);
        // With no baseline, the same run is recorded as the first one.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            snapshot_gate(&DRIFTED, Scale::Quick, out),
            Vec::<String>::new()
        );
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("numa-storm/L6"));
        std::fs::remove_file(&path).unwrap();
    }
}
