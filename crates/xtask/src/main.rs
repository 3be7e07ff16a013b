//! Repo automation, `cargo xtask <command>` style:
//!
//! - `cargo xtask fmt` — the formatting gate: `cargo fmt --all -- --check`.
//! - `cargo xtask clippy` — the lint gate: `cargo clippy --all-targets`
//!   with warnings promoted to errors.
//! - `cargo xtask replay [seed]` — the determinism gate: run the chaos
//!   stress workload twice from the same seed and require byte-identical
//!   stats output. Any hidden nondeterminism (hash-map iteration order
//!   leaking into scheduling, wall-clock use, an unseeded RNG) shows up
//!   here as a diff.
//! - `cargo xtask explore [--threads N] [--out PATH]` — the
//!   model-checking gate: bounded schedule exploration of the shootdown
//!   protocols at every cumulative optimization level (zero violations
//!   expected), fanned across host cores by the sweep pool, plus a
//!   seeded-bug canary. Budgeted at 50k schedules; writes a
//!   machine-readable summary to `explore_report.json`.
//! - `cargo xtask bench [--threads N] [--out PATH] [--baseline PATH]
//!   [--tolerance F]` — the perf gate: run the calibrated bench matrix
//!   through the sweep pool, write `BENCH_1.json`, diff the
//!   deterministic sim-metric blocks *byte-exactly* against the previous
//!   snapshot and bound total wall-clock at a tolerance.
//! - `cargo xtask scalebench [--out PATH] [--baseline PATH]
//!   [--tolerance F]` — the scale-up gate behind `BENCH_2.json`: run the
//!   dual-socket 2×56-core tier in both engine configurations (timing
//!   wheel vs the pure-heap baseline) and the engine-dispatch
//!   microbenchmark, serially so the host timings are honest. Requires
//!   the tier sim blocks and dispatch stream digests to be identical
//!   across engines (the wheel is observationally equivalent) and the
//!   dispatch throughput improvement to clear its floor; then diffs the
//!   snapshot against the committed baseline like `bench` does.
//! - `cargo xtask engine [seed]` — the engine-equivalence gate: the
//!   timing-wheel and pure-heap engines must produce byte-identical
//!   state digests on a chaos-stressed machine at every cumulative
//!   optimization level, and on the scale-tier smoke configuration.
//! - `cargo xtask sweep [--threads N] [--scale quick|full] [--out PATH]`
//!   — the full figure/table matrix plus the seven explore jobs, reduced
//!   in canonical job-ID order (byte-identical for any thread count).
//! - `cargo xtask trace [--out PATH]` — the tracing gate: capture the
//!   calibrated dueling-madvise workload at every cumulative optimization
//!   level, require exact per-phase attribution (sums to end-to-end
//!   latency for every shootdown), byte-identical exports across replays
//!   and pool thread counts, Chrome trace_event schema validity with a
//!   strict-parser round-trip, and a clean compile of the kernel with
//!   tracing compiled out. Prints the paper-style "where did the cycles
//!   go" table and writes a sample `.trace.json` (opens in Perfetto).
//! - `cargo xtask storm [--threads N] [--scale quick|full]
//!   [--fabric flat|mesh] [--out PATH] [--report PATH] [--baseline PATH]
//!   [--tolerance F]` — the shootdown-storm survival gate behind
//!   `BENCH_3.json`: the SEV-Step-style adversary pack ({mild, brisk,
//!   savage} monitors × {none, ipi-drop, late-responder, combined}
//!   fault presets) run at all seven cumulative optimization levels,
//!   every cell twice. Every cell must survive — zero oracle
//!   violations, no post-drain wedge, all threads done, byte-identical
//!   seed replay — with the watchdog escalation ladder and storm
//!   detector enabled throughout. `--fabric mesh` routes every cell
//!   over the 2D mesh interconnect (the nightly variant; job IDs gain
//!   a `mesh/` segment so the snapshot never collides with the flat
//!   baseline). Prints the victim signal-observability table
//!   (fault-latency percentiles per opt level), writes
//!   `storm_report.json` with the per-cell verdicts, and diffs
//!   `BENCH_3.json` against the committed baseline like `bench` does.
//! - `cargo xtask fleet [--threads N] [--scale quick|full] [--out PATH]
//!   [--report PATH] [--baseline PATH] [--tolerance F]` — the fleet
//!   survival gate behind `BENCH_4.json`: N independent machine sims
//!   (full kernel each) behind a deterministic load balancer, crossed
//!   over machine-level fault presets ({crash, slow-machine, partition,
//!   tenant-churn}) × IPI presets ({none, ipi-drop, combined}), plus
//!   the headline tier (full scale: 1000 machines / 112k simulated
//!   cores under the combined fault mix). Every cell must survive —
//!   every request served or typed-failed, zero oracle violations,
//!   every crashed machine cold-rebooted back into service or ejected
//!   by the LB, and byte-identical replay at two thread counts. Writes
//!   `fleet_report.json` with per-cell verdicts and diffs `BENCH_4.json`
//!   against the committed baseline like `bench` does. Defaults to full
//!   scale; CI runs `--scale quick`.
//! - `cargo xtask topobench [--scale quick|full] [--out PATH]
//!   [--baseline PATH] [--tolerance F]` — the interconnect gate behind
//!   `BENCH_6.json`: the {flat, ring, mesh} × {4K-only, THP} matrix at
//!   the dual-socket 2×56 tier under the Skylake-SP set-associative TLB
//!   geometry, plus the huge-page fracture-pressure table. The whole
//!   matrix runs at two sweep-pool thread counts (byte-identical sim
//!   blocks required), every cell simulates twice (byte-identical seed
//!   replay required), ring and mesh must diverge from the flat
//!   reference, and the THP column must show real huge-page promotions
//!   and fractures; then the snapshot diffs against the committed
//!   baseline like `bench` does. Defaults to full scale.
//! - `cargo xtask ci [seed] [--gates fast|full]` — every gate above.
//!   `--gates fast` runs the PR-blocking tier (fmt, clippy, replay,
//!   engine); `--gates full` runs the long matrix gates (explore,
//!   bench, scale, topo, optbench, storm, fleet, trace); omitting the
//!   flag runs both tiers. All selected gates run even if an early one
//!   fails; a final table reports per-gate pass/fail with wall-clock,
//!   the machine-readable verdicts land in `ci_report.json` next to
//!   each crate's effective source-line count (the size trajectory,
//!   tracked like wall-clock), and the exit code is nonzero if any gate
//!   failed.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;

use tlbdown_bench::loc::effective_loc;
use tlbdown_bench::report::{diff_sim_metrics, render_bench_json, sim_blocks, total_wall_ns};
use tlbdown_bench::{
    bench_jobs, bench_matrix, full_matrix, optbench_levels, optbench_matrix, scale_matrix,
    storm_matrix, storm_matrix_mesh, topobench_matrix, Scale,
};
use tlbdown_check::gate::{
    per_level_bounds, run_canary, run_fracture_canary, run_numapte_canary, run_quarantine_canary,
    run_reuse_canary, CanaryReport, GateReport, LevelReport, DEFAULT_BUDGET,
};
use tlbdown_check::{explore_opt_level, explore_opt_level_mesh, Bounds};
use tlbdown_core::OptConfig;
use tlbdown_fleet::{run_fleet, FleetCfg, FleetFaultSpec};
use tlbdown_kernel::chaos::ChaosConfig;
use tlbdown_kernel::prog::{BusyLoopProg, MadviseLoopProg};
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_sim::fault::FaultSpec;
use tlbdown_sweep::{reduce_rendered, run_jobs, Job, Json};
use tlbdown_trace::{
    analyze, render_attribution_table, render_phase_diff, to_chrome_json, validate_chrome,
    PhaseTotals, Trace,
};
use tlbdown_types::{CoreId, Cycles};
use tlbdown_workloads::madvise::{run_scale_tier, ScaleTierCfg};

/// Maximum choices allowed in the shrunk canary counterexample.
const MAX_CANARY_CHOICES: usize = 20;

/// Shrinker trial budget for the canary.
const SHRINK_BUDGET: u64 = 2_000;

/// Default wall-clock tolerance for the perf gate: the current sweep may
/// take at most this multiple of the baseline's wall-clock. Generous,
/// because committed baselines cross hardware; the teeth of the gate are
/// the byte-exact sim-metric diff.
const DEFAULT_TOLERANCE: f64 = 3.0;

/// Minimum dispatch-throughput improvement (pure-heap wall-clock over
/// timing-wheel wall-clock on the same stream) the scale gate requires.
const MIN_DISPATCH_SPEEDUP: f64 = 2.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("fmt") => fmt(),
        Some("clippy") => clippy(),
        Some("replay") => replay(parse_seed(positional(&args, 1))),
        Some("explore") => explore_gate(
            parse_threads(&args),
            &flag(&args, "--out").unwrap_or_else(|| "explore_report.json".into()),
        ),
        Some("bench") => bench_gate(
            parse_threads(&args),
            &flag(&args, "--out").unwrap_or_else(|| "BENCH_1.json".into()),
            flag(&args, "--baseline"),
            parse_tolerance(&args),
        ),
        Some("scalebench") => scale_bench_gate(
            &flag(&args, "--out").unwrap_or_else(|| "BENCH_2.json".into()),
            flag(&args, "--baseline"),
            parse_tolerance(&args),
        ),
        Some("topobench") => topo_bench_gate(
            // The committed artifact is the 2×56 tier, so `topobench`
            // defaults to full; the reduced dispatch target keeps it
            // CI-sized (see `topo_tier`).
            match flag(&args, "--scale").as_deref() {
                None | Some("full") => Scale::Full,
                Some("quick") => Scale::Quick,
                Some(other) => {
                    eprintln!("xtask: bad --scale {other:?}, expected quick or full");
                    return ExitCode::FAILURE;
                }
            },
            &flag(&args, "--out").unwrap_or_else(|| "BENCH_6.json".into()),
            flag(&args, "--baseline"),
            parse_tolerance(&args),
        ),
        Some("optbench") => opt_bench_gate(
            // The committed BENCH_7.json is the quick-scale matrix (like
            // the storm gate, the cells are simulated twice each and the
            // gate replays the whole matrix at two thread counts, so
            // quick keeps CI wall-clock bounded).
            parse_scale(&args),
            &flag(&args, "--out").unwrap_or_else(|| "BENCH_7.json".into()),
            flag(&args, "--baseline"),
            parse_tolerance(&args),
        ),
        Some("engine") => engine_gate(parse_seed(positional(&args, 1))),
        Some("storm") => storm_gate(
            parse_threads(&args),
            parse_scale(&args),
            match flag(&args, "--fabric").as_deref() {
                None | Some("flat") => false,
                Some("mesh") => true,
                Some(other) => {
                    eprintln!("xtask: bad --fabric {other:?}, expected flat or mesh");
                    return ExitCode::FAILURE;
                }
            },
            &flag(&args, "--out").unwrap_or_else(|| "BENCH_3.json".into()),
            &flag(&args, "--report").unwrap_or_else(|| "storm_report.json".into()),
            flag(&args, "--baseline"),
            parse_tolerance(&args),
        ),
        Some("fleet") => fleet_gate(
            parse_threads(&args),
            // The headline 1000-machine tier is the point of this gate,
            // so `fleet` defaults to full; CI passes `--scale quick`.
            match flag(&args, "--scale").as_deref() {
                None | Some("full") => Scale::Full,
                Some("quick") => Scale::Quick,
                Some(other) => {
                    eprintln!("xtask: bad --scale {other:?}, expected quick or full");
                    return ExitCode::FAILURE;
                }
            },
            &flag(&args, "--out").unwrap_or_else(|| "BENCH_4.json".into()),
            &flag(&args, "--report").unwrap_or_else(|| "fleet_report.json".into()),
            flag(&args, "--baseline"),
            parse_tolerance(&args),
        ),
        Some("sweep") => sweep(
            parse_threads(&args),
            parse_scale(&args),
            flag(&args, "--out"),
        ),
        Some("trace") => {
            trace_gate(&flag(&args, "--out").unwrap_or_else(|| "sample.trace.json".into()))
        }
        Some("ci") => return ci(parse_seed(positional(&args, 1)), parse_gates(&args)),
        _ => {
            eprintln!(
                "usage: cargo xtask <fmt | clippy | replay [seed] | \
                 explore [--threads N] [--out PATH] | \
                 bench [--threads N] [--out PATH] [--baseline PATH] [--tolerance F] | \
                 scalebench [--out PATH] [--baseline PATH] [--tolerance F] | \
                 topobench [--scale quick|full] [--out PATH] [--baseline PATH] [--tolerance F] | \
                 optbench [--scale quick|full] [--out PATH] [--baseline PATH] [--tolerance F] | \
                 engine [seed] | \
                 storm [--threads N] [--scale quick|full] [--fabric flat|mesh] [--out PATH] \
                 [--report PATH] [--baseline PATH] [--tolerance F] | \
                 fleet [--threads N] [--scale quick|full] [--out PATH] [--report PATH] \
                 [--baseline PATH] [--tolerance F] | \
                 sweep [--threads N] [--scale quick|full] [--out PATH] | \
                 trace [--out PATH] | ci [seed] [--gates fast|full]>"
            );
            return ExitCode::FAILURE;
        }
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

/// The positional argument at `idx`, skipping nothing — but only if it
/// does not look like a flag.
fn positional(args: &[String], idx: usize) -> Option<&String> {
    args.get(idx).filter(|a| !a.starts_with("--"))
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

fn parse_tolerance(args: &[String]) -> f64 {
    flag(args, "--tolerance")
        .map(|s| {
            let v: f64 = s.parse().unwrap_or_else(|_| {
                eprintln!("xtask: bad --tolerance {s:?}, expected a factor like 3.0");
                std::process::exit(2);
            });
            if v < 1.0 {
                eprintln!("xtask: --tolerance must be >= 1.0");
                std::process::exit(2);
            }
            v
        })
        .unwrap_or(DEFAULT_TOLERANCE)
}

fn parse_scale(args: &[String]) -> Scale {
    match flag(args, "--scale").as_deref() {
        None | Some("quick") => Scale::Quick,
        Some("full") => Scale::Full,
        Some(other) => {
            eprintln!("xtask: bad --scale {other:?}, expected quick or full");
            std::process::exit(2);
        }
    }
}

/// Which CI tier to run: the fast PR-blocking gates, the long matrix
/// gates, or (default) both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CiGates {
    Fast,
    Full,
    All,
}

fn parse_gates(args: &[String]) -> CiGates {
    match flag(args, "--gates").as_deref() {
        None => CiGates::All,
        Some("fast") => CiGates::Fast,
        Some("full") => CiGates::Full,
        Some(other) => {
            eprintln!("xtask: bad --gates {other:?}, expected fast or full");
            std::process::exit(2);
        }
    }
}

fn parse_seed(arg: Option<&String>) -> u64 {
    arg.map(|s| {
        let s = s.trim();
        let parsed = match s.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => s.parse(),
        };
        parsed.unwrap_or_else(|_| {
            eprintln!("xtask: bad seed {s:?}, expected a u64 (decimal or 0x-hex)");
            std::process::exit(2);
        })
    })
    .unwrap_or(0x0dd5_eed5)
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

fn run_cargo(what: &str, args: &[&str]) -> bool {
    println!("xtask: cargo {}", args.join(" "));
    let status = Command::new(env!("CARGO", "run via cargo"))
        .args(args)
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
    run_cargo("fmt", &["fmt", "--all", "--", "--check"])
}

fn clippy() -> bool {
    run_cargo(
        "clippy",
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
    )
}

/// One full chaos-stress run, rendered to a canonical stats string.
fn replay_run(seed: u64) -> String {
    use std::fmt::Write as _;
    let chaos = ChaosConfig::with_fault(FaultSpec::everything(), seed);
    let mut m = Machine::new(
        KernelConfig::test_machine(4)
            .with_opts(OptConfig::general_four())
            .with_chaos(chaos),
    );
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(8, 6)));
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
    m.spawn(mm, CoreId(2), Box::new(MadviseLoopProg::new(3, 6)));
    m.spawn(mm, CoreId(3), Box::new(BusyLoopProg));
    m.run_until(Cycles::new(80_000_000));

    let mut out = String::new();
    let mut counters: Vec<(&'static str, u64)> = m.stats.counters.iter().collect();
    counters.sort_unstable();
    writeln!(out, "final_time {}", m.now().as_u64()).unwrap();
    writeln!(out, "violations {}", m.violations().len()).unwrap();
    writeln!(out, "errors {}", m.recorded_errors().len()).unwrap();
    for (k, v) in counters {
        writeln!(out, "counter {k} {v}").unwrap();
    }
    out
}

fn replay(seed: u64) -> bool {
    println!("xtask: deterministic-replay check, seed {seed:#x}");
    let a = replay_run(seed);
    let b = replay_run(seed);
    if a == b {
        println!(
            "xtask: replay OK — {} stats lines byte-identical across two runs",
            a.lines().count()
        );
        true
    } else {
        eprintln!("xtask: REPLAY DIVERGED — same seed produced different stats:");
        for (la, lb) in a.lines().zip(b.lines()) {
            if la != lb {
                eprintln!("  run1: {la}");
                eprintln!("  run2: {lb}");
            }
        }
        false
    }
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

fn print_canary(name: &str, c: &CanaryReport) {
    if !c.fifo_safe {
        eprintln!(
            "xtask: {name} canary drifted — the seeded bug fails under FIFO \
             (should need exploration)"
        );
        return;
    }
    if !c.caught {
        eprintln!("xtask: CANARY FAILED — exploration missed the seeded {name} bug");
        return;
    }
    if c.shrunk_choices > MAX_CANARY_CHOICES {
        eprintln!(
            "xtask: CANARY FAILED — {name} shrunk schedule has {} choices \
             (> {MAX_CANARY_CHOICES}): {}",
            c.shrunk_choices, c.schedule
        );
    }
    if !c.replay_ok {
        eprintln!(
            "xtask: CANARY FAILED — {name} minimized schedule no longer violates or diverged"
        );
    }
    if !c.safe_clean {
        eprintln!("xtask: correct {name} check violated under exploration");
    }
    if c.pass(MAX_CANARY_CHOICES) {
        println!(
            "xtask: {name} canary OK — seeded bug caught in {} schedules, shrunk to {} choices \
             ({} trials), replays byte-identically; correct check clean in {} schedules",
            c.caught_in_schedules, c.shrunk_choices, c.shrink_trials, c.safe_schedules
        );
    }
}

/// The model-checking gate: per-level explorations (flat and mesh, all
/// of [`OptConfig::all_levels`]) fanned across the sweep pool, the
/// seeded-bug canaries, a budget check, and a machine-readable report
/// written to `out`.
fn explore_gate(threads: usize, out: &str) -> bool {
    let per_level = per_level_bounds();
    println!(
        "xtask: bounded schedule exploration, budget {DEFAULT_BUDGET} schedules \
         (preemption bound {}, window {} cycles)",
        per_level.preemption_bound,
        per_level.window.as_u64()
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
    let canary = run_canary(&Bounds::default(), SHRINK_BUDGET);
    print_canary("buggy_nmi_check", &canary);
    let quarantine_canary = run_quarantine_canary(&Bounds::default(), SHRINK_BUDGET);
    print_canary("buggy_quarantine", &quarantine_canary);
    let fracture_canary = run_fracture_canary(&Bounds::default(), SHRINK_BUDGET);
    print_canary("buggy_fracture", &fracture_canary);
    let reuse_skip_canary = run_reuse_canary(&Bounds::default(), SHRINK_BUDGET);
    print_canary("buggy_reuse_skip", &reuse_skip_canary);
    let numapte_canary = run_numapte_canary(&Bounds::default(), SHRINK_BUDGET);
    print_canary("buggy_numapte", &numapte_canary);
    let spent = levels.iter().map(|l| l.schedules).sum::<u64>()
        + mesh_levels.iter().map(|l| l.schedules).sum::<u64>()
        + canary.spent
        + quarantine_canary.spent
        + fracture_canary.spent
        + reuse_skip_canary.spent
        + numapte_canary.spent;
    let gate = GateReport {
        budget: DEFAULT_BUDGET,
        spent,
        threads: sweep.threads,
        levels,
        mesh_levels,
        canary,
        quarantine_canary,
        fracture_canary,
        reuse_skip_canary,
        numapte_canary,
        max_canary_choices: MAX_CANARY_CHOICES,
    };
    if let Err(e) = std::fs::write(out, gate.to_json().render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!(
        "xtask: wrote {out} ({} levels, {} threads, {:.0?} wall)",
        gate.levels.len(),
        sweep.threads,
        sweep.elapsed
    );
    if spent > DEFAULT_BUDGET {
        eprintln!("xtask: BUDGET EXCEEDED — {spent} schedules > {DEFAULT_BUDGET}");
    }
    if gate.pass() {
        println!("xtask: explore OK — {spent} of {DEFAULT_BUDGET} schedule budget used");
    }
    gate.pass()
}

/// The perf gate: run the calibrated bench matrix through the sweep
/// pool, write a `BENCH_*.json` snapshot, diff the deterministic sim
/// metrics byte-exactly against the previous one and bound wall-clock.
fn bench_gate(threads: usize, out: &str, baseline: Option<String>, tolerance: f64) -> bool {
    let jobs = bench_jobs(bench_matrix());
    println!("xtask: perf sweep — {} jobs", jobs.len());
    let sweep = run_jobs(jobs, threads);
    let doc = render_bench_json(&sweep, &git_rev());
    println!(
        "xtask: {} jobs on {} threads in {:.2?} (serial estimate {:.2?}, speedup {:.2}x)",
        sweep.results.len(),
        sweep.threads,
        sweep.elapsed,
        sweep.serial_estimate(),
        sweep.speedup_vs_serial()
    );

    // Diff against the previous snapshot (explicit --baseline, else the
    // file we are about to overwrite).
    let baseline_path = baseline.unwrap_or_else(|| out.to_string());
    let mut ok = true;
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => {
            match Json::parse(&text) {
                Ok(base) => ok = gate_against_baseline(&doc, &base, &baseline_path, tolerance),
                Err(e) => {
                    eprintln!("xtask: baseline {baseline_path} is not valid JSON ({e}) — PERF GATE FAILED");
                    ok = false;
                }
            }
        }
        Err(_) => {
            println!("xtask: no baseline at {baseline_path} — recording first snapshot");
        }
    }

    if let Err(e) = std::fs::write(out, doc.render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!("xtask: wrote {out}");
    if ok {
        println!("xtask: bench OK");
    }
    ok
}

fn gate_against_baseline(doc: &Json, base: &Json, path: &str, tolerance: f64) -> bool {
    let diff = diff_sim_metrics(doc, base);
    let mut ok = true;
    for id in &diff.added {
        println!("xtask: new job (no baseline metrics): {id}");
    }
    for id in &diff.removed {
        println!("xtask: job removed from matrix: {id}");
    }
    if !diff.metrics_match() {
        eprintln!(
            "xtask: PERF GATE FAILED — deterministic sim metrics drifted vs {path} for {} job(s):",
            diff.changed.len()
        );
        for c in &diff.changed {
            eprintln!(
                "xtask:   {}: {} is {} (baseline {})",
                c.id, c.path, c.current, c.baseline
            );
        }
        eprintln!(
            "xtask: a sim-metric diff is a behavioural change; if intentional, delete {path} to re-baseline"
        );
        ok = false;
    } else {
        println!(
            "xtask: sim metrics byte-identical to {path} across {} common job(s)",
            doc.get("jobs")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len)
                - diff.added.len()
        );
    }
    match (total_wall_ns(doc), total_wall_ns(base)) {
        (Some(cur), Some(prev)) if prev > 0 => {
            let ratio = cur as f64 / prev as f64;
            if ratio > tolerance {
                eprintln!(
                    "xtask: PERF GATE FAILED — wall-clock {:.2?} is {ratio:.2}x the baseline's \
                     {:.2?} (tolerance {tolerance:.1}x)",
                    Duration::from_nanos(cur),
                    Duration::from_nanos(prev)
                );
                ok = false;
            } else {
                println!(
                    "xtask: wall-clock {:.2?} vs baseline {:.2?} ({ratio:.2}x, tolerance {tolerance:.1}x)",
                    Duration::from_nanos(cur),
                    Duration::from_nanos(prev)
                );
            }
        }
        _ => println!("xtask: baseline has no wall-clock totals; skipping the time bound"),
    }
    ok
}

/// A `u64` field of one job's host block, if present.
fn host_u64(doc: &Json, id: &str, key: &str) -> Option<u64> {
    doc.get("jobs")?
        .as_arr()?
        .iter()
        .find(|j| j.get("id").and_then(Json::as_str) == Some(id))?
        .get("host")?
        .get(key)?
        .as_u64()
}

/// The scale-up gate behind `BENCH_2.json`: the 2×56-core tier under
/// both engines plus the dispatch microbenchmark, run serially so the
/// host timings are honest. Two checks before the baseline diff: the
/// tier's sim blocks must be byte-identical across engines (the
/// dispatch job asserts its own stream-digest equality internally), and
/// the wheel must clear the dispatch throughput floor over the
/// allocating pure-heap baseline.
fn scale_bench_gate(out: &str, baseline: Option<String>, tolerance: f64) -> bool {
    let jobs = bench_jobs(scale_matrix(Scale::Full));
    println!(
        "xtask: scale sweep — {} jobs, serial (host-timing fidelity)",
        jobs.len()
    );
    let sweep = run_jobs(jobs, 1);
    let mut doc = render_bench_json(&sweep, &git_rev());
    let mut ok = true;

    let blocks = sim_blocks(&doc);
    let mut identical = |kind: &str, a: &str, b: &str| match (blocks.get(a), blocks.get(b)) {
        (Some(x), Some(y)) if x == y => {
            println!("xtask: {kind} sim metrics byte-identical across engines");
        }
        (Some(_), Some(_)) => {
            eprintln!("xtask: SCALE GATE FAILED — {kind} sim metrics differ between {a} and {b}");
            ok = false;
        }
        _ => {
            eprintln!("xtask: SCALE GATE FAILED — {kind} jobs missing from the sweep");
            ok = false;
        }
    };
    identical(
        "scale tier",
        "scale/full/2x56-heap",
        "scale/full/2x56-wheel",
    );

    match (
        host_u64(&doc, "engine/full/dispatch", "heap_ns"),
        host_u64(&doc, "engine/full/dispatch", "wheel_ns"),
    ) {
        (Some(heap), Some(wheel)) if wheel > 0 => {
            let speedup = heap as f64 / wheel as f64;
            doc = doc.with("dispatch_speedup", Json::F64(speedup));
            if speedup >= MIN_DISPATCH_SPEEDUP {
                println!(
                    "xtask: dispatch speedup {speedup:.2}x — heap {:.2?} vs wheel {:.2?} \
                     (floor {MIN_DISPATCH_SPEEDUP:.1}x)",
                    Duration::from_nanos(heap),
                    Duration::from_nanos(wheel)
                );
            } else {
                eprintln!(
                    "xtask: SCALE GATE FAILED — dispatch speedup {speedup:.2}x is below the \
                     {MIN_DISPATCH_SPEEDUP:.1}x floor (heap {:.2?}, wheel {:.2?})",
                    Duration::from_nanos(heap),
                    Duration::from_nanos(wheel)
                );
                ok = false;
            }
        }
        _ => {
            eprintln!("xtask: SCALE GATE FAILED — dispatch host timings missing");
            ok = false;
        }
    }

    let baseline_path = baseline.unwrap_or_else(|| out.to_string());
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Json::parse(&text) {
            Ok(base) => ok &= gate_against_baseline(&doc, &base, &baseline_path, tolerance),
            Err(e) => {
                eprintln!(
                    "xtask: baseline {baseline_path} is not valid JSON ({e}) — SCALE GATE FAILED"
                );
                ok = false;
            }
        },
        Err(_) => println!("xtask: no baseline at {baseline_path} — recording first snapshot"),
    }

    if let Err(e) = std::fs::write(out, doc.render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!("xtask: wrote {out}");
    if ok {
        println!("xtask: scalebench OK");
    }
    ok
}

/// A `u64` field of one job's deterministic sim block, if present.
fn sim_u64(doc: &Json, id: &str, key: &str) -> Option<u64> {
    doc.get("jobs")?
        .as_arr()?
        .iter()
        .find(|j| j.get("id").and_then(Json::as_str) == Some(id))?
        .get("sim")?
        .get(key)?
        .as_u64()
}

/// The interconnect gate behind `BENCH_6.json`: the topobench matrix —
/// {flat, ring, mesh} × {4K-only, THP} at the dual-socket 2×56 tier
/// under the Skylake-SP TLB geometry, plus the huge-page
/// fracture-pressure table — with four checks before the baseline diff:
/// the whole matrix is run at two sweep-pool thread counts and the
/// deterministic sim blocks must be byte-identical between the runs;
/// every cell's internal seed replay (each cell simulates twice) must be
/// green; the flat cells must be byte-identical to the pre-topology
/// scale tier in spirit — i.e. ring and mesh must *diverge* from flat
/// (a routed interconnect that changes nothing is a wiring bug); and
/// the THP column must actually promote and fracture huge pages.
fn topo_bench_gate(scale: Scale, out: &str, baseline: Option<String>, tolerance: f64) -> bool {
    let jobs = bench_jobs(topobench_matrix(scale));
    println!(
        "xtask: topo sweep — {} cells at {} scale, every cell simulated twice, \
         matrix replayed at 1 and 2 pool threads",
        jobs.len(),
        scale.label()
    );
    let sweep = run_jobs(jobs, 1);
    let doc = render_bench_json(&sweep, &git_rev());
    let sweep2 = run_jobs(bench_jobs(topobench_matrix(scale)), 2);
    let doc2 = render_bench_json(&sweep2, &git_rev());
    let mut ok = true;

    if !sweep.failures.is_empty() || !sweep2.failures.is_empty() {
        for f in sweep.failures.iter().chain(&sweep2.failures) {
            eprintln!(
                "xtask: TOPO GATE FAILED — job {} panicked: {}",
                f.id, f.message
            );
        }
        ok = false;
    }

    // Check 1: thread invariance — the deterministic sim blocks of the
    // two pool runs, byte for byte.
    if sim_blocks(&doc) == sim_blocks(&doc2) {
        println!(
            "xtask: thread invariance OK — {} sim blocks byte-identical at 1 and 2 pool threads",
            sweep.results.len()
        );
    } else {
        eprintln!("xtask: TOPO GATE FAILED — sim blocks differ between 1 and 2 pool threads");
        ok = false;
    }

    // Check 2: every cell's internal seed replay.
    let s = scale.label();
    for r in &sweep.results {
        if r.id.ends_with("/fracture") {
            continue;
        }
        match sim_u64(&doc, &r.id, "replay_ok") {
            Some(1) => {}
            other => {
                eprintln!(
                    "xtask: TOPO GATE FAILED — {}: seed replay diverged (replay_ok = {other:?})",
                    r.id
                );
                ok = false;
            }
        }
    }
    if ok {
        println!("xtask: seed replay OK — every topology cell byte-identical across its two runs");
    }

    // Check 3: the routed interconnects must diverge from flat. Same
    // workload, same seed — only the link model differs, so identical
    // digests would mean the topology is not actually routing anything.
    for pages in ["4k", "thp"] {
        let flat = sim_u64(&doc, &format!("topo/{s}/flat/{pages}"), "state_digest");
        for topo in ["ring", "mesh"] {
            let routed = sim_u64(&doc, &format!("topo/{s}/{topo}/{pages}"), "state_digest");
            match (flat, routed) {
                (Some(f), Some(r)) if f != r => {}
                (Some(f), Some(r)) => {
                    eprintln!(
                        "xtask: TOPO GATE FAILED — {topo}/{pages} digest {r:016x} equals \
                         flat's {f:016x}: the routed interconnect changed nothing"
                    );
                    ok = false;
                }
                _ => {
                    eprintln!("xtask: TOPO GATE FAILED — {topo}/{pages} cells missing digests");
                    ok = false;
                }
            }
        }
    }
    if ok {
        println!("xtask: divergence OK — ring and mesh digests differ from flat in both columns");
    }

    // Check 4: the fracture-pressure table must show the THP lifecycle.
    let frac = format!("topo/{s}/fracture");
    let promotes = sim_u64(&doc, &frac, "thp_thp_promote").unwrap_or(0);
    let splits = sim_u64(&doc, &frac, "thp_thp_split").unwrap_or(0);
    if promotes > 0 && splits > 0 {
        println!(
            "xtask: fracture pressure OK — {promotes} huge-page promotions, {splits} fractures \
             in the THP column"
        );
    } else {
        eprintln!(
            "xtask: TOPO GATE FAILED — fracture table shows {promotes} promotions / \
             {splits} splits; the THP churn never exercised the huge-page lifecycle"
        );
        ok = false;
    }

    for r in &sweep.results {
        print!(
            "xtask:   {}",
            r.output.1.rendered.replace('\n', "\nxtask:   ")
        );
        println!();
    }

    // Diff against the committed snapshot. Job IDs are scale-prefixed,
    // so (like the fleet gate) a quick run must not clobber the
    // committed full cells: baseline jobs this run didn't produce are
    // carried over verbatim and the wall-clock bound is skipped when
    // anything was carried.
    let baseline_path = baseline.unwrap_or_else(|| out.to_string());
    let mut carried: Vec<Json> = Vec::new();
    let mut doc = doc;
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Json::parse(&text) {
            Ok(base) => {
                let produced: Vec<&str> = sweep.results.iter().map(|r| r.id.as_str()).collect();
                let mut same_scale: Vec<Json> = Vec::new();
                if let Some(base_jobs) = base.get("jobs").and_then(Json::as_arr) {
                    for j in base_jobs {
                        let id = j.get("id").and_then(Json::as_str);
                        if id.is_some_and(|id| produced.contains(&id)) {
                            same_scale.push(j.clone());
                        } else {
                            carried.push(j.clone());
                        }
                    }
                }
                let base_cmp = if carried.is_empty() {
                    base
                } else {
                    Json::obj().with("jobs", Json::Arr(same_scale))
                };
                ok &= gate_against_baseline(&doc, &base_cmp, &baseline_path, tolerance);
            }
            Err(e) => {
                eprintln!(
                    "xtask: baseline {baseline_path} is not valid JSON ({e}) — TOPO GATE FAILED"
                );
                ok = false;
            }
        },
        Err(_) => println!("xtask: no baseline at {baseline_path} — recording first snapshot"),
    }
    if !carried.is_empty() {
        let mut all_jobs: Vec<Json> = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default();
        all_jobs.extend(carried);
        all_jobs.sort_by(|a, b| {
            a.get("id")
                .and_then(Json::as_str)
                .cmp(&b.get("id").and_then(Json::as_str))
        });
        doc = doc.with("jobs", Json::Arr(all_jobs));
    }

    if let Err(e) = std::fs::write(out, doc.render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!("xtask: wrote {out}");
    if ok {
        println!("xtask: topobench OK");
    }
    ok
}

/// The follow-on-level gate behind `BENCH_7.json`: the optbench matrix
/// — reuse-churn in both window shapes and the cross-socket AutoNUMA
/// migration storm at both balancer intensities, each at L6 (the full
/// paper stack, the control column), L7 (+reuse-skip) and L8
/// (+numa-pte) — with four checks before the baseline diff: the whole
/// matrix runs at two sweep-pool thread counts and the deterministic
/// sim blocks must be byte-identical between the runs; every cell's
/// internal seed replay (each cell simulates twice) must be green; the
/// window-fitting reuse cell must actually elide shootdowns at L7
/// (hits > 0, fewer shootdowns than L6) while the control keeps the
/// window dark; and the migration-storm cell must sync page-table
/// replicas at L8 and only there — with every storm cell surviving
/// (zero violations, no wedge, all threads done).
fn opt_bench_gate(scale: Scale, out: &str, baseline: Option<String>, tolerance: f64) -> bool {
    let jobs = bench_jobs(optbench_matrix(scale));
    println!(
        "xtask: optbench sweep — {} cells at {} scale, every cell simulated twice, \
         matrix replayed at 1 and 2 pool threads",
        jobs.len(),
        scale.label()
    );
    let sweep = run_jobs(jobs, 1);
    let doc = render_bench_json(&sweep, &git_rev());
    let sweep2 = run_jobs(bench_jobs(optbench_matrix(scale)), 2);
    let doc2 = render_bench_json(&sweep2, &git_rev());
    let mut ok = true;

    if !sweep.failures.is_empty() || !sweep2.failures.is_empty() {
        for f in sweep.failures.iter().chain(&sweep2.failures) {
            eprintln!(
                "xtask: OPTBENCH GATE FAILED — job {} panicked: {}",
                f.id, f.message
            );
        }
        ok = false;
    }

    // Check 1: thread invariance — the deterministic sim blocks of the
    // two pool runs, byte for byte.
    if sim_blocks(&doc) == sim_blocks(&doc2) {
        println!(
            "xtask: thread invariance OK — {} sim blocks byte-identical at 1 and 2 pool threads",
            sweep.results.len()
        );
    } else {
        eprintln!("xtask: OPTBENCH GATE FAILED — sim blocks differ between 1 and 2 pool threads");
        ok = false;
    }

    // Check 2: every cell's internal seed replay.
    let s = scale.label();
    for r in &sweep.results {
        match sim_u64(&doc, &r.id, "replay_ok") {
            Some(1) => {}
            other => {
                eprintln!(
                    "xtask: OPTBENCH GATE FAILED — {}: seed replay diverged (replay_ok = {other:?})",
                    r.id
                );
                ok = false;
            }
        }
    }
    if ok {
        println!("xtask: seed replay OK — every follow-on cell byte-identical across its two runs");
    }

    // Check 3: reuse-skip teeth. The window-fitting churn at L7 must
    // elide real shootdowns against the L6 control, and the control
    // must keep the window completely dark — a hit below level 7 would
    // mean the level switch leaks.
    let control_id = format!("opt/{s}/reuse/fitting/L{}", OptConfig::PAPER_MAX_LEVEL);
    let reuse_id = format!("opt/{s}/reuse/fitting/L{}", OptConfig::PAPER_MAX_LEVEL + 1);
    let control_sd = sim_u64(&doc, &control_id, "shootdowns");
    let reuse_sd = sim_u64(&doc, &reuse_id, "shootdowns");
    let control_hits = sim_u64(&doc, &control_id, "reuse_hits");
    let reuse_hits = sim_u64(&doc, &reuse_id, "reuse_hits");
    match (control_sd, reuse_sd, control_hits, reuse_hits) {
        (Some(c), Some(r), Some(0), Some(h)) if r < c && h > 0 => {
            println!(
                "xtask: reuse-skip OK — fitting churn: {c} shootdowns at L6 vs {r} at L7 \
                 ({h} window hits)"
            );
        }
        other => {
            eprintln!(
                "xtask: OPTBENCH GATE FAILED — reuse-skip teeth: \
                 (L6 shootdowns, L7 shootdowns, L6 hits, L7 hits) = {other:?}, \
                 expected L7 < L6 with L6 hits = 0 and L7 hits > 0"
            );
            ok = false;
        }
    }

    // Check 4: numaPTE teeth and survival. The cross-socket migration
    // storm must sync replicas at L8 and only there, and every cell of
    // the storm column must survive.
    let numa_control = format!("opt/{s}/numa/numa-storm/L{}", OptConfig::PAPER_MAX_LEVEL);
    let numa_id = format!("opt/{s}/numa/numa-storm/L{}", OptConfig::MAX_LEVEL);
    match (
        sim_u64(&doc, &numa_control, "replica_syncs"),
        sim_u64(&doc, &numa_id, "replica_syncs"),
    ) {
        (Some(0), Some(r)) if r > 0 => {
            println!("xtask: numaPTE OK — {r} replica syncs at L8, none below");
        }
        other => {
            eprintln!(
                "xtask: OPTBENCH GATE FAILED — numaPTE teeth: \
                 (L6 replica syncs, L8 replica syncs) = {other:?}, expected (0, > 0)"
            );
            ok = false;
        }
    }
    for level in optbench_levels() {
        for intensity in ["periodic", "numa-storm"] {
            let id = format!("opt/{s}/numa/{intensity}/L{level}");
            let survived = sim_u64(&doc, &id, "violations") == Some(0)
                && sim_u64(&doc, &id, "wedged") == Some(0)
                && sim_u64(&doc, &id, "threads_done") == Some(1);
            if !survived {
                eprintln!("xtask: OPTBENCH GATE FAILED — {id} did not survive the storm");
                ok = false;
            }
        }
    }
    if ok {
        println!("xtask: survival OK — every migration-storm cell clean at all three levels");
    }

    for r in &sweep.results {
        print!(
            "xtask:   {}",
            r.output.1.rendered.replace('\n', "\nxtask:   ")
        );
        println!();
    }

    // Diff against the committed snapshot. Job IDs are scale-prefixed,
    // so (like the topo gate) a full run must not clobber the committed
    // quick cells: baseline jobs this run didn't produce are carried
    // over verbatim and the wall-clock bound is skipped when anything
    // was carried.
    let baseline_path = baseline.unwrap_or_else(|| out.to_string());
    let mut carried: Vec<Json> = Vec::new();
    let mut doc = doc;
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Json::parse(&text) {
            Ok(base) => {
                let produced: Vec<&str> = sweep.results.iter().map(|r| r.id.as_str()).collect();
                let mut same_scale: Vec<Json> = Vec::new();
                if let Some(base_jobs) = base.get("jobs").and_then(Json::as_arr) {
                    for j in base_jobs {
                        let id = j.get("id").and_then(Json::as_str);
                        if id.is_some_and(|id| produced.contains(&id)) {
                            same_scale.push(j.clone());
                        } else {
                            carried.push(j.clone());
                        }
                    }
                }
                let base_cmp = if carried.is_empty() {
                    base
                } else {
                    Json::obj().with("jobs", Json::Arr(same_scale))
                };
                ok &= gate_against_baseline(&doc, &base_cmp, &baseline_path, tolerance);
            }
            Err(e) => {
                eprintln!(
                    "xtask: baseline {baseline_path} is not valid JSON ({e}) — \
                     OPTBENCH GATE FAILED"
                );
                ok = false;
            }
        },
        Err(_) => println!("xtask: no baseline at {baseline_path} — recording first snapshot"),
    }
    if !carried.is_empty() {
        let mut all_jobs: Vec<Json> = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default();
        all_jobs.extend(carried);
        all_jobs.sort_by(|a, b| {
            a.get("id")
                .and_then(Json::as_str)
                .cmp(&b.get("id").and_then(Json::as_str))
        });
        doc = doc.with("jobs", Json::Arr(all_jobs));
    }

    if let Err(e) = std::fs::write(out, doc.render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!("xtask: wrote {out}");
    if ok {
        println!("xtask: optbench OK");
    }
    ok
}

/// One chaos-stressed machine run for the engine-equivalence gate.
fn engine_gate_run(level: usize, seed: u64, heap_only: bool) -> (u64, u64, usize, usize) {
    let chaos = ChaosConfig::with_fault(FaultSpec::everything(), seed);
    let mut m = Machine::new(
        KernelConfig::test_machine(4)
            .with_opts(OptConfig::cumulative(level))
            .with_chaos(chaos)
            .with_heap_only_engine(heap_only),
    );
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(8, 6)));
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
    m.spawn(mm, CoreId(2), Box::new(MadviseLoopProg::new(3, 6)));
    m.spawn(mm, CoreId(3), Box::new(BusyLoopProg));
    m.run_until(Cycles::new(10_000_000));
    (
        m.state_digest(),
        m.now().as_u64(),
        m.violations().len(),
        m.recorded_errors().len(),
    )
}

/// The engine-equivalence gate: the timing-wheel and pure-heap engines
/// must be observationally identical — same state digest, final time,
/// violation and error counts — on a chaos-stressed machine at every
/// cumulative optimization level, and on the scale-tier smoke
/// configuration.
fn engine_gate(seed: u64) -> bool {
    println!("xtask: engine-equivalence check, seed {seed:#x}");
    let mut ok = true;
    for (level, _, _) in OptConfig::all_levels() {
        let level = level as usize;
        let wheel = engine_gate_run(level, seed, false);
        let heap = engine_gate_run(level, seed, true);
        if wheel != heap {
            eprintln!(
                "xtask: ENGINE GATE FAILED — level {level}: wheel \
                 (digest {:016x}, t {}, {} violations, {} errors) != heap \
                 (digest {:016x}, t {}, {} violations, {} errors)",
                wheel.0, wheel.1, wheel.2, wheel.3, heap.0, heap.1, heap.2, heap.3
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "xtask: engine OK — chaos-run state digests byte-identical across engines \
             at all {} opt levels",
            OptConfig::NUM_LEVELS
        );
    }
    let tier = |heap_only: bool| {
        let mut cfg = ScaleTierCfg::smoke();
        cfg.heap_only_engine = heap_only;
        let r = run_scale_tier(&cfg).expect("engine gate: scale-tier smoke runs clean");
        (r.digest, r.events, r.sim_cycles)
    };
    let (wheel, heap) = (tier(false), tier(true));
    if wheel == heap {
        println!(
            "xtask: engine OK — scale-tier smoke digest {:016x} identical across engines",
            wheel.0
        );
    } else {
        eprintln!(
            "xtask: ENGINE GATE FAILED — scale-tier smoke diverged: \
             wheel {wheel:?} vs heap {heap:?}"
        );
        ok = false;
    }
    ok
}

/// Optimization levels every storm cell runs at (L0..L6 cumulative).
/// Pinned to the paper's levels: the cells' rendered sim blocks back the
/// committed storm/bench baselines, so follow-on levels (L7/L8) are
/// exercised by the explore and trace gates instead.
const STORM_LEVELS: usize = OptConfig::PAPER_NUM_LEVELS;

/// Per-level survival requirements, as (metric suffix, required value)
/// pairs read from each storm cell's deterministic sim block.
const STORM_SURVIVAL: [(&str, u64); 4] = [
    ("violations", 0),
    ("wedged", 0),
    ("threads_done", 1),
    ("replay_ok", 1),
];

/// The victim signal-observability table: fault-latency percentile
/// upper bounds per opt level, one column group per storm intensity,
/// read from the fault-free cells (the clean side-channel signal the
/// optimization levels reshape). This is the table EXPERIMENTS.md
/// records.
fn render_storm_signal_table(cells: &[(String, Json)], scale: Scale, mesh: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let intensities = ["mild", "brisk", "savage"];
    let seg = if mesh { "mesh/" } else { "" };
    write!(out, "{:<6}", "level").unwrap();
    for i in &intensities {
        write!(out, "  {i:>7} p50/p90/p99 (n)     ").unwrap();
    }
    out.push('\n');
    for level in 0..STORM_LEVELS {
        write!(out, "L{level:<5}").unwrap();
        for i in &intensities {
            let id = format!("storm/{}/{seg}{i}/none", scale.label());
            let sim = cells.iter().find(|(cid, _)| cid == &id).map(|(_, s)| s);
            let get = |k: &str| {
                sim.and_then(|s| s.get(&format!("L{level}_{k}")))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            write!(
                out,
                "  {:>7}/{:>6}/{:>7} ({:>5})",
                get("fault_p50"),
                get("fault_p90"),
                get("fault_p99"),
                get("victim_faults")
            )
            .unwrap();
        }
        out.push('\n');
    }
    out
}

/// The shootdown-storm survival gate behind `BENCH_3.json`: run the
/// storm matrix (intensity × fault preset, L0..L6 inside each cell,
/// every level twice) through the sweep pool, require every cell to
/// survive — zero violations, no wedge, threads done, byte-identical
/// replay — print the signal-observability table, write the per-cell
/// verdicts to `report_out`, and diff the snapshot against the
/// committed baseline like `bench` does.
fn storm_gate(
    threads: usize,
    scale: Scale,
    mesh: bool,
    out: &str,
    report_out: &str,
    baseline: Option<String>,
    tolerance: f64,
) -> bool {
    let jobs = bench_jobs(if mesh {
        storm_matrix_mesh(scale)
    } else {
        storm_matrix(scale)
    });
    let fabric = if mesh { "mesh" } else { "flat" };
    println!(
        "xtask: storm survival matrix ({fabric} fabric) — {} cells × {STORM_LEVELS} opt levels, \
         every cell run twice",
        jobs.len()
    );
    let sweep = run_jobs(jobs, threads);
    let doc = render_bench_json(&sweep, &git_rev());
    println!(
        "xtask: {} cells on {} threads in {:.2?} (serial estimate {:.2?}, speedup {:.2}x)",
        sweep.results.len(),
        sweep.threads,
        sweep.elapsed,
        sweep.serial_estimate(),
        sweep.speedup_vs_serial()
    );

    let cells: Vec<(String, Json)> = sweep
        .results
        .iter()
        .map(|r| (r.id.clone(), r.output.1.metrics.to_json()))
        .collect();

    // Survival: every requirement at every level of every cell.
    let mut ok = true;
    let mut cell_reports = Vec::new();
    for (id, sim) in &cells {
        let mut cell_ok = true;
        for level in 0..STORM_LEVELS {
            for (key, want) in STORM_SURVIVAL {
                let got = sim
                    .get(&format!("L{level}_{key}"))
                    .and_then(Json::as_u64)
                    .unwrap_or(u64::MAX);
                if got != want {
                    eprintln!(
                        "xtask: STORM GATE FAILED — {id} L{level}: {key} = {got} (want {want})"
                    );
                    cell_ok = false;
                }
            }
            // The storm is only an adversary if the victim observes it.
            let faults = sim
                .get(&format!("L{level}_victim_faults"))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if faults == 0 {
                eprintln!(
                    "xtask: STORM GATE FAILED — {id} L{level}: victim took no \
                     write-protect faults (storm produced no signal)"
                );
                cell_ok = false;
            }
        }
        cell_reports.push(
            Json::obj()
                .with("id", Json::Str(id.clone()))
                .with("pass", Json::Bool(cell_ok)),
        );
        ok &= cell_ok;
    }
    if ok {
        println!(
            "xtask: survival OK — {} cells × {STORM_LEVELS} levels: zero violations, \
             no wedge, all threads done, byte-identical replay",
            cells.len()
        );
    }

    let signal_table = render_storm_signal_table(&cells, scale, mesh);
    println!("xtask: victim fault-latency signal (fault preset none), percentile upper bounds in cycles:");
    print!("{signal_table}");

    let report = Json::obj()
        .with("schema_version", Json::U64(1))
        .with("git_rev", Json::Str(git_rev()))
        .with("scale", Json::Str(scale.label().into()))
        .with("fabric", Json::Str(fabric.into()))
        .with("levels", Json::U64(STORM_LEVELS as u64))
        .with("pass", Json::Bool(ok))
        .with("cells", Json::Arr(cell_reports))
        .with("signal_table", Json::Str(signal_table));
    if let Err(e) = std::fs::write(report_out, report.render_pretty()) {
        eprintln!("xtask: could not write {report_out}: {e}");
        return false;
    }
    println!("xtask: wrote {report_out}");

    let baseline_path = baseline.unwrap_or_else(|| out.to_string());
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Json::parse(&text) {
            Ok(base) => ok &= gate_against_baseline(&doc, &base, &baseline_path, tolerance),
            Err(e) => {
                eprintln!(
                    "xtask: baseline {baseline_path} is not valid JSON ({e}) — STORM GATE FAILED"
                );
                ok = false;
            }
        },
        Err(_) => println!("xtask: no baseline at {baseline_path} — recording first snapshot"),
    }

    if let Err(e) = std::fs::write(out, doc.render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!("xtask: wrote {out}");
    if ok {
        println!("xtask: storm OK");
    }
    ok
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

/// The fleet survival gate behind `BENCH_4.json`: run every cell of the
/// machine-fault × IPI-fault matrix plus the headline tier (full scale:
/// 1000 machines, 112k simulated cores), require every cell to survive
/// — total request accounting, zero oracle violations, every crashed
/// machine recovered or ejected, byte-identical replay at two thread
/// counts — write the per-cell verdicts to `report_out`, and diff the
/// snapshot against the committed baseline like `bench` does.
fn fleet_gate(
    threads: usize,
    scale: Scale,
    out: &str,
    report_out: &str,
    baseline: Option<String>,
    tolerance: f64,
) -> bool {
    let cells = fleet_cells(scale);
    let threads_a = tlbdown_sweep::resolve_threads(threads);
    let threads_b = if threads_a == 1 { 2 } else { 1 };
    println!(
        "xtask: fleet survival matrix — {} cells, every cell replayed at {} and {} threads",
        cells.len(),
        threads_a,
        threads_b
    );
    let start = std::time::Instant::now();
    let mut ok = true;
    let mut jobs_json = Vec::new();
    let mut cell_reports = Vec::new();
    let mut serial = Duration::ZERO;
    for (id, cfg) in &cells {
        let cell_start = std::time::Instant::now();
        let (run, replay_match) = match run_fleet(cfg, threads_a) {
            Ok(a) => match run_fleet(cfg, threads_b) {
                Ok(b) => {
                    let matched = a.sim_json().render() == b.sim_json().render();
                    (Some(a), matched)
                }
                Err(e) => {
                    eprintln!("xtask: FLEET GATE FAILED — {id} replay run: {e}");
                    (Some(a), false)
                }
            },
            Err(e) => {
                eprintln!("xtask: FLEET GATE FAILED — {id}: {e}");
                (None, false)
            }
        };
        let wall = cell_start.elapsed();
        serial += wall;
        let Some(r) = run else {
            ok = false;
            cell_reports.push(
                Json::obj()
                    .with("id", Json::Str(id.clone()))
                    .with("pass", Json::Bool(false)),
            );
            continue;
        };
        let mut cell_ok = replay_match;
        if !replay_match {
            eprintln!(
                "xtask: FLEET GATE FAILED — {id}: replay diverged between \
                 {threads_a} and {threads_b} threads"
            );
        }
        for (name, verdict) in [
            ("fully_accounted", r.fully_accounted),
            ("zero_violations", r.zero_violations),
            (
                "crashed_recovered_or_ejected",
                r.crashed_recovered_or_ejected,
            ),
        ] {
            if !verdict {
                eprintln!("xtask: FLEET GATE FAILED — {id}: {name} is false");
                cell_ok = false;
            }
        }
        if id.ends_with("/headline")
            && scale == Scale::Full
            && (r.machines < 1000 || r.total_cores < 100_000)
        {
            eprintln!(
                "xtask: FLEET GATE FAILED — {id}: headline tier is {} machines / {} cores \
                 (want 1000+ / 100k+)",
                r.machines, r.total_cores
            );
            cell_ok = false;
        }
        println!(
            "xtask:   {id}: {} machines / {} cores, {:.3e} req/s, {} served / {} offered, \
             {} ejections, {} rejoins — {} in {:.2?}",
            r.machines,
            r.total_cores,
            r.requests_per_sec(),
            r.lb.served(),
            r.lb.offered,
            r.lb.ejections,
            r.lb.rejoins,
            if cell_ok { "ok" } else { "FAILED" },
            wall
        );
        let config = Json::obj()
            .with("machines", Json::U64(u64::from(cfg.machines)))
            .with("total_cores", Json::U64(cfg.total_cores()))
            .with("window", Json::U64(cfg.window))
            .with("workers", Json::U64(u64::from(cfg.workers)))
            .with("churn_slots", Json::U64(u64::from(cfg.churn_slots)))
            .with("seed", Json::U64(cfg.seed));
        jobs_json.push(
            Json::obj()
                .with("id", Json::Str(id.clone()))
                .with("config", config)
                .with("sim", r.sim_json())
                .with("wall_ns", Json::U64(wall.as_nanos() as u64)),
        );
        cell_reports.push(
            Json::obj()
                .with("id", Json::Str(id.clone()))
                .with("machines", Json::U64(u64::from(r.machines)))
                .with("total_cores", Json::U64(r.total_cores))
                .with("requests_per_sec", Json::F64(r.requests_per_sec()))
                .with("offered", Json::U64(r.lb.offered))
                .with("served", Json::U64(r.lb.served()))
                .with("failed", Json::U64(r.lb.failed_total()))
                .with("crashed_machines", Json::U64(r.crashed.len() as u64))
                .with("ejections", Json::U64(r.lb.ejections))
                .with("rejoins", Json::U64(r.lb.rejoins))
                .with("fully_accounted", Json::Bool(r.fully_accounted))
                .with("zero_violations", Json::Bool(r.zero_violations))
                .with(
                    "crashed_recovered_or_ejected",
                    Json::Bool(r.crashed_recovered_or_ejected),
                )
                .with("replay_match", Json::Bool(replay_match))
                .with("pass", Json::Bool(cell_ok)),
        );
        ok &= cell_ok;
    }
    let elapsed = start.elapsed();
    if ok {
        println!(
            "xtask: fleet survival OK — {} cells: total accounting, zero violations, \
             crash recovery/ejection, byte-identical replay ({:.2?})",
            cells.len(),
            elapsed
        );
    }

    let report = Json::obj()
        .with("schema_version", Json::U64(1))
        .with("git_rev", Json::Str(git_rev()))
        .with("scale", Json::Str(scale.label().into()))
        .with("pass", Json::Bool(ok))
        .with("cells", Json::Arr(cell_reports));
    if let Err(e) = std::fs::write(report_out, report.render_pretty()) {
        eprintln!("xtask: could not write {report_out}: {e}");
        return false;
    }
    println!("xtask: wrote {report_out}");

    let run_doc = Json::obj().with("jobs", Json::Arr(jobs_json.clone())).with(
        "totals",
        Json::obj().with("wall_ns", Json::U64(elapsed.as_nanos() as u64)),
    );
    // One snapshot file holds both scales — job IDs are scale-prefixed
    // (`fleet/quick/…`, `fleet/full/…`) — so the CI quick run diffs
    // byte-exactly against the committed quick cells without clobbering
    // the full tier recorded by `cargo xtask fleet`. Baseline jobs this
    // run didn't produce are carried over verbatim; wall-clock totals
    // aren't comparable across scales, so the time bound is skipped
    // whenever anything was carried.
    let baseline_path = baseline.unwrap_or_else(|| out.to_string());
    let mut carried: Vec<Json> = Vec::new();
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Json::parse(&text) {
            Ok(base) => {
                let mut same_scale: Vec<Json> = Vec::new();
                if let Some(base_jobs) = base.get("jobs").and_then(Json::as_arr) {
                    for j in base_jobs {
                        let id = j.get("id").and_then(Json::as_str);
                        if id.is_some_and(|id| cells.iter().any(|(cid, _)| cid == id)) {
                            same_scale.push(j.clone());
                        } else {
                            carried.push(j.clone());
                        }
                    }
                }
                let base_cmp = if carried.is_empty() {
                    base
                } else {
                    Json::obj().with("jobs", Json::Arr(same_scale))
                };
                ok &= gate_against_baseline(&run_doc, &base_cmp, &baseline_path, tolerance);
            }
            Err(e) => {
                eprintln!(
                    "xtask: baseline {baseline_path} is not valid JSON ({e}) — FLEET GATE FAILED"
                );
                ok = false;
            }
        },
        Err(_) => println!("xtask: no baseline at {baseline_path} — recording first snapshot"),
    }
    let mut all_jobs = jobs_json;
    all_jobs.extend(carried);
    all_jobs.sort_by(|a, b| {
        a.get("id")
            .and_then(Json::as_str)
            .cmp(&b.get("id").and_then(Json::as_str))
    });
    let totals = Json::obj()
        .with("jobs", Json::U64(all_jobs.len() as u64))
        .with("wall_ns", Json::U64(elapsed.as_nanos() as u64))
        .with("serial_ns", Json::U64(serial.as_nanos() as u64))
        .with("speedup_vs_serial", Json::F64(1.0));
    let doc = Json::obj()
        .with("schema_version", Json::U64(1))
        .with("git_rev", Json::Str(git_rev()))
        .with("threads", Json::U64(threads_a as u64))
        .with("jobs", Json::Arr(all_jobs))
        .with("totals", totals);
    if let Err(e) = std::fs::write(out, doc.render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!("xtask: wrote {out}");
    if ok {
        println!("xtask: fleet OK");
    }
    ok
}

/// The full sweep: every figure/table job plus the seven explore jobs,
/// reduced in canonical job-ID order. The reduction is byte-identical
/// for any `--threads` value.
fn sweep(threads: usize, scale: Scale, out: Option<String>) -> bool {
    let mut jobs: Vec<Job<String>> = full_matrix(scale)
        .into_iter()
        .map(|j| {
            let id = j.id.clone();
            Job::new(id, move || {
                let o = j.run();
                format!("{}sim {}\n", o.rendered, o.metrics.render())
            })
        })
        .collect();
    jobs.extend(explore_level_jobs().into_iter().map(|j| {
        let id = j.id.clone();
        Job::new(id, move || {
            let (rep, mesh) = (j.run)();
            format!(
                "{} opt level {}: {} schedules, {} branch points, {} distinct states, \
                 {} digest-pruned — {}\n",
                if mesh { "mesh" } else { "flat" },
                rep.level,
                rep.schedules,
                rep.branch_points,
                rep.distinct_states,
                rep.pruned_digest,
                if rep.safe { "safe" } else { "VIOLATION" }
            )
        })
    }));
    let n = jobs.len();
    println!("xtask: full sweep — {n} jobs at {} scale", scale.label());
    let report = run_jobs(jobs, threads);
    let reduced = reduce_rendered(&report, |s| s.as_str());
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &reduced) {
                eprintln!("xtask: could not write {path}: {e}");
                return false;
            }
            println!("xtask: wrote {path} ({} bytes)", reduced.len());
        }
        None => print!("{reduced}"),
    }
    println!(
        "xtask: {n} jobs on {} threads in {:.2?} (serial estimate {:.2?}, speedup {:.2}x)",
        report.threads,
        report.elapsed,
        report.serial_estimate(),
        report.speedup_vs_serial()
    );
    true
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

/// The tracing gate. Five checks, all of which run even if an early one
/// fails: exact per-phase attribution at every optimization level,
/// byte-identical exports across two replays, thread-count invariance
/// through the sweep pool, Chrome trace_event schema validity with a
/// strict-parser round-trip, and the no-trace build of the kernel.
/// Writes a sample export (Perfetto-loadable) to `out`.
fn trace_gate(out: &str) -> bool {
    let mut ok = true;

    // 1. Exact attribution at every cumulative optimization level.
    let mut columns = Vec::new();
    for (level, _, _) in OptConfig::all_levels() {
        let level = level as usize;
        let trace = traced_dueling(level);
        let a = analyze(&trace);
        let inexact = a
            .spans
            .iter()
            .filter(|s| s.phase_sum() != s.end_to_end())
            .count();
        if inexact > 0 || a.incomplete > 0 || trace.dropped_total() > 0 || a.spans.is_empty() {
            eprintln!(
                "xtask: TRACE GATE FAILED — level {level}: {inexact} inexact span(s), \
                 {} incomplete, {} dropped, {} spans",
                a.incomplete,
                trace.dropped_total(),
                a.spans.len()
            );
            ok = false;
        }
        columns.push((format!("L{level}"), PhaseTotals::of(&a, true)));
    }
    if ok {
        println!(
            "xtask: attribution exact for every shootdown at all {} opt levels \
             (phase sums == end-to-end)",
            OptConfig::NUM_LEVELS
        );
    }
    println!("xtask: critical path, dueling_madvise, mean cycles per remote shootdown:");
    print!("{}", render_attribution_table(&columns));
    if let (Some(first), Some(last)) = (columns.first(), columns.last()) {
        print!("{}", render_phase_diff(first, last));
    }

    // 2. Replay determinism: two captures, byte-identical export.
    let sample = to_chrome_json(&traced_dueling(6));
    let rendered = sample.render();
    if rendered != to_chrome_json(&traced_dueling(6)).render() {
        eprintln!("xtask: TRACE GATE FAILED — two replays exported different bytes");
        ok = false;
    } else {
        println!(
            "xtask: replay OK — {} byte export identical across two runs",
            rendered.len()
        );
    }

    // 3. Thread invariance: the same seven jobs through the sweep pool.
    let trace_jobs = || -> Vec<Job<String>> {
        OptConfig::all_levels()
            .map(|(level, _, _)| {
                Job::new(format!("trace/L{level}"), move || {
                    to_chrome_json(&traced_dueling(level as usize)).render()
                })
            })
            .collect()
    };
    let serial = reduce_rendered(&run_jobs(trace_jobs(), 1), |s: &String| s.as_str());
    let pooled = reduce_rendered(&run_jobs(trace_jobs(), 4), |s: &String| s.as_str());
    if serial != pooled {
        eprintln!("xtask: TRACE GATE FAILED — exports differ between --threads 1 and 4");
        ok = false;
    } else {
        println!("xtask: thread invariance OK — reductions byte-identical at 1 and 4 threads");
    }

    // 4. Schema validity + strict-parser round-trip.
    match Json::parse(&rendered) {
        Ok(parsed) if parsed.render() != rendered => {
            eprintln!("xtask: TRACE GATE FAILED — export does not round-trip byte-exactly");
            ok = false;
        }
        Ok(parsed) => match validate_chrome(&parsed) {
            Ok(n) => println!("xtask: schema OK — {n} Chrome trace_event records validated"),
            Err(e) => {
                eprintln!("xtask: TRACE GATE FAILED — invalid Chrome trace: {e}");
                ok = false;
            }
        },
        Err(e) => {
            eprintln!("xtask: TRACE GATE FAILED — export is not canonical JSON: {e}");
            ok = false;
        }
    }

    // 5. The compiled-out configuration must still build.
    if run_cargo(
        "no-trace build",
        &["build", "-p", "tlbdown-kernel", "--no-default-features"],
    ) {
        println!("xtask: no-trace build OK — kernel compiles with tracing compiled out");
    } else {
        ok = false;
    }

    if let Err(e) = std::fs::write(out, sample.render_pretty()) {
        eprintln!("xtask: could not write {out}: {e}");
        return false;
    }
    println!("xtask: wrote {out}");
    if ok {
        println!("xtask: trace OK");
    }
    ok
}

/// Effective source lines of every crate in the workspace: the
/// [`effective_loc`] count (no blanks, comments or test modules) summed
/// over each `.rs` file under `crates/<name>/src`, sorted by name.
fn crate_loc() -> std::io::Result<Vec<(String, u64)>> {
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
    out.sort();
    Ok(out)
}

/// [`effective_loc`] summed over every `.rs` file under `dir`.
fn dir_loc(dir: &Path) -> std::io::Result<u64> {
    let mut lines = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            lines += dir_loc(&path)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            lines += effective_loc(&std::fs::read_to_string(&path)?);
        }
    }
    Ok(lines)
}

/// Every gate of the selected tier, in order. All of them run even if
/// an early one fails — one CI invocation reports every broken gate,
/// not just the first. Each gate is wall-clock timed; the summary table
/// prints a time column and the same rows land machine-readably in
/// `ci_report.json` (gate, verdict, seconds) for the CI artifact,
/// together with every crate's effective source-line count.
fn ci(seed: u64, which: CiGates) -> ExitCode {
    type GateFn = Box<dyn FnOnce() -> bool>;
    // (name, fast-tier?, gate). The fast tier is the PR-blocking set —
    // cheap, seconds each; the full tier is the long matrix gates CI
    // runs in a parallel job.
    let gates: Vec<(&str, bool, GateFn)> = vec![
        ("fmt", true, Box::new(fmt)),
        ("clippy", true, Box::new(clippy)),
        ("replay", true, Box::new(move || replay(seed))),
        ("engine", true, Box::new(move || engine_gate(seed))),
        (
            "explore",
            false,
            Box::new(|| explore_gate(0, "explore_report.json")),
        ),
        (
            "bench",
            false,
            Box::new(|| bench_gate(0, "BENCH_1.json", None, DEFAULT_TOLERANCE)),
        ),
        (
            "scale",
            false,
            Box::new(|| scale_bench_gate("BENCH_2.json", None, DEFAULT_TOLERANCE)),
        ),
        (
            "topo",
            false,
            Box::new(|| topo_bench_gate(Scale::Full, "BENCH_6.json", None, DEFAULT_TOLERANCE)),
        ),
        (
            "optbench",
            false,
            Box::new(|| opt_bench_gate(Scale::Quick, "BENCH_7.json", None, DEFAULT_TOLERANCE)),
        ),
        (
            "storm",
            false,
            Box::new(|| {
                storm_gate(
                    0,
                    Scale::Quick,
                    false,
                    "BENCH_3.json",
                    "storm_report.json",
                    None,
                    DEFAULT_TOLERANCE,
                )
            }),
        ),
        (
            "fleet",
            false,
            Box::new(|| {
                fleet_gate(
                    0,
                    Scale::Quick,
                    "BENCH_4.json",
                    "fleet_report.json",
                    None,
                    DEFAULT_TOLERANCE,
                )
            }),
        ),
        ("trace", false, Box::new(|| trace_gate("sample.trace.json"))),
    ];
    let mut rows: Vec<(&str, bool, Duration)> = Vec::new();
    for (name, fast, gate) in gates {
        let selected = match which {
            CiGates::All => true,
            CiGates::Fast => fast,
            CiGates::Full => !fast,
        };
        if !selected {
            continue;
        }
        let start = std::time::Instant::now();
        let ok = gate();
        rows.push((name, ok, start.elapsed()));
    }
    println!("xtask: ── gate summary ──");
    let mut all_ok = true;
    for (name, ok, wall) in &rows {
        println!(
            "xtask:   {name:<8} {:<4} {:>9.2?}",
            if *ok { "PASS" } else { "FAIL" },
            wall
        );
        all_ok &= ok;
    }
    let loc = match crate_loc() {
        Ok(per_crate) => {
            let total: u64 = per_crate.iter().map(|(_, n)| n).sum();
            println!(
                "xtask: {total} effective source lines across {} crates",
                per_crate.len()
            );
            Json::obj()
                .with(
                    "crates",
                    Json::Obj(
                        per_crate
                            .into_iter()
                            .map(|(name, n)| (name, Json::U64(n)))
                            .collect(),
                    ),
                )
                .with("total", Json::U64(total))
        }
        Err(e) => {
            eprintln!("xtask: could not count source lines: {e}");
            all_ok = false;
            Json::Null
        }
    };
    let report = Json::obj()
        .with("schema_version", Json::U64(1))
        .with("git_rev", Json::Str(git_rev()))
        .with(
            "gates",
            Json::Str(
                match which {
                    CiGates::Fast => "fast",
                    CiGates::Full => "full",
                    CiGates::All => "all",
                }
                .into(),
            ),
        )
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
        .with("loc", loc);
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
