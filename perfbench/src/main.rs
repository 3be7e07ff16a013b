//! Host-time benchmark of the tlbdown simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale|paper|explore> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A run builds the workload's jobs from `--seed`, times its set-up,
//! runs every job once as the reference and checks the outputs against
//! independent references, then repeats the jobs in rounds for
//! `--seconds`. Every repetition must reproduce the reference outputs
//! exactly. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are end to end (`us_per_unit`, `setup_s`); with `--trace 1`
//! they are the per-layer ledger of `ledger.rs`, measured for `--seconds`
//! after the reference run. An end-to-end run measures in five child
//! processes in turn and reports the median child.
//! See `README.md` for what each metric means.

mod alloc;
mod calib;
mod ledger;
mod stats;
mod work;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::median;
use work::{Job, Outcome, Plan};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up is repeated at least this many times, and for at least
/// [`SETUP_BUDGET`], and the median reported.
const SETUP_REPS: usize = 7;
const SETUP_BUDGET: Duration = Duration::from_millis(400);
const SETUP_BATCH: Duration = Duration::from_millis(25);
/// Processes an end-to-end run is split across; see [`across_processes`].
const PROCESSES: u32 = 5;

const USAGE: &str =
    "usage: tlbdown-perfbench --workload <scale|paper|explore> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: measure `1/slice` of `seconds` in this process and print
    /// a bare result line (see [`across_processes`]).
    slice: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut slice = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 3_600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--slice" => slice = Some(number()?.clamp(1, 64) as u32),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        slice,
    })
}

/// Run one job, turning a panic into an error.
fn attempt(job: &Job) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| (job.run)()))
        .unwrap_or_else(|_| Err(format!("{} panicked", job.name)))
}

/// Tally of operations attempted and failed, with the first failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {e}");
            self.first_error.get_or_insert(e);
        }
    }
}

/// Run `f` on a fresh thread. A new thread draws fresh hash-table keys
/// (the standard library seeds `RandomState` per thread) and may get a
/// fresh allocator arena, so work repeated across fresh threads samples
/// those random layouts instead of measuring one process's single draw.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join()).unwrap_or_else(|p| std::panic::resume_unwind(p))
}

/// How many times slower than the reference speed the host runs, from a
/// calibration run on the current thread after a discarded warm-up run.
fn warm_slowdown() -> f64 {
    calib::slowdown();
    calib::slowdown()
}

/// Median host seconds to build and boot every machine of a pass, at the
/// reference speed. Set-ups run in batches of [`SETUP_BATCH`] on fresh
/// threads, each batch scaled by one calibration run.
fn setup_seconds(jobs: &[Job], tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_REPS || start.elapsed() < SETUP_BUDGET {
        let batch = on_fresh_thread(|| {
            let speed = warm_slowdown();
            let begin = Instant::now();
            let mut out = Vec::new();
            while out.is_empty() || begin.elapsed() < SETUP_BATCH {
                let t = Instant::now();
                let r = jobs.iter().try_for_each(|job| {
                    catch_unwind(AssertUnwindSafe(|| (job.boot)()))
                        .unwrap_or_else(|_| Err("panicked".into()))
                        .map_err(|e| format!("{} set-up: {e}", job.name))
                });
                out.push((t.elapsed().as_secs_f64() / speed, r));
            }
            out
        });
        for (secs, r) in batch {
            samples.push(secs);
            tally.record(r);
        }
    }
    median(&mut samples)
}

/// Run every job once, then check the outputs. Returns the reference
/// fingerprints (`None` where the job failed).
fn reference(plan: &Plan, tally: &mut Tally) -> Vec<Option<String>> {
    let mut outcomes = Vec::new();
    let mut fingerprints = Vec::new();
    for job in &plan.jobs {
        match attempt(job) {
            Ok(o) => {
                fingerprints.push(Some(o.fingerprint.clone()));
                outcomes.push(o);
                tally.record(Ok(()));
            }
            Err(e) => {
                fingerprints.push(None);
                tally.record(Err(e));
            }
        }
    }
    if outcomes.len() == plan.jobs.len() {
        let r = catch_unwind(AssertUnwindSafe(|| (plan.check)(&outcomes)))
            .unwrap_or_else(|_| Err("output check panicked".into()));
        tally.record(r);
    }
    fingerprints
}

/// Repeat the jobs in rounds, each on a fresh thread, until `budget`
/// has passed. Every run is scaled by the mean of the calibration runs
/// just before and just after it.
/// Returns host µs per unit of work at the reference speed: the sum of
/// the jobs' median times over the sum of their units.
fn timed_rounds(jobs: &[Job], refs: &[Option<String>], budget: Duration, tally: &mut Tally) -> f64 {
    let start = Instant::now();
    let mut samples = vec![Vec::new(); jobs.len()];
    while samples[0].is_empty() || start.elapsed() < budget {
        let round = on_fresh_thread(|| {
            let mut before = warm_slowdown();
            let timed = |job: &Job| {
                let t = Instant::now();
                let r = attempt(job);
                let secs = t.elapsed().as_secs_f64();
                let after = calib::slowdown();
                let speed = (before + after) / 2.0;
                before = after;
                (secs / speed, r)
            };
            jobs.iter().map(timed).collect::<Vec<_>>()
        });
        for (i, (secs, r)) in round.into_iter().enumerate() {
            samples[i].push(secs);
            tally.record(r.and_then(|o| match &refs[i] {
                Some(f) if *f == o.fingerprint => Ok(()),
                _ => Err(format!(
                    "{}: outputs differ from the reference run",
                    jobs[i].name
                )),
            }));
        }
    }
    let rounds = samples[0].len();
    let total: f64 = samples.iter_mut().map(|s| median(s)).sum();
    let units: f64 = jobs.iter().map(|j| j.units).sum();
    eprintln!(
        "perfbench: {rounds} rounds of {} jobs, pass median {total:.3} s",
        jobs.len()
    );
    total * 1e6 / units
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Print the result line and exit 0: the outcome is in the line.
fn report(mut tally: Tally, metrics: &[(&str, f64, &str)]) -> ExitCode {
    let mut fields = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            tally.record(Err(format!("metric {name} is not a finite number")));
            continue;
        }
        fields.push(metric_json(name, *value, unit));
    }
    if let Some(e) = &tally.first_error {
        eprintln!("perfbench: first failure: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// Run the end-to-end measurement as [`PROCESSES`] child processes in
/// turn, each with an equal slice of the time, and report the median
/// child. Where a process's heap, stack and code land moves the
/// simulator's host time by several percent (cache and TLB aliasing), and
/// each process draws its own layout; one process would report one draw.
fn across_processes(args: &Args) -> ExitCode {
    let mut tally = Tally::default();
    let mut us = Vec::new();
    let mut setup = Vec::new();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            tally.record(Err(format!("cannot find this program to re-run it: {e}")));
            return report(tally, &[]);
        }
    };
    for _ in 0..PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--slice", &PROCESSES.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let line = out.map_err(|e| e.to_string()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout);
            let last = text.lines().last().unwrap_or_default().to_owned();
            let fields: Vec<f64> = last.split(' ').filter_map(|f| f.parse().ok()).collect();
            match fields[..] {
                [attempted, failed, u, s] if o.status.success() => Ok((attempted, failed, u, s)),
                _ => Err(format!(
                    "a measuring process ended with {} and printed {last:?}",
                    o.status
                )),
            }
        });
        match line {
            Ok((attempted, failed, u, s)) => {
                tally.attempted += attempted as u64;
                tally.failed += failed as u64;
                if failed > 0.0 {
                    tally
                        .first_error
                        .get_or_insert("see the measuring process's errors".into());
                }
                us.push(u);
                setup.push(s);
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    if us.is_empty() {
        return report(tally, &[]);
    }
    report(
        tally,
        &[
            ("us_per_unit", median(&mut us), "us"),
            ("setup_s", median(&mut setup), "s"),
        ],
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = work::plan(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            work::NAMES
        );
        return ExitCode::from(2);
    };
    if !args.trace && args.slice.is_none() {
        return across_processes(&args);
    }
    if args.trace {
        alloc::enable();
    }
    let budget = Duration::from_secs(args.seconds) / args.slice.unwrap_or(1);
    let mut tally = Tally::default();
    let setup_s = setup_seconds(&plan.jobs, &mut tally);
    let refs = reference(&plan, &mut tally);
    if args.trace {
        return report(tally, &ledger::measure(&plan.probe, budget));
    }
    let us = timed_rounds(&plan.jobs, &refs, budget, &mut tally);
    // A measuring child's line for `across_processes`.
    println!("{} {} {us} {setup_s}", tally.attempted, tally.failed);
    ExitCode::SUCCESS
}
