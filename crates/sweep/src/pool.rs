//! The sweep thread pool: one shared job queue.
//!
//! Every job is queued before the workers start, and no job spawns
//! another, so the pool needs nothing more than one shared job list
//! behind a `Mutex`: each worker pops a job under the lock, runs it with
//! the lock released, and exits once the list is empty — empty is
//! permanent. The lock is held for one pop per job, and a sweep job runs
//! for milliseconds to seconds, so contention is noise. Per-worker
//! deques and work stealing would add nothing: an idle worker already
//! takes the next queued job directly.
//!
//! Workers pop from the *end* of the list. The heavy matrices list their
//! costliest cells last (explore runs L0 to L8, flat before mesh; storm
//! runs mild before savage), so end-first starts the longest jobs first
//! and lets the short ones fill the tail, instead of leaving one long
//! job running alone at the end of the sweep. EXPERIMENTS.md
//! ("Single-queue sweep pool") has the measurements behind this choice.
//!
//! Determinism: workers send `(id, output, wall)` tuples over a channel
//! as they finish, in a nondeterministic order; [`run_jobs`] sorts the
//! collected results by job ID before returning. Everything canonical
//! downstream (rendered reductions, `BENCH` sim-metric blocks) is
//! derived from that sorted vector, so neither thread count nor
//! completion order ever shows.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One unit of sweep work: a stable ID plus a self-contained closure.
///
/// The closure must construct everything it touches (machine, config,
/// RNG seeds) so that its output is a pure function of the job — see the
/// crate docs for the determinism argument.
pub struct Job<T> {
    /// Stable identifier; the canonical reduction order is the sorted
    /// order of these IDs, so they must be unique within a sweep.
    pub(crate) id: String,
    /// The work itself.
    pub(crate) run: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Job<T> {
    /// Build a job from an ID and a closure.
    pub fn new(id: impl Into<String>, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Job {
            id: id.into(),
            run: Box::new(run),
        }
    }
}

/// The outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult<T> {
    /// The job's stable ID.
    pub id: String,
    /// What the closure returned.
    pub output: T,
    /// Host wall-clock spent inside the closure (non-canonical: varies
    /// run to run and must stay out of byte-compared blocks).
    pub wall: Duration,
}

/// A job whose closure panicked instead of returning.
///
/// Panics are caught at the job boundary (`catch_unwind`) so one bad
/// job cannot poison the pool's queue or starve the collector; the
/// panic becomes this typed record in the reduced output instead.
#[derive(Clone, Debug)]
pub struct JobError {
    /// The job's stable ID.
    pub id: String,
    /// The panic payload, if it was a string (the common `panic!` /
    /// `assert!` case), else a placeholder. Deterministic for
    /// deterministic jobs, so it is safe inside byte-compared blocks.
    pub message: String,
}

/// A finished sweep: results in canonical job-ID order plus host-side
/// timing.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// Per-job results, sorted by job ID. Jobs that panicked are not
    /// here — they are in [`SweepReport::failures`].
    pub results: Vec<JobResult<T>>,
    /// Jobs whose closure panicked, sorted by job ID.
    pub failures: Vec<JobError>,
    /// Wall-clock for the whole sweep (non-canonical).
    pub elapsed: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

/// Resolve a requested thread count: 0 means "all host cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Panic if two jobs share an ID — silent ID collisions would make the
/// canonical order ambiguous and the reduction nondeterministic.
fn assert_unique_ids<T>(jobs: &[Job<T>]) {
    let mut ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
    ids.sort_unstable();
    for w in ids.windows(2) {
        assert!(w[0] != w[1], "duplicate sweep job id {:?}", w[0]);
    }
}

/// Run one claimed job, converting a panic into a typed record, and send
/// the outcome to the collector.
fn execute_job<T: Send>(job: Job<T>, tx: &mpsc::Sender<Result<JobResult<T>, JobError>>) {
    let t0 = Instant::now();
    // Isolate the job: a panic unwinds only to here, is converted to a
    // typed record, and the worker moves on to the next job. No lock is
    // held across the closure; AssertUnwindSafe is sound
    // because the closure owns everything it touches (per-job isolation
    // invariant).
    let outcome = panic::catch_unwind(AssertUnwindSafe(job.run));
    let wall = t0.elapsed();
    // The receiver outlives the scope; send failure would need the main
    // thread hung up (it cannot: it is blocked on scope exit).
    let _ = match outcome {
        Ok(output) => tx.send(Ok(JobResult {
            id: job.id,
            output,
            wall,
        })),
        Err(payload) => tx.send(Err(JobError {
            id: job.id,
            message: panic_message(payload.as_ref()),
        })),
    };
}

/// Drain the result channel into a canonical-order report.
fn collect_report<T>(
    rx: mpsc::Receiver<Result<JobResult<T>, JobError>>,
    n_jobs: usize,
    threads: usize,
    start: Instant,
) -> SweepReport<T> {
    let mut results: Vec<JobResult<T>> = Vec::new();
    let mut failures: Vec<JobError> = Vec::new();
    for outcome in rx {
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => failures.push(e),
        }
    }
    assert_eq!(
        results.len() + failures.len(),
        n_jobs,
        "every job must report a result or a failure"
    );
    results.sort_by(|a, b| a.id.cmp(&b.id));
    failures.sort_by(|a, b| a.id.cmp(&b.id));
    SweepReport {
        results,
        failures,
        elapsed: start.elapsed(),
        threads,
    }
}

/// Run `jobs` on `threads` workers (0 = all host cores) and reduce in
/// canonical job-ID order. Every consumer (bench matrix, explore, storm,
/// fleet and topo gates, scalebench, the full sweep) goes through here.
///
/// Panics if two jobs share an ID.
pub fn run_jobs<T: Send>(jobs: Vec<Job<T>>, threads: usize) -> SweepReport<T> {
    assert_unique_ids(&jobs);
    let n_jobs = jobs.len();
    let threads = resolve_threads(threads).max(1).min(n_jobs.max(1));
    let start = Instant::now();

    let queue = Mutex::new(jobs);
    let (tx, rx) = mpsc::channel::<Result<JobResult<T>, JobError>>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let queue = &queue;
            let tx = tx.clone();
            scope.spawn(move || loop {
                // The guard drops at the end of this statement, before
                // the job runs; jobs panic only inside `execute_job`'s
                // `catch_unwind`, so the lock is never poisoned.
                let Some(job) = queue.lock().expect("queue lock poisoned").pop() else {
                    return;
                };
                execute_job(job, &tx);
            });
        }
        drop(tx);
    });
    collect_report(rx, n_jobs, threads, start)
}

/// Extract a printable message from a panic payload: the common
/// `panic!("...")` / `assert!` payloads are `String` or `&str`; anything
/// else gets a stable placeholder so the reduced output stays
/// deterministic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Concatenate rendered per-job fragments in canonical order, each under
/// a `== job <id> ==` header. This is *the* reduction used for
/// byte-identity checks between serial and parallel sweeps. Panicked
/// jobs appear in the same canonical ID order as `panicked: <message>`
/// bodies, so a failing sweep reduces just as deterministically as a
/// passing one.
pub fn reduce_rendered<T>(report: &SweepReport<T>, render: impl Fn(&T) -> &str) -> String {
    let mut fragments: Vec<(&str, String)> = Vec::new();
    for r in &report.results {
        fragments.push((r.id.as_str(), render(&r.output).to_string()));
    }
    for f in &report.failures {
        fragments.push((f.id.as_str(), format!("panicked: {}", f.message)));
    }
    fragments.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::new();
    for (id, body) in fragments {
        out.push_str("== job ");
        out.push_str(id);
        out.push_str(" ==\n");
        out.push_str(&body);
        if !out.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_jobs_run_and_reduce_in_id_order() {
        let jobs: Vec<Job<u64>> = (0..37)
            .map(|i| Job::new(format!("job/{i:02}"), move || i * i))
            .collect();
        let rep = run_jobs(jobs, 4);
        assert_eq!(rep.results.len(), 37);
        for (i, r) in rep.results.iter().enumerate() {
            assert_eq!(r.id, format!("job/{i:02}"));
            assert_eq!(r.output, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn single_thread_matches_many_threads() {
        let build = || -> Vec<Job<String>> {
            (0..16)
                .map(|i| Job::new(format!("j{i:02}"), move || format!("out-{}", i * 7 % 5)))
                .collect()
        };
        let a = run_jobs(build(), 1);
        let b = run_jobs(build(), 8);
        let ra = reduce_rendered(&a, |s| s.as_str());
        let rb = reduce_rendered(&b, |s| s.as_str());
        assert_eq!(ra, rb, "reduction must not depend on thread count");
    }

    #[test]
    fn uneven_jobs_all_complete_in_id_order() {
        // One long job alongside many short ones: the other workers
        // drain the short jobs meanwhile.
        let jobs: Vec<Job<usize>> = (0..32)
            .map(|i| {
                Job::new(format!("j{i:02}"), move || {
                    let spins = if i == 0 { 3_000_000 } else { 1_000 };
                    let mut acc = 0usize;
                    for k in 0..spins {
                        acc = acc.wrapping_mul(31).wrapping_add(k);
                    }
                    acc
                })
            })
            .collect();
        let rep = run_jobs(jobs, 4);
        assert_eq!(rep.results.len(), 32);
        // Timing depends on host core count; the invariant that holds
        // everywhere is completeness + canonical order.
        assert!(rep.results.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn thread_count_clamps_to_job_count() {
        let jobs: Vec<Job<u8>> = vec![Job::new("only", || 1u8)];
        let rep = run_jobs(jobs, 16);
        assert_eq!(rep.threads, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate sweep job id")]
    fn duplicate_ids_panic() {
        let jobs: Vec<Job<u8>> = vec![Job::new("a", || 0u8), Job::new("a", || 1u8)];
        run_jobs(jobs, 2);
    }

    /// Quiet the default panic hook (which prints to stderr) for the
    /// duration of a closure, restoring it afterwards. Test-only: the
    /// library itself never touches the global hook.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    fn one_bad_apple() -> Vec<Job<u64>> {
        (0..24)
            .map(|i| {
                Job::new(format!("job/{i:02}"), move || {
                    if i == 7 {
                        panic!("deliberate failure in job 7");
                    }
                    i * 3
                })
            })
            .collect()
    }

    #[test]
    fn panicking_job_is_isolated_and_typed() {
        let rep = with_quiet_panics(|| run_jobs(one_bad_apple(), 4));
        // All other jobs completed; the panic became a typed JobError.
        assert_eq!(rep.results.len(), 23);
        assert_eq!(rep.failures.len(), 1);
        assert_eq!(rep.failures[0].id, "job/07");
        assert_eq!(rep.failures[0].message, "deliberate failure in job 7");
        assert!(rep.results.iter().all(|r| r.id != "job/07"));
        // Successes still arrive in canonical ID order.
        assert!(rep.results.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn panicking_job_reduction_is_thread_count_invariant() {
        let (ra, rb) = with_quiet_panics(|| {
            let a = run_jobs(one_bad_apple(), 1);
            let b = run_jobs(one_bad_apple(), 8);
            (reduce_rendered(&a, |_| "ok"), reduce_rendered(&b, |_| "ok"))
        });
        assert_eq!(ra, rb, "failure reduction must not depend on threads");
        assert!(ra.contains("== job job/07 ==\npanicked: deliberate failure in job 7\n"));
    }
}
