//! Failing-trace minimization.
//!
//! A counterexample found by the explorer carries every branch choice the
//! run made, but usually only a handful of them matter. The shrinker is a
//! delta-debugging loop over the choice vector with three move classes,
//! applied to fixpoint:
//!
//! 1. **truncate** — drop a suffix of choices (truncation is always a
//!    well-formed schedule because missing choices default to FIFO);
//! 2. **zero** — reset a single non-FIFO choice back to 0;
//! 3. **lower** — halve a choice's candidate index toward 1.
//!
//! Every candidate schedule is re-executed from a fresh scenario machine;
//! a move is kept only if the run still violates. The result is the
//! shortest, most-FIFO schedule the moves can reach that still reproduces
//! the breach — typically a handful of choices naming exactly the racy
//! reorderings.

use crate::explore::{run_schedule, Scenario};
use crate::schedule::Schedule;

/// Counters describing a shrink run.
#[derive(Clone, Debug, Default)]
pub struct ShrinkStats {
    /// Candidate schedules executed.
    pub trials: u64,
    /// Trials that still violated (accepted moves plus the final verify).
    pub(crate) still_failing: u64,
    /// Full passes over the move classes until fixpoint.
    pub(crate) passes: u32,
}

/// Outcome of shrinking: the minimized schedule plus counters.
#[derive(Debug)]
pub struct Shrunk {
    /// The minimized violating schedule (normalized).
    pub schedule: Schedule,
    /// How much work it took.
    pub stats: ShrinkStats,
}

/// Minimize `failing` while preserving the violation, executing at most
/// `max_trials` candidate runs. `failing` itself must violate; the
/// function panics otherwise (callers hand it a counterexample straight
/// from [`explore`](crate::explore::explore)).
pub fn shrink(build: &Scenario<'_>, failing: &Schedule, max_trials: u64) -> Shrunk {
    let mut stats = ShrinkStats::default();
    let fails = |choices: &[u16], stats: &mut ShrinkStats| -> bool {
        stats.trials += 1;
        let bad = run_schedule(build, choices).violated();
        if bad {
            stats.still_failing += 1;
        }
        bad
    };
    let mut best = failing.clone().normalized().choices;
    assert!(
        fails(&best, &mut stats),
        "shrink() called with a schedule that does not violate"
    );

    loop {
        stats.passes += 1;
        let mut changed = false;

        // Truncate: binary-search the shortest violating prefix. The
        // predicate is not monotone in general, so fall back to stepwise
        // trimming after the search settles.
        let mut lo = 0usize;
        let mut hi = best.len();
        while lo < hi {
            if stats.trials >= max_trials {
                break;
            }
            let mid = (lo + hi) / 2;
            if fails(&best[..mid], &mut stats) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if hi < best.len() {
            best.truncate(hi);
            changed = true;
        }
        while !best.is_empty() && stats.trials < max_trials {
            if fails(&best[..best.len() - 1], &mut stats) {
                best.pop();
                changed = true;
            } else {
                break;
            }
        }

        // Zero: turn individual perturbations back into FIFO choices.
        for i in 0..best.len() {
            if best[i] == 0 || stats.trials >= max_trials {
                continue;
            }
            let saved = best[i];
            best[i] = 0;
            if fails(&best, &mut stats) {
                changed = true;
            } else {
                best[i] = saved;
            }
        }

        // Lower: halve surviving choice indices toward 1.
        for i in 0..best.len() {
            while best[i] > 1 && stats.trials < max_trials {
                let saved = best[i];
                best[i] = saved / 2;
                if fails(&best, &mut stats) {
                    changed = true;
                } else {
                    best[i] = saved;
                    break;
                }
            }
        }

        if !changed || stats.trials >= max_trials {
            break;
        }
    }

    // Normalization only drops trailing FIFO choices, which cannot change
    // the execution, so `best` still violates.
    Shrunk {
        schedule: Schedule::new(best).normalized(),
        stats,
    }
}
