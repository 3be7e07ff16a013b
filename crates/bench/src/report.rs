//! `BENCH_*.json`: building, reading back, and diffing perf snapshots.
//!
//! Every `cargo xtask` snapshot gate serializes its runs here. The
//! snapshot has two kinds of content, handled differently by the
//! regression gate:
//!
//! - **`sim` blocks** — deterministic simulation metrics (cycles,
//!   latency means, the full machine counter set). Identical across
//!   hosts, thread counts and reruns, so the gate compares them
//!   *byte-exactly* against the previous snapshot: any diff is a real
//!   behavioural change.
//! - **`wall_ns` / `totals`** — host wall-clock and speedup. Noisy and
//!   hardware-dependent, so the gate only bounds the total against the
//!   baseline at a generous tolerance.

use std::collections::BTreeMap;
use std::time::Duration;

use tlbdown_sweep::{Job, Json, SweepReport};

use crate::matrix::{JobOutput, MatrixJob};

/// Version of the `BENCH_*.json` schema.
pub(crate) const BENCH_SCHEMA_VERSION: u64 = 1;

/// Wrap matrix jobs for the sweep pool, carrying each job's config JSON
/// alongside its output so the snapshot is self-describing.
pub fn bench_jobs(jobs: Vec<MatrixJob>) -> Vec<Job<(Json, JobOutput)>> {
    jobs.into_iter()
        .map(|j| {
            let id = j.id.clone();
            Job::new(id, move || (j.config_json(), j.run()))
        })
        .collect()
}

/// Build the `BENCH_*.json` document from a finished sweep.
///
/// Everything except `git_rev`, the `wall_ns` fields and `totals` is
/// deterministic simulation state.
pub fn render_bench_json(report: &SweepReport<(Json, JobOutput)>, git_rev: &str) -> Json {
    let jobs = report
        .results
        .iter()
        .map(|r| {
            job_json(
                &r.id,
                r.output.0.clone(),
                r.output.1.metrics.to_json(),
                r.wall,
            )
        })
        .collect();
    render_snapshot(jobs, report.threads, report.elapsed, git_rev)
}

/// One finished job as a snapshot entry: its ID, configuration,
/// deterministic `sim` block and host wall-clock.
pub fn job_json(id: &str, config: Json, sim: Json, wall: Duration) -> Json {
    Json::obj()
        .with("id", Json::Str(id.into()))
        .with("config", config)
        .with("sim", sim)
        .with("wall_ns", Json::U64(wall.as_nanos() as u64))
}

/// Build a `BENCH_*.json` document from [`job_json`] entries that ran
/// on `threads` workers in `elapsed`: the jobs in ID order, plus totals
/// (summed `sim.counters`, wall-clock, serial estimate and speedup).
pub fn render_snapshot(
    mut jobs: Vec<Json>,
    threads: usize,
    elapsed: Duration,
    git_rev: &str,
) -> Json {
    jobs.sort_by(|a, b| {
        a.get("id")
            .and_then(Json::as_str)
            .cmp(&b.get("id").and_then(Json::as_str))
    });
    let mut counters_total: BTreeMap<String, u64> = BTreeMap::new();
    let mut serial_ns = 0;
    for job in &jobs {
        if let Some(Json::Obj(pairs)) = job.get("sim").and_then(|s| s.get("counters")) {
            for (k, v) in pairs {
                if let Json::U64(n) = v {
                    *counters_total.entry(k.clone()).or_insert(0) += n;
                }
            }
        }
        serial_ns += job.get("wall_ns").and_then(Json::as_u64).unwrap_or(0);
    }
    let wall_ns = elapsed.as_nanos() as u64;
    let totals = Json::obj()
        .with("jobs", Json::U64(jobs.len() as u64))
        .with(
            "counters",
            Json::Obj(
                counters_total
                    .into_iter()
                    .map(|(k, v)| (k, Json::U64(v)))
                    .collect(),
            ),
        )
        .with("wall_ns", Json::U64(wall_ns))
        .with("serial_ns", Json::U64(serial_ns))
        .with(
            "speedup_vs_serial",
            Json::F64(serial_ns as f64 / wall_ns.max(1) as f64),
        );
    Json::obj()
        .with("schema_version", Json::U64(BENCH_SCHEMA_VERSION))
        .with("git_rev", Json::Str(git_rev.into()))
        .with("threads", Json::U64(threads as u64))
        .with("jobs", Json::Arr(jobs))
        .with("totals", totals)
}

/// Job ID → `sim` block of every job in a snapshot.
fn sim_values(doc: &Json) -> BTreeMap<&str, &Json> {
    let mut out = BTreeMap::new();
    let Some(jobs) = doc.get("jobs").and_then(Json::as_arr) else {
        return out;
    };
    for job in jobs {
        if let (Some(id), Some(sim)) = (job.get("id").and_then(Json::as_str), job.get("sim")) {
            out.insert(id, sim);
        }
    }
    out
}

/// Extract the deterministic part of a snapshot: job ID → compact
/// rendering of its `sim` block. This is the unit of byte-exact
/// comparison for both the perf gate and the sweep determinism test.
pub fn sim_blocks(doc: &Json) -> BTreeMap<String, String> {
    sim_values(doc)
        .into_iter()
        .map(|(id, sim)| (id.to_string(), sim.render()))
        .collect()
}

/// Total sweep wall-clock of a snapshot, if present.
pub fn total_wall_ns(doc: &Json) -> Option<u64> {
    doc.get("totals")?.get("wall_ns")?.as_u64()
}

/// Rendering of the side of a [`SimChange`] where the path is absent.
const ABSENT: &str = "<absent>";

/// One place where a job's `sim` block differs from its baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimChange {
    /// The job's ID.
    pub id: String,
    /// Key path of the difference, rooted at the block:
    /// `sim.counters.ipis_sent`, array elements as `[i]`.
    pub path: String,
    /// Compact rendering of the value at `path` now, or `<absent>`.
    pub current: String,
    /// Compact rendering of the value at `path` in the baseline, or
    /// `<absent>`.
    pub baseline: String,
}

/// Outcome of diffing two snapshots' deterministic metric blocks.
#[derive(Clone, Debug, Default)]
pub struct SimDiff {
    /// Job IDs present now but not in the baseline (matrix grew).
    pub added: Vec<String>,
    /// Job IDs present in the baseline but gone now (matrix shrank).
    pub removed: Vec<String>,
    /// Every differing leaf of the common jobs' `sim` blocks — a
    /// behavioural regression (or an intentional protocol change needing
    /// a new baseline) — in job order, then document order.
    pub changed: Vec<SimChange>,
}

/// Compare two snapshots' `sim` blocks byte-exactly (job set changes are
/// reported separately from metric changes).
pub fn diff_sim_metrics(current: &Json, baseline: &Json) -> SimDiff {
    let cur = sim_values(current);
    let base = sim_values(baseline);
    let mut diff = SimDiff::default();
    for (id, sim) in &cur {
        match base.get(id) {
            None => diff.added.push(id.to_string()),
            Some(b) => {
                for (path, current, baseline) in differences(sim, b, "sim") {
                    diff.changed.push(SimChange {
                        id: id.to_string(),
                        path,
                        current,
                        baseline,
                    });
                }
            }
        }
    }
    for id in base.keys() {
        if !cur.contains_key(id) {
            diff.removed.push(id.to_string());
        }
    }
    diff
}

/// The members of an object (`.key`) or elements of an array (`[i]`),
/// labelled as path segments; `None` for a scalar.
fn children(v: &Json) -> Option<Vec<(String, &Json)>> {
    match v {
        Json::Obj(pairs) => Some(pairs.iter().map(|(k, v)| (format!(".{k}"), v)).collect()),
        Json::Arr(items) => Some(
            items
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("[{i}]"), v))
                .collect(),
        ),
        _ => None,
    }
}

/// Every place `cur` and `base` render differently, as
/// `(path, current, baseline)`: each differing leaf, in `cur`'s document
/// order, then the members only `base` has. Members pair by label, so a
/// member present on only one side is reported with `<absent>` on the
/// other; members that match but sit in another order report `path`
/// itself.
pub fn differences(cur: &Json, base: &Json, path: &str) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    if cur.render() == base.render() {
        return out;
    }
    if let (Some(a), Some(b)) = (children(cur), children(base)) {
        for (label, va) in &a {
            match b.iter().find(|(l, _)| l == label) {
                Some((_, vb)) => out.extend(differences(va, vb, &format!("{path}{label}"))),
                None => out.push((format!("{path}{label}"), va.render(), ABSENT.into())),
            }
        }
        for (label, vb) in &b {
            if !a.iter().any(|(l, _)| l == label) {
                out.push((format!("{path}{label}"), ABSENT.into(), vb.render()));
            }
        }
    }
    if out.is_empty() {
        out.push((path.to_string(), cur.render(), base.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Scale;
    use crate::matrix::JobSpec;
    use tlbdown_sweep::run_jobs;

    fn tiny_snapshot() -> Json {
        let jobs = bench_jobs(vec![
            MatrixJob {
                id: "t4/r0".into(),
                scale: Scale::Quick,
                spec: JobSpec::Table4Row { row: 0 },
            },
            MatrixJob {
                id: "t4/r1".into(),
                scale: Scale::Quick,
                spec: JobSpec::Table4Row { row: 1 },
            },
        ]);
        render_bench_json(&run_jobs(jobs, 2), "deadbeef")
    }

    #[test]
    fn snapshot_round_trips_and_diffs_clean_against_itself() {
        let a = tiny_snapshot();
        let parsed = Json::parse(&a.render_pretty()).expect("snapshot parses");
        assert_eq!(parsed.get("schema_version"), Some(&Json::U64(1)));
        let diff = diff_sim_metrics(&a, &parsed);
        assert!(diff.changed.is_empty() && diff.added.is_empty() && diff.removed.is_empty());
        assert_eq!(sim_blocks(&a).len(), 2);
        assert!(total_wall_ns(&a).is_some());
    }

    #[test]
    fn diff_flags_changed_and_added_jobs() {
        let a = tiny_snapshot();
        // Baseline with one job missing and one metric of the other
        // altered.
        let mut base_jobs: Vec<Json> = a.get("jobs").unwrap().as_arr().unwrap().to_vec();
        base_jobs.pop();
        let Json::Obj(job) = &mut base_jobs[0] else {
            panic!("jobs are objects")
        };
        let Some((_, Json::Obj(sim))) = job.iter_mut().find(|(k, _)| k == "sim") else {
            panic!("jobs carry a sim block")
        };
        let (_, value) = sim
            .iter_mut()
            .find(|(k, _)| k == "selective_flush_misses")
            .expect("table4 rows report selective misses");
        let misses = value.as_u64().expect("a count");
        *value = Json::U64(misses + 1);
        let baseline = Json::obj().with("jobs", Json::Arr(base_jobs));
        let diff = diff_sim_metrics(&a, &baseline);
        assert_eq!(
            diff.changed,
            vec![SimChange {
                id: "t4/r0".into(),
                path: "sim.selective_flush_misses".into(),
                current: misses.to_string(),
                baseline: (misses + 1).to_string(),
            }]
        );
        assert_eq!(diff.added, vec!["t4/r1".to_string()]);
        assert!(diff.removed.is_empty());
        assert!(!diff.changed.is_empty());
    }

    #[test]
    fn diff_reports_a_key_missing_on_one_side() {
        let cur = Json::obj()
            .with("a", Json::U64(1))
            .with("counters", Json::obj().with("x", Json::U64(2)));
        let base = Json::obj()
            .with("a", Json::U64(1))
            .with("counters", Json::obj());
        assert_eq!(
            differences(&cur, &base, "sim"),
            [("sim.counters.x".into(), "2".into(), ABSENT.into())]
        );
        assert_eq!(
            differences(&base, &cur, "sim"),
            [("sim.counters.x".into(), ABSENT.into(), "2".into())]
        );
        assert_eq!(differences(&cur, &cur, "sim"), []);
        // Same members in another order: no leaf differs, the block does.
        let swapped = Json::obj()
            .with("counters", Json::obj().with("x", Json::U64(2)))
            .with("a", Json::U64(1));
        assert_eq!(
            differences(&swapped, &cur, "sim"),
            [("sim".into(), swapped.render(), cur.render())]
        );
    }

    #[test]
    fn diff_lists_every_changed_key_of_a_job() {
        let snapshot = |digest: u64, ipis: u64| {
            let sim = Json::obj()
                .with("state_digest", Json::U64(digest))
                .with("steps", Json::U64(7))
                .with("counters", Json::obj().with("ipis", Json::U64(ipis)));
            let job = Json::obj()
                .with("id", Json::Str("j".into()))
                .with("sim", sim);
            Json::obj().with("jobs", Json::Arr(vec![job]))
        };
        let change = |path: &str, current: &str, baseline: &str| SimChange {
            id: "j".into(),
            path: path.into(),
            current: current.into(),
            baseline: baseline.into(),
        };
        let diff = diff_sim_metrics(&snapshot(2, 5), &snapshot(1, 4));
        assert_eq!(
            diff.changed,
            [
                change("sim.state_digest", "2", "1"),
                change("sim.counters.ipis", "5", "4"),
            ]
        );
    }
}
