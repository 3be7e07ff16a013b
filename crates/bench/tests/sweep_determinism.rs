//! The sweep determinism contract (DESIGN.md §12): a 1-thread sweep and
//! an N-thread sweep of the same job set must produce byte-identical
//! reduced output and identical `BENCH` sim-metric blocks. Thread count
//! and completion order must never leak into anything canonical.

use tlbdown_bench::report::{render_bench_json, sim_blocks};
use tlbdown_bench::{bench_jobs, bench_matrix, MatrixJob};
use tlbdown_sweep::{reduce_rendered, run_jobs, Job};

/// A cheap-but-representative slice of the bench matrix: page
/// fracturing, CoW, the coherence ablation and one microbenchmark row —
/// enough to cross every determinism-relevant code path (counters,
/// latency summaries, multi-run accumulation) without making the test
/// slow in debug builds.
fn test_jobs() -> Vec<MatrixJob> {
    bench_matrix()
        .into_iter()
        .filter(|j| {
            j.id.starts_with("table4/")
                || j.id.starts_with("fig4/")
                || j.id == "fig9/quick/C0"
                || j.id == "fig5/quick/L0"
        })
        .collect()
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let jobs = test_jobs();
    assert!(jobs.len() >= 8, "need a wide enough job set to fan out");

    let render_job = |j: &MatrixJob| -> Job<String> {
        let j = j.clone();
        Job::new(j.id.clone(), move || {
            let o = j.run();
            format!("{}sim {}\n", o.rendered, o.metrics.render())
        })
    };

    let serial = run_jobs(jobs.iter().map(render_job).collect(), 1);
    let parallel = run_jobs(jobs.iter().map(render_job).collect(), 4);
    assert_eq!(serial.threads, 1);

    let a = reduce_rendered(&serial, |s| s.as_str());
    let b = reduce_rendered(&parallel, |s| s.as_str());
    assert_eq!(a, b, "reduced sweep output must not depend on thread count");
    assert!(a.contains("== job table4/row0 =="));
}

#[test]
fn bench_sim_metric_blocks_are_thread_count_invariant() {
    let jobs = test_jobs();
    let serial = render_bench_json(&run_jobs(bench_jobs(jobs.clone()), 1), "test-rev");
    let parallel = render_bench_json(&run_jobs(bench_jobs(jobs), 4), "test-rev");

    let a = sim_blocks(&serial);
    let b = sim_blocks(&parallel);
    assert_eq!(a.len(), b.len());
    for (id, sim) in &a {
        assert_eq!(
            Some(sim),
            b.get(id),
            "sim metrics for job {id} differ between 1-thread and 4-thread sweeps"
        );
    }

    // The deterministic totals (merged counters, job count) must match
    // too; only wall-clock fields may differ.
    let totals = |doc: &tlbdown_sweep::Json| {
        let t = doc.get("totals").expect("totals present");
        (
            t.get("jobs").cloned(),
            t.get("counters").expect("counters present").render(),
        )
    };
    assert_eq!(totals(&serial), totals(&parallel));
}
