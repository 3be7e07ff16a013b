//! The sweep determinism contract (DESIGN.md §12): a 1-thread sweep and
//! an N-thread sweep of the same job set must produce byte-identical
//! rendered figures and identical `BENCH` sim-metric blocks. Thread count
//! and completion order must never leak into anything canonical.

use tlbdown_bench::report::{render_bench_json, sim_blocks};
use tlbdown_bench::{bench_jobs, bench_matrix, render_targets, MatrixJob, Scale};
use tlbdown_sweep::run_jobs;

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
fn figures_render_identically_at_any_thread_count() {
    // Cheap quick-scale targets that between them read every kind of
    // printed value: text (Fig 4), mean-and-σ cells (Fig 9), f64 metrics
    // (Table 3) and typed rows (Table 4).
    let targets = ["fig4", "fig9", "table3", "table4"];
    let serial = render_targets(&targets, Scale::Quick, 1).expect("every job runs clean");
    let pooled = render_targets(&targets, Scale::Quick, 4).expect("every job runs clean");
    assert_eq!(
        serial, pooled,
        "rendered figures must not depend on thread count"
    );
    for title in ["Figure 4 ablation", "Figure 9:", "Table 3:", "Table 4:"] {
        assert!(serial.contains(title), "missing {title}");
    }
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
