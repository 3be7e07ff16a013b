//! The figure/table regeneration library.
//!
//! Every cell of the paper's evaluation is a [`MatrixJob`]; the
//! `figures` binary runs the requested tables' jobs on the sweep pool and
//! renders the rows the paper reports from their outputs
//! ([`render_targets`]). DESIGN.md §5 maps each experiment to its module,
//! and EXPERIMENTS.md records a full run.

pub mod ablations;
pub mod figures;
pub mod fractured;
pub mod loc;
pub mod matrix;
pub mod metrics;
pub mod report;

pub use figures::{render_targets, Scale, TARGETS};
pub use loc::render_table2;
pub use matrix::{
    bench_matrix, optbench_levels, optbench_matrix, scale_matrix, storm_matrix, topobench_matrix,
    JobOutput, JobSpec, MatrixJob,
};
pub use metrics::JobMetrics;
pub use report::{bench_jobs, diff_sim_metrics, render_bench_json, sim_blocks, SimChange, SimDiff};
