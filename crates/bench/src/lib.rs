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

pub use ablations::{ceiling_sweep, invpcid_sensitivity, paravirt_hint};
pub use figures::{fig4_ablation, render_targets, Scale, TARGETS};
pub use fractured::table4;
pub use loc::{render_table2, table2};
pub use matrix::{
    bench_matrix, full_matrix, optbench_levels, optbench_matrix, scale_matrix, storm_faults,
    storm_matrix, topo_specs, topobench_matrix, JobOutput, JobSpec, MatrixJob,
};
pub use metrics::JobMetrics;
pub use report::{bench_jobs, diff_sim_metrics, render_bench_json, sim_blocks, SimChange, SimDiff};
