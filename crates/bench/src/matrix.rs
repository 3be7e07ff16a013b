//! The sweep job matrix: every figure/table of the paper's evaluation
//! decomposed into independent, deterministic jobs.
//!
//! A [`MatrixJob`] is the only code that builds and runs a paper cell.
//! Each job builds its own machines, runs to completion, and reports a
//! structured [`JobMetrics`] block plus the values the paper tables print
//! ([`Printed`]). Jobs share nothing, so the sweep engine
//! (`tlbdown-sweep`) can fan them across host cores and reduce in
//! canonical job-ID order — the parallel reduction is byte-identical to
//! a serial one (see DESIGN.md §12, and the determinism tests in
//! `tests/sweep_determinism.rs`). [`crate::figures`] renders the tables
//! from the outputs; the `cargo xtask` snapshot gates record the metrics.
//!
//! [`bench_matrix`] is the calibrated subset behind `cargo xtask bench`:
//! small enough for CI (a few seconds of serial simulation), wide
//! enough that every protocol path (all opt levels, safe and unsafe
//! mode, fracturing, CoW) leaves a metric in `BENCH_*.json`.

use tlbdown_core::OptConfig;
use tlbdown_kernel::TlbGeometry;
use tlbdown_sim::fault::FaultSpec;
use tlbdown_sim::Summary;
use tlbdown_sweep::Json;
use tlbdown_topo::TopologySpec;
use tlbdown_types::Cycles;
use tlbdown_workloads::apache::{run_apache, ApacheCfg};
use tlbdown_workloads::cow::{run_cow_bench, CowBenchCfg};
use tlbdown_workloads::madvise::{
    run_madvise_bench, run_reuse_churn, run_scale_tier, MadviseBenchCfg, Placement, ReuseChurnCfg,
    ScaleTierCfg,
};
use tlbdown_workloads::storm::{run_storm, AutonumaIntensity, StormCfg, StormIntensity};
use tlbdown_workloads::sysbench::{run_sysbench, SysbenchCfg};

use crate::ablations::{ceiling_sweep, invpcid_sensitivity, paravirt_hint};
use crate::figures::{app_levels, fig4_ablation, fig_mode, micro_levels, Scale};
use crate::fractured::{table4, Table4Row};
use crate::metrics::JobMetrics;

/// What one sweep job runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSpec {
    /// One optimization-level row of a Figure 5–8 microbenchmark: all
    /// three placements, initiator and responder sides.
    MicroRow {
        /// Figure number (5–8): selects safe/unsafe mode and PTE count.
        fig: u32,
        /// Index into [`micro_levels`] for the figure's mode.
        level: usize,
    },
    /// Table 3: latency reduction of the four §3 techniques.
    Table3,
    /// The Figure 4 coherence-traffic ablation.
    Fig4,
    /// One Figure 9 CoW configuration (both modes).
    Fig9 {
        /// 0 = base, 1 = all §3, 2 = all + CoW trick.
        config: usize,
    },
    /// One optimization level of a Figure 10/11 application benchmark:
    /// the full thread/core sweep at that level, reported as
    /// speedup-vs-baseline.
    AppLevel {
        /// 10 = Sysbench, 11 = Apache.
        fig: u32,
        /// Safe (mitigations on) mode?
        safe: bool,
        /// Index into [`app_levels`] (level 0, the baseline itself, has
        /// no speedup row and is skipped).
        level: usize,
    },
    /// One Table 4 page-fracturing row.
    Table4Row {
        /// Row index 0..6 in paper order.
        row: usize,
    },
    /// One DESIGN.md ablation (0 = ceiling, 1 = INVPCID, 2 = paravirt).
    Ablation {
        /// Which ablation.
        which: usize,
    },
    /// The dual-socket scale tier (DESIGN.md §14): 2×56 logical cores,
    /// one shared mm, madvise initiators broadcasting into busy loops,
    /// run to a fixed engine-dispatch count.
    ScaleTier,
    /// One shootdown-storm survival cell (`cargo xtask storm`): a storm
    /// intensity × fault preset, run once at every cumulative
    /// optimization level L0..L6, recording per level the survival
    /// verdict (violations, wedge, thread completion), the victim's
    /// fault-latency signal percentiles and the run's digest and sim
    /// cycles.
    Storm {
        /// Storm intensity (first matrix axis).
        intensity: StormIntensity,
        /// Index into [`storm_faults`] (second matrix axis).
        fault: usize,
        /// Route the storm over the mesh fabric instead of the flat
        /// reference interconnect (the adversary's broadcast IPIs then
        /// queue on shared links).
        mesh: bool,
    },
    /// One topology × page-size cell of the `BENCH_6.json` interconnect
    /// matrix (`cargo xtask topobench`): the dual-socket scale tier
    /// re-run under a routed interconnect and the Skylake-SP
    /// set-associative TLB geometry, with either the 4K madvise
    /// initiators or the THP-arena churn initiators, recording the
    /// per-core-summed TLB capacity-pressure stats.
    TopoCell {
        /// Index into [`topo_specs`]: 0 = flat, 1 = ring, 2 = mesh.
        topo: usize,
        /// Run the THP-arena initiators instead of the 4K ones.
        thp: bool,
    },
    /// The huge-page fracture-pressure table: the same tier 4K-only vs
    /// THP-churning under the flat interconnect + Skylake-SP geometry,
    /// so ranged shootdowns that splinter promoted 2M leaves show up as
    /// set-associative STLB capacity pressure instead of vanishing into
    /// an infinite flat TLB.
    FracturePressure,
    /// One reuse-churn cell of the `BENCH_7.json` follow-on-level
    /// matrix (`cargo xtask optbench`): the allocator-churn adversary
    /// from `tlbdown_workloads::madvise` run at one cumulative
    /// optimization level, in either the window-fitting shape (level 7
    /// elides every steady-state shootdown) or the overflowing shape
    /// (every park capacity-evicts and the deferred debt comes due).
    ReuseChurn {
        /// Working set fits the reuse window (the best case) instead of
        /// overflowing it every round (the adversarial case).
        fitting: bool,
        /// Cumulative optimization level (6 = full paper stack,
        /// 7 = +reuse-skip, 8 = +numa-pte).
        level: usize,
    },
    /// One AutoNUMA migration-storm cell of the `BENCH_7.json` matrix:
    /// the brisk shootdown storm with the hinting-fault balancer
    /// layered on, split across two sockets so every balancer protect
    /// and victim hinting fault is a cross-socket PTE update — the
    /// traffic numaPTE's replica sync (level 8) exists to survive.
    AutonumaCell {
        /// Balancer intensity (periodic background scan vs
        /// migration-storm rates).
        intensity: AutonumaIntensity,
        /// Cumulative optimization level (6 = full paper stack,
        /// 7 = +reuse-skip, 8 = +numa-pte).
        level: usize,
    },
}

/// One independent unit of sweep work.
#[derive(Clone, Debug)]
pub struct MatrixJob {
    /// Stable job ID; the canonical reduction order is the sorted order
    /// of these.
    pub id: String,
    /// Simulated-work scale.
    pub(crate) scale: Scale,
    /// The experiment.
    pub(crate) spec: JobSpec,
}

/// What a job produces: the deterministic metric block plus the values
/// the paper tables print from it.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// Sim-side metrics for `BENCH_*.json`.
    pub(crate) metrics: JobMetrics,
    /// What [`crate::figures`] prints from this job.
    pub(crate) printed: Printed,
}

/// The values a paper table prints from one job, beyond its metrics.
#[derive(Clone, Debug)]
pub(crate) enum Printed {
    /// Nothing beyond the metrics: Table 3 and Figures 10–11 print their
    /// `reduction_*` and `speedup_*` metrics, and no table prints the
    /// snapshot-only kinds.
    Metrics,
    /// Mean-and-σ cells. A Figure 5–8 row holds the initiator cell of
    /// each placement ([`Placement::ALL`] order), then the responder
    /// cells; a Figure 9 configuration holds the safe-mode cell, then
    /// the unsafe one.
    Summaries(Vec<Summary>),
    /// One Table 4 row.
    Table4(Table4Row),
    /// Finished text: the Figure 4 ablation and the DESIGN.md ablations.
    Text(String),
}

impl MatrixJob {
    fn new(id: String, scale: Scale, spec: JobSpec) -> Self {
        MatrixJob { id, scale, spec }
    }

    /// The job's configuration as JSON (recorded next to its metrics in
    /// `BENCH_*.json` so a snapshot is self-describing).
    pub(crate) fn config_json(&self) -> Json {
        let kind = match &self.spec {
            JobSpec::MicroRow { .. } => "micro_row",
            JobSpec::Table3 => "table3",
            JobSpec::Fig4 => "fig4",
            JobSpec::Fig9 { .. } => "fig9",
            JobSpec::AppLevel { .. } => "app_level",
            JobSpec::Table4Row { .. } => "table4_row",
            JobSpec::Ablation { .. } => "ablation",
            JobSpec::ScaleTier => "scale_tier",
            JobSpec::Storm { .. } => "storm",
            JobSpec::TopoCell { .. } => "topo_cell",
            JobSpec::FracturePressure => "fracture_pressure",
            JobSpec::ReuseChurn { .. } => "reuse_churn",
            JobSpec::AutonumaCell { .. } => "autonuma_cell",
        };
        let mut obj = Json::obj()
            .with("kind", Json::Str(kind.into()))
            .with("scale", Json::Str(self.scale.label().into()));
        match &self.spec {
            JobSpec::MicroRow { fig, level } => {
                obj = obj
                    .with("fig", Json::U64(*fig as u64))
                    .with("level", Json::U64(*level as u64));
            }
            JobSpec::Fig9 { config } => {
                obj = obj.with("config", Json::U64(*config as u64));
            }
            JobSpec::AppLevel { fig, safe, level } => {
                obj = obj
                    .with("fig", Json::U64(*fig as u64))
                    .with("safe", Json::Bool(*safe))
                    .with("level", Json::U64(*level as u64));
            }
            JobSpec::Table4Row { row } => {
                obj = obj.with("row", Json::U64(*row as u64));
            }
            JobSpec::Ablation { which } => {
                obj = obj.with("which", Json::U64(*which as u64));
            }
            JobSpec::Storm {
                intensity,
                fault,
                mesh,
            } => {
                let (fault_name, _) = storm_faults()
                    .into_iter()
                    .nth(*fault)
                    .expect("fault index in storm_faults range");
                obj = obj
                    .with("intensity", Json::Str(intensity.label().into()))
                    .with("fault", Json::Str(fault_name.into()));
                // Only the mesh matrix records a fabric key, so the flat
                // matrix's config blocks stay byte-identical to the
                // committed BENCH_3.json.
                if *mesh {
                    obj = obj.with("fabric", Json::Str("mesh".into()));
                }
            }
            JobSpec::TopoCell { topo, thp } => {
                let (name, _) = topo_specs()
                    .into_iter()
                    .nth(*topo)
                    .expect("topology index in topo_specs range");
                obj = obj
                    .with("topology", Json::Str(name.into()))
                    .with("thp", Json::Bool(*thp));
            }
            JobSpec::ReuseChurn { fitting, level } => {
                obj = obj
                    .with("fitting", Json::Bool(*fitting))
                    .with("level", Json::U64(*level as u64));
            }
            JobSpec::AutonumaCell { intensity, level } => {
                obj = obj
                    .with("autonuma", Json::Str(intensity.label().into()))
                    .with("level", Json::U64(*level as u64))
                    .with("sockets", Json::U64(u64::from(AUTONUMA_CELL_SOCKETS)));
            }
            JobSpec::Table3 | JobSpec::Fig4 | JobSpec::ScaleTier | JobSpec::FracturePressure => {}
        }
        obj
    }

    /// Execute the job. Pure: everything it touches is built here.
    pub(crate) fn run(&self) -> JobOutput {
        match &self.spec {
            JobSpec::MicroRow { fig, level } => run_micro_row(*fig, *level, self.scale),
            JobSpec::Table3 => run_table3(self.scale),
            JobSpec::Fig4 => JobOutput {
                metrics: JobMetrics::new(),
                printed: Printed::Text(fig4_ablation(self.scale)),
            },
            JobSpec::Fig9 { config } => run_fig9(*config, self.scale),
            JobSpec::AppLevel { fig, safe, level } => {
                run_app_level(*fig, *safe, *level, self.scale)
            }
            JobSpec::Table4Row { row } => run_table4_row(*row),
            JobSpec::Ablation { which } => JobOutput {
                metrics: JobMetrics::new(),
                printed: Printed::Text(match which {
                    0 => ceiling_sweep(),
                    1 => invpcid_sensitivity(),
                    _ => paravirt_hint(),
                }),
            },
            JobSpec::ScaleTier => run_scale_tier_job(self.scale),
            JobSpec::Storm {
                intensity,
                fault,
                mesh,
            } => run_storm_cell(*intensity, *fault, *mesh, self.scale),
            JobSpec::TopoCell { topo, thp } => run_topo_cell(*topo, *thp, self.scale),
            JobSpec::FracturePressure => run_fracture_pressure(self.scale),
            JobSpec::ReuseChurn { fitting, level } => {
                run_reuse_churn_cell(*fitting, *level, self.scale)
            }
            JobSpec::AutonumaCell { intensity, level } => {
                run_autonuma_cell(*intensity, *level, self.scale)
            }
        }
    }
}

fn run_micro_row(fig: u32, level: usize, scale: Scale) -> JobOutput {
    let (safe, ptes) = fig_mode(fig);
    let (_, opts) = micro_levels(safe)[level];
    let mut metrics = JobMetrics::new();
    let mut initiators = Vec::new();
    let mut responders = Vec::new();
    for p in Placement::ALL {
        let mut cfg = MadviseBenchCfg::new(p, ptes, safe, opts);
        cfg.iters = scale.madvise_iters();
        cfg.runs = scale.runs();
        let r = run_madvise_bench(&cfg).expect("micro row cell runs clean");
        let key = p.label().replace('-', "_");
        metrics.put_f64(&format!("initiator_{key}_mean"), r.initiator.mean());
        metrics.put_f64(&format!("responder_{key}_mean"), r.responder.mean());
        metrics.put_u64(&format!("sim_cycles_{key}"), r.sim_cycles);
        metrics.merge_counters(&r.counters);
        initiators.push(r.initiator);
        responders.push(r.responder);
    }
    initiators.append(&mut responders);
    JobOutput {
        metrics,
        printed: Printed::Summaries(initiators),
    }
}

fn run_table3(scale: Scale) -> JobOutput {
    let mut metrics = JobMetrics::new();
    for ptes in [1u64, 10] {
        for safe in [true, false] {
            let mut base_cfg =
                MadviseBenchCfg::new(Placement::DiffSocket, ptes, safe, OptConfig::baseline());
            base_cfg.iters = scale.madvise_iters();
            base_cfg.runs = scale.runs();
            let mut opt_cfg = base_cfg.clone();
            opt_cfg.opts = OptConfig::general_four();
            let base = run_madvise_bench(&base_cfg).expect("table3 baseline runs clean");
            let opt = run_madvise_bench(&opt_cfg).expect("table3 optimized runs clean");
            let ri = 100.0 * (1.0 - opt.initiator.mean() / base.initiator.mean());
            let rr = 100.0 * (1.0 - opt.responder.mean() / base.responder.mean());
            let mode = if safe { "safe" } else { "unsafe" };
            metrics.put_f64(&format!("reduction_initiator_{mode}_{ptes}pte"), ri);
            metrics.put_f64(&format!("reduction_responder_{mode}_{ptes}pte"), rr);
            metrics.merge_counters(&base.counters);
            metrics.merge_counters(&opt.counters);
        }
    }
    JobOutput {
        metrics,
        printed: Printed::Metrics,
    }
}

fn run_fig9(config: usize, scale: Scale) -> JobOutput {
    let opts = match config {
        0 => OptConfig::baseline(),
        1 => OptConfig::general_four(),
        _ => OptConfig::general_four().with_cow(true),
    };
    let mut metrics = JobMetrics::new();
    let mut cells = Vec::new();
    for safe in [true, false] {
        let mut cfg = CowBenchCfg::new(safe, opts);
        cfg.pages = match scale {
            Scale::Quick => 150,
            Scale::Full => 400,
        };
        cfg.runs = scale.runs();
        let r = run_cow_bench(&cfg);
        let mode = if safe { "safe" } else { "unsafe" };
        metrics.put_f64(&format!("latency_{mode}_mean"), r.latency.mean());
        metrics.put_u64(&format!("sim_cycles_{mode}"), r.sim_cycles);
        metrics.merge_counters(&r.counters);
        cells.push(r.latency);
    }
    JobOutput {
        metrics,
        printed: Printed::Summaries(cells),
    }
}

fn run_app_level(fig: u32, safe: bool, level: usize, scale: Scale) -> JobOutput {
    let (_, opts) = app_levels(safe)[level];
    assert!(level > 0, "level 0 is the baseline; no speedup row");
    let mut metrics = JobMetrics::new();
    if fig == 10 {
        let mut scale_cfg = SysbenchCfg::new(1, safe, OptConfig::baseline());
        scale_cfg.duration = scale.sysbench_duration();
        for t in scale.sysbench_threads() {
            let mut base_cfg = scale_cfg.clone();
            base_cfg.threads = t;
            let mut opt_cfg = base_cfg.clone();
            opt_cfg.opts = opts;
            let base = run_sysbench(&base_cfg);
            let opt = run_sysbench(&opt_cfg);
            let s = opt.throughput / base.throughput;
            metrics.put_f64(&format!("speedup_t{t:02}"), s);
            metrics.merge_counters(&opt.counters);
        }
    } else {
        let mut scale_cfg = ApacheCfg::new(1, safe, OptConfig::baseline());
        scale_cfg.duration = scale.apache_duration();
        for c in scale.apache_cores() {
            let mut base_cfg = scale_cfg.clone();
            base_cfg.cores = c;
            let mut opt_cfg = base_cfg.clone();
            opt_cfg.opts = opts;
            let base = run_apache(&base_cfg);
            let opt = run_apache(&opt_cfg);
            let s = opt.throughput / base.throughput;
            metrics.put_f64(&format!("speedup_c{c:02}"), s);
            metrics.merge_counters(&opt.counters);
        }
    }
    JobOutput {
        metrics,
        printed: Printed::Metrics,
    }
}

fn run_table4_row(row: usize) -> JobOutput {
    let r = table4().into_iter().nth(row).expect("table 4 has six rows");
    let mut metrics = JobMetrics::new();
    metrics.put_u64("full_flush_misses", r.full_flush_misses);
    metrics.put_u64("selective_flush_misses", r.selective_flush_misses);
    JobOutput {
        metrics,
        printed: Printed::Table4(r),
    }
}

fn run_scale_tier_job(scale: Scale) -> JobOutput {
    let cfg = match scale {
        Scale::Quick => ScaleTierCfg::smoke(),
        Scale::Full => ScaleTierCfg::dual_socket_56(10_000_000),
    };
    let r = run_scale_tier(&cfg).expect("scale tier runs clean");
    let mut metrics = JobMetrics::new();
    metrics.put_u64("events", r.events);
    metrics.put_u64("sim_cycles", r.sim_cycles);
    metrics.put_u64("state_digest", r.digest);
    metrics.merge_counters(&r.counters);
    JobOutput {
        metrics,
        printed: Printed::Metrics,
    }
}

/// The storm matrix's fault axis: delivery/entry faults layered under
/// the shootdown storm, ending in the composite preset that stacks IPI
/// drop, delay and duplication at once. The escalation ladder must keep
/// every cell alive (zero violations, no wedge) under all of them.
pub(crate) fn storm_faults() -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("none", FaultSpec::none()),
        ("ipi-drop", FaultSpec::ipi_drop()),
        ("late-responder", FaultSpec::late_responder()),
        ("combined", FaultSpec::combined()),
    ]
}

/// Workload deadline for one storm run at `scale`. The post-deadline
/// drain window stays at the [`StormCfg`] default either way — drain is
/// event-driven and costs nothing once the machine quiesces.
fn storm_duration(scale: Scale) -> Cycles {
    match scale {
        Scale::Quick => Cycles::new(1_200_000),
        Scale::Full => Cycles::new(4_000_000),
    }
}

fn run_storm_cell(intensity: StormIntensity, fault: usize, mesh: bool, scale: Scale) -> JobOutput {
    let (_, fault_spec) = storm_faults()
        .into_iter()
        .nth(fault)
        .expect("fault index in storm_faults range");
    let mut metrics = JobMetrics::new();
    // Paper levels only: each cell's sim block is byte-pinned by the
    // committed BENCH_3.json, so the follow-on levels must not extend
    // this loop.
    for level in 0..=OptConfig::PAPER_MAX_LEVEL {
        let mut cfg = StormCfg::new(intensity, OptConfig::cumulative(level));
        cfg.fault = fault_spec.clone();
        cfg.duration = storm_duration(scale);
        if mesh {
            cfg.interconnect = TopologySpec::Mesh;
        }
        let a = run_storm(&cfg).expect("storm cell runs clean");
        metrics.put_u64(&format!("L{level}_violations"), a.violations as u64);
        metrics.put_u64(&format!("L{level}_wedged"), a.wedged as u64);
        metrics.put_u64(&format!("L{level}_threads_done"), a.threads_done as u64);
        metrics.put_u64(&format!("L{level}_victim_faults"), a.victim_faults);
        metrics.put_u64(&format!("L{level}_fault_p50"), a.fault_p50);
        metrics.put_u64(&format!("L{level}_fault_p90"), a.fault_p90);
        metrics.put_u64(&format!("L{level}_fault_p99"), a.fault_p99);
        metrics.put_u64(&format!("L{level}_monitor_protects"), a.monitor_protects);
        metrics.put_u64(
            &format!("L{level}_bystander_requests"),
            a.bystander_requests,
        );
        metrics.put_u64(&format!("L{level}_sim_cycles"), a.sim_cycles);
        metrics.put_u64(&format!("L{level}_digest"), a.digest);
        metrics.merge_counters(&a.counters);
    }
    JobOutput {
        metrics,
        printed: Printed::Metrics,
    }
}

/// The topobench topology axis, in job order: the flat reference model,
/// the bidirectional ring, and the 2D mesh.
pub(crate) fn topo_specs() -> Vec<(&'static str, TopologySpec)> {
    vec![
        ("flat", TopologySpec::Flat),
        ("ring", TopologySpec::Ring),
        ("mesh", TopologySpec::Mesh),
    ]
}

/// Tier shape for one topobench cell: the smoke tier at `Quick`, the
/// 2×56 tier at a reduced dispatch target at `Full` — seven cells (run
/// again by the gate's second thread-count pass) must stay
/// within a CI-friendly wall-clock budget, and topology/geometry
/// contrast saturates well before the BENCH_2 ten-million-event target.
fn topo_tier(scale: Scale) -> ScaleTierCfg {
    match scale {
        Scale::Quick => ScaleTierCfg::smoke(),
        Scale::Full => ScaleTierCfg::dual_socket_56(2_000_000),
    }
}

fn run_topo_cell(topo: usize, thp: bool, scale: Scale) -> JobOutput {
    let (_, spec) = topo_specs()
        .into_iter()
        .nth(topo)
        .expect("topology index in topo_specs range");
    let mut cfg = topo_tier(scale);
    cfg.interconnect = spec;
    cfg.thp = thp;
    cfg.tlb_geometry = Some(TlbGeometry::skylake_sp());
    let a = run_scale_tier(&cfg).expect("topo cell runs clean");
    let mut metrics = JobMetrics::new();
    metrics.put_u64("events", a.events);
    metrics.put_u64("sim_cycles", a.sim_cycles);
    metrics.put_u64("state_digest", a.digest);
    metrics.put_u64("tlb_hits", a.tlb_hits);
    metrics.put_u64("tlb_misses", a.tlb_misses);
    metrics.put_u64("stlb_hits", a.stlb_hits);
    metrics.put_u64("tlb_evictions", a.tlb_evictions);
    metrics.put_u64("tlb_fractures", a.tlb_fractures);
    metrics.merge_counters(&a.counters);
    JobOutput {
        metrics,
        printed: Printed::Metrics,
    }
}

fn run_fracture_pressure(scale: Scale) -> JobOutput {
    let mut metrics = JobMetrics::new();
    for thp in [false, true] {
        let mut cfg = topo_tier(scale);
        cfg.thp = thp;
        cfg.tlb_geometry = Some(TlbGeometry::skylake_sp());
        let r = run_scale_tier(&cfg).expect("fracture cell runs clean");
        let key = if thp { "thp" } else { "4k" };
        metrics.put_u64(&format!("{key}_tlb_misses"), r.tlb_misses);
        metrics.put_u64(&format!("{key}_stlb_hits"), r.stlb_hits);
        metrics.put_u64(&format!("{key}_tlb_evictions"), r.tlb_evictions);
        metrics.put_u64(&format!("{key}_tlb_fractures"), r.tlb_fractures);
        metrics.put_u64(&format!("{key}_thp_promote"), r.counters.get("thp_promote"));
        metrics.put_u64(&format!("{key}_thp_split"), r.counters.get("thp_split"));
        metrics.put_u64(&format!("{key}_state_digest"), r.digest);
        metrics.put_u64(&format!("{key}_sim_cycles"), r.sim_cycles);
    }
    JobOutput {
        metrics,
        printed: Printed::Metrics,
    }
}

/// Sockets every [`JobSpec::AutonumaCell`] runs across. Two sockets
/// make each balancer protect and hinting fault a cross-socket PTE
/// update, so level 8's replica-sync shootdowns actually fire; the
/// single-socket storm cells stay in `BENCH_3.json`.
const AUTONUMA_CELL_SOCKETS: u32 = 2;

/// Churn rounds per reuse cell at `scale`: enough at `Quick` for the
/// steady-state elision to dominate warm-up, tripled at `Full`.
fn reuse_churn_iters(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 40,
        Scale::Full => 120,
    }
}

fn run_reuse_churn_cell(fitting: bool, level: usize, scale: Scale) -> JobOutput {
    let opts = OptConfig::cumulative(level);
    let mut cfg = if fitting {
        ReuseChurnCfg::fitting(opts)
    } else {
        ReuseChurnCfg::overflowing(opts)
    };
    cfg.iters = reuse_churn_iters(scale);
    let a = run_reuse_churn(&cfg).expect("reuse churn cell runs clean");
    let mut metrics = JobMetrics::new();
    metrics.put_u64("shootdowns", a.shootdowns);
    metrics.put_u64("reuse_parks", a.reuse_parks);
    metrics.put_u64("reuse_hits", a.reuse_hits);
    metrics.put_u64("reuse_evictions", a.reuse_evictions);
    metrics.put_u64("debt_flushes", a.debt_flushes);
    metrics.put_f64("madvise_mean", a.madvise_mean);
    metrics.put_u64("sim_cycles", a.sim_cycles);
    metrics.put_u64("state_digest", a.digest);
    metrics.merge_counters(&a.counters);
    JobOutput {
        metrics,
        printed: Printed::Metrics,
    }
}

fn run_autonuma_cell(intensity: AutonumaIntensity, level: usize, scale: Scale) -> JobOutput {
    let mut cfg =
        StormCfg::new(StormIntensity::Brisk, OptConfig::cumulative(level)).with_autonuma(intensity);
    cfg.sockets = AUTONUMA_CELL_SOCKETS;
    cfg.duration = storm_duration(scale);
    let a = run_storm(&cfg).expect("autonuma cell runs clean");
    let mut metrics = JobMetrics::new();
    metrics.put_u64("violations", a.violations as u64);
    metrics.put_u64("wedged", a.wedged as u64);
    metrics.put_u64("threads_done", a.threads_done as u64);
    metrics.put_u64("autonuma_scans", a.autonuma_scans);
    metrics.put_u64("replica_syncs", a.replica_syncs);
    metrics.put_u64("victim_faults", a.victim_faults);
    metrics.put_u64("fault_p50", a.fault_p50);
    metrics.put_u64("fault_p90", a.fault_p90);
    metrics.put_u64("fault_p99", a.fault_p99);
    metrics.put_u64("monitor_protects", a.monitor_protects);
    metrics.put_u64("bystander_requests", a.bystander_requests);
    metrics.put_u64("sim_cycles", a.sim_cycles);
    metrics.put_u64("state_digest", a.digest);
    metrics.merge_counters(&a.counters);
    JobOutput {
        metrics,
        printed: Printed::Metrics,
    }
}

/// The full sweep matrix at `scale`: every figure/table decomposed along
/// its optimization-level axis.
pub(crate) fn full_matrix(scale: Scale) -> Vec<MatrixJob> {
    let s = scale.label();
    let mut jobs = Vec::new();
    for fig in 5..=8u32 {
        let (safe, _) = fig_mode(fig);
        for level in 0..micro_levels(safe).len() {
            jobs.push(MatrixJob::new(
                format!("fig{fig}/{s}/L{level}"),
                scale,
                JobSpec::MicroRow { fig, level },
            ));
        }
    }
    jobs.push(MatrixJob::new(
        format!("table3/{s}"),
        scale,
        JobSpec::Table3,
    ));
    jobs.push(MatrixJob::new(format!("fig4/{s}"), scale, JobSpec::Fig4));
    for config in 0..3 {
        jobs.push(MatrixJob::new(
            format!("fig9/{s}/C{config}"),
            scale,
            JobSpec::Fig9 { config },
        ));
    }
    for fig in [10u32, 11] {
        for safe in [true, false] {
            let mode = if safe { "safe" } else { "unsafe" };
            for level in 1..app_levels(safe).len() {
                jobs.push(MatrixJob::new(
                    format!("fig{fig}/{s}/{mode}/L{level}"),
                    scale,
                    JobSpec::AppLevel { fig, safe, level },
                ));
            }
        }
    }
    for row in 0..6 {
        jobs.push(MatrixJob::new(
            format!("table4/row{row}"),
            scale,
            JobSpec::Table4Row { row },
        ));
    }
    for which in 0..3 {
        jobs.push(MatrixJob::new(
            format!("ablation/A{which}"),
            scale,
            JobSpec::Ablation { which },
        ));
    }
    jobs
}

/// The calibrated `cargo xtask bench` subset of [`full_matrix`] at quick
/// scale: every microbenchmark opt level in both modes (figs 5 and 7),
/// the CoW cells, Table 3, Table 4, the Figure 4 ablation, and the top
/// safe-mode level of Figures 10 and 11 (which pins the Sysbench and
/// Apache programs) — a few seconds of serial simulation covering every
/// protocol path, and wide enough (≥ 16 jobs) to fan out.
pub fn bench_matrix() -> Vec<MatrixJob> {
    let top_app_level = app_levels(true).len() - 1;
    full_matrix(Scale::Quick)
        .into_iter()
        .filter(|j| match j.spec {
            JobSpec::MicroRow { fig, .. } => fig == 5 || fig == 7,
            JobSpec::Table3 | JobSpec::Fig4 | JobSpec::Fig9 { .. } | JobSpec::Table4Row { .. } => {
                true
            }
            JobSpec::AppLevel { safe, level, .. } => safe && level == top_app_level,
            _ => false,
        })
        .collect()
}

/// The `BENCH_2.json` scale-tier matrix: one job, the dual-socket tier.
/// Its sim block pins the engine's dispatch order at scale; its
/// `wall_ns` is the end-to-end host-time record. Run at `Scale::Full`
/// for the committed snapshot, `Scale::Quick` in tests.
pub fn scale_matrix(scale: Scale) -> Vec<MatrixJob> {
    vec![MatrixJob::new(
        format!("scale/{}/2x56", scale.label()),
        scale,
        JobSpec::ScaleTier,
    )]
}

/// The `BENCH_3.json` shootdown-storm survival matrix behind
/// `cargo xtask storm`: every [`StormIntensity`] × every
/// [`storm_faults`] preset, with all seven cumulative optimization
/// levels inside each cell,
/// first over the flat reference interconnect and then routed over the
/// 2D mesh. Mesh job IDs carry a `mesh/` segment, so the two fabrics
/// never collide in the snapshot.
pub fn storm_matrix(scale: Scale) -> Vec<MatrixJob> {
    let s = scale.label();
    let mut jobs = Vec::new();
    for mesh in [false, true] {
        let seg = if mesh { "mesh/" } else { "" };
        for intensity in StormIntensity::ALL {
            for (fault, (name, _)) in storm_faults().iter().enumerate() {
                jobs.push(MatrixJob::new(
                    format!("storm/{s}/{seg}{}/{name}", intensity.label()),
                    scale,
                    JobSpec::Storm {
                        intensity,
                        fault,
                        mesh,
                    },
                ));
            }
        }
    }
    jobs
}

/// The `BENCH_6.json` interconnect matrix behind `cargo xtask topobench`:
/// {flat, ring, mesh} × {4K-only, THP} at the dual-socket tier under the
/// Skylake-SP TLB geometry, plus the huge-page fracture-pressure table.
/// The xtask gate runs the whole matrix at two sweep-pool thread counts
/// and byte-diffs the two reductions, which is its replay check.
pub fn topobench_matrix(scale: Scale) -> Vec<MatrixJob> {
    let s = scale.label();
    let mut jobs = Vec::new();
    for (topo, (name, _)) in topo_specs().iter().enumerate() {
        for thp in [false, true] {
            let pages = if thp { "thp" } else { "4k" };
            jobs.push(MatrixJob::new(
                format!("topo/{s}/{name}/{pages}"),
                scale,
                JobSpec::TopoCell { topo, thp },
            ));
        }
    }
    jobs.push(MatrixJob::new(
        format!("topo/{s}/fracture"),
        scale,
        JobSpec::FracturePressure,
    ));
    jobs
}

/// Cumulative levels the `BENCH_7.json` matrix contrasts: the full
/// paper stack (the control column) and the two follow-on levels.
pub fn optbench_levels() -> [usize; 3] {
    [
        OptConfig::PAPER_MAX_LEVEL,
        OptConfig::PAPER_MAX_LEVEL + 1,
        OptConfig::MAX_LEVEL,
    ]
}

/// The `BENCH_7.json` follow-on-level matrix behind
/// `cargo xtask optbench`: the reuse-churn adversary in both shapes
/// (window-fitting and overflowing) and the cross-socket AutoNUMA
/// migration storm at both balancer intensities, each cell run at the
/// full paper stack (L6, the control), +reuse-skip (L7) and +numa-pte
/// (L8). The xtask gate runs the whole matrix at two sweep-pool thread
/// counts and byte-diffs the two reductions, which is its replay check.
pub fn optbench_matrix(scale: Scale) -> Vec<MatrixJob> {
    let s = scale.label();
    let mut jobs = Vec::new();
    for level in optbench_levels() {
        for fitting in [true, false] {
            let shape = if fitting { "fitting" } else { "overflow" };
            jobs.push(MatrixJob::new(
                format!("opt/{s}/reuse/{shape}/L{level}"),
                scale,
                JobSpec::ReuseChurn { fitting, level },
            ));
        }
        for intensity in [AutonumaIntensity::Periodic, AutonumaIntensity::Storm] {
            jobs.push(MatrixJob::new(
                format!("opt/{s}/numa/{}/L{level}", intensity.label()),
                scale,
                JobSpec::AutonumaCell { intensity, level },
            ));
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_ids_are_unique() {
        for jobs in [
            full_matrix(Scale::Quick),
            bench_matrix(),
            storm_matrix(Scale::Quick),
            topobench_matrix(Scale::Quick),
            optbench_matrix(Scale::Quick),
        ] {
            let mut ids: Vec<_> = jobs.iter().map(|j| j.id.clone()).collect();
            let n = ids.len();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), n, "duplicate job ids");
        }
    }

    #[test]
    fn bench_matrix_is_calibrated_but_wide() {
        let jobs = bench_matrix();
        assert!(jobs.len() >= 16, "need enough jobs to fan out");
        assert!(jobs.iter().all(|j| j.scale == Scale::Quick));
    }

    #[test]
    fn table4_row_job_runs() {
        let job = MatrixJob::new("t4/r1".into(), Scale::Quick, JobSpec::Table4Row { row: 1 });
        let out = job.run();
        let Printed::Table4(row) = out.printed else {
            panic!("a Table 4 job prints its row");
        };
        assert_eq!(row.env, "VM");
        assert!(out.metrics.to_json().render().contains("full_flush_misses"));
    }

    #[test]
    fn storm_matrix_covers_every_intensity_and_fault() {
        let jobs = storm_matrix(Scale::Quick);
        assert_eq!(
            jobs.len(),
            2 * StormIntensity::ALL.len() * storm_faults().len(),
            "one cell per fabric × intensity × fault preset"
        );
        assert!(storm_faults().len() >= 4);
        assert!(storm_faults().iter().any(|(n, _)| *n == "combined"));
    }

    #[test]
    fn mesh_storm_matrix_mirrors_the_flat_grid() {
        let jobs = storm_matrix(Scale::Quick);
        let (flat, mesh) = jobs.split_at(jobs.len() / 2);
        assert_eq!(mesh.len(), flat.len(), "same intensity × fault grid");
        for (f, m) in flat.iter().zip(mesh) {
            assert_ne!(f.id, m.id, "mesh IDs must not collide with flat");
            assert!(m.id.contains("/mesh/"), "{}", m.id);
            assert_eq!(
                m.config_json().get("fabric"),
                Some(&Json::Str("mesh".into()))
            );
            // Flat configs carry no fabric key — the committed
            // BENCH_3.json blocks stay byte-identical.
            assert_eq!(f.config_json().get("fabric"), None);
        }
    }

    #[test]
    fn storm_cell_survives() {
        // One mild cell end-to-end through the job interface: survival
        // metrics present and green at every level.
        let job = MatrixJob::new(
            "storm/quick/mild/combined".into(),
            Scale::Quick,
            JobSpec::Storm {
                intensity: StormIntensity::Mild,
                fault: 3,
                mesh: false,
            },
        );
        let out = job.run();
        let sim = out.metrics.to_json();
        for level in 0..=OptConfig::PAPER_MAX_LEVEL {
            let get = |k: &str| {
                sim.get(&format!("L{level}_{k}"))
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("missing L{level}_{k}"))
            };
            assert_eq!(get("violations"), 0, "L{level} violated");
            assert_eq!(get("wedged"), 0, "L{level} wedged");
            assert_eq!(get("threads_done"), 1, "L{level} threads hung");
            assert!(get("victim_faults") > 0, "L{level} produced no signal");
        }
        assert_eq!(
            job.config_json().get("fault"),
            Some(&Json::Str("combined".into()))
        );
    }

    #[test]
    fn topobench_matrix_covers_every_topology_and_page_size() {
        let jobs = topobench_matrix(Scale::Quick);
        assert_eq!(
            jobs.len(),
            topo_specs().len() * 2 + 1,
            "one cell per topology × page size, plus the fracture table"
        );
        assert!(jobs.iter().any(|j| j.id.ends_with("mesh/thp")));
        assert_eq!(
            jobs[0].config_json().get("kind"),
            Some(&Json::Str("topo_cell".into()))
        );
        assert_eq!(
            jobs.last().unwrap().config_json().get("kind"),
            Some(&Json::Str("fracture_pressure".into()))
        );
    }

    #[test]
    fn topo_cell_reports_capacity_pressure() {
        // The mesh × THP quick cell end-to-end through the job
        // interface: TLB pressure visible.
        let job = MatrixJob::new(
            "topo/quick/mesh/thp".into(),
            Scale::Quick,
            JobSpec::TopoCell { topo: 2, thp: true },
        );
        let out = job.run();
        let sim = out.metrics.to_json();
        let get = |k: &str| {
            sim.get(k)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("missing {k}"))
        };
        assert!(get("tlb_misses") > 0, "no TLB pressure recorded");
        let promotes = sim
            .get("counters")
            .and_then(|c| c.get("thp_promote"))
            .and_then(Json::as_u64)
            .expect("counters block carries thp_promote");
        assert!(promotes > 0, "THP initiators never promoted");
        assert_eq!(
            job.config_json().get("topology"),
            Some(&Json::Str("mesh".into()))
        );
    }

    #[test]
    fn optbench_matrix_covers_both_adversaries_at_every_follow_on_level() {
        let jobs = optbench_matrix(Scale::Quick);
        assert_eq!(
            jobs.len(),
            optbench_levels().len() * 4,
            "two reuse shapes + two balancer intensities per level"
        );
        for level in optbench_levels() {
            assert!(jobs
                .iter()
                .any(|j| j.id == format!("opt/quick/reuse/fitting/L{level}")));
            assert!(jobs
                .iter()
                .any(|j| j.id == format!("opt/quick/numa/numa-storm/L{level}")));
        }
        assert_eq!(
            jobs[0].config_json().get("kind"),
            Some(&Json::Str("reuse_churn".into()))
        );
        assert_eq!(
            jobs.last().unwrap().config_json().get("kind"),
            Some(&Json::Str("autonuma_cell".into()))
        );
    }

    #[test]
    fn reuse_churn_cell_elides_shootdowns() {
        // The fitting cell at L6 (control) vs L7 (+reuse-skip) through
        // the job interface: elision visible.
        let run = |level: usize| {
            let job = MatrixJob::new(
                format!("opt/quick/reuse/fitting/L{level}"),
                Scale::Quick,
                JobSpec::ReuseChurn {
                    fitting: true,
                    level,
                },
            );
            job.run().metrics.to_json()
        };
        let get = |sim: &Json, k: &str| {
            sim.get(k)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("missing {k}"))
        };
        let control = run(OptConfig::PAPER_MAX_LEVEL);
        let reuse = run(OptConfig::PAPER_MAX_LEVEL + 1);
        assert_eq!(
            get(&control, "reuse_hits"),
            0,
            "L6 must keep the window off"
        );
        assert!(get(&reuse, "reuse_hits") > 0, "L7 never hit the window");
        assert!(
            get(&reuse, "shootdowns") < get(&control, "shootdowns"),
            "reuse-skip elided nothing"
        );
    }

    #[test]
    fn autonuma_cell_syncs_replicas_only_at_level_8() {
        let run = |level: usize| {
            let job = MatrixJob::new(
                format!("opt/quick/numa/numa-storm/L{level}"),
                Scale::Quick,
                JobSpec::AutonumaCell {
                    intensity: AutonumaIntensity::Storm,
                    level,
                },
            );
            job.run().metrics.to_json()
        };
        let get = |sim: &Json, k: &str| {
            sim.get(k)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("missing {k}"))
        };
        let control = run(OptConfig::PAPER_MAX_LEVEL);
        let numa = run(OptConfig::MAX_LEVEL);
        for (name, sim) in [("L6", &control), ("L8", &numa)] {
            assert_eq!(get(sim, "violations"), 0, "{name} violated");
            assert_eq!(get(sim, "wedged"), 0, "{name} wedged");
            assert_eq!(get(sim, "threads_done"), 1, "{name} threads hung");
            assert!(get(sim, "autonuma_scans") > 0, "{name} balancer idle");
        }
        assert_eq!(
            get(&control, "replica_syncs"),
            0,
            "L6 must not sync replicas"
        );
        assert!(get(&numa, "replica_syncs") > 0, "L8 never synced a replica");
    }

    #[test]
    fn fracture_pressure_table_contrasts_4k_and_thp() {
        let job = MatrixJob::new(
            "topo/quick/fracture".into(),
            Scale::Quick,
            JobSpec::FracturePressure,
        );
        let out = job.run();
        let sim = out.metrics.to_json();
        let get = |k: &str| {
            sim.get(k)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("missing {k}"))
        };
        assert_eq!(get("4k_thp_promote"), 0, "4K column must not promote");
        assert!(get("thp_thp_promote") > 0, "THP column never promoted");
        assert!(get("thp_thp_split") > 0, "THP column never fractured");
        assert_ne!(
            get("4k_state_digest"),
            get("thp_state_digest"),
            "columns ran identical workloads"
        );
    }

    #[test]
    fn micro_row_metrics_are_deterministic() {
        let job = MatrixJob::new(
            "fig5/L0".into(),
            Scale::Quick,
            JobSpec::MicroRow { fig: 5, level: 0 },
        );
        let a = job.run();
        let b = job.run();
        assert_eq!(format!("{:?}", a.printed), format!("{:?}", b.printed));
        assert_eq!(a.metrics.to_json().render(), b.metrics.to_json().render());
        assert!(a.metrics.to_json().render().contains("ipis_sent"));
    }
}
