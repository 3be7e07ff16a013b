//! The paper's tables and figures (Figures 4–11, Tables 2–4), rendered
//! from the outputs of the [`crate::matrix`] jobs that run their cells.

use tlbdown_core::OptConfig;
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_sim::Summary;
use tlbdown_sweep::{run_jobs, Job};
use tlbdown_types::{CoreId, Cycles, Topology};
use tlbdown_workloads::madvise::Placement;

use crate::fractured::Table4Row;
use crate::loc::render_table2;
use crate::matrix::{full_matrix, JobOutput, JobSpec, Printed};

/// How much simulated work to spend per experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced iteration counts and sparse sweeps (CI-friendly).
    Quick,
    /// Paper-shaped sweeps.
    Full,
}

impl Scale {
    /// Stable label used in sweep job IDs and `BENCH_*.json` configs.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    pub(crate) fn madvise_iters(self) -> u64 {
        match self {
            Scale::Quick => 120,
            Scale::Full => 1_000,
        }
    }

    pub(crate) fn runs(self) -> u64 {
        match self {
            Scale::Quick => 3,
            Scale::Full => 5,
        }
    }

    pub(crate) fn sysbench_threads(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![1, 2, 4, 8, 12, 16, 20, 24, 28],
            Scale::Full => (1..=28).collect(),
        }
    }

    pub(crate) fn sysbench_duration(self) -> Cycles {
        match self {
            Scale::Quick => Cycles::new(3_000_000),
            Scale::Full => Cycles::new(8_000_000),
        }
    }

    pub(crate) fn apache_cores(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![1, 2, 4, 6, 8, 11],
            Scale::Full => (1..=11).collect(),
        }
    }

    pub(crate) fn apache_duration(self) -> Cycles {
        match self {
            Scale::Quick => Cycles::new(4_000_000),
            Scale::Full => Cycles::new(10_000_000),
        }
    }
}

/// The cumulative optimization levels shown in Figures 5–8, per mode.
/// Unsafe mode has no PTI, so the in-context level is omitted ("in unsafe
/// mode there is no PTI, so for those experiments we do not show the
/// in-context flush optimization").
pub fn micro_levels(safe: bool) -> Vec<(&'static str, OptConfig)> {
    let mut v = vec![
        ("base", OptConfig::cumulative(0)),
        ("+concurrent", OptConfig::cumulative(1)),
        ("+early-ack", OptConfig::cumulative(2)),
        ("+cacheline", OptConfig::cumulative(3)),
    ];
    if safe {
        v.push(("+in-context", OptConfig::cumulative(4)));
    }
    v
}

/// The cumulative levels for the application benchmarks (Figures 10–11):
/// the microbench levels plus userspace-safe batching; CoW avoidance is
/// irrelevant to these workloads and stays off, as in the paper.
pub fn app_levels(safe: bool) -> Vec<(&'static str, OptConfig)> {
    let mut v = micro_levels(safe);
    let top = v.last().expect("non-empty").1;
    v.push(("+batching", top.with_batching(true)));
    v
}

/// Every target the `figures` binary accepts, in the order `all` prints
/// them.
pub const TARGETS: [&str; 12] = [
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table3",
    "fig9",
    "fig10",
    "fig11",
    "table4",
    "ablations",
];

/// Safe mode and PTE count of Figure `fig` (5–8).
pub(crate) fn fig_mode(fig: u32) -> (bool, u64) {
    match fig {
        5 => (true, 1),
        6 => (true, 10),
        7 => (false, 1),
        8 => (false, 10),
        _ => panic!("figure must be 5..=8"),
    }
}

/// Run the `full_matrix` jobs behind `targets` (names from
/// [`TARGETS`]) at `scale` on `threads` sweep-pool workers (0 = all host
/// cores), then render each target in order. The text is the same for
/// any thread count. Fails with the IDs and messages of the jobs that
/// panicked.
pub fn render_targets(targets: &[&str], scale: Scale, threads: usize) -> Result<String, String> {
    let jobs = full_matrix(scale)
        .into_iter()
        .filter(|j| targets.iter().any(|t| selects(t, &j.spec)))
        .map(|j| Job::new(j.id.clone(), move || (j.spec.clone(), j.run())))
        .collect();
    let report = run_jobs(jobs, threads);
    if !report.failures.is_empty() {
        let failed: Vec<String> = report
            .failures
            .iter()
            .map(|f| format!("job {} panicked: {}", f.id, f.message))
            .collect();
        return Err(failed.join("\n"));
    }
    let outs = Outputs(report.results.into_iter().map(|r| r.output).collect());
    let mut text = String::new();
    for target in targets {
        for block in render_target(target, scale, &outs) {
            text += &block;
            text.push('\n');
        }
    }
    Ok(text)
}

/// Whether `target` prints the output of a job running `spec`.
fn selects(target: &str, spec: &JobSpec) -> bool {
    match spec {
        JobSpec::MicroRow { fig, .. } | JobSpec::AppLevel { fig, .. } => {
            target == format!("fig{fig}")
        }
        JobSpec::Table3 => target == "table3",
        JobSpec::Fig4 => target == "fig4",
        JobSpec::Fig9 { .. } => target == "fig9",
        JobSpec::Table4Row { .. } => target == "table4",
        JobSpec::Ablation { .. } => target == "ablations",
        _ => false,
    }
}

/// The blocks `target` prints, each followed by a blank line.
fn render_target(target: &str, scale: Scale, outs: &Outputs) -> Vec<String> {
    match target {
        "table2" => vec![render_table2()],
        "fig4" => vec![outs.text(&JobSpec::Fig4).to_string()],
        "fig5" => vec![fig5_to_8(5, scale, outs)],
        "fig6" => vec![fig5_to_8(6, scale, outs)],
        "fig7" => vec![fig5_to_8(7, scale, outs)],
        "fig8" => vec![fig5_to_8(8, scale, outs)],
        "table3" => vec![table3(outs)],
        "fig9" => vec![fig9(outs)],
        "fig10" => vec![fig10(scale, outs)],
        "fig11" => vec![fig11(scale, outs)],
        "table4" => vec![table4(outs)],
        "ablations" => (0..3)
            .map(|which| outs.text(&JobSpec::Ablation { which }).to_string())
            .collect(),
        other => panic!("unknown figure target {other:?}"),
    }
}

/// Finished jobs, looked up by what they ran.
struct Outputs(Vec<(JobSpec, JobOutput)>);

impl Outputs {
    fn get(&self, spec: &JobSpec) -> &JobOutput {
        self.0
            .iter()
            .find(|(s, _)| s == spec)
            .map(|(_, o)| o)
            .unwrap_or_else(|| panic!("no job output for {spec:?}"))
    }

    fn f64(&self, spec: &JobSpec, key: &str) -> f64 {
        self.get(spec)
            .metrics
            .get_f64(key)
            .unwrap_or_else(|| panic!("{spec:?} recorded no metric {key}"))
    }

    fn summaries(&self, spec: &JobSpec) -> &[Summary] {
        match &self.get(spec).printed {
            Printed::Summaries(cells) => cells,
            other => panic!("{spec:?} printed {other:?}, not summaries"),
        }
    }

    fn text(&self, spec: &JobSpec) -> &str {
        match &self.get(spec).printed {
            Printed::Text(text) => text,
            other => panic!("{spec:?} printed {other:?}, not text"),
        }
    }

    fn table4_row(&self, row: usize) -> &Table4Row {
        match &self.get(&JobSpec::Table4Row { row }).printed {
            Printed::Table4(r) => r,
            other => panic!("Table 4 row {row} printed {other:?}"),
        }
    }
}

/// Render one figure of the 5–8 family.
fn fig5_to_8(fig: u32, scale: Scale, outs: &Outputs) -> String {
    let (safe, ptes) = fig_mode(fig);
    let mode = if safe { "safe" } else { "unsafe" };
    let mut out = format!(
        "Figure {fig}: {mode} mode, flush {ptes} PTE(s) — madvise microbenchmark\n\
         (cycles, mean ± σ over {} runs of {} iterations)\n\n",
        scale.runs(),
        scale.madvise_iters()
    );
    let n = Placement::ALL.len();
    for (side, label) in ["initiator", "responder"].into_iter().enumerate() {
        out += &format!("  ({}) {label} cycles\n", if side == 0 { "a" } else { "b" });
        out += &format!("  {:<14}", "config");
        for p in Placement::ALL {
            out += &format!(" {:>22}", p.label());
        }
        out += "\n";
        for (level, (name, _)) in micro_levels(safe).into_iter().enumerate() {
            out += &format!("  {name:<14}");
            let cells = outs.summaries(&JobSpec::MicroRow { fig, level });
            for s in &cells[side * n..(side + 1) * n] {
                out += &format!(" {:>13.0} ± {:>6.0}", s.mean(), s.stddev());
            }
            out += "\n";
        }
        out += "\n";
    }
    out
}

/// Render Table 3: overall latency reduction, different sockets, after the
/// four §3 techniques.
fn table3(outs: &Outputs) -> String {
    let mut out = String::from(
        "Table 3: [initiator / responder] latency reduction, diff-socket,\n\
         all four §3 techniques vs baseline\n\n\
                    |   Safe Mode   |  Unsafe Mode  | paper (safe) | paper (unsafe)\n",
    );
    let paper = [
        ("1 PTE", "39% / 13%", "39% / 18%"),
        ("10 PTEs", "58% / 22%", "54% / 14%"),
    ];
    for (i, ptes) in [1u64, 10].iter().enumerate() {
        out += &format!(
            "  {:<8} |",
            format!("{ptes} PTE{}", if *ptes > 1 { "s" } else { "" })
        );
        for mode in ["safe", "unsafe"] {
            let ri = outs.f64(
                &JobSpec::Table3,
                &format!("reduction_initiator_{mode}_{ptes}pte"),
            );
            let rr = outs.f64(
                &JobSpec::Table3,
                &format!("reduction_responder_{mode}_{ptes}pte"),
            );
            out += &format!("  {ri:>4.0}% / {rr:>3.0}% |");
        }
        out += &format!("  {:<11} | {}\n", paper[i].1, paper[i].2);
    }
    out
}

/// Render Figure 9: CoW fault latency.
fn fig9(outs: &Outputs) -> String {
    let mut out = String::from(
        "Figure 9: copy-on-write fault + access latency (cycles, mean ± σ)\n\n\
           config      |      safe mode      |     unsafe mode\n",
    );
    for (config, name) in ["base", "all (§3)", "all + CoW"].into_iter().enumerate() {
        out += &format!("  {name:<11} |");
        for s in outs.summaries(&JobSpec::Fig9 { config }) {
            out += &format!(" {:>9.0} ± {:>5.0}    |", s.mean(), s.stddev());
        }
        out += "\n";
    }
    out += "\n  paper: CoW trick saves ~130 cycles (≈3% safe, ≈5% unsafe)\n";
    out
}

/// Render Figure 10: Sysbench speedup vs thread count.
fn fig10(scale: Scale, outs: &Outputs) -> String {
    let mut out = String::new();
    for safe in [true, false] {
        let mode = if safe { "safe" } else { "unsafe" };
        out += &format!(
            "Figure 10({}): Sysbench rnd-write + fdatasync, {mode} mode — speedup vs baseline\n\n",
            if safe { "a" } else { "b" }
        );
        out += &speedup_table(10, safe, "threads", &scale.sysbench_threads(), outs);
    }
    out
}

/// Render Figure 11: Apache speedup vs server cores.
fn fig11(scale: Scale, outs: &Outputs) -> String {
    let mut out = String::new();
    for safe in [true, false] {
        let mode = if safe { "safe" } else { "unsafe" };
        out += &format!(
            "Figure 11({}): Apache mpm_event model, {mode} mode — speedup vs baseline\n\n",
            if safe { "a" } else { "b" }
        );
        out += &speedup_table(11, safe, "cores", &scale.apache_cores(), outs);
    }
    out
}

/// One Figure 10/11 panel: a row per thread or core count `xs`, a column
/// per optimization level above the baseline.
fn speedup_table(fig: u32, safe: bool, axis: &str, xs: &[u32], outs: &Outputs) -> String {
    // The axis column is one space wider than its label.
    let width = axis.len() + 1;
    let levels = app_levels(safe);
    let mut out = format!("  {axis:<width$}");
    for (name, _) in &levels[1..] {
        out += &format!(" {name:>12}");
    }
    out += "\n";
    let key = if fig == 10 { "speedup_t" } else { "speedup_c" };
    for x in xs {
        out += &format!("  {x:<width$}");
        for level in 1..levels.len() {
            let s = outs.f64(
                &JobSpec::AppLevel { fig, safe, level },
                &format!("{key}{x:02}"),
            );
            out += &format!(" {s:>11.3}x");
        }
        out += "\n";
    }
    out += "\n";
    out
}

/// Render Table 4: dTLB misses after a full or selective flush.
fn table4(outs: &Outputs) -> String {
    let mut out =
        String::from("Table 4: dTLB misses after a full or selective flush (16MB working set)\n\n");
    out += &format!(
        "  {:<11} {:>12} {:>12} {:>12} {:>16}\n",
        "env", "host pg", "guest pg", "full flush", "selective flush"
    );
    for row in 0..6 {
        let r = outs.table4_row(row);
        let guest = r.guest.map(|g| g.to_string()).unwrap_or_else(|| "-".into());
        out += &format!(
            "  {:<11} {:>12} {:>12} {:>12} {:>16}\n",
            r.env,
            r.host.to_string(),
            guest,
            r.full_flush_misses,
            r.selective_flush_misses
        );
    }
    out += "\n  paper (workload-scaled): a guest 2MB page over host 4KB pages makes the\n\
            selective flush behave like a full flush (102M vs 102M misses); every\n\
            other configuration keeps selective flushes nearly free.\n";
    out
}

/// Render the Figure 4 ablation: coherence traffic of one shootdown under
/// the baseline vs consolidated cacheline layout, measured on a live
/// machine run.
pub(crate) fn fig4_ablation(scale: Scale) -> String {
    let run = |consolidated: bool| -> (f64, f64, usize) {
        let opts = OptConfig::baseline().with_cacheline(consolidated);
        let kc = KernelConfig {
            topo: Topology::paper_machine(),
            ..KernelConfig::paper_baseline()
        }
        .with_opts(opts);
        let mut m = Machine::new(kc);
        let lines = m.smp.contended_line_count(CoreId(0), CoreId(28));
        let mm = m.create_process().expect("boot: create process");
        // Reuse the madvise microbench shape inline: initiator on 0,
        // responder on the other socket.
        use tlbdown_kernel::prog::{BusyLoopProg, Prog, ProgAction, ProgCtx};
        use tlbdown_types::VirtAddr;
        #[derive(Clone)]
        struct Loop {
            addr: u64,
            state: u32,
            i: u64,
            n: u64,
        }
        impl Prog for Loop {
            fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
                match self.state {
                    0 => {
                        self.state = 1;
                        ProgAction::Syscall(tlbdown_kernel::Syscall::MmapAnon { pages: 4 })
                    }
                    1 => {
                        self.addr = ctx.retval;
                        self.state = 2;
                        ProgAction::Nop
                    }
                    2 => {
                        self.state = 3;
                        ProgAction::Access {
                            va: VirtAddr::new(self.addr),
                            write: true,
                        }
                    }
                    3 => {
                        self.state = 4;
                        ProgAction::Syscall(tlbdown_kernel::Syscall::MadviseDontNeed {
                            addr: VirtAddr::new(self.addr),
                            pages: 1,
                        })
                    }
                    4 => {
                        self.i += 1;
                        self.state = if self.i >= self.n { 5 } else { 2 };
                        ProgAction::Nop
                    }
                    _ => ProgAction::Exit,
                }
            }
        }
        let n = match scale {
            Scale::Quick => 200,
            Scale::Full => 1_000,
        };
        m.spawn(
            mm,
            CoreId(0),
            Box::new(Loop {
                addr: 0,
                state: 0,
                i: 0,
                n,
            }),
        );
        m.spawn(mm, CoreId(28), Box::new(BusyLoopProg));
        m.run_until(Cycles::new(n * 400_000));
        let shootdowns = m.stats.counters.get("shootdown_done").max(1);
        let stats = m.dir.stats();
        (
            stats.cross_socket_transfers as f64 / shootdowns as f64,
            stats.transfers() as f64 / shootdowns as f64,
            lines,
        )
    };
    let (base_x, base_t, base_lines) = run(false);
    let (cons_x, cons_t, cons_lines) = run(true);
    format!(
        "Figure 4 ablation: coherence traffic per shootdown (initiator socket 0,\n\
         responder socket 1)\n\n\
           layout        distinct contended lines   cross-socket transfers   total transfers\n\
           baseline      {base_lines:>24} {base_x:>24.1} {base_t:>17.1}\n\
           consolidated  {cons_lines:>24} {cons_x:>24.1} {cons_t:>17.1}\n\n\
           paper: Figure 4 shows 4 contended cacheline classes reduced to 2 by\n\
           inlining flush info into the CFD and colocating the lazy bit with\n\
           the call-single-queue head.\n"
    )
}
