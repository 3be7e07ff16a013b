//! The three workloads: what each runs, what one unit of simulated work
//! is, and how its outputs are checked.
//!
//! - `scale`: the dual-socket 2×56 scale tier (`run_scale_tier`) at the
//!   baseline and at the full paper stack. Unit: 1,000 engine dispatches.
//! - `paper`: the paper's figure matrix at quick size — Figure 6 and 8
//!   madvise cells, Figure 9 CoW cells, Figure 10 Sysbench and Figure 11
//!   Apache points. Unit: one matrix cell.
//! - `explore`: the model checker on the dueling-madvise scenario at every
//!   optimization level, under a fixed schedule budget. Unit: one explored
//!   schedule.
//!
//! Every job is deterministic in its inputs, so `main.rs` compares each
//! timed repetition's fingerprint against the first run.

use tlbdown_bench::figures::{app_levels, micro_levels};
use tlbdown_check::{explore, gate, replay_twice, Bounds, Schedule};
use tlbdown_core::OptConfig;
use tlbdown_kernel::prog::{BusyLoopProg, MadviseLoopProg};
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_sim::SplitMix64;
use tlbdown_types::{CoreId, Cycles, Topology};
use tlbdown_workloads::apache::{run_apache, ApacheCfg};
use tlbdown_workloads::cow::{run_cow_bench, CowBenchCfg};
use tlbdown_workloads::madvise::{
    run_madvise_bench, run_scale_tier, MadviseBenchCfg, Placement, ScaleTierCfg,
};
use tlbdown_workloads::sysbench::{run_sysbench, SysbenchCfg};

use crate::ledger::Probe;

/// Seeded instances per level in a `scale` or `explore` pass. The seed
/// moves the work a single instance does by several percent; a pass
/// averages over a few instances so its cost does not follow the seed.
const INSTANCES: u64 = 3;
/// Engine dispatches per scale-tier job.
const SCALE_EVENTS: u64 = 200_000;
/// PTEs per shootdown, madvise iterations and aggregated runs per
/// Figure 6/8 cell.
const MICRO_PTES: u64 = 10;
const MICRO_ITERS: u64 = 120;
const MICRO_RUNS: u64 = 1;
/// CoW faults per Figure 9 cell.
const COW_PAGES: u64 = 150;
/// Simulated duration of one Sysbench / Apache point.
const SYSBENCH_CYCLES: u64 = 3_000_000;
const APACHE_CYCLES: u64 = 4_000_000;
/// Sysbench thread counts and Apache core counts measured.
const SYSBENCH_THREADS: [u32; 2] = [4, 16];
const APACHE_CORES: [u32; 2] = [4, 11];
/// Schedules explored per optimization level and instance.
const EXPLORE_SCHEDULES: u64 = 20;
/// Per-interrupt jitter of the explored machines; its stream is seeded.
const DUEL_NOISE: u64 = 40;

/// What one run of a job produced.
pub struct Outcome {
    /// Canonical rendering of every simulated output; identical inputs
    /// must render identically.
    pub fingerprint: String,
    /// The job's headline simulated figure (latency, throughput), read
    /// by the workload's cross-job checks.
    pub metric: f64,
}

type RunFn = Box<dyn Fn() -> Result<Outcome, String> + Sync>;
type BootFn = Box<dyn Fn() -> Result<(), String> + Sync>;
type CheckFn = Box<dyn Fn(&[Outcome]) -> Result<(), String>>;

/// One timed unit of the pass.
pub struct Job {
    /// Label used in error messages.
    pub name: String,
    /// Units of simulated work one run performs.
    pub units: f64,
    /// The job itself.
    pub run: RunFn,
    /// The same job with no simulated work: build and boot its machines
    /// (the set-up cost a user pays before any event runs).
    pub boot: BootFn,
}

/// A workload instantiated from a seed.
pub struct Plan {
    /// The jobs of one pass.
    pub jobs: Vec<Job>,
    /// Checks against independent references, given the first run's
    /// outcomes in job order.
    pub check: CheckFn,
    /// The machine the per-layer ledger drives.
    pub probe: Probe,
}

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["scale", "paper", "explore"];

/// Instantiate workload `name` from `seed`.
pub fn plan(name: &str, seed: u64) -> Option<Plan> {
    match name {
        "scale" => Some(scale(seed)),
        "paper" => Some(paper(seed)),
        "explore" => Some(explore_plan(seed)),
        _ => None,
    }
}

/// A seed for input stream `salt` of a run seeded with `seed`.
fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

// ---------------------------------------------------------------- scale

fn scale_cfg(level: usize, seed: u64, events: u64, heap_only: bool) -> ScaleTierCfg {
    let mut cfg = ScaleTierCfg::dual_socket_56(events);
    cfg.opts = OptConfig::cumulative(level);
    cfg.seed = seed;
    cfg.heap_only_engine = heap_only;
    cfg
}

fn scale_run(cfg: &ScaleTierCfg) -> Result<Outcome, String> {
    let r = run_scale_tier(cfg).map_err(|e| e.to_string())?;
    if r.events != cfg.target_events {
        return Err(format!(
            "dispatched {} of {} events",
            r.events, cfg.target_events
        ));
    }
    Ok(Outcome {
        fingerprint: format!(
            "events {} cycles {} digest {:016x} tlb {} {} {} {} {} counters {}",
            r.events,
            r.sim_cycles,
            r.digest,
            r.tlb_hits,
            r.tlb_misses,
            r.stlb_hits,
            r.tlb_evictions,
            r.tlb_fractures,
            r.counters.render_json()
        ),
        metric: r.sim_cycles as f64,
    })
}

/// (cumulative level, instance seed) for every instance of `levels`.
fn instances(seed: u64, levels: impl Iterator<Item = usize>) -> Vec<(usize, u64)> {
    levels
        .flat_map(|level| (0..INSTANCES).map(move |k| (level, derive(seed, level as u64 * 16 + k))))
        .collect()
}

fn scale(seed: u64) -> Plan {
    let specs = instances(seed, [0, OptConfig::PAPER_MAX_LEVEL].into_iter());
    let jobs = specs
        .iter()
        .map(|&(level, s)| {
            let cfg = scale_cfg(level, s, SCALE_EVENTS, false);
            let boot_cfg = scale_cfg(level, s, 0, false);
            Job {
                name: format!("scale L{level} seed {s:#x}"),
                units: SCALE_EVENTS as f64 / 1_000.0,
                run: Box::new(move || scale_run(&cfg)),
                boot: Box::new(move || {
                    run_scale_tier(&boot_cfg)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                }),
            }
        })
        .collect();
    // The pure-heap engine is the timing wheel's reference: the same tier
    // must dispatch in exactly the same order and so end in the same state.
    let check = Box::new(move |outs: &[Outcome]| {
        for (&(level, s), out) in specs.iter().zip(outs) {
            let reference = scale_run(&scale_cfg(level, s, SCALE_EVENTS, true))?;
            if reference.fingerprint != out.fingerprint {
                return Err(format!(
                    "scale L{level}: timing wheel and heap engine diverge"
                ));
            }
        }
        Ok(())
    });
    Plan {
        jobs,
        check,
        probe: Probe {
            build: Box::new(scale_probe_machine),
            steps: 200_000,
        },
    }
}

/// The scale tier's shape, driven step by step: 2×56 logical cores, four
/// madvise initiators broadcasting into busy loops in one mm. Like the
/// tier, it runs without kernel jitter, so it needs no seed.
fn scale_probe_machine() -> Machine {
    let topo = Topology::new(2, 56).with_smt(2);
    let n = topo.num_cores();
    let mut m = Machine::new(
        KernelConfig {
            topo,
            ..KernelConfig::paper_baseline()
        }
        .with_safe_mode(true),
    );
    let mm = m.create_process().expect("the 112-core tier boots");
    for core in 0..n {
        if core % (n / 4) == 0 {
            m.spawn(
                mm,
                CoreId(core),
                Box::new(MadviseLoopProg::new(10, u64::MAX)),
            );
        } else {
            m.spawn(mm, CoreId(core), Box::new(BusyLoopProg));
        }
    }
    m
}

// ---------------------------------------------------------------- paper

fn micro_cfg(
    fig: u32,
    level: usize,
    placement: Placement,
    seed: u64,
    iters: u64,
) -> MadviseBenchCfg {
    let safe = fig == 6;
    let mut cfg = MadviseBenchCfg::new(placement, MICRO_PTES, safe, micro_levels(safe)[level].1);
    cfg.iters = iters;
    cfg.runs = MICRO_RUNS;
    cfg.seed = seed;
    cfg
}

fn micro_run(cfg: &MadviseBenchCfg) -> Result<Outcome, String> {
    let r = run_madvise_bench(cfg).map_err(|e| e.to_string())?;
    Ok(Outcome {
        fingerprint: format!(
            "initiator {} responder {} cycles {} counters {}",
            r.initiator.mean(),
            r.responder.mean(),
            r.sim_cycles,
            r.counters.render_json()
        ),
        metric: r.initiator.mean(),
    })
}

fn cow_cfg(config: usize, safe: bool, seed: u64, pages: u64) -> CowBenchCfg {
    let opts = match config {
        0 => OptConfig::baseline(),
        1 => OptConfig::general_four(),
        _ => OptConfig::general_four().with_cow(true),
    };
    let mut cfg = CowBenchCfg::new(safe, opts);
    cfg.pages = pages;
    cfg.runs = 1;
    cfg.seed = seed;
    cfg
}

fn cow_run(cfg: &CowBenchCfg) -> Outcome {
    let r = run_cow_bench(cfg);
    Outcome {
        fingerprint: format!(
            "latency {} cycles {} counters {}",
            r.latency.mean(),
            r.sim_cycles,
            r.counters.render_json()
        ),
        metric: r.latency.mean(),
    }
}

/// The Figure 10/11 baseline, or with `top` the full safe-mode stack.
fn app_opts(top: bool) -> OptConfig {
    let levels = app_levels(true);
    levels[if top { levels.len() - 1 } else { 0 }].1
}

fn sysbench_cfg(threads: u32, top: bool, seed: u64, cycles: u64) -> SysbenchCfg {
    let mut cfg = SysbenchCfg::new(threads, true, app_opts(top));
    cfg.duration = Cycles::new(cycles);
    cfg.seed = seed;
    cfg
}

fn sysbench_out(cfg: &SysbenchCfg) -> Outcome {
    let r = run_sysbench(cfg);
    Outcome {
        fingerprint: format!(
            "ops {} cycles {} counters {}",
            r.ops,
            r.sim_cycles,
            r.counters.render_json()
        ),
        metric: r.throughput,
    }
}

fn apache_cfg(cores: u32, top: bool, seed: u64, cycles: u64) -> ApacheCfg {
    let mut cfg = ApacheCfg::new(cores, true, app_opts(top));
    cfg.duration = Cycles::new(cycles);
    cfg.seed = seed;
    cfg
}

fn apache_out(cfg: &ApacheCfg) -> Outcome {
    let r = run_apache(cfg);
    Outcome {
        fingerprint: format!(
            "requests {} cycles {} counters {}",
            r.requests,
            r.sim_cycles,
            r.counters.render_json()
        ),
        metric: r.throughput,
    }
}

fn cell(name: String, run: RunFn, boot: BootFn) -> Job {
    Job {
        name,
        units: 1.0,
        run,
        boot,
    }
}

fn paper(seed: u64) -> Plan {
    let mut jobs = Vec::new();
    // (label, baseline job, full-stack job) for each Figure 6 placement
    // and for the largest Sysbench and Apache points.
    let mut fig6 = Vec::new();
    let mut apps = Vec::new();
    let mut salt = 0u64;
    let mut next_seed = || {
        salt += 1;
        derive(seed, salt)
    };
    for fig in [6u32, 8] {
        let levels = micro_levels(fig == 6).len();
        for placement in Placement::ALL {
            let first = jobs.len();
            for level in 0..levels {
                let s = next_seed();
                let cfg = micro_cfg(fig, level, placement, s, MICRO_ITERS);
                let boot = micro_cfg(fig, level, placement, s, 1);
                jobs.push(cell(
                    format!("fig{fig} {} L{level}", placement.label()),
                    Box::new(move || micro_run(&cfg)),
                    Box::new(move || micro_run(&boot).map(|_| ())),
                ));
            }
            if fig == 6 {
                fig6.push((placement.label(), first, jobs.len() - 1));
            }
        }
    }
    for config in 0..3 {
        for safe in [true, false] {
            let s = next_seed();
            let cfg = cow_cfg(config, safe, s, COW_PAGES);
            let boot = cow_cfg(config, safe, s, 1);
            jobs.push(cell(
                format!("fig9 config {config} safe={safe}"),
                Box::new(move || Ok(cow_run(&cfg))),
                Box::new(move || {
                    cow_run(&boot);
                    Ok(())
                }),
            ));
        }
    }
    for (i, &threads) in SYSBENCH_THREADS.iter().enumerate() {
        let base = jobs.len();
        for top in [false, true] {
            let s = next_seed();
            let cfg = sysbench_cfg(threads, top, s, SYSBENCH_CYCLES);
            let boot = sysbench_cfg(threads, top, s, 1);
            jobs.push(cell(
                format!("fig10 {threads} threads top={top}"),
                Box::new(move || Ok(sysbench_out(&cfg))),
                Box::new(move || {
                    run_sysbench(&boot);
                    Ok(())
                }),
            ));
        }
        if i == SYSBENCH_THREADS.len() - 1 {
            apps.push((format!("sysbench {threads} threads"), base, base + 1));
        }
    }
    for (i, &cores) in APACHE_CORES.iter().enumerate() {
        let base = jobs.len();
        for top in [false, true] {
            let s = next_seed();
            let cfg = apache_cfg(cores, top, s, APACHE_CYCLES);
            let boot = apache_cfg(cores, top, s, 1);
            jobs.push(cell(
                format!("fig11 {cores} cores top={top}"),
                Box::new(move || Ok(apache_out(&cfg))),
                Box::new(move || {
                    run_apache(&boot);
                    Ok(())
                }),
            ));
        }
        if i == APACHE_CORES.len() - 1 {
            apps.push((format!("apache {cores} cores"), base, base + 1));
        }
    }
    // The paper's claims, as directions: the full §3 stack lowers the
    // initiator's madvise latency at every placement, and the optimized
    // kernel serves at least the baseline's throughput.
    let check = Box::new(move |outs: &[Outcome]| {
        for (label, base, top) in &fig6 {
            if outs[*top].metric >= outs[*base].metric {
                return Err(format!(
                    "fig6 {label}: full stack {} cycles is not below baseline {}",
                    outs[*top].metric, outs[*base].metric
                ));
            }
        }
        for (label, base, top) in &apps {
            if outs[*top].metric < outs[*base].metric {
                return Err(format!(
                    "{label}: full stack {}/s is below baseline {}/s",
                    outs[*top].metric, outs[*base].metric
                ));
            }
        }
        Ok(())
    });
    let probe_seed = derive(seed, 0x9e0be);
    Plan {
        jobs,
        check,
        probe: Probe {
            build: Box::new(move || paper_probe_machine(probe_seed)),
            steps: 100_000,
        },
    }
}

/// The Figure 6 cell's shape, driven step by step: the paper machine,
/// safe mode at the full §3 stack, a 10-PTE madvise initiator on core 0
/// and a busy responder on the other socket.
fn paper_probe_machine(seed: u64) -> Machine {
    let mut kc = KernelConfig {
        topo: Topology::paper_machine(),
        ..KernelConfig::paper_baseline()
    }
    .with_opts(OptConfig::cumulative(4))
    .with_safe_mode(true);
    kc.noise_cycles = 120;
    kc.seed = seed;
    let mut m = Machine::new(kc);
    let mm = m.create_process().expect("the paper machine boots");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(10, u64::MAX)));
    m.spawn(
        mm,
        Placement::DiffSocket.responder_core(),
        Box::new(BusyLoopProg),
    );
    m
}

// -------------------------------------------------------------- explore

/// The explore gate's dueling-madvise scenario at cumulative level
/// `level` (two cores in one mm shooting each other down; above the
/// paper levels the reuse window is shrunk below the working set and
/// numaPTE splits the cores across sockets), with seeded interrupt jitter.
fn duel(level: usize, seed: u64) -> Machine {
    let opts = OptConfig::cumulative(level);
    let mut cfg = KernelConfig::test_machine(2).with_opts(opts);
    cfg.noise_cycles = DUEL_NOISE;
    cfg.seed = seed;
    let second_pages = if level <= OptConfig::PAPER_MAX_LEVEL {
        2
    } else {
        cfg = cfg.with_reuse_window_cap(2);
        if opts.numa_pte {
            cfg.topo = Topology::new(2, 1);
        }
        4
    };
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("the two-core machine boots");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(4, 2)));
    m.spawn(
        mm,
        CoreId(1),
        Box::new(MadviseLoopProg::new(second_pages, 2)),
    );
    m
}

fn explore_bounds() -> Bounds {
    Bounds::default().with_max_schedules(EXPLORE_SCHEDULES)
}

fn explore_plan(seed: u64) -> Plan {
    let specs = instances(seed, 0..=OptConfig::MAX_LEVEL);
    let jobs = specs
        .iter()
        .map(|&(level, s)| Job {
            name: format!("explore L{level} seed {s:#x}"),
            units: EXPLORE_SCHEDULES as f64,
            run: Box::new(move || {
                let r = explore(&|| duel(level, s), &explore_bounds());
                if let Some(cex) = r.counterexample {
                    return Err(format!("L{level}: violating schedule {}", cex.schedule));
                }
                if r.stats.schedules != EXPLORE_SCHEDULES {
                    return Err(format!(
                        "L{level}: search space exhausted after {} schedules",
                        r.stats.schedules
                    ));
                }
                let st = &r.stats;
                Ok(Outcome {
                    fingerprint: format!(
                        "schedules {} branch_points {} depth {} states {} pruned {} {} {}",
                        st.schedules,
                        st.branch_points,
                        st.max_branch_depth,
                        st.distinct_states,
                        st.pruned_digest,
                        st.pruned_preemption,
                        st.pruned_depth
                    ),
                    metric: st.branch_points as f64,
                })
            }),
            boot: Box::new(move || {
                drop(duel(level, s));
                Ok(())
            }),
        })
        .collect();
    // The checker must still be able to fail: the seeded NMI canary is
    // caught, shrunk and replayed, and every level's FIFO schedule
    // replays byte-identically.
    let check = Box::new(move |_: &[Outcome]| {
        let canary = gate::run_canary(&explore_bounds(), 200);
        if !(canary.fifo_safe && canary.caught && canary.replay_ok && canary.safe_clean) {
            return Err(format!("NMI canary not caught cleanly: {canary:?}"));
        }
        for &(level, s) in &specs {
            replay_twice(
                &|| duel(level, s),
                &explore_bounds(),
                &Schedule::new(Vec::new()),
            )
            .map_err(|e| format!("L{level}: {e}"))?;
        }
        Ok(())
    });
    let probe_seed = derive(seed, OptConfig::PAPER_MAX_LEVEL as u64);
    Plan {
        jobs,
        check,
        probe: Probe {
            build: Box::new(move || duel(OptConfig::PAPER_MAX_LEVEL, probe_seed)),
            steps: 20_000,
        },
    }
}
