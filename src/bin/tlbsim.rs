//! `tlbsim` — run a configurable workload on the simulated machine and
//! report shootdown statistics.
//!
//! ```text
//! tlbsim --workload sysbench --threads 8 --opts all
//! tlbsim --workload madvise --placement diff-socket --ptes 10 --unsafe
//! tlbsim --workload apache --threads 6 --opts concurrent,in-context
//! ```

use tlbdown::core::OptConfig;
use tlbdown::topo::TopologySpec;
use tlbdown::trace::{analyze, to_chrome_json, PhaseTotals};
use tlbdown::types::Cycles;
use tlbdown::workloads::apache::{run_apache, ApacheCfg};
use tlbdown::workloads::cow::{run_cow_bench, CowBenchCfg};
use tlbdown::workloads::madvise::{
    run_madvise_bench, run_madvise_bench_traced, MadviseBenchCfg, Placement,
};
use tlbdown::workloads::sysbench::{run_sysbench, SysbenchCfg};

/// Per-core ring capacity used for `--trace` captures.
const TRACE_RING_CAP: usize = 1 << 14;

#[derive(Debug)]
struct Args {
    workload: String,
    threads: u32,
    ptes: u64,
    placement: Placement,
    safe: bool,
    opts: OptConfig,
    duration_ms: u64,
    seed: u64,
    trace: Option<String>,
    topology: TopologySpec,
}

fn parse_opts(spec: &str) -> Result<OptConfig, String> {
    match spec {
        "baseline" | "none" => return Ok(OptConfig::baseline()),
        "all" => return Ok(OptConfig::all()),
        "general" | "general-four" => return Ok(OptConfig::general_four()),
        _ => {}
    }
    let mut o = OptConfig::baseline();
    for part in spec.split(',') {
        match part {
            "concurrent" => o.concurrent_flush = true,
            "early-ack" => o.early_ack = true,
            "cacheline" => o.cacheline_consolidation = true,
            "in-context" => o.in_context_flush = true,
            "cow" => o.cow_avoid_flush = true,
            "batching" => o.userspace_batching = true,
            other => return Err(format!("unknown optimization '{other}'")),
        }
    }
    Ok(o)
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: "madvise".into(),
        threads: 4,
        ptes: 10,
        placement: Placement::SameSocket,
        safe: true,
        opts: OptConfig::baseline(),
        duration_ms: 5,
        seed: 0x71bd,
        trace: None,
        topology: TopologySpec::Flat,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" | "-w" => a.workload = value(&mut i)?,
            "--threads" | "-t" => {
                a.threads = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--ptes" => a.ptes = value(&mut i)?.parse().map_err(|e| format!("--ptes: {e}"))?,
            "--placement" => {
                a.placement = match value(&mut i)?.as_str() {
                    "same-core" => Placement::SameCore,
                    "same-socket" => Placement::SameSocket,
                    "diff-socket" => Placement::DiffSocket,
                    p => return Err(format!("unknown placement '{p}'")),
                }
            }
            "--safe" => a.safe = true,
            "--unsafe" => a.safe = false,
            "--opts" | "-o" => a.opts = parse_opts(&value(&mut i)?)?,
            "--duration-ms" | "-d" => {
                a.duration_ms = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--duration-ms: {e}"))?
            }
            "--seed" => {
                a.seed = {
                    let v = value(&mut i)?;
                    u64::from_str_radix(v.trim_start_matches("0x"), 16)
                        .or_else(|_| v.parse())
                        .map_err(|e| format!("--seed: {e}"))?
                }
            }
            "--trace" => a.trace = Some(value(&mut i)?),
            "--topology" => {
                let t = value(&mut i)?;
                a.topology = TopologySpec::parse(&t)
                    .ok_or_else(|| format!("unknown topology '{t}' (flat|ring|mesh)"))?
            }
            "--help" | "-h" => {
                println!(
                    "tlbsim — TLB shootdown simulator\n\n\
                     USAGE: tlbsim [--workload madvise|cow|sysbench|apache]\n\
                            [--opts baseline|all|general|CSV of concurrent,early-ack,cacheline,in-context,cow,batching]\n\
                            [--safe|--unsafe] [--threads N] [--ptes N]\n\
                            [--placement same-core|same-socket|diff-socket]\n\
                            [--topology flat|ring|mesh] [--duration-ms N] [--seed HEX]\n\
                            [--trace PATH   (madvise only: write a Chrome trace_event\n\
                                             JSON capture, openable in Perfetto)]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
        i += 1;
    }
    Ok(a)
}

fn main() {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tlbsim: {e}");
            std::process::exit(2);
        }
    };
    if a.trace.is_some() && a.workload != "madvise" {
        eprintln!("tlbsim: --trace is only supported for the madvise workload");
        std::process::exit(2);
    }
    let mode = if a.safe { "safe" } else { "unsafe" };
    println!(
        "tlbsim: workload={} mode={mode} topology={} opts=[{}]\n",
        a.workload,
        a.topology.label(),
        a.opts
    );
    let duration = Cycles::new(a.duration_ms * 2_000_000); // 2GHz
    match a.workload.as_str() {
        "madvise" => {
            let mut cfg = MadviseBenchCfg::new(a.placement, a.ptes, a.safe, a.opts);
            cfg.seed = a.seed;
            cfg.interconnect = a.topology.clone();
            let r = if let Some(path) = &a.trace {
                let (r, trace) =
                    run_madvise_bench_traced(&cfg, TRACE_RING_CAP).unwrap_or_else(|e| {
                        eprintln!("tlbsim: madvise bench failed: {e}");
                        std::process::exit(2);
                    });
                let analysis = analyze(&trace);
                let totals = PhaseTotals::of(&analysis, true);
                if let Err(e) = std::fs::write(path, to_chrome_json(&trace).render_pretty()) {
                    eprintln!("tlbsim: cannot write {path}: {e}");
                    std::process::exit(2);
                }
                println!(
                    "trace: {} events ({} dropped), {} remote shootdowns, \
                     mean critical path {:.0} cycles -> {path}",
                    trace.len(),
                    trace.dropped_total(),
                    totals.shootdowns,
                    totals.mean_total()
                );
                r
            } else {
                run_madvise_bench(&cfg).unwrap_or_else(|e| {
                    eprintln!("tlbsim: madvise bench failed: {e}");
                    std::process::exit(2);
                })
            };
            println!(
                "initiator madvise latency: {:.0} ± {:.0} cycles\n\
                 responder interruption:    {:.0} ± {:.0} cycles",
                r.initiator.mean(),
                r.initiator.stddev(),
                r.responder.mean(),
                r.responder.stddev()
            );
        }
        "cow" => {
            let mut cfg = CowBenchCfg::new(a.safe, a.opts);
            cfg.seed = a.seed;
            cfg.interconnect = a.topology.clone();
            let s = run_cow_bench(&cfg);
            println!(
                "CoW fault + access latency: {:.0} ± {:.0} cycles",
                s.latency.mean(),
                s.latency.stddev()
            );
        }
        "sysbench" => {
            let mut cfg = SysbenchCfg::new(a.threads, a.safe, a.opts);
            cfg.duration = duration;
            cfg.seed = a.seed;
            cfg.interconnect = a.topology.clone();
            let r = run_sysbench(&cfg);
            println!(
                "completed writes: {}  ({:.0} writes/s over {:.1} simulated ms)",
                r.ops,
                r.throughput,
                r.seconds * 1e3
            );
        }
        "apache" => {
            let mut cfg = ApacheCfg::new(a.threads, a.safe, a.opts);
            cfg.duration = duration;
            cfg.seed = a.seed;
            cfg.interconnect = a.topology.clone();
            let r = run_apache(&cfg);
            println!(
                "served requests: {}  ({:.0} req/s over {:.1} simulated ms)",
                r.requests,
                r.throughput,
                r.seconds * 1e3
            );
        }
        other => {
            eprintln!("tlbsim: unknown workload '{other}' (madvise|cow|sysbench|apache)");
            std::process::exit(2);
        }
    }
}
