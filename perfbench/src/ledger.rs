//! The per-layer ledger: where a simulated step's host time goes.
//!
//! Each workload names a *probe*, a machine of its shape that the ledger
//! builds and dispatches step by step. Spans around the calls into the
//! kernel give boot, step and digest time; a traced pass counts each
//! layer's operations per step. Each layer on the step path is then timed
//! on its own at the probe's size (engine queue depth = core count, TLB
//! working set, counter names, interconnect) and its estimated share of
//! a step is operations per step × host ns per operation. Whatever those
//! layers do not explain is reported as the unattributed share.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_mem::Pte;
use tlbdown_sim::{Counter, Engine, SplitMix64};
use tlbdown_tlb::{Tlb, TlbEntry};
use tlbdown_topo::Interconnect;
use tlbdown_types::{CoreId, Cycles, PageSize, Pcid, PhysAddr, PteFlags, VirtAddr};

use crate::alloc;
use crate::stats::median;

/// A machine of the workload's shape for the ledger to drive.
pub struct Probe {
    /// Builds and boots a fresh machine.
    pub build: Box<dyn Fn() -> Machine + Sync>,
    /// Dispatches per measured repetition; a machine whose queue drains
    /// first is replaced by a fresh one.
    pub steps: u64,
}

/// Trace ring capacity per core; the counting pass drains the rings
/// every [`DRAIN_EVERY`] dispatches, well before any ring can fill.
const TRACE_CAP: usize = 8_192;
const DRAIN_EVERY: u64 = 2_048;
/// `state_digest` calls timed at the end of each machine's run.
const DIGESTS: u32 = 20;

/// Host time and operation counts of one pass over `probe.steps`
/// dispatches.
#[derive(Default)]
struct Pass {
    steps: u64,
    step: Duration,
    boots: Vec<Duration>,
    allocs: u64,
    tlb_ops: u64,
    counter_bumps: u64,
    /// Trace events by name (traced passes only).
    events: BTreeMap<&'static str, u64>,
    /// Host time of one `state_digest` call on the last machine.
    digest: Duration,
    /// The last machine's configuration, for sizing the layer timings.
    cfg: Option<KernelConfig>,
}

impl Pass {
    fn absorb(&mut self, m: &Machine) {
        self.tlb_ops += m
            .tlbs
            .iter()
            .map(|t| t.stats().hits + t.stats().misses)
            .sum::<u64>();
        self.counter_bumps += m.stats.counters.iter().map(|(_, v)| v).sum::<u64>();
    }
}

fn drain(m: &mut Machine, events: &mut BTreeMap<&'static str, u64>) {
    for rec in m.take_trace().records {
        *events.entry(rec.ev.name()).or_default() += 1;
    }
}

/// Dispatch `probe.steps` events, rebuilding drained machines; with
/// `traced`, every machine records a trace that is drained and counted
/// outside the timed spans.
fn pass(probe: &Probe, traced: bool) -> Pass {
    let mut p = Pass::default();
    while p.steps < probe.steps {
        let t = Instant::now();
        let mut m = (probe.build)();
        p.boots.push(t.elapsed());
        if traced {
            m.start_tracing(TRACE_CAP);
        }
        let allocs = alloc::allocations();
        let mut drained = false;
        while !drained && p.steps < probe.steps {
            let chunk = (probe.steps - p.steps).min(DRAIN_EVERY);
            let mut done = 0;
            let t = Instant::now();
            while done < chunk {
                if !m.step() {
                    drained = true;
                    break;
                }
                done += 1;
            }
            p.step += t.elapsed();
            p.steps += done;
            if traced {
                drain(&mut m, &mut p.events);
            }
        }
        p.allocs += alloc::allocations() - allocs;
        p.absorb(&m);
        let t = Instant::now();
        for _ in 0..DIGESTS {
            black_box(m.state_digest());
        }
        p.digest = t.elapsed() / DIGESTS;
        p.cfg = Some(m.cfg.clone());
    }
    p
}

/// Host ns per operation of `op`, median of five batches of `n` calls.
fn per_op(n: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for i in 0..n {
            op(i);
        }
        samples.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&mut samples)
}

/// `sim::engine`: one pop plus one reschedule, with one pending event per
/// core of the probe machine.
fn engine_ns(depth: usize) -> f64 {
    let mut e: Engine<u32> = Engine::new();
    let mut rng = SplitMix64::new(0xe6);
    for i in 0..depth {
        e.schedule_in(Cycles::new(rng.gen_range(400) + 1), i as u32);
    }
    per_op(200_000, |_| {
        let ev = e.pop().expect("the queue never drains");
        e.schedule_in(Cycles::new(rng.gen_range(400) + 1), black_box(ev));
    })
}

/// `tlb`: one lookup over a 128-page cycle against a 64-entry working
/// set, filling on a miss and invalidating one page every 16 lookups.
fn tlb_ns(cfg: &KernelConfig) -> f64 {
    let mut tlb = Tlb::with_geometry(cfg.tlb_geometry.clone());
    let flags = PteFlags(PteFlags::PRESENT.0 | PteFlags::WRITABLE.0 | PteFlags::USER.0);
    let pcid = Pcid(1);
    let va = |i: u64| VirtAddr::new(0x7f00_0000_0000 + (i % 128) * 4096);
    per_op(200_000, |i| {
        let v = va(i);
        if black_box(tlb.lookup(pcid, v)).is_none() && i % 2 == 0 {
            tlb.insert(TlbEntry {
                page_base: v,
                size: PageSize::Size4K,
                pcid,
                global: false,
                pte: Pte {
                    addr: PhysAddr::new((i % 128) << 12),
                    flags,
                },
                fractured: false,
                fill_seq: 0,
            });
        }
        if i % 16 == 0 {
            tlb.invlpg(pcid, va(i / 16));
        }
    })
}

/// `sim::stats`: one bump of a kernel counter name.
fn counter_ns() -> f64 {
    const NAMES: [&str; 8] = [
        "irq_dispatch",
        "shootdown",
        "shootdown_done",
        "shootdown_irq",
        "demand_fault",
        "context_switch",
        "responder_skip",
        "lazy_skip",
    ];
    let mut c = Counter::new();
    per_op(1_000_000, |i| c.bump(NAMES[(i % 8) as usize]))
}

/// `topo`: one cacheline transfer between two cores of the probe machine
/// over its interconnect.
fn route_ns(cfg: &KernelConfig) -> f64 {
    let mut ic = Interconnect::new(cfg.topo.clone(), cfg.interconnect.clone());
    let n = u64::from(cfg.topo.num_cores());
    let costs = &cfg.costs;
    let mut rng = SplitMix64::new(0x70);
    per_op(200_000, |_| {
        let a = CoreId(rng.gen_range(n) as u32);
        let b = CoreId(rng.gen_range(n) as u32);
        black_box(ic.cacheline_transfer(costs, a, b));
    })
}

/// One ledger metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Measure the ledger for `probe` within roughly `budget` of host time.
/// Host times are at the reference speed of [`crate::calib`]; each pass
/// runs on a fresh thread, like the end-to-end rounds.
pub fn measure(probe: &Probe, budget: Duration) -> Vec<Metric> {
    let start = Instant::now();
    // The counting pass: deterministic operation counts per step.
    let counts = crate::on_fresh_thread(|| pass(probe, true));
    let steps = counts.steps as f64;
    let ev = |names: &[&str]| {
        names
            .iter()
            .map(|n| counts.events.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / steps
    };

    // Timed repetitions, untraced and traced alternately.
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut boot_us = Vec::new();
    let mut digest_us = Vec::new();
    let mut allocs = Vec::new();
    let mut slowdowns = Vec::new();
    while plain_ns.len() < 3 || start.elapsed() < budget.mul_f64(0.7) {
        let (speed, p, t) = crate::on_fresh_thread(|| {
            (
                crate::warm_slowdown(),
                pass(probe, false),
                pass(probe, true),
            )
        });
        slowdowns.push(speed);
        plain_ns.push(p.step.as_nanos() as f64 / p.steps as f64 / speed);
        traced_ns.push(t.step.as_nanos() as f64 / t.steps as f64 / speed);
        allocs.push(p.allocs as f64 / p.steps as f64);
        boot_us.extend(p.boots.iter().map(|d| d.as_nanos() as f64 / 1e3 / speed));
        digest_us.push(p.digest.as_nanos() as f64 / 1e3 / speed);
    }
    let step_ns = median(&mut plain_ns);
    let traced = median(&mut traced_ns);

    // Each layer on its own, at the probe's size.
    let cfg = counts
        .cfg
        .as_ref()
        .expect("a pass builds at least one machine");
    let speed = median(&mut slowdowns);
    let engine = engine_ns(cfg.topo.num_cores() as usize) / speed;
    let tlb = tlb_ns(cfg) / speed;
    let counter = counter_ns() / speed;
    let route = route_ns(cfg) / speed;

    let tlb_ops = counts.tlb_ops as f64 / steps;
    let bumps = counts.counter_bumps as f64 / steps;
    let transfers = ev(&["cacheline_transfer", "routed_transfer"]);
    let share = |ops_per_step: f64, ns: f64| 100.0 * ops_per_step * ns / step_ns;
    let shares = [
        share(1.0, engine),
        share(tlb_ops, tlb),
        share(bumps, counter),
        share(transfers, route),
    ];
    vec![
        ("boot_us", median(&mut boot_us), "us"),
        ("step_ns", step_ns, "ns"),
        ("digest_us", median(&mut digest_us), "us"),
        ("trace_overhead_pct", 100.0 * (traced / step_ns - 1.0), "%"),
        ("allocs_per_step", median(&mut allocs), "count"),
        (
            "heap_peak_mib",
            alloc::peak_bytes() as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        ("engine_ns_per_op", engine, "ns"),
        ("tlb_ns_per_op", tlb, "ns"),
        ("counter_ns_per_bump", counter, "ns"),
        ("route_ns_per_transfer", route, "ns"),
        ("tlb_ops_per_step", tlb_ops, "count"),
        ("counter_bumps_per_step", bumps, "count"),
        ("cacheline_transfers_per_step", transfers, "count"),
        ("ipis_per_step", ev(&["ipi_send"]), "count"),
        (
            "flushes_per_step",
            ev(&["invlpg", "full_flush", "in_context_flush"]),
            "count",
        ),
        ("page_walks_per_step", ev(&["page_walk"]), "count"),
        (
            "trace_events_per_step",
            counts.events.values().sum::<u64>() as f64 / steps,
            "count",
        ),
        ("engine_share_pct", shares[0], "%"),
        ("tlb_share_pct", shares[1], "%"),
        ("counter_share_pct", shares[2], "%"),
        ("route_share_pct", shares[3], "%"),
        (
            "unattributed_share_pct",
            100.0 - shares.iter().sum::<f64>(),
            "%",
        ),
    ]
}
