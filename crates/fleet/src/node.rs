//! Phase 1: one fleet machine = one full kernel simulation.
//!
//! A node boots a real `kernel::Machine` (complete shootdown protocol,
//! chaos layer, oracle) on the scaled dual-socket topology, runs
//! Apache-style serving workers plus optional tenant-churn slots, and —
//! if the fleet fault plan says so — crashes mid-window and
//! [`tlbdown_kernel::Machine::cold_reboot`]s into a fresh kernel with
//! empty TLBs. The output is a [`NodeProfile`]: a pure, canonical
//! summary (request counts, cold/warm service latency, shootdown
//! critical-path aggregates from the trace subsystem, violations,
//! digest) that phase 2's load balancer consumes. A profile is a pure
//! function of its [`NodeCfg`], which is what lets nodes shard freely
//! across the sweep pool.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tlbdown_core::OptConfig;
use tlbdown_kernel::chaos::{ChaosConfig, WatchdogConfig};
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_sim::fault::FaultSpec;
use tlbdown_sim::{Counter, SplitMix64};
use tlbdown_trace::{analyze, PhaseTotals};
use tlbdown_types::{CoreId, Cycles, SimError, SimResult, Topology};
use tlbdown_workloads::apache::{ServeStats, ServeWorker};

use crate::fault::MachineFaults;

/// The serving window, in cycles (shared with the LB phase).
pub const WINDOW: u64 = 1_200_000;
/// Cores running Apache-style serving workers.
pub const WORKERS: u32 = 4;
/// Cores running tenant-churn slots (active only when the fault plan
/// marks the machine churning).
pub const CHURN_SLOTS: u32 = 2;
/// Sockets of a node's topology.
pub(crate) const SOCKETS: u32 = 2;
/// SMT ways of a node's cores.
const SMT: u32 = 2;
/// Pages per served file.
const FILE_PAGES: u64 = 2;
/// Distinct files served.
const FILES: u64 = 8;
/// Application work per request, in cycles.
const REQUEST_WORK: u64 = 20_000;
/// Aggregate offered load inside the node, requests per simulated
/// second.
const OFFERED_RPS: f64 = 400_000.0;
/// Requests starting within this many cycles of a (re)boot count toward
/// the cold-latency bucket (empty-TLB refill tax).
const COLD_WINDOW: u64 = 300_000;
/// Trace ring capacity per core: every boot is traced for its
/// shootdown critical-path aggregates.
const TRACE_CAPACITY: usize = 1 << 10;

/// Configuration of one node simulation. Built by the fleet runner from
/// the fleet config plus the machine's [`MachineFaults`]; everything a
/// node touches is in here, so the job closure is self-contained.
#[derive(Clone, Debug)]
pub struct NodeCfg {
    /// This machine's fleet ID.
    pub(crate) machine_id: u32,
    /// Logical cores per socket.
    pub(crate) logical_per_socket: u32,
    /// Optimizations active.
    pub(crate) opts: OptConfig,
    /// Mitigations on?
    pub(crate) safe: bool,
    /// IPI-level faults injected inside the kernel.
    pub(crate) ipi: FaultSpec,
    /// This machine's fate per the fleet fault plan.
    pub(crate) faults: MachineFaults,
    /// Per-machine seed (derived from the fleet seed and machine ID).
    pub(crate) seed: u64,
}

impl NodeCfg {
    /// Total logical cores this node simulates.
    pub(crate) fn num_cores(&self) -> u32 {
        SOCKETS * self.logical_per_socket
    }
}

/// What one node contributed to the fleet: the canonical per-machine
/// summary consumed by the LB phase and the BENCH_4 report.
#[derive(Clone, Debug)]
pub struct NodeProfile {
    /// The machine's fleet ID.
    pub(crate) machine_id: u32,
    /// Logical cores simulated.
    pub(crate) cores: u32,
    /// Requests the node's workers completed across all boots.
    pub(crate) requests: u64,
    /// Tenant generations that turned over (0 unless churning).
    pub(crate) turnovers: u64,
    /// Requests in flight at the crash — lost with the machine, each
    /// accounted as a typed loss rather than silently vanishing.
    pub(crate) lost_in_flight: u64,
    /// Kernel boots (1, or 2 after a crash with remaining window).
    pub(crate) boots: u32,
    /// Mean service latency of warm requests, in cycles.
    pub(crate) warm_latency: f64,
    /// Mean service latency of cold-window requests, in cycles (0 when
    /// no request landed in a cold window).
    pub(crate) cold_latency: f64,
    /// Oracle violations across all boots (the gate requires 0).
    pub(crate) violations: u64,
    /// Typed kernel errors recorded (handled conditions, not panics).
    pub(crate) kernel_errors: u64,
    /// Remote shootdowns on the trace critical path.
    pub(crate) shootdowns: u64,
    /// Mean end-to-end shootdown cost, in cycles (trace subsystem).
    pub(crate) shootdown_cost_mean: f64,
    /// Total shootdown critical-path cycles.
    pub(crate) shootdown_cost_cycles: u64,
    /// Simulated cycles across boots.
    pub(crate) sim_cycles: u64,
    /// Machine state digest folded across boots.
    pub(crate) digest: u64,
    /// Full machine counters merged across boots.
    pub(crate) counters: Counter,
}

/// Boot one kernel for `deadline` cycles of serving, populate it, run
/// it, and fold its stats into the profile accumulators.
fn run_boot(
    m: &mut Machine,
    cfg: &NodeCfg,
    deadline: u64,
    boot_seed: u64,
    stats: &Rc<RefCell<ServeStats>>,
    turnovers: &Rc<Cell<u64>>,
) -> SimResult<()> {
    let mm = m.create_process()?;
    let mut files = Vec::with_capacity(FILES as usize);
    for _ in 0..FILES {
        files.push(m.create_file(FILE_PAGES)?);
    }
    let mut rng = SplitMix64::new(boot_seed);
    let interval = Cycles::FREQ_HZ as f64 / (OFFERED_RPS / f64::from(WORKERS));
    for w in 0..WORKERS {
        let worker = ServeWorker::new(
            files.clone(),
            FILE_PAGES,
            deadline,
            rng.fork(),
            stats.clone(),
        )
        .open_loop(interval)
        .request_work(REQUEST_WORK)
        .cold_until(COLD_WINDOW.min(deadline));
        m.spawn(mm, CoreId(w), Box::new(worker));
    }
    if cfg.faults.churn {
        let churn_mm = m.create_process()?;
        for s in 0..CHURN_SLOTS {
            let churn_cfg = tlbdown_workloads::churn::ChurnCfg::brisk(
                Cycles::new(deadline),
                boot_seed ^ u64::from(s + 1).wrapping_mul(0x2545_f491),
            );
            m.spawn(
                churn_mm,
                CoreId(WORKERS + s),
                Box::new(tlbdown_workloads::churn::ChurnProg::new(
                    churn_cfg,
                    turnovers.clone(),
                )),
            );
        }
    }
    m.start_tracing(TRACE_CAPACITY);
    // Run past the deadline so in-flight requests and shootdowns drain;
    // workers exit at `deadline` on their own.
    m.run_until(Cycles::new(deadline + deadline / 4));
    Ok(())
}

/// Run one node through its window (crashing and rebooting if the plan
/// says so) and summarize it. Pure function of `cfg`.
pub(crate) fn run_node(cfg: &NodeCfg) -> SimResult<NodeProfile> {
    if WORKERS + CHURN_SLOTS > cfg.num_cores() {
        return Err(SimError::InvalidArgument(format!(
            "machine {}: {WORKERS} workers + {CHURN_SLOTS} churn slots exceed {} cores",
            cfg.machine_id,
            cfg.num_cores()
        )));
    }
    let topo = Topology::new(SOCKETS, cfg.logical_per_socket).with_smt(SMT);
    let mut kc = KernelConfig {
        topo,
        ..KernelConfig::paper_baseline()
    }
    .with_opts(cfg.opts)
    .with_safe_mode(cfg.safe)
    .with_chaos(ChaosConfig {
        fault: cfg.ipi.clone(),
        fault_seed: cfg.seed ^ 0xfab1_c0de,
        watchdog: WatchdogConfig {
            // The default 1M-cycle timeout is most of a fleet window: a
            // single dropped IPI would stall a serving worker for the
            // whole run. Scale the ladder's base rung to the window
            // (storm cells do the same) so drops cost retries, not the
            // machine.
            timeout_cycles: (WINDOW / 24).max(10_000),
            ..WatchdogConfig::default()
        },
    });
    kc.seed = cfg.seed;

    // Segment the window around the crash: [0, crash_at) on boot 0,
    // then — after `downtime` ticks of darkness — whatever window
    // remains on boot 1, cold TLBs and all.
    let crash_at = cfg.faults.crash_at.filter(|&t| t < WINDOW);
    let segments: Vec<u64> = match crash_at {
        None => vec![WINDOW],
        Some(t) => {
            let after = WINDOW.saturating_sub(t.saturating_add(cfg.faults.downtime));
            if after > 0 {
                vec![t, after]
            } else {
                vec![t]
            }
        }
    };

    let stats = Rc::new(RefCell::new(ServeStats::default()));
    let turnovers = Rc::new(Cell::new(0u64));
    let mut profile = NodeProfile {
        machine_id: cfg.machine_id,
        cores: cfg.num_cores(),
        requests: 0,
        turnovers: 0,
        lost_in_flight: 0,
        boots: segments.len() as u32,
        warm_latency: 0.0,
        cold_latency: 0.0,
        violations: 0,
        kernel_errors: 0,
        shootdowns: 0,
        shootdown_cost_mean: 0.0,
        shootdown_cost_cycles: 0,
        sim_cycles: 0,
        digest: 0,
        counters: Counter::new(),
    };
    let mut totals = PhaseTotals::default();
    let mut machine = Machine::new(kc);
    for (boot, &deadline) in segments.iter().enumerate() {
        if boot > 0 {
            // The crash takes whatever was in flight with it — a typed
            // loss the profile reports, never a silent one.
            let mut s = stats.borrow_mut();
            profile.lost_in_flight += s.in_flight;
            s.in_flight = 0;
            drop(s);
            machine = machine.cold_reboot();
        }
        let boot_seed = cfg.seed ^ (boot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        run_boot(&mut machine, cfg, deadline, boot_seed, &stats, &turnovers)?;
        let t = PhaseTotals::of(&analyze(&machine.take_trace()), true);
        totals.shootdowns += t.shootdowns;
        for (acc, v) in totals.cycles.iter_mut().zip(t.cycles.iter()) {
            *acc += v;
        }
        profile.violations += machine.violations().len() as u64;
        profile.kernel_errors += machine.recorded_errors().len() as u64;
        profile.sim_cycles += machine.now().as_u64();
        profile.digest ^= machine.state_digest().rotate_left((boot as u32 % 63) + 1);
        profile.counters.merge(&machine.stats.counters);
    }
    let s = stats.borrow();
    profile.requests = s.completed;
    profile.turnovers = turnovers.get();
    profile.warm_latency = s.warm_latency();
    profile.cold_latency = s.cold_latency();
    profile.shootdowns = totals.shootdowns;
    profile.shootdown_cost_mean = totals.mean_total();
    profile.shootdown_cost_cycles = totals.total_cycles();
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(machine_id: u32) -> NodeCfg {
        NodeCfg {
            machine_id,
            logical_per_socket: 8,
            opts: OptConfig::baseline(),
            safe: true,
            ipi: FaultSpec::none(),
            faults: MachineFaults::healthy(),
            seed: 0xf1ee7 + u64::from(machine_id),
        }
    }

    #[test]
    fn healthy_node_serves_and_is_deterministic() {
        let cfg = tiny(0);
        let a = run_node(&cfg).expect("node runs");
        let b = run_node(&cfg).expect("node runs");
        assert!(a.requests > 0, "no requests served");
        assert_eq!(a.violations, 0);
        assert_eq!(a.boots, 1);
        assert!(a.warm_latency > 0.0);
        assert!(a.shootdowns > 0, "serving must shoot down");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn crashed_node_reboots_cold_and_accounts_in_flight() {
        let mut cfg = tiny(1);
        cfg.faults.crash_at = Some(500_000);
        cfg.faults.downtime = 100_000;
        let p = run_node(&cfg).expect("node runs");
        assert_eq!(p.boots, 2);
        assert_eq!(p.violations, 0);
        assert!(p.requests > 0, "post-reboot boot must serve again");
        // Cold bucket is fed by both boots' start-up windows.
        assert!(p.cold_latency > 0.0, "cold requests must be observed");
        let healthy = run_node(&tiny(1)).expect("node runs");
        assert!(
            p.requests < healthy.requests,
            "downtime must cost requests: {} !< {}",
            p.requests,
            healthy.requests
        );
    }

    #[test]
    fn churning_node_turns_tenants_over() {
        let mut cfg = tiny(2);
        cfg.faults.churn = true;
        let p = run_node(&cfg).expect("node runs");
        assert!(p.turnovers > 0, "churn slots never turned over");
        assert_eq!(p.violations, 0);
    }

    #[test]
    fn ipi_faults_survive_under_the_watchdog() {
        let mut cfg = tiny(3);
        cfg.ipi = FaultSpec::ipi_drop();
        let p = run_node(&cfg).expect("node runs");
        assert_eq!(p.violations, 0, "drops must never break the contract");
        assert!(p.requests > 0);
    }
}
