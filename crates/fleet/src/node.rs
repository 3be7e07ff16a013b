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
use tlbdown_sweep::Json;
use tlbdown_trace::{analyze, PhaseTotals};
use tlbdown_types::{CoreId, Cycles, SimError, SimResult, Topology};
use tlbdown_workloads::apache::{ServeStats, ServeWorker};

use crate::fault::MachineFaults;

/// Configuration of one node simulation. Built by the fleet runner from
/// the fleet config plus the machine's [`MachineFaults`]; everything a
/// node touches is in here, so the job closure is self-contained.
#[derive(Clone, Debug)]
pub struct NodeCfg {
    /// This machine's fleet ID.
    pub machine_id: u32,
    /// Socket count of the node's topology.
    pub sockets: u32,
    /// Logical cores per socket.
    pub logical_per_socket: u32,
    /// SMT ways.
    pub smt: u32,
    /// Cores running Apache-style serving workers.
    pub workers: u32,
    /// Cores running tenant-churn slots (active only when the fault
    /// plan marks the machine churning).
    pub churn_slots: u32,
    /// Pages per served file.
    pub file_pages: u64,
    /// Distinct files served.
    pub files: u64,
    /// Application work per request, in cycles.
    pub request_work: u64,
    /// Aggregate offered load, requests per simulated second.
    pub offered_rps: f64,
    /// The serving window, in cycles (shared with the LB phase).
    pub window: u64,
    /// Requests starting within this many cycles of a (re)boot count
    /// toward the cold-latency bucket (empty-TLB refill tax).
    pub cold_window: u64,
    /// Optimizations active.
    pub opts: OptConfig,
    /// Mitigations on?
    pub safe: bool,
    /// IPI-level faults injected inside the kernel.
    pub ipi: FaultSpec,
    /// This machine's fate per the fleet fault plan.
    pub faults: MachineFaults,
    /// Per-machine seed (derived from the fleet seed and machine ID).
    pub seed: u64,
    /// Trace ring capacity per core; 0 disables tracing.
    pub trace_capacity: usize,
}

impl NodeCfg {
    /// Total logical cores this node simulates.
    pub fn num_cores(&self) -> u32 {
        self.sockets * self.logical_per_socket
    }
}

/// What one node contributed to the fleet: the canonical per-machine
/// summary consumed by the LB phase and the BENCH_4 report.
#[derive(Clone, Debug)]
pub struct NodeProfile {
    /// The machine's fleet ID.
    pub machine_id: u32,
    /// Logical cores simulated.
    pub cores: u32,
    /// Requests the node's workers completed across all boots.
    pub requests: u64,
    /// Tenant generations that turned over (0 unless churning).
    pub turnovers: u64,
    /// Requests in flight at the crash — lost with the machine, each
    /// accounted as a typed loss rather than silently vanishing.
    pub lost_in_flight: u64,
    /// Whether the fault plan crashed this machine.
    pub crashed: bool,
    /// Kernel boots (1, or 2 after a crash with remaining window).
    pub boots: u32,
    /// Mean service latency of warm requests, in cycles.
    pub warm_latency: f64,
    /// Mean service latency of cold-window requests, in cycles (0 when
    /// no request landed in a cold window).
    pub cold_latency: f64,
    /// Oracle violations across all boots (the gate requires 0).
    pub violations: u64,
    /// Typed kernel errors recorded (handled conditions, not panics).
    pub kernel_errors: u64,
    /// Remote shootdowns on the trace critical path.
    pub shootdowns: u64,
    /// Mean end-to-end shootdown cost, in cycles (trace subsystem).
    pub shootdown_cost_mean: f64,
    /// Total shootdown critical-path cycles.
    pub shootdown_cost_cycles: u64,
    /// Simulated cycles across boots.
    pub sim_cycles: u64,
    /// Machine state digest folded across boots.
    pub digest: u64,
    /// Full machine counters merged across boots.
    pub counters: Counter,
}

impl NodeProfile {
    /// Canonical JSON: fixed key order, deterministic values only.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("machine_id", Json::U64(u64::from(self.machine_id)))
            .with("cores", Json::U64(u64::from(self.cores)))
            .with("requests", Json::U64(self.requests))
            .with("turnovers", Json::U64(self.turnovers))
            .with("lost_in_flight", Json::U64(self.lost_in_flight))
            .with("crashed", Json::U64(u64::from(self.crashed)))
            .with("boots", Json::U64(u64::from(self.boots)))
            .with("warm_latency", Json::F64(self.warm_latency))
            .with("cold_latency", Json::F64(self.cold_latency))
            .with("violations", Json::U64(self.violations))
            .with("kernel_errors", Json::U64(self.kernel_errors))
            .with("shootdowns", Json::U64(self.shootdowns))
            .with("shootdown_cost_mean", Json::F64(self.shootdown_cost_mean))
            .with(
                "shootdown_cost_cycles",
                Json::U64(self.shootdown_cost_cycles),
            )
            .with("sim_cycles", Json::U64(self.sim_cycles))
            .with("digest", Json::Str(format!("{:016x}", self.digest)))
    }
}

/// Boot one kernel for `deadline` cycles of serving, populate it, run
/// it, and fold its stats into the profile accumulators.
#[allow(clippy::too_many_arguments)]
fn run_boot(
    m: &mut Machine,
    cfg: &NodeCfg,
    deadline: u64,
    boot_seed: u64,
    stats: &Rc<RefCell<ServeStats>>,
    turnovers: &Rc<Cell<u64>>,
) -> SimResult<()> {
    let mm = m.create_process()?;
    let mut files = Vec::with_capacity(cfg.files as usize);
    for _ in 0..cfg.files {
        files.push(m.create_file(cfg.file_pages)?);
    }
    let mut rng = SplitMix64::new(boot_seed);
    let interval = Cycles::FREQ_HZ as f64 / (cfg.offered_rps / f64::from(cfg.workers.max(1)));
    for w in 0..cfg.workers {
        let worker = ServeWorker::new(
            files.clone(),
            cfg.file_pages,
            deadline,
            rng.fork(),
            stats.clone(),
        )
        .open_loop(interval)
        .request_work(cfg.request_work)
        .cold_until(cfg.cold_window.min(deadline));
        m.spawn(mm, CoreId(w), Box::new(worker));
    }
    if cfg.faults.churn && cfg.churn_slots > 0 {
        let churn_mm = m.create_process()?;
        for s in 0..cfg.churn_slots {
            let churn_cfg = tlbdown_workloads::churn::ChurnCfg::brisk(
                Cycles::new(deadline),
                boot_seed ^ u64::from(s + 1).wrapping_mul(0x2545_f491),
            );
            m.spawn(
                churn_mm,
                CoreId(cfg.workers + s),
                Box::new(tlbdown_workloads::churn::ChurnProg::new(
                    churn_cfg,
                    turnovers.clone(),
                )),
            );
        }
    }
    if cfg.trace_capacity > 0 {
        m.start_tracing(cfg.trace_capacity);
    }
    // Run past the deadline so in-flight requests and shootdowns drain;
    // workers exit at `deadline` on their own.
    m.run_until(Cycles::new(deadline + deadline / 4));
    Ok(())
}

/// Run one node through its window (crashing and rebooting if the plan
/// says so) and summarize it. Pure function of `cfg`.
pub fn run_node(cfg: &NodeCfg) -> SimResult<NodeProfile> {
    if cfg.workers + cfg.churn_slots > cfg.num_cores() {
        return Err(SimError::InvalidArgument(format!(
            "machine {}: {} workers + {} churn slots exceed {} cores",
            cfg.machine_id,
            cfg.workers,
            cfg.churn_slots,
            cfg.num_cores()
        )));
    }
    let topo = Topology::new(cfg.sockets, cfg.logical_per_socket).with_smt(cfg.smt);
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
            timeout_cycles: (cfg.window / 24).max(10_000),
            ..WatchdogConfig::default()
        },
    });
    kc.seed = cfg.seed;

    // Segment the window around the crash: [0, crash_at) on boot 0,
    // then — after `downtime` ticks of darkness — whatever window
    // remains on boot 1, cold TLBs and all.
    let crash_at = cfg.faults.crash_at.filter(|&t| t < cfg.window);
    let segments: Vec<u64> = match crash_at {
        None => vec![cfg.window],
        Some(t) => {
            let after = cfg
                .window
                .saturating_sub(t.saturating_add(cfg.faults.downtime));
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
        crashed: crash_at.is_some(),
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
        if cfg.trace_capacity > 0 {
            let trace = machine.take_trace();
            let analysis = analyze(&trace);
            let t = PhaseTotals::of(&analysis, true);
            totals.shootdowns += t.shootdowns;
            for (acc, v) in totals.cycles.iter_mut().zip(t.cycles.iter()) {
                *acc += v;
            }
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
            sockets: 2,
            logical_per_socket: 8,
            smt: 2,
            workers: 4,
            churn_slots: 2,
            file_pages: 2,
            files: 8,
            request_work: 20_000,
            offered_rps: 400_000.0,
            window: 1_200_000,
            cold_window: 300_000,
            opts: OptConfig::baseline(),
            safe: true,
            ipi: FaultSpec::none(),
            faults: MachineFaults::healthy(),
            seed: 0xf1ee7 + u64::from(machine_id),
            trace_capacity: 1 << 10,
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
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn crashed_node_reboots_cold_and_accounts_in_flight() {
        let mut cfg = tiny(1);
        cfg.faults.crash_at = Some(500_000);
        cfg.faults.downtime = 100_000;
        let p = run_node(&cfg).expect("node runs");
        assert!(p.crashed);
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
