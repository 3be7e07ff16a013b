//! The fleet runner: shard phase 1 over the sweep pool, reduce in
//! canonical machine order, run the serial phase-2 LB, render one
//! canonical JSON document.
//!
//! Determinism argument, in full:
//!
//! 1. Each node profile is a pure function of its `NodeCfg` (seeded
//!    machine sim, no host state), so *what* a job computes is
//!    independent of *where* it runs.
//! 2. Job IDs are zero-padded machine IDs, and the sweep pool reduces
//!    in sorted-ID order, so the profile vector is the same whatever
//!    the thread count or completion order. This holds for any pool
//!    that runs every job exactly once, whichever worker takes which
//!    job (the pool-width rerun in `tests/steal_pool.rs` pins this).
//! 3. The LB phase is serial over that vector with its own seeded RNG
//!    and a `(time, seq)`-ordered event queue.
//!
//! Therefore the rendered fleet document is byte-identical at any
//! `--threads` — which `replay_fleet` checks by running the whole
//! thing twice at different thread counts and comparing bytes.

use tlbdown_core::OptConfig;
use tlbdown_sweep::{run_jobs, Job, Json};
use tlbdown_types::{Cycles, SimError, SimResult};

use crate::fault::{FleetFaultPlan, FleetFaultSpec};
use crate::lb::{LbCfg, LbResult};
use crate::node::{run_node, NodeCfg, NodeProfile, SOCKETS, WINDOW};

/// Offered load at the LB per machine in the fleet, requests/sec.
const LB_RPS_PER_MACHINE: f64 = 40_000.0;

/// Configuration of one fleet run (one cell of the survival matrix, or
/// the headline tier). Every machine is a dual-socket node serving over
/// the shared [`WINDOW`].
#[derive(Clone, Debug)]
pub struct FleetCfg {
    /// Machines in the fleet.
    pub machines: u32,
    /// Logical cores per socket.
    pub logical_per_socket: u32,
    /// Optimizations inside every machine's kernel.
    pub opts: OptConfig,
    /// Mitigations on?
    pub safe: bool,
    /// Machine-level fault spec (carries the IPI layer too).
    pub spec: FleetFaultSpec,
    /// Fleet seed; machines and the LB derive their streams from it.
    pub seed: u64,
}

impl FleetCfg {
    /// A small fleet for tests and the per-cell survival matrix.
    pub fn quick(machines: u32, spec: FleetFaultSpec, seed: u64) -> Self {
        FleetCfg {
            machines,
            logical_per_socket: 8,
            opts: OptConfig::baseline(),
            safe: true,
            spec,
            seed,
        }
    }

    /// The headline tier: 1000+ machines on the paper's dual-socket
    /// Xeon topology (2 × 56 logical = 112 cores each), 112k+ simulated
    /// cores in one run.
    pub fn full_tier(spec: FleetFaultSpec, seed: u64) -> Self {
        FleetCfg {
            machines: 1000,
            logical_per_socket: 56,
            ..FleetCfg::quick(0, FleetFaultSpec::none(), seed)
        }
        .with_spec(spec)
    }

    /// Builder-style: replace the fault spec.
    #[must_use]
    pub fn with_spec(mut self, spec: FleetFaultSpec) -> Self {
        self.spec = spec;
        self
    }

    /// The node config for machine `i` under fault row `f`.
    fn node_cfg(&self, i: u32, f: &crate::fault::MachineFaults) -> NodeCfg {
        NodeCfg {
            machine_id: i,
            logical_per_socket: self.logical_per_socket,
            opts: self.opts,
            safe: self.safe,
            ipi: self.spec.ipi.clone(),
            faults: f.clone(),
            // Independent per-machine stream, prefix-stable like the plan.
            seed: self.seed ^ u64::from(i + 1).wrapping_mul(0x2545_f491_4f6c_dd1d),
        }
    }

    /// Total simulated logical cores across the fleet.
    pub fn total_cores(&self) -> u64 {
        u64::from(self.machines) * u64::from(SOCKETS) * u64::from(self.logical_per_socket)
    }
}

/// One finished fleet run: the profiles, the LB ledger, the verdicts.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Machines simulated.
    pub machines: u32,
    /// Simulated logical cores across the fleet.
    pub total_cores: u64,
    /// The fleet window, cycles.
    pub window: u64,
    /// Per-machine profiles, canonical order.
    pub profiles: Vec<NodeProfile>,
    /// The LB phase's request ledger.
    pub lb: LbResult,
    /// Machines the fault plan crashed.
    pub crashed: Vec<u32>,
    /// Verdict: every request served or typed-failed.
    pub fully_accounted: bool,
    /// Verdict: zero oracle violations across every machine and boot.
    pub zero_violations: bool,
    /// Verdict: every crashed machine rebooted and served again, or
    /// ended ejected from the LB rotation.
    pub crashed_recovered_or_ejected: bool,
}

impl FleetResult {
    /// All gate verdicts at once.
    pub fn survived(&self) -> bool {
        self.fully_accounted && self.zero_violations && self.crashed_recovered_or_ejected
    }

    /// Served requests per simulated second across the fleet.
    pub fn requests_per_sec(&self) -> f64 {
        self.lb.requests_per_sec(self.window)
    }

    /// Aggregate node-phase numbers (canonical order, so deterministic).
    fn node_totals(&self) -> (u64, u64, u64, u64, u64, u64, u64, f64) {
        let mut requests = 0u64;
        let mut lost = 0u64;
        let mut violations = 0u64;
        let mut turnovers = 0u64;
        let mut boots = 0u64;
        let mut shootdowns = 0u64;
        let mut shoot_cycles = 0u64;
        for p in &self.profiles {
            requests += p.requests;
            lost += p.lost_in_flight;
            violations += p.violations;
            turnovers += p.turnovers;
            boots += u64::from(p.boots);
            shootdowns += p.shootdowns;
            shoot_cycles += p.shootdown_cost_cycles;
        }
        let mean = if shootdowns == 0 {
            0.0
        } else {
            shoot_cycles as f64 / shootdowns as f64
        };
        (
            requests,
            lost,
            violations,
            turnovers,
            boots,
            shootdowns,
            shoot_cycles,
            mean,
        )
    }

    /// Fold of the per-machine digests (canonical order).
    pub fn digest(&self) -> u64 {
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        for p in &self.profiles {
            d ^= p.digest;
            d = d.wrapping_mul(0x0000_0100_0000_01b3);
        }
        d
    }

    /// The canonical sim block: everything here is a pure function of
    /// the fleet config, so replay compares these bytes.
    pub fn sim_json(&self) -> Json {
        let (requests, lost, violations, turnovers, boots, shootdowns, shoot_cycles, mean) =
            self.node_totals();
        Json::obj()
            .with("machines", Json::U64(u64::from(self.machines)))
            .with("total_cores", Json::U64(self.total_cores))
            .with("window", Json::U64(self.window))
            .with(
                "node",
                Json::obj()
                    .with("requests", Json::U64(requests))
                    .with("lost_in_flight", Json::U64(lost))
                    .with("violations", Json::U64(violations))
                    .with("turnovers", Json::U64(turnovers))
                    .with("boots", Json::U64(boots))
                    .with("shootdowns", Json::U64(shootdowns))
                    .with("shootdown_cost_cycles", Json::U64(shoot_cycles))
                    .with("shootdown_cost_mean", Json::F64(mean)),
            )
            .with("lb", self.lb.to_json(self.window))
            .with(
                "verdicts",
                Json::obj()
                    .with("fully_accounted", Json::Bool(self.fully_accounted))
                    .with("zero_violations", Json::Bool(self.zero_violations))
                    .with(
                        "crashed_recovered_or_ejected",
                        Json::Bool(self.crashed_recovered_or_ejected),
                    )
                    .with("crashed_machines", Json::U64(self.crashed.len() as u64))
                    .with("survived", Json::Bool(self.survived())),
            )
            .with("digest", Json::Str(format!("{:016x}", self.digest())))
    }
}

/// Run the whole fleet: phase 1 sharded over `threads` workers, phase 2
/// serial. Returns a typed error if any machine sim fails; a panic in a
/// node job surfaces as `SimError::InvalidArgument` naming the machine
/// (the pool's typed `JobError`), never as a lost machine.
pub fn run_fleet(cfg: &FleetCfg, threads: usize) -> SimResult<FleetResult> {
    let plan = FleetFaultPlan::new(&cfg.spec, cfg.seed, cfg.machines, WINDOW);
    let jobs: Vec<Job<SimResult<NodeProfile>>> = (0..cfg.machines)
        .map(|i| {
            let node = cfg.node_cfg(i, &plan.machines[i as usize]);
            Job::new(format!("m{:05}", i), move || run_node(&node))
        })
        .collect();
    let report = run_jobs(jobs, threads);
    if let Some(f) = report.failures.first() {
        return Err(SimError::InvalidArgument(format!(
            "node job {} panicked: {}",
            f.id, f.message
        )));
    }
    let mut profiles = Vec::with_capacity(report.results.len());
    for r in report.results {
        profiles.push(r.output?);
    }
    // Canonical reduction: results arrive sorted by the zero-padded job
    // ID, which is machine-ID order.
    for (i, p) in profiles.iter().enumerate() {
        assert_eq!(p.machine_id as usize, i, "canonical order broken");
    }

    // Scale the LB's timers to the fleet's observed warm latency.
    let warm_mean = {
        let (sum, n) = profiles
            .iter()
            .filter(|p| p.warm_latency > 0.0)
            .fold((0.0f64, 0u64), |(s, n), p| (s + p.warm_latency, n + 1));
        if n == 0 {
            50_000.0
        } else {
            sum / n as f64
        }
    };
    let lb_cfg = LbCfg {
        window: WINDOW,
        fleet_rps: LB_RPS_PER_MACHINE * f64::from(cfg.machines),
        warm_latency: warm_mean.ceil() as u64,
        seed: cfg.seed ^ 0x1b,
    };
    let lb = crate::lb::run_lb(&lb_cfg, &profiles, &plan.machines);

    let crashed: Vec<u32> = plan.crashed().map(|i| i as u32).collect();
    let fully_accounted = lb.fully_accounted();
    let zero_violations = profiles.iter().all(|p| p.violations == 0);
    let crashed_recovered_or_ejected = crashed.iter().all(|&i| {
        let p = &profiles[i as usize];
        p.boots >= 2 || !lb.in_rotation[i as usize]
    });
    Ok(FleetResult {
        machines: cfg.machines,
        total_cores: cfg.total_cores(),
        window: WINDOW,
        profiles,
        lb,
        crashed,
        fully_accounted,
        zero_violations,
        crashed_recovered_or_ejected,
    })
}

/// Run the fleet twice at two thread counts and require byte-identical
/// canonical output. Returns the rendered document on success, the
/// first divergence on failure.
pub fn replay_fleet(cfg: &FleetCfg, threads_a: usize, threads_b: usize) -> SimResult<String> {
    let a = run_fleet(cfg, threads_a)?.sim_json().render();
    let b = run_fleet(cfg, threads_b)?.sim_json().render();
    if a != b {
        let at = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        return Err(SimError::InvalidArgument(format!(
            "fleet replay diverged at byte {at}: {} threads vs {} threads",
            threads_a, threads_b
        )));
    }
    Ok(a)
}

/// A fleet run takes `window` simulated cycles; expose it as seconds
/// for report headers.
pub fn window_secs(window: u64) -> f64 {
    window as f64 / Cycles::FREQ_HZ as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_sim::fault::FaultSpec;

    #[test]
    fn quick_fleet_survives_and_replays_byte_identically() {
        let cfg = FleetCfg::quick(6, FleetFaultSpec::none(), 0xbeef);
        let r = run_fleet(&cfg, 1).expect("fleet runs");
        assert!(r.fully_accounted, "accounting must be total");
        assert!(r.zero_violations);
        assert!(r.survived());
        assert!(r.lb.served() > 0);
        let doc = replay_fleet(&cfg, 1, 3).expect("replay matches");
        assert!(doc.contains("\"survived\":true"));
    }

    #[test]
    fn combined_faults_fleet_still_accounts_everything() {
        let cfg = FleetCfg::quick(
            8,
            FleetFaultSpec::combined().with_ipi(FaultSpec::ipi_drop()),
            0xfa11,
        );
        let r = run_fleet(&cfg, 2).expect("fleet runs");
        assert!(r.fully_accounted, "accounting must survive faults");
        assert!(
            r.zero_violations,
            "kernel contract must hold under churn+drop"
        );
        assert!(
            r.crashed_recovered_or_ejected,
            "crashed machines: {:?}, in_rotation: {:?}, boots: {:?}",
            r.crashed,
            r.lb.in_rotation,
            r.profiles.iter().map(|p| p.boots).collect::<Vec<_>>()
        );
        assert!(!r.crashed.is_empty(), "combined spec should crash someone");
    }

    #[test]
    fn fleet_digest_tracks_the_fault_spec() {
        let churn_everywhere = FleetFaultSpec {
            churn_p: 1.0,
            ..FleetFaultSpec::none()
        };
        let a = run_fleet(&FleetCfg::quick(4, FleetFaultSpec::none(), 1), 1).expect("fleet runs");
        let b = run_fleet(&FleetCfg::quick(4, churn_everywhere, 1), 1).expect("fleet runs");
        assert!(
            b.profiles.iter().all(|p| p.turnovers > 0),
            "every machine must churn"
        );
        assert_ne!(a.digest(), b.digest(), "churn must change machine state");
    }
}
