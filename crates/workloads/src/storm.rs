//! The shootdown-storm adversary (SEV-Step-style, arXiv 2401.15558).
//!
//! A single-stepping monitor observes a victim by write-protecting its
//! working set and timing the faults: every protect is a ranged
//! `mprotect` shootdown into the victim's mm, every victim write then
//! trips the write-protect fault whose latency *is* the attacker's
//! signal. Repeated at storm rates this is simultaneously a side channel
//! and a denial-of-service against the shootdown machinery — exactly the
//! regime the csd-lock watchdog escalation ladder (retry → degrade →
//! quarantine, with storm-rate timeout widening) must survive without
//! either wedging or relaxing the flush guarantee.
//!
//! The storm machine has three populations sharing one box:
//!
//! - **monitor cores** run the protect/unprotect loop against the
//!   victim's shared-file working set (same mm as the victims — the
//!   monitor is a co-resident thread, as in a deduplicating hypervisor
//!   or a malicious runtime);
//! - **victim cores** write through the working set in the intensity's
//!   pattern (sequential, strided or hot-set): each write to a protected
//!   page faults down the `re_dirty` path, re-enabling the page until
//!   the next protect burst;
//! - **bystander cores** serve Apache-style traffic (mmap / touch /
//!   send / munmap of small files) in a *separate* mm — collateral
//!   damage is visible as lost bystander throughput, not correctness.
//!
//! [`run_storm`] runs one configuration and reports the survival
//! verdict (oracle violations, post-drain wedge check), the victim
//! fault-latency distribution (the observable signal, per §5.1-style
//! percentiles), and the full counter set. Everything is deterministic:
//! same [`StormCfg`] ⇒ byte-identical [`StormResult`], which the storm
//! gate (`cargo xtask storm`) verifies by running every cell twice.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tlbdown_core::OptConfig;
use tlbdown_kernel::chaos::{ChaosConfig, WatchdogConfig};
use tlbdown_kernel::mm::FileId;
use tlbdown_kernel::prog::{Prog, ProgAction, ProgCtx};
use tlbdown_kernel::{KernelConfig, Machine, Syscall};
use tlbdown_sim::fault::FaultSpec;
use tlbdown_sim::{Counter, SplitMix64};
use tlbdown_topo::TopologySpec;
use tlbdown_types::{CoreId, Cycles, SimError, SimResult, VirtAddr};

use crate::apache::{ServeStats, ServeWorker};

/// Cores on the storm machine.
const CORES: u32 = 8;
/// Cores running the victim access loop.
const VICTIMS: u32 = 2;
/// Pages per bystander-served file.
const BYSTANDER_FILE_PAGES: u64 = 3;
/// Post-deadline drain window: in-flight shootdowns (including full
/// watchdog escalations) must complete within it or the run is declared
/// wedged.
const DRAIN: Cycles = Cycles::new(16_000_000);

/// How a victim walks its working set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AccessPattern {
    /// Page `i`, `i+1`, ... wrapping — the prefetch-friendly baseline.
    Sequential,
    /// Fixed stride through the set (TLB-hostile; stride should be
    /// coprime with the set size to cover every page).
    Strided {
        /// Stride in pages.
        stride: u64,
    },
    /// Most accesses hit the first `hot_pages`; the rest scatter over
    /// the full set (the skew that makes per-page protect cheap for the
    /// monitor and the signal dense).
    HotSet {
        /// Size of the hot region, in pages.
        hot_pages: u64,
    },
}

impl AccessPattern {
    /// The next page index after `idx` for a set of `pages` pages.
    fn next(self, idx: u64, pages: u64, rng: &mut SplitMix64) -> u64 {
        match self {
            AccessPattern::Sequential => (idx + 1) % pages,
            AccessPattern::Strided { stride } => (idx + stride.max(1)) % pages,
            AccessPattern::HotSet { hot_pages } => {
                let hot = hot_pages.clamp(1, pages);
                // 7-in-8 accesses stay hot.
                if rng.gen_range(8) < 7 {
                    rng.gen_range(hot)
                } else {
                    rng.gen_range(pages)
                }
            }
        }
    }
}

/// AutoNUMA migration-storm intensity (the survival matrix's third
/// axis, arXiv 2401.15558 §2): a kernel balancer thread sweeps the
/// victim working set with a rolling write-protect wave — the NUMA
/// hinting-fault scan — so every victim write behind the wave faults
/// and re-migrates its page. Unlike the monitor's protect/unprotect
/// toggle, the wave never restores permissions itself; only victim
/// faults do, which is exactly AutoNUMA's steady-state shootdown tax.
/// Under numaPTE (opt level 8) every protect and every hinting fault is
/// also a PTE update the per-socket replicas must sync.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AutonumaIntensity {
    /// No balancer: cells behave exactly as before the axis existed.
    Off,
    /// One balancer at the default scan cadence — background pressure.
    Periodic,
    /// One balancer re-scanning at migration-storm rates: the page is
    /// often re-protected before the victim's previous fault cools.
    Storm,
}

impl AutonumaIntensity {
    /// All intensities, off to storm.
    pub const ALL: [AutonumaIntensity; 3] = [
        AutonumaIntensity::Off,
        AutonumaIntensity::Periodic,
        AutonumaIntensity::Storm,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            AutonumaIntensity::Off => "off",
            AutonumaIntensity::Periodic => "periodic",
            AutonumaIntensity::Storm => "numa-storm",
        }
    }

    /// `(scanner cores, chunk pages, think cycles)` for the intensity.
    fn params(self) -> (u32, u64, u64) {
        match self {
            AutonumaIntensity::Off => (0, 0, 0),
            AutonumaIntensity::Periodic => (1, 8, 60_000),
            AutonumaIntensity::Storm => (1, 16, 8_000),
        }
    }
}

/// Named storm intensities (the survival matrix's first axis). Each
/// fixes the cell's shape: monitor count, working set, think times and
/// the victims' access pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StormIntensity {
    /// One monitor, long think time: an attacker pacing itself below
    /// the storm detector's radar. Victims walk a 16-page set in order.
    Mild,
    /// One monitor at single-step rates: the detector's design point.
    /// Victims stride through a 32-page set.
    Brisk,
    /// Two monitors hammering the same set with near-zero think time:
    /// the densest IPI storm the pack produces. Victims mostly hit an
    /// 8-page hot set of a 64-page working set.
    Savage,
}

impl StormIntensity {
    /// All intensities, mild to savage.
    pub const ALL: [StormIntensity; 3] = [
        StormIntensity::Mild,
        StormIntensity::Brisk,
        StormIntensity::Savage,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            StormIntensity::Mild => "mild",
            StormIntensity::Brisk => "brisk",
            StormIntensity::Savage => "savage",
        }
    }

    /// `(monitor cores, working-set pages, monitor think cycles, victim
    /// think cycles)` for the intensity. The monitor think time between
    /// protect-toggle syscalls is the storm-intensity knob: smaller means
    /// denser shootdowns.
    fn params(self) -> (u32, u64, u64, u64) {
        match self {
            StormIntensity::Mild => (1, 16, 150_000, 800),
            StormIntensity::Brisk => (1, 32, 40_000, 400),
            StormIntensity::Savage => (2, 64, 10_000, 200),
        }
    }

    /// How the intensity's victims walk the working set.
    fn pattern(self) -> AccessPattern {
        match self {
            StormIntensity::Mild => AccessPattern::Sequential,
            StormIntensity::Brisk => AccessPattern::Strided { stride: 7 },
            StormIntensity::Savage => AccessPattern::HotSet { hot_pages: 8 },
        }
    }
}

/// Configuration of one storm cell on an 8-core machine: the monitors
/// and two victims first, then the AutoNUMA scanners, and every remaining
/// core serves bystander traffic.
#[derive(Clone, Debug)]
pub struct StormCfg {
    /// The storm's shape: monitors, working set, think times and the
    /// victims' access pattern.
    pub intensity: StormIntensity,
    /// Optimizations active.
    pub opts: OptConfig,
    /// Mitigations on?
    pub safe: bool,
    /// Fault plan layered under the storm (the matrix's second axis).
    pub fault: FaultSpec,
    /// Seed for the fault plan and watchdog jitter.
    pub fault_seed: u64,
    /// Watchdog / escalation-ladder configuration. Storm cells enable
    /// the storm detector; the perturbation-freedom test pins that this
    /// alone never changes a benign run.
    pub watchdog: WatchdogConfig,
    /// Workload deadline: programs exit at this simulated time.
    pub duration: Cycles,
    /// Seed for victim/bystander jitter streams.
    pub seed: u64,
    /// Interconnect model routing the storm's IPIs. `Flat` keeps every
    /// cell byte-identical to the pre-topology pipeline; the nightly
    /// matrix also runs the savage column on a mesh, where per-hop
    /// queueing concentrates the monitor's shootdown bursts.
    pub interconnect: TopologySpec,
    /// AutoNUMA migration-storm axis. `Off` (the default everywhere a
    /// cell is byte-pinned) leaves the machine exactly as it was before
    /// the axis existed. The balancer's cores come out of the bystander
    /// population.
    pub autonuma: AutonumaIntensity,
    /// Sockets the cores split across (1 keeps the pinned cells'
    /// single-socket topology; 2+ makes every balancer protect and
    /// hinting fault cross the socket boundary, which is what numaPTE's
    /// replica sync at opt level 8 exists to survive).
    pub sockets: u32,
}

impl StormCfg {
    /// A storm cell at the given intensity.
    pub fn new(intensity: StormIntensity, opts: OptConfig) -> Self {
        StormCfg {
            intensity,
            opts,
            safe: true,
            fault: FaultSpec::none(),
            fault_seed: 0x5708_11db,
            watchdog: WatchdogConfig {
                enabled: true,
                timeout_cycles: 250_000,
                max_resends: 2,
                storm_detector: true,
                ..WatchdogConfig::default()
            },
            duration: Cycles::new(4_000_000),
            seed: 0x5e75_7e9b,
            interconnect: TopologySpec::Flat,
            autonuma: AutonumaIntensity::Off,
            sockets: 1,
        }
    }

    /// Layer an AutoNUMA balancer onto the cell.
    pub fn with_autonuma(mut self, intensity: AutonumaIntensity) -> Self {
        self.autonuma = intensity;
        self
    }
}

/// What one storm cell produced. Deterministic: same cfg ⇒ same result,
/// byte for byte (the gate replays every cell to prove it).
#[derive(Clone, Debug)]
pub struct StormResult {
    /// Oracle violations recorded (survival requires zero).
    pub violations: usize,
    /// True if the post-deadline drain left protocol state in flight:
    /// unreaped shootdowns, queued call-single work, or an open
    /// early-ack window (survival requires false).
    pub wedged: bool,
    /// Every spawned program reached its deadline and exited.
    pub threads_done: bool,
    /// Victim write-protect faults taken (the attacker's sample count).
    pub victim_faults: u64,
    /// Victim fault-latency percentile upper bounds, in cycles — the
    /// observable signal the optimization levels reshape.
    pub fault_p50: u64,
    /// 90th-percentile upper bound.
    pub fault_p90: u64,
    /// 99th-percentile upper bound.
    pub fault_p99: u64,
    /// Monitor protect-toggle syscalls completed.
    pub monitor_protects: u64,
    /// AutoNUMA balancer scan chunks protected (0 with the axis off).
    pub autonuma_scans: u64,
    /// numaPTE replica-sync shootdowns the storm forced (0 below opt
    /// level 8 or on a single socket).
    pub replica_syncs: u64,
    /// Bystander requests served (collateral-damage metric).
    pub bystander_requests: u64,
    /// Full machine counter set at the end of the drain.
    pub counters: Counter,
    /// Final simulated time.
    pub sim_cycles: u64,
    /// Canonical machine-state digest at the end of the drain.
    pub digest: u64,
}

/// The monitor: write-protect the working set, dwell, restore, dwell.
/// Each protect is a ranged shootdown; each restore is flush-free
/// (permissions widen). The victim's `re_dirty` faults between the two
/// are the single-step signal.
struct MonitorProg {
    addr: u64,
    pages: u64,
    think: u64,
    deadline: u64,
    state: u32,
}

impl Prog for MonitorProg {
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
        if ctx.now.as_u64() >= self.deadline {
            return ProgAction::Exit;
        }
        match self.state {
            0 => {
                self.state = 1;
                ProgAction::Syscall(Syscall::Mprotect {
                    addr: VirtAddr::new(self.addr),
                    pages: self.pages,
                    write: false,
                })
            }
            1 => {
                self.state = 2;
                ProgAction::Compute(Cycles::new(self.think.max(1)))
            }
            2 => {
                self.state = 3;
                ProgAction::Syscall(Syscall::Mprotect {
                    addr: VirtAddr::new(self.addr),
                    pages: self.pages,
                    write: true,
                })
            }
            3 => {
                self.state = 0;
                ProgAction::Compute(Cycles::new(self.think.max(1)))
            }
            _ => ProgAction::Exit,
        }
    }
}

/// The AutoNUMA balancer: a rolling write-protect wave over the victim
/// working set in pmd-sized chunks. The wave never unprotects; each
/// victim write behind it takes a hinting fault that restores the page
/// — so the scan cadence, not the monitor's toggle, sets the
/// migration-storm shootdown rate.
struct AutonumaScannerProg {
    addr: u64,
    pages: u64,
    chunk: u64,
    think: u64,
    deadline: u64,
    pos: u64,
    scans: Rc<Cell<u64>>,
    state: u32,
}

impl Prog for AutonumaScannerProg {
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
        if ctx.now.as_u64() >= self.deadline {
            return ProgAction::Exit;
        }
        match self.state {
            0 => {
                let at = self.pos;
                let len = self.chunk.min(self.pages - at);
                self.pos = (at + len) % self.pages;
                self.scans.set(self.scans.get() + 1);
                self.state = 1;
                ProgAction::Syscall(Syscall::Mprotect {
                    addr: VirtAddr::new(self.addr + at * 4096),
                    pages: len,
                    write: false,
                })
            }
            _ => {
                self.state = 0;
                ProgAction::Compute(Cycles::new(self.think.max(1)))
            }
        }
    }
}

/// The victim: write through the working set in the configured pattern.
/// Writes landing on a protected page fault down the `re_dirty` path.
struct VictimProg {
    addr: u64,
    pages: u64,
    pattern: AccessPattern,
    think: u64,
    deadline: u64,
    idx: u64,
    rng: SplitMix64,
    state: u32,
}

impl Prog for VictimProg {
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
        if ctx.now.as_u64() >= self.deadline {
            return ProgAction::Exit;
        }
        match self.state {
            0 => {
                self.idx = self.pattern.next(self.idx, self.pages, &mut self.rng);
                self.state = 1;
                ProgAction::Access {
                    va: VirtAddr::new(self.addr + self.idx * 4096),
                    write: true,
                }
            }
            _ => {
                self.state = 0;
                ProgAction::Compute(Cycles::new(self.think.max(1)))
            }
        }
    }
}

/// Run one storm cell to its deadline, drain, and report.
///
/// Fails with a typed [`SimError`] on a misconfigured cell or a boot
/// that cannot allocate, instead of panicking mid-sweep.
pub fn run_storm(cfg: &StormCfg) -> SimResult<StormResult> {
    let (monitors, working_set_pages, monitor_think, victim_think) = cfg.intensity.params();
    let (scanners, scan_chunk, scan_think) = cfg.autonuma.params();
    let bystanders = CORES - monitors - VICTIMS - scanners;
    if cfg.sockets < 1 || !CORES.is_multiple_of(cfg.sockets) {
        return Err(SimError::InvalidArgument(format!(
            "{CORES} cores do not split evenly across {} sockets",
            cfg.sockets
        )));
    }
    let chaos = ChaosConfig {
        fault: cfg.fault.clone(),
        fault_seed: cfg.fault_seed,
        watchdog: cfg.watchdog.clone(),
    };
    let mut kc = KernelConfig::test_machine(CORES)
        .with_opts(cfg.opts)
        .with_safe_mode(cfg.safe)
        .with_chaos(chaos)
        .with_topology(cfg.interconnect.clone());
    if cfg.sockets > 1 {
        kc.topo = tlbdown_types::Topology::new(cfg.sockets, CORES / cfg.sockets);
    }
    kc.seed = cfg.seed;
    let mut m = Machine::new(kc);

    // Victim mm: monitors and victims are threads of one process; the
    // working set is a shared file mapping so write-protect faults
    // resolve down the `re_dirty` path instead of segfaulting.
    let victim_mm = m.create_process()?;
    let ws_file = m.create_file(working_set_pages)?;
    let ws_addr = m.setup_map_file(victim_mm, ws_file, true)?;
    let deadline = cfg.duration.as_u64();
    let mut next_core = 0u32;
    for _ in 0..monitors {
        m.spawn(
            victim_mm,
            CoreId(next_core),
            Box::new(MonitorProg {
                addr: ws_addr.0,
                pages: working_set_pages,
                think: monitor_think,
                deadline,
                state: 0,
            }),
        );
        next_core += 1;
    }
    let mut rng = SplitMix64::new(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    for _ in 0..VICTIMS {
        m.spawn(
            victim_mm,
            CoreId(next_core),
            Box::new(VictimProg {
                addr: ws_addr.0,
                pages: working_set_pages,
                pattern: cfg.intensity.pattern(),
                think: victim_think,
                deadline,
                idx: 0,
                rng: rng.fork(),
                state: 0,
            }),
        );
        next_core += 1;
    }

    // AutoNUMA balancer: same mm as the victims — its scan wave rides
    // the same page tables (and, at level 8, the same socket replicas)
    // the monitor storm is hammering.
    let scans = Rc::new(Cell::new(0u64));
    for _ in 0..scanners {
        m.spawn(
            victim_mm,
            CoreId(next_core),
            Box::new(AutonumaScannerProg {
                addr: ws_addr.0,
                pages: working_set_pages,
                chunk: scan_chunk.clamp(1, working_set_pages),
                think: scan_think,
                deadline,
                pos: 0,
                scans: scans.clone(),
                state: 0,
            }),
        );
        next_core += 1;
    }

    // Bystander mm: separate process, separate files — its shootdowns
    // are its own; the storm reaches it only through shared hardware.
    let served = Rc::new(RefCell::new(ServeStats::default()));
    if bystanders > 0 {
        let by_mm = m.create_process()?;
        let mut files: Vec<FileId> = Vec::with_capacity(8);
        for _ in 0..8 {
            files.push(m.create_file(BYSTANDER_FILE_PAGES)?);
        }
        for _ in 0..bystanders {
            let worker = ServeWorker::new(
                files.clone(),
                BYSTANDER_FILE_PAGES,
                deadline,
                rng.fork(),
                served.clone(),
            );
            m.spawn(by_mm, CoreId(next_core), Box::new(worker));
            next_core += 1;
        }
    }

    m.run_until(cfg.duration);
    // Drain: whatever the storm left in flight — including a watchdog
    // chain walking the full widen/retry/degrade ladder — must settle
    // within the drain window.
    m.run_until(cfg.duration + DRAIN);

    let wedged = !m.shootdowns.is_empty()
        || m.cpus
            .iter()
            .any(|c| !c.csq.is_empty() || c.acked_unflushed > 0);
    let threads_done = m.threads.iter().all(|t| t.done);
    let (victim_faults, p50, p90, p99) = match m.stats.fault_hist.get("re_dirty") {
        Some(h) => (
            h.count(),
            h.percentile_ub(0.50),
            h.percentile_ub(0.90),
            h.percentile_ub(0.99),
        ),
        None => (0, 0, 0, 0),
    };
    let bystander_requests = served.borrow().completed;
    Ok(StormResult {
        violations: m.violations().len(),
        wedged,
        threads_done,
        victim_faults,
        fault_p50: p50,
        fault_p90: p90,
        fault_p99: p99,
        monitor_protects: m.stats.counters.get("mprotect"),
        autonuma_scans: scans.get(),
        replica_syncs: m.stats.counters.get("numapte_replica_sync"),
        bystander_requests,
        counters: m.stats.counters.clone(),
        sim_cycles: m.now().as_u64(),
        digest: m.state_digest(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(intensity: StormIntensity, opts: OptConfig) -> StormResult {
        let mut cfg = StormCfg::new(intensity, opts);
        cfg.duration = Cycles::new(1_500_000);
        run_storm(&cfg).expect("storm runs clean")
    }

    #[test]
    fn storm_generates_signal_and_survives() {
        let r = quick(StormIntensity::Brisk, OptConfig::baseline());
        assert_eq!(r.violations, 0);
        assert!(!r.wedged, "storm wedged the machine: {:?}", r.counters);
        assert!(r.threads_done);
        assert!(r.monitor_protects > 0, "monitor never protected");
        assert!(
            r.victim_faults > 0,
            "victim never faulted — no signal: {:?}",
            r.counters
        );
        assert!(r.bystander_requests > 0, "bystanders starved outright");
        assert!(r.fault_p50 > 0 && r.fault_p99 >= r.fault_p50);
    }

    #[test]
    fn storm_replays_byte_identically() {
        let cfg = {
            let mut c = StormCfg::new(StormIntensity::Savage, OptConfig::all());
            c.duration = Cycles::new(1_200_000);
            c.fault = FaultSpec::combined();
            c
        };
        let a = run_storm(&cfg).expect("storm runs clean");
        let b = run_storm(&cfg).expect("storm runs clean");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.sim_cycles, b.sim_cycles);
        assert_eq!(a.counters.render_json(), b.counters.render_json());
        assert_eq!(
            (a.victim_faults, a.fault_p50, a.fault_p90, a.fault_p99),
            (b.victim_faults, b.fault_p50, b.fault_p90, b.fault_p99)
        );
    }

    #[test]
    fn mesh_savage_storm_survives_and_replays() {
        let cfg = {
            let mut c = StormCfg::new(StormIntensity::Savage, OptConfig::all());
            c.duration = Cycles::new(1_200_000);
            c.interconnect = TopologySpec::Mesh;
            c
        };
        let a = run_storm(&cfg).expect("mesh storm runs clean");
        let b = run_storm(&cfg).expect("mesh storm runs clean");
        assert_eq!(a.violations, 0);
        assert!(!a.wedged, "mesh storm wedged the machine: {:?}", a.counters);
        assert!(a.victim_faults > 0, "victim never faulted under mesh");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.sim_cycles, b.sim_cycles);
    }

    #[test]
    fn savage_storm_out_shoots_mild() {
        let mild = quick(StormIntensity::Mild, OptConfig::baseline());
        let savage = quick(StormIntensity::Savage, OptConfig::baseline());
        assert!(
            savage.counters.get("shootdown") > mild.counters.get("shootdown"),
            "savage {} !> mild {}",
            savage.counters.get("shootdown"),
            mild.counters.get("shootdown")
        );
    }

    #[test]
    fn autonuma_defaults_stay_off_for_pinned_cells() {
        // BENCH_3's committed baselines render cells built by
        // StormCfg::new with no axis applied — the balancer must be
        // strictly opt-in and the topology single-socket.
        for intensity in StormIntensity::ALL {
            let cfg = StormCfg::new(intensity, OptConfig::baseline());
            assert_eq!(cfg.autonuma, AutonumaIntensity::Off);
            assert_eq!(cfg.sockets, 1);
        }
    }

    #[test]
    fn autonuma_scan_wave_generates_hint_faults_and_survives() {
        let mut cfg = StormCfg::new(StormIntensity::Brisk, OptConfig::baseline())
            .with_autonuma(AutonumaIntensity::Storm);
        cfg.duration = Cycles::new(1_500_000);
        let r = run_storm(&cfg).expect("autonuma storm runs clean");
        assert_eq!(r.violations, 0);
        assert!(!r.wedged, "balancer wedged the machine: {:?}", r.counters);
        assert!(r.autonuma_scans > 0, "balancer never scanned");
        assert!(r.victim_faults > 0, "no hinting faults behind the wave");
        let b = run_storm(&cfg).expect("autonuma storm runs clean");
        assert_eq!(r.digest, b.digest, "axis must stay deterministic");
        assert_eq!(r.autonuma_scans, b.autonuma_scans);
    }

    #[test]
    fn numa_storm_out_scans_periodic() {
        let run = |intensity| {
            let mut cfg =
                StormCfg::new(StormIntensity::Mild, OptConfig::baseline()).with_autonuma(intensity);
            cfg.duration = Cycles::new(1_500_000);
            run_storm(&cfg).expect("autonuma cell runs clean")
        };
        let periodic = run(AutonumaIntensity::Periodic);
        let storm = run(AutonumaIntensity::Storm);
        assert!(
            storm.autonuma_scans > periodic.autonuma_scans,
            "storm {} !> periodic {}",
            storm.autonuma_scans,
            periodic.autonuma_scans
        );
        assert!(
            storm.counters.get("shootdown") > periodic.counters.get("shootdown"),
            "a denser wave must shoot down more"
        );
    }

    #[test]
    fn cross_socket_numa_storm_exercises_replica_sync_at_level_8() {
        let mut cfg = StormCfg::new(StormIntensity::Brisk, OptConfig::cumulative(8))
            .with_autonuma(AutonumaIntensity::Storm);
        cfg.sockets = 2;
        cfg.duration = Cycles::new(1_500_000);
        let r = run_storm(&cfg).expect("level-8 autonuma storm runs clean");
        assert_eq!(r.violations, 0);
        assert!(!r.wedged, "replica sync wedged: {:?}", r.counters);
        assert!(
            r.replica_syncs > 0,
            "cross-socket PTE updates must sync replicas: {:?}",
            r.counters
        );
        let b = run_storm(&cfg).expect("level-8 autonuma storm runs clean");
        assert_eq!(r.digest, b.digest);

        // Same cell on one socket: replication is inert by design.
        let mut single = cfg.clone();
        single.sockets = 1;
        let s = run_storm(&single).expect("single-socket run");
        assert_eq!(s.replica_syncs, 0, "no remote sockets, no sync");
    }

    #[test]
    fn every_pattern_produces_faults() {
        // Each intensity's victims walk in their own access pattern.
        for intensity in StormIntensity::ALL {
            let mut cfg = StormCfg::new(intensity, OptConfig::baseline());
            cfg.duration = Cycles::new(1_200_000);
            let r = run_storm(&cfg).expect("storm runs clean");
            assert_eq!(r.violations, 0, "{}", intensity.label());
            assert!(r.victim_faults > 0, "{}: no faults", intensity.label());
        }
    }
}
