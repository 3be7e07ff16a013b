//! The §5.1 shootdown microbenchmark (Figures 5–8, Table 3).
//!
//! One thread `mmap`s an anonymous region, touches `ptes` pages to fault
//! them in, and calls `madvise(MADV_DONTNEED)`, forcing a PTE zap and TLB
//! shootdown; a second "responder" thread busy-waits and absorbs the IPIs.
//! The harness reports, per run, the mean initiator cycles (the `madvise`
//! syscall latency) and responder cycles (the time the busy loop was
//! interrupted by the shootdown handler), then aggregates mean ± σ over
//! `runs` runs as the paper does.

use tlbdown_core::OptConfig;
use tlbdown_kernel::chaos::ChaosConfig;
use tlbdown_kernel::prog::{BusyLoopProg, MadviseLoopProg, Prog, ProgAction, ProgCtx};
use tlbdown_kernel::{KernelConfig, Machine, Syscall, TlbGeometry};
use tlbdown_sim::{Counter, SplitMix64, Summary};
use tlbdown_topo::TopologySpec;
use tlbdown_types::{CoreId, CostModel, Cycles, SimError, SimResult, Topology, VirtAddr};

/// Where the responder runs relative to the initiator (§5.1 runs every
/// experiment in all three placements).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The SMT sibling of the initiator's physical core.
    SameCore,
    /// A different physical core on the initiator's socket.
    SameSocket,
    /// A core on the other socket.
    DiffSocket,
}

impl Placement {
    /// All three placements, in figure order.
    pub const ALL: [Placement; 3] = [
        Placement::SameCore,
        Placement::SameSocket,
        Placement::DiffSocket,
    ];

    /// The responder core for an initiator on core 0 of the paper machine.
    pub fn responder_core(self) -> CoreId {
        match self {
            Placement::SameCore => CoreId(1),   // SMT sibling of core 0
            Placement::SameSocket => CoreId(2), // next physical core
            Placement::DiffSocket => CoreId(28),
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Placement::SameCore => "same-core",
            Placement::SameSocket => "same-socket",
            Placement::DiffSocket => "diff-socket",
        }
    }
}

/// Configuration of one microbenchmark experiment.
#[derive(Clone, Debug)]
pub struct MadviseBenchCfg {
    /// Responder placement.
    pub(crate) placement: Placement,
    /// PTEs flushed per shootdown (the paper uses 1 and 10).
    pub(crate) ptes: u64,
    /// Mitigations on ("safe mode")?
    pub(crate) safe: bool,
    /// Optimizations active.
    pub opts: OptConfig,
    /// madvise iterations per run (the paper uses 100k; the simulator is
    /// deterministic, so fewer suffice).
    pub iters: u64,
    /// Number of runs aggregated (paper: 5).
    pub runs: u64,
    /// Base RNG seed (per-run jitter).
    pub seed: u64,
    /// Override the machine cost model (sensitivity ablations).
    pub costs_override: Option<CostModel>,
    /// Chaos layer (fault injection, watchdog, storm detector). The
    /// default is inert; BENCH_1 runs with it untouched, and the
    /// perturbation-freedom regression test pins that enabling the storm
    /// detector alone leaves every reported number byte-identical.
    pub(crate) chaos: ChaosConfig,
    /// Interconnect model routing cross-core transfers and IPIs. The
    /// default `Flat` delegates to the distance-constant cost model, so
    /// BENCH_1 stays byte-identical to the pre-topology pipeline.
    pub interconnect: TopologySpec,
}

impl MadviseBenchCfg {
    /// Defaults matching the paper's setup at reduced iteration count.
    pub fn new(placement: Placement, ptes: u64, safe: bool, opts: OptConfig) -> Self {
        MadviseBenchCfg {
            placement,
            ptes,
            safe,
            opts,
            iters: 400,
            runs: 5,
            seed: 0x51ab,
            costs_override: None,
            chaos: ChaosConfig::default(),
            interconnect: TopologySpec::Flat,
        }
    }
}

/// Result: per-metric mean ± σ across runs, plus the structured sim-side
/// metrics the sweep layer snapshots into `BENCH_*.json`.
#[derive(Clone, Debug)]
pub struct MadviseBenchResult {
    /// Initiator-side `madvise` latency (cycles).
    pub initiator: Summary,
    /// Responder-side interruption per shootdown (cycles).
    pub responder: Summary,
    /// Machine counters (IPIs, shootdowns, flushes, ...) summed across
    /// runs — deterministic, so byte-stable across repetitions.
    pub counters: Counter,
    /// Total simulated cycles across runs (sum of final machine times).
    pub sim_cycles: u64,
}

/// Run one experiment; returns per-run means aggregated across runs.
///
/// Fails with a typed [`SimError`] instead of panicking when a run
/// cannot even boot (frame exhaustion), records an oracle violation, or
/// finishes without the expected measurements.
pub fn run_madvise_bench(cfg: &MadviseBenchCfg) -> SimResult<MadviseBenchResult> {
    run_with_hooks(cfg, |_, _| {}, |_, _| {})
}

/// Like [`run_madvise_bench`], with the first run traced: returns the
/// aggregate result plus the captured [`tlbdown_trace::Trace`] of run 0.
/// Tracing never perturbs the simulation, so the aggregate is
/// byte-identical to the untraced runner's.
pub fn run_madvise_bench_traced(
    cfg: &MadviseBenchCfg,
    per_core_capacity: usize,
) -> SimResult<(MadviseBenchResult, tlbdown_trace::Trace)> {
    let mut trace = tlbdown_trace::Trace::default();
    let res = run_with_hooks(
        cfg,
        |run, m| {
            if run == 0 {
                m.start_tracing(per_core_capacity);
            }
        },
        |run, m| {
            if run == 0 {
                trace = m.take_trace();
            }
        },
    )?;
    Ok((res, trace))
}

/// The shared per-run loop. `pre` runs on the freshly built machine
/// before it executes; `post` runs after it drains, before the stats are
/// read out.
fn run_with_hooks(
    cfg: &MadviseBenchCfg,
    mut pre: impl FnMut(u64, &mut Machine),
    mut post: impl FnMut(u64, &mut Machine),
) -> SimResult<MadviseBenchResult> {
    let mut initiator = Summary::new();
    let mut responder = Summary::new();
    let mut counters = Counter::new();
    let mut sim_cycles = 0u64;
    for run in 0..cfg.runs {
        let mut kc = KernelConfig {
            topo: Topology::paper_machine(),
            ..KernelConfig::paper_baseline()
        }
        .with_opts(cfg.opts)
        .with_safe_mode(cfg.safe)
        .with_chaos(cfg.chaos.clone())
        .with_topology(cfg.interconnect.clone());
        kc.noise_cycles = 120;
        kc.seed = cfg.seed ^ (run + 1).wrapping_mul(0x2545_f491);
        if let Some(costs) = &cfg.costs_override {
            kc.costs = costs.clone();
        }
        let mut m = Machine::new(kc);
        let mm = m.create_process()?;
        let rng = SplitMix64::new(cfg.seed ^ run.wrapping_mul(0x9e37_79b9));
        let initiator_prog = MadviseLoopProg::new(cfg.ptes, cfg.iters).with_jitter(rng);
        m.spawn(mm, CoreId(0), Box::new(initiator_prog));
        m.spawn(mm, cfg.placement.responder_core(), Box::new(BusyLoopProg));
        pre(run, &mut m);
        // Generous deadline; the initiator exits well before it.
        m.run_until(Cycles::new(cfg.iters * 400_000));
        post(run, &mut m);
        if let Some(v) = m.violations().first() {
            return Err(v.clone());
        }
        let init = m
            .stats
            .syscall_lat
            .get(&(CoreId(0), "madvise_dontneed"))
            .ok_or_else(|| SimError::InvalidArgument("initiator never ran madvise".into()))?;
        if init.count() != cfg.iters {
            return Err(SimError::InvalidArgument(format!(
                "only {}/{} madvise calls completed",
                init.count(),
                cfg.iters
            )));
        }
        initiator.record(init.mean());
        let resp = m
            .stats
            .irq_lat
            .get(&cfg.placement.responder_core())
            .ok_or_else(|| SimError::InvalidArgument("responder took no shootdown IRQs".into()))?;
        responder.record(resp.mean());
        counters.merge(&m.stats.counters);
        sim_cycles += m.now().as_u64();
    }
    Ok(MadviseBenchResult {
        initiator,
        responder,
        counters,
        sim_cycles,
    })
}

/// The THP initiator: cycles a 2MB transparent-hugepage arena through the
/// promote/fracture lifecycle. Even rounds touch the (empty) 2M window —
/// the fault promotes the whole leaf — then `madvise` a partial range,
/// which splits the huge leaf (`thp_split`) before zapping; odd rounds
/// re-fault one 4K page of the splintered window and zap the full arena,
/// leaving the window empty so the next even round promotes again. Every
/// round ends in a ranged shootdown, so the fracture pressure rides the
/// same IPI paths the 4K initiator exercises.
struct ThpInitiator {
    /// 2M-aligned arena base (512 pages, mapped with `thp` enabled).
    arena: u64,
    /// Pages zapped on fracture rounds (must leave part of the window
    /// mapped, or nothing splinters).
    zap_pages: u64,
    state: u32,
    round: u64,
    rng: SplitMix64,
}

impl Prog for ThpInitiator {
    fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
        match self.state {
            0 => {
                self.state = 1;
                ProgAction::Access {
                    va: VirtAddr::new(self.arena),
                    write: true,
                }
            }
            1 => {
                self.state = 2;
                ProgAction::Compute(Cycles::new(self.rng.gen_range(96)))
            }
            2 => {
                let pages = if self.round.is_multiple_of(2) {
                    self.zap_pages
                } else {
                    512
                };
                self.state = 3;
                ProgAction::Syscall(Syscall::MadviseDontNeed {
                    addr: VirtAddr::new(self.arena),
                    pages,
                })
            }
            3 => {
                self.round += 1;
                self.state = 0;
                ProgAction::Nop
            }
            _ => ProgAction::Exit,
        }
    }
}

/// Sockets of the scale tier.
const SCALE_TIER_SOCKETS: u32 = 2;
/// SMT ways of the scale tier's cores.
const SCALE_TIER_SMT: u32 = 2;

/// Configuration of the dual-socket scale tier: a machine far beyond the
/// paper's 2×28 evaluation box, every core busy, a handful of madvise
/// initiators broadcasting shootdowns into a single shared mm, run until
/// a fixed number of engine dispatches instead of a simulated deadline.
/// The driver is [`Machine::step`] — the plain FIFO dispatch fast path —
/// so the run measures (and stresses) the event queue itself.
#[derive(Clone, Debug)]
pub struct ScaleTierCfg {
    /// Logical cores per socket (2-way SMT).
    pub logical_per_socket: u32,
    /// How many cores run the madvise initiator (evenly spaced; the
    /// rest run busy loops that absorb the IPIs).
    pub initiators: u32,
    /// PTEs zapped per madvise.
    pub ptes: u64,
    /// Stop once the engine has dispatched this many events.
    pub target_events: u64,
    /// Mitigations on?
    pub safe: bool,
    /// Optimizations active.
    pub opts: OptConfig,
    /// Seed for the initiators' jitter streams.
    pub seed: u64,
    /// Ignored: the engine has one event queue, so there is no second
    /// one to select. Only perfbench still sets this field, for its
    /// `scale` check; the next change to the benchmark deletes the field
    /// together with that check, which until then compares the tier
    /// with a fresh rerun of itself.
    pub heap_only_engine: bool,
    /// Chaos layer. Inert by default; the perturbation-freedom test pins
    /// that the storm detector alone never moves the state digest.
    pub chaos: ChaosConfig,
    /// Interconnect model; `Flat` keeps BENCH_2 byte-identical to the
    /// pre-topology pipeline, `ring`/`mesh` route every cross-core
    /// transfer through per-hop link costs and congestion.
    pub interconnect: TopologySpec,
    /// Run the THP-backed initiator instead of the 4K one: each
    /// initiator cycles a 2MB transparent-hugepage arena through
    /// fault-time promotion, a partial `madvise` that fractures the huge
    /// leaf, and a full zap that re-arms promotion — the fracture
    /// pressure column of the topobench table.
    pub thp: bool,
    /// Override the per-core TLB geometry (`None` keeps the machine
    /// default). The fracture-pressure table pairs `thp` with
    /// [`TlbGeometry::skylake_sp`] so splintered huge pages show up as
    /// set-associative capacity pressure.
    pub tlb_geometry: Option<TlbGeometry>,
}

impl ScaleTierCfg {
    /// The BENCH_2 tier: 2 sockets × 56 logical cores (2-way SMT), ten
    /// million engine dispatches.
    pub fn dual_socket_56(target_events: u64) -> Self {
        ScaleTierCfg {
            logical_per_socket: 56,
            initiators: 4,
            ptes: 10,
            target_events,
            safe: true,
            opts: OptConfig::baseline(),
            seed: 0x5ca1_e71e,
            heap_only_engine: false,
            chaos: ChaosConfig::default(),
            interconnect: TopologySpec::Flat,
            thp: false,
            tlb_geometry: None,
        }
    }

    /// A tier-1-sized version of the same shape: 2×8 logical cores,
    /// 40k dispatches — small enough for the test suite, still
    /// exercising cross-socket broadcast shootdowns under full load.
    pub fn smoke() -> Self {
        ScaleTierCfg {
            logical_per_socket: 8,
            initiators: 2,
            ptes: 4,
            target_events: 40_000,
            ..Self::dual_socket_56(0)
        }
    }
}

/// What a scale-tier run produced. Everything here is deterministic —
/// byte-identical across reruns and host thread counts, and pinned by
/// `BENCH_2.json`; wall-clock is the caller's to measure.
#[derive(Clone, Debug)]
pub struct ScaleTierResult {
    /// Events actually dispatched (== `target_events` unless the queue
    /// drained early, which a healthy run never does).
    pub events: u64,
    /// Final simulated time.
    pub sim_cycles: u64,
    /// Canonical machine-state digest at the stop point.
    pub digest: u64,
    /// Full machine counter set at the stop point.
    pub counters: Counter,
    /// TLB lookup hits summed over every core (L1 + STLB).
    pub tlb_hits: u64,
    /// TLB misses (full page walks) summed over every core.
    pub tlb_misses: u64,
    /// L1-miss-but-STLB-hit count summed over every core — the
    /// second-level safety net that fractured huge pages lean on.
    pub stlb_hits: u64,
    /// Set-associativity conflict evictions summed over every core; zero
    /// under the legacy infinite-capacity geometry.
    pub tlb_evictions: u64,
    /// Ranged invalidations that splintered a cached huge-page entry,
    /// summed over every core.
    pub tlb_fractures: u64,
}

/// Run the scale tier to its dispatch target.
///
/// Fails with a typed [`SimError`] on a misconfigured tier, a boot that
/// cannot allocate, or an oracle violation at scale.
pub fn run_scale_tier(cfg: &ScaleTierCfg) -> SimResult<ScaleTierResult> {
    let topo = Topology::new(SCALE_TIER_SOCKETS, cfg.logical_per_socket).with_smt(SCALE_TIER_SMT);
    let n = topo.num_cores();
    if cfg.initiators < 1 || cfg.initiators > n {
        return Err(SimError::InvalidArgument(format!(
            "initiator count {} must fit the {n}-core machine",
            cfg.initiators
        )));
    }
    let mut kc = KernelConfig {
        topo,
        ..KernelConfig::paper_baseline()
    }
    .with_opts(cfg.opts)
    .with_safe_mode(cfg.safe)
    .with_chaos(cfg.chaos.clone())
    .with_topology(cfg.interconnect.clone());
    if let Some(geometry) = &cfg.tlb_geometry {
        kc = kc.with_tlb_geometry(geometry.clone());
    }
    let mut m = Machine::new(kc);
    let mm = m.create_process()?;
    let stride = n / cfg.initiators;
    for core in 0..n {
        if core % stride == 0 && core / stride < cfg.initiators {
            let rng = SplitMix64::new(cfg.seed ^ u64::from(core).wrapping_mul(0x9e37_79b9));
            if cfg.thp {
                let arena = m.setup_map_anon_thp(mm, 512)?;
                m.spawn(
                    mm,
                    CoreId(core),
                    Box::new(ThpInitiator {
                        arena: arena.as_u64(),
                        zap_pages: cfg.ptes.clamp(1, 511),
                        state: 0,
                        round: 0,
                        rng,
                    }),
                );
            } else {
                let prog = MadviseLoopProg::new(cfg.ptes, u64::MAX).with_jitter(rng);
                m.spawn(mm, CoreId(core), Box::new(prog));
            }
        } else {
            m.spawn(mm, CoreId(core), Box::new(BusyLoopProg));
        }
    }
    while m.events_processed() < cfg.target_events && m.step() {}
    if let Some(v) = m.violations().first() {
        return Err(v.clone());
    }
    let mut tlb = (0u64, 0u64, 0u64, 0u64, 0u64);
    for t in &m.tlbs {
        let s = t.stats();
        tlb.0 += s.hits;
        tlb.1 += s.misses;
        tlb.2 += s.stlb_hits;
        tlb.3 += s.evictions;
        tlb.4 += s.fracture_escalations;
    }
    Ok(ScaleTierResult {
        events: m.events_processed(),
        sim_cycles: m.now().as_u64(),
        digest: m.state_digest(),
        counters: m.stats.counters.clone(),
        tlb_hits: tlb.0,
        tlb_misses: tlb.1,
        stlb_hits: tlb.2,
        tlb_evictions: tlb.3,
        tlb_fractures: tlb.4,
    })
}

/// A churn responder: reads through the shared working set with think
/// time between pages until its deadline. Reads landing after a zap
/// demand-fault — at opt level 7 a fault on a *parked* page is the
/// reuse-hit path (unpark, skip the fill work); below 7 it is a plain
/// zero-fill fault.
struct ChurnReader {
    addr: u64,
    pages: u64,
    think: u64,
    deadline: u64,
    idx: u64,
    state: u32,
}

impl Prog for ChurnReader {
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
        if ctx.now.as_u64() >= self.deadline {
            return ProgAction::Exit;
        }
        match self.state {
            0 => {
                self.idx = (self.idx + 1) % self.pages;
                self.state = 1;
                ProgAction::Access {
                    va: VirtAddr::new(self.addr + self.idx * 4096),
                    write: false,
                }
            }
            _ => {
                self.state = 0;
                ProgAction::Compute(Cycles::new(self.think.max(1)))
            }
        }
    }
}

/// Cores of the reuse-churn machine: core 0 churns, the rest read the
/// working set in the same mm and absorb whatever IPIs the churn still
/// sends.
const REUSE_CHURN_CORES: u32 = 4;

/// Configuration of the reuse-heavy churn adversary: one initiator
/// cycling a fixed working set through touch → `madvise(MADV_DONTNEED)`
/// → re-touch of the *same* mapping, forever re-creating the exact
/// PTE the zap removed. This is the best case the reuse-skip window
/// (opt level 7) was built for — and, with `working_set_pages` pushed
/// past `reuse_window_cap`, its worst case: every park capacity-evicts
/// an older entry whose deferred shootdown debt then comes due as a
/// real flush.
#[derive(Clone, Debug)]
pub struct ReuseChurnCfg {
    /// Pages in the churned working set.
    pub(crate) working_set_pages: u64,
    /// Reuse-window capacity the kernel runs with (the pressure knob:
    /// below `working_set_pages` every round overflows the window).
    pub(crate) reuse_window_cap: usize,
    /// Churn rounds (each round = touch set + madvise set).
    pub iters: u64,
    /// Optimizations active.
    pub(crate) opts: OptConfig,
    /// Mitigations on?
    pub(crate) safe: bool,
    /// Seed for the initiator's jitter stream.
    pub(crate) seed: u64,
}

impl ReuseChurnCfg {
    /// A churn cell whose working set fits the reuse window: at level 7
    /// every round after the first parks and re-hits without a single
    /// shootdown.
    pub fn fitting(opts: OptConfig) -> Self {
        ReuseChurnCfg {
            working_set_pages: 8,
            reuse_window_cap: 16,
            iters: 40,
            opts,
            safe: true,
            seed: 0x4e05_e171,
        }
    }

    /// A churn cell that overflows the reuse window every round: the
    /// adversarial case where level 7 pays its deferred debt as
    /// capacity-eviction flushes instead of saving anything.
    pub fn overflowing(opts: OptConfig) -> Self {
        ReuseChurnCfg {
            working_set_pages: 32,
            reuse_window_cap: 8,
            ..Self::fitting(opts)
        }
    }
}

/// What one reuse-churn run produced. Deterministic: same cfg ⇒ same
/// result, byte for byte.
#[derive(Clone, Debug)]
pub struct ReuseChurnResult {
    /// Shootdowns the churn actually ran (elision shrinks this).
    pub shootdowns: u64,
    /// Pages parked in the reuse window.
    pub reuse_parks: u64,
    /// Re-touches satisfied from a parked entry with a matching
    /// versioned PTE (each one is an elided shootdown/flush pair).
    pub reuse_hits: u64,
    /// Parked entries capacity-evicted out of the window.
    pub reuse_evictions: u64,
    /// Deferred-debt flushes those evictions forced.
    pub debt_flushes: u64,
    /// Mean initiator `madvise` latency in cycles.
    pub madvise_mean: f64,
    /// Full machine counter set.
    pub counters: Counter,
    /// Final simulated time.
    pub sim_cycles: u64,
    /// Canonical machine-state digest at the end of the run.
    pub digest: u64,
}

/// Run the reuse-churn adversary to completion.
///
/// Fails with a typed [`SimError`] on a misconfigured cell, a boot that
/// cannot allocate, or an oracle violation.
pub fn run_reuse_churn(cfg: &ReuseChurnCfg) -> SimResult<ReuseChurnResult> {
    if cfg.working_set_pages < 1 || cfg.reuse_window_cap < 1 {
        return Err(SimError::InvalidArgument(
            "reuse churn needs a non-empty working set and window".into(),
        ));
    }
    let kc = KernelConfig::test_machine(REUSE_CHURN_CORES)
        .with_opts(cfg.opts)
        .with_safe_mode(cfg.safe)
        .with_reuse_window_cap(cfg.reuse_window_cap);
    let mut m = Machine::new(kc);
    let mm = m.create_process()?;
    let addr = m.setup_map_anon(mm, cfg.working_set_pages)?;
    let rng = SplitMix64::new(cfg.seed);
    let deadline = cfg.iters * 400_000;
    // The region is pre-mapped so the readers share its address; the
    // initiator starts in its touch phase instead of mmaping.
    let initiator = MadviseLoopProg::new(cfg.working_set_pages, cfg.iters)
        .with_jitter(rng)
        .premapped(addr);
    m.spawn(mm, CoreId(0), Box::new(initiator));
    for core in 1..REUSE_CHURN_CORES {
        m.spawn(
            mm,
            CoreId(core),
            Box::new(ChurnReader {
                addr: addr.as_u64(),
                pages: cfg.working_set_pages,
                think: 2_000 + u64::from(core) * 97,
                deadline,
                idx: u64::from(core),
                state: 0,
            }),
        );
    }
    m.run_until(Cycles::new(deadline));
    if let Some(v) = m.violations().first() {
        return Err(v.clone());
    }
    let init = m
        .stats
        .syscall_lat
        .get(&(CoreId(0), "madvise_dontneed"))
        .ok_or_else(|| SimError::InvalidArgument("churn never ran madvise".into()))?;
    if init.count() != cfg.iters {
        return Err(SimError::InvalidArgument(format!(
            "only {}/{} churn rounds completed",
            init.count(),
            cfg.iters
        )));
    }
    let c = &m.stats.counters;
    Ok(ReuseChurnResult {
        shootdowns: c.get("shootdown"),
        reuse_parks: c.get("reuse_park"),
        reuse_hits: c.get("reuse_hit"),
        reuse_evictions: c.get("reuse_evict"),
        debt_flushes: c.get("reuse_debt_flush"),
        madvise_mean: init.mean(),
        counters: m.stats.counters.clone(),
        sim_cycles: m.now().as_u64(),
        digest: m.state_digest(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(placement: Placement, ptes: u64, safe: bool, opts: OptConfig) -> MadviseBenchResult {
        let mut cfg = MadviseBenchCfg::new(placement, ptes, safe, opts);
        cfg.iters = 60;
        cfg.runs = 2;
        run_madvise_bench(&cfg).expect("bench runs clean")
    }

    #[test]
    fn concurrent_flushes_help_the_initiator() {
        let base = quick(Placement::SameSocket, 10, true, OptConfig::cumulative(0));
        let conc = quick(Placement::SameSocket, 10, true, OptConfig::cumulative(1));
        assert!(
            conc.initiator.mean() < base.initiator.mean(),
            "concurrent {} !< baseline {}",
            conc.initiator.mean(),
            base.initiator.mean()
        );
    }

    #[test]
    fn early_ack_helps_more_cross_socket() {
        let near_base = quick(Placement::SameSocket, 10, true, OptConfig::cumulative(1));
        let near_ea = quick(Placement::SameSocket, 10, true, OptConfig::cumulative(2));
        let far_base = quick(Placement::DiffSocket, 10, true, OptConfig::cumulative(1));
        let far_ea = quick(Placement::DiffSocket, 10, true, OptConfig::cumulative(2));
        let near_gain = near_base.initiator.mean() - near_ea.initiator.mean();
        let far_gain = far_base.initiator.mean() - far_ea.initiator.mean();
        assert!(far_gain > 0.0, "early ack must help cross-socket");
        assert!(
            far_gain >= near_gain,
            "early-ack gain should grow with distance: near {near_gain:.0} far {far_gain:.0}"
        );
    }

    #[test]
    fn in_context_flushing_helps_responder_in_safe_mode() {
        let base = quick(Placement::SameSocket, 10, true, OptConfig::cumulative(3));
        let ic = quick(Placement::SameSocket, 10, true, OptConfig::cumulative(4));
        assert!(
            ic.responder.mean() < base.responder.mean(),
            "in-context {} !< baseline {}",
            ic.responder.mean(),
            base.responder.mean()
        );
    }

    #[test]
    fn ten_ptes_cost_more_than_one() {
        let one = quick(Placement::SameSocket, 1, true, OptConfig::baseline());
        let ten = quick(Placement::SameSocket, 10, true, OptConfig::baseline());
        assert!(ten.initiator.mean() > one.initiator.mean());
        assert!(ten.responder.mean() > one.responder.mean());
    }

    #[test]
    fn scale_tier_smoke_hits_its_target_deterministically() {
        let cfg = ScaleTierCfg::smoke();
        let a = run_scale_tier(&cfg).expect("tier runs clean");
        let b = run_scale_tier(&cfg).expect("tier runs clean");
        assert_eq!(a.events, cfg.target_events, "queue must not drain early");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.sim_cycles, b.sim_cycles);
        assert!(a.counters.get("shootdown") > 0, "madvise traffic flowed");
    }

    #[test]
    fn mesh_scale_tier_diverges_from_flat_but_replays_byte_identically() {
        let flat_cfg = ScaleTierCfg::smoke();
        let mut mesh_cfg = flat_cfg.clone();
        mesh_cfg.interconnect = TopologySpec::Mesh;
        let flat = run_scale_tier(&flat_cfg).expect("flat tier runs clean");
        let a = run_scale_tier(&mesh_cfg).expect("mesh tier runs clean");
        let b = run_scale_tier(&mesh_cfg).expect("mesh tier runs clean");
        assert_eq!(a.digest, b.digest, "mesh tier must replay byte-identically");
        assert_eq!(a.sim_cycles, b.sim_cycles);
        assert_ne!(
            flat.digest, a.digest,
            "per-hop routing must reshape the cross-socket run"
        );
        assert!(a.counters.get("shootdown") > 0);
    }

    #[test]
    fn thp_scale_tier_promotes_and_fractures_under_skylake_geometry() {
        let mut cfg = ScaleTierCfg::smoke();
        cfg.thp = true;
        cfg.tlb_geometry = Some(TlbGeometry::skylake_sp());
        let a = run_scale_tier(&cfg).expect("thp tier runs clean");
        let b = run_scale_tier(&cfg).expect("thp tier runs clean");
        assert_eq!(a.digest, b.digest, "thp tier must replay byte-identically");
        assert!(
            a.counters.get("thp_promote") > 0,
            "arena touches must promote huge leaves"
        );
        assert!(
            a.counters.get("thp_split") > 0,
            "partial madvise must fracture huge leaves"
        );
        assert!(a.counters.get("shootdown") > 0, "zaps must shoot down");
    }

    #[test]
    fn storm_detector_never_perturbs_benign_runs() {
        // The perturbation-freedom pin: with zero faults injected, a
        // machine with the storm detector armed must produce *byte
        // identical* BENCH_1- and BENCH_2-shaped results to the default
        // config. The detector's EWMA is tracked unconditionally and
        // consulted only on the fire-with-pending-acks path, which a
        // benign run never reaches — so enabling it may not move a
        // single counter, latency sample, digest bit or cycle.
        let detector_on = |mut chaos: ChaosConfig| {
            chaos.watchdog.storm_detector = true;
            chaos
        };

        // BENCH_1 shape: the §5.1 microbenchmark.
        let mut base =
            MadviseBenchCfg::new(Placement::DiffSocket, 10, true, OptConfig::general_four());
        base.iters = 60;
        base.runs = 2;
        let mut armed = base.clone();
        armed.chaos = detector_on(armed.chaos);
        let a = run_madvise_bench(&base).expect("benign run");
        let b = run_madvise_bench(&armed).expect("benign run");
        assert_eq!(a.sim_cycles, b.sim_cycles, "BENCH_1 sim time moved");
        assert_eq!(
            a.counters.render_json(),
            b.counters.render_json(),
            "BENCH_1 counters moved"
        );
        assert_eq!(
            format!("{:?}{:?}", a.initiator, a.responder),
            format!("{:?}{:?}", b.initiator, b.responder),
            "BENCH_1 latency summaries moved"
        );

        // BENCH_2 shape: the scale tier, digest included.
        let base = ScaleTierCfg::smoke();
        let mut armed = base.clone();
        armed.chaos = detector_on(armed.chaos);
        let a = run_scale_tier(&base).expect("benign run");
        let b = run_scale_tier(&armed).expect("benign run");
        assert_eq!(a.digest, b.digest, "BENCH_2 state digest moved");
        assert_eq!(a.sim_cycles, b.sim_cycles, "BENCH_2 sim time moved");
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.counters.render_json(),
            b.counters.render_json(),
            "BENCH_2 counters moved"
        );
    }

    #[test]
    fn fitting_reuse_churn_elides_shootdowns_at_level_7() {
        let at6 = run_reuse_churn(&ReuseChurnCfg::fitting(OptConfig::cumulative(6)))
            .expect("level-6 churn runs clean");
        let at7 = run_reuse_churn(&ReuseChurnCfg::fitting(OptConfig::cumulative(7)))
            .expect("level-7 churn runs clean");
        assert_eq!(at6.reuse_hits, 0, "reuse machinery must be inert below 7");
        assert_eq!(at6.reuse_parks, 0);
        assert!(
            at7.reuse_hits > 0,
            "window held the set; re-touches must hit"
        );
        assert!(
            at7.shootdowns < at6.shootdowns,
            "elision saved nothing: {} !< {}",
            at7.shootdowns,
            at6.shootdowns
        );
        assert_eq!(at7.debt_flushes, 0, "a fitting set must never pay debt");
    }

    #[test]
    fn overflowing_reuse_churn_pays_capacity_debt() {
        let r = run_reuse_churn(&ReuseChurnCfg::overflowing(OptConfig::cumulative(7)))
            .expect("overflowing churn runs clean");
        assert!(r.reuse_parks > 0, "madvise must still park");
        assert!(
            r.reuse_evictions > 0,
            "a 32-page set must overflow an 8-entry window"
        );
        assert!(
            r.debt_flushes > 0,
            "capacity evictions must come due as real flushes"
        );
    }

    #[test]
    fn reuse_churn_replays_byte_identically() {
        for cfg in [
            ReuseChurnCfg::fitting(OptConfig::cumulative(7)),
            ReuseChurnCfg::overflowing(OptConfig::cumulative(8)),
        ] {
            let a = run_reuse_churn(&cfg).expect("churn runs clean");
            let b = run_reuse_churn(&cfg).expect("churn runs clean");
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.sim_cycles, b.sim_cycles);
            assert_eq!(a.counters.render_json(), b.counters.render_json());
        }
    }

    #[test]
    fn safe_mode_is_slower_than_unsafe() {
        let safe = quick(Placement::SameSocket, 10, true, OptConfig::baseline());
        let unsafe_ = quick(Placement::SameSocket, 10, false, OptConfig::baseline());
        assert!(safe.initiator.mean() > unsafe_.initiator.mean());
    }
}
