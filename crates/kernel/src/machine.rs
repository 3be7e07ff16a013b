//! The machine: state, construction, the event loop and scheduling.
//!
//! Frame stepping lives in `exec.rs` (programs, syscalls, faults) and
//! `shoot.rs` (the shootdown initiator/responder state machines); both are
//! `impl Machine` blocks over the state defined here.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use tlbdown_apic::{DeliveryOutcome, IpiFabric, LocalApic, Vector};
use tlbdown_cache::CacheDirectory;
use tlbdown_core::{CpuTlbState, MmGen, Shootdown, ShootdownId, SmpLayer};
use tlbdown_mem::{FrameState, PhysMem};
use tlbdown_sim::fault::FaultPlan;
use tlbdown_sim::{Counter, Engine, SplitMix64, Summary};
use tlbdown_tlb::Tlb;
use tlbdown_types::{CoreId, Cycles, FastMap, MmId, Pcid, SimError, SimResult, ThreadId, VirtAddr};

use crate::config::{InjectedBug, KernelConfig};
use crate::cpu::{Cpu, Frame, FrameSlot, IrqFrame, IrqStage, NmiFrame, ResumeState};
use crate::event::Event;
use crate::mm::{File, FileId, FrameRefs, Mm};
use crate::oracle::Oracle;
use crate::prog::Prog;
use crate::sem::RwSem;
use crate::tracewire::trace_emit;
use tlbdown_trace::TraceEvent;

/// A thread pinned to a core.
#[derive(Clone)]
pub struct Thread {
    /// Identifier.
    pub(crate) id: ThreadId,
    /// Address space the thread runs in.
    pub(crate) mm: MmId,
    /// The user program.
    pub(crate) prog: Box<dyn Prog>,
    /// The core this thread is pinned to.
    pub(crate) core: CoreId,
    /// Whether the program has exited.
    pub done: bool,
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("id", &self.id)
            .field("mm", &self.mm)
            .field("core", &self.core)
            .field("done", &self.done)
            .finish()
    }
}

/// Aggregated measurements.
#[derive(Clone, Debug, Default)]
pub struct MachineStats {
    /// Monotone event counters (IPIs, shootdowns, faults, ...).
    pub counters: Counter,
    /// Per-(core, syscall) latency summaries, in cycles.
    pub syscall_lat: FastMap<(CoreId, &'static str), Summary>,
    /// Per-core shootdown-IRQ interruption summaries, in cycles
    /// (the §5.1 responder metric).
    pub irq_lat: FastMap<CoreId, Summary>,
    /// Per-(core, fault kind) latency summaries, in cycles
    /// (the §5.1 / Figure 9 CoW metric uses kind = "cow").
    pub fault_lat: FastMap<(CoreId, &'static str), Summary>,
    /// Per-fault-kind latency histograms (log₂ buckets) — the
    /// distribution behind the storm workload's signal-observability
    /// table, where a Summary's mean hides the attacker-visible tail.
    pub fault_hist: FastMap<&'static str, tlbdown_sim::Histogram>,
}

impl MachineStats {
    /// Record a syscall completion.
    pub(crate) fn record_syscall(&mut self, core: CoreId, name: &'static str, lat: Cycles) {
        self.syscall_lat
            .entry((core, name))
            .or_default()
            .record_cycles(lat);
        self.counters.bump(name);
    }

    /// Record a shootdown-IRQ interruption on a responder.
    pub(crate) fn record_irq(&mut self, core: CoreId, lat: Cycles) {
        self.irq_lat.entry(core).or_default().record_cycles(lat);
        self.counters.bump("shootdown_irq");
    }

    /// Record a page-fault completion.
    pub(crate) fn record_fault(&mut self, core: CoreId, kind: &'static str, lat: Cycles) {
        self.fault_lat
            .entry((core, kind))
            .or_default()
            .record_cycles(lat);
        self.fault_hist
            .entry(kind)
            .or_default()
            .record(lat.as_u64());
        self.counters.bump(kind);
    }
}

/// The simulated machine and kernel. A clone is an exact copy: stepped
/// the same way, it dispatches the same events into the same state.
#[derive(Clone)]
pub struct Machine {
    /// Boot configuration.
    pub cfg: KernelConfig,
    /// Discrete-event engine.
    pub engine: Engine<Event>,
    /// Physical memory.
    pub mem: PhysMem,
    /// Per-core TLBs.
    pub tlbs: Vec<Tlb>,
    /// Coherence directory for kernel cachelines.
    pub dir: CacheDirectory,
    /// SMP-layer cacheline layout.
    pub smp: SmpLayer,
    /// IPI fabric.
    pub fabric: IpiFabric,
    /// Per-core execution state.
    pub cpus: Vec<Cpu>,
    /// Address spaces.
    pub mms: FastMap<MmId, Mm>,
    /// Simulated files (page cache).
    pub files: FastMap<FileId, File>,
    /// Data-frame reference counts.
    pub(crate) frame_refs: FrameRefs,
    /// All threads ever spawned.
    pub threads: Vec<Thread>,
    /// In-flight shootdowns.
    pub shootdowns: FastMap<ShootdownId, Shootdown>,
    /// The safety oracle.
    pub oracle: Oracle,
    /// Measurements.
    pub stats: MachineStats,
    /// Seeded fault-injection plan (inert unless `cfg.chaos` says
    /// otherwise); consulted at IPI sends, IRQ entries and flush sites.
    pub faults: FaultPlan,
    /// Non-fatal kernel errors recorded instead of panicking: vanished
    /// address spaces on hot paths, watchdog-degraded shootdown stalls.
    pub(crate) errors: Vec<SimError>,
    /// Probe addresses for in-flight injected NMIs.
    pub(crate) pending_nmi_probe: FastMap<CoreId, Option<VirtAddr>>,
    /// Per-mm index of dirty user pages (vpn), maintained on write access;
    /// stands in for the page-cache dirty tags that let real writeback
    /// visit only dirty pages.
    pub(crate) dirty_index: FastMap<MmId, std::collections::BTreeSet<u64>>,
    /// Seeded jitter stream (see `KernelConfig::noise_cycles`).
    pub(crate) noise_rng: SplitMix64,
    /// Watchdog escalation-ladder state: per-core stall streaks,
    /// quarantine membership, and the storm detector's arrival EWMAs
    /// (see `chaos.rs`).
    pub(crate) esc: crate::chaos::Escalation,
    /// Structured event tracer (see [`Machine::start_tracing`]).
    /// Disabled by default; emission behind one branch.
    pub(crate) tracer: tlbdown_trace::Tracer,
    next_sd: u64,
    next_mm: u64,
    next_pcid: u16,
    next_file: u64,
    next_thread: u64,
}

impl Machine {
    /// Boot a machine with the given configuration.
    ///
    /// Per-core state is pre-sized for the steady-state footprint the
    /// protocols actually reach (a few stacked frames, a handful of
    /// queued call-single entries, one PCID generation per co-resident
    /// mm), so a scaled dual-socket configuration boots without paying
    /// growth reallocations on the first shootdown storm.
    pub fn new(cfg: KernelConfig) -> Self {
        let n = cfg.topo.num_cores();
        // Mix the boot epoch into every derived seed so a cold-rebooted
        // machine replays a *different* (but still deterministic) noise
        // and fault schedule than its pre-crash boot. Epoch 0 is the
        // identity, keeping all single-boot digests unchanged.
        let cfg_seed = cfg.epoch_seed(cfg.seed);
        let fault_seed = cfg.epoch_seed(cfg.chaos.fault_seed);
        let faults = FaultPlan::new(cfg.chaos.fault.clone(), fault_seed, n);
        let esc = crate::chaos::Escalation::new(n, fault_seed);
        // The directory and fabric carry separate interconnect instances:
        // data transfers and IPIs travel distinct NoC virtual channels, so
        // their link queues do not contend with each other.
        let mut dir = CacheDirectory::with_interconnect(
            cfg.topo.clone(),
            cfg.costs.clone(),
            cfg.interconnect.clone(),
        );
        let smp = SmpLayer::new(&mut dir, n, cfg.opts.cacheline_consolidation);
        let fabric = IpiFabric::with_interconnect(
            cfg.topo.clone(),
            cfg.costs.clone(),
            cfg.interconnect.clone(),
        );
        let tlbs = (0..n)
            .map(|_| {
                let mut t = Tlb::with_geometry(cfg.tlb_geometry.clone());
                t.set_split_blind_invlpg(cfg.injects(InjectedBug::Fracture));
                t
            })
            .collect();
        let cpus = (0..n)
            .map(|i| {
                let mut frames = Vec::with_capacity(4);
                frames.push(FrameSlot {
                    frame: Frame::Idle,
                    resume: ResumeState::Blocked,
                });
                Cpu {
                    id: CoreId(i),
                    tlb_state: CpuTlbState::load_mm(MmId::KERNEL, Pcid::new(0), 0),
                    lapic: LocalApic::new(),
                    frames,
                    runqueue: VecDeque::with_capacity(4),
                    current: None,
                    csq: VecDeque::with_capacity(8),
                    resume_token: 0,
                    acked_unflushed: 0,
                    in_batched_syscall: false,
                    pcid_gens: FastMap::with_capacity_and_hasher(8, Default::default()),
                }
            })
            .collect();
        Machine {
            cfg,
            engine: Engine::new(),
            mem: PhysMem::paper_machine(),
            tlbs,
            dir,
            smp,
            fabric,
            cpus,
            mms: FastMap::with_capacity_and_hasher(8, Default::default()),
            files: FastMap::with_capacity_and_hasher(8, Default::default()),
            frame_refs: FrameRefs::new(),
            threads: Vec::with_capacity(n as usize + 4),
            shootdowns: FastMap::with_capacity_and_hasher(n as usize * 2, Default::default()),
            oracle: Oracle::new(),
            stats: MachineStats::default(),
            faults,
            errors: Vec::new(),
            pending_nmi_probe: FastMap::default(),
            dirty_index: FastMap::with_capacity_and_hasher(8, Default::default()),
            noise_rng: SplitMix64::new(cfg_seed),
            esc,
            tracer: tlbdown_trace::Tracer::disabled(),
            next_sd: 1,
            next_mm: 1,
            next_pcid: 1,
            next_file: 1,
            next_thread: 1,
        }
    }

    /// Cold-reboot the machine: consume the crashed instance and boot a
    /// fresh kernel from the same configuration with a bumped
    /// [`KernelConfig::boot_epoch`].
    ///
    /// Everything volatile is lost — TLBs come back empty (every first
    /// touch refaults), PCIDs and address spaces are gone, in-flight
    /// shootdowns simply vanish (as a power cycle makes them), and the
    /// event clock restarts at zero. Determinism is preserved because
    /// the rebooted machine is a pure function of `(cfg, boot_epoch+1)`;
    /// nothing from the crashed boot leaks across except the config.
    pub fn cold_reboot(self) -> Machine {
        let epoch = self.cfg.boot_epoch + 1;
        Machine::new(self.cfg.with_boot_epoch(epoch))
    }

    /// Which boot of this chassis is running (see
    /// [`KernelConfig::boot_epoch`]).
    pub fn boot_epoch(&self) -> u64 {
        self.cfg.boot_epoch
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.engine.now()
    }

    /// Total events dispatched by the engine since boot.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Violations the oracle has recorded.
    pub fn violations(&self) -> &[SimError] {
        self.oracle.violations()
    }

    /// Non-fatal errors the kernel recorded instead of panicking
    /// (missing address spaces, watchdog-degraded stalls). Distinct from
    /// [`Machine::violations`]: these are *handled* conditions, not
    /// safety-contract breaks.
    pub fn recorded_errors(&self) -> &[SimError] {
        &self.errors
    }

    /// Record a non-fatal kernel error.
    pub(crate) fn record_error(&mut self, e: SimError) {
        self.stats.counters.bump("kernel_error");
        self.errors.push(e);
    }

    // --- Setup API ---

    /// Create an address space (process) and return its id.
    ///
    /// Fails with [`SimError::OutOfMemory`] when no frame is left for
    /// the root page table and with [`SimError::InvalidArgument`] when
    /// the PCID space is exhausted — typed errors the caller can
    /// surface, not release-mode panics.
    pub fn create_process(&mut self) -> SimResult<MmId> {
        match self.next_pcid.checked_add(2) {
            Some(next) if next < Pcid::USER_BIT => {}
            _ => return Err(SimError::InvalidArgument("PCID space exhausted".into())),
        }
        let id = MmId::new(self.next_mm);
        self.next_mm += 1;
        let pcid = Pcid::new(self.next_pcid);
        self.next_pcid += 2; // leave room for the PTI user sibling bit
        let space = tlbdown_mem::AddrSpace::new(&mut self.mem)?;
        self.mms.insert(
            id,
            Mm {
                space,
                gen: MmGen::new(),
                cpumask: BTreeSet::new(),
                vmas: BTreeMap::new(),
                mmap_sem: RwSem::new(),
                pcid,
                mmap_cursor: VirtAddr::new(0x1000_0000),
                reuse: crate::mm::ReuseWindow::new(),
                pte_versions: BTreeMap::new(),
                numa_stale: BTreeMap::new(),
            },
        );
        Ok(id)
    }

    /// Create a file of `pages` page-cache pages.
    ///
    /// Fails with [`SimError::OutOfMemory`] when the page cache cannot
    /// be populated; pages already allocated for the failed file are
    /// released back to the frame allocator.
    pub fn create_file(&mut self, pages: u64) -> SimResult<FileId> {
        let id = FileId(self.next_file);
        let mut frames = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            let Ok(pa) = self.mem.alloc(FrameState::UserPage) else {
                for prev in frames {
                    if matches!(self.frame_refs.put_page(prev), Ok(true)) {
                        self.mem.free(prev);
                    }
                }
                return Err(SimError::OutOfMemory);
            };
            self.frame_refs.get_page(pa);
            frames.push(pa);
        }
        self.next_file += 1;
        self.files.insert(id, File { pages: frames });
        Ok(id)
    }

    /// Insert an anonymous VMA directly (benchmark setup; takes no
    /// simulated time). Returns the mapped address, or
    /// [`SimError::NoSuchMm`] for an unknown address space.
    pub fn setup_map_anon(&mut self, mm: MmId, pages: u64) -> SimResult<VirtAddr> {
        let m = self.mms.get_mut(&mm).ok_or(SimError::NoSuchMm(mm))?;
        let addr = m.mmap_cursor;
        m.mmap_cursor = m.mmap_cursor.add((pages + 1) * 4096);
        m.insert_vma(crate::mm::Vma {
            range: tlbdown_types::VirtRange::pages(addr, pages, tlbdown_types::PageSize::Size4K),
            kind: crate::mm::VmaKind::Anon,
            prot_write: true,
            prot_exec: false,
            thp: false,
        })?;
        Ok(addr)
    }

    /// Insert an anonymous THP-eligible VMA at a 2MB-aligned address
    /// (`mmap` + `madvise(MADV_HUGEPAGE)` benchmark setup; takes no
    /// simulated time). Demand faults in fully-unmapped 2MB windows of
    /// this VMA map 2MB leaves. Returns the mapped address.
    pub fn setup_map_anon_thp(&mut self, mm: MmId, pages: u64) -> SimResult<VirtAddr> {
        const HUGE: u64 = 2 * 1024 * 1024;
        let m = self.mms.get_mut(&mm).ok_or(SimError::NoSuchMm(mm))?;
        let addr = tlbdown_types::VirtAddr::new((m.mmap_cursor.as_u64() + HUGE - 1) & !(HUGE - 1));
        m.mmap_cursor = addr.add(pages * 4096 + HUGE); // huge-aligned guard gap
        m.insert_vma(crate::mm::Vma {
            range: tlbdown_types::VirtRange::pages(addr, pages, tlbdown_types::PageSize::Size4K),
            kind: crate::mm::VmaKind::Anon,
            prot_write: true,
            prot_exec: false,
            thp: true,
        })?;
        Ok(addr)
    }

    /// Map a whole file directly (benchmark setup; takes no simulated
    /// time). Returns the mapped address, or [`SimError::NoSuchMm`] /
    /// [`SimError::InvalidArgument`] for an unknown mm or file.
    pub fn setup_map_file(&mut self, mm: MmId, file: FileId, shared: bool) -> SimResult<VirtAddr> {
        let pages = self
            .files
            .get(&file)
            .ok_or_else(|| SimError::InvalidArgument(format!("no such file {file:?}")))?
            .pages
            .len() as u64;
        let m = self.mms.get_mut(&mm).ok_or(SimError::NoSuchMm(mm))?;
        let addr = m.mmap_cursor;
        m.mmap_cursor = m.mmap_cursor.add((pages + 1) * 4096);
        let kind = if shared {
            crate::mm::VmaKind::FileShared {
                file,
                page_offset: 0,
            }
        } else {
            crate::mm::VmaKind::FilePrivate {
                file,
                page_offset: 0,
            }
        };
        m.insert_vma(crate::mm::Vma {
            range: tlbdown_types::VirtRange::pages(addr, pages, tlbdown_types::PageSize::Size4K),
            kind,
            prot_write: true,
            prot_exec: false,
            thp: false,
        })?;
        Ok(addr)
    }

    /// Spawn a thread of `mm` pinned to `core`; it starts running when the
    /// core picks it up (immediately if the core is idle).
    pub fn spawn(&mut self, mm: MmId, core: CoreId, prog: Box<dyn Prog>) -> ThreadId {
        assert!(self.mms.contains_key(&mm), "spawn into unknown mm");
        let id = ThreadId(self.next_thread);
        self.next_thread += 1;
        let idx = self.threads.len();
        self.threads.push(Thread {
            id,
            mm,
            prog,
            core,
            done: false,
        });
        self.cpus[core.index()].runqueue.push_back(idx);
        // An idle core picks the thread up via a zero-cost resume.
        if matches!(
            self.cpus[core.index()].frames.last(),
            Some(FrameSlot {
                frame: Frame::Idle,
                ..
            })
        ) && self.cpus[core.index()].frames.len() == 1
        {
            self.schedule_step(core, Cycles::ZERO);
        }
        id
    }

    // --- Event loop ---

    /// Pop and handle exactly one event via the plain FIFO dispatch
    /// path (no scheduler indirection, no closed form: the reference
    /// that `run_until` and `run_events` must match). Returns `false`
    /// when the queue is drained.
    pub fn step(&mut self) -> bool {
        match self.engine.pop() {
            Some(ev) => {
                self.handle(ev);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue drains. Busy-looping cores run in
    /// closed form, as under [`Machine::run_until`].
    pub fn run(&mut self) {
        self.run_to(Cycles::new(u64::MAX), u64::MAX);
    }

    /// Run until simulated time reaches `deadline` (or the queue drains).
    ///
    /// Busy-looping cores run in closed form (see [`Prog::spin_period`]
    /// and DESIGN §3): a popped live resume of one, and every resume of a
    /// core spinning with the same period that comes next, are applied
    /// at once, leaving exactly the state single steps would.
    pub fn run_until(&mut self, deadline: Cycles) {
        self.run_to(deadline, u64::MAX);
    }

    /// Run until `n` events have been dispatched since boot (or the queue
    /// drains), leaving exactly the state that calling [`Machine::step`]
    /// until then would. Busy-looping cores run in closed form, as under
    /// [`Machine::run_until`].
    pub fn run_events(&mut self, n: u64) {
        self.run_to(Cycles::new(u64::MAX), n);
    }

    /// The loop behind `run`, `run_until` and `run_events`: dispatch what
    /// is due by `deadline` until `end` events have been dispatched since
    /// boot.
    fn run_to(&mut self, deadline: Cycles, end: u64) {
        while self.engine.events_processed() < end {
            let Some(mut ev) = self.engine.pop_until(deadline) else {
                return;
            };
            let period = match ev {
                Event::Resume { core, token } if !self.engine.has_time_errors() => {
                    spin_period(&self.cpus, &self.threads, core, token)
                }
                _ => None,
            };
            if let Some(period) = period {
                let mut group = SpinGroup {
                    cpus: &mut self.cpus,
                    threads: &self.threads,
                    period,
                };
                match self
                    .engine
                    .run_periodic(ev, period, deadline, end, &mut group)
                {
                    Ok(()) => continue,
                    Err(first) => ev = first,
                }
            }
            self.handle(ev);
        }
    }

    /// Process one event chosen by `sched` (see `tlbdown_sim::sched`):
    /// same-cycle ties and race-eligible interrupt arrivals within the
    /// scheduler's window become explicit branch points. Returns `false`
    /// when the queue is drained. With
    /// [`FifoScheduler`](tlbdown_sim::FifoScheduler) this replays exactly
    /// what [`Machine::run`] does.
    pub fn step_with<S: tlbdown_sim::Scheduler>(&mut self, sched: &mut S) -> bool {
        match self.engine.pop_with(sched, Event::race_eligible) {
            Some(ev) => {
                self.handle(ev);
                true
            }
            None => false,
        }
    }

    /// How many candidates the next [`Machine::step_with`] would offer a
    /// scheduler whose window is `window` (1 when it would not ask, 0
    /// when the queue is drained), without dispatching anything.
    pub fn candidates(&self, window: Cycles) -> usize {
        self.engine.candidates(window, Event::race_eligible)
    }

    fn handle(&mut self, ev: Event) {
        // The engine clamps and logs any event dispatched with a stale
        // fire time (always on, release builds included); surface those
        // as recorded kernel errors so gates and digests see them. The
        // common case is one branch on an empty log.
        if self.engine.has_time_errors() {
            for e in self.engine.take_time_errors() {
                self.record_error(e);
            }
        }
        match ev {
            Event::Resume { core, token } => {
                if token == self.cpus[core.index()].resume_token {
                    self.step_core(core);
                }
            }
            Event::IpiArrive { core, vector } => {
                trace_emit!(self, core, None::<u64>, TraceEvent::IpiDeliver);
                self.on_ipi(core, vector);
            }
            Event::NmiArrive { core } => {
                trace_emit!(
                    self,
                    core,
                    None::<u64>,
                    TraceEvent::EngineDispatch { kind: "nmi_arrive" }
                );
                self.on_nmi(core);
            }
            Event::LazyFlushDue { core, info } => {
                trace_emit!(
                    self,
                    core,
                    None::<u64>,
                    TraceEvent::EngineDispatch {
                        kind: "lazy_flush_due"
                    }
                );
                self.on_lazy_flush(core, info);
            }
            Event::CsdWatchdog {
                initiator,
                id,
                resends,
                widened,
            } => self.on_csd_watchdog(initiator, id, resends, widened),
            Event::ForcedFullFlush { core, id } => self.on_forced_flush(core, id),
        }
    }

    // --- Scheduling helpers ---

    /// Schedule the top frame of `core` to step after `cost` cycles.
    pub(crate) fn schedule_step(&mut self, core: CoreId, cost: Cycles) {
        let cpu = &mut self.cpus[core.index()];
        cpu.resume_token += 1;
        let token = cpu.resume_token;
        if let Some(top) = cpu.frames.last_mut() {
            top.resume = ResumeState::Scheduled {
                end: self.engine.now() + cost,
            };
        }
        self.engine.schedule_in(cost, Event::Resume { core, token });
    }

    /// Wake a core whose top frame is blocked on a now-satisfied condition.
    /// No-op if the blocked frame is covered by an interrupt frame: the
    /// uncovering pop re-steps it.
    pub(crate) fn wake(&mut self, core: CoreId) {
        if matches!(
            self.cpus[core.index()].frames.last(),
            Some(FrameSlot {
                resume: ResumeState::Blocked,
                ..
            })
        ) {
            self.schedule_step(core, Cycles::ZERO);
        }
    }

    /// Push a frame on top of `core`'s stack, suspending the current top,
    /// and schedule its first step after `initial_cost`.
    pub(crate) fn push_frame(&mut self, core: CoreId, frame: Frame, initial_cost: Cycles) {
        let now = self.engine.now();
        let cpu = &mut self.cpus[core.index()];
        if let Some(top) = cpu.frames.last_mut() {
            if let ResumeState::Scheduled { end } = top.resume {
                top.resume = ResumeState::Suspended {
                    remaining: end.saturating_sub(now),
                };
            }
        }
        cpu.frames.push(FrameSlot {
            frame,
            resume: ResumeState::Blocked,
        });
        self.schedule_step(core, initial_cost);
    }

    // --- Interrupt arrival ---

    fn on_ipi(&mut self, core: CoreId, vector: Vector) {
        // NMIs travel via `Event::NmiArrive`, never the maskable IPI
        // path; delivering one here would bypass LAPIC masking. Checked
        // in release builds too — record and drop rather than corrupt
        // the interrupt model.
        if vector.is_nmi() {
            self.record_error(SimError::InvalidArgument(
                "NMI vector delivered on the maskable IPI path".into(),
            ));
            return;
        }
        match self.cpus[core.index()].lapic.accept(vector) {
            DeliveryOutcome::Dispatch => self.dispatch_irq(core),
            DeliveryOutcome::Queued => {}
        }
    }

    /// Push the shootdown IRQ handler frame.
    pub(crate) fn dispatch_irq(&mut self, core: CoreId) {
        let user = matches!(
            self.cpus[core.index()].frames.last(),
            Some(FrameSlot {
                frame: Frame::Prog(_),
                ..
            })
        );
        let mut cost = self.cfg.costs.irq_dispatch + self.noise();
        if user && self.cfg.safe_mode {
            cost += self.cfg.costs.irq_user_entry_extra;
        }
        // Chaos: a dawdling responder enters its handler late (interrupts
        // re-enabled only after a long critical section).
        let entry_delay = self.faults.irq_entry_delay(core);
        if entry_delay > Cycles::ZERO {
            trace_emit!(
                self,
                core,
                None::<u64>,
                TraceEvent::Perturb {
                    kind: tlbdown_trace::PerturbKind::IrqEntryDelay,
                }
            );
        }
        cost += entry_delay;
        self.stats.counters.bump("irq_dispatch");
        let frame = Frame::Irq(Box::new(IrqFrame {
            started: self.engine.now(),
            stage: IrqStage::DrainQueue,
            queue: Vec::new(),
            qidx: 0,
            acked: false,
            entries: Vec::new(),
            eidx: 0,
            user_entries: Vec::new(),
            uidx: 0,
            upto: 0,
            act: crate::cpu::IrqAct::Pending,
            cur_info: None,
            cur_initiator: CoreId(0),
            cur_early: false,
            cur_buggy_ack: false,
        }));
        self.push_frame(core, frame, cost);
    }

    fn on_nmi(&mut self, core: CoreId) {
        // NMIs bypass masking; the LocalApic is not involved.
        self.stats.counters.bump("nmi");
        let probe = self.pending_nmi_probe.remove(&core).flatten();
        let frame = Frame::Nmi(NmiFrame {
            stage: crate::cpu::NmiStage::Body,
            probe,
        });
        self.push_frame(core, frame, self.cfg.costs.irq_dispatch);
    }

    /// Inject an NMI from `from` into `target`, optionally probing a user
    /// address from the handler (kprobe-style, the §3.2 hazard).
    pub fn inject_nmi(&mut self, from: CoreId, target: CoreId, probe: Option<VirtAddr>) {
        let d = self.fabric.nmi_plan(from, target);
        self.pending_nmi_probe.insert(target, probe);
        self.engine
            .schedule_in(d.arrives_in, Event::NmiArrive { core: target });
    }

    /// One sample of the configured jitter (zero when noise is off).
    pub(crate) fn noise(&mut self) -> Cycles {
        if self.cfg.noise_cycles == 0 {
            Cycles::ZERO
        } else {
            Cycles::new(self.noise_rng.gen_range(self.cfg.noise_cycles + 1))
        }
    }

    /// Allocate a fresh shootdown id.
    pub(crate) fn alloc_sd_id(&mut self) -> ShootdownId {
        let id = ShootdownId(self.next_sd);
        self.next_sd += 1;
        id
    }
}

/// The spin period of `core` if `token` is its live resume and its top
/// frame is a busy-looping program about to step: a `Prog` frame with no
/// pending access whose thread is live and whose program promises a
/// period `P > 0` (DESIGN §3).
fn spin_period(cpus: &[Cpu], threads: &[Thread], core: CoreId, token: u64) -> Option<Cycles> {
    let cpu = &cpus[core.index()];
    if token != cpu.resume_token {
        return None;
    }
    let Some(FrameSlot {
        frame: Frame::Prog(pf),
        ..
    }) = cpu.frames.last()
    else {
        return None;
    };
    let thread = &threads[pf.thread];
    if pf.pending_access.is_some() || thread.done {
        return None;
    }
    thread.prog.spin_period().filter(|p| *p > Cycles::ZERO)
}

/// The cores of one closed-form busy-loop run, all spinning with
/// `period`. A stepped spin dispatch calls `next`, gets `Compute(P)`,
/// zeroes the frame's `retval`, bumps the resume token, marks the frame
/// `Scheduled` and schedules the next resume `P` later; it bumps no
/// counter, traces nothing, draws no noise and charges no cost. So `n`
/// of them differ only in the clock, the dispatch count, the sequence
/// numbers (all kept by the engine) and what `settle` sets.
struct SpinGroup<'a> {
    cpus: &'a mut [Cpu],
    threads: &'a [Thread],
    period: Cycles,
}

impl tlbdown_sim::Periodic<Event> for SpinGroup<'_> {
    fn joins(&self, ev: &Event) -> bool {
        matches!(*ev, Event::Resume { core, token }
            if spin_period(self.cpus, self.threads, core, token) == Some(self.period))
    }

    fn settle(&mut self, ev: &mut Event, fires: u64, at: Cycles) {
        let Event::Resume { core, token } = ev else {
            return;
        };
        let cpu = &mut self.cpus[core.index()];
        cpu.resume_token += fires;
        *token = cpu.resume_token;
        if let Some(FrameSlot {
            frame: Frame::Prog(pf),
            resume,
        }) = cpu.frames.last_mut()
        {
            pf.retval = 0;
            *resume = ResumeState::Scheduled { end: at };
        }
    }
}

impl Machine {
    /// Turn on structured event tracing with per-core ring buffers of
    /// `per_core_capacity` records each. Tracing never mutates simulation
    /// state: no RNG draws, no cost charges, no scheduling — metrics and
    /// digests are byte-identical with tracing on or off.
    pub fn start_tracing(&mut self, per_core_capacity: usize) {
        let n = self.cfg.topo.num_cores() as usize;
        self.tracer.enable(n, per_core_capacity);
    }

    /// Drain everything recorded so far into a [`tlbdown_trace::Trace`],
    /// leaving the tracer enabled (sequence numbers keep running, so a
    /// later capture merges after this one).
    pub fn take_trace(&mut self) -> tlbdown_trace::Trace {
        self.tracer.take()
    }
}
