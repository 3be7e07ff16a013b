//! Frame stepping: programs, system calls, page faults and NMIs.
//!
//! Every step function follows the engine's contract: perform the current
//! stage's *effects* immediately, then return how long the stage occupies
//! the core. Cross-core-visible effects (acknowledgements, IPIs) add their
//! propagation latency explicitly in `shoot.rs`.

use tlbdown_core::{cow_flush_method, CowFlushMethod, FlushTlbInfo};
use tlbdown_mem::{FrameState, Pte};
use tlbdown_types::{
    CoreId, Cycles, MmId, PageSize, Pcid, PhysAddr, PteFlags, SimError, VirtAddr, VirtRange,
};

use crate::config::InjectedBug;
use crate::cpu::{
    FaultFrame, FaultStage, Frame, FrameSlot, NmiFrame, NmiStage, ProgFrame, ResumeState,
    ShootdownRun, SyscallFrame, SyscallStage,
};
use crate::machine::Machine;
use crate::mm::VmaKind;
use crate::prog::{ProgAction, ProgCtx, Syscall};
use crate::sem::SemMode;
use crate::shoot::SdOut;
use crate::tracewire::trace_emit;
use tlbdown_trace::TraceEvent;

/// Result of stepping one frame.
pub(crate) enum StepOut {
    /// Stage effects applied; occupy the core for this long.
    Continue(Cycles),
    /// Waiting on a condition; a waker (or uncovering pop) re-steps.
    Block,
    /// Frame finished; charge `cost`, optionally deliver a return value to
    /// the program frame below.
    Done {
        /// Final cost (e.g. kernel exit).
        cost: Cycles,
        /// Syscall return value.
        retval: Option<u64>,
    },
    /// Keep this frame (suspended at zero remaining); run `frame` on top.
    Push {
        /// The frame to push.
        frame: Frame,
        /// Its initial (dispatch/entry) cost.
        cost: Cycles,
    },
    /// Replace this frame with another (thread switch on the base frame).
    Replace {
        /// The replacement frame.
        frame: Frame,
        /// Switch cost.
        cost: Cycles,
    },
    /// A kernel-side error (e.g. a vanished address space): record it,
    /// abort this frame, and deliver a failure retval to the program
    /// below. Only kernel frames (syscalls/faults) may return this — the
    /// base frame must stay on the stack.
    Error(SimError),
}

/// The flush a PTE change owes: the ranged flush that must reach a sink
/// (a batch, a barrier or a direct run) and the oracle `(vpn, version)`
/// pairs its completion retires. Built only by [`Machine::owe_flush`].
#[must_use]
pub(crate) struct OwedFlush {
    /// The ranged flush, at the generation the change bumped to.
    pub(crate) info: FlushTlbInfo,
    /// Oracle pairs to retire when the flush completes.
    pub(crate) retire: Vec<(u64, u64)>,
}

impl Machine {
    /// Step the top frame of `core`.
    pub(crate) fn step_core(&mut self, core: CoreId) {
        let Some(mut slot) = self.cpus[core.index()].frames.pop() else {
            return;
        };
        let out = match &mut slot.frame {
            Frame::Idle => self.step_idle(core),
            Frame::Prog(pf) => self.step_prog(core, pf),
            Frame::Syscall(sf) => self.step_syscall(core, sf),
            Frame::Fault(ff) => self.step_fault(core, ff),
            Frame::Irq(irf) => self.step_irq(core, irf),
            Frame::Nmi(nf) => self.step_nmi(core, nf),
        };
        // Errors propagate through the event loop: record, then unwind
        // the frame like a completed one with a failure retval.
        let out = match out {
            StepOut::Error(e) => {
                self.record_error(e);
                StepOut::Done {
                    cost: Cycles::ZERO,
                    retval: Some(u64::MAX),
                }
            }
            other => other,
        };
        match out {
            StepOut::Continue(c) => {
                self.cpus[core.index()].frames.push(slot);
                self.schedule_step(core, c);
            }
            StepOut::Block => {
                slot.resume = ResumeState::Blocked;
                self.cpus[core.index()].frames.push(slot);
            }
            StepOut::Done { cost, retval } => {
                drop(slot);
                if let Some(r) = retval {
                    if let Some(FrameSlot {
                        frame: Frame::Prog(pf),
                        ..
                    }) = self.cpus[core.index()].frames.last_mut()
                    {
                        pf.retval = r;
                    }
                }
                let resume_extra = match self.cpus[core.index()].frames.last() {
                    Some(FrameSlot {
                        resume: ResumeState::Suspended { remaining },
                        ..
                    }) => Some(*remaining),
                    Some(FrameSlot {
                        resume: ResumeState::Blocked,
                        ..
                    }) => Some(Cycles::ZERO),
                    _ => None,
                };
                if let Some(rem) = resume_extra {
                    self.schedule_step(core, cost + rem);
                }
            }
            StepOut::Push { frame, cost } => {
                slot.resume = ResumeState::Suspended {
                    remaining: Cycles::ZERO,
                };
                self.cpus[core.index()].frames.push(slot);
                self.cpus[core.index()].frames.push(FrameSlot {
                    frame,
                    resume: ResumeState::Blocked,
                });
                self.schedule_step(core, cost);
            }
            StepOut::Replace { frame, cost } => {
                drop(slot);
                self.cpus[core.index()].frames.push(FrameSlot {
                    frame,
                    resume: ResumeState::Blocked,
                });
                self.schedule_step(core, cost);
            }
            StepOut::Error(_) => unreachable!("rewritten to Done above"),
        }
    }

    // --- Idle / scheduling ---

    fn step_idle(&mut self, core: CoreId) -> StepOut {
        let Some(idx) = self.cpus[core.index()].runqueue.pop_front() else {
            // Stay idle in lazy-TLB mode.
            return StepOut::Block;
        };
        match self.switch_to(core, idx) {
            Ok(out) => out,
            Err(e) => {
                // A thread whose mm vanished can never run; park it and
                // retry the runqueue on the next idle step.
                self.record_error(e);
                self.threads[idx].done = true;
                StepOut::Continue(self.cfg.costs.thread_switch)
            }
        }
    }

    /// Switch `core` to thread `idx` and replace the current base frame
    /// with the thread's program frame. Fails, with nothing mutated, if
    /// the thread's address space no longer exists.
    fn switch_to(&mut self, core: CoreId, idx: usize) -> Result<StepOut, SimError> {
        let cost = self.context_switch_in(core, idx)?;
        Ok(StepOut::Replace {
            frame: Frame::Prog(ProgFrame {
                thread: idx,
                pending_access: None,
                retval: 0,
                fault_info: None,
            }),
            cost,
        })
    }

    /// Switch `core` to thread `idx`; returns the switch cost. Handles the
    /// lazy-TLB exit generation check and PCID bookkeeping. Fails (before
    /// mutating any state) if the thread's address space no longer exists.
    pub(crate) fn context_switch_in(
        &mut self,
        core: CoreId,
        idx: usize,
    ) -> Result<Cycles, SimError> {
        let mm_id = self.threads[idx].mm;
        if !self.mms.contains_key(&mm_id) {
            return Err(SimError::NoSuchMm(mm_id));
        }
        let prev_mm = self.cpus[core.index()].tlb_state.loaded_mm;
        let mut cost = self.cfg.costs.thread_switch;
        self.stats.counters.bump("context_switch");

        if prev_mm != mm_id {
            cost += self.cfg.costs.cr3_switch;
            // Pending deferred user flushes of the previous mm cannot ride
            // the normal return-to-user path any more; resolve them now
            // with a full user-PCID flush.
            if self.cpus[core.index()]
                .tlb_state
                .deferred_user
                .take()
                .is_some()
            {
                let user_pcid = self.cpus[core.index()].tlb_state.user_pcid;
                self.tlbs[core.index()].flush_pcid(user_pcid);
                cost += self.cfg.costs.full_flush;
            }
            if prev_mm != MmId::KERNEL {
                let local = self.cpus[core.index()].tlb_state.local_tlb_gen;
                self.cpus[core.index()].pcid_gens.insert(prev_mm, local);
                if let Some(mm) = self.mms.get_mut(&prev_mm) {
                    mm.cpumask.remove(&core);
                }
            }
            let mm = self.mms.get(&mm_id).ok_or(SimError::NoSuchMm(mm_id))?;
            let cur_gen = mm.gen.current();
            let pcid = mm.pcid;
            let synced = self.cpus[core.index()].pcid_gens.get(&mm_id).copied();
            let start_gen = match synced {
                Some(g) if g < cur_gen => {
                    // Stale PCID-tagged entries survive the CR3 reload;
                    // flush them (lazy-exit / switch-in sync, §2.2).
                    cost += self.flush_pcid_pair(core, pcid);
                    self.stats.counters.bump("switch_in_flush");
                    cur_gen
                }
                Some(g) => g,
                None => cur_gen, // fresh PCID on this core: nothing cached
            };
            self.cpus[core.index()].tlb_state =
                tlbdown_core::CpuTlbState::load_mm(mm_id, pcid, start_gen);
            if let Some(m) = self.mms.get_mut(&mm_id) {
                m.cpumask.insert(core);
            }
        } else {
            // Same mm (possibly returning from lazy mode): sync the
            // generation if flushes were skipped while lazy.
            let cur_gen = self.mms.get(&mm_id).map(|m| m.gen.current()).unwrap_or(0);
            let local = self.cpus[core.index()].tlb_state.local_tlb_gen;
            if local < cur_gen {
                let pcid = self.cpus[core.index()].tlb_state.kernel_pcid;
                cost += self.flush_pcid_pair(core, pcid);
                self.cpus[core.index()].tlb_state.local_tlb_gen = cur_gen;
                self.stats.counters.bump("lazy_exit_flush");
            }
        }
        // Leave lazy mode: write the lazy indication line.
        self.cpus[core.index()].tlb_state.is_lazy = false;
        cost += tlbdown_core::smp::run_script(&mut self.dir, core, &self.smp.set_lazy(core));
        self.cpus[core.index()].current = Some(idx);
        Ok(cost)
    }

    /// Transition `core` to the idle kernel thread (lazy-TLB mode, §3.3).
    fn enter_idle(&mut self, core: CoreId) -> StepOut {
        self.cpus[core.index()].current = None;
        while let Some(idx) = self.cpus[core.index()].runqueue.pop_front() {
            match self.switch_to(core, idx) {
                Ok(out) => return out,
                Err(e) => {
                    self.record_error(e);
                    self.threads[idx].done = true;
                }
            }
        }
        self.cpus[core.index()].tlb_state.is_lazy = true;
        let cost = tlbdown_core::smp::run_script(&mut self.dir, core, &self.smp.set_lazy(core))
            + self.cfg.costs.thread_switch;
        self.stats.counters.bump("enter_lazy");
        StepOut::Replace {
            frame: Frame::Idle,
            cost,
        }
    }

    // --- User program execution ---

    fn step_prog(&mut self, core: CoreId, pf: &mut ProgFrame) -> StepOut {
        let idx = pf.thread;
        if self.threads[idx].done {
            return self.enter_idle(core);
        }
        if let Some((va, write, fetch)) = pf.pending_access {
            return self.do_access(core, pf, va, write, fetch);
        }
        let ctx = ProgCtx {
            retval: pf.retval,
            now: self.engine.now(),
        };
        pf.retval = 0;
        let action = self.threads[idx].prog.next(&ctx);
        debug_assert!(
            self.threads[idx]
                .prog
                .spin_period()
                .is_none_or(|p| action == ProgAction::Compute(p)),
            "a program with a spin period computes for exactly that period"
        );
        match action {
            ProgAction::Nop => StepOut::Continue(Cycles::ZERO),
            ProgAction::Compute(c) => StepOut::Continue(c),
            ProgAction::Access { va, write } => {
                pf.pending_access = Some((va, write, false));
                self.do_access(core, pf, va, write, false)
            }
            ProgAction::Fetch { va } => {
                pf.pending_access = Some((va, false, true));
                self.do_access(core, pf, va, false, true)
            }
            ProgAction::Syscall(call) => {
                let entry = Cycles::new(self.cfg.costs.syscall(self.cfg.safe_mode).as_u64() / 2);
                StepOut::Push {
                    frame: Frame::Syscall(Box::new(SyscallFrame {
                        call,
                        stage: SyscallStage::AcquireSem,
                        retval: 0,
                        sd: None,
                        batched_retires: Vec::new(),
                        barrier: Default::default(),
                        pending_frees: Vec::new(),
                        started: self.engine.now(),
                        batched: false,
                        did_batch: false,
                        batch: tlbdown_core::BatchState::new(),
                    })),
                    cost: entry,
                }
            }
            ProgAction::Yield => {
                let Some(next) = self.cpus[core.index()].runqueue.pop_front() else {
                    return StepOut::Continue(self.cfg.costs.thread_switch);
                };
                match self.switch_to(core, next) {
                    Ok(out) => {
                        self.cpus[core.index()].runqueue.push_back(idx);
                        out
                    }
                    Err(e) => {
                        // The target's mm vanished: keep running the
                        // current thread instead of switching.
                        self.record_error(e);
                        self.threads[next].done = true;
                        StepOut::Continue(self.cfg.costs.thread_switch)
                    }
                }
            }
            ProgAction::Exit => {
                self.threads[idx].done = true;
                self.stats.counters.bump("thread_exit");
                self.enter_idle(core)
            }
        }
    }

    /// Perform one user-mode access (or instruction fetch).
    fn do_access(
        &mut self,
        core: CoreId,
        pf: &mut ProgFrame,
        va: VirtAddr,
        write: bool,
        fetch: bool,
    ) -> StepOut {
        let mm_id = self.threads[pf.thread].mm;
        debug_assert_eq!(
            self.cpus[core.index()].tlb_state.loaded_mm,
            mm_id,
            "user thread running without its mm loaded"
        );
        let pcid = self.user_mode_pcid(core);
        // L8: a page walk resolves through this socket's page-table replica.
        // If the replica holds a stale entry for this page (only possible on
        // the buggy_numapte path — the real protocol syncs eagerly), install
        // it in the TLB before the architectural access below.
        if self.numa_pte_active() {
            self.numa_stale_walk(core, mm_id, va, write, fetch);
        }
        let Some(mm) = self.mms.get_mut(&mm_id) else {
            // The address space vanished under the thread: record it and
            // park the thread rather than bringing the machine down.
            self.record_error(SimError::NoSuchMm(mm_id));
            self.threads[pf.thread].done = true;
            return self.enter_idle(core);
        };
        let res = if fetch {
            self.tlbs[core.index()].fetch(pcid, va, true, &mut mm.space, &self.cfg.costs)
        } else {
            self.tlbs[core.index()].access(pcid, va, write, true, &mut mm.space, &self.cfg.costs)
        };
        match res {
            Ok(acc) => {
                pf.pending_access = None;
                if let Some((t0, label)) = pf.fault_info.take() {
                    let lat = self.engine.now() + acc.cost - t0;
                    self.stats.record_fault(core, label, lat);
                }
                if !acc.hit {
                    trace_emit!(self, core, None::<u64>, TraceEvent::PageWalk { va: va.0 });
                }
                let page = va.align_down(PageSize::Size4K);
                if acc.hit {
                    self.oracle
                        .check_hit(core, pcid.is_user_view(), mm_id, page, "user access");
                } else {
                    self.oracle_filled(core, pcid.is_user_view(), mm_id, &acc.entry);
                }
                // Writes keep the dirty bit honest even on cached entries
                // (the MMU's microcode D-bit walk).
                if write {
                    if let Some(mm) = self.mms.get_mut(&mm_id) {
                        let _ = mm.space.mark_used(va, true);
                    }
                    self.dirty_index.entry(mm_id).or_default().insert(va.vpn());
                }
                StepOut::Continue(acc.cost)
            }
            Err(_) => {
                let jitter = self.noise();
                StepOut::Push {
                    frame: Frame::Fault(Box::new(FaultFrame {
                        va,
                        write,
                        is_fetch: fetch,
                        stage: FaultStage::Resolve,
                        sd: None,
                        pending_frees: Vec::new(),
                        started: self.engine.now(),
                        label: "fault",
                    })),
                    cost: self.cfg.costs.fault_dispatch(self.cfg.safe_mode) + jitter,
                }
            }
        }
    }

    /// The PCID user code translates under.
    pub(crate) fn user_mode_pcid(&self, core: CoreId) -> Pcid {
        let ts = &self.cpus[core.index()].tlb_state;
        if self.cfg.safe_mode {
            ts.user_pcid
        } else {
            ts.kernel_pcid
        }
    }

    /// The mm of the thread currently on `core` (loaded mm as fallback).
    pub(crate) fn current_mm(&self, core: CoreId) -> MmId {
        self.cpus[core.index()]
            .current
            .map(|i| self.threads[i].mm)
            .unwrap_or(self.cpus[core.index()].tlb_state.loaded_mm)
    }

    // --- System calls ---

    fn step_syscall(&mut self, core: CoreId, sf: &mut SyscallFrame) -> StepOut {
        match sf.stage {
            SyscallStage::AcquireSem | SyscallStage::WaitSem => {
                let mm_id = self.current_mm(core);
                let mode = match sf.call {
                    Syscall::MmapAnon { .. }
                    | Syscall::MmapFile { .. }
                    | Syscall::Munmap { .. }
                    | Syscall::Mprotect { .. } => Some(SemMode::Write),
                    Syscall::MadviseDontNeed { .. }
                    | Syscall::Msync { .. }
                    | Syscall::Fdatasync { .. } => Some(SemMode::Read),
                    Syscall::Send { .. } => None,
                };
                if let Some(mode) = mode {
                    let Some(mm) = self.mms.get_mut(&mm_id) else {
                        return StepOut::Error(SimError::NoSuchMm(mm_id));
                    };
                    let acquired = if sf.stage == SyscallStage::AcquireSem {
                        mm.mmap_sem.acquire(core, mode)
                    } else {
                        mm.mmap_sem.held_by(core)
                    };
                    if !acquired {
                        sf.stage = SyscallStage::WaitSem;
                        self.stats.counters.bump("mmap_sem_wait");
                        return StepOut::Block;
                    }
                }
                // §4.2: enter batched mode for the suitable syscalls.
                if self.cfg.opts.userspace_batching
                    && matches!(
                        sf.call,
                        Syscall::Munmap { .. }
                            | Syscall::MadviseDontNeed { .. }
                            | Syscall::Msync { .. }
                            | Syscall::Fdatasync { .. }
                    )
                {
                    sf.batch.begin();
                    sf.batched = true;
                    sf.did_batch = true;
                    // §4.2: signal initiators that this core is inside a
                    // batched syscall and needs no IPI.
                    self.cpus[core.index()].in_batched_syscall = true;
                }
                sf.stage = SyscallStage::Body;
                StepOut::Continue(Cycles::ZERO)
            }
            SyscallStage::Body => match self.syscall_body(core, sf) {
                Ok(cost) => {
                    sf.stage = if sf.sd.is_some() {
                        SyscallStage::Shootdown
                    } else {
                        SyscallStage::BarrierNext
                    };
                    StepOut::Continue(cost)
                }
                Err(e) => {
                    // Fail the call, but still run Release so the
                    // semaphore and batched-mode flag are dropped.
                    self.record_error(e);
                    sf.retval = u64::MAX;
                    sf.sd = None;
                    sf.stage = SyscallStage::Release;
                    StepOut::Continue(Cycles::ZERO)
                }
            },
            SyscallStage::Shootdown => {
                let Some(out) = self.step_frame_sd(core, &mut sf.sd) else {
                    // A Shootdown stage with no run in flight is a broken
                    // frame transition (corrupted barrier queue); fail the
                    // call instead of taking the whole simulation down.
                    self.record_error(SimError::InvalidArgument(
                        "syscall shootdown stage entered with no run in flight".into(),
                    ));
                    sf.retval = u64::MAX;
                    sf.stage = SyscallStage::Release;
                    return StepOut::Continue(Cycles::ZERO);
                };
                if sf.sd.is_none() {
                    sf.stage = SyscallStage::BarrierNext;
                }
                out
            }
            SyscallStage::BarrierNext => {
                if let Some((info, retire)) = sf.barrier.pop_front() {
                    sf.sd = Some(ShootdownRun::new(info, retire));
                    sf.stage = SyscallStage::Shootdown;
                } else {
                    sf.stage = SyscallStage::Release;
                }
                StepOut::Continue(Cycles::ZERO)
            }
            SyscallStage::Release => {
                let mm_id = self.current_mm(core);
                // §4.2 barrier: flush everything deferred in batched mode
                // *before* dropping the semaphore.
                if sf.batched {
                    sf.batched = false;
                    let infos = sf.batch.end();
                    if !infos.is_empty() {
                        self.stats
                            .counters
                            .add("batched_flushes", infos.len() as u64);
                        // Nothing retires before the whole barrier ran:
                        // the accumulated pairs ride on the last flush.
                        let n = infos.len();
                        let retires = std::mem::take(&mut sf.batched_retires);
                        sf.barrier = infos
                            .into_iter()
                            .enumerate()
                            .map(|(i, info)| {
                                if i + 1 == n {
                                    (info, retires.clone())
                                } else {
                                    (info, Vec::new())
                                }
                            })
                            .collect();
                        sf.stage = SyscallStage::BarrierNext;
                        return StepOut::Continue(Cycles::ZERO);
                    }
                }
                self.cpus[core.index()].in_batched_syscall = false;
                for pa in sf.pending_frees.drain(..) {
                    self.mem.free(pa);
                }
                let woken: Vec<CoreId> = match self.mms.get_mut(&mm_id) {
                    Some(mm) if mm.mmap_sem.held_by(core) => mm.mmap_sem.release(core),
                    Some(_) => Vec::new(),
                    None => {
                        self.record_error(SimError::NoSuchMm(mm_id));
                        Vec::new()
                    }
                };
                for c in woken {
                    self.wake(c);
                }
                sf.stage = SyscallStage::Exit;
                StepOut::Continue(Cycles::ZERO)
            }
            SyscallStage::Exit => {
                let mut flush_cost = Cycles::ZERO;
                // §4.2 barrier tail: flushes skipped while this core was
                // in batched mode are applied via the generation check
                // before leaving the kernel ("a memory barrier to check
                // for TLB flushes every time the kernel prepares to leave
                // kernel mode").
                if sf.did_batch {
                    let mm_id = self.current_mm(core);
                    let cur_gen = self.mms.get(&mm_id).map(|m| m.gen.current()).unwrap_or(0);
                    let ts = &self.cpus[core.index()].tlb_state;
                    if ts.local_tlb_gen < cur_gen {
                        let kpcid = ts.kernel_pcid;
                        flush_cost += self.flush_pcid_pair(core, kpcid);
                        self.cpus[core.index()].tlb_state.local_tlb_gen = cur_gen;
                        self.cpus[core.index()].tlb_state.deferred_user.take();
                        self.stats.counters.bump("batched_exit_flush");
                    }
                }
                flush_cost += self.kernel_exit_user_flush(core);
                let exit = Cycles::new(self.cfg.costs.syscall(self.cfg.safe_mode).as_u64() / 2);
                let lat = self.engine.now() + flush_cost + exit - sf.started;
                self.stats.record_syscall(core, syscall_name(&sf.call), lat);
                StepOut::Done {
                    cost: flush_cost + exit,
                    retval: Some(sf.retval),
                }
            }
        }
    }

    /// Execute the syscall body: PTE updates, flush planning. Returns the
    /// body cost; sets `sf.sd` / `sf.barrier` / `sf.retval`. A missing
    /// address space surfaces as `SimError::NoSuchMm` instead of a panic;
    /// the caller fails the syscall and releases held state.
    fn syscall_body(&mut self, core: CoreId, sf: &mut SyscallFrame) -> Result<Cycles, SimError> {
        let mm_id = self.current_mm(core);
        let costs = self.cfg.costs.clone();
        let trace_pages = match sf.call {
            Syscall::MmapAnon { pages }
            | Syscall::MmapFile { pages, .. }
            | Syscall::Munmap { pages, .. }
            | Syscall::MadviseDontNeed { pages, .. }
            | Syscall::Msync { pages, .. }
            | Syscall::Mprotect { pages, .. }
            | Syscall::Send { pages, .. } => pages,
            Syscall::Fdatasync { .. } => 0,
        };
        self.trace_mm_op(core, syscall_name(&sf.call), trace_pages);
        match sf.call {
            Syscall::MmapAnon { pages } => {
                let mm = self.mms.get_mut(&mm_id).ok_or(SimError::NoSuchMm(mm_id))?;
                let addr = mm.mmap_cursor;
                mm.mmap_cursor = mm.mmap_cursor.add((pages + 1) * 4096); // +guard page
                let vma = crate::mm::Vma {
                    range: VirtRange::pages(addr, pages, PageSize::Size4K),
                    kind: VmaKind::Anon,
                    prot_write: true,
                    prot_exec: false,
                    thp: false,
                };
                mm.insert_vma(vma)?;
                sf.retval = addr.as_u64();
                Ok(costs.pte_update)
            }
            Syscall::MmapFile {
                file,
                page_offset,
                pages,
                shared,
            } => {
                let mm = self.mms.get_mut(&mm_id).ok_or(SimError::NoSuchMm(mm_id))?;
                let addr = mm.mmap_cursor;
                mm.mmap_cursor = mm.mmap_cursor.add((pages + 1) * 4096);
                let kind = if shared {
                    VmaKind::FileShared { file, page_offset }
                } else {
                    VmaKind::FilePrivate { file, page_offset }
                };
                let vma = crate::mm::Vma {
                    range: VirtRange::pages(addr, pages, PageSize::Size4K),
                    kind,
                    prot_write: true,
                    prot_exec: false,
                    thp: false,
                };
                mm.insert_vma(vma)?;
                sf.retval = addr.as_u64();
                Ok(costs.pte_update)
            }
            Syscall::Munmap { addr, pages } => {
                let range = VirtRange::pages(addr, pages, PageSize::Size4K);
                self.split_huge_leaves(mm_id, range);
                // L7: parked pages the unmap covers must pay their elided
                // flush before the mapping disappears.
                let debts = self.reuse_invalidate_range(sf, mm_id, range);
                self.count_debt_flushes(debts);
                let out = {
                    let mm = self.mms.get_mut(&mm_id).ok_or(SimError::NoSuchMm(mm_id))?;
                    mm.remove_vmas(range);
                    mm.space.unmap_range(&mut self.mem, range)
                };
                for &(_, pte, _) in &out.removed {
                    self.release_frame(pte.addr, &mut sf.pending_frees);
                }
                let mut cost = costs.pte_update * (out.removed.len() as u64).max(1);
                if !out.removed.is_empty() || out.freed_tables {
                    let (mut owed, sync) = self.pte_changed(core, mm_id, range, &out.removed)?;
                    if out.freed_tables {
                        owed.info = owed.info.with_freed_tables();
                    }
                    cost += sync;
                    self.queue_flush(sf, owed);
                }
                sf.retval = 0;
                Ok(cost)
            }
            Syscall::MadviseDontNeed { addr, pages } => {
                let range = VirtRange::pages(addr, pages, PageSize::Size4K);
                self.split_huge_leaves(mm_id, range);
                let removed = {
                    let mm = self.mms.get_mut(&mm_id).ok_or(SimError::NoSuchMm(mm_id))?;
                    mm.space.zap_range(range).removed
                };
                let mut cost = costs.pte_update * (removed.len() as u64).max(1);
                if self.cfg.opts.reuse_skip {
                    // L7 reuse-skip: park the zapped pages (frames stay
                    // referenced, oracle pairs stay un-retired) and elide
                    // the shootdown entirely. Capacity evictions and stale
                    // twins pay their debt through queue_flush inside the
                    // helper.
                    self.reuse_park_zap(sf, mm_id, range, &removed);
                    // L8 on top of L7: the zap is still a PTE update the
                    // socket replicas must see, flush elision or not.
                    cost += self.numa_replica_update(core, mm_id, &removed, &[]);
                } else {
                    for &(_, pte, _) in &removed {
                        self.release_frame(pte.addr, &mut sf.pending_frees);
                    }
                    if !removed.is_empty() {
                        let (owed, sync) = self.pte_changed(core, mm_id, range, &removed)?;
                        cost += sync;
                        self.queue_flush(sf, owed);
                    }
                }
                sf.retval = 0;
                Ok(cost)
            }
            Syscall::Msync { addr, pages } => {
                let range = VirtRange::pages(addr, pages, PageSize::Size4K);
                let cost = self.writeback_range(core, sf, mm_id, range)?;
                sf.retval = 0;
                Ok(cost)
            }
            Syscall::Fdatasync { file } => {
                // Write back through every VMA of this mm mapping the file.
                let vma_ranges: Vec<VirtRange> = self
                    .mms
                    .get(&mm_id)
                    .ok_or(SimError::NoSuchMm(mm_id))?
                    .vmas
                    .values()
                    .filter(|v| matches!(v.kind, VmaKind::FileShared { file: f, .. } if f == file))
                    .map(|v| v.range)
                    .collect();
                let mut cost = costs.pte_update;
                for range in vma_ranges {
                    cost += self.writeback_range(core, sf, mm_id, range)?;
                }
                sf.retval = 0;
                Ok(cost)
            }
            Syscall::Mprotect { addr, pages, write } => {
                let range = VirtRange::pages(addr, pages, PageSize::Size4K);
                self.split_huge_leaves(mm_id, range);
                // L7: a permission change over parked pages invalidates
                // their "same permissions" premise — pay the debt first.
                let mut debts = self.reuse_invalidate_range(sf, mm_id, range);
                let (set, clear) = if write {
                    (PteFlags::WRITABLE, PteFlags::empty())
                } else {
                    (PteFlags::empty(), PteFlags::WRITABLE)
                };
                let changed = {
                    let mm = self.mms.get_mut(&mm_id).ok_or(SimError::NoSuchMm(mm_id))?;
                    mm.space.protect_range(range, set, clear)
                };
                let mut cost = costs.pte_update * (changed.len() as u64).max(1);
                // Only permission *reductions* require a flush.
                if !changed.is_empty() && !write {
                    let (owed, sync) = self.pte_changed(core, mm_id, range, &changed)?;
                    cost += sync;
                    // mprotect is not on the §4.2 list: always synchronous.
                    // The assignment deliberately replaces a debt run that
                    // `reuse_invalidate_range` may have put in `sf.sd`:
                    // this range flush covers the parked page and retires
                    // a newer version of it. The replaced run never runs,
                    // so it is not a debt flush.
                    let run = ShootdownRun::new(owed.info, owed.retire);
                    if sf.sd.replace(run).is_some() {
                        debts = debts.saturating_sub(1);
                    }
                }
                self.count_debt_flushes(debts);
                sf.retval = 0;
                Ok(cost)
            }
            Syscall::Send { addr, pages } => {
                // Kernel reads the user buffer through the kernel PCID.
                let mut cost = Cycles::ZERO;
                let kpcid = self.cpus[core.index()].tlb_state.kernel_pcid;
                for i in 0..pages {
                    let va = addr.add(i * 4096);
                    let res = {
                        let mm = self.mms.get_mut(&mm_id).ok_or(SimError::NoSuchMm(mm_id))?;
                        self.tlbs[core.index()].access(
                            kpcid,
                            va,
                            false,
                            false,
                            &mut mm.space,
                            &costs,
                        )
                    };
                    match res {
                        Ok(acc) => {
                            let page = va.align_down(PageSize::Size4K);
                            if acc.hit {
                                self.oracle
                                    .check_hit(core, false, mm_id, page, "kernel uaccess");
                            } else {
                                self.oracle_filled(core, false, mm_id, &acc.entry);
                            }
                            cost += acc.cost + costs.mem_access * 63; // copy the rest of the page
                        }
                        Err(_) => {
                            // Unfaulted page: the kernel would fault it in;
                            // charge a fault's worth and resolve inline.
                            cost += costs.fault_dispatch(self.cfg.safe_mode);
                            if self.resolve_demand_fault(core, mm_id, va, false).is_none() {
                                self.stats.counters.bump("send_efault");
                            }
                        }
                    }
                }
                sf.retval = 0;
                Ok(cost)
            }
        }
    }

    /// Write-protect and clean the dirty PTEs of `range` (writeback),
    /// queueing one TLB flush per dirty page — the real `fdatasync` /
    /// `msync` shape that makes these syscalls flush-heavy (§5.2). Returns
    /// the scan cost.
    fn writeback_range(
        &mut self,
        core: CoreId,
        sf: &mut SyscallFrame,
        mm_id: MmId,
        range: VirtRange,
    ) -> Result<Cycles, SimError> {
        let costs = self.cfg.costs.clone();
        // L7: writeback write-protects pages, so parked entries in the
        // range lose their "same permissions" premise — pay the debt.
        let debts = self.reuse_invalidate_range(sf, mm_id, range);
        self.count_debt_flushes(debts);
        // Visit only pages the dirty index names within the range.
        let candidates: Vec<u64> = self
            .dirty_index
            .get(&mm_id)
            .map(|set| {
                set.range(range.start.vpn()..range.end.align_up(PageSize::Size4K).vpn())
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        let mut cleaned: Vec<(VirtAddr, Pte)> = Vec::new();
        {
            let mm = self.mms.get_mut(&mm_id).ok_or(SimError::NoSuchMm(mm_id))?;
            for vpn in &candidates {
                let va = VirtAddr::new(vpn << 12);
                match mm.space.entry(va) {
                    Some((pte, _)) if pte.dirty() => {
                        mm.space.update_entry(va, |p| {
                            p.without(PteFlags::DIRTY | PteFlags::WRITABLE)
                                .with(PteFlags::SOFT_CLEAN)
                        })?;
                        cleaned.push((va, pte));
                    }
                    _ => {}
                }
            }
        }
        if let Some(set) = self.dirty_index.get_mut(&mm_id) {
            for vpn in &candidates {
                set.remove(vpn);
            }
        }
        // One flush (and oracle stamp) per cleaned page.
        let mut sync_cost = Cycles::ZERO;
        for &(va, old_pte) in &cleaned {
            let page_range = VirtRange::pages(va, 1, PageSize::Size4K);
            let (owed, sync) =
                self.pte_changed(core, mm_id, page_range, &[(va, old_pte, PageSize::Size4K)])?;
            sync_cost += sync;
            self.queue_flush(sf, owed);
        }
        self.stats
            .counters
            .add("writeback_pages", cleaned.len() as u64);
        Ok(costs.pte_update * (cleaned.len() as u64).max(1) + sync_cost)
    }

    /// The flush a PTE change over `range` of `mm_id` owes, stated once:
    /// stamp new oracle versions for every page of the range, make the
    /// matching L7 `pte_versions` bump, sync the L8 page-table replicas
    /// for the `changed` entries (`(page, old entry, size)`, as the
    /// page-table ops report them), bump the mm generation and build the
    /// ranged flush. Returns the flush and the replica-sync cost. The
    /// caller hands the flush to a sink: [`Machine::queue_flush`] (batch
    /// or barrier), or a direct run on the frame (mprotect, the CoW
    /// fault).
    pub(crate) fn pte_changed(
        &mut self,
        core: CoreId,
        mm_id: MmId,
        range: VirtRange,
        changed: &[(VirtAddr, Pte, PageSize)],
    ) -> Result<(OwedFlush, Cycles), SimError> {
        let retire = self.oracle.range_modified(mm_id, range);
        self.reuse_bump_versions(mm_id, range);
        let sync = self.numa_replica_update(core, mm_id, changed, &retire);
        Ok((self.owe_flush(mm_id, range, retire)?, sync))
    }

    /// The generation-and-info half of [`Machine::pte_changed`]: bump the
    /// mm generation and build the ranged flush that retires `retire`.
    /// An L7 flush debt uses it alone, since its oracle pairs were
    /// stamped when the page was parked.
    pub(crate) fn owe_flush(
        &mut self,
        mm_id: MmId,
        range: VirtRange,
        retire: Vec<(u64, u64)>,
    ) -> Result<OwedFlush, SimError> {
        let mm = self.mms.get_mut(&mm_id).ok_or(SimError::NoSuchMm(mm_id))?;
        let info = FlushTlbInfo::ranged(mm_id, range, PageSize::Size4K, mm.gen.bump());
        Ok(OwedFlush { info, retire })
    }

    /// Drop the reference a zapped or replaced PTE held on frame `pa`. A
    /// frame that lost its last reference joins `pending_frees`, to be
    /// freed only after the covering flush completes.
    pub(crate) fn release_frame(&mut self, pa: PhysAddr, pending_frees: &mut Vec<PhysAddr>) {
        match self.frame_refs.put_page(pa) {
            Ok(true) => pending_frees.push(pa),
            Ok(false) => {}
            Err(e) => self.record_error(e),
        }
    }

    /// One step of the shootdown run a syscall or fault frame holds in
    /// `slot`. A run that completes is retired (`finish_sd`) and taken
    /// out of the slot, so an empty slot afterwards means the frame moves
    /// on to its next stage. `None` when the slot was already empty: a
    /// broken frame transition, which each caller fails in its own way.
    fn step_frame_sd(&mut self, core: CoreId, slot: &mut Option<ShootdownRun>) -> Option<StepOut> {
        Some(match self.step_sd(core, slot.as_mut()?) {
            SdOut::Continue(c) => StepOut::Continue(c),
            SdOut::Block => StepOut::Block,
            SdOut::Done(c) => {
                if let Some(run) = slot.take() {
                    self.finish_sd(core, &run);
                }
                StepOut::Continue(c)
            }
        })
    }

    /// Route a flush either through batching (§4.2) or synchronously.
    pub(crate) fn queue_flush(&mut self, sf: &mut SyscallFrame, owed: OwedFlush) {
        if sf.batched {
            sf.batch.defer(owed.info);
            sf.batched_retires.extend(owed.retire);
            self.stats.counters.bump("flush_deferred");
        } else if sf.sd.is_none() {
            sf.sd = Some(ShootdownRun::new(owed.info, owed.retire));
        } else {
            sf.barrier.push_back((owed.info, owed.retire));
        }
    }

    // --- Page faults ---

    fn step_fault(&mut self, core: CoreId, ff: &mut FaultFrame) -> StepOut {
        match ff.stage {
            FaultStage::Resolve => self.fault_resolve(core, ff),
            FaultStage::Shootdown => {
                let Some(out) = self.step_frame_sd(core, &mut ff.sd) else {
                    // A Shootdown stage with no run is a broken frame
                    // transition; record it and unwind through Return so
                    // the deferred frees still happen.
                    self.record_error(SimError::InvalidArgument(
                        "fault shootdown stage entered with no run in flight".into(),
                    ));
                    ff.stage = FaultStage::Return;
                    return StepOut::Continue(Cycles::ZERO);
                };
                if ff.sd.is_none() {
                    ff.stage = FaultStage::Return;
                }
                out
            }
            FaultStage::Return => {
                for pa in ff.pending_frees.drain(..) {
                    self.mem.free(pa);
                }
                let flush_cost = self.kernel_exit_user_flush(core);
                // Hand the latency bookkeeping to the program frame below:
                // the Figure 9 metric spans fault + retried access. (This
                // frame is popped while stepping, so `last_mut()` is the
                // frame the fault interrupted.)
                let mut handed_off = false;
                if let Some(crate::cpu::FrameSlot {
                    frame: Frame::Prog(pf),
                    ..
                }) = self.cpus[core.index()].frames.last_mut()
                {
                    if pf.pending_access.is_some() {
                        pf.fault_info = Some((ff.started, ff.label));
                        handed_off = true;
                    }
                }
                if !handed_off {
                    let lat = self.engine.now() + flush_cost - ff.started;
                    self.stats.record_fault(core, ff.label, lat);
                }
                StepOut::Done {
                    cost: flush_cost,
                    retval: None,
                }
            }
        }
    }

    fn fault_resolve(&mut self, core: CoreId, ff: &mut FaultFrame) -> StepOut {
        let mm_id = self.current_mm(core);
        let costs = self.cfg.costs.clone();
        let va = ff.va;
        let page = va.align_down(PageSize::Size4K);
        if !self.mms.contains_key(&mm_id) {
            self.record_error(SimError::NoSuchMm(mm_id));
            return self.segfault(core, ff);
        }
        let Some(vma) = self.mms[&mm_id].vma_at(va).cloned() else {
            return self.segfault(core, ff);
        };
        let existing = self.mms[&mm_id].space.entry(page);
        // Spurious fault: between the faulting access and this handler
        // running, another core's fault may have fixed the PTE (e.g.
        // re-enabled writes on a writeback-cleaned shared page). Real
        // kernels detect this and simply retry the access.
        if let Some((pte, _)) = existing {
            if pte.flags.permits(ff.write, ff.is_fetch, true) {
                self.stats.counters.bump("spurious_fault");
                ff.label = "spurious";
                ff.stage = FaultStage::Return;
                return StepOut::Continue(Cycles::new(100));
            }
        }
        match existing {
            None => {
                ff.label = match vma.kind {
                    VmaKind::Anon => "anon",
                    VmaKind::FileShared { .. } => "file_shared",
                    VmaKind::FilePrivate { .. } => "file_private",
                };
                if self
                    .resolve_demand_fault(core, mm_id, va, ff.write)
                    .is_none()
                {
                    return self.segfault(core, ff);
                }
                ff.stage = FaultStage::Return;
                StepOut::Continue(costs.page_alloc)
            }
            Some((pte, _size)) => {
                // Protection fault paths.
                if ff.write && pte.flags.contains(PteFlags::COW) {
                    return self.resolve_cow(core, ff, mm_id, page, pte);
                }
                if ff.write
                    && !pte.writable()
                    && vma.prot_write
                    && matches!(vma.kind, VmaKind::FileShared { .. })
                {
                    // Writeback-protected shared page: re-enable writes and
                    // re-dirty. Permissions become *more* permissive, so no
                    // flush is needed (hardware re-walks).
                    ff.label = "re_dirty";
                    {
                        let upd = {
                            let Some(mm) = self.mms.get_mut(&mm_id) else {
                                self.record_error(SimError::NoSuchMm(mm_id));
                                return self.segfault(core, ff);
                            };
                            mm.space.update_entry(page, |p| {
                                p.with(PteFlags::WRITABLE | PteFlags::DIRTY)
                                    .without(PteFlags::SOFT_CLEAN)
                            })
                        };
                        if let Err(e) = upd {
                            // The PTE vanished between the lookup above and
                            // the update (it was `Some` moments ago): treat
                            // it as an unsatisfiable fault, not a panic.
                            self.record_error(e);
                            return self.segfault(core, ff);
                        }
                        self.dirty_index
                            .entry(mm_id)
                            .or_default()
                            .insert(page.vpn());
                    }
                    ff.stage = FaultStage::Return;
                    StepOut::Continue(costs.pte_update)
                } else {
                    self.segfault(core, ff)
                }
            }
        }
    }

    /// Handle a CoW write fault (§4.1).
    fn resolve_cow(
        &mut self,
        core: CoreId,
        ff: &mut FaultFrame,
        mm_id: MmId,
        page: VirtAddr,
        old_pte: Pte,
    ) -> StepOut {
        let costs = self.cfg.costs.clone();
        ff.label = "cow";
        self.stats.counters.bump("cow_fault");
        // §4.1 hazard: the CPU may speculatively re-cache the old PTE
        // between the fault and the PTE update.
        let pcid = self.user_mode_pcid(core);
        self.tlbs[core.index()].fill_speculative(pcid, page, PageSize::Size4K, old_pte);
        // Copy the page and swap the PTE.
        let new_pa = match self.mem.alloc(FrameState::UserPage) {
            Ok(pa) => pa,
            Err(_) => return self.segfault(core, ff),
        };
        self.frame_refs.get_page(new_pa);
        self.release_frame(old_pte.addr, &mut ff.pending_frees);
        let new_flags = old_pte
            .flags
            .with(PteFlags::WRITABLE | PteFlags::DIRTY | PteFlags::ACCESSED)
            .without(PteFlags::COW);
        let upd = {
            let Some(mm) = self.mms.get_mut(&mm_id) else {
                self.record_error(SimError::NoSuchMm(mm_id));
                return self.segfault(core, ff);
            };
            mm.space.update_entry(page, |_| Pte::new(new_pa, new_flags))
        };
        if let Err(e) = upd {
            // The CoW PTE was unmapped between the fault and the copy
            // (e.g. by a racing unmap): fail the access, keep the machine.
            self.record_error(e);
            return self.segfault(core, ff);
        }
        // Flush: a 1-page shootdown run; the local part uses either
        // INVLPG or the §4.1 access trick.
        let page_range = VirtRange::pages(page, 1, PageSize::Size4K);
        let changed = [(page, old_pte, PageSize::Size4K)];
        let (owed, sync_cost) = match self.pte_changed(core, mm_id, page_range, &changed) {
            Ok(x) => x,
            Err(e) => {
                self.record_error(e);
                return self.segfault(core, ff);
            }
        };
        let mut run = ShootdownRun::new(owed.info, owed.retire);
        if cow_flush_method(old_pte.flags, &self.cfg.opts) == CowFlushMethod::AccessTrick {
            run = run.with_cow_trick(page);
            self.stats.counters.bump("cow_access_trick");
        }
        ff.sd = Some(run);
        ff.stage = FaultStage::Shootdown;
        StepOut::Continue(costs.page_copy + costs.pte_update + sync_cost)
    }

    /// Split every hugepage leaf overlapping `range` back into 4KB PTEs
    /// (Linux's `__split_huge_pmd`) before a range operation mutates it.
    /// The same frames stay mapped with the same permissions, so no
    /// translation changes and no flush is owed *for the split itself* —
    /// but the zap/protect code below then works one 4KB entry at a time
    /// (one `put_page` per removed PTE), and the operation's ranged
    /// INVLPG loop is what evicts the now-stale 2MB TLB entry. Skipping
    /// that eviction is exactly the `buggy_fracture` canary.
    fn split_huge_leaves(&mut self, mm_id: MmId, range: VirtRange) -> u64 {
        let mut split = 0u64;
        let mut errs = Vec::new();
        if let Some(mm) = self.mms.get_mut(&mm_id) {
            let huge: Vec<VirtAddr> = mm
                .space
                .iter_range(range)
                .into_iter()
                .filter(|&(_, _, size)| size != PageSize::Size4K)
                .map(|(base, _, _)| base)
                .collect();
            for base in huge {
                match mm.space.split_huge_leaf(&mut self.mem, base) {
                    Ok(true) => split += 1,
                    Ok(false) => {}
                    Err(e) => errs.push(e),
                }
            }
        }
        for e in errs {
            self.record_error(e);
        }
        if split > 0 {
            self.stats.counters.add("thp_split", split);
        }
        split
    }

    /// Record a TLB fill with the oracle, covering every 4KB page the
    /// installed entry translates: a 2MB fill caches 512 translations at
    /// once, and each must be individually eligible for staleness checks
    /// when a later flush retires part of the range.
    fn oracle_filled(
        &mut self,
        core: CoreId,
        user_view: bool,
        mm_id: MmId,
        entry: &tlbdown_tlb::TlbEntry,
    ) {
        let pages = entry.size.bytes() / PageSize::Size4K.bytes();
        for i in 0..pages {
            self.oracle
                .tlb_filled(core, user_view, mm_id, entry.page_base.add(i * 4096));
        }
    }

    /// Demand-fault `va` into `mm` (no existing PTE). Returns the frame
    /// mapped, or `None` if no VMA covers the address.
    pub(crate) fn resolve_demand_fault(
        &mut self,
        core: CoreId,
        mm_id: MmId,
        va: VirtAddr,
        write: bool,
    ) -> Option<PhysAddr> {
        let page = va.align_down(PageSize::Size4K);
        let vma = self.mms.get(&mm_id)?.vma_at(va).cloned()?;
        // L7: a parked identical mapping short-circuits the whole fault —
        // no allocation, no flush — when the versioned-PTE check passes.
        if self.reuse_active() && matches!(vma.kind, VmaKind::Anon) {
            if let Some(pa) = self.reuse_try_hit(core, mm_id, &vma, page, write, false) {
                if write {
                    self.dirty_index
                        .entry(mm_id)
                        .or_default()
                        .insert(page.vpn());
                }
                self.numa_fault_filled(core, mm_id, page);
                self.stats.counters.bump("demand_fault");
                return Some(pa);
            }
        }
        // THP promotion (`MADV_HUGEPAGE`): on first touch of an empty,
        // 2MB-aligned window of an anonymous VMA, back the whole window
        // with one hugepage — Linux's fault-time THP allocation. Any
        // failure (window not fully inside the VMA, already partially
        // populated, no aligned contiguous frames) falls through to the
        // ordinary 4KB path.
        if vma.thp && matches!(vma.kind, VmaKind::Anon) {
            let huge = PageSize::Size2M.bytes();
            let win = VirtAddr::new(page.as_u64() & !(huge - 1));
            let inside = vma.range.start <= win && win.add(huge) <= vma.range.end;
            let empty = inside
                && self
                    .mms
                    .get(&mm_id)?
                    .space
                    .iter_range(VirtRange::pages(win, 512, PageSize::Size4K))
                    .is_empty();
            if empty {
                if let Ok(pa) = self
                    .mem
                    .alloc_contiguous_aligned(512, 512, FrameState::UserPage)
                {
                    let mut f = PteFlags::user_rw();
                    if vma.prot_exec {
                        f = f.without(PteFlags::NX);
                    }
                    let mapped = {
                        let mm = self.mms.get_mut(&mm_id)?;
                        // A prior zap may have emptied this window without
                        // freeing its page table; collapse it so the PD
                        // slot is free for the huge leaf.
                        mm.space.collapse_empty_pt(&mut self.mem, win);
                        mm.space.map(&mut self.mem, win, pa, PageSize::Size2M, f)
                    };
                    if let Err(e) = mapped {
                        // The window stopped being empty under us (stale
                        // iter_range snapshot): release the huge frame run
                        // and fall through to the 4KB path.
                        self.record_error(e);
                        for i in 0..512 {
                            self.mem.free(pa.add(i * 4096));
                        }
                    } else {
                        for i in 0..512 {
                            self.frame_refs.get_page(pa.add(i * 4096));
                        }
                        if write {
                            self.dirty_index
                                .entry(mm_id)
                                .or_default()
                                .insert(page.vpn());
                        }
                        self.numa_fault_filled(core, mm_id, page);
                        self.stats.counters.bump("thp_promote");
                        self.stats.counters.bump("demand_fault");
                        return Some(pa.add(page.as_u64() - win.as_u64()));
                    }
                }
            }
        }
        let (pa, flags) = match vma.kind {
            VmaKind::Anon => {
                let pa = self.mem.alloc(FrameState::UserPage).ok()?;
                self.frame_refs.get_page(pa);
                let mut f = PteFlags::user_rw();
                if vma.prot_exec {
                    f = f.without(PteFlags::NX);
                }
                (pa, f)
            }
            VmaKind::FileShared { file, page_offset } => {
                let fpage = page_offset + (page.as_u64() - vma.range.start.as_u64()) / 4096;
                let pa = *self.files.get(&file)?.pages.get(fpage as usize)?;
                self.frame_refs.get_page(pa);
                let mut flags = PteFlags::PRESENT | PteFlags::USER | PteFlags::NX;
                if vma.prot_write {
                    flags |= PteFlags::WRITABLE;
                }
                if write {
                    flags |= PteFlags::DIRTY;
                }
                (pa, flags)
            }
            VmaKind::FilePrivate { file, page_offset } => {
                let fpage = page_offset + (page.as_u64() - vma.range.start.as_u64()) / 4096;
                let f = self.files.get(&file)?;
                let pa = *f.pages.get(fpage as usize)?;
                self.frame_refs.get_page(pa);
                let mut flags = PteFlags::user_cow();
                if vma.prot_exec {
                    flags = flags.without(PteFlags::NX);
                }
                (pa, flags)
            }
        };
        let mm = self.mms.get_mut(&mm_id)?;
        mm.space
            .map(&mut self.mem, page, pa, PageSize::Size4K, flags)
            .ok()?;
        if write {
            self.dirty_index
                .entry(mm_id)
                .or_default()
                .insert(page.vpn());
        }
        self.numa_fault_filled(core, mm_id, page);
        self.stats.counters.bump("demand_fault");
        Some(pa)
    }

    fn segfault(&mut self, core: CoreId, ff: &mut FaultFrame) -> StepOut {
        self.stats.counters.bump("segfault");
        if let Some(idx) = self.cpus[core.index()].current {
            self.threads[idx].done = true;
        }
        ff.stage = FaultStage::Return;
        ff.label = "segfault";
        StepOut::Continue(Cycles::ZERO)
    }

    // --- NMI ---

    fn step_nmi(&mut self, core: CoreId, nf: &mut NmiFrame) -> StepOut {
        match nf.stage {
            NmiStage::Body => {
                nf.stage = NmiStage::Done;
                let Some(va) = nf.probe else {
                    return StepOut::Continue(Cycles::new(200));
                };
                let mm_id = self.current_mm(core);
                let ts = &self.cpus[core.index()].tlb_state;
                let flush_pending = self.cpus[core.index()].acked_unflushed > 0
                    || self.cpus[core.index()].in_batched_syscall;
                let okay = if self.cfg.injects(InjectedBug::NmiCheck) {
                    // Missing the §3.2 extension: only the mm identity check.
                    ts.loaded_mm == mm_id
                } else {
                    ts.nmi_uaccess_okay(mm_id, flush_pending)
                };
                if !okay {
                    self.stats.counters.bump("nmi_uaccess_denied");
                    return StepOut::Continue(Cycles::new(200));
                }
                self.stats.counters.bump("nmi_uaccess");
                // The probe reads user memory through the kernel mapping.
                let kpcid = self.cpus[core.index()].tlb_state.kernel_pcid;
                let costs = self.cfg.costs.clone();
                let res = {
                    let Some(mm) = self.mms.get_mut(&mm_id) else {
                        self.record_error(SimError::NoSuchMm(mm_id));
                        return StepOut::Continue(Cycles::new(200));
                    };
                    self.tlbs[core.index()].access(kpcid, va, false, false, &mut mm.space, &costs)
                };
                match &res {
                    Ok(acc) if acc.hit => self.stats.counters.bump("nmi_probe_hit"),
                    Ok(_) => self.stats.counters.bump("nmi_probe_miss"),
                    Err(_) => self.stats.counters.bump("nmi_probe_fault"),
                }
                if let Ok(acc) = res {
                    let page = va.align_down(PageSize::Size4K);
                    if acc.hit {
                        self.oracle
                            .check_hit(core, false, mm_id, page, "nmi uaccess");
                    } else {
                        self.oracle_filled(core, false, mm_id, &acc.entry);
                    }
                }
                StepOut::Continue(Cycles::new(400))
            }
            NmiStage::Done => StepOut::Done {
                cost: self.cfg.costs.irq_exit,
                retval: None,
            },
        }
    }

    // --- Kernel exit ---

    /// Execute deferred user-PCID flushes at a kernel→user transition
    /// (§3.4); returns the added cost.
    pub(crate) fn kernel_exit_user_flush(&mut self, core: CoreId) -> Cycles {
        if !self.cfg.safe_mode {
            return Cycles::ZERO;
        }
        let Some(pending) = self.cpus[core.index()].tlb_state.deferred_user.take() else {
            return Cycles::ZERO;
        };
        let user_pcid = self.cpus[core.index()].tlb_state.user_pcid;
        if pending.full {
            // Folded into the CR3 reload that returns to the user page
            // tables — architecturally free (§3.4 baseline behaviour).
            self.tlbs[core.index()].flush_pcid(user_pcid);
            self.stats.counters.bump("exit_full_user_flush");
            trace_emit!(
                self,
                core,
                None::<u64>,
                TraceEvent::FullFlush { user: true }
            );
            Cycles::ZERO
        } else {
            // The in-context INVLPG loop, plus the Spectre-v1 lfence.
            let mut cost = Cycles::ZERO;
            let mut n = 0;
            for va in pending.range.iter_pages(pending.stride) {
                self.tlbs[core.index()].invlpg(user_pcid, va);
                cost += self.cfg.costs.invlpg;
                n += 1;
            }
            cost += self.cfg.costs.lfence;
            self.stats.counters.add("in_context_flushes", n);
            trace_emit!(self, core, None::<u64>, TraceEvent::InContextFlush { n });
            cost
        }
    }
}

/// Human name of a syscall for statistics keys.
pub(crate) fn syscall_name(c: &Syscall) -> &'static str {
    match c {
        Syscall::MmapAnon { .. } => "mmap_anon",
        Syscall::MmapFile { .. } => "mmap_file",
        Syscall::Munmap { .. } => "munmap",
        Syscall::MadviseDontNeed { .. } => "madvise_dontneed",
        Syscall::Msync { .. } => "msync",
        Syscall::Fdatasync { .. } => "fdatasync",
        Syscall::Send { .. } => "send",
        Syscall::Mprotect { .. } => "mprotect",
    }
}

#[cfg(test)]
mod tests {
    //! Regression tests for the typed-error conversions of former panic
    //! sites: each broken-invariant path must record a [`SimError`] and
    //! degrade the affected call/fault, never bring the machine down.

    use tlbdown_mem::Pte;
    use tlbdown_types::{CoreId, Cycles, PageSize, PteFlags, VirtAddr};

    use super::{FaultFrame, FaultStage, StepOut, SyscallFrame, SyscallStage};
    use crate::config::KernelConfig;
    use crate::machine::Machine;
    use crate::prog::Syscall;

    fn machine() -> Machine {
        Machine::new(KernelConfig::test_machine(1))
    }

    fn syscall_frame(stage: SyscallStage) -> SyscallFrame {
        SyscallFrame {
            call: Syscall::MmapAnon { pages: 1 },
            stage,
            retval: 0,
            sd: None,
            batched_retires: Vec::new(),
            barrier: Default::default(),
            pending_frees: Vec::new(),
            started: Cycles::ZERO,
            batched: false,
            did_batch: false,
            batch: tlbdown_core::BatchState::new(),
        }
    }

    #[test]
    fn syscall_shootdown_stage_without_run_fails_call_not_machine() {
        let mut m = machine();
        let _mm = m.create_process().expect("boot: create process");
        let mut sf = syscall_frame(SyscallStage::Shootdown);
        let out = m.step_syscall(CoreId(0), &mut sf);
        assert!(matches!(out, StepOut::Continue(_)));
        assert_eq!(sf.retval, u64::MAX, "the call fails");
        assert_eq!(sf.stage, SyscallStage::Release, "held state still drops");
        assert_eq!(m.recorded_errors().len(), 1, "{:?}", m.recorded_errors());
    }

    #[test]
    fn fault_shootdown_stage_without_run_unwinds_through_return() {
        let mut m = machine();
        let _mm = m.create_process().expect("boot: create process");
        let mut ff = FaultFrame {
            va: VirtAddr::new(0x5000),
            write: false,
            is_fetch: false,
            stage: FaultStage::Shootdown,
            sd: None,
            pending_frees: Vec::new(),
            started: Cycles::ZERO,
            label: "fault",
        };
        let out = m.step_fault(CoreId(0), &mut ff);
        assert!(matches!(out, StepOut::Continue(_)));
        assert_eq!(
            ff.stage,
            FaultStage::Return,
            "unwinds so deferred frees still run"
        );
        assert_eq!(m.recorded_errors().len(), 1, "{:?}", m.recorded_errors());
    }

    #[test]
    fn cow_with_vanished_pte_segfaults_instead_of_panicking() {
        let mut m = machine();
        let mm = m.create_process().expect("boot: create process");
        // No PTE was ever mapped at this page: the CoW update_entry fails,
        // which before the typed-error sweep was an `expect("CoW PTE
        // exists")` panic.
        let page = VirtAddr::new(0x40_0000);
        let old = Pte::new(tlbdown_types::PhysAddr::new(0x1000), PteFlags::user_cow());
        let mut ff = FaultFrame {
            va: page,
            write: true,
            is_fetch: false,
            stage: FaultStage::Resolve,
            sd: None,
            pending_frees: Vec::new(),
            started: Cycles::ZERO,
            label: "fault",
        };
        let out = m.resolve_cow(CoreId(0), &mut ff, mm, page, old);
        assert!(matches!(out, StepOut::Continue(_)));
        assert_eq!(ff.label, "segfault");
        assert!(
            !m.recorded_errors().is_empty(),
            "the vanished PTE is a recorded error"
        );
    }

    #[test]
    fn writeback_update_entry_error_propagates_as_sim_error() {
        // `writeback_range` now threads `update_entry` failures out as
        // `Result` instead of panicking. Drive it with a dirty-index entry
        // whose PTE exists and is dirty — the success path — and confirm
        // the call still cleans exactly that page (the conversion must not
        // have changed behaviour).
        let mut m = machine();
        let mm = m.create_process().expect("boot: create process");
        let addr = m.setup_map_anon(mm, 1).expect("boot: map anon");
        assert!(m.resolve_demand_fault(CoreId(0), mm, addr, true).is_some());
        // The MMU's D-bit walk on the write access.
        let _ = m
            .mms
            .get_mut(&mm)
            .expect("mm exists")
            .space
            .mark_used(addr, true);
        let mut sf = syscall_frame(SyscallStage::Body);
        let range = tlbdown_types::VirtRange::pages(addr, 1, PageSize::Size4K);
        let cost = m
            .writeback_range(CoreId(0), &mut sf, mm, range)
            .expect("writeback succeeds");
        assert!(cost > Cycles::ZERO);
        let (pte, _) = m.mms[&mm].space.entry(addr).expect("still mapped");
        assert!(!pte.dirty() && !pte.writable());
    }
}
