//! The shootdown executor: initiator runs, responder IRQ handling, and the
//! LATR-style asynchronous mode.

use tlbdown_core::smp::run_script;
use tlbdown_core::{flush_decision, use_early_ack, FlushAction, FlushTlbInfo, Shootdown};
use tlbdown_types::{CoreId, Cycles, PageSize, Pcid, SimError, VirtAddr, VirtRange};

use crate::config::InjectedBug;
use crate::cpu::{IrqAct, IrqFrame, IrqStage, LocalMode, SdStage, ShootdownRun};
use crate::event::Event;
use crate::machine::Machine;
use crate::tracewire::trace_emit;
use tlbdown_trace::{AckKind, SdPhaseKind, SkipKind, TraceEvent};

/// Delay before a LATR-deferred flush executes on a remote core.
const LATR_FLUSH_DELAY: Cycles = Cycles::new(100_000);

/// Result of stepping an initiator shootdown run.
pub(crate) enum SdOut {
    /// Keep going after this cost.
    Continue(Cycles),
    /// Spin-waiting on acknowledgements.
    Block,
    /// The run is complete (including remote acks).
    Done(Cycles),
}

impl Machine {
    /// Open the trace span for `run` on leaving `Prep`: pick its
    /// operation id (the registered shootdown id when there are remote
    /// targets, a synthetic local id otherwise) and mark the `Prep`
    /// phase. The mark carries the time the `Prep` step was dispatched
    /// — the engine clock does not advance inside a step — so the span
    /// starts exactly where the executor did.
    fn trace_sd_begin(&mut self, core: CoreId, run: &mut ShootdownRun) {
        if !self.tracer.is_enabled() {
            return;
        }
        let op = match run.sd {
            Some(id) => id.0,
            None => self.tracer.alloc_local_op(),
        };
        run.trace_op = Some(op);
        run.trace_stage = Some(SdStage::Prep);
        trace_emit!(
            self,
            core,
            Some(op),
            TraceEvent::SdPhase {
                phase: SdPhaseKind::Prep,
            }
        );
    }

    /// Mark a stage transition for `run`'s span, exactly once per stage
    /// (per-entry INVLPG loops re-enter a stage many times). Called at
    /// the top of every `step_sd`.
    fn trace_sd_step(&mut self, core: CoreId, run: &mut ShootdownRun) {
        let Some(op) = run.trace_op else { return };
        if run.trace_stage == Some(run.stage) {
            return;
        }
        let phase = match run.stage {
            SdStage::SendIpis => SdPhaseKind::SendIpis,
            SdStage::LocalFlush => SdPhaseKind::LocalFlush,
            SdStage::UserFlush => SdPhaseKind::UserFlush,
            SdStage::Wait => SdPhaseKind::Wait,
            SdStage::Prep | SdStage::Done => return,
        };
        run.trace_stage = Some(run.stage);
        trace_emit!(self, core, Some(op), TraceEvent::SdPhase { phase });
    }

    /// Close `run`'s span. `sync` is the final acknowledgement-poll cost,
    /// charged after the completion timestamp, so the analysis layer
    /// computes end-to-end latency as `done_at + sync - start`.
    fn trace_sd_done(&mut self, core: CoreId, run: &ShootdownRun, sync: Cycles) {
        if let Some(op) = run.trace_op {
            trace_emit!(self, core, Some(op), TraceEvent::SdDone { sync });
        }
    }
}

impl Machine {
    /// Flush every entry an mm's PCID pair tags on `core`: `pcid` (the
    /// kernel PCID) and, under PTI, its user-view sibling. Returns the
    /// cost of the full flushes; sites that model no cost ignore it.
    pub(crate) fn flush_pcid_pair(&mut self, core: CoreId, pcid: Pcid) -> Cycles {
        let tlb = &mut self.tlbs[core.index()];
        tlb.flush_pcid(pcid);
        let mut cost = self.cfg.costs.full_flush;
        if self.cfg.safe_mode {
            tlb.flush_pcid(pcid.user_sibling());
            cost += self.cfg.costs.full_flush;
        }
        cost
    }

    /// One per-entry flush step on `core`: INVLPG of `va` under the
    /// kernel PCID, or INVPCID under the PTI user PCID when `user`. Traces
    /// it under `op` and returns its cost plus any slow-core penalty.
    fn flush_entry(&mut self, core: CoreId, op: Option<u64>, va: VirtAddr, user: bool) -> Cycles {
        let ts = &self.cpus[core.index()].tlb_state;
        let cost = if user {
            self.tlbs[core.index()].invpcid_single(ts.user_pcid, va);
            self.cfg.costs.invpcid_single
        } else {
            self.tlbs[core.index()].invlpg(ts.kernel_pcid, va);
            self.cfg.costs.invlpg
        };
        trace_emit!(self, core, op, TraceEvent::Invlpg { va: va.0, user });
        cost + self.faults.invlpg_penalty(core)
    }

    /// The stage following `from`, honouring the §3.1 ordering.
    fn sd_next(&self, from: SdStage) -> SdStage {
        let concurrent = self.cfg.opts.concurrent_flush;
        match (from, concurrent) {
            (SdStage::Prep, false) => SdStage::LocalFlush,
            (SdStage::Prep, true) => SdStage::SendIpis,
            (SdStage::SendIpis, false) => SdStage::Wait,
            (SdStage::SendIpis, true) => SdStage::LocalFlush,
            (SdStage::LocalFlush, _) => SdStage::UserFlush,
            (SdStage::UserFlush, false) => SdStage::SendIpis,
            (SdStage::UserFlush, true) => SdStage::Wait,
            (SdStage::Wait, _) => SdStage::Done,
            (SdStage::Done, _) => SdStage::Done,
        }
    }

    /// Step the initiator-side shootdown state machine.
    pub(crate) fn step_sd(&mut self, core: CoreId, run: &mut ShootdownRun) -> SdOut {
        self.trace_sd_step(core, run);
        match run.stage {
            SdStage::Prep => {
                self.stats.counters.bump("shootdown");
                let mm_id = run.info.mm;
                let mut cost = self.cfg.costs.shootdown_prep;
                // Candidate responders: every CPU the mm is active on.
                let candidates: Vec<CoreId> = self
                    .mms
                    .get(&mm_id)
                    .map(|m| m.cpumask.iter().copied().filter(|c| *c != core).collect())
                    .unwrap_or_default();
                if self.cfg.lazy_latr {
                    // LATR-style: no IPIs, no waiting; flushes are applied
                    // asynchronously after a delay. (The §2.3.2 hazard.)
                    for t in &candidates {
                        self.engine.schedule_in(
                            LATR_FLUSH_DELAY,
                            Event::LazyFlushDue {
                                core: *t,
                                info: run.info,
                            },
                        );
                    }
                    self.stats
                        .counters
                        .add("latr_deferred", candidates.len() as u64);
                    run.stage = SdStage::LocalFlush;
                    self.trace_sd_begin(core, run);
                    return SdOut::Continue(cost);
                }
                let mut targets = Vec::new();
                for t in candidates {
                    // Lazy-mode check: one cacheline read per candidate.
                    cost += run_script(&mut self.dir, core, &self.smp.check_lazy(t));
                    if self.cpus[t.index()].in_batched_syscall {
                        // §4.2: the target is inside a batched syscall —
                        // no user access can happen there; it re-syncs at
                        // its own kernel exit.
                        self.stats.counters.bump("batched_skip");
                        trace_emit!(
                            self,
                            core,
                            None::<u64>,
                            TraceEvent::Skip {
                                kind: SkipKind::Batched,
                            }
                        );
                    } else if self.cpus[t.index()].tlb_state.needs_ipi_for(mm_id) {
                        targets.push(t);
                    } else {
                        self.stats.counters.bump("lazy_skip");
                        trace_emit!(
                            self,
                            core,
                            None::<u64>,
                            TraceEvent::Skip {
                                kind: SkipKind::Lazy,
                            }
                        );
                    }
                }
                if !targets.is_empty() {
                    let id = self.alloc_sd_id();
                    let early = use_early_ack(&run.info, &self.cfg.opts);
                    run.initial_targets = targets.len();
                    run.sd = Some(id);
                    self.shootdowns.insert(
                        id,
                        Shootdown::new(id, core, run.info, targets, early, self.engine.now()),
                    );
                    if early {
                        self.stats.counters.bump("early_ack_shootdown");
                    }
                }
                run.stage = self.sd_next(SdStage::Prep);
                self.trace_sd_begin(core, run);
                SdOut::Continue(cost)
            }
            SdStage::SendIpis => {
                let Some(id) = run.sd else {
                    run.stage = self.sd_next(SdStage::SendIpis);
                    return SdOut::Continue(Cycles::ZERO);
                };
                let targets: Vec<CoreId> =
                    self.shootdowns[&id].pending_acks.iter().copied().collect();
                let mut cost = Cycles::ZERO;
                for t in &targets {
                    let step = run_script(&mut self.dir, core, &self.smp.enqueue_work(core, *t));
                    cost += step;
                    // Chaos: the CSD cacheline may bounce slowly — once
                    // per interconnect hop on routed topologies.
                    cost += self
                        .faults
                        .cacheline_jitter_hops(self.dir.jitter_hops(core, *t));
                    if !self.dir.interconnect().is_flat() {
                        trace_emit!(
                            self,
                            core,
                            Some(id.0),
                            TraceEvent::RoutedTransfer {
                                from: core,
                                to: *t,
                                hops: self.dir.jitter_hops(core, *t),
                                cost: step,
                            }
                        );
                    }
                    self.cpus[t.index()].csq.push_back(id);
                    // Storm detector: one EWMA update per first-send
                    // arrival (watchdog re-sends don't count — a
                    // retried core is stalled, not stormed).
                    self.note_shootdown_arrival(*t);
                    trace_emit!(self, core, Some(id.0), TraceEvent::CsqEnqueue { to: *t });
                    trace_emit!(self, core, Some(id.0), TraceEvent::IpiSend { to: *t });
                }
                // Every delivery passes through the fault plan (delay,
                // drop, duplicate); the watchdog below is the safety net
                // that keeps dropped IPIs from hanging the spin-wait.
                let busy = self.send_ipis_faulted(core, &targets, cost);
                self.arm_watchdog(core, id);
                run.stage = self.sd_next(SdStage::SendIpis);
                SdOut::Continue(cost + busy)
            }
            SdStage::LocalFlush => {
                let mm_id = run.info.mm;
                let kpcid = self.cpus[core.index()].tlb_state.kernel_pcid;
                let decided = match run.decided.clone() {
                    Some(d) => d,
                    None => {
                        let local = self.cpus[core.index()].tlb_state.local_tlb_gen;
                        let mm_gen = self.mms.get(&mm_id).map(|m| m.gen.current()).unwrap_or(0);
                        let d = flush_decision(local, mm_gen, &run.info);
                        run.decided = Some(d.clone());
                        d
                    }
                };
                match decided {
                    FlushAction::Skip => {
                        self.stats.counters.bump("local_flush_skip");
                        trace_emit!(
                            self,
                            core,
                            run.trace_op,
                            TraceEvent::Skip {
                                kind: SkipKind::LocalGen,
                            }
                        );
                        run.stage = self.sd_next(SdStage::LocalFlush);
                        SdOut::Continue(Cycles::new(50))
                    }
                    FlushAction::Full { upto } => {
                        self.tlbs[core.index()].flush_pcid(kpcid);
                        self.cpus[core.index()].tlb_state.local_tlb_gen = upto;
                        if self.cfg.safe_mode {
                            self.cpus[core.index()]
                                .tlb_state
                                .deferred_user
                                .record_full();
                            run.user_handled = true;
                        }
                        self.stats.counters.bump("local_full_flush");
                        trace_emit!(
                            self,
                            core,
                            run.trace_op,
                            TraceEvent::FullFlush { user: false }
                        );
                        run.stage = self.sd_next(SdStage::LocalFlush);
                        SdOut::Continue(self.cfg.costs.full_flush)
                    }
                    FlushAction::Selective { upto, .. } => {
                        if let LocalMode::CowTrick { va } = run.local_mode {
                            // §4.1: one atomic RMW replaces the INVLPG. The
                            // write cannot use the stale write-protected
                            // entry, so the hardware drops and re-walks it.
                            let costs = self.cfg.costs.clone();
                            let acc = self.mms.get_mut(&mm_id).map(|mm| {
                                self.tlbs[core.index()].access(
                                    kpcid,
                                    va,
                                    true,
                                    false,
                                    &mut mm.space,
                                    &costs,
                                )
                            });
                            let access_cost = match acc {
                                Some(Ok(a)) => {
                                    if !a.hit {
                                        self.oracle.tlb_filled(
                                            core,
                                            false,
                                            mm_id,
                                            va.align_down(PageSize::Size4K),
                                        );
                                    }
                                    a.cost
                                }
                                Some(Err(_)) => Cycles::ZERO,
                                None => {
                                    self.record_error(SimError::NoSuchMm(mm_id));
                                    Cycles::ZERO
                                }
                            };
                            self.cpus[core.index()].tlb_state.local_tlb_gen = upto;
                            trace_emit!(
                                self,
                                core,
                                run.trace_op,
                                TraceEvent::AtomicRmw { va: va.0 }
                            );
                            run.stage = self.sd_next(SdStage::LocalFlush);
                            return SdOut::Continue(self.cfg.costs.atomic_rmw + access_cost);
                        }
                        if run.kidx < run.kernel_entries.len() {
                            let va = run.kernel_entries[run.kidx];
                            run.kidx += 1;
                            SdOut::Continue(self.flush_entry(core, run.trace_op, va, false))
                        } else {
                            self.cpus[core.index()].tlb_state.local_tlb_gen = upto;
                            run.stage = self.sd_next(SdStage::LocalFlush);
                            SdOut::Continue(Cycles::ZERO)
                        }
                    }
                }
            }
            SdStage::UserFlush => {
                // User-PCID handling only exists under PTI, and only when a
                // selective flush actually ran locally.
                let selective = matches!(run.decided, Some(FlushAction::Selective { .. }));
                if !self.cfg.safe_mode || run.user_handled || !selective {
                    run.stage = self.sd_next(SdStage::UserFlush);
                    return SdOut::Continue(Cycles::ZERO);
                }
                let in_context = self.cfg.opts.in_context_flush && !run.info.freed_tables;
                if in_context {
                    // §3.4 interplay: while waiting for the FIRST remote
                    // acknowledgement, spare cycles flush user PTEs
                    // eagerly; once an ack arrives, defer the rest.
                    let still_no_ack = run
                        .sd
                        .and_then(|id| self.shootdowns.get(&id))
                        .map(|sd| sd.pending_acks.len() == run.initial_targets)
                        .unwrap_or(false);
                    let interleave = self.cfg.opts.concurrent_flush && still_no_ack;
                    if interleave && run.uidx < run.user_entries.len() {
                        let va = run.user_entries[run.uidx];
                        run.uidx += 1;
                        self.stats.counters.bump("interleaved_user_flush");
                        return SdOut::Continue(self.flush_entry(core, run.trace_op, va, true));
                    }
                    if run.uidx < run.user_entries.len() {
                        let rest = VirtRange::new(run.user_entries[run.uidx], run.info.range.end);
                        self.cpus[core.index()]
                            .tlb_state
                            .deferred_user
                            .record(rest, run.info.stride);
                        self.stats.counters.bump("user_flush_deferred");
                        trace_emit!(self, core, run.trace_op, TraceEvent::UserFlushDeferred);
                    }
                    run.stage = self.sd_next(SdStage::UserFlush);
                    SdOut::Continue(Cycles::ZERO)
                } else {
                    // Baseline: eager INVPCID per user PTE (§3.4).
                    if run.uidx < run.user_entries.len() {
                        let va = run.user_entries[run.uidx];
                        run.uidx += 1;
                        SdOut::Continue(self.flush_entry(core, run.trace_op, va, true))
                    } else {
                        run.stage = self.sd_next(SdStage::UserFlush);
                        SdOut::Continue(Cycles::ZERO)
                    }
                }
            }
            SdStage::Wait => {
                let Some(id) = run.sd else {
                    run.stage = SdStage::Done;
                    self.trace_sd_done(core, run, Cycles::ZERO);
                    return SdOut::Done(Cycles::ZERO);
                };
                if self
                    .shootdowns
                    .get(&id)
                    .map(|sd| sd.complete())
                    .unwrap_or(true)
                {
                    // Final acknowledgement poll: one CFD read per target.
                    let Some(sd) = self.shootdowns.remove(&id) else {
                        // The record is gone without this initiator reaping
                        // it — possible only if some recovery path tore it
                        // down; record and complete rather than panic.
                        self.record_error(SimError::InvalidArgument(format!(
                            "shootdown {id:?} vanished before its initiator's wait completed"
                        )));
                        run.stage = SdStage::Done;
                        self.trace_sd_done(core, run, Cycles::ZERO);
                        return SdOut::Done(Cycles::ZERO);
                    };
                    // The spin-wait observes each responder's ack by
                    // pulling its CFD line back: one transfer per target.
                    let mut cost = Cycles::ZERO;
                    for t in &sd.targets {
                        cost += run_script(&mut self.dir, core, &self.smp.poll_ack(core, *t));
                        cost += self
                            .faults
                            .cacheline_jitter_hops(self.dir.jitter_hops(core, *t));
                    }
                    run.stage = SdStage::Done;
                    self.trace_sd_done(core, run, cost);
                    SdOut::Done(cost)
                } else {
                    SdOut::Block
                }
            }
            SdStage::Done => SdOut::Done(Cycles::ZERO),
        }
    }

    /// Initiator-side completion: the flush guarantee now holds — for
    /// exactly the page versions this operation modified. Retiring at
    /// current versions would claim guarantees on behalf of other
    /// still-in-flight operations.
    pub(crate) fn finish_sd(&mut self, _core: CoreId, run: &ShootdownRun) {
        self.oracle.retire_exact(run.info.mm, &run.retire);
        self.stats.counters.bump("shootdown_done");
    }

    /// An acknowledgement from `responder` for shootdown `id`. Idempotent:
    /// a responder that already acknowledged (its CFD flag is already
    /// clear) is ignored — a duplicated IPI or a watchdog re-send racing
    /// the original ack must not corrupt the pending-ack set.
    pub(crate) fn record_ack(&mut self, id: tlbdown_core::ShootdownId, responder: CoreId) {
        let Some(sd) = self.shootdowns.get_mut(&id) else {
            return;
        };
        if !sd.pending_acks.contains(&responder) {
            self.stats.counters.bump("duplicate_ack_ignored");
            return;
        }
        let initiator = sd.initiator;
        if sd.ack(responder) {
            self.wake(initiator);
        }
    }

    // --- Responder IRQ handler ---

    pub(crate) fn step_irq(&mut self, core: CoreId, f: &mut IrqFrame) -> crate::exec::StepOut {
        use crate::exec::StepOut;
        match f.stage {
            IrqStage::DrainQueue => {
                f.queue = self.cpus[core.index()].csq.drain(..).collect();
                f.qidx = 0;
                trace_emit!(
                    self,
                    core,
                    None::<u64>,
                    TraceEvent::CsqDrain {
                        n: f.queue.len() as u64,
                    }
                );
                if f.queue.is_empty() {
                    self.stats.counters.bump("spurious_irq");
                    f.stage = IrqStage::Eoi;
                } else {
                    f.stage = IrqStage::FetchWork;
                }
                StepOut::Continue(Cycles::ZERO)
            }
            IrqStage::FetchWork => {
                let id = f.queue[f.qidx];
                let Some(sd) = self.shootdowns.get(&id) else {
                    // Already torn down (a watchdog re-send raced the acks,
                    // or a forced flush reaped it). Nothing was flushed and
                    // nothing must be acknowledged for this item — in
                    // particular `acked` must stay false, or LateAck would
                    // decrement `acked_unflushed` on behalf of a *different*
                    // item still inside its §3.2 early-ack window.
                    self.stats.counters.bump("stale_csq_entry");
                    trace_emit!(
                        self,
                        core,
                        Some(id.0),
                        TraceEvent::Skip {
                            kind: SkipKind::StaleCsq,
                        }
                    );
                    f.act = IrqAct::Skip;
                    f.acked = false;
                    f.stage = IrqStage::LateAck;
                    return StepOut::Continue(Cycles::ZERO);
                };
                let initiator = sd.initiator;
                let info = sd.info;
                f.cur_info = Some(info);
                f.cur_initiator = initiator;
                f.cur_early = sd.early_ack;
                // L8 numaPTE: the flush metadata is replicated per socket,
                // so a responder on a different socket than the initiator
                // reads its own socket's copy — one local memory access
                // instead of the cross-socket cacheline transfer.
                let node_local = self.numa_pte_active()
                    && self.cfg.topo.socket_of(initiator) != self.cfg.topo.socket_of(core);
                let cost = if node_local {
                    self.stats.counters.bump("numapte_local_fetch");
                    self.cfg.costs.mem_access
                } else {
                    run_script(&mut self.dir, core, &self.smp.fetch_work(initiator, core))
                        + self
                            .faults
                            .cacheline_jitter_hops(self.dir.jitter_hops(initiator, core))
                };
                trace_emit!(
                    self,
                    core,
                    Some(id.0),
                    TraceEvent::CachelineTransfer { cost }
                );
                if !self.dir.interconnect().is_flat() {
                    trace_emit!(
                        self,
                        core,
                        Some(id.0),
                        TraceEvent::RoutedTransfer {
                            from: initiator,
                            to: core,
                            hops: self.dir.jitter_hops(initiator, core),
                            cost,
                        }
                    );
                }
                let loaded = self.cpus[core.index()].tlb_state.loaded_mm == info.mm;
                let mm_gen = self.mms.get(&info.mm).map(|m| m.gen.current()).unwrap_or(0);
                let quarantine_full =
                    self.is_quarantined(core) && !self.cfg.injects(InjectedBug::Quarantine);
                let action = if quarantine_full {
                    // Quarantine semantics: this core's selective-flush
                    // bookkeeping is no longer trusted, so every work
                    // item degrades to an unconditional full flush of
                    // the target mm — correctness preserved outright,
                    // selectivity sacrificed until probation clears.
                    self.stats.counters.bump("quarantine_full_flush");
                    if loaded {
                        FlushAction::Full { upto: mm_gen }
                    } else {
                        // Not loaded: the suspect entries live under the
                        // mm's own PCID; flush them wholesale and record
                        // the synced generation for the next switch-in.
                        if let Some(pcid) = self.mms.get(&info.mm).map(|m| m.pcid) {
                            self.flush_pcid_pair(core, pcid);
                            self.cpus[core.index()].pcid_gens.insert(info.mm, mm_gen);
                            trace_emit!(
                                self,
                                core,
                                Some(id.0),
                                TraceEvent::FullFlush {
                                    user: self.cfg.safe_mode,
                                }
                            );
                        }
                        FlushAction::Skip
                    }
                } else if !loaded {
                    FlushAction::Skip
                } else {
                    let local = self.cpus[core.index()].tlb_state.local_tlb_gen;
                    flush_decision(local, mm_gen, &info)
                };
                f.acked = false;
                match action {
                    FlushAction::Skip => {
                        f.act = IrqAct::Skip;
                        self.stats.counters.bump("responder_skip");
                    }
                    FlushAction::Full { upto } => {
                        f.act = IrqAct::Full;
                        f.upto = upto;
                        self.stats.counters.bump("responder_full_flush");
                    }
                    FlushAction::Selective {
                        range,
                        stride,
                        upto,
                    } => {
                        f.act = IrqAct::Selective;
                        f.upto = upto;
                        f.entries = range.iter_pages(stride).collect();
                        f.user_entries = f.entries.clone();
                        f.eidx = 0;
                        f.uidx = 0;
                    }
                }
                f.stage = IrqStage::FlushDecide;
                StepOut::Continue(cost)
            }
            IrqStage::FlushDecide => {
                let id = f.queue[f.qidx];
                let early = f.cur_early;
                let mut cost = Cycles::ZERO;
                if early && !f.acked {
                    // §3.2: acknowledge on handler entry — no userspace
                    // mapping can be used from here on.
                    let initiator = f.cur_initiator;
                    cost += run_script(&mut self.dir, core, &self.smp.ack(initiator, core));
                    cost += self
                        .faults
                        .cacheline_jitter_hops(self.dir.jitter_hops(initiator, core));
                    f.acked = true;
                    if self.cfg.injects(InjectedBug::Quarantine) && self.is_quarantined(core) {
                        // THE INJECTED BUG: assume the forced-flush path
                        // does the §3.2 accounting for quarantined cores
                        // and skip the `acked_unflushed` bump — but when
                        // the IPI actually arrives, it is *this* handler
                        // that flushes, and an NMI landing inside the
                        // ack→flush window now probes through stale
                        // entries unchallenged.
                        f.cur_buggy_ack = true;
                        self.stats.counters.bump("buggy_quarantine_ack");
                    } else {
                        self.cpus[core.index()].acked_unflushed += 1;
                    }
                    self.stats.counters.bump("early_ack");
                    trace_emit!(
                        self,
                        core,
                        Some(id.0),
                        TraceEvent::IpiAck {
                            kind: AckKind::Early,
                            by: core,
                        }
                    );
                    self.record_ack(id, core);
                    self.note_healthy_ack(core);
                }
                match f.act {
                    IrqAct::Pending => unreachable!("decision made in FetchWork"),
                    IrqAct::Skip => {
                        trace_emit!(
                            self,
                            core,
                            Some(id.0),
                            TraceEvent::Skip {
                                kind: SkipKind::Responder,
                            }
                        );
                        f.stage = IrqStage::LateAck;
                        StepOut::Continue(cost + Cycles::new(50))
                    }
                    IrqAct::Full => {
                        let kpcid = self.cpus[core.index()].tlb_state.kernel_pcid;
                        self.tlbs[core.index()].flush_pcid(kpcid);
                        self.cpus[core.index()].tlb_state.local_tlb_gen = f.upto;
                        if self.cfg.safe_mode {
                            self.cpus[core.index()]
                                .tlb_state
                                .deferred_user
                                .record_full();
                        }
                        // Updating local_tlb_gen writes this CPU's
                        // tlbstate line — the §3.3 false-sharing source.
                        cost += run_script(&mut self.dir, core, &self.smp.touch_tlbstate(core));
                        trace_emit!(
                            self,
                            core,
                            Some(id.0),
                            TraceEvent::FullFlush { user: false }
                        );
                        f.stage = IrqStage::LateAck;
                        StepOut::Continue(cost + self.cfg.costs.full_flush)
                    }
                    IrqAct::Selective => {
                        f.stage = IrqStage::FlushEntry;
                        StepOut::Continue(cost)
                    }
                }
            }
            IrqStage::FlushEntry => {
                if f.eidx < f.entries.len() {
                    let va = f.entries[f.eidx];
                    f.eidx += 1;
                    StepOut::Continue(self.flush_entry(core, Some(f.queue[f.qidx].0), va, false))
                } else {
                    self.cpus[core.index()].tlb_state.local_tlb_gen = f.upto;
                    // local_tlb_gen lives in the tlbstate line (§3.3
                    // false sharing with the lazy-mode indication).
                    let c = run_script(&mut self.dir, core, &self.smp.touch_tlbstate(core));
                    f.stage = IrqStage::UserFlushEntry;
                    StepOut::Continue(c)
                }
            }
            IrqStage::UserFlushEntry => {
                if !self.cfg.safe_mode {
                    f.stage = IrqStage::LateAck;
                    return StepOut::Continue(Cycles::ZERO);
                }
                let info = f.cur_info;
                let freed = info.map(|i| i.freed_tables).unwrap_or(true);
                if self.cfg.opts.in_context_flush && !freed {
                    // §3.4 on the responder: defer the user-PCID flush to
                    // this core's own return to userspace.
                    if f.uidx < f.user_entries.len() {
                        if let Some(i) = info {
                            let rest = VirtRange::new(f.user_entries[f.uidx], i.range.end);
                            self.cpus[core.index()]
                                .tlb_state
                                .deferred_user
                                .record(rest, i.stride);
                            self.stats.counters.bump("user_flush_deferred");
                            trace_emit!(
                                self,
                                core,
                                Some(f.queue[f.qidx].0),
                                TraceEvent::UserFlushDeferred
                            );
                        }
                    }
                    f.stage = IrqStage::LateAck;
                    StepOut::Continue(Cycles::ZERO)
                } else if f.uidx < f.user_entries.len() {
                    let va = f.user_entries[f.uidx];
                    f.uidx += 1;
                    StepOut::Continue(self.flush_entry(core, Some(f.queue[f.qidx].0), va, true))
                } else {
                    f.stage = IrqStage::LateAck;
                    StepOut::Continue(Cycles::ZERO)
                }
            }
            IrqStage::LateAck => {
                let id = f.queue[f.qidx];
                let mut cost = Cycles::ZERO;
                if f.acked {
                    // Early-acked: the flush for this item is now done.
                    // A buggy-quarantine ack never bumped the window
                    // counter, so it must not decrement it either.
                    if !f.cur_buggy_ack {
                        let c = &mut self.cpus[core.index()].acked_unflushed;
                        *c = c.saturating_sub(1);
                    }
                } else if self.shootdowns.contains_key(&id) {
                    cost += run_script(&mut self.dir, core, &self.smp.ack(f.cur_initiator, core));
                    let hops = self.dir.jitter_hops(f.cur_initiator, core);
                    cost += self.faults.cacheline_jitter_hops(hops);
                    self.stats.counters.bump("late_ack");
                    trace_emit!(
                        self,
                        core,
                        Some(id.0),
                        TraceEvent::IpiAck {
                            kind: AckKind::Late,
                            by: core,
                        }
                    );
                    self.record_ack(id, core);
                    self.note_healthy_ack(core);
                }
                f.qidx += 1;
                f.acked = false;
                f.cur_buggy_ack = false;
                f.act = IrqAct::Pending;
                f.cur_info = None;
                f.stage = if f.qidx < f.queue.len() {
                    IrqStage::FetchWork
                } else {
                    IrqStage::Eoi
                };
                StepOut::Continue(cost)
            }
            IrqStage::Eoi => {
                if let Some(_v) = self.cpus[core.index()].lapic.end_of_interrupt() {
                    // Another queued shootdown IPI: handle it in-place.
                    f.stage = IrqStage::DrainQueue;
                    return crate::exec::StepOut::Continue(self.cfg.costs.irq_dispatch);
                }
                // Returning to user? Run the deferred in-context flushes.
                // (This frame is popped while stepping, so `last()` is the
                // frame the handler interrupted.)
                let to_user = matches!(
                    self.cpus[core.index()].frames.last(),
                    Some(crate::cpu::FrameSlot {
                        frame: crate::cpu::Frame::Prog(_),
                        ..
                    })
                );
                let flush = if to_user {
                    self.kernel_exit_user_flush(core)
                } else {
                    Cycles::ZERO
                };
                let total = self.engine.now() + flush + self.cfg.costs.irq_exit - f.started;
                self.stats.record_irq(core, total);
                crate::exec::StepOut::Done {
                    cost: flush + self.cfg.costs.irq_exit,
                    retval: None,
                }
            }
        }
    }

    // --- LATR-style asynchronous flush application ---

    pub(crate) fn on_lazy_flush(&mut self, core: CoreId, info: FlushTlbInfo) {
        self.stats.counters.bump("latr_flush");
        let ts = &self.cpus[core.index()].tlb_state;
        if ts.loaded_mm != info.mm {
            return;
        }
        let kpcid = ts.kernel_pcid;
        let upcid = ts.user_pcid;
        let mm_gen = self.mms.get(&info.mm).map(|m| m.gen.current()).unwrap_or(0);
        match flush_decision(ts.local_tlb_gen, mm_gen, &info) {
            FlushAction::Skip => {}
            FlushAction::Full { upto } => {
                self.flush_pcid_pair(core, kpcid);
                self.cpus[core.index()].tlb_state.local_tlb_gen = upto;
            }
            FlushAction::Selective {
                range,
                stride,
                upto,
            } => {
                for va in range.iter_pages(stride) {
                    self.tlbs[core.index()].invlpg(kpcid, va);
                    if self.cfg.safe_mode {
                        self.tlbs[core.index()].invpcid_single(upcid, va);
                    }
                }
                self.cpus[core.index()].tlb_state.local_tlb_gen = upto;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use tlbdown_core::{FlushTlbInfo, Shootdown, ShootdownId};
    use tlbdown_types::{CoreId, Cycles, MmId, PageSize, VirtAddr, VirtRange};

    use crate::{KernelConfig, Machine};

    /// A duplicated shootdown vector (fabric re-delivery, watchdog
    /// re-send racing the original) makes the responder ack the same id
    /// twice. The machine-level bookkeeping must swallow the second ack
    /// instead of corrupting the pending set or waking a stranger.
    #[test]
    fn duplicate_ack_is_ignored_at_machine_level() {
        let mut m = Machine::new(KernelConfig::test_machine(3));
        let info = FlushTlbInfo::ranged(
            MmId::new(1),
            VirtRange::pages(VirtAddr::new(0x1000), 1, PageSize::Size4K),
            PageSize::Size4K,
            1,
        );
        let id = ShootdownId(7);
        m.shootdowns.insert(
            id,
            Shootdown::new(
                id,
                CoreId(0),
                info,
                [CoreId(1), CoreId(2)],
                false,
                Cycles::ZERO,
            ),
        );
        m.record_ack(id, CoreId(1));
        assert_eq!(m.shootdowns[&id].outstanding(), 1);
        // Second delivery of the same vector: ack already recorded.
        m.record_ack(id, CoreId(1));
        assert_eq!(m.shootdowns[&id].outstanding(), 1);
        assert_eq!(m.stats.counters.get("duplicate_ack_ignored"), 1);
        // An ack for a long-gone shootdown is likewise harmless.
        m.record_ack(ShootdownId(99), CoreId(2));
        assert_eq!(m.shootdowns[&id].outstanding(), 1);
    }
}
