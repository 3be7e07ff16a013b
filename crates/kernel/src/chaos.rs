//! Chaos layer: fault-injection configuration and the csd-lock watchdog.
//!
//! Two halves live here:
//!
//! 1. **Configuration** ([`ChaosConfig`], [`WatchdogConfig`]): which
//!    [`FaultSpec`] perturbs the machine and how the kernel defends
//!    itself. The injection mechanism itself is `tlbdown_sim::fault`;
//!    the wiring sits at the IPI-send, IRQ-entry and flush sites in
//!    `shoot.rs` / `machine.rs`.
//!
//! 2. **Hardening** (the `impl Machine` below), mirroring Linux's
//!    `csd_lock_wait` watchdog (`CSD_LOCK_WAIT_DEBUG`, 2019-era
//!    `smp.c`): when an initiator spin-waits on acknowledgements past a
//!    timeout, the watchdog fires; it re-sends the IPIs to the laggards a
//!    bounded number of times, and if they stay silent it degrades
//!    gracefully — a conservative full flush of the target mm's PCIDs on
//!    each unresponsive core, followed by a forced acknowledgement, so
//!    the initiator always completes in bounded simulated time with the
//!    flush guarantee intact. The stall is recorded as a
//!    [`SimError::ShootdownStall`] diagnostic (not an oracle violation:
//!    the degraded path is *safe*, just slow).
//!
//! The watchdog is armed for every shootdown whenever it is enabled
//! (which is the default): on a healthy machine every ack arrives long
//! before the timeout and the event is a no-op, so enabling it does not
//! perturb fault-free schedules.

use tlbdown_core::ShootdownId;
use tlbdown_sim::fault::{FaultSpec, IpiFault};
use tlbdown_types::{CoreId, Cycles, SimError};

use crate::event::Event;
use crate::machine::Machine;
use crate::tracewire::trace_emit;
use tlbdown_trace::{AckKind, PerturbKind, TraceEvent};

/// Maximum seeded jitter added to each watchdog backoff re-arm, in
/// cycles: it de-synchronizes retry herds, and is drawn from a dedicated
/// stream only when a retry is actually scheduled, so healthy runs never
/// touch it.
const JITTER_CYCLES: u64 = 2_500;
/// Consecutive degrade-rung stalls before a responder is quarantined.
const QUARANTINE_AFTER: u32 = 3;

// The storm detector: a per-core EWMA of shootdown inter-arrival gaps.
//
// Under a shootdown storm (a sev-step-style monitor hammering a victim
// with one shootdown per faulting access) a responder can be *healthy*
// yet slow simply because it is drowning in IRQs; firing the full
// escalation ladder at it would be a false positive. When the detector
// is on and a watchdog fires with acks still missing while any pending
// responder's arrival EWMA is below `STORM_HOT_GAP_CYCLES`, the check is
// postponed (at most `STORM_MAX_WIDENS` times) instead of escalating.
//
// The EWMA is *tracked* unconditionally (a few integer ops per IPI send)
// but only *consulted* when the detector is on — and only on the
// fired-with-pending-acks path, which benign runs never reach. Turning
// the detector on therefore cannot perturb a fault-free schedule: same
// events, same times, same counters, byte-identical metrics.

/// An arrival EWMA below this many cycles marks the core storm-loaded.
const STORM_HOT_GAP_CYCLES: u64 = 50_000;
/// Each widening postpones the check by `timeout_cycles ×` this.
const STORM_WIDEN_FACTOR: u64 = 4;
/// Widenings per watchdog chain, so a genuinely wedged responder still
/// reaches the degrade rung.
const STORM_MAX_WIDENS: u32 = 2;
/// EWMA decay: `ewma += (gap - ewma) >> STORM_EWMA_SHIFT`.
const STORM_EWMA_SHIFT: u32 = 3;

/// The csd-lock watchdog on the initiator's ack spin-wait, grown into a
/// Linux-style escalation ladder:
///
/// 1. **retry** — re-send the lost IPIs with exponential backoff and
///    seeded jitter, up to `max_resends` times;
/// 2. **degrade** — give up on the laggards: forced full flush + forced
///    ack per core, recorded as [`SimError::ShootdownStall`];
/// 3. **quarantine** — a core that rode the ladder to the degrade rung
///    three consecutive times is exiled: shootdowns that find it
///    pending skip the retry rung entirely (straight to the forced
///    flush) and the responder itself applies unconditional
///    full-flush semantics until `probation_acks` healthy
///    acknowledgements buy its way back in.
///
/// The storm detector (`storm_detector`) sits in front of the ladder and
/// widens the effective timeout under load so a merely-swamped responder
/// is not mistaken for a wedged one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Whether the watchdog is armed at all.
    pub enabled: bool,
    /// Cycles an initiator may spin before the watchdog intervenes.
    /// Healthy shootdowns on the paper machine complete in well under
    /// 10⁵ cycles even with every optimization off.
    pub timeout_cycles: u64,
    /// Bounded IPI re-sends before degrading to the forced-flush path.
    pub max_resends: u32,
    /// Healthy (non-forced) acknowledgements a quarantined responder
    /// must deliver before it rejoins the selective-flush path.
    pub probation_acks: u32,
    /// Whether the storm detector widens the timeout for storm-loaded
    /// responders. Off by default.
    pub storm_detector: bool,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            timeout_cycles: 1_000_000,
            max_resends: 2,
            probation_acks: 2,
            storm_detector: false,
        }
    }
}

/// Chaos-layer configuration carried by `KernelConfig`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosConfig {
    /// What to inject. Inert by default.
    pub fault: FaultSpec,
    /// Seed for the fault plan's own deterministic stream (independent of
    /// the workload and noise seeds, so the same faults replay against
    /// different workloads).
    pub fault_seed: u64,
    /// Watchdog policy.
    pub watchdog: WatchdogConfig,
}

impl ChaosConfig {
    /// A chaos config injecting `fault` with the given seed and the
    /// default watchdog.
    pub fn with_fault(fault: FaultSpec, fault_seed: u64) -> Self {
        ChaosConfig {
            fault,
            fault_seed,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Per-core escalation-ladder state (see [`WatchdogConfig`]): stall
/// streaks, quarantine membership, probation credit, and the storm
/// detector's arrival EWMAs. All of it is protocol-relevant (it steers
/// future flush decisions), so `Machine::state_digest` hashes it.
#[derive(Clone, Debug)]
pub(crate) struct Escalation {
    /// Jitter stream for backoff re-arms. Drawn from *only* when a retry
    /// is scheduled, so healthy schedules never advance it.
    pub(crate) jitter_rng: tlbdown_sim::SplitMix64,
    /// Consecutive degrade-rung stalls per core.
    pub(crate) streak: Vec<u32>,
    /// Whether each core is currently quarantined.
    pub(crate) quarantined: Vec<bool>,
    /// Healthy acks still owed before a quarantined core is released.
    pub(crate) probation: Vec<u32>,
    /// Per-core EWMA of shootdown-IPI inter-arrival gaps (cycles);
    /// `u64::MAX` until two arrivals have been seen.
    pub(crate) ewma_gap: Vec<u64>,
    /// Cycle stamp of the last shootdown IPI sent at each core (0 =
    /// never).
    pub(crate) last_arrival: Vec<u64>,
}

impl Escalation {
    /// Fresh state for an `n`-core machine. The jitter stream is forked
    /// off the fault seed so the same faults replay with the same
    /// backoff schedule.
    pub(crate) fn new(n: u32, fault_seed: u64) -> Self {
        Escalation {
            jitter_rng: tlbdown_sim::SplitMix64::new(fault_seed ^ 0x5707_11db_0a7c_41e5),
            streak: vec![0; n as usize],
            quarantined: vec![false; n as usize],
            probation: vec![0; n as usize],
            ewma_gap: vec![u64::MAX; n as usize],
            last_arrival: vec![0; n as usize],
        }
    }
}

impl Machine {
    /// Send one shootdown IPI to each core of `targets`, routing every
    /// delivery through the fault plan. Returns the initiator-busy cost.
    /// `base` is latency already accumulated before the ICR writes (the
    /// cacheline work of queueing the CSDs).
    pub(crate) fn send_ipis_faulted(
        &mut self,
        initiator: CoreId,
        targets: &[CoreId],
        base: Cycles,
    ) -> Cycles {
        let plan = self.fabric.multicast_plan(initiator, targets);
        let mut delivered = 0u64;
        for d in &plan.deliveries {
            let jitter = self.noise();
            let at = base + d.arrives_in + jitter;
            let ev = |core| Event::IpiArrive {
                core,
                vector: tlbdown_apic::Vector::CallFunction,
            };
            match self.faults.ipi_fault(d.target) {
                IpiFault::Deliver { extra } => {
                    self.engine.schedule_in(at + extra, ev(d.target));
                    delivered += 1;
                }
                IpiFault::Drop => {
                    self.stats.counters.bump("chaos_ipi_dropped");
                    trace_emit!(
                        self,
                        initiator,
                        None::<u64>,
                        TraceEvent::Perturb {
                            kind: PerturbKind::IpiDropped,
                        }
                    );
                }
                IpiFault::Duplicate { gap } => {
                    self.engine.schedule_in(at, ev(d.target));
                    self.engine.schedule_in(at + gap, ev(d.target));
                    self.stats.counters.bump("chaos_ipi_duplicated");
                    trace_emit!(
                        self,
                        initiator,
                        None::<u64>,
                        TraceEvent::Perturb {
                            kind: PerturbKind::IpiDuplicated,
                        }
                    );
                    delivered += 2;
                }
            }
        }
        self.stats.counters.add("ipis_sent", delivered);
        plan.initiator_busy
    }

    /// Arm the watchdog for shootdown `id` if enabled.
    pub(crate) fn arm_watchdog(&mut self, initiator: CoreId, id: ShootdownId) {
        if self.cfg.chaos.watchdog.enabled {
            trace_emit!(
                self,
                initiator,
                Some(id.0),
                TraceEvent::Perturb {
                    kind: PerturbKind::WatchdogArmed,
                }
            );
            self.engine.schedule_in(
                Cycles::new(self.cfg.chaos.watchdog.timeout_cycles),
                Event::CsdWatchdog {
                    initiator,
                    id,
                    resends: 0,
                    widened: 0,
                },
            );
        }
    }

    /// Update `core`'s arrival EWMA for a shootdown IPI sent now. Always
    /// tracked (the storm detector only *reads* it when enabled) so that
    /// toggling the detector cannot change machine state evolution.
    pub(crate) fn note_shootdown_arrival(&mut self, core: CoreId) {
        let now = self.engine.now().as_u64();
        let i = core.index();
        let last = self.esc.last_arrival[i];
        self.esc.last_arrival[i] = now;
        if last == 0 {
            return;
        }
        let gap = now.saturating_sub(last);
        let s = STORM_EWMA_SHIFT;
        let ewma = self.esc.ewma_gap[i];
        self.esc.ewma_gap[i] = if ewma == u64::MAX {
            gap
        } else {
            // ewma += (gap - ewma) >> s, in unsigned-safe form.
            ewma - (ewma >> s) + (gap >> s)
        };
    }

    /// A responder delivered a healthy (early or late, never forced)
    /// acknowledgement: reset its stall streak and, if quarantined, pay
    /// down its probation — releasing it once the balance clears.
    pub(crate) fn note_healthy_ack(&mut self, core: CoreId) {
        let i = core.index();
        self.esc.streak[i] = 0;
        if self.esc.quarantined[i] {
            self.esc.probation[i] = self.esc.probation[i].saturating_sub(1);
            if self.esc.probation[i] == 0 {
                self.esc.quarantined[i] = false;
                self.stats.counters.bump("quarantine_exits");
                trace_emit!(
                    self,
                    core,
                    None::<u64>,
                    TraceEvent::Perturb {
                        kind: PerturbKind::QuarantineExit,
                    }
                );
            }
        }
    }

    /// Whether `core` is currently quarantined by the escalation ladder.
    pub(crate) fn is_quarantined(&self, core: CoreId) -> bool {
        self.esc.quarantined[core.index()]
    }

    /// Force `core` into quarantine (test/scenario setup; takes no
    /// simulated time and records no error). Probation is set from the
    /// watchdog config, exactly as an organic entry would.
    pub fn quarantine_core(&mut self, core: CoreId) {
        let i = core.index();
        self.esc.streak[i] = QUARANTINE_AFTER;
        self.esc.quarantined[i] = true;
        self.esc.probation[i] = self.cfg.chaos.watchdog.probation_acks.max(1);
    }

    /// `core` rode the ladder to the degrade rung: bump its stall streak
    /// and quarantine it once the streak reaches [`QUARANTINE_AFTER`].
    fn note_stall(&mut self, core: CoreId) {
        let i = core.index();
        self.esc.streak[i] = self.esc.streak[i].saturating_add(1);
        if !self.esc.quarantined[i] && self.esc.streak[i] >= QUARANTINE_AFTER {
            self.esc.quarantined[i] = true;
            self.esc.probation[i] = self.cfg.chaos.watchdog.probation_acks.max(1);
            self.stats.counters.bump("quarantine_entries");
            let streak = self.esc.streak[i];
            self.record_error(SimError::ResponderQuarantined { core, streak });
            trace_emit!(
                self,
                core,
                None::<u64>,
                TraceEvent::Perturb {
                    kind: PerturbKind::QuarantineEnter,
                }
            );
        }
    }

    /// The csd-lock watchdog fires for shootdown `id`. The rungs, in
    /// order: healthy no-op → storm widening → quarantined fast-degrade →
    /// bounded retry with backoff + jitter → degrade + quarantine
    /// bookkeeping.
    pub(crate) fn on_csd_watchdog(
        &mut self,
        initiator: CoreId,
        id: ShootdownId,
        resends: u32,
        widened: u32,
    ) {
        // Completed (and reaped) in time: the healthy no-op path.
        let Some(sd) = self.shootdowns.get(&id) else {
            return;
        };
        if sd.complete() {
            // All acks in; the initiator's wake is already scheduled.
            return;
        }
        let pending: Vec<CoreId> = sd.pending_acks.iter().copied().collect();
        let w = self.cfg.chaos.watchdog.clone();
        // Storm rung: acks are missing, but if a pending responder is
        // drowning in shootdown arrivals it is presumed swamped rather
        // than wedged — postpone the check instead of escalating. Benign
        // runs never reach this line, so an enabled-but-idle detector is
        // perturbation-free by construction.
        if w.storm_detector && widened < STORM_MAX_WIDENS {
            let hot = pending
                .iter()
                .any(|t| self.esc.ewma_gap[t.index()] < STORM_HOT_GAP_CYCLES);
            if hot {
                let grace = w.timeout_cycles.saturating_mul(STORM_WIDEN_FACTOR);
                self.stats.counters.bump("storm_widen");
                self.stats.counters.add("storm_detected_cycles", grace);
                trace_emit!(
                    self,
                    initiator,
                    Some(id.0),
                    TraceEvent::Perturb {
                        kind: PerturbKind::StormWiden,
                    }
                );
                self.engine.schedule_in(
                    Cycles::new(grace),
                    Event::CsdWatchdog {
                        initiator,
                        id,
                        resends,
                        widened: widened + 1,
                    },
                );
                return;
            }
        }
        self.stats.counters.bump("csd_watchdog_fired");
        trace_emit!(
            self,
            initiator,
            Some(id.0),
            TraceEvent::Perturb {
                kind: PerturbKind::WatchdogFired,
            }
        );
        // Quarantined laggards skip the retry rung: their record says
        // retries don't help, so the forced flush runs immediately and
        // the initiator's wait stays short.
        let (exiled, healthy): (Vec<CoreId>, Vec<CoreId>) = pending
            .iter()
            .copied()
            .partition(|t| self.esc.quarantined[t.index()]);
        for t in &exiled {
            self.stats.counters.bump("quarantine_fast_degrade");
            self.engine
                .schedule_in(Cycles::ZERO, Event::ForcedFullFlush { core: *t, id });
        }
        if healthy.is_empty() {
            return;
        }
        if resends < w.max_resends {
            // Bounded retry: re-queue the work and re-send the IPIs (the
            // re-sends pass through the fault plan again — a lossy fabric
            // can eat these too; the degradation path below is the
            // backstop that keeps completion bounded). Backoff doubles
            // per rung (capped) and seeded jitter de-synchronizes
            // concurrent retry chains.
            self.stats.counters.bump("csd_watchdog_resend");
            self.stats.counters.bump("watchdog_retries");
            trace_emit!(
                self,
                initiator,
                Some(id.0),
                TraceEvent::Perturb {
                    kind: PerturbKind::WatchdogResend,
                }
            );
            for t in &healthy {
                if !self.cpus[t.index()].csq.contains(&id) {
                    self.cpus[t.index()].csq.push_back(id);
                }
            }
            self.send_ipis_faulted(initiator, &healthy, Cycles::ZERO);
            let backoff = w
                .timeout_cycles
                .saturating_mul(1u64 << (resends + 1).min(6));
            let jitter = self.esc.jitter_rng.gen_range(JITTER_CYCLES + 1);
            self.engine.schedule_in(
                Cycles::new(backoff + jitter),
                Event::CsdWatchdog {
                    initiator,
                    id,
                    resends: resends + 1,
                    widened,
                },
            );
        } else {
            // Degrade: conservative full flush + forced ack per laggard.
            self.stats.counters.bump("csd_watchdog_degrade");
            self.stats.counters.bump("watchdog_escalations");
            trace_emit!(
                self,
                initiator,
                Some(id.0),
                TraceEvent::Perturb {
                    kind: PerturbKind::WatchdogDegrade,
                }
            );
            self.record_error(SimError::ShootdownStall {
                initiator,
                pending: healthy.clone(),
            });
            for t in healthy {
                self.note_stall(t);
                self.engine
                    .schedule_in(Cycles::ZERO, Event::ForcedFullFlush { core: t, id });
            }
        }
    }

    /// Degraded recovery on an unresponsive responder: flush the target
    /// mm's PCIDs wholesale (strictly stronger than the selective flush
    /// the lost IPI asked for), sync the generation bookkeeping, and
    /// acknowledge on the core's behalf.
    pub(crate) fn on_forced_flush(&mut self, core: CoreId, id: ShootdownId) {
        let Some(sd) = self.shootdowns.get(&id) else {
            return; // completed while the event was in flight
        };
        if !sd.pending_acks.contains(&core) {
            return; // acked (late IPI landed) while the event was in flight
        }
        let mm_id = sd.info.mm;
        self.stats.counters.bump("forced_full_flush");
        trace_emit!(
            self,
            core,
            Some(id.0),
            TraceEvent::FullFlush {
                user: self.cfg.safe_mode,
            }
        );
        if let Some(mm) = self.mms.get(&mm_id) {
            let pcid = mm.pcid;
            let cur_gen = mm.gen.current();
            self.flush_pcid_pair(core, pcid);
            let ts = &mut self.cpus[core.index()].tlb_state;
            if ts.loaded_mm == mm_id {
                // The TLB holds nothing for this mm any more; anything the
                // current generation covers is trivially flushed.
                ts.local_tlb_gen = ts.local_tlb_gen.max(cur_gen);
                // A pending deferred user flush for this mm is subsumed.
                if self.cfg.safe_mode {
                    ts.deferred_user.take();
                }
            } else {
                // Not loaded: the stale entries lived under the mm's own
                // PCID; record that they are gone so the next switch-in
                // does not flush again.
                self.cpus[core.index()].pcid_gens.insert(mm_id, cur_gen);
            }
        }
        // The lost IPI's queue entry (if any) is now moot; a later drain
        // of a stale id is tolerated by the IRQ handler, but dropping it
        // here keeps the queue honest.
        self.cpus[core.index()].csq.retain(|q| *q != id);
        trace_emit!(
            self,
            core,
            Some(id.0),
            TraceEvent::IpiAck {
                kind: AckKind::Forced,
                by: core,
            }
        );
        self.record_ack(id, core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_defaults_are_sane() {
        let w = WatchdogConfig::default();
        assert!(w.enabled);
        assert!(w.timeout_cycles >= 100_000);
        assert!(w.max_resends >= 1);
        assert!(JITTER_CYCLES < w.timeout_cycles, "jitter stays a tweak");
        const { assert!(QUARANTINE_AFTER >= 1, "one stall must never quarantine") };
        assert!(w.probation_acks >= 1);
    }

    #[test]
    fn storm_detector_defaults_off() {
        let w = WatchdogConfig::default();
        assert!(!w.storm_detector, "opt-in: benign configs must not widen");
        const {
            assert!(STORM_MAX_WIDENS >= 1 && STORM_WIDEN_FACTOR >= 1);
            assert!(STORM_EWMA_SHIFT >= 1 && STORM_EWMA_SHIFT < 32);
        }
    }

    #[test]
    fn escalation_state_boots_cold() {
        let e = Escalation::new(4, 0x99);
        assert_eq!(e.streak, vec![0; 4]);
        assert_eq!(e.quarantined, vec![false; 4]);
        assert_eq!(e.ewma_gap, vec![u64::MAX; 4]);
        assert_eq!(e.last_arrival, vec![0; 4]);
    }

    #[test]
    fn chaos_default_is_inert() {
        let c = ChaosConfig::default();
        assert!(c.fault.is_inert());
        assert!(c.watchdog.enabled);
    }

    #[test]
    fn with_fault_builder() {
        let c = ChaosConfig::with_fault(FaultSpec::ipi_drop(), 42);
        assert!(!c.fault.is_inert());
        assert_eq!(c.fault_seed, 42);
    }
}
