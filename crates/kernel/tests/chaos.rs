//! Differential chaos harness: run the shootdown-heavy workloads under a
//! matrix of {optimization level} × {fault plan} and assert that
//!
//! 1. no safe configuration ever trips the oracle, no matter how the
//!    fabric misbehaves (delayed / duplicated / dropped IPIs, late IRQ
//!    entry, cacheline jitter, slow-INVLPG cores),
//! 2. the *semantic* final state (syscalls completed, pages demand-faulted,
//!    threads retired) matches a fault-free run of the same workload —
//!    faults may change the schedule, never the outcome,
//! 3. when the fabric eats IPIs outright, the csd-lock watchdog fires,
//!    retries, then degrades to the conservative full-flush path so the
//!    machine completes in bounded time instead of hanging, and
//! 4. the whole thing is deterministic: same chaos seed ⇒ identical run.

use std::collections::BTreeMap;

use tlbdown_core::OptConfig;
use tlbdown_kernel::chaos::{ChaosConfig, WatchdogConfig};
use tlbdown_kernel::prog::{BusyLoopProg, MadviseLoopProg};
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_sim::fault::FaultSpec;
use tlbdown_trace::{PerturbKind, TraceEvent};
use tlbdown_types::{CoreId, Cycles, SimError};

const ITERS: u64 = 6;
const SEED: u64 = 0x0dd5_eed5;

/// A watchdog tuned for test wall-clock: fires early, one retry.
fn test_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        enabled: true,
        timeout_cycles: 250_000,
        max_resends: 1,
        ..WatchdogConfig::default()
    }
}

fn boot_chaos(opts: OptConfig, safe: bool, fault: FaultSpec) -> Machine {
    let chaos = ChaosConfig {
        fault,
        fault_seed: SEED,
        watchdog: test_watchdog(),
    };
    // A reuse window smaller than the madvise working set: the elision
    // levels (L7/L8) then pay capacity-eviction debt flushes, keeping
    // real IPIs in flight for the fault plans to bite on. Inert below L7.
    Machine::new(
        KernelConfig::test_machine(4)
            .with_opts(opts)
            .with_safe_mode(safe)
            .with_chaos(chaos)
            .with_reuse_window_cap(4),
    )
}

/// Spawn the shared-mm stress workload: two madvise initiators, two busy
/// responders, one mm across all four cores.
fn spawn_workload(m: &mut Machine) {
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(8, ITERS)));
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg));
    m.spawn(mm, CoreId(2), Box::new(MadviseLoopProg::new(3, ITERS)));
    m.spawn(mm, CoreId(3), Box::new(BusyLoopProg));
}

/// The semantic outcome of a run: what happened, independent of when.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    madvise: u64,
    mmap: u64,
    demand_faults: u64,
    initiators_done: bool,
}

fn run_workload(m: &mut Machine) -> Outcome {
    spawn_workload(m);
    m.run_until(Cycles::new(80_000_000));
    Outcome {
        madvise: m.stats.counters.get("madvise_dontneed"),
        mmap: m.stats.counters.get("mmap_anon"),
        demand_faults: m.stats.counters.get("demand_fault"),
        // Threads 0 and 2 are the madvise loops; the busy loops never exit.
        initiators_done: m.threads[0].done && m.threads[2].done,
    }
}

#[test]
fn no_fault_plan_trips_the_oracle() {
    // Every optimization level × every fault preset: the protocols must
    // stay safe under adversarial timing, and the semantic outcome must
    // match the fault-free baseline of the same config.
    for (opts_name, opts) in [
        ("baseline", OptConfig::baseline()),
        ("general_four", OptConfig::general_four()),
        ("all", OptConfig::all()),
    ] {
        let baseline = {
            let mut m = boot_chaos(opts, true, FaultSpec::none());
            run_workload(&mut m)
        };
        assert!(
            baseline.initiators_done,
            "{opts_name}: fault-free run did not finish"
        );
        assert_eq!(baseline.madvise, 2 * ITERS, "{opts_name}: fault-free run");
        for (fault_name, fault) in FaultSpec::matrix() {
            let mut m = boot_chaos(opts, true, fault);
            let out = run_workload(&mut m);
            assert!(
                m.violations().is_empty(),
                "{opts_name} under {fault_name}: oracle violations {:?}",
                m.violations()
            );
            assert_eq!(
                out, baseline,
                "{opts_name} under {fault_name}: outcome diverged from fault-free baseline \
                 (counters: {:?})",
                m.stats.counters
            );
        }
    }
}

#[test]
fn unsafe_mode_survives_the_fault_matrix() {
    // PTI off: single PCID per mm, different flush paths — same guarantees.
    for (fault_name, fault) in FaultSpec::matrix() {
        let mut m = boot_chaos(OptConfig::all(), false, fault);
        let out = run_workload(&mut m);
        assert!(
            m.violations().is_empty(),
            "unsafe mode under {fault_name}: {:?}",
            m.violations()
        );
        assert!(out.initiators_done, "unsafe mode under {fault_name}: hung");
        assert_eq!(out.madvise, 2 * ITERS, "unsafe mode under {fault_name}");
    }
}

#[test]
fn dropped_ipis_fire_watchdog_and_recover() {
    // A lossy fabric (35% drop): some shootdowns stall past the timeout,
    // the watchdog retries, and every syscall still completes.
    let mut m = boot_chaos(OptConfig::baseline(), true, FaultSpec::ipi_drop());
    let out = run_workload(&mut m);
    assert!(
        m.stats.counters.get("chaos_ipi_dropped") > 0,
        "fault plan never dropped an IPI: {:?}",
        m.stats.counters
    );
    assert!(
        m.stats.counters.get("csd_watchdog_fired") > 0,
        "watchdog never fired despite dropped IPIs: {:?}",
        m.stats.counters
    );
    assert!(
        out.initiators_done,
        "initiators hung: {:?}",
        m.stats.counters
    );
    assert_eq!(out.madvise, 2 * ITERS);
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn total_ipi_loss_degrades_to_forced_full_flush() {
    // Drop *every* IPI: retries cannot help, so the watchdog must walk the
    // full escalation — fire, re-send (also lost), degrade to the
    // conservative flush-and-force-ack path — and the machine must still
    // finish with the flush guarantee intact (zero oracle violations).
    let fault = FaultSpec {
        ipi_drop_p: 1.0,
        ..FaultSpec::none()
    };
    let mut m = boot_chaos(OptConfig::baseline(), true, fault);
    let out = run_workload(&mut m);
    assert!(m.stats.counters.get("csd_watchdog_fired") > 0);
    assert!(
        m.stats.counters.get("csd_watchdog_degrade") > 0,
        "never degraded: {:?}",
        m.stats.counters
    );
    assert!(
        m.stats.counters.get("forced_full_flush") > 0,
        "no forced flush: {:?}",
        m.stats.counters
    );
    assert!(
        out.initiators_done,
        "watchdog failed to bound completion: {:?}",
        m.stats.counters
    );
    assert_eq!(out.madvise, 2 * ITERS);
    // The stall is diagnosed as a typed error, not an oracle violation.
    assert!(
        m.recorded_errors()
            .iter()
            .any(|e| matches!(e, SimError::ShootdownStall { .. })),
        "no ShootdownStall diagnostic: {:?}",
        m.recorded_errors()
    );
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}

#[test]
fn slow_but_healthy_responders_are_never_quarantined() {
    // The escalation ladder's false-positive guard: responders that enter
    // their handlers very late (every IRQ entry delayed, up to past the
    // watchdog timeout) but never lose an IPI must ride out the retry
    // rungs — the backoff gives them room to ack — and finish at every
    // optimization level with zero quarantine entries and zero degrades.
    let fault = FaultSpec {
        irq_entry_delay_p: 1.0,
        irq_entry_delay_max: 300_000, // > test_watchdog timeout (250k)
        ..FaultSpec::none()
    };
    for (level, _, opts) in OptConfig::all_levels() {
        let baseline = {
            let mut m = boot_chaos(opts, true, FaultSpec::none());
            run_workload(&mut m)
        };
        let mut m = boot_chaos(opts, true, fault.clone());
        m.start_tracing(1 << 12);
        let out = run_workload(&mut m);
        let delayed = m
            .take_trace()
            .records
            .iter()
            .filter(|r| {
                r.ev == TraceEvent::Perturb {
                    kind: PerturbKind::IrqEntryDelay,
                }
            })
            .count();
        assert!(
            delayed > 0,
            "level {level}: the fault plan never delayed an entry"
        );
        assert_eq!(
            m.stats.counters.get("quarantine_entries"),
            0,
            "level {level}: a slow-but-healthy responder was quarantined: {:?}",
            m.stats.counters
        );
        assert_eq!(
            m.stats.counters.get("csd_watchdog_degrade"),
            0,
            "level {level}: the ladder degraded on a merely-slow responder: {:?}",
            m.stats.counters
        );
        assert!(
            !m.recorded_errors()
                .iter()
                .any(|e| matches!(e, SimError::ResponderQuarantined { .. })),
            "level {level}: quarantine diagnostic recorded: {:?}",
            m.recorded_errors()
        );
        assert!(m.violations().is_empty(), "level {level}");
        assert_eq!(
            out, baseline,
            "level {level}: slow entries changed the semantic outcome"
        );
    }
}

#[test]
fn watchdog_disabled_hangs_on_total_ipi_loss() {
    // Negative control: with the watchdog off, a fully lossy fabric leaves
    // the first cross-core shootdown spinning forever — proof that the
    // liveness in the test above comes from the watchdog, not luck.
    let fault = FaultSpec {
        ipi_drop_p: 1.0,
        ..FaultSpec::none()
    };
    let chaos = ChaosConfig {
        fault,
        fault_seed: SEED,
        watchdog: WatchdogConfig {
            enabled: false,
            ..test_watchdog()
        },
    };
    let mut m = Machine::new(
        KernelConfig::test_machine(4)
            .with_opts(OptConfig::baseline())
            .with_safe_mode(true)
            .with_chaos(chaos),
    );
    let out = run_workload(&mut m);
    assert!(
        !out.initiators_done,
        "machine should hang without the watchdog: {:?}",
        m.stats.counters
    );
    assert!(out.madvise < 2 * ITERS);
}

#[test]
fn watchdog_stall_attribution_stays_exact_in_real_traces() {
    // End-to-end span exactness under the escalation ladder: trace a run
    // whose fabric eats every IPI, so chains ride the watchdog to forced
    // acks. Every completed span must still partition exactly
    // (phase_sum == end_to_end), and for the forced spans the stall must
    // be attributed to the wait split (remote-flush / ack-wait), at
    // least one full watchdog timeout of it.
    use tlbdown_trace::span::{analyze, Phase};
    use tlbdown_trace::AckKind;
    let fault = FaultSpec {
        ipi_drop_p: 1.0,
        ..FaultSpec::none()
    };
    let mut m = boot_chaos(OptConfig::baseline(), true, fault);
    m.start_tracing(1 << 16);
    let out = run_workload(&mut m);
    assert!(out.initiators_done);
    let trace = m.take_trace();
    let a = analyze(&trace);
    assert!(!a.spans.is_empty(), "no spans reconstructed");
    let mut forced_spans = 0u64;
    for sp in &a.spans {
        assert_eq!(
            sp.phase_sum(),
            sp.end_to_end(),
            "span {:x} lost cycles in attribution",
            sp.op
        );
        if sp.acks.iter().any(|(_, _, k)| *k == AckKind::Forced) {
            forced_spans += 1;
            // The watchdog arms at Prep, so the wait split holds the
            // timeout minus the initiator's own pre-wait work.
            let pre_wait = sp.phases[Phase::Setup.idx()] + sp.phases[Phase::IpiInFlight.idx()];
            let wait = sp.phases[Phase::RemoteFlush.idx()] + sp.phases[Phase::AckWait.idx()];
            assert!(
                wait + pre_wait >= test_watchdog().timeout_cycles,
                "span {:x}: forced chain shows {wait} wait + {pre_wait} pre-wait \
                 cycles but a full timeout ({}) elapsed before the forced ack",
                sp.op,
                test_watchdog().timeout_cycles
            );
        }
    }
    assert!(
        forced_spans > 0,
        "total IPI loss should force-ack at least one traced span"
    );
}

#[test]
fn same_chaos_seed_replays_identically() {
    // Determinism end-to-end: identical seed ⇒ identical counters, final
    // time, and diagnostics, even under the kitchen-sink fault plan.
    let run = || {
        let mut m = boot_chaos(OptConfig::general_four(), true, FaultSpec::everything());
        spawn_workload(&mut m);
        m.run_until(Cycles::new(80_000_000));
        let counters: BTreeMap<&'static str, u64> = m.stats.counters.iter().collect();
        (
            counters,
            m.now(),
            m.violations().len(),
            m.recorded_errors().len(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same chaos seed must replay byte-for-byte");
}

#[test]
fn different_chaos_seeds_diverge() {
    // The seed actually steers the plan: a different seed yields a
    // different fault schedule (observable in the chaos counters).
    let chaos_counts = |seed: u64| {
        let chaos = ChaosConfig {
            fault: FaultSpec::everything(),
            fault_seed: seed,
            watchdog: test_watchdog(),
        };
        let mut m = Machine::new(
            KernelConfig::test_machine(4)
                .with_opts(OptConfig::baseline())
                .with_safe_mode(true)
                .with_chaos(chaos),
        );
        spawn_workload(&mut m);
        m.run_until(Cycles::new(80_000_000));
        let c: BTreeMap<&'static str, u64> = m
            .stats
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("chaos_") || k.starts_with("csd_"))
            .collect();
        (c, m.now())
    };
    assert_ne!(
        chaos_counts(1),
        chaos_counts(2),
        "different seeds should produce different fault schedules"
    );
}

#[test]
fn duplicate_ipi_vector_is_idempotent_at_every_opt_level() {
    // The shootdown vector delivered twice (fabric re-delivery) must be
    // idempotent at every cumulative optimization level: the second
    // delivery finds either a drained CSQ (spurious IRQ) or a stale CSQ
    // entry, and in neither case may it double-ack, shrink another item's
    // early-ack window, or leave call-single-queue state behind.
    for (level, _, opts) in OptConfig::all_levels() {
        let baseline = {
            let mut m = boot_chaos(opts, true, FaultSpec::none());
            run_workload(&mut m)
        };
        let mut m = boot_chaos(opts, true, FaultSpec::ipi_duplicate());
        let out = run_workload(&mut m);
        assert!(
            m.stats.counters.get("chaos_ipi_duplicated") > 0,
            "level {level}: the fault plan never duplicated an IPI"
        );
        assert!(
            m.violations().is_empty(),
            "level {level}: duplicated vectors tripped the oracle: {:?}",
            m.violations()
        );
        assert_eq!(
            out, baseline,
            "level {level}: duplicated vectors changed the semantic outcome"
        );
        for c in &m.cpus {
            assert!(
                c.csq.is_empty(),
                "level {level}: CSQ entry leaked on {:?}",
                c.id
            );
            assert_eq!(
                c.acked_unflushed, 0,
                "level {level}: early-ack window leaked on {:?}",
                c.id
            );
        }
        assert!(
            m.shootdowns.is_empty(),
            "level {level}: shootdowns left in flight: {:?}",
            m.shootdowns.keys()
        );
    }
}
