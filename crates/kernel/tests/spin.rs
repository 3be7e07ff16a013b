//! `Machine::run_until` and `Machine::run_events` apply the dispatches
//! of every core busy-looping with the same period in closed form, up to
//! the next other pending event. Single `step()` calls are the
//! reference: at every deadline (or dispatch budget) of a seeded ladder,
//! a machine driven by the closed form must be indistinguishable from an
//! identical machine stepped one event at a time to the same point. The
//! spinners' pending resumes outlive a closed-form call in the engine's
//! lane, so a machine driven by every call in turn must match too.

use std::collections::BTreeMap;

use tlbdown_core::OptConfig;
use tlbdown_kernel::prog::{BusyLoopProg, MadviseLoopProg};
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_sim::{FifoScheduler, SplitMix64};
use tlbdown_types::{CoreId, Cycles, Topology};

/// The §5.1 shape on the paper machine: a jittered madvise initiator on
/// core 0 and busy-loop responders on `responders`, with kernel noise
/// on, tracing every record.
fn paper_machine(level: usize, responders: &[CoreId]) -> Machine {
    let mut cfg = KernelConfig {
        topo: Topology::paper_machine(),
        ..KernelConfig::paper_baseline()
    }
    .with_opts(OptConfig::cumulative(level));
    cfg.noise_cycles = 120;
    cfg.seed = 0x5eed ^ level as u64;
    let mut m = Machine::new(cfg);
    m.start_tracing(1 << 16);
    let mm = m.create_process().expect("boot: create process");
    let initiator = MadviseLoopProg::new(4, 6).with_jitter(SplitMix64::new(level as u64 + 1));
    m.spawn(mm, CoreId(0), Box::new(initiator));
    for &core in responders {
        m.spawn(mm, core, Box::new(BusyLoopProg));
    }
    m
}

/// Everything a run exposes: clock, dispatch count, state digest and its
/// components, counters, syscall and IRQ latency summaries (count and
/// mean) and the trace recorded since the last call.
fn observe(m: &mut Machine) -> String {
    let syscalls: BTreeMap<_, _> = m
        .stats
        .syscall_lat
        .iter()
        .map(|(k, s)| (*k, (s.count(), s.mean().to_bits())))
        .collect();
    let irqs: BTreeMap<_, _> = m
        .stats
        .irq_lat
        .iter()
        .map(|(k, s)| (*k, (s.count(), s.mean().to_bits())))
        .collect();
    format!(
        "now {:?}\nevents {}\ndigest {:#x}\ncomponents {:?}\ncounters {}\n\
         syscalls {syscalls:?}\nirqs {irqs:?}\ntrace {:?}",
        m.now(),
        m.events_processed(),
        m.state_digest(),
        m.digest_components(),
        m.stats.counters.render_json(),
        m.take_trace(),
    )
}

/// Drive `run_until` and single steps over the same seeded ladder of
/// deadlines, far past the initiator's exit, comparing after each one.
/// Returns how many deadlines were checked.
fn ladder(level: usize, responders: &[CoreId]) -> usize {
    ladder_to(level, responders, 1_500_000)
}

/// [`ladder`] up to `horizon` cycles.
fn ladder_to(level: usize, responders: &[CoreId], horizon: u64) -> usize {
    let mut closed = paper_machine(level, responders);
    let mut stepped = paper_machine(level, responders);
    let mut rng = SplitMix64::new(0x5ca1_ab1e ^ ((level as u64) << 8) ^ responders.len() as u64);
    let mut deadline = 0;
    let mut checked = 0;
    while deadline < horizon {
        // Mostly short hops, which land between, on and next to events;
        // now and then a long stretch of spinning.
        deadline += match rng.gen_range(8) {
            0 => rng.gen_range(60_000),
            1 => rng.gen_range(4),
            _ => rng.gen_range(1_500),
        };
        let d = Cycles::new(deadline);
        closed.run_until(d);
        while stepped.engine.next_at().is_some_and(|at| at <= d) {
            stepped.step();
        }
        let (want, got) = (observe(&mut stepped), observe(&mut closed));
        assert!(
            want == got,
            "L{level}, responders {responders:?}: run_until({deadline}) diverged from \
             single steps\n--- stepped ---\n{want}\n--- run_until ---\n{got}"
        );
        checked += 1;
    }
    assert_eq!(
        closed.stats.counters.get("thread_exit"),
        1,
        "the ladder runs past the initiator's exit"
    );
    checked
}

#[test]
fn run_until_matches_single_steps_at_every_deadline() {
    let mut checked = 0;
    for level in [0, 4, 6] {
        for responders in [&[CoreId(2)][..], &[CoreId(2), CoreId(28)]] {
            checked += ladder(level, responders);
        }
    }
    assert!(checked > 1_000, "only {checked} deadlines checked");
}

/// Every `stride`-th core other than the initiator's.
fn every(stride: u32) -> Vec<CoreId> {
    (1..56).filter(|c| c % stride == 0).map(CoreId).collect()
}

#[test]
fn run_until_matches_single_steps_with_many_responders() {
    // Groups of many members: every third core, then all 55 others. The
    // initiator exits by 420k cycles at every level.
    let mut checked = 0;
    for level in [0, 4, 6] {
        for responders in [every(3), every(1)] {
            checked += ladder_to(level, &responders, 500_000);
        }
    }
    assert!(checked > 500, "only {checked} deadlines checked");
}

/// Drive `run_events` and single steps over the same seeded ladder of
/// dispatch budgets, comparing after each one. Returns how many budgets
/// were checked.
fn event_ladder(level: usize, responders: &[CoreId]) -> usize {
    let mut closed = paper_machine(level, responders);
    let mut stepped = paper_machine(level, responders);
    let mut rng = SplitMix64::new(0xe7e7_ab1e ^ ((level as u64) << 8) ^ responders.len() as u64);
    let mut budget = 0;
    let mut checked = 0;
    while closed.stats.counters.get("thread_exit") == 0 || checked < 50 {
        // Mostly a few dispatches, which cut rounds of the busy loops;
        // now and then a long stretch.
        budget += match rng.gen_range(8) {
            0 => rng.gen_range(5_000),
            1 => rng.gen_range(3),
            _ => rng.gen_range(2 * responders.len() as u64 + 8),
        };
        closed.run_events(budget);
        while stepped.events_processed() < budget && stepped.step() {}
        let (want, got) = (observe(&mut stepped), observe(&mut closed));
        assert!(
            want == got,
            "L{level}, {} responders: run_events({budget}) diverged from single steps\n\
             --- stepped ---\n{want}\n--- run_events ---\n{got}",
            responders.len()
        );
        checked += 1;
    }
    checked
}

#[test]
fn run_events_matches_single_steps_at_every_budget() {
    let mut checked = 0;
    for level in [0, 4, 6] {
        for responders in [vec![CoreId(2)], every(3), every(1)] {
            checked += event_ladder(level, &responders);
        }
    }
    assert!(checked > 1_000, "only {checked} budgets checked");
}

#[test]
fn mixed_drivers_match_single_steps() {
    // One machine driven through a seeded mix of `run_until`,
    // `run_events`, `step()` and `step_with(FifoScheduler)` calls, so
    // each call starts from whatever the one before left in the lane;
    // its twin only steps.
    let mut calls = [0; 4];
    for level in [0, 6] {
        let responders = every(3);
        let mut mixed = paper_machine(level, &responders);
        let mut stepped = paper_machine(level, &responders);
        let mut rng = SplitMix64::new(0x313e_d00d ^ level as u64);
        while mixed.now() < Cycles::new(450_000) {
            let call = rng.gen_range(4) as usize;
            match call {
                0 => {
                    let d = mixed.now() + Cycles::new(rng.gen_range(4_000));
                    mixed.run_until(d);
                    while stepped.engine.next_at().is_some_and(|at| at <= d) {
                        stepped.step();
                    }
                }
                1 => {
                    let n = mixed.events_processed() + rng.gen_range(200);
                    mixed.run_events(n);
                    while stepped.events_processed() < n && stepped.step() {}
                }
                2 => {
                    mixed.step();
                    stepped.step();
                }
                _ => {
                    mixed.step_with(&mut FifoScheduler);
                    stepped.step();
                }
            }
            calls[call] += 1;
            let (want, got) = (observe(&mut stepped), observe(&mut mixed));
            assert!(
                want == got,
                "L{level}: call {} ({call}) diverged from single steps\n\
                 --- stepped ---\n{want}\n--- mixed ---\n{got}",
                calls.iter().sum::<usize>()
            );
        }
        assert_eq!(
            mixed.stats.counters.get("thread_exit"),
            1,
            "the mix runs past the initiator's exit"
        );
    }
    assert!(
        calls.iter().all(|&n| n > 100),
        "calls per driver: {calls:?}"
    );
}
