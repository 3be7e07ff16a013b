//! The uneven fleet rerun: the fleet runner on the sweep pool at
//! several widths.
//!
//! The fleet's node phase queues one job per machine on the sweep
//! pool, and machine sims are *not* uniform — a crashing machine
//! reboots (two full kernel boots), a slow machine runs a degraded
//! clock, a healthy machine just serves — so which worker runs which
//! machine, and in what order they finish, varies from run to run.
//! These tests rerun that phase at several pool widths (including more
//! workers than machines) and require the canonical fleet document to
//! stay byte-identical: the pool may move jobs between workers, never
//! change what they compute or the order they reduce in.

use tlbdown_fleet::{replay_fleet, run_fleet, FleetCfg, FleetFaultSpec};
use tlbdown_sim::FaultSpec;

/// A cell with real machine-level churn: crashes and slow machines
/// under IPI drops, so the per-machine job costs are deliberately
/// uneven.
fn churn_cell(machines: u32) -> FleetCfg {
    FleetCfg::quick(
        machines,
        FleetFaultSpec::combined().with_ipi(FaultSpec::ipi_drop()),
        0x57ea_1f1e,
    )
}

#[test]
fn fleet_document_is_byte_identical_across_pool_widths() {
    let cfg = churn_cell(12);
    // 1 = one worker drains the queue in order, 3 = workers race for
    // the queue head, 8 = more workers than unevenly-sized job classes.
    let serial = replay_fleet(&cfg, 1, 3).expect("fleet replays clean at 1 vs 3 threads");
    let wide = replay_fleet(&cfg, 8, 1).expect("fleet replays clean at 8 vs 1 threads");
    assert_eq!(serial, wide, "pool width leaked into the fleet document");
}

#[test]
fn oversubscribed_pool_still_reduces_canonically() {
    // More workers than machines: the pool clamps its width to the job
    // count, so the machines spread as thinly as the pool allows.
    let cfg = churn_cell(6);
    let narrow = run_fleet(&cfg, 2).expect("narrow run clean").sim_json();
    let over = run_fleet(&cfg, 16)
        .expect("oversubscribed run clean")
        .sim_json();
    assert_eq!(narrow.render(), over.render());
}

#[test]
fn survival_verdicts_match_the_serial_run() {
    let cfg = churn_cell(10);
    let a = run_fleet(&cfg, 1).expect("serial run clean");
    let b = run_fleet(&cfg, 4).expect("pooled run clean");
    assert_eq!(a.fully_accounted, b.fully_accounted);
    assert_eq!(a.zero_violations, b.zero_violations);
    assert_eq!(
        a.crashed_recovered_or_ejected,
        b.crashed_recovered_or_ejected
    );
    assert_eq!(a.crashed, b.crashed);
    assert_eq!(a.sim_json().render(), b.sim_json().render());
}
