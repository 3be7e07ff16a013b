//! Systematic schedule exploration: find a schedule-dependent §3.2 bug.
//!
//! ```text
//! cargo run --release --example explore_races
//! ```
//!
//! The demo seeds the early-ack NMI hazard: `buggy_nmi_check` omits the
//! `nmi_uaccess_okay` pending-flush extension, so an NMI probing user
//! memory between a responder's early acknowledgement and its flush can
//! read a stale TLB entry. Under the default FIFO schedule the injected
//! NMI lands *after* the flush and nothing goes wrong — the bug is
//! invisible to every seed-based run. The explorer perturbs interrupt
//! arrival timing within a bounded window, finds the violating
//! interleaving, shrinks it to the essential branch choices, and proves
//! the artifact replays byte-identically. The same exploration over the
//! correct protocol finds nothing.

use tlbdown::check::{explore, replay_twice, run_schedule, scenario, shrink, Bounds};

fn main() {
    let bounds = Bounds::default();
    println!(
        "bounds: {} schedules max, preemption bound {}, window {} cycles\n",
        bounds.max_schedules,
        bounds.preemption_bound,
        explore::WINDOW.as_u64()
    );

    // 1. The FIFO schedule is safe even with the check broken.
    let buggy = || scenario::nmi_probe_demo(true);
    let fifo = run_schedule(&buggy, &[]);
    println!(
        "FIFO schedule, buggy nmi check:   {} ({} events)",
        if fifo.violated() { "VIOLATION" } else { "safe" },
        fifo.steps
    );
    assert!(!fifo.violated(), "demo bug must be schedule-dependent");

    // 2. Exploration finds the race.
    let report = explore::explore(&buggy, &bounds);
    let cex = report
        .counterexample
        .expect("the explorer should catch the seeded bug");
    println!(
        "exploration, buggy nmi check:     VIOLATION after {} schedules ({} branch points seen)",
        report.stats.schedules, report.stats.branch_points
    );
    println!("  schedule:  {}", cex.schedule);
    for v in &cex.violations {
        println!("  oracle:    {v}");
    }

    // 3. Shrink to the choices that matter.
    let minimized = shrink(&buggy, &cex.schedule, 2_000);
    println!(
        "shrunk:    {} ({} choices, {} perturbations, {} trials)",
        minimized.schedule,
        minimized.schedule.len(),
        minimized.schedule.preemptions(),
        minimized.stats.trials
    );

    // 4. The artifact replays byte-identically.
    let rep = replay_twice(&buggy, &bounds, &minimized.schedule).expect("replay diverged");
    assert!(rep.violated());
    println!("replay:    byte-identical, still violating\n");

    // 5. The correct protocol survives the same exploration.
    let correct = || scenario::nmi_probe_demo(false);
    let safe_report = explore::explore(&correct, &bounds);
    assert!(safe_report.all_safe());
    println!(
        "exploration, correct nmi check:   safe across {} schedules ({} distinct states)",
        safe_report.stats.schedules, safe_report.stats.distinct_states
    );
    // The exact minimized schedule that broke the buggy variant is
    // harmless with the §3.2 extension in place.
    let same = run_schedule(&correct, &minimized.schedule.choices);
    assert!(!same.violated());
    println!("minimized schedule vs correct check: safe");
}
