//! Dev aid: scan NMI injection times to find where FIFO is safe but the
//! explorer can perturb the schedule into a violation.

use tlbdown_check::{explore, run_schedule, scenario, Bounds};

fn main() {
    let bounds = Bounds::default().with_max_schedules(400);
    for inject_at in (10_000..26_000).step_by(500) {
        let build = move || scenario::nmi_probe(true, inject_at);
        let fifo = run_schedule(&build, &[]);
        let report = explore::explore(&build, &bounds);
        let safe_build = move || scenario::nmi_probe(false, inject_at);
        let safe_report = explore::explore(&safe_build, &bounds);
        println!(
            "inject_at={inject_at} fifo_viol={} fifo_steps={} explored={} caught={} \
             safe_explored={} safe_caught={} branches={}",
            fifo.violated(),
            fifo.steps,
            report.stats.schedules,
            report
                .counterexample
                .as_ref()
                .map(|c| c.schedule.serialize())
                .unwrap_or_default(),
            safe_report.stats.schedules,
            !safe_report.all_safe(),
            report.stats.max_branch_depth,
        );
    }
}
