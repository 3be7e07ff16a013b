//! End-to-end tests of the bounded model checker: clean sweeps over the
//! correct protocols, detection + shrinking + replay of a seeded bug.

use tlbdown_check::{explore, replay_twice, run_schedule, scenario, shrink, Bounds, Schedule};
use tlbdown_core::OptConfig;

#[test]
fn all_opt_levels_explore_clean() {
    // Systematic exploration of the dueling-madvise scenario must find no
    // safety or liveness violation at any cumulative optimization level.
    let bounds = Bounds::default().with_max_schedules(150);
    for (level, _, _) in OptConfig::all_levels() {
        let report = explore::explore(&|| scenario::dueling_madvise_at(level), &bounds);
        assert!(
            report.all_safe(),
            "level {level} violated: {:?}",
            report.counterexample
        );
        assert!(
            report.stats.schedules > 1,
            "level {level}: exploration found no branch points at all"
        );
    }
}

#[test]
fn replay_is_byte_identical() {
    // Any schedule — not just counterexamples — must re-execute
    // identically from a fresh machine.
    let bounds = Bounds::default();
    let build = || scenario::dueling_madvise(OptConfig::all());
    for choices in [vec![], vec![1], vec![0, 0, 1, 0, 1]] {
        let sched = Schedule::new(choices);
        let rep = replay_twice(&build, &bounds, &sched).expect("replay must not diverge");
        assert!(!rep.violated(), "correct protocol violated under {sched}");
    }
}

#[test]
fn explorer_respects_preemption_bound() {
    let bounds = Bounds::default()
        .with_max_schedules(200)
        .with_preemptions(1);
    let build = || scenario::dueling_madvise(OptConfig::general_four());
    let report = explore::explore(&build, &bounds);
    assert!(report.all_safe());
    // With a bound of 1 the explorer may only flip single choices, so it
    // must have skipped some deeper alternatives.
    assert!(report.stats.schedules <= bounds.max_schedules);
}

#[test]
fn digest_pruning_cuts_redundant_work() {
    let build = || scenario::dueling_madvise(OptConfig::baseline());
    let pruned = explore::explore(&build, &Bounds::default().with_max_schedules(300));
    let mut no_prune = Bounds::default().with_max_schedules(300);
    no_prune.prune = false;
    let full = explore::explore(&build, &no_prune);
    assert!(pruned.all_safe() && full.all_safe());
    assert!(
        pruned.stats.schedules <= full.stats.schedules,
        "pruning must not increase work: {} vs {}",
        pruned.stats.schedules,
        full.stats.schedules
    );
    assert!(
        pruned.stats.pruned_digest > 0,
        "expected some digest hits: {:?}",
        pruned.stats
    );
    // With pruning off nothing reads a digest, so none is computed.
    assert_eq!(full.stats.digests, 0, "{:?}", full.stats);
}

#[test]
fn seeded_nmi_bug_is_caught_shrunk_and_replayed() {
    // The §3.2 demo: with the nmi_uaccess_okay extension omitted, the
    // explorer must find an interleaving where the probe reads a stale
    // entry; the FIFO schedule itself is safe (the bug is
    // schedule-dependent); the counterexample shrinks to a handful of
    // choices and replays byte-identically.
    let bounds = Bounds::default();
    let buggy = || scenario::nmi_probe_demo(true);

    let fifo = run_schedule(&buggy, &bounds, &[]);
    assert!(
        !fifo.violated(),
        "demo must not fail under FIFO — the bug is schedule-dependent"
    );

    let report = explore::explore(&buggy, &bounds);
    let cex = report
        .counterexample
        .expect("explorer must catch the seeded early-ack NMI bug");
    assert!(!cex.liveness, "expected a safety (oracle) violation");
    assert!(
        cex.violations.iter().any(|v| v.to_string().contains("nmi")),
        "violation should implicate the NMI probe: {:?}",
        cex.violations
    );

    // Shrink to the essential choices.
    let minimized = shrink(&buggy, &bounds, &cex.schedule, 2_000);
    assert!(
        minimized.schedule.len() <= 20,
        "shrunk schedule too long: {}",
        minimized.schedule
    );
    assert!(minimized.schedule.preemptions() >= 1);

    // The artifact round-trips and replays byte-identically, still
    // exhibiting the violation.
    let parsed = Schedule::parse(&minimized.schedule.serialize()).unwrap();
    let rep = replay_twice(&buggy, &bounds, &parsed).expect("replay must not diverge");
    assert!(rep.violated(), "minimized schedule must still violate");

    // And the correct check survives the same exploration untouched.
    let correct = || scenario::nmi_probe_demo(false);
    let safe_report = explore::explore(&correct, &bounds);
    assert!(
        safe_report.all_safe(),
        "the §3.2 extension must be schedule-independent: {:?}",
        safe_report.counterexample
    );
    // Including under the exact minimized schedule that broke the buggy
    // variant.
    assert!(!run_schedule(&correct, &bounds, &parsed.choices).violated());
}

#[test]
fn nmi_injection_scan_over_inflight_shootdown() {
    // Deterministic (FIFO) scan of NMI injection times across the whole
    // shootdown lifetime: before the IPI, during the responder's IRQ,
    // inside the early-ack window, after the flush. The §3.2-extended
    // check must be safe at every single time; the buggy variant must
    // trip the oracle at at least one, and some safe run must actually
    // deny a probe (proving the scan really lands NMIs inside the
    // early-ack window rather than missing the shootdown entirely).
    let bounds = Bounds::default();
    let mut buggy_hits = 0;
    let mut denied_seen = false;
    for t in (13_000..20_000).step_by(250) {
        let safe = run_schedule(&|| scenario::nmi_probe(false, t), &bounds, &[]);
        assert!(
            !safe.violated(),
            "correct check violated under FIFO at inject_at={t}: {:?}",
            safe.violations
        );
        denied_seen |= safe.stats_render().contains("counter nmi_uaccess_denied");
        let buggy = run_schedule(&|| scenario::nmi_probe(true, t), &bounds, &[]);
        if buggy.violated() {
            buggy_hits += 1;
        }
    }
    assert!(
        buggy_hits > 0,
        "no injection time hit the early-ack window under FIFO"
    );
    assert!(
        denied_seen,
        "the extended check never actually denied a probe — scan missed the window"
    );
}

#[test]
fn exploration_results_are_pinned() {
    // Every `ExploreStats` field of four explorations of the duel, pinned
    // so a change to how runs execute or digest cannot move what the
    // search finds. Columns: schedules, branch points, max depth,
    // distinct states, digest-pruned, preemption-pruned, depth-pruned,
    // budget exhausted.
    let cases: [(u8, bool, [u64; 7], bool); 4] = [
        (0, true, [300, 7_599, 32, 463, 71, 218, 0], true),
        (6, true, [300, 9_649, 41, 406, 76, 151, 0], true),
        (8, true, [300, 15_665, 65, 335, 104, 89, 0], true),
        (0, false, [300, 7_650, 30, 0, 0, 372, 0], true),
    ];
    for (level, prune, want, exhausted) in cases {
        let mut bounds = Bounds::default().with_max_schedules(300);
        bounds.prune = prune;
        let report = explore::explore(&|| scenario::dueling_madvise_at(level), &bounds);
        assert!(report.all_safe(), "L{level}: {:?}", report.counterexample);
        let st = &report.stats;
        let got = [
            st.schedules,
            st.branch_points,
            st.max_branch_depth as u64,
            st.distinct_states as u64,
            st.pruned_digest,
            st.pruned_preemption,
            st.pruned_depth,
        ];
        assert_eq!(got, want, "L{level} prune={prune}: {st:?}");
        assert_eq!(st.budget_exhausted, exhausted, "L{level} prune={prune}");
    }
}

#[test]
fn clean_exploration_digests_only_what_its_walks_read() {
    // Each run digests the branch points its walk reads and stops at the
    // first repeat, so every digest either admits a new state or ends one
    // walk as digest-pruned.
    for level in [0u8, 6, 8] {
        for budget in [20, 300, 2_000] {
            let bounds = Bounds::default().with_max_schedules(budget);
            let report = explore::explore(&|| scenario::dueling_madvise_at(level), &bounds);
            assert!(report.all_safe(), "L{level}: {:?}", report.counterexample);
            let st = &report.stats;
            assert_eq!(
                st.digests,
                st.distinct_states as u64 + st.pruned_digest,
                "L{level} budget {budget}: {st:?}"
            );
        }
    }
}
