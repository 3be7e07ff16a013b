//! End-to-end tracing properties on real machines.
//!
//! The headline guarantee: per-phase attribution for **every** shootdown
//! sums exactly to its measured end-to-end latency, at every optimization
//! level. Plus the two determinism pillars — byte-identical exports
//! across replays, and a traced-versus-untraced guard proving tracing
//! never perturbs the simulation — and the identities the same runs' counters obey.

use tlbdown_check::scenario::{dueling_madvise, dueling_madvise_at};
use tlbdown_core::OptConfig;
use tlbdown_sweep::Json;
use tlbdown_trace::{analyze, to_chrome_json, validate_chrome};

#[test]
fn phase_attribution_sums_exactly_at_every_opt_level() {
    for (lvl, _, _) in OptConfig::all_levels() {
        let mut m = dueling_madvise_at(lvl);
        m.start_tracing(1 << 14);
        m.run();
        assert!(
            m.violations().is_empty(),
            "level {lvl}: {:?}",
            m.violations()
        );
        let trace = m.take_trace();
        assert_eq!(trace.dropped_total(), 0, "level {lvl} overflowed its rings");
        let a = analyze(&trace);
        assert_eq!(a.incomplete, 0, "level {lvl} left incomplete spans");
        assert!(!a.spans.is_empty(), "level {lvl} produced no shootdowns");
        let remote = a.spans.iter().filter(|s| !s.is_local_only()).count();
        assert!(remote > 0, "level {lvl} produced no remote shootdowns");
        for s in &a.spans {
            assert_eq!(
                s.phase_sum(),
                s.end_to_end(),
                "level {lvl} op {:#x}: phases must partition the span",
                s.op
            );
        }
    }
}

#[test]
fn duel_counters_obey_their_identities_at_every_opt_level() {
    // Pairs of counters that count the same events on the duel's FIFO
    // run: every shootdown completes, every IPI sent is dispatched as one
    // shootdown IRQ, every early ack is a shootdown's, and every
    // anonymous fill is a demand fault. From L6 on, each deferred flush
    // runs in a batch.
    for (lvl, _, _) in OptConfig::all_levels() {
        let mut m = dueling_madvise_at(lvl);
        m.run();
        let c = |name| m.stats.counters.get(name);
        let mut pairs = vec![
            ("shootdown", "shootdown_done"),
            ("ipis_sent", "shootdown_irq"),
            ("shootdown_irq", "irq_dispatch"),
            ("early_ack", "early_ack_shootdown"),
            ("anon", "demand_fault"),
        ];
        if lvl >= 6 {
            pairs.push(("flush_deferred", "batched_flushes"));
        }
        for (a, b) in pairs {
            assert_eq!(c(a), c(b), "level {lvl}: {a} != {b}");
        }
    }
}

#[test]
fn chrome_export_is_byte_identical_across_replays() {
    let render = || {
        let mut m = dueling_madvise(OptConfig::cumulative(6));
        m.start_tracing(1 << 14);
        m.run();
        to_chrome_json(&m.take_trace()).render()
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "same seed, same machine, same bytes");
    // The export survives the strict canonical parser unchanged and is
    // schema-valid Chrome trace_event JSON.
    let parsed = Json::parse(&a).expect("export parses");
    assert_eq!(parsed.render(), a, "byte round-trip through sweep::json");
    let n = validate_chrome(&parsed).expect("valid chrome trace");
    assert!(n > 0, "export contains events");
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let mut plain = dueling_madvise(OptConfig::cumulative(3));
    plain.run();
    let mut traced = dueling_madvise(OptConfig::cumulative(3));
    traced.start_tracing(1 << 14);
    traced.run();
    // Emission draws no RNG, charges no cost, schedules nothing: the
    // traced machine finishes at the same cycle with identical metrics.
    assert_eq!(plain.now(), traced.now());
    assert_eq!(
        plain.stats.counters.render_json(),
        traced.stats.counters.render_json()
    );
    assert!(!traced.take_trace().is_empty());
    // A machine that never enabled tracing captures nothing.
    assert!(plain.take_trace().is_empty());
}

#[test]
fn tiny_rings_drop_oldest_and_analysis_survives() {
    let mut m = dueling_madvise(OptConfig::cumulative(0));
    m.start_tracing(8);
    m.run();
    let trace = m.take_trace();
    assert!(trace.dropped_total() > 0, "8-record rings must overflow");
    // Truncation surfaces as incomplete spans (or none at all), never as
    // a panic or a mis-attributed phase sum.
    let a = analyze(&trace);
    for s in &a.spans {
        assert_eq!(s.phase_sum(), s.end_to_end());
    }
}
