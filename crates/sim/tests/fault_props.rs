//! Property tests for [`FaultSpec`] composition.
//!
//! `merge` is the algebra the whole chaos matrix rests on: presets are
//! composed with it (`combined()`), the fleet layer stacks machine-level
//! plans on IPI-level specs with it, and the storm gate's cells assume
//! composing specs never *weakens* either side. Fieldwise max gives that
//! a clean lattice-join structure — commutative, associative, idempotent,
//! with `none()` as the identity — which these properties pin across
//! randomly generated specs, not just the handful of named presets.

use proptest::prelude::*;
use tlbdown_sim::fault::FaultSpec;
use tlbdown_sim::SplitMix64;

/// Derive an arbitrary (but reproducible) spec from one seed: every
/// field drawn independently, with zeros common enough that identity
/// and inertness edge cases show up in the sample.
fn arb_spec(seed: u64) -> FaultSpec {
    let mut rng = SplitMix64::new(seed);
    let mut p = |scale: f64| {
        if rng.gen_range(4) == 0 {
            0.0
        } else {
            rng.next_f64() * scale
        }
    };
    let (ipi_delay_p, ipi_drop_p, ipi_duplicate_p) = (p(1.0), p(0.5), p(0.5));
    let (irq_entry_delay_p, cacheline_jitter_p) = (p(1.0), p(1.0));
    let mut m = |max: u64| rng.gen_range(max + 1);
    FaultSpec {
        ipi_delay_p,
        ipi_delay_max: m(50_000),
        ipi_drop_p,
        ipi_duplicate_p,
        irq_entry_delay_p,
        irq_entry_delay_max: m(80_000),
        cacheline_jitter_p,
        cacheline_jitter_max: m(8_000),
        slow_invlpg_cores: m(8) as u32,
        slow_invlpg_penalty: m(4_000),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// a ∨ b = b ∨ a.
    #[test]
    fn merge_is_commutative(sa in any::<u64>(), sb in any::<u64>()) {
        let (a, b) = (arb_spec(sa), arb_spec(sb));
        prop_assert_eq!(a.merge(&b), b.merge(&a));
    }

    /// (a ∨ b) ∨ c = a ∨ (b ∨ c).
    #[test]
    fn merge_is_associative(sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>()) {
        let (a, b, c) = (arb_spec(sa), arb_spec(sb), arb_spec(sc));
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    }

    /// a ∨ a = a.
    #[test]
    fn merge_is_idempotent(sa in any::<u64>()) {
        let a = arb_spec(sa);
        prop_assert_eq!(a.merge(&a), a);
    }

    /// none() is the identity on both sides.
    #[test]
    fn empty_spec_is_identity(sa in any::<u64>()) {
        let a = arb_spec(sa);
        prop_assert_eq!(a.merge(&FaultSpec::none()), a.clone());
        prop_assert_eq!(FaultSpec::none().merge(&a), a);
    }

    /// Merging never weakens either side: every field of a ∨ b is at
    /// least the corresponding field of a (and, by commutativity, of b).
    #[test]
    fn merge_dominates_both_operands(sa in any::<u64>(), sb in any::<u64>()) {
        let (a, b) = (arb_spec(sa), arb_spec(sb));
        let m = a.merge(&b);
        for x in [&a, &b] {
            prop_assert!(m.ipi_delay_p >= x.ipi_delay_p);
            prop_assert!(m.ipi_delay_max >= x.ipi_delay_max);
            prop_assert!(m.ipi_drop_p >= x.ipi_drop_p);
            prop_assert!(m.ipi_duplicate_p >= x.ipi_duplicate_p);
            prop_assert!(m.irq_entry_delay_p >= x.irq_entry_delay_p);
            prop_assert!(m.irq_entry_delay_max >= x.irq_entry_delay_max);
            prop_assert!(m.cacheline_jitter_p >= x.cacheline_jitter_p);
            prop_assert!(m.cacheline_jitter_max >= x.cacheline_jitter_max);
            prop_assert!(m.slow_invlpg_cores >= x.slow_invlpg_cores);
            prop_assert!(m.slow_invlpg_penalty >= x.slow_invlpg_penalty);
        }
        // And a merge with an inert spec can only be inert if the other
        // side already was.
        prop_assert_eq!(
            a.merge(&FaultSpec::none()).is_inert(),
            a.is_inert()
        );
    }
}

/// `combined()` is exactly the join of the three delivery presets — the
/// definition the property suite anchors back to the named constructors.
#[test]
fn combined_is_the_join_of_the_delivery_presets() {
    let c = FaultSpec::combined();
    let join = FaultSpec::ipi_duplicate()
        .merge(&FaultSpec::ipi_delay())
        .merge(&FaultSpec::ipi_drop());
    assert_eq!(c, join, "combined() must be order-insensitive");
}
