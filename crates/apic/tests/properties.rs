//! Property tests for the x2APIC fabric and local-APIC queuing.

use proptest::prelude::*;
use tlbdown_apic::{DeliveryOutcome, IpiFabric, LocalApic, Vector};
use tlbdown_types::{CoreId, CostModel, Topology};

fn arb_targets() -> impl Strategy<Value = Vec<CoreId>> {
    proptest::collection::btree_set(0u32..56, 1..40)
        .prop_map(|s| s.into_iter().map(CoreId).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every target receives exactly one delivery, batches never exceed
    /// the cluster size, and the number of ICR writes equals the number
    /// of distinct clusters touched.
    #[test]
    fn multicast_covers_targets_exactly_once(targets in arb_targets(), from in 0u32..56) {
        let topo = Topology::paper_machine();
        let mut f = IpiFabric::new(topo.clone(), CostModel::default());
        let from = CoreId(from);
        let plan = f.multicast_plan(from, &targets);
        let mut delivered: Vec<CoreId> = plan.deliveries.iter().map(|d| d.target).collect();
        delivered.sort();
        let mut expect = targets.clone();
        expect.sort();
        prop_assert_eq!(delivered, expect, "each target exactly once");
        let clusters: std::collections::BTreeSet<u32> =
            targets.iter().map(|t| topo.cluster_of(*t)).collect();
        prop_assert_eq!(plan.batches as usize, clusters.len());
        // Initiator busy time is one ICR write per batch.
        prop_assert_eq!(plan.initiator_busy, CostModel::default().ipi_send * plan.batches);
    }

    /// Arrival times are monotone in batch order and never precede the
    /// ICR write that launched them.
    #[test]
    fn deliveries_follow_their_icr_write(targets in arb_targets(), from in 0u32..56) {
        let topo = Topology::paper_machine();
        let mut f = IpiFabric::new(topo.clone(), CostModel::default());
        let from = CoreId(from);
        let plan = f.multicast_plan(from, &targets);
        let c = CostModel::default();
        for d in &plan.deliveries {
            let wire = c.ipi_latency(topo.distance(from, d.target));
            // The batch's ICR write completed at arrives_in - wire ≥ one send.
            prop_assert!(d.arrives_in >= c.ipi_send + wire);
            prop_assert!(d.arrives_in <= plan.initiator_busy + wire);
        }
    }

    /// The local APIC neither loses nor duplicates maskable vectors, no
    /// matter how mask/unmask/EOI interleave.
    #[test]
    fn local_apic_conserves_vectors(script in proptest::collection::vec(0u8..4, 1..60)) {
        let mut apic = LocalApic::new();
        let mut sent = 0u32;
        let mut dispatched = 0u32;
        for step in script {
            match step {
                0 => {
                    sent += 1;
                    if apic.accept(Vector::CallFunction) == DeliveryOutcome::Dispatch {
                        dispatched += 1;
                    }
                }
                1 => apic.mask(),
                2 => {
                    if apic.unmask().is_some() {
                        dispatched += 1;
                    }
                }
                _ => {
                    if apic.in_service() && apic.end_of_interrupt().is_some() {
                        dispatched += 1;
                    }
                }
            }
            prop_assert!(dispatched <= sent);
        }
        // Drain: after unmasking and EOI-ing everything, every sent vector
        // was dispatched exactly once.
        if apic.unmask().is_some() {
            dispatched += 1;
        }
        while apic.in_service() {
            if apic.end_of_interrupt().is_some() {
                dispatched += 1;
            }
        }
        prop_assert_eq!(dispatched, sent, "vectors conserved");
        prop_assert_eq!(apic.pending_count(), 0);
    }
}
