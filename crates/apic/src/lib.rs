//! An x2APIC model: multicast IPIs in cluster mode, per-core interrupt
//! queuing, and NMIs.
//!
//! The paper stresses (§2.3.2) that modern x2APICs in cluster mode make
//! shootdown IPIs far cheaper than older systems: one multicast IPI reaches
//! up to 16 logical CPUs of one cluster, so a shootdown to many cores costs
//! a handful of APIC writes rather than one IPI per core — several thousand
//! cycles instead of RadixVM's ≈500,000. This crate reproduces exactly that
//! structure:
//!
//! - [`IpiFabric::multicast_plan`] splits a target set into per-cluster
//!   batches (via [`Topology::cluster_batches`]) and computes, for each
//!   target, when the IPI arrives — the initiator pays one `ipi_send` per
//!   batch, serially, and the wire latency depends on socket distance.
//! - [`LocalApic`] queues vectors that arrive while the core has interrupts
//!   masked and releases them on unmask. NMIs bypass masking (§3.2's
//!   early-ack hazard analysis depends on this).

use std::collections::VecDeque;

use tlbdown_topo::{Interconnect, TopologySpec};
use tlbdown_types::{CoreId, CostModel, Cycles, Topology};

/// Interrupt vectors used by the simulated kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Vector {
    /// TLB shootdown / remote function call (Linux's CALL_FUNCTION vector).
    CallFunction,
    /// Scheduler reschedule request.
    Reschedule,
    /// Non-maskable interrupt (delivered even while masked).
    Nmi,
}

impl Vector {
    /// Whether delivery ignores the interrupt mask.
    pub fn is_nmi(self) -> bool {
        matches!(self, Vector::Nmi)
    }
}

/// One planned IPI delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedDelivery {
    /// The destination core.
    pub target: CoreId,
    /// Offset from "now" at which the IPI reaches the target's local APIC.
    pub arrives_in: Cycles,
}

/// The result of planning a (possibly multicast) IPI.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IpiPlan {
    /// When each target receives the interrupt, relative to now.
    pub deliveries: Vec<PlannedDelivery>,
    /// How long the *initiator* is busy issuing the APIC writes (one ICR
    /// write per cluster batch, serialized).
    pub initiator_busy: Cycles,
    /// Number of multicast batches (== ICR writes) used.
    pub batches: u64,
}

/// The interconnect between local APICs.
#[derive(Clone, Debug)]
pub struct IpiFabric {
    topo: Topology,
    costs: CostModel,
    /// Routed interconnect for IPI wire latency. Under
    /// [`TopologySpec::Flat`] it delegates to the distance-constant costs
    /// and carries no state, so flat runs stay byte-identical. A separate
    /// instance from the coherence directory's: IPIs and cacheline
    /// transfers ride different NoC virtual channels and queue
    /// independently.
    interconnect: Interconnect,
}

impl IpiFabric {
    /// Create a fabric for the given machine (flat interconnect).
    pub fn new(topo: Topology, costs: CostModel) -> Self {
        Self::with_interconnect(topo, costs, TopologySpec::Flat)
    }

    /// Create a fabric routing IPIs over `spec`.
    pub fn with_interconnect(topo: Topology, costs: CostModel, spec: TopologySpec) -> Self {
        IpiFabric {
            interconnect: Interconnect::new(topo.clone(), spec),
            topo,
            costs,
        }
    }

    /// The interconnect carrying IPI traffic.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Plan a shootdown multicast from `from` to `targets`.
    ///
    /// Targets are grouped into x2APIC cluster batches. The initiator
    /// issues one ICR write per batch (each costing `ipi_send`); a batch's
    /// IPIs depart once its ICR write completes and arrive after a
    /// distance-dependent wire latency.
    pub fn multicast_plan(&mut self, from: CoreId, targets: &[CoreId]) -> IpiPlan {
        let batches = self.topo.cluster_batches(targets);
        let mut deliveries = Vec::with_capacity(targets.len());
        let mut busy = Cycles::ZERO;
        let n_batches = batches.len() as u64;
        for batch in batches {
            busy += self.costs.ipi_send;
            for target in batch {
                let wire = self.interconnect.ipi_transfer(&self.costs, from, target);
                deliveries.push(PlannedDelivery {
                    target,
                    arrives_in: busy + wire,
                });
            }
        }
        IpiPlan {
            deliveries,
            initiator_busy: busy,
            batches: n_batches,
        }
    }

    /// Plan an NMI (single target, bypasses masking at the receiver).
    pub fn nmi_plan(&mut self, from: CoreId, target: CoreId) -> PlannedDelivery {
        let wire = self.interconnect.ipi_transfer(&self.costs, from, target);
        PlannedDelivery {
            target,
            arrives_in: self.costs.ipi_send + wire,
        }
    }
}

/// What the local APIC did with an arriving vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The core should dispatch the handler now.
    Dispatch,
    /// Interrupts are masked; the vector is queued until unmask.
    Queued,
}

/// Per-core interrupt reception state.
///
/// The paper notes (§2.2) that "if the remote cores have interrupts
/// disabled ... the latency to handle and acknowledge the IPI may be even
/// higher" — this queue is where that latency comes from.
#[derive(Clone, Debug, Default)]
pub struct LocalApic {
    masked: bool,
    pending: VecDeque<Vector>,
    in_service: bool,
}

impl LocalApic {
    /// Create an unmasked local APIC.
    pub fn new() -> Self {
        LocalApic::default()
    }

    /// Whether an interrupt handler is currently running.
    pub fn in_service(&self) -> bool {
        self.in_service
    }

    /// Number of queued (undelivered) vectors.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// An interrupt arrives from the fabric.
    pub fn accept(&mut self, v: Vector) -> DeliveryOutcome {
        if v.is_nmi() {
            return DeliveryOutcome::Dispatch;
        }
        if self.masked || self.in_service {
            self.pending.push_back(v);
            DeliveryOutcome::Queued
        } else {
            self.in_service = true;
            DeliveryOutcome::Dispatch
        }
    }

    /// Mask maskable interrupts (cli).
    pub fn mask(&mut self) {
        self.masked = true;
    }

    /// Unmask interrupts (sti); returns the next queued vector to dispatch,
    /// if any (the caller re-calls after each handler completes).
    pub fn unmask(&mut self) -> Option<Vector> {
        self.masked = false;
        self.try_dispatch_pending()
    }

    /// Handler completed (iret); returns the next queued vector, if any.
    pub fn end_of_interrupt(&mut self) -> Option<Vector> {
        self.in_service = false;
        self.try_dispatch_pending()
    }

    fn try_dispatch_pending(&mut self) -> Option<Vector> {
        if self.masked || self.in_service {
            return None;
        }
        let v = self.pending.pop_front()?;
        self.in_service = true;
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> IpiFabric {
        IpiFabric::new(Topology::paper_machine(), CostModel::default())
    }

    #[test]
    fn unicast_same_socket_latency() {
        let mut f = fabric();
        let plan = f.multicast_plan(CoreId(0), &[CoreId(5)]);
        let c = CostModel::default();
        assert_eq!(plan.batches, 1);
        assert_eq!(plan.initiator_busy, c.ipi_send);
        assert_eq!(
            plan.deliveries[0].arrives_in,
            c.ipi_send + c.ipi_deliver_same_socket
        );
    }

    #[test]
    fn cross_socket_costs_more() {
        let mut f = fabric();
        let near = f.multicast_plan(CoreId(0), &[CoreId(5)]).deliveries[0].arrives_in;
        let far = f.multicast_plan(CoreId(0), &[CoreId(40)]).deliveries[0].arrives_in;
        assert!(far > near);
    }

    #[test]
    fn multicast_batches_by_cluster() {
        let mut f = fabric();
        // Cores 1..=14 are in cluster 0; 16..=20 in cluster 1; 30 in socket 1.
        let targets: Vec<CoreId> = (1..=14).chain(16..=20).chain([30]).map(CoreId).collect();
        let plan = f.multicast_plan(CoreId(0), &targets);
        assert_eq!(plan.batches, 3);
        assert_eq!(plan.deliveries.len(), targets.len());
        let c = CostModel::default();
        assert_eq!(plan.initiator_busy, c.ipi_send * 3);
        // First-batch targets depart after one ICR write; later batches later.
        let t1 = plan
            .deliveries
            .iter()
            .find(|d| d.target == CoreId(1))
            .unwrap();
        let t16 = plan
            .deliveries
            .iter()
            .find(|d| d.target == CoreId(16))
            .unwrap();
        assert!(t16.arrives_in > t1.arrives_in);
    }

    #[test]
    fn one_cluster_means_one_icr_write_regardless_of_targets() {
        let mut f = fabric();
        let targets: Vec<CoreId> = (1..=15).map(CoreId).collect();
        let plan = f.multicast_plan(CoreId(0), &targets);
        assert_eq!(
            plan.batches, 1,
            "15 same-cluster targets need a single multicast"
        );
    }

    #[test]
    fn local_apic_dispatches_when_unmasked() {
        let mut a = LocalApic::new();
        assert_eq!(a.accept(Vector::CallFunction), DeliveryOutcome::Dispatch);
        assert!(a.in_service());
        // A second IPI queues behind the in-service one.
        assert_eq!(a.accept(Vector::CallFunction), DeliveryOutcome::Queued);
        assert_eq!(a.end_of_interrupt(), Some(Vector::CallFunction));
        assert_eq!(a.end_of_interrupt(), None);
    }

    #[test]
    fn masked_interrupts_queue_until_unmask() {
        let mut a = LocalApic::new();
        a.mask();
        assert_eq!(a.accept(Vector::CallFunction), DeliveryOutcome::Queued);
        assert_eq!(a.accept(Vector::Reschedule), DeliveryOutcome::Queued);
        assert_eq!(a.pending_count(), 2);
        assert_eq!(a.unmask(), Some(Vector::CallFunction));
        // Still in service: the second waits for EOI.
        assert_eq!(a.pending_count(), 1);
        assert_eq!(a.end_of_interrupt(), Some(Vector::Reschedule));
        assert_eq!(a.end_of_interrupt(), None);
        assert_eq!(a.pending_count(), 0);
    }

    #[test]
    fn routed_fabric_charges_per_hop_wire_latency() {
        let mut f = IpiFabric::with_interconnect(
            Topology::paper_machine(),
            CostModel::default(),
            TopologySpec::Mesh,
        );
        let near = f.multicast_plan(CoreId(0), &[CoreId(4)]).deliveries[0].arrives_in;
        let far = f.multicast_plan(CoreId(0), &[CoreId(54)]).deliveries[0].arrives_in;
        assert!(far > near);
        // A storm of cross-socket IPIs queues on the shared links.
        let mut last = Cycles::ZERO;
        for _ in 0..64 {
            last = f.multicast_plan(CoreId(0), &[CoreId(54)]).deliveries[0].arrives_in;
        }
        assert!(last > far, "link never congested");
    }

    #[test]
    fn nmi_bypasses_masking() {
        let mut a = LocalApic::new();
        a.mask();
        assert_eq!(a.accept(Vector::Nmi), DeliveryOutcome::Dispatch);
        let mut f = fabric();
        let d = f.nmi_plan(CoreId(0), CoreId(3));
        assert_eq!(d.target, CoreId(3));
        let c = CostModel::default();
        assert_eq!(d.arrives_in, c.ipi_send + c.ipi_deliver_same_socket);
    }
}
