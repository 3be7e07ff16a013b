//! Interconnect routing for the simulated machine.
//!
//! The original cost model charges every cross-core cacheline transfer and
//! IPI a *distance-constant* fee (same core / same socket / cross socket).
//! That hides two phenomena the paper's 2×56 tier should be able to show:
//! on-die routing distance (a transfer between neighbouring cores is not
//! the same as one across the die) and link congestion (a shootdown storm
//! funnelling through the socket link queues behind itself).
//!
//! This crate models both while keeping the repo's determinism contract:
//!
//! - [`TopologySpec`] selects the interconnect shape. [`TopologySpec::Flat`]
//!   is the pinned reference: it delegates to the distance-constant
//!   [`CostModel`] selectors, touches no link state and contributes nothing
//!   to the machine digest, so flat runs stay **byte-identical** to the
//!   pre-routing simulator (`engine_determinism.rs` pins an explicit
//!   `Flat` against the default at every optimization level).
//! - [`TopologySpec::Ring`] arranges physical cores on a ring;
//!   [`TopologySpec::Mesh`] on a near-square 2D grid with XY
//!   (dimension-ordered) routing. Both charge per-hop link costs plus a
//!   one-time socket-crossing penalty.
//! - Each traversed link carries an M/D/1-style occupancy counter: a
//!   message drains some backlog, waits behind what remains (capped), and
//!   deposits its own service time. The queueing delay is a deterministic
//!   function of the traversal order — no clocks, no randomness — so runs
//!   replay byte-identically at any thread count, and the link state is
//!   digestible into machine state.
//!
//! The static (uncongested) route cost is a true metric over physical
//! cores — symmetric and triangle-inequality-respecting, because ring
//! distance and Manhattan distance are metrics and the socket-crossing
//! indicator is a discrete metric; the property tests pin this down.

use std::collections::BTreeMap;

use tlbdown_types::{CoreId, CostModel, Cycles, Topology};

// Link costs of the ring and the mesh, calibrated so a mid-distance
// route lands near the flat constants (DESIGN.md §18): divergence comes
// from routing distance and congestion, not from a wholesale re-pricing
// of communication.

/// Cycles per hop for a cacheline transfer.
const CACHELINE_HOP: u64 = 28;
/// Cycles per hop for an IPI.
const IPI_HOP: u64 = 110;
/// One-time extra cycles when a cacheline route crosses sockets.
const SOCKET_PENALTY_CACHELINE: u64 = 200;
/// One-time extra cycles when an IPI route crosses sockets.
const SOCKET_PENALTY_IPI: u64 = 600;
/// Occupancy (cycles of service) a message deposits on each link it
/// traverses — the "D" of the M/D/1-style model.
const SERVICE: u64 = 24;
/// Occupancy drained from a link between consecutive traversals, the
/// deterministic stand-in for elapsed time. `DRAIN < SERVICE` means a
/// saturated link builds backlog.
const DRAIN: u64 = 16;
/// Upper bound on the queueing delay charged per link per message.
const QUEUE_CAP: u64 = 4096;

/// The interconnect shape of the simulated machine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TopologySpec {
    /// Distance-constant costs — the byte-identical reference model.
    #[default]
    Flat,
    /// Physical cores on a ring; routes take the shorter arc.
    Ring,
    /// Physical cores on a near-square 2D grid with XY routing.
    Mesh,
}

impl TopologySpec {
    /// Short label for tables and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            TopologySpec::Flat => "flat",
            TopologySpec::Ring => "ring",
            TopologySpec::Mesh => "mesh",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "flat" => Some(TopologySpec::Flat),
            "ring" => Some(TopologySpec::Ring),
            "mesh" => Some(TopologySpec::Mesh),
            _ => None,
        }
    }

    /// Whether this is the flat reference model.
    pub(crate) fn is_flat(&self) -> bool {
        matches!(self, TopologySpec::Flat)
    }
}

/// A routed interconnect instance with per-link congestion state.
///
/// The coherence directory and the IPI fabric each own one — they are
/// separate virtual channels of the NoC, so coherence traffic and IPI
/// traffic queue independently.
#[derive(Clone, Debug)]
pub struct Interconnect {
    spec: TopologySpec,
    topo: Topology,
    /// Occupancy per link, keyed by `(min_node, max_node)` of the edge.
    /// A `BTreeMap` so digest folding iterates in a canonical order.
    links: BTreeMap<(u32, u32), u64>,
}

impl Interconnect {
    /// Build an interconnect of the given shape over `topo`'s cores.
    pub fn new(topo: Topology, spec: TopologySpec) -> Self {
        Interconnect {
            spec,
            topo,
            links: BTreeMap::new(),
        }
    }

    /// Whether this is the flat (byte-identical reference) model.
    pub fn is_flat(&self) -> bool {
        self.spec.is_flat()
    }

    /// Grid width for the mesh layout: the smallest near-square that
    /// covers every physical core.
    fn mesh_width(&self) -> u32 {
        let phys = self.phys_count();
        let mut w = 1u32;
        while w * w < phys {
            w += 1;
        }
        w
    }

    fn phys_count(&self) -> u32 {
        self.topo.num_cores() / self.topo.smt_ways()
    }

    /// The routed path between two physical nodes, edge by edge, each as
    /// `(min_node, max_node)`. Empty when `a == b` and under flat, which
    /// has no links. Walked in place: routing a transfer allocates
    /// nothing once the link map holds its edges.
    fn path(&self, a: u32, b: u32) -> impl Iterator<Item = (u32, u32)> {
        let (ring, n) = (matches!(self.spec, TopologySpec::Ring), self.phys_count());
        let w = if ring { 0 } else { self.mesh_width() };
        // The ring takes the shorter arc (clockwise on a tie); the mesh
        // routes XY: the X dimension first, then Y.
        let clockwise = ring && {
            let fwd = (b + n - a) % n;
            fwd <= n - fwd
        };
        let next = move |cur: u32| {
            if ring {
                if clockwise {
                    (cur + 1) % n
                } else {
                    (cur + n - 1) % n
                }
            } else {
                let (x, y, bx) = (cur % w, cur / w, b % w);
                if x != bx {
                    if bx > x {
                        cur + 1
                    } else {
                        cur - 1
                    }
                } else if b / w > y {
                    cur + w
                } else {
                    cur - w
                }
            }
        };
        let mut cur = if self.spec.is_flat() { b } else { a };
        std::iter::from_fn(move || {
            if cur == b {
                return None;
            }
            let to = next(cur);
            let edge = (cur.min(to), cur.max(to));
            cur = to;
            Some(edge)
        })
    }

    /// Number of links a transfer between `a` and `b` traverses: the
    /// length of its routed path (the shorter ring arc, or the Manhattan
    /// distance on the mesh), computed without building the path.
    /// Flat reports 1 — one logical hop per transfer, which keeps the
    /// per-hop jitter stream byte-identical to the historical
    /// one-draw-per-transfer behaviour.
    pub fn hops(&self, a: CoreId, b: CoreId) -> u64 {
        if self.spec.is_flat() {
            return 1;
        }
        let (pa, pb) = (self.topo.physical_of(a), self.topo.physical_of(b));
        let hops = if matches!(self.spec, TopologySpec::Ring) {
            let n = self.phys_count();
            let fwd = (pb + n - pa) % n;
            fwd.min(n - fwd)
        } else {
            let w = self.mesh_width();
            (pa % w).abs_diff(pb % w) + (pa / w).abs_diff(pb / w)
        };
        u64::from(hops)
    }

    /// Hop count to use for per-hop jitter: at least one draw per
    /// transfer, so local transfers still jitter like a single hop.
    pub fn jitter_hops(&self, a: CoreId, b: CoreId) -> u64 {
        self.hops(a, b).max(1)
    }

    /// The static (uncongested) routing cost between two cores, as a pure
    /// metric over physical nodes: zero for SMT siblings, per-hop cost
    /// times path length plus the socket-crossing penalty otherwise.
    /// Returns `None` under flat (no routing metric exists).
    pub fn static_cost(&self, a: CoreId, b: CoreId, ipi: bool) -> Option<u64> {
        if self.spec.is_flat() {
            return None;
        }
        let (hop, penalty) = if ipi {
            (IPI_HOP, SOCKET_PENALTY_IPI)
        } else {
            (CACHELINE_HOP, SOCKET_PENALTY_CACHELINE)
        };
        let hops = self.hops(a, b);
        let cross = self.topo.socket_of(a) != self.topo.socket_of(b);
        Some(hops * hop + if cross { penalty } else { 0 })
    }

    /// Route one message, mutating per-link congestion state, and return
    /// the total delay (static cost + queueing). Not used under flat.
    fn route(&mut self, from: CoreId, to: CoreId, hop_cost: u64, penalty: u64) -> u64 {
        let (pa, pb) = (self.topo.physical_of(from), self.topo.physical_of(to));
        if pa == pb || self.spec.is_flat() {
            return 0;
        }
        let mut total = 0;
        if self.topo.socket_of(from) != self.topo.socket_of(to) {
            total += penalty;
        }
        for e in self.path(pa, pb) {
            let q = self.links.entry(e).or_insert(0);
            *q = q.saturating_sub(DRAIN);
            let wait = (*q).min(QUEUE_CAP);
            *q += SERVICE;
            total += hop_cost + wait;
        }
        total
    }

    /// Cost of moving one cacheline from `from` to `to`. Flat delegates to
    /// the distance-constant selector; ring/mesh route per hop with
    /// congestion. SMT siblings pay the local fee in every topology.
    pub fn cacheline_transfer(&mut self, costs: &CostModel, from: CoreId, to: CoreId) -> Cycles {
        let d = self.topo.distance(from, to);
        if self.spec.is_flat() {
            return costs.cacheline(d);
        }
        if self.topo.physical_of(from) == self.topo.physical_of(to) {
            return costs.cacheline_local;
        }
        Cycles::new(self.route(from, to, CACHELINE_HOP, SOCKET_PENALTY_CACHELINE))
    }

    /// Wire latency of an IPI from `from` to `to`. Flat delegates to the
    /// distance-constant selector; ring/mesh route per hop with congestion.
    pub fn ipi_transfer(&mut self, costs: &CostModel, from: CoreId, to: CoreId) -> Cycles {
        let d = self.topo.distance(from, to);
        if self.spec.is_flat() {
            return costs.ipi_latency(d);
        }
        if self.topo.physical_of(from) == self.topo.physical_of(to) {
            return costs.ipi_latency(tlbdown_types::Distance::SameCore);
        }
        Cycles::new(self.route(from, to, IPI_HOP, SOCKET_PENALTY_IPI))
    }

    /// Canonical iteration over live link occupancies, for digest folding.
    /// Empty under flat, so flat machine digests are unchanged.
    pub fn digest_items(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.links.iter().map(|(&(a, b), &q)| (a, b, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper(spec: TopologySpec) -> Interconnect {
        Interconnect::new(Topology::paper_machine(), spec)
    }

    #[test]
    fn flat_delegates_to_cost_model() {
        let mut ic = paper(TopologySpec::Flat);
        let c = CostModel::default();
        assert_eq!(
            ic.cacheline_transfer(&c, CoreId(0), CoreId(30)),
            c.cacheline_cross_socket
        );
        assert_eq!(
            ic.ipi_transfer(&c, CoreId(0), CoreId(5)),
            c.ipi_deliver_same_socket
        );
        assert_eq!(ic.hops(CoreId(0), CoreId(30)), 1, "flat is one hop");
        assert_eq!(ic.digest_items().count(), 0, "flat has no link state");
    }

    #[test]
    fn ring_distance_scales_with_separation() {
        let mut ic = paper(TopologySpec::Ring);
        let c = CostModel::default();
        // Physical neighbours (logical cores 2,3 are phys 1; 4,5 phys 2).
        let near = ic.cacheline_transfer(&c, CoreId(2), CoreId(4));
        let far = ic.cacheline_transfer(&c, CoreId(2), CoreId(26));
        assert!(far > near, "{far:?} !> {near:?}");
        assert_eq!(ic.hops(CoreId(2), CoreId(4)), 1);
        // SMT siblings never touch the ring.
        assert_eq!(
            ic.cacheline_transfer(&c, CoreId(2), CoreId(3)),
            c.cacheline_local
        );
        assert_eq!(ic.hops(CoreId(2), CoreId(3)), 0);
    }

    #[test]
    fn ring_takes_the_shorter_arc() {
        let ic = paper(TopologySpec::Ring);
        // 28 physical cores: phys 0 → phys 27 is one hop backwards.
        assert_eq!(ic.hops(CoreId(0), CoreId(54)), 1);
        // phys 0 → phys 14 is the diameter.
        assert_eq!(ic.hops(CoreId(0), CoreId(28)), 14);
    }

    #[test]
    fn mesh_routes_xy() {
        let ic = paper(TopologySpec::Mesh);
        // 28 phys cores → 6-wide grid. phys 0 at (0,0), phys 8 at (2,1):
        // 2 X hops + 1 Y hop.
        assert_eq!(ic.hops(CoreId(0), CoreId(16)), 3);
    }

    #[test]
    fn hops_count_the_routed_path() {
        // Every pair of logical cores, SMT siblings included, on an odd
        // ring and on a mesh whose last row is not full.
        for topo in [Topology::new(2, 10).with_smt(2), Topology::new(1, 7)] {
            for spec in [TopologySpec::Ring, TopologySpec::Mesh] {
                let ic = Interconnect::new(topo.clone(), spec.clone());
                for a in (0..topo.num_cores()).map(CoreId) {
                    for b in (0..topo.num_cores()).map(CoreId) {
                        let path = ic.path(topo.physical_of(a), topo.physical_of(b));
                        assert_eq!(ic.hops(a, b), path.count() as u64, "{spec:?} {a:?} {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn cross_socket_pays_the_penalty_once() {
        let ic = paper(TopologySpec::Ring);
        let same = ic.static_cost(CoreId(0), CoreId(4), false).unwrap();
        assert_eq!(same, ic.hops(CoreId(0), CoreId(4)) * CACHELINE_HOP);
        let cross = ic.static_cost(CoreId(0), CoreId(54), false).unwrap();
        assert_eq!(
            cross,
            ic.hops(CoreId(0), CoreId(54)) * CACHELINE_HOP + SOCKET_PENALTY_CACHELINE
        );
    }

    #[test]
    fn congestion_builds_and_drains_deterministically() {
        let c = CostModel::default();
        let mut ic = paper(TopologySpec::Mesh);
        // Hammer one route: queueing delay must be monotonically
        // non-decreasing while the link saturates (service > drain).
        let first = ic.cacheline_transfer(&c, CoreId(0), CoreId(28));
        let mut prev = first;
        for _ in 0..50 {
            let next = ic.cacheline_transfer(&c, CoreId(0), CoreId(28));
            assert!(next >= prev);
            prev = next;
        }
        assert!(prev > first, "saturated link never queued");
        let flat_fee = ic.static_cost(CoreId(0), CoreId(28), false).unwrap();
        assert_eq!(
            first.as_u64(),
            flat_fee,
            "an idle route charges no queueing"
        );
        // Replay from scratch is byte-identical.
        let mut ic2 = paper(TopologySpec::Mesh);
        let again = ic2.cacheline_transfer(&c, CoreId(0), CoreId(28));
        assert_eq!(first, again);
    }

    #[test]
    fn digest_items_are_sorted_and_reflect_traffic() {
        let c = CostModel::default();
        let mut ic = paper(TopologySpec::Ring);
        ic.ipi_transfer(&c, CoreId(0), CoreId(8));
        let items: Vec<_> = ic.digest_items().collect();
        assert!(!items.is_empty());
        let mut sorted = items.clone();
        sorted.sort();
        assert_eq!(items, sorted, "canonical order for digest folding");
    }

    #[test]
    fn parse_labels_round_trip() {
        for s in ["flat", "ring", "mesh"] {
            assert_eq!(TopologySpec::parse(s).unwrap().label(), s);
        }
        assert!(TopologySpec::parse("torus").is_none());
    }

    // The satellite property tests: the static route cost is a metric.
    proptest! {
        #[test]
        fn mesh_static_cost_is_symmetric(a in 0u32..56, b in 0u32..56) {
            let ic = paper(TopologySpec::Mesh);
            prop_assert_eq!(
                ic.static_cost(CoreId(a), CoreId(b), false),
                ic.static_cost(CoreId(b), CoreId(a), false)
            );
            prop_assert_eq!(ic.hops(CoreId(a), CoreId(b)), ic.hops(CoreId(b), CoreId(a)));
        }

        #[test]
        fn mesh_static_cost_respects_triangle_inequality(
            a in 0u32..56, b in 0u32..56, c in 0u32..56
        ) {
            let ic = paper(TopologySpec::Mesh);
            for ipi in [false, true] {
                let ab = ic.static_cost(CoreId(a), CoreId(b), ipi).unwrap();
                let bc = ic.static_cost(CoreId(b), CoreId(c), ipi).unwrap();
                let ac = ic.static_cost(CoreId(a), CoreId(c), ipi).unwrap();
                prop_assert!(ac <= ab + bc, "d({a},{c})={ac} > d({a},{b})+d({b},{c})={}", ab + bc);
            }
        }

        #[test]
        fn ring_static_cost_is_a_metric_too(
            a in 0u32..56, b in 0u32..56, c in 0u32..56
        ) {
            let ic = paper(TopologySpec::Ring);
            let ab = ic.static_cost(CoreId(a), CoreId(b), false).unwrap();
            let ba = ic.static_cost(CoreId(b), CoreId(a), false).unwrap();
            prop_assert_eq!(ab, ba);
            let bc = ic.static_cost(CoreId(b), CoreId(c), false).unwrap();
            let ac = ic.static_cost(CoreId(a), CoreId(c), false).unwrap();
            prop_assert!(ac <= ab + bc);
        }
    }
}
