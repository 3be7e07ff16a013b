//! A MESI-style coherence model for the kernel cachelines a TLB shootdown
//! touches.
//!
//! Cacheline consolidation (paper §3.3) is only observable through coherence
//! traffic: the baseline Linux layout bounces four-plus distinct cachelines
//! between initiator and responder (lazy-mode indication, on-stack flush
//! info, call-function data, call-single queue), while the consolidated
//! layout inlines the flush info into a single-cacheline CFD and colocates
//! the lazy bit with the queue head (Figure 4).
//!
//! This crate models exactly that: named cachelines with MESI state per
//! line, where every read or write returns the cycle cost of the implied
//! coherence transaction and updates transfer statistics. Only the kernel
//! structures the paper identifies as contended are modelled — application
//! data is not (DESIGN.md §8).

use tlbdown_topo::{Interconnect, TopologySpec};
use tlbdown_types::{CoreId, CostModel, Cycles, Distance, Topology};

/// Handle to one modelled 64-byte cacheline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId(u64);

/// Where a logical core sits: its physical core and its socket. The
/// directory ranks holders through a per-core table of these in place of
/// [`Topology::distance`], which asserts bounds and divides per call.
#[derive(Clone, Copy, Debug)]
struct Place {
    physical: u32,
    socket: u32,
}

impl Place {
    fn distance(self, other: Place) -> Distance {
        if self.physical == other.physical {
            Distance::SameCore
        } else if self.socket == other.socket {
            Distance::SameSocket
        } else {
            Distance::CrossSocket
        }
    }
}

/// Counters describing coherence traffic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lines transferred from another core on the same socket.
    pub same_socket_transfers: u64,
    /// Lines transferred across the interconnect.
    pub cross_socket_transfers: u64,
}

impl CacheStats {
    /// Total number of core-to-core line transfers.
    pub fn transfers(&self) -> u64 {
        self.same_socket_transfers + self.cross_socket_transfers
    }

    /// Count one transfer from a holder at distance `d` (a copy in the
    /// requester's own physical core moves no line).
    fn record_transfer(&mut self, d: Distance) {
        match d {
            Distance::SameCore => {}
            Distance::SameSocket => self.same_socket_transfers += 1,
            Distance::CrossSocket => self.cross_socket_transfers += 1,
        }
    }
}

/// The coherence directory for all modelled kernel cachelines.
#[derive(Clone, Debug)]
pub struct CacheDirectory {
    costs: CostModel,
    /// Routed interconnect for line transfers. Under [`TopologySpec::Flat`]
    /// it delegates to the distance-constant costs and carries no state, so
    /// flat runs are byte-identical to the pre-routing model.
    interconnect: Interconnect,
    /// Each line's holders in sharing order (the tie-break order), indexed
    /// by [`LineId`], which [`CacheDirectory::new_line`] hands out densely.
    /// No holder is Invalid, one is Exclusive (M or E), more are Shared
    /// (S). A write clears and refills the vector, so a line allocates only
    /// when its sharer set first outgrows it.
    lines: Vec<Vec<CoreId>>,
    /// Indexed by core.
    places: Vec<Place>,
    stats: CacheStats,
}

impl CacheDirectory {
    /// Create an empty directory for the given machine (flat interconnect).
    pub fn new(topo: Topology, costs: CostModel) -> Self {
        Self::with_interconnect(topo, costs, TopologySpec::Flat)
    }

    /// Create an empty directory routing transfers over `spec`.
    pub fn with_interconnect(topo: Topology, costs: CostModel, spec: TopologySpec) -> Self {
        let places = (0..topo.num_cores())
            .map(|c| Place {
                physical: topo.physical_of(CoreId(c)),
                socket: topo.socket_of(CoreId(c)),
            })
            .collect();
        CacheDirectory {
            interconnect: Interconnect::new(topo, spec),
            costs,
            lines: Vec::new(),
            places,
            stats: CacheStats::default(),
        }
    }

    /// The interconnect carrying coherence traffic.
    pub fn interconnect(&self) -> &Interconnect {
        &self.interconnect
    }

    /// Hop count a transfer to/from `core` and `other` would take (1 under
    /// flat) — the per-hop jitter multiplier.
    pub fn jitter_hops(&self, a: CoreId, b: CoreId) -> u64 {
        self.interconnect.jitter_hops(a, b)
    }

    /// Make room for `additional` more lines, so that registering them
    /// grows the line table once.
    pub fn reserve_lines(&mut self, additional: usize) {
        self.lines.reserve_exact(additional);
    }

    /// Register a new cacheline.
    pub fn new_line(&mut self) -> LineId {
        let id = LineId(self.lines.len() as u64);
        self.lines.push(Vec::new());
        id
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics (not line states).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The nearest current holder of the line to `core`, if any; ties
    /// break on the first holder in sharing order, deterministically.
    /// Flat ranks by distance class, the only thing that prices a flat
    /// transfer; routed topologies rank by hop count, so a line is fetched
    /// from the closest copy on the ring/mesh.
    fn nearest_holder(&self, core: CoreId, holders: &[CoreId]) -> Option<(CoreId, Distance)> {
        let here = self.places[core.index()];
        let ranked = holders
            .iter()
            .map(|&h| (h, here.distance(self.places[h.index()])));
        if self.interconnect.is_flat() {
            ranked.min_by_key(|&(_, d)| d)
        } else {
            ranked.min_by_key(|&(h, _)| self.interconnect.hops(core, h))
        }
    }

    /// Load the line on `core`; returns the coherence cost.
    pub fn read(&mut self, core: CoreId, line: LineId) -> Cycles {
        let idx = line.0 as usize;
        let holders = self.lines.get(idx).expect("unknown line");
        if holders.contains(&core) {
            return self.costs.cacheline(Distance::SameCore);
        }
        // Fetch from the nearest holder (an SMT sibling's copy in the
        // shared L1/L2 costs the local fee but still adds this requester
        // as a sharer); everyone downgrades to S.
        let nearest = self.nearest_holder(core, holders);
        self.lines[idx].push(core);
        let Some((holder, d)) = nearest else {
            // Memory fill: charge a same-socket transfer cost.
            return self.costs.cacheline(Distance::SameSocket);
        };
        // The interconnect routes the transfer: under flat this is exactly
        // the distance-constant fee.
        self.stats.record_transfer(d);
        self.interconnect
            .cacheline_transfer(&self.costs, holder, core)
    }

    /// Store to the line on `core` (read-for-ownership); returns the cost.
    pub fn write(&mut self, core: CoreId, line: LineId) -> Cycles {
        let holders = self.lines.get_mut(line.0 as usize).expect("unknown line");
        let here = self.places[core.index()];
        let cost = match holders.as_slice() {
            [] => self.costs.cacheline(Distance::SameSocket),
            [c] if *c == core => self.costs.cacheline(Distance::SameCore),
            others if self.interconnect.is_flat() => {
                // Invalidate all other holders and pay the farthest one's
                // acknowledgement, found at the first cross-socket holder.
                // The writer's own copy is at `SameCore`, the least.
                let mut worst = Distance::SameCore;
                for &h in others {
                    worst = worst.max(here.distance(self.places[h.index()]));
                    if worst == Distance::CrossSocket {
                        break;
                    }
                }
                self.stats.record_transfer(worst);
                self.costs.cacheline(worst)
            }
            others => {
                // Routed: one invalidation per other holder through the
                // interconnect, in sharing order (each queues on the links
                // it crosses); pay the slowest.
                let mut worst = Distance::SameCore;
                let mut cost = Cycles::ZERO;
                for &h in others.iter().filter(|&&h| h != core) {
                    worst = worst.max(here.distance(self.places[h.index()]));
                    let c = self.interconnect.cacheline_transfer(&self.costs, core, h);
                    cost = cost.max(c);
                }
                self.stats.record_transfer(worst);
                cost
            }
        };
        holders.clear();
        holders.push(core);
        cost
    }

    /// Whether `core` currently holds the line (any state).
    pub fn holds(&self, core: CoreId, line: LineId) -> bool {
        self.lines
            .get(line.0 as usize)
            .is_some_and(|h| h.contains(&core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> (CacheDirectory, LineId) {
        let mut d = CacheDirectory::new(Topology::paper_machine(), CostModel::default());
        let l = d.new_line();
        (d, l)
    }

    #[test]
    fn first_read_fills_from_memory() {
        let (mut d, l) = dir();
        let c = d.read(CoreId(0), l);
        assert_eq!(c, CostModel::default().cacheline_same_socket);
        assert_eq!(d.stats().transfers(), 0, "a memory fill is not a transfer");
        assert!(d.holds(CoreId(0), l));
    }

    #[test]
    fn repeated_reads_are_local() {
        let (mut d, l) = dir();
        d.read(CoreId(0), l);
        let c = d.read(CoreId(0), l);
        assert_eq!(c, CostModel::default().cacheline_local);
        assert_eq!(d.stats().transfers(), 0, "a local hit is not a transfer");
    }

    #[test]
    fn cross_core_read_transfers_and_shares() {
        let (mut d, l) = dir();
        d.write(CoreId(0), l);
        let c = d.read(CoreId(5), l); // same socket
        assert_eq!(c, CostModel::default().cacheline_same_socket);
        assert_eq!(d.stats().same_socket_transfers, 1);
        assert!(d.holds(CoreId(0), l) && d.holds(CoreId(5), l));
    }

    #[test]
    fn cross_socket_read_costs_more() {
        let (mut d, l) = dir();
        d.write(CoreId(0), l);
        let c = d.read(CoreId(30), l); // other socket
        assert_eq!(c, CostModel::default().cacheline_cross_socket);
        assert_eq!(d.stats().cross_socket_transfers, 1);
    }

    #[test]
    fn write_invalidates_sharers() {
        let (mut d, l) = dir();
        d.read(CoreId(0), l);
        d.read(CoreId(5), l);
        d.read(CoreId(30), l);
        let c = d.write(CoreId(0), l);
        // Worst-case holder is cross-socket.
        assert_eq!(c, CostModel::default().cacheline_cross_socket);
        assert!(d.holds(CoreId(0), l));
        assert!(!d.holds(CoreId(5), l));
        assert!(!d.holds(CoreId(30), l));
    }

    #[test]
    fn exclusive_write_is_local() {
        let (mut d, l) = dir();
        d.write(CoreId(3), l);
        let c = d.write(CoreId(3), l);
        assert_eq!(c, CostModel::default().cacheline_local);
    }

    #[test]
    fn read_prefers_nearest_holder() {
        let (mut d, l) = dir();
        d.read(CoreId(30), l); // cross-socket holder
        d.read(CoreId(1), l); // now shared with same-socket core 1
        d.reset_stats();
        let c = d.read(CoreId(2), l);
        assert_eq!(c, CostModel::default().cacheline_same_socket);
        assert_eq!(d.stats().cross_socket_transfers, 0);
    }

    #[test]
    fn per_line_transfer_accounting() {
        let (mut d, l) = dir();
        let l2 = d.new_line();
        d.write(CoreId(0), l);
        d.read(CoreId(2), l); // different physical core (1 is 0's SMT sibling)
        assert_eq!(d.stats().transfers(), 1);
        d.read(CoreId(2), l2);
        assert_eq!(d.stats().transfers(), 1, "memory fills are not transfers");
    }

    #[test]
    fn mesh_read_cost_scales_with_hops_and_congests() {
        let mut d = CacheDirectory::with_interconnect(
            Topology::paper_machine(),
            CostModel::default(),
            TopologySpec::Mesh,
        );
        let l = d.new_line();
        d.write(CoreId(4), l); // phys 2
        let near = d.read(CoreId(8), l); // phys 4: 2 hops away on the grid
        d.write(CoreId(4), l);
        let far = d.read(CoreId(54), l); // phys 27, other socket
        assert!(far > near, "{far:?} !> {near:?}");
        // Hammering one route builds queueing delay deterministically.
        let mut last = Cycles::ZERO;
        for _ in 0..64 {
            d.write(CoreId(4), l);
            last = d.read(CoreId(54), l);
        }
        assert!(last > far, "saturated route never queued");
    }

    #[test]
    fn routed_write_pays_the_slowest_invalidation() {
        let mut d = CacheDirectory::with_interconnect(
            Topology::paper_machine(),
            CostModel::default(),
            TopologySpec::Ring,
        );
        let l = d.new_line();
        d.read(CoreId(4), l);
        d.read(CoreId(8), l);
        d.read(CoreId(54), l);
        let cost = d.write(CoreId(4), l);
        // The cross-socket holder dominates: at least its static cost.
        let floor = d
            .interconnect()
            .static_cost(CoreId(4), CoreId(54), false)
            .unwrap();
        assert!(cost.as_u64() >= floor);
        for holder in [CoreId(8), CoreId(54)] {
            assert!(!d.holds(holder, l), "the write invalidated {holder:?}");
        }
    }

    #[test]
    fn flat_jitter_hops_is_one() {
        let (d, _) = dir();
        assert_eq!(d.jitter_hops(CoreId(0), CoreId(30)), 1);
    }

    #[test]
    fn ping_pong_counts_every_bounce() {
        let (mut d, l) = dir();
        for i in 0..10 {
            let core = if i % 2 == 0 { CoreId(0) } else { CoreId(30) };
            d.write(core, l);
        }
        // First write fills from memory, the other nine bounce cross-socket.
        assert_eq!(d.stats().cross_socket_transfers, 9);
    }
}
