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
use tlbdown_types::{CoreId, CostModel, Cycles, Distance, FastMap, Topology};

/// Handle to one modelled 64-byte cacheline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId(u64);

/// MESI state of a line, from the perspective of the directory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
enum LineState {
    /// No core holds the line.
    #[default]
    Invalid,
    /// Exactly one core holds the line with write permission (M or E).
    Exclusive(CoreId),
    /// One or more cores hold read-only copies (S).
    Shared(Vec<CoreId>),
}

/// Counters describing coherence traffic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads that hit a copy the requesting core already held.
    pub local_hits: u64,
    /// Lines transferred from another core on the same socket.
    pub same_socket_transfers: u64,
    /// Lines transferred across the interconnect.
    pub cross_socket_transfers: u64,
    /// Read-for-ownership upgrades that invalidated remote copies.
    pub invalidations: u64,
    /// Fills satisfied from memory (no core held the line).
    pub memory_fills: u64,
}

impl CacheStats {
    /// Total number of core-to-core line transfers.
    pub fn transfers(&self) -> u64 {
        self.same_socket_transfers + self.cross_socket_transfers
    }
}

/// The coherence directory for all modelled kernel cachelines.
#[derive(Debug)]
pub struct CacheDirectory {
    topo: Topology,
    costs: CostModel,
    /// Routed interconnect for line transfers. Under [`TopologySpec::Flat`]
    /// it delegates to the distance-constant costs and carries no state, so
    /// flat runs are byte-identical to the pre-routing model.
    interconnect: Interconnect,
    lines: FastMap<LineId, LineState>,
    names: Vec<&'static str>,
    stats: CacheStats,
    /// Per-line transfer counts, for the Figure 4 ablation.
    per_line_transfers: FastMap<LineId, u64>,
}

impl CacheDirectory {
    /// Create an empty directory for the given machine (flat interconnect).
    pub fn new(topo: Topology, costs: CostModel) -> Self {
        Self::with_interconnect(topo, costs, TopologySpec::Flat)
    }

    /// Create an empty directory routing transfers over `spec`.
    pub fn with_interconnect(topo: Topology, costs: CostModel, spec: TopologySpec) -> Self {
        CacheDirectory {
            interconnect: Interconnect::new(topo.clone(), spec),
            topo,
            costs,
            lines: FastMap::default(),
            names: Vec::new(),
            stats: CacheStats::default(),
            per_line_transfers: FastMap::default(),
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

    /// Register a new cacheline with a diagnostic name.
    pub fn new_line(&mut self, name: &'static str) -> LineId {
        let id = LineId(self.names.len() as u64);
        self.names.push(name);
        self.lines.insert(id, LineState::Invalid);
        id
    }

    /// Diagnostic name of a line.
    pub fn name(&self, line: LineId) -> &'static str {
        self.names[line.0 as usize]
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Transfers recorded against one line.
    pub fn line_transfers(&self, line: LineId) -> u64 {
        self.per_line_transfers.get(&line).copied().unwrap_or(0)
    }

    /// Reset statistics (not line states).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.per_line_transfers.clear();
    }

    fn record_transfer(&mut self, line: LineId, d: Distance) {
        match d {
            Distance::SameCore => self.stats.local_hits += 1,
            Distance::SameSocket => {
                self.stats.same_socket_transfers += 1;
                *self.per_line_transfers.entry(line).or_insert(0) += 1;
            }
            Distance::CrossSocket => {
                self.stats.cross_socket_transfers += 1;
                *self.per_line_transfers.entry(line).or_insert(0) += 1;
            }
        }
    }

    /// The nearest current holder of the line to `core`, if any. Flat
    /// ranks by distance class (the historical rule); routed topologies
    /// rank by hop count, so a line is fetched from the closest copy on
    /// the ring/mesh (ties break on the first holder in sharing order,
    /// deterministically, in both modes).
    fn nearest_holder(&self, core: CoreId, state: &LineState) -> Option<(CoreId, Distance)> {
        let holders: Vec<CoreId> = match state {
            LineState::Invalid => return None,
            LineState::Exclusive(c) => vec![*c],
            LineState::Shared(s) => s.clone(),
        };
        if self.interconnect.is_flat() {
            holders
                .into_iter()
                .map(|h| (h, self.topo.distance(core, h)))
                .min_by_key(|(_, d)| match d {
                    Distance::SameCore => 0u8,
                    Distance::SameSocket => 1,
                    Distance::CrossSocket => 2,
                })
        } else {
            holders
                .into_iter()
                .map(|h| (h, self.topo.distance(core, h)))
                .min_by_key(|(h, _)| self.interconnect.hops(core, *h))
        }
    }

    /// Load the line on `core`; returns the coherence cost.
    pub fn read(&mut self, core: CoreId, line: LineId) -> Cycles {
        let state = self.lines.get(&line).expect("unknown line").clone();
        if self.holds(core, line) {
            self.record_transfer(line, Distance::SameCore);
            return self.costs.cacheline(Distance::SameCore);
        }
        match self.nearest_holder(core, &state) {
            Some((holder, d)) => {
                // Fetch from the nearest holder (an SMT sibling's copy in
                // the shared L1/L2 costs the local fee but still adds this
                // requester as a sharer); everyone downgrades to S. The
                // interconnect routes the transfer: under flat this is
                // exactly the distance-constant fee.
                let mut sharers = match state {
                    LineState::Exclusive(c) => vec![c],
                    LineState::Shared(s) => s,
                    LineState::Invalid => unreachable!(),
                };
                sharers.push(core);
                self.lines.insert(line, LineState::Shared(sharers));
                self.record_transfer(line, d);
                self.interconnect
                    .cacheline_transfer(&self.costs, holder, core)
            }
            None => {
                self.lines.insert(line, LineState::Exclusive(core));
                self.stats.memory_fills += 1;
                // Memory fill: charge a same-socket transfer cost.
                self.costs.cacheline(Distance::SameSocket)
            }
        }
    }

    /// Store to the line on `core` (read-for-ownership); returns the cost.
    pub fn write(&mut self, core: CoreId, line: LineId) -> Cycles {
        let state = self.lines.get(&line).expect("unknown line").clone();
        let cost = match &state {
            LineState::Exclusive(c) if *c == core => {
                self.record_transfer(line, Distance::SameCore);
                self.costs.cacheline(Distance::SameCore)
            }
            LineState::Invalid => {
                self.stats.memory_fills += 1;
                self.costs.cacheline(Distance::SameSocket)
            }
            _ => {
                // Invalidate all other holders; pay the slowest
                // invalidation acknowledgement. Flat keeps the historical
                // farthest-distance fee exactly; routed topologies send
                // one invalidation per holder through the interconnect
                // (each queues on the links it crosses) and pay the max.
                let holders: Vec<CoreId> = match &state {
                    LineState::Exclusive(c) => vec![*c],
                    LineState::Shared(s) => s.clone(),
                    LineState::Invalid => unreachable!(),
                };
                let mut worst = Distance::SameCore;
                let mut routed_worst = Cycles::ZERO;
                let flat = self.interconnect.is_flat();
                for h in holders {
                    if h == core {
                        continue;
                    }
                    let d = self.topo.distance(core, h);
                    worst = match (worst, d) {
                        (_, Distance::CrossSocket) | (Distance::CrossSocket, _) => {
                            Distance::CrossSocket
                        }
                        (_, Distance::SameSocket) | (Distance::SameSocket, _) => {
                            Distance::SameSocket
                        }
                        _ => Distance::SameCore,
                    };
                    if !flat {
                        let c = self.interconnect.cacheline_transfer(&self.costs, core, h);
                        routed_worst = routed_worst.max(c);
                    }
                    self.stats.invalidations += 1;
                }
                self.record_transfer(line, worst);
                if flat {
                    self.costs.cacheline(worst)
                } else {
                    routed_worst
                }
            }
        };
        self.lines.insert(line, LineState::Exclusive(core));
        cost
    }

    /// Whether `core` currently holds the line (any state).
    pub fn holds(&self, core: CoreId, line: LineId) -> bool {
        match self.lines.get(&line) {
            Some(LineState::Exclusive(c)) => *c == core,
            Some(LineState::Shared(s)) => s.contains(&core),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> (CacheDirectory, LineId) {
        let mut d = CacheDirectory::new(Topology::paper_machine(), CostModel::default());
        let l = d.new_line("test");
        (d, l)
    }

    #[test]
    fn first_read_fills_from_memory() {
        let (mut d, l) = dir();
        d.read(CoreId(0), l);
        assert_eq!(d.stats().memory_fills, 1);
        assert!(d.holds(CoreId(0), l));
    }

    #[test]
    fn repeated_reads_are_local() {
        let (mut d, l) = dir();
        d.read(CoreId(0), l);
        let c = d.read(CoreId(0), l);
        assert_eq!(c, CostModel::default().cacheline_local);
        assert_eq!(d.stats().local_hits, 1);
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
        assert!(d.stats().invalidations >= 2);
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
        let l2 = d.new_line("other");
        d.write(CoreId(0), l);
        d.read(CoreId(2), l); // different physical core (1 is 0's SMT sibling)
        d.read(CoreId(2), l2);
        assert_eq!(d.line_transfers(l), 1);
        assert_eq!(d.line_transfers(l2), 0, "memory fills are not transfers");
        assert_eq!(d.name(l2), "other");
    }

    #[test]
    fn mesh_read_cost_scales_with_hops_and_congests() {
        let mut d = CacheDirectory::with_interconnect(
            Topology::paper_machine(),
            CostModel::default(),
            TopologySpec::Mesh,
        );
        let l = d.new_line("routed");
        d.write(CoreId(4), l); // phys 2
        let near = d.read(CoreId(8), l); // phys 4: 2 hops away on the grid
        d.write(CoreId(4), l);
        let far = d.read(CoreId(54), l); // phys 27, other socket
        assert!(far > near, "{far:?} !> {near:?}");
        assert!(d.interconnect().stats().hop_traversals > 0);
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
        let l = d.new_line("inv");
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
        assert!(d.stats().invalidations >= 2);
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
