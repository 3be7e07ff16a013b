//! Machine topology: sockets, cores and x2APIC clusters.
//!
//! The evaluation machine in the paper is a dual-socket Skylake Xeon with 14
//! physical / 28 logical cores per socket. The relevant topological facts for
//! the shootdown protocol are (a) which cores share a socket (cacheline and
//! IPI costs) and (b) how cores group into x2APIC clusters of up to 16
//! logical CPUs, because one multicast IPI can only target CPUs within a
//! single cluster (§2.2).

use crate::cost::Distance;
use crate::ids::CoreId;

/// x2APIC cluster-mode fan-out limit (Intel x2APIC spec, §2.2 of the paper).
pub(crate) const X2APIC_CLUSTER_SIZE: u32 = 16;

/// Static description of the simulated machine's CPU layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    sockets: u32,
    cores_per_socket: u32,
    /// SMT ways: logical CPUs `{2i, 2i+1}` share a physical core when 2.
    smt: u32,
}

impl Topology {
    /// Build a topology of `sockets` sockets with `cores_per_socket` logical
    /// cores each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(sockets: u32, cores_per_socket: u32) -> Self {
        assert!(
            sockets > 0 && cores_per_socket > 0,
            "topology must be non-empty"
        );
        Topology {
            sockets,
            cores_per_socket,
            smt: 1,
        }
    }

    /// The same layout with `ways`-way SMT: consecutive logical CPUs share
    /// a physical core, making their communication distance `SameCore`
    /// (the paper's "same core" microbenchmark placement, §5.1).
    pub fn with_smt(mut self, ways: u32) -> Self {
        assert!(
            ways > 0 && self.cores_per_socket.is_multiple_of(ways),
            "SMT must divide core count"
        );
        self.smt = ways;
        self
    }

    /// The paper's evaluation machine: 2 sockets × 14 physical cores with
    /// 2-way SMT (28 logical CPUs per socket).
    pub fn paper_machine() -> Self {
        Topology::new(2, 28).with_smt(2)
    }

    /// A small single-socket machine, convenient for tests.
    pub fn small(cores: u32) -> Self {
        Topology::new(1, cores)
    }

    /// SMT ways per physical core (1 when SMT is off).
    pub fn smt_ways(&self) -> u32 {
        self.smt
    }

    /// The physical core hosting a logical CPU.
    pub fn physical_of(&self, core: CoreId) -> u32 {
        assert!(core.0 < self.num_cores(), "core {core} out of range");
        core.0 / self.smt
    }

    /// Total number of logical cores.
    pub fn num_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> u32 {
        self.sockets
    }

    /// Logical cores per socket.
    pub fn cores_per_socket(&self) -> u32 {
        self.cores_per_socket
    }

    /// The socket that hosts `core`.
    pub fn socket_of(&self, core: CoreId) -> u32 {
        assert!(core.0 < self.num_cores(), "core {core} out of range");
        core.0 / self.cores_per_socket
    }

    /// The x2APIC cluster id of `core`. Clusters never straddle sockets.
    pub fn cluster_of(&self, core: CoreId) -> u32 {
        let socket = self.socket_of(core);
        let within = core.0 % self.cores_per_socket;
        let clusters_per_socket = self.cores_per_socket.div_ceil(X2APIC_CLUSTER_SIZE);
        socket * clusters_per_socket + within / X2APIC_CLUSTER_SIZE
    }

    /// The communication distance between two cores, which selects IPI and
    /// cacheline-transfer costs.
    pub fn distance(&self, a: CoreId, b: CoreId) -> Distance {
        if self.physical_of(a) == self.physical_of(b) {
            Distance::SameCore
        } else if self.socket_of(a) == self.socket_of(b) {
            Distance::SameSocket
        } else {
            Distance::CrossSocket
        }
    }

    /// Group a target set into x2APIC-cluster batches: each batch can be
    /// reached with a single multicast IPI (§2.2). The batches preserve the
    /// input order within each cluster and are returned in cluster order.
    pub fn cluster_batches(&self, targets: &[CoreId]) -> Vec<Vec<CoreId>> {
        let mut batches: Vec<(u32, Vec<CoreId>)> = Vec::new();
        for &t in targets {
            let c = self.cluster_of(t);
            match batches.iter_mut().find(|(id, _)| *id == c) {
                Some((_, v)) => v.push(t),
                None => batches.push((c, vec![t])),
            }
        }
        batches.sort_by_key(|(id, _)| *id);
        batches.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Iterator over the cores of one socket.
    fn cores_of_socket(t: &Topology, socket: u32) -> impl Iterator<Item = CoreId> {
        assert!(socket < t.sockets, "socket {socket} out of range");
        let base = socket * t.cores_per_socket;
        (base..base + t.cores_per_socket).map(CoreId)
    }

    #[test]
    fn paper_machine_has_56_cores() {
        let t = Topology::paper_machine();
        assert_eq!(t.num_cores(), 56);
        assert_eq!(t.socket_of(CoreId(0)), 0);
        assert_eq!(t.socket_of(CoreId(27)), 0);
        assert_eq!(t.socket_of(CoreId(28)), 1);
    }

    #[test]
    fn clusters_do_not_straddle_sockets() {
        let t = Topology::paper_machine();
        // Socket 0 cores 0..16 → cluster 0, 16..28 → cluster 1.
        assert_eq!(t.cluster_of(CoreId(0)), 0);
        assert_eq!(t.cluster_of(CoreId(15)), 0);
        assert_eq!(t.cluster_of(CoreId(16)), 1);
        assert_eq!(t.cluster_of(CoreId(27)), 1);
        // Socket 1 starts a fresh cluster even though cluster 1 has room.
        assert_eq!(t.cluster_of(CoreId(28)), 2);
        assert_eq!(t.cluster_of(CoreId(44)), 3);
    }

    #[test]
    fn distance_classifies_pairs() {
        let t = Topology::paper_machine();
        assert_eq!(t.distance(CoreId(3), CoreId(3)), Distance::SameCore);
        assert_eq!(
            t.distance(CoreId(2), CoreId(3)),
            Distance::SameCore,
            "SMT siblings"
        );
        assert_eq!(t.distance(CoreId(3), CoreId(9)), Distance::SameSocket);
        assert_eq!(t.distance(CoreId(3), CoreId(30)), Distance::CrossSocket);
        // Without SMT, neighbours are distinct physical cores.
        let flat = Topology::new(1, 4);
        assert_eq!(flat.distance(CoreId(0), CoreId(1)), Distance::SameSocket);
    }

    #[test]
    fn physical_core_mapping() {
        let t = Topology::paper_machine();
        assert_eq!(t.physical_of(CoreId(0)), 0);
        assert_eq!(t.physical_of(CoreId(1)), 0);
        assert_eq!(t.physical_of(CoreId(2)), 1);
        assert_eq!(t.physical_of(CoreId(28)), 14);
    }

    #[test]
    fn cluster_batches_split_multicast() {
        let t = Topology::paper_machine();
        let targets = vec![CoreId(1), CoreId(15), CoreId(16), CoreId(30), CoreId(2)];
        let batches = t.cluster_batches(&targets);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0], vec![CoreId(1), CoreId(15), CoreId(2)]);
        assert_eq!(batches[1], vec![CoreId(16)]);
        assert_eq!(batches[2], vec![CoreId(30)]);
    }

    #[test]
    fn cores_of_socket_enumerates() {
        let t = Topology::new(2, 4);
        let s1: Vec<_> = cores_of_socket(&t, 1).collect();
        assert_eq!(s1, vec![CoreId(4), CoreId(5), CoreId(6), CoreId(7)]);
    }

    #[test]
    #[should_panic]
    fn socket_of_out_of_range_panics() {
        Topology::small(2).socket_of(CoreId(2));
    }
}
