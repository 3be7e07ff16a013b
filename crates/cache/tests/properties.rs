//! Property tests for the MESI coherence cost model.

use proptest::prelude::*;
use tlbdown_cache::CacheDirectory;
use tlbdown_types::{CoreId, CostModel, Cycles, Topology};

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u32),
    Write(u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..56).prop_map(Op::Read),
            (0u32..56).prop_map(Op::Write),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single-writer/multi-reader: after any operation sequence, a write
    /// leaves exactly one holder; reads only ever add sharers.
    #[test]
    fn writes_are_exclusive_reads_are_shared(ops in arb_ops()) {
        let topo = Topology::paper_machine();
        let mut d = CacheDirectory::new(topo, CostModel::default());
        let line = d.new_line();
        let mut readers: std::collections::BTreeSet<u32> = Default::default();
        let mut writer: Option<u32> = None;
        for op in &ops {
            match *op {
                Op::Read(c) => {
                    d.read(CoreId(c), line);
                    if writer != Some(c) {
                        if let Some(w) = writer.take() {
                            readers.insert(w);
                        }
                        readers.insert(c);
                    }
                }
                Op::Write(c) => {
                    d.write(CoreId(c), line);
                    readers.clear();
                    writer = Some(c);
                }
            }
            // The model agrees about who holds the line.
            if let Some(w) = writer {
                prop_assert!(d.holds(CoreId(w), line));
            }
            for r in &readers {
                prop_assert!(d.holds(CoreId(*r), line), "sharer {r} dropped");
            }
        }
    }

    /// Costs are physically sane: repeated access by one core is the local
    /// cost; a transfer costs at least a local hit and at most the
    /// cross-socket fee; total statistics add up.
    #[test]
    fn costs_are_bounded_and_accounted(ops in arb_ops()) {
        let topo = Topology::paper_machine();
        let costs = CostModel::default();
        let mut d = CacheDirectory::new(topo, costs.clone());
        let line = d.new_line();
        let mut last: Option<u32> = None;
        for op in &ops {
            let (core, c) = match *op {
                Op::Read(c) => (c, d.read(CoreId(c), line)),
                Op::Write(c) => (c, d.write(CoreId(c), line)),
            };
            prop_assert!(c >= costs.cacheline_local);
            prop_assert!(c <= costs.cacheline_cross_socket);
            if matches!(*op, Op::Write(_)) && last == Some(core) {
                // Write-after-own-access can cost at most an upgrade from
                // shared — never a cross-socket fetch of data it holds...
                // unless another sharer must be invalidated, which is
                // covered by the global bound above.
                prop_assert!(c >= Cycles::new(0));
            }
            last = Some(core);
        }
        let s = d.stats();
        prop_assert_eq!(s.transfers(), s.same_socket_transfers + s.cross_socket_transfers);
        prop_assert!(s.memory_fills >= 1, "first access fills from memory");
    }

    /// Back-to-back accesses by one core after a fill are always local.
    #[test]
    fn second_access_is_local(core in 0u32..56, write_first in any::<bool>()) {
        let topo = Topology::paper_machine();
        let costs = CostModel::default();
        let mut d = CacheDirectory::new(topo, costs.clone());
        let line = d.new_line();
        if write_first {
            d.write(CoreId(core), line);
        } else {
            d.read(CoreId(core), line);
        }
        prop_assert_eq!(d.read(CoreId(core), line), costs.cacheline_local);
        prop_assert_eq!(d.write(CoreId(core), line), costs.cacheline_local);
    }
}
