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
        for (i, op) in ops.iter().enumerate() {
            let (core, c) = match *op {
                Op::Read(c) => (c, d.read(CoreId(c), line)),
                Op::Write(c) => (c, d.write(CoreId(c), line)),
            };
            if i == 0 {
                // The first access fills from memory, at the same-socket
                // fee, and moves no line between cores.
                prop_assert_eq!(c, costs.cacheline_same_socket);
                prop_assert_eq!(d.stats().transfers(), 0);
            }
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

/// A plain MESI directory, the judge of `CacheDirectory`'s fast paths:
/// three MESI states with the holders in sharing order, full scans, and
/// [`Topology::distance`] per holder. Routed cases drive its own
/// [`Interconnect`], whose link state must evolve exactly as the
/// directory's does.
mod reference {
    use tlbdown_cache::CacheStats;
    use tlbdown_topo::{Interconnect, TopologySpec};
    use tlbdown_types::{CoreId, CostModel, Cycles, Distance, Topology};

    enum LineState {
        Invalid,
        Exclusive(CoreId),
        Shared(Vec<CoreId>),
    }

    impl LineState {
        fn holders(&self) -> &[CoreId] {
            match self {
                LineState::Invalid => &[],
                LineState::Exclusive(c) => std::slice::from_ref(c),
                LineState::Shared(s) => s,
            }
        }
    }

    fn rank(d: Distance) -> u8 {
        match d {
            Distance::SameCore => 0,
            Distance::SameSocket => 1,
            Distance::CrossSocket => 2,
        }
    }

    pub struct Mesi {
        topo: Topology,
        costs: CostModel,
        interconnect: Interconnect,
        lines: Vec<LineState>,
        pub stats: CacheStats,
    }

    impl Mesi {
        pub fn new(topo: Topology, costs: CostModel, spec: TopologySpec) -> Self {
            Mesi {
                interconnect: Interconnect::new(topo.clone(), spec),
                topo,
                costs,
                lines: Vec::new(),
                stats: CacheStats::default(),
            }
        }

        pub fn new_line(&mut self) -> usize {
            self.lines.push(LineState::Invalid);
            self.lines.len() - 1
        }

        fn record(&mut self, d: Distance) {
            match d {
                Distance::SameCore => {}
                Distance::SameSocket => self.stats.same_socket_transfers += 1,
                Distance::CrossSocket => self.stats.cross_socket_transfers += 1,
            }
        }

        pub fn read(&mut self, core: CoreId, line: usize) -> Cycles {
            let holders = self.lines[line].holders();
            if holders.contains(&core) {
                return self.costs.cacheline(Distance::SameCore);
            }
            let nearest = if self.interconnect.is_flat() {
                holders
                    .iter()
                    .map(|&h| (h, self.topo.distance(core, h)))
                    .min_by_key(|(_, d)| rank(*d))
            } else {
                holders
                    .iter()
                    .map(|&h| (h, self.topo.distance(core, h)))
                    .min_by_key(|(h, _)| self.interconnect.hops(core, *h))
            };
            let Some((holder, d)) = nearest else {
                self.lines[line] = LineState::Exclusive(core);
                return self.costs.cacheline(Distance::SameSocket);
            };
            let state = &mut self.lines[line];
            match state {
                LineState::Exclusive(c) => *state = LineState::Shared(vec![*c, core]),
                LineState::Shared(sharers) => sharers.push(core),
                LineState::Invalid => unreachable!("a line with a holder is valid"),
            }
            self.record(d);
            self.interconnect
                .cacheline_transfer(&self.costs, holder, core)
        }

        pub fn write(&mut self, core: CoreId, line: usize) -> Cycles {
            let cost = match &self.lines[line] {
                LineState::Exclusive(c) if *c == core => self.costs.cacheline(Distance::SameCore),
                LineState::Invalid => self.costs.cacheline(Distance::SameSocket),
                state => {
                    let mut worst = Distance::SameCore;
                    let mut routed_worst = Cycles::ZERO;
                    let flat = self.interconnect.is_flat();
                    for &h in state.holders() {
                        if h == core {
                            continue;
                        }
                        let d = self.topo.distance(core, h);
                        if rank(d) > rank(worst) {
                            worst = d;
                        }
                        if !flat {
                            let c = self.interconnect.cacheline_transfer(&self.costs, core, h);
                            routed_worst = routed_worst.max(c);
                        }
                    }
                    self.record(worst);
                    if flat {
                        self.costs.cacheline(worst)
                    } else {
                        routed_worst
                    }
                }
            };
            self.lines[line] = LineState::Exclusive(core);
            cost
        }

        pub fn holds(&self, core: CoreId, line: usize) -> bool {
            self.lines[line].holders().contains(&core)
        }
    }
}

/// One step of a reference-model run: a single access, or a broadcast
/// fan-out that reads one line from `count` cores `stride` apart (a
/// shootdown's responders fetching the initiator's work).
#[derive(Clone, Copy, Debug)]
enum Access {
    Read {
        core: u32,
        line: usize,
    },
    Write {
        core: u32,
        line: usize,
    },
    FanOut {
        line: usize,
        first: u32,
        stride: u32,
        count: u32,
    },
}

const REF_LINES: usize = 3;

/// A fan-out over `count` distinct cores of either machine: its strides
/// are coprime to 56 and 112.
fn arb_fan_out(count: std::ops::RangeInclusive<u32>) -> impl Strategy<Value = Access> {
    const STRIDES: [u32; 8] = [1, 3, 5, 9, 11, 13, 15, 17];
    (0..REF_LINES, 0u32..112, 0..STRIDES.len(), count).prop_map(|(line, first, s, count)| {
        Access::FanOut {
            line,
            first,
            stride: STRIDES[s],
            count,
        }
    })
}

fn arb_accesses() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0u32..112, 0..REF_LINES).prop_map(|(core, line)| Access::Read { core, line }),
            2 => (0u32..112, 0..REF_LINES).prop_map(|(core, line)| Access::Write { core, line }),
            1 => arb_fan_out(1..=112),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The directory prices every read and write, counts every transfer
    /// and tracks every holder exactly as the reference MESI model does,
    /// on the paper machine and the 2×56 SMT tier, under every
    /// interconnect. Each case opens with a fan-out that grows a sharer
    /// set past 50 cores.
    #[test]
    fn directory_matches_reference_mesi_model(
        wide in arb_fan_out(51..=112),
        accesses in arb_accesses(),
    ) {
        use tlbdown_topo::TopologySpec;
        let machines = [Topology::paper_machine(), Topology::new(2, 56).with_smt(2)];
        let specs = [TopologySpec::Flat, TopologySpec::Ring, TopologySpec::Mesh];
        for topo in &machines {
            for spec in &specs {
                let costs = CostModel::default();
                let n = topo.num_cores();
                let mut d =
                    CacheDirectory::with_interconnect(topo.clone(), costs.clone(), spec.clone());
                let mut r = reference::Mesi::new(topo.clone(), costs, spec.clone());
                let lines: Vec<_> = (0..REF_LINES).map(|_| (d.new_line(), r.new_line())).collect();
                let mut widest = 0;
                let mut step = |write: bool, core: u32, line: usize| {
                    let (l, rl) = lines[line];
                    let core = CoreId(core % n);
                    let (got, want) = if write {
                        (d.write(core, l), r.write(core, rl))
                    } else {
                        (d.read(core, l), r.read(core, rl))
                    };
                    prop_assert_eq!(got, want, "{:?} cost of write={} by {:?}", spec, write, core);
                    prop_assert_eq!(d.stats(), &r.stats);
                    let mut holders = 0;
                    for c in (0..n).map(CoreId) {
                        prop_assert_eq!(d.holds(c, l), r.holds(c, rl), "{:?} holder {:?}", spec, c);
                        holders += usize::from(r.holds(c, rl));
                    }
                    widest = widest.max(holders);
                };
                for a in std::iter::once(&wide).chain(&accesses) {
                    match *a {
                        Access::Read { core, line } => step(false, core, line),
                        Access::Write { core, line } => step(true, core, line),
                        Access::FanOut { line, first, stride, count } => {
                            for i in 0..count {
                                step(false, first + i * stride, line);
                            }
                        }
                    }
                }
                prop_assert!(widest > 50, "{:?}: widest sharer set {}", spec, widest);
            }
        }
    }
}
