//! Property tests for the TLB model's flush semantics and its FIFO
//! replacement under capacity pressure.

use std::collections::{BTreeSet, VecDeque};

use proptest::prelude::*;
use tlbdown_mem::Pte;
use tlbdown_tlb::{Tlb, TlbGeometry};
use tlbdown_types::{PageSize, Pcid, PhysAddr, PteFlags, VirtAddr};

#[derive(Clone, Debug)]
enum Op {
    Fill { pcid: u16, vpn: u64, global: bool },
    Invlpg { pcid: u16, vpn: u64 },
    InvpcidSingle { pcid: u16, vpn: u64 },
    FlushPcid { pcid: u16 },
    FlushAll { global: bool },
}

/// A fill of one of the first `vpns` virtual page numbers.
fn arb_fill(vpns: u64) -> impl Strategy<Value = Op> {
    (1u16..4, 0..vpns, any::<bool>()).prop_map(|(p, v, g)| Op::Fill {
        pcid: p,
        vpn: v,
        global: g,
    })
}

/// Any operation on the first `vpns` virtual page numbers.
fn arb_op(vpns: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => arb_fill(vpns),
        2 => (1u16..4, 0..vpns).prop_map(|(p, v)| Op::Invlpg { pcid: p, vpn: v }),
        2 => (1u16..4, 0..vpns).prop_map(|(p, v)| Op::InvpcidSingle { pcid: p, vpn: v }),
        1 => (1u16..4).prop_map(|p| Op::FlushPcid { pcid: p }),
        1 => any::<bool>().prop_map(|g| Op::FlushAll { global: g }),
    ]
}

fn pte(global: bool) -> Pte {
    let mut f = PteFlags::user_rw();
    if global {
        f |= PteFlags::GLOBAL;
    }
    Pte::new(PhysAddr::new(0x1000), f)
}

/// A reference model: the set of (tag, vpn) pairs that must be present,
/// where tag = pcid or GLOBAL.
#[derive(Default)]
struct Model {
    entries: std::collections::BTreeSet<(u16, u64)>,
}

const G: u16 = u16::MAX;

impl Model {
    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Fill { pcid, vpn, global } => {
                self.entries.insert((if global { G } else { pcid }, vpn));
            }
            Op::Invlpg { pcid, vpn } => {
                // Current-PCID entry and globals for the address.
                self.entries.remove(&(pcid, vpn));
                self.entries.remove(&(G, vpn));
            }
            Op::InvpcidSingle { pcid, vpn } => {
                self.entries.remove(&(pcid, vpn));
            }
            Op::FlushPcid { pcid } => {
                self.entries.retain(|(t, _)| *t != pcid);
            }
            Op::FlushAll { global } => {
                if global {
                    self.entries.clear();
                } else {
                    self.entries.retain(|(t, _)| *t == G);
                }
            }
        }
    }

    fn lookup(&self, pcid: u16, vpn: u64) -> bool {
        self.entries.contains(&(pcid, vpn)) || self.entries.contains(&(G, vpn))
    }
}

/// The replacement policy's specification: the cached keys in fill
/// order. A fill that overflows `cap` evicts the oldest one; a flushed
/// key leaves the queue, and filling it again queues it at the back.
#[derive(Default)]
struct FifoModel {
    queue: VecDeque<(u16, u64)>,
    evictions: u64,
}

impl FifoModel {
    fn apply(&mut self, op: &Op, cap: usize) {
        if let Op::Fill { pcid, vpn, global } = *op {
            let key = (if global { G } else { pcid }, vpn);
            if !self.queue.contains(&key) {
                self.queue.push_back(key);
                if self.queue.len() > cap {
                    self.queue.pop_front();
                    self.evictions += 1;
                }
            }
        } else {
            let mut left = Model {
                entries: self.queue.iter().copied().collect(),
            };
            left.apply(op);
            self.queue.retain(|k| left.entries.contains(k));
        }
    }
}

/// Drive `tlb` and a [`FifoModel`] of capacity `cap` through `ops`,
/// mapping an op's virtual page number `v` to page `v * stride`, and
/// compare the cached keys and the eviction count after every operation.
fn check_fifo(mut tlb: Tlb, cap: usize, stride: u64, ops: &[Op]) {
    let va = |vpn: u64| VirtAddr::new((vpn * stride) << 12);
    let mut model = FifoModel::default();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Fill { pcid, vpn, global } => {
                tlb.fill_speculative(Pcid::new(pcid), va(vpn), PageSize::Size4K, pte(global))
            }
            Op::Invlpg { pcid, vpn } => tlb.invlpg(Pcid::new(pcid), va(vpn)),
            Op::InvpcidSingle { pcid, vpn } => tlb.invpcid_single(Pcid::new(pcid), va(vpn)),
            Op::FlushPcid { pcid } => tlb.flush_pcid(Pcid::new(pcid)),
            Op::FlushAll { global } => tlb.flush_all(global),
        }
        model.apply(op, cap);
        let cached: BTreeSet<(u16, u64)> = tlb
            .iter_entries()
            .map(|e| {
                let tag = if e.global { G } else { e.pcid.0 };
                (tag, (e.page_base.as_u64() >> 12) / stride)
            })
            .collect();
        let want: BTreeSet<(u16, u64)> = model.queue.iter().copied().collect();
        prop_assert_eq!(cached, want, "cached keys after {:?}", &ops[..=i]);
        prop_assert_eq!(
            tlb.stats().evictions,
            model.evictions,
            "evictions after {:?}",
            &ops[..=i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The TLB's flush-instruction semantics agree with a simple
    /// set-theoretic reference model (no fractured entries, no capacity
    /// pressure).
    #[test]
    fn flush_semantics_match_reference_model(ops in proptest::collection::vec(arb_op(64), 1..80)) {
        let mut tlb = Tlb::new(1 << 16);
        let mut model = Model::default();
        for op in &ops {
            match *op {
                Op::Fill { pcid, vpn, global } => {
                    tlb.fill_speculative(
                        Pcid::new(pcid),
                        VirtAddr::new(vpn << 12),
                        PageSize::Size4K,
                        pte(global),
                    );
                }
                Op::Invlpg { pcid, vpn } => tlb.invlpg(Pcid::new(pcid), VirtAddr::new(vpn << 12)),
                Op::InvpcidSingle { pcid, vpn } => {
                    tlb.invpcid_single(Pcid::new(pcid), VirtAddr::new(vpn << 12))
                }
                Op::FlushPcid { pcid } => tlb.flush_pcid(Pcid::new(pcid)),
                Op::FlushAll { global } => tlb.flush_all(global),
            }
            model.apply(op);
        }
        for pcid in 1u16..4 {
            for vpn in 0u64..64 {
                let got = tlb.lookup(Pcid::new(pcid), VirtAddr::new(vpn << 12)).is_some();
                prop_assert_eq!(
                    got,
                    model.lookup(pcid, vpn),
                    "mismatch at pcid {} vpn {} after {:?}",
                    pcid,
                    vpn,
                    ops
                );
            }
        }
        prop_assert_eq!(tlb.stats().fracture_leaks, 0);
    }

    /// Capacity is a hard bound and eviction only ever shrinks toward it.
    #[test]
    fn capacity_is_respected(cap in 1usize..64, fills in 1u64..256) {
        let mut tlb = Tlb::new(cap);
        for vpn in 0..fills {
            tlb.fill_speculative(
                Pcid::new(1),
                VirtAddr::new(vpn << 12),
                PageSize::Size4K,
                pte(false),
            );
            prop_assert!(tlb.len() <= cap);
        }
        prop_assert_eq!(tlb.len(), (fills as usize).min(cap));
        let evicted = tlb.stats().evictions;
        prop_assert_eq!(evicted, (fills as usize).saturating_sub(cap) as u64);
    }

    /// With any fractured entry cached, any selective flush empties the
    /// TLB entirely (the Table 4 invariant); without one, it never does
    /// (given >1 entries).
    #[test]
    fn fracture_escalation_is_all_or_nothing(
        vpns in proptest::collection::btree_set(0u64..128, 2..32),
        fractured_one in any::<bool>(),
    ) {
        let mut tlb = Tlb::new(1 << 16);
        let vpns: Vec<u64> = vpns.into_iter().collect();
        for (i, vpn) in vpns.iter().enumerate() {
            tlb.insert_nested(
                Pcid::new(1),
                VirtAddr::new(vpn << 12),
                PageSize::Size4K,
                pte(false),
                fractured_one && i == 0,
            );
        }
        tlb.invlpg(Pcid::new(1), VirtAddr::new(vpns[vpns.len() - 1] << 12));
        if fractured_one {
            prop_assert!(tlb.is_empty(), "fracture flag must force a full flush");
            prop_assert_eq!(tlb.stats().fracture_escalations, 1);
        } else {
            prop_assert_eq!(tlb.len(), vpns.len() - 1);
            prop_assert_eq!(tlb.stats().fracture_escalations, 0);
        }
        prop_assert_eq!(tlb.stats().fracture_leaks, 0, "fracture accounting stayed consistent");
    }

    /// Under capacity pressure the pool replaces its entries FIFO, on
    /// capacities 1–5: a fill that overflows evicts the oldest cached
    /// key, and a key flushed and filled again counts as new — it
    /// outlives every key cached before its refill.
    #[test]
    fn pool_replacement_matches_fifo_reference(
        cap in 1usize..6,
        ops in proptest::collection::vec(arb_op(8), 1..120),
    ) {
        check_fifo(Tlb::new(cap), cap, 1, &ops);
    }

    /// The same in one 12-way set of the Skylake STLB: every virtual
    /// page number is a multiple of its 128 sets. Extra fills keep the
    /// set under pressure.
    #[test]
    fn skylake_set_replacement_matches_fifo_reference(
        ops in proptest::collection::vec(prop_oneof![2 => arb_fill(24), 1 => arb_op(24)], 1..160),
    ) {
        check_fifo(Tlb::with_geometry(TlbGeometry::skylake_sp()), 12, 128, &ops);
    }
}
