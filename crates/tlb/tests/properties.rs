//! Property tests for the TLB model's flush semantics.

use proptest::prelude::*;
use tlbdown_mem::Pte;
use tlbdown_tlb::Tlb;
use tlbdown_types::{PageSize, Pcid, PhysAddr, PteFlags, VirtAddr};

#[derive(Clone, Debug)]
enum Op {
    Fill { pcid: u16, vpn: u64, global: bool },
    Invlpg { pcid: u16, vpn: u64 },
    InvpcidSingle { pcid: u16, vpn: u64 },
    FlushPcid { pcid: u16 },
    FlushAll { global: bool },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (1u16..4, 0u64..64, any::<bool>())
            .prop_map(|(p, v, g)| Op::Fill { pcid: p, vpn: v, global: g }),
        2 => (1u16..4, 0u64..64).prop_map(|(p, v)| Op::Invlpg { pcid: p, vpn: v }),
        2 => (1u16..4, 0u64..64).prop_map(|(p, v)| Op::InvpcidSingle { pcid: p, vpn: v }),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The TLB's flush-instruction semantics agree with a simple
    /// set-theoretic reference model (no fractured entries, no capacity
    /// pressure).
    #[test]
    fn flush_semantics_match_reference_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
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
    }
}
