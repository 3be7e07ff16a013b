//! A canonical digest of the machine's protocol-relevant state.
//!
//! The schedule explorer (the `check` crate) prunes its DFS when it
//! reaches a state it has already expanded. "Same state" is judged by
//! [`Machine::state_digest`], a fold of the named component digests that
//! [`Machine::digest_components`] returns, in this order:
//!
//! - `events`: the clock, the pending event queue, and the number of
//!   oracle violations and recorded errors;
//! - `cpus`: per core, `cpu_tlbstate`, the call-single queue, the
//!   early-ack debt, the batched-syscall flag, the resume token, the
//!   frame stack and the per-mm PCID generations;
//! - `escalation`: the watchdog ladder per core and its jitter stream;
//! - `tlbs`: each core's TLB entries and fracture flag;
//! - `shootdowns`: the in-flight shootdown records;
//! - `mms`: per address space, the generation, the cpumask, the VMA
//!   starts and the mmap cursor;
//! - `reuse`: the L7 reuse windows and PTE versions, only when
//!   `reuse_skip` is on;
//! - `numa`: the L8 stale replicas, only when `numa_pte` is on;
//! - `links`: interconnect link occupancy, only on a routed topology.
//!
//! A component that is off hashes no bytes, so the paper's six levels on
//! the flat fabric see constant `reuse`, `numa` and `links` digests.
//!
//! # Encoding
//!
//! Each component is a 64-bit FNV-1a hash of the bytes that
//! `#[derive(Hash)]` feeds it: the fields of each struct in declaration
//! order, every integer and enum discriminant as fixed-width
//! little-endian bytes (`usize` as 8 bytes), every collection preceded
//! by its length, every string followed by a `0xff` byte, and no field
//! or type names. Renaming a field therefore keeps every digest; adding,
//! removing or reordering one moves them. State held in hash maps is
//! sorted first — shootdowns and address spaces by id, PCID generations
//! by mm, TLB entries by their unique fill sequence number — so no digest
//! depends on iteration order.
//!
//! The digest is *partial* by design (it skips page-table contents and
//! program-internal state, which are functions of the completed
//! operations already reflected in the hashed state for the small,
//! deterministic scenarios the checker runs): equal digests are treated
//! as equal futures for pruning. It is exact for what replay verification
//! needs — two runs of the same schedule on the same scenario must agree
//! on every hashed component, so a digest mismatch is proof of
//! nondeterminism, and the differing component says where.

use std::hash::{Hash, Hasher};

use tlbdown_tlb::TlbEntry;
use tlbdown_types::MmId;

use crate::machine::Machine;
use crate::mm::Mm;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a that takes every integer as little-endian bytes, so
/// a digest does not depend on the host's byte order or pointer width.
/// Signed integers reach the unsigned writers through `Hasher`'s
/// defaults.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }

    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }

    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    fn write_u128(&mut self, n: u128) {
        self.write(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Feeds one component's state to the hasher.
type HashComponent = fn(&Machine, &mut Fnv);

/// The digest components in fold order (see the module docs).
const COMPONENTS: [(&str, HashComponent); 9] = [
    ("events", events),
    ("cpus", cpus),
    ("escalation", escalation),
    ("tlbs", tlbs),
    ("shootdowns", shootdowns),
    ("mms", mms),
    ("reuse", reuse),
    ("numa", numa),
    ("links", links),
];

fn events(m: &Machine, h: &mut Fnv) {
    m.engine.now().hash(h);
    m.engine.pending().hash(h);
    m.violations().len().hash(h);
    m.recorded_errors().len().hash(h);
}

fn cpus(m: &Machine, h: &mut Fnv) {
    for cpu in &m.cpus {
        (
            &cpu.tlb_state,
            &cpu.csq,
            cpu.acked_unflushed,
            cpu.in_batched_syscall,
            cpu.resume_token,
            &cpu.frames,
        )
            .hash(h);
        let mut gens: Vec<_> = cpu.pcid_gens.iter().collect();
        gens.sort_unstable_by_key(|(mm, _)| **mm);
        gens.hash(h);
    }
}

/// Escalation-ladder state steers future flush decisions (quarantine
/// override, storm widening), so it is part of the protocol state.
fn escalation(m: &Machine, h: &mut Fnv) {
    let e = &m.esc;
    for i in 0..m.cpus.len() {
        (
            e.streak[i],
            e.quarantined[i],
            e.probation[i],
            e.ewma_gap[i],
            e.last_arrival[i],
        )
            .hash(h);
    }
    e.jitter_rng.hash(h);
}

fn tlbs(m: &Machine, h: &mut Fnv) {
    for tlb in &m.tlbs {
        let mut entries: Vec<&TlbEntry> = tlb.iter_entries().collect();
        entries.sort_unstable_by_key(|e| e.fill_seq);
        (entries, tlb.fracture_flag()).hash(h);
    }
}

fn shootdowns(m: &Machine, h: &mut Fnv) {
    let mut sds: Vec<_> = m.shootdowns.iter().collect();
    sds.sort_unstable_by_key(|(id, _)| **id);
    sds.hash(h);
}

/// The address spaces in id order.
fn sorted_mms(m: &Machine) -> Vec<(&MmId, &Mm)> {
    let mut mms: Vec<_> = m.mms.iter().collect();
    mms.sort_unstable_by_key(|(id, _)| **id);
    mms
}

fn mms(m: &Machine, h: &mut Fnv) {
    for (id, mm) in sorted_mms(m) {
        (id, mm.gen.current(), &mm.cpumask, mm.vmas.len()).hash(h);
        mm.vmas.keys().for_each(|start| start.hash(h));
        mm.mmap_cursor.hash(h);
    }
}

/// L7 state steers future flush decisions only when the level is on.
fn reuse(m: &Machine, h: &mut Fnv) {
    if !m.cfg.opts.reuse_skip {
        return;
    }
    for (id, mm) in sorted_mms(m) {
        (id, mm.reuse.len()).hash(h);
        for (vpn, e) in mm.reuse.iter() {
            (vpn, e.pte, e.version, &e.retire).hash(h);
        }
        mm.reuse.fifo_order().count().hash(h);
        mm.reuse.fifo_order().for_each(|vpn| vpn.hash(h));
        mm.pte_versions.hash(h);
    }
}

/// L8 state steers future walks only when the level is on. A socket
/// whose stale map has emptied hashes like a socket that never had one:
/// both replicas are current.
fn numa(m: &Machine, h: &mut Fnv) {
    if !m.cfg.opts.numa_pte {
        return;
    }
    for (id, mm) in sorted_mms(m) {
        let stale = mm.numa_stale.iter().flat_map(|(socket, ptes)| {
            ptes.iter()
                .map(move |(vpn, sp)| (socket, vpn, sp.pte, sp.version))
        });
        (id, stale.clone().count()).hash(h);
        stale.for_each(|s| s.hash(h));
    }
}

/// Interconnect link occupancy steers future transfer costs under routed
/// topologies. The flat reference has no link state.
fn links(m: &Machine, h: &mut Fnv) {
    if m.dir.interconnect().is_flat() {
        return;
    }
    for ic in [m.dir.interconnect(), m.fabric.interconnect()] {
        ic.digest_items().count().hash(h);
        ic.digest_items().for_each(|link| link.hash(h));
    }
}

impl Machine {
    /// The named digests of the protocol-relevant state's components, in
    /// fold order. See the module docs for what each covers.
    pub fn digest_components(&self) -> [(&'static str, u64); 9] {
        COMPONENTS.map(|(name, hash)| {
            let mut h = Fnv::new();
            hash(self, &mut h);
            (name, h.finish())
        })
    }

    /// Hash the protocol-relevant machine state into one `u64`: the
    /// FNV-1a fold of [`Machine::digest_components`].
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (_, d) in self.digest_components() {
            h.write_u64(d);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use tlbdown_sim::FifoScheduler;
    use tlbdown_types::CoreId;

    use crate::config::KernelConfig;
    use crate::cpu::Frame;
    use crate::machine::Machine;
    use crate::prog::MadviseLoopProg;

    /// Two madvise loops on a 2-core test machine.
    fn duel() -> Machine {
        let mut m = Machine::new(KernelConfig::test_machine(2));
        let mm = m.create_process().expect("boot: create process");
        m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(2, 1)));
        m.spawn(mm, CoreId(1), Box::new(MadviseLoopProg::new(2, 1)));
        m
    }

    /// The duel under FIFO scheduling, stepped at most `max_steps` times;
    /// returns the machine and the digest after every step.
    fn run(max_steps: usize) -> (Machine, Vec<u64>) {
        let mut m = duel();
        let mut sched = FifoScheduler;
        let mut digests = Vec::new();
        while digests.len() < max_steps && m.step_with(&mut sched) {
            digests.push(m.state_digest());
        }
        (m, digests)
    }

    fn run_one() -> Vec<u64> {
        run(usize::MAX).1
    }

    #[test]
    fn digest_is_reproducible_across_identical_runs() {
        // Two machines stepped identically must agree at every step —
        // catches hash-map iteration order leaking into the digest.
        assert_eq!(run_one(), run_one());
    }

    #[test]
    fn digest_distinguishes_progress() {
        let d = run_one();
        assert!(d.len() > 10);
        // Not every step changes protocol state, but many must.
        let distinct: tlbdown_types::FastSet<_> = d.iter().collect();
        assert!(distinct.len() > d.len() / 2);
    }

    #[test]
    fn digest_encoding_is_pinned() {
        // The byte encoding is `#[derive(Hash)]` through std's `Hash`
        // impls. A toolchain that changes those impls, or a reordered or
        // added field in a hashed type, moves every pinned digest in the
        // BENCH snapshots; this test names the cause. Step 40 is mid-run,
        // with TLB entries and kernel frames live.
        let (m, _) = run(40);
        assert_eq!(m.state_digest(), 0x6a49_d297_d8c6_06d4);
    }

    #[test]
    fn live_syscall_and_irq_frames_are_pinned() {
        // The duel stopped mid-shootdown, at its first step with both a
        // syscall frame and a shootdown-IRQ frame on the stacks. The
        // frame bodies are boxed; a `Box<T>` hashes as its `T`, and this
        // value was pinned before they were boxed.
        let live = |m: &Machine, kind: fn(&Frame) -> bool| {
            m.cpus
                .iter()
                .any(|c| c.frames.iter().any(|slot| kind(&slot.frame)))
        };
        let mut m = duel();
        let mut sched = FifoScheduler;
        while !(live(&m, |f| matches!(f, Frame::Syscall(_)))
            && live(&m, |f| matches!(f, Frame::Irq(_))))
        {
            assert!(m.step_with(&mut sched), "the duel never shot down");
        }
        assert_eq!(m.engine.events_processed(), 50);
        assert_eq!(m.state_digest(), 0x3941_b3d2_3c1d_c505);
    }

    #[test]
    fn each_component_covers_its_own_state() {
        let (a, _) = run(40);
        let (mut b, _) = run(40);
        assert_eq!(a.digest_components(), b.digest_components());
        assert!(b.tlbs[0].iter_entries().next().is_some());
        b.tlbs[0].flush_all(true);
        let differing: Vec<&str> = a
            .digest_components()
            .iter()
            .zip(b.digest_components())
            .filter(|(x, y)| x.1 != y.1)
            .map(|(x, _)| x.0)
            .collect();
        assert_eq!(differing, ["tlbs"]);
        assert_ne!(a.state_digest(), b.state_digest());
    }
}
