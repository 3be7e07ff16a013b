//! The SMP remote-function-call layer and its cacheline layouts (§3.3).
//!
//! Linux's shootdown rides on `smp_call_function_many()`: the initiator
//! writes a call-function-data (CFD) entry per target, pushes it onto each
//! target's call-single queue (CSQ), sends the IPI, and spin-waits on a
//! lock flag inside each CFD that the responder clears to acknowledge.
//!
//! The paper's Figure 4 identifies four contended cacheline classes:
//!
//! 1. the **lazy-mode indication**, which shares a line with other
//!    frequently-written per-CPU TLB state (false sharing),
//! 2. the **TLB flushing information**, kept on the initiator's stack and
//!    reached through a pointer in the CFD,
//! 3. the **CFD** itself,
//! 4. the **CSQ** head.
//!
//! Consolidation (Figure 4b) colocates the lazy bit with the CSQ head and
//! inlines the flush info into a single-cacheline CFD. [`SmpLayer`]
//! materializes both layouts as *access scripts*: sequences of [`LineOp`]s
//! that the kernel executes against the [`tlbdown_cache::CacheDirectory`],
//! so the cost difference emerges from coherence traffic rather than from
//! a hard-coded constant.

use tlbdown_cache::{CacheDirectory, LineId};
use tlbdown_types::{CoreId, Cycles};

/// One coherence transaction in a protocol script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineOp {
    /// Load a cacheline.
    Read(LineId),
    /// Store to a cacheline (read-for-ownership).
    Write(LineId),
}

impl LineOp {
    /// Execute this operation on `core`, returning its coherence cost.
    pub(crate) fn execute(self, dir: &mut CacheDirectory, core: CoreId) -> Cycles {
        match self {
            LineOp::Read(l) => dir.read(core, l),
            LineOp::Write(l) => dir.write(core, l),
        }
    }
}

/// Execute a script of line operations on `core`, summing the cost.
pub fn run_script(dir: &mut CacheDirectory, core: CoreId, ops: &[LineOp]) -> Cycles {
    ops.iter().map(|op| op.execute(dir, core)).sum()
}

/// An access script held inline: its operations, then how many of the
/// three slots they fill. No script has more than three operations, so
/// building one allocates nothing. It derefs to its operations.
#[derive(Clone, Copy, Debug)]
pub struct Script([LineOp; 3], usize);

impl Script {
    fn new(ops: &[LineOp]) -> Self {
        let mut script = Script([ops[0]; 3], ops.len());
        script.0[..ops.len()].copy_from_slice(ops);
        script
    }
}

impl std::ops::Deref for Script {
    type Target = [LineOp];

    fn deref(&self) -> &[LineOp] {
        &self.0[..self.1]
    }
}

/// The SMP layer's cacheline inventory for one machine, in either the
/// baseline or the consolidated layout.
#[derive(Clone, Debug)]
pub struct SmpLayer {
    consolidated: bool,
    /// Per-CPU `cpu_tlbstate` line: lazy bit (baseline) + loaded-mm info;
    /// written by its owner on every context switch and local flush.
    tlbstate_line: Vec<LineId>,
    /// Per-CPU call-single-queue head; in the consolidated layout this
    /// line also carries the lazy bit.
    csq_line: Vec<LineId>,
    /// Per-(initiator, target) CFD entry, row-major: one row per
    /// initiator, one column per target.
    cfd_line: Vec<LineId>,
    /// Per-CPU on-stack `flush_tlb_info` (baseline layout only).
    stack_info_line: Vec<LineId>,
}

impl SmpLayer {
    /// Allocate the cachelines for `num_cores` CPUs in the chosen layout.
    pub fn new(dir: &mut CacheDirectory, num_cores: u32, consolidated: bool) -> Self {
        let n = num_cores as usize;
        dir.reserve_lines(n * n + 3 * n);
        let mut lines = |count: usize| (0..count).map(|_| dir.new_line()).collect();
        // Fields are evaluated in the order written: that is the order of
        // the line ids.
        SmpLayer {
            consolidated,
            tlbstate_line: lines(n),
            csq_line: lines(n),
            cfd_line: lines(n * n),
            stack_info_line: lines(n),
        }
    }

    /// The CFD line for an (initiator, target) pair — the line the ack
    /// travels on.
    pub(crate) fn cfd(&self, initiator: CoreId, target: CoreId) -> LineId {
        self.cfd_line[initiator.index() * self.csq_line.len() + target.index()]
    }

    /// The line carrying `target`'s lazy-mode indication.
    pub(crate) fn lazy_line(&self, target: CoreId) -> LineId {
        if self.consolidated {
            self.csq_line[target.index()]
        } else {
            self.tlbstate_line[target.index()]
        }
    }

    /// Script: the owner CPU updates its own TLB state (context switch,
    /// local flush bookkeeping). In the baseline layout this is the false
    /// sharing that makes remote lazy checks expensive.
    pub fn touch_tlbstate(&self, cpu: CoreId) -> Script {
        Script::new(&[LineOp::Write(self.tlbstate_line[cpu.index()])])
    }

    /// Script: the owner CPU flips its lazy-mode bit.
    pub fn set_lazy(&self, cpu: CoreId) -> Script {
        Script::new(&[LineOp::Write(self.lazy_line(cpu))])
    }

    /// Script: initiator checks whether `target` is lazy before deciding
    /// to send it an IPI.
    pub fn check_lazy(&self, target: CoreId) -> Script {
        Script::new(&[LineOp::Read(self.lazy_line(target))])
    }

    /// Script: initiator prepares and publishes the work for `target`.
    ///
    /// Baseline: write the on-stack flush info, write the CFD (function
    /// pointer + info pointer), push onto the target's CSQ.
    /// Consolidated: the info is inlined, so the CFD write covers it.
    pub fn enqueue_work(&self, initiator: CoreId, target: CoreId) -> Script {
        let ops = [
            LineOp::Write(self.stack_info_line[initiator.index()]),
            LineOp::Write(self.cfd(initiator, target)),
            LineOp::Write(self.csq_line[target.index()]),
        ];
        Script::new(if self.consolidated { &ops[1..] } else { &ops })
    }

    /// Script: responder pops its CSQ and reads the work description.
    ///
    /// Baseline: pop CSQ (atomic xchg = write), read CFD, chase the info
    /// pointer to the initiator's stack line.
    /// Consolidated: pop CSQ, read the single CFD line.
    pub fn fetch_work(&self, initiator: CoreId, target: CoreId) -> Script {
        let ops = [
            LineOp::Write(self.csq_line[target.index()]),
            LineOp::Read(self.cfd(initiator, target)),
            LineOp::Read(self.stack_info_line[initiator.index()]),
        ];
        Script::new(if self.consolidated { &ops[..2] } else { &ops })
    }

    /// Script: responder acknowledges by clearing the CFD lock flag.
    pub fn ack(&self, initiator: CoreId, target: CoreId) -> Script {
        Script::new(&[LineOp::Write(self.cfd(initiator, target))])
    }

    /// Script: initiator polls for `target`'s acknowledgement.
    pub fn poll_ack(&self, initiator: CoreId, target: CoreId) -> Script {
        Script::new(&[LineOp::Read(self.cfd(initiator, target))])
    }

    /// Number of *distinct* lines a one-target shootdown bounces between
    /// initiator and responder (the Figure 4 count).
    pub fn contended_line_count(&self, initiator: CoreId, target: CoreId) -> usize {
        let scripts = [
            self.check_lazy(target),
            self.enqueue_work(initiator, target),
            self.fetch_work(initiator, target),
            self.ack(initiator, target),
            self.poll_ack(initiator, target),
        ];
        scripts
            .iter()
            .flat_map(|s| s.iter())
            .map(|(LineOp::Read(l) | LineOp::Write(l))| *l)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_types::{CostModel, Topology};

    fn setup(consolidated: bool) -> (CacheDirectory, SmpLayer) {
        let mut dir = CacheDirectory::new(Topology::paper_machine(), CostModel::default());
        let smp = SmpLayer::new(&mut dir, 56, consolidated);
        (dir, smp)
    }

    #[test]
    fn baseline_touches_four_distinct_lines() {
        let (_dir, smp) = setup(false);
        assert_eq!(smp.contended_line_count(CoreId(0), CoreId(30)), 4);
    }

    #[test]
    fn consolidated_touches_two_distinct_lines() {
        let (_dir, smp) = setup(true);
        assert_eq!(smp.contended_line_count(CoreId(0), CoreId(30)), 2);
    }

    #[test]
    fn consolidated_shootdown_is_cheaper_cross_socket() {
        let run = |consolidated: bool| {
            let (mut dir, smp) = setup(consolidated);
            let (i, t) = (CoreId(0), CoreId(30));
            // Warm the lines into their steady-state owners, as after a
            // previous shootdown.
            run_script(&mut dir, t, &smp.touch_tlbstate(t));
            run_script(&mut dir, t, &smp.ack(i, t));
            run_script(&mut dir, t, &smp.fetch_work(i, t));
            dir.reset_stats();
            // One shootdown round-trip.
            let mut cost = Cycles::ZERO;
            cost += run_script(&mut dir, i, &smp.check_lazy(t));
            cost += run_script(&mut dir, i, &smp.enqueue_work(i, t));
            cost += run_script(&mut dir, t, &smp.fetch_work(i, t));
            cost += run_script(&mut dir, t, &smp.ack(i, t));
            cost += run_script(&mut dir, i, &smp.poll_ack(i, t));
            (cost, dir.stats().cross_socket_transfers)
        };
        let (base_cost, base_xfers) = run(false);
        let (cons_cost, cons_xfers) = run(true);
        assert!(
            cons_cost < base_cost,
            "consolidated {cons_cost:?} !< baseline {base_cost:?}"
        );
        assert!(
            cons_xfers < base_xfers,
            "consolidated {cons_xfers} !< baseline {base_xfers}"
        );
    }

    #[test]
    fn false_sharing_only_in_baseline() {
        // Responder updates its own tlbstate between two lazy checks. In
        // the baseline layout this invalidates the initiator's copy of the
        // lazy line; consolidated keeps them on different lines.
        let check_twice = |consolidated: bool| {
            let (mut dir, smp) = setup(consolidated);
            let (i, t) = (CoreId(0), CoreId(30));
            run_script(&mut dir, i, &smp.check_lazy(t));
            run_script(&mut dir, t, &smp.touch_tlbstate(t));
            run_script(&mut dir, i, &smp.check_lazy(t))
        };
        let c = CostModel::default();
        assert_eq!(
            check_twice(false),
            c.cacheline_cross_socket,
            "baseline re-fetches"
        );
        assert_eq!(
            check_twice(true),
            c.cacheline_local,
            "consolidated stays cached"
        );
    }

    #[test]
    fn lazy_bit_rides_csq_when_consolidated() {
        let (_d, smp) = setup(true);
        let t = CoreId(5);
        assert_eq!(*smp.set_lazy(t), [LineOp::Write(smp.lazy_line(t))]);
        // Lazy line and CSQ line are the same physical line.
        let enqueue = smp.enqueue_work(CoreId(0), t);
        assert!(enqueue.contains(&LineOp::Write(smp.lazy_line(t))));
    }

    #[test]
    fn scripts_have_expected_lengths() {
        let (_d, base) = setup(false);
        let (_d2, cons) = setup(true);
        let (i, t) = (CoreId(0), CoreId(1));
        assert_eq!(base.enqueue_work(i, t).len(), 3);
        assert_eq!(cons.enqueue_work(i, t).len(), 2);
        assert_eq!(base.fetch_work(i, t).len(), 3);
        assert_eq!(cons.fetch_work(i, t).len(), 2);
        assert_eq!(base.ack(i, t).len(), 1);
        assert_eq!(base.poll_ack(i, t).len(), 1);
    }
}
