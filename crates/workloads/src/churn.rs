//! Tenant-churn: the mmap/munmap storm of process turnover.
//!
//! On a multi-tenant serving machine, workers come and go — deploys,
//! crashes, autoscaling — and every tenant exit unmaps its whole address
//! space at once, a broadside of ranged shootdowns into every core the
//! tenant ever ran on. The fleet tier layers this churn *under* the
//! serving workload: one [`ChurnProg`] per tenant slot loops through
//! generations of "process" lifetimes (mmap a working set, fault it in,
//! do some work, tear the whole set down), so the serving workers' TLBs
//! are constantly invalidated by a neighbour they never talk to.
//!
//! The churn slots share one dedicated mm (modelling turnover of
//! short-lived workers inside a tenant's container rather than burning
//! a PCID per generation, which would exhaust the PCID space long
//! before a fleet-length run ends); what matters for the shootdown
//! machinery — the munmap broadcast into co-resident cores — is
//! identical.

use std::cell::Cell;
use std::rc::Rc;

use tlbdown_kernel::prog::{Prog, ProgAction, ProgCtx};
use tlbdown_kernel::Syscall;
use tlbdown_sim::SplitMix64;
use tlbdown_types::{Cycles, VirtAddr};

/// Pages each tenant generation maps (its working set).
const PAGES: u64 = 8;
/// Upper bound of the compute between one generation's exit and the
/// next one's spawn, in cycles; jittered from the seed.
const RESPAWN_THINK: u64 = 200;
/// Compute a generation performs before exiting ("the process ran"), in
/// cycles; jittered per generation from the seed.
const LIFETIME_WORK: u64 = 30_000;

/// Configuration of one tenant-churn slot.
#[derive(Clone, Debug)]
pub struct ChurnCfg {
    /// Simulated time at which the slot stops spawning generations.
    pub(crate) deadline: Cycles,
    /// Seed for the slot's jitter stream.
    pub(crate) seed: u64,
}

impl ChurnCfg {
    /// A brisk churn slot: small working sets, short lifetimes — the
    /// turnover itself, not the tenant's work, dominates.
    pub fn brisk(deadline: Cycles, seed: u64) -> Self {
        ChurnCfg { deadline, seed }
    }
}

/// One tenant slot: loop { mmap working set → touch pages → live →
/// munmap everything }. Each full munmap is the turnover shootdown.
#[derive(Clone)]
pub struct ChurnProg {
    cfg: ChurnCfg,
    rng: SplitMix64,
    /// Completed generations, shared with the harness.
    turnovers: Rc<Cell<u64>>,
    state: u32,
    addr: u64,
    touch: u64,
}

impl ChurnProg {
    /// Build a slot; `turnovers` is bumped once per completed generation.
    pub fn new(cfg: ChurnCfg, turnovers: Rc<Cell<u64>>) -> Self {
        let rng = SplitMix64::new(cfg.seed ^ 0xc4u64.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        ChurnProg {
            cfg,
            rng,
            turnovers,
            state: 0,
            addr: 0,
            touch: 0,
        }
    }
}

impl Prog for ChurnProg {
    fn next(&mut self, ctx: &ProgCtx) -> ProgAction {
        match self.state {
            // Spawn the next generation (or retire the slot).
            0 => {
                if ctx.now >= self.cfg.deadline {
                    return ProgAction::Exit;
                }
                self.state = 1;
                ProgAction::Syscall(Syscall::MmapAnon { pages: PAGES })
            }
            1 => {
                self.addr = ctx.retval;
                self.touch = 0;
                self.state = 2;
                ProgAction::Nop
            }
            // Fault the working set in, a page at a time with think gaps.
            2 => {
                if self.touch < PAGES {
                    let va = VirtAddr::new(self.addr + self.touch * 4096);
                    self.touch += 1;
                    ProgAction::Access { va, write: true }
                } else {
                    self.state = 3;
                    let jitter = self.rng.gen_range(LIFETIME_WORK);
                    ProgAction::Compute(Cycles::new(LIFETIME_WORK + jitter))
                }
            }
            // The generation "exits": unmap everything at once.
            3 => {
                self.state = 4;
                ProgAction::Syscall(Syscall::Munmap {
                    addr: VirtAddr::new(self.addr),
                    pages: PAGES,
                })
            }
            4 => {
                self.turnovers.set(self.turnovers.get() + 1);
                self.state = 0;
                ProgAction::Compute(Cycles::new(1 + self.rng.gen_range(RESPAWN_THINK)))
            }
            _ => ProgAction::Exit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlbdown_core::OptConfig;
    use tlbdown_kernel::{KernelConfig, Machine};
    use tlbdown_types::CoreId;

    #[test]
    fn churn_slots_turn_over_and_shoot_down() {
        let mut m = Machine::new(KernelConfig::test_machine(4).with_opts(OptConfig::baseline()));
        let mm = m.create_process().expect("churn mm");
        let deadline = Cycles::new(2_000_000);
        let turnovers = Rc::new(Cell::new(0u64));
        for core in 0..2u32 {
            m.spawn(
                mm,
                CoreId(core),
                Box::new(ChurnProg::new(
                    ChurnCfg::brisk(deadline, 0x7e4a + u64::from(core)),
                    turnovers.clone(),
                )),
            );
        }
        m.run_until(deadline + Cycles::new(500_000));
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        assert!(turnovers.get() > 2, "tenants never turned over");
        assert!(
            m.stats.counters.get("shootdown") > 0,
            "turnover produced no shootdowns: {:?}",
            m.stats.counters
        );
        assert!(m.threads.iter().all(|t| t.done), "slots must retire");
    }

    #[test]
    fn churn_is_deterministic() {
        let run = || {
            let mut m =
                Machine::new(KernelConfig::test_machine(4).with_opts(OptConfig::baseline()));
            let mm = m.create_process().expect("churn mm");
            let turnovers = Rc::new(Cell::new(0u64));
            m.spawn(
                mm,
                CoreId(1),
                Box::new(ChurnProg::new(
                    ChurnCfg::brisk(Cycles::new(1_000_000), 0x11),
                    turnovers.clone(),
                )),
            );
            m.run_until(Cycles::new(1_500_000));
            (turnovers.get(), m.state_digest(), m.now())
        };
        assert_eq!(run(), run());
    }
}
