//! The hazard the paper warns about (§2.3.2): aggressive, LATR-style lazy
//! shootdowns return from `madvise`/`munmap` before remote TLBs are
//! flushed. A sibling thread that keeps reading the released page through
//! its stale TLB entry observes memory the kernel already promised was
//! disconnected — the safety oracle catches it red-handed.
//!
//! ```text
//! cargo run --release --example latr_hazard
//! ```

use tlbdown::kernel::prog::{Prog, ProgAction, ProgCtx, ScriptProg};
use tlbdown::kernel::{KernelConfig, Machine, Syscall};
use tlbdown::types::{CoreId, Cycles, VirtAddr};

/// Reads one address in a tight loop.
#[derive(Clone)]
struct Toucher {
    addr: u64,
    i: u64,
}

impl Prog for Toucher {
    fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
        self.i += 1;
        if self.i > 200_000 {
            return ProgAction::Exit;
        }
        ProgAction::Access {
            va: VirtAddr::new(self.addr),
            write: false,
        }
    }
}

fn run(lazy: bool) -> usize {
    let cfg = KernelConfig::test_machine(2).with_lazy_latr(lazy);
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    let addr = m.setup_map_anon(mm, 1).expect("boot: map anon");
    // The zapper touches the page, lets the toucher cache it, then
    // releases it.
    let zapper = ScriptProg::new(vec![
        ProgAction::Access {
            va: addr,
            write: true,
        },
        ProgAction::Compute(Cycles::new(100_000)),
        ProgAction::Syscall(Syscall::MadviseDontNeed { addr, pages: 1 }),
    ]);
    m.spawn(mm, CoreId(0), Box::new(zapper));
    m.spawn(
        mm,
        CoreId(1),
        Box::new(Toucher {
            addr: addr.as_u64(),
            i: 0,
        }),
    );
    m.run_until(Cycles::new(20_000_000));
    m.violations().len()
}

fn main() {
    println!("LATR-style lazy shootdowns vs the synchronous protocol\n");
    let sync = run(false);
    println!("synchronous shootdowns: {sync} oracle violations");
    let lazy = run(true);
    println!("LATR-style lazy mode:   {lazy} oracle violations");
    assert_eq!(sync, 0);
    assert!(lazy > 0, "expected the lazy mode to trip the oracle");
    println!(
        "\nThe lazy mode let a core keep translating through a shot-down\n\
         mapping after the syscall returned — the correctness class the\n\
         paper's bottom-up approach avoids by keeping shootdowns synchronous\n\
         and making them fast instead."
    );
}
