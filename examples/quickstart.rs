//! Quickstart: boot a machine, trigger one TLB shootdown, and inspect
//! what happened — baseline protocol vs all six optimizations.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tlbdown::core::OptConfig;
use tlbdown::kernel::prog::{BusyLoopProg, MadviseLoopProg};
use tlbdown::kernel::{KernelConfig, Machine};
use tlbdown::types::{CoreId, Cycles, Topology};

fn run(opts: OptConfig, label: &str) {
    let cfg = KernelConfig {
        topo: Topology::paper_machine(),
        ..KernelConfig::paper_baseline()
    }
    .with_opts(opts);
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    // Initiator on socket 0, responder on socket 1 — the worst case. The
    // initiator maps 8 pages, then touches them and madvises them away
    // 100 times: one shootdown per loop.
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(8, 100)));
    m.spawn(mm, CoreId(28), Box::new(BusyLoopProg));
    m.run_until(Cycles::new(100_000_000));

    let initiator = &m.stats.syscall_lat[&(CoreId(0), "madvise_dontneed")];
    let responder = &m.stats.irq_lat[&CoreId(28)];
    println!(
        "{label:<22} madvise: {:>6.0} cycles   responder interrupted: {:>6.0} cycles",
        initiator.mean(),
        responder.mean()
    );
    println!(
        "{:<22} IPIs sent: {}   full flushes (responder): {}   early acks: {}",
        "",
        m.stats.counters.get("ipis_sent"),
        m.stats.counters.get("responder_full_flush"),
        m.stats.counters.get("early_ack"),
    );
    assert!(
        m.violations().is_empty(),
        "the oracle found stale TLB usage!"
    );
}

fn main() {
    println!("tlbdown quickstart — one cross-socket shootdown per madvise, 100 iterations\n");
    run(OptConfig::baseline(), "baseline Linux 5.2.8:");
    run(OptConfig::general_four(), "four §3 techniques:");
    run(OptConfig::all(), "all six techniques:");
    println!("\nNo safety-oracle violations: every variant kept TLBs coherent.");
}
