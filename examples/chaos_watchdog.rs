//! Chaos layer demo: a lossy interconnect drops 35% of shootdown IPIs,
//! the csd-lock watchdog notices the stalled initiators, retries, and —
//! when retries are also eaten — degrades to a conservative full flush
//! so the machine finishes anyway, with zero oracle violations.
//!
//! ```text
//! cargo run --release --example chaos_watchdog
//! ```

use tlbdown::core::OptConfig;
use tlbdown::kernel::chaos::ChaosConfig;
use tlbdown::kernel::prog::{BusyLoopProg, MadviseLoopProg};
use tlbdown::kernel::{KernelConfig, Machine};
use tlbdown::sim::fault::FaultSpec;
use tlbdown::types::{CoreId, Cycles};

fn run(fault: FaultSpec, label: &str) {
    // Same seed ⇒ same fault schedule: every run of this example is
    // byte-for-byte identical (check with `cargo xtask replay`).
    let chaos = ChaosConfig::with_fault(fault, 0xc4a05);
    let cfg = KernelConfig::test_machine(4)
        .with_opts(OptConfig::general_four())
        .with_chaos(chaos);
    let mut m = Machine::new(cfg);
    let mm = m.create_process().expect("boot: create process");
    m.spawn(mm, CoreId(0), Box::new(MadviseLoopProg::new(8, 6))); // initiator
    m.spawn(mm, CoreId(1), Box::new(BusyLoopProg)); // victim responder
    m.run_until(Cycles::new(80_000_000));

    println!("--- {label} ---");
    println!("  simulated time        {:>12}", m.now().as_u64());
    for k in [
        "madvise_dontneed",
        "ipis_sent",
        "chaos_ipi_dropped",
        "csd_watchdog_fired",
        "csd_watchdog_resend",
        "csd_watchdog_degrade",
        "forced_full_flush",
    ] {
        println!("  {k:<22}{:>12}", m.stats.counters.get(k));
    }
    println!("  stall diagnostics     {:>12}", m.recorded_errors().len());
    println!("  oracle violations     {:>12}", m.violations().len());
    assert!(
        m.violations().is_empty(),
        "the degraded path must stay safe"
    );
    assert!(
        m.threads[0].done,
        "the watchdog must bound the initiator's completion"
    );
}

fn main() {
    run(
        FaultSpec::none(),
        "healthy fabric (watchdog armed, never fires)",
    );
    run(FaultSpec::ipi_drop(), "lossy fabric: 35% of IPIs dropped");
}
