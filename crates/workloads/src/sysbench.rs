//! The §5.2 / Figure 10 Sysbench model: random writes to a shared
//! memory-mapped file with periodic `fdatasync`.
//!
//! All threads belong to one process and share one mapping of the file;
//! the file lives on emulated persistent memory, so writeback costs
//! nothing — the dominant kernel work is exactly the PTE cleaning and TLB
//! shootdowns that `fdatasync` triggers, which is why the paper picked
//! this setup. Threads are scheduled on the cores of one NUMA node.

use std::cell::Cell;
use std::rc::Rc;

use tlbdown_core::OptConfig;
use tlbdown_kernel::mm::FileId;
use tlbdown_kernel::prog::{Prog, ProgAction, ProgCtx};
use tlbdown_kernel::{KernelConfig, Machine, Syscall};
use tlbdown_sim::{Counter, SplitMix64};
use tlbdown_topo::TopologySpec;
use tlbdown_types::{CoreId, Cycles, Topology, VirtAddr};

/// File size in 4KB pages, 32MB (a scaled-down stand-in for the paper's
/// 3GB file; the flush dynamics depend on dirty-page counts, not file
/// size).
const FILE_PAGES: u64 = 8192;
/// Writes between `fdatasync` calls (sysbench's default cadence).
const FSYNC_EVERY: u64 = 8;
/// Application think-time per write, in cycles (sysbench row generation,
/// checksumming and block I/O bookkeeping around each write; calibrated
/// so kernel TLB work is ≈20–25% of runtime, the regime in which the
/// paper's Figure 10 magnitudes arise).
const THINK: u64 = 12_000;

/// Configuration of one Sysbench run.
#[derive(Clone, Debug)]
pub struct SysbenchCfg {
    /// Worker threads (the paper sweeps 1–28 on one node).
    pub threads: u32,
    /// Mitigations on?
    pub(crate) safe: bool,
    /// Optimizations active.
    pub opts: OptConfig,
    /// Simulated duration.
    pub duration: Cycles,
    /// RNG seed.
    pub seed: u64,
    /// Interconnect model; `Flat` keeps the run byte-identical to the
    /// pre-topology pipeline.
    pub interconnect: TopologySpec,
}

impl SysbenchCfg {
    /// Defaults for a Figure 10 point.
    pub fn new(threads: u32, safe: bool, opts: OptConfig) -> Self {
        SysbenchCfg {
            threads,
            safe,
            opts,
            duration: Cycles::new(12_000_000),
            seed: 0x5b,
            interconnect: TopologySpec::Flat,
        }
    }
}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct SysbenchResult {
    /// Completed write operations.
    pub ops: u64,
    /// Simulated wall-clock seconds.
    pub seconds: f64,
    /// Writes per simulated second.
    pub throughput: f64,
    /// Machine counters at the end of the run (sim-side, deterministic).
    pub counters: Counter,
    /// Final simulated time in cycles.
    pub sim_cycles: u64,
}

/// One sysbench worker thread.
#[derive(Clone)]
struct Worker {
    addr: u64,
    file: FileId,
    rng: SplitMix64,
    writes_since_sync: u64,
    ops: Rc<Cell<u64>>,
    state: u32,
}

impl Prog for Worker {
    fn next(&mut self, _ctx: &ProgCtx) -> ProgAction {
        match self.state {
            0 => {
                // Write a random page.
                self.state = 1;
                let page = self.rng.gen_range(FILE_PAGES);
                ProgAction::Access {
                    va: VirtAddr::new(self.addr + page * 4096),
                    write: true,
                }
            }
            1 => {
                self.ops.set(self.ops.get() + 1);
                self.writes_since_sync += 1;
                self.state = if self.writes_since_sync >= FSYNC_EVERY {
                    2
                } else {
                    0
                };
                ProgAction::Compute(Cycles::new(THINK))
            }
            2 => {
                self.writes_since_sync = 0;
                self.state = 0;
                ProgAction::Syscall(Syscall::Fdatasync { file: self.file })
            }
            _ => ProgAction::Exit,
        }
    }
}

/// Run one Sysbench configuration.
pub fn run_sysbench(cfg: &SysbenchCfg) -> SysbenchResult {
    assert!(
        cfg.threads >= 1 && cfg.threads <= 28,
        "one NUMA node has 28 logical CPUs"
    );
    let kc = KernelConfig {
        topo: Topology::paper_machine(),
        ..KernelConfig::paper_baseline()
    }
    .with_opts(cfg.opts)
    .with_safe_mode(cfg.safe)
    .with_topology(cfg.interconnect.clone());
    let mut m = Machine::new(kc);
    let mm = m.create_process().expect("boot: create process");
    let file = m.create_file(FILE_PAGES).expect("boot: create file");
    let addr = m.setup_map_file(mm, file, true).expect("boot: map file"); // MAP_SHARED
    let ops = Rc::new(Cell::new(0u64));
    let mut rng = SplitMix64::new(cfg.seed);
    for t in 0..cfg.threads {
        m.spawn(
            mm,
            CoreId(t), // socket-0 cores, one thread per logical CPU
            Box::new(Worker {
                addr: addr.as_u64(),
                file,
                rng: rng.fork(),
                writes_since_sync: 0,
                ops: ops.clone(),
                state: 0,
            }),
        );
    }
    m.run_until(cfg.duration);
    assert!(
        m.violations().is_empty(),
        "oracle violations: {:?}",
        m.violations()
    );
    let seconds = cfg.duration.as_secs_f64();
    let n = ops.get();
    SysbenchResult {
        ops: n,
        seconds,
        throughput: n as f64 / seconds,
        counters: m.stats.counters.clone(),
        sim_cycles: m.now().as_u64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(threads: u32, safe: bool, opts: OptConfig) -> SysbenchResult {
        let mut cfg = SysbenchCfg::new(threads, safe, opts);
        cfg.duration = Cycles::new(2_000_000);
        run_sysbench(&cfg)
    }

    #[test]
    fn throughput_scales_with_threads() {
        let one = quick(1, true, OptConfig::baseline());
        let four = quick(4, true, OptConfig::baseline());
        assert!(one.ops > 0);
        assert!(
            four.ops > one.ops,
            "4 threads {} !> 1 thread {}",
            four.ops,
            one.ops
        );
    }

    #[test]
    fn fdatasync_causes_shootdown_work() {
        let r = quick(2, true, OptConfig::baseline());
        assert!(r.ops > 0);
        for counter in ["fdatasync", "writeback_pages", "shootdown", "ipis_sent"] {
            assert!(
                r.counters.get(counter) > 0,
                "no {counter}: {:?}",
                r.counters
            );
        }
    }

    #[test]
    fn batching_helps_at_low_thread_counts() {
        // §5.2: "The greatest benefit is provided by userspace-safe
        // batching ... up to 1.18×".
        let base = quick(2, false, OptConfig::baseline());
        let batched = quick(2, false, OptConfig::baseline().with_batching(true));
        assert!(
            batched.throughput > base.throughput,
            "batching {} !> baseline {}",
            batched.throughput,
            base.throughput
        );
    }

    #[test]
    fn all_opts_beat_baseline_at_low_threads_safe_mode() {
        let base = quick(4, true, OptConfig::baseline());
        let all = quick(4, true, OptConfig::all());
        assert!(
            all.throughput > base.throughput,
            "all {} !> baseline {}",
            all.throughput,
            base.throughput
        );
    }
}
