//! The §4.1 / Figure 9 copy-on-write microbenchmark.
//!
//! A single thread writes to pages of a private memory-mapped file; each
//! first write triggers a CoW fault. The metric is "the visible time in
//! cycles that the memory access, including the page-fault, has taken".
//! Figure 9 compares: baseline, all four §3 techniques ("all"), and
//! all + the CoW access-trick.

use tlbdown_core::OptConfig;
use tlbdown_kernel::prog::{ProgAction, ScriptProg};
use tlbdown_kernel::{KernelConfig, Machine};
use tlbdown_sim::{Counter, SplitMix64, Summary};
use tlbdown_topo::TopologySpec;
use tlbdown_types::{CoreId, Cycles, Topology, VirtAddr};

/// Configuration of one CoW experiment.
#[derive(Clone, Debug)]
pub struct CowBenchCfg {
    /// Mitigations on?
    pub(crate) safe: bool,
    /// Optimizations active.
    pub(crate) opts: OptConfig,
    /// Pages written (= CoW faults measured) per run.
    pub pages: u64,
    /// Runs aggregated.
    pub runs: u64,
    /// Base seed (randomizes write order).
    pub seed: u64,
    /// Interconnect model; `Flat` keeps the run byte-identical to the
    /// pre-topology pipeline.
    pub interconnect: TopologySpec,
}

impl CowBenchCfg {
    /// Defaults for a Figure 9 cell.
    pub fn new(safe: bool, opts: OptConfig) -> Self {
        CowBenchCfg {
            safe,
            opts,
            pages: 400,
            runs: 5,
            seed: 0xc0,
            interconnect: TopologySpec::Flat,
        }
    }
}

/// Result of one Figure 9 cell: latency plus structured sim-side metrics
/// for the sweep layer.
#[derive(Clone, Debug)]
pub struct CowBenchResult {
    /// CoW fault + access latency, mean ± σ across runs (cycles).
    pub latency: Summary,
    /// Machine counters summed across runs.
    pub counters: Counter,
    /// Total simulated cycles across runs.
    pub sim_cycles: u64,
}

/// Run one Figure 9 cell.
pub fn run_cow_bench(cfg: &CowBenchCfg) -> CowBenchResult {
    let mut agg = Summary::new();
    let mut counters = Counter::new();
    let mut sim_cycles = 0u64;
    for run in 0..cfg.runs {
        let mut kc = KernelConfig {
            topo: Topology::paper_machine(),
            ..KernelConfig::paper_baseline()
        }
        .with_opts(cfg.opts)
        .with_safe_mode(cfg.safe)
        .with_topology(cfg.interconnect.clone());
        kc.noise_cycles = 60;
        kc.seed = cfg.seed ^ (run + 1).wrapping_mul(0x2545_f491);
        let mut m = Machine::new(kc);
        let mm = m.create_process().expect("boot: create process");
        let file = m.create_file(cfg.pages).expect("boot: create file");
        let addr = m.setup_map_file(mm, file, false).expect("boot: map file"); // MAP_PRIVATE → CoW
        let mut rng = SplitMix64::new(cfg.seed ^ run.wrapping_mul(0x517c_c1b7));
        let mut order: Vec<u64> = (0..cfg.pages).collect();
        rng.shuffle(&mut order);
        // Pre-read each page so the read-only mapping (and its TLB entry)
        // exists before the write, as in the paper's private-file setup;
        // then write each page once, in the same random order.
        let script = [false, true]
            .into_iter()
            .flat_map(|write| {
                order.iter().map(move |&page| ProgAction::Access {
                    va: VirtAddr::new(addr.as_u64() + page * 4096),
                    write,
                })
            })
            .collect();
        m.spawn(mm, CoreId(0), Box::new(ScriptProg::new(script)));
        m.run_until(Cycles::new(cfg.pages * 200_000));
        assert!(
            m.violations().is_empty(),
            "oracle violations: {:?}",
            m.violations()
        );
        let lat = m
            .stats
            .fault_lat
            .get(&(CoreId(0), "cow"))
            .expect("CoW faults occurred");
        assert_eq!(
            lat.count(),
            cfg.pages,
            "every page CoW-faulted exactly once"
        );
        agg.record(lat.mean());
        counters.merge(&m.stats.counters);
        sim_cycles += m.now().as_u64();
    }
    CowBenchResult {
        latency: agg,
        counters,
        sim_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(safe: bool, opts: OptConfig) -> Summary {
        let mut cfg = CowBenchCfg::new(safe, opts);
        cfg.pages = 120;
        cfg.runs = 2;
        run_cow_bench(&cfg).latency
    }

    #[test]
    fn cow_trick_reduces_fault_latency() {
        for safe in [true, false] {
            let without = quick(safe, OptConfig::general_four());
            let with = quick(safe, OptConfig::general_four().with_cow(true));
            assert!(
                with.mean() < without.mean(),
                "safe={safe}: with trick {} !< without {}",
                with.mean(),
                without.mean()
            );
            // The paper reports ~130 cycles on Skylake; our cost model
            // yields the same direction at a somewhat larger magnitude in
            // safe mode, where the trick also obviates the PTI user-view
            // flush (see EXPERIMENTS.md).
            let delta = without.mean() - with.mean();
            assert!(
                (60.0..600.0).contains(&delta),
                "safe={safe}: delta {delta:.0} out of band"
            );
        }
    }

    #[test]
    fn general_techniques_barely_move_cow() {
        // §5.1: "the effect of the previous optimizations (all) is small,
        // because they are mostly intended for TLB shootdowns".
        let base = quick(true, OptConfig::baseline());
        let all4 = quick(true, OptConfig::general_four());
        let rel = (base.mean() - all4.mean()).abs() / base.mean();
        assert!(
            rel < 0.10,
            "general techniques moved CoW latency by {:.1}%",
            rel * 100.0
        );
    }
}
