//! Kernel-wide configuration.

use tlbdown_core::OptConfig;
use tlbdown_tlb::TlbGeometry;
use tlbdown_topo::TopologySpec;
use tlbdown_types::{CostModel, Topology};

use crate::chaos::ChaosConfig;

/// A deliberately broken protocol path. Each is set only by its own
/// must-catch canary in the schedule explorer (`check::gate::CANARIES`)
/// and its kernel tests, which show the checker catching the bug while
/// the real path explores clean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedBug {
    /// Omit the §3.2 `nmi_uaccess_okay` pending-flush extension, so NMI
    /// probes during the early-ack window read through stale entries.
    NmiCheck,
    /// A quarantined responder skips its unconditional-full-flush
    /// override *and* the `acked_unflushed` bookkeeping on early ack
    /// (rationalised as "the forced-flush path accounts for quarantined
    /// cores"), leaving the §3.2 window unprotected.
    Quarantine,
    /// Responders' selective flushes remove only the 4K-sized entry for
    /// each address, as if the flush loop walked the range at 4K stride
    /// assuming the huge-page split already purged huge-grained entries.
    /// Leaves a stale 2M entry cached after a ranged shootdown that
    /// splinters a huge page.
    Fracture,
    /// Parking a zapped page in the L7 reuse-skip window records the
    /// flush guarantee *immediately*, skipping the versioned-PTE deferral
    /// protocol (the real path keeps the parked `(vpn, version)` pairs
    /// un-retired until either a reuse-time version check proves the
    /// restored PTE identical or a debt flush actually runs). Stale
    /// remote entries then survive a "guaranteed" flush.
    ReuseSkip,
    /// L8 numaPTE updates refresh only the updating core's socket
    /// replica instead of running the deterministic replica-sync to every
    /// remote socket. Remote page walks then translate through the stale
    /// replica PTE at the old version.
    NumaPte,
}

/// Configuration of one simulated kernel boot.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Machine CPU layout.
    pub topo: Topology,
    /// Micro-operation costs.
    pub costs: CostModel,
    /// Which of the paper's optimizations are active.
    pub opts: OptConfig,
    /// "Safe mode": Meltdown/Spectre mitigations on — PTI dual address
    /// spaces, doubled TLB flushes, trampoline entry costs (§5). When
    /// false ("unsafe mode"), kernel pages are global and each flush is
    /// performed once.
    pub safe_mode: bool,
    /// LATR-style lazy shootdowns: PTE-modifying syscalls return without
    /// waiting for (or even sending) IPIs; flushes are applied on each
    /// core asynchronously after a fixed delay. Reproduces the
    /// related-work behaviour of §2.3.2 so its hazards can be demonstrated.
    pub lazy_latr: bool,
    /// Failure injection: run one deliberately broken protocol path
    /// (`None`, the default, runs the real protocol everywhere).
    pub injected_bug: Option<InjectedBug>,
    /// Maximum seeded jitter (cycles) added to IPI delivery and interrupt
    /// dispatch, emulating the microarchitectural noise behind the
    /// paper's error bars. Zero (default) keeps the machine fully
    /// deterministic.
    pub noise_cycles: u64,
    /// Seed for the machine's internal jitter stream.
    pub seed: u64,
    /// Which boot of this (simulated) chassis this is. Zero for a fresh
    /// machine; [`crate::Machine::cold_reboot`] bumps it so the rebooted
    /// kernel's seeded streams (noise, fault plan, escalation) diverge
    /// from the pre-crash boot the way a real reboot's would, while
    /// staying a pure function of `(seed, boot_epoch)`. Epoch 0 leaves
    /// every derived seed exactly as before this field existed.
    pub boot_epoch: u64,
    /// Chaos layer: fault injection and the csd-lock watchdog. Inert
    /// faults and an armed (but never-firing) watchdog by default.
    pub chaos: ChaosConfig,
    /// Interconnect model routing cross-core cacheline transfers and IPI
    /// wire delivery. [`TopologySpec::Flat`] (default) is the pinned
    /// distance-constant reference — byte-identical to the pre-topology
    /// cost model. Ring and mesh route every transfer hop-by-hop through
    /// per-link costs with a deterministic M/D/1-style congestion model
    /// whose link state is folded into the machine digest.
    pub interconnect: TopologySpec,
    /// Per-core TLB organisation. [`TlbGeometry::legacy`] (default) is the
    /// historical fully-shared FIFO pool, a geometry of one 1,536-way
    /// set and no L1 level; [`TlbGeometry::skylake_sp`] is the
    /// set-associative, page-size-aware hierarchy from CPUID leaf 0x18.
    /// Every set of either replaces its entries FIFO.
    pub tlb_geometry: TlbGeometry,
    /// Capacity of the per-mm L7 reuse-skip window. Defaults to
    /// [`crate::mm::REUSE_WINDOW_CAP`]; scenarios shrink it so small
    /// workloads overflow the window and the elision levels still pay
    /// real debt-flush shootdowns (the signal that exploration, tracing
    /// and chaos gates measure).
    pub reuse_window_cap: usize,
}

impl KernelConfig {
    /// A config for the paper's machine in safe mode with no optimizations.
    pub fn paper_baseline() -> Self {
        KernelConfig {
            topo: Topology::paper_machine(),
            costs: CostModel::default(),
            opts: OptConfig::baseline(),
            safe_mode: true,
            lazy_latr: false,
            injected_bug: None,
            noise_cycles: 0,
            seed: 0x71bd,
            boot_epoch: 0,
            chaos: ChaosConfig::default(),
            interconnect: TopologySpec::Flat,
            tlb_geometry: TlbGeometry::legacy(),
            reuse_window_cap: crate::mm::REUSE_WINDOW_CAP,
        }
    }

    /// A small single-socket machine for tests.
    pub fn test_machine(cores: u32) -> Self {
        KernelConfig {
            topo: Topology::small(cores),
            ..Self::paper_baseline()
        }
    }

    /// Builder-style: set the optimization config.
    pub fn with_opts(mut self, opts: OptConfig) -> Self {
        self.opts = opts;
        self
    }

    /// Builder-style: set safe mode.
    pub fn with_safe_mode(mut self, safe: bool) -> Self {
        self.safe_mode = safe;
        self
    }

    /// Builder-style: enable the LATR-style lazy mode.
    pub fn with_lazy_latr(mut self, lazy: bool) -> Self {
        self.lazy_latr = lazy;
        self
    }

    /// Builder-style: set the chaos configuration.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Builder-style: route transfers and IPIs through an interconnect
    /// topology (see [`KernelConfig::interconnect`]).
    pub fn with_topology(mut self, spec: TopologySpec) -> Self {
        self.interconnect = spec;
        self
    }

    /// Builder-style: set the per-core TLB geometry.
    pub fn with_tlb_geometry(mut self, geometry: TlbGeometry) -> Self {
        self.tlb_geometry = geometry;
        self
    }

    /// Builder-style: set the injected failure (see
    /// [`KernelConfig::injected_bug`]).
    pub fn with_injected_bug(mut self, bug: Option<InjectedBug>) -> Self {
        self.injected_bug = bug;
        self
    }

    /// Whether `bug` is the injected failure.
    pub(crate) fn injects(&self, bug: InjectedBug) -> bool {
        self.injected_bug == Some(bug)
    }

    /// Builder-style: set the L7 reuse-window capacity (see
    /// [`KernelConfig::reuse_window_cap`]).
    pub fn with_reuse_window_cap(mut self, cap: usize) -> Self {
        self.reuse_window_cap = cap;
        self
    }

    /// Builder-style: set the boot epoch (see [`Self::boot_epoch`]).
    pub(crate) fn with_boot_epoch(mut self, epoch: u64) -> Self {
        self.boot_epoch = epoch;
        self
    }

    /// Seed for a derived stream, mixed with the boot epoch. Epoch 0 is
    /// the identity so pre-existing single-boot digests are unchanged.
    pub(crate) fn epoch_seed(&self, base: u64) -> u64 {
        base ^ self.boot_epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = KernelConfig::test_machine(4)
            .with_opts(OptConfig::all())
            .with_safe_mode(false)
            .with_lazy_latr(true);
        assert_eq!(c.topo.num_cores(), 4);
        assert!(c.lazy_latr);
        assert!(!c.safe_mode);
        assert_eq!(c.opts, OptConfig::all());
    }
}
