//! Cycle accounting and the machine cost model.
//!
//! Every micro-operation the simulator executes (an `INVLPG`, an IPI
//! delivery, a contended cacheline transfer, a kernel entry) is charged a
//! cost in cycles drawn from a [`CostModel`]. The defaults are calibrated
//! from the numbers the paper itself quotes (see DESIGN.md §3); benchmarks
//! may override any field to explore sensitivity.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub};

/// A duration or instant measured in CPU cycles at the simulated 2.0 GHz.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);
    /// Simulated clock frequency, used to convert cycles to seconds.
    pub const FREQ_HZ: u64 = 2_000_000_000;

    /// Construct from a raw count.
    pub const fn new(v: u64) -> Self {
        Cycles(v)
    }

    /// The raw count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Convert to (simulated) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / Cycles::FREQ_HZ as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Communication distance between two cores; selects IPI and coherence
/// costs (same core, same socket, or across the NUMA interconnect).
/// Ordered nearest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Distance {
    /// Initiator and responder are the same logical CPU.
    SameCore,
    /// Different CPUs sharing a socket (and LLC).
    SameSocket,
    /// CPUs on different sockets; traffic crosses the interconnect.
    CrossSocket,
}

/// The cycle costs of every micro-operation in the simulation.
///
/// Defaults follow the paper's own measurements and the LKML sources it
/// cites; see DESIGN.md for the provenance of each number. All costs are
/// deterministic — the discrete-event engine adds no hidden noise, so any
/// jitter in benchmark output comes from explicitly seeded workload
/// randomness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// `INVLPG`: invalidate one PTE of the *current* PCID (§3.4: ~200cyc).
    pub invlpg: Cycles,
    /// `INVPCID` single-address mode: invalidate one PTE of *any* PCID;
    /// slower than `INVLPG` on Skylake (§3.4).
    pub invpcid_single: Cycles,
    /// Full non-global TLB flush via CR3 write (or INVPCID all-context).
    pub full_flush: Cycles,
    /// CR3 write that switches address spaces without flushing (PCID NOFLUSH).
    pub cr3_switch: Cycles,
    /// `lfence` speculation barrier after the deferred-flush loop (§3.4).
    pub lfence: Cycles,
    /// Sending one IPI (initiator-side APIC write).
    pub ipi_send: Cycles,
    /// IPI wire latency to a core on the same socket (§3.2: >1000cyc
    /// round-trip; this is the one-way delivery component).
    pub ipi_deliver_same_socket: Cycles,
    /// IPI wire latency across the interconnect.
    pub ipi_deliver_cross_socket: Cycles,
    /// Interrupt dispatch on the responder: vector through the IDT into the
    /// shootdown handler.
    pub irq_dispatch: Cycles,
    /// Additional dispatch cost when the interrupt lands while the CPU is in
    /// user mode under PTI (trampoline + CR3 switch; observed in §5.2).
    pub irq_user_entry_extra: Cycles,
    /// Return-from-interrupt back to the interrupted context.
    pub irq_exit: Cycles,
    /// Cacheline transfer when the line is owned by the same core (hit).
    pub cacheline_local: Cycles,
    /// Cacheline transfer from another core on the same socket.
    pub cacheline_same_socket: Cycles,
    /// Cacheline transfer across the interconnect.
    pub cacheline_cross_socket: Cycles,
    /// Kernel entry + exit for a syscall, mitigations off ("unsafe mode").
    pub syscall_unsafe: Cycles,
    /// Kernel entry + exit for a syscall with PTI trampoline and Spectre
    /// mitigations ("safe mode", §5).
    pub syscall_safe: Cycles,
    /// Page-walk cost when the paging-structure cache has the upper levels.
    pub page_walk_pwc_hit: Cycles,
    /// Page-walk cost when the walk starts from the PML4 (PWC miss).
    pub page_walk_pwc_miss: Cycles,
    /// Extra page-walk level for nested (guest-under-EPT) translation, per
    /// level (Table 4 experiment).
    pub nested_walk_extra: Cycles,
    /// A TLB-hit memory access.
    pub mem_access: Cycles,
    /// An atomic read-modify-write (the CoW no-op access of §4.1).
    pub atomic_rmw: Cycles,
    /// Page-fault entry/exit overhead (exception dispatch, mitigations off).
    pub fault_dispatch_unsafe: Cycles,
    /// Page-fault entry/exit overhead in safe mode.
    pub fault_dispatch_safe: Cycles,
    /// Copying one 4KB page (the CoW copy itself).
    pub page_copy: Cycles,
    /// Fixed kernel software overhead of preparing a shootdown (cpumask
    /// computation, locking) before any IPI is sent.
    pub shootdown_prep: Cycles,
    /// Kernel software overhead per flushed PTE on the initiator
    /// (PTE clear, mmu-gather bookkeeping).
    pub pte_update: Cycles,
    /// Cooperative thread switch on one core (no CR3 reload).
    pub thread_switch: Cycles,
    /// Allocating and zeroing a fresh anonymous page.
    pub page_alloc: Cycles,
}

impl CostModel {
    /// IPI delivery latency for a given core distance. `SameCore` IPIs are
    /// self-IPIs, which Linux's shootdown path never uses (it calls the
    /// flush function locally), but the APIC model supports them.
    pub fn ipi_latency(&self, d: Distance) -> Cycles {
        match d {
            Distance::SameCore => Cycles::new(400),
            Distance::SameSocket => self.ipi_deliver_same_socket,
            Distance::CrossSocket => self.ipi_deliver_cross_socket,
        }
    }

    /// Cacheline transfer cost for a given distance.
    pub fn cacheline(&self, d: Distance) -> Cycles {
        match d {
            Distance::SameCore => self.cacheline_local,
            Distance::SameSocket => self.cacheline_same_socket,
            Distance::CrossSocket => self.cacheline_cross_socket,
        }
    }

    /// Syscall entry+exit cost for the given mitigation mode.
    pub fn syscall(&self, safe_mode: bool) -> Cycles {
        if safe_mode {
            self.syscall_safe
        } else {
            self.syscall_unsafe
        }
    }

    /// Page-fault dispatch cost for the given mitigation mode.
    pub fn fault_dispatch(&self, safe_mode: bool) -> Cycles {
        if safe_mode {
            self.fault_dispatch_safe
        } else {
            self.fault_dispatch_unsafe
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            invlpg: Cycles::new(200),
            invpcid_single: Cycles::new(310),
            full_flush: Cycles::new(250),
            cr3_switch: Cycles::new(220),
            lfence: Cycles::new(40),
            ipi_send: Cycles::new(150),
            ipi_deliver_same_socket: Cycles::new(1_100),
            ipi_deliver_cross_socket: Cycles::new(1_800),
            irq_dispatch: Cycles::new(700),
            irq_user_entry_extra: Cycles::new(400),
            irq_exit: Cycles::new(350),
            cacheline_local: Cycles::new(40),
            cacheline_same_socket: Cycles::new(120),
            cacheline_cross_socket: Cycles::new(350),
            syscall_unsafe: Cycles::new(300),
            syscall_safe: Cycles::new(900),
            page_walk_pwc_hit: Cycles::new(60),
            page_walk_pwc_miss: Cycles::new(150),
            nested_walk_extra: Cycles::new(90),
            mem_access: Cycles::new(4),
            atomic_rmw: Cycles::new(30),
            fault_dispatch_unsafe: Cycles::new(500),
            fault_dispatch_safe: Cycles::new(1_100),
            page_copy: Cycles::new(750),
            shootdown_prep: Cycles::new(450),
            pte_update: Cycles::new(80),
            thread_switch: Cycles::new(150),
            page_alloc: Cycles::new(300),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles::new(100);
        let b = Cycles::new(40);
        assert_eq!((a + b).as_u64(), 140);
        assert_eq!((a - b).as_u64(), 60);
        assert_eq!((a * 3).as_u64(), 300);
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        let total: Cycles = [a, b, b].into_iter().sum();
        assert_eq!(total.as_u64(), 180);
    }

    #[test]
    fn seconds_conversion() {
        assert!((Cycles::new(Cycles::FREQ_HZ).as_secs_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_costs_match_paper_ratios() {
        let m = CostModel::default();
        // INVPCID slower than INVLPG (§3.4).
        assert!(m.invpcid_single > m.invlpg);
        // IPI delivery dwarfs a single INVLPG (§3.2).
        assert!(m.ipi_deliver_same_socket.as_u64() > 5 * m.invlpg.as_u64());
        // Safe mode kernel entry is markedly slower (§5.1).
        assert!(m.syscall_safe.as_u64() >= 2 * m.syscall_unsafe.as_u64());
        // Cross-socket communication costs more.
        assert!(m.cacheline_cross_socket > m.cacheline_same_socket);
        assert!(m.ipi_deliver_cross_socket > m.ipi_deliver_same_socket);
    }

    #[test]
    fn distance_selectors() {
        let m = CostModel::default();
        assert_eq!(m.cacheline(Distance::SameCore), m.cacheline_local);
        assert_eq!(
            m.ipi_latency(Distance::CrossSocket),
            m.ipi_deliver_cross_socket
        );
        assert_eq!(m.syscall(true), m.syscall_safe);
        assert_eq!(m.fault_dispatch(false), m.fault_dispatch_unsafe);
    }
}
