//! Machine-level fault axis: crashes, stragglers, partitions, churn.
//!
//! [`crate::FleetFaultSpec`] mirrors the shape of `tlbdown_sim::fault::FaultSpec`
//! one layer up: probabilities and magnitudes of *machine-scale* hazards,
//! composable with the same fieldwise-max [`FleetFaultSpec::merge`]
//! lattice (so `combined()` is a join of presets, exactly like the IPI
//! layer's). A [`FleetFaultPlan`] expands the spec into one concrete,
//! seeded [`MachineFaults`] decision per machine — pure data both the
//! node sharding phase and the serial LB phase read, which is what keeps
//! the two phases consistent without sharing any mutable state.

use tlbdown_sim::fault::FaultSpec;
use tlbdown_sim::SplitMix64;

/// Probabilities and magnitudes of machine-level hazards over one fleet
/// window. Layered *on top of* an IPI-level [`FaultSpec`]: a machine can
/// be storming, crashing and partitioned at once.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetFaultSpec {
    /// Probability a machine crashes (and cold-reboots) mid-window.
    pub(crate) crash_p: f64,
    /// Ticks a crashed machine stays down before its reboot completes.
    pub(crate) crash_downtime: u64,
    /// Probability a machine is a straggler.
    pub(crate) slow_p: f64,
    /// Latency multiplier on straggler machines (≥ 1.0 to matter).
    pub(crate) slow_factor: f64,
    /// Probability the LB↔machine link partitions once mid-window.
    pub(crate) partition_p: f64,
    /// Ticks a partition lasts.
    pub(crate) partition_len: u64,
    /// Probability a machine hosts tenant churn (mmap/munmap storms
    /// from process turnover) alongside its serving workers.
    pub(crate) churn_p: f64,
    /// IPI-level faults injected inside every machine's kernel.
    pub(crate) ipi: FaultSpec,
}

impl Default for FleetFaultSpec {
    fn default() -> Self {
        FleetFaultSpec::none()
    }
}

impl FleetFaultSpec {
    /// No machine-level hazards, no IPI faults.
    pub(crate) fn none() -> Self {
        FleetFaultSpec {
            crash_p: 0.0,
            crash_downtime: 0,
            slow_p: 0.0,
            slow_factor: 1.0,
            partition_p: 0.0,
            partition_len: 0,
            churn_p: 0.0,
            ipi: FaultSpec::none(),
        }
    }

    /// A third of the fleet crashes mid-window and cold-reboots.
    pub(crate) fn crash() -> Self {
        FleetFaultSpec {
            crash_p: 0.35,
            crash_downtime: 600_000,
            ..FleetFaultSpec::none()
        }
    }

    /// A fifth of the fleet serves at a third of normal speed.
    pub(crate) fn slow_machine() -> Self {
        FleetFaultSpec {
            slow_p: 0.2,
            slow_factor: 3.0,
            ..FleetFaultSpec::none()
        }
    }

    /// A quarter of the fleet loses its LB link for a stretch.
    pub(crate) fn partition() -> Self {
        FleetFaultSpec {
            partition_p: 0.25,
            partition_len: 900_000,
            ..FleetFaultSpec::none()
        }
    }

    /// Half the fleet hosts tenant churn under its serving workers.
    pub(crate) fn tenant_churn() -> Self {
        FleetFaultSpec {
            churn_p: 0.5,
            ..FleetFaultSpec::none()
        }
    }

    /// Everything at once: the join of all four machine-level presets.
    pub fn combined() -> Self {
        FleetFaultSpec::crash()
            .merge(&FleetFaultSpec::slow_machine())
            .merge(&FleetFaultSpec::partition())
            .merge(&FleetFaultSpec::tenant_churn())
    }

    /// Builder-style: layer an IPI-level fault spec under the machines.
    #[must_use]
    pub fn with_ipi(mut self, ipi: FaultSpec) -> Self {
        self.ipi = ipi;
        self
    }

    /// Compose two specs fieldwise, mirroring [`FaultSpec::merge`]: the
    /// maximum of every probability and magnitude, and the join of the
    /// IPI layers. Commutative, associative, idempotent; `none()` is the
    /// identity.
    #[must_use]
    pub(crate) fn merge(&self, other: &FleetFaultSpec) -> FleetFaultSpec {
        FleetFaultSpec {
            crash_p: self.crash_p.max(other.crash_p),
            crash_downtime: self.crash_downtime.max(other.crash_downtime),
            slow_p: self.slow_p.max(other.slow_p),
            slow_factor: self.slow_factor.max(other.slow_factor),
            partition_p: self.partition_p.max(other.partition_p),
            partition_len: self.partition_len.max(other.partition_len),
            churn_p: self.churn_p.max(other.churn_p),
            ipi: self.ipi.merge(&other.ipi),
        }
    }

    /// The machine-level presets of the survival matrix's first axis.
    pub fn matrix() -> Vec<(&'static str, FleetFaultSpec)> {
        vec![
            ("crash", FleetFaultSpec::crash()),
            ("slow-machine", FleetFaultSpec::slow_machine()),
            ("partition", FleetFaultSpec::partition()),
            ("tenant-churn", FleetFaultSpec::tenant_churn()),
        ]
    }
}

/// The concrete fate of one machine over the window, expanded from the
/// spec by [`FleetFaultPlan::new`]. Pure data: both the sharded node
/// phase and the serial LB phase read it, neither mutates it.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineFaults {
    /// Fleet tick at which the machine crashes, if it does.
    pub(crate) crash_at: Option<u64>,
    /// Ticks the machine is down after its crash.
    pub(crate) downtime: u64,
    /// Service-latency multiplier (1.0 for a healthy machine).
    pub(crate) slow_factor: f64,
    /// LB↔machine partition window `[start, end)`, if any.
    pub(crate) partition: Option<(u64, u64)>,
    /// Whether this machine hosts tenant churn.
    pub(crate) churn: bool,
}

impl MachineFaults {
    /// A machine nothing happens to.
    pub(crate) fn healthy() -> Self {
        MachineFaults {
            crash_at: None,
            downtime: 0,
            slow_factor: 1.0,
            partition: None,
            churn: false,
        }
    }

    /// Whether the LB can reach this machine at fleet tick `t`.
    pub(crate) fn reachable_at(&self, t: u64) -> bool {
        if let Some(at) = self.crash_at {
            if t >= at && t < at.saturating_add(self.downtime) {
                return false;
            }
        }
        if let Some((s, e)) = self.partition {
            if t >= s && t < e {
                return false;
            }
        }
        true
    }
}

/// One seeded decision per machine: a pure function of
/// `(spec, seed, machines, window)`.
#[derive(Clone, Debug)]
pub struct FleetFaultPlan {
    /// Per-machine fates, indexed by machine ID.
    pub(crate) machines: Vec<MachineFaults>,
}

impl FleetFaultPlan {
    /// Expand `spec` over `machines` machines and a window of `window`
    /// ticks. Crashes land in the middle 20–70% of the window so the LB
    /// sees both pre-crash service and post-recovery traffic; partitions
    /// start anywhere they can still finish.
    pub(crate) fn new(spec: &FleetFaultSpec, seed: u64, machines: u32, window: u64) -> Self {
        let mut out = Vec::with_capacity(machines as usize);
        for i in 0..machines {
            // Independent stream per machine: adding machines never
            // reshuffles the fates of existing ones.
            let mut rng =
                SplitMix64::new(seed ^ u64::from(i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut f = MachineFaults::healthy();
            if rng.next_f64() < spec.crash_p {
                let lo = window / 5;
                let span = (window * 7 / 10).saturating_sub(lo).max(1);
                f.crash_at = Some(lo + rng.gen_range(span));
                f.downtime = spec.crash_downtime;
            }
            if rng.next_f64() < spec.slow_p {
                f.slow_factor = spec.slow_factor.max(1.0);
            }
            if rng.next_f64() < spec.partition_p && spec.partition_len > 0 {
                let len = spec.partition_len.min(window);
                let start = rng.gen_range((window - len).max(1));
                f.partition = Some((start, start + len));
            }
            if rng.next_f64() < spec.churn_p {
                f.churn = true;
            }
            out.push(f);
        }
        FleetFaultPlan { machines: out }
    }

    /// Machines the plan crashes.
    pub(crate) fn crashed(&self) -> impl Iterator<Item = usize> + '_ {
        self.machines
            .iter()
            .enumerate()
            .filter(|(_, f)| f.crash_at.is_some())
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_a_join_and_none_is_identity() {
        let a = FleetFaultSpec::crash();
        let b = FleetFaultSpec::partition();
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&a), a);
        assert_eq!(a.merge(&FleetFaultSpec::none()), a);
        let c = FleetFaultSpec::combined();
        assert!(c.crash_p > 0.0 && c.partition_p > 0.0 && c.churn_p > 0.0);
        assert!(c.slow_factor > 1.0);
    }

    #[test]
    fn plan_is_deterministic_and_prefix_stable() {
        let spec = FleetFaultSpec::combined();
        let a = FleetFaultPlan::new(&spec, 7, 64, 4_000_000);
        let b = FleetFaultPlan::new(&spec, 7, 64, 4_000_000);
        assert_eq!(a.machines, b.machines);
        // Growing the fleet never changes existing machines' fates.
        let bigger = FleetFaultPlan::new(&spec, 7, 128, 4_000_000);
        assert_eq!(&bigger.machines[..64], &a.machines[..]);
        // Different seeds decide differently.
        let c = FleetFaultPlan::new(&spec, 8, 64, 4_000_000);
        assert_ne!(a.machines, c.machines);
    }

    #[test]
    fn reachability_tracks_crash_and_partition_windows() {
        let f = MachineFaults {
            crash_at: Some(100),
            downtime: 50,
            slow_factor: 1.0,
            partition: Some((300, 400)),
            churn: false,
        };
        assert!(f.reachable_at(99));
        assert!(!f.reachable_at(100));
        assert!(!f.reachable_at(149));
        assert!(f.reachable_at(150));
        assert!(!f.reachable_at(350));
        assert!(f.reachable_at(400));
    }
}
