//! Deterministic fault injection: seeded perturbation of IPI delivery,
//! IRQ entry, cacheline transfers and flush instructions.
//!
//! The paper's optimizations (§3–§4) all narrow the window between a PTE
//! update and the moment every core is guaranteed clean; §2.3.2 warns that
//! aggressive batching/deferral silently breaks exactly this guarantee.
//! A [`FaultPlan`] makes the window *adversarial* instead of lucky: IPIs
//! are delayed, duplicated or dropped, responders enter their handler
//! late, CSD cachelines bounce slowly, and some cores execute INVLPG at a
//! crawl. Everything is driven by one [`SplitMix64`] stream seeded from a
//! single `u64`, so a failing schedule replays bit-identically from its
//! seed — the chaos layer never sacrifices the engine's determinism
//! contract.
//!
//! The plan is pure mechanism: it decides *what happens to* an IPI or a
//! handler entry, and counts what it injected. The kernel layer
//! (`tlbdown-kernel`'s `chaos` module) owns policy: watchdogs, re-sends
//! and degradation.

use tlbdown_types::{CoreId, Cycles};

use crate::rng::SplitMix64;

/// What the fault plan decided for one planned IPI delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpiFault {
    /// Deliver after an extra (possibly zero) delay.
    Deliver {
        /// Additional latency on top of the fabric's plan.
        extra: Cycles,
    },
    /// The interrupt message is lost; it never reaches the local APIC.
    Drop,
    /// Deliver twice: once on time, once `gap` later (retry storms,
    /// spurious-IPI hardening).
    Duplicate {
        /// Distance between the two deliveries.
        gap: Cycles,
    },
}

/// Per-injection-point probabilities and magnitudes. All zero (off) by
/// default; see the named constructors for the stress presets the
/// differential harness runs.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability an IPI is delayed.
    pub ipi_delay_p: f64,
    /// Maximum extra IPI delay, in cycles (uniform in `[1, max]`).
    pub ipi_delay_max: u64,
    /// Probability an IPI is dropped outright.
    pub ipi_drop_p: f64,
    /// Probability an IPI is delivered twice.
    pub ipi_duplicate_p: f64,
    /// Probability a responder's IRQ entry is delayed.
    pub irq_entry_delay_p: f64,
    /// Maximum extra IRQ-entry latency, in cycles.
    pub irq_entry_delay_max: u64,
    /// Probability a CSD cacheline transfer is jittered.
    pub cacheline_jitter_p: f64,
    /// Maximum cacheline-transfer jitter, in cycles.
    pub cacheline_jitter_max: u64,
    /// Number of cores whose INVLPG/INVPCID runs slow (chosen
    /// deterministically from the seed).
    pub slow_invlpg_cores: u32,
    /// Extra cycles each flush instruction costs on a slow core.
    pub slow_invlpg_penalty: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

impl FaultSpec {
    /// No faults: the plan is inert and consumes no randomness.
    pub fn none() -> Self {
        FaultSpec {
            ipi_delay_p: 0.0,
            ipi_delay_max: 0,
            ipi_drop_p: 0.0,
            ipi_duplicate_p: 0.0,
            irq_entry_delay_p: 0.0,
            irq_entry_delay_max: 0,
            cacheline_jitter_p: 0.0,
            cacheline_jitter_max: 0,
            slow_invlpg_cores: 0,
            slow_invlpg_penalty: 0,
        }
    }

    /// Heavy IPI reordering: most interrupts arrive far later than the
    /// fabric predicted, scrambling ack order.
    pub fn ipi_delay() -> Self {
        FaultSpec {
            ipi_delay_p: 0.6,
            ipi_delay_max: 40_000,
            ..FaultSpec::none()
        }
    }

    /// Lossy interrupt fabric: a fraction of shootdown IPIs vanish. Only
    /// survivable with the csd-lock watchdog re-send/degrade path.
    pub fn ipi_drop() -> Self {
        FaultSpec {
            ipi_drop_p: 0.35,
            ..FaultSpec::none()
        }
    }

    /// Duplicate deliveries: every IPI may arrive twice (spurious-IRQ
    /// hardening; the handler must tolerate an empty call-single queue).
    pub fn ipi_duplicate() -> Self {
        FaultSpec {
            ipi_duplicate_p: 0.5,
            ..FaultSpec::none()
        }
    }

    /// Responders dawdle on handler entry (interrupts-off sections,
    /// §2.2's "latency to handle and acknowledge the IPI may be even
    /// higher").
    pub fn late_responder() -> Self {
        FaultSpec {
            irq_entry_delay_p: 0.5,
            irq_entry_delay_max: 60_000,
            ..FaultSpec::none()
        }
    }

    /// CSD cachelines bounce slowly between sockets.
    pub(crate) fn cacheline_jitter() -> Self {
        FaultSpec {
            cacheline_jitter_p: 0.7,
            cacheline_jitter_max: 5_000,
            ..FaultSpec::none()
        }
    }

    /// Two cores execute flush instructions an order of magnitude slower.
    pub(crate) fn slow_invlpg() -> Self {
        FaultSpec {
            slow_invlpg_cores: 2,
            slow_invlpg_penalty: 2_000,
            ..FaultSpec::none()
        }
    }

    /// The combined adversary: drop + delay + duplicate on the same
    /// fabric, at full preset strength. Unlike [`FaultSpec::everything`]
    /// (every injection point at moderated rates) this composes the
    /// three IPI-delivery presets via [`FaultSpec::merge`], so a single
    /// delivery can lose the race against all three hazards — the
    /// storm-survival matrix's worst fabric.
    pub fn combined() -> Self {
        FaultSpec::ipi_drop()
            .merge(&FaultSpec::ipi_delay())
            .merge(&FaultSpec::ipi_duplicate())
    }

    /// Compose two specs: per-field maximum of every probability,
    /// magnitude and afflicted-core count. Presets stop being mutually
    /// exclusive constructors — `a.merge(&b)` injects everything either
    /// one would, at the stronger of the two rates. The single-roll
    /// partition in [`FaultPlan::ipi_fault`] caps the summed delivery
    /// probabilities at 1.0 implicitly (drop wins over duplicate wins
    /// over delay), so merged specs stay well-formed.
    #[must_use]
    pub fn merge(&self, other: &FaultSpec) -> FaultSpec {
        FaultSpec {
            ipi_delay_p: self.ipi_delay_p.max(other.ipi_delay_p),
            ipi_delay_max: self.ipi_delay_max.max(other.ipi_delay_max),
            ipi_drop_p: self.ipi_drop_p.max(other.ipi_drop_p),
            ipi_duplicate_p: self.ipi_duplicate_p.max(other.ipi_duplicate_p),
            irq_entry_delay_p: self.irq_entry_delay_p.max(other.irq_entry_delay_p),
            irq_entry_delay_max: self.irq_entry_delay_max.max(other.irq_entry_delay_max),
            cacheline_jitter_p: self.cacheline_jitter_p.max(other.cacheline_jitter_p),
            cacheline_jitter_max: self.cacheline_jitter_max.max(other.cacheline_jitter_max),
            slow_invlpg_cores: self.slow_invlpg_cores.max(other.slow_invlpg_cores),
            slow_invlpg_penalty: self.slow_invlpg_penalty.max(other.slow_invlpg_penalty),
        }
    }

    /// Everything at once, at moderated rates.
    pub fn everything() -> Self {
        FaultSpec {
            ipi_delay_p: 0.3,
            ipi_delay_max: 20_000,
            ipi_drop_p: 0.15,
            ipi_duplicate_p: 0.2,
            irq_entry_delay_p: 0.3,
            irq_entry_delay_max: 30_000,
            cacheline_jitter_p: 0.4,
            cacheline_jitter_max: 3_000,
            slow_invlpg_cores: 1,
            slow_invlpg_penalty: 1_500,
        }
    }

    /// Whether this spec can ever inject anything.
    pub fn is_inert(&self) -> bool {
        self.ipi_delay_p == 0.0
            && self.ipi_drop_p == 0.0
            && self.ipi_duplicate_p == 0.0
            && self.irq_entry_delay_p == 0.0
            && self.cacheline_jitter_p == 0.0
            && (self.slow_invlpg_cores == 0 || self.slow_invlpg_penalty == 0)
    }

    /// The named stress presets the differential harness iterates over.
    pub fn matrix() -> Vec<(&'static str, FaultSpec)> {
        vec![
            ("none", FaultSpec::none()),
            ("ipi-delay", FaultSpec::ipi_delay()),
            ("ipi-drop", FaultSpec::ipi_drop()),
            ("ipi-dup", FaultSpec::ipi_duplicate()),
            ("late-responder", FaultSpec::late_responder()),
            ("cacheline-jitter", FaultSpec::cacheline_jitter()),
            ("slow-invlpg", FaultSpec::slow_invlpg()),
            ("combined", FaultSpec::combined()),
            ("everything", FaultSpec::everything()),
        ]
    }
}

/// A seeded, reproducible fault schedule.
///
/// Decisions are drawn lazily from the seed in call order; because the
/// simulation engine is deterministic, the sequence of queries — and so
/// the entire injected schedule — replays identically for a given
/// `(spec, seed)` pair.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: SplitMix64,
    /// Cores with the slow-INVLPG affliction (seed-chosen).
    slow_cores: Vec<CoreId>,
}

impl FaultPlan {
    /// Build a plan for a machine of `num_cores` cores.
    pub fn new(spec: FaultSpec, seed: u64, num_cores: u32) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xc4a0_51d0);
        let mut slow_cores = Vec::new();
        if spec.slow_invlpg_cores > 0 && num_cores > 0 {
            let mut all: Vec<u32> = (0..num_cores).collect();
            rng.shuffle(&mut all);
            slow_cores = all
                .into_iter()
                .take(spec.slow_invlpg_cores.min(num_cores) as usize)
                .map(CoreId)
                .collect();
            slow_cores.sort_by_key(|c| c.0);
        }
        FaultPlan {
            spec,
            rng,
            slow_cores,
        }
    }

    /// Decide the fate of one IPI delivery to `_target`.
    pub fn ipi_fault(&mut self, _target: CoreId) -> IpiFault {
        if self.spec.is_inert() {
            return IpiFault::Deliver {
                extra: Cycles::ZERO,
            };
        }
        let roll = self.rng.next_f64();
        let s = &self.spec;
        if roll < s.ipi_drop_p {
            return IpiFault::Drop;
        }
        if roll < s.ipi_drop_p + s.ipi_duplicate_p {
            let gap = 1 + self.rng.gen_range(s.ipi_delay_max.max(1_000));
            return IpiFault::Duplicate {
                gap: Cycles::new(gap),
            };
        }
        if roll < s.ipi_drop_p + s.ipi_duplicate_p + s.ipi_delay_p && s.ipi_delay_max > 0 {
            let extra = 1 + self.rng.gen_range(s.ipi_delay_max);
            return IpiFault::Deliver {
                extra: Cycles::new(extra),
            };
        }
        IpiFault::Deliver {
            extra: Cycles::ZERO,
        }
    }

    /// Extra latency for one IRQ handler entry on `_core`.
    pub fn irq_entry_delay(&mut self, _core: CoreId) -> Cycles {
        let s = &self.spec;
        if s.irq_entry_delay_p == 0.0 || s.irq_entry_delay_max == 0 {
            return Cycles::ZERO;
        }
        if self.rng.next_f64() < s.irq_entry_delay_p {
            Cycles::new(1 + self.rng.gen_range(s.irq_entry_delay_max))
        } else {
            Cycles::ZERO
        }
    }

    /// Extra latency for one CSD cacheline transfer.
    pub(crate) fn cacheline_jitter(&mut self) -> Cycles {
        let s = &self.spec;
        if s.cacheline_jitter_p == 0.0 || s.cacheline_jitter_max == 0 {
            return Cycles::ZERO;
        }
        if self.rng.next_f64() < s.cacheline_jitter_p {
            Cycles::new(1 + self.rng.gen_range(s.cacheline_jitter_max))
        } else {
            Cycles::ZERO
        }
    }

    /// Extra latency for one CSD cacheline transfer routed over `hops`
    /// interconnect links. The jitter composes with topology routing by
    /// drawing once *per hop* — a transfer crossing a congested mesh can
    /// lose the race at every link, not just once end-to-end. A one-hop
    /// transfer (the flat reference topology) draws exactly once,
    /// preserving the historical RNG stream byte-for-byte.
    pub fn cacheline_jitter_hops(&mut self, hops: u64) -> Cycles {
        let mut total = Cycles::ZERO;
        for _ in 0..hops.max(1) {
            total += self.cacheline_jitter();
        }
        total
    }

    /// Extra cost for one INVLPG/INVPCID on `core` (zero unless the core
    /// is seed-chosen slow).
    pub fn invlpg_penalty(&mut self, core: CoreId) -> Cycles {
        if self.spec.slow_invlpg_penalty > 0 && self.slow_cores.contains(&core) {
            Cycles::new(self.spec.slow_invlpg_penalty)
        } else {
            Cycles::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_injects_nothing_and_draws_nothing() {
        let mut p = FaultPlan::new(FaultSpec::none(), 99, 8);
        for i in 0..1000 {
            assert_eq!(
                p.ipi_fault(CoreId(i % 8)),
                IpiFault::Deliver {
                    extra: Cycles::ZERO
                }
            );
            assert_eq!(p.irq_entry_delay(CoreId(0)), Cycles::ZERO);
            assert_eq!(p.cacheline_jitter(), Cycles::ZERO);
            assert_eq!(p.invlpg_penalty(CoreId(0)), Cycles::ZERO);
        }
        let mut fresh = FaultPlan::new(FaultSpec::none(), 99, 8);
        assert_eq!(p.rng.next_u64(), fresh.rng.next_u64(), "no draw was taken");
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = || {
            let mut p = FaultPlan::new(FaultSpec::everything(), 0xdead, 8);
            let mut out = Vec::new();
            for i in 0..500u32 {
                out.push(p.ipi_fault(CoreId(i % 8)));
                out.push(IpiFault::Deliver {
                    extra: p.irq_entry_delay(CoreId(i % 8)) + p.cacheline_jitter(),
                });
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let draws = |seed| {
            let mut p = FaultPlan::new(FaultSpec::everything(), seed, 8);
            (0..100u32)
                .map(|i| p.ipi_fault(CoreId(i % 8)))
                .collect::<Vec<_>>()
        };
        assert_ne!(draws(1), draws(2));
    }

    #[test]
    fn drop_preset_drops_roughly_its_probability() {
        let mut p = FaultPlan::new(FaultSpec::ipi_drop(), 7, 8);
        let n: u64 = 10_000;
        let dropped = (0..n)
            .filter(|i| p.ipi_fault(CoreId((i % 8) as u32)) == IpiFault::Drop)
            .count() as u64;
        let expect = (n as f64 * 0.35) as u64;
        assert!(
            dropped.abs_diff(expect) < n / 20,
            "dropped {dropped}, expected ≈{expect}"
        );
    }

    #[test]
    fn slow_cores_are_deterministic_and_only_they_pay() {
        let a = FaultPlan::new(FaultSpec::slow_invlpg(), 42, 8);
        let b = FaultPlan::new(FaultSpec::slow_invlpg(), 42, 8);
        assert_eq!(a.slow_cores, b.slow_cores);
        assert_eq!(a.slow_cores.len(), 2);
        let mut p = FaultPlan::new(FaultSpec::slow_invlpg(), 42, 8);
        let slow = p.slow_cores[0];
        let penalty = FaultSpec::slow_invlpg().slow_invlpg_penalty;
        assert!(penalty > 0);
        assert_eq!(p.invlpg_penalty(slow), Cycles::new(penalty));
        let fast = (0..8)
            .map(CoreId)
            .find(|c| !p.slow_cores.contains(c))
            .unwrap();
        assert_eq!(p.invlpg_penalty(fast), Cycles::ZERO);
    }

    #[test]
    fn matrix_presets_are_distinct() {
        let m = FaultSpec::matrix();
        assert_eq!(m.len(), 9);
        for (name, spec) in &m {
            if *name == "none" {
                assert!(spec.is_inert());
            } else {
                assert!(!spec.is_inert(), "{name} should inject something");
            }
        }
        for i in 0..m.len() {
            for j in i + 1..m.len() {
                assert_ne!(m[i].1, m[j].1, "{} and {} coincide", m[i].0, m[j].0);
            }
        }
    }

    #[test]
    fn per_hop_jitter_composes_with_topology() {
        // One hop — the flat reference topology — is byte-identical to
        // the historical single draw, including the RNG stream position.
        let mut one = FaultPlan::new(FaultSpec::cacheline_jitter(), 7, 4);
        let mut hist = FaultPlan::new(FaultSpec::cacheline_jitter(), 7, 4);
        for _ in 0..64 {
            assert_eq!(one.cacheline_jitter_hops(1), hist.cacheline_jitter());
        }
        // Zero hops clamps to one draw (a local transfer still bounces).
        let mut zero = FaultPlan::new(FaultSpec::cacheline_jitter(), 9, 4);
        let mut base = FaultPlan::new(FaultSpec::cacheline_jitter(), 9, 4);
        assert_eq!(zero.cacheline_jitter_hops(0), base.cacheline_jitter());
        // A routed transfer draws once per hop: over many transfers the
        // five-hop totals strictly dominate the single draws.
        let mut multi = FaultPlan::new(FaultSpec::cacheline_jitter(), 11, 4);
        let mut single = FaultPlan::new(FaultSpec::cacheline_jitter(), 11, 4);
        let mut multi_total = 0u64;
        let mut single_total = 0u64;
        for _ in 0..64 {
            multi_total += multi.cacheline_jitter_hops(5).0;
            single_total += single.cacheline_jitter().0;
        }
        assert!(multi_total > single_total);
        // Exactly one draw per hop: a five-hop transfer is the sum of the
        // next five single draws of a same-seeded plan.
        let mut five = FaultPlan::new(FaultSpec::cacheline_jitter(), 13, 4);
        let mut draws = FaultPlan::new(FaultSpec::cacheline_jitter(), 13, 4);
        for _ in 0..64 {
            let mut sum = Cycles::ZERO;
            for _ in 0..5 {
                sum += draws.cacheline_jitter();
            }
            assert_eq!(five.cacheline_jitter_hops(5), sum);
        }
    }

    #[test]
    fn merge_takes_fieldwise_maximum() {
        let a = FaultSpec::ipi_drop();
        let b = FaultSpec::ipi_delay();
        let m = a.merge(&b);
        assert_eq!(m.ipi_drop_p, a.ipi_drop_p);
        assert_eq!(m.ipi_delay_p, b.ipi_delay_p);
        assert_eq!(m.ipi_delay_max, b.ipi_delay_max);
        // Commutative, idempotent against itself, identity against none.
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&a), a);
        assert_eq!(a.merge(&FaultSpec::none()), a);
    }

    #[test]
    fn combined_composes_the_three_delivery_presets() {
        let c = FaultSpec::combined();
        assert_eq!(c.ipi_drop_p, FaultSpec::ipi_drop().ipi_drop_p);
        assert_eq!(c.ipi_delay_p, FaultSpec::ipi_delay().ipi_delay_p);
        assert_eq!(
            c.ipi_duplicate_p,
            FaultSpec::ipi_duplicate().ipi_duplicate_p
        );
        assert!(!c.is_inert());
        // Delivery hazards only: the non-fabric injection points stay off.
        assert_eq!(c.irq_entry_delay_p, 0.0);
        assert_eq!(c.slow_invlpg_cores, 0);
    }

    #[test]
    fn combined_plan_injects_all_three_hazards() {
        let mut p = FaultPlan::new(FaultSpec::combined(), 21, 8);
        let (mut dropped, mut delayed, mut duplicated) = (0, 0, 0);
        for i in 0..10_000u32 {
            match p.ipi_fault(CoreId(i % 8)) {
                IpiFault::Drop => dropped += 1,
                IpiFault::Deliver { extra } if extra > Cycles::ZERO => delayed += 1,
                IpiFault::Deliver { .. } => {}
                IpiFault::Duplicate { .. } => duplicated += 1,
            }
        }
        assert!(dropped > 0);
        assert!(delayed > 0);
        assert!(duplicated > 0);
    }
}
