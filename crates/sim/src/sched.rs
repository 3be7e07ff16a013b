//! Pluggable event scheduling: the branch points of the simulation.
//!
//! The plain [`Engine::pop`](crate::Engine::pop) order — time-ascending
//! with FIFO tie-breaking — is *one* legal ordering of the machine's
//! events. Real hardware provides no such guarantee for events that are
//! not causally ordered: two IPIs posted in the same cycle may be
//! delivered in either order, and an interrupt racing a computation's
//! completion may land on either side of it. A [`Scheduler`] makes those
//! ambiguities explicit: whenever more than one pending event could
//! plausibly fire next, the engine asks the scheduler to pick, and a
//! model checker (the `check` crate) can enumerate every answer.
//!
//! Two sources of ambiguity are modelled:
//!
//! 1. **Same-cycle ties**: every event scheduled for exactly the minimum
//!    pending fire time is a candidate, whatever its payload.
//! 2. **Timing perturbation**: events the caller marks *race-eligible*
//!    (interrupt arrivals, whose delivery latency is a modelling estimate
//!    rather than a contract) are candidates while they fall within
//!    [`Scheduler::window`] cycles of the minimum fire time. Choosing a
//!    later candidate means it *arrives early*, at the minimum fire time;
//!    everything passed over keeps its own time — the physical reading is
//!    "the IPI got lucky on the fabric". Time never runs backwards and no
//!    passed-over event is perturbed, so the remaining orderings stay
//!    reachable at subsequent pops.
//!
//! The default [`FifoScheduler`] always picks the first candidate, which
//! reproduces `pop` exactly; deterministic replay and all existing
//! benchmarks are unaffected.

use tlbdown_types::Cycles;

/// A policy choosing which of several commutative-ambiguous events fires
/// next. See the module docs for what counts as a candidate.
pub trait Scheduler {
    /// Width of the timing-perturbation window in cycles: race-eligible
    /// events within `window` of the minimum pending fire time become
    /// candidates alongside the same-cycle ties. Zero (the default)
    /// branches only on exact ties.
    fn window(&self) -> Cycles {
        Cycles::ZERO
    }

    /// Pick the index of the candidate that fires next, out of
    /// `candidates` of them. Called only when there are at least two;
    /// candidates are ordered by `(fire time, seq)`, and index 0 is what
    /// plain FIFO would pick. Returning an out-of-range index is a
    /// contract violation (the engine clamps it to the last candidate).
    fn choose(&mut self, candidates: usize) -> usize;
}

/// The identity policy: always pick the first candidate. With this
/// scheduler, [`Engine::pop_with`](crate::Engine::pop_with) is
/// step-for-step identical to [`Engine::pop`](crate::Engine::pop).
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn choose(&mut self, _candidates: usize) -> usize {
        0
    }
}
