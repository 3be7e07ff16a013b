//! The event queue at the heart of the simulator.
//!
//! # Hot-path layout
//!
//! Pending events live in one `BinaryHeap`, ordered by `(at, seq)`:
//! fire time first, then the order they were scheduled in. The sequence
//! number is unique, so the order is total and every run dispatches the
//! same events in the same order.
//!
//! Time is checked on every dispatch, in release builds too: an event
//! whose fire time is behind the clock is clamped to "now" and recorded
//! as a typed [`SimError::TimeRegression`] instead of the debug-only
//! assert this engine used to carry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tlbdown_types::{Cycles, SimError};

use crate::sched::Scheduler;

/// Upper bound on retained [`SimError::TimeRegression`] records; the
/// total count is unbounded but the per-engine log is capped so a
/// pathological schedule cannot turn the error path into an allocator
/// loop.
const MAX_REGRESSION_LOG: usize = 8;

/// A pending event: fires at `at`, carrying a payload of type `E`.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// enforced by a monotonically increasing sequence number. This makes the
/// simulation fully deterministic.
#[derive(Debug)]
struct Scheduled<E> {
    at: Cycles,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event engine.
///
/// # Examples
///
/// ```
/// use tlbdown_sim::Engine;
/// use tlbdown_types::Cycles;
///
/// let mut e: Engine<&'static str> = Engine::new();
/// e.schedule_in(Cycles::new(10), "b");
/// e.schedule_in(Cycles::new(5), "a");
/// e.schedule_in(Cycles::new(10), "c"); // same instant as "b": FIFO order
/// assert_eq!(e.pop(), Some("a"));
/// assert_eq!(e.now(), Cycles::new(5));
/// assert_eq!(e.pop(), Some("b"));
/// assert_eq!(e.pop(), Some("c"));
/// assert_eq!(e.pop(), None);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    now: Cycles,
    seq: u64,
    popped: u64,
    /// Every pending event, minimum `(at, seq)` on top.
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Reusable candidate buffer for [`Engine::pop_with`].
    cand_buf: Vec<Scheduled<E>>,
    /// Reusable passed-over buffer for [`Engine::pop_with`].
    skip_buf: Vec<Scheduled<E>>,
    /// Total number of dispatches that found an event behind the clock
    /// (each was clamped to fire "now" and logged as
    /// [`SimError::TimeRegression`]); always counted.
    regressions: u64,
    /// First few regression records, drained by the owner.
    regression_log: Vec<SimError>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Create an empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            now: Cycles::ZERO,
            seq: 0,
            popped: 0,
            heap: BinaryHeap::new(),
            cand_buf: Vec::new(),
            skip_buf: Vec::new(),
            regressions: 0,
            regression_log: Vec::new(),
        }
    }

    /// The current simulated time (the fire time of the last popped event).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Whether any unretrieved [`SimError::TimeRegression`] records are
    /// pending. Cheap enough to poll once per dispatch.
    pub fn has_time_errors(&self) -> bool {
        !self.regression_log.is_empty()
    }

    /// Drain the pending regression records (capped at the first
    /// `MAX_REGRESSION_LOG` per drain; the engine keeps the exact
    /// total).
    pub fn take_time_errors(&mut self) -> Vec<SimError> {
        std::mem::take(&mut self.regression_log)
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the engine
    /// clamps such events to fire "now" rather than corrupting time order.
    pub fn schedule_at(&mut self, at: Cycles, payload: E) {
        self.schedule_at_unchecked(at.max(self.now), payload);
    }

    /// Schedule `payload` to fire `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: Cycles, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Schedule `payload` at `at` *without* the past-clamp, modelling a
    /// corrupted schedule (e.g. a fault plan computing a negative
    /// delay). Exists so the always-on time-regression path is testable;
    /// not part of the simulation API.
    #[doc(hidden)]
    pub(crate) fn schedule_at_unchecked(&mut self, at: Cycles, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq, payload }));
    }

    /// Remove and return the minimum pending event if it fires at or
    /// before `horizon`.
    #[inline]
    fn pop_min_within(&mut self, horizon: Cycles) -> Option<Scheduled<E>> {
        if self.heap.peek()?.0.at > horizon {
            return None;
        }
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// Validate a dispatched fire time against the clock: a stale time
    /// is clamped to `now` and recorded as a typed error — in release
    /// builds too, unlike the `debug_assert!` this replaces.
    #[inline]
    fn checked_fire_time(&mut self, at: Cycles, seq: u64) -> Cycles {
        if at >= self.now {
            return at;
        }
        self.regressions += 1;
        if self.regression_log.len() < MAX_REGRESSION_LOG {
            self.regression_log.push(SimError::TimeRegression {
                at: at.as_u64(),
                now: self.now.as_u64(),
                seq,
            });
        }
        self.now
    }

    /// Advance the clock to `ev`'s fire time and hand out its payload.
    #[inline]
    fn dispatch(&mut self, ev: Scheduled<E>) -> E {
        self.now = self.checked_fire_time(ev.at, ev.seq);
        self.popped += 1;
        ev.payload
    }

    /// Pop the next event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<E> {
        let Reverse(ev) = self.heap.pop()?;
        Some(self.dispatch(ev))
    }

    /// Pop the next event if it fires at or before `deadline`, advancing
    /// the clock to its fire time; otherwise leave the queue and clock
    /// alone. It looks at the minimum once, so a loop bounded by a
    /// deadline reads the queue once per dispatch.
    pub fn pop_until(&mut self, deadline: Cycles) -> Option<E> {
        let ev = self.pop_min_within(deadline)?;
        Some(self.dispatch(ev))
    }

    /// The fire time of the next pending event, without dispatching it.
    pub fn next_at(&self) -> Option<Cycles> {
        self.heap.peek().map(|Reverse(ev)| ev.at)
    }

    /// Finish, in closed form, a run of `n` dispatches of one periodic
    /// event whose first dispatch was the last pop: leave exactly the
    /// state that `n - 1` more rounds of `schedule_in(period, payload)`
    /// then pop, and one last `schedule_in(period, payload)`, would.
    /// The clock moves `(n - 1) × period`, the dispatch count and the
    /// next sequence number each grow by `n - 1` before the last
    /// schedule, and `payload` is pending `period` after the new clock.
    ///
    /// The caller must know that every skipped round would have popped
    /// its own event: nothing pending may fire at or before the last
    /// skipped round's time, since an older sequence number wins a tie.
    pub fn repeat_last(&mut self, n: u64, period: Cycles, payload: E) {
        debug_assert!(n >= 1, "a run has at least the dispatch just popped");
        let skipped = n - 1;
        self.now += period * skipped;
        debug_assert!(
            skipped == 0 || self.next_at().is_none_or(|at| at > self.now),
            "a pending event would have fired inside the repeated run"
        );
        self.popped += skipped;
        self.seq += skipped;
        self.schedule_in(period, payload);
    }

    /// Pop the next event with a pluggable [`Scheduler`] deciding among
    /// commutative-ambiguous candidates (see [`crate::sched`]).
    ///
    /// Candidates are every event tied at the minimum pending fire time,
    /// plus any event within `sched.window()` of it for which `eligible`
    /// returns true (interrupt arrivals whose latency is an estimate, not
    /// a contract). The chosen event fires at the minimum fire time;
    /// every passed-over event goes back into the queue with its own
    /// fire time and sequence number — i.e. nothing is dropped or
    /// reordered, and the passed-over events re-enter the candidate set
    /// on the next pop.
    ///
    /// With [`FifoScheduler`](crate::sched::FifoScheduler) this is
    /// step-for-step identical to [`Engine::pop`].
    ///
    /// The candidate and passed-over sets live in scratch buffers owned
    /// by the engine, so a dispatch allocates nothing, branch points
    /// included: the scheduler sees only the candidate count.
    pub fn pop_with<S, F>(&mut self, sched: &mut S, eligible: F) -> Option<E>
    where
        S: Scheduler,
        F: Fn(&E) -> bool,
    {
        let Reverse(mut first) = self.heap.pop()?;
        let t_min = self.checked_fire_time(first.at, first.seq);
        first.at = t_min;
        let horizon = t_min + sched.window();
        // Gather the candidate set: ties at t_min unconditionally, then
        // race-eligible events up to the horizon. Ineligible in-window
        // events are set aside untouched.
        let mut cands = std::mem::take(&mut self.cand_buf);
        let mut skipped = std::mem::take(&mut self.skip_buf);
        cands.push(first);
        while let Some(ev) = self.pop_min_within(horizon) {
            if ev.at == t_min || eligible(&ev.payload) {
                cands.push(ev);
            } else {
                skipped.push(ev);
            }
        }
        let choice = if cands.len() == 1 {
            0
        } else {
            sched.choose(cands.len()).min(cands.len() - 1)
        };
        // Choosing a race-eligible event from later in the window means it
        // arrived *early*: it fires now, at t_min. (Its nominal time was
        // only a latency estimate.) Everything passed over — candidates
        // and ineligible in-window events alike — goes back untouched, so
        // time never advances past a pending event and the remaining
        // orders stay reachable at the next pop.
        let chosen = cands.swap_remove(choice);
        self.heap
            .extend(cands.drain(..).chain(skipped.drain(..)).map(Reverse));
        self.cand_buf = cands;
        self.skip_buf = skipped;
        self.now = t_min;
        self.popped += 1;
        Some(chosen.payload)
    }

    /// All pending events in canonical `(fire time, seq)` order — the
    /// deterministic view a state digest needs (the heap's internal
    /// order is not meaningful).
    pub fn pending(&self) -> Vec<(Cycles, u64, &E)> {
        let mut v: Vec<(Cycles, u64, &E)> = self
            .heap
            .iter()
            .map(|Reverse(s)| (s.at, s.seq, &s.payload))
            .collect();
        v.sort_unstable_by_key(|(at, seq, _)| (*at, *seq));
        v
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::rng::SplitMix64;

    /// Drop all pending events and reset the clock, keeping scratch
    /// capacity, so one engine can be reused.
    fn reset<E>(e: &mut Engine<E>) {
        e.now = Cycles::ZERO;
        e.seq = 0;
        e.popped = 0;
        e.heap.clear();
        e.regressions = 0;
        e.regression_log.clear();
    }
    use crate::sched::FifoScheduler;

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(Cycles::new(30), 3);
        e.schedule_in(Cycles::new(10), 1);
        e.schedule_in(Cycles::new(20), 2);
        assert_eq!(e.pop(), Some(1));
        assert_eq!(e.pop(), Some(2));
        assert_eq!(e.pop(), Some(3));
        assert_eq!(e.now(), Cycles::new(30));
        assert_eq!(e.events_processed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..100 {
            e.schedule_at(Cycles::new(7), i);
        }
        for i in 0..100 {
            assert_eq!(e.pop(), Some(i));
        }
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(Cycles::new(50), 1);
        assert_eq!(e.pop(), Some(1));
        e.schedule_at(Cycles::new(10), 2); // "past"
        assert_eq!(e.pop_until(Cycles::new(49)), None, "clamped to 50, not 10");
        assert_eq!(e.pop_until(Cycles::new(50)), Some(2));
        assert_eq!(e.now(), Cycles::new(50));
        assert_eq!(e.regressions, 0, "clamped schedule is not an error");
    }

    #[test]
    fn pop_until_takes_exactly_the_due_events() {
        // Near events and long timers; payloads name the (at, seq)
        // dispatch order.
        let far = 200_000;
        let mut e: Engine<u32> = Engine::new();
        for (at, v) in [
            (far, 50),
            (40, 30),
            (7, 10),
            (far + 1, 70),
            (40, 31),
            (20, 20),
            (far, 51),
            (2 * far, 90),
        ] {
            e.schedule_at(Cycles::new(at), v);
        }
        let mut until = |d: u64| -> (Vec<u32>, u64, usize) {
            let got = std::iter::from_fn(|| e.pop_until(Cycles::new(d))).collect();
            (got, e.now().as_u64(), e.heap.len())
        };
        assert_eq!(until(6), (vec![], 0, 8), "nothing due: clock stays");
        assert_eq!(until(40), (vec![10, 20, 30, 31], 40, 4));
        assert_eq!(until(far), (vec![50, 51], far, 2));
        assert_eq!(until(far), (vec![], far, 2));
        assert_eq!(until(u64::MAX), (vec![70, 90], 2 * far, 0));
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        // Two identical runs produce identical sequences.
        let run = || {
            let mut e: Engine<u64> = Engine::new();
            let mut out = Vec::new();
            e.schedule_in(Cycles::new(1), 0);
            while let Some(v) = e.pop() {
                out.push((e.now().as_u64(), v));
                if v < 20 {
                    e.schedule_in(Cycles::new(v % 3), v + 1);
                    e.schedule_in(Cycles::new(v % 5), v + 100);
                }
                if out.len() > 200 {
                    break;
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pop_with_fifo_matches_pop() {
        let fill = |e: &mut Engine<u32>| {
            e.schedule_in(Cycles::new(10), 1);
            e.schedule_in(Cycles::new(10), 2);
            e.schedule_in(Cycles::new(12), 3);
            e.schedule_in(Cycles::new(5), 4);
        };
        let mut a: Engine<u32> = Engine::new();
        let mut b: Engine<u32> = Engine::new();
        fill(&mut a);
        fill(&mut b);
        let mut sched = FifoScheduler;
        loop {
            let x = a.pop();
            let y = b.pop_with(&mut sched, |_| true);
            assert_eq!(x, y);
            assert_eq!(a.now(), b.now());
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pop_with_branches_on_ties() {
        struct PickLast;
        impl Scheduler for PickLast {
            fn choose(&mut self, candidates: usize) -> usize {
                candidates - 1
            }
        }
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(Cycles::new(7), 1);
        e.schedule_at(Cycles::new(7), 2);
        e.schedule_at(Cycles::new(7), 3);
        let mut s = PickLast;
        // Each pop re-branches over the remaining ties.
        assert_eq!(e.pop_with(&mut s, |_| false), Some(3));
        assert_eq!(e.pop_with(&mut s, |_| false), Some(2));
        assert_eq!(e.pop_with(&mut s, |_| false), Some(1));
        assert_eq!(e.now(), Cycles::new(7));
    }

    #[test]
    fn window_pulls_eligible_events_forward() {
        struct PickLastWindowed;
        impl Scheduler for PickLastWindowed {
            fn window(&self) -> Cycles {
                Cycles::new(100)
            }
            fn choose(&mut self, candidates: usize) -> usize {
                candidates - 1
            }
        }
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(Cycles::new(10), 1); // not eligible
        e.schedule_at(Cycles::new(50), 2); // eligible (odd-valued => irq-ish)
        e.schedule_at(Cycles::new(200), 3); // outside window
        let mut s = PickLastWindowed;
        // The eligible event nominally at t=50 wins the race by arriving
        // early, at t_min=10; the passed-over t=10 event is untouched and
        // fires next at its own time.
        assert_eq!(e.pop_with(&mut s, |v| *v == 2), Some(2));
        assert_eq!(e.now(), Cycles::new(10));
        assert_eq!(e.pending()[0], (Cycles::new(10), 0, &1));
        assert_eq!(e.pop_with(&mut s, |v| *v == 2), Some(1));
        assert_eq!(e.now(), Cycles::new(10));
        assert_eq!(e.pop_with(&mut s, |v| *v == 2), Some(3));
        assert_eq!(e.now(), Cycles::new(200));
    }

    #[test]
    fn pending_is_sorted_canonically() {
        let mut e: Engine<u32> = Engine::new();
        // Ties, near events and long timers, scheduled out of order.
        let events = [
            (70_000, 5),
            (30, 3),
            (10, 1),
            (10, 2),
            (5_000, 4),
            (200_000, 6),
        ];
        for (at, v) in events {
            e.schedule_at(Cycles::new(at), v);
        }
        let p = e.pending();
        let vals: Vec<u32> = p.iter().map(|(_, _, v)| **v).collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 5, 6]);
        assert!(p[0].1 < p[1].1, "ties ordered by seq");
    }

    #[test]
    fn reset_clears_state() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(Cycles::new(5), 1);
        e.schedule_in(Cycles::new(500_000), 2);
        e.pop();
        reset(&mut e);
        assert!(e.heap.is_empty());
        assert_eq!(e.now(), Cycles::ZERO);
        assert_eq!(e.heap.len(), 0);
        assert!(e.pending().is_empty());
    }

    #[test]
    fn trace_stamps_are_monotone() {
        let mut e: Engine<u32> = Engine::new();
        assert_eq!(e.seq, 0);
        assert_eq!(e.events_processed(), 0);
        e.schedule_in(Cycles::new(5), 1);
        e.schedule_in(Cycles::new(5), 2);
        assert_eq!(e.seq, 2, "one seq per scheduled event");
        e.pop();
        assert_eq!(e.events_processed(), 1);
        e.pop();
        assert_eq!(e.events_processed(), 2);
        reset(&mut e);
        assert_eq!(e.seq, 0);
    }

    #[test]
    fn distant_events_interleave_with_later_schedules() {
        // Long timers still interleave correctly with events scheduled
        // after the clock has moved towards them.
        let far = 131_072;
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(Cycles::new(far * 3), 30);
        e.schedule_at(Cycles::new(far + 5), 10);
        e.schedule_at(Cycles::new(7), 1);
        assert_eq!(e.pop(), Some(1));
        e.schedule_at(Cycles::new(far + 4), 9);
        assert_eq!(e.pop(), Some(9));
        assert_eq!(e.pop(), Some(10));
        e.schedule_at(Cycles::new(far * 3), 31); // tie with 30: FIFO
        assert_eq!(e.pop(), Some(30));
        assert_eq!(e.pop(), Some(31));
        assert_eq!(e.pop(), None);
    }

    /// The queue's specification: a sorted map from `(at, seq)` to
    /// payload, with the same clamp and clock rules as the engine.
    #[derive(Default)]
    struct Reference {
        now: Cycles,
        seq: u64,
        queue: BTreeMap<(Cycles, u64), u64>,
    }

    impl Reference {
        fn schedule_in(&mut self, delay: Cycles, v: u64) {
            self.queue.insert((self.now + delay, self.seq), v);
            self.seq += 1;
        }

        fn pop_until(&mut self, deadline: Cycles) -> Option<u64> {
            let entry = self.queue.first_entry()?;
            if entry.key().0 > deadline {
                return None;
            }
            let ((at, _), v) = entry.remove_entry();
            self.now = at;
            Some(v)
        }

        fn pending(&self) -> Vec<(Cycles, u64, &u64)> {
            self.queue
                .iter()
                .map(|(&(at, seq), v)| (at, seq, v))
                .collect()
        }
    }

    /// Drive an engine and the [`Reference`] through the same seeded
    /// mix of schedules (ties, near, medium and long delays) and pops
    /// (`pop`, `pop_until` and `pop_with` under [`FifoScheduler`]),
    /// requiring the same payload, clock and pending list at every
    /// step, until the queue drains. Returns the engine, the number of
    /// events scheduled and the peak queue length.
    fn churn(seed: u64) -> (Engine<u64>, u64, usize) {
        let mut rng = SplitMix64::new(seed);
        let mut e: Engine<u64> = Engine::new();
        let mut r = Reference::default();
        let mut next = 0u64;
        let mut peak = 0;
        for _ in 0..64 {
            let delay = Cycles::new(rng.gen_range(2_000));
            e.schedule_in(delay, next);
            r.schedule_in(delay, next);
            next += 1;
        }
        let mut dispatched = 0;
        while !e.heap.is_empty() {
            peak = peak.max(e.heap.len());
            let (got, want) = match rng.gen_range(3) {
                0 => (e.pop(), r.pop_until(Cycles::new(u64::MAX))),
                1 => {
                    let deadline = e.now() + Cycles::new(rng.gen_range(4_000));
                    (e.pop_until(deadline), r.pop_until(deadline))
                }
                _ => (
                    e.pop_with(&mut FifoScheduler, |v| v % 2 == 1),
                    r.pop_until(Cycles::new(u64::MAX)),
                ),
            };
            assert_eq!(got, want, "seed {seed:#x}, dispatch {dispatched}");
            assert_eq!(e.now(), r.now, "seed {seed:#x}, dispatch {dispatched}");
            if dispatched % 101 == 0 {
                assert_eq!(e.pending(), r.pending(), "seed {seed:#x}");
            }
            if got.is_none() {
                continue;
            }
            dispatched += 1;
            let roll = rng.gen_range(100);
            let n = if next < 15_000 { 2 } else { 0 };
            for _ in 0..n {
                let delay = Cycles::new(match roll {
                    0..=9 => 0,
                    10..=69 => rng.gen_range(4_000),
                    70..=89 => 64 * rng.gen_range(2_048),
                    _ => 131_072 + rng.gen_range(1_000_000),
                });
                e.schedule_in(delay, next);
                r.schedule_in(delay, next);
                next += 1;
            }
        }
        assert!(r.queue.is_empty(), "seed {seed:#x}");
        (e, next, peak)
    }

    #[test]
    fn queue_matches_a_sorted_map_reference() {
        for seed in [0u64, 1, 0x51ab, 0xdead_beef] {
            let (e, scheduled, peak) = churn(seed);
            assert!(
                peak > 1_000,
                "seed {seed:#x}: the churn builds a deep queue"
            );
            assert_eq!(e.events_processed(), scheduled, "seed {seed:#x}");
        }
    }

    #[test]
    fn repeat_last_matches_single_rounds() {
        // A periodic event first popped at t = 50 repeats n times; other
        // events wait just after the last skipped round, before, at and
        // after the horizon t + nP where the last repeat stays pending.
        let mut rng = SplitMix64::new(0x5e7);
        for period in [1u64, 2, 7, 200] {
            for n in 1..=6u64 {
                let t = 50;
                let last_skipped = t + (n - 1) * period;
                let horizon = t + n * period;
                let mut others = vec![last_skipped + 1, horizon, horizon + 1, 10 * horizon];
                others.push(last_skipped + 1 + rng.gen_range(3 * period));
                let fill = |e: &mut Engine<u64>| {
                    e.schedule_at(Cycles::new(t), 0);
                    for (i, &at) in others.iter().enumerate() {
                        e.schedule_at(Cycles::new(at), i as u64 + 1);
                    }
                    assert_eq!(e.pop(), Some(0));
                };
                let (mut closed, mut stepped) = (Engine::new(), Engine::new());
                fill(&mut closed);
                fill(&mut stepped);
                let p = Cycles::new(period);
                closed.repeat_last(n, p, 0);
                for _ in 1..n {
                    stepped.schedule_in(p, 0);
                    assert_eq!(stepped.pop(), Some(0), "P {period}, n {n}");
                }
                stepped.schedule_in(p, 0);
                let case = format!("P {period}, n {n}");
                assert_eq!(closed.now(), Cycles::new(last_skipped), "{case}");
                assert_eq!(closed.now(), stepped.now(), "{case}");
                assert_eq!(closed.events_processed(), n, "{case}");
                assert_eq!(
                    closed.events_processed(),
                    stepped.events_processed(),
                    "{case}"
                );
                assert_eq!(closed.seq, stepped.seq, "{case}");
                assert_eq!(closed.pending(), stepped.pending(), "{case}");
                let drain = |e: &mut Engine<u64>| {
                    std::iter::from_fn(|| e.pop().map(|v| (v, e.now()))).collect::<Vec<_>>()
                };
                assert_eq!(drain(&mut closed), drain(&mut stepped), "{case}");
            }
        }
    }

    #[test]
    fn stale_event_is_clamped_and_recorded() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(Cycles::new(100), 1);
        assert_eq!(e.pop(), Some(1));
        // Model a corrupted schedule: an event behind the clock.
        e.schedule_at_unchecked(Cycles::new(40), 2);
        assert_eq!(e.pop(), Some(2));
        assert_eq!(e.now(), Cycles::new(100), "clock stayed monotone");
        assert_eq!(e.regressions, 1);
        assert!(e.has_time_errors());
        let errs = e.take_time_errors();
        assert_eq!(
            errs,
            vec![SimError::TimeRegression {
                at: 40,
                now: 100,
                seq: 1,
            }]
        );
        assert!(!e.has_time_errors(), "drained");
    }

    #[test]
    fn regression_log_is_bounded_but_count_is_exact() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(Cycles::new(1_000), 0);
        e.pop();
        for i in 0..50 {
            e.schedule_at_unchecked(Cycles::new(5), i);
        }
        while e.pop().is_some() {}
        assert_eq!(e.regressions, 50);
        assert_eq!(e.take_time_errors().len(), MAX_REGRESSION_LOG);
    }

    #[test]
    fn pop_with_reports_regressions_too() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(Cycles::new(100), 1);
        e.pop();
        e.schedule_at_unchecked(Cycles::new(10), 2);
        let mut s = FifoScheduler;
        assert_eq!(e.pop_with(&mut s, |_| false), Some(2));
        assert_eq!(e.now(), Cycles::new(100));
        assert_eq!(e.regressions, 1);
    }
}
