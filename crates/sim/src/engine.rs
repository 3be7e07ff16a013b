//! The event queue at the heart of the simulator.
//!
//! # Hot-path layout
//!
//! Pending events are ordered by `(at, seq)`: fire time first, then the
//! order they were scheduled in. The sequence number is unique, so the
//! order is total and every run dispatches the same events in the same
//! order. They live in two places: a `BinaryHeap`, and beside it the
//! lane, a `VecDeque` already in that order that holds the members of
//! the last periodic run ([`Engine::run_periodic`]) between runs. Every
//! reader of the pending set merges the two; `pop_until` and `pop_with`
//! read the heap alone while the lane is empty.
//!
//! Time is checked on every dispatch, in release builds too: an event
//! whose fire time is behind the clock is clamped to "now" and recorded
//! as a typed [`SimError::TimeRegression`] instead of the debug-only
//! assert this engine used to carry.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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
#[derive(Clone, Debug)]
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

/// A lane member (see [`Engine::run_periodic`]): its next turn and how
/// many times it has fired since it was last settled.
#[derive(Clone, Debug)]
struct Member<E> {
    ev: Scheduled<E>,
    fires: u64,
}

impl<E> Member<E> {
    /// A member that has fired once and is next due at `(at, seq)`.
    fn new(at: Cycles, seq: u64, payload: E) -> Self {
        Member {
            ev: Scheduled { at, seq, payload },
            fires: 1,
        }
    }

    /// Fire `rounds` more turns, one period apart; the last reschedule
    /// takes sequence number `seq`.
    fn repeat(&mut self, rounds: u64, period: Cycles, seq: u64) {
        self.ev.at += period * rounds;
        self.ev.seq = seq;
        self.fires += rounds;
    }

    /// Have `group` apply the turns fired since the last settle.
    fn settle<G: Periodic<E>>(&mut self, group: &mut G) {
        group.settle(&mut self.ev.payload, self.fires, self.ev.at);
        self.fires = 0;
    }
}

/// The caller's side of [`Engine::run_periodic`]: which pending events
/// belong to the run's group, and what a member's payload becomes when
/// the run ends.
pub trait Periodic<E> {
    /// Whether `ev`, a pending event, is a member: dispatching it would
    /// do nothing but schedule it again one period later, the period of
    /// this run. It is asked about the next event due and, when a run
    /// starts, about every member kept from the last run, which may be
    /// due later and may spin with another period; nothing but members
    /// is dispatched in between, so the answer must not depend on when
    /// `ev` is due, and it must be false for an event that spins with
    /// another period.
    fn joins(&self, ev: &E) -> bool;

    /// A member fired `fires` times since it was last settled and is
    /// next due at `at`: apply what those dispatches did and rewrite `ev`
    /// into the payload the last of them would have scheduled. It is
    /// called once at the end of every run in which the member fired,
    /// so a member kept across runs is settled more than once, and each
    /// call must add its `fires` to what the earlier ones applied.
    fn settle(&mut self, ev: &mut E, fires: u64, at: Cycles);
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
#[derive(Clone, Debug)]
pub struct Engine<E> {
    now: Cycles,
    seq: u64,
    popped: u64,
    /// Every pending event outside the lane, minimum `(at, seq)` on top.
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    /// The pending members of the last [`Engine::run_periodic`] run, in
    /// `(at, seq)` order; settled whenever no run is under way.
    lane: VecDeque<Member<E>>,
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
            lane: VecDeque::new(),
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

    /// Remove and return the heap's minimum if it fires at or before
    /// `horizon`.
    #[inline]
    fn heap_pop_within(&mut self, horizon: Cycles) -> Option<Scheduled<E>> {
        if self.heap.peek()?.0.at > horizon {
            return None;
        }
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// Remove and return the minimum pending event, the lane's front or
    /// the heap's minimum, if it fires at or before `horizon`. Out of
    /// line, so a pop with an empty lane compiles as it did without one.
    #[inline(never)]
    fn pop_min_within(&mut self, horizon: Cycles) -> Option<Scheduled<E>> {
        let lane_first = self
            .lane
            .front()
            .is_some_and(|m| self.heap.peek().is_none_or(|Reverse(next)| m.ev < *next));
        if !lane_first {
            return self.heap_pop_within(horizon);
        }
        if self.lane.front()?.ev.at > horizon {
            return None;
        }
        self.lane.pop_front().map(|m| m.ev)
    }

    /// Move every lane member into the heap. Outside a run each is
    /// settled, so its payload is what single steps would have queued.
    /// Never inlined, so `pop_with` stays as small as it was without a
    /// lane.
    #[cold]
    #[inline(never)]
    fn flush_lane(&mut self) {
        self.heap.extend(self.lane.drain(..).map(|m| Reverse(m.ev)));
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
        self.pop_until(Cycles::new(u64::MAX))
    }

    /// Pop the next event if it fires at or before `deadline`, advancing
    /// the clock to its fire time; otherwise leave the queue and clock
    /// alone. It looks at the minimum once, so a loop bounded by a
    /// deadline reads the queue once per dispatch.
    pub fn pop_until(&mut self, deadline: Cycles) -> Option<E> {
        let ev = if self.lane.is_empty() {
            self.heap_pop_within(deadline)?
        } else {
            self.pop_min_within(deadline)?
        };
        Some(self.dispatch(ev))
    }

    /// The fire time of the next pending event, without dispatching it.
    pub fn next_at(&self) -> Option<Cycles> {
        let lane = self.lane.front().map(|m| m.ev.at);
        let heap = self.heap.peek().map(|Reverse(ev)| ev.at);
        match (lane, heap) {
            (Some(lane), Some(heap)) => Some(lane.min(heap)),
            (lane, heap) => lane.or(heap),
        }
    }

    /// Dispatch, in closed form, the run of periodic events that starts
    /// with `first`, the payload just popped: it and every later member
    /// of its group that comes next in `(at, seq)` order, up to the
    /// first other pending event, the last event due by `deadline`, or
    /// `end` dispatches in all. A member is an event that, dispatched,
    /// would only schedule itself again `period` later; `group` says
    /// which pending events are members ([`Periodic::joins`]) and
    /// rewrites each member's payload once the run ends
    /// ([`Periodic::settle`]). The clock, the dispatch count, the next
    /// sequence number and every pending `(at, seq)` end exactly where
    /// single pops and `schedule_in(period, ..)` calls would leave them.
    ///
    /// Members cycle through the lane. A run first sends the heap every
    /// lane member that no longer joins (an interrupt superseded it, or
    /// it spins with another period than this run's); the rest stay,
    /// and `first`'s next turn goes to the back. With one shared period,
    /// reschedules are already in `(at, seq)` order, so the next
    /// dispatch is the heap's minimum or the lane's front, and once the
    /// lane's front comes first, whole rounds of it go at once. At the
    /// end every member that fired is settled and stays in the lane: a
    /// member passes through the heap only when it joins from there or a
    /// re-check drops it. Returns `first` untouched when `period` is zero
    /// or `first`'s own next turn would overflow the clock, so the caller
    /// steps it.
    pub fn run_periodic<G: Periodic<E>>(
        &mut self,
        first: E,
        period: Cycles,
        deadline: Cycles,
        end: u64,
        group: &mut G,
    ) -> Result<(), E> {
        let at = self.now.as_u64().checked_add(period.as_u64());
        let Some(at) = at.filter(|_| period > Cycles::ZERO) else {
            return Err(first);
        };
        self.recheck(group);
        let mut lone = Member::new(Cycles::new(at), self.seq, first);
        self.seq += 1;
        if self.lane.is_empty() {
            // Alone, a member's round is one dispatch; after its whole
            // rounds the heap's minimum is next, or the run is over.
            let (rounds, seq) = self.whole_rounds(lone.ev.at, 1, deadline, period, end);
            if rounds > 0 {
                lone.repeat(rounds, period, seq + rounds - 1);
            }
            if !self.next_joins((lone.ev.at, lone.ev.seq), deadline, period, end, group) {
                lone.settle(group);
                self.lane.push_back(lone);
                return Ok(());
            }
        }
        self.lane.push_back(lone);
        self.run_lane(period, deadline, end, group);
        Ok(())
    }

    /// Send every lane member that no longer joins `group` to the heap,
    /// where it is dispatched as any other event.
    #[inline]
    fn recheck<G: Periodic<E>>(&mut self, group: &G) {
        let mut from = 0;
        while let Some(i) = self
            .lane
            .range(from..)
            .position(|m| !group.joins(&m.ev.payload))
        {
            from += i;
            if let Some(m) = self.lane.remove(from) {
                self.heap.push(Reverse(m.ev));
            }
        }
    }

    /// The rest of [`Engine::run_periodic`] once the lane holds a second
    /// member: the merge with the heap. Kept out of line, so the path of
    /// a lone member (the Figure 5–8 responder) stays short.
    #[inline(never)]
    fn run_lane<G: Periodic<E>>(
        &mut self,
        period: Cycles,
        deadline: Cycles,
        end: u64,
        group: &mut G,
    ) {
        while let Some(front) = self.lane.front().map(|m| (m.ev.at, m.ev.seq)) {
            if self.next_joins(front, deadline, period, end, group) {
                let Some(Reverse(ev)) = self.heap.pop() else {
                    break;
                };
                self.now = ev.at;
                self.popped += 1;
                self.lane
                    .push_back(Member::new(ev.at + period, self.seq, ev.payload));
                self.seq += 1;
                continue;
            }
            if self
                .heap
                .peek()
                .is_some_and(|Reverse(next)| (next.at, next.seq) < front)
            {
                break;
            }
            let k = self.lane.len() as u64;
            let back = self.lane.back().map_or(front.0, |m| m.ev.at);
            let (rounds, seq) = self.whole_rounds(back, k, deadline, period, end);
            if rounds > 0 {
                for (i, m) in self.lane.iter_mut().enumerate() {
                    m.repeat(rounds, period, seq + (rounds - 1) * k + i as u64);
                }
                continue;
            }
            // Less than a round is left: one dispatch of the front.
            if front.0 > deadline
                || self.popped >= end
                || front.0.as_u64().checked_add(period.as_u64()).is_none()
            {
                break;
            }
            let Some(mut m) = self.lane.pop_front() else {
                break;
            };
            self.now = front.0;
            self.popped += 1;
            m.repeat(1, period, self.seq);
            self.seq += 1;
            self.lane.push_back(m);
        }
        for m in self.lane.iter_mut().filter(|m| m.fires > 0) {
            m.settle(group);
        }
    }

    /// Whether the heap's minimum comes before a member due at `front`
    /// in `(at, seq)` order and joins the run: a member due by
    /// `deadline`, inside the budget of `end` dispatches, with its next
    /// turn on the clock, and not behind the clock (a stale fire time
    /// must reach the caller, which records it). Sequence numbers decide
    /// a tie: a member kept in the lane across runs can be older than an
    /// event queued between them.
    #[inline]
    fn next_joins<G: Periodic<E>>(
        &self,
        front: (Cycles, u64),
        deadline: Cycles,
        period: Cycles,
        end: u64,
        group: &G,
    ) -> bool {
        self.heap.peek().is_some_and(|Reverse(next)| {
            (next.at, next.seq) < front
                && next.at >= self.now
                && next.at <= deadline
                && self.popped < end
                && next.at.as_u64().checked_add(period.as_u64()).is_some()
                && group.joins(&next.payload)
        })
    }

    /// Run as many whole rounds of a `k`-member lane whose last member
    /// is due at `back` as fit strictly before the heap's minimum, by
    /// `deadline`, inside the budget of `end` dispatches and with every
    /// next turn on the clock: move the clock to the last of their
    /// dispatches and count them. Returns how many rounds ran and the
    /// first sequence number they took; round `r` gives the member at
    /// lane position `i` the sequence number `seq + r·k + i`, so the
    /// order holds.
    #[inline]
    fn whole_rounds(
        &mut self,
        back: Cycles,
        k: u64,
        deadline: Cycles,
        period: Cycles,
        end: u64,
    ) -> (u64, u64) {
        let seq = self.seq;
        let next = self
            .heap
            .peek()
            .map(|Reverse(next)| next.at.saturating_sub(Cycles::new(1)));
        let limit = next.map_or(deadline, |next| next.min(deadline));
        if back > limit {
            return (0, seq);
        }
        let p = period.as_u64();
        let mut rounds = (limit - back).as_u64() / p + 1;
        // Divide only when the budget binds: under `run_until` it is
        // `u64::MAX`, and a 64-bit division is among the slowest
        // instructions on a lone member's path.
        let budget = end.saturating_sub(self.popped);
        if rounds.saturating_mul(k) > budget {
            rounds = budget / k;
        }
        if p.checked_mul(rounds)
            .and_then(|d| back.as_u64().checked_add(d))
            .is_none()
        {
            rounds = rounds.min((u64::MAX - back.as_u64()) / p);
        }
        if rounds > 0 {
            self.now = back + period * (rounds - 1);
            self.popped += rounds * k;
            self.seq += rounds * k;
        }
        (rounds, seq)
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
    /// included: the scheduler sees only the candidate count. It empties
    /// the lane into the heap first and then reads the heap alone.
    pub fn pop_with<S, F>(&mut self, sched: &mut S, eligible: F) -> Option<E>
    where
        S: Scheduler,
        F: Fn(&E) -> bool,
    {
        if !self.lane.is_empty() {
            self.flush_lane();
        }
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
        while let Some(ev) = self.heap_pop_within(horizon) {
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

    /// How many candidates the next [`Engine::pop_with`] would hand a
    /// scheduler whose window is `window`, with the same `eligible`: 1
    /// when it would not ask, 0 when nothing is pending. Reads the heap
    /// and the lane in place, so a caller can tell a branch point before
    /// popping it.
    pub fn candidates<F>(&self, window: Cycles, eligible: F) -> usize
    where
        F: Fn(&E) -> bool,
    {
        let heap_min = self.heap.peek().map(|Reverse(ev)| ev);
        let Some(first) = heap_min
            .into_iter()
            .chain(self.lane.front().map(|m| &m.ev))
            .min()
        else {
            return 0;
        };
        let pending = self
            .heap
            .iter()
            .map(|Reverse(ev)| ev)
            .chain(self.lane.iter().map(|m| &m.ev));
        let t_min = first.at.max(self.now);
        let horizon = t_min + window;
        let others = pending.filter(|ev| {
            ev.seq != first.seq && ev.at <= horizon && (ev.at == t_min || eligible(&ev.payload))
        });
        1 + others.count()
    }

    /// All pending events, the heap's and the lane's, in canonical
    /// `(fire time, seq)` order — the deterministic view a state digest
    /// needs (the heap's internal order is not meaningful).
    pub fn pending(&self) -> Vec<(Cycles, u64, &E)> {
        let heap = self.heap.iter().map(|Reverse(s)| s);
        let mut v: Vec<(Cycles, u64, &E)> = heap
            .chain(self.lane.iter().map(|m| &m.ev))
            .map(|s| (s.at, s.seq, &s.payload))
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
        e.lane.clear();
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
        popped: u64,
        regressions: u64,
        queue: BTreeMap<(Cycles, u64), u64>,
    }

    impl Reference {
        fn schedule_in(&mut self, delay: Cycles, v: u64) {
            self.schedule_at_unchecked(self.now + delay, v);
        }

        fn schedule_at_unchecked(&mut self, at: Cycles, v: u64) {
            self.queue.insert((at, self.seq), v);
            self.seq += 1;
        }

        fn pop_until(&mut self, deadline: Cycles) -> Option<u64> {
            let entry = self.queue.first_entry()?;
            if entry.key().0 > deadline {
                return None;
            }
            let ((at, _), v) = entry.remove_entry();
            if at < self.now {
                self.regressions += 1;
            }
            self.now = self.now.max(at);
            self.popped += 1;
            Some(v)
        }

        fn pending(&self) -> Vec<(Cycles, u64, &u64)> {
            self.queue
                .iter()
                .map(|(&(at, seq), v)| (at, seq, v))
                .collect()
        }

        /// The candidates a pop with a scheduler would gather: the
        /// minimum, fired no earlier than the clock, then every event up
        /// to `window` past that time that ties with it or is `eligible`.
        fn candidates(&self, window: Cycles, eligible: impl Fn(u64) -> bool) -> usize {
            let Some((&(at, _), _)) = self.queue.first_key_value() else {
                return 0;
            };
            let t_min = at.max(self.now);
            let horizon = t_min + window;
            let others = self.queue.iter().skip(1);
            let due = others.take_while(|((at, _), _)| *at <= horizon);
            1 + due
                .filter(|((at, _), v)| *at == t_min || eligible(**v))
                .count()
        }
    }

    /// A FIFO scheduler with a timing window that records the candidate
    /// count it is handed.
    struct Recorder {
        window: Cycles,
        handed: Option<usize>,
    }

    impl Scheduler for Recorder {
        fn window(&self) -> Cycles {
            self.window
        }

        fn choose(&mut self, candidates: usize) -> usize {
            self.handed = Some(candidates);
            0
        }
    }

    /// `pop_with` under a [`Recorder`] with `window`, requiring that
    /// [`Engine::candidates`] said beforehand how many candidates the
    /// scheduler would be handed (1 when it is not asked). Returns the
    /// payload and that count.
    fn counted_pop(
        e: &mut Engine<u64>,
        window: Cycles,
        eligible: impl Fn(&u64) -> bool,
    ) -> (Option<u64>, usize) {
        let count = e.candidates(window, &eligible);
        let mut rec = Recorder {
            window,
            handed: None,
        };
        let got = e.pop_with(&mut rec, eligible);
        let handed = match got {
            Some(_) => rec.handed.unwrap_or(1),
            None => 0,
        };
        assert_eq!(count, handed, "candidates() disagrees with pop_with");
        (got, count)
    }

    /// Drive an engine and the [`Reference`] through the same seeded
    /// mix of schedules (ties, near, medium and long delays, and now and
    /// then one behind the clock) and pops (`pop`, `pop_until` and
    /// `pop_with` with a recording FIFO scheduler whose window is 0 or
    /// [`CHURN_WINDOW`]), requiring the same payload, clock and pending
    /// list at every step, until the queue drains. Before every
    /// `pop_with`, [`Engine::candidates`] and the reference must both
    /// give the count the scheduler is handed. Returns the engine, the
    /// number of events scheduled, the peak queue length and how often
    /// each kind of candidate was seen.
    fn churn(seed: u64) -> (Engine<u64>, u64, usize, Candidates) {
        let mut rng = SplitMix64::new(seed);
        let mut e: Engine<u64> = Engine::new();
        let mut r = Reference::default();
        let mut seen = Candidates::default();
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
                _ => {
                    let window = [Cycles::ZERO, CHURN_WINDOW][rng.gen_range(2) as usize];
                    let odd = |v: u64| v % 2 == 1;
                    seen.record(&r, window, odd);
                    let (got, count) = counted_pop(&mut e, window, |v| odd(*v));
                    assert_eq!(count, r.candidates(window, odd), "seed {seed:#x}");
                    (got, r.pop_until(Cycles::new(u64::MAX)))
                }
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
            if n > 0 && rng.gen_range(200) == 0 {
                // A corrupted schedule: an event behind the clock.
                let at = e.now().saturating_sub(Cycles::new(1 + rng.gen_range(50)));
                e.schedule_at_unchecked(at, next);
                r.schedule_at_unchecked(at, next);
                next += 1;
            }
        }
        assert!(r.queue.is_empty(), "seed {seed:#x}");
        (e, next, peak, seen)
    }

    /// The timing window of the churn's windowed pops.
    const CHURN_WINDOW: Cycles = Cycles::new(200);

    /// How many windowed pops of the churn met each kind of candidate.
    #[derive(Debug, Default)]
    struct Candidates {
        /// Another event at the minimum's fire time.
        ties: u64,
        /// An eligible event after it, inside the window...
        in_window: u64,
        /// ...and one past the window.
        past_window: u64,
        /// A minimum behind the clock.
        behind: u64,
    }

    impl Candidates {
        fn record(&mut self, r: &Reference, window: Cycles, eligible: impl Fn(u64) -> bool) {
            let mut queue = r.queue.iter();
            let Some((&(at, _), _)) = queue.next() else {
                return;
            };
            self.behind += u64::from(at < r.now);
            let t_min = at.max(r.now);
            let horizon = t_min + window;
            let (mut tie, mut inside, mut past) = (false, false, false);
            for (&(at, _), &v) in queue {
                tie |= at == t_min;
                inside |= at > t_min && at <= horizon && eligible(v);
                past = at > horizon && eligible(v);
                if past {
                    break;
                }
            }
            self.ties += u64::from(tie);
            self.in_window += u64::from(inside);
            self.past_window += u64::from(past);
        }
    }

    #[test]
    fn queue_matches_a_sorted_map_reference() {
        for seed in [0u64, 1, 0x51ab, 0xdead_beef] {
            let (e, scheduled, peak, seen) = churn(seed);
            assert!(
                peak > 1_000,
                "seed {seed:#x}: the churn builds a deep queue"
            );
            assert_eq!(e.events_processed(), scheduled, "seed {seed:#x}");
            assert!(
                seen.ties > 10 && seen.in_window > 10 && seen.past_window > 10 && seen.behind > 0,
                "seed {seed:#x}: {seen:?}"
            );
        }
    }

    /// A toy machine for [`Engine::run_periodic`]. Spinner `id` (an
    /// index into `periods`) is live while its pending turn carries its
    /// current token, and a live turn schedules the next one a period
    /// later. An interrupt (`IRQ`) may schedule another interrupt and
    /// may supersede a spinner's turn with one up to six periods ahead,
    /// leaving the old turn behind as a stale event.
    struct World {
        periods: Vec<u64>,
        tokens: Vec<u64>,
        rng: SplitMix64,
        irqs: u64,
    }

    const IRQ: u64 = u32::MAX as u64;

    fn turn(id: u64, token: u64) -> u64 {
        id << 32 | token
    }

    impl World {
        fn new(seed: u64, periods: Vec<u64>, irqs: u64) -> Self {
            let tokens = vec![0; periods.len()];
            World {
                periods,
                tokens,
                rng: SplitMix64::new(seed),
                irqs,
            }
        }

        /// The period of `ev` if it is a spinner's live turn.
        fn live(&self, ev: u64) -> Option<u64> {
            let (id, token) = ((ev >> 32) as usize, ev & u64::from(u32::MAX));
            let period = *self.periods.get(id)?;
            (self.tokens[id] == token).then_some(period)
        }

        /// A new live turn for spinner `id`, superseding its pending one.
        fn supersede(&mut self, id: usize) -> u64 {
            self.tokens[id] += 1;
            turn(id as u64, self.tokens[id])
        }

        /// Dispatch `ev` one step at a time: what it schedules, as
        /// `(delay, payload)` pairs.
        fn step(&mut self, ev: u64) -> Vec<(u64, u64)> {
            if let Some(period) = self.live(ev) {
                return vec![(period, self.supersede((ev >> 32) as usize))];
            }
            let mut out = Vec::new();
            if ev == turn(IRQ, 0) && self.irqs > 0 {
                self.irqs -= 1;
                let p = self.periods[0];
                out.push((self.rng.gen_range(4 * p), turn(IRQ, 0)));
                if self.rng.gen_range(2) == 0 {
                    let id = self.rng.gen_range(self.periods.len() as u64) as usize;
                    let delay = self.rng.gen_range(6 * self.periods[id]);
                    out.push((delay, self.supersede(id)));
                }
            }
            out
        }
    }

    /// The spinners of one period, as `run_periodic` sees them; counts
    /// the members it settles.
    struct Spinners<'a> {
        world: &'a mut World,
        period: u64,
        members: u64,
    }

    impl Periodic<u64> for Spinners<'_> {
        fn joins(&self, ev: &u64) -> bool {
            self.world.live(*ev) == Some(self.period)
        }

        fn settle(&mut self, ev: &mut u64, fires: u64, _at: Cycles) {
            let id = *ev >> 32;
            self.world.tokens[id as usize] += fires;
            *ev = turn(id, self.world.tokens[id as usize]);
            self.members += 1;
        }
    }

    /// How often each way into and out of a `run_periodic` call was
    /// taken.
    #[derive(Default, Debug)]
    struct Coverage {
        largest_group: u64,
        lone: u64,
        /// Groups of two or more stopped by the budget, the deadline,
        /// and another event.
        budget_cuts: u64,
        deadline_cuts: u64,
        event_cuts: u64,
        /// Runs that resumed lane members kept across a non-member
        /// dispatch.
        lane_resumes: u64,
        /// Runs whose re-check sent a superseded lane member to the heap.
        lane_drops: u64,
        /// Lanes whose members a run of another period sent to the heap,
        /// and lanes emptied into the heap by `pop_with`.
        period_flushes: u64,
        pop_with_flushes: u64,
        /// Pops from a lane-holding engine that branched on a tie.
        lane_ties: u64,
        /// Whether a non-member was dispatched since the last run.
        stepped: bool,
    }

    impl Coverage {
        /// Classify the lane that a run of `period` starts from.
        fn run_starts(&mut self, e: &Engine<u64>, w: &World, period: u64) {
            let stepped = std::mem::take(&mut self.stepped);
            if e.lane.is_empty() {
                return;
            }
            let periods = e.lane.iter().filter_map(|m| w.live(m.ev.payload));
            if periods.clone().any(|p| p != period) {
                self.period_flushes += 1;
                return;
            }
            let kept = periods.count();
            self.lane_drops += u64::from(kept < e.lane.len());
            self.lane_resumes += u64::from(kept > 0 && stepped);
        }
    }

    /// Dispatch what is due by `deadline`, up to `end` dispatches, the
    /// way `Machine::run_until` does: a spinner's live turn starts a
    /// closed-form run of its period's group; anything else, or a turn
    /// popped behind the clock, steps.
    fn run_closed(
        e: &mut Engine<u64>,
        w: &mut World,
        deadline: Cycles,
        end: u64,
        cov: &mut Coverage,
    ) {
        while e.events_processed() < end {
            let Some(mut ev) = e.pop_until(deadline) else {
                return;
            };
            let period = w.live(ev).filter(|_| !e.has_time_errors());
            e.take_time_errors();
            if let Some(period) = period {
                cov.run_starts(e, w, period);
                let mut group = Spinners {
                    world: w,
                    period,
                    members: 0,
                };
                match e.run_periodic(ev, Cycles::new(period), deadline, end, &mut group) {
                    Ok(()) => {
                        let k = group.members;
                        cov.largest_group = cov.largest_group.max(k);
                        if k == 1 {
                            cov.lone += 1;
                        } else if e.events_processed() == end {
                            cov.budget_cuts += 1;
                        } else if e.next_at().is_none_or(|at| at > deadline) {
                            cov.deadline_cuts += 1;
                        } else {
                            cov.event_cuts += 1;
                        }
                        continue;
                    }
                    Err(first) => ev = first,
                }
            }
            cov.stepped = true;
            for (delay, v) in w.step(ev) {
                e.schedule_in(Cycles::new(delay), v);
            }
        }
    }

    /// The same one dispatch at a time through `pop_with` under a FIFO
    /// scheduler, the way `Machine::step_with` does, checking each pop's
    /// candidate count.
    fn run_fifo(
        e: &mut Engine<u64>,
        w: &mut World,
        deadline: Cycles,
        end: u64,
        cov: &mut Coverage,
    ) {
        while e.events_processed() < end && e.next_at().is_some_and(|at| at <= deadline) {
            let lane = !e.lane.is_empty();
            let (got, count) = counted_pop(e, Cycles::ZERO, |_| false);
            cov.pop_with_flushes += u64::from(lane);
            cov.lane_ties += u64::from(lane && count > 1);
            let Some(ev) = got else {
                return;
            };
            e.take_time_errors();
            cov.stepped = true;
            for (delay, v) in w.step(ev) {
                e.schedule_in(Cycles::new(delay), v);
            }
        }
    }

    /// The same, one dispatch at a time.
    fn run_stepped(r: &mut Reference, w: &mut World, deadline: Cycles, end: u64) {
        while r.popped < end {
            let Some(ev) = r.pop_until(deadline) else {
                return;
            };
            for (delay, v) in w.step(ev) {
                r.schedule_in(Cycles::new(delay), v);
            }
        }
    }

    fn assert_same(e: &Engine<u64>, r: &Reference, closed: &World, stepped: &World, case: &str) {
        assert_eq!(e.now(), r.now, "{case}: clock");
        assert_eq!(e.events_processed(), r.popped, "{case}: dispatches");
        assert_eq!(e.seq, r.seq, "{case}: next sequence number");
        assert_eq!(e.regressions, r.regressions, "{case}: regressions");
        assert_eq!(e.pending(), r.pending(), "{case}: pending");
        assert_eq!(closed.tokens, stepped.tokens, "{case}: tokens");
    }

    /// Pop everything pending without stepping it: the drained order.
    fn drain(e: &mut Engine<u64>, r: &mut Reference) {
        let closed: Vec<_> = std::iter::from_fn(|| e.pop().map(|v| (v, e.now()))).collect();
        let stepped: Vec<_> =
            std::iter::from_fn(|| r.pop_until(Cycles::new(u64::MAX)).map(|v| (v, r.now))).collect();
        assert_eq!(closed, stepped);
    }

    /// Build the same engine and reference from `(at, payload)` pairs.
    fn filled(events: &[(u64, u64)]) -> (Engine<u64>, Reference) {
        let (mut e, mut r) = (Engine::new(), Reference::default());
        for &(at, v) in events {
            e.schedule_at(Cycles::new(at), v);
            r.schedule_at_unchecked(Cycles::new(at), v);
        }
        (e, r)
    }

    #[test]
    fn run_periodic_matches_single_steps() {
        // Groups of 1–8 spinners with period P beside two spinners of
        // another period and a stream of interrupts that supersede turns
        // (leaving stale ones behind) and push them up to six periods
        // ahead. A seeded ladder of deadlines and budgets cuts runs
        // mid-round, and some rungs step through `pop_with` instead;
        // after each rung the closed-form engine must match the stepped
        // reference, and both must drain in the same order.
        let mut cov = Coverage::default();
        let mut rungs = 0;
        for seed in 0..48u64 {
            let mut rng = SplitMix64::new(0x9e71_0d1c ^ seed);
            let p = [1, 2, 3, 7, 200][seed as usize % 5];
            let k = 1 + seed % 8;
            let mut periods = vec![p; k as usize];
            periods.extend([p + 1, 2 * p]);
            let mut events = Vec::new();
            for id in 0..periods.len() as u64 {
                events.push((rng.gen_range(3 * p), turn(id, 0)));
            }
            // Deterministic ties at the first turn of spinner 0: an
            // interrupt queued after it (the spinner goes first) and one
            // queued before spinner 1's (the interrupt goes first).
            events.push((events[0].0, turn(IRQ, 0)));
            events.insert(0, (events[1].0, turn(IRQ, 0)));
            let (mut e, mut r) = filled(&events);
            let (mut wc, mut ws) = (
                World::new(seed, periods.clone(), 60),
                World::new(seed, periods, 60),
            );
            // A stale turn: spinner 0's first turn superseded by one
            // three periods later.
            let v = wc.supersede(0);
            ws.supersede(0);
            e.schedule_at(Cycles::new(3 * p), v);
            r.schedule_at_unchecked(Cycles::new(3 * p), v);
            let mut deadline = 0u64;
            while wc.irqs > 0 || deadline < 400 * p {
                let end = match rng.gen_range(4) {
                    0 => e.events_processed() + rng.gen_range(3 * k + 2),
                    _ => u64::MAX,
                };
                deadline += match rng.gen_range(6) {
                    0 => rng.gen_range(60 * p),
                    1 => rng.gen_range(2),
                    _ => rng.gen_range(4 * p),
                };
                let d = Cycles::new(deadline);
                if rng.gen_range(8) == 0 {
                    run_fifo(&mut e, &mut wc, d, end, &mut cov);
                } else {
                    run_closed(&mut e, &mut wc, d, end, &mut cov);
                }
                run_stepped(&mut r, &mut ws, d, end);
                assert_same(
                    &e,
                    &r,
                    &wc,
                    &ws,
                    &format!("seed {seed}, P {p}, rung {rungs}"),
                );
                rungs += 1;
            }
            drain(&mut e, &mut r);
        }
        assert!(rungs > 2_000, "only {rungs} rungs");
        assert_eq!(cov.largest_group, 8, "{cov:?}");
        assert!(
            cov.lone > 50 && cov.budget_cuts > 50 && cov.deadline_cuts > 50 && cov.event_cuts > 50,
            "{cov:?}"
        );
        assert!(
            cov.lane_resumes > 50
                && cov.lane_drops > 50
                && cov.period_flushes > 50
                && cov.pop_with_flushes > 50
                && cov.lane_ties > 10,
            "{cov:?}"
        );
    }

    #[test]
    fn a_lane_member_fires_before_a_tie_queued_between_runs() {
        // Two spinners of period 10 run to cycle 100 and stay in the
        // lane, spinner 1 next due at 105. Between runs, a turn of
        // spinner 2 is queued at 103 and one of spinner 3 at 105, the
        // cycle of spinner 1's older turn. The run that spinner 2 starts
        // takes one more dispatch, and it must be spinner 1's.
        let p = 10;
        let (mut e, mut r) = filled(&[(0, turn(0, 0)), (5, turn(1, 0))]);
        let (mut wc, mut ws) = (World::new(3, vec![p; 4], 0), World::new(3, vec![p; 4], 0));
        let mut cov = Coverage::default();
        let d = Cycles::new(100);
        run_closed(&mut e, &mut wc, d, u64::MAX, &mut cov);
        run_stepped(&mut r, &mut ws, d, u64::MAX);
        assert_same(&e, &r, &wc, &ws, "first run");
        let lane = e
            .lane
            .iter()
            .map(|m| (m.ev.at.as_u64(), m.ev.payload >> 32));
        assert_eq!(lane.collect::<Vec<_>>(), [(105, 1), (110, 0)]);
        for (at, id) in [(103, 2), (105, 3)] {
            e.schedule_at(Cycles::new(at), turn(id, 0));
            r.schedule_at_unchecked(Cycles::new(at), turn(id, 0));
        }
        let (fired, forever) = (wc.tokens[1], Cycles::new(u64::MAX));
        let end = e.events_processed() + 2;
        run_closed(&mut e, &mut wc, forever, end, &mut cov);
        run_stepped(&mut r, &mut ws, forever, end);
        assert_eq!(
            (wc.tokens[1] - fired, wc.tokens[3]),
            (1, 0),
            "spinner 1 first"
        );
        assert_same(&e, &r, &wc, &ws, "the tie");
        run_closed(&mut e, &mut wc, Cycles::new(300), u64::MAX, &mut cov);
        run_stepped(&mut r, &mut ws, Cycles::new(300), u64::MAX);
        assert_same(&e, &r, &wc, &ws, "after the tie");
        drain(&mut e, &mut r);
    }

    #[test]
    fn run_periodic_stops_behind_the_clock_and_before_overflow() {
        // A live turn behind the clock must reach the caller, which
        // records the regression: queue one right after popping the
        // first member, the only moment one can sit above the clock.
        let p = 10;
        let events = [(100, turn(0, 0)), (103, turn(1, 0)), (106, turn(2, 0))];
        let (mut e, mut r) = filled(&events);
        let (mut wc, mut ws) = (World::new(1, vec![p; 3], 0), World::new(1, vec![p; 3], 0));
        let first = e.pop().expect("queued");
        assert_eq!(r.pop_until(Cycles::new(u64::MAX)), Some(first));
        let stale = wc.supersede(1);
        ws.supersede(1);
        e.schedule_at_unchecked(Cycles::new(95), stale);
        r.schedule_at_unchecked(Cycles::new(95), stale);
        let mut group = Spinners {
            world: &mut wc,
            period: p,
            members: 0,
        };
        let forever = Cycles::new(u64::MAX);
        assert!(e
            .run_periodic(first, Cycles::new(p), forever, u64::MAX, &mut group)
            .is_ok());
        for (delay, v) in ws.step(first) {
            r.schedule_in(Cycles::new(delay), v);
        }
        assert_same(&e, &r, &wc, &ws, "stopped at the stale turn");
        let mut cov = Coverage::default();
        run_closed(&mut e, &mut wc, Cycles::new(1_000), u64::MAX, &mut cov);
        run_stepped(&mut r, &mut ws, Cycles::new(1_000), u64::MAX);
        assert_eq!(e.regressions, 1);
        assert_same(&e, &r, &wc, &ws, "after the stale turn");

        // Near the end of time, whole rounds and single turns stop where
        // the next reschedule would overflow the clock, and a popped
        // turn whose own reschedule would overflow comes back untouched
        // for the caller to step. Both sides run up to that pop.
        let top = u64::MAX - 5 * p;
        let events = [
            (top, turn(0, 0)),
            (top + 4, turn(1, 0)),
            (top + 20, turn(IRQ, 0)),
        ];
        let (mut e, mut r) = filled(&events);
        let (mut wc, mut ws) = (World::new(2, vec![p; 2], 0), World::new(2, vec![p; 2], 0));
        let overflows = |w: &World, at: Cycles, ev: u64| {
            w.live(ev)
                .is_some_and(|p| at.as_u64().checked_add(p).is_none())
        };
        let returned = loop {
            let ev = e.pop().expect("a turn is left");
            let Some(period) = wc.live(ev) else {
                assert!(wc.step(ev).is_empty(), "the interrupt schedules nothing");
                continue;
            };
            let mut group = Spinners {
                world: &mut wc,
                period,
                members: 0,
            };
            let (seq, popped) = (e.seq, e.events_processed());
            if let Err(first) =
                e.run_periodic(ev, Cycles::new(period), forever, u64::MAX, &mut group)
            {
                assert_eq!((e.seq, e.events_processed()), (seq, popped), "untouched");
                break first;
            }
        };
        loop {
            let (&(at, _), &ev) = r.queue.first_key_value().expect("a turn is left");
            if overflows(&ws, at, ev) {
                break;
            }
            let end = r.popped + 1;
            run_stepped(&mut r, &mut ws, forever, end);
        }
        assert_eq!(r.pop_until(forever), Some(returned));
        assert_same(&e, &r, &wc, &ws, "at the overflowing turn");
        assert_eq!(
            e.now(),
            Cycles::new(top + 44),
            "whole rounds ran up to the end of time"
        );
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
