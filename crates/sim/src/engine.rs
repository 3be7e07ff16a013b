//! The event queue at the heart of the simulator.
//!
//! # Hot-path layout
//!
//! The engine stores pending events in two structures:
//!
//! - a **timing wheel** of [`WHEEL_SLOTS`] buckets, each
//!   [`SLOT_CYCLES`] cycles wide, holding every event whose fire time is
//!   within [`WHEEL_HORIZON`] cycles of the current wheel epoch — the
//!   overwhelming majority of events (per-instruction resumes, IPI
//!   deliveries, cacheline transfers all cost well under the horizon);
//! - a **far heap** (`BinaryHeap`) for the rare long timers (watchdog
//!   deadlines, batched-reclaim delays) beyond the horizon.
//!
//! Insertion into the wheel is O(1); popping scans an occupancy bitmap
//! for the next non-empty slot and takes the slot's `(at, seq)` minimum.
//! Every pop compares the wheel minimum against the far-heap minimum by
//! the same `(at, seq)` key, so the dispatch order is *exactly* the
//! total order a pure heap produces — the wheel is a performance
//! front-end, not a semantic change. `Engine::new_heap_only` disables
//! the wheel: it is the wheel's equivalence oracle, so determinism tests
//! and the BENCH_2 scale tier can run both configurations against each
//! other. These are the engine's only two front-ends.
//!
//! The wheel's single-rotation invariant: every wheel event satisfies
//! `at - epoch < WHEEL_HORIZON`, where the epoch is `now` rounded down
//! to a slot boundary. It holds at insertion by construction and is
//! preserved as `now` advances because the epoch only grows. Two wheel
//! events can therefore never map to the same slot from different
//! rotations, and scanning slots cyclically from the cursor visits
//! events in granule order.
//!
//! Time is checked on every dispatch, in release builds too: an event
//! whose fire time is behind the clock is clamped to "now" and recorded
//! as a typed [`SimError::TimeRegression`] instead of the debug-only
//! assert this engine used to carry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tlbdown_types::{Cycles, SimError};

use crate::sched::{Candidate, Scheduler};

/// log2 of the width of one wheel slot, in cycles.
///
/// The geometry trades bucket-scan length against cache footprint:
/// finer granules shorten the per-pop bucket min-scan but grow the slot
/// spine past what stays cache-resident (a 1-cycle/65536-slot wheel
/// measured *slower* than the pure heap on the 2×56-core tier purely
/// from spine misses). 64-cycle granules keep the whole wheel — spine,
/// bitmap and live buckets — under ~50KB, and at the simulator's event
/// density (one dispatch every ~2 simulated cycles on the scale tier) a
/// granule holds only a handful of events to scan.
const SLOT_SHIFT: u32 = 6;
/// Width of one wheel slot: events in the same 64-cycle granule share a
/// bucket and are min-scanned on pop.
const SLOT_CYCLES: u64 = 1 << SLOT_SHIFT;
/// Number of wheel slots (power of two so the slot index is a mask).
const WHEEL_SLOTS: usize = 1 << 11;
/// How far ahead of the wheel epoch an event may fire and still live in
/// the wheel: `SLOT_CYCLES * WHEEL_SLOTS` = 131072 cycles. Everything
/// with a longer fuse (watchdog deadlines, LATR-style deferred flushes)
/// takes the far heap.
const WHEEL_HORIZON: u64 = SLOT_CYCLES * WHEEL_SLOTS as u64;
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

/// Where the minimum pending event currently lives.
#[derive(Clone, Copy, Debug)]
enum MinLoc {
    /// `(slot, index)` into the wheel.
    Wheel(usize, usize),
    /// Top of the far heap.
    Far,
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
    /// Near-time events, bucketed by `(at >> SLOT_SHIFT) % WHEEL_SLOTS`.
    /// Empty (never allocated) in heap-only mode.
    slots: Vec<Vec<Scheduled<E>>>,
    /// Occupancy bitmap over `slots`: bit set ⇔ slot non-empty.
    occ: Vec<u64>,
    /// Number of events currently in the wheel.
    wheel_len: usize,
    /// Events beyond the wheel horizon (and, in heap-only mode, all
    /// events).
    far: BinaryHeap<Reverse<Scheduled<E>>>,
    /// When true the wheel is bypassed entirely — the reference
    /// configuration for determinism tests and the BENCH before/after.
    heap_only: bool,
    /// Reusable candidate buffer for [`Engine::pop_with`].
    cand_buf: Vec<Scheduled<E>>,
    /// Reusable passed-over buffer for [`Engine::pop_with`].
    skip_buf: Vec<Scheduled<E>>,
    /// Total number of time regressions observed (always counted).
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
    /// Create an empty engine at time zero, with the timing-wheel
    /// front-end enabled.
    pub fn new() -> Self {
        Self::with_front_end(false)
    }

    /// Create an empty engine whose events all go through the
    /// `BinaryHeap` — the pre-wheel configuration, kept as the reference
    /// for byte-identity tests and throughput comparisons.
    pub fn new_heap_only() -> Self {
        Self::with_front_end(true)
    }

    fn with_front_end(heap_only: bool) -> Self {
        let (slots, occ) = if heap_only {
            (Vec::new(), Vec::new())
        } else {
            (
                (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
                vec![0u64; WHEEL_SLOTS / 64],
            )
        };
        Engine {
            now: Cycles::ZERO,
            seq: 0,
            popped: 0,
            slots,
            occ,
            wheel_len: 0,
            far: BinaryHeap::new(),
            heap_only,
            cand_buf: Vec::new(),
            skip_buf: Vec::new(),
            regressions: 0,
            regression_log: Vec::new(),
        }
    }

    /// Whether the timing-wheel front-end is active.
    pub fn uses_wheel(&self) -> bool {
        !self.heap_only
    }

    /// The current simulated time (the fire time of the last popped event).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// The sequence number the *next* scheduled event will receive.
    ///
    /// Together with [`Engine::events_processed`] this gives trace
    /// layers two deterministic monotone stamps: one for when work was
    /// scheduled, one for the dispatch a record was emitted under. Both
    /// are pure simulation state — no host time, no allocation order —
    /// so anything keyed on them replays byte-identically.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Total number of dispatches that found an event behind the clock
    /// (each was clamped to fire "now" and logged as
    /// [`SimError::TimeRegression`]).
    pub fn time_regressions(&self) -> u64 {
        self.regressions
    }

    /// Whether any unretrieved [`SimError::TimeRegression`] records are
    /// pending. Cheap enough to poll once per dispatch.
    pub fn has_time_errors(&self) -> bool {
        !self.regression_log.is_empty()
    }

    /// Drain the pending regression records (capped at the first
    /// [`MAX_REGRESSION_LOG`] per drain; [`Engine::time_regressions`]
    /// keeps the exact total).
    pub fn take_time_errors(&mut self) -> Vec<SimError> {
        std::mem::take(&mut self.regression_log)
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the engine
    /// clamps such events to fire "now" rather than corrupting time order.
    pub fn schedule_at(&mut self, at: Cycles, payload: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.insert(Scheduled { at, seq, payload });
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
    pub fn schedule_at_unchecked(&mut self, at: Cycles, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        // Bypass the wheel: a stale time would index a slot behind the
        // cursor and mask the very corruption this models.
        self.far.push(Reverse(Scheduled { at, seq, payload }));
    }

    /// Current wheel epoch: `now` rounded down to a slot boundary.
    #[inline]
    fn epoch(&self) -> u64 {
        self.now.as_u64() >> SLOT_SHIFT << SLOT_SHIFT
    }

    /// Route one event to the wheel or the far heap, preserving its seq.
    #[inline]
    fn insert(&mut self, ev: Scheduled<E>) {
        if self.heap_only || ev.at.as_u64().wrapping_sub(self.epoch()) >= WHEEL_HORIZON {
            self.far.push(Reverse(ev));
            return;
        }
        let slot = (ev.at.as_u64() >> SLOT_SHIFT) as usize & (WHEEL_SLOTS - 1);
        self.slots[slot].push(ev);
        self.occ[slot / 64] |= 1u64 << (slot % 64);
        self.wheel_len += 1;
    }

    /// First occupied slot at or cyclically after `start`, if any.
    #[inline]
    fn first_occupied_from(&self, start: usize) -> Option<usize> {
        let words = self.occ.len();
        let (sw, sb) = (start / 64, start % 64);
        let masked = self.occ[sw] & (!0u64 << sb);
        if masked != 0 {
            return Some(sw * 64 + masked.trailing_zeros() as usize);
        }
        for step in 1..=words {
            let w = (sw + step) % words;
            let mut bits = self.occ[w];
            if w == sw {
                // Wrapped all the way around: only the bits before
                // `start` remain unexamined.
                bits &= (1u64 << sb).wrapping_sub(1);
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    /// `(at, seq, index)` of the minimum event in `slot`. The slot must
    /// be non-empty (occupancy bit set).
    #[inline]
    fn slot_min(&self, slot: usize) -> (Cycles, u64, usize) {
        let bucket = &self.slots[slot];
        let mut best = (bucket[0].at, bucket[0].seq, 0usize);
        for (i, ev) in bucket.iter().enumerate().skip(1) {
            if (ev.at, ev.seq) < (best.0, best.1) {
                best = (ev.at, ev.seq, i);
            }
        }
        best
    }

    /// The minimum pending event's key and location across the wheel
    /// and the far heap.
    #[inline]
    fn min_key(&self) -> Option<(Cycles, u64, MinLoc)> {
        let wheel = if self.wheel_len > 0 {
            let cursor = (self.now.as_u64() >> SLOT_SHIFT) as usize & (WHEEL_SLOTS - 1);
            self.first_occupied_from(cursor).map(|slot| {
                let (at, seq, idx) = self.slot_min(slot);
                (at, seq, MinLoc::Wheel(slot, idx))
            })
        } else {
            None
        };
        let far = self
            .far
            .peek()
            .map(|Reverse(ev)| (ev.at, ev.seq, MinLoc::Far));
        match (wheel, far) {
            (Some(w), Some(f)) => Some(if (w.0, w.1) <= (f.0, f.1) { w } else { f }),
            (w, f) => w.or(f),
        }
    }

    /// Remove and return the event at `loc` (as reported by
    /// [`Engine::min_key`] with no intervening mutation).
    #[inline]
    fn take_at(&mut self, loc: MinLoc) -> Option<Scheduled<E>> {
        match loc {
            MinLoc::Wheel(slot, idx) => {
                let ev = self.slots[slot].swap_remove(idx);
                if self.slots[slot].is_empty() {
                    self.occ[slot / 64] &= !(1u64 << (slot % 64));
                }
                self.wheel_len -= 1;
                Some(ev)
            }
            MinLoc::Far => self.far.pop().map(|Reverse(ev)| ev),
        }
    }

    /// Remove and return the minimum pending event.
    #[inline]
    fn pop_min(&mut self) -> Option<Scheduled<E>> {
        let (_, _, loc) = self.min_key()?;
        self.take_at(loc)
    }

    /// Remove and return the minimum pending event if it fires at or
    /// before `horizon`.
    #[inline]
    fn pop_min_within(&mut self, horizon: Cycles) -> Option<Scheduled<E>> {
        let (at, _, loc) = self.min_key()?;
        if at > horizon {
            return None;
        }
        self.take_at(loc)
    }

    /// [`Engine::pop_min_within`] restricted to wheel slot `slot` plus
    /// the far heap. Complete only when `horizon` lies in the same wheel
    /// granule as the event just dispatched and no clamp moved the
    /// clock: every other wheel slot then holds strictly later granules,
    /// so nothing outside `slot` can fire at or before `horizon`. This
    /// is the common window-0 dispatch, and it skips the second
    /// occupancy-bitmap scan a full [`Engine::min_key`] would pay.
    #[inline]
    fn pop_slot_within(&mut self, horizon: Cycles, slot: usize) -> Option<Scheduled<E>> {
        let wheel = if self.slots[slot].is_empty() {
            None
        } else {
            let (at, seq, idx) = self.slot_min(slot);
            Some((at, seq, MinLoc::Wheel(slot, idx)))
        };
        let far = self
            .far
            .peek()
            .map(|Reverse(ev)| (ev.at, ev.seq, MinLoc::Far));
        let best = match (wheel, far) {
            (Some(w), Some(f)) => {
                if (w.0, w.1) <= (f.0, f.1) {
                    w
                } else {
                    f
                }
            }
            (Some(w), None) => w,
            (None, Some(f)) => f,
            (None, None) => return None,
        };
        if best.0 > horizon {
            return None;
        }
        self.take_at(best.2)
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
        let ev = self.pop_min()?;
        Some(self.dispatch(ev))
    }

    /// Pop the next event if it fires at or before `deadline`, advancing
    /// the clock to its fire time; otherwise leave the queue and clock
    /// alone. It finds the minimum once, so a loop bounded by a deadline
    /// scans the queue once per dispatch.
    pub fn pop_until(&mut self, deadline: Cycles) -> Option<E> {
        let ev = self.pop_min_within(deadline)?;
        Some(self.dispatch(ev))
    }

    /// Pop the next event with a pluggable [`Scheduler`] deciding among
    /// commutative-ambiguous candidates (see [`crate::sched`]).
    ///
    /// Candidates are every event tied at the minimum pending fire time,
    /// plus any event within `sched.window()` of it for which `eligible`
    /// returns true (interrupt arrivals whose latency is an estimate, not
    /// a contract). When the scheduler picks a candidate later than the
    /// minimum, the passed-over events are re-queued at the chosen fire
    /// time with their original sequence numbers — i.e. they are *delayed*,
    /// never dropped or reordered among themselves, and they re-enter the
    /// candidate set on the next pop.
    ///
    /// With [`FifoScheduler`](crate::sched::FifoScheduler) this is
    /// step-for-step identical to [`Engine::pop`].
    ///
    /// The candidate and passed-over sets live in scratch buffers owned
    /// by the engine, so the common single-candidate dispatch performs no
    /// allocation; only a multi-candidate branch point (a model-checker
    /// choice) builds the borrowed [`Candidate`] views.
    pub fn pop_with<S, F>(&mut self, sched: &mut S, eligible: F) -> Option<E>
    where
        S: Scheduler<E>,
        F: Fn(&E) -> bool,
    {
        let mut first = self.pop_min()?;
        let orig_at = first.at;
        let t_min = self.checked_fire_time(first.at, first.seq);
        first.at = t_min;
        let horizon = t_min + sched.window();
        // With the wheel active, an unclamped dispatch whose horizon
        // stays inside the dispatch granule (every window-0 pop) can
        // only have candidates in that one slot or the far heap.
        let slot = (t_min.as_u64() >> SLOT_SHIFT) as usize & (WHEEL_SLOTS - 1);
        // Guard on the wheel actually being allocated: the heap-only
        // mode leaves `slots` empty and would index out of bounds here.
        let same_granule = !self.slots.is_empty()
            && orig_at == t_min
            && horizon.as_u64() >> SLOT_SHIFT == t_min.as_u64() >> SLOT_SHIFT;
        // Gather the candidate set: ties at t_min unconditionally, then
        // race-eligible events up to the horizon. Ineligible in-window
        // events are set aside untouched.
        let mut cands = std::mem::take(&mut self.cand_buf);
        let mut skipped = std::mem::take(&mut self.skip_buf);
        cands.push(first);
        loop {
            let next = if same_granule {
                self.pop_slot_within(horizon, slot)
            } else {
                self.pop_min_within(horizon)
            };
            let Some(ev) = next else { break };
            if ev.at == t_min || eligible(&ev.payload) {
                cands.push(ev);
            } else {
                skipped.push(ev);
            }
        }
        let choice = if cands.len() == 1 {
            0
        } else {
            let views: Vec<Candidate<'_, E>> = cands
                .iter()
                .map(|s| Candidate {
                    at: s.at,
                    seq: s.seq,
                    payload: &s.payload,
                })
                .collect();
            sched.choose(self.now, &views).min(cands.len() - 1)
        };
        let mut chosen = cands.swap_remove(choice);
        // Choosing a race-eligible event from later in the window means it
        // arrived *early*: it fires now, at t_min. (Its nominal time was
        // only a latency estimate.) Everything passed over — candidates
        // and ineligible in-window events alike — goes back untouched, so
        // time never advances past a pending event and the remaining
        // orders stay reachable at the next pop.
        chosen.at = t_min;
        for ev in cands.drain(..) {
            self.insert(ev);
        }
        for ev in skipped.drain(..) {
            self.insert(ev);
        }
        self.cand_buf = cands;
        self.skip_buf = skipped;
        self.now = t_min;
        self.popped += 1;
        Some(chosen.payload)
    }

    /// All pending events in canonical `(fire time, seq)` order — the
    /// deterministic view a state digest needs (neither the heap's
    /// internal order nor the wheel's bucket order is meaningful).
    pub fn pending(&self) -> Vec<(Cycles, u64, &E)> {
        // Visit only the 64-slot groups the occupancy bitmap marks: the
        // wheel has thousands of slots and usually a handful of events.
        let wheel = self
            .occ
            .iter()
            .enumerate()
            .filter(|(_, bits)| **bits != 0)
            .flat_map(|(w, _)| self.slots[w * 64..(w + 1) * 64].iter().flatten());
        let mut v: Vec<(Cycles, u64, &E)> = wheel
            .chain(self.far.iter().map(|Reverse(s)| s))
            .map(|s| (s.at, s.seq, &s.payload))
            .collect();
        v.sort_unstable_by_key(|(at, seq, _)| (*at, *seq));
        v
    }

    /// Drop all pending events and reset the clock (for test reuse).
    /// Scratch and slot capacity is retained; the front-end mode is not
    /// changed.
    pub fn reset(&mut self) {
        self.now = Cycles::ZERO;
        self.seq = 0;
        self.popped = 0;
        for s in &mut self.slots {
            s.clear();
        }
        for w in &mut self.occ {
            *w = 0;
        }
        self.wheel_len = 0;
        self.far.clear();
        self.regressions = 0;
        self.regression_log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

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
        assert_eq!(e.time_regressions(), 0, "clamped schedule is not an error");
    }

    #[test]
    fn pop_until_takes_exactly_the_due_events() {
        // Near events go to the wheel and `far` ones to the far heap;
        // payloads name the (at, seq) dispatch order.
        let far = WHEEL_HORIZON + 100;
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
            (got, e.now().as_u64(), e.len())
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
        use crate::sched::FifoScheduler;
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
        impl<E> Scheduler<E> for PickLast {
            fn choose(&mut self, _now: Cycles, c: &[Candidate<'_, E>]) -> usize {
                c.len() - 1
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
        impl<E> Scheduler<E> for PickLastWindowed {
            fn window(&self) -> Cycles {
                Cycles::new(100)
            }
            fn choose(&mut self, _now: Cycles, c: &[Candidate<'_, E>]) -> usize {
                c.len() - 1
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
        let mut heap: Engine<u32> = Engine::new_heap_only();
        // Ties, three 64-slot groups of the wheel, and the far heap.
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
            heap.schedule_at(Cycles::new(at), v);
        }
        let p = e.pending();
        let vals: Vec<u32> = p.iter().map(|(_, _, v)| **v).collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 5, 6]);
        assert!(p[0].1 < p[1].1, "ties ordered by seq");
        assert_eq!(p, heap.pending(), "the wheel lists what the heap does");
    }

    #[test]
    fn reset_clears_state() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(Cycles::new(5), 1);
        e.schedule_in(Cycles::new(500_000), 2); // one in the far heap too
        e.pop();
        e.reset();
        assert!(e.is_empty());
        assert_eq!(e.now(), Cycles::ZERO);
        assert_eq!(e.len(), 0);
        assert!(e.pending().is_empty());
    }

    #[test]
    fn trace_stamps_are_monotone() {
        let mut e: Engine<u32> = Engine::new();
        assert_eq!(e.next_seq(), 0);
        assert_eq!(e.events_processed(), 0);
        e.schedule_in(Cycles::new(5), 1);
        e.schedule_in(Cycles::new(5), 2);
        assert_eq!(e.next_seq(), 2, "one seq per scheduled event");
        e.pop();
        assert_eq!(e.events_processed(), 1);
        e.pop();
        assert_eq!(e.events_processed(), 2);
        e.reset();
        assert_eq!(e.next_seq(), 0);
    }

    #[test]
    fn far_horizon_events_cross_into_range_in_order() {
        // Events far beyond the wheel horizon stay in the far heap but
        // still interleave correctly with near events as time advances.
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(Cycles::new(WHEEL_HORIZON * 3), 30);
        e.schedule_at(Cycles::new(WHEEL_HORIZON + 5), 10);
        e.schedule_at(Cycles::new(7), 1);
        assert_eq!(e.pop(), Some(1));
        // Schedule near the far event's time *after* the clock moved.
        e.schedule_at(Cycles::new(WHEEL_HORIZON + 4), 9);
        assert_eq!(e.pop(), Some(9));
        assert_eq!(e.pop(), Some(10));
        e.schedule_at(Cycles::new(WHEEL_HORIZON * 3), 31); // tie with 30: FIFO
        assert_eq!(e.pop(), Some(30));
        assert_eq!(e.pop(), Some(31));
        assert_eq!(e.pop(), None);
    }

    /// Drive an engine through a deterministic pseudo-random
    /// schedule/pop workload and record every dispatch.
    fn churn(mut e: Engine<u64>, seed: u64) -> Vec<(u64, u64)> {
        let mut rng = SplitMix64::new(seed);
        let mut out = Vec::new();
        let mut next_payload = 0u64;
        for _ in 0..64 {
            e.schedule_in(Cycles::new(rng.gen_range(2_000)), next_payload);
            next_payload += 1;
        }
        while let Some(v) = e.pop() {
            out.push((e.now().as_u64(), v));
            if out.len() >= 20_000 {
                break;
            }
            // Mixed delay profile: ties, near, slot-boundary, far.
            let roll = rng.gen_range(100);
            let n = if next_payload < 15_000 { 2 } else { 0 };
            for _ in 0..n {
                let delay = match roll {
                    0..=9 => 0,
                    10..=69 => rng.gen_range(4_000),
                    70..=89 => SLOT_CYCLES * rng.gen_range(WHEEL_SLOTS as u64),
                    _ => WHEEL_HORIZON + rng.gen_range(1_000_000),
                };
                e.schedule_in(Cycles::new(delay), next_payload);
                next_payload += 1;
            }
        }
        out
    }

    #[test]
    fn wheel_and_heap_dispatch_identically() {
        // The structural determinism argument, checked empirically: the
        // wheel front-end must reproduce the pure heap's total order on
        // an adversarial mix of ties, near, boundary and far delays.
        for seed in [0u64, 1, 0x51ab, 0xdead_beef] {
            let wheel = churn(Engine::new(), seed);
            let heap = churn(Engine::new_heap_only(), seed);
            assert_eq!(wheel, heap, "seed {seed:#x} diverged");
        }
    }

    #[test]
    fn wheel_and_heap_agree_under_pop_with() {
        use crate::sched::FifoScheduler;
        let drive = |mut e: Engine<u64>| {
            let mut rng = SplitMix64::new(99);
            let mut sched = FifoScheduler;
            let mut out = Vec::new();
            for i in 0..32 {
                e.schedule_in(Cycles::new(rng.gen_range(500)), i);
            }
            let mut next = 32u64;
            while let Some(v) = e.pop_with(&mut sched, |p| *p % 2 == 1) {
                out.push((e.now().as_u64(), v));
                if next < 5_000 {
                    e.schedule_in(Cycles::new(rng.gen_range(3 * SLOT_CYCLES)), next);
                    next += 1;
                }
            }
            out
        };
        assert_eq!(drive(Engine::new()), drive(Engine::new_heap_only()));
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
        assert_eq!(e.time_regressions(), 1);
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
        assert_eq!(e.time_regressions(), 50);
        assert_eq!(e.take_time_errors().len(), MAX_REGRESSION_LOG);
    }

    #[test]
    fn pop_with_reports_regressions_too() {
        use crate::sched::FifoScheduler;
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(Cycles::new(100), 1);
        e.pop();
        e.schedule_at_unchecked(Cycles::new(10), 2);
        let mut s = FifoScheduler;
        assert_eq!(e.pop_with(&mut s, |_| false), Some(2));
        assert_eq!(e.now(), Cycles::new(100));
        assert_eq!(e.time_regressions(), 1);
    }

    #[test]
    fn heap_only_mode_reports_itself() {
        let e: Engine<u32> = Engine::new();
        assert!(e.uses_wheel());
        let e: Engine<u32> = Engine::new_heap_only();
        assert!(!e.uses_wheel());
    }
}
