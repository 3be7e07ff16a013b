//! Host-speed calibration.
//!
//! A shared host's speed drifts by tens of percent over seconds as other
//! tenants come and go, which swamps the differences the benchmark exists
//! to show. So every timed sample is paired with a run of a fixed
//! reference computation next to it — work shaped like a simulator
//! step (an event heap, a hash table, an ordered map of counters, small
//! allocations) that no change to the simulator can move — and scaled by
//! how much slower than nominal that reference ran. Reported times are
//! therefore host time at a fixed reference speed: the speed at which
//! the reference computation takes [`NOMINAL_SECONDS`].

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Reference-computation time defining the reference host speed (about
/// what an otherwise idle 2-vCPU Intel Xeon VM takes).
pub const NOMINAL_SECONDS: f64 = 0.002;

/// How many times slower than the reference speed the host runs right
/// now: one timed run of the reference computation over
/// [`NOMINAL_SECONDS`]. Divide a host time measured next to it by this.
pub fn slowdown() -> f64 {
    let t = Instant::now();
    black_box(reference_work(black_box(20_000)));
    t.elapsed().as_secs_f64() / NOMINAL_SECONDS
}

fn reference_work(steps: u64) -> u64 {
    const NAMES: [&str; 6] = ["a", "bb", "ccc", "dddd", "eeeee", "ffffff"];
    REFERENCE.with(|r| {
        let Reference {
            heap,
            table,
            counters,
        } = &mut *r.borrow_mut();
        heap.clear();
        table.clear();
        counters.clear();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in 0..128u64 {
            heap.push(Reverse((next() % 1_000, i)));
        }
        let mut acc = 0u64;
        for _ in 0..steps {
            let Reverse((at, id)) = heap.pop().expect("the heap never drains");
            let slot = table.entry(next() % 4_096).or_insert(0);
            *slot = slot.wrapping_add(at);
            *counters.entry(NAMES[(id % 6) as usize]).or_insert(0) += 1;
            acc = acc.wrapping_add((0..id % 8).map(|x| x ^ at).sum::<u64>());
            heap.push(Reverse((at + 1 + next() % 400, id)));
        }
        acc ^ counters.values().sum::<u64>() ^ table.len() as u64
    })
}

/// The reference computation's data structures, kept across runs so that
/// it times the host rather than the allocator's state after a job.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Fixed hash keys: the reference must not vary with the per-thread
    /// random keys that the timed jobs are sampled across.
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
    static REFERENCE: RefCell<Reference> = RefCell::default();
}
