//! Allocation guard for the shootdown's coherence path.
//!
//! A counting global allocator counts the allocations made on the calling
//! thread (the test harness runs tests on parallel threads), and the tests
//! assert that pricing a shootdown's per-target coherence traffic allocates
//! nothing once its lines are warm, and that a routed transfer or IPI on
//! the ring or mesh allocates nothing once the link map holds its edges.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tlbdown_cache::CacheDirectory;
use tlbdown_core::smp::run_script;
use tlbdown_core::SmpLayer;
use tlbdown_topo::{Interconnect, TopologySpec};
use tlbdown_types::{CoreId, CostModel, Topology};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the allocator's; counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// The 2×56 SMT scale tier's machine.
fn scale_tier() -> Topology {
    Topology::new(2, 56).with_smt(2)
}

#[test]
fn a_grown_line_reads_and_writes_without_allocating() {
    let topo = scale_tier();
    let n = topo.num_cores();
    let mut dir = CacheDirectory::new(topo, CostModel::default());
    let line = dir.new_line();
    // Grow the holder vector to every core: a broadcast fan-out.
    for c in 0..n {
        dir.read(CoreId(c), line);
    }
    let again = allocations(|| {
        for round in 0..4 {
            // Exclusive → Shared, and a sharer set grown back to every core.
            dir.write(CoreId(round * 29 % n), line);
            for c in 0..n {
                dir.read(CoreId((c + round) % n), line);
            }
            // Reads and writes of an exclusive line.
            dir.write(CoreId(round), line);
            dir.read(CoreId(round + 1), line);
            dir.write(CoreId(round + 1), line);
        }
    });
    assert_eq!(again, 0, "a grown line allocated");
}

#[test]
fn no_smp_script_allocates() {
    for consolidated in [false, true] {
        let topo = scale_tier();
        let mut dir = CacheDirectory::new(topo.clone(), CostModel::default());
        let smp = SmpLayer::new(&mut dir, topo.num_cores(), consolidated);
        let (i, t) = (CoreId(0), CoreId(60));
        let built = allocations(|| {
            [
                smp.touch_tlbstate(t).len(),
                smp.set_lazy(t).len(),
                smp.check_lazy(t).len(),
                smp.enqueue_work(i, t).len(),
                smp.fetch_work(i, t).len(),
                smp.ack(i, t).len(),
                smp.poll_ack(i, t).len(),
            ]
        });
        assert_eq!(
            built, 0,
            "building a script allocated (consolidated: {consolidated})"
        );
        // One shootdown round trip over warm lines, twice: the first
        // fills every holder vector, the second must not allocate.
        let round_trip = |dir: &mut CacheDirectory| {
            run_script(dir, i, &smp.check_lazy(t));
            run_script(dir, i, &smp.enqueue_work(i, t));
            run_script(dir, t, &smp.fetch_work(i, t));
            run_script(dir, t, &smp.ack(i, t));
            run_script(dir, i, &smp.poll_ack(i, t));
            run_script(dir, t, &smp.touch_tlbstate(t));
            run_script(dir, t, &smp.set_lazy(t));
        };
        round_trip(&mut dir);
        let warm = allocations(|| round_trip(&mut dir));
        assert_eq!(
            warm, 0,
            "a warm round trip allocated (consolidated: {consolidated})"
        );
    }
}

#[test]
fn routed_transfers_do_not_allocate() {
    // The 2×56 tier's write-then-read pairs, initiator to each other core,
    // and an IPI along each: the first round fills the link map, the
    // second must not allocate.
    for spec in [TopologySpec::Ring, TopologySpec::Mesh] {
        let topo = scale_tier();
        let n = topo.num_cores();
        let costs = CostModel::default();
        let mut dir = CacheDirectory::with_interconnect(topo.clone(), costs.clone(), spec.clone());
        let mut fabric = Interconnect::new(topo, spec.clone());
        let line = dir.new_line();
        let mut round = || {
            for c in 1..n {
                dir.write(CoreId(0), line);
                dir.read(CoreId(c), line);
                fabric.ipi_transfer(&costs, CoreId(0), CoreId(c));
            }
        };
        round();
        assert_eq!(allocations(round), 0, "a warm {spec:?} round allocated");
    }
}
