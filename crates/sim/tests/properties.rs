//! Property tests for the event engine and statistics.

use proptest::prelude::*;
use tlbdown_sim::{Engine, SplitMix64, Summary};
use tlbdown_types::Cycles;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events pop in nondecreasing time order with FIFO ties, regardless
    /// of insertion order.
    #[test]
    fn engine_orders_events(delays in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut e: Engine<usize> = Engine::new();
        for (i, d) in delays.iter().enumerate() {
            e.schedule_in(Cycles::new(*d), i);
        }
        let mut popped = Vec::new();
        let mut last = Cycles::ZERO;
        while let Some(idx) = e.pop() {
            prop_assert!(e.now() >= last, "time went backwards");
            // FIFO among equal times: sequence numbers of equal-delay
            // events must appear in insertion order.
            if e.now() == last {
                if let Some(&prev) = popped.last() {
                    if delays[prev] == delays[idx] {
                        prop_assert!(prev < idx, "FIFO violated for equal timestamps");
                    }
                }
            }
            last = e.now();
            popped.push(idx);
        }
        prop_assert_eq!(popped.len(), delays.len());
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..delays.len()).collect::<Vec<_>>());
    }

    /// Welford summaries match the naive two-pass mean/σ within float
    /// tolerance, including under arbitrary merge splits.
    #[test]
    fn summary_matches_naive_statistics(
        data in proptest::collection::vec(-1e6f64..1e6, 2..200),
        split in 1usize..199,
    ) {
        let split = split.min(data.len() - 1);
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..split] {
            a.record(x);
        }
        for &x in &data[split..] {
            b.record(x);
        }
        a.merge(&b);
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((a.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((a.stddev() - var.sqrt()).abs() <= 1e-5 * (1.0 + var.sqrt()));
        prop_assert_eq!(a.count(), data.len() as u64);
    }

    /// gen_range is uniform enough and always in bounds; fork produces an
    /// independent stream (different values, same determinism).
    #[test]
    fn rng_bounds_and_fork(seed in any::<u64>(), bound in 1u64..1000) {
        let mut r = SplitMix64::new(seed);
        for _ in 0..200 {
            prop_assert!(r.gen_range(bound) < bound);
        }
        let mut r1 = SplitMix64::new(seed);
        let mut r2 = SplitMix64::new(seed);
        let f1: Vec<u64> = {
            let mut f = r1.fork();
            (0..8).map(|_| f.next_u64()).collect()
        };
        let f2: Vec<u64> = {
            let mut f = r2.fork();
            (0..8).map(|_| f.next_u64()).collect()
        };
        prop_assert_eq!(f1, f2, "forking is deterministic");
    }
}
