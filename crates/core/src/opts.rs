//! The optimization switchboard.

use core::fmt;

/// Which of the paper's six optimizations are active.
///
/// Every benchmark in §5 reports latencies "as we iteratively activate the
/// optimizations, in the order in which they appear in each figure's
/// legend"; [`OptConfig::cumulative`] reproduces exactly that order.
///
/// # Examples
///
/// ```
/// use tlbdown_core::OptConfig;
///
/// // The paper's cumulative levels nest:
/// assert_eq!(OptConfig::cumulative(0), OptConfig::baseline());
/// assert_eq!(OptConfig::cumulative(6), OptConfig::all());
/// // Ablations toggle one technique at a time:
/// let only_early_ack = OptConfig::baseline().with_early_ack(true);
/// assert!(only_early_ack.early_ack && !only_early_ack.concurrent_flush);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct OptConfig {
    /// §3.1: the initiator flushes its local TLB while waiting for remote
    /// acknowledgements instead of before sending IPIs.
    pub concurrent_flush: bool,
    /// §3.2: responders acknowledge on handler entry rather than after
    /// flushing (automatically disabled when page tables are freed).
    pub early_ack: bool,
    /// §3.3: lazy-mode bit colocated with the call-single-queue head and
    /// flush info inlined into a single-cacheline call-function-data entry.
    pub cacheline_consolidation: bool,
    /// §3.4: user-PCID PTE flushes deferred until kernel exit and executed
    /// with `INVLPG` in the user context (only meaningful under PTI).
    pub in_context_flush: bool,
    /// §4.1: on CoW faults, replace the local `INVLPG` with an atomic
    /// no-op access to the faulting address (skipped for executable PTEs).
    pub cow_avoid_flush: bool,
    /// §4.2: defer shootdowns triggered inside msync / munmap /
    /// madvise(DONTNEED) and run them once at mmap_sem release.
    pub userspace_batching: bool,
    /// Follow-on (arXiv 2409.10946): keep a bounded per-mm window of
    /// recently zapped pages and elide the shootdown/flush entirely when a
    /// page cycles back into the same mapping with the same permissions and
    /// an unchanged versioned PTE.
    pub reuse_skip: bool,
    /// Follow-on (arXiv 2401.15558, numaPTE): replicate page tables
    /// per socket so walks and shootdown metadata resolve node-locally,
    /// with deterministic replica-sync shootdowns on PTE updates.
    pub numa_pte: bool,
}

/// Names of the cumulative levels, in figure-legend order.
///
/// Levels 0–6 are the source paper's six optimizations; levels 7 and 8 are
/// the follow-on-literature extensions (reuse-skip and numaPTE).
pub(crate) const CUMULATIVE_NAMES: [&str; 9] = [
    "base",
    "+concurrent",
    "+early-ack",
    "+cacheline",
    "+in-context",
    "+cow",
    "+batching",
    "+reuse-skip",
    "+numa-pte",
];

impl OptConfig {
    /// Everything off: the baseline Linux 5.2.8 protocol.
    pub const fn baseline() -> Self {
        OptConfig {
            concurrent_flush: false,
            early_ack: false,
            cacheline_consolidation: false,
            in_context_flush: false,
            cow_avoid_flush: false,
            userspace_batching: false,
            reuse_skip: false,
            numa_pte: false,
        }
    }

    /// All six of the source paper's optimizations on.
    ///
    /// The follow-on levels (`reuse_skip`, `numa_pte`) stay off here so that
    /// `cumulative(6) == all()` and every committed benchmark baseline keeps
    /// its byte-identical sim blocks.
    pub const fn all() -> Self {
        OptConfig {
            concurrent_flush: true,
            early_ack: true,
            cacheline_consolidation: true,
            in_context_flush: true,
            cow_avoid_flush: true,
            userspace_batching: true,
            reuse_skip: false,
            numa_pte: false,
        }
    }

    /// The four "general" techniques of §3 only (the Table 3 config).
    pub const fn general_four() -> Self {
        OptConfig {
            concurrent_flush: true,
            early_ack: true,
            cacheline_consolidation: true,
            in_context_flush: true,
            cow_avoid_flush: false,
            userspace_batching: false,
            reuse_skip: false,
            numa_pte: false,
        }
    }

    /// Cumulative activation level `n` in the paper's figure-legend order:
    /// 0 = baseline, 1 = +concurrent flushes, 2 = +early ack,
    /// 3 = +cacheline consolidation, 4 = +in-context flushing,
    /// 5 = +CoW avoidance, 6 = +userspace-safe batching,
    /// 7 = +reuse-skip (arXiv 2409.10946), 8 = +numaPTE (arXiv 2401.15558).
    pub const fn cumulative(n: usize) -> Self {
        OptConfig {
            concurrent_flush: n >= 1,
            early_ack: n >= 2,
            cacheline_consolidation: n >= 3,
            in_context_flush: n >= 4,
            cow_avoid_flush: n >= 5,
            userspace_batching: n >= 6,
            reuse_skip: n >= 7,
            numa_pte: n >= 8,
        }
    }

    /// Number of cumulative levels (baseline through the last follow-on
    /// level). `cumulative(n)` is distinct for every `n < NUM_LEVELS`.
    pub const NUM_LEVELS: usize = CUMULATIVE_NAMES.len();

    /// Index of the highest cumulative level (`NUM_LEVELS - 1`).
    pub const MAX_LEVEL: usize = Self::NUM_LEVELS - 1;

    /// Number of cumulative levels in the source paper itself (baseline
    /// through userspace-safe batching). The committed `BENCH_*.json`
    /// baselines render exactly these levels, so matrix cells whose
    /// output is byte-pinned loop over `0..PAPER_NUM_LEVELS`, never
    /// [`all_levels`].
    pub const PAPER_NUM_LEVELS: usize = 7;

    /// Index of the paper's highest cumulative level
    /// (`PAPER_NUM_LEVELS - 1`). `cumulative(PAPER_MAX_LEVEL)` equals
    /// [`OptConfig::all`].
    pub const PAPER_MAX_LEVEL: usize = Self::PAPER_NUM_LEVELS - 1;

    /// Iterate every cumulative level as `(level, name, config)`.
    ///
    /// Every "run all opt levels" loop in tests, gates, and benches must go
    /// through this iterator so that newly added levels are covered
    /// everywhere automatically.
    pub fn all_levels() -> impl Iterator<Item = (u8, &'static str, OptConfig)> {
        (0..Self::NUM_LEVELS).map(|n| (n as u8, CUMULATIVE_NAMES[n], Self::cumulative(n)))
    }

    /// Toggle exactly one optimization relative to `self` (ablations).
    pub const fn with_concurrent(mut self, v: bool) -> Self {
        self.concurrent_flush = v;
        self
    }

    /// `self` with early acknowledgement set to `v`.
    pub const fn with_early_ack(mut self, v: bool) -> Self {
        self.early_ack = v;
        self
    }

    /// `self` with cacheline consolidation set to `v`.
    pub const fn with_cacheline(mut self, v: bool) -> Self {
        self.cacheline_consolidation = v;
        self
    }

    /// `self` with in-context flushing set to `v`.
    pub const fn with_in_context(mut self, v: bool) -> Self {
        self.in_context_flush = v;
        self
    }

    /// `self` with CoW flush avoidance set to `v`.
    pub const fn with_cow(mut self, v: bool) -> Self {
        self.cow_avoid_flush = v;
        self
    }

    /// `self` with userspace-safe batching set to `v`.
    pub const fn with_batching(mut self, v: bool) -> Self {
        self.userspace_batching = v;
        self
    }

    /// `self` with reuse-skip (elide flushes for reused pages) set to `v`.
    pub const fn with_reuse_skip(mut self, v: bool) -> Self {
        self.reuse_skip = v;
        self
    }

    /// `self` with numaPTE per-socket page-table replication set to `v`.
    pub const fn with_numa_pte(mut self, v: bool) -> Self {
        self.numa_pte = v;
        self
    }
}

impl fmt::Display for OptConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut on = Vec::new();
        if self.concurrent_flush {
            on.push("concurrent");
        }
        if self.early_ack {
            on.push("early-ack");
        }
        if self.cacheline_consolidation {
            on.push("cacheline");
        }
        if self.in_context_flush {
            on.push("in-context");
        }
        if self.cow_avoid_flush {
            on.push("cow");
        }
        if self.userspace_batching {
            on.push("batching");
        }
        if self.reuse_skip {
            on.push("reuse-skip");
        }
        if self.numa_pte {
            on.push("numa-pte");
        }
        if on.is_empty() {
            write!(f, "baseline")
        } else {
            write!(f, "{}", on.join("+"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_levels_nest() {
        for n in 0..OptConfig::MAX_LEVEL {
            let lo = OptConfig::cumulative(n);
            let hi = OptConfig::cumulative(n + 1);
            // Each level only adds flags.
            assert!(!lo.concurrent_flush || hi.concurrent_flush);
            assert!(!lo.early_ack || hi.early_ack);
            assert!(!lo.cacheline_consolidation || hi.cacheline_consolidation);
            assert!(!lo.in_context_flush || hi.in_context_flush);
            assert!(!lo.cow_avoid_flush || hi.cow_avoid_flush);
            assert!(!lo.userspace_batching || hi.userspace_batching);
            assert!(!lo.reuse_skip || hi.reuse_skip);
            assert!(!lo.numa_pte || hi.numa_pte);
            assert_ne!(lo, hi, "each level must change something");
        }
        assert_eq!(OptConfig::cumulative(0), OptConfig::baseline());
        assert_eq!(OptConfig::cumulative(6), OptConfig::all());
    }

    #[test]
    fn follow_on_levels_default_off() {
        // The committed BENCH baselines depend on `all()` staying the
        // paper's six: the follow-on levels must be strictly opt-in.
        assert!(!OptConfig::all().reuse_skip && !OptConfig::all().numa_pte);
        assert!(!OptConfig::default().reuse_skip && !OptConfig::default().numa_pte);
        assert!(OptConfig::cumulative(7).reuse_skip && !OptConfig::cumulative(7).numa_pte);
        assert!(OptConfig::cumulative(8).reuse_skip && OptConfig::cumulative(8).numa_pte);
    }

    #[test]
    fn all_levels_covers_every_cumulative_level() {
        let levels: Vec<_> = OptConfig::all_levels().collect();
        assert_eq!(levels.len(), OptConfig::NUM_LEVELS);
        assert_eq!(levels.len(), CUMULATIVE_NAMES.len());
        for (i, (level, name, cfg)) in levels.iter().enumerate() {
            assert_eq!(*level as usize, i);
            assert_eq!(*name, CUMULATIVE_NAMES[i]);
            assert_eq!(*cfg, OptConfig::cumulative(i));
        }
        assert_eq!(levels.last().unwrap().1, "+numa-pte");
    }

    #[test]
    fn general_four_excludes_use_case_opts() {
        let g = OptConfig::general_four();
        assert!(
            g.concurrent_flush && g.early_ack && g.cacheline_consolidation && g.in_context_flush
        );
        assert!(!g.cow_avoid_flush && !g.userspace_batching);
    }

    #[test]
    fn display_names() {
        assert_eq!(OptConfig::baseline().to_string(), "baseline");
        assert_eq!(
            OptConfig::baseline()
                .with_concurrent(true)
                .with_cow(true)
                .to_string(),
            "concurrent+cow"
        );
    }
}
