//! TLB geometry: set/way organisation per page size.
//!
//! A geometry is a set-indexed STLB, an optional dedicated STLB for 1G
//! pages and an optional first level of per-page-size L1 arrays. Every
//! set, at every level, replaces its entries FIFO; the geometries differ
//! only in *where* capacity pressure lands.
//!
//! [`TlbGeometry::legacy`] is the historical model and the byte-identical
//! default: one set of 1536 ways (a fully-shared pool sized like a
//! Skylake STLB) and no L1 level. That hides the phenomenon the paper's
//! huge-page experiments (§7, Table 4) turn on: a 2M mapping covers 512
//! pages with *one* entry in a small dedicated array, so fracturing it
//! back to 4K multiplies pressure on the (also small, set-indexed) 4K
//! structures — conflict misses appear that a fully-associative pool can
//! never show. [`TlbGeometry::skylake_sp`] is a faithful two-level,
//! set-associative hierarchy with per-page-size geometries taken from the
//! values Skylake-SP reports in CPUID leaf 0x18 (deterministic
//! address-translation parameters):
//!
//! | structure      | entries | ways | sets |
//! |----------------|---------|------|------|
//! | L1 DTLB 4K     | 64      | 4    | 16   |
//! | L1 DTLB 2M/4M  | 32      | 4    | 8    |
//! | L1 DTLB 1G     | 4       | 4    | 1    |
//! | STLB 4K+2M     | 1536    | 12   | 128  |
//! | STLB 1G        | 16      | 4    | 4    |
//!
//! The model is inclusive: the L1 arrays cache a subset of the STLB, so
//! presence ("is this translation cached?") is decided by the STLB level
//! and the L1 level only modulates hit cost (`L1Arrays::stlb_hit_extra`,
//! the measured ~9-cycle Skylake STLB-hit penalty, rounded to the model's
//! granularity).

/// Default STLB capacity of the legacy pool, sized like a Skylake STLB.
const DEFAULT_CAPACITY: usize = 1536;

/// One set-associative structure: `sets × ways` entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SetWays {
    /// Number of sets (1 = fully associative).
    pub(crate) sets: usize,
    /// Ways per set.
    pub(crate) ways: usize,
}

impl SetWays {
    /// The set a virtual page number indexes. Sets are indexed by the
    /// page number at the page's native shift, like hardware — entries
    /// from different PCIDs compete for the same set.
    pub(crate) fn set(self, vpn: u64) -> usize {
        (vpn % self.sets as u64) as usize
    }
}

/// The first-level arrays, one per page size, inclusive of the STLB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct L1Arrays {
    /// The arrays for 4K, 2M and 1G pages, in that order.
    pub(crate) arrays: [SetWays; 3],
    /// Extra access cycles when a translation hits the STLB but not the
    /// L1 array (the Skylake STLB-hit penalty).
    pub(crate) stlb_hit_extra: u64,
}

/// How a [`crate::Tlb`] organises its entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TlbGeometry {
    /// The set-indexed STLB, for every page size `stlb_1g` does not take.
    pub(crate) stlb: SetWays,
    /// A dedicated STLB for 1G pages; without one they share `stlb`.
    pub(crate) stlb_1g: Option<SetWays>,
    /// The first level, if any.
    pub(crate) l1: Option<L1Arrays>,
}

impl TlbGeometry {
    /// The historical fully-shared FIFO pool at the default
    /// (Skylake-STLB-sized) capacity: one set, no L1 level.
    pub fn legacy() -> Self {
        TlbGeometry {
            stlb: SetWays {
                sets: 1,
                ways: DEFAULT_CAPACITY,
            },
            stlb_1g: None,
            l1: None,
        }
    }

    /// Skylake-SP geometry from CPUID leaf 0x18 (see module docs).
    pub fn skylake_sp() -> Self {
        TlbGeometry {
            stlb: SetWays {
                sets: 128,
                ways: 12,
            },
            stlb_1g: Some(SetWays { sets: 4, ways: 4 }),
            l1: Some(L1Arrays {
                arrays: [
                    SetWays { sets: 16, ways: 4 },
                    SetWays { sets: 8, ways: 4 },
                    SetWays { sets: 1, ways: 4 },
                ],
                stlb_hit_extra: 9,
            }),
        }
    }
}

impl Default for TlbGeometry {
    fn default() -> Self {
        Self::legacy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_tables_match_cpuid() {
        let g = TlbGeometry::skylake_sp();
        let entries = |s: SetWays| s.sets * s.ways;
        let l1 = g.l1.expect("skylake has an L1 level").arrays.map(entries);
        assert_eq!(l1, [64, 32, 4]);
        assert_eq!(entries(g.stlb), 1536);
        assert_eq!(g.stlb_1g.map(entries), Some(16));
    }

    #[test]
    fn legacy_matches_historical_capacity() {
        let g = TlbGeometry::legacy();
        assert_eq!(
            g.stlb,
            SetWays {
                sets: 1,
                ways: 1536
            }
        );
        assert_eq!((g.stlb_1g, g.l1), (None, None));
    }
}
