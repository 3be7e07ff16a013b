//! TLB geometry: set/way organisation per page size.
//!
//! The historical model is one unified, fully-shared FIFO pool sized like
//! a Skylake STLB (1536 entries). That hides the phenomenon the paper's
//! huge-page experiments (§7, Table 4) turn on: a 2M mapping covers 512
//! pages with *one* entry in a small dedicated array, so fracturing it
//! back to 4K multiplies pressure on the (also small, set-indexed) 4K
//! structures — conflict misses appear that a fully-associative pool can
//! never show.
//!
//! [`TlbGeometry::legacy`] keeps the historical pool exactly — the
//! byte-identical default. [`TlbGeometry::skylake_sp`] is a faithful
//! two-level, set-associative hierarchy with per-page-size geometries
//! taken from the values Skylake-SP reports in CPUID leaf 0x18
//! (deterministic address-translation parameters):
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
//! and the L1 level only modulates hit cost ([`SetAssocGeometry::
//! stlb_hit_extra`], the measured ~9-cycle Skylake STLB-hit penalty,
//! rounded to the model's granularity). Replacement is FIFO within each
//! set, matching the legacy pool's policy so the two models differ only
//! in *where* capacity pressure lands.

/// One set-associative structure: `sets × ways` entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetWays {
    /// Number of sets (1 = fully associative).
    pub sets: u32,
    /// Ways per set.
    pub ways: u32,
}

impl SetWays {
    /// Total entries.
    pub fn capacity(self) -> u32 {
        self.sets * self.ways
    }
}

/// Geometry of the two-level set-associative hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetAssocGeometry {
    /// First-level DTLB for 4K pages.
    pub l1_4k: SetWays,
    /// First-level DTLB for 2M pages.
    pub l1_2m: SetWays,
    /// First-level DTLB for 1G pages.
    pub l1_1g: SetWays,
    /// Unified second-level TLB shared by 4K and 2M pages.
    pub stlb_4k_2m: SetWays,
    /// Dedicated second-level TLB for 1G pages.
    pub stlb_1g: SetWays,
    /// Extra access cycles when a translation hits the STLB but not the
    /// L1 array (the Skylake STLB-hit penalty).
    pub stlb_hit_extra: u64,
}

/// How a [`crate::Tlb`] organises its entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TlbGeometry {
    /// One unified, fully-shared FIFO pool — the historical model and the
    /// pinned byte-identical default.
    Legacy {
        /// Pool capacity in entries.
        capacity: usize,
    },
    /// Two-level set-associative hierarchy with per-page-size geometries.
    SetAssoc(SetAssocGeometry),
}

impl TlbGeometry {
    /// The historical unified pool at the default (Skylake-STLB-sized)
    /// capacity.
    pub fn legacy() -> Self {
        TlbGeometry::Legacy {
            capacity: crate::model::DEFAULT_CAPACITY,
        }
    }

    /// Skylake-SP geometry from CPUID leaf 0x18 (see module docs).
    pub fn skylake_sp() -> Self {
        TlbGeometry::SetAssoc(SetAssocGeometry {
            l1_4k: SetWays { sets: 16, ways: 4 },
            l1_2m: SetWays { sets: 8, ways: 4 },
            l1_1g: SetWays { sets: 1, ways: 4 },
            stlb_4k_2m: SetWays {
                sets: 128,
                ways: 12,
            },
            stlb_1g: SetWays { sets: 4, ways: 4 },
            stlb_hit_extra: 9,
        })
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
        let TlbGeometry::SetAssoc(g) = TlbGeometry::skylake_sp() else {
            panic!("skylake is set-associative");
        };
        assert_eq!(g.l1_4k.capacity(), 64);
        assert_eq!(g.l1_2m.capacity(), 32);
        assert_eq!(g.l1_1g.capacity(), 4);
        assert_eq!(g.stlb_4k_2m.capacity(), 1536);
        assert_eq!(g.stlb_1g.capacity(), 16);
    }

    #[test]
    fn legacy_matches_historical_capacity() {
        let TlbGeometry::Legacy { capacity } = TlbGeometry::legacy() else {
            panic!("legacy is a pool");
        };
        assert_eq!(capacity, 1536);
    }
}
