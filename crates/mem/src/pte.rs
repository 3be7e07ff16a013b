//! Page-table entries.

use tlbdown_types::{PhysAddr, PteFlags};

/// A simulated page-table entry: a target frame plus flag bits.
///
/// Unlike hardware we keep the frame and flags in separate fields; the
/// semantics (present/huge/global/accessed/dirty...) match x86-64.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Pte {
    /// Physical frame (or next-level table) this entry points at.
    pub addr: PhysAddr,
    /// Flag bits.
    pub flags: PteFlags,
}

impl Pte {
    /// The all-zero, not-present entry.
    pub(crate) const EMPTY: Pte = Pte {
        addr: PhysAddr(0),
        flags: PteFlags(0),
    };

    /// Construct an entry.
    pub const fn new(addr: PhysAddr, flags: PteFlags) -> Self {
        Pte { addr, flags }
    }

    /// Whether the entry is valid for translation.
    pub const fn present(self) -> bool {
        self.flags.contains(PteFlags::PRESENT)
    }

    /// Whether this entry maps a hugepage at its level.
    pub(crate) const fn huge(self) -> bool {
        self.flags.contains(PteFlags::HUGE)
    }

    /// Whether the entry is writable.
    pub const fn writable(self) -> bool {
        self.flags.contains(PteFlags::WRITABLE)
    }

    /// Whether the entry is marked global.
    pub const fn global(self) -> bool {
        self.flags.contains(PteFlags::GLOBAL)
    }

    /// Whether the entry carries the dirty bit.
    pub const fn dirty(self) -> bool {
        self.flags.contains(PteFlags::DIRTY)
    }

    /// The entry with additional flags set.
    pub const fn with(self, f: PteFlags) -> Pte {
        Pte {
            addr: self.addr,
            flags: self.flags.with(f),
        }
    }

    /// The entry with flags cleared.
    pub const fn without(self, f: PteFlags) -> Pte {
        Pte {
            addr: self.addr,
            flags: self.flags.without(f),
        }
    }
}

/// One 4KB page-table page: 512 entries, as at every level of the x86-64
/// radix tree.
pub(crate) type TablePage = [Pte; 512];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_not_present() {
        assert!(!Pte::EMPTY.present());
        assert!(!Pte::EMPTY.huge());
    }

    #[test]
    fn flag_helpers() {
        let p = Pte::new(PhysAddr::new(0x1000), PteFlags::user_rw());
        assert!(p.present() && p.writable() && !p.global() && !p.dirty());
        let d = p.with(PteFlags::DIRTY);
        assert!(d.dirty());
        let wp = d.without(PteFlags::WRITABLE);
        assert!(!wp.writable());
        assert!(wp.dirty(), "clearing W must not clear D");
    }
}
