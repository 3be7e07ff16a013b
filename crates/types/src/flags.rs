//! Page-table entry flag bits.
//!
//! A hand-rolled bitflags type (no external dependency) covering the x86-64
//! PTE bits the simulation needs, plus the software bits Linux uses for
//! copy-on-write bookkeeping.

use core::fmt;
use core::ops::{BitAnd, BitOr, BitOrAssign, Not, Sub};

/// Flag bits of a simulated page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PteFlags(pub u64);

impl PteFlags {
    /// Entry is valid for translation (x86 `P`).
    pub const PRESENT: PteFlags = PteFlags(1 << 0);
    /// Writes permitted (x86 `R/W`).
    pub const WRITABLE: PteFlags = PteFlags(1 << 1);
    /// User-mode access permitted (x86 `U/S`).
    pub const USER: PteFlags = PteFlags(1 << 2);
    /// Accessed by the MMU (x86 `A`).
    pub const ACCESSED: PteFlags = PteFlags(1 << 5);
    /// Written through this entry (x86 `D`).
    pub const DIRTY: PteFlags = PteFlags(1 << 6);
    /// Maps a hugepage at this level (x86 `PS`).
    pub const HUGE: PteFlags = PteFlags(1 << 7);
    /// Survives non-PCID CR3 reloads (x86 `G`); cleared on kernel data pages
    /// under PTI, which is exactly the Meltdown mitigation cost (§2.1).
    pub const GLOBAL: PteFlags = PteFlags(1 << 8);
    /// Execution forbidden (x86 `NX`, bit 63).
    pub const NX: PteFlags = PteFlags(1 << 63);
    /// Software bit: page is a copy-on-write sharee. Linux encodes this as
    /// `!pte_write && vma->vm_flags & VM_MAYWRITE`; the simulation keeps an
    /// explicit bit for clarity (uses one of the ignored bits 9-11).
    pub const COW: PteFlags = PteFlags(1 << 9);
    /// Software bit: PTE has been cleaned by writeback and awaits flush
    /// (used by the userspace-safe batching bookkeeping, §4.2).
    pub const SOFT_CLEAN: PteFlags = PteFlags(1 << 10);

    /// The empty flag set.
    pub const fn empty() -> Self {
        PteFlags(0)
    }

    /// Whether every bit in `other` is set in `self`.
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// `self` with the bits of `other` set.
    pub const fn with(self, other: PteFlags) -> Self {
        PteFlags(self.0 | other.0)
    }

    /// `self` with the bits of `other` cleared.
    pub const fn without(self, other: PteFlags) -> Self {
        PteFlags(self.0 & !other.0)
    }

    /// Flags for an ordinary private anonymous user mapping.
    pub fn user_rw() -> Self {
        PteFlags::PRESENT
            .with(PteFlags::WRITABLE)
            .with(PteFlags::USER)
            .with(PteFlags::NX)
    }

    /// Flags for a write-protected CoW user mapping.
    pub fn user_cow() -> Self {
        PteFlags::PRESENT
            .with(PteFlags::USER)
            .with(PteFlags::COW)
            .with(PteFlags::NX)
    }

    /// Flags for user-executable text.
    pub fn user_rx() -> Self {
        PteFlags::PRESENT.with(PteFlags::USER)
    }

    /// Flags for kernel data; `global` should be false when PTI is active.
    pub fn kernel_rw(global: bool) -> Self {
        let f = PteFlags::PRESENT
            .with(PteFlags::WRITABLE)
            .with(PteFlags::NX);
        if global {
            f.with(PteFlags::GLOBAL)
        } else {
            f
        }
    }

    /// Whether the entry permits the given kind of access from the given
    /// privilege level.
    pub fn permits(self, write: bool, exec: bool, user: bool) -> bool {
        if !self.contains(PteFlags::PRESENT) {
            return false;
        }
        if user && !self.contains(PteFlags::USER) {
            return false;
        }
        if write && !self.contains(PteFlags::WRITABLE) {
            return false;
        }
        if exec && self.contains(PteFlags::NX) {
            return false;
        }
        true
    }
}

impl BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        PteFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for PteFlags {
    fn bitor_assign(&mut self, rhs: PteFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for PteFlags {
    type Output = PteFlags;
    fn bitand(self, rhs: PteFlags) -> PteFlags {
        PteFlags(self.0 & rhs.0)
    }
}

impl Sub for PteFlags {
    type Output = PteFlags;
    fn sub(self, rhs: PteFlags) -> PteFlags {
        self.without(rhs)
    }
}

impl Not for PteFlags {
    type Output = PteFlags;
    fn not(self) -> PteFlags {
        PteFlags(!self.0)
    }
}

impl fmt::Debug for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        let table: &[(PteFlags, &str)] = &[
            (PteFlags::PRESENT, "P"),
            (PteFlags::WRITABLE, "W"),
            (PteFlags::USER, "U"),
            (PteFlags::ACCESSED, "A"),
            (PteFlags::DIRTY, "D"),
            (PteFlags::HUGE, "PS"),
            (PteFlags::GLOBAL, "G"),
            (PteFlags::NX, "NX"),
            (PteFlags::COW, "CoW"),
            (PteFlags::SOFT_CLEAN, "CLEAN"),
        ];
        for (bit, name) in table {
            if self.contains(*bit) {
                names.push(*name);
            }
        }
        write!(f, "PteFlags({})", names.join("|"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether any bit of `other` is set in `f`.
    fn intersects(f: PteFlags, other: PteFlags) -> bool {
        f.0 & other.0 != 0
    }

    #[test]
    fn contains_and_intersects() {
        let f = PteFlags::user_rw();
        assert!(f.contains(PteFlags::PRESENT | PteFlags::USER));
        assert!(!f.contains(PteFlags::GLOBAL));
        assert!(intersects(f, PteFlags::GLOBAL | PteFlags::WRITABLE));
        assert!(!intersects(f, PteFlags::GLOBAL | PteFlags::DIRTY));
    }

    #[test]
    fn permission_checks() {
        let rw = PteFlags::user_rw();
        assert!(rw.permits(true, false, true));
        assert!(!rw.permits(false, true, true)); // NX set
        let cow = PteFlags::user_cow();
        assert!(cow.permits(false, false, true));
        assert!(!cow.permits(true, false, true)); // write-protected
        let kern = PteFlags::kernel_rw(true);
        assert!(kern.permits(true, false, false));
        assert!(!kern.permits(false, false, true)); // no U bit
        assert!(!PteFlags::empty().permits(false, false, false)); // not present
    }

    #[test]
    fn with_without_roundtrip() {
        let f = PteFlags::user_rw().without(PteFlags::WRITABLE);
        assert!(!f.contains(PteFlags::WRITABLE));
        let f2 = f.with(PteFlags::WRITABLE);
        assert_eq!(f2, PteFlags::user_rw());
        assert_eq!(f2 - PteFlags::WRITABLE, f);
    }

    #[test]
    fn pti_clears_global_on_kernel_pages() {
        assert!(PteFlags::kernel_rw(true).contains(PteFlags::GLOBAL));
        assert!(!PteFlags::kernel_rw(false).contains(PteFlags::GLOBAL));
    }
}
