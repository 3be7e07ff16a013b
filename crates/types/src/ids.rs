//! Identifiers for cores, processes, threads, address spaces and PCIDs.

use core::fmt;

/// A logical CPU (hardware thread) in the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CoreId(pub u32);

impl CoreId {
    /// The raw index, usable directly into per-core arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// An address space (Linux `mm_struct`) identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MmId(pub u64);

impl MmId {
    /// The reserved id for the kernel's own (init) address space.
    pub const KERNEL: MmId = MmId(0);

    /// Construct an mm id.
    pub const fn new(v: u64) -> Self {
        MmId(v)
    }
}

/// A process identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u64);

/// A thread identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u64);

/// A process-context identifier tagging TLB entries (x86 PCID, §2.1).
///
/// The architecture limits PCIDs to 12 bits (4096 values); Linux uses only a
/// handful per core and recycles them. Under PTI ("safe mode") each address
/// space gets a *pair* of PCIDs: the kernel-view PCID and the user-view PCID
/// (Linux sets bit 11 to derive the user PCID from the kernel one).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pcid(pub u16);

impl Pcid {
    /// Number of architecturally available PCID values.
    pub(crate) const MAX: u16 = 4096;
    /// Bit distinguishing the user-view PCID from its kernel sibling,
    /// mirroring Linux's `X86_CR3_PTI_PCID_USER_BIT`.
    pub const USER_BIT: u16 = 1 << 11;

    /// Construct a PCID; values must be below [`Pcid::MAX`].
    pub const fn new(v: u16) -> Self {
        assert!(v < Pcid::MAX);
        Pcid(v)
    }

    /// The user-view sibling of a kernel PCID (PTI dual address space).
    pub const fn user_sibling(self) -> Pcid {
        Pcid(self.0 | Pcid::USER_BIT)
    }

    /// Whether this PCID names a user-view (PTI) address space.
    pub const fn is_user_view(self) -> bool {
        self.0 & Pcid::USER_BIT != 0
    }

    /// The kernel-view sibling (identity for kernel-view PCIDs).
    pub const fn kernel_sibling(self) -> Pcid {
        Pcid(self.0 & !Pcid::USER_BIT)
    }
}

impl fmt::Debug for Pcid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pcid{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_indexes_arrays() {
        let per_core = [10u32, 20, 30];
        assert_eq!(per_core[CoreId(1).index()], 20);
    }

    #[test]
    fn pcid_user_sibling_roundtrip() {
        let k = Pcid::new(5);
        let u = k.user_sibling();
        assert!(u.is_user_view());
        assert!(!k.is_user_view());
        assert_eq!(u.kernel_sibling(), k);
        assert_eq!(k.kernel_sibling(), k);
    }

    #[test]
    fn kernel_mm_is_zero() {
        assert_eq!(MmId::KERNEL, MmId::new(0));
    }
}
