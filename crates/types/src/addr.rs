//! Virtual and physical addresses, page sizes, and page-granular ranges.
//!
//! Addresses follow the x86-64 conventions used by the paper's kernel code:
//! 4KB base pages, 2MB and 1GB hugepages, 48-bit canonical virtual addresses
//! translated by a 4-level page table.

use core::fmt;

/// Number of bits in a 4KB page offset.
pub(crate) const PAGE_SHIFT: u64 = 12;
/// Size in bytes of a 4KB base page.
pub(crate) const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Size in bytes of a 2MB hugepage.
pub(crate) const HUGE_2M_SIZE: u64 = 1 << 21;
/// Size in bytes of a 1GB hugepage.
pub(crate) const HUGE_1G_SIZE: u64 = 1 << 30;

/// The page sizes supported by the simulated MMU.
///
/// `Size2M` matters for the paper's page-fracturing experiment (Table 4):
/// a guest 2MB page backed by host 4KB pages "fractures" into many 4KB TLB
/// entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PageSize {
    /// 4KB base page.
    Size4K,
    /// 2MB hugepage (PDE mapping).
    Size2M,
    /// 1GB hugepage (PDPTE mapping).
    Size1G,
}

impl PageSize {
    /// Size of this page in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => PAGE_SIZE,
            PageSize::Size2M => HUGE_2M_SIZE,
            PageSize::Size1G => HUGE_1G_SIZE,
        }
    }

    /// log2 of the page size ("stride shift" in the paper's §3.4 wording).
    pub(crate) const fn shift(self) -> u64 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size2M => 21,
            PageSize::Size1G => 30,
        }
    }

    /// Number of 4KB base pages covered by one page of this size.
    pub const fn base_pages(self) -> u64 {
        1 << (self.shift() - PAGE_SHIFT)
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4KB"),
            PageSize::Size2M => write!(f, "2MB"),
            PageSize::Size1G => write!(f, "1GB"),
        }
    }
}

/// A virtual address in the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Construct a virtual address from a raw value.
    pub const fn new(v: u64) -> Self {
        VirtAddr(v)
    }

    /// The raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Round down to the containing page boundary of the given size.
    pub const fn align_down(self, size: PageSize) -> Self {
        VirtAddr(self.0 & !(size.bytes() - 1))
    }

    /// Round up to the next page boundary of the given size (identity if
    /// already aligned).
    pub const fn align_up(self, size: PageSize) -> Self {
        let mask = size.bytes() - 1;
        VirtAddr((self.0 + mask) & !mask)
    }

    /// Whether the address is aligned to the given page size.
    pub const fn is_aligned(self, size: PageSize) -> bool {
        self.0 & (size.bytes() - 1) == 0
    }

    /// The virtual page number (address >> 12).
    pub const fn vpn(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Offset within the containing page of the given size.
    pub const fn page_offset(self, size: PageSize) -> u64 {
        self.0 & (size.bytes() - 1)
    }

    /// Index into the page-table level (0 = PT, 1 = PD, 2 = PDPT, 3 = PML4).
    pub const fn pt_index(self, level: u8) -> usize {
        ((self.0 >> (PAGE_SHIFT + 9 * level as u64)) & 0x1ff) as usize
    }

    /// Address advanced by `bytes`.
    pub const fn add(self, bytes: u64) -> Self {
        VirtAddr(self.0 + bytes)
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A physical address (host physical in the virtualization experiment).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Construct a physical address from a raw value.
    pub const fn new(v: u64) -> Self {
        PhysAddr(v)
    }

    /// The raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The physical frame number (address >> 12).
    pub const fn pfn(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Address advanced by `bytes`.
    pub const fn add(self, bytes: u64) -> Self {
        PhysAddr(self.0 + bytes)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A half-open `[start, end)` range of virtual addresses.
///
/// This mirrors Linux's `flush_tlb_info { start, end }` range convention and
/// carries the same "stride shift" used by the in-context deferred flush
/// bookkeeping (§3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VirtRange {
    /// Inclusive start of the range.
    pub start: VirtAddr,
    /// Exclusive end of the range.
    pub end: VirtAddr,
}

impl VirtRange {
    /// Construct a range; `start` must not exceed `end`.
    pub fn new(start: VirtAddr, end: VirtAddr) -> Self {
        debug_assert!(start <= end, "VirtRange start must be <= end");
        VirtRange { start, end }
    }

    /// A range covering `count` pages of `size` starting at `start`.
    pub fn pages(start: VirtAddr, count: u64, size: PageSize) -> Self {
        VirtRange::new(start, start.add(count * size.bytes()))
    }

    /// Whether the range is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Number of pages of `size` needed to cover the range.
    pub fn page_count(&self, size: PageSize) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let start = self.start.align_down(size).0;
        let end = self.end.align_up(size).0;
        (end - start) >> size.shift()
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Whether this range overlaps `other` (half-open semantics).
    pub fn overlaps(&self, other: &VirtRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The smallest range covering both ranges (the §3.4 merge rule for
    /// pending in-context flushes).
    pub fn merge(&self, other: &VirtRange) -> VirtRange {
        VirtRange {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Iterate over the base addresses of each `size` page in the range.
    pub fn iter_pages(&self, size: PageSize) -> impl Iterator<Item = VirtAddr> {
        let start = self.start.align_down(size).0;
        let end = self.end.align_up(size).0;
        (start..end).step_by(size.bytes() as usize).map(VirtAddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `va` falls in the kernel half of the canonical space.
    ///
    /// The simulation uses the Linux convention: addresses with bit 47 set
    /// (sign-extended) belong to the kernel.
    fn is_kernel(va: VirtAddr) -> bool {
        va.0 >= 0xffff_8000_0000_0000
    }

    #[test]
    fn page_size_arithmetic() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Size1G.bytes(), 1024 * 1024 * 1024);
        assert_eq!(PageSize::Size2M.base_pages(), 512);
        assert_eq!(PageSize::Size1G.base_pages(), 512 * 512);
    }

    #[test]
    fn virt_addr_alignment() {
        let a = VirtAddr::new(0x1234_5678);
        assert_eq!(a.align_down(PageSize::Size4K).as_u64(), 0x1234_5000);
        assert_eq!(a.align_up(PageSize::Size4K).as_u64(), 0x1234_6000);
        assert!(a.align_down(PageSize::Size4K).is_aligned(PageSize::Size4K));
        assert_eq!(a.align_down(PageSize::Size2M).as_u64(), 0x1220_0000);
        let aligned = VirtAddr::new(0x2000);
        assert_eq!(aligned.align_up(PageSize::Size4K), aligned);
    }

    #[test]
    fn pt_indices_decompose_address() {
        // 0xffff_8000_0000_0000 has PML4 index 256, all others zero.
        let a = VirtAddr::new(0xffff_8000_0000_0000);
        assert_eq!(a.pt_index(3), 256);
        assert_eq!(a.pt_index(2), 0);
        assert_eq!(a.pt_index(1), 0);
        assert_eq!(a.pt_index(0), 0);
        assert!(is_kernel(a));
        assert!(!is_kernel(VirtAddr::new(0x7fff_ffff_f000)));
    }

    #[test]
    fn range_page_count_rounds_outward() {
        let r = VirtRange::new(VirtAddr::new(0x1800), VirtAddr::new(0x3801));
        assert_eq!(r.page_count(PageSize::Size4K), 3);
        let exact = VirtRange::pages(VirtAddr::new(0x4000), 10, PageSize::Size4K);
        assert_eq!(exact.page_count(PageSize::Size4K), 10);
        assert_eq!(exact.end.0 - exact.start.0, 10 * 4096);
    }

    #[test]
    fn range_merge_and_overlap() {
        let a = VirtRange::new(VirtAddr::new(0x1000), VirtAddr::new(0x3000));
        let b = VirtRange::new(VirtAddr::new(0x2000), VirtAddr::new(0x5000));
        let c = VirtRange::new(VirtAddr::new(0x5000), VirtAddr::new(0x6000));
        assert!(a.overlaps(&b));
        assert!(!b.overlaps(&c)); // half-open: touching ranges do not overlap
        let m = a.merge(&c);
        assert_eq!(m.start.as_u64(), 0x1000);
        assert_eq!(m.end.as_u64(), 0x6000);
    }

    #[test]
    fn range_iter_pages_visits_each_base() {
        let r = VirtRange::pages(VirtAddr::new(0x10000), 3, PageSize::Size4K);
        let pages: Vec<u64> = r.iter_pages(PageSize::Size4K).map(|a| a.as_u64()).collect();
        assert_eq!(pages, vec![0x10000, 0x11000, 0x12000]);
    }

    #[test]
    fn empty_range_has_no_pages() {
        let r = VirtRange::new(VirtAddr::new(0x1000), VirtAddr::new(0x1000));
        assert!(r.is_empty());
        assert_eq!(r.page_count(PageSize::Size4K), 0);
        assert!(!r.contains(VirtAddr::new(0x1000)));
    }
}
