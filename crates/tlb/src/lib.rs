//! A per-core TLB model with x86 semantics.
//!
//! The model covers everything the paper's techniques depend on:
//!
//! - **PCID tagging** (§2.1): entries are tagged with the address-space id
//!   they were filled under; global entries match under any PCID.
//! - **Flush instructions** (§2.1, §3.4): [`Tlb::invlpg`] (current-PCID
//!   single-address, also drops global entries for that address and — per
//!   the Intel SDM behaviour the paper highlights — flushes the *entire*
//!   paging-structure cache), [`Tlb::invpcid_single`] (any-PCID
//!   single-address, leaves unrelated paging-structure entries alone),
//!   [`Tlb::flush_pcid`] (CR3-write full flush of one PCID, keeps globals)
//!   and [`Tlb::flush_all`].
//! - **Paging-structure cache** (PWC): accelerates walks; its invalidation
//!   side-effects are what make the CoW optimization (§4.1) profitable.
//! - **Architectural permission re-walk**: a write that hits a
//!   write-protected entry cannot use it; the hardware drops the entry and
//!   re-walks (this is the mechanism the CoW optimization leans on).
//! - **Speculative fills**: the model exposes [`Tlb::fill_speculative`] so
//!   tests can emulate the CPU caching a PTE between fault delivery and the
//!   kernel's PTE update (the §4.1 hazard motivating the explicit access).
//! - **Page fracturing** (§7, Table 4): entries created through a
//!   2MB-guest-over-4KB-host nested walk are marked *fractured*; while any
//!   fractured entry is cached, a selective flush escalates to a full flush,
//!   which is the undocumented behaviour Table 4 measures.
//! - A small separate **ITLB**, so the §4.1 rule "skip the CoW optimization
//!   for executable PTEs" has an observable reason.

pub mod geometry;
pub mod model;

pub use geometry::TlbGeometry;
pub use model::{Access, ItlbModel, Tlb, TlbEntry, TlbFault, TlbStats};
