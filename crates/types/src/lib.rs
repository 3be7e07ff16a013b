//! Fundamental types shared by every `tlbdown` crate.
//!
//! This crate intentionally has no dependencies: it defines the vocabulary of
//! the simulated machine — virtual/physical addresses, page sizes, core and
//! socket identifiers, PCIDs, page-table entry flags, cycle counts, the
//! machine topology, and the cost model that turns micro-operations into
//! simulated cycles.

pub mod addr;
pub mod cost;
pub mod error;
pub mod flags;
pub mod hash;
pub mod ids;
pub mod topology;

pub use addr::{PageSize, PhysAddr, VirtAddr, VirtRange};
pub use cost::{CostModel, Cycles, Distance};
pub use error::{SimError, SimResult};
pub use flags::PteFlags;
pub use hash::{FastMap, FastSet};
pub use ids::{CoreId, MmId, Pcid, ProcessId, ThreadId};
pub use topology::Topology;
