//! # conduit-ftl
//!
//! Flash translation layer (FTL) for the Conduit NDP-SSD framework.
//!
//! The FTL is the firmware layer that Conduit's runtime offloader is embedded
//! next to (§4.3.2 of the paper). This crate implements the pieces of it that
//! the offloading study depends on:
//!
//! * [`L2pTable`] — logical-to-physical page mapping with a DFTL-style
//!   demand-paged mapping cache in SSD DRAM (hits cost ~100 ns, misses fetch
//!   the mapping entry from flash),
//! * [`PageAllocator`] — physical page allocation that both stripes vector
//!   slices across planes (for multi-plane parallelism) and co-locates
//!   operand groups in the same block (the Flash-Cosmos layout constraint for
//!   in-flash AND),
//! * [`GarbageCollector`] and [`WearLeveler`] — greedy victim selection,
//!   valid-page relocation, erase accounting and wear statistics,
//! * [`CoherenceDirectory`] — the lazy coherence protocol of §4.4: per
//!   logical page owner / dirty state / version counter, with flush-to-flash
//!   synchronization only when another resource (or the host) needs the page,
//! * [`Ftl`] — the facade that ties all of the above together and is consumed
//!   by the `conduit-sim` device model.
//!
//! All methods are *functional bookkeeping only*: they return descriptions of
//! the physical work performed (pages read/programmed, blocks erased) and the
//! event-driven simulator charges the corresponding time and energy.
//!
//! ## Example
//!
//! ```
//! use conduit_ftl::Ftl;
//! use conduit_types::{LogicalPageId, SsdConfig};
//!
//! let cfg = SsdConfig::small_for_tests();
//! let mut ftl = Ftl::new(&cfg)?;
//! ftl.map_pages(&[LogicalPageId::new(0), LogicalPageId::new(1)])?;
//! let (addr, _hit) = ftl.translate(LogicalPageId::new(0))?;
//! assert_eq!(ftl.translate(LogicalPageId::new(0))?.0, addr);
//! # Ok::<(), conduit_types::ConduitError>(())
//! ```

mod alloc;
mod coherence;
mod ftl;
mod gc;
mod l2p;
mod wear;

pub use alloc::PageAllocator;
pub use coherence::{CoherenceDirectory, CoherenceState, SyncAction};
pub use ftl::{FaultStats, Ftl, FtlStats};
pub use gc::{GarbageCollector, GcWork};
pub use l2p::{L2pTable, LookupKind};
pub use wear::{WearLeveler, WearReport};
