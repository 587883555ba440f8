//! Lazy coherence between SSD compute resources (§4.4 of the paper).
//!
//! Conduit lets each compute resource keep the pages it has modified local
//! (in DRAM rows, page buffers, or controller SRAM) and synchronizes to
//! flash *only* when another resource or the host requests the page, when a
//! temporary location must be reused, or when maintenance (GC, power cycle)
//! requires it. The directory tracks, per logical page: the **owner** (which
//! resource holds the latest version), the **state** (clean/dirty) and a
//! one-byte monotonically increasing **version** counter.

use conduit_types::bytes::{put_u64, Reader};
use conduit_types::hash::PageMap;
use conduit_types::{ConduitError, DataLocation, LogicalPageId, Result};

/// One-byte wire encoding of a [`DataLocation`] (checkpoint format).
fn location_code(loc: DataLocation) -> u8 {
    match loc {
        DataLocation::Flash => 0,
        DataLocation::Dram => 1,
        DataLocation::CtrlSram => 2,
        DataLocation::Host => 3,
    }
}

fn location_from_code(code: u8) -> Result<DataLocation> {
    Ok(match code {
        0 => DataLocation::Flash,
        1 => DataLocation::Dram,
        2 => DataLocation::CtrlSram,
        3 => DataLocation::Host,
        _ => {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "unknown data-location code {code}"
            )))
        }
    })
}

/// Modification state of a logical page with respect to flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoherenceState {
    /// The flash copy is up to date.
    #[default]
    Clean,
    /// The owner holds a newer version than flash.
    Dirty,
}

/// The synchronization work the device must perform as a side effect of a
/// coherence transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncAction {
    /// No data movement is needed.
    None,
    /// The owner's dirty copy must be committed (programmed) to flash.
    FlushToFlash {
        /// The resource that currently holds the dirty copy.
        from: DataLocation,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    owner: DataLocation,
    state: CoherenceState,
    version: u8,
}

impl Default for Entry {
    fn default() -> Self {
        Entry {
            owner: DataLocation::Flash,
            state: CoherenceState::Clean,
            version: 0,
        }
    }
}

/// Per-logical-page coherence directory.
///
/// # Examples
///
/// ```
/// use conduit_ftl::{CoherenceDirectory, SyncAction};
/// use conduit_types::{DataLocation, LogicalPageId};
///
/// let mut dir = CoherenceDirectory::new();
/// let page = LogicalPageId::new(7);
/// // A PuD-SSD computation writes the page: it becomes dirty in DRAM.
/// assert_eq!(dir.record_write(page, DataLocation::Dram), SyncAction::None);
/// // The flash (IFP) later needs it: the DRAM copy must be flushed first.
/// assert!(matches!(
///     dir.acquire(page, DataLocation::Flash),
///     SyncAction::FlushToFlash { from: DataLocation::Dram }
/// ));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoherenceDirectory {
    entries: PageMap<LogicalPageId, Entry>,
    flushes: u64,
    writes: u64,
}

impl CoherenceDirectory {
    /// Creates an empty directory (every page implicitly clean in flash).
    pub fn new() -> Self {
        CoherenceDirectory::default()
    }

    /// The resource holding the latest version of `page`.
    pub fn owner(&self, page: LogicalPageId) -> DataLocation {
        self.entries
            .get(&page)
            .map_or(DataLocation::Flash, |e| e.owner)
    }

    /// The clean/dirty state of `page`.
    pub fn state(&self, page: LogicalPageId) -> CoherenceState {
        self.entries
            .get(&page)
            .map_or(CoherenceState::Clean, |e| e.state)
    }

    /// The version counter of `page`.
    pub fn version(&self, page: LogicalPageId) -> u8 {
        self.entries.get(&page).map_or(0, |e| e.version)
    }

    /// Records that a compute resource at `writer` produced a new version of
    /// `page`. Returns the synchronization (if any) that must happen *before*
    /// the write is considered recorded — a flush is required when a
    /// different resource still holds a dirty copy, or when the version
    /// counter would wrap.
    pub fn record_write(&mut self, page: LogicalPageId, writer: DataLocation) -> SyncAction {
        self.writes += 1;
        let entry = self.entries.entry(page).or_default();
        let action = if (entry.state == CoherenceState::Dirty && entry.owner != writer)
            || entry.version == u8::MAX
        {
            SyncAction::FlushToFlash { from: entry.owner }
        } else {
            SyncAction::None
        };
        if matches!(action, SyncAction::FlushToFlash { .. }) {
            self.flushes += 1;
            entry.version = 0;
        }
        entry.owner = writer;
        entry.state = CoherenceState::Dirty;
        entry.version = entry.version.wrapping_add(1);
        action
    }

    /// Records that `requester` (a compute resource or the host, expressed as
    /// its data location) needs to read `page`. If another resource holds a
    /// dirty copy it must be flushed to flash first; the page then becomes
    /// clean with flash as the owner.
    pub fn acquire(&mut self, page: LogicalPageId, requester: DataLocation) -> SyncAction {
        let entry = self.entries.entry(page).or_default();
        if entry.state == CoherenceState::Dirty && entry.owner != requester {
            let from = entry.owner;
            entry.owner = DataLocation::Flash;
            entry.state = CoherenceState::Clean;
            entry.version = 0;
            self.flushes += 1;
            SyncAction::FlushToFlash { from }
        } else {
            SyncAction::None
        }
    }

    /// Forces `page` to be committed to flash (e.g. on a power cycle or
    /// before garbage collection relocates it). Returns the required
    /// synchronization.
    pub fn flush(&mut self, page: LogicalPageId) -> SyncAction {
        self.acquire(page, DataLocation::Flash)
    }

    /// Forces every dirty page to flash, returning the number of flushes.
    pub fn flush_all(&mut self) -> u64 {
        let dirty: Vec<LogicalPageId> = self
            .entries
            .iter()
            .filter(|(_, e)| e.state == CoherenceState::Dirty)
            .map(|(&p, _)| p)
            .collect();
        let count = dirty.len() as u64;
        for page in dirty {
            self.flush(page);
        }
        count
    }

    /// Number of pages currently dirty.
    pub fn dirty_pages(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.state == CoherenceState::Dirty)
            .count()
    }

    /// Total writes recorded and flushes performed: `(writes, flushes)`.
    pub fn traffic(&self) -> (u64, u64) {
        (self.writes, self.flushes)
    }

    /// Appends the directory's state (entries sorted by logical page for a
    /// deterministic encoding, plus the traffic counters) to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<(&LogicalPageId, &Entry)> = self.entries.iter().collect();
        entries.sort_by_key(|(p, _)| **p);
        put_u64(out, entries.len() as u64);
        for (page, entry) in entries {
            put_u64(out, page.index());
            out.push(location_code(entry.owner));
            out.push(match entry.state {
                CoherenceState::Clean => 0,
                CoherenceState::Dirty => 1,
            });
            out.push(entry.version);
        }
        put_u64(out, self.writes);
        put_u64(out, self.flushes);
    }

    /// Decodes a directory serialized by
    /// [`CoherenceDirectory::encode_into`].
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Self> {
        let mut dir = CoherenceDirectory::new();
        let count = r.u64()? as usize;
        for _ in 0..count {
            let page = LogicalPageId::new(r.u64()?);
            let owner = location_from_code(r.u8()?)?;
            let state = match r.u8()? {
                0 => CoherenceState::Clean,
                1 => CoherenceState::Dirty,
                code => {
                    return Err(ConduitError::corrupt_checkpoint(format!(
                        "unknown coherence-state code {code}"
                    )))
                }
            };
            let version = r.u8()?;
            if dir
                .entries
                .insert(
                    page,
                    Entry {
                        owner,
                        state,
                        version,
                    },
                )
                .is_some()
            {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "duplicate coherence entry for page {page}"
                )));
            }
        }
        dir.writes = r.counter()?;
        dir.flushes = r.counter()?;
        Ok(dir)
    }

    /// The coherence metadata footprint in SSD DRAM: owner (4 bits), state
    /// (1 bit) and version (1 byte) per tracked page, rounded up to two bytes
    /// per entry as in §4.5.
    pub fn metadata_bytes(&self) -> u64 {
        self.entries.len() as u64 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: LogicalPageId = LogicalPageId::new(42);

    #[test]
    fn default_state_is_clean_in_flash() {
        let dir = CoherenceDirectory::new();
        assert_eq!(dir.owner(PAGE), DataLocation::Flash);
        assert_eq!(dir.state(PAGE), CoherenceState::Clean);
        assert_eq!(dir.version(PAGE), 0);
        assert_eq!(dir.dirty_pages(), 0);
    }

    #[test]
    fn write_makes_page_dirty_and_bumps_version() {
        let mut dir = CoherenceDirectory::new();
        assert_eq!(dir.record_write(PAGE, DataLocation::Dram), SyncAction::None);
        assert_eq!(dir.owner(PAGE), DataLocation::Dram);
        assert_eq!(dir.state(PAGE), CoherenceState::Dirty);
        assert_eq!(dir.version(PAGE), 1);

        // Repeated writes by the same owner only bump the version.
        assert_eq!(dir.record_write(PAGE, DataLocation::Dram), SyncAction::None);
        assert_eq!(dir.version(PAGE), 2);
        assert_eq!(dir.dirty_pages(), 1);
    }

    #[test]
    fn cross_resource_write_flushes_first() {
        let mut dir = CoherenceDirectory::new();
        dir.record_write(PAGE, DataLocation::Dram);
        let action = dir.record_write(PAGE, DataLocation::CtrlSram);
        assert_eq!(
            action,
            SyncAction::FlushToFlash {
                from: DataLocation::Dram
            }
        );
        assert_eq!(dir.owner(PAGE), DataLocation::CtrlSram);
        assert_eq!(dir.version(PAGE), 1);
    }

    #[test]
    fn acquire_by_other_resource_flushes() {
        let mut dir = CoherenceDirectory::new();
        dir.record_write(PAGE, DataLocation::Dram);
        let action = dir.acquire(PAGE, DataLocation::Flash);
        assert!(matches!(action, SyncAction::FlushToFlash { .. }));
        assert_eq!(dir.owner(PAGE), DataLocation::Flash);
        assert_eq!(dir.state(PAGE), CoherenceState::Clean);
        // Re-acquiring is now free.
        assert_eq!(dir.acquire(PAGE, DataLocation::CtrlSram), SyncAction::None);
    }

    #[test]
    fn acquire_by_owner_is_free() {
        let mut dir = CoherenceDirectory::new();
        dir.record_write(PAGE, DataLocation::Dram);
        assert_eq!(dir.acquire(PAGE, DataLocation::Dram), SyncAction::None);
        assert_eq!(dir.state(PAGE), CoherenceState::Dirty);
    }

    #[test]
    fn version_wraparound_forces_flush() {
        let mut dir = CoherenceDirectory::new();
        let mut flushes = 0;
        for _ in 0..300 {
            if matches!(
                dir.record_write(PAGE, DataLocation::Dram),
                SyncAction::FlushToFlash { .. }
            ) {
                flushes += 1;
            }
        }
        assert!(flushes >= 1, "version counter must wrap and force a flush");
        assert!(dir.version(PAGE) > 0);
    }

    #[test]
    fn flush_all_cleans_everything() {
        let mut dir = CoherenceDirectory::new();
        for i in 0..10 {
            dir.record_write(LogicalPageId::new(i), DataLocation::Dram);
        }
        assert_eq!(dir.dirty_pages(), 10);
        assert_eq!(dir.flush_all(), 10);
        assert_eq!(dir.dirty_pages(), 0);
        let (writes, flushes) = dir.traffic();
        assert_eq!(writes, 10);
        assert_eq!(flushes, 10);
    }

    #[test]
    fn metadata_overhead_is_two_bytes_per_tracked_page() {
        let mut dir = CoherenceDirectory::new();
        for i in 0..100 {
            dir.record_write(LogicalPageId::new(i), DataLocation::Dram);
        }
        assert_eq!(dir.metadata_bytes(), 200);
    }
}
