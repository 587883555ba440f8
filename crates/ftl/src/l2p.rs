//! Logical-to-physical mapping with a DFTL-style demand cache.
//!
//! The full mapping table of a multi-terabyte SSD does not fit in SSD DRAM,
//! so only a subset of entries is cached (demand-based selective caching,
//! DFTL). A lookup that misses the cache must fetch the mapping entry from
//! flash, which is three orders of magnitude slower — the offloader's
//! feature-collection overhead model (§4.5) distinguishes exactly these two
//! cases (≈100 ns vs ≈30 µs).
//!
//! The cache evicts in exact least-recently-used order, computed from the
//! cached entries and their last-use stamps alone. A miss adds a flash read
//! to the simulated request, so the victim must never depend on hash-table
//! layout: two tables driven through the same operations — including one
//! restored from a checkpoint mid-stream — hit and miss identically.

use std::collections::VecDeque;

use conduit_types::bytes::{put_u16, put_u32, put_u64, Reader};
use conduit_types::hash::PageMap;
use conduit_types::{ConduitError, LogicalPageId, PhysicalPageAddr, Result};

/// Whether an L2P lookup hit the in-DRAM mapping cache or had to fetch the
/// mapping entry from flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupKind {
    /// The mapping entry was cached in SSD DRAM.
    CacheHit,
    /// The mapping entry had to be read from flash.
    CacheMiss,
}

/// The logical-to-physical page mapping table.
///
/// # Examples
///
/// ```
/// use conduit_ftl::{L2pTable, LookupKind};
/// use conduit_types::{LogicalPageId, PhysicalPageAddr};
///
/// let mut l2p = L2pTable::new(2);
/// l2p.update(LogicalPageId::new(7), PhysicalPageAddr::new(0, 0, 0, 0, 1, 0));
/// let (addr, kind) = l2p.lookup(LogicalPageId::new(7)).unwrap();
/// assert_eq!(addr.block, 1);
/// assert_eq!(kind, LookupKind::CacheHit);
/// ```
#[derive(Debug, Clone)]
pub struct L2pTable {
    map: PageMap<LogicalPageId, PhysicalPageAddr>,
    /// LRU mapping cache: page → last-use stamp.
    cache: PageMap<LogicalPageId, u64>,
    /// Eviction order, oldest first: one `(stamp, page)` per touch since the
    /// cache first overflowed. An entry whose stamp is no longer the page's
    /// current one is stale and skipped. Empty (and not maintained) until
    /// the first eviction, so a cache that never fills pays nothing for it.
    lru: VecDeque<(u64, LogicalPageId)>,
    cache_capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl PartialEq for L2pTable {
    /// Tables are equal when their mappings, cached entries with stamps,
    /// clock and counters are; the eviction queue is derived from the
    /// stamps and not compared.
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
            && self.cache == other.cache
            && self.cache_capacity == other.cache_capacity
            && self.clock == other.clock
            && self.hits == other.hits
            && self.misses == other.misses
    }
}

impl L2pTable {
    /// Creates an empty table whose mapping cache holds `cache_capacity`
    /// entries.
    pub fn new(cache_capacity: usize) -> Self {
        L2pTable {
            map: PageMap::default(),
            cache: PageMap::default(),
            lru: VecDeque::new(),
            cache_capacity: cache_capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of mapped logical pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no logical pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `page` has a mapping.
    pub fn contains(&self, page: LogicalPageId) -> bool {
        self.map.contains_key(&page)
    }

    /// Inserts or updates the mapping for `page`, returning the previous
    /// physical address if the page was already mapped (the caller
    /// invalidates that physical page). The entry becomes cached.
    pub fn update(
        &mut self,
        page: LogicalPageId,
        addr: PhysicalPageAddr,
    ) -> Option<PhysicalPageAddr> {
        let prev = self.map.insert(page, addr);
        self.touch(page);
        prev
    }

    /// Looks up the physical address of `page` and reports whether the
    /// mapping entry was cached.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::UnmappedPage`] if the page has no mapping.
    pub fn lookup(&mut self, page: LogicalPageId) -> Result<(PhysicalPageAddr, LookupKind)> {
        let addr = *self
            .map
            .get(&page)
            .ok_or(ConduitError::UnmappedPage { page })?;
        let kind = if self.cache.contains_key(&page) {
            self.hits += 1;
            LookupKind::CacheHit
        } else {
            self.misses += 1;
            LookupKind::CacheMiss
        };
        self.touch(page);
        Ok((addr, kind))
    }

    /// Looks up without affecting cache statistics (used by read-only
    /// inspection such as placement checks).
    pub fn peek(&self, page: LogicalPageId) -> Option<PhysicalPageAddr> {
        self.map.get(&page).copied()
    }

    /// Removes the mapping for `page`, returning the physical address it
    /// pointed to.
    pub fn remove(&mut self, page: LogicalPageId) -> Option<PhysicalPageAddr> {
        self.cache.remove(&page);
        self.map.remove(&page)
    }

    /// Cache hit/miss counts since creation.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The mapping-cache capacity this table was built with.
    pub(crate) fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// Iterator over every `(logical, physical)` mapping, in arbitrary
    /// order.
    pub(crate) fn mappings(&self) -> impl Iterator<Item = (LogicalPageId, PhysicalPageAddr)> + '_ {
        self.map.iter().map(|(&p, &a)| (p, a))
    }

    /// Cache hit rate since creation (1.0 when there have been no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Appends the table's state (mappings, cached entries with their LRU
    /// stamps, clock and hit/miss counters) to `out`. Map entries are sorted
    /// by logical page id so the encoding is deterministic regardless of
    /// hash-table iteration order.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let mut mappings: Vec<(&LogicalPageId, &PhysicalPageAddr)> = self.map.iter().collect();
        mappings.sort_by_key(|(p, _)| **p);
        put_u64(out, mappings.len() as u64);
        for (page, addr) in mappings {
            put_u64(out, page.index());
            out.push(addr.channel);
            out.push(addr.chip);
            out.push(addr.die);
            out.push(addr.plane);
            put_u32(out, addr.block);
            put_u16(out, addr.page);
        }
        let mut cached: Vec<(&LogicalPageId, &u64)> = self.cache.iter().collect();
        cached.sort_by_key(|(p, _)| **p);
        put_u64(out, cached.len() as u64);
        for (page, stamp) in cached {
            put_u64(out, page.index());
            put_u64(out, *stamp);
        }
        put_u64(out, self.clock);
        put_u64(out, self.hits);
        put_u64(out, self.misses);
    }

    /// Decodes a table serialized by [`L2pTable::encode_into`] into an empty
    /// table with `cache_capacity` (which is derived from the configuration,
    /// not stored).
    pub(crate) fn decode_from(cache_capacity: usize, r: &mut Reader<'_>) -> Result<Self> {
        let mut table = L2pTable::new(cache_capacity);
        let mappings = r.u64()? as usize;
        for _ in 0..mappings {
            let page = LogicalPageId::new(r.u64()?);
            let addr =
                PhysicalPageAddr::new(r.u8()?, r.u8()?, r.u8()?, r.u8()?, r.u32()?, r.u16()?);
            if table.map.insert(page, addr).is_some() {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "duplicate L2P mapping for page {page}"
                )));
            }
        }
        let cached = r.u64()? as usize;
        for _ in 0..cached {
            let page = LogicalPageId::new(r.u64()?);
            let stamp = r.counter()?;
            if !table.map.contains_key(&page) {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "cached L2P entry for unmapped page {page}"
                )));
            }
            table.cache.insert(page, stamp);
        }
        table.clock = r.counter()?;
        table.hits = r.counter()?;
        table.misses = r.counter()?;
        // Stamps are handed out from the clock, so none may exceed it.
        if table.cache.values().any(|&stamp| stamp > table.clock) {
            return Err(ConduitError::corrupt_checkpoint(
                "L2P cache stamp is ahead of the LRU clock",
            ));
        }
        // `touch` evicts one entry at a time, so an oversized decoded cache
        // would stay oversized forever — reject it instead.
        if table.cache.len() > table.cache_capacity {
            return Err(ConduitError::corrupt_checkpoint(
                "L2P cache holds more entries than its configured capacity",
            ));
        }
        Ok(table)
    }

    fn touch(&mut self, page: LogicalPageId) {
        // Saturating: the stamp clock never wraps (a wrap would reorder the
        // LRU queue, and a restored checkpoint may carry a large clock).
        self.clock = self.clock.saturating_add(1);
        self.cache.insert(page, self.clock);
        if !self.lru.is_empty() {
            self.lru.push_back((self.clock, page));
            // Bound the stale entries cache hits leave behind.
            if self.lru.len() > 2 * self.cache_capacity + 32 {
                let cache = &self.cache;
                self.lru
                    .retain(|(stamp, page)| cache.get(page) == Some(stamp));
            }
        }
        if self.cache.len() > self.cache_capacity {
            self.evict();
        }
    }

    /// Evicts the least-recently-used cached entry, the one with the oldest
    /// stamp. Stamps are unique until the clock saturates, so the victim is
    /// a function of the cached entries and their stamps. On the first
    /// eviction the queue is built by sorting the cache by stamp; after that
    /// every touch appends to it.
    fn evict(&mut self) {
        if self.lru.is_empty() {
            let mut order: Vec<(u64, LogicalPageId)> = self
                .cache
                .iter()
                .map(|(&page, &stamp)| (stamp, page))
                .collect();
            order.sort_unstable();
            self.lru = order.into();
        }
        while let Some((stamp, page)) = self.lru.pop_front() {
            if self.cache.get(&page) == Some(&stamp) {
                self.cache.remove(&page);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(block: u32, page: u16) -> PhysicalPageAddr {
        PhysicalPageAddr::new(0, 0, 0, 0, block, page)
    }

    #[test]
    fn lookup_of_unmapped_page_fails() {
        let mut l2p = L2pTable::new(4);
        assert!(matches!(
            l2p.lookup(LogicalPageId::new(1)),
            Err(ConduitError::UnmappedPage { .. })
        ));
    }

    #[test]
    fn update_and_lookup_roundtrip() {
        let mut l2p = L2pTable::new(4);
        assert!(l2p.is_empty());
        assert_eq!(l2p.update(LogicalPageId::new(1), addr(3, 4)), None);
        assert!(l2p.contains(LogicalPageId::new(1)));
        let (a, kind) = l2p.lookup(LogicalPageId::new(1)).unwrap();
        assert_eq!(a, addr(3, 4));
        assert_eq!(kind, LookupKind::CacheHit);
        assert_eq!(l2p.len(), 1);
    }

    #[test]
    fn remap_returns_previous_address() {
        let mut l2p = L2pTable::new(4);
        l2p.update(LogicalPageId::new(1), addr(3, 4));
        let prev = l2p.update(LogicalPageId::new(1), addr(5, 0));
        assert_eq!(prev, Some(addr(3, 4)));
        assert_eq!(l2p.peek(LogicalPageId::new(1)), Some(addr(5, 0)));
    }

    #[test]
    fn cache_misses_after_eviction() {
        let mut l2p = L2pTable::new(2);
        for i in 0..10 {
            l2p.update(LogicalPageId::new(i), addr(i as u32, 0));
        }
        // Exact LRU: the 2-entry cache holds pages 8 and 9, so looking up
        // page 0 must be a miss.
        let (_, kind) = l2p.lookup(LogicalPageId::new(0)).unwrap();
        assert_eq!(kind, LookupKind::CacheMiss);
        let (hits, misses) = l2p.cache_stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 1);
        assert!(l2p.cache_hit_rate() < 1.0);
    }

    #[test]
    fn repeated_lookups_hit_the_cache() {
        let mut l2p = L2pTable::new(8);
        l2p.update(LogicalPageId::new(1), addr(1, 0));
        for _ in 0..5 {
            let (_, kind) = l2p.lookup(LogicalPageId::new(1)).unwrap();
            assert_eq!(kind, LookupKind::CacheHit);
        }
        assert_eq!(l2p.cache_stats().0, 5);
        assert_eq!(l2p.cache_hit_rate(), 1.0);
    }

    #[test]
    fn remove_unmaps_the_page() {
        let mut l2p = L2pTable::new(4);
        l2p.update(LogicalPageId::new(1), addr(1, 0));
        assert_eq!(l2p.remove(LogicalPageId::new(1)), Some(addr(1, 0)));
        assert!(!l2p.contains(LogicalPageId::new(1)));
        assert_eq!(l2p.remove(LogicalPageId::new(1)), None);
    }

    /// A seeded stream of lookups and remaps over `pages` logical pages.
    fn drive(l2p: &mut L2pTable, seed: u64, ops: usize, pages: u64) {
        let mut x = seed;
        for _ in 0..ops {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = LogicalPageId::new((x >> 33) % pages);
            if (x >> 20).is_multiple_of(8) || !l2p.contains(page) {
                l2p.update(page, addr((x >> 40) as u32 % 1000, 0));
            } else {
                l2p.lookup(page).unwrap();
            }
        }
    }

    #[test]
    fn eviction_is_replayable_across_tables() {
        // The victim depends only on the cached entries and their stamps,
        // never on hash-table layout: two tables fed the same operations
        // past capacity hit and miss identically.
        let mut a = L2pTable::new(64);
        let mut b = L2pTable::new(64);
        drive(&mut a, 7, 5_000, 200);
        drive(&mut b, 7, 5_000, 200);
        assert!(a.cache_stats().1 > 0, "the stream must overflow the cache");
        assert_eq!(a.cache_stats(), b.cache_stats());
        assert_eq!(a, b);
    }

    #[test]
    fn a_restored_table_continues_like_the_original() {
        let mut original = L2pTable::new(64);
        drive(&mut original, 11, 2_500, 200);
        let mut bytes = Vec::new();
        original.encode_into(&mut bytes);
        let mut r = Reader::new(&bytes);
        let mut restored = L2pTable::decode_from(64, &mut r).unwrap();
        assert!(r.finished());
        assert_eq!(restored, original);
        drive(&mut original, 12, 2_500, 200);
        drive(&mut restored, 12, 2_500, 200);
        assert_eq!(restored.cache_stats(), original.cache_stats());
        assert_eq!(restored, original);
    }
}
