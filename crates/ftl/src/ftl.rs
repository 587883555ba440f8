//! The flash translation layer facade.
//!
//! [`Ftl`] combines address translation, NDP-aware allocation, garbage
//! collection, wear-leveling, and the lazy coherence directory behind one
//! interface that the device model in `conduit-sim` drives. All methods are
//! bookkeeping only; the returned structures tell the simulator how much
//! physical work (page reads/programs, erases) to charge.

use conduit_flash::FlashState;
use conduit_types::bytes::{put_u64, Reader};
use conduit_types::hash::PageMap;
use conduit_types::{
    ConduitError, DeviceHealth, FaultConfig, FaultPlan, LogicalPageId, PhysicalPageAddr, Result,
    SsdConfig,
};

use crate::alloc::PageAllocator;
use crate::coherence::CoherenceDirectory;
use crate::gc::{GarbageCollector, GcWork};
use crate::l2p::{L2pTable, LookupKind};
use crate::wear::{WearLeveler, WearReport};

/// Cumulative FTL activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FtlStats {
    /// Logical pages mapped for the first time (initial data placement).
    pub pages_mapped: u64,
    /// Out-of-place logical page rewrites.
    pub rewrites: u64,
    /// Valid pages relocated by garbage collection.
    pub gc_relocations: u64,
    /// Blocks erased by garbage collection.
    pub gc_erases: u64,
    /// Valid pages migrated out of cold blocks by the wear leveler (the
    /// physical work behind each scheduled swap).
    pub wear_relocations: u64,
    /// L2P mapping-cache hits.
    pub l2p_hits: u64,
    /// L2P mapping-cache misses.
    pub l2p_misses: u64,
}

/// Cumulative fault-injection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Page programs that failed (each retires the block and retries).
    pub program_failures: u64,
    /// Block erases that failed during garbage collection (each retires
    /// the victim).
    pub erase_failures: u64,
    /// Extra read attempts taken by the transient-read retry ladder.
    pub read_retries: u64,
    /// Whole-die failures (each retires every block of the die).
    pub die_failures: u64,
    /// Valid pages relocated off retired blocks (remap-on-failure work).
    pub remapped_pages: u64,
}

/// The flash translation layer.
///
/// # Examples
///
/// ```
/// use conduit_ftl::Ftl;
/// use conduit_types::{LogicalPageId, SsdConfig};
///
/// let mut ftl = Ftl::new(&SsdConfig::small_for_tests())?;
/// let pages = [LogicalPageId::new(0), LogicalPageId::new(1)];
/// ftl.map_group(&pages)?;
/// let (a, _) = ftl.translate(pages[0])?;
/// let (b, _) = ftl.translate(pages[1])?;
/// assert!(a.same_block(b));
/// # Ok::<(), conduit_types::ConduitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ftl {
    state: FlashState,
    l2p: L2pTable,
    alloc: PageAllocator,
    coherence: CoherenceDirectory,
    gc: GarbageCollector,
    wear: WearLeveler,
    /// Physical → logical map, keyed by flat physical page index.
    reverse: PageMap<u64, LogicalPageId>,
    logical_pages: u64,
    stats: FtlStats,
    faults: FaultConfig,
    plan: FaultPlan,
    health: DeviceHealth,
    retired_blocks: u64,
    fault_stats: FaultStats,
}

impl Ftl {
    /// Builds an FTL for the configured SSD with an empty mapping.
    ///
    /// A quarter of the SSD DRAM is budgeted for the DFTL mapping cache at
    /// eight bytes per entry.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidConfig`] if the geometry is degenerate
    /// (no pages).
    pub fn new(cfg: &SsdConfig) -> Result<Self> {
        Ftl::with_faults(cfg, FaultConfig::default())
    }

    /// Builds an FTL with a fault-injection plan attached. The default
    /// (all-zero) configuration is inert — [`Ftl::new`] uses it — so fault
    /// support costs nothing on a fault-free device.
    ///
    /// # Errors
    ///
    /// Same contract as [`Ftl::new`].
    pub fn with_faults(cfg: &SsdConfig, faults: FaultConfig) -> Result<Self> {
        let state = FlashState::new(&cfg.flash);
        if state.geometry().total_pages() == 0 {
            return Err(ConduitError::invalid_config("flash geometry has no pages"));
        }
        let cache_entries = (cfg.dram.capacity_bytes / 4 / 8).max(1024) as usize;
        let alloc = PageAllocator::new(&state);
        Ok(Ftl {
            alloc,
            l2p: L2pTable::new(cache_entries),
            coherence: CoherenceDirectory::new(),
            gc: GarbageCollector::new(0.0625),
            wear: WearLeveler::new(64),
            reverse: PageMap::default(),
            logical_pages: cfg.logical_pages(),
            state,
            stats: FtlStats::default(),
            plan: FaultPlan::new(faults.seed),
            faults,
            health: DeviceHealth::Healthy,
            retired_blocks: 0,
            fault_stats: FaultStats::default(),
        })
    }

    /// The flash array state (page validity, wear, bad blocks).
    pub fn flash_state(&self) -> &FlashState {
        &self.state
    }

    /// The coherence directory.
    pub fn coherence(&self) -> &CoherenceDirectory {
        &self.coherence
    }

    /// Mutable access to the coherence directory.
    pub fn coherence_mut(&mut self) -> &mut CoherenceDirectory {
        &mut self.coherence
    }

    /// The garbage-collection policy (read-only: invocation counters and
    /// thresholds).
    pub fn gc(&self) -> &GarbageCollector {
        &self.gc
    }

    /// The wear-leveling policy (read-only: scheduled-swap counters).
    pub fn wear(&self) -> &WearLeveler {
        &self.wear
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> FtlStats {
        let mut s = self.stats;
        let (hits, misses) = self.l2p.cache_stats();
        s.l2p_hits = hits;
        s.l2p_misses = misses;
        s
    }

    /// Number of logical pages the device exposes.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// The fault-injection configuration in force.
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// Current device health.
    pub fn health(&self) -> DeviceHealth {
        self.health
    }

    /// Blocks retired as bad so far.
    pub fn retired_blocks(&self) -> u64 {
        self.retired_blocks
    }

    /// Cumulative fault-injection counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Rejects writes once the spare-block budget is exhausted: the device
    /// model calls this before accepting a store, so a degraded device
    /// turns writes away at the front door rather than deep inside a
    /// flush.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::DeviceDegraded`] on a degraded device.
    pub fn ensure_writable(&self) -> Result<()> {
        self.check_writable()
    }

    /// Rejects writes once the spare-block budget is exhausted.
    fn check_writable(&self) -> Result<()> {
        if self.health.is_degraded() {
            return Err(ConduitError::DeviceDegraded {
                retired_blocks: self.retired_blocks,
                spare_blocks: self.faults.spare_blocks,
            });
        }
        Ok(())
    }

    /// Fraction of physical pages currently free.
    pub fn free_fraction(&self) -> f64 {
        let (free, valid, invalid) = self.state.page_totals();
        free as f64 / (free + valid + invalid) as f64
    }

    /// Current wear report.
    pub fn wear_report(&self) -> WearReport {
        self.wear.report(&self.state)
    }

    /// Whether `page` is inside the device's logical address space.
    fn check_range(&self, page: LogicalPageId) -> Result<()> {
        if page.index() >= self.logical_pages {
            return Err(ConduitError::PageOutOfRange {
                page,
                capacity_pages: self.logical_pages,
            });
        }
        Ok(())
    }

    /// Maps (initially places) logical pages with plane striping. Pages that
    /// are already mapped are left untouched — re-preparing mapped pages is
    /// still allowed on a degraded (read-only) device; only placing *new*
    /// pages is a write.
    ///
    /// # Errors
    ///
    /// Propagates range and allocation errors, and
    /// [`ConduitError::DeviceDegraded`] if an unmapped page needs placement
    /// on a degraded device.
    pub fn map_pages(&mut self, pages: &[LogicalPageId]) -> Result<()> {
        for &page in pages {
            self.check_range(page)?;
            if self.l2p.contains(page) {
                continue;
            }
            self.check_writable()?;
            let addr = self.allocate_data_page()?;
            self.install_mapping(page, addr);
        }
        Ok(())
    }

    /// Maps a group of logical pages **co-located in the same block** (the
    /// Flash-Cosmos layout constraint for multi-operand in-flash compute),
    /// on the next plane of the striping rotation that can take the group
    /// (with faults on, a plane of a failed die cannot). Pages already mapped
    /// elsewhere keep their existing mapping, so a fully-mapped group
    /// re-prepares fine on a degraded device.
    ///
    /// # Errors
    ///
    /// Propagates range and allocation errors, and
    /// [`ConduitError::DeviceDegraded`] if unmapped pages need placement on
    /// a degraded device.
    pub fn map_group(&mut self, pages: &[LogicalPageId]) -> Result<()> {
        // The common case on re-preparation and for shared operands: every
        // page is already placed, so nothing is collected or allocated.
        if pages.iter().all(|&p| self.l2p.contains(p)) {
            return Ok(());
        }
        let unmapped: Vec<LogicalPageId> = pages
            .iter()
            .copied()
            .filter(|p| !self.l2p.contains(*p))
            .collect();
        for &page in &unmapped {
            self.check_range(page)?;
        }
        self.check_writable()?;
        let addrs =
            self.on_a_live_plane(|alloc, state| alloc.allocate_group(state, unmapped.len()))?;
        for (page, addr) in unmapped.into_iter().zip(addrs) {
            self.install_mapping(page, addr);
        }
        Ok(())
    }

    fn install_mapping(&mut self, page: LogicalPageId, addr: PhysicalPageAddr) {
        let flat = self.state.geometry().index_of(addr);
        if let Some(prev) = self.l2p.update(page, addr) {
            let prev_flat = self.state.geometry().index_of(prev);
            self.reverse.remove(&prev_flat);
            // Ignore errors: the previous page may already be invalid.
            let _ = self.state.invalidate(prev);
        }
        self.reverse.insert(flat, page);
        self.stats.pages_mapped += 1;
    }

    /// Translates a logical page, reporting whether the mapping entry was in
    /// the DFTL cache (`true`) or had to be fetched from flash (`false`).
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::UnmappedPage`] for pages never written and
    /// range errors for pages beyond the device capacity.
    pub fn translate(&mut self, page: LogicalPageId) -> Result<(PhysicalPageAddr, bool)> {
        self.check_range(page)?;
        let (addr, kind) = self.l2p.lookup(page)?;
        Ok((addr, kind == LookupKind::CacheHit))
    }

    /// Looks up a mapping without touching cache statistics.
    pub fn peek(&self, page: LogicalPageId) -> Option<PhysicalPageAddr> {
        self.l2p.peek(page)
    }

    /// Performs an out-of-place rewrite of `page` (the flash commit of a
    /// dirty result page): the old physical page is invalidated, a fresh one
    /// is programmed, and garbage collection runs if the free pool is low.
    ///
    /// Returns the new physical address and any garbage-collection work that
    /// was triggered.
    ///
    /// # Errors
    ///
    /// Propagates range and allocation errors.
    pub fn rewrite(&mut self, page: LogicalPageId) -> Result<(PhysicalPageAddr, GcWork)> {
        self.check_range(page)?;
        self.check_writable()?;
        let mut fault_work = GcWork::default();
        let addr = loop {
            let addr = self.allocate_data_page()?;
            if self.faults.is_inert() {
                break addr;
            }
            // Fault rolls, in a fixed order so replays are byte-exact: the
            // (rare, catastrophic) die failure first, then the per-block
            // program failure. A failed program leaves its target page
            // invalid, retires the block (relocating its surviving valid
            // pages) and retries on a fresh allocation; relocation programs
            // never roll faults, so retirement cannot recurse.
            let erases = self.state.block(addr).erase_count();
            let die_rate = self
                .faults
                .effective_rate(self.faults.die_fail_rate, erases);
            if self.plan.roll(die_rate) {
                self.fault_stats.die_failures += 1;
                self.state.invalidate(addr)?;
                let die = self.state.geometry().die_index_of(addr);
                fault_work.merge(self.retire_die(die)?);
                self.check_writable()?;
                continue;
            }
            let program_rate = self
                .faults
                .effective_rate(self.faults.program_fail_rate, erases);
            if self.plan.roll(program_rate) {
                self.fault_stats.program_failures += 1;
                self.state.invalidate(addr)?;
                let block = self.state.geometry().block_index_of(addr);
                fault_work.merge(self.retire_block(block)?);
                self.check_writable()?;
                continue;
            }
            break addr;
        };
        self.install_mapping(page, addr);
        self.stats.rewrites += 1;
        let mut gc = self.maybe_gc()?;
        gc.merge(fault_work);
        Ok((addr, gc))
    }

    /// Allocates one striped data page.
    fn allocate_data_page(&mut self) -> Result<PhysicalPageAddr> {
        self.on_a_live_plane(PageAllocator::allocate)
    }

    /// Runs `allocate`, which takes the next plane of the striping rotation.
    /// With faults enabled the cursor may point at a plane whose blocks are
    /// all retired, so every plane is tried before giving up; with inert
    /// faults `allocate` runs once, as a plain allocation.
    fn on_a_live_plane<T>(
        &mut self,
        mut allocate: impl FnMut(&mut PageAllocator, &mut FlashState) -> Result<T>,
    ) -> Result<T> {
        let tries = if self.faults.is_inert() {
            1
        } else {
            self.state.geometry().total_planes()
        };
        for _ in 1..tries {
            match allocate(&mut self.alloc, &mut self.state) {
                Err(ConduitError::OutOfSpace) => continue,
                other => return other,
            }
        }
        allocate(&mut self.alloc, &mut self.state)
    }

    /// Draws the transient-read retry count for a read of `addr`: a
    /// geometric ladder capped at [`FaultConfig::max_read_retries`] whose
    /// per-step probability grows with the block's wear. The final capped
    /// retry always succeeds, so reads never surface an error. Returns 0
    /// without drawing when transient read faults are disabled.
    pub fn roll_read_retries(&mut self, addr: PhysicalPageAddr) -> u32 {
        if self.faults.read_transient_rate <= 0.0 {
            return 0;
        }
        let erases = self.state.block(addr).erase_count();
        let rate = self
            .faults
            .effective_rate(self.faults.read_transient_rate, erases);
        let mut retries = 0;
        while retries < self.faults.max_read_retries && self.plan.roll(rate) {
            retries += 1;
        }
        self.fault_stats.read_retries += u64::from(retries);
        retries
    }

    /// Retires `block` as bad: marks it first (so relocation can never
    /// target it), then migrates its surviving valid pages via the regular
    /// remapping path. Exhausting the spare budget flips the device to
    /// [`DeviceHealth::Degraded`].
    fn retire_block(&mut self, block: u64) -> Result<GcWork> {
        self.state.mark_bad(block);
        self.retired_blocks += 1;
        if self.retired_blocks > self.faults.spare_blocks {
            self.health = DeviceHealth::Degraded;
        }
        let relocated = self.relocate_valid_pages(block)?;
        self.fault_stats.remapped_pages += relocated;
        Ok(GcWork {
            relocated_pages: relocated,
            erased_blocks: 0,
        })
    }

    /// Retires every block of a failed die, then salvages the die's valid
    /// pages onto the surviving dies. All blocks are marked bad before any
    /// relocation so no page can land back inside the dead die.
    fn retire_die(&mut self, die: u64) -> Result<GcWork> {
        let geo = self.state.geometry().clone();
        let blocks_per_die = geo.planes_per_die() as u64 * geo.blocks_per_plane() as u64;
        let first = die * blocks_per_die;
        let mut newly_retired = 0;
        for block in first..first + blocks_per_die {
            if !self.state.block_by_index(block).is_bad() {
                self.state.mark_bad(block);
                newly_retired += 1;
            }
        }
        self.retired_blocks += newly_retired;
        if self.retired_blocks > self.faults.spare_blocks {
            self.health = DeviceHealth::Degraded;
        }
        let mut work = GcWork::default();
        for block in first..first + blocks_per_die {
            let relocated = self.relocate_valid_pages(block)?;
            self.fault_stats.remapped_pages += relocated;
            work.relocated_pages += relocated;
        }
        Ok(work)
    }

    /// Migrates the valid pages of an already-retired block to fresh
    /// allocations. Invalidation works on bad blocks, so the source pages
    /// are released as each mapping moves.
    fn relocate_valid_pages(&mut self, block: u64) -> Result<u64> {
        let geo = self.state.geometry().clone();
        let pages_per_block = geo.pages_per_block() as u64;
        let first = block * pages_per_block;
        let mut relocated = 0;
        for flat in first..first + pages_per_block {
            let addr = geo.addr_of(flat);
            if self.state.page_state(addr) == conduit_flash::PageState::Valid {
                let Some(&lpid) = self.reverse.get(&flat) else {
                    self.state.invalidate(addr)?;
                    continue;
                };
                let new_addr = self.allocate_data_page()?;
                self.install_mapping(lpid, new_addr);
                relocated += 1;
            }
        }
        Ok(relocated)
    }

    /// Runs garbage collection if the free-page pool is below the threshold.
    /// Repeats until the pool is healthy again or no victim is available.
    ///
    /// # Errors
    ///
    /// Propagates allocation errors encountered while relocating valid pages.
    pub fn maybe_gc(&mut self) -> Result<GcWork> {
        let mut work = GcWork::default();
        while !self.health.is_degraded() && self.gc.should_run(&self.state) {
            let Some(victim) = self.gc.select_victim(&self.state) else {
                break;
            };
            work.merge(self.collect_block(victim)?);
        }
        if work.erased_blocks > 0 {
            self.stats.gc_relocations += work.relocated_pages;
            self.stats.gc_erases += work.erased_blocks;
            // Wear-leveling decision piggybacks on GC activity: when the
            // erase-count spread exceeds the tolerated budget, the scheduled
            // swap is carried out immediately — the coldest fully-written
            // block's pages are migrated (L2P remapped) and the block is
            // erased, returning its low-wear capacity to the hot allocation
            // pool. The migration work is merged into the returned `GcWork`
            // so the simulator charges its reads, programs and erase.
            if self.wear.needs_leveling(&self.state) {
                let swap = self.level_wear()?;
                self.stats.wear_relocations += swap.relocated_pages;
                work.merge(swap);
            }
        }
        Ok(work)
    }

    /// Performs one cold/hot wear-leveling swap: relocates the valid pages
    /// of the coldest fully-written block and erases it. A no-op (empty
    /// work) when no block qualifies.
    fn level_wear(&mut self) -> Result<GcWork> {
        match self.coldest_full_block() {
            Some(cold) => self.collect_block(cold),
            None => Ok(GcWork::default()),
        }
    }

    /// The non-bad, fully-written block holding valid data with the lowest
    /// erase count — the coldest data in the array. Only full blocks are
    /// considered so the migration never races the allocator's active
    /// blocks.
    fn coldest_full_block(&self) -> Option<u64> {
        // Untouched blocks are empty, so only touched blocks can qualify.
        let mut best: Option<(u64, u64)> = None;
        for (block, info) in self.state.touched_blocks() {
            if info.is_bad() || info.next_free_page().is_some() {
                continue;
            }
            let (_, valid, _) = info.page_counts();
            if valid == 0 {
                continue;
            }
            match best {
                Some((_, erases)) if info.erase_count() >= erases => {}
                _ => best = Some((block, info.erase_count())),
            }
        }
        best.map(|(block, _)| block)
    }

    /// Appends the FTL's complete mutable state to `out` in the compact
    /// checkpoint layout: the flash array as a delta-against-pristine image
    /// ([`FlashState::encode_into`]: never-written blocks are skipped, so a
    /// cold device's FTL image stays small), then the L2P table, allocator
    /// cursors, coherence directory, GC/wear counters, activity stats and
    /// the fault-injection state (configuration, plan cursor, health,
    /// retired-block count and fault counters). The encoding is
    /// deterministic (map entries are sorted), so identical FTL states
    /// always produce identical bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.state.encode_into(out);
        self.l2p.encode_into(out);
        self.alloc.encode_into(out);
        self.coherence.encode_into(out);
        put_u64(out, self.gc.invocations());
        put_u64(out, self.wear.swaps_scheduled());
        put_u64(out, self.stats.pages_mapped);
        put_u64(out, self.stats.rewrites);
        put_u64(out, self.stats.gc_relocations);
        put_u64(out, self.stats.gc_erases);
        put_u64(out, self.stats.wear_relocations);
        self.faults.encode_into(out);
        put_u64(out, self.plan.draws());
        out.push(self.health.encode());
        put_u64(out, self.retired_blocks);
        put_u64(out, self.fault_stats.program_failures);
        put_u64(out, self.fault_stats.erase_failures);
        put_u64(out, self.fault_stats.read_retries);
        put_u64(out, self.fault_stats.die_failures);
        put_u64(out, self.fault_stats.remapped_pages);
    }

    /// Decodes an FTL serialized by [`Ftl::encode_into`] for the given
    /// configuration. Derived structures (the reverse physical→logical map,
    /// cache capacity, GC/wear thresholds) are rebuilt from `cfg` and the
    /// decoded mapping rather than stored.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] for truncated bytes, a
    /// geometry mismatch, or a mapping that points outside the flash array.
    pub fn decode_from(cfg: &SsdConfig, r: &mut Reader<'_>) -> Result<Self> {
        let mut ftl = Ftl::new(cfg)?;
        ftl.state = FlashState::decode_from(&cfg.flash, r)?;
        ftl.l2p = L2pTable::decode_from(ftl.l2p.cache_capacity(), r)?;
        ftl.alloc = PageAllocator::decode_from(&ftl.state, r)?;
        ftl.coherence = CoherenceDirectory::decode_from(r)?;
        ftl.gc.restore_invocations(r.counter()?);
        ftl.wear.restore_swaps(r.counter()?);
        ftl.stats.pages_mapped = r.counter()?;
        ftl.stats.rewrites = r.counter()?;
        ftl.stats.gc_relocations = r.counter()?;
        ftl.stats.gc_erases = r.counter()?;
        ftl.stats.wear_relocations = r.counter()?;
        // The reverse map is the inverse of the decoded L2P mapping.
        let total_pages = ftl.state.geometry().total_pages();
        let mut reverse = PageMap::with_capacity_and_hasher(ftl.l2p.len(), Default::default());
        for (page, addr) in ftl.l2p.mappings() {
            if page.index() >= ftl.logical_pages {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "L2P mapping for page {page} is outside the logical address space"
                )));
            }
            let flat = ftl.state.geometry().index_of(addr);
            // Every component (channel/chip/die/plane/block/page) must be
            // in range, not just the flat index: an out-of-range component
            // can alias a valid flat index and then panic on first use. A
            // canonical address round-trips through its flat index exactly.
            if flat >= total_pages || ftl.state.geometry().addr_of(flat) != addr {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "L2P mapping for page {page} points outside the flash array"
                )));
            }
            if reverse.insert(flat, page).is_some() {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "two logical pages map to the same physical page (at {page})"
                )));
            }
        }
        ftl.reverse = reverse;
        ftl.faults = FaultConfig::decode_from(r)?;
        ftl.plan = FaultPlan::restore(ftl.faults.seed, r.counter()?);
        ftl.health = DeviceHealth::decode(r.u8()?)?;
        ftl.retired_blocks = r.counter()?;
        ftl.fault_stats.program_failures = r.counter()?;
        ftl.fault_stats.erase_failures = r.counter()?;
        ftl.fault_stats.read_retries = r.counter()?;
        ftl.fault_stats.die_failures = r.counter()?;
        ftl.fault_stats.remapped_pages = r.counter()?;
        Ok(ftl)
    }

    /// Relocates the valid pages of `victim` and erases it. With faults
    /// enabled the erase itself may fail, in which case the (now empty)
    /// victim is retired instead of returning to the free pool.
    fn collect_block(&mut self, victim: u64) -> Result<GcWork> {
        let geo = self.state.geometry().clone();
        let pages_per_block = geo.pages_per_block() as u64;
        let first = victim * pages_per_block;
        let mut relocated = 0;
        for flat in first..first + pages_per_block {
            let addr = geo.addr_of(flat);
            if self.state.page_state(addr) == conduit_flash::PageState::Valid {
                let Some(&lpid) = self.reverse.get(&flat) else {
                    // A valid page with no logical owner (should not happen);
                    // drop it so the erase can proceed.
                    self.state.invalidate(addr)?;
                    continue;
                };
                let new_addr = self.allocate_data_page()?;
                self.install_mapping(lpid, new_addr);
                relocated += 1;
            }
        }
        if !self.faults.is_inert() {
            let erases = self.state.block_by_index(victim).erase_count();
            let rate = self
                .faults
                .effective_rate(self.faults.erase_fail_rate, erases);
            if self.plan.roll(rate) {
                self.fault_stats.erase_failures += 1;
                let mut work = self.retire_block(victim)?;
                work.relocated_pages += relocated;
                return Ok(work);
            }
        }
        self.state.erase_block(victim)?;
        Ok(GcWork {
            relocated_pages: relocated,
            erased_blocks: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_types::DataLocation;

    fn ftl() -> Ftl {
        Ftl::new(&SsdConfig::small_for_tests()).unwrap()
    }

    fn pages(range: std::ops::Range<u64>) -> Vec<LogicalPageId> {
        range.map(LogicalPageId::new).collect()
    }

    #[test]
    fn unmapped_page_translation_fails() {
        let mut f = ftl();
        assert!(matches!(
            f.translate(LogicalPageId::new(0)),
            Err(ConduitError::UnmappedPage { .. })
        ));
    }

    #[test]
    fn out_of_range_page_is_rejected() {
        let mut f = ftl();
        let too_big = LogicalPageId::new(f.logical_pages());
        assert!(matches!(
            f.map_pages(&[too_big]),
            Err(ConduitError::PageOutOfRange { .. })
        ));
        assert!(f.translate(too_big).is_err());
    }

    #[test]
    fn map_and_translate_roundtrip() {
        let mut f = ftl();
        let ps = pages(0..8);
        f.map_pages(&ps).unwrap();
        for p in &ps {
            let (addr, _) = f.translate(*p).unwrap();
            assert_eq!(f.peek(*p), Some(addr));
        }
        assert_eq!(f.stats().pages_mapped, 8);
    }

    #[test]
    fn striped_mapping_spreads_planes() {
        let mut f = ftl();
        let ps = pages(0..8);
        f.map_pages(&ps).unwrap();
        let planes: std::collections::HashSet<u64> = ps
            .iter()
            .map(|p| {
                let addr = f.peek(*p).unwrap();
                f.flash_state().geometry().plane_index_of(addr)
            })
            .collect();
        assert_eq!(planes.len(), 8);
    }

    #[test]
    fn group_mapping_colocates_in_one_block() {
        let mut f = ftl();
        let ps = pages(10..14);
        f.map_group(&ps).unwrap();
        let addrs: Vec<PhysicalPageAddr> = ps.iter().map(|p| f.peek(*p).unwrap()).collect();
        assert!(addrs.iter().all(|a| a.same_block(addrs[0])));
    }

    #[test]
    fn group_mapping_respects_existing_mappings() {
        let mut f = ftl();
        f.map_pages(&pages(0..1)).unwrap();
        let before = f.peek(LogicalPageId::new(0)).unwrap();
        f.map_group(&pages(0..4)).unwrap();
        assert_eq!(f.peek(LogicalPageId::new(0)), Some(before));
        // The remaining three are still co-located with each other.
        let rest: Vec<PhysicalPageAddr> = pages(1..4).iter().map(|p| f.peek(*p).unwrap()).collect();
        assert!(rest.iter().all(|a| a.same_block(rest[0])));
    }

    #[test]
    fn rewrite_moves_the_page_and_invalidates_the_old_one() {
        let mut f = ftl();
        f.map_pages(&pages(0..1)).unwrap();
        let old = f.peek(LogicalPageId::new(0)).unwrap();
        let (new, _) = f.rewrite(LogicalPageId::new(0)).unwrap();
        assert_ne!(old, new);
        assert_eq!(
            f.flash_state().page_state(old),
            conduit_flash::PageState::Invalid
        );
        assert_eq!(f.stats().rewrites, 1);
    }

    #[test]
    fn gc_reclaims_space_under_pressure() {
        // Tiny device so rewrites quickly exhaust free pages.
        let mut cfg = SsdConfig::small_for_tests();
        cfg.flash.channels = 1;
        cfg.flash.dies_per_channel = 1;
        cfg.flash.planes_per_die = 1;
        cfg.flash.blocks_per_plane = 8;
        cfg.flash.pages_per_block = 8;
        let mut f = Ftl::new(&cfg).unwrap();
        f.map_pages(&pages(0..8)).unwrap();
        let mut total_gc = GcWork::default();
        for _ in 0..200 {
            let (_, gc) = f.rewrite(LogicalPageId::new(3)).unwrap();
            total_gc.merge(gc);
        }
        assert!(total_gc.erased_blocks > 0, "GC must have run");
        assert!(f.free_fraction() > 0.0);
        assert!(f.stats().gc_erases > 0);
        // All logical pages remain translatable after GC moved things around.
        for p in pages(0..8) {
            f.translate(p).unwrap();
        }
    }

    /// A single-plane, 8×8-page array: small enough that rewrites exhaust
    /// the free pool quickly and wear imbalance is easy to manufacture.
    fn tiny_cfg() -> SsdConfig {
        let mut cfg = SsdConfig::small_for_tests();
        cfg.flash.channels = 1;
        cfg.flash.dies_per_channel = 1;
        cfg.flash.planes_per_die = 1;
        cfg.flash.blocks_per_plane = 8;
        cfg.flash.pages_per_block = 8;
        cfg
    }

    #[test]
    fn wear_leveling_migrates_the_cold_blocks_pages() {
        let cfg = tiny_cfg();
        let mut f = Ftl::new(&cfg).unwrap();
        // Cold data: one completely full block that is never rewritten.
        f.map_group(&pages(0..8)).unwrap();
        let cold_before = f.peek(LogicalPageId::new(0)).unwrap();
        let cold_block = f.flash_state().geometry().block_index_of(cold_before);
        // Manufacture a wear imbalance beyond the leveler's budget of 64 by
        // erasing the free blocks directly.
        for block in 0..f.flash_state().total_blocks() {
            if block == cold_block {
                continue;
            }
            for _ in 0..70 {
                f.state.erase_block(block).unwrap();
            }
        }
        assert!(f.wear_report().spread > 64);

        // Hot traffic elsewhere until GC runs (the leveling hook fires on
        // GC activity).
        f.map_pages(&pages(8..16)).unwrap();
        for _ in 0..200 {
            f.rewrite(LogicalPageId::new(8)).unwrap();
            if f.stats().wear_relocations > 0 {
                break;
            }
        }

        let stats = f.stats();
        assert!(
            stats.wear_relocations >= 8,
            "the cold block's 8 valid pages must actually migrate: {stats:?}"
        );
        assert!(f.wear().swaps_scheduled() > 0);
        // The swap is real: the cold data moved (L2P updated) and the cold
        // block re-entered the erase rotation.
        assert_ne!(f.peek(LogicalPageId::new(0)), Some(cold_before));
        assert!(f.state.block_by_index(cold_block).erase_count() > 0);
        // Every page is still translatable after the migration.
        for p in pages(0..16) {
            f.translate(p).unwrap();
        }
    }

    #[test]
    fn checkpoint_roundtrips_an_aged_ftl() {
        let cfg = tiny_cfg();
        let mut f = Ftl::new(&cfg).unwrap();
        f.map_group(&pages(0..4)).unwrap();
        f.map_pages(&pages(4..12)).unwrap();
        f.coherence_mut()
            .record_write(LogicalPageId::new(4), DataLocation::Dram);
        for _ in 0..60 {
            f.rewrite(LogicalPageId::new(5)).unwrap();
        }
        assert!(f.stats().gc_erases > 0, "the stream must have aged the FTL");

        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let mut r = conduit_types::bytes::Reader::new(&buf);
        let back = Ftl::decode_from(&cfg, &mut r).unwrap();
        assert!(r.finished());
        assert_eq!(back, f);

        // The encoding is deterministic: re-encoding the decoded FTL gives
        // byte-identical output.
        let mut buf2 = Vec::new();
        back.encode_into(&mut buf2);
        assert_eq!(buf, buf2);

        // Corruption is rejected.
        assert!(Ftl::decode_from(&cfg, &mut conduit_types::bytes::Reader::new(&buf[..7])).is_err());
        let other = SsdConfig::small_for_tests();
        assert!(Ftl::decode_from(&other, &mut conduit_types::bytes::Reader::new(&buf)).is_err());
    }

    #[test]
    fn corrupt_checkpoints_error_instead_of_panicking_on_use() {
        // Decoding untrusted bytes must never set up a panic: every
        // single-word corruption either fails decoding with
        // CorruptCheckpoint or yields an FTL that survives normal use
        // (aliasing address components, wild allocator cursors and the
        // like must be caught by validation, not by an index-out-of-bounds
        // later).
        let cfg = tiny_cfg();
        let mut f = Ftl::new(&cfg).unwrap();
        f.map_pages(&pages(0..12)).unwrap();
        for _ in 0..20 {
            f.rewrite(LogicalPageId::new(5)).unwrap();
        }
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        for offset in (0..buf.len()).step_by(8) {
            let mut corrupt = buf.clone();
            for byte in corrupt.iter_mut().skip(offset).take(8) {
                *byte = 0xFF;
            }
            let decoded = Ftl::decode_from(&cfg, &mut conduit_types::bytes::Reader::new(&corrupt));
            if let Ok(mut back) = decoded {
                // Whatever decoded must be safe to drive; errors are fine,
                // panics are not.
                let _ = back.translate(LogicalPageId::new(0));
                let _ = back.rewrite(LogicalPageId::new(5));
                let _ = back.map_pages(&pages(12..14));
            }
        }
    }

    #[test]
    fn inert_fault_config_changes_nothing() {
        // A seeded-but-inert fault config must be behaviourally identical
        // to no fault support at all: same placements, same stats, and no
        // random draws.
        let cfg = tiny_cfg();
        let mut plain = Ftl::new(&cfg).unwrap();
        let mut seeded = Ftl::with_faults(&cfg, FaultConfig::with_seed(0xDEAD)).unwrap();
        for f in [&mut plain, &mut seeded] {
            f.map_pages(&pages(0..8)).unwrap();
            for _ in 0..80 {
                f.rewrite(LogicalPageId::new(3)).unwrap();
            }
        }
        for p in pages(0..8) {
            assert_eq!(plain.peek(p), seeded.peek(p));
        }
        assert_eq!(plain.stats(), seeded.stats());
        assert_eq!(seeded.fault_stats(), FaultStats::default());
        assert_eq!(seeded.health(), DeviceHealth::Healthy);
    }

    /// Like [`tiny_cfg`] but with enough spare capacity that retiring a
    /// handful of blocks never exhausts the device.
    fn roomy_cfg() -> SsdConfig {
        let mut cfg = tiny_cfg();
        cfg.flash.blocks_per_plane = 64;
        cfg
    }

    #[test]
    fn program_failures_retire_blocks_and_remap_pages() {
        let cfg = roomy_cfg();
        let mut faults = FaultConfig::with_seed(7);
        faults.program_fail_rate = 0.10;
        faults.spare_blocks = 1_000;
        let mut f = Ftl::with_faults(&cfg, faults).unwrap();
        f.map_pages(&pages(0..8)).unwrap();
        for _ in 0..120 {
            f.rewrite(LogicalPageId::new(3)).unwrap();
        }
        let stats = f.fault_stats();
        assert!(stats.program_failures > 0, "{stats:?}");
        assert_eq!(f.retired_blocks(), stats.program_failures);
        assert_eq!(f.health(), DeviceHealth::Healthy);
        // No data was lost: every logical page still translates, and no
        // mapping points into a retired block.
        for p in pages(0..8) {
            let (addr, _) = f.translate(p).unwrap();
            assert!(!f.flash_state().block(addr).is_bad());
        }
    }

    #[test]
    fn spare_exhaustion_degrades_the_device_and_rejects_writes() {
        let cfg = tiny_cfg();
        let mut faults = FaultConfig::with_seed(1);
        faults.program_fail_rate = 1.0;
        faults.spare_blocks = 2;
        let mut f = Ftl::with_faults(&cfg, faults).unwrap();
        f.map_pages(&pages(0..4)).unwrap();
        let err = f.rewrite(LogicalPageId::new(0)).unwrap_err();
        assert!(
            matches!(err, ConduitError::DeviceDegraded { retired_blocks, spare_blocks }
                if retired_blocks > spare_blocks),
            "{err:?}"
        );
        assert_eq!(f.health(), DeviceHealth::Degraded);
        // Reads still work; further writes keep failing with the typed
        // error instead of panicking.
        for p in pages(0..4) {
            f.translate(p).unwrap();
        }
        assert!(matches!(
            f.rewrite(LogicalPageId::new(1)),
            Err(ConduitError::DeviceDegraded { .. })
        ));
        assert!(matches!(
            f.map_pages(&pages(4..5)),
            Err(ConduitError::DeviceDegraded { .. })
        ));
    }

    #[test]
    fn erase_failures_retire_gc_victims() {
        let mut cfg = tiny_cfg();
        cfg.flash.blocks_per_plane = 16;
        let mut faults = FaultConfig::with_seed(3);
        faults.erase_fail_rate = 0.5;
        faults.spare_blocks = 1_000;
        let mut f = Ftl::with_faults(&cfg, faults).unwrap();
        f.map_pages(&pages(0..8)).unwrap();
        // Rewrite until garbage collection has hit its first failing erase;
        // stop there so the shrinking device does not spiral out of space.
        for _ in 0..2_000 {
            if f.fault_stats().erase_failures > 0 {
                break;
            }
            f.rewrite(LogicalPageId::new(3)).unwrap();
        }
        let stats = f.fault_stats();
        assert!(stats.erase_failures > 0, "{stats:?}");
        assert_eq!(f.retired_blocks(), stats.erase_failures);
        for p in pages(0..8) {
            f.translate(p).unwrap();
        }
    }

    /// Two single-plane dies, so a die failure leaves a survivor, under a
    /// seeded die-failure rate; pages 0..8 are mapped.
    fn two_die_ftl() -> Ftl {
        let mut cfg = SsdConfig::small_for_tests();
        cfg.flash.channels = 2;
        cfg.flash.dies_per_channel = 1;
        cfg.flash.planes_per_die = 1;
        cfg.flash.blocks_per_plane = 16;
        cfg.flash.pages_per_block = 8;
        let mut faults = FaultConfig::with_seed(11);
        faults.die_fail_rate = 0.05;
        faults.spare_blocks = 10_000;
        let mut f = Ftl::with_faults(&cfg, faults).unwrap();
        f.map_pages(&pages(0..8)).unwrap();
        f
    }

    #[test]
    fn die_failure_retires_the_whole_die_and_salvages_its_pages() {
        let mut f = two_die_ftl();
        let mut die_failed = false;
        for _ in 0..200 {
            if f.rewrite(LogicalPageId::new(3)).is_err() {
                break;
            }
            if f.fault_stats().die_failures > 0 {
                die_failed = true;
                break;
            }
        }
        assert!(die_failed, "stats: {:?}", f.fault_stats());
        // The whole die (16 blocks) retired at once, and the salvaged pages
        // all live on the surviving die.
        assert!(f.retired_blocks() >= 16, "{}", f.retired_blocks());
        for p in pages(0..8) {
            let (addr, _) = f.translate(p).unwrap();
            assert!(!f.flash_state().block(addr).is_bad());
        }
    }

    #[test]
    fn group_mappings_skip_the_planes_of_a_failed_die() {
        // After the first die failure every group lands on the surviving
        // die's plane, not only every other one.
        let mut f = two_die_ftl();
        for _ in 0..200 {
            if f.fault_stats().die_failures > 0 {
                break;
            }
            f.rewrite(LogicalPageId::new(3)).unwrap();
        }
        assert!(f.fault_stats().die_failures > 0, "{:?}", f.fault_stats());
        for g in 0..4u64 {
            let group = pages(100 + 4 * g..104 + 4 * g);
            f.map_group(&group).unwrap();
            let addrs: Vec<PhysicalPageAddr> = group.iter().map(|&p| f.peek(p).unwrap()).collect();
            assert!(addrs.windows(2).all(|w| w[0].same_block(w[1])), "{addrs:?}");
            assert!(!f.flash_state().block(addrs[0]).is_bad(), "{addrs:?}");
        }
    }

    #[test]
    fn read_retry_ladder_is_capped_and_seed_deterministic() {
        let cfg = tiny_cfg();
        let mut faults = FaultConfig::with_seed(21);
        faults.read_transient_rate = 0.6;
        faults.max_read_retries = 3;
        let run = |mut f: Ftl| -> (Vec<u32>, u64) {
            f.map_pages(&pages(0..2)).unwrap();
            let addr = f.peek(LogicalPageId::new(0)).unwrap();
            let ladder: Vec<u32> = (0..50).map(|_| f.roll_read_retries(addr)).collect();
            (ladder, f.fault_stats().read_retries)
        };
        let (a, total_a) = run(Ftl::with_faults(&cfg, faults).unwrap());
        let (b, total_b) = run(Ftl::with_faults(&cfg, faults).unwrap());
        assert_eq!(a, b, "same seed must give the same retry ladder");
        assert_eq!(total_a, total_b);
        assert!(total_a > 0);
        assert!(a.iter().all(|&r| r <= 3));
        assert!(a.iter().any(|&r| r > 0));
    }

    #[test]
    fn faulty_ftl_checkpoint_roundtrips_with_plan_cursor() {
        let cfg = roomy_cfg();
        let mut faults = FaultConfig::with_seed(9);
        faults.program_fail_rate = 0.1;
        faults.read_transient_rate = 0.2;
        faults.spare_blocks = 1_000;
        let mut f = Ftl::with_faults(&cfg, faults).unwrap();
        f.map_pages(&pages(0..8)).unwrap();
        for _ in 0..60 {
            f.rewrite(LogicalPageId::new(5)).unwrap();
        }
        let addr = f.peek(LogicalPageId::new(0)).unwrap();
        f.roll_read_retries(addr);
        assert!(f.fault_stats().program_failures > 0);

        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let mut r = conduit_types::bytes::Reader::new(&buf);
        let mut back = Ftl::decode_from(&cfg, &mut r).unwrap();
        assert!(r.finished());
        assert_eq!(back, f);
        // The restored plan continues the exact random stream: the next
        // rewrites fail (or not) identically on both copies.
        for _ in 0..30 {
            let a = f.rewrite(LogicalPageId::new(5));
            let b = back.rewrite(LogicalPageId::new(5));
            assert_eq!(a, b);
        }
        assert_eq!(back.fault_stats(), f.fault_stats());
    }

    #[test]
    fn coherence_directory_is_reachable() {
        let mut f = ftl();
        f.coherence_mut()
            .record_write(LogicalPageId::new(0), DataLocation::Dram);
        assert_eq!(f.coherence().dirty_pages(), 1);
    }

    #[test]
    fn l2p_cache_stats_flow_into_ftl_stats() {
        let mut f = ftl();
        f.map_pages(&pages(0..4)).unwrap();
        for _ in 0..3 {
            f.translate(LogicalPageId::new(0)).unwrap();
        }
        let stats = f.stats();
        assert!(stats.l2p_hits >= 3);
    }
}
