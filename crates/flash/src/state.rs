//! Physical page state tracking.
//!
//! The flash translation layer needs to know, for every physical page,
//! whether it is free (erased), holds valid data, or holds stale (invalid)
//! data awaiting garbage collection; and, for every block, how many times it
//! has been erased (for wear-leveling) and whether it has been retired as a
//! bad block.
//!
//! The array is stored **sparsely**: only blocks that have been touched
//! (programmed, erased or retired) carry a record, and every other block
//! reads as pristine — all pages free, never erased, not bad. Per plane the
//! records cover the *prefix* of blocks up to the highest one touched so
//! far, each block a small record (erase count, write pointer, invalid
//! count, bad flag) plus one state byte per page. Block indices are
//! plane-major and the allocator opens blocks in scan order, so a plane's
//! prefix is exactly the blocks it has opened. Building an array therefore
//! allocates one empty slab per plane and nothing per block, and memory,
//! scans (victim selection, wear statistics, the sparse checkpoint) and
//! first-touch page faults all grow with the blocks a run uses rather than
//! with the geometry: a paper-scale device has 262,144 blocks and 51.4 M
//! pages, of which a figure run touches a few hundred blocks. (A dense
//! zero-filled layout would be nearly free to *allocate*, since the OS maps
//! zero pages lazily, but would pay page faults the first time placement
//! writes each column, and every whole-array scan.)
//!
//! Aggregates the hot paths ask for on every operation (`page_totals`,
//! per-block page counts, wear statistics) are maintained incrementally and
//! answered in O(1) instead of rescanning the array.

use crate::geometry::FlashGeometry;
use conduit_types::bytes::{put_u32, put_u64, Reader};
use conduit_types::{ConduitError, FlashConfig, PhysicalPageAddr, Result};

/// The lifecycle state of one physical flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageState {
    /// Erased and available for programming.
    #[default]
    Free,
    /// Programmed and mapped by the FTL.
    Valid,
    /// Programmed but superseded; reclaimable by garbage collection.
    Invalid,
}

const PAGE_FREE: u8 = 0;
const PAGE_VALID: u8 = 1;
const PAGE_INVALID: u8 = 2;

fn decode_page(code: u8) -> PageState {
    match code {
        PAGE_VALID => PageState::Valid,
        PAGE_INVALID => PageState::Invalid,
        _ => PageState::Free,
    }
}

/// A by-value view of one block's bookkeeping: erase count, bad flag, write
/// pointer and page counts. Cheap to copy; an untouched block reads as the
/// pristine record without touching memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    erase_count: u64,
    bad: bool,
    write_pointer: u32,
    pages_per_block: u32,
    invalid: u32,
}

impl BlockInfo {
    /// Number of times this block has been erased.
    pub fn erase_count(&self) -> u64 {
        self.erase_count
    }

    /// Whether the block has been retired.
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// Number of pages in each state: `(free, valid, invalid)`.
    ///
    /// Flash programs sequentially, so every page below the write pointer is
    /// `Valid` or `Invalid` and every page at or above it is `Free`; the
    /// counts fall out of the write pointer and the maintained invalid
    /// count without touching the page array.
    pub fn page_counts(&self) -> (u32, u32, u32) {
        let free = self.pages_per_block - self.write_pointer;
        let valid = self.write_pointer - self.invalid;
        (free, valid, self.invalid)
    }

    /// The next programmable page index, if the block is not full.
    pub fn next_free_page(&self) -> Option<u32> {
        if self.bad || self.write_pointer >= self.pages_per_block {
            None
        } else {
            Some(self.write_pointer)
        }
    }
}

/// The stored bookkeeping of one touched block. The default value is the
/// pristine block every untouched index reads as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct BlockRecord {
    erase_count: u64,
    write_pointer: u32,
    /// Invalid pages below the write pointer (GC victim selection).
    invalid: u32,
    bad: bool,
}

impl BlockRecord {
    /// Whether the block is indistinguishable from a factory-fresh one:
    /// never programmed, never erased, not retired. Such blocks carry no
    /// information and are skipped by the sparse encoding.
    fn is_pristine(&self) -> bool {
        self.erase_count == 0 && !self.bad && self.write_pointer == 0
    }
}

/// One plane's touched prefix: records for blocks `0..blocks.len()` and
/// their page codes, `pages_per_block` per block.
///
/// Invariant: the last record (if any) is not pristine — a touched block
/// never becomes pristine again, and decoders store no pristine record —
/// so two arrays holding the same contents have identical prefixes and the
/// derived equality is semantic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct PlaneBlocks {
    blocks: Vec<BlockRecord>,
    /// One code per page (`PAGE_FREE`/`PAGE_VALID`/`PAGE_INVALID`), indexed
    /// `block * pages_per_block + page`.
    pages: Vec<u8>,
}

/// State of every physical page and block in the flash array.
///
/// # Examples
///
/// ```
/// use conduit_flash::{FlashState, PageState};
/// use conduit_types::SsdConfig;
///
/// let cfg = SsdConfig::small_for_tests();
/// let mut state = FlashState::new(&cfg.flash);
/// let addr = state.geometry().addr_of(0);
/// state.program(addr)?;
/// assert_eq!(state.page_state(addr), PageState::Valid);
/// # Ok::<(), conduit_types::ConduitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashState {
    geometry: FlashGeometry,
    pages_per_block: u32,
    /// The touched prefix of every plane, indexed by global plane index.
    planes: Vec<PlaneBlocks>,
    /// Array-wide running totals, maintained on every transition.
    valid_pages: u64,
    invalid_pages: u64,
    total_erases: u64,
    max_erases: u64,
    /// Number of blocks with a non-zero erase count (the wear minimum is
    /// zero until every block has been erased at least once).
    erased_blocks: u64,
}

impl FlashState {
    /// Creates a fully-erased flash array. Every block reads as pristine,
    /// so this allocates one empty slab per plane and nothing per block.
    pub fn new(cfg: &FlashConfig) -> Self {
        let geometry = FlashGeometry::new(cfg);
        FlashState {
            planes: vec![PlaneBlocks::default(); geometry.total_planes() as usize],
            geometry,
            pages_per_block: cfg.pages_per_block,
            valid_pages: 0,
            invalid_pages: 0,
            total_erases: 0,
            max_erases: 0,
            erased_blocks: 0,
        }
    }

    /// The flash geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Splits a flat block index into `(plane, block within the plane)`.
    fn split(&self, block_index: u64) -> (usize, usize) {
        let per_plane = self.geometry.blocks_per_plane() as u64;
        (
            (block_index / per_plane) as usize,
            (block_index % per_plane) as usize,
        )
    }

    /// The stored record of a block, or the pristine record if the block
    /// lies beyond its plane's touched prefix.
    fn record(&self, plane: usize, block: usize) -> BlockRecord {
        self.planes[plane]
            .blocks
            .get(block)
            .copied()
            .unwrap_or_default()
    }

    /// The code of one page; pages of untouched blocks are free.
    fn page_code(&self, plane: usize, block: usize, page: usize) -> u8 {
        let ppb = self.pages_per_block as usize;
        let slab = &self.planes[plane];
        if page < ppb && block < slab.blocks.len() {
            slab.pages[block * ppb + page]
        } else {
            PAGE_FREE
        }
    }

    /// Grows the plane's touched prefix to cover `block` (new blocks are
    /// pristine) and returns the plane. Called only once a mutation is
    /// known to succeed, so rejected operations leave the layout alone.
    fn touch(&mut self, plane: usize, block: usize) -> &mut PlaneBlocks {
        let ppb = self.pages_per_block as usize;
        let slab = &mut self.planes[plane];
        if block >= slab.blocks.len() {
            slab.blocks.resize(block + 1, BlockRecord::default());
            slab.pages.resize((block + 1) * ppb, PAGE_FREE);
        }
        slab
    }

    /// Every touched (programmed, erased or retired) block in ascending
    /// index order with its bookkeeping. Untouched blocks are pristine:
    /// free, never erased and not bad.
    pub fn touched_blocks(&self) -> impl Iterator<Item = (u64, BlockInfo)> + '_ {
        let per_plane = self.geometry.blocks_per_plane() as u64;
        self.planes
            .iter()
            .enumerate()
            .flat_map(move |(plane, slab)| {
                slab.blocks
                    .iter()
                    .enumerate()
                    .filter(|(_, rec)| !rec.is_pristine())
                    .map(move |(block, rec)| {
                        (plane as u64 * per_plane + block as u64, self.info(*rec))
                    })
            })
    }

    fn info(&self, rec: BlockRecord) -> BlockInfo {
        BlockInfo {
            erase_count: rec.erase_count,
            bad: rec.bad,
            write_pointer: rec.write_pointer,
            pages_per_block: self.pages_per_block,
            invalid: rec.invalid,
        }
    }

    /// Block bookkeeping for the block containing `addr`.
    pub fn block(&self, addr: PhysicalPageAddr) -> BlockInfo {
        self.block_by_index(self.geometry.block_index_of(addr))
    }

    /// Block bookkeeping by flat block index.
    pub fn block_by_index(&self, block_index: u64) -> BlockInfo {
        let (plane, block) = self.split(block_index);
        self.info(self.record(plane, block))
    }

    /// Total number of blocks.
    pub fn total_blocks(&self) -> u64 {
        self.geometry.total_blocks()
    }

    /// The state of a single physical page.
    pub fn page_state(&self, addr: PhysicalPageAddr) -> PageState {
        let (plane, block) = self.split(self.geometry.block_index_of(addr));
        decode_page(self.page_code(plane, block, addr.page as usize))
    }

    /// Marks a page as programmed with valid data.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::Simulation`] if the page is not free, is not
    /// the block's next sequential page, lies beyond the block, or the block
    /// is bad — all of which indicate an FTL bug.
    pub fn program(&mut self, addr: PhysicalPageAddr) -> Result<()> {
        let (plane, block) = self.split(self.geometry.block_index_of(addr));
        let page = addr.page as usize;
        let rec = self.record(plane, block);
        if rec.bad {
            return Err(ConduitError::simulation(format!(
                "program to bad block at {addr}"
            )));
        }
        if page >= self.pages_per_block as usize {
            return Err(ConduitError::simulation(format!(
                "program beyond the end of the block at {addr}"
            )));
        }
        if self.page_code(plane, block, page) != PAGE_FREE {
            return Err(ConduitError::simulation(format!(
                "program to non-free page at {addr}"
            )));
        }
        if rec.write_pointer != addr.page as u32 {
            return Err(ConduitError::simulation(format!(
                "out-of-order program at {addr} (write pointer {})",
                rec.write_pointer
            )));
        }
        let ppb = self.pages_per_block as usize;
        let slab = self.touch(plane, block);
        slab.pages[block * ppb + page] = PAGE_VALID;
        slab.blocks[block].write_pointer += 1;
        self.valid_pages += 1;
        Ok(())
    }

    /// Marks a valid page as invalid (its logical page was remapped).
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::Simulation`] if the page is not valid.
    pub fn invalidate(&mut self, addr: PhysicalPageAddr) -> Result<()> {
        let (plane, block) = self.split(self.geometry.block_index_of(addr));
        let page = addr.page as usize;
        if self.page_code(plane, block, page) != PAGE_VALID {
            return Err(ConduitError::simulation(format!(
                "invalidate of non-valid page at {addr}"
            )));
        }
        let ppb = self.pages_per_block as usize;
        let slab = &mut self.planes[plane];
        slab.pages[block * ppb + page] = PAGE_INVALID;
        slab.blocks[block].invalid += 1;
        self.valid_pages -= 1;
        self.invalid_pages += 1;
        Ok(())
    }

    /// Erases a block, freeing all its pages and bumping its erase count.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::Simulation`] if the block still contains
    /// valid pages (the FTL must relocate them first) or is bad.
    pub fn erase_block(&mut self, block_index: u64) -> Result<()> {
        let (plane, block) = self.split(block_index);
        let rec = self.record(plane, block);
        if rec.bad {
            return Err(ConduitError::simulation("erase of bad block"));
        }
        // Every page below the write pointer is Valid or Invalid; pages at
        // or beyond it are Free. A block still holding valid pages must be
        // collected first.
        if rec.write_pointer > rec.invalid {
            return Err(ConduitError::simulation(
                "erase of block that still holds valid pages",
            ));
        }
        let ppb = self.pages_per_block as usize;
        let slab = self.touch(plane, block);
        let base = block * ppb;
        slab.pages[base..base + rec.write_pointer as usize].fill(PAGE_FREE);
        let stored = &mut slab.blocks[block];
        stored.invalid = 0;
        stored.write_pointer = 0;
        stored.erase_count += 1;
        let erases = stored.erase_count;
        self.invalid_pages -= rec.invalid as u64;
        if erases == 1 {
            self.erased_blocks += 1;
        }
        self.total_erases += 1;
        self.max_erases = self.max_erases.max(erases);
        Ok(())
    }

    /// Retires a block as bad. Its pages become unusable.
    pub fn mark_bad(&mut self, block_index: u64) {
        let (plane, block) = self.split(block_index);
        self.touch(plane, block).blocks[block].bad = true;
    }

    /// Totals across the whole array: `(free, valid, invalid)` pages.
    /// Maintained incrementally, so this is O(1) — it sits on the garbage
    /// collector's should-run check, which runs on every rewrite.
    pub fn page_totals(&self) -> (u64, u64, u64) {
        let total = self.geometry.total_pages();
        let free = total - self.valid_pages - self.invalid_pages;
        (free, self.valid_pages, self.invalid_pages)
    }

    /// The block (if any) with the most invalid pages, ties broken by the
    /// lowest index — the garbage collector's victim-selection rule,
    /// answered from the touched blocks' invalid counts without touching
    /// page states.
    pub fn most_invalid_block(&self) -> Option<u64> {
        let mut best: Option<(u64, u32)> = None;
        for (b, info) in self.touched_blocks() {
            if info.invalid == 0 || info.bad {
                continue;
            }
            match best {
                Some((_, best_invalid)) if info.invalid <= best_invalid => {}
                _ => best = Some((b, info.invalid)),
            }
        }
        best.map(|(b, _)| b)
    }

    fn pack_pages(codes: &[u8], out: &mut Vec<u8>) {
        let mut acc = 0u8;
        let mut filled = 0u8;
        for &code in codes {
            acc |= code << (2 * filled);
            filled += 1;
            if filled == 4 {
                out.push(acc);
                acc = 0;
                filled = 0;
            }
        }
        if filled > 0 {
            out.push(acc);
        }
    }

    /// Appends a **delta-against-pristine** image of the array's mutable
    /// state to `out`: only touched blocks (programmed, erased or retired at
    /// least once) are stored, keyed by block index, each as its erase
    /// count, bad flag and write pointer followed by its first
    /// `write_pointer` page states packed four to a byte (Free=0, Valid=1,
    /// Invalid=2) — pages at or beyond the write pointer are `Free` by the
    /// sequential-programming invariant. A cold device therefore encodes to
    /// a handful of bytes regardless of array size. The geometry is *not*
    /// stored: it is a pure function of the [`FlashConfig`] the decoder is
    /// given.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.total_blocks());
        put_u64(out, self.touched_blocks().count() as u64);
        let ppb = self.pages_per_block as usize;
        for (b, info) in self.touched_blocks() {
            let (plane, block) = self.split(b);
            put_u64(out, b);
            put_u64(out, info.erase_count);
            out.push(u8::from(info.bad));
            put_u32(out, info.write_pointer);
            let base = block * ppb;
            let written = info.write_pointer as usize;
            let pages = &self.planes[plane].pages;
            debug_assert!(
                pages[base + written..base + ppb]
                    .iter()
                    .all(|&p| p == PAGE_FREE),
                "pages beyond the write pointer must be Free"
            );
            Self::pack_pages(&pages[base..base + written], out);
        }
    }

    /// Stores one decoded block. Pristine records are not stored, so the
    /// touched prefixes match an array that reached the same contents by
    /// simulation.
    fn restore_block(&mut self, block_index: u64, rec: BlockRecord, codes: &[u8]) {
        if rec.is_pristine() {
            return;
        }
        let ppb = self.pages_per_block as usize;
        let (plane, block) = self.split(block_index);
        let slab = self.touch(plane, block);
        slab.blocks[block] = rec;
        slab.pages[block * ppb..block * ppb + codes.len()].copy_from_slice(codes);
    }

    /// Rebuilds the O(1) aggregates (page totals, per-block invalid counts,
    /// wear totals) from the freshly decoded records and page codes.
    fn rebuild_aggregates(&mut self) {
        let ppb = self.pages_per_block as usize;
        self.valid_pages = 0;
        self.invalid_pages = 0;
        self.total_erases = 0;
        self.max_erases = 0;
        self.erased_blocks = 0;
        for slab in &mut self.planes {
            for (block, rec) in slab.blocks.iter_mut().enumerate() {
                let written = rec.write_pointer as usize;
                let mut invalid = 0u32;
                let mut valid = 0u32;
                for &code in &slab.pages[block * ppb..block * ppb + written] {
                    match code {
                        PAGE_VALID => valid += 1,
                        PAGE_INVALID => invalid += 1,
                        _ => {}
                    }
                }
                rec.invalid = invalid;
                self.valid_pages += valid as u64;
                self.invalid_pages += invalid as u64;
                self.total_erases += rec.erase_count;
                self.max_erases = self.max_erases.max(rec.erase_count);
                if rec.erase_count > 0 {
                    self.erased_blocks += 1;
                }
            }
        }
    }

    /// Decodes a state serialized by [`FlashState::encode_into`] for the
    /// given configuration. Blocks absent from the stream restore as
    /// pristine.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] on truncation, an
    /// unknown page-state code, a block count that does not match the
    /// geometry, out-of-range or non-increasing block indices, or a write
    /// pointer beyond the block size.
    pub fn decode_from(cfg: &FlashConfig, r: &mut Reader<'_>) -> Result<Self> {
        let mut state = FlashState::new(cfg);
        let total = r.u64()?;
        if total != state.total_blocks() {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "flash checkpoint has {total} blocks but the configuration describes {}",
                state.total_blocks()
            )));
        }
        let touched = r.u64()?;
        if touched > total {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "flash checkpoint stores {touched} touched blocks of only {total}"
            )));
        }
        let pages_per_block = cfg.pages_per_block as usize;
        let mut codes = Vec::with_capacity(pages_per_block);
        let mut prev_index: Option<u64> = None;
        for _ in 0..touched {
            let index = r.u64()?;
            if index >= total {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "touched block index {index} outside the {total}-block array"
                )));
            }
            if prev_index.is_some_and(|prev| index <= prev) {
                return Err(ConduitError::corrupt_checkpoint(
                    "touched block indices must be strictly increasing",
                ));
            }
            prev_index = Some(index);
            let rec = Self::decode_record(r, pages_per_block)?;
            let written = rec.write_pointer as usize;
            let packed = r.take(written.div_ceil(4))?;
            codes.clear();
            for i in 0..written {
                codes.push(Self::unpack_code(packed, i)?);
            }
            state.restore_block(index, rec, &codes);
        }
        state.rebuild_aggregates();
        Ok(state)
    }

    /// Reads one block header (erase count, bad flag, write pointer); the
    /// invalid count is rebuilt from the page codes.
    fn decode_record(r: &mut Reader<'_>, pages_per_block: usize) -> Result<BlockRecord> {
        let erase_count = r.counter()?;
        let bad = match r.u8()? {
            0 => false,
            1 => true,
            v => {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "unknown bad-block flag {v}"
                )))
            }
        };
        let write_pointer = r.u32()?;
        if write_pointer as usize > pages_per_block {
            return Err(ConduitError::corrupt_checkpoint(
                "write pointer beyond block size",
            ));
        }
        Ok(BlockRecord {
            erase_count,
            write_pointer,
            invalid: 0,
            bad,
        })
    }

    /// The `i`-th 2-bit page code of a packed run.
    fn unpack_code(packed: &[u8], i: usize) -> Result<u8> {
        let code = (packed[i / 4] >> (2 * (i % 4))) & 0b11;
        if code > PAGE_INVALID {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "unknown page-state code {code}"
            )));
        }
        Ok(code)
    }

    /// Wear statistics across blocks: `(min, max, mean)` erase counts.
    /// Answered from the maintained totals — the minimum is zero until
    /// every block has been erased at least once, which only a pathological
    /// workload reaches (and then it pays one scan of the, by then fully
    /// touched, array).
    pub fn wear_stats(&self) -> (u64, u64, f64) {
        let blocks = self.total_blocks();
        let min = if self.erased_blocks < blocks {
            0
        } else {
            self.touched_blocks()
                .map(|(_, info)| info.erase_count)
                .min()
                .unwrap_or(0)
        };
        let mean = if blocks == 0 {
            0.0
        } else {
            self.total_erases as f64 / blocks as f64
        };
        (min, self.max_erases, mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_types::SsdConfig;

    fn state() -> FlashState {
        FlashState::new(&SsdConfig::small_for_tests().flash)
    }

    #[test]
    fn new_array_is_fully_free() {
        let s = state();
        let (free, valid, invalid) = s.page_totals();
        assert_eq!(valid, 0);
        assert_eq!(invalid, 0);
        assert_eq!(free, s.geometry().total_pages());
    }

    #[test]
    fn program_invalidate_erase_cycle() {
        let mut s = state();
        let a0 = s.geometry().addr_of(0);
        let a1 = s.geometry().addr_of(1);
        s.program(a0).unwrap();
        s.program(a1).unwrap();
        assert_eq!(s.page_state(a0), PageState::Valid);

        s.invalidate(a0).unwrap();
        s.invalidate(a1).unwrap();
        assert_eq!(s.page_state(a0), PageState::Invalid);

        let block = s.geometry().block_index_of(a0);
        s.erase_block(block).unwrap();
        assert_eq!(s.page_state(a0), PageState::Free);
        assert_eq!(s.block_by_index(block).erase_count(), 1);
    }

    #[test]
    fn out_of_order_program_is_rejected() {
        let mut s = state();
        let a5 = PhysicalPageAddr {
            page: 5,
            ..s.geometry().addr_of(0)
        };
        assert!(s.program(a5).is_err());
    }

    #[test]
    fn double_program_is_rejected() {
        let mut s = state();
        let a0 = s.geometry().addr_of(0);
        s.program(a0).unwrap();
        assert!(s.program(a0).is_err());
    }

    #[test]
    fn erase_with_valid_pages_is_rejected() {
        let mut s = state();
        let a0 = s.geometry().addr_of(0);
        s.program(a0).unwrap();
        let block = s.geometry().block_index_of(a0);
        assert!(s.erase_block(block).is_err());
    }

    #[test]
    fn bad_blocks_are_unusable() {
        let mut s = state();
        let a0 = s.geometry().addr_of(0);
        let block = s.geometry().block_index_of(a0);
        s.mark_bad(block);
        assert!(s.block_by_index(block).is_bad());
        assert!(s.program(a0).is_err());
        assert!(s.erase_block(block).is_err());
        assert_eq!(s.block_by_index(block).next_free_page(), None);
    }

    #[test]
    fn wear_stats_track_erases() {
        let mut s = state();
        s.erase_block(0).unwrap();
        s.erase_block(0).unwrap();
        s.erase_block(1).unwrap();
        let (min, max, mean) = s.wear_stats();
        assert_eq!(min, 0);
        assert_eq!(max, 2);
        assert!(mean > 0.0);
    }

    #[test]
    fn wear_minimum_appears_once_every_block_has_been_erased() {
        let cfg = SsdConfig::small_for_tests().flash;
        let mut s = FlashState::new(&cfg);
        for b in 0..s.total_blocks() {
            s.erase_block(b).unwrap();
        }
        s.erase_block(0).unwrap();
        let (min, max, mean) = s.wear_stats();
        assert_eq!(min, 1);
        assert_eq!(max, 2);
        assert!(mean > 1.0);
    }

    #[test]
    fn aggregates_match_a_page_scan() {
        // The O(1) totals must agree with brute-force recounting after a
        // mixed program/invalidate/erase history.
        let cfg = SsdConfig::small_for_tests().flash;
        let mut s = FlashState::new(&cfg);
        for i in 0..12 {
            s.program(s.geometry().addr_of(i)).unwrap();
        }
        for i in [0u64, 2, 4, 5] {
            s.invalidate(s.geometry().addr_of(i)).unwrap();
        }
        let mut free = 0u64;
        let mut valid = 0u64;
        let mut invalid = 0u64;
        for p in 0..s.geometry().total_pages() {
            match s.page_state(s.geometry().addr_of(p)) {
                PageState::Free => free += 1,
                PageState::Valid => valid += 1,
                PageState::Invalid => invalid += 1,
            }
        }
        assert_eq!(s.page_totals(), (free, valid, invalid));
        let b0 = s.block_by_index(0);
        let (bf, bv, bi) = b0.page_counts();
        assert_eq!(bf + bv + bi, cfg.pages_per_block);
    }

    #[test]
    fn most_invalid_block_follows_the_invalid_column() {
        let cfg = SsdConfig::small_for_tests().flash;
        let mut s = FlashState::new(&cfg);
        assert_eq!(s.most_invalid_block(), None);
        let ppb = cfg.pages_per_block as u64;
        // Block 0: one invalid page; block 1: two invalid pages.
        for i in 0..3 {
            s.program(s.geometry().addr_of(i)).unwrap();
        }
        for i in ppb..ppb + 2 {
            s.program(s.geometry().addr_of(i)).unwrap();
        }
        s.invalidate(s.geometry().addr_of(0)).unwrap();
        s.invalidate(s.geometry().addr_of(ppb)).unwrap();
        s.invalidate(s.geometry().addr_of(ppb + 1)).unwrap();
        assert_eq!(s.most_invalid_block(), Some(1));
        // Bad blocks are never victims.
        s.mark_bad(1);
        assert_eq!(s.most_invalid_block(), Some(0));
    }

    #[test]
    fn sparse_checkpoint_roundtrips_and_skips_pristine_blocks() {
        let cfg = SsdConfig::small_for_tests().flash;
        let mut s = FlashState::new(&cfg);
        // A pristine array encodes to just the two headers.
        let mut cold = Vec::new();
        s.encode_into(&mut cold);
        assert_eq!(cold.len(), 16, "a cold array stores no blocks");
        let back = FlashState::decode_from(&cfg, &mut Reader::new(&cold)).unwrap();
        assert_eq!(back, s);

        // Touch a handful of blocks; everything round-trips and the image
        // holds only those blocks.
        let a0 = s.geometry().addr_of(0);
        let a1 = s.geometry().addr_of(1);
        s.program(a0).unwrap();
        s.program(a1).unwrap();
        s.invalidate(a0).unwrap();
        s.erase_block(s.geometry().total_blocks() - 1).unwrap();
        s.mark_bad(s.geometry().total_blocks() - 2);

        let mut sparse = Vec::new();
        s.encode_into(&mut sparse);
        // Three touched blocks of 21 header bytes each (index, erase count,
        // bad flag, write pointer); only block 0 has written pages (two,
        // packed into one byte).
        assert_eq!(sparse.len(), 16 + 3 * 21 + 1);
        let mut r = Reader::new(&sparse);
        let back = FlashState::decode_from(&cfg, &mut r).unwrap();
        assert!(r.finished());
        assert_eq!(back, s);
        // Re-encoding the decoded state is deterministic.
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(again, sparse);

        // Corruption is rejected: truncation, geometry mismatch, an
        // out-of-range block index, and unsorted indices.
        assert!(
            FlashState::decode_from(&cfg, &mut Reader::new(&sparse[..sparse.len() - 1])).is_err()
        );
        let mut small = cfg.clone();
        small.blocks_per_plane /= 2;
        assert!(FlashState::decode_from(&small, &mut Reader::new(&sparse)).is_err());
        let mut bad_index = sparse.clone();
        // First touched-block index sits right after the two u64 headers.
        bad_index[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(FlashState::decode_from(&cfg, &mut Reader::new(&bad_index)).is_err());
    }

    #[test]
    fn block_page_counts() {
        let mut s = state();
        let a0 = s.geometry().addr_of(0);
        s.program(a0).unwrap();
        let (free, valid, invalid) = s.block(a0).page_counts();
        assert_eq!(valid, 1);
        assert_eq!(invalid, 0);
        assert_eq!(free, s.geometry().pages_per_block() - 1);
        assert_eq!(s.block(a0).next_free_page(), Some(1));
    }

    /// A minimal dense model of the flash array for differential testing:
    /// one code per page and one erase count, write pointer and bad flag per
    /// block, with every answer recomputed by scanning.
    struct DenseModel {
        ppb: usize,
        pages: Vec<u8>,
        erases: Vec<u64>,
        write_pointers: Vec<u32>,
        bad: Vec<bool>,
    }

    impl DenseModel {
        fn new(cfg: &FlashConfig) -> Self {
            let blocks = FlashGeometry::new(cfg).total_blocks() as usize;
            let ppb = cfg.pages_per_block as usize;
            DenseModel {
                ppb,
                pages: vec![PAGE_FREE; blocks * ppb],
                erases: vec![0; blocks],
                write_pointers: vec![0; blocks],
                bad: vec![false; blocks],
            }
        }

        fn block_pages(&self, b: usize) -> &[u8] {
            &self.pages[b * self.ppb..(b + 1) * self.ppb]
        }

        fn count(&self, b: usize, code: u8) -> u32 {
            self.block_pages(b).iter().filter(|&&c| c == code).count() as u32
        }

        fn program(&mut self, b: usize, page: usize) -> bool {
            let ok = !self.bad[b]
                && page < self.ppb
                && self.pages[b * self.ppb + page] == PAGE_FREE
                && self.write_pointers[b] as usize == page;
            if ok {
                self.pages[b * self.ppb + page] = PAGE_VALID;
                self.write_pointers[b] += 1;
            }
            ok
        }

        fn invalidate(&mut self, b: usize, page: usize) -> bool {
            let ok = page < self.ppb && self.pages[b * self.ppb + page] == PAGE_VALID;
            if ok {
                self.pages[b * self.ppb + page] = PAGE_INVALID;
            }
            ok
        }

        fn erase(&mut self, b: usize) -> bool {
            let ok = !self.bad[b] && self.count(b, PAGE_VALID) == 0;
            if ok {
                let ppb = self.ppb;
                self.pages[b * ppb..(b + 1) * ppb].fill(PAGE_FREE);
                self.write_pointers[b] = 0;
                self.erases[b] += 1;
            }
            ok
        }

        fn totals(&self) -> (u64, u64, u64) {
            let count = |code| self.pages.iter().filter(|&&c| c == code).count() as u64;
            (count(PAGE_FREE), count(PAGE_VALID), count(PAGE_INVALID))
        }

        fn most_invalid(&self) -> Option<u64> {
            let mut best: Option<(usize, u32)> = None;
            for b in 0..self.erases.len() {
                let invalid = self.count(b, PAGE_INVALID);
                if invalid > 0 && !self.bad[b] && best.is_none_or(|(_, most)| invalid > most) {
                    best = Some((b, invalid));
                }
            }
            best.map(|(b, _)| b as u64)
        }

        fn wear(&self) -> (u64, u64, f64) {
            let min = self.erases.iter().copied().min().unwrap_or(0);
            let max = self.erases.iter().copied().max().unwrap_or(0);
            let mean = self.erases.iter().sum::<u64>() as f64 / self.erases.len() as f64;
            (min, max, mean)
        }

        fn pack(codes: &[u8], out: &mut Vec<u8>) {
            for chunk in codes.chunks(4) {
                out.push(
                    chunk
                        .iter()
                        .enumerate()
                        .fold(0u8, |acc, (i, &c)| acc | c << (2 * i)),
                );
            }
        }

        fn encode_block(&self, b: usize, out: &mut Vec<u8>) {
            put_u64(out, self.erases[b]);
            out.push(u8::from(self.bad[b]));
            put_u32(out, self.write_pointers[b]);
        }

        fn encode_sparse(&self) -> Vec<u8> {
            let touched: Vec<usize> = (0..self.erases.len())
                .filter(|&b| self.erases[b] > 0 || self.bad[b] || self.write_pointers[b] > 0)
                .collect();
            let mut out = Vec::new();
            put_u64(&mut out, self.erases.len() as u64);
            put_u64(&mut out, touched.len() as u64);
            for b in touched {
                put_u64(&mut out, b as u64);
                self.encode_block(b, &mut out);
                let written = self.write_pointers[b] as usize;
                Self::pack(&self.block_pages(b)[..written], &mut out);
            }
            out
        }
    }

    /// splitmix64: a seeded, std-only stream for the differential test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn assert_matches_model(s: &FlashState, model: &DenseModel, cfg: &FlashConfig, step: usize) {
        let geo = s.geometry().clone();
        for b in 0..s.total_blocks() {
            let info = s.block_by_index(b);
            let i = b as usize;
            let invalid = model.count(i, PAGE_INVALID);
            let wp = model.write_pointers[i];
            assert_eq!(info.erase_count(), model.erases[i], "step {step} block {b}");
            assert_eq!(info.is_bad(), model.bad[i], "step {step} block {b}");
            assert_eq!(
                info.page_counts(),
                (cfg.pages_per_block - wp, wp - invalid, invalid),
                "step {step} block {b}"
            );
            let next = (!model.bad[i] && wp < cfg.pages_per_block).then_some(wp);
            assert_eq!(info.next_free_page(), next, "step {step} block {b}");
        }
        assert_eq!(s.page_totals(), model.totals(), "step {step}");
        assert_eq!(s.most_invalid_block(), model.most_invalid(), "step {step}");
        assert_eq!(s.wear_stats(), model.wear(), "step {step}");

        let mut sparse = Vec::new();
        s.encode_into(&mut sparse);
        assert_eq!(
            sparse,
            model.encode_sparse(),
            "step {step}: sparse encoding"
        );
        let back = FlashState::decode_from(cfg, &mut Reader::new(&sparse)).unwrap();
        assert_eq!(&back, s, "step {step}: sparse round trip");
        if step.is_multiple_of(97) {
            for p in 0..geo.total_pages() {
                let code = model.pages[p as usize];
                assert_eq!(s.page_state(geo.addr_of(p)), decode_page(code), "page {p}");
            }
        }
    }

    /// Drives the sparse array and the dense model through the same seeded
    /// stream of programs, invalidations, erases and retirements — many of
    /// them invalid and required to fail on both — and compares every
    /// observable after each step.
    fn differential_run(cfg: &FlashConfig, seed: u64, steps: usize) {
        let geo = FlashGeometry::new(cfg);
        let per_plane = geo.blocks_per_plane() as u64;
        let ppb = cfg.pages_per_block as u64;
        let mut s = FlashState::new(cfg);
        let mut model = DenseModel::new(cfg);
        let mut rng = Rng(seed);
        // Accepted and rejected counts per operation kind (program,
        // invalidate, erase), so the stream provably exercises both paths.
        let mut outcomes = [[0usize; 2]; 3];
        for step in 0..steps {
            // Mostly the first few blocks of a random plane (the allocator's
            // pattern), sometimes anywhere — leaving gaps in the prefixes.
            let b = if rng.below(10) < 7 {
                rng.below(geo.total_planes()) * per_plane + rng.below(per_plane.min(4))
            } else {
                rng.below(geo.total_blocks())
            };
            let wp = model.write_pointers[b as usize] as u64;
            let page = match rng.below(10) {
                0..=5 => wp,
                6..=8 if wp > 0 => rng.below(wp),
                _ => rng.below(ppb + 1),
            };
            let first = b * ppb;
            let addr_of = |page: u64| {
                // One past the block's end aliases the next block's first
                // page in flat indexing; use the block's own coordinates.
                let base = geo.addr_of(first);
                PhysicalPageAddr {
                    page: page as u16,
                    ..base
                }
            };
            let roll = rng.below(1000);
            let (got, want) = match roll {
                0..=549 => (
                    s.program(addr_of(page)).is_ok(),
                    model.program(b as usize, page as usize),
                ),
                550..=849 => (
                    s.invalidate(addr_of(page)).is_ok(),
                    model.invalidate(b as usize, page as usize),
                ),
                850..=994 => (s.erase_block(b).is_ok(), model.erase(b as usize)),
                _ => {
                    s.mark_bad(b);
                    model.bad[b as usize] = true;
                    (true, true)
                }
            };
            assert_eq!(got, want, "step {step}: op {roll} on block {b} page {page}");
            if let Some(kind) = [550, 850, 995].iter().position(|&end| roll < end) {
                outcomes[kind][usize::from(got)] += 1;
            }
            assert_matches_model(&s, &model, cfg, step);
        }
        assert!(
            outcomes.iter().flatten().all(|&n| n >= steps / 100),
            "every operation must be both accepted and rejected: {outcomes:?}"
        );

        // Wear phase: erase every block of a fresh pair in a seeded order,
        // then a few again, so the wear minimum leaves zero and is computed
        // from the (by then fully touched) array.
        let mut s = FlashState::new(cfg);
        let mut model = DenseModel::new(cfg);
        let mut order: Vec<u64> = (0..geo.total_blocks()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for (step, &b) in order.iter().chain(&order[..5]).enumerate() {
            assert!(s.erase_block(b).is_ok() && model.erase(b as usize));
            assert_eq!(s.wear_stats(), model.wear(), "wear step {step}");
        }
        assert_matches_model(&s, &model, cfg, 0);
    }

    #[test]
    fn sparse_array_matches_a_dense_model_on_the_test_geometry() {
        differential_run(&SsdConfig::small_for_tests().flash, 0x5EED, 400);
    }

    #[test]
    fn sparse_array_matches_a_dense_model_with_odd_blocks_per_plane() {
        let mut cfg = SsdConfig::small_for_tests().flash;
        cfg.channels = 1;
        cfg.dies_per_channel = 3;
        cfg.planes_per_die = 1;
        cfg.blocks_per_plane = 13;
        cfg.pages_per_block = 6;
        differential_run(&cfg, 0xC0FFEE, 1500);
    }

    #[test]
    fn construction_touches_no_block() {
        let s = FlashState::new(&FlashConfig::default());
        assert_eq!(s.touched_blocks().count(), 0);
        assert!(s.planes.iter().all(|p| p.blocks.is_empty()));
        assert_eq!(
            s.block_by_index(s.total_blocks() - 1).next_free_page(),
            Some(0)
        );
    }
}
