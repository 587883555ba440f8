//! NDP-aware physical page allocation.
//!
//! The allocator serves two placement goals that the paper's FTL extension
//! enforces (§4.4 and §5.1):
//!
//! 1. **Striping for parallelism** — consecutive vector slices are spread
//!    across planes (and therefore dies and channels) so multi-plane /
//!    multi-die operations can proceed concurrently.
//! 2. **Co-location for in-flash compute** — the operand pages that an
//!    in-flash operation combines (e.g. the inputs of a Flash-Cosmos
//!    multi-wordline AND) are placed in pages of the *same block*.

use conduit_flash::FlashState;
use conduit_types::bytes::{put_u64, Reader};
use conduit_types::{ConduitError, PhysicalPageAddr, Result};

/// Allocates physical pages from the flash array, maintaining one active
/// (partially-written) block per plane.
///
/// # Examples
///
/// ```
/// use conduit_flash::FlashState;
/// use conduit_ftl::PageAllocator;
/// use conduit_types::SsdConfig;
///
/// let cfg = SsdConfig::small_for_tests();
/// let mut state = FlashState::new(&cfg.flash);
/// let mut alloc = PageAllocator::new(&state);
/// let a = alloc.allocate(&mut state)?;
/// let b = alloc.allocate(&mut state)?;
/// // Round-robin striping: consecutive allocations land on different planes.
/// assert_ne!((a.channel, a.die, a.plane), (b.channel, b.die, b.plane));
/// # Ok::<(), conduit_types::ConduitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageAllocator {
    /// Active block (flat block index) per global plane index.
    active_blocks: Vec<Option<u64>>,
    /// Next block to consider when opening a fresh block, per plane.
    next_block_scan: Vec<u64>,
    /// Round-robin cursor over planes for striped allocation.
    next_plane: u64,
    total_planes: u64,
    blocks_per_plane: u64,
    pages_per_block: u64,
}

impl PageAllocator {
    /// Creates an allocator for the given flash array.
    pub fn new(state: &FlashState) -> Self {
        let geo = state.geometry();
        PageAllocator {
            active_blocks: vec![None; geo.total_planes() as usize],
            next_block_scan: vec![0; geo.total_planes() as usize],
            next_plane: 0,
            total_planes: geo.total_planes(),
            blocks_per_plane: geo.blocks_per_plane() as u64,
            pages_per_block: geo.pages_per_block() as u64,
        }
    }

    /// Allocates and programs one physical page on the next plane of the
    /// round-robin rotation (striping).
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::OutOfSpace`] if that plane has no erasable
    /// free block left.
    pub fn allocate(&mut self, state: &mut FlashState) -> Result<PhysicalPageAddr> {
        let plane = self.next_striped_plane();
        self.allocate_in_plane(state, plane)
    }

    /// Allocates and programs `count` pages in the *same block* of the next
    /// plane of the rotation (the co-location constraint for in-flash
    /// multi-operand compute).
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidConfig`] if `count` exceeds the block
    /// size and [`ConduitError::OutOfSpace`] if no block with enough free
    /// pages can be found.
    pub fn allocate_group(
        &mut self,
        state: &mut FlashState,
        count: usize,
    ) -> Result<Vec<PhysicalPageAddr>> {
        if count as u64 > self.pages_per_block {
            return Err(ConduitError::invalid_config(format!(
                "operand group of {count} pages exceeds block size {}",
                self.pages_per_block
            )));
        }
        let plane = self.next_striped_plane();
        // Make sure the active block has room for the whole group; if not,
        // retire it and open a fresh one so the group stays co-located.
        if let Some(block) = self.active_blocks[plane as usize] {
            let free = state.block_by_index(block).next_free_page();
            let room = match free {
                Some(next) => self.pages_per_block - next as u64,
                None => 0,
            };
            if room < count as u64 {
                self.active_blocks[plane as usize] = None;
            }
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.allocate_in_plane(state, plane)?);
        }
        debug_assert!(out.windows(2).all(|w| w[0].same_block(w[1])));
        Ok(out)
    }

    /// Appends the allocator's cursor state (active block and scan cursor
    /// per plane, the striping cursor) to `out`. The geometry-derived totals
    /// are not stored.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.active_blocks.len() as u64);
        for active in &self.active_blocks {
            match active {
                Some(block) => {
                    out.push(1);
                    put_u64(out, *block);
                }
                None => out.push(0),
            }
        }
        for scan in &self.next_block_scan {
            put_u64(out, *scan);
        }
        put_u64(out, self.next_plane);
    }

    /// Decodes an allocator serialized by [`PageAllocator::encode_into`]
    /// against the given flash array.
    pub(crate) fn decode_from(state: &FlashState, r: &mut Reader<'_>) -> Result<Self> {
        let mut alloc = PageAllocator::new(state);
        let planes = r.u64()?;
        if planes != alloc.total_planes {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "allocator checkpoint has {planes} planes but the geometry has {}",
                alloc.total_planes
            )));
        }
        let total_blocks = state.geometry().total_blocks();
        for (plane, active) in alloc.active_blocks.iter_mut().enumerate() {
            *active = match r.u8()? {
                0 => None,
                1 => {
                    let block = r.u64()?;
                    // In range *and* belonging to this slot's plane —
                    // an in-range block from another plane would silently
                    // break the plane-placement contract.
                    if block >= total_blocks || block / alloc.blocks_per_plane != plane as u64 {
                        return Err(ConduitError::corrupt_checkpoint(
                            "active block outside its plane",
                        ));
                    }
                    Some(block)
                }
                flag => {
                    return Err(ConduitError::corrupt_checkpoint(format!(
                        "unknown active-block flag {flag}"
                    )))
                }
            };
        }
        for scan in &mut alloc.next_block_scan {
            let cursor = r.u64()?;
            if cursor >= alloc.blocks_per_plane {
                return Err(ConduitError::corrupt_checkpoint(
                    "block-scan cursor beyond the plane",
                ));
            }
            *scan = cursor;
        }
        let next_plane = r.u64()?;
        if next_plane >= alloc.total_planes {
            return Err(ConduitError::corrupt_checkpoint(
                "striping cursor beyond the plane count",
            ));
        }
        alloc.next_plane = next_plane;
        Ok(alloc)
    }

    /// The plane the striping cursor points at; the cursor moves on.
    fn next_striped_plane(&mut self) -> u64 {
        let plane = self.next_plane;
        self.next_plane = (plane + 1) % self.total_planes;
        plane
    }

    fn allocate_in_plane(
        &mut self,
        state: &mut FlashState,
        plane: u64,
    ) -> Result<PhysicalPageAddr> {
        let block = match self.active_blocks[plane as usize] {
            Some(b) if state.block_by_index(b).next_free_page().is_some() => b,
            _ => {
                let b = self.open_block(state, plane)?;
                self.active_blocks[plane as usize] = Some(b);
                b
            }
        };
        let page = state
            .block_by_index(block)
            .next_free_page()
            .expect("active block has a free page");
        let addr = self.page_addr(state, block, page);
        state.program(addr)?;
        Ok(addr)
    }

    /// Finds a completely free, non-bad block in `plane`.
    fn open_block(&mut self, state: &FlashState, plane: u64) -> Result<u64> {
        let first_block = plane * self.blocks_per_plane;
        let start = self.next_block_scan[plane as usize];
        for i in 0..self.blocks_per_plane {
            let offset = (start + i) % self.blocks_per_plane;
            let block = first_block + offset;
            let info = state.block_by_index(block);
            if !info.is_bad() && info.next_free_page() == Some(0) {
                self.next_block_scan[plane as usize] = (offset + 1) % self.blocks_per_plane;
                return Ok(block);
            }
        }
        Err(ConduitError::OutOfSpace)
    }

    fn page_addr(&self, state: &FlashState, block: u64, page: u32) -> PhysicalPageAddr {
        let geo = state.geometry();
        let flat = block * self.pages_per_block + page as u64;
        geo.addr_of(flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_types::SsdConfig;

    fn setup() -> (FlashState, PageAllocator) {
        let cfg = SsdConfig::small_for_tests();
        let state = FlashState::new(&cfg.flash);
        let alloc = PageAllocator::new(&state);
        (state, alloc)
    }

    #[test]
    fn striped_allocation_covers_all_planes() {
        let (mut state, mut alloc) = setup();
        let planes = state.geometry().total_planes();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..planes {
            let addr = alloc.allocate(&mut state).unwrap();
            seen.insert(state.geometry().plane_index_of(addr));
        }
        assert_eq!(seen.len() as u64, planes);
    }

    #[test]
    fn group_allocation_is_same_block() {
        let (mut state, mut alloc) = setup();
        let group = alloc.allocate_group(&mut state, 8).unwrap();
        assert_eq!(group.len(), 8);
        assert!(group.iter().all(|a| a.same_block(group[0])));
    }

    #[test]
    fn group_never_splits_across_blocks() {
        let (mut state, mut alloc) = setup();
        let pages_per_block = state.geometry().pages_per_block() as usize;
        // Nearly fill a block, turn the striping cursor back to its plane,
        // then ask for a group that would not fit.
        let first = alloc
            .allocate_group(&mut state, pages_per_block - 2)
            .unwrap();
        for _ in 1..state.geometry().total_planes() {
            alloc.allocate(&mut state).unwrap();
        }
        let group = alloc.allocate_group(&mut state, 4).unwrap();
        assert!(group.iter().all(|a| a.same_block(group[0])));
        assert!(group[0].same_plane(first[0]));
        assert!(!group[0].same_block(first[0]));
    }

    #[test]
    fn oversized_group_is_rejected() {
        let (mut state, mut alloc) = setup();
        let pages_per_block = state.geometry().pages_per_block() as usize;
        assert!(alloc
            .allocate_group(&mut state, pages_per_block + 1)
            .is_err());
    }

    #[test]
    fn allocation_exhausts_to_out_of_space() {
        let cfg = {
            let mut c = SsdConfig::small_for_tests();
            c.flash.channels = 1;
            c.flash.dies_per_channel = 1;
            c.flash.planes_per_die = 1;
            c.flash.blocks_per_plane = 2;
            c.flash.pages_per_block = 4;
            c
        };
        let mut state = FlashState::new(&cfg.flash);
        let mut alloc = PageAllocator::new(&state);
        for _ in 0..8 {
            alloc.allocate(&mut state).unwrap();
        }
        assert!(matches!(
            alloc.allocate(&mut state),
            Err(ConduitError::OutOfSpace)
        ));
    }

    #[test]
    fn bad_blocks_are_skipped() {
        let cfg = {
            let mut c = SsdConfig::small_for_tests();
            c.flash.channels = 1;
            c.flash.dies_per_channel = 1;
            c.flash.planes_per_die = 1;
            c.flash.blocks_per_plane = 2;
            c.flash.pages_per_block = 4;
            c
        };
        let mut state = FlashState::new(&cfg.flash);
        let mut alloc = PageAllocator::new(&state);
        state.mark_bad(0);
        let addr = alloc.allocate(&mut state).unwrap();
        assert_eq!(addr.block, 1);
    }

    #[test]
    fn sequential_pages_within_a_block_are_in_order() {
        let (mut state, mut alloc) = setup();
        let group = alloc.allocate_group(&mut state, 4).unwrap();
        let pages: Vec<u16> = group.iter().map(|a| a.page).collect();
        assert_eq!(pages, vec![0, 1, 2, 3]);
    }
}
