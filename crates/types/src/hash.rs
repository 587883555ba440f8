//! A deterministic hasher for page-keyed maps and sets.
//!
//! The simulator's hottest lookups are keyed by page numbers: the L2P map
//! and its mapping cache, the FTL's reverse (physical → logical) map, the
//! coherence directory and the device's residency sets. std's default
//! `SipHash` with a random per-instance seed is built to resist adversarial
//! keys, which simulated page numbers are not, at a cost paid on every
//! lookup. [`PageHasher`] hashes each 64-bit word with one *folded multiply*
//! (the full 64×64→128-bit product, high half XORed into the low half), so:
//!
//! * every output bit depends on every key bit. A plain multiply leaves the
//!   low bits depending only on the key's low bits, and striped placement
//!   puts consecutive pages one plane apart in flat physical indexing (a
//!   plane holds 2^13 · 49 pages at paper scale), so their keys share their
//!   low bits and would pile into a handful of buckets;
//! * there is no seed, so a table's layout (and therefore its iteration
//!   order) is a function of its insert history alone. Code whose results
//!   must replay should still never depend on iteration order; the encoders
//!   sort, and the L2P cache evicts from its own LRU queue.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (the fractional bits of π) for the folded multiply.
const MULTIPLIER: u64 = 0x243F_6A88_85A3_08D3;

/// The full 128-bit product of `a` and `b` with its high half folded (XORed)
/// into its low half.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The deterministic, seedless hasher behind [`PageMap`] and [`PageSet`].
///
/// # Examples
///
/// ```
/// use std::hash::{BuildHasher, BuildHasherDefault};
/// use conduit_types::hash::{PageHasher, PageMap};
/// use conduit_types::LogicalPageId;
///
/// // Two independently built hashers agree: there is no random seed.
/// let build = BuildHasherDefault::<PageHasher>::default();
/// assert_eq!(build.hash_one(42u64), build.hash_one(42u64));
///
/// let mut map: PageMap<LogicalPageId, u32> = PageMap::default();
/// map.insert(LogicalPageId::new(7), 1);
/// assert_eq!(map[&LogicalPageId::new(7)], 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher {
    hash: u64,
}

impl Hasher for PageHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.hash = folded_multiply(self.hash ^ word, MULTIPLIER);
    }

    /// Other key types arrive here (std's default `write_u8` … `write_usize`
    /// forward to it) and are hashed eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Tag the tail with its length so "ab" and "ab\0" differ.
            self.write_u64(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`PageHasher`].
pub type PageMap<K, V> = HashMap<K, V, BuildHasherDefault<PageHasher>>;

/// A `HashSet` hashed with [`PageHasher`].
pub type PageSet<K> = HashSet<K, BuildHasherDefault<PageHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<PageHasher>::default().hash_one(key)
    }

    #[test]
    fn low_bits_depend_on_high_key_bits() {
        // Flat physical page indices of striped placements are multiples of
        // 2^13 (planes hold 2^13 · 49 pages at paper scale); a hash whose
        // low bits ignore the key's high bits would put them all in a few
        // buckets. A plain multiply gives 8 and 1 distinct values here.
        for shift in [13, 16] {
            let low: PageSet<u64> = (0..1024u64).map(|i| hash(i << shift) & 0xFFFF).collect();
            assert!(
                low.len() >= 1000,
                "keys i << {shift}: only {} distinct low-16-bit hashes",
                low.len()
            );
        }
    }

    #[test]
    fn hashing_is_deterministic_and_distinguishes_page_ids() {
        use crate::LogicalPageId;
        let build = BuildHasherDefault::<PageHasher>::default();
        let a = build.hash_one(LogicalPageId::new(5));
        assert_eq!(a, build.hash_one(LogicalPageId::new(5)));
        assert_ne!(a, build.hash_one(LogicalPageId::new(6)));
        assert_ne!(build.hash_one("ab"), build.hash_one("ab\0"));
    }
}
