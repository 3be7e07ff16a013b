//! The simulator's one map hasher: fixed, unseeded and cheap.
//!
//! Every `HashMap`/`HashSet` in the simulator is keyed by values it made
//! itself (page and frame numbers, TLB keys, ids, static names), so it
//! needs no protection against adversarial keys, and std's randomly
//! seeded SipHash-1-3 only costs time on every probe. [`FastMap`] and
//! [`FastSet`] hash with [`FastHasher`] instead: rustc-hash v2's
//! multiply-add scheme, kept in-repo because the workspace uses no
//! external crates. Each 8-byte word folds in as
//! `h = (h + word) · K`, and [`Hasher::finish`] rotates the state left
//! by 26 bits. The rotate matters: a page-aligned key has 12 zero low
//! bits, the multiply keeps them zero, and hashbrown picks a bucket from
//! the low bits, so without it every page would share one bucket.
//!
//! The hasher has no seed, so a map's iteration order is the same in
//! every run, thread and process. No simulated output depends on that
//! order (every digest and rendering sorts what it reads), but it takes
//! one host-dependent input out of the simulator's timing.
//!
//! The workspace `clippy.toml` disallows std's `HashMap` and `HashSet`
//! everywhere else, so a SipHash map cannot come back unnoticed.
#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// rustc-hash v2's multiplier: odd, with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The multiply-add hasher behind [`FastMap`] and [`FastSet`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    /// Folds `bytes` in as little-endian 8-byte words, the last one
    /// zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FastHasher`]s; every map gets the same (unseeded) one.
pub(crate) type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed by [`FastHasher`]. Build it with
/// `FastMap::default()` or `FastMap::with_capacity_and_hasher(n,
/// Default::default())`.
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// A `HashSet` hashed by [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastBuild>;

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;

    fn hash_of<T: Hash>(key: &T) -> u64 {
        FastBuild::default().hash_one(key)
    }

    /// (distinct buckets, largest bucket) of `keys` over the 4,096
    /// buckets the low 12 hash bits select — what hashbrown does with a
    /// table of that size.
    fn spread<T: Hash>(keys: impl Iterator<Item = T>) -> (usize, usize) {
        let mut load = vec![0usize; 4096];
        for k in keys {
            load[(hash_of(&k) & 0xfff) as usize] += 1;
        }
        let used = load.iter().filter(|&&n| n > 0).count();
        (used, load.into_iter().max().unwrap_or(0))
    }

    fn assert_spreads<T: Hash>(what: &str, keys: impl Iterator<Item = T>) {
        let (used, max) = spread(keys);
        assert!(used >= 1_500, "{what}: only {used} of 4096 buckets used");
        assert!(max <= 8, "{what}: {max} keys share one bucket");
    }

    #[test]
    fn page_aligned_addresses_spread_over_low_bits() {
        // Without the rotate in `finish`, all 4,096 land in bucket 0.
        assert_spreads(
            "page-aligned VAs",
            (0..4096u64).map(|i| 0x7f00_0000_0000 + (i << 12)),
        );
    }

    #[test]
    fn consecutive_frame_numbers_spread_over_low_bits() {
        assert_spreads("PFNs", (0..4096u64).map(|i| 0x1_0000 + i));
    }

    #[test]
    fn tlb_keys_spread_over_low_bits() {
        // The TLB model's key: (PCID tag, page-aligned VA, size index).
        assert_spreads(
            "TLB keys",
            (0..4096u64).map(|i| ((i % 8) as u16, 0x40_0000 + ((i / 8) << 12), 0u8)),
        );
    }

    #[test]
    fn finish_is_pinned() {
        // Changing the algorithm moves no simulated output (nothing reads
        // map order), but it should take a visible edit.
        assert_eq!(hash_of(&0x7f00_0000_1000u64), 0x98aa_7140_0127_9d77);
        assert_eq!(hash_of(&(3u16, 0x40_0000u64, 0u8)), 0xe856_c40c_df45_2b84);
    }
}
