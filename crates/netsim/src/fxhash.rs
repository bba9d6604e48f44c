//! A hand-rolled FxHash-style hasher for the simulator's hot maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is keyed with
//! per-process randomness and shows up on profiles for the per-event timer
//! and control lookups. The maps in this workspace are keyed by small
//! integers, addresses, and short strings generated inside the simulation —
//! never by untrusted input — so HashDoS resistance buys nothing here, while
//! determinism matters a great deal: fork equivalence and campaign resume
//! both depend on identical runs hashing identically in every process.
//!
//! The mixing function is the classic Firefox/rustc "FxHash" fold
//! (`rotate ^ word, * constant`), written out here rather than pulled in as
//! a dependency.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (the fractional bits of the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiplicative hasher. Not cryptographic, not
/// DoS-resistant — deterministic and fast, for simulation-internal keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" + "" and "a" + "b" differ.
            self.add_to_hash(u64::from_le_bytes(tail) ^ (rest.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing `FxHasher`s with no per-process key material.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the deterministic `FxHasher`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic_across_hasher_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"SYN_RECEIVED"), hash_of(&"SYN_RECEIVED"));
        assert_eq!(hash_of(&(7u64, "ACK")), hash_of(&(7u64, "ACK")));
    }

    #[test]
    fn nearby_keys_do_not_collide() {
        let hashes: std::collections::BTreeSet<u64> = (0u64..1000).map(|n| hash_of(&n)).collect();
        assert_eq!(hashes.len(), 1000, "sequential u64 keys must not collide");
    }

    #[test]
    fn split_strings_differ_from_joined_ones() {
        // The length fold keeps short-tail inputs from aliasing.
        assert_ne!(hash_of(&"ab"), hash_of(&"a\0"));
        assert_ne!(hash_of(&[1u8, 2]), hash_of(&[1u8, 2, 0]));
    }

    #[test]
    fn map_behaves_like_a_hashmap() {
        let mut m: FxHashMap<(u64, String), u64> = FxHashMap::default();
        for i in 0..100 {
            m.insert((i, format!("k{i}")), i * 2);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(21, "k21".to_owned())), Some(&42));
    }
}
