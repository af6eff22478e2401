//! A small Fx-style hasher (the multiply-rotate word hash rustc uses for
//! its own tables) for the Send-Data hot-path maps.
//!
//! Their keys are node ids drawn by the simulation itself, so SipHash's
//! resistance to chosen-key flooding buys nothing there, and its cost is
//! paid on every link-belief lookup. None of these maps is iterated in
//! an order that reaches output (they see point lookups, `retain` and
//! `clear`), so the hasher cannot change a result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Folds each word in with a rotate, xor and multiply.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_link_and_node_keys() {
        let mut links: FxHashMap<(u32, u32), f64> = FxHashMap::default();
        for src in 0..200u32 {
            links.insert((src, u32::MAX), f64::from(src));
            links.insert((src, src + 1), -f64::from(src));
        }
        assert_eq!(links.len(), 400);
        assert_eq!(links[&(7, u32::MAX)], 7.0);
        assert_eq!(links[&(7, 8)], -7.0);
        links.retain(|&(src, _), _| src % 2 == 0);
        assert_eq!(links.len(), 200);
        assert!(!links.contains_key(&(7, 8)));
    }

    #[test]
    fn distinct_ids_hash_apart() {
        let hash = |i: u32| {
            let mut h = FxHasher::default();
            h.write_u32(i);
            h.finish()
        };
        let mut seen: Vec<u64> = (0..10_000).map(hash).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10_000);
    }
}
