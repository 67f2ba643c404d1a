//! The executor's one hasher, and the one rule for when a key need not
//! hash at all.
//!
//! A single key column whose values fall in a small dense domain —
//! dictionary codes, BOOL, an INT column of narrow span — indexes a
//! slot array directly: [`dense_fits`] decides, [`int_slots`] measures
//! an INT span. Group ids, the aggregate merge's group index and a TEXT
//! join's build table take that path when the rule allows it. Every
//! other per-row and per-group map in `core::plan` (composite and FLOAT
//! group keys, plain-string keys, spans too wide for a slot table,
//! numeric and multi-key join tables) hashes through [`FoldHasher`].
//!
//! Its state starts from one random seed per process, drawn once from
//! std's `RandomState`, so nobody can compute it ahead of time and craft
//! group or join keys that pile into one bucket. No result depends on
//! the hash: every map numbers or lists its entries in first-appearance
//! or row order. Input folds in one 64-bit word at a time with a folded
//! multiply (the high and low halves of the 128-bit product, xored), and
//! the SplitMix64 finalizer mixes the result, so structured keys (dense
//! codes, power-of-two strides) spread over the low bits a table picks
//! its bucket from. The row-at-a-time oracle of the test suites
//! (`mosaic_tests::oracle`) keeps std's `HashMap` on purpose: the
//! reference must not share the code it checks.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed through [`FoldHasher`].
pub(crate) type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// Odd multiplier of the fold (2⁶⁴ / φ).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// The process's hash seed.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(FOLD))
}

/// Builds [`FoldHasher`]s that start from the process seed.
#[derive(Clone)]
pub(crate) struct FoldState(u64);

impl Default for FoldState {
    fn default() -> Self {
        FoldState(seed())
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0)
    }
}

/// Word-at-a-time folded multiply, finished by SplitMix64.
pub(crate) struct FoldHasher(u64);

impl FoldHasher {
    /// The xor of the product's two halves carries every input bit into
    /// the low word, so flipped high bits in two words cannot cancel out.
    #[inline]
    fn fold(&mut self, word: u64) {
        let p = u128::from(self.0 ^ word) * u128::from(FOLD);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // The length goes in first, so zero padding of the last word
        // cannot make "a" and "a\0" fold alike.
        self.fold(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    /// The SplitMix64 finalizer: a bijective full-avalanche mix.
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Slots a direct-indexed table may spend per entry it numbers.
const SLOTS_PER_ENTRY: u128 = 4;

/// Inputs below this many entries are allowed its slots anyway: a
/// 1 024-slot table costs about as much to fill as a few rows cost to
/// hash.
const MIN_ENTRIES: usize = 256;

/// The dense-key rule: whether a direct-indexed table of `slots` slots
/// (one per key value, NULL's included) may number `entries` rows or
/// groups. It may when it is at most four slots per entry: filling the
/// table then costs less than hashing the entries would. A morsel's
/// group ids therefore never take a table larger than 4 ×
/// `MORSEL_ROWS` slots, and a join's build table stays within four
/// slots per build row however large the shared dictionary is.
pub(crate) fn dense_fits(slots: u128, entries: usize) -> bool {
    slots <= SLOTS_PER_ENTRY * entries.max(MIN_ENTRIES) as u128
}

/// The minimum of the non-NULL values of an INT key and the slot count
/// of a direct-indexed table over their span: one slot per value from
/// the minimum to the maximum, then one for NULL (`slots - 1`). With no
/// value the table is the NULL slot alone. The span is computed in
/// `i128`: `i64::MAX - i64::MIN` overflows `i64`.
pub(crate) fn int_slots(values: impl Iterator<Item = i64>) -> (i64, u128) {
    let (min, max) = values.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
    if min > max {
        return (0, 1);
    }
    (min, (i128::from(max) - i128::from(min) + 2) as u128)
}

/// The slot of INT value `v` in a table over a span starting at `min`
/// (see [`int_slots`]).
#[inline]
pub(crate) fn int_slot(v: i64, min: i64) -> usize {
    v.wrapping_sub(min) as u64 as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span of the widest INT key is computed without overflow, and
    /// the gate scales with the entries it numbers.
    #[test]
    fn int_span_and_gate() {
        assert_eq!(int_slots([5, -3, 2].into_iter()), (-3, 10));
        assert_eq!(int_slots(std::iter::empty()), (0, 1));
        let (min, slots) = int_slots([i64::MIN, i64::MAX].into_iter());
        assert_eq!((min, slots), (i64::MIN, (1u128 << 64) + 1));
        assert!(!dense_fits(slots, 1 << 40));
        assert_eq!(int_slot(i64::MAX, i64::MIN), usize::MAX);
        assert!(dense_fits(1024, 0) && !dense_fits(1025, 10));
        assert!(dense_fits(4 * 16384, 16384) && !dense_fits(4 * 16384 + 1, 16384));
    }

    /// The hash a [`FoldMap`] computes for `key`.
    fn hash_one<T: std::hash::Hash>(key: T) -> u64 {
        FoldState::default().hash_one(key)
    }

    /// Within one process the hash is a fixed function of the key: every
    /// map (a join's build and probe side alike) agrees with `hash_one`.
    #[test]
    fn fold_hasher_is_deterministic() {
        let (build, probe) = (FoldState::default(), FoldState::default());
        assert_eq!(build.hash_one(42u64), probe.hash_one(42u64));
        assert_eq!(build.hash_one("mosaic"), probe.hash_one("mosaic"));
        assert_eq!(build.hash_one((7u32, -1i64)), hash_one((7u32, -1i64)));
        assert_ne!(hash_one(42u64), hash_one(43u64));
        // Two ints whose top bits both flip: the folded multiply keeps
        // them apart (a plain `(state ^ w) * K` fold collides here for
        // every seed).
        assert_ne!(
            hash_one((1i64, 2i64)),
            hash_one((1i64 ^ i64::MIN, 2i64 ^ i64::MIN))
        );
    }

    /// Keys strided by 2²⁰ differ only above bit 20; the finalizer must
    /// still spread them over the low 12 bits (a bucket index) — a
    /// multiply-only hash maps all 4 096 to one value.
    #[test]
    fn strided_keys_spread_over_low_bits() {
        fn distinct_low12(hashes: &[u64]) -> usize {
            let mut seen = vec![false; 4096];
            hashes
                .iter()
                .filter(|&&h| !std::mem::replace(&mut seen[(h & 0xfff) as usize], true))
                .count()
        }
        let hashes: Vec<u64> = (0..4096u64).map(|k| hash_one(k << 20)).collect();
        let low = distinct_low12(&hashes);
        assert!(low >= 2000, "{low} distinct low-12-bit values of 4096");
    }
}
