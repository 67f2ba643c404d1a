/// A fixed-length packed bitmap used for column validity and row selections.
///
/// Filters evaluate predicates into a `Bitmap`; downstream kernels consume
/// either the bitmap directly or the index list from [`Bitmap::iter_ones`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of length `len`.
    pub fn zeros(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones bitmap of length `len`.
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.mask_tail();
        b
    }

    /// Build from an iterator of booleans. Each bit is or-ed in as a
    /// shifted 0/1 word rather than tested: on random predicate results a
    /// per-bit branch mispredicts about every other row.
    #[allow(clippy::should_implement_trait)] // established inherent name
    pub fn from_iter(iter: impl IntoIterator<Item = bool>) -> Self {
        let iter = iter.into_iter();
        let mut words = Vec::with_capacity(iter.size_hint().0.div_ceil(64));
        let mut len = 0usize;
        let mut current = 0u64;
        for bit in iter {
            let off = len % 64;
            if off == 0 && len > 0 {
                words.push(current);
                current = 0;
            }
            current |= u64::from(bit) << off;
            len += 1;
        }
        if len > 0 {
            words.push(current);
        }
        Bitmap { words, len }
    }

    /// Append one bit — for a validity bitmap that grows with the column
    /// it masks during a scan.
    pub(crate) fn push(&mut self, bit: bool) {
        let off = self.len % 64;
        if off == 0 {
            self.words.push(0);
        }
        self.len += 1;
        *self.words.last_mut().expect("a word was pushed") |= u64::from(bit) << off;
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if v {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff every bit is set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// True iff no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Bitwise AND with another bitmap of the same length.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise OR with another bitmap of the same length.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Bitmap {
        let mut b = Bitmap {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        b.mask_tail();
        b
    }

    /// Iterate the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let len = self.len;
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let tz = w.trailing_zeros() as usize;
                w &= w - 1;
                let idx = wi * 64 + tz;
                (idx < len).then_some(idx)
            })
        })
    }

    /// Collect indices of set bits into a `Vec`.
    pub fn to_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        out.extend(self.iter_ones());
        out
    }

    /// Copy bits `[offset, offset + len)` into a new bitmap (the morsel
    /// view of a validity bitmap: ~len/8 bytes, negligible next to the
    /// column payload it masks, which is shared rather than copied).
    pub fn slice(&self, offset: usize, len: usize) -> Bitmap {
        assert!(offset + len <= self.len, "bitmap slice out of bounds");
        if offset.is_multiple_of(64) {
            // Word-aligned fast path: copy whole words and mask the tail.
            let words = offset / 64;
            let mut b = Bitmap {
                words: self.words[words..words + len.div_ceil(64)].to_vec(),
                len,
            };
            b.mask_tail();
            return b;
        }
        Bitmap::from_iter((offset..offset + len).map(|i| self.get(i)))
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_and_zeros() {
        let z = Bitmap::zeros(70);
        assert_eq!(z.count_ones(), 0);
        assert!(z.none());
        let o = Bitmap::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.all());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::zeros(130);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn iter_ones_matches_gets() {
        let b = Bitmap::from_iter((0..200).map(|i| i % 7 == 0));
        let idx: Vec<_> = b.iter_ones().collect();
        let expect: Vec<_> = (0..200).filter(|i| i % 7 == 0).collect();
        assert_eq!(idx, expect);
    }

    #[test]
    fn not_masks_tail_bits() {
        let b = Bitmap::zeros(65);
        let n = b.not();
        assert_eq!(n.count_ones(), 65);
        assert!(n.all());
    }

    #[test]
    fn and_or_combine() {
        let a = Bitmap::from_iter((0..10).map(|i| i % 2 == 0));
        let b = Bitmap::from_iter((0..10).map(|i| i % 3 == 0));
        assert_eq!(a.and(&b).to_indices(), vec![0, 6]);
        assert_eq!(a.or(&b).count_ones(), 7);
    }

    #[test]
    fn slice_windows() {
        let b = Bitmap::from_iter((0..200).map(|i| i % 7 == 0));
        for (off, len) in [(0, 200), (64, 100), (3, 70), (199, 1), (200, 0)] {
            let s = b.slice(off, len);
            assert_eq!(s.len(), len, "slice ({off},{len})");
            for i in 0..len {
                assert_eq!(s.get(i), b.get(off + i), "bit {i} of slice ({off},{len})");
            }
        }
    }

    /// `from_iter` and `push` set exactly the bits a per-bit reference
    /// sets, across word boundaries, on random patterns.
    #[test]
    fn from_iter_and_push_match_per_bit_reference() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for len in [0usize, 1, 63, 64, 65, 129] {
            for _ in 0..8 {
                let bits: Vec<bool> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state & 1 == 1
                    })
                    .collect();
                let mut reference = Bitmap::zeros(len);
                for (i, &b) in bits.iter().enumerate() {
                    if b {
                        reference.set(i, true);
                    }
                }
                assert_eq!(Bitmap::from_iter(bits.iter().copied()), reference, "{len}");
                let mut pushed = Bitmap::zeros(0);
                for &b in &bits {
                    pushed.push(b);
                }
                assert_eq!(pushed, reference, "{len}");
            }
        }
    }

    #[test]
    fn from_iter_empty() {
        let b = Bitmap::from_iter(std::iter::empty());
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert_eq!(b.iter_ones().count(), 0);
    }
}
