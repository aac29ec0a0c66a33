//! A compact bit set over CAM entry indices, used for entry-level power
//! gating (only entries whose bit is set participate in a search).

use serde::{Deserialize, Serialize};

/// A fixed-length bit set addressing CAM entries.
///
/// ```
/// use casa_cam::EntryMask;
///
/// let mut mask = EntryMask::new(100);
/// mask.set(3);
/// mask.set(99);
/// assert_eq!(mask.count(), 2);
/// assert!(mask.get(3) && !mask.get(4));
/// assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![3, 99]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntryMask {
    words: Vec<u64>,
    len: usize,
}

impl EntryMask {
    /// Creates an all-zero mask over `len` entries.
    pub fn new(len: usize) -> EntryMask {
        EntryMask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one mask over `len` entries.
    pub fn all(len: usize) -> EntryMask {
        let mut mask = EntryMask::new(len);
        for (i, w) in mask.words.iter_mut().enumerate() {
            let remaining = len - (i * 64).min(len);
            *w = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
        }
        mask
    }

    /// Number of addressable entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask addresses zero entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Reads bit `i` (out-of-range reads are `false`).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits (entries that would be enabled).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over set bit indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// The backing `u64` words, 64 entries per word, bit `i % 64` of word
    /// `i / 64` for entry `i`. Bits at or above `len` are always zero.
    /// This is the representation the bit-parallel CAM kernel consumes
    /// directly.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Resets to an all-zero mask over `len` entries, reusing the word
    /// allocation when possible.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }
}

impl Default for EntryMask {
    /// An empty mask over zero entries.
    fn default() -> EntryMask {
        EntryMask::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_round_trip() {
        let mut m = EntryMask::new(130);
        for i in [0, 63, 64, 129] {
            m.set(i);
            assert!(m.get(i));
        }
        assert_eq!(m.count(), 4);
        m.clear(64);
        assert!(!m.get(64));
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn all_sets_exactly_len_bits() {
        for len in [0, 1, 63, 64, 65, 200] {
            let m = EntryMask::all(len);
            assert_eq!(m.count(), len, "len {len}");
            assert!(!m.get(len));
        }
    }

    #[test]
    fn iter_ones_is_sorted_and_complete() {
        let mut m = EntryMask::new(300);
        let bits = [5usize, 64, 65, 190, 299];
        for &b in &bits {
            m.set(b);
        }
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), bits);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        EntryMask::new(5).set(5);
    }

    #[test]
    fn words_expose_the_bit_layout() {
        let mut m = EntryMask::new(130);
        m.set(0);
        m.set(64);
        m.set(129);
        assert_eq!(m.words(), &[1, 1, 2]);
        // `all` leaves no stray bits above `len` in the last word.
        let a = EntryMask::all(70);
        assert_eq!(a.words(), &[u64::MAX, (1 << 6) - 1]);
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut dst = EntryMask::new(130);
        dst.set(5);
        dst.set(129);
        dst.reset(10);
        assert_eq!(dst, EntryMask::new(10));
        dst.reset(200);
        assert_eq!(dst, EntryMask::new(200));
    }

    #[test]
    fn get_out_of_range_is_false() {
        assert!(!EntryMask::new(5).get(1000));
    }
}
