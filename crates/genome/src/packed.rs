//! 2-bit-packed DNA sequences.

use std::fmt;
use std::iter::FromIterator;

use serde::{Deserialize, Serialize};

use crate::base::{Base, ParseBaseError};
use crate::fasta::NPolicy;

const BASES_PER_WORD: usize = 32;

/// [`ASCII_CODE`] entry of every byte outside `ACGTacgt`.
const NOT_A_BASE: u8 = 4;

/// The 2-bit code of each byte: `ACGTacgt` map to their [`Base`] codes,
/// every other byte to [`NOT_A_BASE`].
static ASCII_CODE: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    let mut code = 0;
    while code < 4 {
        table[b"ACGT"[code] as usize] = code as u8;
        table[b"acgt"[code] as usize] = code as u8;
        code += 1;
    }
    table
};

/// Whether `byte` is one of `ACGTacgt`.
#[inline]
pub(crate) fn is_base_byte(byte: u8) -> bool {
    ASCII_CODE[usize::from(byte)] != NOT_A_BASE
}

/// A DNA sequence packed at 2 bits per base (32 bases per `u64` word).
///
/// This mirrors the storage format of the CASA hardware, where both the
/// reference partitions held in the SMEM computing CAMs and the k-mers in
/// the pre-seeding filter are 2-bit encoded. All coordinate parameters are
/// base indices (not bytes or words).
///
/// ```
/// use casa_genome::{Base, PackedSeq};
///
/// let seq = PackedSeq::from_ascii(b"ACGTAC")?;
/// assert_eq!(seq.len(), 6);
/// assert_eq!(seq.base(2), Base::G);
/// assert_eq!(seq.to_string(), "ACGTAC");
/// assert_eq!(seq.reverse_complement().to_string(), "GTACGT");
/// # Ok::<(), casa_genome::ParseBaseError>(())
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
}

impl PackedSeq {
    /// Creates an empty sequence.
    pub fn new() -> PackedSeq {
        PackedSeq::default()
    }

    /// Creates an empty sequence with room for `bases` bases.
    pub fn with_capacity(bases: usize) -> PackedSeq {
        PackedSeq {
            words: Vec::with_capacity(bases.div_ceil(BASES_PER_WORD)),
            len: 0,
        }
    }

    /// Parses an ASCII byte string of nucleotides (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseBaseError`] on the first byte outside `ACGTacgt`.
    pub fn from_ascii(ascii: &[u8]) -> Result<PackedSeq, ParseBaseError> {
        let mut seq = PackedSeq::with_capacity(ascii.len());
        seq.extend_ascii(ascii, NPolicy::Reject)
            .map_err(|byte| ParseBaseError { byte })?;
        Ok(seq)
    }

    /// Appends ASCII nucleotides (case-insensitive): the one ASCII→2-bit
    /// path behind [`PackedSeq::from_ascii`] and the FASTA and FASTQ
    /// readers.
    ///
    /// Each 32-byte chunk maps through [`ASCII_CODE`] into one packed
    /// word; only a chunk holding a byte outside `ACGTacgt` goes base by
    /// base, applying `policy` to each such byte. Under
    /// [`NPolicy::Reject`] it stops at the first one and returns it, with
    /// the bases before it appended.
    pub(crate) fn extend_ascii(&mut self, ascii: &[u8], policy: NPolicy) -> Result<(), u8> {
        // Continue the partial last word in a register; store it back at
        // the end.
        let mut fill = self.len % BASES_PER_WORD;
        let mut acc = if fill == 0 {
            0
        } else {
            self.words.pop().expect("a partial word holds the tail")
        };
        self.len -= fill;
        let mut result = Ok(());
        'chunks: for chunk in ascii.chunks(BASES_PER_WORD) {
            let mut word = 0u64;
            let mut seen = 0u8;
            for (i, &byte) in chunk.iter().enumerate() {
                let code = ASCII_CODE[usize::from(byte)];
                seen |= code;
                word |= u64::from(code & 3) << (2 * i);
            }
            if seen & NOT_A_BASE == 0 {
                self.append_packed(&mut acc, &mut fill, word, chunk.len());
                continue;
            }
            for &byte in chunk {
                let code = match ASCII_CODE[usize::from(byte)] {
                    NOT_A_BASE => match policy {
                        NPolicy::Reject => {
                            result = Err(byte);
                            break 'chunks;
                        }
                        NPolicy::Replace(base) => base.code(),
                        NPolicy::Skip => continue,
                    },
                    code => code,
                };
                self.append_packed(&mut acc, &mut fill, u64::from(code), 1);
            }
        }
        if fill > 0 {
            self.words.push(acc);
            self.len += fill;
        }
        result
    }

    /// Adds `n` (1..=32) bases packed in `word` to the `fill` (< 32)
    /// bases held in `acc`, storing the word once it holds 32.
    #[inline]
    fn append_packed(&mut self, acc: &mut u64, fill: &mut usize, word: u64, n: usize) {
        *acc |= word << (2 * *fill);
        *fill += n;
        if *fill >= BASES_PER_WORD {
            self.words.push(*acc);
            self.len += BASES_PER_WORD;
            *fill -= BASES_PER_WORD;
            // The bases of `word` that did not fit.
            *acc = if *fill == 0 {
                0
            } else {
                word >> (2 * (n - *fill))
            };
        }
    }

    /// Number of bases in the sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence contains no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a base.
    #[inline]
    pub fn push(&mut self, base: Base) {
        let word = self.len / BASES_PER_WORD;
        let shift = (self.len % BASES_PER_WORD) * 2;
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= u64::from(base.code()) << shift;
        self.len += 1;
    }

    /// The base at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        assert!(
            i < self.len,
            "base index {i} out of range (len {})",
            self.len
        );
        Base::from_code(self.code_at(i))
    }

    /// The 2-bit code at index `i` without the `Base` round-trip; callers
    /// must have bounds-checked `i`.
    #[inline]
    fn code_at(&self, i: usize) -> u8 {
        ((self.words[i / BASES_PER_WORD] >> ((i % BASES_PER_WORD) * 2)) & 3) as u8
    }

    /// The base at index `i`, or `None` if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Base> {
        (i < self.len).then(|| self.base(i))
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.len).map(move |i| self.base(i))
    }

    /// Copies the subsequence `start..start + len` into a new sequence,
    /// 32 bases per word: each output word is the shifted window at its
    /// start, and the tail word is cleared above `len`.
    ///
    /// # Panics
    ///
    /// Panics if `start + len > self.len()`.
    pub fn subseq(&self, start: usize, len: usize) -> PackedSeq {
        assert!(
            start + len <= self.len,
            "subseq {start}..{} out of range (len {})",
            start + len,
            self.len
        );
        let mut words: Vec<u64> = (start..start + len)
            .step_by(BASES_PER_WORD)
            .map(|i| self.window64(i))
            .collect();
        let tail = len % BASES_PER_WORD;
        if tail != 0 {
            let last = words.len() - 1;
            words[last] &= (1u64 << (2 * tail)) - 1;
        }
        PackedSeq { words, len }
    }

    /// The reverse complement of this sequence (the opposite strand read
    /// 5'→3').
    pub fn reverse_complement(&self) -> PackedSeq {
        (0..self.len)
            .rev()
            .map(|i| self.base(i).complement())
            .collect()
    }

    /// Encodes the k-mer starting at `start` as a base-4 integer with the
    /// **first** base in the most significant position, so that integer
    /// order equals lexicographic order. Returns `None` if the k-mer would
    /// run past the end of the sequence.
    ///
    /// This is the index format used by the mini index table of the
    /// pre-seeding filter and by the seed & position tables of GenAx.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 32`.
    pub fn kmer_code(&self, start: usize, k: usize) -> Option<u64> {
        assert!((1..=32).contains(&k), "k must be in 1..=32, got {k}");
        if start + k > self.len {
            return None;
        }
        let mut code = 0u64;
        for i in start..start + k {
            code = (code << 2) | u64::from(self.base(i).code());
        }
        Some(code)
    }

    /// Iterates over all `(position, k-mer code)` pairs, in a rolling
    /// fashion.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 32`.
    pub fn kmers(&self, k: usize) -> KmerIter<'_> {
        assert!((1..=32).contains(&k), "k must be in 1..=32, got {k}");
        KmerIter {
            seq: self,
            k,
            pos: 0,
            code: 0,
            mask: if k == 32 {
                u64::MAX
            } else {
                (1u64 << (2 * k)) - 1
            },
            primed: false,
        }
    }

    /// Length of the longest common prefix of `self[i..]` and `other[j..]`.
    ///
    /// Word-accelerated: compares 32 bases per step where possible. This is
    /// the hot primitive behind the golden SMEM models and the CAM
    /// multi-stride matcher.
    pub fn common_prefix_len(&self, i: usize, other: &PackedSeq, j: usize) -> usize {
        let max = (self.len - i.min(self.len)).min(other.len - j.min(other.len));
        let mut n = 0;
        // Fast path: both cursors word-aligned relative to each other is
        // rare, so compare packed 32-base windows extracted on the fly.
        while n + BASES_PER_WORD <= max {
            let a = self.window64(i + n);
            let b = other.window64(j + n);
            let x = a ^ b;
            if x != 0 {
                return n + (x.trailing_zeros() / 2) as usize;
            }
            n += BASES_PER_WORD;
        }
        while n < max && self.base(i + n) == other.base(j + n) {
            n += 1;
        }
        n
    }

    /// Whether `self[i..i+len]` equals `other[j..j+len]`.
    ///
    /// Returns `false` if either range runs out of bounds.
    pub fn matches(&self, i: usize, other: &PackedSeq, j: usize, len: usize) -> bool {
        if i + len > self.len || j + len > other.len {
            return false;
        }
        self.common_prefix_len(i, other, j) >= len
    }

    /// Extracts 32 bases starting at base index `i` as a packed `u64`
    /// (padding with zero bits past the end of the sequence).
    #[inline]
    fn window64(&self, i: usize) -> u64 {
        let word = i / BASES_PER_WORD;
        let shift = (i % BASES_PER_WORD) * 2;
        let lo = self.words.get(word).copied().unwrap_or(0) >> shift;
        if shift == 0 {
            lo
        } else {
            let hi = self.words.get(word + 1).copied().unwrap_or(0);
            lo | (hi << (64 - shift))
        }
    }

    /// GC fraction of the sequence (0.0 for an empty sequence).
    pub fn gc_content(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let gc = self.iter().filter(|b| b.is_gc()).count();
        gc as f64 / self.len as f64
    }

    /// Serializes to 2-bit-packed bytes (4 bases per byte, first base in
    /// the low bits), the on-disk and on-bus format of the accelerator.
    pub fn to_packed_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(4)];
        for i in 0..self.len {
            out[i / 4] |= self.base(i).code() << ((i % 4) * 2);
        }
        out
    }

    /// Rebuilds a sequence from [`PackedSeq::to_packed_bytes`] output.
    ///
    /// Returns `None` if `bytes` is too short for `len` bases.
    pub fn from_packed_bytes(bytes: &[u8], len: usize) -> Option<PackedSeq> {
        if bytes.len() < len.div_ceil(4) {
            return None;
        }
        Some(
            (0..len)
                .map(|i| Base::from_code(bytes[i / 4] >> ((i % 4) * 2)))
                .collect(),
        )
    }

    /// Decodes a k-mer code produced by [`PackedSeq::kmer_code`] back into a
    /// sequence of `k` bases.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 32`.
    pub fn from_kmer_code(code: u64, k: usize) -> PackedSeq {
        assert!((1..=32).contains(&k), "k must be in 1..=32, got {k}");
        (0..k)
            .map(|i| Base::from_code((code >> (2 * (k - 1 - i))) as u8))
            .collect()
    }
}

impl FromIterator<Base> for PackedSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> PackedSeq {
        let iter = iter.into_iter();
        let mut seq = PackedSeq::with_capacity(iter.size_hint().0);
        for b in iter {
            seq.push(b);
        }
        seq
    }
}

impl Extend<Base> for PackedSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

impl fmt::Display for PackedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            fmt::Display::fmt(&b, f)?;
        }
        Ok(())
    }
}

impl fmt::Debug for PackedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 64 {
            write!(f, "PackedSeq(\"{self}\")")
        } else {
            write!(
                f,
                "PackedSeq(len={}, \"{}...\")",
                self.len,
                self.subseq(0, 32)
            )
        }
    }
}

/// Iterator over rolling k-mer codes, created by [`PackedSeq::kmers`].
#[derive(Debug)]
pub struct KmerIter<'a> {
    seq: &'a PackedSeq,
    k: usize,
    pos: usize,
    code: u64,
    mask: u64,
    primed: bool,
}

impl Iterator for KmerIter<'_> {
    /// `(start position, k-mer code)`.
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        if !self.primed {
            self.code = self.seq.kmer_code(0, self.k)?;
            self.primed = true;
            self.pos = 0;
            return Some((0, self.code));
        }
        let next_end = self.pos + self.k;
        if next_end >= self.seq.len() {
            return None;
        }
        self.pos += 1;
        self.code = ((self.code << 2) | u64::from(self.seq.code_at(next_end))) & self.mask;
        Some((self.pos, self.code))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.seq.len() + 1)
            .saturating_sub(self.k)
            .saturating_sub(if self.primed { self.pos + 1 } else { 0 });
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes()).unwrap()
    }

    proptest! {
        /// The word-wise copy equals the base-by-base one, word for word
        /// (so bits above `len` stay clear), at every alignment: `start`
        /// on and off a word boundary, empty copies, and copies ending on
        /// the last word.
        #[test]
        fn subseq_equals_per_base_copy(
            codes in prop::collection::vec(0u8..4, 0..300),
            (start_frac, len_frac, align, to_end) in (0.0f64..=1.0, 0.0f64..=1.0, 0u8..2, 0u8..2),
        ) {
            let s: PackedSeq = codes.iter().map(|&c| Base::from_code(c)).collect();
            let mut start = (start_frac * s.len() as f64) as usize;
            if align == 1 {
                start -= start % BASES_PER_WORD;
            }
            let room = s.len() - start;
            let len = if to_end == 1 { room } else { (len_frac * room as f64) as usize };
            let expect: PackedSeq = (start..start + len).map(|i| s.base(i)).collect();
            prop_assert_eq!(s.subseq(start, len), expect);
        }
    }

    #[test]
    fn push_and_index_round_trip() {
        let s = seq("ACGTACGTTGCA");
        assert_eq!(s.len(), 12);
        assert_eq!(s.base(0), Base::A);
        assert_eq!(s.base(3), Base::T);
        assert_eq!(s.base(11), Base::A);
        assert_eq!(s.to_string(), "ACGTACGTTGCA");
    }

    #[test]
    fn crosses_word_boundaries() {
        let text: String = std::iter::repeat_n("ACGT", 40).collect();
        let s = seq(&text);
        assert_eq!(s.len(), 160);
        assert_eq!(s.to_string(), text);
        assert_eq!(s.base(33), Base::C);
        assert_eq!(s.base(159), Base::T);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn base_out_of_range_panics() {
        seq("ACG").base(3);
    }

    #[test]
    fn get_returns_none_out_of_range() {
        let s = seq("ACG");
        assert_eq!(s.get(2), Some(Base::G));
        assert_eq!(s.get(3), None);
    }

    #[test]
    fn subseq_extracts_middle() {
        let s = seq("AACCGGTTAACC");
        assert_eq!(s.subseq(2, 4).to_string(), "CCGG");
        assert_eq!(s.subseq(0, 0).len(), 0);
        assert_eq!(s.subseq(11, 1).to_string(), "C");
    }

    #[test]
    fn reverse_complement_small() {
        assert_eq!(seq("ACGT").reverse_complement().to_string(), "ACGT");
        assert_eq!(seq("AAAA").reverse_complement().to_string(), "TTTT");
        assert_eq!(seq("ACGTAC").reverse_complement().to_string(), "GTACGT");
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s = seq("ACGGTTACGATCGATCGGATCGTTAGC");
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn kmer_code_is_lexicographic() {
        let s = seq("AACA");
        // AAC < ACA lexicographically, codes must agree.
        let c0 = s.kmer_code(0, 3).unwrap();
        let c1 = s.kmer_code(1, 3).unwrap();
        assert!(c0 < c1);
        assert_eq!(c0, 0b000001); // A=00 A=00 C=01
        assert_eq!(s.kmer_code(2, 3), None);
    }

    #[test]
    fn kmer_code_round_trips_through_decode() {
        let s = seq("GATTACAGATTACA");
        for k in [1, 3, 7, 14] {
            for start in 0..=(s.len() - k) {
                let code = s.kmer_code(start, k).unwrap();
                assert_eq!(PackedSeq::from_kmer_code(code, k), s.subseq(start, k));
            }
        }
    }

    #[test]
    fn rolling_kmers_match_direct_codes() {
        let s = seq("ACGTTGCAACGTGGGTTTACAC");
        for k in [1, 2, 5, 19, 22] {
            let rolled: Vec<_> = s.kmers(k).collect();
            let direct: Vec<_> = (0..=(s.len() - k))
                .map(|i| (i, s.kmer_code(i, k).unwrap()))
                .collect();
            assert_eq!(rolled, direct, "k={k}");
        }
    }

    #[test]
    fn kmers_of_short_seq_is_empty() {
        let s = seq("ACG");
        assert_eq!(s.kmers(4).count(), 0);
    }

    #[test]
    fn common_prefix_len_basic() {
        let a = seq("ACGTACGTA");
        let b = seq("ACGTACGAA");
        assert_eq!(a.common_prefix_len(0, &b, 0), 7);
        assert_eq!(a.common_prefix_len(4, &b, 4), 3);
        assert_eq!(a.common_prefix_len(9, &b, 0), 0);
    }

    #[test]
    fn common_prefix_len_long_word_path() {
        let mut text: String = std::iter::repeat_n("ACGT", 30).collect();
        let a = seq(&text);
        text.replace_range(97..98, "A"); // mutate base 97 (was C -> A? position 97 of ACGT repeat = C)
        let b = seq(&text);
        let lcp = a.common_prefix_len(0, &b, 0);
        assert_eq!(lcp, 97);
        // unaligned offsets exercise the shifted window path
        assert_eq!(a.common_prefix_len(4, &a, 0), 116);
        assert_eq!(a.common_prefix_len(1, &a, 5), 115);
    }

    #[test]
    fn matches_checks_bounds() {
        let a = seq("ACGTACGT");
        assert!(a.matches(0, &a, 4, 4));
        assert!(!a.matches(0, &a, 5, 4)); // out of bounds
        assert!(!a.matches(0, &a, 1, 4)); // mismatch
    }

    #[test]
    fn gc_content_counts() {
        assert_eq!(seq("GGCC").gc_content(), 1.0);
        assert_eq!(seq("AATT").gc_content(), 0.0);
        assert!((seq("ACGT").gc_content() - 0.5).abs() < 1e-12);
        assert_eq!(PackedSeq::new().gc_content(), 0.0);
    }

    #[test]
    fn from_ascii_rejects_n() {
        assert!(PackedSeq::from_ascii(b"ACGNT").is_err());
    }

    #[test]
    fn collect_and_extend() {
        let mut s: PackedSeq = [Base::A, Base::C].into_iter().collect();
        s.extend([Base::G, Base::T]);
        assert_eq!(s.to_string(), "ACGT");
    }

    #[test]
    fn packed_bytes_round_trip() {
        for text in ["", "A", "ACG", "ACGT", "ACGTACGTTGCAT"] {
            let s = seq(text);
            let bytes = s.to_packed_bytes();
            assert_eq!(bytes.len(), s.len().div_ceil(4));
            assert_eq!(PackedSeq::from_packed_bytes(&bytes, s.len()), Some(s));
        }
        assert_eq!(PackedSeq::from_packed_bytes(&[0xFF], 5), None);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", PackedSeq::new()).is_empty());
        let long: PackedSeq = std::iter::repeat_n(Base::A, 100).collect();
        assert!(format!("{long:?}").contains("len=100"));
    }
}
