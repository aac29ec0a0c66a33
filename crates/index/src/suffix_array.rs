//! Suffix array over a DNA sequence, with interval search and
//! longest-match queries.

use std::ops::Range;

use casa_genome::shared::{SharedSlice, SliceStore};
use casa_genome::PackedSeq;

use crate::sais::suffix_array_u32;

/// A suffix array over a [`PackedSeq`], the golden lookup structure of this
/// reproduction.
///
/// Construction uses the linear-time SA-IS algorithm ([`crate::sais`]).
/// Queries return **SA intervals**: half-open ranges of suffix-array ranks
/// whose suffixes share the queried prefix. The interval size is the
/// occurrence count and [`SuffixArray::positions`] maps it to text
/// coordinates.
///
/// ```
/// use casa_genome::PackedSeq;
/// use casa_index::SuffixArray;
///
/// let text = PackedSeq::from_ascii(b"GATTACAGATTACA")?;
/// let sa = SuffixArray::build(&text);
/// let q = PackedSeq::from_ascii(b"ATTA")?;
/// let interval = sa.interval_of(&q, 0, q.len());
/// let mut hits: Vec<usize> = sa.positions(interval).collect();
/// hits.sort_unstable();
/// assert_eq!(hits, vec![1, 8]);
/// # Ok::<(), casa_genome::ParseBaseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SuffixArray {
    text: PackedSeq,
    sa: SliceStore<u32>,
}

impl SuffixArray {
    /// Builds the suffix array of `text` in linear time.
    ///
    /// # Panics
    ///
    /// Panics if `text.len() >= u32::MAX`.
    pub fn build(text: &PackedSeq) -> SuffixArray {
        let codes: Vec<u32> = text.iter().map(|b| u32::from(b.code())).collect();
        let sa = suffix_array_u32(&codes, 4);
        SuffixArray {
            text: text.clone(),
            sa: sa.into(),
        }
    }

    /// Reassembles a suffix array from its text and shared (e.g.
    /// mmap-backed) rank storage — the zero-copy image-loading path.
    ///
    /// # Panics
    ///
    /// Panics if `sa.as_slice().len() != text.len()`.
    pub fn from_shared(text: PackedSeq, sa: SharedSlice<u32>) -> SuffixArray {
        assert_eq!(
            sa.as_slice().len(),
            text.len(),
            "suffix array length must match text"
        );
        SuffixArray {
            text,
            sa: sa.into(),
        }
    }

    /// The indexed text.
    pub fn text(&self) -> &PackedSeq {
        &self.text
    }

    /// Number of suffixes (== text length).
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// Whether the text is empty.
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }

    /// The raw suffix array: `sa()[rank]` is the text position of the
    /// `rank`-th smallest suffix.
    pub fn sa(&self) -> &[u32] {
        self.sa.as_slice()
    }

    /// Whether the ranks are backed by shared (mapped) storage.
    pub fn is_shared(&self) -> bool {
        self.sa.is_shared()
    }

    /// Text positions of the suffixes in an SA interval.
    pub fn positions(&self, interval: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        self.sa[interval].iter().map(|&p| p as usize)
    }

    /// SA interval of the suffixes starting with `query[from..from+len]`.
    ///
    /// Returns an empty range if the pattern does not occur.
    ///
    /// # Panics
    ///
    /// Panics if `from + len > query.len()`.
    pub fn interval_of(&self, query: &PackedSeq, from: usize, len: usize) -> Range<usize> {
        assert!(from + len <= query.len(), "pattern range out of bounds");
        let mut interval = 0..self.sa.len();
        for i in 0..len {
            interval = self.refine(interval, i, query.base(from + i).code());
            if interval.is_empty() {
                return interval;
            }
        }
        interval
    }

    /// Longest prefix of `query[from..]` that occurs in the text, together
    /// with its SA interval.
    ///
    /// This is the primitive behind the uni-directional RMEM search: the
    /// returned length is the right-maximal exact-match length at pivot
    /// `from`, and the interval enumerates its hits.
    ///
    /// Returns `(0, 0..len)` when even the first base does not occur.
    ///
    /// # Panics
    ///
    /// Panics if `from > query.len()`.
    pub fn longest_match(&self, query: &PackedSeq, from: usize) -> (usize, Range<usize>) {
        assert!(from <= query.len(), "pivot out of bounds");
        let mut interval = 0..self.sa.len();
        let mut matched = 0;
        while from + matched < query.len() {
            let next = self.refine(interval.clone(), matched, query.base(from + matched).code());
            if next.is_empty() {
                break;
            }
            interval = next;
            matched += 1;
        }
        (matched, interval)
    }

    /// Narrows `interval` (whose suffixes share a prefix of length `depth`)
    /// to those whose next character equals `code`.
    fn refine(&self, interval: Range<usize>, depth: usize, code: u8) -> Range<usize> {
        // Binary search the first suffix whose char at `depth` is >= code,
        // and the first whose char is > code. Suffixes shorter than depth+1
        // (i.e. hitting the sentinel) sort before every code.
        let char_at = |rank: usize| -> i8 {
            let pos = self.sa[rank] as usize + depth;
            if pos >= self.text.len() {
                -1
            } else {
                self.text.base(pos).code() as i8
            }
        };
        let lo = partition_point_in(&interval, |rank| char_at(rank) < code as i8);
        let hi = partition_point_in(&interval, |rank| char_at(rank) <= code as i8);
        lo..hi
    }
}

/// `partition_point` over an arbitrary rank range.
fn partition_point_in(range: &Range<usize>, pred: impl Fn(usize) -> bool) -> usize {
    let mut lo = range.start;
    let mut hi = range.end;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn suffixes_are_sorted() {
        let t = seq("GATTACAGATTACACCGGTT");
        let sa = SuffixArray::build(&t);
        for w in sa.sa().windows(2) {
            let a = t.subseq(w[0] as usize, t.len() - w[0] as usize).to_string();
            let b = t.subseq(w[1] as usize, t.len() - w[1] as usize).to_string();
            assert!(a < b, "{a} !< {b}");
        }
    }

    #[test]
    fn interval_of_finds_all_occurrences() {
        let t = seq("ACGTACGTACGT");
        let sa = SuffixArray::build(&t);
        let q = seq("ACGT");
        let mut hits: Vec<_> = sa.positions(sa.interval_of(&q, 0, 4)).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 4, 8]);
    }

    #[test]
    fn interval_of_missing_pattern_is_empty() {
        let t = seq("AAAACCCC");
        let sa = SuffixArray::build(&t);
        let q = seq("GG");
        assert!(sa.interval_of(&q, 0, 2).is_empty());
    }

    #[test]
    fn interval_of_respects_from_offset() {
        let t = seq("TTTTGGGG");
        let sa = SuffixArray::build(&t);
        let q = seq("AAGG");
        assert_eq!(sa.interval_of(&q, 2, 2).len(), 3); // "GG" occurs 3x
    }

    #[test]
    fn longest_match_full_and_partial() {
        let t = seq("GATTACA");
        let sa = SuffixArray::build(&t);
        // whole read present
        let (len, iv) = sa.longest_match(&seq("TTAC"), 0);
        assert_eq!(len, 4);
        assert_eq!(sa.positions(iv).collect::<Vec<_>>(), vec![2]);
        // prefix present, then diverges: "TTAG" matches "TTA"
        let (len, _) = sa.longest_match(&seq("TTAG"), 0);
        assert_eq!(len, 3);
        // nothing matches at all — impossible over ACGT of this text?
        // 'C' occurs, so use pivot beyond: empty suffix
        let q = seq("A");
        assert_eq!(sa.longest_match(&q, 1).0, 0);
    }

    #[test]
    fn longest_match_agrees_with_brute_force() {
        let t = seq("ACGGTTACGATCGATCGGATCGTTAGCAACGGTT");
        let sa = SuffixArray::build(&t);
        let q = seq("TTACGATCAAACGGTTXXX".replace('X', "A").as_str());
        for from in 0..q.len() {
            let (len, iv) = sa.longest_match(&q, from);
            // brute force longest match
            let mut best = 0;
            for start in 0..t.len() {
                best = best.max(t.common_prefix_len(start, &q, from).min(q.len() - from));
            }
            assert_eq!(len, best, "pivot {from}");
            if len > 0 {
                for pos in sa.positions(iv) {
                    assert!(t.matches(pos, &q, from, len));
                }
            }
        }
    }

    #[test]
    fn empty_text() {
        let sa = SuffixArray::build(&PackedSeq::new());
        assert!(sa.is_empty());
        assert_eq!(sa.longest_match(&seq("ACG"), 0).0, 0);
    }
}
