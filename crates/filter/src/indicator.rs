//! Search indicators: the per-k-mer metadata of the pre-seeding filter's
//! data array. The filter stores no indicator bits: each row holds its
//! occurrence's partition offset `x`, and the row's indicator is
//! [`SearchIndicator::of_occurrence`] of it.
//!
//! A *search indicator* (paper §3) combines, for all occurrences of a k-mer
//! in the current reference partition:
//!
//! * the **start positions** — a one-hot mask over `x mod s` (s = CAM entry
//!   stride), telling the computing CAM how many wildcard bases to pad;
//! * the **group indicator** — a one-hot mask over CAM groups, so only
//!   groups that contain the k-mer are powered during the search. Entry
//!   `e` is in group `e mod G`, so these bits alone fix the powered rows:
//!   the computing CAM loads them straight from the bits (`casa-cam`'s
//!   `Bcam::load_groups`), with no entry-wide mask built here.

use serde::{Deserialize, Serialize};

/// Aggregated search indicator of one k-mer in one reference partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SearchIndicator {
    /// One-hot over in-entry start offsets: bit `p` set means some
    /// occurrence starts at `x` with `x mod stride == p`.
    pub start_mask: u64,
    /// One-hot over CAM groups containing the k-mer.
    pub groups: u32,
}

impl SearchIndicator {
    /// The empty indicator (k-mer absent from the partition).
    pub const EMPTY: SearchIndicator = SearchIndicator {
        start_mask: 0,
        groups: 0,
    };

    /// Indicator of a single occurrence at partition offset `x`.
    ///
    /// # Panics
    ///
    /// Panics if `stride > 64` or `groups > 32` (hardware mask widths; the
    /// paper uses 40 and 20).
    pub fn of_occurrence(x: usize, stride: usize, groups: usize) -> SearchIndicator {
        assert!(stride <= 64, "stride must fit a 64-bit start mask");
        assert!(groups <= 32, "group count must fit a 32-bit indicator");
        SearchIndicator {
            start_mask: 1u64 << (x % stride),
            groups: 1u32 << ((x / stride) % groups),
        }
    }

    /// Whether the k-mer has no occurrence (filterable pivot).
    pub fn is_empty(&self) -> bool {
        self.start_mask == 0
    }

    /// ORs another indicator into this one (same k-mer, another
    /// occurrence).
    pub fn merge(&mut self, other: SearchIndicator) {
        self.start_mask |= other.start_mask;
        self.groups |= other.groups;
    }

    /// Number of distinct in-entry start offsets (padded searches the
    /// computing CAM will issue).
    pub fn start_count(&self) -> u32 {
        self.start_mask.count_ones()
    }

    /// Number of groups that must be powered.
    pub fn group_count(&self) -> u32 {
        self.groups.count_ones()
    }

    /// The paper's shifted-AND alignment test (§4.2, Analysis 2): whether a
    /// k-mer with indicator `self` *may* be aligned with a k-mer with
    /// indicator `other` that lies `read_distance` bases later on the read.
    ///
    /// Two hits at reference offsets `a` (self) and `b` (other) are aligned
    /// iff `b − a == read_distance`; a necessary condition is
    /// `(b − a) mod s == read_distance mod s`, checked here on the start
    /// masks alone. The test over-approximates (may say "aligned" for
    /// unaligned pairs) but never under-approximates, so discarding pivots
    /// on a `false` result is always safe.
    pub fn may_align_with(
        &self,
        other: SearchIndicator,
        read_distance: usize,
        stride: usize,
    ) -> bool {
        assert!(stride <= 64, "stride must fit a 64-bit start mask");
        if self.is_empty() || other.is_empty() {
            return false;
        }
        let d = read_distance % stride;
        // Rotate other's mask right by d: bit (a) of self aligns with bit
        // ((a + d) mod s) of other.
        let rotated = rotate_right_mod(other.start_mask, d, stride);
        self.start_mask & rotated != 0
    }
}

/// Rotates the low `width` bits of `mask` right by `by`.
fn rotate_right_mod(mask: u64, by: usize, width: usize) -> u64 {
    debug_assert!(by < width && width <= 64);
    let keep = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mask = mask & keep;
    if by == 0 {
        mask
    } else {
        ((mask >> by) | (mask << (width - by))) & keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrence_sets_expected_bits() {
        let si = SearchIndicator::of_occurrence(87, 40, 20);
        assert_eq!(si.start_mask, 1 << 7); // 87 mod 40
        assert_eq!(si.groups, 1 << 2); // entry 2, group 2
        assert!(!si.is_empty());
    }

    #[test]
    fn merge_unions_masks() {
        let mut a = SearchIndicator::of_occurrence(0, 40, 20);
        a.merge(SearchIndicator::of_occurrence(41, 40, 20));
        assert_eq!(a.start_count(), 2);
        assert_eq!(a.group_count(), 2);
    }

    #[test]
    fn empty_is_empty() {
        assert!(SearchIndicator::EMPTY.is_empty());
        assert_eq!(SearchIndicator::default(), SearchIndicator::EMPTY);
    }

    #[test]
    fn aligned_pair_passes_the_test() {
        // Occurrences at ref 100 and 112, read distance 12: truly aligned.
        let s = 40;
        let a = SearchIndicator::of_occurrence(100, s, 20);
        let b = SearchIndicator::of_occurrence(112, s, 20);
        assert!(a.may_align_with(b, 12, s));
    }

    #[test]
    fn unaligned_pair_with_distinct_residues_fails() {
        // Paper Fig. 10 example 2: entry size 5, ATTG and TCAT both start
        // at in-entry offset 4 (dh mod 5 == 0) but are 4 apart on the read
        // (dr mod 5 == 4) -> unaligned, pivot disposable.
        let s = 5;
        let a = SearchIndicator::of_occurrence(4, s, 4);
        let b = SearchIndicator::of_occurrence(9, s, 4); // also offset 4
        assert!(!a.may_align_with(b, 4, s));
        assert!(a.may_align_with(b, 5, s)); // distance 0 mod 5 would align
    }

    #[test]
    fn alignment_is_overapproximate_not_underapproximate() {
        // Hits at 3 and 3+s+d have residue distance d even though true
        // distance differs from read distance d: test must say aligned.
        let s = 8;
        let a = SearchIndicator::of_occurrence(3, s, 4);
        let b = SearchIndicator::of_occurrence(3 + s + 2, s, 4);
        assert!(a.may_align_with(b, 2, s));
    }

    #[test]
    fn empty_never_aligns() {
        let a = SearchIndicator::of_occurrence(0, 40, 20);
        assert!(!a.may_align_with(SearchIndicator::EMPTY, 0, 40));
        assert!(!SearchIndicator::EMPTY.may_align_with(a, 0, 40));
    }

    #[test]
    fn rotate_handles_full_width() {
        assert_eq!(rotate_right_mod(0b1, 1, 4), 0b1000);
        assert_eq!(rotate_right_mod(0b1000, 3, 4), 0b1);
        assert_eq!(rotate_right_mod(u64::MAX, 0, 64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn oversized_stride_rejected() {
        SearchIndicator::of_occurrence(0, 65, 20);
    }
}
