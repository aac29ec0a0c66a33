//! The pre-seeding filter (paper §4.1, Fig. 8).
//!
//! A cache-like, three-stage structure built offline for each reference
//! partition:
//!
//! 1. **mini index table** (SRAM, `4^m` entries) — addressed by the first
//!    `m` bases of the k-mer; yields start/end pointers into the tag array
//!    for the bucket of k-mers sharing that m-mer prefix;
//! 2. **tag array** (CAM, one entry per k-mer occurrence, sorted) — stores
//!    the remaining `(k−m)`-mer; only the rows between the pointers are
//!    powered (range power gating);
//! 3. **data array** (SRAM, row for row with the tag array) — stores each
//!    occurrence's [`SearchIndicator`]; rows behind matching tag entries
//!    are read and OR-ed.
//!
//! In software the tag and data arrays are one table of 8-byte rows, one
//! `u64` word each: `x | tag << 32`, the occurrence's partition offset
//! `x` beside its tag. The data array needs no bits of its own: an
//! occurrence's indicator is a pure function of `x`
//! ([`SearchIndicator::of_occurrence`]: start bit `x mod s`, group
//! `(x / s) mod G`), so a lookup derives it from each matching row, and a
//! tag match and its indicator share a cache line — two dependent misses
//! (mini index → rows), not three. A line holds 8 rows, so a slot of the
//! 8 Mb reference's table (~7.6 rows on average over 8 M rows and 4^10
//! slots) is one or two lines. The offsets also tell the computing CAM
//! which of its entries hold an m-mer (see [`Occurrences`]).
//!
//! Data-array faults ([`FilterFaultModel`]) do not touch the rows: they
//! live in a sparse per-filter overlay mapping a row to the start-mask
//! bits flipped in its indicator, applied wherever an indicator is read,
//! so a mapped filter stays shared when faults are injected into it.
//!
//! One [`PreSeedingFilter`] holds the tables of every partition of a
//! reference, **interleaved by partition**: rows are ordered by (m-mer
//! slot, partition, tag), the rows of one k-mer in ascending
//! partition-offset order, and one prefix-sum table
//! `mini[slot · P + p]` bounds partition `p`'s sub-bucket of a slot. The
//! `P` sub-buckets of a slot are contiguous, so the **sparse pass**
//! ([`lookup_sparse_into`](PreSeedingFilter::lookup_sparse_into)) looks
//! a k-mer up in every partition at once: it reads the slot's `P + 1`
//! mini-index entries (one or two lines), books every partition's
//! activity from them, scans the slot's rows (a few lines) once with the
//! tag compare, and keeps only the hits — as the hardware powers only the
//! rows between the pointers. Each partition still behaves exactly like
//! its own filter — same indicators, same [`FilterStats`], same fault
//! sites — and `P = 1` is the single-partition layout word for word.
//!
//! With the bookkeeping gone the pass is bound by memory, and over tables
//! of 100 MB (an 8 Mb reference holds a 32 MB mini index and 64 MB of
//! rows) a miss on 4 KB pages is usually a TLB miss too. A build
//! therefore advises the kernel to back its tables with transparent huge
//! pages before writing them (per allocation, 2 MB-aligned interior only;
//! where the system's THP mode is `never` the advice does nothing).
//! Tables mapped from an index image are file-backed and get no advice.
//!
//! Because every k-mer of the partition is enumerated, the filter has **no
//! false positives and no misses** (unlike GenCache's bloom filter), and
//! its footprint is `O(4^m + n)` per partition — linear in `k`, which is
//! what lets CASA afford k = 19 where a dense index would need 4^19
//! entries.

use casa_genome::mix::{coin, site_hash};
use casa_genome::shared::{SharedSlice, SliceStore};
use casa_genome::PackedSeq;
use serde::{Deserialize, Serialize};

use crate::{SearchIndicator, TagLayout};

/// Filter geometry. Defaults are the paper's: k = 19, m = 10, 40-base CAM
/// entries, 20 CAM groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Full k-mer size looked up in the filter.
    pub k: usize,
    /// Prefix size handled by the mini index table.
    pub m: usize,
    /// Computing-CAM entry size in bases (start-mask width).
    pub stride: usize,
    /// Number of computing-CAM groups (group-indicator width).
    pub groups: usize,
}

impl Default for FilterConfig {
    fn default() -> FilterConfig {
        FilterConfig {
            k: 19,
            m: 10,
            stride: 40,
            groups: 20,
        }
    }
}

impl FilterConfig {
    /// Validates and creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `m >= k`, `k > 32`, `k − m > 16` (the tag must fit 32
    /// bits), `stride > 64`, or `groups > 32`.
    pub fn new(k: usize, m: usize, stride: usize, groups: usize) -> FilterConfig {
        let cfg = FilterConfig {
            k,
            m,
            stride,
            groups,
        };
        cfg.validate();
        cfg
    }

    fn validate(&self) {
        assert!(self.m >= 1 && self.m < self.k, "need 1 <= m < k");
        assert!(self.k <= 32, "k must fit a 64-bit code");
        assert!(
            self.k - self.m <= 16,
            "the (k - m)-mer tag must fit 32 bits (k - m <= 16)"
        );
        assert!(self.stride <= 64, "stride must fit the start mask");
        assert!(
            self.groups >= 1 && self.groups <= 32,
            "groups must fit the indicator"
        );
    }

    /// A small geometry for unit tests and examples.
    pub fn small(k: usize, m: usize) -> FilterConfig {
        FilterConfig::new(k, m, 8, 4)
    }
}

/// Activity counters of the filter (inputs to the energy model).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// k-mer lookups issued.
    pub lookups: u64,
    /// Mini index table reads (one per lookup).
    pub mini_index_reads: u64,
    /// Tag-CAM searches issued (one per lookup with a non-empty bucket).
    pub tag_searches: u64,
    /// Tag-CAM logical rows powered across all searches (range gating
    /// makes this the bucket size, not the array size).
    pub tag_rows_enabled: u64,
    /// Physical 72-bit rows activated under the §5 four-subword packing
    /// (what the energy model charges).
    pub tag_physical_rows: u64,
    /// Data-array rows read (one per matching tag row).
    pub data_reads: u64,
    /// Lookups that found the k-mer.
    pub hits: u64,
}

impl FilterStats {
    /// Adds another snapshot into this one.
    pub fn merge(&mut self, other: &FilterStats) {
        self.lookups += other.lookups;
        self.mini_index_reads += other.mini_index_reads;
        self.tag_searches += other.tag_searches;
        self.tag_rows_enabled += other.tag_rows_enabled;
        self.tag_physical_rows += other.tag_physical_rows;
        self.data_reads += other.data_reads;
        self.hits += other.hits;
    }
}

/// Seeded fault model for a filter's data array (SRAM bit flips).
///
/// Site selection hashes `(seed, row)` with
/// [`casa_genome::mix::site_hash`], so the same model always corrupts the
/// same rows. Each faulty row has one bit of its indicator's start mask
/// flipped: clearing a set bit silently hides an occurrence (a wrong-SMEM
/// hazard the sampled cross-check exists to catch), setting a clear bit
/// only triggers a spurious — and harmless — CAM search. The row's offset
/// and tag are never touched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FilterFaultModel {
    /// Seed for site selection.
    pub seed: u64,
    /// Per-data-row probability of a start-mask bit flip.
    pub flip_rate: f64,
}

/// The concrete rows a [`FilterFaultModel`] corrupted, sorted ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterFaultReport {
    /// Data-array rows with a flipped start-mask bit.
    pub rows: Vec<u32>,
}

impl FilterFaultReport {
    /// Total number of injected fault sites.
    pub fn sites(&self) -> usize {
        self.rows.len()
    }
}

/// One hit of a sparse pass ([`PreSeedingFilter::lookup_sparse_into`]):
/// a code whose tag matched rows of a partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilterHit {
    /// The code's index within its group — a read's pivot.
    pub code: u32,
    /// The OR of the matching rows' indicators. Empty only when data-array
    /// faults cleared every start bit, which the pivot then dies of.
    pub indicator: SearchIndicator,
}

/// Rows `lo..hi` of a filter's table: one partition's sub-bucket of an
/// m-mer slot, i.e. the k-mer occurrences whose first `m` bases are that
/// m-mer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubBucket {
    /// First row.
    pub lo: u32,
    /// One past the last row.
    pub hi: u32,
}

impl SubBucket {
    /// Rows in the sub-bucket.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the sub-bucket holds no row.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

/// Where one m-mer occurs in one partition, as its sub-bucket records it
/// ([`PreSeedingFilter::occurrences`]): the offset of every row, which is
/// every occurrence starting a k-mer — all but those at or past
/// [`tail`](Self::tail), the last `k − 1` offsets, which have no row.
#[derive(Clone, Copy, Debug)]
pub struct Occurrences<'a> {
    rows: &'a [u64],
    m: usize,
    tail: usize,
}

impl<'a> Occurrences<'a> {
    /// The rows' partition offsets, in (tag, offset) order.
    pub fn offsets(&self) -> impl Iterator<Item = usize> + 'a {
        self.rows.iter().map(|&row| row_offset(row))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the sub-bucket holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The m-mer's length `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The first partition offset that starts no k-mer (the partition's
    /// length − k + 1, or 0): an occurrence there or later has no row.
    pub fn tail(&self) -> usize {
        self.tail
    }
}

/// What one sparse pass found over codes in consecutive groups: each
/// partition's hits, in ascending code order and bounded per group, and
/// each group's activity per partition. Reused across passes, it keeps
/// its buffers' capacity.
#[derive(Clone, Debug, Default)]
pub struct SparsePass {
    /// Partitions the pass covered; 0 before any pass.
    parts: usize,
    /// `hits[p]`: partition `p`'s hits, group after group.
    hits: Vec<Vec<FilterHit>>,
    /// `starts[g · P + p]..starts[(g + 1) · P + p]` bounds group `g`'s
    /// hits in `hits[p]`.
    starts: Vec<u32>,
    /// `stats[g · P + p]`: group `g`'s activity in partition `p`.
    stats: Vec<FilterStats>,
}

impl SparsePass {
    /// Drops any previous pass, keeping the buffers, for a pass over
    /// `parts` partitions.
    fn reset(&mut self, parts: usize) {
        self.parts = parts;
        self.hits.resize_with(parts, Vec::new);
        for hits in &mut self.hits {
            hits.clear();
        }
        self.starts.clear();
        self.starts.resize(parts, 0);
        self.stats.clear();
    }

    /// Forgets the pass, keeping the buffers: [`hits`](Self::hits) and
    /// [`stats`](Self::stats) panic until the next one.
    pub fn clear(&mut self) {
        self.reset(0);
    }

    /// Group `group`'s hits in partition `part`, in ascending code order.
    ///
    /// # Panics
    ///
    /// Panics if the pass covered no such group or partition.
    pub fn hits(&self, group: usize, part: usize) -> &[FilterHit] {
        assert!(part < self.parts, "the pass covered no partition {part}");
        let at = group * self.parts + part;
        &self.hits[part][self.starts[at] as usize..self.starts[at + self.parts] as usize]
    }

    /// Group `group`'s activity in partition `part`: exactly the
    /// [`FilterStats`] of looking its codes up one by one there.
    ///
    /// # Panics
    ///
    /// As [`hits`](Self::hits).
    pub fn stats(&self, group: usize, part: usize) -> &FilterStats {
        assert!(part < self.parts, "the pass covered no partition {part}");
        &self.stats[group * self.parts + part]
    }
}

/// Sparse-pass stage 1: starts fetching the mini-index entries of the
/// slot whose first entry is `first` (they can straddle a line boundary).
#[inline(always)]
fn prefetch_slot(mini: &[u32], first: usize, parts: usize) {
    prefetch(&mini[first]);
    prefetch(&mini[first + parts]);
}

/// Sparse-pass stage 2: reads the mini-index entries of the slot whose
/// first entry is `first` and starts fetching the lines of its rows over
/// all partitions.
#[inline(always)]
fn prefetch_rows(mini: &[u32], table: &[u64], first: usize, parts: usize) {
    let (lo, hi) = (mini[first] as usize, mini[first + parts] as usize);
    if lo != hi {
        for row in (lo..hi)
            .step_by(ROWS_PER_LINE)
            .take(PreSeedingFilter::PREFETCH_ROW_LINES)
        {
            prefetch(&table[row]);
        }
        prefetch(&table[hi - 1]);
    }
}

/// One partition's range-gating activity over a group of codes, booked
/// from its sub-bucket sizes alone; `u64`, since a group's summed sizes
/// can exceed `u32` in a large repetitive partition.
#[derive(Clone, Copy, Default)]
struct GateLane {
    /// Tag searches: codes whose sub-bucket is not empty.
    searches: u64,
    /// Logical rows powered: the summed sub-bucket sizes.
    enabled: u64,
    /// Physical rows activated: each size capped at `gap` (§5 packing).
    physical: u64,
    /// The partition's [`TagLayout::address_gap`].
    gap: u64,
}

impl GateLane {
    #[inline(always)]
    fn book(&mut self, size: u32) {
        let size = u64::from(size);
        self.searches += u64::from(size != 0);
        self.enabled += size;
        self.physical += size.min(self.gap);
    }

    /// The booked (searches, enabled, physical) counts, reset to zero.
    fn take(&mut self) -> (u64, u64, u64) {
        let counts = (self.searches, self.enabled, self.physical);
        (self.searches, self.enabled, self.physical) = (0, 0, 0);
        counts
    }
}

/// Hints the CPU to start loading the cache line holding `*r` into all
/// cache levels without waiting for it. A no-op off x86_64.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch never faults and writes nothing; `r` is a valid reference.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// The transparent huge page size of x86_64 and aarch64 Linux.
const HUGE_PAGE: usize = 2 << 20;

/// The 2 MB-aligned interior of the `len` bytes at `addr`, as
/// `(start, len)`: the whole huge pages inside the range, or `None` when
/// it holds none — always below 2 MB, so a small allocation is never
/// split.
fn huge_page_range(addr: usize, len: usize) -> Option<(usize, usize)> {
    if len < HUGE_PAGE {
        return None;
    }
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (end > start).then(|| (start, end - start))
}

/// Advises the kernel to back the interior of `buf` with transparent huge
/// pages ([`huge_page_range`]), before its first write: a filter pass
/// touches lines all over the ~100 MB tables, and with 4 KB pages most of
/// them also miss the TLB. Advice only — errors are ignored, and where
/// the system's THP mode is `never` it does nothing. A no-op off Linux.
#[allow(unsafe_code)]
fn advise_huge_pages<T>(buf: &mut [T]) {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::c_void;
        const MADV_HUGEPAGE: i32 = 14;
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        }
        if let Some((start, len)) = huge_page_range(buf.as_mut_ptr() as usize, size_of_val(buf)) {
            // SAFETY: the range lies inside `buf`, which this thread
            // borrows mutably; MADV_HUGEPAGE changes how its pages are
            // backed, never their contents.
            unsafe { madvise(start as *mut c_void, len, MADV_HUGEPAGE) };
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = buf;
}

const DOMAIN_FILTER_FLIP: u64 = 0x21;

/// Rows per 64-byte cache line.
const ROWS_PER_LINE: usize = 64 / size_of::<u64>();

/// One tag/data row: the occurrence's partition offset `x` and its
/// `(k − m)`-mer tag, `x | tag << 32`.
fn pack_row(tag: u32, x: usize) -> u64 {
    x as u64 | u64::from(tag) << 32
}

fn row_tag(row: u64) -> u32 {
    (row >> 32) as u32
}

fn row_offset(row: u64) -> usize {
    row as u32 as usize
}

/// The data-array faults of a filter, as a sparse overlay on its rows'
/// indicators: `(row, start-mask XOR)` pairs sorted by row, none zero.
#[derive(Clone, Debug, Default)]
struct FaultOverlay(Vec<(u32, u64)>);

impl FaultOverlay {
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The start-mask bits flipped in row `row`'s indicator.
    fn xor(&self, row: usize) -> u64 {
        self.0
            .binary_search_by_key(&row, |&(r, _)| r as usize)
            .map_or(0, |i| self.0[i].1)
    }

    /// Flips `flips`' bits on top of the overlay's.
    fn flip(&mut self, flips: &[(u32, u64)]) {
        self.0.extend_from_slice(flips);
        self.0.sort_by_key(|&(r, _)| r);
        self.0.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 ^= later.1;
            }
            same
        });
        self.0.retain(|&(_, xor)| xor != 0);
    }
}

/// Rows (k-mer occurrences) of a partition of `len` bases.
fn partition_rows(len: usize, k: usize) -> usize {
    (len + 1).saturating_sub(k)
}

/// A reference whose filter would hold more rows than the `u32` mini
/// index can address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilterTooLarge {
    /// The row (k-mer occurrence) count the partitions would need.
    pub rows: u64,
}

impl std::fmt::Display for FilterTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "the pre-seeding filter would hold {} k-mer rows; its u32 mini index addresses at most {}",
            self.rows,
            u32::MAX
        )
    }
}

impl std::error::Error for FilterTooLarge {}

/// Occurrences a build pass gathers before touching the tables, which it
/// then updates in a software pipeline so their cache misses overlap.
const BUILD_BATCH: usize = 256;

/// Pipeline distance of the build passes, in occurrences.
const BUILD_AHEAD: usize = 32;

/// One k-mer occurrence met by a build pass.
#[derive(Clone, Copy, Default)]
struct Occurrence {
    /// Its sub-bucket, counted from the pass's first slot.
    bucket: usize,
    /// Its offset in its partition.
    offset: usize,
    /// Its `(k − m)`-mer tag.
    tag: u32,
}

/// Feeds `flush` every k-mer occurrence of `partitions` whose m-mer slot
/// lies in `first..first + range`, in batches of at most
/// [`BUILD_BATCH`], in partition then offset order.
fn scan_slots(
    partitions: &[&PackedSeq],
    config: FilterConfig,
    first: usize,
    range: usize,
    mut flush: impl FnMut(&[Occurrence]),
) {
    let rest_bits = 2 * (config.k - config.m);
    let tag_mask = (1u64 << rest_bits) - 1;
    let mut batch = [Occurrence::default(); BUILD_BATCH];
    let mut n = 0;
    for (p, part) in partitions.iter().enumerate() {
        for (offset, code) in part.kmers(config.k) {
            // Branch-free: a thread keeps about 1/T of the codes, a branch
            // on that mispredicts too often.
            let slot = ((code >> rest_bits) as usize).wrapping_sub(first);
            batch[n] = Occurrence {
                bucket: slot.wrapping_mul(partitions.len()).wrapping_add(p),
                offset,
                tag: (code & tag_mask) as u32,
            };
            n += usize::from(slot < range);
            if n == BUILD_BATCH {
                flush(&batch);
                n = 0;
            }
        }
    }
    flush(&batch[..n]);
}

/// Runs `job` on every item, on scoped threads when there is more than
/// one item, and returns the results in item order.
fn run_each<T: Send, R: Send>(items: Vec<T>, job: impl Fn(T) -> R + Sync) -> Vec<R> {
    if items.len() <= 1 {
        return items.into_iter().map(job).collect();
    }
    std::thread::scope(|scope| {
        let job = &job;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || job(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// The pre-seeding filter of a reference's partitions, interleaved by
/// partition (see the module docs).
///
/// Lookups only read the tables; each books its activity into the
/// caller's [`FilterStats`], so any number of threads can look up one
/// filter at once. Per-partition calls take the partition index `part`.
///
/// ```
/// use casa_genome::PackedSeq;
/// use casa_filter::{FilterConfig, FilterStats, PreSeedingFilter};
///
/// let part = PackedSeq::from_ascii(b"ACGTACGTTTGGAACCAGTC")?;
/// let filter = PreSeedingFilter::build(&part, FilterConfig::small(6, 3));
/// let mut stats = FilterStats::default();
/// let read = PackedSeq::from_ascii(b"GTACGT")?;
/// let si = filter.lookup(0, &read, 0, &mut stats).expect("read long enough");
/// assert!(!si.is_empty()); // GTACGT occurs at partition offset 2
/// let miss = PackedSeq::from_ascii(b"GGGGGG")?;
/// assert!(filter.lookup(0, &miss, 0, &mut stats).unwrap().is_empty());
/// assert_eq!(stats.lookups, 2);
/// # Ok::<(), casa_genome::ParseBaseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct PreSeedingFilter {
    config: FilterConfig,
    /// `mini_index[slot · P + p] .. mini_index[slot · P + p + 1]` bounds
    /// partition `p`'s sub-bucket of m-mer `slot`. Owned when built in
    /// process, shared when loaded from an index image (likewise `rows`).
    mini_index: SliceStore<u32>,
    /// Tag/data rows, one word each (see the module docs), sorted by
    /// (m-mer, partition, tag, offset).
    rows: SliceStore<u64>,
    /// Each partition's length in bases.
    partition_lens: Vec<usize>,
    /// Each partition's §5 physical packing of its tag array.
    layouts: Vec<TagLayout>,
    /// Injected data-array faults (see [`FaultOverlay`]).
    faults: FaultOverlay,
}

impl PreSeedingFilter {
    /// Builds the filter of one partition (the offline step of §4.1):
    /// [`build_partitions`](Self::build_partitions) with `P = 1` on one
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics with [`FilterTooLarge`]'s message if the partition holds
    /// more than `u32::MAX` k-mers.
    pub fn build(partition: &PackedSeq, config: FilterConfig) -> PreSeedingFilter {
        PreSeedingFilter::build_partitions(&[partition], config, 1)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The filter's row count for partitions of `partition_lens` bases:
    /// one row per k-mer occurrence.
    ///
    /// # Errors
    ///
    /// [`FilterTooLarge`] if the count exceeds `u32::MAX`, the largest
    /// offset the mini index holds.
    pub fn table_rows(partition_lens: &[usize], k: usize) -> Result<u32, FilterTooLarge> {
        let rows: u64 = partition_lens
            .iter()
            .map(|&len| partition_rows(len, k) as u64)
            .sum();
        u32::try_from(rows).map_err(|_| FilterTooLarge { rows })
    }

    /// Builds one filter over every partition, on up to `threads` threads
    /// (the offline step of §4.1).
    ///
    /// Two passes over the rolling k-mer codes: the first counts each
    /// (m-mer, partition) sub-bucket into the mini index, the second
    /// scatters every occurrence's row to its sub-bucket's cursor. Sorting
    /// each sub-bucket's words then orders its rows by (tag, offset), so
    /// the rows of one k-mer are in ascending offset order — what a stable
    /// sort by tag of the rows in scatter (offset) order gives. Each thread
    /// owns a contiguous range of m-mer slots — its share of the mini
    /// index and of the row table — and scans every partition, keeping
    /// the codes that fall in its range, so the tables are written in
    /// place with no buffer beyond themselves.
    ///
    /// # Errors
    ///
    /// [`FilterTooLarge`] if the partitions hold more than `u32::MAX`
    /// k-mers between them.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty or `config` is invalid (see
    /// [`FilterConfig::new`]).
    pub fn build_partitions(
        partitions: &[&PackedSeq],
        config: FilterConfig,
        threads: usize,
    ) -> Result<PreSeedingFilter, FilterTooLarge> {
        config.validate();
        assert!(
            !partitions.is_empty(),
            "a filter needs at least one partition"
        );
        let lens: Vec<usize> = partitions.iter().map(|p| p.len()).collect();
        let total = PreSeedingFilter::table_rows(&lens, config.k)? as usize;
        let parts = partitions.len();
        let slots = 1usize << (2 * config.m);
        let span = slots.div_ceil(threads.clamp(1, slots)) * parts;
        let mut mini = vec![0u32; slots * parts + 1];
        advise_huge_pages(&mut mini);
        mini[slots * parts] = total as u32;
        // Each thread's range of slots: its first slot and its entries.
        fn ranges(entries: &mut [u32], span: usize, parts: usize) -> Vec<(usize, &mut [u32])> {
            entries
                .chunks_mut(span)
                .enumerate()
                .map(|(t, chunk)| (t * span / parts, chunk))
                .collect()
        }
        let buckets = slots * parts;

        // Pass 1: count each sub-bucket of the range, then turn the
        // counts into starts relative to the range's first row.
        let range_rows = run_each(
            ranges(&mut mini[..buckets], span, parts),
            |(first, counts)| {
                scan_slots(partitions, config, first, counts.len() / parts, |batch| {
                    for o in batch.iter().take(BUILD_AHEAD) {
                        prefetch(&counts[o.bucket]);
                    }
                    for (i, o) in batch.iter().enumerate() {
                        if let Some(ahead) = batch.get(i + BUILD_AHEAD) {
                            prefetch(&counts[ahead.bucket]);
                        }
                        counts[o.bucket] += 1;
                    }
                });
                let mut start = 0;
                for c in counts.iter_mut() {
                    (*c, start) = (start, start + *c);
                }
                start as usize
            },
        );

        // Pass 2: each range's rows follow the rows of the ranges before
        // it; the relative starts are the scatter cursors.
        let mut words = vec![0u64; total];
        advise_huge_pages(&mut words);
        let mut jobs = Vec::new();
        let (mut rows, mut base) = (&mut words[..], 0);
        for ((first, cursors), len) in ranges(&mut mini[..buckets], span, parts)
            .into_iter()
            .zip(range_rows)
        {
            let (mine, rest) = std::mem::take(&mut rows).split_at_mut(len);
            jobs.push((first, cursors, mine, base as u32));
            (rows, base) = (rest, base + len);
        }
        run_each(jobs, |(first, cursors, rows, base)| {
            scan_slots(partitions, config, first, cursors.len() / parts, |batch| {
                // A two-stage pipeline as in the lookup pass: the cursor of
                // occurrence i + 2D and the row occurrence i + D will
                // fill are in flight while occurrence i is written.
                const D: usize = BUILD_AHEAD;
                for o in batch.iter().take(2 * D) {
                    prefetch(&cursors[o.bucket]);
                }
                for o in batch.iter().take(D) {
                    prefetch(&rows[cursors[o.bucket] as usize]);
                }
                for (i, o) in batch.iter().enumerate() {
                    if let Some(ahead) = batch.get(i + 2 * D) {
                        prefetch(&cursors[ahead.bucket]);
                    }
                    if let Some(ahead) = batch.get(i + D) {
                        prefetch(&rows[cursors[ahead.bucket] as usize]);
                    }
                    let cursor = &mut cursors[o.bucket];
                    rows[*cursor as usize] = pack_row(o.tag, o.offset);
                    *cursor += 1;
                }
            });
            // Each cursor now sits on its sub-bucket's end: sort each
            // sub-bucket by (tag, offset), then store its absolute start.
            let mut start = 0;
            for cursor in cursors.iter_mut() {
                let end = *cursor;
                if end - start > 1 {
                    rows[start as usize..end as usize].sort_unstable();
                }
                *cursor = base + start;
                start = end;
            }
        });
        Ok(PreSeedingFilter::assemble(
            config,
            mini.into(),
            words.into(),
            lens,
        ))
    }

    fn assemble(
        config: FilterConfig,
        mini_index: SliceStore<u32>,
        rows: SliceStore<u64>,
        partition_lens: Vec<usize>,
    ) -> PreSeedingFilter {
        let layouts = partition_lens
            .iter()
            .map(|&len| TagLayout::paper(partition_rows(len, config.k).max(1)))
            .collect();
        PreSeedingFilter {
            config,
            mini_index,
            rows,
            partition_lens,
            layouts,
            faults: FaultOverlay::default(),
        }
    }

    /// Reassembles a filter from prebuilt tables — the zero-copy
    /// image-loading path. `rows` holds the rows, one `u64` word each, as
    /// [`row_words`](Self::row_words) returns them;
    /// `partition_lens` the partitions' lengths in bases. Behaves exactly
    /// like the filter [`build_partitions`](Self::build_partitions) would
    /// produce for the same partitions and config.
    ///
    /// Fails (typed message) on any shape mismatch between the tables and
    /// the partition lengths.
    pub fn from_shared_parts(
        config: FilterConfig,
        mini_index: SharedSlice<u32>,
        rows: SharedSlice<u64>,
        partition_lens: &[usize],
    ) -> Result<PreSeedingFilter, &'static str> {
        config.validate();
        if partition_lens.is_empty() {
            return Err("filter has no partitions");
        }
        let buckets = (1usize << (2 * config.m)) * partition_lens.len();
        let mini = mini_index.as_slice();
        if mini.len() != buckets + 1 {
            return Err("filter mini index has the wrong length for m and the partition count");
        }
        let words = rows.as_slice().len();
        if mini[buckets] as usize != words {
            return Err("filter mini index total disagrees with the row count");
        }
        let total = PreSeedingFilter::table_rows(partition_lens, config.k)
            .map_err(|_| "filter row count exceeds what the u32 mini index addresses")?;
        if total as usize != words {
            return Err("filter row count disagrees with the partition lengths");
        }
        Ok(PreSeedingFilter::assemble(
            config,
            mini_index.into(),
            rows.into(),
            partition_lens.to_vec(),
        ))
    }

    /// The mini-index prefix sums, `4^m · P + 1` entries (the image
    /// writer persists these).
    pub fn mini_index(&self) -> &[u32] {
        self.mini_index.as_slice()
    }

    /// The row table, one word per row: `x | tag << 32` (the image writer
    /// persists these).
    pub fn row_words(&self) -> &[u64] {
        self.rows.as_slice()
    }

    /// Consumes the filter, handing over its [`mini_index`](Self::mini_index)
    /// and [`row_words`](Self::row_words) tables — uncopied when owned,
    /// copied out of a shared backing — so the image writer can persist
    /// them without a second copy beside the filter.
    pub fn into_tables(mut self) -> (Vec<u32>, Vec<u64>) {
        (
            std::mem::take(self.mini_index.to_mut()),
            std::mem::take(self.rows.to_mut()),
        )
    }

    /// Number of partitions `P`.
    pub fn partitions(&self) -> usize {
        self.partition_lens.len()
    }

    /// Each partition's length in bases.
    pub fn partition_lens(&self) -> &[usize] {
        &self.partition_lens
    }

    /// Whether the tables are backed by shared (mapped) storage. Fault
    /// injection leaves them as they are.
    pub fn tables_shared(&self) -> bool {
        self.mini_index.is_shared() && self.rows.is_shared()
    }

    /// The filter's geometry.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Number of tag/data rows (k-mer occurrences) over all partitions.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Partition `part`'s §5 physical packing of its tag array.
    pub fn layout(&self, part: usize) -> &TagLayout {
        &self.layouts[part]
    }

    /// Splits a k-mer code into its m-mer slot and its `(k − m)`-mer tag.
    fn slot_and_tag(&self, code: u64) -> (usize, u32) {
        let rest_bits = 2 * (self.config.k - self.config.m);
        (
            (code >> rest_bits) as usize,
            (code & ((1u64 << rest_bits) - 1)) as u32,
        )
    }

    /// Looks up the k-mer starting at `read[pivot..]` in partition `part`.
    ///
    /// Returns `None` if the read is too short to host a k-mer at `pivot`;
    /// otherwise the OR of the indicators of all matching occurrences
    /// ([`SearchIndicator::EMPTY`] when the k-mer is absent — the pivot is
    /// then filterable).
    pub fn lookup(
        &self,
        part: usize,
        read: &PackedSeq,
        pivot: usize,
        stats: &mut FilterStats,
    ) -> Option<SearchIndicator> {
        let code = read.kmer_code(pivot, self.config.k)?;
        Some(self.lookup_code(part, code, stats))
    }

    /// Looks up a pre-computed k-mer code in partition `part`: one
    /// mini-index read, and for a non-empty sub-bucket one range-gated tag
    /// search powering it whole plus a data read per matching row.
    pub fn lookup_code(&self, part: usize, code: u64, stats: &mut FilterStats) -> SearchIndicator {
        let tag = self.slot_and_tag(code).1;
        let bucket = self.sub_bucket(part, code);
        stats.lookups += 1;
        stats.mini_index_reads += 1;
        if bucket.is_empty() {
            return SearchIndicator::EMPTY;
        }
        stats.tag_searches += 1;
        stats.tag_rows_enabled += bucket.len() as u64;
        stats.tag_physical_rows += self.layouts[part].physical_rows(bucket.len()) as u64;
        let (reads, si) = self.match_bucket(bucket, tag);
        stats.data_reads += reads;
        if !si.is_empty() {
            stats.hits += 1;
        }
        si
    }

    /// Partition `part`'s sub-bucket of the m-mer slot of k-mer code
    /// `code` (one mini-index read, booked nowhere).
    pub fn sub_bucket(&self, part: usize, code: u64) -> SubBucket {
        let bucket = self.slot_and_tag(code).0 * self.partitions() + part;
        let mini = self.mini_index.as_slice();
        SubBucket {
            lo: mini[bucket],
            hi: mini[bucket + 1],
        }
    }

    /// The occurrences recorded by `bucket`, a sub-bucket of partition
    /// `part` ([`sub_bucket`](Self::sub_bucket)).
    /// A read of the rows' offsets only: no indicator, no activity.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` lies beyond the table or `part` beyond the
    /// partitions.
    pub fn occurrences(&self, part: usize, bucket: SubBucket) -> Occurrences<'_> {
        Occurrences {
            rows: &self.rows[bucket.lo as usize..bucket.hi as usize],
            m: self.config.m,
            tail: partition_rows(self.partition_lens[part], self.config.k),
        }
    }

    /// The indicator of row `row`, whose word is `word`: its occurrence's
    /// ([`SearchIndicator::of_occurrence`]) with any injected faults
    /// applied.
    #[inline(always)]
    fn indicator(&self, row: usize, word: u64) -> SearchIndicator {
        let mut si = SearchIndicator::of_occurrence(
            row_offset(word),
            self.config.stride,
            self.config.groups,
        );
        if !self.faults.is_empty() {
            si.start_mask ^= self.faults.xor(row);
        }
        si
    }

    /// The rows of a tag-sorted sub-bucket whose tag is `tag`: how many
    /// there are (each a data read) and the OR of their indicators. The
    /// one matcher of per-code lookups and of the sparse pass's bisected
    /// slots.
    #[inline(always)]
    fn match_bucket(&self, bucket: SubBucket, tag: u32) -> (u64, SearchIndicator) {
        let (lo, hi) = (bucket.lo as usize, bucket.hi as usize);
        let first = lo + self.rows[lo..hi].partition_point(|&r| row_tag(r) < tag);
        let mut si = SearchIndicator::EMPTY;
        let mut reads = 0;
        for (row, &word) in (first..).zip(self.rows[first..hi].iter()) {
            if row_tag(word) != tag {
                break;
            }
            reads += 1;
            si.merge(self.indicator(row, word));
        }
        (reads, si)
    }

    /// Pipeline distance `D` of the sparse pass, in codes. While code `i`
    /// is looked up, the rows of code `i + D`'s slot and the mini-index
    /// entries of code `i + 2D` are in flight. Tuned with interleaved
    /// runs; a constant, not a knob.
    const LOOKUP_AHEAD: usize = 8;

    /// Row lines prefetched per slot at most: a slot's rows over all
    /// partitions rarely span more.
    const PREFETCH_ROW_LINES: usize = 4;

    /// Most rows a slot may hold, over all partitions, for the sparse pass
    /// to scan it whole; a larger slot (poly-A, tandem repeats) is
    /// bisected per partition instead, as [`lookup_code`](Self::lookup_code)
    /// does, so the pass's worst case is the per-code lookup's.
    const SCAN_ROWS: usize = 32;

    /// Looks up a batch of pre-computed k-mer codes in every partition,
    /// filling `out` (cleared first) with one indicator per (partition,
    /// code) — partition-major, `out[p · codes.len() + i]` — and
    /// returning the batch's activity summed over the partitions. With
    /// `P = 1` that is one indicator per code.
    ///
    /// Same indicators and [`FilterStats`] as calling
    /// [`lookup_code`](Self::lookup_code) per partition and code: the
    /// sparse pass ([`lookup_sparse_into`](Self::lookup_sparse_into))
    /// with its hits scattered into a dense table.
    pub fn lookup_codes_into(&self, codes: &[u64], out: &mut Vec<SearchIndicator>) -> FilterStats {
        let mut pass = SparsePass::default();
        self.lookup_sparse_into(codes, &[0, codes.len()], &mut pass);
        let n = codes.len();
        out.clear();
        out.resize(self.partitions() * n, SearchIndicator::EMPTY);
        for p in 0..self.partitions() {
            for hit in pass.hits(0, p) {
                out[p * n + hit.code as usize] = hit.indicator;
            }
        }
        pass.stats
            .iter()
            .fold(FilterStats::default(), |mut sum, s| {
                sum.merge(s);
                sum
            })
    }

    /// The sparse pre-seeding pass: looks a batch of pre-computed k-mer
    /// codes, in consecutive groups (a tile's reads), up in every
    /// partition at once, and keeps only what matched. Group `g` holds
    /// `codes[bounds[g]..bounds[g + 1]]` (`bounds` starts at 0 and ends at
    /// `codes.len()`). `pass` (cleared first) receives, per group and
    /// partition, a [`FilterHit`] for every code whose tag matched a row
    /// of the partition, in ascending code order, and the group's
    /// activity in the partition.
    ///
    /// Per code, the pass reads the slot's `P + 1` mini-index entries once
    /// and books every partition's tag search, enabled rows and physical
    /// rows from the sub-bucket sizes; it then scans the slot's rows once,
    /// across all partitions, with the tag compare (a slot of more than
    /// 32 rows is bisected per partition instead, so a repeat costs no
    /// more than per-code lookups do).
    /// Lookups and mini-index reads are booked per group in bulk. The
    /// result is exactly what [`lookup_code`](Self::lookup_code) per
    /// partition and code gives — the hits are its non-empty indicators
    /// (plus any faulted match whose start bits were all cleared, which
    /// is a data read but no hit), the stats its [`FilterStats`] — but
    /// the work is bound by memory, not bookkeeping: a code costs two
    /// dependent misses, the mini-index entries of its slot and the
    /// slot's rows. At code `i` the pass prefetches the mini-index entries
    /// of code `i + 2D`, reads the (by now resident) entries of code
    /// `i + D` and prefetches its slot's rows, then scans code `i`'s slot,
    /// whose lines have had two stages to arrive, as the hardware overlaps
    /// its filter stages (paper Fig. 9). Prefetches never change what is
    /// read, only when.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` does not start at 0, end at `codes.len()` and
    /// never decrease, or if `codes` holds more than `u32::MAX` codes.
    pub fn lookup_sparse_into(&self, codes: &[u64], bounds: &[usize], pass: &mut SparsePass) {
        const D: usize = PreSeedingFilter::LOOKUP_AHEAD;
        assert!(
            bounds.first() == Some(&0) && bounds.last() == Some(&codes.len()) && bounds.is_sorted(),
            "group bounds must run from 0 to the code count"
        );
        assert!(
            u32::try_from(codes.len()).is_ok(),
            "too many codes for one pass"
        );
        let parts = self.partitions();
        pass.reset(parts);
        let (mini, table) = (self.mini_index.as_slice(), self.rows.as_slice());
        let first_entry = |code: u64| self.slot_and_tag(code).0 * parts;
        let mut lanes: Vec<GateLane> = self
            .layouts
            .iter()
            .map(|l| GateLane {
                gap: l.address_gap as u64,
                ..GateLane::default()
            })
            .collect();
        for &code in codes.iter().take(2 * D) {
            prefetch_slot(mini, first_entry(code), parts);
        }
        for &code in codes.iter().take(D) {
            prefetch_rows(mini, table, first_entry(code), parts);
        }
        for group in bounds.windows(2) {
            let booked = pass.stats.len();
            pass.stats.resize(booked + parts, FilterStats::default());
            let stats = &mut pass.stats[booked..];
            for i in group[0]..group[1] {
                if let Some(&ahead) = codes.get(i + 2 * D) {
                    prefetch_slot(mini, first_entry(ahead), parts);
                }
                if let Some(&ahead) = codes.get(i + D) {
                    prefetch_rows(mini, table, first_entry(ahead), parts);
                }
                let (slot, tag) = self.slot_and_tag(codes[i]);
                let sub = &mini[slot * parts..=(slot + 1) * parts];
                for (w, lane) in sub.windows(2).zip(&mut lanes) {
                    lane.book(w[1] - w[0]);
                }
                // Books partition `p`'s matching rows — how many were
                // read, the OR of their indicators — and emits the hit.
                let mut hit = |p: usize, reads: u64, indicator: SearchIndicator| {
                    stats[p].data_reads += reads;
                    stats[p].hits += u64::from(!indicator.is_empty());
                    pass.hits[p].push(FilterHit {
                        code: (i - group[0]) as u32,
                        indicator,
                    });
                };
                let (lo, hi) = (sub[0] as usize, sub[parts] as usize);
                if hi - lo <= Self::SCAN_ROWS {
                    // One scan over the slot; the rows of a partition's
                    // matches are contiguous, partitions in order.
                    let mut p = 0;
                    let mut run: Option<(usize, u64, SearchIndicator)> = None;
                    for (row, &word) in (lo..).zip(table[lo..hi].iter()) {
                        if row_tag(word) != tag {
                            continue;
                        }
                        while sub[p + 1] as usize <= row {
                            p += 1;
                        }
                        let si = self.indicator(row, word);
                        match &mut run {
                            Some((part, reads, merged)) if *part == p => {
                                *reads += 1;
                                merged.merge(si);
                            }
                            _ => {
                                if let Some((part, reads, si)) = run.replace((p, 1, si)) {
                                    hit(part, reads, si);
                                }
                            }
                        }
                    }
                    if let Some((part, reads, si)) = run {
                        hit(part, reads, si);
                    }
                } else {
                    for p in 0..parts {
                        let bucket = SubBucket {
                            lo: sub[p],
                            hi: sub[p + 1],
                        };
                        let (reads, si) = self.match_bucket(bucket, tag);
                        if reads > 0 {
                            hit(p, reads, si);
                        }
                    }
                }
            }
            let n = (group[1] - group[0]) as u64;
            for (p, (s, lane)) in stats.iter_mut().zip(&mut lanes).enumerate() {
                s.lookups = n;
                s.mini_index_reads = n;
                (s.tag_searches, s.tag_rows_enabled, s.tag_physical_rows) = lane.take();
                pass.starts.push(pass.hits[p].len() as u32);
            }
        }
    }

    /// Looks up only the m-mer prefix `code` in partition `part`: the OR
    /// of the indicators of every k-mer sharing it. Used by the
    /// exact-match pre-processing (§4.3), which aligns several
    /// non-overlapping m-mers before attempting a whole-read match.
    pub fn lookup_mmer_code(
        &self,
        part: usize,
        code: u64,
        stats: &mut FilterStats,
    ) -> SearchIndicator {
        let bucket = code as usize * self.partitions() + part;
        let mini = self.mini_index.as_slice();
        let (lo, hi) = (mini[bucket] as usize, mini[bucket + 1] as usize);
        stats.lookups += 1;
        stats.mini_index_reads += 1;
        let mut si = SearchIndicator::EMPTY;
        for (row, &word) in (lo..hi).zip(self.rows[lo..hi].iter()) {
            stats.data_reads += 1;
            si.merge(self.indicator(row, word));
        }
        if !si.is_empty() {
            stats.hits += 1;
        }
        si
    }

    /// Modelled on-chip footprint in bytes, summed over the partitions:
    /// per partition, mini index `4^m × 2 pointers`, tag `rows × 2(k−m)`
    /// bits, data `rows × (stride + groups)` bits. With the paper's
    /// geometry and a 4 M-base partition this reproduces the 45 MB figure
    /// (6 + 9 + 30).
    pub fn footprint_bytes(&self) -> u64 {
        let ptr_bits = 24u64; // paper Fig. 8: 48-bit mini-index entries (2 pointers)
        let mini = (1u64 << (2 * self.config.m)) * (2 * ptr_bits) / 8;
        let n: u64 = self.partition_lens.iter().map(|&len| len as u64).sum();
        let tag = n * (2 * (self.config.k - self.config.m) as u64) / 8;
        let data = n * ((self.config.stride + self.config.groups) as u64) / 8;
        mini * self.partitions() as u64 + tag + data
    }

    /// Injects seeded data-array corruption into partition `part` and
    /// returns the flipped rows, numbered partition-locally in (m-mer,
    /// tag) order — the rows of a filter built from that partition alone,
    /// so a model hits the same sites whatever else the filter holds.
    ///
    /// The corruption is silent: subsequent lookups simply return the
    /// corrupted indicators. Calling this again flips further bits on top
    /// of the existing ones. The flips go to the filter's fault overlay,
    /// never to the tables, so shared (mapped) tables stay shared.
    pub fn inject_faults(&mut self, part: usize, model: &FilterFaultModel) -> FilterFaultReport {
        let mut report = FilterFaultReport::default();
        if model.flip_rate <= 0.0 {
            return report;
        }
        let stride = self.config.stride as u64;
        let parts = self.partitions();
        let mini = self.mini_index.as_slice();
        let mut flips = Vec::new();
        let mut local = 0u32;
        for bucket in (part..mini.len() - 1).step_by(parts) {
            for row in mini[bucket]..mini[bucket + 1] {
                let h = site_hash(model.seed, &[DOMAIN_FILTER_FLIP, u64::from(local)]);
                if coin(h, model.flip_rate) {
                    // Reuse independent high hash bits to pick the flipped bit.
                    flips.push((row, 1 << ((h >> 32) % stride)));
                    report.rows.push(local);
                }
                local += 1;
            }
        }
        self.faults.flip(&flips);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_genome::synth::{generate_reference, ReferenceProfile};

    impl PreSeedingFilter {
        /// [`lookup_codes_into`](Self::lookup_codes_into) for codes in
        /// consecutive groups, booking group `g`'s activity in partition
        /// `p` in `stats[g · P + p]` (cleared first).
        fn lookup_grouped_into(
            &self,
            codes: &[u64],
            bounds: &[usize],
            out: &mut Vec<SearchIndicator>,
            stats: &mut Vec<FilterStats>,
        ) {
            let mut pass = SparsePass::default();
            self.lookup_sparse_into(codes, bounds, &mut pass);
            let n = codes.len();
            out.clear();
            out.resize(self.partitions() * n, SearchIndicator::EMPTY);
            for (g, &first) in bounds[..bounds.len() - 1].iter().enumerate() {
                for p in 0..self.partitions() {
                    for hit in pass.hits(g, p) {
                        out[p * n + first + hit.code as usize] = hit.indicator;
                    }
                }
            }
            stats.clear();
            stats.extend_from_slice(&pass.stats);
        }
    }

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes()).unwrap()
    }

    /// The same filter over shared (image-style) tables.
    fn shared_copy(filter: &PreSeedingFilter) -> PreSeedingFilter {
        use casa_genome::SliceView;
        use std::sync::Arc;
        fn share<T: Send + Sync + 'static>(v: Vec<T>) -> SharedSlice<T> {
            SharedSlice::new(Arc::new(v) as Arc<dyn SliceView<T>>)
        }
        PreSeedingFilter::from_shared_parts(
            *filter.config(),
            share(filter.mini_index().to_vec()),
            share(filter.row_words().to_vec()),
            filter.partition_lens(),
        )
        .unwrap()
    }

    #[test]
    fn batched_lookup_matches_per_code_lookup_including_stats() {
        // The batched pipeline must be observationally identical to
        // per-code lookup_code calls: same indicators in order, same
        // FilterStats deltas — the engine's modeled-activity figures
        // depend on it. Checked at the pipeline's edges (prologue only,
        // one stage, both stages, a full 101 bp read at k = 19) on owned
        // and shared tables, and on shared tables under a fault overlay
        // (which leaves them shared).
        let part = generate_reference(&ReferenceProfile::human_like(), 3_000, 23);
        let cfg = FilterConfig::small(8, 4);
        let built = PreSeedingFilter::build(&part, cfg);
        let shared = shared_copy(&built);
        let mut faulted = shared_copy(&built);
        let model = FilterFaultModel {
            seed: 3,
            flip_rate: 0.05,
        };
        assert!(faulted.inject_faults(0, &model).sites() > 0);
        assert!(shared.tables_shared() && faulted.tables_shared());

        // Present and absent codes interleaved, then repeats.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut codes: Vec<u64> = part
            .kmers(cfg.k)
            .step_by(7)
            .take(200)
            .flat_map(|(_, c)| [c, rng.gen_range(0..(1u64 << (2 * cfg.k)))])
            .collect();
        codes.extend_from_slice(&codes.clone()[..16]);

        const D: usize = PreSeedingFilter::LOOKUP_AHEAD;
        let lens = [0, 1, D - 1, D, 2 * D, 2 * D + 1, 101 - 19 + 1, codes.len()];
        for (name, filter) in [("built", built), ("shared", shared), ("faulted", faulted)] {
            // Stale garbage in `out` must be cleared; each length runs
            // twice on the same filter.
            let mut out = vec![SearchIndicator::EMPTY; 3];
            for len in lens.into_iter().chain(lens) {
                let batch = &codes[..len];
                let mut serial = FilterStats::default();
                let per_code: Vec<SearchIndicator> = batch
                    .iter()
                    .map(|&c| filter.lookup_code(0, c, &mut serial))
                    .collect();
                let batched = filter.lookup_codes_into(batch, &mut out);
                assert_eq!(out, per_code, "{name}: {len} codes");
                assert_eq!(batched, serial, "{name}: {len} codes");
            }
        }
    }

    #[test]
    fn sparse_pass_equals_per_code_lookups_including_stats() {
        // Oracle: lookup_code per partition and code. Each group's hits
        // in a partition are the codes that read a data row there, with
        // their indicators, in code order — the non-empty indicators plus
        // any match whose start bits a fault cleared — and its stats are
        // the summed per-code stats. A repetitive reference (a poly-A run,
        // as N runs under NPolicy::Replace(A) leave, and a tandem repeat)
        // makes slots too large to scan; partitions of unequal length; on
        // owned and shared tables, and shared tables under a fault
        // overlay; at the pipeline's edge lengths.
        let cfg = FilterConfig::small(9, 5);
        let rest_bits = 2 * (cfg.k - cfg.m);
        let mut reference = generate_reference(&ReferenceProfile::human_like(), 5_000, 19);
        reference.extend(seq(&"A".repeat(300)).iter());
        reference.extend(seq(&"ACGTTG".repeat(50)).iter());
        reference.extend(generate_reference(&ReferenceProfile::human_like(), 400, 20).iter());
        const D: usize = PreSeedingFilter::LOOKUP_AHEAD;
        let mut pass = SparsePass::default();
        for nparts in [1, 3, 8] {
            let cut = reference.len() / nparts;
            let parts: Vec<PackedSeq> = (0..nparts)
                .map(|p| {
                    let start = p * cut;
                    let len = if p + 1 == nparts {
                        reference.len() - start
                    } else {
                        cut + p * 7
                    };
                    reference.subseq(start, len.min(reference.len() - start))
                })
                .collect();
            let refs: Vec<&PackedSeq> = parts.iter().collect();
            let built = PreSeedingFilter::build_partitions(&refs, cfg, 2).unwrap();
            let shared = shared_copy(&built);
            let mut faulted = shared_copy(&built);
            for p in 0..nparts {
                let model = FilterFaultModel {
                    seed: 60 + p as u64,
                    flip_rate: 0.02,
                };
                faulted.inject_faults(p, &model);
            }
            assert!(shared.tables_shared() && faulted.tables_shared());
            // A row whose k-mer occurs once in its partition loses its
            // only start bit: a data read, but no hit.
            let (part, x, cleared) = parts
                .iter()
                .enumerate()
                .find_map(|(p, part)| {
                    let (x, code) = part.kmers(cfg.k).nth(40)?;
                    let once = part.kmers(cfg.k).filter(|&(_, c)| c == code).count() == 1;
                    once.then_some((p, x, code))
                })
                .expect("a k-mer that occurs once");
            let tag = faulted.slot_and_tag(cleared).1;
            let bucket = faulted.sub_bucket(part, cleared);
            let row = (bucket.lo..bucket.hi)
                .find(|&r| row_tag(faulted.row_words()[r as usize]) == tag)
                .expect("the k-mer's row");
            let start = faulted.indicator(row as usize, faulted.row_words()[row as usize]);
            faulted.faults.flip(&[(row, start.start_mask)]);
            assert!(faulted
                .lookup(part, &parts[part], x, &mut FilterStats::default())
                .unwrap()
                .is_empty());

            // Present and absent codes interleaved, the cleared k-mer, then
            // repeats and the poly-A k-mer.
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(nparts as u64);
            let mut codes: Vec<u64> = parts
                .iter()
                .flat_map(|part| part.kmers(cfg.k).step_by(11).map(|(_, c)| c))
                .flat_map(|c| [c, rng.gen_range(0..(1u64 << (2 * cfg.k)))])
                .collect();
            codes.insert(2 * D + 1, cleared);
            codes.extend_from_slice(&codes.clone()[..40]);
            codes.push(0); // poly-A
            let slot_rows = |c: u64| {
                let slot = (c >> rest_bits) as usize;
                built.mini_index()[(slot + 1) * nparts] - built.mini_index()[slot * nparts]
            };
            assert!(
                codes
                    .iter()
                    .any(|&c| slot_rows(c) as usize > PreSeedingFilter::SCAN_ROWS),
                "some slot must be bisected"
            );
            assert!(codes
                .iter()
                .any(|&c| (1..=PreSeedingFilter::SCAN_ROWS as u32).contains(&slot_rows(c))));

            let lens = [0, 1, D - 1, D, 2 * D, 2 * D + 1, 101 - 19 + 1, codes.len()];
            let mut cleared_seen = false;
            for (name, filter) in [
                ("built", &built),
                ("shared", &shared),
                ("faulted", &faulted),
            ] {
                for len in lens {
                    // An empty group in the middle; the rest uneven.
                    let bounds = [0, len / 3, len / 3, len];
                    filter.lookup_sparse_into(&codes[..len], &bounds, &mut pass);
                    for (g, w) in bounds.windows(2).enumerate() {
                        for p in 0..nparts {
                            let mut want = FilterStats::default();
                            let mut hits = Vec::new();
                            for (i, &code) in codes[w[0]..w[1]].iter().enumerate() {
                                let mut one = FilterStats::default();
                                let indicator = filter.lookup_code(p, code, &mut one);
                                if one.data_reads > 0 {
                                    hits.push(FilterHit {
                                        code: i as u32,
                                        indicator,
                                    });
                                }
                                want.merge(&one);
                            }
                            let at =
                                format!("{nparts} parts, {name}, {len} codes, group {g}, part {p}");
                            assert_eq!(pass.hits(g, p), &hits[..], "{at}");
                            assert_eq!(pass.stats(g, p), &want, "{at}");
                            cleared_seen |= hits.iter().any(|h| h.indicator.is_empty());
                        }
                    }
                }
            }
            assert!(cleared_seen, "{nparts} parts: the cleared row must be met");
        }
    }

    #[test]
    fn no_false_positives_no_misses() {
        // Exhaustive: every k-mer of the partition must hit; every absent
        // k-mer must miss. This is the property that distinguishes the
        // filter from a bloom filter (paper §4.1).
        let part = generate_reference(&ReferenceProfile::human_like(), 3_000, 21);
        let cfg = FilterConfig::small(8, 4);
        let filter = PreSeedingFilter::build(&part, cfg);
        let mut stats = FilterStats::default();
        // all present k-mers hit, with correct indicator bits
        for (x, code) in part.kmers(cfg.k) {
            let si = filter.lookup_code(0, code, &mut stats);
            assert!(!si.is_empty(), "k-mer at {x} missed");
            assert!(si.start_mask & (1 << (x % cfg.stride)) != 0);
            assert!(si.groups & (1 << ((x / cfg.stride) % cfg.groups)) != 0);
        }
        // random absent k-mers miss
        use std::collections::HashSet;
        let present: HashSet<u64> = part.kmers(cfg.k).map(|(_, c)| c).collect();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut tested = 0;
        while tested < 500 {
            let code = rng.gen_range(0..(1u64 << (2 * cfg.k)));
            if present.contains(&code) {
                continue;
            }
            assert!(
                filter.lookup_code(0, code, &mut stats).is_empty(),
                "false positive for {code}"
            );
            tested += 1;
        }
    }

    #[test]
    fn indicator_aggregates_all_occurrences() {
        // k-mer ACGTAC occurs at 0, 8 and 17 in this partition.
        let part = seq("ACGTACAAACGTACAAAACGTACA");
        let occs: Vec<usize> = (0..=part.len() - 6)
            .filter(|&x| part.subseq(x, 6) == seq("ACGTAC"))
            .collect();
        assert!(occs.len() >= 2);
        let cfg = FilterConfig::small(6, 3);
        let filter = PreSeedingFilter::build(&part, cfg);
        let si = filter
            .lookup(0, &seq("ACGTAC"), 0, &mut FilterStats::default())
            .unwrap();
        let mut expect = SearchIndicator::EMPTY;
        for &x in &occs {
            expect.merge(SearchIndicator::of_occurrence(x, cfg.stride, cfg.groups));
        }
        assert_eq!(si, expect);
    }

    #[test]
    fn stats_count_range_gated_rows() {
        let part = seq("AAAAAAAAAAAAAAAA"); // single bucket, many rows
        let cfg = FilterConfig::small(6, 3);
        let filter = PreSeedingFilter::build(&part, cfg);
        assert_eq!(filter.rows(), 11);
        let mut st = FilterStats::default();
        filter.lookup(0, &seq("AAAAAA"), 0, &mut st).unwrap();
        assert_eq!(st.lookups, 1);
        assert_eq!(st.mini_index_reads, 1);
        assert_eq!(st.tag_searches, 1);
        assert_eq!(st.tag_rows_enabled, 11); // whole AAA bucket powered
        assert_eq!(st.data_reads, 11);
        assert_eq!(st.hits, 1);
        // a miss in an empty bucket costs no tag search at all
        filter.lookup(0, &seq("GGGGGG"), 0, &mut st).unwrap();
        assert_eq!(st.tag_searches, 1);
        assert_eq!(st.lookups, 2);
    }

    #[test]
    fn lookup_too_close_to_read_end_is_none() {
        let part = seq("ACGTACGTACGT");
        let filter = PreSeedingFilter::build(&part, FilterConfig::small(6, 3));
        let read = seq("ACGTA");
        let mut st = FilterStats::default();
        assert!(filter.lookup(0, &read, 0, &mut st).is_none());
        assert!(filter.lookup(0, &read, 3, &mut st).is_none());
        assert_eq!(st, FilterStats::default());
    }

    #[test]
    fn mmer_lookup_unions_bucket() {
        let part = seq("ACGTTTTACGAAAACGCC");
        let cfg = FilterConfig::small(6, 3);
        let filter = PreSeedingFilter::build(&part, cfg);
        // "ACG" occurs at 0, 7, 14 (prefix of k-mers at 0 and 7; the one
        // at 14 has no full 6-mer but ACG-prefixed k-mers at 0/7 cover it).
        let acg = seq("ACG").kmer_code(0, 3).unwrap();
        let si = filter.lookup_mmer_code(0, acg, &mut FilterStats::default());
        let mut expect = SearchIndicator::EMPTY;
        for x in [0usize, 7] {
            expect.merge(SearchIndicator::of_occurrence(x, cfg.stride, cfg.groups));
        }
        assert_eq!(si, expect);
    }

    #[test]
    fn mmer_code_lookup_matches_mmer_lookup() {
        // Oracle: the OR of the indicators of every k-mer occurrence whose
        // first m bases are the m-mer, one data read per occurrence.
        let part = generate_reference(&ReferenceProfile::human_like(), 2_000, 9);
        let cfg = FilterConfig::small(8, 4);
        let filter = PreSeedingFilter::build(&part, cfg);
        let rest_bits = 2 * (cfg.k - cfg.m);
        for (off, mmer) in part.kmers(cfg.m).take(200) {
            let mut expect = SearchIndicator::EMPTY;
            let mut reads = 0;
            for (x, code) in part.kmers(cfg.k) {
                if code >> rest_bits == mmer {
                    expect.merge(SearchIndicator::of_occurrence(x, cfg.stride, cfg.groups));
                    reads += 1;
                }
            }
            let mut stats = FilterStats::default();
            assert_eq!(
                filter.lookup_mmer_code(0, mmer, &mut stats),
                expect,
                "offset {off}"
            );
            assert_eq!(
                (stats.lookups, stats.data_reads),
                (1, reads),
                "offset {off}"
            );
        }
    }

    #[test]
    fn footprint_matches_paper_45mb() {
        // Paper: 45 MB filter for a 4 M-base (1 MB) partition at k=19,
        // m=10, 40-base stride, 20 groups.
        let cfg = FilterConfig::default();
        let filter =
            PreSeedingFilter::assemble(cfg, vec![0; 2].into(), Vec::new().into(), vec![4 << 20]);
        let mb = (1u64 << 20) as f64;
        let total = filter.footprint_bytes() as f64 / mb;
        assert!(
            (total - 45.0).abs() < 0.5,
            "filter footprint {total:.1} MB should be ~45 MB"
        );
    }

    #[test]
    fn fault_injection_is_deterministic_and_flips_indicators() {
        let part = generate_reference(&ReferenceProfile::human_like(), 3_000, 5);
        let cfg = FilterConfig::small(8, 4);
        let model = FilterFaultModel {
            seed: 42,
            flip_rate: 0.01,
        };
        let mut a = PreSeedingFilter::build(&part, cfg);
        let clean = PreSeedingFilter::build(&part, cfg);
        let mut b = clean.clone();
        let ra = a.inject_faults(0, &model);
        let rb = b.inject_faults(0, &model);
        assert_eq!(ra, rb);
        assert!(ra.sites() > 0, "expected fault sites at this rate");
        // The rows themselves (offset and tag) are untouched; a reported
        // row's indicator differs from the clean one in its start mask
        // alone, and every other row's indicator is the clean one.
        assert_eq!(a.row_words(), clean.row_words());
        let faulty: std::collections::HashSet<u32> = ra.rows.iter().copied().collect();
        for (row, &word) in a.row_words().iter().enumerate() {
            let (got, want) = (a.indicator(row, word), clean.indicator(row, word));
            assert_eq!(got.groups, want.groups, "row {row} groups");
            assert_eq!(
                got != want,
                faulty.contains(&(row as u32)),
                "row {row} should differ from the clean build exactly when reported"
            );
        }
        // Zero rate is a no-op.
        let mut c = clean.clone();
        assert_eq!(c.inject_faults(0, &FilterFaultModel::default()).sites(), 0);
    }

    /// Fault sites and faulted indicators are pinned to the values
    /// recorded when faults still flipped bits of stored 16-byte rows: the
    /// overlay must pick the same sites and return the same indicators,
    /// over two interleaved partitions and two injections into one of
    /// them (the second on top of the first).
    #[test]
    fn fault_sites_and_faulted_indicators_are_pinned() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_500, 5);
        let cfg = FilterConfig::small(8, 4);
        let parts = [reference.subseq(0, 2_000), reference.subseq(2_000, 1_500)];
        let refs: Vec<&PackedSeq> = parts.iter().collect();
        let mut filter = PreSeedingFilter::build_partitions(&refs, cfg, 2).unwrap();
        let sites: Vec<Vec<u32>> = [(0, 42), (1, 43), (0, 7)]
            .into_iter()
            .map(|(p, seed)| {
                let model = FilterFaultModel {
                    seed,
                    flip_rate: 0.01,
                };
                filter.inject_faults(p, &model).rows
            })
            .collect();
        assert_eq!(
            sites,
            [
                &[
                    37, 131, 235, 240, 269, 397, 407, 525, 607, 618, 663, 716, 1038, 1394, 1589,
                    1976
                ][..],
                &[
                    141, 235, 295, 303, 356, 437, 611, 624, 671, 754, 765, 781, 838, 908, 922, 924,
                    971, 981, 1318, 1350, 1423, 1427
                ],
                &[
                    19, 29, 71, 75, 529, 552, 604, 696, 766, 820, 989, 1422, 1524, 1531, 1544,
                    1624, 1952, 1954, 1988
                ],
            ]
        );
        // FNV-1a over every k-mer and m-mer indicator of the reference in
        // both partitions.
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            digest ^= v;
            digest = digest.wrapping_mul(0x100_0000_01b3);
        };
        let mut stats = FilterStats::default();
        let rest_bits = 2 * (cfg.k - cfg.m);
        for p in 0..2 {
            for (_, code) in reference.kmers(cfg.k) {
                for si in [
                    filter.lookup_code(p, code, &mut stats),
                    filter.lookup_mmer_code(p, code >> rest_bits, &mut stats),
                ] {
                    fold(si.start_mask);
                    fold(u64::from(si.groups));
                }
            }
        }
        assert_eq!(digest, 0xb1dd_1131_0eb0_bc75);
        assert_eq!(
            stats,
            FilterStats {
                lookups: 13_972,
                mini_index_reads: 13_972,
                tag_searches: 6_984,
                tag_rows_enabled: 56_683,
                tag_physical_rows: 56_683,
                data_reads: 60_418,
                hits: 10_576,
            }
        );
    }

    #[test]
    fn occurrences_are_every_mmer_offset_before_the_tail() {
        // Two partitions; the second holds repeats, so its sub-buckets
        // carry several tags. Every m-mer occurrence starting a k-mer is a
        // row of its sub-bucket; the rest lie at or past the tail.
        let cfg = FilterConfig::small(8, 4);
        let (parts, _) = partition_fixture(cfg);
        let refs: Vec<&PackedSeq> = parts.iter().collect();
        let filter = PreSeedingFilter::build_partitions(&refs, cfg, 2).unwrap();
        let rest_bits = 2 * (cfg.k - cfg.m);
        for (p, part) in parts.iter().enumerate() {
            for (x, mmer) in part.kmers(cfg.m).step_by(3) {
                let bucket = filter.sub_bucket(p, mmer << rest_bits);
                let occ = filter.occurrences(p, bucket);
                assert_eq!((occ.m(), occ.len()), (cfg.m, bucket.len()));
                assert_eq!(occ.tail(), (part.len() + 1).saturating_sub(cfg.k));
                let mut got: Vec<usize> = occ.offsets().collect();
                got.sort_unstable();
                let want: Vec<usize> = part
                    .kmers(cfg.m)
                    .filter(|&(y, c)| c == mmer && y < occ.tail())
                    .map(|(y, _)| y)
                    .collect();
                assert_eq!(got, want, "partition {p}, m-mer at {x}");
            }
        }
    }

    #[test]
    fn contains_is_lookup_nonempty() {
        let part = seq("ACGTACGTTTGG");
        let filter = PreSeedingFilter::build(&part, FilterConfig::small(6, 3));
        let mut st = FilterStats::default();
        let hit = |read: &str, st: &mut FilterStats| {
            filter
                .lookup(0, &seq(read), 0, st)
                .is_some_and(|si| !si.is_empty())
        };
        assert!(hit("ACGTAC", &mut st));
        assert!(!hit("CCCCCC", &mut st));
        assert!(!hit("ACG", &mut st)); // too short: no lookup at all
        assert_eq!(st.lookups, 2);
    }

    /// Oracle tables of a one-partition filter: every (k-mer code,
    /// offset) pair sorted, packed row by row, under the prefix sums of
    /// the m-mer slots.
    fn sorted_occurrence_tables(part: &PackedSeq, cfg: FilterConfig) -> (Vec<u32>, Vec<u64>) {
        let rest_bits = 2 * (cfg.k - cfg.m);
        let mut occs: Vec<(u64, usize)> = part.kmers(cfg.k).map(|(x, c)| (c, x)).collect();
        occs.sort_unstable();
        let mut mini = vec![0u32; (1 << (2 * cfg.m)) + 1];
        let mut words = Vec::new();
        for &(code, x) in &occs {
            mini[(code >> rest_bits) as usize + 1] += 1;
            words.push(pack_row((code & ((1 << rest_bits) - 1)) as u32, x));
        }
        for i in 1..mini.len() {
            mini[i] += mini[i - 1];
        }
        (mini, words)
    }

    #[test]
    fn built_tables_equal_a_sorted_occurrence_list_word_for_word() {
        // The in-place build must produce exactly the oracle's words, and
        // a filter reassembled from them must be the same filter.
        let part = generate_reference(&ReferenceProfile::human_like(), 5_000, 31);
        let cfg = FilterConfig::small(9, 4);
        let (mini, words) = sorted_occurrence_tables(&part, cfg);
        let built = PreSeedingFilter::build(&part, cfg);
        assert_eq!(built.mini_index(), &mini[..]);
        assert_eq!(built.row_words(), &words[..]);
        assert_eq!(built.rows(), words.len());
        let shared = shared_copy(&built);
        assert!(shared.tables_shared() && !built.tables_shared());
        assert_eq!(shared.mini_index(), built.mini_index());
        assert_eq!(shared.row_words(), built.row_words());
    }

    #[test]
    fn tables_advised_onto_huge_pages_equal_the_oracle_word_for_word() {
        // m = 10 makes a 4 MB mini index and 600k bases a 4.8 MB row
        // table: both hold whole huge pages, so the build advises both
        // before writing them. The advice changes the backing, never the
        // words.
        let part = generate_reference(&ReferenceProfile::human_like(), 600_000, 32);
        let cfg = FilterConfig::new(14, 10, 40, 20);
        let built = PreSeedingFilter::build(&part, cfg);
        for (name, addr, len) in [
            (
                "mini",
                built.mini_index().as_ptr() as usize,
                size_of_val(built.mini_index()),
            ),
            (
                "rows",
                built.row_words().as_ptr() as usize,
                size_of_val(built.row_words()),
            ),
        ] {
            assert!(
                huge_page_range(addr, len).is_some(),
                "{name} table was not advised"
            );
        }
        let (mini, words) = sorted_occurrence_tables(&part, cfg);
        assert!(built.mini_index() == mini, "mini index differs");
        assert!(built.row_words() == words, "rows differ");
    }

    #[test]
    fn huge_page_range_is_the_aligned_interior() {
        const MB: usize = 1 << 20;
        // Below one huge page: never, aligned or not.
        assert_eq!(huge_page_range(0, 0), None);
        assert_eq!(huge_page_range(4 * MB, 2 * MB - 1), None);
        assert_eq!(huge_page_range(4 * MB + 8, MB), None);
        // Exactly one aligned huge page, and a longer aligned range.
        assert_eq!(huge_page_range(4 * MB, 2 * MB), Some((4 * MB, 2 * MB)));
        assert_eq!(huge_page_range(4 * MB, 5 * MB), Some((4 * MB, 4 * MB)));
        // Unaligned: only the whole pages inside.
        assert_eq!(huge_page_range(4 * MB + 16, 2 * MB), None);
        assert_eq!(huge_page_range(4 * MB + 16, 4 * MB), Some((6 * MB, 2 * MB)));
        assert_eq!(
            huge_page_range(2 * MB - 4096, 6 * MB),
            Some((2 * MB, 4 * MB))
        );
        // Ranges at the top of the address space do not wrap.
        assert_eq!(huge_page_range(usize::MAX - 8, 4 * MB), None);
        assert_eq!(huge_page_range(usize::MAX - 3 * MB, 3 * MB), None);
    }

    #[test]
    fn rows_of_a_repeated_kmer_are_in_ascending_offset_order() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_000, 13);
        let cfg = FilterConfig::new(6, 3, 64, 32);
        let filter = PreSeedingFilter::build(&part, cfg);
        let rest_bits = 2 * (cfg.k - cfg.m);
        let mut repeated = 0;
        for (x, code) in part.kmers(cfg.k) {
            let mmer = (code >> rest_bits) as usize;
            let tag = (code & ((1 << rest_bits) - 1)) as u32;
            let (lo, hi) = (filter.mini_index()[mmer], filter.mini_index()[mmer + 1]);
            let offsets: Vec<usize> = filter.row_words()[lo as usize..hi as usize]
                .iter()
                .filter(|&&r| row_tag(r) == tag)
                .map(|&r| row_offset(r))
                .collect();
            let expect: Vec<usize> = part
                .kmers(cfg.k)
                .filter(|&(_, c)| c == code)
                .map(|(y, _)| y)
                .collect();
            assert_eq!(offsets, expect, "k-mer at {x}");
            repeated += usize::from(expect.len() > 1);
        }
        assert!(repeated > 100, "workload must repeat k-mers ({repeated})");
    }

    #[test]
    #[should_panic(expected = "tag must fit 32 bits")]
    fn tag_wider_than_32_bits_is_rejected() {
        // k = 28, m = 6 leaves a 22-base (44-bit) tag: truncating it
        // would alias absent k-mers onto present ones.
        FilterConfig::new(28, 6, 40, 20);
    }

    #[test]
    fn table_rows_guard_refuses_more_rows_than_u32_offsets() {
        // Partitions of n bases hold n - k + 1 rows; one shorter than k
        // holds none. The guard is arithmetic only: no table is built.
        assert_eq!(PreSeedingFilter::table_rows(&[100, 18, 19], 19), Ok(83));
        let max = u32::MAX as usize;
        assert_eq!(PreSeedingFilter::table_rows(&[max + 18], 19), Ok(u32::MAX));
        let err = PreSeedingFilter::table_rows(&[max, 40], 19).unwrap_err();
        assert_eq!(err.rows, u64::from(u32::MAX) - 18 + 22);
        assert!(err.to_string().contains("u32 mini index"), "{err}");
        let err = PreSeedingFilter::table_rows(&[max + 19], 19).unwrap_err();
        assert_eq!(err.rows, u64::from(u32::MAX) + 1);
    }

    /// P partitions of unequal lengths cut from one reference — the last
    /// shorter than k, one holding repeats of another — plus the
    /// independent single-partition filter of each.
    fn partition_fixture(cfg: FilterConfig) -> (Vec<PackedSeq>, Vec<PreSeedingFilter>) {
        let reference = generate_reference(&ReferenceProfile::human_like(), 6_000, 77);
        let mut parts: Vec<PackedSeq> = [(0, 2_000), (1_900, 2_600), (4_400, 1_500)]
            .iter()
            .map(|&(start, len)| reference.subseq(start, len))
            .collect();
        let mut repeats = reference.subseq(100, 300);
        repeats.extend(reference.subseq(100, 300).iter());
        repeats.extend(seq("ACGTACGTACGTACGTACGTACGT").iter());
        parts.push(repeats);
        parts.push(reference.subseq(5_990, cfg.k - 1));
        let singles = parts
            .iter()
            .map(|p| PreSeedingFilter::build(p, cfg))
            .collect();
        (parts, singles)
    }

    #[test]
    fn interleaved_filter_equals_independent_partition_filters() {
        // k = 8, m = 5 leaves most of the 1,024 slots empty in at least
        // one partition.
        let cfg = FilterConfig::small(8, 5);
        let (parts, singles) = partition_fixture(cfg);
        let refs: Vec<&PackedSeq> = parts.iter().collect();
        let filter = PreSeedingFilter::build_partitions(&refs, cfg, 1).unwrap();
        let nparts = parts.len();
        assert_eq!(filter.partitions(), nparts);
        assert_eq!(
            filter.rows(),
            singles.iter().map(PreSeedingFilter::rows).sum()
        );
        assert_eq!(
            singles[nparts - 1].rows(),
            0,
            "last partition is shorter than k"
        );

        // The layout: rows sorted by (slot, partition, tag, offset).
        let rest_bits = 2 * (cfg.k - cfg.m);
        let mut occs: Vec<(u64, usize, u64, usize)> = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            occs.extend(part.kmers(cfg.k).map(|(x, c)| (c >> rest_bits, p, c, x)));
        }
        occs.sort_unstable();
        let words: Vec<u64> = occs
            .iter()
            .map(|&(_, _, code, x)| pack_row((code & ((1 << rest_bits) - 1)) as u32, x))
            .collect();
        assert_eq!(filter.row_words(), &words[..]);
        let empty = (0..1usize << (2 * cfg.m))
            .filter(|&s| filter.mini_index()[s * nparts] == filter.mini_index()[(s + 1) * nparts])
            .count();
        assert!(empty > 0, "fixture must leave some slots empty everywhere");

        // Built on any number of threads, and reassembled from shared
        // tables, the filter is the same word for word.
        for threads in [2, 3, 7, 64] {
            let other = PreSeedingFilter::build_partitions(&refs, cfg, threads).unwrap();
            assert_eq!(other.mini_index(), filter.mini_index(), "{threads} threads");
            assert_eq!(other.row_words(), filter.row_words(), "{threads} threads");
        }
        let shared = shared_copy(&filter);
        assert!(shared.tables_shared());
        assert_eq!(shared.row_words(), filter.row_words());

        // Faults hit each partition's rows by partition-local row, as in
        // the partition's own filter.
        let mut faulted = shared_copy(&filter);
        let mut faulted_singles = singles.clone();
        for p in 0..nparts {
            let model = FilterFaultModel {
                seed: 40 + p as u64,
                flip_rate: 0.02,
            };
            let report = faulted.inject_faults(p, &model);
            assert_eq!(
                report,
                faulted_singles[p].inject_faults(0, &model),
                "partition {p}"
            );
            assert_eq!(report.sites() > 0, singles[p].rows() > 0, "partition {p}");
        }

        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut codes: Vec<u64> = parts[0].kmers(cfg.k).step_by(5).map(|(_, c)| c).collect();
        codes.extend(parts[3].kmers(cfg.k).step_by(3).map(|(_, c)| c));
        codes.extend((0..300).map(|_| rng.gen_range(0..(1u64 << (2 * cfg.k)))));
        let bounds = [0, 1, 1, 150, 400, codes.len()];
        for (name, filter, singles) in [
            ("clean", &shared, &singles),
            ("faulted", &faulted, &faulted_singles),
        ] {
            // The whole-batch pass: partition-major indicators, stats
            // summed over the partitions.
            let mut out = Vec::new();
            let total = filter.lookup_codes_into(&codes, &mut out);
            let mut expect_total = FilterStats::default();
            let mut expect_out = Vec::new();
            for single in singles.iter() {
                let mut one = Vec::new();
                expect_total.merge(&single.lookup_codes_into(&codes, &mut one));
                expect_out.extend(one);
            }
            assert_eq!(out, expect_out, "{name}");
            assert_eq!(total, expect_total, "{name}");

            // The grouped pass books each group's activity per partition.
            let mut stats = vec![FilterStats::default(); 2];
            filter.lookup_grouped_into(&codes, &bounds, &mut out, &mut stats);
            assert_eq!(out, expect_out, "{name} grouped");
            assert_eq!(stats.len(), (bounds.len() - 1) * nparts);
            for (g, w) in bounds.windows(2).enumerate() {
                for (p, single) in singles.iter().enumerate() {
                    let mut one = Vec::new();
                    let expect = single.lookup_codes_into(&codes[w[0]..w[1]], &mut one);
                    assert_eq!(stats[g * nparts + p], expect, "{name} group {g} part {p}");
                }
            }

            // Per-partition k-mer and m-mer lookups.
            for (p, single) in singles.iter().enumerate() {
                let (mut got, mut want) = (FilterStats::default(), FilterStats::default());
                for &code in &codes {
                    assert_eq!(
                        filter.lookup_code(p, code, &mut got),
                        single.lookup_code(0, code, &mut want),
                        "{name} part {p}"
                    );
                    let mmer = code >> rest_bits;
                    assert_eq!(
                        filter.lookup_mmer_code(p, mmer, &mut got),
                        single.lookup_mmer_code(0, mmer, &mut want),
                        "{name} part {p}"
                    );
                }
                assert_eq!(got, want, "{name} part {p}");
                assert_eq!(filter.layout(p), single.layout(0), "part {p}");
            }
        }
        let single_footprints: u64 = singles.iter().map(PreSeedingFilter::footprint_bytes).sum();
        assert_eq!(filter.footprint_bytes(), single_footprints);
    }

    #[test]
    fn shared_tables_of_the_wrong_shape_are_refused() {
        let cfg = FilterConfig::small(8, 4);
        let (parts, _) = partition_fixture(cfg);
        let refs: Vec<&PackedSeq> = parts.iter().collect();
        let filter = PreSeedingFilter::build_partitions(&refs, cfg, 2).unwrap();
        let lens = filter.partition_lens().to_vec();
        let attempt = |lens: &[usize]| {
            use casa_genome::SliceView;
            use std::sync::Arc;
            PreSeedingFilter::from_shared_parts(
                cfg,
                SharedSlice::new(Arc::new(filter.mini_index().to_vec()) as Arc<dyn SliceView<u32>>),
                SharedSlice::new(Arc::new(filter.row_words().to_vec()) as Arc<dyn SliceView<u64>>),
                lens,
            )
            .map(|f| f.rows())
        };
        assert_eq!(attempt(&lens), Ok(filter.rows()));
        assert!(attempt(&lens[1..]).is_err(), "one partition short");
        assert!(attempt(&[]).is_err(), "no partitions");
        let mut longer = lens.clone();
        longer[0] += 1;
        assert!(attempt(&longer).is_err(), "rows disagree with the lengths");
    }
}
