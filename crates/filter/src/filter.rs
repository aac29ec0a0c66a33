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
//! In software the tag and data arrays are one table of fused 16-byte
//! rows, two `u64` words each: `w0` is the start mask and
//! `w1 = groups | tag << 32`. A tag match and its indicator share a cache
//! line, so a hit costs two dependent misses (mini index → row), not
//! three. Rows are sorted by k-mer; the rows of one k-mer lie in
//! ascending partition-offset order.
//!
//! Because every k-mer of the partition is enumerated, the filter has **no
//! false positives and no misses** (unlike GenCache's bloom filter), and
//! its footprint is `O(4^m + n)` — linear in `k`, which is what lets CASA
//! afford k = 19 where a dense index would need 4^19 entries.

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
/// same rows. Each faulty row has one bit of its start mask flipped:
/// clearing a set bit silently hides an occurrence (a wrong-SMEM hazard the
/// sampled cross-check exists to catch), setting a clear bit only triggers
/// a spurious — and harmless — CAM search.
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

const DOMAIN_FILTER_FLIP: u64 = 0x21;

/// One fused tag/data row: `[start_mask, groups | tag << 32]`.
type Row = [u64; 2];

fn pack_row(tag: u32, si: SearchIndicator) -> Row {
    [si.start_mask, u64::from(si.groups) | u64::from(tag) << 32]
}

fn row_tag(row: &Row) -> u32 {
    (row[1] >> 32) as u32
}

fn row_indicator(row: &Row) -> SearchIndicator {
    SearchIndicator {
        start_mask: row[0],
        groups: row[1] as u32,
    }
}

/// The pre-seeding filter for one reference partition.
///
/// Lookups only read the tables; each books its activity into the
/// caller's [`FilterStats`], so any number of threads can look up one
/// filter at once.
///
/// ```
/// use casa_genome::PackedSeq;
/// use casa_filter::{FilterConfig, FilterStats, PreSeedingFilter};
///
/// let part = PackedSeq::from_ascii(b"ACGTACGTTTGGAACCAGTC")?;
/// let filter = PreSeedingFilter::build(&part, FilterConfig::small(6, 3));
/// let mut stats = FilterStats::default();
/// let read = PackedSeq::from_ascii(b"GTACGT")?;
/// let si = filter.lookup(&read, 0, &mut stats).expect("read long enough");
/// assert!(!si.is_empty()); // GTACGT occurs at partition offset 2
/// let miss = PackedSeq::from_ascii(b"GGGGGG")?;
/// assert!(filter.lookup(&miss, 0, &mut stats).unwrap().is_empty());
/// assert_eq!(stats.lookups, 2);
/// # Ok::<(), casa_genome::ParseBaseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct PreSeedingFilter {
    config: FilterConfig,
    /// `mini_index[mmer] .. mini_index[mmer + 1]` bounds the row bucket.
    /// Owned when built in process, shared when loaded from an index
    /// image (likewise `rows`).
    mini_index: SliceStore<u32>,
    /// Fused tag/data rows, two words each (see the module docs), sorted
    /// by (m-mer, tag) — i.e. by full k-mer.
    rows: SliceStore<u64>,
    /// §5 physical packing of the tag array.
    layout: TagLayout,
    partition_len: usize,
}

impl PreSeedingFilter {
    /// Builds the filter tables for `partition` (the offline step of §4.1).
    ///
    /// Two passes over the rolling k-mer codes: the first counts each
    /// m-mer bucket into the mini index, the second scatters every
    /// occurrence to its bucket's cursor in ascending offset order. A
    /// stable sort by tag inside each bucket then orders the rows by
    /// k-mer, leaving the rows of one k-mer in ascending offset order. The
    /// rows are written in place: no buffer beyond the tables themselves.
    pub fn build(partition: &PackedSeq, config: FilterConfig) -> PreSeedingFilter {
        config.validate();
        let rest_bits = 2 * (config.k - config.m);
        let tag_mask = (1u64 << rest_bits) - 1;
        let slots = 1usize << (2 * config.m);
        // Bucket sizes land one slot up, so the prefix sum leaves
        // `mini[b]` at bucket b's first row.
        let mut mini = vec![0u32; slots + 1];
        for (_, code) in partition.kmers(config.k) {
            mini[(code >> rest_bits) as usize + 1] += 1;
        }
        for i in 1..=slots {
            mini[i] += mini[i - 1];
        }
        let mut words = vec![0u64; 2 * mini[slots] as usize];
        let table = words.as_chunks_mut::<2>().0;
        for (x, code) in partition.kmers(config.k) {
            let cursor = &mut mini[(code >> rest_bits) as usize];
            let si = SearchIndicator::of_occurrence(x, config.stride, config.groups);
            table[*cursor as usize] = pack_row((code & tag_mask) as u32, si);
            *cursor += 1;
        }
        // Each cursor now sits on the next bucket's first row.
        mini.copy_within(0..slots, 1);
        mini[0] = 0;
        for b in 0..slots {
            let bucket = &mut table[mini[b] as usize..mini[b + 1] as usize];
            if bucket.len() > 1 {
                bucket.sort_by_key(row_tag);
            }
        }
        let layout = TagLayout::paper(table.len().max(1));
        PreSeedingFilter {
            config,
            mini_index: mini.into(),
            rows: words.into(),
            layout,
            partition_len: partition.len(),
        }
    }

    /// Reassembles a filter from prebuilt tables — the zero-copy
    /// image-loading path. `rows` holds the fused rows, two `u64` words
    /// each, as [`row_words`](Self::row_words) returns them. Behaves
    /// exactly like the filter [`PreSeedingFilter::build`] would produce
    /// for the same partition and config.
    ///
    /// Fails (typed message) on any shape mismatch between the tables.
    pub fn from_shared_parts(
        config: FilterConfig,
        mini_index: SharedSlice<u32>,
        rows: SharedSlice<u64>,
        partition_len: usize,
    ) -> Result<PreSeedingFilter, &'static str> {
        config.validate();
        let slots = 1usize << (2 * config.m);
        let mini = mini_index.as_slice();
        if mini.len() != slots + 1 {
            return Err("filter mini index has the wrong slot count for m");
        }
        let words = rows.as_slice().len();
        if !words.is_multiple_of(2) {
            return Err("filter row table has an odd word count");
        }
        if mini[slots] as usize != words / 2 {
            return Err("filter mini index total disagrees with the row count");
        }
        let layout = TagLayout::paper((words / 2).max(1));
        Ok(PreSeedingFilter {
            config,
            mini_index: mini_index.into(),
            rows: rows.into(),
            layout,
            partition_len,
        })
    }

    /// The mini-index prefix sums (the image writer persists these).
    pub fn mini_index(&self) -> &[u32] {
        self.mini_index.as_slice()
    }

    /// The fused row table, two words per row: `w0` is the start mask,
    /// `w1 = groups | tag << 32` (the image writer persists these).
    pub fn row_words(&self) -> &[u64] {
        self.rows.as_slice()
    }

    fn table(&self) -> &[Row] {
        self.rows.as_chunks::<2>().0
    }

    /// The partition length the filter was built for.
    pub fn partition_len(&self) -> usize {
        self.partition_len
    }

    /// Whether the tables are backed by shared (mapped) storage.
    pub fn tables_shared(&self) -> bool {
        self.mini_index.is_shared() && self.rows.is_shared()
    }

    /// The filter's geometry.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Number of tag/data rows (k-mer occurrences in the partition).
    pub fn rows(&self) -> usize {
        self.rows.len() / 2
    }

    /// The §5 physical packing of the tag array.
    pub fn layout(&self) -> &TagLayout {
        &self.layout
    }

    /// Looks up the k-mer starting at `read[pivot..]`.
    ///
    /// Returns `None` if the read is too short to host a k-mer at `pivot`;
    /// otherwise the OR of the indicators of all matching occurrences
    /// ([`SearchIndicator::EMPTY`] when the k-mer is absent — the pivot is
    /// then filterable).
    pub fn lookup(
        &self,
        read: &PackedSeq,
        pivot: usize,
        stats: &mut FilterStats,
    ) -> Option<SearchIndicator> {
        let code = read.kmer_code(pivot, self.config.k)?;
        Some(self.lookup_code(code, stats))
    }

    /// Looks up a pre-computed k-mer code.
    pub fn lookup_code(&self, code: u64, stats: &mut FilterStats) -> SearchIndicator {
        let rest_bits = 2 * (self.config.k - self.config.m);
        let mmer = (code >> rest_bits) as usize;
        let tag = (code & ((1u64 << rest_bits) - 1)) as u32;

        stats.lookups += 1;
        stats.mini_index_reads += 1;
        let lo = self.mini_index[mmer] as usize;
        let hi = self.mini_index[mmer + 1] as usize;
        if lo == hi {
            return SearchIndicator::EMPTY;
        }
        // Range-gated CAM search over the bucket.
        stats.tag_searches += 1;
        stats.tag_rows_enabled += (hi - lo) as u64;
        stats.tag_physical_rows += self.layout.physical_rows(hi - lo) as u64;
        let bucket = &self.rows.as_chunks::<2>().0[lo..hi];
        let first = bucket.partition_point(|r| row_tag(r) < tag);
        let mut si = SearchIndicator::EMPTY;
        for row in bucket[first..].iter().take_while(|r| row_tag(r) == tag) {
            stats.data_reads += 1;
            si.merge(row_indicator(row));
        }
        if !si.is_empty() {
            stats.hits += 1;
        }
        si
    }

    /// Pipeline distance `D` of the batched pass, in codes. While code `i`
    /// is looked up, the first and last rows of code `i + D`'s bucket and
    /// the mini-index slot of code `i + 2D` are in flight. Tuned with
    /// interleaved runs; a constant, not a knob.
    const LOOKUP_AHEAD: usize = 8;

    /// Looks up a whole batch of pre-computed k-mer codes in one
    /// software-pipelined pass, filling `out` with one indicator per code
    /// (cleared first) and returning the batch's activity.
    ///
    /// Semantically identical to calling [`lookup_code`](Self::lookup_code)
    /// per code — same indicators, same [`FilterStats`] — but
    /// restructured for memory-level parallelism, as the hardware overlaps
    /// its filter stages (paper Fig. 9). A lookup is two dependent misses:
    /// the mini-index slot (`4^m` entries, 4 MB at m = 10) gives `lo..hi`,
    /// which addresses the bucket's fused tag/data rows. At code `i` the
    /// pass prefetches the mini-index slot of code `i + 2D`, reads the (by
    /// now resident) slot of code `i + D` and prefetches its first and last
    /// rows, then runs the unchanged `lookup_code` on code `i`, whose lines
    /// have had two stages to arrive. Prefetches never change what is
    /// read, only when.
    pub fn lookup_codes_into(&self, codes: &[u64], out: &mut Vec<SearchIndicator>) -> FilterStats {
        const D: usize = PreSeedingFilter::LOOKUP_AHEAD;
        let mut stats = FilterStats::default();
        out.clear();
        out.reserve(codes.len());
        for &code in codes.iter().take(2 * D) {
            self.prefetch_slot(code);
        }
        for &code in codes.iter().take(D) {
            self.prefetch_bucket(code);
        }
        for (i, &code) in codes.iter().enumerate() {
            if let Some(&ahead) = codes.get(i + 2 * D) {
                self.prefetch_slot(ahead);
            }
            if let Some(&ahead) = codes.get(i + D) {
                self.prefetch_bucket(ahead);
            }
            out.push(self.lookup_code(code, &mut stats));
        }
        stats
    }

    /// Pipeline stage 1: starts fetching the mini-index slot of `code`.
    #[inline(always)]
    fn prefetch_slot(&self, code: u64) {
        let mmer = (code >> (2 * (self.config.k - self.config.m))) as usize;
        prefetch(&self.mini_index[mmer]);
    }

    /// Pipeline stage 2: reads the slot of `code` and, for a non-empty
    /// bucket, starts fetching its first and last rows.
    #[inline(always)]
    fn prefetch_bucket(&self, code: u64) {
        let mini = self.mini_index.as_slice();
        let mmer = (code >> (2 * (self.config.k - self.config.m))) as usize;
        let (lo, hi) = (mini[mmer] as usize, mini[mmer + 1] as usize);
        if lo != hi {
            // A small bucket can straddle a line boundary, and the tag
            // search reads both lines.
            prefetch(&self.table()[lo]);
            prefetch(&self.table()[hi - 1]);
        }
    }

    /// Looks up only the m-mer prefix: the OR of the indicators of every
    /// k-mer sharing it. Used by the exact-match pre-processing (§4.3),
    /// which aligns several non-overlapping m-mers before attempting a
    /// whole-read match.
    pub fn lookup_mmer(
        &self,
        read: &PackedSeq,
        pivot: usize,
        stats: &mut FilterStats,
    ) -> Option<SearchIndicator> {
        let code = read.kmer_code(pivot, self.config.m)?;
        Some(self.lookup_mmer_code(code, stats))
    }

    /// [`PreSeedingFilter::lookup_mmer`] for a pre-computed m-mer code —
    /// the form the engine's rolling-code hot path feeds directly.
    pub fn lookup_mmer_code(&self, code: u64, stats: &mut FilterStats) -> SearchIndicator {
        let mmer = code as usize;
        stats.lookups += 1;
        stats.mini_index_reads += 1;
        let lo = self.mini_index[mmer] as usize;
        let hi = self.mini_index[mmer + 1] as usize;
        let mut si = SearchIndicator::EMPTY;
        for row in &self.rows.as_chunks::<2>().0[lo..hi] {
            stats.data_reads += 1;
            si.merge(row_indicator(row));
        }
        if !si.is_empty() {
            stats.hits += 1;
        }
        si
    }

    /// Whether the k-mer at `read[pivot..]` exists in the partition (the
    /// CRkM existence check of Algorithm 1). A full filter lookup.
    pub fn contains(&self, read: &PackedSeq, pivot: usize, stats: &mut FilterStats) -> bool {
        self.lookup(read, pivot, stats)
            .is_some_and(|si| !si.is_empty())
    }

    /// Modelled on-chip footprint in bytes:
    /// mini index `4^m × 2 pointers`, tag `rows × 2(k−m)` bits, data
    /// `rows × (stride + groups)` bits. With the paper's geometry and a
    /// 4 M-base partition this reproduces the 45 MB figure (6 + 9 + 30).
    pub fn footprint_bytes(&self) -> u64 {
        let ptr_bits = 24u64; // paper Fig. 8: 48-bit mini-index entries (2 pointers)
        let mini = (1u64 << (2 * self.config.m)) * (2 * ptr_bits) / 8;
        let n = self.partition_len as u64;
        let tag = n * (2 * (self.config.k - self.config.m) as u64) / 8;
        let data = n * ((self.config.stride + self.config.groups) as u64) / 8;
        mini + tag + data
    }

    /// Injects seeded data-array corruption and returns the flipped rows.
    ///
    /// The corruption is silent: subsequent lookups simply return the
    /// corrupted indicators. Calling this again flips further bits on top
    /// of the existing ones.
    pub fn inject_faults(&mut self, model: &FilterFaultModel) -> FilterFaultReport {
        let mut report = FilterFaultReport::default();
        if model.flip_rate <= 0.0 {
            return report;
        }
        let stride = self.config.stride as u64;
        // Detach shared storage up front (copy-on-write) so the loop
        // mutates in place.
        let table = self.rows.to_mut().as_chunks_mut::<2>().0;
        for (row, words) in table.iter_mut().enumerate() {
            let h = site_hash(model.seed, &[DOMAIN_FILTER_FLIP, row as u64]);
            if coin(h, model.flip_rate) {
                // Reuse independent high hash bits to pick the flipped bit.
                let bit = (h >> 32) % stride;
                words[0] ^= 1 << bit;
                report.rows.push(row as u32);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_genome::synth::{generate_reference, ReferenceProfile};

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
            filter.partition_len(),
        )
        .unwrap()
    }

    #[test]
    fn batched_lookup_matches_per_code_lookup_including_stats() {
        // The batched pipeline must be observationally identical to
        // per-code lookup_code calls: same indicators in order, same
        // FilterStats deltas — the engine's modeled-activity figures
        // depend on it. Checked at the pipeline's edges (prologue only,
        // one stage, both stages, a full 101 bp read at k = 19) on every
        // storage the tables can have: owned, shared, and shared detached
        // by fault injection (copy-on-write).
        let part = generate_reference(&ReferenceProfile::human_like(), 3_000, 23);
        let cfg = FilterConfig::small(8, 4);
        let built = PreSeedingFilter::build(&part, cfg);
        let shared = shared_copy(&built);
        let mut faulted = shared_copy(&built);
        let model = FilterFaultModel {
            seed: 3,
            flip_rate: 0.05,
        };
        assert!(faulted.inject_faults(&model).sites() > 0);
        assert!(shared.tables_shared() && !faulted.rows.is_shared());

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
                    .map(|&c| filter.lookup_code(c, &mut serial))
                    .collect();
                let batched = filter.lookup_codes_into(batch, &mut out);
                assert_eq!(out, per_code, "{name}: {len} codes");
                assert_eq!(batched, serial, "{name}: {len} codes");
            }
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
            let si = filter.lookup_code(code, &mut stats);
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
                filter.lookup_code(code, &mut stats).is_empty(),
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
            .lookup(&seq("ACGTAC"), 0, &mut FilterStats::default())
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
        filter.lookup(&seq("AAAAAA"), 0, &mut st).unwrap();
        assert_eq!(st.lookups, 1);
        assert_eq!(st.mini_index_reads, 1);
        assert_eq!(st.tag_searches, 1);
        assert_eq!(st.tag_rows_enabled, 11); // whole AAA bucket powered
        assert_eq!(st.data_reads, 11);
        assert_eq!(st.hits, 1);
        // a miss in an empty bucket costs no tag search at all
        filter.lookup(&seq("GGGGGG"), 0, &mut st).unwrap();
        assert_eq!(st.tag_searches, 1);
        assert_eq!(st.lookups, 2);
    }

    #[test]
    fn lookup_too_close_to_read_end_is_none() {
        let part = seq("ACGTACGTACGT");
        let filter = PreSeedingFilter::build(&part, FilterConfig::small(6, 3));
        let read = seq("ACGTA");
        let mut st = FilterStats::default();
        assert!(filter.lookup(&read, 0, &mut st).is_none());
        assert!(filter.lookup(&read, 3, &mut st).is_none());
        assert_eq!(st, FilterStats::default());
    }

    #[test]
    fn mmer_lookup_unions_bucket() {
        let part = seq("ACGTTTTACGAAAACGCC");
        let cfg = FilterConfig::small(6, 3);
        let filter = PreSeedingFilter::build(&part, cfg);
        // "ACG" occurs at 0, 7, 14 (prefix of k-mers at 0 and 7; the one
        // at 14 has no full 6-mer but ACG-prefixed k-mers at 0/7 cover it).
        let si = filter
            .lookup_mmer(&seq("ACG"), 0, &mut FilterStats::default())
            .unwrap();
        let mut expect = SearchIndicator::EMPTY;
        for x in [0usize, 7] {
            expect.merge(SearchIndicator::of_occurrence(x, cfg.stride, cfg.groups));
        }
        assert_eq!(si, expect);
    }

    #[test]
    fn mmer_code_lookup_matches_mmer_lookup() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_000, 9);
        let cfg = FilterConfig::small(8, 4);
        let filter = PreSeedingFilter::build(&part, cfg);
        let (mut by_read, mut by_code) = (FilterStats::default(), FilterStats::default());
        for (off, code) in part.kmers(cfg.m).take(200) {
            assert_eq!(
                filter.lookup_mmer(&part, off, &mut by_read).unwrap(),
                filter.lookup_mmer_code(code, &mut by_code),
                "offset {off}"
            );
        }
        assert_eq!(by_read, by_code);
    }

    #[test]
    fn footprint_matches_paper_45mb() {
        // Paper: 45 MB filter for a 4 M-base (1 MB) partition at k=19,
        // m=10, 40-base stride, 20 groups.
        let cfg = FilterConfig::default();
        let filter = PreSeedingFilter {
            config: cfg,
            mini_index: vec![0; 2].into(),
            rows: Vec::new().into(),
            layout: TagLayout::paper(4 << 20),
            partition_len: 4 << 20,
        };
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
        let ra = a.inject_faults(&model);
        let rb = b.inject_faults(&model);
        assert_eq!(ra, rb);
        assert!(ra.sites() > 0, "expected fault sites at this rate");
        for &row in &ra.rows {
            let row = row as usize;
            assert_ne!(
                a.table()[row][0],
                clean.table()[row][0],
                "row {row} should differ from the clean build"
            );
            assert_eq!(a.table()[row][1], clean.table()[row][1], "row {row} tag");
        }
        // Rows outside the report are untouched.
        let faulty: std::collections::HashSet<u32> = ra.rows.iter().copied().collect();
        for row in 0..a.rows() {
            if !faulty.contains(&(row as u32)) {
                assert_eq!(a.table()[row], clean.table()[row]);
            }
        }
        // Zero rate is a no-op.
        let mut c = clean.clone();
        assert_eq!(c.inject_faults(&FilterFaultModel::default()).sites(), 0);
    }

    #[test]
    fn contains_is_lookup_nonempty() {
        let part = seq("ACGTACGTTTGG");
        let filter = PreSeedingFilter::build(&part, FilterConfig::small(6, 3));
        let mut st = FilterStats::default();
        assert!(filter.contains(&seq("ACGTAC"), 0, &mut st));
        assert!(!filter.contains(&seq("CCCCCC"), 0, &mut st));
        assert!(!filter.contains(&seq("ACG"), 0, &mut st)); // too short
    }

    #[test]
    fn built_tables_equal_a_sorted_occurrence_list_word_for_word() {
        // Oracle: every (k-mer code, offset) pair sorted, packed row by
        // row. The in-place build must produce exactly these words, and a
        // filter reassembled from them must be the same filter.
        let part = generate_reference(&ReferenceProfile::human_like(), 5_000, 31);
        let cfg = FilterConfig::small(9, 4);
        let rest_bits = 2 * (cfg.k - cfg.m);
        let mut occs: Vec<(u64, usize)> = part.kmers(cfg.k).map(|(x, c)| (c, x)).collect();
        occs.sort_unstable();
        let mut mini = vec![0u32; (1 << (2 * cfg.m)) + 1];
        let mut words = Vec::new();
        for &(code, x) in &occs {
            mini[(code >> rest_bits) as usize + 1] += 1;
            let si = SearchIndicator::of_occurrence(x, cfg.stride, cfg.groups);
            let tag = (code & ((1 << rest_bits) - 1)) as u32;
            words.extend_from_slice(&pack_row(tag, si));
        }
        for i in 1..mini.len() {
            mini[i] += mini[i - 1];
        }
        let built = PreSeedingFilter::build(&part, cfg);
        assert_eq!(built.mini_index(), &mini[..]);
        assert_eq!(built.row_words(), &words[..]);
        assert_eq!(built.rows(), occs.len());
        let shared = shared_copy(&built);
        assert!(shared.tables_shared() && !built.tables_shared());
        assert_eq!(shared.mini_index(), built.mini_index());
        assert_eq!(shared.row_words(), built.row_words());
    }

    #[test]
    fn rows_of_a_repeated_kmer_are_in_ascending_offset_order() {
        // stride × groups = 2048 > partition length, so each row's start
        // bit and group bit decode its offset exactly.
        let part = generate_reference(&ReferenceProfile::human_like(), 2_000, 13);
        let cfg = FilterConfig::new(6, 3, 64, 32);
        let filter = PreSeedingFilter::build(&part, cfg);
        let offset = |row: &Row| {
            let si = row_indicator(row);
            si.groups.trailing_zeros() as usize * cfg.stride
                + si.start_mask.trailing_zeros() as usize
        };
        let rest_bits = 2 * (cfg.k - cfg.m);
        let mut repeated = 0;
        for (x, code) in part.kmers(cfg.k) {
            let mmer = (code >> rest_bits) as usize;
            let tag = (code & ((1 << rest_bits) - 1)) as u32;
            let (lo, hi) = (filter.mini_index()[mmer], filter.mini_index()[mmer + 1]);
            let offsets: Vec<usize> = filter.table()[lo as usize..hi as usize]
                .iter()
                .filter(|r| row_tag(r) == tag)
                .map(offset)
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
}
