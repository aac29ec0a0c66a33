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
//! 3. **data array** (SRAM, parallel to the tag array) — stores each
//!    occurrence's [`SearchIndicator`]; rows behind matching tag entries
//!    are read and OR-ed.
//!
//! Because every k-mer of the partition is enumerated, the filter has **no
//! false positives and no misses** (unlike GenCache's bloom filter), and
//! its footprint is `O(4^m + n)` — linear in `k`, which is what lets CASA
//! afford k = 19 where a dense index would need 4^19 entries.

use casa_genome::mix::{coin, site_hash};
use casa_genome::shared::{SharedSlice, SliceStore};
use casa_genome::PackedSeq;
use serde::{Deserialize, Serialize};

use crate::{IndicatorStore, SearchIndicator, TagLayout};

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
    /// Panics if `m >= k`, `k > 32`, `stride > 64`, or `groups > 32`.
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

/// The pre-seeding filter for one reference partition.
///
/// ```
/// use casa_genome::PackedSeq;
/// use casa_filter::{FilterConfig, PreSeedingFilter};
///
/// let part = PackedSeq::from_ascii(b"ACGTACGTTTGGAACCAGTC")?;
/// let mut filter = PreSeedingFilter::build(&part, FilterConfig::small(6, 3));
/// let read = PackedSeq::from_ascii(b"GTACGT")?;
/// let si = filter.lookup(&read, 0).expect("read long enough");
/// assert!(!si.is_empty()); // GTACGT occurs at partition offset 2
/// let miss = PackedSeq::from_ascii(b"GGGGGG")?;
/// assert!(filter.lookup(&miss, 0).unwrap().is_empty());
/// # Ok::<(), casa_genome::ParseBaseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct PreSeedingFilter {
    config: FilterConfig,
    /// `mini_index[mmer] .. mini_index[mmer + 1]` bounds the tag bucket.
    /// Owned when built in process, shared when loaded from an index
    /// image (likewise `tag` and `data`).
    mini_index: SliceStore<u32>,
    /// `(k−m)`-mer codes, sorted by (m-mer, rest) — i.e. by full k-mer.
    tag: SliceStore<u32>,
    /// Search indicator per tag row.
    data: IndicatorStore,
    /// §5 physical packing of the tag array.
    layout: TagLayout,
    partition_len: usize,
    stats: FilterStats,
}

impl PreSeedingFilter {
    /// Builds the filter tables for `partition` (the offline step of §4.1).
    pub fn build(partition: &PackedSeq, config: FilterConfig) -> PreSeedingFilter {
        config.validate();
        let (k, m) = (config.k, config.m);
        let rest = k - m;
        let mut keyed: Vec<(u64, u32, SearchIndicator)> = partition
            .kmers(k)
            .map(|(x, code)| {
                let mmer = code >> (2 * rest);
                let restmer = (code & ((1u64 << (2 * rest)) - 1)) as u32;
                (
                    mmer,
                    restmer,
                    SearchIndicator::of_occurrence(x, config.stride, config.groups),
                )
            })
            .map(|(mmer, restmer, si)| ((mmer << (2 * rest)) | u64::from(restmer), restmer, si))
            .collect();
        keyed.sort_unstable_by_key(|&(full, _, _)| full);

        let slots = 1usize << (2 * m);
        let mut mini_index = vec![0u32; slots + 1];
        let mut tag = Vec::with_capacity(keyed.len());
        let mut data: Vec<SearchIndicator> = Vec::with_capacity(keyed.len());
        for (full, restmer, si) in keyed {
            let mmer = (full >> (2 * rest)) as usize;
            mini_index[mmer + 1] += 1;
            tag.push(restmer);
            data.push(si);
        }
        for i in 1..mini_index.len() {
            mini_index[i] += mini_index[i - 1];
        }
        let layout = TagLayout::paper(tag.len().max(1));
        PreSeedingFilter {
            config,
            mini_index: mini_index.into(),
            tag: tag.into(),
            data: data.into(),
            layout,
            partition_len: partition.len(),
            stats: FilterStats::default(),
        }
    }

    /// Reassembles a filter from prebuilt tables — the zero-copy
    /// image-loading path. `data` uses the wire encoding of
    /// [`IndicatorStore`] (two `u64` words per record). Behaves exactly
    /// like the filter [`PreSeedingFilter::build`] would produce for the
    /// same partition and config.
    ///
    /// Fails (typed message) on any shape mismatch between the tables.
    pub fn from_shared_parts(
        config: FilterConfig,
        mini_index: SharedSlice<u32>,
        tag: SharedSlice<u32>,
        data: SharedSlice<u64>,
        partition_len: usize,
    ) -> Result<PreSeedingFilter, &'static str> {
        config.validate();
        let slots = 1usize << (2 * config.m);
        let mini = mini_index.as_slice();
        if mini.len() != slots + 1 {
            return Err("filter mini index has the wrong slot count for m");
        }
        let rows = tag.as_slice().len();
        if mini[slots] as usize != rows {
            return Err("filter mini index total disagrees with tag row count");
        }
        if data.as_slice().len() != rows * 2 {
            return Err("filter data array disagrees with tag row count");
        }
        let layout = TagLayout::paper(rows.max(1));
        Ok(PreSeedingFilter {
            config,
            mini_index: mini_index.into(),
            tag: tag.into(),
            data: data.into(),
            layout,
            partition_len,
            stats: FilterStats::default(),
        })
    }

    /// The mini-index prefix sums (the image writer persists these).
    pub fn mini_index(&self) -> &[u32] {
        self.mini_index.as_slice()
    }

    /// The tag array (restmer codes).
    pub fn tag(&self) -> &[u32] {
        self.tag.as_slice()
    }

    /// The data array in wire encoding (two `u64` words per record).
    pub fn data_words(&self) -> Vec<u64> {
        self.data.to_words()
    }

    /// The partition length the filter was built for.
    pub fn partition_len(&self) -> usize {
        self.partition_len
    }

    /// Whether the tables are backed by shared (mapped) storage.
    pub fn tables_shared(&self) -> bool {
        self.mini_index.is_shared() && self.tag.is_shared() && self.data.is_shared()
    }

    /// The filter's geometry.
    pub fn config(&self) -> &FilterConfig {
        &self.config
    }

    /// Number of tag/data rows (k-mer occurrences in the partition).
    pub fn rows(&self) -> usize {
        self.tag.len()
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
    pub fn lookup(&mut self, read: &PackedSeq, pivot: usize) -> Option<SearchIndicator> {
        let code = read.kmer_code(pivot, self.config.k)?;
        Some(self.lookup_code(code))
    }

    /// Looks up a pre-computed k-mer code.
    pub fn lookup_code(&mut self, code: u64) -> SearchIndicator {
        let rest_bits = 2 * (self.config.k - self.config.m);
        let mmer = (code >> rest_bits) as usize;
        let restmer = (code & ((1u64 << rest_bits) - 1)) as u32;

        self.stats.lookups += 1;
        self.stats.mini_index_reads += 1;
        let lo = self.mini_index[mmer] as usize;
        let hi = self.mini_index[mmer + 1] as usize;
        if lo == hi {
            return SearchIndicator::EMPTY;
        }
        // Range-gated CAM search over the bucket.
        self.stats.tag_searches += 1;
        self.stats.tag_rows_enabled += (hi - lo) as u64;
        self.stats.tag_physical_rows += self.layout.physical_rows(hi - lo) as u64;
        let bucket = &self.tag[lo..hi];
        let first = lo + bucket.partition_point(|&t| t < restmer);
        let mut si = SearchIndicator::EMPTY;
        let mut row = first;
        while row < hi && self.tag[row] == restmer {
            self.stats.data_reads += 1;
            si.merge(self.data.get(row));
            row += 1;
        }
        if !si.is_empty() {
            self.stats.hits += 1;
        }
        si
    }

    /// Pipeline distance `D` of the batched pass, in codes. While code `i`
    /// is looked up, the tag row and data row of code `i + D` and the
    /// mini-index slot of code `i + 2D` are in flight. Tuned with
    /// interleaved runs; a constant, not a knob.
    const LOOKUP_AHEAD: usize = 8;

    /// Looks up a whole batch of pre-computed k-mer codes in one
    /// software-pipelined pass, filling `out` with one indicator per code
    /// (cleared first).
    ///
    /// Semantically identical to calling [`lookup_code`](Self::lookup_code)
    /// per code — same indicators, same [`FilterStats`] deltas — but
    /// restructured for memory-level parallelism, as the hardware overlaps
    /// its three filter stages (paper Fig. 9). A lookup is three dependent
    /// misses: the mini-index slot (`4^m` entries, 4 MB at m = 10) gives
    /// `lo..hi`, which addresses the tag bucket, whose match addresses the
    /// data row. At code `i` the pass prefetches the mini-index slot of
    /// code `i + 2D`, reads the (by now resident) slot of code `i + D` and
    /// prefetches its first tag and data rows, then runs the unchanged
    /// `lookup_code` on code `i`, whose lines have had two stages to
    /// arrive. Prefetches never change what is read, only when.
    pub fn lookup_codes_into(&mut self, codes: &[u64], out: &mut Vec<SearchIndicator>) {
        const D: usize = PreSeedingFilter::LOOKUP_AHEAD;
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
            out.push(self.lookup_code(code));
        }
    }

    /// Pipeline stage 1: starts fetching the mini-index slot of `code`.
    #[inline(always)]
    fn prefetch_slot(&self, code: u64) {
        let mmer = (code >> (2 * (self.config.k - self.config.m))) as usize;
        prefetch(&self.mini_index[mmer]);
    }

    /// Pipeline stage 2: reads the slot of `code` and, for a non-empty
    /// bucket, starts fetching its first tag row and data row.
    #[inline(always)]
    fn prefetch_bucket(&self, code: u64) {
        let mini = self.mini_index.as_slice();
        let mmer = (code >> (2 * (self.config.k - self.config.m))) as usize;
        let lo = mini[mmer] as usize;
        if lo != mini[mmer + 1] as usize {
            prefetch(&self.tag[lo]);
            self.data.prefetch_row(lo);
        }
    }

    /// Looks up only the m-mer prefix: the OR of the indicators of every
    /// k-mer sharing it. Used by the exact-match pre-processing (§4.3),
    /// which aligns several non-overlapping m-mers before attempting a
    /// whole-read match.
    pub fn lookup_mmer(&mut self, read: &PackedSeq, pivot: usize) -> Option<SearchIndicator> {
        let code = read.kmer_code(pivot, self.config.m)?;
        Some(self.lookup_mmer_code(code))
    }

    /// [`PreSeedingFilter::lookup_mmer`] for a pre-computed m-mer code —
    /// the form the engine's rolling-code hot path feeds directly.
    pub fn lookup_mmer_code(&mut self, code: u64) -> SearchIndicator {
        let mmer = code as usize;
        self.stats.lookups += 1;
        self.stats.mini_index_reads += 1;
        let lo = self.mini_index[mmer] as usize;
        let hi = self.mini_index[mmer + 1] as usize;
        let mut si = SearchIndicator::EMPTY;
        for row in lo..hi {
            self.stats.data_reads += 1;
            si.merge(self.data.get(row));
        }
        if !si.is_empty() {
            self.stats.hits += 1;
        }
        si
    }

    /// Whether the k-mer at `read[pivot..]` exists in the partition (the
    /// CRkM existence check of Algorithm 1). A full filter lookup.
    pub fn contains(&mut self, read: &PackedSeq, pivot: usize) -> bool {
        self.lookup(read, pivot).is_some_and(|si| !si.is_empty())
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

    /// Activity counters.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Resets activity counters.
    pub fn reset_stats(&mut self) {
        self.stats = FilterStats::default();
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
        let data = self.data.to_mut();
        for (row, si) in data.iter_mut().enumerate() {
            let h = site_hash(model.seed, &[DOMAIN_FILTER_FLIP, row as u64]);
            if coin(h, model.flip_rate) {
                // Reuse independent high hash bits to pick the flipped bit.
                let bit = (h >> 32) % stride;
                si.start_mask ^= 1 << bit;
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
            share(filter.tag().to_vec()),
            share(filter.data_words()),
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
        assert!(shared.tables_shared() && !faulted.data.is_shared());

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
            let mut serial = filter.clone();
            let mut batched = filter;
            // Stale garbage in `out` must be cleared; each length runs
            // twice on the same filter, so stats keep accumulating.
            let mut out = vec![SearchIndicator::EMPTY; 3];
            for len in lens.into_iter().chain(lens) {
                let batch = &codes[..len];
                let per_code: Vec<SearchIndicator> =
                    batch.iter().map(|&c| serial.lookup_code(c)).collect();
                batched.lookup_codes_into(batch, &mut out);
                assert_eq!(out, per_code, "{name}: {len} codes");
                assert_eq!(batched.stats(), serial.stats(), "{name}: {len} codes");
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
        let mut filter = PreSeedingFilter::build(&part, cfg);
        // all present k-mers hit, with correct indicator bits
        for (x, code) in part.kmers(cfg.k) {
            let si = filter.lookup_code(code);
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
                filter.lookup_code(code).is_empty(),
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
        let mut filter = PreSeedingFilter::build(&part, cfg);
        let si = filter.lookup(&seq("ACGTAC"), 0).unwrap();
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
        let mut filter = PreSeedingFilter::build(&part, cfg);
        assert_eq!(filter.rows(), 11);
        filter.lookup(&seq("AAAAAA"), 0).unwrap();
        let st = filter.stats();
        assert_eq!(st.lookups, 1);
        assert_eq!(st.mini_index_reads, 1);
        assert_eq!(st.tag_searches, 1);
        assert_eq!(st.tag_rows_enabled, 11); // whole AAA bucket powered
        assert_eq!(st.data_reads, 11);
        assert_eq!(st.hits, 1);
        // a miss in an empty bucket costs no tag search at all
        filter.lookup(&seq("GGGGGG"), 0).unwrap();
        let st = filter.stats();
        assert_eq!(st.tag_searches, 1);
        assert_eq!(st.lookups, 2);
    }

    #[test]
    fn lookup_too_close_to_read_end_is_none() {
        let part = seq("ACGTACGTACGT");
        let mut filter = PreSeedingFilter::build(&part, FilterConfig::small(6, 3));
        let read = seq("ACGTA");
        assert!(filter.lookup(&read, 0).is_none());
        assert!(filter.lookup(&read, 3).is_none());
    }

    #[test]
    fn mmer_lookup_unions_bucket() {
        let part = seq("ACGTTTTACGAAAACGCC");
        let cfg = FilterConfig::small(6, 3);
        let mut filter = PreSeedingFilter::build(&part, cfg);
        // "ACG" occurs at 0, 7, 14 (prefix of k-mers at 0 and 7; the one
        // at 14 has no full 6-mer but ACG-prefixed k-mers at 0/7 cover it).
        let si = filter.lookup_mmer(&seq("ACG"), 0).unwrap();
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
        let mut by_read = PreSeedingFilter::build(&part, cfg);
        let mut by_code = by_read.clone();
        for (off, code) in part.kmers(cfg.m).take(200) {
            assert_eq!(
                by_read.lookup_mmer(&part, off).unwrap(),
                by_code.lookup_mmer_code(code),
                "offset {off}"
            );
        }
        assert_eq!(by_read.stats(), by_code.stats());
    }

    #[test]
    fn footprint_matches_paper_45mb() {
        // Paper: 45 MB filter for a 4 M-base (1 MB) partition at k=19,
        // m=10, 40-base stride, 20 groups.
        let cfg = FilterConfig::default();
        let filter = PreSeedingFilter {
            config: cfg,
            mini_index: vec![0; 2].into(),
            tag: vec![].into(),
            data: Vec::new().into(),
            layout: TagLayout::paper(4 << 20),
            partition_len: 4 << 20,
            stats: FilterStats::default(),
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
            assert_ne!(
                a.data.get(row as usize),
                clean.data.get(row as usize),
                "row {row} should differ from the clean build"
            );
        }
        // Rows outside the report are untouched.
        let faulty: std::collections::HashSet<u32> = ra.rows.iter().copied().collect();
        for row in 0..a.rows() {
            if !faulty.contains(&(row as u32)) {
                assert_eq!(a.data.get(row), clean.data.get(row));
            }
        }
        // Zero rate is a no-op.
        let mut c = clean.clone();
        assert_eq!(c.inject_faults(&FilterFaultModel::default()).sites(), 0);
    }

    #[test]
    fn contains_is_lookup_nonempty() {
        let part = seq("ACGTACGTTTGG");
        let mut filter = PreSeedingFilter::build(&part, FilterConfig::small(6, 3));
        assert!(filter.contains(&seq("ACGTAC"), 0));
        assert!(!filter.contains(&seq("CCCCCC"), 0));
        assert!(!filter.contains(&seq("ACG"), 0)); // too short
    }
}
