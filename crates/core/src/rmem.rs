//! Multi-stride RMEM search on the SMEM computing CAM (paper §4.1).
//!
//! Given a pivot whose k-mer survived the pre-seeding filter, the search
//! indicator tells us (a) the in-entry offsets where occurrences start and
//! (b) which CAM groups hold them. For each start offset `p` the engine
//! issues a wildcard-padded first search, then strides entry by entry —
//! enabling only the successors of the entries that matched in the
//! previous cycle (DFF-based selective enabling) — and finally binary
//! searches inside the first mismatched stride for the exact match end.
//!
//! Each start offset is searched as straight-line code, one CAM search
//! per cycle as in the hardware: the first search, the stride chase, and
//! the binary search of the stride that misses. The start offsets run in
//! ascending order, each to completion, and the longest match wins.
//!
//! A search costs what its candidates cost. The first search from every
//! start offset, and the binary probes refining a first search that
//! found nothing, power the rows of the pivot's indicated groups. Stride
//! searches and all other binary probes carry their candidates as a
//! sorted entry list — the frontier's successors or the last probe's hits
//! — and run through [`Bcam::search_list_into`], which touches only the
//! words holding a candidate.
//!
//! A group search whose query covers at least `m` bases need not walk
//! the groups either: the pre-seeding filter knows where the pivot's
//! m-mer occurs ([`Occurrences`], the rows of its sub-bucket). For start
//! offset `p` the candidates are the entries `x / s` of the rows `x` with
//! `x mod s = p` whose group `(x / s) mod G` is indicated, plus the
//! indicated entries holding an offset `e·s + p` at or past the tail
//! (the last `k − 1` offsets, which start no k-mer and so have no row).
//! Every hit of the group search is an indicated entry `e` whose columns
//! from `p` on match the read from the pivot, so the m-mer occurs at
//! `e·s + p`: a row of the sub-bucket or a tail offset, hence a
//! candidate. [`Bcam::search_candidates_into`] evaluates only those
//! entries and books the group search's rows and arrays
//! ([`Bcam::group_cost`]), so hits and [`CamStats`] are the group
//! search's. A CAM with injected faults can match where the partition
//! does not, a query of fewer than `m` bases is not bounded by the
//! m-mer's occurrences, and a sub-bucket of more than
//! [`OCCURRENCE_ROWS`] rows (a repeat) costs more to list and search
//! than the walk; those searches walk the groups, loaded from the
//! indicator's group bits ([`Bcam::load_groups`]: entry `e` is in group
//! `e mod G`, so one period of words is tiled over the CAM) the first
//! time a pivot needs them.
//!
//! A [`CamSearcher`] is only read while searching: every buffer a search
//! writes sits in the caller's [`SearchScratch`], and CAM activity is
//! booked into the caller's [`CamStats`].

use casa_cam::{
    Bcam, CamQuery, CamScratch, CamStats, GroupCost, GroupScheme, KernelBackend, LoadedMask,
};
use casa_filter::{Occurrences, SearchIndicator};
use casa_genome::PackedSeq;

/// Most rows a pivot's sub-bucket may hold for its group searches to run
/// over its occurrences; a larger one keeps the group walk, whose cost
/// does not grow with the occurrences. Over 1 Mb partitions (stride 40,
/// 20 groups, m = 10) on a 2-vCPU AVX2 Xeon, the occurrence path saved
/// 1.5 µs per group search at 220 rows, broke even near 440 and lost
/// 2.2 µs at 880; this bound keeps a margin below that crossover.
pub const OCCURRENCE_ROWS: usize = 256;

/// Result of one RMEM computation in the CAM.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RmemResult {
    /// Length of the right-maximal exact match from the pivot (within this
    /// partition). Zero if nothing matched.
    pub len: usize,
    /// Partition-local start positions of the maximal match, sorted
    /// ascending.
    pub positions: Vec<u32>,
    /// CAM search operations issued (each is one computing-stage cycle).
    pub searches: u64,
}

/// Reusable buffers of the multi-stride search, so the hot path issues no
/// allocations after warm-up, plus the CAM word kernel the search runs
/// on. One instance per searching thread; it serves searchers of any
/// size, and its contents are meaningless between calls.
#[derive(Clone, Debug, Default)]
pub struct SearchScratch {
    /// The query of the next search, refilled in place.
    query: CamQuery,
    /// The entries a group search of the current start offset can hit,
    /// when it covers at least `m` bases (see the module docs).
    occurrences: Vec<u32>,
    /// Entries matching at the last completed stride.
    frontier: Vec<u32>,
    /// The frontier's in-range successors, ascending: the candidates of
    /// the stride search and of a mid-chase binary search's first probes.
    succ: Vec<u32>,
    /// Entries matching at the binary search's best length so far: the
    /// candidates of every later probe.
    best: Vec<u32>,
    /// Hits of the search just issued.
    hits: Vec<u32>,
    /// Partition-local start positions of the current start offset's
    /// match.
    positions: Vec<u32>,
    /// The pivot's indicated groups, loaded the first time one of its
    /// group searches walks them and shared by the rest.
    loaded: LoadedMask,
    /// The CAM's match-line words and word kernel.
    cam: CamScratch,
}

impl SearchScratch {
    /// Scratch whose mask searches run on `backend`'s word kernel (an
    /// unsupported backend falls back as [`CamScratch::new`] describes).
    pub fn new(backend: KernelBackend) -> SearchScratch {
        SearchScratch {
            cam: CamScratch::new(backend),
            ..SearchScratch::default()
        }
    }

    /// The effective CAM word kernel.
    pub fn kernel_backend(&self) -> KernelBackend {
        self.cam.kernel_backend()
    }

    /// Writes into `positions` the partition-local start positions of
    /// the match the frontier reports after `steps` full strides from
    /// start offset `p`.
    fn frontier_positions(&mut self, steps: usize, stride: usize, p: usize) {
        self.positions.clear();
        self.positions.extend(
            self.frontier
                .iter()
                .map(|&e| ((e as usize - steps) * stride + p) as u32),
        );
    }
}

/// What a search runs over.
#[derive(Clone, Copy)]
enum Over {
    /// The frontier's successors, [`SearchScratch::succ`].
    Succ,
    /// The binary search's best hits, [`SearchScratch::best`].
    Best,
    /// The pivot's groups, for a query covering this many read bases.
    Groups(usize),
}

/// One pivot's RMEM search: its read, indicated groups and CAM, the
/// buffers it writes, and what it has loaded and issued so far.
struct PivotSearch<'a> {
    cam: &'a Bcam,
    scheme: &'a GroupScheme,
    group_bits: u32,
    read: &'a PackedSeq,
    pivot: usize,
    /// The m-mer's occurrences, when group searches may run over them.
    occurrences: Option<Occurrences<'a>>,
    /// The cost of a group search, computed the first time one runs over
    /// the occurrences.
    cost: Option<GroupCost>,
    /// Whether `scratch.loaded` holds the pivot's groups.
    loaded: bool,
    /// CAM searches issued.
    searches: u64,
    scratch: &'a mut SearchScratch,
    stats: &'a mut CamStats,
}

impl PivotSearch<'_> {
    /// Issues `scratch.query` over `over` into `scratch.hits`, booking its
    /// activity. A group search runs over the occurrences when its query
    /// covers at least `m` bases, and otherwise walks the groups.
    fn search(&mut self, over: Over) {
        let SearchScratch {
            query,
            occurrences,
            succ,
            best,
            hits,
            loaded,
            cam,
            ..
        } = &mut *self.scratch;
        match over {
            Over::Succ => self.cam.search_list_into(query, succ, self.stats, hits),
            Over::Best => self.cam.search_list_into(query, best, self.stats, hits),
            Over::Groups(bases) if self.occurrences.is_some_and(|occ| bases >= occ.m()) => {
                let cost = self
                    .cost
                    .get_or_insert_with(|| self.cam.group_cost(self.scheme, self.group_bits));
                self.cam
                    .search_candidates_into(query, cost, occurrences, self.stats, hits)
            }
            Over::Groups(_) => {
                if !self.loaded {
                    self.cam.load_groups(self.scheme, self.group_bits, loaded);
                    self.loaded = true;
                }
                self.cam
                    .search_loaded_into(query, loaded, cam, self.stats, hits)
            }
        }
        self.searches += 1;
    }

    /// The RMEM from start offset `p`: the wildcard-padded first search
    /// over the pivot's groups, then one search per stride over the
    /// successors of the last hits, until the read ends, no hit has a
    /// successor or a stride misses; a miss is refined by binary search.
    /// Returns the match length and, when it is not zero, leaves the
    /// match's start positions in `scratch.positions`.
    fn chase(&mut self, p: usize) -> usize {
        let (stride, entries) = (self.cam.entry_bases(), self.cam.entries());
        if let Some(occ) = self.occurrences {
            // Offset p's rows, then its tail entries, which lie above
            // every row's. Rows are kept only before the tail and
            // deduplicated, so even a corrupt image's rows leave the list
            // strictly ascending.
            let (groups, group_bits) = (self.scheme.groups, self.group_bits);
            let powered =
                |e: usize| group_bits.checked_shr((e % groups) as u32).unwrap_or(0) & 1 != 0;
            let list = &mut self.scratch.occurrences;
            let tail = occ.tail();
            list.clear();
            list.extend(
                occ.offsets()
                    .filter(|&x| x < tail && x % stride == p && powered(x / stride))
                    .map(|x| (x / stride) as u32),
            );
            list.sort_unstable();
            list.dedup();
            let first_tail = tail.saturating_sub(p).div_ceil(stride);
            list.extend(
                (first_tail..entries)
                    .filter(|&e| powered(e))
                    .map(|e| e as u32),
            );
        }
        let remaining = self.read.len() - self.pivot;
        let first = (stride - p).min(remaining);
        self.scratch
            .query
            .fill_padded(self.read, self.pivot, first, p);
        self.search(Over::Groups(first));
        if self.scratch.hits.is_empty() {
            let len = self.refine(self.pivot, p, first, true);
            if len > 0 {
                self.scratch.frontier_positions(0, stride, p);
            }
            return len;
        }
        std::mem::swap(&mut self.scratch.frontier, &mut self.scratch.hits);
        let (mut matched, mut steps) = (first, 0);
        while matched < remaining {
            // The frontier ascends, so its successors do too; only the
            // last entry has none.
            let SearchScratch { frontier, succ, .. } = &mut *self.scratch;
            succ.clear();
            succ.extend(
                frontier
                    .iter()
                    .map(|&e| e + 1)
                    .filter(|&e| (e as usize) < entries),
            );
            if succ.is_empty() {
                break;
            }
            let len = stride.min(remaining - matched);
            let from = self.pivot + matched;
            self.scratch.query.fill_padded(self.read, from, len, 0);
            self.search(Over::Succ);
            if self.scratch.hits.is_empty() {
                let len = self.refine(from, 0, len, false);
                if len > 0 {
                    matched += len;
                    steps += 1;
                }
                break;
            }
            matched += len;
            steps += 1;
            std::mem::swap(&mut self.scratch.frontier, &mut self.scratch.hits);
        }
        self.scratch.frontier_positions(steps, stride, p);
        matched
    }

    /// Binary search for the longest prefix of `read[from..from + len]`
    /// that matches, `len` itself having missed, with `pad` wildcards in
    /// front. Probes run over the best hits so far; before any hit, over
    /// the pivot's groups when refining the `first` search, else over the
    /// successors. Returns the prefix length; when it is not zero, its
    /// hits replace the frontier.
    fn refine(&mut self, from: usize, pad: usize, len: usize, first: bool) -> usize {
        self.scratch.best.clear();
        let (mut lo, mut hi) = (0, len);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            self.scratch.query.fill_padded(self.read, from, mid, pad);
            self.search(if !self.scratch.best.is_empty() {
                Over::Best
            } else if first {
                Over::Groups(mid)
            } else {
                Over::Succ
            });
            if self.scratch.hits.is_empty() {
                hi = mid;
            } else {
                lo = mid;
                std::mem::swap(&mut self.scratch.best, &mut self.scratch.hits);
            }
        }
        if lo > 0 {
            std::mem::swap(&mut self.scratch.frontier, &mut self.scratch.best);
        }
        lo
    }
}

/// The SMEM computing CAM plus its group scheme.
#[derive(Clone, Debug)]
pub struct CamSearcher {
    cam: Bcam,
    scheme: GroupScheme,
}

impl CamSearcher {
    /// Loads a reference partition into the computing CAM.
    pub fn new(partition: &PackedSeq, stride: usize, groups: usize) -> CamSearcher {
        CamSearcher::from_cam(Bcam::new(partition, stride), groups)
    }

    /// Wraps an already-constructed CAM (typically one whose bit planes
    /// are shared from a mapped index image; see
    /// [`Bcam::from_shared_planes`]).
    pub fn from_cam(cam: Bcam, groups: usize) -> CamSearcher {
        CamSearcher {
            cam,
            scheme: GroupScheme::new(groups),
        }
    }

    /// The underlying CAM.
    pub fn cam(&self) -> &Bcam {
        &self.cam
    }

    /// Injects seeded faults into the computing CAM (see
    /// [`casa_cam::CamFaultModel`]) and returns the chosen sites.
    pub fn inject_faults(&mut self, model: &casa_cam::CamFaultModel) -> casa_cam::CamFaultReport {
        self.cam.inject_faults(model)
    }

    /// An all-ones indicator (every start offset and group enabled) — the
    /// naive mode without a filter table.
    pub fn full_indicator(&self) -> SearchIndicator {
        let stride = self.cam.entry_bases();
        let groups = self.scheme.groups;
        SearchIndicator {
            start_mask: if stride == 64 {
                u64::MAX
            } else {
                (1u64 << stride) - 1
            },
            groups: if groups == 32 {
                u32::MAX
            } else {
                (1u32 << groups) - 1
            },
        }
    }

    /// Computes the RMEM starting at `read[pivot..]` using the indicator's
    /// start offsets and groups into `out` (its buffers are reused),
    /// booking the CAM activity into `stats`. `occurrences`, when given,
    /// are those of the m-mer at `read[pivot..]` in this CAM's partition
    /// (its filter sub-bucket, [`casa_filter::PreSeedingFilter::occurrences`]);
    /// they only speed the group searches up (see the module docs), and
    /// giving another m-mer's is a logic error.
    ///
    /// Every enabled start offset below the stride is searched to
    /// completion before the next one starts; the longest match wins and
    /// ties append, so positions come out sorted and deduplicated.
    #[allow(clippy::too_many_arguments)]
    pub fn rmem_into(
        &self,
        read: &PackedSeq,
        pivot: usize,
        si: &SearchIndicator,
        occurrences: Option<Occurrences<'_>>,
        scratch: &mut SearchScratch,
        stats: &mut CamStats,
        out: &mut RmemResult,
    ) {
        let stride = self.cam.entry_bases();
        out.len = 0;
        out.positions.clear();
        let mut search = PivotSearch {
            cam: &self.cam,
            scheme: &self.scheme,
            group_bits: si.groups,
            read,
            pivot,
            occurrences: occurrences
                .filter(|occ| occ.len() <= OCCURRENCE_ROWS && !self.cam.is_faulted()),
            cost: None,
            loaded: false,
            searches: 0,
            scratch,
            stats,
        };
        let mut start_bits = si.start_mask;
        while start_bits != 0 {
            let p = start_bits.trailing_zeros() as usize;
            start_bits &= start_bits - 1;
            if p >= stride {
                break;
            }
            let len = search.chase(p);
            if len > out.len {
                out.len = len;
                out.positions.clear();
            }
            if len == out.len && len > 0 {
                out.positions.extend_from_slice(&search.scratch.positions);
            }
        }
        out.searches = search.searches;
        out.positions.sort_unstable();
        out.positions.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_filter::{FilterConfig, FilterStats, PreSeedingFilter};
    use casa_index::SuffixArray;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes()).unwrap()
    }

    /// One RMEM on `scratch`, booking into `stats`.
    fn rmem_with(
        searcher: &CamSearcher,
        read: &PackedSeq,
        pivot: usize,
        si: &SearchIndicator,
        occurrences: Option<Occurrences<'_>>,
        scratch: &mut SearchScratch,
        stats: &mut CamStats,
    ) -> RmemResult {
        let mut out = RmemResult::default();
        searcher.rmem_into(read, pivot, si, occurrences, scratch, stats, &mut out);
        out
    }

    /// One RMEM on fresh scratch, activity discarded.
    fn rmem(
        searcher: &CamSearcher,
        read: &PackedSeq,
        pivot: usize,
        si: &SearchIndicator,
        occurrences: Option<Occurrences<'_>>,
    ) -> RmemResult {
        let mut scratch = SearchScratch::default();
        rmem_with(
            searcher,
            read,
            pivot,
            si,
            occurrences,
            &mut scratch,
            &mut CamStats::default(),
        )
    }

    /// The occurrences of the m-mer at `read[pivot..]` in `filter`'s
    /// partition 0.
    fn occurrences<'f>(
        filter: &'f PreSeedingFilter,
        read: &PackedSeq,
        pivot: usize,
    ) -> Option<Occurrences<'f>> {
        let code = read.kmer_code(pivot, filter.config().k)?;
        Some(filter.occurrences(0, filter.sub_bucket(0, code)))
    }

    /// A filter lookup with its activity discarded.
    fn lookup(
        filter: &PreSeedingFilter,
        read: &PackedSeq,
        pivot: usize,
    ) -> Option<SearchIndicator> {
        filter.lookup(0, read, pivot, &mut FilterStats::default())
    }

    /// RMEM via CAM must equal the suffix-array longest match when driven
    /// by a real filter indicator.
    #[test]
    fn rmem_matches_suffix_array_on_random_data() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let cfg = FilterConfig::small(6, 3); // stride 8, 4 groups
        for trial in 0..20 {
            let part: PackedSeq = (0..300)
                .map(|_| casa_genome::Base::from_code(rng.gen_range(0..4)))
                .collect();
            let sa = SuffixArray::build(&part);
            let filter = PreSeedingFilter::build(&part, cfg);
            let searcher = CamSearcher::new(&part, cfg.stride, cfg.groups);
            for _ in 0..30 {
                // read stitched from the partition so k-mers usually hit
                let s = rng.gen_range(0..part.len() - 60);
                let mut read = part.subseq(s, 50);
                if rng.gen_bool(0.5) {
                    read.extend(part.subseq(rng.gen_range(0..200), 10).iter());
                }
                for pivot in 0..=read.len() - cfg.k {
                    let si = lookup(&filter, &read, pivot).unwrap();
                    if si.is_empty() {
                        let (l, _) = sa.longest_match(&read, pivot);
                        assert!(l < cfg.k, "filter miss but match of length {l}");
                        continue;
                    }
                    let occ = occurrences(&filter, &read, pivot);
                    let rmem = rmem(&searcher, &read, pivot, &si, occ);
                    let (l, iv) = sa.longest_match(&read, pivot);
                    assert_eq!(rmem.len, l, "trial {trial} pivot {pivot}");
                    let mut expect: Vec<u32> = sa.positions(iv).map(|x| x as u32).collect();
                    expect.sort_unstable();
                    assert_eq!(rmem.positions, expect, "trial {trial} pivot {pivot}");
                }
            }
        }
    }

    #[test]
    fn naive_full_indicator_also_finds_rmem() {
        let part = seq("ACGTACGTTTGGAACCAGTCAGGT");
        let sa = SuffixArray::build(&part);
        let searcher = CamSearcher::new(&part, 8, 4);
        let full = searcher.full_indicator();
        let read = seq("GTTTGGAACCAG");
        let rmem = rmem(&searcher, &read, 0, &full, None);
        let (l, _) = sa.longest_match(&read, 0);
        assert_eq!(rmem.len, l);
    }

    #[test]
    fn match_spanning_many_entries() {
        // 64-base match across 8-base entries: 8 strides.
        let part = seq(&"ACGT".repeat(32)); // 128 bases
        let searcher = CamSearcher::new(&part, 8, 4);
        let read = part.subseq(4, 64);
        let full = searcher.full_indicator();
        let rmem = rmem(&searcher, &read, 0, &full, None);
        assert_eq!(rmem.len, 64);
        // Occurrences every 4 bases while 64 more bases remain: starts
        // 0,4,...,60 -> but matches starting at odd entry offsets also
        // count; just check the known ground truth via containment:
        assert!(rmem.positions.contains(&4));
        for &pos in &rmem.positions {
            assert!(part.matches(pos as usize, &read, 0, 64));
        }
    }

    #[test]
    fn mid_stride_end_found_by_binary_search() {
        let part = seq("AAAAAAAACCCCCCCCGGGGGGGG"); // entries of 8
        let searcher = CamSearcher::new(&part, 8, 4);
        // read matches 11 bases: 8 A's then CCC then diverges
        let read = seq("AAAAAAAACCCTTTTT");
        let rmem = rmem(&searcher, &read, 0, &searcher.full_indicator(), None);
        assert_eq!(rmem.len, 11);
        assert_eq!(rmem.positions, vec![0]);
    }

    #[test]
    fn first_stride_partial_match() {
        let part = seq("ACGTACGTTTTTTTTT");
        let searcher = CamSearcher::new(&part, 8, 4);
        // read matches only 5 bases at position 0
        let read = seq("ACGTATTT");
        let rmem = rmem(&searcher, &read, 0, &searcher.full_indicator(), None);
        assert_eq!(rmem.len, 5);
        assert_eq!(rmem.positions, vec![0]);
    }

    #[test]
    fn no_match_returns_zero() {
        let part = seq("AAAAAAAAAAAAAAAA");
        let searcher = CamSearcher::new(&part, 8, 4);
        let read = seq("GGGGGGGG");
        let rmem = rmem(&searcher, &read, 0, &searcher.full_indicator(), None);
        assert_eq!(
            rmem,
            RmemResult {
                searches: rmem.searches,
                ..RmemResult::default()
            }
        );
        assert!(rmem.searches >= 1);
    }

    #[test]
    fn group_gating_saves_rows() {
        let part = seq(&"ACGT".repeat(16)); // 8 entries of 8 bases
        let cfg = FilterConfig::small(6, 3);
        let filter = PreSeedingFilter::build(&part, cfg);
        let searcher = CamSearcher::new(&part, cfg.stride, cfg.groups);
        let mut scratch = SearchScratch::default();
        let read = part.subseq(0, 8);
        let si = lookup(&filter, &read, 0).unwrap();
        let mut gated = CamStats::default();
        let occ = occurrences(&filter, &read, 0);
        rmem_with(&searcher, &read, 0, &si, occ, &mut scratch, &mut gated);
        let mut naive = CamStats::default();
        let full = searcher.full_indicator();
        rmem_with(&searcher, &read, 0, &full, occ, &mut scratch, &mut naive);
        let (gated, naive) = (gated.rows_enabled, naive.rows_enabled);
        assert!(
            gated <= naive,
            "group gating must not enable more rows ({gated} vs {naive})"
        );
    }

    /// The scratch (query, candidate lists, loaded groups, hit buffers,
    /// match lines) carries over from pivot to pivot; reusing it must not
    /// change results, searches counts, or CAM activity against fresh
    /// scratch per pivot.
    #[test]
    fn reused_searcher_matches_fresh_searcher_per_pivot() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let cfg = FilterConfig::small(6, 3); // stride 8, 4 groups
        let part: PackedSeq = (0..400)
            .map(|_| casa_genome::Base::from_code(rng.gen_range(0..4)))
            .collect();
        let filter = PreSeedingFilter::build(&part, cfg);
        let searcher = CamSearcher::new(&part, cfg.stride, cfg.groups);
        let mut reused = SearchScratch::default();
        let (mut reused_stats, mut fresh_stats) = (CamStats::default(), CamStats::default());
        for trial in 0..20 {
            let s = rng.gen_range(0..part.len() - 80);
            let read = part.subseq(s, 60);
            for pivot in 0..=read.len() - cfg.k {
                let si = lookup(&filter, &read, pivot).unwrap();
                if si.is_empty() {
                    continue;
                }
                let mut fresh = SearchScratch::default();
                let occ = occurrences(&filter, &read, pivot);
                let expect = rmem_with(
                    &searcher,
                    &read,
                    pivot,
                    &si,
                    occ,
                    &mut fresh,
                    &mut fresh_stats,
                );
                let got = rmem_with(
                    &searcher,
                    &read,
                    pivot,
                    &si,
                    occ,
                    &mut reused,
                    &mut reused_stats,
                );
                assert_eq!(got, expect, "trial {trial} pivot {pivot}");
            }
        }
        assert_eq!(reused_stats, fresh_stats);
    }

    /// The CAM activity of a fixed read set — searches, enabled rows,
    /// activated arrays and matches — is the energy model's input, so it
    /// is pinned to recorded totals, fault-free and under stuck-at and
    /// bit-flip faults: however a search carries its candidates (masks,
    /// lists or the pivot's occurrences), it must book the activity of
    /// the equivalent mask. Two inputs: reads over a human-like partition,
    /// and reads over a poly-A run (whose m-mer's sub-bucket exceeds
    /// [`OCCURRENCE_ROWS`], so its group searches walk the groups) and a
    /// tandem copy.
    #[test]
    fn cam_activity_of_a_fixed_read_set_is_pinned() {
        use casa_cam::CamFaultModel;
        use casa_genome::synth::{generate_reference, ReferenceProfile};
        use casa_genome::Base;
        use rand::{Rng, SeedableRng};
        let cfg = FilterConfig::new(12, 6, 40, 20);
        /// 48 reads of 101 bases from `codes`, starting in `starts`: a
        /// quarter exact, half with two substitutions (the chase stops
        /// mid-read and the binary search runs over the successor
        /// candidates), a quarter unrelated (first-search misses and mask
        /// probes).
        fn reads(codes: &[u8], starts: &[(usize, usize)], seed: u64) -> Vec<PackedSeq> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..48)
                .map(|i| {
                    let (lo, hi) = starts[i % starts.len()];
                    let s = rng.gen_range(lo..hi);
                    let mut read = codes[s..s + 101].to_vec();
                    match i % 4 {
                        1 | 2 => {
                            for _ in 0..2 {
                                let at = rng.gen_range(0..read.len());
                                read[at] ^= 1 + rng.gen_range(0..3u8);
                            }
                        }
                        3 => read.iter_mut().for_each(|c| *c = rng.gen_range(0..4)),
                        _ => {}
                    }
                    read.into_iter().map(Base::from_code).collect()
                })
                .collect()
        }
        let human = generate_reference(&ReferenceProfile::human_like(), 48_000, 21);
        let human_codes: Vec<u8> = human.iter().map(|b| b.code()).collect();
        let human_reads = reads(&human_codes, &[(0, human.len() - 101)], 2121);
        let mut repeat_codes: Vec<u8> =
            generate_reference(&ReferenceProfile::human_like(), 16_000, 22)
                .iter()
                .map(|b| b.code())
                .collect();
        let (run, unit) = (4_000, 9_000..9_300);
        repeat_codes[run..run + POLY_A].fill(0);
        repeat_codes.copy_within(unit.clone(), unit.end);
        let repeat: PackedSeq = repeat_codes.iter().map(|&c| Base::from_code(c)).collect();
        let repeat_reads = reads(
            &repeat_codes,
            &[
                (run - 60, run + POLY_A - 40),
                (unit.start - 60, unit.end + 200),
            ],
            2222,
        );
        let faulted = CamFaultModel {
            seed: 5,
            stuck_rate: 0.02,
            flip_rate: 0.001,
        };
        let mut totals = Vec::new();
        for (part, reads) in [(&human, &human_reads), (&repeat, &repeat_reads)] {
            let filter = PreSeedingFilter::build(part, cfg);
            for model in [None, Some(faulted)] {
                let mut searcher = CamSearcher::new(part, cfg.stride, cfg.groups);
                if let Some(m) = &model {
                    searcher.inject_faults(m);
                }
                let mut scratch = SearchScratch::default();
                let mut stats = CamStats::default();
                let mut out = RmemResult::default();
                let (mut searches, mut bases, mut positions) = (0u64, 0usize, 0usize);
                let mut oversize = 0;
                for read in reads {
                    for pivot in 0..=read.len() - cfg.k {
                        let si = lookup(&filter, read, pivot).unwrap();
                        if si.is_empty() {
                            continue;
                        }
                        let occ = occurrences(&filter, read, pivot);
                        oversize += occ.is_some_and(|occ| occ.len() > OCCURRENCE_ROWS) as usize;
                        searcher.rmem_into(
                            read,
                            pivot,
                            &si,
                            occ,
                            &mut scratch,
                            &mut stats,
                            &mut out,
                        );
                        searches += out.searches;
                        bases += out.len;
                        positions += out.positions.len();
                    }
                }
                assert_eq!(stats.searches, searches);
                assert_eq!(oversize > 0, std::ptr::eq(part, &repeat));
                totals.push((stats, bases, positions));
            }
        }
        let pinned = [
            (
                CamStats {
                    searches: 29_209,
                    rows_enabled: 1_499_632,
                    arrays_activated: 63_296,
                    matches: 24_880,
                },
                114_976,
                3_275,
            ),
            (
                CamStats {
                    searches: 28_764,
                    rows_enabled: 1_122_840,
                    arrays_activated: 73_781,
                    matches: 34_891,
                },
                115_507,
                4_635,
            ),
            (
                CamStats {
                    searches: 245_920,
                    rows_enabled: 12_851_330,
                    arrays_activated: 327_120,
                    matches: 1_275_731,
                },
                122_199,
                370_121,
            ),
            (
                CamStats {
                    searches: 246_332,
                    rows_enabled: 12_731_127,
                    arrays_activated: 328_116,
                    matches: 1_127_469,
                },
                117_988,
                305_627,
            ),
        ];
        assert_eq!(totals, pinned);
    }

    /// Length of the poly-A run of an occurrence case: its m-mer's
    /// sub-bucket exceeds [`OCCURRENCE_ROWS`].
    const POLY_A: usize = OCCURRENCE_ROWS + 50;

    /// An occurrence-search case: a partition with a poly-A run (whose
    /// m-mer sub-bucket exceeds [`OCCURRENCE_ROWS`]) and a tandem copy,
    /// reads that are windows of it with substitutions, windows running
    /// off its end (m-mers at the tail offsets, which have no row), poly-A
    /// reads and unrelated reads; a filter geometry; and filter and CAM
    /// fault switches.
    fn occurrence_case() -> impl Strategy<Value = OccurrenceCase> {
        use casa_genome::Base;
        let geometries = [
            FilterConfig::new(6, 3, 8, 4),
            FilterConfig::new(8, 4, 8, 5),
            FilterConfig::new(10, 5, 7, 3),
            FilterConfig::new(12, 6, 40, 20),
        ];
        (0..geometries.len(), 0..u64::MAX, 2 * POLY_A..2_500, 0u8..4).prop_map(
            move |(geometry, seed, len, faults)| {
                use rand::{Rng, SeedableRng};
                let (cfg, filter_faults, cam_faults) =
                    (geometries[geometry], faults & 1 != 0, faults & 2 != 0);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut codes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
                let run = rng.gen_range(0..len - POLY_A);
                codes[run..run + POLY_A].fill(0);
                let (from, to) = (rng.gen_range(0..len / 2), rng.gen_range(len / 2..len - 60));
                codes.copy_within(from..from + 60, to);
                let part: PackedSeq = codes.iter().map(|&c| Base::from_code(c)).collect();
                let mut reads = Vec::new();
                for i in 0..12 {
                    let read_len = rng.gen_range(cfg.k..60);
                    let mut read: Vec<u8> = match i % 4 {
                        0 | 1 => {
                            let s = rng.gen_range(0..len - read_len);
                            let mut w = codes[s..s + read_len].to_vec();
                            if i % 4 == 1 {
                                let at = rng.gen_range(0..read_len);
                                w[at] ^= rng.gen_range(1..4);
                            }
                            w
                        }
                        2 => {
                            let s = len - rng.gen_range(cfg.m..cfg.k + 8).min(len);
                            codes[s..].to_vec()
                        }
                        _ => (0..read_len).map(|_| rng.gen_range(0..4)).collect(),
                    };
                    while read.len() < read_len.max(cfg.k) {
                        read.push(rng.gen_range(0..4));
                    }
                    reads.push(read.iter().map(|&c| Base::from_code(c)).collect());
                }
                reads.push(std::iter::repeat_n(Base::A, 40).collect());
                OccurrenceCase {
                    cfg,
                    part,
                    reads,
                    seed,
                    filter_faults,
                    cam_faults,
                }
            },
        )
    }

    #[derive(Debug, Clone)]
    struct OccurrenceCase {
        cfg: FilterConfig,
        part: PackedSeq,
        reads: Vec<PackedSeq>,
        seed: u64,
        filter_faults: bool,
        cam_faults: bool,
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Group searches over the pivot's occurrences find exactly the
        /// hits of group searches over the mask, and book the same
        /// `CamStats`: the RMEM and the activity of every pivot equal the
        /// mask-only search's (`occurrences` = `None`). Each pivot runs
        /// under its filter indicator (the pivot path), the §4.3 m-mer
        /// indicator at pivot 0, the full indicator, and a random one
        /// (start offsets the partition may not hold, as a filter fault
        /// leaves; groups missing some occurrences). First searches and
        /// probes cover fewer and more than `m` bases wherever a start
        /// offset lies within `m` of the stride or the read is short.
        #[test]
        fn occurrence_searches_equal_group_mask_searches(case in occurrence_case()) {
            use casa_cam::CamFaultModel;
            use casa_filter::FilterFaultModel;
            use rand::{RngCore, SeedableRng};
            let cfg = case.cfg;
            let mut filter = PreSeedingFilter::build(&case.part, cfg);
            if case.filter_faults {
                let model = FilterFaultModel { seed: case.seed, flip_rate: 0.05 };
                filter.inject_faults(0, &model);
            }
            let mut searcher = CamSearcher::new(&case.part, cfg.stride, cfg.groups);
            if case.cam_faults {
                searcher.inject_faults(&CamFaultModel {
                    seed: case.seed,
                    stuck_rate: 0.02,
                    flip_rate: 0.01,
                });
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(case.seed ^ 0x0cc);
            let (mut scratch, mut mask_scratch) = (SearchScratch::default(), SearchScratch::default());
            let (mut got, mut want) = (RmemResult::default(), RmemResult::default());
            let rest_bits = 2 * (cfg.k - cfg.m);
            for (r, read) in case.reads.iter().enumerate() {
                for pivot in 0..=read.len() - cfg.k {
                    let code = read.kmer_code(pivot, cfg.k).unwrap();
                    let occ = filter.occurrences(0, filter.sub_bucket(0, code));
                    let mut stats = FilterStats::default();
                    let mut indicators = vec![
                        filter.lookup_code(0, code, &mut stats),
                        searcher.full_indicator(),
                        SearchIndicator {
                            start_mask: rng.next_u64() & searcher.full_indicator().start_mask,
                            groups: rng.next_u32(),
                        },
                    ];
                    if pivot == 0 {
                        indicators.push(filter.lookup_mmer_code(0, code >> rest_bits, &mut stats));
                    }
                    for si in indicators.iter().filter(|si| !si.is_empty()) {
                        let (mut got_stats, mut want_stats) = (CamStats::default(), CamStats::default());
                        searcher.rmem_into(read, pivot, si, Some(occ), &mut scratch, &mut got_stats, &mut got);
                        searcher.rmem_into(read, pivot, si, None, &mut mask_scratch, &mut want_stats, &mut want);
                        prop_assert_eq!(&got, &want, "read {} pivot {} indicator {:?}", r, pivot, si);
                        prop_assert_eq!(got_stats, want_stats, "read {} pivot {} indicator {:?}", r, pivot, si);
                    }
                }
            }
        }
    }

    #[test]
    fn padded_start_offsets_are_honored() {
        // Place a unique 6-mer at an offset 3 inside an entry and verify
        // position recovery.
        let part = seq("AAAAAAAAAAAGGTCCAAAAAAAA"); // GGTCC at 11..16
        let cfg = FilterConfig::small(6, 3); // stride 8
        let filter = PreSeedingFilter::build(&part, cfg);
        let searcher = CamSearcher::new(&part, cfg.stride, cfg.groups);
        let read = seq("AGGTCCAA");
        let si = lookup(&filter, &read, 0).unwrap();
        assert!(si.start_mask & (1 << (10 % 8)) != 0); // AGGTCC at 10, offset 2
        let rmem = rmem(&searcher, &read, 0, &si, occurrences(&filter, &read, 0));
        assert!(rmem.len >= 6);
        assert!(rmem.positions.contains(&10));
    }
}
