//! Per-partition seeding engine: Algorithm 1 (the filter-enabled SMEM
//! computing algorithm) plus the exact-match pre-processing of §4.3.

use casa_cam::KernelBackend;
use casa_filter::{PreSeedingFilter, SearchIndicator};
use casa_genome::PackedSeq;
use casa_index::Smem;

use crate::error::ConfigError;
use crate::profile::{Stage, StageTimer};
use crate::rmem::{CamSearcher, RmemResult};
use crate::stats::SeedingStats;
use crate::CasaConfig;

/// Controller cycles to evaluate one pivot's checks in the computing
/// stage.
const PIVOT_CHECK_CYCLES: u64 = 1;

/// One CASA lane bound to one reference partition.
///
/// ```
/// use casa_core::{CasaConfig, PartitionEngine};
/// use casa_core::stats::SeedingStats;
/// use casa_genome::PackedSeq;
///
/// let part = PackedSeq::from_ascii(&b"GATTACA".repeat(12))?;
/// let mut engine = PartitionEngine::new(&part, CasaConfig::small(64))?;
/// let mut stats = SeedingStats::default();
/// let read = part.subseq(5, 30);
/// let smems = engine.seed_read(&read, &mut stats);
/// assert_eq!(smems.len(), 1);
/// assert_eq!(smems[0].len(), 30);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct PartitionEngine {
    config: CasaConfig,
    filter: PreSeedingFilter,
    searcher: CamSearcher,
    /// Rolling k-mer codes of the read being seeded, for callers that do
    /// not precompute them (hot-path scratch: filled once per read,
    /// indexed per pivot). The session's tile path derives each tile's
    /// codes once and shares them across every partition engine via
    /// [`seed_read_with_codes_into`](Self::seed_read_with_codes_into)
    /// instead, leaving this buffer untouched.
    kmer_codes: Vec<u64>,
    /// Reusable RMEM result buffer.
    rmem_scratch: RmemResult,
    /// Per-pivot indicators fetched by the batched filter pass (see
    /// [`set_batched_filter`](Self::set_batched_filter)).
    indicators: Vec<SearchIndicator>,
    /// Whether stage spans take wall-clock timestamps (see
    /// [`crate::profile`]). Off by default: timings are nondeterministic
    /// and excluded from the bit-identity contract.
    profiling: bool,
    /// Whether pivot lookups go through the batched
    /// [`lookup_codes_into`](PreSeedingFilter::lookup_codes_into) pass
    /// (default) or the per-pivot seed path. Outputs and stats are
    /// bit-identical either way; the switch exists so perfbench's traced
    /// run can measure before/after.
    batched_filter: bool,
}

impl PartitionEngine {
    /// Builds the filter tables and loads the partition into the computing
    /// CAM.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration invariant (see
    /// [`CasaConfig::validated`]).
    pub fn new(partition: &PackedSeq, config: CasaConfig) -> Result<PartitionEngine, ConfigError> {
        let config = config.validated()?;
        // An invalid `CASA_KERNEL` must surface as a typed error, not a
        // panic (and not be silently ignored).
        let env_backend = casa_cam::kernel::backend_from_env()?;
        let mut searcher = CamSearcher::new(partition, config.filter.stride, config.filter.groups);
        if let Some(backend) = env_backend {
            searcher.set_kernel_backend(backend);
        }
        Ok(PartitionEngine {
            config,
            filter: PreSeedingFilter::build(partition, config.filter),
            searcher,
            kmer_codes: Vec::new(),
            rmem_scratch: RmemResult::default(),
            indicators: Vec::new(),
            profiling: false,
            batched_filter: true,
        })
    }

    /// Assembles an engine from a prebuilt filter and CAM — the zero-copy
    /// image-loading path. Behaves exactly like [`PartitionEngine::new`]
    /// on the same partition and config (including `CASA_KERNEL` backend
    /// selection), except that no tables are rebuilt.
    pub fn from_parts(
        filter: PreSeedingFilter,
        cam: casa_cam::Bcam,
        config: CasaConfig,
    ) -> Result<PartitionEngine, ConfigError> {
        let config = config.validated()?;
        let env_backend = casa_cam::kernel::backend_from_env()?;
        let mut searcher = CamSearcher::from_cam(cam, config.filter.groups);
        if let Some(backend) = env_backend {
            searcher.set_kernel_backend(backend);
        }
        Ok(PartitionEngine {
            config,
            filter,
            searcher,
            kmer_codes: Vec::new(),
            rmem_scratch: RmemResult::default(),
            indicators: Vec::new(),
            profiling: false,
            batched_filter: true,
        })
    }

    /// Enables wall-clock per-stage profiling (see [`crate::profile`]).
    /// Spans accumulate into the caller's
    /// [`SeedingStats::profile`](crate::SeedingStats). Default off; when
    /// off, no timestamps are taken at all.
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profiling = enabled;
    }

    /// Whether per-stage profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Switches between the batched pre-seeding lookup pass (default) and
    /// the per-pivot seed path. Bit-identical outputs and stats either
    /// way; perfbench's traced run flips this to measure the before/after
    /// of the batching optimization.
    pub fn set_batched_filter(&mut self, batched: bool) {
        self.batched_filter = batched;
    }

    /// Selects the word-level kernel backend of this engine's computing
    /// CAM (see [`casa_cam::KernelBackend`]); hits and stats are
    /// bit-identical across backends. Unsupported requests degrade to the
    /// best supported backend; the CLI and env paths validate support
    /// before calling this.
    pub fn set_kernel_backend(&mut self, backend: KernelBackend) {
        self.searcher.set_kernel_backend(backend);
    }

    /// The computing CAM's effective kernel backend.
    pub fn kernel_backend(&self) -> KernelBackend {
        self.searcher.kernel_backend()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CasaConfig {
        &self.config
    }

    /// Whether this engine's reference-side arrays (filter tables and CAM
    /// entry bitplanes) are all borrowed from a mapped index image rather
    /// than owned heap allocations. Fault injection detaches the affected
    /// arrays copy-on-write, after which this reports `false`.
    pub fn storage_shared(&self) -> bool {
        self.filter.tables_shared() && self.searcher.cam().planes_shared()
    }

    /// Injects seeded hardware faults into this engine's computing CAM and
    /// filter tables, returning the chosen sites. Used by
    /// [`SeedingSession`](crate::SeedingSession) at construction when a
    /// fault plan is active.
    pub fn inject_faults(
        &mut self,
        cam: &casa_cam::CamFaultModel,
        filter: &casa_filter::FilterFaultModel,
    ) -> (casa_cam::CamFaultReport, casa_filter::FilterFaultReport) {
        (
            self.searcher.inject_faults(cam),
            self.filter.inject_faults(filter),
        )
    }

    /// Seeds one read against this partition. Returned SMEM hits are
    /// **partition-local**; the caller translates them to global
    /// coordinates and merges across partitions.
    ///
    /// Implements the paper's Algorithm 1 with all ablation switches, plus
    /// the §4.3 exact-match pre-processing.
    pub fn seed_read(&mut self, read: &PackedSeq, stats: &mut SeedingStats) -> Vec<Smem> {
        let mut out = Vec::new();
        self.seed_read_into(read, stats, &mut out);
        out
    }

    /// [`seed_read`](Self::seed_read) into a caller-owned buffer, cleared
    /// first — the allocation-free form the session's tile path uses
    /// end-to-end. Identical output and stats.
    pub fn seed_read_into(
        &mut self,
        read: &PackedSeq,
        stats: &mut SeedingStats,
        out: &mut Vec<Smem>,
    ) {
        let k = self.config.filter.k;
        if read.len() < k {
            self.seed_read_with_codes_into(read, &[], stats, out);
            return;
        }
        // Rolling k-mer codes, once per read: every pivot (and the CRkM
        // and exact-match lookups) reads its code in O(1) instead of
        // recomputing an O(k) `kmer_code`. The scratch is taken out of
        // `self` for the call so the codes can be borrowed alongside the
        // engine, then put back to keep the allocation pooled.
        let t = StageTimer::start(self.profiling);
        let mut codes = std::mem::take(&mut self.kmer_codes);
        codes.clear();
        codes.extend(read.kmers(k).map(|(_, code)| code));
        t.stop(&mut stats.profile, Stage::KmerCodes);
        self.seed_read_with_codes_into(read, &codes, stats, out);
        self.kmer_codes = codes;
    }

    /// [`seed_read_into`](Self::seed_read_into) with the read's rolling
    /// k-mer codes (window `config.filter.k`, in read order, exactly as
    /// [`PackedSeq::kmers`] produces them) already computed by the
    /// caller. The parallel session derives each tile's codes **once**
    /// and shares them across all partition engines, which would
    /// otherwise each re-derive the identical values per read. Output
    /// and statistics are bit-identical to `seed_read_into`; passing
    /// codes that are not the read's own is a logic error.
    pub fn seed_read_with_codes_into(
        &mut self,
        read: &PackedSeq,
        codes: &[u64],
        stats: &mut SeedingStats,
        out: &mut Vec<Smem>,
    ) {
        out.clear();
        stats.read_passes += 1;
        let filter_before = self.filter.stats();
        let cam_before = self.searcher.cam().stats();
        let mut computing_cycles = 0u64;

        if read.len() >= self.config.filter.k {
            debug_assert_eq!(codes.len(), read.len() - self.config.filter.k + 1);
            self.seed_read_body(read, codes, stats, &mut computing_cycles, out);
        }

        stats.smems_reported += out.len() as u64;

        // Activity deltas -> pipeline cycle model.
        let filter_delta = self.filter.stats().since(&filter_before);
        stats.filter_ops += filter_delta.lookups + filter_delta.data_reads;
        stats.computing_cycles += computing_cycles + 2;
        stats.filter.merge(&filter_delta);
        stats
            .cam
            .merge(&self.searcher.cam().stats().since(&cam_before));
        // DRAM: seed records out. Read streaming is charged once per
        // batch by the accelerator (reads sit in the on-chip buffer while
        // partitions rotate); partition loads amortize over the
        // production-scale read volume and are excluded (DESIGN.md §3).
        stats.dram_bytes += out.iter().map(|s| 8 + 4 * s.hits.len() as u64).sum::<u64>();
    }

    /// Algorithm 1 proper: the pivot loop with all ablation switches, the
    /// §4.3 exact-match attempt, and the batched pre-seeding pass. Each
    /// surviving pivot's RMEM is searched and recorded before the next
    /// pivot is examined, since pivot gating reads the last recorded RMEM.
    fn seed_read_body(
        &mut self,
        read: &PackedSeq,
        codes: &[u64],
        stats: &mut SeedingStats,
        computing_cycles: &mut u64,
        out: &mut Vec<Smem>,
    ) {
        let k = self.config.filter.k;

        if self.config.exact_match_preprocessing
            && self.try_exact_match_into(read, codes, stats, computing_cycles, out)
        {
            stats.exact_match_reads += 1;
            return;
        }

        // Batched pre-seeding: fetch every pivot's indicator in one
        // memory-level-parallel pass before the pivot loop starts. Same
        // lookup multiset — and therefore the same FilterStats — as the
        // per-pivot path, which looks every pivot's k-mer up at the top
        // of its iteration anyway.
        let batched = self.config.use_filter_table && self.batched_filter;
        if batched {
            let t = StageTimer::start(self.profiling);
            self.filter.lookup_codes_into(codes, &mut self.indicators);
            t.stop(&mut stats.profile, Stage::FilterLookup);
        }

        // (start, end) of the last non-contained RMEM.
        let mut last: Option<(usize, usize)> = None;
        // Cached CRkM indicator for the current `last` value.
        let mut crkm: Option<(usize, SearchIndicator)> = None;

        // Loop bookkeeping that is not a filter lookup, CAM search, or
        // containment record is the pivot-analysis stage; it is derived by
        // subtracting the inner spans from the loop wall so the stage
        // spans stay disjoint (sum of stages ≤ wall, never double
        // counted).
        let inner_before = stats.profile.total_nanos();
        let loop_timer = StageTimer::start(self.profiling);

        let pivot_count = read.len() - k + 1;
        stats.pivots_total += pivot_count as u64;
        for pivot in 0..pivot_count {
            let si = if self.config.use_filter_table {
                let si = if batched {
                    self.indicators[pivot]
                } else {
                    let t = StageTimer::start(self.profiling);
                    let si = self.filter.lookup_code(codes[pivot]);
                    t.stop(&mut stats.profile, Stage::FilterLookup);
                    si
                };
                if si.is_empty() {
                    // Dies in the pre-seeding stage; the computing
                    // controller never sees this pivot.
                    stats.pivots_filtered_table += 1;
                    continue;
                }
                si
            } else {
                self.searcher.full_indicator()
            };
            *computing_cycles += PIVOT_CHECK_CYCLES;

            if let Some((_start, end)) = last {
                // Pivots whose RMEM could only be contained in `last`
                // unless it crosses the closest right k-mer. In naive
                // mode `last` may be shorter than k; the analyses then
                // have no CRkM to reason about.
                let crkm_start = (end + 1).saturating_sub(k); // covers read[end]
                if self.config.use_pivot_analysis && end + 1 >= k && pivot <= crkm_start {
                    if end >= read.len() {
                        // `last` reaches the read end: nothing to the
                        // right can escape containment.
                        stats.pivots_filtered_crkm += 1;
                        continue;
                    }
                    let crkm_si = match crkm {
                        Some((s, si)) if s == crkm_start => si,
                        _ => {
                            // Deliberately a fresh lookup even in batched
                            // mode: the seed path issues one here too, so
                            // the FilterStats multisets stay identical.
                            let t = StageTimer::start(self.profiling);
                            let si = self.filter.lookup_code(codes[crkm_start]);
                            t.stop(&mut stats.profile, Stage::FilterLookup);
                            crkm = Some((crkm_start, si));
                            si
                        }
                    };
                    if crkm_si.is_empty() {
                        // Analysis 1: `last` is non-extendable.
                        stats.pivots_filtered_crkm += 1;
                        continue;
                    }
                    // Analysis 2: shifted-AND alignment estimate.
                    if !si.may_align_with(crkm_si, crkm_start - pivot, self.config.filter.stride) {
                        stats.pivots_filtered_align += 1;
                        continue;
                    }
                }
            }

            stats.rmem_searches += 1;
            let t = StageTimer::start(self.profiling);
            self.searcher
                .rmem_into(read, pivot, &si, &mut self.rmem_scratch);
            t.stop(&mut stats.profile, Stage::CamSearch);
            let t = StageTimer::start(self.profiling);
            self.record_rmem(pivot, out, &mut last, stats, computing_cycles);
            t.stop(&mut stats.profile, Stage::ContainMerge);
        }

        if loop_timer.enabled() {
            let inner = stats.profile.total_nanos() - inner_before;
            let wall = loop_timer.elapsed_nanos();
            stats
                .profile
                .add(Stage::PivotAnalysis, wall.saturating_sub(inner));
        }
    }

    /// Records the RMEM of `pivot` just computed into `rmem_scratch`:
    /// containment against `last`, the `last` update, and SMEM emission.
    fn record_rmem(
        &mut self,
        pivot: usize,
        smems: &mut Vec<Smem>,
        last: &mut Option<(usize, usize)>,
        stats: &mut SeedingStats,
        computing_cycles: &mut u64,
    ) {
        let rmem = &mut self.rmem_scratch;
        *computing_cycles += rmem.searches;
        if rmem.len == 0 {
            return;
        }
        let end = pivot + rmem.len;
        if let Some((start, last_end)) = *last {
            debug_assert!(pivot > start);
            if end <= last_end {
                stats.rmems_contained += 1;
                return;
            }
        }
        *last = Some((pivot, end));
        if rmem.len >= self.config.min_smem_len {
            smems.push(Smem {
                read_start: pivot,
                read_end: end,
                hits: std::mem::take(&mut rmem.positions),
            });
        }
    }

    /// §4.3: detect a read that matches the partition exactly. Aligns
    /// several non-overlapping m-mers via their indicators, and only if
    /// they are mutually consistent attempts the whole-read CAM match.
    /// Returns `true` (with the single whole-read SMEM pushed into `out`)
    /// when the read is settled here.
    fn try_exact_match_into(
        &mut self,
        read: &PackedSeq,
        codes: &[u64],
        stats: &mut SeedingStats,
        cycles: &mut u64,
        out: &mut Vec<Smem>,
    ) -> bool {
        let (k, m) = (self.config.filter.k, self.config.filter.m);
        if read.len() < self.config.min_smem_len {
            return false;
        }
        // Sample up to four spread, non-overlapping m-mers. Their codes are
        // sliced out of the rolling k-mer codes (MSB-first): the m-mer at
        // `off` sits `off - q` bases into the k-mer at `q`, where `q`
        // clamps `off` so a full k-mer fits.
        let mmask = (1u64 << (2 * m)) - 1;
        let last = read.len() - m;
        let offsets = [0usize, last / 3, 2 * last / 3, last];
        let mut first: Option<SearchIndicator> = None;
        let mut prev = usize::MAX;
        let mut consistent = true;
        let t = StageTimer::start(self.profiling);
        for &off in &offsets {
            if off == prev {
                continue; // offsets are non-decreasing; skip duplicates
            }
            prev = off;
            *cycles += 1;
            let q = off.min(read.len() - k);
            let shift = 2 * (k - (off - q) - m);
            let si = self.filter.lookup_mmer_code((codes[q] >> shift) & mmask);
            if si.is_empty() {
                consistent = false; // read cannot match this partition exactly
                break;
            }
            match first {
                None => first = Some(si),
                Some(f) => {
                    if !f.may_align_with(si, off, self.config.filter.stride) {
                        consistent = false; // m-mers misaligned: abort
                        break;
                    }
                }
            }
        }
        t.stop(&mut stats.profile, Stage::FilterLookup);
        if !consistent {
            return false;
        }
        // Whole-read match attempt from pivot 0 with the first m-mer's
        // indicator (superset of the true occurrence offsets).
        let si = first.expect("offsets is non-empty");
        let t = StageTimer::start(self.profiling);
        self.searcher
            .rmem_into(read, 0, &si, &mut self.rmem_scratch);
        t.stop(&mut stats.profile, Stage::CamSearch);
        *cycles += self.rmem_scratch.searches;
        if self.rmem_scratch.len == read.len() {
            out.push(Smem {
                read_start: 0,
                read_end: read.len(),
                hits: std::mem::take(&mut self.rmem_scratch.positions),
            });
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_genome::synth::{generate_reference, ReferenceProfile};
    use casa_genome::{ReadSimConfig, ReadSimulator};
    use casa_index::smem::smems_unidirectional;
    use casa_index::SuffixArray;

    fn engine_for(part: &PackedSeq) -> PartitionEngine {
        PartitionEngine::new(part, CasaConfig::small(part.len())).expect("valid config")
    }

    /// The headline correctness property: CASA's output equals the golden
    /// uni-directional SMEM set (paper: "CASA produces identical SMEMs to
    /// GenAx").
    #[test]
    fn casa_equals_golden_on_simulated_reads() {
        let part = generate_reference(&ReferenceProfile::human_like(), 6_000, 99);
        let sa = SuffixArray::build(&part);
        let mut engine = engine_for(&part);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 48,
                ..ReadSimConfig::default()
            },
            5,
        );
        let mut stats = SeedingStats::default();
        for read in sim.simulate(&part, 60) {
            let golden = smems_unidirectional(&sa, &read.seq, engine.config().min_smem_len);
            let casa = engine.seed_read(&read.seq, &mut stats);
            assert_eq!(casa, golden, "read {}", read.name);
        }
        assert!(stats.smems_reported > 0);
    }

    #[test]
    fn ablations_do_not_change_results() {
        let part = generate_reference(&ReferenceProfile::human_like(), 3_000, 7);
        let sa = SuffixArray::build(&part);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 40,
                ..ReadSimConfig::default()
            },
            6,
        );
        let reads = sim.simulate(&part, 25);
        let variants = [
            (true, true, true),
            (false, true, true),
            (true, false, true),
            (true, true, false),
            (false, false, false),
        ];
        let mut outputs: Vec<Vec<Vec<Smem>>> = Vec::new();
        for (exact, table, analysis) in variants {
            let mut cfg = CasaConfig::small(part.len());
            cfg.exact_match_preprocessing = exact;
            cfg.use_filter_table = table;
            cfg.use_pivot_analysis = analysis;
            let mut engine = PartitionEngine::new(&part, cfg).expect("valid config");
            let mut stats = SeedingStats::default();
            let out: Vec<Vec<Smem>> = reads
                .iter()
                .map(|r| engine.seed_read(&r.seq, &mut stats))
                .collect();
            outputs.push(out);
        }
        for (i, out) in outputs.iter().enumerate().skip(1) {
            assert_eq!(out, &outputs[0], "variant {i} diverged");
        }
        // And all equal golden.
        for (r, read) in reads.iter().enumerate() {
            let golden = smems_unidirectional(&sa, &read.seq, 6);
            assert_eq!(outputs[0][r], golden, "read {r}");
        }
    }

    /// The per-pivot filter path (kept for perfbench's traced run) must
    /// match the default batched pass: same SMEMs, same `SeedingStats`,
    /// `FilterStats` included, with and without exact-match
    /// preprocessing.
    #[test]
    fn per_pivot_filter_path_equals_batched_pass() {
        let part = generate_reference(&ReferenceProfile::human_like(), 6_000, 21);
        let reads = ReadSimulator::new(
            ReadSimConfig {
                read_len: 48,
                ..ReadSimConfig::default()
            },
            17,
        )
        .simulate(&part, 40);
        for exact in [true, false] {
            let mut cfg = CasaConfig::small(part.len());
            cfg.exact_match_preprocessing = exact;
            let mut batched = PartitionEngine::new(&part, cfg).expect("valid config");
            let mut per_pivot = PartitionEngine::new(&part, cfg).expect("valid config");
            per_pivot.set_batched_filter(false);
            let mut batched_stats = SeedingStats::default();
            let mut per_pivot_stats = SeedingStats::default();
            for read in &reads {
                assert_eq!(
                    per_pivot.seed_read(&read.seq, &mut per_pivot_stats),
                    batched.seed_read(&read.seq, &mut batched_stats),
                    "exact={exact} read {}",
                    read.name
                );
            }
            assert!(batched_stats.rmem_searches > 0);
            assert!(batched_stats.filter.lookups > 0);
            assert_eq!(per_pivot_stats, batched_stats, "exact={exact}");
        }
    }

    #[test]
    fn filtering_reduces_rmem_searches() {
        let part = generate_reference(&ReferenceProfile::human_like(), 4_000, 11);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 48,
                ..ReadSimConfig::default()
            },
            9,
        );
        let reads = sim.simulate(&part, 30);
        let run = |table: bool, analysis: bool| {
            let mut cfg = CasaConfig::small(part.len());
            cfg.use_filter_table = table;
            cfg.use_pivot_analysis = analysis;
            cfg.exact_match_preprocessing = false;
            let mut engine = PartitionEngine::new(&part, cfg).expect("valid config");
            let mut stats = SeedingStats::default();
            for r in &reads {
                engine.seed_read(&r.seq, &mut stats);
            }
            stats.rmem_searches
        };
        let naive = run(false, false);
        let table = run(true, false);
        let both = run(true, true);
        assert!(table < naive, "table {table} !< naive {naive}");
        assert!(both <= table, "analysis {both} !<= table {table}");
    }

    #[test]
    fn exact_read_takes_fast_path() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_000, 3);
        let mut engine = engine_for(&part);
        let read = part.subseq(100, 60);
        let mut stats = SeedingStats::default();
        let smems = engine.seed_read(&read, &mut stats);
        assert_eq!(stats.exact_match_reads, 1);
        assert_eq!(smems.len(), 1);
        assert_eq!(smems[0].len(), 60);
        assert!(smems[0].hits.contains(&100));
    }

    #[test]
    fn short_read_yields_nothing() {
        let part = generate_reference(&ReferenceProfile::uniform(), 500, 1);
        let mut engine = engine_for(&part);
        let mut stats = SeedingStats::default();
        let read = part.subseq(0, 4); // shorter than k = 6
        assert!(engine.seed_read(&read, &mut stats).is_empty());
    }

    #[test]
    fn stats_accumulate_per_read() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_000, 13);
        let mut engine = engine_for(&part);
        let mut stats = SeedingStats::default();
        let read = part.subseq(50, 40);
        engine.seed_read(&read, &mut stats);
        assert_eq!(stats.read_passes, 1);
        assert!(stats.dram_bytes > 0);
        assert!(stats.filter_ops > 0);
        assert!(stats.computing_cycles > 0);
    }
}
