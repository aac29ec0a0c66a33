//! Per-partition seeding engine: Algorithm 1 (the filter-enabled SMEM
//! computing algorithm) plus the exact-match pre-processing of §4.3.
//!
//! As in the hardware, where partitions are loaded once and reads stream
//! through lanes (paper Fig. 9, §4.1), the engine has two parts: a
//! read-only [`CamIndex`] per partition, shared by every thread, and a
//! [`Lane`] per worker holding everything a seeding call writes. Filter
//! and CAM activity go straight into the caller's [`SeedingStats`].
//! A session's indexes share one partition-interleaved
//! [`PreSeedingFilter`], each reading its own partition of it, and walk
//! only the hits the session's shared sparse pass found for them
//! ([`TileKmerCodes::look_up`]). [`PartitionEngine`] is one index with its
//! own single-partition filter and lane, for single-threaded callers.

use std::sync::Arc;

use casa_cam::KernelBackend;
use casa_filter::{FilterHit, FilterStats, PreSeedingFilter, SearchIndicator};
use casa_genome::PackedSeq;
use casa_index::Smem;

use crate::backend::{seed_each, BackendKind, SeedingBackend, TileKmerCodes};
use crate::error::ConfigError;
use crate::profile::{Stage, StageTimer};
use crate::rmem::{CamSearcher, RmemResult, SearchScratch};
use crate::stats::SeedingStats;
use crate::CasaConfig;

/// Controller cycles to evaluate one pivot's checks in the computing
/// stage.
const PIVOT_CHECK_CYCLES: u64 = 1;

/// Everything one seeding call writes — the RMEM chain, mask, hit and
/// match-line buffers — plus the CAM word kernel and whether stages are
/// timed. One per worker, reused across reads, tiles and partitions of
/// any size: every buffer is overwritten before it is read.
#[derive(Clone, Debug)]
pub struct Lane {
    /// The RMEM just computed.
    rmem: RmemResult,
    /// The multi-stride search's buffers and CAM word kernel.
    search: SearchScratch,
    /// Whether stage spans take wall-clock timestamps (see
    /// [`crate::profile`]).
    profiling: bool,
}

impl Lane {
    /// A lane on CAM word kernel `kernel` (an unsupported one falls back
    /// to the best supported; validate with
    /// [`KernelBackend::ensure_supported`] to reject it instead).
    pub fn new(kernel: KernelBackend, profiling: bool) -> Lane {
        Lane {
            rmem: RmemResult::default(),
            search: SearchScratch::new(kernel),
            profiling,
        }
    }

    /// The lane's effective CAM word kernel.
    pub fn kernel_backend(&self) -> KernelBackend {
        self.search.kernel_backend()
    }

    /// Whether the lane times its stages.
    pub fn profiling(&self) -> bool {
        self.profiling
    }
}

/// One read's walk through the pivot loop: the read, its codes, and the
/// state carried from pivot to pivot.
struct PivotWalk<'r> {
    read: &'r PackedSeq,
    codes: &'r [u64],
    /// (start, end) of the last non-contained RMEM.
    last: Option<(usize, usize)>,
    /// Cached CRkM indicator for the current `last` value.
    crkm: Option<(usize, SearchIndicator)>,
}

/// One partition's CAM-backend index — its partition of the filter
/// tables, CAM planes and stuck-at masks, group scheme, config — only read
/// once construction and fault injection are done.
#[derive(Clone, Debug)]
pub struct CamIndex {
    config: CasaConfig,
    /// The filter this partition's lookups go to, shared with the other
    /// partitions' indexes of a session.
    filter: Arc<PreSeedingFilter>,
    /// This partition's index in `filter`.
    part: usize,
    searcher: CamSearcher,
    /// Whether pivot indicators come from the tile's shared sparse pass
    /// ([`TileKmerCodes::look_up`], default) or the per-pivot path.
    /// Outputs and stats are bit-identical either way; the switch exists
    /// so perfbench's traced run can measure before/after.
    batched_filter: bool,
}

impl CamIndex {
    /// Builds the partition's own (single-partition) filter tables and
    /// loads the partition into the computing CAM.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration invariant (see
    /// [`CasaConfig::validated`]), or [`ConfigError::FilterTooLarge`] for a
    /// partition of more than `u32::MAX` k-mers.
    pub fn new(partition: &PackedSeq, config: CasaConfig) -> Result<CamIndex, ConfigError> {
        let config = config.validated()?;
        let filter = PreSeedingFilter::build_partitions(&[partition], config.filter, 1)?;
        let cam = casa_cam::Bcam::new(partition, config.filter.stride);
        CamIndex::with_filter(Arc::new(filter), 0, cam, config)
    }

    /// Assembles partition `part`'s index from a prebuilt (possibly
    /// shared, possibly mapped) filter and its CAM — how a session wires
    /// every partition to one filter, built or loaded from an image.
    ///
    /// # Errors
    ///
    /// As [`CamIndex::new`].
    ///
    /// # Panics
    ///
    /// Panics if `filter` has no partition `part` or another geometry
    /// than `config.filter`.
    pub fn with_filter(
        filter: Arc<PreSeedingFilter>,
        part: usize,
        cam: casa_cam::Bcam,
        config: CasaConfig,
    ) -> Result<CamIndex, ConfigError> {
        let config = config.validated()?;
        assert!(
            part < filter.partitions(),
            "the filter has no partition {part}"
        );
        assert_eq!(
            filter.config(),
            &config.filter,
            "filter geometry differs from the config"
        );
        Ok(CamIndex {
            config,
            filter,
            part,
            searcher: CamSearcher::from_cam(cam, config.filter.groups),
            batched_filter: true,
        })
    }

    /// Seeds one read against this partition on `lane`, writing its
    /// **partition-local** SMEMs into `out` (cleared first); the caller
    /// translates them to global coordinates and merges across
    /// partitions. `codes` are the read's rolling k-mer codes (window
    /// `config.filter.k`, exactly as [`PackedSeq::kmers`] yields them),
    /// and `looked_up` — given exactly when pivot lookups are batched —
    /// this partition's hits among them and the activity of looking them
    /// all up; passing codes or hits that are not the read's own is a
    /// logic error.
    ///
    /// Implements the paper's Algorithm 1 with all ablation switches, plus
    /// the §4.3 exact-match pre-processing.
    fn seed_read(
        &self,
        lane: &mut Lane,
        read: &PackedSeq,
        codes: &[u64],
        looked_up: Option<(&[FilterHit], &FilterStats)>,
        stats: &mut SeedingStats,
        out: &mut Vec<Smem>,
    ) {
        out.clear();
        stats.read_passes += 1;
        let mut filter = FilterStats::default();
        if read.len() >= self.config.filter.k {
            debug_assert_eq!(codes.len(), read.len() - self.config.filter.k + 1);
            self.seed_read_body(lane, read, codes, looked_up, stats, &mut filter, out);
        }
        stats.smems_reported += out.len() as u64;
        // Activity -> pipeline cycle model: the pre-seeding stage issues
        // the read's lookups and data reads; the computing stage adds its
        // fixed per-read overhead to the searches and checks booked above.
        stats.filter_ops += filter.lookups + filter.data_reads;
        stats.filter.merge(&filter);
        stats.computing_cycles += 2;
        // DRAM: seed records out. Read streaming is charged once per
        // batch by the accelerator (reads sit in the on-chip buffer while
        // partitions rotate); partition loads amortize over the
        // production-scale read volume and are excluded (DESIGN.md §3).
        stats.dram_bytes += out.iter().map(|s| 8 + 4 * s.hits.len() as u64).sum::<u64>();
    }

    /// Algorithm 1 proper: the pivot loop with all ablation switches and
    /// the §4.3 exact-match attempt. Each surviving pivot's RMEM is
    /// searched and recorded before the next pivot is examined, since
    /// pivot gating reads the last recorded RMEM.
    #[allow(clippy::too_many_arguments)]
    fn seed_read_body(
        &self,
        lane: &mut Lane,
        read: &PackedSeq,
        codes: &[u64],
        looked_up: Option<(&[FilterHit], &FilterStats)>,
        stats: &mut SeedingStats,
        filter: &mut FilterStats,
        out: &mut Vec<Smem>,
    ) {
        let k = self.config.filter.k;

        if self.config.exact_match_preprocessing
            && self.try_exact_match_into(lane, read, codes, stats, filter, out)
        {
            stats.exact_match_reads += 1;
            return;
        }

        let mut walk = PivotWalk {
            read,
            codes,
            last: None,
            crkm: None,
        };

        // Loop bookkeeping that is not a filter lookup, CAM search, or
        // containment record is the pivot-analysis stage; it is derived by
        // subtracting the inner spans from the loop wall so the stage
        // spans stay disjoint (sum of stages ≤ wall, never double
        // counted).
        let inner_before = stats.profile.total_nanos();
        let loop_timer = StageTimer::start(lane.profiling);

        let pivot_count = read.len() - k + 1;
        stats.pivots_total += pivot_count as u64;
        match looked_up {
            // Sparse pre-seeding: the tile's pass looked every pivot up
            // and kept only the hits. Every other pivot dies in the
            // pre-seeding stage; the computing controller never sees it.
            // Same lookup multiset — and therefore the same FilterStats —
            // as the per-pivot path; a read settled above books none.
            Some((hits, booked)) => {
                filter.merge(booked);
                stats.pivots_filtered_table += (pivot_count - hits.len()) as u64;
                for hit in hits {
                    let (pivot, si) = (hit.code as usize, hit.indicator);
                    self.pivot_step(lane, &mut walk, pivot, si, stats, filter, out);
                }
            }
            None => {
                for (pivot, &code) in codes.iter().enumerate() {
                    let si = if self.config.use_filter_table {
                        let t = StageTimer::start(lane.profiling);
                        let si = self.filter.lookup_code(self.part, code, filter);
                        t.stop(&mut stats.profile, Stage::FilterLookup);
                        si
                    } else {
                        self.searcher.full_indicator()
                    };
                    self.pivot_step(lane, &mut walk, pivot, si, stats, filter, out);
                }
            }
        }

        if loop_timer.enabled() {
            let inner = stats.profile.total_nanos() - inner_before;
            let wall = loop_timer.elapsed_nanos();
            stats
                .profile
                .add(Stage::PivotAnalysis, wall.saturating_sub(inner));
        }
    }

    /// One pivot of Algorithm 1, given its indicator `si`: the
    /// pre-seeding verdict, the CRkM gating, and for a surviving pivot
    /// its RMEM search and containment record. Pivots must come in
    /// ascending order; one the filter table dropped may be skipped
    /// (it would change nothing but `pivots_filtered_table`).
    #[allow(clippy::too_many_arguments)]
    fn pivot_step(
        &self,
        lane: &mut Lane,
        walk: &mut PivotWalk<'_>,
        pivot: usize,
        si: SearchIndicator,
        stats: &mut SeedingStats,
        filter: &mut FilterStats,
        out: &mut Vec<Smem>,
    ) {
        let k = self.config.filter.k;
        if self.config.use_filter_table && si.is_empty() {
            // Dies in the pre-seeding stage; the computing controller
            // never sees this pivot.
            stats.pivots_filtered_table += 1;
            return;
        }
        stats.computing_cycles += PIVOT_CHECK_CYCLES;

        if let Some((_start, end)) = walk.last {
            // Pivots whose RMEM could only be contained in `last`
            // unless it crosses the closest right k-mer. In naive
            // mode `last` may be shorter than k; the analyses then
            // have no CRkM to reason about.
            let crkm_start = (end + 1).saturating_sub(k); // covers read[end]
            if self.config.use_pivot_analysis && end + 1 >= k && pivot <= crkm_start {
                if end >= walk.read.len() {
                    // `last` reaches the read end: nothing to the
                    // right can escape containment.
                    stats.pivots_filtered_crkm += 1;
                    return;
                }
                let crkm_si = match walk.crkm {
                    Some((s, si)) if s == crkm_start => si,
                    _ => {
                        // Deliberately a fresh lookup even in batched
                        // mode: the seed path issues one here too, so
                        // the FilterStats multisets stay identical.
                        let t = StageTimer::start(lane.profiling);
                        let si = self
                            .filter
                            .lookup_code(self.part, walk.codes[crkm_start], filter);
                        t.stop(&mut stats.profile, Stage::FilterLookup);
                        walk.crkm = Some((crkm_start, si));
                        si
                    }
                };
                if crkm_si.is_empty() {
                    // Analysis 1: `last` is non-extendable.
                    stats.pivots_filtered_crkm += 1;
                    return;
                }
                // Analysis 2: shifted-AND alignment estimate.
                if !si.may_align_with(crkm_si, crkm_start - pivot, self.config.filter.stride) {
                    stats.pivots_filtered_align += 1;
                    return;
                }
            }
        }

        stats.rmem_searches += 1;
        let t = StageTimer::start(lane.profiling);
        let bucket = self.filter.sub_bucket(self.part, walk.codes[pivot]);
        self.searcher.rmem_into(
            walk.read,
            pivot,
            &si,
            Some(self.filter.occurrences(self.part, bucket)),
            &mut lane.search,
            &mut stats.cam,
            &mut lane.rmem,
        );
        t.stop(&mut stats.profile, Stage::CamSearch);
        let t = StageTimer::start(lane.profiling);
        self.record_rmem(&mut lane.rmem, pivot, out, &mut walk.last, stats);
        t.stop(&mut stats.profile, Stage::ContainMerge);
    }

    /// Records the RMEM of `pivot` just computed into `rmem`: containment
    /// against `last`, the `last` update, and SMEM emission.
    fn record_rmem(
        &self,
        rmem: &mut RmemResult,
        pivot: usize,
        smems: &mut Vec<Smem>,
        last: &mut Option<(usize, usize)>,
        stats: &mut SeedingStats,
    ) {
        stats.computing_cycles += rmem.searches;
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
        &self,
        lane: &mut Lane,
        read: &PackedSeq,
        codes: &[u64],
        stats: &mut SeedingStats,
        filter: &mut FilterStats,
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
        let t = StageTimer::start(lane.profiling);
        for &off in &offsets {
            if off == prev {
                continue; // offsets are non-decreasing; skip duplicates
            }
            prev = off;
            stats.computing_cycles += 1;
            let q = off.min(read.len() - k);
            let shift = 2 * (k - (off - q) - m);
            let si = self
                .filter
                .lookup_mmer_code(self.part, (codes[q] >> shift) & mmask, filter);
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
        // indicator (superset of the true occurrence offsets), over that
        // m-mer's occurrences: the sub-bucket of the k-mer at 0.
        let si = first.expect("offsets is non-empty");
        let t = StageTimer::start(lane.profiling);
        let bucket = self.filter.sub_bucket(self.part, codes[0]);
        self.searcher.rmem_into(
            read,
            0,
            &si,
            Some(self.filter.occurrences(self.part, bucket)),
            &mut lane.search,
            &mut stats.cam,
            &mut lane.rmem,
        );
        t.stop(&mut stats.profile, Stage::CamSearch);
        stats.computing_cycles += lane.rmem.searches;
        if lane.rmem.len == read.len() {
            out.push(Smem {
                read_start: 0,
                read_end: read.len(),
                hits: std::mem::take(&mut lane.rmem.positions),
            });
            true
        } else {
            false
        }
    }
}

impl SeedingBackend for CamIndex {
    fn kind(&self) -> BackendKind {
        BackendKind::Cam
    }

    fn seed_tile(
        &self,
        lane: &mut Lane,
        reads: &[PackedSeq],
        codes: &TileKmerCodes,
        stats: &mut SeedingStats,
        out: &mut Vec<Vec<Smem>>,
    ) {
        let batched = self.config.use_filter_table && self.batched_filter;
        seed_each(reads, out, |i, read, smems| {
            let looked_up = batched.then(|| codes.looked_up(self.part, i));
            self.seed_read(lane, read, codes.read(i), looked_up, stats, smems);
        });
    }

    fn inject_faults(&mut self, cam: &casa_cam::CamFaultModel) -> casa_cam::CamFaultReport {
        self.searcher.inject_faults(cam)
    }

    /// CAM bit-flip injection detaches the planes copy-on-write, after
    /// which this reports `false`; filter faults live in an overlay and
    /// leave the filter's tables shared.
    fn storage_shared(&self) -> bool {
        self.filter.tables_shared() && self.searcher.cam().planes_shared()
    }
}

/// One CASA lane bound to one reference partition: a [`CamIndex`] with
/// its own [`Lane`], for single-threaded callers.
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
    index: CamIndex,
    lane: Lane,
}

impl PartitionEngine {
    /// Builds the partition's [`CamIndex`] and an unprofiled lane on the
    /// process's CAM word kernel (`CASA_KERNEL`, else CPU detection).
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration invariant (see
    /// [`CasaConfig::validated`]), or a typed error for an invalid
    /// `CASA_KERNEL` request.
    pub fn new(partition: &PackedSeq, config: CasaConfig) -> Result<PartitionEngine, ConfigError> {
        let kernel = env_kernel()?;
        Ok(PartitionEngine {
            index: CamIndex::new(partition, config)?,
            lane: Lane::new(kernel, false),
        })
    }

    /// Switches between the batched pre-seeding lookup pass (default) and
    /// the per-pivot seed path. Bit-identical outputs and stats either
    /// way; perfbench's traced run flips this to measure the before/after
    /// of the batching optimization.
    pub fn set_batched_filter(&mut self, batched: bool) {
        self.index.batched_filter = batched;
    }

    /// Moves this engine onto another CAM word kernel (see
    /// [`casa_cam::KernelBackend`]); hits and stats are bit-identical
    /// across kernels. Unsupported requests degrade to the best supported
    /// kernel.
    pub fn set_kernel_backend(&mut self, backend: KernelBackend) {
        self.lane = Lane::new(backend, false);
    }

    /// The engine's effective CAM word kernel.
    pub fn kernel_backend(&self) -> KernelBackend {
        self.lane.kernel_backend()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CasaConfig {
        &self.index.config
    }

    /// Seeds one read against this partition. Returned SMEM hits are
    /// **partition-local**; the caller translates them to global
    /// coordinates and merges across partitions.
    pub fn seed_read(&mut self, read: &PackedSeq, stats: &mut SeedingStats) -> Vec<Smem> {
        let mut out = Vec::new();
        self.seed_tile_into(std::slice::from_ref(read), stats, &mut out);
        out.pop().unwrap_or_default()
    }

    /// Seeds a tile of reads, one output vector per read (cleared first),
    /// deriving the tile's rolling k-mer codes — and, when pivot lookups
    /// are batched, their filter pass — itself.
    pub fn seed_tile_into(
        &mut self,
        reads: &[PackedSeq],
        stats: &mut SeedingStats,
        out: &mut Vec<Vec<Smem>>,
    ) {
        let index = &self.index;
        let mut codes = TileKmerCodes::compute(reads, index.config.filter.k);
        if index.config.use_filter_table && index.batched_filter {
            codes.look_up(&index.filter);
        }
        self.index
            .seed_tile(&mut self.lane, reads, &codes, stats, out);
    }
}

/// The CAM word kernel `CASA_KERNEL` asks for — an unknown or
/// CPU-unsupported value is a typed error — else the process default.
pub(crate) fn env_kernel() -> Result<KernelBackend, ConfigError> {
    Ok(casa_cam::kernel::backend_from_env()?.unwrap_or_else(casa_cam::kernel::default_backend))
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
    /// match the default sparse pass: same SMEMs, same `SeedingStats`,
    /// `FilterStats` included, with and without exact-match
    /// preprocessing — on reads from the partition and from a foreign
    /// genome (at k = 12 nearly every foreign pivot is filtered), on a
    /// clean filter and on one with data-array faults (where a match can
    /// lose every start bit and still reach the walk).
    #[test]
    fn per_pivot_filter_path_equals_batched_pass() {
        use casa_filter::{FilterConfig, FilterFaultModel};
        let part = generate_reference(&ReferenceProfile::human_like(), 6_000, 21);
        let foreign = generate_reference(&ReferenceProfile::mouse_like(), 6_000, 22);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 48,
                ..ReadSimConfig::default()
            },
            17,
        );
        let native: Vec<PackedSeq> = sim.simulate(&part, 40).into_iter().map(|r| r.seq).collect();
        let foreign: Vec<PackedSeq> = sim
            .simulate(&foreign, 40)
            .into_iter()
            .map(|r| r.seq)
            .collect();
        let mut wide = CasaConfig::small(part.len());
        wide.filter = FilterConfig::small(12, 6);
        wide.min_smem_len = 12;
        let faults = [
            None,
            Some(FilterFaultModel {
                seed: 8,
                flip_rate: 0.05,
            }),
        ];
        let mut cleared_walked = false;
        for base in [CasaConfig::small(part.len()), wide] {
            for fault in faults {
                let mut filter = PreSeedingFilter::build(&part, base.filter);
                if let Some(model) = &fault {
                    assert!(filter.inject_faults(0, model).sites() > 0);
                }
                let filter = Arc::new(filter);
                for exact in [true, false] {
                    let mut cfg = base;
                    cfg.exact_match_preprocessing = exact;
                    let index = |batched| {
                        let cam = casa_cam::Bcam::new(&part, cfg.filter.stride);
                        let mut index = CamIndex::with_filter(Arc::clone(&filter), 0, cam, cfg)
                            .expect("valid config");
                        index.batched_filter = batched;
                        index
                    };
                    let (batched, per_pivot) = (index(true), index(false));
                    for (name, reads) in [("native", &native), ("foreign", &foreign)] {
                        let at = format!(
                            "k={} faults={} exact={exact} {name}",
                            cfg.filter.k,
                            fault.is_some()
                        );
                        let mut codes = TileKmerCodes::compute(reads, cfg.filter.k);
                        codes.look_up(&filter);
                        cleared_walked |= (0..reads.len()).any(|i| {
                            codes
                                .looked_up(0, i)
                                .0
                                .iter()
                                .any(|h| h.indicator.is_empty())
                        });
                        let mut lane = Lane::new(casa_cam::kernel::default_backend(), false);
                        let (mut want, mut got) = (Vec::new(), Vec::new());
                        let (mut want_stats, mut got_stats) =
                            (SeedingStats::default(), SeedingStats::default());
                        per_pivot.seed_tile(&mut lane, reads, &codes, &mut want_stats, &mut want);
                        batched.seed_tile(&mut lane, reads, &codes, &mut got_stats, &mut got);
                        assert_eq!(got, want, "{at}");
                        assert_eq!(got_stats, want_stats, "{at}");
                        assert!(got_stats.filter.lookups > 0, "{at}");
                        if name == "native" {
                            assert!(got_stats.rmem_searches > 0, "{at}");
                        } else if cfg.filter.k == 12 {
                            assert!(
                                got_stats.pivots_filtered_table * 10 > got_stats.pivots_total * 9,
                                "{at}: foreign pivots must nearly all be filtered"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            cleared_walked,
            "a match with no start bit must reach the walk"
        );
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

    /// One lane serves every partition in turn: alternating it between
    /// indexes of different entry counts (the last partition short), on
    /// every kernel, fault-free and with stuck-at and bit-flip faults,
    /// must give the SMEMs and stats of a fresh lane per call — stale
    /// match-line, mask or hit words would show here.
    #[test]
    fn one_lane_across_partitions_matches_fresh_lanes() {
        use casa_cam::CamFaultModel;
        use casa_filter::FilterFaultModel;
        let reference = generate_reference(&ReferenceProfile::human_like(), 9_000, 57);
        let config = CasaConfig::small(5_000);
        let k = config.filter.k;
        let mut reads: Vec<PackedSeq> = ReadSimulator::new(
            ReadSimConfig {
                read_len: 48,
                ..ReadSimConfig::default()
            },
            29,
        )
        .simulate(&reference, 24)
        .into_iter()
        .map(|r| r.seq)
        .collect();
        reads.push(reference.subseq(8_900, 48));
        reads.push(reference.subseq(100, k - 1));
        let cuts = [(0, 5_000), (5_000, 2_600), (7_600, 1_400)];
        let faults = [
            None,
            Some((
                CamFaultModel {
                    seed: 3,
                    stuck_rate: 0.02,
                    flip_rate: 2e-3,
                },
                FilterFaultModel {
                    seed: 3,
                    flip_rate: 2e-3,
                },
            )),
        ];
        let parts: Vec<PackedSeq> = cuts
            .iter()
            .map(|&(start, len)| reference.subseq(start, len))
            .collect();
        let seqs: Vec<&PackedSeq> = parts.iter().collect();
        for fault in faults {
            let mut filter =
                PreSeedingFilter::build_partitions(&seqs, config.filter, 1).expect("fits");
            let mut sites = 0;
            if let Some((_, model)) = &fault {
                for p in 0..parts.len() {
                    sites += filter.inject_faults(p, model).sites();
                }
            }
            let filter = Arc::new(filter);
            let indexes: Vec<CamIndex> = parts
                .iter()
                .enumerate()
                .map(|(p, part)| {
                    let cam = casa_cam::Bcam::new(part, config.filter.stride);
                    let mut index = CamIndex::with_filter(Arc::clone(&filter), p, cam, config)
                        .expect("valid config");
                    if let Some((model, _)) = &fault {
                        sites += index.inject_faults(model).sites();
                    }
                    index
                })
                .collect();
            assert_eq!(fault.is_some(), sites > 0);
            let mut smems = 0;
            for kernel in KernelBackend::supported() {
                let mut shared = Lane::new(kernel, false);
                for tile in reads.chunks(7) {
                    let mut codes = TileKmerCodes::compute(tile, k);
                    codes.look_up(&filter);
                    for index in indexes.iter().chain(indexes.iter().rev()) {
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        let (mut got_stats, mut want_stats) =
                            (SeedingStats::default(), SeedingStats::default());
                        index.seed_tile(&mut shared, tile, &codes, &mut got_stats, &mut got);
                        let mut fresh = Lane::new(kernel, false);
                        index.seed_tile(&mut fresh, tile, &codes, &mut want_stats, &mut want);
                        assert_eq!(got, want, "{kernel}, faults {}", fault.is_some());
                        assert_eq!(
                            got_stats,
                            want_stats,
                            "{kernel}, faults {}",
                            fault.is_some()
                        );
                        smems += got_stats.smems_reported;
                    }
                }
            }
            assert!(smems > 0);
        }
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
