//! Pluggable seeding backends behind one object-safe trait.
//!
//! The repo carries three complete seeding substrates — the bit-parallel
//! CAM simulator ([`CamIndex`]), the FM-index golden model
//! ([`casa_index::bifm`]), and the enumerated radix trees of
//! [`casa_index::ert`] (the index the ASIC-ERT baseline of
//! `casa-baselines::ert_model` costs out). [`SeedingBackend`] makes "which
//! seeder" a runtime choice instead of a fork of the call graph: a
//! [`SeedingSession`](crate::SeedingSession) drives one boxed backend per
//! reference partition and everything above it (scheduling, fault
//! recovery, merging, the CLI, the streaming runtime) is backend-agnostic.
//!
//! The dispatch shape follows the `casa_cam::kernel` fn-table design:
//! backends are named by a small enum ([`BackendKind`]), selected per
//! process via the [`CASA_BACKEND`](BACKEND_ENV) environment variable or
//! per session via an explicit constructor, and unknown names surface as a
//! typed error ([`UnknownBackendError`] →
//! [`ConfigError::UnknownSeedingBackend`](crate::ConfigError)) rather than
//! a panic.
//!
//! # Equivalence contract
//!
//! Every backend must produce the **identical SMEM set** for any
//! (partition, read) pair — bit-identical `read_start`/`read_end`/`hits`,
//! in the same order — because the session's golden cross-check, the
//! quarantine fallback, and the cross-partition merge all assume it. The
//! CAM path is proven equal to the golden unidirectional algorithm by the
//! `casa_equals_golden_*` tests; [`FmBackend`] runs the bidirectional
//! BWA-MEM2 algorithm (cross-checked equal in `casa-index`); and
//! [`ErtBackend`]'s per-pivot tree walk reproduces the suffix-array
//! longest match exactly (see the containment argument on its per-read
//! walk). Only the *activity statistics* differ:
//! non-CAM backends have no filter banks or CAM arrays, so those counters
//! stay zero and CASA's cycle model does not apply to them.
//!
//! # One seeding call
//!
//! A backend is an index, read-only once built: the trait has one seeding
//! method, [`SeedingBackend::seed_tile`], taking `&self` plus the caller's
//! [`Lane`] (every buffer a seeding call writes, and the CAM word kernel)
//! and [`SeedingStats`]. Fault injection is the only mutation, and
//! happens at construction.

use casa_filter::{FilterHit, FilterStats, PreSeedingFilter, SparsePass};
use casa_genome::PackedSeq;
use casa_index::smem::smems_bidirectional;
use casa_index::{BiFmIndex, ErtIndex, Smem};

use crate::engine::{CamIndex, Lane};
use crate::error::ConfigError;
use crate::stats::SeedingStats;
use crate::CasaConfig;

/// Environment variable that selects the seeding backend
/// (`cam` | `fm` | `ert`) for sessions that are not given one explicitly.
pub const BACKEND_ENV: &str = "CASA_BACKEND";

/// A selectable seeding substrate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The CASA accelerator model itself: pre-seeding filter + computing
    /// CAMs (the default, and the only backend with a hardware cost
    /// model).
    Cam,
    /// The FM-index golden model: BWA-MEM2's bidirectional SMEM algorithm
    /// on a [`BiFmIndex`] per partition.
    Fm,
    /// The enumerated-radix-tree model: per-pivot [`ErtIndex`] walks, the
    /// software twin of the ASIC-ERT baseline in `casa-baselines`.
    Ert,
}

/// Error returned when a seeding backend name cannot be honoured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownBackendError {
    /// The offending backend name as given.
    pub value: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl std::fmt::Display for UnknownBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown seeding backend {:?}: {} (expected one of: cam, fm, ert)",
            self.value, self.reason
        )
    }
}

impl std::error::Error for UnknownBackendError {}

impl BackendKind {
    /// Every backend, in presentation order (`cam` first: the accelerator
    /// the repo is about).
    pub const ALL: [BackendKind; 3] = [BackendKind::Cam, BackendKind::Fm, BackendKind::Ert];

    /// The backend's canonical lowercase name (what
    /// [`CASA_BACKEND`](BACKEND_ENV) and `--backend` accept).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Cam => "cam",
            BackendKind::Fm => "fm",
            BackendKind::Ert => "ert",
        }
    }

    /// Parses a backend name.
    ///
    /// # Errors
    ///
    /// Returns a typed [`UnknownBackendError`] for anything other than
    /// `cam`, `fm`, or `ert`.
    pub fn parse(s: &str) -> Result<BackendKind, UnknownBackendError> {
        match s {
            "cam" => Ok(BackendKind::Cam),
            "fm" => Ok(BackendKind::Fm),
            "ert" => Ok(BackendKind::Ert),
            _ => Err(UnknownBackendError {
                value: s.to_owned(),
                reason: "no such backend",
            }),
        }
    }

    /// The backend requested by the [`CASA_BACKEND`](BACKEND_ENV)
    /// environment variable, `None` when unset.
    ///
    /// # Errors
    ///
    /// Returns a typed [`UnknownBackendError`] when the variable is set to
    /// an unknown name or to a non-UTF-8 value — callers surface it as a
    /// [`ConfigError`], never a panic.
    pub fn from_env() -> Result<Option<BackendKind>, UnknownBackendError> {
        match std::env::var_os(BACKEND_ENV) {
            None => Ok(None),
            Some(value) => match value.to_str() {
                Some(s) => BackendKind::parse(s).map(Some),
                None => Err(UnknownBackendError {
                    value: value.to_string_lossy().into_owned(),
                    reason: "value is not valid UTF-8",
                }),
            },
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Rolling k-mer codes for a tile of reads, computed once by the session
/// and shared across every partition backend — and, for the CAM backend,
/// the tile's shared sparse pre-seeding pass over them.
///
/// Each partition engine derives the same per-read code sequence (the
/// window size is `config.filter.k`, identical for all partitions), so
/// letting every (partition, tile) job re-derive it multiplies that work
/// by the partition count. Likewise every partition looks the same codes
/// up in the filter, and one partition-interleaved filter answers all
/// partitions for a code at once ([`look_up`](Self::look_up)), keeping
/// only the hits: per partition, the (pivot, indicator) pairs of each
/// read whose k-mer the partition holds — on reads from another genome,
/// almost none. The session computes each tile's codes and pass once and
/// passes them to [`SeedingBackend::seed_tile`]; backends that do not
/// consume codes ignore them, and are handed an empty instance.
#[derive(Clone, Debug, Default)]
pub struct TileKmerCodes {
    /// Every read's rolling codes, concatenated in read order.
    codes: Vec<u64>,
    /// `offsets[i]..offsets[i + 1]` bounds read `i`'s codes in `codes`.
    /// A read shorter than `k` contributes an empty range.
    offsets: Vec<usize>,
    /// The pass over the codes, one group per read: each partition's
    /// hits and each read's activity per partition. Covers no partition
    /// when no pass ran.
    pass: SparsePass,
}

impl TileKmerCodes {
    /// Computes every read's rolling window-`k` codes, in read order,
    /// exactly as [`PackedSeq::kmers`] yields them.
    pub fn compute(reads: &[PackedSeq], k: usize) -> TileKmerCodes {
        let mut tile = TileKmerCodes::default();
        tile.refill(reads, k);
        tile
    }

    /// [`compute`](Self::compute) in place, for another tile: keeps the
    /// buffers' capacity and drops any previous pass.
    pub fn refill(&mut self, reads: &[PackedSeq], k: usize) {
        self.codes.clear();
        self.offsets.clear();
        self.offsets.push(0);
        for read in reads {
            self.codes.extend(read.kmers(k).map(|(_, code)| code));
            self.offsets.push(self.codes.len());
        }
        self.pass.clear();
    }

    /// The shared pre-seeding pass: looks every code up in every
    /// partition of `filter` at once
    /// ([`PreSeedingFilter::lookup_sparse_into`]), keeping each read's
    /// hits and activity per partition for [`looked_up`](Self::looked_up).
    /// `filter` must use this tile's `k`.
    pub fn look_up(&mut self, filter: &PreSeedingFilter) {
        filter.lookup_sparse_into(&self.codes, &self.offsets, &mut self.pass);
    }

    /// Read `i`'s share of the pass in partition `part`: its hits —
    /// (pivot, indicator) for each pivot whose k-mer the partition holds,
    /// in ascending pivot order — and the activity of looking all its
    /// pivots up.
    ///
    /// # Panics
    ///
    /// Panics unless a [`look_up`](Self::look_up) covering partition
    /// `part` ran since the codes were computed, or if read `i` is beyond
    /// the tile.
    pub fn looked_up(&self, part: usize, i: usize) -> (&[FilterHit], &FilterStats) {
        (self.pass.hits(i, part), self.pass.stats(i, part))
    }

    /// Read `i`'s rolling codes; empty for reads shorter than `k` and for
    /// indices beyond the computed tile (a defaulted instance holds no
    /// reads at all).
    pub fn read(&self, i: usize) -> &[u64] {
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => &self.codes[lo..hi],
            _ => &[],
        }
    }
}

/// One seeding substrate bound to one reference partition.
///
/// Object-safe and `Send + Sync`, and read-only while seeding, so a
/// session holds `Arc<Vec<Box<dyn SeedingBackend>>>` and drives every
/// backend from any number of worker threads at once, without a lock.
/// Everything a seeding call writes lives in the caller's [`Lane`] and
/// [`SeedingStats`]. Implementations report partition-**local** hit
/// coordinates; the session translates and merges.
pub trait SeedingBackend: Send + Sync {
    /// Which substrate this is.
    fn kind(&self) -> BackendKind;

    /// Seeds a tile of reads against this backend's partition on `lane`,
    /// one output vector per read (`out` is cleared first), adding the
    /// tile's activity onto `stats`. `codes` holds the tile's rolling
    /// k-mer codes ([`TileKmerCodes::compute`] with `config.filter.k`)
    /// for backends that consume them — the CAM backend, which with its
    /// filter table on walks only its partition's hits from the tile's
    /// shared sparse filter pass, so [`TileKmerCodes::look_up`] must have
    /// run over the filter it reads (or an equal one) — and may be empty
    /// for the others; passing codes or a pass that are not the tile's own
    /// to the CAM backend is a logic error. Output and stats are a pure
    /// function of (partition, reads): the lane is scratch only.
    fn seed_tile(
        &self,
        lane: &mut Lane,
        reads: &[PackedSeq],
        codes: &TileKmerCodes,
        stats: &mut SeedingStats,
        out: &mut Vec<Vec<Smem>>,
    );

    /// Injects seeded computing-CAM faults, returning the chosen sites.
    /// Called at construction only, before the backend is shared. Only
    /// meaningful for the CAM backend; the default reports no sites (the
    /// software models have no CAM lines to corrupt — scheduler faults
    /// like tile panics and stalls still apply, as they fire above the
    /// backend). Filter faults go into the filter itself
    /// ([`PreSeedingFilter::inject_faults`]), which the partitions of a
    /// session share.
    fn inject_faults(&mut self, _cam: &casa_cam::CamFaultModel) -> casa_cam::CamFaultReport {
        casa_cam::CamFaultReport::default()
    }

    /// Whether this backend's reference-side arrays are borrowed from a
    /// mapped index image (see [`crate::image`]) rather than owned heap
    /// allocations. Software backends always own their structures.
    fn storage_shared(&self) -> bool {
        false
    }
}

/// The tile loop of every backend: seeds read `i` through
/// `seed_read(i, read, smems)`, one output vector per read.
pub(crate) fn seed_each(
    reads: &[PackedSeq],
    out: &mut Vec<Vec<Smem>>,
    mut seed_read: impl FnMut(usize, &PackedSeq, &mut Vec<Smem>),
) {
    out.clear();
    for (i, read) in reads.iter().enumerate() {
        let mut smems = Vec::new();
        seed_read(i, read, &mut smems);
        out.push(smems);
    }
}

/// The FM-index backend: BWA-MEM2's bidirectional SMEM algorithm
/// (Li 2012, Algorithm 2) on a per-partition [`BiFmIndex`].
///
/// Output equals the golden unidirectional algorithm (cross-checked in
/// `casa-index::smem`), hence equals the CAM path. Activity statistics
/// cover read passes, per-pivot search counts, and seed-record DRAM
/// traffic; the CASA filter/CAM counters stay zero.
#[derive(Debug)]
pub struct FmBackend {
    bi: BiFmIndex,
    min_smem_len: usize,
}

impl FmBackend {
    /// Validates `config` and builds the bidirectional FM-index of
    /// `partition`.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration invariant (see
    /// [`CasaConfig::validated`]).
    pub fn new(partition: &PackedSeq, config: CasaConfig) -> Result<FmBackend, ConfigError> {
        let config = config.validated()?;
        Ok(FmBackend {
            bi: BiFmIndex::build(partition),
            min_smem_len: config.min_smem_len,
        })
    }
}

impl SeedingBackend for FmBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Fm
    }

    fn seed_tile(
        &self,
        _lane: &mut Lane,
        reads: &[PackedSeq],
        _codes: &TileKmerCodes,
        stats: &mut SeedingStats,
        out: &mut Vec<Vec<Smem>>,
    ) {
        seed_each(reads, out, |_, read, smems| {
            self.seed_read(read, stats, smems)
        });
    }
}

impl FmBackend {
    /// Seeds one read, writing its SMEMs into `out` (cleared first).
    fn seed_read(&self, read: &PackedSeq, stats: &mut SeedingStats, out: &mut Vec<Smem>) {
        stats.read_passes += 1;
        stats.pivots_total += read.len() as u64;
        out.clear();
        let mut smems = smems_bidirectional(&self.bi, read, self.min_smem_len);
        // One backward/forward extension pass per emitted candidate pivot:
        // charge a search per SMEM plus one per uncovered pivot round, the
        // closest analogue of the CAM path's RMEM search count.
        stats.rmem_searches += smems.len().max(1) as u64;
        stats.smems_reported += smems.len() as u64;
        stats.dram_bytes += smems
            .iter()
            .map(|s| 8 + 4 * s.hits.len() as u64)
            .sum::<u64>();
        out.append(&mut smems);
    }
}

/// The ERT backend: GenAx-style unidirectional SMEM extraction where every
/// RMEM comes from an enumerated-radix-tree walk ([`ErtIndex::walk`])
/// instead of a CAM search — the software twin of the ASIC-ERT baseline
/// whose cost model lives in `casa-baselines::ert_model`.
#[derive(Clone, Debug)]
pub struct ErtBackend {
    ert: ErtIndex,
    min_smem_len: usize,
}

impl ErtBackend {
    /// Validates `config` and builds the radix trees of `partition` with
    /// the filter k-mer size (`config.filter.k`, 15–19 at paper scale).
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration invariant (see
    /// [`CasaConfig::validated`]). Validation guarantees
    /// `2 <= k <= 32` and `min_smem_len >= k`, the precondition of the
    /// equivalence argument below.
    pub fn new(partition: &PackedSeq, config: CasaConfig) -> Result<ErtBackend, ConfigError> {
        let config = config.validated()?;
        Ok(ErtBackend {
            ert: ErtIndex::build(partition, config.filter.k),
            min_smem_len: config.min_smem_len,
        })
    }
}

impl SeedingBackend for ErtBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Ert
    }

    fn seed_tile(
        &self,
        _lane: &mut Lane,
        reads: &[PackedSeq],
        _codes: &TileKmerCodes,
        stats: &mut SeedingStats,
        out: &mut Vec<Vec<Smem>>,
    ) {
        seed_each(reads, out, |_, read, smems| {
            self.seed_read(read, stats, smems)
        });
    }
}

impl ErtBackend {
    /// Unidirectional SMEM extraction over ERT walks, writing one read's
    /// SMEMs into `out` (cleared first).
    ///
    /// `walk` returns `None` exactly when the pivot's k-mer is absent,
    /// i.e. the RMEM there is shorter than `k <= min_smem_len`. Skipping
    /// those pivots' `max_end` updates cannot change the output: any RMEM
    /// a sub-`k` RMEM would have contained is strictly shorter than it,
    /// hence also below `min_smem_len`, and is dropped by the length
    /// filter either way. For pivots with a walk, `matched_len` and
    /// `positions` equal the suffix-array longest match (proven in
    /// `casa-index::ert`), so the emitted set is bit-identical to
    /// [`smems_unidirectional`](casa_index::smem::smems_unidirectional).
    fn seed_read(&self, read: &PackedSeq, stats: &mut SeedingStats, out: &mut Vec<Smem>) {
        stats.read_passes += 1;
        stats.pivots_total += read.len() as u64;
        out.clear();
        let mut max_end = 0usize;
        for pivot in 0..read.len() {
            match self.ert.walk(read, pivot) {
                None => {
                    // Absent k-mer: the RMEM here is < k <= min_smem_len.
                    // Costs one index-table probe, which the walk would
                    // have counted; treat it as a filtered pivot.
                    stats.pivots_filtered_table += 1;
                }
                Some(walk) => {
                    stats.rmem_searches += 1;
                    let end = pivot + walk.matched_len;
                    if end <= max_end {
                        stats.rmems_contained += 1;
                        continue;
                    }
                    max_end = end;
                    if walk.matched_len >= self.min_smem_len {
                        stats.dram_bytes += 8 + 4 * walk.positions.len() as u64;
                        out.push(Smem {
                            read_start: pivot,
                            read_end: end,
                            hits: walk.positions,
                        });
                    }
                }
            }
        }
        stats.smems_reported += out.len() as u64;
    }
}

/// Builds one boxed backend of the given kind for one partition.
///
/// # Errors
///
/// Returns the first violated configuration invariant (see
/// [`CasaConfig::validated`]).
pub fn build_backend(
    kind: BackendKind,
    partition: &PackedSeq,
    config: CasaConfig,
) -> Result<Box<dyn SeedingBackend>, ConfigError> {
    Ok(match kind {
        BackendKind::Cam => Box::new(CamIndex::new(partition, config)?),
        BackendKind::Fm => Box::new(FmBackend::new(partition, config)?),
        BackendKind::Ert => Box::new(ErtBackend::new(partition, config)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PartitionEngine;
    use casa_genome::synth::{generate_reference, ReferenceProfile};
    use casa_genome::{ReadSimConfig, ReadSimulator};
    use casa_index::smem::smems_unidirectional;
    use casa_index::SuffixArray;

    #[test]
    fn kind_round_trips_and_rejects_unknown() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.as_str()), Ok(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        let err = BackendKind::parse("gpu").unwrap_err();
        assert_eq!(err.value, "gpu");
        assert!(err.to_string().contains("cam, fm, ert"));
    }

    /// A fresh lane on the process-default kernel.
    fn lane() -> Lane {
        Lane::new(casa_cam::kernel::default_backend(), false)
    }

    /// `reads`' codes with the shared filter pass over `part`'s filter,
    /// as a session hands them to its backends.
    fn tile_codes(part: &PackedSeq, config: CasaConfig, reads: &[PackedSeq]) -> TileKmerCodes {
        let mut codes = TileKmerCodes::compute(reads, config.filter.k);
        codes.look_up(&PreSeedingFilter::build(part, config.filter));
        codes
    }

    #[test]
    fn every_backend_equals_golden_on_simulated_reads() {
        let part = generate_reference(&ReferenceProfile::human_like(), 4_000, 77);
        let config = CasaConfig::small(part.len());
        let sa = SuffixArray::build(&part);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 48,
                ..ReadSimConfig::default()
            },
            21,
        );
        let reads: Vec<PackedSeq> = sim.simulate(&part, 40).into_iter().map(|r| r.seq).collect();
        let codes = tile_codes(&part, config, &reads);
        for kind in BackendKind::ALL {
            let backend = build_backend(kind, &part, config).expect("valid config");
            assert_eq!(backend.kind(), kind);
            let mut stats = SeedingStats::default();
            let mut smems = Vec::new();
            backend.seed_tile(&mut lane(), &reads, &codes, &mut stats, &mut smems);
            for (i, read) in reads.iter().enumerate() {
                let golden = smems_unidirectional(&sa, read, config.min_smem_len);
                assert_eq!(smems[i], golden, "{kind} diverged on read {i}");
            }
            assert_eq!(stats.read_passes, reads.len() as u64);
            assert!(stats.smems_reported > 0, "{kind} reported no SMEMs");
        }
    }

    /// Seeding a whole tile equals seeding each read as a tile of its
    /// own on the same lane — output and stats — on every backend.
    #[test]
    fn tile_path_matches_per_read_path() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_500, 5);
        let config = CasaConfig::small(part.len());
        let reads: Vec<PackedSeq> = (0..8).map(|i| part.subseq(i * 100, 40)).collect();
        for kind in BackendKind::ALL {
            let backend = build_backend(kind, &part, config).expect("valid config");
            let mut lane = lane();
            let mut sa = SeedingStats::default();
            let mut sb = SeedingStats::default();
            let mut tile_out = Vec::new();
            let codes = tile_codes(&part, config, &reads);
            backend.seed_tile(&mut lane, &reads, &codes, &mut sa, &mut tile_out);
            let per_read: Vec<Vec<Smem>> = reads
                .chunks(1)
                .map(|one| {
                    let mut out = vec![Vec::new(); 3];
                    let codes = tile_codes(&part, config, one);
                    backend.seed_tile(&mut lane, one, &codes, &mut sb, &mut out);
                    assert_eq!(out.len(), 1, "{kind} left stale output");
                    out.pop().unwrap()
                })
                .collect();
            assert_eq!(tile_out, per_read, "{kind} tile path diverged");
            assert_eq!(sa, sb, "{kind} tile stats diverged");
        }
    }

    /// The session hands software backends an empty code table: they
    /// must ignore codes entirely — output *and* stats — while the CAM
    /// backend consumes the tile's own codes and filter pass, including
    /// an empty range for a read shorter than the filter k-mer.
    #[test]
    fn precomputed_codes_path_matches_plain_path() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_500, 5);
        let config = CasaConfig::small(part.len());
        let mut reads: Vec<PackedSeq> = (0..8).map(|i| part.subseq(i * 100, 40)).collect();
        reads.push(part.subseq(0, config.filter.k - 1));
        let codes = tile_codes(&part, config, &reads);
        let mut engine = PartitionEngine::new(&part, config).expect("valid config");
        let mut plain_stats = SeedingStats::default();
        let mut plain = Vec::new();
        engine.seed_tile_into(&reads, &mut plain_stats, &mut plain);
        for kind in BackendKind::ALL {
            let backend = build_backend(kind, &part, config).expect("valid config");
            let mut with_codes_stats = SeedingStats::default();
            let mut with_codes = Vec::new();
            backend.seed_tile(
                &mut lane(),
                &reads,
                &codes,
                &mut with_codes_stats,
                &mut with_codes,
            );
            assert_eq!(with_codes, plain, "{kind} codes path diverged");
            if kind == BackendKind::Cam {
                assert_eq!(with_codes_stats, plain_stats, "codes-path stats diverged");
                continue;
            }
            let mut empty_stats = SeedingStats::default();
            let mut empty = Vec::new();
            let none = TileKmerCodes::default();
            backend.seed_tile(&mut lane(), &reads, &none, &mut empty_stats, &mut empty);
            assert_eq!(empty, plain, "{kind} read the codes");
            assert_eq!(empty_stats, with_codes_stats, "{kind} stats read the codes");
        }
        // Out-of-range reads and defaulted instances report no codes.
        assert_eq!(codes.read(reads.len()), &[] as &[u64]);
        assert_eq!(TileKmerCodes::default().read(0), &[] as &[u64]);
    }

    #[test]
    fn software_backends_ignore_cam_hooks() {
        let part = generate_reference(&ReferenceProfile::uniform(), 800, 2);
        let config = CasaConfig::small(part.len());
        for kind in [BackendKind::Fm, BackendKind::Ert] {
            let mut backend = build_backend(kind, &part, config).expect("valid config");
            let plan = crate::FaultPlan {
                seed: 9,
                cam_stuck_rate: 0.5,
                cam_flip_rate: 0.1,
                filter_flip_rate: 0.1,
                ..crate::FaultPlan::default()
            };
            let cam = backend.inject_faults(&plan.cam_faults_for(0));
            assert_eq!(cam, casa_cam::CamFaultReport::default());
        }
    }

    #[test]
    fn invalid_config_is_rejected_by_every_backend() {
        let part = generate_reference(&ReferenceProfile::uniform(), 500, 1);
        let mut bad = CasaConfig::small(part.len());
        bad.lanes = 0;
        for kind in BackendKind::ALL {
            assert_eq!(
                build_backend(kind, &part, bad).map(|_| ()),
                Err(ConfigError::ZeroLanes),
                "{kind}"
            );
        }
    }
}
