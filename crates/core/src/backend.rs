//! Pluggable seeding backends behind one object-safe trait.
//!
//! The repo carries three complete seeding substrates — the bit-parallel
//! CAM simulator ([`PartitionEngine`]), the FM-index golden model
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
//! longest match exactly (see the containment argument on
//! [`ErtBackend::seed_read_into`]). Only the *activity statistics* differ:
//! non-CAM backends have no filter banks or CAM arrays, so those counters
//! stay zero and CASA's cycle model does not apply to them.

use casa_genome::PackedSeq;
use casa_index::smem::smems_bidirectional;
use casa_index::{BiFmIndex, ErtIndex, Smem};

use crate::engine::PartitionEngine;
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
/// and shared across every partition backend.
///
/// Each partition engine derives the same per-read code sequence (the
/// window size is `config.filter.k`, identical for all partitions), so
/// letting every (partition, tile) job re-derive it multiplies that work
/// by the partition count. The session computes each tile's codes once
/// with [`TileKmerCodes::compute`] and passes them to
/// [`SeedingBackend::seed_tile_with_codes_into`]; backends that do not
/// consume codes ignore them.
#[derive(Clone, Debug, Default)]
pub struct TileKmerCodes {
    /// Every read's rolling codes, concatenated in read order.
    codes: Vec<u64>,
    /// `offsets[i]..offsets[i + 1]` bounds read `i`'s codes in `codes`.
    /// A read shorter than `k` contributes an empty range.
    offsets: Vec<usize>,
}

impl TileKmerCodes {
    /// Computes every read's rolling window-`k` codes, in read order,
    /// exactly as [`PackedSeq::kmers`] yields them.
    pub fn compute(reads: &[PackedSeq], k: usize) -> TileKmerCodes {
        let mut codes = Vec::new();
        let mut offsets = Vec::with_capacity(reads.len() + 1);
        offsets.push(0);
        for read in reads {
            codes.extend(read.kmers(k).map(|(_, code)| code));
            offsets.push(codes.len());
        }
        TileKmerCodes { codes, offsets }
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
/// Object-safe and `Send + Sync` so a session can hold
/// `Arc<Vec<Mutex<Box<dyn SeedingBackend>>>>` and drive it from scoped
/// worker threads. Implementations report partition-**local** hit
/// coordinates; the session translates and merges.
///
/// The CAM-specific hooks (`inject_faults`, `set_kernel_backend`,
/// `set_batched_filter`) default to no-ops so software backends do not
/// have to know about CAM fault models, word kernels or filter passes.
pub trait SeedingBackend: Send + Sync {
    /// Which substrate this is.
    fn kind(&self) -> BackendKind;

    /// Seeds one read against this backend's partition, writing the SMEMs
    /// into the caller's scratch vector (cleared first). Hits are
    /// partition-local. Statistics are reported as per-read deltas onto
    /// `stats`, exactly like [`PartitionEngine::seed_read`].
    fn seed_read_into(&mut self, read: &PackedSeq, stats: &mut SeedingStats, out: &mut Vec<Smem>);

    /// Seeds a tile of reads, one output vector per read (the batched
    /// entry point the session's tile scheduler uses). The default
    /// implementation loops [`seed_read_into`](Self::seed_read_into);
    /// backends with a cheaper batched path may override it, but the
    /// output must stay bit-identical to the per-read loop.
    fn seed_tile_into(
        &mut self,
        reads: &[PackedSeq],
        stats: &mut SeedingStats,
        out: &mut Vec<Vec<Smem>>,
    ) {
        out.clear();
        for read in reads {
            let mut smems = Vec::new();
            self.seed_read_into(read, stats, &mut smems);
            out.push(smems);
        }
    }

    /// Like [`seed_read_into`](Self::seed_read_into), with the read's
    /// rolling k-mer codes (window `config.filter.k`, as produced by
    /// [`PackedSeq::kmers`]) already computed by the caller. Backends
    /// that derive per-pivot state from the codes (the CAM engine) skip
    /// recomputing them; the default ignores `codes` and defers to
    /// `seed_read_into`, so software backends need no change. Passing
    /// codes that are not exactly the read's own is a logic error.
    fn seed_read_with_codes_into(
        &mut self,
        read: &PackedSeq,
        codes: &[u64],
        stats: &mut SeedingStats,
        out: &mut Vec<Smem>,
    ) {
        let _ = codes;
        self.seed_read_into(read, stats, out);
    }

    /// Tile variant of
    /// [`seed_read_with_codes_into`](Self::seed_read_with_codes_into):
    /// seeds `reads[i]` with `codes.read(i)`. Output and stats must stay
    /// bit-identical to [`seed_tile_into`](Self::seed_tile_into) — the
    /// codes are a shared precomputation, never a semantic input.
    fn seed_tile_with_codes_into(
        &mut self,
        reads: &[PackedSeq],
        codes: &TileKmerCodes,
        stats: &mut SeedingStats,
        out: &mut Vec<Vec<Smem>>,
    ) {
        out.clear();
        for (i, read) in reads.iter().enumerate() {
            let mut smems = Vec::new();
            self.seed_read_with_codes_into(read, codes.read(i), stats, &mut smems);
            out.push(smems);
        }
    }

    /// Injects seeded hardware faults, returning the chosen sites. Only
    /// meaningful for the CAM backend; the default reports no sites (the
    /// software models have no CAM lines or filter tables to corrupt —
    /// scheduler faults like tile panics and stalls still apply, as they
    /// fire above the backend).
    fn inject_faults(
        &mut self,
        _cam: &casa_cam::CamFaultModel,
        _filter: &casa_filter::FilterFaultModel,
    ) -> (casa_cam::CamFaultReport, casa_filter::FilterFaultReport) {
        (
            casa_cam::CamFaultReport::default(),
            casa_filter::FilterFaultReport::default(),
        )
    }

    /// Pins the CAM word kernel. No-op on software backends.
    fn set_kernel_backend(&mut self, _backend: casa_cam::KernelBackend) {}

    /// The effective CAM word kernel; software backends report the
    /// process default (they never execute one).
    fn kernel_backend(&self) -> casa_cam::KernelBackend {
        casa_cam::kernel::default_backend()
    }

    /// Enables per-stage wall-clock profiling (see
    /// [`crate::profile`]). Software backends are not instrumented and
    /// default to a no-op: their stage spans simply stay zero, which the
    /// profile layer treats as "not measured", not as "free".
    fn set_profiling(&mut self, _enabled: bool) {}

    /// Switches between the batched pre-seeding lookup pass and the
    /// per-pivot seed path (CAM engine only; outputs are bit-identical
    /// either way). No-op on software backends, which have no filter
    /// table.
    fn set_batched_filter(&mut self, _batched: bool) {}

    /// Whether this backend's reference-side arrays are borrowed from a
    /// mapped index image (see [`crate::image`]) rather than owned heap
    /// allocations. Software backends always own their structures.
    fn storage_shared(&self) -> bool {
        false
    }
}

impl SeedingBackend for PartitionEngine {
    fn kind(&self) -> BackendKind {
        BackendKind::Cam
    }

    fn seed_read_into(&mut self, read: &PackedSeq, stats: &mut SeedingStats, out: &mut Vec<Smem>) {
        PartitionEngine::seed_read_into(self, read, stats, out);
    }

    fn seed_read_with_codes_into(
        &mut self,
        read: &PackedSeq,
        codes: &[u64],
        stats: &mut SeedingStats,
        out: &mut Vec<Smem>,
    ) {
        PartitionEngine::seed_read_with_codes_into(self, read, codes, stats, out);
    }

    fn set_profiling(&mut self, enabled: bool) {
        PartitionEngine::set_profiling(self, enabled);
    }

    fn set_batched_filter(&mut self, batched: bool) {
        PartitionEngine::set_batched_filter(self, batched);
    }

    fn inject_faults(
        &mut self,
        cam: &casa_cam::CamFaultModel,
        filter: &casa_filter::FilterFaultModel,
    ) -> (casa_cam::CamFaultReport, casa_filter::FilterFaultReport) {
        PartitionEngine::inject_faults(self, cam, filter)
    }

    fn set_kernel_backend(&mut self, backend: casa_cam::KernelBackend) {
        PartitionEngine::set_kernel_backend(self, backend);
    }

    fn kernel_backend(&self) -> casa_cam::KernelBackend {
        PartitionEngine::kernel_backend(self)
    }

    fn storage_shared(&self) -> bool {
        PartitionEngine::storage_shared(self)
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

    fn seed_read_into(&mut self, read: &PackedSeq, stats: &mut SeedingStats, out: &mut Vec<Smem>) {
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

    /// Unidirectional SMEM extraction over ERT walks.
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
    fn seed_read_into(&mut self, read: &PackedSeq, stats: &mut SeedingStats, out: &mut Vec<Smem>) {
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
/// [`CasaConfig::validated`]); for the CAM backend this includes a typed
/// error for an invalid `CASA_KERNEL` request.
pub fn build_backend(
    kind: BackendKind,
    partition: &PackedSeq,
    config: CasaConfig,
) -> Result<Box<dyn SeedingBackend>, ConfigError> {
    Ok(match kind {
        BackendKind::Cam => Box::new(PartitionEngine::new(partition, config)?),
        BackendKind::Fm => Box::new(FmBackend::new(partition, config)?),
        BackendKind::Ert => Box::new(ErtBackend::new(partition, config)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let reads = sim.simulate(&part, 40);
        for kind in BackendKind::ALL {
            let mut backend = build_backend(kind, &part, config).expect("valid config");
            assert_eq!(backend.kind(), kind);
            let mut stats = SeedingStats::default();
            let mut smems = Vec::new();
            for read in &reads {
                let golden = smems_unidirectional(&sa, &read.seq, config.min_smem_len);
                backend.seed_read_into(&read.seq, &mut stats, &mut smems);
                assert_eq!(smems, golden, "{kind} diverged on read {}", read.name);
            }
            assert_eq!(stats.read_passes, reads.len() as u64);
            assert!(stats.smems_reported > 0, "{kind} reported no SMEMs");
        }
    }

    #[test]
    fn tile_path_matches_per_read_path() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_500, 5);
        let config = CasaConfig::small(part.len());
        let reads: Vec<PackedSeq> = (0..8).map(|i| part.subseq(i * 100, 40)).collect();
        for kind in BackendKind::ALL {
            let mut a = build_backend(kind, &part, config).expect("valid config");
            let mut b = build_backend(kind, &part, config).expect("valid config");
            let mut sa = SeedingStats::default();
            let mut sb = SeedingStats::default();
            let mut tile_out = Vec::new();
            a.seed_tile_into(&reads, &mut sa, &mut tile_out);
            let per_read: Vec<Vec<Smem>> = reads
                .iter()
                .map(|r| {
                    let mut out = Vec::new();
                    b.seed_read_into(r, &mut sb, &mut out);
                    out
                })
                .collect();
            assert_eq!(tile_out, per_read, "{kind} tile path diverged");
            assert_eq!(sa, sb, "{kind} tile stats diverged");
        }
    }

    /// The session's shared-codes tile path must be bit-identical —
    /// output *and* stats — to the plain tile path on every backend,
    /// including for a read shorter than the filter k-mer (whose code
    /// range is empty).
    #[test]
    fn precomputed_codes_path_matches_plain_path() {
        let part = generate_reference(&ReferenceProfile::human_like(), 2_500, 5);
        let config = CasaConfig::small(part.len());
        let mut reads: Vec<PackedSeq> = (0..8).map(|i| part.subseq(i * 100, 40)).collect();
        reads.push(part.subseq(0, config.filter.k - 1));
        let codes = TileKmerCodes::compute(&reads, config.filter.k);
        for kind in BackendKind::ALL {
            let mut a = build_backend(kind, &part, config).expect("valid config");
            let mut b = build_backend(kind, &part, config).expect("valid config");
            let mut sa = SeedingStats::default();
            let mut sb = SeedingStats::default();
            let mut with_codes = Vec::new();
            let mut plain = Vec::new();
            a.seed_tile_with_codes_into(&reads, &codes, &mut sa, &mut with_codes);
            b.seed_tile_into(&reads, &mut sb, &mut plain);
            assert_eq!(with_codes, plain, "{kind} codes path diverged");
            assert_eq!(sa, sb, "{kind} codes-path stats diverged");
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
            backend.set_kernel_backend(casa_cam::KernelBackend::Scalar);
            let plan = crate::FaultPlan {
                seed: 9,
                cam_stuck_rate: 0.5,
                cam_flip_rate: 0.1,
                filter_flip_rate: 0.1,
                ..crate::FaultPlan::default()
            };
            let (cam, filter) =
                backend.inject_faults(&plan.cam_faults_for(0), &plan.filter_faults_for(0));
            assert_eq!(cam, casa_cam::CamFaultReport::default());
            assert_eq!(filter, casa_filter::FilterFaultReport::default());
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
