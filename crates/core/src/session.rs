//! Reusable parallel seeding sessions with fault-tolerant scheduling.
//!
//! [`SeedingSession`] is the batch-seeding runtime (the `casa` facade's
//! `Seeder` wraps it): it builds one boxed [`SeedingBackend`] per
//! partition — for the CAM backend, over one partition-interleaved
//! pre-seeding filter they share — **once** at construction, on up to
//! `workers` threads (the filter tables, CAM loads, or index builds
//! dominate small-batch runs), whether the partitions are built from a
//! reference or mapped from an index image, and then schedules tile jobs
//! across a worker pool for each incoming read batch: a tile's k-mer codes
//! are looked up in every partition at once, then the tile is seeded
//! against each partition in turn. The backend — the CASA CAM model, the
//! FM-index golden model, or the ERT model — is a runtime choice
//! ([`BackendKind`](crate::BackendKind), selected per process via
//! [`CASA_BACKEND`](crate::BACKEND_ENV) or per session via
//! [`with_backend`](SeedingSession::with_backend)); every layer above the
//! trait is backend-agnostic, and every backend emits the identical SMEM
//! stream (see [`crate::backend`]).
//!
//! # Determinism
//!
//! Results are bit-identical to the serial reference path
//! ([`SeedingSession::seed_reads_serial`]) at any worker count:
//!
//! * each tile job seeds its reads against every partition in turn and
//!   writes each partition's SMEMs into a dedicated slot, and the final
//!   per-read lists are assembled in partition-index order before the
//!   usual cross-partition merge — so the SMEM stream never depends on
//!   scheduling;
//! * [`SeedingStats`] is a bag of `u64` counters whose merge is plain
//!   addition, which is commutative and associative, so worker-local stats
//!   can be folded in any completion order;
//! * a backend's output and activity are a pure function of (partition,
//!   read): backends sit read-only in an `Arc`, with no lock, and
//!   everything a call writes is in the worker's own [`Lane`] or stats,
//!   which it hands back through `join` — so any number of workers, of one
//!   batch or of concurrent batches, seed one partition at once;
//! * a batch is cut into fixed 64-read tiles whatever the worker count,
//!   so crash faults, which are hashed per (partition, tile, attempt),
//!   land on the same attempts at every worker count; and quarantine
//!   takes effect from a snapshot taken when the batch starts, so every
//!   tile of a partition that fails during the batch still makes all its
//!   attempts. The recovery counters — retries, cross-check mismatches,
//!   fallbacks, quarantines — are then a function of the plan and the
//!   batch too, equal at every worker count.
//!
//! # Fault tolerance
//!
//! Every job runs inside `catch_unwind` and is retried with capped backoff
//! up to [`FaultPlan::max_retries`] times; when a tile's attempts are
//! exhausted its reads are re-seeded through the FM-index golden model
//! ([`casa_index::smem::smems_unidirectional`]) and its partition is
//! **quarantined**: from the next batch on, every tile of that partition
//! goes straight to the golden model. The `casa_equals_golden_*` tests
//! prove the engine bit-identical to the golden model's per-partition
//! output, so recovered batches keep their exact output. A seeded
//! [`FaultPlan`] can inject tile panics/stalls and hardware faults
//! (CAM stuck-at lines, CAM/filter bit flips) to exercise these paths
//! deterministically, plus a sampled golden cross-check that catches
//! *silent* corruption. A failed attempt's lane is discarded and the
//! worker continues on a fresh one; a failed attempt's stats are never
//! merged. With silent-corruption faults injected, output is guaranteed
//! bit-identical to the fault-free run only when
//! `cross_check_fraction == 1.0`; at lower fractions detection (and hence
//! which tiles fall back) is best-effort. See `DESIGN.md` §2b.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use casa_energy::circuits::CLOCK_HZ;
use casa_energy::DramSystem;
use casa_genome::{PackedSeq, Partition};
use casa_index::smem::{merge_flat_smems, merge_partition_smems, smems_unidirectional};
use casa_index::{Smem, SuffixArray};

use casa_cam::{Bcam, KernelBackend};
use casa_filter::{FilterFaultReport, PreSeedingFilter};

use crate::backend::{build_backend, BackendKind, SeedingBackend, TileKmerCodes};
use crate::engine::{env_kernel, CamIndex, Lane, PartitionEngine};
use crate::error::{ConfigError, Error};
use crate::faults::{self, FaultPlan, FaultSites, InjectedFault};
use crate::profile::{Stage, StageTimer};
use crate::stats::SeedingStats;
use crate::stream::supervisor::{self, GuardedOutcome};
use crate::stream::CancelToken;
use crate::CasaConfig;

/// Reads per tile: every batch is cut into tiles of this many reads (the
/// last one shorter), whatever the worker count. Tiling is part of the
/// recovery contract: fault decisions hash (partition, tile, attempt), so
/// the tiles a batch is cut into fix where injected panics and stalls
/// land, and with them `tile_retries` and the other recovery counters —
/// which therefore do not depend on the worker count either.
const TILE_READS: usize = 64;

/// Marker for a tile attempt whose output failed the golden cross-check.
struct CrossCheckMismatch;

/// One (partition, tile) attempt site of a batch: fault decisions, retries
/// and quarantine are per (partition, tile), though one tile job runs all
/// of a tile's partitions.
#[derive(Clone, Copy)]
struct Job {
    /// Partition index.
    pi: usize,
    /// Tile index.
    ti: usize,
    /// Batch index of the tile's first read.
    read_offset: usize,
}

/// Every way one supervised tile attempt can end.
enum AttemptOutcome {
    /// The attempt succeeded; its output and stats are authoritative.
    Done(Vec<Vec<Smem>>, Box<SeedingStats>),
    /// The sampled golden cross-check caught corrupted output.
    Mismatch,
    /// The attempt panicked (injected or real).
    Panicked,
    /// The watchdog deadline expired and the attempt was abandoned.
    TimedOut,
    /// The session's cancel token fired while the attempt was in flight.
    Cancelled,
}

/// Result of seeding a read batch.
#[derive(Clone, Debug)]
pub struct CasaRun {
    /// Per-read SMEMs in global reference coordinates, merged across
    /// partitions.
    pub smems: Vec<Vec<Smem>>,
    /// Accumulated activity.
    pub stats: SeedingStats,
    /// The configuration the run used.
    pub config: CasaConfig,
}

/// Both-orientation seeding results (paper §4.1: reads are sent to the
/// pre-seeding filter "together with the reverse strands").
#[derive(Clone, Debug)]
pub struct StrandedRun {
    /// Results of seeding the reads as given.
    pub forward: CasaRun,
    /// Results of seeding the reverse complements.
    pub reverse: CasaRun,
}

impl StrandedRun {
    /// For each read, the orientation with the longest SMEM:
    /// `(reverse?, smems)` — the natural input to per-strand alignment.
    pub fn best_per_read(&self) -> Vec<(bool, &[Smem])> {
        self.forward
            .smems
            .iter()
            .zip(&self.reverse.smems)
            .map(|(f, r)| {
                let fl = f.iter().map(Smem::len).max().unwrap_or(0);
                let rl = r.iter().map(Smem::len).max().unwrap_or(0);
                if rl > fl {
                    (true, r.as_slice())
                } else {
                    (false, f.as_slice())
                }
            })
            .collect()
    }

    /// Combined stats over both orientations.
    pub fn stats(&self) -> SeedingStats {
        let mut s = self.forward.stats;
        s.merge(&self.reverse.stats);
        s
    }
}

impl CasaRun {
    /// Total reads represented by the run (read passes divided by
    /// partition passes).
    pub fn reads(&self, partition_count: usize) -> u64 {
        if partition_count == 0 {
            0
        } else {
            self.stats.read_passes / partition_count as u64
        }
    }

    /// Modelled wall-clock seconds of the run.
    ///
    /// The pipeline overlaps read fetch, pre-seeding and SMEM computing
    /// (paper Fig. 9); throughput is set by the slowest stage:
    ///
    /// * pre-seeding: multi-banked filter lookups;
    /// * computing: CAM searches + pivot checks, spread over
    ///   `config.lanes` computing CAMs;
    /// * DRAM: streaming the read batch once per partition at the usable
    ///   bandwidth.
    pub fn seconds(&self, dram: &DramSystem) -> f64 {
        let pre = self.stats.filter_ops as f64 / self.config.filter_banks as f64 / CLOCK_HZ;
        let compute = self.stats.computing_cycles as f64 / self.config.lanes as f64 / CLOCK_HZ;
        let dram_s = dram.transfer_seconds(self.stats.dram_bytes);
        pre.max(compute).max(dram_s)
    }

    /// Seeding throughput in reads per second.
    pub fn throughput_reads_per_s(&self, partition_count: usize, dram: &DramSystem) -> f64 {
        let secs = self.seconds(dram);
        if secs == 0.0 {
            return 0.0;
        }
        self.reads(partition_count) as f64 / secs
    }
}

/// A seeding runtime bound to one reference and configuration.
///
/// Construction is the expensive step (one backend per reference
/// partition); every subsequent [`seed_reads`](SeedingSession::seed_reads)
/// call reuses the backends. Cloning a session is cheap and shares the
/// backends, the golden indexes, and the quarantine state.
///
/// ```
/// use casa_core::{CasaConfig, SeedingSession};
/// use casa_genome::synth::{generate_reference, ReferenceProfile};
///
/// let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 1);
/// let session = SeedingSession::new(&reference, CasaConfig::small(1_000), 2)?;
/// let read = reference.subseq(2_500, 40);
/// let run = session.seed_reads(std::slice::from_ref(&read));
/// assert!(run.smems[0][0].hits.contains(&2_500));
/// # Ok::<(), casa_core::Error>(())
/// ```
#[derive(Clone)]
pub struct SeedingSession {
    config: CasaConfig,
    /// Global start coordinate of each partition, indexed like `backends`.
    part_starts: Arc<Vec<u32>>,
    /// The partitions themselves (for the golden fallback index builds).
    parts: Arc<Vec<Partition>>,
    backend: BackendKind,
    /// One read-only backend per partition, shared by every worker.
    backends: Arc<Vec<Box<dyn SeedingBackend>>>,
    /// The CAM backends' one partition-interleaved filter, which each
    /// tile's shared lookup pass reads; `None` for the software backends.
    filter: Option<Arc<PreSeedingFilter>>,
    /// The CAM word kernel every lane runs (never executed by the
    /// software backends).
    kernel: KernelBackend,
    /// Lazily built golden suffix arrays, one per partition.
    golden: Arc<Vec<OnceLock<SuffixArray>>>,
    /// Partitions routed to the golden model after retry exhaustion.
    quarantined: Arc<Vec<AtomicBool>>,
    plan: FaultPlan,
    fault_sites: Arc<FaultSites>,
    workers: usize,
    /// Watchdog deadline per tile attempt; `None` (the default) runs
    /// attempts unguarded on the worker thread.
    tile_deadline: Option<Duration>,
    /// Cooperative cancellation for in-flight batches, checked at tile
    /// boundaries; `None` (the default) never cancels. Clones share the
    /// token, so the watchdog's owned session copy observes it too.
    cancel: Option<CancelToken>,
    /// Whether batches take wall-clock stage timestamps — shared across
    /// clones, read once per batch and carried by that batch's lanes.
    profiling: Arc<AtomicBool>,
}

impl std::fmt::Debug for SeedingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeedingSession")
            .field("config", &self.config)
            .field("backend", &self.backend)
            .field("kernel", &self.kernel)
            .field("partitions", &self.backends.len())
            .field("workers", &self.workers)
            .field("fault_plan", &self.plan)
            .finish()
    }
}

/// Fills a front end's unset knobs: backend and fault plan from the
/// environment ([`CASA_BACKEND`](crate::BACKEND_ENV),
/// [`CASA_FAULT_SEED`](faults::FAULT_SEED_ENV)), else CAM and fault-free;
/// workers from the available parallelism. Every session constructor and
/// front end resolves its knobs here, so an explicit value always wins
/// and a malformed variable is always a typed error.
///
/// # Errors
///
/// [`ConfigError::UnknownSeedingBackend`](crate::ConfigError::UnknownSeedingBackend)
/// for an unrecognised `CASA_BACKEND` value and
/// [`ConfigError::BadFaultPlan`](crate::ConfigError::BadFaultPlan) for a
/// `CASA_FAULT_SEED` value that is not a `u64` seed — each only when the
/// knob it would fill is unset.
pub fn env_defaults(
    backend: Option<BackendKind>,
    plan: Option<FaultPlan>,
    workers: Option<usize>,
) -> Result<(BackendKind, FaultPlan, usize), crate::ConfigError> {
    let backend = match backend {
        Some(kind) => kind,
        None => BackendKind::from_env()?.unwrap_or(BackendKind::Cam),
    };
    let plan = match plan {
        Some(plan) => plan,
        None => FaultPlan::from_env()?.unwrap_or_default(),
    };
    let workers =
        workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    Ok((backend, plan, workers))
}

impl SeedingSession {
    /// Validates `config`, splits `reference`, and builds one backend per
    /// partition.
    ///
    /// If the [`CASA_FAULT_SEED`](faults::FAULT_SEED_ENV) environment
    /// variable is set, the CI fault profile
    /// ([`FaultPlan::ci_plan`]) is armed so the recovery paths are
    /// exercised; otherwise the session runs fault-free. If the
    /// [`CASA_BACKEND`](crate::BACKEND_ENV) environment variable is set,
    /// that seeding backend is built instead of the CAM default.
    ///
    /// # Errors
    ///
    /// * [`Error::Config`] if the configuration is inconsistent (including
    ///   a typed
    ///   [`ConfigError::UnknownSeedingBackend`](crate::ConfigError::UnknownSeedingBackend)
    ///   for an unrecognised `CASA_BACKEND` value and a typed
    ///   [`ConfigError::BadFaultPlan`](crate::ConfigError::BadFaultPlan)
    ///   for a `CASA_FAULT_SEED` value that is not a `u64` seed);
    /// * [`Error::EmptyReference`] if `reference` has no bases;
    /// * [`Error::ZeroWorkers`] if `workers == 0`.
    pub fn new(
        reference: &PackedSeq,
        config: CasaConfig,
        workers: usize,
    ) -> Result<SeedingSession, Error> {
        let (backend, plan, workers) = env_defaults(None, None, Some(workers))?;
        SeedingSession::with_backend(reference, config, workers, plan, backend)
    }

    /// Like [`new`](Self::new) with an explicit fault plan: hardware
    /// faults are injected into the freshly built backends and scheduler
    /// faults armed for every batch.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), plus [`Error::Config`] with
    /// [`ConfigError::BadFaultPlan`](crate::ConfigError::BadFaultPlan) if
    /// a plan rate lies outside `[0, 1]`.
    pub fn with_fault_plan(
        reference: &PackedSeq,
        config: CasaConfig,
        workers: usize,
        plan: FaultPlan,
    ) -> Result<SeedingSession, Error> {
        let (backend, plan, workers) = env_defaults(None, Some(plan), Some(workers))?;
        SeedingSession::with_backend(reference, config, workers, plan, backend)
    }

    /// Like [`with_fault_plan`](Self::with_fault_plan) with an explicit
    /// seeding backend, ignoring the [`CASA_BACKEND`](crate::BACKEND_ENV)
    /// environment variable. The CAM backend's one partition-interleaved
    /// filter is built on `workers` threads, and the partition backends on
    /// `min(workers, partitions)` threads; each lands at its partition's
    /// index, so the session does not depend on the build's scheduling.
    /// Hardware faults are then injected serially, per partition: filter
    /// faults into the shared filter, CAM faults through the backend's
    /// [`inject_faults`](SeedingBackend::inject_faults) hook — both no-ops
    /// on the software backends, which have no CAM lines or filter tables
    /// to corrupt (scheduler faults still apply).
    ///
    /// # Errors
    ///
    /// As [`with_fault_plan`](Self::with_fault_plan), plus
    /// [`ConfigError::FilterTooLarge`] on the CAM backend for a reference
    /// of more than `u32::MAX` k-mers.
    pub fn with_backend(
        reference: &PackedSeq,
        config: CasaConfig,
        workers: usize,
        plan: FaultPlan,
        backend: BackendKind,
    ) -> Result<SeedingSession, Error> {
        SeedingSession::assemble(
            reference,
            config,
            workers,
            plan,
            backend,
            |parts| {
                let seqs: Vec<&PackedSeq> = parts.iter().map(|p| &p.seq).collect();
                PreSeedingFilter::build_partitions(&seqs, config.filter, workers)
                    .map_err(|e| Error::Config(e.into()))
            },
            |p, filter| {
                match filter {
                    Some(filter) => CamIndex::with_filter(
                        Arc::clone(filter),
                        p.index,
                        Bcam::new(&p.seq, config.filter.stride),
                        config,
                    )
                    .map(|index| Box::new(index) as Box<dyn SeedingBackend>),
                    None => build_backend(backend, &p.seq, config),
                }
                .map_err(Error::Config)
            },
            |_| None,
        )
    }

    /// Builds a session from a loaded index image instead of from scratch.
    ///
    /// For the CAM backend every reference-side array — CAM entry
    /// bitplanes, the pre-seeding filter tables, golden suffix arrays — is
    /// borrowed straight from the image's read-only mapping: no table is
    /// rebuilt and no per-load copy is made, so construction cost is
    /// partition splitting plus page faults. The FM/ERT software baselines
    /// rebuild their private indexes from the image's reference text; the
    /// golden suffix arrays still come from the mapping. Either way the
    /// session is bit-identical to one built with
    /// [`with_backend`](Self::with_backend) from the same reference and
    /// config, and is assembled the same way: partitions wired on
    /// `min(workers, partitions)` threads, faults injected serially.
    ///
    /// Hardware fault injection works unchanged without disturbing the
    /// mapping (or other sessions sharing it): the CAM planes are
    /// copy-on-write, so bit flips detach the affected partition's planes
    /// into a private heap copy, and filter faults live in the filter's
    /// own overlay, leaving its mapped tables shared.
    ///
    /// # Errors
    ///
    /// As [`with_backend`](Self::with_backend), plus [`Error::Image`] if a
    /// section the CAM backend needs is missing or shaped wrong (the
    /// filter's first, then the lowest such partition is named, at any
    /// worker count).
    pub fn from_image(
        index: &crate::image::LoadedIndex,
        workers: usize,
        plan: FaultPlan,
        backend: BackendKind,
    ) -> Result<SeedingSession, Error> {
        let config = *index.config();
        SeedingSession::assemble(
            index.reference(),
            config,
            workers,
            plan,
            backend,
            |parts| index.filter(parts),
            |p, filter| index.backend_for_partition(backend, p, config, filter),
            |p| index.suffix_array_for_partition(p),
        )
    }

    /// The one assembly behind [`with_backend`](Self::with_backend) and
    /// [`from_image`](Self::from_image): validates the inputs, splits
    /// `reference`, gets the CAM backend's shared filter from
    /// `filter_for` and injects the plan's filter faults into it, gets
    /// each partition's backend from `backend_for` (handed the shared
    /// filter, if any) on `min(workers, partitions)` threads
    /// ([`build_backends`]), injects the plan's CAM faults serially, and
    /// pre-fills each golden suffix-array cell that `golden_for` can
    /// supply (the rest are built on first fallback). The CAM backend's
    /// word kernel comes from `CASA_KERNEL` when set — an invalid value is
    /// a typed error — else the process default.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        reference: &PackedSeq,
        config: CasaConfig,
        workers: usize,
        plan: FaultPlan,
        backend: BackendKind,
        filter_for: impl FnOnce(&[Partition]) -> Result<PreSeedingFilter, Error>,
        backend_for: impl Fn(&Partition, Option<&Arc<PreSeedingFilter>>) -> Result<Box<dyn SeedingBackend>, Error>
            + Sync,
        golden_for: impl Fn(&Partition) -> Option<SuffixArray>,
    ) -> Result<SeedingSession, Error> {
        if workers == 0 {
            return Err(Error::ZeroWorkers);
        }
        let plan = plan.validated()?;
        let config = config.validated()?;
        let partitions: Vec<Partition> = config.partitioning.split(reference);
        if partitions.is_empty() {
            return Err(Error::EmptyReference);
        }
        let kernel = match backend {
            BackendKind::Cam => env_kernel()?,
            BackendKind::Fm | BackendKind::Ert => casa_cam::kernel::default_backend(),
        };
        let part_starts = partitions.iter().map(|p| p.start as u32).collect();
        let nparts = partitions.len();
        let mut fault_sites = FaultSites::default();
        let filter = match backend {
            BackendKind::Cam => {
                let mut filter = filter_for(&partitions)?;
                fault_sites.filter = (0..nparts)
                    .map(|pi| filter.inject_faults(pi, &plan.filter_faults_for(pi)))
                    .collect();
                Some(Arc::new(filter))
            }
            BackendKind::Fm | BackendKind::Ert => {
                fault_sites.filter = vec![FilterFaultReport::default(); nparts];
                None
            }
        };
        let mut backends =
            build_backends(&partitions, workers, |p| backend_for(p, filter.as_ref()))?;
        fault_sites.cam = backends
            .iter_mut()
            .enumerate()
            .map(|(pi, b)| b.inject_faults(&plan.cam_faults_for(pi)))
            .collect();
        if plan.tile_panic_rate > 0.0 {
            faults::silence_injected_panics();
        }
        let golden = partitions
            .iter()
            .map(|p| golden_for(p).map_or_else(OnceLock::new, OnceLock::from))
            .collect();
        Ok(SeedingSession {
            config,
            part_starts: Arc::new(part_starts),
            parts: Arc::new(partitions),
            backend,
            backends: Arc::new(backends),
            filter,
            kernel,
            golden: Arc::new(golden),
            quarantined: Arc::new((0..nparts).map(|_| AtomicBool::new(false)).collect()),
            plan,
            fault_sites: Arc::new(fault_sites),
            workers,
            tile_deadline: None,
            cancel: None,
            profiling: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Enables per-stage wall-clock profiling (see [`crate::profile`]) on
    /// this session and its clones, from the next batch on; spans
    /// accumulate into [`SeedingStats::profile`]. Off by default —
    /// timings are nondeterministic and excluded from the bit-identity
    /// contract, so runs compared for equality keep this off.
    pub fn set_profiling(&self, enabled: bool) {
        self.profiling.store(enabled, Ordering::Relaxed);
    }

    /// Whether per-stage profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling.load(Ordering::Relaxed)
    }

    /// Sets (or clears) the watchdog deadline for tile attempts.
    ///
    /// With a deadline, every attempt runs on a supervised thread and is
    /// abandoned when the deadline expires; the abandoned attempt is
    /// counted in [`SeedingStats::deadline_stalls`] and the tile is
    /// retried — then quarantined to the golden model — exactly like a
    /// panicking attempt, so output stays bit-identical. The deadline
    /// never changes results, only how stalls are detected, which is why
    /// the streaming checkpoint fingerprint excludes it.
    pub fn with_tile_deadline(mut self, deadline: Option<Duration>) -> SeedingSession {
        self.tile_deadline = deadline;
        self
    }

    /// The active watchdog deadline, if any.
    pub fn tile_deadline(&self) -> Option<Duration> {
        self.tile_deadline
    }

    /// Sets (or clears) a cooperative cancellation token for this
    /// session's batches. Workers check the token at tile boundaries —
    /// and the watchdog checks it every millisecond while a guarded
    /// attempt is in flight — so a cancelled batch stops within roughly
    /// one tile's work. A cancelled
    /// [`try_seed_reads`](Self::try_seed_reads) returns
    /// [`Error::Cancelled`]; the partial work is discarded, never routed
    /// through the golden fallback. Like the tile deadline, the token
    /// never changes what a completed batch computes.
    pub fn with_cancel_token(mut self, token: Option<CancelToken>) -> SeedingSession {
        self.cancel = token;
        self
    }

    /// A clone of the session's cancel token, if one is set.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        self.cancel.clone()
    }

    /// Whether the session's cancel token (if any) has fired.
    fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// The session configuration.
    pub fn config(&self) -> &CasaConfig {
        &self.config
    }

    /// The seeding backend every partition is driven through. Like the
    /// tile deadline, the backend never changes results — all backends
    /// emit the identical SMEM stream — so the streaming checkpoint
    /// fingerprint excludes it.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The active fault plan (all-zero rates when fault-free).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The hardware fault sites injected at construction, per partition.
    pub fn fault_sites(&self) -> &FaultSites {
        &self.fault_sites
    }

    /// Number of reference partitions (passes per read batch).
    pub fn partition_count(&self) -> usize {
        self.backends.len()
    }

    /// Number of partitions currently quarantined to the golden model.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined
            .iter()
            .filter(|q| q.load(Ordering::Relaxed))
            .count()
    }

    /// Worker threads used per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Pins the CAM word kernel every lane runs, overriding the process
    /// default (`CASA_KERNEL` or runtime CPU detection). All kernels
    /// produce identical SMEMs and statistics; the software backends
    /// never execute one.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] with
    /// [`ConfigError::UnknownKernelBackend`] if this CPU cannot run
    /// `kernel` — never a silent fallback to another kernel.
    pub fn with_kernel_backend(mut self, kernel: KernelBackend) -> Result<SeedingSession, Error> {
        self.kernel = kernel.ensure_supported().map_err(ConfigError::from)?;
        Ok(self)
    }

    /// The CAM word kernel every lane runs; the software backends never
    /// execute it.
    pub fn kernel_backend(&self) -> KernelBackend {
        self.kernel
    }

    /// Makes `codes` the tile's own: its rolling k-mer codes and, when the
    /// filter table is in use, the shared pre-seeding pass over every
    /// partition at once — each booked as one span. Reuses the buffers
    /// unless an abandoned watchdog attempt still holds them. Software
    /// backends read no codes, so their tiles get none.
    fn prepare_tile(
        &self,
        codes: &mut Arc<TileKmerCodes>,
        tile: &[PackedSeq],
        profiling: bool,
        stats: &mut SeedingStats,
    ) {
        if self.backend != BackendKind::Cam {
            return;
        }
        if Arc::get_mut(codes).is_none() {
            *codes = Arc::default();
        }
        let codes = Arc::get_mut(codes).expect("a fresh Arc is unique");
        let t = StageTimer::start(profiling);
        codes.refill(tile, self.config.filter.k);
        t.stop(&mut stats.profile, Stage::KmerCodes);
        if let Some(filter) = self
            .filter
            .as_ref()
            .filter(|_| self.config.use_filter_table)
        {
            let t = StageTimer::start(profiling);
            codes.look_up(filter);
            t.stop(&mut stats.profile, Stage::FilterLookup);
        }
    }

    /// Seeds one read through the golden FM-index model of partition `pi`,
    /// hits translated to global coordinates — the quarantine fallback and
    /// the cross-check reference. Builds the partition's suffix array on
    /// first use.
    fn golden_read(&self, pi: usize, read: &PackedSeq) -> Vec<Smem> {
        let sa = self.golden[pi].get_or_init(|| SuffixArray::build(&self.parts[pi].seq));
        let mut smems = smems_unidirectional(sa, read, self.config.min_smem_len);
        let start = self.part_starts[pi];
        for smem in &mut smems {
            for hit in &mut smem.hits {
                *hit += start;
            }
        }
        smems
    }

    /// One attempt at a (partition, tile) job: inject any scheduled
    /// stall/panic, seed the tile through the partition backend on
    /// `lane`, then cross-check the sampled reads against the golden
    /// model.
    fn attempt_tile(
        &self,
        job: Job,
        attempt: usize,
        lane: &mut Lane,
        tile: &[PackedSeq],
        codes: &TileKmerCodes,
    ) -> Result<(Vec<Vec<Smem>>, SeedingStats), CrossCheckMismatch> {
        let Job { pi, ti, .. } = job;
        if !self.plan.is_noop() {
            if self.plan.should_stall(pi, ti, attempt) {
                std::thread::sleep(self.plan.stall_duration());
            }
            if self.plan.should_panic(pi, ti, attempt) {
                std::panic::panic_any(InjectedFault {
                    partition: pi,
                    tile: ti,
                    attempt,
                });
            }
        }
        let mut stats = SeedingStats::default();
        let start = self.part_starts[pi];
        let mut out: Vec<Vec<Smem>> = Vec::with_capacity(tile.len());
        self.backends[pi].seed_tile(lane, tile, codes, &mut stats, &mut out);
        let t = StageTimer::start(lane.profiling());
        for smems in &mut out {
            for smem in smems {
                for hit in &mut smem.hits {
                    *hit += start;
                }
            }
        }
        t.stop(&mut stats.profile, Stage::TranslateMerge);
        if self.plan.cross_check_fraction > 0.0 {
            for (k, read) in tile.iter().enumerate() {
                if self.plan.should_check(pi, job.read_offset + k) {
                    stats.crosscheck_reads += 1;
                    if out[k] != self.golden_read(pi, read) {
                        return Err(CrossCheckMismatch);
                    }
                }
            }
        }
        Ok((out, stats))
    }

    /// One tile attempt behind whatever supervision is configured: a bare
    /// `catch_unwind` without a deadline, the watchdog thread with one.
    /// Both paths report panics identically; only the watchdog can
    /// additionally report a timeout. Whenever the attempt does not come
    /// back, `lane` is left as a fresh lane: a lane an attempt panicked
    /// on or abandoned is never reused.
    fn guarded_attempt(
        &self,
        job: Job,
        attempt: usize,
        lane: &mut Lane,
        tile: &[PackedSeq],
        codes: &Arc<TileKmerCodes>,
    ) -> AttemptOutcome {
        let profiling = lane.profiling();
        match self.tile_deadline {
            None => match catch_unwind(AssertUnwindSafe(|| {
                self.attempt_tile(job, attempt, lane, tile, codes)
            })) {
                Ok(Ok((out, stats))) => AttemptOutcome::Done(out, Box::new(stats)),
                Ok(Err(CrossCheckMismatch)) => AttemptOutcome::Mismatch,
                Err(_panic) => {
                    *lane = Lane::new(self.kernel, profiling);
                    AttemptOutcome::Panicked
                }
            },
            Some(deadline) => {
                // The guarded job runs on its own thread and may outlive
                // the deadline, so it owns everything it touches: a cheap
                // session clone (shared `Arc`s), the tile's reads, a handle
                // on the tile's shared codes, and the worker's lane, which
                // comes back with the result. An abandoned attempt keeps
                // its lane and the worker carries on with a fresh one.
                let session = self.clone();
                let tile = tile.to_vec();
                let codes = Arc::clone(codes);
                let mut owned = std::mem::replace(lane, Lane::new(self.kernel, profiling));
                match supervisor::run_with_deadline(deadline, self.cancel.as_ref(), move || {
                    let result = session.attempt_tile(job, attempt, &mut owned, &tile, &codes);
                    (result, owned)
                }) {
                    GuardedOutcome::Completed((result, returned)) => {
                        *lane = returned;
                        match result {
                            Ok((out, stats)) => AttemptOutcome::Done(out, Box::new(stats)),
                            Err(CrossCheckMismatch) => AttemptOutcome::Mismatch,
                        }
                    }
                    GuardedOutcome::Panicked => AttemptOutcome::Panicked,
                    GuardedOutcome::TimedOut => AttemptOutcome::TimedOut,
                    GuardedOutcome::Cancelled => AttemptOutcome::Cancelled,
                }
            }
        }
    }

    /// Runs a (partition, tile) job to a definitive result: retry failed
    /// attempts with capped backoff, then quarantine the partition and
    /// fall back to the golden model. Only the successful attempt's
    /// stats are merged, so failed attempts never skew the activity
    /// counters. A partition in `quarantined_at_start` (the flags as the
    /// batch began) goes straight to the fallback; one quarantined
    /// during the batch does not, so what a tile attempts never depends
    /// on how far other workers got.
    fn run_tile(
        &self,
        job: Job,
        quarantined_at_start: &[bool],
        lane: &mut Lane,
        tile: &[PackedSeq],
        codes: &Arc<TileKmerCodes>,
        stats: &mut SeedingStats,
    ) -> Vec<Vec<Smem>> {
        let Job { pi, ti, .. } = job;
        let attempts = if quarantined_at_start[pi] {
            0
        } else {
            self.plan.max_retries.saturating_add(1)
        };
        for attempt in 0..attempts {
            if self.is_cancelled() {
                // The batch is being abandoned: hand back a placeholder
                // (the caller discards every result on cancellation) and
                // never route a cancelled tile into the golden fallback.
                return vec![Vec::new(); tile.len()];
            }
            match self.guarded_attempt(job, attempt, lane, tile, codes) {
                AttemptOutcome::Done(out, attempt_stats) => {
                    stats.merge(&attempt_stats);
                    return out;
                }
                AttemptOutcome::Mismatch => {
                    stats.tile_retries += 1;
                    stats.crosscheck_mismatches += 1;
                }
                AttemptOutcome::Panicked => {
                    stats.tile_retries += 1;
                }
                AttemptOutcome::TimedOut => {
                    // A stall caught by the watchdog, not a crash: counted
                    // apart from panic retries so operators can tell
                    // hangs from faults.
                    stats.deadline_stalls += 1;
                    crate::log_warn!(
                        "tile ({pi}, {ti}) attempt {attempt} exceeded the watchdog deadline"
                    );
                }
                AttemptOutcome::Cancelled => {
                    return vec![Vec::new(); tile.len()];
                }
            }
            if attempt + 1 < attempts && !self.is_cancelled() {
                // Capped exponential with deterministic per-site jitter:
                // simultaneous retries across partitions desynchronize
                // instead of hammering the scheduler in lockstep (see
                // `FaultPlan::retry_backoff`).
                std::thread::sleep(self.plan.retry_backoff(pi, ti, attempt));
            }
        }
        if self.is_cancelled() {
            // As above: a cancelled tile never reaches the fallback.
            return vec![Vec::new(); tile.len()];
        }
        if !self.quarantined[pi].swap(true, Ordering::Relaxed) {
            stats.partitions_quarantined += 1;
        }
        stats.fallback_reads += tile.len() as u64;
        tile.iter().map(|read| self.golden_read(pi, read)).collect()
    }

    /// The longest read this session seeds exactly, or `None` when any
    /// length is fine.
    ///
    /// Adjacent partitions overlap by `config.partitioning.overlap` bases,
    /// so every window of `overlap + 1` bases lies whole inside some
    /// partition. A longer read can straddle a boundary with no partition
    /// holding its full match, and its SMEMs would come back split. When
    /// the first partition already holds the whole reference (a single
    /// partition, or later ones lying inside its overlap) there is no
    /// boundary to straddle and no limit.
    pub fn max_read_len(&self) -> Option<usize> {
        let last = self.parts.last()?;
        let reference_len = last.start + last.seq.len();
        (self.parts[0].seq.len() < reference_len).then_some(self.config.partitioning.overlap + 1)
    }

    /// Checks a batch against [`max_read_len`](Self::max_read_len).
    ///
    /// # Errors
    ///
    /// [`Error::ReadTooLong`] naming the first read over the limit.
    pub fn check_read_lengths(&self, reads: &[PackedSeq]) -> Result<(), Error> {
        let Some(max) = self.max_read_len() else {
            return Ok(());
        };
        match reads.iter().position(|r| r.len() > max) {
            Some(read) => Err(Error::ReadTooLong {
                read,
                len: reads[read].len(),
                max,
            }),
            None => Ok(()),
        }
    }

    /// Seeds a read batch against every partition and merges the results.
    ///
    /// Output is bit-identical to the serial reference path regardless of
    /// `workers` (see the module docs); under an active fault plan the
    /// recovery machinery preserves that equality (exactly, for crash
    /// faults; given `cross_check_fraction == 1.0`, for silent faults).
    /// If the scheduler itself ends in an unrecoverable state, the whole
    /// batch is re-seeded through the golden model. A cancelled batch
    /// (see [`with_cancel_token`](Self::with_cancel_token)) returns an
    /// empty result per read instead — the caller asked for the work to
    /// stop, so the expensive golden path must not run either.
    ///
    /// # Panics
    ///
    /// Panics with the [`Error::ReadTooLong`] message if a read is longer
    /// than [`max_read_len`](Self::max_read_len): no path, the golden
    /// fallback included, could seed it exactly. Callers that take reads
    /// from outside use [`try_seed_reads`](Self::try_seed_reads) or
    /// [`check_read_lengths`](Self::check_read_lengths) first.
    pub fn seed_reads(&self, reads: &[PackedSeq]) -> CasaRun {
        match self.try_seed_reads(reads) {
            Ok(run) => run,
            Err(Error::Cancelled) => CasaRun {
                smems: vec![Vec::new(); reads.len()],
                stats: SeedingStats::default(),
                config: self.config,
            },
            Err(e @ Error::ReadTooLong { .. }) => panic!("{e}"),
            Err(_) => self.golden_batch(reads),
        }
    }

    /// Like [`seed_reads`](Self::seed_reads), reporting over-long reads
    /// and unrecoverable scheduler states instead of panicking or falling
    /// back.
    ///
    /// # Errors
    ///
    /// * [`Error::ReadTooLong`] if a read is longer than
    ///   [`max_read_len`](Self::max_read_len) (nothing is seeded);
    /// * [`Error::Runtime`] if a tile slot is empty after the batch — a
    ///   scheduler invariant violation, not an injected fault (those are
    ///   recovered internally);
    /// * [`Error::Cancelled`] if the session's cancel token fired before
    ///   the batch finished (the partial work is discarded).
    pub fn try_seed_reads(&self, reads: &[PackedSeq]) -> Result<CasaRun, Error> {
        if self.is_cancelled() {
            return Err(Error::Cancelled);
        }
        self.check_read_lengths(reads)?;
        let nparts = self.backends.len();
        let ntiles = reads.len().div_ceil(TILE_READS);
        let tile_of = |ti: usize| &reads[ti * TILE_READS..((ti + 1) * TILE_READS).min(reads.len())];
        // Read once per batch: this batch's lanes carry the profiling
        // switch, and its tiles skip only partitions quarantined before
        // it began.
        let profiling = self.profiling();
        let quarantined_at_start: Vec<bool> = self
            .quarantined
            .iter()
            .map(|q| q.load(Ordering::Relaxed))
            .collect();

        // Workers claim tiles off a shared counter, each on its own lane
        // and tile buffers, and seed a tile against every partition in
        // turn: its rolling k-mer codes and filter indicators are fetched
        // once (`prepare_tile`) and stay hot while the partitions consume
        // them. Each worker hands back (tile, per-partition outputs)
        // pairs plus its stats through `join`. A watchdogged attempt
        // holds its tile's codes through the `Arc`.
        let next_tile = AtomicUsize::new(0);
        let run_tiles = || {
            let mut lane = Lane::new(self.kernel, profiling);
            let mut codes = Arc::new(TileKmerCodes::default());
            let mut done = Vec::new();
            let mut stats = SeedingStats::default();
            while !self.is_cancelled() {
                let ti = next_tile.fetch_add(1, Ordering::Relaxed);
                if ti >= ntiles {
                    break;
                }
                let tile = tile_of(ti);
                self.prepare_tile(&mut codes, tile, profiling, &mut stats);
                let outs: Vec<Vec<Vec<Smem>>> = (0..nparts)
                    .map(|pi| {
                        let job = Job {
                            pi,
                            ti,
                            read_offset: ti * TILE_READS,
                        };
                        self.run_tile(
                            job,
                            &quarantined_at_start,
                            &mut lane,
                            tile,
                            &codes,
                            &mut stats,
                        )
                    })
                    .collect();
                done.push((ti, outs));
            }
            (done, stats)
        };

        let results: Vec<_> = if self.workers == 1 {
            // Single worker: run the tile loop inline. Same tile order and
            // identical output/stats as the spawned path; skipping the
            // per-batch thread spawn/join keeps small batches out of the
            // scheduler.
            vec![run_tiles()]
        } else {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..self.workers.min(ntiles.max(1)))
                    .map(|_| scope.spawn(run_tiles))
                    .collect();
                workers
                    .into_iter()
                    .map(|w| {
                        w.join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                    })
                    .collect()
            })
        };
        // A cancelled batch stops here: tiles may be missing (or hold
        // placeholder output from cancelled attempts), so assembling them
        // would produce wrong results. Discard everything instead.
        if self.is_cancelled() {
            return Err(Error::Cancelled);
        }
        let mut stats = SeedingStats::default();
        let mut slots: Vec<Option<Vec<Vec<Vec<Smem>>>>> = vec![None; ntiles];
        for (done, worker_stats) in results {
            stats.merge(&worker_stats);
            for (ti, outs) in done {
                slots[ti] = Some(outs);
            }
        }
        stats.dram_bytes += read_stream_bytes(reads);

        // Assemble each read's per-partition results in partition order
        // and merge across partitions, exactly like the serial path — but
        // zero-copy: every tile's slot vectors are drained straight into
        // one reused flat scratch per read instead of a per-read
        // `Vec<Vec<Smem>>` of clones.
        let t = StageTimer::start(profiling);
        let mut smems: Vec<Vec<Smem>> = Vec::with_capacity(reads.len());
        let mut flat: Vec<Smem> = Vec::new();
        for (ti, slot) in slots.iter_mut().enumerate() {
            let mut tile_outs = slot.take().ok_or(Error::Runtime {
                what: "tile slot empty after batch",
            })?;
            for k in 0..tile_of(ti).len() {
                flat.clear();
                for part_out in &mut tile_outs {
                    flat.append(&mut part_out[k]);
                }
                smems.push(merge_flat_smems(&mut flat));
            }
        }
        t.stop(&mut stats.profile, Stage::TranslateMerge);
        Ok(CasaRun {
            smems,
            stats,
            config: self.config,
        })
    }

    /// Seeds the whole batch through the golden model — the last-resort
    /// path of [`seed_reads`](Self::seed_reads).
    fn golden_batch(&self, reads: &[PackedSeq]) -> CasaRun {
        let nparts = self.backends.len();
        let mut stats = SeedingStats::default();
        let mut per_read_parts: Vec<Vec<Vec<Smem>>> = vec![Vec::new(); reads.len()];
        for pi in 0..nparts {
            for (ri, read) in reads.iter().enumerate() {
                per_read_parts[ri].push(self.golden_read(pi, read));
            }
            stats.fallback_reads += reads.len() as u64;
        }
        self.merged_run(reads, per_read_parts, stats)
    }

    /// Seeds the batch in both orientations (each read and its reverse
    /// complement), as the hardware does.
    ///
    /// # Panics
    ///
    /// As [`seed_reads`](Self::seed_reads).
    pub fn seed_reads_both_strands(&self, reads: &[PackedSeq]) -> StrandedRun {
        let rc: Vec<PackedSeq> = reads.iter().map(PackedSeq::reverse_complement).collect();
        StrandedRun {
            forward: self.seed_reads(reads),
            reverse: self.seed_reads(&rc),
        }
    }

    /// The original single-threaded implementation, which rebuilds every
    /// partition engine on each call: the executable specification of
    /// [`seed_reads`](Self::seed_reads) and the baseline its benches
    /// compare against. Always drives the CAM engine, whatever
    /// [`backend`](Self::backend) the session was built with, and ignores
    /// the fault plan.
    pub fn seed_reads_serial(&self, reads: &[PackedSeq]) -> CasaRun {
        let mut stats = SeedingStats::default();
        let mut per_read_parts: Vec<Vec<Vec<Smem>>> = vec![Vec::new(); reads.len()];
        for part in self.parts.iter() {
            let mut engine = PartitionEngine::new(&part.seq, self.config)
                .expect("config validated at construction");
            for (ri, read) in reads.iter().enumerate() {
                let mut smems = engine.seed_read(read, &mut stats);
                for smem in &mut smems {
                    for hit in &mut smem.hits {
                        *hit += part.start as u32;
                    }
                }
                per_read_parts[ri].push(smems);
            }
        }
        self.merged_run(reads, per_read_parts, stats)
    }

    /// Finishes a partition-at-a-time run: charges the read stream and
    /// merges each read's per-partition SMEM lists (in partition order).
    fn merged_run(
        &self,
        reads: &[PackedSeq],
        per_read_parts: Vec<Vec<Vec<Smem>>>,
        mut stats: SeedingStats,
    ) -> CasaRun {
        stats.dram_bytes += read_stream_bytes(reads);
        CasaRun {
            smems: per_read_parts
                .into_iter()
                .map(merge_partition_smems)
                .collect(),
            stats,
            config: self.config,
        }
    }
}

/// Gets one backend per partition from `backend_for` on
/// `min(workers, partitions)` scoped threads, each claiming the next
/// partition index off a shared counter. Results land by partition index,
/// so the backends — and the first error, taken in partition order —
/// never depend on scheduling.
fn build_backends(
    partitions: &[Partition],
    workers: usize,
    backend_for: impl Fn(&Partition) -> Result<Box<dyn SeedingBackend>, Error> + Sync,
) -> Result<Vec<Box<dyn SeedingBackend>>, Error> {
    // The counter only hands out indices; each result reaches this thread
    // through its builder's join, which synchronizes on its own.
    let next = AtomicUsize::new(0);
    let mut built = std::thread::scope(|scope| {
        let builders: Vec<_> = (0..workers.min(partitions.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let pi = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = partitions.get(pi) else { break };
                        mine.push((pi, backend_for(p)));
                    }
                    mine
                })
            })
            .collect();
        builders
            .into_iter()
            .flat_map(|b| {
                b.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect::<Vec<_>>()
    });
    built.sort_unstable_by_key(|&(pi, _)| pi);
    built.into_iter().map(|(_, b)| b).collect()
}

/// DRAM bytes to stream a read batch in once (2-bit packed + header); the
/// reads then sit in the on-chip buffer while partitions rotate.
fn read_stream_bytes(reads: &[PackedSeq]) -> u64 {
    reads.iter().map(|r| r.len().div_ceil(4) as u64 + 8).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConfigError;
    use casa_genome::synth::{generate_reference, ReferenceProfile};
    use casa_genome::{ReadSimConfig, ReadSimulator};

    fn reads_for(reference: &PackedSeq, n: usize, read_len: usize, seed: u64) -> Vec<PackedSeq> {
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len,
                ..ReadSimConfig::default()
            },
            seed,
        );
        sim.simulate(reference, n)
            .into_iter()
            .map(|r| r.seq)
            .collect()
    }

    fn env_faults_off() -> bool {
        std::env::var_os(faults::FAULT_SEED_ENV).is_none()
    }

    /// True unless CI pinned `CASA_BACKEND` to a software backend: tests
    /// that assert CAM activity stats or injected CAM/filter fault sites
    /// only hold on the CAM backend.
    fn env_backend_is_cam() -> bool {
        matches!(
            BackendKind::from_env(),
            Ok(None) | Ok(Some(BackendKind::Cam))
        )
    }

    #[test]
    fn constructor_reports_typed_errors() {
        let reference = generate_reference(&ReferenceProfile::uniform(), 1_000, 3);
        let config = CasaConfig::small(500);
        assert_eq!(
            SeedingSession::new(&reference, config, 0).unwrap_err(),
            Error::ZeroWorkers
        );
        let empty = PackedSeq::from_ascii(b"").unwrap();
        assert_eq!(
            SeedingSession::new(&empty, config, 1).unwrap_err(),
            Error::EmptyReference
        );
        let mut bad = config;
        bad.lanes = 0;
        assert_eq!(
            SeedingSession::new(&reference, bad, 1).unwrap_err(),
            Error::Config(ConfigError::ZeroLanes)
        );
        let bad_plan = FaultPlan {
            tile_panic_rate: 7.0,
            ..FaultPlan::default()
        };
        assert_eq!(
            SeedingSession::with_fault_plan(&reference, config, 1, bad_plan).unwrap_err(),
            Error::Config(ConfigError::BadFaultPlan {
                reason: "tile_panic_rate"
            })
        );
    }

    #[test]
    fn matches_serial_path_at_various_worker_counts() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 17);
        let mut config = CasaConfig::small(700);
        config.partitioning = casa_genome::PartitionScheme::new(700, 60);
        // Reads from the reference, then from a foreign genome: the
        // tile pass finds almost no hits for the latter.
        let mut reads = reads_for(&reference, 30, 44, 5);
        let foreign = generate_reference(&ReferenceProfile::mouse_like(), 4_000, 18);
        reads.extend(reads_for(&foreign, 30, 44, 6));
        let serial = SeedingSession::new(&reference, config, 1)
            .expect("valid config")
            .seed_reads_serial(&reads);
        for workers in [1, 2, 8] {
            let session = SeedingSession::new(&reference, config, workers).expect("valid config");
            let run = session.seed_reads(&reads);
            assert_eq!(run.smems, serial.smems, "{workers} workers");
            if !env_backend_is_cam() {
                // The serial path is CAM-concrete: a pinned software
                // backend matches its SMEMs (asserted above) but not its
                // CAM activity counters.
            } else if env_faults_off() {
                assert_eq!(run.stats, serial.stats, "{workers} workers");
            } else {
                // The CI fault plan adds recovery bookkeeping but never
                // perturbs the engine-activity stats (its only fault
                // classes are recovered panics and stalls).
                assert_eq!(
                    run.stats.without_recovery(),
                    serial.stats,
                    "{workers} workers"
                );
            }
        }
    }

    #[test]
    fn engines_are_reused_across_batches() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 9);
        let config = CasaConfig::small(1_000);
        let session = SeedingSession::new(&reference, config, 2).expect("valid config");
        let reads = reads_for(&reference, 12, 40, 2);
        let first = session.seed_reads(&reads);
        let second = session.seed_reads(&reads);
        // Same batch, same engines: identical output and identical stat
        // deltas (no drift from reuse). Holds under the CI fault plan too:
        // fault decisions hash (partition, tile, attempt), not batch
        // history, so both batches retry identically.
        assert_eq!(first.smems, second.smems);
        assert_eq!(first.stats, second.stats);
    }

    #[test]
    fn empty_batch_yields_empty_run() {
        let reference = generate_reference(&ReferenceProfile::uniform(), 1_200, 4);
        let session =
            SeedingSession::new(&reference, CasaConfig::small(600), 3).expect("valid config");
        let run = session.seed_reads(&[]);
        assert!(run.smems.is_empty());
        assert_eq!(run.stats, SeedingStats::default());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let reference = generate_reference(&ReferenceProfile::uniform(), 900, 8);
        let session =
            SeedingSession::new(&reference, CasaConfig::small(900), 16).expect("valid config");
        let read = reference.subseq(100, 40);
        let run = session.seed_reads(std::slice::from_ref(&read));
        assert_eq!(run.smems.len(), 1);
        assert!(run.smems[0][0].hits.contains(&100));
    }

    #[test]
    fn cancel_token_stops_batches_without_golden_fallback() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 9);
        let config = CasaConfig::small(1_000);
        let reads = reads_for(&reference, 12, 40, 2);
        let baseline = SeedingSession::new(&reference, config, 2)
            .expect("valid config")
            .seed_reads(&reads);
        let token = CancelToken::new();
        let session = SeedingSession::new(&reference, config, 2)
            .expect("valid config")
            .with_cancel_token(Some(token.clone()));
        assert!(session.cancel_token().is_some());
        // An un-fired token changes nothing.
        assert_eq!(session.seed_reads(&reads).smems, baseline.smems);
        token.cancel();
        assert_eq!(
            session.try_seed_reads(&reads).unwrap_err(),
            Error::Cancelled
        );
        // The infallible wrapper returns empty results — crucially *not*
        // the golden fallback, whose per-partition index builds would
        // defeat the point of cancelling.
        let cancelled = session.seed_reads(&reads);
        assert_eq!(cancelled.smems.len(), reads.len());
        assert!(cancelled.smems.iter().all(Vec::is_empty));
        assert_eq!(cancelled.stats.fallback_reads, 0);
    }

    #[test]
    fn cancel_token_aborts_watchdogged_sessions() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 9);
        let config = CasaConfig::small(1_000);
        let reads = reads_for(&reference, 12, 40, 2);
        let token = CancelToken::new();
        token.cancel();
        let session = SeedingSession::new(&reference, config, 2)
            .expect("valid config")
            .with_tile_deadline(Some(Duration::from_secs(30)))
            .with_cancel_token(Some(token));
        // A pre-cancelled session must return promptly (never waiting out
        // the 30 s deadline) and leave no quarantine side effects.
        assert_eq!(
            session.try_seed_reads(&reads).unwrap_err(),
            Error::Cancelled
        );
        assert_eq!(session.quarantined_count(), 0);
    }

    #[test]
    fn injected_panics_recover_bit_identically() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 23);
        let mut config = CasaConfig::small(700);
        config.partitioning = casa_genome::PartitionScheme::new(700, 60);
        let reads = reads_for(&reference, 40, 44, 8);
        let clean = SeedingSession::with_fault_plan(&reference, config, 4, FaultPlan::default())
            .expect("valid config")
            .seed_reads(&reads);
        let plan = FaultPlan {
            seed: 42,
            tile_panic_rate: 0.3,
            tile_stall_rate: 0.1,
            max_retries: 8,
            ..FaultPlan::default()
        };
        let session =
            SeedingSession::with_fault_plan(&reference, config, 4, plan).expect("valid plan");
        let run = session.seed_reads(&reads);
        assert_eq!(run.smems, clean.smems);
        assert!(run.stats.tile_retries > 0, "panics should have fired");
        // Crash faults never perturb the engine-activity stats.
        assert_eq!(run.stats.without_recovery(), clean.stats);
    }

    #[test]
    fn deadline_stalls_recover_bit_identically_and_count_apart() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 23);
        let mut config = CasaConfig::small(700);
        config.partitioning = casa_genome::PartitionScheme::new(700, 60);
        let reads = reads_for(&reference, 40, 44, 8);
        let clean_session =
            SeedingSession::with_fault_plan(&reference, config, 4, FaultPlan::default())
                .expect("valid config");
        let clean = clean_session.seed_reads(&reads);
        // Stalls of 200 ms against a watchdog deadline derived from
        // measured clean work, so that on any build, backend or host only
        // an injected stall can exceed it. A watchdogged single worker
        // seeds each tile's reads against every partition, which bounds one
        // (partition, tile) attempt from above; the slowest tile times 3,
        // clamped to 4..=100 ms, so every 200 ms stall is still caught. The
        // ceiling sits well above a clean attempt in a debug build on a
        // loaded host (11-19 ms seen), which a 20 ms ceiling did not.
        let timing_session =
            SeedingSession::with_fault_plan(&reference, config, 1, FaultPlan::default())
                .expect("valid config")
                .with_tile_deadline(Some(Duration::from_secs(10)));
        let slowest_tile = reads
            .chunks(TILE_READS)
            .map(|tile| {
                let started = std::time::Instant::now();
                timing_session.seed_reads(tile);
                started.elapsed()
            })
            .max()
            .expect("reads are non-empty");
        let deadline =
            (slowest_tile * 3).clamp(Duration::from_millis(4), Duration::from_millis(100));
        let plan = FaultPlan {
            seed: 42,
            tile_stall_rate: 0.3,
            tile_stall_ms: 200.0,
            max_retries: 6,
            ..FaultPlan::default()
        };
        let session = SeedingSession::with_fault_plan(&reference, config, 4, plan)
            .expect("valid plan")
            .with_tile_deadline(Some(deadline));
        assert_eq!(session.tile_deadline(), Some(deadline));
        let run = session.seed_reads(&reads);
        assert_eq!(run.smems, clean.smems, "recovery must be bit-identical");
        assert!(run.stats.deadline_stalls > 0, "stalls should have fired");
        assert_eq!(
            run.stats.tile_retries, 0,
            "pure stalls are not panic retries"
        );
        assert_eq!(run.stats.without_recovery(), clean.stats);
    }

    #[test]
    fn silent_faults_with_full_cross_check_recover_bit_identically() {
        if !env_backend_is_cam() {
            // Hardware fault injection targets CAM lines and filter
            // tables; the software backends have neither.
            return;
        }
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 31);
        let mut config = CasaConfig::small(600);
        config.partitioning = casa_genome::PartitionScheme::new(600, 60);
        let reads = reads_for(&reference, 25, 44, 11);
        let clean = SeedingSession::with_fault_plan(&reference, config, 3, FaultPlan::default())
            .expect("valid config")
            .seed_reads(&reads);
        let plan = FaultPlan {
            seed: 7,
            cam_stuck_rate: 0.3,
            cam_flip_rate: 2e-3,
            filter_flip_rate: 1e-3,
            cross_check_fraction: 1.0,
            max_retries: 1,
            only_partition: Some(0),
            ..FaultPlan::default()
        };
        let session =
            SeedingSession::with_fault_plan(&reference, config, 3, plan).expect("valid plan");
        assert!(
            session.fault_sites().total() > 0,
            "expected injected hardware fault sites"
        );
        let run = session.seed_reads(&reads);
        assert_eq!(
            run.smems, clean.smems,
            "golden fallback must restore output"
        );
        assert!(run.stats.crosscheck_reads > 0);
        assert!(
            run.stats.crosscheck_mismatches > 0,
            "a 30% stuck-line rate must corrupt something"
        );
        assert_eq!(run.stats.partitions_quarantined, 1);
        assert!(run.stats.fallback_reads > 0);
        assert_eq!(session.quarantined_count(), 1);
    }

    #[test]
    fn fault_sites_are_reproducible_across_sessions() {
        if !env_backend_is_cam() {
            return;
        }
        let reference = generate_reference(&ReferenceProfile::human_like(), 2_000, 13);
        let config = CasaConfig::small(500);
        let plan = FaultPlan {
            seed: 99,
            cam_stuck_rate: 0.02,
            cam_flip_rate: 1e-3,
            filter_flip_rate: 1e-3,
            ..FaultPlan::default()
        };
        let a = SeedingSession::with_fault_plan(&reference, config, 1, plan).expect("valid");
        let b = SeedingSession::with_fault_plan(&reference, config, 4, plan).expect("valid");
        assert_eq!(a.fault_sites(), b.fault_sites());
        assert!(a.fault_sites().total() > 0);
        assert_eq!(a.fault_sites().cam.len(), a.partition_count());
    }

    #[test]
    fn every_backend_session_emits_identical_smems() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 41);
        let mut config = CasaConfig::small(700);
        config.partitioning = casa_genome::PartitionScheme::new(700, 60);
        let reads = reads_for(&reference, 24, 44, 19);
        let cam = SeedingSession::with_backend(
            &reference,
            config,
            2,
            FaultPlan::default(),
            BackendKind::Cam,
        )
        .expect("valid config")
        .seed_reads(&reads);
        for kind in [BackendKind::Fm, BackendKind::Ert] {
            let session =
                SeedingSession::with_backend(&reference, config, 2, FaultPlan::default(), kind)
                    .expect("valid config");
            assert_eq!(session.backend(), kind);
            let run = session.seed_reads(&reads);
            assert_eq!(run.smems, cam.smems, "{kind} diverged from cam");
            assert_eq!(run.stats.read_passes, cam.stats.read_passes, "{kind}");
            assert_eq!(run.stats.smems_reported, cam.stats.smems_reported, "{kind}");
        }
    }

    #[test]
    fn software_backends_record_empty_fault_sites_per_partition() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 2_000, 13);
        let config = CasaConfig::small(500);
        let plan = FaultPlan {
            seed: 99,
            cam_stuck_rate: 0.02,
            cam_flip_rate: 1e-3,
            filter_flip_rate: 1e-3,
            ..FaultPlan::default()
        };
        let session = SeedingSession::with_backend(&reference, config, 2, plan, BackendKind::Fm)
            .expect("valid config");
        // Sites stay indexed per partition so diagnostics line up, but a
        // software backend has nothing to corrupt.
        assert_eq!(session.fault_sites().cam.len(), session.partition_count());
        assert_eq!(session.fault_sites().total(), 0);
    }

    #[test]
    fn scheduler_faults_recover_on_every_backend() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 29);
        let mut config = CasaConfig::small(600);
        config.partitioning = casa_genome::PartitionScheme::new(600, 60);
        let reads = reads_for(&reference, 20, 44, 3);
        let plan = FaultPlan {
            seed: 23,
            tile_panic_rate: 0.3,
            max_retries: 8,
            ..FaultPlan::default()
        };
        for kind in BackendKind::ALL {
            let clean =
                SeedingSession::with_backend(&reference, config, 3, FaultPlan::default(), kind)
                    .expect("valid config")
                    .seed_reads(&reads);
            let run = SeedingSession::with_backend(&reference, config, 3, plan, kind)
                .expect("valid plan")
                .seed_reads(&reads);
            assert_eq!(run.smems, clean.smems, "{kind} recovery diverged");
            assert!(run.stats.tile_retries > 0, "{kind}: panics should fire");
        }
    }

    /// Cross-partition merging must reproduce the whole-genome golden SMEM
    /// set, including matches straddling partition cuts.
    #[test]
    fn multi_partition_equals_whole_genome_golden() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 5_000, 42);
        let mut config = CasaConfig::small(800);
        config.partitioning = casa_genome::PartitionScheme::new(800, 60);
        let session = SeedingSession::new(&reference, config, 2).expect("valid config");
        assert!(session.partition_count() > 4);
        let sa = SuffixArray::build(&reference);
        let reads = reads_for(&reference, 40, 44, 12);
        let run = session.seed_reads(&reads);
        for (i, read) in reads.iter().enumerate() {
            let golden = smems_unidirectional(&sa, read, config.min_smem_len);
            assert_eq!(run.smems[i], golden, "read {i}");
        }
    }

    #[test]
    fn read_straddling_partition_boundary_is_found() {
        let reference = generate_reference(&ReferenceProfile::uniform(), 2_000, 9);
        let mut config = CasaConfig::small(500);
        config.partitioning = casa_genome::PartitionScheme::new(500, 60);
        let session = SeedingSession::new(&reference, config, 2).expect("valid config");
        // read centered on the cut at 500
        let read = reference.subseq(480, 40);
        let run = session.seed_reads(std::slice::from_ref(&read));
        assert_eq!(run.smems[0].len(), 1);
        assert_eq!(run.smems[0][0].len(), 40);
        assert!(run.smems[0][0].hits.contains(&480));
    }

    #[test]
    fn both_strands_finds_reverse_reads() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 21);
        let session =
            SeedingSession::new(&reference, CasaConfig::small(1_500), 2).expect("valid config");
        let fwd_read = reference.subseq(200, 40);
        let rev_read = reference.subseq(900, 40).reverse_complement();
        let run = session.seed_reads_both_strands(&[fwd_read, rev_read]);
        let best = run.best_per_read();
        assert!(!best[0].0, "forward read classified forward");
        assert!(best[1].0, "reverse read classified reverse");
        assert!(best[1].1[0].hits.contains(&900));
        assert_eq!(run.stats().read_passes, run.forward.stats.read_passes * 2);
    }

    #[test]
    fn timing_model_is_positive_and_monotone() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 4);
        let config = CasaConfig::small(1_000);
        let session = SeedingSession::new(&reference, config, 2).expect("valid config");
        let reads = reads_for(&reference, 20, 40, 3);
        let small = session.seed_reads(&reads[..5]);
        let big = session.seed_reads(&reads);
        let dram = DramSystem::casa();
        assert!(small.seconds(&dram) > 0.0);
        assert!(big.seconds(&dram) > small.seconds(&dram));
        assert_eq!(big.reads(session.partition_count()), 20);
        assert!(big.throughput_reads_per_s(session.partition_count(), &dram) > 0.0);
    }
}
