//! The embeddable seeding API: [`Seeder`], a builder-configured facade
//! over [`casa_core::SeedingSession`] and [`casa_core::StreamingSession`].
//!
//! The CLI (`casa-seed`) and the experiment harness both drive the session
//! machinery directly; `Seeder` packages the same machinery for use as a
//! library component — pick a reference, pick a backend, seed batches or
//! streams — without learning the whole `casa-core` surface. Every knob
//! not set explicitly keeps the session defaults (paper-scale config
//! derived from the reference, one worker per CPU, CAM backend unless
//! `CASA_BACKEND` says otherwise, fault-free unless `CASA_FAULT_SEED` is
//! armed).
//!
//! ```
//! use casa::Seeder;
//! use casa::genome::synth::{generate_reference, ReferenceProfile};
//!
//! let reference = generate_reference(&ReferenceProfile::human_like(), 8_000, 1);
//! let seeder = Seeder::builder(&reference)
//!     .partition_len(2_000)
//!     .read_len(60)
//!     .workers(2)
//!     .build()?;
//! let read = reference.subseq(3_000, 60);
//! let run = seeder.seed_reads(std::slice::from_ref(&read));
//! assert!(run.smems[0][0].hits.contains(&3_000));
//! # Ok::<(), casa::core::Error>(())
//! ```

use std::time::Duration;

use casa_core::{
    env_defaults, BackendKind, CasaConfig, CasaRun, Error, FaultPlan, SeedingSession, StrandedRun,
    StreamBatch, StreamConfig, StreamError, StreamReport, StreamingSession,
};
use casa_genome::PackedSeq;

/// The paper design point for a reference of `reference_len` bases cut
/// into partitions of `partition_len` (clamped below the reference
/// length) and reads of `read_len` (at least 2) — the configuration
/// [`SeederBuilder`], `casa-seed` and `casa-seed index build` derive.
///
/// # Errors
///
/// The [`ConfigError`](casa_core::ConfigError) of an inconsistent
/// geometry, such as reads longer than the partitions.
pub(crate) fn derive_config(
    reference_len: usize,
    partition_len: usize,
    read_len: usize,
) -> Result<CasaConfig, casa_core::ConfigError> {
    CasaConfig::builder()
        .partition_len(partition_len.min(reference_len.saturating_sub(1).max(1)))
        .read_len(read_len.max(2))
        .build()
}

/// Configures and builds a [`Seeder`]. Created by [`Seeder::builder`].
///
/// Geometry comes either from an explicit [`config`](Self::config) or from
/// the [`partition_len`](Self::partition_len) /
/// [`read_len`](Self::read_len) pair (paper design point, the default).
#[derive(Clone, Debug)]
pub struct SeederBuilder<'a> {
    reference: &'a PackedSeq,
    config: Option<CasaConfig>,
    partition_len: usize,
    read_len: usize,
    workers: Option<usize>,
    backend: Option<BackendKind>,
    fault_plan: Option<FaultPlan>,
    kernel: Option<casa_core::KernelBackend>,
    tile_deadline: Option<Duration>,
}

impl<'a> SeederBuilder<'a> {
    fn new(reference: &'a PackedSeq) -> SeederBuilder<'a> {
        SeederBuilder {
            reference,
            config: None,
            partition_len: 1_000_000,
            read_len: 101,
            workers: None,
            backend: None,
            fault_plan: None,
            kernel: None,
            tile_deadline: None,
        }
    }

    /// Uses `config` verbatim instead of deriving one from
    /// `partition_len` / `read_len`.
    pub fn config(mut self, config: CasaConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Reference partition length in bases (ignored after
    /// [`config`](Self::config); default 1,000,000).
    pub fn partition_len(mut self, bases: usize) -> Self {
        self.partition_len = bases;
        self
    }

    /// Read length the derived config is sized for (ignored after
    /// [`config`](Self::config); default 101).
    pub fn read_len(mut self, bases: usize) -> Self {
        self.read_len = bases;
        self
    }

    /// Worker threads per batch (default: one per available CPU).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Seeding backend (default: `CASA_BACKEND`, else the CAM model).
    /// Every backend emits the identical SMEM stream; see
    /// [`casa_core::backend`].
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Fault-injection plan (default: `CASA_FAULT_SEED`'s CI plan when
    /// set, else fault-free).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Pins the CAM word kernel (default: `CASA_KERNEL`, else CPU
    /// detection). The software backends never execute it. A kernel this
    /// CPU cannot run fails [`build`](Self::build) with a typed error.
    pub fn kernel(mut self, kernel: casa_core::KernelBackend) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Watchdog deadline per tile attempt (default: none). Stalled
    /// attempts are retried, then quarantined — output never changes.
    pub fn tile_deadline(mut self, deadline: Duration) -> Self {
        self.tile_deadline = Some(deadline);
        self
    }

    /// Builds the seeder: validates the configuration, splits the
    /// reference, and constructs one backend per partition.
    ///
    /// # Errors
    ///
    /// Any [`Error`] the underlying
    /// [`SeedingSession`] constructors report: an inconsistent config, an
    /// empty reference, zero workers, a bad fault plan, a malformed
    /// `CASA_BACKEND` / `CASA_FAULT_SEED` / `CASA_KERNEL` value, or a
    /// [`kernel`](Self::kernel) this CPU does not support.
    pub fn build(self) -> Result<Seeder, Error> {
        let config = match self.config {
            Some(config) => config,
            None => derive_config(self.reference.len(), self.partition_len, self.read_len)?,
        };
        let (backend, plan, workers) = env_defaults(self.backend, self.fault_plan, self.workers)?;
        let mut session =
            SeedingSession::with_backend(self.reference, config, workers, plan, backend)?;
        if let Some(kernel) = self.kernel {
            session = session.with_kernel_backend(kernel)?;
        }
        let session = session.with_tile_deadline(self.tile_deadline);
        Ok(Seeder { session })
    }
}

/// A reference-bound seeding component: the stable embeddable API over
/// the CAM / FM-index / ERT backends.
///
/// Construction (via [`builder`](Seeder::builder)) is the expensive step;
/// [`seed_reads`](Seeder::seed_reads) and
/// [`seed_stream`](Seeder::seed_stream) reuse the per-partition backends.
/// Cloning is cheap and shares them.
///
/// ```
/// use casa::Seeder;
/// use casa::core::BackendKind;
/// use casa::genome::synth::{generate_reference, ReferenceProfile};
///
/// let reference = generate_reference(&ReferenceProfile::human_like(), 6_000, 2);
/// // Any backend — the SMEM stream is identical across all three.
/// let runs: Vec<_> = BackendKind::ALL
///     .into_iter()
///     .map(|kind| {
///         let seeder = Seeder::builder(&reference)
///             .partition_len(2_000)
///             .read_len(50)
///             .workers(1)
///             .backend(kind)
///             .build()?;
///         assert_eq!(seeder.backend(), kind);
///         Ok(seeder.seed_reads(&[reference.subseq(700, 50)]))
///     })
///     .collect::<Result<_, casa::core::Error>>()?;
/// assert_eq!(runs[0].smems, runs[1].smems);
/// assert_eq!(runs[1].smems, runs[2].smems);
/// # Ok::<(), casa::core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Seeder {
    session: SeedingSession,
}

impl Seeder {
    /// Starts building a seeder for `reference`.
    pub fn builder(reference: &PackedSeq) -> SeederBuilder<'_> {
        SeederBuilder::new(reference)
    }

    /// Builds a seeder from a loaded index image (see
    /// [`casa_core::LoadedIndex`]) with the backend and fault plan pinned
    /// explicitly: the embedded config is used verbatim and the CAM
    /// backend's reference-side arrays are borrowed from the mapping
    /// instead of rebuilt, so construction is O(partition splitting), not
    /// O(index build).
    ///
    /// # Errors
    ///
    /// As [`SeedingSession::from_image`].
    pub fn from_image_with(
        index: &casa_core::LoadedIndex,
        workers: usize,
        plan: FaultPlan,
        backend: BackendKind,
    ) -> Result<Seeder, Error> {
        Ok(Seeder {
            session: SeedingSession::from_image(index, workers, plan, backend)?,
        })
    }

    /// Applies a watchdog deadline per tile attempt (see
    /// [`SeedingSession::with_tile_deadline`]); `None` disables it.
    /// Mainly for the image path, where there is no builder to set it on.
    #[must_use]
    pub fn with_tile_deadline(mut self, deadline: Option<std::time::Duration>) -> Seeder {
        self.session = self.session.with_tile_deadline(deadline);
        self
    }

    /// The backend this seeder drives.
    pub fn backend(&self) -> BackendKind {
        self.session.backend()
    }

    /// The validated configuration in effect.
    pub fn config(&self) -> &CasaConfig {
        self.session.config()
    }

    /// Number of reference partitions (passes per read batch).
    pub fn partition_count(&self) -> usize {
        self.session.partition_count()
    }

    /// The underlying session, for callers that need the full surface
    /// (fault sites, kernel control, stranded seeding, ...).
    pub fn session(&self) -> &SeedingSession {
        &self.session
    }

    /// Seeds a read batch against every partition and merges the results.
    /// Output is bit-identical at any worker count and on any backend.
    ///
    /// # Panics
    ///
    /// Panics if a read is longer than the partition overlap allows (see
    /// [`SeedingSession::seed_reads`]); [`SeedingSession::try_seed_reads`]
    /// on [`session`](Self::session) reports that as a typed error.
    pub fn seed_reads(&self, reads: &[PackedSeq]) -> CasaRun {
        self.session.seed_reads(reads)
    }

    /// Seeds the batch in both orientations (each read and its reverse
    /// complement), as the hardware does.
    ///
    /// # Panics
    ///
    /// As [`seed_reads`](Self::seed_reads).
    pub fn seed_reads_both_strands(&self, reads: &[PackedSeq]) -> StrandedRun {
        self.session.seed_reads_both_strands(reads)
    }

    /// Seeds a read stream in bounded batches through the supervised
    /// streaming runtime, handing each seeded batch to `sink`. Tile
    /// attempts run under the seeder's own watchdog deadline
    /// ([`SeederBuilder::tile_deadline`]). See [`StreamingSession::run`]
    /// for the full contract (bounded ingestion, watchdog, cancellation,
    /// checkpointing — available by constructing the [`StreamingSession`]
    /// over [`session`](Self::session) directly when those knobs are
    /// needed).
    ///
    /// # Errors
    ///
    /// [`StreamError`] on source, sink, or configuration failure, and
    /// [`StreamError::ReadTooLong`] for a read longer than the partition
    /// overlap allows.
    ///
    /// ```
    /// use casa::Seeder;
    /// use casa::core::{StreamBatch, StreamConfig};
    /// use casa::genome::synth::{generate_reference, ReferenceProfile};
    ///
    /// let reference = generate_reference(&ReferenceProfile::human_like(), 6_000, 3);
    /// let seeder = Seeder::builder(&reference)
    ///     .partition_len(2_000)
    ///     .read_len(40)
    ///     .workers(1)
    ///     .build()?;
    /// let reads: Vec<_> = (0..10).map(|i| reference.subseq(i * 500, 40)).collect();
    /// let mut total = 0u64;
    /// let report = seeder.seed_stream(
    ///     StreamConfig { batch_reads: 4, ..StreamConfig::default() },
    ///     reads.into_iter().map(Ok::<_, std::convert::Infallible>),
    ///     |batch: &StreamBatch<casa::genome::PackedSeq>| {
    ///         total += batch.forward.smems.iter().map(|s| s.len() as u64).sum::<u64>();
    ///         Ok::<_, std::io::Error>(Vec::new())
    ///     },
    /// )?;
    /// assert_eq!(report.reads, 10);
    /// assert!(total >= 10);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn seed_stream<T, E, I, S>(
        &self,
        config: StreamConfig,
        source: I,
        sink: S,
    ) -> Result<StreamReport, StreamError>
    where
        T: casa_core::StreamItem,
        E: std::fmt::Display,
        I: Iterator<Item = Result<T, E>> + Send,
        S: FnMut(&StreamBatch<T>) -> std::io::Result<Vec<u64>>,
    {
        StreamingSession::new(self.session.clone(), config)
            .map_err(StreamError::Core)?
            .run(source, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_genome::synth::{generate_reference, ReferenceProfile};

    #[test]
    fn builder_errors_are_typed() {
        let reference = generate_reference(&ReferenceProfile::uniform(), 2_000, 1);
        assert_eq!(
            Seeder::builder(&reference).workers(0).build().map(|_| ()),
            Err(Error::ZeroWorkers)
        );
        let mut bad = CasaConfig::small(500);
        bad.lanes = 0;
        assert_eq!(
            Seeder::builder(&reference).config(bad).build().map(|_| ()),
            Err(Error::Config(casa_core::ConfigError::ZeroLanes))
        );
        // With an explicit config the empty reference reaches the session
        // constructor (the derived-config path would reject the geometry
        // first: a 1-base partition cannot hold the 101-base read overlap).
        let empty = PackedSeq::from_ascii(b"").unwrap();
        assert_eq!(
            Seeder::builder(&empty)
                .config(CasaConfig::small(500))
                .build()
                .map(|_| ()),
            Err(Error::EmptyReference)
        );
    }

    /// The kernel is validated once, at build: a kernel this CPU cannot
    /// run is a typed error, never a silent fallback, and a kernel it can
    /// run is the one the session reports — on any host.
    #[test]
    fn kernel_pin_is_validated_at_build() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 5);
        for kernel in casa_core::KernelBackend::ALL {
            let built = Seeder::builder(&reference)
                .config(CasaConfig::small(1_000))
                .workers(1)
                .kernel(kernel)
                .build();
            assert_eq!(built.is_ok(), kernel.is_supported(), "{kernel}");
            match built {
                Ok(seeder) => assert_eq!(seeder.session().kernel_backend(), kernel),
                Err(e) => assert!(
                    matches!(
                        e,
                        Error::Config(casa_core::ConfigError::UnknownKernelBackend { .. })
                    ),
                    "{kernel}: {e:?}"
                ),
            }
        }
    }

    #[test]
    fn explicit_config_and_knobs_reach_the_session() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 5);
        let config = CasaConfig::small(1_000);
        let seeder = Seeder::builder(&reference)
            .config(config)
            .workers(2)
            .backend(BackendKind::Fm)
            .fault_plan(FaultPlan::default())
            .tile_deadline(Duration::from_millis(250))
            .build()
            .expect("valid build");
        assert_eq!(seeder.backend(), BackendKind::Fm);
        assert_eq!(seeder.config(), &config.validated().unwrap());
        assert_eq!(seeder.partition_count(), 3);
        assert_eq!(
            seeder.session().tile_deadline(),
            Some(Duration::from_millis(250))
        );
    }

    /// The builder's tile deadline is the only one: a stream seeded with
    /// the default [`StreamConfig`] still runs every tile attempt under
    /// it, so stalls longer than the deadline are caught and counted.
    #[test]
    fn seed_stream_keeps_the_builder_tile_deadline() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 5);
        let plan = FaultPlan {
            seed: 3,
            tile_stall_rate: 1.0,
            tile_stall_ms: 50.0,
            max_retries: 1,
            ..FaultPlan::default()
        };
        let seeder = Seeder::builder(&reference)
            .config(CasaConfig::small(1_000))
            .workers(1)
            .fault_plan(plan)
            .tile_deadline(Duration::from_millis(5))
            .build()
            .expect("valid build");
        let reads: Vec<PackedSeq> = (0..4).map(|i| reference.subseq(i * 600, 40)).collect();
        let report = seeder
            .seed_stream(
                StreamConfig::default(),
                reads.into_iter().map(Ok::<_, std::convert::Infallible>),
                |_: &StreamBatch<PackedSeq>| Ok(Vec::new()),
            )
            .expect("stream completes");
        assert_eq!(report.reads, 4);
        assert!(
            report.stats.deadline_stalls > 0,
            "stalls must be caught by the builder's deadline"
        );
    }

    #[test]
    fn seeder_from_image_matches_fresh_build() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 17);
        let config = CasaConfig::small(1_200);
        let path =
            std::env::temp_dir().join(format!("casa_seeder_image_{}.casaimg", std::process::id()));
        casa_core::build_index_image(&reference, config, &path).unwrap();
        let loaded = casa_core::LoadedIndex::open(&path).unwrap();
        let mapped =
            Seeder::from_image_with(&loaded, 2, FaultPlan::default(), BackendKind::Cam).unwrap();
        let fresh = Seeder::builder(&reference)
            .config(config)
            .workers(2)
            .backend(BackendKind::Cam)
            .fault_plan(FaultPlan::default())
            .build()
            .unwrap();
        let reads: Vec<PackedSeq> = (0..10).map(|i| reference.subseq(i * 300, 70)).collect();
        assert_eq!(
            mapped.seed_reads(&reads).smems,
            fresh.seed_reads(&reads).smems
        );
        assert_eq!(mapped.config(), fresh.config());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn both_strands_and_stream_agree_with_batch() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 5_000, 9);
        let seeder = Seeder::builder(&reference)
            .partition_len(1_500)
            .read_len(44)
            .workers(2)
            .build()
            .expect("valid build");
        let reads: Vec<PackedSeq> = (0..12).map(|i| reference.subseq(i * 350, 44)).collect();
        let batch = seeder.seed_reads(&reads);
        let stranded = seeder.seed_reads_both_strands(&reads);
        assert_eq!(stranded.forward.smems, batch.smems);
        let mut streamed: Vec<Vec<casa_index::Smem>> = Vec::new();
        let report = seeder
            .seed_stream(
                StreamConfig {
                    batch_reads: 5,
                    ..StreamConfig::default()
                },
                reads.iter().cloned().map(Ok::<_, std::convert::Infallible>),
                |batch| {
                    streamed.extend(batch.forward.smems.iter().cloned());
                    Ok::<_, std::io::Error>(Vec::new())
                },
            )
            .expect("stream runs");
        assert_eq!(report.reads, 12);
        assert_eq!(report.batches, 3);
        assert_eq!(streamed, batch.smems, "streaming must not change output");
    }
}
