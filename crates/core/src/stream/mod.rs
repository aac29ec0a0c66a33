//! Supervised streaming runtime: bounded-memory ingestion, watchdog
//! deadlines, cooperative cancellation, and checkpoint/resume around a
//! [`SeedingSession`].
//!
//! A [`StreamingSession`] pulls reads from any fallible iterator (the
//! `casa_genome` `FastqStream`/`FastaStream` readers, or an in-memory
//! vector in tests), groups them into fixed-size batches, and pushes the
//! batches through a bounded ring into the seeding session. The ring is a
//! rendezvous buffer: the reader thread blocks once `ring_capacity`
//! batches are in flight, so peak resident read memory is bounded by
//! `batch_reads × (ring_capacity + 2)` reads (one batch being built, the
//! ring, one batch being seeded) no matter how large the input file is.
//!
//! Three supervision mechanisms wrap the per-batch work:
//!
//! * **Watchdog deadlines** — when the wrapped session has a tile
//!   deadline ([`SeedingSession::with_tile_deadline`], the one place it
//!   is set), every tile attempt runs under the `supervisor` watchdog; an
//!   attempt that overruns is abandoned and retried exactly like a
//!   panicking attempt (capped backoff, then partition quarantine to the
//!   golden model), so output stays bit-identical. Stalls detected this
//!   way are counted in [`SeedingStats::deadline_stalls`], apart from
//!   panic retries.
//! * **Cancellation** — a [`CancelToken`] requests a graceful stop: the
//!   reader discards its partially built batch (batch boundaries stay
//!   deterministic), queued batches are drained unprocessed, and a final
//!   checkpoint records exactly what was durably sunk.
//! * **Checkpoint/resume** — with [`StreamConfig::checkpoint`] set, a
//!   [`StreamCheckpoint`] is written atomically every
//!   [`StreamConfig::checkpoint_every`] completed batches and once more
//!   at the end of the run. [`StreamingSession::resume`] replays only the
//!   batches past the watermark; because batch boundaries and per-batch
//!   seeding are deterministic, a cancelled-and-resumed run's merged
//!   output is byte-identical to an uninterrupted one.
//!
//! The checkpoint fingerprint covers the CASA config, the fault plan,
//! the batch size, and the strand mode — everything that shapes the
//! output. It deliberately excludes the worker count and the tile
//! deadline: both only change scheduling, never results, so a run may be
//! resumed with a different parallelism or watchdog setting.

mod checkpoint;
pub(crate) mod supervisor;

pub use checkpoint::{CheckpointError, RecoveryCounters, StreamCheckpoint, CHECKPOINT_VERSION};
pub use supervisor::{live_guard_threads, wait_for_guard_threads};

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use casa_genome::fasta::FastaRecord;
use casa_genome::fastq::FastqRecord;
use casa_genome::PackedSeq;

use crate::error::{ConfigError, Error};
use crate::log_warn;
use crate::session::CasaRun;
use crate::session::SeedingSession;
use crate::stats::SeedingStats;

/// Tuning knobs for a [`StreamingSession`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Reads per batch (the replay and checkpoint granularity).
    pub batch_reads: usize,
    /// Batches the bounded ring may hold between reader and executor.
    pub ring_capacity: usize,
    /// Checkpoint journal path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Completed batches between periodic checkpoint writes.
    pub checkpoint_every: u64,
    /// Seed the reverse complement of every read as well.
    pub both_strands: bool,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            batch_reads: 512,
            ring_capacity: 4,
            checkpoint: None,
            checkpoint_every: 16,
            both_strands: false,
        }
    }
}

impl StreamConfig {
    /// Checks the structural bounds.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadStreamConfig`] naming the violated bound.
    pub fn validated(self) -> Result<StreamConfig, ConfigError> {
        if self.batch_reads == 0 {
            return Err(ConfigError::BadStreamConfig {
                reason: "batch_reads must be positive",
            });
        }
        if self.ring_capacity == 0 {
            return Err(ConfigError::BadStreamConfig {
                reason: "ring_capacity must be positive",
            });
        }
        if self.checkpoint_every == 0 {
            return Err(ConfigError::BadStreamConfig {
                reason: "checkpoint_every must be positive",
            });
        }
        Ok(self)
    }
}

/// A shared flag requesting a graceful stop of a streaming run.
///
/// Clones share the flag, so a token handed to a signal handler (or held
/// by a sink callback) cancels the session that created it. Cancellation
/// is cooperative and permanent: there is no un-cancel.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Anything the streaming runtime can ingest: an owned record that
/// exposes its packed sequence. Implemented for bare [`PackedSeq`]s and
/// for the FASTA/FASTQ record types, so the `casa_genome` streaming
/// readers plug in directly.
pub trait StreamItem: Send + 'static {
    /// The 2-bit packed read sequence to seed.
    fn seq(&self) -> &PackedSeq;
}

impl StreamItem for PackedSeq {
    fn seq(&self) -> &PackedSeq {
        self
    }
}

impl StreamItem for FastqRecord {
    fn seq(&self) -> &PackedSeq {
        &self.seq
    }
}

impl StreamItem for FastaRecord {
    fn seq(&self) -> &PackedSeq {
        &self.seq
    }
}

/// One seeded batch, handed to the sink callback.
#[derive(Debug)]
pub struct StreamBatch<T> {
    /// Zero-based batch index within the whole logical run (resumed runs
    /// continue the original numbering).
    pub index: u64,
    /// Index of the batch's first read within the whole input.
    pub first_read: u64,
    /// The ingested records, in input order.
    pub items: Vec<T>,
    /// Seeding results for the reads as given.
    pub forward: CasaRun,
    /// Seeding results for the reverse complements, when
    /// [`StreamConfig::both_strands`] is set.
    pub reverse: Option<CasaRun>,
}

/// What a streaming run accomplished.
///
/// `stats` covers only the batches seeded by *this* process; the
/// cumulative counters for a resumed logical run live in
/// [`StreamReport::checkpoint`]'s [`RecoveryCounters`].
#[derive(Clone, Debug, Default)]
pub struct StreamReport {
    /// Batches seeded and durably sunk by this run.
    pub batches: u64,
    /// Reads in those batches.
    pub reads: u64,
    /// Batches skipped because a resume watermark already covered them.
    pub skipped_batches: u64,
    /// Reads in the skipped batches.
    pub skipped_reads: u64,
    /// Whether the run stopped on a cancellation request (as opposed to
    /// exhausting the input).
    pub cancelled: bool,
    /// Accumulated seeding statistics for this run's batches.
    pub stats: SeedingStats,
    /// Highest number of reads resident in the pipeline at once (built +
    /// ringed + in-seeding); bounded by
    /// `batch_reads × (ring_capacity + 2)`.
    pub peak_inflight_reads: u64,
    /// Checkpoint files written (periodic plus final).
    pub checkpoints_written: u64,
    /// The final checkpoint, when checkpointing was enabled.
    pub checkpoint: Option<StreamCheckpoint>,
}

/// Why a streaming run stopped early.
///
/// Batches sunk before the failure remain durable, and any periodic
/// checkpoint already written remains valid, so a failed run can be
/// resumed; no *final* checkpoint is written on the error path.
#[derive(Debug)]
pub enum StreamError {
    /// The seeding core rejected the configuration.
    Core(Error),
    /// The checkpoint journal could not be written or verified.
    Checkpoint(CheckpointError),
    /// The input source failed mid-stream.
    Source {
        /// Zero-based index of the first record that could not be read.
        record: u64,
        /// The source's error, rendered.
        message: String,
    },
    /// The sink callback failed to persist a batch.
    Sink(io::Error),
    /// A record is longer than the session can seed exactly (see
    /// [`SeedingSession::max_read_len`]); its batch is not seeded.
    ReadTooLong {
        /// Zero-based index of the first over-long record.
        record: u64,
        /// Its length in bases.
        len: usize,
        /// The longest read the session accepts, in bases.
        max: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Core(e) => write!(f, "streaming session: {e}"),
            StreamError::Checkpoint(e) => write!(f, "streaming session: {e}"),
            StreamError::Source { record, message } => {
                write!(f, "stream source failed at record {record}: {message}")
            }
            StreamError::Sink(e) => write!(f, "stream sink failed: {e}"),
            StreamError::ReadTooLong { record, len, max } => write!(
                f,
                "stream record {record} has {len} bases, over this index's {max}-base \
                 read limit (partition overlap + 1)"
            ),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Core(e) => Some(e),
            StreamError::Checkpoint(e) => Some(e),
            StreamError::Sink(e) => Some(e),
            StreamError::Source { .. } | StreamError::ReadTooLong { .. } => None,
        }
    }
}

impl From<Error> for StreamError {
    fn from(e: Error) -> StreamError {
        StreamError::Core(e)
    }
}

impl From<CheckpointError> for StreamError {
    fn from(e: CheckpointError) -> StreamError {
        StreamError::Checkpoint(e)
    }
}

/// What the reader thread hands the executor through the bounded ring.
enum Msg<T> {
    /// A full (or final partial) batch to seed and sink.
    Batch {
        index: u64,
        first_read: u64,
        items: Vec<T>,
    },
    /// A batch consumed but not forwarded because the resume watermark
    /// already covers it.
    Skipped { reads: u64 },
    /// The source failed; no further messages follow.
    SourceError { record: u64, message: String },
}

/// A [`SeedingSession`] wrapped in the supervised streaming runtime.
#[derive(Debug)]
pub struct StreamingSession {
    session: SeedingSession,
    config: StreamConfig,
    cancel: CancelToken,
}

impl StreamingSession {
    /// Wraps `session` with the streaming runtime described by `config`.
    /// The session's tile attempts keep its own watchdog deadline
    /// ([`SeedingSession::tile_deadline`]).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] with
    /// [`ConfigError::BadStreamConfig`] when `config` violates a
    /// structural bound.
    pub fn new(session: SeedingSession, config: StreamConfig) -> Result<StreamingSession, Error> {
        let config = config.validated()?;
        Ok(StreamingSession {
            session,
            config,
            cancel: CancelToken::new(),
        })
    }

    /// Replaces the cancellation token (e.g. with one shared with a
    /// signal handler).
    pub fn with_cancel_token(mut self, token: CancelToken) -> StreamingSession {
        self.cancel = token;
        self
    }

    /// A clone of the token that cancels this session's runs.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The wrapped seeding session.
    pub fn session(&self) -> &SeedingSession {
        &self.session
    }

    /// Enables per-stage wall-clock profiling on the wrapped session (see
    /// [`SeedingSession::set_profiling`]); stage spans accumulate into the
    /// report's [`SeedingStats::profile`](crate::SeedingStats) alongside
    /// every other counter.
    pub fn set_profiling(&self, enabled: bool) {
        self.session.set_profiling(enabled);
    }

    /// The seeding backend the wrapped session drives. Excluded from the
    /// checkpoint [`fingerprint`](Self::fingerprint) by design: every
    /// backend emits the identical SMEM stream (see
    /// [`casa_core::backend`](crate::backend)), so a run checkpointed on
    /// one backend may resume on another without changing the merged
    /// output — same rationale as the worker count.
    pub fn backend(&self) -> crate::BackendKind {
        self.session.backend()
    }

    /// The streaming configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Hash of everything that must match between the checkpointing run
    /// and the resuming run for the merged output to be byte-identical:
    /// CASA config, fault plan, batch size, strand mode. Worker count,
    /// tile deadline, and seeding backend are excluded by design (see the
    /// module docs and [`backend`](Self::backend)).
    pub fn fingerprint(&self) -> u64 {
        checkpoint::fnv64(
            format!(
                "{:?}|{:?}|{}|{}",
                self.session.config(),
                self.session.fault_plan(),
                self.config.batch_reads,
                self.config.both_strands,
            )
            .as_bytes(),
        )
    }

    /// Loads the checkpoint at `path` and verifies it belongs to this
    /// session's configuration.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`]: I/O, corruption, version, or fingerprint
    /// mismatch. A missing file is an I/O error, never a silent fresh
    /// start.
    pub fn load_checkpoint(
        &self,
        path: &std::path::Path,
    ) -> Result<StreamCheckpoint, CheckpointError> {
        let cp = StreamCheckpoint::load(path)?;
        cp.verify_fingerprint(self.fingerprint())?;
        Ok(cp)
    }

    /// Streams `source` through the session from the beginning.
    ///
    /// `sink` is called once per seeded batch, in order, and returns the
    /// durable positions (e.g. output-file byte offsets) after persisting
    /// the batch; those positions are recorded in the next checkpoint so
    /// a resume can truncate back to them.
    ///
    /// # Errors
    ///
    /// [`StreamError`] for source, sink, or checkpoint failures; batches
    /// sunk before the failure stay durable.
    pub fn run<T, E, I, S>(&self, source: I, sink: S) -> Result<StreamReport, StreamError>
    where
        T: StreamItem,
        E: fmt::Display,
        I: Iterator<Item = Result<T, E>> + Send,
        S: FnMut(&StreamBatch<T>) -> io::Result<Vec<u64>>,
    {
        self.run_from(source, sink, None)
    }

    /// Streams `source` through the session, replaying only the batches
    /// past `checkpoint`'s watermark. The source must be the *same input
    /// from the beginning* — the runtime consumes and discards the
    /// already-completed batches to keep batch boundaries identical.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::FingerprintMismatch`] (as a
    /// [`StreamError::Checkpoint`]) when the checkpoint belongs to a
    /// different configuration, plus everything [`Self::run`] reports.
    pub fn resume<T, E, I, S>(
        &self,
        source: I,
        sink: S,
        checkpoint: &StreamCheckpoint,
    ) -> Result<StreamReport, StreamError>
    where
        T: StreamItem,
        E: fmt::Display,
        I: Iterator<Item = Result<T, E>> + Send,
        S: FnMut(&StreamBatch<T>) -> io::Result<Vec<u64>>,
    {
        checkpoint.verify_fingerprint(self.fingerprint())?;
        self.run_from(source, sink, Some(checkpoint))
    }

    /// The shared engine behind [`run`](Self::run) and
    /// [`resume`](Self::resume).
    fn run_from<T, E, I, S>(
        &self,
        source: I,
        mut sink: S,
        base: Option<&StreamCheckpoint>,
    ) -> Result<StreamReport, StreamError>
    where
        T: StreamItem,
        E: fmt::Display,
        I: Iterator<Item = Result<T, E>> + Send,
        S: FnMut(&StreamBatch<T>) -> io::Result<Vec<u64>>,
    {
        let batch_reads = self.config.batch_reads;
        let skip_batches = base.map_or(0, |cp| cp.completed_batches);
        let base_recovery = base.map_or_else(RecoveryCounters::default, |cp| cp.recovery);
        let inflight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let (tx, rx) = mpsc::sync_channel::<Msg<T>>(self.config.ring_capacity);
        let cancel = &self.cancel;

        std::thread::scope(|scope| {
            let reader = std::thread::Builder::new()
                .name("casa-stream-reader".to_string())
                .spawn_scoped(scope, {
                    let inflight = &inflight;
                    let peak = &peak;
                    move || {
                        let mut items: Vec<T> = Vec::with_capacity(batch_reads);
                        let mut index: u64 = 0;
                        let mut record: u64 = 0;
                        let flush = |items: &mut Vec<T>, index: &mut u64, record: u64| {
                            let batch = std::mem::replace(items, Vec::with_capacity(batch_reads));
                            let msg = if *index < skip_batches {
                                Msg::Skipped {
                                    reads: batch.len() as u64,
                                }
                            } else {
                                let live =
                                    inflight.fetch_add(batch.len(), Ordering::AcqRel) + batch.len();
                                peak.fetch_max(live, Ordering::AcqRel);
                                Msg::Batch {
                                    index: *index,
                                    first_read: record - batch.len() as u64,
                                    items: batch,
                                }
                            };
                            *index += 1;
                            tx.send(msg).is_ok()
                        };
                        for item in source {
                            if cancel.is_cancelled() {
                                // Discard the partial batch: only full
                                // batches and the natural EOF batch are
                                // ever sent, so batch boundaries match an
                                // uninterrupted run exactly.
                                items.clear();
                                return;
                            }
                            match item {
                                Ok(it) => {
                                    items.push(it);
                                    record += 1;
                                }
                                Err(e) => {
                                    let _ = tx.send(Msg::SourceError {
                                        record,
                                        message: e.to_string(),
                                    });
                                    return;
                                }
                            }
                            if items.len() == batch_reads && !flush(&mut items, &mut index, record)
                            {
                                return;
                            }
                        }
                        if !items.is_empty() && !cancel.is_cancelled() {
                            flush(&mut items, &mut index, record);
                        }
                    }
                })
                .map_err(|_| Error::Runtime {
                    what: "could not spawn stream reader thread",
                })?;

            let mut report = StreamReport::default();
            let mut failure: Option<StreamError> = None;
            let mut watermark = skip_batches;
            let mut completed_reads = base.map_or(0, |cp| cp.completed_reads);
            let mut sink_offsets = base.map_or_else(Vec::new, |cp| cp.sink_offsets.clone());
            let mut since_checkpoint: u64 = 0;

            let make_checkpoint = |watermark: u64,
                                   completed_reads: u64,
                                   sink_offsets: &[u64],
                                   stats: &SeedingStats| {
                let mut recovery = base_recovery;
                recovery.merge(&RecoveryCounters::from_stats(stats));
                StreamCheckpoint {
                    fingerprint: self.fingerprint(),
                    batch_reads: batch_reads as u64,
                    completed_batches: watermark,
                    completed_reads,
                    sink_offsets: sink_offsets.to_vec(),
                    recovery,
                }
            };

            for msg in rx.iter() {
                match msg {
                    Msg::Skipped { reads } => {
                        report.skipped_batches += 1;
                        report.skipped_reads += reads;
                    }
                    Msg::SourceError { record, message } => {
                        if failure.is_none() {
                            failure = Some(StreamError::Source { record, message });
                        }
                        cancel.cancel();
                    }
                    Msg::Batch {
                        index,
                        first_read,
                        items,
                    } => {
                        let n = items.len();
                        if failure.is_some() || cancel.is_cancelled() {
                            // Draining: count the reads out of the
                            // pipeline but do no work.
                            inflight.fetch_sub(n, Ordering::AcqRel);
                            continue;
                        }
                        let packed: Vec<PackedSeq> =
                            items.iter().map(|it| it.seq().clone()).collect();
                        if let Err(Error::ReadTooLong { read, len, max }) =
                            self.session.check_read_lengths(&packed)
                        {
                            inflight.fetch_sub(n, Ordering::AcqRel);
                            failure = Some(StreamError::ReadTooLong {
                                record: first_read + read as u64,
                                len,
                                max,
                            });
                            cancel.cancel();
                            continue;
                        }
                        let (forward, reverse) = if self.config.both_strands {
                            let both = self.session.seed_reads_both_strands(&packed);
                            (both.forward, Some(both.reverse))
                        } else {
                            (self.session.seed_reads(&packed), None)
                        };
                        report.stats.merge(&forward.stats);
                        if let Some(rev) = &reverse {
                            report.stats.merge(&rev.stats);
                        }
                        let batch = StreamBatch {
                            index,
                            first_read,
                            items,
                            forward,
                            reverse,
                        };
                        match sink(&batch) {
                            Ok(offsets) => {
                                inflight.fetch_sub(n, Ordering::AcqRel);
                                report.batches += 1;
                                report.reads += n as u64;
                                watermark = index + 1;
                                completed_reads = first_read + n as u64;
                                sink_offsets = offsets;
                                since_checkpoint += 1;
                                if let Some(path) = &self.config.checkpoint {
                                    if since_checkpoint >= self.config.checkpoint_every {
                                        let cp = make_checkpoint(
                                            watermark,
                                            completed_reads,
                                            &sink_offsets,
                                            &report.stats,
                                        );
                                        match cp.save(path) {
                                            Ok(()) => {
                                                report.checkpoints_written += 1;
                                                since_checkpoint = 0;
                                            }
                                            Err(e) => {
                                                failure = Some(StreamError::Checkpoint(e));
                                                cancel.cancel();
                                            }
                                        }
                                    }
                                }
                            }
                            Err(e) => {
                                inflight.fetch_sub(n, Ordering::AcqRel);
                                log_warn!("stream sink failed on batch {index}: {e}");
                                failure = Some(StreamError::Sink(e));
                                cancel.cancel();
                            }
                        }
                    }
                }
            }
            // The ring is closed: the reader is done (or bailed), so the
            // join below cannot block on a full channel.
            let _ = reader.join();

            if let Some(err) = failure {
                return Err(err);
            }
            report.cancelled = cancel.is_cancelled();
            if let Some(path) = &self.config.checkpoint {
                let cp = make_checkpoint(watermark, completed_reads, &sink_offsets, &report.stats);
                cp.save(path)?;
                report.checkpoints_written += 1;
                report.checkpoint = Some(cp);
            }
            report.peak_inflight_reads = peak.load(Ordering::Acquire) as u64;
            Ok(report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CasaConfig;
    use casa_genome::synth::{generate_reference, ReferenceProfile};
    use casa_genome::{ReadSimConfig, ReadSimulator};
    use std::convert::Infallible;
    use std::sync::Mutex;

    fn scenario() -> (PackedSeq, CasaConfig, Vec<PackedSeq>) {
        let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 17);
        let mut config = CasaConfig::small(700);
        config.partitioning = casa_genome::PartitionScheme::new(700, 60);
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 44,
                ..ReadSimConfig::default()
            },
            5,
        );
        let reads = sim
            .simulate(&reference, 57)
            .into_iter()
            .map(|r| r.seq)
            .collect();
        (reference, config, reads)
    }

    fn source_of(
        reads: &[PackedSeq],
    ) -> impl Iterator<Item = Result<PackedSeq, Infallible>> + Send + '_ {
        reads.iter().cloned().map(Ok)
    }

    type SunkBatches = Mutex<Vec<(u64, Vec<Vec<casa_index::Smem>>)>>;

    fn collecting_sink(
        out: &SunkBatches,
    ) -> impl FnMut(&StreamBatch<PackedSeq>) -> io::Result<Vec<u64>> + '_ {
        move |batch| {
            out.lock()
                .unwrap()
                .push((batch.index, batch.forward.smems.clone()));
            Ok(vec![batch.index + 1])
        }
    }

    #[test]
    fn streaming_matches_one_shot_seeding() {
        let (reference, config, reads) = scenario();
        let session = SeedingSession::new(&reference, config, 2).expect("valid config");
        let oneshot = session.seed_reads(&reads);
        let stream = StreamingSession::new(
            session,
            StreamConfig {
                batch_reads: 7,
                ..StreamConfig::default()
            },
        )
        .expect("valid stream config");
        let out = Mutex::new(Vec::new());
        let report = stream
            .run(source_of(&reads), collecting_sink(&out))
            .expect("run succeeds");
        assert!(!report.cancelled);
        assert_eq!(report.reads, reads.len() as u64);
        assert_eq!(report.batches, (reads.len() as u64).div_ceil(7));
        let merged: Vec<_> = out
            .into_inner()
            .unwrap()
            .into_iter()
            .flat_map(|(_, smems)| smems)
            .collect();
        assert_eq!(merged, oneshot.smems);
    }

    #[test]
    fn inflight_reads_stay_bounded() {
        let (reference, config, reads) = scenario();
        let session = SeedingSession::new(&reference, config, 1).expect("valid config");
        let cfg = StreamConfig {
            batch_reads: 4,
            ring_capacity: 2,
            ..StreamConfig::default()
        };
        let bound = (cfg.batch_reads * (cfg.ring_capacity + 2)) as u64;
        let stream = StreamingSession::new(session, cfg).expect("valid stream config");
        let report = stream
            .run(source_of(&reads), |_batch| Ok(Vec::new()))
            .expect("run succeeds");
        assert!(report.peak_inflight_reads > 0);
        assert!(
            report.peak_inflight_reads <= bound,
            "peak {} exceeds bound {bound}",
            report.peak_inflight_reads
        );
    }

    #[test]
    fn cancel_then_resume_is_byte_identical() {
        let (reference, config, reads) = scenario();
        let make = |path: &std::path::Path| {
            let session = SeedingSession::new(&reference, config, 2).expect("valid config");
            StreamingSession::new(
                session,
                StreamConfig {
                    batch_reads: 6,
                    checkpoint: Some(path.to_path_buf()),
                    checkpoint_every: 2,
                    ..StreamConfig::default()
                },
            )
            .expect("valid stream config")
        };
        let dir = std::env::temp_dir().join(format!("casa_stream_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cancel.ckpt");

        // Uninterrupted baseline.
        let baseline = Mutex::new(Vec::new());
        make(&path)
            .run(source_of(&reads), collecting_sink(&baseline))
            .expect("baseline run");
        let baseline = baseline.into_inner().unwrap();

        // Cancel from inside the sink after three batches.
        let first = make(&path);
        let token = first.cancel_token();
        let merged = Mutex::new(Vec::new());
        let report = first
            .run(source_of(&reads), |batch: &StreamBatch<PackedSeq>| {
                merged
                    .lock()
                    .unwrap()
                    .push((batch.index, batch.forward.smems.clone()));
                if batch.index == 2 {
                    token.cancel();
                }
                Ok(vec![batch.index + 1])
            })
            .expect("cancelled run still reports");
        assert!(report.cancelled);
        assert!(report.batches >= 3, "three batches were sunk before cancel");
        assert!(
            report.batches < baseline.len() as u64,
            "cancellation must stop early to make the resume meaningful"
        );

        // Resume from the checkpoint with a different worker count.
        let second = {
            let session = SeedingSession::new(&reference, config, 8).expect("valid config");
            StreamingSession::new(
                session,
                StreamConfig {
                    batch_reads: 6,
                    checkpoint: Some(path.clone()),
                    checkpoint_every: 2,
                    ..StreamConfig::default()
                },
            )
            .expect("valid stream config")
        };
        let cp = second.load_checkpoint(&path).expect("checkpoint loads");
        assert_eq!(cp.completed_batches, report.batches);
        let resumed = second
            .resume(source_of(&reads), collecting_sink(&merged), &cp)
            .expect("resume succeeds");
        assert_eq!(resumed.skipped_batches, cp.completed_batches);
        assert_eq!(
            report.batches + resumed.batches,
            baseline.len() as u64,
            "every batch is seeded exactly once across the two runs"
        );
        assert_eq!(merged.into_inner().unwrap(), baseline);

        // The final checkpoint of the resumed run covers the whole input.
        let final_cp = resumed.checkpoint.expect("final checkpoint");
        assert_eq!(final_cp.completed_reads, reads.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_errors_cancel_and_surface() {
        let (reference, config, reads) = scenario();
        let session = SeedingSession::new(&reference, config, 2).expect("valid config");
        let stream = StreamingSession::new(
            session,
            StreamConfig {
                batch_reads: 5,
                ..StreamConfig::default()
            },
        )
        .expect("valid stream config");
        let err = stream
            .run(source_of(&reads), |batch: &StreamBatch<PackedSeq>| {
                if batch.index == 1 {
                    Err(io::Error::other("disk full"))
                } else {
                    Ok(Vec::new())
                }
            })
            .expect_err("sink failure must surface");
        assert!(matches!(err, StreamError::Sink(_)));
        assert!(err.to_string().contains("disk full"));
    }

    #[test]
    fn source_errors_carry_the_record_index() {
        let (reference, config, reads) = scenario();
        let session = SeedingSession::new(&reference, config, 1).expect("valid config");
        let stream =
            StreamingSession::new(session, StreamConfig::default()).expect("valid stream config");
        let source = reads
            .iter()
            .take(3)
            .cloned()
            .map(Ok)
            .chain(std::iter::once(Err("torn read")));
        let err = stream
            .run(source, |_batch: &StreamBatch<PackedSeq>| Ok(Vec::new()))
            .expect_err("source failure must surface");
        match err {
            StreamError::Source { record, message } => {
                assert_eq!(record, 3);
                assert!(message.contains("torn read"));
            }
            other => panic!("expected source error, got {other}"),
        }
    }

    #[test]
    fn bad_stream_configs_are_typed_errors() {
        let (reference, config, _) = scenario();
        for (mutate, field) in [
            (
                StreamConfig {
                    batch_reads: 0,
                    ..StreamConfig::default()
                },
                "batch_reads",
            ),
            (
                StreamConfig {
                    ring_capacity: 0,
                    ..StreamConfig::default()
                },
                "ring_capacity",
            ),
            (
                StreamConfig {
                    checkpoint_every: 0,
                    ..StreamConfig::default()
                },
                "checkpoint_every",
            ),
        ] {
            let session = SeedingSession::new(&reference, config, 1).expect("valid config");
            match StreamingSession::new(session, mutate) {
                Err(Error::Config(ConfigError::BadStreamConfig { reason })) => {
                    assert!(reason.contains(field), "{reason} should mention {field}")
                }
                other => panic!("expected BadStreamConfig for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn checkpoints_from_other_configs_are_rejected() {
        let (reference, config, reads) = scenario();
        let dir = std::env::temp_dir().join(format!("casa_stream_fp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fp.ckpt");
        let a = StreamingSession::new(
            SeedingSession::new(&reference, config, 1).expect("valid config"),
            StreamConfig {
                batch_reads: 8,
                checkpoint: Some(path.clone()),
                ..StreamConfig::default()
            },
        )
        .expect("valid stream config");
        a.run(source_of(&reads), |_b| Ok(Vec::new()))
            .expect("run succeeds");
        // Same session, different batch size: different output layout.
        let b = StreamingSession::new(
            SeedingSession::new(&reference, config, 1).expect("valid config"),
            StreamConfig {
                batch_reads: 9,
                checkpoint: Some(path.clone()),
                ..StreamConfig::default()
            },
        )
        .expect("valid stream config");
        assert!(matches!(
            b.load_checkpoint(&path),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
