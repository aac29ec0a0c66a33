//! Implementation of the `casa-seed` command-line tool: FASTA reference +
//! FASTQ reads in, SAM (and optionally a seed table) out, seeded by the
//! CASA accelerator model and aligned with the chain/extend kernels.
//!
//! The logic lives here (not in the binary) so it is unit-testable; the
//! `casa-seed` binary is a thin `main` around [`run`].

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use casa_align::aligner::{align_read, AlignConfig};
use casa_core::{
    BackendKind, CancelToken, CheckpointError, FaultPlan, KernelBackend, LoadedIndex,
    SeedingSession, StrandedRun, StreamBatch, StreamConfig, StreamError, StreamingSession,
};
use casa_genome::fasta::{FastaError, FastaRecord, FastaStream, NPolicy};
use casa_genome::fastq::{FastqError, FastqRecord, FastqStream};
use casa_genome::sam::{write_sam, write_sam_header, SamFormatter, SamRecord, FLAG_REVERSE};
use casa_genome::{Base, PackedSeq};

use crate::seeder::derive_config;

/// Parsed command-line options.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Path to the FASTA reference.
    pub reference: PathBuf,
    /// Path to the FASTQ reads.
    pub reads: PathBuf,
    /// SAM output path (stdout if absent).
    pub sam_out: Option<PathBuf>,
    /// Optional TSV dump of raw seeds (read index, interval, hits).
    pub seeds_out: Option<PathBuf>,
    /// Reference partition length (accelerator on-chip capacity).
    pub partition_len: usize,
    /// Seeding worker threads (`None` = one per available CPU).
    pub threads: Option<usize>,
    /// Fault-injection plan (`--fault-spec`), if any.
    pub fault_spec: Option<FaultPlan>,
    /// Override for the per-tile retry budget (`--max-retries`).
    pub max_retries: Option<usize>,
    /// Stream reads in bounded batches instead of loading them whole
    /// (`--stream`).
    pub stream: bool,
    /// Reads per streaming batch (`--batch-reads`).
    pub batch_reads: usize,
    /// Watchdog deadline per tile attempt in milliseconds
    /// (`--tile-deadline-ms`).
    pub tile_deadline_ms: Option<u64>,
    /// Checkpoint journal path (`--checkpoint`).
    pub checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint instead of starting over (`--resume`).
    pub resume: bool,
    /// CAM word kernel override (`--kernel`); `None` defers to the
    /// `CASA_KERNEL` environment variable, then CPU detection.
    pub kernel: Option<KernelBackend>,
    /// Seeding backend override (`--backend`); `None` defers to the
    /// `CASA_BACKEND` environment variable, then the CAM default.
    pub backend: Option<BackendKind>,
    /// Zero-copy index image to mmap instead of building the index
    /// (`--index-image`). The image embeds the accelerator config, so
    /// `--partition` is rejected alongside it.
    pub index_image: Option<PathBuf>,
}

/// CLI errors (bad flags, IO, malformed inputs, rejected configs).
#[derive(Debug)]
pub enum CliError {
    /// Unknown or incomplete flags; the string is a usage message.
    Usage(String),
    /// Filesystem or pipe failure.
    Io(io::Error),
    /// Input parse failure.
    Parse(String),
    /// The accelerator rejected the derived configuration (e.g. a
    /// `--partition` value smaller than the read length).
    Config(casa_core::Error),
    /// The checkpoint journal is unusable (missing, corrupt, wrong
    /// version, or from a different run configuration).
    Checkpoint(CheckpointError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Parse(msg) => write!(f, "input error: {msg}"),
            CliError::Config(e) => write!(f, "config error: {e}"),
            CliError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io(e) => Some(e),
            CliError::Config(e) => Some(e),
            CliError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> CliError {
        CliError::Io(e)
    }
}

impl From<casa_core::Error> for CliError {
    fn from(e: casa_core::Error) -> CliError {
        CliError::Config(e)
    }
}

impl From<casa_core::ConfigError> for CliError {
    fn from(e: casa_core::ConfigError) -> CliError {
        CliError::Config(casa_core::Error::from(e))
    }
}

/// Usage text printed on flag errors.
pub const USAGE: &str = "\
usage: casa-seed --reference <ref.fa> --reads <reads.fq> [options]
       casa-seed index build --reference <ref.fa> --out <image> [options]
       casa-seed index inspect <image>

options:
  --reference <path>   FASTA reference (N bases replaced with A)
  --reads <path>       FASTQ reads, single-ended
  --sam <path>         write SAM here instead of stdout
  --seeds <path>       also dump raw SMEMs as TSV
  --partition <bases>  accelerator partition length (default 1000000)
  --threads <n>        seeding worker threads (default: all CPUs)
  --fault-spec <spec>  inject seeded faults, e.g.
                       seed=42,panic=0.1,cam-flip=1e-4,check=1.0
                       (keys: seed, panic, stall, cam-stuck, cam-flip,
                       filter-flip, check, retries, partition;
                       partition=N confines cam-stuck, cam-flip and
                       filter-flip to partition N, while panics and
                       stalls hit every partition)
  --max-retries <n>    per-tile retry budget before a partition is
                       quarantined to the golden model (default 3)
  --stream             stream reads in bounded batches instead of
                       loading the whole file (requires --sam)
  --batch-reads <n>    reads per streaming batch (default 512)
  --tile-deadline-ms <ms>
                       watchdog deadline per tile attempt; overruns are
                       retried like panics (streaming only)
  --checkpoint <path>  journal streaming progress here so an
                       interrupted run can be resumed
  --resume             resume from --checkpoint, replaying only
                       unfinished batches (output stays byte-identical
                       to an uninterrupted run)
  --kernel <backend>   CAM word kernel: scalar, u64x4, or avx2
                       (default: $CASA_KERNEL, else CPU detection;
                       all backends produce identical output)
  --backend <name>     seeding backend: cam, fm, or ert
                       (default: $CASA_BACKEND, else cam; every
                       backend emits the identical SMEM stream)
  --index-image <path> mmap a prebuilt index image (see `index build`)
                       instead of building the index; the image embeds
                       the accelerator config, so --partition is
                       rejected alongside it. --reference is still
                       required (SAM reference name + a safety check
                       that the image matches the FASTA). Output is
                       bit-identical to a freshly built index.

index build options:
  --reference <path>   FASTA reference to index
  --out <path>         image output path (written atomically)
  --partition <bases>  accelerator partition length (default 1000000)
  --read-len <bases>   read length the config is sized for
                       (default 101)

index inspect: prints the image header (version, fingerprint, size,
  partitions) and one line per section.";

/// Parses `args` (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] on unknown flags, missing values, or
/// missing required options.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, CliError> {
    let mut reference = None;
    let mut reads = None;
    let mut sam_out = None;
    let mut seeds_out = None;
    let mut partition_len = None;
    let mut threads = None;
    let mut fault_spec = None;
    let mut max_retries = None;
    let mut stream = false;
    let mut batch_reads = None;
    let mut tile_deadline_ms = None;
    let mut checkpoint = None;
    let mut resume = false;
    let mut kernel = None;
    let mut backend = None;
    let mut index_image = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| CliError::Usage(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--reference" => reference = Some(PathBuf::from(value("--reference")?)),
            "--reads" => reads = Some(PathBuf::from(value("--reads")?)),
            "--sam" => sam_out = Some(PathBuf::from(value("--sam")?)),
            "--seeds" => seeds_out = Some(PathBuf::from(value("--seeds")?)),
            "--partition" => {
                partition_len = Some(
                    value("--partition")?
                        .parse()
                        .map_err(|_| CliError::Usage("--partition must be an integer".into()))?,
                );
            }
            "--threads" => {
                threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|_| CliError::Usage("--threads must be an integer".into()))?,
                );
            }
            "--fault-spec" => {
                fault_spec = Some(
                    FaultPlan::parse(&value("--fault-spec")?)
                        .map_err(|msg| CliError::Usage(format!("--fault-spec: {msg}")))?,
                );
            }
            "--max-retries" => {
                max_retries = Some(
                    value("--max-retries")?
                        .parse()
                        .map_err(|_| CliError::Usage("--max-retries must be an integer".into()))?,
                );
            }
            "--stream" => stream = true,
            "--batch-reads" => {
                batch_reads = Some(
                    value("--batch-reads")?
                        .parse::<usize>()
                        .map_err(|_| CliError::Usage("--batch-reads must be an integer".into()))?,
                );
            }
            "--tile-deadline-ms" => {
                tile_deadline_ms =
                    Some(value("--tile-deadline-ms")?.parse::<u64>().map_err(|_| {
                        CliError::Usage("--tile-deadline-ms must be an integer".into())
                    })?);
            }
            "--checkpoint" => checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--resume" => resume = true,
            "--kernel" => {
                // Unknown or unsupported backends surface as the typed
                // config error, not a usage string, so scripts can match
                // on them.
                kernel = Some(
                    KernelBackend::parse(&value("--kernel")?)
                        .and_then(KernelBackend::ensure_supported)
                        .map_err(casa_core::ConfigError::from)?,
                );
            }
            "--backend" => {
                // Same contract as --kernel: unknown names are the typed
                // config error. Every backend runs on every host, so
                // there is no support check.
                backend = Some(
                    BackendKind::parse(&value("--backend")?)
                        .map_err(casa_core::ConfigError::from)?,
                );
            }
            "--index-image" => index_image = Some(PathBuf::from(value("--index-image")?)),
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    if !stream {
        let streaming_only = [
            (batch_reads.is_some(), "--batch-reads"),
            (tile_deadline_ms.is_some(), "--tile-deadline-ms"),
            (checkpoint.is_some(), "--checkpoint"),
            (resume, "--resume"),
        ];
        if let Some((_, flag)) = streaming_only.iter().find(|(set, _)| *set) {
            return Err(CliError::Usage(format!("{flag} requires --stream")));
        }
    }
    if stream && sam_out.is_none() {
        return Err(CliError::Usage(
            "--stream requires --sam (streaming output cannot go to stdout)".into(),
        ));
    }
    if resume && checkpoint.is_none() {
        return Err(CliError::Usage("--resume requires --checkpoint".into()));
    }
    if batch_reads == Some(0) {
        return Err(CliError::Usage("--batch-reads must be positive".into()));
    }
    if index_image.is_some() && partition_len.is_some() {
        return Err(CliError::Usage(
            "--partition conflicts with --index-image (the image embeds its config)".into(),
        ));
    }
    Ok(Options {
        reference: reference.ok_or_else(|| CliError::Usage("--reference is required".into()))?,
        reads: reads.ok_or_else(|| CliError::Usage("--reads is required".into()))?,
        sam_out,
        seeds_out,
        partition_len: partition_len.unwrap_or(1_000_000),
        threads,
        fault_spec,
        max_retries,
        stream,
        batch_reads: batch_reads.unwrap_or(512),
        tile_deadline_ms,
        checkpoint,
        resume,
        kernel,
        backend,
        index_image,
    })
}

/// Summary statistics returned by [`run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Reads processed.
    pub reads: u64,
    /// Reads with at least one alignment.
    pub aligned: u64,
    /// Total SMEMs found (best orientation per read).
    pub smems: u64,
    /// Tile attempts retried by the fault-tolerant scheduler.
    pub tile_retries: u64,
    /// Partitions quarantined to the golden model (both strands).
    pub partitions_quarantined: u64,
    /// Read passes seeded by the golden fallback.
    pub fallback_reads: u64,
    /// Cross-checked read passes that caught silent corruption.
    pub crosscheck_mismatches: u64,
    /// Tile attempts abandoned by the watchdog deadline (distinct from
    /// `tile_retries`, which counts panics and cross-check mismatches).
    pub deadline_stalls: u64,
    /// Streaming batches seeded and durably written this run.
    pub stream_batches: u64,
    /// Streaming batches skipped because a `--resume` checkpoint already
    /// covered them.
    pub stream_batches_skipped: u64,
    /// Whether the run stopped on a cancellation request (Ctrl-C).
    pub cancelled: bool,
    /// The CAM word kernel the run was seeded with (`"scalar"`,
    /// `"u64x4"`, or `"avx2"`; empty only in a default-constructed
    /// summary).
    pub kernel: &'static str,
    /// The seeding backend the run used (`"cam"`, `"fm"`, or `"ert"`;
    /// empty only in a default-constructed summary).
    pub backend: &'static str,
    /// How the reference-side index was obtained: `"built"` (tables
    /// constructed from the reference) or `"mapped"` (borrowed zero-copy
    /// from an `--index-image`; empty only in a default-constructed
    /// summary).
    pub index_source: &'static str,
    /// Wall-clock microseconds until the index was ready to seed — the
    /// table build for `"built"`, the mmap + verify + session wiring for
    /// `"mapped"`. The startup cost an index image amortizes away.
    pub index_ready_micros: u64,
}

/// Maps a FASTA reader error: file-open failures stay IO errors,
/// malformed content is a parse error.
fn fasta_err(e: FastaError) -> CliError {
    match e {
        FastaError::Io(e) => CliError::Io(e),
        other => CliError::Parse(other.to_string()),
    }
}

/// Loads the reference a `--reference` FASTA names: its first record,
/// with `N` (and every other non-`ACGT` byte) replaced by `A`, the
/// paper's preprocessing. Every record is parsed, so a malformed later
/// record still fails the load, but only the first is kept; a file with
/// more than one logs a `warn` line naming the count and the kept
/// record. Logs one `info` line with the base count and load time.
///
/// # Errors
///
/// [`CliError::Io`] if the file cannot be read, [`CliError::Parse`] for
/// malformed FASTA or a file with no records.
pub(crate) fn load_reference(path: &Path) -> Result<FastaRecord, CliError> {
    let start = Instant::now();
    let mut records = FastaStream::from_path(path, NPolicy::Replace(Base::A)).map_err(fasta_err)?;
    let first = records
        .next()
        .transpose()
        .map_err(fasta_err)?
        .ok_or_else(|| CliError::Parse("reference FASTA has no records".into()))?;
    for later in &mut records {
        later.map_err(fasta_err)?;
    }
    let id = first.name.split_whitespace().next().unwrap_or("");
    if records.record_index() > 1 {
        casa_core::log_warn!(
            "reference {} holds {} records; indexing only the first, {id:?}",
            path.display(),
            records.record_index()
        );
    }
    casa_core::log_info!(
        "reference {id}: {} bases read in {:.1} ms",
        first.seq.len(),
        start.elapsed().as_secs_f64() * 1e3
    );
    Ok(first)
}

/// Maps a FASTQ reader error: file-open failures stay IO errors,
/// malformed content is a parse error.
fn fastq_err(e: FastqError) -> CliError {
    match e {
        FastqError::Io(e) => CliError::Io(e),
        other => CliError::Parse(other.to_string()),
    }
}

/// Maps a streaming-runtime error onto the CLI's error taxonomy.
fn stream_err(e: StreamError) -> CliError {
    match e {
        StreamError::Core(e) => CliError::Config(e),
        StreamError::Checkpoint(e) => CliError::Checkpoint(e),
        StreamError::Source { message, .. } => CliError::Parse(message),
        StreamError::Sink(e) => CliError::Io(e),
        e @ StreamError::ReadTooLong { .. } => CliError::Parse(e.to_string()),
    }
}

/// Builds the seeding session either from the reference (index tables
/// constructed in place) or zero-copy from a mapped `--index-image`,
/// reporting which path ran and how long the index took to become ready
/// to seed — the number the run summary and `CASA_LOG` surface as the
/// build-vs-load line (the whole point of the image is collapsing this
/// number). Unset `--backend`, `--fault-spec` and `--threads` take their
/// environment defaults; `--max-retries` and `--kernel` apply on top.
fn prepare_session(
    options: &Options,
    image: Option<&LoadedIndex>,
    reference: &PackedSeq,
    read_len: usize,
) -> Result<(SeedingSession, &'static str, u64), CliError> {
    let start = std::time::Instant::now();
    let (backend, mut plan, workers) =
        casa_core::env_defaults(options.backend, options.fault_spec, options.threads)?;
    if let Some(retries) = options.max_retries {
        plan.max_retries = retries;
    }
    let mut session = match image {
        // The embedded config is authoritative; the CAM backend borrows
        // its tables from the mapping.
        Some(index) => SeedingSession::from_image(index, workers, plan, backend)?,
        None => {
            let config = derive_config(reference.len(), options.partition_len, read_len)?;
            SeedingSession::with_backend(reference, config, workers, plan, backend)?
        }
    };
    if let Some(kernel) = options.kernel {
        session = session.with_kernel_backend(kernel)?;
    }
    let elapsed = start.elapsed();
    let Some(index) = image else {
        let micros = elapsed.as_micros() as u64;
        casa_core::log_info!(
            "index built in {:.1} ms ({} partitions)",
            micros as f64 / 1e3,
            session.partition_count()
        );
        return Ok((session, "built", micros));
    };
    // The mmap + verify happened in run_with_cancel; fold it in so "load
    // time" covers open-to-ready, not just wiring.
    let micros = (elapsed + index.elapsed()).as_micros() as u64;
    casa_core::log_info!(
        "index mapped from {} in {:.1} ms (fingerprint {:016x}, {} partitions)",
        index.path().display(),
        micros as f64 / 1e3,
        index.fingerprint(),
        session.partition_count()
    );
    Ok((session, "mapped", micros))
}

/// Renders one read's seeds as TSV lines onto `dump`.
fn dump_seeds(dump: &mut String, name: &str, reverse: bool, smems: &[casa_index::Smem]) {
    use std::fmt::Write as _;
    let strand = if reverse { '-' } else { '+' };
    for s in smems {
        let _ = write!(dump, "{name}\t{strand}\t{}\t{}\t", s.read_start, s.read_end);
        write_hits(dump, &s.hits);
        dump.push('\n');
    }
}

/// Appends an SMEM's hits to `out` as comma-separated decimal positions —
/// the hit column of the CLI's seed dump and of `casa-serve`'s TSV.
pub(crate) fn write_hits(out: &mut String, hits: &[u32]) {
    use std::fmt::Write as _;
    for (i, h) in hits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{h}");
    }
}

/// Aligns one read from its best-orientation seeds into a SAM record
/// (unmapped on extension failure; callers count mapped records via
/// [`SamRecord::is_mapped`]).
fn align_to_record(
    reference: &PackedSeq,
    rname: &str,
    name: &str,
    seq: &PackedSeq,
    reverse: bool,
    smems: &[casa_index::Smem],
    align_cfg: &AlignConfig,
) -> SamRecord {
    let oriented = if reverse {
        seq.reverse_complement()
    } else {
        seq.clone()
    };
    match align_read(reference, &oriented, smems, align_cfg) {
        Some(aln) => SamRecord {
            qname: name.to_string(),
            flag: if reverse { FLAG_REVERSE } else { 0 },
            rname: rname.to_string(),
            pos: aln.ref_start as u64 + 1,
            mapq: aln.mapq,
            cigar: aln.cigar,
            seq: oriented,
        },
        None => SamRecord::unmapped(name, seq.clone()),
    }
}

/// Runs the tool: load inputs, seed both strands, align, emit SAM.
///
/// # Errors
///
/// Returns [`CliError`] on IO failures or malformed FASTA/FASTQ.
pub fn run(options: &Options) -> Result<RunSummary, CliError> {
    run_with_cancel(options, &CancelToken::new())
}

/// Like [`run`], with a cancellation token shared with the caller (the
/// `casa-seed` binary hands a clone to its SIGINT handler). Cancellation
/// only takes effect in `--stream` mode, where it stops at the next batch
/// boundary and leaves a final checkpoint for `--resume`.
///
/// # Errors
///
/// As [`run`], plus [`CliError::Checkpoint`] for unusable `--checkpoint`
/// journals.
pub fn run_with_cancel(options: &Options, cancel: &CancelToken) -> Result<RunSummary, CliError> {
    // Map the index image first (when given) so its verify cost is
    // counted as load time, not buried in the FASTA read below.
    let image = match &options.index_image {
        Some(path) => Some(
            LoadedIndex::open(path)
                .map_err(casa_core::Error::from)
                .map_err(CliError::Config)?,
        ),
        None => None,
    };
    let record = load_reference(&options.reference)?;
    let reference = record.seq;
    let rname: String = record
        .name
        .split_whitespace()
        .next()
        .unwrap_or("ref")
        .to_string();
    if let Some(index) = &image {
        // The image must describe this exact reference, or every seed
        // coordinate would silently be wrong.
        if index.reference() != &reference {
            return Err(CliError::Config(casa_core::Error::Image {
                what: format!(
                    "index image {} was built from a different reference \
                     (image: {} bases, FASTA: {} bases)",
                    index.path().display(),
                    index.reference().len(),
                    reference.len()
                ),
            }));
        }
    }

    if options.stream {
        run_streaming(options, image.as_ref(), cancel, &reference, &rname)
    } else {
        run_batch(options, image.as_ref(), &reference, &rname)
    }
}

/// The classic whole-file path: ingest every read, seed one batch, align,
/// write the outputs in one go. Reads are unpacked straight into
/// `(name, sequence)` pairs — the raw FASTQ records (with their quality
/// strings) are never held alongside the packed batch.
fn run_batch(
    options: &Options,
    image: Option<&LoadedIndex>,
    reference: &PackedSeq,
    rname: &str,
) -> Result<RunSummary, CliError> {
    let mut names: Vec<String> = Vec::new();
    let mut seqs: Vec<PackedSeq> = Vec::new();
    for record in
        FastqStream::from_path(&options.reads, NPolicy::Replace(Base::A)).map_err(fastq_err)?
    {
        let record = record.map_err(fastq_err)?;
        names.push(record.name);
        seqs.push(record.seq);
    }
    let read_len = seqs.iter().map(PackedSeq::len).max().unwrap_or(101);
    let (session, index_source, index_ready_micros) =
        prepare_session(options, image, reference, read_len)?;
    // An image fixes the partition overlap, so its reads can outgrow it.
    session
        .check_read_lengths(&seqs)
        .map_err(|e| CliError::Parse(e.to_string()))?;
    let kernel = session.kernel_backend().as_str();
    let backend = session.backend().as_str();
    let stranded = session.seed_reads_both_strands(&seqs);
    let best = stranded.best_per_read();

    let recovery = stranded.stats();
    let mut summary = RunSummary {
        reads: seqs.len() as u64,
        kernel,
        backend,
        index_source,
        index_ready_micros,
        tile_retries: recovery.tile_retries,
        partitions_quarantined: recovery.partitions_quarantined,
        fallback_reads: recovery.fallback_reads,
        crosscheck_mismatches: recovery.crosscheck_mismatches,
        deadline_stalls: recovery.deadline_stalls,
        ..RunSummary::default()
    };
    let align_cfg = AlignConfig::default();
    let mut records = Vec::with_capacity(seqs.len());
    let mut seeds_dump = String::new();
    for (i, (name, seq)) in names.iter().zip(&seqs).enumerate() {
        let (reverse, smems) = &best[i];
        summary.smems += smems.len() as u64;
        if options.seeds_out.is_some() {
            dump_seeds(&mut seeds_dump, name, *reverse, smems);
        }
        let rec = align_to_record(reference, rname, name, seq, *reverse, smems, &align_cfg);
        summary.aligned += u64::from(rec.is_mapped());
        records.push(rec);
    }

    match &options.sam_out {
        Some(path) => write_sam(
            BufWriter::new(File::create(path)?),
            (rname, reference.len()),
            &records,
        )?,
        None => {
            let stdout = io::stdout();
            write_sam(stdout.lock(), (rname, reference.len()), &records)?;
        }
    }
    if let Some(path) = &options.seeds_out {
        let mut f = BufWriter::new(File::create(path)?);
        f.write_all(seeds_dump.as_bytes())?;
    }
    Ok(summary)
}

/// Opens an output file for a streaming run: truncated back to `offset`
/// when resuming mid-file, created fresh otherwise. Returns the file
/// positioned at its end.
fn open_stream_output(path: &Path, offset: Option<u64>) -> Result<File, CliError> {
    match offset {
        Some(offset) => {
            let mut f = OpenOptions::new().read(true).write(true).open(path)?;
            f.set_len(offset)?;
            f.seek(SeekFrom::Start(offset))?;
            Ok(f)
        }
        None => Ok(File::create(path)?),
    }
}

/// The supervised streaming path: bounded ingestion, per-batch align +
/// append, checkpoint/resume, cancellation.
fn run_streaming(
    options: &Options,
    image: Option<&LoadedIndex>,
    cancel: &CancelToken,
    reference: &PackedSeq,
    rname: &str,
) -> Result<RunSummary, CliError> {
    let sam_path = options
        .sam_out
        .as_ref()
        .expect("parse_args enforces --sam with --stream");

    // Peek one record to size the accelerator config (streaming assumes
    // the usual uniform short-read length), then chain it back in front.
    let mut reads =
        FastqStream::from_path(&options.reads, NPolicy::Replace(Base::A)).map_err(fastq_err)?;
    let first = match reads.next() {
        Some(Ok(record)) => Some(record),
        Some(Err(e)) => return Err(fastq_err(e)),
        None => None,
    };
    let read_len = first.as_ref().map_or(101, |r| r.seq.len());
    let source = first.into_iter().map(Ok).chain(reads);

    let (session, index_source, index_ready_micros) =
        prepare_session(options, image, reference, read_len)?;
    let kernel = session.kernel_backend().as_str();
    let backend = session.backend().as_str();
    let stream = StreamingSession::new(
        session.with_tile_deadline(options.tile_deadline_ms.map(Duration::from_millis)),
        StreamConfig {
            batch_reads: options.batch_reads,
            checkpoint: options.checkpoint.clone(),
            both_strands: true,
            ..StreamConfig::default()
        },
    )
    .map_err(CliError::Config)?
    .with_cancel_token(cancel.clone());

    let base = match (&options.checkpoint, options.resume) {
        (Some(path), true) => Some(stream.load_checkpoint(path).map_err(CliError::Checkpoint)?),
        _ => None,
    };
    // A watermark of zero (or a fresh run) means no output is durable yet:
    // recreate the files, header included. Otherwise truncate them back to
    // the checkpointed offsets and append from there.
    let offsets = base
        .as_ref()
        .filter(|cp| cp.completed_batches > 0)
        .map(|cp| cp.sink_offsets.clone())
        .unwrap_or_default();
    let expected = 1 + usize::from(options.seeds_out.is_some());
    if !offsets.is_empty() && offsets.len() != expected {
        return Err(CliError::Checkpoint(CheckpointError::Corrupt {
            what: format!(
                "checkpoint recorded {} output offset(s) but this invocation writes {expected} \
                 (--seeds must match the checkpointed run)",
                offsets.len()
            ),
        }));
    }
    let mut sam_file = open_stream_output(sam_path, offsets.first().copied())?;
    if offsets.is_empty() {
        write_sam_header(&mut sam_file, (rname, reference.len()))?;
    }
    let mut seeds_file = match &options.seeds_out {
        Some(path) => Some(open_stream_output(path, offsets.get(1).copied())?),
        None => None,
    };

    let mut aligned: u64 = 0;
    let mut smems_total: u64 = 0;
    let align_cfg = AlignConfig::default();
    // One formatter for the whole run: its record buffer's capacity
    // survives across batches, so steady-state emission is allocation-free.
    let mut formatter = SamFormatter::new();
    let sink = |batch: &StreamBatch<FastqRecord>| -> io::Result<Vec<u64>> {
        let stranded = StrandedRun {
            forward: batch.forward.clone(),
            reverse: batch
                .reverse
                .clone()
                .expect("both_strands is always set by the streaming CLI"),
        };
        let best = stranded.best_per_read();
        let mut records = Vec::with_capacity(batch.items.len());
        let mut seeds_dump = String::new();
        for (i, record) in batch.items.iter().enumerate() {
            let (reverse, smems) = &best[i];
            smems_total += smems.len() as u64;
            if seeds_file.is_some() {
                dump_seeds(&mut seeds_dump, &record.name, *reverse, smems);
            }
            let rec = align_to_record(
                reference,
                rname,
                &record.name,
                &record.seq,
                *reverse,
                smems,
                &align_cfg,
            );
            aligned += u64::from(rec.is_mapped());
            records.push(rec);
        }
        formatter.write_all(&mut sam_file, &records)?;
        sam_file.sync_data()?;
        let mut offsets = vec![sam_file.stream_position()?];
        if let Some(f) = seeds_file.as_mut() {
            f.write_all(seeds_dump.as_bytes())?;
            f.sync_data()?;
            offsets.push(f.stream_position()?);
        }
        Ok(offsets)
    };

    let report = match &base {
        Some(cp) => stream.resume(source, sink, cp),
        None => stream.run(source, sink),
    }
    .map_err(stream_err)?;

    Ok(RunSummary {
        reads: report.reads,
        aligned,
        smems: smems_total,
        tile_retries: report.stats.tile_retries,
        partitions_quarantined: report.stats.partitions_quarantined,
        fallback_reads: report.stats.fallback_reads,
        crosscheck_mismatches: report.stats.crosscheck_mismatches,
        deadline_stalls: report.stats.deadline_stalls,
        stream_batches: report.batches,
        stream_batches_skipped: report.skipped_batches,
        cancelled: report.cancelled,
        kernel,
        backend,
        index_source,
        index_ready_micros,
    })
}

/// Parsed `casa-seed index ...` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexCommand {
    /// `index build`: construct every reference-side array and write them
    /// as one zero-copy image (atomically).
    Build {
        /// FASTA reference to index.
        reference: PathBuf,
        /// Image output path.
        out: PathBuf,
        /// Accelerator partition length the embedded config uses.
        partition_len: usize,
        /// Read length the embedded config is sized for.
        read_len: usize,
    },
    /// `index inspect`: verify an image and print its header and section
    /// table.
    Inspect {
        /// Image path.
        image: PathBuf,
    },
}

/// Parses the arguments after `casa-seed index`.
///
/// # Errors
///
/// [`CliError::Usage`] on unknown verbs, unknown flags, or missing
/// values.
pub fn parse_index_args<I: IntoIterator<Item = String>>(args: I) -> Result<IndexCommand, CliError> {
    let mut it = args.into_iter();
    match it.next().as_deref() {
        Some("build") => {
            let mut reference = None;
            let mut out = None;
            let mut partition_len = 1_000_000usize;
            let mut read_len = 101usize;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .ok_or_else(|| CliError::Usage(format!("{name} requires a value")))
                };
                match flag.as_str() {
                    "--reference" => reference = Some(PathBuf::from(value("--reference")?)),
                    "--out" => out = Some(PathBuf::from(value("--out")?)),
                    "--partition" => {
                        partition_len = value("--partition")?.parse().map_err(|_| {
                            CliError::Usage("--partition must be an integer".into())
                        })?;
                    }
                    "--read-len" => {
                        read_len = value("--read-len")?
                            .parse()
                            .map_err(|_| CliError::Usage("--read-len must be an integer".into()))?;
                    }
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
            }
            Ok(IndexCommand::Build {
                reference: reference
                    .ok_or_else(|| CliError::Usage("--reference is required".into()))?,
                out: out.ok_or_else(|| CliError::Usage("--out is required".into()))?,
                partition_len,
                read_len,
            })
        }
        Some("inspect") => {
            let image = it
                .next()
                .ok_or_else(|| CliError::Usage("index inspect requires an image path".into()))?;
            if let Some(extra) = it.next() {
                return Err(CliError::Usage(format!("unexpected argument {extra:?}")));
            }
            Ok(IndexCommand::Inspect {
                image: PathBuf::from(image),
            })
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown index subcommand {other:?} (expected build or inspect)"
        ))),
        None => Err(CliError::Usage(
            "index requires a subcommand: build or inspect".into(),
        )),
    }
}

/// Runs an `index` subcommand, writing human-readable output to `out`.
///
/// # Errors
///
/// [`CliError`] on IO failures, malformed FASTA, a rejected config, or a
/// corrupt/truncated image.
pub fn run_index<W: Write>(cmd: &IndexCommand, mut out: W) -> Result<(), CliError> {
    match cmd {
        IndexCommand::Build {
            reference,
            out: image_path,
            partition_len,
            read_len,
        } => {
            let record = load_reference(reference)?;
            let config = derive_config(record.seq.len(), *partition_len, *read_len)?;
            let report = casa_core::build_index_image(&record.seq, config, image_path)
                .map_err(casa_core::Error::from)?;
            let micros = report.elapsed.as_micros() as u64;
            writeln!(
                out,
                "index built in {:.1} ms: {} ({} bytes, {} partitions, fingerprint {:016x})",
                micros as f64 / 1e3,
                image_path.display(),
                report.bytes,
                report.partitions,
                report.fingerprint
            )?;
            casa_core::log_info!(
                "index built in {:.1} ms: {} bytes, {} partitions",
                micros as f64 / 1e3,
                report.bytes,
                report.partitions
            );
            Ok(())
        }
        IndexCommand::Inspect { image } => {
            let start = std::time::Instant::now();
            let loaded = LoadedIndex::open(image).map_err(casa_core::Error::from)?;
            let micros = (start.elapsed()).as_micros() as u64;
            writeln!(
                out,
                "{}: {} bytes, fingerprint {:016x}, {} partitions, \
                 reference {} bases (verified in {:.1} ms)",
                loaded.path().display(),
                loaded.image().len_bytes(),
                loaded.fingerprint(),
                loaded.image().partitions(),
                loaded.reference().len(),
                micros as f64 / 1e3
            )?;
            writeln!(
                out,
                "config: {}",
                String::from_utf8_lossy(loaded.image().config_bytes())
            )?;
            writeln!(
                out,
                "{:<14} {:>9} {:>14} {:>14}",
                "section", "partition", "elements", "bytes"
            )?;
            for section in loaded.image().sections() {
                writeln!(
                    out,
                    "{:<14} {:>9} {:>14} {:>14}",
                    casa_index::image::SectionKind::name(section.kind),
                    section.partition,
                    section.elem_count,
                    section.byte_len()
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casa_genome::fasta::{write_fasta, FastaRecord};
    use casa_genome::fastq::{write_fastq, FastqRecord};
    use casa_genome::synth::{generate_reference, ReferenceProfile};
    use casa_genome::{ReadSimConfig, ReadSimulator};

    /// An `Options` with every optional knob at its default, for tests
    /// that only care about a few fields.
    fn base_options(reference: PathBuf, reads: PathBuf) -> Options {
        Options {
            reference,
            reads,
            sam_out: None,
            seeds_out: None,
            partition_len: 1_000_000,
            threads: None,
            fault_spec: None,
            max_retries: None,
            stream: false,
            batch_reads: 512,
            tile_deadline_ms: None,
            checkpoint: None,
            resume: false,
            kernel: None,
            backend: None,
            index_image: None,
        }
    }

    /// True unless CI pinned `CASA_BACKEND` to a software backend, in
    /// which case kernel-identity assertions do not apply (software
    /// backends never execute a CAM word kernel).
    fn env_backend_is_cam() -> bool {
        matches!(
            BackendKind::from_env(),
            Ok(None) | Ok(Some(BackendKind::Cam))
        )
    }

    #[test]
    fn parse_accepts_full_flag_set() {
        let opts = parse_args(
            [
                "--reference",
                "r.fa",
                "--reads",
                "x.fq",
                "--sam",
                "out.sam",
                "--seeds",
                "seeds.tsv",
                "--partition",
                "5000",
                "--threads",
                "3",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(opts.reference, PathBuf::from("r.fa"));
        assert_eq!(opts.partition_len, 5000);
        assert_eq!(opts.threads, Some(3));
        assert!(opts.sam_out.is_some() && opts.seeds_out.is_some());
    }

    #[test]
    fn parse_accepts_fault_flags() {
        let opts = parse_args(
            [
                "--reference",
                "r.fa",
                "--reads",
                "x.fq",
                "--fault-spec",
                "seed=7,panic=0.2,check=1.0",
                "--max-retries",
                "5",
            ]
            .map(String::from),
        )
        .unwrap();
        let plan = opts.fault_spec.expect("plan parsed");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.tile_panic_rate, 0.2);
        assert_eq!(plan.cross_check_fraction, 1.0);
        assert_eq!(opts.max_retries, Some(5));
    }

    #[test]
    fn parse_rejects_bad_fault_spec() {
        let err = parse_args(
            [
                "--reference",
                "r.fa",
                "--reads",
                "x.fq",
                "--fault-spec",
                "panic=2.0",
            ]
            .map(String::from),
        )
        .unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("tile_panic_rate")));
        let err = parse_args(
            [
                "--reference",
                "r.fa",
                "--reads",
                "x.fq",
                "--fault-spec",
                "bogus=1",
            ]
            .map(String::from),
        )
        .unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("unknown key")));
    }

    #[test]
    fn parse_accepts_streaming_flags() {
        let opts = parse_args(
            [
                "--reference",
                "r.fa",
                "--reads",
                "x.fq",
                "--sam",
                "out.sam",
                "--stream",
                "--batch-reads",
                "64",
                "--tile-deadline-ms",
                "250",
                "--checkpoint",
                "run.ckpt",
                "--resume",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(opts.stream && opts.resume);
        assert_eq!(opts.batch_reads, 64);
        assert_eq!(opts.tile_deadline_ms, Some(250));
        assert_eq!(opts.checkpoint, Some(PathBuf::from("run.ckpt")));
    }

    #[test]
    fn parse_rejects_inconsistent_streaming_flags() {
        let base = ["--reference", "r.fa", "--reads", "x.fq"].map(String::from);
        let with = |extra: &[&str]| {
            parse_args(
                base.iter()
                    .cloned()
                    .chain(extra.iter().map(|s| s.to_string())),
            )
        };
        // Streaming-only flags without --stream.
        for (extra, needle) in [
            (&["--checkpoint", "c"][..], "--checkpoint requires --stream"),
            (&["--resume"][..], "--resume requires --stream"),
            (&["--batch-reads", "8"][..], "--batch-reads requires"),
            (
                &["--tile-deadline-ms", "5"][..],
                "--tile-deadline-ms requires",
            ),
        ] {
            let err = with(extra).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains(needle)),
                "{extra:?}: got {err:?}"
            );
        }
        // --stream without --sam.
        let err = with(&["--stream"]).unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("--sam")));
        // --resume without --checkpoint.
        let err = with(&["--stream", "--sam", "o.sam", "--resume"]).unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("--checkpoint")));
        // Zero batch size.
        let err = with(&["--stream", "--sam", "o.sam", "--batch-reads", "0"]).unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("positive")));
    }

    #[test]
    fn parse_accepts_kernel_backend() {
        let base = ["--reference", "r.fa", "--reads", "x.fq"].map(String::from);
        let opts = parse_args(
            base.iter()
                .cloned()
                .chain(["--kernel".to_string(), "u64x4".to_string()]),
        )
        .unwrap();
        assert_eq!(opts.kernel, Some(KernelBackend::U64x4));
        // Absent flag defers to the environment / CPU detection.
        let opts = parse_args(base.clone()).unwrap();
        assert_eq!(opts.kernel, None);
    }

    #[test]
    fn parse_rejects_unknown_kernel_backend_typed() {
        let err = parse_args(
            ["--reference", "r.fa", "--reads", "x.fq", "--kernel", "sse9"].map(String::from),
        )
        .unwrap_err();
        match &err {
            CliError::Config(casa_core::Error::Config(
                casa_core::ConfigError::UnknownKernelBackend { value, .. },
            )) => assert_eq!(value, "sse9"),
            other => panic!("expected typed kernel error, got {other:?}"),
        }
        assert!(err.to_string().contains("sse9"), "got {err}");
    }

    #[test]
    fn parse_accepts_seeding_backend() {
        let base = ["--reference", "r.fa", "--reads", "x.fq"].map(String::from);
        for kind in BackendKind::ALL {
            let opts = parse_args(
                base.iter()
                    .cloned()
                    .chain(["--backend".to_string(), kind.as_str().to_string()]),
            )
            .unwrap();
            assert_eq!(opts.backend, Some(kind));
        }
        // Absent flag defers to the environment / CAM default.
        let opts = parse_args(base.clone()).unwrap();
        assert_eq!(opts.backend, None);
    }

    #[test]
    fn parse_rejects_unknown_seeding_backend_typed() {
        let err = parse_args(
            ["--reference", "r.fa", "--reads", "x.fq", "--backend", "gpu"].map(String::from),
        )
        .unwrap_err();
        match &err {
            CliError::Config(casa_core::Error::Config(
                casa_core::ConfigError::UnknownSeedingBackend { value, .. },
            )) => assert_eq!(value, "gpu"),
            other => panic!("expected typed backend error, got {other:?}"),
        }
        assert!(err.to_string().contains("cam, fm, ert"), "got {err}");
    }

    #[test]
    fn parse_accepts_index_image_and_rejects_partition_conflict() {
        let base = ["--reference", "r.fa", "--reads", "x.fq"].map(String::from);
        let opts = parse_args(
            base.iter()
                .cloned()
                .chain(["--index-image".to_string(), "ref.casaimg".to_string()]),
        )
        .unwrap();
        assert_eq!(opts.index_image, Some(PathBuf::from("ref.casaimg")));
        let err = parse_args(
            base.iter()
                .cloned()
                .chain(["--index-image", "ref.casaimg", "--partition", "5000"].map(String::from)),
        )
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("--partition conflicts")),
            "got {err:?}"
        );
    }

    #[test]
    fn parse_index_subcommands() {
        let cmd = parse_index_args(
            [
                "build",
                "--reference",
                "r.fa",
                "--out",
                "r.casaimg",
                "--partition",
                "4096",
                "--read-len",
                "80",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(
            cmd,
            IndexCommand::Build {
                reference: PathBuf::from("r.fa"),
                out: PathBuf::from("r.casaimg"),
                partition_len: 4096,
                read_len: 80,
            }
        );
        let cmd = parse_index_args(["inspect", "r.casaimg"].map(String::from)).unwrap();
        assert_eq!(
            cmd,
            IndexCommand::Inspect {
                image: PathBuf::from("r.casaimg")
            }
        );
        for bad in [
            &["frobnicate"][..],
            &[][..],
            &["build", "--out", "x"][..],
            &["build", "--reference", "r.fa"][..],
            &["inspect"][..],
            &["inspect", "a", "b"][..],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(parse_index_args(args), Err(CliError::Usage(_))),
                "{bad:?} should be a usage error"
            );
        }
    }

    #[test]
    fn index_image_run_matches_built_run_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("casa_cli_image_{}", std::process::id()));
        let (ref_path, fq_path, _) = write_inputs(&dir, 20);
        let image_path = dir.join("ref.casaimg");

        // Build the image through the subcommand, partition length
        // matching the built run below.
        let mut build_out = Vec::new();
        run_index(
            &IndexCommand::Build {
                reference: ref_path.clone(),
                out: image_path.clone(),
                partition_len: 8_000,
                read_len: 101,
            },
            &mut build_out,
        )
        .unwrap();
        let build_line = String::from_utf8(build_out).unwrap();
        assert!(build_line.contains("index built in"), "got {build_line:?}");
        assert!(build_line.contains("fingerprint"), "got {build_line:?}");

        let mut inspect_out = Vec::new();
        run_index(
            &IndexCommand::Inspect {
                image: image_path.clone(),
            },
            &mut inspect_out,
        )
        .unwrap();
        let inspect = String::from_utf8(inspect_out).unwrap();
        for needle in [
            "fingerprint",
            "cam-planes",
            "filter-mini",
            "filter-data",
            "suffix-array",
            "ref-text",
        ] {
            assert!(
                inspect.contains(needle),
                "inspect output missing {needle}: {inspect}"
            );
        }
        // Version 2 fuses the filter's tag array into its data rows.
        assert!(!inspect.contains("filter-tag"), "{inspect}");

        let built = Options {
            sam_out: Some(dir.join("built.sam")),
            seeds_out: Some(dir.join("built.tsv")),
            partition_len: 8_000,
            threads: Some(2),
            ..base_options(ref_path.clone(), fq_path.clone())
        };
        let built_summary = run(&built).unwrap();
        assert_eq!(built_summary.index_source, "built");

        let mapped = Options {
            sam_out: Some(dir.join("mapped.sam")),
            seeds_out: Some(dir.join("mapped.tsv")),
            index_image: Some(image_path.clone()),
            ..built.clone()
        };
        let mapped_summary = run(&mapped).unwrap();
        assert_eq!(mapped_summary.index_source, "mapped");
        assert!(mapped_summary.index_ready_micros > 0);
        assert_eq!(mapped_summary.reads, built_summary.reads);
        assert_eq!(mapped_summary.smems, built_summary.smems);
        assert_eq!(
            std::fs::read_to_string(dir.join("mapped.sam")).unwrap(),
            std::fs::read_to_string(dir.join("built.sam")).unwrap(),
            "mapped index must not change the SAM"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("mapped.tsv")).unwrap(),
            std::fs::read_to_string(dir.join("built.tsv")).unwrap(),
            "mapped index must not change the seed dump"
        );

        // A foreign reference is rejected with the typed image error.
        let other_ref = dir.join("other.fa");
        write_fasta(
            BufWriter::new(File::create(&other_ref).unwrap()),
            &[FastaRecord {
                name: "chrOther".into(),
                seq: generate_reference(&ReferenceProfile::human_like(), 18_000, 99),
            }],
        )
        .unwrap();
        let mismatched = Options {
            reference: other_ref,
            ..mapped
        };
        let err = run(&mismatched).unwrap_err();
        assert!(
            matches!(&err, CliError::Config(casa_core::Error::Image { what })
                if what.contains("different reference")),
            "got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_rejects_bad_threads() {
        assert!(matches!(
            parse_args(["--threads".to_string(), "lots".to_string()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_rejects_unknown_and_missing() {
        assert!(matches!(
            parse_args(["--bogus".to_string()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--reference".to_string(), "r.fa".to_string()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["--reference".to_string()]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn end_to_end_on_temp_files() {
        let dir = std::env::temp_dir().join(format!("casa_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let reference = generate_reference(&ReferenceProfile::human_like(), 20_000, 7);
        let ref_path = dir.join("ref.fa");
        write_fasta(
            BufWriter::new(File::create(&ref_path).unwrap()),
            &[FastaRecord {
                name: "chrTest synthetic".into(),
                seq: reference.clone(),
            }],
        )
        .unwrap();

        let reads = ReadSimulator::new(ReadSimConfig::default(), 3).simulate(&reference, 30);
        let fq_path = dir.join("reads.fq");
        let records: Vec<FastqRecord> = reads
            .iter()
            .map(|r| FastqRecord {
                name: r.name.clone(),
                qual: vec![b'I'; r.seq.len()],
                seq: r.seq.clone(),
            })
            .collect();
        write_fastq(BufWriter::new(File::create(&fq_path).unwrap()), &records).unwrap();

        let sam_path = dir.join("out.sam");
        let seeds_path = dir.join("seeds.tsv");
        let options = Options {
            sam_out: Some(sam_path.clone()),
            seeds_out: Some(seeds_path.clone()),
            partition_len: 8_000,
            threads: Some(2),
            kernel: Some(KernelBackend::U64x4),
            ..base_options(ref_path, fq_path)
        };
        let summary = run(&options).unwrap();
        assert_eq!(summary.reads, 30);
        assert!(summary.aligned >= 28, "aligned {}", summary.aligned);
        assert!(summary.smems >= 30);
        if env_backend_is_cam() {
            assert_eq!(summary.kernel, "u64x4");
            assert_eq!(summary.backend, "cam");
        }

        let sam = std::fs::read_to_string(&sam_path).unwrap();
        assert!(sam.starts_with("@HD"));
        assert!(sam.contains("SN:chrTest"));
        assert!(sam.lines().count() >= 33); // header + one line per read
        let seeds = std::fs::read_to_string(&seeds_path).unwrap();
        assert!(seeds.lines().count() as u64 == summary.smems);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_injected_run_matches_clean_sam() {
        let dir = std::env::temp_dir().join(format!("casa_cli_fault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let reference = generate_reference(&ReferenceProfile::human_like(), 12_000, 19);
        let ref_path = dir.join("ref.fa");
        write_fasta(
            BufWriter::new(File::create(&ref_path).unwrap()),
            &[FastaRecord {
                name: "chrFault".into(),
                seq: reference.clone(),
            }],
        )
        .unwrap();
        let reads = ReadSimulator::new(ReadSimConfig::default(), 13).simulate(&reference, 20);
        let fq_path = dir.join("reads.fq");
        let records: Vec<FastqRecord> = reads
            .iter()
            .map(|r| FastqRecord {
                name: r.name.clone(),
                qual: vec![b'I'; r.seq.len()],
                seq: r.seq.clone(),
            })
            .collect();
        write_fastq(BufWriter::new(File::create(&fq_path).unwrap()), &records).unwrap();

        let clean = Options {
            sam_out: Some(dir.join("clean.sam")),
            partition_len: 4_000,
            threads: Some(2),
            ..base_options(ref_path.clone(), fq_path.clone())
        };
        let clean_summary = run(&clean).unwrap();

        let faulty = Options {
            sam_out: Some(dir.join("faulty.sam")),
            fault_spec: Some(FaultPlan::parse("seed=42,panic=0.3,stall=0.1").unwrap()),
            max_retries: Some(8),
            ..clean.clone()
        };
        let faulty_summary = run(&faulty).unwrap();
        assert!(faulty_summary.tile_retries > 0, "panics should have fired");
        assert_eq!(faulty_summary.reads, clean_summary.reads);
        assert_eq!(faulty_summary.smems, clean_summary.smems);
        let clean_sam = std::fs::read_to_string(dir.join("clean.sam")).unwrap();
        let faulty_sam = std::fs::read_to_string(dir.join("faulty.sam")).unwrap();
        assert_eq!(clean_sam, faulty_sam, "recovery must preserve output");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sam_is_byte_identical_across_seeding_backends() {
        let dir = std::env::temp_dir().join(format!("casa_cli_backend_{}", std::process::id()));
        let (ref_path, fq_path, _) = write_inputs(&dir, 24);
        let mut sams: Vec<(BackendKind, String, String)> = Vec::new();
        for kind in BackendKind::ALL {
            let name = kind.as_str();
            let options = Options {
                sam_out: Some(dir.join(format!("{name}.sam"))),
                seeds_out: Some(dir.join(format!("{name}.tsv"))),
                partition_len: 8_000,
                threads: Some(2),
                backend: Some(kind),
                ..base_options(ref_path.clone(), fq_path.clone())
            };
            let summary = run(&options).unwrap();
            assert_eq!(summary.backend, name);
            assert_eq!(summary.reads, 24);
            let sam = std::fs::read_to_string(dir.join(format!("{name}.sam"))).unwrap();
            let tsv = std::fs::read_to_string(dir.join(format!("{name}.tsv"))).unwrap();
            sams.push((kind, sam, tsv));
        }
        let (_, cam_sam, cam_tsv) = &sams[0];
        for (kind, sam, tsv) in &sams[1..] {
            assert_eq!(sam, cam_sam, "{kind} SAM diverged from cam");
            assert_eq!(tsv, cam_tsv, "{kind} seed dump diverged from cam");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_fastq_is_parse_error_with_record_index() {
        let dir = std::env::temp_dir().join(format!("casa_cli_trunc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let reference = generate_reference(&ReferenceProfile::human_like(), 5_000, 3);
        let ref_path = dir.join("ref.fa");
        write_fasta(
            BufWriter::new(File::create(&ref_path).unwrap()),
            &[FastaRecord {
                name: "chrT".into(),
                seq: reference,
            }],
        )
        .unwrap();
        let fq_path = dir.join("truncated.fq");
        // One complete record, then a record cut off after its sequence.
        std::fs::write(&fq_path, "@r0\nACGT\n+\nIIII\n@r1\nACGT\n").unwrap();
        let options = Options {
            sam_out: Some(dir.join("out.sam")),
            partition_len: 2_000,
            threads: Some(1),
            ..base_options(ref_path, fq_path)
        };
        let err = run(&options).unwrap_err();
        match &err {
            CliError::Parse(msg) => {
                assert!(msg.contains("record 1"), "got {msg:?}");
                assert!(msg.contains("truncated"), "got {msg:?}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_reference_file_is_io_error() {
        let options = Options {
            partition_len: 1000,
            ..base_options(
                PathBuf::from("/nonexistent/ref.fa"),
                PathBuf::from("/nonexistent/reads.fq"),
            )
        };
        assert!(matches!(run(&options), Err(CliError::Io(_))));
    }

    #[test]
    fn partition_smaller_than_reads_is_config_error() {
        // Historically this panicked inside PartitionScheme::new; the
        // Result-based API turns it into a typed error and a clean exit.
        let dir = std::env::temp_dir().join(format!("casa_cli_cfg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let reference = generate_reference(&ReferenceProfile::human_like(), 5_000, 11);
        let ref_path = dir.join("ref.fa");
        write_fasta(
            BufWriter::new(File::create(&ref_path).unwrap()),
            &[FastaRecord {
                name: "chrTiny".into(),
                seq: reference.clone(),
            }],
        )
        .unwrap();
        let reads = ReadSimulator::new(ReadSimConfig::default(), 5).simulate(&reference, 3);
        let fq_path = dir.join("reads.fq");
        let records: Vec<FastqRecord> = reads
            .iter()
            .map(|r| FastqRecord {
                name: r.name.clone(),
                qual: vec![b'I'; r.seq.len()],
                seq: r.seq.clone(),
            })
            .collect();
        write_fastq(BufWriter::new(File::create(&fq_path).unwrap()), &records).unwrap();

        let options = Options {
            sam_out: Some(dir.join("out.sam")),
            partition_len: 50, // smaller than the 101-base reads
            ..base_options(ref_path.clone(), fq_path.clone())
        };
        let err = run(&options).unwrap_err();
        assert!(matches!(err, CliError::Config(_)), "got {err:?}");
        assert!(err.to_string().contains("config error"));

        let zero_threads = Options {
            threads: Some(0),
            partition_len: 2_000,
            ..options
        };
        let err = run(&zero_threads).unwrap_err();
        assert!(
            matches!(err, CliError::Config(casa_core::Error::ZeroWorkers)),
            "got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes a synthetic reference and `n` simulated reads under `dir`,
    /// returning their paths.
    fn write_inputs(dir: &Path, n: usize) -> (PathBuf, PathBuf, Vec<FastqRecord>) {
        std::fs::create_dir_all(dir).unwrap();
        let reference = generate_reference(&ReferenceProfile::human_like(), 20_000, 7);
        let ref_path = dir.join("ref.fa");
        write_fasta(
            BufWriter::new(File::create(&ref_path).unwrap()),
            &[FastaRecord {
                name: "chrStream".into(),
                seq: reference,
            }],
        )
        .unwrap();
        let reference = generate_reference(&ReferenceProfile::human_like(), 20_000, 7);
        let reads = ReadSimulator::new(ReadSimConfig::default(), 3).simulate(&reference, n);
        let records: Vec<FastqRecord> = reads
            .iter()
            .map(|r| FastqRecord {
                name: r.name.clone(),
                qual: vec![b'I'; r.seq.len()],
                seq: r.seq.clone(),
            })
            .collect();
        let fq_path = dir.join("reads.fq");
        write_fastq(BufWriter::new(File::create(&fq_path).unwrap()), &records).unwrap();
        (ref_path, fq_path, records)
    }

    #[test]
    fn streamed_run_matches_batch_run() {
        let dir = std::env::temp_dir().join(format!("casa_cli_stream_{}", std::process::id()));
        let (ref_path, fq_path, _) = write_inputs(&dir, 30);
        let batch = Options {
            sam_out: Some(dir.join("batch.sam")),
            seeds_out: Some(dir.join("batch.tsv")),
            partition_len: 8_000,
            threads: Some(2),
            ..base_options(ref_path.clone(), fq_path.clone())
        };
        let batch_summary = run(&batch).unwrap();
        let streamed = Options {
            sam_out: Some(dir.join("stream.sam")),
            seeds_out: Some(dir.join("stream.tsv")),
            stream: true,
            batch_reads: 8,
            checkpoint: Some(dir.join("run.ckpt")),
            ..batch.clone()
        };
        let stream_summary = run(&streamed).unwrap();
        assert_eq!(stream_summary.reads, batch_summary.reads);
        assert_eq!(stream_summary.aligned, batch_summary.aligned);
        assert_eq!(stream_summary.smems, batch_summary.smems);
        assert_eq!(stream_summary.stream_batches, 4); // ceil(30 / 8)
        assert!(!stream_summary.cancelled);
        let batch_sam = std::fs::read_to_string(dir.join("batch.sam")).unwrap();
        let stream_sam = std::fs::read_to_string(dir.join("stream.sam")).unwrap();
        assert_eq!(stream_sam, batch_sam, "streaming must not change output");
        assert_eq!(
            std::fs::read_to_string(dir.join("stream.tsv")).unwrap(),
            std::fs::read_to_string(dir.join("batch.tsv")).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One reference written as 60-, 70- and 80-column lines, on a single
    /// line, in lowercase and with CRLF line ends: every layout must give
    /// the same SAM, seed dump and index image.
    #[test]
    fn reference_layouts_give_identical_sam_and_image() {
        let dir = std::env::temp_dir().join(format!("casa_cli_layout_{}", std::process::id()));
        let (_, fq_path, _) = write_inputs(&dir, 20);
        let text = generate_reference(&ReferenceProfile::human_like(), 20_000, 7).to_string();
        let lines = |width: usize| -> Vec<&str> {
            (0..text.len())
                .step_by(width)
                .map(|i| &text[i..(i + width).min(text.len())])
                .collect()
        };
        let layouts = [
            ("w60", lines(60).join("\n") + "\n"),
            ("w70", lines(70).join("\n") + "\n"),
            ("w80", lines(80).join("\n") + "\n"),
            ("single", text.clone() + "\n"),
            ("lower", (lines(70).join("\n") + "\n").to_ascii_lowercase()),
            ("crlf", lines(70).join("\r\n") + "\r\n"),
        ];
        let mut outputs = Vec::new();
        for (tag, body) in &layouts {
            let header = if *tag == "crlf" { "\r\n" } else { "\n" };
            let ref_path = dir.join(format!("{tag}.fa"));
            std::fs::write(&ref_path, format!(">chrStream{header}{body}")).unwrap();
            let options = Options {
                sam_out: Some(dir.join(format!("{tag}.sam"))),
                seeds_out: Some(dir.join(format!("{tag}.tsv"))),
                partition_len: 8_000,
                threads: Some(2),
                ..base_options(ref_path.clone(), fq_path.clone())
            };
            run(&options).unwrap();
            let mut built = Vec::new();
            run_index(
                &IndexCommand::Build {
                    reference: ref_path,
                    out: dir.join(format!("{tag}.casaimg")),
                    partition_len: 8_000,
                    read_len: 101,
                },
                &mut built,
            )
            .unwrap();
            let built = String::from_utf8(built).unwrap();
            let fingerprint = built
                .split("fingerprint ")
                .nth(1)
                .expect("build line names the fingerprint")
                .trim_end_matches([')', '\n'])
                .to_string();
            let read = |ext: &str| std::fs::read(dir.join(format!("{tag}.{ext}"))).unwrap();
            outputs.push((*tag, read("sam"), read("tsv"), fingerprint));
        }
        let (_, sam, tsv, fingerprint) = &outputs[0];
        assert!(!sam.is_empty() && !tsv.is_empty());
        for (tag, other_sam, other_tsv, other_fingerprint) in &outputs[1..] {
            assert!(
                other_sam == sam,
                "{tag}: SAM differs from the 60-column layout"
            );
            assert!(other_tsv == tsv, "{tag}: seed dump differs");
            assert_eq!(other_fingerprint, fingerprint, "{tag}: image fingerprint");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_resume_after_partial_input_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("casa_cli_resume_{}", std::process::id()));
        let (ref_path, fq_path, records) = write_inputs(&dir, 30);
        // A prefix of exactly two 8-read batches, so its batch boundaries
        // line up with the full input's.
        let prefix_path = dir.join("prefix.fq");
        write_fastq(
            BufWriter::new(File::create(&prefix_path).unwrap()),
            &records[..16],
        )
        .unwrap();

        let full = Options {
            sam_out: Some(dir.join("full.sam")),
            partition_len: 8_000,
            threads: Some(2),
            stream: true,
            batch_reads: 8,
            ..base_options(ref_path.clone(), fq_path.clone())
        };
        run(&full).unwrap();

        // "Interrupted" run: the input ends after two batches, leaving a
        // checkpoint with watermark 2 and the partial SAM on disk.
        let interrupted = Options {
            reads: prefix_path,
            sam_out: Some(dir.join("resumed.sam")),
            checkpoint: Some(dir.join("resume.ckpt")),
            ..full.clone()
        };
        let first = run(&interrupted).unwrap();
        assert_eq!(first.stream_batches, 2);

        // Resume against the full input: the two completed batches are
        // skipped, the rest are seeded and appended.
        let resumed = Options {
            reads: fq_path,
            resume: true,
            ..interrupted
        };
        let second = run(&resumed).unwrap();
        assert_eq!(second.stream_batches_skipped, 2);
        assert_eq!(second.stream_batches, 2); // ceil(30/8) - 2
        assert_eq!(second.reads, 14);
        assert_eq!(
            std::fs::read_to_string(dir.join("resumed.sam")).unwrap(),
            std::fs::read_to_string(dir.join("full.sam")).unwrap(),
            "resumed output must be byte-identical to an uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn precancelled_streaming_run_checkpoints_and_resumes_from_zero() {
        let dir = std::env::temp_dir().join(format!("casa_cli_cancel_{}", std::process::id()));
        let (ref_path, fq_path, _) = write_inputs(&dir, 20);
        let options = Options {
            sam_out: Some(dir.join("out.sam")),
            partition_len: 8_000,
            threads: Some(2),
            stream: true,
            batch_reads: 8,
            checkpoint: Some(dir.join("cancel.ckpt")),
            ..base_options(ref_path, fq_path)
        };
        let token = CancelToken::new();
        token.cancel();
        let summary = run_with_cancel(&options, &token).unwrap();
        assert!(summary.cancelled);
        assert_eq!(summary.stream_batches, 0);
        // The watermark-zero checkpoint resumes into a complete run whose
        // SAM matches a fresh one (header rewritten, nothing duplicated).
        let resumed = Options {
            resume: true,
            ..options.clone()
        };
        let summary = run(&resumed).unwrap();
        assert!(!summary.cancelled);
        assert_eq!(summary.reads, 20);
        let fresh = Options {
            sam_out: Some(dir.join("fresh.sam")),
            checkpoint: None,
            resume: false,
            ..options
        };
        run(&fresh).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("out.sam")).unwrap(),
            std::fs::read_to_string(dir.join("fresh.sam")).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_corrupt_or_foreign_checkpoint_fails_typed() {
        let dir = std::env::temp_dir().join(format!("casa_cli_badckpt_{}", std::process::id()));
        let (ref_path, fq_path, _) = write_inputs(&dir, 16);
        let ckpt = dir.join("bad.ckpt");
        let options = Options {
            sam_out: Some(dir.join("out.sam")),
            partition_len: 8_000,
            stream: true,
            batch_reads: 8,
            checkpoint: Some(ckpt.clone()),
            resume: true,
            ..base_options(ref_path, fq_path)
        };
        // Missing checkpoint: typed error, not a silent fresh start.
        let err = run(&options).unwrap_err();
        assert!(matches!(err, CliError::Checkpoint(CheckpointError::Io(_))));
        // Corrupt checkpoint.
        std::fs::write(&ckpt, "{ not a checkpoint").unwrap();
        let err = run(&options).unwrap_err();
        assert!(matches!(
            err,
            CliError::Checkpoint(CheckpointError::Corrupt { .. })
        ));
        // Checkpoint from a different batch size: fingerprint mismatch.
        let fresh = Options {
            resume: false,
            batch_reads: 4,
            ..options.clone()
        };
        run(&fresh).unwrap();
        let err = run(&options).unwrap_err();
        assert!(matches!(
            err,
            CliError::Checkpoint(CheckpointError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
