//! Seeded input generation and the untimed golden results every timed
//! output is checked against.
//!
//! One input set serves all workloads: a human-like synthetic reference,
//! 101 bp reads simulated from it with the default error model, reads
//! simulated from an unrelated mouse-like genome, and an index image of
//! the reference. The same seed always gives byte-identical files.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use casa::core::{BackendKind, CasaConfig, FaultPlan, SeedingSession};
use casa::genome::fasta::{write_fasta, FastaRecord};
use casa::genome::fastq::{write_fastq, FastqRecord};
use casa::genome::synth::{generate_reference, ReferenceProfile};
use casa::genome::{PackedSeq, ReadSimConfig, ReadSimulator};
use casa::index::Smem;

/// Reads per `POST /seed` request body.
pub const READS_PER_REQUEST: usize = 16;
/// Reads in the batch image-load jobs' FASTQ (the workload's first
/// reads): enough to check the job's output, few enough that the job is
/// mostly the image load.
pub const RELOAD_READS: usize = 64;

/// Input sizes. `FULL` is the benchmark; `SMOKE` is the same pipeline on
/// inputs small enough for a test.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub name: &'static str,
    /// Reference length in bases.
    pub ref_len: usize,
    /// `--partition` passed to the CLI; `None` keeps its 1 Mb default.
    pub partition: Option<usize>,
    /// Length of the unrelated genome the unmapped reads come from.
    pub foreign_len: usize,
    /// Reads in each batch workload's FASTQ.
    pub batch_reads: usize,
    /// Distinct `/seed` request bodies in the serve pool.
    pub pool_requests: usize,
}

/// The benchmark scale: 8 Mb at the CLI's default 1 Mb partition (the
/// paper's design point, 8 partitions); the index image is about 2x a
/// 105 MiB L3.
pub const FULL: Scale = Scale {
    name: "full",
    ref_len: 8_000_000,
    partition: None,
    foreign_len: 2_000_000,
    batch_reads: 6_000,
    pool_requests: 128,
};

/// Smoke scale: four 50 kb partitions, a few hundred reads.
pub const SMOKE: Scale = Scale {
    name: "smoke",
    ref_len: 200_000,
    partition: Some(50_000),
    foreign_len: 100_000,
    batch_reads: 300,
    pool_requests: 8,
};

/// The CLI's default partition length.
const CLI_DEFAULT_PARTITION: usize = 1_000_000;
/// Read length of every simulated read.
pub const READ_LEN: usize = 101;

impl Scale {
    /// The accelerator config the CLI derives for this reference and read
    /// length (`casa-seed`'s `build_config`): the image and the in-process
    /// layers use exactly this.
    pub fn config(&self) -> CasaConfig {
        let part = self
            .partition
            .unwrap_or(CLI_DEFAULT_PARTITION)
            .min(self.ref_len.saturating_sub(1).max(1));
        CasaConfig::builder()
            .partition_len(part)
            .read_len(READ_LEN)
            .build()
            .expect("benchmark config is valid")
    }
}

/// Per-purpose RNG seeds derived from the workload seed.
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(purpose)
}

/// Which reads a workload seeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOrigin {
    /// Simulated from the reference (resequencing).
    Reference,
    /// Simulated from an unrelated genome (contaminant / off-target).
    Foreign,
}

/// A generated input set on disk plus its in-memory copies.
pub struct Inputs {
    pub scale: Scale,
    pub seed: u64,
    pub reference: PackedSeq,
    pub ref_path: PathBuf,
    pub reads: Vec<FastqRecord>,
    pub reads_path: PathBuf,
    /// The first [`RELOAD_READS`] reads, for the batch image-load jobs.
    pub reload_path: PathBuf,
    pub gen_seconds: f64,
}

impl Inputs {
    /// Generates the reference and one read set into `dir`.
    pub fn generate(dir: &Path, scale: Scale, seed: u64, origin: ReadOrigin) -> io::Result<Inputs> {
        let start = Instant::now();
        let reference = generate_reference(
            &ReferenceProfile::human_like(),
            scale.ref_len,
            sub_seed(seed, 1),
        );
        let ref_path = dir.join("ref.fa");
        write_fasta(
            BufWriter::new(File::create(&ref_path)?),
            &[FastaRecord {
                name: "chr_synth human-like".into(),
                seq: reference.clone(),
            }],
        )?;
        let (source, prefix, sim_seed) = match origin {
            ReadOrigin::Reference => (None, "h", sub_seed(seed, 2)),
            ReadOrigin::Foreign => (
                Some(generate_reference(
                    &ReferenceProfile::mouse_like(),
                    scale.foreign_len,
                    sub_seed(seed, 3),
                )),
                "m",
                sub_seed(seed, 4),
            ),
        };
        let reads: Vec<FastqRecord> = ReadSimulator::new(ReadSimConfig::default(), sim_seed)
            .simulate(source.as_ref().unwrap_or(&reference), scale.batch_reads)
            .into_iter()
            .enumerate()
            .map(|(i, r)| FastqRecord {
                name: format!("{prefix}{i}_{}", r.origin),
                qual: vec![b'I'; r.seq.len()],
                seq: r.seq,
            })
            .collect();
        let reads_path = dir.join(match origin {
            ReadOrigin::Reference => "human.fq",
            ReadOrigin::Foreign => "unmapped.fq",
        });
        let mut w = BufWriter::new(File::create(&reads_path)?);
        write_fastq(&mut w, &reads)?;
        w.flush()?;
        let reload_path = dir.join("reload.fq");
        let mut w = BufWriter::new(File::create(&reload_path)?);
        write_fastq(&mut w, &reads[..RELOAD_READS.min(reads.len())])?;
        w.flush()?;
        Ok(Inputs {
            scale,
            seed,
            reference,
            ref_path,
            reads,
            reads_path,
            reload_path,
            gen_seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// The read sequences.
    pub fn seqs(&self) -> Vec<PackedSeq> {
        self.reads.iter().map(|r| r.seq.clone()).collect()
    }

    /// The serve pool: `pool_requests` bodies of [`READS_PER_REQUEST`]
    /// reads each, drawn (seeded) from this input's reads.
    pub fn request_pool(&self) -> Vec<Vec<PackedSeq>> {
        let mut state = sub_seed(self.seed, 5) | 1;
        let mut next = || {
            // xorshift64*: enough to pick reads reproducibly.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        (0..self.scale.pool_requests)
            .map(|_| {
                (0..READS_PER_REQUEST)
                    .map(|_| {
                        self.reads[(next() % self.reads.len() as u64) as usize]
                            .seq
                            .clone()
                    })
                    .collect()
            })
            .collect()
    }

    /// Writes the index image of the reference (the `casa-seed index
    /// build` artifact) and returns its path and size in bytes.
    pub fn build_image(&self, dir: &Path) -> Result<(PathBuf, u64), String> {
        let path = dir.join("ref.img");
        let report = casa::core::build_index_image(&self.reference, self.scale.config(), &path)
            .map_err(|e| format!("index image build failed: {e}"))?;
        // Finish the write-back now: otherwise it runs during the timed
        // cold starts and competes with their page faults.
        File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("index image sync failed: {e}"))?;
        Ok((path, report.bytes))
    }
}

/// What a batch run must produce: counts from the run summary and a
/// digest of the SAM records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchGolden {
    pub reads: u64,
    pub aligned: u64,
    pub smems: u64,
    pub sam_digest: u64,
}

/// What the batch workloads' jobs must produce.
#[derive(Clone, Copy, Debug)]
pub struct Golden {
    /// An index-building job over the workload's whole FASTQ.
    pub job: BatchGolden,
    /// Reads in an image-load job's FASTQ.
    pub reload_reads: u64,
    /// Digest of the golden SAM records of those reads: the CLI writes
    /// one record per read, in read order, so they are the first ones.
    pub reload_sam_digest: u64,
}

/// Runs the CLI pipeline in-process on the FM-index backend (the golden
/// model) over the same files and flags the timed runs use.
pub fn batch_golden(inputs: &Inputs, dir: &Path) -> Result<Golden, String> {
    let sam = dir.join("golden.sam");
    let mut args = vec![
        "--reference".to_string(),
        path_arg(&inputs.ref_path),
        "--reads".into(),
        path_arg(&inputs.reads_path),
        "--sam".into(),
        path_arg(&sam),
        "--backend".into(),
        "fm".into(),
    ];
    if let Some(p) = inputs.scale.partition {
        args.extend(["--partition".into(), p.to_string()]);
    }
    let options = casa::cli::parse_args(args).map_err(|e| format!("golden args: {e}"))?;
    let summary = casa::cli::run(&options).map_err(|e| format!("golden run: {e}"))?;
    let digest = |records| sam_body_digest(&sam, records).map_err(|e| format!("golden SAM: {e}"));
    let reload_reads = RELOAD_READS.min(inputs.reads.len());
    let golden = Golden {
        job: BatchGolden {
            reads: summary.reads,
            aligned: summary.aligned,
            smems: summary.smems,
            sam_digest: digest(usize::MAX)?,
        },
        reload_reads: reload_reads as u64,
        reload_sam_digest: digest(reload_reads)?,
    };
    let _ = std::fs::remove_file(&sam);
    Ok(golden)
}

/// FNV-1a over the first `max_records` SAM record lines (header lines
/// skipped).
pub fn sam_body_digest(path: &Path, max_records: usize) -> io::Result<u64> {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut reader = BufReader::new(File::open(path)?);
    let mut line = Vec::new();
    let mut records = 0;
    while records < max_records {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        if line.first() == Some(&b'@') {
            continue;
        }
        records += 1;
        for &b in &line {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(hash)
}

/// The golden session: FM-index backend over the same reference and
/// config the seeded programs use.
pub fn golden_session(inputs: &Inputs, workers: usize) -> Result<SeedingSession, String> {
    SeedingSession::with_backend(
        &inputs.reference,
        inputs.scale.config(),
        workers,
        FaultPlan::default(),
        BackendKind::Fm,
    )
    .map_err(|e| format!("golden session: {e}"))
}

/// `casa-serve`'s `/seed` response body for one request's SMEMs:
/// `read_index\tstart\tend\thits` per SMEM.
pub fn render_tsv(smems: &[Vec<Smem>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (ri, read_smems) in smems.iter().enumerate() {
        for s in read_smems {
            let hits: Vec<String> = s.hits.iter().map(u32::to_string).collect();
            let _ = writeln!(
                out,
                "{ri}\t{}\t{}\t{}",
                s.read_start,
                s.read_end,
                hits.join(",")
            );
        }
    }
    out
}

/// A path as a CLI argument.
pub fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}
