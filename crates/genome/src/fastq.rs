//! Minimal FASTQ reading and writing.
//!
//! Used by the experiment harness to persist simulated read sets in the same
//! format as the Illumina data the paper consumes (ERR194147, 101 bp
//! single-ended reads). [`FastqStream`] reads records one at a time in
//! constant memory — the ingestion path of the streaming runtime
//! (`casa_core::stream`) — while [`read_fastq`] collects a whole stream
//! for small inputs.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use crate::fasta::NPolicy;
use crate::lines::{utf8, ByteLines, FILE_BUFFER};
use crate::packed::is_base_byte;
use crate::PackedSeq;

/// A FASTQ record: name, sequence and per-base Phred+33 qualities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FastqRecord {
    /// Read name (text after `@`).
    pub name: String,
    /// The read sequence.
    pub seq: PackedSeq,
    /// Phred+33 quality string, one byte per base.
    pub qual: Vec<u8>,
}

/// Error produced while reading FASTQ data.
#[derive(Debug)]
pub enum FastqError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Record is structurally malformed (missing `@`/`+` lines, truncated
    /// record, or quality length mismatch).
    Malformed {
        /// 0-based index of the offending record in the stream.
        record: usize,
        /// 1-based line number of the problem.
        line: usize,
        /// Human-readable description.
        what: &'static str,
    },
    /// A sequence byte outside `ACGTacgt` with [`NPolicy::Reject`].
    InvalidBase {
        /// 0-based index of the offending record in the stream.
        record: usize,
        /// 1-based line number.
        line: usize,
        /// Offending byte.
        byte: u8,
    },
}

impl fmt::Display for FastqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastqError::Io(e) => write!(f, "io error reading fastq: {e}"),
            FastqError::Malformed { record, line, what } => {
                write!(f, "malformed fastq record {record} on line {line}: {what}")
            }
            FastqError::InvalidBase { record, line, byte } => {
                write!(
                    f,
                    "invalid base {:?} in record {record} on line {line}",
                    *byte as char
                )
            }
        }
    }
}

impl std::error::Error for FastqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FastqError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FastqError {
    fn from(e: io::Error) -> FastqError {
        FastqError::Io(e)
    }
}

/// A streaming FASTQ reader: yields one [`FastqRecord`] at a time, holding
/// only the current record in memory. The iterator is fused after the
/// first error (a malformed stream has no trustworthy resynchronization
/// point).
///
/// Lines are split inside the reader's buffer and the sequence line is
/// packed straight into 2-bit words, its qualities copied alongside.
/// Header, `+` and quality lines must be UTF-8 ([`FastqError::Io`] with
/// [`io::ErrorKind::InvalidData`] otherwise); in the sequence line any
/// byte outside `ACGTacgt`, non-ASCII included, follows the [`NPolicy`].
/// Sequence lines are not trimmed: a stray space is a non-`ACGT` byte.
///
/// ```
/// use casa_genome::fastq::FastqStream;
/// use casa_genome::fasta::NPolicy;
/// let input = b"@r1\nACGT\n+\nIIII\n@r2\nTT\n+\nJJ\n" as &[u8];
/// let mut stream = FastqStream::new(input, NPolicy::Reject);
/// assert_eq!(stream.next().unwrap()?.name, "r1");
/// assert_eq!(stream.record_index(), 1);
/// assert_eq!(stream.next().unwrap()?.seq.to_string(), "TT");
/// assert!(stream.next().is_none());
/// # Ok::<(), casa_genome::fastq::FastqError>(())
/// ```
pub struct FastqStream<R: BufRead> {
    lines: ByteLines<R>,
    policy: NPolicy,
    record: usize,
    done: bool,
    /// The current record's sequence line, held until its quality line
    /// has been checked (a length mismatch outranks a bad base).
    seq_line: Vec<u8>,
}

impl FastqStream<BufReader<File>> {
    /// Opens `path` and streams its records.
    ///
    /// # Errors
    ///
    /// [`FastqError::Io`] if the file cannot be opened.
    pub fn from_path<P: AsRef<Path>>(
        path: P,
        policy: NPolicy,
    ) -> Result<FastqStream<BufReader<File>>, FastqError> {
        let file = BufReader::with_capacity(FILE_BUFFER, File::open(path)?);
        Ok(FastqStream::new(file, policy))
    }
}

impl<R: BufRead> FastqStream<R> {
    /// Wraps `reader` in a streaming record iterator.
    pub fn new(reader: R, policy: NPolicy) -> FastqStream<R> {
        FastqStream {
            lines: ByteLines::new(reader),
            policy,
            record: 0,
            done: false,
            seq_line: Vec::new(),
        }
    }

    /// 0-based index of the next record the stream will yield — equals the
    /// number of records yielded so far.
    pub fn record_index(&self) -> usize {
        self.record
    }

    /// Reads the next record, or `None` at a clean end of stream.
    fn read_record(&mut self) -> Result<Option<FastqRecord>, FastqError> {
        let record = self.record;
        let malformed = |line, what| FastqError::Malformed { record, line, what };
        let truncated = |line| malformed(line, "truncated record");
        // The header is the first line that is not blank.
        let (header_line, name) = loop {
            let Some((number, line)) = self.lines.next_line()? else {
                return Ok(None);
            };
            let header = utf8(line)?;
            if header.trim().is_empty() {
                continue;
            }
            let name = header
                .strip_prefix('@')
                .ok_or_else(|| malformed(number, "expected '@' header"))?;
            break (number, name.trim().to_string());
        };
        let (seq_line, line) = self
            .lines
            .next_line()?
            .ok_or_else(|| truncated(header_line + 1))?;
        self.seq_line.clear();
        self.seq_line.extend_from_slice(line);
        let (plus_line, line) = self
            .lines
            .next_line()?
            .ok_or_else(|| truncated(seq_line + 1))?;
        if !utf8(line)?.starts_with('+') {
            return Err(malformed(plus_line, "expected '+' separator"));
        }
        let (qual_line, qual) = self
            .lines
            .next_line()?
            .ok_or_else(|| truncated(plus_line + 1))?;
        utf8(qual)?;
        if qual.len() != self.seq_line.len() {
            return Err(malformed(
                qual_line,
                "quality length differs from sequence length",
            ));
        }
        let mut seq = PackedSeq::with_capacity(self.seq_line.len());
        seq.extend_ascii(&self.seq_line, self.policy)
            .map_err(|byte| FastqError::InvalidBase {
                record,
                line: seq_line,
                byte,
            })?;
        let qual = if seq.len() == qual.len() {
            qual.to_vec()
        } else {
            // NPolicy::Skip dropped bases: drop their qualities too.
            (self.seq_line.iter().zip(qual))
                .filter(|&(&byte, _)| is_base_byte(byte))
                .map(|(_, &q)| q)
                .collect()
        };
        self.record += 1;
        Ok(Some(FastqRecord { name, seq, qual }))
    }
}

impl<R: BufRead> Iterator for FastqStream<R> {
    type Item = Result<FastqRecord, FastqError>;

    fn next(&mut self) -> Option<Result<FastqRecord, FastqError>> {
        if self.done {
            return None;
        }
        let item = self.read_record().transpose();
        if matches!(item, None | Some(Err(_))) {
            self.done = true;
        }
        item
    }
}

/// Reads all records from a FASTQ stream.
///
/// Bases skipped by [`NPolicy::Skip`] drop their quality value too, so
/// sequence and quality lengths stay consistent.
///
/// # Errors
///
/// Returns [`FastqError`] on IO failure, structural problems, or (with
/// [`NPolicy::Reject`]) any base outside `ACGTacgt`.
///
/// ```
/// use casa_genome::fastq::read_fastq;
/// use casa_genome::fasta::NPolicy;
/// let input = b"@r1\nACGT\n+\nIIII\n" as &[u8];
/// let records = read_fastq(input, NPolicy::Reject)?;
/// assert_eq!(records[0].seq.to_string(), "ACGT");
/// assert_eq!(records[0].qual, b"IIII");
/// # Ok::<(), casa_genome::fastq::FastqError>(())
/// ```
pub fn read_fastq<R: BufRead>(reader: R, policy: NPolicy) -> Result<Vec<FastqRecord>, FastqError> {
    FastqStream::new(reader, policy).collect()
}

/// Reads all records from the FASTQ file at `path`, streaming the parse so
/// only the packed records (never the raw text) are resident.
///
/// # Errors
///
/// As [`read_fastq`], plus [`FastqError::Io`] if the file cannot be opened.
pub fn read_fastq_from_path<P: AsRef<Path>>(
    path: P,
    policy: NPolicy,
) -> Result<Vec<FastqRecord>, FastqError> {
    FastqStream::from_path(path, policy)?.collect()
}

/// Writes records in four-line FASTQ format.
///
/// # Errors
///
/// Propagates IO errors from `writer`.
///
/// # Panics
///
/// Panics if any record's quality length differs from its sequence length;
/// such a record is unrepresentable in FASTQ.
pub fn write_fastq<W: Write>(mut writer: W, records: &[FastqRecord]) -> io::Result<()> {
    for rec in records {
        assert_eq!(
            rec.qual.len(),
            rec.seq.len(),
            "record {:?} has mismatched quality length",
            rec.name
        );
        writeln!(writer, "@{}", rec.name)?;
        writeln!(writer, "{}", rec.seq)?;
        writeln!(writer, "+")?;
        writer.write_all(&rec.qual)?;
        writer.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_two_records() {
        let input = b"@r1\nACGT\n+\nIIII\n@r2 extra\nTT\n+r2\nJJ\n" as &[u8];
        let recs = read_fastq(input, NPolicy::Reject).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "r1");
        assert_eq!(recs[1].name, "r2 extra");
        assert_eq!(recs[1].seq.to_string(), "TT");
        assert_eq!(recs[1].qual, b"JJ");
    }

    #[test]
    fn detects_quality_length_mismatch() {
        let input = b"@r\nACGT\n+\nIII\n" as &[u8];
        assert!(matches!(
            read_fastq(input, NPolicy::Reject),
            Err(FastqError::Malformed { .. })
        ));
    }

    #[test]
    fn detects_missing_plus() {
        let input = b"@r\nACGT\nIIII\nIIII\n" as &[u8];
        assert!(matches!(
            read_fastq(input, NPolicy::Reject),
            Err(FastqError::Malformed {
                what: "expected '+' separator",
                ..
            })
        ));
    }

    #[test]
    fn skip_policy_drops_quality_too() {
        let input = b"@r\nACNGT\n+\nABCDE\n" as &[u8];
        let recs = read_fastq(input, NPolicy::Skip).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACGT");
        assert_eq!(recs[0].qual, b"ABDE");
    }

    #[test]
    fn round_trips_through_writer() {
        let recs = vec![FastqRecord {
            name: "sim_read_1".into(),
            seq: PackedSeq::from_ascii(b"GATTACA").unwrap(),
            qual: b"IIIHHGG".to_vec(),
        }];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &recs).unwrap();
        let back = read_fastq(buf.as_slice(), NPolicy::Reject).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn truncated_record_is_error() {
        let input = b"@r\nACGT\n" as &[u8];
        assert!(matches!(
            read_fastq(input, NPolicy::Reject),
            Err(FastqError::Malformed {
                record: 0,
                what: "truncated record",
                ..
            })
        ));
    }

    #[test]
    fn truncated_trailing_record_reports_its_index() {
        // First record is fine; second hits EOF after the '+' separator.
        let input = b"@r1\nACGT\n+\nIIII\n@r2\nTTTT\n+\n" as &[u8];
        match read_fastq(input, NPolicy::Reject) {
            Err(FastqError::Malformed { record, line, what }) => {
                assert_eq!(record, 1);
                assert_eq!(line, 8);
                assert_eq!(what, "truncated record");
            }
            other => panic!("expected malformed record 1, got {other:?}"),
        }
    }

    #[test]
    fn quality_mismatch_reports_record_index() {
        let input = b"@r1\nAC\n+\nII\n@r2\nACGT\n+\nIII\n" as &[u8];
        match read_fastq(input, NPolicy::Reject) {
            Err(FastqError::Malformed { record, line, .. }) => {
                assert_eq!(record, 1);
                assert_eq!(line, 8);
            }
            other => panic!("expected malformed record 1, got {other:?}"),
        }
    }

    #[test]
    fn invalid_base_reports_record_index() {
        let input = b"@r1\nAC\n+\nII\n@r2\nAXGT\n+\nIIII\n" as &[u8];
        match read_fastq(input, NPolicy::Reject) {
            Err(FastqError::InvalidBase { record, line, byte }) => {
                assert_eq!(record, 1);
                assert_eq!(line, 6);
                assert_eq!(byte, b'X');
            }
            other => panic!("expected invalid base in record 1, got {other:?}"),
        }
    }

    #[test]
    fn stream_yields_records_incrementally_and_tracks_index() {
        let input = b"@r1\nACGT\n+\nIIII\n\n@r2\nTT\n+\nJJ\n" as &[u8];
        let mut stream = FastqStream::new(input, NPolicy::Reject);
        assert_eq!(stream.record_index(), 0);
        let r1 = stream.next().unwrap().unwrap();
        assert_eq!(r1.name, "r1");
        assert_eq!(stream.record_index(), 1);
        let r2 = stream.next().unwrap().unwrap();
        assert_eq!(r2.name, "r2");
        assert_eq!(stream.record_index(), 2);
        assert!(stream.next().is_none());
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_fuses_after_first_error() {
        // A bad record followed by a perfectly good one: the stream stops.
        let input = b"@r1\nACGT\n+\nIII\n@r2\nTT\n+\nJJ\n" as &[u8];
        let mut stream = FastqStream::new(input, NPolicy::Reject);
        assert!(matches!(
            stream.next(),
            Some(Err(FastqError::Malformed { record: 0, .. }))
        ));
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_matches_batch_reader() {
        let input = b"@a\nACGT\n+\nIIII\n@b\nGGNCC\n+\nJJJJJ\n" as &[u8];
        let batch = read_fastq(input, NPolicy::Skip).unwrap();
        let streamed: Vec<FastqRecord> = FastqStream::new(input, NPolicy::Skip)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn from_path_reads_and_reports_missing_file() {
        let dir = std::env::temp_dir().join(format!("casa_fastq_path_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fq");
        std::fs::write(&path, "@r1\nACGT\n+\nIIII\n").unwrap();
        let recs = read_fastq_from_path(&path, NPolicy::Reject).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "r1");
        assert!(matches!(
            read_fastq_from_path(dir.join("absent.fq"), NPolicy::Reject),
            Err(FastqError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
