//! Minimal FASTA reading and writing.
//!
//! The CASA evaluation (paper §6) replaces every `N` base in the reference
//! with a standard nucleotide before building indexes; [`NPolicy`] exposes
//! that choice explicitly. [`FastaStream`] yields one record at a time in
//! constant memory (beyond the record itself); [`read_fasta`] collects a
//! whole stream.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use crate::lines::{trim_end, utf8, ByteLines, FILE_BUFFER};
use crate::{Base, PackedSeq};

/// A named FASTA record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header text after `>` (up to the first whitespace is the id).
    pub name: String,
    /// The sequence, 2-bit packed.
    pub seq: PackedSeq,
}

/// What to do with bases outside `ACGT` (chiefly `N`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NPolicy {
    /// Fail with [`FastaError::InvalidBase`]. The strict default.
    #[default]
    Reject,
    /// Replace with the given base, mirroring the paper's preprocessing
    /// ("we replaced all the N bases ... with one of the standard
    /// nucleotides").
    Replace(Base),
    /// Drop the base entirely.
    Skip,
}

/// Error produced while reading FASTA data.
#[derive(Debug)]
pub enum FastaError {
    /// Underlying IO failure.
    Io(io::Error),
    /// A sequence byte outside `ACGTacgt` with [`NPolicy::Reject`].
    InvalidBase {
        /// 0-based index of the offending record in the stream.
        record: usize,
        /// 1-based line number.
        line: usize,
        /// Offending byte.
        byte: u8,
    },
    /// File does not begin with a `>` header.
    MissingHeader,
    /// A record header with no sequence lines (EOF or the next header
    /// immediately after `>name`), i.e. a truncated record.
    TruncatedRecord {
        /// 0-based index of the offending record in the stream.
        record: usize,
        /// 1-based line number of the record's header.
        line: usize,
    },
}

impl fmt::Display for FastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastaError::Io(e) => write!(f, "io error reading fasta: {e}"),
            FastaError::InvalidBase { record, line, byte } => {
                write!(
                    f,
                    "invalid base {:?} in record {record} on line {line}",
                    *byte as char
                )
            }
            FastaError::MissingHeader => f.write_str("fasta input does not start with '>'"),
            FastaError::TruncatedRecord { record, line } => {
                write!(
                    f,
                    "truncated fasta record {record} (header on line {line} has no sequence)"
                )
            }
        }
    }
}

impl std::error::Error for FastaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FastaError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FastaError {
    fn from(e: io::Error) -> FastaError {
        FastaError::Io(e)
    }
}

/// Reads all records from a FASTA stream.
///
/// A mutable reference to a reader can be passed as well (`&mut r`).
///
/// # Errors
///
/// Returns [`FastaError`] on IO failure, a missing leading header, or (with
/// [`NPolicy::Reject`]) any base outside `ACGTacgt`.
///
/// ```
/// use casa_genome::fasta::{read_fasta, NPolicy};
/// let input = b">chr1 test\nACGT\nacgt\n>chr2\nTTTT\n" as &[u8];
/// let records = read_fasta(input, NPolicy::Reject)?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].name, "chr1 test");
/// assert_eq!(records[0].seq.to_string(), "ACGTACGT");
/// # Ok::<(), casa_genome::fasta::FastaError>(())
/// ```
pub fn read_fasta<R: BufRead>(reader: R, policy: NPolicy) -> Result<Vec<FastaRecord>, FastaError> {
    FastaStream::new(reader, policy).collect()
}

/// Reads all records from the FASTA file at `path`, streaming the parse.
///
/// # Errors
///
/// As [`read_fasta`], plus [`FastaError::Io`] if the file cannot be opened.
pub fn read_fasta_from_path<P: AsRef<Path>>(
    path: P,
    policy: NPolicy,
) -> Result<Vec<FastaRecord>, FastaError> {
    FastaStream::from_path(path, policy)?.collect()
}

/// A record being accumulated by [`FastaStream`].
struct PendingRecord {
    name: String,
    seq: PackedSeq,
    /// 1-based line number of the record's `>` header.
    header_line: usize,
}

impl PendingRecord {
    /// Completes the record, or reports it truncated (no sequence lines).
    fn finish(self, record: usize) -> Result<FastaRecord, FastaError> {
        if self.seq.is_empty() {
            return Err(FastaError::TruncatedRecord {
                record,
                line: self.header_line,
            });
        }
        Ok(FastaRecord {
            name: self.name,
            seq: self.seq,
        })
    }
}

/// A streaming FASTA reader: yields one [`FastaRecord`] at a time, holding
/// only the record under construction in memory. Fused after the first
/// error.
///
/// Lines are split inside the reader's buffer and sequence lines are
/// packed straight into 2-bit words ([`PackedSeq`]'s ASCII packer), so
/// sequence text is never held as a `String`. Header lines must be UTF-8
/// ([`FastaError::Io`] with [`io::ErrorKind::InvalidData`] otherwise); in
/// a sequence line any byte outside `ACGTacgt`, non-ASCII included,
/// follows the [`NPolicy`].
///
/// ```
/// use casa_genome::fasta::{FastaStream, NPolicy};
/// let input = b">chr1\nACGT\n>chr2\nTT\nGG\n" as &[u8];
/// let mut stream = FastaStream::new(input, NPolicy::Reject);
/// assert_eq!(stream.next().unwrap()?.name, "chr1");
/// assert_eq!(stream.next().unwrap()?.seq.to_string(), "TTGG");
/// assert!(stream.next().is_none());
/// # Ok::<(), casa_genome::fasta::FastaError>(())
/// ```
pub struct FastaStream<R: BufRead> {
    lines: ByteLines<R>,
    policy: NPolicy,
    current: Option<PendingRecord>,
    /// Completed records yielded so far (the next record's 0-based index).
    record: usize,
    done: bool,
}

impl FastaStream<BufReader<File>> {
    /// Opens `path` and streams its records.
    ///
    /// # Errors
    ///
    /// [`FastaError::Io`] if the file cannot be opened.
    pub fn from_path<P: AsRef<Path>>(
        path: P,
        policy: NPolicy,
    ) -> Result<FastaStream<BufReader<File>>, FastaError> {
        let file = BufReader::with_capacity(FILE_BUFFER, File::open(path)?);
        Ok(FastaStream::new(file, policy))
    }
}

impl<R: BufRead> FastaStream<R> {
    /// Wraps `reader` in a streaming record iterator.
    pub fn new(reader: R, policy: NPolicy) -> FastaStream<R> {
        FastaStream {
            lines: ByteLines::new(reader),
            policy,
            current: None,
            record: 0,
            done: false,
        }
    }

    /// 0-based index of the next record the stream will yield — equals the
    /// number of records yielded so far.
    pub fn record_index(&self) -> usize {
        self.record
    }

    /// Advances past lines until a record completes (next header or EOF).
    fn read_record(&mut self) -> Result<Option<FastaRecord>, FastaError> {
        loop {
            let Some((number, line)) = self.lines.next_line()? else {
                // EOF: flush the record under construction, if any.
                return self
                    .current
                    .take()
                    .map(|p| p.finish(self.record))
                    .transpose();
            };
            let line = trim_end(line);
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix(b">") {
                let finished = self.current.replace(PendingRecord {
                    name: utf8(header)?.trim().to_string(),
                    seq: PackedSeq::new(),
                    header_line: number,
                });
                if let Some(pending) = finished {
                    return pending.finish(self.record).map(Some);
                }
            } else {
                let pending = self.current.as_mut().ok_or(FastaError::MissingHeader)?;
                let record = self.record;
                pending
                    .seq
                    .extend_ascii(line, self.policy)
                    .map_err(|byte| FastaError::InvalidBase {
                        record,
                        line: number,
                        byte,
                    })?;
            }
        }
    }
}

impl<R: BufRead> Iterator for FastaStream<R> {
    type Item = Result<FastaRecord, FastaError>;

    fn next(&mut self) -> Option<Result<FastaRecord, FastaError>> {
        if self.done {
            return None;
        }
        let item = self.read_record().transpose();
        match &item {
            Some(Ok(_)) => self.record += 1,
            None | Some(Err(_)) => self.done = true,
        }
        item
    }
}

/// Writes records in FASTA format with 70-column wrapping.
///
/// # Errors
///
/// Propagates IO errors from `writer`.
pub fn write_fasta<W: Write>(mut writer: W, records: &[FastaRecord]) -> io::Result<()> {
    for rec in records {
        writeln!(writer, ">{}", rec.name)?;
        let text = rec.seq.to_string();
        for chunk in text.as_bytes().chunks(70) {
            writer.write_all(chunk)?;
            writer.write_all(b"\n")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multiple_records() {
        let input = b">a\nACGT\n>b desc here\nTT\nGG\n" as &[u8];
        let recs = read_fasta(input, NPolicy::Reject).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "a");
        assert_eq!(recs[0].seq.to_string(), "ACGT");
        assert_eq!(recs[1].name, "b desc here");
        assert_eq!(recs[1].seq.to_string(), "TTGG");
    }

    #[test]
    fn rejects_n_by_default() {
        let input = b">a\nACNGT\n" as &[u8];
        let err = read_fasta(input, NPolicy::Reject).unwrap_err();
        match err {
            FastaError::InvalidBase { record, line, byte } => {
                assert_eq!(record, 0);
                assert_eq!(line, 2);
                assert_eq!(byte, b'N');
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn invalid_base_reports_record_index() {
        let input = b">a\nACGT\n>b\nTTNTT\n" as &[u8];
        match read_fasta(input, NPolicy::Reject) {
            Err(FastaError::InvalidBase { record, line, byte }) => {
                assert_eq!(record, 1);
                assert_eq!(line, 4);
                assert_eq!(byte, b'N');
            }
            other => panic!("expected invalid base in record 1, got {other:?}"),
        }
    }

    #[test]
    fn truncated_trailing_record_is_error() {
        let input = b">a\nACGT\n>b\n" as &[u8];
        match read_fasta(input, NPolicy::Reject) {
            Err(FastaError::TruncatedRecord { record, line }) => {
                assert_eq!(record, 1);
                assert_eq!(line, 3);
            }
            other => panic!("expected truncated record 1, got {other:?}"),
        }
    }

    #[test]
    fn empty_record_mid_file_is_error() {
        let input = b">a\n>b\nACGT\n" as &[u8];
        match read_fasta(input, NPolicy::Reject) {
            Err(FastaError::TruncatedRecord { record, line }) => {
                assert_eq!(record, 0);
                assert_eq!(line, 1);
            }
            other => panic!("expected truncated record 0, got {other:?}"),
        }
    }

    #[test]
    fn replace_policy_substitutes() {
        let input = b">a\nACNGT\n" as &[u8];
        let recs = read_fasta(input, NPolicy::Replace(Base::A)).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACAGT");
    }

    #[test]
    fn skip_policy_drops() {
        let input = b">a\nACNGT\n" as &[u8];
        let recs = read_fasta(input, NPolicy::Skip).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn missing_header_is_error() {
        let input = b"ACGT\n" as &[u8];
        assert!(matches!(
            read_fasta(input, NPolicy::Reject),
            Err(FastaError::MissingHeader)
        ));
    }

    #[test]
    fn round_trips_through_writer() {
        let recs = vec![
            FastaRecord {
                name: "chrA".into(),
                seq: PackedSeq::from_ascii(&b"ACGT".repeat(40)).unwrap(),
            },
            FastaRecord {
                name: "chrB".into(),
                seq: PackedSeq::from_ascii(b"TTTT").unwrap(),
            },
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &recs).unwrap();
        let back = read_fasta(buf.as_slice(), NPolicy::Reject).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn blank_lines_are_ignored() {
        let input = b"\n>a\n\nAC\n\nGT\n\n" as &[u8];
        let recs = read_fasta(input, NPolicy::Reject).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn stream_yields_records_incrementally_and_tracks_index() {
        let input = b">a\nACGT\n>b\nTT\nGG\n" as &[u8];
        let mut stream = FastaStream::new(input, NPolicy::Reject);
        assert_eq!(stream.record_index(), 0);
        assert_eq!(stream.next().unwrap().unwrap().name, "a");
        assert_eq!(stream.record_index(), 1);
        assert_eq!(stream.next().unwrap().unwrap().seq.to_string(), "TTGG");
        assert_eq!(stream.record_index(), 2);
        assert!(stream.next().is_none());
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_fuses_after_first_error() {
        let input = b">a\nACNT\n>b\nGGGG\n" as &[u8];
        let mut stream = FastaStream::new(input, NPolicy::Reject);
        assert!(matches!(
            stream.next(),
            Some(Err(FastaError::InvalidBase { record: 0, .. }))
        ));
        assert!(stream.next().is_none());
    }

    #[test]
    fn stream_matches_batch_reader() {
        let input = b"\n>a\nAC\nNGT\n>b desc\nTTTT\n" as &[u8];
        let batch = read_fasta(input, NPolicy::Skip).unwrap();
        let streamed: Vec<FastaRecord> = FastaStream::new(input, NPolicy::Skip)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn from_path_reads_and_reports_missing_file() {
        let dir = std::env::temp_dir().join(format!("casa_fasta_path_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ref.fa");
        std::fs::write(&path, ">chr1\nACGT\n").unwrap();
        let recs = read_fasta_from_path(&path, NPolicy::Reject).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "chr1");
        assert!(matches!(
            read_fasta_from_path(dir.join("absent.fa"), NPolicy::Reject),
            Err(FastaError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
