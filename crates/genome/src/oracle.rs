//! Test oracles for the byte-level FASTA and FASTQ readers: the line-based
//! readers they replaced (a `String` per line from [`BufRead::lines`],
//! one [`Base::try_from`] and one [`PackedSeq::push`] per byte), and
//! properties that the streaming readers return the same records, or the
//! same error at the same place, on arbitrary ASCII input under every
//! [`NPolicy`] and at read-buffer sizes that split lines and records
//! across refills.

use std::io::{self, BufRead, BufReader};

use proptest::prelude::*;

use crate::fasta::{FastaError, FastaRecord, FastaStream, NPolicy};
use crate::fastq::{FastqError, FastqRecord, FastqStream};
use crate::{Base, PackedSeq};

/// The line-based FASTA reader.
fn oracle_fasta<R: BufRead>(reader: R, policy: NPolicy) -> Result<Vec<FastaRecord>, FastaError> {
    struct Pending {
        name: String,
        seq: PackedSeq,
        header_line: usize,
    }
    let finish = |p: Pending, record: usize| {
        if p.seq.is_empty() {
            return Err(FastaError::TruncatedRecord {
                record,
                line: p.header_line,
            });
        }
        Ok(FastaRecord {
            name: p.name,
            seq: p.seq,
        })
    };
    let mut out = Vec::new();
    let mut current: Option<Pending> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            let finished = current.replace(Pending {
                name: header.trim().to_string(),
                seq: PackedSeq::new(),
                header_line: idx + 1,
            });
            if let Some(p) = finished {
                out.push(finish(p, out.len())?);
            }
        } else {
            let pending = current.as_mut().ok_or(FastaError::MissingHeader)?;
            for &byte in line.as_bytes() {
                match Base::try_from(byte) {
                    Ok(b) => pending.seq.push(b),
                    Err(_) => match policy {
                        NPolicy::Reject => {
                            return Err(FastaError::InvalidBase {
                                record: out.len(),
                                line: idx + 1,
                                byte,
                            })
                        }
                        NPolicy::Replace(b) => pending.seq.push(b),
                        NPolicy::Skip => {}
                    },
                }
            }
        }
    }
    if let Some(p) = current {
        out.push(finish(p, out.len())?);
    }
    Ok(out)
}

/// The line-based FASTQ reader.
fn oracle_fastq<R: BufRead>(reader: R, policy: NPolicy) -> Result<Vec<FastqRecord>, FastqError> {
    let mut lines = reader.lines().enumerate();
    let mut out = Vec::new();
    while let Some((idx, header)) = lines.next() {
        let header = header?;
        if header.trim().is_empty() {
            continue;
        }
        let record = out.len();
        let malformed = |line, what| FastqError::Malformed { record, line, what };
        let name = header
            .strip_prefix('@')
            .ok_or(malformed(idx + 1, "expected '@' header"))?
            .trim()
            .to_string();
        let (seq_idx, seq_line) = lines.next().ok_or(malformed(idx + 2, "truncated record"))?;
        let seq_line = seq_line?;
        let (plus_idx, plus_line) = lines
            .next()
            .ok_or(malformed(seq_idx + 2, "truncated record"))?;
        if !plus_line?.starts_with('+') {
            return Err(malformed(plus_idx + 1, "expected '+' separator"));
        }
        let (qual_idx, qual_line) = lines
            .next()
            .ok_or(malformed(plus_idx + 2, "truncated record"))?;
        let qual_line = qual_line?;
        if qual_line.len() != seq_line.len() {
            return Err(malformed(
                qual_idx + 1,
                "quality length differs from sequence length",
            ));
        }
        let mut seq = PackedSeq::new();
        let mut qual = Vec::new();
        for (&byte, &q) in seq_line.as_bytes().iter().zip(qual_line.as_bytes()) {
            let base = match Base::try_from(byte) {
                Ok(b) => b,
                Err(_) => match policy {
                    NPolicy::Reject => {
                        return Err(FastqError::InvalidBase {
                            record,
                            line: seq_idx + 1,
                            byte,
                        })
                    }
                    NPolicy::Replace(b) => b,
                    NPolicy::Skip => continue,
                },
            };
            seq.push(base);
            qual.push(q);
        }
        out.push(FastqRecord { name, seq, qual });
    }
    Ok(out)
}

/// An error as comparable text: IO errors by kind and message, the rest
/// by every field.
fn fasta_error_key(e: &FastaError) -> String {
    match e {
        FastaError::Io(e) => format!("io {:?} {e}", e.kind()),
        other => format!("{other:?}"),
    }
}

fn fastq_error_key(e: &FastqError) -> String {
    match e {
        FastqError::Io(e) => format!("io {:?} {e}", e.kind()),
        other => format!("{other:?}"),
    }
}

const POLICIES: [NPolicy; 3] = [NPolicy::Reject, NPolicy::Replace(Base::G), NPolicy::Skip];
const CAPACITIES: [usize; 4] = [1, 3, 7, 64];

/// Asserts the streaming FASTA reader equals the oracle on `input`.
fn check_fasta(input: &[u8]) {
    for policy in POLICIES {
        let expect = oracle_fasta(input, policy).map_err(|e| fasta_error_key(&e));
        for capacity in CAPACITIES {
            let got: Result<Vec<FastaRecord>, String> =
                FastaStream::new(BufReader::with_capacity(capacity, input), policy)
                    .collect::<Result<_, _>>()
                    .map_err(|e| fasta_error_key(&e));
            assert_eq!(
                got,
                expect,
                "{policy:?}, capacity {capacity}, input {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }
}

/// Asserts the streaming FASTQ reader equals the oracle on `input`.
fn check_fastq(input: &[u8]) {
    for policy in POLICIES {
        let expect = oracle_fastq(input, policy).map_err(|e| fastq_error_key(&e));
        for capacity in CAPACITIES {
            let got: Result<Vec<FastqRecord>, String> =
                FastqStream::new(BufReader::with_capacity(capacity, input), policy)
                    .collect::<Result<_, _>>()
                    .map_err(|e| fastq_error_key(&e));
            assert_eq!(
                got,
                expect,
                "{policy:?}, capacity {capacity}, input {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }
}

/// The bytes that steer the readers, weighted towards those that break
/// naive byte readers (`\x0B` is trimmed by `str::trim_end` but is not
/// `u8::is_ascii_whitespace`).
const ALPHABET: &[u8] = b"ACGTacgtACGTacgtN>@+\n\n\n\r \t\x0B\x0C";

/// Arbitrary ASCII, three bytes in four drawn from [`ALPHABET`].
fn ascii_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0u8..4, 0u8..128), 0..max).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(kind, byte)| match kind {
                0 => byte,
                _ => ALPHABET[usize::from(byte) % ALPHABET.len()],
            })
            .collect()
    })
}

/// A string of `len` bytes from `pool`, chosen by `picks`.
fn pick(pool: &[u8], picks: &[u8]) -> Vec<u8> {
    picks
        .iter()
        .map(|&p| pool[usize::from(p) % pool.len()])
        .collect()
}

/// FASTQ-shaped text: records of header, sequence, `+` and quality lines,
/// with line ends drawn from `\n` / `\r\n` / none, occasional blank lines,
/// and quality lengths that sometimes differ from the sequence's.
fn fastq_text() -> impl Strategy<Value = Vec<u8>> {
    let record = (
        prop::collection::vec(0u8..255, 0..12),
        prop::collection::vec(0u8..255, 0..40),
        0u8..8,
        prop::collection::vec(0u8..255, 0..6),
    );
    (prop::collection::vec(record, 0..6), 0usize..200).prop_map(|(records, cut)| {
        let mut text = Vec::new();
        for (name, seq, twist, ends) in records {
            let end = |i: usize| match ends.get(i).copied().unwrap_or(0) % 6 {
                0 => &b"\r\n"[..],
                1 => b"\n\n",
                _ => b"\n",
            };
            text.push(b'@');
            text.extend(pick(b"r1 _\t", &name));
            text.extend_from_slice(end(0));
            let bases = pick(b"ACGTACGTacgtN \r", &seq);
            text.extend(&bases);
            text.extend_from_slice(end(1));
            text.extend_from_slice(if twist == 0 { b"-" } else { b"+r" });
            text.extend_from_slice(end(2));
            let qual_len = match twist {
                1 => bases.len() + 1,
                2 => bases.len().saturating_sub(1),
                _ => bases.len(),
            };
            text.extend(std::iter::repeat_n(b'I', qual_len));
            text.extend_from_slice(end(3));
        }
        // Truncate anywhere: inside a record, at each of its lines.
        text.truncate(cut * text.len() / 199);
        text
    })
}

/// FASTA-shaped text: headers and wrapped sequence lines, with trailing
/// whitespace, CRLF, `>` inside lines and blank lines mixed in.
fn fasta_text() -> impl Strategy<Value = Vec<u8>> {
    let line = (0u8..6, prop::collection::vec(0u8..255, 0..80));
    prop::collection::vec(line, 0..12).prop_map(|lines| {
        let mut text = Vec::new();
        for (kind, picks) in lines {
            match kind {
                0 => text.push(b'>'),
                1 => text.push(b' '),
                _ => {}
            }
            text.extend(pick(b"ACGTACGTACGTacgtN>\t", &picks));
            text.extend_from_slice(match kind {
                3 => b"\r\n",
                4 => b" \x0B\n",
                _ => b"\n",
            });
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn fasta_reader_equals_line_oracle_on_ascii(input in ascii_bytes(160)) {
        check_fasta(&input);
    }

    #[test]
    fn fasta_reader_equals_line_oracle_on_fasta_text(input in fasta_text()) {
        check_fasta(&input);
    }

    #[test]
    fn fastq_reader_equals_line_oracle_on_ascii(input in ascii_bytes(160)) {
        check_fastq(&input);
    }

    #[test]
    fn fastq_reader_equals_line_oracle_on_fastq_text(input in fastq_text()) {
        check_fastq(&input);
    }

    #[test]
    fn from_ascii_equals_per_base_push(input in ascii_bytes(200)) {
        let expect: Result<PackedSeq, _> = input.iter().map(|&b| Base::try_from(b)).collect();
        prop_assert_eq!(PackedSeq::from_ascii(&input), expect);
    }
}

/// The cases that break naive byte readers, each checked on its own.
#[test]
fn readers_equal_oracle_on_known_edge_cases() {
    let fasta: &[&[u8]] = &[
        b">a\nACGT\x0B\n",       // `\x0B` is trimmed
        b">a\nACGT\x0C \t\r",    // trailing whitespace, no newline
        b">a\nAC>GT\n",          // `>` mid-line is a base
        b">a\n >b\nACGT\n",      // `>` after a space is not a header
        b">a\nACGT\r",           // final `\r` without `\n`
        b">a\r\nAC\r\nGT\r\n",   // CRLF
        b"\x0B\n>a\n\x0C\nAC\n", // whitespace-only lines are blank
        b">a\nNNNN\n>b\nAC\n",   // Skip empties record 0: truncated
        b">\nAC\n",              // empty name
        b"  \n\nAC\n",           // sequence before any header
    ];
    for input in fasta {
        check_fasta(input);
    }
    let fastq: &[&[u8]] = &[
        b"@r\nACGT\r",                    // truncated at the `+` line
        b"@r\nACGT\n+\nIIII\r",           // final `\r` kept in the quality
        b"@r\nACGT\r\n+\r\nIIII\r\n",     // CRLF stripped everywhere
        b"@r\nACGT \n+\nIIIII\n",         // sequence lines are not trimmed
        b"@r\nAC\x0BT\n+\nIIII\n",        // `\x0B` is a non-ACGT byte
        b"@r\n",                          // truncated at the sequence line
        b"@r\nACGT\n+\n",                 // truncated at the quality line
        b"@r\nACGT\n+\nIII\n",            // quality shorter
        b"@r\nACGT\n+\nIIIII\n",          // quality longer
        b"@r\nANGT\n+\nIII\n",            // length mismatch outranks bad base
        b"\x0B\n \n@r x \nAC\n+\nII\n\n", // blank lines around a record
        b"r\nAC\n+\nII\n",                // no `@`
        b"@r\nAC\n-\nII\n",               // no `+`
    ];
    for input in fastq {
        check_fastq(input);
    }
}

#[test]
fn non_utf8_header_name_and_quality_lines_stay_io_errors() {
    for input in [&b">a\xFF\nACGT\n"[..], b"\n>b\xC3\nAC\n"] {
        match FastaStream::new(input, NPolicy::Reject).next() {
            Some(Err(FastaError::Io(e))) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }
    for input in [
        &b"@r\xFF\nACGT\n+\nIIII\n"[..],
        b"@r\nACGT\n+\xFF\nIIII\n",
        b"@r\nACGT\n+\nII\xFFI\n",
    ] {
        match FastqStream::new(input, NPolicy::Reject).next() {
            Some(Err(FastqError::Io(e))) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }
}

#[test]
fn non_ascii_sequence_bytes_follow_the_n_policy() {
    let fasta = b">a\nACGT\n>b\nAC\xFFGT\n" as &[u8];
    match FastaStream::new(fasta, NPolicy::Reject).collect::<Result<Vec<_>, _>>() {
        Err(FastaError::InvalidBase { record, line, byte }) => {
            assert_eq!((record, line, byte), (1, 4, 0xFF));
        }
        other => panic!("expected a located invalid base, got {other:?}"),
    }
    let replaced = crate::fasta::read_fasta(fasta, NPolicy::Replace(Base::T)).unwrap();
    assert_eq!(replaced[1].seq.to_string(), "ACTGT");
    let skipped = crate::fasta::read_fasta(fasta, NPolicy::Skip).unwrap();
    assert_eq!(skipped[1].seq.to_string(), "ACGT");

    let fastq = b"@r1\nAC\n+\nII\n@r2\nA\xC3\xA9T\n+\nABCD\n" as &[u8];
    match FastqStream::new(fastq, NPolicy::Reject).collect::<Result<Vec<_>, _>>() {
        Err(FastqError::InvalidBase { record, line, byte }) => {
            assert_eq!((record, line, byte), (1, 6, 0xC3));
        }
        other => panic!("expected a located invalid base, got {other:?}"),
    }
    let skipped = crate::fastq::read_fastq(fastq, NPolicy::Skip).unwrap();
    assert_eq!(skipped[1].seq.to_string(), "AT");
    assert_eq!(skipped[1].qual, b"AD");
}
