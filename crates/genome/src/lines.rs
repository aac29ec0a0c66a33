//! Byte-level line splitting for the FASTA and FASTQ readers.
//!
//! [`ByteLines`] finds line ends inside the reader's own buffer
//! (`fill_buf` / `consume`) and hands each line out as a byte slice, so a
//! line costs no `String` and no UTF-8 check. Only a line that straddles a
//! buffer refill is copied, into a carry buffer reused across lines.

use std::io::{self, BufRead};

/// Read buffer of the readers' `from_path`: 64 KiB, so an 8 Mb reference
/// takes ~130 reads rather than ~1,000 at `BufReader`'s default 8 KiB.
pub(crate) const FILE_BUFFER: usize = 64 * 1024;

/// Splits a [`BufRead`] into lines exactly as [`BufRead::lines`] does:
/// each line loses its `\n`, and a `\r` only when that `\n` follows it
/// (so a last line `ACGT\r` with no newline keeps its `\r`).
pub(crate) struct ByteLines<R> {
    reader: R,
    /// A line that straddles buffer refills, gathered here.
    carry: Vec<u8>,
    /// Bytes of the reader's buffer the last line returned still borrows;
    /// consumed at the start of the next call.
    borrowed: usize,
    /// 1-based number of the last line returned (0 before the first).
    line: usize,
}

impl<R: BufRead> ByteLines<R> {
    pub(crate) fn new(reader: R) -> ByteLines<R> {
        ByteLines {
            reader,
            carry: Vec::new(),
            borrowed: 0,
            line: 0,
        }
    }

    /// The next line and its 1-based number, or `None` at end of input.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<(usize, &[u8])>> {
        self.reader.consume(std::mem::take(&mut self.borrowed));
        self.carry.clear();
        loop {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                if self.carry.is_empty() {
                    return Ok(None);
                }
                self.line += 1;
                return Ok(Some((self.line, &self.carry)));
            }
            let Some(end) = find_newline(buf) else {
                let n = buf.len();
                self.carry.extend_from_slice(buf);
                self.reader.consume(n);
                continue;
            };
            self.line += 1;
            if self.carry.is_empty() {
                // The whole line sits in the buffer: lend it out, consume
                // it on the next call. `fill_buf` on a non-empty buffer
                // returns that same buffer without reading.
                self.borrowed = end + 1;
                let buf = self.reader.fill_buf()?;
                return Ok(Some((self.line, strip_cr(&buf[..end]))));
            }
            self.carry.extend_from_slice(&buf[..end]);
            self.reader.consume(end + 1);
            return Ok(Some((self.line, strip_cr(&self.carry))));
        }
    }
}

/// Index of the first `\n` in `buf`, eight bytes per step: a byte of
/// `x = word ^ "\n\n.."` is zero where `buf` holds `\n`, and the lowest
/// high bit of `(x - 0x01..) & !x & 0x80..` marks the first zero byte.
fn find_newline(buf: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = buf.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(8 * i + (zeros.trailing_zeros() / 8) as usize);
        }
    }
    let rest = words.remainder();
    let at = buf.len() - rest.len();
    rest.iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// Drops the `\r` of a `\r\n` line end (the `\n` already gone).
fn strip_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// `str::trim_end` on a byte line: Unicode whitespace when the line is
/// UTF-8, ASCII whitespace (which includes `\x0B`, unlike
/// [`u8::is_ascii_whitespace`]) when it is not.
pub(crate) fn trim_end(line: &[u8]) -> &[u8] {
    let end = line
        .iter()
        .rposition(|&b| !matches!(b, b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r' | b' '))
        .map_or(0, |i| i + 1);
    let trimmed = &line[..end];
    // Every non-ASCII Unicode space ends in a byte >= 0x80.
    if trimmed.last().is_some_and(|b| !b.is_ascii()) {
        if let Ok(text) = std::str::from_utf8(trimmed) {
            return text.trim_end().as_bytes();
        }
    }
    trimmed
}

/// `line` as text, or the error [`BufRead::lines`] gives for a line that
/// is not UTF-8.
pub(crate) fn utf8(line: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(line).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Every line at every buffer capacity, as `BufRead::lines` splits it.
    fn split(input: &[u8], capacity: usize) -> Vec<Vec<u8>> {
        let mut lines = ByteLines::new(BufReader::with_capacity(capacity, input));
        let mut out = Vec::new();
        while let Some((number, line)) = lines.next_line().unwrap() {
            assert_eq!(number, out.len() + 1);
            out.push(line.to_vec());
        }
        out
    }

    #[test]
    fn splits_like_std_lines_at_every_capacity() {
        let input = b"ab\r\n\ncd\r\r\n\rx\ny\r";
        let expect: Vec<Vec<u8>> = input.lines().map(|l| l.unwrap().into_bytes()).collect();
        for capacity in 1..=input.len() + 1 {
            assert_eq!(split(input, capacity), expect, "capacity {capacity}");
        }
        assert!(split(b"", 4).is_empty());
        assert_eq!(split(b"\n", 4), vec![Vec::<u8>::new()]);
    }

    #[test]
    fn trim_end_matches_str_trim_end() {
        for text in ["AC \t\x0B\x0C\r", "AC\u{a0}", "\u{2003} ", "A C", " "] {
            assert_eq!(trim_end(text.as_bytes()), text.trim_end().as_bytes());
        }
        assert_eq!(trim_end(b"AC\xFF \x0B"), b"AC\xFF");
    }
}
