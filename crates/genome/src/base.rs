//! The 2-bit nucleotide alphabet.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A single DNA nucleotide, encoded in 2 bits exactly as the CASA hardware
/// stores it (`A=00`, `C=01`, `G=10`, `T=11`).
///
/// The ordering (`A < C < G < T`) matches the lexicographic order used by the
/// suffix-array and FM-index substrates, so the same codes can be compared
/// directly.
///
/// ```
/// use casa_genome::Base;
/// assert_eq!(Base::A.complement(), Base::T);
/// assert_eq!(Base::from_code(2), Base::G);
/// assert!(Base::C < Base::G);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Base {
    /// Adenine (code `0b00`).
    A = 0,
    /// Cytosine (code `0b01`).
    C = 1,
    /// Guanine (code `0b10`).
    G = 2,
    /// Thymine (code `0b11`).
    T = 3,
}

/// Error returned when a byte cannot be interpreted as a nucleotide.
///
/// Produced by [`Base::try_from`] for characters outside `ACGTacgt`. `N`
/// bases are deliberately rejected: the CASA evaluation (paper §6) replaces
/// all `N` bases with a standard nucleotide before processing, and our FASTA
/// reader offers the same policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseBaseError {
    pub(crate) byte: u8,
}

impl ParseBaseError {
    /// The offending input byte.
    pub fn byte(&self) -> u8 {
        self.byte
    }
}

impl fmt::Display for ParseBaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid nucleotide byte 0x{:02x} ({:?})",
            self.byte, self.byte as char
        )
    }
}

impl std::error::Error for ParseBaseError {}

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Decodes a 2-bit code.
    ///
    /// Only the low two bits are inspected, mirroring how the hardware
    /// decodes a 2-bit lane regardless of surrounding bus bits.
    ///
    /// ```
    /// use casa_genome::Base;
    /// assert_eq!(Base::from_code(0b111), Base::T); // low bits 11
    /// ```
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 0b11 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }

    /// The 2-bit code of this base.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Watson–Crick complement (`A↔T`, `C↔G`).
    ///
    /// With this encoding the complement is simply the bitwise NOT of the
    /// 2-bit code, which is also how a hardware implementation would compute
    /// reverse strands.
    #[inline]
    pub fn complement(self) -> Base {
        Base::from_code(!self.code())
    }

    /// ASCII uppercase letter for this base.
    #[inline]
    pub fn to_char(self) -> char {
        match self {
            Base::A => 'A',
            Base::C => 'C',
            Base::G => 'G',
            Base::T => 'T',
        }
    }

    /// Whether this base is G or C (used by the GC-content statistics of the
    /// synthetic reference generator).
    #[inline]
    pub fn is_gc(self) -> bool {
        matches!(self, Base::G | Base::C)
    }
}

impl TryFrom<u8> for Base {
    type Error = ParseBaseError;

    /// Parses an ASCII nucleotide letter (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseBaseError`] for any byte outside `ACGTacgt`, including
    /// `N`.
    fn try_from(byte: u8) -> Result<Base, ParseBaseError> {
        match byte {
            b'A' | b'a' => Ok(Base::A),
            b'C' | b'c' => Ok(Base::C),
            b'G' | b'g' => Ok(Base::G),
            b'T' | b't' => Ok(Base::T),
            _ => Err(ParseBaseError { byte }),
        }
    }
}

impl TryFrom<char> for Base {
    type Error = ParseBaseError;

    /// Parses a nucleotide character (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseBaseError`] for any character outside `ACGTacgt`.
    fn try_from(c: char) -> Result<Base, ParseBaseError> {
        if c.is_ascii() {
            Base::try_from(c as u8)
        } else {
            Err(ParseBaseError { byte: b'?' })
        }
    }
}

impl From<Base> for char {
    fn from(b: Base) -> char {
        b.to_char()
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Base::A => "A",
            Base::C => "C",
            Base::G => "G",
            Base::T => "T",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b.code()), b);
        }
    }

    #[test]
    fn from_code_masks_high_bits() {
        assert_eq!(Base::from_code(0b100), Base::A);
        assert_eq!(Base::from_code(0b101), Base::C);
        assert_eq!(Base::from_code(0xFE), Base::G);
        assert_eq!(Base::from_code(0xFF), Base::T);
    }

    #[test]
    fn complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
        }
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn parse_accepts_both_cases() {
        assert_eq!(Base::try_from(b'a').unwrap(), Base::A);
        assert_eq!(Base::try_from(b'G').unwrap(), Base::G);
        assert_eq!(Base::try_from('t').unwrap(), Base::T);
    }

    #[test]
    fn parse_rejects_n_and_garbage() {
        assert!(Base::try_from(b'N').is_err());
        assert!(Base::try_from(b'?').is_err());
        let err = Base::try_from(b'N').unwrap_err();
        assert_eq!(err.byte(), b'N');
        assert!(err.to_string().contains("0x4e"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Base::A < Base::C && Base::C < Base::G && Base::G < Base::T);
    }

    #[test]
    fn display_matches_char() {
        for b in Base::ALL {
            assert_eq!(b.to_string(), b.to_char().to_string());
            assert_eq!(char::from(b), b.to_char());
        }
    }
}
