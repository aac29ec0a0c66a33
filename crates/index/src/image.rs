//! Zero-copy on-disk **index images**: one relocatable, versioned,
//! checksummed, page-aligned artifact holding every reference-side array
//! the seeding stack needs (packed reference text, per-partition CAM
//! entry bitplanes and suffix arrays, the partition-interleaved
//! pre-seeding filter tables).
//!
//! This is the repository's one on-disk index, a multi-section,
//! mmap-first design: a loaded [`IndexImage`] keeps the file mapped
//! read-only and hands out [`SharedSlice`] views directly into the
//! mapping, so cold start is O(page-fault) instead of O(rebuild) and
//! concurrent processes share the arrays through the page cache.
//!
//! # Layout (version 4)
//!
//! All integers little-endian. Payload sections are aligned to
//! `page_size` (4096) so mapped views are always 8-byte aligned and
//! whole pages are shareable.
//!
//! ```text
//! offset 0        magic           b"CASAIMG1"
//!        8        version         u32  (=4)
//!        12       page_size       u32  (=4096)
//!        16       fingerprint     u64  (FNV-1a of config blob + reference bytes)
//!        24       total_len       u64  (file length in bytes)
//!        32       meta_off        u64  (=64)
//!        40       meta_len        u64
//!        48       section_count   u64
//!        56       header_checksum u64  (FNV-1a of bytes 0..56)
//! meta_off        config_len      u64, then config blob (opaque bytes)
//!        …        section table   section_count × 48-byte entries:
//!                   kind u32, partition u32, byte_off u64, byte_len u64,
//!                   elem_count u64, reserved u64, section_checksum u64
//!        …        meta_checksum   u64  (FNV-1a of the meta block before it)
//! page-aligned    payload sections, each zero-padded to the next page
//! ```
//!
//! Section checksums are computed **word-wise** — FNV-1a over the
//! section's little-endian `u64` words (payload zero-padded to an 8-byte
//! multiple) — so load-time verification runs at memory bandwidth over
//! the mapped words rather than byte-at-a-time.
//!
//! Every parse is bounds-checked and every mismatch is a typed
//! [`ImageError`]; corrupt input can never panic or read out of bounds
//! (property-tested in `tests/index_image.rs`).

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use casa_genome::shared::{SharedSlice, SliceView};
use memmap2::{cast, Mmap};

/// Image format magic.
pub const MAGIC: &[u8; 8] = b"CASAIMG1";
/// Current image format version.
///
/// Version 2 fused the filter's tag and data arrays into one
/// [`SectionKind::FilterData`] row table and retired the version-1 tag
/// section (kind code 3). Version 3 holds one partition-interleaved
/// filter for the whole reference — one [`SectionKind::FilterMini`] and
/// one [`SectionKind::FilterData`] section, both at partition 0 — where
/// version 2 held one pair per partition. Version 4 stores a filter row
/// as one `u64` word, its occurrence's offset beside its tag, where
/// version 3 stored two (the start mask, then groups and tag): the
/// indicator is a function of the offset. An image of another version
/// fails to open with [`ImageError::BadVersion`].
pub const VERSION: u32 = 4;
/// Payload alignment: one small page.
pub const PAGE_SIZE: u32 = 4096;

const HEADER_LEN: usize = 64;
const ENTRY_LEN: usize = 48;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over bytes.
fn fnv1a_bytes(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Word-wise FNV-1a: one absorb per little-endian `u64`, trailing bytes
/// zero-padded. ~8× fewer multiplies than the byte-wise variant, which
/// is what keeps load-time verification far cheaper than a rebuild.
fn fnv1a_words_of_bytes(bytes: &[u8]) -> u64 {
    let mut state = FNV_OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        state ^= u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        state = state.wrapping_mul(FNV_PRIME);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        state ^= u64::from_le_bytes(last);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Same checksum computed straight over mapped words (zero-copy path).
fn fnv1a_words(words: &[u64]) -> u64 {
    let mut state = FNV_OFFSET;
    for &w in words {
        state ^= w;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// How much of an image to verify at open time.
///
/// Header and metadata checksums, section bounds, and alignment are
/// verified in every mode — a [`VerifyMode::Meta`] open can still never
/// read out of bounds or misalign a view. What `Meta` skips is the
/// payload word checksums, which cost a full sequential read of the
/// file (paging in every section) and defeat the O(ms) mmap cold start;
/// [`IndexImage::verify_payloads`] runs them on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Verify everything, including every section's payload checksum.
    Full,
    /// Verify header + metadata + structure only; trust payload bytes.
    Meta,
}

/// What a payload section holds. Stored as a `u32` on disk; unknown
/// codes load fine (forward compatibility) but have no typed accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum SectionKind {
    /// The 2-bit packed reference text (whole reference, partition 0).
    RefText = 0,
    /// One partition's CAM entry bitplanes (`u64` words).
    CamPlanes = 1,
    /// The filter's mini-index prefix sums (`u32`), `4^m · P + 1` of
    /// them: entry `slot · P + p` starts partition `p`'s sub-bucket of
    /// m-mer `slot`. One section, at partition 0.
    FilterMini = 2,
    /// The filter's rows, sorted by (m-mer, partition, tag, offset), one
    /// `u64` word per row: the occurrence's partition offset in the low
    /// 32 bits, its tag (`(k−m)`-mer code) in the high 32. One section,
    /// at partition 0. Code 3, the version-1 tag array, is retired.
    FilterData = 4,
    /// One partition's suffix array ranks (`u32`).
    Sa = 5,
}

impl SectionKind {
    /// Decodes a stored kind code.
    pub fn from_code(code: u32) -> Option<SectionKind> {
        match code {
            0 => Some(SectionKind::RefText),
            1 => Some(SectionKind::CamPlanes),
            2 => Some(SectionKind::FilterMini),
            4 => Some(SectionKind::FilterData),
            5 => Some(SectionKind::Sa),
            _ => None,
        }
    }

    /// Human-readable name for `index inspect`.
    pub fn name(code: u32) -> &'static str {
        match SectionKind::from_code(code) {
            Some(SectionKind::RefText) => "ref-text",
            Some(SectionKind::CamPlanes) => "cam-planes",
            Some(SectionKind::FilterMini) => "filter-mini",
            Some(SectionKind::FilterData) => "filter-data",
            Some(SectionKind::Sa) => "suffix-array",
            None => "unknown",
        }
    }
}

/// Typed failure modes for writing, opening and verifying an image.
#[derive(Debug)]
pub enum ImageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file declares a format version this build cannot read.
    BadVersion(u32),
    /// The file is shorter than a declared structure.
    Truncated(&'static str),
    /// A stored checksum did not match the named region.
    BadChecksum(&'static str),
    /// A structural invariant failed (named).
    Corrupt(&'static str),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Io(e) => write!(f, "index image I/O error: {e}"),
            ImageError::BadMagic => write!(f, "not a CASA index image (bad magic)"),
            ImageError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported index image version {v} (supported: {VERSION})"
                )
            }
            ImageError::Truncated(what) => write!(f, "index image truncated: {what}"),
            ImageError::BadChecksum(what) => write!(f, "index image checksum mismatch: {what}"),
            ImageError::Corrupt(what) => write!(f, "index image corrupt: {what}"),
        }
    }
}

impl std::error::Error for ImageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ImageError {
    fn from(e: io::Error) -> Self {
        ImageError::Io(e)
    }
}

/// A pending section's payload, kept in the element type it was handed
/// over in and serialized little-endian only while the image is written,
/// so an owned table moves in without a byte copy beside it.
enum Payload {
    Bytes(Vec<u8>),
    U32s(Vec<u32>),
    U64s(Vec<u64>),
}

/// Words serialized per write call (8 MB of `u64`s). Large writes let
/// the page cache hold a freshly written image in large folios; 64 KB
/// writes made its first full payload verification ~15 % slower
/// (ext4, 200 MB image).
const WRITE_CHUNK_WORDS: usize = 1 << 20;

impl Payload {
    fn byte_len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::U32s(w) => w.len() as u64 * 4,
            Payload::U64s(w) => w.len() as u64 * 8,
        }
    }

    /// [`fnv1a_words_of_bytes`] of the serialized payload.
    fn checksum(&self) -> u64 {
        match self {
            Payload::Bytes(b) => fnv1a_words_of_bytes(b),
            Payload::U64s(w) => fnv1a_words(w),
            Payload::U32s(w) => {
                let mut state = FNV_OFFSET;
                for pair in w.chunks(2) {
                    let hi = pair.get(1).copied().unwrap_or(0);
                    state ^= u64::from(pair[0]) | u64::from(hi) << 32;
                    state = state.wrapping_mul(FNV_PRIME);
                }
                state
            }
        }
    }

    fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut buf = Vec::new();
        match self {
            Payload::Bytes(b) => return w.write_all(b),
            Payload::U32s(words) => {
                for chunk in words.chunks(WRITE_CHUNK_WORDS) {
                    buf.clear();
                    buf.extend(chunk.iter().flat_map(|x| x.to_le_bytes()));
                    w.write_all(&buf)?;
                }
            }
            Payload::U64s(words) => {
                for chunk in words.chunks(WRITE_CHUNK_WORDS) {
                    buf.clear();
                    buf.extend(chunk.iter().flat_map(|x| x.to_le_bytes()));
                    w.write_all(&buf)?;
                }
            }
        }
        Ok(())
    }
}

/// One pending payload section while building an image.
struct PendingSection {
    kind: u32,
    partition: u32,
    payload: Payload,
    elem_count: u64,
}

/// Builds an index image in memory and writes it with
/// [`ImageBuilder::write_file`]. Section payloads are raw bytes or typed
/// words, serialized little-endian on write; the word helpers take
/// ownership of a `Vec` without copying it.
pub struct ImageBuilder {
    config: Vec<u8>,
    sections: Vec<PendingSection>,
}

impl ImageBuilder {
    /// Starts an image carrying an opaque config blob (the seeding
    /// config serialized as JSON by the caller; this layer never parses
    /// it, which keeps the format crate-dependency-free).
    pub fn new(config_blob: &[u8]) -> ImageBuilder {
        ImageBuilder {
            config: config_blob.to_vec(),
            sections: Vec::new(),
        }
    }

    /// Adds a section of raw bytes (used for the packed reference text).
    pub fn add_bytes(&mut self, kind: SectionKind, partition: u32, bytes: &[u8], elem_count: u64) {
        self.push(kind, partition, Payload::Bytes(bytes.to_vec()), elem_count);
    }

    /// Adds a section of `u64` words; a `Vec` moves in uncopied.
    pub fn add_u64s(&mut self, kind: SectionKind, partition: u32, words: impl Into<Vec<u64>>) {
        let words = words.into();
        let count = words.len() as u64;
        self.push(kind, partition, Payload::U64s(words), count);
    }

    /// Adds a section of `u32` words; a `Vec` moves in uncopied.
    pub fn add_u32s(&mut self, kind: SectionKind, partition: u32, words: impl Into<Vec<u32>>) {
        let words = words.into();
        let count = words.len() as u64;
        self.push(kind, partition, Payload::U32s(words), count);
    }

    fn push(&mut self, kind: SectionKind, partition: u32, payload: Payload, elem_count: u64) {
        self.sections.push(PendingSection {
            kind: kind as u32,
            partition,
            payload,
            elem_count,
        });
    }

    /// The fingerprint this image will carry: FNV-1a over the config
    /// blob followed by the reference-text section bytes (if present).
    /// Two images agree on the fingerprint iff they were built from the
    /// same reference and config.
    pub fn fingerprint(&self) -> u64 {
        let mut state = fnv1a_bytes(FNV_OFFSET, &self.config);
        if let Some(Payload::Bytes(bytes)) = self
            .sections
            .iter()
            .find(|s| s.kind == SectionKind::RefText as u32)
            .map(|s| &s.payload)
        {
            state = fnv1a_bytes(state, bytes);
        }
        state
    }

    /// Serializes the image to `w`. Returns the fingerprint.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<u64, ImageError> {
        let page = PAGE_SIZE as u64;
        let meta_off = HEADER_LEN as u64;

        // Metadata block: config, section table, meta checksum.
        let meta_body_len =
            8 + self.config.len() as u64 + self.sections.len() as u64 * ENTRY_LEN as u64;
        let meta_len = meta_body_len + 8;

        // Assign page-aligned payload offsets.
        let mut next = (meta_off + meta_len).div_ceil(page) * page;
        let mut offsets = Vec::with_capacity(self.sections.len());
        for s in &self.sections {
            offsets.push(next);
            next += s.payload.byte_len().div_ceil(page) * page;
        }
        let total_len = next.max(meta_off + meta_len);

        let fingerprint = self.fingerprint();

        // Header.
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&PAGE_SIZE.to_le_bytes());
        header.extend_from_slice(&fingerprint.to_le_bytes());
        header.extend_from_slice(&total_len.to_le_bytes());
        header.extend_from_slice(&meta_off.to_le_bytes());
        header.extend_from_slice(&meta_len.to_le_bytes());
        header.extend_from_slice(&(self.sections.len() as u64).to_le_bytes());
        let header_checksum = fnv1a_bytes(FNV_OFFSET, &header);
        header.extend_from_slice(&header_checksum.to_le_bytes());
        w.write_all(&header)?;

        // Metadata.
        let mut meta = Vec::with_capacity(meta_body_len as usize);
        meta.extend_from_slice(&(self.config.len() as u64).to_le_bytes());
        meta.extend_from_slice(&self.config);
        for (s, &off) in self.sections.iter().zip(&offsets) {
            meta.extend_from_slice(&s.kind.to_le_bytes());
            meta.extend_from_slice(&s.partition.to_le_bytes());
            meta.extend_from_slice(&off.to_le_bytes());
            meta.extend_from_slice(&s.payload.byte_len().to_le_bytes());
            meta.extend_from_slice(&s.elem_count.to_le_bytes());
            meta.extend_from_slice(&0u64.to_le_bytes());
            meta.extend_from_slice(&s.payload.checksum().to_le_bytes());
        }
        let meta_checksum = fnv1a_bytes(FNV_OFFSET, &meta);
        meta.extend_from_slice(&meta_checksum.to_le_bytes());
        w.write_all(&meta)?;

        // Payload sections, zero-padded to page boundaries.
        let mut pos = meta_off + meta_len;
        let zeros = vec![0u8; PAGE_SIZE as usize];
        for (s, &off) in self.sections.iter().zip(&offsets) {
            let mut pad = (off - pos) as usize;
            while pad > 0 {
                let n = pad.min(zeros.len());
                w.write_all(&zeros[..n])?;
                pad -= n;
            }
            s.payload.write_to(w)?;
            pos = off + s.payload.byte_len();
        }
        let mut tail = (total_len - pos) as usize;
        while tail > 0 {
            let n = tail.min(zeros.len());
            w.write_all(&zeros[..n])?;
            tail -= n;
        }
        Ok(fingerprint)
    }

    /// Writes the image to `path` (atomically: temp file + rename).
    pub fn write_file<P: AsRef<Path>>(&self, path: P) -> Result<u64, ImageError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp-image");
        let fingerprint = {
            let file = File::create(&tmp)?;
            let mut w = BufWriter::new(file);
            let fp = self.write_to(&mut w)?;
            w.flush()?;
            w.into_inner()
                .map_err(|e| io::Error::from(e.error().kind()))?
                .sync_all()?;
            fp
        };
        std::fs::rename(&tmp, path)?;
        Ok(fingerprint)
    }
}

/// One verified payload section of an open image.
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Raw kind code (decode with [`SectionKind::from_code`]).
    pub kind: u32,
    /// Partition index this section belongs to (0 for whole-reference
    /// sections).
    pub partition: u32,
    /// Logical element count (bases, words, records — kind-dependent).
    pub elem_count: u64,
    byte_off: usize,
    byte_len: usize,
    checksum: u64,
}

impl SectionInfo {
    /// Section payload offset in the file.
    pub fn byte_off(&self) -> usize {
        self.byte_off
    }

    /// Section payload length in bytes.
    pub fn byte_len(&self) -> usize {
        self.byte_len
    }

    /// Stored word-wise FNV-1a checksum.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// A map-backed typed view: keeps the `Arc<Mmap>` alive and
/// reinterprets a verified byte range on each access.
struct MapWords<T> {
    map: Arc<Mmap>,
    off: usize,
    byte_len: usize,
    _elem: std::marker::PhantomData<fn() -> T>,
}

impl SliceView<u64> for MapWords<u64> {
    fn view(&self) -> &[u64] {
        cast::u64s(&self.map[self.off..self.off + self.byte_len])
            .expect("alignment and length verified when the image was opened")
    }
}

impl SliceView<u32> for MapWords<u32> {
    fn view(&self) -> &[u32] {
        cast::u32s(&self.map[self.off..self.off + self.byte_len])
            .expect("alignment and length verified when the image was opened")
    }
}

/// An open, fully verified index image.
///
/// Opening mmaps the file read-only, validates header, metadata and
/// every section checksum, then hands out zero-copy [`SharedSlice`]
/// views. The mapping stays alive for as long as any view does (each
/// view clones the internal `Arc<Mmap>`), so an `IndexImage` can be
/// dropped once the index structures have been constructed from it.
pub struct IndexImage {
    map: Arc<Mmap>,
    path: PathBuf,
    fingerprint: u64,
    config: Vec<u8>,
    sections: Vec<SectionInfo>,
    /// Whether typed views can borrow the map directly (8-byte-aligned
    /// base). False only on the non-mmap fallback path, where views are
    /// decoded into owned buffers instead.
    aligned: bool,
    /// Whether payload checksums were verified (at open or on demand).
    payloads_verified: bool,
}

impl fmt::Debug for IndexImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexImage")
            .field("path", &self.path)
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("len", &self.map.len())
            .field("sections", &self.sections.len())
            .finish()
    }
}

fn read_u32(bytes: &[u8], off: usize, what: &'static str) -> Result<u32, ImageError> {
    let raw = bytes.get(off..off + 4).ok_or(ImageError::Truncated(what))?;
    Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
}

fn read_u64(bytes: &[u8], off: usize, what: &'static str) -> Result<u64, ImageError> {
    let raw = bytes.get(off..off + 8).ok_or(ImageError::Truncated(what))?;
    Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
}

impl IndexImage {
    /// Opens and fully verifies the image at `path` (every payload
    /// checksum; equivalent to [`VerifyMode::Full`]).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<IndexImage, ImageError> {
        IndexImage::open_with(path, VerifyMode::Full)
    }

    /// Opens the image at `path`, verifying as much as `verify` asks.
    pub fn open_with<P: AsRef<Path>>(
        path: P,
        verify: VerifyMode,
    ) -> Result<IndexImage, ImageError> {
        let path = path.as_ref();
        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        IndexImage::from_map(Arc::new(map), path.to_path_buf(), verify)
    }

    fn from_map(
        map: Arc<Mmap>,
        path: PathBuf,
        verify: VerifyMode,
    ) -> Result<IndexImage, ImageError> {
        let bytes: &[u8] = &map;

        // Header.
        if bytes.len() < HEADER_LEN {
            return Err(ImageError::Truncated("header"));
        }
        if &bytes[..8] != MAGIC {
            return Err(ImageError::BadMagic);
        }
        let version = read_u32(bytes, 8, "header")?;
        if version != VERSION {
            return Err(ImageError::BadVersion(version));
        }
        let page_size = read_u32(bytes, 12, "header")?;
        if page_size == 0 || !page_size.is_power_of_two() {
            return Err(ImageError::Corrupt("page size is not a power of two"));
        }
        let fingerprint = read_u64(bytes, 16, "header")?;
        let total_len = read_u64(bytes, 24, "header")?;
        let meta_off = read_u64(bytes, 32, "header")?;
        let meta_len = read_u64(bytes, 40, "header")?;
        let section_count = read_u64(bytes, 48, "header")?;
        let header_checksum = read_u64(bytes, 56, "header")?;
        if fnv1a_bytes(FNV_OFFSET, &bytes[..56]) != header_checksum {
            return Err(ImageError::BadChecksum("header"));
        }
        if total_len != bytes.len() as u64 {
            return Err(ImageError::Truncated("file shorter than declared length"));
        }

        // Metadata block.
        let meta_end = meta_off
            .checked_add(meta_len)
            .ok_or(ImageError::Corrupt("metadata range overflows"))?;
        if meta_len < 16 || meta_end > total_len {
            return Err(ImageError::Truncated("metadata block"));
        }
        let meta = &bytes[meta_off as usize..meta_end as usize];
        let (meta_body, stored) = meta.split_at(meta.len() - 8);
        let meta_checksum = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
        if fnv1a_bytes(FNV_OFFSET, meta_body) != meta_checksum {
            return Err(ImageError::BadChecksum("metadata"));
        }
        let config_len = read_u64(meta_body, 0, "config length")? as usize;
        let table_off = 8usize
            .checked_add(config_len)
            .ok_or(ImageError::Corrupt("config length overflows"))?;
        let config = meta_body
            .get(8..table_off)
            .ok_or(ImageError::Truncated("config blob"))?
            .to_vec();
        let expected_table = (section_count as usize)
            .checked_mul(ENTRY_LEN)
            .ok_or(ImageError::Corrupt("section count overflows"))?;
        if meta_body.len() != table_off + expected_table {
            return Err(ImageError::Corrupt("section table length mismatch"));
        }

        // Section table + per-section verification.
        let mut sections = Vec::with_capacity(section_count as usize);
        for i in 0..section_count as usize {
            let e = table_off + i * ENTRY_LEN;
            let kind = read_u32(meta_body, e, "section entry")?;
            let partition = read_u32(meta_body, e + 4, "section entry")?;
            let byte_off = read_u64(meta_body, e + 8, "section entry")?;
            let byte_len = read_u64(meta_body, e + 16, "section entry")?;
            let elem_count = read_u64(meta_body, e + 24, "section entry")?;
            let checksum = read_u64(meta_body, e + 40, "section entry")?;
            if byte_off % 8 != 0 {
                return Err(ImageError::Corrupt("section payload not 8-byte aligned"));
            }
            // The checksummed region is the payload padded to a u64
            // multiple; the padding is guaranteed in-file by the
            // page-rounded layout, and must be in range.
            let padded = byte_len
                .checked_add(7)
                .map(|v| v / 8 * 8)
                .ok_or(ImageError::Corrupt("section length overflows"))?;
            let end = byte_off
                .checked_add(padded)
                .ok_or(ImageError::Corrupt("section range overflows"))?;
            if end > total_len {
                return Err(ImageError::Truncated("section payload"));
            }
            sections.push(SectionInfo {
                kind,
                partition,
                elem_count,
                byte_off: byte_off as usize,
                byte_len: byte_len as usize,
                checksum,
            });
        }

        let aligned = (bytes.as_ptr() as usize).is_multiple_of(8);
        let mut image = IndexImage {
            map,
            path,
            fingerprint,
            config,
            sections,
            aligned,
            payloads_verified: false,
        };
        if verify == VerifyMode::Full {
            image.verify_payloads()?;
        }
        Ok(image)
    }

    /// Runs the payload checksums a [`VerifyMode::Meta`] open skipped
    /// (idempotent; a no-op after a [`VerifyMode::Full`] open, which runs
    /// them here too). Each section's region is its payload padded to a
    /// `u64` multiple; the section table checks kept it in the file.
    ///
    /// # Errors
    ///
    /// [`ImageError::BadChecksum`] naming the first mismatching section.
    pub fn verify_payloads(&mut self) -> Result<(), ImageError> {
        if self.payloads_verified {
            return Ok(());
        }
        let bytes: &[u8] = &self.map;
        for s in &self.sections {
            let padded = s.byte_len.div_ceil(8) * 8;
            let region = &bytes[s.byte_off..s.byte_off + padded];
            let computed = match cast::u64s(region) {
                Some(words) => fnv1a_words(words),
                None => fnv1a_words_of_bytes(region),
            };
            if computed != s.checksum {
                return Err(ImageError::BadChecksum("section payload"));
            }
        }
        self.payloads_verified = true;
        Ok(())
    }

    /// Whether payload checksums have been verified.
    pub fn payloads_verified(&self) -> bool {
        self.payloads_verified
    }

    /// Path the image was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Image fingerprint (config + reference content hash).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Total image size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.map.len()
    }

    /// The opaque config blob the image was built with.
    pub fn config_bytes(&self) -> &[u8] {
        &self.config
    }

    /// All verified sections, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Number of partitions covered by per-partition sections.
    pub fn partitions(&self) -> usize {
        self.sections
            .iter()
            .filter(|s| s.kind != SectionKind::RefText as u32)
            .map(|s| s.partition as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Finds a section by kind and partition.
    pub fn find(&self, kind: SectionKind, partition: u32) -> Option<&SectionInfo> {
        self.sections
            .iter()
            .find(|s| s.kind == kind as u32 && s.partition == partition)
    }

    /// Raw payload bytes of a section (zero-copy).
    pub fn section_bytes(&self, section: &SectionInfo) -> &[u8] {
        &self.map[section.byte_off..section.byte_off + section.byte_len]
    }

    /// A zero-copy shared `u64` view of a section. Falls back to an
    /// owned decode when the backing memory is not 8-byte aligned
    /// (non-mmap platforms only).
    pub fn u64_view(&self, kind: SectionKind, partition: u32) -> Option<SharedSlice<u64>> {
        let s = self.find(kind, partition)?;
        if s.byte_len % 8 != 0 {
            return None;
        }
        if self.aligned {
            Some(SharedSlice::new(Arc::new(MapWords::<u64> {
                map: Arc::clone(&self.map),
                off: s.byte_off,
                byte_len: s.byte_len,
                _elem: std::marker::PhantomData,
            })))
        } else {
            let words: Vec<u64> = self
                .section_bytes(s)
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            Some(SharedSlice::new(Arc::new(words)))
        }
    }

    /// A zero-copy shared `u32` view of a section (owned-decode fallback
    /// as for [`IndexImage::u64_view`]).
    pub fn u32_view(&self, kind: SectionKind, partition: u32) -> Option<SharedSlice<u32>> {
        let s = self.find(kind, partition)?;
        if s.byte_len % 4 != 0 {
            return None;
        }
        if self.aligned {
            Some(SharedSlice::new(Arc::new(MapWords::<u32> {
                map: Arc::clone(&self.map),
                off: s.byte_off,
                byte_len: s.byte_len,
                _elem: std::marker::PhantomData,
            })))
        } else {
            let words: Vec<u32> = self
                .section_bytes(s)
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            Some(SharedSlice::new(Arc::new(words)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("casa_image_{}_{}", std::process::id(), name))
    }

    fn sample_builder() -> ImageBuilder {
        let mut b = ImageBuilder::new(br#"{"k":19}"#);
        b.add_bytes(SectionKind::RefText, 0, &[0xAC, 0x1B, 0x33], 12);
        b.add_u64s(SectionKind::CamPlanes, 0, [1, 2, 3, u64::MAX]);
        b.add_u32s(SectionKind::FilterMini, 0, [0, 1, 1, 4]);
        b.add_u32s(SectionKind::Sa, 0, [3, 1, 0, 2]);
        b
    }

    #[test]
    fn roundtrip_preserves_sections_and_fingerprint() {
        let path = tmp("roundtrip.img");
        let b = sample_builder();
        let fp = b.write_file(&path).unwrap();
        let img = IndexImage::open(&path).unwrap();
        assert_eq!(img.fingerprint(), fp);
        assert_eq!(img.config_bytes(), br#"{"k":19}"#);
        assert_eq!(img.sections().len(), 4);
        assert_eq!(img.partitions(), 1);
        let planes = img.u64_view(SectionKind::CamPlanes, 0).unwrap();
        assert_eq!(planes.as_slice(), &[1, 2, 3, u64::MAX]);
        let mini = img.u32_view(SectionKind::FilterMini, 0).unwrap();
        assert_eq!(mini.as_slice(), &[0, 1, 1, 4]);
        let text = img.find(SectionKind::RefText, 0).unwrap();
        assert_eq!(img.section_bytes(text), &[0xAC, 0x1B, 0x33]);
        assert_eq!(text.elem_count, 12);
        // Payloads are page-aligned.
        for s in img.sections() {
            assert_eq!(s.byte_off() % PAGE_SIZE as usize, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn views_outlive_the_image_handle() {
        let path = tmp("outlive.img");
        sample_builder().write_file(&path).unwrap();
        let planes = {
            let img = IndexImage::open(&path).unwrap();
            img.u64_view(SectionKind::CamPlanes, 0).unwrap()
        };
        // The image handle is gone; the view keeps the mapping alive.
        assert_eq!(planes.as_slice(), &[1, 2, 3, u64::MAX]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_truncation_are_typed_errors() {
        let path = tmp("badmagic.img");
        sample_builder().write_file(&path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[0] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(IndexImage::open(&path), Err(ImageError::BadMagic)));

        raw[0] ^= 0xFF; // restore
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        assert!(matches!(
            IndexImage::open(&path),
            Err(ImageError::Truncated(_))
        ));
        std::fs::write(&path, &raw[..40]).unwrap();
        assert!(matches!(
            IndexImage::open(&path),
            Err(ImageError::Truncated(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_bit_flip_fails_section_checksum() {
        let path = tmp("flip.img");
        let b = sample_builder();
        b.write_file(&path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a bit inside the first payload page.
        let off = PAGE_SIZE as usize + 2;
        raw[off] ^= 0x10;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            IndexImage::open(&path),
            Err(ImageError::BadChecksum(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_bit_flip_fails_header_checksum() {
        let path = tmp("hdrflip.img");
        sample_builder().write_file(&path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[17] ^= 0x01; // inside the fingerprint field
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            IndexImage::open(&path),
            Err(ImageError::BadChecksum("header"))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn meta_open_defers_payload_checksums_but_catches_them_on_demand() {
        let path = tmp("metamode.img");
        sample_builder().write_file(&path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let off = PAGE_SIZE as usize + 2;
        raw[off] ^= 0x10; // corrupt a payload byte
        std::fs::write(&path, &raw).unwrap();
        // Full open rejects; Meta open succeeds (structure intact) but
        // an on-demand payload verification still catches the flip.
        assert!(matches!(
            IndexImage::open(&path),
            Err(ImageError::BadChecksum(_))
        ));
        let mut img = IndexImage::open_with(&path, VerifyMode::Meta).unwrap();
        assert!(!img.payloads_verified());
        assert!(matches!(
            img.verify_payloads(),
            Err(ImageError::BadChecksum(_))
        ));
        // Header/meta damage is rejected even in Meta mode.
        raw[off] ^= 0x10; // restore payload
        raw[17] ^= 0x01; // corrupt the header fingerprint field
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            IndexImage::open_with(&path, VerifyMode::Meta),
            Err(ImageError::BadChecksum("header"))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let path = tmp("version.img");
        sample_builder().write_file(&path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[8] = 0xFE; // version field
                       // Re-seal the header checksum so only the version check fires.
        let sum = super::fnv1a_bytes(super::FNV_OFFSET, &raw[..56]);
        raw[56..64].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            IndexImage::open(&path),
            Err(ImageError::BadVersion(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
