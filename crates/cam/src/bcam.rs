//! Binary CAM array model with wildcard queries, entry gating and activity
//! accounting.
//!
//! Models the match-line behaviour of the NOR-type 10T BCAM of the paper's
//! Fig. 4: a search compares the query word against every *enabled* entry
//! in parallel and raises one match line per fully matching entry. Energy
//! scales with the number of enabled rows (selective enabling is CASA's
//! central power-saving trick, §4.1); the simulator therefore counts
//! enabled rows, searches, and match events.
//!
//! Searches are evaluated by a **bit-parallel kernel**: construction
//! precomputes, for every (column, base) pair, a bitset over the entries
//! storing that base at that column, and a search ANDs the driven columns'
//! planes with its candidate entries 64 entries per `u64` word — the
//! software analogue of the hardware's parallel match lines. Candidates
//! come in two forms, each with one search:
//!
//! * an **enable mask** ([`EntryMask`]), for searches that power whole
//!   groups. [`Bcam::load_mask`] clips it to the entries and books its
//!   rows, arrays and nonzero word span once; each
//!   [`Bcam::search_loaded_into`] over it is one fused column walk
//!   ([`KernelOps::match_cols`]) across that span.
//!   [`Bcam::search_into`] and [`Bcam::search_batch_into`] load and search
//!   in one call.
//! * a **sorted entry list**, for searches that power a few chosen rows —
//!   the successors of the last hits under DFF-based selective enabling
//!   (paper §4.1). [`Bcam::search_list_into`] touches only the words
//!   holding a candidate, so it costs what its candidates cost.
//!
//! Both end in the same fault-aware hit extraction. The original
//! entry-at-a-time walk is kept as [`Bcam::search_scalar`], the
//! verification oracle; every search produces the hits and [`CamStats`]
//! it would over the equivalent mask.
//!
//! A [`Bcam`] is only read by searches: what a search writes lives in a
//! caller-owned [`CamScratch`] and [`CamStats`], so any number of threads
//! can search one CAM at once.

use casa_genome::mix::{coin, site_hash};
use casa_genome::shared::{SharedSlice, SliceStore};
use casa_genome::{Base, PackedSeq};
use serde::{Deserialize, Serialize};

use crate::kernel::{self, KernelBackend, KernelOps};
use crate::EntryMask;

/// One query symbol: a concrete base or the wildcard `X` that matches any
/// base (implemented in hardware by driving both search lines low).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Symbol {
    /// Match this base exactly.
    Base(Base),
    /// Match any base (padding, paper Fig. 7).
    Any,
}

/// A search word for the CAM: up to `entry_bases` symbols, compared
/// left-aligned against each entry. Columns beyond the query length are
/// masked off (not driven).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CamQuery {
    symbols: Vec<Symbol>,
}

impl CamQuery {
    /// Builds a query from symbols.
    pub fn new(symbols: Vec<Symbol>) -> CamQuery {
        CamQuery { symbols }
    }

    /// Builds a query of `pad` wildcards followed by
    /// `read[from..from+len]` (the padded search of Fig. 6c / Fig. 7).
    ///
    /// # Panics
    ///
    /// Panics if `from + len > read.len()`.
    pub fn padded(read: &PackedSeq, from: usize, len: usize, pad: usize) -> CamQuery {
        let mut q = CamQuery::default();
        q.fill_padded(read, from, len, pad);
        q
    }

    /// Refills this query in place with `pad` wildcards followed by
    /// `read[from..from+len]` — the allocation-free form of
    /// [`CamQuery::padded`] for hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `from + len > read.len()`.
    pub fn fill_padded(&mut self, read: &PackedSeq, from: usize, len: usize, pad: usize) {
        assert!(from + len <= read.len(), "query range out of bounds");
        self.symbols.clear();
        self.symbols.reserve(pad + len);
        self.symbols.extend(std::iter::repeat_n(Symbol::Any, pad));
        self.symbols
            .extend((from..from + len).map(|i| Symbol::Base(read.base(i))));
    }

    /// The query symbols.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Query length in symbols.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the query has no symbols (matches every enabled entry).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Number of non-wildcard symbols (driven columns).
    pub fn driven_columns(&self) -> usize {
        self.symbols
            .iter()
            .filter(|s| matches!(s, Symbol::Base(_)))
            .count()
    }
}

/// Cumulative activity counters of a CAM instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CamStats {
    /// Number of search operations issued.
    pub searches: u64,
    /// Total rows enabled across all searches (the energy proxy).
    pub rows_enabled: u64,
    /// Distinct 256-row physical arrays touched across all searches
    /// (each powers its peripherals — precharge, sense amps — once per
    /// search regardless of how many of its rows are enabled).
    pub arrays_activated: u64,
    /// Total match-line assertions (matches found).
    pub matches: u64,
}

impl CamStats {
    /// Adds another stats snapshot into this one.
    pub fn merge(&mut self, other: &CamStats) {
        self.searches += other.searches;
        self.rows_enabled += other.rows_enabled;
        self.arrays_activated += other.arrays_activated;
        self.matches += other.matches;
    }
}

/// Rows per physical CAM array (Table 3 macros are 256 rows tall).
pub const ROWS_PER_ARRAY: usize = 256;

// The bit-parallel kernel assumes a mask word never straddles two physical
// arrays when deriving `arrays_activated` from candidate words.
const _: () = assert!(ROWS_PER_ARRAY.is_multiple_of(64));

/// Mask words per physical array (see `ROWS_PER_ARRAY` const assert).
const WORDS_PER_ARRAY: usize = ROWS_PER_ARRAY / 64;

/// Reads bit `i` of an entry bitmask.
#[inline]
fn mask_bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Sets bit `i` of an entry bitmask.
#[inline]
fn set_mask_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Word bounds `[lo, hi)` of the nonzero candidate words — `(0, 0)` when
/// every word is zero. A zero candidate word can never contribute a hit:
/// match lines are a subset of the candidates, and the stuck-at override
/// formula ANDs with the candidate word. Restricting the column walk and
/// hit extraction to this span is therefore exact, and pays off hugely on
/// the chase and binary-probe searches, whose masks enable a handful of
/// adjacent entries out of the whole partition.
#[inline]
fn word_span(words: &[u64]) -> (usize, usize) {
    match words.iter().position(|&w| w != 0) {
        None => (0, 0),
        Some(lo) => {
            let hi = words.iter().rposition(|&w| w != 0).unwrap_or(lo) + 1;
            (lo, hi)
        }
    }
}

/// Appends the entry index of every set bit of match-line word `w`,
/// ascending.
#[inline]
fn push_hits(hits: &mut Vec<u32>, w: usize, mut word: u64) {
    while word != 0 {
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        hits.push((w * 64 + bit) as u32);
    }
}

/// Seeded fault model for one CAM instance.
///
/// Fault sites are chosen by hashing `(seed, site coordinates)` with
/// [`casa_genome::mix::site_hash`], so the same model always corrupts the
/// same cells — reproducible regardless of thread scheduling or search
/// order. Two physical fault classes are modelled (the same classes
/// BioSEAL/ASMCap budget redundancy for):
///
/// * **stuck-at match lines** — an entry whose match line is stuck low
///   never reports a match; stuck high, it always does;
/// * **cell bit flips** — a stored base has one bit of its 2-bit code
///   flipped, silently corrupting every search that touches it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CamFaultModel {
    /// Seed for site selection.
    pub seed: u64,
    /// Per-entry probability of a stuck-at match line.
    pub stuck_rate: f64,
    /// Per-stored-base probability of a bit flip.
    pub flip_rate: f64,
}

/// The concrete fault sites a [`CamFaultModel`] produced, for reporting and
/// determinism checks. All vectors are sorted ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CamFaultReport {
    /// Entries whose match line is stuck low (never match).
    pub stuck_zero: Vec<u32>,
    /// Entries whose match line is stuck high (always match).
    pub stuck_one: Vec<u32>,
    /// Base positions whose stored code had a bit flipped.
    pub flipped_bases: Vec<u32>,
}

impl CamFaultReport {
    /// Total number of injected fault sites.
    pub fn sites(&self) -> usize {
        self.stuck_zero.len() + self.stuck_one.len() + self.flipped_bases.len()
    }
}

// Domain tags keep the stuck-at and bit-flip site streams independent even
// when an entry index and a base position collide numerically.
const DOMAIN_CAM_STUCK: u64 = 0x11;
const DOMAIN_CAM_FLIP: u64 = 0x12;

/// A binary CAM storing a DNA sequence as consecutive non-overlapped
/// entries of `entry_bases` bases each (paper §3 "Non-overlapped Storage").
///
/// Entry `e` holds `seq[e·s .. (e+1)·s)`; the final entry may be shorter.
///
/// ```
/// use casa_genome::PackedSeq;
/// use casa_cam::{Bcam, CamQuery, CamStats, EntryMask};
///
/// let seq = PackedSeq::from_ascii(b"AACATTGTCACTTTCATAAC")?; // Fig. 10 CAM
/// let cam = Bcam::new(&seq, 5);
/// assert_eq!(cam.entries(), 4);
/// // Search TGTCA with no padding: matches entry 1 exactly.
/// let q = CamQuery::padded(&seq, 5, 5, 0);
/// let mut stats = CamStats::default();
/// let hits = cam.search(&q, &EntryMask::all(4), &mut stats);
/// assert_eq!(hits, vec![1]);
/// assert_eq!(stats.rows_enabled, 4);
/// # Ok::<(), casa_genome::ParseBaseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Bcam {
    seq: PackedSeq,
    entry_bases: usize,
    /// Stuck-at match lines as entry bitmasks (bit `e % 64` of word
    /// `e / 64`), the same word layout as [`EntryMask`] and the planes.
    stuck_zero: Vec<u64>,
    stuck_one: Vec<u64>,
    /// Bit planes: `planes[(col * 4 + base) * ewords + w]` holds one bit
    /// per entry whose stored base at column `col` is `base`. Entries past
    /// the end of `seq` (the final short entry's missing columns) have no
    /// bit in any plane of those columns, so a driven column there can
    /// never match — exactly the scalar `entry_matches` semantics.
    ///
    /// Either heap-owned (built in process) or a shared view into a
    /// mapped index image; fault injection converts shared planes to
    /// owned on first mutation (copy-on-write).
    planes: SliceStore<u64>,
    /// Words per entry bitset (`entries().div_ceil(64)`).
    ewords: usize,
    /// Whether any stuck-at fault site exists. When false, hit extraction
    /// can skip the stuck-at override formula (it degenerates to the
    /// match-line words themselves).
    has_stuck: bool,
}

/// An enable mask loaded for searching: its words clipped to one CAM's
/// entry range, with the activity every search over them books. Built by
/// [`Bcam::load_mask`] and consumed by [`Bcam::search_loaded_into`], so a
/// mask shared by many searches is clipped, counted and scanned once.
///
/// The buffer is reusable: loading again overwrites it in place.
#[derive(Clone, Debug, Default)]
pub struct LoadedMask {
    /// Candidate (enabled ∩ in-range) words.
    words: Vec<u64>,
    /// Entry count of the CAM this mask was loaded for.
    entries: usize,
    /// Enabled rows (the mask's full popcount, in range or not).
    rows: u64,
    /// Distinct 256-row arrays holding a candidate.
    arrays: u64,
    /// Nonzero candidate word span `[lo, hi)` (see [`word_span`]).
    lo: usize,
    hi: usize,
}

impl LoadedMask {
    /// Clips the candidate words to `entries` and books what every search
    /// over them costs: `rows` enabled rows, the activated arrays and the
    /// nonzero word span. The one tail of [`Bcam::load_mask`] and
    /// [`Bcam::load_groups`].
    fn seal(&mut self, entries: usize, rows: u64) {
        let n = self.words.len();
        if n * 64 > entries {
            let tail = entries - (n - 1) * 64;
            self.words[n - 1] &= (1u64 << tail) - 1;
        }
        (self.lo, self.hi) = word_span(&self.words);
        self.entries = entries;
        self.rows = rows;
        // Peripheral activation: one per 256-row array holding a
        // candidate. Words never straddle arrays, so each aligned chunk
        // of words is one array.
        self.arrays = self
            .words
            .chunks(WORDS_PER_ARRAY)
            .filter(|array| array.iter().any(|&w| w != 0))
            .count() as u64;
    }
}

/// What a mask search writes — match-line words and a loaded mask — and
/// the word kernel that computes them. One per searching thread, for CAMs
/// of any size; contents are meaningless between searches.
#[derive(Clone, Debug)]
pub struct CamScratch {
    ops: &'static KernelOps,
    matchline: Vec<u64>,
    loaded: LoadedMask,
}

impl CamScratch {
    /// Scratch on `backend`'s word kernel; an unsupported backend falls
    /// back to the best supported one (see [`KernelBackend::ops`]).
    pub fn new(backend: KernelBackend) -> CamScratch {
        CamScratch {
            ops: backend.ops(),
            matchline: Vec::new(),
            loaded: LoadedMask::default(),
        }
    }

    /// The effective kernel backend.
    pub fn kernel_backend(&self) -> KernelBackend {
        self.ops.backend()
    }
}

/// Scratch on the process-default kernel ([`kernel::default_backend`]).
impl Default for CamScratch {
    fn default() -> CamScratch {
        CamScratch::new(kernel::default_backend())
    }
}

impl Bcam {
    /// Loads `seq` into a CAM with `entry_bases` bases per entry.
    ///
    /// # Panics
    ///
    /// Panics if `entry_bases == 0`.
    pub fn new(seq: &PackedSeq, entry_bases: usize) -> Bcam {
        assert!(entry_bases > 0, "entry_bases must be positive");
        let ewords = seq.len().div_ceil(entry_bases).div_ceil(64);
        let mut cam = Bcam {
            seq: seq.clone(),
            entry_bases,
            stuck_zero: vec![0; ewords],
            stuck_one: vec![0; ewords],
            planes: Vec::new().into(),
            ewords,
            has_stuck: false,
        };
        cam.rebuild_planes();
        cam
    }

    /// Reassembles a CAM from `seq` plus prebuilt bit planes — the
    /// zero-copy image-loading path. The planes stay shared (typically
    /// mmap-backed) until a mutation (bit-flip fault injection) detaches
    /// them; everything else behaves exactly as after [`Bcam::new`].
    ///
    /// Fails if the plane array does not have the shape `rebuild_planes`
    /// would produce for this sequence and stride.
    pub fn from_shared_planes(
        seq: &PackedSeq,
        entry_bases: usize,
        planes: SharedSlice<u64>,
    ) -> Result<Bcam, &'static str> {
        if entry_bases == 0 {
            return Err("entry_bases must be positive");
        }
        let ewords = seq.len().div_ceil(entry_bases).div_ceil(64);
        if planes.as_slice().len() != entry_bases * 4 * ewords {
            return Err("CAM plane array has the wrong shape for this sequence");
        }
        Ok(Bcam {
            seq: seq.clone(),
            entry_bases,
            stuck_zero: vec![0; ewords],
            stuck_one: vec![0; ewords],
            planes: planes.into(),
            ewords,
            has_stuck: false,
        })
    }

    /// The raw bit-plane words (the image writer serializes these).
    pub fn planes(&self) -> &[u64] {
        self.planes.as_slice()
    }

    /// Whether the planes are backed by shared (mapped) storage.
    pub fn planes_shared(&self) -> bool {
        self.planes.is_shared()
    }

    /// Recomputes the per-(column, base) bit planes from the stored
    /// sequence. Called at construction and after bit-flip fault injection
    /// mutates `seq` (detaching shared planes first, copy-on-write).
    fn rebuild_planes(&mut self) {
        let ewords = self.ewords;
        let entry_bases = self.entry_bases;
        let n_entries = self.entries();
        let planes = self.planes.to_mut();
        planes.clear();
        planes.resize(entry_bases * 4 * ewords, 0);
        for e in 0..n_entries {
            let base_offset = e * entry_bases;
            let cols = entry_bases.min(self.seq.len() - base_offset);
            let (w, bit) = (e / 64, e % 64);
            for col in 0..cols {
                let b = self.seq.base(base_offset + col).code() as usize;
                planes[(col * 4 + b) * ewords + w] |= 1 << bit;
            }
        }
    }

    /// Injects seeded faults into this CAM and returns the chosen sites.
    ///
    /// Stuck-at entries are recorded and override match-line behaviour in
    /// [`Bcam::search`]; bit flips mutate the stored sequence in place (the
    /// corruption is silent — searches, [`Bcam::entry_matches`] and
    /// [`Bcam::seq`] all see the flipped bases). Calling this again adds
    /// further stuck-at sites and flips on top of the existing ones.
    pub fn inject_faults(&mut self, model: &CamFaultModel) -> CamFaultReport {
        let mut report = CamFaultReport::default();
        for e in 0..self.entries() {
            let h = site_hash(model.seed, &[DOMAIN_CAM_STUCK, e as u64]);
            if coin(h, model.stuck_rate) {
                // Reuse a high hash bit to pick the stuck polarity.
                if h & (1 << 7) == 0 {
                    set_mask_bit(&mut self.stuck_zero, e);
                    report.stuck_zero.push(e as u32);
                } else {
                    set_mask_bit(&mut self.stuck_one, e);
                    report.stuck_one.push(e as u32);
                }
                self.has_stuck = true;
            }
        }
        if model.flip_rate > 0.0 {
            // Ascending site scan, so the report is sorted by construction.
            let flips: Vec<usize> = (0..self.seq.len())
                .filter(|&i| {
                    coin(
                        site_hash(model.seed, &[DOMAIN_CAM_FLIP, i as u64]),
                        model.flip_rate,
                    )
                })
                .collect();
            if !flips.is_empty() {
                let mut next = 0usize;
                self.seq = self
                    .seq
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        if next < flips.len() && flips[next] == i {
                            next += 1;
                            Base::from_code(b.code() ^ 1)
                        } else {
                            b
                        }
                    })
                    .collect();
                report.flipped_bases = flips.into_iter().map(|i| i as u32).collect();
                self.rebuild_planes();
            }
        }
        report
    }

    /// Number of entries (rows).
    pub fn entries(&self) -> usize {
        self.seq.len().div_ceil(self.entry_bases)
    }

    /// Bases per entry (the stride `s`).
    pub fn entry_bases(&self) -> usize {
        self.entry_bases
    }

    /// The stored sequence.
    pub fn seq(&self) -> &PackedSeq {
        &self.seq
    }

    /// Searches the CAM on the process-default kernel: returns the
    /// indices of enabled entries that match `query`, ascending, and books
    /// one search and `enabled.count()` enabled rows into `stats`.
    ///
    /// An entry matches if every driven query column equals the entry's
    /// base at that column; querying past the end of the stored sequence
    /// (final short entry) mismatches on driven columns.
    pub fn search(&self, query: &CamQuery, enabled: &EntryMask, stats: &mut CamStats) -> Vec<u32> {
        let mut hits = Vec::new();
        self.search_into(query, enabled, &mut CamScratch::default(), stats, &mut hits);
        hits
    }

    /// [`Bcam::search`] on `scratch`'s kernel into a caller-provided hit
    /// buffer (cleared first) — the allocation-free form for hot loops.
    pub fn search_into(
        &self,
        query: &CamQuery,
        enabled: &EntryMask,
        scratch: &mut CamScratch,
        stats: &mut CamStats,
        hits: &mut Vec<u32>,
    ) {
        let mut loaded = std::mem::take(&mut scratch.loaded);
        self.load_mask(enabled, &mut loaded);
        self.search_loaded_into(query, &loaded, scratch, stats, hits);
        scratch.loaded = loaded;
    }

    /// Searches `queries` against a shared enable mask on the
    /// process-default kernel, returning the activity booked. `hits` is
    /// resized to `queries.len()`; hits and [`CamStats`] are bit-identical
    /// to calling [`Bcam::search_into`] once per query in order.
    ///
    /// The mask is loaded once for the whole call (see
    /// [`Bcam::load_mask`]); each query then books the identical counter
    /// increments, so the integer sums (and therefore [`CamStats`]) are
    /// unchanged.
    pub fn search_batch_into(
        &self,
        queries: &[CamQuery],
        enabled: &EntryMask,
        hits: &mut Vec<Vec<u32>>,
    ) -> CamStats {
        hits.resize_with(queries.len(), Vec::new);
        let mut scratch = CamScratch::default();
        let mut stats = CamStats::default();
        let mut loaded = LoadedMask::default();
        self.load_mask(enabled, &mut loaded);
        for (q, out) in queries.iter().zip(hits.iter_mut()) {
            self.search_loaded_into(q, &loaded, &mut scratch, &mut stats, out);
        }
        stats
    }

    /// Loads `enabled` into `out` for [`Bcam::search_loaded_into`]: the
    /// enabled words clipped to the entry range, the enabled-row count,
    /// the activated arrays and the nonzero word span — the mask-dependent
    /// work of a search, done once however many searches share the mask.
    /// A mask may be shorter or longer than the entry count; out-of-range
    /// enabled bits cost `rows_enabled` but never participate.
    pub fn load_mask(&self, enabled: &EntryMask, out: &mut LoadedMask) {
        let mwords = enabled.words();
        out.words.clear();
        out.words
            .extend_from_slice(&mwords[..self.ewords.min(mwords.len())]);
        out.seal(self.entries(), enabled.count() as u64);
    }

    /// Loads the groups `group_bits` powers under `scheme` into `out` —
    /// what [`Bcam::load_mask`] makes of
    /// [`GroupScheme::mask_for_indicator`]`(group_bits, self.entries())`,
    /// without building that mask. Entry `e` sits in group `e mod G`, so
    /// the enabled words repeat every `G / gcd(G, 64)` words: one period
    /// is set by stepping `G` from each set group and tiled over the CAM,
    /// and the enabled-row count is the sum of per-group counts
    /// ([`GroupScheme::enabled_count`]). Group bits at or above `G` power
    /// nothing.
    pub fn load_groups(&self, scheme: &GroupScheme, group_bits: u32, out: &mut LoadedMask) {
        let groups = scheme.groups;
        let n = self.ewords;
        // G / gcd(G, 64) words; 64 is a power of two, so the gcd is the
        // power of two dividing G, capped at 64.
        let period = (groups >> groups.trailing_zeros().min(6)).min(n);
        out.words.clear();
        out.words.resize(n, 0);
        let mut bits = group_bits;
        while bits != 0 {
            let g = bits.trailing_zeros() as usize;
            if g >= groups {
                break;
            }
            bits &= bits - 1;
            for e in (g..period * 64).step_by(groups) {
                set_mask_bit(&mut out.words, e);
            }
        }
        for w in period..n {
            out.words[w] = out.words[w - period];
        }
        let entries = self.entries();
        out.seal(entries, scheme.enabled_count(group_bits, entries) as u64);
    }

    /// [`Bcam::search_into`] over a mask already loaded by
    /// [`Bcam::load_mask`]: hits and [`CamStats`] are identical to
    /// searching the mask itself. One fused kernel call runs the whole
    /// column walk — ml = candidates AND every driven plane, with the
    /// early exit on a dead line — inside the nonzero candidate span;
    /// shifting the plane base by `lo` keeps each plane row's window
    /// aligned with the clipped slices.
    ///
    /// # Panics
    ///
    /// Panics if `loaded` was loaded by a CAM with a different entry count.
    pub fn search_loaded_into(
        &self,
        query: &CamQuery,
        loaded: &LoadedMask,
        scratch: &mut CamScratch,
        stats: &mut CamStats,
        hits: &mut Vec<u32>,
    ) {
        assert_eq!(
            loaded.entries,
            self.entries(),
            "mask loaded for a CAM of another size"
        );
        stats.searches += 1;
        stats.rows_enabled += loaded.rows;
        stats.arrays_activated += loaded.arrays;
        hits.clear();
        let (lo, hi) = (loaded.lo, loaded.hi);
        // The column walk writes every match-line word it later reads, so
        // the scratch only needs to be long enough.
        if scratch.matchline.len() < hi {
            scratch.matchline.resize(hi, 0);
        }
        let ml = &mut scratch.matchline[lo..hi];
        // A query wider than an entry matches nothing stored (the scalar
        // oracle bails at column `entry_bases`); its line is dead from the
        // start and only stuck-one overrides can still fire.
        let any = if query.len() <= self.entry_bases && lo < hi {
            scratch.ops.match_cols(
                ml,
                &loaded.words[lo..hi],
                &self.planes[lo..],
                self.ewords,
                query.symbols(),
            )
        } else {
            ml.fill(0);
            0
        };
        let ml = &scratch.matchline[lo..hi];
        if !self.has_stuck {
            // Fault-free fast path: the override formula degenerates to
            // `cand & ml`, and ml ⊆ cand by construction, so the
            // match-line words *are* the hits — and a dead line
            // (any == 0) has none at all.
            if any != 0 {
                for (w, &mlw) in ml.iter().enumerate() {
                    push_hits(hits, lo + w, mlw);
                }
            }
        } else {
            for (w, &mlw) in (lo..hi).zip(ml.iter()) {
                push_hits(hits, w, self.stuck_override(w, loaded.words[w], mlw));
            }
        }
        stats.matches += hits.len() as u64;
    }

    /// Searches only the entries listed in `candidates` — strictly
    /// ascending entry indices — as DFF-based selective enabling does for
    /// the successors of the last hits (paper §4.1). Hits and
    /// [`CamStats`] are identical to [`Bcam::search_into`] over a mask
    /// with exactly those bits set, but the work is proportional to the
    /// candidates, not to the CAM: each word holding a candidate is
    /// evaluated alone (candidate bits AND each driven column's plane
    /// word, stopping at a dead line), and no other word is touched.
    /// Listed entries at or past [`Bcam::entries`] cost `rows_enabled`
    /// but never participate, as out-of-range mask bits do. No match-line
    /// scratch is needed: each word's line lives in a register.
    pub fn search_list_into(
        &self,
        query: &CamQuery,
        candidates: &[u32],
        stats: &mut CamStats,
        hits: &mut Vec<u32>,
    ) {
        debug_assert!(
            candidates.windows(2).all(|p| p[0] < p[1]),
            "candidate list must be strictly ascending"
        );
        stats.searches += 1;
        stats.rows_enabled += candidates.len() as u64;
        hits.clear();
        let entries = self.entries() as u32;
        let in_range = &candidates[..candidates.partition_point(|&e| e < entries)];
        // See `search_loaded_into`: an over-wide query leaves every line
        // dead.
        let fits = query.len() <= self.entry_bases;
        let mut last_array = usize::MAX;
        let mut rest = in_range;
        while let Some(&first) = rest.first() {
            let w = first as usize / 64;
            let in_word = rest.partition_point(|&e| e as usize / 64 == w);
            let cand = rest[..in_word]
                .iter()
                .fold(0u64, |acc, &e| acc | 1 << (e % 64));
            rest = &rest[in_word..];
            let array = w / WORDS_PER_ARRAY;
            if array != last_array {
                stats.arrays_activated += 1;
                last_array = array;
            }
            let mut ml = if fits { cand } else { 0 };
            for (col, sym) in query.symbols().iter().enumerate() {
                if ml == 0 {
                    break;
                }
                if let Symbol::Base(b) = sym {
                    ml &= self.planes[(col * 4 + b.code() as usize) * self.ewords + w];
                }
            }
            let word = if self.has_stuck {
                self.stuck_override(w, cand, ml)
            } else {
                ml
            };
            push_hits(hits, w, word);
        }
        stats.matches += hits.len() as u64;
    }

    /// Applies the stuck-at match lines of word `w` to the match-line word
    /// `ml` over the candidate word `cand`: stuck-zero beats stuck-one
    /// beats mismatch.
    #[inline]
    fn stuck_override(&self, w: usize, cand: u64, ml: u64) -> u64 {
        (cand & !self.stuck_zero[w]) & (self.stuck_one[w] | ml)
    }

    /// [`Bcam::search`] through the scalar entry-at-a-time walk — the
    /// verification oracle the bit-parallel kernel is tested against.
    /// Books the same activity counters as `search`.
    pub fn search_scalar(
        &self,
        query: &CamQuery,
        enabled: &EntryMask,
        stats: &mut CamStats,
    ) -> Vec<u32> {
        stats.searches += 1;
        stats.rows_enabled += enabled.count() as u64;
        // The original reference evaluation: walk enabled entries one by
        // one, comparing column by column through `entry_matches`.
        let entries = self.entries();
        let mut hits = Vec::new();
        let mut last_array = usize::MAX;
        for e in enabled.iter_ones().take_while(|&e| e < entries) {
            let array = e / ROWS_PER_ARRAY;
            if array != last_array {
                stats.arrays_activated += 1;
                last_array = array;
            }
            // Stuck-at match lines override the comparison outcome.
            if !mask_bit(&self.stuck_zero, e)
                && (mask_bit(&self.stuck_one, e) || self.entry_matches(e, query))
            {
                hits.push(e as u32);
            }
        }
        stats.matches += hits.len() as u64;
        hits
    }

    /// Whether entry `e` matches `query` (no activity recorded; used by the
    /// simulator for assertions and by `search`).
    pub fn entry_matches(&self, e: usize, query: &CamQuery) -> bool {
        let base_offset = e * self.entry_bases;
        for (i, sym) in query.symbols().iter().enumerate() {
            if i >= self.entry_bases {
                return false; // query wider than an entry
            }
            if let Symbol::Base(b) = sym {
                match self.seq.get(base_offset + i) {
                    Some(stored) if stored == *b => {}
                    _ => return false,
                }
            }
        }
        true
    }
}

/// Round-robin grouping of CAM entries for group-level power gating
/// (paper §3 "CAM Grouping": only groups whose indicator bit is set are
/// activated).
///
/// Entry `e` belongs to group `e mod groups`, so a reference position `x`
/// (entry `x / s`) lands in group `(x / s) mod groups`. The paper sketches
/// the indicator as a function of `x` with 20 groups; entry-granular
/// round-robin is the realizable layout (an entry holds 40 consecutive
/// bases and must live in exactly one group).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupScheme {
    /// Number of groups (the paper uses 20).
    pub groups: usize,
}

impl GroupScheme {
    /// Creates a scheme of `groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero.
    pub fn new(groups: usize) -> GroupScheme {
        assert!(groups > 0, "groups must be positive");
        GroupScheme { groups }
    }

    /// Group of entry `e`.
    pub fn group_of_entry(&self, e: usize) -> usize {
        e % self.groups
    }

    /// Enables every entry of every group whose indicator bit is set —
    /// entry by entry, the oracle of [`Bcam::load_groups`].
    pub fn mask_for_indicator(&self, indicator: u32, total_entries: usize) -> EntryMask {
        let mut mask = EntryMask::new(total_entries);
        for e in 0..total_entries {
            if indicator & (1 << self.group_of_entry(e)) != 0 {
                mask.set(e);
            }
        }
        mask
    }

    /// Number of entries enabled by `indicator` out of `total_entries`
    /// (cheap count without building a mask).
    pub fn enabled_count(&self, indicator: u32, total_entries: usize) -> usize {
        (0..self.groups)
            .filter(|g| indicator & (1 << g) != 0)
            .map(|g| {
                // entries with e % groups == g
                if g < total_entries % self.groups {
                    total_entries / self.groups + 1
                } else {
                    total_entries / self.groups
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn paper_fig10_layout() {
        // Fig. 10 stores AACAT | TGTCA | CTTTC | ATAAC in 5-base entries.
        let cam = Bcam::new(&seq("AACATTGTCACTTTCATAAC"), 5);
        assert_eq!(cam.entries(), 4);
        let q = CamQuery::new(
            "CTTTC"
                .chars()
                .map(|c| Symbol::Base(Base::try_from(c).unwrap()))
                .collect(),
        );
        assert!(cam.entry_matches(2, &q));
        assert!(!cam.entry_matches(0, &q));
    }

    #[test]
    fn padded_query_matches_mid_entry_kmer() {
        // TCAT spans entry 2 of Fig. 10's example read at offset 1:
        // entry "CTTTC": no. Use TGTCA entry: k-mer "GTC" at offset 1
        // needs one leading wildcard.
        let s = seq("AACATTGTCACTTTCATAAC");
        let cam = Bcam::new(&s, 5);
        let read = seq("GTC");
        let q = CamQuery::padded(&read, 0, 3, 1);
        assert_eq!(q.len(), 4);
        assert_eq!(q.driven_columns(), 3);
        let hits = cam.search(&q, &EntryMask::all(4), &mut CamStats::default());
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn disabled_entries_never_match_and_energy_tracks_enabled_rows() {
        let s = seq("ACGTACGTACGTACGT");
        let cam = Bcam::new(&s, 4); // 4 identical entries
        let q = CamQuery::padded(&s, 0, 4, 0);
        let mut st = CamStats::default();
        let all = cam.search(&q, &EntryMask::all(4), &mut st);
        assert_eq!(all, vec![0, 1, 2, 3]);
        let mut two = EntryMask::new(4);
        two.set(1);
        two.set(3);
        let some = cam.search(&q, &two, &mut st);
        assert_eq!(some, vec![1, 3]);
        assert_eq!(st.searches, 2);
        assert_eq!(st.rows_enabled, 6); // 4 + 2
        assert_eq!(st.matches, 6);
        assert_eq!(st.arrays_activated, 2); // all entries fit one array
    }

    #[test]
    fn query_past_sequence_end_mismatches() {
        let s = seq("ACGTAC"); // entries: ACGT, AC
        let cam = Bcam::new(&s, 4);
        let mut st = CamStats::default();
        let q = CamQuery::padded(&seq("ACGG"), 0, 4, 0);
        assert_eq!(
            cam.search(&q, &EntryMask::all(2), &mut st),
            Vec::<u32>::new()
        );
        // entry 1 is short: query "AC" matches, "ACXX->ACGT" does not.
        let q2 = CamQuery::padded(&seq("AC"), 0, 2, 0);
        assert_eq!(cam.search(&q2, &EntryMask::all(2), &mut st), vec![0, 1]);
    }

    #[test]
    fn query_wider_than_entry_never_matches() {
        let s = seq("ACGTACGT");
        let cam = Bcam::new(&s, 4);
        let q = CamQuery::padded(&s, 0, 5, 0);
        assert!(!cam.entry_matches(0, &q));
    }

    #[test]
    fn empty_query_matches_everything_enabled() {
        let s = seq("ACGTACGT");
        let cam = Bcam::new(&s, 4);
        let q = CamQuery::new(vec![]);
        assert!(q.is_empty());
        let mut st = CamStats::default();
        assert_eq!(cam.search(&q, &EntryMask::all(2), &mut st), vec![0, 1]);
        assert_eq!(st.matches, 2);
    }

    #[test]
    fn wildcards_are_not_driven() {
        let q = CamQuery::new(vec![Symbol::Any, Symbol::Base(Base::A), Symbol::Any]);
        assert_eq!(q.driven_columns(), 1);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn group_scheme_round_robin() {
        let g = GroupScheme::new(4);
        assert_eq!(g.group_of_entry(0), 0);
        assert_eq!(g.group_of_entry(5), 1);
        assert_eq!(g.group_of_entry(7), 3);
    }

    #[test]
    fn group_mask_and_count_agree() {
        let g = GroupScheme::new(5);
        for total in [0usize, 1, 7, 23, 100] {
            for indicator in [0u32, 0b1, 0b10101, 0b11111] {
                let mask = g.mask_for_indicator(indicator, total);
                assert_eq!(
                    mask.count(),
                    g.enabled_count(indicator, total),
                    "total {total} ind {indicator:b}"
                );
                for e in mask.iter_ones() {
                    assert!(indicator & (1 << g.group_of_entry(e)) != 0);
                }
            }
        }
    }

    /// `load_groups` loads exactly what `load_mask` makes of the entry-
    /// by-entry group mask — same words, rows, arrays and span — across
    /// group counts that do and do not divide 64, entry counts around
    /// word, period and array boundaries, and indicators naming single
    /// groups, random sets, every group, and groups at or above `G`.
    #[test]
    fn load_groups_equals_loading_the_group_mask() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x6a7e);
        let reference: PackedSeq = (0..25_003)
            .map(|_| Base::from_code(rng.gen_range(0..4)))
            .collect();
        let (mut expect, mut got) = (LoadedMask::default(), LoadedMask::default());
        for groups in [1usize, 2, 3, 7, 20, 32] {
            let scheme = GroupScheme::new(groups);
            let below = if groups == 32 {
                u32::MAX
            } else {
                (1u32 << groups) - 1
            };
            let mut indicators: Vec<u32> = (0..groups).map(|g| 1 << g).collect();
            indicators.extend((0..8).map(|_| rng.next_u32() & below));
            indicators.extend([0, u32::MAX, below, !below, (!below) | 1]);
            for entries in [0, 1, groups - 1, 63, 64, 65, 255, 256, 257, 320, 25_003] {
                let cam = Bcam::new(&reference.subseq(0, entries), 1);
                assert_eq!(cam.entries(), entries);
                for &bits in &indicators {
                    let mask = scheme.mask_for_indicator(bits, entries);
                    cam.load_mask(&mask, &mut expect);
                    cam.load_groups(&scheme, bits, &mut got);
                    let case = format!("G {groups}, {entries} entries, bits {bits:#x}");
                    // The mask spans exactly the entries, so its words are
                    // the clipped candidates and its popcount the rows.
                    assert_eq!(got.words, mask.words(), "mask words: {case}");
                    assert_eq!(got.rows, mask.count() as u64, "mask rows: {case}");
                    assert_eq!(got.words, expect.words, "words: {case}");
                    assert_eq!(got.rows, expect.rows, "rows: {case}");
                    assert_eq!(got.arrays, expect.arrays, "arrays: {case}");
                    assert_eq!((got.lo, got.hi), (expect.lo, expect.hi), "span: {case}");
                    assert_eq!(got.entries, expect.entries, "entries: {case}");
                }
            }
        }
    }

    #[test]
    fn arrays_activated_counts_distinct_arrays() {
        // 600 entries span 3 physical arrays of 256 rows.
        let long: PackedSeq = std::iter::repeat_n(Base::A, 600 * 4).collect();
        let cam = Bcam::new(&long, 4);
        assert_eq!(cam.entries(), 600);
        // Enable one entry in each array.
        let mut mask = EntryMask::new(600);
        mask.set(0);
        mask.set(300);
        mask.set(599);
        let q = CamQuery::new(vec![Symbol::Base(Base::A)]);
        let mut st = CamStats::default();
        cam.search(&q, &mask, &mut st);
        assert_eq!(st.arrays_activated, 3);
        assert_eq!(st.rows_enabled, 3);
        // Full-array search touches all 3 arrays.
        let mut st = CamStats::default();
        cam.search(&q, &EntryMask::all(600), &mut st);
        assert_eq!(st.arrays_activated, 3);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let s: PackedSeq = std::iter::repeat_n(Base::C, 4000).collect();
        let model = CamFaultModel {
            seed: 42,
            stuck_rate: 0.05,
            flip_rate: 0.01,
        };
        let mut a = Bcam::new(&s, 5);
        let mut b = Bcam::new(&s, 5);
        let ra = a.inject_faults(&model);
        let rb = b.inject_faults(&model);
        assert_eq!(ra, rb);
        assert!(ra.sites() > 0, "expected some fault sites at these rates");
        assert_eq!(a.seq(), b.seq());
        // A different seed picks different sites.
        let rc = Bcam::new(&s, 5).inject_faults(&CamFaultModel { seed: 43, ..model });
        assert_ne!(ra, rc);
    }

    #[test]
    fn stuck_lines_override_matching() {
        let s: PackedSeq = std::iter::repeat_n(Base::A, 40).collect(); // 10 identical entries
        let mut cam = Bcam::new(&s, 4);
        // Force one entry stuck each way by injecting manually through a
        // high stuck rate, then verify search honours them.
        let report = cam.inject_faults(&CamFaultModel {
            seed: 7,
            stuck_rate: 0.5,
            flip_rate: 0.0,
        });
        assert!(!report.stuck_zero.is_empty() || !report.stuck_one.is_empty());
        // Query that matches every healthy entry.
        let q = CamQuery::padded(&s, 0, 4, 0);
        let mut st = CamStats::default();
        let hits = cam.search(&q, &EntryMask::all(10), &mut st);
        for z in &report.stuck_zero {
            assert!(!hits.contains(z), "stuck-zero entry {z} matched");
        }
        // Query that matches no healthy entry: only stuck-one lines fire.
        let t: PackedSeq = std::iter::repeat_n(Base::T, 4).collect();
        let q = CamQuery::padded(&t, 0, 4, 0);
        let hits = cam.search(&q, &EntryMask::all(10), &mut st);
        assert_eq!(hits, report.stuck_one);
    }

    #[test]
    fn bit_flips_corrupt_stored_bases() {
        let s: PackedSeq = std::iter::repeat_n(Base::G, 1000).collect();
        let mut cam = Bcam::new(&s, 5);
        let report = cam.inject_faults(&CamFaultModel {
            seed: 9,
            stuck_rate: 0.0,
            flip_rate: 0.02,
        });
        assert!(!report.flipped_bases.is_empty());
        for &i in &report.flipped_bases {
            assert_ne!(cam.seq().base(i as usize), Base::G);
        }
        // Unflipped bases are untouched.
        assert_eq!(
            cam.seq().iter().filter(|&b| b != Base::G).count(),
            report.flipped_bases.len()
        );
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let s = seq("ACGTACGTACGT");
        let mut cam = Bcam::new(&s, 4);
        let report = cam.inject_faults(&CamFaultModel::default());
        assert_eq!(report, CamFaultReport::default());
        assert_eq!(cam.seq(), &s);
    }

    #[test]
    fn batched_search_matches_sequential_per_query() {
        let s = seq("AACATTGTCACTTTCATAACGGGTTACGTAAACCCGGGTT");
        let queries: Vec<CamQuery> = (0..10)
            .map(|i| CamQuery::padded(&s, i, 4 + (i % 3), i % 4))
            .collect();
        let enabled = EntryMask::all(8);
        let cam = Bcam::new(&s, 5);
        let mut hits = Vec::new();
        let batch_stats = cam.search_batch_into(&queries, &enabled, &mut hits);
        for backend in KernelBackend::supported() {
            let mut scratch = CamScratch::new(backend);
            let mut stats = CamStats::default();
            let mut expect = Vec::new();
            for q in &queries {
                let mut one = Vec::new();
                cam.search_into(q, &enabled, &mut scratch, &mut stats, &mut one);
                expect.push(one);
            }
            assert_eq!(hits, expect, "backend {backend}");
            assert_eq!(batch_stats, stats, "backend {backend}");
        }
    }

    #[test]
    fn kernel_backend_roundtrip() {
        assert_eq!(
            CamScratch::new(KernelBackend::Scalar).kernel_backend(),
            KernelBackend::Scalar
        );
        assert_eq!(
            CamScratch::new(KernelBackend::U64x4).kernel_backend(),
            KernelBackend::U64x4
        );
        // An unsupported request degrades to a supported backend instead of
        // installing an illegal-instruction path.
        assert!(CamScratch::new(KernelBackend::Avx2)
            .kernel_backend()
            .is_supported());
        assert_eq!(
            CamScratch::default().kernel_backend(),
            kernel::default_backend()
        );
    }

    /// One scratch serves CAMs of different sizes in any order: a search
    /// never reads a match-line word it did not write, so stale words
    /// from a larger CAM cannot leak into a smaller one's hits.
    #[test]
    fn scratch_is_reusable_across_cams() {
        let big: PackedSeq = std::iter::repeat_n(Base::A, 4 * 700).collect();
        let small = seq("AAAACCCCAAAA");
        let q = CamQuery::padded(&small, 0, 4, 0);
        let mut shared = CamScratch::default();
        for cam in [Bcam::new(&big, 4), Bcam::new(&small, 4), Bcam::new(&big, 4)] {
            let enabled = EntryMask::all(cam.entries());
            let (mut a, mut b) = (CamStats::default(), CamStats::default());
            let (mut reused, mut fresh) = (Vec::new(), Vec::new());
            cam.search_into(&q, &enabled, &mut shared, &mut a, &mut reused);
            cam.search_into(&q, &enabled, &mut CamScratch::default(), &mut b, &mut fresh);
            assert_eq!(reused, fresh);
            assert_eq!(a, b);
        }
    }
}
