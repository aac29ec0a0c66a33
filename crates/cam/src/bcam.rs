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
//! stores, for every (column, base) pair, a bitset over the entries
//! storing that base at that column. These bit planes are the CAM's
//! cells — no other copy of the partition is kept — and a search ANDs
//! the driven columns' planes with its candidate entries 64 entries per
//! `u64` word, the software analogue of the hardware's parallel match
//! lines. Candidates come in two forms, each with one search:
//!
//! * an **enable mask**, for searches that power whole groups.
//!   [`Bcam::load_mask`] (an [`EntryMask`]) or [`Bcam::load_groups`] (an
//!   indicator's group bits) clips it to the entries and books its rows,
//!   arrays and nonzero word span once; each [`Bcam::search_loaded_into`]
//!   over it is one fused column walk ([`KernelOps::match_cols`]) across
//!   that span. [`Bcam::search_batch_into`] loads a mask and searches a
//!   batch of queries over it in one call.
//! * a **sorted entry list**, for searches that power a few chosen rows —
//!   the successors of the last hits under DFF-based selective enabling
//!   (paper §4.1). [`Bcam::search_list_into`] touches only the words
//!   holding a candidate, so it costs what its candidates cost.
//!
//! Both end in the same fault-aware hit extraction, and every search
//! produces the hits and [`CamStats`] it would over the equivalent mask.
//!
//! A search that powers whole groups but whose hits the caller can bound
//! — the seeding engine knows from the pre-seeding filter where a query's
//! first bases occur — runs as a third form:
//! [`Bcam::search_candidates_into`] evaluates only the listed candidate
//! entries, as a list search does, yet books what the group search books
//! ([`Bcam::group_cost`]: the rows and arrays of [`Bcam::load_groups`]'s
//! mask, from the group bits alone). Its hits equal the group search's
//! exactly when the candidates include every entry of the groups the
//! query matches, which only holds on a CAM without injected faults: a
//! stuck-one line or a flipped cell matches where the reference does not.
//! The entry-at-a-time oracle the kernels are checked against lives in the
//! tests: it evaluates the partition with a [`CamFaultReport`] applied
//! and never reads the planes.
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
/// * **cell bit flips** — a stored base has the low bit of its 2-bit code
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
/// use casa_cam::{Bcam, CamQuery, CamScratch, CamStats, EntryMask, LoadedMask};
///
/// let seq = PackedSeq::from_ascii(b"AACATTGTCACTTTCATAAC")?; // Fig. 10 CAM
/// let cam = Bcam::new(&seq, 5);
/// assert_eq!(cam.entries(), 4);
/// // Search TGTCA with no padding over every entry: matches entry 1.
/// let mut loaded = LoadedMask::default();
/// cam.load_mask(&EntryMask::all(4), &mut loaded);
/// let q = CamQuery::padded(&seq, 5, 5, 0);
/// let (mut stats, mut hits) = (CamStats::default(), Vec::new());
/// cam.search_loaded_into(&q, &loaded, &mut CamScratch::default(), &mut stats, &mut hits);
/// assert_eq!(hits, vec![1]);
/// assert_eq!(stats.rows_enabled, 4);
/// # Ok::<(), casa_genome::ParseBaseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Bcam {
    /// Stored bases (the partition length).
    len: usize,
    entry_bases: usize,
    /// Stuck-at match lines as entry bitmasks (bit `e % 64` of word
    /// `e / 64`), the same word layout as [`EntryMask`] and the planes.
    stuck_zero: Vec<u64>,
    stuck_one: Vec<u64>,
    /// Bit planes, the stored cells: `planes[(col * 4 + base) * ewords +
    /// w]` holds one bit per entry whose stored base at column `col` is
    /// `base`. Every stored base sets exactly one bit of its column's four
    /// planes; the final short entry's missing columns set none, so a
    /// driven column there can never match.
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
    /// Whether any fault site (stuck-at or bit flip) exists.
    faulted: bool,
}

/// What a search over the entries of an indicator's groups books: the
/// enabled rows and activated arrays of the mask [`Bcam::load_groups`]
/// loads for those groups, computed by [`Bcam::group_cost`] from the
/// group bits alone. Consumed by [`Bcam::search_candidates_into`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCost {
    /// Enabled rows.
    rows: u64,
    /// Distinct 256-row arrays holding an enabled entry.
    arrays: u64,
    /// Entry count of the CAM this cost was computed for.
    entries: usize,
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

/// What a mask search writes — its match-line words — and the word kernel
/// that computes them. One per searching thread, for CAMs
/// of any size; contents are meaningless between searches.
#[derive(Clone, Debug)]
pub struct CamScratch {
    ops: &'static KernelOps,
    matchline: Vec<u64>,
}

impl CamScratch {
    /// Scratch on `backend`'s word kernel; an unsupported backend falls
    /// back to the best supported one (see [`KernelBackend::ops`]).
    pub fn new(backend: KernelBackend) -> CamScratch {
        CamScratch {
            ops: backend.ops(),
            matchline: Vec::new(),
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
        let mut planes = vec![0u64; entry_bases * 4 * ewords];
        let (mut e, mut col) = (0, 0);
        for b in seq.iter() {
            planes[(col * 4 + b.code() as usize) * ewords + e / 64] |= 1 << (e % 64);
            col += 1;
            if col == entry_bases {
                (e, col) = (e + 1, 0);
            }
        }
        Bcam {
            len: seq.len(),
            entry_bases,
            stuck_zero: vec![0; ewords],
            stuck_one: vec![0; ewords],
            planes: planes.into(),
            ewords,
            has_stuck: false,
            faulted: false,
        }
    }

    /// Reassembles a CAM of `len` stored bases from prebuilt bit planes —
    /// the zero-copy image-loading path. The planes stay shared (typically
    /// mmap-backed) until a mutation (bit-flip fault injection) detaches
    /// them; everything else behaves exactly as after [`Bcam::new`].
    ///
    /// Fails if the plane array does not have the shape [`Bcam::new`]
    /// gives `len` bases at this stride.
    pub fn from_shared_planes(
        len: usize,
        entry_bases: usize,
        planes: SharedSlice<u64>,
    ) -> Result<Bcam, &'static str> {
        if entry_bases == 0 {
            return Err("entry_bases must be positive");
        }
        let ewords = len.div_ceil(entry_bases).div_ceil(64);
        if planes.as_slice().len() != entry_bases * 4 * ewords {
            return Err("CAM plane array has the wrong shape for this sequence");
        }
        Ok(Bcam {
            len,
            entry_bases,
            stuck_zero: vec![0; ewords],
            stuck_one: vec![0; ewords],
            planes: planes.into(),
            ewords,
            has_stuck: false,
            faulted: false,
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

    /// Injects seeded faults into this CAM and returns the chosen sites.
    ///
    /// Stuck-at entries are recorded and override match-line behaviour in
    /// every search. A bit flip corrupts a stored cell in place, silently:
    /// the base's code `c` becomes `c ^ 1`, so the entry's bit moves from
    /// plane `(col, c)` to plane `(col, c ^ 1)` (detaching shared planes
    /// first, copy-on-write). Calling this again adds further stuck-at
    /// sites and flips on top of the existing ones.
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
            report.flipped_bases = (0..self.len as u32)
                .filter(|&i| {
                    coin(
                        site_hash(model.seed, &[DOMAIN_CAM_FLIP, u64::from(i)]),
                        model.flip_rate,
                    )
                })
                .collect();
            if !report.flipped_bases.is_empty() {
                let (stride, ewords) = (self.entry_bases, self.ewords);
                let planes = self.planes.to_mut();
                for &i in &report.flipped_bases {
                    let (e, col) = (i as usize / stride, i as usize % stride);
                    let bit = 1u64 << (e % 64);
                    let at = |code: usize| (col * 4 + code) * ewords + e / 64;
                    let code = (0..4)
                        .find(|&code| planes[at(code)] & bit != 0)
                        .expect("a stored base sets one plane of its column");
                    planes[at(code)] &= !bit;
                    planes[at(code ^ 1)] |= bit;
                }
            }
        }
        self.faulted |= report.sites() > 0;
        report
    }

    /// Whether fault injection placed any fault site (stuck-at or bit
    /// flip) in this CAM.
    pub fn is_faulted(&self) -> bool {
        self.faulted
    }

    /// Number of entries (rows).
    pub fn entries(&self) -> usize {
        self.len.div_ceil(self.entry_bases)
    }

    /// Bases per entry (the stride `s`).
    pub fn entry_bases(&self) -> usize {
        self.entry_bases
    }

    /// Searches `queries` against a shared enable mask on the
    /// process-default kernel, returning the activity booked. `hits` is
    /// resized to `queries.len()`: [`Bcam::load_mask`] once, then
    /// [`Bcam::search_loaded_into`] per query in order.
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
    /// what [`Bcam::load_mask`] makes of the mask enabling every entry of
    /// those groups, without building that mask. Entry `e` sits in group
    /// `e mod G` (see [`GroupScheme`]), so
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

    /// What a search over the groups `group_bits` powers under `scheme`
    /// books — the rows and arrays of the mask [`Bcam::load_groups`]
    /// loads for them — without loading it. Entry `e` sits in group
    /// `e mod G`, so the rows are the per-group counts
    /// ([`GroupScheme::enabled_count`]), and an array holds an enabled
    /// entry when it holds at least `G` entries (one of every group) or
    /// one of its fewer entries is in a set group. Group bits at or above
    /// `G` power nothing.
    pub fn group_cost(&self, scheme: &GroupScheme, group_bits: u32) -> GroupCost {
        let (groups, entries) = (scheme.groups, self.entries());
        let powered = |e: usize| group_bits.checked_shr((e % groups) as u32).unwrap_or(0) & 1 != 0;
        let rows = scheme.enabled_count(group_bits, entries) as u64;
        let arrays = if rows == 0 {
            0
        } else {
            (0..entries)
                .step_by(ROWS_PER_ARRAY)
                .filter(|&start| {
                    let len = ROWS_PER_ARRAY.min(entries - start);
                    len >= groups || (start..start + len).any(powered)
                })
                .count() as u64
        };
        GroupCost {
            rows,
            arrays,
            entries,
        }
    }

    /// Searches `query` over an indicator's groups, booking what
    /// [`Bcam::search_loaded_into`] over [`Bcam::load_groups`]'s mask books
    /// — one search, `cost`'s rows and arrays ([`Bcam::group_cost`]), and
    /// the matches — but evaluating only `candidates`, strictly ascending
    /// entries of those groups, as [`Bcam::search_list_into`] does. Its
    /// hits (into `hits`, cleared first, ascending) are the group search's
    /// when the candidates include every entry of the groups that the
    /// query matches; the caller derives them from where the query's
    /// bases occur in the stored sequence.
    ///
    /// # Panics
    ///
    /// Panics if the CAM holds an injected fault (a faulted entry can
    /// match where the sequence does not, so no candidate list can be
    /// known to cover its hits), or if `cost` was computed for a CAM with
    /// a different entry count.
    pub fn search_candidates_into(
        &self,
        query: &CamQuery,
        cost: &GroupCost,
        candidates: &[u32],
        stats: &mut CamStats,
        hits: &mut Vec<u32>,
    ) {
        assert!(
            !self.faulted,
            "a faulted CAM can match outside any candidate list"
        );
        assert_eq!(
            cost.entries,
            self.entries(),
            "group cost computed for a CAM of another size"
        );
        stats.searches += 1;
        stats.rows_enabled += cost.rows;
        stats.arrays_activated += cost.arrays;
        self.match_list(query, candidates, hits);
        stats.matches += hits.len() as u64;
    }

    /// Searches `query` over a mask loaded by [`Bcam::load_mask`] or
    /// [`Bcam::load_groups`] on `scratch`'s kernel, writing the enabled
    /// entries that match into `hits` (cleared first, ascending) and
    /// booking one search, the mask's enabled rows and activated arrays,
    /// and the matches into `stats`. An entry matches if every driven
    /// query column equals its stored base at that column; a driven
    /// column past the end of the stored sequence (the final short entry)
    /// mismatches, and a query wider than an entry matches nothing stored.
    ///
    /// One fused kernel call runs the whole column walk — ml = candidates
    /// AND every driven plane, with the early exit on a dead line — inside
    /// the nonzero candidate span; shifting the plane base by `lo` keeps
    /// each plane row's window aligned with the clipped slices.
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
        // A query wider than an entry matches nothing stored: no plane
        // holds column `entry_bases`, so its line is dead from the start
        // and only stuck-one overrides can still fire.
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
    /// [`CamStats`] are identical to [`Bcam::search_loaded_into`] over a mask
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
        stats.searches += 1;
        stats.rows_enabled += candidates.len() as u64;
        stats.arrays_activated += self.match_list(query, candidates, hits);
        stats.matches += hits.len() as u64;
    }

    /// The word loop of [`Bcam::search_list_into`] and
    /// [`Bcam::search_candidates_into`]: writes the in-range candidates
    /// matching `query` into `hits` (cleared first) and returns how many
    /// distinct arrays hold an in-range candidate.
    fn match_list(&self, query: &CamQuery, candidates: &[u32], hits: &mut Vec<u32>) -> u64 {
        debug_assert!(
            candidates.windows(2).all(|p| p[0] < p[1]),
            "candidate list must be strictly ascending"
        );
        hits.clear();
        let entries = self.entries() as u32;
        let in_range = &candidates[..candidates.partition_point(|&e| e < entries)];
        // See `search_loaded_into`: an over-wide query leaves every line
        // dead.
        let fits = query.len() <= self.entry_bases;
        let (mut arrays, mut last_array) = (0, usize::MAX);
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
                arrays += 1;
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
        arrays
    }

    /// Applies the stuck-at match lines of word `w` to the match-line word
    /// `ml` over the candidate word `cand`: stuck-zero beats stuck-one
    /// beats mismatch.
    #[inline]
    fn stuck_override(&self, w: usize, cand: u64, ml: u64) -> u64 {
        (cand & !self.stuck_zero[w]) & (self.stuck_one[w] | ml)
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

    /// `query` over `enabled` on `scratch`: load the mask, then search it.
    fn search_on(
        cam: &Bcam,
        query: &CamQuery,
        enabled: &EntryMask,
        scratch: &mut CamScratch,
        stats: &mut CamStats,
    ) -> Vec<u32> {
        let (mut loaded, mut hits) = (LoadedMask::default(), Vec::new());
        cam.load_mask(enabled, &mut loaded);
        cam.search_loaded_into(query, &loaded, scratch, stats, &mut hits);
        hits
    }

    /// [`search_on`] on the process-default kernel.
    fn search(cam: &Bcam, query: &CamQuery, enabled: &EntryMask, stats: &mut CamStats) -> Vec<u32> {
        search_on(cam, query, enabled, &mut CamScratch::default(), stats)
    }

    /// The mask enabling every entry whose group `e mod G` has its bit set
    /// in `indicator`, built entry by entry.
    fn group_mask(scheme: &GroupScheme, indicator: u32, total_entries: usize) -> EntryMask {
        let mut mask = EntryMask::new(total_entries);
        for e in 0..total_entries {
            if indicator & (1 << (e % scheme.groups)) != 0 {
                mask.set(e);
            }
        }
        mask
    }

    /// `seq` with the low code bit of every base in `flipped` toggled.
    fn flip_bases(seq: &PackedSeq, flipped: &[u32]) -> PackedSeq {
        let mut codes: Vec<u8> = seq.iter().map(Base::code).collect();
        for &i in flipped {
            codes[i as usize] ^= 1;
        }
        codes.into_iter().map(Base::from_code).collect()
    }

    /// The same CAM over shared (image-style) planes.
    fn shared_copy(cam: &Bcam, len: usize) -> Bcam {
        use casa_genome::SliceView;
        use std::sync::Arc;
        let planes = SharedSlice::new(Arc::new(cam.planes().to_vec()) as Arc<dyn SliceView<u64>>);
        let shared = Bcam::from_shared_planes(len, cam.entry_bases(), planes).unwrap();
        assert!(shared.planes_shared());
        shared
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
        let hits = search(&cam, &q, &EntryMask::all(4), &mut CamStats::default());
        assert_eq!(hits, vec![2]);
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
        assert_eq!(q.symbols()[0], Symbol::Any);
        let hits = search(&cam, &q, &EntryMask::all(4), &mut CamStats::default());
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn disabled_entries_never_match_and_energy_tracks_enabled_rows() {
        let s = seq("ACGTACGTACGTACGT");
        let cam = Bcam::new(&s, 4); // 4 identical entries
        let q = CamQuery::padded(&s, 0, 4, 0);
        let mut st = CamStats::default();
        let all = search(&cam, &q, &EntryMask::all(4), &mut st);
        assert_eq!(all, vec![0, 1, 2, 3]);
        let mut two = EntryMask::new(4);
        two.set(1);
        two.set(3);
        let some = search(&cam, &q, &two, &mut st);
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
            search(&cam, &q, &EntryMask::all(2), &mut st),
            Vec::<u32>::new()
        );
        // entry 1 is short: query "AC" matches, "ACXX->ACGT" does not.
        let q2 = CamQuery::padded(&seq("AC"), 0, 2, 0);
        assert_eq!(search(&cam, &q2, &EntryMask::all(2), &mut st), vec![0, 1]);
    }

    #[test]
    fn query_wider_than_entry_never_matches() {
        let s = seq("ACGTACGT");
        let cam = Bcam::new(&s, 4);
        let q = CamQuery::padded(&s, 0, 5, 0);
        let mut st = CamStats::default();
        assert!(search(&cam, &q, &EntryMask::all(2), &mut st).is_empty());
        let mut list_hits = Vec::new();
        cam.search_list_into(&q, &[0, 1], &mut st, &mut list_hits);
        assert!(list_hits.is_empty());
    }

    #[test]
    fn empty_query_matches_everything_enabled() {
        let s = seq("ACGTACGT");
        let cam = Bcam::new(&s, 4);
        let q = CamQuery::new(vec![]);
        assert!(q.is_empty());
        let mut st = CamStats::default();
        assert_eq!(search(&cam, &q, &EntryMask::all(2), &mut st), vec![0, 1]);
        assert_eq!(st.matches, 2);
    }

    #[test]
    fn wildcards_are_not_driven() {
        // A wildcard column matches whatever the entries store there.
        let q = CamQuery::new(vec![Symbol::Any, Symbol::Base(Base::A), Symbol::Any]);
        assert_eq!(q.len(), 3);
        let cam = Bcam::new(&seq("CAGTAAGGG"), 3); // CAG | TAA | GGG
        let hits = search(&cam, &q, &EntryMask::all(3), &mut CamStats::default());
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn group_scheme_round_robin() {
        // Entry e sits in group e mod G: group 1 of 4 over 10 entries is
        // entries 1, 5 and 9.
        let g = GroupScheme::new(4);
        let cam = Bcam::new(&seq("ACGTACGTAC"), 1);
        let mut loaded = LoadedMask::default();
        cam.load_groups(&g, 1 << 1, &mut loaded);
        let q = CamQuery::new(Vec::new());
        let (mut st, mut hits) = (CamStats::default(), Vec::new());
        cam.search_loaded_into(&q, &loaded, &mut CamScratch::default(), &mut st, &mut hits);
        assert_eq!(hits, vec![1, 5, 9]);
        assert_eq!(st.rows_enabled, 3);
        assert_eq!(g.enabled_count(1 << 3, 10), 2);
    }

    #[test]
    fn group_mask_and_count_agree() {
        let g = GroupScheme::new(5);
        for total in [0usize, 1, 7, 23, 100] {
            for indicator in [0u32, 0b1, 0b10101, 0b11111] {
                let mask = group_mask(&g, indicator, total);
                assert_eq!(
                    mask.count(),
                    g.enabled_count(indicator, total),
                    "total {total} ind {indicator:b}"
                );
            }
        }
    }

    /// `load_groups` loads exactly what `load_mask` makes of the entry-
    /// by-entry group mask — same words, rows, arrays and span — and
    /// `group_cost` books the same rows and arrays without loading, across
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
                    let mask = group_mask(&scheme, bits, entries);
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
                    let cost = cam.group_cost(&scheme, bits);
                    assert_eq!(
                        (cost.rows, cost.arrays, cost.entries),
                        (got.rows, got.arrays, got.entries),
                        "cost: {case}"
                    );
                }
            }
        }
    }

    /// Over candidates that include every hit of the group search — the
    /// hits plus random other entries of the powered groups — a candidate
    /// search finds the group search's hits and books its `CamStats`, on
    /// CAMs of one to several arrays, with group counts that do and do not
    /// divide 256.
    #[test]
    fn candidate_search_equals_the_group_search_it_covers() {
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xca4d);
        let reference: PackedSeq = (0..9_000)
            .map(|_| Base::from_code(rng.gen_range(0..4)))
            .collect();
        let (mut loaded, mut expect, mut got) = (LoadedMask::default(), Vec::new(), Vec::new());
        for (len, stride, groups) in [(9_000, 7, 5), (2_000, 8, 4), (300, 3, 20), (40, 4, 32)] {
            let cam = Bcam::new(&reference.subseq(0, len), stride);
            let scheme = GroupScheme::new(groups);
            for _ in 0..200 {
                let bits = rng.next_u32() & rng.next_u32();
                let (from, pad) = (rng.gen_range(0..len - stride), rng.gen_range(0..stride));
                let q = CamQuery::padded(&reference, from, rng.gen_range(0..=stride - pad), pad);
                cam.load_groups(&scheme, bits, &mut loaded);
                let mut want = CamStats::default();
                let mut scratch = CamScratch::default();
                cam.search_loaded_into(&q, &loaded, &mut scratch, &mut want, &mut expect);
                let mut candidates = expect.clone();
                candidates.extend(
                    (0..cam.entries() as u32)
                        .filter(|&e| bits.checked_shr(e % groups as u32).unwrap_or(0) & 1 != 0)
                        .filter(|_| rng.gen_bool(0.1)),
                );
                candidates.sort_unstable();
                candidates.dedup();
                let mut stats = CamStats::default();
                let cost = cam.group_cost(&scheme, bits);
                cam.search_candidates_into(&q, &cost, &candidates, &mut stats, &mut got);
                let case = format!("{len} bases, stride {stride}, G {groups}, bits {bits:#x}");
                assert_eq!(got, expect, "{case}");
                assert_eq!(stats, want, "{case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "faulted CAM")]
    fn candidate_search_refuses_a_faulted_cam() {
        let s: PackedSeq = std::iter::repeat_n(Base::A, 400).collect();
        let mut cam = Bcam::new(&s, 4);
        assert!(!cam.is_faulted());
        cam.inject_faults(&CamFaultModel {
            seed: 1,
            stuck_rate: 0.0,
            flip_rate: 0.05,
        });
        assert!(cam.is_faulted());
        let cost = cam.group_cost(&GroupScheme::new(4), 1);
        let q = CamQuery::padded(&s, 0, 4, 0);
        cam.search_candidates_into(&q, &cost, &[0], &mut CamStats::default(), &mut Vec::new());
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
        search(&cam, &q, &mask, &mut st);
        assert_eq!(st.arrays_activated, 3);
        assert_eq!(st.rows_enabled, 3);
        // Full-array search touches all 3 arrays.
        let mut st = CamStats::default();
        search(&cam, &q, &EntryMask::all(600), &mut st);
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
        assert_eq!(a.planes(), b.planes());
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
        let hits = search(&cam, &q, &EntryMask::all(10), &mut st);
        for z in &report.stuck_zero {
            assert!(!hits.contains(z), "stuck-zero entry {z} matched");
        }
        // Query that matches no healthy entry: only stuck-one lines fire.
        let t: PackedSeq = std::iter::repeat_n(Base::T, 4).collect();
        let q = CamQuery::padded(&t, 0, 4, 0);
        let hits = search(&cam, &q, &EntryMask::all(10), &mut st);
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
        // A flipped G reads as T; every other cell still stores G. So a
        // one-column query for T at column c hits exactly the entries
        // with a flip at offset c.
        for col in 0..5 {
            let mut symbols = vec![Symbol::Any; col];
            symbols.push(Symbol::Base(Base::T));
            let hits = search(
                &cam,
                &CamQuery::new(symbols),
                &EntryMask::all(cam.entries()),
                &mut CamStats::default(),
            );
            let expect: Vec<u32> = report
                .flipped_bases
                .iter()
                .filter(|&&i| i as usize % 5 == col)
                .map(|&i| i / 5)
                .collect();
            assert_eq!(hits, expect, "column {col}");
        }
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let s = seq("ACGTACGTACGT");
        let mut cam = Bcam::new(&s, 4);
        let report = cam.inject_faults(&CamFaultModel::default());
        assert_eq!(report, CamFaultReport::default());
        assert_eq!(cam.planes(), Bcam::new(&s, 4).planes());
    }

    /// A bit flip moves the cell's bit to its neighbour plane: after one
    /// or two injections in a row, on owned planes and on planes shared
    /// from an image (detached copy-on-write), the planes equal those
    /// [`Bcam::new`] builds over the sequence with every reported flip
    /// applied — strides that do and do not divide the length, and a
    /// second model whose flips overlap the first's.
    #[test]
    fn flipped_planes_equal_planes_built_from_the_flipped_sequence() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xf1a9);
        let reference: PackedSeq = (0..3_001)
            .map(|_| Base::from_code(rng.gen_range(0..4)))
            .collect();
        let models = [
            CamFaultModel {
                seed: 5,
                stuck_rate: 0.02,
                flip_rate: 0.03,
            },
            CamFaultModel {
                seed: 6,
                stuck_rate: 0.0,
                flip_rate: 0.5,
            },
        ];
        for stride in [1, 7, 40] {
            let built = Bcam::new(&reference, stride);
            for storage in ["owned", "shared"] {
                for rounds in [1, 2] {
                    let mut cam = match storage {
                        "owned" => built.clone(),
                        _ => shared_copy(&built, reference.len()),
                    };
                    let mut expect = reference.clone();
                    for model in &models[..rounds] {
                        let report = cam.inject_faults(model);
                        assert!(!report.flipped_bases.is_empty());
                        expect = flip_bases(&expect, &report.flipped_bases);
                    }
                    let case = format!("stride {stride}, {storage}, {rounds} round(s)");
                    assert!(!cam.planes_shared(), "{case}: flips detach the planes");
                    assert_eq!(cam.planes(), Bcam::new(&expect, stride).planes(), "{case}");
                }
            }
        }
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
            let expect: Vec<Vec<u32>> = queries
                .iter()
                .map(|q| search_on(&cam, q, &enabled, &mut scratch, &mut stats))
                .collect();
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
            let reused = search_on(&cam, &q, &enabled, &mut shared, &mut a);
            let fresh = search_on(&cam, &q, &enabled, &mut CamScratch::default(), &mut b);
            assert_eq!(reused, fresh);
            assert_eq!(a, b);
        }
    }
}
