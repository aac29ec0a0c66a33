//! Property tests pinning the bit-parallel search kernel to a scalar
//! entry-at-a-time oracle: identical hits **and** identical [`CamStats`]
//! over random CAMs, padded/wildcard queries, partial masks (shorter,
//! equal, and longer than the entry count), and injected faults — for
//! every supported word-kernel backend (scalar `u64`, `u64x4`, AVX2), both
//! per query and over one shared loaded mask — and the sorted-list search
//! against the same oracle run over the equivalent mask.
//!
//! The oracle shares no state with the CAM: it evaluates the partition
//! itself, with the [`CamFaultReport`] of the injection applied (flipped
//! bases toggled, stuck lines forced), and never reads the bit planes.

use casa_cam::{
    Bcam, CamFaultModel, CamFaultReport, CamQuery, CamScratch, CamStats, EntryMask, KernelBackend,
    LoadedMask, Symbol, ROWS_PER_ARRAY,
};
use casa_genome::{Base, PackedSeq};
use proptest::prelude::*;

/// The scalar reference evaluation of a CAM storing a partition in
/// `entry_bases`-base entries, faulted as a [`CamFaultReport`] says.
struct Oracle {
    /// The partition with every flipped base's low code bit toggled.
    seq: PackedSeq,
    entry_bases: usize,
    stuck_zero: Vec<u32>,
    stuck_one: Vec<u32>,
}

impl Oracle {
    fn new(partition: &PackedSeq, entry_bases: usize, report: &CamFaultReport) -> Oracle {
        let mut codes: Vec<u8> = partition.iter().map(Base::code).collect();
        for &i in &report.flipped_bases {
            codes[i as usize] ^= 1;
        }
        Oracle {
            seq: codes.into_iter().map(Base::from_code).collect(),
            entry_bases,
            stuck_zero: report.stuck_zero.clone(),
            stuck_one: report.stuck_one.clone(),
        }
    }

    fn entries(&self) -> usize {
        self.seq.len().div_ceil(self.entry_bases)
    }

    /// Whether entry `e` stores every driven column of `query`: a query
    /// wider than an entry, or a driven column past the end of the
    /// sequence, mismatches.
    fn entry_matches(&self, e: usize, query: &CamQuery) -> bool {
        let base_offset = e * self.entry_bases;
        query.symbols().iter().enumerate().all(|(i, sym)| {
            i < self.entry_bases
                && match sym {
                    Symbol::Base(b) => self.seq.get(base_offset + i) == Some(*b),
                    Symbol::Any => true,
                }
        })
    }

    /// Searches the enabled entries one by one, booking what the CAM
    /// books: one search, every enabled row (in range or not), each
    /// 256-row array holding an enabled in-range entry, and the matches.
    /// A stuck-zero line never matches; a stuck-one line always does.
    fn search(&self, query: &CamQuery, enabled: &EntryMask, stats: &mut CamStats) -> Vec<u32> {
        stats.searches += 1;
        stats.rows_enabled += enabled.count() as u64;
        let mut hits = Vec::new();
        let mut last_array = usize::MAX;
        for e in enabled.iter_ones().take_while(|&e| e < self.entries()) {
            if e / ROWS_PER_ARRAY != last_array {
                stats.arrays_activated += 1;
                last_array = e / ROWS_PER_ARRAY;
            }
            let e32 = e as u32;
            if !self.stuck_zero.contains(&e32)
                && (self.stuck_one.contains(&e32) || self.entry_matches(e, query))
            {
                hits.push(e32);
            }
        }
        stats.matches += hits.len() as u64;
        hits
    }
}

/// `query` over `enabled` on `scratch`: load the mask, then search it.
fn kernel_search(
    cam: &Bcam,
    query: &CamQuery,
    enabled: &EntryMask,
    scratch: &mut CamScratch,
    stats: &mut CamStats,
    hits: &mut Vec<u32>,
) {
    let mut loaded = LoadedMask::default();
    cam.load_mask(enabled, &mut loaded);
    cam.search_loaded_into(query, &loaded, scratch, stats, hits);
}

/// A CAM over `seq` with `model`'s faults injected, and its oracle.
fn faulted(seq: &PackedSeq, entry_bases: usize, model: Option<&CamFaultModel>) -> (Bcam, Oracle) {
    let mut cam = Bcam::new(seq, entry_bases);
    let report = model.map(|m| cam.inject_faults(m)).unwrap_or_default();
    let oracle = Oracle::new(seq, entry_bases, &report);
    (cam, oracle)
}

fn packed(codes: &[u8]) -> PackedSeq {
    codes.iter().map(|&c| Base::from_code(c)).collect()
}

/// Builds a query of `pad` wildcards followed by `codes`, where code 4
/// means a wildcard in the middle of the query.
fn query(codes: &[u8], pad: usize) -> CamQuery {
    let mut symbols = vec![Symbol::Any; pad];
    symbols.extend(codes.iter().map(|&c| {
        if c >= 4 {
            Symbol::Any
        } else {
            Symbol::Base(Base::from_code(c))
        }
    }));
    CamQuery::new(symbols)
}

fn mask_from(bits: &[usize], len: usize) -> EntryMask {
    let mut mask = EntryMask::new(len);
    if len > 0 {
        for &b in bits {
            mask.set(b % len);
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bitparallel_search_equals_scalar_oracle(
        (seq_codes, entry_bases, fault) in (
            prop::collection::vec(0u8..4, 0..1200),
            1usize..70,
            (0u64..1000, 0u8..3),
        ),
        (queries, mask_bits, mask_len) in (
            prop::collection::vec((prop::collection::vec(0u8..5, 0..80), 0usize..4), 1..6),
            prop::collection::vec(0usize..1_000_000, 0..60),
            0usize..1400,
        )
    ) {
        let seq = packed(&seq_codes);
        let mut kernel = Bcam::new(&seq, entry_bases);
        let (seed, kind) = fault;
        let model = match kind {
            0 => None,
            1 => Some(CamFaultModel { seed, stuck_rate: 0.15, flip_rate: 0.0 }),
            _ => Some(CamFaultModel { seed, stuck_rate: 0.08, flip_rate: 0.03 }),
        };
        let report = model.map(|m| kernel.inject_faults(&m)).unwrap_or_default();
        prop_assert!(report.stuck_zero.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(report.stuck_one.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(report.flipped_bases.windows(2).all(|w| w[0] < w[1]));
        let oracle = Oracle::new(&seq, entry_bases, &report);
        let entries = kernel.entries();
        prop_assert_eq!(oracle.entries(), entries);
        let partial = mask_from(&mask_bits, mask_len);
        let full = EntryMask::all(entries);

        // Oracle pass: record the expected hits per (query, mask) pair
        // and the expected final stats.
        let mut expected: Vec<Vec<u32>> = Vec::new();
        let mut scalar = CamStats::default();
        for (codes, pad) in &queries {
            let q = query(codes, *pad);
            for mask in [&partial, &full] {
                let hits = oracle.search(&q, mask, &mut scalar);
                prop_assert!(hits.windows(2).all(|w| w[0] < w[1]));
                expected.push(hits);
            }
        }

        // Backend x fault matrix: every supported word kernel replays the
        // same search sequence on the faulted CAM and must reproduce the
        // oracle's hits and CamStats exactly.
        for backend in KernelBackend::supported() {
            let mut scratch = CamScratch::new(backend);
            let mut stats = CamStats::default();
            let mut hits = Vec::new();
            let mut at = 0;
            for (codes, pad) in &queries {
                let q = query(codes, *pad);
                for mask in [&partial, &full] {
                    kernel_search(&kernel, &q, mask, &mut scratch, &mut stats, &mut hits);
                    prop_assert_eq!(&hits, &expected[at], "{}", backend);
                    at += 1;
                }
            }
            prop_assert_eq!(stats, scalar, "{}", backend);
        }
    }

    #[test]
    fn batched_search_equals_oracle_at_every_block_size(
        (seq_codes, entry_bases, fault) in (
            prop::collection::vec(0u8..4, 0..700),
            1usize..60,
            (0u64..1000, 0u8..3),
        ),
        (queries, mask_bits, mask_len) in (
            prop::collection::vec((prop::collection::vec(0u8..5, 0..70), 0usize..4), 1..6),
            prop::collection::vec(0usize..1_000_000, 0..40),
            0usize..800,
        )
    ) {
        let seq = packed(&seq_codes);
        let (seed, kind) = fault;
        let model = match kind {
            0 => None,
            1 => Some(CamFaultModel { seed, stuck_rate: 0.15, flip_rate: 0.0 }),
            _ => Some(CamFaultModel { seed, stuck_rate: 0.08, flip_rate: 0.03 }),
        };
        let (base, oracle) = faulted(&seq, entry_bases, model.as_ref());
        let mask = if mask_len == 0 {
            EntryMask::all(base.entries())
        } else {
            mask_from(&mask_bits, mask_len)
        };
        let queries: Vec<CamQuery> = queries.iter().map(|(c, p)| query(c, *p)).collect();

        // Oracle: the per-entry scalar walk over the same query batch.
        let mut scalar = CamStats::default();
        let expected: Vec<Vec<u32>> =
            queries.iter().map(|q| oracle.search(q, &mask, &mut scalar)).collect();

        // The batch call runs the process-default kernel; every supported
        // kernel runs the same loaded mask through its own scratch.
        let mut hits: Vec<Vec<u32>> = Vec::new();
        let stats = base.search_batch_into(&queries, &mask, &mut hits);
        prop_assert_eq!(&hits, &expected);
        prop_assert_eq!(stats, scalar);
        let mut loaded = LoadedMask::default();
        base.load_mask(&mask, &mut loaded);
        for backend in KernelBackend::supported() {
            let mut scratch = CamScratch::new(backend);
            let mut stats = CamStats::default();
            for (q, want) in queries.iter().zip(&expected) {
                let mut one = Vec::new();
                base.search_loaded_into(q, &loaded, &mut scratch, &mut stats, &mut one);
                prop_assert_eq!(&one, want, "{}", backend);
            }
            prop_assert_eq!(stats, scalar, "{}", backend);
        }
    }
}

/// The candidate list of one list search: `picks` folded into range, a
/// run of consecutive entries straddling the 256-row array boundary
/// `boundary` selects, the final (possibly short) entry when `tail` is
/// set, and `overrun` entries past the end — sorted and deduplicated.
fn candidate_list(
    entries: usize,
    picks: &[usize],
    (boundary, run): (usize, usize),
    tail: bool,
    overrun: usize,
) -> Vec<u32> {
    let mut list: Vec<usize> = Vec::new();
    if entries > 0 {
        list.extend(picks.iter().map(|&p| p % entries));
        let at = boundary % (entries / ROWS_PER_ARRAY + 1) * ROWS_PER_ARRAY;
        list.extend((at.saturating_sub(run)..at + run).filter(|&e| e < entries));
        if tail {
            list.push(entries - 1);
        }
    }
    list.extend(entries..entries + overrun);
    list.sort_unstable();
    list.dedup();
    list.into_iter().map(|e| e as u32).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn list_search_equals_scalar_oracle_over_the_same_mask(
        (seq_codes, entry_bases, fault) in (
            prop::collection::vec(0u8..4, 0..2400),
            // Half the CAMs get short entries, so a few thousand bases
            // span several 256-row arrays.
            (0u8..2, 1usize..70).prop_map(|(short, b)| if short == 0 { b % 8 + 1 } else { b }),
            (0u64..1000, 0u8..4),
        ),
        (queries, picks, boundary, tail, overrun) in (
            prop::collection::vec((prop::collection::vec(0u8..5, 0..80), 0usize..4), 1..5),
            prop::collection::vec(0usize..1_000_000, 0..40),
            (0usize..8, 0usize..70),
            0u8..2,
            0usize..3,
        )
    ) {
        let seq = packed(&seq_codes);
        let (seed, kind) = fault;
        let model = match kind {
            0 => None,
            1 => Some(CamFaultModel { seed, stuck_rate: 0.15, flip_rate: 0.0 }),
            2 => Some(CamFaultModel { seed, stuck_rate: 0.0, flip_rate: 0.03 }),
            _ => Some(CamFaultModel { seed, stuck_rate: 0.08, flip_rate: 0.03 }),
        };
        let (base, oracle) = faulted(&seq, entry_bases, model.as_ref());
        let entries = base.entries();
        let list = candidate_list(entries, &picks, boundary, tail == 1, overrun);
        let mut lists = vec![list, Vec::new()];
        if entries > 0 {
            lists.push(vec![entries as u32 - 1]);
        }
        let masks: Vec<EntryMask> = lists
            .iter()
            .map(|l| {
                let mut mask = EntryMask::new(entries + overrun);
                l.iter().for_each(|&e| mask.set(e as usize));
                mask
            })
            .collect();
        // Random queries plus the two edge widths: empty (matches every
        // candidate) and one column wider than an entry (matches nothing
        // but stuck-one lines).
        let mut queries: Vec<CamQuery> = queries.iter().map(|(c, p)| query(c, *p)).collect();
        queries.push(CamQuery::new(Vec::new()));
        queries.push(query(&vec![4; entry_bases + 1], 0));

        let mut scalar = CamStats::default();
        let mut expected: Vec<Vec<u32>> = Vec::new();
        for q in &queries {
            for mask in &masks {
                expected.push(oracle.search(q, mask, &mut scalar));
            }
        }

        // A list search keeps each match line in a register: no word
        // kernel, so one pass covers every kernel.
        let mut hits = Vec::new();
        let mut stats = CamStats::default();
        let mut at = 0;
        for q in &queries {
            for list in &lists {
                base.search_list_into(q, list, &mut stats, &mut hits);
                prop_assert_eq!(&hits, &expected[at]);
                at += 1;
            }
        }
        prop_assert_eq!(stats, scalar);
    }
}

/// Injected bit flips must reach the planes: searches afterwards see the
/// corrupted sequence, exactly like the oracle over the fault report.
#[test]
fn kernel_sees_flipped_bases_after_fault_injection() {
    let seq: PackedSeq = std::iter::repeat_n(Base::G, 640).collect();
    let model = CamFaultModel {
        seed: 11,
        stuck_rate: 0.0,
        flip_rate: 0.05,
    };
    let (kernel, oracle) = faulted(&seq, 8, Some(&model));
    assert_ne!(oracle.seq, seq, "expected flipped bases");
    let mask = EntryMask::all(kernel.entries());
    // All-G query: only entries without a flipped base still match.
    let q = CamQuery::padded(&seq, 0, 8, 0);
    let (mut kernel_stats, mut scalar_stats) = (CamStats::default(), CamStats::default());
    let mut hits_kernel = Vec::new();
    kernel_search(
        &kernel,
        &q,
        &mask,
        &mut CamScratch::default(),
        &mut kernel_stats,
        &mut hits_kernel,
    );
    let hits_scalar = oracle.search(&q, &mask, &mut scalar_stats);
    assert_eq!(hits_kernel, hits_scalar);
    assert!(hits_kernel.len() < kernel.entries());
    assert_eq!(kernel_stats, scalar_stats);
    // A flipped G stores T: one-column T queries find exactly the entries
    // flipped at that column.
    for col in 0..8 {
        let mut symbols = vec![Symbol::Any; col];
        symbols.push(Symbol::Base(Base::T));
        let q = CamQuery::new(symbols);
        kernel_search(
            &kernel,
            &q,
            &mask,
            &mut CamScratch::default(),
            &mut kernel_stats,
            &mut hits_kernel,
        );
        let hits_scalar = oracle.search(&q, &mask, &mut scalar_stats);
        assert_eq!(hits_kernel, hits_scalar, "column {col}");
    }
    assert_eq!(kernel_stats, scalar_stats);
}
