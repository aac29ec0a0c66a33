//! Property-based tests on the stack's core invariants (proptest):
//!
//! * CASA ≡ golden SMEMs on arbitrary references/reads;
//! * the pre-seeding filter never lies (no false positives/negatives);
//! * the CAM padding equivalence of Fig. 7;
//! * SMEM structural invariants (maximality, non-containment).

use casa::cam::{Bcam, CamQuery, CamScratch, CamStats, EntryMask, LoadedMask};
use casa::core::{CasaConfig, PartitionEngine, SeedingStats};
use casa::filter::{FilterConfig, FilterStats, PreSeedingFilter};
use casa::genome::{Base, PackedSeq};
use casa::index::smem::{merge_partition_smems, smems_brute_force, smems_unidirectional};
use casa::index::SuffixArray;
use proptest::prelude::*;

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = PackedSeq> {
    prop::collection::vec(0u8..4, len)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

/// A read stitched from reference windows plus noise, so SMEM structure is
/// non-trivial.
fn stitched_read(reference: PackedSeq) -> impl Strategy<Value = (PackedSeq, PackedSeq)> {
    let n = reference.len();
    (
        Just(reference),
        prop::collection::vec((0..n.saturating_sub(16), 6usize..16, 0u8..4), 2..5),
    )
        .prop_map(|(reference, chunks)| {
            let mut read = PackedSeq::new();
            for (start, len, noise) in chunks {
                let len = len.min(reference.len() - start);
                read.extend(reference.subseq(start, len).iter());
                read.push(Base::from_code(noise));
            }
            (reference, read)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn casa_always_equals_golden((reference, read) in dna(150..400).prop_flat_map(stitched_read)) {
        let sa = SuffixArray::build(&reference);
        let config = CasaConfig::small(reference.len());
        let mut engine = PartitionEngine::new(&reference, config).expect("valid config");
        let mut stats = SeedingStats::default();
        let casa = engine.seed_read(&read, &mut stats);
        let golden = smems_unidirectional(&sa, &read, config.min_smem_len);
        prop_assert_eq!(casa, golden);
    }

    #[test]
    fn golden_equals_brute_force(reference in dna(60..160), read in dna(20..60)) {
        let sa = SuffixArray::build(&reference);
        for min_len in [1usize, 4, 8] {
            prop_assert_eq!(
                smems_unidirectional(&sa, &read, min_len),
                smems_brute_force(&reference, &read, min_len)
            );
        }
    }

    #[test]
    fn smems_are_maximal_and_not_contained((reference, read) in dna(150..350).prop_flat_map(stitched_read)) {
        let sa = SuffixArray::build(&reference);
        let smems = smems_unidirectional(&sa, &read, 4);
        for (i, s) in smems.iter().enumerate() {
            // every hit is a real match
            for &h in &s.hits {
                prop_assert!(reference.matches(h as usize, &read, s.read_start, s.len()));
            }
            // right-maximality: no hit extends right within the read
            if s.read_end < read.len() {
                for &h in &s.hits {
                    prop_assert!(!reference.matches(h as usize, &read, s.read_start, s.len() + 1));
                }
            }
            // pairwise non-containment
            for other in smems.iter().skip(i + 1) {
                prop_assert!(!s.contained_in(other) && !other.contained_in(s));
            }
        }
    }

    #[test]
    fn filter_never_lies(partition in dna(100..400), probe in dna(8..40)) {
        let cfg = FilterConfig::small(6, 3);
        let filter = PreSeedingFilter::build(&partition, cfg);
        let sa = SuffixArray::build(&partition);
        let mut stats = FilterStats::default();
        for pivot in 0..=probe.len().saturating_sub(cfg.k) {
            let hit = !filter.lookup(0, &probe, pivot, &mut stats).expect("in range").is_empty();
            let truth = !sa.interval_of(&probe, pivot, cfg.k).is_empty();
            prop_assert_eq!(hit, truth, "pivot {}", pivot);
        }
    }

    #[test]
    fn padded_cam_search_equals_direct_occurrence_scan(
        text in dna(64..200),
        (start, len) in (0usize..150, 4usize..8),
    ) {
        // Fig. 7: matching a k-mer with p wildcards at entry granularity
        // finds exactly the occurrences at in-entry offset p.
        let stride = 8;
        let cam = Bcam::new(&text, stride);
        let start = start % text.len().saturating_sub(len + 1).max(1);
        let pattern = text.subseq(start.min(text.len() - len), len);
        let entries = cam.entries();
        let mut loaded = LoadedMask::default();
        cam.load_mask(&EntryMask::all(entries), &mut loaded);
        let (mut scratch, mut hits) = (CamScratch::default(), Vec::new());
        for p in 0..stride.min(stride) {
            if p + len > stride {
                break; // pattern would spill into the next entry
            }
            let q = CamQuery::padded(&pattern, 0, len, p);
            cam.search_loaded_into(&q, &loaded, &mut scratch, &mut CamStats::default(), &mut hits);
            let expected: Vec<u32> = (0..entries)
                .filter(|&e| {
                    let pos = e * stride + p;
                    text.matches(pos, &pattern, 0, len)
                })
                .map(|e| e as u32)
                .collect();
            prop_assert_eq!(&hits, &expected, "pad {}", p);
        }
    }

    #[test]
    fn partition_merge_is_idempotent_and_order_insensitive(
        (reference, read) in dna(200..500).prop_flat_map(stitched_read),
        cut in 40usize..160,
    ) {
        // Split the reference into two overlapping partitions, seed each,
        // and merge; the result must equal whole-reference golden SMEMs
        // regardless of partition order, and re-merging must be a no-op.
        // Any read-length window must fit inside one partition, so the cut
        // must be at least a read length in and the overlap a full read.
        let cut = cut.max(read.len()).min(reference.len() - 30);
        let overlap = read.len();
        let part_a = reference.subseq(0, (cut + overlap).min(reference.len()));
        let part_b = reference.subseq(cut, reference.len() - cut);
        let seed_part = |part: &PackedSeq, offset: usize| -> Vec<casa::index::Smem> {
            let sa = SuffixArray::build(part);
            let mut smems = smems_unidirectional(&sa, &read, 6);
            for s in &mut smems {
                for h in &mut s.hits {
                    *h += offset as u32;
                }
            }
            smems
        };
        let a = seed_part(&part_a, 0);
        let b = seed_part(&part_b, cut);
        let merged_ab = merge_partition_smems(vec![a.clone(), b.clone()]);
        let merged_ba = merge_partition_smems(vec![b, a]);
        prop_assert_eq!(&merged_ab, &merged_ba);
        let sa = SuffixArray::build(&reference);
        let golden = smems_unidirectional(&sa, &read, 6);
        prop_assert_eq!(&merged_ab, &golden);
        let again = merge_partition_smems(vec![merged_ab.clone()]);
        prop_assert_eq!(again, merged_ab);
    }

    #[test]
    fn indicator_merge_is_commutative_and_monotone(
        xs in prop::collection::vec(0usize..10_000, 1..20)
    ) {
        use casa::filter::SearchIndicator;
        let (stride, groups) = (40, 20);
        let mut forward = SearchIndicator::EMPTY;
        for &x in &xs {
            forward.merge(SearchIndicator::of_occurrence(x, stride, groups));
        }
        let mut backward = SearchIndicator::EMPTY;
        for &x in xs.iter().rev() {
            backward.merge(SearchIndicator::of_occurrence(x, stride, groups));
        }
        prop_assert_eq!(forward, backward);
        // Every occurrence's bits are present in the union.
        for &x in &xs {
            let single = SearchIndicator::of_occurrence(x, stride, groups);
            prop_assert_eq!(forward.start_mask & single.start_mask, single.start_mask);
            prop_assert_eq!(forward.groups & single.groups, single.groups);
        }
    }

    #[test]
    fn packedseq_roundtrips(codes in prop::collection::vec(0u8..4, 0..300)) {
        let seq: PackedSeq = codes.iter().copied().map(Base::from_code).collect();
        prop_assert_eq!(seq.len(), codes.len());
        let text = seq.to_string();
        let back = PackedSeq::from_ascii(text.as_bytes()).expect("valid text");
        prop_assert_eq!(back, seq.clone());
        let rc2 = seq.reverse_complement().reverse_complement();
        prop_assert_eq!(rc2, seq);
    }
}
