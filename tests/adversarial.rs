//! Adversarial inputs: degenerate sequences that stress hit-list sizes,
//! containment logic, partition boundaries, and the filter's corner cases.
//! Every case still demands golden equality — pathological inputs may be
//! slow, never wrong.

use casa::core::{
    CasaConfig, Error, PartitionEngine, SeedingSession, SeedingStats, StreamBatch, StreamConfig,
    StreamError,
};
use casa::filter::{FilterConfig, FilterStats, PreSeedingFilter};
use casa::genome::synth::{generate_reference, ReferenceProfile};
use casa::genome::{Base, PackedSeq, PartitionScheme};
use casa::index::smem::smems_unidirectional;
use casa::index::SuffixArray;
use casa::Seeder;

fn repeat_seq(unit: &str, times: usize) -> PackedSeq {
    PackedSeq::from_ascii(&unit.as_bytes().repeat(times)).unwrap()
}

fn golden_check(reference: &PackedSeq, reads: &[PackedSeq], config: CasaConfig) {
    let sa = SuffixArray::build(reference);
    let mut engine = PartitionEngine::new(reference, config).expect("valid config");
    let mut stats = SeedingStats::default();
    for (i, read) in reads.iter().enumerate() {
        let casa = engine.seed_read(read, &mut stats);
        let golden = smems_unidirectional(&sa, read, config.min_smem_len);
        assert_eq!(casa, golden, "read {i}");
    }
}

#[test]
fn homopolymer_reference_and_reads() {
    // Every position matches every position: maximal hit lists.
    let reference = repeat_seq("A", 2_000);
    let config = CasaConfig::small(reference.len());
    let reads = vec![
        repeat_seq("A", 50), // matches everywhere
        repeat_seq("A", 7),  // barely above k
        PackedSeq::from_ascii(&[b"A".repeat(25), b"C".to_vec(), b"A".repeat(24)].concat()).unwrap(), // one interruption
    ];
    golden_check(&reference, &reads, config);
}

#[test]
fn periodic_reference_with_period_matching_stride() {
    // Period equal to the CAM stride: every entry is identical, so the
    // successor-enabling logic sees maximal fan-out.
    let stride = FilterConfig::small(6, 3).stride; // 8
    let unit: String = "ACGTACGT"[..stride].to_string();
    let reference = repeat_seq(&unit, 200);
    let mut config = CasaConfig::small(reference.len());
    config.exact_match_preprocessing = false;
    let reads = vec![
        reference.subseq(3, 40),
        reference.subseq(0, stride * 3),
        repeat_seq(&unit, 4),
    ];
    golden_check(&reference, &reads, config);
}

#[test]
fn read_equals_whole_partition() {
    let reference = repeat_seq("GATTACA", 40); // 280 bases
    let config = CasaConfig::small(reference.len());
    let read = reference.clone();
    golden_check(&reference, std::slice::from_ref(&read), config);
}

#[test]
fn smems_ending_exactly_at_read_end_and_start() {
    // Matches that touch both read boundaries exercise the CRkM
    // end-of-read shortcut.
    let reference =
        PackedSeq::from_ascii(&[b"ACGTTGCA".repeat(30), b"TTTTTTTT".repeat(4)].concat()).unwrap();
    let mut config = CasaConfig::small(reference.len());
    config.use_pivot_analysis = true;
    let reads = vec![
        reference.subseq(0, 30),
        reference.subseq(reference.len() - 30, 30),
        // mismatch at the very last base
        {
            let mut bases: Vec<Base> = reference.subseq(10, 30).iter().collect();
            let last = bases.last_mut().unwrap();
            *last = Base::from_code(last.code().wrapping_add(1));
            bases.into_iter().collect()
        },
    ];
    golden_check(&reference, &reads, config);
}

#[test]
fn partition_cut_through_tandem_repeat() {
    // A tandem repeat straddling the partition cut: hits dedup across the
    // overlap without loss.
    let reference = repeat_seq("ACGTTGCATT", 100); // 1000 bases
    let mut config = CasaConfig::small(250);
    config.partitioning = PartitionScheme::new(250, 60);
    let casa = SeedingSession::new(&reference, config, 2).expect("valid config");
    let sa = SuffixArray::build(&reference);
    let read = reference.subseq(240, 50); // spans the first cut
    let run = casa.seed_reads(std::slice::from_ref(&read));
    let golden = smems_unidirectional(&sa, &read, config.min_smem_len);
    assert_eq!(run.smems[0], golden);
    // The repeat gives many hits; each must be unique after the merge.
    let hits = &run.smems[0][0].hits;
    let mut deduped = hits.clone();
    deduped.dedup();
    assert_eq!(*hits, deduped, "merged hits must be deduplicated");
    assert!(hits.len() >= 90, "tandem repeat should hit ~every period");
}

#[test]
fn read_longer_than_partition_overlap_is_rejected_not_split() {
    // A 150-bp exact substring centred on a partition cut, against an
    // index sized for 50-bp reads (overlap 49): no partition holds the
    // read whole, so seeding it would split its SMEM at the cut.
    let reference = generate_reference(&ReferenceProfile::human_like(), 40_000, 5);
    let seeder = Seeder::builder(&reference)
        .partition_len(8_000)
        .read_len(50)
        .workers(1)
        .build()
        .expect("valid config");
    let session = seeder.session();
    assert!(session.partition_count() > 1);
    assert_eq!(session.max_read_len(), Some(50));
    let long = reference.subseq(8_000 - 75, 150);
    let short = reference.subseq(8_000 - 25, 50);
    let batch = [short.clone(), long.clone()];
    assert_eq!(
        session.try_seed_reads(&batch).unwrap_err(),
        Error::ReadTooLong {
            read: 1,
            len: 150,
            max: 50
        }
    );
    let panicked =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| seeder.seed_reads(&batch)));
    assert!(panicked.is_err(), "seed_reads must not fall back on it");

    // The streaming runtime names the record.
    let err = seeder
        .seed_stream(
            StreamConfig {
                batch_reads: 2,
                ..StreamConfig::default()
            },
            [short.clone(), short.clone(), short.clone(), long.clone()]
                .into_iter()
                .map(Ok::<_, std::convert::Infallible>),
            |_batch: &StreamBatch<PackedSeq>| Ok(Vec::new()),
        )
        .expect_err("over-long record must fail the stream");
    assert!(
        matches!(
            err,
            StreamError::ReadTooLong {
                record: 3,
                len: 150,
                max: 50
            }
        ),
        "{err}"
    );

    // A read at the limit straddling the cut is exact.
    let sa = SuffixArray::build(&reference);
    let run = session
        .try_seed_reads(std::slice::from_ref(&short))
        .unwrap();
    let min = session.config().min_smem_len;
    assert_eq!(run.smems[0], smems_unidirectional(&sa, &short, min));

    // One partition holds the whole reference: any length is exact.
    let whole = Seeder::builder(&reference)
        .partition_len(reference.len())
        .read_len(50)
        .workers(1)
        .build()
        .expect("valid config");
    assert_eq!(whole.session().max_read_len(), None);
    let run = whole
        .session()
        .try_seed_reads(std::slice::from_ref(&long))
        .unwrap();
    assert_eq!(run.smems[0], smems_unidirectional(&sa, &long, min));
}

#[test]
fn filter_with_paper_geometry_on_tiny_partition() {
    // k=19/m=10 on a partition barely larger than k: buckets of size 0/1.
    let part = repeat_seq("ACGTTGCATCGGATCCAGT", 2); // 38 bases
    let filter = PreSeedingFilter::build(&part, FilterConfig::default());
    assert_eq!(filter.rows(), 38 - 19 + 1);
    let mut stats = FilterStats::default();
    for (x, _) in part.kmers(19) {
        assert!(
            filter
                .lookup(0, &part, x, &mut stats)
                .is_some_and(|si| !si.is_empty()),
            "own 19-mer at {x} must hit"
        );
    }
    let absent = repeat_seq("T", 19);
    assert!(filter
        .lookup(0, &absent, 0, &mut stats)
        .is_some_and(|si| si.is_empty()));
}

#[test]
fn reads_shorter_than_k_or_empty_are_safe_everywhere() {
    let reference = repeat_seq("ACGTTGCA", 100);
    let config = CasaConfig::small(reference.len());
    let mut engine = PartitionEngine::new(&reference, config).expect("valid config");
    let mut stats = SeedingStats::default();
    for len in [0usize, 1, 5] {
        let read = reference.subseq(0, len);
        assert!(engine.seed_read(&read, &mut stats).is_empty(), "len {len}");
    }
    let sa = SuffixArray::build(&reference);
    assert!(smems_unidirectional(&sa, &PackedSeq::new(), 6).is_empty());
}

#[test]
fn alternating_two_letter_alphabet() {
    // AT-only content: k-mer space is tiny, buckets are enormous relative
    // to the alphabet — stresses the mini-index bucket scan.
    let reference = repeat_seq("ATATATTATA", 150);
    let mut config = CasaConfig::small(reference.len());
    config.exact_match_preprocessing = false;
    let reads = vec![
        reference.subseq(7, 60),
        repeat_seq("AT", 25),
        repeat_seq("TA", 25),
    ];
    golden_check(&reference, &reads, config);
}

#[test]
fn every_pivot_filtered_read() {
    // A read over bases the reference never pairs: GC-only read against
    // an AT-only reference — 100% of pivots must die in the filter.
    let reference = repeat_seq("ATTA", 200);
    let config = CasaConfig::small(reference.len());
    let mut engine = PartitionEngine::new(&reference, config).expect("valid config");
    let mut stats = SeedingStats::default();
    let read = repeat_seq("GC", 30);
    assert!(engine.seed_read(&read, &mut stats).is_empty());
    assert_eq!(stats.rmem_searches, 0, "no pivot may reach the CAM");
    assert_eq!(stats.pivots_filtered_table, stats.pivots_total);
}
