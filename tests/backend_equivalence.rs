//! Cross-backend equivalence properties (proptest): the CAM, FM-index,
//! and ERT seeding backends must emit identical SMEM sets on arbitrary
//! references and reads — the contract every layer above
//! [`casa::core::SeedingBackend`] depends on — and the full session path
//! must preserve that equality under fault injection on the CAM backend.

use casa::core::backend::build_backend;
use casa::core::{
    BackendKind, CasaConfig, FaultPlan, KernelBackend, Lane, SeedingSession, SeedingStats,
    TileKmerCodes,
};
use casa::filter::PreSeedingFilter;
use casa::genome::{Base, PackedSeq};
use casa::index::smem::smems_unidirectional;
use casa::index::SuffixArray;
use proptest::prelude::*;

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = PackedSeq> {
    prop::collection::vec(0u8..4, len)
        .prop_map(|codes| codes.into_iter().map(Base::from_code).collect())
}

/// A read stitched from reference windows plus noise, so SMEM structure is
/// non-trivial (matches the strategy in `equivalence_properties`).
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The trait contract itself: for one partition and one read, every
    /// backend's output equals the golden unidirectional SMEMs — hence
    /// every backend equals every other, bit for bit.
    #[test]
    fn all_backends_equal_golden(
        (reference, read) in dna(150..400).prop_flat_map(stitched_read)
    ) {
        let sa = SuffixArray::build(&reference);
        let config = CasaConfig::small(reference.len());
        let golden = smems_unidirectional(&sa, &read, config.min_smem_len);
        let reads = std::slice::from_ref(&read);
        // The tile's codes and shared filter pass, as a session prepares
        // them; the software backends ignore both.
        let mut codes = TileKmerCodes::compute(reads, config.filter.k);
        codes.look_up(&PreSeedingFilter::build(&reference, config.filter));
        for kind in BackendKind::ALL {
            let backend = build_backend(kind, &reference, config).expect("valid config");
            let mut lane = Lane::new(KernelBackend::Scalar, false);
            let mut stats = SeedingStats::default();
            let mut smems = Vec::new();
            backend.seed_tile(&mut lane, reads, &codes, &mut stats, &mut smems);
            prop_assert_eq!(&smems, &vec![golden.clone()], "{} != golden", kind);
        }
    }

    /// The full session path (partition split, tiling, worker scheduling,
    /// cross-partition merge) agrees across backends.
    #[test]
    fn sessions_agree_across_backends(
        (reference, read) in dna(300..600).prop_flat_map(stitched_read),
        workers in 1usize..4,
    ) {
        let mut config = CasaConfig::small(reference.len().div_ceil(2));
        config.partitioning =
            casa::genome::PartitionScheme::new(reference.len().div_ceil(2), read.len().min(60));
        let reads = std::slice::from_ref(&read);
        let runs: Vec<_> = BackendKind::ALL
            .into_iter()
            .map(|kind| {
                SeedingSession::with_backend(
                    &reference,
                    config,
                    workers,
                    FaultPlan::default(),
                    kind,
                )
                .expect("valid config")
                .seed_reads(reads)
            })
            .collect();
        prop_assert_eq!(&runs[0].smems, &runs[1].smems, "cam != fm");
        prop_assert_eq!(&runs[1].smems, &runs[2].smems, "fm != ert");
    }

    /// A faulted CAM session (hardware faults + full cross-check, plus
    /// scheduler panics) still matches the clean software backends: the
    /// recovery machinery restores the shared output exactly.
    #[test]
    fn faulted_cam_session_matches_clean_software_backends(
        (reference, read) in dna(250..500).prop_flat_map(stitched_read),
        seed in 0u64..1_000,
    ) {
        let config = CasaConfig::small(reference.len());
        let reads = std::slice::from_ref(&read);
        let plan = FaultPlan {
            seed,
            tile_panic_rate: 0.2,
            cam_stuck_rate: 0.2,
            cam_flip_rate: 1e-3,
            cross_check_fraction: 1.0,
            max_retries: 2,
            ..FaultPlan::default()
        };
        let faulted =
            SeedingSession::with_backend(&reference, config, 2, plan, BackendKind::Cam)
                .expect("valid plan")
                .seed_reads(reads);
        for kind in [BackendKind::Fm, BackendKind::Ert] {
            let clean =
                SeedingSession::with_backend(&reference, config, 2, FaultPlan::default(), kind)
                    .expect("valid config")
                    .seed_reads(reads);
            prop_assert_eq!(
                &faulted.smems, &clean.smems,
                "faulted cam != clean {}", kind
            );
        }
    }
}
