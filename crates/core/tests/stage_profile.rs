//! Bit-identity and accounting contracts of the profiling layer: the
//! profiled session path must produce byte-identical SMEMs and SAM
//! records to an unprofiled CAM session across every backend, kernel,
//! and worker count — and the per-stage spans it records must be
//! disjoint (their sum bounded by the run's wall time).

use std::time::Instant;

use casa_core::{BackendKind, CasaConfig, FaultPlan, KernelBackend, SeedingSession, Stage};
use casa_genome::sam::{Cigar, CigarOp, SamFormatter, SamRecord};
use casa_genome::{Base, PackedSeq};
use casa_index::Smem;
use proptest::prelude::*;

fn packed(codes: &[u8]) -> PackedSeq {
    codes.iter().map(|&c| Base::from_code(c & 3)).collect()
}

/// Builds a read batch mixing reference substrings (guaranteed hits),
/// point-mutated substrings, and fully random sequences.
fn reads_from(reference: &PackedSeq, specs: &[(usize, usize, u8, u8)]) -> Vec<PackedSeq> {
    specs
        .iter()
        .map(|&(offset, len, kind, mutation)| {
            let len = len.clamp(8, 48).min(reference.len());
            let start = offset % (reference.len() - len + 1);
            let mut read = reference.subseq(start, len);
            match kind % 3 {
                0 => {}
                1 => {
                    // Point mutation somewhere in the read.
                    let at = usize::from(mutation) % len;
                    let old = read.base(at);
                    let new = Base::from_code((old.code() + 1) & 3);
                    read = (0..len)
                        .map(|i| if i == at { new } else { read.base(i) })
                        .collect();
                }
                _ => {
                    // Pseudo-random sequence decorrelated from the
                    // reference.
                    read = (0..len)
                        .map(|i| Base::from_code(((i as u8).wrapping_mul(37) ^ mutation) & 3))
                        .collect();
                }
            }
            read
        })
        .collect()
}

/// Renders per-read SMEM lists as SAM records (best SMEM as soft-clipped
/// match, no SMEM as unmapped) — the emission shape of the CLI.
fn sam_bytes(reads: &[PackedSeq], smems: &[Vec<Smem>]) -> Vec<u8> {
    let records: Vec<SamRecord> = reads
        .iter()
        .zip(smems)
        .enumerate()
        .map(|(i, (read, list))| {
            let qname = format!("r{i}");
            match list
                .iter()
                .max_by_key(|s| (s.len(), std::cmp::Reverse(s.read_start)))
            {
                Some(smem) => {
                    let mut ops = Vec::new();
                    if smem.read_start > 0 {
                        ops.push(CigarOp::SoftClip(smem.read_start as u32));
                    }
                    ops.push(CigarOp::AlnMatch(smem.len() as u32));
                    if smem.read_end < read.len() {
                        ops.push(CigarOp::SoftClip((read.len() - smem.read_end) as u32));
                    }
                    SamRecord {
                        qname,
                        flag: 0,
                        rname: "ref".to_string(),
                        pos: u64::from(smem.hits[0]) + 1,
                        mapq: 60,
                        cigar: Cigar(ops),
                        seq: read.clone(),
                    }
                }
                None => SamRecord::unmapped(&qname, read.clone()),
            }
        })
        .collect();
    let mut out = Vec::new();
    SamFormatter::new()
        .write_all(&mut out, &records)
        .expect("Vec sink cannot fail");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The profiled path is byte-identical to an unprofiled CAM session
    /// — SMEMs and SAM — for every backend, every supported kernel, and
    /// worker counts 1, 2, and 8.
    #[test]
    fn profiled_path_is_bit_identical_across_backends_kernels_workers(
        ref_codes in prop::collection::vec(0u8..4, 200..900),
        specs in prop::collection::vec(
            (0usize..10_000, 8usize..48, 0u8..3, 0u8..=255),
            1..10,
        ),
    ) {
        let reference = packed(&ref_codes);
        let reads = reads_from(&reference, &specs);
        let config = CasaConfig::small((reference.len() / 3).max(64));

        // Reference: an unprofiled session on the CAM backend, pinned
        // explicitly so a CI `CASA_BACKEND` pin cannot change what the
        // stats assertion below compares.
        let seed_session = SeedingSession::with_backend(
            &reference,
            config,
            1,
            FaultPlan::default(),
            BackendKind::Cam,
        )
        .expect("small config is valid");
        let seed_run = seed_session.seed_reads(&reads);
        let seed_sam = sam_bytes(&reads, &seed_run.smems);

        for backend in BackendKind::ALL {
            for workers in [1usize, 2, 8] {
                let session = SeedingSession::with_backend(
                    &reference,
                    config,
                    workers,
                    FaultPlan::default(),
                    backend,
                )
                .expect("small config is valid");
                session.set_profiling(true);
                let kernels: Vec<Option<KernelBackend>> = if backend == BackendKind::Cam {
                    KernelBackend::supported().map(Some).collect()
                } else {
                    vec![None]
                };
                for kernel in kernels {
                    let session = match kernel {
                        Some(k) => session.clone().with_kernel_backend(k).expect("supported kernel"),
                        None => session.clone(),
                    };
                    let run = session.seed_reads(&reads);
                    prop_assert_eq!(
                        &run.smems, &seed_run.smems,
                        "{} workers={} kernel={:?}: SMEMs diverged from seed path",
                        backend, workers, kernel
                    );
                    prop_assert_eq!(
                        &sam_bytes(&reads, &run.smems), &seed_sam,
                        "{} workers={} kernel={:?}: SAM bytes diverged",
                        backend, workers, kernel
                    );
                    if backend == BackendKind::Cam {
                        // Same engine model: every stat except the profile
                        // must match the seed path exactly.
                        let mut stats = run.stats;
                        stats.profile = Default::default();
                        prop_assert_eq!(
                            stats, seed_run.stats,
                            "workers={} kernel={:?}: stats diverged",
                            workers, kernel
                        );
                        prop_assert!(
                            !run.stats.profile.is_empty(),
                            "profiling enabled but no spans recorded"
                        );
                    }
                }
            }
        }
    }
}

/// Stage spans are disjoint: on one worker their sum never exceeds the
/// wall time of the `seed_reads` call that recorded them (no
/// double-counted span), and the engine-side stages all fire. With N
/// workers the spans accumulate across concurrent threads, so the bound
/// relaxes to N x wall — checked separately below.
#[test]
fn stage_times_sum_to_at_most_wall_time() {
    let reference: PackedSeq = (0..4096u32)
        .map(|i| Base::from_code((i.wrapping_mul(2654435761) >> 13) as u8 & 3))
        .collect();
    // Half exact reference substrings, half with a point mutation so the
    // pivot loop (not just exact-match preprocessing) runs.
    let reads: Vec<PackedSeq> = (0..32usize)
        .map(|i| {
            let sub = reference.subseq((i * 97) % 3000, 40);
            if i % 2 == 0 {
                return sub;
            }
            let at = 11 + (i % 17);
            (0..sub.len())
                .map(|j| {
                    let b = sub.base(j);
                    if j == at {
                        Base::from_code((b.code() + 1) & 3)
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect();
    // CAM backend pinned explicitly: the engine-stage assertions below
    // only hold for the CAM engine, whatever CI pinned via CASA_BACKEND.
    let session = SeedingSession::with_backend(
        &reference,
        CasaConfig::small(1024),
        1,
        FaultPlan::default(),
        BackendKind::Cam,
    )
    .expect("small config is valid");
    session.set_profiling(true);
    // Warm-up, then the measured pass.
    session.seed_reads(&reads);
    let start = Instant::now();
    let run = session.seed_reads(&reads);
    let wall = start.elapsed().as_nanos() as u64;
    let profile = run.stats.profile;
    assert!(!profile.is_empty());
    assert!(
        profile.total_nanos() <= wall,
        "stage spans sum to {} ns but the run took only {} ns — a span \
         was double-counted",
        profile.total_nanos(),
        wall
    );
    // The engine/session stages all fired; the harness-side stages
    // (read packing, emission) are outside seed_reads and stay zero.
    for stage in [
        Stage::KmerCodes,
        Stage::FilterLookup,
        Stage::PivotAnalysis,
        Stage::CamSearch,
        Stage::ContainMerge,
        Stage::TranslateMerge,
    ] {
        assert!(profile.calls(stage) > 0, "no spans recorded for {stage}");
    }
    for stage in [Stage::ReadPack, Stage::Emit] {
        assert_eq!(
            profile.nanos(stage),
            0,
            "{stage} is a harness-side stage and must not be charged \
             inside seed_reads"
        );
    }
    // Disabling profiling returns the profile to all-zero, so equality
    // comparisons against unprofiled runs keep working.
    session.set_profiling(false);
    assert!(session.seed_reads(&reads).stats.profile.is_empty());

    // Parallel case: per-thread spans accumulate, so the bound is
    // workers x wall.
    let workers = 4;
    let parallel = SeedingSession::with_backend(
        &reference,
        CasaConfig::small(1024),
        workers,
        FaultPlan::default(),
        BackendKind::Cam,
    )
    .expect("small config is valid");
    parallel.set_profiling(true);
    parallel.seed_reads(&reads);
    let start = Instant::now();
    let run = parallel.seed_reads(&reads);
    let wall = start.elapsed().as_nanos() as u64;
    assert!(
        run.stats.profile.total_nanos() <= wall * workers as u64,
        "parallel stage spans sum to {} ns over {} workers but the run \
         took only {} ns",
        run.stats.profile.total_nanos(),
        workers,
        wall
    );
}
