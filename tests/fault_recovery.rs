//! Integration tests for the fault-tolerant seeding runtime:
//!
//! * a `FaultPlan` seed fully determines the injected fault sites and the
//!   recovered output, independent of worker count and scheduling;
//! * the acceptance scenario from the robustness issue: ≥ 10% tile panic
//!   rate plus CAM bit flips, full cross-check — the batch completes
//!   without aborting, output is bit-identical to the fault-free run, and
//!   the recovery counters are nonzero;
//! * the partition backends, built from the reference or mapped from an
//!   index image on up to `workers` threads, come out the same at every
//!   worker count: same fault sites, SMEMs and stats;
//! * a batch is cut into the same tiles at every worker count, and
//!   quarantine takes effect from the batch's start, so crash faults and
//!   silent faults — whether or not they exhaust their retries — book the
//!   same full stats, recovery counters included, at 1, 2 and 8 workers;
//! * a malformed `CASA_FAULT_SEED` makes `casa-seed` and `casa-serve`
//!   fail naming the variable, instead of running fault-free.

use casa::core::{
    build_index_image, BackendKind, CasaConfig, CasaRun, FaultPlan, LoadedIndex, SeedingSession,
};
use casa::genome::synth::{generate_reference, ReferenceProfile};
use casa::genome::{PackedSeq, ReadSimConfig, ReadSimulator};
use proptest::prelude::*;

fn workload() -> (PackedSeq, Vec<PackedSeq>, CasaConfig) {
    let reference = generate_reference(&ReferenceProfile::human_like(), 30_000, 77);
    let reads = ReadSimulator::new(ReadSimConfig::default(), 23)
        .simulate(&reference, 48)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    (reference, reads, CasaConfig::paper(8_000, 101))
}

/// Every fault class at once, seeded by `seed`, with the full cross-check
/// so silent corruption is always caught and recovered.
fn stress_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        tile_panic_rate: 0.2,
        tile_stall_rate: 0.05,
        cam_stuck_rate: 5e-3,
        cam_flip_rate: 2e-3,
        filter_flip_rate: 1e-3,
        cross_check_fraction: 1.0,
        max_retries: 2,
        ..FaultPlan::default()
    }
}

#[test]
fn same_seed_means_same_faults_and_same_output_across_worker_counts() {
    let (reference, reads, config) = workload();
    for seed in [1u64, 7, 42] {
        let plan = stress_plan(seed);
        let clean = SeedingSession::with_fault_plan(&reference, config, 2, FaultPlan::default())
            .expect("valid config")
            .seed_reads(&reads);
        let mut runs = Vec::new();
        for workers in [1usize, 2, 8] {
            let session = SeedingSession::with_fault_plan(&reference, config, workers, plan)
                .expect("valid plan");
            let run = session.seed_reads(&reads);
            runs.push((workers, session.fault_sites().clone(), run));
        }
        let (_, first_sites, first_run) = &runs[0];
        for (workers, sites, run) in &runs {
            assert_eq!(
                sites, first_sites,
                "seed {seed}: fault sites changed at {workers} workers"
            );
            assert_eq!(
                run.smems, first_run.smems,
                "seed {seed}: output changed at {workers} workers"
            );
            assert_eq!(
                run.smems, clean.smems,
                "seed {seed}: recovery diverged from fault-free run at {workers} workers"
            );
        }
    }
}

#[test]
fn parallel_session_build_is_deterministic_under_hardware_faults() {
    // Eight partitions built, or mapped from an image, on 1, 2 and 8
    // threads. The CAM and filter faults are silent (no cross-check), so
    // any difference in the wired tables or in which rows the plan hits
    // shows up in the SMEMs or the activity counters.
    let (reference, reads, _) = workload();
    let config = CasaConfig::paper(4_000, 101);
    let plan = FaultPlan {
        seed: 11,
        cam_stuck_rate: 2e-3,
        cam_flip_rate: 2e-3,
        filter_flip_rate: 2e-3,
        ..FaultPlan::default()
    };
    let build = |workers| {
        SeedingSession::with_backend(&reference, config, workers, plan, BackendKind::Cam)
            .expect("valid plan")
    };
    let serial = build(1);
    assert!(
        serial.partition_count() >= 8,
        "workload must span 8 partitions"
    );
    let sites = serial.fault_sites();
    assert!(
        sites.cam.iter().all(|c| c.sites() > 0),
        "CAM faults in every partition"
    );
    assert!(
        sites.filter.iter().all(|f| f.sites() > 0),
        "filter faults in every partition"
    );
    let expected = serial.seed_reads(&reads);
    assert!(expected.stats.filter.hits > 0 && expected.stats.cam.searches > 0);
    // The mapped legs: the same partitions wired from an image of the
    // same reference and config go through the same assembly.
    let dir = std::env::temp_dir().join(format!("casa_fault_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("ref.casaimg");
    build_index_image(&reference, config, &path).expect("image builds");
    let index = LoadedIndex::open(&path).expect("image maps back");
    let built = [2usize, 8].map(|workers| (format!("built, {workers} workers"), build(workers)));
    let mapped = [1usize, 2, 8].map(|workers| {
        let session = SeedingSession::from_image(&index, workers, plan, BackendKind::Cam)
            .expect("mapped session");
        (format!("mapped, {workers} workers"), session)
    });
    for (leg, session) in built.iter().chain(&mapped) {
        assert_eq!(session.fault_sites(), sites, "{leg}: fault sites");
        let run = session.seed_reads(&reads);
        assert_eq!(run.smems, expected.smems, "{leg}: SMEMs");
        assert_eq!(run.stats, expected.stats, "{leg}: stats");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeds `reads` under `plan` in fresh sessions at 1, 2 and 8 workers,
/// asserts the SMEMs and the full stats — recovery counters included —
/// equal at every worker count, and returns the 1-worker run.
fn run_at_every_worker_count(
    reference: &PackedSeq,
    config: CasaConfig,
    reads: &[PackedSeq],
    plan: FaultPlan,
) -> CasaRun {
    let runs = [1usize, 2, 8].map(|workers| {
        let session =
            SeedingSession::with_fault_plan(reference, config, workers, plan).expect("valid plan");
        (workers, session.seed_reads(reads))
    });
    let (_, first) = &runs[0];
    for (workers, run) in &runs[1..] {
        assert_eq!(
            run.smems, first.smems,
            "{plan:?}: SMEMs at {workers} workers"
        );
        assert_eq!(
            run.stats, first.stats,
            "{plan:?}: stats at {workers} workers"
        );
    }
    let [(_, first), ..] = runs;
    first
}

/// 240 reads: four 64-read tiles, the last one short.
fn recovery_reads(reference: &PackedSeq) -> Vec<PackedSeq> {
    ReadSimulator::new(ReadSimConfig::default(), 29)
        .simulate(reference, 240)
        .into_iter()
        .map(|r| r.seq)
        .collect()
}

#[test]
fn crash_recovery_stats_do_not_depend_on_worker_count() {
    // Tiling fixes where (partition, tile, attempt)-hashed crash faults
    // land. With retries that are never exhausted no partition is
    // quarantined, so every counter — retries included — is a function
    // of the batch alone, not of how many workers share its tiles.
    let (reference, _, config) = workload();
    let reads = recovery_reads(&reference);
    let panics = FaultPlan {
        seed: 17,
        tile_panic_rate: 0.2,
        max_retries: 8,
        ..FaultPlan::default()
    };
    for plan in [FaultPlan::ci_plan(42), panics] {
        let first = run_at_every_worker_count(&reference, config, &reads, plan);
        assert!(first.stats.tile_retries > 0, "{plan:?}: panics should fire");
        assert_eq!(first.stats.partitions_quarantined, 0, "{plan:?}");
    }
}

#[test]
fn quarantine_recovery_stats_do_not_depend_on_worker_count() {
    // Quarantine takes effect from a snapshot of the flags taken as the
    // batch starts, so a partition that fails during the batch still has
    // every one of its tiles make all their attempts: the recovery
    // counters stay a function of the plan and the batch.
    let (reference, _, config) = workload();
    let reads = recovery_reads(&reference);
    let tiles = reads.len().div_ceil(64) as u64;
    let clean = SeedingSession::with_fault_plan(&reference, config, 1, FaultPlan::default())
        .expect("valid config")
        .seed_reads(&reads);

    // Every attempt panics. `partition=` gates hardware faults only, so
    // the panics fire on every partition, and every partition exhausts
    // its retries on every tile of the batch.
    let exhausting = FaultPlan::parse("seed=13,panic=1.0,retries=2,partition=0").unwrap();
    let parts = SeedingSession::with_fault_plan(&reference, config, 1, exhausting)
        .expect("valid plan")
        .partition_count() as u64;
    let run = run_at_every_worker_count(&reference, config, &reads, exhausting);
    assert_eq!(run.smems, clean.smems, "fallback restores the output");
    assert_eq!(run.stats.tile_retries, parts * tiles * 3);
    assert_eq!(run.stats.partitions_quarantined, parts);
    assert_eq!(run.stats.fallback_reads, parts * reads.len() as u64);

    // Silent corruption confined to partition 0, every read
    // cross-checked: each of its tiles mismatches on every attempt.
    let silent = FaultPlan {
        seed: 7,
        cam_stuck_rate: 0.3,
        cam_flip_rate: 2e-3,
        filter_flip_rate: 1e-3,
        cross_check_fraction: 1.0,
        max_retries: 1,
        only_partition: Some(0),
        ..FaultPlan::default()
    };
    let run = run_at_every_worker_count(&reference, config, &reads, silent);
    assert_eq!(run.smems, clean.smems, "fallback restores the output");
    assert!(run.stats.crosscheck_reads > 0);
    if matches!(
        BackendKind::from_env(),
        Ok(None) | Ok(Some(BackendKind::Cam))
    ) {
        // Hardware faults exist only on the CAM backend.
        assert!(run.stats.crosscheck_mismatches > 0);
        assert_eq!(run.stats.partitions_quarantined, 1);
    }
}

#[test]
fn malformed_fault_seed_fails_both_binaries_naming_the_variable() {
    let dir = std::env::temp_dir().join(format!("casa_bad_fault_seed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let reference = generate_reference(&ReferenceProfile::human_like(), 6_000, 3);
    let (fasta, fastq, image) = (
        dir.join("ref.fa"),
        dir.join("reads.fq"),
        dir.join("ref.img"),
    );
    std::fs::write(&fasta, format!(">chr1\n{reference}\n")).expect("write FASTA");
    let read = format!("{}", reference.subseq(1_000, 101));
    std::fs::write(&fastq, format!("@r0\n{read}\n+\n{}\n", "I".repeat(101))).expect("write FASTQ");
    build_index_image(&reference, CasaConfig::paper(3_000, 101), &image).expect("image builds");
    let [fasta, fastq, image] = [&fasta, &fastq, &image].map(|p| p.to_str().unwrap());
    // casa-serve is pointed at a port this test holds, so a daemon that
    // wrongly starts fails to bind and exits instead of serving forever.
    let held = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a port");
    let addr = held.local_addr().expect("bound address").to_string();
    let (seed, serve) = (
        env!("CARGO_BIN_EXE_casa-seed"),
        env!("CARGO_BIN_EXE_casa-serve"),
    );
    let seed_reads = ["--reference", fasta, "--reads", fastq];
    let runs = [
        (seed, [&seed_reads[..], &["--partition", "3000"]].concat()),
        (seed, [&seed_reads[..], &["--index-image", image]].concat()),
        (serve, vec!["--addr", &addr, "--reference", fasta]),
        (serve, vec!["--addr", &addr, "--index-image", image]),
    ];
    for (binary, args) in runs {
        // Set on the child only: the tests share this process's environment.
        let out = std::process::Command::new(binary)
            .args(&args)
            .env("CASA_FAULT_SEED", "not-a-seed")
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{binary} {args:?} must fail: {stderr}"
        );
        assert!(
            stderr.contains("CASA_FAULT_SEED"),
            "{binary} {args:?} must name the variable: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acceptance_scenario_completes_bit_identically_with_nonzero_recovery() {
    let (reference, reads, config) = workload();
    let clean = SeedingSession::with_fault_plan(&reference, config, 4, FaultPlan::default())
        .expect("valid config")
        .seed_reads(&reads);
    let plan = FaultPlan {
        seed: 42,
        tile_panic_rate: 0.10,
        cam_flip_rate: 2e-3, // ≥ the issue's 1e-4 floor, dense enough to hit sites
        cam_stuck_rate: 0.05,
        cross_check_fraction: 1.0,
        max_retries: 2,
        only_partition: Some(0),
        ..FaultPlan::default()
    };
    let session = SeedingSession::with_fault_plan(&reference, config, 4, plan).expect("valid plan");
    // Hardware fault sites (and the quarantine they provoke) exist only on
    // the CAM backend; under a CASA_BACKEND=fm/ert pin the plan still
    // injects scheduler faults, checked below.
    let cam_selected = matches!(
        casa::core::BackendKind::from_env(),
        Ok(None) | Ok(Some(casa::core::BackendKind::Cam))
    );
    if cam_selected {
        assert!(
            session.fault_sites().total() > 0,
            "no hardware faults injected"
        );
    }
    let run = session.seed_reads(&reads);
    assert_eq!(
        run.smems, clean.smems,
        "recovered output must be bit-identical"
    );
    assert!(run.stats.tile_retries > 0, "expected retries from panics");
    if cam_selected {
        assert!(
            run.stats.fallback_reads > 0,
            "expected golden fallbacks from the corrupted partition"
        );
        assert_eq!(run.stats.partitions_quarantined, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seed-matrix determinism as a property: for arbitrary seeds, fault
    /// sites and recovered output are identical at 1 and 4 workers.
    #[test]
    fn fault_plan_seed_determines_everything(seed in 0u64..u64::MAX) {
        let reference = generate_reference(&ReferenceProfile::human_like(), 6_000, 5);
        let reads: Vec<PackedSeq> = ReadSimulator::new(ReadSimConfig::default(), 9)
            .simulate(&reference, 12)
            .into_iter()
            .map(|r| r.seq)
            .collect();
        let config = CasaConfig::paper(2_000, 101);
        let plan = stress_plan(seed);
        let a = SeedingSession::with_fault_plan(&reference, config, 1, plan).expect("valid plan");
        let b = SeedingSession::with_fault_plan(&reference, config, 4, plan).expect("valid plan");
        prop_assert_eq!(a.fault_sites(), b.fault_sites());
        let ra = a.seed_reads(&reads);
        let rb = b.seed_reads(&reads);
        prop_assert_eq!(ra.smems, rb.smems);
    }
}
