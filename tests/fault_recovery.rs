//! Integration tests for the fault-tolerant seeding runtime:
//!
//! * a `FaultPlan` seed fully determines the injected fault sites and the
//!   recovered output, independent of worker count and scheduling;
//! * the acceptance scenario from the robustness issue: ≥ 10% tile panic
//!   rate plus CAM bit flips, full cross-check — the batch completes
//!   without aborting, output is bit-identical to the fault-free run, and
//!   the recovery counters are nonzero;
//! * the partition backends, built on up to `workers` threads, come out
//!   the same at every worker count: same fault sites, SMEMs and stats.

use casa::core::{BackendKind, CasaConfig, FaultPlan, SeedingSession};
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
    // Eight partitions built on 1, 2 and 8 threads. The CAM and filter
    // faults are silent (no cross-check), so any difference in the built
    // tables or in which rows the plan hits shows up in the SMEMs or the
    // activity counters.
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
    for workers in [2usize, 8] {
        let session = build(workers);
        assert_eq!(
            session.fault_sites(),
            sites,
            "{workers} workers: fault sites"
        );
        let run = session.seed_reads(&reads);
        assert_eq!(run.smems, expected.smems, "{workers} workers: SMEMs");
        assert_eq!(run.stats, expected.stats, "{workers} workers: stats");
    }
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
