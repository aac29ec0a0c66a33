//! Kernel regression gate: the Fig. 12 (exact-read) and Fig. 16
//! (inexact-read) seeding workloads must produce byte-identical
//! serialized outputs across **every** CAM kernel configuration — the
//! process default and each supported word backend (scalar `u64`,
//! `u64x4`, AVX2) — and SMEMs equal to the FM-index backend, an
//! independent golden. This pins the experiment JSON/CSV artifacts across
//! the kernel-dispatch rewrite: identical `CasaRun` SMEMs and statistics
//! imply identical figure tables, so a dispatch bug cannot silently
//! change published figures.

use casa_core::{BackendKind, CasaRun, FaultPlan, KernelBackend, SeedingSession};
use casa_experiments::scenario::{Genome, Scale, Scenario};

/// Serializes the parts of a run that feed the figure tables.
fn run_bytes(run: &CasaRun) -> Vec<u8> {
    format!("{:?}\n{:?}", run.smems, run.stats).into_bytes()
}

fn assert_kernel_parity(scenario: &Scenario) {
    let golden = SeedingSession::with_backend(
        &scenario.reference,
        scenario.casa_config(),
        2,
        FaultPlan::default(),
        BackendKind::Fm,
    )
    .expect("scenario config is valid")
    .seed_reads(&scenario.reads);
    let session = SeedingSession::new(&scenario.reference, scenario.casa_config(), 2)
        .expect("scenario config is valid");
    // Process default (CASA_KERNEL or CPU detection) first.
    let run = session.seed_reads(&scenario.reads);
    assert_eq!(
        run.smems, golden.smems,
        "default word kernel SMEMs diverged from the FM-index golden"
    );
    let default = run_bytes(&run);
    for backend in KernelBackend::supported() {
        let pinned = session
            .clone()
            .with_kernel_backend(backend)
            .expect("supported kernel");
        assert_eq!(
            run_bytes(&pinned.seed_reads(&scenario.reads)),
            default,
            "serialized seeding output changed under the {backend} backend"
        );
    }
}

#[test]
fn fig12_exact_workload_is_byte_identical_across_kernels() {
    let scenario = Scenario::build(Genome::HumanLike, Scale::Small);
    assert_kernel_parity(&scenario);
}

#[test]
fn fig16_inexact_workload_is_byte_identical_across_kernels() {
    let scenario = Scenario::build_inexact(Genome::HumanLike, Scale::Small);
    assert_kernel_parity(&scenario);
}

#[test]
fn mouse_genome_workload_is_byte_identical_across_kernels() {
    let scenario = Scenario::build(Genome::MouseLike, Scale::Small);
    assert_kernel_parity(&scenario);
}
