//! Session-scaling bench: the Fig. 12 CASA workload seeded via the old
//! per-call serial path (engines rebuilt every batch) versus a reused
//! [`SeedingSession`] at several worker counts.
//!
//! The serial baseline is `SeedingSession::seed_reads_serial`, the
//! pre-session behaviour kept as an executable specification: every call
//! re-derives each partition's filter tables and CAM arrays. A session
//! pays that construction cost once, so steady-state batches only pay
//! for seeding — the amortisation the `session/...` rows measure.

use casa_core::SeedingSession;
use casa_experiments::scenario::{Genome, Scale, Scenario};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    let scenario = Scenario::build(Genome::HumanLike, Scale::Small);
    let reads = &scenario.reads[..50];
    let config = scenario.casa_config();

    let mut group = c.benchmark_group("session_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reads.len() as u64));

    // Old public API behaviour: engines rebuilt on every seed_reads call.
    let serial =
        SeedingSession::new(&scenario.reference, config, 1).expect("fig12 config is valid");
    group.bench_function("serial_rebuild_per_batch", |b| {
        b.iter(|| serial.seed_reads_serial(reads))
    });

    // Session path: engines built once, batches reuse them.
    for workers in [1, 2, 4, 8] {
        let session = SeedingSession::new(&scenario.reference, config, workers)
            .expect("fig12 config is valid");
        group.bench_with_input(BenchmarkId::new("session", workers), reads, |b, reads| {
            b.iter(|| session.seed_reads(reads))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
