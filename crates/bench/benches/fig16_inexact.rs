//! Figure 16 bench: seeding an inexact-only read batch (no exact-match
//! fast path fires).

use casa_core::SeedingSession;
use casa_experiments::scenario::{Genome, Scale, Scenario};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let scenario = Scenario::build_inexact(Genome::HumanLike, Scale::Small);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let casa = SeedingSession::new(&scenario.reference, scenario.casa_config(), workers)
        .expect("valid config");
    let reads = &scenario.reads[..50];
    let mut group = c.benchmark_group("fig16");
    group.sample_size(10);
    group.bench_function("casa_inexact", |b| b.iter(|| casa.seed_reads(reads)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
