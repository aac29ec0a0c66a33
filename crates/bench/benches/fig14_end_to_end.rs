//! Figure 14 bench: SeedEx extension of a seeded batch plus the pipeline
//! stage composition.

use casa_align::seedex::{extend_batch, SeedExConfig};
use casa_core::{CasaConfig, SeedingSession};
use casa_experiments::scenario::{Genome, Scale, Scenario};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let scenario = Scenario::build(Genome::HumanLike, Scale::Small);
    let casa = SeedingSession::new(&scenario.reference, CasaConfig::paper(50_000, 101), 1)
        .expect("valid config");
    let run = casa.seed_reads(&scenario.reads);
    let cfg = SeedExConfig::default();
    let mut group = c.benchmark_group("fig14");
    group.sample_size(10);
    group.bench_function("seedex_extension", |b| {
        b.iter(|| extend_batch(&scenario.reference, &scenario.reads, &run.smems, &cfg))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
