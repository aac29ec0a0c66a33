//! Figure 12 bench: the seeding kernels of all five systems on the same
//! read batch.

use casa_baselines::{BwaMem2Model, ErtAccelerator, ErtConfig, GenaxAccelerator, GenaxConfig};
use casa_core::SeedingSession;
use casa_experiments::scenario::{Genome, Scale, Scenario, READ_LEN};
use casa_experiments::systems::genax_k;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let scenario = Scenario::build(Genome::HumanLike, Scale::Small);
    let reads = &scenario.reads[..50];
    let mut group = c.benchmark_group("fig12_seeding");
    group.sample_size(10);

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let casa = SeedingSession::new(&scenario.reference, scenario.casa_config(), workers)
        .expect("valid config");
    group.bench_function("casa", |b| b.iter(|| casa.seed_reads(reads)));

    let ert = ErtAccelerator::new(&scenario.reference, ErtConfig::default());
    group.bench_function("ert", |b| b.iter(|| ert.process_reads(reads)));

    let genax_cfg = GenaxConfig {
        k: genax_k(Scale::Small),
        ..GenaxConfig::paper(Scale::Small.partition_len(), READ_LEN)
    };
    let genax = GenaxAccelerator::new(&scenario.reference, genax_cfg);
    group.bench_function("genax", |b| b.iter(|| genax.seed_reads(reads)));

    let bwa = BwaMem2Model::new(&scenario.reference, 19);
    group.bench_function("bwa_mem2", |b| b.iter(|| bwa.seed_reads(reads)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
