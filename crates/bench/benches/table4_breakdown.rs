//! Table 4 bench: area/power breakdown derivation.

use casa_core::energy_model::{dynamic_ledger, CasaHardwareModel};
use casa_core::{CasaConfig, SeedingSession};
use casa_experiments::scenario::{Genome, Scale, Scenario};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let scenario = Scenario::build(Genome::HumanLike, Scale::Small);
    let casa = SeedingSession::new(&scenario.reference, CasaConfig::paper(50_000, 101), 1)
        .expect("valid config");
    let run = casa.seed_reads(&scenario.reads[..60]);
    let hw = CasaHardwareModel::default();
    let mut group = c.benchmark_group("table4");
    group.bench_function("area_report", |b| b.iter(|| hw.area_report(3.604, 1.798)));
    group.bench_function("dynamic_ledger", |b| b.iter(|| dynamic_ledger(&run.stats)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
