//! Figure 5 bench: pre-seeding filter build + hit-pivot scan per k.
//! The measured kernel is what `casa-experiments::fig05` sweeps.

use casa_experiments::scenario::{Genome, Scale, Scenario};
use casa_filter::{FilterConfig, FilterStats, PreSeedingFilter};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let scenario = Scenario::build(Genome::HumanLike, Scale::Small);
    let part = scenario.reference.subseq(0, 50_000);
    let mut group = c.benchmark_group("fig05");
    group.sample_size(10);
    for k in [12usize, 19] {
        group.bench_with_input(BenchmarkId::new("hit_pivot_scan", k), &k, |b, &k| {
            let filter = PreSeedingFilter::build(&part, FilterConfig::new(k, 10, 40, 20));
            let mut stats = FilterStats::default();
            b.iter(|| {
                let mut hits = 0u64;
                for read in &scenario.reads {
                    for pivot in 0..=read.len() - k {
                        hits += u64::from(
                            filter
                                .lookup(0, read, pivot, &mut stats)
                                .is_some_and(|si| !si.is_empty()),
                        );
                    }
                }
                hits
            });
        });
        group.bench_with_input(BenchmarkId::new("filter_build", k), &k, |b, &k| {
            b.iter(|| PreSeedingFilter::build(&part, FilterConfig::new(k, 10, 40, 20)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
