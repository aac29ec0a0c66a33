//! Filter-pass bench: the sparse pre-seeding pass over every partition of
//! an 8-partition filter, in ns per k-mer code.
//!
//! The filter covers an 8 Mb human-like reference cut into eight 1 Mb
//! partitions at the paper's geometry (k = 19, m = 10), as `casa-seed`
//! builds it by default. Each iteration runs the pass
//! (`PreSeedingFilter::lookup_sparse_into`) over every 64-read tile of
//! 1,024 simulated 101 bp reads, one group per read as a session does:
//! `sparse_pass/reference` on reads from the reference (each code hits
//! its read's own partition), `sparse_pass/foreign` on reads from an
//! unrelated mouse-like genome (nearly every code misses everywhere).
//! The `per_code_lookup` rows look the same codes up one partition at a
//! time through `lookup_code`, the per-pivot path, for scale. Report
//! ns/code from the element throughput (codes per iteration, each looked
//! up in all eight partitions). perfbench's `filter.lookup_ns_per_code`
//! times P = 1 filters; this is the P = 8 measurement.

use casa_filter::{FilterConfig, FilterStats, PreSeedingFilter, SparsePass};
use casa_genome::synth::{generate_reference, ReferenceProfile};
use casa_genome::{PackedSeq, ReadSimConfig, ReadSimulator};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const PARTS: usize = 8;
const PART_LEN: usize = 1 << 20;
const READS: usize = 1_024;
const TILE_READS: usize = 64;

/// Each 64-read tile's rolling codes and per-read group bounds.
fn tiles(reads: &[PackedSeq], k: usize) -> Vec<(Vec<u64>, Vec<usize>)> {
    reads
        .chunks(TILE_READS)
        .map(|tile| {
            let (mut codes, mut bounds) = (Vec::new(), vec![0]);
            for read in tile {
                codes.extend(read.kmers(k).map(|(_, code)| code));
                bounds.push(codes.len());
            }
            (codes, bounds)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let config = FilterConfig::default();
    let reference = generate_reference(&ReferenceProfile::human_like(), PARTS * PART_LEN, 7);
    let parts: Vec<PackedSeq> = (0..PARTS)
        .map(|p| reference.subseq(p * PART_LEN, PART_LEN))
        .collect();
    let refs: Vec<&PackedSeq> = parts.iter().collect();
    let filter = PreSeedingFilter::build_partitions(&refs, config, 2).expect("8 Mb fits");
    let foreign = generate_reference(&ReferenceProfile::mouse_like(), PART_LEN, 8);
    let sim = ReadSimulator::new(ReadSimConfig::default(), 9);
    let simulate = |genome: &PackedSeq| -> Vec<PackedSeq> {
        sim.simulate(genome, READS)
            .into_iter()
            .map(|r| r.seq)
            .collect()
    };

    let mut group = c.benchmark_group("filter_pass");
    group.sample_size(10);
    for (name, genome) in [("reference", &reference), ("foreign", &foreign)] {
        let tiles = tiles(&simulate(genome), config.k);
        let codes: usize = tiles.iter().map(|(codes, _)| codes.len()).sum();
        group.throughput(Throughput::Elements(codes as u64));
        let mut pass = SparsePass::default();
        group.bench_function(BenchmarkId::new("sparse_pass", name), |b| {
            b.iter(|| {
                for (codes, bounds) in &tiles {
                    filter.lookup_sparse_into(codes, bounds, &mut pass);
                }
                black_box(pass.stats(0, 0).lookups)
            })
        });
        group.bench_function(BenchmarkId::new("per_code_lookup", name), |b| {
            b.iter(|| {
                let mut stats = FilterStats::default();
                for (codes, _) in &tiles {
                    for &code in codes {
                        for p in 0..PARTS {
                            black_box(filter.lookup_code(p, code, &mut stats));
                        }
                    }
                }
                stats.hits
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
