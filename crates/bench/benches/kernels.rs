//! Micro-benchmarks of the substrate kernels: SA-IS construction,
//! FM-index backward search, bidirectional SMEM, CAM search, banded SW
//! and Myers edit distance.

use casa_align::aligner::{align_read, AlignConfig};
use casa_align::chain::{anchors_from_smems, chain_anchors, ChainConfig};
use casa_align::myers::edit_distance;
use casa_align::sw::{extend_right, Scoring};
use casa_cam::{Bcam, CamQuery, CamScratch, CamStats, EntryMask, KernelBackend, LoadedMask};
use casa_filter::BloomFilter;
use casa_genome::synth::{generate_reference, ReferenceProfile};
use casa_genome::{ReadSimConfig, ReadSimulator};
use casa_index::smem::{smems_bidirectional, smems_unidirectional};
use casa_index::{BiFmIndex, FmIndex, SuffixArray};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    let reference = generate_reference(&ReferenceProfile::human_like(), 100_000, 1);
    let reads: Vec<_> = ReadSimulator::new(ReadSimConfig::default(), 2)
        .simulate(&reference, 50)
        .into_iter()
        .map(|r| r.seq)
        .collect();

    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reference.len() as u64));
    group.bench_function("sais_100k", |b| b.iter(|| SuffixArray::build(&reference)));
    group.throughput(Throughput::Elements(1));

    let sa = SuffixArray::build(&reference);
    let fm = FmIndex::from_suffix_array(&sa);
    group.bench_function("fm_backward_search_101bp", |b| {
        b.iter(|| {
            reads
                .iter()
                .map(|r| fm.backward_search(r, 0, r.len()).len())
                .sum::<usize>()
        })
    });

    group.bench_function("smem_unidirectional_batch", |b| {
        b.iter(|| {
            reads
                .iter()
                .map(|r| smems_unidirectional(&sa, r, 19).len())
                .sum::<usize>()
        })
    });

    let bi = BiFmIndex::build(&reference);
    group.bench_function("smem_bidirectional_batch", |b| {
        b.iter(|| {
            reads
                .iter()
                .map(|r| smems_bidirectional(&bi, r, 19).len())
                .sum::<usize>()
        })
    });

    let part = reference.subseq(0, 40_000);
    let cam = Bcam::new(&part, 40);
    let entries = cam.entries();
    let mut stats = CamStats::default();
    let full = EntryMask::all(entries);
    group.bench_function("cam_full_search_40k", |b| {
        let q = CamQuery::padded(&reads[0], 0, 19, 3);
        let (mut loaded, mut scratch, mut hits) =
            (LoadedMask::default(), CamScratch::default(), Vec::new());
        b.iter(|| {
            cam.load_mask(&full, &mut loaded);
            cam.search_loaded_into(&q, &loaded, &mut scratch, &mut stats, &mut hits);
            hits.len()
        })
    });

    // Fused bit-parallel search on the same 1000-entry partition, a batch
    // of real read prefixes per iteration: one mask load and one fused
    // column walk per query for each supported backend, and through the
    // shared-mask batch entry point on the default backend.
    let cam_queries: Vec<_> = reads
        .iter()
        .map(|r| CamQuery::padded(r, 0, 19, 3))
        .collect();
    group.throughput(Throughput::Elements(cam_queries.len() as u64));
    for backend in KernelBackend::supported() {
        let mut scratch = CamScratch::new(backend);
        group.bench_function(format!("cam_search_fused_{backend}_40k"), |b| {
            let (mut loaded, mut hits) = (LoadedMask::default(), Vec::new());
            b.iter(|| {
                cam_queries
                    .iter()
                    .map(|q| {
                        cam.load_mask(&full, &mut loaded);
                        cam.search_loaded_into(q, &loaded, &mut scratch, &mut stats, &mut hits);
                        hits.len()
                    })
                    .sum::<usize>()
            })
        });
    }
    group.bench_function("cam_search_batched_40k", |b| {
        let mut hits = Vec::new();
        b.iter(|| {
            cam.search_batch_into(&cam_queries, &full, &mut hits);
            hits.iter().map(Vec::len).sum::<usize>()
        })
    });
    group.throughput(Throughput::Elements(1));

    group.bench_function("banded_sw_101bp", |b| {
        b.iter(|| {
            reads
                .iter()
                .map(|r| extend_right(&reference, 500, r, 0, 7, &Scoring::default()).score)
                .sum::<i32>()
        })
    });

    group.bench_function("myers_edit_distance_64", |b| {
        let a = reference.subseq(100, 64);
        let t = reference.subseq(90, 84);
        b.iter(|| edit_distance(&a, &t))
    });

    let smem_sets: Vec<_> = reads
        .iter()
        .map(|r| smems_unidirectional(&sa, r, 19))
        .collect();
    group.bench_function("chain_anchors_batch", |b| {
        let cfg = ChainConfig::default();
        b.iter(|| {
            smem_sets
                .iter()
                .map(|s| chain_anchors(&anchors_from_smems(s), &cfg).score)
                .sum::<i64>()
        })
    });

    group.bench_function("align_read_batch", |b| {
        let cfg = AlignConfig::default();
        b.iter(|| {
            reads
                .iter()
                .zip(&smem_sets)
                .filter_map(|(r, s)| align_read(&reference, r, s, &cfg))
                .map(|a| a.score)
                .sum::<i32>()
        })
    });

    group.bench_function("bloom_build_and_probe_100k", |b| {
        b.iter(|| {
            let mut bloom = BloomFilter::with_capacity(reference.len(), 10, 3);
            for (_, code) in reference.kmers(19) {
                bloom.insert(code);
            }
            reads
                .iter()
                .flat_map(|r| r.kmers(19))
                .filter(|(_, c)| bloom.contains(*c))
                .count()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
