//! The traced run: replays a workload's inputs in-process through each
//! crate's public calls, one span per call, and derives the per-layer
//! metrics from the spans (self time) and from the counts the public API
//! returns. Every seeded output is checked against the FM-index golden
//! model, so the traced run fails on the same mismatches the end-to-end
//! run does.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use casa::align::{align_read, AlignConfig};
use casa::cam::{Bcam, CamQuery, EntryMask, KernelBackend};
use casa::core::{
    energy_model, BackendKind, FaultPlan, LoadedIndex, PartitionEngine, SeedingBackend,
    SeedingSession, SeedingStats, TileKmerCodes,
};
use casa::filter::PreSeedingFilter;
use casa::genome::fasta::NPolicy;
use casa::genome::fastq::FastqStream;
use casa::genome::sam::{SamFormatter, SamRecord, FLAG_REVERSE};
use casa::genome::{Base, PackedSeq};
use casa::index::Smem;
use casa::serve::{ServeConfig, Server};
use casa::Seeder;

use crate::inputs::{golden_session, render_tsv, Inputs, READS_PER_REQUEST};
use crate::serve::{request, Pool};
use crate::stats::{median, Metric, Outcome};
use crate::trace::Tracer;
use crate::Workload;

/// Reads replayed per pass (the workload's first reads; the serve pool
/// is already about this size).
const TRACE_READS: usize = 2_048;
/// Reads per engine tile.
const TILE: usize = 64;
/// Passes per timed group; the median pass is reported.
const PASSES: usize = 5;

/// Median over spans named `name` of `duration / per`.
fn ns_per(t: &Tracer, name: &str, per: usize) -> f64 {
    let each: Vec<f64> = t
        .each_ns(name)
        .into_iter()
        .map(|ns| ns as f64 / per.max(1) as f64)
        .collect();
    if each.is_empty() {
        0.0
    } else {
        median(&each)
    }
}

/// Median over passes of `span(alt) / span(base)` (spans recorded in
/// matching order).
fn ratio(t: &Tracer, alt: &str, base: &str) -> f64 {
    let a = t.each_ns(alt);
    let b = t.each_ns(base);
    let r: Vec<f64> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| *x as f64 / (*y).max(1) as f64)
        .collect();
    if r.is_empty() {
        0.0
    } else {
        median(&r)
    }
}

fn div(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The CLI's record for one read's best-orientation seeds (unmapped when
/// no alignment is found).
fn sam_record(
    reference: &PackedSeq,
    name: &str,
    seq: &PackedSeq,
    reverse: bool,
    smems: &[Smem],
) -> SamRecord {
    let oriented = if reverse {
        seq.reverse_complement()
    } else {
        seq.clone()
    };
    match align_read(reference, &oriented, smems, &AlignConfig::default()) {
        Some(aln) => SamRecord {
            qname: name.to_string(),
            flag: if reverse { FLAG_REVERSE } else { 0 },
            rname: "chr_synth".to_string(),
            pos: aln.ref_start as u64 + 1,
            mapq: aln.mapq,
            cigar: aln.cigar,
            seq: oriented,
        },
        None => SamRecord::unmapped(name, seq.clone()),
    }
}

/// Everything the traced run reports.
struct Layers<'a> {
    t: Tracer,
    out: &'a mut Outcome,
}

impl Layers<'_> {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.out.metrics.push(Metric::single(name, unit, value, 1));
    }

    /// Counts one checked op; a mismatch fails the run.
    fn check(&mut self, what: &str, ok: bool) {
        self.out.check(if ok {
            Ok(())
        } else {
            Err(format!("{what}: output differs from golden"))
        });
    }
}

/// Runs the traced replay of `workload`, appends every per-layer metric
/// to `out`, and writes the spans into `span_dir`.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    image: &Path,
    span_dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let started = Instant::now();
    let config = inputs.scale.config();
    let reads: Vec<PackedSeq> = match workload {
        Workload::ServeSmall => inputs.request_pool().into_iter().flatten().collect(),
        _ => inputs.seqs().into_iter().take(TRACE_READS).collect(),
    };
    let names: Vec<String> = (0..reads.len()).map(|i| format!("t{i}")).collect();
    let n = reads.len();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let golden_model = golden_session(inputs, nproc)?;
    let golden = golden_model.seed_reads(&reads).smems;
    let golden_both = golden_model.seed_reads_both_strands(&reads);
    drop(golden_model);
    let golden_best: Vec<(bool, Vec<Smem>)> = golden_both
        .best_per_read()
        .into_iter()
        .map(|(r, s)| (r, s.to_vec()))
        .collect();
    eprintln!(
        "traced replay: {n} reads; golden in {:.1} s",
        started.elapsed().as_secs_f64()
    );

    let mut l = Layers {
        t: Tracer::new(),
        out,
    };
    let partitions = config.partitioning.split(&inputs.reference);

    // casa-genome: FASTQ parse of the workload's whole read file.
    let file_reads = inputs.reads.len();
    for _ in 0..PASSES {
        l.t.next_op();
        let parsed = l.t.span("genome.fastq_parse", |_| {
            FastqStream::from_path(&inputs.reads_path, NPolicy::Replace(Base::A))
                .map(|s| s.filter(Result::is_ok).count())
                .unwrap_or(0)
        });
        l.check("fastq parse", parsed == file_reads);
    }
    let v = ns_per(&l.t, "genome.fastq_parse", file_reads);
    l.put("genome.fastq_parse_ns_per_read", "ns/read", v);

    // Index construction: CAM planes, filter tables, the whole session.
    let mut cams: Vec<Bcam> = Vec::new();
    let mut filters: Vec<PreSeedingFilter> = Vec::new();
    for _ in 0..3 {
        l.t.next_op();
        cams = l.t.span("cam.build", |_| {
            partitions
                .iter()
                .map(|p| Bcam::new(&p.seq, config.filter.stride))
                .collect()
        });
        filters = l.t.span("filter.build", |_| {
            partitions
                .iter()
                .map(|p| PreSeedingFilter::build(&p.seq, config.filter))
                .collect()
        });
        let session = l.t.span("index.build", |_| {
            SeedingSession::with_backend(
                &inputs.reference,
                config,
                nproc,
                FaultPlan::default(),
                BackendKind::Cam,
            )
        });
        l.check("index build", session.is_ok());
    }
    for (name, metric) in [
        ("cam.build", "cam.build_s"),
        ("filter.build", "filter.build_s"),
        ("index.build", "index.build_s"),
    ] {
        let v = ns_per(&l.t, name, 1) / 1e9;
        l.put(metric, "s", v);
    }

    // casa-core::image: fast open, session wiring, full verify.
    let mut index = None;
    for _ in 0..10 {
        l.t.next_op();
        let fast =
            l.t.span("image.open_fast", |_| LoadedIndex::open_fast(image));
        if let Ok(fast) = &fast {
            let s = l.t.span("image.session_wire", |_| {
                SeedingSession::from_image(fast, nproc, FaultPlan::default(), BackendKind::Cam)
            });
            l.check("session from image", s.is_ok());
        }
        let full = l.t.span("image.open_full", |_| LoadedIndex::open(image));
        l.check("image open", fast.is_ok() && full.is_ok());
        index = full.ok();
    }
    let index = index.ok_or("index image does not open")?;
    for (name, metric) in [
        ("image.open_fast", "image.open_fast_ms"),
        ("image.session_wire", "image.session_wire_ms"),
        ("image.open_full", "image.open_full_ms"),
    ] {
        let v = ns_per(&l.t, name, 1) / 1e6;
        l.put(metric, "ms", v);
    }

    // casa-filter: batched lookups of every read's k-mer codes.
    let codes = TileKmerCodes::compute(&reads, config.filter.k);
    let total_codes: usize = (0..n).map(|i| codes.read(i).len()).sum::<usize>() * filters.len();
    let mut indicators = Vec::new();
    for _ in 0..PASSES {
        l.t.next_op();
        l.t.span("filter.lookup", |_| {
            for f in filters.iter_mut() {
                for i in 0..n {
                    f.lookup_codes_into(codes.read(i), &mut indicators);
                }
            }
        });
    }
    let v = ns_per(&l.t, "filter.lookup", total_codes);
    l.put("filter.lookup_ns_per_code", "ns/code", v);

    // casa-cam: batched searches of each read's stride-long windows
    // against every partition, all entries enabled. A fixed kernel
    // microbenchmark, not the engine's call pattern: the engine pushes
    // its RMEM-chase queries for filter-passing pivots only, each under
    // the group mask the filter indicates.
    let stride = config.filter.stride;
    let queries: Vec<Vec<CamQuery>> = reads
        .iter()
        .map(|r| {
            (0..=r.len().saturating_sub(stride))
                .step_by(stride / 2)
                .map(|p| CamQuery::padded(r, p, stride, 0))
                .collect()
        })
        .collect();
    let total_queries: usize = queries.iter().map(Vec::len).sum::<usize>() * cams.len();
    let masks: Vec<EntryMask> = cams.iter().map(|c| EntryMask::all(c.entries())).collect();
    let mut hits = Vec::new();
    for _ in 0..PASSES {
        l.t.next_op();
        l.t.span("cam.search", |_| {
            for (cam, mask) in cams.iter_mut().zip(&masks) {
                for q in &queries {
                    cam.search_batch_into(q, mask, &mut hits);
                }
            }
        });
    }
    let v = ns_per(&l.t, "cam.search", total_queries);
    l.put("cam.search_ns_per_query", "ns/query", v);
    drop((cams, filters));

    // casa-core::engine: one partition's backend over tiles of reads,
    // with the per-pivot filter path and each kernel interleaved against
    // the default (batched filter, dispatched kernel).
    let p0 = &partitions[0];
    let mut engine = PartitionEngine::new(&p0.seq, config).map_err(|e| format!("engine: {e}"))?;
    let dispatched = engine.kernel_backend();
    let mut engine_stats = SeedingStats::default();
    let mut reference_out: Vec<Vec<Vec<Smem>>> = Vec::new();
    let variants: [(&'static str, bool, KernelBackend); 4] = [
        ("engine.tiles.default", true, dispatched),
        ("engine.tiles.per_pivot", false, dispatched),
        ("engine.tiles.scalar", true, KernelBackend::Scalar),
        ("engine.tiles.u64x4", true, KernelBackend::U64x4),
    ];
    for pass in 0..PASSES {
        for (vi, (name, batched, kernel)) in variants.iter().enumerate() {
            if !kernel.is_supported() {
                continue;
            }
            engine.set_batched_filter(*batched);
            engine.set_kernel_backend(*kernel);
            l.t.next_op();
            let mut stats = SeedingStats::default();
            let mut tiles_out = Vec::new();
            l.t.span(name, |t| {
                for tile in reads.chunks(TILE) {
                    let mut o = Vec::new();
                    t.span("engine.seed_tile", |_| {
                        engine.seed_tile_into(tile, &mut stats, &mut o)
                    });
                    tiles_out.push(o);
                }
            });
            if pass == 0 && vi == 0 {
                engine_stats = stats;
                reference_out = tiles_out;
            } else {
                l.check(name, tiles_out == reference_out);
            }
        }
    }
    engine.set_batched_filter(true);
    engine.set_kernel_backend(dispatched);
    let v = ns_per(&l.t, "engine.tiles.default", n);
    l.put("engine.ns_per_read", "ns/read", v);
    l.put(
        "engine.rmem_searches_per_read",
        "count",
        div(engine_stats.rmem_searches, engine_stats.read_passes),
    );
    l.put(
        "engine.smems_per_rmem_search",
        "ratio",
        div(engine_stats.smems_reported, engine_stats.rmem_searches),
    );
    let v = ratio(&l.t, "engine.tiles.per_pivot", "engine.tiles.default");
    l.put("engine.batched_filter_ratio", "ratio", v);
    for (metric, span) in [
        ("engine.kernel_ratio.scalar", "engine.tiles.scalar"),
        ("engine.kernel_ratio.u64x4", "engine.tiles.u64x4"),
    ] {
        let v = ratio(&l.t, span, "engine.tiles.default");
        l.put(metric, "ratio", v);
    }

    // casa-core::session at 1 and 2 workers, profiled, and two callers
    // sharing one session.
    let from_image =
        |w: usize| SeedingSession::from_image(&index, w, FaultPlan::default(), BackendKind::Cam);
    let s1 = from_image(1).map_err(|e| format!("session: {e}"))?;
    let s2 = from_image(nproc.max(2)).map_err(|e| format!("session: {e}"))?;
    let mut session_stats = SeedingStats::default();
    let mut recovery = SeedingStats::default();
    for pass in 0..PASSES {
        for (name, session, profiled) in [
            ("session.seed_reads.w1", &s1, false),
            ("session.seed_reads.w2", &s2, false),
            ("session.seed_reads.w1.profiled", &s1, true),
        ] {
            session.set_profiling(profiled);
            l.t.next_op();
            let run = l.t.span(name, |_| session.seed_reads(&reads));
            session.set_profiling(false);
            recovery.merge(&run.stats);
            if pass == 0 && name == "session.seed_reads.w1" {
                session_stats = run.stats;
            }
            l.check(name, run.smems == golden);
        }
        l.t.next_op();
        let both = l.t.span("session.two_callers", |_| {
            std::thread::scope(|s| {
                let a = s.spawn(|| s1.seed_reads(&reads));
                let b = s.spawn(|| s1.seed_reads(&reads));
                [a.join().expect("caller a"), b.join().expect("caller b")]
            })
        });
        for run in &both {
            recovery.merge(&run.stats);
            l.check("two callers", run.smems == golden);
        }
    }
    let w1 = ns_per(&l.t, "session.seed_reads.w1", n);
    let w2 = ns_per(&l.t, "session.seed_reads.w2", n);
    l.put("session.ns_per_read.w1", "ns/read", w1);
    l.put("session.ns_per_read.w2", "ns/read", w2);
    l.put(
        "session.scaling_w2",
        "ratio",
        if w2 > 0.0 { w1 / w2 } else { 0.0 },
    );
    // Aggregate throughput of two callers over one caller's.
    let two = 2.0 / ratio(&l.t, "session.two_callers", "session.seed_reads.w1");
    l.put("session.two_callers_ratio", "ratio", two);
    let v = ratio(
        &l.t,
        "session.seed_reads.w1.profiled",
        "session.seed_reads.w1",
    );
    l.put("session.profile_overhead_ratio", "ratio", v);
    l.put(
        "session.tile_retries",
        "count",
        recovery.tile_retries as f64,
    );
    l.put(
        "session.fallback_reads",
        "count",
        recovery.fallback_reads as f64,
    );

    // Counts the public API returns for one pass (filter, CAM, energy).
    let s = &session_stats;
    l.put(
        "filter.pivots_per_read",
        "count",
        div(s.pivots_total, s.read_passes),
    );
    l.put(
        "filter.pivot_pass_ratio",
        "ratio",
        div(s.rmem_searches, s.pivots_total),
    );
    l.put(
        "cam.searches_per_read",
        "count",
        div(s.cam.searches, n as u64),
    );
    l.put(
        "cam.hits_per_search",
        "ratio",
        div(s.cam.matches, s.cam.searches),
    );
    let pj = energy_model::dynamic_ledger(s).total_dynamic_pj();
    l.put("model.energy_pj_per_read", "pJ/read", pj / n as f64);

    // casa-align and SAM emission over the best-orientation seeds.
    let stranded = s2.seed_reads_both_strands(&reads);
    let best: Vec<(bool, Vec<Smem>)> = stranded
        .best_per_read()
        .into_iter()
        .map(|(r, s)| (r, s.to_vec()))
        .collect();
    l.check("both strands", best == golden_best);
    let mut records = Vec::new();
    for _ in 0..PASSES {
        l.t.next_op();
        records = l.t.span("align.align_read", |_| {
            reads
                .iter()
                .zip(&names)
                .zip(&best)
                .map(|((seq, name), (rev, smems))| {
                    sam_record(&inputs.reference, name, seq, *rev, smems)
                })
                .collect()
        });
    }
    let mapped = records.iter().filter(|r| r.is_mapped()).count();
    let v = ns_per(&l.t, "align.align_read", n);
    l.put("align.ns_per_read", "ns/read", v);
    l.put("align.mapped_ratio", "ratio", div(mapped as u64, n as u64));
    let mut formatter = SamFormatter::new();
    for _ in 0..PASSES * 4 {
        l.t.next_op();
        let r = l.t.span("genome.sam_emit", |_| {
            formatter.write_all(io::sink(), &records)
        });
        l.check("sam emit", r.is_ok());
    }
    let v = ns_per(&l.t, "genome.sam_emit", n);
    l.put("genome.sam_emit_ns_per_read", "ns/read", v);

    serve_layers(&mut l, &index, &reads, &golden)?;

    // Tracing overhead: the request-shaped replay (seed 16 reads, align
    // each, emit) with a span per call, against the same work unspanned.
    let replay = |t: Option<&mut Tracer>| -> Duration {
        let start = Instant::now();
        match t {
            Some(t) => {
                for chunk in reads.chunks(READS_PER_REQUEST) {
                    t.next_op();
                    t.span("replay.op", |t| {
                        let run = t.span("replay.seed", |_| s1.seed_reads(chunk));
                        let recs: Vec<SamRecord> = t.span("replay.align", |_| {
                            chunk
                                .iter()
                                .zip(&run.smems)
                                .map(|(r, s)| sam_record(&inputs.reference, "r", r, false, s))
                                .collect()
                        });
                        t.span("replay.emit", |_| {
                            SamFormatter::new().write_all(io::sink(), &recs)
                        })
                    })
                    .ok();
                }
            }
            None => {
                for chunk in reads.chunks(READS_PER_REQUEST) {
                    let run = s1.seed_reads(chunk);
                    let recs: Vec<SamRecord> = chunk
                        .iter()
                        .zip(&run.smems)
                        .map(|(r, s)| sam_record(&inputs.reference, "r", r, false, s))
                        .collect();
                    SamFormatter::new().write_all(io::sink(), &recs).ok();
                }
            }
        }
        start.elapsed()
    };
    let mut ratios = Vec::new();
    for _ in 0..PASSES {
        let plain = replay(None);
        let traced = replay(Some(&mut l.t));
        ratios.push(traced.as_secs_f64() / plain.as_secs_f64());
    }
    l.put("trace.overhead_ratio", "ratio", median(&ratios));

    let spans = span_dir.join(format!("spans-{}-{}.jsonl", workload.name(), inputs.seed));
    l.t.write(&spans).map_err(|e| format!("write spans: {e}"))?;
    eprintln!("per-layer self time (span name: count, total ms, self ms):");
    for (name, (count, total, self_ns)) in l.t.summary() {
        eprintln!(
            "   {name:<34} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    eprintln!(
        "traced run: {:.1} s; spans in {}",
        started.elapsed().as_secs_f64(),
        spans.display()
    );
    Ok(())
}

/// casa-serve's shell, in-process: `GET /health` (accept loop and
/// connection worker, no seeding), one request's seeding alone, and the
/// same request over HTTP.
fn serve_layers(
    l: &mut Layers<'_>,
    index: &LoadedIndex,
    reads: &[PackedSeq],
    golden: &[Vec<Smem>],
) -> Result<(), String> {
    let pool = Pool::from_requests(
        reads
            .chunks(READS_PER_REQUEST)
            .map(<[PackedSeq]>::to_vec)
            .collect(),
        golden,
    );
    let seeder = Seeder::from_image_with(index, 1, FaultPlan::default(), BackendKind::Cam)
        .map_err(|e| format!("seeder: {e}"))?;
    for (i, req) in pool.requests.iter().enumerate() {
        l.t.next_op();
        let run = l.t.span("serve.seed_request", |_| seeder.seed_reads(req));
        l.check("seed request", render_tsv(&run.smems) == pool.expected[i]);
    }
    let server_seeder = Seeder::from_image_with(index, 1, FaultPlan::default(), BackendKind::Cam)
        .map_err(|e| format!("seeder: {e}"))?;
    let config = ServeConfig {
        seed_workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::start(server_seeder, config).map_err(|e| format!("server: {e}"))?;
    let addr = server.local_addr();
    for _ in 0..200 {
        l.t.next_op();
        let r = l.t.span("serve.health", |_| {
            request(addr, "GET", "/health", "trace", b"")
        });
        l.check("health", r.is_ok_and(|r| r.status == 200));
    }
    for i in 0..pool.requests.len() {
        l.t.next_op();
        let r = l.t.span("serve.http_seed", |_| {
            request(addr, "POST", "/seed", "trace", &pool.bodies[i])
        });
        let ok = pool.check(i, r).is_ok();
        l.check("http seed", ok);
    }
    let report = server.shutdown();
    l.check("server drain", report.clean());
    let p50 = |name: &str| {
        let v: Vec<f64> =
            l.t.each_ns(name)
                .into_iter()
                .map(|ns| ns as f64 / 1e6)
                .collect();
        median(&v)
    };
    let (health, seed, http) = (
        p50("serve.health"),
        p50("serve.seed_request"),
        p50("serve.http_seed"),
    );
    l.put("serve.health_p50_ms", "ms", health);
    l.put("serve.seed_ms_p50", "ms", seed);
    l.put("serve.overhead_ms_p50", "ms", http - seed);
    Ok(())
}
