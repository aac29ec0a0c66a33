//! CAM kernel harness: the scalar reference match-line model versus the
//! word-kernel backends (scalar-`u64`, unrolled `u64x4`, AVX2) on three
//! workloads — a per-query search microbenchmark, the same queries through
//! the shared-mask batch entry point, and the end-to-end Fig. 12 session
//! workload — with output equality asserted on every run. Every word
//! backend search, per query or batched, is one fused column walk
//! ([`casa_cam::kernel::KernelOps::match_cols`]); the batch entry point
//! only hoists the mask work out of the query loop. Written to
//! `results/cam_kernel.{csv,json}` and the repo-root `BENCH_kernels.json`
//! by the `cam_kernel` binary.

use std::time::Instant;

use casa_cam::{Bcam, CamQuery, EntryMask, KernelBackend};
use casa_core::{BackendKind, FaultPlan, SeedingSession, SeedingStats};

use crate::report::{ratio, Table};
use crate::scenario::{Genome, Scale, Scenario};

/// Entry width (bases per CAM row) used by the microbenchmark, matching
/// the `kernels` bench partition geometry.
const ENTRY_BASES: usize = 40;
/// Query length in bases (the seed k-mer length of the evaluation).
const QUERY_LEN: usize = 19;
/// Wildcard padding appended to each query.
const QUERY_PAD: usize = 3;
/// Timed samples per measurement (median reported).
const SAMPLES: usize = 15;

/// The search microbenchmark, one fused [`Bcam::search_into`] per query.
pub const WORKLOAD_MICRO: &str = "micro";
/// The search microbenchmark through [`Bcam::search_batch_into`] (fused
/// per query, mask work hoisted once per batch).
pub const WORKLOAD_BATCHED: &str = "micro-batched";
/// The end-to-end single-worker seeding session.
pub const WORKLOAD_SESSION: &str = "session";
/// Kernel label of the scalar entry-walk reference model.
pub const ORACLE: &str = "oracle";
/// Kernel label of the single-`u64` word kernel — the speedup baseline
/// ([`KernelBackend::Scalar`]).
pub const BASELINE: &str = "scalar";

/// One timed configuration (workload x kernel).
#[derive(Clone, Debug)]
pub struct KernelTiming {
    /// Workload label ([`WORKLOAD_MICRO`] etc.).
    pub workload: &'static str,
    /// Kernel label ([`ORACLE`] or a [`KernelBackend`] name).
    pub kernel: &'static str,
    /// Median wall time of one batch, nanoseconds.
    pub median_ns: u128,
    /// Work items per batch (queries or reads).
    pub items: usize,
}

impl KernelTiming {
    /// Median nanoseconds per work item.
    pub fn ns_per_item(&self) -> f64 {
        self.median_ns as f64 / self.items as f64
    }
}

/// The harness output: every supported backend on every workload.
#[derive(Clone, Debug)]
pub struct CamKernelReport {
    /// All timings, grouped by workload in table order.
    pub timings: Vec<KernelTiming>,
    /// CAM entries in the microbenchmark partition.
    pub entries: usize,
}

impl CamKernelReport {
    /// The timing of one (workload, kernel) cell, if measured.
    pub fn timing(&self, workload: &str, kernel: &str) -> Option<&KernelTiming> {
        self.timings
            .iter()
            .find(|t| t.workload == workload && t.kernel == kernel)
    }

    /// Speedup of a cell over the same workload-family `scalar` baseline
    /// (`micro-batched` compares against per-query `micro/scalar`).
    pub fn speedup(&self, workload: &str, kernel: &str) -> f64 {
        let base_workload = if workload == WORKLOAD_SESSION {
            WORKLOAD_SESSION
        } else {
            WORKLOAD_MICRO
        };
        let base = self
            .timing(base_workload, BASELINE)
            .expect("baseline cell always measured");
        let cell = self.timing(workload, kernel).expect("cell measured");
        base.median_ns as f64 / cell.median_ns as f64
    }

    /// The fastest batched backend.
    pub fn best_batched(&self) -> &KernelTiming {
        self.timings
            .iter()
            .filter(|t| t.workload == WORKLOAD_BATCHED)
            .min_by_key(|t| t.median_ns)
            .expect("at least one batched backend is always measured")
    }

    /// Headline speedup: fastest batched backend over the per-query
    /// `u64` kernel.
    pub fn headline_speedup(&self) -> f64 {
        let best = self.best_batched();
        self.speedup(best.workload, best.kernel)
    }

    /// Oracle-vs-`u64` speedup on the microbenchmark (the PR 3 claim,
    /// kept monitored).
    pub fn micro_speedup(&self) -> f64 {
        1.0 / self.speedup(WORKLOAD_MICRO, ORACLE)
    }

    /// End-to-end session gain of the fastest word backend over the
    /// per-query `u64` kernel session.
    pub fn session_speedup(&self) -> f64 {
        self.timings
            .iter()
            .filter(|t| t.workload == WORKLOAD_SESSION)
            .map(|t| self.speedup(t.workload, t.kernel))
            .fold(0.0, f64::max)
    }
}

/// Warms up once, then returns the median wall time of `samples` calls.
fn median_ns<R: FnMut()>(samples: usize, mut f: R) -> u128 {
    f();
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos().max(1)
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Runs every workload at `scale` across all supported backends,
/// asserting backend/oracle equality before each measurement.
///
/// # Panics
///
/// Panics if any word backend — per-query or batched — disagrees with
/// the scalar reference on any hit list or CAM statistic, if a session
/// disagrees with the FM-index golden on any SMEM, or if two kernels book
/// different seeding statistics: the equality the kernel layer must
/// preserve.
pub fn run(scale: Scale) -> CamKernelReport {
    let scenario = Scenario::build(Genome::HumanLike, scale);
    let mut timings = Vec::new();

    // Microbenchmark: one partition-sized CAM, a batch of read prefixes.
    let part_len = scale.partition_len().min(scenario.reference.len());
    let part = scenario.reference.subseq(0, part_len);
    let entries = Bcam::new(&part, ENTRY_BASES).entries();
    let full = EntryMask::all(entries);
    let queries: Vec<CamQuery> = scenario
        .reads
        .iter()
        .take(50)
        .map(|r| CamQuery::padded(r, 0, QUERY_LEN, QUERY_PAD))
        .collect();

    // Oracle reference: hits and CamStats every backend must reproduce.
    let mut oracle = Bcam::new(&part, ENTRY_BASES);
    let oracle_hits: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| oracle.search_scalar(q, &full))
        .collect();
    let oracle_stats = oracle.stats();

    let mut hits = Vec::new();
    let mut batched_hits: Vec<Vec<u32>> = Vec::new();
    for backend in KernelBackend::supported() {
        let mut cam = Bcam::new(&part, ENTRY_BASES);
        cam.set_kernel_backend(backend);
        // Per-query equality gate, then timing.
        for (q, expect) in queries.iter().zip(&oracle_hits) {
            assert_eq!(
                &cam.search(q, &full),
                expect,
                "{backend} per-query hits diverged from the scalar reference"
            );
        }
        assert_eq!(
            cam.stats(),
            oracle_stats,
            "{backend} CamStats diverged from the scalar reference"
        );
        timings.push(KernelTiming {
            workload: WORKLOAD_MICRO,
            kernel: backend.as_str(),
            median_ns: median_ns(SAMPLES, || {
                for q in &queries {
                    cam.search_into(q, &full, &mut hits);
                }
            }),
            items: queries.len(),
        });

        // Batched equality gate (fresh CAM so stats line up), then timing.
        let mut cam = Bcam::new(&part, ENTRY_BASES);
        cam.set_kernel_backend(backend);
        cam.search_batch_into(&queries, &full, &mut batched_hits);
        assert_eq!(
            batched_hits, oracle_hits,
            "{backend} batched hits diverged from the scalar reference"
        );
        assert_eq!(
            cam.stats(),
            oracle_stats,
            "{backend} batched CamStats diverged from the scalar reference"
        );
        timings.push(KernelTiming {
            workload: WORKLOAD_BATCHED,
            kernel: backend.as_str(),
            median_ns: median_ns(SAMPLES, || {
                cam.search_batch_into(&queries, &full, &mut batched_hits);
            }),
            items: queries.len(),
        });
    }

    // Oracle timing last so its CAM keeps the reference stats above.
    timings.push(KernelTiming {
        workload: WORKLOAD_MICRO,
        kernel: ORACLE,
        median_ns: median_ns(SAMPLES, || {
            for q in &queries {
                oracle.search_scalar(q, &full);
            }
        }),
        items: queries.len(),
    });

    // End-to-end: the Fig. 12 session workload, one worker so the kernel
    // delta isn't hidden behind scheduling noise. The FM-index backend is
    // the independent SMEM golden; every kernel must also book identical
    // seeding stats.
    let reads = &scenario.reads[..scenario.reads.len().min(50)];
    let golden = SeedingSession::with_backend(
        &scenario.reference,
        scenario.casa_config(),
        1,
        FaultPlan::default(),
        BackendKind::Fm,
    )
    .expect("scenario config is valid")
    .seed_reads(reads);
    let session = SeedingSession::new(&scenario.reference, scenario.casa_config(), 1)
        .expect("scenario config is valid");
    let mut first_stats: Option<SeedingStats> = None;
    for backend in KernelBackend::supported() {
        session.set_kernel_backend(backend);
        let run = session.seed_reads(reads);
        assert_eq!(
            run.smems, golden.smems,
            "{backend} session SMEMs diverged from the FM-index golden"
        );
        let stats = first_stats.get_or_insert(run.stats);
        assert_eq!(
            &run.stats, stats,
            "{backend} session SeedingStats diverged across kernels"
        );
        timings.push(KernelTiming {
            workload: WORKLOAD_SESSION,
            kernel: backend.as_str(),
            median_ns: median_ns(SAMPLES, || {
                session.seed_reads(reads);
            }),
            items: reads.len(),
        });
    }

    CamKernelReport { timings, entries }
}

/// Renders the report (saved as `results/cam_kernel.{csv,json}`).
pub fn table(report: &CamKernelReport) -> Table {
    let mut t = Table::new(
        "CAM kernel: scalar reference vs fused word-kernel backends",
        &["workload", "kernel", "median_ns", "ns_per_item", "speedup"],
    );
    for timing in &report.timings {
        let speedup = if timing.kernel == BASELINE && timing.workload != WORKLOAD_BATCHED {
            String::new()
        } else {
            ratio(report.speedup(timing.workload, timing.kernel))
        };
        t.row([
            timing.workload.to_string(),
            timing.kernel.to_string(),
            timing.median_ns.to_string(),
            format!("{:.1}", timing.ns_per_item()),
            speedup,
        ]);
    }
    t
}

/// Renders the machine-readable cross-PR perf record written to the
/// repo-root `BENCH_kernels.json`.
pub fn bench_json(report: &CamKernelReport, scale: Scale) -> String {
    let best = report.best_batched();
    let rows: Vec<serde_json::Value> = report
        .timings
        .iter()
        .map(|t| {
            serde_json::json!({
                "workload": t.workload,
                "kernel": t.kernel,
                "median_ns": t.median_ns as u64,
                "ns_per_item": t.ns_per_item(),
                "items": t.items,
                "speedup_vs_scalar": report.speedup(t.workload, t.kernel),
            })
        })
        .collect();
    let value = serde_json::json!({
        "experiment": "cam_kernel",
        "scale": format!("{scale:?}").to_lowercase(),
        "entries": report.entries,
        "baseline": { "workload": WORKLOAD_MICRO, "kernel": BASELINE },
        "headline": {
            "workload": best.workload,
            "kernel": best.kernel,
            "speedup": report.headline_speedup(),
        },
        "session_speedup": report.session_speedup(),
        "rows": rows,
    });
    value.to_string() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_kernels_are_not_slower() {
        let report = run(Scale::Small);
        assert!(report.entries > 0);
        // The equality asserts inside run() are the real payload; timing
        // only needs to be sane and the word kernels clearly ahead of the
        // entry-walk oracle even at small scale.
        assert!(report.micro_speedup() > 2.0);
        // Every supported backend is measured on all three workloads,
        // plus the oracle on micro.
        let backends = KernelBackend::supported().count();
        assert_eq!(report.timings.len(), 3 * backends + 1);
        let t = table(&report);
        assert_eq!(t.rows.len(), report.timings.len());
        let json: serde_json::Value =
            serde_json::from_str(&bench_json(&report, Scale::Small)).expect("bench json parses");
        assert_eq!(json["rows"].as_array().unwrap().len(), report.timings.len());
        assert!(json["headline"]["speedup"].as_f64().unwrap() > 0.0);
    }
}
