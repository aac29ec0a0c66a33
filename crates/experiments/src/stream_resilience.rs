//! Kill/resume resilience sweep for the supervised streaming runtime:
//! for every fault plan in the [`crate::fault_sweep`] roster (including
//! the long-stall plan that runs under a watchdog deadline), stream the
//! human-like read batch, cancel mid-run from inside the sink, resume
//! from the checkpoint with a *fresh* session, and verify the merged
//! per-batch SMEM output is bit-identical to an uninterrupted run while
//! read residency stays within the `batch_reads × (ring_capacity + 2)`
//! bound. Swept at 1, 2, and 8 worker threads per plan.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use casa_core::{FaultPlan, SeedingSession, StreamBatch, StreamConfig, StreamingSession};
use casa_genome::PackedSeq;
use casa_index::Smem;

use crate::fault_sweep;
use crate::report::Table;
use crate::scenario::{Genome, Scale, Scenario};

/// Worker-thread counts exercised for every fault plan.
pub const WORKER_SWEEP: [usize; 3] = [1, 2, 8];

/// One kill/resume sample.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceRow {
    /// Fault-plan description (the `--fault-spec` syntax).
    pub spec: String,
    /// Worker threads used by every session in this row.
    pub workers: usize,
    /// Batches in the uninterrupted baseline run.
    pub batches: u64,
    /// Batches durably sunk before the mid-run cancellation.
    pub cancelled_batches: u64,
    /// Batches seeded by the resumed run.
    pub resumed_batches: u64,
    /// Watchdog deadline stalls across the cancelled + resumed runs.
    pub deadline_stalls: u64,
    /// Highest read residency observed across all three runs.
    pub peak_inflight_reads: u64,
    /// The configured residency bound (`batch_reads × (ring + 2)`).
    pub inflight_bound: u64,
    /// Whether cancelled ∪ resumed batches matched the baseline bit for
    /// bit.
    pub output_identical: bool,
}

/// Per-batch SMEM output, keyed by batch index.
type BatchOutputs = BTreeMap<u64, Vec<Vec<Smem>>>;

/// Runs the sweep on the human-like scenario.
///
/// # Panics
///
/// Panics if a built-in spec fails to parse, a session rejects the
/// scenario configuration, or a streaming run fails outright —
/// programming errors, not data-dependent ones.
pub fn run(scale: Scale) -> Vec<ResilienceRow> {
    let scenario = Scenario::build(Genome::HumanLike, scale);
    let batch_reads = (scale.read_count() / 10).max(8);
    let dir = std::env::temp_dir().join(format!(
        "casa_stream_resilience_{}_{:?}",
        std::process::id(),
        scale
    ));
    fs::create_dir_all(&dir).expect("temp checkpoint dir is writable");

    let mut rows = Vec::new();
    for spec in fault_sweep::specs() {
        let plan = FaultPlan::parse(spec).expect("built-in spec parses");
        for &workers in &WORKER_SWEEP {
            let ckpt = dir.join(format!("row{}.ckpt", rows.len()));
            rows.push(run_point(
                &scenario,
                spec,
                &plan,
                fault_sweep::deadline_for(&plan),
                workers,
                batch_reads,
                &ckpt,
            ));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    rows
}

/// One (plan, workers) sample: baseline, cancelled run, resumed run.
fn run_point(
    scenario: &Scenario,
    spec: &str,
    plan: &FaultPlan,
    deadline: Option<Duration>,
    workers: usize,
    batch_reads: usize,
    ckpt: &Path,
) -> ResilienceRow {
    let config = scenario.casa_config();
    let build = |checkpoint: Option<PathBuf>| {
        let session = SeedingSession::with_fault_plan(&scenario.reference, config, workers, *plan)
            .expect("scenario config is valid")
            .with_tile_deadline(deadline);
        StreamingSession::new(
            session,
            StreamConfig {
                batch_reads,
                checkpoint,
                checkpoint_every: 1,
                ..StreamConfig::default()
            },
        )
        .expect("stream config is valid")
    };
    let source = || scenario.reads.iter().cloned().map(Ok::<_, Infallible>);
    let collect = |into: &mut BatchOutputs, batch: &StreamBatch<PackedSeq>| {
        into.insert(batch.index, batch.forward.smems.clone());
        Ok(Vec::new())
    };

    // Uninterrupted baseline (no checkpoint journal).
    let mut baseline = BatchOutputs::new();
    let base_report = build(None)
        .run(source(), |b| collect(&mut baseline, b))
        .expect("baseline streaming run succeeds");

    // Kill: cancel from inside the sink once half the batches are sunk.
    let streaming = build(Some(ckpt.to_path_buf()));
    let token = streaming.cancel_token();
    let stop_after = (base_report.batches / 2).max(1);
    let mut merged = BatchOutputs::new();
    let first = streaming
        .run(source(), |b| {
            collect(&mut merged, b)?;
            if merged.len() as u64 == stop_after {
                token.cancel();
            }
            Ok(Vec::new())
        })
        .expect("cancelled streaming run drains cleanly");
    assert!(first.cancelled, "{spec}: run was not actually interrupted");

    // Resume: a fresh session replays only the unfinished batches.
    let resumed = build(Some(ckpt.to_path_buf()));
    let checkpoint = resumed
        .load_checkpoint(ckpt)
        .expect("checkpoint loads and matches the fingerprint");
    let second = resumed
        .resume(source(), |b| collect(&mut merged, b), &checkpoint)
        .expect("resumed streaming run succeeds");

    let ring = StreamConfig::default().ring_capacity as u64;
    ResilienceRow {
        spec: spec.to_string(),
        workers,
        batches: base_report.batches,
        cancelled_batches: first.batches,
        resumed_batches: second.batches,
        deadline_stalls: first.stats.deadline_stalls + second.stats.deadline_stalls,
        peak_inflight_reads: base_report
            .peak_inflight_reads
            .max(first.peak_inflight_reads)
            .max(second.peak_inflight_reads),
        inflight_bound: batch_reads as u64 * (ring + 2),
        output_identical: merged == baseline,
    }
}

/// Renders the sweep.
pub fn table(rows: &[ResilienceRow]) -> Table {
    let mut t = Table::new(
        "Streaming kill/resume sweep (merged output vs uninterrupted run)",
        &[
            "fault spec",
            "workers",
            "batches",
            "cancel@",
            "resumed",
            "deadline stalls",
            "peak reads",
            "bound",
            "output",
        ],
    );
    for r in rows {
        t.row([
            r.spec.clone(),
            r.workers.to_string(),
            r.batches.to_string(),
            r.cancelled_batches.to_string(),
            r.resumed_batches.to_string(),
            r.deadline_stalls.to_string(),
            r.peak_inflight_reads.to_string(),
            r.inflight_bound.to_string(),
            if r.output_identical {
                "bit-identical"
            } else {
                "DIVERGED"
            }
            .into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_and_resume_merges_bit_identically_at_small_scale() {
        let rows = run(Scale::Small);
        assert_eq!(rows.len(), fault_sweep::specs().len() * WORKER_SWEEP.len());
        for r in &rows {
            assert!(
                r.output_identical,
                "{} at {} workers diverged",
                r.spec, r.workers
            );
            assert!(
                r.peak_inflight_reads <= r.inflight_bound,
                "{} at {} workers: {} resident reads exceeds the bound {}",
                r.spec,
                r.workers,
                r.peak_inflight_reads,
                r.inflight_bound
            );
            assert!(r.cancelled_batches < r.batches, "cancel happened too late");
            assert!(r.resumed_batches > 0, "resume replayed nothing");
            assert_eq!(r.cancelled_batches + r.resumed_batches, r.batches);
        }
        // The long-stall plan must exercise the watchdog path.
        assert!(rows.iter().any(|r| r.deadline_stalls > 0));
    }
}
