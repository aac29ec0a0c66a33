//! Integration tests for the supervised streaming runtime:
//!
//! * the acceptance scenario from the streaming issue: a run cancelled
//!   mid-stream and resumed from its checkpoint merges to output
//!   bit-identical to an uninterrupted run, at 1, 2, and 8 workers,
//!   under every injected-fault plan (including long stalls supervised
//!   by a watchdog deadline);
//! * resume accounting: the watermark batches are consumed but not
//!   re-seeded, and read residency stays within the configured bound;
//! * checkpoint-journal integrity as properties: every strict prefix of
//!   a checkpoint file fails with a typed error, and no byte flip is
//!   ever accepted as a *different* checkpoint.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::time::Duration;

use casa::core::{
    CasaConfig, FaultPlan, RecoveryCounters, SeedingSession, StreamCheckpoint, StreamConfig,
    StreamingSession,
};
use casa::genome::synth::{generate_reference, ReferenceProfile};
use casa::genome::{PackedSeq, ReadSimConfig, ReadSimulator};
use casa::index::Smem;
use proptest::prelude::*;

fn workload() -> (PackedSeq, Vec<PackedSeq>, CasaConfig) {
    let reference = generate_reference(&ReferenceProfile::human_like(), 24_000, 99);
    let reads = ReadSimulator::new(
        ReadSimConfig {
            read_len: 64,
            ..ReadSimConfig::default()
        },
        31,
    )
    .simulate(&reference, 52)
    .into_iter()
    .map(|r| r.seq)
    .collect();
    (reference, reads, CasaConfig::paper(6_000, 64))
}

/// The fault plans the acceptance scenario sweeps: fault-free, crash
/// faults, silent CAM faults under the full cross-check, and long stalls
/// that only a watchdog deadline can recover quickly.
fn plans() -> Vec<(FaultPlan, Option<Duration>)> {
    vec![
        (FaultPlan::default(), None),
        (
            FaultPlan::parse("seed=9,panic=0.2,retries=4").expect("spec parses"),
            None,
        ),
        (
            FaultPlan::parse("seed=9,cam-flip=5e-4,check=1.0,retries=2").expect("spec parses"),
            None,
        ),
        (
            FaultPlan::parse("seed=9,stall=0.35,stall-ms=30,retries=6").expect("spec parses"),
            Some(Duration::from_millis(4)),
        ),
    ]
}

fn streaming_session(
    reference: &PackedSeq,
    config: CasaConfig,
    workers: usize,
    plan: &FaultPlan,
    deadline: Option<Duration>,
    stream: StreamConfig,
) -> StreamingSession {
    let session = SeedingSession::with_fault_plan(reference, config, workers, *plan)
        .expect("valid config")
        .with_tile_deadline(deadline);
    StreamingSession::new(session, stream).expect("valid stream config")
}

type Outputs = BTreeMap<u64, Vec<Vec<Smem>>>;

#[test]
fn cancelled_plus_resumed_equals_uninterrupted_across_workers_and_plans() {
    let (reference, reads, config) = workload();
    let dir = std::env::temp_dir().join(format!("casa_stream_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let source = || reads.iter().cloned().map(Ok::<_, Infallible>);

    for (pi, (plan, deadline)) in plans().into_iter().enumerate() {
        for workers in [1usize, 2, 8] {
            let ckpt = dir.join(format!("p{pi}_w{workers}.ckpt"));
            let stream = StreamConfig {
                batch_reads: 8,
                checkpoint: Some(ckpt.clone()),
                checkpoint_every: 1,
                ..StreamConfig::default()
            };

            let mut baseline = Outputs::new();
            let whole = streaming_session(
                &reference,
                config,
                workers,
                &plan,
                deadline,
                StreamConfig {
                    checkpoint: None,
                    ..stream.clone()
                },
            )
            .run(source(), |b| {
                baseline.insert(b.index, b.forward.smems.clone());
                Ok(Vec::new())
            })
            .expect("uninterrupted run succeeds");

            let session =
                streaming_session(&reference, config, workers, &plan, deadline, stream.clone());
            let token = session.cancel_token();
            let mut merged = Outputs::new();
            let interrupted = session
                .run(source(), |b| {
                    merged.insert(b.index, b.forward.smems.clone());
                    if b.index == 2 {
                        token.cancel();
                    }
                    Ok(Vec::new())
                })
                .expect("interrupted run drains cleanly");
            assert!(interrupted.cancelled);
            assert!(interrupted.batches < whole.batches);

            let resumer =
                streaming_session(&reference, config, workers, &plan, deadline, stream.clone());
            let checkpoint = resumer.load_checkpoint(&ckpt).expect("checkpoint loads");
            let resumed = resumer
                .resume(
                    source(),
                    |b| {
                        merged.insert(b.index, b.forward.smems.clone());
                        Ok(Vec::new())
                    },
                    &checkpoint,
                )
                .expect("resumed run succeeds");

            assert_eq!(
                merged, baseline,
                "plan {pi} at {workers} workers: merged output diverged"
            );
            assert_eq!(resumed.skipped_batches, checkpoint.completed_batches);
            assert_eq!(interrupted.batches + resumed.batches, whole.batches);
            let bound = 8 * (stream.ring_capacity as u64 + 2);
            for report in [&whole, &interrupted, &resumed] {
                assert!(
                    report.peak_inflight_reads <= bound,
                    "plan {pi} at {workers} workers: {} resident reads exceeds {bound}",
                    report.peak_inflight_reads
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_consumes_but_does_not_reseed_the_watermark() {
    let (reference, reads, config) = workload();
    let plan = FaultPlan::default();
    let stream = StreamConfig {
        batch_reads: 10,
        ..StreamConfig::default()
    };
    let session = streaming_session(&reference, config, 2, &plan, None, stream);
    let checkpoint = StreamCheckpoint {
        fingerprint: session.fingerprint(),
        batch_reads: 10,
        completed_batches: 3,
        completed_reads: 30,
        sink_offsets: Vec::new(),
        recovery: RecoveryCounters::default(),
    };
    let mut seen = Vec::new();
    let report = session
        .resume(
            reads.iter().cloned().map(Ok::<_, Infallible>),
            |b| {
                seen.push((b.index, b.first_read, b.items.len()));
                Ok(Vec::new())
            },
            &checkpoint,
        )
        .expect("resume succeeds");
    assert_eq!(report.skipped_batches, 3);
    assert_eq!(report.skipped_reads, 30);
    assert_eq!(report.reads as usize, reads.len() - 30);
    assert_eq!(seen.first(), Some(&(3, 30, 10)));
    let total = checkpoint.completed_reads + seen.iter().map(|(_, _, n)| *n as u64).sum::<u64>();
    assert_eq!(total as usize, reads.len());
}

fn sample_checkpoint() -> StreamCheckpoint {
    StreamCheckpoint {
        fingerprint: 0xFEED_F00D_DEAD_BEEF,
        batch_reads: 64,
        completed_batches: 9,
        completed_reads: 576,
        sink_offsets: vec![12_345, 999],
        recovery: RecoveryCounters {
            tile_retries: 4,
            deadline_stalls: 2,
            partitions_quarantined: 1,
            fallback_reads: 7,
            crosscheck_reads: 11,
            crosscheck_mismatches: 1,
        },
    }
}

proptest! {
    /// Every strict prefix of a checkpoint file fails to load with a
    /// typed error — a torn write can never be mistaken for a valid
    /// journal, and never panics the loader.
    #[test]
    fn truncated_checkpoint_files_always_fail_typed(cut in 0usize..4096) {
        let text = sample_checkpoint().to_json();
        let cut = cut % text.len();
        let err = StreamCheckpoint::from_json(&text[..cut])
            .expect_err("a strict prefix must never parse");
        // Rendering exercises the typed Display path without panicking.
        prop_assert!(!err.to_string().is_empty());
    }

    /// Flipping any single byte of a checkpoint file is either rejected
    /// outright or — never — accepted as a *different* checkpoint.
    #[test]
    fn flipped_checkpoint_bytes_never_smuggle_in_new_state(
        pos in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let original = sample_checkpoint();
        let text = original.to_json();
        let pos = pos % text.len();
        let mut bytes = text.clone().into_bytes();
        bytes[pos] ^= flip;
        match String::from_utf8(bytes) {
            Err(_) => {} // not UTF-8 any more; the loader rejects it as I/O-level garbage
            Ok(mutated) => match StreamCheckpoint::from_json(&mutated) {
                Err(_) => {}
                Ok(reloaded) => prop_assert_eq!(reloaded, original),
            },
        }
    }
}
