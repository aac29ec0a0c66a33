//! Concurrency hardening for the embeddable API: multiple [`Seeder`] /
//! [`SeedingSession`](casa::core::SeedingSession) instances over one
//! shared reference, hammered from many threads at once, must produce
//! SMEMs bit-identical to a serial single-threaded run and book each
//! batch's stats exactly as that batch alone would — and an internal
//! panic caught on one clone must never change what the others compute.

use std::time::Duration;

use casa::core::{FaultPlan, SeedingStats};
use casa::genome::synth::{generate_reference, ReferenceProfile};
use casa::genome::{PackedSeq, ReadSimConfig, ReadSimulator};
use casa::Seeder;
use casa_index::Smem;

fn workload() -> (PackedSeq, Vec<PackedSeq>) {
    let reference = generate_reference(&ReferenceProfile::human_like(), 24_000, 31);
    let reads = ReadSimulator::new(ReadSimConfig::default(), 7)
        .simulate(&reference, 40)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    (reference, reads)
}

fn build(reference: &PackedSeq, workers: usize) -> Seeder {
    Seeder::builder(reference)
        .partition_len(6_000)
        .read_len(101)
        .workers(workers)
        .build()
        .expect("valid seeder")
}

#[test]
fn two_seeders_many_threads_stay_bit_identical_to_serial() {
    let (reference, reads) = workload();
    let serial: Vec<Vec<Smem>> = build(&reference, 1).seed_reads(&reads).smems;

    // Two independent warm instances over the same reference (as two
    // server tenancies would hold), each hit by several threads seeding
    // overlapping chunks concurrently, with sessions cloned per thread.
    // The chunking rotates per thread so batch boundaries differ across
    // concurrent callers.
    let seeder_a = build(&reference, 2);
    let seeder_b = build(&reference, 3);
    let seeder_for = |t: usize| {
        if t.is_multiple_of(2) {
            &seeder_a
        } else {
            &seeder_b
        }
    };
    let chunk_for = |t: usize| 7 + t % 5;
    // Every batch's stats as the same seeder books them with no other
    // caller running: concurrent callers share the read-only index, so
    // each must still book exactly its own activity.
    let alone: Vec<Vec<SeedingStats>> = (0..8)
        .map(|t| {
            reads
                .chunks(chunk_for(t))
                .map(|batch| seeder_for(t).seed_reads(batch).stats)
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let session = seeder_for(t).session().clone();
                let reads = &reads;
                let serial = &serial;
                let alone = &alone[t];
                scope.spawn(move || {
                    let mut smems = Vec::with_capacity(reads.len());
                    for (b, batch) in reads.chunks(chunk_for(t)).enumerate() {
                        let run = session.seed_reads(batch);
                        assert_eq!(run.stats, alone[b], "thread {t} batch {b} stats");
                        smems.extend(run.smems);
                    }
                    assert_eq!(&smems, serial, "thread {t} diverged from serial");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("seeding thread panicked");
        }
    });
}

#[test]
fn caught_panics_do_not_poison_other_sessions() {
    let (reference, reads) = workload();
    let serial: Vec<Vec<Smem>> = build(&reference, 1).seed_reads(&reads).smems;

    // Every tile of every partition panics on every attempt (`partition=0`
    // confines only hardware faults, which this plan has none of): the
    // runtime catches the unwinds, quarantines the partitions, and
    // recovers via the golden model. Clones of this session share
    // backends and quarantine state — none of them may observe a changed
    // result afterwards.
    let plan = FaultPlan::parse("seed=13,panic=1.0,retries=1,partition=0").unwrap();
    let faulty = Seeder::builder(&reference)
        .partition_len(6_000)
        .read_len(101)
        .workers(2)
        .fault_plan(plan)
        .build()
        .expect("valid seeder");
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let faulty = &faulty;
                let reads = &reads;
                let serial = &serial;
                scope.spawn(move || {
                    let session = faulty.session().clone();
                    for _ in 0..3 {
                        let run = session.seed_reads(reads);
                        assert_eq!(&run.smems, serial, "thread {t} diverged after panics");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("panic recovery thread panicked");
        }
    });
    assert!(
        faulty.session().quarantined_count() >= 1,
        "the panicking partition must end up quarantined"
    );
    // The instance keeps serving after the storm.
    assert_eq!(faulty.seed_reads(&reads).smems, serial);

    // Guard threads from any watchdogged attempts drain promptly.
    assert!(casa_core::wait_for_guard_threads(Duration::from_secs(10)));
}
