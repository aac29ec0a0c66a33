//! A miniature resequencing pipeline, end to end: simulate reads, seed
//! them with CASA, chain + extend the seeds (SeedEx-style kernels), emit
//! SAM, and check the calls against the simulator's ground truth.
//!
//! Run with: `cargo run --release -p casa --example resequencing_pipeline`

use casa::Seeder;
use casa_align::aligner::{align_read, AlignConfig};
use casa_core::CasaConfig;
use casa_genome::sam::{write_sam, SamRecord, FLAG_REVERSE};
use casa_genome::synth::{generate_reference, ReferenceProfile};
use casa_genome::{ReadSimConfig, ReadSimulator};

fn main() {
    let reference = generate_reference(&ReferenceProfile::human_like(), 300_000, 11);
    let sim = ReadSimulator::new(ReadSimConfig::default(), 99);
    let truth = sim.simulate(&reference, 300);

    // Seed both strands: the sequencer emits reverse-strand reads as
    // reverse complements, so we also seed each read's RC and keep the
    // better-scoring orientation, as a real aligner does.
    let config = CasaConfig::builder()
        .partition_len(75_000)
        .read_len(101)
        .build()
        .expect("published design point is valid");
    let seeder = Seeder::builder(&reference)
        .config(config)
        .build()
        .expect("valid config");
    let fwd: Vec<_> = truth.iter().map(|r| r.seq.clone()).collect();
    let rc: Vec<_> = truth.iter().map(|r| r.seq.reverse_complement()).collect();
    let run_f = seeder.seed_reads(&fwd);
    let run_r = seeder.seed_reads(&rc);

    let cfg = AlignConfig::default();
    let mut records = Vec::new();
    let mut correct = 0usize;
    let mut aligned = 0usize;
    for (i, read) in truth.iter().enumerate() {
        let aln_f = align_read(&reference, &fwd[i], &run_f.smems[i], &cfg);
        let aln_r = align_read(&reference, &rc[i], &run_r.smems[i], &cfg);
        let (aln, reverse) = match (aln_f, aln_r) {
            (Some(f), Some(r)) => {
                if f.score >= r.score {
                    (Some(f), false)
                } else {
                    (Some(r), true)
                }
            }
            (Some(f), None) => (Some(f), false),
            (None, Some(r)) => (Some(r), true),
            (None, None) => (None, false),
        };
        match aln {
            Some(aln) => {
                aligned += 1;
                if reverse == read.reverse && aln.ref_start.abs_diff(read.origin) <= 8 {
                    correct += 1;
                }
                records.push(SamRecord {
                    qname: read.name.clone(),
                    flag: if reverse { FLAG_REVERSE } else { 0 },
                    rname: "chrS".into(),
                    pos: aln.ref_start as u64 + 1,
                    mapq: aln.mapq,
                    cigar: aln.cigar,
                    seq: if reverse {
                        rc[i].clone()
                    } else {
                        fwd[i].clone()
                    },
                });
            }
            None => records.push(SamRecord::unmapped(&read.name, read.seq.clone())),
        }
    }

    let mut sam = Vec::new();
    write_sam(&mut sam, ("chrS", reference.len()), &records).expect("in-memory SAM");
    let sam_text = String::from_utf8(sam).expect("ascii");

    println!("reads          : {}", truth.len());
    println!("aligned        : {aligned}");
    println!(
        "correct locus  : {correct} ({:.1}% of aligned)",
        100.0 * correct as f64 / aligned.max(1) as f64
    );
    println!(
        "seeding stats  : {:.2}% pivots filtered, {} exact-match fast-path passes",
        run_f.stats.pivot_filter_rate() * 100.0,
        run_f.stats.exact_match_reads + run_r.stats.exact_match_reads
    );
    println!("\nfirst SAM lines:");
    for line in sam_text.lines().take(8) {
        println!("  {line}");
    }
}
