//! Variant calling on top of CASA seeding: plant SNPs into a donor
//! genome, sequence it, seed + align the reads against the original
//! reference, pile up the mismatches, and call the variants back.
//!
//! This exercises the entire stack — synthetic genomes, read simulation,
//! the CASA accelerator, chaining, banded extension — on the downstream
//! task the paper's intro motivates ("clinical diagnostics and treatment").
//!
//! Run with: `cargo run --release -p casa --example variant_calling`

use casa::Seeder;
use casa_align::aligner::{align_read, AlignConfig};
use casa_core::CasaConfig;
use casa_genome::sam::CigarOp;
use casa_genome::synth::{generate_reference, plant_snps, ReferenceProfile};
use casa_genome::{Base, ReadSimConfig, ReadSimulator};

const COVERAGE: usize = 20;
const READ_LEN: usize = 101;
const MIN_DEPTH: u32 = 8;
const MIN_ALT_FRACTION: f64 = 0.7;

fn main() {
    // 1. Reference and a donor carrying 120 known SNPs.
    let reference = generate_reference(&ReferenceProfile::human_like(), 60_000, 13);
    let (donor, truth) = plant_snps(&reference, 120, 5);
    println!(
        "reference : {} bp, donor with {} SNPs",
        reference.len(),
        truth.len()
    );

    // 2. Sequence the donor at ~20x coverage.
    let n_reads = reference.len() * COVERAGE / READ_LEN;
    let sim = ReadSimulator::new(ReadSimConfig::default(), 77);
    let raw = sim.simulate(&donor, n_reads);
    println!("reads     : {n_reads} ({COVERAGE}x coverage)");

    // 3. Seed against the reference with CASA; align both orientations.
    let config = CasaConfig::builder()
        .partition_len(60_000)
        .read_len(READ_LEN)
        .build()
        .expect("published design point is valid");
    let seeder = Seeder::builder(&reference)
        .config(config)
        .build()
        .expect("valid config");
    let fwd: Vec<_> = raw
        .iter()
        .map(|r| {
            if r.reverse {
                r.seq.reverse_complement()
            } else {
                r.seq.clone()
            }
        })
        .collect();
    let run = seeder.seed_reads(&fwd);
    println!(
        "seeding   : {:.2}% pivots filtered, {} exact-match passes",
        run.stats.pivot_filter_rate() * 100.0,
        run.stats.exact_match_reads
    );

    // 4. Pileup: walk each alignment's CIGAR and vote per reference base.
    let cfg = AlignConfig::default();
    let mut depth = vec![0u32; reference.len()];
    let mut alt_votes: Vec<[u32; 4]> = vec![[0; 4]; reference.len()];
    let mut aligned = 0usize;
    for (read, smems) in fwd.iter().zip(&run.smems) {
        let Some(aln) = align_read(&reference, read, smems, &cfg) else {
            continue;
        };
        aligned += 1;
        let mut ref_pos = aln.ref_start;
        let mut read_pos = 0usize;
        for op in &aln.cigar.0 {
            match *op {
                CigarOp::AlnMatch(n) => {
                    for _ in 0..n {
                        if ref_pos < reference.len() {
                            depth[ref_pos] += 1;
                            alt_votes[ref_pos][read.base(read_pos).code() as usize] += 1;
                        }
                        ref_pos += 1;
                        read_pos += 1;
                    }
                }
                CigarOp::Insertion(n) | CigarOp::SoftClip(n) => read_pos += n as usize,
                CigarOp::Deletion(n) => ref_pos += n as usize,
            }
        }
    }
    println!("aligned   : {aligned}/{n_reads}");

    // 5. Call SNPs where a non-reference allele dominates.
    let mut calls = Vec::new();
    for pos in 0..reference.len() {
        if depth[pos] < MIN_DEPTH {
            continue;
        }
        let ref_code = reference.base(pos).code() as usize;
        let (best_code, &best_votes) = alt_votes[pos]
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .expect("four alleles");
        if best_code != ref_code
            && f64::from(best_votes) / f64::from(depth[pos]) >= MIN_ALT_FRACTION
        {
            calls.push((pos, Base::from_code(best_code as u8)));
        }
    }

    // 6. Score against the truth set.
    let truth_set: std::collections::HashMap<usize, Base> =
        truth.iter().map(|s| (s.pos, s.alt)).collect();
    let tp = calls
        .iter()
        .filter(|(pos, alt)| truth_set.get(pos) == Some(alt))
        .count();
    let fp = calls.len() - tp;
    let fnr = truth.len() - tp;
    println!(
        "\ncalls     : {} ({} TP, {} FP, {} FN)",
        calls.len(),
        tp,
        fp,
        fnr
    );
    println!(
        "precision : {:.1}%   recall: {:.1}%",
        100.0 * tp as f64 / calls.len().max(1) as f64,
        100.0 * tp as f64 / truth.len().max(1) as f64
    );
}
