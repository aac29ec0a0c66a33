//! Metagenomics read classification with CASA seeding (paper §9: the
//! filter-enabled architecture "broadens its applicability to ...
//! metagenomics classification").
//!
//! Several synthetic "species" genomes are concatenated into one reference;
//! reads drawn from a known mixture are seeded with CASA and classified by
//! where their longest SMEM hits land. Seeding alone (no extension) is
//! enough to classify, exactly the argument tools like Centrifuge make.
//!
//! Run with: `cargo run --release -p casa --example metagenomics_classification`

use casa::Seeder;
use casa_core::CasaConfig;
use casa_genome::synth::{generate_reference, ReferenceProfile};
use casa_genome::{PackedSeq, ReadSimConfig, ReadSimulator};

const SPECIES: [&str; 4] = [
    "synthococcus-A",
    "fabricillus-B",
    "mockeria-C",
    "pseudogen-D",
];

fn main() {
    // 1. Four species genomes with different seeds (and slightly different
    //    GC so they are realistically distinguishable).
    let genomes: Vec<PackedSeq> = (0..SPECIES.len())
        .map(|i| {
            let profile = ReferenceProfile {
                gc_content: 0.35 + 0.06 * i as f64,
                ..ReferenceProfile::human_like()
            };
            generate_reference(&profile, 60_000, 1000 + i as u64)
        })
        .collect();

    // 2. Concatenate into one reference; remember each species' interval.
    let mut reference = PackedSeq::new();
    let mut bounds = Vec::new();
    for g in &genomes {
        let start = reference.len();
        reference.extend(g.iter());
        bounds.push(start..reference.len());
    }

    // 3. A read mixture with known proportions (40/30/20/10 %).
    let mix = [0.4, 0.3, 0.2, 0.1];
    let mut reads = Vec::new();
    let mut truth = Vec::new();
    for (i, (g, frac)) in genomes.iter().zip(mix).enumerate() {
        let n = (400.0 * frac) as usize;
        let sim = ReadSimulator::new(ReadSimConfig::default(), 7_000 + i as u64);
        for r in sim.simulate(g, n) {
            let seq = if r.reverse {
                r.seq.reverse_complement()
            } else {
                r.seq
            };
            reads.push(seq); // classify in forward orientation for brevity
            truth.push(i);
        }
    }

    // 4. Seed against the combined reference.
    let config = CasaConfig::builder()
        .partition_len(60_000)
        .read_len(101)
        .build()
        .expect("published design point is valid");
    let seeder = Seeder::builder(&reference)
        .config(config)
        .build()
        .expect("valid config");
    let run = seeder.seed_reads(&reads);

    // 5. Classify: the species containing the longest SMEM's hits wins.
    let classify = |smems: &[casa_index::Smem]| -> Option<usize> {
        let best = smems.iter().max_by_key(|s| s.len())?;
        let hit = *best.hits.first()? as usize;
        bounds.iter().position(|b| b.contains(&hit))
    };
    let mut confusion = [[0usize; SPECIES.len()]; SPECIES.len()];
    let mut unclassified = 0usize;
    for (smems, &t) in run.smems.iter().zip(&truth) {
        match classify(smems) {
            Some(c) => confusion[t][c] += 1,
            None => unclassified += 1,
        }
    }

    println!(
        "reference      : {} bp across {} species",
        reference.len(),
        SPECIES.len()
    );
    println!("reads          : {} (mixture 40/30/20/10%)", reads.len());
    println!("unclassified   : {unclassified}");
    println!(
        "pivot filtering: {:.2}% (k=19 pre-seeding filter)",
        run.stats.pivot_filter_rate() * 100.0
    );
    println!("\nconfusion matrix (rows = truth, cols = call):");
    print!("{:>16}", "");
    for s in SPECIES {
        print!("{:>16}", &s[..12.min(s.len())]);
    }
    println!();
    let mut correct = 0usize;
    let mut total = 0usize;
    for (t, row) in confusion.iter().enumerate() {
        print!("{:>16}", SPECIES[t]);
        for (c, &n) in row.iter().enumerate() {
            print!("{n:>16}");
            total += n;
            if t == c {
                correct += n;
            }
        }
        println!();
    }
    println!(
        "\naccuracy       : {:.1}% of classified reads",
        100.0 * correct as f64 / total.max(1) as f64
    );
}
