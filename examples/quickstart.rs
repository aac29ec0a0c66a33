//! Quickstart: seed a handful of reads with CASA and print the SMEMs.
//!
//! Run with: `cargo run --release -p casa --example quickstart`

use casa::Seeder;
use casa_core::CasaConfig;
use casa_energy::DramSystem;
use casa_genome::synth::{generate_reference, ReferenceProfile};
use casa_genome::{ReadSimConfig, ReadSimulator};

fn main() {
    // 1. A synthetic human-like reference (stand-in for GRCh38).
    let reference = generate_reference(&ReferenceProfile::human_like(), 400_000, 7);
    println!(
        "reference: {} bp, GC {:.1}%",
        reference.len(),
        reference.gc_content() * 100.0
    );

    // 2. Simulate Illumina-like 101 bp reads (~80% error-free).
    let sim = ReadSimulator::new(ReadSimConfig::default(), 42);
    let reads: Vec<_> = sim
        .simulate(&reference, 200)
        .into_iter()
        .map(|r| r.seq)
        .collect();

    // 3. Build the accelerator at the published design point and seed.
    let config = CasaConfig::builder()
        .partition_len(100_000)
        .read_len(101)
        .build()
        .expect("published design point is valid");
    let seeder = Seeder::builder(&reference)
        .config(config)
        .build()
        .expect("valid config");
    let run = seeder.seed_reads(&reads);

    // 4. Inspect the seeds of the first few reads.
    for (i, smems) in run.smems.iter().take(5).enumerate() {
        println!("read {i}: {} SMEM(s)", smems.len());
        for s in smems {
            println!(
                "  read[{}..{}) ({} bp), {} hit(s), first at ref:{}",
                s.read_start,
                s.read_end,
                s.len(),
                s.hits.len(),
                s.hits.first().copied().unwrap_or_default()
            );
        }
    }

    // 5. Performance model summary.
    let dram = DramSystem::casa();
    println!(
        "\n{} reads x {} partitions; {:.3} Mreads/s modelled seeding throughput",
        reads.len(),
        seeder.partition_count(),
        run.throughput_reads_per_s(seeder.partition_count(), &dram) / 1e6
    );
    println!(
        "pivots: {} total, {:.2}% filtered before SMEM computation",
        run.stats.pivots_total,
        run.stats.pivot_filter_rate() * 100.0
    );
    println!(
        "exact-match fast path settled {} of {} read passes",
        run.stats.exact_match_reads, run.stats.read_passes
    );
}
