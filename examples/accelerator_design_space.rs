//! Design-space exploration: sweep CASA's k-mer size, CAM grouping and
//! lane count, reporting throughput, filter rate and modelled power —
//! the kind of ablation the paper's §3 design discussion motivates.
//!
//! Run with: `cargo run --release -p casa --example accelerator_design_space`

use casa::Seeder;
use casa_core::energy_model::{power_report, CasaHardwareModel};
use casa_core::CasaConfig;
use casa_energy::DramSystem;
use casa_genome::synth::{generate_reference, ReferenceProfile};
use casa_genome::{ReadSimConfig, ReadSimulator};

fn main() {
    let reference = generate_reference(&ReferenceProfile::human_like(), 240_000, 21);
    let reads: Vec<_> = ReadSimulator::new(ReadSimConfig::default(), 5)
        .simulate(&reference, 150)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    let dram = DramSystem::casa();
    let hw = CasaHardwareModel::default();

    println!(
        "{:>4} {:>7} {:>6} {:>12} {:>10} {:>10}",
        "k", "groups", "lanes", "Mreads/s", "filtered", "reads/mJ"
    );
    for k in [13usize, 16, 19, 22] {
        for groups in [10usize, 20] {
            for lanes in [5usize, 10] {
                let config = CasaConfig::builder()
                    .partition_len(60_000)
                    .read_len(101)
                    .filter_geometry(k, 10, 40, groups)
                    .min_smem_len(k.max(19))
                    .lanes(lanes)
                    .build()
                    .expect("swept design point is valid");
                let seeder = Seeder::builder(&reference)
                    .config(config)
                    .build()
                    .expect("valid config");
                let run = seeder.seed_reads(&reads);
                let report = power_report(&run, &hw, &dram, seeder.partition_count());
                println!(
                    "{:>4} {:>7} {:>6} {:>12.3} {:>9.2}% {:>10.0}",
                    k,
                    groups,
                    lanes,
                    run.throughput_reads_per_s(seeder.partition_count(), &dram) / 1e6,
                    run.stats.pivot_filter_rate() * 100.0,
                    report.reads_per_mj()
                );
            }
        }
    }
    println!("\nNote: larger k filters more pivots (higher rate) until the");
    println!("minimum-SMEM-length constraint bites; grouping trades energy");
    println!("against search parallelism exactly as §3 describes.");
}
