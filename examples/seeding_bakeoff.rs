//! Bake-off: run the same read batch through CASA, ASIC-ERT, GenAx and
//! BWA-MEM2 and verify all produce identical SMEMs while differing in
//! modelled cost — the paper's central comparison in miniature.
//!
//! Run with: `cargo run --release -p casa --example seeding_bakeoff`

use casa::Seeder;
use casa_baselines::{
    BwaMem2Model, ErtAccelerator, ErtConfig, GenaxAccelerator, GenaxConfig, GencacheAccelerator,
    GencacheConfig, I7_6800K,
};
use casa_core::CasaConfig;
use casa_energy::DramSystem;
use casa_genome::synth::{generate_reference, ReferenceProfile};
use casa_genome::{ReadSimConfig, ReadSimulator};

fn main() {
    let reference = generate_reference(&ReferenceProfile::human_like(), 200_000, 3);
    let reads: Vec<_> = ReadSimulator::new(ReadSimConfig::default(), 17)
        .simulate(&reference, 120)
        .into_iter()
        .map(|r| r.seq)
        .collect();

    // CASA.
    let config = CasaConfig::builder()
        .partition_len(50_000)
        .read_len(101)
        .build()
        .expect("published design point is valid");
    let seeder = Seeder::builder(&reference)
        .config(config)
        .build()
        .expect("valid config");
    let casa_run = seeder.seed_reads(&reads);

    // GenAx (12-mer seed & position tables).
    let genax = GenaxAccelerator::new(&reference, GenaxConfig::paper(50_000, 101));
    let (genax_smems, genax_run) = genax.seed_reads(&reads);

    // BWA-MEM2 (the golden software reference).
    let bwa = BwaMem2Model::new(&reference, 19);
    let bwa_run = bwa.seed_reads(&reads);

    // ASIC-ERT (cost model; produces the same seeds by construction).
    let ert = ErtAccelerator::new(&reference, ErtConfig::default());
    let ert_run = ert.process_reads(&reads);

    // GenCache (GenAx's algorithm + Bloom fast path + cached index).
    let gencache = GencacheAccelerator::new(
        &reference,
        GencacheConfig::paper(GenaxConfig::paper(50_000, 101)),
    );
    let (gencache_smems, gencache_run) = gencache.seed_reads(&reads);

    // The paper's equivalence claim.
    assert_eq!(casa_run.smems, bwa_run.smems, "CASA != BWA-MEM2");
    assert_eq!(genax_smems, bwa_run.smems, "GenAx != BWA-MEM2");
    assert_eq!(gencache_smems, bwa_run.smems, "GenCache != BWA-MEM2");
    println!("SMEM sets identical across CASA, GenAx, GenCache and BWA-MEM2 ✓");
    let total: usize = casa_run.smems.iter().map(Vec::len).sum();
    println!("{total} SMEMs over {} reads\n", reads.len());

    let casa_t = casa_run.throughput_reads_per_s(seeder.partition_count(), &DramSystem::casa());
    println!("{:<22} {:>14}", "system", "reads/s");
    println!("{:<22} {:>14.0}", "CASA", casa_t);
    println!(
        "{:<22} {:>14.0}",
        "ASIC-ERT",
        ert_run.throughput(ert.config(), &DramSystem::ert())
    );
    println!(
        "{:<22} {:>14.0}",
        "GenAx",
        genax_run.throughput(genax.config(), genax.partition_count())
    );
    println!(
        "{:<22} {:>14.0}",
        "GenCache",
        gencache_run.throughput(gencache.config(), gencache.partition_count())
    );
    println!(
        "{:<22} {:>14.0}",
        "BWA-MEM2 (12 threads)",
        bwa_run.throughput(&I7_6800K, 12)
    );
}
