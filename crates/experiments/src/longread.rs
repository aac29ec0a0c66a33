//! Long-read seeding (the paper's §9 outlook: "the filter-enabled
//! architecture of CASA, which supports large k-mer searches, broadens
//! its applicability to long-read alignment").
//!
//! We simulate ONT-like long reads (kilobase lengths, percent-level error
//! rates), seed them with the unmodified CASA pipeline, and report how the
//! seeding behaves as reads grow: SMEMs per read, the fraction of read
//! bases covered by seeds, pivots filtered, and modelled throughput in
//! bases/second.

use casa_core::{CasaConfig, SeedingSession};
use casa_energy::DramSystem;
use casa_genome::{PackedSeq, ReadSimConfig, ReadSimulator};

use crate::report::Table;
use crate::scenario::{Genome, Scale, Scenario};

/// One row of the long-read sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LongReadRow {
    /// Read length in bases.
    pub read_len: usize,
    /// Per-base error rate simulated.
    pub error_rate: f64,
    /// Average SMEMs per read.
    pub smems_per_read: f64,
    /// Fraction of read bases covered by at least one SMEM.
    pub seed_coverage: f64,
    /// Fraction of pivots filtered before SMEM computation.
    pub filter_rate: f64,
    /// Modelled seeding throughput in bases/second.
    pub bases_per_s: f64,
}

/// ONT-like per-base error rate used for the sweep.
pub const LONG_READ_ERROR_RATE: f64 = 0.03;

/// Runs the sweep over read lengths on the human-like genome.
pub fn run(scale: Scale) -> Vec<LongReadRow> {
    let scenario = Scenario::build(Genome::HumanLike, scale);
    let reference = &scenario.reference;
    let read_counts = match scale {
        Scale::Small => 20,
        Scale::Medium => 60,
        Scale::Large => 150,
    };
    [500usize, 1_000, 2_000, 5_000]
        .into_iter()
        .filter(|&len| reference.len() > 2 * len)
        .map(|read_len| {
            let sim = ReadSimulator::new(
                ReadSimConfig {
                    read_len,
                    base_error_rate: LONG_READ_ERROR_RATE * 0.7,
                    error_ramp: 0.0,
                    mutation_rate: LONG_READ_ERROR_RATE * 0.2,
                    indel_rate: LONG_READ_ERROR_RATE * 0.1,
                    rc_fraction: 0.0,
                },
                read_len as u64,
            );
            let reads: Vec<PackedSeq> = sim
                .simulate(reference, read_counts)
                .into_iter()
                .map(|r| r.seq)
                .collect();
            let config = CasaConfig::paper(scale.partition_len(), read_len);
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            let session = SeedingSession::new(reference, config, workers).expect("valid config");
            let run = session.seed_reads(&reads);
            let dram = DramSystem::casa();
            let seconds = run.seconds(&dram);

            let total_smems: usize = run.smems.iter().map(Vec::len).sum();
            let coverage: f64 = run
                .smems
                .iter()
                .map(|smems| {
                    let covered: usize = coverage_of(smems, read_len);
                    covered as f64 / read_len as f64
                })
                .sum::<f64>()
                / reads.len() as f64;

            LongReadRow {
                read_len,
                error_rate: LONG_READ_ERROR_RATE,
                smems_per_read: total_smems as f64 / reads.len() as f64,
                seed_coverage: coverage,
                filter_rate: run.stats.pivot_filter_rate(),
                bases_per_s: (reads.len() * read_len) as f64 / seconds,
            }
        })
        .collect()
}

/// Bases of `read_len` covered by at least one SMEM (intervals are sorted
/// and non-contained, so a sweep suffices).
fn coverage_of(smems: &[casa_index::Smem], read_len: usize) -> usize {
    let mut covered = 0usize;
    let mut cursor = 0usize;
    for s in smems {
        let start = s.read_start.max(cursor);
        if s.read_end > start {
            covered += s.read_end - start;
            cursor = s.read_end;
        }
    }
    covered.min(read_len)
}

/// Renders the sweep.
pub fn table(rows: &[LongReadRow]) -> Table {
    let mut t = Table::new(
        "Long-read seeding sweep (paper §9 outlook; ONT-like 3% error)",
        &[
            "read len",
            "SMEMs/read",
            "seed coverage",
            "filtered",
            "Mbases/s",
        ],
    );
    for r in rows {
        t.row([
            r.read_len.to_string(),
            format!("{:.1}", r.smems_per_read),
            format!("{:.1}%", r.seed_coverage * 100.0),
            format!("{:.2}%", r.filter_rate * 100.0),
            format!("{:.2}", r.bases_per_s / 1e6),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_reads_seed_with_many_smems() {
        let rows = run(Scale::Small);
        assert!(rows.len() >= 2);
        for pair in rows.windows(2) {
            // Longer reads carry more SMEMs.
            assert!(
                pair[1].smems_per_read > pair[0].smems_per_read,
                "{} -> {}",
                pair[0].smems_per_read,
                pair[1].smems_per_read
            );
        }
        for r in &rows {
            assert!(
                r.smems_per_read >= 1.0,
                "{}bp reads found {} SMEMs/read",
                r.read_len,
                r.smems_per_read
            );
            // At 3% error an exact 19-mer survives between errors often
            // enough to cover a sizable fraction of the read.
            assert!(
                r.seed_coverage > 0.2,
                "{}bp coverage {:.2}",
                r.read_len,
                r.seed_coverage
            );
            assert!(r.bases_per_s > 0.0);
        }
    }

    #[test]
    fn coverage_helper_handles_overlaps() {
        use casa_index::Smem;
        let smems = vec![
            Smem {
                read_start: 0,
                read_end: 30,
                hits: vec![1],
            },
            Smem {
                read_start: 20,
                read_end: 50,
                hits: vec![2],
            },
            Smem {
                read_start: 80,
                read_end: 90,
                hits: vec![3],
            },
        ];
        assert_eq!(coverage_of(&smems, 100), 60);
        assert_eq!(coverage_of(&[], 100), 0);
    }
}
