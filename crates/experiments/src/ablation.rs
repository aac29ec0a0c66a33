//! Design-choice ablations for the knobs the paper fixes by construction:
//!
//! * the mini-index prefix size **m = 10** (splits the 19-mer "roughly
//!   half by half", §4.1) — we sweep m and measure the footprint split
//!   and the tag-CAM rows powered per lookup;
//! * **20 CAM groups** (§3) — we sweep the group count and measure the
//!   computing-CAM rows enabled per read (the energy proxy) against the
//!   search count;
//! * the **enumerated filter vs a Bloom filter** (GenCache's choice,
//!   §4.1: "the proposed pre-seeding filter table avoids k-mer false
//!   positives or misses, unlike the bloom filter in GenCache") — we
//!   measure the false-positive pivots a Bloom filter of equal-ish budget
//!   would admit to SMEM computation.

use casa_core::{CasaConfig, PartitionEngine, SeedingStats};
use casa_filter::{BloomFilter, FilterConfig, FilterStats, PreSeedingFilter};
use casa_genome::PackedSeq;

use crate::report::Table;
use crate::scenario::{Genome, Scale, Scenario, READ_LEN};

/// One row of the m sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MSweepRow {
    /// Mini-index prefix size.
    pub m: usize,
    /// Filter footprint in MB (for a 4 Mbase partition, the paper's
    /// sizing).
    pub footprint_mb: f64,
    /// Average tag rows powered per k-mer lookup.
    pub tag_rows_per_lookup: f64,
}

/// One row of the group sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupSweepRow {
    /// Number of CAM groups.
    pub groups: usize,
    /// Computing-CAM rows enabled per read (energy proxy).
    pub cam_rows_per_read: f64,
    /// CAM searches per read (cycle proxy).
    pub searches_per_read: f64,
}

/// Bloom-vs-exact filter comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FilterKindRow {
    /// Bits per reference k-mer granted to the Bloom filter.
    pub bloom_bits_per_kmer: usize,
    /// Pivots per read the exact filter admits (true hits only).
    pub exact_pivots_per_read: f64,
    /// Pivots per read the Bloom filter admits (hits + false positives).
    pub bloom_pivots_per_read: f64,
    /// The false-positive fraction among Bloom-admitted pivots.
    pub false_positive_fraction: f64,
}

/// All three ablations.
#[derive(Clone, Debug, PartialEq)]
pub struct Ablations {
    /// Mini-index prefix sweep.
    pub m_sweep: Vec<MSweepRow>,
    /// CAM group-count sweep.
    pub group_sweep: Vec<GroupSweepRow>,
    /// Exact vs Bloom filter.
    pub filter_kinds: Vec<FilterKindRow>,
}

/// Runs all ablations on one human-like partition.
pub fn run(scale: Scale) -> Ablations {
    let scenario = Scenario::build(Genome::HumanLike, scale);
    let part_len = scale
        .partition_len()
        .min(150_000)
        .min(scenario.reference.len());
    let part = scenario.reference.subseq(0, part_len);
    let read_cap = match scale {
        Scale::Small => 50,
        Scale::Medium => 200,
        Scale::Large => 500,
    };
    // Group sweep includes a 1-group (no gating) engine run; debug builds
    // need a smaller batch to stay fast (release uses the full cap).
    let read_cap = if cfg!(debug_assertions) {
        read_cap / 2
    } else {
        read_cap
    };
    let reads: Vec<PackedSeq> = scenario.reads.iter().take(read_cap).cloned().collect();

    // --- m sweep -----------------------------------------------------
    let m_sweep = [8usize, 9, 10, 11, 12]
        .into_iter()
        .map(|m| {
            let cfg = FilterConfig::new(19, m, 40, 20);
            let filter = PreSeedingFilter::build(&part, cfg);
            let mut st = FilterStats::default();
            for read in &reads {
                for pivot in 0..=read.len() - cfg.k {
                    let _ = filter.lookup(0, read, pivot, &mut st);
                }
            }
            // Footprint at the paper's 4 Mbase partition sizing.
            let paper_sized = PreSeedingFilterFootprint {
                m,
                partition: 4 << 20,
            };
            MSweepRow {
                m,
                footprint_mb: paper_sized.bytes() as f64 / (1u64 << 20) as f64,
                tag_rows_per_lookup: st.tag_rows_enabled as f64 / st.lookups.max(1) as f64,
            }
        })
        .collect();

    // --- group sweep ---------------------------------------------------
    let group_sweep = [1usize, 10, 20, 32]
        .into_iter()
        .map(|groups| {
            let mut config = CasaConfig::paper(part.len(), READ_LEN);
            config.filter = FilterConfig::new(19, 10, 40, groups);
            config.partitioning = casa_genome::PartitionScheme::new(part.len(), READ_LEN - 1);
            config.exact_match_preprocessing = false;
            let mut engine = PartitionEngine::new(&part, config).expect("valid config");
            let mut stats = SeedingStats::default();
            for read in &reads {
                engine.seed_read(read, &mut stats);
            }
            GroupSweepRow {
                groups,
                cam_rows_per_read: stats.cam.rows_enabled as f64 / reads.len() as f64,
                searches_per_read: stats.cam.searches as f64 / reads.len() as f64,
            }
        })
        .collect();

    // --- exact vs Bloom -------------------------------------------------
    let k = 19usize;
    let cfg = FilterConfig::new(k, 10, 40, 20);
    let exact = PreSeedingFilter::build(&part, cfg);
    let mut scratch_stats = FilterStats::default();
    let filter_kinds = [4usize, 8, 16]
        .into_iter()
        .map(|bits| {
            let kmers = part.len() - k + 1;
            let mut bloom = BloomFilter::with_capacity(kmers, bits, 3);
            for (_, code) in part.kmers(k) {
                bloom.insert(code);
            }
            let mut exact_hits = 0u64;
            let mut bloom_hits = 0u64;
            let mut false_pos = 0u64;
            for read in &reads {
                for pivot in 0..=read.len() - k {
                    let code = read.kmer_code(pivot, k).expect("bounds");
                    let truth = !exact.lookup_code(0, code, &mut scratch_stats).is_empty();
                    let claimed = bloom.contains(code);
                    exact_hits += u64::from(truth);
                    bloom_hits += u64::from(claimed);
                    false_pos += u64::from(claimed && !truth);
                }
            }
            FilterKindRow {
                bloom_bits_per_kmer: bits,
                exact_pivots_per_read: exact_hits as f64 / reads.len() as f64,
                bloom_pivots_per_read: bloom_hits as f64 / reads.len() as f64,
                false_positive_fraction: false_pos as f64 / bloom_hits.max(1) as f64,
            }
        })
        .collect();

    Ablations {
        m_sweep,
        group_sweep,
        filter_kinds,
    }
}

/// Footprint model matching [`PreSeedingFilter::footprint_bytes`], usable
/// without building the tables.
struct PreSeedingFilterFootprint {
    m: usize,
    partition: u64,
}

impl PreSeedingFilterFootprint {
    fn bytes(&self) -> u64 {
        let mini = (1u64 << (2 * self.m)) * 48 / 8;
        let tag = self.partition * (2 * (19 - self.m) as u64) / 8;
        let data = self.partition * 60 / 8;
        mini + tag + data
    }
}

/// Renders the three ablation tables concatenated.
pub fn tables(a: &Ablations) -> Vec<Table> {
    let mut m_table = Table::new(
        "Ablation A: mini-index prefix size m (paper picks m = 10)",
        &["m", "footprint @4Mb part (MB)", "tag rows/lookup"],
    );
    for r in &a.m_sweep {
        m_table.row([
            r.m.to_string(),
            format!("{:.1}", r.footprint_mb),
            format!("{:.1}", r.tag_rows_per_lookup),
        ]);
    }
    let mut g_table = Table::new(
        "Ablation B: CAM group count (paper picks 20)",
        &["groups", "CAM rows/read", "searches/read"],
    );
    for r in &a.group_sweep {
        g_table.row([
            r.groups.to_string(),
            format!("{:.0}", r.cam_rows_per_read),
            format!("{:.1}", r.searches_per_read),
        ]);
    }
    let mut f_table = Table::new(
        "Ablation C: enumerated filter vs Bloom filter (GenCache's choice)",
        &[
            "bloom bits/kmer",
            "exact pivots/read",
            "bloom pivots/read",
            "false-positive share",
        ],
    );
    for r in &a.filter_kinds {
        f_table.row([
            r.bloom_bits_per_kmer.to_string(),
            format!("{:.2}", r.exact_pivots_per_read),
            format!("{:.2}", r.bloom_pivots_per_read),
            format!("{:.1}%", r.false_positive_fraction * 100.0),
        ]);
    }
    vec![m_table, g_table, f_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shapes() {
        let a = run(Scale::Small);

        // m sweep: the mini index grows 4x per +1 m while the tag shrinks
        // linearly, so the footprint curve is U-shaped-ish with the paper's
        // m=10 near the bottom; tag rows per lookup drop as m grows.
        for pair in a.m_sweep.windows(2) {
            assert!(
                pair[1].tag_rows_per_lookup <= pair[0].tag_rows_per_lookup + 1e-9,
                "larger m must narrow tag buckets"
            );
        }
        let m10 = a.m_sweep.iter().find(|r| r.m == 10).unwrap();
        assert!((m10.footprint_mb - 45.0).abs() < 1.0, "paper's 45MB point");

        // group sweep: more groups -> fewer rows enabled, same-ish searches.
        for pair in a.group_sweep.windows(2) {
            assert!(
                pair[1].cam_rows_per_read <= pair[0].cam_rows_per_read * 1.05,
                "more groups must not enable more rows: {} -> {}",
                pair[0].cam_rows_per_read,
                pair[1].cam_rows_per_read
            );
        }

        // bloom: admits at least the true pivots, plus false positives
        // that shrink with the bit budget.
        for r in &a.filter_kinds {
            assert!(r.bloom_pivots_per_read + 1e-9 >= r.exact_pivots_per_read);
        }
        let fp: Vec<f64> = a
            .filter_kinds
            .iter()
            .map(|r| r.false_positive_fraction)
            .collect();
        assert!(fp[0] > fp[2], "more bits must cut false positives: {fp:?}");
    }
}
