//! Figure 5: number of k-mers on a read that hit one reference partition,
//! as the k-mer size grows (the observation motivating CASA's 19-mer
//! filter — the paper measures a 6.04× drop from k = 12 to k = 19).

use casa_filter::{FilterConfig, FilterStats, PreSeedingFilter};

use crate::report::Table;
use crate::scenario::{Genome, Scale, Scenario};

/// One bar of Fig. 5.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig05Row {
    /// k-mer size.
    pub k: usize,
    /// Average pivots per read whose k-mer hits the partition.
    pub hit_pivots_per_read: f64,
}

/// Runs the experiment: one human-like partition, the standard read
/// batch, k ∈ {12, 14, 16, 19}.
pub fn run(scale: Scale) -> Vec<Fig05Row> {
    let scenario = Scenario::build(Genome::HumanLike, scale);
    let part = scenario
        .reference
        .subseq(0, scale.partition_len().min(scenario.reference.len()));
    [12usize, 14, 16, 19]
        .into_iter()
        .map(|k| {
            let filter = PreSeedingFilter::build(&part, FilterConfig::new(k, 10, 40, 20));
            let mut stats = FilterStats::default();
            let mut hit_pivots = 0u64;
            for read in &scenario.reads {
                for pivot in 0..=read.len().saturating_sub(k) {
                    if filter
                        .lookup(0, read, pivot, &mut stats)
                        .is_some_and(|si| !si.is_empty())
                    {
                        hit_pivots += 1;
                    }
                }
            }
            Fig05Row {
                k,
                hit_pivots_per_read: hit_pivots as f64 / scenario.reads.len() as f64,
            }
        })
        .collect()
}

/// Renders the Fig. 5 rows.
pub fn table(rows: &[Fig05Row]) -> Table {
    let mut t = Table::new(
        "Figure 5: hit pivots per read per reference partition vs k",
        &["k", "hit pivots/read/part", "vs k=12"],
    );
    let base = rows.first().map(|r| r.hit_pivots_per_read).unwrap_or(1.0);
    for r in rows {
        t.row([
            r.k.to_string(),
            format!("{:.3}", r.hit_pivots_per_read),
            format!("{:.2}x", base / r.hit_pivots_per_read.max(1e-12)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_pivots_decrease_with_k() {
        let rows = run(Scale::Small);
        assert_eq!(rows.len(), 4);
        for pair in rows.windows(2) {
            assert!(
                pair[0].hit_pivots_per_read >= pair[1].hit_pivots_per_read,
                "k={} -> {} should not exceed k={} -> {}",
                pair[1].k,
                pair[1].hit_pivots_per_read,
                pair[0].k,
                pair[0].hit_pivots_per_read
            );
        }
        // The paper sees a 6.04x drop from 12 to 19; synthetic genomes
        // should show a clear multiple too.
        let drop = rows[0].hit_pivots_per_read / rows[3].hit_pivots_per_read.max(1e-12);
        assert!(drop > 1.2, "k=12 -> k=19 drop was only {drop:.2}x");
    }
}
