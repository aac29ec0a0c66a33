//! Figure 16: inexact-matching throughput of CASA, ERT and GenAx,
//! normalized to GenAx (every read carries at least one edit, so the
//! exact-match fast path never fires; the paper measures CASA at 3.86×
//! GenAx and 0.72× ERT).

use casa_baselines::{ErtAccelerator, ErtConfig, GenaxAccelerator, GenaxConfig};
use casa_core::SeedingSession;
use casa_energy::DramSystem;

use crate::report::Table;
use crate::scenario::{Genome, Scale, Scenario, READ_LEN};
use crate::systems::genax_k;

/// One bar of Fig. 16.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig16Row {
    /// System label.
    pub system: &'static str,
    /// Absolute throughput, reads/s.
    pub reads_per_s: f64,
    /// Throughput normalized to GenAx.
    pub normalized: f64,
}

/// Runs the inexact-only comparison on the human-like genome.
pub fn run(scale: Scale) -> Vec<Fig16Row> {
    let scenario = Scenario::build_inexact(Genome::HumanLike, scale);

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let session = SeedingSession::new(&scenario.reference, scenario.casa_config(), workers)
        .expect("scenario config is valid");
    let casa_run = session.seed_reads(&scenario.reads);
    let casa_tput = casa_run.throughput_reads_per_s(session.partition_count(), &DramSystem::casa());

    let ert_cfg = ErtConfig::default();
    let ert_acc = ErtAccelerator::new(&scenario.reference, ert_cfg);
    let ert_run = ert_acc.process_reads(&scenario.reads);
    let ert_tput = ert_run.throughput(&ert_cfg, &DramSystem::ert());

    let genax_cfg = GenaxConfig {
        k: genax_k(scenario.scale),
        ..GenaxConfig::paper(scenario.scale.partition_len(), READ_LEN)
    };
    let genax_acc = GenaxAccelerator::new(&scenario.reference, genax_cfg);
    let (_, genax_run) = genax_acc.seed_reads(&scenario.reads);
    let genax_tput = genax_run.throughput(&genax_cfg, genax_acc.partition_count());

    [
        ("CASA", casa_tput),
        ("ERT", ert_tput),
        ("GenAx", genax_tput),
    ]
    .into_iter()
    .map(|(system, reads_per_s)| Fig16Row {
        system,
        reads_per_s,
        normalized: reads_per_s / genax_tput,
    })
    .collect()
}

/// The paper's Fig. 16 values normalized to GenAx (CASA 3.86x;
/// ERT = CASA / 0.72 ≈ 5.4x).
fn paper_value(system: &str) -> &'static str {
    match system {
        "CASA" => "3.86x",
        "ERT" => "5.36x",
        _ => "1.00x",
    }
}

/// Renders the figure. The ERT bar is depressed at reproduction scale:
/// its per-fetch DRAM latency is full-scale while the partitioned
/// accelerators enjoy reduced pass counts (see EXPERIMENTS.md).
pub fn table(rows: &[Fig16Row]) -> Table {
    let mut t = Table::new(
        "Figure 16: inexact matching throughput (normalized to GenAx)",
        &["system", "reads/s", "normalized", "paper"],
    );
    for r in rows {
        t.row([
            r.system.to_string(),
            format!("{:.0}", r.reads_per_s),
            format!("{:.2}x", r.normalized),
            paper_value(r.system).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inexact_ordering_matches_paper() {
        let rows = run(Scale::Small);
        let get = |name: &str| rows.iter().find(|r| r.system == name).unwrap().normalized;
        // Paper: CASA is 3.86x GenAx on inexact-only workloads. Assert the
        // win and a generous band around the published factor.
        let casa = get("CASA");
        assert!(
            (1.5..=10.0).contains(&casa),
            "CASA/GenAx {casa:.2} should be in the paper's neighbourhood (3.86x)"
        );
        assert!((get("GenAx") - 1.0).abs() < 1e-9);
        // ERT's bar is positive; its ordering vs GenAx is scale-sensitive
        // (full-scale DRAM latency vs reduced pass counts) and is covered
        // by the projected summary instead.
        assert!(get("ERT") > 0.0);
    }
}
