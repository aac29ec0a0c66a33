//! Converts CASA activity counts into the paper's energy/power/area
//! quantities (Table 4, Fig. 13).
//!
//! The hardware model is fixed at the published design point (45 MB filter,
//! ten 1 MB computing CAMs, synthesized controllers) regardless of the
//! simulated workload scale: leakage and area are properties of the chip,
//! while dynamic power follows the simulated activity rate.

use casa_energy::circuits::{MacroSpec, BCAM_256X72, BCAM_256X80, SRAM_256X24, SRAM_256X60};
use casa_energy::{AreaReport, DramSystem, EnergyLedger, PowerReport};
use serde::{Deserialize, Serialize};

use crate::session::CasaRun;
use crate::stats::SeedingStats;

/// Physical design point of the CASA chip (defaults = paper Fig. 11 /
/// Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CasaHardwareModel {
    /// Mini index table capacity in bytes (paper: 6 MB of 256×24 SRAM).
    pub mini_index_bytes: u64,
    /// Tag array capacity in bytes (paper: 9 MB of 256×72 BCAM).
    pub tag_bytes: u64,
    /// Data array capacity in bytes (paper: 30 MB of 256×60 SRAM).
    pub data_bytes: u64,
    /// Computing CAM capacity in bytes (paper: ten 1 MB CAMs).
    pub cam_bytes: u64,
    /// Pre-seeding controller power in watts (paper Table 4: 4.102 W) and
    /// area in mm² (13.764).
    pub pre_ctrl: (f64, f64),
    /// Computing controllers total power in watts (0.354) and area in mm²
    /// (4.049).
    pub comp_ctrl: (f64, f64),
}

impl Default for CasaHardwareModel {
    fn default() -> CasaHardwareModel {
        let mb = 1u64 << 20;
        CasaHardwareModel {
            mini_index_bytes: 6 * mb,
            tag_bytes: 9 * mb,
            data_bytes: 30 * mb,
            cam_bytes: 10 * mb,
            pre_ctrl: (4.102, 13.764),
            comp_ctrl: (0.354, 4.049),
        }
    }
}

impl CasaHardwareModel {
    /// Controller power (always-on while seeding), watts.
    pub fn controller_power_w(&self) -> f64 {
        self.pre_ctrl.0 + self.comp_ctrl.0
    }

    /// Total on-chip memory leakage, watts.
    pub fn memory_leakage_w(&self) -> f64 {
        leakage(&SRAM_256X24, self.mini_index_bytes)
            + leakage(&BCAM_256X72, self.tag_bytes)
            + leakage(&SRAM_256X60, self.data_bytes)
            + leakage(&BCAM_256X80, self.cam_bytes)
    }

    /// Table-4-style area breakdown.
    pub fn area_report(&self, dram_power_w: f64, phy_power_w: f64) -> AreaReport {
        let mut rep = AreaReport::default();
        rep.push(
            "Pre-seeding controller",
            Some(self.pre_ctrl.1),
            self.pre_ctrl.0,
        );
        rep.push(
            "Computing controllers (total)",
            Some(self.comp_ctrl.1),
            self.comp_ctrl.0,
        );
        let filter_area = SRAM_256X24.area_mm2_for_bytes(self.mini_index_bytes)
            + BCAM_256X72.area_mm2_for_bytes(self.tag_bytes)
            + SRAM_256X60.area_mm2_for_bytes(self.data_bytes);
        rep.push(
            "Pre-seeding filter table (45MB)",
            Some(filter_area),
            f64::NAN,
        );
        rep.push(
            "Computing CAMs (10MB)",
            Some(BCAM_256X80.area_mm2_for_bytes(self.cam_bytes)),
            f64::NAN,
        );
        rep.push("DDR4 (total)", None, dram_power_w);
        rep.push("DRAM controller PHY", None, phy_power_w);
        rep
    }
}

fn leakage(spec: &MacroSpec, bytes: u64) -> f64 {
    spec.macros_for_bytes(bytes) as f64 * spec.leakage_watts()
}

/// Builds the dynamic-energy ledger for a run's activity counts.
///
/// Energy attribution (paper §5 layout):
/// * mini index read → two 256×24 SRAM banks (48-bit entry);
/// * tag search → physical 72-bit rows activated (the §5 packing shares
///   sense amplifiers for *area*; small buckets still activate one
///   physical row per logical row, "at the expense of search energy"),
///   at the per-row share of a full-array search;
/// * data read → one 256×60 SRAM access;
/// * computing CAM → enabled rows at the per-row share of a 256×80 array
///   search.
pub fn dynamic_ledger(stats: &SeedingStats) -> EnergyLedger {
    let mut ledger = EnergyLedger::new();
    ledger.record_energy(
        "mini_index",
        stats.filter.mini_index_reads,
        stats.filter.mini_index_reads as f64 * 2.0 * SRAM_256X24.energy_pj,
    );
    ledger.record_energy(
        "tag_array",
        stats.filter.tag_searches,
        stats.filter.tag_physical_rows as f64 * BCAM_256X72.energy_pj / 256.0,
    );
    ledger.record_energy(
        "data_array",
        stats.filter.data_reads,
        stats.filter.data_reads as f64 * SRAM_256X60.energy_pj,
    );
    ledger.record_energy(
        "computing_cam",
        stats.cam.searches,
        stats.cam.rows_enabled as f64 * BCAM_256X80.energy_pj / 256.0,
    );
    ledger
}

/// Full power report for a CASA run on the given hardware/DRAM models.
pub fn power_report(
    run: &CasaRun,
    hw: &CasaHardwareModel,
    dram: &DramSystem,
    partition_count: usize,
) -> PowerReport {
    let seconds = run.seconds(dram);
    let mut ledger = dynamic_ledger(&run.stats);
    // Controllers burn constant power while the pipeline runs.
    ledger.record_energy(
        "controllers",
        run.stats.computing_cycles,
        hw.controller_power_w() * seconds * 1e12,
    );
    ledger.set_leakage("memories", hw.memory_leakage_w());
    PowerReport::from_run(
        "CASA",
        &ledger,
        dram,
        run.stats.dram_bytes,
        seconds,
        run.reads(partition_count),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CasaConfig, SeedingSession};
    use casa_genome::synth::{generate_reference, ReferenceProfile};
    use casa_genome::{PackedSeq, ReadSimConfig, ReadSimulator};

    #[test]
    fn hardware_model_reproduces_table4_areas() {
        let hw = CasaHardwareModel::default();
        let rep = hw.area_report(3.604, 1.798);
        // Paper total: 296.553 mm². Controllers are taken verbatim; the
        // memory areas are rebuilt from Table 3 macros, so allow 5 %.
        let total = rep.total_area_mm2();
        assert!(
            (total - 296.553).abs() / 296.553 < 0.05,
            "total area {total:.1} vs paper 296.553"
        );
    }

    #[test]
    fn leakage_is_sub_watt_scale() {
        let w = CasaHardwareModel::default().memory_leakage_w();
        assert!(w > 0.01 && w < 5.0, "leakage {w}");
    }

    #[test]
    fn run_report_end_to_end() {
        let reference = generate_reference(&ReferenceProfile::human_like(), 3_000, 2);
        let session =
            SeedingSession::new(&reference, CasaConfig::small(1_500), 2).expect("valid config");
        let sim = ReadSimulator::new(
            ReadSimConfig {
                read_len: 40,
                ..ReadSimConfig::default()
            },
            1,
        );
        let reads: Vec<PackedSeq> = sim
            .simulate(&reference, 30)
            .into_iter()
            .map(|r| r.seq)
            .collect();
        let run = session.seed_reads(&reads);
        let rep = power_report(
            &run,
            &CasaHardwareModel::default(),
            &DramSystem::casa(),
            session.partition_count(),
        );
        assert!(rep.total_w() > rep.onchip_dynamic_w);
        assert!(rep.reads_per_mj() > 0.0);
        assert_eq!(rep.reads, 30);
        // Controllers dominate a tiny workload's on-chip power.
        assert!(rep.onchip_w() >= CasaHardwareModel::default().controller_power_w() * 0.99);
    }

    #[test]
    fn dynamic_ledger_tracks_stats() {
        let mut stats = SeedingStats::default();
        stats.filter.mini_index_reads = 10;
        stats.filter.tag_rows_enabled = 1024;
        stats.filter.tag_physical_rows = 1024;
        stats.filter.data_reads = 4;
        stats.cam.rows_enabled = 512;
        stats.cam.searches = 2;
        let ledger = dynamic_ledger(&stats);
        assert!((ledger.activity("mini_index").energy_pj - 10.0 * 2.0 * 2.33).abs() < 1e-9);
        assert!((ledger.activity("tag_array").energy_pj - 1024.0 * 17.6 / 256.0).abs() < 1e-9);
        assert!((ledger.activity("data_array").energy_pj - 4.0 * 4.89).abs() < 1e-9);
        let cam80 = BCAM_256X80.energy_pj;
        assert!((ledger.activity("computing_cam").energy_pj - 512.0 * cam80 / 256.0).abs() < 1e-6);
    }
}
