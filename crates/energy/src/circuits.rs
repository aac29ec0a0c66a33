//! 28 nm circuit models — the paper's Table 3.
//!
//! The CASA paper evaluates its design by feeding a cycle-level simulator
//! with per-macro delay/area/energy/leakage numbers obtained from the TSMC
//! 28 nm memory compiler (SRAM) and a silicon-verified CAM design (Xue et
//! al., JSSC 2019). We embed those published constants verbatim and derive
//! the few macro shapes Table 3 does not list (e.g. the 256×80 computing
//! CAM of Fig. 11) by linear bit scaling.

use serde::{Deserialize, Serialize};

/// Memory macro technology family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MacroKind {
    /// 6-transistor SRAM bit cells.
    Sram6T,
    /// 10-transistor NOR-type binary CAM bit cells (paper Fig. 4b).
    Bcam10T,
}

/// One memory macro's circuit model (a row of the paper's Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MacroSpec {
    /// Human-readable name, e.g. `"6T SRAM 256x24"`.
    pub name: &'static str,
    /// Technology family.
    pub kind: MacroKind,
    /// Number of rows (words).
    pub rows: u32,
    /// Word width in bits.
    pub bits: u32,
    /// Access (or search) delay in picoseconds.
    pub delay_ps: f64,
    /// Macro area in µm².
    pub area_um2: f64,
    /// Dynamic energy per access (full-array search for CAM) in pJ.
    pub energy_pj: f64,
    /// Leakage current in µA.
    pub leakage_ua: f64,
}

/// Nominal supply voltage used to convert leakage current to power.
pub const VDD_VOLTS: f64 = 0.9;

/// Controller clock frequency: the paper's synthesized controllers close
/// timing at 2 GHz.
pub const CLOCK_HZ: f64 = 2.0e9;

/// Table 3, row 1: 6T SRAM, 256 × 24 bits (mini index table banks).
pub const SRAM_256X24: MacroSpec = MacroSpec {
    name: "6T SRAM 256x24",
    kind: MacroKind::Sram6T,
    rows: 256,
    bits: 24,
    delay_ps: 424.0,
    area_um2: 2535.0,
    energy_pj: 2.33,
    leakage_ua: 6.29,
};

/// Table 3, row 2: 6T SRAM, 256 × 60 bits (data array banks).
pub const SRAM_256X60: MacroSpec = MacroSpec {
    name: "6T SRAM 256x60",
    kind: MacroKind::Sram6T,
    rows: 256,
    bits: 60,
    delay_ps: 444.0,
    area_um2: 5563.0,
    energy_pj: 4.89,
    leakage_ua: 14.18,
};

/// Table 3, row 3: 6T SRAM, 256 × 256 bits (GenAx seed & position tables).
pub const SRAM_256X256: MacroSpec = MacroSpec {
    name: "6T SRAM 256x256",
    kind: MacroKind::Sram6T,
    rows: 256,
    bits: 256,
    delay_ps: 548.0,
    area_um2: 22046.0,
    energy_pj: 20.92,
    leakage_ua: 38.198,
};

/// Table 3, row 4: 10T BCAM, 256 × 72 bits (pre-seeding tag array).
pub const BCAM_256X72: MacroSpec = MacroSpec {
    name: "10T BCAM 256x72",
    kind: MacroKind::Bcam10T,
    rows: 256,
    bits: 72,
    delay_ps: 495.0,
    area_um2: 18056.0,
    energy_pj: 17.60,
    leakage_ua: 18.69,
};

/// The 256 × 80 bit computing CAM of Fig. 11 (40 bases per entry), derived
/// from [`BCAM_256X72`] by bit scaling.
pub const BCAM_256X80: MacroSpec = BCAM_256X72.scaled_bits("10T BCAM 256x80", 80);

impl MacroSpec {
    /// Derives a macro with a different word width by scaling area, energy
    /// and leakage linearly in bits (delay held — wordline/sense timing
    /// dominates).
    pub const fn scaled_bits(self, name: &'static str, bits: u32) -> MacroSpec {
        let ratio = bits as f64 / self.bits as f64;
        MacroSpec {
            name,
            bits,
            area_um2: self.area_um2 * ratio,
            energy_pj: self.energy_pj * ratio,
            leakage_ua: self.leakage_ua * ratio,
            ..self
        }
    }

    /// Storage capacity of one macro in bits.
    pub fn capacity_bits(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.bits)
    }

    /// Storage capacity of one macro in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bits() / 8
    }

    /// Leakage power of one macro in watts.
    pub fn leakage_watts(&self) -> f64 {
        self.leakage_ua * 1e-6 * VDD_VOLTS
    }

    /// Number of macros needed to hold `bytes` of storage.
    pub fn macros_for_bytes(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.capacity_bytes())
    }

    /// Total area in mm² of enough macros to hold `bytes`.
    pub fn area_mm2_for_bytes(&self, bytes: u64) -> f64 {
        self.macros_for_bytes(bytes) as f64 * self.area_um2 / 1e6
    }
}

/// All Table 3 rows, for printing the table experiment.
pub const TABLE3_ROWS: [MacroSpec; 4] = [SRAM_256X24, SRAM_256X60, SRAM_256X256, BCAM_256X72];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_constants_match_paper() {
        assert_eq!(SRAM_256X24.delay_ps, 424.0);
        assert_eq!(SRAM_256X60.energy_pj, 4.89);
        assert_eq!(SRAM_256X256.area_um2, 22046.0);
        assert_eq!(BCAM_256X72.leakage_ua, 18.69);
    }

    #[test]
    fn capacities() {
        assert_eq!(SRAM_256X24.capacity_bits(), 256 * 24);
        assert_eq!(BCAM_256X72.capacity_bytes(), 2304);
    }

    #[test]
    fn scaling_is_linear_in_bits() {
        let b80 = BCAM_256X80;
        assert_eq!(b80.bits, 80);
        assert!((b80.energy_pj - 17.60 * 80.0 / 72.0).abs() < 1e-9);
        assert!((b80.area_um2 - 18056.0 * 80.0 / 72.0).abs() < 1e-6);
        assert_eq!(b80.delay_ps, BCAM_256X72.delay_ps);
    }

    #[test]
    fn filter_table_area_reproduces_table4() {
        // Paper Table 4: the 45 MB pre-seeding filter table occupies
        // 188.411 mm². Rebuilding it from Table 3 macros:
        //   mini index: 6 MB of 256x24 SRAM
        //   tag array:  9 MB of 256x72 BCAM
        //   data array: 30 MB of 256x60 SRAM
        let mb = 1u64 << 20;
        let area = SRAM_256X24.area_mm2_for_bytes(6 * mb)
            + BCAM_256X72.area_mm2_for_bytes(9 * mb)
            + SRAM_256X60.area_mm2_for_bytes(30 * mb);
        assert!(
            (area - 188.411).abs() / 188.411 < 0.03,
            "modelled filter area {area:.3} mm² should land within 3% of Table 4"
        );
    }

    #[test]
    fn computing_cam_area_reproduces_table4() {
        // Paper Table 4: ten 1 MB computing CAMs = 90.329 mm².
        let area = BCAM_256X80.area_mm2_for_bytes(10 << 20);
        assert!(
            (area - 90.329).abs() / 90.329 < 0.10,
            "modelled computing-CAM area {area:.3} mm² should land within 10% of Table 4"
        );
    }

    #[test]
    fn macros_for_bytes_rounds_up() {
        assert_eq!(SRAM_256X24.macros_for_bytes(1), 1);
        assert_eq!(SRAM_256X24.macros_for_bytes(768), 1);
        assert_eq!(SRAM_256X24.macros_for_bytes(769), 2);
    }

    #[test]
    fn leakage_power_is_microscale() {
        let w = BCAM_256X72.leakage_watts();
        assert!(w > 1e-6 && w < 1e-3);
    }
}
