//! CASA accelerator configuration.

use casa_filter::FilterConfig;
use casa_genome::PartitionScheme;
use serde::{Deserialize, Serialize};

use crate::error::ConfigError;

/// Full configuration of a CASA instance.
///
/// [`CasaConfig::paper`] reproduces the published design point: k = 19
/// pre-seeding filter (m = 10), ten 1 MB computing CAMs with 40-base
/// entries in 20 groups, a 512-entry FIFO between the pipeline stages, and
/// 2 GHz controllers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CasaConfig {
    /// Pre-seeding filter geometry (k, m, stride, groups).
    pub filter: FilterConfig,
    /// Minimum SMEM length reported as a seed. Must be ≥ `filter.k`
    /// (CASA sets both to 19).
    pub min_smem_len: usize,
    /// Number of SMEM computing CAMs, each seeding one read at a time
    /// (paper: 10).
    pub lanes: usize,
    /// FIFO depth between the pre-seeding and computing stages (paper:
    /// 512). Affects only the timing model.
    pub fifo_depth: usize,
    /// Concurrent pre-seeding filter banks (the paper multi-banks the
    /// filter so the pre-seeding stage outruns SMEM computing, §4.1).
    pub filter_banks: usize,
    /// Whether the exact-match read pre-processing of §4.3 is enabled.
    pub exact_match_preprocessing: bool,
    /// Whether the pre-seeding filter table is consulted at all. Disabling
    /// it yields the "naive" bar of Fig. 15 (every pivot triggers a CAM
    /// RMEM search).
    pub use_filter_table: bool,
    /// Whether Algorithm 1's pivot analyses (CRkM check + alignment check)
    /// run. Disabling them yields the "table" bar of Fig. 15.
    pub use_pivot_analysis: bool,
    /// How the reference is split across accelerator passes.
    pub partitioning: PartitionScheme,
}

impl CasaConfig {
    /// The published design point, with partitions sized for the given
    /// read length (overlap `read_len − 1` so no match window straddles a
    /// cut).
    ///
    /// The paper's hardware holds 4 M bases per 1 MB CAM; simulating
    /// 4 M-base partitions is possible but slow in unit tests, so the
    /// partition length is a parameter everywhere and experiments pick
    /// their scale.
    pub fn paper(part_len: usize, read_len: usize) -> CasaConfig {
        CasaConfig {
            filter: FilterConfig::default(),
            min_smem_len: 19,
            lanes: 10,
            fifo_depth: 512,
            filter_banks: 128,
            exact_match_preprocessing: true,
            use_filter_table: true,
            use_pivot_analysis: true,
            partitioning: PartitionScheme::new(part_len, read_len.saturating_sub(1)),
        }
    }

    /// A small geometry for unit tests: k = 6, m = 3, 8-base entries,
    /// 4 groups.
    pub fn small(part_len: usize) -> CasaConfig {
        CasaConfig {
            filter: FilterConfig::small(6, 3),
            min_smem_len: 6,
            lanes: 2,
            fifo_depth: 16,
            filter_banks: 8,
            exact_match_preprocessing: true,
            use_filter_table: true,
            use_pivot_analysis: true,
            partitioning: PartitionScheme::new(part_len, part_len / 2),
        }
    }

    /// Starts a [`CasaConfigBuilder`] seeded with the published design
    /// point (equivalent to [`CasaConfig::paper`] with a 1 Mbase partition
    /// and 101-base reads).
    pub fn builder() -> CasaConfigBuilder {
        CasaConfigBuilder::from_config(CasaConfig::paper(1 << 20, 101))
    }

    /// Checks every structural invariant and returns the config by value,
    /// ready to hand to a constructor.
    ///
    /// This is the non-panicking replacement for the removed
    /// `CasaConfig::validate`:
    /// the same invariants, reported as a [`ConfigError`] instead of an
    /// assertion failure. It also covers the partition-scheme and filter
    /// geometry invariants that the panicking path only enforced inside
    /// `PartitionScheme::new` / `FilterConfig::new`, so configs built via
    /// struct literals (or the builder) are fully checked here.
    pub fn validated(self) -> Result<CasaConfig, ConfigError> {
        if self.min_smem_len < self.filter.k {
            return Err(ConfigError::MinSmemShorterThanK {
                min_smem_len: self.min_smem_len,
                k: self.filter.k,
            });
        }
        if self.lanes == 0 {
            return Err(ConfigError::ZeroLanes);
        }
        if self.filter_banks == 0 {
            return Err(ConfigError::ZeroFilterBanks);
        }
        if self.partitioning.part_len == 0 {
            return Err(ConfigError::ZeroPartitionLen);
        }
        if self.partitioning.overlap >= self.partitioning.part_len {
            return Err(ConfigError::OverlapTooLarge {
                overlap: self.partitioning.overlap,
                part_len: self.partitioning.part_len,
            });
        }
        let f = self.filter;
        if f.m < 1 || f.m >= f.k {
            return Err(ConfigError::BadFilterGeometry {
                reason: "need 1 <= m < k",
            });
        }
        if f.k > 32 {
            return Err(ConfigError::BadFilterGeometry {
                reason: "k must fit a 64-bit code (k <= 32)",
            });
        }
        if f.k - f.m > 16 {
            return Err(ConfigError::BadFilterGeometry {
                reason: "the filter tag must fit 32 bits (k - m <= 16)",
            });
        }
        if f.stride > 64 {
            return Err(ConfigError::BadFilterGeometry {
                reason: "stride must fit the start mask (stride <= 64)",
            });
        }
        if f.groups < 1 || f.groups > 32 {
            return Err(ConfigError::BadFilterGeometry {
                reason: "groups must fit the indicator (1 <= groups <= 32)",
            });
        }
        Ok(self)
    }
}

/// Fluent construction of a [`CasaConfig`].
///
/// Starts from the published design point ([`CasaConfig::builder`]) and
/// lets callers override the knobs they care about; [`build`] validates
/// the result. The partition overlap tracks the last of `read_len` /
/// `overlap` to be set.
///
/// ```
/// use casa_core::CasaConfig;
/// let config = CasaConfig::builder()
///     .partition_len(50_000)
///     .read_len(101)
///     .lanes(4)
///     .build()?;
/// assert_eq!(config.partitioning.part_len, 50_000);
/// assert_eq!(config.partitioning.overlap, 100);
/// # Ok::<(), casa_core::ConfigError>(())
/// ```
///
/// [`build`]: CasaConfigBuilder::build
#[derive(Clone, Debug)]
pub struct CasaConfigBuilder {
    cfg: CasaConfig,
}

impl CasaConfigBuilder {
    fn from_config(cfg: CasaConfig) -> CasaConfigBuilder {
        CasaConfigBuilder { cfg }
    }

    /// Sets the partition length in bases.
    pub fn partition_len(mut self, part_len: usize) -> Self {
        self.cfg.partitioning.part_len = part_len;
        self
    }

    /// Sets the partition overlap directly, in bases.
    pub fn overlap(mut self, overlap: usize) -> Self {
        self.cfg.partitioning.overlap = overlap;
        self
    }

    /// Sets the partition overlap from a read length (`read_len - 1`, so
    /// no read-sized window straddles a partition cut).
    pub fn read_len(mut self, read_len: usize) -> Self {
        self.cfg.partitioning.overlap = read_len.saturating_sub(1);
        self
    }

    /// Sets the pre-seeding filter geometry (k, m, stride, groups).
    pub fn filter_geometry(mut self, k: usize, m: usize, stride: usize, groups: usize) -> Self {
        self.cfg.filter = FilterConfig {
            k,
            m,
            stride,
            groups,
        };
        self
    }

    /// Sets the minimum SMEM length reported as a seed.
    pub fn min_smem_len(mut self, min_smem_len: usize) -> Self {
        self.cfg.min_smem_len = min_smem_len;
        self
    }

    /// Sets the number of SMEM computing CAM lanes.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.cfg.lanes = lanes;
        self
    }

    /// Sets the FIFO depth between the pipeline stages.
    pub fn fifo_depth(mut self, fifo_depth: usize) -> Self {
        self.cfg.fifo_depth = fifo_depth;
        self
    }

    /// Sets the number of concurrent pre-seeding filter banks.
    pub fn filter_banks(mut self, filter_banks: usize) -> Self {
        self.cfg.filter_banks = filter_banks;
        self
    }

    /// Enables or disables the §4.3 exact-match read pre-processing.
    pub fn exact_match_preprocessing(mut self, enabled: bool) -> Self {
        self.cfg.exact_match_preprocessing = enabled;
        self
    }

    /// Enables or disables the pre-seeding filter table.
    pub fn use_filter_table(mut self, enabled: bool) -> Self {
        self.cfg.use_filter_table = enabled;
        self
    }

    /// Enables or disables Algorithm 1's pivot analyses.
    pub fn use_pivot_analysis(mut self, enabled: bool) -> Self {
        self.cfg.use_pivot_analysis = enabled;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`ConfigError`].
    pub fn build(self) -> Result<CasaConfig, ConfigError> {
        self.cfg.validated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_published_numbers() {
        let c = CasaConfig::paper(1 << 20, 101);
        assert_eq!(c.filter.k, 19);
        assert_eq!(c.filter.m, 10);
        assert_eq!(c.filter.stride, 40);
        assert_eq!(c.filter.groups, 20);
        assert_eq!(c.lanes, 10);
        assert_eq!(c.fifo_depth, 512);
        assert_eq!(c.min_smem_len, 19);
        assert_eq!(c.partitioning.overlap, 100);
        c.validated().expect("paper config is valid");
    }

    #[test]
    fn rejects_short_min_smem() {
        let mut c = CasaConfig::paper(1000, 101);
        c.min_smem_len = 10;
        assert_eq!(
            c.validated(),
            Err(ConfigError::MinSmemShorterThanK {
                min_smem_len: 10,
                k: 19
            })
        );
    }

    #[test]
    fn builder_overrides_and_validates() {
        let c = CasaConfig::builder()
            .partition_len(8_192)
            .read_len(151)
            .lanes(4)
            .fifo_depth(64)
            .filter_banks(16)
            .filter_geometry(21, 11, 40, 20)
            .min_smem_len(21)
            .exact_match_preprocessing(false)
            .use_filter_table(true)
            .use_pivot_analysis(false)
            .build()
            .expect("valid override set");
        assert_eq!(c.partitioning.part_len, 8_192);
        assert_eq!(c.partitioning.overlap, 150);
        assert_eq!(c.lanes, 4);
        assert_eq!(c.filter.k, 21);
        assert!(!c.exact_match_preprocessing);
        assert!(!c.use_pivot_analysis);
    }

    #[test]
    fn builder_rejects_bad_geometry() {
        // Partition smaller than the overlap: the historical CLI panic
        // path, now a typed error.
        let err = CasaConfig::builder()
            .partition_len(50)
            .read_len(101)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::OverlapTooLarge {
                overlap: 100,
                part_len: 50
            }
        );
        assert!(matches!(
            CasaConfig::builder().lanes(0).build(),
            Err(ConfigError::ZeroLanes)
        ));
        assert!(matches!(
            CasaConfig::builder()
                .filter_geometry(40, 10, 40, 20)
                .min_smem_len(40)
                .build(),
            Err(ConfigError::BadFilterGeometry { .. })
        ));
        assert!(matches!(
            CasaConfig::builder().partition_len(0).build(),
            Err(ConfigError::ZeroPartitionLen)
        ));
    }

    #[test]
    fn filter_tag_wider_than_32_bits_is_rejected() {
        // The filter stores the (k - m)-mer tag in 32 bits; a wider tag
        // would be truncated and alias absent k-mers onto present ones.
        for (k, m) in [(28, 6), (32, 10), (27, 10)] {
            let err = CasaConfig::builder()
                .filter_geometry(k, m, 40, 20)
                .min_smem_len(k)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::BadFilterGeometry { reason } if reason.contains("32 bits")),
                "k = {k}, m = {m}: {err:?}"
            );
        }
        // A 16-base tag is the widest that fits.
        let c = CasaConfig::builder()
            .filter_geometry(26, 10, 40, 20)
            .min_smem_len(26)
            .build()
            .expect("k - m = 16 fits");
        assert_eq!(c.filter.k - c.filter.m, 16);
    }
}
