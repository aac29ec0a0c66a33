//! Typed errors for `casa-core`'s public constructors and runtime.
//!
//! The crate's constructors historically panicked on invalid input; the
//! `Result`-returning API surfaces the same invariants as values so
//! callers (the CLI in particular) can report them without aborting.

use std::fmt;

/// A configuration that violates one of CASA's structural invariants.
///
/// Produced by [`crate::CasaConfig::validated`] and by
/// [`crate::CasaConfigBuilder::build`]. Each variant carries the offending
/// values so error messages can be produced without re-inspecting the
/// config.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `min_smem_len` is shorter than the filter k-mer. The pivot-filtering
    /// argument (paper §4.1) requires the filter k-mer to be no longer than
    /// any reported SMEM.
    MinSmemShorterThanK {
        /// The configured minimum SMEM length.
        min_smem_len: usize,
        /// The configured filter k-mer size.
        k: usize,
    },
    /// `lanes == 0`: the computing stage needs at least one SMEM CAM.
    ZeroLanes,
    /// `filter_banks == 0`: the pre-seeding stage needs at least one bank.
    ZeroFilterBanks,
    /// `partitioning.part_len == 0`: partitions must hold at least one base.
    ZeroPartitionLen,
    /// `partitioning.overlap >= partitioning.part_len`: the split would
    /// never advance.
    OverlapTooLarge {
        /// The configured partition overlap.
        overlap: usize,
        /// The configured partition length.
        part_len: usize,
    },
    /// The filter geometry breaks a hardware bound (`1 <= m < k`,
    /// `k <= 32`, `stride <= 64`, `1 <= groups <= 32`).
    BadFilterGeometry {
        /// Which bound was violated, in human-readable form.
        reason: &'static str,
    },
    /// A fault plan carries an out-of-range value (a rate or fraction
    /// outside `[0, 1]`, or a non-finite/negative stall duration), or the
    /// `CASA_FAULT_SEED` environment variable is not a `u64` seed.
    BadFaultPlan {
        /// The offending field or environment variable.
        reason: &'static str,
    },
    /// A streaming-runtime configuration violates a structural bound
    /// (zero batch size, zero ring capacity, zero checkpoint interval).
    BadStreamConfig {
        /// Which bound was violated, in human-readable form.
        reason: &'static str,
    },
    /// A CAM kernel backend request (the `CASA_KERNEL` environment
    /// variable or the CLI `--kernel` flag) names an unknown backend or
    /// one this host cannot execute.
    UnknownKernelBackend {
        /// The requested backend string, verbatim.
        value: String,
        /// Why it was rejected, in human-readable form.
        reason: &'static str,
    },
    /// A seeding backend request (the `CASA_BACKEND` environment variable
    /// or the CLI `--backend` flag) names an unknown backend.
    UnknownSeedingBackend {
        /// The requested backend string, verbatim.
        value: String,
        /// Why it was rejected, in human-readable form.
        reason: &'static str,
    },
    /// The reference holds more k-mer occurrences than the pre-seeding
    /// filter's `u32` mini-index offsets address.
    FilterTooLarge {
        /// The row (k-mer occurrence) count the filter would need.
        rows: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::MinSmemShorterThanK { min_smem_len, k } => {
                write!(f, "min_smem_len ({min_smem_len}) must be >= filter k ({k})")
            }
            ConfigError::ZeroLanes => write!(f, "need at least one computing CAM lane"),
            ConfigError::ZeroFilterBanks => write!(f, "need at least one filter bank"),
            ConfigError::ZeroPartitionLen => write!(f, "partition length must be positive"),
            ConfigError::OverlapTooLarge { overlap, part_len } => write!(
                f,
                "partition overlap ({overlap}) must be smaller than partition length ({part_len})"
            ),
            ConfigError::BadFilterGeometry { reason } => {
                write!(f, "invalid filter geometry: {reason}")
            }
            ConfigError::BadFaultPlan { reason } => {
                write!(
                    f,
                    "invalid fault plan: {reason} is malformed or out of range"
                )
            }
            ConfigError::BadStreamConfig { reason } => {
                write!(f, "invalid stream config: {reason}")
            }
            ConfigError::UnknownKernelBackend { ref value, reason } => {
                write!(
                    f,
                    "unknown CAM kernel backend {value:?}: {reason} \
                     (expected one of: scalar, u64x4, avx2)"
                )
            }
            ConfigError::UnknownSeedingBackend { ref value, reason } => {
                write!(
                    f,
                    "unknown seeding backend {value:?}: {reason} \
                     (expected one of: cam, fm, ert)"
                )
            }
            ConfigError::FilterTooLarge { rows } => {
                write!(f, "{}", casa_filter::FilterTooLarge { rows })
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<casa_cam::UnknownKernelError> for ConfigError {
    fn from(e: casa_cam::UnknownKernelError) -> ConfigError {
        ConfigError::UnknownKernelBackend {
            value: e.value,
            reason: e.reason,
        }
    }
}

impl From<casa_filter::FilterTooLarge> for ConfigError {
    fn from(e: casa_filter::FilterTooLarge) -> ConfigError {
        ConfigError::FilterTooLarge { rows: e.rows }
    }
}

impl From<crate::backend::UnknownBackendError> for ConfigError {
    fn from(e: crate::backend::UnknownBackendError) -> ConfigError {
        ConfigError::UnknownSeedingBackend {
            value: e.value,
            reason: e.reason,
        }
    }
}

/// Any error a `casa-core` entry point can report.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The reference sequence is empty, so no partitions can be built.
    EmptyReference,
    /// A seeding session was asked for zero worker threads.
    ZeroWorkers,
    /// The scheduler reached a state it cannot recover from (e.g. a
    /// completed batch with a job slot still empty). Reported instead of
    /// aborting the process.
    Runtime {
        /// What went wrong, in human-readable form.
        what: &'static str,
    },
    /// The run's [`crate::CancelToken`] fired before the batch finished.
    /// Unlike [`Error::Runtime`], the partial work is simply discarded —
    /// callers must not fall back to the golden model, because the caller
    /// asked for the work to stop.
    Cancelled,
    /// An index image could not be built, loaded, or reconciled with the
    /// session's configuration (see [`crate::image`]).
    Image {
        /// What went wrong, in human-readable form.
        what: String,
    },
    /// A read is longer than the session can seed exactly: once the
    /// reference is cut into partitions, only reads of at most `partition
    /// overlap + 1` bases are guaranteed to lie whole inside one (see
    /// [`crate::SeedingSession::max_read_len`]). A longer read could
    /// straddle a partition boundary and come back with its SMEMs split.
    ReadTooLong {
        /// Index of the first offending read in the batch.
        read: usize,
        /// Its length in bases.
        len: usize,
        /// The longest read the session accepts, in bases.
        max: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => write!(f, "invalid configuration: {e}"),
            Error::EmptyReference => write!(f, "reference sequence is empty"),
            Error::ZeroWorkers => write!(f, "seeding session needs at least one worker"),
            Error::Runtime { what } => write!(f, "unrecoverable scheduler state: {what}"),
            Error::Cancelled => write!(f, "seeding run cancelled"),
            Error::Image { what } => write!(f, "index image error: {what}"),
            Error::ReadTooLong { read, len, max } => write!(
                f,
                "read {read} has {len} bases, over this index's {max}-base read limit \
                 (partition overlap + 1)"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Error {
        Error::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_values() {
        let e = ConfigError::MinSmemShorterThanK {
            min_smem_len: 10,
            k: 19,
        };
        assert_eq!(e.to_string(), "min_smem_len (10) must be >= filter k (19)");
        let e = ConfigError::OverlapTooLarge {
            overlap: 8,
            part_len: 8,
        };
        assert!(e.to_string().contains("must be smaller"));
    }

    #[test]
    fn runtime_and_fault_plan_variants_display() {
        let e = Error::Runtime {
            what: "job slot empty",
        };
        assert!(e.to_string().contains("job slot empty"));
        let e = ConfigError::BadFaultPlan {
            reason: "tile_panic_rate",
        };
        assert!(e.to_string().contains("tile_panic_rate"));
        let e = ConfigError::BadStreamConfig {
            reason: "batch_reads must be positive",
        };
        assert!(e.to_string().contains("batch_reads"));
        let e = Error::ReadTooLong {
            read: 3,
            len: 150,
            max: 50,
        };
        assert!(e.to_string().contains("read 3 has 150 bases"), "{e}");
        assert!(e.to_string().contains("50-base read limit"), "{e}");
    }

    #[test]
    fn error_wraps_config_error_as_source() {
        use std::error::Error as _;
        let e = Error::from(ConfigError::ZeroLanes);
        assert!(matches!(e, Error::Config(ConfigError::ZeroLanes)));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("computing CAM lane"));
        assert!(Error::EmptyReference.source().is_none());
    }
}
