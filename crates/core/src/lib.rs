//! CASA: a CAM-based SMEM seeding accelerator — cycle- and energy-modelled
//! reproduction of the MICRO 2023 paper's primary contribution.
//!
//! The accelerator seeds reads against a reference genome in two coupled
//! stages (paper Fig. 11):
//!
//! 1. a **pre-seeding filter** ([`casa_filter`]) discards pivots whose
//!    19-mer does not occur in the current reference partition and hands
//!    the survivors' *search indicators* to the computing stage;
//! 2. **SMEM computing CAMs** ([`casa_cam`]) hold the partition as
//!    non-overlapped 40-base entries and extend each surviving pivot
//!    stride-by-stride (wildcard-padded first search, successor-gated
//!    full strides, binary search for the exact match end).
//!
//! Algorithm 1 of the paper ([`PartitionEngine::seed_read`]) adds two pivot
//! analyses — the CRkM non-extendability check and the shifted-AND
//! alignment check — that together discard 99.9 % of pivots, plus the §4.3
//! exact-match pre-processing that settles ~80 % of reads without any
//! per-pivot work. The output SMEM set is bit-identical to the golden
//! BWA-MEM2 / GenAx algorithms of [`casa_index`]; tests enforce this.
//!
//! # Example
//!
//! [`SeedingSession`] is the one batch-seeding runtime; the `casa` facade
//! crate wraps it as `casa::Seeder`, the documented embedding API.
//!
//! ```
//! use casa_core::{CasaConfig, SeedingSession};
//! use casa_energy::DramSystem;
//! use casa_genome::synth::{generate_reference, ReferenceProfile};
//!
//! let reference = generate_reference(&ReferenceProfile::human_like(), 4_000, 7);
//! let session = SeedingSession::new(&reference, CasaConfig::small(2_000), 2)?;
//! let read = reference.subseq(100, 50);
//! let run = session.seed_reads(std::slice::from_ref(&read));
//! assert_eq!(run.smems[0][0].len(), 50);
//! println!("{:.3} Mreads/s", run.throughput_reads_per_s(session.partition_count(), &DramSystem::casa()) / 1e6);
//! # Ok::<(), casa_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod config;
pub mod energy_model;
mod engine;
mod error;
pub mod faults;
pub mod image;
pub mod logging;
pub mod pipeline_sim;
pub mod profile;
pub mod rmem;
pub mod serve;
mod session;
pub mod stats;
pub mod stream;

pub use backend::{
    BackendKind, ErtBackend, FmBackend, SeedingBackend, TileKmerCodes, UnknownBackendError,
    BACKEND_ENV,
};
pub use casa_cam::{KernelBackend, UnknownKernelError, KERNEL_ENV};
pub use config::{CasaConfig, CasaConfigBuilder};
pub use energy_model::CasaHardwareModel;
pub use engine::{CamIndex, Lane, PartitionEngine};
pub use error::{ConfigError, Error};
pub use faults::{FaultPlan, FaultSites, InjectedFault};
pub use image::{build_index_image, ImageBuildReport, IndexImageError, LoadedIndex};
pub use pipeline_sim::{simulate as simulate_pipeline, PipelineSimResult, ReadWork};
pub use profile::{Stage, StageProfile, StageTimer};
pub use rmem::{CamSearcher, RmemResult, SearchScratch};
pub use serve::{Admitted, FairQueue, LatencyHistogram, OverloadReason, ServeLimits, ServeMetrics};
pub use session::{env_defaults, CasaRun, SeedingSession, StrandedRun};
pub use stats::SeedingStats;
pub use stream::{
    live_guard_threads, wait_for_guard_threads, CancelToken, CheckpointError, RecoveryCounters,
    StreamBatch, StreamCheckpoint, StreamConfig, StreamError, StreamItem, StreamReport,
    StreamingSession,
};
