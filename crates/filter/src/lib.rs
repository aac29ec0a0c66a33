//! Pre-seeding filter for the CASA reproduction (paper §4.1, Fig. 8).
//!
//! The filter answers, for any k-mer on a read, "does it occur in the
//! current reference partition, and if so at which in-entry offsets and in
//! which computing-CAM groups?" — in three pipelined stages (mini index
//! SRAM → range-gated tag CAM → data SRAM). Pivots whose k-mer misses are
//! discarded before any SMEM computation, which is the paper's headline
//! 98.9 % pivot reduction ("table" bar of Fig. 15); the indicators feed the
//! alignment analysis that pushes it to 99.9 % ("table+analysis").
//!
//! One [`PreSeedingFilter`] holds the tables of every partition of a
//! reference, interleaved by partition, so one pass looks a read's k-mers
//! up in all partitions at once while each partition keeps the
//! indicators, activity counters and fault sites of its own filter.
//!
//! # Example
//!
//! ```
//! use casa_genome::PackedSeq;
//! use casa_filter::{FilterConfig, FilterStats, PreSeedingFilter};
//!
//! let partition = PackedSeq::from_ascii(&b"GATTACA".repeat(10))?;
//! let filter = PreSeedingFilter::build(&partition, FilterConfig::small(7, 3));
//! let read = PackedSeq::from_ascii(b"TTACAGATTACA")?;
//! // k-mer at pivot 0 ("TTACAGA") exists; its indicator drives the CAM.
//! let si = filter.lookup(0, &read, 0, &mut FilterStats::default()).unwrap();
//! assert!(si.start_count() >= 1 && si.group_count() >= 1);
//! # Ok::<(), casa_genome::ParseBaseError>(())
//! ```

// `deny` instead of `forbid`: the cache prefetch and the huge-page advice
// in `filter` carry a scoped `#[allow(unsafe_code)]`; everything else in
// the crate stays safe.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod bloom;
mod filter;
mod indicator;
mod layout;

pub use bloom::BloomFilter;
pub use filter::{
    FilterConfig, FilterFaultModel, FilterFaultReport, FilterHit, FilterStats, FilterTooLarge,
    PreSeedingFilter, SparsePass,
};
pub use indicator::SearchIndicator;
pub use layout::TagLayout;
