//! Binary CAM (BCAM) hardware model for the CASA reproduction.
//!
//! Models the paper's §2.3 / Fig. 4 NOR-type BCAM at the level the
//! cycle/energy simulator needs:
//!
//! * [`Bcam`] — entries of packed DNA bases, parallel match against a
//!   wildcard-padded [`CamQuery`], per-search activity counters;
//! * [`EntryMask`] — entry-level power gating (only enabled rows search);
//! * [`GroupScheme`] — CASA's group-level gating (§3 "CAM Grouping").
//!
//! # Example
//!
//! ```
//! use casa_genome::PackedSeq;
//! use casa_cam::{Bcam, CamQuery, EntryMask, GroupScheme};
//!
//! let reference = PackedSeq::from_ascii(b"ACGTACGTTTTTGGGGCCCC")?;
//! let mut cam = Bcam::new(&reference, 4);
//! let scheme = GroupScheme::new(2, 4);
//! // k-mer TTTT lives at position 8 -> entry 2 -> group 0.
//! let indicator = scheme.indicator_of_position(8);
//! let enabled = scheme.mask_for_indicator(indicator, cam.entries());
//! let q = CamQuery::padded(&reference, 8, 4, 0);
//! assert_eq!(cam.search(&q, &enabled), vec![2]);
//! // Only 3 of the 5 entries were powered.
//! assert_eq!(cam.stats().rows_enabled, 3);
//! # Ok::<(), casa_genome::ParseBaseError>(())
//! ```

// `deny` instead of `forbid`: the AVX2 bodies in `kernel` carry a scoped
// `#[allow(unsafe_code)]`; everything else in the crate stays safe.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod bcam;
pub mod kernel;
mod mask;

pub use bcam::{
    Bcam, CamFaultModel, CamFaultReport, CamQuery, CamStats, GroupScheme, Symbol, MAX_BATCH,
    ROWS_PER_ARRAY,
};
pub use kernel::{KernelBackend, UnknownKernelError, KERNEL_ENV};
pub use mask::EntryMask;
