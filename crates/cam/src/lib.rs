//! Binary CAM (BCAM) hardware model for the CASA reproduction.
//!
//! Models the paper's §2.3 / Fig. 4 NOR-type BCAM at the level the
//! cycle/energy simulator needs:
//!
//! * [`Bcam`] — entries of packed DNA bases held as per-(column, base)
//!   bit planes, parallel match against a wildcard-padded [`CamQuery`],
//!   per-search activity counters booked into the caller's [`CamStats`];
//! * [`EntryMask`] — entry-level power gating (only enabled rows search);
//! * [`GroupScheme`] — CASA's group-level gating (§3 "CAM Grouping"),
//!   loaded straight from an indicator's group bits by
//!   [`Bcam::load_groups`].
//!
//! # Example
//!
//! ```
//! use casa_genome::PackedSeq;
//! use casa_cam::{Bcam, CamQuery, CamScratch, CamStats, GroupScheme, LoadedMask};
//!
//! let reference = PackedSeq::from_ascii(b"ACGTACGTTTTTGGGGCCCC")?;
//! let cam = Bcam::new(&reference, 4);
//! let scheme = GroupScheme::new(2);
//! // k-mer TTTT lives at position 8 -> entry 2 -> group 2 mod 2 = 0.
//! let mut loaded = LoadedMask::default();
//! cam.load_groups(&scheme, 1 << 0, &mut loaded);
//! let q = CamQuery::padded(&reference, 8, 4, 0);
//! let (mut stats, mut hits) = (CamStats::default(), Vec::new());
//! cam.search_loaded_into(&q, &loaded, &mut CamScratch::default(), &mut stats, &mut hits);
//! assert_eq!(hits, vec![2]);
//! // Only 3 of the 5 entries were powered.
//! assert_eq!(stats.rows_enabled, 3);
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
    Bcam, CamFaultModel, CamFaultReport, CamQuery, CamScratch, CamStats, GroupCost, GroupScheme,
    LoadedMask, Symbol, ROWS_PER_ARRAY,
};
pub use kernel::{KernelBackend, UnknownKernelError, KERNEL_ENV};
pub use mask::EntryMask;
