//! Index substrate for the CASA reproduction.
//!
//! Every data structure the paper's seeding landscape is built on
//! (§2.2, Table 1), implemented from scratch:
//!
//! * [`sais`] / [`SuffixArray`] — linear-time suffix-array construction
//!   with interval and longest-match queries (the golden lookup machinery);
//! * [`lcp`] — Kasai LCP arrays (repeat statistics, distinct-k-mer
//!   counting);
//! * [`FmIndex`] — BWT + C + checkpointed Occ backward search, with
//!   operation counters for the BWA-MEM2 software baseline;
//! * [`BiFmIndex`] — bidirectional FM-index for BWA-MEM2-style two-sided
//!   SMEM extension;
//! * [`smem`] — the SMEM definition and three cross-checked golden
//!   algorithms (uni-directional, bidirectional, brute force);
//! * [`SeedPositionTable`] — GenAx's seed & position tables;
//! * [`ErtIndex`] — enumerated radix trees with DRAM-fetch accounting;
//! * [`image`] — page-aligned multi-section index images with a
//!   zero-copy mmap loader (reference text, CAM bitplanes, filter
//!   tables, suffix arrays in one relocatable artifact).
//!
//! # Example
//!
//! ```
//! use casa_genome::PackedSeq;
//! use casa_index::{SuffixArray, smem::{smems_unidirectional, MIN_SMEM_LEN}};
//!
//! let reference = PackedSeq::from_ascii(&b"GATTACA".repeat(6))?;
//! let sa = SuffixArray::build(&reference);
//! let read = reference.subseq(3, 25);
//! let smems = smems_unidirectional(&sa, &read, MIN_SMEM_LEN);
//! assert_eq!(smems.len(), 1);
//! assert_eq!(smems[0].len(), 25);
//! # Ok::<(), casa_genome::ParseBaseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bifm;
pub mod ert;
pub mod fm;
pub mod image;
pub mod lcp;
pub mod sais;
pub mod seedpos;
pub mod smem;
pub mod suffix_array;

pub use bifm::{BiFmIndex, BiInterval};
pub use ert::{ErtIndex, ErtWalk};
pub use fm::{FmIndex, FmOpCounts};
pub use seedpos::SeedPositionTable;
pub use smem::{Smem, MIN_SMEM_LEN};
pub use suffix_array::SuffixArray;
