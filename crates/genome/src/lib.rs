//! Genome substrate for the CASA reproduction.
//!
//! This crate provides everything the seeding stack needs to manipulate DNA
//! sequences without any external bioinformatics dependency:
//!
//! * [`Base`] — the 2-bit nucleotide alphabet (`A`, `C`, `G`, `T`);
//! * [`PackedSeq`] — a 2-bit-packed DNA sequence with k-mer extraction,
//!   reverse complement and slicing, mirroring how hardware accelerators
//!   store references (the CASA paper stores 4 bases per byte in CAM/SRAM);
//! * [`fasta`] / [`fastq`] — minimal, strict readers and writers, with
//!   constant-memory streaming variants ([`fasta::FastaStream`],
//!   [`fastq::FastqStream`]) feeding the bounded-memory streaming runtime
//!   in `casa_core::stream`;
//! * [`synth`] — synthetic reference generation with human-like and
//!   mouse-like repeat/GC profiles (our substitute for GRCh38/GRCm39, see
//!   `DESIGN.md` §1);
//! * [`reads`] — a DWGSIM-style short-read simulator (our substitute for the
//!   ERR194147 Illumina dataset);
//! * [`partition`] — splitting a reference into the fixed-size parts that
//!   CASA streams through its on-chip memories;
//! * [`mix`] — deterministic site hashing shared by the seeded
//!   fault-injection layer (`casa_core::faults`).
//!
//! # Example
//!
//! ```
//! use casa_genome::synth::{ReferenceProfile, generate_reference};
//! use casa_genome::reads::{ReadSimulator, ReadSimConfig};
//!
//! let reference = generate_reference(&ReferenceProfile::human_like(), 10_000, 7);
//! let sim = ReadSimulator::new(ReadSimConfig::default(), 42);
//! let reads = sim.simulate(&reference, 100);
//! assert_eq!(reads.len(), 100);
//! assert!(reads.iter().all(|r| r.seq.len() == 101));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
mod lines;
#[cfg(test)]
mod oracle;
mod packed;

pub mod fasta;
pub mod fastq;
pub mod mix;
pub mod partition;
pub mod reads;
pub mod sam;
pub mod shared;
pub mod synth;

pub use base::{Base, ParseBaseError};
pub use packed::{KmerIter, PackedSeq};
pub use partition::{Partition, PartitionScheme};
pub use reads::{ReadPair, ReadSimConfig, ReadSimulator, ShortRead};
pub use shared::{SharedSlice, SliceStore, SliceView};
