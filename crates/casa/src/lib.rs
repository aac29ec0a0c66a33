//! CASA — a from-scratch Rust reproduction of *"CASA: An Energy-Efficient
//! and High-Speed CAM-based SMEM Seeding Accelerator for Genome
//! Alignment"* (MICRO 2023).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`genome`] — 2-bit DNA sequences, FASTA/FASTQ, synthetic references,
//!   read simulation;
//! * [`index`] — suffix arrays, FM-index, golden SMEM algorithms, seed &
//!   position tables, enumerated radix trees;
//! * [`cam`] — the binary-CAM hardware model;
//! * [`filter`] — the pre-seeding filter (mini index + tag CAM + data
//!   array);
//! * [`core`] — the CASA accelerator itself (Algorithm 1, pipeline,
//!   cycle/energy simulation);
//! * [`baselines`] — BWA-MEM2, ASIC-ERT and GenAx cost models;
//! * [`energy`] — 28 nm circuit models, DRAM power, reporting;
//! * [`align`] — banded Smith-Waterman, Myers edit distance, SeedEx and
//!   the end-to-end pipeline model.
//!
//! # Quickstart
//!
//! [`Seeder`] (the [`seeder`] module) is the embedding API — one stable
//! surface over the CAM, FM-index, and ERT backends:
//!
//! ```
//! use casa::core::CasaConfig;
//! use casa::genome::synth::{generate_reference, ReferenceProfile};
//! use casa::Seeder;
//!
//! let reference = generate_reference(&ReferenceProfile::human_like(), 10_000, 1);
//! let seeder = Seeder::builder(&reference)
//!     .config(CasaConfig::small(4_000))
//!     .build()?;
//! let read = reference.subseq(1_234, 60);
//! let run = seeder.seed_reads(std::slice::from_ref(&read));
//! assert!(run.smems[0][0].hits.contains(&1_234));
//! # Ok::<(), casa::core::Error>(())
//! ```
//!
//! See the `examples/` directory at the workspace root for runnable
//! programs (`quickstart`, `resequencing_pipeline`,
//! `accelerator_design_space`, `seeding_bakeoff`,
//! `metagenomics_classification`, `variant_calling`), and the
//! [`cli`] module / `casa-seed` (whose `index build` writes the one
//! on-disk index, a mapped image) and `casa-serve` binaries for
//! command-line use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod seeder;
pub mod serve;

pub use seeder::{Seeder, SeederBuilder};
pub use serve::{ServeConfig, ServeOptions, Server, ServerHandle, ShutdownReport};

pub use casa_align as align;
pub use casa_baselines as baselines;
pub use casa_cam as cam;
pub use casa_core as core;
pub use casa_energy as energy;
pub use casa_filter as filter;
pub use casa_genome as genome;
pub use casa_index as index;
