//! Criterion benchmark harness for the CASA reproduction.
//!
//! One bench target per paper table/figure (see `benches/`):
//!
//! | bench | regenerates |
//! |---|---|
//! | `fig05_kmer_filter` | Fig. 5 hit-pivot scan & filter build |
//! | `fig12_throughput` | Fig. 12 seeding kernels, all five systems |
//! | `fig13_energy` | Fig. 13 power-report derivation |
//! | `fig14_end_to_end` | Fig. 14 SeedEx extension stage |
//! | `fig15_pivot_filter` | Fig. 15 filtering ablations |
//! | `fig16_inexact` | Fig. 16 inexact-only seeding |
//! | `table4_breakdown` | Table 4 area/power derivation |
//! | `kernels` | substrate micro-benchmarks (SA-IS, FM, CAM, SW, Myers) |
//! | `ingest` | FASTA (MB/s) and FASTQ (ns/read) parsing at `casa-seed` scale |
//!
//! Run with `cargo bench -p casa-bench` (or a single target via
//! `--bench fig12_throughput`). The experiment *numbers* come from the
//! `casa-experiments` binaries; these benches track the wall-clock cost of
//! the simulation kernels themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
