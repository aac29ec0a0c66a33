//! Experiment runners regenerating every table and figure of the CASA
//! paper's evaluation (§6–§7). See `DESIGN.md` §4 for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured records.
//!
//! Each module exposes `run(scale)` returning plain data plus a
//! `table(...)` renderer; the `src/bin/*` binaries wrap them with a
//! single optional CLI argument (`small` / `medium` / `large`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod backend_compare;
pub mod claims;
pub mod fault_sweep;
pub mod fig05;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod genomestats;
pub mod longread;
pub mod pipeline_report;
pub mod report;
pub mod scenario;
pub mod seedex_balance;
pub mod stream_resilience;
pub mod summary;
pub mod systems;
pub mod tables;

use scenario::Scale;

/// Parses the experiment binaries' single optional argument into a scale
/// (defaults to `medium`; anything unrecognized falls back with a note on
/// stderr).
pub fn scale_from_args() -> Scale {
    match std::env::args().nth(1).as_deref() {
        None => Scale::Medium,
        Some(arg) => Scale::parse(arg).unwrap_or_else(|| {
            eprintln!("unknown scale {arg:?}; using medium (try small|medium|large)");
            Scale::Medium
        }),
    }
}
