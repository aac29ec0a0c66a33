//! `casa-seed`: align FASTQ reads to a FASTA reference using the CASA
//! seeding accelerator model. See `casa::cli::USAGE`.
//!
//! Diagnostics (summary and recovery lines) go through the `CASA_LOG`
//! leveled logger and are silent by default; errors always print to
//! stderr. In `--stream` mode the first Ctrl-C requests a graceful stop —
//! the run drains, writes a final checkpoint, and exits with code 130 so
//! `--resume` can pick up where it left off; a second Ctrl-C kills the
//! process immediately.

#![warn(clippy::undocumented_unsafe_blocks)]

use std::process::ExitCode;

use casa_core::{log_info, log_warn, CancelToken};

/// SIGINT → `CancelToken` wiring, built directly on the C `signal`
/// runtime hook so the binary needs no extra dependencies. The handler
/// only flips an atomic; a watcher thread observes it and cancels the
/// token cooperatively.
#[cfg(unix)]
mod sigint {
    use casa_core::CancelToken;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Set by the signal handler, observed by the watcher thread.
    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Async-signal-safe SIGINT handler: record the interrupt and restore
    /// the default disposition so a second Ctrl-C terminates immediately.
    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
        // SAFETY: `signal` is async-signal-safe and SIG_DFL is a valid disposition.
        unsafe { signal(SIGINT, SIG_DFL) };
    }

    /// Installs the handler and spawns the watcher that cancels `token`.
    pub fn install(token: CancelToken) {
        // SAFETY: `on_sigint` is an `extern "C" fn(i32)` that only touches an
        // atomic and calls `signal`, both async-signal-safe.
        unsafe { signal(SIGINT, on_sigint as *const () as usize) };
        std::thread::spawn(move || loop {
            if INTERRUPTED.load(Ordering::SeqCst) {
                token.cancel();
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("index") {
        let cmd = match casa::cli::parse_index_args(args.split_off(1)) {
            Ok(cmd) => cmd,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        return match casa::cli::run_index(&cmd, std::io::stdout().lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("casa-seed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match casa::cli::parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let cancel = CancelToken::new();
    #[cfg(unix)]
    sigint::install(cancel.clone());
    match casa::cli::run_with_cancel(&options, &cancel) {
        Ok(summary) => {
            log_info!(
                "{} reads, {} aligned, {} SMEMs ({} kernel)",
                summary.reads,
                summary.aligned,
                summary.smems,
                summary.kernel
            );
            // Build-vs-load is its own line: the whole point of
            // --index-image is collapsing this number.
            log_info!(
                "index {} in {:.1} ms",
                summary.index_source,
                summary.index_ready_micros as f64 / 1e3
            );
            if options.stream {
                log_info!(
                    "streamed {} batches ({} skipped by --resume)",
                    summary.stream_batches,
                    summary.stream_batches_skipped
                );
            }
            if summary.tile_retries > 0 || summary.fallback_reads > 0 || summary.deadline_stalls > 0
            {
                log_warn!(
                    "recovered {} tile retries, {} deadline stalls, {} quarantined partitions, \
                     {} golden-fallback read passes, {} cross-check mismatches",
                    summary.tile_retries,
                    summary.deadline_stalls,
                    summary.partitions_quarantined,
                    summary.fallback_reads,
                    summary.crosscheck_mismatches
                );
            }
            if summary.cancelled {
                log_warn!("cancelled; rerun with --resume to finish the remaining batches");
                // Conventional "terminated by SIGINT" status.
                return ExitCode::from(130);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("casa-seed: {e}");
            ExitCode::FAILURE
        }
    }
}
