//! `casa-serve`: the resident multi-tenant SMEM seeding daemon.
//!
//! Builds one warm [`casa::Seeder`] (reference index, filter tables, CAM
//! bitplanes, partition engines) and serves it over HTTP/1.1 — see
//! [`casa::serve`] for the protocol and robustness model. SIGTERM or
//! SIGINT triggers a graceful drain: the listener stops accepting,
//! queued and in-flight requests finish (or are cancelled at the drain
//! deadline), detached watchdog guard threads are waited out, and the
//! process exits 0.

#![warn(clippy::undocumented_unsafe_blocks)]

use std::process::ExitCode;
use std::time::Duration;

use casa::serve::{ServeOptions, Server};
use casa_core::log_info;

/// SIGTERM/SIGINT → drain wiring, built directly on the C `signal`
/// runtime hook so the binary needs no extra dependencies. The handler
/// only flips an atomic; the main thread observes it and begins the
/// drain cooperatively.
#[cfg(unix)]
mod shutdown_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the signal handler, observed by the main thread.
    static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Async-signal-safe handler: record the request and restore the
    /// default disposition so a second signal terminates immediately.
    extern "C" fn on_signal(signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
        // SAFETY: `signal` is async-signal-safe and SIG_DFL is a valid disposition.
        unsafe { signal(signum, SIG_DFL) };
    }

    /// Installs the handlers.
    pub fn install() {
        // SAFETY: `on_signal` is an `extern "C" fn(i32)` that only touches an
        // atomic and calls `signal`, both async-signal-safe.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", ServeOptions::usage());
        return ExitCode::SUCCESS;
    }
    let options = match ServeOptions::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("casa-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let (seeder, provenance) = match options.build_server_source() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("casa-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Handlers go in before the listener opens: a SIGTERM sent the moment
    // the server is reachable must drain it, not kill it.
    #[cfg(unix)]
    shutdown_signal::install();
    let server = match Server::start_with_index(seeder, options.serve.clone(), provenance) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("casa-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Announce the bound address on stdout so wrappers using `--addr
    // 127.0.0.1:0` can discover the port.
    println!("listening {}", server.local_addr());
    let handle = server.handle();
    loop {
        #[cfg(unix)]
        if shutdown_signal::requested() {
            handle.begin_drain();
        }
        if handle.draining() {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let report = server.shutdown();
    log_info!(
        "drained (in_time={} cancelled={} guards_drained={})",
        report.drained_in_time,
        report.cancelled_in_flight,
        report.guards_drained
    );
    if report.guards_drained {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
