//! Integration tests for the `casa-serve` runtime: admission control and
//! typed load shedding, bit-identity of served results against a direct
//! single-threaded session, graceful degradation under partition
//! quarantine, request deadlines, client-disconnect cancellation, drain
//! semantics (no surviving watchdog guard threads, a prompt wake of the
//! blocked acceptor), and round trips that no accept poll paces.
//!
//! Each test starts a real [`Server`] on an ephemeral port, or spawns the
//! `casa-serve` binary (burst then SIGTERM drain), and talks plain
//! HTTP/1.1 over [`TcpStream`] — the same wire surface a client sees.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use casa::core::FaultPlan;
use casa::genome::synth::{generate_reference, ReferenceProfile};
use casa::genome::{PackedSeq, ReadSimConfig, ReadSimulator};
use casa::serve::{ServeConfig, Server};
use casa::Seeder;
use casa_core::serve::ServeLimits;
use casa_index::Smem;

const REF_LEN: usize = 30_000;
const PART_LEN: usize = 8_000;
const READ_LEN: usize = 101;

fn workload(read_count: usize) -> (PackedSeq, Vec<PackedSeq>) {
    let reference = generate_reference(&ReferenceProfile::human_like(), REF_LEN, 77);
    let reads = ReadSimulator::new(ReadSimConfig::default(), 23)
        .simulate(&reference, read_count)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    (reference, reads)
}

fn body_for(reads: &[PackedSeq]) -> String {
    let mut body = String::new();
    for read in reads {
        body.push_str(&read.to_string());
        body.push('\n');
    }
    body
}

/// The expected `POST /seed` response body: the server's TSV contract
/// rendered from a direct, single-threaded session over the same reads.
fn expected_tsv(reference: &PackedSeq, reads: &[PackedSeq]) -> String {
    let seeder = Seeder::builder(reference)
        .partition_len(PART_LEN)
        .read_len(READ_LEN)
        .workers(1)
        .build()
        .expect("valid seeder");
    let run = seeder.seed_reads(reads);
    let mut out = String::new();
    for (ri, smems) in run.smems.iter().enumerate() {
        for Smem {
            read_start,
            read_end,
            hits,
        } in smems
        {
            let joined = hits
                .iter()
                .map(|h| h.to_string())
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!("{ri}\t{read_start}\t{read_end}\t{joined}\n"));
        }
    }
    out
}

struct Response {
    status: u16,
    headers: HashMap<String, String>,
    body: Vec<u8>,
}

/// One HTTP/1.1 request over a fresh connection; reads to EOF (the
/// server closes every connection after its response).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: casa\r\n");
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> std::io::Result<Response> {
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Ok(Response {
        status,
        headers,
        body: raw[header_end + 4..].to_vec(),
    })
}

fn start_server(reference: &PackedSeq, config: ServeConfig, faults: Option<FaultPlan>) -> Server {
    let mut builder = Seeder::builder(reference)
        .partition_len(PART_LEN)
        .read_len(READ_LEN)
        .workers(2);
    if let Some(plan) = faults {
        builder = builder.fault_plan(plan);
    }
    Server::start(builder.build().expect("valid seeder"), config).expect("server starts")
}

fn fetch_metrics(addr: SocketAddr) -> String {
    let resp = request(addr, "GET", "/metrics", &[], b"").expect("metrics reachable");
    assert_eq!(resp.status, 200);
    String::from_utf8(resp.body).expect("metrics are utf-8")
}

fn metric_value(metrics: &str, line_prefix: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(line_prefix) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {line_prefix:?} missing:\n{metrics}"))
}

#[test]
fn served_results_are_bit_identical_to_a_direct_session() {
    let (reference, reads) = workload(24);
    let expected = expected_tsv(&reference, &reads);
    assert!(!expected.is_empty(), "workload must produce SMEMs");
    let server = start_server(&reference, ServeConfig::default(), None);
    let addr = server.local_addr();
    let body = body_for(&reads);

    // Health first.
    let health = request(addr, "GET", "/health", &[], b"").unwrap();
    assert_eq!(health.status, 200);
    let health_text = String::from_utf8(health.body).unwrap();
    assert!(health_text.contains("\"status\":\"ok\""), "{health_text}");
    assert!(
        health_text.contains("\"generation\":\"gen-1\""),
        "{health_text}"
    );
    assert!(
        health_text.contains("\"provenance\":\"built\""),
        "{health_text}"
    );

    // Many concurrent clients, three tenants, identical payloads: every
    // response must be byte-identical to the single-threaded session.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..9)
            .map(|i| {
                let body = body.clone();
                let expected = expected.clone();
                scope.spawn(move || {
                    let tenant = format!("tenant-{}", i % 3);
                    let resp = request(
                        addr,
                        "POST",
                        "/seed",
                        &[("X-Casa-Tenant", &tenant)],
                        body.as_bytes(),
                    )
                    .expect("request succeeds");
                    assert_eq!(
                        resp.status,
                        200,
                        "body: {:?}",
                        String::from_utf8_lossy(&resp.body)
                    );
                    assert_eq!(
                        resp.headers.get("x-casa-degraded").map(String::as_str),
                        Some("false")
                    );
                    assert!(resp.headers.contains_key("x-casa-request-id"));
                    assert_eq!(String::from_utf8(resp.body).unwrap(), expected);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread panicked");
        }
    });

    let metrics = fetch_metrics(addr);
    assert_eq!(metric_value(&metrics, "casa_requests_accepted_total"), 9.0);
    assert_eq!(metric_value(&metrics, "casa_requests_completed_total"), 9.0);
    assert_eq!(metric_value(&metrics, "casa_responses_degraded_total"), 0.0);
    assert!(metric_value(&metrics, "casa_request_seconds_count") >= 9.0);
    assert!(metric_value(&metrics, "casa_read_passes_total") > 0.0);
    assert!(metrics.contains("casa_stage_nanos_total{stage="));

    let report = server.shutdown();
    assert!(report.clean(), "{report:?}");
}

#[test]
fn overload_sheds_excess_requests_with_typed_responses() {
    let (reference, reads) = workload(12);
    let expected = expected_tsv(&reference, &reads);
    let body = body_for(&reads);
    // One slow seed worker (every tile stalls 20 ms) and a one-deep
    // queue: most of a 12-client burst must be shed, not buffered.
    let config = ServeConfig {
        seed_workers: 1,
        limits: ServeLimits {
            queue_depth: 1,
            max_inflight_bytes: body.len() * 2,
            max_request_bytes: body.len() + 1,
        },
        ..ServeConfig::default()
    };
    let plan = FaultPlan::parse("seed=5,stall=1.0,stall-ms=20").unwrap();
    let server = start_server(&reference, config, Some(plan));
    let addr = server.local_addr();

    let outcomes: Vec<(u16, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let body = body.clone();
                scope.spawn(move || {
                    let tenant = format!("burst-{i}");
                    let resp = request(
                        addr,
                        "POST",
                        "/seed",
                        &[("X-Casa-Tenant", &tenant)],
                        body.as_bytes(),
                    )
                    .expect("request completes");
                    (resp.status, resp.body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let accepted = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed = outcomes.iter().filter(|(s, _)| *s == 503).count();
    assert_eq!(
        accepted + shed,
        12,
        "unexpected statuses: {:?}",
        outcomes.iter().map(|(s, _)| s).collect::<Vec<_>>()
    );
    assert!(accepted >= 1, "at least one request must be admitted");
    assert!(
        shed >= 1,
        "a 12-client burst against a 1-deep queue must shed"
    );
    for (status, body) in &outcomes {
        match status {
            200 => assert_eq!(String::from_utf8(body.clone()).unwrap(), expected),
            _ => {
                let text = String::from_utf8(body.clone()).unwrap();
                assert!(
                    text.contains("\"error\":\"overloaded\""),
                    "503 body is not typed: {text}"
                );
                assert!(
                    text.contains("queue_full") || text.contains("inflight_bytes"),
                    "unexpected shed reason: {text}"
                );
            }
        }
    }

    let metrics = fetch_metrics(addr);
    assert_eq!(
        metric_value(&metrics, "casa_requests_accepted_total"),
        accepted as f64
    );
    let rejected: f64 = metrics
        .lines()
        .filter(|l| l.starts_with("casa_requests_rejected_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
        .sum();
    assert_eq!(rejected, shed as f64);

    let report = server.shutdown();
    assert!(report.guards_drained, "{report:?}");
}

#[test]
fn oversized_requests_are_rejected_without_buffering() {
    let (reference, _) = workload(1);
    let config = ServeConfig {
        limits: ServeLimits {
            max_request_bytes: 64,
            ..ServeLimits::default()
        },
        ..ServeConfig::default()
    };
    let server = start_server(&reference, config, None);
    let addr = server.local_addr();
    let oversized = "A".repeat(1 << 16);
    let resp = request(addr, "POST", "/seed", &[], oversized.as_bytes()).unwrap();
    assert_eq!(resp.status, 413);
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains("request_too_large"), "{text}");
    assert!(text.contains("\"retriable\":false"), "{text}");
    let metrics = fetch_metrics(addr);
    assert_eq!(
        metric_value(
            &metrics,
            "casa_requests_rejected_total{reason=\"request_too_large\"}"
        ),
        1.0
    );
    assert!(server.shutdown().clean());
}

#[test]
fn reads_longer_than_the_partition_overlap_get_400_before_admission() {
    let (reference, reads) = workload(1);
    let server = start_server(&reference, ServeConfig::default(), None);
    let addr = server.local_addr();
    // 150 bases centred on the first partition cut: longer than the
    // overlap + 1 = READ_LEN bases the index guarantees to hold whole.
    let straddling = reference.subseq(PART_LEN - 75, 150);
    let body = body_for(&[reads[0].clone(), straddling]);
    let resp = request(addr, "POST", "/seed", &[], body.as_bytes()).unwrap();
    assert_eq!(resp.status, 400);
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains("read 1 has 150 bases"), "{text}");
    assert!(
        text.contains(&format!("{READ_LEN}-base read limit")),
        "{text}"
    );
    // Rejected before admission; a well-sized request still succeeds.
    let metrics = fetch_metrics(addr);
    assert_eq!(metric_value(&metrics, "casa_requests_accepted_total"), 0.0);
    let body = body_for(&reads);
    let resp = request(addr, "POST", "/seed", &[], body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert!(server.shutdown().clean());
}

#[test]
fn quarantined_partitions_serve_degraded_but_bit_identical_responses() {
    let (reference, reads) = workload(16);
    let expected = expected_tsv(&reference, &reads);
    // Every partition panics on every attempt (`partition=0` confines only
    // hardware faults, which this plan has none of): retries exhaust, the
    // partitions are quarantined, and their tiles fall back to the golden
    // model — the response degrades (flagged) without changing a single
    // output byte.
    let plan = FaultPlan::parse("seed=9,panic=1.0,retries=1,partition=0").unwrap();
    let server = start_server(&reference, ServeConfig::default(), Some(plan));
    let addr = server.local_addr();
    let resp = request(addr, "POST", "/seed", &[], body_for(&reads).as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.headers.get("x-casa-degraded").map(String::as_str),
        Some("true"),
        "quarantine must flag the response degraded"
    );
    assert_eq!(String::from_utf8(resp.body).unwrap(), expected);
    let metrics = fetch_metrics(addr);
    assert!(metric_value(&metrics, "casa_responses_degraded_total") >= 1.0);
    assert!(metric_value(&metrics, "casa_partitions_quarantined_total") >= 1.0);
    assert!(metric_value(&metrics, "casa_partitions_quarantined_now") >= 1.0);
    assert!(metric_value(&metrics, "casa_fallback_read_passes_total") >= 1.0);
    let report = server.shutdown();
    assert!(report.guards_drained, "{report:?}");
}

#[test]
fn request_deadline_expiry_returns_504_and_cancels() {
    let (reference, reads) = workload(12);
    // Every tile stalls 100 ms, the request deadline is 60 ms: the conn
    // worker must give up with a 504 and cancel the in-flight session.
    let config = ServeConfig {
        seed_workers: 1,
        request_deadline: Duration::from_millis(60),
        ..ServeConfig::default()
    };
    let plan = FaultPlan::parse("seed=3,stall=1.0,stall-ms=100").unwrap();
    let server = start_server(&reference, config, Some(plan));
    let addr = server.local_addr();
    let resp = request(addr, "POST", "/seed", &[], body_for(&reads).as_bytes()).unwrap();
    assert_eq!(resp.status, 504);
    assert!(String::from_utf8(resp.body).unwrap().contains("deadline"));
    // The cancelled session bails at a tile boundary; the worker then
    // records the cancellation.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = fetch_metrics(addr);
        if metric_value(&metrics, "casa_requests_cancelled_total") >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cancellation never recorded:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let report = server.shutdown();
    assert!(report.guards_drained, "{report:?}");
}

#[test]
fn client_disconnect_cancels_queued_work() {
    let (reference, reads) = workload(12);
    let config = ServeConfig {
        seed_workers: 1,
        ..ServeConfig::default()
    };
    let plan = FaultPlan::parse("seed=11,stall=1.0,stall-ms=50").unwrap();
    let server = start_server(&reference, config, Some(plan));
    let addr = server.local_addr();
    let body = body_for(&reads);

    // Client A occupies the only seed worker (every tile stalls 50 ms).
    let slow = {
        let body = body.clone();
        std::thread::spawn(move || request(addr, "POST", "/seed", &[], body.as_bytes()))
    };
    std::thread::sleep(Duration::from_millis(50));
    // Client B queues behind A, then hangs up before its turn comes.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let head = format!(
            "POST /seed HTTP/1.1\r\nHost: casa\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let _ = stream.shutdown(Shutdown::Both);
    }
    let resp = slow.join().unwrap().expect("slow request completes");
    assert_eq!(resp.status, 200);
    // B's job is popped with a cancelled token and skipped.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = fetch_metrics(addr);
        if metric_value(&metrics, "casa_requests_cancelled_total") >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect never cancelled the queued job:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let report = server.shutdown();
    assert!(report.guards_drained, "{report:?}");
}

#[test]
fn drain_finishes_cleanly_and_no_guard_thread_survives() {
    let (reference, reads) = workload(16);
    let expected = expected_tsv(&reference, &reads);
    // A tile deadline arms the watchdog on every tile, so this drain
    // proves detached guard threads cannot outlive the server.
    let seeder = Seeder::builder(&reference)
        .partition_len(PART_LEN)
        .read_len(READ_LEN)
        .workers(2)
        .tile_deadline(Duration::from_millis(250))
        .build()
        .expect("valid seeder");
    let server = Server::start(seeder, ServeConfig::default()).expect("server starts");
    let addr = server.local_addr();
    let resp = request(addr, "POST", "/seed", &[], body_for(&reads).as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(String::from_utf8(resp.body).unwrap(), expected);

    let handle = server.handle();
    handle.begin_drain();
    assert!(handle.draining());
    // The acceptor stops taking work: a post-drain request must fail to
    // connect or come back non-200 (never a seeded response).
    if let Ok(resp) = request(addr, "POST", "/seed", &[], body_for(&reads).as_bytes()) {
        assert_ne!(resp.status, 200, "drained server served a request");
    }
    let report = server.shutdown();
    assert!(report.drained_in_time, "{report:?}");
    assert_eq!(report.cancelled_in_flight, 0, "{report:?}");
    assert!(report.guards_drained, "no watchdog guard may survive drain");
    assert!(
        casa_core::wait_for_guard_threads(Duration::from_secs(10)),
        "guard threads still live after shutdown"
    );
}

/// Runs `server.shutdown()` on a helper thread and returns how long it
/// took, failing (instead of hanging) if it is still running after
/// `limit`.
fn timed_shutdown(server: Server, limit: Duration) -> Duration {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let started = Instant::now();
    let shutdown = std::thread::spawn(move || {
        let report = server.shutdown();
        let _ = done_tx.send(());
        report
    });
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(limit) {
        panic!("shutdown still running after {limit:?}");
    }
    let elapsed = started.elapsed();
    let report = shutdown.join().expect("shutdown thread panicked");
    assert!(report.clean(), "{report:?}");
    elapsed
}

/// Drain wakes the acceptor blocked in `accept()` by connecting to the
/// server's own address. For an unspecified bind IP that connection goes
/// to loopback; either way an idle server stops well inside its drain
/// deadline.
#[test]
fn idle_shutdown_wakes_the_blocked_acceptor_promptly() {
    let (reference, _) = workload(0);
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let config = ServeConfig {
            addr: bind.parse().expect("bind address"),
            drain_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        let server = start_server(&reference, config, None);
        let port = server.local_addr().port();
        let health = request(
            SocketAddr::from(([127, 0, 0, 1], port)),
            "GET",
            "/health",
            &[],
            b"",
        )
        .expect("health reachable over loopback");
        assert_eq!(health.status, 200, "bind {bind}");
        let elapsed = timed_shutdown(server, Duration::from_secs(10));
        assert!(
            elapsed < Duration::from_secs(2),
            "idle shutdown of a {bind} server took {elapsed:?}"
        );
    }
}

/// Back-to-back requests never wait on a polling acceptor. A 5 ms accept
/// poll put a floor of about 5 ms under every round trip, so a batch of
/// `N` sequential `GET /health` calls took at least `(N - 1) × 5 ms`;
/// the bound is half that pace. The best of three batches is compared,
/// since interference from other tests only ever adds time.
#[test]
fn sequential_health_round_trips_are_not_paced_by_a_poll() {
    const N: u32 = 40;
    let (reference, _) = workload(0);
    let server = start_server(&reference, ServeConfig::default(), None);
    let addr = server.local_addr();
    let best = (0..3)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..N {
                let resp = request(addr, "GET", "/health", &[], b"").expect("health reachable");
                assert_eq!(resp.status, 200);
            }
            started.elapsed()
        })
        .min()
        .expect("three batches");
    assert!(
        best < N * Duration::from_micros(2_500),
        "{N} sequential /health round trips took {best:?}"
    );
    assert!(server.shutdown().clean());
}

/// A loopback address whose port was free a moment ago.
#[cfg(unix)]
fn free_loopback_addr() -> String {
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    format!("127.0.0.1:{port}")
}

/// A spawned `casa-serve` process, killed on drop so a failing test never
/// leaks the daemon.
#[cfg(unix)]
struct Daemon(std::process::Child);

#[cfg(unix)]
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[cfg(unix)]
impl Daemon {
    /// Spawns the `casa-serve` binary on `addr` with `args` and waits
    /// until it accepts connections.
    fn spawn(addr: &str, args: &[&str], stdout: std::process::Stdio) -> Daemon {
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_casa-serve"))
            .args(["--addr", addr])
            .args(args)
            .stdout(stdout)
            .spawn()
            .expect("spawn casa-serve");
        let mut daemon = Daemon(child);
        let deadline = Instant::now() + Duration::from_secs(60);
        while TcpStream::connect(addr).is_err() {
            assert!(
                daemon.0.try_wait().unwrap().is_none(),
                "casa-serve exited early"
            );
            assert!(Instant::now() < deadline, "casa-serve never listened");
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon
    }

    /// Sends SIGTERM.
    fn sigterm(&self) {
        let killed = std::process::Command::new("kill")
            .args(["-TERM", &self.0.id().to_string()])
            .status()
            .expect("run kill");
        assert!(killed.success());
    }

    /// Waits for the exit status, failing the test if the daemon is
    /// still running after `timeout`.
    fn wait_exit(&mut self, timeout: Duration) -> std::process::ExitStatus {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.0.try_wait().expect("wait casa-serve") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "casa-serve still running after {timeout:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// A SIGTERM sent the moment the `casa-serve` binary is reachable must
/// drain it (exit 0), never kill it. The daemon's stdout is a socket with
/// a full send buffer, so it blocks printing its `listening` line: the
/// signal lands after the listener opened and before that line is out,
/// exactly when a handler installed after the announcement is missing.
#[cfg(unix)]
#[test]
fn casa_serve_sigterm_as_soon_as_it_listens_drains_cleanly() {
    use std::io::{BufRead, BufReader, ErrorKind};
    use std::os::fd::OwnedFd;
    use std::os::unix::net::UnixStream;
    use std::process::Stdio;

    let (reader, mut writer) = UnixStream::pair().expect("socket pair");
    writer.set_nonblocking(true).unwrap();
    for chunk in [&b"filler\n".repeat(512)[..], b"\n"] {
        loop {
            match writer.write(chunk) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("fill stdout socket: {e}"),
            }
        }
    }
    writer.set_nonblocking(false).unwrap();

    let addr = free_loopback_addr();
    let mut daemon = Daemon::spawn(
        &addr,
        &["--synth", "20000", "--partition-len", "10000"],
        Stdio::from(OwnedFd::from(writer)),
    );
    daemon.sigterm();

    let lines: Vec<String> = BufReader::new(reader).lines().map(Result::unwrap).collect();
    let status = daemon.wait_exit(Duration::from_secs(30));
    assert!(
        status.success(),
        "casa-serve did not drain on SIGTERM: {status}"
    );
    assert!(
        lines.contains(&format!("listening {addr}")),
        "no listening line"
    );
}

/// The `casa-serve` binary under a burst: concurrent `/seed` clients, one
/// client that hangs up early and one oversized request. Every 200 is
/// byte-identical to a direct single-threaded session, excess load is
/// shed with typed 503s, the oversized request gets 413, and a SIGTERM
/// after the traffic drains the daemon to exit 0 within 30 s.
#[cfg(unix)]
#[test]
fn casa_serve_binary_serves_a_burst_then_drains_on_sigterm() {
    use casa::genome::fasta::{write_fasta, FastaRecord};

    let (reference, reads) = workload(16);
    let expected = expected_tsv(&reference, &reads);
    let body = body_for(&reads);
    let dir = std::env::temp_dir().join(format!("casa_serve_burst_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let fasta = dir.join("ref.fa");
    write_fasta(
        std::fs::File::create(&fasta).expect("temp FASTA is writable"),
        &[FastaRecord {
            name: "burst_ref".into(),
            seq: reference,
        }],
    )
    .expect("temp FASTA writes");

    // Stalled tiles, one seed worker and a one-deep queue make the burst
    // overload admission control.
    let addr = free_loopback_addr();
    let mut daemon = Daemon::spawn(
        &addr,
        &[
            "--reference",
            fasta.to_str().expect("temp path is utf-8"),
            "--partition-len",
            &PART_LEN.to_string(),
            "--read-len",
            &READ_LEN.to_string(),
            "--threads",
            "2",
            "--seed-workers",
            "1",
            "--queue-depth",
            "1",
            "--max-request-bytes",
            &(body.len() + 64).to_string(),
            "--max-inflight-bytes",
            &(body.len() * 2).to_string(),
            "--fault-spec",
            "seed=5,stall=1.0,stall-ms=15",
        ],
        std::process::Stdio::null(),
    );
    let addr: SocketAddr = addr.parse().expect("loopback address");

    let oversized = "A".repeat(body.len() * 2);
    let (outcomes, oversize) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..6)
            .map(|i| {
                let body = body.as_bytes();
                scope.spawn(move || {
                    let tenant = format!("tenant-{i}");
                    request(addr, "POST", "/seed", &[("X-Casa-Tenant", &tenant)], body)
                        .expect("request completes")
                })
            })
            .collect();
        let oversize = scope.spawn(|| {
            request(addr, "POST", "/seed", &[], oversized.as_bytes()).expect("request completes")
        });
        scope.spawn(|| {
            // Sends a whole request, then hangs up before the answer.
            let mut stream = TcpStream::connect(addr).expect("connect");
            let head = format!(
                "POST /seed HTTP/1.1\r\nHost: casa\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            let _ = stream.write_all(head.as_bytes());
            let _ = stream.write_all(body.as_bytes());
            std::thread::sleep(Duration::from_millis(100));
            let _ = stream.shutdown(Shutdown::Both);
        });
        let outcomes: Vec<Response> = clients.into_iter().map(|h| h.join().unwrap()).collect();
        (outcomes, oversize.join().unwrap())
    });

    assert_eq!(oversize.status, 413);
    let accepted = outcomes.iter().filter(|r| r.status == 200).count();
    assert!(accepted >= 1, "at least one request must be admitted");
    for resp in &outcomes {
        let text = String::from_utf8_lossy(&resp.body);
        match resp.status {
            200 => assert_eq!(text, expected),
            503 => assert!(
                text.contains("\"error\":\"overloaded\""),
                "503 body is not typed: {text}"
            ),
            status => panic!("unexpected status {status}: {text}"),
        }
    }
    let metrics = fetch_metrics(addr);
    assert!(metric_value(&metrics, "casa_requests_accepted_total") >= accepted as f64);
    assert!(metric_value(&metrics, "casa_request_seconds_count") >= 1.0);
    assert!(metric_value(&metrics, "casa_read_passes_total") >= 1.0);

    daemon.sigterm();
    let status = daemon.wait_exit(Duration::from_secs(30));
    assert!(
        status.success(),
        "casa-serve did not drain on SIGTERM: {status}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
