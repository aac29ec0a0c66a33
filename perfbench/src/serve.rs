//! The `serve-small` workload: `casa-serve` on a mapped index image,
//! driven as a closed loop by two client threads (one per core) sending
//! 16-read `POST /seed` requests under two tenants, with one client also
//! sending `POST /admin/reload` at a fixed cadence.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use casa::genome::PackedSeq;
use casa::index::Smem;

use crate::inputs::{golden_session, path_arg, render_tsv, Inputs, READS_PER_REQUEST};
use crate::proc::{self, Guarded};
use crate::stats::{percentile, Metric, Outcome};

/// Closed-loop clients (= cores on the reference host).
const CLIENTS: usize = 2;
/// One reload per this interval, sent by client 0.
const RELOAD_EVERY: Duration = Duration::from_millis(1000);
/// A request or start taking longer than this is a failure.
const OP_TIMEOUT: Duration = Duration::from_secs(30);
/// The load phase is cut into this many equal windows; throughput and
/// latency percentiles are computed per window and reported as the
/// median window, so a slow stretch of the host that covers one or two
/// windows does not move the run's value. At 20 s a window holds ~1,300
/// requests: p99 has thirteen samples beyond it.
const WINDOWS: usize = 5;
/// Daemon cold starts before each load window. `setup_s` is the median
/// of these and of the load daemon's own start (51 at 5 windows): spread
/// over the run, they see the same host phases the load does.
const STARTS_PER_WINDOW: usize = 10;

/// One HTTP response.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Sends one request on its own connection (the server closes every
/// connection after its response) and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: &str,
    body: &[u8],
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(OP_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: casa\r\nX-Casa-Tenant: {tenant}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    stream.write_all(&msg)?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    let status = std::str::from_utf8(&raw[..end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    Ok(Response {
        status,
        body: raw[end + 4..].to_vec(),
    })
}

/// Request bodies (one read per line) and the golden TSV answer of each.
pub struct Pool {
    pub requests: Vec<Vec<PackedSeq>>,
    pub bodies: Vec<Vec<u8>>,
    pub expected: Vec<String>,
}

impl Pool {
    /// Draws the pool from `inputs` and answers it with the FM-index
    /// golden model (forward strand, as `/seed` seeds).
    pub fn new(inputs: &Inputs) -> Result<Pool, String> {
        let requests = inputs.request_pool();
        let all: Vec<PackedSeq> = requests.iter().flatten().cloned().collect();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let golden = golden_session(inputs, nproc)?.seed_reads(&all).smems;
        Ok(Pool::from_requests(requests, &golden))
    }

    /// A pool of `requests` whose golden SMEMs, read by read in request
    /// order, are `golden`. Every request but the last holds
    /// [`READS_PER_REQUEST`] reads.
    pub fn from_requests(requests: Vec<Vec<PackedSeq>>, golden: &[Vec<Smem>]) -> Pool {
        let bodies = requests
            .iter()
            .map(|reads| {
                reads
                    .iter()
                    .map(|r| format!("{r}\n"))
                    .collect::<String>()
                    .into_bytes()
            })
            .collect();
        let expected = golden.chunks(READS_PER_REQUEST).map(render_tsv).collect();
        Pool {
            requests,
            bodies,
            expected,
        }
    }

    /// Checks one `/seed` response against request `i`'s golden answer.
    pub fn check(&self, i: usize, resp: io::Result<Response>) -> Result<(), String> {
        let resp = resp.map_err(|e| format!("/seed request {i}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "/seed request {i}: status {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body).trim()
            ));
        }
        if resp.body != self.expected[i].as_bytes() {
            return Err(format!(
                "/seed request {i}: body differs from the golden TSV"
            ));
        }
        Ok(())
    }
}

/// Spawns the daemon and returns it with its announced address.
fn spawn(bin: &Path, image: &Path) -> Result<(Guarded, SocketAddr), String> {
    let mut cmd = Command::new(bin);
    cmd.args(["--index-image", &path_arg(image)]).args([
        "--threads",
        "1",
        "--seed-workers",
        "2",
        "--addr",
        "127.0.0.1:0",
    ]);
    crate::clean_env(&mut cmd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = Guarded::new(cmd.spawn().map_err(|e| format!("spawn casa-serve: {e}"))?);
    let stdout = child
        .child()
        .stdout
        .take()
        .ok_or("casa-serve stdout not captured")?;
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("casa-serve stdout: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("casa-serve did not announce its address: {line:?}"))?;
    Ok((child, addr))
}

/// Spawn to the first correct `/seed` answer.
fn cold_start(bin: &Path, image: &Path, pool: &Pool) -> Result<(Guarded, SocketAddr, f64), String> {
    let start = Instant::now();
    let (child, addr) = spawn(bin, image)?;
    loop {
        match request(addr, "POST", "/seed", "probe", &pool.bodies[0]) {
            Ok(resp) => {
                pool.check(0, Ok(resp))?;
                return Ok((child, addr, start.elapsed().as_secs_f64()));
            }
            Err(_) if start.elapsed() < OP_TIMEOUT => {
                std::thread::sleep(Duration::from_micros(200))
            }
            Err(e) => return Err(format!("casa-serve never answered: {e}")),
        }
    }
}

/// SIGTERM, then the daemon must drain and exit 0.
fn stop(child: Guarded) -> Result<proc::Exit, String> {
    let mut child = child;
    // casa-serve installs its SIGTERM handler only after announcing its
    // address, so a daemon that has already answered can still die of a
    // SIGTERM sent at once; wait until the handler is in place.
    if !proc::await_handler(child.child(), proc::SIGTERM, OP_TIMEOUT) {
        return Err("casa-serve never installed its SIGTERM handler".to_string());
    }
    proc::signal(child.child(), proc::SIGTERM);
    let exit = child
        .wait(OP_TIMEOUT)
        .map_err(|e| format!("casa-serve drain: {e}"))?;
    if exit.success() {
        Ok(exit)
    } else {
        Err(format!("casa-serve exited {:?} after SIGTERM", exit.code))
    }
}

/// One correct `/seed` answer.
struct Answered {
    latency_ms: f64,
    reads: u64,
}

/// What one client thread saw in one load window.
#[derive(Default)]
struct ClientLog {
    seeds: Vec<Answered>,
    reload_ms: Vec<f64>,
    sent: u64,
    reloads_sent: u64,
    failures: Vec<String>,
}

/// Client `i`'s closed loop from `start` to `until`, beginning at pool
/// request `k`. Client 0 sends a reload half an interval in (or half the
/// window, if that is shorter) and every interval after.
fn client(
    i: usize,
    addr: SocketAddr,
    pool: &Pool,
    mut k: usize,
    start: Instant,
    until: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let tenant = format!("tenant-{i}");
    let mut next_reload = start + (RELOAD_EVERY / 2).min((until - start) / 2);
    while Instant::now() < until {
        if i == 0 && Instant::now() >= next_reload {
            next_reload += RELOAD_EVERY;
            log.reloads_sent += 1;
            let t = Instant::now();
            let resp = request(addr, "POST", "/admin/reload", &tenant, b"");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match resp {
                Ok(r) if r.status == 200 && r.body.starts_with(b"{\"status\":\"reloaded\"") => {
                    log.reload_ms.push(ms)
                }
                Ok(r) => log.failures.push(format!(
                    "/admin/reload: status {}: {}",
                    r.status,
                    String::from_utf8_lossy(&r.body).trim()
                )),
                Err(e) => log.failures.push(format!("/admin/reload: {e}")),
            }
            continue;
        }
        let req = k % pool.bodies.len();
        k += CLIENTS;
        log.sent += 1;
        let t = Instant::now();
        let resp = request(addr, "POST", "/seed", &tenant, &pool.bodies[req]);
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        match pool.check(req, resp) {
            Ok(()) => log.seeds.push(Answered {
                latency_ms,
                reads: pool.requests[req].len() as u64,
            }),
            Err(why) => log.failures.push(why),
        }
    }
    log
}

/// One load window: its wall time and what each client saw.
struct Window {
    wall_s: f64,
    logs: Vec<ClientLog>,
}

/// Runs the workload and reduces it to the end-to-end metrics.
pub fn run(
    bin: &Path,
    inputs: &Inputs,
    image: &Path,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let t = Instant::now();
    let pool = Pool::new(inputs)?;
    eprintln!(
        "golden (fm backend): {} requests in {:.1} s",
        pool.bodies.len(),
        t.elapsed().as_secs_f64()
    );

    // The daemon that serves the load; its cold start is the first setup
    // sample.
    let mut setup = Vec::new();
    let (child, addr) = match cold_start(bin, image, &pool) {
        Ok((child, addr, s)) => {
            out.check(Ok(()));
            setup.push(s);
            (child, addr)
        }
        Err(why) => {
            out.check(Err(why));
            return Ok(());
        }
    };

    // Each window is preceded by a block of cold starts of other daemons
    // (the load daemon idles meanwhile), then loaded for its share of
    // `seconds`.
    let width = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let mut windows = Vec::with_capacity(WINDOWS);
    let mut next_request = 0;
    for _ in 0..WINDOWS {
        for _ in 0..STARTS_PER_WINDOW {
            match cold_start(bin, image, &pool) {
                Ok((extra, _, s)) => {
                    out.check(Ok(()));
                    setup.push(s);
                    out.check(stop(extra).map(|_| ()));
                }
                Err(why) => {
                    out.check(Err(why));
                }
            }
        }
        let start = Instant::now();
        let until = start + width;
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    let pool = &pool;
                    s.spawn(move || client(i, addr, pool, next_request + i, start, until))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        next_request += logs.iter().map(|l| l.sent as usize).sum::<usize>();
        windows.push(Window {
            wall_s: start.elapsed().as_secs_f64(),
            logs,
        });
    }
    let exit = stop(child);
    let starts = 1 + WINDOWS * STARTS_PER_WINDOW;
    eprintln!(
        "phase setup: sent {starts}, succeeded {}, failed {}",
        setup.len(),
        starts - setup.len()
    );

    let (mut sent, mut answered, mut reloads_sent) = (0u64, 0usize, 0u64);
    let mut reload_ms = Vec::new();
    let (mut rate, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for w in windows {
        let mut latency = Vec::new();
        let mut reads = 0;
        for log in w.logs {
            sent += log.sent;
            reloads_sent += log.reloads_sent;
            reload_ms.extend(log.reload_ms);
            for a in log.seeds {
                latency.push(a.latency_ms);
                reads += a.reads;
            }
            for why in log.failures {
                out.check(Err(why));
            }
        }
        answered += latency.len();
        if latency.is_empty() {
            out.check(Err("a load window saw no answered request".to_string()));
            continue;
        }
        rate.push(reads as f64 / w.wall_s);
        p50.push(percentile(&latency, 50.0));
        p99.push(percentile(&latency, 99.0));
    }
    for _ in 0..answered + reload_ms.len() {
        out.check(Ok(()));
    }
    eprintln!(
        "phase seed: sent {sent}, succeeded {answered}, failed {}",
        sent - answered as u64
    );
    eprintln!(
        "phase reload: sent {reloads_sent}, succeeded {}, failed {}",
        reload_ms.len(),
        reloads_sent - reload_ms.len() as u64
    );
    let rss_mb = exit.as_ref().ok().map(|e| e.max_rss_kb as f64 / 1024.0);
    let drained = out.check(exit.map(|_| ()));
    eprintln!("phase drain: sent 1, failed {}", u8::from(!drained));
    let (Some(rss_mb), false) = (rss_mb, rate.len() < WINDOWS || reload_ms.is_empty()) else {
        return Ok(());
    };
    eprintln!(
        "load: {answered} answered requests in {WINDOWS} windows of {:.1} s",
        width.as_secs_f64()
    );
    out.metrics
        .push(Metric::median_of("reads_per_s", "reads/s", &rate));
    out.metrics.push(Metric::median_of("setup_s", "s", &setup));
    out.metrics
        .push(Metric::median_of("latency_p50_ms", "ms", &p50));
    out.metrics
        .push(Metric::median_of("latency_p99_ms", "ms", &p99));
    out.metrics
        .push(Metric::median_of("reload_ms", "ms", &reload_ms));
    out.metrics
        .push(Metric::single("peak_rss_mb", "MB", rss_mb, 1));
    Ok(())
}
