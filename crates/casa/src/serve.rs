//! The `casa-serve` daemon: a resident, multi-tenant seeding server.
//!
//! One process holds the reference index, filter tables, CAM bitplanes,
//! and partition engines warm (a [`Seeder`] built once at startup) and
//! serves many concurrent clients over hand-rolled HTTP/1.1 on
//! [`std::net::TcpListener`] — no async runtime, just a fixed accept /
//! connection / seeding worker pool. Every wait is event-driven: the
//! acceptor blocks in `accept()`, connection workers block on a channel,
//! seed workers block on the fair queue, and shutdown blocks on a
//! condition variable, so no request waits out a polling sleep. The
//! robustness core lives in [`casa_core::serve`]: bounded per-tenant
//! queues with typed admission control, round-robin fairness, and the
//! `/metrics` counter registry.
//! This module adds the protocol shell and the process lifecycle:
//!
//! * **`POST /seed`** — body: one ACGT read per line; response: TSV
//!   `read_index\tstart\tend\thits` per SMEM, bit-identical to a
//!   single-threaded CLI run over the same reads. Tenants identify
//!   themselves with the `X-Casa-Tenant` header (default `anonymous`).
//!   Overload produces a typed JSON `503` (`{"error":"overloaded",...}`)
//!   or `413` — never an OOM, never a panic.
//! * **Cancellation** — every accepted request carries a
//!   [`CancelToken`] wired through
//!   [`SeedingSession::with_cancel_token`](casa_core::SeedingSession::with_cancel_token):
//!   a client disconnect or the per-request deadline cancels in-flight
//!   tiles within roughly one tile's work.
//! * **Degraded mode** — when partition quarantine is active (fault
//!   injection or a real fault exhausted its retries), responses still
//!   succeed and carry `X-Casa-Degraded: true` instead of failing.
//! * **Graceful drain** — [`ServerHandle::begin_drain`] (wired to
//!   SIGTERM in the binary) stops accepting — it wakes the blocked
//!   acceptor with a connection to the server's own address — lets
//!   queued and in-flight requests finish within the drain deadline,
//!   cancels stragglers, and waits for every detached watchdog guard
//!   thread to exit.
//!
//! ```no_run
//! use casa::genome::synth::{generate_reference, ReferenceProfile};
//! use casa::serve::{Server, ServeConfig};
//! use casa::Seeder;
//!
//! let reference = generate_reference(&ReferenceProfile::human_like(), 40_000, 1);
//! let seeder = Seeder::builder(&reference).partition_len(10_000).build()?;
//! let server = Server::start(seeder, ServeConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! let handle = server.handle();
//! // ... install handle.begin_drain() in a signal handler ...
//! let report = server.shutdown();
//! assert!(report.clean());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use casa_core::logging::{next_request_id, RequestScope};
use casa_core::serve::{Admitted, FairQueue, OverloadReason, ServeLimits, ServeMetrics};
use casa_core::{log_debug, log_info, log_warn};
use casa_core::{wait_for_guard_threads, CancelToken, Error, LoadedIndex, SeedingSession};
use casa_genome::PackedSeq;
use casa_index::Smem;

use crate::Seeder;

/// Server configuration: the socket, the pool sizes, the admission
/// limits, and the deadlines.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`port 0` picks a free port).
    pub addr: SocketAddr,
    /// Threads parsing connections and writing responses.
    pub conn_workers: usize,
    /// Threads running admitted requests through the seeder.
    pub seed_workers: usize,
    /// Admission-control limits (queue depth, payload budgets).
    pub limits: ServeLimits,
    /// Wall-clock budget per accepted request (queue wait + seeding);
    /// expiry cancels the request and answers `504`.
    pub request_deadline: Duration,
    /// How long [`Server::shutdown`] lets in-flight work finish before
    /// cancelling it.
    pub drain_deadline: Duration,
    /// Enable the per-stage profiler so `/metrics` carries
    /// `casa_stage_nanos_total` (never changes seeding output).
    pub profiling: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            conn_workers: 4,
            seed_workers: 2,
            limits: ServeLimits::default(),
            request_deadline: Duration::from_secs(30),
            drain_deadline: Duration::from_secs(10),
            profiling: true,
        }
    }
}

/// Longest time a connection may dribble its request in before the
/// socket read times out (slowloris guard).
const HEADER_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Maximum bytes of request line + headers.
const MAX_HEADER_BYTES: usize = 16 << 10;

/// Slice between client-liveness / reply checks while a request is in
/// flight.
const REPLY_POLL_SLICE: Duration = Duration::from_millis(25);

/// Pause after a failed `accept()` (e.g. `EMFILE`), so a broken listener
/// cannot spin the acceptor.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Connect budget for the drain wake-up connection.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// How a seeding job answered its connection worker.
enum SeedReply {
    /// Seeded successfully: per-read SMEM lists and the degraded flag.
    Done {
        smems: Vec<Vec<Smem>>,
        degraded: bool,
    },
    /// The request's token fired before or during seeding.
    Cancelled,
    /// The session reported an unrecoverable scheduler error.
    Failed(String),
}

/// One admitted seeding job, queued between connection and seed workers.
struct SeedJob {
    id: u64,
    reads: Vec<PackedSeq>,
    token: CancelToken,
    /// The index generation this request was admitted under. A hot swap
    /// mid-flight never changes an admitted request's index; the old
    /// mapping stays alive until the last such pin drops.
    generation: Arc<Generation>,
    reply: mpsc::SyncSender<SeedReply>,
}

/// Where the server's active index came from, surfaced in `/health` and
/// used by `/admin/reload` to find the image to re-map.
#[derive(Clone, Debug)]
pub struct IndexProvenance {
    /// `"built"` (index constructed in-process from the reference) or
    /// `"mapped"` (zero-copy mmap of an index image).
    pub kind: &'static str,
    /// Image content fingerprint (`0` when the index was never
    /// persisted, so no fingerprint exists).
    pub fingerprint: u64,
    /// The image path an empty-bodied reload request falls back to.
    pub source: Option<PathBuf>,
}

impl IndexProvenance {
    /// Provenance for an index built in-process from the reference.
    pub fn built() -> IndexProvenance {
        IndexProvenance {
            kind: "built",
            fingerprint: 0,
            source: None,
        }
    }

    /// Provenance for an index mapped zero-copy from an image file.
    pub fn mapped(fingerprint: u64, source: PathBuf) -> IndexProvenance {
        IndexProvenance {
            kind: "mapped",
            fingerprint,
            source: Some(source),
        }
    }
}

/// One live index generation: a warm session plus its provenance.
/// `/admin/reload` swaps the registry's `Arc<Generation>` atomically;
/// every admitted request pins the generation it saw at admission, so
/// in-flight work drains on the old index and the old mapping is
/// released (unmapped) when the final pin drops.
struct Generation {
    /// Monotonic label (`gen-1`, `gen-2`, ...) surfaced in `/health`.
    label: String,
    provenance: IndexProvenance,
    session: SeedingSession,
}

/// State shared by every server thread.
struct Shared {
    /// The active index generation; `/admin/reload` swaps the `Arc`.
    generation: RwLock<Arc<Generation>>,
    /// Highest generation number handed out (labels are `gen-N`).
    generation_seq: AtomicU64,
    /// Completed hot swaps since startup.
    reloads: AtomicU64,
    /// Serializes reloads so concurrent swaps cannot interleave their
    /// read-modify-write of the registry.
    reload_lock: Mutex<()>,
    queue: FairQueue<SeedJob>,
    metrics: ServeMetrics,
    config: ServeConfig,
    draining: AtomicBool,
    /// Where a connection reaches the listener: its bound address, with
    /// an unspecified IP mapped to loopback. Drain connects here to wake
    /// the blocked acceptor.
    wake_addr: SocketAddr,
    /// Cancel tokens of requests admitted but not yet replied, so the
    /// drain deadline can cancel every straggler at once.
    active: Mutex<HashMap<u64, CancelToken>>,
    /// Seed workers still running; the last one to exit notifies
    /// `seed_workers_done`, which drain waits on.
    live_seed_workers: Mutex<usize>,
    seed_workers_done: Condvar,
}

impl Shared {
    /// The generation new requests are admitted under right now.
    fn current_generation(&self) -> Arc<Generation> {
        Arc::clone(
            &self
                .generation
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Publishes a new generation and returns it. Callers hold
    /// `reload_lock`, so the label sequence and the swap stay ordered.
    fn install_generation(
        &self,
        provenance: IndexProvenance,
        session: SeedingSession,
    ) -> Arc<Generation> {
        let n = self.generation_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let generation = Arc::new(Generation {
            label: format!("gen-{n}"),
            provenance,
            session,
        });
        *self
            .generation
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Arc::clone(&generation);
        generation
    }

    fn register(&self, id: u64, token: &CancelToken) {
        self.active
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, token.clone());
    }

    fn deregister(&self, id: u64) {
        self.active
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
    }

    /// Unblocks the acceptor's `accept()` with a throwaway connection so
    /// it re-checks `draining`. Best effort: a refused connection means
    /// the listener is already gone.
    fn wake_acceptor(&self) {
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_CONNECT_TIMEOUT);
    }

    /// Called by each seed worker as it exits.
    fn seed_worker_exited(&self) {
        let mut live = self
            .live_seed_workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *live -= 1;
        if *live == 0 {
            self.seed_workers_done.notify_all();
        }
    }

    /// Blocks until every seed worker has exited or `timeout` passes;
    /// returns whether they all exited.
    fn wait_seed_workers(&self, timeout: Duration) -> bool {
        let live = self
            .live_seed_workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (live, _) = self
            .seed_workers_done
            .wait_timeout_while(live, timeout, |live| *live > 0)
            .unwrap_or_else(PoisonError::into_inner);
        *live == 0
    }

    fn cancel_active(&self) -> usize {
        let active = self.active.lock().unwrap_or_else(PoisonError::into_inner);
        for token in active.values() {
            token.cancel();
        }
        active.len()
    }

    fn metrics_text(&self) -> String {
        let generation = self.current_generation();
        self.metrics.render_prometheus(&[
            ("casa_queue_depth", self.queue.queued() as f64),
            ("casa_inflight_bytes", self.queue.inflight_bytes() as f64),
            (
                "casa_partitions_quarantined_now",
                generation.session.quarantined_count() as f64,
            ),
            (
                "casa_index_generation",
                self.generation_seq.load(Ordering::SeqCst) as f64,
            ),
            (
                "casa_index_reloads_total",
                self.reloads.load(Ordering::SeqCst) as f64,
            ),
            ("casa_guard_threads", casa_core::live_guard_threads() as f64),
            (
                "casa_draining",
                if self.draining.load(Ordering::Relaxed) {
                    1.0
                } else {
                    0.0
                },
            ),
        ])
    }
}

/// A cheap, clonable control handle — safe to hand to a signal-handler
/// relay thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Switches the server to drain mode: the acceptor stops accepting,
    /// every later submission is shed with
    /// [`OverloadReason::ShuttingDown`], and already-admitted requests
    /// keep flowing to the seed workers. Idempotent.
    pub fn begin_drain(&self) {
        let first = !self.shared.draining.swap(true, Ordering::SeqCst);
        self.shared.queue.begin_drain();
        if first {
            log_info!("drain requested: no longer accepting work");
            self.shared.wake_acceptor();
        }
    }

    /// Whether drain mode is active.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// The active index generation's label (e.g. `"gen-2"`).
    pub fn generation_label(&self) -> String {
        self.shared.current_generation().label.clone()
    }

    /// Completed `/admin/reload` hot swaps since startup.
    pub fn reloads(&self) -> u64 {
        self.shared.reloads.load(Ordering::SeqCst)
    }
}

/// What [`Server::shutdown`] observed while draining.
#[derive(Clone, Copy, Debug)]
pub struct ShutdownReport {
    /// Every admitted request finished (or was shed typed) before the
    /// drain deadline.
    pub drained_in_time: bool,
    /// In-flight requests cancelled when the drain deadline expired.
    pub cancelled_in_flight: usize,
    /// Every detached watchdog guard thread exited before shutdown
    /// returned.
    pub guards_drained: bool,
}

impl ShutdownReport {
    /// A fully graceful shutdown: nothing was force-cancelled and no
    /// guard thread survived.
    pub fn clean(&self) -> bool {
        self.drained_in_time && self.cancelled_in_flight == 0 && self.guards_drained
    }
}

/// The running server: an acceptor, a connection-worker pool, and a
/// seeding-worker pool over one warm [`Seeder`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: std::thread::JoinHandle<()>,
    conn_workers: Vec<std::thread::JoinHandle<()>>,
    seed_workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the socket and spawns the worker pools. The seeder's warm
    /// state (engines, indexes, bitplanes) is shared by every seeding
    /// worker; per-request sessions are cheap clones carrying the
    /// request's cancel token.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the socket cannot be bound, or
    /// `InvalidInput` if the config's limits or pool sizes are
    /// degenerate.
    pub fn start(seeder: Seeder, config: ServeConfig) -> io::Result<Server> {
        Server::start_with_index(seeder, config, IndexProvenance::built())
    }

    /// Like [`start`](Server::start), recording where the seeder's index
    /// came from so `/health` can report it and `/admin/reload` can
    /// re-map the image without a restart.
    ///
    /// # Errors
    ///
    /// Same as [`start`](Server::start).
    pub fn start_with_index(
        seeder: Seeder,
        config: ServeConfig,
        provenance: IndexProvenance,
    ) -> io::Result<Server> {
        if config.conn_workers == 0 || config.seed_workers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve worker pools must be non-empty",
            ));
        }
        let limits = config
            .limits
            .validated()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let session = seeder.session().clone();
        session.set_profiling(config.profiling);
        let listener = TcpListener::bind(config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            generation: RwLock::new(Arc::new(Generation {
                label: "gen-1".to_string(),
                provenance,
                session,
            })),
            generation_seq: AtomicU64::new(1),
            reloads: AtomicU64::new(0),
            reload_lock: Mutex::new(()),
            queue: FairQueue::new(limits),
            metrics: ServeMetrics::new(),
            config: config.clone(),
            draining: AtomicBool::new(false),
            wake_addr: wake_addr(local_addr),
            active: Mutex::new(HashMap::new()),
            live_seed_workers: Mutex::new(config.seed_workers),
            seed_workers_done: Condvar::new(),
        });

        // Fixed pools wired acceptor -> conn workers -> fair queue ->
        // seed workers. The connection channel is bounded: when every
        // conn worker is busy and the backlog is full, the acceptor sheds
        // the connection with a typed 503 instead of queueing without
        // bound.
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(config.conn_workers * 4);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("casa-serve-accept".into())
                .spawn(move || accept_loop(&listener, &conn_tx, &shared))?
        };
        let conn_workers = (0..config.conn_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let conn_rx = Arc::clone(&conn_rx);
                std::thread::Builder::new()
                    .name(format!("casa-serve-conn-{i}"))
                    .spawn(move || {
                        loop {
                            let stream = {
                                let guard = conn_rx.lock().unwrap_or_else(PoisonError::into_inner);
                                guard.recv()
                            };
                            match stream {
                                Ok(stream) => handle_connection(stream, &shared),
                                Err(_) => break, // acceptor exited
                            }
                        }
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let seed_workers = (0..config.seed_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("casa-serve-seed-{i}"))
                    .spawn(move || {
                        while let Some(admitted) = shared.queue.pop() {
                            seed_one(admitted, &shared);
                        }
                        shared.seed_worker_exited();
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;
        {
            let generation = shared.current_generation();
            log_info!(
                "casa-serve listening on {local_addr} ({} partitions, {} index, {} conn + {} \
                 seed workers)",
                generation.session.partition_count(),
                generation.provenance.kind,
                config.conn_workers,
                config.seed_workers
            );
        }
        Ok(Server {
            shared,
            local_addr,
            acceptor,
            conn_workers,
            seed_workers,
        })
    }

    /// The bound socket address (resolves `port 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable control handle (drain trigger + state probes).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The server's metrics registry (shared with every worker).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Drains and stops the server: begins drain (if a signal handler
    /// has not already), waits up to the configured drain deadline for
    /// admitted requests to finish, cancels any stragglers, joins every
    /// pool thread, and finally waits for detached watchdog guard
    /// threads to exit.
    pub fn shutdown(self) -> ShutdownReport {
        self.handle().begin_drain();
        // Phase 1: let queued + in-flight work finish.
        let drained_in_time = self
            .shared
            .wait_seed_workers(self.shared.config.drain_deadline);
        // Phase 2: the deadline expired — cancel every in-flight request
        // so its session bails at the next tile boundary.
        let cancelled_in_flight = if drained_in_time {
            0
        } else {
            let n = self.shared.cancel_active();
            log_warn!("drain deadline expired; cancelled {n} in-flight requests");
            n
        };
        // Repeat the wake so one lost wake-up connection cannot hang the
        // join; a finished acceptor has already closed the listener.
        if !self.acceptor.is_finished() {
            self.shared.wake_acceptor();
        }
        let _ = self.acceptor.join();
        for worker in self.conn_workers {
            let _ = worker.join();
        }
        for worker in self.seed_workers {
            let _ = worker.join();
        }
        // Phase 3: no detached guard thread may outlive the server.
        let guards_drained = wait_for_guard_threads(
            self.shared
                .config
                .drain_deadline
                .max(Duration::from_secs(1)),
        );
        if !guards_drained {
            log_warn!("watchdog guard threads still live after drain");
        }
        log_info!(
            "casa-serve stopped (accepted={} completed={} rejected={} cancelled={})",
            self.shared.metrics.accepted(),
            self.shared.metrics.completed(),
            self.shared.metrics.rejected_total(),
            self.shared.metrics.cancelled()
        );
        ShutdownReport {
            drained_in_time,
            cancelled_in_flight,
            guards_drained,
        }
    }
}

/// The address a local client connects to for a listener bound to
/// `local`: an unspecified IP (`0.0.0.0` / `::`) becomes the loopback
/// address of the same family.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// The acceptor loop: blocks in `accept()` and hands each connection to
/// the conn workers. Drain sets `draining` and then connects to the
/// listener itself ([`Shared::wake_acceptor`]), so the flag is re-checked
/// after every accept; the connection that observes it is dropped
/// unserved and the loop exits, closing the listener. Only a failed
/// accept sleeps, for [`ACCEPT_ERROR_BACKOFF`].
fn accept_loop(listener: &TcpListener, conn_tx: &mpsc::SyncSender<TcpStream>, shared: &Shared) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(_) if shared.draining.load(Ordering::SeqCst) => break,
            Ok((stream, peer)) => {
                log_debug!("connection from {peer}");
                if let Err(mpsc::TrySendError::Full(stream)) = conn_tx.try_send(stream) {
                    // Every conn worker busy and the backlog full: shed at
                    // the door with the same typed overload response the
                    // queue produces, so clients see one failure shape.
                    shared.metrics.record_rejected(OverloadReason::QueueFull);
                    let mut stream = stream;
                    discard_input(&mut stream, MAX_DISCARD_BYTES);
                    let _ = write_overload(&mut stream, OverloadReason::QueueFull);
                }
            }
            Err(e) => {
                log_warn!("accept failed: {e}");
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
    // Dropping conn_tx disconnects the channel; conn workers exit after
    // finishing their current connection.
}

/// One parsed HTTP/1.1 request head.
struct RequestHead {
    method: String,
    path: String,
    content_length: usize,
    tenant: String,
    /// Body bytes already pulled into the header buffer.
    body_prefix: Vec<u8>,
}

/// Reads and parses the request line + headers (never the body).
fn read_head(stream: &mut TcpStream) -> io::Result<RequestHead> {
    stream.set_read_timeout(Some(HEADER_READ_TIMEOUT))?;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    }
    let mut content_length = 0usize;
    let mut tenant = "anonymous".to_string();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        } else if name.eq_ignore_ascii_case("x-casa-tenant") && !value.is_empty() {
            tenant = value.to_string();
        }
    }
    Ok(RequestHead {
        method,
        path,
        content_length,
        tenant,
        body_prefix: buf[header_end + 4..].to_vec(),
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Routes one connection (one request per connection; every response
/// closes it).
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let head = match read_head(&mut stream) {
        Ok(head) => head,
        Err(e) => {
            log_debug!("dropping connection: {e}");
            let _ = write_response(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                &[],
                format!("bad request: {e}\n").as_bytes(),
            );
            return;
        }
    };
    match (head.method.as_str(), head.path.as_str()) {
        ("GET", "/health") => {
            let generation = shared.current_generation();
            let status = if shared.draining.load(Ordering::SeqCst) {
                "draining"
            } else {
                "ok"
            };
            let body = format!(
                "{{\"status\":\"{status}\",\"generation\":\"{}\",\"provenance\":\"{}\",\
                 \"fingerprint\":\"{:016x}\",\"partitions\":{}}}\n",
                generation.label,
                generation.provenance.kind,
                generation.provenance.fingerprint,
                generation.session.partition_count()
            );
            let _ = write_response(
                &mut stream,
                "200 OK",
                "application/json",
                &[],
                body.as_bytes(),
            );
        }
        ("GET", "/metrics") => {
            let text = shared.metrics_text();
            let _ = write_response(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4",
                &[],
                text.as_bytes(),
            );
        }
        ("POST", "/seed") => handle_seed(stream, head, shared),
        ("POST", "/admin/reload") => handle_reload(stream, head, shared),
        (_, "/seed" | "/metrics" | "/health" | "/admin/reload") => {
            let _ = write_response(
                &mut stream,
                "405 Method Not Allowed",
                "text/plain",
                &[],
                b"method not allowed\n",
            );
        }
        _ => {
            let _ = write_response(
                &mut stream,
                "404 Not Found",
                "text/plain",
                &[],
                b"unknown path\n",
            );
        }
    }
}

/// The `POST /seed` route: admission, body parse, dispatch, reply wait
/// with client-liveness and deadline checks.
fn handle_seed(mut stream: TcpStream, head: RequestHead, shared: &Shared) {
    // Size check BEFORE reading the body: an oversized request is shed
    // without ever buffering its payload.
    if head.content_length > shared.queue.limits().max_request_bytes {
        shared
            .metrics
            .record_rejected(OverloadReason::RequestTooLarge);
        // Discard (never buffer) the oversized payload so the response
        // is not clobbered by a TCP reset; truly abusive sizes are
        // dropped mid-stream instead.
        let pending = head.content_length.saturating_sub(head.body_prefix.len());
        discard_input(&mut stream, pending.min(MAX_DISCARD_BYTES));
        let _ = write_overload(&mut stream, OverloadReason::RequestTooLarge);
        return;
    }
    let mut body = head.body_prefix;
    if body.len() > head.content_length {
        body.truncate(head.content_length);
    }
    let mut rest = vec![0u8; head.content_length - body.len()];
    if stream.read_exact(&mut rest).is_err() {
        return; // client went away mid-body; nothing to answer
    }
    body.extend_from_slice(&rest);
    let reads = match parse_reads(&body) {
        Ok(reads) => reads,
        Err(msg) => {
            let _ = write_response(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                &[],
                format!("{msg}\n").as_bytes(),
            );
            return;
        }
    };

    // Pin the generation now: its partition overlap bounds the read
    // length, and a reload before the job runs must not change either.
    let generation = shared.current_generation();
    if let Err(e) = generation.session.check_read_lengths(&reads) {
        let _ = write_response(
            &mut stream,
            "400 Bad Request",
            "text/plain",
            &[],
            format!("{e}\n").as_bytes(),
        );
        return;
    }

    let id = next_request_id();
    let _scope = RequestScope::enter(id);
    let token = CancelToken::new();
    let (reply_tx, reply_rx) = mpsc::sync_channel::<SeedReply>(1);
    let job = SeedJob {
        id,
        reads,
        token: token.clone(),
        generation,
        reply: reply_tx,
    };
    if let Err((reason, _job)) = shared
        .queue
        .submit(&head.tenant, head.content_length.max(1), job)
    {
        shared.metrics.record_rejected(reason);
        log_debug!("shed request from tenant {:?}: {reason}", head.tenant);
        let _ = write_overload(&mut stream, reason);
        return;
    }
    shared.metrics.record_accepted();
    shared.register(id, &token);
    log_debug!("accepted request from tenant {:?}", head.tenant);

    // Wait for the seeding reply, watching the client and the deadline.
    // A vanished client or an expired deadline cancels the in-flight
    // session (tiles bail at the next boundary) — the request's budget
    // is returned to the queue by the seed worker either way.
    let deadline = Instant::now() + shared.config.request_deadline;
    let outcome = loop {
        match reply_rx.recv_timeout(REPLY_POLL_SLICE) {
            Ok(reply) => break Some(reply),
            Err(mpsc::RecvTimeoutError::Disconnected) => break None,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    token.cancel();
                    shared.deregister(id);
                    let _ = write_response(
                        &mut stream,
                        "504 Gateway Timeout",
                        "application/json",
                        &[],
                        b"{\"error\":\"deadline\"}\n",
                    );
                    return;
                }
                if client_gone(&stream) {
                    log_debug!("client disconnected; cancelling request");
                    token.cancel();
                    shared.deregister(id);
                    return;
                }
            }
        }
    };
    shared.deregister(id);
    match outcome {
        Some(SeedReply::Done { smems, degraded }) => {
            let mut out = String::new();
            render_smems(&mut out, &smems);
            let degraded_value = if degraded { "true" } else { "false" };
            let id_value = id.to_string();
            let _ = write_response(
                &mut stream,
                "200 OK",
                "text/tab-separated-values",
                &[
                    ("X-Casa-Degraded", degraded_value),
                    ("X-Casa-Request-Id", &id_value),
                ],
                out.as_bytes(),
            );
        }
        Some(SeedReply::Cancelled) => {
            // Cancelled by drain (the client is still here, else we would
            // have returned above): answer with the typed overload shape.
            let _ = write_overload(&mut stream, OverloadReason::ShuttingDown);
        }
        Some(SeedReply::Failed(what)) => {
            let _ = write_response(
                &mut stream,
                "500 Internal Server Error",
                "text/plain",
                &[],
                format!("seeding failed: {what}\n").as_bytes(),
            );
        }
        None => {
            let _ = write_response(
                &mut stream,
                "500 Internal Server Error",
                "text/plain",
                &[],
                b"seeding worker dropped the request\n",
            );
        }
    }
}

/// Largest admissible `/admin/reload` body (it carries an image path).
const MAX_RELOAD_BODY: usize = 4 << 10;

/// The `POST /admin/reload` route: map a new index image, build a fresh
/// generation carrying over the active generation's runtime knobs
/// (workers, backend, fault plan, tile deadline), and swap it in
/// atomically. The body is the image path to load; an empty body re-maps
/// the path the active generation came from. In-flight requests keep the
/// generation they were admitted under — zero requests fail because of a
/// swap — and the old mapping is unmapped when its last pin drops.
fn handle_reload(mut stream: TcpStream, head: RequestHead, shared: &Shared) {
    let fail = |stream: &mut TcpStream, status: &str, what: &str| {
        let _ = write_response(
            stream,
            status,
            "text/plain",
            &[],
            format!("reload failed: {what}\n").as_bytes(),
        );
    };
    if head.content_length > MAX_RELOAD_BODY {
        fail(&mut stream, "413 Payload Too Large", "body too large");
        return;
    }
    let mut body = head.body_prefix;
    if body.len() > head.content_length {
        body.truncate(head.content_length);
    }
    let mut rest = vec![0u8; head.content_length - body.len()];
    if stream.read_exact(&mut rest).is_err() {
        return; // client went away mid-body; nothing to answer
    }
    body.extend_from_slice(&rest);
    let path_text = match std::str::from_utf8(&body) {
        Ok(text) => text.trim().to_string(),
        Err(_) => {
            fail(&mut stream, "400 Bad Request", "body is not utf-8");
            return;
        }
    };
    // One reload at a time: the label sequence and the swap must not
    // interleave with a concurrent reload's.
    let _guard = shared
        .reload_lock
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let old = shared.current_generation();
    let path = if path_text.is_empty() {
        match &old.provenance.source {
            Some(source) => source.clone(),
            None => {
                fail(
                    &mut stream,
                    "400 Bad Request",
                    "empty body and the active index was not mapped from an image \
                     (send the image path as the request body)",
                );
                return;
            }
        }
    } else {
        PathBuf::from(&path_text)
    };
    let index = match LoadedIndex::open(&path) {
        Ok(index) => index,
        Err(e) => {
            log_warn!("reload rejected: cannot map {}: {e}", path.display());
            fail(
                &mut stream,
                "400 Bad Request",
                &format!("cannot map {}: {e}", path.display()),
            );
            return;
        }
    };
    let session = match SeedingSession::from_image(
        &index,
        old.session.workers(),
        *old.session.fault_plan(),
        old.session.backend(),
    )
    .and_then(|session| session.with_kernel_backend(old.session.kernel_backend()))
    {
        Ok(session) => session,
        Err(e) => {
            log_warn!(
                "reload rejected: cannot build session from {}: {e}",
                path.display()
            );
            fail(&mut stream, "500 Internal Server Error", &e.to_string());
            return;
        }
    };
    let session = session.with_tile_deadline(old.session.tile_deadline());
    session.set_profiling(shared.config.profiling);
    let provenance = IndexProvenance::mapped(index.fingerprint(), path.clone());
    let generation = shared.install_generation(provenance, session);
    shared.reloads.fetch_add(1, Ordering::SeqCst);
    log_info!(
        "hot-swapped index {} -> {}: {} ({} partitions, fingerprint {:016x})",
        old.label,
        generation.label,
        path.display(),
        generation.session.partition_count(),
        generation.provenance.fingerprint
    );
    let body = format!(
        "{{\"status\":\"reloaded\",\"generation\":\"{}\",\"previous\":\"{}\",\
         \"fingerprint\":\"{:016x}\",\"partitions\":{}}}\n",
        generation.label,
        old.label,
        generation.provenance.fingerprint,
        generation.session.partition_count()
    );
    let _ = write_response(
        &mut stream,
        "200 OK",
        "application/json",
        &[],
        body.as_bytes(),
    );
}

/// One seed worker iteration: run the admitted job and reply.
fn seed_one(admitted: Admitted<SeedJob>, shared: &Shared) {
    let Admitted {
        tenant,
        bytes,
        item: job,
    } = admitted;
    let _scope = RequestScope::enter(job.id);
    if job.token.is_cancelled() {
        // The client gave up (or the drain deadline fired) while the job
        // sat in the queue: skip the work entirely.
        shared.metrics.record_cancelled();
        shared.queue.complete(bytes);
        let _ = job.reply.send(SeedReply::Cancelled);
        return;
    }
    let started = Instant::now();
    // Seed on the generation pinned at admission: a reload between
    // admission and execution must not change this request's index.
    let session = job
        .generation
        .session
        .clone()
        .with_cancel_token(Some(job.token.clone()));
    let reply = match session.try_seed_reads(&job.reads) {
        Ok(run) => {
            let degraded = session.quarantined_count() > 0;
            shared
                .metrics
                .record_completed(started.elapsed(), &run.stats, degraded);
            log_debug!(
                "tenant {tenant:?}: seeded {} reads in {:.1} ms{}",
                job.reads.len(),
                started.elapsed().as_secs_f64() * 1e3,
                if degraded { " (degraded)" } else { "" }
            );
            SeedReply::Done {
                smems: run.smems,
                degraded,
            }
        }
        Err(Error::Cancelled) => {
            shared.metrics.record_cancelled();
            SeedReply::Cancelled
        }
        Err(e) => {
            log_warn!("tenant {tenant:?}: seeding failed: {e}");
            SeedReply::Failed(e.to_string())
        }
    };
    shared.queue.complete(bytes);
    // The conn worker may have hung up (deadline/disconnect) — a failed
    // send is fine, the bookkeeping above already happened.
    let _ = job.reply.send(reply);
}

/// Parses a request body: one ACGT read per line (blank lines skipped).
fn parse_reads(body: &[u8]) -> Result<Vec<PackedSeq>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let mut reads = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let read =
            PackedSeq::from_ascii(line.as_bytes()).map_err(|e| format!("line {}: {e}", ln + 1))?;
        reads.push(read);
    }
    if reads.is_empty() {
        return Err("no reads in request body".to_string());
    }
    Ok(reads)
}

/// Renders per-read SMEM lists as `read_index\tstart\tend\thits` TSV —
/// the same hit encoding as the CLI's seed dump, so bit-identity against
/// a CLI run is a string comparison.
fn render_smems(out: &mut String, smems: &[Vec<Smem>]) {
    use std::fmt::Write as _;
    for (ri, read_smems) in smems.iter().enumerate() {
        for s in read_smems {
            let _ = writeln!(
                out,
                "{ri}\t{}\t{}\t{}",
                s.read_start,
                s.read_end,
                s.hits
                    .iter()
                    .map(|h| h.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
        }
    }
}

/// Largest request remainder drained (into a fixed scratch buffer,
/// never accumulated) before a shed response, so the client receives the
/// typed rejection instead of a TCP reset.
const MAX_DISCARD_BYTES: usize = 1 << 20;

/// Reads and throws away up to `cap` pending request bytes. Closing a
/// socket with unread input aborts the connection (RST) and can discard
/// the in-flight response; a bounded drain lets shed clients see their
/// typed rejection. Memory stays constant: one scratch buffer.
fn discard_input(stream: &mut TcpStream, cap: usize) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut scratch = [0u8; 8 << 10];
    let mut seen = 0usize;
    while seen < cap {
        match stream.read(&mut scratch) {
            Ok(0) => break, // client finished and closed
            Ok(n) => seen += n,
            Err(_) => break, // nothing more within the timeout
        }
    }
}

/// Whether the request's client closed its socket (a zero-byte peek).
fn client_gone(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    if stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .is_err()
    {
        return true;
    }
    match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false, // pipelined bytes; client is alive
        Err(e) => !matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ),
    }
}

/// Writes the typed overload response for `reason` (`413` for the
/// never-admissible oversize case, `503` + `Retry-After` otherwise).
fn write_overload(stream: &mut TcpStream, reason: OverloadReason) -> io::Result<()> {
    let status = match reason {
        OverloadReason::RequestTooLarge => "413 Payload Too Large",
        _ => "503 Service Unavailable",
    };
    let body = format!(
        "{{\"error\":\"overloaded\",\"reason\":\"{reason}\",\"retriable\":{}}}\n",
        reason.retriable()
    );
    let retry = [("Retry-After", "1")];
    let headers: &[(&str, &str)] = if reason.retriable() { &retry } else { &[] };
    write_response(stream, status, "application/json", headers, body.as_bytes())
}

/// Writes one HTTP/1.1 response and flushes it; every response closes
/// the connection.
fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    // Head and body go out in one write: with Nagle on, a second small
    // write would wait for the peer's delayed ACK of the first.
    let mut response = Vec::with_capacity(256 + body.len());
    write!(response, "HTTP/1.1 {status}\r\n")?;
    write!(response, "Content-Type: {content_type}\r\n")?;
    write!(response, "Content-Length: {}\r\n", body.len())?;
    write!(response, "Connection: close\r\n")?;
    for (name, value) in extra_headers {
        write!(response, "{name}: {value}\r\n")?;
    }
    write!(response, "\r\n")?;
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

/// Parsed `casa-serve` command-line options.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Index image to mmap instead of building the index from a
    /// reference (`--index-image`; the embedded config wins over
    /// `--partition-len`/`--read-len`).
    pub index_image: Option<PathBuf>,
    /// FASTA reference to serve (`None` means `--synth` was given).
    pub reference: Option<std::path::PathBuf>,
    /// Synthetic reference length (used when no FASTA is given).
    pub synth_len: Option<usize>,
    /// Seed for the synthetic reference.
    pub synth_seed: u64,
    /// Partition length for the derived config.
    pub partition_len: usize,
    /// Read length the derived config is sized for.
    pub read_len: usize,
    /// Seeding worker threads per request batch.
    pub threads: Option<usize>,
    /// Watchdog deadline per tile attempt, if any.
    pub tile_deadline: Option<Duration>,
    /// Fault spec string (`FaultPlan::parse` format), if any.
    pub fault_spec: Option<String>,
    /// The server shell's own knobs.
    pub serve: ServeConfig,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            index_image: None,
            reference: None,
            synth_len: None,
            synth_seed: 1,
            partition_len: 1_000_000,
            read_len: 101,
            threads: None,
            tile_deadline: None,
            fault_spec: None,
            serve: ServeConfig::default(),
        }
    }
}

impl ServeOptions {
    /// Parses command-line arguments (without the program name).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the bad flag or value.
    pub fn parse(args: &[String]) -> Result<ServeOptions, String> {
        let mut opts = ServeOptions::default();
        let mut it = args.iter();
        let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--reference" => opts.reference = Some(value(arg, &mut it)?.into()),
                "--index-image" => opts.index_image = Some(value(arg, &mut it)?.into()),
                "--synth" => {
                    opts.synth_len = Some(
                        value(arg, &mut it)?
                            .parse()
                            .map_err(|_| "--synth needs a length".to_string())?,
                    );
                }
                "--synth-seed" => {
                    opts.synth_seed = value(arg, &mut it)?
                        .parse()
                        .map_err(|_| "--synth-seed needs an integer".to_string())?;
                }
                "--addr" => {
                    opts.serve.addr = value(arg, &mut it)?
                        .parse()
                        .map_err(|_| "--addr needs host:port".to_string())?;
                }
                "--partition-len" => {
                    opts.partition_len = value(arg, &mut it)?
                        .parse()
                        .map_err(|_| "--partition-len needs an integer".to_string())?;
                }
                "--read-len" => {
                    opts.read_len = value(arg, &mut it)?
                        .parse()
                        .map_err(|_| "--read-len needs an integer".to_string())?;
                }
                "--threads" => {
                    opts.threads = Some(
                        value(arg, &mut it)?
                            .parse()
                            .map_err(|_| "--threads needs an integer".to_string())?,
                    );
                }
                "--conn-workers" => {
                    opts.serve.conn_workers = value(arg, &mut it)?
                        .parse()
                        .map_err(|_| "--conn-workers needs an integer".to_string())?;
                }
                "--seed-workers" => {
                    opts.serve.seed_workers = value(arg, &mut it)?
                        .parse()
                        .map_err(|_| "--seed-workers needs an integer".to_string())?;
                }
                "--queue-depth" => {
                    opts.serve.limits.queue_depth = value(arg, &mut it)?
                        .parse()
                        .map_err(|_| "--queue-depth needs an integer".to_string())?;
                }
                "--max-request-bytes" => {
                    opts.serve.limits.max_request_bytes = value(arg, &mut it)?
                        .parse()
                        .map_err(|_| "--max-request-bytes needs an integer".to_string())?;
                }
                "--max-inflight-bytes" => {
                    opts.serve.limits.max_inflight_bytes = value(arg, &mut it)?
                        .parse()
                        .map_err(|_| "--max-inflight-bytes needs an integer".to_string())?;
                }
                "--request-deadline-ms" => {
                    opts.serve.request_deadline = Duration::from_millis(
                        value(arg, &mut it)?
                            .parse()
                            .map_err(|_| "--request-deadline-ms needs an integer".to_string())?,
                    );
                }
                "--drain-deadline-ms" => {
                    opts.serve.drain_deadline = Duration::from_millis(
                        value(arg, &mut it)?
                            .parse()
                            .map_err(|_| "--drain-deadline-ms needs an integer".to_string())?,
                    );
                }
                "--tile-deadline-ms" => {
                    opts.tile_deadline = Some(Duration::from_millis(
                        value(arg, &mut it)?
                            .parse()
                            .map_err(|_| "--tile-deadline-ms needs an integer".to_string())?,
                    ));
                }
                "--fault-spec" => opts.fault_spec = Some(value(arg, &mut it)?),
                "--no-profiling" => opts.serve.profiling = false,
                other => return Err(format!("unknown flag {other:?} (see --help)")),
            }
        }
        if opts.reference.is_none() && opts.synth_len.is_none() && opts.index_image.is_none() {
            return Err(
                "need --reference <fasta>, --index-image <image>, or --synth <len>".to_string(),
            );
        }
        Ok(opts)
    }

    /// Builds the warm [`Seeder`] these options describe: loads (or
    /// synthesizes) the reference and derives the accelerator
    /// configuration.
    ///
    /// # Errors
    ///
    /// A human-readable message for unreadable FASTA files, bad fault
    /// specs, or config derivation failures.
    pub fn build_seeder(&self) -> Result<Seeder, String> {
        use casa_genome::synth::{generate_reference, ReferenceProfile};

        let reference = match (&self.reference, self.synth_len) {
            (Some(path), _) => {
                crate::cli::load_reference(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?
                    .seq
            }
            (None, Some(len)) => {
                generate_reference(&ReferenceProfile::human_like(), len, self.synth_seed)
            }
            (None, None) => return Err("need --reference <fasta> or --synth <len>".to_string()),
        };
        let mut builder = Seeder::builder(&reference)
            .partition_len(self.partition_len)
            .read_len(self.read_len);
        if let Some(threads) = self.threads {
            builder = builder.workers(threads);
        }
        if let Some(deadline) = self.tile_deadline {
            builder = builder.tile_deadline(deadline);
        }
        if let Some(spec) = &self.fault_spec {
            let plan =
                casa_core::FaultPlan::parse(spec).map_err(|e| format!("bad --fault-spec: {e}"))?;
            builder = builder.fault_plan(plan);
        }
        builder
            .build()
            .map_err(|e| format!("cannot build seeder: {e}"))
    }

    /// Builds the warm [`Seeder`] plus its [`IndexProvenance`]: mapped
    /// zero-copy from `--index-image` when given, otherwise built
    /// in-process via [`build_seeder`](Self::build_seeder). This is what
    /// the binary feeds [`Server::start_with_index`].
    ///
    /// # Errors
    ///
    /// A human-readable message for unmappable images, unreadable FASTA
    /// files, bad fault specs, or config derivation failures.
    pub fn build_server_source(&self) -> Result<(Seeder, IndexProvenance), String> {
        let Some(path) = &self.index_image else {
            return Ok((self.build_seeder()?, IndexProvenance::built()));
        };
        // Startup uses the fast open (header + meta verification, payload
        // checksums deferred) so a served process reaches its first seed
        // in O(ms); `/admin/reload` keeps the fully verifying open since
        // it swaps a new artifact into a live server.
        let index = casa_core::LoadedIndex::open_fast(path)
            .map_err(|e| format!("cannot map {}: {e}", path.display()))?;
        let plan = self
            .fault_spec
            .as_deref()
            .map(casa_core::FaultPlan::parse)
            .transpose()
            .map_err(|e| format!("bad --fault-spec: {e}"))?;
        let (backend, plan, workers) = casa_core::env_defaults(None, plan, self.threads)
            .map_err(|e| format!("bad environment: {e}"))?;
        let seeder = Seeder::from_image_with(&index, workers, plan, backend)
            .map_err(|e| format!("cannot serve {}: {e}", path.display()))?
            .with_tile_deadline(self.tile_deadline);
        let provenance = IndexProvenance::mapped(index.fingerprint(), path.clone());
        Ok((seeder, provenance))
    }

    /// The usage text for `casa-serve --help`.
    pub fn usage() -> &'static str {
        "casa-serve: resident multi-tenant SMEM seeding server\n\
         \n\
         reference (one required):\n\
         \x20 --reference <fasta>        serve this FASTA reference\n\
         \x20 --index-image <image>      mmap a prebuilt index image (zero-copy,\n\
         \x20                            O(ms) cold start; see `casa-seed index build`)\n\
         \x20 --synth <len>              serve a synthetic human-like reference\n\
         \x20 --synth-seed <n>           synthetic reference seed (default 1)\n\
         \n\
         server:\n\
         \x20 --addr <host:port>         listen address (default 127.0.0.1:0)\n\
         \x20 --conn-workers <n>         connection threads (default 4)\n\
         \x20 --seed-workers <n>         seeding threads (default 2)\n\
         \x20 --queue-depth <n>          per-tenant queue depth (default 8)\n\
         \x20 --max-request-bytes <n>    largest admissible request body\n\
         \x20 --max-inflight-bytes <n>   global admitted-payload budget\n\
         \x20 --request-deadline-ms <n>  per-request wall-clock budget\n\
         \x20 --drain-deadline-ms <n>    graceful-drain window on SIGTERM\n\
         \x20 --no-profiling             disable per-stage /metrics latency\n\
         \n\
         seeding:\n\
         \x20 --partition-len <bases>    reference partition length\n\
         \x20 --read-len <bases>         read length the config is sized for\n\
         \x20 --threads <n>              session workers per request\n\
         \x20 --tile-deadline-ms <n>     watchdog deadline per tile attempt\n\
         \x20 --fault-spec <spec>        inject faults (FaultPlan::parse syntax)\n\
         \n\
         endpoints: POST /seed (one ACGT read per line; X-Casa-Tenant header),\n\
         GET /metrics (Prometheus text), GET /health (JSON: status, generation,\n\
         provenance, fingerprint), POST /admin/reload (body: image path; empty\n\
         body re-maps the current image) — in-flight requests drain on the old\n\
         generation, new requests route to the new one\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_round_trips() {
        let opts = ServeOptions::parse(&args(&[
            "--synth",
            "50000",
            "--addr",
            "127.0.0.1:8080",
            "--queue-depth",
            "3",
            "--max-request-bytes",
            "1024",
            "--max-inflight-bytes",
            "4096",
            "--seed-workers",
            "5",
            "--request-deadline-ms",
            "1500",
            "--drain-deadline-ms",
            "2500",
            "--tile-deadline-ms",
            "40",
            "--threads",
            "2",
            "--no-profiling",
        ]))
        .unwrap();
        assert_eq!(opts.synth_len, Some(50_000));
        assert_eq!(opts.serve.addr, "127.0.0.1:8080".parse().unwrap());
        assert_eq!(opts.serve.limits.queue_depth, 3);
        assert_eq!(opts.serve.limits.max_request_bytes, 1024);
        assert_eq!(opts.serve.limits.max_inflight_bytes, 4096);
        assert_eq!(opts.serve.seed_workers, 5);
        assert_eq!(opts.serve.request_deadline, Duration::from_millis(1500));
        assert_eq!(opts.serve.drain_deadline, Duration::from_millis(2500));
        assert_eq!(opts.tile_deadline, Some(Duration::from_millis(40)));
        assert_eq!(opts.threads, Some(2));
        assert!(!opts.serve.profiling);
    }

    #[test]
    fn index_image_option_parses_and_satisfies_the_reference_requirement() {
        let opts = ServeOptions::parse(&args(&["--index-image", "/tmp/ref.casaimg"])).unwrap();
        assert_eq!(opts.index_image, Some(PathBuf::from("/tmp/ref.casaimg")));
        assert!(opts.reference.is_none() && opts.synth_len.is_none());
        let built = IndexProvenance::built();
        assert_eq!((built.kind, built.fingerprint), ("built", 0));
        let mapped = IndexProvenance::mapped(7, PathBuf::from("x"));
        assert_eq!(mapped.kind, "mapped");
        assert_eq!(mapped.source.as_deref(), Some(std::path::Path::new("x")));
    }

    #[test]
    fn options_require_a_reference_and_reject_garbage() {
        assert!(ServeOptions::parse(&[])
            .unwrap_err()
            .contains("--reference"));
        assert!(ServeOptions::parse(&args(&["--warp", "9"]))
            .unwrap_err()
            .contains("--warp"));
        assert!(ServeOptions::parse(&args(&["--synth"]))
            .unwrap_err()
            .contains("value"));
        assert!(ServeOptions::parse(&args(&["--synth", "x"])).is_err());
        assert!(!ServeOptions::usage().is_empty());
    }

    #[test]
    fn reads_parse_and_reject_bad_bodies() {
        let reads = parse_reads(b"ACGT\n\nTTTT\r\nGG\n").unwrap();
        assert_eq!(reads.len(), 3);
        assert_eq!(reads[0].len(), 4);
        assert!(parse_reads(b"").is_err());
        assert!(parse_reads(b"ACGT\nNOPE!\n")
            .unwrap_err()
            .contains("line 2"));
        assert!(parse_reads(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn header_end_is_found_and_bounded() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    #[test]
    fn smem_rendering_matches_the_tsv_contract() {
        let smems = vec![
            vec![Smem {
                read_start: 0,
                read_end: 40,
                hits: vec![7, 1000],
            }],
            vec![],
            vec![Smem {
                read_start: 3,
                read_end: 20,
                hits: vec![42],
            }],
        ];
        let mut out = String::new();
        render_smems(&mut out, &smems);
        assert_eq!(out, "0\t0\t40\t7,1000\n2\t3\t20\t42\n");
    }
}
