//! The `sunder serve` daemon: a resilient streaming match service.
//!
//! One [`MatchServer`] owns a TCP listener, a [`PipelineCache`], and the
//! current pattern-DB epoch. Each accepted connection becomes one
//! [`StreamSession`] driven by two threads:
//!
//! * a **reader** that parses length-prefixed frames off the socket and
//!   pushes them into a *bounded* work queue — when the session's worker
//!   falls behind, the push blocks, which stops the reader, which fills
//!   the kernel socket buffer, which stalls the sender: end-to-end
//!   backpressure with no unbounded buffering anywhere
//!   (`serve_backpressure_stalls_total` counts the stalls);
//! * a **worker** that pops work items, feeds the session (each chunk
//!   under its own deadline [`Budget`] wired to the session's
//!   [`CancelToken`]), and writes replies. Every chunk runs inside
//!   `catch_unwind`, so a panicking automaton (or an injected
//!   [`FaultKind::Panic`]) poisons exactly one session: the client gets
//!   an `Error` frame, the fault is attributed in telemetry, and every
//!   other session keeps streaming.
//!
//! **Admission control** happens in two steps: a global session cap at
//! accept time (`ERR_BUSY`) and a per-tenant quota at `Hello`
//! (`ERR_QUOTA`). **Hot reload** swaps the epoch atomically: new
//! sessions pin the new pipeline; in-flight sessions finish on the
//! `Arc` they pinned at open. **Graceful drain** stops accepting,
//! waits for in-flight sessions up to a hard deadline, then cancels
//! their budgets and shuts their sockets down.
//!
//! Server-side fault injection reuses [`FaultPlan`]: worker-level
//! directives (`panic ITEM`, `stall ITEM MS`) are matched against the
//! trailing integer of the *tenant name* (`tenant "s7"` → plan item 7),
//! so injection is deterministic no matter the order connections land.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sunder_artifact::CompiledPipeline;
use sunder_automata::partition::ShardSpec;
use sunder_automata::{anml, AutomataError, Nfa};
use sunder_resilience::{Budget, CancelToken, FaultKind, FaultPlan};
use sunder_sim::EngineKind;
use sunder_transform::PipelineConfig;

use crate::cache::PipelineCache;
use crate::frame::{
    decode_client, read_raw, ClientFrame, FrameError, ServerFrame, DEFAULT_MAX_FRAME_BYTES,
    ERR_BUSY, ERR_DEADLINE, ERR_INTERNAL, ERR_PANIC, ERR_PROTOCOL, ERR_QUOTA, ERR_RELOAD,
    ERR_SHUTDOWN, ERR_VERSION, PROTOCOL_VERSION,
};
use crate::session::{SessionError, StreamSession};

/// Tuning and robustness knobs for a [`MatchServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pipeline configuration compiled for every pattern DB.
    pub config: PipelineConfig,
    /// Sharding spec for compiled pipelines.
    pub spec: ShardSpec,
    /// Per-shard engine kind.
    pub engine: EngineKind,
    /// Global cap on concurrently open sessions (`ERR_BUSY` beyond it).
    pub max_sessions: usize,
    /// Per-tenant cap on concurrently open sessions (`ERR_QUOTA`).
    pub per_tenant_sessions: usize,
    /// Bounded work-queue depth per session (backpressure threshold).
    pub queue_depth: usize,
    /// Cap on a frame's declared length.
    pub max_frame_bytes: u32,
    /// Per-chunk execution deadline (`ERR_DEADLINE` when tripped).
    pub chunk_deadline: Option<Duration>,
    /// Hard deadline for [`MatchServer::drain`].
    pub drain_deadline: Duration,
    /// Server-side injected faults, keyed by tenant trailing integer.
    pub fault_plan: FaultPlan,
    /// Observability listener address (`/metrics`, `/healthz`,
    /// `/readyz`, `/statusz`); `None` disables the listener.
    pub obs_addr: Option<String>,
    /// Where flight-recorder post-mortems land; `None` disables the
    /// per-session recorder entirely.
    pub flight_recorder_dir: Option<std::path::PathBuf>,
    /// Flight-recorder ring capacity (events per session).
    pub flight_events: usize,
    /// Per-tenant chunk-service SLO: chunks slower than this burn
    /// `serve_slo_violations_total{tenant}`.
    pub chunk_slo: Duration,
    /// Slow-session threshold: a single chunk over this dumps the
    /// session's flight recorder (reason `slow`).
    pub slow_chunk: Option<Duration>,
    /// How often the obs snapshot thread diffs counters into
    /// `*_per_sec` rate gauges.
    pub snapshot_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            config: PipelineConfig::Identity,
            spec: ShardSpec::MaxShards(4),
            engine: EngineKind::Adaptive,
            max_sessions: 256,
            per_tenant_sessions: 64,
            queue_depth: 8,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            chunk_deadline: None,
            drain_deadline: Duration::from_secs(5),
            fault_plan: FaultPlan::none(),
            obs_addr: None,
            flight_recorder_dir: None,
            flight_events: crate::flight::DEFAULT_FLIGHT_EVENTS,
            chunk_slo: Duration::from_millis(100),
            slow_chunk: None,
            snapshot_interval: Duration::from_secs(1),
        }
    }
}

/// One hot-reload generation of the pattern DB.
#[derive(Debug)]
pub struct LoadedDb {
    /// Monotonic reload generation (first load is epoch 1).
    pub epoch: u64,
    /// The compiled pipeline sessions of this epoch pin.
    pub pipeline: Arc<CompiledPipeline>,
}

/// What [`MatchServer::drain`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Sessions that finished on their own within the deadline.
    pub drained: usize,
    /// Sessions forcibly cancelled at the deadline.
    pub forced: usize,
    /// Wall-clock time the drain took.
    pub duration: Duration,
}

/// Items flowing from a session's reader to its worker.
enum Work {
    Frame(ClientFrame),
    /// Reader-side failure (frame error); worker reports and closes.
    Bad(FrameError),
    /// Socket EOF or transport error: no more input ever.
    Eof,
}

/// The bounded reader→worker queue. Pushing past `depth` blocks the
/// reader (that *is* the backpressure) and counts a stall. Every item
/// is timestamped at enqueue so the worker can attribute queue wait to
/// the tenant's latency histogram.
struct WorkQueue {
    items: Mutex<VecDeque<(Work, Instant)>>,
    depth: usize,
    cv: Condvar,
    /// Pre-interned: the push path runs per frame.
    stalls: sunder_telemetry::CounterHandle,
}

impl WorkQueue {
    fn new(depth: usize) -> WorkQueue {
        WorkQueue {
            items: Mutex::new(VecDeque::new()),
            depth: depth.max(1),
            cv: Condvar::new(),
            stalls: sunder_telemetry::counter_handle("serve_backpressure_stalls_total", &[]),
        }
    }

    fn push(&self, item: Work) {
        let enqueued = Instant::now();
        let mut q = self.items.lock().unwrap();
        if q.len() >= self.depth {
            self.stalls.add(1);
            while q.len() >= self.depth {
                q = self.cv.wait(q).unwrap();
            }
        }
        q.push_back((item, enqueued));
        self.cv.notify_all();
    }

    /// Pops the next item plus how long it sat in the queue.
    fn pop(&self) -> (Work, Duration) {
        let mut q = self.items.lock().unwrap();
        loop {
            if let Some((item, enqueued)) = q.pop_front() {
                self.cv.notify_all();
                return (item, enqueued.elapsed());
            }
            q = self.cv.wait(q).unwrap();
        }
    }
}

/// Per-connection registry entry so drain can reach into live sessions.
pub(crate) struct ConnHandle {
    cancel: CancelToken,
    sock: Arc<TcpStream>,
}

pub(crate) struct ServerInner {
    pub(crate) cfg: ServerConfig,
    pub(crate) cache: PipelineCache,
    pub(crate) db: Mutex<Arc<LoadedDb>>,
    pub(crate) next_epoch: AtomicU64,
    pub(crate) draining: std::sync::atomic::AtomicBool,
    /// True while a hot reload is compiling the next epoch; `/readyz`
    /// reports 503 for the window.
    pub(crate) reloading: std::sync::atomic::AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) tenants: Mutex<HashMap<String, usize>>,
    pub(crate) conns: Mutex<HashMap<u64, ConnHandle>>,
    pub(crate) next_conn: AtomicU64,
    /// Sessions ever accepted (telemetry-independent, for `/statusz`).
    pub(crate) sessions_started: AtomicU64,
    /// Frames currently sitting in reader→worker queues, server-wide.
    pub(crate) queued: AtomicUsize,
    /// When the server started (uptime in `/statusz`).
    pub(crate) started: Instant,
}

impl ServerInner {
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    pub(crate) fn is_reloading(&self) -> bool {
        self.reloading.load(Ordering::Acquire)
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.db.lock().unwrap().epoch
    }
}

/// A running streaming match server. Dropping it drains with the
/// configured deadline.
pub struct MatchServer {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    obs: Option<crate::obs::ObsHandle>,
    drained: bool,
}

impl std::fmt::Debug for MatchServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchServer")
            .field("addr", &self.addr)
            .field("active", &self.inner.active.load(Ordering::Relaxed))
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl MatchServer {
    /// Compiles `nfa` as epoch 1 and starts listening on `addr`
    /// (use port 0 to let the OS pick; see [`MatchServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Compilation failures and socket errors, as strings (the caller is
    /// the CLI).
    pub fn start(addr: &str, nfa: &Nfa, cfg: ServerConfig) -> Result<MatchServer, String> {
        let cache = PipelineCache::new(cfg.spec, cfg.engine);
        let pipeline = cache
            .get_or_compile(nfa, cfg.config)
            .map_err(|e| format!("compile pattern DB: {e}"))?;
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        let inner = Arc::new(ServerInner {
            cfg,
            cache,
            db: Mutex::new(Arc::new(LoadedDb { epoch: 1, pipeline })),
            next_epoch: AtomicU64::new(2),
            draining: std::sync::atomic::AtomicBool::new(false),
            reloading: std::sync::atomic::AtomicBool::new(false),
            active: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            sessions_started: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            started: Instant::now(),
        });
        let obs = match &inner.cfg.obs_addr {
            Some(addr) => Some(crate::obs::start_obs(&inner, addr)?),
            None => None,
        };
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(&accept_inner, &listener))
            .map_err(|e| format!("spawn accept loop: {e}"))?;
        Ok(MatchServer {
            inner,
            addr: local,
            accept: Some(accept),
            obs,
            drained: false,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current pattern-DB epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.db.lock().unwrap().epoch
    }

    /// Sessions currently open.
    pub fn active_sessions(&self) -> usize {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// The pipeline cache (hit/miss counters survive reloads).
    pub fn cache(&self) -> &PipelineCache {
        &self.inner.cache
    }

    /// The observability listener's address, when one is running.
    pub fn obs_addr(&self) -> Option<SocketAddr> {
        self.obs.as_ref().map(crate::obs::ObsHandle::addr)
    }

    /// The live `/statusz` JSON document — the single source of truth
    /// shared by the HTTP endpoint and the stdin `status` command.
    pub fn status_json(&self) -> String {
        crate::obs::status_json(&self.inner).render()
    }

    /// Direct access to server internals for in-crate tests (readiness
    /// flag manipulation without racing a real drain or reload).
    #[cfg(test)]
    pub(crate) fn inner_for_tests(&self) -> Arc<ServerInner> {
        Arc::clone(&self.inner)
    }

    /// Hot-reloads the pattern DB from `nfa`, returning the new epoch.
    /// In-flight sessions finish on the pipeline they pinned at open.
    ///
    /// # Errors
    ///
    /// Compilation failures; the current epoch stays live on error.
    pub fn reload(&self, nfa: &Nfa) -> Result<u64, AutomataError> {
        reload_db(&self.inner, nfa)
    }

    /// Hot-reloads the pattern DB from a compiled `.sdb` artifact —
    /// mapped and validated, never recompiled. The artifact must have
    /// been compiled with this server's exact pipeline configuration,
    /// sharding spec, and engine kind; any mismatch (or any validation
    /// failure) is refused and the current epoch stays live, including
    /// for in-flight sessions.
    ///
    /// # Errors
    ///
    /// Validation rejections and parameter mismatches, as strings (the
    /// caller is the CLI).
    pub fn reload_artifact(&self, path: &std::path::Path) -> Result<u64, String> {
        reload_db_artifact(&self.inner, path)
    }

    /// Stops accepting, waits for in-flight sessions up to the
    /// configured drain deadline, then cancels the stragglers' budgets
    /// and shuts their sockets down. Idempotent.
    pub fn drain(&mut self) -> DrainReport {
        let started = Instant::now();
        let _span = sunder_telemetry::span("serve.drain");
        self.inner.draining.store(true, Ordering::Release);
        if self.accept.is_some() {
            wake_acceptor(self.addr);
        }
        let deadline = started + self.inner.cfg.drain_deadline;
        let at_start = self.inner.active.load(Ordering::Acquire);
        while self.inner.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stragglers = self.inner.active.load(Ordering::Acquire);
        if stragglers > 0 {
            // Hard deadline: cancel in-flight chunk budgets and yank the
            // sockets so blocked reads/writes unblock immediately.
            for conn in self.inner.conns.lock().unwrap().values() {
                conn.cancel.cancel();
                let _ = conn.sock.shutdown(Shutdown::Both);
            }
        }
        let workers = match self.accept.take() {
            Some(accept) => join_acceptor(accept, self.addr, ACCEPT_WAKE_LIMIT),
            None => Vec::new(),
        };
        for w in workers {
            let _ = w.join();
        }
        // The obs listener answers (`/readyz` 503) for the whole drain
        // window; it goes down with the last worker.
        if let Some(mut obs) = self.obs.take() {
            obs.shutdown();
        }
        self.drained = true;
        let duration = started.elapsed();
        sunder_telemetry::instant(
            "serve.drained",
            &[
                ("sessions_at_start", (at_start as u64).into()),
                ("forced", (stragglers as u64).into()),
                ("duration_us", (duration.as_micros() as u64).into()),
            ],
        );
        DrainReport {
            drained: at_start.saturating_sub(stragglers),
            forced: stragglers,
            duration,
        }
    }
}

impl Drop for MatchServer {
    fn drop(&mut self) {
        if !self.drained {
            self.drain();
        }
    }
}

fn reload_db_artifact(inner: &ServerInner, path: &std::path::Path) -> Result<u64, String> {
    inner.reloading.store(true, Ordering::Release);
    let result = (|| {
        let pipeline = sunder_artifact::MappedDb::open(path)
            .map_err(|e| format!("load artifact: {e}"))?
            .into_pipeline();
        if pipeline.config != inner.cfg.config {
            return Err(format!(
                "artifact config {} does not match server config {}",
                pipeline.config, inner.cfg.config
            ));
        }
        if pipeline.spec != inner.cfg.spec {
            return Err(format!(
                "artifact sharding spec \"{}\" does not match server spec \"{}\"",
                pipeline.spec, inner.cfg.spec
            ));
        }
        if pipeline.engine != inner.cfg.engine {
            return Err(format!(
                "artifact engine {} does not match server engine {}",
                pipeline.engine.name(),
                inner.cfg.engine.name()
            ));
        }
        let pipeline = Arc::new(pipeline);
        let epoch = inner.next_epoch.fetch_add(1, Ordering::Relaxed);
        *inner.db.lock().unwrap() = Arc::new(LoadedDb { epoch, pipeline });
        sunder_telemetry::counter_add("serve_reloads_total", &[("source", "artifact")], 1);
        sunder_telemetry::instant("serve.reloaded", &[("epoch", epoch.into())]);
        Ok(epoch)
    })();
    inner.reloading.store(false, Ordering::Release);
    result
}

fn reload_db(inner: &ServerInner, nfa: &Nfa) -> Result<u64, AutomataError> {
    // `/readyz` reports 503 while the next epoch compiles: a scraping
    // load balancer stops routing new streams to a server mid-swap.
    inner.reloading.store(true, Ordering::Release);
    let result = (|| {
        let pipeline = inner.cache.get_or_compile(nfa, inner.cfg.config)?;
        let epoch = inner.next_epoch.fetch_add(1, Ordering::Relaxed);
        *inner.db.lock().unwrap() = Arc::new(LoadedDb { epoch, pipeline });
        sunder_telemetry::counter_add("serve_reloads_total", &[], 1);
        sunder_telemetry::instant("serve.reloaded", &[("epoch", epoch.into())]);
        Ok(epoch)
    })();
    inner.reloading.store(false, Ordering::Release);
    result
}

/// Accepts until drain; returns the connection thread handles so drain
/// can join them. `accept()` blocks: [`wake_acceptor`] ends the wait.
fn accept_loop(inner: &Arc<ServerInner>, listener: &TcpListener) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !inner.is_draining() {
        let sock = match listener.accept() {
            Ok((sock, _peer)) => Arc::new(sock),
            Err(_) => {
                // A failing accept (out of descriptors, say) returns at
                // once; pause so the failure does not become a spin.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        // Replies are whole frames in one write: never hold one back.
        let _ = sock.set_nodelay(true);
        if inner.is_draining() {
            refuse(&sock, ERR_SHUTDOWN, "server is draining");
            continue;
        }
        if inner.active.load(Ordering::Acquire) >= inner.cfg.max_sessions {
            sunder_telemetry::counter_add("serve_rejected_total", &[("reason", "busy")], 1);
            refuse(&sock, ERR_BUSY, "session cap reached");
            continue;
        }
        inner.active.fetch_add(1, Ordering::AcqRel);
        let (conn_inner, conn_sock) = (Arc::clone(inner), Arc::clone(&sock));
        match std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || serve_connection(&conn_inner, &conn_sock))
        {
            Ok(handle) => conns.push(handle),
            Err(_) => {
                // Out of threads: shed this connection, keep accepting.
                inner.active.fetch_sub(1, Ordering::AcqRel);
                sunder_telemetry::counter_add("serve_rejected_total", &[("reason", "spawn")], 1);
                refuse(&sock, ERR_BUSY, "no thread for the session");
            }
        }
    }
    conns
}

/// Gets the acceptor out of its blocking `accept()` once `draining` is
/// set, with a throw-away connection to the listener's own port. One
/// connect can fail with the acceptor still parked (ephemeral ports
/// exhausted, a local firewall rule): [`join_acceptor`] retries.
fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// How long drain keeps re-waking a parked acceptor before giving it up.
const ACCEPT_WAKE_LIMIT: Duration = Duration::from_secs(1);

/// Joins the acceptor, waking it again for as long as it stays parked.
/// Past `limit` the thread is left behind with its listener and the
/// connection handles it holds — those sessions have ended or been forced
/// by now — because a drain that never returns is the worse failure.
fn join_acceptor(
    accept: JoinHandle<Vec<JoinHandle<()>>>,
    addr: SocketAddr,
    limit: Duration,
) -> Vec<JoinHandle<()>> {
    let give_up = Instant::now() + limit;
    while !accept.is_finished() {
        if Instant::now() >= give_up {
            sunder_telemetry::instant("serve.acceptor_abandoned", &[]);
            return Vec::new();
        }
        std::thread::sleep(Duration::from_millis(1));
        wake_acceptor(addr);
    }
    accept.join().unwrap_or_default()
}

fn refuse(sock: &TcpStream, code: u16, message: &str) {
    FrameWriter::new(sock).error(code, message);
    let _ = sock.shutdown(Shutdown::Both);
}

/// A connection's send half. Only the worker thread ever sends, so it is
/// plain owned state: each frame is encoded into the reusable buffer and
/// leaves as one `write_all` on the raw socket.
struct FrameWriter<'a> {
    sock: &'a TcpStream,
    buf: Vec<u8>,
}

/// The encode buffer is cut back to this after a send: small frames reuse
/// it, a large reply goes back to the allocator (DESIGN.md, *Wire path*).
const KEEP_ENCODE_BUF_BYTES: usize = 64 * 1024;

impl<'a> FrameWriter<'a> {
    fn new(sock: &'a TcpStream) -> FrameWriter<'a> {
        FrameWriter {
            sock,
            buf: Vec::new(),
        }
    }

    /// Sends the `Error` frame that ends a session.
    fn error(&mut self, code: u16, message: impl Into<String>) {
        self.send(&ServerFrame::Error {
            code,
            message: message.into(),
        });
    }

    /// Sends one frame; `false` when the connection is gone.
    fn send(&mut self, frame: &ServerFrame) -> bool {
        let sent = frame
            .encode_into(&mut self.buf)
            .and_then(|()| self.sock.write_all(&self.buf))
            .is_ok();
        self.buf.clear();
        self.buf.shrink_to(KEEP_ENCODE_BUF_BYTES);
        sent
    }
}

/// The trailing integer of a tenant name (`"s17"` → 17), used to key
/// server-side fault-plan items deterministically under concurrent
/// accepts.
fn tenant_item(tenant: &str) -> Option<usize> {
    let digits: String = tenant
        .chars()
        .rev()
        .take_while(char::is_ascii_digit)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    digits.parse().ok()
}

/// Worker-level faults the server acts out on a session's first chunk.
#[derive(Default)]
struct InjectedFaults {
    panic: bool,
    stall: Option<u64>,
}

fn injected_for(plan: &FaultPlan, tenant: &str) -> InjectedFaults {
    let mut out = InjectedFaults::default();
    let Some(item) = tenant_item(tenant) else {
        return out;
    };
    for kind in plan.faults_for(item) {
        match kind {
            FaultKind::Panic => out.panic = true,
            FaultKind::Stall { millis } => out.stall = Some(*millis),
            // Connection-level faults are the *client's* to act out.
            _ => {}
        }
    }
    out
}

fn session_fault(tenant: &str, kind: &str) {
    sunder_telemetry::counter_add("serve_session_faults_total", &[("kind", kind)], 1);
    sunder_telemetry::instant(
        "serve.session_fault",
        &[("tenant", tenant.into()), ("kind", kind.into())],
    );
}

/// The `ERR_*` code a frame that failed to parse is answered with.
fn frame_error_code(e: &FrameError) -> u16 {
    match e {
        FrameError::UnknownVersion(_) => ERR_VERSION,
        _ => ERR_PROTOCOL,
    }
}

/// Attributes a failed `feed`/`finish` — `None`: the worker panicked —
/// and sends the `Error` frame that ends the session.
fn fail_session(
    tenant: &str,
    obs: &mut SessionObs,
    writer: &mut FrameWriter<'_>,
    error: Option<&SessionError>,
) {
    let (code, kind, dump) = match error {
        Some(SessionError::Interrupted(_)) => (ERR_DEADLINE, "deadline", Some("deadline")),
        Some(_) => (ERR_INTERNAL, "internal", None),
        None => (ERR_PANIC, "panic", Some("panic")),
    };
    session_fault(tenant, kind);
    obs.fault(kind, dump);
    match error {
        Some(e) => writer.error(code, e.to_string()),
        None => writer.error(code, "session worker panicked (isolated)"),
    }
}

/// Per-session observability: label handles interned once at session
/// open (per-chunk recording is an atomic or an uncontended lock, never
/// a string allocation), the SLO burn counter, and the optional flight
/// recorder.
struct SessionObs {
    service_us: sunder_telemetry::HistogramHandle,
    queue_wait_us: sunder_telemetry::HistogramHandle,
    reply_write_us: sunder_telemetry::HistogramHandle,
    slo_violations: sunder_telemetry::CounterHandle,
    chunks_total: sunder_telemetry::CounterHandle,
    bytes_total: sunder_telemetry::CounterHandle,
    reports_total: sunder_telemetry::CounterHandle,
    chunk_slo: Duration,
    slow_chunk: Option<Duration>,
    flight: Option<crate::flight::FlightRecorder>,
    flight_dir: Option<std::path::PathBuf>,
}

impl SessionObs {
    fn new(cfg: &ServerConfig, tenant: &str, session: u64, epoch: u64) -> SessionObs {
        let mut flight = cfg
            .flight_recorder_dir
            .as_ref()
            .map(|_| crate::flight::FlightRecorder::new(tenant, session, epoch, cfg.flight_events));
        if let Some(fr) = &mut flight {
            fr.record(
                "session_open",
                &[("tenant", tenant.to_string()), ("epoch", epoch.to_string())],
            );
        }
        let stage_us = |name| sunder_telemetry::histogram_handle(name, &[("tenant", tenant)]);
        SessionObs {
            service_us: stage_us("serve_chunk_service_us"),
            queue_wait_us: stage_us("serve_queue_wait_us"),
            reply_write_us: stage_us("serve_reply_write_us"),
            slo_violations: sunder_telemetry::counter_handle(
                "serve_slo_violations_total",
                &[("tenant", tenant)],
            ),
            chunks_total: sunder_telemetry::counter_handle("serve_chunks_total", &[]),
            bytes_total: sunder_telemetry::counter_handle("serve_bytes_total", &[]),
            reports_total: sunder_telemetry::counter_handle("serve_reports_total", &[]),
            chunk_slo: cfg.chunk_slo,
            slow_chunk: cfg.slow_chunk,
            flight,
            flight_dir: cfg.flight_recorder_dir.clone(),
        }
    }

    /// Accounts one served chunk; dumps the flight recorder when the
    /// chunk crossed the slow-session threshold. `reply` is the `reply`
    /// stage — encoding the `Reports` frame and writing it to the socket
    /// — and `None` for a chunk that failed before it had one.
    fn chunk(
        &mut self,
        bytes: usize,
        wait: Duration,
        service: Duration,
        reports: usize,
        reply: Option<Duration>,
    ) {
        let service_us = service.as_micros() as u64;
        let reply_us = reply.map(|r| r.as_micros() as u64);
        self.chunks_total.add(1);
        self.bytes_total.add(bytes as u64);
        self.reports_total.add(reports as u64);
        self.service_us.record(service_us);
        self.queue_wait_us.record(wait.as_micros() as u64);
        if let Some(us) = reply_us {
            self.reply_write_us.record(us);
        }
        if service > self.chunk_slo {
            self.slo_violations.add(1);
        }
        if let Some(fr) = &mut self.flight {
            fr.record(
                "chunk",
                &[
                    ("bytes", bytes.to_string()),
                    ("wait_us", wait.as_micros().to_string()),
                    ("service_us", service_us.to_string()),
                    ("reply_us", reply_us.unwrap_or(0).to_string()),
                    ("reports", reports.to_string()),
                ],
            );
            if self.slow_chunk.is_some_and(|t| service > t) {
                self.dump("slow");
            }
        }
    }

    /// Records a terminal event; `dump_reason` writes the post-mortem.
    fn fault(&mut self, kind: &str, dump_reason: Option<&'static str>) {
        if let Some(fr) = &mut self.flight {
            fr.record("error", &[("kind", kind.to_string())]);
        }
        if let Some(reason) = dump_reason {
            self.dump(reason);
        }
    }

    fn event(&mut self, name: &'static str, fields: &[(&'static str, String)]) {
        if let Some(fr) = &mut self.flight {
            fr.record(name, fields);
        }
    }

    fn dump(&mut self, reason: &str) {
        if let (Some(fr), Some(dir)) = (&mut self.flight, &self.flight_dir) {
            if let Err(e) = fr.write(dir, reason) {
                sunder_telemetry::instant(
                    "serve.flight_write_failed",
                    &[("error", e.to_string().into())],
                );
            }
        }
    }
}

/// Runs one connection to completion: handshake, reader-thread spawn,
/// worker loop. Always decrements the active count and deregisters on
/// the way out.
fn serve_connection(inner: &Arc<ServerInner>, sock: &Arc<TcpStream>) {
    let conn_id = inner.next_conn.fetch_add(1, Ordering::Relaxed);
    let cancel = CancelToken::new();
    inner.conns.lock().unwrap().insert(
        conn_id,
        ConnHandle {
            cancel: cancel.clone(),
            sock: Arc::clone(sock),
        },
    );
    sunder_telemetry::counter_add("serve_sessions_total", &[], 1);
    inner.sessions_started.fetch_add(1, Ordering::Relaxed);
    if let Some(tenant) = run_session(inner, sock, &cancel, conn_id) {
        let mut tenants = inner.tenants.lock().unwrap();
        if let Some(n) = tenants.get_mut(&tenant) {
            *n -= 1;
            if *n == 0 {
                tenants.remove(&tenant);
            }
        }
    }
    inner.conns.lock().unwrap().remove(&conn_id);
    let _ = sock.shutdown(Shutdown::Both);
    inner.active.fetch_sub(1, Ordering::AcqRel);
}

/// The session proper. Returns the tenant name once admitted (so the
/// caller can release the quota), `None` if admission failed.
fn run_session(
    inner: &Arc<ServerInner>,
    sock: &TcpStream,
    cancel: &CancelToken,
    conn_id: u64,
) -> Option<String> {
    let mut reader = BufReader::new(sock);
    let mut writer = FrameWriter::new(sock);
    let max_frame = inner.cfg.max_frame_bytes;

    // Handshake: the first frame must be a well-formed Hello.
    let hello = match read_raw(&mut reader, max_frame) {
        Ok(Some(body)) => decode_client(&body),
        Ok(None) => return None,
        Err(e) => Err(e),
    };
    let tenant = match hello {
        Ok(ClientFrame::Hello { tenant, .. }) => tenant,
        Ok(_) => {
            writer.error(ERR_PROTOCOL, "expected Hello");
            return None;
        }
        Err(e) => {
            writer.error(frame_error_code(&e), e.to_string());
            return None;
        }
    };

    // Tenant quota.
    {
        let mut tenants = inner.tenants.lock().unwrap();
        let n = tenants.entry(tenant.clone()).or_insert(0);
        if *n >= inner.cfg.per_tenant_sessions {
            drop(tenants);
            sunder_telemetry::counter_add("serve_rejected_total", &[("reason", "quota")], 1);
            writer.error(
                ERR_QUOTA,
                format!("tenant {tenant:?} is at its session quota"),
            );
            return None;
        }
        *n += 1;
    }

    // Pin the current epoch for the whole session.
    let db = Arc::clone(&inner.db.lock().unwrap());
    let mut session = StreamSession::new(Arc::clone(&db.pipeline), db.epoch);
    if !writer.send(&ServerFrame::HelloAck {
        version: PROTOCOL_VERSION,
        epoch: db.epoch,
    }) {
        return Some(tenant);
    }
    sunder_telemetry::instant(
        "serve.session_open",
        &[
            ("tenant", tenant.as_str().into()),
            ("epoch", db.epoch.into()),
        ],
    );

    let faults = injected_for(&inner.cfg.fault_plan, &tenant);
    let mut obs = SessionObs::new(&inner.cfg, &tenant, conn_id, db.epoch);

    // Reader thread: socket → bounded queue. Scoped so a dead worker
    // path can't leak it past the connection.
    let queue = Arc::new(WorkQueue::new(inner.cfg.queue_depth));
    std::thread::scope(|scope| {
        let reader_queue = Arc::clone(&queue);
        let reader_inner = Arc::clone(inner);
        scope.spawn(move || {
            let push = |work: Work| {
                reader_queue.push(work);
                reader_inner.queued.fetch_add(1, Ordering::Relaxed);
            };
            loop {
                match read_raw(&mut reader, max_frame) {
                    Ok(Some(body)) => match decode_client(&body) {
                        Ok(frame) => {
                            let finish = matches!(frame, ClientFrame::Finish);
                            push(Work::Frame(frame));
                            if finish {
                                break; // protocol: nothing follows Finish
                            }
                        }
                        Err(e) => {
                            push(Work::Bad(e));
                            break;
                        }
                    },
                    Ok(None) => {
                        push(Work::Eof);
                        break;
                    }
                    Err(e) => {
                        push(Work::Bad(e));
                        break;
                    }
                }
            }
        });

        // Worker loop: queue → session → socket.
        worker_loop(
            inner,
            &mut session,
            &tenant,
            &faults,
            &queue,
            cancel,
            &mut writer,
            &mut obs,
        );
        // Unblock the socket so the reader thread (possibly mid-read)
        // exits before the scope joins it.
        let _ = sock.shutdown(Shutdown::Read);
    });
    Some(tenant)
}

/// The budget each `feed`/`finish` runs under: the session's cancel
/// token, polled every 64 cycles, plus the configured chunk deadline.
fn chunk_budget(inner: &ServerInner, cancel: &CancelToken) -> Budget {
    let budget = Budget::with_cancel(cancel.clone()).check_every(64);
    match inner.cfg.chunk_deadline {
        Some(limit) => budget.deadline(limit),
        None => budget,
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    inner: &Arc<ServerInner>,
    session: &mut StreamSession,
    tenant: &str,
    faults: &InjectedFaults,
    queue: &WorkQueue,
    cancel: &CancelToken,
    writer: &mut FrameWriter<'_>,
    obs: &mut SessionObs,
) {
    let mut first_chunk = true;
    loop {
        let (work, wait) = queue.pop();
        inner.queued.fetch_sub(1, Ordering::Relaxed);
        match work {
            Work::Frame(ClientFrame::Chunk(bytes)) => {
                if first_chunk {
                    first_chunk = false;
                    if let Some(millis) = faults.stall {
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                }
                let budget = chunk_budget(inner, cancel);
                let inject_panic = faults.panic && session.chunks() == 0;
                let started = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if inject_panic {
                        panic!("injected panic: tenant {tenant}");
                    }
                    session.feed(&bytes, &budget)
                }));
                let service = started.elapsed();
                match result {
                    Ok(Ok(reports)) => {
                        let count = reports.len();
                        let replying = Instant::now();
                        let sent = writer.send(&ServerFrame::Reports(reports));
                        obs.chunk(bytes.len(), wait, service, count, Some(replying.elapsed()));
                        if !sent {
                            return;
                        }
                    }
                    Ok(Err(e)) => {
                        obs.chunk(bytes.len(), wait, service, 0, None);
                        fail_session(tenant, obs, writer, Some(&e));
                        return;
                    }
                    Err(_) => {
                        obs.chunk(bytes.len(), wait, service, 0, None);
                        fail_session(tenant, obs, writer, None);
                        return;
                    }
                }
            }
            Work::Frame(ClientFrame::Finish) => {
                match catch_unwind(AssertUnwindSafe(|| {
                    session.finish(&chunk_budget(inner, cancel))
                })) {
                    Ok(Ok((tail, summary))) => {
                        obs.reports_total.add(tail.len() as u64);
                        obs.event(
                            "finish",
                            &[
                                ("chunks", summary.chunks.to_string()),
                                ("bytes", summary.bytes.to_string()),
                                ("reports", summary.reports.to_string()),
                            ],
                        );
                        if writer.send(&ServerFrame::Reports(tail)) {
                            writer.send(&ServerFrame::Done {
                                chunks: summary.chunks,
                                bytes: summary.bytes,
                                reports: summary.reports,
                                epoch: summary.epoch,
                            });
                        }
                    }
                    Ok(Err(e)) => fail_session(tenant, obs, writer, Some(&e)),
                    Err(_) => fail_session(tenant, obs, writer, None),
                }
                return;
            }
            Work::Frame(ClientFrame::Reload(text)) => {
                match anml::parse(&text).and_then(|nfa| reload_db(inner, &nfa)) {
                    Ok(epoch) => {
                        obs.event("reload", &[("epoch", epoch.to_string())]);
                        if !writer.send(&ServerFrame::Reloaded { epoch }) {
                            return;
                        }
                    }
                    Err(e) => {
                        writer.error(ERR_RELOAD, format!("reload failed: {e}"));
                        return;
                    }
                }
            }
            Work::Frame(ClientFrame::Hello { .. }) => {
                writer.error(ERR_PROTOCOL, "duplicate Hello");
                return;
            }
            Work::Bad(e) => {
                // A truncated frame IS a mid-frame hangup — on the wire
                // it is indistinguishable from a deliberate disconnect,
                // so it shares the disconnect attribution.
                let kind = match e {
                    FrameError::Truncated => "disconnect",
                    _ => "protocol",
                };
                session_fault(tenant, kind);
                obs.fault(kind, None);
                writer.error(frame_error_code(&e), e.to_string());
                return;
            }
            Work::Eof => {
                // Client hung up without Finish: a mid-stream disconnect.
                if !session.is_finished() {
                    session_fault(tenant, "disconnect");
                    obs.fault("disconnect", None);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_item_parses_trailing_integer() {
        assert_eq!(tenant_item("s17"), Some(17));
        assert_eq!(tenant_item("7"), Some(7));
        assert_eq!(tenant_item("tenant-003"), Some(3));
        assert_eq!(tenant_item("alpha"), None);
        assert_eq!(tenant_item(""), None);
    }

    #[test]
    fn join_acceptor_gives_up_on_an_acceptor_no_connect_can_wake() {
        // A port nothing listens on: every wake connect is refused.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let (release, parked) = std::sync::mpsc::channel::<()>();
        let accept = std::thread::spawn(move || {
            let _ = parked.recv();
            Vec::new()
        });
        let started = Instant::now();
        let workers = join_acceptor(accept, dead, Duration::from_millis(50));
        assert!(workers.is_empty());
        assert!(started.elapsed() < Duration::from_secs(5), "drain hung");
        drop(release);
    }

    #[test]
    fn join_acceptor_retries_until_a_wake_lands() {
        // The first wake is never sent (as if that connect had failed):
        // the retry loop alone has to get the acceptor out.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            let _ = listener.accept();
            vec![std::thread::spawn(|| {})]
        });
        let workers = join_acceptor(accept, addr, Duration::from_secs(5));
        assert_eq!(workers.len(), 1, "the acceptor's handles come back");
    }

    #[test]
    fn work_queue_blocks_at_depth_and_drains_in_order() {
        let q = Arc::new(WorkQueue::new(2));
        let producer = Arc::clone(&q);
        let handle = std::thread::spawn(move || {
            for i in 0..8u64 {
                producer.push(Work::Frame(ClientFrame::Chunk(vec![i as u8])));
            }
            producer.push(Work::Eof);
        });
        let mut got = Vec::new();
        loop {
            match q.pop().0 {
                Work::Frame(ClientFrame::Chunk(b)) => got.push(b[0]),
                Work::Eof => break,
                _ => unreachable!(),
            }
            // Slow consumer: the producer must block, not drop or grow.
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.join().unwrap();
        assert_eq!(got, (0..8).collect::<Vec<u8>>());
    }
}
