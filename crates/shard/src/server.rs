//! The `sunder serve` daemon: a resilient streaming match service.
//!
//! One [`MatchServer`] owns a TCP listener, a [`PipelineCache`], and the
//! current pattern-DB epoch. Each accepted connection becomes one
//! [`StreamSession`] run by one thread, which reads a frame off the
//! socket, acts on it and writes the reply before it reads the next.
//! Frames run strictly in order, and at most one decoded frame is held
//! per session. Backpressure comes from the socket: while the thread
//! steps a chunk it reads nothing, the kernel socket buffer fills, and
//! the sender stalls, with no buffering in the server. Each chunk runs
//! under its own deadline [`Budget`] wired to the session's
//! [`CancelToken`] and inside `catch_unwind`, so a panicking automaton
//! (or an injected `panic` fault) poisons exactly one session: the
//! client gets an `Error` frame, the fault is attributed in telemetry,
//! and every other session keeps streaming.
//!
//! **Policy** — admission, epochs, readiness and drain — lives in one
//! socket-free `ServerCore` behind one mutex; this module is its I/O
//! shell. **Admission control** happens in two steps: a global session
//! cap at accept time (`ERR_BUSY`) and a per-tenant quota at `Hello`
//! (`ERR_QUOTA`). **Hot reload** builds the next pipeline outside the
//! lock, then numbers and installs it in one core call: new sessions pin
//! the new epoch; in-flight sessions finish on the `Arc` they pinned at
//! `Hello`. **Graceful drain** stops admission, waits on a condvar that
//! every session close notifies, up to a hard deadline, then cancels the
//! stragglers' budgets and shuts their sockets down, which also ends a
//! session thread blocked reading its next frame.
//!
//! Server-side fault injection reuses [`FaultPlan::job_faults`], the
//! decoder every worker pool shares: the plan item is the trailing
//! integer of the *tenant name* (`tenant "s7"` → plan item 7), so
//! injection is deterministic no matter the order connections land. The
//! server acts out `panic` and `stall` on a session's first chunk;
//! `transient` and `corrupt-input` have no meaning for a live stream.

use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sunder_artifact::CompiledPipeline;
use sunder_automata::partition::ShardSpec;
use sunder_automata::{anml, AutomataError, Nfa};
use sunder_resilience::{Budget, CancelToken, FaultPlan};
use sunder_sim::EngineKind;
use sunder_transform::PipelineConfig;

use crate::cache::PipelineCache;
use crate::frame::{
    decode_client, read_raw, ClientFrame, FrameError, ServerFrame, DEFAULT_MAX_FRAME_BYTES,
    ERR_BUSY, ERR_DEADLINE, ERR_INTERNAL, ERR_PANIC, ERR_PROTOCOL, ERR_RELOAD, ERR_VERSION,
    PROTOCOL_VERSION,
};
use crate::server_core::{ConnId, Refusal, ServerCore};
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
    /// Not read by the server: a session reads its next frame only
    /// after it has answered the last, so it holds no queue. The
    /// benchmark still reads this default as its open-loop backlog
    /// threshold; the field goes once the benchmark stops naming it.
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

/// What drain reaches into a live connection through.
#[derive(Clone)]
pub(crate) struct ConnHandle {
    cancel: CancelToken,
    sock: Arc<TcpStream>,
}

pub(crate) struct ServerInner {
    pub(crate) cfg: ServerConfig,
    pub(crate) cache: PipelineCache,
    /// When the server started (uptime in `/statusz`).
    pub(crate) started: Instant,
    core: Mutex<ServerCore<ConnHandle>>,
    /// Notified on every session close; drain waits on it.
    closed: Condvar,
}

impl ServerInner {
    pub(crate) fn core(&self) -> MutexGuard<'_, ServerCore<ConnHandle>> {
        self.core.lock().expect("server core lock poisoned")
    }
}

/// A running streaming match server. Dropping it drains with the
/// configured deadline.
pub struct MatchServer {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    obs: Option<crate::obs::ObsHandle>,
}

impl std::fmt::Debug for MatchServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchServer")
            .field("addr", &self.addr)
            .field("active", &self.active_sessions())
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
        let core = ServerCore::new(cfg.max_sessions, cfg.per_tenant_sessions, pipeline);
        let inner = Arc::new(ServerInner {
            cfg,
            cache,
            started: Instant::now(),
            core: Mutex::new(core),
            closed: Condvar::new(),
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
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current pattern-DB epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.core().epoch()
    }

    /// Sessions currently open.
    pub fn active_sessions(&self) -> usize {
        self.inner.core().active()
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
        reload(&self.inner, &[("source", "artifact")], || {
            let pipeline = sunder_artifact::MappedDb::open(path)
                .map_err(|e| format!("load artifact: {e}"))?
                .into_pipeline();
            let cfg = &self.inner.cfg;
            if pipeline.config != cfg.config {
                return Err(format!(
                    "artifact config {} does not match server config {}",
                    pipeline.config, cfg.config
                ));
            }
            if pipeline.spec != cfg.spec {
                return Err(format!(
                    "artifact sharding spec \"{}\" does not match server spec \"{}\"",
                    pipeline.spec, cfg.spec
                ));
            }
            if pipeline.engine != cfg.engine {
                return Err(format!(
                    "artifact engine {} does not match server engine {}",
                    pipeline.engine.name(),
                    cfg.engine.name()
                ));
            }
            Ok(Arc::new(pipeline))
        })
    }

    /// Stops accepting, waits for in-flight sessions up to the
    /// configured drain deadline, then cancels the stragglers' budgets
    /// and shuts their sockets down. Idempotent.
    pub fn drain(&mut self) -> DrainReport {
        let started = Instant::now();
        let _span = sunder_telemetry::span("serve.drain");
        let at_start = {
            let mut core = self.inner.core();
            core.begin_drain();
            core.active()
        };
        if self.accept.is_some() {
            wake_acceptor(self.addr);
        }
        let (core, _) = self
            .inner
            .closed
            .wait_timeout_while(self.inner.core(), self.inner.cfg.drain_deadline, |core| {
                !core.drained()
            })
            .expect("server core lock poisoned");
        let stragglers = core.active();
        // Hard deadline: cancel in-flight chunk budgets and yank the
        // sockets so blocked reads/writes unblock immediately.
        for conn in core.stragglers() {
            conn.cancel.cancel();
            let _ = conn.sock.shutdown(Shutdown::Both);
        }
        drop(core);
        let workers = match self.accept.take() {
            Some(accept) => join_acceptor(accept, self.addr, ACCEPT_WAKE_LIMIT),
            None => Vec::new(),
        };
        for w in workers {
            let _ = w.join();
        }
        // The obs listener answers (`/readyz` 503) for the whole drain
        // window; it goes down with the last worker.
        drop(self.obs.take());
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
        // The acceptor handle is taken by the first drain.
        if self.accept.is_some() {
            self.drain();
        }
    }
}

fn reload_db(inner: &ServerInner, nfa: &Nfa) -> Result<u64, AutomataError> {
    reload(inner, &[], || {
        inner.cache.get_or_compile(nfa, inner.cfg.config)
    })
}

/// One hot reload. `build` runs outside the core lock while `/readyz`
/// reports 503, so a scraping load balancer stops routing new streams to
/// a server mid-swap; the core then numbers and installs what it built.
fn reload<E>(
    inner: &ServerInner,
    labels: &[(&'static str, &str)],
    build: impl FnOnce() -> Result<Arc<CompiledPipeline>, E>,
) -> Result<u64, E> {
    let ticket = inner.core().begin_reload();
    let built = build();
    let epoch = inner
        .core()
        .finish_reload(ticket, built.as_ref().ok().map(Arc::clone));
    built?;
    let epoch = epoch.expect("a built pipeline is installed");
    sunder_telemetry::counter_add("serve_reloads_total", labels, 1);
    sunder_telemetry::instant("serve.reloaded", &[("epoch", epoch.into())]);
    Ok(epoch)
}

/// Accepts until drain; returns the connection thread handles so drain
/// can join them. `accept()` blocks: [`wake_acceptor`] ends the wait.
/// Each accept first joins the sessions that have ended: an exited but
/// unjoined thread keeps its stack mapped, and a long-lived daemon would
/// pile them up until `spawn` fails.
fn accept_loop(inner: &Arc<ServerInner>, listener: &TcpListener) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let Some(sock) = accept(listener) else {
            continue;
        };
        for ended in conns.extract_if(.., |c| c.is_finished()) {
            let _ = ended.join();
        }
        // Replies are whole frames in one write: never hold one back.
        let _ = sock.set_nodelay(true);
        let conn = ConnHandle {
            cancel: CancelToken::new(),
            sock: Arc::new(sock),
        };
        let id = match inner.core().open(conn.clone()) {
            Ok(id) => id,
            Err(refusal) => {
                if refusal == Refusal::Busy {
                    sunder_telemetry::counter_add("serve_rejected_total", &[("reason", "busy")], 1);
                }
                let (code, message) = refusal.frame();
                refuse(&conn.sock, code, &message);
                if refusal == Refusal::Draining {
                    return conns;
                }
                continue;
            }
        };
        let (conn_inner, sock) = (Arc::clone(inner), Arc::clone(&conn.sock));
        match std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || serve_connection(&conn_inner, id, &conn))
        {
            Ok(handle) => conns.push(handle),
            Err(_) => {
                // Out of threads: shed this connection, keep accepting.
                close(inner, id);
                sunder_telemetry::counter_add("serve_rejected_total", &[("reason", "spawn")], 1);
                refuse(&sock, ERR_BUSY, "no thread for the session");
            }
        }
    }
}

/// One blocking `accept()`, shared by the match and obs listeners.
pub(crate) fn accept(listener: &TcpListener) -> Option<TcpStream> {
    match listener.accept() {
        Ok((sock, _peer)) => Some(sock),
        Err(_) => {
            // A failing accept (out of descriptors, say) returns at once;
            // pause so the failure does not become a spin.
            std::thread::sleep(Duration::from_millis(5));
            None
        }
    }
}

/// Releases connection `id` in the core and wakes a waiting drain.
fn close(inner: &ServerInner, id: ConnId) {
    inner.core().close(id);
    inner.closed.notify_all();
}

/// Gets an acceptor out of its blocking `accept()` once it is told to
/// stop, with a throw-away connection to the listener's own port. One
/// connect can fail with the acceptor still parked (ephemeral ports
/// exhausted, a local firewall rule): [`join_acceptor`] retries.
pub(crate) fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// How long drain keeps re-waking a parked acceptor before giving it up.
pub(crate) const ACCEPT_WAKE_LIMIT: Duration = Duration::from_secs(1);

/// Joins an acceptor, waking it again for as long as it stays parked.
/// Past `limit` the thread is left behind with its listener and whatever
/// it holds — for the match listener, connection handles whose sessions
/// have ended or been forced by now — because a drain that never returns
/// is the worse failure.
pub(crate) fn join_acceptor<T: Default>(
    accept: JoinHandle<T>,
    addr: SocketAddr,
    limit: Duration,
) -> T {
    let give_up = Instant::now() + limit;
    while !accept.is_finished() {
        if Instant::now() >= give_up {
            sunder_telemetry::instant("serve.acceptor_abandoned", &[]);
            return T::default();
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

/// A connection's send half. Only the session's thread ever sends, so it is
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
/// accepts. `None` without trailing digits or when they overflow.
fn tenant_item(tenant: &str) -> Option<usize> {
    let stem = tenant.trim_end_matches(|c: char| c.is_ascii_digit());
    tenant[stem.len()..].parse().ok()
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

/// Attributes a failed `feed`/`finish` — `None`: the session panicked —
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
                &[("tenant", tenant.into()), ("epoch", epoch.into())],
            );
        }
        let stage_us = |name| sunder_telemetry::histogram_handle(name, &[("tenant", tenant)]);
        SessionObs {
            service_us: stage_us("serve_chunk_service_us"),
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
    fn chunk(&mut self, bytes: usize, service: Duration, reports: usize, reply: Option<Duration>) {
        let service_us = service.as_micros() as u64;
        let reply_us = reply.map(|r| r.as_micros() as u64);
        self.chunks_total.add(1);
        self.bytes_total.add(bytes as u64);
        self.reports_total.add(reports as u64);
        self.service_us.record(service_us);
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
                    ("bytes", bytes.into()),
                    ("service_us", service_us.into()),
                    ("reply_us", reply_us.unwrap_or(0).into()),
                    ("reports", reports.into()),
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
            fr.record("error", &[("kind", kind.into())]);
        }
        if let Some(reason) = dump_reason {
            self.dump(reason);
        }
    }

    fn event(&mut self, name: &'static str, fields: &[(&'static str, sunder_telemetry::Value)]) {
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

/// Runs one connection to completion on its own thread. Always releases
/// the connection in the core on the way out.
fn serve_connection(inner: &Arc<ServerInner>, id: ConnId, conn: &ConnHandle) {
    sunder_telemetry::counter_add("serve_sessions_total", &[], 1);
    run_session(inner, id, conn);
    let _ = conn.sock.shutdown(Shutdown::Both);
    close(inner, id);
}

/// The session proper, from `Hello` to its last reply: each frame is
/// read, acted on and answered before the next one is read.
fn run_session(inner: &Arc<ServerInner>, id: ConnId, conn: &ConnHandle) {
    let sock = &*conn.sock;
    let mut reader = BufReader::new(sock);
    let mut writer = FrameWriter::new(sock);
    let max_frame = inner.cfg.max_frame_bytes;

    // Handshake: the first frame must be a well-formed Hello.
    let tenant = match read_frame(&mut reader, max_frame) {
        Ok(Some(ClientFrame::Hello { tenant, .. })) => tenant,
        Ok(None) => return,
        Ok(Some(_)) => {
            writer.error(ERR_PROTOCOL, "expected Hello");
            return;
        }
        Err(e) => {
            writer.error(frame_error_code(&e), e.to_string());
            return;
        }
    };

    // Tenant quota; the session pins the current epoch for its life.
    let db = match inner.core().hello(id, &tenant) {
        Ok(db) => db,
        Err(refusal) => {
            sunder_telemetry::counter_add("serve_rejected_total", &[("reason", "quota")], 1);
            let (code, message) = refusal.frame();
            writer.error(code, message);
            return;
        }
    };
    let mut session = StreamSession::new(Arc::clone(&db.pipeline), db.epoch);
    if !writer.send(&ServerFrame::HelloAck {
        version: PROTOCOL_VERSION,
        epoch: db.epoch,
    }) {
        return;
    }
    sunder_telemetry::instant(
        "serve.session_open",
        &[
            ("tenant", tenant.as_str().into()),
            ("epoch", db.epoch.into()),
        ],
    );

    let faults = tenant_item(&tenant)
        .map(|item| inner.cfg.fault_plan.job_faults(item))
        .unwrap_or_default();
    let mut obs = SessionObs::new(&inner.cfg, &tenant, id, db.epoch);

    let mut first_chunk = true;
    loop {
        let frame = match read_frame(&mut reader, max_frame) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                // Client hung up without Finish: a mid-stream disconnect.
                session_fault(&tenant, "disconnect");
                obs.fault("disconnect", None);
                return;
            }
            Err(e) => {
                // A truncated frame IS a mid-frame hangup — on the wire
                // it is indistinguishable from a deliberate disconnect,
                // so it shares the disconnect attribution.
                let kind = match e {
                    FrameError::Truncated => "disconnect",
                    _ => "protocol",
                };
                session_fault(&tenant, kind);
                obs.fault(kind, None);
                writer.error(frame_error_code(&e), e.to_string());
                return;
            }
        };
        match frame {
            ClientFrame::Chunk(bytes) => {
                if first_chunk {
                    first_chunk = false;
                    if let Some(millis) = faults.stall_millis {
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                }
                let budget = chunk_budget(inner, &conn.cancel);
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
                        obs.chunk(bytes.len(), service, count, Some(replying.elapsed()));
                        if !sent {
                            return;
                        }
                    }
                    Ok(Err(e)) => {
                        obs.chunk(bytes.len(), service, 0, None);
                        fail_session(&tenant, &mut obs, &mut writer, Some(&e));
                        return;
                    }
                    Err(_) => {
                        obs.chunk(bytes.len(), service, 0, None);
                        fail_session(&tenant, &mut obs, &mut writer, None);
                        return;
                    }
                }
            }
            ClientFrame::Finish => {
                match catch_unwind(AssertUnwindSafe(|| {
                    session.finish(&chunk_budget(inner, &conn.cancel))
                })) {
                    Ok(Ok((tail, summary))) => {
                        obs.reports_total.add(tail.len() as u64);
                        obs.event(
                            "finish",
                            &[
                                ("chunks", summary.chunks.into()),
                                ("bytes", summary.bytes.into()),
                                ("reports", summary.reports.into()),
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
                    Ok(Err(e)) => fail_session(&tenant, &mut obs, &mut writer, Some(&e)),
                    Err(_) => fail_session(&tenant, &mut obs, &mut writer, None),
                }
                return;
            }
            ClientFrame::Reload(text) => {
                match anml::parse(&text).and_then(|nfa| reload_db(inner, &nfa)) {
                    Ok(epoch) => {
                        obs.event("reload", &[("epoch", epoch.into())]);
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
            ClientFrame::Hello { .. } => {
                writer.error(ERR_PROTOCOL, "duplicate Hello");
                return;
            }
        }
    }
}

/// Reads and decodes one client frame; `None` at a clean end of stream.
fn read_frame(
    reader: &mut impl std::io::Read,
    max: u32,
) -> Result<Option<ClientFrame>, FrameError> {
    read_raw(reader, max)?
        .map(|body| decode_client(&body))
        .transpose()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_item_parses_trailing_integer() {
        assert_eq!(tenant_item("s17"), Some(17));
        assert_eq!(tenant_item("7"), Some(7));
        assert_eq!(tenant_item("tenant-003"), Some(3));
        assert_eq!(tenant_item("alpha"), None, "no digits");
        assert_eq!(tenant_item(""), None);
        assert_eq!(tenant_item("0042"), Some(42), "all digits");
        assert_eq!(tenant_item("s4x"), None, "digits not at the end");
        let overflow = format!("s{}0", usize::MAX);
        assert_eq!(tenant_item(&overflow), None, "overflows usize");
    }

    /// Streams one session as tenant `s0` against a server whose fault
    /// plan is `plan`; returns its outcome and how long it took.
    fn serve_s0(plan: &str) -> (crate::chaos::SessionOutcome, Duration) {
        let nfa = sunder_automata::regex::compile_rule_set(&["ab+c"]).unwrap();
        let cfg = ServerConfig {
            fault_plan: FaultPlan::from_text(plan).unwrap(),
            ..ServerConfig::default()
        };
        let server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();
        let input = b"abbc xx abc ".repeat(16);
        let started = Instant::now();
        let mut outcomes = crate::chaos::run_chaos(
            server.local_addr(),
            &[input],
            &FaultPlan::none(),
            &crate::chaos::ChaosOptions::default(),
        );
        (outcomes.remove(0), started.elapsed())
    }

    #[test]
    fn stall_then_panic_from_job_faults_is_acted_out() {
        let (outcome, took) = serve_s0("stall 0 150\npanic 0\n");
        match outcome {
            crate::chaos::SessionOutcome::Errored { code, .. } => assert_eq!(code, ERR_PANIC),
            other => panic!("expected ERR_PANIC, got {other:?}"),
        }
        assert!(
            took >= Duration::from_millis(150),
            "the panic came after {took:?}, before the 150 ms stall"
        );
    }

    #[test]
    fn transient_and_corrupt_input_leave_a_live_session_clean() {
        let (clean, _) = serve_s0("");
        assert!(
            matches!(&clean, crate::chaos::SessionOutcome::Completed { reports, .. } if !reports.is_empty()),
            "{clean:?}"
        );
        let (faulted, _) = serve_s0("transient 0 2\ncorrupt-input 0 9\n");
        assert_eq!(faulted, clean);
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
            Vec::<JoinHandle<()>>::new()
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
}
