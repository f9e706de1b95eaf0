//! The serve path: `MatchServer` on loopback, driven by closed-loop or
//! open-loop client sessions from this process.
//!
//! The client frames exactly like `sunder_shard::chaos::run_session` —
//! `BufReader`/`BufWriter`, one flush per frame, no socket options beyond
//! a read timeout — so that a server-side transport fix shows up here.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sunder_automata::Nfa;
use sunder_shard::frame::{decode_server, read_raw};
use sunder_shard::{ClientFrame, MatchServer, ServerConfig, ServerFrame, PROTOCOL_VERSION};

use crate::digest::Expected;
use crate::procfs;
use crate::rep::{Ops, Rep};
use crate::spans::{Request, Scope};
use crate::workloads::Spec;

/// Read cap for server replies (a 16 KiB Brill chunk answers ~220 KB).
const CLIENT_MAX_FRAME: u32 = 64 * 1024 * 1024;
/// A reply slower than this fails the session instead of hanging the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// An open-loop send issued later than this after its due time is late.
const LATE_SEND: Duration = Duration::from_micros(500);

/// How a session paces its chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Send, wait for the reply, send the next.
    Closed,
    /// Chunk `k` is due `k × interval` after the session's epoch.
    Open { interval: Duration },
}

/// Starts the daemon as `ServerConfig::default()` would, but under the
/// workload's pipeline configuration.
pub fn start_server(spec: &Spec, nfa: &Nfa) -> Result<MatchServer, String> {
    let config = ServerConfig {
        config: spec.config,
        ..ServerConfig::default()
    };
    MatchServer::start("127.0.0.1:0", nfa, config)
}

struct Conn {
    sock: TcpStream,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

fn send(writer: &mut BufWriter<TcpStream>, frame: &ClientFrame) -> Result<(), String> {
    frame
        .write_to(writer)
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send: {e}"))
}

fn recv_raw(reader: &mut BufReader<TcpStream>) -> Result<Vec<u8>, String> {
    read_raw(reader, CLIENT_MAX_FRAME)
        .map_err(|e| format!("recv: {e}"))?
        .ok_or_else(|| "recv: server closed the connection".to_string())
}

fn recv(reader: &mut BufReader<TcpStream>) -> Result<ServerFrame, String> {
    decode_server(&recv_raw(reader)?).map_err(|e| format!("recv: {e}"))
}

impl Conn {
    /// Connects and completes the `Hello`/`HelloAck` handshake as tenant
    /// `s<session>`; returns the connection and how long that took.
    fn open(addr: SocketAddr, session: usize) -> Result<(Conn, Duration), String> {
        let started = Instant::now();
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        sock.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set read timeout: {e}"))?;
        let clone = |s: &TcpStream| s.try_clone().map_err(|e| format!("clone socket: {e}"));
        let mut conn = Conn {
            reader: BufReader::new(clone(&sock)?),
            writer: BufWriter::new(clone(&sock)?),
            sock,
        };
        send(
            &mut conn.writer,
            &ClientFrame::Hello {
                version: PROTOCOL_VERSION,
                tenant: format!("s{session}"),
            },
        )?;
        match recv(&mut conn.reader)? {
            ServerFrame::HelloAck { .. } => Ok((conn, started.elapsed())),
            ServerFrame::Error { code, message } => Err(format!("refused ({code}): {message}")),
            other => Err(format!("unexpected handshake reply: {other:?}")),
        }
    }
}

/// Set-up as the serve workloads time it: `MatchServer::start` through
/// the first `HelloAck`. The probing session is closed again.
pub fn setup(spec: &Spec, nfa: &Nfa) -> Result<MatchServer, String> {
    let server = start_server(spec, nfa)?;
    Conn::open(server.local_addr(), 0)?;
    Ok(server)
}

/// What one session did in one repetition.
#[derive(Debug, Default)]
struct SessionRun {
    /// Per acknowledged chunk: closed loop, send → `Reports` received;
    /// open loop, *due time* → `Reports` received.
    latencies_ns: Vec<u64>,
    bytes_acked: u64,
    open_us: Option<u64>,
    sends: u64,
    late_sends: u64,
    /// Open loop: replies still outstanding when the last send was issued.
    outstanding: u64,
    /// From the session's epoch to its last chunk reply.
    active: Duration,
    ops: Ops,
}

struct SessionCtx<'a> {
    workload: &'a str,
    addr: SocketAddr,
    session: usize,
    stream: &'a [u8],
    expected: &'a Expected,
    chunk_bytes: usize,
    window: Duration,
    barrier: &'a Barrier,
}

impl SessionCtx<'_> {
    fn request(&self, chunk: usize) -> Request {
        Request::Chunk {
            session: self.session as u32,
            chunk: chunk as u32,
        }
    }

    fn describe(&self, why: &str) -> String {
        format!("{}: session {}: {why}", self.workload, self.session)
    }
}

/// Opens the session, then waits for the other sessions so that all
/// start streaming together. A failed open still releases the barrier.
fn open_session(ctx: &SessionCtx<'_>, run: &mut SessionRun) -> Option<Conn> {
    let opened = Conn::open(ctx.addr, ctx.session);
    ctx.barrier.wait();
    match opened {
        Ok((conn, took)) => {
            run.ops.attempt(Ok(()));
            run.open_us = Some(took.as_micros() as u64);
            Some(conn)
        }
        Err(why) => {
            run.ops.attempt(Err(ctx.describe(&format!("open: {why}"))));
            None
        }
    }
}

/// Reads the replies that end a session — the tail `Reports` and `Done` —
/// and checks the server's accounting and the whole trace.
fn close_session(
    ctx: &SessionCtx<'_>,
    run: &mut SessionRun,
    reader: &mut BufReader<TcpStream>,
    mut checker: crate::digest::Checker<'_>,
    chunks_acked: u64,
) {
    let outcome = (|| {
        match recv(reader)? {
            ServerFrame::Reports(mut tail) => checker.push_batch(&mut tail),
            other => return Err(format!("unexpected tail reply: {other:?}")),
        }
        match recv(reader)? {
            ServerFrame::Done { chunks, bytes, .. }
                if chunks == chunks_acked && bytes == run.bytes_acked =>
            {
                Ok(())
            }
            other => Err(format!(
                "unexpected end of session (acknowledged {chunks_acked} chunks, {} bytes): {other:?}",
                run.bytes_acked
            )),
        }
    })();
    let outcome = outcome.and_then(|()| {
        checker
            .finish(run.bytes_acked)
            .map_err(|m| format!("stream {}: {m}", ctx.session))
    });
    if let Err(why) = outcome {
        run.ops.fail(ctx.describe(&why));
    }
}

fn closed_session(ctx: &SessionCtx<'_>, scope: &mut Scope<'_>) -> SessionRun {
    let mut run = SessionRun::default();
    let Some(mut conn) = open_session(ctx, &mut run) else {
        return run;
    };
    let session_span = scope.enter("client.session", Request::Stream(ctx.session as u32));
    let epoch = Instant::now();
    let mut checker = ctx.expected.checker();
    let mut chunks_acked = 0u64;
    for (k, chunk) in ctx.stream.chunks(ctx.chunk_bytes).enumerate() {
        if epoch.elapsed() >= ctx.window {
            break;
        }
        run.ops.attempted += 1;
        run.sends += 1;
        let sent_at = Instant::now();
        let exchanged = scope
            .span("client.send", ctx.request(k), || {
                send(&mut conn.writer, &ClientFrame::Chunk(chunk.to_vec()))
            })
            .and_then(|()| {
                scope.span("client.wait_reply", ctx.request(k), || {
                    recv_raw(&mut conn.reader)
                })
            });
        let replied_at = Instant::now();
        let reply = exchanged.and_then(|body| {
            scope.span("client.decode", ctx.request(k), || {
                decode_server(&body).map_err(|e| format!("decode: {e}"))
            })
        });
        let reports = match reply {
            Ok(ServerFrame::Reports(reports)) => Ok(reports),
            Ok(other) => Err(format!("unexpected reply {other:?}")),
            Err(why) => Err(why),
        };
        match reports {
            Ok(mut reports) => {
                run.latencies_ns
                    .push((replied_at - sent_at).as_nanos() as u64);
                run.bytes_acked += chunk.len() as u64;
                run.active = replied_at - epoch;
                chunks_acked += 1;
                checker.push_batch(&mut reports);
            }
            Err(why) => {
                // The session is dead: nothing more can be checked on it.
                run.ops.fail(ctx.describe(&format!("chunk {k}: {why}")));
                scope.exit(session_span);
                return run;
            }
        }
    }
    match send(&mut conn.writer, &ClientFrame::Finish) {
        Ok(()) => close_session(ctx, &mut run, &mut conn.reader, checker, chunks_acked),
        Err(why) => run.ops.fail(ctx.describe(&format!("finish: {why}"))),
    }
    scope.exit(session_span);
    run
}

/// What an open-loop session's receiver saw.
struct Received {
    /// Arrival of every `Reports` frame; the last one is the tail flush.
    stamps: Vec<Instant>,
    /// The `(chunks, bytes)` of `Done`, or why it never came.
    done: Result<(u64, u64), String>,
    /// The verdict on the whole trace.
    trace: Result<(), String>,
}

/// Receives an open-loop session's replies until `Done`, stamping each
/// `Reports` on arrival.
fn receive_all(
    ctx: &SessionCtx<'_>,
    reader: &mut BufReader<TcpStream>,
    received: &AtomicU64,
    scope: &mut Scope<'_>,
) -> Received {
    let mut stamps = Vec::new();
    let mut checker = ctx.expected.checker();
    let done = loop {
        let k = stamps.len();
        let body = scope.span("client.wait_reply", ctx.request(k), || recv_raw(reader));
        let arrived = Instant::now();
        let frame = body.and_then(|body| {
            scope.span("client.decode", ctx.request(k), || {
                decode_server(&body).map_err(|e| format!("decode: {e}"))
            })
        });
        match frame {
            Ok(ServerFrame::Reports(mut reports)) => {
                stamps.push(arrived);
                received.fetch_add(1, Ordering::Relaxed);
                checker.push_batch(&mut reports);
            }
            Ok(ServerFrame::Done { chunks, bytes, .. }) => break Ok((chunks, bytes)),
            Ok(other) => break Err(format!("reply {k}: unexpected {other:?}")),
            Err(why) => break Err(format!("reply {k}: {why}")),
        }
    };
    let acked = stamps.len().saturating_sub(1) * ctx.chunk_bytes;
    let trace = checker
        .finish(acked.min(ctx.stream.len()) as u64)
        .map_err(|m| format!("stream {}: {m}", ctx.session));
    Received {
        stamps,
        done,
        trace,
    }
}

fn open_session_paced(
    ctx: &SessionCtx<'_>,
    interval: Duration,
    scope: &mut Scope<'_>,
) -> SessionRun {
    let mut run = SessionRun::default();
    let Some(conn) = open_session(ctx, &mut run) else {
        return run;
    };
    let Conn {
        sock,
        mut reader,
        mut writer,
    } = conn;
    let session_span = scope.enter("client.session", Request::Stream(ctx.session as u32));
    // The schedule hangs off this one instant: a late send does not push
    // the later due times back, so stalls cannot hide in the schedule.
    let epoch = Instant::now();
    let due = |k: usize| epoch + interval * k as u32;
    let received = AtomicU64::new(0);
    let mut receiver_scope = scope.fork();
    let Received {
        stamps,
        done,
        trace,
    } = std::thread::scope(|threads| {
        let receiver =
            threads.spawn(|| receive_all(ctx, &mut reader, &received, &mut receiver_scope));
        let mut send_failed = None;
        for (k, chunk) in ctx.stream.chunks(ctx.chunk_bytes).enumerate() {
            if due(k) >= epoch + ctx.window {
                break;
            }
            if let Some(wait) = due(k).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            run.ops.attempted += 1;
            run.sends += 1;
            if Instant::now().saturating_duration_since(due(k)) > LATE_SEND {
                run.late_sends += 1;
            }
            let sent = scope.span("client.send", ctx.request(k), || {
                send(&mut writer, &ClientFrame::Chunk(chunk.to_vec()))
            });
            if let Err(why) = sent {
                send_failed = Some(format!("chunk {k}: {why}"));
                break;
            }
        }
        run.outstanding = run.sends - received.load(Ordering::Relaxed).min(run.sends);
        let finished = match send_failed {
            None => send(&mut writer, &ClientFrame::Finish),
            Some(why) => Err(why),
        };
        if let Err(why) = finished {
            run.ops.fail(ctx.describe(&why));
            // Nothing more will be answered: wake the receiver.
            let _ = sock.shutdown(Shutdown::Both);
        }
        receiver.join().expect("receiver thread panicked")
    });
    drop(receiver_scope);
    scope.exit(session_span);

    // Every stamp but the last (the tail flush) answers one chunk.
    let replies = stamps.len().saturating_sub(1).min(run.sends as usize);
    for (k, arrived) in stamps.iter().take(replies).enumerate() {
        run.latencies_ns
            .push(arrived.saturating_duration_since(due(k)).as_nanos() as u64);
    }
    run.bytes_acked = (replies * ctx.chunk_bytes) as u64;
    if replies > 0 {
        run.active = stamps[replies - 1] - epoch;
    }
    for _ in replies as u64..run.sends {
        run.ops.fail(ctx.describe("a chunk was never answered"));
    }
    let accounted = done.and_then(|(chunks, bytes)| {
        if chunks == run.sends && bytes == run.sends * ctx.chunk_bytes as u64 {
            Ok(())
        } else {
            Err(format!(
                "Done accounts {chunks} chunks / {bytes} bytes, sent {}",
                run.sends
            ))
        }
    });
    if let Err(why) = accounted.and(trace) {
        run.ops.fail(ctx.describe(&why));
    }
    run
}

/// Runs one session per stream concurrently for `window` (or until a
/// stream ends) and checks every reply.
#[allow(clippy::too_many_arguments)]
pub fn repetition(
    workload: &str,
    addr: SocketAddr,
    pace: Pace,
    chunk_bytes: usize,
    streams: &[&[u8]],
    expected: &[Expected],
    window: Duration,
    scope: &mut Scope<'_>,
    ops: &mut Ops,
) -> Rep {
    // The sessions and this thread, which samples the thread count.
    let barrier = Barrier::new(streams.len() + 1);
    let rep_span = scope.enter("client.repetition", Request::None);
    let (runs, threads_mid) = std::thread::scope(|threads| {
        let handles: Vec<_> = streams
            .iter()
            .zip(expected)
            .enumerate()
            .map(|(session, (stream, expected))| {
                let ctx = SessionCtx {
                    workload,
                    addr,
                    session,
                    stream,
                    expected,
                    chunk_bytes,
                    window,
                    barrier: &barrier,
                };
                let mut scope = scope.fork();
                threads.spawn(move || match pace {
                    Pace::Closed => closed_session(&ctx, &mut scope),
                    Pace::Open { interval } => open_session_paced(&ctx, interval, &mut scope),
                })
            })
            .collect();
        // Every session is open and streaming shortly after the barrier.
        barrier.wait();
        std::thread::sleep(Duration::from_millis(5).min(window / 2));
        let threads_mid = procfs::threads();
        let runs: Vec<SessionRun> = handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect();
        (runs, threads_mid)
    });
    scope.exit(rep_span);

    // This thread, plus one per session, plus a receiver each when paced.
    let own = 1 + streams.len() as u64 * if pace == Pace::Closed { 1 } else { 2 };
    let mut rep = Rep {
        server_threads: threads_mid.map(|t| t.saturating_sub(own)),
        ..Rep::default()
    };
    let mut outstanding = 0;
    for run in runs {
        rep.bytes += run.bytes_acked;
        rep.wall = rep.wall.max(run.active);
        rep.latencies_ns.extend(run.latencies_ns);
        rep.open_us.extend(run.open_us);
        rep.sends += run.sends;
        rep.late_sends += run.late_sends;
        outstanding += run.outstanding;
        ops.absorb(run.ops);
    }
    // A backlog deeper than every session's bounded queue: the server was
    // behind the schedule when the repetition ended.
    rep.latencies_ns.sort_unstable();
    rep.backlogged = outstanding > (ServerConfig::default().queue_depth * streams.len()) as u64;
    rep
}
