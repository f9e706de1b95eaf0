//! The chaos client: acts out connection-level faults against a
//! [`MatchServer`](crate::server::MatchServer).
//!
//! Where the worker pool acts out `panic`/`stall` directives *inside*
//! the server, the connection-level [`FaultKind`]s are the client's to
//! perform on the wire: dropping the socket mid-frame, trickling bytes,
//! sending garbage, or demanding a pattern-DB reload in the middle of a
//! burst. [`run_chaos`] drives one session per input stream (tenant
//! `s<INDEX>`, so plan item `i` deterministically targets session `i` on
//! both sides of the wire), all concurrently, and returns a typed
//! [`SessionOutcome`] per session for the harness to judge: survivors
//! must be byte-identical to a whole-input run, victims must have died
//! the way the plan said they would.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use sunder_resilience::{FaultKind, FaultPlan};

use crate::frame::{decode_server, read_raw, ClientFrame, ServerFrame, PROTOCOL_VERSION};

/// Read cap for server replies on the chaos client side.
const CLIENT_MAX_FRAME: u32 = 64 * 1024 * 1024;

/// How a chaos session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Clean run: `Finish` acknowledged with `Done`.
    Completed {
        /// Pipeline epoch the session pinned (from `HelloAck`).
        epoch: u64,
        /// Every report the server streamed back, in order.
        reports: Vec<(u64, u32)>,
        /// Chunks the server accounted in `Done`.
        chunks: u64,
        /// Bytes the server accounted in `Done`.
        bytes: u64,
    },
    /// The client dropped the connection on purpose (Disconnect fault).
    Disconnected {
        /// Complete chunks delivered before the drop.
        chunks_sent: u64,
    },
    /// The server refused the session at the handshake.
    Refused {
        /// `ERR_*` code from the `Error` frame.
        code: u16,
        /// Server's message.
        message: String,
    },
    /// The server killed the session mid-stream with an `Error` frame
    /// (injected panic, deadline, or our own malformed frame).
    Errored {
        /// `ERR_*` code from the `Error` frame.
        code: u16,
        /// Server's message.
        message: String,
    },
    /// The transport failed outside the protocol (unexpected EOF, I/O).
    Transport(String),
}

impl SessionOutcome {
    /// Short label for attribution artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            SessionOutcome::Completed { .. } => "completed",
            SessionOutcome::Disconnected { .. } => "disconnected",
            SessionOutcome::Refused { .. } => "refused",
            SessionOutcome::Errored { .. } => "errored",
            SessionOutcome::Transport(_) => "transport",
        }
    }
}

/// Knobs for [`run_chaos`].
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Chunk size for sessions with no overriding fault.
    pub chunk_size: usize,
    /// ANML payload `ReloadDuringBurst` sessions send.
    pub reload_anml: Option<String>,
    /// Client-side read timeout (a hung server fails the session rather
    /// than the harness).
    pub read_timeout: Duration,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            chunk_size: 64,
            reload_anml: None,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// Runs one chaos session per input, concurrently; returns the outcomes
/// indexed like `inputs`. Session `i` connects as tenant `s<i>` and acts
/// out the connection-level faults `plan` assigns to item `i`.
pub fn run_chaos(
    addr: SocketAddr,
    inputs: &[Vec<u8>],
    plan: &FaultPlan,
    opts: &ChaosOptions,
) -> Vec<SessionOutcome> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| {
                let faults: Vec<FaultKind> = plan.faults_for(i).cloned().collect();
                let opts = opts.clone();
                scope.spawn(move || run_session(addr, i, input, &faults, &opts))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| SessionOutcome::Transport("client panicked".into()))
            })
            .collect()
    })
}

/// Runs one session against `addr` as tenant `s<index>`, acting out
/// `faults`. Lock-step protocol: every `Chunk` waits for its `Reports`
/// reply, so outcomes are deterministic.
pub fn run_session(
    addr: SocketAddr,
    index: usize,
    input: &[u8],
    faults: &[FaultKind],
    opts: &ChaosOptions,
) -> SessionOutcome {
    let mut disconnect_after: Option<u64> = None;
    let mut reload_after: Option<u64> = None;
    let mut malformed: Option<u64> = None;
    let mut chunk_size = opts.chunk_size.max(1);
    let mut drip_delay: Option<Duration> = None;
    for kind in faults {
        match kind {
            FaultKind::Disconnect { after_chunks } => disconnect_after = Some(*after_chunks),
            FaultKind::ReloadDuringBurst { after_chunks } => reload_after = Some(*after_chunks),
            FaultKind::MalformedFrame { mode } => malformed = Some(*mode),
            FaultKind::SlowDrip {
                chunk_bytes,
                delay_millis,
            } => {
                chunk_size = (*chunk_bytes).max(1) as usize;
                drip_delay = Some(Duration::from_millis(*delay_millis));
            }
            // Worker-level faults are the server's to act out.
            _ => {}
        }
    }

    let sock = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return SessionOutcome::Transport(format!("connect: {e}")),
    };
    let _ = sock.set_read_timeout(Some(opts.read_timeout));
    let _ = sock.set_nodelay(true);
    let mut reader = match sock.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => return SessionOutcome::Transport(format!("clone socket: {e}")),
    };
    let mut writer = BufWriter::new(&sock);

    let send = |writer: &mut BufWriter<&TcpStream>, frame: &ClientFrame| -> Result<(), String> {
        frame
            .write_to(writer)
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send: {e}"))
    };
    let recv = |reader: &mut BufReader<TcpStream>| -> Result<ServerFrame, String> {
        let body = read_raw(reader, CLIENT_MAX_FRAME)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| "recv: server closed the connection".to_string())?;
        decode_server(&body).map_err(|e| format!("recv: {e}"))
    };

    // Malformed mode 4: a Hello with a protocol version from the future.
    let version = if malformed == Some(4) {
        PROTOCOL_VERSION + 1
    } else {
        PROTOCOL_VERSION
    };
    if let Err(e) = send(
        &mut writer,
        &ClientFrame::Hello {
            version,
            tenant: format!("s{index}"),
        },
    ) {
        return SessionOutcome::Transport(e);
    }
    let epoch = match recv(&mut reader) {
        Ok(ServerFrame::HelloAck { epoch, .. }) => epoch,
        Ok(ServerFrame::Error { code, message }) => {
            return SessionOutcome::Refused { code, message }
        }
        Ok(other) => {
            return SessionOutcome::Transport(format!("unexpected handshake reply: {other:?}"))
        }
        Err(e) => return SessionOutcome::Transport(e),
    };

    let mut reports: Vec<(u64, u32)> = Vec::new();
    let mut chunks_sent = 0u64;
    for chunk in input.chunks(chunk_size) {
        // Act out scheduled mid-stream faults *before* the next chunk.
        if disconnect_after == Some(chunks_sent) {
            // A deliberately partial frame: full length prefix, torn body.
            let _ = writer.write_all(&64u32.to_be_bytes());
            let _ = writer.write_all(&[0x02, 0xAA, 0xBB]);
            let _ = writer.flush();
            let _ = sock.shutdown(Shutdown::Both);
            return SessionOutcome::Disconnected { chunks_sent };
        }
        if reload_after == Some(chunks_sent) {
            if let Some(anml) = &opts.reload_anml {
                if let Err(e) = send(&mut writer, &ClientFrame::Reload(anml.clone())) {
                    return SessionOutcome::Transport(e);
                }
                match recv(&mut reader) {
                    Ok(ServerFrame::Reloaded { .. }) => {}
                    Ok(ServerFrame::Error { code, message }) => {
                        return SessionOutcome::Errored { code, message }
                    }
                    Ok(other) => {
                        return SessionOutcome::Transport(format!(
                            "unexpected reload reply: {other:?}"
                        ))
                    }
                    Err(e) => return SessionOutcome::Transport(e),
                }
            }
        }
        if malformed.is_some_and(|m| m != 4) && chunks_sent == 1 {
            let mode = malformed.unwrap();
            let garbage_sent = write_malformed(&mut writer, mode);
            if garbage_sent {
                if mode == 3 {
                    // Half-close so the server's read_exact sees EOF and
                    // diagnoses the truncation instead of waiting for the
                    // 13 bytes that will never come.
                    let _ = sock.shutdown(Shutdown::Write);
                }
                // The server must answer with a typed Error, not hang.
                return match recv(&mut reader) {
                    Ok(ServerFrame::Error { code, message }) => {
                        SessionOutcome::Errored { code, message }
                    }
                    Ok(other) => {
                        SessionOutcome::Transport(format!("unexpected garbage reply: {other:?}"))
                    }
                    Err(e) => SessionOutcome::Transport(e),
                };
            }
        }
        if let Some(delay) = drip_delay {
            std::thread::sleep(delay);
        }
        if let Err(e) = send(&mut writer, &ClientFrame::Chunk(chunk.to_vec())) {
            return SessionOutcome::Transport(e);
        }
        chunks_sent += 1;
        match recv(&mut reader) {
            Ok(ServerFrame::Reports(r)) => reports.extend(r),
            Ok(ServerFrame::Error { code, message }) => {
                return SessionOutcome::Errored { code, message }
            }
            Ok(other) => {
                return SessionOutcome::Transport(format!("unexpected chunk reply: {other:?}"))
            }
            Err(e) => return SessionOutcome::Transport(e),
        }
    }
    if disconnect_after == Some(chunks_sent) {
        let _ = sock.shutdown(Shutdown::Both);
        return SessionOutcome::Disconnected { chunks_sent };
    }

    if let Err(e) = send(&mut writer, &ClientFrame::Finish) {
        return SessionOutcome::Transport(e);
    }
    let tail = match recv(&mut reader) {
        Ok(ServerFrame::Reports(r)) => r,
        Ok(ServerFrame::Error { code, message }) => {
            return SessionOutcome::Errored { code, message }
        }
        Ok(other) => return SessionOutcome::Transport(format!("unexpected tail reply: {other:?}")),
        Err(e) => return SessionOutcome::Transport(e),
    };
    reports.extend(tail);
    match recv(&mut reader) {
        Ok(ServerFrame::Done { chunks, bytes, .. }) => SessionOutcome::Completed {
            epoch,
            reports,
            chunks,
            bytes,
        },
        Ok(ServerFrame::Error { code, message }) => SessionOutcome::Errored { code, message },
        Ok(other) => SessionOutcome::Transport(format!("unexpected done reply: {other:?}")),
        Err(e) => SessionOutcome::Transport(e),
    }
}

/// Writes one malformed frame per `mode`. Returns `false` if the mode is
/// unknown (treated as no-op so plans stay forward-compatible).
fn write_malformed(writer: &mut impl Write, mode: u64) -> bool {
    let ok = match mode {
        // Zero-length frame.
        0 => writer.write_all(&0u32.to_be_bytes()),
        // Oversized declared length (body never sent).
        1 => writer.write_all(&u32::MAX.to_be_bytes()),
        // Unknown opcode.
        2 => writer
            .write_all(&1u32.to_be_bytes())
            .and_then(|()| writer.write_all(&[0x7F])),
        // Truncated body: declares 16 bytes, sends 3, then half-closes
        // so the server's read_exact hits EOF.
        3 => writer
            .write_all(&16u32.to_be_bytes())
            .and_then(|()| writer.write_all(&[0x02, 1, 2])),
        _ => return false,
    };
    ok.and_then(|()| writer.flush()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(
            SessionOutcome::Completed {
                epoch: 1,
                reports: vec![],
                chunks: 0,
                bytes: 0
            }
            .label(),
            "completed"
        );
        assert_eq!(
            SessionOutcome::Disconnected { chunks_sent: 2 }.label(),
            "disconnected"
        );
        assert_eq!(SessionOutcome::Transport("x".into()).label(), "transport");
    }
}
