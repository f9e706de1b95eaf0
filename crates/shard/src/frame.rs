//! The `sunder serve` wire protocol: length-prefixed frames over TCP.
//!
//! Every frame is `[u32 BE length][u8 opcode][payload]`, where `length`
//! counts the opcode byte plus the payload (so the minimum legal length
//! is 1). The parser is written to be hostile-input safe: zero-length
//! frames, lengths above the server's configured cap, truncated bodies,
//! unknown opcodes, and unknown protocol versions all surface as typed
//! [`FrameError`]s — never panics, never unbounded allocation (the
//! length is validated against the cap *before* the body buffer is
//! allocated).
//!
//! ## Client → server
//!
//! | opcode | frame | payload |
//! |--------|-------|---------|
//! | `0x01` | `Hello` | `u16 version`, `u16 tenant_len`, tenant bytes |
//! | `0x02` | `Chunk` | raw input bytes |
//! | `0x03` | `Finish` | empty |
//! | `0x04` | `Reload` | ANML text of the replacement rule automaton |
//!
//! ## Server → client
//!
//! | opcode | frame | payload |
//! |--------|-------|---------|
//! | `0x81` | `HelloAck` | `u16 version`, `u64 epoch` |
//! | `0x82` | `Reports` | repeated `(u64 position, u32 rule)` |
//! | `0x83` | `Done` | `u64 chunks`, `u64 bytes`, `u64 reports`, `u64 epoch` |
//! | `0x84` | `Error` | `u16 code`, UTF-8 message |
//! | `0x85` | `Reloaded` | `u64 epoch` |
//!
//! A session is: `Hello` → `HelloAck`, then any number of `Chunk` →
//! `Reports` exchanges (a chunk completing zero reports still gets an
//! empty `Reports`, so the client can pace itself), then `Finish` →
//! `Reports` (the padded tail) followed by `Done`. `Reload` may arrive
//! instead of `Chunk` on any connection; the server answers `Reloaded`
//! with the new epoch. Fatal problems answer `Error` and close.
//!
//! ## Sending
//!
//! `encode_into` appends a whole frame to a buffer and `write_to` hands
//! it to the writer as one `write_all`, so a frame is never split over
//! two segments by its sender. A header written apart from its payload
//! leaves as a small segment; Nagle then holds the payload until that
//! segment is acknowledged, and a peer with nothing to send delays the
//! acknowledgement by ~40 ms — once per frame on a lock-step connection.
//! Senders should also set `TCP_NODELAY`.

use std::io::{Read, Write};

/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Default cap on a frame's declared length (opcode + payload), bytes.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// `Error` frame code: the server is at its session cap.
pub const ERR_BUSY: u16 = 1;
/// `Error` frame code: the tenant is over its session quota.
pub const ERR_QUOTA: u16 = 2;
/// `Error` frame code: malformed or protocol-violating frame.
pub const ERR_PROTOCOL: u16 = 3;
/// `Error` frame code: unsupported protocol version in `Hello`.
pub const ERR_VERSION: u16 = 4;
/// `Error` frame code: the chunk blew its execution deadline.
pub const ERR_DEADLINE: u16 = 5;
/// `Error` frame code: the session worker panicked (isolated).
pub const ERR_PANIC: u16 = 6;
/// `Error` frame code: a `Reload` payload failed to compile.
pub const ERR_RELOAD: u16 = 7;
/// `Error` frame code: internal execution failure.
pub const ERR_INTERNAL: u16 = 8;
/// `Error` frame code: the server is draining and refused the work.
pub const ERR_SHUTDOWN: u16 = 9;

/// A parsed client → server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFrame {
    /// Session open: protocol version + tenant name.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// Tenant the session bills against (quota key).
        tenant: String,
    },
    /// One chunk of stream input.
    Chunk(Vec<u8>),
    /// End of stream: flush the tail, answer `Done`.
    Finish,
    /// Hot-reload the pattern DB from this ANML text.
    Reload(String),
}

/// A parsed server → client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerFrame {
    /// Session accepted.
    HelloAck {
        /// Protocol version the server speaks.
        version: u16,
        /// Pipeline epoch the session pinned.
        epoch: u64,
    },
    /// Reports completed by the last chunk (original coordinates).
    Reports(Vec<(u64, u32)>),
    /// End-of-stream accounting.
    Done {
        /// Chunks the session fed.
        chunks: u64,
        /// Bytes the session fed.
        bytes: u64,
        /// Reports over the whole stream.
        reports: u64,
        /// Pipeline epoch the session executed on.
        epoch: u64,
    },
    /// Fatal session error; the server closes after sending it.
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// A `Reload` succeeded; new sessions pin this epoch.
    Reloaded {
        /// The new pipeline epoch.
        epoch: u64,
    },
}

/// Why a frame failed to parse.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Declared length 0 (a frame must at least carry its opcode).
    ZeroLength,
    /// Declared length exceeds the configured cap.
    Oversized {
        /// The declared length.
        declared: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The connection closed mid-frame.
    Truncated,
    /// Opcode not in the protocol table.
    UnknownOpcode(u8),
    /// `Hello` declared a protocol version this build does not speak.
    UnknownVersion(u16),
    /// The payload did not decode for its opcode.
    BadPayload(&'static str),
    /// Transport error.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::ZeroLength => f.write_str("zero-length frame"),
            FrameError::Oversized { declared, max } => {
                write!(f, "frame length {declared} exceeds cap {max}")
            }
            FrameError::Truncated => f.write_str("connection closed mid-frame"),
            FrameError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            FrameError::UnknownVersion(v) => write!(
                f,
                "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
            ),
            FrameError::BadPayload(what) => write!(f, "bad payload: {what}"),
            FrameError::Io(kind) => write!(f, "transport error: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e.kind())
        }
    }
}

/// Reads one raw frame body (opcode + payload) off `r`, enforcing the
/// length cap *before* allocating. `Ok(None)` is a clean EOF at a frame
/// boundary — the peer hung up between frames, not inside one.
///
/// # Errors
///
/// [`FrameError::ZeroLength`], [`FrameError::Oversized`],
/// [`FrameError::Truncated`], or a transport error.
pub fn read_raw(r: &mut impl Read, max_frame_bytes: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    // A clean EOF before any length byte is a normal hangup.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e.into()),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf);
    if len == 0 {
        return Err(FrameError::ZeroLength);
    }
    if len > max_frame_bytes {
        return Err(FrameError::Oversized {
            declared: len,
            max: max_frame_bytes,
        });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

fn take_u16(body: &[u8], at: usize) -> Result<u16, FrameError> {
    body.get(at..at + 2)
        .map(|b| u16::from_be_bytes([b[0], b[1]]))
        .ok_or(FrameError::BadPayload("short u16 field"))
}

fn take_u32(body: &[u8], at: usize) -> Result<u32, FrameError> {
    body.get(at..at + 4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or(FrameError::BadPayload("short u32 field"))
}

fn take_u64(body: &[u8], at: usize) -> Result<u64, FrameError> {
    body.get(at..at + 8)
        .map(|b| u64::from_be_bytes(b.try_into().expect("slice of 8")))
        .ok_or(FrameError::BadPayload("short u64 field"))
}

/// Decodes a raw body (as returned by [`read_raw`]) into a client frame.
///
/// # Errors
///
/// [`FrameError::UnknownOpcode`], [`FrameError::UnknownVersion`], or
/// [`FrameError::BadPayload`].
pub fn decode_client(body: &[u8]) -> Result<ClientFrame, FrameError> {
    let (&opcode, payload) = body
        .split_first()
        .expect("read_raw rejects zero-length frames");
    match opcode {
        0x01 => {
            let version = take_u16(payload, 0)?;
            if version != PROTOCOL_VERSION {
                return Err(FrameError::UnknownVersion(version));
            }
            let tenant_len = take_u16(payload, 2)? as usize;
            let tenant = payload
                .get(4..4 + tenant_len)
                .ok_or(FrameError::BadPayload("tenant name truncated"))?;
            let tenant = std::str::from_utf8(tenant)
                .map_err(|_| FrameError::BadPayload("tenant name not UTF-8"))?;
            Ok(ClientFrame::Hello {
                version,
                tenant: tenant.to_string(),
            })
        }
        0x02 => Ok(ClientFrame::Chunk(payload.to_vec())),
        0x03 => {
            if !payload.is_empty() {
                return Err(FrameError::BadPayload("Finish carries no payload"));
            }
            Ok(ClientFrame::Finish)
        }
        0x04 => {
            let anml = std::str::from_utf8(payload)
                .map_err(|_| FrameError::BadPayload("Reload payload not UTF-8"))?;
            Ok(ClientFrame::Reload(anml.to_string()))
        }
        other => Err(FrameError::UnknownOpcode(other)),
    }
}

/// Decodes a raw body into a server frame (used by clients and tests).
///
/// # Errors
///
/// [`FrameError::UnknownOpcode`] or [`FrameError::BadPayload`].
pub fn decode_server(body: &[u8]) -> Result<ServerFrame, FrameError> {
    let (&opcode, payload) = body
        .split_first()
        .expect("read_raw rejects zero-length frames");
    match opcode {
        0x81 => Ok(ServerFrame::HelloAck {
            version: take_u16(payload, 0)?,
            epoch: take_u64(payload, 2)?,
        }),
        0x82 => {
            if !payload.len().is_multiple_of(12) {
                return Err(FrameError::BadPayload(
                    "Reports payload not 12-byte records",
                ));
            }
            let mut reports = Vec::with_capacity(payload.len() / 12);
            for rec in payload.chunks_exact(12) {
                reports.push((take_u64(rec, 0)?, take_u32(rec, 8)?));
            }
            Ok(ServerFrame::Reports(reports))
        }
        0x83 => Ok(ServerFrame::Done {
            chunks: take_u64(payload, 0)?,
            bytes: take_u64(payload, 8)?,
            reports: take_u64(payload, 16)?,
            epoch: take_u64(payload, 24)?,
        }),
        0x84 => {
            let code = take_u16(payload, 0)?;
            let message = std::str::from_utf8(&payload[2..])
                .map_err(|_| FrameError::BadPayload("Error message not UTF-8"))?
                .to_string();
            Ok(ServerFrame::Error { code, message })
        }
        0x85 => Ok(ServerFrame::Reloaded {
            epoch: take_u64(payload, 0)?,
        }),
        other => Err(FrameError::UnknownOpcode(other)),
    }
}

fn too_long(what: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, what)
}

/// Appends a frame's header — the length prefix, then the opcode — for a
/// payload of `payload_len` bytes the caller appends next, reserving
/// room for the whole frame. A payload the `u32` prefix cannot describe
/// is refused before a byte is appended.
fn begin_frame(buf: &mut Vec<u8>, opcode: u8, payload_len: usize) -> std::io::Result<()> {
    let len = u32::try_from(payload_len)
        .ok()
        .and_then(|n| n.checked_add(1))
        .ok_or_else(|| too_long("frame payload does not fit the u32 length prefix"))?;
    buf.reserve(5 + payload_len);
    buf.extend_from_slice(&len.to_be_bytes());
    buf.push(opcode);
    Ok(())
}

impl ClientFrame {
    /// Appends the complete frame (length prefix included) to `buf`, so
    /// that it can leave in a single write.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when a length field cannot describe its data (a
    /// payload of 4 GiB − 1 or more, a tenant name over 64 KiB − 1);
    /// `buf` is left as it was.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> std::io::Result<()> {
        match self {
            ClientFrame::Hello { version, tenant } => {
                let tenant_len = u16::try_from(tenant.len())
                    .map_err(|_| too_long("tenant name does not fit its u16 length field"))?;
                begin_frame(buf, 0x01, 4 + tenant.len())?;
                buf.extend_from_slice(&version.to_be_bytes());
                buf.extend_from_slice(&tenant_len.to_be_bytes());
                buf.extend_from_slice(tenant.as_bytes());
            }
            ClientFrame::Chunk(bytes) => {
                begin_frame(buf, 0x02, bytes.len())?;
                buf.extend_from_slice(bytes);
            }
            ClientFrame::Finish => begin_frame(buf, 0x03, 0)?,
            ClientFrame::Reload(anml) => {
                begin_frame(buf, 0x04, anml.len())?;
                buf.extend_from_slice(anml.as_bytes());
            }
        }
        Ok(())
    }

    /// Serializes the frame (length prefix included) onto `w` as exactly
    /// one `write_all`: a frame split over two writes meets Nagle and the
    /// peer's delayed ACK on a lock-step connection.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and [`ClientFrame::encode_into`]'s.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        w.write_all(&buf)
    }
}

impl ServerFrame {
    /// Appends the complete frame (length prefix included) to `buf`, so
    /// that it can leave in a single write.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the payload is 4 GiB − 1 or more; `buf` is
    /// left as it was.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> std::io::Result<()> {
        match self {
            ServerFrame::HelloAck { version, epoch } => {
                begin_frame(buf, 0x81, 10)?;
                buf.extend_from_slice(&version.to_be_bytes());
                buf.extend_from_slice(&epoch.to_be_bytes());
            }
            ServerFrame::Reports(reports) => {
                begin_frame(buf, 0x82, reports.len().saturating_mul(12))?;
                for (pos, rule) in reports {
                    buf.extend_from_slice(&pos.to_be_bytes());
                    buf.extend_from_slice(&rule.to_be_bytes());
                }
            }
            ServerFrame::Done {
                chunks,
                bytes,
                reports,
                epoch,
            } => {
                begin_frame(buf, 0x83, 32)?;
                for v in [chunks, bytes, reports, epoch] {
                    buf.extend_from_slice(&v.to_be_bytes());
                }
            }
            ServerFrame::Error { code, message } => {
                begin_frame(buf, 0x84, 2 + message.len())?;
                buf.extend_from_slice(&code.to_be_bytes());
                buf.extend_from_slice(message.as_bytes());
            }
            ServerFrame::Reloaded { epoch } => {
                begin_frame(buf, 0x85, 8)?;
                buf.extend_from_slice(&epoch.to_be_bytes());
            }
        }
        Ok(())
    }

    /// Serializes the frame (length prefix included) onto `w` as exactly
    /// one `write_all` (see [`ClientFrame::write_to`]).
    ///
    /// # Errors
    ///
    /// Propagates transport errors and [`ServerFrame::encode_into`]'s.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        w.write_all(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn round_trip_client(frame: ClientFrame) {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        let body = read_raw(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .expect("one frame present");
        assert_eq!(decode_client(&body).unwrap(), frame);
    }

    fn round_trip_server(frame: ServerFrame) {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        let body = read_raw(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .expect("one frame present");
        assert_eq!(decode_server(&body).unwrap(), frame);
    }

    #[test]
    fn every_frame_round_trips() {
        round_trip_client(ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            tenant: "tenant-7".into(),
        });
        round_trip_client(ClientFrame::Chunk(b"payload bytes".to_vec()));
        round_trip_client(ClientFrame::Chunk(Vec::new()));
        round_trip_client(ClientFrame::Finish);
        round_trip_client(ClientFrame::Reload("<anml/>".into()));
        round_trip_server(ServerFrame::HelloAck {
            version: PROTOCOL_VERSION,
            epoch: 3,
        });
        round_trip_server(ServerFrame::Reports(vec![(0, 1), (u64::MAX, u32::MAX)]));
        round_trip_server(ServerFrame::Reports(Vec::new()));
        round_trip_server(ServerFrame::Done {
            chunks: 5,
            bytes: 1024,
            reports: 9,
            epoch: 2,
        });
        round_trip_server(ServerFrame::Error {
            code: ERR_PROTOCOL,
            message: "bad frame".into(),
        });
        round_trip_server(ServerFrame::Reloaded { epoch: 4 });
    }

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every client variant, the variable-length ones carrying `n`
    /// payload bytes (a tenant name stops at its `u16` field).
    fn client_frames(n: usize) -> Vec<ClientFrame> {
        vec![
            ClientFrame::Hello {
                version: PROTOCOL_VERSION,
                tenant: "t".repeat(n.min(usize::from(u16::MAX))),
            },
            ClientFrame::Chunk(vec![0xA5; n]),
            ClientFrame::Finish,
            ClientFrame::Reload("<".repeat(n)),
        ]
    }

    /// Every server variant, the variable-length ones carrying about `n`
    /// payload bytes.
    fn server_frames(n: usize) -> Vec<ServerFrame> {
        vec![
            ServerFrame::HelloAck {
                version: PROTOCOL_VERSION,
                epoch: 9,
            },
            ServerFrame::Reports((0..n / 12).map(|i| (i as u64, i as u32)).collect()),
            ServerFrame::Done {
                chunks: 1,
                bytes: 2,
                reports: 3,
                epoch: 4,
            },
            ServerFrame::Error {
                code: ERR_INTERNAL,
                message: "e".repeat(n),
            },
            ServerFrame::Reloaded { epoch: 5 },
        ]
    }

    /// `write` must reach the writer as one `write` call carrying exactly
    /// `encoded`, both directly and through a default `BufWriter`.
    fn assert_single_write(
        what: &str,
        encoded: &[u8],
        write: &dyn Fn(&mut dyn Write) -> std::io::Result<()>,
    ) {
        let declared = u32::from_be_bytes(encoded[..4].try_into().unwrap());
        assert_eq!(declared as usize, encoded.len() - 4, "{what}: prefix");

        let mut direct = CountingWriter::default();
        write(&mut direct).unwrap();
        assert_eq!(direct.writes, [encoded.len()], "{what}: direct");
        assert_eq!(direct.bytes, encoded, "{what}: direct");

        let mut buffered = std::io::BufWriter::new(CountingWriter::default());
        write(&mut buffered).unwrap();
        buffered.flush().unwrap();
        let inner = buffered.get_ref();
        assert_eq!(inner.writes, [encoded.len()], "{what}: BufWriter + flush");
        assert_eq!(inner.bytes, encoded, "{what}: BufWriter + flush");
    }

    #[test]
    fn every_frame_leaves_as_exactly_one_write() {
        for n in [0, 1, 1024, 8192 - 5, 8192, 16 * 1024, 256 * 1024] {
            for frame in client_frames(n) {
                let mut encoded = Vec::new();
                frame.encode_into(&mut encoded).unwrap();
                let what = format!("client opcode {:#04x}, {n} bytes", encoded[4]);
                assert_single_write(&what, &encoded, &|mut w| frame.write_to(&mut w));
            }
            for frame in server_frames(n) {
                let mut encoded = Vec::new();
                frame.encode_into(&mut encoded).unwrap();
                let what = format!("server opcode {:#04x}, {n} bytes", encoded[4]);
                assert_single_write(&what, &encoded, &|mut w| frame.write_to(&mut w));
            }
        }
    }

    #[test]
    fn lengths_the_prefix_cannot_describe_are_refused_not_truncated() {
        let mut buf = vec![0xEE];
        for payload_len in [u32::MAX as usize, usize::MAX] {
            let err = begin_frame(&mut buf, 0x02, payload_len).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        }
        let err = ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            tenant: "t".repeat(usize::from(u16::MAX) + 1),
        }
        .encode_into(&mut buf)
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(buf, [0xEE], "a refused frame appends nothing");
    }

    fn ascii(max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(0x20u8..0x7F, 0..max)
            .prop_map(|b| String::from_utf8(b).expect("printable ASCII"))
    }

    fn any_client_frame() -> impl Strategy<Value = ClientFrame> {
        prop_oneof![
            ascii(40).prop_map(|tenant| ClientFrame::Hello {
                version: PROTOCOL_VERSION,
                tenant,
            }),
            prop::collection::vec(any::<u8>(), 0..600).prop_map(ClientFrame::Chunk),
            Just(ClientFrame::Finish),
            ascii(300).prop_map(ClientFrame::Reload),
        ]
    }

    fn any_server_frame() -> impl Strategy<Value = ServerFrame> {
        prop_oneof![
            (any::<u16>(), any::<u64>())
                .prop_map(|(version, epoch)| ServerFrame::HelloAck { version, epoch }),
            prop::collection::vec((any::<u64>(), any::<u32>()), 0..60)
                .prop_map(ServerFrame::Reports),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                |(chunks, bytes, reports, epoch)| ServerFrame::Done {
                    chunks,
                    bytes,
                    reports,
                    epoch,
                }
            ),
            (any::<u16>(), ascii(80))
                .prop_map(|(code, message)| ServerFrame::Error { code, message }),
            any::<u64>().prop_map(|epoch| ServerFrame::Reloaded { epoch }),
        ]
    }

    /// `wire` holds exactly `frames`, back to back.
    fn assert_decodes_back_to_back<F: PartialEq + std::fmt::Debug>(
        wire: &[u8],
        frames: [&F; 2],
        decode: fn(&[u8]) -> Result<F, FrameError>,
    ) -> Result<(), TestCaseError> {
        let mut r = Cursor::new(wire);
        for frame in frames {
            let body = read_raw(&mut r, DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .expect("a frame");
            prop_assert_eq!(&decode(&body).unwrap(), frame);
        }
        prop_assert_eq!(read_raw(&mut r, DEFAULT_MAX_FRAME_BYTES).unwrap(), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn client_frames_appended_to_one_buffer_decode_back_to_back(
            first in any_client_frame(),
            second in any_client_frame(),
        ) {
            let mut wire = Vec::new();
            first.encode_into(&mut wire).unwrap();
            second.encode_into(&mut wire).unwrap();
            assert_decodes_back_to_back(&wire, [&first, &second], decode_client)?;
        }

        #[test]
        fn server_frames_appended_to_one_buffer_decode_back_to_back(
            first in any_server_frame(),
            second in any_server_frame(),
        ) {
            let mut wire = Vec::new();
            first.encode_into(&mut wire).unwrap();
            second.encode_into(&mut wire).unwrap();
            assert_decodes_back_to_back(&wire, [&first, &second], decode_server)?;
        }
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let bytes = 0u32.to_be_bytes();
        let err = read_raw(&mut Cursor::new(&bytes[..]), 1024).unwrap_err();
        assert_eq!(err, FrameError::ZeroLength);
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        // Declares 4 GiB − 1; must error from the length alone without
        // trying to read (or allocate) the body.
        let bytes = u32::MAX.to_be_bytes();
        let err = read_raw(&mut Cursor::new(&bytes[..]), 1024).unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                declared: u32::MAX,
                max: 1024
            }
        );
    }

    #[test]
    fn truncated_frames_are_detected() {
        // Length says 10, body has 3 bytes.
        let mut buf = 10u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0x02, 1, 2]);
        let err = read_raw(&mut Cursor::new(&buf), 1024).unwrap_err();
        assert_eq!(err, FrameError::Truncated);
        // Truncated inside the length prefix itself.
        let err = read_raw(&mut Cursor::new(&[0u8, 0][..]), 1024).unwrap_err();
        assert_eq!(err, FrameError::Truncated);
    }

    #[test]
    fn clean_eof_at_frame_boundary_is_none() {
        assert_eq!(read_raw(&mut Cursor::new(&[][..]), 1024).unwrap(), None);
    }

    #[test]
    fn unknown_opcode_is_typed() {
        assert_eq!(
            decode_client(&[0x7F]).unwrap_err(),
            FrameError::UnknownOpcode(0x7F)
        );
        assert_eq!(
            decode_server(&[0x01]).unwrap_err(),
            FrameError::UnknownOpcode(0x01)
        );
    }

    #[test]
    fn unknown_version_is_typed() {
        let mut buf = Vec::new();
        ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            tenant: "t".into(),
        }
        .write_to(&mut buf)
        .unwrap();
        buf[5] = 0xFF; // clobber the version's high byte
        let body = read_raw(&mut Cursor::new(&buf), 1024).unwrap().unwrap();
        assert!(matches!(
            decode_client(&body),
            Err(FrameError::UnknownVersion(v)) if v != PROTOCOL_VERSION
        ));
    }

    #[test]
    fn malformed_payloads_are_typed_not_panics() {
        // Hello too short for its declared tenant length.
        let hello = [0x01, 0x00, 0x01, 0x00, 0x10, b'x'];
        assert!(matches!(
            decode_client(&hello),
            Err(FrameError::BadPayload(_))
        ));
        // Finish with a stray payload byte.
        assert!(matches!(
            decode_client(&[0x03, 0xAA]),
            Err(FrameError::BadPayload(_))
        ));
        // Reload with invalid UTF-8.
        assert!(matches!(
            decode_client(&[0x04, 0xFF, 0xFE]),
            Err(FrameError::BadPayload(_))
        ));
        // Reports with a ragged record.
        assert!(matches!(
            decode_server(&[0x82, 1, 2, 3]),
            Err(FrameError::BadPayload(_))
        ));
    }
}
