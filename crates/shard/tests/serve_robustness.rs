//! Robustness envelope of the streaming match service, over a real
//! socket: protocol hardening, backpressure, admission control, hot
//! reload, panic isolation, per-chunk deadlines, and graceful drain.
//!
//! These tests drive `MatchServer` with hand-rolled clients (not the
//! chaos driver) so each property is exercised in isolation and the
//! assertions can inspect exact frames.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunder_automata::regex::compile_rule_set;
use sunder_automata::{anml, Nfa};
use sunder_oracle::PipelineConfig;
use sunder_resilience::FaultPlan;
use sunder_shard::frame::{
    decode_server, read_raw, ClientFrame, ServerFrame, ERR_BUSY, ERR_DEADLINE, ERR_PANIC,
    ERR_PROTOCOL, ERR_QUOTA, ERR_VERSION, PROTOCOL_VERSION,
};
use sunder_shard::{expected_reports, CompiledPipeline, MatchServer, ServerConfig, ShardSpec};
use sunder_sim::EngineKind;

fn rules() -> Nfa {
    compile_rule_set(&["ab+c", "[0-9]{3}", ".*net"]).unwrap()
}

const INPUT: &[u8] = b"zab-bc 192net abbbc 007xyq xy123net q";

fn config() -> ServerConfig {
    ServerConfig {
        config: PipelineConfig::Stride2,
        spec: ShardSpec::MaxShards(4),
        engine: EngineKind::Adaptive,
        drain_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

fn reference(nfa: &Nfa, cfg: &ServerConfig, input: &[u8]) -> Vec<(u64, u32)> {
    let pipeline =
        Arc::new(CompiledPipeline::compile(nfa, cfg.config, cfg.spec, cfg.engine).unwrap());
    expected_reports(&pipeline, input).unwrap()
}

/// A blocking test client speaking the frame protocol lock-step.
struct Client {
    sock: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &MatchServer, tenant: &str) -> Client {
        let sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(sock.try_clone().unwrap());
        let mut c = Client { sock, reader };
        c.send(&ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
        });
        c
    }

    fn send(&mut self, frame: &ClientFrame) {
        let mut w = BufWriter::new(&self.sock);
        frame.write_to(&mut w).unwrap();
        w.flush().unwrap();
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        let mut w = BufWriter::new(&self.sock);
        w.write_all(bytes).unwrap();
        w.flush().unwrap();
    }

    fn recv(&mut self) -> ServerFrame {
        let body = read_raw(&mut self.reader, u32::MAX)
            .expect("read reply")
            .expect("server closed unexpectedly");
        decode_server(&body).expect("decode reply")
    }

    fn expect_ack(&mut self) -> u64 {
        match self.recv() {
            ServerFrame::HelloAck { epoch, .. } => epoch,
            other => panic!("expected HelloAck, got {other:?}"),
        }
    }

    /// Streams `input` in `chunk` byte pieces, returns all reports.
    fn stream(&mut self, input: &[u8], chunk: usize) -> (Vec<(u64, u32)>, u64) {
        let mut reports = Vec::new();
        for piece in input.chunks(chunk) {
            self.send(&ClientFrame::Chunk(piece.to_vec()));
            match self.recv() {
                ServerFrame::Reports(r) => reports.extend(r),
                other => panic!("expected Reports, got {other:?}"),
            }
        }
        self.send(&ClientFrame::Finish);
        match self.recv() {
            ServerFrame::Reports(r) => reports.extend(r),
            other => panic!("expected tail Reports, got {other:?}"),
        }
        match self.recv() {
            ServerFrame::Done { epoch, .. } => (reports, epoch),
            other => panic!("expected Done, got {other:?}"),
        }
    }
}

#[test]
fn wire_session_is_byte_identical_to_whole_input_run() {
    let nfa = rules();
    let cfg = config();
    let expected = reference(&nfa, &cfg, INPUT);
    assert!(!expected.is_empty());
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();
    for chunk in [1usize, 3, 64] {
        let mut client = Client::connect(&server, "t0");
        assert_eq!(client.expect_ack(), 1);
        let (reports, epoch) = client.stream(INPUT, chunk);
        assert_eq!(reports, expected, "chunk={chunk}");
        assert_eq!(epoch, 1);
    }
    let report = server.drain();
    assert_eq!(report.forced, 0);
}

/// One report per input byte: a `CHUNK`-byte chunk answers ~12 × `CHUNK`
/// bytes, so both directions carry frames larger than a `BufWriter`.
const LOCK_STEP_CHUNK: usize = 16 * 1024;

#[test]
fn lock_step_large_frames_never_wait_on_nagle_and_delayed_ack() {
    let nfa = compile_rule_set(&["[a-z]"]).unwrap();
    let cfg = ServerConfig {
        config: PipelineConfig::Identity,
        ..config()
    };
    let input: Vec<u8> = (0..32 * LOCK_STEP_CHUNK)
        .map(|i| if i % 8 == 0 { b'a' } else { b'.' })
        .collect();
    let expected = reference(&nfa, &cfg, &input);
    assert_eq!(expected.len(), input.len() / 8);
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();

    // `Client` frames like the benchmark's: `BufWriter`, one flush per
    // frame, no socket options. A frame that leaves as header + payload
    // costs a delayed ACK (~40 ms) per chunk; the work is microseconds.
    let mut c = Client::connect(&server, "lockstep");
    c.expect_ack();
    let mut reports = Vec::new();
    let mut round_trips = Vec::new();
    for piece in input.chunks(LOCK_STEP_CHUNK) {
        let sent = Instant::now();
        c.send(&ClientFrame::Chunk(piece.to_vec()));
        match c.recv() {
            ServerFrame::Reports(r) => reports.extend(r),
            other => panic!("expected Reports, got {other:?}"),
        }
        round_trips.push(sent.elapsed());
    }
    c.send(&ClientFrame::Finish);
    match c.recv() {
        ServerFrame::Reports(r) => reports.extend(r),
        other => panic!("expected tail Reports, got {other:?}"),
    }
    assert!(matches!(c.recv(), ServerFrame::Done { .. }));
    assert_eq!(reports, expected);
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median lock-step round trip {median:?} (all: {round_trips:?})"
    );
    server.drain();
}

#[test]
fn malformed_frames_get_typed_errors_and_the_server_survives() {
    let nfa = rules();
    let cfg = config();
    let expected = reference(&nfa, &cfg, INPUT);
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();

    // Zero-length frame.
    let mut c = Client::connect(&server, "t0");
    c.expect_ack();
    c.send_raw(&0u32.to_be_bytes());
    assert!(matches!(c.recv(), ServerFrame::Error { code, .. } if code == ERR_PROTOCOL));

    // Oversized declared length — rejected from the prefix alone.
    let mut c = Client::connect(&server, "t1");
    c.expect_ack();
    c.send_raw(&u32::MAX.to_be_bytes());
    assert!(matches!(c.recv(), ServerFrame::Error { code, .. } if code == ERR_PROTOCOL));

    // Unknown opcode.
    let mut c = Client::connect(&server, "t2");
    c.expect_ack();
    c.send_raw(&1u32.to_be_bytes());
    c.send_raw(&[0x7F]);
    assert!(matches!(c.recv(), ServerFrame::Error { code, .. } if code == ERR_PROTOCOL));

    // Truncated body (half-close makes the EOF visible).
    let mut c = Client::connect(&server, "t3");
    c.expect_ack();
    c.send_raw(&16u32.to_be_bytes());
    c.send_raw(&[0x02, 1, 2]);
    c.sock.shutdown(Shutdown::Write).unwrap();
    assert!(matches!(c.recv(), ServerFrame::Error { code, .. } if code == ERR_PROTOCOL));

    // Unknown protocol version in Hello.
    let sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    {
        let mut w = BufWriter::new(&sock);
        ClientFrame::Hello {
            version: PROTOCOL_VERSION + 7,
            tenant: "vx".into(),
        }
        .write_to(&mut w)
        .unwrap();
        w.flush().unwrap();
    }
    let body = read_raw(&mut reader, u32::MAX).unwrap().unwrap();
    assert!(
        matches!(decode_server(&body).unwrap(), ServerFrame::Error { code, .. } if code == ERR_VERSION)
    );

    // Chunk before Hello is a protocol error too.
    let sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    {
        let mut w = BufWriter::new(&sock);
        ClientFrame::Chunk(b"early".to_vec())
            .write_to(&mut w)
            .unwrap();
        w.flush().unwrap();
    }
    let body = read_raw(&mut reader, u32::MAX).unwrap().unwrap();
    assert!(
        matches!(decode_server(&body).unwrap(), ServerFrame::Error { code, .. } if code == ERR_PROTOCOL)
    );

    // After all that abuse, a clean session still works end to end.
    let mut c = Client::connect(&server, "clean");
    c.expect_ack();
    let (reports, _) = c.stream(INPUT, 5);
    assert_eq!(reports, expected);
    server.drain();
}

#[test]
fn pipelined_chunks_respect_the_bounded_queue_without_deadlock() {
    let nfa = rules();
    let cfg = ServerConfig {
        queue_depth: 2,
        ..config()
    };
    let expected = reference(&nfa, &cfg, &INPUT.repeat(16));
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();
    let mut c = Client::connect(&server, "flood");
    c.expect_ack();
    // Fire every chunk before reading a single reply: the reader thread
    // must block on the depth-2 queue (backpressure), not drop or grow.
    let input = INPUT.repeat(16);
    let chunks: Vec<&[u8]> = input.chunks(7).collect();
    for chunk in &chunks {
        c.send(&ClientFrame::Chunk(chunk.to_vec()));
    }
    c.send(&ClientFrame::Finish);
    let mut reports = Vec::new();
    for _ in 0..chunks.len() + 1 {
        match c.recv() {
            ServerFrame::Reports(r) => reports.extend(r),
            other => panic!("expected Reports, got {other:?}"),
        }
    }
    assert!(matches!(c.recv(), ServerFrame::Done { .. }));
    assert_eq!(reports, expected);
    server.drain();
}

#[test]
fn admission_control_enforces_global_and_tenant_caps() {
    let nfa = rules();
    let cfg = ServerConfig {
        max_sessions: 2,
        per_tenant_sessions: 1,
        ..config()
    };
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();

    let mut a = Client::connect(&server, "alpha1");
    a.expect_ack();
    // Same tenant again: quota.
    let mut a2 = Client::connect(&server, "alpha1");
    assert!(matches!(a2.recv(), ServerFrame::Error { code, .. } if code == ERR_QUOTA));
    // The refused connection holds its global slot until its thread ends.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_sessions() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Different tenant: admitted (2nd global slot).
    let mut b = Client::connect(&server, "beta2");
    b.expect_ack();
    // Global cap: third concurrent connection is refused outright.
    let sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let body = read_raw(&mut reader, u32::MAX).unwrap().unwrap();
    assert!(
        matches!(decode_server(&body).unwrap(), ServerFrame::Error { code, .. } if code == ERR_BUSY)
    );
    // Releasing a slot re-admits.
    a.stream(INPUT, 9);
    drop(a);
    // The slot frees asynchronously; retry briefly.
    let mut readmitted = false;
    for _ in 0..100 {
        let mut c = Client::connect(&server, "alpha1");
        match c.recv() {
            ServerFrame::HelloAck { .. } => {
                readmitted = true;
                break;
            }
            ServerFrame::Error { .. } => std::thread::sleep(Duration::from_millis(10)),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(readmitted, "slot must free after a session completes");
    server.drain();
}

#[test]
fn hot_reload_swaps_epoch_atomically_while_sessions_finish_on_their_pin() {
    let nfa = rules();
    let cfg = config();
    let expected_old = reference(&nfa, &cfg, INPUT);
    let nfa2 = compile_rule_set(&["xy+", "[a-c]{2}"]).unwrap();
    let expected_new = reference(&nfa2, &cfg, INPUT);
    assert_ne!(expected_old, expected_new, "rule sets must differ");
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();

    // Session A opens on epoch 1 and feeds half its input.
    let mut a = Client::connect(&server, "old");
    assert_eq!(a.expect_ack(), 1);
    let mut a_reports = Vec::new();
    let (head, tail) = INPUT.split_at(INPUT.len() / 2);
    a.send(&ClientFrame::Chunk(head.to_vec()));
    match a.recv() {
        ServerFrame::Reports(r) => a_reports.extend(r),
        other => panic!("unexpected {other:?}"),
    }

    // Reload from a second connection, mid-flight.
    let mut r = Client::connect(&server, "reloader");
    r.expect_ack();
    r.send(&ClientFrame::Reload(anml::serialize(&nfa2)));
    let new_epoch = match r.recv() {
        ServerFrame::Reloaded { epoch } => epoch,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(new_epoch, 2);
    assert_eq!(server.epoch(), 2);

    // A finishes on its pinned epoch-1 pipeline, byte-identical to the
    // old rule set over the whole input.
    a.send(&ClientFrame::Chunk(tail.to_vec()));
    match a.recv() {
        ServerFrame::Reports(rep) => a_reports.extend(rep),
        other => panic!("unexpected {other:?}"),
    }
    a.send(&ClientFrame::Finish);
    match a.recv() {
        ServerFrame::Reports(rep) => a_reports.extend(rep),
        other => panic!("unexpected {other:?}"),
    }
    match a.recv() {
        ServerFrame::Done { epoch, .. } => assert_eq!(epoch, 1, "A pinned epoch 1"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(a_reports, expected_old);

    // A session opened after the reload pins epoch 2 and sees the new
    // rule set.
    let mut b = Client::connect(&server, "new");
    assert_eq!(b.expect_ack(), 2);
    let (b_reports, b_epoch) = b.stream(INPUT, 6);
    assert_eq!(b_epoch, 2);
    assert_eq!(b_reports, expected_new);
    server.drain();
}

#[test]
fn injected_panic_is_isolated_to_its_session() {
    let nfa = rules();
    let plan = FaultPlan::from_text("panic 7\n").unwrap();
    let cfg = ServerConfig {
        fault_plan: plan,
        ..config()
    };
    let expected = reference(&nfa, &cfg, INPUT);
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();

    // Tenant s7 trips the injected panic on its first chunk.
    let mut victim = Client::connect(&server, "s7");
    victim.expect_ack();
    victim.send(&ClientFrame::Chunk(INPUT.to_vec()));
    assert!(matches!(victim.recv(), ServerFrame::Error { code, .. } if code == ERR_PANIC));

    // A concurrent session on another tenant is untouched.
    let mut bystander = Client::connect(&server, "s8");
    bystander.expect_ack();
    let (reports, _) = bystander.stream(INPUT, 4);
    assert_eq!(reports, expected);
    server.drain();
}

#[test]
fn chunk_deadline_kills_only_the_offending_session() {
    let nfa = rules();
    let cfg = ServerConfig {
        chunk_deadline: Some(Duration::ZERO),
        ..config()
    };
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();
    let mut c = Client::connect(&server, "slow");
    c.expect_ack();
    c.send(&ClientFrame::Chunk(INPUT.repeat(64)));
    assert!(matches!(c.recv(), ServerFrame::Error { code, .. } if code == ERR_DEADLINE));
    server.drain();
}

#[test]
fn drain_waits_then_forces_stragglers_within_the_hard_deadline() {
    let nfa = rules();
    let cfg = ServerConfig {
        drain_deadline: Duration::from_millis(200),
        ..config()
    };
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();
    // An idle session that never finishes.
    let mut idle = Client::connect(&server, "idle");
    idle.expect_ack();
    idle.send(&ClientFrame::Chunk(b"abc".to_vec()));
    assert!(matches!(idle.recv(), ServerFrame::Reports(_)));

    let report = server.drain();
    assert_eq!(report.forced, 1, "the idle session must be forced");
    assert!(
        report.duration < Duration::from_secs(2),
        "drain must respect its hard deadline, took {:?}",
        report.duration
    );
    // The forced client observes the closure rather than hanging.
    let mut buf = [0u8; 16];
    let _ = idle.reader.read(&mut buf);
}

#[test]
fn drain_with_no_sessions_is_immediate() {
    let nfa = rules();
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, config()).unwrap();
    let report = server.drain();
    assert_eq!((report.drained, report.forced), (0, 0));
    assert!(report.duration < Duration::from_secs(1));
}

/// Compiles `nfa` into a `.sdb` artifact matching `cfg`'s pipeline
/// parameters and writes it under a fresh temp dir.
fn write_artifact(nfa: &Nfa, cfg: &ServerConfig, tag: &str) -> std::path::PathBuf {
    let db = sunder_artifact::CompiledDb::compile(nfa, cfg.config, cfg.spec.params(), cfg.engine)
        .unwrap();
    let path = std::env::temp_dir().join(format!(
        "sunder-serve-artifact-{}-{tag}.sdb",
        std::process::id()
    ));
    db.write(&path).unwrap();
    path
}

#[test]
fn hot_reload_from_artifact_swaps_epoch_without_recompiling() {
    let nfa = rules();
    let cfg = config();
    let expected_old = reference(&nfa, &cfg, INPUT);
    let nfa2 = compile_rule_set(&["xy+", "[a-c]{2}"]).unwrap();
    let expected_new = reference(&nfa2, &cfg, INPUT);
    assert_ne!(expected_old, expected_new, "rule sets must differ");

    let artifact = write_artifact(&nfa2, &cfg, "reload");
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();
    let misses_before = server.cache().misses();

    // Session A opens on epoch 1 and feeds half its input.
    let mut a = Client::connect(&server, "old");
    assert_eq!(a.expect_ack(), 1);
    let mut a_reports = Vec::new();
    let (head, tail) = INPUT.split_at(INPUT.len() / 2);
    a.send(&ClientFrame::Chunk(head.to_vec()));
    match a.recv() {
        ServerFrame::Reports(r) => a_reports.extend(r),
        other => panic!("unexpected {other:?}"),
    }

    // Swap in the mapped artifact mid-session: no compilation happens.
    let epoch = server.reload_artifact(&artifact).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(server.epoch(), 2);
    assert_eq!(
        server.cache().misses(),
        misses_before,
        "artifact reload must not compile anything"
    );

    // A still finishes on its pinned epoch-1 pipeline.
    a.send(&ClientFrame::Chunk(tail.to_vec()));
    match a.recv() {
        ServerFrame::Reports(rep) => a_reports.extend(rep),
        other => panic!("unexpected {other:?}"),
    }
    a.send(&ClientFrame::Finish);
    match a.recv() {
        ServerFrame::Reports(rep) => a_reports.extend(rep),
        other => panic!("unexpected {other:?}"),
    }
    match a.recv() {
        ServerFrame::Done { epoch, .. } => assert_eq!(epoch, 1, "A pinned epoch 1"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(a_reports, expected_old);

    // A session opened after the reload runs on the mapped tables and
    // produces exactly the new rule set's reports.
    let mut b = Client::connect(&server, "new");
    assert_eq!(b.expect_ack(), 2);
    let (b_reports, b_epoch) = b.stream(INPUT, 6);
    assert_eq!(b_epoch, 2);
    assert_eq!(b_reports, expected_new);

    server.drain();
    std::fs::remove_file(&artifact).ok();
}

#[test]
fn corrupt_or_mismatched_artifact_is_refused_and_sessions_survive() {
    let nfa = rules();
    let cfg = config();
    let expected = reference(&nfa, &cfg, INPUT);
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg.clone()).unwrap();

    // An in-flight session straddles both refused reloads.
    let mut a = Client::connect(&server, "survivor");
    assert_eq!(a.expect_ack(), 1);
    let mut a_reports = Vec::new();
    let (head, tail) = INPUT.split_at(INPUT.len() / 2);
    a.send(&ClientFrame::Chunk(head.to_vec()));
    match a.recv() {
        ServerFrame::Reports(r) => a_reports.extend(r),
        other => panic!("unexpected {other:?}"),
    }

    // Corrupted artifact: flip a payload byte of a valid database.
    let nfa2 = compile_rule_set(&["qr+s"]).unwrap();
    let corrupt = write_artifact(&nfa2, &cfg, "corrupt");
    let mut bytes = std::fs::read(&corrupt).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x5A;
    std::fs::write(&corrupt, &bytes).unwrap();
    let err = server.reload_artifact(&corrupt).unwrap_err();
    assert!(err.contains("checksum"), "unexpected refusal: {err}");
    assert_eq!(
        server.epoch(),
        1,
        "refused reload must not advance the epoch"
    );

    // Parameter mismatch: a perfectly valid artifact compiled under a
    // different sharding spec is refused too.
    let mismatched_db = sunder_artifact::CompiledDb::compile(
        &nfa2,
        cfg.config,
        ShardSpec::MaxShards(1).params(),
        cfg.engine,
    )
    .unwrap();
    let mismatched = std::env::temp_dir().join(format!(
        "sunder-serve-artifact-{}-mismatch.sdb",
        std::process::id()
    ));
    mismatched_db.write(&mismatched).unwrap();
    let err = server.reload_artifact(&mismatched).unwrap_err();
    assert!(err.contains("sharding spec"), "unexpected refusal: {err}");
    assert_eq!(server.epoch(), 1);

    // The straddling session is untouched: it completes byte-identically
    // on the epoch it pinned.
    a.send(&ClientFrame::Chunk(tail.to_vec()));
    match a.recv() {
        ServerFrame::Reports(rep) => a_reports.extend(rep),
        other => panic!("unexpected {other:?}"),
    }
    a.send(&ClientFrame::Finish);
    match a.recv() {
        ServerFrame::Reports(rep) => a_reports.extend(rep),
        other => panic!("unexpected {other:?}"),
    }
    match a.recv() {
        ServerFrame::Done { epoch, .. } => assert_eq!(epoch, 1),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(a_reports, expected);

    server.drain();
    std::fs::remove_file(&corrupt).ok();
    std::fs::remove_file(&mismatched).ok();
}
