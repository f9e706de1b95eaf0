//! Tier-1 reach for the `sunder serve` wire path: the lock-step smoke of
//! `crates/shard/tests/serve_robustness.rs`, at a reduced count, through
//! the `sunder::shard` facade. A frame that leaves its sender as header +
//! payload (either side), or a server socket with Nagle left on, costs a
//! delayed ACK (~40 ms) per chunk; the work itself is microseconds.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunder::automata::regex::compile_rule_set;
use sunder::shard::frame::{decode_server, read_raw};
use sunder::shard::{
    expected_reports, ClientFrame, CompiledPipeline, MatchServer, ServerConfig, ServerFrame,
    PROTOCOL_VERSION,
};

/// One report per 8 input bytes: a chunk answers 1.5 × its own size, so
/// both directions carry frames larger than a `BufWriter`'s 8 KiB.
const CHUNK: usize = 16 * 1024;
const CHUNKS: usize = 8;

#[test]
fn lock_step_session_over_loopback_never_stalls_and_matches_the_reference() {
    let nfa = compile_rule_set(&["[a-z]"]).unwrap();
    let cfg = ServerConfig::default();
    let input: Vec<u8> = (0..CHUNKS * CHUNK)
        .map(|i| if i % 8 == 0 { b'a' } else { b'.' })
        .collect();
    let pipeline =
        Arc::new(CompiledPipeline::compile(&nfa, cfg.config, cfg.spec, cfg.engine).unwrap());
    let expected = expected_reports(&pipeline, &input).unwrap();
    assert_eq!(expected.len(), input.len() / 8);
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();

    // Framed like the benchmark's client: `BufWriter`, one flush per
    // frame, no socket options beyond a read timeout.
    let sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(sock.try_clone().unwrap());
    let mut writer = BufWriter::new(&sock);
    let mut send = |frame: &ClientFrame| {
        frame.write_to(&mut writer).unwrap();
        writer.flush().unwrap();
    };
    let mut recv = || {
        let body = read_raw(&mut reader, u32::MAX)
            .expect("read reply")
            .expect("server closed unexpectedly");
        decode_server(&body).expect("decode reply")
    };

    send(&ClientFrame::Hello {
        version: PROTOCOL_VERSION,
        tenant: "wire".into(),
    });
    assert!(matches!(recv(), ServerFrame::HelloAck { .. }));
    let mut reports = Vec::new();
    let mut round_trips = Vec::new();
    for piece in input.chunks(CHUNK) {
        let sent = Instant::now();
        send(&ClientFrame::Chunk(piece.to_vec()));
        match recv() {
            ServerFrame::Reports(r) => reports.extend(r),
            other => panic!("expected Reports, got {other:?}"),
        }
        round_trips.push(sent.elapsed());
    }
    send(&ClientFrame::Finish);
    match recv() {
        ServerFrame::Reports(r) => reports.extend(r),
        other => panic!("expected tail Reports, got {other:?}"),
    }
    assert!(matches!(recv(), ServerFrame::Done { .. }));
    assert_eq!(reports, expected);

    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median lock-step round trip {median:?} (all: {round_trips:?})"
    );
    assert_eq!(server.drain().forced, 0);
}

/// Reloads race from every session's worker and from the CLI's stdin at
/// once; each must install a fresh epoch, in order, with none lost.
#[test]
fn concurrent_reloads_install_every_epoch_in_order() {
    let nfa = compile_rule_set(&["[a-z]"]).unwrap();
    let server = MatchServer::start("127.0.0.1:0", &nfa, ServerConfig::default()).unwrap();
    let reload_eight = || -> Vec<u64> { (0..8).map(|_| server.reload(&nfa).unwrap()).collect() };
    let mut epochs: Vec<u64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4).map(|_| scope.spawn(reload_eight)).collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });
    epochs.sort_unstable();
    assert_eq!(epochs, (2..=33).collect::<Vec<u64>>());
    assert_eq!(server.epoch(), 33);
}
