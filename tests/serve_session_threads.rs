//! A long-lived `sunder serve` daemon joins each session's thread once
//! the session has ended, rather than holding every exited thread, and
//! its mapped stack, until drain. The check counts the lines of
//! `/proc/self/maps`, so it is Linux-only, and since every thread of the
//! process shows there, this file holds a single test and runs in a
//! process of its own.

#![cfg(target_os = "linux")]

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use sunder::automata::regex::compile_rule_set;
use sunder::shard::frame::{decode_server, read_raw};
use sunder::shard::{ClientFrame, MatchServer, ServerConfig, ServerFrame, PROTOCOL_VERSION};

const SESSIONS: usize = 256;

/// An unjoined thread keeps at least two mappings (stack and guard page);
/// at most a few sessions can still be winding down at any one time.
const MAX_GROWTH: usize = 128;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// One empty session: `Hello`, then `Finish`, read up to `Done`.
fn one_session(addr: SocketAddr) {
    let sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(sock.try_clone().expect("clone socket"));
    let mut writer = &sock;
    let hello = ClientFrame::Hello {
        version: PROTOCOL_VERSION,
        tenant: "reap".into(),
    };
    hello.write_to(&mut writer).expect("send Hello");
    ClientFrame::Finish
        .write_to(&mut writer)
        .expect("send Finish");
    loop {
        let body = read_raw(&mut reader, u32::MAX)
            .expect("read reply")
            .expect("server closed before Done");
        match decode_server(&body).expect("decode reply") {
            ServerFrame::Done { .. } => return,
            ServerFrame::HelloAck { .. } | ServerFrame::Reports(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

#[test]
fn ended_session_threads_are_joined_while_the_server_runs() {
    let nfa = compile_rule_set(&["ab"]).expect("rules compile");
    let mut server =
        MatchServer::start("127.0.0.1:0", &nfa, ServerConfig::default()).expect("start server");
    let addr = server.local_addr();
    // The first session settles one-off mappings (allocator arenas).
    one_session(addr);
    let before = mappings();
    for _ in 0..SESSIONS {
        one_session(addr);
    }
    let grown = mappings().saturating_sub(before);
    assert!(
        grown < MAX_GROWTH,
        "{SESSIONS} sequential sessions grew the mappings by {grown} lines"
    );
    assert_eq!(server.drain().forced, 0);
}
