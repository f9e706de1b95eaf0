//! A long-lived `sunder serve` daemon runs each session on one thread,
//! and joins that thread once the session has ended, rather than holding
//! every exited thread, and its mapped stack, until drain. The checks
//! read `/proc/self/task` and count the lines of `/proc/self/maps`, so
//! they are Linux-only, and since every thread of the process shows
//! there, this file holds a single test and runs in a process of its own.

#![cfg(target_os = "linux")]

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sunder::automata::regex::compile_rule_set;
use sunder::shard::frame::{decode_server, read_raw};
use sunder::shard::{ClientFrame, MatchServer, ServerConfig, ServerFrame, PROTOCOL_VERSION};

const SESSIONS: usize = 256;

/// Sessions held open at once for the thread count.
const HELD: usize = 4;

/// An unjoined thread keeps at least two mappings (stack and guard page);
/// at most a few sessions can still be winding down at any one time.
const MAX_GROWTH: usize = 128;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// Threads of this process named `serve-conn`. A thread spawned without
/// a name inherits its parent's, so a helper thread a session spawned
/// would count here too.
fn session_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "serve-conn")
        .count()
}

/// A client connection whose session is open.
struct Session {
    sock: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Session {
    fn recv(&mut self) -> ServerFrame {
        let body = read_raw(&mut self.reader, u32::MAX)
            .expect("read reply")
            .expect("server closed early");
        decode_server(&body).expect("decode reply")
    }

    /// Sends `Finish` and reads up to `Done`.
    fn finish(mut self) {
        ClientFrame::Finish
            .write_to(&mut &self.sock)
            .expect("send Finish");
        loop {
            match self.recv() {
                ServerFrame::Done { .. } => return,
                ServerFrame::Reports(_) => {}
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
}

/// `Hello`, read up to `HelloAck`.
fn open(addr: SocketAddr) -> Session {
    let sock = TcpStream::connect(addr).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(sock.try_clone().expect("clone socket"));
    let mut session = Session { sock, reader };
    let hello = ClientFrame::Hello {
        version: PROTOCOL_VERSION,
        tenant: "reap".into(),
    };
    hello.write_to(&mut &session.sock).expect("send Hello");
    match session.recv() {
        ServerFrame::HelloAck { .. } => session,
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// One empty session: `Hello`, then `Finish`, read up to `Done`.
fn one_session(addr: SocketAddr) {
    open(addr).finish();
}

#[test]
fn ended_session_threads_are_joined_while_the_server_runs() {
    let nfa = compile_rule_set(&["ab"]).expect("rules compile");
    let mut server =
        MatchServer::start("127.0.0.1:0", &nfa, ServerConfig::default()).expect("start server");
    let addr = server.local_addr();

    // Each held session answers one chunk first, so it has read a frame
    // after its HelloAck: every thread it reads or steps on exists.
    let held: Vec<Session> = (0..HELD)
        .map(|_| {
            let mut s = open(addr);
            ClientFrame::Chunk(b"xab".to_vec())
                .write_to(&mut &s.sock)
                .expect("send Chunk");
            assert!(matches!(s.recv(), ServerFrame::Reports(_)));
            s
        })
        .collect();
    let give_up = Instant::now() + Duration::from_secs(5);
    let mut threads = session_threads();
    while threads != HELD && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(10));
        threads = session_threads();
    }
    assert_eq!(
        threads, HELD,
        "{HELD} open sessions run on {threads} serve-conn threads"
    );
    held.into_iter().for_each(Session::finish);

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
