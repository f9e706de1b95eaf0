//! Streaming client: talk to a `sunder serve` daemon over its
//! length-prefixed TCP protocol — feed input in chunks as it "arrives",
//! collect reports incrementally, and finish without ever holding the
//! whole input in one buffer.
//!
//! The example is self-contained: it starts an in-process [`MatchServer`]
//! on a loopback port, then acts as a remote client against it. Point
//! `addr` at a real `sunder serve` instance to use it standalone.
//!
//! Run with: `cargo run --example stream_client`

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

use sunder::automata::regex::compile_rule_set;
use sunder::shard::frame::{decode_server, read_raw};
use sunder::shard::{ClientFrame, MatchServer, ServerConfig, ServerFrame, PROTOCOL_VERSION};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An in-process server, standing in for a remote `sunder serve`.
    let rules = ["ab+c", "[0-9]{3}-[0-9]{4}", ".*password="];
    let nfa = compile_rule_set(&rules)?;
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, ServerConfig::default())?;
    let addr = server.local_addr();
    println!("server listening on {addr} (epoch {})", server.epoch());

    // 2. Connect and shake hands. The `HelloAck` tells us which pattern-DB
    //    epoch this session pinned: a hot reload mid-stream won't change
    //    what *we* match against.
    let sock = TcpStream::connect(addr)?;
    // Every frame leaves in one write (`write_to`); with Nagle off none
    // of them waits for the previous one's acknowledgement either.
    sock.set_nodelay(true)?;
    let mut reader = BufReader::new(sock.try_clone()?);
    let mut writer = BufWriter::new(&sock);

    let send = |writer: &mut BufWriter<&TcpStream>, frame: &ClientFrame| {
        frame.write_to(writer).and_then(|()| writer.flush())
    };
    let mut recv = || -> Result<ServerFrame, Box<dyn std::error::Error>> {
        let body = read_raw(&mut reader, 1 << 20)?.ok_or("server closed the connection")?;
        Ok(decode_server(&body)?)
    };

    send(
        &mut writer,
        &ClientFrame::Hello {
            version: PROTOCOL_VERSION,
            tenant: "example".to_string(),
        },
    )?;
    let epoch = match recv()? {
        ServerFrame::HelloAck { epoch, .. } => epoch,
        other => return Err(format!("unexpected handshake reply: {other:?}").into()),
    };
    println!("session open on epoch {epoch}");

    // 3. Stream the input in small chunks. The server suspends the engine
    //    frontier between chunks — reports carry *global* input offsets,
    //    exactly as a whole-input run would produce, even when a chunk
    //    boundary splits a match (or a stride vector) down the middle.
    let traffic = b"call 555-1234 now abbbc password=hunter2 555-9999";
    let mut reports: Vec<(u64, u32)> = Vec::new();
    for chunk in traffic.chunks(7) {
        send(&mut writer, &ClientFrame::Chunk(chunk.to_vec()))?;
        match recv()? {
            ServerFrame::Reports(batch) => reports.extend(batch),
            ServerFrame::Error { code, message } => {
                return Err(format!("server error {code}: {message}").into())
            }
            other => return Err(format!("unexpected chunk reply: {other:?}").into()),
        }
    }

    // 4. Finish: the server pads the final partial cycle (only now),
    //    flushes the tail reports, and accounts the session.
    send(&mut writer, &ClientFrame::Finish)?;
    let tail = match recv()? {
        ServerFrame::Reports(batch) => batch,
        other => return Err(format!("unexpected tail reply: {other:?}").into()),
    };
    reports.extend(tail);
    match recv()? {
        ServerFrame::Done { chunks, bytes, .. } => {
            println!("done: {chunks} chunks, {bytes} bytes streamed");
        }
        other => return Err(format!("unexpected done reply: {other:?}").into()),
    }

    println!("{} reports (offset, rule):", reports.len());
    for (offset, rule) in &reports {
        println!(
            "  byte {offset:>3}  rule {rule}  ({})",
            rules[*rule as usize]
        );
    }

    let drained = server.drain();
    println!(
        "server drained: {} finished, {} forced",
        drained.drained, drained.forced
    );
    Ok(())
}
