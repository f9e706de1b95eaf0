//! The observability smoke: one daemon with the obs listener and flight
//! recorder on, real traffic (including an injected panic), a concurrent
//! scraper, and a drain with a held-open session. Asserts the PR's
//! acceptance criteria end to end:
//!
//! * every `/metrics` scrape during traffic parses and counters are
//!   monotone across scrapes;
//! * `/statusz` carries sessions, per-tenant latency quantiles, and SLO
//!   counters once traffic has flowed;
//! * the injected panic produces a flight-recorder artifact in the
//!   telemetry JSON-lines schema, attributed to the right tenant;
//! * `/readyz` answers 200 before drain and 503 while draining.
//!
//! This test owns the process-global telemetry level; keep it the only
//! `#[test]` in this binary.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sunder_automata::regex::compile_rule_set;
use sunder_oracle::PipelineConfig;
use sunder_resilience::FaultPlan;
use sunder_shard::chaos::{run_chaos, ChaosOptions, SessionOutcome};
use sunder_shard::frame::{decode_server, read_raw, ClientFrame, ServerFrame, ERR_PANIC};
use sunder_shard::{http_get, MatchServer, ServerConfig, ShardSpec};
use sunder_sim::EngineKind;
use sunder_telemetry::exposition::sample_value;
use sunder_telemetry::json::{self, Json};

const SESSIONS: usize = 8;

#[test]
fn obs_smoke_scrapes_flight_artifact_and_readiness() {
    sunder_telemetry::init(sunder_telemetry::Config::metrics());

    let flight_dir = std::env::temp_dir().join(format!("sunder-obs-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight_dir);

    let nfa = compile_rule_set(&["ab+c", "[0-9]{3}"]).unwrap();
    let cfg = ServerConfig {
        config: PipelineConfig::Nibble,
        spec: ShardSpec::MaxShards(4),
        engine: EngineKind::Adaptive,
        max_sessions: SESSIONS + 4,
        // Tenant s2's first chunk panics inside the worker.
        fault_plan: FaultPlan::from_text("panic 2\n").unwrap(),
        obs_addr: Some("127.0.0.1:0".to_string()),
        flight_recorder_dir: Some(flight_dir.clone()),
        // Short deadline: the held-open session below is forced, and the
        // test shouldn't wait seconds for it.
        drain_deadline: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();
    let obs = server.obs_addr().expect("obs listener running");
    let timeout = Duration::from_secs(5);

    let (status, body) = http_get(obs, "/readyz", timeout).unwrap();
    assert_eq!(status, 200, "ready before traffic: {body}");

    // Concurrent scraper: /metrics at ~20 Hz for the whole traffic
    // phase. Every response must parse, and serve_chunks_total must
    // never move backwards between scrapes.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last_chunks = 0.0;
            let mut scrapes = 0usize;
            // Traffic can outrun the scrape interval; always take a few
            // scrapes so monotonicity is exercised across snapshots.
            while !stop.load(Ordering::Acquire) || scrapes < 3 {
                let (status, body) = http_get(obs, "/metrics", timeout).expect("scrape");
                assert_eq!(status, 200);
                let families = sunder_telemetry::parse_prometheus(&body)
                    .unwrap_or_else(|e| panic!("scrape {scrapes} unparseable: {e}\n{body}"));
                let chunks = sample_value(&families, "serve_chunks_total", &[]).unwrap_or(0.0);
                assert!(
                    chunks >= last_chunks,
                    "serve_chunks_total went backwards: {last_chunks} -> {chunks}"
                );
                last_chunks = chunks;
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(50));
            }
            (scrapes, last_chunks)
        })
    };

    // Traffic: SESSIONS streaming sessions; s2 dies to the injected
    // panic, everyone else completes.
    let inputs: Vec<Vec<u8>> = (0..SESSIONS)
        .map(|i| format!("abbc {i:03} zz abc ").repeat(64).into_bytes())
        .collect();
    let opts = ChaosOptions {
        chunk_size: 64,
        reload_anml: None,
        read_timeout: timeout,
    };
    let outcomes = run_chaos(server.local_addr(), &inputs, &FaultPlan::none(), &opts);
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            SessionOutcome::Completed { .. } => assert_ne!(i, 2, "s2 should have panicked"),
            SessionOutcome::Errored { code, .. } => {
                assert_eq!((i, *code), (2, ERR_PANIC), "unplanned error on s{i}");
            }
            other => panic!("s{i}: unexpected outcome {other:?}"),
        }
    }

    stop.store(true, Ordering::Release);
    let (scrapes, chunks_seen) = scraper.join().expect("scraper panicked");
    assert!(scrapes >= 2, "scraper barely ran: {scrapes}");
    assert!(chunks_seen > 0.0, "scrapes never observed chunk traffic");

    // The panic left a schema-valid flight artifact for tenant s2.
    let artifacts: Vec<_> = std::fs::read_dir(&flight_dir)
        .expect("flight dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    let panic_artifact = artifacts
        .iter()
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("flight-s2-") && name.ends_with("-panic.jsonl")
        })
        .unwrap_or_else(|| panic!("no s2 panic artifact among {artifacts:?}"));
    let text = std::fs::read_to_string(panic_artifact).unwrap();
    let summary = sunder_telemetry::validate_jsonl(&text).expect("flight artifact validates");
    sunder_telemetry::chrome_trace_from_jsonl(&text).expect("flight artifact converts");
    let events: Vec<Json> = text
        .lines()
        .skip(1)
        .map(|l| json::parse(l).unwrap())
        .collect();
    assert_eq!(summary.instants, events.len());
    let field = |e: &Json, key: &str| e.get("fields").and_then(|f| f.get(key)).cloned();
    let identity = events.last().expect("a non-empty artifact");
    assert_eq!(
        identity.get("name").and_then(Json::as_str),
        Some("flight.dump"),
        "the artifact ends in its identity event"
    );
    assert_eq!(field(identity, "tenant"), Some(Json::Str("s2".into())));
    assert_eq!(field(identity, "reason"), Some(Json::Str("panic".into())));
    assert_eq!(
        field(identity, "epoch").as_ref().and_then(Json::as_u64),
        Some(1)
    );
    let chunks: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("chunk"))
        .collect();
    assert!(!chunks.is_empty(), "no chunk events: {text}");
    for chunk in chunks {
        for key in ["wait_us", "reply_us"] {
            assert!(
                field(chunk, key).as_ref().and_then(Json::as_u64).is_some(),
                "chunk event without an integer {key}: {text}"
            );
        }
    }

    // /statusz reflects the traffic: sessions started, per-tenant
    // latency quantiles present for a surviving tenant.
    let (status, body) = http_get(obs, "/statusz", timeout).unwrap();
    assert_eq!(status, 200);
    let doc = json::parse(&body).expect("statusz is JSON");
    let started = doc
        .get("sessions")
        .and_then(|s| s.get("started"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(started >= SESSIONS as u64, "started {started}");
    for block in ["latency_us", "reply_write_us"] {
        let quantiles = doc.get(block).unwrap_or_else(|| panic!("no {block} block"));
        assert!(
            quantiles.get("s0").and_then(|t| t.get("p50_us")).is_some(),
            "no {block} quantiles for s0: {body}"
        );
    }

    // Hold a session open, then drain: /readyz must flip to 503 while
    // the drain window runs, and the held session gets forced.
    let mut held = TcpStream::connect(server.local_addr()).unwrap();
    ClientFrame::Hello {
        version: sunder_shard::PROTOCOL_VERSION,
        tenant: "holdout".to_string(),
    }
    .write_to(&mut held)
    .unwrap();
    held.flush().unwrap();
    held.set_read_timeout(Some(timeout)).unwrap();
    let ack = read_raw(&mut held, 1 << 20).unwrap().expect("hello ack");
    assert!(matches!(
        decode_server(&ack).unwrap(),
        ServerFrame::HelloAck { .. }
    ));

    let poller = std::thread::spawn(move || {
        let mut saw_draining = false;
        for _ in 0..300 {
            match http_get(obs, "/readyz", Duration::from_millis(500)) {
                Ok((503, body)) if body.contains("draining") => {
                    saw_draining = true;
                    break;
                }
                Ok(_) => {}
                // Listener already gone: drain finished before we saw it.
                Err(_) => break,
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        saw_draining
    });

    let report = server.drain();
    assert!(
        poller.join().expect("poller panicked"),
        "/readyz never reported draining"
    );
    assert_eq!(report.forced, 1, "the held-open session gets forced");
    drop(held);

    let _ = std::fs::remove_dir_all(&flight_dir);
}
