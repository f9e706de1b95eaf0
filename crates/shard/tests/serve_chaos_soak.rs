//! The chaos soak: 64 concurrent streaming sessions against one server
//! while the fault plan injects panics, mid-stream disconnects, slow
//! drips, malformed frames, and a hot reload mid-burst. The properties:
//! no hangs (every session reaches a typed outcome), survivors are
//! byte-identical to whole-input runs on the epoch they pinned, drain
//! finishes inside its hard deadline, and every fault is attributed in
//! the telemetry artifact.
//!
//! This test owns the process-global telemetry recorder; keep it the
//! only `#[test]` in this binary.

use std::sync::Arc;
use std::time::Duration;

use sunder_automata::{anml, regex::compile_rule_set};
use sunder_oracle::PipelineConfig;
use sunder_resilience::{FaultPlan, SplitMix64};
use sunder_shard::chaos::{run_chaos, ChaosOptions, SessionOutcome};
use sunder_shard::frame::{ERR_PANIC, ERR_PROTOCOL, ERR_VERSION};
use sunder_shard::{expected_reports, CompiledPipeline, MatchServer, ServerConfig, ShardSpec};
use sunder_sim::EngineKind;

const SESSIONS: usize = 64;

#[test]
fn chaos_soak_64_sessions_with_faults_reload_and_drain() {
    sunder_telemetry::init(sunder_telemetry::Config::spans());

    let nfa = compile_rule_set(&["ab+c", "[0-9]{3}", ".*net", "xy?z"]).unwrap();
    let nfa2 = compile_rule_set(&["ab+c", "[0-9]{3}", ".*net", "xy?z", "q{2}"]).unwrap();
    let cfg = ServerConfig {
        config: PipelineConfig::Stride2,
        spec: ShardSpec::MaxShards(4),
        engine: EngineKind::Adaptive,
        max_sessions: SESSIONS + 8,
        per_tenant_sessions: 4,
        drain_deadline: Duration::from_secs(3),
        // Worker-level injections: tenants s3 and s40 panic, s11 stalls.
        fault_plan: FaultPlan::from_text("panic 3\npanic 40\nstall 11 50\n").unwrap(),
        // The scrape-during-chaos gate: a 10 Hz scraper hits /metrics
        // for the whole soak and every response must parse.
        obs_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };

    // Reference pipelines per epoch (content-identical compilation).
    let old = Arc::new(CompiledPipeline::compile(&nfa, cfg.config, cfg.spec, cfg.engine).unwrap());
    let new = Arc::new(CompiledPipeline::compile(&nfa2, cfg.config, cfg.spec, cfg.engine).unwrap());

    // Deterministic per-session inputs, a few hundred bytes each.
    let mut rng = SplitMix64::new(0x50AC);
    let alphabet = b"abc 0123xyznetq-";
    let inputs: Vec<Vec<u8>> = (0..SESSIONS)
        .map(|_| {
            (0..256 + (rng.next() % 256) as usize)
                .map(|_| alphabet[(rng.next() % alphabet.len() as u64) as usize])
                .collect()
        })
        .collect();

    // Connection-level chaos: disconnects, drips, malformed frames of
    // every mode, and one reload mid-burst. Session 33's drip (32–64
    // chunks, 10 ms apart) is what sets the soak's length: no other wait
    // is left on the wire to stretch it, and the scraper below needs a
    // few hundred ms of live sessions to overlap.
    let plan = FaultPlan::from_text(concat!(
        "disconnect 5 2\n",
        "disconnect 21 0\n",
        "slow-drip 9 16 2\n",
        "slow-drip 33 8 10\n",
        "malformed-frame 13 0\n",
        "malformed-frame 17 1\n",
        "malformed-frame 25 2\n",
        "malformed-frame 29 3\n",
        "malformed-frame 37 4\n",
        "reload-burst 45 1\n",
    ))
    .unwrap();

    let mut server = MatchServer::start("127.0.0.1:0", &nfa, cfg).unwrap();
    let opts = ChaosOptions {
        chunk_size: 48,
        reload_anml: Some(anml::serialize(&nfa2)),
        read_timeout: Duration::from_secs(30),
    };

    // Concurrent scraper: poll /metrics and /statusz at 50 Hz while the
    // chaos runs. A scrape that fails to parse fails the soak — the
    // exposition must stay well-formed no matter what the sessions are
    // doing to the registry concurrently.
    let obs_addr = server.obs_addr().expect("obs listener running");
    let scrape_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || {
            let mut scrapes = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let (status, body) =
                    sunder_shard::http_get(obs_addr, "/metrics", Duration::from_secs(5))
                        .expect("scrape /metrics");
                assert_eq!(status, 200, "scrape {scrapes}");
                sunder_telemetry::parse_prometheus(&body).unwrap_or_else(|e| {
                    panic!("scrape {scrapes}: exposition failed to parse: {e}\n{body}")
                });
                let (status, body) =
                    sunder_shard::http_get(obs_addr, "/statusz", Duration::from_secs(5))
                        .expect("scrape /statusz");
                assert_eq!(status, 200, "scrape {scrapes}");
                sunder_telemetry::json::parse(&body)
                    .unwrap_or_else(|e| panic!("scrape {scrapes}: statusz not JSON: {e}"));
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            scrapes
        })
    };

    let outcomes = run_chaos(server.local_addr(), &inputs, &plan, &opts);
    assert_eq!(outcomes.len(), SESSIONS, "every session reached an outcome");
    scrape_stop.store(true, std::sync::atomic::Ordering::Release);
    let scrapes = scraper.join().expect("scraper thread panicked");
    // The soak itself only takes a few hundred ms; two full scrape
    // cycles is the floor that proves concurrency happened at all.
    assert!(scrapes >= 2, "scraper barely ran: {scrapes} scrapes");

    let mut completed = 0;
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            SessionOutcome::Completed {
                epoch,
                reports,
                bytes,
                ..
            } => {
                completed += 1;
                assert_eq!(*bytes, inputs[i].len() as u64, "session {i}");
                let pipeline = if *epoch == 1 { &old } else { &new };
                let expected = expected_reports(pipeline, &inputs[i]).unwrap();
                assert_eq!(
                    reports, &expected,
                    "session {i} (epoch {epoch}): survivor diverged from whole-input run"
                );
            }
            SessionOutcome::Disconnected { .. } => {
                assert!(matches!(i, 5 | 21), "unplanned disconnect on session {i}");
            }
            SessionOutcome::Errored { code, .. } => match i {
                3 | 40 => assert_eq!(*code, ERR_PANIC, "session {i}"),
                13 | 17 | 25 | 29 => assert_eq!(*code, ERR_PROTOCOL, "session {i}"),
                other => panic!("unplanned error on session {other}: code {code}"),
            },
            SessionOutcome::Refused { code, .. } => {
                assert_eq!((i, *code), (37, ERR_VERSION), "session {i}");
            }
            SessionOutcome::Transport(e) => panic!("session {i} transport failure: {e}"),
        }
    }
    // 64 − 2 panics − 2 disconnects − 5 malformed = 55 clean survivors.
    assert_eq!(completed, SESSIONS - 9, "survivor census");
    assert_eq!(server.epoch(), 2, "the mid-burst reload landed");

    // Graceful drain: everything already finished, nothing to force.
    let report = server.drain();
    assert_eq!(report.forced, 0, "no session should need forcing");
    assert!(
        report.duration < Duration::from_secs(3),
        "drain blew its deadline: {:?}",
        report.duration
    );

    // Telemetry artifact: per-session fault attribution and the soak's
    // aggregate counters are all present and the JSONL round-trips.
    let dump = sunder_telemetry::finish().expect("telemetry session");
    let faults: Vec<_> = dump
        .events
        .iter()
        .filter(|e| e.name == "serve.session_fault")
        .collect();
    let fault_key = |e: &sunder_telemetry::Event| {
        let field = |k: &str| {
            e.fields
                .iter()
                .find(|f| f.key == k)
                .map(|f| format!("{:?}", f.value))
                .unwrap_or_default()
        };
        (field("tenant"), field("kind"))
    };
    for (tenant, kind) in [
        ("s3", "panic"),
        ("s40", "panic"),
        ("s5", "disconnect"),
        ("s21", "disconnect"),
        ("s13", "protocol"),
    ] {
        assert!(
            faults.iter().any(|e| {
                let (t, k) = fault_key(e);
                t.contains(tenant) && k.contains(kind)
            }),
            "missing fault attribution for {tenant}/{kind}; got {:?}",
            faults.iter().map(|e| fault_key(e)).collect::<Vec<_>>()
        );
    }
    let counter = |name: &str| dump.metrics.counter(name, &[]).unwrap_or(0);
    assert!(counter("serve_sessions_total") >= SESSIONS as u64);
    assert!(counter("serve_chunks_total") > 0);
    assert!(counter("serve_bytes_total") > 0);
    assert_eq!(counter("serve_reloads_total"), 1);
    let jsonl = dump.to_jsonl();
    sunder_telemetry::validate_jsonl(&jsonl).expect("artifact validates");
}
