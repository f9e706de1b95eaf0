//! `sunder` — command-line front end for the Sunder toolchain.
//!
//! ```text
//! sunder compile-db (--rules rules.txt | --program p.saml) -o db.sdb
//!                [--shards 4] [--config stride2] [--engine adaptive]
//! sunder inspect-db db.sdb
//! sunder artifact-smoke [--dir out/] [--shards 4] [--config <name>]
//!                [--engine <name>] [--paper]
//! sunder run     --rules rules.txt --input data.bin [--config stride4] [--fifo] [--summarize]
//! sunder run     --program db.sdb --input data.bin
//! sunder stats   --rules rules.txt
//! sunder bench   --benchmark Snort [--small]
//! sunder telemetry-report --input trace.jsonl [--validate] [--chrome out.json]
//! sunder serve-batch --rules rules.txt --inputs a.bin,b.bin [--shards 4] [--workers 2]
//! sunder serve   --rules rules.txt [--addr 127.0.0.1:7700] [--shards 4]
//!                [--obs-addr 127.0.0.1:7701] [--flight-recorder-dir flights/]
//! sunder stat    --addr 127.0.0.1:7701 [--iterations 10] [--interval-ms 1000]
//! sunder serve-chaos --rules rules.txt --sessions 32 [--fault-plan chaos.plan]
//!                [--artifact serve.jsonl] [--reload-rules new.txt]
//! ```
//!
//! Rules files contain one regex per line (`#` comments allowed); a
//! `--program` is a source automaton in the textual format of
//! `sunder_automata::anml`, or on `run` a `.sdb` from `compile-db`. Every
//! command compiles through the same `--config` pipeline, so `run` models
//! the automaton that `serve` maps.

use std::fs;
use std::process::ExitCode;

use sunder::automata::{anml, stats::StaticStats};
use sunder::oracle::PipelineConfig;
use sunder::sim::ReportSink;
use sunder::transform::TransformStats;
use sunder::{Benchmark, Engine, Rate, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile-db") => cmd_compile_db(&args[1..]),
        Some("inspect-db") => cmd_inspect_db(&args[1..]),
        Some("artifact-smoke") => cmd_artifact_smoke(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("telemetry-report") => cmd_telemetry_report(&args[1..]),
        Some("serve-batch") => cmd_serve_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("stat") => cmd_stat(&args[1..]),
        // serve-chaos has its own four-way exit taxonomy (0 = clean,
        // 1 = divergence, 2 = usage, 3 = faults injected but attributed).
        Some("serve-chaos") => return cmd_serve_chaos(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  sunder compile-db (--rules <file> | --program <file.saml>) -o <out.sdb>
                 [--shards <n>] [--config <name>] [--engine <name>]
  sunder inspect-db <file.sdb>
  sunder artifact-smoke [--dir <dir>] [--shards <n>] [--config <name>]
                 [--engine <name>] [--paper]
  sunder run     (--rules <file> | --program <file.saml|file.sdb>) --input <file>
                 [--config nibble|stride2|stride4] [--fifo] [--summarize] [--trace]
                 (default stride4; a .sdb runs at the config it was compiled for)
  sunder stats   --rules <file>
  sunder bench   --benchmark <name> [--small]
  sunder telemetry-report --input <trace.jsonl> [--validate] [--chrome <out.json>]
  sunder serve-batch (--rules <file> | --program <file.saml>) --inputs <f1,f2,...>
                 [--shards <n>] [--workers <n>] [--config identity|nibble|stride2|stride4]
                 [--engine sparse|dense|adaptive] [--verify]
  sunder serve   (--rules <file> | --program <file.saml>) [--addr <host:port>]
                 [--shards <n>] [--config <name>] [--engine <name>]
                 [--max-sessions <n>] [--queue-depth <n>] [--chunk-deadline-ms <n>]
                 [--drain-deadline-ms <n>] [--obs-addr <host:port>]
                 [--flight-recorder-dir <dir>] [--flight-events <n>]
                 [--chunk-slo-ms <n>] [--slow-chunk-ms <n>]
                 (stdin commands: reload <file|file.sdb> | status | quit)
  sunder stat    --addr <obs host:port> [--iterations <n>] [--interval-ms <n>]
                 [--json] [--check-metrics] [--timeout-ms <n>]
  sunder serve-chaos (--rules <file> | --program <file.saml>) [--sessions <n>]
                 [--fault-plan <file>] [--artifact <out.jsonl>] [--reload-rules <file>]
                 [--shards <n>] [--config <name>] [--engine <name>] [--seed <n>]
                 [--chunk-size <n>] [--drain-deadline-ms <n>]
                 (exit: 0 clean, 1 divergence/unattributed, 2 usage, 3 faults attributed)";

/// Minimal flag parser: `--key value` pairs plus boolean flags.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn value(&self, key: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    fn required(&self, key: &str) -> Result<&'a str, String> {
        self.value(key).ok_or_else(|| format!("missing {key}"))
    }
}

/// Parses `--config` into a pipeline configuration.
fn parse_config(flags: &Flags, default: PipelineConfig) -> Result<PipelineConfig, String> {
    match flags.value("--config") {
        None => Ok(default),
        Some(name) => PipelineConfig::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                format!("unknown config {name:?} (use identity, nibble, stride2, or stride4)")
            }),
    }
}

/// Parses `--engine` into an engine kind (default `adaptive`).
fn parse_engine(flags: &Flags) -> Result<sunder::sim::EngineKind, String> {
    use sunder::sim::EngineKind;
    match flags.value("--engine") {
        None => Ok(EngineKind::Adaptive),
        Some(name) => EngineKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown engine {name:?} (use sparse, dense, or adaptive)")),
    }
}

/// Parses an integer-valued flag with a default.
fn parse_num<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.value(key) {
        Some(v) => v.parse().map_err(|e| format!("invalid {key} {v:?}: {e}")),
        None => Ok(default),
    }
}

/// Loads a pattern DB from `--program` (ANML text) or `--rules` (one
/// regex per line) — the shared front door for the serve commands.
fn load_nfa(flags: &Flags) -> Result<sunder::Nfa, String> {
    if let Some(path) = flags.value("--program") {
        let text = fs::read_to_string(path).map_err(|e| format!("read program {path}: {e}"))?;
        anml::parse(&text).map_err(|e| e.to_string())
    } else {
        let rules = read_rules(flags.required("--rules")?)?;
        sunder::automata::regex::compile_rule_set(&rules).map_err(|e| e.to_string())
    }
}

/// Loads a pattern DB from a bare path: `.saml`/`.anml` files parse as
/// ANML programs, anything else as a rules file. Used by hot reload.
fn load_nfa_path(path: &str) -> Result<sunder::Nfa, String> {
    if path.ends_with(".saml") || path.ends_with(".anml") {
        let text = fs::read_to_string(path).map_err(|e| format!("read program {path}: {e}"))?;
        anml::parse(&text).map_err(|e| e.to_string())
    } else {
        let rules = read_rules(path)?;
        sunder::automata::regex::compile_rule_set(&rules).map_err(|e| e.to_string())
    }
}

fn read_rules(path: &str) -> Result<Vec<String>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read rules file {path}: {e}"))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect())
}

/// The machine rate a config compiles for: the model runs nibble
/// automata, so `identity` has none.
fn machine_rate(config: PipelineConfig) -> Result<Rate, String> {
    config.rate().ok_or_else(|| {
        "the Sunder model runs the nibble, stride2 or stride4 config, not identity".to_string()
    })
}

/// Streams reports to stdout as `cycle<TAB>rule`.
#[derive(Default)]
struct PrintSink {
    lines: u64,
}

impl ReportSink for PrintSink {
    fn on_cycle_reports(&mut self, cycle: u64, reports: &[sunder::sim::ReportEvent]) {
        for r in reports {
            println!("{cycle}\t{}", r.info.id);
            self.lines += 1;
        }
    }
}

/// Runs the cycle-level machine model. A `.sdb` program runs the
/// automaton it stores, at the rate of the config it was compiled for.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let builder = Engine::builder().fifo(flags.flag("--fifo"));
    let (engine, program) = match flags.value("--program") {
        Some(path) if path.ends_with(".sdb") => {
            let mapped = sunder::artifact::MappedDb::open(std::path::Path::new(path))
                .map_err(|e| format!("{path}: {e}"))?;
            let pipeline = mapped.pipeline();
            let rate = machine_rate(pipeline.config).map_err(|e| format!("{path}: {e}"))?;
            let engine = builder.rate(rate).build();
            let program = engine.compile_precompiled(sunder::Nfa::clone(&pipeline.nfa));
            (engine, program)
        }
        _ => {
            let rate = machine_rate(parse_config(&flags, PipelineConfig::Stride4)?)?;
            let engine = builder.rate(rate).build();
            let program = engine.compile_nfa(&load_nfa(&flags)?);
            (engine, program)
        }
    };
    let program = program.map_err(|e| e.to_string())?;

    let input_path = flags.required("--input")?;
    let input = fs::read(input_path).map_err(|e| format!("read input {input_path}: {e}"))?;
    let mut session = engine.load(&program).map_err(|e| e.to_string())?;

    if flags.flag("--trace") {
        let mut sink = PrintSink::default();
        let stats = session
            .run_with_sink(&input, &mut sink)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "{} reports; {} cycles (+{} stalls, {} flushes), overhead {:.3}x",
            sink.lines,
            stats.input_cycles,
            stats.stall_cycles,
            stats.flushes,
            stats.reporting_overhead()
        );
    } else {
        let outcome = session.run(&input).map_err(|e| e.to_string())?;
        println!("reports: {}", outcome.reports);
        println!("report_cycles: {}", outcome.report_cycles);
        println!("overhead: {:.4}", outcome.stats.reporting_overhead());
        println!("flushes: {}", outcome.stats.flushes);
        println!(
            "matched_rules: {}",
            outcome
                .matched_rules
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    if flags.flag("--summarize") {
        let rules = session.summarize_matched_rules();
        println!(
            "summarized_rules: {}",
            rules
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    Ok(())
}

/// Renders a `--telemetry` JSON-lines artifact: per-benchmark breakdown
/// by default, schema validation with `--validate`, Chrome `trace_event`
/// conversion with `--chrome OUT` (loadable in Perfetto).
fn cmd_telemetry_report(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let path = flags.required("--input")?;
    let text =
        fs::read_to_string(path).map_err(|e| format!("read telemetry artifact {path}: {e}"))?;
    if flags.flag("--validate") {
        let v = sunder::telemetry::validate_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: valid ({} lines: {} spans, {} instants, {} metrics, {} dropped)",
            v.lines, v.spans, v.instants, v.metrics, v.dropped
        );
    }
    if let Some(out) = flags.value("--chrome") {
        let doc = sunder::telemetry::chrome_trace_from_jsonl(&text)?;
        fs::write(out, doc).map_err(|e| format!("write Chrome trace {out}: {e}"))?;
        eprintln!("Chrome trace written to {out} (open in chrome://tracing or Perfetto)");
    }
    if !flags.flag("--validate") && flags.value("--chrome").is_none() {
        let report = sunder::telemetry::Report::from_jsonl(&text)?;
        print!("{}", report.render_text());
    }
    Ok(())
}

/// Batches many independent input streams against one rule set through
/// the multi-stream execution service: streams fan out across
/// work-stealing workers, each one engine pass over the whole automaton,
/// and per-stream failures are attributed without aborting the batch.
/// `--verify` additionally holds every stream's trace against a
/// monolithic run (the equivalence gate).
fn cmd_serve_batch(args: &[String]) -> Result<(), String> {
    use sunder::shard::{run_batch, verify_stream, BatchOptions, CompiledPipeline, ShardSpec};

    let flags = Flags { args };
    let nfa = load_nfa(&flags)?;

    let inputs_arg = flags.required("--inputs")?;
    let paths: Vec<&str> = inputs_arg
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if paths.is_empty() {
        return Err("--inputs requires at least one file".to_string());
    }
    let mut streams = Vec::with_capacity(paths.len());
    for path in &paths {
        streams.push(fs::read(path).map_err(|e| format!("read input {path}: {e}"))?);
    }

    let shards: usize = parse_num(&flags, "--shards", 4)?;
    let workers: usize = parse_num(
        &flags,
        "--workers",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    )?;
    let config = parse_config(&flags, PipelineConfig::Identity)?;
    let engine = parse_engine(&flags)?;

    let pipeline = CompiledPipeline::compile(&nfa, config, ShardSpec::MaxShards(shards), engine)
        .map_err(|e| e.to_string())?;
    let report = run_batch(&pipeline, &streams, &BatchOptions::with_workers(workers));

    let mut failures = 0usize;
    for s in &report.streams {
        let path = paths[s.stream];
        match &s.merged {
            Some(events) => {
                let verified = if flags.flag("--verify") {
                    match verify_stream(&pipeline, s, &streams[s.stream]) {
                        Ok(true) => "\tverified",
                        Ok(false) => {
                            failures += 1;
                            "\tTRACE MISMATCH"
                        }
                        Err(e) => return Err(format!("verify {path}: {e}")),
                    }
                } else {
                    ""
                };
                println!("{path}\tok\treports: {}{verified}", events.len());
            }
            None => {
                failures += 1;
                let detail: Vec<String> = s
                    .failed_shards()
                    .iter()
                    .map(|(shard, status)| format!("shard {shard} {status}"))
                    .collect();
                println!("{path}\tFAILED\t{}", detail.join(", "));
            }
        }
    }
    eprintln!(
        "batch: {} streams over {} shards x {} workers ({} pipeline, {} engine); \
         {} steals, {:.1} ms",
        report.streams.len(),
        report.shards,
        report.workers,
        config.name(),
        engine.name(),
        report.steals,
        report.wall.as_secs_f64() * 1e3,
    );
    if failures > 0 {
        return Err(format!("{failures} stream(s) failed"));
    }
    Ok(())
}

/// Builds a streaming [`ServerConfig`](sunder::shard::ServerConfig)
/// from the shared serve flags.
fn parse_server_config(flags: &Flags) -> Result<sunder::shard::ServerConfig, String> {
    use std::time::Duration;
    use sunder::shard::{ServerConfig, ShardSpec};

    let defaults = ServerConfig::default();
    Ok(ServerConfig {
        config: parse_config(flags, PipelineConfig::Identity)?,
        spec: ShardSpec::MaxShards(parse_num(flags, "--shards", 4)?),
        engine: parse_engine(flags)?,
        max_sessions: parse_num(flags, "--max-sessions", defaults.max_sessions)?,
        per_tenant_sessions: parse_num(flags, "--per-tenant", defaults.per_tenant_sessions)?,
        queue_depth: parse_num(flags, "--queue-depth", defaults.queue_depth)?,
        chunk_deadline: match flags.value("--chunk-deadline-ms") {
            Some(v) => {
                Some(Duration::from_millis(v.parse().map_err(|e| {
                    format!("invalid --chunk-deadline-ms {v:?}: {e}")
                })?))
            }
            None => None,
        },
        drain_deadline: Duration::from_millis(parse_num(
            flags,
            "--drain-deadline-ms",
            defaults.drain_deadline.as_millis() as u64,
        )?),
        fault_plan: match flags.value("--fault-plan") {
            Some(path) => {
                let text =
                    fs::read_to_string(path).map_err(|e| format!("read fault plan {path}: {e}"))?;
                sunder::resilience::FaultPlan::from_text(&text)
                    .map_err(|e| format!("parse fault plan {path}: {e}"))?
            }
            None => sunder::resilience::FaultPlan::none(),
        },
        obs_addr: flags.value("--obs-addr").map(String::from),
        flight_recorder_dir: flags
            .value("--flight-recorder-dir")
            .map(std::path::PathBuf::from),
        flight_events: parse_num(flags, "--flight-events", defaults.flight_events)?,
        chunk_slo: Duration::from_millis(parse_num(
            flags,
            "--chunk-slo-ms",
            defaults.chunk_slo.as_millis() as u64,
        )?),
        slow_chunk: match flags.value("--slow-chunk-ms") {
            Some(v) => {
                Some(Duration::from_millis(v.parse().map_err(|e| {
                    format!("invalid --slow-chunk-ms {v:?}: {e}")
                })?))
            }
            None => None,
        },
        ..defaults
    })
}

/// The long-lived streaming daemon: binds the match service, then takes
/// operator commands on stdin (`reload <file>` swaps the pattern DB
/// atomically — a `.sdb` path maps a precompiled artifact in without
/// recompiling — while in-flight sessions finish on their pinned epoch;
/// `status` prints live counters; `quit` or EOF starts a graceful drain
/// bounded by the drain deadline).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use sunder::shard::MatchServer;

    let flags = Flags { args };
    let nfa = load_nfa(&flags)?;
    let cfg = parse_server_config(&flags)?;
    // An obs listener without metrics would scrape an empty registry, so
    // the flag implies metrics-level telemetry.
    if cfg.obs_addr.is_some() {
        sunder::telemetry::init(sunder::telemetry::Config::metrics());
    }
    let addr = flags.value("--addr").unwrap_or("127.0.0.1:7700");
    let mut server = MatchServer::start(addr, &nfa, cfg)?;
    eprintln!(
        "sunder serve: listening on {} (epoch {}); stdin commands: reload <file> | status | quit",
        server.local_addr(),
        server.epoch(),
    );
    if let Some(obs) = server.obs_addr() {
        eprintln!(
            "sunder serve: observability on http://{obs} (/metrics /healthz /readyz /statusz)"
        );
    }

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) => break, // EOF: drain and exit.
            Ok(_) => {}
            Err(e) => return Err(format!("read stdin: {e}")),
        }
        let cmd = line.trim();
        if cmd.is_empty() {
            continue;
        }
        if cmd == "quit" || cmd == "exit" {
            break;
        } else if cmd == "status" {
            // The same JSON document `/statusz` serves — one producer,
            // two transports.
            println!("{}", server.status_json());
        } else if let Some(path) = cmd.strip_prefix("reload ") {
            // A failed load never disturbs the serving epoch. `.sdb`
            // artifacts map straight in without recompiling; any other
            // path goes through the source-level compile.
            let path = path.trim();
            let outcome = if path.ends_with(".sdb") {
                server.reload_artifact(std::path::Path::new(path))
            } else {
                load_nfa_path(path).and_then(|db| server.reload(&db).map_err(|e| e.to_string()))
            };
            match outcome {
                Ok(epoch) => eprintln!("reloaded {path}: now epoch {epoch}"),
                Err(e) => eprintln!("reload failed (still epoch {}): {e}", server.epoch()),
            }
        } else {
            eprintln!("unknown command {cmd:?} (use: reload <file> | status | quit)");
        }
    }

    let report = server.drain();
    eprintln!(
        "drained: {} finished, {} forced, {:.1} ms",
        report.drained,
        report.forced,
        report.duration.as_secs_f64() * 1e3,
    );
    if report.forced > 0 {
        return Err(format!(
            "{} session(s) forcibly cancelled at drain",
            report.forced
        ));
    }
    Ok(())
}

/// Live daemon dashboard: polls a serve daemon's `/statusz` endpoint and
/// renders it as a terminal table (`--json` for the raw document, one
/// line per poll). `--check-metrics` instead scrapes `/metrics` once and
/// validates the exposition with the telemetry parser — the CI smoke
/// job's curl-plus-linter in one flag.
fn cmd_stat(args: &[String]) -> Result<(), String> {
    use std::net::ToSocketAddrs;
    use std::time::Duration;
    use sunder::telemetry::json::Json;

    let flags = Flags { args };
    let addr_str = flags.value("--addr").unwrap_or("127.0.0.1:7701");
    let addr = addr_str
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr_str}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr_str}: no addresses"))?;
    let timeout = Duration::from_millis(parse_num(&flags, "--timeout-ms", 2000u64)?);

    if flags.flag("--check-metrics") {
        let (status, body) = sunder::shard::http_get(addr, "/metrics", timeout)?;
        if status != 200 {
            return Err(format!("/metrics returned HTTP {status}"));
        }
        let families = sunder::telemetry::parse_prometheus(&body)
            .map_err(|e| format!("exposition invalid: {e}"))?;
        let samples: usize = families.iter().map(|f| f.samples.len()).sum();
        println!(
            "metrics ok: {} families, {samples} samples, {} bytes",
            families.len(),
            body.len()
        );
        return Ok(());
    }

    let iterations: u64 = parse_num(&flags, "--iterations", 1u64)?;
    let interval = Duration::from_millis(parse_num(&flags, "--interval-ms", 1000u64)?);
    let num = |doc: &Json, path: &[&str]| -> f64 {
        let mut cur = doc.clone();
        for key in path {
            cur = cur.get(key).cloned().unwrap_or(Json::Null);
        }
        cur.as_f64().unwrap_or(0.0)
    };
    for i in 0..iterations {
        if i > 0 {
            std::thread::sleep(interval);
        }
        let (status, body) = sunder::shard::http_get(addr, "/statusz", timeout)?;
        if status != 200 {
            return Err(format!("/statusz returned HTTP {status}"));
        }
        if flags.flag("--json") {
            println!("{body}");
            continue;
        }
        let doc = sunder::telemetry::json::parse(&body)
            .map_err(|e| format!("/statusz is not valid JSON: {e}"))?;
        if i == 0 {
            println!(
                "{:>8} {:>6} {:>8} {:>8} {:>7} {:>8} {:>9} {:>6}",
                "uptime_s", "epoch", "active", "started", "queued", "hit_rate", "state", "slo"
            );
        }
        let state = if doc.get("draining").map(|d| *d == Json::Bool(true)) == Some(true) {
            "draining"
        } else if doc.get("reloading").map(|d| *d == Json::Bool(true)) == Some(true) {
            "reloading"
        } else {
            "ready"
        };
        let slo = match doc.get("slo_violations") {
            Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
            _ => 0u64,
        };
        println!(
            "{:>8} {:>6} {:>8} {:>8} {:>7} {:>8.3} {:>9} {:>6}",
            num(&doc, &["uptime_s"]),
            num(&doc, &["epoch"]),
            num(&doc, &["sessions", "active"]),
            num(&doc, &["sessions", "started"]),
            num(&doc, &["queue", "queued"]),
            num(&doc, &["cache", "hit_rate"]),
            state,
            slo,
        );
        if let Some(Json::Obj(tenants)) = doc.get("latency_us") {
            for (tenant, stats) in tenants {
                println!(
                    "         tenant {tenant}: n={} mean={:.0}us p50={:.0}us p99={:.0}us reply p50={:.0}us p99={:.0}us",
                    num(stats, &["count"]),
                    num(stats, &["mean_us"]),
                    num(stats, &["p50_us"]),
                    num(stats, &["p99_us"]),
                    num(&doc, &["reply_write_us", tenant, "p50_us"]),
                    num(&doc, &["reply_write_us", tenant, "p99_us"]),
                );
            }
        }
    }
    Ok(())
}

/// The chaos harness: starts an in-process [`MatchServer`] under a fault
/// plan, drives N concurrent streaming sessions through the chaos client
/// (which acts out the plan's connection-level faults on the wire),
/// verifies every surviving session byte-for-byte against a whole-input
/// run on the epoch it pinned, then drains and writes the telemetry
/// artifact. Exit taxonomy matches the fault-smoke gate: 0 = clean run,
/// 1 = divergence or unattributed failure, 2 = usage error, 3 = faults
/// were injected and every one was attributed.
fn cmd_serve_chaos(args: &[String]) -> ExitCode {
    match run_serve_chaos(args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_serve_chaos(args: &[String]) -> Result<u8, String> {
    use std::time::Duration;
    use sunder::resilience::{FaultKind, SplitMix64};
    use sunder::shard::{expected_reports, run_chaos, ChaosOptions, MatchServer, SessionOutcome};
    use sunder::telemetry::{self, Value};

    let flags = Flags { args };
    let nfa = load_nfa(&flags)?;
    let sessions: usize = parse_num(&flags, "--sessions", 16)?;
    if sessions == 0 {
        return Err("--sessions must be at least 1".to_string());
    }
    let seed: u64 = parse_num(&flags, "--seed", 0x5EED)?;
    let chunk_size: usize = parse_num(&flags, "--chunk-size", 64)?;
    let mut cfg = parse_server_config(&flags)?;
    cfg.max_sessions = cfg.max_sessions.max(sessions + 8);
    let plan = cfg.fault_plan.clone();
    let drain_deadline = cfg.drain_deadline;
    let reload_nfa = match flags.value("--reload-rules") {
        Some(path) => Some(load_nfa_path(path)?),
        // reload-burst directives without --reload-rules re-load the
        // primary DB: the epoch still bumps, patterns stay the same.
        None if plan
            .faults
            .iter()
            .any(|f| matches!(f.kind, FaultKind::ReloadDuringBurst { .. })) =>
        {
            Some(nfa.clone())
        }
        None => None,
    };

    telemetry::init(telemetry::Config::spans());

    let server = {
        let mut s = MatchServer::start("127.0.0.1:0", &nfa, cfg)?;
        // Deterministic per-session inputs over a printable alphabet.
        let mut rng = SplitMix64::new(seed);
        let alphabet: Vec<u8> = (b' '..=b'~').collect();
        let inputs: Vec<Vec<u8>> = (0..sessions)
            .map(|_| {
                (0..256 + (rng.next() % 512) as usize)
                    .map(|_| alphabet[(rng.next() % alphabet.len() as u64) as usize])
                    .collect()
            })
            .collect();
        let opts = ChaosOptions {
            chunk_size: chunk_size.max(1),
            reload_anml: reload_nfa.as_ref().map(anml::serialize),
            read_timeout: Duration::from_secs(30),
        };
        eprintln!(
            "serve-chaos: {} session(s) against {} ({} fault(s) planned)",
            sessions,
            s.local_addr(),
            plan.faults.len(),
        );
        let outcomes = run_chaos(s.local_addr(), &inputs, &plan, &opts);

        // Reference pipelines per epoch, from the server's own cache so
        // compilation is shared with what actually served the sessions.
        let config = parse_config(&flags, PipelineConfig::Identity)?;
        let primary = s
            .cache()
            .get_or_compile(&nfa, config)
            .map_err(|e| e.to_string())?;
        let reloaded = match &reload_nfa {
            Some(db) => Some(
                s.cache()
                    .get_or_compile(db, config)
                    .map_err(|e| e.to_string())?,
            ),
            None => None,
        };

        let mut divergences = 0usize;
        let mut unattributed = 0usize;
        let mut completed = 0usize;
        let mut victims = 0usize;
        for (i, outcome) in outcomes.iter().enumerate() {
            let planned: Vec<&FaultKind> = plan.faults_for(i).collect();
            let verdict = match outcome {
                SessionOutcome::Completed { epoch, reports, .. } => {
                    completed += 1;
                    let reference = if *epoch <= 1 {
                        &primary
                    } else {
                        reloaded.as_ref().unwrap_or(&primary)
                    };
                    let expected = expected_reports(reference, &inputs[i])
                        .map_err(|e| format!("reference run for s{i}: {e}"))?;
                    if reports == &expected {
                        "ok"
                    } else {
                        divergences += 1;
                        "DIVERGED"
                    }
                }
                SessionOutcome::Transport(_) => {
                    unattributed += 1;
                    "UNATTRIBUTED"
                }
                // A refusal, typed error, or deliberate disconnect is
                // only acceptable when the plan targeted this session.
                _ if planned.is_empty() => {
                    unattributed += 1;
                    "UNATTRIBUTED"
                }
                _ => {
                    victims += 1;
                    "attributed"
                }
            };
            telemetry::instant(
                "chaos.session_outcome",
                &[
                    ("session", Value::from(i as u64)),
                    ("outcome", Value::from(outcome.label())),
                    ("verdict", Value::from(verdict)),
                ],
            );
            println!("s{i}\t{}\t{verdict}", outcome.label());
        }

        let report = s.drain();
        let drain_ok = report.forced == 0 && report.duration <= drain_deadline;
        eprintln!(
            "serve-chaos: {completed} completed, {victims} attributed victim(s), \
             {divergences} divergence(s), {unattributed} unattributed; \
             drain {} finished / {} forced in {:.1} ms (epoch {})",
            report.drained,
            report.forced,
            report.duration.as_secs_f64() * 1e3,
            s.epoch(),
        );
        if !drain_ok {
            eprintln!(
                "serve-chaos: drain FAILED (deadline {:.0} ms)",
                drain_deadline.as_secs_f64() * 1e3
            );
        }
        if divergences + unattributed > 0 || !drain_ok {
            1u8
        } else if plan.is_empty() {
            0
        } else {
            3
        }
    };

    if let Some(path) = flags.value("--artifact") {
        let dump = telemetry::finish().ok_or("telemetry session missing")?;
        let jsonl = dump.to_jsonl();
        telemetry::validate_jsonl(&jsonl).map_err(|e| format!("artifact invalid: {e}"))?;
        fs::write(path, &jsonl).map_err(|e| format!("write artifact {path}: {e}"))?;
        eprintln!("telemetry artifact written to {path}");
    }
    Ok(server)
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let rules = read_rules(flags.required("--rules")?)?;
    let nfa = sunder::automata::regex::compile_rule_set(&rules).map_err(|e| e.to_string())?;
    println!("static: {}", StaticStats::of(&nfa));
    let t = TransformStats::measure(&nfa).map_err(|e| e.to_string())?;
    println!("transform overheads: {t}");
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let name = flags.required("--benchmark")?;
    let bench = Benchmark::ALL
        .iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| {
            format!(
                "unknown benchmark {name:?}; choose from: {}",
                Benchmark::ALL
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
    let scale = if flags.flag("--small") {
        Scale::small()
    } else {
        Scale::paper()
    };
    let w = bench.build(scale);
    let view = sunder::InputView::new(&w.input, 8, 1).map_err(|e| e.to_string())?;
    let mut sim = sunder::sim::Simulator::new(&w.nfa);
    let mut sink = sunder::sim::DynamicStatsSink::new();
    sim.run(&view, &mut sink);
    let d = sink.finish();
    println!("benchmark: {}", bench.name());
    println!("paper: {:?}", bench.paper());
    println!("states: {}", w.nfa.num_states());
    println!("measured: {d}");
    Ok(())
}

/// Compiles a rule set or ANML program all the way through the pipeline
/// (transform, shard placement, engine tables) and writes the result
/// as a zero-copy `.sdb` pattern database.
fn cmd_compile_db(args: &[String]) -> Result<(), String> {
    use sunder::shard::{CompiledPipeline, ShardSpec};

    let flags = Flags { args };
    let nfa = load_nfa(&flags)?;
    let config = parse_config(&flags, PipelineConfig::Identity)?;
    let engine = parse_engine(&flags)?;
    let shards: usize = parse_num(&flags, "--shards", 4)?;
    let out = flags.required("-o")?;
    let db = CompiledPipeline::compile(&nfa, config, ShardSpec::MaxShards(shards), engine)
        .map_err(|e| e.to_string())?;
    db.write(std::path::Path::new(out))
        .map_err(|e| format!("write database {out}: {e}"))?;
    let size = fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "compiled pattern database: key {}, {} pipeline, {} engine, {} shards, \
         {size} bytes -> {out}",
        db.key,
        db.config.name(),
        db.engine.name(),
        db.num_shards(),
    );
    Ok(())
}

/// Validates a `.sdb` file and prints its identity, the prefilter
/// density of the table set the engine runs from, and its section layout.
/// Both loader phases run in full (byte-level, then typed semantic
/// checks), so a clean inspect implies the database would map and run.
fn cmd_inspect_db(args: &[String]) -> Result<(), String> {
    use sunder::artifact::MappedDb;

    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("usage: sunder inspect-db <file.sdb>")?;
    let mapped = MappedDb::open(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let pipeline = mapped.pipeline();
    println!("{path}: valid Sunder pattern database");
    println!("  pipeline key     {}", pipeline.key);
    println!("  config           {}", pipeline.config.name());
    println!("  sharding spec    {}", pipeline.spec);
    println!("  engine           {}", pipeline.engine.name());
    println!(
        "  shards           {} (placement only)",
        pipeline.num_shards()
    );
    println!(
        "  automaton        {} states, {} transitions",
        pipeline.nfa.num_states(),
        pipeline.nfa.num_transitions()
    );
    let tables = pipeline.sharded.sparse();
    let wake: u32 = tables.start_lut.iter().map(|w| w.count_ones()).sum();
    println!(
        "  prefilter        {wake} of {} leading symbols wake a start",
        tables.alphabet
    );
    println!(
        "  file length      {} bytes ({})",
        mapped.file_len(),
        if mapped.is_mmapped() {
            "memory-mapped"
        } else {
            "heap copy"
        },
    );
    println!("  borrowed tables  {}", mapped.borrowed_tables());
    println!(
        "  sections         {} (offset, bytes, kind)",
        mapped.sections().len()
    );
    for (kind, offset, len) in mapped.sections() {
        println!("    {offset:>10}  {len:>10}  {kind:?}");
    }
    Ok(())
}

/// End-to-end artifact smoke for CI: compiles every suite benchmark to a
/// `.sdb`, re-runs each from the mapped database asserting trace equality
/// against the in-memory pipeline, replays the corruption corpus over one
/// image, and gates that cold-loading beats recompiling decisively.
fn cmd_artifact_smoke(args: &[String]) -> Result<(), String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};
    use sunder::artifact::{corrupt, MappedDb};
    use sunder::shard::{CompiledPipeline, ShardSpec};

    let flags = Flags { args };
    // Default to the flagship stride-2 pipeline: the cold-load gate
    // compares mapping against *recompiling*, and the identity config
    // (no transform work at all) makes that comparison degenerate.
    let config = parse_config(&flags, PipelineConfig::Stride2)?;
    let engine = parse_engine(&flags)?;
    let shards: usize = parse_num(&flags, "--shards", 4)?;
    let spec = ShardSpec::MaxShards(shards);
    let scale = if flags.flag("--paper") {
        Scale::paper()
    } else {
        Scale::small()
    };
    let dir = match flags.value("--dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("sunder-artifact-smoke-{}", std::process::id())),
    };
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let mut compile_total = Duration::ZERO;
    let mut load_total = Duration::ZERO;
    let mut first_image: Option<Vec<u8>> = None;
    for bench in Benchmark::ALL.iter().copied() {
        let w = bench.build(scale);
        let t = Instant::now();
        let db = CompiledPipeline::compile(&w.nfa, config, spec, engine)
            .map_err(|e| format!("{}: compile: {e}", bench.name()))?;
        let compile = t.elapsed();
        let path = dir.join(format!("{}.sdb", bench.name().to_lowercase()));
        db.write(&path)
            .map_err(|e| format!("{}: write: {e}", bench.name()))?;

        let t = Instant::now();
        let mapped = MappedDb::open(&path).map_err(|e| format!("{}: load: {e}", bench.name()))?;
        let load = t.elapsed();

        let expected = db
            .sharded
            .run_trace(&w.input)
            .map_err(|e| format!("{}: in-memory run: {e}", bench.name()))?;
        let actual = mapped
            .pipeline()
            .sharded
            .run_trace(&w.input)
            .map_err(|e| format!("{}: mapped run: {e}", bench.name()))?;
        if actual != expected {
            return Err(format!(
                "{}: mapped execution diverged from the in-memory pipeline \
                 ({} vs {} report events)",
                bench.name(),
                actual.len(),
                expected.len(),
            ));
        }
        println!(
            "{}\tok\t{} states, {} shards, {} bytes, {} reports; \
             compile {:.1} ms, cold load {:.2} ms",
            bench.name(),
            w.nfa.num_states(),
            mapped.pipeline().num_shards(),
            mapped.file_len(),
            expected.len(),
            compile.as_secs_f64() * 1e3,
            load.as_secs_f64() * 1e3,
        );
        compile_total += compile;
        load_total += load;
        if first_image.is_none() {
            first_image = Some(db.to_bytes());
        }
    }

    let base = first_image.ok_or("benchmark suite is empty")?;
    let mutants = corrupt::corpus(&base, 0xC0FFEE);
    let mut rejected = 0usize;
    let mut harmless = 0usize;
    for m in &mutants {
        match catch_unwind(AssertUnwindSafe(|| MappedDb::load_bytes(&m.bytes))) {
            Err(_) => {
                return Err(format!(
                    "corruption corpus: PANIC on mutant {:?}",
                    m.description
                ))
            }
            Ok(Err(_)) => rejected += 1,
            Ok(Ok(_)) if m.must_error => {
                return Err(format!(
                    "corruption corpus: mutant {:?} must be rejected but loaded",
                    m.description
                ))
            }
            Ok(Ok(_)) => harmless += 1,
        }
    }
    println!(
        "corruption corpus: {} mutants, {rejected} rejected with typed errors, \
         {harmless} harmless, 0 panics",
        mutants.len()
    );

    // The whole point of the format: cold-loading must be decisively
    // cheaper than recompiling. A 2x bar is far below the real margin
    // (mmap + validation vs the full pipeline) but robust to CI noise.
    if load_total * 2 >= compile_total {
        return Err(format!(
            "cold-load gate failed: {:.1} ms loading vs {:.1} ms compiling \
             (need load * 2 < compile)",
            load_total.as_secs_f64() * 1e3,
            compile_total.as_secs_f64() * 1e3,
        ));
    }
    println!(
        "cold-load gate: {:.2} ms load vs {:.1} ms compile ({:.0}x); artifacts in {}",
        load_total.as_secs_f64() * 1e3,
        compile_total.as_secs_f64() * 1e3,
        compile_total.as_secs_f64() / load_total.as_secs_f64().max(1e-9),
        dir.display(),
    );
    Ok(())
}
