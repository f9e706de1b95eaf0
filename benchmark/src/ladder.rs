//! The per-layer ladder: successively thicker slices of the stack, each
//! timed from outside around a layer's public functions, all on the
//! workload's own automaton and the first bytes of its own stream.
//!
//! Every rung that produces reports is checked against the oracle trace
//! of the same bytes; the rungs into `NullSink` have no output to check.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunder_artifact::{CompiledDb, MappedDb};
use sunder_automata::partition::partition_into;
use sunder_automata::{anml, InputView, Nfa};
use sunder_resilience::Budget;
use sunder_shard::frame::{decode_client, decode_server, read_raw, DEFAULT_MAX_FRAME_BYTES};
use sunder_shard::{
    pipeline_key, ClientFrame, CompiledPipeline, ServerFrame, StreamSession, SymbolFramer,
};
use sunder_sim::{CountSink, EngineKind, NullSink, ShardedEngine, TraceSink};

use crate::batch::verify_events;
use crate::digest::Expected;
use crate::rep::Ops;
use crate::report::Metrics;
use crate::spans::{Request, Scope};
use crate::stats::median;
use crate::workloads::{Spec, ENGINE, SHARD_SPEC};

/// Smallest slice a rate rung runs on; window sizes are multiples of it.
const SLICE: usize = 16 << 10;
/// Replies kept from the feed rung for the frame rungs to encode.
const MAX_FRAME_REPORTS: usize = 1 << 20;

fn mbps(bytes: usize, took: Duration) -> f64 {
    bytes as f64 / took.as_secs_f64() / 1e6
}

/// Times `f` three times inside spans named `name`; returns the median in
/// seconds and the last result.
fn timed<R>(scope: &mut Scope<'_>, name: &'static str, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let t = Instant::now();
        last = Some(scope.span(name, Request::None, &mut f));
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        median(&secs).expect("three samples"),
        last.expect("ran three times"),
    )
}

/// The set-up rungs: what `setup_s` is made of, each on its own.
pub fn setup_rungs(
    spec: &Spec,
    nfa: &Nfa,
    out_dir: &Path,
    scope: &mut Scope<'_>,
    m: &mut Metrics,
) -> Result<(), String> {
    let text = anml::serialize(nfa);
    let (secs, parsed) = timed(scope, "automata.anml_parse", || anml::parse(&text));
    parsed.map_err(|e| format!("anml::parse of the serialized source: {e}"))?;
    m.set("automata.anml_parse_s", secs);

    let (secs, applied) = timed(scope, "transform.apply", || spec.config.apply(nfa));
    let (transformed, _map) = applied.map_err(|e| format!("transform: {e}"))?;
    m.set("transform.apply_s", secs);
    m.set(
        "transform.state_ratio",
        transformed.num_states() as f64 / nfa.num_states() as f64,
    );

    // `ShardSpec::apply` is private; for `MaxShards(k)` it is this call.
    let sunder_shard::ShardSpec::MaxShards(shards) = SHARD_SPEC else {
        unreachable!("the benchmark shards with MaxShards")
    };
    let (secs, plan) = timed(scope, "automata.partition", || {
        partition_into(&transformed, shards)
    });
    let plan = plan.map_err(|e| format!("partition: {e}"))?;
    m.set("automata.partition_s", secs);

    let (secs, _) = timed(scope, "sim.build", || {
        ShardedEngine::from_plan(&transformed, plan.clone(), ENGINE)
    });
    m.set("sim.build_s", secs);

    let (secs, _) = timed(scope, "shard.cache.key", || {
        pipeline_key(nfa, spec.config, SHARD_SPEC, ENGINE)
    });
    m.set("shard.cache.key_s", secs);

    let db = CompiledDb::compile(nfa, spec.config, SHARD_SPEC.params(), ENGINE)
        .map_err(|e| format!("CompiledDb::compile: {e}"))?;
    let (secs, bytes) = timed(scope, "artifact.write", || db.to_bytes());
    m.set("artifact.write_s", secs);
    m.set("artifact.sdb_bytes", bytes.len() as f64);

    let path = out_dir.join(format!("ladder-{}.sdb", spec.name));
    std::fs::write(&path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    let (secs, opened) = timed(scope, "artifact.open", || MappedDb::open(&path));
    let opened = opened.map_err(|e| format!("MappedDb::open: {e}"))?;
    m.set("artifact.open_s", secs);
    m.set("artifact.borrowed_tables", opened.borrowed_tables() as f64);
    drop(opened);
    let _ = std::fs::remove_file(&path);
    Ok(())
}

/// The data rungs' shared context: one compiled pipeline and the first
/// bytes of stream 0.
pub struct DataRungs<'a> {
    pub spec: &'a Spec,
    pub pipeline: &'a Arc<CompiledPipeline>,
    /// The oracle-checked prefix of stream 0.
    pub window: &'a [u8],
    pub expected: &'a Expected,
    /// Time each rung may spend measuring.
    pub budget: Duration,
}

impl DataRungs<'_> {
    fn view(&self, bytes: &[u8]) -> InputView {
        let nfa = &self.pipeline.nfa;
        InputView::new(bytes, nfa.symbol_bits(), nfa.stride())
            .expect("compiled pipelines use supported symbol widths")
    }

    /// Measures a rate: sizes a prefix of the window from a probe on one
    /// slice so that one run takes about a third of the budget, then
    /// reports the median of three runs in MB/s of original input.
    fn rate(
        &self,
        scope: &mut Scope<'_>,
        name: &'static str,
        mut run: impl FnMut(&[u8]) -> Duration,
    ) -> (f64, usize) {
        let probe = run(&self.window[..SLICE.min(self.window.len())]);
        let affordable = self.budget.as_secs_f64() / 3.0 / probe.as_secs_f64().max(1e-9);
        let slices = (affordable as usize).clamp(1, self.window.len().div_ceil(SLICE));
        let bytes = &self.window[..(slices * SLICE).min(self.window.len())];
        let rates: Vec<f64> = (0..3)
            .map(|_| {
                let took = scope.span(name, Request::None, || run(bytes));
                mbps(bytes.len(), took)
            })
            .collect();
        (median(&rates).expect("three samples"), bytes.len())
    }

    fn check(&self, rung: &str, events: &[sunder_sim::ReportEvent], len: usize, ops: &mut Ops) {
        let outcome = verify_events(self.pipeline, events, len, self.expected);
        ops.attempt(
            outcome.map_err(|why| format!("{}: ladder rung {rung}: {why}", self.spec.name)),
        );
    }

    /// `automata` and `sim`: framing, the three step kernels into a null
    /// sink, the trace sink, and the sharded run.
    pub fn engine_rungs(&self, scope: &mut Scope<'_>, m: &mut Metrics, ops: &mut Ops) {
        let nfa = &self.pipeline.nfa;
        let (rate, _) = self.rate(scope, "automata.input_view", |bytes| {
            let t = Instant::now();
            black_box(self.view(black_box(bytes)));
            t.elapsed()
        });
        m.set("automata.input_view_mbps", rate);

        let mut monolithic = 0.0;
        for (kind, name, span) in [
            (
                EngineKind::Sparse,
                "sim.step_mbps.sparse",
                "sim.step.sparse",
            ),
            (EngineKind::Dense, "sim.step_mbps.dense", "sim.step.dense"),
            (
                EngineKind::Adaptive,
                "sim.step_mbps.adaptive",
                "sim.step.adaptive",
            ),
        ] {
            let (rate, _) = self.rate(scope, span, |bytes| {
                let view = self.view(bytes);
                let mut engine = kind.build(nfa);
                let t = Instant::now();
                engine.run(&view, &mut NullSink);
                t.elapsed()
            });
            m.set(name, rate);
            if kind == ENGINE {
                monolithic = rate;
            }
        }

        let mut traced = (Vec::new(), 0);
        let (rate, _) = self.rate(scope, "sim.trace_sink", |bytes| {
            let view = self.view(bytes);
            let mut engine = ENGINE.build(nfa);
            let mut sink = TraceSink::new();
            let t = Instant::now();
            engine.run(&view, &mut sink);
            let took = t.elapsed();
            traced = (sink.events, bytes.len());
            took
        });
        m.set("sim.trace_sink_mbps", rate);
        self.check("sim.trace_sink", &traced.0, traced.1, ops);
        m.set(
            "sim.reports_per_byte",
            self.expected.reports_in(self.window.len() as u64) as f64 / self.window.len() as f64,
        );

        let sharded = &self.pipeline.sharded;
        let mut counted = (0, 0);
        let (rate, len) = self.rate(scope, "sim.sharded_run", |bytes| {
            let view = self.view(bytes);
            let mut sink = CountSink::new();
            let t = Instant::now();
            sharded.run(&view, &mut sink);
            let took = t.elapsed();
            counted = (sink.reports, bytes.len());
            took
        });
        m.set("sim.sharded_run_mbps", rate);
        m.set("sim.shard_overhead", monolithic / rate);
        // CountSink sees engine reports, the oracle canonical pairs: two
        // states may report one rule at one offset, never the reverse.
        let canonical = self.expected.reports_in(counted.1 as u64);
        ops.attempt(if counted.0 >= canonical {
            Ok(())
        } else {
            Err(format!(
                "{}: ladder rung sim.sharded_run: {} reports, the oracle has {canonical}",
                self.spec.name, counted.0
            ))
        });

        // One more sharded run with the counters zeroed, for the engines'
        // own prefilter and switch counts (telemetry is on in this run).
        sunder_telemetry::metrics::reset();
        let view = self.view(&self.window[..len]);
        sharded.run(&view, &mut CountSink::new());
        let snapshot = sunder_telemetry::snapshot();
        let cycles = (view.num_cycles() * sharded.num_shards()) as f64;
        m.set(
            "sim.prefilter_skipped_share",
            snapshot
                .counter("prefilter_skipped_total", &[])
                .unwrap_or(0) as f64
                / cycles,
        );
        let switches: u64 = ["dense", "sparse"]
            .iter()
            .filter_map(|d| snapshot.counter("engine_switches_total", &[("direction", d)]))
            .sum();
        m.set("sim.engine_switches", switches as f64);
    }

    /// `sim` and `shard.session` chunk by chunk, as a streaming session
    /// drives them; returns the median in-process `feed` time per chunk.
    pub fn chunk_rungs(&self, scope: &mut Scope<'_>, m: &mut Metrics, ops: &mut Ops) -> f64 {
        let chunk_bytes = self.spec.chunk_bytes.min(self.window.len());
        let chunks: Vec<&[u8]> = self.window.chunks(chunk_bytes).collect();
        let sharded = &self.pipeline.sharded;
        let unlimited = Budget::unlimited();

        // run_chunk: resume every shard engine, run, suspend, merge.
        let started = Instant::now();
        let mut state = sharded.initial_state();
        let mut run_chunk_us = Vec::new();
        let mut events = Vec::new();
        let mut done = 0;
        for chunk in &chunks {
            let view = self.view(chunk);
            let mut sink = TraceSink::new();
            let t = Instant::now();
            scope.span("sim.run_chunk", Request::None, || {
                sharded.run_chunk(&view, &mut sink, &mut state, &unlimited)
            });
            run_chunk_us.push(t.elapsed().as_secs_f64() * 1e6);
            events.append(&mut sink.events);
            done += chunk.len();
            if started.elapsed() >= self.budget {
                break;
            }
        }
        m.set("sim.run_chunk_us", median(&run_chunk_us).unwrap_or(0.0));
        self.check("sim.run_chunk", &events, done, ops);

        // merge alone, on the per-shard traces of single chunks.
        let mut merge_us = Vec::new();
        for chunk in chunks.iter().take(16) {
            let view = self.view(chunk);
            let traces: Vec<_> = (0..sharded.num_shards())
                .map(|shard| sharded.run_shard(shard, &view, &unlimited).0)
                .collect();
            let t = Instant::now();
            black_box(scope.span("sim.merge", Request::None, || ShardedEngine::merge(traces)));
            merge_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        m.set("sim.merge_us", median(&merge_us).unwrap_or(0.0));

        // SymbolFramer alone.
        let nfa = &self.pipeline.nfa;
        let (rate, _) = self.rate(scope, "shard.session.framer", |bytes| {
            let mut framer = SymbolFramer::new(nfa.symbol_bits(), nfa.stride())
                .expect("compiled pipelines use supported symbol widths");
            let t = Instant::now();
            for chunk in bytes.chunks(chunk_bytes) {
                black_box(framer.push(black_box(chunk)));
            }
            t.elapsed()
        });
        m.set("shard.session.framer_mbps", rate);

        // StreamSession::feed over the same chunk sequence the server
        // would see: the in-process ceiling for the serve path.
        let started = Instant::now();
        let mut session = StreamSession::new(Arc::clone(self.pipeline), 0);
        let mut checker = self.expected.checker();
        let mut feed_us = Vec::new();
        let mut frames: Vec<(ClientFrame, ServerFrame)> = Vec::new();
        let mut kept_reports = 0;
        let mut fed = 0;
        let mut outcome = Ok(());
        for chunk in &chunks {
            let t = Instant::now();
            let fed_chunk = scope.span("shard.session.feed", Request::None, || {
                session.feed(chunk, &unlimited)
            });
            feed_us.push(t.elapsed().as_secs_f64() * 1e6);
            match fed_chunk {
                Ok(reports) => {
                    fed += chunk.len();
                    checker.push_batch(&mut reports.clone());
                    if kept_reports + reports.len() <= MAX_FRAME_REPORTS {
                        kept_reports += reports.len();
                        frames.push((
                            ClientFrame::Chunk(chunk.to_vec()),
                            ServerFrame::Reports(reports),
                        ));
                    }
                }
                Err(e) => {
                    outcome = Err(format!("feed: {e}"));
                    break;
                }
            }
            if started.elapsed() >= self.budget {
                break;
            }
        }
        let total_us: f64 = feed_us.iter().sum();
        m.set("shard.session.feed_mbps", fed as f64 / total_us.max(1e-3));
        let outcome = outcome.and_then(|()| checker.finish(fed as u64).map_err(|m| m.to_string()));
        ops.attempt(
            outcome.map_err(|why| {
                format!("{}: ladder rung shard.session.feed: {why}", self.spec.name)
            }),
        );

        self.frame_rungs(&frames, scope, m, ops);
        median(&feed_us).unwrap_or(0.0)
    }

    /// `shard.frame`: the request and reply frames of the fed chunks,
    /// written to a `Vec` and read back.
    fn frame_rungs(
        &self,
        frames: &[(ClientFrame, ServerFrame)],
        scope: &mut Scope<'_>,
        m: &mut Metrics,
        ops: &mut Ops,
    ) {
        let mut wire = Vec::new();
        let (secs, _) = timed(scope, "shard.frame.encode", || {
            wire.clear();
            for (request, reply) in frames {
                request.write_to(&mut wire).expect("writing to a Vec");
                reply.write_to(&mut wire).expect("writing to a Vec");
            }
        });
        m.set(
            "shard.frame.encode_mbps",
            wire.len() as f64 / secs.max(1e-9) / 1e6,
        );

        let (secs, decoded) = timed(scope, "shard.frame.decode", || {
            let mut cursor = &wire[..];
            let mut back = Vec::with_capacity(frames.len());
            for _ in frames {
                let request = read_raw(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
                    .ok()
                    .flatten()
                    .and_then(|body| decode_client(&body).ok());
                let reply = read_raw(&mut cursor, u32::MAX)
                    .ok()
                    .flatten()
                    .and_then(|body| decode_server(&body).ok());
                back.push((request, reply));
            }
            back
        });
        m.set(
            "shard.frame.decode_mbps",
            wire.len() as f64 / secs.max(1e-9) / 1e6,
        );
        let round_trip = decoded
            .iter()
            .zip(frames)
            .all(|((request, reply), (sent, answered))| {
                request.as_ref() == Some(sent) && reply.as_ref() == Some(answered)
            });
        ops.attempt(if round_trip {
            Ok(())
        } else {
            Err(format!(
                "{}: ladder rung shard.frame: decoded frames differ from the encoded ones",
                self.spec.name
            ))
        });
    }
}
