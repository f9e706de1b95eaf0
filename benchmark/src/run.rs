//! One run of one workload: untraced for the end-to-end metrics, traced
//! for the per-layer ones.
//!
//! Run shape: inputs and expected traces (untimed) → set-up → one untimed
//! warm-up → timed repetitions with a further timed set-up between each
//! two; each metric is the repetitions' quartile on the good side.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunder_automata::Nfa;
use sunder_oracle::ReferenceOracle;
use sunder_shard::{CompiledPipeline, MatchServer};
use sunder_workloads::Scale;

use crate::batch;
use crate::digest::Expected;
use crate::gen::compose_stream;
use crate::ladder::{setup_rungs, DataRungs};
use crate::procfs;
use crate::rep::{Ops, Rep};
use crate::report::{Metrics, Outcome};
use crate::serve::{self, Pace};
use crate::spans::{self, Request, Scope, Tracer};
use crate::stats::{percentile_sorted, Better};
use crate::workloads::{MainPath, PipelineSource, Spec, Volumes, LANES};

/// Where `.sdb` files and traces go: `out/` beside the package manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A run's scratch state on disk, removed when the run ends.
struct SdbDir(PathBuf);

impl SdbDir {
    fn new(spec: &Spec) -> Result<SdbDir, String> {
        let dir = out_dir().join(format!("sdb-{}-{}", spec.name, std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(SdbDir(dir))
    }
}

impl Drop for SdbDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A set-up program, ready to match.
enum Live {
    Batch(Arc<CompiledPipeline>),
    Serve(MatchServer),
}

/// A workload's automaton, its seeded streams, and what they must report.
struct Prepared {
    spec: Spec,
    nfa: Nfa,
    streams: Vec<Vec<u8>>,
    expected: Vec<Expected>,
    prefix_bytes: usize,
}

impl Prepared {
    fn new(spec: &Spec, seed: u64, volumes: &Volumes) -> Result<Prepared, String> {
        let workload = spec.benchmark.build(Scale {
            state_fraction: spec.state_fraction.min(volumes.max_state_fraction),
            input_len: volumes.pool_bytes,
        });
        let stream_bytes = spec.stream_bytes.min(volumes.max_stream_bytes);
        let streams: Vec<Vec<u8>> = (0..LANES)
            .map(|lane| compose_stream(&workload.input, seed, lane, stream_bytes))
            .collect();
        let prefix_bytes = volumes.prefix_bytes.min(stream_bytes);
        let mut oracle = ReferenceOracle::new(&workload.nfa).map_err(|e| format!("oracle: {e}"))?;
        let expected = streams
            .iter()
            .map(|s| Expected::compute(&mut oracle, s, prefix_bytes))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|why| format!("{}: {why}", spec.name))?;
        Ok(Prepared {
            spec: Spec {
                stream_bytes,
                chunk_bytes: spec.chunk_bytes.min(prefix_bytes),
                ..*spec
            },
            nfa: workload.nfa,
            streams,
            expected,
            prefix_bytes,
        })
    }

    /// The oracle-checked first bytes of every stream.
    fn windows(&self) -> Vec<&[u8]> {
        self.streams
            .iter()
            .map(|s| &s[..self.prefix_bytes])
            .collect()
    }
    fn pace(&self) -> Pace {
        match self.spec.main {
            MainPath::ServeOpen { interval } => Pace::Open { interval },
            MainPath::Batch { .. } | MainPath::ServeClosed => Pace::Closed,
        }
    }

    /// Untimed preparation of the on-disk state set-up depends on.
    fn prepare_disk(&self, dir: &SdbDir) -> Result<(), String> {
        match self.spec.main {
            MainPath::Batch {
                source: PipelineSource::DiskTier,
            } => batch::prepare_disk_tier(&self.spec, &self.nfa, &dir.0),
            _ => Ok(()),
        }
    }

    fn setup(&self, dir: &SdbDir) -> Result<Live, String> {
        match self.spec.main {
            MainPath::Batch { source } => {
                batch::setup(source, &self.spec, &self.nfa, &dir.0).map(Live::Batch)
            }
            MainPath::ServeClosed | MainPath::ServeOpen { .. } => {
                serve::setup(&self.spec, &self.nfa).map(Live::Serve)
            }
        }
    }

    fn batch_repetition(
        &self,
        pipeline: &CompiledPipeline,
        streams: &[Vec<u8>],
        window: Duration,
        scope: &mut Scope<'_>,
        ops: &mut Ops,
    ) -> Rep {
        batch::repetition(
            self.spec.name,
            pipeline,
            streams,
            &self.expected,
            window,
            scope,
            ops,
        )
    }

    fn serve_repetition(
        &self,
        server: &MatchServer,
        streams: &[&[u8]],
        window: Duration,
        scope: &mut Scope<'_>,
        ops: &mut Ops,
    ) -> Rep {
        serve::repetition(
            self.spec.name,
            server.local_addr(),
            self.pace(),
            self.spec.chunk_bytes,
            streams,
            &self.expected,
            window,
            scope,
            ops,
        )
    }

    /// One repetition of the workload's own path over its whole streams.
    fn main_repetition(
        &self,
        live: &Live,
        window: Duration,
        scope: &mut Scope<'_>,
        ops: &mut Ops,
    ) -> Rep {
        match live {
            Live::Batch(pipeline) => {
                self.batch_repetition(pipeline, &self.streams, window, scope, ops)
            }
            Live::Serve(server) => {
                let streams: Vec<&[u8]> = self.streams.iter().map(Vec::as_slice).collect();
                self.serve_repetition(server, &streams, window, scope, ops)
            }
        }
    }
}

/// Open-loop honesty: a server that cannot keep up with the schedule ends
/// every repetition with more replies outstanding than its bounded queues
/// hold, and its "latencies" describe a backlog that would grow for as
/// long as the run lasts. That fails the run. One repetition in several
/// ending behind is a stall of the machine, which the latencies show.
fn check_backlog(workload: &str, reps: &[Rep], ops: &mut Ops) {
    let behind = reps.iter().filter(|r| r.backlogged).count();
    if 2 * behind > reps.len() {
        ops.fail(format!(
            "{workload}: {behind} of {} repetitions ended with more replies outstanding than \
             the server's queue slots: the backlog is growing",
            reps.len()
        ));
    }
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, volumes: &Volumes) -> Outcome {
    end_to_end_inner(spec, seed, seconds, volumes).unwrap_or_else(Outcome::aborted)
}

fn end_to_end_inner(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    volumes: &Volumes,
) -> Result<Outcome, String> {
    let p = Prepared::new(spec, seed, volumes)?;
    let dir = SdbDir::new(spec)?;
    p.prepare_disk(&dir)?;
    // From here on the high-water mark is the program's: set-up plus the
    // timed repetitions, on top of the (constant) input buffers.
    procfs::reset_peak_rss();

    let window = Duration::from_secs_f64(seconds / volumes.repetitions as f64);
    let mut ops = Ops::default();
    let mut setup_secs = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let live = p.setup(&dir);
        setup_secs.push(t.elapsed().as_secs_f64());
        live
    };
    // The repetitions all run on the first set-up, warmed once, so that no
    // lazy initialisation lands in a timed window. The other set-ups are
    // made and dropped between repetitions, which spreads them over the
    // run like the repetitions themselves.
    let live = timed_setup()?;
    p.main_repetition(&live, window / 8, &mut Scope::off(), &mut ops);
    let mut reps = Vec::new();
    for r in 0..volumes.repetitions {
        if r > 0 {
            drop(timed_setup()?);
        }
        reps.push(p.main_repetition(&live, window, &mut Scope::off(), &mut ops));
    }
    let peak_rss = procfs::peak_rss_mb();
    drop(live);
    check_backlog(spec.name, &reps, &mut ops);

    let mut m = Metrics::default();
    m.set_quartile("setup_s", &setup_secs, Better::Lower);
    let per_rep = |f: &dyn Fn(&Rep) -> Option<f64>| -> Vec<f64> {
        reps.iter()
            .filter_map(f)
            .filter(|v| v.is_finite())
            .collect()
    };
    m.set_quartile(
        "throughput_mbps",
        &per_rep(&|r| Some(r.throughput_mbps())),
        Better::Higher,
    );
    m.set_quartile(
        "latency_p50_us",
        &per_rep(&|r| r.percentile_us(0.50)),
        Better::Lower,
    );
    m.set_quartile(
        "latency_p99_us",
        &per_rep(&|r| r.percentile_us(0.99)),
        Better::Lower,
    );
    if let Some(mb) = peak_rss {
        m.set("peak_rss_mb", mb);
    }
    let samples: usize = reps.iter().map(|r| r.latencies_ns.len()).sum();
    println!(
        "{:14} latency samples: {samples} over {} repetitions of {:.2} s; \
         {} lanes on {} hardware threads",
        spec.name,
        reps.len(),
        window.as_secs_f64(),
        LANES,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    Ok(Outcome { metrics: m, ops })
}

/// Main-path repetitions the traced run makes with tracing off, and as
/// many with it on.
const TRACE_PAIRS: usize = 4;

/// The server-side and load-generator numbers of one serve repetition.
/// Call before anything resets the telemetry registry.
fn server_metrics(rep: &Rep, m: &mut Metrics) {
    if let Some(us) = rep.percentile_us(0.999) {
        m.set("shard.server.chunk_p999_us", us);
    }
    m.set(
        "shard.server.gen_late_share",
        rep.late_sends as f64 / rep.sends.max(1) as f64,
    );
    let mut opens = rep.open_us.clone();
    opens.sort_unstable();
    if let Some(us) = percentile_sorted(&opens, 0.5) {
        m.set("shard.server.session_open_us", us as f64);
    }
    if let Some(threads) = rep.server_threads {
        m.set("shard.server.threads", threads as f64);
    }

    // The daemon's own per-tenant histograms and counters, the same ones
    // `/statusz` and `/metrics` are rendered from.
    let snapshot = sunder_telemetry::snapshot();
    let merged = |name: &str| {
        let mut all = sunder_telemetry::Pow2Histogram::new();
        for lane in 0..LANES {
            if let Some(h) = snapshot.histogram(name, &[("tenant", &format!("s{lane}"))]) {
                all.merge(h);
            }
        }
        all
    };
    let wait = merged("serve_queue_wait_us");
    let service = merged("serve_chunk_service_us");
    m.set(
        "shard.server.queue_wait_p50_us",
        wait.quantile(0.5).unwrap_or(0.0),
    );
    m.set(
        "shard.server.service_p50_us",
        service.quantile(0.5).unwrap_or(0.0),
    );
    m.set(
        "shard.server.service_p99_us",
        service.quantile(0.99).unwrap_or(0.0),
    );
    m.set(
        "shard.server.backpressure_stalls",
        snapshot
            .counter("serve_backpressure_stalls_total", &[])
            .unwrap_or(0) as f64,
    );
}

fn scheduler_metrics(rep: &Rep, m: &mut Metrics) {
    m.set(
        "shard.scheduler.busy_share",
        rep.busy.as_secs_f64() / (rep.wall.as_secs_f64() * LANES as f64),
    );
    m.set("shard.scheduler.steals", rep.steals as f64);
}

/// The traced run: every per-layer metric, the span file, and the
/// self-time table.
pub fn per_layer(spec: &Spec, seed: u64, seconds: f64, volumes: &Volumes) -> Outcome {
    per_layer_inner(spec, seed, seconds, volumes).unwrap_or_else(Outcome::aborted)
}

fn per_layer_inner(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    volumes: &Volumes,
) -> Result<Outcome, String> {
    let p = Prepared::new(spec, seed, volumes)?;
    let dir = SdbDir::new(spec)?;
    p.prepare_disk(&dir)?;
    let live = p.setup(&dir)?;
    let mut ops = Ops::default();
    let mut m = Metrics::default();
    // Two fifths of the time for the main path — short repetitions taken
    // alternately with tracing off and on, the best of each kind compared
    // — and the rest shared out among the rungs.
    let window = Duration::from_secs_f64(seconds / 5.0 / TRACE_PAIRS as f64);
    let rung_budget = Duration::from_secs_f64(seconds / 30.0);
    let tracer = Tracer::new();
    let mut scope = tracer.scope(None);
    let run_span = scope.enter("benchmark.traced_run", Request::None);

    p.main_repetition(&live, window / 8, &mut Scope::off(), &mut ops);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    sunder_telemetry::init(sunder_telemetry::Config::metrics());
    for _ in 0..TRACE_PAIRS {
        sunder_telemetry::set_level(sunder_telemetry::Level::Off);
        untraced.push(p.main_repetition(&live, window, &mut Scope::off(), &mut ops));
        sunder_telemetry::set_level(sunder_telemetry::Level::Metrics);
        traced.push(p.main_repetition(&live, window, &mut scope, &mut ops));
    }
    // Where the rate is fixed by the schedule the main metric is the
    // median latency, elsewhere the throughput. Worse is positive.
    let best = |reps: &[Rep]| -> Option<f64> {
        let values = reps.iter().filter_map(|r| match p.spec.main {
            MainPath::ServeOpen { .. } => r.percentile_us(0.5),
            _ => Some(r.throughput_mbps().recip()),
        });
        values.min_by(f64::total_cmp)
    };
    if let Some((off, on)) = best(&untraced).zip(best(&traced)) {
        m.set("telemetry.trace_overhead_share", (on - off) / off);
    }
    check_backlog(spec.name, &traced, &mut ops);
    // The traced repetitions as one, for the layer numbers below.
    let traced = Rep::merged(traced);

    // The other path, briefly, on the oracle-checked windows — so that
    // every workload has a number for every layer.
    let windows = p.windows();
    let (pipeline, chunk_p50_us) = match &live {
        Live::Batch(pipeline) => {
            scheduler_metrics(&traced, &mut m);
            let server = serve::start_server(&p.spec, &p.nfa)?;
            let side = p.serve_repetition(&server, &windows, window / 2, &mut scope, &mut ops);
            server_metrics(&side, &mut m);
            (Arc::clone(pipeline), side.percentile_us(0.5))
        }
        Live::Serve(server) => {
            server_metrics(&traced, &mut m);
            // A memory-tier hit on the pipeline the sessions run on.
            let pipeline = server
                .cache()
                .get_or_compile(&p.nfa, p.spec.config)
                .map_err(|e| format!("pipeline from the server's cache: {e}"))?;
            let owned: Vec<Vec<u8>> = windows.iter().map(|w| w.to_vec()).collect();
            let side = p.batch_repetition(&pipeline, &owned, rung_budget, &mut scope, &mut ops);
            scheduler_metrics(&side, &mut m);
            (pipeline, traced.percentile_us(0.5))
        }
    };

    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create out/: {e}"))?;
    setup_rungs(&p.spec, &p.nfa, &out_dir(), &mut scope, &mut m)?;
    let rungs = DataRungs {
        spec: &p.spec,
        pipeline: &pipeline,
        window: windows[0],
        expected: &p.expected[0],
        budget: rung_budget,
    };
    rungs.engine_rungs(&mut scope, &mut m, &mut ops);
    let feed_chunk_us = rungs.chunk_rungs(&mut scope, &mut m, &mut ops);
    if let Some(p50) = chunk_p50_us {
        m.set("shard.server.transport_share", 1.0 - feed_chunk_us / p50);
    }
    drop(live);
    scope.exit(run_span);
    drop(scope);

    write_trace(spec.name, &tracer)?;
    Ok(Outcome { metrics: m, ops })
}

/// Writes the run's spans to `out/trace-<workload>.jsonl` and prints the
/// self-time table.
fn write_trace(workload: &str, tracer: &Tracer) -> Result<(), String> {
    let spans = tracer.spans();
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()));
    file.and_then(|f| {
        let mut out = std::io::BufWriter::new(f);
        spans::write_jsonl(&spans, &mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("write {}: {e}", path.display()))
    })?;
    println!(
        "{workload:14} {} spans written to {}",
        spans.len(),
        path.display()
    );
    println!(
        "{workload:14} {:34} {:>9} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in spans::self_times(&spans) {
        println!(
            "{workload:14} {name:34} {:>9} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(())
}
