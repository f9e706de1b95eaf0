//! Work-stealing multi-stream scheduler over a compiled pipeline.
//!
//! A batch is N independent input streams matched against one compiled
//! pipeline. Streams are dealt round-robin onto M per-worker queues; a
//! worker drains its own queue from the front and, when empty, steals
//! from the *back* of a victim's queue (classic deque discipline: owner
//! and thief touch opposite ends, so streams migrate in whole units and
//! the steal count measures actual imbalance).
//!
//! Within a stream, each shard executes under its own panic isolation
//! boundary: a panicking shard is captured as
//! [`JobOutcome::Panicked`] *attributed to that shard* while every other
//! shard — and every other stream — completes normally. Fault injection
//! plugs in through [`sunder_resilience::FaultPlan`] with the flat item
//! index `stream × num_shards + shard`.
//!
//! Telemetry: `scheduler_steals_total{worker}` counters,
//! `scheduler_queue_depth{worker}` gauges (sampled at each dequeue), and
//! the per-shard `shard_symbols_total` counters from
//! [`ShardedEngine::run_shard`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sunder_artifact::CompiledPipeline;
use sunder_automata::input::InputView;
use sunder_resilience::{corrupt, panic_message, Budget, FaultKind, FaultPlan, JobOutcome};
use sunder_sim::{ReportEvent, RunOutcome, ShardedEngine};

/// Default [`BatchOptions::serial_cutoff`]: batches whose total input is
/// smaller than this run on one worker no matter how many were asked
/// for.
///
/// Waking a parked helper (or spawning a scoped thread) costs on the
/// order of tens of microseconds of context switching; after the
/// single-stream fast path an engine chews through input at GB/s, so a
/// batch this small is *finished* in roughly the time fan-out spends
/// waking threads. Below the cutoff, parallelism can only lose — on any
/// host — and the scheduler runs the batch inline instead.
pub const SERIAL_CUTOFF_BYTES: usize = 256 * 1024;

/// Scheduling options for one batch.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads (0 is treated as 1).
    pub workers: usize,
    /// Injected faults, keyed by `stream × num_shards + shard`.
    pub plan: FaultPlan,
    /// Per-shard wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Batches with fewer total input bytes than this run on a single
    /// worker regardless of [`workers`](Self::workers). Defaults to
    /// [`SERIAL_CUTOFF_BYTES`]; `0` disables the cutoff.
    pub serial_cutoff: usize,
}

impl Default for BatchOptions {
    fn default() -> BatchOptions {
        BatchOptions {
            workers: 0,
            plan: FaultPlan::default(),
            deadline: None,
            serial_cutoff: SERIAL_CUTOFF_BYTES,
        }
    }
}

impl BatchOptions {
    /// Options running `workers` threads with no faults or deadline.
    pub fn with_workers(workers: usize) -> BatchOptions {
        BatchOptions {
            workers,
            ..BatchOptions::default()
        }
    }

    /// Disables the small-batch serial cutoff, forcing the requested
    /// worker count even on tiny batches. Meant for tests that exercise
    /// the parallel scheduler on deliberately small inputs.
    #[must_use]
    pub fn without_serial_cutoff(mut self) -> BatchOptions {
        self.serial_cutoff = 0;
        self
    }
}

/// Worker count a batch actually runs with: the request, clamped to the
/// stream count, collapsed to 1 when the whole batch is smaller than the
/// serial cutoff.
fn effective_workers(opts: &BatchOptions, streams: &[Vec<u8>]) -> usize {
    let requested = opts.workers.max(1).min(streams.len().max(1));
    if requested > 1 && opts.serial_cutoff > 0 {
        let total: usize = streams.iter().map(Vec::len).sum();
        if total < opts.serial_cutoff {
            return 1;
        }
    }
    requested
}

/// One shard's execution within one stream.
#[derive(Debug)]
pub struct ShardRun {
    /// Shard index within the pipeline's plan.
    pub shard: usize,
    /// What happened; `Ok` carries the shard's report events remapped to
    /// the transformed automaton's state ids.
    pub outcome: JobOutcome<Vec<ReportEvent>>,
    /// Busy time this shard consumed.
    pub elapsed: Duration,
}

/// One stream's result within a batch.
#[derive(Debug)]
pub struct StreamResult {
    /// Stream index in submission order.
    pub stream: usize,
    /// Worker that executed the stream.
    pub worker: usize,
    /// `true` when the stream was stolen from another worker's queue.
    pub stolen: bool,
    /// Per-shard outcomes, in shard order.
    pub shard_runs: Vec<ShardRun>,
    /// The merged, position-stable report trace (transformed-automaton
    /// coordinates) — `Some` only when *every* shard completed.
    pub merged: Option<Vec<ReportEvent>>,
    /// Busy time across all shards plus the merge.
    pub elapsed: Duration,
}

impl StreamResult {
    /// `true` when every shard completed and the merge was produced.
    pub fn ok(&self) -> bool {
        self.merged.is_some()
    }

    /// The shards that did not complete, with their outcome status.
    pub fn failed_shards(&self) -> Vec<(usize, &'static str)> {
        self.shard_runs
            .iter()
            .filter(|r| r.outcome.value().is_none())
            .map(|r| (r.shard, r.outcome.status()))
            .collect()
    }
}

/// Everything one batch produced.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-stream results, indexed by stream.
    pub streams: Vec<StreamResult>,
    /// Worker threads used.
    pub workers: usize,
    /// Shards per stream.
    pub shards: usize,
    /// Streams executed off a victim's queue.
    pub steals: u64,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
}

impl BatchReport {
    /// Streams whose merge completed.
    pub fn ok_count(&self) -> usize {
        self.streams.iter().filter(|s| s.ok()).count()
    }

    /// Total busy time across all streams (the sequential-cost model).
    pub fn busy(&self) -> Duration {
        self.streams.iter().map(|s| s.elapsed).sum()
    }
}

/// Executes one shard of one stream under panic isolation and fault
/// injection.
///
/// `shared_view` is the stream's input, framed once by [`run_stream`];
/// only a shard whose faults corrupt the bytes re-frames privately.
fn run_shard_isolated(
    sharded: &ShardedEngine,
    shard: usize,
    stream_idx: usize,
    bytes: &[u8],
    shared_view: &Result<InputView, String>,
    faults: &[FaultKind],
    deadline: Option<Duration>,
) -> ShardRun {
    let start = Instant::now();
    let mut input = std::borrow::Cow::Borrowed(bytes);
    let mut transient: Option<u32> = None;
    for fault in faults {
        match fault {
            FaultKind::Stall { millis } => std::thread::sleep(Duration::from_millis(*millis)),
            FaultKind::CorruptInput { seed } => corrupt(input.to_mut(), *seed),
            FaultKind::TransientError { failures } => transient = Some(*failures),
            // Panic is raised inside the isolation boundary below;
            // engine- and cycle-model-level faults have no hook here.
            _ => {}
        }
    }
    let inject_panic = faults.iter().any(|f| matches!(f, FaultKind::Panic));
    let budget = match deadline {
        Some(d) => Budget::with_deadline(d),
        None => Budget::unlimited(),
    };

    let result = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected panic (stream {stream_idx}, shard {shard})");
        }
        if let Some(failures) = transient {
            if failures > 0 {
                // The scheduler runs each shard exactly once — a
                // transient fault therefore surfaces as a hard failure.
                return Err(format!(
                    "injected transient fault ({failures} failures requested)"
                ));
            }
        }
        match &input {
            std::borrow::Cow::Borrowed(_) => {
                let view = shared_view.as_ref().map_err(String::clone)?;
                Ok(sharded.run_shard(shard, view, &budget))
            }
            // Corrupted bytes diverge from the shared framing; build a
            // private view so the fault stays confined to this shard.
            std::borrow::Cow::Owned(corrupted) => {
                let view = InputView::new(corrupted, sharded.symbol_bits(), sharded.stride())
                    .map_err(|e| format!("input framing: {e}"))?;
                Ok(sharded.run_shard(shard, &view, &budget))
            }
        }
    }));

    let elapsed = start.elapsed();
    let outcome = match result {
        Ok(Ok((events, RunOutcome::Completed))) => JobOutcome::Ok(events),
        Ok(Ok((_, RunOutcome::Interrupted { .. }))) => JobOutcome::TimedOut { elapsed },
        Ok(Err(error)) => JobOutcome::Failed { error },
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            sunder_telemetry::counter_add("scheduler_shard_panics_total", &[], 1);
            JobOutcome::Panicked { message }
        }
    };
    ShardRun {
        shard,
        outcome,
        elapsed,
    }
}

/// Runs one whole stream: every shard isolated, then the merge.
fn run_stream(
    pipeline: &CompiledPipeline,
    stream_idx: usize,
    bytes: &[u8],
    opts: &BatchOptions,
    worker: usize,
    stolen: bool,
) -> StreamResult {
    let start = Instant::now();
    let _job = sunder_telemetry::span("scheduler.job")
        .field("stream", stream_idx as u64)
        .field("worker", worker as u64)
        .field("stolen", u64::from(stolen));
    let num_shards = pipeline.num_shards();
    // Frame the symbols once per stream, not once per shard: every shard
    // reads the same view, so re-unpacking per shard is pure overhead.
    let shared_view = InputView::new(
        bytes,
        pipeline.sharded.symbol_bits(),
        pipeline.sharded.stride(),
    )
    .map_err(|e| format!("input framing: {e}"));
    let plan_empty = opts.plan.is_empty();
    let mut shard_runs = Vec::with_capacity(num_shards);
    for shard in 0..num_shards {
        let flat = stream_idx * num_shards + shard;
        // `Vec::new()` does not allocate: the common fault-free batch
        // stays allocation-free here.
        let faults: Vec<FaultKind> = if plan_empty {
            Vec::new()
        } else {
            opts.plan.faults_for(flat).cloned().collect()
        };
        shard_runs.push(run_shard_isolated(
            &pipeline.sharded,
            shard,
            stream_idx,
            bytes,
            &shared_view,
            &faults,
            opts.deadline,
        ));
    }
    let merged = if shard_runs.iter().all(|r| r.outcome.value().is_some()) {
        let traces: Vec<Vec<ReportEvent>> = shard_runs
            .iter()
            .map(|r| r.outcome.value().cloned().unwrap_or_default())
            .collect();
        Some(ShardedEngine::merge(traces))
    } else {
        None
    };
    StreamResult {
        stream: stream_idx,
        worker,
        stolen,
        shard_runs,
        merged,
        elapsed: start.elapsed(),
    }
}

/// Round-robin deal of `streams` stream indices onto `workers` queues
/// (stream `i` goes to worker `i mod workers`).
fn deal_queues(streams: usize, workers: usize) -> Vec<Mutex<VecDeque<usize>>> {
    (0..workers)
        .map(|w| Mutex::new((w..streams).step_by(workers).collect()))
        .collect()
}

/// One worker's drain loop: own queue first (front), then steal from a
/// victim's back. Shared verbatim by the scoped-thread and pooled paths
/// so both schedules stay observably identical.
#[allow(clippy::too_many_arguments)]
fn drain_worker(
    w: usize,
    workers: usize,
    pipeline: &CompiledPipeline,
    streams: &[Vec<u8>],
    opts: &BatchOptions,
    queues: &[Mutex<VecDeque<usize>>],
    steals: &AtomicU64,
    results: &[Mutex<Option<StreamResult>>],
) {
    // Intern the per-worker label handles once: each record below is an
    // atomic on a pre-resolved cell, not a string allocation plus a
    // registry lookup under the global lock.
    let labels_value = w.to_string();
    let labels: [(&'static str, &str); 1] = [("worker", labels_value.as_str())];
    let depth_gauge = sunder_telemetry::gauge_handle("scheduler_queue_depth", &labels);
    let steals_total = sunder_telemetry::counter_handle("scheduler_steals_total", &labels);
    loop {
        let mut claimed: Option<(usize, bool)> = None;
        {
            let mut own = queues[w].lock().unwrap();
            if let Some(s) = own.pop_front() {
                claimed = Some((s, false));
            }
            depth_gauge.set(own.len() as f64);
        }
        if claimed.is_none() {
            for step in 1..workers {
                let victim = (w + step) % workers;
                if let Some(s) = queues[victim].lock().unwrap().pop_back() {
                    steals.fetch_add(1, Ordering::Relaxed);
                    steals_total.add(1);
                    claimed = Some((s, true));
                    break;
                }
            }
        }
        let Some((stream_idx, stolen)) = claimed else {
            break;
        };
        let result = run_stream(pipeline, stream_idx, &streams[stream_idx], opts, w, stolen);
        *results[stream_idx].lock().unwrap() = Some(result);
    }
}

/// Drains the filled result slots into submission order.
fn collect_results(results: &[Mutex<Option<StreamResult>>]) -> Vec<StreamResult> {
    results
        .iter()
        .map(|slot| {
            slot.lock()
                .unwrap()
                .take()
                .expect("every queued stream must have been executed")
        })
        .collect()
}

/// Runs `streams` against `pipeline` across `opts.workers` work-stealing
/// worker threads. Results come back indexed by stream, so the report is
/// deterministic for any worker count (modulo the `worker`/`stolen`
/// bookkeeping fields, which record the actual schedule).
pub fn run_batch(
    pipeline: &CompiledPipeline,
    streams: &[Vec<u8>],
    opts: &BatchOptions,
) -> BatchReport {
    let started = Instant::now();
    let workers = effective_workers(opts, streams);
    let queues = deal_queues(streams.len(), workers);
    let steals = AtomicU64::new(0);
    let results: Vec<Mutex<Option<StreamResult>>> =
        streams.iter().map(|_| Mutex::new(None)).collect();

    // The caller is worker 0; only the other `workers - 1` are spawned.
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|w| {
                let (queues, steals, results) = (&queues, &steals, &results);
                scope.spawn(move || {
                    drain_worker(w, workers, pipeline, streams, opts, queues, steals, results);
                })
            })
            .collect();
        drain_worker(
            0, workers, pipeline, streams, opts, &queues, &steals, &results,
        );
        // Join each helper explicitly: the scope's implicit join returns
        // once the closures finish, before the threads have exited and
        // handed their malloc arenas and stacks back. The next batch's
        // helpers would then race those exits and sometimes get fresh
        // arenas, each of which keeps its freed input views resident.
        for helper in helpers {
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    BatchReport {
        streams: collect_results(&results),
        workers,
        shards: pipeline.num_shards(),
        steals: steals.load(Ordering::Relaxed),
        wall: started.elapsed(),
    }
}

/// One published batch: everything a pool helper needs, behind `Arc` so
/// helpers outlive the caller's stack frame without borrowing it.
#[derive(Debug)]
struct PoolJob {
    pipeline: Arc<CompiledPipeline>,
    streams: Arc<Vec<Vec<u8>>>,
    opts: BatchOptions,
    workers: usize,
    queues: Vec<Mutex<VecDeque<usize>>>,
    steals: AtomicU64,
    results: Vec<Mutex<Option<StreamResult>>>,
}

#[derive(Debug)]
struct PoolState {
    /// Bumped once per published batch; helpers run a job at most once.
    epoch: u64,
    job: Option<Arc<PoolJob>>,
    /// Helpers currently draining the published job.
    active: usize,
    shutdown: bool,
}

#[derive(Debug)]
struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

/// A persistent team of helper threads for [`run_batch_pooled`].
///
/// `run_batch` spawns and joins `workers - 1` threads per batch; at
/// multi-stream service rates that spawn/join tax dominates short
/// batches. The pool keeps helpers parked on a condvar instead: a batch
/// is published as an epoch bump, the caller participates as worker 0,
/// and helpers go back to sleep when the queues drain. Batches are
/// serialized — the pool runs one at a time.
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Serializes concurrent `run_batch_pooled` callers.
    batch: Mutex<()>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `helpers` parked helper threads (worker indices `1..=helpers`;
    /// the submitting thread is always worker 0).
    pub fn new(helpers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let threads = (0..helpers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || pool_helper(&shared, i + 1))
            })
            .collect();
        WorkerPool {
            shared,
            batch: Mutex::new(()),
            threads,
        }
    }

    /// Helper threads in the pool (max workers per batch is this + 1).
    pub fn helpers(&self) -> usize {
        self.threads.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Helper thread body: wait for an epoch bump, join the drain as worker
/// `index`, report completion, park again.
fn pool_helper(shared: &PoolShared, index: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    // A batch may want fewer workers than the pool has;
                    // surplus helpers skip this epoch entirely.
                    let claimed = match &st.job {
                        Some(job) if index < job.workers => Some(Arc::clone(job)),
                        _ => None,
                    };
                    if claimed.is_some() {
                        st.active += 1;
                    }
                    break claimed;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        let Some(job) = job else { continue };
        drain_worker(
            index,
            job.workers,
            &job.pipeline,
            &job.streams,
            &job.opts,
            &job.queues,
            &job.steals,
            &job.results,
        );
        let mut st = shared.state.lock().unwrap();
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// [`run_batch`] over a persistent [`WorkerPool`]: identical scheduling
/// discipline and an identical report, but no thread spawn/join per
/// batch. The calling thread always participates as worker 0; at most
/// `pool.helpers()` helpers join it.
pub fn run_batch_pooled(
    pool: &WorkerPool,
    pipeline: &Arc<CompiledPipeline>,
    streams: &Arc<Vec<Vec<u8>>>,
    opts: &BatchOptions,
) -> BatchReport {
    let _serial = pool.batch.lock().unwrap();
    let started = Instant::now();
    let workers = effective_workers(opts, streams).min(pool.helpers() + 1);
    let job = Arc::new(PoolJob {
        pipeline: Arc::clone(pipeline),
        streams: Arc::clone(streams),
        opts: opts.clone(),
        workers,
        queues: deal_queues(streams.len(), workers),
        steals: AtomicU64::new(0),
        results: streams.iter().map(|_| Mutex::new(None)).collect(),
    });
    if workers > 1 {
        let mut st = pool.shared.state.lock().unwrap();
        st.epoch += 1;
        st.job = Some(Arc::clone(&job));
        drop(st);
        pool.shared.work.notify_all();
    }
    drain_worker(
        0,
        workers,
        &job.pipeline,
        &job.streams,
        &job.opts,
        &job.queues,
        &job.steals,
        &job.results,
    );
    if workers > 1 {
        let mut st = pool.shared.state.lock().unwrap();
        while st.active > 0 {
            st = pool.shared.done.wait(st).unwrap();
        }
        // Unpublish so a helper waking late (next epoch) can't rerun it.
        st.job = None;
    }
    BatchReport {
        streams: collect_results(&job.results),
        workers,
        shards: job.pipeline.num_shards(),
        steals: job.steals.load(Ordering::Relaxed),
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::partition::ShardSpec;
    use sunder_automata::regex::compile_rule_set;
    use sunder_resilience::Fault;
    use sunder_sim::EngineKind;
    use sunder_transform::PipelineConfig;

    fn pipeline(config: PipelineConfig, shards: usize) -> CompiledPipeline {
        let nfa = compile_rule_set(&["ab+c", ".*net", "[0-9]{3}", "xy"]).unwrap();
        CompiledPipeline::compile(
            &nfa,
            config,
            ShardSpec::MaxShards(shards),
            EngineKind::Adaptive,
        )
        .unwrap()
    }

    fn streams(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("s{i} ab{}c 123net xy {i}", "b".repeat(i % 5)).into_bytes())
            .collect()
    }

    #[test]
    fn batch_results_are_schedule_independent() {
        let p = pipeline(PipelineConfig::Identity, 3);
        let inputs = streams(9);
        let one = run_batch(&p, &inputs, &BatchOptions::with_workers(1));
        let four = run_batch(
            &p,
            &inputs,
            &BatchOptions::with_workers(4).without_serial_cutoff(),
        );
        assert_eq!(one.ok_count(), 9);
        assert_eq!(four.ok_count(), 9);
        for (a, b) in one.streams.iter().zip(&four.streams) {
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.merged, b.merged, "stream {}", a.stream);
        }
    }

    #[test]
    fn merged_matches_monolithic_per_stream() {
        use sunder_automata::input::InputView;
        use sunder_sim::TraceSink;
        let p = pipeline(PipelineConfig::Stride2, 4);
        let inputs = streams(4);
        let report = run_batch(
            &p,
            &inputs,
            &BatchOptions::with_workers(2).without_serial_cutoff(),
        );
        for s in &report.streams {
            let view =
                InputView::new(&inputs[s.stream], p.nfa.symbol_bits(), p.nfa.stride()).unwrap();
            let mut engine = EngineKind::Adaptive.build(&p.nfa);
            let mut trace = TraceSink::new();
            engine.run(&view, &mut trace);
            assert_eq!(
                s.merged.as_ref().unwrap(),
                &trace.events,
                "stream {}",
                s.stream
            );
        }
    }

    #[test]
    fn panicking_shard_is_attributed_and_isolated() {
        let p = pipeline(PipelineConfig::Identity, 4);
        let shards = p.num_shards();
        assert!(shards >= 2);
        let inputs = streams(6);
        // Stream 2, shard 1 panics; everything else must be clean.
        let victim_flat = 2 * shards + 1;
        let opts = BatchOptions {
            workers: 3,
            plan: FaultPlan::new(
                7,
                vec![Fault {
                    item: victim_flat,
                    kind: FaultKind::Panic,
                }],
            ),
            deadline: None,
            serial_cutoff: 0,
        };
        let clean = run_batch(
            &p,
            &inputs,
            &BatchOptions::with_workers(3).without_serial_cutoff(),
        );
        let faulty = run_batch(&p, &inputs, &opts);
        let victim = &faulty.streams[2];
        assert!(!victim.ok());
        assert_eq!(victim.failed_shards(), vec![(1, "panicked")]);
        match &victim.shard_runs[1].outcome {
            JobOutcome::Panicked { message } => {
                assert!(message.contains("stream 2, shard 1"), "{message}");
            }
            other => panic!("expected panic, got {}", other.status()),
        }
        for (c, f) in clean.streams.iter().zip(&faulty.streams) {
            if f.stream != 2 {
                assert_eq!(c.merged, f.merged, "surviving stream {}", f.stream);
            }
        }
    }

    #[test]
    fn stall_and_transient_faults_are_observable() {
        let p = pipeline(PipelineConfig::Identity, 2);
        let inputs = streams(2);
        let shards = p.num_shards();
        let opts = BatchOptions {
            workers: 1,
            plan: FaultPlan::new(
                1,
                vec![
                    Fault {
                        item: 0, // stream 0, shard 0
                        kind: FaultKind::TransientError { failures: 2 },
                    },
                    Fault {
                        item: shards, // stream 1, shard 0
                        kind: FaultKind::Stall { millis: 5 },
                    },
                ],
            ),
            ..BatchOptions::default()
        };
        let report = run_batch(&p, &inputs, &opts);
        assert_eq!(report.streams[0].failed_shards(), vec![(0, "failed")]);
        assert!(report.streams[1].ok());
        assert!(report.streams[1].shard_runs[0].elapsed >= Duration::from_millis(5));
    }

    #[test]
    fn pooled_batches_match_scoped_batches() {
        let p = Arc::new(pipeline(PipelineConfig::Identity, 3));
        let inputs = Arc::new(streams(9));
        let pool = WorkerPool::new(3);
        let opts = BatchOptions::with_workers(4).without_serial_cutoff();
        let scoped = run_batch(&p, &inputs, &opts);
        for round in 0..3 {
            let pooled = run_batch_pooled(&pool, &p, &inputs, &opts);
            assert_eq!(pooled.workers, 4, "round {round}");
            assert_eq!(pooled.ok_count(), 9, "round {round}");
            for (a, b) in scoped.streams.iter().zip(&pooled.streams) {
                assert_eq!(a.stream, b.stream);
                assert_eq!(a.merged, b.merged, "round {round} stream {}", a.stream);
            }
        }
    }

    #[test]
    fn pool_caps_workers_and_isolates_panics() {
        let p = Arc::new(pipeline(PipelineConfig::Identity, 4));
        let shards = p.num_shards();
        let inputs = Arc::new(streams(6));
        let pool = WorkerPool::new(1); // at most 2 workers, whatever is asked
        let opts = BatchOptions {
            workers: 8,
            plan: FaultPlan::new(
                7,
                vec![Fault {
                    item: shards + 2, // stream 1, shard 2
                    kind: FaultKind::Panic,
                }],
            ),
            deadline: None,
            serial_cutoff: 0,
        };
        let report = run_batch_pooled(&pool, &p, &inputs, &opts);
        assert_eq!(report.workers, 2);
        assert_eq!(report.ok_count(), 5);
        assert_eq!(report.streams[1].failed_shards(), vec![(2, "panicked")]);
    }

    #[test]
    fn corrupt_input_is_confined_to_the_faulted_shard() {
        let p = pipeline(PipelineConfig::Identity, 4);
        let shards = p.num_shards();
        assert!(shards >= 2);
        let inputs = streams(2);
        let opts = BatchOptions {
            workers: 1,
            plan: FaultPlan::new(
                3,
                vec![Fault {
                    item: shards, // stream 1, shard 0
                    kind: FaultKind::CorruptInput { seed: 99 },
                }],
            ),
            ..BatchOptions::default()
        };
        let clean = run_batch(&p, &inputs, &BatchOptions::with_workers(1));
        let faulty = run_batch(&p, &inputs, &opts);
        // Stream 0 and the unfaulted shards of stream 1 see pristine bytes.
        assert_eq!(clean.streams[0].merged, faulty.streams[0].merged);
        for shard in 1..shards {
            let c = clean.streams[1].shard_runs[shard].outcome.value();
            let f = faulty.streams[1].shard_runs[shard].outcome.value();
            assert_eq!(c, f, "shard {shard} must be unaffected");
        }
    }

    #[test]
    fn small_batches_collapse_to_one_worker() {
        let p = pipeline(PipelineConfig::Identity, 2);
        let inputs = streams(5); // a few hundred bytes, far below the cutoff
        let report = run_batch(&p, &inputs, &BatchOptions::with_workers(4));
        assert_eq!(report.workers, 1, "tiny batch must not fan out");
        assert_eq!(report.steals, 0);

        let pool = WorkerPool::new(3);
        let pooled = run_batch_pooled(
            &pool,
            &Arc::new(pipeline(PipelineConfig::Identity, 2)),
            &Arc::new(inputs.clone()),
            &BatchOptions::with_workers(4),
        );
        assert_eq!(pooled.workers, 1, "pooled tiny batch must not fan out");

        // The cutoff is a scheduling decision only: results match a
        // forced-parallel run byte for byte.
        let forced = run_batch(
            &p,
            &inputs,
            &BatchOptions::with_workers(4).without_serial_cutoff(),
        );
        assert_eq!(forced.workers, 4);
        for (a, b) in report.streams.iter().zip(&forced.streams) {
            assert_eq!(a.merged, b.merged, "stream {}", a.stream);
        }
    }

    #[test]
    fn single_worker_never_steals_and_empty_batch_is_fine() {
        let p = pipeline(PipelineConfig::Identity, 2);
        let report = run_batch(&p, &streams(5), &BatchOptions::with_workers(1));
        assert_eq!(report.steals, 0);
        assert_eq!(report.workers, 1);
        let empty = run_batch(&p, &[], &BatchOptions::with_workers(4));
        assert!(empty.streams.is_empty());
    }
}
