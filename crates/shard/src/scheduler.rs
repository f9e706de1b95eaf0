//! Work-stealing multi-stream scheduler over a compiled pipeline.
//!
//! A batch is N independent input streams matched against one compiled
//! pipeline. Streams are dealt round-robin onto M per-worker queues; a
//! worker drains its own queue from the front and, when empty, steals
//! from the *back* of a victim's queue (classic deque discipline: owner
//! and thief touch opposite ends, so streams migrate in whole units and
//! the steal count measures actual imbalance).
//!
//! Each stream runs once, on one engine over the whole compiled
//! automaton, under its own panic isolation boundary and deadline: a
//! panicking stream is captured as [`JobOutcome::Panicked`] *attributed
//! to that stream* while every other stream completes normally. Fault
//! injection plugs in through [`sunder_resilience::FaultPlan`] keyed by
//! the stream index.
//!
//! Telemetry: `scheduler_steals_total{worker}` counters and
//! `scheduler_queue_depth{worker}` gauges (sampled at each dequeue).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sunder_artifact::CompiledPipeline;
use sunder_automata::input::InputView;
use sunder_resilience::{corrupt, panic_message, Budget, FaultKind, FaultPlan, JobOutcome};
use sunder_sim::{ReportEvent, RunOutcome, TraceSink};

/// Default [`BatchOptions::serial_cutoff`]: batches whose total input is
/// smaller than this run on one worker no matter how many were asked
/// for.
///
/// Spawning a scoped helper thread costs on the order of tens of
/// microseconds of context switching; after the single-stream fast path
/// an engine chews through input at GB/s, so a batch this small is
/// *finished* in roughly the time fan-out spends starting threads.
/// Below the cutoff, parallelism can only lose — on any host — and the
/// scheduler runs the batch inline instead.
pub const SERIAL_CUTOFF_BYTES: usize = 256 * 1024;

/// Scheduling options for one batch.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads (0 is treated as 1).
    pub workers: usize,
    /// Injected faults, keyed by stream index.
    pub plan: FaultPlan,
    /// Per-stream wall-clock deadline.
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

/// One stream's result within a batch.
#[derive(Debug)]
pub struct StreamResult {
    /// Stream index in submission order.
    pub stream: usize,
    /// Worker that executed the stream.
    pub worker: usize,
    /// `true` when the stream was stolen from another worker's queue.
    pub stolen: bool,
    /// What happened to the stream's one run.
    pub outcome: JobOutcome<()>,
    /// The stream's report trace (transformed-automaton coordinates) —
    /// `Some` exactly when the run completed.
    pub merged: Option<Vec<ReportEvent>>,
    /// Shards in the pipeline's placement plan.
    shards: usize,
    /// Busy time of the run.
    pub elapsed: Duration,
}

impl StreamResult {
    /// `true` when the run completed and produced a trace.
    pub fn ok(&self) -> bool {
        self.merged.is_some()
    }

    /// The shards that did not complete, with their outcome status. One
    /// run covers every shard, so a failed stream lists them all.
    pub fn failed_shards(&self) -> Vec<(usize, &'static str)> {
        if self.ok() {
            return Vec::new();
        }
        (0..self.shards)
            .map(|shard| (shard, self.outcome.status()))
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
    /// Shards in the pipeline's placement plan.
    pub shards: usize,
    /// Streams executed off a victim's queue.
    pub steals: u64,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
}

impl BatchReport {
    /// Streams whose run completed.
    pub fn ok_count(&self) -> usize {
        self.streams.iter().filter(|s| s.ok()).count()
    }

    /// Total busy time across all streams (the sequential-cost model).
    pub fn busy(&self) -> Duration {
        self.streams.iter().map(|s| s.elapsed).sum()
    }
}

/// Runs one whole stream on one engine under panic isolation, its
/// deadline and its injected faults.
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
    let mut input = std::borrow::Cow::Borrowed(bytes);
    let mut transient: Option<u32> = None;
    let mut inject_panic = false;
    for fault in opts.plan.faults_for(stream_idx) {
        match fault {
            FaultKind::Stall { millis } => std::thread::sleep(Duration::from_millis(*millis)),
            FaultKind::CorruptInput { seed } => corrupt(input.to_mut(), *seed),
            FaultKind::TransientError { failures } => transient = Some(*failures),
            FaultKind::Panic => inject_panic = true,
            // Engine- and cycle-model-level faults have no hook here.
            _ => {}
        }
    }
    let budget = match opts.deadline {
        Some(d) => Budget::with_deadline(d),
        None => Budget::unlimited(),
    };

    let result = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected panic (stream {stream_idx})");
        }
        if let Some(failures) = transient.filter(|&f| f > 0) {
            // The scheduler runs each stream exactly once — a transient
            // fault therefore surfaces as a hard failure.
            return Err(format!(
                "injected transient fault ({failures} failures requested)"
            ));
        }
        let sharded = &pipeline.sharded;
        let view = InputView::new(&input, sharded.symbol_bits(), sharded.stride())
            .map_err(|e| format!("input framing: {e}"))?;
        let mut trace = TraceSink::new();
        let outcome = sharded.run_budgeted(&view, &mut trace, &budget);
        Ok((trace.events, outcome))
    }));

    let elapsed = start.elapsed();
    let (outcome, merged) = match result {
        Ok(Ok((events, RunOutcome::Completed))) => (JobOutcome::Ok(()), Some(events)),
        Ok(Ok((_, RunOutcome::Interrupted { .. }))) => (JobOutcome::TimedOut { elapsed }, None),
        Ok(Err(error)) => (JobOutcome::Failed { error }, None),
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            sunder_telemetry::counter_add("scheduler_stream_panics_total", &[], 1);
            (JobOutcome::Panicked { message }, None)
        }
    };
    StreamResult {
        stream: stream_idx,
        worker,
        stolen,
        outcome,
        merged,
        shards: pipeline.num_shards(),
        elapsed,
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
/// victim's back.
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

    /// Every shard of a failed stream, each with `status`.
    fn all_shards(p: &CompiledPipeline, status: &'static str) -> Vec<(usize, &'static str)> {
        (0..p.num_shards()).map(|shard| (shard, status)).collect()
    }

    #[test]
    fn panicking_stream_is_attributed_and_isolated() {
        let p = pipeline(PipelineConfig::Identity, 4);
        assert!(p.num_shards() >= 2);
        let inputs = streams(6);
        // Stream 2 panics; everything else must be clean.
        let opts = BatchOptions {
            workers: 3,
            plan: FaultPlan::new(
                7,
                vec![Fault {
                    item: 2,
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
        assert_eq!(victim.failed_shards(), all_shards(&p, "panicked"));
        match &victim.outcome {
            JobOutcome::Panicked { message } => {
                assert!(message.contains("stream 2"), "{message}");
            }
            other => panic!("expected panic, got {}", other.status()),
        }
        for (c, f) in clean.streams.iter().zip(&faulty.streams) {
            if f.stream != 2 {
                assert_eq!(c.merged, f.merged, "surviving stream {}", f.stream);
                assert!(crate::verify_stream(&p, f, &inputs[f.stream]).unwrap());
            }
        }
    }

    #[test]
    fn stall_and_transient_faults_are_observable() {
        let p = pipeline(PipelineConfig::Identity, 2);
        let inputs = streams(2);
        let opts = BatchOptions {
            workers: 1,
            plan: FaultPlan::new(
                1,
                vec![
                    Fault {
                        item: 0,
                        kind: FaultKind::TransientError { failures: 2 },
                    },
                    Fault {
                        item: 1,
                        kind: FaultKind::Stall { millis: 5 },
                    },
                ],
            ),
            ..BatchOptions::default()
        };
        let report = run_batch(&p, &inputs, &opts);
        assert_eq!(report.streams[0].failed_shards(), all_shards(&p, "failed"));
        assert!(report.streams[1].ok());
        assert!(crate::verify_stream(&p, &report.streams[1], &inputs[1]).unwrap());
        assert!(report.streams[1].elapsed >= Duration::from_millis(5));
    }

    #[test]
    fn corrupt_input_is_confined_to_the_faulted_stream() {
        let p = pipeline(PipelineConfig::Identity, 4);
        let inputs = streams(2);
        let opts = BatchOptions {
            workers: 1,
            plan: FaultPlan::new(
                3,
                vec![Fault {
                    item: 1,
                    kind: FaultKind::CorruptInput { seed: 99 },
                }],
            ),
            ..BatchOptions::default()
        };
        let clean = run_batch(&p, &inputs, &BatchOptions::with_workers(1));
        let faulty = run_batch(&p, &inputs, &opts);
        // Stream 0 sees pristine bytes; stream 1 runs to completion on
        // exactly the corrupted copy of its own bytes.
        assert_eq!(clean.streams[0].merged, faulty.streams[0].merged);
        let mut corrupted = inputs[1].clone();
        corrupt(&mut corrupted, 99);
        assert_ne!(corrupted, inputs[1]);
        let expected = crate::monolithic_trace(&p, p.engine, &corrupted).unwrap();
        assert_eq!(faulty.streams[1].merged.as_ref(), Some(&expected));
    }

    #[test]
    fn small_batches_collapse_to_one_worker() {
        let p = pipeline(PipelineConfig::Identity, 2);
        let inputs = streams(5); // a few hundred bytes, far below the cutoff
        let report = run_batch(&p, &inputs, &BatchOptions::with_workers(4));
        assert_eq!(report.workers, 1, "tiny batch must not fan out");
        assert_eq!(report.steals, 0);

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
