//! Multi-stream batches over a compiled pipeline.
//!
//! A batch is N independent input streams matched against one compiled
//! pipeline. [`run_batch`] hands them to [`sunder_resilience::supervise`],
//! the workspace's one worker pool: workers claim streams in order from
//! a shared counter, and results merge by stream index, so a batch's
//! traces are the same for any worker count.
//!
//! Each stream runs once, on one engine over the whole compiled
//! automaton, under its own panic isolation boundary and deadline: a
//! panicking stream is captured as [`JobOutcome::Panicked`] *attributed
//! to that stream* while every other stream completes normally. Fault
//! injection plugs in through [`sunder_resilience::FaultPlan`] keyed by
//! the stream index.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use sunder_artifact::CompiledPipeline;
use sunder_automata::input::InputView;
use sunder_resilience::{
    corrupt, supervise, FaultPlan, JobContext, JobError, JobOutcome, JobValue, SupervisorPolicy,
};
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
    /// Always 0: the batch runs on the supervisor's shared work counter,
    /// which has no queues to steal from. Kept because the benchmark
    /// (`benchmark/src/batch.rs`) still reads it.
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

/// Runs one whole stream on one engine: acts out the stream's faults,
/// frames its input and runs it under the attempt's budget.
fn run_stream(
    pipeline: &CompiledPipeline,
    stream_idx: usize,
    bytes: &[u8],
    plan: &FaultPlan,
    ctx: &JobContext,
) -> Result<JobValue<Vec<ReportEvent>>, JobError> {
    let faults = plan.job_faults(stream_idx);
    faults.act_out(ctx.attempt, format_args!("stream {stream_idx}"))?;
    let mut input = Cow::Borrowed(bytes);
    if let Some(seed) = faults.corrupt_seed {
        corrupt(input.to_mut(), seed);
    }
    let sharded = &pipeline.sharded;
    let view = InputView::new(&input, sharded.symbol_bits(), sharded.stride())
        .map_err(|e| JobError::Fatal(format!("input framing: {e}")))?;
    let mut trace = TraceSink::new();
    match sharded.run_budgeted(&view, &mut trace, &ctx.budget) {
        RunOutcome::Completed => Ok(JobValue::Ok(trace.events)),
        RunOutcome::Interrupted { .. } => Err(JobError::TimedOut),
    }
}

/// Runs `streams` against `pipeline` on `opts.workers` workers through
/// [`supervise`]. Each stream runs exactly once (a transient fault is a
/// failure, not a retry), and results come back indexed by stream, so
/// the report is deterministic for any worker count.
pub fn run_batch(
    pipeline: &CompiledPipeline,
    streams: &[Vec<u8>],
    opts: &BatchOptions,
) -> BatchReport {
    let started = Instant::now();
    let workers = effective_workers(opts, streams);
    let policy = SupervisorPolicy {
        deadline: opts.deadline,
        ..SupervisorPolicy::default()
    };
    let jobs = supervise(
        streams,
        workers,
        &policy,
        |i, _| format!("stream {i}"),
        |i, bytes, ctx| run_stream(pipeline, i, bytes, &opts.plan, ctx),
    );
    let shards = pipeline.num_shards();
    let streams = jobs
        .into_iter()
        .map(|job| {
            let mut merged = None;
            let outcome = job.outcome.map(|events| merged = Some(events));
            StreamResult {
                stream: job.index,
                outcome,
                merged,
                shards,
                elapsed: job.elapsed,
            }
        })
        .collect();
    BatchReport {
        streams,
        workers,
        shards,
        steals: 0,
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::partition::ShardSpec;
    use sunder_automata::regex::compile_rule_set;
    use sunder_resilience::{Fault, FaultKind};
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
    fn single_worker_and_empty_batch_are_fine() {
        let p = pipeline(PipelineConfig::Identity, 2);
        let report = run_batch(&p, &streams(5), &BatchOptions::with_workers(1));
        assert_eq!(report.ok_count(), 5);
        assert_eq!(report.workers, 1);
        let empty = run_batch(&p, &[], &BatchOptions::with_workers(4));
        assert!(empty.streams.is_empty());
    }
}
