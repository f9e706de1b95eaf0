//! `sunder-shard`: the sharded multi-stream execution service.
//!
//! The paper's scalability claim is spatial: throughput grows with
//! subarray count because the automaton is partitioned across them and
//! reporting never round-trips to the host. This crate is the software
//! analogue of that axis, built from three pieces:
//!
//! * a **compiled-pipeline cache** ([`PipelineCache`]) — content-addressed
//!   by a hash of the automaton, the pipeline configuration, and the
//!   sharding spec, so repeated stream submissions skip the FlexAmata /
//!   striding / partitioning work entirely;
//! * a **work-stealing stream scheduler** ([`run_batch`]) — N independent
//!   input streams across M worker threads, per-shard panic isolation
//!   into [`sunder_resilience::JobOutcome`], fault injection via
//!   [`sunder_resilience::FaultPlan`] keyed by
//!   `stream × num_shards + shard`;
//! * the **equivalence gate** ([`verify_stream`]) — sharded execution
//!   must be report-trace-identical to monolithic execution; the
//!   throughput bench refuses to report a point that fails it.
//!
//! [`BatchService`] ties them together:
//!
//! ```
//! use sunder_automata::regex::compile_rule_set;
//! use sunder_shard::{BatchOptions, BatchService, ShardSpec};
//! use sunder_sim::EngineKind;
//! use sunder_transform::PipelineConfig;
//!
//! let service = BatchService::new(ShardSpec::MaxShards(4), EngineKind::Adaptive);
//! let nfa = compile_rule_set(&["ab+c", "[0-9]{3}"])?;
//! let streams = vec![b"zabbc 007".to_vec(), b"123 abc".to_vec()];
//! let report = service.submit(
//!     &nfa,
//!     PipelineConfig::Nibble,
//!     &streams,
//!     &BatchOptions::with_workers(2),
//! )?;
//! assert_eq!(report.ok_count(), 2);
//! assert_eq!(service.cache().misses(), 1); // next submit will hit
//! # Ok::<(), sunder_automata::AutomataError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod flight;
pub mod frame;
pub mod obs;
pub mod scheduler;
pub mod server;
pub mod session;

pub use cache::PipelineCache;
pub use chaos::{run_chaos, ChaosOptions, SessionOutcome};
pub use flight::{validate_flight, FlightRecorder, FlightSummary, FLIGHT_SCHEMA_VERSION};
pub use frame::{ClientFrame, FrameError, ServerFrame, PROTOCOL_VERSION};
pub use obs::{http_get, ObsHandle};
pub use scheduler::{
    run_batch, run_batch_pooled, BatchOptions, BatchReport, ShardRun, StreamResult, WorkerPool,
    SERIAL_CUTOFF_BYTES,
};
pub use server::{DrainReport, MatchServer, ServerConfig};
pub use session::{expected_reports, SessionError, SessionSummary, StreamSession, SymbolFramer};
pub use sunder_artifact::{pipeline_key, CompiledPipeline, PipelineKey};
pub use sunder_automata::partition::ShardSpec;

use std::sync::Arc;

use sunder_automata::input::InputView;
use sunder_automata::{AutomataError, Nfa};
use sunder_sim::{EngineKind, ReportEvent, TraceSink};
use sunder_transform::PipelineConfig;

/// A long-lived batch service: one pipeline cache, many submissions.
///
/// With [`BatchService::with_pool`] the service also owns a persistent
/// [`WorkerPool`], so repeated submissions reuse parked helper threads
/// instead of spawning and joining `workers - 1` threads per batch.
#[derive(Debug)]
pub struct BatchService {
    cache: PipelineCache,
    pool: Option<WorkerPool>,
}

impl BatchService {
    /// A service compiling pipelines with the given sharding spec and
    /// per-shard engine kind.
    pub fn new(spec: ShardSpec, engine: EngineKind) -> BatchService {
        BatchService {
            cache: PipelineCache::new(spec, engine),
            pool: None,
        }
    }

    /// Like [`BatchService::new`], plus a persistent pool of `helpers`
    /// worker threads shared by all submissions (the submitting thread
    /// itself is always worker 0, so up to `helpers + 1` workers run).
    pub fn with_pool(spec: ShardSpec, engine: EngineKind, helpers: usize) -> BatchService {
        BatchService {
            cache: PipelineCache::new(spec, engine),
            pool: Some(WorkerPool::new(helpers)),
        }
    }

    /// The underlying cache (hit/miss counters, size).
    pub fn cache(&self) -> &PipelineCache {
        &self.cache
    }

    /// The persistent worker pool, when this service owns one.
    pub fn pool(&self) -> Option<&WorkerPool> {
        self.pool.as_ref()
    }

    /// Compiles (or fetches) the pipeline for `nfa` under `config` and
    /// runs `streams` through it.
    ///
    /// # Errors
    ///
    /// Propagates pipeline compilation failures; per-stream execution
    /// failures are captured inside the [`BatchReport`] instead.
    pub fn submit(
        &self,
        nfa: &Nfa,
        config: PipelineConfig,
        streams: &[Vec<u8>],
        opts: &BatchOptions,
    ) -> Result<BatchReport, AutomataError> {
        let pipeline = self.cache.get_or_compile(nfa, config)?;
        match &self.pool {
            Some(pool) if opts.workers > 1 => {
                let streams = Arc::new(streams.to_vec());
                Ok(run_batch_pooled(pool, &pipeline, &streams, opts))
            }
            _ => Ok(run_batch(&pipeline, streams, opts)),
        }
    }

    /// [`BatchService::submit`] without copying the stream bytes: the
    /// shared `streams` are handed to the pool (or borrowed by the
    /// scoped-thread path) as-is. This is the hot path for callers that
    /// submit the same streams repeatedly, like the throughput bench.
    ///
    /// # Errors
    ///
    /// Propagates pipeline compilation failures.
    pub fn submit_arc(
        &self,
        nfa: &Nfa,
        config: PipelineConfig,
        streams: &Arc<Vec<Vec<u8>>>,
        opts: &BatchOptions,
    ) -> Result<BatchReport, AutomataError> {
        let pipeline = self.cache.get_or_compile(nfa, config)?;
        match &self.pool {
            Some(pool) if opts.workers > 1 => Ok(run_batch_pooled(pool, &pipeline, streams, opts)),
            _ => Ok(run_batch(&pipeline, streams, opts)),
        }
    }
}

/// Runs `input` through the pipeline's transformed automaton on a single
/// monolithic engine, returning the reference trace sharded execution
/// must reproduce byte-identically.
///
/// # Errors
///
/// Returns input framing errors.
pub fn monolithic_trace(
    pipeline: &CompiledPipeline,
    kind: EngineKind,
    input: &[u8],
) -> Result<Vec<ReportEvent>, AutomataError> {
    let view = InputView::new(input, pipeline.nfa.symbol_bits(), pipeline.nfa.stride())?;
    let mut engine = kind.build(&pipeline.nfa);
    let mut trace = TraceSink::new();
    engine.run(&view, &mut trace);
    Ok(trace.events)
}

/// The sharded-vs-monolithic trace-equality gate for one stream: `true`
/// iff the stream completed and its merged trace is byte-identical to a
/// monolithic run of the same transformed automaton.
///
/// # Errors
///
/// Returns input framing errors from the monolithic run.
pub fn verify_stream(
    pipeline: &CompiledPipeline,
    result: &StreamResult,
    input: &[u8],
) -> Result<bool, AutomataError> {
    let Some(merged) = &result.merged else {
        return Ok(false);
    };
    let expected = monolithic_trace(pipeline, pipeline.sharded.kind(), input)?;
    Ok(*merged == expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::regex::compile_rule_set;

    #[test]
    fn service_caches_across_submissions_and_verifies() {
        let service = BatchService::new(ShardSpec::MaxShards(3), EngineKind::Adaptive);
        let nfa = compile_rule_set(&["ab", ".*xy", "[0-9]{2}"]).unwrap();
        let streams = vec![b"ab 12 xy".to_vec(), b"zzabzz".to_vec()];
        for round in 0..3 {
            let report = service
                .submit(
                    &nfa,
                    PipelineConfig::Stride2,
                    &streams,
                    &BatchOptions::with_workers(2),
                )
                .unwrap();
            assert_eq!(report.ok_count(), 2, "round {round}");
            let pipeline = service
                .cache()
                .get_or_compile(&nfa, PipelineConfig::Stride2)
                .unwrap();
            for s in &report.streams {
                assert!(verify_stream(&pipeline, s, &streams[s.stream]).unwrap());
            }
        }
        assert_eq!(service.cache().misses(), 1);
        assert!(service.cache().hits() >= 2);
    }
}
