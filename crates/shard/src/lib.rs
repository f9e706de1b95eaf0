//! `sunder-shard`: the multi-stream execution service.
//!
//! The paper's scalability claim is spatial: throughput grows with
//! subarray count because the automaton is partitioned across them and
//! reporting never round-trips to the host. This crate is the software
//! analogue of that axis: on a CPU the scale comes from independent
//! streams run in parallel, each one engine pass over the whole
//! automaton, with the shard partition kept as placement data. It is
//! built from three pieces:
//!
//! * a **compiled-pipeline cache** ([`PipelineCache`]) — content-addressed
//!   by a hash of the automaton, the pipeline configuration, and the
//!   sharding spec, so repeated stream submissions skip the FlexAmata /
//!   striding / partitioning work entirely;
//! * a **stream scheduler** ([`run_batch`]) — N independent input
//!   streams across M workers of [`sunder_resilience::supervise`], the
//!   workspace's one worker pool, with per-stream panic isolation
//!   into [`sunder_resilience::JobOutcome`], fault injection via
//!   [`sunder_resilience::FaultPlan`] keyed by stream index;
//! * the **equivalence gate** ([`verify_stream`]) — every stream's trace
//!   must be report-trace-identical to monolithic execution; the
//!   benchmark and `sunder serve-batch --verify` hold every stream to it.
//!
//! A batch is one cache lookup followed by one [`run_batch`]:
//!
//! ```
//! use sunder_automata::regex::compile_rule_set;
//! use sunder_shard::{run_batch, verify_stream, BatchOptions, PipelineCache, ShardSpec};
//! use sunder_sim::EngineKind;
//! use sunder_transform::PipelineConfig;
//!
//! let cache = PipelineCache::new(ShardSpec::MaxShards(4), EngineKind::Adaptive);
//! let nfa = compile_rule_set(&["ab+c", "[0-9]{3}"])?;
//! let streams = vec![b"zabbc 007".to_vec(), b"123 abc".to_vec()];
//! let pipeline = cache.get_or_compile(&nfa, PipelineConfig::Nibble)?;
//! let report = run_batch(&pipeline, &streams, &BatchOptions::with_workers(2));
//! assert_eq!(report.ok_count(), 2);
//! for s in &report.streams {
//!     assert!(verify_stream(&pipeline, s, &streams[s.stream])?);
//! }
//! assert_eq!(cache.misses(), 1); // the next lookup will hit
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
mod server_core;
pub mod session;

pub use cache::PipelineCache;
pub use chaos::{run_chaos, ChaosOptions, SessionOutcome};
pub use flight::FlightRecorder;
pub use frame::{ClientFrame, FrameError, ServerFrame, PROTOCOL_VERSION};
pub use obs::{http_get, ObsHandle};
pub use scheduler::{run_batch, BatchOptions, BatchReport, StreamResult, SERIAL_CUTOFF_BYTES};
pub use server::{DrainReport, MatchServer, ServerConfig};
pub use session::{expected_reports, SessionError, SessionSummary, StreamSession, SymbolFramer};
pub use sunder_artifact::{pipeline_key, CompiledPipeline, PipelineKey};
pub use sunder_automata::partition::ShardSpec;

use sunder_automata::input::InputView;
use sunder_automata::AutomataError;
use sunder_sim::{EngineKind, ReportEvent, TraceSink};

/// Runs `input` through the pipeline's transformed automaton on a single
/// monolithic engine of `kind`, returning the reference trace every
/// stream must reproduce byte-identically.
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

/// The stream-vs-monolithic trace-equality gate for one stream: `true`
/// iff the stream completed and its trace is byte-identical to a
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
    use sunder_transform::PipelineConfig;

    #[test]
    fn cache_hits_across_batches_and_verifies() {
        let cache = PipelineCache::new(ShardSpec::MaxShards(3), EngineKind::Adaptive);
        let nfa = compile_rule_set(&["ab", ".*xy", "[0-9]{2}"]).unwrap();
        let streams = vec![b"ab 12 xy".to_vec(), b"zzabzz".to_vec()];
        for round in 0..3 {
            let pipeline = cache.get_or_compile(&nfa, PipelineConfig::Stride2).unwrap();
            let report = run_batch(&pipeline, &streams, &BatchOptions::with_workers(2));
            assert_eq!(report.ok_count(), 2, "round {round}");
            for s in &report.streams {
                assert!(verify_stream(&pipeline, s, &streams[s.stream]).unwrap());
            }
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
    }
}
