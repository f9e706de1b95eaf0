//! The batch path: compiled pipeline → `run_batch` passes.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sunder_automata::Nfa;
use sunder_shard::{run_batch, BatchOptions, CompiledPipeline, PipelineCache};
use sunder_sim::ReportEvent;

use crate::digest::Expected;
use crate::rep::{Ops, Rep};
use crate::spans::{Request, Scope};
use crate::workloads::{PipelineSource, Spec, ENGINE, LANES, SHARD_SPEC};

/// Writes the `.sdb` a [`PipelineSource::DiskTier`] set-up will hit.
/// Untimed preparation: a miss compiles and writes through.
pub fn prepare_disk_tier(spec: &Spec, nfa: &Nfa, dir: &Path) -> Result<(), String> {
    let cache = PipelineCache::with_disk(SHARD_SPEC, ENGINE, dir);
    let pipeline = cache
        .get_or_compile(nfa, spec.config)
        .map_err(|e| format!("compile for the disk tier: {e}"))?;
    match cache.disk_path(pipeline.key) {
        Some(path) if path.exists() => Ok(()),
        _ => Err(format!("no .sdb was written under {}", dir.display())),
    }
}

/// One fresh set-up: from the source automaton (plus, for the disk tier,
/// the `.sdb` on disk) to a pipeline ready to match.
pub fn setup(
    source: PipelineSource,
    spec: &Spec,
    nfa: &Nfa,
    sdb_dir: &Path,
) -> Result<Arc<CompiledPipeline>, String> {
    match source {
        PipelineSource::DiskTier => {
            // A new cache each time, so the memory tier is empty and the
            // lookup goes to disk.
            let cache = PipelineCache::with_disk(SHARD_SPEC, ENGINE, sdb_dir);
            let pipeline = cache
                .get_or_compile(nfa, spec.config)
                .map_err(|e| format!("disk-tier lookup: {e}"))?;
            if cache.disk_hits() != 1 {
                return Err("the disk tier missed: the pipeline was recompiled".into());
            }
            Ok(pipeline)
        }
        PipelineSource::ColdCompile => {
            CompiledPipeline::compile(nfa, spec.config, SHARD_SPEC, ENGINE)
                .map(Arc::new)
                .map_err(|e| format!("compile: {e}"))
        }
    }
}

/// Checks a trace in the pipeline's (transformed) coordinates against what
/// the first `len` bytes of a stream must report.
pub fn verify_events(
    pipeline: &CompiledPipeline,
    events: &[ReportEvent],
    len: usize,
    expected: &Expected,
) -> Result<(), String> {
    let stride = pipeline.nfa.stride();
    let mut pairs = Vec::with_capacity(events.len());
    for event in events {
        let offset = pipeline
            .map
            .to_original(event.symbol_position(stride))
            .map_err(|m| format!("misaligned report: {m}"))?;
        pairs.push((offset, event.info.id));
    }
    let mut checker = expected.checker();
    checker.push_batch(&mut pairs);
    checker.finish(len as u64).map_err(|m| m.to_string())
}

/// Runs whole passes over `streams` until `window` has elapsed (at least
/// one), checking every stream of every pass.
pub fn repetition(
    workload: &str,
    pipeline: &CompiledPipeline,
    streams: &[Vec<u8>],
    expected: &[Expected],
    window: Duration,
    scope: &mut Scope<'_>,
    ops: &mut Ops,
) -> Rep {
    let opts = BatchOptions::with_workers(LANES);
    let started = Instant::now();
    let mut rep = Rep::default();
    let mut passes = 0;
    loop {
        let pass = scope.enter("shard.scheduler.run_batch", Request::None);
        let t = Instant::now();
        let report = run_batch(pipeline, streams, &opts);
        rep.wall += t.elapsed();
        scope.exit(pass);
        passes += 1;
        rep.busy += report.busy();
        rep.steals += report.steals;
        for (result, (stream, expected)) in report.streams.iter().zip(streams.iter().zip(expected))
        {
            rep.bytes += stream.len() as u64;
            rep.latencies_ns.push(result.elapsed.as_nanos() as u64);
            let request = Request::Stream(result.stream as u32);
            let outcome = scope.span("benchmark.verify", request, || match &result.merged {
                Some(merged) => verify_events(pipeline, merged, stream.len(), expected),
                None => Err(format!("shards failed: {:?}", result.failed_shards())),
            });
            ops.attempt(outcome.map_err(|why| {
                format!(
                    "{workload}: run_batch pass {passes} stream {}: {why}",
                    result.stream
                )
            }));
        }
        if started.elapsed() >= window {
            rep.latencies_ns.sort_unstable();
            return rep;
        }
    }
}
