//! The sharding equivalence suite: sharded execution must be
//! report-trace-identical to monolithic execution — across every suite
//! workload, every pipeline configuration, every engine kind, and every
//! shard count — with the reference oracle as the final arbiter.
//!
//! The matrix itself lives in `sunder_oracle::shard`
//! (`check_sharded_pipelines` / `check_sharded_suite`); this test locks
//! the whole pipeline down at the batch level too: batches run through
//! a `PipelineCache` must pass the per-stream trace-equality gate for
//! all four configurations.

use sunder_oracle::shard::{check_sharded_suite, DEFAULT_SHARD_COUNTS};
use sunder_oracle::PipelineConfig;
use sunder_shard::{run_batch, verify_stream, BatchOptions, PipelineCache, ShardSpec};
use sunder_sim::EngineKind;
use sunder_workloads::{Benchmark, Scale};

/// Every benchmark × config × engine × shard count agrees with both the
/// monolithic engines and the reference oracle at tiny scale.
#[test]
fn suite_is_shard_conformant_at_tiny_scale() {
    let failures = check_sharded_suite(Scale::tiny());
    assert!(
        failures.is_empty(),
        "sharded conformance failures: {}",
        failures
            .iter()
            .map(|(b, d)| format!("{}: {d}", b.name()))
            .collect::<Vec<_>>()
            .join("; ")
    );
}

/// Batch submissions through the cached pipeline pass the per-stream
/// trace-equality gate for every pipeline configuration and for every
/// engine kind, under shard counts {1, 2, 4, 8}.
#[test]
fn cached_batches_pass_the_gate_for_all_configs_and_engines() {
    let scale = Scale::tiny();
    for bench in [Benchmark::Snort, Benchmark::Ranges05, Benchmark::ExactMatch] {
        let w = bench.build(scale);
        // Quarter the input into independent streams (aligned so every
        // stride configuration frames cleanly).
        let chunk = (w.input.len() / 4).next_multiple_of(4).max(4);
        let streams: Vec<Vec<u8>> = w.input.chunks(chunk).map(<[u8]>::to_vec).collect();
        for engine in EngineKind::ALL {
            for &shards in &DEFAULT_SHARD_COUNTS {
                let cache = PipelineCache::new(ShardSpec::MaxShards(shards), engine);
                for config in PipelineConfig::ALL {
                    let pipeline = cache.get_or_compile(&w.nfa, config).unwrap_or_else(|e| {
                        panic!("{}/{}/{shards}: {e}", bench.name(), config.name())
                    });
                    let report = run_batch(&pipeline, &streams, &BatchOptions::with_workers(2));
                    assert_eq!(
                        report.ok_count(),
                        streams.len(),
                        "{}/{}/{} shards: every stream must complete",
                        bench.name(),
                        config.name(),
                        shards,
                    );
                    for s in &report.streams {
                        assert!(
                            verify_stream(&pipeline, s, &streams[s.stream]).unwrap(),
                            "{}/{}/{} shards, stream {}: sharded trace diverged",
                            bench.name(),
                            config.name(),
                            shards,
                            s.stream,
                        );
                    }
                }
                // One compilation per config; nothing was recompiled.
                assert_eq!(cache.misses(), 4, "{}", bench.name());
            }
        }
    }
}
