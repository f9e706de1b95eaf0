//! Regression gate for the labeled-handle telemetry refactor: routing
//! the scheduler's queue-depth/steal counters and the pipeline cache's
//! hit/miss counters through pre-interned handles must not change what
//! a run exports. The handle cells fold into the same registry
//! namespace, so totals in a snapshot have to equal the cache's and the
//! batch reports' own counters exactly.
//!
//! This test owns the process-global telemetry level, so it must stay
//! the only `#[test]` in this binary.

use sunder_automata::regex::compile_rule_set;
use sunder_oracle::PipelineConfig;
use sunder_shard::{run_batch, BatchOptions, PipelineCache, ShardSpec};
use sunder_sim::EngineKind;
use sunder_telemetry::{set_level, Level, MetricValue};

fn counter_total(snap: &sunder_telemetry::MetricsSnapshot, name: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match &e.value {
            MetricValue::Counter(c) => *c,
            other => panic!("{name} should be a counter, got {other:?}"),
        })
        .sum()
}

#[test]
fn handle_routed_counters_match_service_totals() {
    set_level(Level::Metrics);
    sunder_telemetry::metrics::reset();

    let cache = PipelineCache::new(ShardSpec::MaxShards(4), EngineKind::Adaptive);
    let nfa = compile_rule_set(&["ab+c", "[0-9]{3}", ".*xyz"]).unwrap();
    let streams: Vec<Vec<u8>> = (0..12)
        .map(|i| {
            let mut s = format!("abbc {i:03} xyz ").into_bytes();
            s.extend(std::iter::repeat_n(b'z', 2048 + i * 101));
            s
        })
        .collect();
    let opts = BatchOptions {
        workers: 4,
        serial_cutoff: 0, // force the multi-worker path for small inputs
        ..BatchOptions::default()
    };

    let mut steals_reported = 0;
    for config in [PipelineConfig::Nibble, PipelineConfig::Stride2] {
        for round in 0..3 {
            let pipeline = cache.get_or_compile(&nfa, config).unwrap();
            let report = run_batch(&pipeline, &streams, &opts);
            assert_eq!(report.ok_count(), streams.len(), "{config:?} round {round}");
            steals_reported += report.steals;
        }
    }

    let snap = sunder_telemetry::snapshot();

    // Cache counters: the handle-exported totals equal the cache's own
    // atomics — 2 misses (one compile per config), 4 hits.
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 4);
    assert_eq!(
        counter_total(&snap, "pipeline_cache_hits_total"),
        cache.hits()
    );
    assert_eq!(
        counter_total(&snap, "pipeline_cache_misses_total"),
        cache.misses()
    );
    // Labels survived the refactor: per-config series, not one blob.
    for config in [PipelineConfig::Nibble, PipelineConfig::Stride2] {
        let labeled: Vec<_> = snap
            .entries
            .iter()
            .filter(|e| {
                e.name == "pipeline_cache_misses_total"
                    && e.labels.len() == 1
                    && e.labels[0].0 == "config"
                    && e.labels[0].1 == config.name()
            })
            .collect();
        assert_eq!(labeled.len(), 1, "{config:?} miss series");
    }

    // Scheduler counters: steals exported via handles equal the sum of
    // the per-batch reports.
    assert_eq!(
        counter_total(&snap, "scheduler_steals_total"),
        steals_reported
    );

    // Queue-depth gauges exist per worker and every queue ended drained.
    let depths: Vec<_> = snap
        .entries
        .iter()
        .filter(|e| e.name == "scheduler_queue_depth")
        .collect();
    assert_eq!(depths.len(), 4, "one gauge per worker");
    for d in &depths {
        match &d.value {
            MetricValue::Gauge(g) => assert_eq!(*g, 0.0, "{:?}", d.labels),
            other => panic!("queue depth should be a gauge, got {other:?}"),
        }
    }

    set_level(Level::Off);
}
