//! Shards are placement data: a sharded run scans each stream once, on
//! one engine, whatever the shard count.
//!
//! The telemetry registry is process-global, so this file holds a single
//! test and runs in a process of its own.

use sunder::automata::partition::ShardSpec;
use sunder::automata::InputView;
use sunder::sim::{EngineKind, NullSink, ShardedEngine};
use sunder::telemetry::{self, Level};
use sunder::{Benchmark, Scale};

#[test]
fn prefilter_skips_are_independent_of_the_shard_count() {
    let w = Benchmark::ExactMatch.build(Scale::tiny());
    let view = InputView::new(&w.input, w.nfa.symbol_bits(), w.nfa.stride()).unwrap();
    telemetry::set_level(Level::Metrics);
    let (shards, skipped): (Vec<usize>, Vec<u64>) = [1, 2, 4]
        .map(|max| {
            let engine =
                ShardedEngine::new(&w.nfa, ShardSpec::MaxShards(max), EngineKind::Sparse).unwrap();
            telemetry::metrics::reset();
            engine.run(&view, &mut NullSink);
            let skipped = telemetry::snapshot()
                .counter("prefilter_skipped_total", &[])
                .unwrap_or(0);
            (engine.num_shards(), skipped)
        })
        .into_iter()
        .unzip();
    assert!(
        shards[2] > 2,
        "ExactMatch must place into several shards: {shards:?}"
    );
    assert!(
        skipped[0] > 0,
        "the quiet ExactMatch stream must skip cycles"
    );
    assert!(
        skipped.iter().all(|&s| s == skipped[0]),
        "one pass per stream: prefilter_skipped_total by shard count 1/2/4 = {skipped:?}"
    );
}
