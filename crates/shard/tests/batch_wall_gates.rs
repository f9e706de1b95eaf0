//! Wall-clock gates on the batch path. Both compare the best-of-3
//! aggregate MB/s of `run_batch` over 8 streams of a tiny-scale Snort
//! pipeline (4 shards, nibble, adaptive), with metrics recording on:
//!
//! * worker scaling: 4 workers reach at least 0.85x the 1-worker rate.
//!   A single-core host cannot scale, so the floor guards against
//!   scheduling overhead that grows with the worker count;
//! * scrape overhead: a thread snapshotting the registry and rendering
//!   the Prometheus exposition at 10 Hz (the work a `/metrics` request
//!   costs the serving process, minus the socket) keeps the 4-worker
//!   rate within 2% of the unscraped rate, plus 0.5 MB/s of slack for
//!   shared-runner noise.
//!
//! Timings from a debug build mean nothing, so the test only runs in
//! release: `cargo test --release -p sunder-shard --test batch_wall_gates`.
//! It owns the process-global telemetry level; keep it the only
//! `#[test]` in this binary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sunder_shard::{run_batch, BatchOptions, CompiledPipeline, ShardSpec, SERIAL_CUTOFF_BYTES};
use sunder_sim::EngineKind;
use sunder_telemetry::{set_level, Level};
use sunder_transform::PipelineConfig;
use sunder_workloads::{Benchmark, Scale};

const STREAMS: usize = 8;
const RUNS: usize = 3;
/// Total input: far above the serial cutoff, so 4 workers really fan
/// out, and long enough that the scraper fires during every phase.
const INPUT_BYTES: usize = 8 * SERIAL_CUTOFF_BYTES;

/// Best-of-[`RUNS`] aggregate MB/s of `streams` on `workers` workers.
fn best_mbps(pipeline: &CompiledPipeline, streams: &[Vec<u8>], workers: usize) -> f64 {
    let bytes: usize = streams.iter().map(Vec::len).sum();
    let opts = BatchOptions::with_workers(workers);
    (0..RUNS)
        .map(|_| {
            let report = run_batch(pipeline, streams, &opts);
            assert_eq!(report.ok_count(), streams.len());
            assert_eq!(report.workers, workers, "the batch must not collapse");
            bytes as f64 / 1e6 / report.wall.as_secs_f64().max(1e-12)
        })
        .fold(0.0, f64::max)
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn worker_scaling_and_scrape_overhead_hold_their_floors() {
    set_level(Level::Metrics);
    let scale = Scale {
        input_len: INPUT_BYTES,
        ..Scale::tiny()
    };
    let w = Benchmark::Snort.build(scale);
    let pipeline = CompiledPipeline::compile(
        &w.nfa,
        PipelineConfig::Nibble,
        ShardSpec::MaxShards(4),
        EngineKind::Adaptive,
    )
    .unwrap();
    let chunk = w.input.len().div_ceil(STREAMS);
    let streams: Vec<Vec<u8>> = w.input.chunks(chunk).map(<[u8]>::to_vec).collect();
    assert_eq!(streams.len(), STREAMS);
    assert!(streams.iter().map(Vec::len).sum::<usize>() > SERIAL_CUTOFF_BYTES);

    let one = best_mbps(&pipeline, &streams, 1);
    let four = best_mbps(&pipeline, &streams, 4);
    eprintln!("1 worker: {one:.1} MB/s, 4 workers: {four:.1} MB/s");
    assert!(
        four >= 0.85 * one,
        "4 workers ran at {four:.1} MB/s, below 0.85x the 1-worker {one:.1} MB/s"
    );

    let base = best_mbps(&pipeline, &streams, 4);
    let stop = AtomicBool::new(false);
    let (scraped, scrapes) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Acquire) {
                let snap = sunder_telemetry::snapshot();
                std::hint::black_box(sunder_telemetry::render_prometheus(&snap));
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(100));
            }
            scrapes
        });
        let scraped = best_mbps(&pipeline, &streams, 4);
        stop.store(true, Ordering::Release);
        (scraped, scraper.join().unwrap())
    });
    eprintln!(
        "4 workers: {base:.1} MB/s, with a 10 Hz scraper ({scrapes} scrapes): {scraped:.1} MB/s"
    );
    let floor = base * 0.98 - 0.5;
    assert!(
        scraped >= floor,
        "scrape overhead too high: {scraped:.1} MB/s < floor {floor:.1} (base {base:.1})"
    );
    set_level(Level::Off);
}
