//! Wall-clock gates on the batch path. Both time `run_batch` over 8
//! streams of a tiny-scale Snort pipeline (4 shards, nibble, adaptive),
//! with metrics recording on:
//!
//! * worker scaling: the best-of-3 MB/s of 4 workers reaches at least
//!   0.85x the 1-worker rate. A single-core host cannot scale, so the
//!   floor guards against scheduling overhead that grows with the worker
//!   count;
//! * scrape overhead: a thread snapshotting the registry and rendering
//!   the Prometheus exposition at 10 Hz (the work a `/metrics` request
//!   costs the serving process, minus the socket) keeps the 4-worker
//!   rate within 2% of the unscraped rate, plus 0.5 MB/s of slack for
//!   shared-runner noise. Unscraped and scraped 4-worker runs alternate
//!   for [`SCRAPE_ROUNDS`] rounds, the order flipping every round, and
//!   each side's rate is its total bytes over its total wall time. So a
//!   drift in the host's speed lands on both sides, not on whichever
//!   block ran second, and one lucky run cannot set either side.
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
/// Alternating unscraped/scraped rounds of the scrape gate. Single runs
/// swing by 10-15% on a shared 2-core host, so with fewer rounds each
/// side's rate is noisier than the 2% floor.
const SCRAPE_ROUNDS: usize = 50;
/// Total input: far above the serial cutoff, so 4 workers really fan
/// out, and long enough that the scraper fires during every phase.
const INPUT_BYTES: usize = 8 * SERIAL_CUTOFF_BYTES;

/// Wall-clock seconds of one `run_batch` of `streams` on `workers` workers.
fn run_secs(pipeline: &CompiledPipeline, streams: &[Vec<u8>], workers: usize) -> f64 {
    let report = run_batch(pipeline, streams, &BatchOptions::with_workers(workers));
    assert_eq!(report.ok_count(), streams.len());
    assert_eq!(report.workers, workers, "the batch must not collapse");
    report.wall.as_secs_f64().max(1e-12)
}

fn megabytes(streams: &[Vec<u8>]) -> f64 {
    streams.iter().map(Vec::len).sum::<usize>() as f64 / 1e6
}

/// Best-of-[`RUNS`] aggregate MB/s of `streams` on `workers` workers.
fn best_mbps(pipeline: &CompiledPipeline, streams: &[Vec<u8>], workers: usize) -> f64 {
    (0..RUNS)
        .map(|_| megabytes(streams) / run_secs(pipeline, streams, workers))
        .fold(0.0, f64::max)
}

/// One 4-worker run with a 10 Hz scraper beside it: the run's wall
/// seconds and the scrapes taken.
fn scraped_run_secs(pipeline: &CompiledPipeline, streams: &[Vec<u8>]) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
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
        let secs = run_secs(pipeline, streams, 4);
        stop.store(true, Ordering::Release);
        (secs, scraper.join().unwrap())
    })
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

    let (mut base_secs, mut scraped_secs, mut scrapes) = (0.0, 0.0, 0u64);
    for round in 0..SCRAPE_ROUNDS {
        if round % 2 == 0 {
            base_secs += run_secs(&pipeline, &streams, 4);
        }
        let (secs, n) = scraped_run_secs(&pipeline, &streams);
        scraped_secs += secs;
        scrapes += n;
        if round % 2 == 1 {
            base_secs += run_secs(&pipeline, &streams, 4);
        }
    }
    let total_mb = SCRAPE_ROUNDS as f64 * megabytes(&streams);
    let (base, scraped) = (total_mb / base_secs, total_mb / scraped_secs);
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
