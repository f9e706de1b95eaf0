//! Concurrency stress for the stream scheduler: a seeded
//! 64-stream × 8-worker batch with a fault plan panicking exactly one
//! stream. The panic must be attributed to that stream in its
//! `JobOutcome`, and every surviving stream must complete, verify
//! against the one-engine reference, and be byte-identical to a clean
//! run of the same batch.

use sunder_automata::regex::compile_rule_set;
use sunder_oracle::PipelineConfig;
use sunder_resilience::{Fault, FaultKind, FaultPlan, JobOutcome};
use sunder_shard::{run_batch, verify_stream, BatchOptions, CompiledPipeline, ShardSpec};
use sunder_sim::EngineKind;

const STREAMS: usize = 64;
const WORKERS: usize = 8;
const VICTIM_STREAM: usize = 17;

fn pipeline() -> CompiledPipeline {
    // Six independent rule components so the placement plan has real
    // packing work: a failed stream must list every shard.
    let nfa = compile_rule_set(&[
        "ab+c",
        ".*net",
        "[0-9]{3}",
        "xy+z",
        "GET /[a-z]+",
        "err(or)?",
    ])
    .unwrap();
    CompiledPipeline::compile(
        &nfa,
        PipelineConfig::Nibble,
        ShardSpec::MaxShards(4),
        EngineKind::Adaptive,
    )
    .unwrap()
}

fn streams() -> Vec<Vec<u8>> {
    (0..STREAMS)
        .map(|i| {
            format!(
                "s{i}: GET /index abbbc {i:03} xyyyz error 555net {}",
                "ab".repeat(i % 7)
            )
            .into_bytes()
        })
        .collect()
}

#[test]
fn panicking_stream_is_attributed_and_survivors_match_clean_run() {
    let p = pipeline();
    let shards = p.num_shards();
    assert!(shards >= 2, "need a multi-shard plan, got {shards}");
    let inputs = streams();

    let clean = run_batch(
        &p,
        &inputs,
        &BatchOptions::with_workers(WORKERS).without_serial_cutoff(),
    );
    assert_eq!(clean.ok_count(), STREAMS, "clean run must fully complete");

    let faulty_opts = BatchOptions {
        workers: WORKERS,
        plan: FaultPlan::new(
            0xC0FFEE,
            vec![Fault {
                item: VICTIM_STREAM,
                kind: FaultKind::Panic,
            }],
        ),
        deadline: None,
        serial_cutoff: 0,
    };
    let faulty = run_batch(&p, &inputs, &faulty_opts);

    // Exactly one stream lost, with the panic attributed to it: one run
    // covered every shard, so every shard carries the status.
    assert_eq!(faulty.ok_count(), STREAMS - 1);
    let victim = &faulty.streams[VICTIM_STREAM];
    assert!(!victim.ok(), "victim stream must not produce a trace");
    let every_shard: Vec<_> = (0..shards).map(|s| (s, "panicked")).collect();
    assert_eq!(victim.failed_shards(), every_shard);
    match &victim.outcome {
        JobOutcome::Panicked { message } => {
            assert!(
                message.contains(&format!("stream {VICTIM_STREAM}")),
                "panic message must attribute the fault site: {message}"
            );
        }
        other => panic!("expected Panicked, got {}", other.status()),
    }

    // Byte-identical, verified survivors: the panic must not perturb any
    // other stream, regardless of how the schedule shifted around it.
    for (c, f) in clean.streams.iter().zip(&faulty.streams) {
        assert_eq!(c.stream, f.stream);
        if f.stream != VICTIM_STREAM {
            assert!(
                verify_stream(&p, f, &inputs[f.stream]).unwrap(),
                "surviving stream {} must verify",
                f.stream
            );
            assert_eq!(
                c.merged, f.merged,
                "surviving stream {} diverged from the clean run",
                f.stream
            );
        }
    }
}

#[test]
fn results_are_schedule_independent_across_worker_counts() {
    let p = pipeline();
    let inputs = streams();
    let sequential = run_batch(&p, &inputs, &BatchOptions::with_workers(1));
    for workers in [2, 4, 8] {
        let parallel = run_batch(
            &p,
            &inputs,
            &BatchOptions::with_workers(workers).without_serial_cutoff(),
        );
        assert_eq!(parallel.ok_count(), STREAMS);
        for (a, b) in sequential.streams.iter().zip(&parallel.streams) {
            assert_eq!(
                a.merged, b.merged,
                "stream {} differs between 1 and {workers} workers",
                a.stream
            );
        }
    }
}
