//! Property test (oracle-backed): for random automata and random shard
//! counts ∈ {1..8}, the `ShardedEngine`'s merged report trace is
//! byte-identical to the monolithic `AdaptiveEngine` trace under all four
//! pipeline configurations.
//!
//! Random cases come from the conformance fuzzer's generator
//! (`sunder_oracle::fuzz::generate_case`), so the automata exercise the
//! same structural variety the fuzz corpus does — strided reports,
//! start-period gating, self-loops, report-only states. A divergence
//! writes a self-contained `.anml` reproducer (the PR 2 fuzzer format,
//! re-parsable with `sunder_oracle::fuzz::parse_reproducer`) before
//! failing, so the shrunk case survives the test run.

use std::path::PathBuf;

use proptest::prelude::*;

use sunder_oracle::check::Divergence;
use sunder_oracle::fuzz::{
    generate_case, parse_reproducer, render_reproducer, Failure, FuzzOptions,
};
use sunder_oracle::PipelineConfig;
use sunder_shard::{CompiledPipeline, ShardSpec};
use sunder_sim::{EngineKind, ShardedEngine, TraceSink};

/// Writes a failing case as a reproducer file under the test temp dir and
/// returns its path.
fn emit_reproducer(
    case: u64,
    nfa: &sunder_automata::Nfa,
    input: &[u8],
    config: PipelineConfig,
    shards: usize,
    detail: String,
) -> PathBuf {
    let failure = Failure {
        case,
        nfa: nfa.clone(),
        input: input.to_vec(),
        divergence: Box::new(Divergence {
            config: config.name(),
            engine: "adaptive",
            detail,
            missing: Vec::new(),
            spurious: Vec::new(),
        }),
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create reproducer dir");
    let path = dir.join(format!(
        "sharding-repro-case{case}-{}-{shards}shards.anml",
        config.name()
    ));
    std::fs::write(&path, render_reproducer(&failure)).expect("write reproducer");
    path
}

/// The monolithic reference: the adaptive engine over the transformed
/// automaton.
fn monolithic(transformed: &sunder_automata::Nfa, input: &[u8]) -> Vec<sunder_sim::ReportEvent> {
    let view =
        sunder_automata::InputView::new(input, transformed.symbol_bits(), transformed.stride())
            .expect("framing");
    let mut engine = EngineKind::Adaptive.build(transformed);
    let mut trace = TraceSink::new();
    engine.run(&view, &mut trace);
    trace.events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_matches_monolithic_adaptive_for_all_configs(
        case in 0u64..4096,
        shards in 1usize..=8,
    ) {
        let options = FuzzOptions::default();
        let (nfa, input) = generate_case(&options, case);
        for config in PipelineConfig::ALL {
            let (transformed, _map) = config.apply(&nfa).expect("transform");
            let expected = monolithic(&transformed, &input);
            let sharded = ShardedEngine::new(
                &transformed,
                ShardSpec::MaxShards(shards),
                EngineKind::Adaptive,
            ).expect("partition");
            let merged = sharded.run_trace(&input).expect("sharded run");
            if merged != expected {
                let path = emit_reproducer(
                    case,
                    &nfa,
                    &input,
                    config,
                    shards,
                    format!(
                        "sharded ({shards} requested, {} actual) has {} events, \
                         monolithic adaptive has {}",
                        sharded.num_shards(),
                        merged.len(),
                        expected.len(),
                    ),
                );
                prop_assert!(
                    false,
                    "case {case} diverged under {} with {shards} shards; \
                     reproducer written to {}",
                    config.name(),
                    path.display(),
                );
            }
        }
    }

    /// The cached-pipeline path (what `run_batch` executes) agrees
    /// with the direct `ShardedEngine` path — compilation through the
    /// cache must not change execution.
    #[test]
    fn compiled_pipeline_agrees_with_direct_sharding(
        case in 0u64..4096,
        shards in 1usize..=8,
    ) {
        let options = FuzzOptions::default();
        let (nfa, input) = generate_case(&options, case);
        for config in PipelineConfig::ALL {
            let pipeline = CompiledPipeline::compile(
                &nfa,
                config,
                ShardSpec::MaxShards(shards),
                EngineKind::Adaptive,
            ).expect("compile");
            let via_cacheable = pipeline.sharded.run_trace(&input).expect("pipeline run");
            let expected = monolithic(&pipeline.nfa, &input);
            prop_assert_eq!(
                via_cacheable,
                expected,
                "case {} under {} with {} shards",
                case,
                config.name(),
                shards,
            );
        }
    }
}

/// The reproducer machinery itself round-trips: what the failing path
/// would write can be parsed back into the identical (automaton, input)
/// pair.
#[test]
fn reproducer_emission_round_trips() {
    let options = FuzzOptions::default();
    let (nfa, input) = generate_case(&options, 7);
    let path = emit_reproducer(
        7,
        &nfa,
        &input,
        PipelineConfig::Stride2,
        3,
        "round-trip self-test (not a real failure)".to_string(),
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let (parsed_nfa, parsed_input) = parse_reproducer(&text).unwrap();
    assert_eq!(parsed_input, input);
    assert_eq!(
        sunder_automata::anml::serialize(&parsed_nfa),
        sunder_automata::anml::serialize(&nfa),
        "reproducer must preserve the automaton exactly"
    );
    std::fs::remove_file(path).ok();
}
