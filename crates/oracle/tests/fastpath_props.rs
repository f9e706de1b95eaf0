//! Property tests (oracle-backed) for the single-stream fast path: the
//! compile-time byte-class reduction, the specialized per-state symbol
//! encodings, and the rare-byte prefilter must all be invisible in the
//! report trace across the full pipeline matrix (4 configurations × 3
//! engines).
//!
//! Random cases come from the conformance fuzzer's generator
//! (`sunder_oracle::fuzz::generate_case`), so the automata exercise the
//! same structural variety the fuzz corpus does — multiple start kinds,
//! dense edge meshes, empty charsets, report-only states. A divergence
//! writes a self-contained `.anml` reproducer (the PR 2 fuzzer format,
//! re-parsable with `sunder_oracle::fuzz::parse_reproducer`) before
//! failing, so the shrunk case survives the test run.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;

use sunder_automata::{InputView, Nfa};
use sunder_oracle::check::Divergence;
use sunder_oracle::fuzz::{generate_case, render_reproducer, shrink, Failure, FuzzOptions};
use sunder_oracle::{check_pipelines, PipelineConfig};
use sunder_sim::{Budget, CancelToken, EngineKind, ReportEvent, RunOutcome, TraceSink};

/// Writes a failing case as a reproducer file under the test temp dir and
/// returns its path.
fn emit_reproducer(
    case: u64,
    nfa: &Nfa,
    input: &[u8],
    config: &'static str,
    engine: &'static str,
    detail: String,
) -> PathBuf {
    let failure = Failure {
        case,
        nfa: nfa.clone(),
        input: input.to_vec(),
        divergence: Box::new(Divergence {
            config,
            engine,
            detail,
            missing: Vec::new(),
            spurious: Vec::new(),
        }),
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create reproducer dir");
    let path = dir.join(format!("fastpath-repro-case{case}-{config}-{engine}.anml"));
    std::fs::write(&path, render_reproducer(&failure)).expect("write reproducer");
    path
}

/// Runs `engine` over `input` through `run` (the whole-stream entry the
/// prefilter and quiet paths live behind).
fn run_whole(transformed: &Nfa, kind: EngineKind, input: &[u8]) -> Vec<ReportEvent> {
    let view = InputView::new(input, transformed.symbol_bits(), transformed.stride())
        .expect("input framing");
    let mut engine = kind.build(transformed);
    let mut trace = TraceSink::new();
    engine.run(&view, &mut trace);
    trace.events
}

/// Like [`run_whole`] but reduced to the `(symbol position, report id)`
/// view — the granularity conformance itself compares at. Strided
/// transforms may route equivalent bytes through different product
/// states that report the same id at the same position, so raw
/// [`ReportEvent`] equality (which includes the state) is too strong
/// across distinct inputs.
fn run_positions(transformed: &Nfa, kind: EngineKind, input: &[u8]) -> Vec<(u64, u32)> {
    let view = InputView::new(input, transformed.symbol_bits(), transformed.stride())
        .expect("input framing");
    let mut engine = kind.build(transformed);
    let mut trace = TraceSink::new();
    engine.run(&view, &mut trace);
    trace.position_id_pairs(transformed.stride())
}

/// Like [`run_whole`] but through `run_budgeted` under a live token that
/// never fires, polled every `check_every` cycles — the daemon's path.
/// Window boundaries land mid-skip, mid-stride and on the padded tail.
fn run_budgeted(
    transformed: &Nfa,
    kind: EngineKind,
    input: &[u8],
    check_every: u32,
) -> Vec<ReportEvent> {
    let view = InputView::new(input, transformed.symbol_bits(), transformed.stride())
        .expect("input framing");
    let budget = Budget::with_cancel(CancelToken::new()).check_every(check_every);
    let mut engine = kind.build(transformed);
    let mut trace = TraceSink::new();
    let outcome = engine.run_budgeted(&view, &mut trace, &budget);
    assert_eq!(outcome, RunOutcome::Completed);
    trace.events
}

/// Runs `engine` over `input` one explicit `step` at a time — the path
/// that can never skip a cycle, whatever the sink declares.
fn run_stepwise(transformed: &Nfa, kind: EngineKind, input: &[u8]) -> Vec<ReportEvent> {
    let view = InputView::new(input, transformed.symbol_bits(), transformed.stride())
        .expect("input framing");
    let mut engine = kind.build(transformed);
    let mut trace = TraceSink::new();
    for v in view.iter_ref() {
        engine.step(v.symbols, v.valid, &mut trace);
    }
    trace.events
}

/// Maps every input byte to the smallest byte its automaton cannot
/// distinguish it from: two bytes are equivalent iff they agree on every
/// charset of every state. This recomputes, independently of the engine
/// tables, exactly the equivalence the dense engine's compile-time
/// byte-class reduction relies on.
fn class_representatives(nfa: &Nfa) -> [u8; 256] {
    let mut reps = [0u8; 256];
    let mut seen: BTreeMap<Vec<bool>, u8> = BTreeMap::new();
    for sym in 0u16..256 {
        let mut signature = Vec::new();
        for (_, ste) in nfa.states() {
            for cs in ste.charsets() {
                signature.push(cs.contains(sym));
            }
        }
        let rep = *seen.entry(signature).or_insert(sym as u8);
        reps[sym as usize] = rep;
    }
    reps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The full conformance matrix — byte-class reduction, specialized
    /// encodings, and prefilter all enabled — agrees with the reference
    /// oracle. A divergence is shrunk to a local minimum first, so the
    /// emitted reproducer is small.
    #[test]
    fn pipeline_matrix_conforms_to_oracle(case in 0u64..4096) {
        let options = FuzzOptions::default();
        let (nfa, input) = generate_case(&options, case);
        if let Err(first) = check_pipelines(&nfa, &input) {
            let (small_nfa, small_input) =
                shrink(nfa, input, |n, i| check_pipelines(n, i).is_err());
            let divergence = check_pipelines(&small_nfa, &small_input)
                .err()
                .unwrap_or(first);
            let path = emit_reproducer(
                case,
                &small_nfa,
                &small_input,
                divergence.config,
                divergence.engine,
                divergence.detail.clone(),
            );
            prop_assert!(
                false,
                "case {case} diverged from the oracle: {divergence}; \
                 reproducer written to {}",
                path.display(),
            );
        }
    }

    /// Byte-class soundness, end to end: replacing every input byte with
    /// its class representative (computed from the automaton's charsets,
    /// not from the engine tables) must leave the `(position, report id)`
    /// trace of every configuration × engine untouched.
    #[test]
    fn class_representative_substitution_preserves_traces(case in 0u64..4096) {
        let options = FuzzOptions::default();
        let (nfa, input) = generate_case(&options, case);
        let reps = class_representatives(&nfa);
        let substituted: Vec<u8> = input.iter().map(|&b| reps[b as usize]).collect();
        for config in PipelineConfig::ALL {
            let (transformed, _map) = config.apply(&nfa).expect("transform");
            for kind in EngineKind::ALL {
                let original = run_positions(&transformed, kind, &input);
                let collapsed = run_positions(&transformed, kind, &substituted);
                if original != collapsed {
                    let path = emit_reproducer(
                        case,
                        &nfa,
                        &input,
                        config.name(),
                        kind.name(),
                        format!(
                            "class-representative input changed the trace: \
                             {} events vs {}",
                            original.len(),
                            collapsed.len(),
                        ),
                    );
                    prop_assert!(
                        false,
                        "case {case}: byte-class collapse diverged under {} / {}; \
                         reproducer written to {}",
                        config.name(),
                        kind.name(),
                        path.display(),
                    );
                }
            }
        }
    }

    /// Prefilter and quiet-step transparency: the whole-stream `run`
    /// entry (which may skip provably idle cycles and drop activity
    /// callbacks for trace sinks) and `run_budgeted` under a budget that
    /// never fires both produce the byte-identical report trace of an
    /// explicit per-cycle `step` loop, which can never skip.
    #[test]
    fn prefiltered_run_matches_stepwise_run(case in 0u64..4096) {
        let options = FuzzOptions::default();
        let (nfa, input) = generate_case(&options, case);
        let check_every = 1 + (case % 97) as u32;
        for config in PipelineConfig::ALL {
            let (transformed, _map) = config.apply(&nfa).expect("transform");
            for kind in EngineKind::ALL {
                let whole = run_whole(&transformed, kind, &input);
                let budgeted = run_budgeted(&transformed, kind, &input, check_every);
                let stepwise = run_stepwise(&transformed, kind, &input);
                if whole != stepwise || budgeted != stepwise {
                    let path = emit_reproducer(
                        case,
                        &nfa,
                        &input,
                        config.name(),
                        kind.name(),
                        format!(
                            "prefiltered run has {} events, budgeted run (check_every \
                             {check_every}) {}, stepwise {}",
                            whole.len(),
                            budgeted.len(),
                            stepwise.len(),
                        ),
                    );
                    prop_assert!(
                        false,
                        "case {case}: run/step divergence under {} / {}; \
                         reproducer written to {}",
                        config.name(),
                        kind.name(),
                        path.display(),
                    );
                }
            }
        }
    }
}
