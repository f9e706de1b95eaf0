//! Engine equivalence over the full benchmark suite: the sparse, dense
//! bit-parallel, and adaptive engines must produce byte-identical report
//! traces on every suite workload. This is the correctness gate behind
//! the adaptive selector — switching representation mid-stream must never
//! change what is reported, or when — and behind the served path, which
//! runs every engine under the daemon's budget.

use sunder::automata::regex::compile_rule_set;
use sunder::oracle::PipelineConfig;
use sunder::resilience::{Budget, CancelToken, RunOutcome, StopReason};
use sunder::sim::{EngineKind, EngineState, Simulator, TraceSink};
use sunder::{Benchmark, InputView, Scale};

/// Small enough to keep the 19 x 3 sweep in test time, large enough to
/// exercise start-period gating, padding, and mid-stream frontier
/// hand-over in the adaptive engine.
const TEST_SCALE: Scale = Scale {
    state_fraction: 0.02,
    input_len: 4096,
};

#[test]
fn engines_agree_on_all_suite_benchmarks() {
    for bench in Benchmark::ALL {
        let w = bench.build(TEST_SCALE);
        let input = InputView::new(&w.input, 8, 1).expect("byte view");

        let mut reference = None;
        for kind in EngineKind::ALL {
            let mut engine = kind.build(&w.nfa);
            let mut sink = TraceSink::new();
            engine.run(&input, &mut sink);

            // The daemon's per-chunk budget: live token, poll every 64.
            let budget = Budget::with_cancel(CancelToken::new()).check_every(64);
            let mut served = TraceSink::new();
            let outcome = kind
                .build(&w.nfa)
                .run_budgeted(&input, &mut served, &budget);
            assert_eq!(outcome, RunOutcome::Completed, "{kind} on {}", bench.name());
            assert_eq!(
                served.events,
                sink.events,
                "{kind}: budgeted run diverged on benchmark {}",
                bench.name()
            );
            match &reference {
                None => reference = Some((kind, sink.events)),
                Some((ref_kind, ref_events)) => assert_eq!(
                    ref_events,
                    &sink.events,
                    "{:?} and {:?} diverged on benchmark {}",
                    ref_kind,
                    kind,
                    bench.name()
                ),
            }
        }
        let (_, events) = reference.expect("at least one engine ran");
        assert!(
            events.iter().all(|e| (e.cycle as usize) < w.input.len()),
            "reports past end of input on {}",
            bench.name()
        );
    }
}

/// A tripped token still stops every engine at the first poll of the
/// daemon's budget, even on input the prefilter skips: skipped cycles
/// count toward the 64-cycle window like stepped ones.
#[test]
fn tripped_daemon_budget_stops_every_engine_at_the_first_window() {
    let w = Benchmark::ExactMatch.build(TEST_SCALE);
    let input = InputView::new(&w.input, 8, 1).expect("byte view");
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::with_cancel(token).check_every(64);
    for kind in EngineKind::ALL {
        let outcome = kind
            .build(&w.nfa)
            .run_budgeted(&input, &mut TraceSink::new(), &budget);
        let expected = RunOutcome::Interrupted {
            at_cycle: 64,
            reason: StopReason::Cancelled,
        };
        assert_eq!(outcome, expected, "{kind}");
    }
}

/// The adaptive engine must also agree when driven cycle-by-cycle through
/// the `step` API (the suite above uses the batched `run` path).
#[test]
fn adaptive_step_api_matches_run() {
    let bench = Benchmark::Dotstar03;
    let w = bench.build(TEST_SCALE);
    let input = InputView::new(&w.input, 8, 1).expect("byte view");

    let mut run_sink = TraceSink::new();
    EngineKind::Adaptive
        .build(&w.nfa)
        .run(&input, &mut run_sink);

    let mut engine = EngineKind::Adaptive.build(&w.nfa);
    let mut step_sink = TraceSink::new();
    for v in input.iter_ref() {
        engine.step(v.symbols, v.valid, &mut step_sink);
    }
    assert_eq!(run_sink.events, step_sink.events);
}

/// A 64 KiB stream of misses with a start planted every 613 bytes (613
/// is prime to 8, 61 and 64, so the plants fall at every offset of the
/// prefilter's 8-cycle blocks and of both budget windows) and on both
/// sides of window edges. `run`, `run_budgeted` at two window sizes and
/// a per-cycle `step` loop must agree on the trace, the clock and the
/// suspended state, for every engine under every config.
#[test]
fn prefiltered_runs_match_stepping_around_blocks_and_windows() {
    let source = compile_rule_set(&["ab", "cd"]).expect("rules compile");
    // An odd length leaves the stride-4 view a partial last cycle.
    let mut bytes: Vec<u8> = (0..(64 << 10) + 1).map(|i| b"zyxw"[i % 4]).collect();
    let edges = (1..40).flat_map(|k| [64 * k - 1, 61 * k - 1, 64 * k + 1]);
    let plants = (0..bytes.len() - 1).step_by(613).chain(edges);
    for (i, at) in plants.enumerate() {
        let plant: &[u8] = [&b"ab"[..], b"a", b"cd", b"b"][i % 4];
        bytes[at..at + plant.len()].copy_from_slice(plant);
    }

    for config in PipelineConfig::ALL {
        let (nfa, _) = config.apply(&source).expect("config applies");
        let input = InputView::new(&bytes, nfa.symbol_bits(), nfa.stride()).expect("view");
        let mut sim = Simulator::new(&nfa);
        sim.run(&input, &mut TraceSink::new());
        // Stride 4 packs two bytes per cycle and a match may begin at
        // the second, so every leading nibble wakes a start there.
        let skips = config != PipelineConfig::Stride4;
        assert_eq!(sim.prefilter_skipped() > 0, skips, "{}", config.name());

        let mut reference: Option<(Vec<_>, u64, EngineState)> = None;
        for kind in EngineKind::ALL {
            let what = format!("{kind} under {}", config.name());
            let mut runs = Vec::new();

            let mut engine = kind.build(&nfa);
            let mut sink = TraceSink::new();
            engine.run(&input, &mut sink);
            runs.push(("run", sink.events, engine));

            for every in [64, 61] {
                let budget = Budget::with_cancel(CancelToken::new()).check_every(every);
                let mut engine = kind.build(&nfa);
                let mut sink = TraceSink::new();
                let outcome = engine.run_budgeted(&input, &mut sink, &budget);
                assert_eq!(outcome, RunOutcome::Completed, "{what}");
                runs.push(("run_budgeted", sink.events, engine));
            }

            let mut engine = kind.build(&nfa);
            let mut sink = TraceSink::new();
            for v in input.iter_ref() {
                engine.step(v.symbols, v.valid, &mut sink);
            }
            runs.push(("step", sink.events, engine));

            for (path, events, engine) in runs {
                let mut state = EngineState::default();
                engine.suspend(&mut state);
                let got = (events, engine.cycle(), state);
                match &reference {
                    None => {
                        assert!(!got.0.is_empty(), "{what}: no reports");
                        reference = Some(got);
                    }
                    Some(want) => assert!(&got == want, "{what}: {path} diverged"),
                }
            }
        }
    }
}
