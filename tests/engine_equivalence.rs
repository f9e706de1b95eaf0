//! Engine equivalence over the full benchmark suite: the sparse, dense
//! bit-parallel, and adaptive engines must produce byte-identical report
//! traces on every suite workload. This is the correctness gate behind
//! the adaptive selector — switching representation mid-stream must never
//! change what is reported, or when — and behind the served path, which
//! runs every engine under the daemon's budget.

use sunder::resilience::{Budget, CancelToken, RunOutcome, StopReason};
use sunder::sim::{EngineKind, TraceSink};
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
