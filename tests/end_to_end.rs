//! Cross-crate integration: the full pipeline from byte patterns to the
//! cycle-level machine agrees with the functional simulator, at every
//! processing rate, on calibrated benchmark workloads.

use sunder::automata::regex::compile_rule_set;
use sunder::sim::{Simulator, TraceSink};
use sunder::transform::PipelineConfig;
use sunder::{Benchmark, Engine, InputView, Rate, Scale, SunderConfig, SunderMachine};

/// Byte-position report pairs from any (width, stride) run.
fn positions(nfa: &sunder::Nfa, input: &[u8]) -> Vec<(u64, u32)> {
    let view = InputView::new(input, nfa.symbol_bits(), nfa.stride()).unwrap();
    let mut sim = Simulator::new(nfa);
    let mut trace = TraceSink::new();
    sim.run(&view, &mut trace);
    trace
        .position_id_pairs(nfa.stride())
        .into_iter()
        .map(|(pos, id)| {
            if nfa.symbol_bits() == 4 {
                assert_eq!(pos % 2, 1, "nibble report at high-nibble position");
                ((pos - 1) / 2, id)
            } else {
                (pos, id)
            }
        })
        .collect()
}

#[test]
fn benchmark_pipeline_equivalence_at_all_rates() {
    // Tiny scales keep this under a second per benchmark while still
    // exercising triggers, hot classes, meshes, and dotstars.
    let scale = Scale {
        state_fraction: 0.01,
        input_len: 2_000,
    };
    for bench in [
        Benchmark::Bro217,
        Benchmark::Snort,
        Benchmark::Dotstar06,
        Benchmark::Hamming,
        Benchmark::Levenshtein,
        Benchmark::Spm,
    ] {
        let w = bench.build(scale);
        let expected = positions(&w.nfa, &w.input);
        for rate in Rate::ALL {
            let (strided, _) = PipelineConfig::from(rate).apply(&w.nfa).unwrap();
            let got = positions(&strided, &w.input);
            assert_eq!(got, expected, "{bench} diverged at {rate}");
        }
    }
}

#[test]
fn machine_equals_simulator_on_benchmarks() {
    let scale = Scale {
        state_fraction: 0.01,
        input_len: 2_000,
    };
    for bench in [Benchmark::Snort, Benchmark::Brill, Benchmark::Ranges05] {
        let w = bench.build(scale);
        let (strided, _) = PipelineConfig::Stride4.apply(&w.nfa).unwrap();
        let view = InputView::new(&w.input, 4, 4).unwrap();

        let mut sim = Simulator::new(&strided);
        let mut sim_trace = TraceSink::new();
        sim.run(&view, &mut sim_trace);

        let config = SunderConfig::with_rate(Rate::Nibble4).fifo(true);
        let mut machine = SunderMachine::new(&strided, config).unwrap();
        let mut hw_trace = TraceSink::new();
        machine.run(&view, &mut hw_trace);

        let mut a = sim_trace.events;
        let mut b = hw_trace.events;
        a.sort();
        b.sort();
        assert_eq!(a, b, "{bench}: machine vs simulator");
    }
}

#[test]
fn engine_results_are_rate_invariant() {
    let rules = ["ab+c", ".*xyz[0-9]", "^hdr", "tail$?"];
    // '$?' is a literal here ('$' unsupported as anchor) — drop that rule.
    let rules = &rules[..3];
    let input = b"hdr abc abbbc zz xyz7 abc";
    let mut outcomes = Vec::new();
    for rate in Rate::ALL {
        let engine = Engine::builder().rate(rate).build();
        let program = engine.compile_patterns(rules).unwrap();
        let mut session = engine.load(&program).unwrap();
        let outcome = session.run(input).unwrap();
        outcomes.push((outcome.reports, outcome.matched_rules));
    }
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[1], outcomes[2]);
    assert!(outcomes[0].0 >= 4);
}

#[test]
fn textual_format_round_trips_through_pipeline() {
    let rules = compile_rule_set(&["net[0-9]+", "host"]).unwrap();
    let text = sunder::automata::anml::serialize(&rules);
    let parsed = sunder::automata::anml::parse(&text).unwrap();
    assert_eq!(rules, parsed);

    // And the parsed automaton still runs through the whole stack.
    let engine = Engine::default();
    let program = engine.compile_nfa(&parsed).unwrap();
    let mut session = engine.load(&program).unwrap();
    let outcome = session.run(b"net42 on host").unwrap();
    assert_eq!(outcome.matched_rules.len(), 2);
}

#[test]
fn strided_serialization_round_trips() {
    let rules = compile_rule_set(&["abc[0-9]"]).unwrap();
    let (strided, _) = PipelineConfig::Stride4.apply(&rules).unwrap();
    let text = sunder::automata::anml::serialize(&strided);
    let parsed = sunder::automata::anml::parse(&text).unwrap();
    assert_eq!(strided, parsed);
}
