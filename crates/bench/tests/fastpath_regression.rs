//! Regression locks for the single-stream fast path.
//!
//! Two behaviors pinned here were observable bugs before the fast path
//! landed: the adaptive selector used to take a *losing* dense switch on
//! Brill (the dense twin is ~6x slower per cycle there, yet the old
//! cost-model fit — calibrated against the slower pre-fast-path sparse
//! engine — modeled it as a win), and the prefilter's skip accounting is
//! the foundation of the suite's wall-clock numbers, so its telemetry
//! counter must agree with a hand-computed input exactly.
//!
//! The telemetry test owns the process-global recorder; keep it the only
//! test in this binary that calls `sunder_telemetry::init`.

use sunder_automata::regex::compile_regex;
use sunder_automata::InputView;
use sunder_sim::{AdaptiveEngine, EngineKind, Simulator, TraceSink};
use sunder_workloads::{Benchmark, Scale};

/// Brill is sparse-friendly: moderate frontier (avg ≈ 1.3 active states)
/// against a 1263-state automaton whose dense state vector is 20 words.
/// The refitted cost model must keep the adaptive engine sparse for the
/// whole run — before the refit it entered dense and ran ~4x slower
/// than the sparse engine on the same input.
#[test]
fn brill_adaptive_never_takes_a_losing_dense_switch() {
    let w = Benchmark::Brill.build(Scale::small());
    let view = InputView::new(&w.input, w.nfa.symbol_bits(), w.nfa.stride()).expect("framing");

    let mut adaptive = AdaptiveEngine::new(&w.nfa);
    let mut adaptive_trace = TraceSink::new();
    adaptive.run(&view, &mut adaptive_trace);
    assert_eq!(
        adaptive.switch_count(),
        0,
        "the cost model must never model Brill's 20-word dense step as \
         cheaper than its ~1.3-candidate sparse step"
    );
    assert!(adaptive.degrade_reason().is_none());

    // Staying sparse must not be a trace-visible decision.
    let mut sparse = Simulator::new(&w.nfa);
    let mut sparse_trace = TraceSink::new();
    sparse.run(&view, &mut sparse_trace);
    assert_eq!(adaptive_trace.events, sparse_trace.events);
    assert!(
        !adaptive_trace.events.is_empty(),
        "Brill must actually report, or the equality above is vacuous"
    );
}

/// The `prefilter_skipped_total` counter must match the same hand
/// simulation that pins `Simulator::prefilter_skipped`, the subset-cache
/// counters the transitions it computed, and the build-time
/// `state_encodings_total{kind}` histogram must reflect the automaton's
/// charsets. A stream of ever-new frontiers counts one subset fallback.
#[test]
fn prefilter_and_encoding_telemetry_match_hand_computed_input() {
    // "ab" unanchored: the only all-input start accepts 'a', so the LUT
    // is exactly {'a'}. Hand simulation of b"xxxxabxxxa":
    //   cycles 0-3  'x' with empty frontier  -> skipped (4)
    //   cycle  4    'a' LUT hit              -> stepped
    //   cycle  5    'b', frontier non-empty  -> stepped, reports
    //   cycle  6    'x', frontier non-empty  -> stepped, frontier dies
    //   cycles 7-8  'x' with empty frontier  -> skipped (2)
    //   cycle  9    'a' LUT hit              -> stepped
    // The steps run through the subset cache: cycles 4-6 compute the
    // transitions {} -a-> {a} -b-> {b} -x-> {} (three misses), and cycle 9
    // finds the first one cached.
    let nfa = compile_regex("ab", 0).expect("compile");
    let input = InputView::new(b"xxxxabxxxa", 8, 1).expect("framing");

    sunder_telemetry::init(sunder_telemetry::Config::metrics());
    let mut engine = EngineKind::Sparse.build(&nfa);
    let mut trace = TraceSink::new();
    engine.run(&input, &mut trace);
    let dump = sunder_telemetry::finish().expect("telemetry session");

    assert_eq!(trace.cycle_id_pairs(), vec![(5, 0)]);
    assert_eq!(
        dump.metrics.counter("prefilter_skipped_total", &[]),
        Some(6),
        "4 + 2 skipped cycles"
    );
    assert_eq!(
        dump.metrics.counter("subset_cache_misses_total", &[]),
        Some(3)
    );
    assert_eq!(dump.metrics.counter("subset_fallbacks_total", &[]), None);
    // Both states ('a' and 'b') hold single-symbol charsets.
    assert_eq!(
        dump.metrics
            .counter("state_encodings_total", &[("kind", "one")]),
        Some(2)
    );

    // A stream that reaches a new frontier almost every cycle leaves the
    // subset cache for the sparse step once, and says so.
    // "X.." for 40 letters X: the frontier spells the last three bytes.
    let letters = &b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmn"[..];
    let patterns: Vec<String> = letters
        .iter()
        .map(|&c| format!("{}..", c as char))
        .collect();
    let nfa = sunder_automata::regex::compile_rule_set(&patterns).expect("compile");
    let mut x = 7u32;
    let text: Vec<u8> = (0..20_000)
        .map(|_| {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            letters[(x >> 16) as usize % letters.len()]
        })
        .collect();
    let input = InputView::new(&text, 8, 1).expect("framing");

    sunder_telemetry::init(sunder_telemetry::Config::metrics());
    let mut engine = EngineKind::Sparse.build(&nfa);
    let mut trace = TraceSink::new();
    engine.run(&input, &mut trace);
    let dump = sunder_telemetry::finish().expect("telemetry session");

    assert_eq!(dump.metrics.counter("subset_fallbacks_total", &[]), Some(1));
    let misses = dump.metrics.counter("subset_cache_misses_total", &[]);
    assert!(misses.is_some_and(|m| m > 50), "{misses:?}");
    let mut stepped = TraceSink::new();
    let mut reference = Simulator::new(&nfa);
    for v in input.iter_ref() {
        reference.step(v.symbols, v.valid, &mut stepped);
    }
    assert_eq!(trace.events, stepped.events);
}
