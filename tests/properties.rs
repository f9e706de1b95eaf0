//! Property-based tests: for arbitrary homogeneous NFAs and inputs, every
//! stage of the pipeline — nibble transformation, temporal striding, and
//! the cycle-level machine — produces exactly the byte automaton's report
//! stream.

use proptest::prelude::*;

use sunder::sim::{Simulator, TraceSink};
use sunder::transform::{PipelineConfig, Rate};
use sunder::{InputView, Nfa, StartKind, StateId, Ste, SunderConfig, SunderMachine, SymbolSet};

/// A compact description of a random automaton.
#[derive(Debug, Clone)]
struct NfaSpec {
    states: Vec<(u8, u8, u8, bool)>, // (charset kind, lo byte, span, report)
    starts: Vec<(u8, bool)>,         // (state index, anchored)
    edges: Vec<(u8, u8)>,
}

/// Alphabet slice used by random charsets and inputs — small enough that
/// matches actually happen.
const ALPHA_LO: u8 = b'a';
const ALPHA_SPAN: u8 = 6;

fn build_nfa(spec: &NfaSpec) -> Nfa {
    let n = spec.states.len();
    let mut nfa = Nfa::new(8);
    for (i, &(kind, lo, span, report)) in spec.states.iter().enumerate() {
        let lo = ALPHA_LO + lo % ALPHA_SPAN;
        let charset = match kind % 3 {
            0 => SymbolSet::singleton(8, u16::from(lo)),
            1 => SymbolSet::range(
                8,
                u16::from(lo),
                u16::from((lo + span % ALPHA_SPAN).min(ALPHA_LO + ALPHA_SPAN - 1)),
            ),
            _ => SymbolSet::full(8),
        };
        let mut ste = Ste::new(charset);
        if report {
            ste = ste.report(i as u32);
        }
        nfa.add_state(ste);
    }
    for &(s, anchored) in &spec.starts {
        let id = StateId(u32::from(s) % n as u32);
        nfa.state_mut(id).set_start_kind(if anchored {
            StartKind::StartOfData
        } else {
            StartKind::AllInput
        });
    }
    for &(a, b) in &spec.edges {
        nfa.add_edge(
            StateId(u32::from(a) % n as u32),
            StateId(u32::from(b) % n as u32),
        );
    }
    nfa
}

fn nfa_spec() -> impl Strategy<Value = NfaSpec> {
    let states = prop::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            prop::bool::weighted(0.35),
        ),
        1..10,
    );
    let starts = prop::collection::vec((any::<u8>(), prop::bool::weighted(0.2)), 1..4);
    let edges = prop::collection::vec((any::<u8>(), any::<u8>()), 0..18);
    (states, starts, edges).prop_map(|(states, starts, edges)| NfaSpec {
        states,
        starts,
        edges,
    })
}

fn input_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(ALPHA_LO..ALPHA_LO + ALPHA_SPAN, 0..48)
}

/// Byte-position report set of a run at any width/stride.
fn positions(nfa: &Nfa, input: &[u8]) -> Vec<(u64, u32)> {
    let view = InputView::new(input, nfa.symbol_bits(), nfa.stride()).unwrap();
    let mut sim = Simulator::new(nfa);
    let mut trace = TraceSink::new();
    sim.run(&view, &mut trace);
    trace
        .position_id_pairs(nfa.stride())
        .into_iter()
        .map(|(pos, id)| {
            if nfa.symbol_bits() == 4 {
                ((pos - 1) / 2, id)
            } else {
                (pos, id)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn transformation_preserves_reports(spec in nfa_spec(), input in input_bytes()) {
        let nfa = build_nfa(&spec);
        prop_assume!(nfa.validate().is_ok());
        let expected = positions(&nfa, &input);
        for rate in Rate::ALL {
            let (strided, _) = PipelineConfig::from(rate).apply(&nfa).unwrap();
            prop_assert!(strided.validate().is_ok());
            let got = positions(&strided, &input);
            prop_assert_eq!(&got, &expected, "rate {}", rate);
        }
    }

    #[test]
    fn machine_matches_simulator(spec in nfa_spec(), input in input_bytes()) {
        let nfa = build_nfa(&spec);
        let (strided, _) = PipelineConfig::Stride4.apply(&nfa).unwrap();
        prop_assume!(strided.num_states() > 0);
        let view = InputView::new(&input, 4, 4).unwrap();

        let mut sim = Simulator::new(&strided);
        let mut sim_trace = TraceSink::new();
        sim.run(&view, &mut sim_trace);

        let mut machine =
            SunderMachine::new(&strided, SunderConfig::with_rate(Rate::Nibble4)).unwrap();
        let mut hw_trace = TraceSink::new();
        machine.run(&view, &mut hw_trace);

        let mut a = sim_trace.events;
        let mut b = hw_trace.events;
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn minimization_is_semantics_preserving(spec in nfa_spec(), input in input_bytes()) {
        let nfa = build_nfa(&spec);
        let mut minimized = nfa.clone();
        sunder::automata::minimize::merge_equivalent_states(&mut minimized);
        prop_assert!(minimized.validate().is_ok());
        prop_assert!(minimized.num_states() <= nfa.num_states());
        prop_assert_eq!(positions(&minimized, &input), positions(&nfa, &input));
    }

    #[test]
    fn dfa_agrees_with_nfa(spec in nfa_spec(), input in input_bytes()) {
        let nfa = build_nfa(&spec);
        // Reports must be deduplicated per (cycle, id): several NFA states
        // with the same report id collapse into one DFA report.
        let mut expected: Vec<(u64, u32)> = {
            let view = InputView::new(&input, 8, 1).unwrap();
            let mut sim = Simulator::new(&nfa);
            let mut trace = TraceSink::new();
            sim.run(&view, &mut trace);
            trace.events.iter().map(|e| (e.cycle, e.info.id)).collect()
        };
        expected.sort_unstable();
        expected.dedup();
        if let Ok(dfa) = sunder::automata::dfa::Dfa::determinize(&nfa, 1 << 14) {
            let mut got = dfa.scan(&input).unwrap();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn serialization_round_trips(spec in nfa_spec()) {
        let nfa = build_nfa(&spec);
        let text = sunder::automata::anml::serialize(&nfa);
        let parsed = sunder::automata::anml::parse(&text).unwrap();
        prop_assert_eq!(nfa, parsed);
    }
}
