//! Seeded structured fuzzing of the full pipeline matrix.
//!
//! Each case generates an automaton — alternating between random regexes
//! (compiled through the production Glushkov compiler) and directly
//! constructed random NFAs (which reach shapes no regex produces: multiple
//! start kinds, dense edge meshes, empty charsets) — plus an input biased
//! toward the automaton's own alphabet, and runs [`check_pipelines`] over
//! it. A divergence is shrunk to a locally minimal `(automaton, input)`
//! pair — greedy input chunk removal (delta debugging) interleaved with
//! per-state removal — and rendered as a self-contained reproducer file:
//! ANML text plus an `# input-hex:` comment line, replayable with
//! `conformance --replay FILE`.
//!
//! Everything is deterministic in the seed: each case derives its own RNG
//! from `seed` and the case index, so a reported case can be regenerated
//! without replaying its predecessors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sunder_automata::{anml, AutomataError, Nfa, StartKind, Ste, SymbolSet};
use sunder_resilience::{corrupt, Fault, FaultKind, FaultPlan, SplitMix64};

use crate::check::{check_pipelines, Divergence};

/// Fuzzer parameters. [`Default`] matches the CI conformance job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzOptions {
    /// Master seed; every case derives a private RNG from it.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: u64,
    /// Maximum state count for directly generated automata.
    pub max_states: usize,
    /// Maximum input length in bytes.
    pub max_input_len: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 42,
            cases: 200,
            max_states: 8,
            max_input_len: 48,
        }
    }
}

/// One shrunk conformance failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Index of the fuzz case that found it.
    pub case: u64,
    /// The minimal diverging automaton.
    pub nfa: Nfa,
    /// The minimal diverging input.
    pub input: Vec<u8>,
    /// The divergence the minimal pair still exhibits.
    pub divergence: Box<Divergence>,
}

/// Result of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Cases executed.
    pub cases: u64,
    /// All failures found, already shrunk.
    pub failures: Vec<Failure>,
}

/// Runs the fuzzer. Deterministic in `options.seed`.
pub fn run_fuzz(options: &FuzzOptions) -> FuzzOutcome {
    run_fuzz_with_plan(options, &FaultPlan::none())
}

/// Builds a corruption-only [`FaultPlan`] for a fuzz run: roughly one
/// case in four gets its generated input bytes deterministically
/// bit-flipped before the pipeline check. Corruption never changes what
/// *correct* engines should compute — every configuration still sees the
/// same (corrupted) bytes — so the oracle must stay green; what it adds
/// is coverage of adversarial inputs outside the alphabet-biased
/// generator's distribution.
pub fn corruption_plan(seed: u64, cases: u64) -> FaultPlan {
    let mut rng = SplitMix64::new(seed);
    let mut faults = Vec::new();
    for case in 0..cases {
        if rng.next().is_multiple_of(4) {
            faults.push(Fault {
                item: case as usize,
                kind: FaultKind::CorruptInput { seed: rng.next() },
            });
        }
    }
    FaultPlan::new(seed, faults)
}

/// [`run_fuzz`] replaying a [`FaultPlan`]: any `corrupt-input` fault whose
/// item index matches a case number corrupts that case's generated input
/// before conformance checking. Other fault kinds target the supervised
/// suite runner, not the oracle, and are ignored here. Deterministic in
/// `(options.seed, plan)`.
pub fn run_fuzz_with_plan(options: &FuzzOptions, plan: &FaultPlan) -> FuzzOutcome {
    let mut outcome = FuzzOutcome {
        cases: options.cases,
        ..FuzzOutcome::default()
    };
    for case in 0..options.cases {
        let (nfa, mut input) = generate_case(options, case);
        for kind in plan.faults_for(case as usize) {
            if let FaultKind::CorruptInput { seed } = kind {
                corrupt(&mut input, *seed);
            }
        }
        if let Err(first) = check_pipelines(&nfa, &input) {
            let (nfa, input) = shrink(nfa, input, |n, i| check_pipelines(n, i).is_err());
            let divergence = check_pipelines(&nfa, &input).err().unwrap_or(first);
            outcome.failures.push(Failure {
                case,
                nfa,
                input,
                divergence,
            });
        }
    }
    outcome
}

/// Generates case `case` of a run — public so a failure report's case
/// index is enough to regenerate the unshrunk pair.
pub fn generate_case(options: &FuzzOptions, case: u64) -> (Nfa, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(options.seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let nfa = if case.is_multiple_of(2) {
        random_regex_nfa(&mut rng)
    } else {
        random_nfa(&mut rng, options.max_states)
    };
    let input = random_input(&mut rng, &nfa, options.max_input_len);
    (nfa, input)
}

/// A small alphabet keeps patterns and inputs colliding often enough to
/// exercise overlap, restart, and dedup paths.
const ALPHABET: &[u8] = b"abcx";

fn random_regex_nfa(rng: &mut StdRng) -> Nfa {
    let count = rng.random_range(1..=2usize);
    let patterns: Vec<String> = (0..count).map(|_| random_pattern(rng)).collect();
    sunder_automata::regex::compile_rule_set(&patterns)
        .unwrap_or_else(|_| sunder_automata::regex::compile_rule_set(&["ab"]).expect("literal"))
}

fn random_pattern(rng: &mut StdRng) -> String {
    let mut p = String::new();
    if rng.random_range(0..5u32) == 0 {
        p.push('^');
    }
    // A `.*` head: unanchored, it is the always-on state that
    // `drop_start_subsumed` deletes; anchored, the pass must keep it.
    if rng.random_range(0..4u32) == 0 {
        p.push_str(".*");
    }
    random_term(rng, &mut p, 2);
    p
}

fn random_term(rng: &mut StdRng, out: &mut String, depth: u32) {
    let pieces = rng.random_range(1..=3usize);
    for _ in 0..pieces {
        random_piece(rng, out, depth);
    }
}

fn random_piece(rng: &mut StdRng, out: &mut String, depth: u32) {
    let atom_only = depth == 0;
    match rng.random_range(0..if atom_only { 5u32 } else { 7u32 }) {
        0..=2 => out.push(ALPHABET[rng.random_range(0..ALPHABET.len())] as char),
        3 => {
            // A character class over the alphabet, possibly negated.
            out.push('[');
            if rng.random_range(0..4u32) == 0 {
                out.push('^');
            }
            let members = rng.random_range(1..=3usize);
            for _ in 0..members {
                out.push(ALPHABET[rng.random_range(0..ALPHABET.len())] as char);
            }
            out.push(']');
        }
        4 => out.push('.'),
        5 => {
            // Grouped subterm with a postfix operator.
            out.push('(');
            random_term(rng, out, depth - 1);
            out.push(')');
            match rng.random_range(0..4u32) {
                0 => out.push('+'),
                1 => out.push('?'),
                2 => out.push_str("{2}"),
                _ => {}
            }
        }
        _ => {
            // Alternation of two subterms.
            out.push('(');
            random_term(rng, out, depth - 1);
            out.push('|');
            random_term(rng, out, depth - 1);
            out.push(')');
        }
    }
    // Postfix repetition on whatever was just emitted is handled above for
    // groups; bare atoms get one with low probability.
    if rng.random_range(0..6u32) == 0 {
        match rng.random_range(0..3u32) {
            0 => out.push('+'),
            1 => out.push('?'),
            _ => out.push_str("{1,2}"),
        }
    }
}

fn random_charset(rng: &mut StdRng) -> SymbolSet {
    match rng.random_range(0..10u32) {
        0..=3 => SymbolSet::singleton(8, u16::from(ALPHABET[rng.random_range(0..ALPHABET.len())])),
        4..=5 => {
            let lo: u16 = rng.random_range(0x60..0x68);
            let hi: u16 = rng.random_range(lo..=0x6A);
            SymbolSet::range(8, lo, hi)
        }
        6..=7 => {
            let mut s = SymbolSet::empty(8);
            for _ in 0..rng.random_range(1..=4usize) {
                s.insert(u16::from(rng.random_range(0x20..0x80u8)));
            }
            s
        }
        8 => SymbolSet::full(8),
        _ => SymbolSet::empty(8),
    }
}

fn random_nfa(rng: &mut StdRng, max_states: usize) -> Nfa {
    let n = rng.random_range(1..=max_states.max(1));
    let mut nfa = Nfa::new(8);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let mut ste = Ste::new(random_charset(rng));
        let kind = if i == 0 {
            StartKind::AllInput
        } else {
            match rng.random_range(0..8u32) {
                0 => StartKind::StartOfData,
                1 => StartKind::AllInput,
                _ => StartKind::None,
            }
        };
        ste = ste.start(kind);
        if rng.random_range(0..3u32) == 0 {
            ste = ste.report(rng.random_range(0..4u32));
        }
        ids.push(nfa.add_state(ste));
    }
    // Ensure the automaton can report at all.
    if nfa.report_states().is_empty() {
        let victim = ids[rng.random_range(0..ids.len())];
        nfa.state_mut(victim)
            .add_report(sunder_automata::ReportInfo::new(0));
    }
    for &from in &ids {
        for &to in &ids {
            if rng.random_range(0..4u32) == 0 {
                nfa.add_edge(from, to);
            }
        }
    }
    nfa
}

fn random_input(rng: &mut StdRng, nfa: &Nfa, max_len: usize) -> Vec<u8> {
    // Pool the automaton's own alphabet so inputs actually drive it.
    let mut pool: Vec<u8> = Vec::new();
    for (_, ste) in nfa.states() {
        for cs in ste.charsets() {
            for sym in cs.iter().take(8) {
                if let Ok(b) = u8::try_from(sym) {
                    pool.push(b);
                }
            }
        }
    }
    if pool.is_empty() {
        pool.extend_from_slice(ALPHABET);
    }
    let len = rng.random_range(0..=max_len);
    (0..len)
        .map(|_| {
            if rng.random_range(0..4u32) < 3 {
                pool[rng.random_range(0..pool.len())]
            } else {
                rng.random::<u8>()
            }
        })
        .collect()
}

/// Shrinks a diverging pair to a local minimum under `diverges`,
/// alternating input chunk removal and state removal until neither makes
/// progress. The predicate is a parameter so the machinery is testable
/// without a real pipeline bug.
pub fn shrink<F>(mut nfa: Nfa, mut input: Vec<u8>, diverges: F) -> (Nfa, Vec<u8>)
where
    F: Fn(&Nfa, &[u8]) -> bool,
{
    loop {
        let input_changed = shrink_input(&nfa, &mut input, &diverges);
        let states_changed = shrink_states(&mut nfa, &input, &diverges);
        if !input_changed && !states_changed {
            return (nfa, input);
        }
    }
}

fn shrink_input<F>(nfa: &Nfa, input: &mut Vec<u8>, diverges: &F) -> bool
where
    F: Fn(&Nfa, &[u8]) -> bool,
{
    let mut changed = false;
    let mut chunk = (input.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i + chunk <= input.len() {
            let mut candidate = input.clone();
            candidate.drain(i..i + chunk);
            if diverges(nfa, &candidate) {
                *input = candidate;
                changed = true;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            return changed;
        }
        chunk /= 2;
    }
}

fn shrink_states<F>(nfa: &mut Nfa, input: &[u8], diverges: &F) -> bool
where
    F: Fn(&Nfa, &[u8]) -> bool,
{
    let mut changed = false;
    let mut i = 0;
    while i < nfa.num_states() {
        let mut keep = vec![true; nfa.num_states()];
        keep[i] = false;
        let mut candidate = nfa.clone();
        candidate.retain_states(&keep);
        if candidate.num_states() > 0 && diverges(&candidate, input) {
            *nfa = candidate;
            changed = true;
        } else {
            i += 1;
        }
    }
    changed
}

/// Renders a failure as a self-contained reproducer: comment metadata
/// (including the input as hex) followed by the automaton in ANML text.
pub fn render_reproducer(failure: &Failure) -> String {
    let mut out = String::new();
    out.push_str("# sunder-oracle reproducer\n");
    out.push_str(&format!("# case: {}\n", failure.case));
    out.push_str(&format!("# divergence: {}\n", failure.divergence));
    out.push_str(&format!("# input-hex: {}\n", hex_encode(&failure.input)));
    out.push_str(&anml::serialize(&failure.nfa));
    out
}

/// Parses a reproducer file back into its `(automaton, input)` pair.
///
/// # Errors
///
/// Returns a parse error for malformed hex or malformed ANML.
pub fn parse_reproducer(text: &str) -> Result<(Nfa, Vec<u8>), AutomataError> {
    let mut input = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if let Some(rest) = line.trim().strip_prefix("# input-hex:") {
            input = hex_decode(rest.trim()).map_err(|message| AutomataError::Parse {
                line: idx + 1,
                message,
            })?;
        }
    }
    let nfa = anml::parse(text)?;
    Ok((nfa, input))
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("input-hex has odd length".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16)
                .map_err(|_| format!("invalid hex byte {:?}", &s[i..i + 2]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let options = FuzzOptions::default();
        for case in 0..6 {
            let (a_nfa, a_input) = generate_case(&options, case);
            let (b_nfa, b_input) = generate_case(&options, case);
            assert_eq!(a_nfa, b_nfa);
            assert_eq!(a_input, b_input);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_case(&FuzzOptions::default(), 1);
        let b = generate_case(
            &FuzzOptions {
                seed: 43,
                ..FuzzOptions::default()
            },
            1,
        );
        assert!(a != b);
    }

    #[test]
    fn generated_automata_are_valid() {
        let options = FuzzOptions::default();
        for case in 0..20 {
            let (nfa, input) = generate_case(&options, case);
            assert!(nfa.validate().is_ok(), "case {case}");
            assert!(input.len() <= options.max_input_len);
            assert_eq!(nfa.symbol_bits(), 8);
            assert_eq!(nfa.stride(), 1);
        }
    }

    #[test]
    fn small_fuzz_run_is_clean() {
        let outcome = run_fuzz(&FuzzOptions {
            cases: 10,
            ..FuzzOptions::default()
        });
        assert_eq!(outcome.cases, 10);
        assert!(
            outcome.failures.is_empty(),
            "unexpected divergence: {}",
            outcome.failures[0].divergence
        );
    }

    #[test]
    fn corruption_plan_is_deterministic_and_corrupt_only() {
        let a = corruption_plan(7, 40);
        let b = corruption_plan(7, 40);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "seed 7 over 40 cases must fault something");
        assert!(a
            .faults
            .iter()
            .all(|f| matches!(f.kind, FaultKind::CorruptInput { .. })));
        // Round-trips through the serialized plan format.
        let back = FaultPlan::from_text(&a.to_text()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn fuzz_under_corruption_plan_stays_clean() {
        // Corruption changes the input, never the expected behavior: all
        // configurations see the same corrupted bytes, so conformance
        // must hold. This is the fault-plan replay mode CI exercises.
        let options = FuzzOptions {
            cases: 12,
            ..FuzzOptions::default()
        };
        let plan = corruption_plan(9, options.cases);
        let outcome = run_fuzz_with_plan(&options, &plan);
        assert_eq!(outcome.cases, 12);
        assert!(
            outcome.failures.is_empty(),
            "corrupted-input divergence: {}",
            outcome.failures[0].divergence
        );
    }

    #[test]
    fn corrupt_input_fault_actually_mutates_the_case() {
        let options = FuzzOptions::default();
        // Find a planned case whose generated input is non-empty.
        let plan = corruption_plan(3, 64);
        let fault = plan
            .faults
            .iter()
            .find(|f| !generate_case(&options, f.item as u64).1.is_empty())
            .expect("some faulted case has input");
        let (_, clean) = generate_case(&options, fault.item as u64);
        let mut corrupted = clean.clone();
        if let FaultKind::CorruptInput { seed } = fault.kind {
            corrupt(&mut corrupted, seed);
        }
        assert_ne!(clean, corrupted);
    }

    #[test]
    fn shrinker_reaches_local_minimum() {
        // Synthetic "bug": diverges while the input still contains a `z`
        // and the automaton still has at least 2 states.
        let (nfa, _) = generate_case(
            &FuzzOptions {
                max_states: 6,
                ..FuzzOptions::default()
            },
            3, // odd case: directly generated NFA
        );
        assert!(nfa.num_states() >= 1);
        let input = b"aaazbbbzccc".to_vec();
        let diverges =
            |n: &Nfa, i: &[u8]| i.contains(&b'z') && (nfa.num_states() < 2 || n.num_states() >= 2);
        let (small_nfa, small_input) = shrink(nfa.clone(), input, diverges);
        assert_eq!(small_input, b"z");
        if nfa.num_states() >= 2 {
            assert_eq!(small_nfa.num_states(), 2);
        }
    }

    #[test]
    fn reproducer_round_trips() {
        let (nfa, input) = generate_case(&FuzzOptions::default(), 5);
        let failure = Failure {
            case: 5,
            nfa: nfa.clone(),
            input: input.clone(),
            divergence: Box::new(Divergence {
                config: "stride2",
                engine: "dense",
                detail: "synthetic".into(),
                missing: Vec::new(),
                spurious: Vec::new(),
            }),
        };
        let text = render_reproducer(&failure);
        let (back_nfa, back_input) = parse_reproducer(&text).unwrap();
        assert_eq!(back_nfa, nfa);
        assert_eq!(back_input, input);
    }

    #[test]
    fn hex_rejects_garbage() {
        assert!(hex_decode("0").is_err());
        assert!(hex_decode("zz").is_err());
        assert_eq!(hex_decode("00ff").unwrap(), vec![0, 255]);
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
    }
}
