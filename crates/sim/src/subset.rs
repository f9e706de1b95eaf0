//! Cached-subset stepping: the sparse kernel's lazy DFA.
//!
//! The subarray evaluates every STE against a symbol in one row access; a
//! CPU gets one lookup per symbol only by caching the frontiers the input
//! actually reaches. A cache state is an interned `(frontier, start
//! phase)`: the sorted active set after a cycle plus the next cycle's
//! position in the start period. Its transitions sit in one flat `u32`
//! table indexed `state × byte class`, the ids premultiplied by the row
//! length, and each state keeps the report slice
//! [`Simulator`](crate::Simulator)'s stride-1 step emits for that frontier
//! (ascending state id, then CSR order), so cached stepping is
//! trace-identical to the sparse step.
//!
//! A transition is computed on first use (a *miss*) by the sparse step's
//! own candidate walk over the class's representative symbol. The cache
//! belongs to one stream and grows from zero up to a constant byte
//! budget; overflow clears it. A stream whose warmed-up miss rate stays
//! high, or that overflows repeatedly, falls back to the plain sparse step
//! for the rest of its life: the frontier *is* the subset, so the hand-over
//! is a copy.

use std::collections::HashMap;

use sunder_automata::{ByteClasses, ReportInfo, StateId};

use crate::fastpath::SparseTables;
use crate::sink::ReportEvent;

/// Per-stream cache budget in bytes (transition rows, frontiers, report
/// slices and the intern index).
const BUDGET_BYTES: usize = 1 << 20;

/// Overflows that clear the cache; the next one falls back.
const MAX_CLEARS: u32 = 2;

/// Cached cycles the miss rate is measured over at least: before that
/// many, a stream falls back only past `WARMUP_CYCLES / MISS_DIV` misses.
const WARMUP_CYCLES: u64 = 512;

/// A stream falls back once more than one cycle in `MISS_DIV` missed.
const MISS_DIV: u64 = 8;

/// A transition not computed yet.
pub(crate) const UNKNOWN: u32 = u32::MAX;
/// Entry flag: the target needs the loop's attention (reports or empty).
pub(crate) const TAG: u32 = 1 << 31;
/// Entry flag: the target state reports.
pub(crate) const REPORTS: u32 = 1 << 30;
/// Entry flag: the target's frontier is empty, where the prefilter skip
/// may take over.
pub(crate) const EMPTY: u32 = 1 << 29;
/// The premultiplied state id of an entry.
pub(crate) const INDEX: u32 = EMPTY - 1;

/// One stream's subset cache, carried across its chunks.
///
/// Holds nothing until the stream first steps through it, and nothing
/// again once the stream has fallen back to the sparse step.
#[derive(Clone)]
pub struct SubsetCache {
    budget: usize,
    mode: Mode,
}

#[derive(Clone)]
enum Mode {
    /// Not used yet: nothing allocated.
    Cold,
    Live(Box<Dfa>),
    /// Fallen back (or the automaton is not stride 1 over ≤ 256 symbols).
    Off,
}

impl Default for SubsetCache {
    fn default() -> Self {
        SubsetCache::with_budget(BUDGET_BYTES)
    }
}

impl std::fmt::Debug for SubsetCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SubsetCache");
        match &self.mode {
            Mode::Cold => d.field("mode", &"cold"),
            Mode::Off => d.field("mode", &"off"),
            Mode::Live(dfa) => d
                .field("states", &dfa.states.meta.len())
                .field("bytes", &dfa.states.bytes)
                .field("misses", &dfa.states.misses),
        };
        d.finish()
    }
}

impl SubsetCache {
    /// A cold cache that clears past `budget` bytes.
    pub(crate) fn with_budget(budget: usize) -> SubsetCache {
        SubsetCache {
            budget,
            mode: Mode::Cold,
        }
    }

    /// `true` once the stream runs on the plain sparse step for good.
    #[inline(always)]
    pub(crate) fn is_off(&self) -> bool {
        matches!(self.mode, Mode::Off)
    }

    /// The live cache, built over `classes()` on first use; `None` once
    /// off.
    pub(crate) fn live<'c>(
        &mut self,
        classes: impl FnOnce() -> &'c ByteClasses,
    ) -> Option<&mut Dfa> {
        if let Mode::Cold = self.mode {
            self.mode = Mode::Live(Box::new(Dfa::new(classes(), self.budget)));
        }
        match &mut self.mode {
            Mode::Live(dfa) => Some(dfa),
            _ => None,
        }
    }

    /// Drops the cache for good.
    pub(crate) fn turn_off(&mut self) {
        self.mode = Mode::Off;
    }
}

/// What a miss leaves the stepping loop to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Compute the transition.
    Fill,
    /// The cache was cleared: re-intern the current frontier, then fill.
    Cleared,
    /// Hand the frontier to the sparse step for good.
    FallBack,
}

/// Where one cache state's frontier lives, and its start phase (the
/// position of the next cycle in the start period).
#[derive(Clone, Copy)]
struct Meta {
    phase: u32,
    frontier: (u32, u32),
}

/// Slots a row of the transition table holds past its classes: the
/// state's frontier size and the bounds of its report slice.
const ROW_EXTRA: usize = 3;

/// The lazily built subset automaton of one stream: the class map it
/// reads, apart from the states it grows.
#[derive(Clone)]
pub(crate) struct Dfa {
    /// Symbol → byte class (the automaton's alphabet).
    pub(crate) class_of: Box<[u16]>,
    /// The lowest symbol of each class, stepped on a miss.
    pub(crate) reps: Box<[u16]>,
    pub(crate) states: States,
}

/// The interned states of a [`Dfa`] and their transitions.
#[derive(Clone)]
pub(crate) struct States {
    /// Classes per state.
    width: usize,
    /// `state × (width + ROW_EXTRA) + class` → entry: a premultiplied
    /// target id, tagged when the target reports or is empty; [`UNKNOWN`]
    /// until computed. The row then holds the state's frontier size and
    /// report bounds, read where the row already is in cache.
    pub(crate) trans: Vec<u32>,
    meta: Vec<Meta>,
    frontiers: Vec<StateId>,
    /// Report slices with cycle 0, filled in at delivery.
    reports: Vec<ReportEvent>,
    /// `[phase, frontier ids…]` → tagged premultiplied id.
    index: HashMap<Box<[u32]>, u32>,
    key: Vec<u32>,
    bytes: usize,
    budget: usize,
    clears: u32,
    /// Cycles stepped through the cache, as of the last exit.
    pub(crate) stepped: u64,
    misses: u64,
}

impl Dfa {
    fn new(classes: &ByteClasses, budget: usize) -> Dfa {
        Dfa {
            class_of: classes.row(0).into(),
            reps: classes.representatives(0).into(),
            states: States {
                width: classes.count(0),
                trans: Vec::new(),
                meta: Vec::new(),
                frontiers: Vec::new(),
                reports: Vec::new(),
                index: HashMap::new(),
                key: Vec::new(),
                bytes: 0,
                budget,
                clears: 0,
                stepped: 0,
                misses: 0,
            },
        }
    }
}

impl States {
    fn meta(&self, id: u32) -> &Meta {
        &self.meta[((id & INDEX) / (self.width + ROW_EXTRA) as u32) as usize]
    }

    /// The sorted frontier of state `id`.
    pub(crate) fn frontier(&self, id: u32) -> &[StateId] {
        let (lo, hi) = self.meta(id).frontier;
        &self.frontiers[lo as usize..hi as usize]
    }

    /// The start phase of the cycle state `id` steps next.
    pub(crate) fn phase(&self, id: u32) -> u32 {
        self.meta(id).phase
    }

    /// The frontier size of state `id`.
    #[inline(always)]
    pub(crate) fn frontier_len(&self, id: u32) -> u32 {
        self.trans[id as usize + self.width]
    }

    /// The reports state `id` fires, in the sparse step's order.
    #[inline(always)]
    pub(crate) fn reports(&self, id: u32) -> &[ReportEvent] {
        let at = id as usize + self.width;
        &self.reports[self.trans[at + 1] as usize..self.trans[at + 2] as usize]
    }

    /// Records a miss at `stepped` cycles into the stream. The stream
    /// leaves the cache for the sparse step on a miss rate above
    /// `1 / MISS_DIV` over at least [`WARMUP_CYCLES`] cycles, or on an
    /// overflow past [`MAX_CLEARS`] clears; a full cache short of that is
    /// cleared, dropping every id.
    pub(crate) fn miss(&mut self, stepped: u64) -> Verdict {
        self.misses += 1;
        if self.misses * MISS_DIV > stepped.max(WARMUP_CYCLES) {
            return Verdict::FallBack;
        }
        if self.bytes >= self.budget {
            if self.clears == MAX_CLEARS {
                return Verdict::FallBack;
            }
            self.clears += 1;
            self.trans = Vec::new();
            self.meta = Vec::new();
            self.frontiers = Vec::new();
            self.reports = Vec::new();
            self.index = HashMap::new();
            self.bytes = 0;
            return Verdict::Cleared;
        }
        Verdict::Fill
    }

    /// The tagged, premultiplied id of `(phase, frontier)`, added when
    /// new. `frontier` must be sorted ascending without repeats.
    pub(crate) fn intern(
        &mut self,
        phase: u32,
        frontier: &[StateId],
        tables: &SparseTables,
    ) -> u32 {
        self.key.clear();
        self.key.push(phase);
        self.key.extend(frontier.iter().map(|s| s.0));
        if let Some(&id) = self.index.get(&self.key[..]) {
            return id;
        }
        let id = (self.meta.len() * (self.width + ROW_EXTRA)) as u32;
        assert!(id < INDEX, "the byte budget bounds the state count");
        let f0 = self.frontiers.len() as u32;
        self.frontiers.extend_from_slice(frontier);
        let r0 = self.reports.len() as u32;
        for &state in frontier {
            for r in tables.reports(state) {
                // Offset 0 is the only live position at stride 1.
                if r.offset == 0 {
                    self.reports.push(ReportEvent {
                        cycle: 0,
                        state,
                        info: ReportInfo::at_offset(r.id, 0),
                    });
                }
            }
        }
        let mut tag = 0;
        if self.reports.len() as u32 > r0 {
            tag |= TAG | REPORTS;
        }
        if frontier.is_empty() {
            tag |= TAG | EMPTY;
        }
        let entry = id | tag;
        self.meta.push(Meta {
            phase,
            frontier: (f0, self.frontiers.len() as u32),
        });
        self.trans.resize(self.trans.len() + self.width, UNKNOWN);
        let extra = [frontier.len() as u32, r0, self.reports.len() as u32];
        self.trans.extend_from_slice(&extra);
        self.index.insert(self.key.as_slice().into(), entry);
        self.bytes += (self.width + ROW_EXTRA) * 4
            + (self.reports.len() - r0 as usize) * std::mem::size_of::<ReportEvent>()
            + self.key.len() * 8
            + std::mem::size_of::<Meta>()
            + 32;
        entry
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sunder_automata::partition::ShardSpec;
    use sunder_automata::regex::compile_rule_set;
    use sunder_automata::{InputView, Nfa, StartKind, Ste, SymbolSet};
    use sunder_resilience::{Budget, CancelToken};

    use super::*;
    use crate::exec::{EngineKind, EngineState};
    use crate::sharded::{ShardedEngine, ShardedState};
    use crate::sink::{ReportSink, TraceSink};
    use crate::Simulator;

    /// A sink that observes activity, so every cycle is stepped: no skip,
    /// no cache.
    #[derive(Default)]
    struct Stepwise(Vec<ReportEvent>);

    impl ReportSink for Stepwise {
        fn on_cycle_reports(&mut self, _: u64, reports: &[ReportEvent]) {
            self.0.extend_from_slice(reports);
        }
    }

    /// The reference: `view` stepped cycle by cycle on a fresh sparse
    /// engine; its trace and its final state.
    fn stepwise(nfa: &Nfa, view: &InputView) -> (Vec<ReportEvent>, EngineState) {
        let mut sim = Simulator::new(nfa);
        let mut sink = Stepwise::default();
        for v in view.iter_ref() {
            sim.step(v.symbols, v.valid, &mut sink);
        }
        let mut state = EngineState::initial();
        sim.suspend(&mut state);
        (sink.0, state)
    }

    /// The four pipeline shapes: `(symbol bits, stride, start period)`.
    const SHAPES: [(u8, usize, u32); 4] = [(8, 1, 1), (4, 1, 2), (4, 2, 1), (4, 4, 1)];

    /// A random automaton of `shape` whose charsets draw on `pool`.
    fn random_nfa(rng: &mut StdRng, (bits, stride, period): (u8, usize, u32), pool: &[u16]) -> Nfa {
        let mut nfa = Nfa::with_stride(bits, stride);
        nfa.set_start_period(period);
        let n = rng.random_range(1..14usize);
        for _ in 0..n {
            let charsets = (0..stride)
                .map(|_| match rng.random_range(0..10u32) {
                    0 => SymbolSet::full(bits),
                    1 => SymbolSet::empty(bits),
                    _ => SymbolSet::from_symbols(
                        bits,
                        pool.iter()
                            .copied()
                            .filter(|_| rng.random_range(0..3u32) == 0),
                    ),
                })
                .collect();
            let start = match rng.random_range(0..6u32) {
                0 | 1 => StartKind::AllInput,
                2 => StartKind::StartOfData,
                _ => StartKind::None,
            };
            let mut ste = Ste::with_charsets(charsets).start(start);
            if rng.random_range(0..3u32) == 0 {
                let offset = rng.random_range(0..stride as u32) as u8;
                ste = ste.report_at(rng.random_range(0..4u32), offset);
            }
            nfa.add_state(ste);
        }
        for _ in 0..rng.random_range(0..3 * n) {
            let from = StateId(rng.random_range(0..n as u32));
            let to = StateId(rng.random_range(0..n as u32));
            if !nfa.successors(from).contains(&to) {
                nfa.add_edge(from, to);
            }
        }
        nfa
    }

    /// Runs `symbols` through `engine` in chunks cut at `cuts`, each
    /// chunk resumed from the last one's state; at the cuts in `drops`
    /// the stream's cache is replaced by a fresh one of `budget` bytes.
    fn chunked(
        engine: &ShardedEngine,
        symbols: &[u16],
        cuts: &[usize],
        drops: &[usize],
        budget: usize,
        poll: u32,
    ) -> (Vec<ReportEvent>, ShardedState) {
        let stride = engine.stride();
        let mut state =
            ShardedState::with_cache(EngineState::initial(), SubsetCache::with_budget(budget));
        let mut trace = TraceSink::new();
        let mut at = 0;
        for &cut in cuts.iter().chain([&symbols.len()]) {
            if drops.contains(&cut) {
                state = ShardedState::with_cache(
                    state.engine().clone(),
                    SubsetCache::with_budget(budget),
                );
            }
            let view = InputView::from_symbols(symbols[at..cut].to_vec(), stride);
            let limit = Budget::with_cancel(CancelToken::new()).check_every(poll);
            assert!(engine
                .run_chunk(&view, &mut trace, &mut state, &limit)
                .is_complete());
            at = cut;
        }
        (trace.events, state)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// With a budget of a few states, caches clear and streams fall
        /// back every few symbols; chunked runs resumed at random cuts,
        /// some with the cache dropped, still equal stepping every cycle.
        #[test]
        fn tiny_budget_runs_match_stepping(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shape = SHAPES[rng.random_range(0..SHAPES.len())];
            let (bits, stride, _) = shape;
            let pool: Vec<u16> = if bits == 8 {
                vec![0, 1, 2, 3, 97, 98, 200, 255]
            } else {
                (0..16).collect()
            };
            let nfa = random_nfa(&mut rng, shape, &pool);
            let len = rng.random_range(0..400usize);
            let symbols: Vec<u16> = (0..len)
                .map(|_| match rng.random_range(0..60u32) {
                    // Out of the alphabet: the frontier dies.
                    0 => 300,
                    _ => pool[rng.random_range(0..pool.len())],
                })
                .collect();
            let cycles = len.div_ceil(stride);
            let mut cuts: Vec<usize> = (0..rng.random_range(0..6usize))
                .map(|_| rng.random_range(0..=cycles) * stride)
                .filter(|&c| c <= len)
                .collect();
            cuts.sort_unstable();
            let drops: Vec<usize> = cuts.iter().copied().filter(|_| rng.random_range(0..3u32) == 0).collect();
            let budget = rng.random_range(0..3000usize);
            let poll = rng.random_range(1..80u32);

            let expected = stepwise(&nfa, &InputView::from_symbols(symbols.clone(), stride));
            for kind in [EngineKind::Sparse, EngineKind::Adaptive] {
                let engine = ShardedEngine::new(&nfa, ShardSpec::MaxShards(1), kind).unwrap();
                let (trace, state) = chunked(&engine, &symbols, &cuts, &drops, budget, poll);
                prop_assert_eq!(&trace, &expected.0, "{} trace", kind);
                prop_assert_eq!(state.engine(), &expected.1, "{} state", kind);
            }
        }
    }

    #[test]
    fn a_reused_dictionary_stays_cached_and_matches_stepping() {
        let nfa = compile_rule_set(&["the", "then", "hen", "e[a-z]", "[0-9]+x"]).unwrap();
        let text: Vec<u8> = b"then the hen 12x 7x eat theme ".repeat(400);
        let view = InputView::new(&text, 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&view, &mut trace);
        let (expected, state) = stepwise(&nfa, &view);
        assert_eq!(trace.events, expected);
        let mut after = EngineState::initial();
        sim.suspend(&mut after);
        assert_eq!(after, state);
        let (misses, fallbacks) = sim.subset_counts();
        assert_eq!(fallbacks, 0);
        assert!(misses > 0 && misses < 200, "{misses} misses");
        assert!(!crate::exec::Kernel::subset_cache(&mut sim)
            .unwrap()
            .is_off());
    }

    #[test]
    fn a_stream_of_ever_new_frontiers_falls_back_once() {
        // "X.." for 40 letters X: the frontier spells the last three
        // bytes, so random text reaches a new one almost every cycle.
        let letters = &b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmn"[..];
        let patterns: Vec<String> = letters
            .iter()
            .map(|&c| format!("{}..", c as char))
            .collect();
        let nfa = compile_rule_set(&patterns).unwrap();
        let mut x = 7u32;
        let text: Vec<u8> = (0..20_000)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                letters[(x >> 16) as usize % letters.len()]
            })
            .collect();
        let view = InputView::new(&text, 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&view, &mut trace);
        assert_eq!(trace.events, stepwise(&nfa, &view).0);
        let (misses, fallbacks) = sim.subset_counts();
        assert_eq!(fallbacks, 1);
        assert_eq!(
            misses,
            WARMUP_CYCLES / MISS_DIV + 1,
            "fell back at the warm-up limit"
        );
        assert!(crate::exec::Kernel::subset_cache(&mut sim)
            .unwrap()
            .is_off());
    }

    #[test]
    fn repeated_overflows_fall_back() {
        let nfa = compile_rule_set(&["ab", "b+c"]).unwrap();
        let text = b"abbbcabcbbc".repeat(50);
        let view = InputView::new(&text, 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        *crate::exec::Kernel::subset_cache(&mut sim).unwrap() = SubsetCache::with_budget(0);
        let mut trace = TraceSink::new();
        sim.run(&view, &mut trace);
        assert_eq!(trace.events, stepwise(&nfa, &view).0);
        // Every miss overflows a zero budget: two clears, then fallback.
        assert_eq!(sim.subset_counts(), (u64::from(MAX_CLEARS) + 1, 1));
    }
}
