//! Shard placement over one whole-automaton engine.
//!
//! The hardware scales by placing connected components across subarrays
//! that all observe the same symbol stream; reports are tagged with the
//! originating STE, so the aggregate report stream is independent of the
//! placement. On a CPU, running the shards of a [`ShardPlan`] one after
//! another buys nothing but k re-scans of the input, so [`ShardedEngine`]
//! runs the whole transformed automaton on **one** engine per stream and
//! keeps the plan only as placement data: the shard count, the
//! `inspect-db` listing, and the diagnostic [`ShardedEngine::run_shard`]
//! and [`ShardedEngine::merge`].
//!
//! The diagnostic path still holds the placement to its promise: states
//! in different weakly-connected components can never influence each
//! other, so the union of per-shard traces, merged into ascending
//! (cycle, state) order, equals the one-engine trace. The conformance
//! oracle locks this down (`sunder-oracle`'s sharded checks and the
//! `sunder-shard` property tests).

use std::sync::{Arc, OnceLock};

use sunder_automata::graph::extract_subautomaton;
use sunder_automata::input::InputView;
use sunder_automata::partition::{ShardPlan, ShardSpec};
use sunder_automata::{AutomataError, ByteClasses, Nfa};
use sunder_resilience::{Budget, RunOutcome};

use crate::adaptive::{AdaptiveEngine, AdaptiveLimits};
use crate::dense::{DenseEngine, DenseTables};
use crate::exec::{drive, EngineKind, EngineState, Kernel};
use crate::fastpath::SparseTables;
use crate::sink::{ReportEvent, ReportSink, TraceSink};
use crate::subset::SubsetCache;

/// Runs a whole transformed automaton on one engine per stream; its
/// [`ShardPlan`] is placement data only.
///
/// The compiled tables are shared across every run and every clone of
/// the engine handed to worker threads: the sparse tables are built
/// eagerly (they are linear in the automaton), the dense tables and the
/// byte classes of the subset cache at most once, on first demand, no
/// matter how many streams run concurrently.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    nfa: Arc<Nfa>,
    plan: ShardPlan,
    kind: EngineKind,
    sparse: Arc<SparseTables>,
    dense: Arc<OnceLock<Arc<DenseTables>>>,
    classes: Arc<OnceLock<ByteClasses>>,
}

impl ShardedEngine {
    /// Partitions `nfa` under `spec` for placement and prepares engine
    /// `kind` over the whole automaton.
    ///
    /// # Errors
    ///
    /// Propagates partitioning failures ([`AutomataError::Capacity`]).
    pub fn new(
        nfa: &Nfa,
        spec: ShardSpec,
        kind: EngineKind,
    ) -> Result<ShardedEngine, AutomataError> {
        Ok(ShardedEngine::from_plan(nfa, spec.plan(nfa)?, kind))
    }

    /// Wraps an existing plan for `nfa` (the plan must have been built
    /// from this automaton).
    pub fn from_plan(nfa: &Nfa, plan: ShardPlan, kind: EngineKind) -> ShardedEngine {
        let sparse = Arc::new(SparseTables::build(nfa));
        ShardedEngine::from_prebuilt(Arc::new(nfa.clone()), plan, kind, sparse)
    }

    /// Assembles an engine around *already compiled* sparse tables: the
    /// compile path shares its automaton, the mapped-database load path
    /// (`sunder-artifact`) hands in tables that borrow straight from an
    /// `.sdb` mapping. The tables must have been built from (or validated
    /// against) `nfa`; the dense tables are built lazily on first demand,
    /// exactly like [`ShardedEngine::from_plan`].
    #[doc(hidden)]
    pub fn from_prebuilt(
        nfa: Arc<Nfa>,
        plan: ShardPlan,
        kind: EngineKind,
        sparse: Arc<SparseTables>,
    ) -> ShardedEngine {
        ShardedEngine {
            nfa,
            plan,
            kind,
            sparse,
            dense: Arc::new(OnceLock::new()),
            classes: Arc::new(OnceLock::new()),
        }
    }

    /// The compiled sparse tables (artifact writer support).
    #[doc(hidden)]
    pub fn sparse(&self) -> &Arc<SparseTables> {
        &self.sparse
    }

    /// The dense tables, when already built.
    #[doc(hidden)]
    pub fn dense(&self) -> Option<Arc<DenseTables>> {
        self.dense.get().cloned()
    }

    /// Builds (at most once) and returns the dense tables.
    #[doc(hidden)]
    pub fn ensure_dense(&self) -> Arc<DenseTables> {
        Arc::clone(
            self.dense
                .get_or_init(|| Arc::new(DenseTables::build(&self.nfa))),
        )
    }

    /// The placement plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards in the placement plan.
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// The engine kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Stride of the automaton.
    pub fn stride(&self) -> usize {
        self.nfa.stride()
    }

    /// Symbol width of the automaton.
    pub fn symbol_bits(&self) -> u8 {
        self.nfa.symbol_bits()
    }

    /// Diagnostic: runs one shard's sub-automaton, extracted on demand,
    /// alone over the whole input under `budget`, returning its report events **remapped to original state ids**
    /// plus the run outcome. [`ShardedEngine::merge`] of every shard's
    /// trace equals the one-engine trace.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or the view's stride mismatches.
    pub fn run_shard(
        &self,
        shard: usize,
        input: &InputView,
        budget: &Budget,
    ) -> (Vec<ReportEvent>, RunOutcome) {
        let s = &self.plan.shards[shard];
        let mut trace = TraceSink::new();
        let outcome = self
            .kind
            .build(&extract_subautomaton(&self.nfa, &s.members))
            .run_budgeted(input, &mut trace, budget);
        let mut events = trace.events;
        for e in &mut events {
            e.state = s.to_original(e.state);
        }
        (events, outcome)
    }

    /// Merges per-shard traces (in original state ids) into the
    /// one-engine delivery order: ascending cycle, then ascending state.
    ///
    /// The sort is stable, so multiple reports from one state keep the
    /// order its shard produced them in — exactly what one engine does,
    /// since every state lives in exactly one shard.
    pub fn merge(traces: Vec<Vec<ReportEvent>>) -> Vec<ReportEvent> {
        let mut all: Vec<ReportEvent> = traces.into_iter().flatten().collect();
        all.sort_by_key(|e| (e.cycle, e.state.index()));
        all
    }

    /// Runs the automaton over `input` and streams its trace into `sink`,
    /// batched per cycle.
    ///
    /// Per-cycle activity callbacks are **not** forwarded: activity is an
    /// execution detail, while the report stream is the observable the
    /// equivalence suite locks down.
    ///
    /// # Panics
    ///
    /// Panics if the view's stride does not match the automaton's.
    pub fn run(&self, input: &InputView, sink: &mut dyn ReportSink) {
        let _ = self.run_budgeted(input, sink, &Budget::unlimited());
    }

    /// [`ShardedEngine::run`] under a cooperative budget: one
    /// [`ShardedEngine::run_chunk`] from the initial state, so an
    /// interrupted run delivers nothing to `sink`.
    pub fn run_budgeted(
        &self,
        input: &InputView,
        sink: &mut dyn ReportSink,
        budget: &Budget,
    ) -> RunOutcome {
        self.run_chunk(input, sink, &mut self.initial_state(), budget)
    }

    /// Convenience: frames `input` for this automaton, runs it, and
    /// returns the trace (transformed-automaton state ids).
    ///
    /// # Errors
    ///
    /// Returns input framing errors.
    pub fn run_trace(&self, input: &[u8]) -> Result<Vec<ReportEvent>, AutomataError> {
        let view = InputView::new(input, self.symbol_bits(), self.stride())?;
        let mut sink = TraceSink::new();
        self.run(&view, &mut sink);
        Ok(sink.events)
    }

    /// The initial (cycle 0, empty frontier) suspended state for a stream
    /// about to execute on this engine.
    pub fn initial_state(&self) -> ShardedState {
        ShardedState::default()
    }

    /// Runs one chunk of a longer stream, resuming the engine from
    /// `state` and suspending it back afterward. The chunk's report
    /// events are streamed into `sink` one batch per cycle; report cycles
    /// continue the stream's global clock, so the concatenation of
    /// per-chunk traces over a split stream is byte-identical to one
    /// whole-input run (the chunking equivalence gate in `sunder-shard`
    /// locks this down).
    ///
    /// The engine is rebuilt from the precompiled shared tables per
    /// chunk — a few vector allocations, the expensive compilation having
    /// been done once — and the stream's subset cache moves into it and
    /// back out, so the frontiers one chunk cached serve the next.
    ///
    /// On an interrupted outcome nothing is delivered to `sink` and
    /// `state`'s frontier and clock are left as they were *before* the
    /// chunk, so a caller enforcing per-chunk deadlines can retry or
    /// abandon the stream without observing a half-advanced clock. (The
    /// cache keeps what it learned: its transitions hold for any
    /// position.)
    ///
    /// # Panics
    ///
    /// Panics if the view's stride does not match the automaton's.
    pub fn run_chunk(
        &self,
        input: &InputView,
        sink: &mut dyn ReportSink,
        state: &mut ShardedState,
        budget: &Budget,
    ) -> RunOutcome {
        let nfa = &*self.nfa;
        let sparse = || Arc::clone(&self.sparse);
        let classes = || Arc::clone(&self.classes);
        match self.kind {
            EngineKind::Sparse => chunk(
                crate::Simulator::with_tables(nfa, sparse(), classes()),
                input,
                sink,
                state,
                budget,
            ),
            EngineKind::Dense => chunk(
                DenseEngine::with_tables(nfa, self.ensure_dense()),
                input,
                sink,
                state,
                budget,
            ),
            EngineKind::Adaptive => chunk(
                AdaptiveEngine::with_shared(
                    nfa,
                    sparse(),
                    Arc::clone(&self.dense),
                    classes(),
                    AdaptiveLimits::default(),
                ),
                input,
                sink,
                state,
                budget,
            ),
        }
    }
}

/// [`ShardedEngine::run_chunk`] on one built engine.
fn chunk<K: Kernel>(
    mut engine: K,
    input: &InputView,
    sink: &mut dyn ReportSink,
    state: &mut ShardedState,
    budget: &Budget,
) -> RunOutcome {
    let mut lend = |engine: &mut K| {
        if let Some(cache) = engine.subset_cache() {
            std::mem::swap(cache, &mut state.cache);
        }
    };
    lend(&mut engine);
    engine.resume(&state.engine);
    let mut staged = TraceSink::new();
    let outcome = drive(&mut engine, input, &mut staged, budget);
    lend(&mut engine);
    if outcome.is_complete() {
        engine.suspend(&mut state.engine);
        sink.on_trace(staged.events);
    }
    outcome
}

/// The suspended state of one stream on a [`ShardedEngine`]: one
/// [`EngineState`] (the canonical frontier and clock, typically a few
/// dozen bytes) plus the stream's subset cache. The cache is empty until
/// the stream first steps through it, grows with the frontiers the stream
/// reaches up to a fixed budget, and is dropped for good when the stream
/// falls back to the sparse step. Everything else (tables, plan) is
/// shared.
///
/// Two states are equal when their frontiers and clocks are: the cache
/// changes no trace.
#[derive(Debug, Clone, Default)]
pub struct ShardedState {
    engine: EngineState,
    cache: SubsetCache,
}

impl PartialEq for ShardedState {
    fn eq(&self, other: &Self) -> bool {
        self.engine == other.engine
    }
}

impl Eq for ShardedState {}

#[cfg(test)]
impl ShardedState {
    pub(crate) fn with_cache(engine: EngineState, cache: SubsetCache) -> ShardedState {
        ShardedState { engine, cache }
    }

    pub(crate) fn engine(&self) -> &EngineState {
        &self.engine
    }
}

impl ShardedState {
    /// Active states at the suspension point.
    pub fn frontier_len(&self) -> usize {
        self.engine.frontier.len()
    }

    /// The stream clock: cycles executed so far.
    pub fn cycle(&self) -> u64 {
        self.engine.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountSink;
    use crate::Simulator;
    use sunder_automata::partition::PartitionOptions;
    use sunder_automata::regex::compile_rule_set;
    use sunder_resilience::{CancelToken, StopReason};

    fn monolithic(nfa: &Nfa, input: &[u8]) -> Vec<ReportEvent> {
        let view = InputView::new(input, nfa.symbol_bits(), nfa.stride()).unwrap();
        let mut sim = Simulator::new(nfa);
        let mut trace = TraceSink::new();
        sim.run(&view, &mut trace);
        trace.events
    }

    fn rules() -> Nfa {
        compile_rule_set(&["ab+c", ".*net", "[0-9]{3}", "xy", "q"]).unwrap()
    }

    #[test]
    fn trace_is_byte_identical_to_monolithic_and_to_merged_shards() {
        let nfa = rules();
        let input = b"zab-bc 192net abbbc 007xyq".as_slice();
        let expected = monolithic(&nfa, input);
        assert!(!expected.is_empty());
        let view = InputView::new(input, 8, 1).unwrap();
        for k in 1..=8 {
            let engine =
                ShardedEngine::new(&nfa, ShardSpec::MaxShards(k), EngineKind::Adaptive).unwrap();
            assert_eq!(engine.run_trace(input).unwrap(), expected, "shards={k}");
            let traces = (0..engine.num_shards())
                .map(|s| engine.run_shard(s, &view, &Budget::unlimited()).0)
                .collect();
            assert_eq!(ShardedEngine::merge(traces), expected, "merged shards={k}");
        }
    }

    #[test]
    fn sink_sees_per_cycle_batches() {
        let nfa = rules();
        let input = b"xyxy 123net".as_slice();
        let engine = ShardedEngine::new(&nfa, ShardSpec::MaxShards(3), EngineKind::Sparse).unwrap();
        let view = InputView::new(input, 8, 1).unwrap();
        let mut count = CountSink::new();
        engine.run(&view, &mut count);

        let mut mono = CountSink::new();
        let mut sim = Simulator::new(&nfa);
        sim.run(&view, &mut mono);
        assert_eq!(count.reports, mono.reports);
        assert_eq!(count.report_cycles, mono.report_cycles);
        assert_eq!(count.max_reports_per_cycle, mono.max_reports_per_cycle);
    }

    #[test]
    fn empty_automaton_runs_to_completion() {
        let nfa = Nfa::new(8);
        let spec = ShardSpec::Budget(PartitionOptions::default());
        let engine = ShardedEngine::new(&nfa, spec, EngineKind::Dense).unwrap();
        assert_eq!(engine.num_shards(), 0);
        assert_eq!(engine.run_trace(b"anything").unwrap(), Vec::new());
    }

    #[test]
    fn cancelled_budget_interrupts_without_partial_delivery() {
        let nfa = rules();
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::with_cancel(token).check_every(1);
        let engine = ShardedEngine::new(&nfa, ShardSpec::MaxShards(2), EngineKind::Sparse).unwrap();
        let view = InputView::new(&[b'x'; 64], 8, 1).unwrap();
        let mut trace = TraceSink::new();
        let outcome = engine.run_budgeted(&view, &mut trace, &budget);
        match outcome {
            RunOutcome::Interrupted { reason, .. } => {
                assert_eq!(reason, StopReason::Cancelled)
            }
            RunOutcome::Completed => panic!("cancelled run completed"),
        }
        assert!(trace.events.is_empty(), "no partial trace delivered");
    }

    #[test]
    fn chunked_run_matches_whole_run_for_every_engine() {
        let input = b"zab-bc 192net abbbc 007xyq xy123net q".as_slice();
        // The empty automaton has a zero-shard plan; its clock must still
        // advance with the input.
        for nfa in [rules(), Nfa::new(8)] {
            let expected = monolithic(&nfa, input);
            assert_eq!(expected.is_empty(), nfa.num_states() == 0);
            for kind in EngineKind::ALL {
                for shards in [1usize, 2, 4] {
                    let engine =
                        ShardedEngine::new(&nfa, ShardSpec::MaxShards(shards), kind).unwrap();
                    let mut state = engine.initial_state();
                    let mut sink = TraceSink::new();
                    // Uneven chunk sizes, including a 1-byte chunk.
                    for chunk in [&input[..7], &input[7..8], &input[8..20], &input[20..]] {
                        let view = InputView::new(chunk, nfa.symbol_bits(), nfa.stride()).unwrap();
                        let outcome =
                            engine.run_chunk(&view, &mut sink, &mut state, &Budget::unlimited());
                        assert!(outcome.is_complete());
                    }
                    assert_eq!(sink.events, expected, "{kind}/{shards} shards");
                    assert_eq!(state.cycle(), input.len() as u64, "{kind}/{shards} shards");
                }
            }
        }
    }

    #[test]
    fn suspend_resume_round_trips_across_engine_kinds() {
        use crate::exec::EngineState;
        let nfa = rules();
        let head = InputView::new(b"zab-b", 8, 1).unwrap();
        let tail = InputView::new(b"c 192net", 8, 1).unwrap();
        let whole = monolithic(&nfa, b"zab-bc 192net");

        for from in EngineKind::ALL {
            for to in EngineKind::ALL {
                let mut first = from.build(&nfa);
                let mut trace = TraceSink::new();
                first.run(&head, &mut trace);
                let mut snap = EngineState::initial();
                first.suspend(&mut snap);
                assert_eq!(snap.cycle, 5);
                // The snapshot is canonical: ascending state order.
                assert!(snap
                    .frontier
                    .windows(2)
                    .all(|w| w[0].index() < w[1].index()));

                let mut second = to.build(&nfa);
                second.resume(&snap);
                second.run(&tail, &mut trace);
                assert_eq!(trace.events, whole, "{from}->{to}");
            }
        }
    }

    #[test]
    fn interrupted_chunk_leaves_state_untouched() {
        let nfa = rules();
        let engine = ShardedEngine::new(&nfa, ShardSpec::MaxShards(2), EngineKind::Sparse).unwrap();
        let mut state = engine.initial_state();
        let warm = InputView::new(b"ab", 8, 1).unwrap();
        let mut sink = TraceSink::new();
        engine.run_chunk(&warm, &mut sink, &mut state, &Budget::unlimited());
        let before = state.clone();

        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::with_cancel(token).check_every(1);
        let view = InputView::new(&[b'x'; 64], 8, 1).unwrap();
        let outcome = engine.run_chunk(&view, &mut sink, &mut state, &budget);
        assert!(!outcome.is_complete());
        assert_eq!(
            state, before,
            "failed chunk must not half-advance the clock"
        );
    }

    #[test]
    fn resuming_with_a_dropped_cache_equals_resuming_warm() {
        let nfa = rules();
        let head = b"zab-bc 192net abbbc 007xyq xy123net".repeat(20);
        let tail = b"q abbc 123 net xy".repeat(20);
        for kind in [EngineKind::Sparse, EngineKind::Adaptive] {
            let engine = ShardedEngine::new(&nfa, ShardSpec::MaxShards(2), kind).unwrap();
            let mut warm = engine.initial_state();
            let view = InputView::new(&head, 8, 1).unwrap();
            let mut before = TraceSink::new();
            engine.run_chunk(&view, &mut before, &mut warm, &Budget::unlimited());
            assert!(!warm.cache.is_off(), "{kind}: the rules stay cached");
            let mut cold = ShardedState::with_cache(warm.engine.clone(), SubsetCache::default());
            assert_eq!(cold, warm, "equality ignores the cache");

            let view = InputView::new(&tail, 8, 1).unwrap();
            let (mut a, mut b) = (TraceSink::new(), TraceSink::new());
            engine.run_chunk(&view, &mut a, &mut warm, &Budget::unlimited());
            engine.run_chunk(&view, &mut b, &mut cold, &Budget::unlimited());
            assert_eq!(a.events, b.events, "{kind}");
            assert_eq!(warm, cold, "{kind}");
            let mut whole = head.clone();
            whole.extend_from_slice(&tail);
            before.events.extend(a.events);
            assert_eq!(before.events, monolithic(&nfa, &whole), "{kind}");
        }
    }

    #[test]
    fn merge_restores_monolithic_order() {
        use sunder_automata::{ReportInfo, StateId};
        let ev = |cycle: u64, state: u32, id: u32| ReportEvent {
            cycle,
            state: StateId(state),
            info: ReportInfo::new(id),
        };
        let merged = ShardedEngine::merge(vec![
            vec![ev(0, 5, 1), ev(2, 5, 2)],
            vec![ev(0, 1, 3), ev(1, 9, 4)],
        ]);
        assert_eq!(
            merged,
            vec![ev(0, 1, 3), ev(0, 5, 1), ev(1, 9, 4), ev(2, 5, 2)]
        );
    }
}
