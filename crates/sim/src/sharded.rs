//! Sharded execution: run a partitioned automaton shard by shard and
//! merge the report traces back into the monolithic order.
//!
//! The hardware scales by placing connected components across subarrays
//! that all observe the same symbol stream; reports are tagged with the
//! originating STE, so the aggregate report stream is independent of the
//! placement. [`ShardedEngine`] is the software analogue: each shard of a
//! [`ShardPlan`] (whole connected components — see
//! `sunder_automata::partition`) executes on its own engine over the same
//! input, shard-local report events are remapped to original state ids,
//! and [`ShardedEngine::merge`] restores the exact per-cycle,
//! ascending-state-order delivery the monolithic engines guarantee.
//!
//! The equivalence is structural, not approximate: states in different
//! weakly-connected components can never influence each other, so the
//! union of shard frontiers equals the monolithic frontier at every
//! cycle, and the merged trace is byte-identical to a monolithic run.
//! The conformance oracle locks this down (`sunder-oracle`'s sharded
//! checks and the `sunder-shard` property tests).

use std::sync::{Arc, OnceLock};

use sunder_automata::input::InputView;
use sunder_automata::partition::{ShardPlan, ShardSpec};
use sunder_automata::{AutomataError, Nfa};
use sunder_resilience::{Budget, RunOutcome};

use crate::adaptive::{AdaptiveEngine, AdaptiveLimits};
use crate::dense::DenseTables;
use crate::exec::{Engine, EngineKind, EngineState};
use crate::fastpath::SparseTables;
use crate::sink::{ReportEvent, ReportSink, TraceSink};

/// Compiled per-shard tables, shared across every run (and every clone of
/// the engine handed to worker threads). The sparse tables are built
/// eagerly at plan time — they are linear in the shard — while the dense
/// tables are built at most once per shard, on first demand, no matter
/// how many streams execute the shard concurrently.
#[derive(Debug, Clone)]
struct ShardTables {
    sparse: Arc<SparseTables>,
    dense: Arc<OnceLock<Arc<DenseTables>>>,
}

/// Executes a [`ShardPlan`] and merges per-shard report traces into a
/// position-stable aggregate identical to monolithic execution.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    plan: ShardPlan,
    kind: EngineKind,
    symbol_bits: u8,
    stride: usize,
    tables: Vec<ShardTables>,
}

impl ShardedEngine {
    /// Partitions `nfa` under `spec` and prepares sharded execution with
    /// engine `kind` per shard.
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
    /// from this automaton; only its width and stride are read here).
    pub fn from_plan(nfa: &Nfa, plan: ShardPlan, kind: EngineKind) -> ShardedEngine {
        let tables = plan
            .shards
            .iter()
            .map(|s| ShardTables {
                sparse: Arc::new(SparseTables::build(&s.nfa)),
                dense: Arc::new(OnceLock::new()),
            })
            .collect();
        ShardedEngine {
            plan,
            kind,
            symbol_bits: nfa.symbol_bits(),
            stride: nfa.stride(),
            tables,
        }
    }

    /// Assembles a sharded engine around *already compiled* per-shard
    /// tables — the mapped-database load path (`sunder-artifact`), where
    /// the tables borrow straight from an `.sdb` mapping and nothing is
    /// rebuilt. `tables` must hold one entry per plan shard, each built
    /// from (or validated against) that shard's automaton; a `None` dense
    /// half leaves the dense tables to be built lazily on first demand,
    /// exactly like [`ShardedEngine::from_plan`].
    ///
    /// # Panics
    ///
    /// Panics if `tables.len()` differs from the plan's shard count.
    #[doc(hidden)]
    pub fn from_prebuilt(
        plan: ShardPlan,
        kind: EngineKind,
        symbol_bits: u8,
        stride: usize,
        tables: Vec<(Arc<SparseTables>, Option<Arc<DenseTables>>)>,
    ) -> ShardedEngine {
        assert_eq!(
            tables.len(),
            plan.num_shards(),
            "one table set per plan shard"
        );
        let tables = tables
            .into_iter()
            .map(|(sparse, dense)| {
                let cell = OnceLock::new();
                if let Some(d) = dense {
                    let _ = cell.set(d);
                }
                ShardTables {
                    sparse,
                    dense: Arc::new(cell),
                }
            })
            .collect();
        ShardedEngine {
            plan,
            kind,
            symbol_bits,
            stride,
            tables,
        }
    }

    /// The compiled sparse tables of one shard (artifact writer support).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[doc(hidden)]
    pub fn shard_sparse(&self, shard: usize) -> &Arc<SparseTables> {
        &self.tables[shard].sparse
    }

    /// The dense tables of one shard, when already built.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[doc(hidden)]
    pub fn shard_dense(&self, shard: usize) -> Option<Arc<DenseTables>> {
        self.tables[shard].dense.get().cloned()
    }

    /// Builds (at most once) and returns the dense tables of one shard —
    /// lets the artifact writer persist dense matrices for pipelines whose
    /// engine kind wants them, without waiting for first execution.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[doc(hidden)]
    pub fn ensure_dense(&self, shard: usize) -> Arc<DenseTables> {
        let nfa = &self.plan.shards[shard].nfa;
        Arc::clone(
            self.tables[shard]
                .dense
                .get_or_init(|| Arc::new(DenseTables::build(nfa))),
        )
    }

    /// The underlying plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// The per-shard engine kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Stride of the automaton (and so of every shard).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Symbol width of the automaton.
    pub fn symbol_bits(&self) -> u8 {
        self.symbol_bits
    }

    /// Instantiates the engine for one shard from the precompiled shared
    /// tables: no per-run successor/encoding rebuild, and the dense
    /// tables — when the kind wants them — are built once per shard and
    /// then shared by every stream and clone.
    fn build_shard_engine(&self, shard: usize) -> Box<dyn Engine + '_> {
        let nfa = &self.plan.shards[shard].nfa;
        let t = &self.tables[shard];
        match self.kind {
            EngineKind::Sparse => {
                Box::new(crate::Simulator::with_tables(nfa, Arc::clone(&t.sparse)))
            }
            EngineKind::Dense => {
                let tables = Arc::clone(t.dense.get_or_init(|| Arc::new(DenseTables::build(nfa))));
                Box::new(crate::DenseEngine::with_tables(nfa, tables))
            }
            EngineKind::Adaptive => Box::new(AdaptiveEngine::with_shared(
                nfa,
                Arc::clone(&t.sparse),
                Arc::clone(&t.dense),
                AdaptiveLimits::default(),
            )),
        }
    }

    /// Runs one shard over the whole input under `budget`, returning its
    /// report events **remapped to original state ids** plus the run
    /// outcome. Shards are independent, so callers may fan these out
    /// across threads and [`ShardedEngine::merge`] the results.
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
        let (events, _, outcome) = self.drive_shard(shard, input, &EngineState::initial(), budget);
        if sunder_telemetry::enabled() {
            let label = shard.to_string();
            sunder_telemetry::counter_add(
                "shard_symbols_total",
                &[("shard", label.as_str())],
                input.num_symbols() as u64,
            );
        }
        (events, outcome)
    }

    /// Build → resume from `from` → run → suspend → remap to original
    /// state ids, for one shard.
    fn drive_shard(
        &self,
        shard: usize,
        input: &InputView,
        from: &EngineState,
        budget: &Budget,
    ) -> (Vec<ReportEvent>, EngineState, RunOutcome) {
        let mut engine = self.build_shard_engine(shard);
        engine.resume(from);
        let mut trace = TraceSink::new();
        let outcome = engine.run_budgeted(input, &mut trace, budget);
        let mut suspended = EngineState::initial();
        engine.suspend(&mut suspended);
        let s = &self.plan.shards[shard];
        let mut events = trace.events;
        for e in &mut events {
            e.state = s.to_original(e.state);
        }
        (events, suspended, outcome)
    }

    /// Merges per-shard traces (in original state ids) into the
    /// monolithic delivery order: ascending cycle, then ascending state.
    ///
    /// The sort is stable, so multiple reports from one state keep the
    /// order its shard produced them in — exactly what a monolithic
    /// engine does, since every state lives in exactly one shard.
    pub fn merge(traces: Vec<Vec<ReportEvent>>) -> Vec<ReportEvent> {
        let mut all: Vec<ReportEvent> = traces.into_iter().flatten().collect();
        all.sort_by_key(|e| (e.cycle, e.state.index()));
        all
    }

    /// Runs every shard over `input` and streams the merged trace into
    /// `sink`, batched per cycle like a monolithic engine.
    ///
    /// Per-cycle activity callbacks are **not** forwarded: activity is a
    /// per-engine execution detail, while the report stream is the
    /// observable the equivalence suite locks down.
    ///
    /// # Panics
    ///
    /// Panics if the view's stride does not match the automaton's.
    pub fn run(&self, input: &InputView, sink: &mut dyn ReportSink) {
        let _ = self.run_budgeted(input, sink, &Budget::unlimited());
    }

    /// [`ShardedEngine::run`] under a cooperative budget: one
    /// [`ShardedEngine::run_chunk`] from the initial state. Shards execute
    /// sequentially; the first interrupted shard aborts the run and
    /// nothing is delivered to `sink` (a partially-sharded trace would
    /// be silently missing whole components, which is worse than
    /// nothing).
    pub fn run_budgeted(
        &self,
        input: &InputView,
        sink: &mut dyn ReportSink,
        budget: &Budget,
    ) -> RunOutcome {
        self.run_chunk(input, sink, &mut self.initial_state(), budget)
    }

    /// Convenience: frames `input` for this automaton, runs all shards,
    /// and returns the merged trace (original state ids).
    ///
    /// # Errors
    ///
    /// Returns input framing errors.
    pub fn run_trace(&self, input: &[u8]) -> Result<Vec<ReportEvent>, AutomataError> {
        let view = InputView::new(input, self.symbol_bits, self.stride)?;
        let mut sink = TraceSink::new();
        self.run(&view, &mut sink);
        Ok(sink.events)
    }

    /// The initial (cycle 0, all-frontiers-empty) suspended state for a
    /// stream about to execute on this sharded engine.
    pub fn initial_state(&self) -> ShardedState {
        ShardedState {
            shards: vec![EngineState::initial(); self.num_shards()],
        }
    }

    /// Runs one chunk of a longer stream through every shard, resuming
    /// each shard's engine from `state` and suspending it back afterward.
    /// The merged, remapped report events of this chunk are streamed into
    /// `sink`; report cycles continue the stream's global clock, so the
    /// concatenation of per-chunk traces over a split stream is
    /// byte-identical to one whole-input run (the chunking equivalence
    /// gate in `sunder-shard` locks this down).
    ///
    /// Shard engines are rebuilt from the precompiled shared tables per
    /// chunk — construction is a few vector allocations, the expensive
    /// per-automaton compilation having been done at plan time — which is
    /// what lets one compiled pipeline serve an unbounded number of
    /// concurrently suspended streams at ~`O(frontier)` bytes each.
    ///
    /// On an interrupted outcome the suspended state is left as it was
    /// *before* the chunk (partial shard progress is discarded), so a
    /// caller enforcing per-chunk deadlines can retry or abandon the
    /// stream without observing a half-advanced clock.
    ///
    /// # Panics
    ///
    /// Panics if `state` was not created by [`ShardedEngine::initial_state`]
    /// on an engine with the same shard count, or if the view's stride
    /// does not match the automaton's.
    pub fn run_chunk(
        &self,
        input: &InputView,
        sink: &mut dyn ReportSink,
        state: &mut ShardedState,
        budget: &Budget,
    ) -> RunOutcome {
        assert_eq!(
            input.stride(),
            self.stride,
            "input view stride must match the automaton stride"
        );
        assert_eq!(
            state.shards.len(),
            self.num_shards(),
            "suspended state must match the shard count"
        );
        let mut traces = Vec::with_capacity(self.num_shards());
        let mut next: Vec<EngineState> = Vec::with_capacity(self.num_shards());
        for shard in 0..self.num_shards() {
            let (events, suspended, outcome) =
                self.drive_shard(shard, input, &state.shards[shard], budget);
            if let RunOutcome::Interrupted { .. } = outcome {
                return outcome;
            }
            next.push(suspended);
            traces.push(events);
        }
        state.shards = next;
        deliver(Self::merge(traces), sink);
        RunOutcome::Completed
    }
}

/// The suspended state of one stream across every shard of a
/// [`ShardedEngine`]: one [`EngineState`] per shard. This is the whole
/// per-stream footprint of a suspended streaming session — typically a
/// few dozen bytes — everything else (tables, plans) is shared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedState {
    /// Per-shard suspended engine state (shard-local state ids).
    pub shards: Vec<EngineState>,
}

impl ShardedState {
    /// Total states suspended across all shard frontiers.
    pub fn frontier_len(&self) -> usize {
        self.shards.iter().map(|s| s.frontier.len()).sum()
    }

    /// The stream clock: cycles executed so far (all shards advance in
    /// lockstep over the same input, so any shard's clock is the
    /// stream's; an empty state reads 0).
    pub fn cycle(&self) -> u64 {
        self.shards.first().map_or(0, |s| s.cycle)
    }
}

/// Streams a merged trace into a sink, one batch per report cycle.
fn deliver(merged: Vec<ReportEvent>, sink: &mut dyn ReportSink) {
    let mut rest = merged.as_slice();
    while let Some(first) = rest.first() {
        let n = rest.partition_point(|e| e.cycle == first.cycle);
        sink.on_cycle_reports(first.cycle, &rest[..n]);
        rest = &rest[n..];
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
    fn merged_trace_is_byte_identical_to_monolithic() {
        let nfa = rules();
        let input = b"zab-bc 192net abbbc 007xyq".as_slice();
        let expected = monolithic(&nfa, input);
        assert!(!expected.is_empty());
        for k in 1..=8 {
            let engine =
                ShardedEngine::new(&nfa, ShardSpec::MaxShards(k), EngineKind::Adaptive).unwrap();
            assert_eq!(engine.run_trace(input).unwrap(), expected, "shards={k}");
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
        let nfa = rules();
        let input = b"zab-bc 192net abbbc 007xyq xy123net q".as_slice();
        let expected = monolithic(&nfa, input);
        assert!(!expected.is_empty());
        for kind in EngineKind::ALL {
            for shards in [1usize, 2, 4] {
                let engine = ShardedEngine::new(&nfa, ShardSpec::MaxShards(shards), kind).unwrap();
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
                assert_eq!(state.cycle(), input.len() as u64);
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
