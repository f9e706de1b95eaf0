//! Runtime engine selection by frontier density.
//!
//! Neither execution strategy dominates: the sparse engine's cycle cost is
//! proportional to the candidate count (frontier × fan-out plus starts),
//! the dense engine's to the state-vector width in words. Cold rule sets
//! (ExactMatch-style: everything anchored behind bytes that rarely occur)
//! keep the frontier near zero and sparse wins; high-activity workloads
//! (Snort's hot classes, the Hamming/Levenshtein meshes) keep a sizable
//! fraction of the automaton lit and dense wins.
//!
//! [`AdaptiveEngine`] runs the sparse engine, samples the frontier size
//! over a fixed window, and compares the two cost models; when the dense
//! model is cheaper by a hysteresis margin it builds the dense twin
//! (once, lazily), hands the live frontier across, and continues
//! bit-parallel — and switches back the same way if the workload cools.

use std::sync::{Arc, OnceLock};

use sunder_automata::input::InputView;
use sunder_automata::{ByteClasses, Nfa, StateId};
use sunder_resilience::Budget;

use crate::dense::{DenseEngine, DenseTables};
use crate::engine::Simulator;
use crate::exec::{drive, EngineState, Kernel};
use crate::fastpath::SparseTables;
use crate::sink::ReportSink;
use crate::subset::SubsetCache;

/// Frontier-size samples per selection decision.
const WINDOW: u64 = 64;

/// Cost-model constants, in nanoseconds per cycle. Fitted to measured
/// per-cycle times of both engines across the 19-benchmark suite
/// (`suite --small --out PATH`), after the single-stream
/// fast path roughly halved sparse per-cycle cost: the dense engine
/// costs a fixed base plus ~2.6 ns per state-vector word plus a small
/// per-word activity term; the sparse engine costs a base plus ~3 ns
/// per candidate (frontier × fan-out, with a charset probe per stride
/// position). Absolute values only matter relative to each other, so
/// the fit transfers across similar hosts.
const SPARSE_BASE_NS: f64 = 3.5;
const SPARSE_CANDIDATE_NS: f64 = 3.0;
const DENSE_BASE_NS: f64 = 2.0;
const DENSE_WORD_NS: f64 = 2.6;
const DENSE_ACTIVE_WORD_NS: f64 = 0.35;

/// Switch-to-dense threshold: dense must model at least this much cheaper.
const ENTER_DENSE: f64 = 0.7;

/// Switch-to-sparse threshold: dense must model at least this much more
/// expensive. The gap between the two is the hysteresis band that stops
/// the selector from thrashing at the break-even point.
const EXIT_DENSE: f64 = 1.3;

/// Largest dense table the selector will build on its own (64 MiB).
/// Explicitly constructing a [`DenseEngine`] bypasses the budget.
const TABLE_BUDGET_BYTES: usize = 64 << 20;

/// Resource limits for the adaptive selector (the degradation ladder's
/// configuration surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveLimits {
    /// Largest dense table the selector may build. Exceeding it degrades
    /// to sparse execution (recorded, not fatal).
    pub table_budget_bytes: usize,
    /// Fault-injection hook: treat every dense build as if allocation
    /// were denied. The engine keeps running sparse and records
    /// [`DegradeReason::DenseBuildFailed`].
    pub fail_dense_build: bool,
}

impl Default for AdaptiveLimits {
    fn default() -> Self {
        AdaptiveLimits {
            table_budget_bytes: TABLE_BUDGET_BYTES,
            fail_dense_build: false,
        }
    }
}

/// Why the adaptive engine is running degraded (sparse-only despite the
/// cost model preferring dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The dense tables would exceed the configured budget.
    DenseBudgetExceeded {
        /// Bytes the dense tables would need.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The dense build failed (today only via
    /// [`AdaptiveLimits::fail_dense_build`] fault injection).
    DenseBuildFailed,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::DenseBudgetExceeded { needed, budget } => write!(
                f,
                "dense table budget exceeded ({needed} bytes needed, {budget} allowed); running sparse"
            ),
            DegradeReason::DenseBuildFailed => {
                f.write_str("dense build failed; running sparse")
            }
        }
    }
}

/// An engine that switches between sparse and dense execution per
/// automaton, based on sampled frontier density.
///
/// Produces the same report traces as both underlying engines.
///
/// # Examples
///
/// ```
/// use sunder_automata::regex::compile_regex;
/// use sunder_automata::InputView;
/// use sunder_sim::{AdaptiveEngine, TraceSink};
///
/// let nfa = compile_regex(".*ab", 0)?;
/// let input = InputView::new(b"zzabzab", 8, 1)?;
/// let mut engine = AdaptiveEngine::new(&nfa);
/// let mut trace = TraceSink::new();
/// engine.run(&input, &mut trace);
/// assert_eq!(trace.cycle_id_pairs(), vec![(3, 0), (6, 0)]);
/// # Ok::<(), sunder_automata::AutomataError>(())
/// ```
#[derive(Debug)]
pub struct AdaptiveEngine<'a> {
    nfa: &'a Nfa,
    sparse: Simulator<'a>,
    /// Built lazily on the first switch; kept for later re-entries.
    dense: Option<DenseEngine<'a>>,
    in_dense: bool,
    /// Frontier sizes accumulated over the current window.
    window_active: u64,
    window_cycles: u64,
    /// Average out-degree, for the sparse cost model.
    fanout: f64,
    /// State-vector width in words, for the dense cost model.
    words: usize,
    dense_affordable: bool,
    /// Cached exact (byte-classed) dense footprint, computed at most once
    /// when the conservative estimate exceeds the budget.
    classed_bytes: Option<usize>,
    switches: u32,
    limits: AdaptiveLimits,
    /// First degradation observed (set at most once per run).
    degrade: Option<DegradeReason>,
    /// Scratch for frontier hand-over.
    frontier: Vec<StateId>,
    /// Pipeline-shared dense tables (sharded execution): built at most
    /// once across every engine instance of the same compiled shard.
    shared_dense: Option<Arc<OnceLock<Arc<DenseTables>>>>,
}

impl<'a> AdaptiveEngine<'a> {
    /// Prepares an adaptive engine; only the sparse half is built up
    /// front, so construction costs the same as [`Simulator::new`].
    pub fn new(nfa: &'a Nfa) -> Self {
        Self::with_limits(nfa, AdaptiveLimits::default())
    }

    /// Like [`AdaptiveEngine::new`], with explicit resource limits.
    pub fn with_limits(nfa: &'a Nfa, limits: AdaptiveLimits) -> Self {
        Self::with_shared_parts(nfa, Simulator::new(nfa), None, limits)
    }

    /// Builds an adaptive engine around pipeline-shared compiled tables:
    /// the sparse tables are reused immediately and the dense tables cell
    /// is filled at most once across every sibling engine (the sharded
    /// scheduler's per-job constructor).
    pub(crate) fn with_shared(
        nfa: &'a Nfa,
        sparse_tables: Arc<SparseTables>,
        dense_cell: Arc<OnceLock<Arc<DenseTables>>>,
        classes: Arc<OnceLock<ByteClasses>>,
        limits: AdaptiveLimits,
    ) -> Self {
        Self::with_shared_parts(
            nfa,
            Simulator::with_tables(nfa, sparse_tables, classes),
            Some(dense_cell),
            limits,
        )
    }

    fn with_shared_parts(
        nfa: &'a Nfa,
        sparse: Simulator<'a>,
        shared_dense: Option<Arc<OnceLock<Arc<DenseTables>>>>,
        limits: AdaptiveLimits,
    ) -> Self {
        let n = nfa.num_states();
        let fanout = if n == 0 {
            0.0
        } else {
            nfa.num_transitions() as f64 / n as f64
        };
        AdaptiveEngine {
            nfa,
            sparse,
            dense: None,
            in_dense: false,
            window_active: 0,
            window_cycles: 0,
            fanout,
            words: n.div_ceil(64),
            // Conservative (unclassed) estimate; when it exceeds the
            // budget, the first switch attempt rechecks the exact
            // byte-classed footprint before degrading.
            dense_affordable: n > 0 && DenseEngine::table_bytes(nfa) <= limits.table_budget_bytes,
            classed_bytes: None,
            switches: 0,
            limits,
            degrade: None,
            frontier: Vec::new(),
            shared_dense,
        }
    }

    /// Cycles executed so far.
    pub fn cycle(&self) -> u64 {
        if self.in_dense {
            self.dense.as_ref().expect("dense engine in use").cycle()
        } else {
            self.sparse.cycle()
        }
    }

    /// Number of states active after the last step.
    pub fn active_count(&self) -> usize {
        if self.in_dense {
            self.dense
                .as_ref()
                .expect("dense engine in use")
                .active_count()
        } else {
            self.sparse.active_states().len()
        }
    }

    /// `true` while the dense engine is driving.
    pub fn is_dense(&self) -> bool {
        self.in_dense
    }

    /// How many sparse↔dense hand-overs have happened so far.
    pub fn switch_count(&self) -> u32 {
        self.switches
    }

    /// Why this run is degraded (sparse-only despite the cost model
    /// wanting dense), if it is. Cleared by [`AdaptiveEngine::reset`].
    pub fn degrade_reason(&self) -> Option<&DegradeReason> {
        self.degrade.as_ref()
    }

    /// Resets to the initial configuration (cycle 0, empty frontier,
    /// sparse mode). The dense tables, if already built, are kept.
    pub fn reset(&mut self) {
        self.sparse.reset();
        if let Some(d) = &mut self.dense {
            d.reset();
        }
        self.in_dense = false;
        self.window_active = 0;
        self.window_cycles = 0;
        self.switches = 0;
        self.degrade = None;
    }

    /// Captures the current execution state from whichever engine is
    /// live; see [`crate::exec::Engine::suspend`]. The snapshot is
    /// representation-independent, so a stream suspended in dense mode
    /// resumes correctly anywhere.
    pub fn suspend(&self, out: &mut EngineState) {
        if self.in_dense {
            self.dense
                .as_ref()
                .expect("dense engine in use")
                .suspend(out);
        } else {
            self.sparse.suspend(out);
        }
    }

    /// Restores a suspended execution state; see
    /// [`crate::exec::Engine::resume`]. Resumption always re-enters
    /// through the sparse engine with a fresh sampling window — the
    /// density sampler re-derives the representation choice from the
    /// resumed stream, and the report trace is engine-independent either
    /// way.
    pub fn resume(&mut self, state: &EngineState) {
        self.sparse.load_frontier(&state.frontier, state.cycle);
        if let Some(d) = &mut self.dense {
            d.reset();
        }
        self.in_dense = false;
        self.window_active = 0;
        self.window_cycles = 0;
    }

    /// Modeled per-cycle costs `(sparse, dense)` in nanoseconds at the
    /// given average frontier size.
    fn modeled_costs(&self, avg_active: f64) -> (f64, f64) {
        let stride = self.nfa.stride() as f64;
        let sparse =
            SPARSE_BASE_NS + avg_active * (1.0 + self.fanout) * SPARSE_CANDIDATE_NS * stride;
        // Each extra stride position is one more accept-row AND pass.
        let dense = DENSE_BASE_NS
            + self.words as f64
                * (DENSE_WORD_NS + (stride - 1.0) + DENSE_ACTIVE_WORD_NS * avg_active);
        (sparse, dense)
    }

    /// Whether the dense twin fits the table budget, rechecking with the
    /// exact byte-classed footprint when the conservative estimate says
    /// no. The classed size is computed at most once per engine (it walks
    /// every charset) and cached in `classed_bytes`.
    fn affordable_after_classing(&mut self) -> bool {
        if self.dense_affordable {
            return true;
        }
        if self.nfa.num_states() == 0 {
            self.classed_bytes = Some(DenseEngine::classed_table_bytes(self.nfa));
            return false;
        }
        let classed = *self
            .classed_bytes
            .get_or_insert_with(|| DenseEngine::classed_table_bytes(self.nfa));
        if classed <= self.limits.table_budget_bytes {
            self.dense_affordable = true;
        }
        self.dense_affordable
    }

    /// Emits the `engine.switch` instant with the fitted cost-model
    /// inputs that drove the decision. Only called after a switch, so
    /// the field construction never runs on the steady-state path.
    fn trace_switch(&self, direction: &str, avg_active: f64, sparse_cost: f64, dense_cost: f64) {
        sunder_telemetry::counter_add("engine_switches_total", &[("direction", direction)], 1);
        if sunder_telemetry::spans_enabled() {
            sunder_telemetry::instant(
                "engine.switch",
                &[
                    ("direction", sunder_telemetry::Value::from(direction)),
                    ("cycle", sunder_telemetry::Value::from(self.cycle())),
                    ("avg_active", sunder_telemetry::Value::from(avg_active)),
                    ("sparse_cost_ns", sunder_telemetry::Value::from(sparse_cost)),
                    ("dense_cost_ns", sunder_telemetry::Value::from(dense_cost)),
                ],
            );
        }
    }

    /// Records the first degradation and emits its `engine.degrade`
    /// instant.
    fn record_degrade(&mut self, reason: DegradeReason) {
        if self.degrade.is_some() {
            return;
        }
        sunder_telemetry::counter_add("engine_degrades_total", &[], 1);
        if sunder_telemetry::spans_enabled() {
            sunder_telemetry::instant(
                "engine.degrade",
                &[
                    ("reason", sunder_telemetry::Value::from(reason.to_string())),
                    ("cycle", sunder_telemetry::Value::from(self.cycle())),
                ],
            );
        }
        self.degrade = Some(reason);
    }

    /// End-of-window decision: switch representations when the other cost
    /// model is decisively cheaper.
    fn maybe_switch(&mut self) {
        let avg_active = self.window_active as f64 / self.window_cycles.max(1) as f64;
        self.window_active = 0;
        self.window_cycles = 0;
        let (sparse_cost, dense_cost) = self.modeled_costs(avg_active);
        if !self.in_dense {
            if dense_cost < ENTER_DENSE * sparse_cost {
                // Degradation ladder: the model wants dense, but the build
                // may be refused (budget) or fail (injected allocation
                // denial). Either way execution continues sparse and the
                // first reason is recorded for the harness to report.
                if !self.affordable_after_classing() {
                    let needed = self.classed_bytes.expect("recheck caches the size");
                    self.record_degrade(DegradeReason::DenseBudgetExceeded {
                        needed,
                        budget: self.limits.table_budget_bytes,
                    });
                } else if self.limits.fail_dense_build && self.dense.is_none() {
                    self.record_degrade(DegradeReason::DenseBuildFailed);
                } else {
                    let nfa = self.nfa;
                    let shared = self.shared_dense.clone();
                    let dense = self.dense.get_or_insert_with(|| {
                        let _build = sunder_telemetry::span("engine.dense_build")
                            .field("states", nfa.num_states())
                            .field("table_bytes", DenseEngine::table_bytes(nfa));
                        let tables = match &shared {
                            Some(cell) => {
                                Arc::clone(cell.get_or_init(|| Arc::new(DenseTables::build(nfa))))
                            }
                            None => Arc::new(DenseTables::build(nfa)),
                        };
                        DenseEngine::with_tables(nfa, tables)
                    });
                    dense.load_frontier(self.sparse.active_states(), self.sparse.cycle());
                    self.in_dense = true;
                    self.switches += 1;
                    self.trace_switch("dense", avg_active, sparse_cost, dense_cost);
                }
            }
        } else if dense_cost > EXIT_DENSE * sparse_cost {
            let dense = self.dense.as_mut().expect("dense engine in use");
            self.frontier.clear();
            dense.export_frontier(&mut self.frontier);
            self.sparse.load_frontier(&self.frontier, dense.cycle());
            self.in_dense = false;
            self.switches += 1;
            self.trace_switch("sparse", avg_active, sparse_cost, dense_cost);
        }
    }

    /// Executes one cycle on the currently selected engine.
    ///
    /// Returns the number of active states after the cycle.
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) if the vector length does not match
    /// the automaton's stride.
    pub fn step<S: ReportSink + ?Sized>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize {
        Kernel::step::<S, false>(self, vector, valid, sink)
    }

    /// Runs the whole input stream, allocation-free in steady state.
    ///
    /// # Panics
    ///
    /// Panics if the view's stride does not match the automaton's.
    pub fn run<S: ReportSink + ?Sized>(&mut self, input: &InputView, sink: &mut S) {
        drive(self, input, sink, &Budget::unlimited());
    }

    #[cfg(test)]
    pub(crate) fn prefilter_skipped(&self) -> u64 {
        self.sparse.prefilter_skipped()
    }
}

impl Kernel for AdaptiveEngine<'_> {
    fn stride(&self) -> usize {
        self.nfa.stride()
    }

    fn cycle(&self) -> u64 {
        AdaptiveEngine::cycle(self)
    }

    fn active_count(&self) -> usize {
        AdaptiveEngine::active_count(self)
    }

    fn reset(&mut self) {
        AdaptiveEngine::reset(self);
    }

    fn suspend(&self, out: &mut EngineState) {
        AdaptiveEngine::suspend(self, out);
    }

    fn resume(&mut self, state: &EngineState) {
        AdaptiveEngine::resume(self, state);
    }

    fn step<S: ReportSink + ?Sized, const QUIET: bool>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize {
        let count = match &mut self.dense {
            Some(dense) if self.in_dense => Kernel::step::<S, QUIET>(dense, vector, valid, sink),
            _ => Kernel::step::<S, QUIET>(&mut self.sparse, vector, valid, sink),
        };
        self.window_active += count as u64;
        self.window_cycles += 1;
        if self.window_cycles >= WINDOW {
            self.maybe_switch();
        }
        count
    }

    /// Only the sparse half prefilters; dense mode proves nothing idle.
    fn idle_cycles(&self, input: &InputView, from: usize, to: usize) -> usize {
        if self.in_dense {
            0
        } else {
            self.sparse.idle_cycles(input, from, to)
        }
    }

    /// Skipped cycles count toward the sampling window as zero-active
    /// cycles, so the cost model sees the idleness.
    fn skip(&mut self, cycles: u64) {
        self.sparse.skip(cycles);
        self.window_cycles = (self.window_cycles + cycles).min(WINDOW);
        if self.window_cycles >= WINDOW {
            self.maybe_switch();
        }
    }

    /// The sparse half's cached-subset run, while sparse. Its stepped
    /// cycles join the sampling window with their true frontier sizes, and
    /// its skipped ones as zero-active cycles filling at most one window,
    /// so the selector decides as it would over sparse steps and skips.
    fn cached_cycles<S: ReportSink + ?Sized>(
        &mut self,
        input: &InputView,
        from: usize,
        to: usize,
        sink: &mut S,
    ) -> (usize, usize) {
        if self.in_dense {
            return (0, 0);
        }
        let mut active = 0;
        let (ran, idle) = self
            .sparse
            .run_subset::<S, true>(input, from, to, sink, &mut active);
        if ran > 0 {
            self.window_active += active;
            self.window_cycles += (ran - idle) as u64 + (idle as u64).min(WINDOW);
            if self.window_cycles >= WINDOW {
                self.maybe_switch();
            }
        }
        (ran, idle)
    }

    fn subset_cache(&mut self) -> Option<&mut SubsetCache> {
        self.sparse.subset_cache()
    }

    fn subset_counts(&self) -> (u64, u64) {
        self.sparse.subset_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use sunder_automata::regex::compile_rule_set;
    use sunder_automata::{StartKind, Ste, SymbolSet};

    fn traces_agree(nfa: &Nfa, input: &InputView) {
        let mut sparse = Simulator::new(nfa);
        let mut ts = TraceSink::new();
        sparse.run(input, &mut ts);
        let mut adaptive = AdaptiveEngine::new(nfa);
        let mut ta = TraceSink::new();
        adaptive.run(input, &mut ta);
        assert_eq!(ts.events, ta.events);
    }

    #[test]
    fn agrees_with_sparse_on_rule_sets() {
        let nfa = compile_rule_set(&["cat", "do[gt]", ".*zz"]).unwrap();
        let input = InputView::new(b"the cat dozes; the dog had a pizza zz", 8, 1).unwrap();
        traces_agree(&nfa, &input);
    }

    #[test]
    fn switches_to_dense_on_hot_automata() {
        // Every state matches every symbol: the whole automaton stays lit,
        // so the dense model must win within a few windows.
        let mut nfa = Nfa::new(4);
        let mut ids = Vec::new();
        for i in 0..128u32 {
            let ste = Ste::new(SymbolSet::full(4)).start(StartKind::AllInput);
            let ste = if i % 7 == 0 { ste.report(i) } else { ste };
            ids.push(nfa.add_state(ste));
        }
        for w in ids.windows(2) {
            nfa.add_edge(w[0], w[1]);
        }
        let input = InputView::from_symbols(vec![3; 1024], 1);
        let mut adaptive = AdaptiveEngine::new(&nfa);
        let mut trace = TraceSink::new();
        adaptive.run(&input, &mut trace);
        assert!(adaptive.is_dense(), "hot workload must go dense");
        assert!(adaptive.switch_count() >= 1);
        // And the trace still matches the sparse engine exactly.
        let mut sparse = Simulator::new(&nfa);
        let mut ts = TraceSink::new();
        sparse.run(&input, &mut ts);
        assert_eq!(ts.events, trace.events);
    }

    #[test]
    fn stays_sparse_on_large_cold_automata() {
        // A large automaton (many state-vector words) whose states match
        // bytes that never occur: the frontier stays ~0, so the sparse
        // model stays far below the dense per-cycle word cost. (Tiny cold
        // automata may legitimately go dense — one word is cheap.)
        let mut nfa = Nfa::new(8);
        for _ in 0..2048 {
            nfa.add_state(Ste::new(SymbolSet::singleton(8, 200)).start(StartKind::AllInput));
        }
        let input = InputView::new(&vec![b'a'; 4096], 8, 1).unwrap();
        let mut adaptive = AdaptiveEngine::new(&nfa);
        adaptive.run(&input, &mut crate::NullSink);
        assert!(!adaptive.is_dense(), "cold workload must stay sparse");
        assert_eq!(adaptive.switch_count(), 0);
    }

    #[test]
    fn reset_returns_to_sparse() {
        let mut nfa = Nfa::new(4);
        for _ in 0..128 {
            nfa.add_state(Ste::new(SymbolSet::full(4)).start(StartKind::AllInput));
        }
        let input = InputView::from_symbols(vec![1; 512], 1);
        let mut adaptive = AdaptiveEngine::new(&nfa);
        adaptive.run(&input, &mut crate::NullSink);
        assert!(adaptive.is_dense());
        adaptive.reset();
        assert!(!adaptive.is_dense());
        assert_eq!(adaptive.cycle(), 0);
        assert_eq!(adaptive.active_count(), 0);
    }

    #[test]
    fn mid_stream_switch_preserves_cross_boundary_matches() {
        // A chain long enough that a match spans the switch window: the
        // frontier hand-over must not lose partial progress. Hot starts
        // force the switch while the chain is mid-match.
        let mut nfa = Nfa::new(4);
        for _ in 0..96 {
            nfa.add_state(Ste::new(SymbolSet::full(4)).start(StartKind::AllInput));
        }
        // The chain: 70 singleton states for symbol 2, report at the end.
        let mut prev = None;
        for i in 0..70u32 {
            let mut ste = Ste::new(SymbolSet::singleton(4, 2));
            if i == 0 {
                ste = ste.start(StartKind::AllInput);
            }
            if i == 69 {
                ste = ste.report(99);
            }
            let id = nfa.add_state(ste);
            if let Some(p) = prev {
                nfa.add_edge(p, id);
            }
            prev = Some(id);
        }
        let input = InputView::from_symbols(vec![2; 300], 1);
        traces_agree(&nfa, &input);
    }

    fn hot_nfa(states: u32) -> Nfa {
        // Every state matches every symbol and starts everywhere: the
        // whole automaton stays lit, so the selector always wants dense.
        let mut nfa = Nfa::new(4);
        for _ in 0..states {
            nfa.add_state(Ste::new(SymbolSet::full(4)).start(StartKind::AllInput));
        }
        nfa
    }

    #[test]
    fn injected_dense_build_failure_degrades_to_sparse() {
        let nfa = hot_nfa(128);
        let input = InputView::from_symbols(vec![3; 1024], 1);
        let limits = AdaptiveLimits {
            fail_dense_build: true,
            ..AdaptiveLimits::default()
        };
        let mut engine = AdaptiveEngine::with_limits(&nfa, limits);
        let mut trace = TraceSink::new();
        engine.run(&input, &mut trace);
        assert!(
            !engine.is_dense(),
            "failed build must keep the engine sparse"
        );
        assert_eq!(engine.switch_count(), 0);
        assert_eq!(
            engine.degrade_reason(),
            Some(&DegradeReason::DenseBuildFailed)
        );
        // Degraded execution is still correct: the trace matches a plain run.
        let mut reference = AdaptiveEngine::new(&nfa);
        let mut expected = TraceSink::new();
        reference.run(&input, &mut expected);
        assert_eq!(trace.events, expected.events);
    }

    #[test]
    fn table_budget_exceeded_degrades_with_sizes() {
        let nfa = hot_nfa(128);
        let input = InputView::from_symbols(vec![3; 512], 1);
        let limits = AdaptiveLimits {
            table_budget_bytes: 16, // far below any real table
            ..AdaptiveLimits::default()
        };
        let mut engine = AdaptiveEngine::with_limits(&nfa, limits);
        engine.run(&input, &mut crate::NullSink);
        assert!(!engine.is_dense());
        match engine.degrade_reason() {
            Some(&DegradeReason::DenseBudgetExceeded { needed, budget }) => {
                assert_eq!(budget, 16);
                // The recheck reports the exact byte-classed footprint,
                // not the conservative 256-column estimate.
                assert_eq!(needed, DenseEngine::classed_table_bytes(&nfa));
                assert!(needed > budget);
            }
            other => panic!("expected budget degradation, got {other:?}"),
        }
    }

    #[test]
    fn reset_clears_degradation() {
        let nfa = hot_nfa(128);
        let input = InputView::from_symbols(vec![3; 512], 1);
        let limits = AdaptiveLimits {
            fail_dense_build: true,
            ..AdaptiveLimits::default()
        };
        let mut engine = AdaptiveEngine::with_limits(&nfa, limits);
        engine.run(&input, &mut crate::NullSink);
        assert!(engine.degrade_reason().is_some());
        engine.reset();
        assert_eq!(engine.degrade_reason(), None);
    }

    #[test]
    fn default_limits_do_not_degrade_hot_workloads() {
        let nfa = hot_nfa(128);
        let input = InputView::from_symbols(vec![3; 1024], 1);
        let mut engine = AdaptiveEngine::new(&nfa);
        engine.run(&input, &mut crate::NullSink);
        assert!(engine.is_dense());
        assert_eq!(engine.degrade_reason(), None);
    }

    /// The only sim test touching the process-global telemetry state:
    /// switch decisions surface as `engine.switch` instants carrying the
    /// fitted cost-model inputs, and degradations as `engine.degrade`.
    #[test]
    fn switch_decisions_emit_telemetry_with_cost_model_inputs() {
        let nfa = hot_nfa(128);
        let input = InputView::from_symbols(vec![3; 256], 1);
        sunder_telemetry::init(sunder_telemetry::Config::spans());
        let mut engine = AdaptiveEngine::new(&nfa);
        engine.run(&input, &mut crate::NullSink);
        let switches = engine.switch_count();
        assert!(switches >= 1);
        let dump = sunder_telemetry::finish().unwrap();
        let switch_events: Vec<_> = dump
            .events
            .iter()
            .filter(|e| e.name == "engine.switch")
            .collect();
        assert_eq!(switch_events.len() as u32, switches);
        let first = switch_events[0];
        let field = |k: &str| first.fields.iter().find(|f| f.key == k).unwrap();
        assert_eq!(
            field("direction").value,
            sunder_telemetry::Value::Str("dense".to_string())
        );
        // The decision inputs ride along: a hot 128-state automaton has
        // avg_active = 128 and a dense model decisively under the sparse.
        let cost = |k: &str| match field(k).value {
            sunder_telemetry::Value::F64(v) => v,
            ref other => panic!("{k} should be f64, got {other:?}"),
        };
        assert_eq!(cost("avg_active"), 128.0);
        assert!(cost("dense_cost_ns") < 0.7 * cost("sparse_cost_ns"));
        assert!(dump.events.iter().any(|e| e.name == "engine.dense_build"));
        assert_eq!(
            dump.metrics
                .counter("engine_switches_total", &[("direction", "dense")]),
            Some(u64::from(switches))
        );

        // Degradation: a refused build emits engine.degrade instead.
        sunder_telemetry::init(sunder_telemetry::Config::spans());
        let limits = AdaptiveLimits {
            fail_dense_build: true,
            ..AdaptiveLimits::default()
        };
        let mut degraded = AdaptiveEngine::with_limits(&nfa, limits);
        degraded.run(&input, &mut crate::NullSink);
        let dump = sunder_telemetry::finish().unwrap();
        let degrades: Vec<_> = dump
            .events
            .iter()
            .filter(|e| e.name == "engine.degrade")
            .collect();
        assert_eq!(degrades.len(), 1, "first degradation only");
        assert_eq!(dump.metrics.counter("engine_degrades_total", &[]), Some(1));
    }

    #[test]
    fn empty_automaton() {
        let nfa = Nfa::new(8);
        let input = InputView::new(b"abc", 8, 1).unwrap();
        let mut adaptive = AdaptiveEngine::new(&nfa);
        let mut trace = TraceSink::new();
        adaptive.run(&input, &mut trace);
        assert!(trace.events.is_empty());
        assert_eq!(adaptive.cycle(), 3);
    }
}
