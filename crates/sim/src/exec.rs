//! The engine abstraction: one automaton executor, many implementations.
//!
//! The repository ships three functional engines with identical observable
//! behavior (byte-identical report traces for the same automaton/input):
//!
//! * [`Simulator`](crate::Simulator) — the *sparse* frontier engine: per
//!   cycle cost proportional to the enabled candidate set. Wins when few
//!   states are active (cold rule sets, anchored patterns).
//! * [`DenseEngine`](crate::DenseEngine) — the *bit-parallel* engine: the
//!   whole state set is a bit vector and one cycle is a handful of wide
//!   word operations, mirroring the subarray's row-read/AND pipeline.
//!   Wins when many states are active (meshes, hot classes).
//! * [`AdaptiveEngine`](crate::AdaptiveEngine) — samples frontier density
//!   at runtime and switches between the two.
//!
//! [`EngineKind`] names them for configuration surfaces (CLI flags,
//! `sunder-core`'s builder) and [`EngineKind::build`] instantiates one.
//!
//! Each engine supplies only its cycle step, prefilter and cached-subset
//! hooks (the crate-private `Kernel` trait); one driver, `drive`, runs
//! them all. It polls a [`Budget`] only between windows of
//! [`Budget::poll_interval`] cycles, skipped and cached ones counting; an
//! unlimited budget is one window.

use sunder_automata::input::InputView;
use sunder_automata::{Nfa, StateId};
use sunder_resilience::{Budget, RunOutcome};

use crate::sink::ReportSink;
use crate::subset::SubsetCache;

/// A suspended mid-stream execution snapshot: everything an engine needs
/// to continue a stream later (possibly in a different engine instance,
/// or a different engine *kind* — all engines share the same observable
/// state model) without re-scanning any input.
///
/// The frontier is stored in ascending state order so snapshots are
/// canonical: two engines suspended at the same stream position produce
/// equal `EngineState`s regardless of internal representation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineState {
    /// Active states at the suspension point, ascending by state id.
    pub frontier: Vec<StateId>,
    /// Cycles executed before the suspension point (the global stream
    /// clock — report cycles continue from here on resume).
    pub cycle: u64,
}

impl EngineState {
    /// The initial configuration: cycle 0, empty frontier. Resuming from
    /// this is identical to running a fresh engine.
    pub fn initial() -> EngineState {
        EngineState::default()
    }

    /// `true` when this snapshot is the initial configuration.
    pub fn is_initial(&self) -> bool {
        self.frontier.is_empty() && self.cycle == 0
    }
}

/// A cycle-by-cycle automaton executor.
///
/// All engines share the three-stage cycle model: candidates (successors of
/// the frontier plus enabled starts) are intersected with the states whose
/// charsets match the symbol vector; the result is the next frontier and
/// its reporting members emit reports. Implementations must deliver
/// per-cycle reports in ascending state order so traces are
/// engine-independent.
pub trait Engine {
    /// Cycles executed so far.
    fn cycle(&self) -> u64;

    /// Number of states active after the last step.
    fn active_count(&self) -> usize;

    /// Resets to the initial configuration (cycle 0, empty frontier).
    fn reset(&mut self);

    /// Captures the current execution state into `out` (frontier in
    /// ascending state order, plus the cycle clock), clearing whatever
    /// `out` held before. The engine itself is left untouched, so
    /// suspension is observation, not mutation.
    ///
    /// Together with [`Engine::resume`] this is the streaming-session
    /// entry point: run a chunk, suspend, park the state, resume on the
    /// next chunk — the continuation is byte-identical to having run the
    /// concatenated input in one pass.
    fn suspend(&self, out: &mut EngineState);

    /// Restores a previously suspended execution state: the frontier
    /// becomes the active set and the cycle clock continues from
    /// `state.cycle`. States must be valid ids of this automaton.
    fn resume(&mut self, state: &EngineState);

    /// Executes one cycle on a symbol vector whose first `valid` entries
    /// carry real input. Returns the number of active states after the
    /// cycle.
    fn step(&mut self, vector: &[u16], valid: usize, sink: &mut dyn ReportSink) -> usize;

    /// Runs the whole input stream through the automaton. When the sink
    /// observes neither per-cycle activity nor active-state lists, steps
    /// are quiet and the rare-byte prefilter skips provably idle cycles.
    ///
    /// # Panics
    ///
    /// Panics if the view's stride does not match the automaton's.
    fn run(&mut self, input: &InputView, sink: &mut dyn ReportSink);

    /// Runs the input stream under a cooperative [`Budget`], on the same
    /// loop as [`Engine::run`] (prefilter and quiet steps included).
    ///
    /// The run is cut into windows of [`Budget::poll_interval`] cycles,
    /// prefiltered cycles counting like stepped ones, and
    /// [`Budget::exceeded`] is polled only between windows: the run stops
    /// early with [`RunOutcome::Interrupted`] when the deadline passes or
    /// the cancel token trips. An unlimited budget is a single window
    /// over the whole view, so it never polls.
    ///
    /// # Panics
    ///
    /// Panics if the view's stride does not match the automaton's.
    fn run_budgeted(
        &mut self,
        input: &InputView,
        sink: &mut dyn ReportSink,
        budget: &Budget,
    ) -> RunOutcome;
}

/// What one engine contributes to [`drive`]: its cycle step and the
/// prefilter hooks. The blanket impl below makes every `Kernel` an
/// [`Engine`].
pub(crate) trait Kernel {
    fn stride(&self) -> usize;
    fn cycle(&self) -> u64;
    fn active_count(&self) -> usize;
    fn reset(&mut self);
    fn suspend(&self, out: &mut EngineState);
    fn resume(&mut self, state: &EngineState);

    /// [`Engine::step`]; with `QUIET` minus the activity callbacks, which
    /// is legal only for sinks that want neither cycle activity nor
    /// active states.
    fn step<S: ReportSink + ?Sized, const QUIET: bool>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize;

    /// How many cycles of `input` from `from` on are provably idle,
    /// stepping to no active state and no report. Reads only cycles in
    /// `[from, to)` and returns at most `to − from`, so a skip never
    /// crosses a budget window. Default: none.
    fn idle_cycles(&self, _input: &InputView, _from: usize, _to: usize) -> usize {
        0
    }

    /// Advances over `cycles` cycles that [`Kernel::idle_cycles`] proved
    /// idle, without stepping them.
    fn skip(&mut self, cycles: u64);

    /// Quiet sinks only: runs cycles of `input` from `from` on, never past
    /// `to`, through a cached subset automaton, delivering their reports
    /// to `sink` and skipping idle stretches as [`Kernel::idle_cycles`]
    /// and [`Kernel::skip`] would. Returns the cycles advanced and how
    /// many of them were skipped. Zero cycles means the kernel has no
    /// cache or cannot take the next cycle, and the caller steps it.
    /// Default: none.
    fn cached_cycles<S: ReportSink + ?Sized>(
        &mut self,
        _input: &InputView,
        _from: usize,
        _to: usize,
        _sink: &mut S,
    ) -> (usize, usize) {
        (0, 0)
    }

    /// The stream's subset cache, to carry it across chunks. Default:
    /// none.
    fn subset_cache(&mut self) -> Option<&mut SubsetCache> {
        None
    }

    /// Subset-cache misses and fallbacks so far. Default: none.
    fn subset_counts(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl<K: Kernel> Engine for K {
    fn cycle(&self) -> u64 {
        Kernel::cycle(self)
    }

    fn active_count(&self) -> usize {
        Kernel::active_count(self)
    }

    fn reset(&mut self) {
        Kernel::reset(self);
    }

    fn suspend(&self, out: &mut EngineState) {
        Kernel::suspend(self, out);
    }

    fn resume(&mut self, state: &EngineState) {
        Kernel::resume(self, state);
    }

    fn step(&mut self, vector: &[u16], valid: usize, sink: &mut dyn ReportSink) -> usize {
        Kernel::step::<_, false>(self, vector, valid, sink)
    }

    // Statically dispatched loop: one virtual call per run, not per cycle.
    fn run(&mut self, input: &InputView, sink: &mut dyn ReportSink) {
        drive(self, input, sink, &Budget::unlimited());
    }

    fn run_budgeted(
        &mut self,
        input: &InputView,
        sink: &mut dyn ReportSink,
        budget: &Budget,
    ) -> RunOutcome {
        drive(self, input, sink, budget)
    }
}

/// The one run loop of every engine: checks the stride, picks the quiet
/// step once from the sink, then walks `input` window by window, fusing
/// the prefilter's skips and the cached-subset runs with the steps.
/// Skipped and cached cycles count toward the window, and `budget` is
/// polled only between windows; an unlimited budget is one window, so
/// the hot loop never polls.
///
/// # Panics
///
/// Panics if the view's stride does not match the automaton's.
pub(crate) fn drive<K: Kernel, S: ReportSink + ?Sized>(
    kernel: &mut K,
    input: &InputView,
    sink: &mut S,
    budget: &Budget,
) -> RunOutcome {
    fn windows<K: Kernel, S: ReportSink + ?Sized, const QUIET: bool>(
        kernel: &mut K,
        input: &InputView,
        sink: &mut S,
        budget: &Budget,
    ) -> RunOutcome {
        let total = input.num_cycles();
        let window = if budget.is_unlimited() {
            total
        } else {
            budget.poll_interval() as usize
        };
        let mut vectors = input.iter_ref();
        let (mut pos, mut skipped) = (0, 0);
        let subset_before = kernel.subset_counts();
        let outcome = loop {
            let end = total.min(pos + window);
            while pos < end {
                // Only a sink blind to activity may miss whole cycles.
                if QUIET {
                    let idle = kernel.idle_cycles(input, pos, end);
                    if idle > 0 {
                        kernel.skip(idle as u64);
                        vectors.advance_cycles(idle);
                        pos += idle;
                        skipped += idle;
                        // A skip ends on a cycle that may wake: step it.
                        if pos == end {
                            break;
                        }
                    }
                    let (ran, idle) = kernel.cached_cycles(input, pos, end, sink);
                    if ran > 0 {
                        vectors.advance_cycles(ran);
                        pos += ran;
                        skipped += idle;
                        continue;
                    }
                }
                let v = vectors.next().expect("the view yields num_cycles vectors");
                kernel.step::<S, QUIET>(v.symbols, v.valid, sink);
                pos += 1;
            }
            if pos == total {
                break RunOutcome::Completed;
            }
            if let Some(reason) = budget.exceeded() {
                let at_cycle = kernel.cycle();
                break RunOutcome::Interrupted { at_cycle, reason };
            }
        };
        // Once per run: the registry is a global lock, too dear per skip.
        if sunder_telemetry::enabled() {
            let (misses, fallbacks) = kernel.subset_counts();
            for (name, n) in [
                ("prefilter_skipped_total", skipped as u64),
                ("subset_cache_misses_total", misses - subset_before.0),
                ("subset_fallbacks_total", fallbacks - subset_before.1),
            ] {
                if n > 0 {
                    sunder_telemetry::counter_add(name, &[], n);
                }
            }
        }
        outcome
    }

    assert_eq!(
        input.stride(),
        kernel.stride(),
        "input view stride must match the automaton stride"
    );
    if sink.wants_cycle_activity() || sink.wants_active_states() {
        windows::<K, S, false>(kernel, input, sink, budget)
    } else {
        windows::<K, S, true>(kernel, input, sink, budget)
    }
}

/// Which functional engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The frontier-based sparse engine ([`crate::Simulator`]).
    Sparse,
    /// The bit-parallel dense engine ([`crate::DenseEngine`]).
    Dense,
    /// Density-sampled switching between the two
    /// ([`crate::AdaptiveEngine`]).
    #[default]
    Adaptive,
}

impl EngineKind {
    /// Every engine kind, for sweeps and benches.
    pub const ALL: [EngineKind; 3] = [EngineKind::Sparse, EngineKind::Dense, EngineKind::Adaptive];

    /// A short stable name (`sparse`/`dense`/`adaptive`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sparse => "sparse",
            EngineKind::Dense => "dense",
            EngineKind::Adaptive => "adaptive",
        }
    }

    /// Parses the name produced by [`EngineKind::name`].
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s {
            "sparse" => Some(EngineKind::Sparse),
            "dense" => Some(EngineKind::Dense),
            "adaptive" => Some(EngineKind::Adaptive),
            _ => None,
        }
    }

    /// Instantiates an engine of this kind for the automaton.
    pub fn build(self, nfa: &Nfa) -> Box<dyn Engine + '_> {
        match self {
            EngineKind::Sparse => Box::new(crate::Simulator::new(nfa)),
            EngineKind::Dense => Box::new(crate::DenseEngine::new(nfa)),
            EngineKind::Adaptive => Box::new(crate::AdaptiveEngine::new(nfa)),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;
    use sunder_automata::regex::compile_regex;

    #[test]
    fn kinds_round_trip_names() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EngineKind::parse("bogus"), None);
    }

    #[test]
    fn build_runs_any_kind() {
        let nfa = compile_regex("ab", 3).unwrap();
        let input = InputView::new(b"xxabab", 8, 1).unwrap();
        for kind in EngineKind::ALL {
            let mut engine = kind.build(&nfa);
            let mut trace = TraceSink::new();
            engine.run(&input, &mut trace);
            assert_eq!(trace.cycle_id_pairs(), vec![(3, 3), (5, 3)], "{kind}");
            assert_eq!(engine.cycle(), 6);
        }
    }

    #[test]
    fn unlimited_budget_runs_to_completion() {
        let nfa = compile_regex("ab", 3).unwrap();
        let input = InputView::new(b"xxabab", 8, 1).unwrap();
        for kind in EngineKind::ALL {
            let mut engine = kind.build(&nfa);
            let mut trace = TraceSink::new();
            let outcome = engine.run_budgeted(&input, &mut trace, &Budget::unlimited());
            assert_eq!(outcome, RunOutcome::Completed, "{kind}");
            assert_eq!(trace.cycle_id_pairs(), vec![(3, 3), (5, 3)], "{kind}");
        }
    }

    #[test]
    fn cancelled_budget_interrupts_every_engine() {
        use sunder_resilience::{CancelToken, StopReason};
        let nfa = compile_regex("ab", 3).unwrap();
        let input = InputView::new(&[b'x'; 4096], 8, 1).unwrap();
        for kind in EngineKind::ALL {
            let token = CancelToken::new();
            token.cancel();
            let budget = Budget::with_cancel(token).check_every(64);
            let mut engine = kind.build(&nfa);
            let outcome = engine.run_budgeted(&input, &mut crate::NullSink, &budget);
            match outcome {
                RunOutcome::Interrupted { at_cycle, reason } => {
                    assert_eq!(reason, StopReason::Cancelled, "{kind}");
                    // Stopped at the first poll, not at the end.
                    assert_eq!(at_cycle, 64, "{kind}");
                }
                RunOutcome::Completed => panic!("{kind}: cancelled run completed"),
            }
        }
    }

    #[test]
    fn expired_deadline_interrupts_at_first_poll() {
        use std::time::Duration;
        use sunder_resilience::StopReason;
        let nfa = compile_regex("ab", 3).unwrap();
        let input = InputView::new(&[b'x'; 1024], 8, 1).unwrap();
        let budget = Budget::with_deadline(Duration::ZERO).check_every(16);
        let mut engine = EngineKind::Sparse.build(&nfa);
        let outcome = engine.run_budgeted(&input, &mut crate::NullSink, &budget);
        assert_eq!(
            outcome,
            RunOutcome::Interrupted {
                at_cycle: 16,
                reason: StopReason::DeadlineExpired
            }
        );
    }

    #[test]
    fn daemon_budget_takes_the_prefiltered_loop() {
        use sunder_resilience::CancelToken;
        // The daemon's per-chunk budget: a live token that never trips,
        // polled every 64 cycles. Long idle stretches make the window
        // boundaries land mid-skip; the trailing 'a' leaves a frontier.
        let nfa = compile_regex("ab", 3).unwrap();
        let mut bytes = vec![b'x'; 1000];
        bytes.extend_from_slice(b"ab");
        bytes.extend_from_slice(&[b'x'; 1000]);
        bytes.push(b'a');
        let input = InputView::new(&bytes, 8, 1).unwrap();
        let daemon = Budget::with_cancel(CancelToken::new()).check_every(64);
        let observe = |engine: &mut dyn Engine, budget: &Budget| {
            let mut trace = TraceSink::new();
            let outcome = engine.run_budgeted(&input, &mut trace, budget);
            assert_eq!(outcome, RunOutcome::Completed);
            let mut state = EngineState::initial();
            engine.suspend(&mut state);
            (trace.events, engine.cycle(), state)
        };
        let unlimited = observe(&mut crate::Simulator::new(&nfa), &Budget::unlimited());
        assert_eq!(unlimited.0.len(), 1);
        assert_eq!(unlimited.1, bytes.len() as u64);
        assert_eq!(unlimited.2.frontier.len(), 1);

        let mut sparse = crate::Simulator::new(&nfa);
        assert_eq!(observe(&mut sparse, &daemon), unlimited);
        assert!(sparse.prefilter_skipped() > 0, "sparse never skipped");
        let mut adaptive = crate::AdaptiveEngine::new(&nfa);
        assert_eq!(observe(&mut adaptive, &daemon), unlimited);
        assert!(adaptive.prefilter_skipped() > 0, "adaptive never skipped");
    }

    #[test]
    fn budgeted_run_that_finishes_reports_completed() {
        use std::time::Duration;
        let nfa = compile_regex("ab", 3).unwrap();
        let input = InputView::new(b"xxabab", 8, 1).unwrap();
        let budget = Budget::with_deadline(Duration::from_secs(3600));
        let mut engine = EngineKind::Adaptive.build(&nfa);
        let mut trace = TraceSink::new();
        let outcome = engine.run_budgeted(&input, &mut trace, &budget);
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(trace.cycle_id_pairs(), vec![(3, 3), (5, 3)]);
    }
}
