//! End-to-end Sunder engine: the crate downstream users interact with.
//!
//! [`Engine`] bundles the whole pipeline the paper describes: compile
//! patterns to a homogeneous NFA, run the FlexAmata-style nibble
//! transformation and vectorized temporal striding for the configured
//! processing rate (through [`PipelineConfig::apply`], the same compile
//! path the daemon serves), place the result onto processing units,
//! execute the cycle-level machine, and expose the memory-mapped reporting
//! interface (readback, selective access, summarization).
//!
//! ```
//! use sunder_core::Engine;
//! use sunder_transform::Rate;
//!
//! let engine = Engine::builder().rate(Rate::Nibble4).fifo(true).build();
//! let program = engine.compile_patterns(&["virus[0-9]", "worm"])?;
//! let mut session = engine.load(&program)?;
//! let outcome = session.run(b"a worm and virus7 payload")?;
//! assert_eq!(outcome.reports, 2);
//! assert!(outcome.matched_rules.contains(&0)); // virus[0-9]
//! assert!(outcome.matched_rules.contains(&1)); // worm
//! assert_eq!(outcome.stats.reporting_overhead(), 1.0);
//! # Ok::<(), sunder_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;

pub use device::{DeviceModel, RoundPlan, RoundsOutcome};

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

use sunder_arch::{PlacementError, RunStats, SunderConfig, SunderMachine};
use sunder_automata::input::InputView;
use sunder_automata::regex::compile_rule_set;
use sunder_automata::stats::StaticStats;
use sunder_automata::{AutomataError, Nfa};
use sunder_sim::{ReportEvent, ReportSink};
use sunder_transform::{PipelineConfig, Rate};

pub use sunder_sim::EngineKind;

/// Which execution model a [`Session`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The cycle-level [`SunderMachine`]: placement, reporting regions,
    /// stalls — the full architecture model. The default.
    #[default]
    CycleAccurate,
    /// A functional engine from `sunder-sim` (sparse, dense bit-parallel,
    /// or adaptive): same reports, no microarchitectural bookkeeping.
    /// Orders of magnitude faster for report-trace collection.
    Functional(EngineKind),
}

/// Errors from the end-to-end engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Pattern compilation or transformation failed.
    Automata(AutomataError),
    /// The transformed automaton could not be placed.
    Placement(PlacementError),
    /// A connected component needs more processing units than the device
    /// has; it cannot be split across reconfiguration rounds.
    DeviceTooSmall {
        /// PUs the component needs.
        needed_pus: usize,
        /// PUs the device has.
        device_pus: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Automata(e) => write!(f, "automata error: {e}"),
            CoreError::Placement(e) => write!(f, "placement error: {e}"),
            CoreError::DeviceTooSmall {
                needed_pus,
                device_pus,
            } => write!(
                f,
                "a component needs {needed_pus} processing units but the device has {device_pus}"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Automata(e) => Some(e),
            CoreError::Placement(e) => Some(e),
            CoreError::DeviceTooSmall { .. } => None,
        }
    }
}

impl From<AutomataError> for CoreError {
    fn from(e: AutomataError) -> Self {
        CoreError::Automata(e)
    }
}

impl From<PlacementError> for CoreError {
    fn from(e: PlacementError) -> Self {
        CoreError::Placement(e)
    }
}

/// Builder for [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: SunderConfig,
    backend: ExecBackend,
}

impl EngineBuilder {
    /// Sets the processing rate (default: 4 nibbles = 16 bits/cycle).
    pub fn rate(mut self, rate: Rate) -> Self {
        let fifo = self.config.fifo;
        self.config = SunderConfig::with_rate(rate).fifo(fifo);
        self
    }

    /// Enables or disables the FIFO reporting drain (default: off).
    pub fn fifo(mut self, on: bool) -> Self {
        self.config.fifo = on;
        self
    }

    /// Overrides the full machine configuration.
    pub fn config(mut self, config: SunderConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the execution backend (default: the cycle-accurate
    /// machine). `ExecBackend::Functional(EngineKind::Adaptive)` runs the
    /// density-adaptive functional engine instead.
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Finalizes the engine.
    pub fn build(self) -> Engine {
        Engine {
            config: self.config,
            backend: self.backend,
        }
    }
}

/// The Sunder engine: compiles and runs pattern programs.
#[derive(Debug, Clone)]
pub struct Engine {
    config: SunderConfig,
    backend: ExecBackend,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::builder().build()
    }
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            config: SunderConfig::default(),
            backend: ExecBackend::default(),
        }
    }

    /// The execution backend this engine's sessions use.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// The machine configuration this engine uses.
    pub fn config(&self) -> &SunderConfig {
        &self.config
    }

    /// Compiles a regex rule set into a program (rule `i` reports id `i`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Automata`] on pattern or transformation errors.
    pub fn compile_patterns<S: AsRef<str>>(&self, patterns: &[S]) -> Result<Program, CoreError> {
        let nfa = compile_rule_set(patterns)?;
        self.compile_nfa(&nfa)
    }

    /// Compiles an already-built byte automaton into a program, through
    /// the configured rate's [`PipelineConfig::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Automata`] on transformation errors.
    pub fn compile_nfa(&self, nfa: &Nfa) -> Result<Program, CoreError> {
        let (strided, _) = PipelineConfig::from(self.config.rate).apply(nfa)?;
        Ok(Program {
            rate: self.config.rate,
            source_stats: StaticStats::of(nfa),
            strided_stats: StaticStats::of(&strided),
            strided,
        })
    }

    /// Wraps an already-transformed nibble automaton (e.g. the one a
    /// mapped `.sdb` holds) as a program without re-running the
    /// transformation pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::WidthMismatch`] if the automaton is not
    /// 4-bit, and [`AutomataError::StrideMismatch`] if its stride is not
    /// the engine rate's.
    pub fn compile_precompiled(&self, strided: Nfa) -> Result<Program, CoreError> {
        let expected = self.config.rate.nibbles_per_cycle();
        match (strided.symbol_bits(), strided.stride()) {
            (4, stride) if stride == expected => {}
            (4, found) => return Err(AutomataError::StrideMismatch { expected, found }.into()),
            (found, _) => return Err(AutomataError::WidthMismatch { expected: 4, found }.into()),
        }
        let stats = StaticStats::of(&strided);
        Ok(Program {
            rate: self.config.rate,
            source_stats: stats.clone(),
            strided_stats: stats,
            strided,
        })
    }

    /// Configures a machine with a compiled program.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Placement`] if the program cannot be placed.
    pub fn load(&self, program: &Program) -> Result<Session, CoreError> {
        let machine = SunderMachine::new(program.automaton(), self.config)?;
        Ok(Session {
            machine,
            rate: self.config.rate,
            backend: self.backend,
            strided: match self.backend {
                ExecBackend::CycleAccurate => None,
                ExecBackend::Functional(_) => Some(program.automaton().clone()),
            },
        })
    }
}

/// A compiled pattern program: the transformed automaton plus statistics.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) strided: Nfa,
    pub(crate) rate: Rate,
    pub(crate) source_stats: StaticStats,
    pub(crate) strided_stats: StaticStats,
}

impl Program {
    /// The transformed (nibble, strided) automaton.
    pub fn automaton(&self) -> &Nfa {
        &self.strided
    }

    /// The rate the program was compiled for.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Statistics of the source byte automaton.
    pub fn source_stats(&self) -> &StaticStats {
        &self.source_stats
    }

    /// Statistics after transformation (the hardware footprint).
    pub fn strided_stats(&self) -> &StaticStats {
        &self.strided_stats
    }

    /// State overhead of the transformation (Table 3's ratio).
    pub fn state_overhead(&self) -> f64 {
        if self.source_stats.states == 0 {
            1.0
        } else {
            self.strided_stats.states as f64 / self.source_stats.states as f64
        }
    }
}

/// Result of one execution.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Machine statistics (cycles, stalls, flushes, …).
    pub stats: RunStats,
    /// Total reports delivered.
    pub reports: u64,
    /// Machine cycles with at least one report.
    pub report_cycles: u64,
    /// Rule ids (report ids) that matched at least once.
    pub matched_rules: BTreeSet<u32>,
}

/// A loaded machine ready to process input.
#[derive(Debug)]
pub struct Session {
    machine: SunderMachine,
    rate: Rate,
    backend: ExecBackend,
    /// Owned copy of the program automaton, held only when the functional
    /// backend is selected (the functional engines borrow it per run).
    strided: Option<Nfa>,
}

impl Session {
    /// Processes a byte stream, collecting rule-level results.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Automata`] if the input cannot be viewed at
    /// the configured rate (cannot happen for byte inputs).
    pub fn run(&mut self, input: &[u8]) -> Result<Outcome, CoreError> {
        let mut collector = RuleCollector::default();
        let stats = self.run_with_sink(input, &mut collector)?;
        Ok(Outcome {
            stats,
            reports: collector.reports,
            report_cycles: collector.report_cycles,
            matched_rules: collector.rules,
        })
    }

    /// Processes a byte stream, streaming reports into a custom sink.
    ///
    /// # Errors
    ///
    /// See [`Session::run`].
    pub fn run_with_sink<S: ReportSink>(
        &mut self,
        input: &[u8],
        sink: &mut S,
    ) -> Result<RunStats, CoreError> {
        let view = InputView::new(input, 4, self.rate.nibbles_per_cycle())?;
        match self.backend {
            ExecBackend::CycleAccurate => Ok(self.machine.run(&view, sink)),
            ExecBackend::Functional(kind) => {
                let nfa = self
                    .strided
                    .as_ref()
                    .expect("functional sessions hold the program automaton");
                let mut engine = kind.build(nfa);
                let mut tee = CountingTee::new(sink);
                engine.run(&view, &mut tee);
                // Functional engines model no reporting architecture:
                // kernel cycles only, zero stalls/flushes, and one region
                // entry per reporting cycle is not simulated.
                Ok(RunStats {
                    input_cycles: view.num_cycles() as u64,
                    reports: tee.reports,
                    report_cycles: tee.report_cycles,
                    active_state_cycles: tee.active_state_cycles,
                    ..RunStats::default()
                })
            }
        }
    }

    /// The underlying machine (host reporting interface: summarization,
    /// selective reads, flushes).
    pub fn machine(&mut self) -> &mut SunderMachine {
        &mut self.machine
    }

    /// Summarizes every processing unit's reporting region in place and
    /// returns the rule ids with at least one report still buffered.
    ///
    /// This is the paper's *report summarization*: the host learns "did
    /// rule X fire since the last flush" without streaming the
    /// cycle-accurate log out.
    ///
    /// Only the cycle-accurate backend fills reporting regions; under a
    /// functional backend this returns the empty set.
    pub fn summarize_matched_rules(&mut self) -> BTreeSet<u32> {
        let mut rules = BTreeSet::new();
        for pu in 0..self.machine.num_pus() {
            if self.machine.report_column_states(pu).is_empty() {
                continue;
            }
            let mask = self.machine.summarize_pu(pu);
            if mask == 0 {
                continue;
            }
            for bit in 0..32u8 {
                if mask >> bit & 1 == 1 {
                    rules.extend(self.machine.report_rule_ids(pu, bit));
                }
            }
        }
        rules
    }
}

/// Forwards every sink callback unchanged while counting what the
/// synthesized [`RunStats`] of a functional run needs.
struct CountingTee<'s, S: ReportSink> {
    inner: &'s mut S,
    reports: u64,
    report_cycles: u64,
    active_state_cycles: u64,
}

impl<'s, S: ReportSink> CountingTee<'s, S> {
    fn new(inner: &'s mut S) -> Self {
        CountingTee {
            inner,
            reports: 0,
            report_cycles: 0,
            active_state_cycles: 0,
        }
    }
}

impl<S: ReportSink> ReportSink for CountingTee<'_, S> {
    fn on_cycle_reports(&mut self, cycle: u64, reports: &[ReportEvent]) {
        self.reports += reports.len() as u64;
        self.report_cycles += 1;
        self.inner.on_cycle_reports(cycle, reports);
    }

    fn on_cycle_activity(&mut self, cycle: u64, active_states: usize) {
        self.active_state_cycles += active_states as u64;
        self.inner.on_cycle_activity(cycle, active_states);
    }

    // `active_state_cycles` is a sum and prefilter-skipped cycles are
    // provably empty (contribute zero), so the tee only needs activity
    // callbacks when the wrapped sink does.
    fn wants_cycle_activity(&self) -> bool {
        self.inner.wants_cycle_activity()
    }

    fn wants_active_states(&self) -> bool {
        self.inner.wants_active_states()
    }

    fn on_active_states(&mut self, cycle: u64, active: &[sunder_automata::StateId]) {
        self.inner.on_active_states(cycle, active);
    }
}

/// Streaming collector of rule-level results.
#[derive(Debug, Default)]
struct RuleCollector {
    reports: u64,
    report_cycles: u64,
    rules: BTreeSet<u32>,
}

impl ReportSink for RuleCollector {
    fn on_cycle_reports(&mut self, _cycle: u64, reports: &[ReportEvent]) {
        self.reports += reports.len() as u64;
        self.report_cycles += 1;
        for ev in reports {
            self.rules.insert(ev.info.id);
        }
    }

    // Report-only: lets the engines prefilter past provably idle cycles.
    fn wants_cycle_activity(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_matches() {
        let engine = Engine::builder().rate(Rate::Nibble2).build();
        let program = engine.compile_patterns(&["cat", "dog"]).unwrap();
        let mut session = engine.load(&program).unwrap();
        let outcome = session.run(b"the cat chased the dog and the cat").unwrap();
        assert_eq!(outcome.reports, 3);
        assert_eq!(outcome.matched_rules.len(), 2);
        assert_eq!(outcome.report_cycles, 3);
    }

    #[test]
    fn all_rates_agree_on_rule_results() {
        let input = b"alpha beta 42 gamma beta7";
        let mut results = Vec::new();
        for rate in Rate::ALL {
            let engine = Engine::builder().rate(rate).build();
            let program = engine.compile_patterns(&["beta[0-9]?", "gamma"]).unwrap();
            let mut session = engine.load(&program).unwrap();
            let outcome = session.run(input).unwrap();
            results.push((outcome.reports, outcome.matched_rules.clone()));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn program_exposes_transformation_stats() {
        let engine = Engine::builder().rate(Rate::Nibble1).build();
        let program = engine.compile_patterns(&["hello"]).unwrap();
        assert_eq!(program.source_stats().states, 5);
        assert!(program.state_overhead() >= 1.0);
        assert_eq!(program.rate(), Rate::Nibble1);
        assert_eq!(program.automaton().symbol_bits(), 4);
    }

    #[test]
    fn summarize_after_run() {
        let engine = Engine::builder().rate(Rate::Nibble4).build();
        let program = engine.compile_patterns(&["xyz", "qqq"]).unwrap();
        let mut session = engine.load(&program).unwrap();
        session.run(b"say xyz once").unwrap();
        let rules = session.summarize_matched_rules();
        assert!(rules.contains(&0));
        assert!(!rules.contains(&1));
    }

    #[test]
    fn functional_backends_agree_with_machine() {
        let patterns = ["beta[0-9]?", "gamma", "a+b"];
        let input = b"alpha beta 42 gamma beta7 aab";
        let reference = {
            let engine = Engine::builder().rate(Rate::Nibble2).build();
            let program = engine.compile_patterns(&patterns).unwrap();
            let mut session = engine.load(&program).unwrap();
            session.run(input).unwrap()
        };
        for kind in EngineKind::ALL {
            let engine = Engine::builder()
                .rate(Rate::Nibble2)
                .backend(ExecBackend::Functional(kind))
                .build();
            assert_eq!(engine.backend(), ExecBackend::Functional(kind));
            let program = engine.compile_patterns(&patterns).unwrap();
            let mut session = engine.load(&program).unwrap();
            let outcome = session.run(input).unwrap();
            assert_eq!(outcome.reports, reference.reports, "{kind}");
            assert_eq!(outcome.report_cycles, reference.report_cycles, "{kind}");
            assert_eq!(outcome.matched_rules, reference.matched_rules, "{kind}");
            assert_eq!(
                outcome.stats.input_cycles, reference.stats.input_cycles,
                "{kind}"
            );
            assert_eq!(outcome.stats.stall_cycles, 0, "{kind}");
        }
    }

    #[test]
    fn bad_pattern_is_reported() {
        let engine = Engine::default();
        let err = engine.compile_patterns(&["("]).unwrap_err();
        assert!(matches!(err, CoreError::Automata(_)));
        assert!(err.to_string().contains("automata"));
        assert!(err.source().is_some());
    }

    #[test]
    fn programs_run_the_served_automaton() {
        // The `.*` head is compiled away, as in a `.sdb`.
        let nfa = compile_rule_set(&[".*ab"]).unwrap();
        for rate in Rate::ALL {
            let engine = Engine::builder().rate(rate).build();
            let program = engine.compile_nfa(&nfa).unwrap();
            let (served, _) = PipelineConfig::from(rate).apply(&nfa).unwrap();
            assert_eq!(program.automaton(), &served, "{rate}");
        }
    }

    #[test]
    fn precompiled_programs_must_match_the_rate() {
        let engine = Engine::builder().rate(Rate::Nibble2).build();
        let bytes = compile_rule_set(&["ab"]).unwrap();
        assert_eq!(
            engine.compile_precompiled(bytes.clone()).unwrap_err(),
            CoreError::Automata(AutomataError::WidthMismatch {
                expected: 4,
                found: 8
            })
        );
        let (stride4, _) = PipelineConfig::Stride4.apply(&bytes).unwrap();
        assert_eq!(
            engine.compile_precompiled(stride4).unwrap_err(),
            CoreError::Automata(AutomataError::StrideMismatch {
                expected: 2,
                found: 4
            })
        );
        let (stride2, _) = PipelineConfig::Stride2.apply(&bytes).unwrap();
        let program = engine.compile_precompiled(stride2).unwrap();
        assert_eq!(program.automaton().stride(), 2);
    }

    #[test]
    fn empty_program_fails_to_load() {
        let engine = Engine::default();
        let program = engine.compile_nfa(&Nfa::new(8)).unwrap();
        assert!(matches!(
            engine.load(&program),
            Err(CoreError::Placement(_))
        ));
    }
}
