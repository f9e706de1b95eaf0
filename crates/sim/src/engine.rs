//! The functional automata simulator.
//!
//! [`Simulator`] executes a homogeneous NFA cycle by cycle over an input
//! stream, exactly following the three-stage model of the paper's Figure 1:
//! per cycle, the set of *potential next states* (successors of the current
//! active set plus the enabled start states) is intersected with the set of
//! states whose charsets match the current symbol vector; the result is the
//! next active set and its reporting members emit reports.
//!
//! The implementation is frontier-based: per cycle the cost is proportional
//! to the number of enabled candidate states, not the automaton size, using
//! generation stamps instead of clearing bitsets.
//!
//! Two build-time specializations keep the hot loop tight (see
//! [`crate::fastpath`]): each state's charset is compiled into the cheapest
//! matching encoding (empty / single symbol / range / sorted list / bitset
//! / full), and a per-symbol start LUT powers a rare-byte *prefilter* —
//! when the frontier is empty and the sink observes only reports, whole
//! runs of cycles whose leading symbol cannot enable any start state are
//! skipped without stepping.
//!
//! Under quiet sinks a stride-1 stream over at most 256 symbols steps
//! through a cached subset automaton instead ([`crate::subset`]): one
//! table lookup per cycle while the frontiers it reaches stay few, and the
//! plain frontier step again for good when they do not.

use std::sync::{Arc, OnceLock};

use sunder_automata::input::InputView;
use sunder_automata::{ByteClasses, Nfa, ReportInfo, StateId};
use sunder_resilience::Budget;

use crate::exec::{drive, EngineState, Kernel};
use crate::fastpath::{SparseTables, StartIndex, ENCODING_KINDS, MAX_BUCKETED_ALPHABET};
use crate::sink::{ReportEvent, ReportSink};
use crate::subset::{SubsetCache, Verdict, EMPTY, INDEX, REPORTS, TAG, UNKNOWN};

/// Cycle-by-cycle executor for one automaton over one input stream.
///
/// # Examples
///
/// ```
/// use sunder_automata::regex::compile_regex;
/// use sunder_automata::InputView;
/// use sunder_sim::{Simulator, TraceSink};
///
/// let nfa = compile_regex("ab", 9)?;
/// let input = InputView::new(b"xxabx", 8, 1)?;
/// let mut sim = Simulator::new(&nfa);
/// let mut trace = TraceSink::new();
/// sim.run(&input, &mut trace);
/// assert_eq!(trace.cycle_id_pairs(), vec![(3, 9)]);
/// # Ok::<(), sunder_automata::AutomataError>(())
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    /// The automaton the tables were built from; the step reads only the
    /// tables, the subset cache its byte classes.
    nfa: &'a Nfa,
    /// Compiled symbol codes, CSR successors, start index and prefilter
    /// LUT — shareable across simulators of the same automaton.
    tables: Arc<SparseTables>,
    /// The automaton's byte classes, derived on the subset cache's first
    /// use and shared like the tables.
    classes: Arc<OnceLock<ByteClasses>>,
    /// This stream's subset cache.
    subset: SubsetCache,
    /// The cache state whose frontier `active` holds at `cycle`, while
    /// nothing else has stepped.
    subset_at: Option<u32>,
    /// Subset-cache misses and fallbacks, cumulative.
    subset_misses: u64,
    subset_fallbacks: u64,
    /// Current active set (sparse).
    active: Vec<StateId>,
    /// Candidate de-duplication stamps, one per state, allocated by the
    /// first candidate walk ([`stamps`]): a chunk the subset cache runs
    /// whole never needs them.
    stamp: Vec<u64>,
    generation: u64,
    cycle: u64,
    /// Scratch: candidate states for the current cycle.
    candidates: Vec<StateId>,
    /// Scratch: reports for the current cycle.
    reports: Vec<ReportEvent>,
    /// Cycles the prefilter skipped without stepping (cumulative; survives
    /// [`Simulator::reset`]).
    prefilter_skipped: u64,
    /// The start LUT unpacked to one flag per alphabet symbol, the
    /// prefilter's table: a byte load per test instead of a bit extract.
    wakes: Box<[bool]>,
}

/// Generation-stamped candidate insertion; a free function so the
/// disjoint field borrows are visible to the compiler.
#[inline(always)]
fn push(stamp: &mut [u64], candidates: &mut Vec<StateId>, gen: u64, id: StateId) {
    let slot = &mut stamp[id.index()];
    if *slot != gen {
        *slot = gen;
        candidates.push(id);
    }
}

/// The stamps, allocated for `states` states on first use.
#[inline(always)]
fn stamps(stamp: &mut Vec<u64>, states: usize) -> &mut [u64] {
    if stamp.len() != states {
        *stamp = vec![0; states];
    }
    stamp
}

/// The stride-1 candidate walk: the successors of `frontier`, then (when
/// `starts`) the all-input starts, that accept `sym`, each pushed once
/// under generation `gen` into `out`. Candidates are checked against
/// their (single) charset *before* insertion, and bucketed starts skip
/// the check entirely (bucket membership is the match).
#[inline(always)]
fn gather1(
    tables: &SparseTables,
    stamp: &mut [u64],
    gen: u64,
    out: &mut Vec<StateId>,
    frontier: &[StateId],
    sym: u16,
    starts: bool,
) {
    out.clear();
    for &s in frontier {
        for &t in tables.successors(s) {
            if tables.matches1(t, sym) {
                push(stamp, out, gen, t);
            }
        }
    }
    if starts {
        match &tables.start_index {
            StartIndex::Bucketed { off, flat } => {
                let i = usize::from(sym);
                for &id in &flat[off[i] as usize..off[i + 1] as usize] {
                    push(stamp, out, gen, id);
                }
            }
            StartIndex::Flat(all) => {
                for &id in all {
                    if tables.matches1(id, sym) {
                        push(stamp, out, gen, id);
                    }
                }
            }
        }
    }
}

impl<'a> Simulator<'a> {
    /// Prepares a simulator for the automaton. The automaton must be valid
    /// (see [`Nfa::validate`]).
    pub fn new(nfa: &'a Nfa) -> Self {
        Simulator::with_tables(nfa, Arc::new(SparseTables::build(nfa)), Arc::default())
    }

    /// Prepares a simulator around precompiled tables and a (possibly
    /// already filled) byte-class cell, skipping the per-automaton build.
    /// Both must belong to `nfa`.
    pub(crate) fn with_tables(
        nfa: &'a Nfa,
        tables: Arc<SparseTables>,
        classes: Arc<OnceLock<ByteClasses>>,
    ) -> Self {
        debug_assert_eq!(tables.stride, nfa.stride());
        let lut = &tables.start_lut;
        let wakes = (0..tables.alphabet)
            .map(|i| (lut[i >> 6] >> (i & 63)) & 1 != 0)
            .collect();
        Simulator {
            nfa,
            tables,
            classes,
            subset: SubsetCache::default(),
            subset_at: None,
            subset_misses: 0,
            subset_fallbacks: 0,
            active: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
            cycle: 0,
            candidates: Vec::new(),
            reports: Vec::new(),
            prefilter_skipped: 0,
            wakes,
        }
    }

    /// Cycles executed so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The currently active states (sorted not guaranteed).
    pub fn active_states(&self) -> &[StateId] {
        &self.active
    }

    /// Cycles the rare-byte prefilter skipped without stepping, cumulative
    /// over the simulator's lifetime (not cleared by [`Simulator::reset`]).
    pub fn prefilter_skipped(&self) -> u64 {
        self.prefilter_skipped
    }

    /// Build-time charset-encoding histogram as `(kind, count)` pairs —
    /// how many state × position charsets compiled to each specialized
    /// encoding (`empty`, `one`, `range`, `sparse`, `dense`, `full`).
    pub fn encoding_histogram(&self) -> [(&'static str, u64); 6] {
        let mut out = [("", 0u64); 6];
        for (slot, (kind, &count)) in out
            .iter_mut()
            .zip(ENCODING_KINDS.iter().zip(&self.tables.encoding_counts))
        {
            *slot = (kind, count);
        }
        out
    }

    /// Resets to the initial configuration (cycle 0, empty active set).
    pub fn reset(&mut self) {
        self.active.clear();
        self.cycle = 0;
        self.subset_at = None;
        // Stamps stay monotone; no clearing needed.
    }

    /// Replaces the current frontier and cycle counter.
    ///
    /// This is the engine-switch entry point: the adaptive engine uses it
    /// to hand a mid-stream frontier over from the dense representation.
    /// States must be valid ids of this automaton; duplicates are allowed
    /// (deduplication happens on the next step).
    pub fn load_frontier(&mut self, states: &[StateId], cycle: u64) {
        self.active.clear();
        self.active.extend_from_slice(states);
        self.cycle = cycle;
        self.subset_at = None;
    }

    /// Captures the current execution state (canonical ascending-state
    /// frontier plus cycle clock) into `out`; see
    /// [`crate::exec::Engine::suspend`].
    pub fn suspend(&self, out: &mut EngineState) {
        out.frontier.clear();
        out.frontier.extend_from_slice(&self.active);
        out.frontier.sort_unstable_by_key(|s| s.index());
        out.cycle = self.cycle;
    }

    /// Restores a suspended execution state; see
    /// [`crate::exec::Engine::resume`].
    pub fn resume(&mut self, state: &EngineState) {
        self.load_frontier(&state.frontier, state.cycle);
    }

    /// One cycle of the stride-1 specialization ([`gather1`]): the
    /// separate match pass of the general path disappears. Trace-identical
    /// to the general path by construction: insertion order and dedup
    /// discipline are unchanged, only the filter moved. `QUIET` is as in
    /// [`Kernel::step`].
    fn step1<S: ReportSink + ?Sized, const QUIET: bool>(
        &mut self,
        sym: u16,
        sink: &mut S,
    ) -> usize {
        self.generation += 1;
        self.subset_at = None;
        let gen = self.generation;
        // Field-disjoint borrows: hoisting the shared-table deref out of
        // the loops lets the optimizer keep it in a register across the
        // stamp/candidate writes.
        let tables = &*self.tables;
        let stamp = stamps(&mut self.stamp, self.nfa.num_states());
        let candidates = &mut self.candidates;
        // The `== 1` short-circuit keeps the (slow) u64 modulo off the
        // per-cycle path for the overwhelmingly common period-1 case.
        let starts = tables.start_period == 1 || self.cycle.is_multiple_of(tables.start_period);
        gather1(tables, stamp, gen, candidates, &self.active, sym, starts);
        if self.cycle == 0 {
            for &id in &tables.sod_starts {
                if tables.matches1(id, sym) {
                    push(stamp, candidates, gen, id);
                }
            }
        }

        // Candidates are already matched: they ARE the next frontier.
        std::mem::swap(&mut self.active, &mut self.candidates);

        self.reports.clear();
        for &id in &self.active {
            for r in self.tables.reports(id) {
                // offset 0 is the only live position at stride 1.
                if r.offset == 0 {
                    self.reports.push(ReportEvent {
                        cycle: self.cycle,
                        state: id,
                        info: ReportInfo::at_offset(r.id, r.offset as u8),
                    });
                }
            }
        }
        if self.reports.len() > 1 {
            self.reports.sort_by_key(|e| e.state.index());
        }
        if !self.reports.is_empty() {
            sink.on_cycle_reports(self.cycle, &self.reports);
        }
        if !QUIET {
            sink.on_cycle_activity(self.cycle, self.active.len());
            if sink.wants_active_states() {
                sink.on_active_states(self.cycle, &self.active);
            }
        }
        self.cycle += 1;
        self.active.len()
    }

    /// Executes one cycle on a symbol vector whose first `valid` entries
    /// carry real input, delivering any reports to `sink`.
    ///
    /// Returns the number of active states after the cycle.
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) if the vector length does not match
    /// the automaton's stride: silently misreading a mismatched view would
    /// corrupt every downstream statistic.
    pub fn step<S: ReportSink + ?Sized>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize {
        Kernel::step::<S, false>(self, vector, valid, sink)
    }

    /// Runs the whole input stream through the automaton, allocation-free;
    /// the prefilter and quiet steps apply as in [`crate::Engine::run`].
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) if the view's stride does not match
    /// the automaton's.
    pub fn run<S: ReportSink + ?Sized>(&mut self, input: &InputView, sink: &mut S) {
        drive(self, input, sink, &Budget::unlimited());
    }

    /// Subset-cache misses and fallbacks over this simulator's lifetime.
    pub(crate) fn subset_counts(&self) -> (u64, u64) {
        (self.subset_misses, self.subset_fallbacks)
    }

    /// The cached-subset loop behind [`Kernel::cached_cycles`]: from the
    /// state holding the current frontier, one class lookup and one table
    /// load per cycle. It leaves the table to fill a miss, to deliver a
    /// state's precomputed reports, and to run the prefilter skip from an
    /// empty frontier; it stops at an out-of-alphabet symbol (which the
    /// sparse step handles) and for good on a fallback. Returns the cycles
    /// it advanced and how many of them it skipped; `active` and `cycle`
    /// are then the true frontier and clock. With `COUNT` the frontier
    /// size of every cycle stepped is added to `active_sum`.
    #[inline(always)]
    pub(crate) fn run_subset<S: ReportSink + ?Sized, const COUNT: bool>(
        &mut self,
        input: &InputView,
        from: usize,
        to: usize,
        sink: &mut S,
        active_sum: &mut u64,
    ) -> (usize, usize) {
        // Checked inline: a stream that fell back pays no call per step.
        if self.subset.is_off() || self.tables.stride != 1 {
            return (0, 0);
        }
        self.run_subset_on::<S, COUNT>(input, from, to, sink, active_sum)
    }

    /// [`Simulator::run_subset`] past its inline checks.
    fn run_subset_on<S: ReportSink + ?Sized, const COUNT: bool>(
        &mut self,
        input: &InputView,
        from: usize,
        to: usize,
        sink: &mut S,
        active_sum: &mut u64,
    ) -> (usize, usize) {
        let tables = &*self.tables;
        if self.cycle == 0 && !tables.sod_starts.is_empty() {
            return (0, 0);
        }
        if tables.alphabet > MAX_BUCKETED_ALPHABET {
            self.subset.turn_off();
            return (0, 0);
        }
        let (nfa, classes) = (self.nfa, &self.classes);
        let classes = || classes.get_or_init(|| ByteClasses::of(nfa));
        let Some(dfa) = self.subset.live(classes) else {
            return (0, 0);
        };
        let (class_of, reps, states) = (&dfa.class_of, &dfa.reps, &mut dfa.states);
        let period = tables.start_period;
        let phase_at = |cycle: u64| if period == 1 { 0 } else { cycle % period };
        let mut cur = match self.subset_at {
            Some(id) => id,
            None => {
                let key = &mut self.candidates;
                key.clear();
                key.extend_from_slice(&self.active);
                key.sort_unstable_by_key(|s| s.index());
                key.dedup();
                states.intern(phase_at(self.cycle) as u32, key, tables) & INDEX
            }
        };
        let syms = &input.symbols()[from..to];
        let base = self.cycle;
        let (mut i, mut skipped) = (0, 0);
        let mut fell_back = false;
        while let Some(&sym) = syms.get(i) {
            let Some(&class) = class_of.get(usize::from(sym)) else {
                break;
            };
            let class = usize::from(class);
            let mut next = states.trans[cur as usize + class];
            if next < TAG {
                cur = next;
                if COUNT {
                    *active_sum += u64::from(states.frontier_len(cur));
                }
                i += 1;
                continue;
            }
            if next == UNKNOWN {
                self.subset_misses += 1;
                // The frontier before this cycle, kept across a clear.
                self.active.clear();
                self.active.extend_from_slice(states.frontier(cur));
                let phase = states.phase(cur);
                match states.miss(states.stepped + (i - skipped) as u64) {
                    Verdict::FallBack => {
                        fell_back = true;
                        break;
                    }
                    Verdict::Cleared => cur = states.intern(phase, &self.active, tables) & INDEX,
                    Verdict::Fill => {}
                }
                self.generation += 1;
                let out = &mut self.candidates;
                let gen = self.generation;
                let stamp = stamps(&mut self.stamp, nfa.num_states());
                gather1(
                    tables,
                    stamp,
                    gen,
                    out,
                    &self.active,
                    reps[class],
                    phase == 0,
                );
                out.sort_unstable_by_key(|s| s.index());
                next = states.intern(phase_at(u64::from(phase) + 1) as u32, out, tables);
                states.trans[cur as usize + class] = next;
            }
            cur = next & INDEX;
            if COUNT {
                *active_sum += u64::from(states.frontier_len(cur));
            }
            i += 1;
            if next & REPORTS != 0 {
                let cycle = base + i as u64 - 1;
                self.reports.clear();
                let slice = states.reports(cur).iter();
                self.reports
                    .extend(slice.map(|&e| ReportEvent { cycle, ..e }));
                sink.on_cycle_reports(cycle, &self.reports);
            }
            if next & EMPTY != 0 {
                let phase = phase_at(base + i as u64);
                let idle = idle_run(&self.wakes, period, phase, 1, &syms[i..]);
                if idle > 0 {
                    i += idle;
                    skipped += idle;
                    if period != 1 {
                        let phase = phase_at(base + i as u64) as u32;
                        cur = states.intern(phase, &[], tables) & INDEX;
                    }
                }
            }
        }
        states.stepped += (i - skipped) as u64;
        self.cycle = base + i as u64;
        self.prefilter_skipped += skipped as u64;
        if fell_back {
            self.subset.turn_off();
            self.subset_at = None;
            self.subset_fallbacks += 1;
        } else {
            self.active.clear();
            self.active.extend_from_slice(states.frontier(cur));
            self.subset_at = Some(cur);
        }
        (i, skipped)
    }
}

/// The prefilter skip loop: how many cycles of `window` (a leading symbol
/// every `stride`) are idle for an empty frontier whose first cycle lies
/// `phase` cycles past a start cycle. Idle means the cycle either falls
/// off the start `period` or its leading symbol has no `wakes` flag (a
/// symbol outside the alphabet has none). Tests eight cycles per pass,
/// their flags ORed into one mask and ANDed with the block's phase gate,
/// whose lowest set bit is the first waking cycle. Period 1 needs no
/// gate, a period dividing 8 gates every block alike, and any other
/// takes one remainder per block.
#[inline(always)]
fn idle_run(wakes: &[bool], period: u64, phase: u64, stride: usize, window: &[u16]) -> usize {
    match period {
        1 => idle_blocks::<false, false>(wakes, period, phase, stride, window),
        2 | 4 | 8 => idle_blocks::<true, false>(wakes, period, phase, stride, window),
        _ => idle_blocks::<true, true>(wakes, period, phase, stride, window),
    }
}

/// [`idle_run`], specialized: `GATED` applies the phase gate, `ROTATE`
/// recomputes it per block.
#[inline(always)]
fn idle_blocks<const GATED: bool, const ROTATE: bool>(
    wakes: &[bool],
    period: u64,
    mut phase: u64,
    stride: usize,
    window: &[u16],
) -> usize {
    let hit = |s: u16| wakes.get(usize::from(s)).map_or(0, |&w| u32::from(w));
    // Bit k set: the k-th cycle from one `phase` cycles past a start
    // cycle may start a match.
    let gate = |phase: u64| {
        let mut k = if phase == 0 { 0 } else { period - phase };
        let mut gate = 0u32;
        while k < 8 {
            gate |= 1 << k;
            k += period;
        }
        gate
    };
    let mut block_gate = if GATED { gate(phase) } else { 0xFF };
    let mut blocks = window.chunks_exact(8 * stride);
    let mut idle = 0;
    for block in &mut blocks {
        if ROTATE {
            block_gate = gate(phase);
            phase = (phase + 8) % period;
        }
        let mut mask = 0;
        for k in 0..8 {
            mask |= hit(block[k * stride]) << k;
        }
        if GATED {
            mask &= block_gate;
        }
        if mask != 0 {
            return idle + mask.trailing_zeros() as usize;
        }
        idle += 8;
    }
    if ROTATE {
        block_gate = gate(phase);
    }
    let tail = blocks.remainder().iter().step_by(stride).enumerate();
    idle + tail
        .take_while(|&(k, &s)| hit(s) & (block_gate >> k) & 1 == 0)
        .count()
}

impl Kernel for Simulator<'_> {
    fn stride(&self) -> usize {
        self.tables.stride
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn active_count(&self) -> usize {
        self.active.len()
    }

    fn reset(&mut self) {
        Simulator::reset(self);
    }

    fn suspend(&self, out: &mut EngineState) {
        Simulator::suspend(self, out);
    }

    fn resume(&mut self, state: &EngineState) {
        Simulator::resume(self, state);
    }

    fn step<S: ReportSink + ?Sized, const QUIET: bool>(
        &mut self,
        vector: &[u16],
        valid: usize,
        sink: &mut S,
    ) -> usize {
        assert_eq!(
            vector.len(),
            self.tables.stride,
            "symbol vector length must equal the automaton stride"
        );

        // Stride 1 (the dominant configuration) folds the match check into
        // candidate insertion; tested first, as it steps between short skips.
        if let [sym] = *vector {
            if valid > 0 && usize::from(sym) < self.tables.alphabet {
                return self.step1::<S, QUIET>(sym, sink);
            }
        }

        // A symbol outside the alphabet can match no charset: the frontier
        // dies this cycle (hoisted here so the per-candidate match loop
        // never needs bounds checks on the symbol).
        let live = valid.min(self.tables.stride);
        if vector[..live]
            .iter()
            .any(|&s| usize::from(s) >= self.tables.alphabet)
        {
            self.active.clear();
            self.subset_at = None;
            if !QUIET {
                sink.on_cycle_activity(self.cycle, 0);
                if sink.wants_active_states() {
                    sink.on_active_states(self.cycle, &self.active);
                }
            }
            self.cycle += 1;
            return 0;
        }

        self.generation += 1;
        self.candidates.clear();
        self.subset_at = None;
        let gen = self.generation;
        stamps(&mut self.stamp, self.nfa.num_states());

        // Successors of the current frontier (CSR arena walk).
        for &s in &self.active {
            for &t in self.tables.successors(s) {
                push(&mut self.stamp, &mut self.candidates, gen, t);
            }
        }

        // Start states, respecting the start period and cycle 0.
        if self.tables.start_period == 1 || self.cycle.is_multiple_of(self.tables.start_period) {
            match &self.tables.start_index {
                StartIndex::Bucketed { off, flat } => {
                    let i = usize::from(vector[0]);
                    for &id in &flat[off[i] as usize..off[i + 1] as usize] {
                        push(&mut self.stamp, &mut self.candidates, gen, id);
                    }
                }
                StartIndex::Flat(starts) => {
                    for &id in starts {
                        push(&mut self.stamp, &mut self.candidates, gen, id);
                    }
                }
            }
        }
        if self.cycle == 0 {
            for &id in &self.tables.sod_starts {
                push(&mut self.stamp, &mut self.candidates, gen, id);
            }
        }

        // Match phase, through the specialized per-state symbol codes.
        self.active.clear();
        self.reports.clear();
        let candidates = std::mem::take(&mut self.candidates);
        for &id in &candidates {
            if self.tables.state_matches(id, vector, valid) {
                self.active.push(id);
                for r in self.tables.reports(id) {
                    // Reports landing in the end-of-stream padding region
                    // never fired in the unstrided automaton; drop them.
                    if (r.offset as usize) < valid {
                        self.reports.push(ReportEvent {
                            cycle: self.cycle,
                            state: id,
                            info: ReportInfo::at_offset(r.id, r.offset as u8),
                        });
                    }
                }
            }
        }
        self.candidates = candidates;

        // Candidate order depends on frontier history; deliver reports in
        // state order so every engine produces byte-identical traces.
        if self.reports.len() > 1 {
            self.reports.sort_by_key(|e| e.state.index());
        }
        if !self.reports.is_empty() {
            sink.on_cycle_reports(self.cycle, &self.reports);
        }
        if !QUIET {
            sink.on_cycle_activity(self.cycle, self.active.len());
            if sink.wants_active_states() {
                sink.on_active_states(self.cycle, &self.active);
            }
        }
        self.cycle += 1;
        self.active.len()
    }

    /// Idle means: the frontier is empty, no start-of-data start can
    /// fire, and the cycle is idle for [`idle_run`].
    fn idle_cycles(&self, input: &InputView, from: usize, to: usize) -> usize {
        if !self.active.is_empty() || (self.cycle == 0 && !self.tables.sod_starts.is_empty()) {
            return 0;
        }
        let (period, stride) = (self.tables.start_period, self.tables.stride);
        let syms = input.symbols();
        // The symbols of cycles [from, to); the view's last may be partial.
        let end = syms.len().min(to * stride);
        let window = &syms[end.min(from * stride)..end];
        let phase = if period == 1 { 0 } else { self.cycle % period };
        idle_run(&self.wakes, period, phase, stride, window)
    }

    fn cached_cycles<S: ReportSink + ?Sized>(
        &mut self,
        input: &InputView,
        from: usize,
        to: usize,
        sink: &mut S,
    ) -> (usize, usize) {
        self.run_subset::<S, false>(input, from, to, sink, &mut 0)
    }

    fn subset_cache(&mut self) -> Option<&mut SubsetCache> {
        self.subset_at = None;
        Some(&mut self.subset)
    }

    fn subset_counts(&self) -> (u64, u64) {
        Simulator::subset_counts(self)
    }

    fn skip(&mut self, cycles: u64) {
        self.cycle += cycles;
        self.prefilter_skipped += cycles;
        // The empty frontier's cache state depends on the start phase.
        if self.tables.start_period != 1 {
            self.subset_at = None;
        }
    }
}

/// Convenience: runs `nfa` over `bytes` at its native width/stride and
/// returns the trace. Intended for tests and examples; big runs should
/// construct a [`Simulator`] with a streaming sink.
///
/// # Errors
///
/// Returns an error if the byte stream cannot be viewed at the automaton's
/// symbol width (see [`InputView::new`]).
pub fn run_trace(
    nfa: &Nfa,
    bytes: &[u8],
) -> Result<crate::sink::TraceSink, sunder_automata::AutomataError> {
    let input = InputView::new(bytes, nfa.symbol_bits(), nfa.stride())?;
    let mut sim = Simulator::new(nfa);
    let mut trace = crate::sink::TraceSink::new();
    sim.run(&input, &mut trace);
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountSink, TraceSink};
    use sunder_automata::regex::{compile_regex, compile_rule_set};
    use sunder_automata::{Nfa, StartKind, Ste, SymbolSet};

    #[test]
    fn single_literal_matches_everywhere() {
        let nfa = compile_regex("a", 1).unwrap();
        let trace = run_trace(&nfa, b"aXaa").unwrap();
        assert_eq!(trace.cycle_id_pairs(), vec![(0, 1), (2, 1), (3, 1)]);
    }

    #[test]
    fn anchored_only_at_start() {
        let nfa = compile_regex("^ab", 0).unwrap();
        assert_eq!(run_trace(&nfa, b"abab").unwrap().events.len(), 1);
        assert_eq!(run_trace(&nfa, b"xab").unwrap().events.len(), 0);
    }

    #[test]
    fn overlapping_matches() {
        let nfa = compile_regex("aa", 0).unwrap();
        let trace = run_trace(&nfa, b"aaaa").unwrap();
        // Matches end at positions 1, 2, 3.
        assert_eq!(trace.cycle_id_pairs(), vec![(1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn dotstar_pattern() {
        let nfa = compile_regex(".*ab", 0).unwrap();
        let trace = run_trace(&nfa, b"zzabzab").unwrap();
        assert_eq!(trace.cycle_id_pairs(), vec![(3, 0), (6, 0)]);
    }

    #[test]
    fn alternation_and_classes() {
        let nfa = compile_rule_set(&["ca[tp]", "dog"]).unwrap();
        let trace = run_trace(&nfa, b"cat dog cap").unwrap();
        assert_eq!(trace.cycle_id_pairs(), vec![(2, 0), (6, 1), (10, 0)]);
    }

    #[test]
    fn plus_loop() {
        let nfa = compile_regex("x[0-9]+y", 0).unwrap();
        let trace = run_trace(&nfa, b"x123y x9y xy").unwrap();
        assert_eq!(trace.cycle_id_pairs(), vec![(4, 0), (8, 0)]);
    }

    #[test]
    fn start_period_gates_all_input_starts() {
        // One state matching symbol 1, AllInput, but period 2: it may only
        // begin matching at even cycles.
        let mut nfa = Nfa::new(4);
        nfa.set_start_period(2);
        nfa.add_state(
            Ste::new(SymbolSet::singleton(4, 1))
                .start(StartKind::AllInput)
                .report(0),
        );
        let input = InputView::from_symbols(vec![1, 1, 1, 1], 1);
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        assert_eq!(
            trace.cycle_id_pairs(),
            vec![(0, 0), (2, 0)],
            "odd-cycle starts must be suppressed"
        );
    }

    #[test]
    fn empty_input_no_reports() {
        let nfa = compile_regex("a", 0).unwrap();
        let trace = run_trace(&nfa, b"").unwrap();
        assert!(trace.events.is_empty());
    }

    #[test]
    fn reset_restores_anchored_behavior() {
        let nfa = compile_regex("^a", 0).unwrap();
        let input = InputView::new(b"a", 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut c1 = CountSink::new();
        sim.run(&input, &mut c1);
        assert_eq!(c1.reports, 1);
        sim.reset();
        let mut c2 = CountSink::new();
        sim.run(&input, &mut c2);
        assert_eq!(c2.reports, 1, "start-of-data must re-arm after reset");
    }

    #[test]
    fn strided_state_report_offsets() {
        // A stride-2 automaton over nibbles: state matches [1, *] and
        // reports at offset 0.
        let mut nfa = Nfa::with_stride(4, 2);
        let s = nfa.add_state(
            Ste::with_charsets(vec![SymbolSet::singleton(4, 1), SymbolSet::full(4)])
                .start(StartKind::AllInput)
                .report_at(7, 0),
        );
        nfa.add_edge(s, s);
        let input = InputView::from_symbols(vec![1, 9, 1], 2);
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        // Cycle 0 matches [1,9]; cycle 1 has [1,<pad>] with valid=1 and the
        // don't-care second position, so it matches too.
        assert_eq!(trace.position_id_pairs(2), vec![(0, 7), (2, 7)]);
    }

    #[test]
    fn padding_report_suppression() {
        // Report at offset 1 must NOT fire when only 1 symbol is valid.
        let mut nfa = Nfa::with_stride(4, 2);
        nfa.add_state(
            Ste::with_charsets(vec![SymbolSet::full(4), SymbolSet::full(4)])
                .start(StartKind::AllInput)
                .report_at(0, 1),
        );
        let input = InputView::from_symbols(vec![5], 2);
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        assert!(trace.events.is_empty());
    }

    #[test]
    fn activity_callback_sees_active_counts() {
        #[derive(Default)]
        struct Activity(Vec<usize>);
        impl ReportSink for Activity {
            fn on_cycle_reports(&mut self, _: u64, _: &[ReportEvent]) {}
            fn on_cycle_activity(&mut self, _: u64, n: usize) {
                self.0.push(n);
            }
        }
        let nfa = compile_regex("ab", 0).unwrap();
        let input = InputView::new(b"ab", 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut act = Activity::default();
        sim.run(&input, &mut act);
        assert_eq!(act.0, vec![1, 1]);
    }

    #[test]
    fn prefilter_skips_match_hand_computed_input() {
        // "ab" unanchored: the only all-input start accepts 'a', so the
        // LUT is exactly {'a'}. Hand simulation of b"xxxxabxxxa":
        //   cycles 0-3  'x' with empty frontier  -> skipped (4)
        //   cycle  4    'a' LUT hit              -> stepped
        //   cycle  5    'b', frontier non-empty  -> stepped, reports
        //   cycle  6    'x', frontier non-empty  -> stepped, frontier dies
        //   cycles 7-8  'x' with empty frontier  -> skipped (2)
        //   cycle  9    'a' LUT hit              -> stepped
        let nfa = compile_regex("ab", 0).unwrap();
        let input = InputView::new(b"xxxxabxxxa", 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        assert_eq!(trace.cycle_id_pairs(), vec![(5, 0)]);
        assert_eq!(sim.prefilter_skipped(), 6, "4 + 2 skipped cycles");
        assert_eq!(sim.cycle(), 10, "skipped cycles still advance the clock");
    }

    #[test]
    fn prefilter_respects_start_of_data() {
        // "^ab" has no all-input starts (empty LUT), but cycle 0 must
        // still be stepped for the start-of-data state.
        let nfa = compile_regex("^ab", 0).unwrap();
        let input = InputView::new(b"abxxx", 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        assert_eq!(trace.cycle_id_pairs(), vec![(1, 0)]);
        // Cycles 0-2 stepped (SOD, then a live frontier), 3-4 skipped.
        assert_eq!(sim.prefilter_skipped(), 2);
        assert_eq!(sim.cycle(), 5);
    }

    #[test]
    fn prefilter_disabled_when_sink_observes_activity() {
        #[derive(Default)]
        struct Activity(Vec<usize>);
        impl ReportSink for Activity {
            fn on_cycle_reports(&mut self, _: u64, _: &[ReportEvent]) {}
            fn on_cycle_activity(&mut self, _: u64, n: usize) {
                self.0.push(n);
            }
        }
        let nfa = compile_regex("ab", 0).unwrap();
        let input = InputView::new(b"xxxxabxxxa", 8, 1).unwrap();
        let mut sim = Simulator::new(&nfa);
        let mut act = Activity::default();
        sim.run(&input, &mut act);
        assert_eq!(act.0.len(), 10, "every cycle observed");
        assert_eq!(sim.prefilter_skipped(), 0);
    }

    #[test]
    fn prefiltered_run_matches_stepwise_loop() {
        // Differential check: the prefiltered loop and the naive stepwise
        // loop must produce identical traces, cycles, and frontiers.
        for pattern in ["ab", ".*rare", "x[0-9]+y", "^anchor", "a|b|cdq"] {
            let nfa = compile_regex(pattern, 3).unwrap();
            let input = InputView::new(b"zz ab 123 x77y rare anchor cdq zz", 8, 1).unwrap();
            let mut fast = Simulator::new(&nfa);
            let mut fast_trace = TraceSink::new();
            fast.run(&input, &mut fast_trace);
            let mut slow = Simulator::new(&nfa);
            let mut slow_trace = TraceSink::new();
            for v in input.iter_ref() {
                slow.step(v.symbols, v.valid, &mut slow_trace);
            }
            assert_eq!(fast_trace.events, slow_trace.events, "pattern {pattern}");
            assert_eq!(fast.cycle(), slow.cycle(), "pattern {pattern}");
            let mut fa: Vec<_> = fast.active_states().to_vec();
            let mut sa: Vec<_> = slow.active_states().to_vec();
            fa.sort_by_key(|s| s.index());
            sa.sort_by_key(|s| s.index());
            assert_eq!(fa, sa, "pattern {pattern}");
        }
    }

    #[test]
    fn out_of_alphabet_symbol_kills_the_frontier() {
        // Symbol 9 is outside a 3-bit alphabet: the cycle is dead, but
        // execution continues and later cycles still match.
        let mut nfa = Nfa::new(3);
        nfa.add_state(
            Ste::new(SymbolSet::full(3))
                .start(StartKind::AllInput)
                .report(1),
        );
        let input = InputView::from_symbols(vec![1, 9, 2], 1);
        let mut sim = Simulator::new(&nfa);
        let mut trace = TraceSink::new();
        sim.run(&input, &mut trace);
        assert_eq!(trace.cycle_id_pairs(), vec![(0, 1), (2, 1)]);
    }

    /// The scalar reference for [`Kernel::idle_cycles`] on a simulator
    /// with an empty frontier whose clock reads `cycle` at view cycle
    /// `from`: cycles from `from` on that are off the start period or
    /// whose leading symbol no all-input start's first charset contains,
    /// up to the first that is neither or to `to`. Read from the
    /// automaton, not from the compiled LUT.
    fn scalar_idle(nfa: &Nfa, input: &InputView, cycle: u64, from: usize, to: usize) -> usize {
        let wakes = |s: u16| {
            nfa.states().any(|(_, ste)| {
                ste.start_kind() == StartKind::AllInput && ste.charsets()[0].contains(s)
            })
        };
        let period = u64::from(nfa.start_period());
        (from..to)
            .take_while(|&c| {
                let on_period = (cycle + (c - from) as u64).is_multiple_of(period);
                !(on_period && wakes(input.symbols()[c * input.stride()]))
            })
            .count()
    }

    /// Every window `[from, to)` of the view with `from` in `froms`.
    fn assert_idle_matches_reference(nfa: &Nfa, input: &InputView, froms: std::ops::Range<usize>) {
        let sim = Simulator::new(nfa);
        for from in froms {
            for to in from..=input.num_cycles() {
                assert_eq!(
                    sim.idle_cycles(input, from, to),
                    scalar_idle(nfa, input, 0, from, to),
                    "from {from}, to {to}"
                );
            }
        }
    }

    /// An automaton of one all-input start whose first position accepts
    /// only `sym` (later positions accept anything).
    fn lone_start(bits: u8, stride: usize, sym: u16) -> Nfa {
        let mut charsets = vec![SymbolSet::full(bits); stride];
        charsets[0] = SymbolSet::singleton(bits, sym);
        let mut nfa = Nfa::with_stride(bits, stride);
        nfa.add_state(
            Ste::with_charsets(charsets)
                .start(StartKind::AllInput)
                .report(0),
        );
        nfa
    }

    #[test]
    fn idle_finds_every_lone_start_symbol_at_every_offset_and_alignment() {
        for sym in 0..=255u16 {
            let nfa = lone_start(8, 1, sym);
            let sim = Simulator::new(&nfa);
            for from in 0..8 {
                for offset in 0..=17 {
                    let hit = from + offset;
                    // Misses that run through the rest of the alphabet.
                    let mut syms: Vec<u16> = (0..hit + 12)
                        .map(|i| (sym + 1 + (i * 7 % 255) as u16) % 256)
                        .collect();
                    syms[hit] = sym;
                    let input = InputView::from_symbols(syms, 1);
                    let len = input.num_cycles();
                    for to in [from, hit.max(from + 1) - 1, hit, hit + 1, len] {
                        let idle = sim.idle_cycles(&input, from, to);
                        assert_eq!(
                            idle,
                            offset.min(to - from),
                            "sym {sym}, from {from}, hit {hit}, to {to}"
                        );
                        assert_eq!(idle, scalar_idle(&nfa, &input, 0, from, to));
                    }
                }
            }
        }
    }

    #[test]
    fn idle_reads_only_leading_symbols_of_strided_views_with_a_partial_last_cycle() {
        let wake = u16::from(b'a');
        for stride in [2, 4] {
            let nfa = lone_start(8, stride, wake);
            // 21 cycles, the last holding one symbol; every non-leading
            // symbol is the waking one, so reading one is caught.
            let len = 20 * stride + 1;
            for hit in (0..21).chain([usize::MAX]) {
                let syms = (0..len)
                    .map(|i| match (i % stride, i / stride) {
                        (0, c) if c == hit => wake,
                        (0, c) => u16::from(b'z') - (c % 3) as u16,
                        _ => wake,
                    })
                    .collect();
                let input = InputView::from_symbols(syms, stride);
                assert_eq!(input.num_cycles(), 21);
                assert_idle_matches_reference(&nfa, &input, 0..21);
            }
        }
    }

    #[test]
    fn idle_gates_starts_by_phase_at_every_alignment() {
        // Periods 2 and 3 (one dividing the 8-cycle block, one not) and
        // 11 (longer than a block); every cycle but a few wakes the LUT,
        // so only the phase gate can make a cycle idle.
        for period in [2, 3, 11] {
            let mut nfa = lone_start(4, 1, 5);
            nfa.set_start_period(period);
            let syms: Vec<u16> = (0..45).map(|i| if i % 7 == 3 { 9 } else { 5 }).collect();
            let input = InputView::from_symbols(syms, 1);
            let mut sim = Simulator::new(&nfa);
            for cycle in 1..=2 * u64::from(period) + 1 {
                sim.load_frontier(&[], cycle);
                for from in 0..20 {
                    for to in from..=input.num_cycles() {
                        assert_eq!(
                            sim.idle_cycles(&input, from, to),
                            scalar_idle(&nfa, &input, cycle, from, to),
                            "period {period}, clock {cycle}, from {from}, to {to}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn idle_on_4_bit_alphabets_misses_every_out_of_alphabet_symbol() {
        let outside = [16, 17, 63, 64, 255, 256, 1000, u16::MAX];
        for sym in 0..16 {
            let nfa = lone_start(4, 1, sym);
            let syms = (0..40u16)
                .map(|i| match i % 13 {
                    12 => sym,
                    k if k % 2 == 0 => outside[usize::from(k / 2) % outside.len()],
                    k => (sym + k) % 16,
                })
                .collect();
            assert_idle_matches_reference(&nfa, &InputView::from_symbols(syms, 1), 0..9);
        }
    }

    #[test]
    fn idle_on_16_bit_alphabets_matches_the_reference() {
        let mut nfa = lone_start(16, 1, 0x1234);
        nfa.add_state(Ste::new(SymbolSet::range(16, 0xFFF0, 0xFFFF)).start(StartKind::AllInput));
        let mut x = 0x9E37_79B9u32;
        let syms = (0..64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                match i % 23 {
                    9 => 0x1234,
                    20 => 0xFFFF - (x % 16) as u16,
                    _ => (x % 0xFFF0) as u16 ^ 0x0001,
                }
            })
            .collect::<Vec<u16>>();
        assert_idle_matches_reference(&nfa, &InputView::from_symbols(syms, 1), 0..17);
    }

    #[test]
    fn encoding_histogram_reflects_the_automaton() {
        let nfa = compile_regex("a[0-9]", 0).unwrap();
        let sim = Simulator::new(&nfa);
        let hist = sim.encoding_histogram();
        let total: u64 = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total as usize, nfa.num_states() * nfa.stride());
        let one = hist.iter().find(|&&(k, _)| k == "one").unwrap().1;
        let range = hist.iter().find(|&&(k, _)| k == "range").unwrap().1;
        assert!(one >= 1, "'a' compiles to a single-symbol code");
        assert!(range >= 1, "[0-9] compiles to a range code");
    }
}
