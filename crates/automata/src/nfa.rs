//! Homogeneous nondeterministic finite automata.
//!
//! In a *homogeneous* NFA every transition entering a state fires on the same
//! symbol set, so the set can be attached to the state itself (the paper calls
//! such states STEs, *state transition elements*, after ANML). This is the
//! representation that maps directly onto in-memory automata hardware: one
//! memory column per state, one-hot symbol encoding down the rows, and a
//! label-independent interconnect (paper, Figure 1).
//!
//! To support Impala/Sunder-style multi-symbol processing, an [`Nfa`] has a
//! *stride*: every cycle consumes a vector of `stride` symbols and a state
//! carries one [`SymbolSet`] per vector position. A classic automaton is
//! simply `stride == 1`.

use std::fmt;

use crate::error::AutomataError;
use crate::symbol::SymbolSet;

/// Identifier of a state within an [`Nfa`].
///
/// Ids are dense indexes assigned in insertion order, so they double as
/// vector positions in the simulator and hardware-mapping code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)] // guarantees &[u32] and &[StateId] share a layout,
                     // which the mapped pattern database (`sunder-artifact`) relies on to
                     // borrow state-id tables straight from an `.sdb` mapping
pub struct StateId(pub u32);

impl StateId {
    /// Index usable for slice addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// How a state participates in starting a match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StartKind {
    /// Not a start state; enabled only via incoming transitions.
    #[default]
    None,
    /// Enabled only on the very first cycle (anchored match).
    StartOfData,
    /// Enabled on every aligned cycle (unanchored match). Alignment is
    /// governed by the automaton's [`start period`](Nfa::start_period).
    AllInput,
}

impl StartKind {
    /// Returns `true` for either start variant.
    pub fn is_start(self) -> bool {
        !matches!(self, StartKind::None)
    }
}

/// A report attached to a state.
///
/// `offset` locates the report within the stride vector: when a state with
/// stride `k` activates on a vector of `k` symbols, a report with offset `o`
/// corresponds to a match that completed after consuming symbol `o` of the
/// vector. Strided automata produced by temporal striding use this to keep
/// reports cycle-accurate with respect to the original symbol stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReportInfo {
    /// User-assigned report code (e.g. rule number).
    pub id: u32,
    /// Position within the stride vector at which the match completed.
    pub offset: u8,
}

impl ReportInfo {
    /// A report at the last position of a stride-1 vector (the common case).
    pub fn new(id: u32) -> Self {
        ReportInfo { id, offset: 0 }
    }

    /// A report at an explicit vector offset.
    pub fn at_offset(id: u32, offset: u8) -> Self {
        ReportInfo { id, offset }
    }
}

/// One homogeneous automaton state (STE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ste {
    charsets: Vec<SymbolSet>,
    start: StartKind,
    reports: Vec<ReportInfo>,
}

impl Ste {
    /// Creates a stride-1 state with the given symbol set.
    pub fn new(charset: SymbolSet) -> Self {
        Ste {
            charsets: vec![charset],
            start: StartKind::None,
            reports: Vec::new(),
        }
    }

    /// Creates a strided state from one symbol set per vector position.
    ///
    /// # Panics
    ///
    /// Panics if `charsets` is empty.
    pub fn with_charsets(charsets: Vec<SymbolSet>) -> Self {
        assert!(!charsets.is_empty(), "a state needs at least one charset");
        Ste {
            charsets,
            start: StartKind::None,
            reports: Vec::new(),
        }
    }

    /// Sets the start kind (chainable).
    pub fn start(mut self, kind: StartKind) -> Self {
        self.start = kind;
        self
    }

    /// Adds a report at offset 0 (chainable).
    pub fn report(mut self, id: u32) -> Self {
        self.reports.push(ReportInfo::new(id));
        self
    }

    /// Adds a report at an explicit offset (chainable).
    pub fn report_at(mut self, id: u32, offset: u8) -> Self {
        self.reports.push(ReportInfo::at_offset(id, offset));
        self
    }

    /// The symbol sets, one per stride position.
    pub fn charsets(&self) -> &[SymbolSet] {
        &self.charsets
    }

    /// The symbol set at stride position 0 (the whole set for stride 1).
    pub fn charset(&self) -> &SymbolSet {
        &self.charsets[0]
    }

    /// Mutable access to the symbol sets.
    pub fn charsets_mut(&mut self) -> &mut [SymbolSet] {
        &mut self.charsets
    }

    /// Start kind of this state.
    pub fn start_kind(&self) -> StartKind {
        self.start
    }

    /// Sets the start kind in place.
    pub fn set_start_kind(&mut self, kind: StartKind) {
        self.start = kind;
    }

    /// Reports attached to this state.
    pub fn reports(&self) -> &[ReportInfo] {
        &self.reports
    }

    /// Returns `true` if the state carries at least one report.
    pub fn is_reporting(&self) -> bool {
        !self.reports.is_empty()
    }

    /// Adds a report in place.
    pub fn add_report(&mut self, report: ReportInfo) {
        self.reports.push(report);
    }

    /// Removes all reports.
    pub fn clear_reports(&mut self) {
        self.reports.clear();
    }

    /// Tests whether a symbol vector activates this state.
    ///
    /// Only the first `valid` positions carry real input; the remainder are
    /// end-of-stream padding and match only *don't care* (full) charsets.
    /// This mirrors the hardware masking used for the final partial vector.
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) if the vector length does not match
    /// this state's stride.
    pub fn matches(&self, vector: &[u16], valid: usize) -> bool {
        assert_eq!(
            vector.len(),
            self.charsets.len(),
            "symbol vector length must equal the state's stride"
        );
        for (i, cs) in self.charsets.iter().enumerate() {
            if i < valid {
                if !cs.contains(vector[i]) {
                    return false;
                }
            } else if !cs.is_full() {
                return false;
            }
        }
        true
    }
}

/// A homogeneous NFA with configurable symbol width and stride.
///
/// # Examples
///
/// Build the two-state automaton accepting `A|BC` from the paper's Figure 3:
///
/// ```
/// use sunder_automata::{Nfa, Ste, SymbolSet, StartKind};
///
/// let mut nfa = Nfa::new(8);
/// let a = nfa.add_state(
///     Ste::new(SymbolSet::singleton(8, b'A' as u16))
///         .start(StartKind::AllInput)
///         .report(0),
/// );
/// let b = nfa.add_state(Ste::new(SymbolSet::singleton(8, b'B' as u16)).start(StartKind::AllInput));
/// let c = nfa.add_state(Ste::new(SymbolSet::singleton(8, b'C' as u16)).report(1));
/// nfa.add_edge(b, c);
/// assert_eq!(nfa.num_states(), 3);
/// assert_eq!(nfa.num_transitions(), 1);
/// # let _ = (a, c);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Nfa {
    symbol_bits: u8,
    stride: usize,
    start_period: u32,
    states: Vec<Ste>,
    succ: Vec<Vec<StateId>>,
}

impl Nfa {
    /// Creates an empty stride-1 automaton over `symbol_bits`-wide symbols.
    ///
    /// # Panics
    ///
    /// Panics if `symbol_bits` is 0 or greater than 16.
    pub fn new(symbol_bits: u8) -> Self {
        Self::with_stride(symbol_bits, 1)
    }

    /// Creates an empty automaton consuming `stride` symbols per cycle.
    pub fn with_stride(symbol_bits: u8, stride: usize) -> Self {
        assert!(
            (1..=16).contains(&symbol_bits),
            "symbol width must be 1..=16"
        );
        assert!(stride >= 1, "stride must be at least 1");
        Nfa {
            symbol_bits,
            stride,
            start_period: 1,
            states: Vec::new(),
            succ: Vec::new(),
        }
    }

    /// Symbol width in bits.
    pub fn symbol_bits(&self) -> u8 {
        self.symbol_bits
    }

    /// Symbols consumed per cycle.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Input bits consumed per cycle (`symbol_bits × stride`).
    pub fn bits_per_cycle(&self) -> usize {
        self.symbol_bits as usize * self.stride
    }

    /// Period, in cycles, at which [`StartKind::AllInput`] states are
    /// enabled.
    ///
    /// A byte-oriented automaton transformed to nibbles has period 2: an
    /// unanchored pattern may start only at byte boundaries, i.e. every
    /// other nibble. Temporal striding halves the period (and materializes
    /// phase-shifted start states once the period reaches 1).
    pub fn start_period(&self) -> u32 {
        self.start_period
    }

    /// Sets the start period. See [`Nfa::start_period`].
    pub fn set_start_period(&mut self, period: u32) {
        assert!(period >= 1, "start period must be at least 1");
        self.start_period = period;
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Total number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Adds a state and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the state's charset vector length differs from the stride,
    /// or any charset width differs from the automaton symbol width, or a
    /// report offset is out of range.
    pub fn add_state(&mut self, ste: Ste) -> StateId {
        assert_eq!(
            ste.charsets.len(),
            self.stride,
            "charset vector length must equal stride"
        );
        for cs in &ste.charsets {
            assert_eq!(cs.bits(), self.symbol_bits, "charset width mismatch");
        }
        for r in &ste.reports {
            assert!(
                (r.offset as usize) < self.stride,
                "report offset out of range"
            );
        }
        let id = StateId(self.states.len() as u32);
        self.states.push(ste);
        self.succ.push(Vec::new());
        id
    }

    /// Adds a transition `from → to`. Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either state id is out of bounds.
    pub fn add_edge(&mut self, from: StateId, to: StateId) {
        assert!(
            from.index() < self.states.len(),
            "edge source out of bounds"
        );
        assert!(to.index() < self.states.len(), "edge target out of bounds");
        let list = &mut self.succ[from.index()];
        if !list.contains(&to) {
            list.push(to);
        }
    }

    /// Borrows a state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    pub fn state(&self, id: StateId) -> &Ste {
        &self.states[id.index()]
    }

    /// Mutably borrows a state.
    pub fn state_mut(&mut self, id: StateId) -> &mut Ste {
        &mut self.states[id.index()]
    }

    /// Successors of a state.
    pub fn successors(&self, id: StateId) -> &[StateId] {
        &self.succ[id.index()]
    }

    /// Iterates over `(id, state)` pairs.
    pub fn states(&self) -> impl Iterator<Item = (StateId, &Ste)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (StateId(i as u32), s))
    }

    /// Ids of all start states.
    pub fn start_states(&self) -> Vec<StateId> {
        self.states()
            .filter(|(_, s)| s.start_kind().is_start())
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of all reporting states.
    pub fn report_states(&self) -> Vec<StateId> {
        self.states()
            .filter(|(_, s)| s.is_reporting())
            .map(|(id, _)| id)
            .collect()
    }

    /// Computes the predecessor lists (inverse of the successor relation).
    pub fn predecessors(&self) -> Vec<Vec<StateId>> {
        let mut pred = vec![Vec::new(); self.states.len()];
        for (i, outs) in self.succ.iter().enumerate() {
            for &t in outs {
                pred[t.index()].push(StateId(i as u32));
            }
        }
        pred
    }

    /// Merges another automaton into this one, returning the id offset that
    /// was applied to the other automaton's states.
    ///
    /// This is how multi-pattern rule sets are assembled: each pattern
    /// compiles to its own small automaton and they are unioned into one
    /// machine (they share nothing but the input stream).
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::WidthMismatch`] or
    /// [`AutomataError::StrideMismatch`] if the automata are incompatible.
    pub fn absorb(&mut self, other: &Nfa) -> Result<u32, AutomataError> {
        if other.symbol_bits != self.symbol_bits {
            return Err(AutomataError::WidthMismatch {
                expected: self.symbol_bits,
                found: other.symbol_bits,
            });
        }
        if other.stride != self.stride {
            return Err(AutomataError::StrideMismatch {
                expected: self.stride,
                found: other.stride,
            });
        }
        let offset = self.states.len() as u32;
        self.states.extend(other.states.iter().cloned());
        for outs in &other.succ {
            self.succ
                .push(outs.iter().map(|s| StateId(s.0 + offset)).collect());
        }
        Ok(offset)
    }

    /// Validates internal invariants, returning the first violation found.
    ///
    /// `add_state`/`add_edge` enforce these on the fly; `validate` exists for
    /// automata deserialized from text or assembled by transformations.
    ///
    /// # Errors
    ///
    /// Returns the specific [`AutomataError`] describing the violation.
    pub fn validate(&self) -> Result<(), AutomataError> {
        for (i, s) in self.states.iter().enumerate() {
            if s.charsets.len() != self.stride {
                return Err(AutomataError::StrideMismatch {
                    expected: self.stride,
                    found: s.charsets.len(),
                });
            }
            for cs in &s.charsets {
                if cs.bits() != self.symbol_bits {
                    return Err(AutomataError::WidthMismatch {
                        expected: self.symbol_bits,
                        found: cs.bits(),
                    });
                }
            }
            for r in &s.reports {
                if r.offset as usize >= self.stride {
                    return Err(AutomataError::InvalidReportOffset {
                        offset: r.offset,
                        stride: self.stride,
                    });
                }
            }
            for &t in &self.succ[i] {
                if t.index() >= self.states.len() {
                    return Err(AutomataError::InvalidState {
                        index: t.0,
                        len: self.states.len() as u32,
                    });
                }
            }
        }
        Ok(())
    }

    /// Rebuilds the automaton keeping only the states for which `keep` is
    /// true, preserving relative order. Returns the old→new id map
    /// (`None` for dropped states).
    pub fn retain_states(&mut self, keep: &[bool]) -> Vec<Option<StateId>> {
        assert_eq!(keep.len(), self.states.len());
        let mut map = vec![None; self.states.len()];
        let mut next = 0u32;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                map[i] = Some(StateId(next));
                next += 1;
            }
        }
        // Kept states and successor lists are moved, not cloned.
        self.states = std::mem::take(&mut self.states)
            .into_iter()
            .zip(keep)
            .filter_map(|(s, &k)| k.then_some(s))
            .collect();
        self.succ = std::mem::take(&mut self.succ)
            .into_iter()
            .zip(keep)
            .filter_map(|(mut outs, &k)| {
                k.then(|| {
                    outs.retain_mut(|t| match map[t.index()] {
                        Some(new) => {
                            *t = new;
                            true
                        }
                        None => false,
                    });
                    outs
                })
            })
            .collect();
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn byte(c: u8) -> SymbolSet {
        SymbolSet::singleton(8, c as u16)
    }

    #[test]
    fn build_simple() {
        let mut nfa = Nfa::new(8);
        let a = nfa.add_state(Ste::new(byte(b'a')).start(StartKind::AllInput));
        let b = nfa.add_state(Ste::new(byte(b'b')).report(7));
        nfa.add_edge(a, b);
        nfa.add_edge(a, b); // duplicate ignored
        assert_eq!(nfa.num_states(), 2);
        assert_eq!(nfa.num_transitions(), 1);
        assert_eq!(nfa.successors(a), &[b]);
        assert!(nfa.state(b).is_reporting());
        assert_eq!(nfa.state(b).reports()[0].id, 7);
        assert_eq!(nfa.start_states(), vec![a]);
        assert_eq!(nfa.report_states(), vec![b]);
        assert!(nfa.validate().is_ok());
    }

    #[test]
    fn predecessors_inverse() {
        let mut nfa = Nfa::new(8);
        let a = nfa.add_state(Ste::new(byte(b'a')));
        let b = nfa.add_state(Ste::new(byte(b'b')));
        let c = nfa.add_state(Ste::new(byte(b'c')));
        nfa.add_edge(a, c);
        nfa.add_edge(b, c);
        let pred = nfa.predecessors();
        assert_eq!(pred[c.index()], vec![a, b]);
        assert!(pred[a.index()].is_empty());
    }

    #[test]
    fn strided_state_matching() {
        let mut nfa = Nfa::with_stride(4, 2);
        let s = nfa.add_state(Ste::with_charsets(vec![
            SymbolSet::singleton(4, 3),
            SymbolSet::full(4),
        ]));
        let ste = nfa.state(s);
        assert!(ste.matches(&[3, 9], 2));
        assert!(!ste.matches(&[4, 9], 2));
        // Padding: second position is don't-care, so a 1-valid vector matches.
        assert!(ste.matches(&[3, 0], 1));
        // But a non-full charset in the padding region must not match.
        let t = nfa.add_state(Ste::with_charsets(vec![
            SymbolSet::full(4),
            SymbolSet::singleton(4, 1),
        ]));
        assert!(!nfa.state(t).matches(&[3, 1], 1));
        assert!(nfa.state(t).matches(&[3, 1], 2));
    }

    #[test]
    fn absorb_offsets_ids() {
        let mut a = Nfa::new(8);
        let a0 = a.add_state(Ste::new(byte(b'x')));
        let mut b = Nfa::new(8);
        let b0 = b.add_state(Ste::new(byte(b'y')).start(StartKind::StartOfData));
        let b1 = b.add_state(Ste::new(byte(b'z')).report(1));
        b.add_edge(b0, b1);
        let off = a.absorb(&b).unwrap();
        assert_eq!(off, 1);
        assert_eq!(a.num_states(), 3);
        assert_eq!(a.successors(StateId(1)), &[StateId(2)]);
        let _ = a0;
    }

    #[test]
    fn absorb_width_mismatch() {
        let mut a = Nfa::new(8);
        let b = Nfa::new(4);
        assert!(matches!(
            a.absorb(&b),
            Err(AutomataError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn retain_states_remaps_edges() {
        let mut nfa = Nfa::new(8);
        let a = nfa.add_state(Ste::new(byte(b'a')));
        let b = nfa.add_state(Ste::new(byte(b'b')));
        let c = nfa.add_state(Ste::new(byte(b'c')));
        nfa.add_edge(a, b);
        nfa.add_edge(b, c);
        nfa.add_edge(a, c);
        let map = nfa.retain_states(&[true, false, true]);
        assert_eq!(nfa.num_states(), 2);
        assert_eq!(map[0], Some(StateId(0)));
        assert_eq!(map[1], None);
        assert_eq!(map[2], Some(StateId(1)));
        // a → c survives, a → b and b → c vanish.
        assert_eq!(nfa.successors(StateId(0)), &[StateId(1)]);
        assert!(nfa.successors(StateId(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "charset vector length")]
    fn stride_mismatch_panics() {
        let mut nfa = Nfa::with_stride(4, 2);
        nfa.add_state(Ste::new(SymbolSet::full(4)));
    }

    #[test]
    fn validate_catches_bad_offset() {
        let mut nfa = Nfa::new(8);
        nfa.add_state(Ste::new(byte(b'a')));
        // Corrupt via direct mutation.
        nfa.state_mut(StateId(0))
            .add_report(ReportInfo::at_offset(0, 5));
        assert!(matches!(
            nfa.validate(),
            Err(AutomataError::InvalidReportOffset { .. })
        ));
    }

    #[test]
    fn start_period_default_and_set() {
        let mut nfa = Nfa::new(8);
        assert_eq!(nfa.start_period(), 1);
        nfa.set_start_period(2);
        assert_eq!(nfa.start_period(), 2);
    }
}
