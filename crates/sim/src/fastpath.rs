//! Compiled tables for the sparse engine's hot path.
//!
//! [`SparseTables`] is everything the frontier-based simulator needs per
//! cycle, precomputed once per automaton and shareable across engine
//! instances behind an `Arc` (the sharded scheduler builds thousands of
//! short-lived engines per batch; compiling these tables per *pipeline*
//! instead of per *job* removes that cost from the per-job path):
//!
//! * **specialized symbol codes** — each state × stride-position charset is
//!   classified at build time into one of six encodings (empty, full,
//!   single symbol, contiguous range, sorted sparse list, bitset) in the
//!   style of BurntSushi's aho-corasick state representations, so the hot
//!   match loop runs a two-compare range check or a one-word bitset probe
//!   instead of a generic set lookup;
//! * **CSR successor lists** — one flat arena with per-state offsets,
//!   preserving the automaton's successor order so traces stay
//!   byte-identical to the naive path;
//! * **start index** — per-symbol buckets of all-input start states (flat
//!   list for wide alphabets), plus a **start LUT**: one bit per symbol
//!   marking whether *any* all-input start can fire on it. The LUT is the
//!   rare-byte prefilter: when the frontier is empty, every upcoming cycle
//!   whose leading symbol misses the LUT provably yields an empty frontier
//!   and can be skipped without stepping;
//! * **CSR report lists**, completing the automaton ([`SparseTables::to_nfa`]).

use sunder_automata::nfa::Ste;
use sunder_automata::{Nfa, ReportInfo, StartKind, StateId, SymbolSet};

use crate::storage::TableBuf;

/// Alphabets up to this size get a per-symbol start index.
pub const MAX_BUCKETED_ALPHABET: usize = 1 << 8;

/// Charsets with at most this many symbols (and no cheaper shape) use the
/// sorted-list binary-search encoding; larger ones use a bitset probe.
const SPARSE_MAX: usize = 16;

/// Build-time encoding of one charset, selected per state × position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymCode {
    /// Matches nothing.
    Empty,
    /// Matches exactly one symbol.
    One(u16),
    /// Matches the contiguous range `lo..=hi`.
    Range {
        /// Lowest member.
        lo: u16,
        /// Highest member.
        hi: u16,
    },
    /// Binary search over a sorted slice of the sparse arena.
    Sparse {
        /// Offset into the sparse arena.
        off: u32,
        /// Number of symbols.
        len: u16,
    },
    /// Bitset probe into the dense arena (`alphabet/64` words).
    Dense {
        /// Word offset into the dense arena.
        off: u32,
    },
    /// Matches every symbol of the alphabet.
    Full,
}

/// Display names for the encoding kinds, index-aligned with
/// [`SparseTables::encoding_counts`].
pub const ENCODING_KINDS: [&str; 6] = ["empty", "one", "range", "sparse", "dense", "full"];

impl SymCode {
    /// Index into [`ENCODING_KINDS`] / the encoding histogram.
    pub fn kind_index(self) -> usize {
        match self {
            SymCode::Empty => 0,
            SymCode::One(_) => 1,
            SymCode::Range { .. } => 2,
            SymCode::Sparse { .. } => 3,
            SymCode::Dense { .. } => 4,
            SymCode::Full => 5,
        }
    }
}

/// A [`ReportInfo`] as two padding-free `u32`s, lendable by a mapped `.sdb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct ReportRec {
    /// Report code.
    pub id: u32,
    /// Stride position; below the stride and 256.
    pub offset: u32,
}

/// Index over the all-input start states.
#[derive(Debug, PartialEq)]
pub enum StartIndex {
    /// CSR buckets: `flat[off[sym]..off[sym+1]]` lists the starts whose
    /// first charset accepts `sym`; those with an empty one come last.
    Bucketed {
        /// `alphabet + 1` offsets into `flat`.
        off: TableBuf<u32>,
        /// Bucket contents, state ids ascending within each bucket.
        flat: TableBuf<StateId>,
    },
    /// Flat list, scanned every enabled cycle (alphabets wider than
    /// [`MAX_BUCKETED_ALPHABET`]).
    Flat(TableBuf<StateId>),
}

/// Compiled per-automaton tables for the sparse engine; see the module
/// docs for the layout.
///
/// Every flat table is a [`TableBuf`], so the struct is assembled either
/// from freshly built vectors ([`SparseTables::build`]) or from slices
/// borrowed out of a mapped `.sdb` database (the `sunder-artifact`
/// loader constructs it field by field — all fields are public for
/// exactly that reason, behind the `#[doc(hidden)]` module).
#[derive(Debug)]
pub struct SparseTables {
    /// Automaton stride (symbols per cycle).
    pub stride: usize,
    /// Alphabet size (`1 << symbol_bits`).
    pub alphabet: usize,
    /// Start period gating all-input starts.
    pub start_period: u64,
    /// CSR successor offsets (`num_states + 1` entries).
    pub succ_off: TableBuf<u32>,
    /// CSR successor arena, original order preserved.
    pub succ_flat: TableBuf<StateId>,
    /// `num_states × stride` symbol codes, state-major.
    pub codes: Vec<SymCode>,
    /// Sorted-symbol arena for [`SymCode::Sparse`].
    pub sparse_arena: TableBuf<u16>,
    /// Bitset arena for [`SymCode::Dense`] (`alphabet/64` words each).
    pub dense_arena: TableBuf<u64>,
    /// Words per dense-arena bitset.
    pub dense_words: usize,
    /// Start-of-data starts (cycle 0 only).
    pub sod_starts: TableBuf<StateId>,
    /// All-input start index.
    pub start_index: StartIndex,
    /// One bit per symbol: set iff some all-input start's first-position
    /// charset contains it. A miss with an empty frontier proves the next
    /// frontier is empty too — the prefilter skip condition.
    pub start_lut: TableBuf<u64>,
    /// CSR report offsets (`num_states + 1` entries).
    pub report_off: TableBuf<u32>,
    /// CSR report arena, each state's reports in the automaton's order.
    pub report_flat: TableBuf<ReportRec>,
    /// Encoding histogram, index-aligned with [`ENCODING_KINDS`].
    pub encoding_counts: [u64; 6],
}

impl SparseTables {
    /// Compiles the tables for `nfa`. Emits the encoding-kind histogram to
    /// telemetry (`state_encodings_total{kind}`) when a collector is
    /// installed.
    pub fn build(nfa: &Nfa) -> SparseTables {
        let n = nfa.num_states();
        let stride = nfa.stride();
        let alphabet = 1usize << nfa.symbol_bits();
        let dense_words = alphabet.div_ceil(64);

        // CSR successors, preserving the automaton's order so candidate
        // insertion (and therefore report order) is identical to walking
        // `nfa.successors` directly.
        let mut succ_off = Vec::with_capacity(n + 1);
        succ_off.push(0u32);
        let mut succ_flat = Vec::new();
        let mut report_off = succ_off.clone();
        let mut report_flat = Vec::new();
        for (id, ste) in nfa.states() {
            succ_flat.extend_from_slice(nfa.successors(id));
            succ_off.push(succ_flat.len() as u32);
            report_flat.extend(ste.reports().iter().map(|r| ReportRec {
                id: r.id,
                offset: u32::from(r.offset),
            }));
            report_off.push(report_flat.len() as u32);
        }

        // Per-charset specialized codes.
        let mut codes = Vec::with_capacity(n * stride);
        let mut sparse_arena = Vec::new();
        let mut dense_arena = Vec::new();
        let mut encoding_counts = [0u64; 6];
        for (_, ste) in nfa.states() {
            for cs in ste.charsets() {
                let code = encode(cs, &mut sparse_arena, &mut dense_arena);
                encoding_counts[code.kind_index()] += 1;
                codes.push(code);
            }
        }

        let (sod_starts, start_index, start_lut) = start_tables(nfa);
        emit_encoding_counts(&encoding_counts);
        SparseTables {
            stride,
            alphabet,
            start_period: u64::from(nfa.start_period()),
            succ_off: succ_off.into(),
            succ_flat: succ_flat.into(),
            codes,
            sparse_arena: sparse_arena.into(),
            dense_arena: dense_arena.into(),
            dense_words,
            sod_starts,
            start_index,
            start_lut,
            report_off: report_off.into(),
            report_flat: report_flat.into(),
            encoding_counts,
        }
    }

    /// Successors of `id`, in the automaton's original order.
    #[inline(always)]
    pub fn successors(&self, id: StateId) -> &[StateId] {
        let i = id.index();
        &self.succ_flat[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Whether the charset of `id` at position `pos` contains `sym`,
    /// evaluated through the specialized code. `sym` must be within the
    /// alphabet (the step loop hoists the out-of-alphabet check).
    #[inline(always)]
    pub fn code_matches(&self, code: SymCode, sym: u16) -> bool {
        match code {
            SymCode::Empty => false,
            SymCode::One(s) => sym == s,
            SymCode::Range { lo, hi } => lo <= sym && sym <= hi,
            SymCode::Sparse { off, len } => {
                let s = &self.sparse_arena[off as usize..off as usize + usize::from(len)];
                s.binary_search(&sym).is_ok()
            }
            SymCode::Dense { off } => {
                let w = &self.dense_arena[off as usize..off as usize + self.dense_words];
                (w[usize::from(sym) >> 6] >> (sym & 63)) & 1 != 0
            }
            SymCode::Full => true,
        }
    }

    /// Reports of `id`, in the automaton's order.
    #[inline(always)]
    pub fn reports(&self, id: StateId) -> &[ReportRec] {
        let i = id.index();
        &self.report_flat[self.report_off[i] as usize..self.report_off[i + 1] as usize]
    }

    /// Stride-1 fast path: whether the (single) charset of `id` contains
    /// `sym`. Callers must ensure `self.stride == 1`.
    #[inline(always)]
    pub fn matches1(&self, id: StateId, sym: u16) -> bool {
        self.code_matches(self.codes[id.index()], sym)
    }

    /// Whether state `id` matches the symbol vector, honoring padding: the
    /// first `valid` positions must match their codes and every padding
    /// position requires a full (don't-care) charset — exactly
    /// `Ste::matches` on the naive path.
    #[inline]
    pub fn state_matches(&self, id: StateId, vector: &[u16], valid: usize) -> bool {
        let base = id.index() * self.stride;
        let codes = &self.codes[base..base + self.stride];
        let live = valid.min(self.stride);
        for (j, &code) in codes.iter().enumerate() {
            if j < live {
                if !self.code_matches(code, vector[j]) {
                    return false;
                }
            } else if code != SymCode::Full {
                return false;
            }
        }
        true
    }

    /// The charset `code` stands for.
    fn charset(&self, code: SymCode) -> SymbolSet {
        let bits = self.alphabet.trailing_zeros() as u8;
        match code {
            SymCode::Empty => SymbolSet::empty(bits),
            SymCode::One(s) => SymbolSet::singleton(bits, s),
            SymCode::Range { lo, hi } => SymbolSet::range(bits, lo, hi),
            SymCode::Sparse { off, len } => {
                let run = &self.sparse_arena[off as usize..][..usize::from(len)];
                SymbolSet::from_symbols(bits, run.iter().copied())
            }
            SymCode::Dense { off } => SymbolSet::from_words(
                bits,
                &self.dense_arena[off as usize..off as usize + self.dense_words],
            ),
            SymCode::Full => SymbolSet::full(bits),
        }
    }

    /// The inverse of [`SparseTables::build`]. Panics on a code symbol
    /// outside the alphabet, a report offset at or past the stride, or a
    /// start period outside `1..=u32::MAX`; drops a repeated successor.
    pub fn to_nfa(&self) -> Nfa {
        let mut nfa = Nfa::with_stride(self.alphabet.trailing_zeros() as u8, self.stride);
        nfa.set_start_period(u32::try_from(self.start_period).expect("start period fits u32"));
        let mut kinds = vec![StartKind::None; self.succ_off.len() - 1];
        let (StartIndex::Bucketed { flat, .. } | StartIndex::Flat(flat)) = &self.start_index;
        let sod = self
            .sod_starts
            .iter()
            .map(|&id| (id, StartKind::StartOfData));
        for (id, kind) in sod.chain(flat.iter().map(|&id| (id, StartKind::AllInput))) {
            kinds[id.index()] = kind;
        }
        for (i, codes) in self.codes.chunks(self.stride).enumerate() {
            let charsets = codes.iter().map(|&code| self.charset(code)).collect();
            let mut ste = Ste::with_charsets(charsets).start(kinds[i]);
            for r in self.reports(StateId(i as u32)) {
                ste.add_report(ReportInfo::at_offset(r.id, r.offset as u8));
            }
            nfa.add_state(ste);
        }
        for (i, w) in self.succ_off.windows(2).enumerate() {
            for &to in &self.succ_flat[w[0] as usize..w[1] as usize] {
                nfa.add_edge(StateId(i as u32), to);
            }
        }
        nfa
    }
}

/// Adds an encoding histogram to telemetry (`state_encodings_total{kind}`)
/// when a collector is installed.
pub fn emit_encoding_counts(counts: &[u64; 6]) {
    if sunder_telemetry::enabled() {
        for (kind, &count) in ENCODING_KINDS.iter().zip(counts) {
            if count > 0 {
                sunder_telemetry::counter_add("state_encodings_total", &[("kind", kind)], count);
            }
        }
    }
}

/// The start-of-data starts, all-input start index and start LUT of
/// `nfa`, as [`SparseTables::build`] lays them out.
pub fn start_tables(nfa: &Nfa) -> (TableBuf<StateId>, StartIndex, TableBuf<u64>) {
    let alphabet = 1usize << nfa.symbol_bits();
    let mut all_input = Vec::new();
    let mut sod_starts = Vec::new();
    for (id, ste) in nfa.states() {
        match ste.start_kind() {
            StartKind::AllInput => all_input.push(id),
            StartKind::StartOfData => sod_starts.push(id),
            StartKind::None => {}
        }
    }
    let mut start_lut = vec![0u64; alphabet.div_ceil(64)];
    for &id in &all_input {
        nfa.state(id).charsets()[0].for_each_symbol(|sym| {
            start_lut[usize::from(sym) >> 6] |= 1u64 << (sym & 63);
        });
    }
    let start_index = if alphabet <= MAX_BUCKETED_ALPHABET {
        // Counting sort into CSR buckets; within a bucket the starts
        // stay in state-id order, matching the naive construction.
        let mut off = vec![0u32; alphabet + 1];
        for &id in &all_input {
            nfa.state(id).charsets()[0].for_each_symbol(|sym| off[usize::from(sym) + 1] += 1);
        }
        for i in 0..alphabet {
            off[i + 1] += off[i];
        }
        let mut flat = vec![StateId(0); off[alphabet] as usize];
        let mut cursor = off.clone();
        for &id in &all_input {
            nfa.state(id).charsets()[0].for_each_symbol(|sym| {
                let c = &mut cursor[usize::from(sym)];
                flat[*c as usize] = id;
                *c += 1;
            });
        }
        let unwakeable = |id: &&StateId| nfa.state(**id).charsets()[0].is_empty();
        flat.extend(all_input.iter().filter(unwakeable));
        StartIndex::Bucketed {
            off: off.into(),
            flat: flat.into(),
        }
    } else {
        StartIndex::Flat(all_input.into())
    };
    (sod_starts.into(), start_index, start_lut.into())
}

/// Classifies one charset, appending to the arenas when the shape needs
/// backing storage.
fn encode(cs: &SymbolSet, sparse: &mut Vec<u16>, dense: &mut Vec<u64>) -> SymCode {
    if cs.is_empty() {
        return SymCode::Empty;
    }
    if cs.is_full() {
        return SymCode::Full;
    }
    let len = cs.len();
    let lo = cs.iter().next().expect("non-empty set has a first symbol");
    if len == 1 {
        return SymCode::One(lo);
    }
    let hi = cs.iter().last().expect("non-empty set has a last symbol");
    if usize::from(hi - lo) + 1 == len {
        return SymCode::Range { lo, hi };
    }
    if len <= SPARSE_MAX {
        let off = sparse.len() as u32;
        sparse.extend(cs.iter()); // `iter` is ascending: arena slice is sorted
        SymCode::Sparse {
            off,
            len: len as u16,
        }
    } else {
        let off = dense.len() as u32;
        dense.extend_from_slice(cs.words());
        SymCode::Dense { off }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::nfa::Ste;
    use sunder_automata::regex::compile_rule_set;

    fn set(bits: u8, syms: &[u16]) -> SymbolSet {
        let mut s = SymbolSet::empty(bits);
        for &sym in syms {
            s.insert(sym);
        }
        s
    }

    /// One charset per encoding kind, with both ends of the alphabet.
    fn exhaustive_shapes() -> Vec<SymbolSet> {
        vec![
            SymbolSet::empty(8),
            SymbolSet::singleton(8, 0),
            SymbolSet::singleton(8, 255),
            set(8, &(b'a' as u16..=b'z' as u16).collect::<Vec<_>>()),
            set(8, &[0, 255]),
            set(8, &[3, 17, 42, 99, 100, 101, 250]),
            set(8, &(0..=255).step_by(3).collect::<Vec<_>>()),
            set(8, &(1..=254).collect::<Vec<_>>()),
            SymbolSet::full(8),
        ]
    }

    /// Stride-2 states with padding-sensitive charsets and reports at
    /// both offsets.
    fn strided_nfa() -> Nfa {
        let mut nfa = Nfa::with_stride(4, 2);
        let a = nfa.add_state(
            Ste::with_charsets(vec![SymbolSet::singleton(4, 3), SymbolSet::full(4)])
                .start(StartKind::AllInput)
                .report_at(5, 1),
        );
        let b = nfa.add_state(
            Ste::with_charsets(vec![set(4, &[1, 2, 3]), set(4, &[0, 7, 9, 12, 15])])
                .start(StartKind::AllInput),
        );
        nfa.add_state(
            Ste::with_charsets(vec![SymbolSet::full(4), SymbolSet::full(4)])
                .start(StartKind::AllInput)
                .report(2)
                .report_at(2, 1),
        );
        nfa.add_edge(b, a);
        nfa.add_edge(a, a);
        nfa
    }

    /// The code chosen for state `id` at stride position `pos`.
    fn code_of(t: &SparseTables, id: StateId, pos: usize) -> SymCode {
        t.codes[id.index() * t.stride + pos]
    }

    /// Builds a one-state automaton per charset and returns the tables.
    fn tables_for(charsets: Vec<SymbolSet>) -> (Nfa, SparseTables) {
        let bits = 8;
        let mut nfa = Nfa::new(bits);
        for cs in charsets {
            nfa.add_state(Ste::new(cs).start(StartKind::AllInput));
        }
        let tables = SparseTables::build(&nfa);
        (nfa, tables)
    }

    #[test]
    fn encodings_pick_the_expected_kinds() {
        let (_, t) = tables_for(vec![
            SymbolSet::empty(8),
            SymbolSet::singleton(8, 7),
            set(8, &(10..=20).collect::<Vec<_>>()),
            set(8, &[1, 5, 9, 200]),
            set(8, &(0..=255).step_by(2).collect::<Vec<_>>()),
            SymbolSet::full(8),
        ]);
        assert_eq!(code_of(&t, StateId(0), 0), SymCode::Empty);
        assert_eq!(code_of(&t, StateId(1), 0), SymCode::One(7));
        assert_eq!(
            code_of(&t, StateId(2), 0),
            SymCode::Range { lo: 10, hi: 20 }
        );
        assert!(matches!(
            code_of(&t, StateId(3), 0),
            SymCode::Sparse { len: 4, .. }
        ));
        assert!(matches!(code_of(&t, StateId(4), 0), SymCode::Dense { .. }));
        assert_eq!(code_of(&t, StateId(5), 0), SymCode::Full);
        assert_eq!(t.encoding_counts, [1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn every_encoding_agrees_with_contains_on_exhaustive_sweeps() {
        // One charset per encoding kind, swept over all 256 symbols: the
        // specialized probe must agree with the naive set membership.
        let (nfa, t) = tables_for(exhaustive_shapes());
        for (id, ste) in nfa.states() {
            let cs = &ste.charsets()[0];
            for sym in 0..256u16 {
                assert_eq!(
                    t.code_matches(code_of(&t, id, 0), sym),
                    cs.contains(sym),
                    "state {id:?} ({:?}) symbol {sym}",
                    code_of(&t, id, 0),
                );
            }
        }
    }

    #[test]
    fn state_matches_agrees_with_naive_on_exhaustive_strided_sweeps() {
        // Stride-2 states exercising padding: every (vector, valid)
        // combination must agree with `Ste::matches`.
        let nfa = strided_nfa();
        let t = SparseTables::build(&nfa);
        for (id, ste) in nfa.states() {
            for a in 0..16u16 {
                for b in 0..16u16 {
                    for valid in 1..=2usize {
                        assert_eq!(
                            t.state_matches(id, &[a, b], valid),
                            ste.matches(&[a, b], valid),
                            "state {id:?} vector [{a},{b}] valid {valid}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn successors_preserve_order() {
        let nfa = compile_rule_set(&["ab+c", "a[xy]z"]).unwrap();
        let t = SparseTables::build(&nfa);
        for (id, _) in nfa.states() {
            assert_eq!(t.successors(id), nfa.successors(id), "state {id:?}");
        }
    }

    #[test]
    fn start_lut_is_the_union_of_start_charsets() {
        let nfa = compile_rule_set(&["abc", "[0-9]x", "^zz"]).unwrap();
        let t = SparseTables::build(&nfa);
        // All-input starts accept 'a' and digits; '^zz' is start-of-data
        // and must NOT arm the LUT.
        for sym in 0..256usize {
            let expect =
                sym == usize::from(b'a') || (usize::from(b'0')..=usize::from(b'9')).contains(&sym);
            let hit = (t.start_lut[sym >> 6] >> (sym & 63)) & 1 != 0;
            assert_eq!(hit, expect, "symbol {sym}");
        }
        // The LUT ends with the alphabet: wider symbols find no word.
        assert_eq!(t.start_lut.len(), 4);
    }

    #[test]
    fn bucketed_start_index_matches_naive_buckets() {
        let nfa = compile_rule_set(&["[af]x", "ay", ".*b"]).unwrap();
        let t = SparseTables::build(&nfa);
        let StartIndex::Bucketed { off, flat } = &t.start_index else {
            panic!("byte alphabet must be bucketed");
        };
        // Naive bucket construction, state-id order within each symbol.
        let mut expect = vec![Vec::new(); 256];
        for (id, ste) in nfa.states() {
            if ste.start_kind() == StartKind::AllInput {
                for sym in ste.charsets()[0].iter() {
                    expect[usize::from(sym)].push(id);
                }
            }
        }
        for sym in 0..256usize {
            let bucket = &flat[off[sym] as usize..off[sym + 1] as usize];
            assert_eq!(bucket, expect[sym].as_slice(), "symbol {sym}");
        }
    }

    #[test]
    fn to_nfa_inverts_build() {
        // Every automaton the tests above build, plus a wide alphabet
        // (flat start index) and a start-of-data start.
        let mut wide = Nfa::new(9);
        let w = wide.add_state(Ste::new(set(9, &[1, 300, 511])).start(StartKind::AllInput));
        let x = wide.add_state(Ste::new(SymbolSet::range(9, 256, 400)).report(4));
        wide.add_state(Ste::new(SymbolSet::empty(9)).start(StartKind::StartOfData));
        wide.add_edge(w, x);
        let mut automata = vec![tables_for(exhaustive_shapes()).0, strided_nfa(), wide];
        for rules in [
            &["ab+c", "a[xy]z"][..],
            &["abc", "[0-9]x", "^zz"],
            &["[af]x", "ay", ".*b"],
        ] {
            automata.push(compile_rule_set(rules).unwrap());
        }
        for nfa in automata {
            let t = SparseTables::build(&nfa);
            assert_eq!(t.to_nfa(), nfa);
            let (sod, index, lut) = start_tables(&nfa);
            assert!(sod == t.sod_starts && index == t.start_index && lut == t.start_lut);
        }
    }
}
