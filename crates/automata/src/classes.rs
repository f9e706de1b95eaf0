//! Byte-class (equivalence-class) reduction.
//!
//! Two symbols are *equivalent* for an automaton when every charset at a
//! given stride position either contains both or contains neither: the
//! automaton cannot distinguish them, so any execution artifact indexed by
//! symbol (dense accept rows, prefilter tables) only needs one entry per
//! *class*, not one per symbol. Real rule sets use a small fraction of the
//! alphabet — a dictionary workload over lowercase ASCII collapses 256
//! byte columns to a few dozen classes — which shrinks the dense engine's
//! transition rows by the same factor (better cache residency, cheaper
//! builds).
//!
//! The pass is a standard partition refinement computed per stride
//! position at compile time: start with one class holding the whole
//! alphabet and split it against every state's charset. Class ids are
//! assigned in first-symbol order, so the lowest symbol of each class is
//! its representative.

use std::collections::HashSet;

use crate::nfa::Nfa;
use crate::symbol::SymbolSet;

/// The symbol-equivalence classes of an automaton, one partition per
/// stride position.
///
/// # Examples
///
/// ```
/// use sunder_automata::classes::ByteClasses;
/// use sunder_automata::regex::compile_regex;
///
/// // "ab" distinguishes 'a', 'b', and everything-else: three classes.
/// let nfa = compile_regex("ab", 0)?;
/// let classes = ByteClasses::of(&nfa);
/// assert_eq!(classes.count(0), 3);
/// assert_eq!(classes.class_of(0, b'a' as u16), classes.class_of(0, b'a' as u16));
/// assert_ne!(classes.class_of(0, b'a' as u16), classes.class_of(0, b'b' as u16));
/// assert_eq!(classes.class_of(0, b'x' as u16), classes.class_of(0, b'y' as u16));
/// # Ok::<(), sunder_automata::AutomataError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteClasses {
    /// `stride × alphabet` class ids, row-major by position.
    class_of: Vec<u16>,
    /// Number of classes at each position.
    counts: Vec<u16>,
    alphabet: usize,
}

impl ByteClasses {
    /// Computes the equivalence classes of `nfa`, refining one partition
    /// per stride position against every distinct charset at that
    /// position (refining twice by one set changes nothing, and rule sets
    /// repeat a few charsets over thousands of states).
    pub fn of(nfa: &Nfa) -> ByteClasses {
        let alphabet = 1usize << nfa.symbol_bits();
        let stride = nfa.stride();
        let mut class_of = vec![0u16; stride * alphabet];
        let mut counts = Vec::with_capacity(stride);
        for pos in 0..stride {
            let row = &mut class_of[pos * alphabet..(pos + 1) * alphabet];
            let mut count: u16 = 1;
            let mut seen = HashSet::new();
            for (_, ste) in nfa.states() {
                if count as usize == alphabet {
                    break; // fully split; no further refinement possible
                }
                let cs = &ste.charsets()[pos];
                if seen.insert(cs) {
                    refine(row, &mut count, cs);
                }
            }
            counts.push(count);
        }
        ByteClasses {
            class_of,
            counts,
            alphabet,
        }
    }

    /// Alphabet size the classes were computed over.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Number of stride positions.
    pub fn stride(&self) -> usize {
        self.counts.len()
    }

    /// Number of distinct classes at stride position `pos`.
    pub fn count(&self, pos: usize) -> usize {
        usize::from(self.counts[pos])
    }

    /// Total classes summed over all stride positions — the number of
    /// symbol-indexed table rows an execution artifact needs.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|&c| usize::from(c)).sum()
    }

    /// The class of `sym` at stride position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is outside the alphabet or `pos` outside the
    /// stride.
    pub fn class_of(&self, pos: usize, sym: u16) -> u16 {
        self.class_of[pos * self.alphabet + sym as usize]
    }

    /// The full symbol→class row for position `pos` (`alphabet` entries).
    pub fn row(&self, pos: usize) -> &[u16] {
        &self.class_of[pos * self.alphabet..(pos + 1) * self.alphabet]
    }

    /// The representative (lowest) symbol of each class at `pos`, in
    /// class-id order.
    pub fn representatives(&self, pos: usize) -> Vec<u16> {
        let mut reps = vec![u16::MAX; self.count(pos)];
        for (sym, &cls) in self.row(pos).iter().enumerate() {
            let slot = &mut reps[cls as usize];
            if *slot == u16::MAX {
                *slot = sym as u16;
            }
        }
        reps
    }
}

/// Splits every class in `row` against membership in `cs`, renumbering
/// classes in first-occurrence order.
fn refine(row: &mut [u16], count: &mut u16, cs: &SymbolSet) {
    if cs.is_empty() || cs.is_full() {
        return; // cannot split anything
    }
    // For each old class, the new id of its outside/inside halves.
    let mut mapped = vec![[u16::MAX; 2]; usize::from(*count)];
    let mut next: u16 = 0;
    for (sym, slot) in row.iter_mut().enumerate() {
        let inside = usize::from(cs.contains(sym as u16));
        let entry = &mut mapped[usize::from(*slot)][inside];
        if *entry == u16::MAX {
            *entry = next;
            next += 1;
        }
        *slot = *entry;
    }
    *count = next;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{StartKind, Ste};
    use crate::regex::{compile_regex, compile_rule_set};

    #[test]
    fn empty_automaton_has_one_class() {
        let nfa = Nfa::new(8);
        let classes = ByteClasses::of(&nfa);
        assert_eq!(classes.count(0), 1);
        assert_eq!(classes.total(), 1);
        assert_eq!(classes.class_of(0, 0), classes.class_of(0, 255));
    }

    #[test]
    fn full_charsets_do_not_split() {
        let mut nfa = Nfa::new(4);
        nfa.add_state(Ste::new(SymbolSet::full(4)).start(StartKind::AllInput));
        let classes = ByteClasses::of(&nfa);
        assert_eq!(classes.count(0), 1);
    }

    #[test]
    fn literal_splits_into_letters_and_rest() {
        let nfa = compile_rule_set(&["ab", "ac"]).unwrap();
        let classes = ByteClasses::of(&nfa);
        // 'a', 'b', 'c', other: exactly four classes.
        assert_eq!(classes.count(0), 4);
        let a = classes.class_of(0, b'a' as u16);
        let b = classes.class_of(0, b'b' as u16);
        let c = classes.class_of(0, b'c' as u16);
        let x = classes.class_of(0, b'x' as u16);
        let z = classes.class_of(0, b'z' as u16);
        assert_eq!(x, z);
        assert!(a != b && b != c && a != c && a != x && b != x && c != x);
    }

    #[test]
    fn classes_respect_every_charset() {
        // Exhaustive invariant: two symbols share a class iff every
        // charset agrees on them.
        let nfa = compile_rule_set(&["a[0-9]+b", ".*xy", "[a-f]{2}"]).unwrap();
        let classes = ByteClasses::of(&nfa);
        let charsets: Vec<_> = nfa.states().map(|(_, s)| s.charsets()[0].clone()).collect();
        for s1 in 0..256u16 {
            for s2 in (s1 + 1)..256u16 {
                let agree = charsets.iter().all(|cs| cs.contains(s1) == cs.contains(s2));
                let same = classes.class_of(0, s1) == classes.class_of(0, s2);
                assert_eq!(same, agree, "symbols {s1} and {s2}");
            }
        }
    }

    #[test]
    fn per_position_partitions_are_independent() {
        let mut nfa = Nfa::with_stride(4, 2);
        nfa.add_state(
            Ste::with_charsets(vec![SymbolSet::singleton(4, 1), SymbolSet::full(4)])
                .start(StartKind::AllInput),
        );
        let classes = ByteClasses::of(&nfa);
        assert_eq!(classes.stride(), 2);
        assert_eq!(classes.count(0), 2, "position 0 splits on symbol 1");
        assert_eq!(classes.count(1), 1, "position 1 is don't-care");
        assert_eq!(classes.total(), 3);
    }

    #[test]
    fn representatives_are_lowest_members() {
        let nfa = compile_regex("b", 0).unwrap();
        let classes = ByteClasses::of(&nfa);
        let reps = classes.representatives(0);
        assert_eq!(reps.len(), 2);
        // Class ids are assigned in first-symbol order: symbol 0 (not 'b')
        // seeds class 0, 'b' seeds class 1.
        assert_eq!(reps[0], 0);
        assert_eq!(reps[1], b'b' as u16);
        for (sym, &cls) in classes.row(0).iter().enumerate() {
            assert!(reps[cls as usize] <= sym as u16);
        }
    }

    #[test]
    fn row_covers_the_alphabet() {
        let nfa = compile_regex("[0-5]", 0).unwrap();
        let classes = ByteClasses::of(&nfa);
        assert_eq!(classes.row(0).len(), 256);
        assert_eq!(classes.alphabet(), 256);
        for &cls in classes.row(0) {
            assert!(usize::from(cls) < classes.count(0));
        }
    }
}
