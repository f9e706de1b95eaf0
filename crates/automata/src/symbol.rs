//! Dense symbol sets over small alphabets.
//!
//! An automaton state in the homogeneous (ANML-style) model owns the set of
//! input symbols on which it can be entered. Symbols are `w`-bit values with
//! `1 <= w <= 16`, so a set is a dense bitset over an alphabet of at most
//! 65,536 symbols. The common cases are `w = 8` (byte-oriented automata) and
//! `w = 4` (*nibble* automata, the representation Sunder executes).

use std::fmt;

use crate::error::AutomataError;

/// Maximum supported symbol width in bits.
pub const MAX_SYMBOL_BITS: u8 = 16;

/// A dense set of `w`-bit symbols.
///
/// The set remembers its symbol width; operations that combine two sets
/// (union, intersection, …) panic if the widths differ, because mixing
/// alphabets is always a logic error in automata transformations.
///
/// # Examples
///
/// ```
/// use sunder_automata::SymbolSet;
///
/// let mut set = SymbolSet::empty(8);
/// set.insert(b'a' as u16);
/// set.insert_range(b'0' as u16, b'9' as u16);
/// assert!(set.contains(b'5' as u16));
/// assert_eq!(set.len(), 11);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SymbolSet {
    bits: u8,
    words: Vec<u64>,
}

impl SymbolSet {
    /// Creates an empty set over `bits`-wide symbols.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than [`MAX_SYMBOL_BITS`].
    pub fn empty(bits: u8) -> Self {
        assert!(
            (1..=MAX_SYMBOL_BITS).contains(&bits),
            "symbol width must be in 1..=16, got {bits}"
        );
        let words = 1usize.max((1usize << bits) / 64);
        SymbolSet {
            bits,
            words: vec![0; words],
        }
    }

    /// Creates the full set (every symbol present) over `bits`-wide symbols.
    pub fn full(bits: u8) -> Self {
        let mut s = SymbolSet::empty(bits);
        let n = s.alphabet_size();
        if n >= 64 {
            for w in &mut s.words {
                *w = u64::MAX;
            }
        } else {
            s.words[0] = (1u64 << n) - 1;
        }
        s
    }

    /// Creates a set containing exactly one symbol.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` does not fit in `bits` bits.
    pub fn singleton(bits: u8, symbol: u16) -> Self {
        let mut s = SymbolSet::empty(bits);
        s.insert(symbol);
        s
    }

    /// Creates a set from an inclusive range of symbols.
    pub fn range(bits: u8, lo: u16, hi: u16) -> Self {
        let mut s = SymbolSet::empty(bits);
        s.insert_range(lo, hi);
        s
    }

    /// Creates a set from an iterator of symbols.
    pub fn from_symbols<I: IntoIterator<Item = u16>>(bits: u8, symbols: I) -> Self {
        let mut s = SymbolSet::empty(bits);
        for sym in symbols {
            s.insert(sym);
        }
        s
    }

    /// Creates a set from its membership words, the inverse of
    /// [`SymbolSet::words`].
    ///
    /// # Panics
    ///
    /// Panics if `words` has the wrong length or a bit past the alphabet.
    pub fn from_words(bits: u8, words: &[u64]) -> Self {
        let mut s = SymbolSet::empty(bits);
        s.words.copy_from_slice(words);
        let n = s.alphabet_size();
        assert!(n >= 64 || words[0] >> n == 0, "symbol out of range");
        s
    }

    /// Builds a 4-bit set directly from a 16-entry bitmask (one bit per nibble).
    pub fn from_nibble_mask(mask: u16) -> Self {
        let mut s = SymbolSet::empty(4);
        s.words[0] = mask as u64;
        s
    }

    /// Returns the low 16 bits of the set as a nibble mask.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::WidthMismatch`] if the set is not 4-bit wide.
    pub fn to_nibble_mask(&self) -> Result<u16, AutomataError> {
        if self.bits != 4 {
            return Err(AutomataError::WidthMismatch {
                expected: 4,
                found: self.bits,
            });
        }
        Ok((self.words[0] & 0xFFFF) as u16)
    }

    /// Symbol width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The raw 64-bit membership words, least-significant symbol first.
    ///
    /// Word `i` holds symbols `64·i ..= 64·i + 63`, one bit per symbol.
    /// This is the export used to build the dense engine's per-symbol
    /// accept masks: each state's charset contributes one column bit per
    /// symbol row, exactly the layout a memory subarray stores.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Calls `f(symbol)` for every member, in ascending order.
    ///
    /// Walks the membership words with `trailing_zeros`, so the cost is
    /// proportional to the set size plus the word count — much cheaper
    /// than [`SymbolSet::iter`] for sparse sets over wide alphabets.
    pub fn for_each_symbol<F: FnMut(u16)>(&self, mut f: F) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros();
                f((wi * 64 + b as usize) as u16);
                w &= w - 1;
            }
        }
    }

    /// Number of distinct symbols representable at this width.
    pub fn alphabet_size(&self) -> usize {
        1usize << self.bits
    }

    fn check(&self, symbol: u16) {
        assert!(
            (symbol as usize) < self.alphabet_size(),
            "symbol {symbol} out of range for {}-bit alphabet",
            self.bits
        );
    }

    /// Inserts a symbol. Returns `true` if the symbol was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the symbol does not fit in the alphabet.
    pub fn insert(&mut self, symbol: u16) -> bool {
        self.check(symbol);
        let (w, b) = (symbol as usize / 64, symbol as usize % 64);
        let had = self.words[w] >> b & 1 == 1;
        self.words[w] |= 1u64 << b;
        !had
    }

    /// Removes a symbol. Returns `true` if the symbol was present.
    pub fn remove(&mut self, symbol: u16) -> bool {
        self.check(symbol);
        let (w, b) = (symbol as usize / 64, symbol as usize % 64);
        let had = self.words[w] >> b & 1 == 1;
        self.words[w] &= !(1u64 << b);
        had
    }

    /// Inserts every symbol in the inclusive range `lo..=hi`.
    pub fn insert_range(&mut self, lo: u16, hi: u16) {
        for sym in lo..=hi {
            self.insert(sym);
        }
    }

    /// Tests membership.
    pub fn contains(&self, symbol: u16) -> bool {
        if symbol as usize >= self.alphabet_size() {
            return false;
        }
        self.words[symbol as usize / 64] >> (symbol as usize % 64) & 1 == 1
    }

    /// Returns `true` if no symbol is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if every symbol of the alphabet is present.
    pub fn is_full(&self) -> bool {
        self.len() == self.alphabet_size()
    }

    /// Number of symbols in the set.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of the alphabet covered by this set, in `[0, 1]`.
    ///
    /// The paper calls states with large values *symbol-dense*; they drive
    /// the state blowup of the nibble transformation (Section 7.2).
    pub fn density(&self) -> f64 {
        self.len() as f64 / self.alphabet_size() as f64
    }

    /// In-place union with another set of the same width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn union_with(&mut self, other: &SymbolSet) {
        assert_eq!(self.bits, other.bits, "symbol width mismatch in union");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with another set of the same width.
    pub fn intersect_with(&mut self, other: &SymbolSet) {
        assert_eq!(
            self.bits, other.bits,
            "symbol width mismatch in intersection"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Returns the complement of the set.
    pub fn complement(&self) -> SymbolSet {
        let mut out = self.clone();
        let n = self.alphabet_size();
        for w in &mut out.words {
            *w = !*w;
        }
        if n < 64 {
            out.words[0] &= (1u64 << n) - 1;
        }
        out
    }

    /// Returns `true` if the two sets share at least one symbol.
    pub fn intersects(&self, other: &SymbolSet) -> bool {
        assert_eq!(self.bits, other.bits, "symbol width mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates over the symbols in ascending order.
    pub fn iter(&self) -> Symbols<'_> {
        Symbols { set: self, next: 0 }
    }

    /// Extracts the sub-set of symbols whose top nibble equals `nibble`,
    /// returned as a set over symbols that are 4 bits narrower.
    ///
    /// This is the decomposition step of the FlexAmata-style nibble
    /// transformation: an 8-bit set splits into up to sixteen 4-bit
    /// *low-nibble* sets indexed by the high nibble.
    ///
    /// # Panics
    ///
    /// Panics if the set is only 4 bits wide (there is no lower half).
    pub fn sub_set_for_top_nibble(&self, nibble: u16) -> SymbolSet {
        assert!(self.bits > 4, "cannot split a 4-bit set further");
        let low_bits = self.bits - 4;
        let mut out = SymbolSet::empty(low_bits);
        let base = (nibble as usize) << low_bits;
        for low in 0..(1usize << low_bits) {
            let sym = base + low;
            if self.words[sym / 64] >> (sym % 64) & 1 == 1 {
                out.insert(low as u16);
            }
        }
        out
    }
}

impl fmt::Debug for SymbolSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SymbolSet({}b, {})", self.bits, self)
    }
}

impl fmt::Display for SymbolSet {
    /// Renders the set as a compact list of ranges, e.g. `[0x30-0x39,0x61]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_full() {
            return write!(f, "[*]");
        }
        write!(f, "[")?;
        let mut first = true;
        let mut iter = self.iter().peekable();
        while let Some(lo) = iter.next() {
            let mut hi = lo;
            while iter.peek() == Some(&(hi + 1)) {
                hi = iter.next().unwrap();
            }
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if lo == hi {
                write!(f, "{lo:#04x}")?;
            } else {
                write!(f, "{lo:#04x}-{hi:#04x}")?;
            }
        }
        write!(f, "]")
    }
}

/// Iterator over the symbols of a [`SymbolSet`] in ascending order.
#[derive(Debug, Clone)]
pub struct Symbols<'a> {
    set: &'a SymbolSet,
    next: usize,
}

impl Iterator for Symbols<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        let n = self.set.alphabet_size();
        while self.next < n {
            let sym = self.next;
            self.next += 1;
            if self.set.words[sym / 64] >> (sym % 64) & 1 == 1 {
                return Some(sym as u16);
            }
        }
        None
    }
}

impl<'a> IntoIterator for &'a SymbolSet {
    type Item = u16;
    type IntoIter = Symbols<'a>;

    fn into_iter(self) -> Symbols<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = SymbolSet::empty(8);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = SymbolSet::full(8);
        assert!(f.is_full());
        assert_eq!(f.len(), 256);
        let f4 = SymbolSet::full(4);
        assert_eq!(f4.len(), 16);
        assert!(f4.is_full());
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = SymbolSet::empty(8);
        assert!(s.insert(42));
        assert!(!s.insert(42));
        assert!(s.contains(42));
        assert!(s.remove(42));
        assert!(!s.remove(42));
        assert!(!s.contains(42));
    }

    #[test]
    fn range_and_iter() {
        let s = SymbolSet::range(8, 10, 14);
        let v: Vec<u16> = s.iter().collect();
        assert_eq!(v, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn union_intersection_complement() {
        let a = SymbolSet::range(8, 0, 9);
        let b = SymbolSet::range(8, 5, 14);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 15);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.len(), 5);
        let c = a.complement();
        assert_eq!(c.len(), 246);
        assert!(!c.intersects(&a));
    }

    #[test]
    fn complement_small_width() {
        let a = SymbolSet::singleton(4, 3);
        let c = a.complement();
        assert_eq!(c.len(), 15);
        assert!(!c.contains(3));
        assert!(c.contains(0));
    }

    #[test]
    fn top_nibble_decomposition() {
        // 0x3A has top nibble 3, low nibble 0xA.
        let s = SymbolSet::from_symbols(8, [0x3A, 0x3B, 0x51]);
        let low3 = s.sub_set_for_top_nibble(3);
        assert_eq!(low3.iter().collect::<Vec<_>>(), vec![0xA, 0xB]);
        let low5 = s.sub_set_for_top_nibble(5);
        assert_eq!(low5.iter().collect::<Vec<_>>(), vec![0x1]);
        let low0 = s.sub_set_for_top_nibble(0);
        assert!(low0.is_empty());
    }

    #[test]
    fn sixteen_bit_sets() {
        let mut s = SymbolSet::empty(16);
        s.insert(0xFFFF);
        s.insert(0);
        assert_eq!(s.len(), 2);
        assert!(s.contains(0xFFFF));
        let top = s.sub_set_for_top_nibble(0xF);
        assert!(top.contains(0xFFF));
        assert_eq!(top.bits(), 12);
    }

    #[test]
    fn nibble_mask_round_trip() {
        let s = SymbolSet::from_nibble_mask(0b1010_0000_0000_0101);
        assert_eq!(s.to_nibble_mask().unwrap(), 0b1010_0000_0000_0101);
        assert_eq!(s.len(), 4);
        assert!(SymbolSet::empty(8).to_nibble_mask().is_err());
    }

    #[test]
    fn words_export_matches_membership() {
        let s = SymbolSet::from_symbols(8, [0, 63, 64, 255]);
        let w = s.words();
        assert_eq!(w.len(), 4);
        assert_eq!(w[0], 1 | (1 << 63));
        assert_eq!(w[1], 1);
        assert_eq!(w[3], 1 << 63);
        let mut seen = Vec::new();
        s.for_each_symbol(|sym| seen.push(sym));
        assert_eq!(seen, vec![0, 63, 64, 255]);
    }

    #[test]
    fn for_each_symbol_agrees_with_iter() {
        let s = SymbolSet::range(4, 3, 11);
        let mut fast = Vec::new();
        s.for_each_symbol(|sym| fast.push(sym));
        assert_eq!(fast, s.iter().collect::<Vec<_>>());
    }

    #[test]
    fn density() {
        let s = SymbolSet::range(8, 0, 127);
        assert!((s.density() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_ranges() {
        let s = SymbolSet::from_symbols(8, [1, 2, 3, 9]);
        assert_eq!(format!("{s}"), "[0x01-0x03,0x09]");
        assert_eq!(format!("{}", SymbolSet::full(4)), "[*]");
    }

    #[test]
    #[should_panic(expected = "symbol width must be in 1..=16")]
    fn width_zero_panics() {
        let _ = SymbolSet::empty(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = SymbolSet::empty(4);
        s.insert(16);
    }
}
