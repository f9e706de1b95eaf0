//! Input-stream views for different symbol widths and strides.
//!
//! The benchmark inputs are byte streams; depending on the configured
//! processing rate the machine consumes them as 8-bit symbols, 4-bit nibbles,
//! 16-bit symbol pairs, or fixed-width vectors of nibbles. [`InputView`]
//! produces the per-cycle symbol vectors for any `(symbol_bits, stride)`
//! combination, including the partially-valid final vector.

use crate::error::AutomataError;

/// Splits a byte into its (high, low) nibbles, high first.
///
/// The nibble transformation consumes the most-significant nibble first, so
/// `0x3A` streams as `0x3` then `0xA`.
pub fn byte_to_nibbles(byte: u8) -> (u8, u8) {
    (byte >> 4, byte & 0x0F)
}

/// One per-cycle symbol vector: `stride` symbols, of which the first
/// `valid` carry real input (the rest are end-of-stream padding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolVector {
    /// The symbols for this cycle; length equals the stride.
    pub symbols: Vec<u16>,
    /// Number of leading symbols that are real input.
    pub valid: usize,
}

/// A view of a byte stream as a sequence of per-cycle symbol vectors.
///
/// # Examples
///
/// ```
/// use sunder_automata::input::InputView;
///
/// // 4-bit symbols, four per cycle (Sunder's 16-bit processing rate).
/// let view = InputView::new(&[0x12, 0x34, 0x56], 4, 4)?;
/// let cycles: Vec<_> = view.iter().collect();
/// assert_eq!(cycles.len(), 2);
/// assert_eq!(cycles[0].symbols, vec![0x1, 0x2, 0x3, 0x4]);
/// assert_eq!(cycles[1].symbols, vec![0x5, 0x6, 0x0, 0x0]);
/// assert_eq!(cycles[1].valid, 2);
/// # Ok::<(), sunder_automata::AutomataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InputView {
    symbols: Vec<u16>,
    stride: usize,
    /// The final partial vector, pre-padded to `stride` symbols. Empty when
    /// the stream divides evenly. Kept here so [`InputView::iter_ref`] can
    /// hand out borrowed slices for every cycle, including the tail, without
    /// any per-cycle allocation.
    tail: Vec<u16>,
}

impl InputView {
    /// Builds a view of `bytes` as `stride`-wide vectors of
    /// `symbol_bits`-wide symbols.
    ///
    /// Supported widths are 4 (nibbles), 8 (bytes), and 16 (byte pairs,
    /// big-endian). A trailing odd byte for 16-bit symbols is padded with
    /// zero in the low byte and still marked valid (it carries real input).
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::UnsupportedWidth`] for other widths.
    pub fn new(bytes: &[u8], symbol_bits: u8, stride: usize) -> Result<Self, AutomataError> {
        assert!(stride >= 1, "stride must be at least 1");
        let symbols: Vec<u16> = match symbol_bits {
            4 => {
                // Straight to `u16`, without a byte-per-nibble buffer on
                // the way: one allocation per view, not two.
                let mut out = Vec::with_capacity(bytes.len() * 2);
                for &b in bytes {
                    let (hi, lo) = byte_to_nibbles(b);
                    out.extend([u16::from(hi), u16::from(lo)]);
                }
                out
            }
            8 => bytes.iter().map(|&b| u16::from(b)).collect(),
            16 => bytes
                .chunks(2)
                .map(|c| {
                    let hi = u16::from(c[0]) << 8;
                    let lo = c.get(1).copied().map(u16::from).unwrap_or(0);
                    hi | lo
                })
                .collect(),
            other => return Err(AutomataError::UnsupportedWidth(other)),
        };
        Ok(Self::from_symbols(symbols, stride))
    }

    /// Builds a view directly from pre-split symbols.
    pub fn from_symbols(symbols: Vec<u16>, stride: usize) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        let rem = symbols.len() % stride;
        let tail = if rem == 0 {
            Vec::new()
        } else {
            let mut t = symbols[symbols.len() - rem..].to_vec();
            t.resize(stride, 0);
            t
        };
        InputView {
            symbols,
            stride,
            tail,
        }
    }

    /// Number of per-cycle vectors the stream yields.
    pub fn num_cycles(&self) -> usize {
        self.symbols.len().div_ceil(self.stride)
    }

    /// Total number of real symbols.
    pub fn num_symbols(&self) -> usize {
        self.symbols.len()
    }

    /// Stride (symbols per cycle).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The raw symbol stream.
    pub fn symbols(&self) -> &[u16] {
        &self.symbols
    }

    /// Iterates over the per-cycle symbol vectors.
    ///
    /// Each item owns its symbol buffer, costing one allocation per cycle.
    /// Hot paths should prefer [`InputView::iter_ref`], which borrows.
    pub fn iter(&self) -> Vectors<'_> {
        Vectors { view: self, pos: 0 }
    }

    /// Iterates over the per-cycle symbol vectors as borrowed slices.
    ///
    /// Unlike [`InputView::iter`], this performs no allocation: full
    /// vectors borrow directly from the symbol stream and the final
    /// partial vector borrows the view's pre-padded tail buffer. This is
    /// what the simulator engines use, so steady-state execution is
    /// allocation-free.
    ///
    /// ```
    /// use sunder_automata::input::InputView;
    ///
    /// let view = InputView::new(&[0x12, 0x34, 0x56], 4, 4)?;
    /// let cycles: Vec<_> = view.iter_ref().collect();
    /// assert_eq!(cycles[0].symbols, &[0x1, 0x2, 0x3, 0x4]);
    /// assert_eq!(cycles[1].symbols, &[0x5, 0x6, 0x0, 0x0]);
    /// assert_eq!(cycles[1].valid, 2);
    /// # Ok::<(), sunder_automata::AutomataError>(())
    /// ```
    pub fn iter_ref(&self) -> VectorRefs<'_> {
        VectorRefs { view: self, pos: 0 }
    }
}

impl<'a> IntoIterator for &'a InputView {
    type Item = SymbolVector;
    type IntoIter = Vectors<'a>;

    fn into_iter(self) -> Vectors<'a> {
        self.iter()
    }
}

/// Iterator over the per-cycle [`SymbolVector`]s of an [`InputView`].
#[derive(Debug, Clone)]
pub struct Vectors<'a> {
    view: &'a InputView,
    pos: usize,
}

impl Iterator for Vectors<'_> {
    type Item = SymbolVector;

    fn next(&mut self) -> Option<SymbolVector> {
        if self.pos >= self.view.symbols.len() {
            return None;
        }
        let stride = self.view.stride;
        let end = (self.pos + stride).min(self.view.symbols.len());
        let valid = end - self.pos;
        let mut symbols = Vec::with_capacity(stride);
        symbols.extend_from_slice(&self.view.symbols[self.pos..end]);
        symbols.resize(stride, 0);
        self.pos += stride;
        Some(SymbolVector { symbols, valid })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self
            .view
            .symbols
            .len()
            .saturating_sub(self.pos)
            .div_ceil(self.view.stride);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Vectors<'_> {}

/// One borrowed per-cycle symbol vector: `stride` symbols, of which the
/// first `valid` carry real input (the rest are end-of-stream padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorRef<'a> {
    /// The symbols for this cycle; length equals the stride.
    pub symbols: &'a [u16],
    /// Number of leading symbols that are real input.
    pub valid: usize,
}

/// Zero-allocation iterator over the per-cycle vectors of an [`InputView`].
#[derive(Debug, Clone)]
pub struct VectorRefs<'a> {
    view: &'a InputView,
    pos: usize,
}

impl VectorRefs<'_> {
    /// Skips the next `cycles` vectors without yielding them. Used by the
    /// engines' prefilter to jump over cycles proven to produce an empty
    /// frontier. Skipping past the end is allowed and simply exhausts the
    /// iterator.
    pub fn advance_cycles(&mut self, cycles: usize) {
        self.pos = self
            .pos
            .saturating_add(cycles.saturating_mul(self.view.stride));
    }
}

impl<'a> Iterator for VectorRefs<'a> {
    type Item = VectorRef<'a>;

    fn next(&mut self) -> Option<VectorRef<'a>> {
        let len = self.view.symbols.len();
        if self.pos >= len {
            return None;
        }
        let stride = self.view.stride;
        let remaining = len - self.pos;
        let item = if remaining >= stride {
            VectorRef {
                symbols: &self.view.symbols[self.pos..self.pos + stride],
                valid: stride,
            }
        } else {
            VectorRef {
                symbols: &self.view.tail,
                valid: remaining,
            }
        };
        self.pos += stride;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self
            .view
            .symbols
            .len()
            .saturating_sub(self.pos)
            .div_ceil(self.view.stride);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for VectorRefs<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_order_is_high_first() {
        assert_eq!(byte_to_nibbles(0x3A), (0x3, 0xA));
        let view = InputView::new(&[0x12, 0xF0], 4, 1).unwrap();
        assert_eq!(view.symbols(), [1, 2, 0xF, 0]);
    }

    #[test]
    fn byte_view() {
        let v = InputView::new(b"ab", 8, 1).unwrap();
        let cycles: Vec<_> = v.iter().collect();
        assert_eq!(cycles.len(), 2);
        assert_eq!(cycles[0].symbols, vec![b'a' as u16]);
        assert_eq!(cycles[0].valid, 1);
    }

    #[test]
    fn sixteen_bit_view_pads_odd_tail() {
        let v = InputView::new(&[0xAB, 0xCD, 0xEF], 16, 1).unwrap();
        let cycles: Vec<_> = v.iter().collect();
        assert_eq!(cycles.len(), 2);
        assert_eq!(cycles[0].symbols, vec![0xABCD]);
        assert_eq!(cycles[1].symbols, vec![0xEF00]);
    }

    #[test]
    fn partial_final_vector() {
        let v = InputView::new(&[0x12], 4, 4).unwrap();
        let cycles: Vec<_> = v.iter().collect();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].symbols, vec![1, 2, 0, 0]);
        assert_eq!(cycles[0].valid, 2);
    }

    #[test]
    fn unsupported_width_errors() {
        assert!(matches!(
            InputView::new(&[1], 5, 1),
            Err(AutomataError::UnsupportedWidth(5))
        ));
    }

    #[test]
    fn exact_size_iterator() {
        let v = InputView::new(&[1, 2, 3, 4, 5], 4, 4).unwrap();
        assert_eq!(v.num_cycles(), 3);
        assert_eq!(v.iter().len(), 3);
        assert_eq!(v.num_symbols(), 10);
    }

    #[test]
    fn empty_input() {
        let v = InputView::new(&[], 8, 1).unwrap();
        assert_eq!(v.num_cycles(), 0);
        assert_eq!(v.iter().count(), 0);
        assert_eq!(v.iter_ref().count(), 0);
    }

    #[test]
    fn iter_ref_agrees_with_iter() {
        for (bytes, bits, stride) in [
            (vec![0x12u8, 0x34, 0x56], 4u8, 4usize),
            (vec![1, 2, 3, 4, 5], 8, 2),
            (vec![9; 7], 8, 3),
            (vec![0xAB, 0xCD, 0xEF], 16, 2),
            (vec![], 8, 1),
        ] {
            let v = InputView::new(&bytes, bits, stride).unwrap();
            let owned: Vec<_> = v.iter().collect();
            let borrowed: Vec<_> = v.iter_ref().collect();
            assert_eq!(owned.len(), borrowed.len());
            for (o, b) in owned.iter().zip(&borrowed) {
                assert_eq!(o.symbols.as_slice(), b.symbols);
                assert_eq!(o.valid, b.valid);
            }
        }
    }

    #[test]
    fn advance_cycles_skips_whole_vectors() {
        let v = InputView::new(&[1, 2, 3, 4, 5, 6, 7], 8, 2).unwrap();
        let mut it = v.iter_ref();
        it.advance_cycles(2);
        let next = it.next().unwrap();
        assert_eq!(next.symbols, &[5, 6]);
        it.advance_cycles(100);
        assert!(it.next().is_none(), "skipping past the end exhausts");
    }

    #[test]
    fn iter_ref_exact_size() {
        let v = InputView::new(&[1, 2, 3, 4, 5], 4, 4).unwrap();
        assert_eq!(v.iter_ref().len(), 3);
    }
}
