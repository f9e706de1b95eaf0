//! Owned-or-borrowed backing storage for compiled engine tables.
//!
//! The engines precompute flat tables ([`crate::fastpath::SparseTables`],
//! the dense accept/successor matrices) that are built in memory
//! (`Vec<T>`) or, for the sparse set, borrowed straight out of a
//! memory-mapped pattern database (`sunder-artifact`'s `.sdb` format). [`TableBuf`] abstracts
//! over the two without a pointer indirection on the hot path: it derefs
//! to `[T]`, so every existing slice-indexing site keeps working, and the
//! borrowed variant pins the mapping alive through a type-erased owner.
//!
//! This crate stays `#![forbid(unsafe_code)]`: the borrowed variant holds
//! a `&'static [T]`, and the *only* place such a reference is fabricated
//! from a mapping is inside `sunder-artifact`, which owns the single
//! `unsafe` cast and guarantees the owner outlives every borrow by
//! construction (the `Arc` owner field here is what makes that guarantee
//! hold — dropping the last `TableBuf` drops the mapping).

use std::any::Any;
use std::ops::Deref;
use std::sync::Arc;

/// Backing storage for one compiled table: either an owned vector (built
/// in-process) or a slice borrowed from a shared owner (a mapped pattern
/// database). Dereferences to `[T]` either way.
pub struct TableBuf<T: 'static> {
    repr: Repr<T>,
}

enum Repr<T: 'static> {
    Owned(Vec<T>),
    Borrowed {
        slice: &'static [T],
        /// Keeps the memory behind `slice` alive: typically the
        /// `Arc<Mapping>` of a mapped database. Never read, only dropped.
        _owner: Arc<dyn Any + Send + Sync>,
    },
}

impl<T> TableBuf<T> {
    /// An owned table (the in-process build path).
    pub fn owned(data: Vec<T>) -> TableBuf<T> {
        TableBuf {
            repr: Repr::Owned(data),
        }
    }

    /// A table borrowed from `owner`-backed memory (the mapped-database
    /// load path).
    ///
    /// `slice` must point into memory that stays valid for as long as
    /// `owner` is alive; callers fabricating the `'static` lifetime (the
    /// artifact loader) uphold exactly that by keeping the mapping inside
    /// `owner`.
    pub fn borrowed(slice: &'static [T], owner: Arc<dyn Any + Send + Sync>) -> TableBuf<T> {
        TableBuf {
            repr: Repr::Borrowed {
                slice,
                _owner: owner,
            },
        }
    }

    /// `true` when this table borrows from a shared owner instead of
    /// owning its storage (diagnostics / tests).
    pub fn is_borrowed(&self) -> bool {
        matches!(self.repr, Repr::Borrowed { .. })
    }

    /// The table contents as a slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            Repr::Borrowed { slice, .. } => slice,
        }
    }
}

impl<T> Deref for TableBuf<T> {
    type Target = [T];

    #[inline(always)]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> From<Vec<T>> for TableBuf<T> {
    fn from(data: Vec<T>) -> TableBuf<T> {
        TableBuf::owned(data)
    }
}

impl<T: PartialEq> PartialEq for TableBuf<T> {
    fn eq(&self, other: &TableBuf<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T> Default for TableBuf<T> {
    fn default() -> TableBuf<T> {
        TableBuf::owned(Vec::new())
    }
}

impl<'a, T> IntoIterator for &'a TableBuf<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TableBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_borrowed() {
            "borrowed"
        } else {
            "owned"
        };
        write!(f, "TableBuf::{kind}(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_round_trip() {
        let t: TableBuf<u32> = vec![1, 2, 3].into();
        assert_eq!(&t[..], &[1, 2, 3]);
        assert_eq!(t[1], 2);
        assert!(!t.is_borrowed());
    }

    #[test]
    fn borrowed_keeps_owner_alive() {
        // A genuinely 'static slice; the owner is just refcount ballast
        // standing in for a mapping.
        static DATA: [u16; 4] = [9, 8, 7, 6];
        let owner: Arc<dyn Any + Send + Sync> = Arc::new(42u64);
        let weak = Arc::downgrade(&owner);
        let t = TableBuf::borrowed(&DATA[..], owner);
        assert!(t.is_borrowed());
        assert_eq!(t.len(), 4);
        assert!(weak.upgrade().is_some(), "owner pinned by the table");
        drop(t);
        assert!(weak.upgrade().is_none(), "owner released with the table");
    }

    #[test]
    fn iterates_by_reference() {
        let t: TableBuf<u64> = vec![5, 6].into();
        let mut sum = 0;
        for &v in &t {
            sum += v;
        }
        assert_eq!(sum, 11);
    }
}
