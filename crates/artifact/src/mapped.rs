//! Mapping and zero-deserialization loading of `.sdb` databases.
//!
//! [`Mapping`] holds the raw file bytes — `mmap(2)` on Unix, a
//! page-copy fallback elsewhere (and for byte-slice loads). [`MappedDb`]
//! validates a mapping and assembles executable engines whose flat
//! tables **borrow** straight from it: the only `unsafe` in the whole
//! artifact stack is here, in [`Mapping`]'s byte view and the
//! `&[u8] → &[T]` cast behind [`sunder_sim::TableBuf`]'s borrowed
//! variant. The cast is sound because
//!
//! * the byte-level validator proved every section in-bounds and
//!   8-byte aligned before any cast (and 8 covers the alignment of
//!   every element type used);
//! * every element type is plain old data with no invalid bit patterns
//!   (`u16`/`u32`/`u64`, and `StateId`, which is `#[repr(transparent)]`
//!   over `u32`);
//! * the fabricated `'static` lifetime is upheld by construction: each
//!   borrowed `TableBuf` pins the `Arc<Mapping>` as its owner, so the
//!   mapping outlives every table sliced from it.
//!
//! One hazard is inherited from `mmap` itself: truncating a database
//! file while a process has it mapped can fault that process. Writers
//! avoid this by replacing databases atomically via rename
//! ([`CompiledPipeline::write`]), never by truncating in place.

use std::any::Any;
use std::path::Path;
use std::sync::Arc;

use sunder_automata::partition::{Shard, ShardPlan, ShardSpec};
use sunder_automata::{anml, Nfa, StateId};
use sunder_sim::dense::DenseTables;
use sunder_sim::fastpath::{
    SparseTables, StartIndex, SymCode, ENCODING_KINDS, MAX_BUCKETED_ALPHABET,
};
use sunder_sim::{EngineKind, ShardedEngine, TableBuf};
use sunder_transform::{PipelineConfig, PositionMap};

use crate::error::ArtifactError;
use crate::format::{CodeRec, GlobalMeta, SectionKind, ShardMeta};
use crate::validate::{validate_bytes, RawDb, RawSection};
use crate::{key_of_anml, CompiledPipeline};

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// The raw bytes of a database: a read-only file mapping on Unix, or an
/// owned 8-byte-aligned buffer (the non-Unix fallback and the byte-slice
/// load path). Shared via `Arc` with every table borrowed from it.
pub struct Mapping {
    repr: MapRepr,
    len: usize,
}

enum MapRepr {
    #[cfg(unix)]
    Mmap { ptr: *mut u8 },
    /// Backing storage as `u64` words so the base pointer satisfies the
    /// strictest element alignment without any manual layout work.
    Owned(Vec<u64>),
}

// SAFETY: the mapping is read-only for its entire lifetime — no `&mut`
// access exists anywhere — so shared references from any thread are
// sound, and ownership can move between threads freely.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `path` read-only, falling back to an in-memory copy when
    /// mapping is unavailable (non-Unix hosts, empty files, exotic
    /// filesystems).
    ///
    /// # Errors
    ///
    /// Returns i/o failures opening or reading the file.
    pub fn open(path: &Path) -> Result<Mapping, ArtifactError> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| ArtifactError::BadHeader {
            reason: "file too large to map",
        })?;
        #[cfg(unix)]
        if len > 0 {
            use std::os::unix::io::AsRawFd;
            // SAFETY: a fresh private read-only mapping of a file we
            // hold open; failure is reported via MAP_FAILED, which we
            // check before using the pointer.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr != sys::map_failed() {
                return Ok(Mapping {
                    repr: MapRepr::Mmap { ptr: ptr.cast() },
                    len,
                });
            }
        }
        Ok(Mapping::from_bytes(&std::fs::read(path)?))
    }

    /// Copies `bytes` into an owned, 8-byte-aligned buffer.
    pub fn from_bytes(bytes: &[u8]) -> Mapping {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            words[i] = u64::from_ne_bytes(w);
        }
        Mapping {
            repr: MapRepr::Owned(words),
            len: bytes.len(),
        }
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            #[cfg(unix)]
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until Drop unmaps it.
            MapRepr::Mmap { ptr } => unsafe { std::slice::from_raw_parts(*ptr, self.len) },
            MapRepr::Owned(words) => {
                // SAFETY: a u64 buffer of ≥ len bytes viewed as bytes;
                // u8 has no alignment or validity requirements.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), self.len) }
            }
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bytes are mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when backed by a real file mapping rather than a copy.
    pub fn is_mmapped(&self) -> bool {
        match self.repr {
            #[cfg(unix)]
            MapRepr::Mmap { .. } => true,
            MapRepr::Owned(_) => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        match &self.repr {
            #[cfg(unix)]
            MapRepr::Mmap { ptr } => {
                // SAFETY: unmapping exactly what mmap returned; no byte
                // view can outlive us because every TableBuf borrowed
                // from this mapping holds the owning Arc.
                unsafe {
                    sys::munmap(ptr.cast(), self.len);
                }
            }
            MapRepr::Owned(_) => {}
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_mmapped() { "mmap" } else { "owned" };
        write!(f, "Mapping::{kind}(len={})", self.len)
    }
}

/// Marker for element types a section may be viewed as.
///
/// # Safety
///
/// Implementors must be plain old data: no padding, no invalid bit
/// patterns, no drop glue, alignment ≤ 8.
unsafe trait Pod: Copy + 'static {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
// StateId is #[repr(transparent)] over u32, which nfa.rs documents as a
// guarantee for exactly this cast.
unsafe impl Pod for StateId {}

/// Borrows a validated section as a typed table pinned to the mapping.
fn borrow_table<T: Pod>(mapping: &Arc<Mapping>, section: &RawSection) -> TableBuf<T> {
    let bytes = &mapping.as_bytes()[section.offset..section.offset + section.len];
    let elem = std::mem::size_of::<T>();
    // Both proven by the byte validator (8-aligned offsets, element-size
    // multiple lengths); the owned fallback buffer is u64-aligned too.
    debug_assert!((bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()));
    debug_assert!(bytes.len().is_multiple_of(elem));
    // SAFETY: in-bounds, aligned, correctly sized, and T is Pod, so any
    // bit pattern is a valid value. The 'static lifetime is fabricated
    // but upheld: the returned TableBuf owns an Arc of the mapping.
    let slice: &'static [T] =
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / elem) };
    let owner: Arc<dyn Any + Send + Sync> = mapping.clone();
    TableBuf::borrowed(slice, owner)
}

fn utf8_section<'a>(raw: &RawDb<'a>, section: &RawSection) -> Result<&'a str, ArtifactError> {
    std::str::from_utf8(raw.payload(section)).map_err(|_| ArtifactError::Utf8 {
        kind: section.kind.tag(),
    })
}

fn to_usize(value: u64, context: &'static str) -> Result<usize, ArtifactError> {
    usize::try_from(value).map_err(|_| ArtifactError::CountOverflow { context })
}

fn checked_mul(a: usize, b: usize, context: &'static str) -> Result<usize, ArtifactError> {
    a.checked_mul(b)
        .ok_or(ArtifactError::CountOverflow { context })
}

/// Element count of a section (its byte length over the element size —
/// always exact, the byte validator enforced divisibility).
fn elem_count(section: &RawSection) -> usize {
    section.len / section.kind.elem_size()
}

fn require_count(
    section: &RawSection,
    expected: usize,
    context: &'static str,
) -> Result<(), ArtifactError> {
    if elem_count(section) != expected {
        return Err(ArtifactError::CountMismatch { context });
    }
    Ok(())
}

/// Checks that bits at positions `bits..` of the final word are zero
/// (`words` has exactly `ceil(bits / 64)` entries).
fn tail_bits_zero(words: &[u64], bits: usize) -> bool {
    if bits.is_multiple_of(64) {
        return true;
    }
    match words.last() {
        Some(&w) => w >> (bits % 64) == 0,
        None => true,
    }
}

/// A validated, executable pattern database.
///
/// Construction performs the full two-phase validation; once a
/// `MappedDb` exists, its engines are safe to run on any input. The
/// engine tables borrow from the mapping (see [`MappedDb::borrowed_tables`]),
/// which stays alive for as long as any engine clone does.
#[derive(Debug)]
pub struct MappedDb {
    pipeline: CompiledPipeline,
    file_len: usize,
    mmapped: bool,
    sections: Vec<(SectionKind, u32, usize, usize)>,
    borrowed_tables: usize,
}

impl MappedDb {
    /// Opens and validates the database at `path`.
    ///
    /// # Errors
    ///
    /// Returns i/o failures or any [`ArtifactError`] validation
    /// rejection.
    pub fn open(path: &Path) -> Result<MappedDb, ArtifactError> {
        MappedDb::from_mapping(Arc::new(Mapping::open(path)?))
    }

    /// Validates a byte buffer (copied into aligned storage) — the
    /// fileless path used by the conformance and corruption suites.
    ///
    /// # Errors
    ///
    /// Returns any [`ArtifactError`] validation rejection.
    pub fn load_bytes(bytes: &[u8]) -> Result<MappedDb, ArtifactError> {
        MappedDb::from_mapping(Arc::new(Mapping::from_bytes(bytes)))
    }

    /// Validates an existing mapping and assembles the engines.
    ///
    /// # Errors
    ///
    /// Returns any [`ArtifactError`] validation rejection.
    pub fn from_mapping(mapping: Arc<Mapping>) -> Result<MappedDb, ArtifactError> {
        load(mapping)
    }

    /// The loaded pipeline.
    pub fn pipeline(&self) -> &CompiledPipeline {
        &self.pipeline
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.file_len
    }

    /// `true` when backed by a real file mapping.
    pub fn is_mmapped(&self) -> bool {
        self.mmapped
    }

    /// `(kind, shard, offset, len)` of every section, in table order —
    /// the `inspect-db` listing.
    pub fn sections(&self) -> &[(SectionKind, u32, usize, usize)] {
        &self.sections
    }

    /// How many engine tables borrow from the mapping (zero-copy
    /// accounting for diagnostics and tests).
    pub fn borrowed_tables(&self) -> usize {
        self.borrowed_tables
    }

    /// Consumes the database, yielding the loaded pipeline by value; its
    /// engine tables keep borrowing from the mapping.
    pub fn into_pipeline(self) -> CompiledPipeline {
        self.pipeline
    }
}

/// Per-shard derived sizes, computed with checked arithmetic from the
/// shard metadata *before* any cross-check, so forged counts fail as
/// [`ArtifactError::CountOverflow`] rather than wrapping.
struct ShardSizes {
    n: usize,
    stride: usize,
    alphabet: usize,
    dense_words: usize,
    codes: usize,
    state_words: usize,
}

impl ShardSizes {
    fn derive(sm: &ShardMeta) -> Result<ShardSizes, ArtifactError> {
        let n = to_usize(sm.num_states, "shard state count")?;
        let stride = to_usize(sm.stride, "shard stride")?;
        let alphabet = to_usize(sm.alphabet, "shard alphabet")?;
        let dense_words = to_usize(sm.dense_words, "dense arena width")?;
        let codes = checked_mul(n, stride, "code table")?;
        // Guard the +1s and ×8s downstream in one place.
        checked_mul(codes, 8, "code table bytes")?;
        let state_words = n.div_ceil(64);
        n.checked_add(1).ok_or(ArtifactError::CountOverflow {
            context: "offset table",
        })?;
        alphabet
            .checked_add(1)
            .ok_or(ArtifactError::CountOverflow {
                context: "start offset table",
            })?;
        Ok(ShardSizes {
            n,
            stride,
            alphabet,
            dense_words,
            codes,
            state_words,
        })
    }
}

fn bad(context: &'static str) -> ArtifactError {
    ArtifactError::BadValue { context }
}

/// Decodes and bounds-checks one shard's code table against its arenas.
fn decode_codes(
    raw: &RawDb<'_>,
    codes_sec: &RawSection,
    sizes: &ShardSizes,
    sparse_arena: &[u16],
    dense_arena_len: usize,
    expected_counts: &[u64; 6],
) -> Result<Vec<SymCode>, ArtifactError> {
    let bytes = raw.payload(codes_sec);
    let mut codes = Vec::with_capacity(sizes.codes);
    let mut counts = [0u64; 6];
    for i in 0..sizes.codes {
        let rec = CodeRec::from_bytes(bytes, i);
        let code = match rec.tag {
            0 if rec.a == 0 && rec.b == 0 => SymCode::Empty,
            1 if rec.b == 0 => SymCode::One(rec.a),
            2 => {
                let hi = u16::try_from(rec.b).map_err(|_| bad("range code bound"))?;
                if rec.a > hi {
                    return Err(bad("inverted range code"));
                }
                SymCode::Range { lo: rec.a, hi }
            }
            3 => {
                let off = rec.b as usize;
                let len = usize::from(rec.a);
                let end = off
                    .checked_add(len)
                    .filter(|&e| e <= sparse_arena.len())
                    .ok_or(bad("sparse code range"))?;
                if !sparse_arena[off..end].windows(2).all(|w| w[0] < w[1]) {
                    return Err(bad("unsorted sparse arena run"));
                }
                SymCode::Sparse {
                    off: rec.b,
                    len: rec.a,
                }
            }
            4 if rec.a == 0 => {
                (rec.b as usize)
                    .checked_add(sizes.dense_words)
                    .filter(|&e| e <= dense_arena_len)
                    .ok_or(bad("dense code range"))?;
                SymCode::Dense { off: rec.b }
            }
            5 if rec.a == 0 && rec.b == 0 => SymCode::Full,
            0 | 1 | 4 => return Err(bad("nonzero code operand padding")),
            _ => return Err(bad("code tag")),
        };
        counts[code.kind_index()] += 1;
        codes.push(code);
    }
    if counts != *expected_counts {
        return Err(ArtifactError::CountMismatch {
            context: "encoding histogram",
        });
    }
    Ok(codes)
}

/// Validates a borrowed state-id table: every id below `n`.
fn check_ids(ids: &[StateId], n: usize, context: &'static str) -> Result<(), ArtifactError> {
    if ids.iter().any(|id| id.index() >= n) {
        return Err(bad(context));
    }
    Ok(())
}

/// Validates a CSR offset table: starts at zero, nondecreasing, ends at
/// `total`.
fn check_offsets(off: &[u32], total: usize, context: &'static str) -> Result<(), ArtifactError> {
    if off.first() != Some(&0) {
        return Err(bad(context));
    }
    if !off.windows(2).all(|w| w[0] <= w[1]) {
        return Err(bad(context));
    }
    if off.last().map(|&l| l as usize) != Some(total) {
        return Err(bad(context));
    }
    Ok(())
}

/// Validates a reporting bitset against the shard automaton: exact per-
/// state agreement plus a zero tail.
fn check_report_bits(words: &[u64], nfa: &Nfa, context: &'static str) -> Result<(), ArtifactError> {
    if !tail_bits_zero(words, nfa.num_states()) {
        return Err(bad(context));
    }
    for (id, ste) in nfa.states() {
        let i = id.index();
        let bit = (words[i >> 6] >> (i & 63)) & 1 != 0;
        if bit == ste.reports().is_empty() {
            return Err(bad(context));
        }
    }
    Ok(())
}

/// Loads one shard's sparse tables, fully validated.
#[allow(clippy::too_many_arguments)]
fn load_sparse(
    raw: &RawDb<'_>,
    mapping: &Arc<Mapping>,
    shard: u32,
    sm: &ShardMeta,
    sizes: &ShardSizes,
    shard_nfa: &Nfa,
    borrowed: &mut usize,
) -> Result<SparseTables, ArtifactError> {
    let n = sizes.n;

    let succ_off_sec = raw.require(SectionKind::SpSuccOff, shard)?;
    require_count(succ_off_sec, n + 1, "successor offset table")?;
    let succ_flat_sec = raw.require(SectionKind::SpSuccFlat, shard)?;
    let succ_off: TableBuf<u32> = borrow_table(mapping, succ_off_sec);
    let succ_flat: TableBuf<StateId> = borrow_table(mapping, succ_flat_sec);
    check_offsets(&succ_off, succ_flat.len(), "successor offsets")?;
    check_ids(&succ_flat, n, "successor state id")?;

    let sparse_arena_sec = raw.require(SectionKind::SpSparseArena, shard)?;
    let dense_arena_sec = raw.require(SectionKind::SpDenseArena, shard)?;
    let sparse_arena: TableBuf<u16> = borrow_table(mapping, sparse_arena_sec);
    let dense_arena: TableBuf<u64> = borrow_table(mapping, dense_arena_sec);
    if sizes.dense_words != sizes.alphabet.div_ceil(64) {
        return Err(bad("dense arena word width"));
    }

    let codes_sec = raw.require(SectionKind::SpCodes, shard)?;
    require_count(codes_sec, sizes.codes, "code table")?;
    let codes = decode_codes(
        raw,
        codes_sec,
        sizes,
        &sparse_arena,
        dense_arena.len(),
        &sm.encoding_counts,
    )?;

    let sod_sec = raw.require(SectionKind::SpSodStarts, shard)?;
    let sod_starts: TableBuf<StateId> = borrow_table(mapping, sod_sec);
    check_ids(&sod_starts, n, "start-of-data state id")?;

    let start_flat_sec = raw.require(SectionKind::SpStartFlat, shard)?;
    let start_flat: TableBuf<StateId> = borrow_table(mapping, start_flat_sec);
    check_ids(&start_flat, n, "start state id")?;
    let start_index = match sm.start_index_tag {
        0 => {
            if sizes.alphabet > MAX_BUCKETED_ALPHABET {
                return Err(bad("bucketed start index over wide alphabet"));
            }
            let off_sec = raw.require(SectionKind::SpStartOff, shard)?;
            require_count(off_sec, sizes.alphabet + 1, "start offset table")?;
            let off: TableBuf<u32> = borrow_table(mapping, off_sec);
            check_offsets(&off, start_flat.len(), "start offsets")?;
            *borrowed += 1;
            StartIndex::Bucketed {
                off,
                flat: start_flat,
            }
        }
        1 => {
            if sizes.alphabet <= MAX_BUCKETED_ALPHABET {
                return Err(bad("flat start index over narrow alphabet"));
            }
            if raw.find(SectionKind::SpStartOff, shard).is_some() {
                return Err(bad("unexpected start offset table"));
            }
            StartIndex::Flat(start_flat)
        }
        _ => return Err(bad("start index tag")),
    };

    let lut_sec = raw.require(SectionKind::SpStartLut, shard)?;
    require_count(lut_sec, sizes.dense_words, "start LUT")?;
    let start_lut: TableBuf<u64> = borrow_table(mapping, lut_sec);
    if !tail_bits_zero(&start_lut, sizes.alphabet) {
        return Err(bad("start LUT tail"));
    }

    let report_sec = raw.require(SectionKind::SpReportBits, shard)?;
    require_count(report_sec, sizes.state_words, "report bitset")?;
    let report_bits: TableBuf<u64> = borrow_table(mapping, report_sec);
    check_report_bits(&report_bits, shard_nfa, "report bitset")?;

    // succ_off, succ_flat, sparse_arena, dense_arena, sod_starts,
    // start_flat, start_lut, report_bits (SpStartOff counted above).
    *borrowed += 8;

    Ok(SparseTables {
        stride: sizes.stride,
        alphabet: sizes.alphabet,
        start_period: sm.start_period,
        succ_off,
        succ_flat,
        codes,
        sparse_arena,
        dense_arena,
        dense_words: sizes.dense_words,
        sod_starts,
        start_index,
        start_lut,
        report_bits,
        encoding_counts: sm.encoding_counts,
    })
}

/// Loads one shard's dense tables, fully validated.
fn load_dense(
    raw: &RawDb<'_>,
    mapping: &Arc<Mapping>,
    shard: u32,
    sm: &ShardMeta,
    sizes: &ShardSizes,
    shard_nfa: &Nfa,
    borrowed: &mut usize,
) -> Result<DenseTables, ArtifactError> {
    let n = sizes.n;
    let words = to_usize(sm.dn_words, "dense word width")?;
    if words != sizes.state_words {
        return Err(bad("dense word width"));
    }

    let class_of_sec = raw.require(SectionKind::DnClassOf, shard)?;
    let class_map_len = checked_mul(sizes.stride, sizes.alphabet, "class map")?;
    require_count(class_of_sec, class_map_len, "class map")?;
    let class_of: TableBuf<u16> = borrow_table(mapping, class_of_sec);

    let class_off_sec = raw.require(SectionKind::DnClassOff, shard)?;
    require_count(class_off_sec, sizes.stride + 1, "class offset table")?;
    let class_off_raw: TableBuf<u32> = borrow_table(mapping, class_off_sec);
    // Owned copy: DenseTables keeps class_off as a plain Vec (it is tiny
    // — stride + 1 entries).
    let class_off: Vec<u32> = class_off_raw.as_slice().to_vec();
    if class_off.first() != Some(&0) || !class_off.windows(2).all(|w| w[0] <= w[1]) {
        return Err(bad("class offsets"));
    }
    let total_rows = to_usize(
        u64::from(*class_off.last().expect("stride+1 ≥ 1")),
        "class rows",
    )?;

    // Every symbol's class must select an in-range accept row.
    for j in 0..sizes.stride {
        let rows = (class_off[j + 1] - class_off[j]) as usize;
        let row = &class_of[j * sizes.alphabet..(j + 1) * sizes.alphabet];
        if row.iter().any(|&c| usize::from(c) >= rows) {
            return Err(bad("class map entry"));
        }
    }

    let accept_sec = raw.require(SectionKind::DnAccept, shard)?;
    require_count(
        accept_sec,
        checked_mul(total_rows, words, "accept matrix")?,
        "accept matrix",
    )?;
    let accept: TableBuf<u64> = borrow_table(mapping, accept_sec);

    let pad_sec = raw.require(SectionKind::DnPadFull, shard)?;
    require_count(
        pad_sec,
        checked_mul(sizes.stride, words, "padding matrix")?,
        "padding matrix",
    )?;
    let pad_full: TableBuf<u64> = borrow_table(mapping, pad_sec);

    let succ_sec = raw.require(SectionKind::DnSucc, shard)?;
    require_count(
        succ_sec,
        checked_mul(n, words, "successor matrix")?,
        "successor matrix",
    )?;
    let succ: TableBuf<u64> = borrow_table(mapping, succ_sec);

    // Any set bit past the state count becomes a phantom StateId at run
    // time (and a panic inside report delivery), so every row of every
    // state-indexed matrix must have a zero tail.
    for (table, context) in [
        (&accept, "accept matrix tail"),
        (&pad_full, "padding matrix tail"),
        (&succ, "successor matrix tail"),
    ] {
        if words > 0 {
            for row in table.chunks_exact(words) {
                if !tail_bits_zero(row, n) {
                    return Err(bad(context));
                }
            }
        }
    }

    let mut vectors = Vec::new();
    for (kind, context) in [
        (SectionKind::DnHasSucc, "has-successor vector"),
        (SectionKind::DnStartAllinput, "all-input start vector"),
        (SectionKind::DnStartSod, "start-of-data vector"),
        (SectionKind::DnReportMask, "report mask"),
    ] {
        let sec = raw.require(kind, shard)?;
        require_count(sec, words, context)?;
        let table: TableBuf<u64> = borrow_table(mapping, sec);
        if !tail_bits_zero(&table, n) {
            return Err(bad(context));
        }
        vectors.push(table);
    }
    let report_mask = vectors.pop().expect("four vectors");
    let start_sod = vectors.pop().expect("three vectors");
    let start_allinput = vectors.pop().expect("two vectors");
    let has_succ = vectors.pop().expect("one vector");
    check_report_bits(&report_mask, shard_nfa, "report mask")?;

    *borrowed += 8; // class_of, accept, pad_full, succ, and the 4 vectors

    Ok(DenseTables {
        words,
        alphabet: sizes.alphabet,
        stride: sizes.stride,
        class_of,
        class_off,
        accept,
        pad_full,
        succ,
        has_succ,
        start_allinput,
        start_sod,
        report_mask,
        start_period: sm.start_period,
    })
}

/// The full load path: byte validation, metadata decoding, per-shard
/// table assembly, content-hash cross-check.
fn load(mapping: Arc<Mapping>) -> Result<MappedDb, ArtifactError> {
    let raw = validate_bytes(mapping.as_bytes())?;

    // Global metadata and identity.
    let meta_sec = *raw.require(SectionKind::Meta, 0)?;
    let meta = GlobalMeta::from_bytes(raw.payload(&meta_sec))?;
    let config = usize::try_from(meta.config_tag)
        .ok()
        .and_then(|i| PipelineConfig::ALL.get(i).copied())
        .ok_or(bad("pipeline config tag"))?;
    let engine = usize::try_from(meta.engine_tag)
        .ok()
        .and_then(|i| EngineKind::ALL.get(i).copied())
        .ok_or(bad("engine tag"))?;
    let spec = ShardSpec::from_tags(meta.spec_tag, meta.spec_value, meta.oversize_tag)
        .ok_or(bad("sharding spec tags"))?;
    if meta.symbol_bits == 0 || meta.symbol_bits > 16 {
        return Err(bad("symbol width"));
    }
    let map =
        PositionMap::from_per_original(meta.per_original).ok_or(bad("per-original factor"))?;
    if meta.plan_total_states != meta.num_states {
        return Err(bad("plan total states"));
    }
    let shard_count_u64 = meta.shard_count;
    if shard_count_u64 > raw.sections.len() as u64 {
        return Err(bad("shard count exceeds section table"));
    }
    let shard_count = shard_count_u64 as usize;
    for s in &raw.sections {
        if s.kind.is_per_shard() && u64::from(s.shard) >= shard_count_u64 {
            return Err(bad("section shard index out of range"));
        }
    }

    let spec_key_sec = *raw.require(SectionKind::SpecKey, 0)?;
    if utf8_section(&raw, &spec_key_sec)? != spec.key_text() {
        return Err(bad("spec key text"));
    }
    let source_sec = *raw.require(SectionKind::SourceAnml, 0)?;
    let source_anml = utf8_section(&raw, &source_sec)?;

    // Content-hash cross-check: the header key must be reproducible from
    // the embedded identity, or the file describes a different pipeline
    // than it claims (e.g. a stale database after a config change).
    let key = key_of_anml(config, spec, engine, source_anml);
    if key.0 != raw.header.pipeline_key {
        return Err(ArtifactError::StaleHash {
            header: raw.header.pipeline_key,
            computed: key.0,
        });
    }

    // The transformed automaton.
    let nfa_sec = *raw.require(SectionKind::NfaAnml, 0)?;
    let nfa = anml::parse(utf8_section(&raw, &nfa_sec)?)?;
    if nfa.num_states() as u64 != meta.num_states
        || nfa.stride() as u64 != meta.stride
        || u64::from(nfa.symbol_bits()) != meta.symbol_bits
    {
        return Err(bad("transformed automaton metadata"));
    }

    // Per-shard tables.
    let global_n = to_usize(meta.num_states, "state count")?;
    let mut shards = Vec::with_capacity(shard_count);
    let mut tables = Vec::with_capacity(shard_count);
    let mut shard_metas = Vec::with_capacity(shard_count);
    let mut borrowed = 0usize;
    for shard in 0..shard_count as u32 {
        let sm_sec = *raw.require(SectionKind::ShardMeta, shard)?;
        let sm = ShardMeta::from_bytes(raw.payload(&sm_sec))?;
        // Checked size derivation FIRST: forged counts must die here as
        // CountOverflow, not wrap into a later comparison.
        let sizes = ShardSizes::derive(&sm)?;
        if sm.stride != meta.stride {
            return Err(bad("shard stride"));
        }
        if sm.alphabet != 1u64 << meta.symbol_bits {
            return Err(bad("shard alphabet"));
        }
        if sm.oversized > 1 || sm.has_dense > 1 {
            return Err(bad("shard flag"));
        }

        let shard_nfa_sec = *raw.require(SectionKind::ShardNfa, shard)?;
        let shard_nfa = anml::parse(utf8_section(&raw, &shard_nfa_sec)?)?;
        if shard_nfa.num_states() != sizes.n
            || shard_nfa.stride() != sizes.stride
            || u64::from(shard_nfa.symbol_bits()) != meta.symbol_bits
            || u64::from(shard_nfa.start_period()) != sm.start_period
        {
            return Err(bad("shard automaton metadata"));
        }

        let members_sec = raw.require(SectionKind::ShardMembers, shard)?;
        require_count(members_sec, sizes.n, "shard member table")?;
        let members_view: TableBuf<StateId> = borrow_table(&mapping, members_sec);
        if !members_view.windows(2).all(|w| w[0].index() < w[1].index()) {
            return Err(bad("shard member order"));
        }
        check_ids(&members_view, global_n, "shard member id")?;
        let members: Vec<StateId> = members_view.as_slice().to_vec();
        drop(members_view);

        let sparse = load_sparse(
            &raw,
            &mapping,
            shard,
            &sm,
            &sizes,
            &shard_nfa,
            &mut borrowed,
        )?;
        let dense = if sm.has_dense == 1 {
            Some(Arc::new(load_dense(
                &raw,
                &mapping,
                shard,
                &sm,
                &sizes,
                &shard_nfa,
                &mut borrowed,
            )?))
        } else {
            for kind in [
                SectionKind::DnClassOf,
                SectionKind::DnClassOff,
                SectionKind::DnAccept,
                SectionKind::DnPadFull,
                SectionKind::DnSucc,
                SectionKind::DnHasSucc,
                SectionKind::DnStartAllinput,
                SectionKind::DnStartSod,
                SectionKind::DnReportMask,
            ] {
                if raw.find(kind, shard).is_some() {
                    return Err(bad("unexpected dense section"));
                }
            }
            None
        };

        shards.push(Shard {
            members,
            nfa: shard_nfa,
            oversized: sm.oversized == 1,
        });
        tables.push((Arc::new(sparse), dense));
        shard_metas.push(sm);
    }

    let plan = ShardPlan {
        shards,
        ste_budget: to_usize(meta.plan_ste_budget, "plan budget")?,
        total_states: global_n,
    };
    let symbol_bits = meta.symbol_bits as u8;
    let stride = to_usize(meta.stride, "stride")?;
    let sharded = ShardedEngine::from_prebuilt(plan, engine, symbol_bits, stride, tables);

    // Telemetry parity with the in-memory build path, which emits the
    // encoding histogram from SparseTables::build once per shard.
    if sunder_telemetry::enabled() {
        for sm in &shard_metas {
            for (kind, &count) in ENCODING_KINDS.iter().zip(&sm.encoding_counts) {
                if count > 0 {
                    sunder_telemetry::counter_add(
                        "state_encodings_total",
                        &[("kind", kind)],
                        count,
                    );
                }
            }
        }
    }

    let sections = raw
        .sections
        .iter()
        .map(|s| (s.kind, s.shard, s.offset, s.len))
        .collect();
    let file_len = raw.header.file_len as usize;
    let source_anml = source_anml.to_owned();
    drop(raw);

    Ok(MappedDb {
        pipeline: CompiledPipeline {
            key,
            config,
            spec,
            engine,
            source_anml,
            nfa,
            map,
            sharded,
        },
        file_len,
        mmapped: mapping.is_mmapped(),
        sections,
        borrowed_tables: borrowed,
    })
}
