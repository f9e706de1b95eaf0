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
//!   (`u16`/`u32`/`u64`, `StateId`, which is `#[repr(transparent)]` over
//!   `u32`, and `ReportRec`, two `u32`s under `#[repr(C)]`);
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

use sunder_automata::partition::ShardSpec;
use sunder_automata::{Nfa, StateId};
use sunder_sim::fastpath::{
    emit_encoding_counts, start_tables, ReportRec, SparseTables, StartIndex, SymCode,
};
use sunder_sim::{EngineKind, ShardedEngine, TableBuf};
use sunder_transform::{PipelineConfig, PositionMap};

use crate::error::ArtifactError;
use crate::format::{CodeRec, GlobalMeta, SectionKind};
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
// SAFETY: ReportRec is #[repr(C)] over two u32s: no padding, and any
// bits are a valid value.
unsafe impl Pod for ReportRec {}

/// Borrows the section of `kind`, which the format requires.
fn borrow_required<T: Pod>(
    raw: &RawDb<'_>,
    mapping: &Arc<Mapping>,
    kind: SectionKind,
) -> Result<TableBuf<T>, ArtifactError> {
    Ok(borrow_table(mapping, raw.require(kind)?))
}

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

/// Requires `len` elements where the format fixes the count.
fn require_count(len: usize, expected: usize, context: &'static str) -> Result<(), ArtifactError> {
    if len != expected {
        return Err(ArtifactError::CountMismatch { context });
    }
    Ok(())
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
    sections: Vec<(SectionKind, usize, usize)>,
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

    /// `(kind, offset, len)` of every section, in table order — the
    /// `inspect-db` listing.
    pub fn sections(&self) -> &[(SectionKind, usize, usize)] {
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

/// Table sizes derived from the metadata with checked arithmetic
/// *before* any cross-check, so forged counts fail as
/// [`ArtifactError::CountOverflow`] rather than wrapping.
struct TableSizes {
    n: usize,
    stride: usize,
    alphabet: usize,
    dense_words: usize,
    codes: usize,
}

impl TableSizes {
    fn derive(meta: &GlobalMeta) -> Result<TableSizes, ArtifactError> {
        if meta.symbol_bits == 0 || meta.symbol_bits > 16 {
            return Err(bad("symbol width"));
        }
        if meta.stride == 0 {
            return Err(bad("stride"));
        }
        if meta.start_period == 0 || meta.start_period > u64::from(u32::MAX) {
            return Err(bad("start period"));
        }
        let n = to_usize(meta.num_states, "state count")?;
        let stride = to_usize(meta.stride, "stride")?;
        let alphabet = 1usize << meta.symbol_bits;
        let codes = checked_mul(n, stride, "code table")?;
        // Guard the +1s and ×8s downstream in one place.
        checked_mul(codes, 8, "code table bytes")?;
        n.checked_add(1).ok_or(ArtifactError::CountOverflow {
            context: "offset table",
        })?;
        Ok(TableSizes {
            n,
            stride,
            alphabet,
            dense_words: alphabet.div_ceil(64),
            codes,
        })
    }
}

fn bad(context: &'static str) -> ArtifactError {
    ArtifactError::BadValue { context }
}

/// Decodes and bounds-checks the code table against its arenas.
fn decode_codes(
    raw: &RawDb<'_>,
    sizes: &TableSizes,
    sparse_arena: &[u16],
    dense_arena: &[u64],
    expected_counts: &[u64; 6],
) -> Result<Vec<SymCode>, ArtifactError> {
    let codes_sec = raw.require(SectionKind::SpCodes)?;
    require_count(codes_sec.len / 8, sizes.codes, "code table")?;
    let bytes = raw.payload(codes_sec);
    let mut codes = Vec::with_capacity(sizes.codes);
    let mut counts = [0u64; 6];
    for i in 0..sizes.codes {
        let rec = CodeRec::from_bytes(bytes, i);
        let in_alphabet = |sym: u16| usize::from(sym) < sizes.alphabet;
        let code = match rec.tag {
            0 if rec.a == 0 && rec.b == 0 => SymCode::Empty,
            1 if rec.b == 0 && in_alphabet(rec.a) => SymCode::One(rec.a),
            2 => {
                let hi = u16::try_from(rec.b)
                    .ok()
                    .filter(|&hi| in_alphabet(hi))
                    .ok_or(bad("range code bound"))?;
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
                let run = &sparse_arena[off..end];
                let ascending = run.windows(2).all(|w| w[0] < w[1]);
                if !ascending || !run.last().is_none_or(|&sym| in_alphabet(sym)) {
                    return Err(bad("sparse arena run"));
                }
                SymCode::Sparse {
                    off: rec.b,
                    len: rec.a,
                }
            }
            4 if rec.a == 0 => {
                let off = rec.b as usize;
                off.checked_add(sizes.dense_words)
                    .filter(|&e| e <= dense_arena.len())
                    .ok_or(bad("dense code range"))?;
                // Only a one-word alphabet leaves bits past its end.
                if sizes.alphabet < 64 && dense_arena[off] >> sizes.alphabet != 0 {
                    return Err(bad("dense code symbol"));
                }
                SymCode::Dense { off: rec.b }
            }
            5 if rec.a == 0 && rec.b == 0 => SymCode::Full,
            0 | 1 | 4 => return Err(bad("code operand")),
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
    let monotone = off.windows(2).all(|w| w[0] <= w[1]);
    if off.first() != Some(&0) || !monotone || off.last().map(|&l| l as usize) != Some(total) {
        return Err(bad(context));
    }
    Ok(())
}

/// Validates a CSR successor table: no state lists a successor twice.
/// `Nfa::add_edge` drops a repeat, so the rebuilt automaton would no
/// longer be the tables.
fn check_distinct_successors(off: &[u32], flat: &[StateId]) -> Result<(), ArtifactError> {
    let mut listed_by = vec![usize::MAX; off.len() - 1];
    for (from, w) in off.windows(2).enumerate() {
        for to in &flat[w[0] as usize..w[1] as usize] {
            if std::mem::replace(&mut listed_by[to.index()], from) == from {
                return Err(bad("duplicate successor"));
            }
        }
    }
    Ok(())
}

/// Checks the tables against the automaton rebuilt from them, where only
/// the rebuild shows a difference: a padding position matches only the
/// full code as it matches only a full charset, and the start tables are
/// the ones the start kinds and first charsets give.
fn check_rebuilt(tables: &SparseTables, nfa: &Nfa) -> Result<(), ArtifactError> {
    let charsets = nfa.states().flat_map(|(_, ste)| ste.charsets());
    if charsets
        .zip(&tables.codes)
        .any(|(cs, &code)| cs.is_full() != (code == SymCode::Full))
    {
        return Err(bad("full charset under a partial code"));
    }
    let (sod, index, lut) = start_tables(nfa);
    if sod != tables.sod_starts || index != tables.start_index || lut != tables.start_lut {
        return Err(bad("start tables"));
    }
    Ok(())
}

/// Loads the sparse tables, validated as far as they go on their own:
/// what the automaton rebuilt from them could not hold is rejected here,
/// the rest by [`check_rebuilt`].
fn load_sparse(
    raw: &RawDb<'_>,
    mapping: &Arc<Mapping>,
    meta: &GlobalMeta,
    sizes: &TableSizes,
) -> Result<SparseTables, ArtifactError> {
    let n = sizes.n;
    let succ_off: TableBuf<u32> = borrow_required(raw, mapping, SectionKind::SpSuccOff)?;
    let succ_flat: TableBuf<StateId> = borrow_required(raw, mapping, SectionKind::SpSuccFlat)?;
    require_count(succ_off.len(), n + 1, "successor offset table")?;
    check_offsets(&succ_off, succ_flat.len(), "successor offsets")?;
    check_ids(&succ_flat, n, "successor state id")?;
    check_distinct_successors(&succ_off, &succ_flat)?;

    let sparse_arena: TableBuf<u16> = borrow_required(raw, mapping, SectionKind::SpSparseArena)?;
    let dense_arena: TableBuf<u64> = borrow_required(raw, mapping, SectionKind::SpDenseArena)?;
    let counts = &meta.encoding_counts;
    let codes = decode_codes(raw, sizes, &sparse_arena, &dense_arena, counts)?;

    // The start tables are checked whole against the rebuilt automaton.
    let sod_starts: TableBuf<StateId> = borrow_required(raw, mapping, SectionKind::SpSodStarts)?;
    let start_flat: TableBuf<StateId> = borrow_required(raw, mapping, SectionKind::SpStartFlat)?;
    check_ids(&sod_starts, n, "start-of-data state id")?;
    check_ids(&start_flat, n, "start state id")?;
    let start_index = match raw.find(SectionKind::SpStartOff) {
        Some(off) => StartIndex::Bucketed {
            off: borrow_table(mapping, off),
            flat: start_flat,
        },
        None => StartIndex::Flat(start_flat),
    };

    let report_off: TableBuf<u32> = borrow_required(raw, mapping, SectionKind::SpReportOff)?;
    let report_flat: TableBuf<ReportRec> =
        borrow_required(raw, mapping, SectionKind::SpReportFlat)?;
    require_count(report_off.len(), n + 1, "report offset table")?;
    check_offsets(&report_off, report_flat.len(), "report offsets")?;
    // `ReportInfo` holds the offset in a byte; `Nfa::add_state` panics on
    // one at or past the stride.
    let offsets = sizes.stride.min(1 << u8::BITS);
    if report_flat.iter().any(|r| r.offset as usize >= offsets) {
        return Err(bad("report offset"));
    }

    Ok(SparseTables {
        stride: sizes.stride,
        alphabet: sizes.alphabet,
        start_period: meta.start_period,
        succ_off,
        succ_flat,
        codes,
        sparse_arena,
        dense_arena,
        dense_words: sizes.dense_words,
        sod_starts,
        start_index,
        start_lut: borrow_required(raw, mapping, SectionKind::SpStartLut)?,
        report_off,
        report_flat,
        encoding_counts: meta.encoding_counts,
    })
}

/// The full load path: byte validation, metadata decoding, content-hash
/// cross-check, table assembly, plan derivation.
fn load(mapping: Arc<Mapping>) -> Result<MappedDb, ArtifactError> {
    let raw = validate_bytes(mapping.as_bytes())?;

    // Global metadata and identity. Checked size derivation FIRST:
    // forged counts must die here as CountOverflow, not wrap into a later
    // comparison.
    let meta_sec = *raw.require(SectionKind::Meta)?;
    let meta = GlobalMeta::from_bytes(raw.payload(&meta_sec))?;
    let sizes = TableSizes::derive(&meta)?;
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
    let map =
        PositionMap::from_per_original(meta.per_original).ok_or(bad("per-original factor"))?;

    let spec_key_sec = *raw.require(SectionKind::SpecKey)?;
    if utf8_section(&raw, &spec_key_sec)? != spec.key_text() {
        return Err(bad("spec key text"));
    }
    let source_sec = *raw.require(SectionKind::SourceAnml)?;
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

    // The one table set the engine runs from, and the transformed
    // automaton rebuilt from it.
    let sparse = load_sparse(&raw, &mapping, &meta, &sizes)?;
    let nfa = sparse.to_nfa();
    check_rebuilt(&sparse, &nfa)?;
    // Every table but the decoded codes borrows from the mapping.
    let borrowed = 9 + usize::from(matches!(sparse.start_index, StartIndex::Bucketed { .. }));

    // The placement plan, derived from the stored spec exactly as
    // `CompiledPipeline::compile` derives it.
    let plan = spec.plan(&nfa)?;

    // Telemetry parity with the in-memory build path.
    emit_encoding_counts(&meta.encoding_counts);

    let sections = raw
        .sections
        .iter()
        .map(|s| (s.kind, s.offset, s.len))
        .collect();
    let file_len = raw.header.file_len as usize;
    let source_anml = source_anml.to_owned();
    drop(raw);

    let nfa = Arc::new(nfa);
    let sharded = ShardedEngine::from_prebuilt(Arc::clone(&nfa), plan, engine, Arc::new(sparse));
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
