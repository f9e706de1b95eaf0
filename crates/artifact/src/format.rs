//! The `.sdb` on-disk layout: constants, section kinds, and the fixed
//! metadata records.
//!
//! # Format invariants
//!
//! The format is **offset-based and native-endian**: nothing in the file
//! is a pointer, every table is located by a `(offset, len)` pair in the
//! section table, and a 32-bit endianness tag rejects files written on a
//! host with different byte order (the zero-copy loader never swaps).
//!
//! Layout, all offsets in bytes:
//!
//! ```text
//! 0    ┌──────────────────────────────────────────────┐
//!      │ header (64 bytes, fixed)                     │
//! 64   ├──────────────────────────────────────────────┤
//!      │ section table: section_count × 24 bytes,     │
//!      │ each (kind: u32, zero: u32, offset, len: u64)│
//!      ├──────────────────────────────────────────────┤
//!      │ payload sections, each 8-byte aligned,       │
//!      │ non-overlapping, zero-padded gaps            │
//! len  └──────────────────────────────────────────────┘
//! ```
//!
//! The file holds only what the loader cannot derive: the source ANML
//! (hashed for the key), the [`GlobalMeta`] record, the sharding-spec key
//! text, and the one sparse table set the engine runs from. Those tables
//! are the executable automaton, stored once: the loader rebuilds the
//! transformed `Nfa` from them (`SparseTables::to_nfa`) and parses no
//! text. The shard placement plan is re-derived at load from the stored
//! spec (`ShardSpec::plan` over the rebuilt automaton, exactly as the
//! compile path does); dense tables are built on first use.
//!
//! The sparse sections, in write order: CSR successors (`SpSuccOff`,
//! `SpSuccFlat`), one [`CodeRec`] per state × stride position
//! (`SpCodes`) over the `SpSparseArena` / `SpDenseArena` charset arenas,
//! the start-of-data starts (`SpSodStarts`), the all-input start index
//! (`SpStartOff` when bucketed, `SpStartFlat`), the start LUT
//! (`SpStartLut`), and CSR reports (`SpReportOff`, `SpReportFlat`).
//!
//! Invariants the validator enforces *before any table slice is formed*:
//!
//! * `len ≥ 64`; magic, version, and endianness tag match; reserved
//!   header bytes are zero; `header.file_len == len`.
//! * `fnv1a(bytes[64..]) == header.checksum` — every payload byte,
//!   including the section table and inter-section padding, is covered.
//! * `section_count ≤ SectionKind::ALL.len()` (each kind appears at most
//!   once, so a longer table is malformed before any entry is read) and
//!   `64 + section_count × 24 ≤ len`.
//! * Every section: known kind, zero padding word, offset `≥` table end
//!   and ≡ 0 (mod 8), `offset + len ≤ len` (checked), kind unique, and
//!   no two sections overlap (zero-length sections may touch).
//! * All `count × stride`-style size computations downstream use checked
//!   multiplication and fail with a typed error, never wrap.
//!
//! Before the rebuild the loader also rejects, as `BadValue`, what the
//! automaton could not hold: a code symbol outside the alphabet, a report
//! offset at or past the stride, a state listing one successor twice.
//! After it, the tables must be what the rebuilt automaton gives: only a
//! full charset has the full code, and the start tables are exactly the
//! ones its start kinds and first charsets lay out.
//!
//! # Versioning policy
//!
//! `VERSION` is bumped on **any** layout change — there are no in-place
//! extensions. Readers reject any version other than their own; writers
//! only ever emit the current version. The 16 reserved header bytes must
//! be zero, so they cannot be reused later without a version bump being
//! detected by old readers.
//!
//! Version 4 stores the executable automaton once, as the sparse tables,
//! with each state's reports in a CSR pair (tags 23, 24). Version 3 also
//! held it as ANML text (tag 4), parsed at every open, kept only a
//! reporting-state bitset (tag 22), reading the reports from the parsed
//! automaton, and stored the start-index layout as a 17th metadata field;
//! retired tags are never reused. Version 2 also stored the placement
//! plan (one `u32` member table per shard, tagged with a shard index in
//! the section table, plus an oversized-flag array, cover-checked at
//! load) and, once built, nine dense-engine tables. Version 1 stored a
//! sub-automaton, a metadata record and a table set per shard.

use crate::error::ArtifactError;

/// Magic bytes at offset 0.
pub const MAGIC: [u8; 8] = *b"SUNDERDB";
/// Current (and only) format version.
pub const VERSION: u32 = 4;
/// Endianness tag as written by the producing host. A reader on a host
/// with different byte order sees these bytes permuted and rejects.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;
/// Section-table entry size in bytes.
pub const SECTION_ENTRY_LEN: usize = 24;
/// Required alignment of every payload section.
pub const SECTION_ALIGN: usize = 8;
/// Serialized size of [`GlobalMeta`] (16 × u64).
pub const GLOBAL_META_LEN: usize = 128;

/// Byte offsets of the fixed header fields.
pub mod header_offset {
    /// `[u8; 8]` magic.
    pub const MAGIC: usize = 0;
    /// `u32` format version.
    pub const VERSION: usize = 8;
    /// `u32` endianness tag.
    pub const ENDIAN: usize = 12;
    /// `u64` pipeline content key.
    pub const PIPELINE_KEY: usize = 16;
    /// `u64` FNV-1a checksum of `bytes[64..]`.
    pub const CHECKSUM: usize = 24;
    /// `u64` total file length.
    pub const FILE_LEN: usize = 32;
    /// `u32` section count.
    pub const SECTION_COUNT: usize = 40;
    /// `u32` header length (always 64).
    pub const HEADER_LEN: usize = 44;
    /// `[u8; 16]` reserved, must be zero.
    pub const RESERVED: usize = 48;
}

/// Every section kind, with its stable on-disk tag. Each kind appears
/// at most once; sparse-engine tables are tagged 13 and up. Retired tags
/// (4, 22) are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u32)]
pub enum SectionKind {
    /// Canonical ANML text of the *source* (untransformed) automaton.
    SourceAnml = 1,
    /// [`GlobalMeta`], exactly [`GLOBAL_META_LEN`] bytes.
    Meta = 2,
    /// The sharding-spec key text (cross-checked against the tags in
    /// [`GlobalMeta`]).
    SpecKey = 3,
    /// Sparse CSR successor offsets (`u32`, `num_states + 1`).
    SpSuccOff = 13,
    /// Sparse CSR successor arena (`u32` state ids).
    SpSuccFlat = 14,
    /// Packed [`CodeRec`]s, `num_states × stride` of them.
    SpCodes = 15,
    /// Sorted-symbol arena (`u16`) for sparse-list codes.
    SpSparseArena = 16,
    /// Bitset arena (`u64`) for dense codes.
    SpDenseArena = 17,
    /// Start-of-data start states (`u32`).
    SpSodStarts = 18,
    /// Bucketed start-index offsets (`u32`, `alphabet + 1`); present iff
    /// the start index is bucketed.
    SpStartOff = 19,
    /// Start-index states (`u32`): bucket contents when bucketed, the
    /// flat all-input list otherwise.
    SpStartFlat = 20,
    /// Start prefilter LUT (`u64`, one bit per symbol).
    SpStartLut = 21,
    /// Sparse CSR report offsets (`u32`, `num_states + 1`).
    SpReportOff = 23,
    /// Sparse CSR report arena: one `(id: u32, offset: u32)` record per
    /// report.
    SpReportFlat = 24,
}

impl SectionKind {
    /// Every kind, in tag order.
    pub const ALL: [SectionKind; 14] = [
        SectionKind::SourceAnml,
        SectionKind::Meta,
        SectionKind::SpecKey,
        SectionKind::SpSuccOff,
        SectionKind::SpSuccFlat,
        SectionKind::SpCodes,
        SectionKind::SpSparseArena,
        SectionKind::SpDenseArena,
        SectionKind::SpSodStarts,
        SectionKind::SpStartOff,
        SectionKind::SpStartFlat,
        SectionKind::SpStartLut,
        SectionKind::SpReportOff,
        SectionKind::SpReportFlat,
    ];

    /// The on-disk tag.
    pub fn tag(self) -> u32 {
        self as u32
    }

    /// Resolves an on-disk tag.
    pub fn from_tag(tag: u32) -> Option<SectionKind> {
        SectionKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Element size in bytes; byte lengths must be a multiple of this.
    pub fn elem_size(self) -> usize {
        match self {
            SectionKind::SourceAnml | SectionKind::Meta | SectionKind::SpecKey => 1,
            SectionKind::SpSparseArena => 2,
            SectionKind::SpSuccOff
            | SectionKind::SpSuccFlat
            | SectionKind::SpSodStarts
            | SectionKind::SpStartOff
            | SectionKind::SpStartFlat
            | SectionKind::SpReportOff => 4,
            SectionKind::SpCodes
            | SectionKind::SpDenseArena
            | SectionKind::SpStartLut
            | SectionKind::SpReportFlat => 8,
        }
    }
}

/// Reads a `u16` at `offset`; the caller guarantees bounds.
pub fn read_u16(bytes: &[u8], offset: usize) -> u16 {
    u16::from_ne_bytes(bytes[offset..offset + 2].try_into().expect("two bytes"))
}

/// Reads a `u32` at `offset`; the caller guarantees bounds.
pub fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    u32::from_ne_bytes(bytes[offset..offset + 4].try_into().expect("four bytes"))
}

/// Reads a `u64` at `offset`; the caller guarantees bounds.
pub fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    u64::from_ne_bytes(bytes[offset..offset + 8].try_into().expect("eight bytes"))
}

/// Global pipeline and table metadata — the [`SectionKind::Meta`]
/// payload, stored as 16 native-endian `u64`s in field order.
///
/// Invariants: the three `*_tag` fields index the corresponding `ALL`
/// arrays ([`sunder_transform::PipelineConfig::ALL`],
/// `sunder_sim::EngineKind::ALL`, and the
/// [`sunder_automata::partition::ShardSpec::tags`] space);
/// `per_original ≥ 1`; `num_states`, `stride`, `symbol_bits` and
/// `start_period` describe the transformed automaton the tables hold
/// (stride and start period at least 1). The start index is bucketed,
/// with a [`SectionKind::SpStartOff`] section, exactly when the alphabet
/// fits the bucketed bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalMeta {
    /// Index into `PipelineConfig::ALL`.
    pub config_tag: u64,
    /// Index into `EngineKind::ALL`.
    pub engine_tag: u64,
    /// Sharding-spec discriminant (0 = max-shards, 1 = budget).
    pub spec_tag: u64,
    /// Shard count bound or STE budget, per `spec_tag`.
    pub spec_value: u64,
    /// Oversize policy (0 = error, 1 = dedicate); meaningful for budget
    /// specs, must be 0 otherwise.
    pub oversize_tag: u64,
    /// Symbol width of the transformed automaton in bits.
    pub symbol_bits: u64,
    /// Stride of the transformed automaton.
    pub stride: u64,
    /// Transformed symbols per original symbol (the position map).
    pub per_original: u64,
    /// States in the transformed automaton.
    pub num_states: u64,
    /// The transformed automaton's start period.
    pub start_period: u64,
    /// Charset-encoding histogram, index-aligned with
    /// `sunder_sim::fastpath::ENCODING_KINDS`.
    pub encoding_counts: [u64; 6],
}

impl GlobalMeta {
    /// Serializes in field order.
    pub fn to_bytes(&self) -> [u8; GLOBAL_META_LEN] {
        let mut out = [0u8; GLOBAL_META_LEN];
        for (i, v) in self.fields().into_iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&v.to_ne_bytes());
        }
        out
    }

    /// Parses a [`SectionKind::Meta`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::CountMismatch`] unless the payload is
    /// exactly [`GLOBAL_META_LEN`] bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<GlobalMeta, ArtifactError> {
        if bytes.len() != GLOBAL_META_LEN {
            return Err(ArtifactError::CountMismatch {
                context: "global metadata record",
            });
        }
        let f = |i: usize| read_u64(bytes, i * 8);
        Ok(GlobalMeta {
            config_tag: f(0),
            engine_tag: f(1),
            spec_tag: f(2),
            spec_value: f(3),
            oversize_tag: f(4),
            symbol_bits: f(5),
            stride: f(6),
            per_original: f(7),
            num_states: f(8),
            start_period: f(9),
            encoding_counts: std::array::from_fn(|i| f(10 + i)),
        })
    }

    fn fields(&self) -> [u64; GLOBAL_META_LEN / 8] {
        let mut out = [0u64; GLOBAL_META_LEN / 8];
        out[..10].copy_from_slice(&[
            self.config_tag,
            self.engine_tag,
            self.spec_tag,
            self.spec_value,
            self.oversize_tag,
            self.symbol_bits,
            self.stride,
            self.per_original,
            self.num_states,
            self.start_period,
        ]);
        out[10..].copy_from_slice(&self.encoding_counts);
        out
    }
}

/// One packed charset code — the 8-byte [`SectionKind::SpCodes`]
/// element: `tag: u16, a: u16, b: u32`.
///
/// Packing: empty = (0,0,0); one(s) = (1,s,0); range lo..=hi = (2,lo,hi);
/// sparse off/len = (3,len,off); dense off = (4,0,off); full = (5,0,0).
/// Unused fields must be zero (the loader rejects nonzero garbage so a
/// re-serialization round-trips bit-identically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeRec {
    /// Encoding kind, index-aligned with
    /// `sunder_sim::fastpath::ENCODING_KINDS`.
    pub tag: u16,
    /// First operand (symbol, range low, or sparse length).
    pub a: u16,
    /// Second operand (range high, or arena offset).
    pub b: u32,
}

impl CodeRec {
    /// Serializes in field order.
    pub fn to_bytes(&self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0..2].copy_from_slice(&self.tag.to_ne_bytes());
        out[2..4].copy_from_slice(&self.a.to_ne_bytes());
        out[4..8].copy_from_slice(&self.b.to_ne_bytes());
        out
    }

    /// Reads the record at element index `idx` of a code section.
    pub fn from_bytes(bytes: &[u8], idx: usize) -> CodeRec {
        let base = idx * 8;
        CodeRec {
            tag: read_u16(bytes, base),
            a: read_u16(bytes, base + 2),
            b: read_u32(bytes, base + 4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_tags_round_trip() {
        for kind in SectionKind::ALL {
            assert_eq!(SectionKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(SectionKind::from_tag(0), None);
        assert_eq!(SectionKind::from_tag(99), None);
    }

    #[test]
    fn global_meta_round_trips() {
        let meta = GlobalMeta {
            config_tag: 2,
            engine_tag: 1,
            spec_tag: 1,
            spec_value: 256,
            oversize_tag: 1,
            symbol_bits: 4,
            stride: 2,
            per_original: 2,
            num_states: 77,
            start_period: 2,
            encoding_counts: [1, 2, 3, 4, 5, 6],
        };
        assert_eq!(GlobalMeta::from_bytes(&meta.to_bytes()).unwrap(), meta);
        assert!(GlobalMeta::from_bytes(&[0u8; GLOBAL_META_LEN - 1]).is_err());
    }

    #[test]
    fn code_records_round_trip() {
        let recs = [
            CodeRec { tag: 0, a: 0, b: 0 },
            CodeRec {
                tag: 2,
                a: 7,
                b: 19,
            },
            CodeRec {
                tag: 3,
                a: 4,
                b: u32::MAX,
            },
        ];
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.to_bytes());
        }
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(CodeRec::from_bytes(&bytes, i), *r);
        }
    }
}
