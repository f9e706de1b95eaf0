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
//!      │ section table: section_count × 24 bytes      │
//!      ├──────────────────────────────────────────────┤
//!      │ payload sections, each 8-byte aligned,       │
//!      │ non-overlapping, zero-padded gaps            │
//! len  └──────────────────────────────────────────────┘
//! ```
//!
//! Invariants the validator enforces *before any table slice is formed*:
//!
//! * `len ≥ 64`; magic, version, and endianness tag match; reserved
//!   header bytes are zero; `header.file_len == len`.
//! * `fnv1a(bytes[64..]) == header.checksum` — every payload byte,
//!   including the section table and inter-section padding, is covered.
//! * `64 + section_count × 24 ≤ len` (checked arithmetic).
//! * Every section: known kind, offset `≥` table end and ≡ 0 (mod 8),
//!   `offset + len ≤ len` (checked), `(kind, shard)` unique, and no two
//!   sections overlap (zero-length sections may touch).
//! * All `count × stride`-style size computations downstream use checked
//!   multiplication and fail with a typed error, never wrap.
//!
//! # Versioning policy
//!
//! `VERSION` is bumped on **any** layout change — there are no in-place
//! extensions. Readers reject any version other than their own; writers
//! only ever emit the current version. The 16 reserved header bytes must
//! be zero under version 1, so they cannot be reused later without a
//! version bump being detected by old readers.

use crate::error::ArtifactError;

/// Magic bytes at offset 0.
pub const MAGIC: [u8; 8] = *b"SUNDERDB";
/// Current (and only) format version.
pub const VERSION: u32 = 1;
/// Endianness tag as written by the producing host. A reader on a host
/// with different byte order sees these bytes permuted and rejects.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 64;
/// Section-table entry size in bytes.
pub const SECTION_ENTRY_LEN: usize = 24;
/// Required alignment of every payload section.
pub const SECTION_ALIGN: usize = 8;
/// Serialized size of [`GlobalMeta`] (12 × u64).
pub const GLOBAL_META_LEN: usize = 96;
/// Serialized size of [`ShardMeta`] (15 × u64).
pub const SHARD_META_LEN: usize = 120;

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

/// Every section kind, with its stable on-disk tag.
///
/// Kinds below 10 are global (their `shard` field must be 0); kinds 10+
/// are per-shard. Sparse-engine tables use the 1x range, dense-engine
/// tables the 3x range.
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
    /// Canonical ANML text of the transformed (executable) automaton.
    NfaAnml = 4,
    /// Canonical ANML text of one shard's sub-automaton.
    ShardNfa = 10,
    /// [`ShardMeta`], exactly [`SHARD_META_LEN`] bytes.
    ShardMeta = 11,
    /// `u32` original state id per shard-local state, ascending.
    ShardMembers = 12,
    /// Sparse CSR successor offsets (`u32`, `num_states + 1`).
    SpSuccOff = 13,
    /// Sparse CSR successor arena (`u32` shard-local state ids).
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
    /// Reporting-state bitset (`u64`, one bit per state).
    SpReportBits = 22,
    /// Dense symbol→class map (`u16`, `stride × alphabet`).
    DnClassOf = 30,
    /// Dense accept-row offsets per position (`u32`, `stride + 1`).
    DnClassOff = 31,
    /// Dense accept matrix (`u64`, `total_rows × words`).
    DnAccept = 32,
    /// Dense padding don't-care rows (`u64`, `stride × words`).
    DnPadFull = 33,
    /// Dense successor matrix (`u64`, `num_states × words`).
    DnSucc = 34,
    /// Dense has-successor vector (`u64`, `words`).
    DnHasSucc = 35,
    /// Dense all-input start vector (`u64`, `words`).
    DnStartAllinput = 36,
    /// Dense start-of-data vector (`u64`, `words`).
    DnStartSod = 37,
    /// Dense reporting-state vector (`u64`, `words`).
    DnReportMask = 38,
}

impl SectionKind {
    /// Every kind, in tag order.
    pub const ALL: [SectionKind; 26] = [
        SectionKind::SourceAnml,
        SectionKind::Meta,
        SectionKind::SpecKey,
        SectionKind::NfaAnml,
        SectionKind::ShardNfa,
        SectionKind::ShardMeta,
        SectionKind::ShardMembers,
        SectionKind::SpSuccOff,
        SectionKind::SpSuccFlat,
        SectionKind::SpCodes,
        SectionKind::SpSparseArena,
        SectionKind::SpDenseArena,
        SectionKind::SpSodStarts,
        SectionKind::SpStartOff,
        SectionKind::SpStartFlat,
        SectionKind::SpStartLut,
        SectionKind::SpReportBits,
        SectionKind::DnClassOf,
        SectionKind::DnClassOff,
        SectionKind::DnAccept,
        SectionKind::DnPadFull,
        SectionKind::DnSucc,
        SectionKind::DnHasSucc,
        SectionKind::DnStartAllinput,
        SectionKind::DnStartSod,
        SectionKind::DnReportMask,
    ];

    /// The on-disk tag.
    pub fn tag(self) -> u32 {
        self as u32
    }

    /// Resolves an on-disk tag.
    pub fn from_tag(tag: u32) -> Option<SectionKind> {
        SectionKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// `true` for kinds that carry a meaningful shard index.
    pub fn is_per_shard(self) -> bool {
        self.tag() >= 10
    }

    /// Element size in bytes; byte lengths must be a multiple of this.
    pub fn elem_size(self) -> usize {
        match self {
            SectionKind::SourceAnml
            | SectionKind::Meta
            | SectionKind::SpecKey
            | SectionKind::NfaAnml
            | SectionKind::ShardNfa
            | SectionKind::ShardMeta => 1,
            SectionKind::SpSparseArena | SectionKind::DnClassOf => 2,
            SectionKind::ShardMembers
            | SectionKind::SpSuccOff
            | SectionKind::SpSuccFlat
            | SectionKind::SpSodStarts
            | SectionKind::SpStartOff
            | SectionKind::SpStartFlat
            | SectionKind::DnClassOff => 4,
            SectionKind::SpCodes
            | SectionKind::SpDenseArena
            | SectionKind::SpStartLut
            | SectionKind::SpReportBits
            | SectionKind::DnAccept
            | SectionKind::DnPadFull
            | SectionKind::DnSucc
            | SectionKind::DnHasSucc
            | SectionKind::DnStartAllinput
            | SectionKind::DnStartSod
            | SectionKind::DnReportMask => 8,
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

/// Global pipeline metadata — the [`SectionKind::Meta`] payload, stored
/// as 12 native-endian `u64`s in field order.
///
/// Invariants: the three `*_tag` fields index the corresponding `ALL`
/// arrays ([`sunder_transform::PipelineConfig::ALL`],
/// `sunder_sim::EngineKind::ALL`, and the
/// [`sunder_automata::partition::ShardSpec::tags`] space);
/// `per_original ≥ 1`; `plan_total_states == num_states`; every
/// per-shard section's shard index is `< shard_count`.
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
    /// Number of shards (and of each per-shard section).
    pub shard_count: u64,
    /// Symbol width of the transformed automaton in bits.
    pub symbol_bits: u64,
    /// Stride of the transformed automaton.
    pub stride: u64,
    /// Transformed symbols per original symbol (the position map).
    pub per_original: u64,
    /// States in the transformed automaton.
    pub num_states: u64,
    /// The plan's recorded STE budget.
    pub plan_ste_budget: u64,
    /// The plan's recorded total state count (must equal `num_states`).
    pub plan_total_states: u64,
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
            shard_count: f(5),
            symbol_bits: f(6),
            stride: f(7),
            per_original: f(8),
            num_states: f(9),
            plan_ste_budget: f(10),
            plan_total_states: f(11),
        })
    }

    fn fields(&self) -> [u64; 12] {
        [
            self.config_tag,
            self.engine_tag,
            self.spec_tag,
            self.spec_value,
            self.oversize_tag,
            self.shard_count,
            self.symbol_bits,
            self.stride,
            self.per_original,
            self.num_states,
            self.plan_ste_budget,
            self.plan_total_states,
        ]
    }
}

/// Per-shard metadata — the [`SectionKind::ShardMeta`] payload, stored
/// as 15 native-endian `u64`s in field order.
///
/// Invariants: `stride`, and `alphabet == 1 << symbol_bits` must match
/// the global record; `num_states` equals the shard sub-automaton's
/// state count and the member-table length; `dense_words ==
/// ceil(alphabet / 64)`; `start_index_tag` is 0 (bucketed — requires a
/// [`SectionKind::SpStartOff`] section) exactly when the alphabet fits
/// the bucketed bound, 1 (flat) otherwise; `has_dense` gates the nine
/// `Dn*` sections; `dn_words == ceil(num_states / 64)` when dense
/// tables are present, 0 otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMeta {
    /// States in this shard's sub-automaton.
    pub num_states: u64,
    /// Stride (must equal the global stride).
    pub stride: u64,
    /// Alphabet size (`1 << symbol_bits`).
    pub alphabet: u64,
    /// The sub-automaton's start period.
    pub start_period: u64,
    /// Words per dense-arena bitset (`ceil(alphabet / 64)`).
    pub dense_words: u64,
    /// Start-index layout (0 = bucketed, 1 = flat).
    pub start_index_tag: u64,
    /// 1 when the shard holds an oversized (dedicated) component.
    pub oversized: u64,
    /// 1 when the nine dense-table sections are present.
    pub has_dense: u64,
    /// Charset-encoding histogram, index-aligned with
    /// `sunder_sim::fastpath::ENCODING_KINDS`.
    pub encoding_counts: [u64; 6],
    /// Words per dense state vector (`ceil(num_states / 64)`), 0 when
    /// `has_dense` is 0.
    pub dn_words: u64,
}

impl ShardMeta {
    /// Serializes in field order.
    pub fn to_bytes(&self) -> [u8; SHARD_META_LEN] {
        let mut out = [0u8; SHARD_META_LEN];
        let mut fields = vec![
            self.num_states,
            self.stride,
            self.alphabet,
            self.start_period,
            self.dense_words,
            self.start_index_tag,
            self.oversized,
            self.has_dense,
        ];
        fields.extend_from_slice(&self.encoding_counts);
        fields.push(self.dn_words);
        for (i, v) in fields.into_iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&v.to_ne_bytes());
        }
        out
    }

    /// Parses a [`SectionKind::ShardMeta`] payload.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::CountMismatch`] unless the payload is
    /// exactly [`SHARD_META_LEN`] bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardMeta, ArtifactError> {
        if bytes.len() != SHARD_META_LEN {
            return Err(ArtifactError::CountMismatch {
                context: "shard metadata record",
            });
        }
        let f = |i: usize| read_u64(bytes, i * 8);
        let mut encoding_counts = [0u64; 6];
        for (i, slot) in encoding_counts.iter_mut().enumerate() {
            *slot = f(8 + i);
        }
        Ok(ShardMeta {
            num_states: f(0),
            stride: f(1),
            alphabet: f(2),
            start_period: f(3),
            dense_words: f(4),
            start_index_tag: f(5),
            oversized: f(6),
            has_dense: f(7),
            encoding_counts,
            dn_words: f(14),
        })
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
            shard_count: 3,
            symbol_bits: 4,
            stride: 2,
            per_original: 2,
            num_states: 77,
            plan_ste_budget: 256,
            plan_total_states: 77,
        };
        assert_eq!(GlobalMeta::from_bytes(&meta.to_bytes()).unwrap(), meta);
        assert!(GlobalMeta::from_bytes(&[0u8; 95]).is_err());
    }

    #[test]
    fn shard_meta_round_trips() {
        let meta = ShardMeta {
            num_states: 9,
            stride: 2,
            alphabet: 16,
            start_period: 2,
            dense_words: 1,
            start_index_tag: 0,
            oversized: 1,
            has_dense: 1,
            encoding_counts: [1, 2, 3, 4, 5, 6],
            dn_words: 1,
        };
        assert_eq!(ShardMeta::from_bytes(&meta.to_bytes()).unwrap(), meta);
        assert!(ShardMeta::from_bytes(&[0u8; 121]).is_err());
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
