//! Serializing a compiled pipeline into the `.sdb` format.
//!
//! The writer is two-pass: section payloads are rendered first, offsets
//! are assigned with 8-byte alignment, and the checksum is patched into
//! the header last (it covers every byte after the header, padding
//! included). [`CompiledPipeline::write`] writes through a temporary
//! sibling file of its own and renames, so neither a crashed writer nor
//! two writers racing on one path leave a half-written database under
//! the final name.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sunder_automata::{anml, StateId};
use sunder_sim::dense::DenseTables;
use sunder_sim::fastpath::{SparseTables, StartIndex, SymCode};
use sunder_sim::EngineKind;

use crate::error::ArtifactError;
use crate::format::{
    header_offset, CodeRec, GlobalMeta, SectionKind, ShardMeta, ENDIAN_TAG, HEADER_LEN, MAGIC,
    SECTION_ALIGN, SECTION_ENTRY_LEN, VERSION,
};
use crate::{config_tag, engine_tag, fnv1a_bytes, CompiledPipeline};

fn bytes_of_u16(values: &[u16]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for v in values {
        out.extend_from_slice(&v.to_ne_bytes());
    }
    out
}

fn bytes_of_u32(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_ne_bytes());
    }
    out
}

fn bytes_of_u64(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_ne_bytes());
    }
    out
}

fn bytes_of_ids(values: &[StateId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.0.to_ne_bytes());
    }
    out
}

fn code_rec(code: SymCode) -> CodeRec {
    match code {
        SymCode::Empty => CodeRec { tag: 0, a: 0, b: 0 },
        SymCode::One(s) => CodeRec { tag: 1, a: s, b: 0 },
        SymCode::Range { lo, hi } => CodeRec {
            tag: 2,
            a: lo,
            b: u32::from(hi),
        },
        SymCode::Sparse { off, len } => CodeRec {
            tag: 3,
            a: len,
            b: off,
        },
        SymCode::Dense { off } => CodeRec {
            tag: 4,
            a: 0,
            b: off,
        },
        SymCode::Full => CodeRec { tag: 5, a: 0, b: 0 },
    }
}

fn sparse_sections(shard: u32, tables: &SparseTables, out: &mut Vec<(SectionKind, u32, Vec<u8>)>) {
    out.push((
        SectionKind::SpSuccOff,
        shard,
        bytes_of_u32(&tables.succ_off),
    ));
    out.push((
        SectionKind::SpSuccFlat,
        shard,
        bytes_of_ids(&tables.succ_flat),
    ));
    let mut codes = Vec::with_capacity(tables.codes.len() * 8);
    for &code in &tables.codes {
        codes.extend_from_slice(&code_rec(code).to_bytes());
    }
    out.push((SectionKind::SpCodes, shard, codes));
    out.push((
        SectionKind::SpSparseArena,
        shard,
        bytes_of_u16(&tables.sparse_arena),
    ));
    out.push((
        SectionKind::SpDenseArena,
        shard,
        bytes_of_u64(&tables.dense_arena),
    ));
    out.push((
        SectionKind::SpSodStarts,
        shard,
        bytes_of_ids(&tables.sod_starts),
    ));
    match &tables.start_index {
        StartIndex::Bucketed { off, flat } => {
            out.push((SectionKind::SpStartOff, shard, bytes_of_u32(off)));
            out.push((SectionKind::SpStartFlat, shard, bytes_of_ids(flat)));
        }
        StartIndex::Flat(flat) => {
            out.push((SectionKind::SpStartFlat, shard, bytes_of_ids(flat)));
        }
    }
    out.push((
        SectionKind::SpStartLut,
        shard,
        bytes_of_u64(&tables.start_lut),
    ));
    out.push((
        SectionKind::SpReportBits,
        shard,
        bytes_of_u64(&tables.report_bits),
    ));
}

fn dense_sections(shard: u32, tables: &DenseTables, out: &mut Vec<(SectionKind, u32, Vec<u8>)>) {
    out.push((
        SectionKind::DnClassOf,
        shard,
        bytes_of_u16(&tables.class_of),
    ));
    out.push((
        SectionKind::DnClassOff,
        shard,
        bytes_of_u32(&tables.class_off),
    ));
    out.push((SectionKind::DnAccept, shard, bytes_of_u64(&tables.accept)));
    out.push((
        SectionKind::DnPadFull,
        shard,
        bytes_of_u64(&tables.pad_full),
    ));
    out.push((SectionKind::DnSucc, shard, bytes_of_u64(&tables.succ)));
    out.push((
        SectionKind::DnHasSucc,
        shard,
        bytes_of_u64(&tables.has_succ),
    ));
    out.push((
        SectionKind::DnStartAllinput,
        shard,
        bytes_of_u64(&tables.start_allinput),
    ));
    out.push((
        SectionKind::DnStartSod,
        shard,
        bytes_of_u64(&tables.start_sod),
    ));
    out.push((
        SectionKind::DnReportMask,
        shard,
        bytes_of_u64(&tables.report_mask),
    ));
}

impl CompiledPipeline {
    /// Serializes the pipeline into `.sdb` bytes. For the dense engine
    /// kind every shard's dense tables are built (once) so the database
    /// carries them; other kinds persist dense tables only if already
    /// materialized.
    pub fn to_bytes(&self) -> Vec<u8> {
        let plan = self.sharded.plan();
        let (spec_tag, spec_value, oversize_tag) = self.spec.tags();
        let meta = GlobalMeta {
            config_tag: config_tag(self.config),
            engine_tag: engine_tag(self.engine),
            spec_tag,
            spec_value,
            oversize_tag,
            shard_count: plan.num_shards() as u64,
            symbol_bits: u64::from(self.nfa.symbol_bits()),
            stride: self.nfa.stride() as u64,
            per_original: self.map.per_original(),
            num_states: self.nfa.num_states() as u64,
            plan_ste_budget: plan.ste_budget as u64,
            plan_total_states: plan.total_states as u64,
        };

        let mut sections: Vec<(SectionKind, u32, Vec<u8>)> = vec![
            (
                SectionKind::SourceAnml,
                0,
                self.source_anml.as_bytes().to_vec(),
            ),
            (SectionKind::Meta, 0, meta.to_bytes().to_vec()),
            (SectionKind::SpecKey, 0, self.spec.key_text().into_bytes()),
            (
                SectionKind::NfaAnml,
                0,
                anml::serialize(&self.nfa).into_bytes(),
            ),
        ];

        for s in 0..plan.num_shards() {
            let shard = &plan.shards[s];
            let sparse = Arc::clone(self.sharded.shard_sparse(s));
            let dense = if self.engine == EngineKind::Dense {
                Some(self.sharded.ensure_dense(s))
            } else {
                self.sharded.shard_dense(s)
            };
            let idx = s as u32;
            sections.push((
                SectionKind::ShardNfa,
                idx,
                anml::serialize(&shard.nfa).into_bytes(),
            ));
            let shard_meta = ShardMeta {
                num_states: shard.nfa.num_states() as u64,
                stride: sparse.stride as u64,
                alphabet: sparse.alphabet as u64,
                start_period: sparse.start_period,
                dense_words: sparse.dense_words as u64,
                start_index_tag: match sparse.start_index {
                    StartIndex::Bucketed { .. } => 0,
                    StartIndex::Flat(_) => 1,
                },
                oversized: u64::from(shard.oversized),
                has_dense: u64::from(dense.is_some()),
                encoding_counts: sparse.encoding_counts,
                dn_words: dense.as_ref().map_or(0, |d| d.words as u64),
            };
            sections.push((SectionKind::ShardMeta, idx, shard_meta.to_bytes().to_vec()));
            sections.push((SectionKind::ShardMembers, idx, bytes_of_ids(&shard.members)));
            sparse_sections(idx, &sparse, &mut sections);
            if let Some(dense) = dense {
                dense_sections(idx, &dense, &mut sections);
            }
        }

        // Offset assignment: the section table follows the header (64 + 24k
        // is always 8-aligned), payloads follow with 8-byte alignment.
        let table_end = HEADER_LEN + sections.len() * SECTION_ENTRY_LEN;
        let mut offsets = Vec::with_capacity(sections.len());
        let mut cursor = table_end;
        for (_, _, payload) in &sections {
            offsets.push(cursor);
            cursor += payload.len();
            cursor = cursor.next_multiple_of(SECTION_ALIGN);
        }
        let file_len = cursor;

        let mut buf = vec![0u8; file_len];
        buf[header_offset::MAGIC..header_offset::MAGIC + 8].copy_from_slice(&MAGIC);
        buf[header_offset::VERSION..header_offset::VERSION + 4]
            .copy_from_slice(&VERSION.to_ne_bytes());
        buf[header_offset::ENDIAN..header_offset::ENDIAN + 4]
            .copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
        buf[header_offset::PIPELINE_KEY..header_offset::PIPELINE_KEY + 8]
            .copy_from_slice(&self.key.0.to_ne_bytes());
        buf[header_offset::FILE_LEN..header_offset::FILE_LEN + 8]
            .copy_from_slice(&(file_len as u64).to_ne_bytes());
        buf[header_offset::SECTION_COUNT..header_offset::SECTION_COUNT + 4]
            .copy_from_slice(&(sections.len() as u32).to_ne_bytes());
        buf[header_offset::HEADER_LEN..header_offset::HEADER_LEN + 4]
            .copy_from_slice(&(HEADER_LEN as u32).to_ne_bytes());

        for (i, ((kind, shard, payload), offset)) in sections.iter().zip(&offsets).enumerate() {
            let base = HEADER_LEN + i * SECTION_ENTRY_LEN;
            buf[base..base + 4].copy_from_slice(&kind.tag().to_ne_bytes());
            buf[base + 4..base + 8].copy_from_slice(&shard.to_ne_bytes());
            buf[base + 8..base + 16].copy_from_slice(&(*offset as u64).to_ne_bytes());
            buf[base + 16..base + 24].copy_from_slice(&(payload.len() as u64).to_ne_bytes());
            buf[*offset..*offset + payload.len()].copy_from_slice(payload);
        }

        let checksum = fnv1a_bytes(&buf[HEADER_LEN..]);
        buf[header_offset::CHECKSUM..header_offset::CHECKSUM + 8]
            .copy_from_slice(&checksum.to_ne_bytes());
        buf
    }

    /// Writes the pipeline to `path` atomically: the bytes land in a
    /// temporary sibling named for this process and write, then are
    /// renamed into place, so readers never observe a torn file even
    /// when several writers race on one path.
    ///
    /// # Errors
    ///
    /// Returns i/o failures (the temporary file is removed on error).
    pub fn write(&self, path: &Path) -> Result<(), ArtifactError> {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let bytes = self.to_bytes();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        let seq = WRITES.fetch_add(1, Ordering::Relaxed);
        tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        if let Err(e) = std::fs::write(&tmp, &bytes) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }
}
