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

use sunder_automata::{anml, StateId};
use sunder_sim::fastpath::{SparseTables, StartIndex, SymCode};

use crate::error::ArtifactError;
use crate::format::{
    header_offset, CodeRec, GlobalMeta, SectionKind, ENDIAN_TAG, HEADER_LEN, MAGIC, SECTION_ALIGN,
    SECTION_ENTRY_LEN, VERSION,
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

fn sparse_sections(tables: &SparseTables, out: &mut Vec<(SectionKind, Vec<u8>)>) {
    out.push((SectionKind::SpSuccOff, bytes_of_u32(&tables.succ_off)));
    out.push((SectionKind::SpSuccFlat, bytes_of_ids(&tables.succ_flat)));
    let mut codes = Vec::with_capacity(tables.codes.len() * 8);
    for &code in &tables.codes {
        codes.extend_from_slice(&code_rec(code).to_bytes());
    }
    out.push((SectionKind::SpCodes, codes));
    out.push((
        SectionKind::SpSparseArena,
        bytes_of_u16(&tables.sparse_arena),
    ));
    out.push((SectionKind::SpDenseArena, bytes_of_u64(&tables.dense_arena)));
    out.push((SectionKind::SpSodStarts, bytes_of_ids(&tables.sod_starts)));
    match &tables.start_index {
        StartIndex::Bucketed { off, flat } => {
            out.push((SectionKind::SpStartOff, bytes_of_u32(off)));
            out.push((SectionKind::SpStartFlat, bytes_of_ids(flat)));
        }
        StartIndex::Flat(flat) => {
            out.push((SectionKind::SpStartFlat, bytes_of_ids(flat)));
        }
    }
    out.push((SectionKind::SpStartLut, bytes_of_u64(&tables.start_lut)));
    out.push((SectionKind::SpReportBits, bytes_of_u64(&tables.report_bits)));
}

impl CompiledPipeline {
    /// Serializes the pipeline into `.sdb` bytes: its identity, both
    /// automata and the sparse tables — nothing the loader can derive,
    /// so the bytes depend only on the pipeline's content.
    pub fn to_bytes(&self) -> Vec<u8> {
        let sparse = self.sharded.sparse();
        let (spec_tag, spec_value, oversize_tag) = self.spec.tags();
        let meta = GlobalMeta {
            config_tag: config_tag(self.config),
            engine_tag: engine_tag(self.engine),
            spec_tag,
            spec_value,
            oversize_tag,
            symbol_bits: u64::from(self.nfa.symbol_bits()),
            stride: self.nfa.stride() as u64,
            per_original: self.map.per_original(),
            num_states: self.nfa.num_states() as u64,
            start_period: sparse.start_period,
            start_index_tag: match sparse.start_index {
                StartIndex::Bucketed { .. } => 0,
                StartIndex::Flat(_) => 1,
            },
            encoding_counts: sparse.encoding_counts,
        };

        let mut sections: Vec<(SectionKind, Vec<u8>)> = vec![
            (
                SectionKind::SourceAnml,
                self.source_anml.as_bytes().to_vec(),
            ),
            (SectionKind::Meta, meta.to_bytes().to_vec()),
            (SectionKind::SpecKey, self.spec.key_text().into_bytes()),
            (
                SectionKind::NfaAnml,
                anml::serialize(&self.nfa).into_bytes(),
            ),
        ];
        sparse_sections(sparse, &mut sections);

        // Offset assignment: the section table follows the header (64 + 24k
        // is always 8-aligned), payloads follow with 8-byte alignment.
        let table_end = HEADER_LEN + sections.len() * SECTION_ENTRY_LEN;
        let mut offsets = Vec::with_capacity(sections.len());
        let mut cursor = table_end;
        for (_, payload) in &sections {
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

        for (i, ((kind, payload), offset)) in sections.iter().zip(&offsets).enumerate() {
            let base = HEADER_LEN + i * SECTION_ENTRY_LEN;
            buf[base..base + 4].copy_from_slice(&kind.tag().to_ne_bytes());
            // Bytes 4..8 are padding and stay zero.
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
