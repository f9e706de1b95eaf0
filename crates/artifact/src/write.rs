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

use sunder_automata::StateId;
use sunder_sim::fastpath::{SparseTables, StartIndex, SymCode};

use crate::error::ArtifactError;
use crate::format::{
    header_offset, CodeRec, GlobalMeta, SectionKind, ENDIAN_TAG, HEADER_LEN, MAGIC, SECTION_ALIGN,
    SECTION_ENTRY_LEN, VERSION,
};
use crate::{config_tag, engine_tag, fnv1a_bytes, CompiledPipeline};

/// The bytes of `values`, each rendered by `bytes`.
fn bytes_of<T: Copy, B: IntoIterator<Item = u8>>(values: &[T], bytes: impl Fn(T) -> B) -> Vec<u8> {
    values.iter().flat_map(|&v| bytes(v)).collect()
}

fn ids(values: &[StateId]) -> Vec<u8> {
    bytes_of(values, |id| id.0.to_ne_bytes())
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
    let succ_off = bytes_of(&tables.succ_off, u32::to_ne_bytes);
    out.push((SectionKind::SpSuccOff, succ_off));
    out.push((SectionKind::SpSuccFlat, ids(&tables.succ_flat)));
    let codes = bytes_of(&tables.codes, |code| code_rec(code).to_bytes());
    out.push((SectionKind::SpCodes, codes));
    let sparse = bytes_of(&tables.sparse_arena, u16::to_ne_bytes);
    out.push((SectionKind::SpSparseArena, sparse));
    let dense = bytes_of(&tables.dense_arena, u64::to_ne_bytes);
    out.push((SectionKind::SpDenseArena, dense));
    out.push((SectionKind::SpSodStarts, ids(&tables.sod_starts)));
    if let StartIndex::Bucketed { off, .. } = &tables.start_index {
        out.push((SectionKind::SpStartOff, bytes_of(off, u32::to_ne_bytes)));
    }
    let (StartIndex::Bucketed { flat, .. } | StartIndex::Flat(flat)) = &tables.start_index;
    out.push((SectionKind::SpStartFlat, ids(flat)));
    let lut = bytes_of(&tables.start_lut, u64::to_ne_bytes);
    out.push((SectionKind::SpStartLut, lut));
    let report_off = bytes_of(&tables.report_off, u32::to_ne_bytes);
    out.push((SectionKind::SpReportOff, report_off));
    let reports = bytes_of(&tables.report_flat, |r| {
        r.id.to_ne_bytes().into_iter().chain(r.offset.to_ne_bytes())
    });
    out.push((SectionKind::SpReportFlat, reports));
}

impl CompiledPipeline {
    /// Serializes the pipeline into `.sdb` bytes: its identity, the
    /// source ANML and the sparse tables, which are the executable
    /// automaton — nothing the loader can derive, so the bytes depend
    /// only on the pipeline's content.
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
            encoding_counts: sparse.encoding_counts,
        };

        let mut sections: Vec<(SectionKind, Vec<u8>)> = vec![
            (
                SectionKind::SourceAnml,
                self.source_anml.as_bytes().to_vec(),
            ),
            (SectionKind::Meta, meta.to_bytes().to_vec()),
            (SectionKind::SpecKey, self.spec.key_text().into_bytes()),
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
