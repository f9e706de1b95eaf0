//! Byte-level validation: everything that must hold before a single
//! typed slice is formed over the mapping.
//!
//! [`validate_bytes`] takes the raw file bytes and either rejects them
//! with a typed [`ArtifactError`] or returns a [`RawDb`] whose section
//! descriptors are proven in-bounds, aligned, unique by kind, and
//! non-overlapping. Only after this gate does the loader
//! ([`crate::mapped`]) interpret section payloads — so a hostile file
//! can at worst produce a typed error, never an out-of-bounds access.

use crate::error::ArtifactError;
use crate::fnv1a_bytes;
use crate::format::{
    header_offset, read_u32, read_u64, SectionKind, ENDIAN_TAG, HEADER_LEN, MAGIC, SECTION_ALIGN,
    SECTION_ENTRY_LEN, VERSION,
};

/// The validated fixed header.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Content key of the pipeline this database claims to hold.
    pub pipeline_key: u64,
    /// FNV-1a checksum over `bytes[64..]`.
    pub checksum: u64,
    /// Total file length recorded in the header.
    pub file_len: u64,
    /// Number of section-table entries.
    pub section_count: u32,
}

/// One validated section descriptor: in-bounds, aligned, the only one
/// of its kind.
#[derive(Debug, Clone, Copy)]
pub struct RawSection {
    /// Section kind.
    pub kind: SectionKind,
    /// Payload offset from the start of the file.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// A byte-validated database: the header plus proven section
/// descriptors, still borrowing the raw bytes.
#[derive(Debug)]
pub struct RawDb<'a> {
    /// The whole file.
    pub bytes: &'a [u8],
    /// The validated header.
    pub header: Header,
    /// Validated sections, in table order.
    pub sections: Vec<RawSection>,
}

impl<'a> RawDb<'a> {
    /// Looks up the section of `kind`, if present.
    pub fn find(&self, kind: SectionKind) -> Option<&RawSection> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// Looks up a section the format requires.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::MissingSection`] when absent.
    pub fn require(&self, kind: SectionKind) -> Result<&RawSection, ArtifactError> {
        self.find(kind)
            .ok_or(ArtifactError::MissingSection { kind: kind.tag() })
    }

    /// The payload bytes of a validated section.
    pub fn payload(&self, section: &RawSection) -> &'a [u8] {
        &self.bytes[section.offset..section.offset + section.len]
    }
}

/// Validates the fixed header, checksum, and section table of `bytes`.
///
/// # Errors
///
/// Returns the [`ArtifactError`] variant matching the first violated
/// invariant; see the module docs of [`crate::format`] for the order.
pub fn validate_bytes(bytes: &[u8]) -> Result<RawDb<'_>, ArtifactError> {
    if bytes.len() < HEADER_LEN {
        return Err(ArtifactError::TooShort { len: bytes.len() });
    }
    if bytes[header_offset::MAGIC..header_offset::MAGIC + 8] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = read_u32(bytes, header_offset::VERSION);
    if version != VERSION {
        return Err(ArtifactError::UnsupportedVersion { found: version });
    }
    let endian = read_u32(bytes, header_offset::ENDIAN);
    if endian != ENDIAN_TAG {
        return Err(ArtifactError::EndiannessMismatch { found: endian });
    }
    let header_len = read_u32(bytes, header_offset::HEADER_LEN);
    if header_len as usize != HEADER_LEN {
        return Err(ArtifactError::BadHeader {
            reason: "header length field must be 64",
        });
    }
    if bytes[header_offset::RESERVED..HEADER_LEN]
        .iter()
        .any(|&b| b != 0)
    {
        return Err(ArtifactError::BadHeader {
            reason: "reserved bytes must be zero",
        });
    }
    let header = Header {
        pipeline_key: read_u64(bytes, header_offset::PIPELINE_KEY),
        checksum: read_u64(bytes, header_offset::CHECKSUM),
        file_len: read_u64(bytes, header_offset::FILE_LEN),
        section_count: read_u32(bytes, header_offset::SECTION_COUNT),
    };
    if header.file_len != bytes.len() as u64 {
        return Err(ArtifactError::LengthMismatch {
            header: header.file_len,
            actual: bytes.len() as u64,
        });
    }
    let actual = fnv1a_bytes(&bytes[HEADER_LEN..]);
    if actual != header.checksum {
        return Err(ArtifactError::ChecksumMismatch {
            expected: header.checksum,
            actual,
        });
    }

    // Section table: at most one entry per kind and inside the file,
    // both settled before any entry is read; then per-entry invariants.
    let count = header.section_count as usize;
    if count > SectionKind::ALL.len() || HEADER_LEN + count * SECTION_ENTRY_LEN > bytes.len() {
        return Err(ArtifactError::SectionTableOverflow {
            count: header.section_count,
        });
    }
    let table_end = HEADER_LEN + count * SECTION_ENTRY_LEN;

    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let base = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let kind_tag = read_u32(bytes, base);
        let kind = SectionKind::from_tag(kind_tag)
            .ok_or(ArtifactError::UnknownSection { kind: kind_tag })?;
        let padding = read_u32(bytes, base + 4);
        let offset = read_u64(bytes, base + 8);
        let len = read_u64(bytes, base + 16);
        if offset < table_end as u64 || !(offset as usize).is_multiple_of(SECTION_ALIGN) {
            return Err(ArtifactError::MisalignedSection {
                kind: kind_tag,
                offset,
            });
        }
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= bytes.len() as u64)
            .ok_or(ArtifactError::SectionOutOfBounds {
                kind: kind_tag,
                offset,
                len,
            })?;
        debug_assert!(end <= bytes.len() as u64);
        if !len.is_multiple_of(kind.elem_size() as u64) {
            return Err(ArtifactError::BadElementSize {
                kind: kind_tag,
                len,
                elem: kind.elem_size() as u64,
            });
        }
        if padding != 0 {
            return Err(ArtifactError::BadValue {
                context: "section entry padding",
            });
        }
        if sections.iter().any(|s: &RawSection| s.kind == kind) {
            return Err(ArtifactError::DuplicateSection { kind: kind_tag });
        }
        sections.push(RawSection {
            kind,
            // Bounds were proven against bytes.len() above, so the usize
            // conversions cannot truncate.
            offset: offset as usize,
            len: len as usize,
        });
    }

    // Overlap sweep: sort by offset, require each section to start at or
    // after the previous one's end (zero-length sections may touch).
    let mut by_offset: Vec<&RawSection> = sections.iter().collect();
    by_offset.sort_by_key(|s| (s.offset, s.len));
    for pair in by_offset.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if a.offset + a.len > b.offset {
            return Err(ArtifactError::OverlappingSections {
                first: a.kind.tag(),
                second: b.kind.tag(),
            });
        }
    }

    Ok(RawDb {
        bytes,
        header,
        sections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_short_files_are_too_short() {
        assert!(matches!(
            validate_bytes(&[]),
            Err(ArtifactError::TooShort { len: 0 })
        ));
        assert!(matches!(
            validate_bytes(&[0u8; 63]),
            Err(ArtifactError::TooShort { len: 63 })
        ));
    }

    #[test]
    fn zeroed_header_is_bad_magic() {
        assert!(matches!(
            validate_bytes(&[0u8; 64]),
            Err(ArtifactError::BadMagic)
        ));
    }
}
