//! Typed rejection reasons for malformed pattern databases.
//!
//! The validator's contract is that **every** malformed input maps to one
//! of these variants — never a panic, never an out-of-bounds slice — and
//! that distinct failure modes map to distinct variants, so the corruption
//! suite can pin each injected fault to the error it must produce.

use sunder_automata::AutomataError;

/// Why a `.sdb` pattern database was rejected.
///
/// Variants are ordered roughly by validation phase: byte-level header
/// checks first, then the section table, then typed per-section checks,
/// and finally the content-hash cross-check.
#[derive(Debug)]
pub enum ArtifactError {
    /// The file is shorter than the fixed 64-byte header.
    TooShort {
        /// Actual byte length.
        len: usize,
    },
    /// The first eight bytes are not the `SUNDERDB` magic.
    BadMagic,
    /// The format version is not one this loader understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The endianness tag does not match this host (the format is
    /// native-endian; cross-endian files are rejected, not converted).
    EndiannessMismatch {
        /// Tag found in the header.
        found: u32,
    },
    /// A fixed header field holds an impossible value.
    BadHeader {
        /// Which invariant was violated.
        reason: &'static str,
    },
    /// The header's recorded file length disagrees with the actual size
    /// (a truncated or padded file).
    LengthMismatch {
        /// Length recorded in the header.
        header: u64,
        /// Actual length observed.
        actual: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the payload.
        actual: u64,
    },
    /// The section table has more entries than there are section kinds,
    /// or (count × 24 bytes) does not fit in the file.
    SectionTableOverflow {
        /// Section count recorded in the header.
        count: u32,
    },
    /// A section entry names a kind this loader does not know.
    UnknownSection {
        /// The unrecognized kind tag.
        kind: u32,
    },
    /// A section offset is not 8-byte aligned or points into the header
    /// or section table.
    MisalignedSection {
        /// Section kind tag.
        kind: u32,
        /// The offending offset.
        offset: u64,
    },
    /// A section extends past the end of the file.
    SectionOutOfBounds {
        /// Section kind tag.
        kind: u32,
        /// Section offset.
        offset: u64,
        /// Section length.
        len: u64,
    },
    /// Two sections overlap.
    OverlappingSections {
        /// Kind tag of the earlier section.
        first: u32,
        /// Kind tag of the overlapping section.
        second: u32,
    },
    /// The same kind appears twice in the section table.
    DuplicateSection {
        /// Section kind tag.
        kind: u32,
    },
    /// A section the metadata promises is absent.
    MissingSection {
        /// Section kind tag.
        kind: u32,
    },
    /// A section's byte length is not a multiple of its element size.
    BadElementSize {
        /// Section kind tag.
        kind: u32,
        /// Section byte length.
        len: u64,
        /// Element size in bytes.
        elem: u64,
    },
    /// A metadata-derived count computation overflowed (`count × stride`
    /// style products are checked, never wrapped).
    CountOverflow {
        /// Which derived quantity overflowed.
        context: &'static str,
    },
    /// A section's element count disagrees with the metadata.
    CountMismatch {
        /// Which table was mis-sized.
        context: &'static str,
    },
    /// A stored value violates a semantic invariant (tag out of range,
    /// state id out of bounds, non-monotone offset table, ...).
    BadValue {
        /// Which invariant was violated.
        context: &'static str,
    },
    /// The header's pipeline key does not match the hash recomputed from
    /// the embedded source automaton and pipeline parameters — the file
    /// is internally consistent but describes a different pipeline than
    /// it claims.
    StaleHash {
        /// Key recorded in the header.
        header: u64,
        /// Key recomputed from the embedded content.
        computed: u64,
    },
    /// A text section is not valid UTF-8.
    Utf8 {
        /// Section kind tag.
        kind: u32,
    },
    /// An embedded automaton failed to parse or re-validate.
    Automata(AutomataError),
    /// The file could not be read or mapped.
    Io(std::io::Error),
}

impl ArtifactError {
    /// A short stable name for the variant — the corruption corpus keys
    /// its expectations on these.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ArtifactError::TooShort { .. } => "too-short",
            ArtifactError::BadMagic => "bad-magic",
            ArtifactError::UnsupportedVersion { .. } => "unsupported-version",
            ArtifactError::EndiannessMismatch { .. } => "endianness-mismatch",
            ArtifactError::BadHeader { .. } => "bad-header",
            ArtifactError::LengthMismatch { .. } => "length-mismatch",
            ArtifactError::ChecksumMismatch { .. } => "checksum-mismatch",
            ArtifactError::SectionTableOverflow { .. } => "section-table-overflow",
            ArtifactError::UnknownSection { .. } => "unknown-section",
            ArtifactError::MisalignedSection { .. } => "misaligned-section",
            ArtifactError::SectionOutOfBounds { .. } => "section-out-of-bounds",
            ArtifactError::OverlappingSections { .. } => "overlapping-sections",
            ArtifactError::DuplicateSection { .. } => "duplicate-section",
            ArtifactError::MissingSection { .. } => "missing-section",
            ArtifactError::BadElementSize { .. } => "bad-element-size",
            ArtifactError::CountOverflow { .. } => "count-overflow",
            ArtifactError::CountMismatch { .. } => "count-mismatch",
            ArtifactError::BadValue { .. } => "bad-value",
            ArtifactError::StaleHash { .. } => "stale-hash",
            ArtifactError::Utf8 { .. } => "utf8",
            ArtifactError::Automata(_) => "automata",
            ArtifactError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::TooShort { len } => {
                write!(f, "file is {len} bytes, shorter than the 64-byte header")
            }
            ArtifactError::BadMagic => write!(f, "missing SUNDERDB magic"),
            ArtifactError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            ArtifactError::EndiannessMismatch { found } => {
                write!(f, "endianness tag {found:#010x} does not match this host")
            }
            ArtifactError::BadHeader { reason } => write!(f, "malformed header: {reason}"),
            ArtifactError::LengthMismatch { header, actual } => write!(
                f,
                "header records {header} bytes but the file is {actual} bytes"
            ),
            ArtifactError::ChecksumMismatch { expected, actual } => write!(
                f,
                "payload checksum {actual:#018x} does not match header {expected:#018x}"
            ),
            ArtifactError::SectionTableOverflow { count } => write!(
                f,
                "section table of {count} entries exceeds the section kinds or the file"
            ),
            ArtifactError::UnknownSection { kind } => write!(f, "unknown section kind {kind}"),
            ArtifactError::MisalignedSection { kind, offset } => write!(
                f,
                "section kind {kind} offset {offset} is misaligned or inside the header"
            ),
            ArtifactError::SectionOutOfBounds { kind, offset, len } => write!(
                f,
                "section kind {kind} at offset {offset} length {len} exceeds the file"
            ),
            ArtifactError::OverlappingSections { first, second } => {
                write!(f, "section kinds {first} and {second} overlap")
            }
            ArtifactError::DuplicateSection { kind } => write!(f, "duplicate section kind {kind}"),
            ArtifactError::MissingSection { kind } => write!(f, "missing section kind {kind}"),
            ArtifactError::BadElementSize { kind, len, elem } => write!(
                f,
                "section kind {kind} length {len} is not a multiple of element size {elem}"
            ),
            ArtifactError::CountOverflow { context } => {
                write!(f, "table size computation overflowed: {context}")
            }
            ArtifactError::CountMismatch { context } => {
                write!(f, "table element count disagrees with metadata: {context}")
            }
            ArtifactError::BadValue { context } => {
                write!(f, "invalid stored value: {context}")
            }
            ArtifactError::StaleHash { header, computed } => write!(
                f,
                "pipeline key {header:#018x} does not match embedded content ({computed:#018x})"
            ),
            ArtifactError::Utf8 { kind } => {
                write!(f, "section kind {kind} is not valid UTF-8")
            }
            ArtifactError::Automata(e) => write!(f, "embedded automaton: {e}"),
            ArtifactError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Automata(e) => Some(e),
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AutomataError> for ArtifactError {
    fn from(e: AutomataError) -> ArtifactError {
        ArtifactError::Automata(e)
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}
