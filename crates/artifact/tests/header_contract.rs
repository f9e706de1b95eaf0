//! Pins the header/validation contract variant by variant: each class
//! of malformation maps to a *distinct* typed error, in the documented
//! check order, with distinct display strings. These tests are the
//! format's compatibility lock — if a refactor reorders or merges
//! checks, this file is where it shows up.

use sunder_artifact::corrupt::fix_checksum;
use sunder_artifact::format::{header_offset, SectionKind, HEADER_LEN, SECTION_ENTRY_LEN};
use sunder_artifact::validate::validate_bytes;
use sunder_artifact::{ArtifactError, CompiledPipeline, MappedDb};
use sunder_automata::partition::ShardSpec;
use sunder_automata::regex::compile_rule_set;
use sunder_oracle::PipelineConfig;
use sunder_sim::EngineKind;

fn base_image() -> Vec<u8> {
    let nfa = compile_rule_set(&["ab+c", ".*net"]).expect("rules compile");
    CompiledPipeline::compile(
        &nfa,
        PipelineConfig::ALL[0],
        ShardSpec::MaxShards(1),
        EngineKind::ALL[0],
    )
    .expect("compile")
    .to_bytes()
}

fn load_err(bytes: &[u8]) -> ArtifactError {
    MappedDb::load_bytes(bytes).expect_err("mutant must be rejected")
}

/// Table-slot byte offset of the section-table entry for `(kind, shard)`.
fn entry_offset(base: &[u8], kind: SectionKind, shard: u32) -> usize {
    let raw = validate_bytes(base).expect("base is valid");
    let idx = raw
        .sections
        .iter()
        .position(|s| s.kind == kind && s.shard == shard)
        .expect("section present in base");
    HEADER_LEN + idx * SECTION_ENTRY_LEN
}

/// Payload location of `(kind, shard)`.
fn payload_span(base: &[u8], kind: SectionKind, shard: u32) -> (usize, usize) {
    let raw = validate_bytes(base).expect("base is valid");
    let s = raw
        .sections
        .iter()
        .find(|s| s.kind == kind && s.shard == shard)
        .expect("section present in base");
    (s.offset, s.len)
}

#[test]
fn truncation_is_too_short_then_length_mismatch() {
    let base = base_image();
    assert!(matches!(
        load_err(&base[..0]),
        ArtifactError::TooShort { len: 0 }
    ));
    assert!(matches!(
        load_err(&base[..HEADER_LEN - 1]),
        ArtifactError::TooShort { .. }
    ));
    // Past the header the file is structurally a header + missing tail:
    // the recorded length no longer matches.
    assert!(matches!(
        load_err(&base[..base.len() - 1]),
        ArtifactError::LengthMismatch { .. }
    ));
}

#[test]
fn forged_magic_version_endianness() {
    let base = base_image();

    let mut bytes = base.clone();
    bytes[0] = b'Z';
    assert!(matches!(load_err(&bytes), ArtifactError::BadMagic));

    let mut bytes = base.clone();
    bytes[header_offset::VERSION] = 0xFE;
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::UnsupportedVersion { .. }
    ));

    // Byte-swap the endianness tag: exactly what a same-version file
    // written on an opposite-endian host would look like.
    let mut bytes = base.clone();
    bytes[header_offset::ENDIAN..header_offset::ENDIAN + 4].reverse();
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::EndiannessMismatch { .. }
    ));
}

#[test]
fn reserved_bytes_and_header_len_are_pinned() {
    let base = base_image();

    let mut bytes = base.clone();
    bytes[header_offset::RESERVED + 3] = 1;
    assert!(matches!(load_err(&bytes), ArtifactError::BadHeader { .. }));

    let mut bytes = base.clone();
    bytes[header_offset::HEADER_LEN] = 32;
    assert!(matches!(load_err(&bytes), ArtifactError::BadHeader { .. }));
}

#[test]
fn forged_checksum_and_stale_key() {
    let base = base_image();

    let mut bytes = base.clone();
    bytes[header_offset::CHECKSUM] ^= 1;
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::ChecksumMismatch { .. }
    ));

    // A flipped pipeline key passes the checksum (which covers only the
    // payload) and dies at the content-hash cross-check.
    let mut bytes = base.clone();
    bytes[header_offset::PIPELINE_KEY] ^= 1;
    let err = load_err(&bytes);
    match err {
        ArtifactError::StaleHash { header, computed } => assert_ne!(header, computed),
        other => panic!("expected StaleHash, got {other}"),
    }
}

#[test]
fn section_table_overflow_and_missing_section() {
    let base = base_image();

    let mut bytes = base.clone();
    bytes[header_offset::SECTION_COUNT..header_offset::SECTION_COUNT + 4]
        .copy_from_slice(&u32::MAX.to_ne_bytes());
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::SectionTableOverflow { .. }
    ));

    // Dropping the last table entry leaves a required section missing.
    let raw = validate_bytes(&base).expect("valid");
    let count = raw.header.section_count;
    drop(raw);
    let mut bytes = base.clone();
    bytes[header_offset::SECTION_COUNT..header_offset::SECTION_COUNT + 4]
        .copy_from_slice(&(count - 1).to_ne_bytes());
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::MissingSection { .. }
    ));
}

#[test]
fn misaligned_overlapping_duplicate_unknown_sections() {
    let base = base_image();

    // Misalign: +4 keeps the section in bounds but off the 8-byte grid.
    let entry = entry_offset(&base, SectionKind::SourceAnml, 0);
    let mut bytes = base.clone();
    let off = u64::from_ne_bytes(bytes[entry + 8..entry + 16].try_into().unwrap());
    bytes[entry + 8..entry + 16].copy_from_slice(&(off + 4).to_ne_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::MisalignedSection { .. }
    ));

    // Overlap: point NfaAnml at SourceAnml's payload.
    let src = entry_offset(&base, SectionKind::SourceAnml, 0);
    let dst = entry_offset(&base, SectionKind::NfaAnml, 0);
    let mut bytes = base.clone();
    let off = u64::from_ne_bytes(bytes[src + 8..src + 16].try_into().unwrap());
    bytes[dst + 8..dst + 16].copy_from_slice(&off.to_ne_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::OverlappingSections { .. }
    ));

    // Duplicate: rewrite NfaAnml's whole entry as a copy of SourceAnml's.
    let mut bytes = base.clone();
    let copy: Vec<u8> = bytes[src..src + SECTION_ENTRY_LEN].to_vec();
    bytes[dst..dst + SECTION_ENTRY_LEN].copy_from_slice(&copy);
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::DuplicateSection { .. }
    ));

    // Unknown kind tag.
    let mut bytes = base.clone();
    bytes[dst..dst + 4].copy_from_slice(&999u32.to_ne_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::UnknownSection { kind: 999 }
    ));
}

#[test]
fn out_of_bounds_and_bad_element_size() {
    let base = base_image();
    let entry = entry_offset(&base, SectionKind::SpReportBits, 0);

    let mut bytes = base.clone();
    bytes[entry + 16..entry + 24].copy_from_slice(&u64::MAX.to_ne_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::SectionOutOfBounds { .. }
    ));

    // Shrink a u64-element section by one byte: still in bounds, no
    // longer a whole number of elements.
    let (_, len) = payload_span(&base, SectionKind::SpReportBits, 0);
    assert!(len >= 8);
    let mut bytes = base.clone();
    bytes[entry + 16..entry + 24].copy_from_slice(&((len - 1) as u64).to_ne_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::BadElementSize { .. }
    ));
}

#[test]
fn global_section_with_shard_index_is_rejected() {
    let base = base_image();
    let entry = entry_offset(&base, SectionKind::SourceAnml, 0);
    let mut bytes = base.clone();
    bytes[entry + 4..entry + 8].copy_from_slice(&1u32.to_ne_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(load_err(&bytes), ArtifactError::BadValue { .. }));
}

#[test]
fn forged_shard_counts_overflow_checked_multiplication() {
    // num_states = stride = u64::MAX: the usize conversions succeed on a
    // 64-bit host, so only the *checked multiply* in the derived-size
    // computation can catch it — and it must, before any cross-check.
    let base = base_image();
    let (off, _) = payload_span(&base, SectionKind::ShardMeta, 0);
    let mut bytes = base.clone();
    bytes[off..off + 8].copy_from_slice(&u64::MAX.to_ne_bytes()); // num_states
    bytes[off + 8..off + 16].copy_from_slice(&u64::MAX.to_ne_bytes()); // stride
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::CountOverflow { .. }
    ));
}

#[test]
fn invalid_utf8_and_unparsable_automaton() {
    let base = base_image();

    let (off, len) = payload_span(&base, SectionKind::SourceAnml, 0);
    assert!(len > 0);
    let mut bytes = base.clone();
    bytes[off] = 0xFF;
    fix_checksum(&mut bytes);
    assert!(matches!(load_err(&bytes), ArtifactError::Utf8 { .. }));

    // Garbage-but-UTF-8 automaton text: dies in the ANML parser, typed
    // as a propagated automata error (NfaAnml is not part of the key, so
    // this gets past the stale-hash check).
    let (off, len) = payload_span(&base, SectionKind::NfaAnml, 0);
    let mut bytes = base.clone();
    bytes[off..off + len].fill(b'z');
    fix_checksum(&mut bytes);
    assert!(matches!(load_err(&bytes), ArtifactError::Automata(_)));
}

#[test]
fn spec_key_text_is_cross_checked() {
    let base = base_image();
    let (off, len) = payload_span(&base, SectionKind::SpecKey, 0);
    assert!(len > 0);
    // "max-shards=1" → "max-shards=2": valid UTF-8, wrong parameters.
    let mut bytes = base.clone();
    bytes[off + len - 1] = b'2';
    fix_checksum(&mut bytes);
    assert!(matches!(load_err(&bytes), ArtifactError::BadValue { .. }));
}

#[test]
fn error_variants_have_distinct_kinds_and_displays() {
    let base = base_image();
    let mut seen: Vec<(String, String)> = Vec::new();

    let mut collect = |err: ArtifactError| {
        let kind = err.kind_name().to_string();
        let display = format!("{err}");
        assert!(
            !seen.iter().any(|(k, _)| *k == kind),
            "duplicate kind name {kind}"
        );
        assert!(
            !seen.iter().any(|(_, d)| *d == display),
            "duplicate display {display}"
        );
        seen.push((kind, display));
    };

    collect(load_err(&base[..10]));
    let mut b = base.clone();
    b[0] = b'Z';
    collect(load_err(&b));
    let mut b = base.clone();
    b[header_offset::VERSION] = 9;
    collect(load_err(&b));
    let mut b = base.clone();
    b[header_offset::ENDIAN..header_offset::ENDIAN + 4].reverse();
    collect(load_err(&b));
    let mut b = base.clone();
    b[header_offset::CHECKSUM] ^= 1;
    collect(load_err(&b));
    let mut b = base.clone();
    b[header_offset::PIPELINE_KEY] ^= 1;
    collect(load_err(&b));
    collect(load_err(&base[..base.len() - 1]));
    let mut b = base.clone();
    b[header_offset::RESERVED] = 7;
    collect(load_err(&b));

    assert_eq!(seen.len(), 8);
}
