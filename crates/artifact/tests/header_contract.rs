//! Pins the header/validation contract variant by variant: each class
//! of malformation maps to a *distinct* typed error, in the documented
//! check order, with distinct display strings. These tests are the
//! format's compatibility lock — if a refactor reorders or merges
//! checks, this file is where it shows up.

use std::sync::Arc;

use sunder_artifact::corrupt::fix_checksum;
use sunder_artifact::format::{header_offset, SectionKind, HEADER_LEN, SECTION_ENTRY_LEN};
use sunder_artifact::validate::validate_bytes;
use sunder_artifact::{pipeline_key, ArtifactError, CompiledPipeline, MappedDb};
use sunder_automata::partition::ShardSpec;
use sunder_automata::regex::compile_rule_set;
use sunder_automata::{AutomataError, Nfa};
use sunder_oracle::PipelineConfig;
use sunder_sim::{EngineKind, ShardedEngine};

fn source() -> Nfa {
    compile_rule_set(&["ab+c", ".*net"]).expect("rules compile")
}

fn base_image() -> Vec<u8> {
    let nfa = source();
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

/// Table-slot byte offset of the section-table entry for `kind`.
fn entry_offset(base: &[u8], kind: SectionKind) -> usize {
    let raw = validate_bytes(base).expect("base is valid");
    let idx = raw
        .sections
        .iter()
        .position(|s| s.kind == kind)
        .expect("section present in base");
    HEADER_LEN + idx * SECTION_ENTRY_LEN
}

/// Payload location of `kind`.
fn payload_span(base: &[u8], kind: SectionKind) -> (usize, usize) {
    let raw = validate_bytes(base).expect("base is valid");
    let s = raw.find(kind).expect("section present in base");
    (s.offset, s.len)
}

/// A well-formed header over a section table of `count` zero-length
/// `SourceAnml` entries and nothing else, checksum and length fixed.
fn forged_table(base: &[u8], count: u32) -> Vec<u8> {
    let table_end = HEADER_LEN + count as usize * SECTION_ENTRY_LEN;
    let mut bytes = vec![0u8; table_end];
    bytes[..HEADER_LEN].copy_from_slice(&base[..HEADER_LEN]);
    bytes[header_offset::SECTION_COUNT..header_offset::SECTION_COUNT + 4]
        .copy_from_slice(&count.to_ne_bytes());
    bytes[header_offset::FILE_LEN..header_offset::FILE_LEN + 8]
        .copy_from_slice(&(table_end as u64).to_ne_bytes());
    for entry in bytes[HEADER_LEN..].chunks_exact_mut(SECTION_ENTRY_LEN) {
        entry[..4].copy_from_slice(&SectionKind::SourceAnml.tag().to_ne_bytes());
        entry[8..16].copy_from_slice(&(table_end as u64).to_ne_bytes());
    }
    fix_checksum(&mut bytes);
    bytes
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

    // The word between an entry's kind and its offset is padding.
    let entry = entry_offset(&base, SectionKind::SourceAnml);
    let mut bytes = base.clone();
    bytes[entry + 4] = 1;
    fix_checksum(&mut bytes);
    assert!(matches!(load_err(&bytes), ArtifactError::BadValue { .. }));
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

    // A table with more entries than there are kinds is rejected before
    // any entry is read, however many it holds.
    for count in [SectionKind::ALL.len() + 1, 64_000] {
        let bytes = forged_table(&base, count as u32);
        assert!(
            matches!(
                load_err(&bytes),
                ArtifactError::SectionTableOverflow { count: c } if c as usize == count
            ),
            "{count} entries"
        );
    }

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
    let entry = entry_offset(&base, SectionKind::SourceAnml);
    let mut bytes = base.clone();
    let off = u64::from_ne_bytes(bytes[entry + 8..entry + 16].try_into().unwrap());
    bytes[entry + 8..entry + 16].copy_from_slice(&(off + 4).to_ne_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::MisalignedSection { .. }
    ));

    // Overlap: point SpCodes at SourceAnml's payload.
    let src = entry_offset(&base, SectionKind::SourceAnml);
    let dst = entry_offset(&base, SectionKind::SpCodes);
    let mut bytes = base.clone();
    let off = u64::from_ne_bytes(bytes[src + 8..src + 16].try_into().unwrap());
    bytes[dst + 8..dst + 16].copy_from_slice(&off.to_ne_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::OverlappingSections { .. }
    ));

    // Duplicate: rewrite SpCodes' whole entry as a copy of SourceAnml's.
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
    let entry = entry_offset(&base, SectionKind::SpReportFlat);

    let mut bytes = base.clone();
    bytes[entry + 16..entry + 24].copy_from_slice(&u64::MAX.to_ne_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::SectionOutOfBounds { .. }
    ));

    // Shrink a u64-element section by one byte: still in bounds, no
    // longer a whole number of elements.
    let (_, len) = payload_span(&base, SectionKind::SpReportFlat);
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
fn forged_state_counts_overflow_checked_multiplication() {
    // num_states = stride = u64::MAX in the metadata record: the usize
    // conversions succeed on a 64-bit host, so only the *checked
    // multiply* in the derived-size computation can catch it — and it
    // must, before any cross-check.
    let base = base_image();
    let (off, _) = payload_span(&base, SectionKind::Meta);
    let mut bytes = base.clone();
    bytes[off + 8 * 8..off + 9 * 8].copy_from_slice(&u64::MAX.to_ne_bytes()); // num_states
    bytes[off + 6 * 8..off + 7 * 8].copy_from_slice(&u64::MAX.to_ne_bytes()); // stride
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::CountOverflow { .. }
    ));
}

#[test]
fn invalid_utf8_source_is_typed() {
    let base = base_image();
    let (off, len) = payload_span(&base, SectionKind::SourceAnml);
    assert!(len > 0);
    let mut bytes = base.clone();
    bytes[off] = 0xFF;
    fix_checksum(&mut bytes);
    assert!(matches!(load_err(&bytes), ArtifactError::Utf8 { .. }));
}

/// The `u32` at element `idx` of section `kind`.
fn table_u32(bytes: &[u8], kind: SectionKind, idx: usize) -> u32 {
    let (off, _) = payload_span(bytes, kind);
    u32::from_ne_bytes(bytes[off + 4 * idx..off + 4 * idx + 4].try_into().unwrap())
}

/// Overwrites the `u32` at element `idx` of section `kind`.
fn set_u32(bytes: &mut [u8], kind: SectionKind, idx: usize, value: u32) {
    let (off, _) = payload_span(bytes, kind);
    bytes[off + 4 * idx..off + 4 * idx + 4].copy_from_slice(&value.to_ne_bytes());
}

/// Loads `bytes` with a checksum made consistent, expecting a typed
/// `BadValue` rejection (a panic fails the test as well).
fn assert_bad_value(mut bytes: Vec<u8>, what: &str) {
    fix_checksum(&mut bytes);
    match load_err(&bytes) {
        ArtifactError::BadValue { .. } => {}
        other => panic!("{what}: expected BadValue, got {other}"),
    }
}

#[test]
fn forged_report_and_successor_tables_fail_typed() {
    // The base pipeline has stride 1, reports and a state with two
    // successors (`b+` loops on `b` and moves on to `c`).
    let base = base_image();
    let n = payload_span(&base, SectionKind::SpReportOff).1 / 4 - 1;
    let reports = table_u32(&base, SectionKind::SpReportOff, n) as usize;
    assert!(reports >= 2, "base needs two reports");

    // A report offset at the stride (`Nfa::add_state` would panic).
    let mut bytes = base.clone();
    set_u32(&mut bytes, SectionKind::SpReportFlat, 1, 1);
    assert_bad_value(bytes, "report offset at the stride");

    // A report offset table that steps backwards.
    let first = (1..n)
        .find(|&i| table_u32(&base, SectionKind::SpReportOff, i) > 0)
        .expect("a reporting state");
    let mut bytes = base.clone();
    set_u32(&mut bytes, SectionKind::SpReportOff, first + 1, 0);
    assert_bad_value(bytes, "non-monotone report offsets");

    // A report offset table that ends short of the report arena.
    let mut bytes = base.clone();
    set_u32(&mut bytes, SectionKind::SpReportOff, n, reports as u32 - 1);
    assert_bad_value(bytes, "report offsets end short of the arena");

    // A state listing one successor twice (`Nfa::add_edge` would drop
    // the repeat).
    let state = (0..n)
        .find(|&i| {
            let lo = table_u32(&base, SectionKind::SpSuccOff, i);
            table_u32(&base, SectionKind::SpSuccOff, i + 1) - lo >= 2
        })
        .expect("a state with two successors");
    let at = table_u32(&base, SectionKind::SpSuccOff, state) as usize;
    let mut bytes = base.clone();
    let target = table_u32(&base, SectionKind::SpSuccFlat, at);
    set_u32(&mut bytes, SectionKind::SpSuccFlat, at + 1, target);
    assert_bad_value(bytes, "duplicate successor");
}

#[test]
fn forged_codes_and_start_tables_fail_typed() {
    let base = base_image();
    let (codes, len) = payload_span(&base, SectionKind::SpCodes);
    let one = (0..len / 8)
        .map(|i| codes + 8 * i)
        .find(|&at| base[at..at + 2] == 1u16.to_ne_bytes())
        .expect("a single-symbol code");
    let set_code = |bytes: &mut Vec<u8>, tag: u16, a: u16, b: u32| {
        bytes[one..one + 2].copy_from_slice(&tag.to_ne_bytes());
        bytes[one + 2..one + 4].copy_from_slice(&a.to_ne_bytes());
        bytes[one + 4..one + 8].copy_from_slice(&b.to_ne_bytes());
    };

    // A symbol outside the 8-bit alphabet (`SymbolSet` would panic).
    let mut bytes = base.clone();
    set_code(&mut bytes, 1, 300, 0);
    assert_bad_value(bytes, "code symbol outside the alphabet");

    // The whole alphabet as a range, histogram kept consistent: the
    // rebuilt charset is full, so padding would match it but not the code.
    let (meta, _) = payload_span(&base, SectionKind::Meta);
    let count_at = |kind: usize| meta + (10 + kind) * 8;
    let mut bytes = base.clone();
    set_code(&mut bytes, 2, 0, 255);
    for (kind, delta) in [(1usize, -1i64), (2, 1)] {
        let at = count_at(kind);
        let count = u64::from_ne_bytes(bytes[at..at + 8].try_into().unwrap());
        let count = count.checked_add_signed(delta).unwrap();
        bytes[at..at + 8].copy_from_slice(&count.to_ne_bytes());
    }
    assert_bad_value(bytes, "full charset under a partial code");

    // A start LUT that wakes on a symbol no start accepts.
    let (lut, _) = payload_span(&base, SectionKind::SpStartLut);
    assert_eq!(base[lut] & 1, 0, "NUL wakes no start of the base");
    let mut bytes = base.clone();
    bytes[lut] |= 1;
    assert_bad_value(bytes, "start LUT");
}

#[test]
fn consistently_forged_successor_loads_and_every_engine_agrees() {
    // Retarget `a → b` of rule 0 to `a → y` of rule 1: a consistent
    // forgery (ids in range, no repeat, checksum fixed) of a different
    // automaton, in which `abc` can no longer match.
    let nfa = compile_rule_set(&["abc", "xyz"]).expect("rules compile");
    let compiled = CompiledPipeline::compile(
        &nfa,
        PipelineConfig::Identity,
        ShardSpec::MaxShards(1),
        EngineKind::Sparse,
    )
    .expect("compile");
    let state_of = |sym: u8| {
        compiled
            .nfa
            .states()
            .find(|(_, ste)| ste.charset().contains(u16::from(sym)))
            .expect("a state per symbol")
            .0
    };
    let (a, y) = (state_of(b'a'), state_of(b'y'));
    let mut bytes = compiled.to_bytes();
    let at = table_u32(&bytes, SectionKind::SpSuccOff, a.index()) as usize;
    set_u32(&mut bytes, SectionKind::SpSuccFlat, at, y.0);
    fix_checksum(&mut bytes);
    let loaded = MappedDb::load_bytes(&bytes)
        .expect("a consistent forgery loads")
        .into_pipeline();

    // The rebuilt automaton is the one the tables describe.
    assert_eq!(loaded.nfa.successors(a), [y]);
    assert_ne!(*loaded.nfa, *compiled.nfa);

    let input = b"abc xyz aab abc";
    let traces: Vec<Vec<(u64, u32)>> = EngineKind::ALL
        .iter()
        .map(|&kind| {
            let engine = ShardedEngine::from_prebuilt(
                Arc::clone(&loaded.nfa),
                loaded.sharded.plan().clone(),
                kind,
                Arc::clone(loaded.sharded.sparse()),
            );
            let trace = engine.run_trace(input).expect("trace");
            trace.iter().map(|e| (e.cycle, e.info.id)).collect()
        })
        .collect();
    assert_eq!(traces[0], [(6, 1)], "only `xyz` matches");
    assert!(traces.iter().all(|t| *t == traces[0]), "{traces:?}");
}

#[test]
fn spec_key_text_is_cross_checked() {
    let base = base_image();
    let (off, len) = payload_span(&base, SectionKind::SpecKey);
    assert!(len > 0);
    // "max-shards=1" → "max-shards=2": valid UTF-8, wrong parameters.
    let mut bytes = base.clone();
    bytes[off + len - 1] = b'2';
    fix_checksum(&mut bytes);
    assert!(matches!(load_err(&bytes), ArtifactError::BadValue { .. }));

    // A consistent forgery of `MaxShards(0)` — metadata tags, key text,
    // header key and checksum all agree — passes every identity check,
    // and the plan derived from it fails exactly as compiling would.
    let spec = ShardSpec::MaxShards(0);
    let (meta_off, _) = payload_span(&base, SectionKind::Meta);
    let (spec_tag, spec_value, oversize_tag) = spec.tags();
    let mut bytes = base.clone();
    for (field, value) in [(2, spec_tag), (3, spec_value), (4, oversize_tag)] {
        let at = meta_off + field * 8;
        bytes[at..at + 8].copy_from_slice(&value.to_ne_bytes());
    }
    bytes[off..off + len].copy_from_slice(spec.key_text().as_bytes());
    let key = pipeline_key(&source(), PipelineConfig::ALL[0], spec, EngineKind::ALL[0]);
    bytes[header_offset::PIPELINE_KEY..header_offset::PIPELINE_KEY + 8]
        .copy_from_slice(&key.0.to_ne_bytes());
    fix_checksum(&mut bytes);
    assert!(matches!(
        load_err(&bytes),
        ArtifactError::Automata(AutomataError::Capacity { budget: 0, .. })
    ));
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
