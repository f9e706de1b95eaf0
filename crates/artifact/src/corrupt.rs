//! Deterministic corruption corpus for the conformance suite.
//!
//! [`corpus`] takes a *valid* database and a seed, and produces a fixed
//! set of mutants covering every rejection path the format promises:
//! truncation, every single-bit header flip, whole-section zeroing,
//! forged offsets/lengths/counts, forged identity fields, and random
//! payload damage both with and without a repaired checksum. The
//! contract, enforced by `tests/corruption.rs` and the CI smoke job, is
//! that loading any mutant with `must_error` yields a typed
//! [`crate::ArtifactError`] — and that *no* mutant, repaired or not,
//! ever panics or reads out of bounds.
//!
//! Everything here is deterministic (splitmix64 over the given seed),
//! so a failing mutant can be reproduced from its description alone.

use crate::fnv1a_bytes;
use crate::format::{
    header_offset, read_u32, read_u64, SectionKind, HEADER_LEN, SECTION_ENTRY_LEN,
};
use crate::validate::validate_bytes;

/// One corrupted database image.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// Human-readable provenance, e.g. `header-bit-flip byte=17 bit=3`.
    pub description: String,
    /// The mutated file image.
    pub bytes: Vec<u8>,
    /// When `true`, loading must fail with a typed error. When `false`
    /// (checksum-repaired random damage), loading may succeed or fail —
    /// the only requirement is that it must not panic.
    pub must_error: bool,
}

/// Recomputes the payload checksum over `bytes[64..]` and patches it
/// into the header, so a mutation of the checksummed region exercises
/// the *structural* validators instead of dying at the checksum gate.
///
/// # Panics
///
/// Panics if `bytes` is shorter than the fixed header.
pub fn fix_checksum(bytes: &mut [u8]) {
    assert!(bytes.len() >= HEADER_LEN, "no header to patch");
    let sum = fnv1a_bytes(&bytes[HEADER_LEN..]);
    bytes[header_offset::CHECKSUM..header_offset::CHECKSUM + 8].copy_from_slice(&sum.to_ne_bytes());
}

/// splitmix64: the standard 64-bit mixer, plenty for corpus generation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether zeroing the section of `kind` is guaranteed to be rejected.
///
/// Guaranteed rejections (given the section's payload was nonzero, which
/// the caller checks): identity text diverges from the header key
/// (`SourceAnml`), zeroed metadata contradicts the tables (`Meta`), key
/// text mismatches (`SpecKey`), the encoding histogram no longer counts
/// the codes (`SpCodes`), every sparse run holds at least two symbols and
/// must ascend (`SpSparseArena`), the start offsets and LUT must be the
/// ones the rebuilt automaton gives (`SpStartOff`, `SpStartLut`), and
/// offset tables must end at their flat table's length (`SpSuccOff`,
/// `SpReportOff`). Zeroed state ids, reports or dense words can describe
/// a different, self-consistent automaton.
fn zeroed_must_error(sections: &[(SectionKind, usize, usize)], kind: SectionKind) -> bool {
    let len_of = |k: SectionKind| sections.iter().find(|s| s.0 == k).map_or(0, |s| s.2);
    match kind {
        SectionKind::SourceAnml
        | SectionKind::Meta
        | SectionKind::SpecKey
        | SectionKind::SpCodes
        | SectionKind::SpSparseArena
        | SectionKind::SpStartOff
        | SectionKind::SpStartLut => true,
        SectionKind::SpSuccOff => len_of(SectionKind::SpSuccFlat) > 0,
        SectionKind::SpReportOff => len_of(SectionKind::SpReportFlat) > 0,
        _ => false,
    }
}

fn push(out: &mut Vec<Mutant>, description: String, bytes: Vec<u8>, must_error: bool) {
    out.push(Mutant {
        description,
        bytes,
        must_error,
    });
}

/// Builds the corruption corpus over a valid base image.
///
/// Sections whose zeroed form is byte-identical to the base (already
/// all-zero payloads) are skipped — there is nothing to corrupt.
///
/// # Panics
///
/// Panics if `base` is not itself a valid database: the corpus is
/// defined as damage applied to a known-good image.
pub fn corpus(base: &[u8], seed: u64) -> Vec<Mutant> {
    let raw = validate_bytes(base).expect("corpus base must be a valid database");
    let sections: Vec<_> = raw
        .sections
        .iter()
        .map(|s| (s.kind, s.offset, s.len))
        .collect();
    drop(raw);

    let mut out = Vec::new();

    // Truncations: inside the header (TooShort) and inside the payload
    // (LengthMismatch — the header still claims the full length).
    for cut in [
        0usize,
        1,
        HEADER_LEN - 1,
        base.len() / 4,
        base.len() / 2,
        base.len() - 1,
    ] {
        push(
            &mut out,
            format!("truncate to {cut} bytes"),
            base[..cut].to_vec(),
            true,
        );
    }

    // Every single-bit flip of the 64-byte header, checksum left alone.
    // The checksum only covers the payload, so each flip must be caught
    // by a field-specific check (magic, version, endianness, reserved
    // bytes, file length, stale pipeline key, section-table bounds, or a
    // now-missing section).
    for byte in 0..HEADER_LEN {
        for bit in 0..8 {
            let mut bytes = base.to_vec();
            bytes[byte] ^= 1 << bit;
            push(
                &mut out,
                format!("header bit flip byte={byte} bit={bit}"),
                bytes,
                true,
            );
        }
    }

    // Whole-section zeroing, checksum repaired so the structural and
    // semantic validators have to do the rejecting. Only sections whose
    // zeroed payload actually differs are emitted. `must_error` is set
    // only for sections whose zeroing is *provably* detectable; for the
    // rest (e.g. a successor list of all-zero state ids, which is
    // self-consistent), a zeroed form is valid-but-different data that
    // only the checksum distinguishes — those mutants stay in the corpus
    // as no-panic coverage.
    for &(kind, offset, len) in &sections {
        if base[offset..offset + len].iter().all(|&b| b == 0) {
            continue;
        }
        let mut bytes = base.to_vec();
        bytes[offset..offset + len].fill(0);
        fix_checksum(&mut bytes);
        push(
            &mut out,
            format!("zero section kind={kind:?}"),
            bytes,
            zeroed_must_error(&sections, kind),
        );
    }

    // Section-table forgeries (the table is checksummed, so repair it).
    let nonempty: Vec<usize> = (0..sections.len()).filter(|&i| sections[i].2 > 0).collect();
    if let Some(&i) = nonempty.first() {
        let entry = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let kind = sections[i].0;

        let mut bytes = base.to_vec();
        bytes[entry + 8..entry + 16].copy_from_slice(&(base.len() as u64).to_ne_bytes());
        fix_checksum(&mut bytes);
        push(
            &mut out,
            format!("section {kind:?}: offset moved to end of file"),
            bytes,
            true,
        );

        let mut bytes = base.to_vec();
        bytes[entry + 16..entry + 24].copy_from_slice(&u64::MAX.to_ne_bytes());
        fix_checksum(&mut bytes);
        push(
            &mut out,
            format!("section {kind:?}: length inflated to u64::MAX"),
            bytes,
            true,
        );

        let offset = read_u64(base, entry + 8);
        let mut bytes = base.to_vec();
        bytes[entry + 8..entry + 16].copy_from_slice(&(offset + 1).to_ne_bytes());
        fix_checksum(&mut bytes);
        push(
            &mut out,
            format!("section {kind:?}: offset misaligned by one"),
            bytes,
            true,
        );
    }
    if let [i, j, ..] = *nonempty.as_slice() {
        // Point section j at section i's payload: overlapping regions.
        let src = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let dst = HEADER_LEN + j * SECTION_ENTRY_LEN;
        let offset = read_u64(base, src + 8);
        let mut bytes = base.to_vec();
        bytes[dst + 8..dst + 16].copy_from_slice(&offset.to_ne_bytes());
        fix_checksum(&mut bytes);
        push(
            &mut out,
            format!(
                "sections {:?} and {:?} share an offset",
                sections[i].0, sections[j].0
            ),
            bytes,
            true,
        );
    }

    // Header-field forgeries.
    let mut bytes = base.to_vec();
    bytes[header_offset::SECTION_COUNT..header_offset::SECTION_COUNT + 4]
        .copy_from_slice(&u32::MAX.to_ne_bytes());
    push(
        &mut out,
        "section count forged to u32::MAX".into(),
        bytes,
        true,
    );

    let mut bytes = base.to_vec();
    bytes[header_offset::MAGIC..header_offset::MAGIC + 8].copy_from_slice(b"XUNDERDB");
    push(&mut out, "forged magic".into(), bytes, true);

    let current_version = read_u32(base, header_offset::VERSION);
    let mut bytes = base.to_vec();
    bytes[header_offset::VERSION..header_offset::VERSION + 4]
        .copy_from_slice(&(current_version + 1).to_ne_bytes());
    push(&mut out, "version from the future".into(), bytes, true);

    let endian = read_u32(base, header_offset::ENDIAN);
    let mut bytes = base.to_vec();
    bytes[header_offset::ENDIAN..header_offset::ENDIAN + 4]
        .copy_from_slice(&endian.swap_bytes().to_ne_bytes());
    push(&mut out, "byte-swapped endianness tag".into(), bytes, true);

    let checksum = read_u64(base, header_offset::CHECKSUM);
    let mut bytes = base.to_vec();
    bytes[header_offset::CHECKSUM..header_offset::CHECKSUM + 8]
        .copy_from_slice(&(checksum ^ 1).to_ne_bytes());
    push(&mut out, "forged checksum".into(), bytes, true);

    let key = read_u64(base, header_offset::PIPELINE_KEY);
    let mut bytes = base.to_vec();
    bytes[header_offset::PIPELINE_KEY..header_offset::PIPELINE_KEY + 8]
        .copy_from_slice(&(key ^ 1).to_ne_bytes());
    push(&mut out, "forged pipeline key".into(), bytes, true);

    // Random payload bit flips with the checksum left stale. A single
    // flipped bit always changes the FNV-1a fold (each step is a
    // bijection on the running hash), so these must all die at the
    // checksum gate.
    let mut state = seed;
    if base.len() > HEADER_LEN {
        for i in 0..64u32 {
            let r = splitmix64(&mut state);
            let byte = HEADER_LEN + (r as usize) % (base.len() - HEADER_LEN);
            let bit = (r >> 56) % 8;
            let mut bytes = base.to_vec();
            bytes[byte] ^= 1 << bit;
            push(
                &mut out,
                format!("payload bit flip #{i} byte={byte} bit={bit}"),
                bytes,
                true,
            );
        }

        // The same class of damage with the checksum repaired: defense in
        // depth. The validators may accept some of these (a flipped bit in
        // a report id or a successor id can leave consistent tables), so
        // the only assertion is no-panic.
        for i in 0..64u32 {
            let r = splitmix64(&mut state);
            let byte = HEADER_LEN + (r as usize) % (base.len() - HEADER_LEN);
            let bit = (r >> 56) % 8;
            let mut bytes = base.to_vec();
            bytes[byte] ^= 1 << bit;
            fix_checksum(&mut bytes);
            push(
                &mut out,
                format!("repaired payload bit flip #{i} byte={byte} bit={bit}"),
                bytes,
                false,
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = 42;
        let mut b = 42;
        for _ in 0..8 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
        let mut c = 43;
        assert_ne!(splitmix64(&mut a), splitmix64(&mut c));
    }
}
