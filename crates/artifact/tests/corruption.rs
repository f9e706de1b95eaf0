//! Corruption conformance: every mutant in the deterministic corpus
//! must be rejected with a typed [`ArtifactError`] — and no mutant,
//! must-error or not, may panic or read out of bounds. Each load runs
//! under `catch_unwind` so a panic inside the validator fails the suite
//! with the mutant's description rather than aborting it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sunder_artifact::corrupt::{corpus, fix_checksum};
use sunder_artifact::{CompiledPipeline, MappedDb};
use sunder_automata::partition::ShardSpec;
use sunder_automata::regex::compile_rule_set;
use sunder_oracle::PipelineConfig;
use sunder_sim::EngineKind;

/// The corpus base: small but structurally complete — one shard
/// (everything in the section table exercised), edges, charset
/// variety, and reporting states.
fn base_image() -> Vec<u8> {
    let nfa = compile_rule_set(&["ab+c", ".*net"]).expect("rules compile");
    let db = CompiledPipeline::compile(
        &nfa,
        PipelineConfig::ALL[0],
        ShardSpec::MaxShards(1),
        EngineKind::ALL[0],
    )
    .expect("compile");
    db.to_bytes()
}

#[test]
fn every_mutant_is_rejected_or_harmless_and_never_panics() {
    let base = base_image();
    MappedDb::load_bytes(&base).expect("corpus base must load cleanly");

    let mutants = corpus(&base, 0xC0FFEE);
    assert!(
        mutants.len() > 600,
        "corpus unexpectedly small: {}",
        mutants.len()
    );

    let mut rejected = 0usize;
    for mutant in &mutants {
        let bytes = mutant.bytes.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| MappedDb::load_bytes(&bytes)));
        match outcome {
            Err(_) => panic!("loader panicked on mutant: {}", mutant.description),
            Ok(Err(_)) => rejected += 1,
            Ok(Ok(_)) => {
                assert!(
                    !mutant.must_error,
                    "mutant loaded successfully but must be rejected: {}",
                    mutant.description
                );
            }
        }
    }
    // Every must-error mutant was rejected (the assert above), and the
    // corpus is not trivially all-accepting.
    assert!(rejected >= mutants.iter().filter(|m| m.must_error).count());
}

#[test]
fn corpus_is_deterministic() {
    let base = base_image();
    let a = corpus(&base, 99);
    let b = corpus(&base, 99);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.description, y.description);
        assert_eq!(x.bytes, y.bytes);
        assert_eq!(x.must_error, y.must_error);
    }
}

#[test]
fn repaired_mutants_that_load_still_execute_without_panicking() {
    // Defense in depth: a checksum-repaired mutant that slips through
    // validation must still be safe to *run* — the semantic validators
    // are supposed to guarantee that every table an engine touches is
    // in-bounds and self-consistent.
    let base = base_image();
    let input = b"xxabbbcyy internet zz".to_vec();
    for mutant in corpus(&base, 0xDEAD_BEEF) {
        if mutant.must_error {
            continue;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(db) = MappedDb::load_bytes(&mutant.bytes) {
                let _ = db.pipeline().sharded.run_trace(&input);
            }
        }));
        assert!(
            outcome.is_ok(),
            "execution panicked on repaired mutant: {}",
            mutant.description
        );
    }
}

#[test]
fn fix_checksum_restores_loadability() {
    let mut base = base_image();
    // Invalidate then repair: the repaired image must load again.
    let last = base.len() - 1;
    base[last] ^= 0x55;
    assert!(MappedDb::load_bytes(&base).is_err());
    base[last] ^= 0x55;
    fix_checksum(&mut base);
    MappedDb::load_bytes(&base).expect("repaired image loads");
}
