//! Zero-copy mmap-able compiled pattern databases (`.sdb`).
//!
//! Compiling a pipeline — FlexAmata nibble decomposition, temporal
//! striding, engine tables — is the expensive half of deploying a rule
//! set; executing it is the cheap half. This crate serializes the
//! *compiled* form into a versioned, offset-based, checksummed on-disk
//! format so a process can [`MappedDb::open`] a database and start
//! matching without re-running any of the compilation: the one sparse
//! table set (CSR successors and reports, charset arenas, start index,
//! prefilter LUT), built over the whole transformed automaton, is
//! borrowed straight out of the mapping via `sunder_sim::TableBuf`, not
//! deserialized.
//!
//! The file stores only what cannot be derived, and the executable
//! automaton once: the tables. The loader rebuilds the transformed
//! automaton from them (`SparseTables::to_nfa`), so everything that reads
//! it (placement plan, dense tables, streaming sessions) sees exactly the
//! automaton the sparse engine runs. The shard placement plan is a pure
//! function of that automaton and the stored spec, so the loader
//! re-derives it with `ShardSpec::plan`, exactly as
//! [`CompiledPipeline::compile`] does; dense tables are built on first
//! use. The bytes written for one pipeline therefore never depend on
//! what has run since it was compiled.
//!
//! The trust model is explicit: a `.sdb` file is *data*, not code, and
//! may be truncated, bit-flipped, or adversarial. The loader therefore
//! validates in two phases — byte-level ([`validate::validate_bytes`]:
//! magic, version, endianness, checksum, section bounds/alignment/
//! overlap) before any typed slice exists, then typed semantic checks
//! (tag ranges, monotone offset tables, state-id bounds, checked size
//! arithmetic, agreement with the rebuilt automaton) before any table
//! reaches an engine. Every rejection is a
//! typed [`ArtifactError`]; the corruption conformance suite locks down
//! that no mutation panics or escapes validation.
//!
//! [`CompiledPipeline`] is the one compiled form on both sides of the
//! file: [`CompiledPipeline::compile`] builds it,
//! [`CompiledPipeline::write`] persists it, and [`MappedDb`] yields it
//! back with its tables borrowed from the mapping.
//!
//! The database is content-addressed: the header carries the same
//! FNV-1a [`pipeline_key`] the in-memory `PipelineCache` uses,
//! recomputed at load from the embedded source automaton and rejected
//! on mismatch ([`ArtifactError::StaleHash`]), so a cache can trust
//! `<key>.sdb` files on disk as a second tier.

#![warn(missing_docs)]

pub mod corrupt;
pub mod error;
pub mod format;
pub mod mapped;
pub mod validate;
pub mod write;

use std::sync::Arc;

use sunder_automata::partition::ShardSpec;
use sunder_automata::{anml, AutomataError, Nfa};
use sunder_sim::fastpath::SparseTables;
use sunder_sim::{EngineKind, ShardedEngine};
use sunder_transform::{PipelineConfig, PositionMap};

pub use error::ArtifactError;
pub use mapped::{MappedDb, Mapping};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain FNV-1a over a byte string — the payload checksum.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over separated parts, the fold behind every pipeline key: a
/// 0xff separator is folded in after each part so `("ab", "c")` and
/// `("a", "bc")` hash differently.
pub fn fnv1a_parts(parts: &[&str]) -> u64 {
    let mut h = FNV_OFFSET;
    for part in parts {
        for &b in part.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^= 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Names the compile pipeline behind `PipelineConfig::apply` in every
/// key. Change it whenever the pipeline starts producing a different
/// executable automaton from the same inputs, so databases compiled
/// before the change miss and are recompiled instead of mapped.
pub const COMPILE_PIPELINE_TAG: &str = "rate-transform+drop-start-subsumed/1";

/// A 64-bit content hash identifying one compiled pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineKey(pub u64);

impl std::fmt::Display for PipelineKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The pipeline key over already-serialized source ANML.
pub(crate) fn key_of_anml(
    config: PipelineConfig,
    spec: ShardSpec,
    engine: EngineKind,
    source_anml: &str,
) -> PipelineKey {
    PipelineKey(fnv1a_parts(&[
        COMPILE_PIPELINE_TAG,
        config.name(),
        &spec.key_text(),
        engine.name(),
        source_anml,
    ]))
}

/// The content-addressed key of `(source automaton, config, sharding
/// spec, engine)`: FNV-1a over the compile-pipeline tag, the three
/// parameters and the canonical ANML of the source. A cached pipeline
/// and its `<key>.sdb` file share this name.
pub fn pipeline_key(
    source: &Nfa,
    config: PipelineConfig,
    spec: ShardSpec,
    engine: EngineKind,
) -> PipelineKey {
    key_of_anml(config, spec, engine, &anml::serialize(source))
}

/// One compiled pipeline: its identity, the transformed automaton, the
/// position map folding its reports back to original-symbol coordinates,
/// and the engine ready to execute it.
///
/// This is the only compiled form. [`CompiledPipeline::compile`] builds
/// it, [`CompiledPipeline::to_bytes`] and [`CompiledPipeline::write`]
/// persist it, and [`MappedDb`] maps it back with its engine tables
/// borrowed from the file.
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// Content-addressed pipeline key.
    pub key: PipelineKey,
    /// Transformation configuration.
    pub config: PipelineConfig,
    /// Sharding spec.
    pub spec: ShardSpec,
    /// Engine kind.
    pub engine: EngineKind,
    /// Canonical ANML of the source (untransformed) automaton.
    pub source_anml: String,
    /// The transformed (executable) automaton, shared with the engine.
    pub nfa: Arc<Nfa>,
    /// Folds transformed report positions to original-symbol coordinates.
    pub map: PositionMap,
    /// One-engine execution over the transformed automaton, with its
    /// shard placement plan.
    pub sharded: ShardedEngine,
}

impl CompiledPipeline {
    /// Compiles `source` under `config`, plans its shard placement per
    /// `spec`, and prepares `engine` over the whole automaton.
    ///
    /// # Errors
    ///
    /// Propagates transformation and partitioning failures.
    pub fn compile(
        source: &Nfa,
        config: PipelineConfig,
        spec: ShardSpec,
        engine: EngineKind,
    ) -> Result<CompiledPipeline, AutomataError> {
        let source_anml = anml::serialize(source);
        let key = key_of_anml(config, spec, engine, &source_anml);
        let (nfa, map) = config.apply(source)?;
        let plan = spec.plan(&nfa)?;
        let sparse = Arc::new(SparseTables::build(&nfa));
        let nfa = Arc::new(nfa);
        let sharded = ShardedEngine::from_prebuilt(Arc::clone(&nfa), plan, engine, sparse);
        Ok(CompiledPipeline {
            key,
            config,
            spec,
            engine,
            source_anml,
            nfa,
            map,
            sharded,
        })
    }

    /// Number of shards in the placement plan.
    pub fn num_shards(&self) -> usize {
        self.sharded.num_shards()
    }
}

/// Another name for [`CompiledPipeline`]. Kept only because the
/// `benchmark/` package still uses it; nothing in the workspace does.
#[doc(hidden)]
pub type CompiledDb = CompiledPipeline;

/// Index of `config` in `PipelineConfig::ALL` (the stored tag).
pub(crate) fn config_tag(config: PipelineConfig) -> u64 {
    PipelineConfig::ALL
        .iter()
        .position(|c| *c == config)
        .expect("every config is in ALL") as u64
}

/// Index of `engine` in `EngineKind::ALL` (the stored tag).
pub(crate) fn engine_tag(engine: EngineKind) -> u64 {
    EngineKind::ALL
        .iter()
        .position(|e| *e == engine)
        .expect("every engine is in ALL") as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_matches_the_separated_fold() {
        // The parts fold must differ from hashing the concatenation.
        assert_ne!(fnv1a_parts(&["ab", "c"]), fnv1a_parts(&["a", "bc"]));
        assert_ne!(fnv1a_parts(&["abc"]), fnv1a_bytes(b"abc"));
    }

    #[test]
    fn key_covers_the_compile_pipeline() {
        // A database keyed before the pipeline tag existed folded only
        // these four parts; its key must not name a current pipeline.
        let anml = "automaton bits=8 stride=1\n";
        let spec = ShardSpec::MaxShards(4);
        for config in PipelineConfig::ALL {
            let untagged = fnv1a_parts(&[
                config.name(),
                &spec.key_text(),
                EngineKind::Sparse.name(),
                anml,
            ]);
            assert_ne!(
                key_of_anml(config, spec, EngineKind::Sparse, anml).0,
                untagged
            );
        }
    }
}
