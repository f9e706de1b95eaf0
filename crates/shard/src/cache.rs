//! Content-addressed cache of compiled execution pipelines.
//!
//! Compiling a pipeline — FlexAmata nibble decomposition, temporal
//! striding, partitioning into shards — dominates the setup cost of a
//! batch submission and depends only on the automaton and the pipeline
//! configuration, never on the input streams. The cache keys a compiled
//! artifact by the `.sdb` key ([`sunder_artifact::pipeline_key`]): a 64-bit
//! FNV-1a hash over the compile-pipeline tag, the configuration name,
//! the sharding spec, the engine and the canonical textual (ANML)
//! serialization of the source automaton, so repeated stream
//! submissions against the same rule set skip re-transformation
//! entirely.
//!
//! The canonical serialization makes the key *content*-addressed: two
//! structurally identical automata hash identically no matter how they
//! were built. Hits and misses are exported as the
//! `pipeline_cache_hits_total` / `pipeline_cache_misses_total` telemetry
//! counters.
//!
//! With [`PipelineCache::with_disk`] the cache gains a second,
//! process-crossing tier: every compilation is written through as a
//! `<key>.sdb` artifact (`sunder-artifact` format), and a memory miss
//! first tries to *map* `dir/<key>.sdb` — validated, zero-copy — before
//! falling back to compilation. A stale, corrupt, or mismatched file is
//! simply ignored (the loader's typed rejection is the safety gate), so
//! the disk tier can never make a lookup fail that compilation would
//! have satisfied. Disk hits are counted separately
//! (`pipeline_cache_disk_hits_total`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sunder_artifact::{pipeline_key, CompiledPipeline, MappedDb, PipelineKey};
use sunder_automata::partition::ShardSpec;
use sunder_automata::{AutomataError, Nfa};
use sunder_sim::EngineKind;
use sunder_transform::PipelineConfig;

/// Thread-safe content-addressed cache of [`CompiledPipeline`]s.
#[derive(Debug)]
pub struct PipelineCache {
    spec: ShardSpec,
    engine: EngineKind,
    entries: Mutex<HashMap<u64, Arc<CompiledPipeline>>>,
    /// Artifact directory for the disk tier; `None` keeps the cache
    /// memory-only.
    disk: Option<PathBuf>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    // One (hit, miss) counter-handle pair per PipelineConfig, interned
    // at construction: the lookup fast path records one atomic per hit
    // instead of allocating a label set under the registry lock.
    counters: [(
        sunder_telemetry::CounterHandle,
        sunder_telemetry::CounterHandle,
    ); PipelineConfig::ALL.len()],
}

impl PipelineCache {
    /// An empty cache compiling with the given sharding spec and
    /// per-shard engine kind.
    pub fn new(spec: ShardSpec, engine: EngineKind) -> PipelineCache {
        PipelineCache {
            spec,
            engine,
            entries: Mutex::new(HashMap::new()),
            disk: None,
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            counters: PipelineConfig::ALL.map(|config| {
                let labels = [("config", config.name())];
                (
                    sunder_telemetry::counter_handle("pipeline_cache_hits_total", &labels),
                    sunder_telemetry::counter_handle("pipeline_cache_misses_total", &labels),
                )
            }),
        }
    }

    /// A cache with a disk tier rooted at `dir`: compilations are
    /// written through as `<key>.sdb` artifacts and memory misses try to
    /// map an existing artifact before compiling. The directory is
    /// created if absent; artifact i/o failures silently degrade to
    /// memory-only behavior (compilation is always the fallback).
    pub fn with_disk(
        spec: ShardSpec,
        engine: EngineKind,
        dir: impl Into<PathBuf>,
    ) -> PipelineCache {
        let dir = dir.into();
        let _ = std::fs::create_dir_all(&dir);
        let mut cache = PipelineCache::new(spec, engine);
        cache.disk = Some(dir);
        cache
    }

    /// The on-disk artifact path for `key`, when a disk tier is set.
    pub fn disk_path(&self, key: PipelineKey) -> Option<PathBuf> {
        self.disk.as_ref().map(|d| d.join(format!("{key}.sdb")))
    }

    /// Tries the disk tier: map, validate, and adopt `dir/<key>.sdb`.
    /// Any failure — absent file, corruption, stale hash, or a database
    /// whose identity does not match the requested key — returns `None`.
    fn load_from_disk(&self, key: PipelineKey) -> Option<CompiledPipeline> {
        let path = self.disk_path(key)?;
        let mapped = match MappedDb::open(&path) {
            Ok(db) => db,
            Err(e) => {
                if path.exists() {
                    sunder_telemetry::instant(
                        "pipeline_cache.disk_rejected",
                        &[
                            ("key", key.to_string().into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                }
                return None;
            }
        };
        // The loader proved the content hash; this guards the *file
        // name* (a db renamed to the wrong key, or parameters drifting
        // from the cache's own spec/engine).
        if mapped.pipeline().key != key {
            return None;
        }
        Some(mapped.into_pipeline())
    }

    /// Best-effort write-through of a fresh compilation.
    fn store_to_disk(&self, compiled: &CompiledPipeline) {
        let Some(path) = self.disk_path(compiled.key) else {
            return;
        };
        if let Err(e) = compiled.write(&path) {
            sunder_telemetry::instant(
                "pipeline_cache.disk_write_failed",
                &[("error", e.to_string().into())],
            );
        }
    }

    /// The pre-interned (hit, miss) counter handles for `config`.
    fn config_counters(
        &self,
        config: PipelineConfig,
    ) -> &(
        sunder_telemetry::CounterHandle,
        sunder_telemetry::CounterHandle,
    ) {
        let idx = PipelineConfig::ALL
            .iter()
            .position(|c| *c == config)
            .expect("every PipelineConfig is in ALL");
        &self.counters[idx]
    }

    /// The sharding spec used for compilation.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The per-shard engine kind used for compilation.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Returns the cached pipeline for (automaton, config), compiling
    /// and inserting it on a miss.
    ///
    /// # Errors
    ///
    /// Propagates compilation failures (nothing is cached on error).
    pub fn get_or_compile(
        &self,
        nfa: &Nfa,
        config: PipelineConfig,
    ) -> Result<Arc<CompiledPipeline>, AutomataError> {
        let key = pipeline_key(nfa, config, self.spec, self.engine);
        let (hits_total, misses_total) = self.config_counters(config);
        if let Some(hit) = self.entries.lock().unwrap().get(&key.0) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hits_total.add(1);
            return Ok(Arc::clone(hit));
        }
        // Disk tier: map a persisted artifact instead of recompiling.
        if let Some(loaded) = self.load_from_disk(key) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            sunder_telemetry::counter_add(
                "pipeline_cache_disk_hits_total",
                &[("config", config.name())],
                1,
            );
            let loaded = Arc::new(loaded);
            self.entries
                .lock()
                .unwrap()
                .insert(key.0, Arc::clone(&loaded));
            return Ok(loaded);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        misses_total.add(1);
        let compiled = Arc::new(CompiledPipeline::compile(
            nfa,
            config,
            self.spec,
            self.engine,
        )?);
        debug_assert_eq!(compiled.key, key);
        self.store_to_disk(&compiled);
        // Two racing compilers produce identical artifacts (compilation
        // is deterministic), so last-insert-wins is safe.
        self.entries
            .lock()
            .unwrap()
            .insert(key.0, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Disk-tier hits (artifacts mapped instead of recompiled) so far.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached pipelines.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::regex::compile_rule_set;

    fn cache() -> PipelineCache {
        PipelineCache::new(ShardSpec::MaxShards(4), EngineKind::Adaptive)
    }

    #[test]
    fn repeated_submissions_hit_the_cache() {
        let nfa = compile_rule_set(&["abc", "de+f"]).unwrap();
        let c = cache();
        let a = c.get_or_compile(&nfa, PipelineConfig::Nibble).unwrap();
        let b = c.get_or_compile(&nfa, PipelineConfig::Nibble).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must not recompile");
        assert_eq!((c.hits(), c.misses(), c.len()), (1, 1, 1));
    }

    #[test]
    fn key_is_content_addressed_not_identity_addressed() {
        // Build the same automaton twice through different calls: the
        // canonical serialization makes the keys collide (that's the point).
        let a = compile_rule_set(&["xy", "z{2}"]).unwrap();
        let b = compile_rule_set(&["xy", "z{2}"]).unwrap();
        let spec = ShardSpec::MaxShards(2);
        assert_eq!(
            pipeline_key(&a, PipelineConfig::Stride2, spec, EngineKind::Dense),
            pipeline_key(&b, PipelineConfig::Stride2, spec, EngineKind::Dense),
        );
    }

    #[test]
    fn distinct_configs_get_distinct_artifacts() {
        let nfa = compile_rule_set(&["abc"]).unwrap();
        let c = cache();
        for config in PipelineConfig::ALL {
            c.get_or_compile(&nfa, config).unwrap();
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.misses(), 4);
        let keys: std::collections::HashSet<u64> = PipelineConfig::ALL
            .iter()
            .map(|&cfg| pipeline_key(&nfa, cfg, ShardSpec::MaxShards(4), EngineKind::Adaptive).0)
            .collect();
        assert_eq!(keys.len(), 4, "keys must not collide across configs");
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "sunder-cache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn disk_tier_maps_instead_of_recompiling() {
        let dir = temp_dir("disk");
        let nfa = compile_rule_set(&["abc", "de+f"]).unwrap();

        // First cache: compiles and writes through.
        let c1 = PipelineCache::with_disk(ShardSpec::MaxShards(2), EngineKind::Sparse, &dir);
        let a = c1.get_or_compile(&nfa, PipelineConfig::Nibble).unwrap();
        assert_eq!((c1.misses(), c1.disk_hits()), (1, 0));
        let path = c1.disk_path(a.key).unwrap();
        assert!(path.exists(), "write-through must persist {path:?}");

        // Fresh cache, same dir: the artifact satisfies the lookup.
        let c2 = PipelineCache::with_disk(ShardSpec::MaxShards(2), EngineKind::Sparse, &dir);
        let b = c2.get_or_compile(&nfa, PipelineConfig::Nibble).unwrap();
        assert_eq!(
            (c2.misses(), c2.disk_hits()),
            (0, 1),
            "must map, not compile"
        );
        assert_eq!(a.key, b.key);
        let input = b"xxabcxdeefxx";
        assert_eq!(
            a.sharded.run_trace(input).unwrap(),
            b.sharded.run_trace(input).unwrap(),
            "mapped pipeline must execute identically"
        );
        // Second lookup on the same cache is a plain memory hit.
        let c = c2.get_or_compile(&nfa, PipelineConfig::Nibble).unwrap();
        assert!(Arc::ptr_eq(&b, &c));
        assert_eq!(c2.hits(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_through_is_the_compiled_image() {
        let dir = temp_dir("image");
        let nfa = compile_rule_set(&["ab+c", ".*net", "[0-9]{3}"]).unwrap();
        let spec = ShardSpec::MaxShards(2);
        for engine in EngineKind::ALL {
            let cache = PipelineCache::with_disk(spec, engine, &dir);
            for config in PipelineConfig::ALL {
                let cached = cache.get_or_compile(&nfa, config).unwrap();
                let written = std::fs::read(cache.disk_path(cached.key).unwrap()).unwrap();
                let compiled = CompiledPipeline::compile(&nfa, config, spec, engine).unwrap();
                assert!(
                    written == compiled.to_bytes(),
                    "{config}/{engine}: write-through differs from to_bytes"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_disk_artifact_falls_back_to_compilation() {
        let dir = temp_dir("corrupt");
        let nfa = compile_rule_set(&["xy+z"]).unwrap();
        let c1 = PipelineCache::with_disk(ShardSpec::MaxShards(1), EngineKind::Sparse, &dir);
        let a = c1.get_or_compile(&nfa, PipelineConfig::Identity).unwrap();
        let path = c1.disk_path(a.key).unwrap();

        // Flip a payload byte: the mapped load must be rejected and the
        // lookup must silently recompile (and repair the artifact).
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xA5;
        std::fs::write(&path, &bytes).unwrap();

        let c2 = PipelineCache::with_disk(ShardSpec::MaxShards(1), EngineKind::Sparse, &dir);
        let b = c2.get_or_compile(&nfa, PipelineConfig::Identity).unwrap();
        assert_eq!(
            (c2.misses(), c2.disk_hits()),
            (1, 0),
            "corrupt file must not hit"
        );
        assert_eq!(a.key, b.key);
        // The write-through replaced the corrupt file with a good one.
        let c3 = PipelineCache::with_disk(ShardSpec::MaxShards(1), EngineKind::Sparse, &dir);
        c3.get_or_compile(&nfa, PipelineConfig::Identity).unwrap();
        assert_eq!(c3.disk_hits(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_and_engine_are_part_of_the_key() {
        let nfa = compile_rule_set(&["abc"]).unwrap();
        let k1 = pipeline_key(
            &nfa,
            PipelineConfig::Identity,
            ShardSpec::MaxShards(2),
            EngineKind::Sparse,
        );
        let k2 = pipeline_key(
            &nfa,
            PipelineConfig::Identity,
            ShardSpec::MaxShards(4),
            EngineKind::Sparse,
        );
        let k3 = pipeline_key(
            &nfa,
            PipelineConfig::Identity,
            ShardSpec::MaxShards(2),
            EngineKind::Dense,
        );
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(k1.to_string().len(), 16, "zero-padded hex rendering");
    }
}
