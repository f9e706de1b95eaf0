//! Sharded-execution conformance: the sharding equivalence suite.
//!
//! Sharded execution (`sunder_sim::ShardedEngine`) promises that
//! partitioning an automaton into connected-component shards, running
//! each shard independently, and merging the per-shard report traces is
//! *byte-identical* to monolithic execution. [`check_sharded_pipelines`]
//! locks that promise down along both axes the repository cares about:
//!
//! * **against the monolithic engines** — for every pipeline
//!   configuration × engine kind × shard count, the merged trace must
//!   equal the monolithic trace event for event (cycle, state, report
//!   info — not just positions);
//! * **against the reference oracle** — the merged trace, folded back to
//!   original-symbol coordinates, must equal [`oracle_trace`], the
//!   engine-independent subset-construction executor.
//!
//! Failures are reported as [`Divergence`]s naming the configuration,
//! engine, and shard count, so the fuzzer and property tests can emit
//! reproducers with the same machinery as the monolithic checks.

use sunder_automata::partition::ShardSpec;
use sunder_automata::Nfa;
use sunder_sim::{EngineKind, ShardedEngine, TraceSink};
use sunder_transform::PipelineConfig;
use sunder_workloads::{Benchmark, Scale};

use crate::check::Divergence;
use crate::reference::oracle_trace;

/// Shard counts the sharded conformance suite sweeps by default.
pub const DEFAULT_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn diverged(config: PipelineConfig, kind: EngineKind, detail: String) -> Box<Divergence> {
    Box::new(Divergence {
        config: config.name(),
        engine: kind.name(),
        detail,
        missing: Vec::new(),
        spurious: Vec::new(),
    })
}

/// Checks sharded-vs-monolithic-vs-oracle equivalence for one automaton
/// and input over every pipeline configuration, every engine kind, and
/// every requested shard count.
///
/// # Errors
///
/// Returns the first [`Divergence`] found; infrastructure failures
/// (transformation, partitioning, input framing) are divergences too —
/// a conformance run must never silently skip a configuration.
pub fn check_sharded_pipelines(
    nfa: &Nfa,
    input: &[u8],
    shard_counts: &[usize],
) -> Result<(), Box<Divergence>> {
    let expected = oracle_trace(nfa, input).map_err(|e| {
        Box::new(Divergence {
            config: "oracle",
            engine: "",
            detail: format!("reference oracle rejected the automaton: {e}"),
            missing: Vec::new(),
            spurious: Vec::new(),
        })
    })?;
    for config in PipelineConfig::ALL {
        let (transformed, map) = config.apply(nfa).map_err(|e| {
            Box::new(Divergence {
                config: config.name(),
                engine: "",
                detail: format!("transformation failed: {e}"),
                missing: Vec::new(),
                spurious: Vec::new(),
            })
        })?;
        for kind in EngineKind::ALL {
            // Monolithic reference trace for this (config, engine).
            let view = sunder_automata::input::InputView::new(
                input,
                transformed.symbol_bits(),
                transformed.stride(),
            )
            .map_err(|e| diverged(config, kind, format!("input framing error: {e}")))?;
            let mut engine = kind.build(&transformed);
            let mut mono = TraceSink::new();
            engine.run(&view, &mut mono);

            for &shards in shard_counts {
                let spec = ShardSpec::MaxShards(shards);
                let sharded = ShardedEngine::new(&transformed, spec, kind).map_err(|e| {
                    diverged(
                        config,
                        kind,
                        format!("partitioning into {shards} failed: {e}"),
                    )
                })?;
                let merged = sharded.run_trace(input).map_err(|e| {
                    diverged(config, kind, format!("sharded run ({shards} shards): {e}"))
                })?;
                if merged != mono.events {
                    return Err(diverged(
                        config,
                        kind,
                        format!(
                            "sharded trace ({shards} shards, {} actual) has {} events, \
                             monolithic has {}",
                            sharded.num_shards(),
                            merged.len(),
                            mono.events.len()
                        ),
                    ));
                }
                // Fold to original coordinates and hold it against the
                // engine-independent oracle.
                let mut sink = TraceSink::new();
                sink.events = merged;
                let pairs = sink.position_id_pairs(transformed.stride());
                let got = map.trace_to_original(&pairs).map_err(|e| {
                    diverged(config, kind, format!("misaligned sharded report: {e}"))
                })?;
                if got != expected {
                    let missing: Vec<_> = expected
                        .iter()
                        .filter(|p| !got.contains(p))
                        .copied()
                        .collect();
                    let spurious: Vec<_> = got
                        .iter()
                        .filter(|p| !expected.contains(p))
                        .copied()
                        .collect();
                    return Err(Box::new(Divergence {
                        config: config.name(),
                        engine: kind.name(),
                        detail: format!(
                            "sharded trace ({shards} shards) disagrees with the oracle: \
                             oracle has {} reports, sharded has {}",
                            expected.len(),
                            got.len()
                        ),
                        missing,
                        spurious,
                    }));
                }
            }
        }
    }
    Ok(())
}

/// Runs [`check_sharded_pipelines`] over every suite benchmark at
/// `scale` with [`DEFAULT_SHARD_COUNTS`], returning all divergences
/// found (empty means full sharded conformance).
pub fn check_sharded_suite(scale: Scale) -> Vec<(Benchmark, Box<Divergence>)> {
    let mut failures = Vec::new();
    for bench in Benchmark::ALL {
        let w = bench.build(scale);
        if let Err(d) = check_sharded_pipelines(&w.nfa, &w.input, &DEFAULT_SHARD_COUNTS) {
            failures.push((bench, d));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::regex::{compile_regex, compile_rule_set};

    #[test]
    fn multi_pattern_rule_set_is_shard_conformant() {
        let nfa = compile_rule_set(&["ab+c", ".*net", "[0-9]{3}", "xy", "^q"]).unwrap();
        check_sharded_pipelines(&nfa, b"zab-bc 192net abbbc 007xy q", &DEFAULT_SHARD_COUNTS)
            .unwrap();
    }

    #[test]
    fn single_component_and_empty_input_pass() {
        let nfa = compile_regex("^ab?c", 4).unwrap();
        check_sharded_pipelines(&nfa, b"acxabc", &[1, 2, 8]).unwrap();
        check_sharded_pipelines(&nfa, b"", &[1, 3]).unwrap();
    }

    #[test]
    fn corrupted_merge_would_be_caught() {
        // Sanity-check the checker itself: a shard count of zero is a
        // partitioning error and must surface as a divergence, not a skip.
        let nfa = compile_regex("ab", 0).unwrap();
        let err = check_sharded_pipelines(&nfa, b"abab", &[0]).unwrap_err();
        assert!(err.detail.contains("partitioning"), "{err}");
    }
}
