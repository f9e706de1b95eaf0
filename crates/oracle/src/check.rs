//! The equivalence checker: every pipeline configuration against the
//! reference oracle.
//!
//! A *pipeline configuration* is one way the repository can prepare and
//! execute an automaton: keep its rate ([`PipelineConfig::Identity`])
//! or run the full FlexAmata + striding pipeline to one of the three
//! processing rates, then execute on any of the three functional engines.
//! [`check_pipelines`] runs the entire matrix (4 configurations × 3
//! engines), folds each trace back to original-symbol coordinates with
//! [`PositionMap`], and compares against [`oracle_trace`]. Along the way
//! it cross-validates the report sinks: the trace, count, and null sinks
//! observe the same run, so their aggregates must be consistent.

use sunder_automata::Nfa;
use sunder_sim::{CountSink, EngineKind, ReportEvent, ReportSink, TraceSink};
use sunder_transform::{PipelineConfig, PositionMap};
use sunder_workloads::{Benchmark, Scale, Workload};

use crate::reference::{oracle_trace, OracleTrace};

/// A conformance violation: one pipeline configuration disagreed with the
/// reference oracle (or with itself, when the sinks are inconsistent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Name of the pipeline configuration that diverged.
    pub config: &'static str,
    /// Name of the engine that diverged (empty if the failure happened
    /// before execution, e.g. in the transformation itself).
    pub engine: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// Oracle reports the pipeline failed to produce, in original-symbol
    /// coordinates.
    pub missing: Vec<(u64, u32)>,
    /// Pipeline reports the oracle never produced, in original-symbol
    /// coordinates.
    pub spurious: Vec<(u64, u32)>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}/{}] {}", self.config, self.engine, self.detail)?;
        if !self.missing.is_empty() {
            write!(f, "; missing {:?}", preview(&self.missing))?;
        }
        if !self.spurious.is_empty() {
            write!(f, "; spurious {:?}", preview(&self.spurious))?;
        }
        Ok(())
    }
}

impl std::error::Error for Divergence {}

fn preview(pairs: &[(u64, u32)]) -> &[(u64, u32)] {
    &pairs[..pairs.len().min(8)]
}

/// Runs one sink feeding two: the checker needs both the full event trace
/// and the streaming aggregates from the same run so it can cross-validate
/// the sink implementations against each other.
struct TeeSink {
    trace: TraceSink,
    count: CountSink,
}

impl ReportSink for TeeSink {
    fn on_cycle_reports(&mut self, cycle: u64, reports: &[ReportEvent]) {
        self.trace.on_cycle_reports(cycle, reports);
        self.count.on_cycle_reports(cycle, reports);
    }
}

/// Executes `transformed` on `input` with `kind` and compares the mapped
/// trace against the oracle's `expected` trace.
///
/// Exposed (rather than private to [`check_pipelines`]) so mutation tests
/// can feed a deliberately corrupted transformed automaton and assert the
/// checker catches it.
///
/// # Errors
///
/// Returns the [`Divergence`] describing the first disagreement: an input
/// framing error, inconsistent sink aggregates, a report position that
/// does not end an original symbol, or a missing/spurious report set.
pub fn compare_transformed(
    expected: &OracleTrace,
    transformed: &Nfa,
    map: PositionMap,
    config: PipelineConfig,
    kind: EngineKind,
    input: &[u8],
) -> Result<(), Box<Divergence>> {
    let diverged = |detail: String| {
        Box::new(Divergence {
            config: config.name(),
            engine: kind.name(),
            detail,
            missing: Vec::new(),
            spurious: Vec::new(),
        })
    };

    let view = sunder_automata::input::InputView::new(
        input,
        transformed.symbol_bits(),
        transformed.stride(),
    )
    .map_err(|e| diverged(format!("input framing error: {e}")))?;
    let mut engine = kind.build(transformed);
    let mut sink = TeeSink {
        trace: TraceSink::new(),
        count: CountSink::new(),
    };
    engine.run(&view, &mut sink);

    // Sink cross-validation: the count sink saw the same batches as the
    // trace sink, so its aggregates must match recomputing them from the
    // events.
    let events = &sink.trace.events;
    if sink.count.reports != events.len() as u64 {
        return Err(diverged(format!(
            "sink mismatch: count sink saw {} reports, trace sink stored {}",
            sink.count.reports,
            events.len()
        )));
    }
    let mut distinct_cycles = 0u64;
    let mut last = None;
    for e in events {
        if last != Some(e.cycle) {
            distinct_cycles += 1;
            last = Some(e.cycle);
        }
    }
    if sink.count.report_cycles != distinct_cycles {
        return Err(diverged(format!(
            "sink mismatch: count sink saw {} report cycles, trace has {}",
            sink.count.report_cycles, distinct_cycles
        )));
    }

    let pairs = sink.trace.position_id_pairs(transformed.stride());
    let got = map
        .trace_to_original(&pairs)
        .map_err(|e| diverged(format!("misaligned report: {e}")))?;

    if got != *expected {
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
                "trace mismatch: oracle has {} reports, pipeline has {}",
                expected.len(),
                got.len()
            ),
            missing,
            spurious,
        }));
    }
    Ok(())
}

/// Checks every pipeline configuration × engine for `nfa` over `input`
/// against the reference oracle.
///
/// # Errors
///
/// Returns the first [`Divergence`] found. Infrastructure errors (the
/// oracle or a transformation rejecting the automaton) are reported as
/// divergences too: a conformance run must never silently skip a
/// configuration.
pub fn check_pipelines(nfa: &Nfa, input: &[u8]) -> Result<(), Box<Divergence>> {
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
            compare_transformed(&expected, &transformed, map, config, kind, input)?;
        }
    }
    Ok(())
}

/// Checks one workload's automaton and input through the full matrix.
///
/// # Errors
///
/// See [`check_pipelines`].
pub fn check_workload(w: &Workload) -> Result<(), Box<Divergence>> {
    check_pipelines(&w.nfa, &w.input)
}

/// Runs [`check_workload`] over every suite benchmark at `scale`,
/// returning all divergences found (empty means full conformance).
pub fn check_suite(scale: Scale) -> Vec<(Benchmark, Box<Divergence>)> {
    let mut failures = Vec::new();
    for bench in Benchmark::ALL {
        if let Err(d) = check_workload(&bench.build(scale)) {
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
    fn clean_pipeline_passes() {
        let nfa = compile_rule_set(&["ab+c", ".*net", "[0-9]{3}"]).unwrap();
        check_pipelines(&nfa, b"zab-bc 192net abbbc 007x").unwrap();
    }

    #[test]
    fn anchored_pattern_passes_all_rates() {
        let nfa = compile_regex("^ab?c", 9).unwrap();
        check_pipelines(&nfa, b"acxabc ac").unwrap();
        check_pipelines(&nfa, b"").unwrap();
        check_pipelines(&nfa, b"a").unwrap();
    }

    #[test]
    fn corrupted_report_offset_is_caught() {
        // Shift a strided report offset: positions move, the diff shows it.
        let nfa = compile_regex("ab", 0).unwrap();
        let expected = oracle_trace(&nfa, b"abab").unwrap();
        let config = PipelineConfig::Stride2;
        let (mut transformed, map) = config.apply(&nfa).unwrap();
        let victim = transformed.report_states()[0];
        let reports: Vec<_> = transformed.state(victim).reports().to_vec();
        transformed.state_mut(victim).clear_reports();
        for r in &reports {
            let shifted = if r.offset == 0 { 1 } else { r.offset - 1 };
            transformed
                .state_mut(victim)
                .add_report(sunder_automata::ReportInfo::at_offset(r.id, shifted));
        }
        let err = compare_transformed(
            &expected,
            &transformed,
            map,
            config,
            EngineKind::Sparse,
            b"abab",
        )
        .unwrap_err();
        assert!(
            err.detail.contains("misaligned")
                || !err.missing.is_empty()
                || !err.spurious.is_empty(),
            "unexpected divergence shape: {err}"
        );
    }

    #[test]
    fn divergence_display_is_informative() {
        let d = Divergence {
            config: "stride2",
            engine: "dense",
            detail: "trace mismatch: oracle has 2 reports, pipeline has 1".into(),
            missing: vec![(3, 0)],
            spurious: Vec::new(),
        };
        let s = d.to_string();
        assert!(s.contains("stride2/dense"));
        assert!(s.contains("missing"));
    }
}
