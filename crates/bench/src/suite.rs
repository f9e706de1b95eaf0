//! The supervised engine-comparison suite (library form of the `suite`
//! binary).
//!
//! Runs every benchmark of the 19-benchmark suite on all three functional
//! engines, verifies trace equality, measures throughput, and — unlike a
//! plain parallel map — runs every benchmark under the
//! `sunder-resilience` supervisor: a panicking, stalling, or failing
//! benchmark becomes a structured row in the report (with attribution)
//! while the rest of the suite completes. A deterministic
//! [`FaultPlan`] can inject failures for testing and CI smoke runs.
//!
//! Determinism: with `runs == 0` timing is skipped entirely (`ns` stays
//! zero) and every surviving row is byte-identical across runs, worker
//! counts, and fault plans — the property the resilience tests pin.
//!
//! Telemetry: with recording enabled (`--telemetry`), each benchmark runs
//! under a `suite.benchmark` span, exports `suite_reports_total` /
//! `suite_cycles_total` counters, and additionally drives the cycle-level
//! [`SunderMachine`] (16-bit rate, FIFO strategy) so the artifact carries
//! exact per-cause stall attribution. The machine pass is extra work the
//! plain suite never does — the cost of `--telemetry` is that pass, not
//! the instrumentation, which stays on one atomic load when disabled.

use std::time::{Duration, Instant};

use sunder_arch::{MachineFault, SunderConfig, SunderMachine};
use sunder_automata::InputView;
use sunder_resilience::{
    corrupt, supervise, FaultKind, FaultPlan, JobContext, JobError, JobOutcome, JobReport,
    JobValue, SupervisorPolicy, SupervisorSummary,
};
use sunder_sim::{
    AdaptiveEngine, AdaptiveLimits, Engine, EngineKind, NullSink, RunOutcome, TraceSink,
};
use sunder_telemetry::json::escape;
use sunder_transform::{PipelineConfig, Rate};
use sunder_workloads::{Benchmark, Scale, Workload};

use crate::args::OnlyFilter;
use crate::table::TextTable;

/// One benchmark's results across the three engines.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Automaton size.
    pub states: usize,
    /// Input length in bytes.
    pub input_bytes: usize,
    /// Reports emitted (identical across engines when `traces_equal`).
    pub reports: usize,
    /// Best-of-runs ns per engine, indexed like [`EngineKind::ALL`].
    /// All zero when timing was skipped (`runs == 0`).
    pub ns: [u64; 3],
    /// Mean active states per cycle (frontier density).
    pub avg_active: f64,
    /// Whether all three engines produced byte-identical traces.
    pub traces_equal: bool,
}

/// Suite configuration.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Workload scale.
    pub scale: Scale,
    /// Scale name recorded in the JSON output.
    pub scale_name: String,
    /// Timing passes per engine; `0` skips timing for deterministic rows.
    pub runs: u32,
    /// Worker threads.
    pub workers: usize,
    /// Per-benchmark wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Injected faults (empty = clean run).
    pub plan: FaultPlan,
    /// Benchmark filter (exact or substring selectors); empty runs
    /// everything.
    pub only: Vec<OnlyFilter>,
}

impl SuiteOptions {
    /// Small-scale options with no faults and no deadline.
    pub fn small(workers: usize) -> Self {
        SuiteOptions {
            scale: Scale::small(),
            scale_name: "small".to_string(),
            runs: 7,
            workers,
            deadline: None,
            plan: FaultPlan::none(),
            only: Vec::new(),
        }
    }
}

/// Resolves an `--only` selector list against the benchmark suite, in
/// list order and deduplicated. Exact selectors pick one benchmark;
/// substring selectors pick every benchmark whose name contains the text
/// (suite order within one selector). An empty list selects the whole
/// suite.
///
/// # Errors
///
/// A selector that matches no benchmark is a hard error — running a
/// silently empty suite would hide the typo.
pub fn select_benchmarks(only: &[OnlyFilter]) -> Result<Vec<Benchmark>, String> {
    if only.is_empty() {
        return Ok(Benchmark::ALL.to_vec());
    }
    let all_names = || {
        Benchmark::ALL
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = Vec::new();
    for filter in only {
        let matched: Vec<Benchmark> = Benchmark::ALL
            .iter()
            .filter(|b| filter.matches(b.name()))
            .copied()
            .collect();
        if matched.is_empty() {
            return Err(match filter {
                OnlyFilter::Exact(name) => {
                    format!("unknown benchmark {name:?}; choose from: {}", all_names())
                }
                OnlyFilter::Substring(sub) => format!(
                    "no benchmark name contains {sub:?}; choose from: {}",
                    all_names()
                ),
            });
        }
        for bench in matched {
            if !out.contains(&bench) {
                out.push(bench);
            }
        }
    }
    Ok(out)
}

/// The full suite outcome: one supervised report per benchmark.
#[derive(Debug)]
pub struct SuiteReport {
    /// Per-benchmark reports, in benchmark order.
    pub jobs: Vec<JobReport<SuiteRow>>,
    /// Outcome tallies.
    pub summary: SupervisorSummary,
    /// Wall-clock time of the whole suite.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Scale name (for rendering).
    pub scale_name: String,
}

impl SuiteReport {
    /// `true` when every surviving row's traces were engine-identical.
    pub fn traces_all_equal(&self) -> bool {
        self.jobs
            .iter()
            .filter_map(|j| j.outcome.value())
            .all(|r| r.traces_equal)
    }

    /// The process exit code the suite binary should use: `0` all ok,
    /// `1` trace mismatch, `3` completed with failed/timed-out/panicked
    /// jobs (partial results).
    pub fn exit_code(&self) -> u8 {
        if !self.traces_all_equal() {
            1
        } else if !self.summary.no_failures() {
            3
        } else {
            0
        }
    }
}

/// Builds the cycle-model machine the telemetry stage runs: the 16-bit
/// rate with the FIFO drain strategy, with any cycle-model faults from
/// the plan armed. Returns `None` when the workload cannot be
/// transformed or placed (cannot happen for the bundled benchmarks).
pub fn cycle_model_machine<'p>(
    workload: &Workload,
    faults: impl IntoIterator<Item = &'p FaultKind>,
) -> Option<SunderMachine> {
    let (strided, _) = PipelineConfig::Stride4.apply(&workload.nfa).ok()?;
    let config = SunderConfig::with_rate(Rate::Nibble4).fifo(true);
    let mut machine = SunderMachine::new(&strided, config).ok()?;
    for kind in faults {
        match kind {
            FaultKind::FifoOverflowStorm { from_cycle, cycles } => {
                machine.inject_fault(MachineFault::FifoOverflowStorm {
                    from_cycle: *from_cycle,
                    cycles: *cycles,
                });
            }
            FaultKind::StuckReportRow { pu } => {
                machine.inject_fault(MachineFault::StuckReportRow { pu: *pu });
            }
            _ => {}
        }
    }
    Some(machine)
}

/// The telemetry-only cycle-model pass: runs the [`SunderMachine`] on the
/// workload and exports its counters and per-cause stall histograms
/// labeled with the benchmark name. Only called when recording is on.
fn machine_telemetry_stage(
    bench: &Benchmark,
    workload: &Workload,
    opts: &SuiteOptions,
    index: usize,
) {
    let Some(mut machine) = cycle_model_machine(workload, opts.plan.faults_for(index)) else {
        return;
    };
    let Ok(view) = InputView::new(&workload.input, 4, 4) else {
        return;
    };
    let mut span = sunder_telemetry::span("machine.run");
    span.add_field("bench", bench.name());
    machine.run(&view, &mut NullSink);
    drop(span);
    machine.export_telemetry(bench.name());
}

/// Runs one benchmark through all three engines under `ctx`'s budget,
/// acting out any faults the plan assigns to this item.
fn run_benchmark(
    bench: &Benchmark,
    opts: &SuiteOptions,
    index: usize,
    ctx: &JobContext,
) -> Result<JobValue<SuiteRow>, JobError> {
    // Decode this item's faults up front.
    let mut stall: Option<u64> = None;
    let mut transient_failures = 0u32;
    let mut corrupt_seed: Option<u64> = None;
    let mut fail_dense_build = false;
    for kind in opts.plan.faults_for(index) {
        match kind {
            FaultKind::Panic => panic!("injected panic: benchmark {}", bench.name()),
            FaultKind::Stall { millis } => stall = Some(*millis),
            FaultKind::TransientError { failures } => transient_failures = *failures,
            FaultKind::CorruptInput { seed } => corrupt_seed = Some(*seed),
            FaultKind::DenseBuildFailure => fail_dense_build = true,
            // Cycle-model faults target `sunder_arch::SunderMachine`, not
            // the functional engines this suite runs; see the arch tests.
            FaultKind::FifoOverflowStorm { .. } | FaultKind::StuckReportRow { .. } => {}
            // Connection-level faults are acted out by the streaming
            // chaos client (`sunder serve-chaos`), not this worker pool.
            FaultKind::Disconnect { .. }
            | FaultKind::SlowDrip { .. }
            | FaultKind::MalformedFrame { .. }
            | FaultKind::ReloadDuringBurst { .. } => {}
        }
    }
    if ctx.attempt < transient_failures {
        return Err(JobError::Transient(format!(
            "injected transient failure {} of {transient_failures}",
            ctx.attempt + 1
        )));
    }
    if let Some(millis) = stall {
        std::thread::sleep(Duration::from_millis(millis));
    }

    let mut w = bench.build(opts.scale);
    if let Some(seed) = corrupt_seed {
        corrupt(&mut w.input, seed);
    }
    let input = InputView::new(&w.input, 8, 1)
        .map_err(|e| JobError::Fatal(format!("build byte view: {e}")))?;

    // Correctness first: all three engines must emit identical traces.
    // The injected dense-build failure degrades the adaptive engine to
    // sparse execution — the trace must STILL be identical.
    let mut traces = Vec::new();
    let mut degrade_note: Option<String> = None;
    for kind in EngineKind::ALL {
        let mut sink = TraceSink::new();
        let outcome = if kind == EngineKind::Adaptive && fail_dense_build {
            let limits = AdaptiveLimits {
                fail_dense_build: true,
                ..AdaptiveLimits::default()
            };
            let mut engine = AdaptiveEngine::with_limits(&w.nfa, limits);
            let outcome = Engine::run_budgeted(&mut engine, &input, &mut sink, &ctx.budget);
            degrade_note = engine.degrade_reason().map(|r| r.to_string());
            outcome
        } else {
            let mut engine = kind.build(&w.nfa);
            engine.run_budgeted(&input, &mut sink, &ctx.budget)
        };
        if let RunOutcome::Interrupted { reason, .. } = outcome {
            return match reason {
                sunder_sim::StopReason::DeadlineExpired => Err(JobError::TimedOut),
                sunder_sim::StopReason::Cancelled => {
                    Err(JobError::Fatal("cancelled mid-run".to_string()))
                }
            };
        }
        traces.push(sink.events);
    }
    let traces_equal = traces.windows(2).all(|w| w[0] == w[1]);

    // Frontier density, for the table's context column.
    struct Activity(u64, u64);
    impl sunder_sim::ReportSink for Activity {
        fn on_cycle_reports(&mut self, _cycle: u64, _reports: &[sunder_sim::ReportEvent]) {}

        fn on_cycle_activity(&mut self, _cycle: u64, active: usize) {
            self.0 += active as u64;
            self.1 += 1;
        }
    }
    let mut act = Activity(0, 0);
    let mut sparse = sunder_sim::Simulator::new(&w.nfa);
    sparse.run(&input, &mut act);
    let avg_active = act.0 as f64 / act.1.max(1) as f64;

    let time_engine = |kind: EngineKind| -> u64 {
        let mut best = u64::MAX;
        for _ in 0..opts.runs {
            let mut engine = kind.build(&w.nfa);
            let start = Instant::now();
            engine.run(&input, &mut NullSink);
            best = best.min(start.elapsed().as_nanos() as u64);
        }
        best
    };
    let ns = if opts.runs == 0 {
        [0; 3]
    } else {
        [
            time_engine(EngineKind::Sparse),
            time_engine(EngineKind::Dense),
            time_engine(EngineKind::Adaptive),
        ]
    };

    let row = SuiteRow {
        name: bench.name(),
        states: w.nfa.num_states(),
        input_bytes: w.input.len(),
        reports: traces[0].len(),
        ns,
        avg_active,
        traces_equal,
    };
    if sunder_telemetry::enabled() {
        let labels = [("bench", bench.name())];
        sunder_telemetry::counter_add("suite_reports_total", &labels, row.reports as u64);
        // Functional engines consume one byte per cycle.
        sunder_telemetry::counter_add("suite_cycles_total", &labels, row.input_bytes as u64);
        machine_telemetry_stage(bench, &w, opts, index);
    }
    match degrade_note {
        Some(reason) => Ok(JobValue::Degraded { value: row, reason }),
        None => Ok(JobValue::Ok(row)),
    }
}

/// Runs the whole suite under supervision. Unknown `only` names simply
/// select nothing here; the suite binary validates them up front with
/// [`select_benchmarks`].
pub fn run_suite(opts: &SuiteOptions) -> SuiteReport {
    let benches: Vec<Benchmark> = Benchmark::ALL
        .iter()
        .filter(|b| opts.only.is_empty() || opts.only.iter().any(|f| f.matches(b.name())))
        .copied()
        .collect();
    let policy = SupervisorPolicy {
        deadline: opts.deadline,
        retries: 2,
        backoff: Duration::from_millis(10),
        ..SupervisorPolicy::default()
    };
    let mut run_span = sunder_telemetry::span("suite.run");
    run_span.add_field("scale", opts.scale_name.as_str());
    run_span.add_field("workers", opts.workers);
    run_span.add_field("benchmarks", benches.len());
    let wall = Instant::now();
    let jobs = supervise(
        &benches,
        opts.workers,
        &policy,
        |_, bench| bench.name().to_string(),
        |i, bench, ctx| {
            let mut span = sunder_telemetry::span("suite.benchmark");
            span.add_field("bench", bench.name());
            run_benchmark(bench, opts, i, ctx)
        },
    );
    drop(run_span);
    let summary = SupervisorSummary::of(&jobs);
    SuiteReport {
        jobs,
        summary,
        wall: wall.elapsed(),
        workers: opts.workers,
        scale_name: opts.scale_name.clone(),
    }
}

/// Sparse time over engine `engine`'s time, or `None` when the row was
/// not timed (`runs == 0` leaves every `ns` at zero).
fn speedup(r: &SuiteRow, engine: usize) -> Option<f64> {
    (r.ns[0] > 0 && r.ns[engine] > 0).then(|| r.ns[0] as f64 / r.ns[engine] as f64)
}

/// A speedup as a JSON number (3 decimals), or `null` when untimed.
fn speedup_json(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v:.3}"))
}

/// One benchmark's JSON object. Surviving rows render their full metrics;
/// failed rows render name, status, and the failure detail — so partial
/// results are machine-readable with exact attribution.
fn render_job_json(job: &JobReport<SuiteRow>) -> String {
    let status = job.outcome.status();
    match &job.outcome {
        JobOutcome::Ok(r) | JobOutcome::Degraded { value: r, .. } => {
            let detail = match &job.outcome {
                JobOutcome::Degraded { reason, .. } => {
                    format!(", \"detail\": \"{}\"", escape(reason))
                }
                _ => String::new(),
            };
            format!(
                "{{\"name\": \"{}\", \"status\": \"{status}\", \"states\": {}, \
                 \"input_bytes\": {}, \"reports\": {}, \"avg_active\": {:.2}, \
                 \"sparse_ns\": {}, \"dense_ns\": {}, \"adaptive_ns\": {}, \
                 \"speedup_dense\": {}, \"speedup_adaptive\": {}, \
                 \"traces_equal\": {}{detail}}}",
                r.name,
                r.states,
                r.input_bytes,
                r.reports,
                r.avg_active,
                r.ns[0],
                r.ns[1],
                r.ns[2],
                speedup_json(speedup(r, 1)),
                speedup_json(speedup(r, 2)),
                r.traces_equal,
            )
        }
        JobOutcome::Panicked { message } => format!(
            "{{\"name\": \"{}\", \"status\": \"{status}\", \"detail\": \"{}\"}}",
            job.name,
            escape(message)
        ),
        JobOutcome::TimedOut { elapsed } => format!(
            "{{\"name\": \"{}\", \"status\": \"{status}\", \"detail\": \"exceeded deadline after {} ms\"}}",
            job.name,
            elapsed.as_millis()
        ),
        JobOutcome::Failed { error } => format!(
            "{{\"name\": \"{}\", \"status\": \"{status}\", \"detail\": \"{}\"}}",
            job.name,
            escape(error)
        ),
        JobOutcome::Cancelled => format!(
            "{{\"name\": \"{}\", \"status\": \"{status}\"}}",
            job.name
        ),
    }
}

/// Renders the machine-readable summary (what `suite --out` writes).
pub fn render_json(report: &SuiteReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", report.scale_name));
    out.push_str(&format!("  \"workers\": {},\n", report.workers));
    out.push_str("  \"engines\": [\"sparse\", \"dense\", \"adaptive\"],\n");
    let s = report.summary;
    out.push_str(&format!(
        "  \"summary\": {{\"ok\": {}, \"degraded\": {}, \"panicked\": {}, \
         \"timed_out\": {}, \"failed\": {}, \"cancelled\": {}}},\n",
        s.ok, s.degraded, s.panicked, s.timed_out, s.failed, s.cancelled
    ));
    out.push_str("  \"benchmarks\": [\n");
    for (i, job) in report.jobs.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&render_job_json(job));
        out.push_str(if i + 1 < report.jobs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the human-readable table plus the summary line.
pub fn render_table(report: &SuiteReport) -> String {
    let mut table = TextTable::new([
        "Benchmark",
        "Status",
        "States",
        "AvgActive",
        "Sparse ms",
        "Dense ms",
        "Adaptive ms",
        "Dense x",
        "Adaptive x",
        "TraceEq",
    ]);
    for job in &report.jobs {
        match job.outcome.value() {
            Some(r) => table.row([
                r.name.to_string(),
                job.outcome.status().to_string(),
                format!("{}", r.states),
                format!("{:.1}", r.avg_active),
                format!("{:.2}", r.ns[0] as f64 / 1e6),
                format!("{:.2}", r.ns[1] as f64 / 1e6),
                format!("{:.2}", r.ns[2] as f64 / 1e6),
                speedup(r, 1).map_or_else(|| "-".to_string(), |v| format!("{v:.2}")),
                speedup(r, 2).map_or_else(|| "-".to_string(), |v| format!("{v:.2}")),
                format!("{}", r.traces_equal),
            ]),
            None => table.row([
                job.name.clone(),
                job.outcome.status().to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]),
        }
    }
    let mut out = table.render();
    let survivors: Vec<&SuiteRow> = report
        .jobs
        .iter()
        .filter_map(|j| j.outcome.value())
        .collect();
    let adaptive: Option<Vec<f64>> = survivors.iter().map(|r| speedup(r, 2)).collect();
    if let Some(adaptive) = adaptive.filter(|a| !a.is_empty()) {
        let gmean = adaptive.iter().map(|v| v.ln()).sum::<f64>() / adaptive.len() as f64;
        out.push_str(&format!(
            "\nAdaptive geomean speedup over sparse: {:.2}x ({} benchmarks)",
            gmean.exp(),
            survivors.len()
        ));
    }
    out.push_str(&format!(
        "\nSuite: {}; wall time {:.2}s on {} workers\n",
        report.summary,
        report.wall.as_secs_f64(),
        report.workers
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> SuiteOptions {
        SuiteOptions {
            scale: Scale::tiny(),
            scale_name: "tiny".to_string(),
            runs: 0, // deterministic rows
            workers: 4,
            deadline: None,
            plan: FaultPlan::none(),
            only: Vec::new(),
        }
    }

    #[test]
    fn clean_tiny_suite_is_all_ok_and_exits_zero() {
        let report = run_suite(&tiny_opts());
        assert_eq!(report.jobs.len(), Benchmark::ALL.len());
        assert!(report.summary.all_ok(), "{}", report.summary);
        assert!(report.traces_all_equal());
        assert_eq!(report.exit_code(), 0);
        // Deterministic rows: ns stays zero with runs == 0.
        for job in &report.jobs {
            let row = job.outcome.value().expect("all ok");
            assert_eq!(row.ns, [0; 3]);
        }
    }

    #[test]
    fn json_rows_are_deterministic_across_worker_counts() {
        let mut opts = tiny_opts();
        let a = render_json(&run_suite(&opts));
        opts.workers = 1;
        let b = render_json(&run_suite(&opts));
        // The `workers` header differs; every benchmark row must not.
        let rows = |s: &str| {
            s.lines()
                .filter(|l| l.contains("\"name\""))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&a), rows(&b));
        assert_eq!(rows(&a).len(), Benchmark::ALL.len());
        // Untimed rows carry no speedup: `null`, never a false `0.000`.
        for row in rows(&a) {
            assert!(
                row.contains("\"speedup_dense\": null, \"speedup_adaptive\": null"),
                "{row}"
            );
        }
    }

    #[test]
    fn injected_transient_error_retries_to_success() {
        let mut opts = tiny_opts();
        opts.plan = FaultPlan::new(
            0,
            vec![sunder_resilience::Fault {
                item: 2,
                kind: FaultKind::TransientError { failures: 1 },
            }],
        );
        let report = run_suite(&opts);
        assert!(report.summary.all_ok());
        assert_eq!(report.jobs[2].attempts, 2);
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn only_filter_selects_a_subset_in_suite_order() {
        let mut opts = tiny_opts();
        opts.only = vec![OnlyFilter::exact("snort"), OnlyFilter::exact("Brill")];
        let report = run_suite(&opts);
        let names: Vec<&str> = report.jobs.iter().map(|j| j.name.as_str()).collect();
        // Suite order, not filter order.
        assert_eq!(names, ["Brill", "Snort"]);
        assert!(report.summary.all_ok());
    }

    #[test]
    fn substring_filter_selects_a_family_in_suite() {
        let mut opts = tiny_opts();
        opts.only = vec![OnlyFilter::substring("ranges")];
        let report = run_suite(&opts);
        let names: Vec<&str> = report.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, ["Ranges05", "Ranges1"]);
        assert!(report.summary.all_ok());
    }

    #[test]
    fn select_benchmarks_validates_names() {
        assert_eq!(select_benchmarks(&[]).unwrap(), Benchmark::ALL.to_vec());
        let picked = select_benchmarks(&[
            OnlyFilter::exact("spm"),
            OnlyFilter::exact("SPM"),
            OnlyFilter::exact("Snort"),
        ])
        .unwrap();
        assert_eq!(picked.len(), 2, "case-insensitive and deduplicated");
        let err = select_benchmarks(&[OnlyFilter::exact("NotABench")]).unwrap_err();
        assert!(
            err.contains("NotABench") && err.contains("choose from"),
            "{err}"
        );
    }

    #[test]
    fn select_benchmarks_substring_mode_expands_and_validates() {
        let picked = select_benchmarks(&[OnlyFilter::substring("dotstar")]).unwrap();
        let names: Vec<&str> = picked.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["Dotstar03", "Dotstar06", "Dotstar09"]);
        // Overlapping selectors stay deduplicated.
        let picked = select_benchmarks(&[
            OnlyFilter::exact("Dotstar06"),
            OnlyFilter::substring("dotstar"),
        ])
        .unwrap();
        assert_eq!(picked.len(), 3);
        assert_eq!(picked[0].name(), "Dotstar06", "list order wins");
        let err = select_benchmarks(&[OnlyFilter::substring("zzz")]).unwrap_err();
        assert!(err.contains("no benchmark name contains"), "{err}");
    }

    /// The acceptance tie at suite level: a `--telemetry` run's artifact
    /// must carry per-benchmark, per-cause stall-cycle totals exactly
    /// equal to the `RunStats` of an identically configured cycle-model
    /// run — including under injected cycle-model faults. This is the
    /// only bench test that touches the process-global telemetry state.
    #[test]
    fn telemetry_artifact_ties_stall_cycles_to_run_stats() {
        use sunder_arch::StallCause;
        use sunder_resilience::Fault;
        use sunder_sim::NullSink;

        let mut opts = tiny_opts();
        opts.only = vec![OnlyFilter::exact("Brill"), OnlyFilter::exact("Snort")];
        // Report states land on placement-dependent PUs, so stick every
        // Snort PU: any storm-forced overflow then wedges and recovers.
        let snort_pus = {
            let w = Benchmark::Snort.build(Scale::tiny());
            cycle_model_machine(&w, std::iter::empty::<&FaultKind>())
                .expect("placeable")
                .num_pus()
        };
        let mut faults = vec![
            // Item 0 (Brill): an overflow storm under the FIFO drain.
            Fault {
                item: 0,
                kind: FaultKind::FifoOverflowStorm {
                    from_cycle: 10,
                    cycles: 5,
                },
            },
            // Item 1 (Snort): a storm on top of stuck report rows,
            // wedging the FIFO so every overflow recovers via flush.
            Fault {
                item: 1,
                kind: FaultKind::FifoOverflowStorm {
                    from_cycle: 10,
                    cycles: 3,
                },
            },
        ];
        faults.extend((0..snort_pus).map(|pu| Fault {
            item: 1,
            kind: FaultKind::StuckReportRow { pu },
        }));
        opts.plan = FaultPlan::new(0, faults);

        sunder_telemetry::init(sunder_telemetry::Config::spans());
        let report = run_suite(&opts);
        let dump = sunder_telemetry::finish().unwrap();
        assert!(report.summary.all_ok(), "{}", report.summary);

        // The artifact validates and converts to a Chrome trace.
        let jsonl = dump.to_jsonl();
        let parsed = sunder_telemetry::Report::from_jsonl(&jsonl).unwrap();
        sunder_telemetry::json::parse(&dump.to_chrome_trace()).unwrap();
        assert!(parsed.spans >= 2, "one suite.benchmark span per job");

        // Reference runs: the same machine, same faults, outside telemetry.
        for (index, bench) in [Benchmark::Brill, Benchmark::Snort].iter().enumerate() {
            let w = bench.build(Scale::tiny());
            let mut machine =
                cycle_model_machine(&w, opts.plan.faults_for(index)).expect("placeable");
            let stats = machine.run(&InputView::new(&w.input, 4, 4).unwrap(), &mut NullSink);
            let att = machine.stall_attribution();
            assert!(stats.stall_cycles > 0, "{}: fault must stall", bench.name());

            let b = parsed
                .benches
                .iter()
                .find(|b| b.bench == bench.name())
                .expect("bench present in artifact");
            assert_eq!(b.input_cycles, Some(stats.input_cycles), "{}", bench.name());
            assert_eq!(b.stall_cycles(), stats.stall_cycles, "{}", bench.name());
            for cause in StallCause::ALL {
                let artifact_cycles = b
                    .stall_by_cause
                    .iter()
                    .find(|(c, _)| c == cause.name())
                    .map_or(0, |(_, cycles)| *cycles);
                assert_eq!(
                    artifact_cycles,
                    att.cycles(cause),
                    "{}: cause {}",
                    bench.name(),
                    cause.name()
                );
            }
            // Suite-level counters match the functional row.
            let row = report.jobs[index].outcome.value().expect("all ok");
            assert_eq!(b.reports, Some(row.reports as u64), "{}", bench.name());
            assert_eq!(b.cycles, Some(row.input_bytes as u64), "{}", bench.name());
        }
        // The stuck row actually exercised the recovery path on Snort.
        let snort = parsed.benches.iter().find(|b| b.bench == "Snort").unwrap();
        assert!(
            snort
                .stall_by_cause
                .iter()
                .any(|(c, cycles)| c == "stuck_row_recovery" && *cycles > 0),
            "stuck-report-row must surface as recovery stalls: {:?}",
            snort.stall_by_cause
        );
    }

    #[test]
    fn corrupt_input_still_yields_equal_traces() {
        // Bit-flipped input changes WHAT matches, never whether the three
        // engines agree — conformance must hold on corrupted bytes too.
        let mut opts = tiny_opts();
        opts.plan = FaultPlan::new(
            0,
            vec![sunder_resilience::Fault {
                item: 0,
                kind: FaultKind::CorruptInput { seed: 77 },
            }],
        );
        let report = run_suite(&opts);
        assert!(report.summary.all_ok());
        assert!(report.traces_all_equal());
    }
}
