//! The acceptance tie at suite level: a `--telemetry` run's artifact
//! must carry per-benchmark, per-cause stall-cycle totals exactly equal
//! to the `RunStats` of an identically configured cycle-model run —
//! including under injected cycle-model faults.
//!
//! This test owns the process-global telemetry ring and registry, so it
//! must stay the only `#[test]` in this binary: any other test running
//! the suite in the same process would add its spans and counters.

use sunder_arch::StallCause;
use sunder_automata::InputView;
use sunder_bench::args::OnlyFilter;
use sunder_bench::suite::{cycle_model_machine, run_suite, SuiteOptions};
use sunder_resilience::{Fault, FaultKind, FaultPlan};
use sunder_sim::NullSink;
use sunder_workloads::{Benchmark, Scale};

#[test]
fn telemetry_artifact_ties_stall_cycles_to_run_stats() {
    let mut opts = SuiteOptions {
        scale: Scale::tiny(),
        scale_name: "tiny".to_string(),
        runs: 0, // deterministic rows
        workers: 4,
        deadline: None,
        plan: FaultPlan::none(),
        only: vec![OnlyFilter::exact("Brill"), OnlyFilter::exact("Snort")],
    };
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
        let mut machine = cycle_model_machine(&w, opts.plan.faults_for(index)).expect("placeable");
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
