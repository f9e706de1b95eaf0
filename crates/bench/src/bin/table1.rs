//! Regenerates the paper's Table 1: reporting behavior summary.
//!
//! Runs every synthetic benchmark through the functional simulator over its
//! generated input and prints the static and dynamic reporting statistics
//! next to the paper's values.
//!
//! Usage: `cargo run -p sunder-bench --release --bin table1 [--small]
//! [--workers N]`
//!
//! Benchmarks run in parallel under the supervisor (one job per
//! benchmark); the table is merged in benchmark order, so the output is
//! identical for any worker count. If a benchmark's row fails, the failed
//! rows are listed on stderr and the binary exits 3 (partial results).

use std::process::ExitCode;

use sunder_automata::stats::StaticStats;
use sunder_automata::InputView;
use sunder_bench::args::BenchArgs;
use sunder_bench::error::{bench_main, BenchError};
use sunder_bench::harness::supervised_rows;
use sunder_bench::table::TextTable;
use sunder_sim::{DynamicStatsSink, Simulator};
use sunder_workloads::Benchmark;

fn run() -> Result<u8, BenchError> {
    let args = BenchArgs::from_env()?;
    if args.print_help("table1", "Regenerates Table 1: reporting behavior summary.") {
        return Ok(0);
    }
    args.init_telemetry();
    let (scale, scale_name) = args.scale_paper_default();
    let small = scale_name == "small";
    let workers = args.workers;
    println!(
        "Table 1: reporting behavior summary ({} scale: {} states fraction, {} input bytes)",
        if small { "small" } else { "paper" },
        scale.state_fraction,
        scale.input_len
    );
    println!();

    let mut table = TextTable::new([
        "Benchmark",
        "Family",
        "#States",
        "(paper)",
        "#RepSTE",
        "(paper)",
        "#Reports",
        "(paper)",
        "#RepCycles",
        "(paper)",
        "Rep/RepCyc",
        "(paper)",
        "RepCyc%",
    ]);

    let rows = supervised_rows(workers, |bench| {
        let _span = sunder_telemetry::span("table1.benchmark").field("bench", bench.name());
        let w = bench.build(scale);
        let stats = StaticStats::of(&w.nfa);
        let input = InputView::new(&w.input, 8, 1).expect("byte view");
        let mut sim = Simulator::new(&w.nfa);
        let mut sink = DynamicStatsSink::new();
        sim.run(&input, &mut sink);
        (stats, sink.finish())
    });
    let Some(rows) = rows else {
        args.finish_telemetry()?;
        return Ok(3);
    };

    for (bench, (stats, d)) in Benchmark::ALL.iter().zip(rows) {
        let paper = bench.paper();
        let scale_note = |v: u64| -> String {
            if small {
                format!("{v}*")
            } else {
                format!("{v}")
            }
        };
        table.row([
            bench.name().to_string(),
            format!("{}", paper.family),
            format!("{}", stats.states),
            format!("{}", paper.states),
            format!("{}", stats.report_states),
            format!("{}", paper.report_states),
            format!("{}", d.reports),
            scale_note(paper.reports),
            format!("{}", d.report_cycles),
            scale_note(paper.report_cycles),
            format!("{:.2}", d.reports_per_report_cycle()),
            format!("{:.2}", paper.reports_per_report_cycle()),
            format!("{:.2}%", d.report_cycle_percent()),
        ]);
    }
    print!("{}", table.render());
    if small {
        println!(
            "\n(*) paper values are per 1 MB; small scale shrinks absolute counts proportionally."
        );
    }
    args.finish_telemetry()?;
    Ok(0)
}

fn main() -> ExitCode {
    bench_main(run)
}
