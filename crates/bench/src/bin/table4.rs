//! Regenerates the paper's Table 4: reporting overhead for 4-nibble
//! processing across Sunder (with/without FIFO), the AP, and AP+RAD.
//!
//! Usage: `cargo run -p sunder-bench --release --bin table4 [--small]
//! [--workers N]`
//!
//! Benchmarks run in parallel under the supervisor (one job per
//! benchmark); rows merge in benchmark order, so the output is identical
//! for any worker count. If a benchmark's row fails, the failed rows are
//! listed on stderr and the binary exits 3 (partial results).

use std::process::ExitCode;

use sunder_bench::args::BenchArgs;
use sunder_bench::error::{bench_main, BenchError};
use sunder_bench::harness::{run_table4, supervised_rows};
use sunder_bench::table::TextTable;
use sunder_workloads::Benchmark;

/// The paper's Table 4 reference values: (benchmark, Sunder w/o FIFO
/// flushes, Sunder overhead, FIFO flushes, FIFO overhead, AP, AP+RAD).
const PAPER: [(&str, u64, f64, u64, f64, f64, f64); 19] = [
    ("Brill", 666, 1.04, 0, 1.0, 7.07, 2.95),
    ("Bro217", 0, 1.0, 0, 1.0, 1.6, 1.3),
    ("Dotstar03", 0, 1.0, 0, 1.0, 1.0, 1.0),
    ("Dotstar06", 0, 1.0, 0, 1.0, 1.0, 1.0),
    ("Dotstar09", 0, 1.0, 0, 1.0, 1.0, 1.0),
    ("ExactMatch", 0, 1.0, 0, 1.0, 1.0, 1.0),
    ("PowerEN", 0, 1.0, 0, 1.0, 1.1, 1.05),
    ("Protomata", 0, 1.0, 0, 1.0, 5.8, 2.32),
    ("Ranges05", 0, 1.0, 0, 1.0, 1.0, 1.0),
    ("Ranges1", 0, 1.0, 0, 1.0, 1.0, 1.0),
    ("Snort", 1, 1.01, 0, 1.0, 46.0, 9.0),
    ("TCP", 0, 1.0, 0, 1.0, 3.8, 2.5),
    ("ClamAV", 0, 1.0, 0, 1.0, 1.0, 1.0),
    ("Hamming", 0, 1.0, 0, 1.0, 1.0, 1.0),
    ("Levenshtein", 0, 1.0, 0, 1.0, 1.0, 1.0),
    ("Fermi", 0, 1.0, 0, 1.0, 2.3, 1.5),
    ("RandomForest", 0, 1.0, 0, 1.0, 1.6, 1.3),
    ("SPM", 9212, 1.06, 3870, 1.03, 9.7, 9.7),
    ("EntityResolution", 0, 1.0, 0, 1.0, 2.25, 1.8),
];

fn run() -> Result<u8, BenchError> {
    let args = BenchArgs::from_env()?;
    if args.print_help(
        "table4",
        "Regenerates Table 4: reporting overhead for 4-nibble processing.",
    ) {
        return Ok(0);
    }
    args.init_telemetry();
    let (scale, scale_name) = args.scale_paper_default();
    let workers = args.workers;
    println!("Table 4: reporting overhead for four-nibble processing ({scale_name} scale)");
    println!("(paper values in parentheses)\n");

    let mut table = TextTable::new([
        "Benchmark",
        "Sunder #Fl",
        "(p)",
        "Sunder OH",
        "(p)",
        "FIFO #Fl",
        "(p)",
        "FIFO OH",
        "(p)",
        "AP OH",
        "(p)",
        "AP+RAD OH",
        "(p)",
    ]);

    let rows = supervised_rows(workers, |bench| {
        let _span = sunder_telemetry::span("table4.benchmark").field("bench", bench.name());
        run_table4(&bench.build(scale))
    });
    let Some(rows) = rows else {
        args.finish_telemetry()?;
        return Ok(3);
    };

    let mut sums = [0.0f64; 4]; // sunder, fifo, ap, rad
    for ((bench, paper), row) in Benchmark::ALL.iter().zip(PAPER.iter()).zip(rows) {
        sums[0] += row.sunder_overhead;
        sums[1] += row.fifo_overhead;
        sums[2] += row.ap_overhead;
        sums[3] += row.rad_overhead;
        table.row([
            bench.name().to_string(),
            format!("{}", row.sunder_flushes),
            format!("{}", paper.1),
            format!("{:.2}x", row.sunder_overhead),
            format!("{:.2}x", paper.2),
            format!("{}", row.fifo_flushes),
            format!("{}", paper.3),
            format!("{:.2}x", row.fifo_overhead),
            format!("{:.2}x", paper.4),
            format!("{:.2}x", row.ap_overhead),
            format!("{:.2}x", paper.5),
            format!("{:.2}x", row.rad_overhead),
            format!("{:.2}x", paper.6),
        ]);
    }
    let n = Benchmark::ALL.len() as f64;
    table.row([
        "Average".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{:.2}x", sums[0] / n),
        "1.00x".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{:.2}x", sums[1] / n),
        "1.00x".to_string(),
        format!("{:.2}x", sums[2] / n),
        "4.69x".to_string(),
        format!("{:.2}x", sums[3] / n),
        "2.23x".to_string(),
    ]);
    print!("{}", table.render());
    println!(
        "\nAverages feed Figure 8: sunder={:.3} ap={:.3} rad={:.3}",
        sums[0] / n,
        sums[2] / n,
        sums[3] / n
    );
    args.finish_telemetry()?;
    Ok(0)
}

fn main() -> ExitCode {
    bench_main(run)
}
