//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Rate vs. capacity** — the motivation for a *reconfigurable* rate:
//!    on a small device, a higher rate's state overhead (Table 3) forces
//!    extra reconfiguration rounds and can lose end-to-end.
//! 2. **Minimization** — what the prefix/suffix merging passes buy.
//! 3. **FIFO drain period** — how fast the host must drain for zero
//!    stalls.
//! 4. **Report columns (m)** — the capacity/geometry trade-off of the
//!    reporting region.
//!
//! Usage: `cargo run -p sunder-bench --release --bin ablation
//! [--telemetry PATH] [--quiet]`

use std::process::ExitCode;

use sunder_arch::{SunderConfig, SunderMachine};
use sunder_automata::InputView;
use sunder_bench::args::BenchArgs;
use sunder_bench::error::{bench_main, BenchError};
use sunder_bench::table::TextTable;
use sunder_core::{DeviceModel, Engine};
use sunder_llc::{HostBridge, SliceGeometry, SlicedLlc, WayPartition};
use sunder_sim::NullSink;
use sunder_tech::{Architecture, PipelineTiming};
use sunder_transform::{transform_to_rate_with, PipelineConfig, Rate, TransformOptions};
use sunder_workloads::{Benchmark, Scale};

fn run() -> Result<u8, BenchError> {
    let args = BenchArgs::from_env()?;
    if args.print_help(
        "ablation",
        "Ablation studies for the design choices DESIGN.md calls out.",
    ) {
        return Ok(0);
    }
    args.init_telemetry();
    for (name, study) in [
        ("rate_vs_capacity", rate_vs_capacity as fn()),
        ("minimization", minimization),
        ("fifo_drain_period", fifo_drain_period),
        ("report_columns", report_columns),
        ("host_traffic", host_traffic),
    ] {
        let _span = sunder_telemetry::span("ablation.study").field("study", name);
        study();
    }
    args.finish_telemetry()?;
    Ok(0)
}

fn main() -> ExitCode {
    bench_main(run)
}

/// Per-rate operating frequency: the matching array timing does not
/// change with the rate, so the Table 5 Sunder clock applies to all.
fn sunder_freq_ghz() -> f64 {
    PipelineTiming::of(Architecture::Sunder).operating_freq_ghz
}

fn rate_vs_capacity() {
    println!("== Ablation 1: processing rate vs. device capacity ==\n");
    // Levenshtein: the mesh family pays the steepest striding cost
    // (Table 3: 4-nibble ≈ 2.9x the 2-nibble state count), so the rate
    // trade-off actually crosses over as the device shrinks.
    let w = Benchmark::Levenshtein.build(Scale {
        state_fraction: 0.5,
        input_len: 4_096,
    });
    let mut table = TextTable::new([
        "Device PUs",
        "Rate",
        "States",
        "Rounds",
        "Gbps (kernel/rounds)",
        "Winner?",
    ]);
    for device_pus in [6usize, 12, 64] {
        let device = DeviceModel::with_pus(device_pus);
        let mut best: Option<(Rate, f64)> = None;
        let mut rows = Vec::new();
        for rate in Rate::ALL {
            // The raw transform, minimization off: cross-pattern prefix
            // merging would fuse the rule set into one giant component
            // that no small device fits; capacity planning works at
            // per-pattern granularity.
            let options = TransformOptions {
                minimize: false,
                prune: true,
            };
            let strided = transform_to_rate_with(&w.nfa, rate, options).expect("transform");
            let engine = Engine::builder().rate(rate).build();
            let program = engine.compile_precompiled(strided).expect("compile");
            match engine.plan_rounds(&program, device) {
                Ok(plan) => {
                    let gbps =
                        sunder_freq_ghz() * rate.bits_per_cycle() as f64 / plan.rounds() as f64;
                    rows.push((
                        rate,
                        program.strided_stats().states,
                        Some((plan.rounds(), gbps)),
                    ));
                    if best.map(|(_, b)| gbps > b).unwrap_or(true) {
                        best = Some((rate, gbps));
                    }
                }
                Err(_) => {
                    // A component alone exceeds the device at this rate —
                    // the strongest form of the capacity argument.
                    rows.push((rate, program.strided_stats().states, None));
                }
            }
        }
        for (rate, states, result) in rows {
            let (rounds, gbps, mark) = match result {
                Some((r, g)) => (
                    format!("{r}"),
                    format!("{g:.1}"),
                    if best.map(|(br, _)| br == rate).unwrap_or(false) {
                        "<-- best".to_string()
                    } else {
                        String::new()
                    },
                ),
                None => ("-".into(), "-".into(), "does not fit".into()),
            };
            table.row([
                format!("{device_pus}"),
                rate.to_string(),
                format!("{states}"),
                rounds,
                gbps,
                mark,
            ]);
        }
    }
    print!("{}", table.render());
    println!("\nOn small devices the 16-bit design's state overhead costs extra\nreconfiguration rounds and a lower rate wins end-to-end; with enough\nPUs the 16-bit rate wins — the paper's case for a reconfigurable rate.\n");
}

fn minimization() {
    println!("== Ablation 2: minimization passes ==\n");
    let mut table = TextTable::new(["Benchmark", "Rate", "Raw states", "Minimized", "Saved"]);
    for bench in [Benchmark::Bro217, Benchmark::ExactMatch] {
        let w = bench.build(Scale {
            state_fraction: 0.25,
            input_len: 1_024,
        });
        for rate in Rate::ALL {
            let raw = transform_to_rate_with(
                &w.nfa,
                rate,
                TransformOptions {
                    minimize: false,
                    prune: false,
                },
            )
            .expect("transform");
            let min = transform_to_rate_with(&w.nfa, rate, TransformOptions::default())
                .expect("transform");
            table.row([
                bench.name().to_string(),
                rate.to_string(),
                format!("{}", raw.num_states()),
                format!("{}", min.num_states()),
                format!(
                    "{:.0}%",
                    100.0 * (1.0 - min.num_states() as f64 / raw.num_states() as f64)
                ),
            ]);
        }
    }
    print!("{}", table.render());
    println!();
}

fn fifo_drain_period() {
    println!("== Ablation 3: FIFO drain period (Snort-like, dense reporting) ==\n");
    let w = Benchmark::Snort.build(Scale {
        state_fraction: 0.02,
        input_len: 60_000,
    });
    let (strided, _) = PipelineConfig::Stride4.apply(&w.nfa).expect("transform");
    let view = InputView::new(&w.input, 4, 4).expect("view");
    let mut table = TextTable::new([
        "Drain period (cycles/row)",
        "Fills",
        "Stall cycles",
        "Overhead",
    ]);
    for period in [4u32, 8, 16, 32, 64] {
        let mut config = SunderConfig::with_rate(Rate::Nibble4).fifo(true);
        config.drain_period_cycles = period;
        let mut machine = SunderMachine::new(&strided, config).expect("place");
        let stats = machine.run(&view, &mut NullSink);
        if sunder_telemetry::enabled() {
            machine.export_telemetry(&format!("ablation/drain{period}"));
        }
        table.row([
            format!("{period}"),
            format!("{}", stats.flushes),
            format!("{}", stats.stall_cycles),
            format!("{:.3}x", stats.reporting_overhead()),
        ]);
    }
    print!("{}", table.render());
    println!("\nOne row per 8 cycles (= 1 entry/cycle) is the break-even drain rate\nfor a region absorbing one entry per cycle.\n");
}

fn report_columns() {
    println!("== Ablation 4: report columns per subarray (m) ==\n");
    let w = Benchmark::Spm.build(Scale {
        state_fraction: 0.05,
        input_len: 60_000,
    });
    let (strided, _) = PipelineConfig::Stride4.apply(&w.nfa).expect("transform");
    let view = InputView::new(&w.input, 4, 4).expect("view");
    let mut table = TextTable::new([
        "m",
        "Entry bits",
        "Region capacity",
        "PUs",
        "Fills",
        "Overhead",
    ]);
    for m in [4usize, 8, 12, 20] {
        let mut config = SunderConfig::with_rate(Rate::Nibble4);
        config.report_columns = m;
        let mut machine = SunderMachine::new(&strided, config).expect("place");
        let stats = machine.run(&view, &mut NullSink);
        table.row([
            format!("{m}"),
            format!("{}", config.entry_bits()),
            format!("{}", config.region_capacity()),
            format!("{}", machine.num_pus()),
            format!("{}", stats.flushes),
            format!("{:.3}x", stats.reporting_overhead()),
        ]);
    }
    print!("{}", table.render());
    println!("\nSmaller m packs more entries per row but spreads report states over\nmore PUs; the paper picks m = 12 from the 3.9% mean report-state share.");
}

fn host_traffic() {
    println!("\n== Ablation 5: host communication for report readout ==\n");
    // A Brill-like run: bursty reporting, moderate volume.
    let w = Benchmark::Brill.build(Scale {
        state_fraction: 0.02,
        input_len: 60_000,
    });
    let (strided, _) = PipelineConfig::Stride4.apply(&w.nfa).expect("transform");
    let view = InputView::new(&w.input, 4, 4).expect("view");
    let config = SunderConfig::with_rate(Rate::Nibble4).fifo(false);
    let mut machine = SunderMachine::new(&strided, config).expect("place");
    let stats = machine.run(&view, &mut NullSink);

    // Sunder readout strategies through the LLC host bridge.
    let llc = SlicedLlc::new(4, SliceGeometry::xeon_2p5mb(), WayPartition::split(20, 8));
    let mut bridge = HostBridge::new(llc);
    let pus = machine.num_pus().min(bridge.pu_capacity());

    // (a) clflush the whole report region of every PU (bulk post-processing).
    for pu in 0..pus {
        bridge.clflush_region(pu, &config);
    }
    let full_bytes = bridge.traffic.bytes();

    // (b) selective: one row per PU that actually holds reports.
    let mut bridge_sel = HostBridge::new(SlicedLlc::new(
        4,
        SliceGeometry::xeon_2p5mb(),
        WayPartition::split(20, 8),
    ));
    let mut selective_rows = 0u64;
    for pu in 0..pus {
        let entries = machine.region_len(pu);
        let rows = entries.div_ceil(config.entries_per_row() as u64);
        for r in 0..rows {
            let _ = bridge_sel.read_row(pu, config.matching_rows() + r as usize);
            selective_rows += 1;
        }
    }
    let selective_bytes = bridge_sel.traffic.bytes();

    // (c) summarization: one occurrence vector per PU (m bits, but one
    // line load carries it).
    let summarized_bytes = pus as u64 * 64;

    // AP-style: every report cycle ships a 1088-bit vector per region.
    let ap_bytes = stats.report_cycles * 1088 / 8;

    let mut table = TextTable::new(["Strategy", "Bytes to host", "vs AP"]);
    for (label, bytes) in [
        ("AP-style vector offload", ap_bytes),
        ("Sunder clflush full regions", full_bytes),
        ("Sunder selective (occupied rows)", selective_bytes),
        ("Sunder summarize (1 line/PU)", summarized_bytes),
    ] {
        table.row([
            label.to_string(),
            format!("{bytes}"),
            format!("{:.1}%", 100.0 * bytes as f64 / ap_bytes as f64),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\n({} report entries across {} PUs; {} occupied rows read selectively)",
        stats.report_entries, pus, selective_rows
    );
    println!("In-place reporting lets the host fetch exactly what it needs;\nthe AP's architecture ships every region vector regardless.");
}
