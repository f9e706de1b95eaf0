//! Sequential pattern mining (SPM): the densest reporting workload of the
//! evaluation — ~1,400 simultaneous reports every ~30 cycles. Shows how
//! the FIFO drain and report summarization keep Sunder stall-free where
//! buffer-based architectures melt down.
//!
//! Run with: `cargo run --release --example data_mining`

use sunder::baselines::ap::{evaluate, ApParams};
use sunder::sim::CountSink;
use sunder::transform::PipelineConfig;
use sunder::{Benchmark, InputView, Rate, Scale, SunderConfig, SunderMachine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale {
        state_fraction: 0.08,
        input_len: 150_000,
    };
    let workload = Benchmark::Spm.build(scale);
    println!(
        "SPM-like workload: {} states, {} report states, expecting ~{} reports",
        workload.nfa.num_states(),
        workload.nfa.report_states().len(),
        workload.expected_reports,
    );

    let (strided, _) = PipelineConfig::Stride4.apply(&workload.nfa)?;
    let view = InputView::new(&workload.input, 4, 4)?;

    // Without FIFO: overflowing regions flush (stall) the machine.
    let mut plain = SunderMachine::new(&strided, SunderConfig::with_rate(Rate::Nibble4))?;
    let mut sink = CountSink::new();
    let plain_stats = plain.run(&view, &mut sink);
    println!(
        "\nSunder w/o FIFO: {} reports, {} flushes, overhead {:.3}x",
        sink.reports,
        plain_stats.flushes,
        plain_stats.reporting_overhead(),
    );

    // With FIFO: the host drains continuously through Port 1.
    let mut fifo = SunderMachine::new(&strided, SunderConfig::with_rate(Rate::Nibble4).fifo(true))?;
    let fifo_stats = fifo.run(&view, &mut CountSink::new());
    println!(
        "Sunder w/ FIFO:  {} entries drained during execution, overhead {:.3}x",
        fifo_stats.fifo_drained_entries,
        fifo_stats.reporting_overhead(),
    );

    // Mining only needs to know *whether* an itemset occurred in an input
    // window, not the exact cycle: summarization reads one occurrence
    // vector per subarray instead of the full log.
    let mut burst_pus = 0;
    let mut occ_bits = 0u32;
    for pu in 0..plain.num_pus() {
        let mask = plain.summarize_pu(pu);
        if mask != 0 {
            burst_pus += 1;
            occ_bits += mask.count_ones();
        }
    }
    println!(
        "summarization: {} PUs hold reports; {} itemset-occurrence bits read in place",
        burst_pus, occ_bits,
    );

    // The same report stream through the AP's buffers.
    let ap = evaluate(&workload.nfa, &workload.input, ApParams::ap())?;
    let rad = evaluate(&workload.nfa, &workload.input, ApParams::ap_rad())?;
    println!(
        "\nAP reporting: overhead {:.2}x; AP+RAD: {:.2}x (RAD cannot compress dense bursts)",
        ap.reporting_overhead(),
        rad.reporting_overhead(),
    );
    Ok(())
}
