//! Shared experiment harness: runs one benchmark through every reporting
//! architecture of Table 4.

use sunder_arch::{SunderConfig, SunderMachine};
use sunder_automata::InputView;
use sunder_baselines::ap::{ApParams, ApReportingModel};
use sunder_sim::{NullSink, Simulator};
use sunder_transform::{PipelineConfig, Rate};
use sunder_workloads::Workload;

/// Table 4 numbers for one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Table4Row {
    /// Sunder without the FIFO strategy: region-fill flushes.
    pub sunder_flushes: u64,
    /// Sunder without FIFO: reporting overhead (slowdown ≥ 1).
    pub sunder_overhead: f64,
    /// Sunder with FIFO: residual fills.
    pub fifo_flushes: u64,
    /// Sunder with FIFO: reporting overhead.
    pub fifo_overhead: f64,
    /// The AP's reporting overhead (8-bit rate).
    pub ap_overhead: f64,
    /// AP + RAD reporting overhead.
    pub rad_overhead: f64,
}

/// Runs the four reporting architectures of Table 4 on one workload.
///
/// Sunder executes the 4-nibble (16-bit) transformed automaton on the
/// cycle-level machine; the AP models consume the byte-level report stream
/// from the functional simulator, exactly mirroring the paper's
/// methodology (Section 7.1).
///
/// # Panics
///
/// Panics if the workload's automaton cannot be transformed or placed
/// (cannot happen for the bundled benchmarks).
pub fn run_table4(workload: &Workload) -> Table4Row {
    // Sunder at the 16-bit rate, with and without FIFO.
    let (strided, _) = PipelineConfig::Stride4
        .apply(&workload.nfa)
        .expect("transform");
    let view4 = InputView::new(&workload.input, 4, 4).expect("nibble view");

    let run_sunder = |fifo: bool| {
        let config = SunderConfig::with_rate(Rate::Nibble4).fifo(fifo);
        let mut machine = SunderMachine::new(&strided, config).expect("place");
        let stats = machine.run(&view4, &mut NullSink);
        // Two configs per benchmark: label them as separate dimensions so
        // stall attribution stays per-config in the artifact.
        if sunder_telemetry::enabled() {
            let suffix = if fifo { "fifo" } else { "flush" };
            machine.export_telemetry(&format!("{}/{suffix}", workload.benchmark.name()));
        }
        stats
    };
    let plain = run_sunder(false);
    let fifo = run_sunder(true);

    // AP / AP+RAD on the byte-level report stream.
    let view8 = InputView::new(&workload.input, 8, 1).expect("byte view");
    let run_ap = |params: ApParams| {
        let mut sim = Simulator::new(&workload.nfa);
        let mut model = ApReportingModel::new(&workload.nfa, params);
        sim.run(&view8, &mut model);
        model.stats().reporting_overhead()
    };

    Table4Row {
        sunder_flushes: plain.flushes,
        sunder_overhead: plain.reporting_overhead(),
        fifo_flushes: fifo.flushes,
        fifo_overhead: fifo.reporting_overhead(),
        ap_overhead: run_ap(ApParams::ap()),
        rad_overhead: run_ap(ApParams::ap_rad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_workloads::{Benchmark, Scale};

    #[test]
    fn quiet_benchmark_has_no_overhead_anywhere() {
        let w = Benchmark::ClamAv.build(Scale::tiny());
        let row = run_table4(&w);
        assert_eq!(row.sunder_flushes, 0);
        assert_eq!(row.sunder_overhead, 1.0);
        assert_eq!(row.ap_overhead, 1.0);
        assert_eq!(row.rad_overhead, 1.0);
    }

    #[test]
    fn snort_orders_architectures_correctly() {
        // Needs enough input volume to fill the AP's L1 buffers.
        let w = Benchmark::Snort.build(Scale::small());
        let row = run_table4(&w);
        assert!(row.sunder_overhead < row.ap_overhead);
        assert!(row.rad_overhead < row.ap_overhead);
        assert!(
            row.ap_overhead > 5.0,
            "AP must melt on Snort: {}",
            row.ap_overhead
        );
        assert!(row.fifo_overhead <= row.sunder_overhead);
        assert_eq!(row.fifo_overhead, 1.0);
    }
}
