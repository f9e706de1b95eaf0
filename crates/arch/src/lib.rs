//! Cycle-level model of the Sunder in-SRAM automata-processing
//! microarchitecture (paper, Section 5).
//!
//! The crate models every structure in the paper's Figure 4:
//!
//! * [`subarray`] — the 256×256 dual-port 8T subarray with multi-row
//!   activation (matching) and column-wise OR (summarization);
//! * [`placement`] — mapping automata onto processing units under the
//!   256-state and `m`-report-column capacities;
//! * [`reporting`] — the in-place reporting region: ring buffer of
//!   `(m, n)`-bit entries, FIFO drain, flush, selective read, and
//!   summarization;
//! * [`machine`] — the executing device: state matching, local crossbar +
//!   global switch interconnect, reporting, and stall accounting;
//! * [`sensitivity`] — the analytic Figure 10 model.
//!
//! The machine is verified against the functional simulator: both produce
//! identical report streams for the same strided automaton (see the
//! integration tests).
//!
//! ```
//! use sunder_automata::regex::compile_rule_set;
//! use sunder_automata::InputView;
//! use sunder_arch::{SunderConfig, SunderMachine};
//! use sunder_transform::{PipelineConfig, Rate};
//!
//! let byte_nfa = compile_rule_set(&["evil", "bad[0-9]"])?;
//! let (nibble, _) = PipelineConfig::Stride4.apply(&byte_nfa)?;
//! let config = SunderConfig::with_rate(Rate::Nibble4);
//! let mut machine = SunderMachine::new(&nibble, config)?;
//! let input = InputView::new(b"an evil bad7 stream", 4, 4)?;
//! let mut reports = sunder_sim::CountSink::new();
//! let stats = machine.run(&input, &mut reports);
//! assert_eq!(reports.reports, 2);
//! assert_eq!(stats.reporting_overhead(), 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod energy;
pub mod interconnect;
pub mod machine;
pub mod placement;
pub mod reporting;
pub mod sensitivity;
pub mod stats;
pub mod subarray;

pub use config::SunderConfig;
pub use energy::EnergyEstimate;
pub use interconnect::InterconnectUsage;
pub use machine::{MachineFault, PlacementSummary, SunderMachine};
pub use placement::{place, Placement, PlacementError};
pub use reporting::{ReportEntry, ReportRegion};
pub use stats::{RunStats, StallAttribution, StallCause};
pub use subarray::Subarray;

#[cfg(test)]
mod machine_tests {
    use super::*;
    use sunder_automata::regex::compile_rule_set;
    use sunder_automata::InputView;
    use sunder_sim::{CountSink, Simulator, TraceSink};
    use sunder_transform::{PipelineConfig, Rate};

    /// The central correctness property: the hardware model and the
    /// functional simulator produce the same report stream.
    fn assert_machine_matches_sim(patterns: &[&str], input: &[u8], rate: Rate) {
        let byte_nfa = compile_rule_set(patterns).unwrap();
        let strided = PipelineConfig::from(rate).apply(&byte_nfa).unwrap().0;
        let view = InputView::new(input, 4, rate.nibbles_per_cycle()).unwrap();

        let mut sim = Simulator::new(&strided);
        let mut sim_trace = TraceSink::new();
        sim.run(&view, &mut sim_trace);

        let config = SunderConfig::with_rate(rate);
        let mut machine = SunderMachine::new(&strided, config).unwrap();
        let mut hw_trace = TraceSink::new();
        machine.run(&view, &mut hw_trace);

        let mut sim_events = sim_trace.events.clone();
        let mut hw_events = hw_trace.events.clone();
        sim_events.sort();
        hw_events.sort();
        assert_eq!(
            hw_events, sim_events,
            "machine diverged from simulator for {patterns:?} at {rate}"
        );
    }

    #[test]
    fn machine_equals_sim_simple() {
        for rate in Rate::ALL {
            assert_machine_matches_sim(&["abc"], b"xxabcxabcabc", rate);
        }
    }

    #[test]
    fn machine_equals_sim_classes_and_loops() {
        for rate in Rate::ALL {
            assert_machine_matches_sim(&["a[0-9]+b", ".*zz", "q"], b"a12b zz aq3b zzz qq", rate);
        }
    }

    #[test]
    fn machine_equals_sim_anchored() {
        for rate in Rate::ALL {
            assert_machine_matches_sim(&["^hdr", "body"], b"hdrbody hdr body", rate);
        }
    }

    #[test]
    fn machine_equals_sim_partial_tail() {
        // Input length not divisible by the vector width.
        for rate in Rate::ALL {
            assert_machine_matches_sim(&["abc", "c"], b"abc", rate);
            assert_machine_matches_sim(&["ab"], b"a", rate);
        }
    }

    #[test]
    fn machine_equals_sim_many_patterns_cross_pu() {
        // Enough report states to force multiple PUs (m = 12).
        let patterns: Vec<String> = (0..40)
            .map(|i| format!("p{:02}{}", i, (b'a' + (i % 26) as u8) as char))
            .collect();
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let mut input = Vec::new();
        for (i, p) in patterns.iter().enumerate().step_by(3) {
            input.extend_from_slice(p.as_bytes());
            input.extend_from_slice(if i % 2 == 0 { b"--" } else { b"#" });
        }
        assert_machine_matches_sim(&refs, &input, Rate::Nibble4);
        assert_machine_matches_sim(&refs, &input, Rate::Nibble1);
    }

    #[test]
    fn reports_land_in_region_and_read_back() {
        let byte_nfa = compile_rule_set(&["hit"]).unwrap();
        let strided = PipelineConfig::Stride4.apply(&byte_nfa).unwrap().0;
        let config = SunderConfig::with_rate(Rate::Nibble4);
        let mut machine = SunderMachine::new(&strided, config).unwrap();
        let view = InputView::new(b"xxhit...hit.", 4, 4).unwrap();
        let mut sink = CountSink::new();
        machine.run(&view, &mut sink);
        assert_eq!(sink.reports, 2);
        // Both entries are in PU 0's region, in cycle order.
        assert_eq!(machine.region_len(0), 2);
        let e0 = machine.peek_report(0, 0).unwrap();
        let e1 = machine.peek_report(0, 1).unwrap();
        assert!(e0.cycle < e1.cycle);
        assert_ne!(e0.report_mask, 0);
        // Summarization sees the same occurrence bits.
        let summary = machine.summarize_pu(0);
        assert_eq!(summary, e0.report_mask | e1.report_mask);
        assert!(machine.stats().summarize_stall_cycles > 0);
    }

    #[test]
    fn flush_stalls_accounted_without_fifo() {
        // A pattern that reports every cycle overflows the region:
        // capacity is 1536 entries at the 16-bit rate.
        let byte_nfa = compile_rule_set(&["[ -~]"]).unwrap(); // any printable
        let strided = PipelineConfig::Stride4.apply(&byte_nfa).unwrap().0;
        let config = SunderConfig::with_rate(Rate::Nibble4);
        let input_bytes: Vec<u8> = (0..8000u32).map(|i| b' ' + (i % 64) as u8).collect();
        let view = InputView::new(&input_bytes, 4, 4).unwrap();

        let mut machine = SunderMachine::new(&strided, config).unwrap();
        let stats = machine.run(&view, &mut sunder_sim::NullSink);
        // 4000 machine cycles, each reporting: 2 fills of 1536 + remainder.
        assert_eq!(stats.report_entries, 4000);
        assert_eq!(stats.flushes, 2);
        assert_eq!(stats.stall_cycles, 2 * config.flush_stall_cycles());
        assert!(stats.reporting_overhead() > 1.0);

        // FIFO drains at one row per 8 cycles = 1 entry/cycle: no stalls.
        let mut fifo_machine = SunderMachine::new(&strided, config.fifo(true)).unwrap();
        let fifo_stats = fifo_machine.run(&view, &mut sunder_sim::NullSink);
        assert_eq!(fifo_stats.flushes, 0, "FIFO should keep up");
        assert_eq!(fifo_stats.stall_cycles, 0);
        assert!(fifo_stats.fifo_drained_entries > 0);
    }

    #[test]
    fn placement_summary_reports_pus() {
        let byte_nfa = compile_rule_set(&["one", "two"]).unwrap();
        let strided = PipelineConfig::Stride2.apply(&byte_nfa).unwrap().0;
        let machine = SunderMachine::new(&strided, SunderConfig::with_rate(Rate::Nibble2)).unwrap();
        let s = machine.placement_summary();
        assert_eq!(s.pus, 1);
        assert_eq!(s.pus, machine.num_pus());
    }

    #[test]
    fn report_column_states_maps_bits() {
        let byte_nfa = compile_rule_set(&["aa", "bb"]).unwrap();
        let strided = PipelineConfig::Stride4.apply(&byte_nfa).unwrap().0;
        let machine = SunderMachine::new(&strided, SunderConfig::with_rate(Rate::Nibble4)).unwrap();
        let cols = machine.report_column_states(0);
        assert!(!cols.is_empty());
        for (bit, state) in cols {
            assert!((bit as usize) < machine.config().report_columns);
            assert!(strided.state(state).is_reporting());
        }
    }
}
