//! First-order dynamic-energy accounting for machine runs.
//!
//! The paper reports subarray read powers (Table 2) but no end-to-end
//! energy; this module combines the run statistics the machine collects
//! (PU-work cycles, report entries, flushes) with the technology model's
//! power figures to estimate where a run's energy goes. Activity-gated
//! PUs consume only when they do work, which is exactly what
//! [`RunStats::pu_work_cycles`] counts.

use sunder_tech::params::SUNDER_8T;
use sunder_tech::{Architecture, PipelineTiming};

use crate::config::SunderConfig;
use crate::stats::RunStats;

/// Energy decomposition of one run, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyEstimate {
    /// Matching + interconnect reads on active PUs.
    pub kernel_pj: f64,
    /// Report-entry writes into the regions.
    pub reporting_pj: f64,
    /// Region drains (flush or FIFO row reads).
    pub drain_pj: f64,
}

impl EnergyEstimate {
    /// Total dynamic energy.
    pub fn total_pj(&self) -> f64 {
        self.kernel_pj + self.reporting_pj + self.drain_pj
    }

    /// Energy per input byte, if any input was consumed.
    pub fn pj_per_byte(&self, input_bytes: u64) -> f64 {
        if input_bytes == 0 {
            0.0
        } else {
            self.total_pj() / input_bytes as f64
        }
    }
}

/// Estimates the dynamic energy of a run.
///
/// Per PU-work cycle, one 8T matching read and one 8T crossbar read fire
/// (Table 2 read power over the Sunder clock); a report-entry write and a
/// row drain are charged as one row access each.
pub fn estimate(stats: &RunStats, config: &SunderConfig) -> EnergyEstimate {
    let freq_ghz = PipelineTiming::of(Architecture::Sunder).operating_freq_ghz;
    // mW / GHz = pJ per cycle.
    let read_pj = SUNDER_8T.read_power_mw / freq_ghz;
    let kernel_pj = stats.pu_work_cycles as f64 * 2.0 * read_pj;
    let reporting_pj = stats.report_entries as f64 * read_pj;
    let drained_rows = stats.fifo_drained_entries as f64 / config.entries_per_row() as f64
        + stats.flushes as f64 * config.report_rows() as f64;
    EnergyEstimate {
        kernel_pj,
        reporting_pj,
        drain_pj: drained_rows * read_pj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_transform::Rate;

    #[test]
    fn idle_run_costs_nothing() {
        let stats = RunStats {
            input_cycles: 1000,
            ..RunStats::default()
        };
        let e = estimate(&stats, &SunderConfig::with_rate(Rate::Nibble4));
        assert_eq!(e.total_pj(), 0.0);
        assert_eq!(e.pj_per_byte(2000), 0.0);
    }

    #[test]
    fn kernel_energy_scales_with_work() {
        let config = SunderConfig::with_rate(Rate::Nibble4);
        let one = estimate(
            &RunStats {
                pu_work_cycles: 1,
                ..RunStats::default()
            },
            &config,
        );
        let ten = estimate(
            &RunStats {
                pu_work_cycles: 10,
                ..RunStats::default()
            },
            &config,
        );
        assert!((ten.kernel_pj / one.kernel_pj - 10.0).abs() < 1e-9);
        // One PU-cycle = two 8T reads ≈ 3.4 pJ at 3.6 GHz.
        assert!((3.0..3.8).contains(&one.kernel_pj), "{}", one.kernel_pj);
    }

    #[test]
    fn reporting_and_drain_components() {
        let config = SunderConfig::with_rate(Rate::Nibble4);
        let e = estimate(
            &RunStats {
                pu_work_cycles: 100,
                report_entries: 50,
                flushes: 2,
                fifo_drained_entries: 16,
                ..RunStats::default()
            },
            &config,
        );
        assert!(e.reporting_pj > 0.0);
        assert!(e.drain_pj > 0.0);
        assert!(e.total_pj() > e.kernel_pj);
        // Flush of 192 rows dominates the 2-row FIFO drain.
        let flush_rows = 2.0 * 192.0;
        let fifo_rows = 16.0 / 8.0;
        assert!(
            (e.drain_pj / ((flush_rows + fifo_rows) * (SUNDER_8T.read_power_mw / 3.61)) - 1.0)
                .abs()
                < 0.05
        );
    }

    #[test]
    fn end_to_end_energy_from_machine_run() {
        use sunder_automata::regex::compile_rule_set;
        use sunder_automata::InputView;
        use sunder_transform::PipelineConfig;

        let nfa = compile_rule_set(&["abc"]).unwrap();
        let (strided, _) = PipelineConfig::Stride4.apply(&nfa).unwrap();
        let config = SunderConfig::with_rate(Rate::Nibble4);
        let mut machine = crate::SunderMachine::new(&strided, config).unwrap();
        let input = b"zzabczzabc";
        let view = InputView::new(input, 4, 4).unwrap();
        machine.run(&view, &mut sunder_sim::NullSink);
        let e = estimate(machine.stats(), &config);
        assert!(e.total_pj() > 0.0);
        assert!(e.pj_per_byte(input.len() as u64) > 0.0);
    }
}
