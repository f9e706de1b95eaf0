//! Metric names, units, and the result line.
//!
//! The names here are the ones `BENCHMARK.json` lists; the smoke test
//! checks the two against each other.

use std::collections::BTreeMap;

use crate::rep::Ops;
use crate::stats::{Better, Summary};

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: None,
    }
}

const fn bounded(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        bound: Some(bound),
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    bounded("setup_s", "s", 0.25),
    bounded("throughput_mbps", "MB/s", 0.25),
    bounded("latency_p50_us", "us", 0.25),
    bounded("latency_p99_us", "us", 0.25),
    bounded("peak_rss_mb", "MB", 0.10),
];

/// Single layers, named `<crate>.<module or function>.<what>`.
pub const PER_LAYER: &[MetricDef] = &[
    def("automata.input_view_mbps", "MB/s"),
    def("automata.anml_parse_s", "s"),
    def("automata.partition_s", "s"),
    def("artifact.open_s", "s"),
    def("artifact.write_s", "s"),
    def("artifact.sdb_bytes", "B"),
    def("artifact.borrowed_tables", "count"),
    def("transform.apply_s", "s"),
    def("transform.state_ratio", "ratio"),
    def("sim.build_s", "s"),
    def("sim.step_mbps.sparse", "MB/s"),
    def("sim.step_mbps.dense", "MB/s"),
    def("sim.step_mbps.adaptive", "MB/s"),
    def("sim.trace_sink_mbps", "MB/s"),
    def("sim.reports_per_byte", "1/B"),
    def("sim.merge_us", "us"),
    def("sim.sharded_run_mbps", "MB/s"),
    def("sim.shard_overhead", "ratio"),
    def("sim.prefilter_skipped_share", "ratio"),
    def("sim.engine_switches", "count"),
    def("sim.run_chunk_us", "us"),
    def("shard.cache.key_s", "s"),
    def("shard.scheduler.busy_share", "ratio"),
    def("shard.scheduler.steals", "count"),
    def("shard.session.framer_mbps", "MB/s"),
    def("shard.session.feed_mbps", "MB/s"),
    def("shard.frame.encode_mbps", "MB/s"),
    def("shard.frame.decode_mbps", "MB/s"),
    def("shard.server.transport_share", "ratio"),
    def("shard.server.queue_wait_p50_us", "us"),
    def("shard.server.service_p50_us", "us"),
    def("shard.server.service_p99_us", "us"),
    def("shard.server.backpressure_stalls", "count"),
    def("shard.server.session_open_us", "us"),
    def("shard.server.threads", "count"),
    def("shard.server.chunk_p999_us", "us"),
    def("shard.server.gen_late_share", "ratio"),
    def("telemetry.trace_overhead_share", "ratio"),
];

/// Measured values by metric name; one taken per repetition carries the
/// repetitions' median and range.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, Option<Summary>)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// Sets `name` to the good-side quartile of the per-repetition `values`.
    pub fn set_quartile(&mut self, name: &'static str, values: &[f64], better: Better) {
        if let Some(summary) = Summary::of(values, better) {
            self.values.insert(name, (summary.quartile, Some(summary)));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    pub ops: Ops,
}

impl Outcome {
    /// An outcome for a run that could not even start measuring.
    pub fn aborted(why: String) -> Outcome {
        let mut ops = Ops::default();
        ops.attempt(Err(why));
        Outcome {
            metrics: Metrics::default(),
            ops,
        }
    }

    /// `true` when every operation succeeded and every metric of `defs`
    /// was measured as a finite number.
    pub fn correct(&self, defs: &[MetricDef]) -> bool {
        self.ops.failed == 0
            && self.ops.attempted > 0
            && defs
                .iter()
                .all(|d| self.metrics.get(d.name).is_some_and(f64::is_finite))
    }

    /// Prints every metric of `defs` by name with its unit — and, for
    /// per-repetition metrics, the sample count, median and range — then
    /// the failures.
    pub fn print_table(&self, workload: &str, defs: &[MetricDef]) {
        for d in defs {
            match self.metrics.values.get(d.name) {
                Some((value, Some(s))) => println!(
                    "{workload:14} {:34} {value:>14.4} {:6} (good-side quartile of {}; median {:.4}, min {:.4}, max {:.4})",
                    d.name, d.unit, s.n, s.median, s.min, s.max
                ),
                Some((value, None)) => {
                    println!("{workload:14} {:34} {value:>14.4} {}", d.name, d.unit)
                }
                None => println!("{workload:14} {:34} {:>14} {}", d.name, "MISSING", d.unit),
            }
        }
        println!(
            "{workload:14} {:34} {:>14} of {} operations",
            "failed", self.ops.failed, self.ops.attempted
        );
        for why in &self.ops.failures {
            println!("FAILED {why}");
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric of `defs` with all its digits.
    pub fn json_line(&self, defs: &[MetricDef], quick: bool) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = self
                    .metrics
                    .get(d.name)
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, {}\"metrics\": {{{}}}}}",
            self.correct(defs),
            self.ops.attempted.max(1),
            self.ops.failed,
            if quick { "\"quick\": true, " } else { "" },
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn the_result_line_is_json_with_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            metrics: Metrics::default(),
            ops: Ops::default(),
        };
        outcome.ops.attempt(Ok(()));
        for d in END_TO_END {
            outcome.metrics.set(d.name, 1.25);
        }
        let line = outcome.json_line(END_TO_END, false);
        let v = sunder_telemetry::json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(1));
        assert_eq!(v.get("failed").and_then(|a| a.as_u64()), Some(0));
        assert!(line.starts_with("{\"correct\": true"));
        let m = v.get("metrics").unwrap();
        for d in END_TO_END {
            let entry = m.get(d.name).unwrap();
            assert_eq!(entry.get("value").and_then(|x| x.as_f64()), Some(1.25));
            assert_eq!(entry.get("unit").and_then(|x| x.as_str()), Some(d.unit));
        }

        outcome.metrics = Metrics::default();
        assert!(outcome
            .json_line(END_TO_END, true)
            .contains("\"correct\": false"));
    }
}
