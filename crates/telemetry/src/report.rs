//! Offline analysis of a JSON-lines telemetry artifact: the engine behind
//! `sunder telemetry-report`.
//!
//! The report groups everything by the `bench` dimension — `bench` label
//! on metrics, `bench` field on spans/instants — and renders a
//! per-benchmark breakdown: wall time, simulated cycles, reports, stall
//! share by cause, and engine decisions. Records that carry no `bench`
//! dimension are summarized globally. An artifact with no per-benchmark
//! records at all (a daemon's flight dump, say) is summarized by its
//! instants instead, grouped by name.

use crate::export::validate_jsonl;
use crate::histogram::Pow2Histogram;
use crate::json::{self, Json};

/// Aggregated telemetry for one benchmark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Benchmark name (the `bench` dimension).
    pub bench: String,
    /// Total wall time across `suite.benchmark` spans, microseconds.
    pub wall_us: u64,
    /// `suite_cycles_total{bench}` if present.
    pub cycles: Option<u64>,
    /// `suite_reports_total{bench}` if present.
    pub reports: Option<u64>,
    /// `machine_input_cycles_total{bench}` if present.
    pub input_cycles: Option<u64>,
    /// `(cause, cycles)` from `machine_stall_cycles_total{bench,cause}`,
    /// sorted by cause.
    pub stall_by_cause: Vec<(String, u64)>,
    /// `engine.switch` instants tagged with this bench.
    pub switches: u64,
    /// `engine.degrade` instants tagged with this bench.
    pub degrades: u64,
}

impl BenchReport {
    /// Total stall cycles across causes.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_by_cause.iter().map(|(_, c)| c).sum()
    }

    /// Stall share of machine time, when input cycles are known.
    pub fn stall_pct(&self) -> Option<f64> {
        let input = self.input_cycles?;
        let stall = self.stall_cycles();
        let total = input + stall;
        if total == 0 {
            return None;
        }
        Some(100.0 * stall as f64 / total as f64)
    }
}

/// Every instant of one name in an artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstantGroup {
    /// The instants' name.
    pub name: String,
    /// How many instants carry it.
    pub count: u64,
    /// Integer fields, in first-seen order, with every value in artifact
    /// order.
    pub ints: Vec<(String, Vec<u64>)>,
    /// Every other field, in first-seen order, with its distinct values
    /// rendered, in first-seen order.
    pub values: Vec<(String, Vec<String>)>,
}

impl InstantGroup {
    fn add(&mut self, fields: Option<&Json>) {
        self.count += 1;
        let Some(Json::Obj(pairs)) = fields else {
            return;
        };
        for (key, value) in pairs {
            if let Some(v) = value.as_u64() {
                match self.ints.iter_mut().find(|(k, _)| k == key) {
                    Some((_, vs)) => vs.push(v),
                    None => self.ints.push((key.clone(), vec![v])),
                }
                continue;
            }
            let v = value
                .as_str()
                .map_or_else(|| value.render(), str::to_string);
            match self.values.iter_mut().find(|(k, _)| k == key) {
                Some((_, vs)) if !vs.contains(&v) => vs.push(v),
                Some(_) => {}
                None => self.values.push((key.clone(), vec![v])),
            }
        }
    }
}

/// The nearest-rank `p` quantile of `values` (not empty).
fn nearest_rank(values: &[u64], p: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A full parsed artifact, grouped per benchmark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Telemetry level the artifact was captured at.
    pub level: String,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Span lines in the artifact.
    pub spans: usize,
    /// Instant lines in the artifact.
    pub instants: usize,
    /// Metric lines in the artifact.
    pub metric_lines: usize,
    /// Per-benchmark breakdowns, sorted by name.
    pub benches: Vec<BenchReport>,
    /// `engine.switch` instants with no bench tag.
    pub untagged_switches: u64,
    /// `engine.degrade` instants with no bench tag.
    pub untagged_degrades: u64,
    /// Supervisor retry/panic/timeout instants (whole run).
    pub job_retries: u64,
    /// Job panics observed by the supervisor.
    pub job_panics: u64,
    /// Job deadline timeouts observed by the supervisor.
    pub job_timeouts: u64,
    /// Every histogram metric in the artifact as `(name, rendered
    /// labels, histogram)`, sorted — the input to the quantile table.
    pub histograms: Vec<(String, String, Pow2Histogram)>,
    /// Every instant grouped by name, in first-seen order.
    pub instant_groups: Vec<InstantGroup>,
}

fn bench_of(obj: &Json, key: &str) -> Option<String> {
    obj.get(key)?
        .get("bench")
        .and_then(Json::as_str)
        .map(str::to_string)
}

impl Report {
    /// Validates and parses a JSON-lines artifact.
    pub fn from_jsonl(text: &str) -> Result<Report, String> {
        let summary = validate_jsonl(text)?;
        let mut report = Report {
            dropped: summary.dropped,
            spans: summary.spans,
            instants: summary.instants,
            metric_lines: summary.metrics,
            ..Report::default()
        };
        let mut benches: Vec<BenchReport> = Vec::new();
        let bench_mut = |name: String, benches: &mut Vec<BenchReport>| -> usize {
            match benches.iter().position(|b| b.bench == name) {
                Some(i) => i,
                None => {
                    benches.push(BenchReport {
                        bench: name,
                        ..BenchReport::default()
                    });
                    benches.len() - 1
                }
            }
        };
        for raw in text.lines() {
            // validate_jsonl already proved every line parses.
            let obj = json::parse(raw).map_err(|e| e.to_string())?;
            let ty = obj.get("type").and_then(Json::as_str).unwrap_or("");
            let name = obj.get("name").and_then(Json::as_str).unwrap_or("");
            match ty {
                "meta" => {
                    report.level = obj
                        .get("level")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string();
                }
                "span" if name == "suite.benchmark" => {
                    if let Some(bench) = bench_of(&obj, "fields") {
                        let dur = obj.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
                        let i = bench_mut(bench, &mut benches);
                        benches[i].wall_us += dur;
                    }
                }
                "instant" => {
                    let group = match report.instant_groups.iter().position(|g| g.name == name) {
                        Some(i) => &mut report.instant_groups[i],
                        None => {
                            report.instant_groups.push(InstantGroup {
                                name: name.to_string(),
                                ..InstantGroup::default()
                            });
                            report.instant_groups.last_mut().expect("just pushed")
                        }
                    };
                    group.add(obj.get("fields"));
                    let tagged = bench_of(&obj, "fields");
                    match (name, tagged) {
                        ("engine.switch", Some(b)) => {
                            let i = bench_mut(b, &mut benches);
                            benches[i].switches += 1;
                        }
                        ("engine.switch", None) => report.untagged_switches += 1,
                        ("engine.degrade", Some(b)) => {
                            let i = bench_mut(b, &mut benches);
                            benches[i].degrades += 1;
                        }
                        ("engine.degrade", None) => report.untagged_degrades += 1,
                        ("job.retry", _) => report.job_retries += 1,
                        ("job.panic", _) => report.job_panics += 1,
                        ("job.timeout", _) => report.job_timeouts += 1,
                        _ => {}
                    }
                }
                "metric" => {
                    if obj.get("kind").and_then(Json::as_str) == Some("histogram") {
                        let buckets = obj
                            .get("buckets")
                            .and_then(Json::as_arr)
                            .map(|a| a.iter().filter_map(Json::as_u64).collect::<Vec<_>>())
                            .unwrap_or_default();
                        let grab = |k: &str| obj.get(k).and_then(Json::as_u64).unwrap_or(0);
                        let hist = Pow2Histogram::from_parts(
                            buckets,
                            grab("zeros"),
                            grab("count"),
                            grab("total"),
                        );
                        let labels = obj
                            .get("labels")
                            .map(|l| match l {
                                Json::Obj(pairs) => pairs
                                    .iter()
                                    .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or_default()))
                                    .collect::<Vec<_>>()
                                    .join(","),
                                _ => String::new(),
                            })
                            .unwrap_or_default();
                        report.histograms.push((name.to_string(), labels, hist));
                    }
                    let Some(bench) = bench_of(&obj, "labels") else {
                        continue;
                    };
                    let i = bench_mut(bench, &mut benches);
                    let value = obj.get("value").and_then(Json::as_u64);
                    match name {
                        "suite_cycles_total" => benches[i].cycles = value,
                        "suite_reports_total" => benches[i].reports = value,
                        "machine_input_cycles_total" => benches[i].input_cycles = value,
                        "machine_stall_cycles_total" => {
                            let cause = obj
                                .get("labels")
                                .and_then(|l| l.get("cause"))
                                .and_then(Json::as_str)
                                .unwrap_or("unknown")
                                .to_string();
                            benches[i].stall_by_cause.push((cause, value.unwrap_or(0)));
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        for b in &mut benches {
            b.stall_by_cause.sort();
        }
        benches.sort_by(|a, b| a.bench.cmp(&b.bench));
        report.benches = benches;
        report
            .histograms
            .sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        Ok(report)
    }

    /// Renders the human-readable breakdown table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry artifact: level={} spans={} instants={} metrics={} dropped={}\n",
            self.level, self.spans, self.instants, self.metric_lines, self.dropped
        ));
        if self.job_retries + self.job_panics + self.job_timeouts > 0 {
            out.push_str(&format!(
                "supervisor: retries={} panics={} timeouts={}\n",
                self.job_retries, self.job_panics, self.job_timeouts
            ));
        }
        if self.untagged_switches + self.untagged_degrades > 0 {
            out.push_str(&format!(
                "engine (untagged): switches={} degrades={}\n",
                self.untagged_switches, self.untagged_degrades
            ));
        }
        if self.benches.is_empty() {
            out.push_str("no per-benchmark records in artifact\n");
            self.render_instants(&mut out);
            return out;
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<24} {:>10} {:>12} {:>9} {:>8} {:>8} {:>9}\n",
            "benchmark", "wall(ms)", "cycles", "reports", "stall%", "switches", "degrades"
        ));
        for b in &self.benches {
            let cycles = b.cycles.map_or("-".to_string(), |c| c.to_string());
            let reports = b.reports.map_or("-".to_string(), |r| r.to_string());
            let stall = b.stall_pct().map_or("-".to_string(), |p| format!("{p:.2}"));
            out.push_str(&format!(
                "{:<24} {:>10.3} {:>12} {:>9} {:>8} {:>8} {:>9}\n",
                b.bench,
                b.wall_us as f64 / 1000.0,
                cycles,
                reports,
                stall,
                b.switches,
                b.degrades
            ));
        }
        let any_stalls = self.benches.iter().any(|b| !b.stall_by_cause.is_empty());
        if any_stalls {
            out.push('\n');
            out.push_str("stall cycles by cause:\n");
            for b in &self.benches {
                for (cause, cycles) in &b.stall_by_cause {
                    out.push_str(&format!("  {:<24} {:<20} {cycles}\n", b.bench, cause));
                }
            }
        }
        if !self.histograms.is_empty() {
            out.push('\n');
            out.push_str("histogram quantiles (pow2-bucket interpolation):\n");
            out.push_str(&format!(
                "  {:<40} {:>8} {:>10} {:>10} {:>10}\n",
                "metric", "count", "mean", "p50", "p99"
            ));
            for (name, labels, h) in &self.histograms {
                let head = if labels.is_empty() {
                    name.clone()
                } else {
                    format!("{name}{{{labels}}}")
                };
                let q = |p: f64| h.quantile(p).map_or("-".to_string(), |v| format!("{v:.1}"));
                out.push_str(&format!(
                    "  {:<40} {:>8} {:>10.1} {:>10} {:>10}\n",
                    head,
                    h.count(),
                    h.mean(),
                    q(0.5),
                    q(0.99)
                ));
            }
        }
        out
    }

    /// The instants by name: a count, each other field's distinct
    /// values, and a sum, p50 and p99 for each integer field.
    fn render_instants(&self, out: &mut String) {
        if self.instant_groups.is_empty() {
            return;
        }
        out.push_str("\ninstants by name (integer fields: sum, nearest-rank p50 and p99):\n");
        for g in &self.instant_groups {
            out.push_str(&format!("  {:<24} count={}", g.name, g.count));
            for (key, values) in &g.values {
                out.push_str(&format!(" {key}={}", values.join(",")));
            }
            out.push('\n');
            for (key, values) in &g.ints {
                out.push_str(&format!(
                    "    {:<22} sum={} p50={} p99={}\n",
                    key,
                    values.iter().fold(0u64, |sum, v| sum.saturating_add(*v)),
                    nearest_rank(values, 0.5),
                    nearest_rank(values, 0.99)
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> String {
        [
            r#"{"type":"meta","version":1,"tool":"sunder-telemetry","level":"spans","events":4,"dropped":0,"metrics":5}"#,
            r#"{"type":"span","name":"suite.benchmark","ts_us":0,"dur_us":1500,"tid":1,"fields":{"bench":"Snort"}}"#,
            r#"{"type":"span","name":"suite.benchmark","ts_us":0,"dur_us":500,"tid":2,"fields":{"bench":"Ranges1"}}"#,
            r#"{"type":"instant","name":"engine.switch","ts_us":3,"tid":1,"fields":{"bench":"Snort","direction":"dense"}}"#,
            r#"{"type":"instant","name":"job.retry","ts_us":4,"tid":1,"fields":{"job":"Snort"}}"#,
            r#"{"type":"metric","kind":"counter","name":"suite_reports_total","labels":{"bench":"Snort"},"value":96}"#,
            r#"{"type":"metric","kind":"counter","name":"machine_input_cycles_total","labels":{"bench":"Snort"},"value":900}"#,
            r#"{"type":"metric","kind":"counter","name":"machine_stall_cycles_total","labels":{"bench":"Snort","cause":"flush_drain"},"value":60}"#,
            r#"{"type":"metric","kind":"counter","name":"machine_stall_cycles_total","labels":{"bench":"Snort","cause":"fifo_drain_wait"},"value":40}"#,
            r#"{"type":"metric","kind":"histogram","name":"chunk_service_us","labels":{"tenant":"s1"},"count":5,"total":1120,"zeros":0,"buckets":[0,0,0,0,0,0,0,5]}"#,
        ]
        .join("\n")
            + "\n"
    }

    #[test]
    fn aggregates_per_benchmark() {
        let report = Report::from_jsonl(&artifact()).unwrap();
        assert_eq!(report.benches.len(), 2);
        assert_eq!(report.job_retries, 1);
        let ranges = &report.benches[0];
        assert_eq!(ranges.bench, "Ranges1");
        assert_eq!(ranges.wall_us, 500);
        let snort = &report.benches[1];
        assert_eq!(snort.bench, "Snort");
        assert_eq!(snort.wall_us, 1500);
        assert_eq!(snort.reports, Some(96));
        assert_eq!(snort.switches, 1);
        assert_eq!(snort.stall_cycles(), 100);
        assert_eq!(snort.stall_pct(), Some(10.0));
        assert_eq!(
            snort.stall_by_cause,
            vec![
                ("fifo_drain_wait".to_string(), 40),
                ("flush_drain".to_string(), 60)
            ]
        );
    }

    #[test]
    fn renders_stable_breakdown() {
        let report = Report::from_jsonl(&artifact()).unwrap();
        let text = report.render_text();
        assert!(text.contains("level=spans"));
        assert!(text.contains("retries=1"));
        assert!(text.contains("Snort"));
        assert!(text.contains("10.00"));
        assert!(text.contains("flush_drain"));
    }

    #[test]
    fn histogram_quantiles_appear_in_report() {
        let report = Report::from_jsonl(&artifact()).unwrap();
        assert_eq!(report.histograms.len(), 1);
        let (name, labels, h) = &report.histograms[0];
        assert_eq!(name, "chunk_service_us");
        assert_eq!(labels, "tenant=s1");
        // 5 samples of 224: p50 interpolates to 128 + (3/5) * 127.
        assert_eq!(h.quantile(0.5), Some(204.2));
        let text = report.render_text();
        assert!(text.contains("histogram quantiles"));
        assert!(text.contains("chunk_service_us{tenant=s1}"));
        assert!(text.contains("204.2"));
    }

    #[test]
    fn an_artifact_without_benchmarks_is_summarized_by_its_instants() {
        let mut lines = vec![
            r#"{"type":"meta","version":1,"tool":"sunder-telemetry","level":"spans","events":7,"dropped":0,"metrics":0}"#.to_string(),
            r#"{"type":"instant","name":"session_open","ts_us":0,"tid":1,"fields":{"tenant":"s3","epoch":1}}"#.to_string(),
        ];
        for (i, service) in [40u64, 10, 30, 20].into_iter().enumerate() {
            lines.push(format!(
                r#"{{"type":"instant","name":"chunk","ts_us":{},"tid":1,"fields":{{"bytes":64,"service_us":{service},"reply_us":{}}}}}"#,
                i + 1,
                service / 10
            ));
        }
        lines.push(
            r#"{"type":"instant","name":"error","ts_us":5,"tid":1,"fields":{"kind":"panic"}}"#
                .to_string(),
        );
        lines.push(r#"{"type":"instant","name":"flight.dump","ts_us":6,"tid":1,"fields":{"tenant":"s3","session":7,"epoch":1,"reason":"panic"}}"#.to_string());
        let text = lines.join("\n") + "\n";
        let report = Report::from_jsonl(&text).unwrap();
        assert!(report.benches.is_empty());
        let names: Vec<&str> = report
            .instant_groups
            .iter()
            .map(|g| g.name.as_str())
            .collect();
        assert_eq!(names, ["session_open", "chunk", "error", "flight.dump"]);
        let chunk = &report.instant_groups[1];
        assert_eq!(chunk.count, 4);
        assert_eq!(
            chunk.ints[1],
            ("service_us".to_string(), vec![40, 10, 30, 20])
        );
        let text = report.render_text();
        assert!(text.contains("no per-benchmark records"), "{text}");
        assert!(
            text.contains("chunk                    count=4\n"),
            "{text}"
        );
        assert!(
            text.contains("service_us             sum=100 p50=20 p99=40\n"),
            "{text}"
        );
        assert!(
            text.contains("reply_us               sum=10 p50=2 p99=4\n"),
            "{text}"
        );
        assert!(
            text.contains("error                    count=1 kind=panic\n"),
            "{text}"
        );
        assert!(
            text.contains("flight.dump              count=1 tenant=s3 reason=panic\n"),
            "{text}"
        );
        assert!(
            text.contains("session                sum=7 p50=7 p99=7\n"),
            "{text}"
        );
    }

    #[test]
    fn rejects_invalid_artifacts() {
        assert!(Report::from_jsonl("not json\n").is_err());
    }
}
