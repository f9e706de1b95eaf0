//! `sunder-telemetry`: structured tracing, metrics, and exporters for the
//! whole Sunder workspace.
//!
//! The crate is deliberately dependency-free — it sits *below* every
//! other workspace crate (resilience, sim, arch, bench, oracle all
//! instrument through it), so it can depend on nothing but `std`.
//!
//! Three pieces:
//!
//! - **Spans & events** ([`span`], [`instant`]): RAII guards that record
//!   complete spans on drop into a global ring buffer. Complete-at-drop
//!   means ring wraparound can drop whole spans but never orphan a
//!   begin/end pair.
//! - **Metrics** ([`counter_add`], [`gauge_set`], [`histogram_record`],
//!   [`histogram_merge`]): a labeled registry with deterministic
//!   snapshots.
//! - **Exporters** ([`TelemetryDump`]): JSON-lines artifact (schema
//!   version in [`export::SCHEMA_VERSION`]), Chrome `trace_event`
//!   conversion, a validator, and an offline [`Report`] analyzer.
//!
//! The cost model: every instrumentation site opens with one relaxed
//! atomic load ([`enabled`] / [`spans_enabled`]). With telemetry off —
//! the default — that load is the entire overhead, so the hooks stay
//! compiled into release builds unconditionally.
//!
//! Lifecycle for a binary:
//!
//! ```
//! sunder_telemetry::init(sunder_telemetry::Config::spans());
//! // ... instrumented work ...
//! let dump = sunder_telemetry::finish().unwrap();
//! let artifact = dump.to_jsonl();
//! assert!(artifact.starts_with("{\"type\":\"meta\""));
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod exposition;
pub mod histogram;
pub mod json;
pub mod level;
pub mod metrics;
pub mod progress;
pub mod recorder;
pub mod report;
pub mod span;

pub use event::{Event, EventKind, Field, Value};
pub use export::{
    chrome_trace_from_jsonl, render_chrome_trace, render_jsonl, validate_jsonl, ValidatedArtifact,
};
pub use exposition::{parse_prometheus, render_prometheus, PromFamily, PromSample};
pub use histogram::Pow2Histogram;
pub use level::{enabled, level, set_level, spans_enabled, Level};
pub use metrics::{
    counter_add, counter_handle, gauge_handle, gauge_set, histogram_handle, histogram_merge,
    histogram_record, snapshot, CounterHandle, GaugeHandle, HistogramHandle, MetricEntry,
    MetricValue, MetricsSnapshot,
};
pub use progress::{progress, quiet, set_quiet};
pub use recorder::{Ring, DEFAULT_CAPACITY};
pub use report::{BenchReport, InstantGroup, Report};
pub use span::{instant, span, SpanGuard};

/// How to initialize telemetry for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Recording level.
    pub level: Level,
    /// Event ring capacity (events beyond it evict the oldest).
    pub capacity: usize,
}

impl Config {
    /// Telemetry disabled (init becomes a no-op).
    pub fn off() -> Config {
        Config {
            level: Level::Off,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Metrics only.
    pub fn metrics() -> Config {
        Config {
            level: Level::Metrics,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Metrics plus spans and instant events.
    pub fn spans() -> Config {
        Config {
            level: Level::Spans,
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Overrides the ring capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Config {
        self.capacity = capacity;
        self
    }
}

/// Starts recording: installs the event ring, clears the metrics
/// registry, and raises the level. With [`Config::off`] nothing is
/// installed and the level stays off.
pub fn init(config: Config) {
    if config.level == Level::Off {
        set_level(Level::Off);
        return;
    }
    recorder::install(config.capacity);
    metrics::reset();
    set_level(config.level);
}

/// Everything one telemetry session captured.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryDump {
    /// Level the session recorded at.
    pub level: Level,
    /// Buffered events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Final metrics snapshot.
    pub metrics: MetricsSnapshot,
}

impl TelemetryDump {
    /// Renders the JSON-lines artifact (see [`export`] for the schema).
    pub fn to_jsonl(&self) -> String {
        render_jsonl(self.level.name(), &self.events, self.dropped, &self.metrics)
    }

    /// Renders the event stream as a Chrome `trace_event` document.
    pub fn to_chrome_trace(&self) -> String {
        render_chrome_trace(&self.events)
    }

    /// Writes the JSON-lines artifact to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

/// Stops recording and returns everything captured, or `None` when no
/// session was active (level off and no recorder installed). Always
/// resets the level to off and clears the registry.
pub fn finish() -> Option<TelemetryDump> {
    let captured_level = level();
    set_level(Level::Off);
    if !recorder::installed() {
        return None;
    }
    let (events, dropped) = recorder::uninstall();
    let snap = metrics::snapshot();
    metrics::reset();
    Some(TelemetryDump {
        level: captured_level,
        events,
        dropped,
        metrics: snap,
    })
}

/// Serializes tests that touch the process-global level, recorder, and
/// registry. Poisoning is ignored: a failed test must not cascade.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_finish_round_trip() {
        let _lock = test_lock();
        init(Config::spans().with_capacity(128));
        {
            let _s = span("suite.run").field("scale", "small");
        }
        counter_add("suite_reports_total", &[("bench", "Snort")], 96);
        let dump = finish().unwrap();
        assert_eq!(dump.level, Level::Spans);
        assert_eq!(dump.events.len(), 1);
        assert_eq!(
            dump.metrics
                .counter("suite_reports_total", &[("bench", "Snort")]),
            Some(96)
        );
        assert!(!enabled(), "finish lowers the level");
        assert!(finish().is_none(), "second finish has nothing to return");
    }

    #[test]
    fn off_config_is_inert() {
        let _lock = test_lock();
        init(Config::off());
        assert!(!enabled());
        let _s = span("ghost");
        counter_add("ghost", &[], 1);
        assert!(finish().is_none());
    }

    #[test]
    fn dump_artifact_passes_validator() {
        let _lock = test_lock();
        init(Config::spans());
        {
            let _s = span("machine.run").field("bench", "Snort");
            instant("machine.stall", &[("cause", Value::from("flush_drain"))]);
        }
        histogram_record(
            "machine_stall_episode_cycles",
            &[("cause", "flush_drain")],
            224,
        );
        let dump = finish().unwrap();
        let summary = validate_jsonl(&dump.to_jsonl()).unwrap();
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.metrics, 1);
        json::parse(&dump.to_chrome_trace()).unwrap();
    }
}
