//! Per-session flight recorder: a bounded ring of recent events that is
//! dumped as a telemetry JSON-lines artifact when a session dies badly —
//! a worker panic, a blown chunk deadline, or a chunk over the
//! slow-session threshold.
//!
//! The global telemetry ring answers "what did the whole process do";
//! under 64 concurrent sessions the events of the one session you care
//! about are interleaved with everyone else's and may have been evicted
//! long before the post-mortem. The flight recorder is the complement:
//! each session keeps its *own* last-N events (chunk sizes, queue waits,
//! service times, error codes) in a [`Ring`], costs a ring slot per event
//! while healthy, and writes one small artifact per casualty.
//!
//! The artifact is the workspace telemetry schema
//! ([`sunder_telemetry::export`]): a meta line, the ring's `instant`
//! events oldest first, then one `flight.dump` instant naming the
//! tenant, session, epoch and reason. That last event is added at dump
//! time, so ring eviction can never drop it. `validate_jsonl` checks the
//! artifact, `sunder telemetry-report` reads it, and its `--chrome`
//! export opens it in Perfetto.

use std::path::{Path, PathBuf};

use sunder_telemetry::{render_jsonl, Event, Level, MetricsSnapshot, Ring, Value};

/// Default ring capacity: enough to hold a burst of chunks around the
/// failure without making a session's footprint noticeable.
pub const DEFAULT_FLIGHT_EVENTS: usize = 128;

/// A bounded per-session event ring.
#[derive(Debug)]
pub struct FlightRecorder {
    tenant: String,
    session: u64,
    epoch: u64,
    ring: Ring,
    dumped: bool,
}

impl FlightRecorder {
    /// A recorder for one session, holding at most `cap` events (older
    /// events are evicted and counted as dropped).
    pub fn new(tenant: &str, session: u64, epoch: u64, cap: usize) -> FlightRecorder {
        FlightRecorder {
            tenant: tenant.to_string(),
            session,
            epoch,
            ring: Ring::new(cap),
            dumped: false,
        }
    }

    /// Records one instant event into the ring.
    pub fn record(&mut self, name: &'static str, fields: &[(&'static str, Value)]) {
        self.ring.push(Event::instant(name, fields));
    }

    /// Renders the JSON-lines artifact for this session: the ring, then
    /// the `flight.dump` identity event.
    pub fn dump(&self, reason: &str) -> String {
        let identity = Event::instant(
            "flight.dump",
            &[
                ("tenant", self.tenant.as_str().into()),
                ("session", self.session.into()),
                ("epoch", self.epoch.into()),
                ("reason", reason.into()),
            ],
        );
        let events: Vec<Event> = self.ring.events().cloned().chain([identity]).collect();
        render_jsonl(
            Level::Spans.name(),
            &events,
            self.ring.dropped(),
            &MetricsSnapshot::default(),
        )
    }

    /// Writes the artifact into `dir` as
    /// `flight-<tenant>-<session>-<reason>.jsonl` (tenant sanitized to
    /// `[A-Za-z0-9_-]`), creating the directory if needed. At most one
    /// artifact is written per session — later triggers are no-ops, so
    /// a slow session that then panics keeps its first post-mortem.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&mut self, dir: &Path, reason: &str) -> std::io::Result<Option<PathBuf>> {
        if self.dumped {
            return Ok(None);
        }
        std::fs::create_dir_all(dir)?;
        let tenant: String = self
            .tenant
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let path = dir.join(format!("flight-{tenant}-{}-{reason}.jsonl", self.session));
        std::fs::write(&path, self.dump(reason))?;
        self.dumped = true;
        sunder_telemetry::counter_add("serve_flight_dumps_total", &[("reason", reason)], 1);
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_telemetry::json::{self, Json};
    use sunder_telemetry::{chrome_trace_from_jsonl, validate_jsonl};

    fn sample_recorder() -> FlightRecorder {
        let mut fr = FlightRecorder::new("s3", 7, 1, 16);
        fr.record("session_open", &[("epoch", 1u64.into())]);
        fr.record(
            "chunk",
            &[
                ("bytes", 48u64.into()),
                ("service_us", 120u64.into()),
                ("reports", 2u64.into()),
            ],
        );
        fr.record("error", &[("kind", "panic".into())]);
        fr
    }

    /// The event lines of an artifact, oldest first.
    fn events(text: &str) -> Vec<Json> {
        text.lines()
            .skip(1)
            .map(|l| json::parse(l).unwrap())
            .collect()
    }

    fn field<'a>(event: &'a Json, key: &str) -> &'a Json {
        event.get("fields").and_then(|f| f.get(key)).unwrap()
    }

    #[test]
    fn dump_is_a_telemetry_artifact_ending_in_the_identity() {
        let text = sample_recorder().dump("panic");
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(
            (summary.instants, summary.spans, summary.metrics),
            (4, 0, 0)
        );
        assert_eq!(summary.dropped, 0);
        chrome_trace_from_jsonl(&text).unwrap();
        let events = events(&text);
        let chunk = &events[1];
        assert_eq!(chunk.get("name").and_then(Json::as_str), Some("chunk"));
        assert_eq!(field(chunk, "service_us").as_u64(), Some(120));
        let id = events.last().unwrap();
        assert_eq!(id.get("name").and_then(Json::as_str), Some("flight.dump"));
        assert_eq!(field(id, "tenant").as_str(), Some("s3"));
        assert_eq!(field(id, "session").as_u64(), Some(7));
        assert_eq!(field(id, "epoch").as_u64(), Some(1));
        assert_eq!(field(id, "reason").as_str(), Some("panic"));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops_but_keeps_the_identity() {
        let mut fr = FlightRecorder::new("t", 0, 1, 4);
        for i in 0..10u64 {
            fr.record("chunk", &[("seq", i.into())]);
        }
        let text = fr.dump("slow");
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.instants, 5, "four ring events plus the identity");
        assert_eq!(summary.dropped, 6);
        // Oldest-first: the surviving events are the last four recorded.
        let seqs: Vec<u64> = events(&text)[..4]
            .iter()
            .map(|e| field(e, "seq").as_u64().unwrap())
            .collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
        let last = events(&text).pop().unwrap();
        assert_eq!(field(&last, "reason").as_str(), Some("slow"));
    }

    #[test]
    fn write_creates_one_sanitized_artifact_per_session() {
        let dir = std::env::temp_dir().join(format!("flight-recorder-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fr = FlightRecorder::new("s3/../evil", 9, 2, 8);
        fr.record("session_open", &[]);
        let path = fr.write(&dir, "deadline").unwrap().unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "flight-s3____evil-9-deadline.jsonl"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        validate_jsonl(&text).unwrap();
        let last = events(&text).pop().unwrap();
        assert_eq!(field(&last, "tenant").as_str(), Some("s3/../evil"));
        assert_eq!(field(&last, "reason").as_str(), Some("deadline"));
        // Second trigger is a no-op: the first post-mortem wins.
        assert!(fr.write(&dir, "panic").unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
