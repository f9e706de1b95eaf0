//! The global ring-buffer event recorder.
//!
//! A fixed-capacity ring holds the most recent events; when full, the
//! oldest event is overwritten and a drop counter advances, so a runaway
//! emitter can never exhaust memory or block the pipeline. Recording is a
//! short critical section on a process-wide mutex — fine for the
//! workspace's emission rates (events fire per benchmark, per window
//! decision, or per stall episode, never per cycle).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::event::Event;

struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

static RECORDER: Mutex<Option<Ring>> = Mutex::new(None);

/// Default ring capacity: enough for the full paper-scale suite with
/// spans on (a few events per benchmark per engine) with two orders of
/// magnitude of headroom.
pub const DEFAULT_CAPACITY: usize = 65_536;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-wide telemetry epoch (first use).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Small dense per-thread id, assigned on first use.
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Installs (or replaces) the global recorder with the given capacity.
/// Any previously buffered events are discarded.
pub fn install(capacity: usize) {
    let capacity = capacity.max(1);
    let mut guard = RECORDER.lock().expect("telemetry recorder poisoned");
    *guard = Some(Ring {
        events: VecDeque::with_capacity(capacity.min(4096)),
        capacity,
        dropped: 0,
    });
}

/// `true` when a recorder is installed.
pub fn installed() -> bool {
    RECORDER
        .lock()
        .expect("telemetry recorder poisoned")
        .is_some()
}

/// Records one event. A no-op when no recorder is installed, so emitters
/// only need the level fast check.
pub fn record(event: Event) {
    let mut guard = RECORDER.lock().expect("telemetry recorder poisoned");
    if let Some(ring) = guard.as_mut() {
        if ring.events.len() == ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }
}

/// Drains every buffered event, returning `(events, dropped)` where
/// `dropped` counts events lost to ring wraparound since install. The
/// recorder stays installed and continues recording.
pub fn drain() -> (Vec<Event>, u64) {
    let mut guard = RECORDER.lock().expect("telemetry recorder poisoned");
    match guard.as_mut() {
        Some(ring) => {
            let events = ring.events.drain(..).collect();
            let dropped = ring.dropped;
            ring.dropped = 0;
            (events, dropped)
        }
        None => (Vec::new(), 0),
    }
}

/// Removes the recorder, returning whatever it held.
pub fn uninstall() -> (Vec<Event>, u64) {
    let mut guard = RECORDER.lock().expect("telemetry recorder poisoned");
    match guard.take() {
        Some(mut ring) => (ring.events.drain(..).collect(), ring.dropped),
        None => (Vec::new(), 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(name: &'static str) -> Event {
        Event {
            kind: EventKind::Instant,
            name,
            ts_us: now_us(),
            dur_us: 0,
            tid: thread_id(),
            fields: Vec::new(),
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let _lock = crate::test_lock();
        install(4);
        for _ in 0..10 {
            record(ev("a"));
        }
        let (events, dropped) = uninstall();
        assert_eq!(events.len(), 4, "ring keeps only the newest capacity");
        assert_eq!(dropped, 6);
    }

    #[test]
    fn drain_keeps_recording() {
        let _lock = crate::test_lock();
        install(8);
        record(ev("x"));
        let (events, dropped) = drain();
        assert_eq!(events.len(), 1);
        assert_eq!(dropped, 0);
        record(ev("y"));
        let (events, _) = uninstall();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "y");
    }

    #[test]
    fn record_without_recorder_is_noop() {
        let _lock = crate::test_lock();
        uninstall();
        record(ev("lost"));
        let (events, dropped) = drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn thread_ids_are_distinct_per_thread() {
        let mine = thread_id();
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(mine, other);
        assert_eq!(mine, thread_id(), "stable within a thread");
    }
}
