//! The global ring-buffer event recorder, and the [`Ring`] it keeps.
//!
//! A fixed-capacity ring holds the most recent events; when full, the
//! oldest event is overwritten and a drop counter advances, so a runaway
//! emitter can never exhaust memory or block the pipeline. Recording is a
//! short critical section on a process-wide mutex — fine for the
//! workspace's emission rates (events fire per benchmark, per window
//! decision, or per stall episode, never per cycle). The daemon's
//! per-session flight recorder keeps its own [`Ring`] of the same kind.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::event::Event;

/// A bounded event ring: pushing past capacity evicts the oldest event
/// and counts it as dropped.
#[derive(Debug, Clone)]
pub struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    /// An empty ring holding at most `capacity` events (at least one).
    pub fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        Ring {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends `event`, evicting the oldest when full.
    pub fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Events lost to eviction since the ring was created or last taken.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Empties the ring, returning `(events, dropped)` and resetting the
    /// drop counter.
    pub fn take(&mut self) -> (Vec<Event>, u64) {
        (
            self.events.drain(..).collect(),
            std::mem::take(&mut self.dropped),
        )
    }
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

fn recorder() -> std::sync::MutexGuard<'static, Option<Ring>> {
    RECORDER.lock().expect("telemetry recorder poisoned")
}

/// Installs (or replaces) the global recorder with the given capacity.
/// Any previously buffered events are discarded.
pub fn install(capacity: usize) {
    *recorder() = Some(Ring::new(capacity));
}

/// `true` when a recorder is installed.
pub fn installed() -> bool {
    recorder().is_some()
}

/// Records one event. A no-op when no recorder is installed, so emitters
/// only need the level fast check.
pub fn record(event: Event) {
    if let Some(ring) = recorder().as_mut() {
        ring.push(event);
    }
}

/// Drains every buffered event, returning `(events, dropped)` where
/// `dropped` counts events lost to ring wraparound since install or the
/// last drain. The
/// recorder stays installed and continues recording.
pub fn drain() -> (Vec<Event>, u64) {
    recorder().as_mut().map(Ring::take).unwrap_or_default()
}

/// Removes the recorder, returning whatever it held.
pub fn uninstall() -> (Vec<Event>, u64) {
    recorder().take().map(|mut r| r.take()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str) -> Event {
        Event::instant(name, &[])
    }

    #[test]
    fn ring_evicts_oldest_and_take_resets_the_drop_count() {
        let mut ring = Ring::new(3);
        for name in ["a", "b", "c", "d", "e"] {
            ring.push(ev(name));
        }
        let names: Vec<_> = ring.events().map(|e| e.name).collect();
        assert_eq!(names, ["c", "d", "e"]);
        assert_eq!(ring.dropped(), 2);
        let (events, dropped) = ring.take();
        assert_eq!((events.len(), dropped), (3, 2));
        assert_eq!((ring.events().count(), ring.dropped()), (0, 0));
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
