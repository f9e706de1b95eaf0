//! Report sinks: where the simulator delivers report events.
//!
//! Automata runs over megabyte inputs can generate tens of millions of
//! reports (SPM produces 47M per MB — paper, Table 1), so the simulator
//! never materializes them unless asked: it streams per-cycle report
//! batches into a [`ReportSink`] chosen by the caller.

use sunder_automata::{ReportInfo, StateId};

/// One report delivered by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReportEvent {
    /// Cycle (vector index) at which the report fired.
    pub cycle: u64,
    /// The reporting state.
    pub state: StateId,
    /// Report id and intra-vector offset.
    pub info: ReportInfo,
}

impl ReportEvent {
    /// Absolute position in the symbol stream at which the match completed:
    /// `cycle × stride + offset`.
    pub fn symbol_position(&self, stride: usize) -> u64 {
        self.cycle * stride as u64 + u64::from(self.info.offset)
    }
}

/// Consumer of report events.
///
/// `on_cycle_reports` is invoked once per *report cycle* — a cycle in which
/// at least one report fired — with all of that cycle's reports. This
/// batching is exactly the granularity at which reporting architectures
/// operate (they capture a report vector per cycle), so the baseline models
/// plug in directly as sinks.
pub trait ReportSink {
    /// Called once per cycle that produced at least one report.
    fn on_cycle_reports(&mut self, cycle: u64, reports: &[ReportEvent]);

    /// Takes a finished trace spanning any number of cycles, in delivery
    /// order — what a run that stages its reports hands over once it
    /// completes. The default delivers it one
    /// [`ReportSink::on_cycle_reports`] batch per cycle; [`TraceSink`]
    /// adopts the vector instead of copying it.
    fn on_trace(&mut self, events: Vec<ReportEvent>) {
        for batch in events.chunk_by(|a, b| a.cycle == b.cycle) {
            self.on_cycle_reports(batch[0].cycle, batch);
        }
    }

    /// Called every cycle with the number of active states, after matching.
    ///
    /// The default implementation ignores it; override for utilization
    /// statistics.
    fn on_cycle_activity(&mut self, cycle: u64, active_states: usize) {
        let _ = (cycle, active_states);
    }

    /// Whether this sink observes [`ReportSink::on_cycle_activity`].
    ///
    /// Defaults to `true` — any sink overriding the callback keeps exact
    /// per-cycle delivery without further changes. Sinks that ignore
    /// activity (the built-in report-only sinks) return `false`, which
    /// (together with `wants_active_states` returning `false`) licenses
    /// the engines to omit *all* activity callbacks — stepped cycles take
    /// a quiet path that delivers only reports, and the rare-byte
    /// prefilter may *skip* cycles that provably produce no frontier and
    /// no report entirely: skipped cycles get no callbacks at all.
    fn wants_cycle_activity(&self) -> bool {
        true
    }

    /// Whether this sink wants the full active-state list each cycle
    /// (via [`ReportSink::on_active_states`]). Defaults to `false` so the
    /// common case pays nothing.
    fn wants_active_states(&self) -> bool {
        false
    }

    /// Called with the active-state list each cycle when
    /// [`ReportSink::wants_active_states`] returns `true`.
    fn on_active_states(&mut self, cycle: u64, active: &[StateId]) {
        let _ = (cycle, active);
    }
}

impl<S: ReportSink + ?Sized> ReportSink for &mut S {
    fn on_cycle_reports(&mut self, cycle: u64, reports: &[ReportEvent]) {
        (**self).on_cycle_reports(cycle, reports);
    }

    fn on_trace(&mut self, events: Vec<ReportEvent>) {
        (**self).on_trace(events);
    }

    fn on_cycle_activity(&mut self, cycle: u64, active_states: usize) {
        (**self).on_cycle_activity(cycle, active_states);
    }

    fn wants_cycle_activity(&self) -> bool {
        (**self).wants_cycle_activity()
    }

    fn wants_active_states(&self) -> bool {
        (**self).wants_active_states()
    }

    fn on_active_states(&mut self, cycle: u64, active: &[StateId]) {
        (**self).on_active_states(cycle, active);
    }
}

/// Discards everything. Useful for benchmarking the raw kernel.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ReportSink for NullSink {
    fn on_cycle_reports(&mut self, _cycle: u64, _reports: &[ReportEvent]) {}

    fn wants_cycle_activity(&self) -> bool {
        false
    }
}

/// Counts reports and report cycles without storing events.
#[derive(Debug, Default, Clone)]
pub struct CountSink {
    /// Total number of reports.
    pub reports: u64,
    /// Number of cycles with at least one report.
    pub report_cycles: u64,
    /// Largest number of reports observed in a single cycle.
    pub max_reports_per_cycle: usize,
}

impl CountSink {
    /// Creates a fresh counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReportSink for CountSink {
    fn on_cycle_reports(&mut self, _cycle: u64, reports: &[ReportEvent]) {
        self.reports += reports.len() as u64;
        self.report_cycles += 1;
        self.max_reports_per_cycle = self.max_reports_per_cycle.max(reports.len());
    }

    fn wants_cycle_activity(&self) -> bool {
        false
    }
}

/// Stores every report event. Only sensible for small runs and tests.
#[derive(Debug, Default, Clone)]
pub struct TraceSink {
    /// All events, in cycle order.
    pub events: Vec<ReportEvent>,
}

impl TraceSink {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `(cycle, report id)` pairs, convenient for equivalence checks.
    pub fn cycle_id_pairs(&self) -> Vec<(u64, u32)> {
        self.events.iter().map(|e| (e.cycle, e.info.id)).collect()
    }

    /// `(symbol position, report id)` pairs — the stride-independent view
    /// used to compare automata running at different processing rates.
    pub fn position_id_pairs(&self, stride: usize) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self
            .events
            .iter()
            .map(|e| (e.symbol_position(stride), e.info.id))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl ReportSink for TraceSink {
    fn on_cycle_reports(&mut self, _cycle: u64, reports: &[ReportEvent]) {
        self.events.extend_from_slice(reports);
    }

    fn on_trace(&mut self, mut events: Vec<ReportEvent>) {
        if self.events.is_empty() {
            self.events = events;
        } else {
            self.events.append(&mut events);
        }
    }

    fn wants_cycle_activity(&self) -> bool {
        false
    }
}

/// A trace sink with a hard capacity: stores the first `capacity` events
/// and counts (rather than stores) the rest, with an explicit truncation
/// flag. This is the resilient form of [`TraceSink`] for report-storm
/// workloads (SPM emits 47M reports per MB of input — paper, Table 1)
/// where an unbounded trace is itself a failure mode.
#[derive(Debug, Default, Clone)]
pub struct BoundedTraceSink {
    /// The first `capacity` events, in cycle order.
    pub events: Vec<ReportEvent>,
    capacity: usize,
    dropped: u64,
}

impl BoundedTraceSink {
    /// An empty trace keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        BoundedTraceSink {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events that arrived after the trace was full (counted, not stored).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `true` when at least one event was dropped. Consumers must check
    /// this before treating [`BoundedTraceSink::events`] as complete.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Total events observed, stored or not.
    pub fn total(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }
}

impl ReportSink for BoundedTraceSink {
    fn on_cycle_reports(&mut self, _cycle: u64, reports: &[ReportEvent]) {
        let room = self.capacity.saturating_sub(self.events.len());
        let take = room.min(reports.len());
        self.events.extend_from_slice(&reports[..take]);
        self.dropped += (reports.len() - take) as u64;
    }

    fn wants_cycle_activity(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, id: u32, offset: u8) -> ReportEvent {
        ReportEvent {
            cycle,
            state: StateId(0),
            info: ReportInfo::at_offset(id, offset),
        }
    }

    #[test]
    fn count_sink_counts() {
        let mut s = CountSink::new();
        s.on_cycle_reports(0, &[ev(0, 1, 0), ev(0, 2, 0)]);
        s.on_cycle_reports(5, &[ev(5, 1, 0)]);
        assert_eq!(s.reports, 3);
        assert_eq!(s.report_cycles, 2);
        assert_eq!(s.max_reports_per_cycle, 2);
    }

    #[test]
    fn symbol_position_accounts_for_stride() {
        let e = ev(10, 0, 3);
        assert_eq!(e.symbol_position(4), 43);
        assert_eq!(ev(10, 0, 0).symbol_position(1), 10);
    }

    #[test]
    fn bounded_trace_truncates_with_exact_accounting() {
        let mut s = BoundedTraceSink::new(3);
        s.on_cycle_reports(0, &[ev(0, 1, 0), ev(0, 2, 0)]);
        assert!(!s.truncated());
        // This batch straddles the capacity: one stored, one dropped.
        s.on_cycle_reports(1, &[ev(1, 3, 0), ev(1, 4, 0)]);
        s.on_cycle_reports(2, &[ev(2, 5, 0)]);
        assert_eq!(s.events.len(), 3);
        assert_eq!(s.dropped(), 2);
        assert!(s.truncated());
        assert_eq!(s.total(), 5);
        assert_eq!(s.capacity(), 3);
        // The stored prefix is exactly the first three events.
        assert_eq!(
            s.events.iter().map(|e| e.info.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn bounded_trace_with_zero_capacity_only_counts() {
        let mut s = BoundedTraceSink::new(0);
        s.on_cycle_reports(0, &[ev(0, 1, 0)]);
        assert!(s.events.is_empty());
        assert_eq!(s.total(), 1);
        assert!(s.truncated());
    }

    #[test]
    fn trace_sink_pairs() {
        let mut s = TraceSink::new();
        s.on_cycle_reports(2, &[ev(2, 7, 1)]);
        assert_eq!(s.cycle_id_pairs(), vec![(2, 7)]);
        assert_eq!(s.position_id_pairs(2), vec![(5, 7)]);
    }
}
