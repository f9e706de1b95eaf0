//! The cycle-level Sunder machine (paper, Figure 4).
//!
//! A machine owns one processing unit per placed subarray. Each cycle it
//! consumes one symbol vector and, for every PU that could do work:
//!
//! 1. **state matching** — one row per nibble group is activated through
//!    the right-side 4:16 decoders; the wired-NOR on Port 2 senses the
//!    bitwise AND of the activated rows (the *match vector*);
//! 2. **state transition** — the active-state vector drives the local
//!    full-crossbar rows (OR of successor rows) and the global switches
//!    for cross-PU edges, producing the next cycle's *potential next
//!    states*;
//! 3. **reporting** — active report columns are OR-reduced; if any fired,
//!    an `(m-bit vector, n-bit cycle)` entry is written into the PU's
//!    in-place reporting region through Port 1, concurrently with matching
//!    (dual-port 8T cells), so reporting itself costs no cycles — only
//!    region overflow stalls the machine.
//!
//! Work is activity-gated: a PU is only evaluated when it has potential
//! next states, receives a global signal, or hosts a start state that
//! could match the current vector (indexed by the first non-don't-care
//! vector position). This makes megabyte-scale runs tractable without
//! changing any visible behavior.

use sunder_automata::input::InputView;
use sunder_automata::{Nfa, ReportInfo, StartKind, StateId};
use sunder_sim::{ReportEvent, ReportSink};

use crate::config::{SunderConfig, ROW_BITS};
use crate::placement::{place, Placement, PlacementError};
use crate::reporting::{ReportEntry, ReportRegion, WriteOutcome};
use crate::stats::{RunStats, StallAttribution, StallCause};
use crate::subarray::{rowops, Row, Subarray, ZERO_ROW};

/// One processing unit: subarray + interconnect + reporting region.
#[derive(Debug, Clone)]
struct Pu {
    subarray: Subarray,
    /// Per nibble group: columns whose charset at that position is full
    /// (don't-care), used to mask the final partial vector.
    full_masks: Vec<Row>,
    /// Local full-crossbar: row per source column, bits = successor columns.
    crossbar: Vec<Row>,
    allinput_start: Row,
    sod_start: Row,
    report_mask: Row,
    /// Cross-PU successors: (local column, target PU, target column).
    cross_out: Vec<(u8, u32, u8)>,
    /// Potential next states for the coming cycle (local + global in).
    enabled_next: Row,
    region: ReportRegion,
    /// Column → automaton state (for report readback and verification).
    col_state: Vec<Option<StateId>>,
    /// Column → report descriptors.
    col_reports: Vec<Vec<ReportInfo>>,
}

/// The Sunder device model.
#[derive(Debug)]
pub struct SunderMachine {
    config: SunderConfig,
    stride: usize,
    start_period: u64,
    pus: Vec<Pu>,
    /// `start_wake[j][nibble]` → PUs hosting a start state whose first
    /// non-full charset position is `j` and accepts `nibble`.
    start_wake: Vec<[Vec<u32>; 16]>,
    /// PUs hosting a start state with all-don't-care charsets.
    always_wake: Vec<u32>,
    /// PUs with pending potential-next-state bits.
    pending: Vec<u32>,
    stamp: Vec<u64>,
    generation: u64,
    cycle: u64,
    /// Input cycle of the most recent flush episode: every region filling
    /// in the same cycle drains in parallel through its own Port 1, so
    /// simultaneous fills share a single stall.
    last_flush_cycle: Option<u64>,
    stats: RunStats,
    /// Per-cause breakdown of the stall counters in `stats`; charged at
    /// the same sites under the same same-cycle deduplication.
    stalls: StallAttribution,
    placement_summary: PlacementSummary,
    report_batch: Vec<ReportEvent>,
    cross_buf: Vec<(u32, u8)>,
    fifo_dirty: Vec<u32>,
    /// Injected overflow-storm windows: `(from, until)` half-open cycles.
    storm_windows: Vec<(u64, u64)>,
    /// Per PU: report rows stuck (FIFO drain disabled).
    stuck: Vec<bool>,
}

/// An injectable cycle-model fault (deterministic fault-injection hooks
/// for the resilience harness; see `sunder-resilience`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineFault {
    /// Every report write in cycles `[from_cycle, from_cycle + cycles)` is
    /// forced down the region-full path, as if the region had overflowed —
    /// an overflow storm. Stall accounting stays exact: each forced write
    /// charges the same flush/drain-wait stall a real overflow would.
    FifoOverflowStorm {
        /// First storm cycle.
        from_cycle: u64,
        /// Storm length in cycles.
        cycles: u64,
    },
    /// The given PU's report rows stop draining: FIFO drains (periodic
    /// ticks and overflow-wait drains) return nothing. The machine
    /// recovers from the resulting wedged overflow with a full flush,
    /// counted in [`RunStats::stuck_row_recoveries`]; overflows forced by
    /// a concurrent [`MachineFault::FifoOverflowStorm`] wedge the same
    /// way. No effect in flush
    /// (non-FIFO) mode, which never drains row-by-row.
    StuckReportRow {
        /// Index of the stuck processing unit.
        pu: usize,
    },
}

/// Summary of how the automaton was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementSummary {
    /// Number of processing units used.
    pub pus: usize,
    /// Transitions riding the global switches.
    pub cross_pu_edges: usize,
    /// Largest PU span of a single component.
    pub max_pus_per_component: usize,
}

impl SunderMachine {
    /// Places and configures `nfa` (a nibble automaton at the config's
    /// stride) onto a fresh machine.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] if the automaton cannot be placed.
    ///
    /// # Panics
    ///
    /// Panics if the automaton's symbol width is not 4 bits or its stride
    /// does not match the configured rate — compile it with
    /// [`sunder_transform::PipelineConfig::apply`] first.
    pub fn new(nfa: &Nfa, config: SunderConfig) -> Result<Self, PlacementError> {
        assert_eq!(nfa.symbol_bits(), 4, "machine executes nibble automata");
        assert_eq!(
            nfa.stride(),
            config.rate.nibbles_per_cycle(),
            "automaton stride must match the configured rate"
        );
        let placement = place(nfa, &config)?;
        Ok(Self::with_placement(nfa, config, &placement))
    }

    /// Builds the machine from an explicit placement.
    fn with_placement(nfa: &Nfa, config: SunderConfig, placement: &Placement) -> Self {
        let stride = nfa.stride();
        let m = config.report_columns;
        let mut pus: Vec<Pu> = (0..placement.pus.len())
            .map(|_| Pu {
                subarray: Subarray::new(),
                full_masks: vec![ZERO_ROW; stride],
                crossbar: vec![ZERO_ROW; ROW_BITS],
                allinput_start: ZERO_ROW,
                sod_start: ZERO_ROW,
                report_mask: ZERO_ROW,
                cross_out: Vec::new(),
                enabled_next: ZERO_ROW,
                region: ReportRegion::new(&config),
                col_state: vec![None; ROW_BITS],
                col_reports: vec![Vec::new(); ROW_BITS],
            })
            .collect();

        let mut start_wake: Vec<[Vec<u32>; 16]> = (0..stride)
            .map(|_| std::array::from_fn(|_| Vec::new()))
            .collect();
        let mut always_wake: Vec<u32> = Vec::new();

        for (pi, plan) in placement.pus.iter().enumerate() {
            for &(col, state) in &plan.columns {
                let ste = nfa.state(state);
                let pu = &mut pus[pi];
                let col_us = col as usize;
                pu.col_state[col_us] = Some(state);
                // Matching rows: one-hot nibble encoding per group.
                for (j, cs) in ste.charsets().iter().enumerate() {
                    for v in cs.iter() {
                        pu.subarray.set_bit(16 * j + v as usize, col_us, true);
                    }
                    if cs.is_full() {
                        rowops::set(&mut pu.full_masks[j], col_us);
                    }
                }
                match ste.start_kind() {
                    StartKind::AllInput => rowops::set(&mut pu.allinput_start, col_us),
                    StartKind::StartOfData => rowops::set(&mut pu.sod_start, col_us),
                    StartKind::None => {}
                }
                if ste.is_reporting() {
                    debug_assert!(
                        col_us >= ROW_BITS - m,
                        "report state outside report columns"
                    );
                    rowops::set(&mut pu.report_mask, col_us);
                    pu.col_reports[col_us] = ste.reports().to_vec();
                }
                // Wake index for start states.
                if ste.start_kind().is_start() {
                    match ste.charsets().iter().position(|c| !c.is_full()) {
                        Some(j) => {
                            for v in ste.charsets()[j].iter() {
                                let bucket = &mut start_wake[j][v as usize];
                                if bucket.last() != Some(&(pi as u32)) {
                                    bucket.push(pi as u32);
                                }
                            }
                        }
                        None => {
                            if always_wake.last() != Some(&(pi as u32)) {
                                always_wake.push(pi as u32);
                            }
                        }
                    }
                }
            }
        }

        // Edges: local crossbar rows and cross-PU lists.
        for (id, _) in nfa.states() {
            let from = placement.locations[id.index()];
            for &t in nfa.successors(id) {
                let to = placement.locations[t.index()];
                if from.pu == to.pu {
                    rowops::set(
                        &mut pus[from.pu as usize].crossbar[from.col as usize],
                        to.col as usize,
                    );
                } else {
                    pus[from.pu as usize]
                        .cross_out
                        .push((from.col, to.pu, to.col));
                }
            }
        }
        for pu in &mut pus {
            pu.cross_out.sort_unstable();
        }
        // Deduplicate wake buckets (several states in one PU may share one).
        for buckets in &mut start_wake {
            for b in buckets.iter_mut() {
                b.sort_unstable();
                b.dedup();
            }
        }
        always_wake.sort_unstable();
        always_wake.dedup();

        let n_pus = pus.len();
        SunderMachine {
            config,
            stride,
            start_period: u64::from(nfa.start_period()),
            pus,
            start_wake,
            always_wake,
            pending: Vec::new(),
            stamp: vec![0; n_pus],
            generation: 0,
            cycle: 0,
            last_flush_cycle: None,
            stats: RunStats::default(),
            stalls: StallAttribution::default(),
            placement_summary: PlacementSummary {
                pus: n_pus,
                cross_pu_edges: placement.cross_pu_edges,
                max_pus_per_component: placement.max_pus_per_component,
            },
            report_batch: Vec::new(),
            cross_buf: Vec::new(),
            fifo_dirty: Vec::new(),
            storm_windows: Vec::new(),
            stuck: vec![false; n_pus],
        }
    }

    /// Arms a deterministic cycle-model fault. Multiple faults compose;
    /// a [`MachineFault::StuckReportRow`] naming a nonexistent PU is
    /// ignored (the plan may be written for a larger placement).
    pub fn inject_fault(&mut self, fault: MachineFault) {
        match fault {
            MachineFault::FifoOverflowStorm { from_cycle, cycles } => {
                self.storm_windows
                    .push((from_cycle, from_cycle.saturating_add(cycles)));
            }
            MachineFault::StuckReportRow { pu } => {
                if let Some(s) = self.stuck.get_mut(pu) {
                    *s = true;
                }
            }
        }
    }

    /// `true` while an injected overflow storm covers the current cycle.
    fn storm_active(&self) -> bool {
        self.storm_windows
            .iter()
            .any(|&(from, until)| self.cycle >= from && self.cycle < until)
    }

    /// The machine configuration.
    pub fn config(&self) -> &SunderConfig {
        &self.config
    }

    /// How the automaton was placed.
    pub fn placement_summary(&self) -> PlacementSummary {
        self.placement_summary
    }

    /// Statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Per-cause stall attribution so far. Invariants (by construction):
    /// the execution causes sum to [`RunStats::stall_cycles`] and the
    /// summarize cause equals [`RunStats::summarize_stall_cycles`].
    pub fn stall_attribution(&self) -> &StallAttribution {
        &self.stalls
    }

    /// Exports this run's counters and stall attribution into the
    /// telemetry registry under the given `bench` label. No-op when
    /// telemetry is disabled.
    pub fn export_telemetry(&self, bench: &str) {
        if !sunder_telemetry::enabled() {
            return;
        }
        let labels = [("bench", bench)];
        let s = &self.stats;
        sunder_telemetry::counter_add("machine_input_cycles_total", &labels, s.input_cycles);
        sunder_telemetry::counter_add("machine_reports_total", &labels, s.reports);
        sunder_telemetry::counter_add("machine_report_entries_total", &labels, s.report_entries);
        sunder_telemetry::counter_add("machine_flushes_total", &labels, s.flushes);
        sunder_telemetry::counter_add(
            "machine_fifo_drained_entries_total",
            &labels,
            s.fifo_drained_entries,
        );
        sunder_telemetry::counter_add(
            "machine_forced_overflows_total",
            &labels,
            s.forced_overflows,
        );
        sunder_telemetry::counter_add(
            "machine_stuck_row_recoveries_total",
            &labels,
            s.stuck_row_recoveries,
        );
        self.stalls.export_metrics(bench);
    }

    /// Runs a whole input stream, delivering reports to `sink`.
    ///
    /// The input view's stride must match the machine's rate.
    pub fn run<S: ReportSink>(&mut self, input: &InputView, sink: &mut S) -> RunStats {
        assert_eq!(input.stride(), self.stride, "input stride mismatch");
        // Borrowing iteration: no per-cycle symbol-vector allocation.
        for v in input.iter_ref() {
            self.step(v.symbols, v.valid, sink);
        }
        self.stats
    }

    /// Executes one machine cycle.
    ///
    /// # Panics
    ///
    /// Panics (in all build profiles) if the vector length does not match
    /// the machine's stride.
    pub fn step<S: ReportSink>(&mut self, vector: &[u16], valid: usize, sink: &mut S) {
        assert_eq!(
            vector.len(),
            self.stride,
            "symbol vector length must equal the machine stride"
        );
        self.generation += 1;
        let gen = self.generation;

        // Candidate PUs: pending potential-next-states + start wakes.
        let mut candidates = std::mem::take(&mut self.pending);
        for &pu in &candidates {
            self.stamp[pu as usize] = gen;
        }
        let aligned = self.cycle.is_multiple_of(self.start_period);
        if aligned || self.cycle == 0 {
            for (j, &sym) in vector.iter().enumerate().take(valid.min(self.stride)) {
                for &pu in &self.start_wake[j][sym as usize] {
                    if self.stamp[pu as usize] != gen {
                        self.stamp[pu as usize] = gen;
                        candidates.push(pu);
                    }
                }
            }
            for &pu in &self.always_wake {
                if self.stamp[pu as usize] != gen {
                    self.stamp[pu as usize] = gen;
                    candidates.push(pu);
                }
            }
        }

        self.report_batch.clear();
        self.cross_buf.clear();

        for &pi in &candidates {
            let pu = &mut self.pus[pi as usize];
            let mut enabled = std::mem::replace(&mut pu.enabled_next, ZERO_ROW);
            if aligned {
                rowops::or_assign(&mut enabled, &pu.allinput_start);
            }
            if self.cycle == 0 {
                rowops::or_assign(&mut enabled, &pu.sod_start);
            }
            if !rowops::any(&enabled) {
                continue;
            }

            // State matching: multi-row activation, one row per nibble.
            let mut rows = [0usize; 8];
            for (j, r) in rows.iter_mut().take(valid.min(self.stride)).enumerate() {
                *r = 16 * j + vector[j] as usize;
            }
            let mut matched = pu.subarray.multi_row_and(&rows[..valid.min(self.stride)]);
            for j in valid..self.stride {
                matched = rowops::and(&matched, &pu.full_masks[j]);
            }

            let active = rowops::and(&enabled, &matched);
            if !rowops::any(&active) {
                continue;
            }
            self.stats.pu_work_cycles += 1;
            self.stats.active_state_cycles += rowops::count(&active) as u64;

            // State transition: local crossbar + global switches.
            for col in rowops::iter_ones(&active) {
                rowops::or_assign(&mut pu.enabled_next, &pu.crossbar[col]);
            }
            if !pu.cross_out.is_empty() {
                for &(col, tpu, tcol) in &pu.cross_out {
                    if rowops::get(&active, col as usize) {
                        self.cross_buf.push((tpu, tcol));
                    }
                }
            }

            // Reporting.
            let fired = rowops::and(&active, &pu.report_mask);
            if rowops::any(&fired) {
                let base = ROW_BITS - self.config.report_columns;
                let mut mask = 0u32;
                for col in rowops::iter_ones(&fired) {
                    mask |= 1 << (col - base);
                    let state = pu.col_state[col].expect("report column occupied");
                    for r in &pu.col_reports[col] {
                        if (r.offset as usize) < valid {
                            self.report_batch.push(ReportEvent {
                                cycle: self.cycle,
                                state,
                                info: *r,
                            });
                        }
                    }
                }
                self.write_report_entry(pi, mask);
            }
        }

        // Apply cross-PU signals and rebuild the pending list.
        let next_gen = gen + 1;
        self.generation = next_gen;
        let cross_buf = std::mem::take(&mut self.cross_buf);
        for &(tpu, tcol) in &cross_buf {
            rowops::set(&mut self.pus[tpu as usize].enabled_next, tcol as usize);
        }
        for &pi in &candidates {
            if rowops::any(&self.pus[pi as usize].enabled_next)
                && self.stamp[pi as usize] != next_gen
            {
                self.stamp[pi as usize] = next_gen;
                self.pending.push(pi);
            }
        }
        for &(tpu, _) in &cross_buf {
            if self.stamp[tpu as usize] != next_gen {
                self.stamp[tpu as usize] = next_gen;
                self.pending.push(tpu);
            }
        }
        self.cross_buf = cross_buf;
        // `candidates` is the drained previous pending list; its
        // allocation is dropped here (per-cycle churn is negligible next
        // to the bitwise work).
        drop(candidates);

        // FIFO drain tick.
        if self.config.fifo
            && self
                .cycle
                .is_multiple_of(u64::from(self.config.drain_period_cycles))
        {
            let dirty = std::mem::take(&mut self.fifo_dirty);
            for &pi in &dirty {
                if self.stuck[pi as usize] {
                    // Stuck report rows: the drain reads nothing; the PU
                    // stays dirty so a later recovery can resume it.
                    self.fifo_dirty.push(pi);
                    continue;
                }
                let pu = &mut self.pus[pi as usize];
                let drained = pu.region.drain_row(&pu.subarray);
                self.stats.fifo_drained_entries += drained.len() as u64;
                if !pu.region.is_empty() {
                    self.fifo_dirty.push(pi);
                }
            }
        }

        if !self.report_batch.is_empty() {
            self.stats.report_cycles += 1;
            self.stats.reports += self.report_batch.len() as u64;
            self.report_batch.sort_unstable();
            let batch = std::mem::take(&mut self.report_batch);
            sink.on_cycle_reports(self.cycle, &batch);
            self.report_batch = batch;
        }
        self.stats.input_cycles += 1;
        self.cycle += 1;
    }

    /// Writes one report entry into a PU's region, modelling the stall
    /// behavior on overflow.
    fn write_report_entry(&mut self, pi: u32, mask: u32) {
        let config = self.config;
        self.stats.report_entries += 1;
        let storm = self.storm_active();
        let stuck = self.stuck[pi as usize];
        let pu = &mut self.pus[pi as usize];
        let first = if storm {
            // Injected overflow storm: the write is forced down the full
            // path without touching the region, so stall accounting is
            // charged exactly as a real overflow would charge it.
            self.stats.forced_overflows += 1;
            WriteOutcome::Full
        } else {
            pu.region.write(&mut pu.subarray, mask, self.cycle)
        };
        match first {
            WriteOutcome::Stored => {
                if config.fifo && pu.region.len() == 1 {
                    self.fifo_dirty.push(pi);
                }
            }
            WriteOutcome::Full => {
                self.stats.flushes += 1;
                if config.fifo {
                    // Wait for the next drain tick, drain one row, retry.
                    self.stats.stall_cycles += u64::from(config.drain_period_cycles);
                    self.stalls.charge(
                        StallCause::FifoDrainWait,
                        u64::from(config.drain_period_cycles),
                    );
                    if !stuck {
                        let drained = pu.region.drain_row(&pu.subarray);
                        self.stats.fifo_drained_entries += drained.len() as u64;
                    }
                } else {
                    // Flush: the whole device stalls while the region
                    // bursts out through Port 1. Regions filling in the
                    // same cycle drain in parallel (one stall episode).
                    if self.last_flush_cycle != Some(self.cycle) {
                        self.stats.stall_cycles += config.flush_stall_cycles();
                        self.stalls
                            .charge(StallCause::FlushDrain, config.flush_stall_cycles());
                        self.last_flush_cycle = Some(self.cycle);
                    }
                    let _ = pu.region.flush(&mut pu.subarray);
                }
                let mut retry = if storm && config.fifo && stuck {
                    // The overflow wait drained nothing through the stuck
                    // row, so the forced overflow stands: wedge and take
                    // the recovery path below.
                    WriteOutcome::Full
                } else {
                    pu.region.write(&mut pu.subarray, mask, self.cycle)
                };
                if retry != WriteOutcome::Stored {
                    // Graceful fallback: a stuck row blocks the FIFO drain,
                    // so instead of wedging, the machine falls back to a
                    // full flush (which power-cycles the row) and records
                    // the recovery.
                    self.stats.stuck_row_recoveries += 1;
                    if self.last_flush_cycle != Some(self.cycle) {
                        self.stats.stall_cycles += config.flush_stall_cycles();
                        self.stalls
                            .charge(StallCause::StuckRowRecovery, config.flush_stall_cycles());
                        self.last_flush_cycle = Some(self.cycle);
                    }
                    let _ = pu.region.flush(&mut pu.subarray);
                    retry = pu.region.write(&mut pu.subarray, mask, self.cycle);
                    assert_eq!(
                        retry,
                        WriteOutcome::Stored,
                        "write must succeed after a full flush"
                    );
                }
                if config.fifo && !pu.region.is_empty() && pu.region.len() == 1 {
                    self.fifo_dirty.push(pi);
                }
            }
        }
    }

    /// Host-side summarization of one PU's reporting region: returns the
    /// `m`-bit occurrence vector and charges the 1–2 cycle stall per
    /// 16-row batch that the Port 2 multi-row activation costs.
    pub fn summarize_pu(&mut self, pu: usize) -> u32 {
        let p = &self.pus[pu];
        let mask = p.region.summarize(&p.subarray);
        let stall = 2 * p.region.summarize_batches();
        self.stats.summarize_stall_cycles += stall;
        self.stalls.charge(StallCause::Summarize, stall);
        mask
    }

    /// Host-side selective read: entry `index` (0 = oldest) of a PU's
    /// region, without consuming it.
    pub fn peek_report(&self, pu: usize, index: u64) -> Option<ReportEntry> {
        let p = &self.pus[pu];
        p.region.peek(&p.subarray, index)
    }

    /// Host-side flush of one PU's region (end-of-run readout).
    pub fn flush_pu(&mut self, pu: usize) -> Vec<ReportEntry> {
        let p = &mut self.pus[pu];
        p.region.flush(&mut p.subarray)
    }

    /// Number of processing units.
    pub fn num_pus(&self) -> usize {
        self.pus.len()
    }

    /// Report ids attached to the state at report-mask bit `bit` of `pu`
    /// (empty if the column is unoccupied).
    pub fn report_rule_ids(&self, pu: usize, bit: u8) -> Vec<u32> {
        let col = ROW_BITS - self.config.report_columns + bit as usize;
        self.pus[pu].col_reports[col].iter().map(|r| r.id).collect()
    }

    /// Entries currently buffered in a PU's region.
    pub fn region_len(&self, pu: usize) -> u64 {
        self.pus[pu].region.len()
    }

    /// The raw storage of a PU's subarray (matching rows + reporting
    /// region) — what the system-integration layer maps into cache lines.
    pub fn subarray(&self, pu: usize) -> &Subarray {
        &self.pus[pu].subarray
    }

    /// The automaton states mapped to a PU's report columns, lowest column
    /// first (bit `i` of an entry's report mask corresponds to element `i`
    /// of this list's padding-adjusted position — see `report_column_states`).
    pub fn report_column_states(&self, pu: usize) -> Vec<(u8, StateId)> {
        let base = ROW_BITS - self.config.report_columns;
        let p = &self.pus[pu];
        (base..ROW_BITS)
            .filter_map(|c| p.col_state[c].map(|s| ((c - base) as u8, s)))
            .filter(|&(bit, _)| {
                let col = base + bit as usize;
                rowops::get(&p.report_mask, col)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_automata::{Ste, SymbolSet};
    use sunder_sim::TraceSink;
    use sunder_transform::Rate;

    /// A maximally hot automaton at the 8-bit rate: one all-input,
    /// all-don't-care state reporting on the last nibble of every byte.
    /// Every cycle does work, reports, and writes one region entry —
    /// which makes the stall/flush arithmetic below exact.
    fn hot_nfa() -> Nfa {
        let mut nfa = Nfa::with_stride(4, 2);
        let s = nfa.add_state(
            Ste::with_charsets(vec![SymbolSet::full(4), SymbolSet::full(4)])
                .start(StartKind::AllInput)
                .report_at(0, 1),
        );
        nfa.add_edge(s, s);
        nfa
    }

    fn hot_machine(fifo: bool) -> SunderMachine {
        let config = SunderConfig::with_rate(Rate::Nibble2).fifo(fifo);
        SunderMachine::new(&hot_nfa(), config).expect("one state always places")
    }

    /// 4000 bytes at the 8-bit rate = 4000 machine cycles.
    fn run_hot(machine: &mut SunderMachine, bytes: usize) -> RunStats {
        let input = InputView::new(&vec![0u8; bytes], 4, 2).unwrap();
        let mut sink = sunder_sim::NullSink;
        machine.run(&input, &mut sink)
    }

    #[test]
    fn flush_stall_accounting_is_exact() {
        // Nibble2 geometry: 224 report rows × 8 entries/row = 1792-entry
        // capacity, 224 stall cycles per flush. 4000 entries overflow the
        // region exactly twice (at entries 1793 and 3585).
        let mut machine = hot_machine(false);
        let stats = run_hot(&mut machine, 4000);
        assert_eq!(stats.input_cycles, 4000);
        assert_eq!(stats.pu_work_cycles, 4000);
        assert_eq!(stats.active_state_cycles, 4000);
        assert_eq!(stats.reports, 4000);
        assert_eq!(stats.report_cycles, 4000);
        assert_eq!(stats.report_entries, 4000);
        assert_eq!(stats.flushes, 2);
        assert_eq!(stats.stall_cycles, 2 * 224);
        assert_eq!(stats.total_cycles(), 4000 + 448);
        // 4000 − 2·1792 entries remain buffered.
        assert_eq!(machine.region_len(0), 416);
    }

    #[test]
    fn region_readback_after_flushes() {
        let mut machine = hot_machine(false);
        run_hot(&mut machine, 4000);
        let columns = machine.report_column_states(0);
        assert_eq!(columns.len(), 1, "one report state, one report column");
        let bit = columns[0].0;
        assert_eq!(machine.report_rule_ids(0, bit), vec![0]);

        // Oldest surviving entry was written at cycle 3584 (right after
        // the second flush); peek must not consume it.
        let oldest = machine.peek_report(0, 0).expect("region is not empty");
        assert_eq!(oldest.cycle, 3584);
        assert_eq!(oldest.report_mask, 1 << bit);
        assert_eq!(machine.region_len(0), 416);

        let drained = machine.flush_pu(0);
        assert_eq!(drained.len(), 416);
        assert_eq!(drained[0], oldest);
        assert_eq!(drained[415].cycle, 3999);
        assert_eq!(machine.region_len(0), 0);
        assert!(machine.peek_report(0, 0).is_none());
    }

    #[test]
    fn fifo_drain_keeps_pace_without_stalls() {
        // Default drain period 8 reads one 8-entry row per tick — exactly
        // the hot automaton's fill rate, so the region never overflows.
        let mut machine = hot_machine(true);
        let stats = run_hot(&mut machine, 4000);
        assert_eq!(stats.flushes, 0);
        assert_eq!(stats.stall_cycles, 0);
        // Every entry is either already drained or still buffered.
        assert_eq!(stats.fifo_drained_entries + machine.region_len(0), 4000);
        assert!(stats.fifo_drained_entries > 0);
    }

    #[test]
    fn fifo_slow_drain_stalls_on_overflow() {
        let mut config = SunderConfig::with_rate(Rate::Nibble2).fifo(true);
        config.drain_period_cycles = 64; // 8 entries per 64 cycles: too slow
        let mut machine = SunderMachine::new(&hot_nfa(), config).unwrap();
        let stats = run_hot(&mut machine, 4000);
        assert!(stats.flushes > 0, "region must overflow under a slow drain");
        // Each overflow waits one drain period, then drains a single row.
        assert_eq!(stats.stall_cycles, stats.flushes * 64);
        assert_eq!(stats.fifo_drained_entries + machine.region_len(0), 4000);
    }

    #[test]
    fn padding_suppresses_mid_vector_report_offsets() {
        // Three nibbles at stride 2: the second vector carries one valid
        // symbol. The state still matches (don't-care charsets), and the
        // hardware still writes a region entry, but the report at offset 1
        // lands in the padding and must not reach the sink.
        let mut machine = hot_machine(false);
        let input = InputView::from_symbols(vec![0, 0, 0], 2);
        let mut sink = TraceSink::new();
        let stats = machine.run(&input, &mut sink);
        assert_eq!(stats.input_cycles, 2);
        assert_eq!(stats.pu_work_cycles, 2);
        assert_eq!(stats.reports, 1);
        assert_eq!(stats.report_cycles, 1);
        assert_eq!(stats.report_entries, 2);
        assert_eq!(sink.cycle_id_pairs(), vec![(0, 0)]);
    }

    #[test]
    fn summarize_charges_port2_batch_stalls() {
        let mut machine = hot_machine(false);
        run_hot(&mut machine, 20);
        let columns = machine.report_column_states(0);
        let mask = machine.summarize_pu(0);
        assert_eq!(mask, 1 << columns[0].0);
        // Nibble2: 224 report rows = 14 batches of 16 rows, 2 cycles each.
        assert_eq!(machine.stats().summarize_stall_cycles, 2 * 14);
        // Summarization is non-destructive.
        assert_eq!(machine.region_len(0), 20);
    }

    #[test]
    fn overflow_storm_accounting_is_exact_without_fifo() {
        // Storm cycles 10..15: five forced overflows, each its own flush
        // episode (one per cycle), each charging the full 224-cycle stall.
        let mut machine = hot_machine(false);
        machine.inject_fault(MachineFault::FifoOverflowStorm {
            from_cycle: 10,
            cycles: 5,
        });
        let stats = run_hot(&mut machine, 100);
        assert_eq!(stats.forced_overflows, 5);
        assert_eq!(stats.flushes, 5);
        assert_eq!(stats.stall_cycles, 5 * 224);
        assert_eq!(stats.report_entries, 100);
        // Each forced flush empties the region and stores one entry, so
        // the survivors are the storm's last write plus everything after.
        assert_eq!(machine.region_len(0), 86);
        assert_eq!(stats.stuck_row_recoveries, 0);
    }

    #[test]
    fn overflow_storm_in_fifo_mode_charges_drain_waits() {
        let mut machine = hot_machine(true);
        machine.inject_fault(MachineFault::FifoOverflowStorm {
            from_cycle: 10,
            cycles: 3,
        });
        let stats = run_hot(&mut machine, 100);
        assert_eq!(stats.forced_overflows, 3);
        assert_eq!(stats.flushes, 3);
        // Each forced overflow waits one default drain period (8 cycles).
        assert_eq!(stats.stall_cycles, 3 * 8);
        // Entry conservation: every entry is drained or still buffered.
        assert_eq!(stats.fifo_drained_entries + machine.region_len(0), 100);
    }

    #[test]
    fn overflow_storm_through_stuck_row_wedges_every_forced_overflow() {
        // A stuck row blocks the overflow-wait drain, so each storm-forced
        // overflow wedges: one drain wait plus one recovery flush apiece.
        let mut machine = hot_machine(true);
        machine.inject_fault(MachineFault::FifoOverflowStorm {
            from_cycle: 10,
            cycles: 3,
        });
        machine.inject_fault(MachineFault::StuckReportRow { pu: 0 });
        let stats = run_hot(&mut machine, 100);
        assert_eq!(stats.forced_overflows, 3);
        assert_eq!(stats.stuck_row_recoveries, 3);
        assert_eq!(stats.stall_cycles, 3 * (8 + 224));
        let att = machine.stall_attribution();
        assert_eq!(att.cycles(StallCause::FifoDrainWait), 3 * 8);
        assert_eq!(att.cycles(StallCause::StuckRowRecovery), 3 * 224);
        // Nothing drains through the stuck row; recovery flushes empty the
        // region, so only the post-storm tail survives.
        assert_eq!(stats.fifo_drained_entries, 0);
        assert_eq!(att.stall_cycles(), stats.stall_cycles);
    }

    #[test]
    fn stuck_row_wedges_fifo_and_recovers_with_full_flush() {
        // Slow drain (64 cycles/row) would already overflow; a stuck row
        // additionally blocks both the ticks and the overflow-wait drain,
        // so every overflow wedges and recovers via full flush.
        let mut config = SunderConfig::with_rate(Rate::Nibble2).fifo(true);
        config.drain_period_cycles = 64;
        let mut machine = SunderMachine::new(&hot_nfa(), config).unwrap();
        machine.inject_fault(MachineFault::StuckReportRow { pu: 0 });
        let stats = run_hot(&mut machine, 4000);
        // Region capacity 1792: overflow at entries 1793 and 3585.
        assert_eq!(stats.flushes, 2);
        assert_eq!(stats.stuck_row_recoveries, 2);
        // Each episode: one drain-period wait + one full-flush stall.
        assert_eq!(stats.stall_cycles, 2 * (64 + 224));
        // Nothing ever drains through the stuck row.
        assert_eq!(stats.fifo_drained_entries, 0);
        // Survivors: 1 after each recovery + the tail after the second.
        assert_eq!(machine.region_len(0), 416);
    }

    #[test]
    fn stuck_row_on_nonexistent_pu_is_ignored() {
        let mut machine = hot_machine(true);
        machine.inject_fault(MachineFault::StuckReportRow { pu: 99 });
        let stats = run_hot(&mut machine, 4000);
        assert_eq!(stats.stuck_row_recoveries, 0);
        assert_eq!(stats.stall_cycles, 0);
        assert_eq!(stats.fifo_drained_entries + machine.region_len(0), 4000);
    }

    #[test]
    fn storm_outside_input_changes_nothing() {
        let mut clean = hot_machine(false);
        let clean_stats = run_hot(&mut clean, 100);
        let mut armed = hot_machine(false);
        armed.inject_fault(MachineFault::FifoOverflowStorm {
            from_cycle: 10_000,
            cycles: 50,
        });
        let armed_stats = run_hot(&mut armed, 100);
        assert_eq!(armed_stats, clean_stats);
        assert_eq!(armed_stats.forced_overflows, 0);
    }

    #[test]
    fn storm_stalls_attributed_to_flush_drain_exactly() {
        // Non-FIFO storm (cycles 10..15): five forced overflows, five
        // flush episodes of exactly 224 cycles each.
        let mut machine = hot_machine(false);
        machine.inject_fault(MachineFault::FifoOverflowStorm {
            from_cycle: 10,
            cycles: 5,
        });
        let stats = run_hot(&mut machine, 100);
        let att = machine.stall_attribution();
        assert_eq!(att.count(StallCause::FlushDrain), 5);
        assert_eq!(att.cycles(StallCause::FlushDrain), 5 * 224);
        // All five episodes land in the 128..=255 bucket.
        assert_eq!(att.episodes(StallCause::FlushDrain).bucket(7), 5);
        assert_eq!(att.cycles(StallCause::FifoDrainWait), 0);
        assert_eq!(att.cycles(StallCause::StuckRowRecovery), 0);
        assert_eq!(att.stall_cycles(), stats.stall_cycles);
    }

    #[test]
    fn fifo_storm_stalls_attributed_to_drain_waits_exactly() {
        // FIFO storm (cycles 10..13): three drain-period waits of 8
        // cycles each.
        let mut machine = hot_machine(true);
        machine.inject_fault(MachineFault::FifoOverflowStorm {
            from_cycle: 10,
            cycles: 3,
        });
        let stats = run_hot(&mut machine, 100);
        let att = machine.stall_attribution();
        assert_eq!(att.count(StallCause::FifoDrainWait), 3);
        assert_eq!(att.cycles(StallCause::FifoDrainWait), 3 * 8);
        // 8-cycle episodes land in bucket 3 (8..=15).
        assert_eq!(att.episodes(StallCause::FifoDrainWait).bucket(3), 3);
        assert_eq!(att.cycles(StallCause::FlushDrain), 0);
        assert_eq!(att.stall_cycles(), stats.stall_cycles);
    }

    #[test]
    fn stuck_row_stalls_split_between_wait_and_recovery() {
        // Stuck row under a slow drain: two wedged overflows, each one
        // 64-cycle drain wait plus one 224-cycle recovery flush.
        let mut config = SunderConfig::with_rate(Rate::Nibble2).fifo(true);
        config.drain_period_cycles = 64;
        let mut machine = SunderMachine::new(&hot_nfa(), config).unwrap();
        machine.inject_fault(MachineFault::StuckReportRow { pu: 0 });
        let stats = run_hot(&mut machine, 4000);
        let att = machine.stall_attribution();
        assert_eq!(att.count(StallCause::FifoDrainWait), 2);
        assert_eq!(att.cycles(StallCause::FifoDrainWait), 2 * 64);
        assert_eq!(att.count(StallCause::StuckRowRecovery), 2);
        assert_eq!(att.cycles(StallCause::StuckRowRecovery), 2 * 224);
        assert_eq!(att.stall_cycles(), stats.stall_cycles);
        assert_eq!(stats.stall_cycles, 2 * (64 + 224));
    }

    #[test]
    fn attribution_invariants_hold_on_clean_and_summarized_runs() {
        let mut machine = hot_machine(false);
        let stats = run_hot(&mut machine, 4000);
        machine.summarize_pu(0);
        let att = machine.stall_attribution();
        assert_eq!(att.stall_cycles(), stats.stall_cycles);
        assert_eq!(
            att.cycles(StallCause::Summarize),
            machine.stats().summarize_stall_cycles
        );
        assert_eq!(att.count(StallCause::FlushDrain), stats.flushes);
    }

    /// The acceptance tie between the telemetry artifact and the cycle
    /// model: exported per-cause stall counters must exactly equal the
    /// `RunStats` aggregates for the same run. This is the only arch
    /// test that touches the process-global telemetry registry.
    #[test]
    fn exported_stall_metrics_equal_run_stats() {
        let mut machine = hot_machine(true);
        machine.inject_fault(MachineFault::FifoOverflowStorm {
            from_cycle: 10,
            cycles: 3,
        });
        let stats = run_hot(&mut machine, 100);
        sunder_telemetry::init(sunder_telemetry::Config::metrics());
        machine.export_telemetry("hot");
        let dump = sunder_telemetry::finish().unwrap();
        assert_eq!(
            dump.metrics
                .counter("machine_input_cycles_total", &[("bench", "hot")]),
            Some(stats.input_cycles)
        );
        assert_eq!(
            dump.metrics.counter(
                "machine_stall_cycles_total",
                &[("bench", "hot"), ("cause", "fifo_drain_wait")]
            ),
            Some(stats.stall_cycles)
        );
        assert_eq!(
            dump.metrics
                .counter("machine_forced_overflows_total", &[("bench", "hot")]),
            Some(3)
        );
        let h = dump
            .metrics
            .histogram(
                "machine_stall_episode_cycles",
                &[("bench", "hot"), ("cause", "fifo_drain_wait")],
            )
            .unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.total(), stats.stall_cycles);
    }

    #[test]
    fn single_state_placement_summary() {
        let machine = hot_machine(false);
        assert_eq!(machine.num_pus(), 1);
        let summary = machine.placement_summary();
        assert_eq!(summary.pus, 1);
        assert_eq!(summary.cross_pu_edges, 0);
        assert_eq!(summary.max_pus_per_component, 1);
        assert_eq!(machine.config().rate, Rate::Nibble2);
    }
}
