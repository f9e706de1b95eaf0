//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded, serializable list of faults keyed by work
//! item index. The suite harness (and the oracle fuzzer) look up
//! [`FaultPlan::faults_for`] before running each item and act the faults
//! out — panicking, stalling, corrupting input bytes, forcing dense-build
//! failures, or arming cycle-model faults — so a single committed plan
//! file reproduces an exact failure pattern on any machine.
//!
//! Plans are self-describing text (one directive per line) so they can be
//! committed next to CI configs and diffed in review:
//!
//! ```text
//! # fault plan: suite smoke
//! seed 42
//! panic 2
//! stall 5 300
//! dense-build-failure 9
//! corrupt-input 3 77
//! transient 4 2
//! fifo-overflow-storm 1 100 50
//! stuck-report-row 6 0
//! disconnect 7 3
//! slow-drip 8 16 25
//! malformed-frame 10 2
//! reload-burst 11 2
//! ```
//!
//! The last four directives target the streaming service's connection
//! layer (see `sunder serve-chaos`): the chaos client acts them out on
//! the wire instead of the worker pool acting them out in-process.

use crate::supervisor::JobError;

/// A single injected fault, targeting one work item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Index of the work item (benchmark / fuzz case) the fault targets.
    pub item: usize,
    /// What to inject.
    pub kind: FaultKind,
}

/// The fault taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker panics mid-job.
    Panic,
    /// The worker stalls for this many milliseconds (drives the watchdog).
    Stall {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// The dense table build "fails" as if allocation were denied,
    /// forcing the adaptive engine down its sparse fallback.
    DenseBuildFailure,
    /// The job's input bytes are deterministically corrupted before
    /// execution (seeded; see [`corrupt`]).
    CorruptInput {
        /// Seed for the corruption pattern.
        seed: u64,
    },
    /// The job fails with a retryable error on its first `failures`
    /// attempts, then succeeds (exercises retry-with-backoff).
    TransientError {
        /// Number of leading attempts that fail.
        failures: u32,
    },
    /// Cycle model: every report write in `[from_cycle, from_cycle+cycles)`
    /// is forced down the region-full path (overflow storm).
    FifoOverflowStorm {
        /// First faulty cycle.
        from_cycle: u64,
        /// Storm length in cycles.
        cycles: u64,
    },
    /// Cycle model: the given PU's report rows stop draining (stuck row),
    /// exercising the machine's full-flush recovery path.
    StuckReportRow {
        /// Index of the stuck processing unit.
        pu: usize,
    },
    /// Streaming service: the client drops the connection mid-stream —
    /// after sending `after_chunks` complete chunks it sends a partial
    /// frame header and closes the socket without `Finish`.
    Disconnect {
        /// Complete chunks delivered before the drop.
        after_chunks: u64,
    },
    /// Streaming service: the client trickles its input in tiny chunks
    /// with a pause between each, exercising per-chunk deadlines and the
    /// session queue's idle behavior.
    SlowDrip {
        /// Bytes per trickled chunk.
        chunk_bytes: u64,
        /// Pause between chunks, in milliseconds.
        delay_millis: u64,
    },
    /// Streaming service: the client sends a malformed frame. `mode`
    /// selects the corruption (0 = zero-length frame, 1 = oversized
    /// declared length, 2 = unknown opcode, 3 = truncated body,
    /// 4 = unknown protocol version in Hello).
    MalformedFrame {
        /// Corruption selector (see variant docs).
        mode: u64,
    },
    /// Streaming service: the client triggers a pattern-DB hot reload
    /// after sending `after_chunks` chunks, mid-burst, so the session
    /// must finish on its pinned pre-reload pipeline epoch.
    ReloadDuringBurst {
        /// Chunks delivered before the reload request.
        after_chunks: u64,
    },
}

impl FaultKind {
    /// Stable directive name (plan-file syntax and JSON attribution).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Stall { .. } => "stall",
            FaultKind::DenseBuildFailure => "dense-build-failure",
            FaultKind::CorruptInput { .. } => "corrupt-input",
            FaultKind::TransientError { .. } => "transient",
            FaultKind::FifoOverflowStorm { .. } => "fifo-overflow-storm",
            FaultKind::StuckReportRow { .. } => "stuck-report-row",
            FaultKind::Disconnect { .. } => "disconnect",
            FaultKind::SlowDrip { .. } => "slow-drip",
            FaultKind::MalformedFrame { .. } => "malformed-frame",
            FaultKind::ReloadDuringBurst { .. } => "reload-burst",
        }
    }
}

/// A deterministic, serializable set of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed recorded with the plan (provenance; also drives [`FaultPlan::seeded`]).
    pub seed: u64,
    /// The injected faults, in plan order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: nothing is injected.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan by hand.
    pub fn new(seed: u64, faults: Vec<Fault>) -> Self {
        FaultPlan { seed, faults }
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Generates a pseudo-random plan over `items` work items: roughly one
    /// fault per four items, drawn from the worker-level taxonomy (panics,
    /// stalls, dense-build failures, corrupted input, transient errors).
    /// Deterministic in `seed`.
    pub fn seeded(seed: u64, items: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut faults = Vec::new();
        for item in 0..items {
            // ~25% of items get a fault.
            if !rng.next().is_multiple_of(4) {
                continue;
            }
            let kind = match rng.next() % 5 {
                0 => FaultKind::Panic,
                1 => FaultKind::Stall {
                    millis: 50 + rng.next() % 200,
                },
                2 => FaultKind::DenseBuildFailure,
                3 => FaultKind::CorruptInput { seed: rng.next() },
                _ => FaultKind::TransientError {
                    failures: 1 + (rng.next() % 2) as u32,
                },
            };
            faults.push(Fault { item, kind });
        }
        FaultPlan { seed, faults }
    }

    /// All faults targeting work item `item`, in plan order.
    pub fn faults_for(&self, item: usize) -> impl Iterator<Item = &FaultKind> {
        self.faults
            .iter()
            .filter(move |f| f.item == item)
            .map(|f| &f.kind)
    }

    /// The job-level faults targeting work item `item`, decoded once for
    /// every worker pool that acts them out. A later directive of the
    /// same kind replaces an earlier one.
    pub fn job_faults(&self, item: usize) -> JobFaults {
        let mut out = JobFaults::default();
        for kind in self.faults_for(item) {
            match kind {
                FaultKind::Panic => out.panic = true,
                FaultKind::Stall { millis } => out.stall_millis = Some(*millis),
                FaultKind::TransientError { failures } => out.transient_failures = *failures,
                FaultKind::CorruptInput { seed } => out.corrupt_seed = Some(*seed),
                // Engine-, cycle-model- and connection-level faults belong
                // to the layers that own those paths.
                _ => {}
            }
        }
        out
    }

    /// Renders the plan in the text format parsed by [`FaultPlan::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# sunder fault plan\n");
        out.push_str(&format!("seed {}\n", self.seed));
        for f in &self.faults {
            match &f.kind {
                FaultKind::Panic => out.push_str(&format!("panic {}\n", f.item)),
                FaultKind::Stall { millis } => {
                    out.push_str(&format!("stall {} {}\n", f.item, millis));
                }
                FaultKind::DenseBuildFailure => {
                    out.push_str(&format!("dense-build-failure {}\n", f.item));
                }
                FaultKind::CorruptInput { seed } => {
                    out.push_str(&format!("corrupt-input {} {}\n", f.item, seed));
                }
                FaultKind::TransientError { failures } => {
                    out.push_str(&format!("transient {} {}\n", f.item, failures));
                }
                FaultKind::FifoOverflowStorm { from_cycle, cycles } => {
                    out.push_str(&format!(
                        "fifo-overflow-storm {} {} {}\n",
                        f.item, from_cycle, cycles
                    ));
                }
                FaultKind::StuckReportRow { pu } => {
                    out.push_str(&format!("stuck-report-row {} {}\n", f.item, pu));
                }
                FaultKind::Disconnect { after_chunks } => {
                    out.push_str(&format!("disconnect {} {}\n", f.item, after_chunks));
                }
                FaultKind::SlowDrip {
                    chunk_bytes,
                    delay_millis,
                } => {
                    out.push_str(&format!(
                        "slow-drip {} {} {}\n",
                        f.item, chunk_bytes, delay_millis
                    ));
                }
                FaultKind::MalformedFrame { mode } => {
                    out.push_str(&format!("malformed-frame {} {}\n", f.item, mode));
                }
                FaultKind::ReloadDuringBurst { after_chunks } => {
                    out.push_str(&format!("reload-burst {} {}\n", f.item, after_chunks));
                }
            }
        }
        out
    }

    /// Parses the one-directive-per-line plan format. Blank lines and
    /// `#` comments are ignored. Unknown directives and malformed
    /// operands are hard errors (a fault plan that silently drops faults
    /// would defeat its purpose).
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let directive = words.next().expect("non-empty line has a first word");
            let fields: Vec<&str> = words.collect();
            let ctx = |msg: &str| format!("fault plan line {}: {msg}: {raw:?}", lineno + 1);
            let num = |s: &str, what: &str| -> Result<u64, String> {
                s.parse::<u64>()
                    .map_err(|_| ctx(&format!("invalid {what}")))
            };
            let arity = |n: usize| -> Result<(), String> {
                if fields.len() == n {
                    Ok(())
                } else {
                    Err(ctx(&format!(
                        "expected {n} operand(s), got {}",
                        fields.len()
                    )))
                }
            };
            match directive {
                "seed" => {
                    arity(1)?;
                    plan.seed = num(fields[0], "seed")?;
                }
                "panic" => {
                    arity(1)?;
                    plan.push(num(fields[0], "item")? as usize, FaultKind::Panic);
                }
                "stall" => {
                    arity(2)?;
                    plan.push(
                        num(fields[0], "item")? as usize,
                        FaultKind::Stall {
                            millis: num(fields[1], "millis")?,
                        },
                    );
                }
                "dense-build-failure" => {
                    arity(1)?;
                    plan.push(
                        num(fields[0], "item")? as usize,
                        FaultKind::DenseBuildFailure,
                    );
                }
                "corrupt-input" => {
                    arity(2)?;
                    plan.push(
                        num(fields[0], "item")? as usize,
                        FaultKind::CorruptInput {
                            seed: num(fields[1], "seed")?,
                        },
                    );
                }
                "transient" => {
                    arity(2)?;
                    plan.push(
                        num(fields[0], "item")? as usize,
                        FaultKind::TransientError {
                            failures: num(fields[1], "failures")? as u32,
                        },
                    );
                }
                "fifo-overflow-storm" => {
                    arity(3)?;
                    plan.push(
                        num(fields[0], "item")? as usize,
                        FaultKind::FifoOverflowStorm {
                            from_cycle: num(fields[1], "from_cycle")?,
                            cycles: num(fields[2], "cycles")?,
                        },
                    );
                }
                "stuck-report-row" => {
                    arity(2)?;
                    plan.push(
                        num(fields[0], "item")? as usize,
                        FaultKind::StuckReportRow {
                            pu: num(fields[1], "pu")? as usize,
                        },
                    );
                }
                "disconnect" => {
                    arity(2)?;
                    plan.push(
                        num(fields[0], "item")? as usize,
                        FaultKind::Disconnect {
                            after_chunks: num(fields[1], "after_chunks")?,
                        },
                    );
                }
                "slow-drip" => {
                    arity(3)?;
                    plan.push(
                        num(fields[0], "item")? as usize,
                        FaultKind::SlowDrip {
                            chunk_bytes: num(fields[1], "chunk_bytes")?,
                            delay_millis: num(fields[2], "delay_millis")?,
                        },
                    );
                }
                "malformed-frame" => {
                    arity(2)?;
                    plan.push(
                        num(fields[0], "item")? as usize,
                        FaultKind::MalformedFrame {
                            mode: num(fields[1], "mode")?,
                        },
                    );
                }
                "reload-burst" => {
                    arity(2)?;
                    plan.push(
                        num(fields[0], "item")? as usize,
                        FaultKind::ReloadDuringBurst {
                            after_chunks: num(fields[1], "after_chunks")?,
                        },
                    );
                }
                other => return Err(ctx(&format!("unknown directive {other:?}"))),
            }
        }
        Ok(plan)
    }

    fn push(&mut self, item: usize, kind: FaultKind) {
        self.faults.push(Fault { item, kind });
    }
}

/// The job-level faults of one work item (see [`FaultPlan::job_faults`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobFaults {
    /// `panic`: every attempt panics.
    pub panic: bool,
    /// `stall`: each attempt first sleeps this many milliseconds.
    pub stall_millis: Option<u64>,
    /// `transient`: the first this-many attempts fail with a retryable
    /// error.
    pub transient_failures: u32,
    /// `corrupt-input`: the seed the item's input is [`corrupt`]ed with.
    /// Applying it is the caller's, since only the caller holds the bytes.
    pub corrupt_seed: Option<u64>,
}

impl JobFaults {
    /// Acts out the faults that stop or delay attempt `attempt` of
    /// `item`, in this order: the panic (its message names `item`), the
    /// transient error, the stall.
    ///
    /// # Errors
    ///
    /// [`JobError::Transient`] while `attempt` is below the requested
    /// failure count.
    ///
    /// # Panics
    ///
    /// When the plan injects a panic into this item.
    pub fn act_out(&self, attempt: u32, item: impl std::fmt::Display) -> Result<(), JobError> {
        if self.panic {
            panic!("injected panic: {item}");
        }
        if attempt < self.transient_failures {
            return Err(JobError::Transient(format!(
                "injected transient failure {} of {}",
                attempt + 1,
                self.transient_failures
            )));
        }
        if let Some(millis) = self.stall_millis {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
        Ok(())
    }
}

/// Deterministically corrupts `data` in place: flips one bit in roughly
/// one byte per 32 (at least one for non-empty input), positions and bit
/// indices drawn from a splitmix64 stream over `seed`.
pub fn corrupt(data: &mut [u8], seed: u64) {
    if data.is_empty() {
        return;
    }
    let mut rng = SplitMix64::new(seed);
    let flips = (data.len() / 32).max(1);
    for _ in 0..flips {
        let pos = (rng.next() % data.len() as u64) as usize;
        let bit = (rng.next() % 8) as u8;
        data[pos] ^= 1 << bit;
    }
}

/// The splitmix64 generator — tiny, seedable, and good enough for fault
/// placement. Kept local so this crate stays dependency-free.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit value.
    #[allow(clippy::should_implement_trait)] // an RNG step, not an Iterator
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip_preserves_every_fault() {
        let plan = FaultPlan::new(
            7,
            vec![
                Fault {
                    item: 2,
                    kind: FaultKind::Panic,
                },
                Fault {
                    item: 5,
                    kind: FaultKind::Stall { millis: 300 },
                },
                Fault {
                    item: 9,
                    kind: FaultKind::DenseBuildFailure,
                },
                Fault {
                    item: 3,
                    kind: FaultKind::CorruptInput { seed: 77 },
                },
                Fault {
                    item: 4,
                    kind: FaultKind::TransientError { failures: 2 },
                },
                Fault {
                    item: 1,
                    kind: FaultKind::FifoOverflowStorm {
                        from_cycle: 100,
                        cycles: 50,
                    },
                },
                Fault {
                    item: 6,
                    kind: FaultKind::StuckReportRow { pu: 0 },
                },
                Fault {
                    item: 7,
                    kind: FaultKind::Disconnect { after_chunks: 3 },
                },
                Fault {
                    item: 8,
                    kind: FaultKind::SlowDrip {
                        chunk_bytes: 16,
                        delay_millis: 25,
                    },
                },
                Fault {
                    item: 10,
                    kind: FaultKind::MalformedFrame { mode: 2 },
                },
                Fault {
                    item: 11,
                    kind: FaultKind::ReloadDuringBurst { after_chunks: 2 },
                },
            ],
        );
        let text = plan.to_text();
        let parsed = FaultPlan::from_text(&text).expect("round trip parses");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let plan = FaultPlan::from_text("# header\n\nseed 9\npanic 1 # trailing\n").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(
            plan.faults,
            vec![Fault {
                item: 1,
                kind: FaultKind::Panic
            }]
        );
    }

    #[test]
    fn malformed_lines_are_hard_errors() {
        for bad in [
            "panic",              // missing operand
            "panic one",          // non-numeric
            "stall 3",            // wrong arity
            "frobnicate 1",       // unknown directive
            "seed 1 2",           // wrong arity
            "stuck-report-row 1", // wrong arity
            "disconnect 1",       // wrong arity
            "slow-drip 1 16",     // wrong arity
            "malformed-frame 1",  // wrong arity
            "reload-burst 1 x",   // non-numeric
        ] {
            let err = FaultPlan::from_text(bad).unwrap_err();
            assert!(err.contains("fault plan line 1"), "{err}");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_nontrivial() {
        let a = FaultPlan::seeded(42, 100);
        let b = FaultPlan::seeded(42, 100);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.faults.iter().all(|f| f.item < 100));
        let c = FaultPlan::seeded(43, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn faults_for_filters_by_item() {
        let plan = FaultPlan::new(
            0,
            vec![
                Fault {
                    item: 3,
                    kind: FaultKind::Panic,
                },
                Fault {
                    item: 1,
                    kind: FaultKind::Stall { millis: 10 },
                },
                Fault {
                    item: 3,
                    kind: FaultKind::DenseBuildFailure,
                },
            ],
        );
        let for3: Vec<_> = plan.faults_for(3).collect();
        assert_eq!(for3, vec![&FaultKind::Panic, &FaultKind::DenseBuildFailure]);
        assert_eq!(plan.faults_for(0).count(), 0);
    }

    #[test]
    fn job_faults_decode_the_job_level_kinds_only() {
        let plan = FaultPlan::from_text(
            "seed 0\nstall 2 10\ntransient 2 2\ncorrupt-input 2 77\n\
             dense-build-failure 2\nstall 2 1\npanic 5\ndisconnect 2 3\n",
        )
        .unwrap();
        let faults = plan.job_faults(2);
        assert_eq!(
            faults,
            JobFaults {
                panic: false,
                stall_millis: Some(1), // the later directive wins
                transient_failures: 2,
                corrupt_seed: Some(77),
            }
        );
        assert_eq!(plan.job_faults(0), JobFaults::default());
        assert!(plan.job_faults(5).panic);

        // Attempts below the failure count fail retryably; later ones
        // stall and go on.
        assert_eq!(
            faults.act_out(1, "item 2"),
            Err(JobError::Transient(
                "injected transient failure 2 of 2".into()
            ))
        );
        assert_eq!(faults.act_out(2, "item 2"), Ok(()));
        assert_eq!(JobFaults::default().act_out(0, "item 0"), Ok(()));
        let panicked = std::panic::catch_unwind(|| plan.job_faults(5).act_out(0, "item 5"));
        let payload = panicked.unwrap_err();
        assert_eq!(
            crate::panic_message(payload.as_ref()),
            "injected panic: item 5"
        );
    }

    #[test]
    fn corruption_is_deterministic_and_changes_input() {
        let original: Vec<u8> = (0..128).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        corrupt(&mut a, 99);
        corrupt(&mut b, 99);
        assert_eq!(a, b);
        assert_ne!(a, original);
        // Exactly len/32 single-bit flips at distinct-or-coincident spots:
        // the Hamming distance is bounded by the flip count.
        let flipped_bits: u32 = a
            .iter()
            .zip(&original)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!((1..=4).contains(&flipped_bits), "{flipped_bits}");
        let mut c = original.clone();
        corrupt(&mut c, 100);
        assert_ne!(a, c, "different seeds should corrupt differently");
    }

    #[test]
    fn corrupting_empty_input_is_a_no_op() {
        let mut empty: Vec<u8> = Vec::new();
        corrupt(&mut empty, 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn splitmix_is_reproducible() {
        let mut a = SplitMix64::new(5);
        let mut b = SplitMix64::new(5);
        for _ in 0..16 {
            assert_eq!(a.next(), b.next());
        }
    }
}
