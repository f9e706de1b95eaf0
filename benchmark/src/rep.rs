//! What the measured paths hand back: operation counts and one
//! repetition's samples.

use std::time::Duration;

use crate::stats::percentile_sorted;

/// Operations attempted and failed, with one line per failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Failure lines kept, so that the output stays readable when
    /// something is systematically wrong.
    const KEPT: usize = 20;

    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < Ops::KEPT {
            self.failures.push(why);
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(Ops::KEPT);
    }
}

/// What one repetition measured, on either path. Fields of the other
/// path stay at their defaults.
#[derive(Debug, Default)]
pub struct Rep {
    /// Batch: original input bytes of all streams of all passes.
    /// Serve: input bytes acknowledged by `Reports`, all sessions.
    pub bytes: u64,
    /// Batch: wall time inside `run_batch`, summed over the passes.
    /// Serve: the longest session's time from its epoch to its last reply.
    pub wall: Duration,
    /// Ascending. Batch: per stream, the time its worker spent on it (all
    /// shards + merge). Serve closed loop: send → `Reports` received; open
    /// loop: *due time* → `Reports` received.
    pub latencies_ns: Vec<u64>,

    /// Batch: `BatchReport::busy()` summed over the passes.
    pub busy: Duration,
    pub steals: u64,

    /// Serve: connect → `HelloAck`, per session.
    pub open_us: Vec<u64>,
    pub sends: u64,
    /// Open loop: sends issued more than 0.5 ms after they were due.
    pub late_sends: u64,
    /// Threads in this process while the sessions streamed, minus the
    /// benchmark's own.
    pub server_threads: Option<u64>,
    /// Open loop: when the last chunk was sent, more replies were
    /// outstanding than the sessions' bounded queues hold together.
    pub backlogged: bool,
}

impl Rep {
    pub fn throughput_mbps(&self) -> f64 {
        self.bytes as f64 / self.wall.as_secs_f64() / 1e6
    }

    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        percentile_sorted(&self.latencies_ns, p).map(|ns| ns as f64 / 1e3)
    }

    /// Several repetitions' samples and counts as if they were one.
    pub fn merged(reps: Vec<Rep>) -> Rep {
        let mut all = Rep::default();
        for rep in reps {
            all.bytes += rep.bytes;
            all.wall += rep.wall;
            all.latencies_ns.extend(rep.latencies_ns);
            all.busy += rep.busy;
            all.steals += rep.steals;
            all.open_us.extend(rep.open_us);
            all.sends += rep.sends;
            all.late_sends += rep.late_sends;
            all.server_threads = all.server_threads.max(rep.server_threads);
            all.backlogged |= rep.backlogged;
        }
        all.latencies_ns.sort_unstable();
        all
    }
}
