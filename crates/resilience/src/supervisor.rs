//! The panic-isolating job supervisor.
//!
//! [`supervise`] runs a batch of independent work items on a pool of
//! scoped worker threads (the calling thread is worker 0), exactly like a
//! plain parallel map — except that no single item can take the batch
//! down. Each attempt runs under `catch_unwind`; panics, errors,
//! timeouts, and degradations become structured [`JobOutcome`]s carrying
//! the item's name, so the caller can finish the batch, report partial
//! results, and exit nonzero instead of dying mid-suite. It is the
//! workspace's one pool for such batches: the suite, the table binaries
//! and the stream scheduler all run on it.
//!
//! Scheduling is dynamic (workers claim items from an atomic counter) but
//! the returned reports are merged **by item index**, so output order is
//! deterministic for any worker count — the property the benchmark suite
//! relies on for byte-identical artifacts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::budget::{Budget, CancelToken};

/// What one supervised job produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<R> {
    /// Completed normally.
    Ok(R),
    /// Completed, but on a degraded path (e.g. dense build fell back to
    /// sparse execution). The value is still usable.
    Degraded {
        /// The result produced on the degraded path.
        value: R,
        /// Human-readable description of the degradation.
        reason: String,
    },
    /// The job panicked; the payload message is captured.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The job exceeded its wall-clock deadline (either it observed its
    /// budget and stopped, or the watchdog caught it post hoc).
    TimedOut {
        /// Wall-clock time the job actually took.
        elapsed: Duration,
    },
    /// The job was never run: the batch was cancelled first.
    Cancelled,
    /// The job returned a hard error (after exhausting any retries).
    Failed {
        /// The error message.
        error: String,
    },
}

impl<R> JobOutcome<R> {
    /// Stable lowercase status name (used in JSON artifacts).
    pub fn status(&self) -> &'static str {
        match self {
            JobOutcome::Ok(_) => "ok",
            JobOutcome::Degraded { .. } => "degraded",
            JobOutcome::Panicked { .. } => "panicked",
            JobOutcome::TimedOut { .. } => "timed_out",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::Failed { .. } => "failed",
        }
    }

    /// The produced value, if the job completed (normally or degraded).
    pub fn value(&self) -> Option<&R> {
        match self {
            JobOutcome::Ok(v) | JobOutcome::Degraded { value: v, .. } => Some(v),
            _ => None,
        }
    }

    /// The same outcome with its value (if any) mapped through `f`.
    pub fn map<S>(self, f: impl FnOnce(R) -> S) -> JobOutcome<S> {
        match self {
            JobOutcome::Ok(v) => JobOutcome::Ok(f(v)),
            JobOutcome::Degraded { value, reason } => JobOutcome::Degraded {
                value: f(value),
                reason,
            },
            JobOutcome::Panicked { message } => JobOutcome::Panicked { message },
            JobOutcome::TimedOut { elapsed } => JobOutcome::TimedOut { elapsed },
            JobOutcome::Cancelled => JobOutcome::Cancelled,
            JobOutcome::Failed { error } => JobOutcome::Failed { error },
        }
    }

    /// `true` for [`JobOutcome::Ok`] and [`JobOutcome::Degraded`].
    pub fn is_success(&self) -> bool {
        self.value().is_some()
    }
}

/// A job's error channel: how a *returned* failure should be treated.
/// (Panics need no variant — they are caught by the supervisor itself.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Worth retrying (with backoff) up to the policy's retry count.
    Transient(String),
    /// Not worth retrying.
    Fatal(String),
    /// The job observed its budget expiring and stopped early.
    TimedOut,
}

/// A successful job return: a value, possibly with a degradation note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobValue<R> {
    /// Full-fidelity result.
    Ok(R),
    /// Result produced on a fallback path.
    Degraded {
        /// The result produced on the degraded path.
        value: R,
        /// Human-readable description of the degradation.
        reason: String,
    },
}

/// Per-attempt context handed to the job closure.
#[derive(Debug)]
pub struct JobContext {
    /// Cooperative budget for this attempt; carries the per-job deadline
    /// and the batch-level cancel token. Thread it into engine run loops.
    pub budget: Budget,
    /// Zero-based attempt number (0 = first try).
    pub attempt: u32,
}

/// Supervisor knobs. The default isolates panics but adds no deadline and
/// no retries — semantically closest to a plain parallel map.
#[derive(Debug, Clone, Default)]
pub struct SupervisorPolicy {
    /// Per-job wall-clock deadline. `None` = unbounded.
    pub deadline: Option<Duration>,
    /// Retries (beyond the first attempt) for [`JobError::Transient`].
    pub retries: u32,
    /// Base backoff between retries; attempt `k` sleeps `backoff × 2^k`,
    /// capped at 1 s. [`Duration::ZERO`] disables sleeping.
    pub backoff: Duration,
    /// Cancel pending (unstarted) items after the first panic/timeout/
    /// failure; running items finish.
    pub fail_fast: bool,
    /// External cancellation: pending items become [`JobOutcome::Cancelled`]
    /// once this trips.
    pub cancel: Option<CancelToken>,
}

impl SupervisorPolicy {
    /// A policy with a per-job deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        SupervisorPolicy {
            deadline: Some(deadline),
            ..Self::default()
        }
    }
}

/// One supervised job's full report.
#[derive(Debug, Clone)]
pub struct JobReport<R> {
    /// Index of the item in the input slice.
    pub index: usize,
    /// The item's display name (failure attribution).
    pub name: String,
    /// What happened.
    pub outcome: JobOutcome<R>,
    /// Attempts consumed (≥ 1 unless cancelled before starting).
    pub attempts: u32,
    /// Wall-clock time across all attempts (zero if never started).
    pub elapsed: Duration,
}

/// Outcome counts over a batch of [`JobReport`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorSummary {
    /// Jobs that completed normally.
    pub ok: usize,
    /// Jobs that completed on a degraded path.
    pub degraded: usize,
    /// Jobs that panicked.
    pub panicked: usize,
    /// Jobs that exceeded their deadline.
    pub timed_out: usize,
    /// Jobs cancelled before running.
    pub cancelled: usize,
    /// Jobs that returned a hard error.
    pub failed: usize,
}

impl SupervisorSummary {
    /// Tallies a batch of reports.
    pub fn of<R>(reports: &[JobReport<R>]) -> Self {
        let mut s = SupervisorSummary::default();
        for r in reports {
            match &r.outcome {
                JobOutcome::Ok(_) => s.ok += 1,
                JobOutcome::Degraded { .. } => s.degraded += 1,
                JobOutcome::Panicked { .. } => s.panicked += 1,
                JobOutcome::TimedOut { .. } => s.timed_out += 1,
                JobOutcome::Cancelled => s.cancelled += 1,
                JobOutcome::Failed { .. } => s.failed += 1,
            }
        }
        s
    }

    /// Total jobs.
    pub fn total(&self) -> usize {
        self.ok + self.degraded + self.panicked + self.timed_out + self.cancelled + self.failed
    }

    /// Jobs that produced a usable value.
    pub fn successes(&self) -> usize {
        self.ok + self.degraded
    }

    /// `true` when every job completed normally (not even degraded).
    pub fn all_ok(&self) -> bool {
        self.ok == self.total()
    }

    /// `true` when no job failed outright (degradations allowed).
    pub fn no_failures(&self) -> bool {
        self.panicked + self.timed_out + self.cancelled + self.failed == 0
    }
}

impl std::fmt::Display for SupervisorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ok, {} degraded, {} panicked, {} timed out, {} failed, {} cancelled",
            self.ok, self.degraded, self.panicked, self.timed_out, self.failed, self.cancelled
        )
    }
}

/// Stringifies a panic payload (the common `&str` / `String` cases, with
/// a fallback for exotic payloads).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every item under supervision on up to `workers` threads and
/// returns one [`JobReport`] per item, in item order. The calling thread
/// is worker 0 and `workers - 1` scoped helpers are spawned, so one
/// worker spawns nothing.
///
/// `name` labels each item for attribution; `job` does the work. A job
/// signals degradation by returning [`JobValue::Degraded`] and a
/// retryable failure by returning [`JobError::Transient`]. Panics are
/// caught and never retried. A job whose total wall clock exceeds the
/// policy deadline is reported as [`JobOutcome::TimedOut`] even if it
/// eventually returned a value — the watchdog's post-hoc check catches
/// jobs that never polled their budget.
pub fn supervise<T, R, N, F>(
    items: &[T],
    workers: usize,
    policy: &SupervisorPolicy,
    name: N,
    job: F,
) -> Vec<JobReport<R>>
where
    T: Sync,
    R: Send,
    N: Fn(usize, &T) -> String + Sync,
    F: Fn(usize, &T, &JobContext) -> Result<JobValue<R>, JobError> + Sync,
{
    let fail_fast_trip = CancelToken::new();
    let cancelled = |policy: &SupervisorPolicy| {
        policy
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
            || (policy.fail_fast && fail_fast_trip.is_cancelled())
    };

    let run_one = |i: usize, item: &T| -> JobReport<R> {
        let job_name = name(i, item);
        if cancelled(policy) {
            sunder_telemetry::counter_add("supervisor_jobs_total", &[("status", "cancelled")], 1);
            return JobReport {
                index: i,
                name: job_name,
                outcome: JobOutcome::Cancelled,
                attempts: 0,
                elapsed: Duration::ZERO,
            };
        }
        // Lifecycle span: one per job, closed when the report is built,
        // carrying the item name and final status.
        let mut job_span = sunder_telemetry::span("supervisor.job");
        job_span.add_field("job", job_name.clone());
        let trace_instant = |event: &'static str, attempt: u32| {
            if sunder_telemetry::spans_enabled() {
                sunder_telemetry::instant(
                    event,
                    &[
                        ("job", sunder_telemetry::Value::from(job_name.as_str())),
                        ("attempt", sunder_telemetry::Value::from(attempt)),
                    ],
                );
            }
        };
        let started = Instant::now();
        let mut attempt = 0u32;
        let outcome = loop {
            let mut budget = Budget::unlimited();
            if let Some(d) = policy.deadline {
                budget = budget.deadline(d);
            }
            if let Some(token) = &policy.cancel {
                budget = budget.cancel(token.clone());
            }
            let ctx = JobContext { budget, attempt };
            let result = catch_unwind(AssertUnwindSafe(|| job(i, item, &ctx)));
            let elapsed = started.elapsed();
            let over_deadline = policy.deadline.is_some_and(|d| elapsed > d);
            match result {
                Err(payload) => {
                    trace_instant("job.panic", attempt);
                    break JobOutcome::Panicked {
                        message: panic_message(payload.as_ref()),
                    };
                }
                Ok(_) if over_deadline => {
                    trace_instant("job.timeout", attempt);
                    break JobOutcome::TimedOut { elapsed };
                }
                Ok(Err(JobError::TimedOut)) => {
                    trace_instant("job.timeout", attempt);
                    break JobOutcome::TimedOut { elapsed };
                }
                Ok(Ok(JobValue::Ok(v))) => break JobOutcome::Ok(v),
                Ok(Ok(JobValue::Degraded { value, reason })) => {
                    break JobOutcome::Degraded { value, reason };
                }
                Ok(Err(JobError::Fatal(e))) => break JobOutcome::Failed { error: e },
                Ok(Err(JobError::Transient(e))) => {
                    if attempt >= policy.retries || cancelled(policy) {
                        break JobOutcome::Failed { error: e };
                    }
                    trace_instant("job.retry", attempt);
                    if policy.backoff > Duration::ZERO {
                        let factor = 1u32 << attempt.min(10);
                        let sleep = (policy.backoff * factor).min(Duration::from_secs(1));
                        std::thread::sleep(sleep);
                    }
                    attempt += 1;
                }
            }
        };
        if policy.fail_fast && !outcome.is_success() {
            fail_fast_trip.cancel();
        }
        sunder_telemetry::counter_add("supervisor_jobs_total", &[("status", outcome.status())], 1);
        job_span.add_field("status", outcome.status());
        job_span.add_field("attempts", attempt + 1);
        drop(job_span);
        JobReport {
            index: i,
            name: job_name,
            outcome,
            attempts: attempt + 1,
            elapsed: started.elapsed(),
        }
    };

    let workers = workers.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            local.push(run_one(i, item));
        }
        local
    };
    let mut reports: Vec<JobReport<R>> = std::thread::scope(|scope| {
        // The caller is worker 0; only the other `workers - 1` are spawned.
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut reports = drain();
        // Join each helper explicitly: the scope's implicit join returns
        // once the closures finish, before the threads have exited and
        // handed their malloc arenas and stacks back. The next batch's
        // helpers would then race those exits and sometimes get fresh
        // arenas, each of which keeps its freed buffers resident.
        for helper in helpers {
            reports.extend(helper.join().expect("supervisor workers catch job panics"));
        }
        reports
    });

    // Merge by item index: deterministic for any worker count.
    reports.sort_unstable_by_key(|r| r.index);
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn idx_name(i: usize, _: &u32) -> String {
        format!("item-{i}")
    }

    #[test]
    fn all_ok_behaves_like_parallel_map() {
        let items: Vec<u32> = (0..17).collect();
        for workers in [1, 4] {
            let reports = supervise(
                &items,
                workers,
                &SupervisorPolicy::default(),
                idx_name,
                |_, &x, _| Ok(JobValue::Ok(x * 2)),
            );
            assert_eq!(reports.len(), 17);
            for (i, r) in reports.iter().enumerate() {
                assert_eq!(r.index, i);
                assert_eq!(r.name, format!("item-{i}"));
                assert_eq!(r.outcome, JobOutcome::Ok(i as u32 * 2));
                assert_eq!(r.attempts, 1);
            }
            assert!(SupervisorSummary::of(&reports).all_ok());
        }
    }

    #[test]
    fn panic_is_isolated_and_attributed() {
        let items: Vec<u32> = (0..8).collect();
        let reports = supervise(
            &items,
            3,
            &SupervisorPolicy::default(),
            idx_name,
            |i, &x, _| {
                if i == 4 {
                    panic!("boom at {i}");
                }
                Ok(JobValue::Ok(x))
            },
        );
        let summary = SupervisorSummary::of(&reports);
        assert_eq!(summary.ok, 7);
        assert_eq!(summary.panicked, 1);
        assert_eq!(
            reports[4].outcome,
            JobOutcome::Panicked {
                message: "boom at 4".into()
            }
        );
        assert_eq!(reports[4].name, "item-4");
        // The other seven completed despite the panic.
        for (i, r) in reports.iter().enumerate() {
            if i != 4 {
                assert_eq!(r.outcome, JobOutcome::Ok(i as u32));
            }
        }
    }

    #[test]
    fn transient_errors_retry_then_succeed() {
        let items = [0u32];
        let policy = SupervisorPolicy {
            retries: 3,
            ..SupervisorPolicy::default()
        };
        let reports = supervise(&items, 1, &policy, idx_name, |_, &x, ctx| {
            if ctx.attempt < 2 {
                Err(JobError::Transient(format!("flake {}", ctx.attempt)))
            } else {
                Ok(JobValue::Ok(x + 100))
            }
        });
        assert_eq!(reports[0].outcome, JobOutcome::Ok(100));
        assert_eq!(reports[0].attempts, 3);
    }

    #[test]
    fn transient_errors_exhaust_into_failure() {
        let items = [0u32];
        let attempts_seen = AtomicU32::new(0);
        let policy = SupervisorPolicy {
            retries: 2,
            ..SupervisorPolicy::default()
        };
        let reports = supervise(&items, 1, &policy, idx_name, |_, _, _| {
            attempts_seen.fetch_add(1, Ordering::Relaxed);
            Err::<JobValue<u32>, _>(JobError::Transient("always".into()))
        });
        assert_eq!(
            reports[0].outcome,
            JobOutcome::Failed {
                error: "always".into()
            }
        );
        assert_eq!(attempts_seen.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn fatal_errors_do_not_retry() {
        let items = [0u32];
        let policy = SupervisorPolicy {
            retries: 5,
            ..SupervisorPolicy::default()
        };
        let reports = supervise(&items, 1, &policy, idx_name, |_, _, _| {
            Err::<JobValue<u32>, _>(JobError::Fatal("broken".into()))
        });
        assert_eq!(reports[0].attempts, 1);
        assert_eq!(reports[0].outcome.status(), "failed");
    }

    #[test]
    fn slow_job_is_flagged_timed_out_post_hoc() {
        let items = [0u32];
        let policy = SupervisorPolicy::with_deadline(Duration::from_millis(5));
        let reports = supervise(&items, 1, &policy, idx_name, |_, &x, _| {
            std::thread::sleep(Duration::from_millis(40));
            Ok(JobValue::Ok(x))
        });
        assert!(
            matches!(reports[0].outcome, JobOutcome::TimedOut { elapsed } if elapsed >= Duration::from_millis(40)),
            "{:?}",
            reports[0].outcome
        );
    }

    #[test]
    fn cooperative_timeout_maps_to_timed_out() {
        let items = [0u32];
        let policy = SupervisorPolicy::with_deadline(Duration::from_secs(3600));
        let reports = supervise(&items, 1, &policy, idx_name, |_, _, ctx| {
            assert!(!ctx.budget.is_unlimited());
            Err::<JobValue<u32>, _>(JobError::TimedOut)
        });
        assert_eq!(reports[0].outcome.status(), "timed_out");
    }

    #[test]
    fn degraded_value_is_usable() {
        let items = [0u32];
        let reports = supervise(
            &items,
            1,
            &SupervisorPolicy::default(),
            idx_name,
            |_, &x, _| {
                Ok(JobValue::Degraded {
                    value: x + 1,
                    reason: "fallback".into(),
                })
            },
        );
        assert_eq!(reports[0].outcome.value(), Some(&1));
        assert_eq!(reports[0].outcome.status(), "degraded");
        let summary = SupervisorSummary::of(&reports);
        assert!(summary.no_failures());
        assert!(!summary.all_ok());
    }

    #[test]
    fn external_cancellation_skips_pending_items() {
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<u32> = (0..5).collect();
        let policy = SupervisorPolicy {
            cancel: Some(token),
            ..SupervisorPolicy::default()
        };
        let reports = supervise(&items, 2, &policy, idx_name, |_, &x, _| Ok(JobValue::Ok(x)));
        assert!(reports.iter().all(|r| r.outcome == JobOutcome::Cancelled));
        assert_eq!(SupervisorSummary::of(&reports).cancelled, 5);
    }

    #[test]
    fn fail_fast_cancels_the_tail_on_one_worker() {
        // Single worker = strictly sequential, so everything after the
        // panicking item must be cancelled.
        let items: Vec<u32> = (0..6).collect();
        let policy = SupervisorPolicy {
            fail_fast: true,
            ..SupervisorPolicy::default()
        };
        let reports = supervise(&items, 1, &policy, idx_name, |i, &x, _| {
            if i == 2 {
                panic!("die");
            }
            Ok(JobValue::Ok(x))
        });
        assert_eq!(reports[2].outcome.status(), "panicked");
        for r in &reports[3..] {
            assert_eq!(r.outcome, JobOutcome::Cancelled);
        }
        for r in &reports[..2] {
            assert!(r.outcome.is_success());
        }
    }

    #[test]
    fn the_caller_is_worker_zero() {
        // Each job waits until all three run at once, so three workers
        // must each hold one: the caller and two spawned helpers.
        let items = [0u32; 3];
        let barrier = std::sync::Barrier::new(3);
        let reports = supervise(
            &items,
            3,
            &SupervisorPolicy::default(),
            idx_name,
            |_, _, _| {
                barrier.wait();
                Ok(JobValue::Ok(std::thread::current().id()))
            },
        );
        let ids: Vec<_> = reports.iter().filter_map(|r| r.outcome.value()).collect();
        assert_eq!(ids.len(), 3);
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 3, "one job per worker: {ids:?}");
        assert!(ids.contains(&&std::thread::current().id()), "{ids:?}");
    }

    #[test]
    fn summary_totals_add_up() {
        let reports = vec![
            JobReport {
                index: 0,
                name: "a".into(),
                outcome: JobOutcome::Ok(1u32),
                attempts: 1,
                elapsed: Duration::ZERO,
            },
            JobReport {
                index: 1,
                name: "b".into(),
                outcome: JobOutcome::Panicked {
                    message: "x".into(),
                },
                attempts: 1,
                elapsed: Duration::ZERO,
            },
        ];
        let s = SupervisorSummary::of(&reports);
        assert_eq!(s.total(), 2);
        assert_eq!(s.successes(), 1);
        assert!(!s.no_failures());
        assert_eq!(
            format!("{s}"),
            "1 ok, 0 degraded, 1 panicked, 0 timed out, 0 failed, 0 cancelled"
        );
    }
}
