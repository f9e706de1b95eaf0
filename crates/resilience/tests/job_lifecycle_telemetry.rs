//! Each supervised job gets one `supervisor.job` span with its final
//! status, and retries, panics and timeouts surface as instants.
//!
//! This test owns the process-global telemetry ring and registry, so it
//! must stay the only `#[test]` in this binary: any other test calling
//! `supervise` in the same process would add spans and counts to it.

use sunder_resilience::{supervise, JobError, JobValue, SupervisorPolicy, SupervisorSummary};
use sunder_telemetry::Value;

#[test]
fn job_lifecycle_emits_spans_and_instants() {
    let items: Vec<u32> = (0..4).collect();
    let policy = SupervisorPolicy {
        retries: 2,
        ..SupervisorPolicy::default()
    };
    sunder_telemetry::init(sunder_telemetry::Config::spans());
    let reports = supervise(
        &items,
        1,
        &policy,
        |i, _| format!("item-{i}"),
        |i, &x, ctx| match i {
            1 => panic!("boom"),
            2 if ctx.attempt < 1 => Err(JobError::Transient("flake".into())),
            _ => Ok(JobValue::Ok(x)),
        },
    );
    let dump = sunder_telemetry::finish().unwrap();
    assert_eq!(SupervisorSummary::of(&reports).successes(), 3);

    let spans: Vec<_> = dump
        .events
        .iter()
        .filter(|e| e.name == "supervisor.job")
        .collect();
    assert_eq!(spans.len(), 4, "one lifecycle span per job");
    let status_of = |job: &str| {
        spans
            .iter()
            .find(|s| {
                s.fields
                    .iter()
                    .any(|f| f.key == "job" && f.value == Value::Str(job.to_string()))
            })
            .and_then(|s| s.fields.iter().find(|f| f.key == "status"))
            .map(|f| f.value.clone())
    };
    assert_eq!(status_of("item-1"), Some(Value::Str("panicked".into())));
    assert_eq!(status_of("item-2"), Some(Value::Str("ok".into())));
    assert_eq!(
        dump.events.iter().filter(|e| e.name == "job.panic").count(),
        1
    );
    assert_eq!(
        dump.events.iter().filter(|e| e.name == "job.retry").count(),
        1
    );
    assert_eq!(
        dump.metrics
            .counter("supervisor_jobs_total", &[("status", "ok")]),
        Some(3)
    );
    assert_eq!(
        dump.metrics
            .counter("supervisor_jobs_total", &[("status", "panicked")]),
        Some(1)
    );
}
