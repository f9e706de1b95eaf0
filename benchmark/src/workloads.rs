//! The four workloads and the frozen volumes they run at.
//!
//! Everything here is a constant of the benchmark, not a flag: a later
//! change is judged against numbers measured at exactly these settings.
//! The automata come from the ANMLZoo/Regex families of the paper's
//! Table 1 via `sunder_workloads`; they were picked because they split
//! cleanly by activity (states active per cycle) and by report rate.

use std::time::Duration;

use sunder_oracle::PipelineConfig;
use sunder_shard::ShardSpec;
use sunder_sim::EngineKind;
use sunder_workloads::Benchmark;

/// Concurrent streams per batch pass, batch workers, and serve sessions.
/// Load comes from this one process with at most `nproc` (2 on the
/// reference machine) client threads or workers.
pub const LANES: usize = 2;

/// Every workload shards and executes like `ServerConfig::default()`.
pub const SHARD_SPEC: ShardSpec = ShardSpec::MaxShards(4);
pub const ENGINE: EngineKind = EngineKind::Adaptive;

/// How a batch workload obtains its compiled pipeline; this is what its
/// `setup_s` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineSource {
    /// A disk-tier hit of `PipelineCache::with_disk`: the `.sdb` (written
    /// untimed beforehand) is mapped and the engines borrow its tables.
    DiskTier,
    /// A cold `CompiledPipeline::compile`: transform, partition, build.
    ColdCompile,
}

/// The path a workload measures end to end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MainPath {
    /// `run_batch` passes over [`LANES`] streams with [`LANES`] workers.
    Batch { source: PipelineSource },
    /// Closed loop over loopback TCP: each of [`LANES`] sessions sends a
    /// chunk, waits for its `Reports`, and only then sends the next.
    ServeClosed,
    /// Open loop: each session's chunk `k` is due `k × interval` after a
    /// fixed epoch whether or not earlier replies have arrived.
    ServeOpen { interval: Duration },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub benchmark: Benchmark,
    pub state_fraction: f64,
    pub config: PipelineConfig,
    pub main: MainPath,
    /// Bytes per stream (one batch pass reads each stream once; a serve
    /// session stops at the clock or at the end of its stream).
    pub stream_bytes: usize,
    /// Chunk size on the serve path and for the chunked ladder rungs.
    pub chunk_bytes: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "batch-quiet",
        why: "ExactMatch, ~12K states, ~0 active, ~35 reports/MiB, mapped .sdb: \
              input framing, prefilter, shard fan-out and the scheduler do the work; \
              the step kernel, report path and transport idle",
        benchmark: Benchmark::ExactMatch,
        state_fraction: 1.0,
        config: PipelineConfig::Identity,
        main: MainPath::Batch {
            source: PipelineSource::DiskTier,
        },
        stream_bytes: 32 << 20,
        chunk_bytes: 64 << 10,
    },
    Spec {
        name: "batch-active",
        why: "Dotstar06 in nibble mode, ~9 states active per cycle, ~0 reports, cold compile: \
              the sparse/dense/adaptive step kernel is nearly all the time; report path, \
              framing and transport do nothing",
        benchmark: Benchmark::Dotstar06,
        state_fraction: 0.25,
        config: PipelineConfig::Nibble,
        main: MainPath::Batch {
            source: PipelineSource::ColdCompile,
        },
        stream_bytes: 256 << 10,
        chunk_bytes: 64 << 10,
    },
    Spec {
        name: "serve-reports",
        why: "Brill, ~1.1 reports per input byte, closed loop over loopback: replies are ~13x \
              the request bytes, so trace collection, merge, position mapping, Reports \
              encoding and socket writes dominate",
        benchmark: Benchmark::Brill,
        state_fraction: 0.25,
        config: PipelineConfig::Identity,
        main: MainPath::ServeClosed,
        stream_bytes: 16 << 20,
        chunk_bytes: 16 << 10,
    },
    Spec {
        name: "serve-small",
        why: "ExactMatch, 1 KiB chunks due every 1 ms per session, open loop: engine work per \
              chunk is ~0, so frame decode, queue hand-off, per-shard engine rebuild, reply \
              write and syscalls are the latency",
        benchmark: Benchmark::ExactMatch,
        state_fraction: 0.25,
        config: PipelineConfig::Identity,
        main: MainPath::ServeOpen {
            interval: Duration::from_millis(1),
        },
        stream_bytes: 8 << 20,
        chunk_bytes: 1 << 10,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Sizes that shrink together for the `--quick` smoke run.
#[derive(Debug, Clone, Copy)]
pub struct Volumes {
    /// Bytes of the generated pool the streams are shuffled from.
    pub pool_bytes: usize,
    /// Oracle-checked prefix of every stream; also the window the ladder
    /// rungs run on.
    pub prefix_bytes: usize,
    /// Cap on `Spec::stream_bytes` and `Spec::state_fraction`.
    pub max_stream_bytes: usize,
    pub max_state_fraction: f64,
    /// Timed repetitions per run, with one timed set-up before each; a
    /// metric is their quartile on the good side (see `stats::Summary`).
    pub repetitions: usize,
}

pub const FULL: Volumes = Volumes {
    pool_bytes: 4 << 20,
    prefix_bytes: 1 << 20,
    max_stream_bytes: usize::MAX,
    max_state_fraction: 1.0,
    repetitions: 15,
};

/// Small enough that all four workloads, traced and untraced, finish in
/// a few seconds. Results are marked `"quick": true` and are never
/// comparable with anything.
pub const QUICK: Volumes = Volumes {
    pool_bytes: 256 << 10,
    prefix_bytes: 64 << 10,
    max_stream_bytes: 256 << 10,
    max_state_fraction: 0.05,
    repetitions: 2,
};
