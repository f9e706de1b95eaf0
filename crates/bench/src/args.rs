//! Shared command-line parsing for the bench binaries.
//!
//! Every table/figure binary used to hand-roll its own `--flag value`
//! scanning; this module hoists one parser so `--workers`, `--telemetry`,
//! and `--quiet` mean the same thing everywhere. Unrecognized arguments
//! are collected in [`BenchArgs::rest`] for binaries with positional
//! inputs (e.g. `fig8`'s override ratios).
//!
//! Telemetry lifecycle: [`BenchArgs::init_telemetry`] right after parsing,
//! [`BenchArgs::finish_telemetry`] right before exiting. `--telemetry
//! PATH` (or the `SUNDER_TELEMETRY` environment variable, which the flag
//! overrides) enables span + metric recording and writes the JSON-lines
//! artifact to `PATH`; without it both calls are no-ops beyond honoring
//! `--quiet`.

use std::num::NonZeroUsize;
use std::time::Duration;

use sunder_resilience::FaultPlan;
use sunder_workloads::Scale;

use crate::error::{BenchError, Context};

/// Worker count to use by default: the machine's available parallelism,
/// overridable with `--workers N` in the bench binaries.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `--workers N` override out of a raw argument list, falling
/// back to [`default_workers`] when the flag is absent.
///
/// # Errors
///
/// An invalid value (`--workers abc`, `--workers 0`, or a trailing
/// `--workers` with no value) is a hard error — silently falling back to
/// the default would hide the typo and run with an unintended worker
/// count.
pub fn workers_from_args<S: AsRef<str>>(args: &[S]) -> Result<usize, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.as_ref() == "--workers" {
            let Some(value) = it.next() else {
                return Err("--workers requires a value (e.g. --workers 4)".to_string());
            };
            let value = value.as_ref();
            return match value.parse::<usize>() {
                Ok(0) => Err("--workers must be at least 1, got 0".to_string()),
                Ok(n) => Ok(n),
                Err(_) => Err(format!(
                    "invalid --workers value {value:?}: expected a positive integer"
                )),
            };
        }
    }
    Ok(default_workers())
}

/// One `--only` selector. The flag has two modes:
///
/// * **exact** — `--only NAME[,NAME...]` or the inline `--only=NAME`:
///   case-insensitive full benchmark names;
/// * **substring** — `--only~=SUB[,SUB...]`: selects every benchmark
///   whose name contains `SUB`, case-insensitively (`--only~=dotstar`
///   picks all three Dotstar variants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlyFilter {
    /// Case-insensitive exact benchmark name.
    Exact(String),
    /// Case-insensitive substring of a benchmark name.
    Substring(String),
}

impl OnlyFilter {
    /// An exact-name selector.
    pub fn exact(name: impl Into<String>) -> OnlyFilter {
        OnlyFilter::Exact(name.into())
    }

    /// A substring selector.
    pub fn substring(sub: impl Into<String>) -> OnlyFilter {
        OnlyFilter::Substring(sub.into())
    }

    /// Whether this selector picks the benchmark called `name`.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            OnlyFilter::Exact(want) => name.eq_ignore_ascii_case(want),
            OnlyFilter::Substring(sub) => name
                .to_ascii_lowercase()
                .contains(&sub.to_ascii_lowercase()),
        }
    }

    /// Parses a comma-separated flag value into selectors of one mode.
    fn extend_parsed(list: &mut Vec<OnlyFilter>, value: &str, substring: bool) {
        list.extend(
            value
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    if substring {
                        OnlyFilter::substring(s)
                    } else {
                        OnlyFilter::exact(s)
                    }
                }),
        );
    }
}

impl std::fmt::Display for OnlyFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlyFilter::Exact(name) => write!(f, "{name}"),
            OnlyFilter::Substring(sub) => write!(f, "~{sub}"),
        }
    }
}

/// The shared `--help` text: one summary line from the binary followed by
/// the flag set every bench binary understands.
pub fn usage(bin: &str, summary: &str) -> String {
    format!(
        "{summary}\n\n\
         Usage: cargo run -p sunder-bench --release --bin {bin} -- [FLAGS]\n\n\
         Shared flags (binaries ignore the ones they have no use for):\n\
           --small | --paper   workload scale (each binary picks its default)\n\
           --workers N         worker threads (default: available parallelism)\n\
           --runs N            timing passes\n\
           --out PATH          machine-readable output path\n\
           --deadline-ms N     per-job wall-clock deadline\n\
           --fault-plan FILE   inject the faults described in FILE\n\
           --telemetry PATH    JSON-lines telemetry artifact (or SUNDER_TELEMETRY)\n\
           --only NAMES        exact benchmark names, comma-separated,\n\
                               case-insensitive (inline form: --only=NAME)\n\
           --only~=SUB         every benchmark whose name contains SUB\n\
           --quiet             suppress progress chatter on stderr\n\
           --help, -h          print this help and exit\n"
    )
}

/// The flag set shared by the bench binaries. Individual binaries ignore
/// the fields they have no use for (e.g. the static table generators
/// never look at `workers`).
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// `--small`: force the small workload scale.
    pub small: bool,
    /// `--paper`: force the full paper workload scale.
    pub paper: bool,
    /// `--workers N` (default: available parallelism).
    pub workers: usize,
    /// `--runs N`: timing passes; binaries pick their own default.
    pub runs: Option<u32>,
    /// `--out PATH`: machine-readable output path.
    pub out: Option<String>,
    /// `--deadline-ms N`: per-job wall-clock deadline.
    pub deadline: Option<Duration>,
    /// `--fault-plan FILE`: injected faults (parsed at startup so a bad
    /// plan fails before any benchmark runs).
    pub plan: FaultPlan,
    /// `--telemetry PATH` or `SUNDER_TELEMETRY`: JSON-lines artifact path.
    pub telemetry: Option<String>,
    /// `--quiet`: suppress progress chatter on stderr.
    pub quiet: bool,
    /// `--help`/`-h`: the binary should print [`usage`] and exit 0.
    pub help: bool,
    /// `--only NAMES` / `--only=NAME` / `--only~=SUB`: benchmark filter.
    pub only: Vec<OnlyFilter>,
    /// Arguments the shared parser did not recognize, in order.
    pub rest: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            small: false,
            paper: false,
            workers: default_workers(),
            runs: None,
            out: None,
            deadline: None,
            plan: FaultPlan::none(),
            telemetry: None,
            quiet: false,
            help: false,
            only: Vec::new(),
            rest: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parses the process arguments plus the `SUNDER_TELEMETRY`
    /// environment fallback.
    pub fn from_env() -> Result<BenchArgs, BenchError> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let env = std::env::var("SUNDER_TELEMETRY").ok();
        BenchArgs::parse(&raw, env.as_deref())
    }

    /// Parses an explicit argument list; `env_telemetry` is the
    /// `SUNDER_TELEMETRY` value, used only when `--telemetry` is absent.
    pub fn parse(args: &[String], env_telemetry: Option<&str>) -> Result<BenchArgs, BenchError> {
        let mut out = BenchArgs::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            match flag {
                "--small" => out.small = true,
                "--paper" => out.paper = true,
                "--quiet" => out.quiet = true,
                "--help" | "-h" => out.help = true,
                "--workers" | "--runs" | "--out" | "--deadline-ms" | "--fault-plan"
                | "--telemetry" | "--only" => {
                    let value = args
                        .get(i + 1)
                        .with_context(|| format!("{flag} requires a value"))?
                        .clone();
                    i += 1;
                    match flag {
                        "--workers" => {
                            out.workers = workers_from_args(&[flag, value.as_str()])
                                .map_err(BenchError::msg)?;
                        }
                        "--runs" => {
                            out.runs = Some(value.parse::<u32>().with_context(|| {
                                format!("invalid --runs value {value:?}: expected an integer")
                            })?);
                        }
                        "--out" => out.out = Some(value),
                        "--deadline-ms" => {
                            out.deadline = Some(
                                value
                                    .parse::<u64>()
                                    .map(Duration::from_millis)
                                    .with_context(|| {
                                        format!(
                                            "invalid --deadline-ms value {value:?}: \
                                             expected milliseconds"
                                        )
                                    })?,
                            );
                        }
                        "--fault-plan" => {
                            let text = std::fs::read_to_string(&value)
                                .with_context(|| format!("read fault plan {value:?}"))?;
                            out.plan = FaultPlan::from_text(&text)
                                .map_err(BenchError::msg)
                                .with_context(|| format!("parse fault plan {value:?}"))?;
                        }
                        "--telemetry" => out.telemetry = Some(value),
                        "--only" => OnlyFilter::extend_parsed(&mut out.only, &value, false),
                        _ => unreachable!(),
                    }
                }
                other => {
                    if let Some(v) = other.strip_prefix("--only~=") {
                        OnlyFilter::extend_parsed(&mut out.only, v, true);
                    } else if let Some(v) = other.strip_prefix("--only=") {
                        OnlyFilter::extend_parsed(&mut out.only, v, false);
                    } else {
                        out.rest.push(other.to_string());
                    }
                }
            }
            i += 1;
        }
        if out.telemetry.is_none() {
            if let Some(path) = env_telemetry.filter(|p| !p.is_empty()) {
                out.telemetry = Some(path.to_string());
            }
        }
        Ok(out)
    }

    /// The workload scale for binaries that default to `--small`
    /// (`--paper` opts up). Returns the scale and its name.
    pub fn scale_small_default(&self) -> (Scale, &'static str) {
        if self.paper {
            (Scale::paper(), "paper")
        } else {
            (Scale::small(), "small")
        }
    }

    /// The workload scale for binaries that default to `--paper`
    /// (`--small` opts down). Returns the scale and its name.
    pub fn scale_paper_default(&self) -> (Scale, &'static str) {
        if self.small {
            (Scale::small(), "small")
        } else {
            (Scale::paper(), "paper")
        }
    }

    /// If `--help`/`-h` was passed, prints the shared [`usage`] text
    /// (with the binary's one-line summary) and returns `true`; the
    /// binary should then exit 0 without running anything.
    pub fn print_help(&self, bin: &str, summary: &str) -> bool {
        if self.help {
            print!("{}", usage(bin, summary));
        }
        self.help
    }

    /// Starts telemetry recording when `--telemetry`/`SUNDER_TELEMETRY`
    /// asked for it, and applies `--quiet` either way.
    pub fn init_telemetry(&self) {
        sunder_telemetry::set_quiet(self.quiet);
        if self.telemetry.is_some() {
            sunder_telemetry::init(sunder_telemetry::Config::spans());
        }
    }

    /// Stops recording and writes the JSON-lines artifact, if a session
    /// is active. Safe to call when telemetry was never enabled.
    pub fn finish_telemetry(&self) -> Result<(), BenchError> {
        let Some(dump) = sunder_telemetry::finish() else {
            return Ok(());
        };
        if let Some(path) = &self.telemetry {
            dump.write_jsonl(std::path::Path::new(path))
                .with_context(|| format!("write telemetry artifact {path:?}"))?;
            sunder_telemetry::progress(&format!(
                "telemetry: {} events ({} dropped), {} metrics -> {path}",
                dump.events.len(),
                dump.dropped,
                dump.metrics.entries.len(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn workers_arg_parsing() {
        assert_eq!(workers_from_args(&["--workers", "3"]), Ok(3));
        assert_eq!(workers_from_args(&["--small", "--workers", "2"]), Ok(2));
        let none: [&str; 0] = [];
        assert_eq!(workers_from_args(&none), Ok(default_workers()));
    }

    #[test]
    fn invalid_workers_values_are_hard_errors() {
        let zero = workers_from_args(&["--workers", "0"]).unwrap_err();
        assert!(zero.contains("at least 1"), "{zero}");
        let abc = workers_from_args(&["--workers", "abc"]).unwrap_err();
        assert!(abc.contains("\"abc\""), "{abc}");
        let missing = workers_from_args(&["--workers"]).unwrap_err();
        assert!(missing.contains("requires a value"), "{missing}");
        let negative = workers_from_args(&["--workers", "-2"]).unwrap_err();
        assert!(negative.contains("positive integer"), "{negative}");
    }

    #[test]
    fn defaults_are_empty() {
        let a = BenchArgs::parse(&[], None).unwrap();
        assert!(!a.small && !a.paper && !a.quiet);
        assert_eq!(a.workers, default_workers());
        assert_eq!(a.runs, None);
        assert!(a.plan.is_empty());
        assert!(a.telemetry.is_none());
        assert!(a.only.is_empty() && a.rest.is_empty());
    }

    #[test]
    fn parses_the_full_shared_flag_set() {
        let a = BenchArgs::parse(
            &argv(&[
                "--paper",
                "--workers",
                "3",
                "--runs",
                "2",
                "--out",
                "x.json",
                "--deadline-ms",
                "1500",
                "--telemetry",
                "t.jsonl",
                "--quiet",
                "--only",
                "Snort, Brill",
                "--only",
                "SPM",
            ]),
            None,
        )
        .unwrap();
        assert!(a.paper && a.quiet);
        assert_eq!(a.workers, 3);
        assert_eq!(a.runs, Some(2));
        assert_eq!(a.out.as_deref(), Some("x.json"));
        assert_eq!(a.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(a.telemetry.as_deref(), Some("t.jsonl"));
        assert_eq!(
            a.only,
            [
                OnlyFilter::exact("Snort"),
                OnlyFilter::exact("Brill"),
                OnlyFilter::exact("SPM"),
            ]
        );
    }

    #[test]
    fn only_supports_exact_inline_and_substring_modes() {
        let a = BenchArgs::parse(
            &argv(&[
                "--only=Snort,Brill",
                "--only~=dotstar, ranges",
                "--only",
                "TCP",
            ]),
            None,
        )
        .unwrap();
        assert_eq!(
            a.only,
            [
                OnlyFilter::exact("Snort"),
                OnlyFilter::exact("Brill"),
                OnlyFilter::substring("dotstar"),
                OnlyFilter::substring("ranges"),
                OnlyFilter::exact("TCP"),
            ]
        );
        assert!(
            a.rest.is_empty(),
            "inline --only forms must not leak into rest"
        );

        // Matching semantics: exact is whole-name, substring is contains,
        // both case-insensitive.
        assert!(OnlyFilter::exact("snort").matches("Snort"));
        assert!(!OnlyFilter::exact("Snort").matches("Snort2"));
        assert!(OnlyFilter::substring("OTSTAR").matches("Dotstar03"));
        assert!(!OnlyFilter::substring("xyz").matches("Dotstar03"));
    }

    #[test]
    fn help_flag_is_recognized_in_both_spellings() {
        assert!(BenchArgs::parse(&argv(&["--help"]), None).unwrap().help);
        assert!(BenchArgs::parse(&argv(&["-h"]), None).unwrap().help);
        let a = BenchArgs::parse(&[], None).unwrap();
        assert!(!a.help && !a.print_help("suite", "x"));
        let text = usage(
            "suite",
            "Engine comparison sweep across the full benchmark suite.",
        );
        assert!(text.contains("--bin suite"), "{text}");
        assert!(text.contains("--only~=SUB"), "{text}");
    }

    #[test]
    fn env_telemetry_is_a_fallback_the_flag_overrides() {
        let a = BenchArgs::parse(&[], Some("env.jsonl")).unwrap();
        assert_eq!(a.telemetry.as_deref(), Some("env.jsonl"));
        let a = BenchArgs::parse(&argv(&["--telemetry", "flag.jsonl"]), Some("env.jsonl")).unwrap();
        assert_eq!(a.telemetry.as_deref(), Some("flag.jsonl"));
        let a = BenchArgs::parse(&[], Some("")).unwrap();
        assert!(a.telemetry.is_none(), "empty env value means off");
    }

    #[test]
    fn unknown_arguments_pass_through_in_order() {
        let a = BenchArgs::parse(&argv(&["0.5", "--small", "--weird", "2.2"]), None).unwrap();
        assert!(a.small);
        assert_eq!(a.rest, ["0.5", "--weird", "2.2"]);
    }

    #[test]
    fn value_flags_without_values_are_hard_errors() {
        for flag in [
            "--workers",
            "--runs",
            "--deadline-ms",
            "--telemetry",
            "--only",
        ] {
            let e = BenchArgs::parse(&argv(&[flag]), None).unwrap_err();
            assert!(e.to_string().contains("requires a value"), "{flag}: {e}");
        }
        let e = BenchArgs::parse(&argv(&["--runs", "x"]), None).unwrap_err();
        assert!(e.to_string().contains("invalid --runs"), "{e}");
        let e = BenchArgs::parse(&argv(&["--workers", "0"]), None).unwrap_err();
        assert!(e.to_string().contains("at least 1"), "{e}");
    }

    #[test]
    fn scale_defaults_follow_the_binary_convention() {
        let a = BenchArgs::parse(&[], None).unwrap();
        assert_eq!(a.scale_small_default().1, "small");
        assert_eq!(a.scale_paper_default().1, "paper");
        let a = BenchArgs::parse(&argv(&["--paper"]), None).unwrap();
        assert_eq!(a.scale_small_default().1, "paper");
        let a = BenchArgs::parse(&argv(&["--small"]), None).unwrap();
        assert_eq!(a.scale_paper_default().1, "small");
    }
}
