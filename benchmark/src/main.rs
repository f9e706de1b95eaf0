//! The Sunder benchmark: four workloads from batch scan to loopback
//! serve, with a per-layer ladder. See `README.md` beside the manifest.
//!
//! ```text
//! sunder-benchmark [--workload NAME|all] [--seed N] [--seconds S]
//!                  [--trace 0|1|both] [--quick] [--repeat-check]
//! ```
//!
//! With one workload and `--trace 0` or `1`, the last line of standard
//! output is the result as one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`); the exit code is non-zero when anything failed.

mod batch;
mod digest;
mod gen;
mod ladder;
mod procfs;
mod rep;
mod report;
mod run;
mod serve;
mod spans;
mod stats;
mod workloads;

use report::{END_TO_END, PER_LAYER};
use workloads::{Spec, FULL, QUICK, WORKLOADS};

/// `--seed` when none is given; also recorded in `README.md`.
const DEFAULT_SEED: u64 = 20_210_918;
/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    /// Untraced (`false`) and/or traced (`true`) runs, in this order.
    traced: &'static [bool],
    quick: bool,
    repeat_check: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: &[false, true],
        quick: false,
        repeat_check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let spec = workloads::find(name).ok_or_else(|| {
                        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {name:?}; known: {}", known.join(", "))
                    })?;
                    parsed.workloads = vec![spec];
                }
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?;
            }
            "--trace" => {
                parsed.traced = match value()? {
                    "0" => &[false],
                    "1" => &[true],
                    "both" => &[false, true],
                    other => return Err(format!("--trace takes 0, 1 or both, not {other:?}")),
                };
            }
            "--quick" => parsed.quick = true,
            "--repeat-check" => parsed.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in one mode in this process: prints its table, then
/// its result line; returns whether everything was correct.
fn run_here(spec: &Spec, traced: bool, args: &Args) -> bool {
    let volumes = if args.quick { QUICK } else { FULL };
    println!(
        "{:14} {} run, seed {}, {} s: {}",
        spec.name,
        if traced { "traced" } else { "untraced" },
        args.seed,
        args.seconds,
        spec.why
    );
    let (outcome, defs) = if traced {
        (
            run::per_layer(spec, args.seed, args.seconds, &volumes),
            PER_LAYER,
        )
    } else {
        (
            run::end_to_end(spec, args.seed, args.seconds, &volumes),
            END_TO_END,
        )
    };
    outcome.print_table(spec.name, defs);
    println!("{}", outcome.json_line(defs, args.quick));
    outcome.correct(defs)
}

/// Runs one workload in one mode in a child process of its own, so that
/// its `peak_rss_mb` is not the previous workload's. Relays the child's
/// table and returns its result line.
fn run_child(spec: &Spec, traced: bool, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["--workload", spec.name])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        child.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = child.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{}: the child printed no result", spec.name))?;
    println!("{table}");
    if output.status.success() {
        Ok(result.to_string())
    } else {
        println!("{result}");
        Err(format!(
            "{}: the child exited with {}",
            spec.name, output.status
        ))
    }
}

/// Every selected (workload, mode), each in its own process; the result
/// lines go last.
fn run_suite(args: &Args) -> bool {
    let mut results = Vec::new();
    let mut ok = true;
    for spec in &args.workloads {
        for &traced in args.traced {
            match run_child(spec, traced, args) {
                Ok(line) => results.push(line),
                Err(why) => {
                    eprintln!("error: {why}");
                    ok = false;
                }
            }
        }
    }
    for line in results {
        println!("{line}");
    }
    ok
}

/// `--repeat-check`: the untraced suite twice back to back, side by side.
/// Fails when two run sets of the same code differ by more than the bound
/// a regression is judged by — the benchmark could then not tell a change
/// from itself.
fn repeat_check(args: &Args) -> bool {
    let value_of = |line: &str, metric: &str| {
        sunder_telemetry::json::parse(line)
            .ok()
            .and_then(|result| result.get("metrics")?.get(metric)?.get("value")?.as_f64())
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for spec in &args.workloads {
        let sets: Vec<String> = (0..2)
            .filter_map(|_| match run_child(spec, false, args) {
                Ok(line) => Some(line),
                Err(why) => {
                    eprintln!("error: {why}");
                    None
                }
            })
            .collect();
        let [first, second] = sets.as_slice() else {
            ok = false;
            continue;
        };
        for d in END_TO_END {
            let (Some(a), Some(b)) = (value_of(first, d.name), value_of(second, d.name)) else {
                ok = false;
                continue;
            };
            let diff = (a - b).abs() / a.min(b);
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let verdict = if diff <= bound { "" } else { "  EXCEEDS BOUND" };
            ok &= diff <= bound;
            rows.push(format!(
                "{:14} {:18} {a:>14.4} {b:>14.4} {diff:>9.4} {bound:>6.2}{verdict}",
                spec.name, d.name
            ));
        }
    }
    println!(
        "{:14} {:18} {:>14} {:>14} {:>9} {:>6}",
        "workload", "metric", "first", "second", "rel diff", "bound"
    );
    for row in rows {
        println!("{row}");
    }
    ok
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            std::process::exit(2);
        }
    };
    let ok = match (args.workloads.as_slice(), args.traced) {
        _ if args.repeat_check => repeat_check(&args),
        // What the driver runs: one workload, one mode, in this process,
        // the result on the last line.
        ([spec], [traced]) => run_here(spec, *traced, &args),
        _ => run_suite(&args),
    };
    std::process::exit(i32::from(!ok));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunder_telemetry::json::{self, Json};

    /// `BENCHMARK.json` is written by hand; the code is what runs.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| manifest.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |v: &Json, f: &str| v.get(f).and_then(Json::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(listed, "name"), spec.name);
            assert_eq!(text(listed, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = list(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (listed, d) in listed.iter().zip(defs) {
                assert_eq!(text(listed, "name"), d.name);
                assert_eq!(text(listed, "unit"), d.unit, "{}", d.name);
                assert_eq!(
                    listed.get("bound").and_then(Json::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        }
        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let args = parse(&[
            "--workload",
            "serve-small",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workloads.len(), 1);
        assert_eq!(args.workloads[0].name, "serve-small");
        assert_eq!(
            (args.seed, args.seconds, args.traced),
            (9, 2.5, &[true][..])
        );
        assert_eq!(parse(&[]).unwrap().workloads.len(), WORKLOADS.len());
        assert_eq!(
            parse(&["--workload", "all"]).unwrap().workloads.len(),
            WORKLOADS.len()
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
