//! End-to-end tests of the `sunder` CLI binary.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sunder"))
}

fn write_temp(name: &str, contents: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sunder-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents).unwrap();
    path
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_command_fails() {
    let out = bin().arg("explode").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn run_reports_matches() {
    let rules = write_temp("rules.txt", b"# comment line\ncat\ndog[0-9]\n");
    let input = write_temp("input.bin", b"the cat met dog7 and another cat");
    let out = bin()
        .args(["run", "--rules"])
        .arg(&rules)
        .arg("--input")
        .arg(&input)
        .args(["--fifo", "--summarize"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reports: 3"), "{stdout}");
    assert!(stdout.contains("matched_rules: 0,1"), "{stdout}");
    assert!(stdout.contains("summarized_rules: 0,1"), "{stdout}");
    assert!(stdout.contains("overhead: 1.0000"), "{stdout}");
}

#[test]
fn trace_mode_lists_cycle_rule_pairs() {
    let rules = write_temp("trace-rules.txt", b"ab\n");
    let input = write_temp("trace-input.bin", b"abab");
    let out = bin()
        .args(["run", "--rules"])
        .arg(&rules)
        .arg("--input")
        .arg(&input)
        .args(["--trace", "--config", "stride2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // stride2 (8-bit rate): one byte per cycle; matches end at cycles 1 and 3.
    assert_eq!(
        stdout.trim().lines().collect::<Vec<_>>(),
        vec!["1\t0", "3\t0"]
    );
}

/// `sunder` with `args`, asserting success; returns (stdout, stderr).
fn run_ok(args: &[&str]) -> (String, String) {
    let out = bin().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{args:?}: {stderr}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

#[test]
fn sdb_program_runs_exactly_like_its_rules() {
    // `.*ab` loses its `.*` head to the compile pipeline; `[a-c]` fires on
    // most bytes, so the reporting regions fill and the machine flushes.
    let rules = write_temp("sdb-run-rules.txt", b".*ab\n[a-c]\nb.*c\n");
    let input = write_temp("sdb-run-input.bin", &b"xabcab-"[..].repeat(3000));
    let (rules, input) = (rules.to_str().unwrap(), input.to_str().unwrap());
    let mut flushed = false;
    for config in ["nibble", "stride2", "stride4"] {
        let db = write_temp(&format!("run-{config}.sdb"), b"");
        let db = db.to_str().unwrap();
        run_ok(&["compile-db", "--rules", rules, "--config", config, "-o", db]);
        let trace = ["--input", input, "--trace"];
        let (mapped, mapped_summary) = run_ok(&[&["run", "--program", db][..], &trace].concat());
        let (compiled, compiled_summary) =
            run_ok(&[&["run", "--rules", rules, "--config", config][..], &trace].concat());
        assert!(mapped.lines().count() > 3000, "{config}: too few reports");
        assert!(
            mapped.lines().eq(compiled.lines()),
            "{config}: traces differ"
        );
        // "N reports; C cycles (+S stalls, F flushes), overhead X".
        assert_eq!(mapped_summary, compiled_summary, "{config}");
        flushed |= !mapped_summary.contains(" 0 flushes");
    }
    assert!(
        flushed,
        "no config flushed: the stall comparison is vacuous"
    );
}

#[test]
fn stats_prints_both_static_and_transform() {
    let rules = write_temp("s-rules.txt", b"abc\nxyz\n");
    let out = bin().args(["run", "--rules"]).output().unwrap();
    assert!(!out.status.success()); // missing --input

    let out = bin()
        .args(["stats", "--rules"])
        .arg(&rules)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("static: 6 states"), "{stdout}");
    assert!(stdout.contains("transform overheads:"), "{stdout}");
}

#[test]
fn inspect_db_shows_the_compiled_automaton() {
    // `.*ab` compiles to a `.` head plus `a` → `b`; the head is
    // compiled away, so the database executes two states and one edge.
    let rules = write_temp("db-rules.txt", b".*ab\n");
    let db = write_temp("rules.sdb", b"");
    let out = bin()
        .args(["compile-db", "--rules"])
        .arg(&rules)
        .args(["--engine", "sparse", "-o"])
        .arg(&db)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin().arg("inspect-db").arg(&db).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("automaton        2 states, 1 transitions"),
        "{stdout}"
    );
    // One table set runs; only `a` can wake the remaining start.
    assert!(
        stdout.contains("prefilter        1 of 256 leading symbols wake a start"),
        "{stdout}"
    );
    assert!(
        stdout.contains("shards           1 (placement only)"),
        "{stdout}"
    );

    // Two components over two shards, dense engine: the plan is derived
    // at load and the file holds no dense or per-shard section.
    let rules = write_temp("db-rules-two.txt", b"ab\nxy\n");
    let db = write_temp("rules-dense.sdb", b"");
    let out = bin()
        .args(["compile-db", "--rules"])
        .arg(&rules)
        .args(["--engine", "dense", "--shards", "2", "-o"])
        .arg(&db)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin().arg("inspect-db").arg(&db).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("shards           2 (placement only)"),
        "{stdout}"
    );
    let listing = stdout
        .split_once("(offset, bytes, kind)")
        .unwrap_or_else(|| panic!("no section listing: {stdout}"))
        .1;
    for line in listing.lines().filter(|l| !l.trim().is_empty()) {
        let kind = line.split_whitespace().last().unwrap();
        assert!(
            !kind.starts_with("Dn") && !kind.starts_with("Shard"),
            "derived section {kind} stored: {stdout}"
        );
    }
    // The sparse tables, reports included, are the only stored automaton.
    let kinds: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.split_whitespace().last())
        .collect();
    for kind in ["SpReportOff", "SpReportFlat"] {
        assert!(kinds.contains(&kind), "no {kind} section: {stdout}");
    }
    for kind in ["NfaAnml", "SpReportBits"] {
        assert!(!kinds.contains(&kind), "{kind} section stored: {stdout}");
    }
}

#[test]
fn bench_command_reports_measured_stats() {
    let out = bin()
        .args(["bench", "--benchmark", "bro217", "--small"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("benchmark: Bro217"), "{stdout}");
    assert!(stdout.contains("measured:"), "{stdout}");
}

#[test]
fn unknown_config_and_identity_database_are_rejected() {
    let fails = |args: &[&str]| {
        let out = bin().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        stderr
    };
    let rules = write_temp("r-rules.txt", b"a\n");
    let input = write_temp("r-input.bin", b"aaa");
    let db = write_temp("r-identity.sdb", b"");
    let [rules, input, db] = [&rules, &input, &db].map(|p| p.to_str().unwrap());
    let run = ["run", "--input", input];

    let stderr = fails(&[&run[..], &["--rules", rules, "--config", "stride3"]].concat());
    assert!(stderr.contains("unknown config \"stride3\""), "{stderr}");

    run_ok(&[
        "compile-db",
        "--rules",
        rules,
        "--config",
        "identity",
        "-o",
        db,
    ]);
    let stderr = fails(&[&run[..], &["--program", db]].concat());
    assert!(
        stderr.contains("runs the nibble, stride2 or stride4 config, not identity"),
        "{stderr}"
    );
}

#[test]
fn serve_batch_verifies_every_stream() {
    let rules = write_temp("batch-rules.txt", b"ab+c\n[0-9]{3}\n");
    let hit = write_temp("batch-hit.bin", b"xx abbbc yy 123 zz");
    let miss = write_temp("batch-miss.bin", b"nothing to see here");
    let inputs = format!("{},{}", hit.display(), miss.display());
    let out = bin()
        .args(["serve-batch", "--rules"])
        .arg(&rules)
        .args(["--inputs", &inputs])
        .args(["--shards", "2", "--workers", "2", "--config", "nibble"])
        .arg("--verify")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    for (path, reports) in [(&hit, "reports: 2"), (&miss, "reports: 0")] {
        let expected = format!("{}\tok\t{reports}\tverified", path.display());
        let found = lines.iter().filter(|l| **l == expected).count();
        assert_eq!(found, 1, "want one {expected:?} line in:\n{stdout}");
    }
}

#[test]
fn serve_daemon_takes_stdin_commands_and_drains() {
    use std::process::Stdio;
    let rules = write_temp("serve-rules.txt", b"ab+c\n[0-9]{3}\n");
    let rules2 = write_temp("serve-rules2.txt", b"ab+c\n[0-9]{3}\nq{2}\n");
    let mut child = bin()
        .args(["serve", "--rules"])
        .arg(&rules)
        .args(["--addr", "127.0.0.1:0", "--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    write!(stdin, "status\nreload {}\nstatus\nquit\n", rules2.display()).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("listening on 127.0.0.1:"), "{stderr}");
    assert!(stderr.contains("now epoch 2"), "{stderr}");
    assert!(stderr.contains("drained: 0 finished, 0 forced"), "{stderr}");
    // `status` prints the /statusz JSON document on stdout — one line
    // per invocation, epoch advancing across the reload.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let docs: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(docs.len(), 2, "{stdout}");
    assert!(docs[0].contains("\"epoch\":1"), "{stdout}");
    assert!(docs[1].contains("\"epoch\":2"), "{stdout}");
    assert!(docs[0].contains("\"active\":0"), "{stdout}");
}

#[test]
fn serve_chaos_clean_run_exits_zero() {
    let rules = write_temp("chaos-rules.txt", b"ab+c\n[0-9]{3}\n");
    let out = bin()
        .args(["serve-chaos", "--rules"])
        .arg(&rules)
        .args(["--sessions", "4", "--config", "stride2", "--shards", "2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for i in 0..4 {
        assert!(stdout.contains(&format!("s{i}\tcompleted\tok")), "{stdout}");
    }
    assert!(
        stderr.contains("0 divergence(s), 0 unattributed"),
        "{stderr}"
    );
}

#[test]
fn serve_chaos_attributes_faults_and_exits_three() {
    let rules = write_temp("chaos3-rules.txt", b"ab+c\n[0-9]{3}\n");
    let plan = write_temp("chaos3.plan", b"panic 1\nmalformed-frame 2 3\n");
    let artifact = write_temp("chaos3.jsonl", b"");
    let out = bin()
        .args(["serve-chaos", "--rules"])
        .arg(&rules)
        .args(["--sessions", "4", "--fault-plan"])
        .arg(&plan)
        .arg("--artifact")
        .arg(&artifact)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("s1\terrored\tattributed"), "{stdout}");
    assert!(stdout.contains("s2\terrored\tattributed"), "{stdout}");
    assert!(stdout.contains("s0\tcompleted\tok"), "{stdout}");
    assert!(stderr.contains("2 attributed victim(s)"), "{stderr}");
    // The artifact is a valid telemetry JSONL with session attribution.
    let text = std::fs::read_to_string(&artifact).unwrap();
    assert!(text.contains("serve.session_fault"), "{text}");
    assert!(text.contains("chaos.session_outcome"), "{text}");
}

#[test]
fn serve_chaos_flight_artifacts_are_telemetry_artifacts() {
    // One event schema: the daemon's flight post-mortems are read by the
    // same validator, Chrome export and report as any telemetry artifact.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("sunder-cli-flights-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .args(["serve-chaos", "--rules"])
        .arg(root.join("ci/serve-rules.txt"))
        .args(["--sessions", "32", "--fault-plan"])
        .arg(root.join("ci/serve-chaos.plan"))
        .arg("--flight-recorder-dir")
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    for tenant in ["s3", "s22"] {
        let name = names
            .iter()
            .find(|n| n.starts_with(&format!("flight-{tenant}-")) && n.ends_with("-panic.jsonl"))
            .unwrap_or_else(|| panic!("no {tenant} panic artifact among {names:?}"));
        let artifact = dir.join(name);
        let chrome = dir.join(format!("{tenant}.chrome.json"));
        let checked = bin()
            .args(["telemetry-report", "--validate", "--input"])
            .arg(&artifact)
            .arg("--chrome")
            .arg(&chrome)
            .output()
            .unwrap();
        let report = bin()
            .args(["telemetry-report", "--input"])
            .arg(&artifact)
            .output()
            .unwrap();
        for out in [checked, report] {
            assert!(
                out.status.success(),
                "telemetry-report on {name}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let doc = std::fs::read_to_string(&chrome).unwrap();
        assert!(doc.contains("\"flight.dump\""), "{doc}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_chaos_usage_error_exits_two() {
    let out = bin()
        .args(["serve-chaos", "--rules", "/nonexistent/rules.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}
