//! Smoke tests for the `mt4g` CLI binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn mt4g() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mt4g"))
}

#[test]
fn list_prints_all_registry_presets() {
    let out = mt4g().arg("--list").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in mt4g_sim::presets::Registry::global().names() {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn list_command_prints_aliases_and_families() {
    let out = mt4g().arg("list").output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["H100-80", "H100", "Blackwell", "RDNA3", "hostile", "MI300"] {
        assert!(stdout.contains(needle), "missing {needle}");
    }
}

#[test]
fn unknown_gpu_fails_with_code_2_and_lists_aliases() {
    let out = mt4g().args(["--gpu", "RTX9090"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown GPU preset"));
    // The error must advertise canonical names *and* accepted aliases.
    for needle in ["H100-80", "aliases: H100", "MI300", "B200", "RX7900XTX"] {
        assert!(
            stderr.contains(needle),
            "error must list {needle}: {stderr}"
        );
    }
}

#[test]
fn unknown_flag_fails() {
    let out = mt4g().arg("--bogus").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn only_run_emits_parseable_json() {
    let out = mt4g()
        .args(["--gpu", "T1000", "-q", "--fast", "--only", "cl1"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = mt4g_core::report::from_json(&stdout).expect("valid JSON report");
    assert_eq!(report.device.name, "T1000");
    let cl1 = report
        .element(mt4g_sim::device::CacheKind::ConstL1)
        .expect("CL1 row");
    assert_eq!(cl1.size.value(), Some(&2048));
}

/// `--only` with an element the device does not report is a usage error
/// that lists the device's elements, not a report of empty rows.
#[test]
fn only_element_missing_from_the_device_fails_with_code_2() {
    let nvidia = "L1, L2, Texture, Readonly, Const L1, Const L1.5, Shared Mem, Device Mem";
    let mi210 = "vL1, sL1d, L2, LDS, Device Mem";
    for (gpu, element, elements) in [
        ("T1000", "vl1", nvidia),
        ("MI210", "cl1", mi210),
        ("MI210", "l3", mi210),
    ] {
        let out = mt4g()
            .args(["--gpu", gpu, "--fast", "-q", "--only", element])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{gpu} --only {element}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{gpu} --only {element} printed a report"
        );
        assert!(
            stderr.contains(elements),
            "{gpu} --only {element} must list {elements}: {stderr}"
        );
    }
}

/// The tier-1 smoke run: a full fast discovery on the T1000 preset must
/// print one parseable JSON report on stdout, containing the discovered
/// L1 row with measured size/latency attributes, and must be
/// deterministic across invocations (the simulator is seeded).
#[test]
fn fast_discovery_smoke_emits_l1_json() {
    let run = || {
        let out = mt4g()
            .args(["--gpu", "T1000", "--fast", "-q"])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let stdout = run();
    assert!(stdout.contains("\"L1\""), "no L1 attribute in output");
    let report = mt4g_core::report::from_json(&stdout).expect("valid JSON report");
    assert_eq!(report.device.name, "T1000");
    let l1 = report
        .element(mt4g_sim::device::CacheKind::L1)
        .expect("L1 row present");
    assert!(l1.size.is_available(), "L1 size must be discovered");
    assert!(
        l1.load_latency.is_available(),
        "L1 latency must be discovered"
    );
    assert!(
        l1.size.confidence() > 0.9,
        "L1 size confidence too low: {}",
        l1.size.confidence()
    );
    // Quiet mode keeps stdout pure JSON and the run deterministic.
    assert_eq!(stdout, run(), "two identical runs must emit identical JSON");
}

/// `--timings` and `--debug` are purely diagnostic: each must trace to
/// stderr while leaving the report bytes on stdout identical to a run
/// without the flag. `--timings` appends per-unit wall-clock and work
/// lines (and a total); `--debug` traces every boundary-confirmation
/// probe. Host timing values are machine-dependent, so only their line
/// *shape* is asserted; the work figures are checked against each other
/// and the report.
#[test]
fn timings_flag_traces_stderr_without_changing_report_bytes() {
    let run = |extra: &[&str]| {
        let out = mt4g()
            .args(["--gpu", "T1000", "--fast", "-q"])
            .args(extra)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (plain_stdout, plain_stderr) = run(&[]);
    let (timed_stdout, timed_stderr) = run(&["--timings"]);
    assert_eq!(
        plain_stdout, timed_stdout,
        "--timings must never change the report bytes"
    );
    assert!(
        !plain_stderr.contains("timing "),
        "no timing lines without the flag"
    );
    let timing_lines: Vec<&str> = timed_stderr
        .lines()
        .filter(|l| l.starts_with("timing "))
        .collect();
    assert!(
        timing_lines.len() > 2,
        "expected per-unit timing lines, got: {timed_stderr}"
    );
    assert!(
        timing_lines.iter().any(|l| l.contains("nv.l1")),
        "per-unit lines must name the units: {timing_lines:?}"
    );
    assert!(
        timing_lines
            .last()
            .is_some_and(|l| l.starts_with("timing total:")),
        "last timing line is the total: {timing_lines:?}"
    );
    // Each line also reports work: `…: 3.216 ms, 176 kernels, 4096 walked
    // loads`. The total sums the units, and its kernels are the report's.
    let work = |line: &str| -> (u64, u64) {
        let (_, fields) = line.split_once(" ms, ").expect("work after the time");
        let (kernels, walked) = fields.split_once(" kernels, ").expect("kernels field");
        let walked = walked.strip_suffix(" walked loads").expect("walked field");
        (kernels.parse().unwrap(), walked.parse().unwrap())
    };
    let (units, total) = timing_lines.split_at(timing_lines.len() - 1);
    let summed = units
        .iter()
        .map(|l| work(l))
        .fold((0, 0), |(k, w), (uk, uw)| (k + uk, w + uw));
    assert_eq!(work(total[0]), summed, "the total sums the unit lines");
    let report = mt4g_core::report::from_json(&timed_stdout).expect("valid JSON report");
    assert_eq!(summed.0, report.runtime.kernels_launched);
    assert!(
        summed.1 > 0,
        "T1000 walks its cold passes: {timing_lines:?}"
    );

    let (debug_stdout, debug_stderr) = run(&["--debug"]);
    assert_eq!(
        plain_stdout, debug_stdout,
        "--debug must never change the report bytes"
    );
    assert!(
        !plain_stderr.contains("confirm_boundary: "),
        "no confirmation trace without the flag"
    );
    assert!(
        debug_stderr
            .lines()
            .any(|l| l.starts_with("confirm_boundary: probe size=")),
        "expected boundary-confirmation probe lines, got: {debug_stderr}"
    );
}

/// `--debug` prints the probes from the units' records after the run, in
/// unit order, so its stderr is the same at any `--jobs` — and it covers
/// every size search, the NVIDIA L2 segment search included.
#[test]
fn debug_trace_is_deterministic_and_covers_the_l2_search() {
    let stderr = |extra: &[&str]| {
        let out = mt4g()
            .args(["--gpu", "H100-80", "--fast", "-q", "--tlb", "--debug"])
            .args(extra)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stderr).expect("utf-8 stderr")
    };
    let serial = stderr(&["--jobs", "1"]);
    for run in 0..5 {
        assert_eq!(stderr(&[]), serial, "run {run} at the default --jobs");
    }
    // The L2 search's confirmed pair: one 25 MiB segment of the 50 MiB
    // L2 fits, one 32 B fetch granule more does not.
    assert!(
        serial.contains(
            "confirm_boundary: probe size=26214400 fits=Some(true)\n\
             confirm_boundary: probe size=26214432 fits=Some(false)\n"
        ),
        "no L2 segment probes in: {serial}"
    );
}

/// The new-preset golden alongside the T1000 one: a full fast B200
/// discovery must print one parseable JSON report whose L1 row carries
/// the planted Blackwell geometry, byte-identically across invocations.
#[test]
fn b200_fast_discovery_golden_is_byte_identical() {
    let run = || {
        let out = mt4g()
            .args(["--gpu", "B200", "--fast", "-q"])
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let stdout = run();
    let report = mt4g_core::report::from_json(&stdout).expect("valid JSON report");
    assert_eq!(report.device.name, "B200 180GB HBM3e");
    assert_eq!(report.compute.num_sms, 148);
    assert_eq!(report.compute.cores_per_sm, 128, "CC 10.0 lookup row");
    let l1 = report
        .element(mt4g_sim::device::CacheKind::L1)
        .expect("L1 row present");
    // The B200 plants a tree-PLRU L1, so the LRU-assuming p-chase size
    // estimate overshoots the planted 256 KiB (the evictor keeps part of
    // the cyclic ring resident past capacity — the effect the `--policy`
    // unit exists to measure). The estimate must stay inside the
    // documented (1x, 1.75x] envelope; `--policy` pins down the true
    // capacity, asserted in `policy_flag_recovers_true_b200_capacity`.
    let planted = 256 * 1024u64;
    let measured = *l1.size.value().expect("measured L1 size");
    assert!(
        measured > planted && measured <= planted * 7 / 4,
        "tree-PLRU size estimate {measured} outside ({planted}, {}]",
        planted * 7 / 4
    );
    // The planted Blackwell quirk: L1↔CL1 sharing reported unreliable.
    let cl1 = report
        .element(mt4g_sim::device::CacheKind::ConstL1)
        .expect("CL1 row");
    assert!(
        !cl1.shared_with.is_available(),
        "flaky-sharing quirk must surface as a non-result"
    );
    assert_eq!(stdout, run(), "two identical runs must emit identical JSON");
}

/// `--policy` on the B200 names the planted tree-PLRU evictor and pins
/// the true 256 KiB L1 capacity down from the inflated LRU-assuming
/// estimate (the overshoot asserted in the golden test above).
#[test]
fn policy_flag_recovers_true_b200_capacity() {
    let out = mt4g()
        .args(["--gpu", "B200", "--fast", "--policy", "-q"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let report = mt4g_core::report::from_json(&stdout).expect("valid JSON report");
    let row = report
        .policy
        .iter()
        .find(|r| r.element == mt4g_sim::device::CacheKind::L1)
        .expect("L1 policy row");
    assert_eq!(row.policy.value().map(String::as_str), Some("tree-plru"));
    assert_eq!(
        row.true_capacity_bytes.value(),
        Some(&(256 * 1024)),
        "pin-down must recover the planted capacity exactly"
    );
}

/// `--scenario hostile` works end-to-end from the CLI and renames the
/// device so hostile reports cannot be mistaken for bare-metal ones.
#[test]
fn hostile_scenario_runs_from_the_cli() {
    let out = mt4g()
        .args([
            "--gpu",
            "T1000",
            "--fast",
            "-q",
            "--scenario",
            "hostile",
            "--only",
            "cl1",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = mt4g_core::report::from_json(&String::from_utf8_lossy(&out.stdout))
        .expect("valid JSON report");
    assert_eq!(report.device.name, "T1000 (hostile)");
    let cl1 = report
        .element(mt4g_sim::device::CacheKind::ConstL1)
        .expect("CL1 row");
    assert_eq!(
        cl1.size.value(),
        Some(&2048),
        "hostile noise must not move the discovered size"
    );
}

/// I/O failures on the write path (a missing `-o` directory, a closed
/// stdout) must exit with a one-line error and code 1, not a panic
/// backtrace.
#[test]
fn unwritable_output_dir_fails_with_one_line_error() {
    let out = mt4g()
        .args(["--gpu", "T1000", "-q", "--fast", "--only", "cl1", "-j"])
        .args(["-o", "/nonexistent-mt4g-dir/sub"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "I/O failure exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: cannot write"),
        "one-line message expected, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must not panic with a backtrace: {stderr}"
    );

    // A reader that closes early (`mt4g ... | head -c 10`) is the same
    // kind of I/O failure on stdout. The child's stdout is a pipe whose
    // read end is already closed, so its first write fails.
    for args in [&["--gpu", "T1000", "--fast", "-q"][..], &["list"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = mt4g().args(args).stdout(writer).output().expect("runs");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?}: closed stdout exits 1"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: cannot write"),
            "{args:?}: one-line message expected, got: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{args:?}: must not panic with a backtrace: {stderr}"
        );
    }
}

/// `--tlb --contention` surface the extension sections in the report; a
/// plain run omits them entirely (byte-stable JSON).
#[test]
fn tlb_and_contention_flags_add_their_sections() {
    let plain = mt4g()
        .args(["--gpu", "T1000", "--fast", "-q"])
        .output()
        .expect("runs");
    assert!(plain.status.success());
    let plain_json = String::from_utf8_lossy(&plain.stdout).to_string();
    assert!(!plain_json.contains("\"tlb\""), "plain run must omit tlb");

    let out = mt4g()
        .args(["--gpu", "T1000", "--fast", "-q", "--tlb", "--contention"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = mt4g_core::report::from_json(&String::from_utf8_lossy(&out.stdout))
        .expect("valid JSON report");
    assert_eq!(report.tlb.len(), 2);
    let truth = mt4g_sim::presets::t1000().config.tlb.unwrap();
    assert_eq!(
        report.tlb[0].reach_bytes.value(),
        Some(&truth.l1_reach_bytes()),
        "L1-TLB reach must be discovered, not copied"
    );
    assert_eq!(report.contention.len(), 1);
}

#[test]
fn json_flag_writes_named_file() {
    let dir = std::env::temp_dir().join(format!("mt4g-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = mt4g()
        .args(["--gpu", "T1000", "-q", "--fast", "--only", "cl1", "-j"])
        .args(["-o", dir.to_str().unwrap()])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let json_path = dir.join("T1000.json");
    let contents = std::fs::read_to_string(&json_path).expect("file written");
    assert!(mt4g_core::report::from_json(&contents).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each mode rejects the flags it would ignore: `merge` has no unit
/// records to print `--debug` or `--timings` from, and `serve` prints
/// neither, so both exit 2 before any work. The modes' own flags still
/// run: a one-shard merge reproduces the unsharded report, and `serve -q`
/// answers a shutdown.
#[test]
fn modes_reject_the_flags_they_ignore() {
    let dir = std::env::temp_dir().join(format!("mt4g-cli-modes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cell = ["--gpu", "T1000", "--fast", "-q", "--only", "cl1"];
    let partial = mt4g()
        .args(cell)
        .args(["--shard", "1/1"])
        .output()
        .expect("runs");
    assert!(partial.status.success());
    let path = dir.join("T1000.partial.json");
    std::fs::write(&path, &partial.stdout).unwrap();
    let path = path.to_str().unwrap();

    for args in [
        &["merge", path, "--debug"][..],
        &["merge", path, "--timings"],
        &["serve", "--debug"],
    ] {
        let out = mt4g()
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("does not apply to mt4g"),
            "{args:?}: {stderr}"
        );
    }

    let merged = mt4g().args(["merge", path, "-q"]).output().expect("runs");
    assert!(merged.status.success());
    let unsharded = mt4g().args(cell).output().expect("runs");
    assert_eq!(merged.stdout, unsharded.stdout);

    let mut serve = mt4g()
        .args(["serve", "-q"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawns");
    let mut stdin = serve.stdin.take().unwrap();
    stdin
        .write_all(b"{\"id\":1,\"op\":\"shutdown\"}\n")
        .unwrap();
    drop(stdin);
    let served = serve.wait_with_output().expect("exits");
    assert!(served.status.success());
    assert!(String::from_utf8_lossy(&served.stdout).contains("\"ok\":true"));
    let _ = std::fs::remove_dir_all(&dir);
}
