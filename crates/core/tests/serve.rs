//! Integration tests for the serve subsystem: the in-process engine
//! (cache-key separation, hit byte-identity against cold recomputes) and
//! the `mt4g serve` daemon over real stdin/stdout (round-trip, EOF,
//! SIGTERM, batch-CLI byte-interchangeability).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};

use mt4g_core::serve::{Flow, Response, ServeEngine, ServeOptions};
use mt4g_core::suite::{DiscoveryConfig, JobSpec, Selection};
use mt4g_sim::device::CacheKind;
use mt4g_sim::scenario::Scenario;

fn tiny_engine() -> (ServeEngine, std::sync::mpsc::Receiver<Response>) {
    ServeEngine::new(ServeOptions {
        workers: 1,
        queue_cap: 16,
        cache_cap: 16,
        job_threads: 1,
    })
}

/// Every request variant below names a *different* cell: the first
/// submission of each must be a fresh recompute (a miss), never a hit on
/// a previously-cached neighbour. This is the end-to-end cache-key
/// separation guarantee: scenario, measurement knobs (`--tlb`,
/// `--contention`, `--policy`), element restriction, and mode each reach
/// the plan fingerprint or the cell descriptor.
#[test]
fn cache_keys_separate_scenario_knobs_and_selection() {
    let variants = [
        r#"{"id":1,"op":"discover","gpu":"T1000","only":"cl1"}"#,
        r#"{"id":2,"op":"discover","gpu":"T1000","only":"cl1","scenario":"hostile"}"#,
        r#"{"id":3,"op":"discover","gpu":"T1000","only":"cl1","tlb":true}"#,
        r#"{"id":4,"op":"discover","gpu":"T1000","only":"cl1","contention":true}"#,
        r#"{"id":5,"op":"discover","gpu":"T1000","only":"cl1","policy":true}"#,
        r#"{"id":6,"op":"discover","gpu":"T1000","only":"cl1","mode":"thorough"}"#,
        r#"{"id":7,"op":"discover","gpu":"T1000","only":"l1"}"#,
    ];
    let (mut engine, rx) = tiny_engine();
    for line in variants {
        assert_eq!(engine.handle_line(line), Flow::Continue);
    }
    let stats = engine.shutdown();
    assert_eq!(
        stats.misses,
        variants.len() as u64,
        "each variant is its own cell: no hits, no coalescing across keys"
    );
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.coalesced, 0);
    let responses: Vec<Response> = rx.iter().collect();
    assert_eq!(responses.len(), variants.len());
    assert!(responses.iter().all(|r| r.ok && !r.cached));
    // Distinct cells produce distinct fingerprints (mode/knobs/scenario
    // reach the plan fingerprint; the element restriction too).
    let mut fps: Vec<&str> = responses
        .iter()
        .map(|r| r.fingerprint.as_deref().unwrap())
        .collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(
        fps.len(),
        variants.len(),
        "no two variants share a fingerprint"
    );
}

/// A cache hit must return the exact bytes a cold, out-of-band recompute
/// produces — the acceptance criterion of the result cache. The cells mix
/// bare-metal, hostile, MIG and thorough runs (each restricted to CL1 to
/// stay cheap); every repeat must be a hit, so hits never recompute.
#[test]
fn cache_hit_is_byte_identical_to_cold_recompute() {
    let cells = [
        ("T1000", "bare-metal", "fast"),
        ("T1000", "hostile", "fast"),
        ("A100", "mig:2g.10gb", "fast"),
        ("T1000", "bare-metal", "thorough"),
    ];
    let (mut engine, rx) = tiny_engine();
    for (i, (gpu, scenario, mode)) in cells.into_iter().enumerate() {
        let cell = format!("{gpu} {scenario} {mode}");
        let request = |id: usize| {
            format!(
                r#"{{"id":{id},"op":"discover","gpu":"{gpu}","scenario":"{scenario}","mode":"{mode}","only":"cl1"}}"#
            )
        };
        engine.handle_line(&request(2 * i + 1));
        let miss = rx.recv().unwrap();
        assert!(miss.ok && !miss.cached, "{cell}: first request recomputes");
        engine.handle_line(&request(2 * i + 2));
        let hit = rx.recv().unwrap();
        assert!(hit.ok && hit.cached, "{cell}: repeat must hit");
        assert_eq!(miss.report, hit.report, "{cell}");

        // Cold recompute through the job layer, no serve machinery at all.
        let mut cfg = match mode {
            "fast" => DiscoveryConfig::fast(),
            _ => DiscoveryConfig::thorough(),
        };
        cfg.only = Some(vec![CacheKind::ConstL1]);
        cfg.jobs = 1;
        let cold = JobSpec {
            gpu: gpu.to_string(),
            scenario: Scenario::parse(scenario).unwrap(),
            cfg,
            selection: Selection::Full,
        }
        .resolve()
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(
            hit.report.as_deref(),
            Some(cold.bytes.as_str()),
            "{cell}: cached bytes must equal a cold recompute byte-for-byte"
        );
    }
    let stats = engine.shutdown();
    assert_eq!(
        (stats.misses, stats.hits),
        (4, 4),
        "one recompute per distinct cell, one hit per repeat"
    );
    assert_eq!((stats.rejected, stats.bad_requests), (0, 0));
}

#[test]
fn engine_answers_malformed_requests_with_structured_errors() {
    let (mut engine, rx) = tiny_engine();
    let cases = [
        ("{not json", "bad_request"),
        (r#"{"id":1,"op":"launch-missiles"}"#, "bad_request"),
        (r#"{"id":2,"op":"discover"}"#, "bad_request"),
        (
            r#"{"id":3,"op":"discover","gpu":"Voodoo2"}"#,
            "unknown_preset",
        ),
        (
            r#"{"id":4,"op":"discover","gpu":"MI210","scenario":"mig:2g.10gb"}"#,
            "bad_scenario",
        ),
        (
            r#"{"id":5,"op":"discover","gpu":"T1000","only":"l99"}"#,
            "bad_element",
        ),
        (
            r#"{"id":6,"op":"discover","gpu":"T1000","mode":"ludicrous"}"#,
            "bad_request",
        ),
        (
            r#"{"id":7,"op":"discover","gpu":"MI210","only":"cl1"}"#,
            "bad_element",
        ),
    ];
    for (line, want_code) in cases {
        assert_eq!(engine.handle_line(line), Flow::Continue, "{line}");
        let resp = rx.recv().unwrap();
        assert!(!resp.ok);
        assert_eq!(
            resp.error.as_ref().map(|e| e.code.as_str()),
            Some(want_code),
            "line {line}"
        );
    }
    let stats = engine.shutdown();
    assert_eq!(stats.bad_requests, cases.len() as u64);
    assert_eq!(stats.misses, 0, "nothing malformed reached the queue");
}

// ---------------------------------------------------------------------
// Subprocess tests: the real daemon over real pipes.
// ---------------------------------------------------------------------

fn spawn_serve(extra: &[&str]) -> (Child, ChildStdin, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mt4g"))
        .arg("serve")
        .arg("-q")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns");
    let stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    (child, stdin, stdout)
}

fn read_response(reader: &mut BufReader<std::process::ChildStdout>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    serde_json::from_str(line.trim()).expect("valid response JSON")
}

/// Full stdio round-trip: miss, hit, stats, shutdown — and the served
/// report must equal the batch CLI's stdout for the same cell (minus the
/// trailing newline `println!` adds).
#[test]
fn daemon_round_trip_matches_batch_cli_bytes() {
    let (mut child, mut stdin, mut stdout) = spawn_serve(&[]);
    let req = r#"{"id":1,"op":"discover","gpu":"T1000","only":"cl1","mode":"fast"}"#;
    writeln!(stdin, "{req}").unwrap();
    let miss = read_response(&mut stdout);
    assert!(miss.ok && !miss.cached, "first request recomputes");
    writeln!(stdin, "{}", req.replace(r#""id":1"#, r#""id":2"#)).unwrap();
    let hit = read_response(&mut stdout);
    assert!(hit.ok && hit.cached, "second request hits");
    assert_eq!(miss.report, hit.report);
    writeln!(stdin, r#"{{"id":3,"op":"stats"}}"#).unwrap();
    let stats = read_response(&mut stdout);
    let s = stats.stats.expect("stats payload");
    assert_eq!((s.hits, s.misses), (1, 1));
    assert_eq!(s.cache_entries, 1);
    writeln!(stdin, r#"{{"id":4,"op":"shutdown"}}"#).unwrap();
    let ack = read_response(&mut stdout);
    assert!(ack.ok && ack.id == 4);
    let status = child.wait().expect("exits");
    assert_eq!(status.code(), Some(0), "shutdown op exits cleanly");

    // Byte-interchangeability with the batch path.
    let batch = Command::new(env!("CARGO_BIN_EXE_mt4g"))
        .args(["--gpu", "T1000", "-q", "--fast", "--only", "cl1"])
        .output()
        .expect("batch runs");
    assert!(batch.status.success());
    let batch_stdout = String::from_utf8(batch.stdout).unwrap();
    assert_eq!(
        hit.report.as_deref(),
        Some(batch_stdout.trim_end_matches('\n')),
        "a serve answer and a batch run print the same bytes"
    );
}

/// Closing stdin (EOF) drains and exits 0 — the graceful path for
/// `some_client | mt4g serve` pipelines.
#[test]
fn daemon_exits_cleanly_on_eof() {
    let (mut child, mut stdin, mut stdout) = spawn_serve(&[]);
    writeln!(
        stdin,
        r#"{{"id":1,"op":"discover","gpu":"T1000","only":"cl1"}}"#
    )
    .unwrap();
    let resp = read_response(&mut stdout);
    assert!(resp.ok);
    drop(stdin); // EOF
    let status = child.wait().expect("exits");
    assert_eq!(status.code(), Some(0), "EOF is a clean shutdown");
}

/// SIGTERM exits 0 promptly even while blocked reading stdin — the
/// daemon must be manageable by init systems and CI timeouts.
#[test]
fn daemon_exits_cleanly_on_sigterm() {
    let (mut child, mut stdin, mut stdout) = spawn_serve(&[]);
    // Prove the daemon is up (handler installed before the read loop).
    writeln!(stdin, r#"{{"id":1,"op":"stats"}}"#).unwrap();
    let resp = read_response(&mut stdout);
    assert!(resp.ok && resp.stats.is_some());
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = child.wait().expect("exits");
    assert_eq!(status.code(), Some(0), "SIGTERM is a clean shutdown");
}

/// A malformed line over the wire gets a structured error response; the
/// daemon neither dies nor drops the line silently.
#[test]
fn daemon_survives_malformed_lines() {
    let (mut child, mut stdin, mut stdout) = spawn_serve(&[]);
    writeln!(stdin, "this is not a request").unwrap();
    let err = read_response(&mut stdout);
    assert!(!err.ok);
    assert_eq!(err.error.unwrap().code, "bad_request");
    // Still alive and serving afterwards.
    writeln!(stdin, r#"{{"id":2,"op":"stats"}}"#).unwrap();
    let resp = read_response(&mut stdout);
    assert!(resp.ok);
    assert_eq!(resp.stats.unwrap().bad_requests, 1);
    writeln!(stdin, r#"{{"id":3,"op":"shutdown"}}"#).unwrap();
    let _ = read_response(&mut stdout);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

/// Adversarial request battery against the real daemon subprocess: deep
/// nesting (which would overflow the recursive-descent parser's stack
/// without its depth limit), oversized lines, control bytes, numeric
/// overflow, and type confusion. Every line must come back as a
/// structured error — and the worker pool must still be alive and able
/// to serve a real discovery afterwards.
#[test]
fn daemon_survives_adversarial_requests() {
    let (mut child, mut stdin, mut stdout) = spawn_serve(&[]);
    // 200k-deep array: without the parser depth limit this recursion
    // would blow the daemon's stack; with it, it is a cheap parse error.
    let deep_array = "[".repeat(200_000);
    writeln!(stdin, "{deep_array}").unwrap();
    // Matching depth bomb in object form.
    let deep_object = "{\"a\":".repeat(200_000);
    writeln!(stdin, "{deep_object}").unwrap();
    // A 2 MiB line is rejected unparsed by the engine's line cap.
    let huge = format!("{{\"id\":3,\"op\":\"{}\"}}", "x".repeat(2 << 20));
    writeln!(stdin, "{huge}").unwrap();
    // Control bytes, an id beyond u64, and type-confused fields.
    writeln!(stdin, "{{\"id\":4,\"op\":\"disc\u{1}over\"}}").unwrap();
    writeln!(stdin, "{{\"id\":99999999999999999999999,\"op\":\"stats\"}}").unwrap();
    writeln!(
        stdin,
        "{{\"id\":6,\"op\":\"discover\",\"gpu\":[\"T1000\"]}}"
    )
    .unwrap();
    writeln!(
        stdin,
        "{{\"id\":7,\"op\":\"discover\",\"gpu\":\"T1000\",\"tlb\":\"yes\"}}"
    )
    .unwrap();
    let mut codes = Vec::new();
    for _ in 0..7 {
        let resp = read_response(&mut stdout);
        assert!(!resp.ok, "adversarial line must be answered with an error");
        codes.push(resp.error.unwrap().code);
    }
    assert!(
        codes.iter().all(|c| c == "bad_request"),
        "all adversarial lines map to bad_request, got {codes:?}"
    );
    // The daemon is unharmed: a real discovery still round-trips.
    writeln!(
        stdin,
        "{{\"id\":8,\"op\":\"discover\",\"gpu\":\"T1000\",\"only\":\"cl1\"}}"
    )
    .unwrap();
    let ok = read_response(&mut stdout);
    assert!(ok.ok, "worker pool alive after the battery: {:?}", ok.error);
    assert_eq!(ok.id, 8);
    writeln!(stdin, "{{\"id\":9,\"op\":\"stats\"}}").unwrap();
    let stats = read_response(&mut stdout).stats.unwrap();
    assert_eq!(stats.bad_requests, 7);
    assert_eq!(stats.misses, 1);
    writeln!(stdin, "{{\"id\":10,\"op\":\"shutdown\"}}").unwrap();
    let _ = read_response(&mut stdout);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

/// A line that is not UTF-8 gets a `bad_request` answer, and the daemon
/// keeps serving the lines after it.
#[test]
fn daemon_answers_a_non_utf8_line_and_keeps_serving() {
    let (mut child, mut stdin, mut stdout) = spawn_serve(&[]);
    stdin
        .write_all(
            b"{\"id\":1,\"op\":\"stats\"}\n\xff\xfe\n\
              {\"id\":3,\"op\":\"stats\"}\n{\"id\":4,\"op\":\"shutdown\"}\n",
        )
        .unwrap();
    assert_eq!(read_response(&mut stdout).id, 1);
    let err = read_response(&mut stdout);
    assert_eq!(err.error.unwrap().code, "bad_request");
    let stats = read_response(&mut stdout);
    assert_eq!(stats.id, 3);
    assert_eq!(stats.stats.unwrap().bad_requests, 1);
    let ack = read_response(&mut stdout);
    assert!(ack.ok && ack.id == 4);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

/// A 64 MiB line is answered with `bad_request` without the daemon ever
/// holding it: the reader keeps at most `MAX_LINE_BYTES + 1` bytes of a
/// line, so the peak resident set stays far below the line's size.
#[test]
fn daemon_rejects_an_oversized_line_without_buffering_it() {
    let (mut child, mut stdin, mut stdout) = spawn_serve(&[]);
    let mib = vec![b'x'; 1 << 20];
    for _ in 0..64 {
        stdin.write_all(&mib).unwrap();
    }
    stdin.write_all(b"\n{\"id\":2,\"op\":\"stats\"}\n").unwrap();
    let err = read_response(&mut stdout);
    assert_eq!(err.error.unwrap().code, "bad_request");
    let stats = read_response(&mut stdout);
    assert_eq!(stats.id, 2);
    assert_eq!(stats.stats.unwrap().bad_requests, 1);
    if cfg!(target_os = "linux") {
        let status = std::fs::read_to_string(format!("/proc/{}/status", child.id())).unwrap();
        let hwm_kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmHWM in /proc/<pid>/status");
        assert!(hwm_kib < 32 * 1024, "daemon peak RSS {hwm_kib} KiB");
    }
    writeln!(stdin, r#"{{"id":3,"op":"shutdown"}}"#).unwrap();
    assert!(read_response(&mut stdout).ok);
    assert_eq!(child.wait().unwrap().code(), Some(0));
}
