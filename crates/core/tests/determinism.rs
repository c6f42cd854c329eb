//! Determinism suite for the plan/execute/merge architecture: the `mt4g`
//! binary must emit byte-identical JSON reports no matter how the
//! discovery plan is scheduled — sequentially (`--jobs 1`), across
//! threads (`--jobs 4`), or split into shards merged back together.

use std::path::PathBuf;
use std::process::Command;

fn mt4g() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mt4g"))
}

fn run_stdout(args: &[&str]) -> String {
    let out = mt4g().args(args).output().expect("mt4g runs");
    assert!(
        out.status.success(),
        "mt4g {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mt4g-determinism-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a full sequential discovery of `gpu` (with `extra` CLI flags,
/// e.g. a `--scenario`), then an n-way shard split merged back through
/// `mt4g merge`, and asserts byte identity.
fn assert_shards_merge_byte_identical_with(gpu: &str, extra: &[&str], shards: usize) {
    let base = [&["--gpu", gpu, "--fast", "-q"][..], extra].concat();
    let sequential = run_stdout(&[&base[..], &["--jobs", "1"]].concat());

    let dir = temp_dir(&format!("shards-{gpu}"));
    let mut shard_files: Vec<PathBuf> = Vec::new();
    for i in 1..=shards {
        let spec = format!("{i}/{shards}");
        let partial = run_stdout(&[&base[..], &["--shard", &spec]].concat());
        let path = dir.join(format!("shard{i}.partial.json"));
        std::fs::write(&path, partial).unwrap();
        shard_files.push(path);
    }
    let mut merge_args: Vec<&str> = vec!["merge"];
    let file_args: Vec<String> = shard_files
        .iter()
        .map(|p| p.to_str().unwrap().to_string())
        .collect();
    merge_args.extend(file_args.iter().map(String::as_str));
    merge_args.push("-q");
    let merged = run_stdout(&merge_args);
    assert_eq!(
        sequential, merged,
        "{gpu}: merged shards must reproduce the unsharded report bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn assert_shards_merge_byte_identical(gpu: &str, shards: usize) {
    assert_shards_merge_byte_identical_with(gpu, &[], shards);
}

/// `--jobs 1`, `--jobs 2`, `--jobs 4`, and a merged 3-way shard split of
/// the same fast T1000 run all produce byte-identical reports.
#[test]
fn jobs_and_shards_emit_byte_identical_reports() {
    let base = ["--gpu", "T1000", "--fast", "-q"];
    let sequential = run_stdout(&[&base[..], &["--jobs", "1"]].concat());
    for jobs in ["2", "4"] {
        let parallel = run_stdout(&[&base[..], &["--jobs", jobs]].concat());
        assert_eq!(
            sequential, parallel,
            "--jobs {jobs} must not change the report bytes"
        );
    }
    assert_shards_merge_byte_identical("T1000", 3);
}

/// The merged row order must survive on the one preset with an L3 row
/// (MI300X): `has_l3` travels inside the partials, since device names
/// are not preset short names.
#[test]
fn mi300x_l3_row_order_survives_merge() {
    assert_shards_merge_byte_identical("MI300X", 2);
}

/// A MIG-scenario discovery run is as deterministic as a bare-metal one:
/// `--jobs 1` vs `--jobs 4` vs a merged 2-way shard split of
/// `--scenario mig:2g.10gb` all emit byte-identical reports, and the
/// report describes the MIG instance (scaled SM count), not the full
/// chip.
#[test]
fn mig_scenario_is_byte_identical_across_jobs_and_shards() {
    let base = ["--gpu", "A100", "--fast", "-q", "--scenario", "mig:2g.10gb"];
    let sequential = run_stdout(&[&base[..], &["--jobs", "1"]].concat());
    let parallel = run_stdout(&[&base[..], &["--jobs", "4"]].concat());
    assert_eq!(sequential, parallel, "MIG run must not depend on --jobs");
    let report = mt4g_core::report::from_json(&sequential).expect("valid report");
    assert_eq!(report.device.name, "A100 MIG 2g.10gb");
    assert_eq!(report.compute.num_sms, 108 * 2 / 7, "MIG-scaled SM count");
    assert_shards_merge_byte_identical_with("A100", &["--scenario", "mig:2g.10gb"], 2);
}

/// The TLB-reach and L2-contention units inherit every determinism
/// guarantee: a `--tlb --contention` run is byte-identical across
/// `--jobs` values and merged shard splits, and the report carries both
/// extension sections.
#[test]
fn tlb_and_contention_units_are_byte_identical_across_jobs_and_shards() {
    let base = ["--gpu", "A100", "--fast", "-q", "--tlb", "--contention"];
    let sequential = run_stdout(&[&base[..], &["--jobs", "1"]].concat());
    let parallel = run_stdout(&[&base[..], &["--jobs", "4"]].concat());
    assert_eq!(
        sequential, parallel,
        "--tlb/--contention must not depend on --jobs"
    );
    let report = mt4g_core::report::from_json(&sequential).expect("valid report");
    assert_eq!(report.tlb.len(), 2, "L1 and L2 TLB rows");
    assert!(report.tlb.iter().all(|t| t.reach_bytes.is_available()));
    assert_eq!(report.contention.len(), 1);
    assert!(report.contention[0].solo_latency_cycles.is_available());
    assert_shards_merge_byte_identical_with("A100", &["--tlb", "--contention"], 2);
}

/// The replacement-policy unit inherits every determinism guarantee: a
/// `--policy` run is byte-identical across `--jobs` values and merged
/// shard splits, and the report carries the policy section with the
/// planted verdict.
#[test]
fn policy_unit_is_byte_identical_across_jobs_and_shards() {
    let base = ["--gpu", "B200", "--fast", "-q", "--policy"];
    let sequential = run_stdout(&[&base[..], &["--jobs", "1"]].concat());
    let parallel = run_stdout(&[&base[..], &["--jobs", "4"]].concat());
    assert_eq!(sequential, parallel, "--policy must not depend on --jobs");
    let report = mt4g_core::report::from_json(&sequential).expect("valid report");
    assert_eq!(report.policy.len(), 1, "one policy row for the L1");
    assert_eq!(
        report.policy[0].policy.value().map(String::as_str),
        Some("tree-plru"),
        "B200 plants a tree-PLRU L1"
    );
    assert_shards_merge_byte_identical_with("B200", &["--policy"], 2);
}

/// Policy shards must not merge with plain shards of the same preset:
/// the `--policy` knob is part of the plan fingerprint.
#[test]
fn policy_shards_do_not_merge_with_plain_shards() {
    let dir = temp_dir("policy-mismatch");
    let plain = run_stdout(&["--gpu", "T1000", "--fast", "-q", "--shard", "1/2"]);
    let policy = run_stdout(&[
        "--gpu", "T1000", "--fast", "-q", "--policy", "--shard", "2/2",
    ]);
    let pa = dir.join("plain.partial.json");
    let pb = dir.join("policy.partial.json");
    std::fs::write(&pa, plain).unwrap();
    std::fs::write(&pb, policy).unwrap();
    let out = mt4g()
        .args(["merge", pa.to_str().unwrap(), pb.to_str().unwrap(), "-q"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("incompatible"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Extended (`--tlb`) shards must not merge with plain shards of the same
/// preset: the knobs are part of the plan fingerprint.
#[test]
fn extension_shards_do_not_merge_with_plain_shards() {
    let dir = temp_dir("tlb-mismatch");
    let plain = run_stdout(&["--gpu", "T1000", "--fast", "-q", "--shard", "1/2"]);
    let tlb = run_stdout(&["--gpu", "T1000", "--fast", "-q", "--tlb", "--shard", "2/2"]);
    let pa = dir.join("plain.partial.json");
    let pb = dir.join("tlb.partial.json");
    std::fs::write(&pa, plain).unwrap();
    std::fs::write(&pb, tlb).unwrap();
    let out = mt4g()
        .args(["merge", pa.to_str().unwrap(), pb.to_str().unwrap(), "-q"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("incompatible"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scenario shards must not merge with bare-metal shards of the same
/// preset: the scenario is part of the plan fingerprint.
#[test]
fn mismatched_scenario_shards_are_rejected() {
    let dir = temp_dir("scenario-mismatch");
    let bare = run_stdout(&["--gpu", "A100", "--fast", "-q", "--shard", "1/2"]);
    let mig = run_stdout(&[
        "--gpu",
        "A100",
        "--fast",
        "-q",
        "--scenario",
        "mig:2g.10gb",
        "--shard",
        "2/2",
    ]);
    let pa = dir.join("bare.partial.json");
    let pb = dir.join("mig.partial.json");
    std::fs::write(&pa, bare).unwrap();
    std::fs::write(&pb, mig).unwrap();
    let out = mt4g()
        .args(["merge", pa.to_str().unwrap(), pb.to_str().unwrap(), "-q"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("incompatible"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard emits a parseable partial report whose unit results are a
/// strict subset of the plan, and an incomplete shard set refuses to
/// merge with a clear error.
#[test]
fn incomplete_shard_sets_are_rejected() {
    let dir = temp_dir("incomplete");
    let partial = run_stdout(&["--gpu", "T1000", "--fast", "-q", "--shard", "1/2"]);
    let parsed = mt4g_core::suite::partial_from_json(&partial).expect("valid partial JSON");
    assert_eq!(parsed.shard_index, 1);
    assert_eq!(parsed.shard_count, 2);
    assert!(parsed.results.len() < parsed.plan_len);

    let path = dir.join("only-half.partial.json");
    std::fs::write(&path, &partial).unwrap();
    let out = mt4g()
        .args(["merge", path.to_str().unwrap(), "-q"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("covered by no partial"),
        "missing-units error expected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shards of different configurations (full vs `--only`-restricted plans)
/// must not merge.
#[test]
fn mismatched_shards_are_rejected() {
    let dir = temp_dir("mismatch");
    let a = run_stdout(&["--gpu", "T1000", "--fast", "-q", "--shard", "1/2"]);
    let b = run_stdout(&[
        "--gpu", "T1000", "--fast", "-q", "--only", "cl1", "--shard", "2/2",
    ]);
    let pa = dir.join("a.partial.json");
    let pb = dir.join("b.partial.json");
    std::fs::write(&pa, a).unwrap();
    std::fs::write(&pb, b).unwrap();
    let out = mt4g()
        .args(["merge", pa.to_str().unwrap(), pb.to_str().unwrap(), "-q"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("incompatible"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mt4g merge` rejects `--scenario`: the scenario is baked into each
/// partial's fingerprint and cannot be re-scoped at merge time.
#[test]
fn merge_rejects_scenario_flag() {
    let out = mt4g()
        .args(["merge", "whatever.json", "--scenario", "hostile", "-q"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("not to `mt4g merge`"));
}

/// Bad `--shard` specs fail fast with exit code 2.
#[test]
fn invalid_shard_specs_fail() {
    for spec in ["0/3", "4/3", "1-3", "x/y", "3"] {
        let out = mt4g()
            .args(["--gpu", "T1000", "--fast", "-q", "--shard", spec])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "spec {spec} should be rejected");
    }
}

/// The job layer is the single execution path behind every front end
/// (batch CLI, shards, serve): resolving the same cell twice — or
/// executing it with different unit fan-outs — must produce identical
/// bytes. This is the invariant that makes the serve result cache safe.
#[test]
fn job_layer_output_is_byte_identical_across_fanouts() {
    use mt4g_core::suite::{DiscoveryConfig, JobSpec, Selection};
    use mt4g_sim::scenario::Scenario;

    let run = |jobs: usize| {
        let mut cfg = DiscoveryConfig::fast();
        cfg.only = Some(vec![mt4g_sim::device::CacheKind::ConstL1]);
        cfg.jobs = jobs;
        JobSpec {
            gpu: "T1000".to_string(),
            scenario: Scenario::BareMetal,
            cfg,
            selection: Selection::Full,
        }
        .resolve()
        .unwrap()
        .run()
        .unwrap()
        .bytes
    };
    let one = run(1);
    assert_eq!(one, run(2), "unit fan-out must not change a byte");
    assert_eq!(one, run(4));
    assert_eq!(one, run(1), "repeat runs are bit-stable");
}

/// Serving from the daemon and running the batch CLI are
/// byte-interchangeable for shard selections too: a shard job's bytes
/// equal the `--shard` CLI output.
#[test]
fn job_layer_shard_bytes_match_shard_cli() {
    use mt4g_core::suite::{DiscoveryConfig, JobSpec, Selection};
    use mt4g_sim::scenario::Scenario;

    let mut cfg = DiscoveryConfig::fast();
    cfg.only = Some(vec![mt4g_sim::device::CacheKind::ConstL1]);
    cfg.jobs = 1;
    let bytes = JobSpec {
        gpu: "T1000".to_string(),
        scenario: Scenario::BareMetal,
        cfg,
        selection: Selection::Shard { index: 1, count: 2 },
    }
    .resolve()
    .unwrap()
    .run()
    .unwrap()
    .bytes;
    let cli = run_stdout(&[
        "--gpu", "T1000", "--fast", "--only", "cl1", "--jobs", "1", "-q", "--shard", "1/2",
    ]);
    assert_eq!(bytes, cli.trim_end_matches('\n'));
}
