//! Gates a `BENCH_*.json` snapshot against the checked-in baseline table
//! and exits non-zero on regression — the check that turns the bench CI
//! job from an artifact upload into a real gate.
//!
//! ```text
//! cargo run --release -p mt4g_bench --bin bench_gate -- \
//!     --table <current.json> <BENCH_baseline.json>
//! ```
//!
//! The table (`BENCH_baseline.json` at the workspace root) is a ratchet:
//! it holds one `best_ns_per_element` entry per hot-path workload — the
//! best number ever recorded across the committed `BENCH_pr<N>.json`
//! snapshots — plus a `floors` section of exact-value minimums (e.g. the
//! policy fingerprint accuracy). Every workload in the table must be
//! present in the current snapshot and within `max_regress` of its
//! best-known time. Workload names are looked up as literal keys (they
//! contain `.` and `/`); floor paths are dot-separated
//! (`policy_fingerprint.accuracy`). A name or path missing from the
//! snapshot is itself a failure: a gate that silently skips checks is a
//! gate in name only. Improving a number means tightening the table in
//! the same PR; the gate never loosens itself.

use std::process::exit;

use serde_json::{from_str_value, JsonValue};

/// Navigates a dot-separated path into a parsed snapshot.
fn lookup<'v>(root: &'v JsonValue, path: &str) -> Option<&'v JsonValue> {
    let mut node = root;
    for seg in path.split('.') {
        node = node.get(seg)?;
    }
    Some(node)
}

fn as_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::U64(n) => Some(*n as f64),
        JsonValue::I64(n) => Some(*n as f64),
        JsonValue::F64(n) => Some(*n),
        _ => None,
    }
}

/// Every workload of the checked-in baseline table must be present in the
/// current snapshot and within `max_regress` of its best-known
/// ns/element; every `floors` entry must hold exactly.
fn run_table(current_path: &str, table_path: &str) -> ! {
    let current = read_snapshot(current_path);
    let table = read_snapshot(table_path);
    let max_regress = table
        .get("max_regress")
        .and_then(as_f64)
        .unwrap_or_else(|| {
            eprintln!("bench_gate: {table_path} has no numeric max_regress");
            exit(2);
        });
    let mut failures: Vec<String> = Vec::new();
    let mut passed = 0u32;

    let Some(JsonValue::Object(workloads)) = table.get("workloads") else {
        eprintln!("bench_gate: {table_path} has no workloads object");
        exit(2);
    };
    for (name, entry) in workloads {
        let Some(best) = entry.get("best_ns_per_element").and_then(as_f64) else {
            failures.push(format!("{name}: table entry has no best_ns_per_element"));
            continue;
        };
        // Per-workload slack override: p-chase style workloads vary far
        // more run-to-run than the tight cache loops, so the table can
        // widen their window without loosening everything.
        let max_regress = entry
            .get("max_regress")
            .and_then(as_f64)
            .unwrap_or(max_regress);
        // Workload names contain '.' and '/', so the snapshot key is
        // looked up literally, never dot-split.
        let Some(cur) = current.get(name).and_then(|e| {
            e.get("ns_per_element")
                .or_else(|| e.get("ms"))
                .and_then(as_f64)
        }) else {
            failures.push(format!("{name}: missing from current snapshot"));
            continue;
        };
        let regress = (cur - best) / best;
        if regress > max_regress {
            failures.push(format!(
                "{name}: {cur:.2} regressed {:.1}% vs best-known {best:.2} (limit {:.0}%)",
                regress * 100.0,
                max_regress * 100.0
            ));
        } else {
            passed += 1;
        }
    }

    if let Some(JsonValue::Object(floors)) = table.get("floors") {
        for (path, min) in floors {
            let Some(min) = as_f64(min) else {
                failures.push(format!("{path}: non-numeric floor in table"));
                continue;
            };
            match lookup(&current, path).and_then(as_f64) {
                Some(cur) if cur >= min => passed += 1,
                Some(cur) => failures.push(format!("{path}: {cur} is below the floor {min}")),
                None => failures.push(format!("{path}: missing from current snapshot")),
            }
        }
    }

    if failures.is_empty() {
        println!("bench_gate: {passed} check(s) passed against table {table_path}");
        exit(0);
    }
    for f in &failures {
        eprintln!("bench_gate: FAIL {f}");
    }
    eprintln!(
        "bench_gate: {} of {} check(s) failed",
        failures.len(),
        failures.len() + passed as usize
    );
    exit(1);
}

fn read_snapshot(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        exit(2);
    });
    from_str_value(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: {path} is not valid JSON: {e:?}");
        exit(2);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.as_slice() {
        [flag, current, table] if flag == "--table" => run_table(current, table),
        _ => {
            eprintln!("usage: bench_gate --table <current.json> <BENCH_baseline.json>");
            exit(2);
        }
    }
}
