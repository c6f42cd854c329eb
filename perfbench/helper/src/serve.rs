//! The serve side: the request mix, a serve session that feeds request
//! lines to an in-process `ServeEngine`, and the cold recompute that
//! checks what was served.

use std::collections::BTreeMap;
use std::io::Write;

use mt4g_core::serve::{parse_request, ServeEngine, ServeOptions, ServeStats};
use mt4g_core::suite::JobResult;
use mt4g_core::validate::validate_scenario;
use mt4g_sim::presets::Registry;

use crate::cells::SMALL_PRESETS;
use crate::json::Obj;

/// Line that ends a serve session.
pub const END: &str = "end";

/// The serve engine's result-cache capacity: room for the hot set plus
/// fewer than all the other cells, so the cold sweep, which cycles through
/// every other cell, misses on every request.
pub const CACHE_CAP: usize = 18;

/// The hot set, as (preset, scenario, opt-in units on): requested often
/// enough to stay cached. It holds the costliest cells, so each cell of
/// the cold sweep computes in less than the sweep's pacing period.
const HOT: [(&str, &str, bool); 8] = [
    ("T1000", "bare-metal", true),
    ("T1000", "bare-metal", false),
    ("T1000", "hostile", true),
    ("T1000", "hostile", false),
    ("MI100", "bare-metal", true),
    ("RX7900XTX", "bare-metal", true),
    ("RX9070XT", "bare-metal", true),
    ("RX9070XT", "hostile", true),
];

/// The engine a serve session runs: one worker, so the request generator
/// is the second busy thread.
pub fn options() -> ServeOptions {
    ServeOptions {
        workers: 1,
        queue_cap: 256,
        cache_cap: CACHE_CAP,
        job_threads: 1,
    }
}

/// The serve mix's distinct cells as request lines (without an `id`),
/// each with whether it is in the hot set: each small-cells preset, bare
/// metal then hostile (a hostile preset only bare metal), each with every
/// opt-in unit and then plain.
pub fn mix() -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for preset in SMALL_PRESETS {
        let scenarios: &[&str] = if preset.ends_with("-hostile") {
            &["bare-metal"]
        } else {
            &["bare-metal", "hostile"]
        };
        for &scenario in scenarios {
            for knobs in [true, false] {
                let line = format!(
                    "{{\"op\":\"discover\",\"gpu\":\"{preset}\",\"scenario\":\"{scenario}\",\
                     \"mode\":\"fast\",\"tlb\":{knobs},\"contention\":{knobs},\"policy\":{knobs}}}"
                );
                out.push((line, HOT.contains(&(preset, scenario, knobs))));
            }
        }
    }
    out
}

/// The serve mix's request lines.
pub fn mix_lines() -> Vec<String> {
    mix().into_iter().map(|(line, _)| line).collect()
}

/// FNV-1a over the bytes: the digest a response line carries so the
/// benchmark script can group served bytes without shipping them.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Starts a fresh engine and writes a ready line, then feeds every line up
/// to [`END`] to the engine, writes one summary line per response to
/// stdout as responses complete, drains the engine,
/// and returns its counters plus every distinct served report, keyed by
/// digest.
pub fn session(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    opts: ServeOptions,
) -> Result<(ServeStats, BTreeMap<u64, String>), String> {
    let (mut engine, rx) = ServeEngine::new(opts);
    let writer = std::thread::spawn(move || {
        let mut served: BTreeMap<u64, String> = BTreeMap::new();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let _ = writeln!(out, "{{\"ok\":true,\"ready\":true}}").and_then(|()| out.flush());
        for resp in rx {
            let mut line = Obj::new();
            line.num("id", resp.id)
                .bool("ok", resp.ok)
                .bool("cached", resp.cached)
                .bool("coalesced", resp.coalesced)
                .num("latency_ns", resp.latency_ns);
            if let Some(err) = &resp.error {
                line.str("code", &err.code);
            }
            if let Some(bytes) = resp.report {
                let digest = fnv1a(bytes.as_bytes());
                line.str("digest", &format!("{digest:016x}"));
                served.entry(digest).or_insert(bytes);
            }
            // A closed pipe means `run.py` is gone; keep draining so
            // the engine can shut down.
            let _ = writeln!(out, "{}", line.end()).and_then(|()| out.flush());
        }
        served
    });
    for line in lines.by_ref() {
        let line = line.map_err(|e| e.to_string())?;
        if line == END {
            break;
        }
        engine.handle_line(&line);
    }
    let stats = engine.shutdown();
    let served = writer
        .join()
        .map_err(|_| "serve response writer panicked".to_string())?;
    Ok((stats, served))
}

/// Recomputes a request's cell cold through the job layer, compares the
/// bytes with each served report named by `digests`, and validates the
/// cold report. Returns (the digests whose bytes differ, checked, wrong).
pub fn verify(
    line: &str,
    digests: &[u64],
    served: &BTreeMap<u64, String>,
) -> Result<(Vec<u64>, u32, u32), String> {
    let req = parse_request(line).map_err(|e| e.message)?;
    let mut job = req
        .to_spec(1)
        .map_err(|e| e.message)?
        .resolve()
        .map_err(|e| e.to_string())?;
    let cold = job.run().map_err(|e| e.to_string())?;
    let differ = digests
        .iter()
        .copied()
        .filter(|d| served.get(d).is_none_or(|b| *b != cold.bytes))
        .collect();
    let JobResult::Full(report) = &cold.result else {
        return Err("served cell is not a full report".to_string());
    };
    let planted = Registry::global()
        .get(job.preset())
        .ok_or("unknown preset")?
        .gpu()
        .config;
    let v = validate_scenario(report, &planted, &job.scenario()).map_err(|e| e.to_string())?;
    Ok((differ, v.checked, v.mismatches))
}

/// Reads the `serve` command's lines from `input` (used by tests).
#[cfg(test)]
fn session_from(input: &str, opts: ServeOptions) -> (ServeStats, BTreeMap<u64, String>) {
    use std::io::BufRead;
    let mut lines = std::io::Cursor::new(input.to_string()).lines();
    session(&mut lines, opts).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_lines_parse_and_are_distinct_cells() {
        let lines = mix_lines();
        assert_eq!(lines.len(), 26);
        let mut cells: Vec<String> = lines
            .iter()
            .map(|l| {
                let job = parse_request(l)
                    .unwrap()
                    .to_spec(1)
                    .unwrap()
                    .resolve()
                    .unwrap();
                job.cell()
            })
            .collect();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), 26);
    }

    #[test]
    fn cache_holds_the_hot_set_but_not_every_cell() {
        let mix = mix();
        let hot = mix.iter().filter(|(_, hot)| *hot).count();
        assert_eq!(hot, HOT.len(), "every hot cell is in the mix");
        assert!(hot < CACHE_CAP && CACHE_CAP < mix.len());
    }

    #[test]
    fn served_bytes_match_a_cold_recompute() {
        let line = mix_lines()
            .into_iter()
            .find(|l| l.contains("\"MI210\"") && l.contains("hostile") && l.contains("false"))
            .unwrap();
        let req = |id: u32| line.replacen('{', &format!("{{\"id\":{id},"), 1);
        let input = format!("{}\n{}\n{END}\n", req(1), req(2));
        let (stats, served) = session_from(
            &input,
            ServeOptions {
                workers: 1,
                queue_cap: 4,
                cache_cap: 4,
                job_threads: 1,
            },
        );
        assert_eq!(stats.requests, 2);
        assert_eq!(served.len(), 1, "one cell, one byte string");
        let digests: Vec<u64> = served.keys().copied().collect();
        let (differ, checked, _) = verify(&line, &digests, &served).unwrap();
        assert!(differ.is_empty() && checked > 0);
        let (differ, _, _) = verify(&line, &[digests[0] ^ 1], &served).unwrap();
        assert_eq!(differ, [digests[0] ^ 1], "an unknown digest is a mismatch");
    }
}
