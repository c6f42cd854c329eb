//! `perfbench-helper`: the long-lived process `perfbench/run.py` times.
//!
//! The helper reads no clock. It reads one command per line on stdin and
//! answers one JSON object per line on stdout; `run.py` times each
//! command from outside. Host times that only the program knows come back
//! as the program reports them (`UnitResult::wall_nanos` per discovery
//! unit, `Response::latency_ns` per served request).
//!
//! ```text
//! cells <workload> <seed>    choose the cells of l2-search | small-cells | reference
//! setup [reps]               resolve and plan every cell, `reps` times
//! resolve <i> | plan <i>     the same for one cell (traced set-up)
//! run <i>                    execute, serialize and validate cell i
//! execute <i> | serialize <i> | validate <i>   the same, one layer at a time
//! mix                        the serve mix's request lines and its hot set
//! serve                      start a serve engine, feed it request lines until `end`
//! verify <d1,d2,..> <line>   recompute a served cell cold, compare bytes
//! prep <probe> | probe <probe> <n>            layer probes
//! quit
//! ```
//!
//! Every reply carries `"ok"`; a failed or panicking command answers
//! `{"ok":false,"error":...}` and the helper keeps serving.

mod cells;
mod json;
mod probes;
mod serve;

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use mt4g_core::suite::DiscoveryConfig;

use cells::{Cell, CellSpec};
use json::Obj;

#[derive(Default)]
struct State {
    cfg: Option<DiscoveryConfig>,
    specs: Vec<CellSpec>,
    cells: Vec<Option<Cell>>,
    probes: probes::Probes,
    served: BTreeMap<u64, String>,
}

impl State {
    fn cfg(&self) -> Result<DiscoveryConfig, String> {
        self.cfg
            .clone()
            .ok_or_else(|| "no cells chosen".to_string())
    }

    fn cell(&mut self, arg: Option<&str>) -> Result<&mut Cell, String> {
        let i = index(arg, self.cells.len())?;
        self.cells[i]
            .as_mut()
            .ok_or_else(|| format!("cell {i} is not resolved"))
    }

    fn resolve(&mut self, i: usize) -> Result<(), String> {
        self.cells[i] = Some(cells::resolve(&self.specs[i])?);
        Ok(())
    }

    fn plan(&mut self, i: usize) -> Result<(), String> {
        let cfg = self.cfg()?;
        let cell = self.cells[i]
            .as_mut()
            .ok_or_else(|| format!("cell {i} is not resolved"))?;
        cells::plan(cell, &cfg);
        Ok(())
    }
}

fn index(arg: Option<&str>, len: usize) -> Result<usize, String> {
    let i: usize = arg
        .ok_or("missing cell index")?
        .parse()
        .map_err(|_| "bad cell index")?;
    if i < len {
        Ok(i)
    } else {
        Err(format!("cell {i} out of range (have {len})"))
    }
}

fn units_json(units: &[(String, u64, u64)]) -> String {
    let rows: Vec<String> = units
        .iter()
        .map(|(label, ns, kernels)| {
            let mut s = String::from("[");
            json::quote(&mut s, label);
            s.push_str(&format!(",{ns},{kernels}]"));
            s
        })
        .collect();
    format!("[{}]", rows.join(","))
}

fn validated(reply: &mut Obj, checked: u32, wrong: u32, note: &str) {
    reply
        .num("checked", u64::from(checked))
        .num("wrong", u64::from(wrong))
        .str("note", note);
}

/// Runs one command and fills `reply`. Serve sessions read their request
/// lines from `lines`.
fn command(
    state: &mut State,
    line: &str,
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    reply: &mut Obj,
) -> Result<(), String> {
    let mut words = line.splitn(3, ' ');
    let cmd = words.next().unwrap_or("");
    let a1 = words.next();
    let a2 = words.next();
    match cmd {
        "cells" => {
            let workload = a1.ok_or("missing workload")?;
            let seed: u64 = a2.ok_or("missing seed")?.parse().map_err(|_| "bad seed")?;
            let (specs, cfg) = cells::workload_cells(workload, seed)
                .ok_or_else(|| format!("unknown workload {workload}"))?;
            state.cells = specs.iter().map(|_| None).collect();
            state.specs = specs;
            state.cfg = Some(cfg);
            reply.num("cells", state.specs.len() as u64);
        }
        "setup" => {
            let reps: u32 = a1.map_or(Ok(1), |a| a.parse().map_err(|_| "bad repetitions"))?;
            for _ in 0..reps {
                for i in 0..state.specs.len() {
                    state.resolve(i)?;
                    state.plan(i)?;
                }
            }
            reply.num("cells", state.specs.len() as u64);
        }
        "resolve" => state.resolve(index(a1, state.specs.len())?)?,
        "plan" => state.plan(index(a1, state.specs.len())?)?,
        "run" => {
            let cfg = state.cfg()?;
            let cell = state.cell(a1)?;
            let units = cells::execute(cell, &cfg)?;
            cells::serialize(cell)?;
            let (checked, wrong, note) = cells::validate(cell)?;
            let digest = serve::fnv1a(cell.bytes.as_bytes());
            cell.report = None;
            cell.bytes = String::new();
            reply
                .raw("units", &units_json(&units))
                .str("digest", &format!("{digest:016x}"));
            validated(reply, checked, wrong, &note);
        }
        "execute" => {
            let cfg = state.cfg()?;
            let units = cells::execute(state.cell(a1)?, &cfg)?;
            reply.raw("units", &units_json(&units));
        }
        "serialize" => {
            let cell = state.cell(a1)?;
            cells::serialize(cell)?;
            let digest = serve::fnv1a(cell.bytes.as_bytes());
            reply.str("digest", &format!("{digest:016x}"));
        }
        "validate" => {
            let cell = state.cell(a1)?;
            let (checked, wrong, note) = cells::validate(cell)?;
            cell.report = None;
            cell.bytes = String::new();
            validated(reply, checked, wrong, &note);
        }
        "mix" => {
            let mix = serve::mix();
            let quoted: Vec<String> = mix
                .iter()
                .map(|(l, _)| {
                    let mut s = String::new();
                    json::quote(&mut s, l);
                    s
                })
                .collect();
            let hot: Vec<String> = (0..mix.len())
                .filter(|&i| mix[i].1)
                .map(|i| i.to_string())
                .collect();
            reply
                .raw("lines", &format!("[{}]", quoted.join(",")))
                .raw("hot", &format!("[{}]", hot.join(",")));
        }
        "serve" => {
            let (stats, served) = serve::session(lines, serve::options())?;
            state.served = served;
            reply
                .bool("stats", true)
                .num("requests", stats.requests)
                .num("hits", stats.hits)
                .num("misses", stats.misses)
                .num("coalesced", stats.coalesced)
                .num("rejected", stats.rejected)
                .num("evictions", stats.cache_evictions);
        }
        "verify" => {
            let digests = a1
                .ok_or("missing digests")?
                .split(',')
                .map(|d| u64::from_str_radix(d, 16).map_err(|_| format!("bad digest {d}")))
                .collect::<Result<Vec<u64>, String>>()?;
            let (differ, checked, wrong) =
                serve::verify(a2.ok_or("missing request line")?, &digests, &state.served)?;
            let differ: Vec<String> = differ.iter().map(|d| format!("\"{d:016x}\"")).collect();
            reply.raw("differ", &format!("[{}]", differ.join(",")));
            validated(reply, checked, wrong, "");
        }
        "prep" => state.probes.prep(a1.ok_or("missing probe")?)?,
        "probe" => {
            let n: u64 = a2
                .ok_or("missing count")?
                .parse()
                .map_err(|_| "bad count")?;
            let ops = state.probes.probe(a1.ok_or("missing probe")?, n)?;
            reply.num("ops", ops);
        }
        _ => return Err(format!("unknown command {cmd:?}")),
    }
    Ok(())
}

fn main() {
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let mut state = State::default();
    while let Some(Ok(line)) = lines.next() {
        let line = line.trim_end().to_string();
        if line == "quit" {
            break;
        }
        let mut reply = Obj::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            command(&mut state, &line, &mut lines, &mut reply)
        }));
        let text = match outcome {
            Ok(Ok(())) => {
                let body = reply.end();
                format!(
                    "{{\"ok\":true{}{}",
                    if body.len() > 2 { "," } else { "" },
                    &body[1..]
                )
            }
            Ok(Err(e)) => Obj::new().bool("ok", false).str("error", &e).end(),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                Obj::new()
                    .bool("ok", false)
                    .str("error", &format!("panic: {msg}"))
                    .end()
            }
        };
        let mut out = std::io::stdout().lock();
        if writeln!(out, "{text}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
}
