//! The `mt4g` command-line tool.
//!
//! Mirrors the real tool's interface (paper appendix), plus the
//! plan/execute/merge extensions:
//!
//! ```text
//! mt4g --gpu <PRESET> [--scenario <SCENARIO>] [-j] [-p] [-c] [-q]
//!      [--only <ELEMENT>] [--fast] [--jobs N] [--shard i/n] [-o <DIR>]
//! mt4g merge <PARTIAL.json>... [-j] [-p] [-c] [-q] [-o <DIR>]
//! mt4g serve [--workers N] [--queue-cap N] [--cache-cap N] [-q]
//! mt4g list
//! ```
//!
//! * `-j` — write `<GPU_name>.json` (JSON always goes to stdout otherwise)
//! * `-p` — write a Markdown report
//! * `-c` — write the CSV report (the GPUscout-GUI input format)
//! * `-g` — write Fig.-2-style raw scan series (one CSV per sized cache)
//! * `-q` — quiet: JSON to stdout only, no progress chatter
//! * `--only <ELEMENT>` — limit to one memory element (e.g. `L1`, `L2`)
//! * `--fast` — coarser scans, windowed CU-sharing pass
//! * `--tlb` — also discover the L1/L2 TLB reaches (adds a `tlb` report
//!   section)
//! * `--contention` — also run the shared-L2 contention benchmark (adds
//!   a `contention` report section)
//! * `--policy` — also classify the first-level data cache's replacement
//!   policy via eviction-order probes (adds a `policy` report section)
//! * `--debug` — trace boundary-confirmation walks to stderr
//! * `--timings` — append per-unit host wall-clock and work (kernels,
//!   host-walked loads) lines to stderr; the canonical report bytes are
//!   unaffected
//! * `--scenario <S>` — deployment scenario: `bare-metal` (default),
//!   `mig:<profile>` (run the suite *inside* a MIG instance, e.g.
//!   `mig:2g.10gb`), or `hostile` (amplified noise, locked-down APIs)
//! * `--jobs N` — run up to N discovery units concurrently (0 = all
//!   cores, the default); the report is byte-identical for every N
//! * `--shard i/n` — run shard `i` of an `n`-way split of the plan and
//!   emit a mergeable *partial* report instead of a full one
//! * `mt4g merge` — merge partial reports from a complete shard set into
//!   the full report (byte-identical to an unsharded run)
//! * `mt4g serve` — long-running daemon: line-delimited JSON requests on
//!   stdin, responses on stdout, backed by the job layer's
//!   content-addressed result cache
//! * `mt4g list` — the preset registry: names, aliases, vendor, family
//! * `--list` — short form: canonical preset names only
//!
//! Every discovery mode (full run, `--shard`, and the serve daemon) is a
//! thin client of the same `suite::Job` layer, so their outputs are
//! byte-interchangeable: a serve cache hit returns exactly the bytes a
//! batch run prints.

use std::io::Write;
use std::path::PathBuf;

use mt4g_core::report;
use mt4g_core::serve::{ServeEngine, ServeOptions};
use mt4g_core::suite::{
    merge_partials, normalize_report, partial_from_json, JobResult, JobSpec, Selection,
};
use mt4g_sim::device::CacheKind;
use mt4g_sim::presets::Registry;
use mt4g_sim::scenario::Scenario;

use mt4g_core::suite::DiscoveryConfig;

struct Args {
    gpu: Option<String>,
    json_file: bool,
    markdown: bool,
    csv: bool,
    graphs: bool,
    quiet: bool,
    fast: bool,
    list: bool,
    list_long: bool,
    only: Option<String>,
    tlb: bool,
    contention: bool,
    policy: bool,
    debug: bool,
    timings: bool,
    scenario: Scenario,
    jobs: usize,
    shard: Option<(usize, usize)>,
    merge_inputs: Option<Vec<PathBuf>>,
    out_dir: PathBuf,
    serve: bool,
    workers: usize,
    queue_cap: usize,
    cache_cap: usize,
}

fn parse_shard(spec: &str) -> Result<(usize, usize), String> {
    let err = || format!("--shard expects i/n with 1 <= i <= n, got '{spec}'");
    let (i, n) = spec.split_once('/').ok_or_else(err)?;
    let i: usize = i.trim().parse().map_err(|_| err())?;
    let n: usize = n.trim().parse().map_err(|_| err())?;
    if n == 0 || i == 0 || i > n {
        return Err(err());
    }
    Ok((i, n))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        gpu: None,
        json_file: false,
        markdown: false,
        csv: false,
        graphs: false,
        quiet: false,
        fast: false,
        list: false,
        list_long: false,
        only: None,
        tlb: false,
        contention: false,
        policy: false,
        debug: false,
        timings: false,
        scenario: Scenario::BareMetal,
        jobs: 0,
        shard: None,
        merge_inputs: None,
        out_dir: PathBuf::from("."),
        serve: false,
        workers: 2,
        queue_cap: 128,
        cache_cap: 64,
    };
    let mut it = std::env::args().skip(1).peekable();
    match it.peek().map(String::as_str) {
        Some("merge") => {
            it.next();
            args.merge_inputs = Some(Vec::new());
        }
        Some("list") => {
            it.next();
            args.list_long = true;
        }
        Some("serve") => {
            it.next();
            args.serve = true;
        }
        _ => {}
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-j" | "--json" => args.json_file = true,
            "-p" | "--markdown" => args.markdown = true,
            "-c" | "--csv" => args.csv = true,
            "-g" | "--graphs" => args.graphs = true,
            "-q" | "--quiet" => args.quiet = true,
            "--fast" => args.fast = true,
            "--tlb" => args.tlb = true,
            "--contention" => args.contention = true,
            "--policy" => args.policy = true,
            "--debug" => args.debug = true,
            "--timings" => args.timings = true,
            "--list" => args.list = true,
            "--gpu" => args.gpu = Some(it.next().ok_or("--gpu needs a value")?),
            "--only" => args.only = Some(it.next().ok_or("--only needs a value")?),
            "--scenario" => {
                let v = it.next().ok_or("--scenario needs a value")?;
                args.scenario = Scenario::parse(&v).map_err(|e| e.to_string())?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a number, got '{v}'"))?;
            }
            "--shard" => {
                let v = it.next().ok_or("--shard needs a value (i/n)")?;
                args.shard = Some(parse_shard(&v)?);
            }
            "--workers" => args.workers = parse_count(&mut it, "--workers")?,
            "--queue-cap" => args.queue_cap = parse_count(&mut it, "--queue-cap")?,
            "--cache-cap" => args.cache_cap = parse_count(&mut it, "--cache-cap")?,
            "-o" | "--out" => args.out_dir = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "-h" | "--help" => {
                print_help();
                std::process::exit(0);
            }
            other => match &mut args.merge_inputs {
                Some(inputs) if !other.starts_with('-') => inputs.push(PathBuf::from(other)),
                _ => return Err(format!("unknown argument: {other}")),
            },
        }
    }
    Ok(args)
}

fn parse_count(
    it: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>,
    flag: &str,
) -> Result<usize, String> {
    let v = it.next().ok_or(format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got '{v}'"))
}

fn print_help() {
    print_stdout(&format!(
        "mt4g — auto-discovery of GPU compute and memory topologies (simulated substrate)\n\n\
         USAGE: mt4g --gpu <PRESET> [--scenario <SCENARIO>] [-j] [-p] [-c] [-g] [-q]\n\
         \x20             [--only <ELEMENT>] [--fast] [--tlb] [--contention] [--policy] [--debug]\n\
         \x20             [--timings]\n\
         \x20             [--jobs N] [--shard i/n] [-o <DIR>]\n\
         \x20      mt4g merge <PARTIAL.json>... [-j] [-p] [-c] [-q] [-o <DIR>]\n\
         \x20      mt4g serve [--workers N] [--queue-cap N] [--cache-cap N] [-q]\n\
         \x20      mt4g list\n\n\
         PRESETS: {}\n\
         ELEMENTS: L1 L2 L3 Texture Readonly ConstL1 ConstL15 Shared LDS vL1 sL1d Device\n\
         SCENARIOS: bare-metal (default) | mig:<full|4g.20gb|3g.20gb|2g.10gb|1g.5gb> | hostile\n\n\
         --scenario S run the discovery inside a deployment scenario; the report\n\
         \x20             describes what that environment actually exposes\n\
         --tlb        also discover L1/L2 TLB reach, entries and walk penalties\n\
         --contention also measure shared-L2 contention (same vs cross segment)\n\
         --policy     also classify the L1/vL1 replacement policy (eviction-order probes)\n\
         --debug      trace boundary-confirmation walks to stderr\n\
         --timings    append per-unit wall-clock and work lines to stderr (never the report)\n\
         --jobs N     run up to N discovery units in parallel (0 = all cores; default)\n\
         --shard i/n  run shard i of an n-way split, emit a mergeable partial report\n\
         merge        reassemble a complete set of partial reports into the full report\n\
         serve        long-running daemon: line-delimited JSON requests on stdin,\n\
         \x20             responses on stdout, cache-accelerated (see ARCHITECTURE.md)\n\
         list         the full preset registry (names, aliases, vendor, family)",
        Registry::global().names().collect::<Vec<_>>().join(" ")
    ));
}

/// `mt4g list`: the registry as a table — canonical name, vendor, family,
/// device name, and accepted aliases.
fn print_registry() {
    let mut table = format!(
        "{:<14} {:<7} {:<10} {:<28} ALIASES",
        "NAME", "VENDOR", "FAMILY", "DEVICE"
    );
    for e in Registry::global().entries() {
        table.push_str(&format!(
            "\n{:<14} {:<7} {:<10} {:<28} {}",
            e.name,
            e.vendor.to_string(),
            e.family.label(),
            e.gpu().config.name,
            e.aliases.join(", ")
        ));
    }
    print_stdout(&table);
}

fn parse_element(s: &str) -> Option<CacheKind> {
    // One source of truth for the accepted spellings, shared with the
    // serve protocol's "only" field.
    CacheKind::parse(s)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.list_long {
        print_registry();
        return;
    }
    if args.list {
        print_stdout(&Registry::global().names().collect::<Vec<_>>().join("\n"));
        return;
    }
    if args.merge_inputs.is_some() {
        if args.scenario != Scenario::BareMetal {
            // The scenario is baked into each partial's plan fingerprint;
            // a merge cannot re-scope it after the fact.
            eprintln!("error: --scenario applies to discovery runs, not to `mt4g merge`");
            std::process::exit(2);
        }
        run_merge_mode(&args);
        return;
    }
    if args.serve {
        run_serve_mode(&args);
        return;
    }
    let Some(gpu_name) = args.gpu.as_deref() else {
        print_help();
        std::process::exit(2);
    };

    let mut cfg = if args.fast {
        DiscoveryConfig::fast()
    } else {
        DiscoveryConfig::thorough()
    };
    cfg.jobs = args.jobs;
    cfg.measure_tlb = args.tlb;
    cfg.measure_contention = args.contention;
    cfg.measure_policy = args.policy;
    cfg.debug = args.debug;
    cfg.timings = args.timings;
    if let Some(only) = args.only.as_deref() {
        match parse_element(only) {
            Some(kind) => cfg.only = Some(vec![kind]),
            None => {
                eprintln!("error: unknown element '{only}'");
                std::process::exit(2);
            }
        }
    }

    // Batch discovery is a thin client of the job layer: argv names a
    // cell, the job runs it, and the CLI emits the job's canonical bytes
    // verbatim — the same bytes a serve cache hit returns.
    let selection = match args.shard {
        Some((index, count)) => {
            if args.markdown || args.csv || args.graphs {
                eprintln!(
                    "error: --shard emits a partial report; -p/-c/-g apply to `mt4g merge` output"
                );
                std::process::exit(2);
            }
            Selection::Shard { index, count }
        }
        None => Selection::Full,
    };
    let spec = JobSpec {
        gpu: gpu_name.to_string(),
        scenario: args.scenario,
        cfg,
        selection,
    };
    let mut job = match spec.resolve() {
        Ok(job) => job,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if !args.quiet {
        let name = &job.gpu_mut().config.name;
        match selection {
            Selection::Full => eprintln!("mt4g: analysing {name} ..."),
            Selection::Shard { index, count } => {
                eprintln!("mt4g: analysing {name} (shard {index}/{count}) ...")
            }
        }
    }
    let out = job
        .run()
        .unwrap_or_else(|e| fail(format_args!("cannot serialise the report: {e}")));
    match &out.result {
        JobResult::Full(report) => {
            if !args.quiet {
                let rt = &report.runtime;
                eprintln!(
                    "mt4g: {} benchmarks, {} kernels, {} loads, {} simulated cycles",
                    rt.benchmarks_run, rt.kernels_launched, rt.loads_executed, rt.gpu_cycles
                );
            }
            emit_report(&args, report, &out.bytes);
            if args.graphs {
                let stem = report.device.name.replace([' ', '/'], "_");
                let report = report.clone();
                write_graphs(job.gpu_mut(), &report, &args.out_dir, &stem, args.quiet);
            }
        }
        JobResult::Partial(partial) => {
            if args.json_file {
                let stem = partial.device.name.replace([' ', '/'], "_");
                let path = args.out_dir.join(format!(
                    "{stem}.shard{}of{}.partial.json",
                    partial.shard_index, partial.shard_count
                ));
                write_file(&path, &out.bytes);
                if !args.quiet {
                    eprintln!("mt4g: wrote {}", path.display());
                }
            } else {
                print_stdout(&out.bytes);
            }
        }
    }
}

/// `mt4g merge`: read a complete set of partial reports and emit the full
/// report, byte-identical to an unsharded run of the same configuration.
fn run_merge_mode(args: &Args) {
    let inputs = args.merge_inputs.as_deref().unwrap_or_default();
    if inputs.is_empty() {
        eprintln!("error: mt4g merge needs at least one partial-report file");
        std::process::exit(2);
    }
    if args.graphs {
        eprintln!("error: -g needs a live discovery run, not merged partials");
        std::process::exit(2);
    }
    let mut partials = Vec::with_capacity(inputs.len());
    for path in inputs {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
        partials.push(partial_from_json(&text).unwrap_or_else(|e| {
            eprintln!("error: {} is not a partial report: {e}", path.display());
            std::process::exit(2);
        }));
    }
    let mut report = match merge_partials(&partials) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Whether an L3 row belongs in the canonical order travels inside the
    // partials — device names ("Instinct MI300X VF") are not preset short
    // names, so a preset lookup could not answer this.
    normalize_report(&mut report, partials[0].has_l3);
    if !args.quiet {
        eprintln!(
            "mt4g: merged {} partial report(s) covering {} units",
            partials.len(),
            partials.iter().map(|p| p.results.len()).sum::<usize>()
        );
    }
    let json = report::to_json_pretty(&report)
        .unwrap_or_else(|e| fail(format_args!("cannot serialise the report: {e}")));
    emit_report(args, &report, &json);
}

/// Writes the full report (whose canonical bytes the caller already has
/// from the job layer) to stdout or to `-j`/`-p`/`-c` files.
fn emit_report(args: &Args, report: &mt4g_core::report::Report, json: &str) {
    let stem = report.device.name.replace([' ', '/'], "_");
    if args.json_file {
        let path = args.out_dir.join(format!("{stem}.json"));
        write_file(&path, json);
        if !args.quiet {
            eprintln!("mt4g: wrote {}", path.display());
        }
    } else {
        print_stdout(json);
    }
    if args.markdown {
        let path = args.out_dir.join(format!("{stem}.md"));
        write_file(&path, &report::to_markdown(report));
        if !args.quiet {
            eprintln!("mt4g: wrote {}", path.display());
        }
    }
    if args.csv {
        let path = args.out_dir.join(format!("{stem}.csv"));
        write_file(&path, &report::to_csv(report));
        if !args.quiet {
            eprintln!("mt4g: wrote {}", path.display());
        }
    }
}

/// `-g`: Fig.-2-style raw scan data around each discovered cache size —
/// array size, latency percentiles, and the Eq. (2) reduction, as CSV.
fn write_graphs(
    gpu: &mut mt4g_sim::Gpu,
    report: &mt4g_core::report::Report,
    out_dir: &std::path::Path,
    stem: &str,
    quiet: bool,
) {
    use mt4g_core::benchmarks::size::{scan_interval, SizeConfig};
    use mt4g_core::pchase::calibrate_overhead;
    use mt4g_core::report::Attribute;
    use mt4g_sim::device::{LoadFlags, MemorySpace, Vendor};

    let targets: Vec<(CacheKind, MemorySpace, LoadFlags)> = match gpu.vendor() {
        Vendor::Nvidia => vec![
            (CacheKind::L1, MemorySpace::Global, LoadFlags::CACHE_ALL),
            (
                CacheKind::ConstL1,
                MemorySpace::Constant,
                LoadFlags::CACHE_ALL,
            ),
        ],
        Vendor::Amd => vec![
            (CacheKind::VL1, MemorySpace::Vector, LoadFlags::CACHE_ALL),
            (CacheKind::SL1D, MemorySpace::Scalar, LoadFlags::CACHE_ALL),
        ],
    };
    let dir = out_dir.join(format!("{stem}_graphs"));
    let _ = std::fs::create_dir_all(&dir);
    for (kind, space, flags) in targets {
        let Some(element) = report.element(kind) else {
            continue;
        };
        let (Attribute::Measured { value: size, .. }, Some(&fg)) =
            (&element.size, element.fetch_granularity_bytes.value())
        else {
            continue;
        };
        let cfg = SizeConfig::new(space, flags, fg as u64);
        let overhead = calibrate_overhead(gpu);
        let lo = size / 2;
        let hi = size * 3 / 2;
        let step = (((hi - lo) / 48).max(fg as u64) / fg as u64) * fg as u64;
        let scan = scan_interval(gpu, &cfg, lo, hi, step, overhead);
        let mut csv = String::from("array_bytes,p10,p50,p90,reduction\n");
        for (s, (raw, red)) in scan.sizes.iter().zip(scan.raw.iter().zip(&scan.reduced)) {
            let p = |q| mt4g_stats::descriptive::percentile(raw, q).unwrap_or(0.0);
            csv.push_str(&format!(
                "{s},{:.2},{:.2},{:.2},{:.3}\n",
                p(10.0),
                p(50.0),
                p(90.0),
                red
            ));
        }
        let path = dir.join(format!(
            "{}_scan.csv",
            kind.label().replace([' ', '.'], "_")
        ));
        write_file(&path, &csv);
        if !quiet {
            eprintln!("mt4g: wrote {}", path.display());
        }
    }
}

/// `mt4g serve`: the long-running daemon. Reads line-delimited JSON
/// requests from stdin, writes one JSON response line per request to
/// stdout (completion order — clients correlate by `id`), and keeps the
/// job layer's content-addressed result cache warm across requests.
///
/// Shutdown paths, all clean (exit 0):
/// * a `{"op":"shutdown"}` request — acknowledged, queue drained;
/// * EOF on stdin — queue drained;
/// * SIGTERM — immediate exit. The response writer emits complete,
///   flushed lines, so no partial line has been buffered; in-flight
///   recomputes are abandoned (their cells were cache misses anyway).
fn run_serve_mode(args: &Args) {
    install_sigterm_handler();
    let opts = ServeOptions {
        workers: args.workers,
        queue_cap: args.queue_cap,
        cache_cap: args.cache_cap,
        job_threads: 1,
    };
    if !args.quiet {
        eprintln!(
            "mt4g: serving on stdin/stdout (workers={}, queue-cap={}, cache-cap={})",
            opts.workers.max(1),
            opts.queue_cap.max(1),
            opts.cache_cap.max(1)
        );
    }
    let (mut engine, rx) = ServeEngine::new(opts);
    // One writer thread serializes responses in completion order. Each
    // line is flushed before the next is started: stdout is block-
    // buffered when piped, and a daemon that holds answers hostage in a
    // buffer looks hung to its client.
    let writer = std::thread::spawn(move || {
        let stdout = std::io::stdout();
        for resp in rx {
            // The vendored writer is infallible by construction, but a
            // daemon must not stake its life on that: degrade to a
            // hand-built internal-error line rather than panicking the
            // writer thread (which would silently stop all responses).
            let line = serde_json::to_string(&resp).unwrap_or_else(|e| {
                format!(
                    r#"{{"id":{},"ok":false,"cached":false,"latency_ns":0,"error":{{"code":"internal","message":"response serialization failed: {e}"}}}}"#,
                    resp.id
                )
            });
            let mut out = stdout.lock();
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                // Client hung up; keep draining so workers can finish.
                continue;
            }
        }
    });
    // Returns on EOF or a `shutdown` request; either way, drain.
    if let Err(e) = engine.read_requests(std::io::stdin().lock()) {
        eprintln!("mt4g: stdin read failed: {e}");
    }
    let stats = engine.shutdown();
    let _ = writer.join();
    if !args.quiet {
        eprintln!(
            "mt4g: served {} request(s): {} hit(s), {} miss(es), {} rejected, {} bad",
            stats.requests, stats.hits, stats.misses, stats.rejected, stats.bad_requests
        );
    }
}

const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn _exit(status: i32) -> !;
}

/// SIGTERM handler for serve mode. glibc's `signal()` installs handlers
/// with SA_RESTART, and the request reader retries
/// `ErrorKind::Interrupted`, so a flag-checking handler cannot wake a
/// thread blocked reading stdin —
/// the daemon would only notice the signal at the *next* request. The
/// handler instead exits directly, which is async-signal-safe (`write` +
/// `_exit` only) and clean by construction: the response writer flushes
/// complete lines, so there is never a partial line buffered in userspace.
extern "C" fn on_sigterm(_sig: i32) {
    const MSG: &[u8] = b"mt4g: SIGTERM, shutting down\n";
    // SAFETY: `write` and `_exit` are on POSIX's async-signal-safe list;
    // the buffer is a static byte literal with its exact length, and
    // `_exit` never returns, so no interrupted userspace state is
    // re-entered.
    unsafe {
        let _ = write(2, MSG.as_ptr(), MSG.len());
        _exit(0);
    }
}

fn install_sigterm_handler() {
    // SAFETY: `signal` is called once, from the single-threaded startup
    // path before any worker exists, with a handler that is itself
    // async-signal-safe (see `on_sigterm`); the libc signatures above
    // match the C ABI exactly.
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

/// Prints a one-line error and exits with code 1 (I/O or serialisation
/// failure — distinct from the usage errors' exit code 2). Never panics:
/// a full backtrace on a missing output directory helps nobody.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Prints `text` and a newline to stdout, the one way this tool writes
/// there outside serve mode. A closed reader (`mt4g … | head`) or any
/// other write error ends the run through [`fail`], not a panic.
fn print_stdout(text: &str) {
    let mut out = std::io::stdout();
    if let Err(e) = writeln!(out, "{text}").and_then(|()| out.flush()) {
        fail(format_args!("cannot write to stdout: {e}"));
    }
}

fn write_file(path: &std::path::Path, contents: &str) {
    let result = std::fs::File::create(path).and_then(|mut f| f.write_all(contents.as_bytes()));
    if let Err(e) = result {
        fail(format_args!("cannot write {}: {e}", path.display()));
    }
}
