#!/usr/bin/env python3
"""perfbench: the MT4G reproduction's benchmark.

    python3 perfbench/run.py --workload l2-search|small-cells|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds `perfbench/helper` (a Rust
package of its own that calls the public mt4g APIs), starts it, and times
every command it sends it over a pipe: the helper itself reads no clock.
With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of a traced run,
and the spans are written to `<target dir>/perfbench/`. See README.md in
this directory for every metric, workload and the layer map.
"""

import argparse
import json
import math
import os
import random
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("l2-search", "small-cells", "serve-mix")
# Set-ups timed per run (the median is reported). One timed `setup`
# command repeats the set-up SETUP_BATCH times, so a set-up of a fraction
# of a millisecond is not read through the pipe's wake-up latency.
SETUP_REPS = 15
SETUP_BATCH = {"l2-search": 100}
SERVE_SETUP_REPS = 3
UNIT_JOBS = 2  # the helper's unit fan-out per discovery cell
# Nominal seconds of one work item, used only to size a run from --seconds.
L2_DISCOVERY_S = 13.0
CELLS_PASS_S = 11.0
# The units the per-layer metrics cover.
UNITS = ("nv.l2", "nv.l1", "nv.texture", "nv.readonly", "nv.constant",
         "nv.sharing", "amd.vl1", "amd.sl1d", "mem.tlb", "mem.l2contention",
         "mem.policy")
# Serve mix: the helper's `mix` command names the lines and the hot set
# (which its cache capacity keeps cached). Hot cells get a Zipf-skewed
# share of the hot rate; the cold sweep cycles through the other cells,
# so every sweep request misses. The sweep period (1/SWEEP_RATE_HZ)
# exceeds the slowest sweep cell's compute.
HOT_RATE_HZ = 130.0
SWEEP_RATE_HZ = 6.0
SWEEP_JITTER = 0.1  # of the sweep period
TWIN_SHARE = 0.25
TWIN_GAP_S = 0.005
# The generator sleeps until this long before a request is due, then spins,
# so timer slack does not make it late.
SPIN_S = 0.0003

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("p50_ms", "ms"),
              ("tail_ms", "ms"), ("peak_rss_mb", "MB"),
              ("correct_attrs", "count"), ("right_share", "ratio"),
              ("ok_rate", "ratio"))


class HelperError(Exception):
    """A helper command answered ok=false, or the helper died."""


# ---------------------------------------------------------------------------
# Statistics

LADDER = (999, 990, 950, 900, 750, 500)  # percentiles, in per mille


def tail_rank(n):
    """The highest ladder percentile (per mille) with at least ten of the
    n samples beyond it, or None when no ladder percentile has."""
    for pm in LADDER:
        if n - (-(-n * pm // 1000)) >= 10:
            return pm
    return None


def percentile(values, pm):
    """Linear-interpolated percentile (pm in per mille) of values."""
    s = sorted(values)
    if not s:
        return float("nan")
    pos = (len(s) - 1) * pm / 1000
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values):
    """The median, or NaN (reported as a failure) when there are no values."""
    return statistics.median(values) if values else float("nan")


def tail(values):
    """(value, label) at the highest percentile with ten samples beyond it;
    the maximum when there are too few samples for any; NaN with none."""
    if not values:
        return float("nan"), "none"
    pm = tail_rank(len(values))
    if pm is None:
        return max(values), "max"
    return percentile(values, pm), "p%g" % (pm / 10)


class Tally:
    """Attempted and failed operations, with one note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, note=""):
        self.attempted += 1
        if not ok:
            self.fail(note)
        return ok

    def fail(self, note):
        """Marks an operation already counted as attempted as failed."""
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def ok_rate(self):
        return 1.0 - self.failed / max(1, self.attempted)


# ---------------------------------------------------------------------------
# The helper process


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the helper; returns its path or exits 2 without a result."""
    manifest = os.path.join(HERE, "helper", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write("perfbench: building the helper failed\n")
        sys.exit(2)
    return os.path.join(target_dir(), "release", "perfbench-helper")


class Helper:
    """One helper process, spoken to over raw pipe file descriptors."""

    def __init__(self, exe):
        self.proc = subprocess.Popen([exe], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, bufsize=0,
                                     cwd=ROOT)
        self.rfd = self.proc.stdout.fileno()
        self.wfd = self.proc.stdin.fileno()
        self.buf = b""

    def send(self, line):
        data = (line + "\n").encode()
        try:
            while data:
                data = data[os.write(self.wfd, data):]
        except OSError as e:
            raise HelperError("helper gone: %s" % e) from e

    def buffered(self):
        """The complete lines already received."""
        *done, self.buf = self.buf.split(b"\n")
        return [json.loads(d) for d in done]

    def line(self):
        while True:
            if b"\n" in self.buf:
                head, self.buf = self.buf.split(b"\n", 1)
                return json.loads(head)
            chunk = os.read(self.rfd, 1 << 16)
            if not chunk:
                raise HelperError("helper exited")
            self.buf += chunk

    def call(self, cmd):
        self.send(cmd)
        reply = self.line()
        if not reply.get("ok"):
            raise HelperError("%s: %s" % (cmd.split(" ")[0], reply.get("error")))
        return reply

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        return float("nan")

    def close(self):
        try:
            self.send("quit")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Tracing: spans kept in memory, written out at exit


class Tracer:
    def __init__(self):
        self.spans = []
        self.t0 = time.perf_counter()

    def add(self, name, start, end, parent=None, dur=None, **attrs):
        """Records a span and returns its id. A span with no start carries
        only a duration (a unit's host time); one with no end stays open
        until `close`."""
        if start is not None and end is not None:
            dur = end - start
        self.spans.append({"id": len(self.spans), "parent": parent, "name": name,
                           "start": None if start is None else start - self.t0,
                           "end": None if end is None else end - self.t0,
                           "dur": dur, **attrs})
        return len(self.spans) - 1

    def close(self, sid, end):
        span = self.spans[sid]
        span["end"] = end - self.t0
        span["dur"] = span["end"] - span["start"]

    def call(self, helper, cmd, name, parent=None, **attrs):
        t0 = time.perf_counter()
        reply = helper.call(cmd)
        t1 = time.perf_counter()
        return reply, t1 - t0, self.add(name, t0, t1, parent, **attrs)

    def self_times(self):
        """Per span name: total duration and self time (duration minus the
        part of the interval its timed children cover)."""
        kids = {}
        for s in self.spans:
            if s["parent"] is not None and s["start"] is not None:
                kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, last = 0.0, None
            for a, b in sorted(kids.get(s["id"], [])):
                if last is None or a > last:
                    covered += b - a
                    last = b
                elif b > last:
                    covered += b - last
                    last = b
            tot = out.setdefault(s["name"], [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += s["dur"]
            tot[2] += s["dur"] - covered
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# Discovery workloads


class CellRun:
    """Everything measured while running a list of discovery cells."""

    def __init__(self):
        self.latency = {}   # cell index -> [seconds per pass]
        self.passes = []    # wall seconds per pass
        self.correct = 0
        self.wrong = 0
        self.notes = []
        self.digests = {}
        self.units = {}     # label -> [host ns, kernels]
        self.exec_s = []    # per executed cell: (execute wall, [unit ns])
        self.rows = {}      # waterfall row -> seconds


def run_cells(helper, n, passes, tally, run=None, tracer=None, parent=None):
    """Runs cells 0..n-1 `passes` times. Untraced, one `run` command per
    cell; traced, one command per layer with a span around each."""
    run = run or CellRun()
    for _ in range(passes):
        t_pass = time.perf_counter()
        for i in range(n):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    reply = helper.call("run %d" % i)
                    units = reply["units"]
                else:
                    cell = tracer.add("cell", t0, None, parent, cell=i)
                    r_ex, d_ex, ex = tracer.call(helper, "execute %d" % i, "execute", cell)
                    units = r_ex["units"]
                    for label, ns, kernels in units:
                        tracer.add("unit." + label, None, None, ex, dur=ns / 1e9,
                                   kernels=kernels)
                    r_se, d_se, _ = tracer.call(helper, "serialize %d" % i, "serialize", cell)
                    reply, d_va, _ = tracer.call(helper, "validate %d" % i, "validate", cell)
                    reply["digest"] = r_se["digest"]
                    run.exec_s.append((d_ex, [u[1] for u in units]))
                    for row, d in (("execute", d_ex), ("serialize", d_se), ("validate", d_va)):
                        run.rows[row] = run.rows.get(row, 0.0) + d
            except HelperError as e:
                tally.op(False, "cell %d: %s" % (i, e))
                if tracer is not None:
                    tracer.close(cell, time.perf_counter())
                    tracer.spans[cell]["failed"] = True
                continue
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(cell, t1)
            run.latency.setdefault(i, []).append(t1 - t0)
            first_pass = i not in run.digests
            first = run.digests.setdefault(i, reply["digest"])
            if not tally.op(first == reply["digest"],
                            "cell %d: report bytes differ between passes" % i):
                continue
            if first_pass:
                run.correct += reply["checked"] - reply["wrong"]
                run.wrong += reply["wrong"]
                if reply["wrong"] and len(run.notes) < 20:
                    run.notes.append("cell %d: %s" % (i, reply["note"]))
            for label, ns, kernels in units:
                acc = run.units.setdefault(label, [0, 0])
                acc[0] += ns
                acc[1] += kernels
        run.passes.append(time.perf_counter() - t_pass)
    return run


def cell_setup(helper, workload, seed, reps=SETUP_REPS):
    """Chooses the workload's cells, then resolves and plans every one of
    them `reps` times; returns (cells, seconds per set-up, one per rep)."""
    n = helper.call("cells %s %d" % (workload, seed))["cells"]
    batch = SETUP_BATCH.get(workload, 1)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        helper.call("setup %d" % batch)
        times.append((time.perf_counter() - t0) / batch)
    return n, times


def traced_cell_setup(helper, tracer, workload, seed):
    """Traced set-up: one resolve and one plan command per cell."""
    t0 = time.perf_counter()
    n = helper.call("cells %s %d" % (workload, seed))["cells"]
    top = tracer.add("setup", t0, None, None, workload=workload)
    for i in range(n):
        tracer.call(helper, "resolve %d" % i, "resolve", top, cell=i)
        tracer.call(helper, "plan %d" % i, "plan", top, cell=i)
    tracer.close(top, time.perf_counter())
    return n


def discovery_metrics(run, setup_times, rss, tally):
    # One latency sample per cell (its median over passes); a single-cell
    # workload keeps one sample per pass.
    lat = [statistics.median(v) for _, v in sorted(run.latency.items())]
    if len(lat) == 1:
        lat = next(iter(run.latency.values()))
    tail_v, tail_label = tail(lat)
    checked = run.correct + run.wrong
    return {
        "setup_s": median(setup_times),
        "wall_s": median(run.passes),
        "p50_ms": median(lat) * 1e3,
        "tail_ms": tail_v * 1e3,
        "peak_rss_mb": rss,
        "correct_attrs": run.correct,
        "right_share": run.correct / max(1, checked),
        "ok_rate": tally.ok_rate(),
    }, {"tail": "%s of %d samples" % (tail_label, len(lat)),
        "wrong_attrs": run.wrong, "cells": len(run.latency), "passes": len(run.passes),
        "wrong": run.notes}


def run_discovery(exe, workload, seed, seconds, tally):
    per_pass = L2_DISCOVERY_S if workload == "l2-search" else CELLS_PASS_S
    passes = max(1, round(seconds / per_pass))
    helper = Helper(exe)
    try:
        n, setup_times = cell_setup(helper, workload, seed)
        run = run_cells(helper, n, 1, tally)
        # Peak memory of one pass in a fresh process, as one CLI run has.
        rss = helper.peak_rss_mb()
        run_cells(helper, n, passes - 1, tally, run)
    finally:
        helper.close()
    metrics, extra = discovery_metrics(run, setup_times, rss, tally)
    return metrics, extra, run


# ---------------------------------------------------------------------------
# Serve workload


def serve_schedule(lines, hot_cells, seed, seconds):
    """(due offset s, mix index) for the measured stream. The multiset of
    requests is fixed by `seconds`; the seed orders and times it:

    * hot requests: each hot cell its Zipf quota (by rank in `hot_cells`), arriving as a Poisson
      process (uniform times given the count);
    * the cold sweep: whole cycles through the other cells in a
      seed-shuffled order, paced at SWEEP_RATE_HZ with jitter, so every
      sweep request misses and no two sweep misses queue behind each
      other;
    * a TWIN_SHARE of each sweep cell's requests get a twin that arrives
      while the original is computing (a coalesced wait)."""
    rng = random.Random(seed)
    sweep = [i for i in range(len(lines)) if i not in hot_cells]
    rng.shuffle(sweep)
    cycles = max(1, round(seconds * SWEEP_RATE_HZ / len(sweep)))
    n_sweep = len(sweep) * cycles
    period = seconds / n_sweep
    twins = {c * len(sweep) + j for j in range(len(sweep))
             for c in rng.sample(range(cycles), math.ceil(TWIN_SHARE * cycles))}
    events = []
    for k in range(n_sweep):
        t = (k + 0.5 + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)) * period
        events.append((t, sweep[k % len(sweep)]))
        if k in twins:
            events.append((t + rng.expovariate(1.0 / TWIN_GAP_S), sweep[k % len(sweep)]))
    weights = [1.0 / (r + 1) for r in range(len(hot_cells))]
    n_hot = round(HOT_RATE_HZ * seconds)
    hot = [c for c, w in zip(hot_cells, weights) for _ in range(round(n_hot * w / sum(weights)))]
    rng.shuffle(hot)
    events += zip(sorted(rng.uniform(0, seconds) for _ in hot), hot)
    events.sort()
    return events


def with_id(line, rid):
    return '{"id":%d,%s' % (rid, line[1:])


def drive(helper, lines, schedule, first_id):
    """Open loop: sends each request at its due time without waiting for
    answers, reads answers as they come. Returns per-request records."""
    # select(2) takes a microsecond timeout; epoll rounds up to milliseconds.
    sel = selectors.SelectSelector()
    sel.register(helper.rfd, selectors.EVENT_READ)
    recs = {}
    t_start = time.perf_counter() + 0.01
    i, got = 0, 0
    while got < len(schedule):
        now = time.perf_counter()
        if i < len(schedule):
            due = t_start + schedule[i][0]
            if now >= due - SPIN_S:
                while time.perf_counter() < due:
                    pass
                rid = first_id + i
                helper.send(with_id(lines[schedule[i][1]], rid))
                recs[rid] = {"cell": schedule[i][1], "due": due,
                             "sent": time.perf_counter()}
                i += 1
                continue
            timeout = due - SPIN_S - now
        else:
            timeout = 5.0
        if not sel.select(timeout):
            if i >= len(schedule):
                raise HelperError("serve engine stopped answering")
            continue
        chunk = os.read(helper.rfd, 1 << 16)
        t_recv = time.perf_counter()
        if not chunk:
            raise HelperError("helper exited")
        helper.buf += chunk
        for resp in helper.buffered():
            rec = recs.get(resp.get("id"))
            if rec is None or "recv" in rec:
                continue
            rec.update(resp)
            rec["recv"] = t_recv
            got += 1
    sel.close()
    return recs, t_start


def end_engine(helper):
    """Ends the serve session; returns the engine's counters."""
    helper.send("end")
    stats = helper.line()
    if not stats.get("ok"):
        raise HelperError("serve: %s" % stats.get("error"))
    return stats


def serve_setup(helper, lines, hot, reps, tally):
    """Spawns a serve engine and warms its cache with one request per hot
    cell, `reps` times (ending each engine but the last, which stays up
    for the stream); returns the seconds of each set-up."""
    times = []
    for rep in range(reps):
        if rep:
            end_engine(helper)
        t0 = time.perf_counter()
        helper.send("serve")
        if not helper.line().get("ready"):
            raise HelperError("serve engine did not start")
        recs, _ = drive(helper, lines, [(0.0, c) for c in hot], 1)
        times.append(time.perf_counter() - t0)
        for rid, r in recs.items():
            tally.op(r.get("ok", False), "warm-up request %d: %s" % (rid, r.get("code")))
    return times


def serve_session(helper, lines, schedule, first_id, tally, tracer=None):
    """Drives the measured stream into the running engine, then ends it;
    returns the stream's records, wall and the engine's counters."""
    recs, t_start = drive(helper, lines, schedule, first_id)
    stats = end_engine(helper)
    wall = max(r["recv"] for r in recs.values()) - t_start
    for rid, r in recs.items():
        tally.op(r.get("ok", False), "request %d: %s" % (rid, r.get("code", "no answer")))
        if tracer is not None:
            top = tracer.add("request", r["due"], r["recv"], None, cell=r["cell"],
                             cached=r.get("cached"), coalesced=r.get("coalesced"))
            if "latency_ns" in r:
                # The engine's clock starts when it reads the line, about
                # when it was sent.
                tracer.add("engine", r["sent"], r["sent"] + r["latency_ns"] / 1e9, top)
    return recs, wall, stats


def verify_served(helper, lines, recs, tally, tracer=None):
    """Outside the timed window: recomputes every served cell cold,
    compares bytes, validates. Returns (solo seconds per cell, correct
    attributes served, wrong attributes served)."""
    by_cell = {}
    for r in recs.values():
        if r.get("ok") and "digest" in r:
            by_cell.setdefault(r["cell"], []).append(r)
    solo, correct, wrong = {}, 0, 0
    for cell, rs in sorted(by_cell.items()):
        digests = sorted({r["digest"] for r in rs})
        try:
            t0 = time.perf_counter()
            reply = helper.call("verify %s %s" % (",".join(digests), lines[cell]))
            solo[cell] = time.perf_counter() - t0
            if tracer is not None:
                tracer.add("verify", t0, t0 + solo[cell], None, cell=cell)
        except HelperError as e:
            tally.op(False, "verify cell %d: %s" % (cell, e))
            continue
        tally.op(True)
        differ = set(reply["differ"])
        for r in rs:
            if r["digest"] in differ:
                tally.fail("request %d: served bytes differ from a cold run" % r["id"])
        correct += (reply["checked"] - reply["wrong"]) * len(rs)
        wrong += reply["wrong"] * len(rs)
    return solo, correct, wrong


def serve_numbers(recs, solo):
    """Latencies in seconds. A request is timed from its due time to the
    engine's answer: the generator's lateness plus `Response::latency_ns`
    (the delivery back over the pipe is the harness's, and is reported
    apart as `wire`)."""
    answered = [r for r in recs.values() if r.get("ok")]
    to_answer = lambda r: r["sent"] - r["due"] + r["latency_ns"] / 1e9
    hits = [r for r in answered if r["cached"]]
    misses = [r for r in answered if not r["cached"] and not r["coalesced"]]
    return {
        "miss_busy": sum(r["latency_ns"] for r in misses) / 1e9,
        "hits": [to_answer(r) for r in hits],
        "miss_lat": [to_answer(r) for r in misses],
        "waits": [to_answer(r) - solo[r["cell"]] for r in misses if r["cell"] in solo],
        "late": [r["sent"] - r["due"] for r in recs.values()],
        "engine_hit": [r["latency_ns"] / 1e9 for r in hits],
        "wire_hits": [r["recv"] - r["due"] for r in hits],
        "misses": misses,
    }


def run_serve(exe, seed, seconds, tally, tracer=None, setup_reps=SERVE_SETUP_REPS):
    helper = Helper(exe)
    try:
        mix = helper.call("mix")
        lines, hot = mix["lines"], mix["hot"]
        schedule = serve_schedule(lines, hot, seed, seconds)
        setup_times = serve_setup(helper, lines, hot, setup_reps, tally)
        recs, wall, stats = serve_session(helper, lines, schedule, 1 + len(hot), tally, tracer)
        rss = helper.peak_rss_mb()
        solo, correct, wrong = verify_served(helper, lines, recs, tally, tracer)
    finally:
        helper.close()
    nums = serve_numbers(recs, solo)
    hit_tail, hit_label = tail(nums["hits"])
    miss_tail, miss_label = tail(nums["miss_lat"])
    metrics = {
        "setup_s": median(setup_times),
        "wall_s": nums["miss_busy"],
        "p50_ms": median(nums["hits"]) * 1e3,
        "tail_ms": miss_tail * 1e3,
        "peak_rss_mb": rss,
        "correct_attrs": correct,
        "right_share": correct / max(1, correct + wrong),
        "ok_rate": tally.ok_rate(),
    }
    extra = {
        "hit_p50_us": median(nums["hits"]) * 1e6,
        "hit_tail_us": "%.1f (%s of %d hits)" % (hit_tail * 1e6, hit_label, len(nums["hits"])),
        "miss_p50_ms": median(nums["miss_lat"]) * 1e3,
        "miss_tail_ms": "%.2f (%s of %d misses)" % (miss_tail * 1e3, miss_label,
                                                    len(nums["miss_lat"])),
        "late_p99_ms": percentile(nums["late"], 990) * 1e3,
        "hit_p50_wire_us": median(nums["wire_hits"]) * 1e6,
        "stream_wall_s": wall,
        "wrong_attrs": wrong,
        "requests": len(recs),
        "stats": stats,
    }
    return metrics, extra, (recs, solo, stats, nums, wall)


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics

# probe -> (repetitions per timed command, per-layer metric, unit scale)
PROBES = (
    ("noise", 2_000_000, "sim.noise.draw_ns", 1e9),
    ("noise_hostile", 2_000_000, "sim.noise.draw_hostile_ns", 1e9),
    ("fa_thrash", 3_276_800, "sim.cache.fa_thrash_ns", 1e9),
    ("fa_fit", 8_000_000, "sim.cache.fa_fit_ns", 1e9),
    ("chase", 1, "sim.gpu.chase_ns_per_load", 1e9),
    ("chase_silent", 1, "sim.gpu.chase_silent_ns_per_load", 1e9),
    ("init", 4, "sim.gpu.init_ns_per_elem", 1e9),
    ("ks", 4000, "stats.ks_us", 1e6),
    ("reduction", 3000, "stats.reduction_us", 1e6),
    ("resolve", 3000, "core.job.resolve_us", 1e6),
    ("plan", 3000, "core.suite.plan_us", 1e6),
    ("serialize", 400, "core.report.serialize_us", 1e6),
    ("parse", 30000, "core.serve.parse_us", 1e6),
    ("cache_get", 2_000_000, "core.serve.cache_get_ns", 1e9),
)
PROBE_REPS = 3


def probe_battery(exe, tally, tracer):
    """Each layer probe: prepared untimed, then timed PROBE_REPS times;
    the median per-operation cost."""
    out = {}
    helper = Helper(exe)
    try:
        for name, n, metric, scale in PROBES:
            try:
                helper.call("prep %s" % name)
                costs = []
                for _ in range(PROBE_REPS):
                    reply, dt, _ = tracer.call(helper, "probe %s %d" % (name, n), "probe." + name)
                    costs.append(dt / reply["ops"])
                tally.op(True)
                out[metric] = median(costs) * scale
            except HelperError as e:
                tally.op(False, "probe %s: %s" % (name, e))
                out[metric] = float("nan")
    finally:
        helper.close()
    return out


def suite_layer_metrics(work, reference):
    """Unit ms/kernels, summed over the workload's discovery cells for the
    units it runs and over the reference cells for the rest; critical-path
    and busy shares over the workload's cells (the reference cells' when
    the workload has none)."""
    out = {}
    for label in UNITS:
        src = work if work is not None and label in work.units else reference
        ns, kernels = src.units.get(label, [0, 0]) if src is not None else [0, 0]
        out["core.suite.unit.%s.ms" % label] = ns / 1e6
        out["core.suite.unit.%s.kernels" % label] = kernels
    src = work if work is not None and work.exec_s else reference
    longest = sum(max(u) for _, u in src.exec_s)
    units = sum(sum(u) for _, u in src.exec_s)
    execute = sum(d for d, _ in src.exec_s)
    out["core.suite.critical_path_share"] = longest / max(1, units)
    out["core.suite.busy_share"] = units / 1e9 / max(1e-9, execute * UNIT_JOBS)
    return out


def serve_layer_metrics(recs, solo, stats, nums):
    total = stats["hits"] + stats["misses"] + stats["coalesced"]
    return {
        "core.serve.service_hit_us": median(nums["engine_hit"]) * 1e6,
        "core.serve.queue_wait_ms": percentile(nums["waits"], 900) * 1e3,
        "core.serve.hit_ratio": stats["hits"] / max(1, total),
        "core.serve.coalesced": stats["coalesced"],
        "core.serve.evictions": stats["evictions"],
        "core.serve.rejected": stats["rejected"],
        "harness.late_p99_ms": percentile(nums["late"], 990) * 1e3,
    }


def print_waterfall(title, wall, rows):
    """Rows plus an `unexplained` row that sum to the measured wall."""
    print("waterfall %s: measured wall %.4f s" % (title, wall))
    rows = list(rows) + [("unexplained", wall - sum(secs for _, secs in rows))]
    for name, secs in rows:
        print("  %-28s %10.4f s  %5.1f%%" % (name, secs, 100 * secs / wall))


def traced_discovery(exe, workload, seed, seconds, tally, tracer):
    """Untraced reference pass, then the traced pass (split commands,
    spans); returns (traced CellRun, overhead share)."""
    helper = Helper(exe)
    try:
        n, _ = cell_setup(helper, workload, seed, reps=1)
        plain = run_cells(helper, n, 1, tally)
        first_span = len(tracer.spans)
        t0 = time.perf_counter()
        traced_cell_setup(helper, tracer, workload, seed)
        setup_wall = time.perf_counter() - t0
        setup_rows = {name: sum(sp["dur"] for sp in tracer.spans[first_span:]
                                if sp["name"] == name) for name in ("resolve", "plan")}
        top_t0 = time.perf_counter()
        top = tracer.add("timed", top_t0, None, None, workload=workload)
        run = run_cells(helper, n, 1, tally, tracer=tracer, parent=top)
        tracer.close(top, time.perf_counter())
    finally:
        helper.close()
    print_waterfall("%s set-up (traced)" % workload, setup_wall, setup_rows.items())
    wall = run.passes[0]
    print_waterfall("%s timed pass (traced)" % workload, wall,
                    [(k, run.rows.get(k, 0.0)) for k in ("execute", "serialize", "validate")])
    units = sorted(run.units.items(), key=lambda kv: -kv[1][0])
    print("  execute, by unit (host busy; units run %d-wide, so they overlap):" % UNIT_JOBS)
    for label, (ns, kernels) in units[:12]:
        print("    %-26s %10.3f s  %7d kernels" % (label, ns / 1e9, kernels))
    overhead = wall / plain.passes[0] - 1
    print("tracing overhead %s: traced pass %.3f s vs untraced %.3f s (%+.1f%%)"
          % (workload, wall, plain.passes[0], 100 * overhead))
    return run, overhead


def traced_run(exe, workload, seed, seconds, tally):
    tracer = Tracer()
    metrics = {}
    work = reference = None
    serve = None
    overhead = 0.0
    if workload == "serve-mix":
        half = seconds / 2
        _, plain, _ = run_serve(exe, seed, half, tally, setup_reps=1)
        _, extra, serve = run_serve(exe, seed, half, tally, tracer, setup_reps=1)
        overhead = extra["hit_p50_us"] / plain["hit_p50_us"] - 1
        print("tracing overhead serve-mix: traced hit p50 %.1f us vs untraced %.1f us (%+.1f%%)"
              % (extra["hit_p50_us"], plain["hit_p50_us"], 100 * overhead))
    else:
        work, overhead = traced_discovery(exe, workload, seed, seconds, tally, tracer)
    if workload != "small-cells":
        reference, _ = traced_discovery(exe, "reference", seed, seconds, tally, tracer)
    if serve is None:
        _, _, serve = run_serve(exe, seed, 4.0, tally, tracer, setup_reps=1)
    recs, solo, stats, nums, wall = serve
    if workload == "serve-mix":
        busy = sum(solo.get(r["cell"], 0.0) for r in nums["misses"])
        print_waterfall("serve-mix stream (traced)", wall,
                        [("worker busy (solo compute)", busy),
                         ("hit service (engine)", sum(nums["engine_hit"]))])
    metrics.update(probe_battery(exe, tally, tracer))
    metrics.update(suite_layer_metrics(work, reference))
    metrics.update(serve_layer_metrics(recs, solo, stats, nums))
    metrics["harness.trace_overhead_share"] = overhead
    print("self time by span (s): %-24s %7s %10s %10s" % ("name", "count", "total", "self"))
    for name, (count, total, own) in sorted(tracer.self_times().items(),
                                            key=lambda kv: -kv[1][1]):
        print("  %-44s %7d %10.4f %10.4f" % (name, count, total, own))
    path = os.path.join(target_dir(), "perfbench", "trace-%s-seed%d.jsonl" % (workload, seed))
    tracer.write(path)
    print("spans: %s" % path)
    return metrics


# ---------------------------------------------------------------------------


def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    exe = build()
    tally = Tally()
    try:
        return report(args, exe, tally)
    except HelperError as e:
        print("failure: %s (no result)" % e)
        return 1


def report(args, exe, tally):
    if args.trace:
        layer = traced_run(exe, args.workload, args.seed, args.seconds, tally)
        names = per_layer_names()
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in names}
    else:
        if args.workload == "serve-mix":
            values, extra, _ = run_serve(exe, args.seed, args.seconds, tally)
        else:
            values, extra, _ = run_discovery(exe, args.workload, args.seed,
                                             args.seconds, tally)
        for name, unit in END_TO_END:
            print("%-14s %14.6g %s" % (name, values[name], unit))
        for k, v in extra.items():
            for line in (v if isinstance(v, list) else [v]):
                print("%-14s %s" % (k, line))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    for k in bad:
        tally.notes.append("%s was not measured" % k)
        metrics[k]["value"] = 0.0
    for note in tally.notes:
        print("failure: %s" % note)
    print(json.dumps({"correct": tally.failed == 0 and not bad,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
