#!/usr/bin/env python3
"""The lbsa repository benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload check-dac5 --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen and its known
answers):

  check-dac5    `lbsa check dac -n 5`: Algorithm 2 over all 32 input vectors
  explore-of41  `lbsa explore of:4:1`: one 415,544-state graph, no verdict
  serve-mix     `lbsa serve` driven by a closed-loop Serve_client caller
                (cold, hot and store-tier phases over a seed-drawn pool)

The benchmark builds `lbsa` and its own helper (perfbench/perfbench.ml) with
dune, runs the workload through the command users run, checks every answer
against its known value, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 a separate
traced run records spans around calls into the library and reports the
per-layer ones.  Spans are written to .perfbench_out/spans-<workload>.jsonl.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

LBSA = os.path.join("_build", "default", "bin", "lbsa_cli.exe")
HELPER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT = ".perfbench_out"
SOURCES = ["dune-project", "bin/lbsa_cli.ml", "lib", "perfbench/perfbench.ml",
           "perfbench/dune", "BENCHMARK.json"]
SETUP_RUNS = 21
MIN_REPS = 3
COMMAND_TIMEOUT_S = 150

DAC5_ANSWER = "OK (inputs=1,1,1,1,1, 3326 states)"
DAC5_STATES = 153_920
OF41_STATES = 415_544
OF41_EDGES = 1_637_706


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(cmd + ["build", "--root", ".", "./bin/lbsa_cli.exe",
                              "./perfbench/perfbench.exe"],
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       timeout=850)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed", 1)


def run_timed(argv):
    """Run one command; return (wall_s, exit code, stdout, peak RSS in MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    timer = threading.Timer(COMMAND_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, out.decode(errors="replace"), usage.ru_maxrss / 1024.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def setup_s(tally, argv, ok):
    """Median launch-to-exit time of the command cut at one state."""
    times = []
    for _ in range(SETUP_RUNS):
        wall, code, out, _ = run_timed(argv)
        tally.check(ok(code, out), "set-up run: exit %d" % code)
        times.append(wall)
    return statistics.median(times)


def kv(out):
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


# --- one-shot workloads -----------------------------------------------------

def dac5_ok(code, out):
    lines = out.strip().splitlines()
    return code == 0 and bool(lines) and lines[-1] == DAC5_ANSWER


def of41_ok(code, out):
    v = kv(out)
    return (code == 0 and v.get("states") == str(OF41_STATES)
            and v.get("edges") == str(OF41_EDGES) and v.get("outcome") == "done")


ONE_SHOT = {
    "check-dac5": dict(
        argv=[LBSA, "check", "dac", "-n", "5"], ok=dac5_ok, states=DAC5_STATES,
        setup_ok=lambda code, out: code == 2 and out.startswith("PARTIAL [truncated]")),
    "explore-of41": dict(
        argv=[LBSA, "explore", "of:4:1"], ok=of41_ok, states=OF41_STATES,
        setup_ok=lambda code, out: code == 2 and kv(out).get("outcome") == "truncated"),
}


def one_shot_untraced(name, seconds, tally):
    w = ONE_SHOT[name]
    setup = setup_s(tally, w["argv"] + ["--max-states", "1"], w["setup_ok"])
    walls, rss = [], []
    t0 = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - t0 < seconds:
        wall, code, out, peak = run_timed(w["argv"])
        tally.check(w["ok"](code, out), "%s: exit %d, unexpected answer" % (name, code))
        walls.append(wall)
        rss.append(peak)
    wall = statistics.median(walls)
    return {
        "setup_s": setup,
        "verdict_s": wall,
        "answer_p50_us": wall * 1e6,
        "states_per_s": w["states"] / wall,
        "peak_rss_mb": statistics.median(rss),
    }


def one_shot_traced(name, seconds, tally, spans):
    """One untraced command run for reference, then fresh-process traced
    in-library passes until the time is up.  Reports the pass with the
    median traced total, so its self times still add up to its total."""
    w = ONE_SHOT[name]
    wall, code, out, _ = run_timed(w["argv"])
    tally.check(w["ok"](code, out), "%s: exit %d, unexpected answer" % (name, code))
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(helper(tally, [name, "--spans", spans], seconds))
    passes.sort(key=lambda p: p["trace.total_s"])
    values = passes[(len(passes) - 1) // 2]
    values["trace.untraced_s"] = wall
    return values


# --- the OCaml helper -------------------------------------------------------

def helper(tally, args, seconds):
    """Run perfbench.exe in its own process group; kill the whole group
    (it spawns `lbsa serve` daemons) if it overruns or dies."""
    p = subprocess.Popen([HELPER] + args, stdout=subprocess.PIPE,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        out = b""
    finally:
        stop_group(p)
    lines = out.decode(errors="replace").strip().splitlines()
    if p.returncode != 0 or not lines:
        die("helper %s failed (exit %s)" % (args[0], p.returncode), 1)
    res = json.loads(lines[-1])
    tally.attempted += res["attempted"]
    tally.failed += res["failed"]
    tally.notes.extend(res["notes"])
    return res["values"]


def stop_group(p):
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    p.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(p.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def serve_mix(seed, seconds, trace, tally, work, spans):
    args = ["serve-mix", "--lbsa", LBSA, "--work", work, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    return helper(tally, args + (["--spans", spans] if trace else []), seconds)


# --- reporting ----------------------------------------------------------------

# The workload-specific metrics each workload reports in the human summary.
SUMMARY = {
    "check-dac5": [("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB")],
    "explore-of41": [("setup_s", "s"), ("states_per_s", "1/s"), ("peak_rss_mb", "MB")],
    "serve-mix": [("setup_s", "s"), ("peak_rss_mb", "MB"), ("hot_p50_us", "us"),
                  ("hot_p99_us", "us"), ("hot_qps", "1/s"), ("store_p50_us", "us"),
                  ("store_p90_us", "us"), ("cold_p50_ms", "ms"), ("cold_p90_ms", "ms")],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SUMMARY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    missing = [f for f in SOURCES if not os.path.exists(f)]
    if missing:
        die("run from the root of an lbsa checkout (missing: %s)" % ", ".join(missing))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()

    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s.jsonl" % a.workload)
    tally = Tally()
    if a.workload == "serve-mix":
        # The daemons' stores stay behind in .perfbench_out: deleting
        # thousands of just-written files (online discard) slows every file
        # commit for a while afterwards, which would skew the cold latencies
        # of the run that follows.
        work = os.path.join(OUT, "serve-%d-%d" % (a.seed, os.getpid()))
        os.makedirs(work)
        values = serve_mix(a.seed, a.seconds, a.trace, tally, work, spans)
    elif a.trace:
        values = one_shot_traced(a.workload, a.seconds, tally, spans)
    else:
        # check-dac5 and explore-of41 are exhaustive: the seed changes nothing.
        values = one_shot_untraced(a.workload, a.seconds, tally)
    for name, _ in SUMMARY["serve-mix"][2:]:
        if name in values:
            values["serve." + name] = values[name]
    values["failed_frac"] = tally.failed / max(1, tally.attempted)

    if a.trace:
        print("%s seed=%d traced: total %.6f s, untraced %.6f s (gap %+.6f s)" % (
            a.workload, a.seed, values["trace.total_s"], values["trace.untraced_s"],
            values["trace.total_s"] - values["trace.untraced_s"]))
        if a.workload == "check-dac5":
            parts = ["graph.build_s", "solvability.self_s", "solvability.sweep_overhead_s"]
            print("  %s = %.6f s of traced total %.6f s (explorer share %.1f%%)" % (
                " + ".join(parts), sum(values[p] for p in parts), values["trace.total_s"],
                100 * values["graph.build_s"] / values["trace.total_s"]))
        if a.workload == "serve-mix":
            t, d = values["client.transport_us_p50"], values["daemon.hot_us_p50"]
            print("  hot: transport p50 %.3f us + daemon p50 %.3f us = %.3f us vs client p50 "
                  "%.3f us (transport share %.1f%%)" % (
                      t, d, t + d, values["hot_p50_us"], 100 * t / values["hot_p50_us"]))
    else:
        for name, unit in SUMMARY[a.workload]:
            print("%s seed=%d %s = %.6g %s" % (a.workload, a.seed, name, values[name], unit))
    print("%s seed=%d failed_frac = %.6g (%d of %d)" % (
        a.workload, a.seed, values["failed_frac"], tally.failed, tally.attempted))
    for note in tally.notes:
        print("  failure: " + note)

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    if not a.trace:
        absent = [m["name"] for m in wanted if m["name"] not in values]
        if absent:
            die("workload produced no value for " + ", ".join(absent), 1)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
