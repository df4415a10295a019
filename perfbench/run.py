#!/usr/bin/env python3
"""MAPP end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. It builds perfbench/mapp_perfbench.cc
against the repository's libraries into .bench_build/, runs one
workload, prints what it measured and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics, writes the
spans to .bench_build/traces/<workload>-seed<n>.json (Chrome trace) and
prints a per-layer self-time table.

Workloads (see BENCHMARK.json for why each exists):
  cold_campaign  fresh processes each running the cold pipeline with the
                 artifact cache disabled, for --seconds.
  warm_restart   warm restarts from a private, filled artifact cache,
                 for --seconds.
  serve_raw      open-loop raw-feature requests through
                 serve::Server::handleLine at 2,000 req/s (and, in
                 traced runs, 16,000 req/s and a rate ladder).
  serve_member   the same with member-form requests, including a few
                 first-time bags and members outside the campaign.

Every workload reports every end-to-end metric: the cold pipeline is
also each workload's set-up (it fills its own cache with cold runs),
and a short run of warm restarts and raw-request serving gives the
other workloads' figures. The exit code is 0 only when every output
check passed; refused requests count in "failed" but are not wrong
outputs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("cold_campaign", "warm_restart", "serve_raw", "serve_member")

BUILD_DIR = ".bench_build"
PROGRAM = os.path.join(BUILD_DIR, "mapp_perfbench")
CHILD_TIMEOUT_S = 120


def metric_units(trace):
    """Metric name -> unit, in BENCHMARK.json order: the end-to-end
    metrics, or with --trace 1 the per-layer ones."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not run (not a failed output check)."""


def lanes():
    """min(4, nproc): all load comes from one process with these lanes."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("command failed: " + " ".join(cmd))


def build():
    """Configure (once) and build the benchmark program from source."""
    if not (os.path.isfile("CMakeLists.txt")
            and os.path.isfile(os.path.join("src", "CMakeLists.txt"))):
        raise BenchError("run from the root of a MAPP checkout: no "
                         "CMakeLists.txt or src/ here")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ".", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                   "-DCMAKE_PROJECT_INCLUDE=" + os.path.abspath(
                       "perfbench/mapp_perfbench.cmake")])
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "mapp_perfbench",
               "-j", str(lanes())])


def warm_up_cpus(seconds=1.0):
    """Busy-loop every lane before measuring. On the virtual machines
    this was tuned on, the first cold run after a few idle seconds took
    ~0.7 s longer than the next; a short spin removes that."""
    spin = ("import time\nend = time.perf_counter() + %g\n"
            "while time.perf_counter() < end:\n    pass\n" % seconds)
    procs = [subprocess.Popen([sys.executable, "-c", spin])
             for _ in range(lanes())]
    for proc in procs:
        proc.wait()


def child_env():
    """Hermetic environment: no user cache, fixed lanes, quiet logs."""
    env = dict(os.environ)
    env.pop("MAPP_CACHE_SALT", None)
    env["MAPP_CACHE_DIR"] = ""  # only --cache-dir selects a cache
    env["MAPP_THREADS"] = str(lanes())
    env["MAPP_LOG_LEVEL"] = "quiet"
    return env


def run_program(args):
    """Run mapp_perfbench; returns (result dict, seconds to "ready",
    wall seconds)."""
    cmd = [PROGRAM] + args + ["--lanes=%d" % lanes()]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env())
    # A hung child is killed, which ends the read loop below.
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if line.strip() == "ready" and ready is None:
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited with %s" % (" ".join(cmd),
                                                proc.returncode))
    return json.loads(lines[-1]), ready, wall


class Run:
    """One workload run: its processes, checks and raw measurements."""

    def __init__(self, workload, seed, seconds, trace, names):
        self.names = names
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.abspath(
            os.path.join(BUILD_DIR, "run-%d" % os.getpid()))
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.trace_files = []

    def account(self, result):
        self.attempted += int(result["attempted"])
        self.failed += int(result["failed"])
        self.wrong += int(result["wrong"])

    def cold(self, cache_dir, traced=False):
        args = ["cold", "--cache-dir=" + cache_dir]
        if traced:
            path = os.path.join(self.work, "cold.trace.json")
            args += ["--trace=1", "--trace-out=" + path]
            self.trace_files.append(("cold pipeline", path))
        result, ready, wall = run_program(args)
        self.account(result)
        result["ready_s"] = ready
        result["wall_s"] = wall
        return result

    def fills(self, count, traced_last=False):
        """Cold runs that each fill a fresh private cache; the last
        directory is kept for the session."""
        results = []
        for i in range(count):
            cache = os.path.join(self.work, "cache%d" % i)
            if i > 0:
                shutil.rmtree(os.path.join(self.work, "cache%d" % (i - 1)))
            os.makedirs(cache)
            results.append(self.cold(cache, traced_last and i == count - 1))
        expect = os.path.join(self.work, "expect.txt")
        with open(expect, "w") as f:
            f.write("\n".join(results[-1]["prediction_bits"]) + "\n")
        return results, cache, expect

    def session(self, cache, expect, mix, restart_s, low_s):
        args = ["session", "--cache-dir=" + cache, "--expect=" + expect,
                "--seed=%d" % self.seed, "--mix=" + mix,
                "--restart-seconds=%g" % restart_s,
                "--low-seconds=%g" % low_s]
        if self.trace:
            path = os.path.join(self.work, "session.trace.json")
            args += ["--trace=1", "--trace-out=" + path]
            self.trace_files.append(("warm session", path))
        result, _, _ = run_program(args)
        self.account(result)
        return result

    def execute(self):
        os.makedirs(self.work)
        try:
            values = self.measure()
            if self.trace:
                self_time_table(self.trace_files, os.path.join(
                    BUILD_DIR, "traces",
                    "%s-seed%d.json" % (self.workload, self.seed)))
            return values
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def measure(self):
        s = self.seconds
        serve = self.workload.startswith("serve_")
        if self.workload == "cold_campaign":
            # Fresh processes: vision::cachedTrace memoizes per process.
            # A traced run makes three untraced runs for the overhead.
            cold = []
            start = time.perf_counter()
            while (len(cold) < 3 if self.trace else
                   len(cold) < 5 or time.perf_counter() - start < s):
                cold.append(self.cold(""))
            traced_run = self.cold("", traced=True) if self.trace else None
            fill, cache, expect = self.fills(1)
            setup_s = median(r["ready_s"] for r in cold)
            rss = median(r["rss_mb"] for r in cold)
            campaign = cold
        else:
            fill, cache, expect = self.fills(3, traced_last=self.trace)
            traced_run = fill[-1] if self.trace else None
            campaign = fill
        restart_s = s if self.workload == "warm_restart" else 3.0
        # Per 2,000 req/s window (six of them).
        low_s = max(0.75, 0.15 * s) if serve else 0.75
        mix = "member" if self.workload == "serve_member" else "raw"
        session = self.session(cache, expect, mix, restart_s, low_s)
        if self.workload != "cold_campaign":
            setup_s = median(r["wall_s"] for r in fill) + session["bringup_s"]
            rss = session["rss_mb"]

        if "ladder" in session:
            log("ladder (rate:p99_ms:growth_ms): " + session["ladder"])
        if self.trace:
            layers = dict(session)
            for key in ("vision.profile_s", "vision.profile_max_s",
                        "predictor.member_s", "sim.corun_s", "sim.events",
                        "ml.fit_s", "ml.loocv_s"):
                layers[key] = traced_run[key]
            untraced = [r["campaign_s"] for r in campaign
                        if r is not traced_run]
            layers["bench.overhead_campaign_ms"] = 1e3 * (
                traced_run["campaign_s"] - median(untraced))
            return {name: layers.get(name, 0.0) for name in self.names}
        metrics = dict(session)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = rss
        metrics["campaign_s"] = median(r["campaign_s"] for r in campaign)
        log("campaign_s samples: " + " ".join(
            "%.3f" % r["campaign_s"] for r in campaign))
        return {name: metrics[name] for name in self.names}


def median(values):
    return statistics.median(list(values))


def self_time_table(trace_files, out_path):
    """Merge the runs' spans into one Chrome trace and print each
    span's total and self time (its duration minus its direct
    children's, per thread)."""
    events = []
    for pid, (label, path) in enumerate(trace_files, start=1):
        with open(path) as f:
            doc = json.load(f)
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        for e in doc["traceEvents"]:
            if e.get("ph") == "X":
                e["pid"] = pid
                events.append(e)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)

    totals = {}
    spans = [e for e in events if e.get("ph") == "X"]
    spans.sort(key=lambda e: (e["pid"], e["tid"], e["ts"], -e["dur"]))
    stack = []
    for e in spans:
        e["child"] = 0.0
        while stack and (stack[-1]["pid"], stack[-1]["tid"]) != (
                e["pid"], e["tid"]):
            stack.pop()
        while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
            stack.pop()
        if stack:
            stack[-1]["child"] += e["dur"]
        stack.append(e)
    for e in spans:
        row = totals.setdefault((e["pid"], e["name"]), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += e["dur"]
        row[2] += e["dur"] - e["child"]
    labels = {pid: label for pid, (label, _) in
              enumerate(trace_files, start=1)}
    print("%-14s %-26s %9s %12s %12s" % ("process", "span", "count",
                                         "total_ms", "self_ms"))
    for (pid, name), (count, total, own) in sorted(
            totals.items(), key=lambda kv: (kv[0][0], -kv[1][2])):
        print("%-14s %-26s %9d %12.3f %12.3f" % (
            labels[pid], name, count, total / 1e3, own / 1e3))
    print("spans written to " + out_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        units = metric_units(args.trace == 1)
        build()
        build_meta = provenance()
        warm_up_cpus()
        run = Run(args.workload, args.seed, args.seconds, args.trace == 1,
                  list(units))
        values = run.execute()
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: " + str(e))
        return 1
    bad = [name for name, value in values.items()
           if not isinstance(value, (int, float)) or value != value
           or value in (float("inf"), float("-inf"))]
    if bad:
        log("perfbench: no finite value for " + ", ".join(bad) +
            " (failed requests count as missing the latency limit)")
        return 1
    print("meta " + json.dumps(build_meta, sort_keys=True))
    for name, value in values.items():
        print("%-28s %16.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if run.wrong == 0 else 1


def provenance():
    """Where the numbers came from: commit, host, lanes, build."""
    def read(path):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return "unknown"

    cache = {}
    for line in read(os.path.join(BUILD_DIR, "CMakeCache.txt")).splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True).stdout.split()
        if os.path.samefile(top, "."):
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "unknown")
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run(
            [compiler, "--version"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
            check=True).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.CalledProcessError):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": read("/sys/fs/cgroup/cpu.max"),
        "lanes": lanes(),
        "compiler": compiler,
        "flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " + cache.get(
            "CMAKE_CXX_FLAGS_" + build_type.upper(), "")).strip(),
        "build_type": build_type,
    }


if __name__ == "__main__":
    sys.exit(main())
