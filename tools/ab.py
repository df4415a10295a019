#!/usr/bin/env python3
"""Interleaved parent/change A/B runs of the end-to-end benchmark.

    python3 tools/ab.py --parent <rev> [--change <rev>] [--pairs 10] \
        [--seconds 10] [--workloads w1,w2] [--taskset <cpus>] \
        [--record BENCH_perfbench.json] [--note <text>]

Run from the root of a git checkout. Each revision is exported with
`git archive` into --workdir (default .ab_work/), where
perfbench/run.py, unchanged, builds and runs it. Pair i runs every
workload on both revisions, the parent first in even pairs and the
change first in odd ones, so a drift of the host over the session
lands on both sides; --taskset pins both to the same CPUs (perfbench
then uses min(4, CPUs) lanes). For every end-to-end metric the script
prints the median and IQR of each side, the pairs the change won and a
FLAG when the medians differ by more than max(parent IQR, 5%). With
--record it appends one entry, with its provenance, to a JSON list.
One unpinned run backs no claim: only such interleaved pairs do.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys


def log(message):
    print(message, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git"] + list(args), check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(rev, workdir):
    """A fresh tree of @p rev under @p workdir; its bench build is kept
    between invocations when the revision is the same."""
    commit = git("rev-parse", rev)
    path = os.path.join(workdir, commit[:12])
    if not os.path.isdir(path):
        os.makedirs(path + ".tmp", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path + ".tmp"],
                       stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit("git archive %s failed" % commit)
        os.rename(path + ".tmp", path)
    return commit, path


def run_once(tree, workload, seed, seconds, taskset):
    """One perfbench/run.py invocation; returns (metrics, meta, failed
    share)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if taskset:
        cmd = ["taskset", "-c", taskset] + cmd
    proc = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr[-4000:])
        raise SystemExit("perfbench failed in %s (%s)" % (tree, workload))
    meta = {}
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[5:])
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    attempted = max(1, int(result["attempted"]))
    return metrics, meta, int(result["failed"]) / attempted


def quartiles(values):
    """(median, IQR) of @p values."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def summarize(samples, pairs, directions):
    """Per workload and metric: each side's median and IQR, the pairs
    the change won and whether the move exceeds max(IQR, 5%)."""
    out = {}
    for workload, sides in samples.items():
        out[workload] = {}
        for name, lower_is_better in directions.items():
            parent = [s[name] for s in sides["parent"]]
            change = [s[name] for s in sides["change"]]
            p_med, p_iqr = quartiles(parent)
            c_med, c_iqr = quartiles(change)
            won = sum(1 for p, c in zip(parent, change)
                      if (c < p if lower_is_better else c > p))
            limit = max(p_iqr, 0.05 * abs(p_med))
            out[workload][name] = {
                "parent": {"median": p_med, "iqr": p_iqr, "runs": parent},
                "change": {"median": c_med, "iqr": c_iqr, "runs": change},
                "change_better_pairs": won,
                "pairs": pairs,
                "moved": abs(c_med - p_med) > limit,
            }
    return out


def report(summary, directions):
    for workload, metrics in summary.items():
        print(workload)
        for name, m in metrics.items():
            p, c = m["parent"], m["change"]
            delta = ((c["median"] - p["median"]) / p["median"] * 100.0
                     if p["median"] else 0.0)
            worse = (delta > 0) == directions[name]
            flag = ("FLAG " + ("worse" if worse else "better")
                    if m["moved"] else "")
            print("  %-12s parent %.4g (IQR %.3g)  change %.4g (IQR %.3g)"
                  "  %+.1f%%  change better in %d/%d  %s" % (
                      name, p["median"], p["iqr"], c["median"], c["iqr"],
                      delta, m["change_better_pairs"], m["pairs"], flag))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--taskset", default="",
                        help="CPU list both sides are pinned to")
    parser.add_argument("--workdir", default=".ab_work")
    parser.add_argument("--record", default="",
                        help="JSON list to append this run's entry to")
    parser.add_argument("--note", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    directions = {m["name"]: m["better"] == "lower"
                  for m in spec["end_to_end"]}

    trees = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        trees[side] = export(rev, os.path.abspath(args.workdir))
    samples = {w: {"parent": [], "change": []} for w in workloads}
    failed = {w: {"parent": [], "change": []} for w in workloads}
    meta = {}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        for workload in workloads:
            for side in order:
                metrics, meta, fail = run_once(
                    trees[side][1], workload, pair, args.seconds,
                    args.taskset)
                samples[workload][side].append(metrics)
                failed[workload][side].append(fail)
                log("pair %d %s %s %s" % (pair, workload, side, json.dumps(
                    metrics, sort_keys=True)))

    summary = summarize(samples, args.pairs, directions)
    report(summary, directions)

    if args.record:
        entry = {
            "date": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "parent": trees["parent"][0],
            "change": trees["change"][0],
            "note": args.note,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "order": "parent first in even pairs, change first in odd",
            "taskset": args.taskset or None,
            "host": {
                "nproc": meta.get("nproc"),
                "affinity_cpus": meta.get("affinity_cpus"),
                "cgroup_cpu_max": meta.get("cgroup_cpu_max"),
                "lanes": meta.get("lanes"),
                "compiler": meta.get("compiler"),
                "build_type": meta.get("build_type"),
                "flags": meta.get("flags"),
            },
            "workloads": summary,
            "max_failed_share": {w: {side: max(shares)
                                     for side, shares in sides.items()}
                                 for w, sides in failed.items()},
        }
        history = []
        if os.path.exists(args.record):
            with open(args.record) as f:
                history = json.load(f)
        history.append(entry)
        with open(args.record + ".tmp", "w") as f:
            json.dump(history, f, indent=1)
            f.write("\n")
        os.replace(args.record + ".tmp", args.record)
        log("appended an entry to " + args.record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
