#!/usr/bin/env python3
"""Record sets of benchmark results, measure their spread, and compare two sets.

    python3 perfbench/compare.py record DIR [--workloads a,b] [--seeds 1-10] [--seconds S]
    python3 perfbench/compare.py probe DIR [--seed N] [--seconds S]
    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py diff BASE_DIR NEW_DIR

``record`` runs ``run.py`` once per (workload, seed) and keeps each full
result as ``DIR/<workload>-seed<N>.json``.  ``probe`` is the BLAS-default
probe: ungated runs of ``pipeline_hcn_td`` and of ``gridsearch_jobs2``,
once with BLAS pinned to one thread (as the benchmark runs) into
``DIR/probe/pinned/`` and once with the BLAS thread environment untouched
into ``DIR/probe/default/``; ``diff DIR/probe/pinned DIR/probe/default``
then shows what the pin changes.  ``spread`` prints, per workload and
metric, the median, the quartiles and their distance as a share of the
median, and each workload's failed operations.  ``diff`` labels every
(workload, metric) pair failed, improved, unchanged, regressed or
unresolved:

* failed: the new side failed more operations on the workload than the
  base side, whatever its figures;
* improved: the new side wins at least 9 of 10 seed-matched pairs and the
  medians differ by more than the base side's quartile distance;
* unresolved: otherwise, when the base side's spread is wider than the
  metric's bound and not every new run reads better than every base run;
* regressed: the new median is worse than the base median by more than
  the bound;
* unchanged: everything else.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

import spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
PROBE_WORKLOADS = ("pipeline_hcn_td", "gridsearch_jobs2")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def run_one(workload, seed, seconds, result, blas=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--result", result]
    if blas is not None:
        cmd += ["--blas", blas]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    print("%s seed %d%s: exit %d %s" % (workload, seed, "" if blas is None else " blas=" + blas,
                                        done.returncode, last), flush=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return done.returncode


def load(directory):
    """The result files of a directory as two tables.

    ``{(workload, metric): {seed: value}}`` and ``{workload: failed}``, the
    operations that failed summed over seeds; a result that is not correct
    counts at least one.
    """
    table, failed = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        workload = result["workload"]
        for name, metric in result["metrics"].items():
            table.setdefault((workload, name), {})[result["seed"]] = metric["value"]
        bad = max(result["failed"], 0 if result["correct"] else 1)
        failed[workload] = failed.get(workload, 0) + bad
    return table, failed


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3


def _better(a, b, direction):
    return a < b if direction == "lower" else a > b


def judge(base, new, metric, base_failed=0, new_failed=0):
    """Label for one (workload, metric) pair; base/new map seed -> value.

    A workload whose new side failed more operations than its base is
    labelled failed on every metric: no gain counts there.
    """
    if new_failed > base_failed:
        return "failed"
    b_med, b_q1, b_q3 = summary(base.values())
    n_med, _, _ = summary(new.values())
    direction = metric.better
    bound = metric.bound if metric.bound is not None else 0.0
    pairs = [(base[s], new[s]) for s in base if s in new and base[s] != new[s]]
    wins = sum(1 for b, n in pairs if _better(n, b, direction))
    if (pairs and wins >= 0.9 * len(pairs) and _better(n_med, b_med, direction)
            and abs(n_med - b_med) > b_q3 - b_q1):
        return "improved"
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    if spread > bound:
        if all(_better(n, b, direction) for n in new.values() for b in base.values()):
            return "improved"
        return "unresolved"
    worse = (n_med - b_med) if direction == "lower" else (b_med - n_med)
    if b_med and worse / abs(b_med) > bound:
        return "regressed"
    return "unchanged"


def cmd_record(args):
    os.makedirs(args.dir, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            path = os.path.join(args.dir, "%s-seed%d.json" % (workload, seed))
            status |= run_one(workload, seed, args.seconds, path)
    return 1 if status else 0


def cmd_probe(args):
    status = 0
    for workload in PROBE_WORKLOADS:
        for blas in ("pinned", "default"):
            out = os.path.join(args.dir, "probe", blas)
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, "%s-seed%d.json" % (workload, args.seed))
            status |= run_one(workload, args.seed, args.seconds, path, blas=blas)
    return 1 if status else 0


def cmd_spread(args):
    print("%-18s %-20s %4s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"))
    table, failed = load(args.dir)
    for (workload, name), by_seed in sorted(table.items()):
        metric = spec.BY_NAME[name]
        med, q1, q3 = summary(by_seed.values())
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = "-" if metric.bound is None else "%.3f" % metric.bound
        print("%-18s %-20s %4d %12.6g %12.6g %12.6g %8.4f %6s" % (
            workload, name, len(by_seed), med, q1, q3, spread, bound))
    for workload in sorted(failed):
        print("%-18s failed operations: %d" % (workload, failed[workload]))
    return 0


def cmd_diff(args):
    (base, base_failed), (new, new_failed) = load(args.base), load(args.new)
    print("%-18s %-20s %12s %12s %9s  %s" % ("workload", "metric", "base", "new", "change", "label"))
    for key in sorted(set(base) & set(new)):
        workload, name = key
        metric = spec.BY_NAME[name]
        if metric.bound is None:
            continue
        b_med = summary(base[key].values())[0]
        n_med = summary(new[key].values())[0]
        change = (n_med - b_med) / abs(b_med) if b_med else 0.0
        print("%-18s %-20s %12.6g %12.6g %+8.1f%%  %s" % (
            workload, name, b_med, n_med, 100 * change,
            judge(base[key], new[key], metric, base_failed.get(workload, 0),
                  new_failed.get(workload, 0))))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("dir")
    rec.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    probe = sub.add_parser("probe")
    probe.add_argument("dir")
    probe.add_argument("--seed", type=int, default=20250809)
    probe.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    spread = sub.add_parser("spread")
    spread.add_argument("dir")
    diff = sub.add_parser("diff")
    diff.add_argument("base")
    diff.add_argument("new")
    args = p.parse_args(argv)
    handler = {"record": cmd_record, "probe": cmd_probe, "spread": cmd_spread,
               "diff": cmd_diff}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
