#!/usr/bin/env python3
"""Write a committed performance record from interleaved benchmark runs.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR [--out DIR]

PARENT_DIR and CHANGE_DIR each hold the result files that
``perfbench/run.py`` wrote for one side of interleaved parent/change runs
(as in ``perfbench/results/``: one JSON file per workload, seed and trace
mode; span files are skipped).  Nothing is re-timed: the record is built
from those files alone.  It is written as ``BENCH_<short-sha>.json`` in
``--out`` (default: the repository root), named after the change side's
commit, with ``-dirty`` appended when the change ran on an uncommitted
tree on top of that commit.

The record holds both sides' git sha and dirty flag, the environment
block, and per workload the seeds both sides ran and, for every metric,
each side's median and quartiles, the change/parent ratio of each
seed-matched pair and the median of those ratios (pairs whose parent
value is 0 have no ratio and are left out of it), how many pairs the
change won (ties count for neither), and the operations each side's runs
failed.  Untraced runs
(``--trace 0``) give the end-to-end metrics under ``workloads``; traced
runs give the per-layer metrics under ``traced``.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import compare  # noqa: E402
import spec  # noqa: E402


def load_side(directory):
    """``(git, env, {(section, workload): {seed: result}})`` of one side's result files."""
    runs, envs = {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        key = ("traced" if result["trace"] else "workloads", result["workload"])
        if result["seed"] in runs.setdefault(key, {}):
            raise ValueError("%s: a second %s run of seed %d" % (path, key[1], result["seed"]))
        runs[key][result["seed"]] = result
        envs.add(json.dumps({k: v for k, v in result["env"].items() if k != "seed"},
                            sort_keys=True))
    if not runs:
        raise ValueError("no result files in %s" % directory)
    if len(envs) > 1:
        raise ValueError("the results in %s come from more than one commit or environment"
                         % directory)
    env = json.loads(envs.pop())
    git = {"git_sha": env.pop("git_sha"), "git_dirty": env.pop("git_dirty")}
    return git, env, runs


def _side_summary(values):
    med, q1, q3 = compare.summary(values)
    return {"median": med, "q1": q1, "q3": q3}


def compare_runs(parent, change):
    """Seeds, failed operations and per-metric summaries of one workload's runs."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        raise ValueError("no seed was run on both sides")
    parent = [parent[s] for s in seeds]
    change = [change[s] for s in seeds]
    metrics = {}
    for name in sorted(set(parent[0]["metrics"]) & set(change[0]["metrics"])):
        metric = spec.BY_NAME.get(name)
        if metric is None:
            continue
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)]
        ratios = [c / p if p else None for p, c in pairs]
        defined = [r for r in ratios if r is not None]
        metrics[name] = {
            "unit": metric.unit,
            "better": metric.better,
            "parent": _side_summary([p for p, _ in pairs]),
            "change": _side_summary([c for _, c in pairs]),
            "ratios": ratios,
            "median_ratio": statistics.median(defined) if defined else None,
            "wins": sum(1 for p, c in pairs if (c < p if metric.better == "lower" else c > p)),
        }
    return {
        "seeds": seeds,
        "failed": {"parent": sum(r["failed"] for r in parent),
                   "change": sum(r["failed"] for r in change)},
        "metrics": metrics,
    }


def build_record(parent_dir, change_dir):
    parent_git, parent_env, parent_runs = load_side(parent_dir)
    change_git, change_env, change_runs = load_side(change_dir)
    record = {"parent": parent_git, "change": change_git, "env": change_env,
              "workloads": {}, "traced": {}}
    if parent_env != change_env:
        record["parent_env"] = parent_env
    for (section, workload), runs in sorted(change_runs.items()):
        if (section, workload) in parent_runs:
            record[section][workload] = compare_runs(parent_runs[(section, workload)], runs)
    if not record["workloads"] and not record["traced"]:
        raise ValueError("the two sides share no workload")
    return record


def record_name(record):
    change = record["change"]
    if not change.get("git_sha"):
        raise ValueError("the change runs record no git sha")
    return "BENCH_%s%s.json" % (change["git_sha"][:7], "-dirty" if change.get("git_dirty") else "")


def write_record(record, directory):
    """Write ``record`` into ``directory`` under :func:`record_name`; returns its path."""
    path = os.path.join(directory, record_name(record))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--out", default=ROOT, help="directory to write the record to")
    args = p.parse_args(argv)
    try:
        path = write_record(build_record(args.parent_dir, args.change_dir), args.out)
    except (OSError, KeyError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    print("record written to %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
