#!/usr/bin/env python3
"""Time interleaved parent/change benchmark pairs and write their record.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE [--workloads a,b]
                                 [--seeds 1-10] [--seconds S] [--trace 0|1]

CHANGE_TREE is a checkout of this repository.  PARENT_TREE is either a
directory (a checkout, or a ``git archive`` of the parent unpacked) or a
``git archive`` tarball, which is unpacked first.  For each workload and
seed, ``perfbench/run.py`` runs once from each tree's own root; the side
that runs first alternates by seed, the parent first on the first seed.
Each side's result files go into its own new directory under the system's
temporary directory, which is kept and printed.  Before each pair, a fresh
interpreter times a fixed pure-Python loop that runs no code of either
tree, so that host drift can be told from a slower change.

The record is written as ``BENCH_<short-sha>.json`` into the root of the
checkout this script sits in, named after the change side's commit, with
``-dirty`` appended when the change ran on an uncommitted tree.  It holds
both sides' commit and dirty flag and the change side's environment
(the parent's too, as ``parent_env``, where it differs).  The parent's
commit is read from a tarball with ``git get-tar-commit-id``, and from a
tree that has ``.git`` with ``git -C``; any other tree's is ``"unknown"``.
Untraced runs (``--trace 0``) give the end-to-end metrics under
``workloads``, traced runs the per-layer metrics under ``traced``.  Each
workload entry holds the seeds both sides ran, the loop's seconds per
pair as ``host_probe_s``, the operations each side's runs failed, and per
metric each side's median and quartiles, the change/parent ratio of each
seed-matched pair, the median of those ratios (a pair whose parent value
is 0 has no ratio and is left out of it), how many pairs the change won
(ties count for neither) and, for every metric the benchmark bounds,
``verdict``: the label ``perfbench/compare.py``'s ``judge`` gives it.

When the change's record already exists, each workload this run measured
replaces its entry in its section and every other entry stays, so an
untraced and a traced run of one change make one record.  A record of
another parent, change or environment is refused and left as it was.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import compare  # noqa: E402
import spec  # noqa: E402


def _git(args, stdin=None):
    """Standard output of one git command, or ``None`` if it fails."""
    try:
        done = subprocess.run(["git"] + args, stdin=stdin, capture_output=True, text=True,
                              timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def parent_commit(path):
    """``{"git_sha", "git_dirty"}`` of the parent side, read from the tarball or the tree."""
    if os.path.isfile(path):
        with open(path, "rb") as fh:
            sha = _git(["get-tar-commit-id"], stdin=fh)
        # an archive holds exactly its commit's files
        return {"git_sha": sha or "unknown", "git_dirty": False if sha else None}
    if os.path.exists(os.path.join(path, ".git")):
        sha = _git(["-C", path, "rev-parse", "HEAD"])
        status = _git(["-C", path, "status", "--porcelain", "--untracked-files=no"])
        return {"git_sha": sha or "unknown", "git_dirty": bool(status) if sha else None}
    return {"git_sha": "unknown", "git_dirty": None}


_PROBE = """\
import time
start = time.perf_counter()
x = 0
for i in range(1000000):
    x = (x + i * i) % 1000003
print(time.perf_counter() - start)
"""


def host_probe():
    """Seconds the fixed loop ``_PROBE`` takes in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout)


def run_one(tree, workload, seed, seconds, trace, result):
    """``perfbench/run.py`` once, from the root of ``tree``; returns its exit code."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--result", result]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return done.returncode


def run_pairs(trees, workloads, seeds, seconds, trace, out_dirs, run, probe):
    """Run every (workload, seed) pair on both sides, alternating which side goes first.

    ``trees`` and ``out_dirs`` map ``"parent"`` and ``"change"`` to a tree
    and to its side's result directory; ``run`` takes the arguments of
    :func:`run_one` and returns an exit code.  ``probe``, called before
    each pair, returns the seconds of :func:`host_probe`.  Returns
    ``{workload: {seed: probe seconds}}``.
    """
    probes = {}
    for workload in workloads:
        for i, seed in enumerate(seeds):
            probed = probes.setdefault(workload, {})[seed] = probe()
            print("host probe before %s seed %d: %.3f s" % (workload, seed, probed), flush=True)
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = os.path.join(out_dirs[side], "%s-seed%d-trace%d.json"
                                      % (workload, seed, trace))
                code = run(trees[side], workload, seed, seconds, trace, result)
                print("%s %s seed %d: exit %d" % (side, workload, seed, code), flush=True)
                if code != 0:
                    raise RuntimeError("%s run of %s seed %d exited %d"
                                       % (side, workload, seed, code))
    return probes


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
    failed = {"parent": sum(r["failed"] for r in parent),
              "change": sum(r["failed"] for r in change)}
    metrics = {}
    for name in sorted(set(parent[0]["metrics"]) & set(change[0]["metrics"])):
        metric = spec.BY_NAME.get(name)
        if metric is None:
            continue
        base = {s: r["metrics"][name]["value"] for s, r in zip(seeds, parent)}
        new = {s: r["metrics"][name]["value"] for s, r in zip(seeds, change)}
        pairs = [(base[s], new[s]) for s in seeds]
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
        if metric.bound is not None:
            metrics[name]["verdict"] = compare.judge(base, new, metric, failed["parent"],
                                                     failed["change"])
    return {"seeds": seeds, "failed": failed, "metrics": metrics}


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
    """Write ``record`` into ``directory`` under :func:`record_name`; returns its path.

    An existing record of the same parent, change and environments keeps
    every workload entry that ``record`` does not replace.
    """
    path = os.path.join(directory, record_name(record))
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            old = json.load(fh)
        for key in ("parent", "change", "env", "parent_env"):
            if old.get(key) != record.get(key):
                raise ValueError("%s holds another %s: %s" % (path, key, json.dumps(old.get(key))))
        for section in ("workloads", "traced"):
            record[section] = dict(old.get(section, {}), **record[section])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_tree", help="a directory or a git archive tarball")
    p.add_argument("change_tree")
    p.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    work = tempfile.mkdtemp(prefix="bench-pairs-")
    out_dirs = {side: os.path.join(work, side) for side in ("parent", "change")}
    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    try:
        parent = parent_commit(trees["parent"])
        if os.path.isfile(trees["parent"]):
            with tarfile.open(trees["parent"]) as tar:
                tar.extractall(os.path.join(work, "parent-tree"), filter="data")
            trees["parent"] = os.path.join(work, "parent-tree")
        for directory in out_dirs.values():
            os.makedirs(directory)
        probes = run_pairs(trees, args.workloads.split(","), compare.parse_seeds(args.seeds),
                           args.seconds, args.trace, out_dirs, run_one, host_probe)
        record = build_record(out_dirs["parent"], out_dirs["change"])
        record["parent"] = parent
        for workload, entry in record["traced" if args.trace else "workloads"].items():
            entry["host_probe_s"] = [probes[workload][seed] for seed in entry["seeds"]]
        path = write_record(record, ROOT)
    except (OSError, KeyError, ValueError, RuntimeError, subprocess.SubprocessError,
            tarfile.TarError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    finally:
        shutil.rmtree(os.path.join(work, "parent-tree"), ignore_errors=True)
    print("results in %s\nrecord written to %s" % (work, path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
