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
temporary directory, which is kept and printed.

The record is then built and written by ``tools/bench_record.py``'s own
functions, into the root of the checkout this script sits in.  Its parent
side names the parent's commit: ``git get-tar-commit-id`` reads it from a
tarball, and ``git -C`` from a tree that has ``.git``.  The commit of any
other parent tree is recorded as ``"unknown"``.

Before each pair, a fresh interpreter times a fixed pure-Python loop that
runs no code of either tree.  The record keeps its seconds per pair, as
``host_probe_s`` beside each workload's ``seeds``, so a pair whose two
sides both ran slow on a slow host can be told from a slower change.
"""

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_record.py"))
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

import compare  # noqa: E402  (perfbench/, put on the path by bench_record)
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
        record = bench_record.build_record(out_dirs["parent"], out_dirs["change"])
        record["parent"] = parent
        for workload, entry in record["traced" if args.trace else "workloads"].items():
            entry["host_probe_s"] = [probes[workload][seed] for seed in entry["seeds"]]
        path = bench_record.write_record(record, bench_record.ROOT)
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
