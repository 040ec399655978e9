"""The environment record written into every result (ROADMAP aim 1)."""

import os
import platform
import subprocess

import numpy as np

from spec import BLAS_THREAD_VARS


def _git(root, *args):
    try:
        done = subprocess.run(["git", "-C", root] + list(args), capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {"name": None, "version": None}
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment(root, seed):
    """numpy/BLAS versions, BLAS thread env, CPUs, Python, git sha, seed."""
    # a checkout without .git may sit inside another repository: report no sha
    sha = _git(root, "rev-parse", "HEAD") if os.path.exists(os.path.join(root, ".git")) else None
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }
