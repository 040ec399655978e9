#!/usr/bin/env python3
"""Print the seconds a fresh interpreter takes for ``run.py``'s imports.

    python3 perfbench/import_time.py

The imports are the ones ``run.py`` makes between its first line and the
workload's set-up: the benchmark's modules, numpy and the library from
``src/`` of this checkout.  ``run.py`` starts one after every round, so
that the import share of ``setup_s`` is a median, not one sample.
"""

import time

T_START = time.perf_counter()

import run  # noqa: E402

run.import_library()

import envinfo  # noqa: E402,F401
import workloads  # noqa: E402,F401

print(time.perf_counter() - T_START)
