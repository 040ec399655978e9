"""Names, units, directions and bounds of every benchmark metric.

The gated and per-layer metrics come from ``BENCHMARK.json`` at the root
of the checkout; this module adds the stage metrics that are reported
only where they apply.  It imports nothing heavy: ``run.py`` reads it
before numpy is imported, because the BLAS thread pin has to be in the
environment first.
"""

import json
import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Metric:
    __slots__ = ("name", "unit", "better", "bound")

    def __init__(self, name, unit, better, bound=None):
        self.name = name
        self.unit = unit
        self.better = better
        self.bound = bound


with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
# Runnable but not gated: ``compare.py probe`` runs it (see NOTES.md).
PROBE_ONLY = ("gridsearch_jobs2",)
RUN_SECONDS = BENCHMARK["run_seconds"]

# Every workload reports these; they are the benchmark's end-to-end gate.
GATED = tuple(Metric(**m) for m in BENCHMARK["end_to_end"])

# Reported only where they apply (see NOTES.md); compared by compare.py.
STAGE = (
    Metric("train_turns_per_s", "turns/s", "higher", 0.25),
    Metric("infer_turns_per_s", "turns/s", "higher", 0.25),
    Metric("prep_turns_per_s", "turns/s", "higher", 0.25),
    Metric("ood_f1", "ratio", "higher", 0.05),
    Metric("plain_acc", "ratio", "higher", 0.05),
    Metric("dev_acc", "ratio", "higher", 0.05),
)

END_TO_END = GATED + STAGE

# The stage throughput each workload reports as its gated ``turns_per_s``.
HEADLINE = {
    "pipeline_hcn_td": "train_turns_per_s",
    "train_recurrent": "train_turns_per_s",
    "ood_infer_long": "infer_turns_per_s",
    "gridsearch_jobs2": "train_turns_per_s",
}

LAYERS = ("toy", "corpus", "augment", "seeding", "turndrop", "models", "nn", "train",
          "evaluation", "cli")

PER_LAYER = tuple(Metric(**m) for m in BENCHMARK["per_layer"])

# Per-layer metrics of the probe-only grid search; 0 on every gated workload.
GRID_LAYER = (
    Metric("train.grid.cell_s", "s", "lower"),
    Metric("train.grid.parallel_eff", "ratio", "higher"),
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER + GRID_LAYER}
