"""Fast checks of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "pipeline_hcn_td": workloads.PipelineHcnTd(n_dialogs=40, n_actions=8, epochs=2),
    "train_recurrent": workloads.TrainRecurrent(n_dialogs=30, n_actions=8, epochs=2),
    "ood_infer_long": workloads.OodInferLong(n_dialogs=24, n_actions=8),
    "gridsearch_jobs2": workloads.GridsearchJobs2(n_dialogs=30, n_actions=8, epochs=1),
}
# two epochs on 32 dialogs are too few for the criterion-5 quality bounds
QUALITY_CHECKS = {"ood_acc>=0.7", "ood_f1>=0.7"}


def run_tiny(name, seed, workdir, targets=layers.stage_targets):
    workload = TINY[name]
    inputs = workload.setup(seed, str(workdir))
    tracer = tracing.Tracer(targets(), spill_dir=str(workdir))
    with tracer:
        raw = workload.job(inputs)
    tracer.merge_spills()
    return workload, inputs, raw, tracer


RUNNABLE = spec.WORKLOADS + spec.PROBE_ONLY


def test_workload_names_agree():
    assert tuple(workloads.WORKLOADS) == RUNNABLE == tuple(TINY)
    assert set(spec.HEADLINE) == set(RUNNABLE)
    assert not set(spec.PROBE_ONLY) & set(spec.WORKLOADS)


@pytest.mark.parametrize("name", RUNNABLE)
def test_every_workload_runs_and_passes_its_checks(name, tmp_path):
    workload, inputs, raw, tracer = run_tiny(name, 5, tmp_path)
    review = workload.review(inputs, raw, tracer)
    assert review.checks
    assert [c for c, ok in review.checks.items() if not ok and c not in QUALITY_CHECKS] == []
    assert review.steps + review.evaluated > 0
    seconds, turns = layers.stage_totals(tracer.spans, layers.TRAIN_SPANS | layers.INFER_SPANS)
    assert seconds > 0 and turns > 0


def _corrupt_pipeline(raw, tracer):
    path = os.path.join(raw, "history.txt")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split("\t")
    cells[1] = "nan"
    lines[1] = "\t".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return "losses_finite"


def _corrupt_recurrent(raw, tracer):
    raw["HHCN"].epochs[-1].train_loss = raw["HHCN"].epochs[0].train_loss + 1.0
    return "HHCN.loss_falls"


def _corrupt_infer(raw, tracer):
    _, loaded, _ = raw["scored"]["VHCN"]
    name = next(iter(loaded.arrays))
    loaded.arrays[name] = loaded.arrays[name] + np.float32(1.0)
    return "VHCN.ckpt_params_equal"


def _corrupt_grid(raw, tracer):
    raw.cells.pop()
    return "cells"


CORRUPTIONS = {
    "pipeline_hcn_td": _corrupt_pipeline,
    "train_recurrent": _corrupt_recurrent,
    "ood_infer_long": _corrupt_infer,
    "gridsearch_jobs2": _corrupt_grid,
}


@pytest.mark.parametrize("name", RUNNABLE)
def test_corrupted_output_fails_its_check(name, tmp_path):
    workload, inputs, raw, tracer = run_tiny(name, 6, tmp_path)
    check = CORRUPTIONS[name](raw, tracer)
    review = workload.review(inputs, raw, tracer)
    assert review.checks[check] is False


def test_invalid_prediction_fails_its_check(tmp_path):
    workload, inputs, raw, tracer = run_tiny("ood_infer_long", 6, tmp_path)
    tracer.count("invalid_predictions")
    assert workload.review(inputs, raw, tracer).checks["predictions_valid"] is False


def test_round_trip_check_sees_a_changed_dialog(tmp_path):
    workload, inputs, raw, tracer = run_tiny("ood_infer_long", 6, tmp_path)
    first = raw["parsed"][0]
    raw["parsed"][0] = replace(first, turns=first.turns[:-1] or first.turns + first.turns)
    assert workload.review(inputs, raw, tracer).checks["parse(write(x))==x"] is False


def test_seed_changes_the_inputs(tmp_path):
    recurrent = TINY["train_recurrent"]
    a, b, again = (recurrent.setup(s, str(tmp_path)) for s in (1, 2, 1))
    tokens = [[t.f_turn.tolist() for t in d] for d in a["train"]]
    assert tokens != [[t.f_turn.tolist() for t in d] for d in b["train"]]
    assert tokens == [[t.f_turn.tolist() for t in d] for d in again["train"]]

    infer = TINY["ood_infer_long"]
    assert infer.setup(1, str(tmp_path))["dialogs"] != infer.setup(2, str(tmp_path))["dialogs"]

    pipeline = TINY["pipeline_hcn_td"]
    configs = [pipeline.setup(s, str(tmp_path))["config"] for s in (1, 2)]
    assert configs[0].echo_lines() != configs[1].echo_lines()


def test_tracer_restores_every_wrapped_name():
    import robusthcn
    from robusthcn import models, nn, seeding, train

    before = (train.stream, seeding.stream, models.Model.encode_turn, nn.Adam.step,
              robusthcn.train_model, train.train_model)
    with tracing.Tracer(layers.layer_targets()):
        assert train.stream is not before[0] and robusthcn.train_model is not before[4]
    after = (train.stream, seeding.stream, models.Model.encode_turn, nn.Adam.step,
             robusthcn.train_model, train.train_model)
    assert all(x is y for x, y in zip(before, after))


def test_self_time_subtracts_the_union_of_children():
    spans = [tracing.Span("a", None, 0.0), tracing.Span("b", 0, 1.0), tracing.Span("c", 0, 2.0)]
    spans[0].end, spans[1].end, spans[2].end = 10.0, 4.0, 5.0   # b and c overlap
    assert tracing.self_times(spans) == pytest.approx([6.0, 3.0, 3.0])


def test_traced_grid_search_keeps_worker_spans(tmp_path):
    _, _, raw, tracer = run_tiny("gridsearch_jobs2", 7, tmp_path, layers.layer_targets)
    names = [s.name for s in tracer.spans]
    assert names.count("train.train_model") == len(raw.cells)
    grid = names.index("train.grid_search")
    assert all(s.parent == grid for s in tracer.spans if s.name == "train.train_model")
    metrics = layers.layer_metrics(tracer.spans, 1)
    assert metrics["nn.adam_s"] > 0 and metrics["train.grid.parallel_eff"] > 0


def _main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        status = run.main(argv)
    return status, out.getvalue().strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_contract_line(trace, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "ood_infer_long", TINY["ood_infer_long"])
    for var in spec.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    result = tmp_path / "result.json"
    status, lines = _main(["--workload", "ood_infer_long", "--seed", "3", "--seconds", "0.5",
                           "--trace", str(trace), "--result", str(result)])
    assert status == 0
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    wanted = spec.PER_LAYER if trace else spec.GATED
    assert list(final["metrics"]) == [m.name for m in wanted]
    for m in wanted:
        value = final["metrics"][m.name]["value"]
        assert final["metrics"][m.name]["unit"] == m.unit and math.isfinite(value)
    saved = json.loads(result.read_text())
    assert saved["env"]["seed"] == 3 and saved["env"]["numpy"] == np.__version__
    assert saved["env"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        assert os.path.exists(str(result)[:-len(".json")] + "-spans.jsonl")
        assert final["metrics"]["models.predict_us_per_turn"]["value"] > 0
        assert final["metrics"]["nn.adam_s"]["value"] == 0   # no training in this workload
    else:
        assert final["metrics"]["turns_per_s"]["value"] > 0


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline_hcn_td",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_judge_labels():
    wall = spec.BY_NAME["wall_s"]
    base = {s: 10.0 + 0.01 * s for s in range(10)}
    assert compare.judge(base, {s: v * 0.8 for s, v in base.items()}, wall) == "improved"
    assert compare.judge(base, {s: v * 1.01 for s, v in base.items()}, wall) == "unchanged"
    assert compare.judge(base, {s: v * 1.5 for s, v in base.items()}, wall) == "regressed"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.judge(noisy, {s: 12.0 for s in range(10)}, wall) == "unresolved"
    faster = {s: v * 0.8 for s, v in base.items()}
    assert compare.judge(base, faster, wall, base_failed=0, new_failed=1) == "failed"
    assert compare.judge(base, faster, wall, base_failed=2, new_failed=2) == "improved"


def test_diff_marks_a_workload_with_more_failures(tmp_path, capsys):
    for side, failed, wall in (("base", 0, 10.0), ("new", 3, 5.0)):
        os.makedirs(str(tmp_path / side))
        for seed in range(4):
            result = {"workload": "pipeline_hcn_td", "seed": seed, "correct": failed == 0,
                      "failed": failed,
                      "metrics": {"wall_s": {"value": wall + 0.01 * seed, "unit": "s"}}}
            (tmp_path / side / ("pipeline_hcn_td-seed%d.json" % seed)).write_text(
                json.dumps(result))
    assert compare.main(["diff", str(tmp_path / "base"), str(tmp_path / "new")]) == 0
    row = [line for line in capsys.readouterr().out.splitlines() if "wall_s" in line]
    assert row and row[0].split()[-1] == "failed"
