"""tools/bench_record.py builds its record from result files alone."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "bench_record.py")


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENV = {"numpy": "2.4.6", "blas": {"name": "openblas", "version": "0.3"},
       "blas_env": {"OPENBLAS_NUM_THREADS": "1"}, "nproc": 2, "cpus_usable": 2,
       "python": "3.11.7"}


def _write_result(directory, workload, seed, metrics, sha, dirty=False, trace=0, failed=0):
    directory.mkdir(exist_ok=True)
    result = {
        "workload": workload, "seed": seed, "trace": trace, "correct": failed == 0,
        "failed": failed, "attempted": 10,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
        "env": dict(ENV, git_sha=sha, git_dirty=dirty, seed=seed),
    }
    path = directory / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    path.write_text(json.dumps(result))


def _sides(tmp_path, change_dirty=False):
    parent, change = tmp_path / "parent", tmp_path / "change"
    runs = [(1, 100.0, 1.0, 200.0), (2, 110.0, 1.2, 180.0), (3, 90.0, 0.9, 210.0)]
    for seed, turns, wall, change_turns in runs:
        _write_result(parent, "ood_infer_long", seed, {"turns_per_s": turns, "wall_s": wall},
                      "a" * 40)
        _write_result(change, "ood_infer_long", seed,
                      {"turns_per_s": change_turns, "wall_s": wall}, "b" * 40, change_dirty)
    _write_result(parent, "ood_infer_long", 1, {"models.predict_us_per_turn": 100.0},
                  "a" * 40, trace=1)
    _write_result(change, "ood_infer_long", 1, {"models.predict_us_per_turn": 60.0},
                  "b" * 40, change_dirty, trace=1, failed=1)
    (change / "ood_infer_long-seed1-trace1-spans.jsonl").write_text("not a result\n")
    return parent, change


def test_record_summarises_seed_matched_pairs(tmp_path, bench_record):
    parent, change = _sides(tmp_path)
    assert bench_record.main([str(parent), str(change), "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / ("BENCH_%s.json" % ("b" * 7))).read_text())
    assert record["parent"] == {"git_sha": "a" * 40, "git_dirty": False}
    assert record["change"] == {"git_sha": "b" * 40, "git_dirty": False}
    assert record["env"] == ENV and "parent_env" not in record

    infer = record["workloads"]["ood_infer_long"]
    assert infer["seeds"] == [1, 2, 3]
    assert infer["failed"] == {"parent": 0, "change": 0}
    turns = infer["metrics"]["turns_per_s"]
    assert turns["better"] == "higher"
    assert turns["parent"]["median"] == 100.0 and turns["change"]["median"] == 200.0
    assert turns["parent"]["q1"] <= 100.0 <= turns["parent"]["q3"]
    assert turns["ratios"] == pytest.approx([2.0, 180.0 / 110.0, 210.0 / 90.0])
    assert turns["median_ratio"] == pytest.approx(2.0)
    assert turns["wins"] == 3
    # equal values are ties, won by neither side
    assert infer["metrics"]["wall_s"]["ratios"] == [1.0, 1.0, 1.0]
    assert infer["metrics"]["wall_s"]["median_ratio"] == 1.0
    assert infer["metrics"]["wall_s"]["wins"] == 0

    traced = record["traced"]["ood_infer_long"]
    assert traced["failed"] == {"parent": 0, "change": 1}
    assert traced["metrics"]["models.predict_us_per_turn"]["wins"] == 1


def test_record_of_an_uncommitted_change_is_named_dirty(tmp_path, bench_record):
    parent, change = _sides(tmp_path, change_dirty=True)
    assert bench_record.main([str(parent), str(change), "--out", str(tmp_path)]) == 0
    record = json.loads((tmp_path / ("BENCH_%s-dirty.json" % ("b" * 7))).read_text())
    assert record["change"]["git_dirty"] is True


def test_record_rejects_a_side_that_mixes_commits(tmp_path, bench_record, capsys):
    parent, change = _sides(tmp_path)
    _write_result(change, "train_recurrent", 1, {"turns_per_s": 1.0}, "c" * 40)
    assert bench_record.main([str(parent), str(change), "--out", str(tmp_path)]) == 1
    assert "more than one commit" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_record_needs_shared_seeds(tmp_path, bench_record, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_result(parent, "ood_infer_long", 1, {"turns_per_s": 1.0}, "a" * 40)
    _write_result(change, "ood_infer_long", 2, {"turns_per_s": 1.0}, "b" * 40)
    assert bench_record.main([str(parent), str(change), "--out", str(tmp_path)]) == 1
    assert "no seed" in capsys.readouterr().err


def test_median_ratio_is_over_the_pairs_that_have_a_ratio(tmp_path, bench_record):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # an even count of defined ratios (0.5, 1.5, 4.0, 2.0) takes the mean
    # of the middle two; the pair with a parent value of 0 has no ratio
    for seed, (p, c) in enumerate([(2.0, 1.0), (2.0, 3.0), (0.0, 5.0), (1.0, 4.0), (1.0, 2.0)]):
        _write_result(parent, "train_recurrent", seed, {"wall_s": p}, "a" * 40)
        _write_result(change, "train_recurrent", seed, {"wall_s": c}, "b" * 40)
    wall = bench_record.build_record(str(parent), str(change))["workloads"]["train_recurrent"][
        "metrics"]["wall_s"]
    assert wall["ratios"] == [0.5, 1.5, None, 4.0, 2.0]
    assert wall["median_ratio"] == pytest.approx(1.75)

    zero = tmp_path / "zero"
    for seed in range(2):
        _write_result(zero, "train_recurrent", seed, {"wall_s": 0.0}, "c" * 40)
    wall = bench_record.build_record(str(zero), str(change))["workloads"]["train_recurrent"][
        "metrics"]["wall_s"]
    assert wall["ratios"] == [None, None] and wall["median_ratio"] is None
