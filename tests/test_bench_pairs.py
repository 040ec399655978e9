"""tools/bench_pairs.py interleaves the two sides and writes one record per change."""

import importlib.util
import io
import itertools
import json
import os
import subprocess
import tarfile
import tempfile

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
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


def test_record_summarises_seed_matched_pairs(tmp_path, bench_pairs):
    parent, change = _sides(tmp_path)
    path = bench_pairs.write_record(bench_pairs.build_record(str(parent), str(change)),
                                    str(tmp_path))
    assert os.path.basename(path) == "BENCH_%s.json" % ("b" * 7)
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
    # a per-layer metric has no bound, so the benchmark gives it no verdict
    assert "verdict" not in traced["metrics"]["models.predict_us_per_turn"]


def test_record_states_the_benchmark_verdict(tmp_path, bench_pairs):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 5):
        # turns_per_s wins every pair by 50, against a parent quartile distance under 3
        _write_result(parent, "ood_infer_long", seed,
                      {"turns_per_s": 100.0 + seed, "wall_s": 1.0}, "a" * 40)
        _write_result(change, "ood_infer_long", seed,
                      {"turns_per_s": 150.0 + seed, "wall_s": 1.0}, "b" * 40)
        # the same gain on a workload whose change side failed an operation
        _write_result(parent, "train_recurrent", seed, {"turns_per_s": 100.0 + seed}, "a" * 40)
        _write_result(change, "train_recurrent", seed, {"turns_per_s": 150.0 + seed}, "b" * 40,
                      failed=int(seed == 3))
    record = bench_pairs.build_record(str(parent), str(change))["workloads"]
    infer = record["ood_infer_long"]["metrics"]
    assert infer["turns_per_s"]["verdict"] == "improved"
    assert infer["wall_s"]["verdict"] == "unchanged"
    assert record["train_recurrent"]["failed"] == {"parent": 0, "change": 1}
    assert record["train_recurrent"]["metrics"]["turns_per_s"]["verdict"] == "failed"


def test_record_of_an_uncommitted_change_is_named_dirty(tmp_path, bench_pairs):
    parent, change = _sides(tmp_path, change_dirty=True)
    bench_pairs.write_record(bench_pairs.build_record(str(parent), str(change)), str(tmp_path))
    record = json.loads((tmp_path / ("BENCH_%s-dirty.json" % ("b" * 7))).read_text())
    assert record["change"]["git_dirty"] is True


def test_record_rejects_a_side_that_mixes_commits(tmp_path, bench_pairs):
    parent, change = _sides(tmp_path)
    _write_result(change, "train_recurrent", 1, {"turns_per_s": 1.0}, "c" * 40)
    with pytest.raises(ValueError, match="more than one commit"):
        bench_pairs.build_record(str(parent), str(change))


def test_record_needs_shared_seeds(tmp_path, bench_pairs):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_result(parent, "ood_infer_long", 1, {"turns_per_s": 1.0}, "a" * 40)
    _write_result(change, "ood_infer_long", 2, {"turns_per_s": 1.0}, "b" * 40)
    with pytest.raises(ValueError, match="no seed"):
        bench_pairs.build_record(str(parent), str(change))


def test_median_ratio_is_over_the_pairs_that_have_a_ratio(tmp_path, bench_pairs):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # an even count of defined ratios (0.5, 1.5, 4.0, 2.0) takes the mean
    # of the middle two; the pair with a parent value of 0 has no ratio
    for seed, (p, c) in enumerate([(2.0, 1.0), (2.0, 3.0), (0.0, 5.0), (1.0, 4.0), (1.0, 2.0)]):
        _write_result(parent, "train_recurrent", seed, {"wall_s": p}, "a" * 40)
        _write_result(change, "train_recurrent", seed, {"wall_s": c}, "b" * 40)
    wall = bench_pairs.build_record(str(parent), str(change))["workloads"]["train_recurrent"][
        "metrics"]["wall_s"]
    assert wall["ratios"] == [0.5, 1.5, None, 4.0, 2.0]
    assert wall["median_ratio"] == pytest.approx(1.75)

    zero = tmp_path / "zero"
    for seed in range(2):
        _write_result(zero, "train_recurrent", seed, {"wall_s": 0.0}, "c" * 40)
    wall = bench_pairs.build_record(str(zero), str(change))["workloads"]["train_recurrent"][
        "metrics"]["wall_s"]
    assert wall["ratios"] == [None, None] and wall["median_ratio"] is None


def _stub_runner(calls):
    """A runner that writes a result file as ``perfbench/run.py`` would, and runs nothing.

    A tree whose name ends in ``change`` is the change side, of commit ``c`` * 40.
    """
    def run(tree, workload, seed, seconds, trace, result):
        calls.append((tree, workload, seed, seconds, trace))
        change = tree.endswith("change")
        with open(result, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "trace": trace, "failed": 0,
                       "metrics": {"models.forward_s" if trace else "turns_per_s":
                                   {"value": (2.0 if change else 1.0) * seed}},
                       "env": {"numpy": "2", "git_sha": "c" * 40 if change else None,
                               "git_dirty": False if change else None, "seed": seed}}, fh)
        return 0
    return run


def test_pairs_alternate_which_side_runs_first(bench_pairs, tmp_path):
    trees = {"parent": "/trees/parent", "change": "/trees/change"}
    out_dirs = {side: str(tmp_path / side) for side in trees}
    for directory in out_dirs.values():
        os.makedirs(directory)
    calls = []

    def probe():
        calls.append("probe")
        return 0.5

    probes = bench_pairs.run_pairs(trees, ["train_recurrent", "ood_infer_long"], [5, 6, 7], 3.0,
                                   1, out_dirs, _stub_runner(calls), probe)
    first = ("parent", "change")
    second = ("change", "parent")
    # the host probe runs once before each pair, and its seconds are kept per pair
    assert calls == [call for workload in ("train_recurrent", "ood_infer_long")
                     for seed, order in zip((5, 6, 7), (first, second, first))
                     for call in ["probe"] + [(trees[side], workload, seed, 3.0, 1)
                                              for side in order]]
    assert probes == {workload: {5: 0.5, 6: 0.5, 7: 0.5}
                      for workload in ("train_recurrent", "ood_infer_long")}
    # each side's results sit in its own directory, one file per workload and seed
    for side in trees:
        assert len(os.listdir(out_dirs[side])) == 6


def test_a_failed_run_stops_the_pairs(bench_pairs, tmp_path):
    calls = []

    def run(tree, *args):
        calls.append(tree)
        return 2 if tree == "change" else 0

    with pytest.raises(RuntimeError, match="change run of train_recurrent seed 1 exited 2"):
        bench_pairs.run_pairs({"parent": "parent", "change": "change"}, ["train_recurrent"],
                              [1, 2], 1.0, 0, {"parent": "p", "change": "c"}, run, lambda: 0.1)
    assert calls == ["parent", "change"]


def test_host_probe_times_the_loop_in_a_fresh_interpreter(bench_pairs):
    assert 0 < bench_pairs.host_probe() < 60


def _git(cwd, *args):
    return subprocess.run(["git"] + list(args), cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def _commit(tree, text):
    (tree / "README").write_text(text)
    _git(tree, "add", "README")
    _git(tree, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", text)
    return _git(tree, "rev-parse", "HEAD")


@pytest.fixture
def committed_tree(tmp_path):
    tree = tmp_path / "repo"
    tree.mkdir()
    _git(tree, "init", "-q")
    return tree, _commit(tree, "parent\n")


def _archive(tree, tarball):
    _git(tree, "archive", "--format=tar", "-o", str(tarball), "HEAD")
    return str(tarball)


def test_parent_commit_of_a_tarball_a_checkout_and_a_plain_tree(bench_pairs, committed_tree,
                                                                tmp_path):
    tree, sha = committed_tree
    tarball = _archive(tree, tmp_path / "parent.tar")
    assert bench_pairs.parent_commit(tarball) == {"git_sha": sha, "git_dirty": False}
    assert bench_pairs.parent_commit(str(tree)) == {"git_sha": sha, "git_dirty": False}
    (tree / "README").write_text("edited\n")
    assert bench_pairs.parent_commit(str(tree)) == {"git_sha": sha, "git_dirty": True}
    plain = tmp_path / "plain"
    with tarfile.open(tarball) as tar:
        tar.extractall(plain, filter="data")
    assert bench_pairs.parent_commit(str(plain)) == {"git_sha": "unknown", "git_dirty": None}
    # a tar file git did not write has no commit id either
    other = tmp_path / "other.tar"
    with tarfile.open(other, "w") as tar:
        info = tarfile.TarInfo("README")
        info.size = 3
        tar.addfile(info, io.BytesIO(b"hi\n"))
    assert bench_pairs.parent_commit(str(other)) == {"git_sha": "unknown", "git_dirty": None}


@pytest.fixture
def stubbed_main(bench_pairs, tmp_path, monkeypatch):
    """``main`` with the stub runner and host probes of 0.25, 0.5, ... s.

    The record goes into ``tmp_path``; returns the list of trees each run
    ran from.
    """
    calls, stub = [], _stub_runner([])

    def run(tree_dir, workload, seed, seconds, trace, result):
        calls.append(tree_dir)
        if not tree_dir.endswith("change"):
            assert os.path.isfile(os.path.join(tree_dir, "README"))  # the unpacked archive
        return stub(tree_dir, workload, seed, seconds, trace, result)

    monkeypatch.setattr(bench_pairs, "run_one", run)
    probed = itertools.count(0.25, 0.25)
    monkeypatch.setattr(bench_pairs, "host_probe", lambda: next(probed))
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    (tmp_path / "change").mkdir()
    return calls


def test_record_names_the_tarball_commit(bench_pairs, committed_tree, tmp_path, stubbed_main,
                                         capsys):
    tree, sha = committed_tree
    change = str(tmp_path / "change")
    assert bench_pairs.main([_archive(tree, tmp_path / "parent.tar"), change, "--workloads",
                             "train_recurrent", "--seeds", "1-2", "--seconds", "1"]) == 0
    assert len(stubbed_main) == 4 and stubbed_main[1] == stubbed_main[2] == change
    record = json.loads((tmp_path / ("BENCH_%s.json" % ("c" * 7))).read_text())
    assert record["parent"] == {"git_sha": sha, "git_dirty": False}
    assert record["workloads"]["train_recurrent"]["seeds"] == [1, 2]
    assert record["workloads"]["train_recurrent"]["host_probe_s"] == [0.25, 0.5]
    assert "record written to" in capsys.readouterr().out
    # the unpacked parent tree is removed, the results are kept
    work = [p for p in tmp_path.iterdir() if p.name.startswith("bench-pairs-")]
    assert len(work) == 1 and sorted(os.listdir(work[0])) == ["change", "parent"]


def test_a_traced_run_adds_its_section_to_the_record(bench_pairs, committed_tree, tmp_path,
                                                     stubbed_main):
    tree, sha = committed_tree
    argv = [_archive(tree, tmp_path / "parent.tar"), str(tmp_path / "change"), "--seconds", "1"]
    assert bench_pairs.main(argv + ["--workloads", "train_recurrent,ood_infer_long",
                                    "--seeds", "1-2"]) == 0
    path = tmp_path / ("BENCH_%s.json" % ("c" * 7))
    untraced = json.loads(path.read_text())["workloads"]
    assert sorted(untraced) == ["ood_infer_long", "train_recurrent"]
    assert "verdict" in untraced["train_recurrent"]["metrics"]["turns_per_s"]

    assert bench_pairs.main(argv + ["--workloads", "ood_infer_long", "--seeds", "3-4",
                                    "--trace", "1"]) == 0
    record = json.loads(path.read_text())
    assert record["parent"] == {"git_sha": sha, "git_dirty": False}
    assert record["workloads"] == untraced
    traced = record["traced"]["ood_infer_long"]
    assert traced["seeds"] == [3, 4] and traced["host_probe_s"] == [1.25, 1.5]
    assert "models.forward_s" in traced["metrics"]

    # a second untraced run of one workload replaces that workload's entry only
    assert bench_pairs.main(argv + ["--workloads", "ood_infer_long", "--seeds", "5"]) == 0
    record = json.loads(path.read_text())
    assert record["workloads"]["ood_infer_long"]["seeds"] == [5]
    assert record["workloads"]["train_recurrent"] == untraced["train_recurrent"]
    assert record["traced"]["ood_infer_long"] == traced


def test_a_record_of_another_parent_is_refused(bench_pairs, committed_tree, tmp_path,
                                               stubbed_main, capsys):
    tree, _ = committed_tree
    change = str(tmp_path / "change")
    argv = ["--workloads", "train_recurrent", "--seeds", "1", "--seconds", "1"]
    assert bench_pairs.main([_archive(tree, tmp_path / "parent.tar"), change] + argv) == 0
    path = tmp_path / ("BENCH_%s.json" % ("c" * 7))
    written = path.read_bytes()
    _commit(tree, "another parent\n")
    assert bench_pairs.main([_archive(tree, tmp_path / "other.tar"), change, "--trace", "1"]
                            + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "holds another parent" in err
    assert path.read_bytes() == written
