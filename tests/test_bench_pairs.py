"""tools/bench_pairs.py interleaves the two sides and records the parent's commit."""

import importlib.util
import io
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


def _stub_runner(calls):
    """A runner that writes a result file as ``perfbench/run.py`` would, and runs nothing."""
    def run(tree, workload, seed, seconds, trace, result):
        calls.append((tree, workload, seed, seconds, trace))
        side_value = 2.0 if tree.endswith("change") else 1.0
        with open(result, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "trace": trace, "failed": 0,
                       "metrics": {"turns_per_s": {"value": side_value * seed}},
                       "env": {"numpy": "2", "git_sha": None, "git_dirty": None,
                               "seed": seed}}, fh)
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


@pytest.fixture
def committed_tree(tmp_path):
    tree = tmp_path / "repo"
    tree.mkdir()
    (tree / "README").write_text("parent\n")
    _git(tree, "init", "-q")
    _git(tree, "add", "README")
    _git(tree, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "parent")
    return tree, _git(tree, "rev-parse", "HEAD")


def test_parent_commit_of_a_tarball_a_checkout_and_a_plain_tree(bench_pairs, committed_tree,
                                                                tmp_path):
    tree, sha = committed_tree
    tarball = tmp_path / "parent.tar"
    _git(tree, "archive", "--format=tar", "-o", str(tarball), "HEAD")
    assert bench_pairs.parent_commit(str(tarball)) == {"git_sha": sha, "git_dirty": False}
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


def test_record_names_the_tarball_commit(bench_pairs, committed_tree, tmp_path, monkeypatch,
                                         capsys):
    tree, sha = committed_tree
    tarball = tmp_path / "parent.tar"
    _git(tree, "archive", "--format=tar", "-o", str(tarball), "HEAD")
    change = tmp_path / "change"
    change.mkdir()
    calls, stub = [], _stub_runner([])

    def run(tree_dir, workload, seed, seconds, trace, result):
        calls.append(tree_dir)
        code = stub(tree_dir, workload, seed, seconds, trace, result)
        if tree_dir != str(change):
            assert os.path.isfile(os.path.join(tree_dir, "README"))  # the unpacked archive
        else:  # the change side's commit names the record
            with open(result, encoding="utf-8") as fh:
                data = json.load(fh)
            data["env"].update(git_sha="c" * 40, git_dirty=False)
            with open(result, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        return code

    monkeypatch.setattr(bench_pairs, "run_one", run)
    probed = iter([0.25, 0.5])
    monkeypatch.setattr(bench_pairs, "host_probe", lambda: next(probed))
    monkeypatch.setattr(bench_pairs.bench_record, "ROOT", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert bench_pairs.main([str(tarball), str(change), "--workloads", "train_recurrent",
                             "--seeds", "1-2", "--seconds", "1"]) == 0
    assert len(calls) == 4 and calls[1] == calls[2] == str(change)
    record = json.loads((tmp_path / ("BENCH_%s.json" % ("c" * 7))).read_text())
    assert record["parent"] == {"git_sha": sha, "git_dirty": False}
    assert record["workloads"]["train_recurrent"]["seeds"] == [1, 2]
    assert record["workloads"]["train_recurrent"]["host_probe_s"] == [0.25, 0.5]
    assert "record written to" in capsys.readouterr().out
    # the unpacked parent tree is removed, the results are kept
    work = [p for p in tmp_path.iterdir() if p.name.startswith("bench-pairs-")]
    assert len(work) == 1 and sorted(os.listdir(work[0])) == ["change", "parent"]
