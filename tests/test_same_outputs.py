"""tools/same_outputs.py compares two runs' files byte for byte."""

import importlib.util
import io
import os
import tarfile
import tempfile

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "same_outputs.py")


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_dir(root, history_wall_time="1.234", report=b"model = HCN\n"):
    (root / "data").mkdir(parents=True)
    (root / "data" / "train.txt").write_bytes(b"1 hello\thi there\n")
    (root / "report.txt").write_bytes(report)
    (root / "history.txt").write_bytes(b"epoch\tloss\n0\t1.5\n# wall_time_s = %s\n"
                                       b"# config.run.seed = 1\n" % history_wall_time.encode())
    return root


def test_identical_runs(same_outputs, tmp_path):
    n_files, found = same_outputs.differences(_run_dir(tmp_path / "a"), _run_dir(tmp_path / "b"))
    assert (n_files, found) == (3, [])


def test_one_differing_byte_is_a_difference(same_outputs, tmp_path):
    _, found = same_outputs.differences(_run_dir(tmp_path / "a"),
                                        _run_dir(tmp_path / "b", report=b"model = HCM\n"))
    assert found == ["report.txt: differs"]


def test_only_the_wall_time_line_may_differ(same_outputs, tmp_path):
    a = _run_dir(tmp_path / "a")
    _, found = same_outputs.differences(a, _run_dir(tmp_path / "b", history_wall_time="9.9"))
    assert found == []
    # the same line in any other file is compared
    (a / "report.txt").write_bytes(b"model = HCN\n# wall_time_s = 1\n")
    _, found = same_outputs.differences(a, tmp_path / "b")
    assert found == ["report.txt: differs"]


def test_a_missing_file_is_a_difference(same_outputs, tmp_path):
    a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    (b / "data" / "train.txt").unlink()
    (b / "extra.txt").write_bytes(b"")
    n_files, found = same_outputs.differences(a, b)
    assert n_files == 4
    assert found == [os.path.join("data", "train.txt") + ": only in the parent's run",
                     "extra.txt: only in the change's run"]


def test_a_tarball_parent_runs_from_its_unpacked_tree(same_outputs, tmp_path, monkeypatch,
                                                      capsys):
    tarball = tmp_path / "parent.tar"
    with tarfile.open(tarball, "w") as tar:
        info = tarfile.TarInfo("src/marker.txt")
        info.size = 7
        tar.addfile(info, io.BytesIO(b"parent\n"))
    change = tmp_path / "change"
    change.mkdir()
    trees = []

    def run_pipeline(tree, config_path, out_dir):
        trees.append(tree)
        if tree != str(change):
            with open(os.path.join(tree, "src", "marker.txt"), encoding="utf-8") as fh:
                assert fh.read() == "parent\n"
        os.makedirs(os.path.join(out_dir, "data"))
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write("same\n")

    monkeypatch.setattr(same_outputs, "run_pipeline", run_pipeline)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert same_outputs.main([str(tarball), str(change)]) == 0
    assert len(trees) == 2 * len(same_outputs.CONFIGS)
    parents, changes = trees[::2], trees[1::2]
    assert set(changes) == {str(change)}
    # every parent run is from the unpacked archive, under the temporary directory
    assert len(set(parents)) == 1
    assert parents[0].startswith(str(tmp_path / "same-outputs-"))
    assert capsys.readouterr().out.count("identical (1 files)") == len(same_outputs.CONFIGS)
    # the temporary directory and the unpacked tree are removed afterwards
    assert not os.path.exists(parents[0])
    assert not [p for p in tmp_path.iterdir() if p.name.startswith("same-outputs-")]
