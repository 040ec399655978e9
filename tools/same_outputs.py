#!/usr/bin/env python3
"""Check that two source trees give byte-identical pipeline outputs.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

CHANGE_TREE is a checkout of this repository.  PARENT_TREE is a checkout,
an unpacked ``git archive`` of the parent's commit, or that archive's
tarball, which is unpacked into the temporary directory.  For each of the
comparison configs below, ``python -m robusthcn pipeline`` runs once from
each tree's ``src/`` with ``OPENBLAS_NUM_THREADS=1``, and every file the
two runs wrote is compared byte for byte, ``model.ckpt``, ``report.txt``
and ``data/`` included.  The one line allowed to differ is
``history.txt``'s ``# wall_time_s``.  The script prints one verdict per
config and exits 1 if any config differs.

The configs are criterion 9's, and the ``pipeline_hcn_td`` benchmark's
toy domain (200 dialogs, 20 actions, ``run.seed = toy.seed = 701``, turn
dropout 0.4, 4 epochs, patience 5) for each of HCN, HHCN and VHCN, all
of which generate their toy data; and criterion 9's training on the
``data/`` files its parent-side run wrote, read through the ``data.*``
keys, with ``data.ood_pool`` naming its file twice.  The runs go under a
new temporary directory, removed afterwards.
"""

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile

_TOY_701 = ("run.seed = 701\ntoy.seed = 701\ntoy.n_dialogs = 200\ntoy.n_actions = 20\n"
            "turn_dropout.ratio = 0.4\ntrain.max_epochs = 4\ntrain.patience = 5\n"
            "model.variant = %s\n")

CONFIGS = {
    "criterion9": ("run.seed = 99\ntoy.n_dialogs = 40\ntoy.n_actions = 8\nmodel.variant = HCN\n"
                   "turn_dropout.ratio = 0.4\ntrain.max_epochs = 3\n"),
    "toy701-HCN": _TOY_701 % "HCN",
    "toy701-HHCN": _TOY_701 % "HHCN",
    "toy701-VHCN": _TOY_701 % "VHCN",
    # {data} is the data/ directory of the criterion-9 run on the parent tree
    "criterion9-data": ("run.seed = 99\nmodel.variant = HCN\nturn_dropout.ratio = 0.4\n"
                        "train.max_epochs = 3\ndata.train = {data}/train.txt\n"
                        "data.dev = {data}/dev.txt\ndata.test = {data}/test.txt\n"
                        "data.lexicon = {data}/lexicon.txt\n"
                        "data.segment_pool = {data}/segment_pool.txt\n"
                        "data.ood_pool = {data}/ood_pool.txt, {data}/ood_pool.txt\n"),
}

# the one output line that measures the run rather than describes it
_WALL_TIME = b"# wall_time_s ="


def _files(root):
    """The relative paths of every file under ``root``."""
    return {os.path.relpath(os.path.join(d, name), root)
            for d, _, names in os.walk(root) for name in names}


def _content(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "history.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(_WALL_TIME))
    return data


def differences(parent_dir, change_dir):
    """``(files compared, [one line per file that is missing or differs])``."""
    parent, change = _files(parent_dir), _files(change_dir)
    found = ["%s: only in the parent's run" % p for p in sorted(parent - change)]
    found += ["%s: only in the change's run" % p for p in sorted(change - parent)]
    found += ["%s: differs" % p for p in sorted(parent & change)
              if _content(os.path.join(parent_dir, p)) != _content(os.path.join(change_dir, p))]
    return len(parent | change), found


def run_pipeline(tree, config_path, out_dir):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run([sys.executable, "-m", "robusthcn", "pipeline", "--config", config_path,
                           "--out-dir", out_dir], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("pipeline in %s failed: %s" % (tree, done.stderr.strip()))


def compare(parent_tree, change_tree, work):
    """Run every config on both trees; ``True`` if all of them are identical."""
    same = True
    for name, text in CONFIGS.items():
        config_path = os.path.join(work, name + ".cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(text.format(data=os.path.join(work, "criterion9", "parent", "data")))
        outs = [os.path.join(work, name, side) for side in ("parent", "change")]
        for tree, out in zip((parent_tree, change_tree), outs):
            run_pipeline(os.path.abspath(tree), config_path, out)
        n_files, found = differences(*outs)
        same = same and not found
        print("%s: %s" % (name, "identical (%d files)" % n_files if not found
                          else "DIFFERENT\n  " + "\n  ".join(found)), flush=True)
    return same


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_tree", help="a directory or a git archive tarball")
    p.add_argument("change_tree")
    args = p.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
            parent = args.parent_tree
            if os.path.isfile(parent):
                with tarfile.open(parent) as tar:
                    tar.extractall(os.path.join(work, "parent-tree"), filter="data")
                parent = os.path.join(work, "parent-tree")
            return 0 if compare(parent, args.change_tree, work) else 1
    except (OSError, RuntimeError, tarfile.TarError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
