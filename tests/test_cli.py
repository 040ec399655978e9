import argparse
import os
import subprocess
import sys

import pytest

import robusthcn
from robusthcn import cli, train
from robusthcn.cli import main
from robusthcn.config import KNOWN_KEYS, ConfigError, RunConfig
from robusthcn.corpus import load_embedding_table, parse_dialogs
from robusthcn.evaluation import parse_report
from robusthcn.models import load_checkpoint


def _run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("toydata")
    code = _run("toy", "--out-dir", str(out), "--seed", "3", "--n-dialogs", "24",
                "--n-actions", "8")
    assert code == 0
    return out


def test_version_flag(capsys):
    assert _run("--version") == 0
    out = capsys.readouterr().out
    assert "corpus format 1" in out and "checkpoint format 3" in out


def _checkout_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(robusthcn.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def test_python_dash_m_runs_the_cli():
    # a checkout runs the CLI as `PYTHONPATH=src python -m robusthcn`, no install needed
    done = subprocess.run([sys.executable, "-m", "robusthcn", "--version"], capture_output=True,
                          text=True, env=_checkout_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("robusthcn ") and "checkpoint format 3" in done.stdout


def test_importing_the_cli_leaves_out_the_process_pool():
    # only `gridsearch --jobs N` uses a process pool; every other command
    # would pay for importing it at start-up
    code = ("import sys, robusthcn.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_checkout_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_a_toy_pipeline_leaves_out_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 1.3 MB of resident memory that no
    # command needs
    config = tmp_path / "run.cfg"
    config.write_text("toy.n_dialogs = 24\ntoy.n_actions = 8\nmodel.variant = VHCN\n"
                      "turn_dropout.ratio = 0.3\ntrain.max_epochs = 1\n")
    code = ("import sys; from robusthcn.cli import main; "
            "code = main(['pipeline', '--config', sys.argv[1], '--out-dir', sys.argv[2]]); "
            "print(code, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(config), str(tmp_path / "run")],
                          capture_output=True, text=True, env=_checkout_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_no_command_prints_help(capsys):
    assert _run() == 2


def test_toy_writes_expected_files(toy_files):
    for name in ("train.txt", "dev.txt", "test.txt", "ood_pool.txt",
                 "lexicon.txt", "segment_pool.txt"):
        assert (toy_files / name).exists()
    dialogs = parse_dialogs((toy_files / "train.txt").read_text())
    assert dialogs


def test_augment_cli_deterministic(toy_files, tmp_path):
    args = [
        "augment", "--input", str(toy_files / "test.txt"),
        "--ood-pool", str(toy_files / "ood_pool.txt"),
        "--segment-pool", str(toy_files / "segment_pool.txt"),
        "--p-start", "0.3", "--p-cont", "0.4", "--seed", "5",
    ]
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert _run(*args, "--output", str(out_a), "--stats-out", str(tmp_path / "a.stats")) == 0
    assert _run(*args, "--output", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.txt.labels").read_bytes() == (tmp_path / "b.txt.labels").read_bytes()
    stats = (tmp_path / "a.stats").read_text()
    assert "blocks = " in stats and "config.augment.p_ood_start = 0.3" in stats


def test_missing_input_names_the_flag(tmp_path, capsys):
    code = _run("augment", "--input", str(tmp_path / "nope.txt"),
                "--ood-pool", str(tmp_path / "nope2.txt"),
                "--segment-pool", str(tmp_path / "nope3.txt"),
                "--output", str(tmp_path / "out.txt"))
    assert code == 1
    err = capsys.readouterr().err
    assert "--input" in err


@pytest.fixture(scope="module")
def toy_checkpoint(toy_files, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    assert _run("train", "--variant", "HCN", *_domain_flags(toy_files), "--max-epochs", "1",
                "--out-checkpoint", str(path)) == 0
    return path


_BAD_CONFIG = ("no separator\n", "line 1: expected 'key = value'")
_BAD_TRANSCRIPT = ("hello there\n", "line 1: expected a line number prefix")
_BAD_LEXICON = ("badline_without_tab\n", "line 1: expected slot_type<TAB>value")
_EMPTY_SEGMENT_POOL = ("\n", "segment pool text is empty")
_SILENT_POOL = ("1 <silence>\tcan i help you ?\n", "no usable first utterances")
_NAN_EMBEDDING = ("1 6\nalpha" + " nan" * 6 + "\n", "line 2: value nan is not finite in float32")
# case -> (a malformed file of the case's format, the error it gives), or None
# where every text is well-formed
_MALFORMED = {
    "train --config": _BAD_CONFIG,
    "gridsearch --config": _BAD_CONFIG,
    "pipeline --config": _BAD_CONFIG,
    "augment --input": _BAD_TRANSCRIPT,
    "augment --ood-pool": _SILENT_POOL,
    "augment --segment-pool": _EMPTY_SEGMENT_POOL,
    "train --train": _BAD_TRANSCRIPT,
    "train --lexicon": _BAD_LEXICON,
    "evaluate --labels": ("0\t0\n", "line 1: expected 3 tab-separated fields"),
    "evaluate --checkpoint": ("hello\n", "missing end_header marker"),
    "train --embeddings": _NAN_EMBEDDING,
    "report input": None,
    "pipeline data.train": _BAD_TRANSCRIPT,
    "pipeline data.lexicon": _BAD_LEXICON,
    "pipeline data.ood_pool": _SILENT_POOL,
    "pipeline data.segment_pool": _EMPTY_SEGMENT_POOL,
    "pipeline model.embedding_file": _NAN_EMBEDDING,
}
_INPUT_KINDS = ("missing", "directory", "not-utf-8", "malformed")


def _input_argv(case, bad, toy_files, toy_checkpoint, tmp_path):
    """The command line of ``case`` with its input at ``bad`` and every other file good."""
    command, flag = case.split(" ")
    files = {name: str(toy_files / (name + ".txt"))
             for name in ("train", "dev", "test", "lexicon", "ood_pool", "segment_pool")}
    files["input"] = files["test"]
    own = flag[2:].replace("-", "_") if flag.startswith("--") else flag.partition(".")[2]
    if own in files:
        files[own] = bad
    config = tmp_path / "run.cfg"
    if flag == "model.embedding_file":
        config.write_text("model.variant = HCN\nmodel.embedding_file = %s\ntoy.n_dialogs = 24\n"
                          "toy.n_actions = 8\ntrain.max_epochs = 1\n" % bad)
    else:
        config.write_text("".join("data.%s = %s\n" % (key, files[key]) for key in (
            "train", "dev", "test", "lexicon", "ood_pool", "segment_pool"))
            + "train.max_epochs = 1\n")
    out = str(tmp_path / "out")
    domain = ["--train", files["train"], "--dev", files["dev"], "--lexicon", files["lexicon"]]
    argv = {
        "augment": ["augment", "--input", files["input"], "--ood-pool", files["ood_pool"],
                    "--segment-pool", files["segment_pool"], "--output", out],
        "train": ["train", "--variant", "HCN", *domain, "--max-epochs", "1",
                  "--out-checkpoint", out],
        "gridsearch": ["gridsearch", *domain, "--stage1-grid", "4", "--results-out", out],
        "evaluate": ["evaluate", "--checkpoint", str(toy_checkpoint), "--test", files["test"],
                     "--report-out", out],
        "report": ["report", "--out", out],
        "pipeline": ["pipeline", "--config", str(config), "--out-dir", out],
    }[command]
    if command == "report":
        argv.append(bad)
    elif flag.startswith("--") and own not in files:
        argv += [flag, bad]  # the last of a repeated flag wins
    return argv


@pytest.mark.parametrize("kind, case", [(kind, case) for case in _MALFORMED
                                        for kind in _INPUT_KINDS
                                        if kind != "malformed" or _MALFORMED[case]])
def test_unreadable_file_names_its_flag(toy_files, toy_checkpoint, tmp_path, capsys, case, kind):
    bad = {"missing": str(tmp_path / "nope"), "directory": str(tmp_path)}.get(
        kind, str(tmp_path / "bad"))
    if kind == "not-utf-8":
        (tmp_path / "bad").write_bytes(b"\xff\xfe\nend_header\n")
    elif kind == "malformed":
        (tmp_path / "bad").write_text(_MALFORMED[case][0])
    argv = _input_argv(case, bad, toy_files, toy_checkpoint, tmp_path)
    capsys.readouterr()
    assert _run(*argv) == 1
    out, err = capsys.readouterr()
    flag = case.split(" ")[1]
    expected = {"missing": "cannot read ", "directory": "cannot read ",
                "not-utf-8": "'utf-8' codec can't decode byte 0xff"}.get(kind)
    assert (expected or _MALFORMED[case][1]) in err
    assert flag in err and repr(bad) in err, err
    assert "Traceback" not in out + err and "[Errno" not in err
    assert len(err.strip().split("\n")) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("case", ["augment --output", "augment --labels-out",
                                  "train --out-checkpoint", "report --out"])
@pytest.mark.parametrize("kind", ["new-directory", "directory"])
def test_output_path_creates_its_directory(toy_files, tmp_path, capsys, case, kind):
    (tmp_path / "record.txt").write_text("model = m\n")
    target = tmp_path / "new" / "dir" / "file" if kind == "new-directory" else tmp_path / "old"
    (tmp_path / "old").mkdir()
    command, flag = case.split(" ")
    argv = {
        "augment": ["augment", "--input", str(toy_files / "test.txt"),
                    "--ood-pool", str(toy_files / "ood_pool.txt"),
                    "--segment-pool", str(toy_files / "segment_pool.txt"),
                    "--output", str(tmp_path / "aug.txt")],
        "train": ["train", "--variant", "HCN", *_domain_flags(toy_files), "--max-epochs", "1",
                  "--out-checkpoint", str(tmp_path / "m.ckpt")],
        "report": ["report", str(tmp_path / "record.txt")],
    }[command] + [flag, str(target)]  # the last of a repeated flag wins
    code = _run(*argv)
    err = capsys.readouterr().err
    if kind == "new-directory":
        assert code == 0 and target.is_file(), err
    else:
        assert code == 1 and err == "error: cannot write %r: Is a directory\n" % str(target)


def test_train_evaluate_report_chain(toy_files, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    history = tmp_path / "history.txt"
    code = _run(
        "train", "--variant", "HCN",
        "--train", str(toy_files / "train.txt"), "--dev", str(toy_files / "dev.txt"),
        "--lexicon", str(toy_files / "lexicon.txt"),
        "--vocab-corpus", str(toy_files / "test.txt"),
        "--actions-corpus", str(toy_files / "test.txt"),
        "--td-ratio", "0.0", "--max-epochs", "2", "--seed", "7", "--patience", "7",
        "--out-checkpoint", str(ckpt), "--history-out", str(history),
    )
    assert code == 0
    assert ckpt.exists()
    lines = history.read_text().split("\n")
    assert lines[0] == "epoch\ttrain_loss\tdev_acc\tkl_mean"
    assert len([l for l in lines if l and not l.startswith("#")]) == 3  # header + 2 epochs
    # every resolved training value is recorded, under the TrainConfig field's name
    assert [l for l in lines if l.startswith("# config.")] == [
        "# config.train.dev_turn_dropout = True", "# config.train.learning_rate = 0.001",
        "# config.train.max_epochs = 2", "# config.train.patience = 7",
        "# config.train.seed = 7", "# config.train.turn_dropout_ratio = 0.0",
        "# config.train.turn_dropout_unk_prob = 0.5", "# config.train.word_dropout = 0.2"]

    report = tmp_path / "report.txt"
    code = _run("evaluate", "--checkpoint", str(ckpt),
                "--plain-test", str(toy_files / "test.txt"),
                "--report-out", str(report), "--model-name", "HCN")
    assert code == 0
    record = parse_report(report.read_text())
    assert record["model"] == "HCN"
    assert "plain.overall_acc" in record
    assert "config.checkpoint.train.max_epochs = 2\n" in report.read_text()
    assert "config.checkpoint.train.patience = 7\n" in report.read_text()

    table = tmp_path / "table.txt"
    csv = tmp_path / "table.csv"
    assert _run("report", str(report), "--out", str(table), "--csv-out", str(csv)) == 0
    assert "HCN" in table.read_text()
    assert csv.read_text().startswith("model,")


def test_evaluate_requires_some_test(toy_files, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    _run("train", "--variant", "HCN",
         "--train", str(toy_files / "train.txt"), "--dev", str(toy_files / "dev.txt"),
         "--lexicon", str(toy_files / "lexicon.txt"),
         "--td-ratio", "0.0", "--max-epochs", "1", "--seed", "1",
         "--out-checkpoint", str(ckpt))
    assert _run("evaluate", "--checkpoint", str(ckpt), "--report-out",
                str(tmp_path / "r.txt")) == 1
    assert "--test" in capsys.readouterr().err


def test_evaluate_rejects_labels_it_cannot_apply(toy_files, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert _run("train", "--variant", "HCN", *_domain_flags(toy_files), "--max-epochs", "1",
                "--out-checkpoint", str(ckpt)) == 0
    labels = tmp_path / "test.labels"
    labels.write_text("999\t0\tIND\n")
    one_turn = tmp_path / "one_turn.txt"
    one_turn.write_text("1 hello\tcan i help you ?\n")
    short = tmp_path / "short.labels"
    short.write_text("0\t0\tIND\n0\t1\tIND\n")
    cases = [
        # without --test, whether or not the sidecar exists
        (["--plain-test", str(toy_files / "test.txt"), "--labels", str(tmp_path / "missing")],
         "error: --labels requires --test (it labels the --test transcript)\n"),
        (["--plain-test", str(toy_files / "test.txt"), "--labels", str(labels)],
         "error: --labels requires --test (it labels the --test transcript)\n"),
        # a dialog the --test transcript does not have
        (["--test", str(toy_files / "test.txt"), "--labels", str(labels)],
         "error: --labels file %r: labels name dialog 999, which the transcript does not have\n"
         % str(labels)),
        # a sidecar whose dialog 0 has more turns than the transcript's
        (["--test", str(one_turn), "--labels", str(short)],
         "error: --labels file %r: labels do not match dialog 0\n" % str(short)),
    ]
    capsys.readouterr()
    for flags, message in cases:
        assert _run("evaluate", "--checkpoint", str(ckpt), *flags,
                    "--report-out", str(tmp_path / "r.txt")) == 1
        assert capsys.readouterr().err == message
    assert not (tmp_path / "r.txt").exists()


def test_train_config_file_precedence(toy_files, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("model.variant = HCN\ntrain.max_epochs = 1\nturn_dropout.ratio = 0\n"
                   "train.seed = 4\n")
    base = ["train", "--config", str(cfg),
            "--train", str(toy_files / "train.txt"), "--dev", str(toy_files / "dev.txt"),
            "--lexicon", str(toy_files / "lexicon.txt")]
    hist_a = tmp_path / "a.hist"
    assert _run(*base, "--out-checkpoint", str(tmp_path / "a.ckpt"),
                "--history-out", str(hist_a)) == 0
    epochs_a = [l for l in hist_a.read_text().split("\n")[1:] if l and not l.startswith("#")]
    assert len(epochs_a) == 1  # file value used
    hist_b = tmp_path / "b.hist"
    assert _run(*base, "--max-epochs", "2",
                "--out-checkpoint", str(tmp_path / "b.ckpt"),
                "--history-out", str(hist_b)) == 0
    epochs_b = [l for l in hist_b.read_text().split("\n")[1:] if l and not l.startswith("#")]
    assert len(epochs_b) == 2  # flag overrides the file


def test_gridsearch_cli(toy_files, tmp_path):
    results = tmp_path / "grid.tsv"
    code = _run(
        "gridsearch", "--variant", "HCN",
        "--train", str(toy_files / "train.txt"), "--dev", str(toy_files / "dev.txt"),
        "--lexicon", str(toy_files / "lexicon.txt"),
        "--stage1-grid", "8", "--stage2-grid", "0.2,0.4",
        "--max-epochs", "1", "--seed", "2", "--results-out", str(results),
    )
    assert code == 0
    lines = [l for l in results.read_text().split("\n") if l and not l.startswith("#")]
    assert lines[0].startswith("stage\t")
    assert len(lines) == 1 + 3  # header + one stage-1 cell + two stage-2 cells


def _without_seconds(results):
    """The result file's lines with each cell row's trailing seconds column cut off."""
    return [line if line.startswith("#") else line.rsplit("\t", 1)[0]
            for line in results.read_text().splitlines()]


def test_gridsearch_pool_writes_the_serial_result_file(toy_files, tmp_path, capsys):
    outputs = []
    for jobs in ("1", "2"):
        results = tmp_path / ("grid-jobs%s.tsv" % jobs)
        code = _run("gridsearch", "--variant", "VHCN", *_domain_flags(toy_files),
                    "--stage1-grid", "8:2,12:3", "--stage2-grid", "0.2,0.4",
                    "--max-epochs", "2", "--seed", "4", "--jobs", jobs,
                    "--results-out", str(results))
        assert code == 0
        outputs.append((_without_seconds(results), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    lines = outputs[0][0]
    assert len(lines) == 1 + 4 + 4  # header, two cells per stage, three best_* lines and seed
    assert [line.split("\t")[0] for line in lines[1:5]] == ["1", "1", "2", "2"]


def test_pipeline_and_rerun_identical(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "run.seed = 11\n"
        "toy.n_dialogs = 24\n"
        "toy.n_actions = 8\n"
        "model.variant = HCN\n"
        "turn_dropout.ratio = 0.3\n"
        "train.max_epochs = 2\n"
        "# comment lines are fine\n"
    )
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert _run("pipeline", "--config", str(config), "--out-dir", str(out_a)) == 0
    assert _run("pipeline", "--config", str(config), "--out-dir", str(out_b)) == 0
    for name in ("test_ood.txt", "test_ood.labels", "report.txt", "augment_stats.txt",
                 "results_table.csv", "run_config.txt"):
        assert (out_a / name).exists(), name
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    record = parse_report((out_a / "report.txt").read_text())
    assert record["model"] == "TD-HCN"
    assert "augmented.ood_f1" in record and "plain.overall_acc" in record
    assert record["config.run.seed"] == "11"


@pytest.mark.parametrize("toy_seed, augment_seed", [("3", "5"), (None, None)],
                         ids=["seeds-set", "seeds-from-run-seed"])
def test_toy_and_augment_write_what_the_pipeline_writes(tmp_path, toy_seed, augment_seed):
    # the subcommands and the pipeline run one toy stage and one augment stage
    seeds = {"toy.seed": toy_seed, "augment.seed": augment_seed}
    config = tmp_path / "run.cfg"
    config.write_text("toy.n_dialogs = 24\ntoy.n_actions = 8\naugment.p_ood_start = 0.3\n"
                      "train.max_epochs = 1\n"
                      + "".join("%s = %s\n" % kv for kv in seeds.items() if kv[1] is not None))
    run, data = tmp_path / "run", tmp_path / "data"
    assert _run("pipeline", "--config", str(config), "--out-dir", str(run)) == 0
    assert _run("toy", "--out-dir", str(data), "--n-dialogs", "24", "--n-actions", "8",
                *(["--seed", toy_seed] if toy_seed else [])) == 0
    assert _run("augment", "--input", str(data / "test.txt"),
                "--ood-pool", str(data / "ood_pool.txt"),
                "--segment-pool", str(data / "segment_pool.txt"), "--p-start", "0.3",
                *(["--seed", augment_seed] if augment_seed else []),
                "--output", str(tmp_path / "test_ood.txt"),
                "--labels-out", str(tmp_path / "test_ood.labels"),
                "--stats-out", str(tmp_path / "augment_stats.txt")) == 0
    assert sorted(os.listdir(data)) == sorted(os.listdir(run / "data"))
    for name in os.listdir(data):
        assert (data / name).read_bytes() == (run / "data" / name).read_bytes(), name
    for name in ("test_ood.txt", "test_ood.labels"):
        assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), name
    # the stats agree; the configuration echoes that follow them do not
    stats_a, stats_b = ([line for line in (path / "augment_stats.txt").read_text().splitlines()
                         if not line.startswith("config.")] for path in (tmp_path, run))
    assert stats_a == stats_b and stats_a[0] == "dialogs = 2"


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.parse("nonsense.key = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.parse("augment.p_ood_start = not-a-number\n")


def test_config_overrides_and_defaults():
    config = RunConfig.parse("augment.p_ood_start = 0.5\n")
    assert config.get("augment.p_ood_start") == 0.5
    assert config.get("augment.p_ood_cont") == 0.4  # default
    merged = config.with_overrides({"augment.p_ood_start": 0.7, "run.seed": None})
    assert merged.get("augment.p_ood_start") == 0.7
    assert config.get("augment.p_ood_start") == 0.5  # original untouched
    # derived stage seeds are stable and distinct per stage
    assert config.seed_for("augment") == config.seed_for("augment")
    assert config.seed_for("augment") != config.seed_for("train")
    pinned = config.with_overrides({"augment.seed": 123})
    assert pinned.seed_for("augment") == 123


def _domain_flags(toy_files):
    return ["--train", str(toy_files / "train.txt"), "--dev", str(toy_files / "dev.txt"),
            "--lexicon", str(toy_files / "lexicon.txt")]


def test_train_max_epochs_zero_is_an_error(toy_files, tmp_path, capsys):
    code = _run("train", "--variant", "HCN", *_domain_flags(toy_files), "--max-epochs", "0",
                "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert code == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("bad_line, message", [
    ("badline_without_tab", "expected slot_type<TAB>value"),
    ("Cuisine\titalian", "bad slot type 'Cuisine'"),
    ("cuisine\t ", "empty value under slot 'cuisine'"),
])
def test_train_names_the_bad_lexicon_line(toy_files, tmp_path, capsys, bad_line, message):
    good = (toy_files / "lexicon.txt").read_text().splitlines()
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("\n".join(good + [bad_line]) + "\n")
    code = _run("train", "--variant", "HCN", "--train", str(toy_files / "train.txt"),
                "--dev", str(toy_files / "dev.txt"), "--lexicon", str(lexicon),
                "--max-epochs", "1", "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert code == 1
    assert capsys.readouterr().err == "error: --lexicon file %r: line %d: %s\n" % (
        str(lexicon), len(good) + 1, message)


def test_train_names_the_bad_transcript_file(toy_files, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("hello there\n")
    good = {"--train": str(toy_files / "train.txt"), "--dev": str(toy_files / "dev.txt")}
    for flag in ("--train", "--dev"):
        files = dict(good, **{flag: str(bad)})
        code = _run("train", "--variant", "HCN", "--train", files["--train"],
                    "--dev", files["--dev"], "--lexicon", str(toy_files / "lexicon.txt"),
                    "--max-epochs", "1", "--out-checkpoint", str(tmp_path / "m.ckpt"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: %s file %r: line 1: expected a line number prefix\n" % (flag, str(bad)))
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_gridsearch_jobs_below_one_is_an_error(toy_files, tmp_path, capsys, jobs):
    code = _run("gridsearch", "--variant", "HCN", *_domain_flags(toy_files), "--stage1-grid", "8",
                "--jobs", jobs, "--results-out", str(tmp_path / "grid.tsv"))
    assert code == 1
    assert capsys.readouterr().err == "error: --jobs must be at least 1\n"
    assert not (tmp_path / "grid.tsv").exists()


@pytest.mark.parametrize("rate", ["-1", "0", "nan", "inf"])
def test_train_rejects_a_learning_rate_that_is_not_positive_and_finite(toy_files, tmp_path,
                                                                      capsys, rate):
    config = tmp_path / "train.cfg"
    config.write_text("train.learning_rate = %s\n" % rate)
    for source in (["--learning-rate", rate], ["--config", str(config)]):
        code = _run("train", "--variant", "HCN", *_domain_flags(toy_files), *source,
                    "--max-epochs", "1", "--out-checkpoint", str(tmp_path / "m.ckpt"))
        assert code == 1, source
        assert capsys.readouterr().err.startswith("error: learning_rate must be a finite "
                                                  "number above 0"), source
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("flag, grid, message", [
    ("--stage1-grid", "8,abc", "--stage1-grid item 'abc' is not EMBEDDING or "
                               "EMBEDDING:LATENT in integers"),
    ("--stage1-grid", "8:", "--stage1-grid item '8:' is not EMBEDDING or "
                            "EMBEDDING:LATENT in integers"),
    ("--stage2-grid", "0.2,x", "--stage2-grid item 'x' is not a number"),
], ids=["stage1-word", "stage1-empty-latent", "stage2-word"])
def test_gridsearch_names_the_bad_grid_item(toy_files, tmp_path, capsys, flag, grid, message):
    grids = {"--stage1-grid": "8", "--stage2-grid": "0.2", flag: grid}
    code = _run("gridsearch", "--variant", "HCN", *_domain_flags(toy_files),
                *[a for item in grids.items() for a in item],
                "--results-out", str(tmp_path / "grid.tsv"))
    assert code == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "grid.tsv").exists()


def test_evaluate_unknown_action_is_an_error(toy_files, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert _run("train", "--variant", "HCN", *_domain_flags(toy_files), "--max-epochs", "1",
                "--out-checkpoint", str(ckpt)) == 0
    capsys.readouterr()
    # the foreign pool's system turns are outside the checkpoint's action set
    code = _run("evaluate", "--checkpoint", str(ckpt),
                "--plain-test", str(toy_files / "ood_pool.txt"),
                "--report-out", str(tmp_path / "r.txt"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown action template")


@pytest.mark.parametrize("variant", ["HHCN", "VHCN"])
def test_train_rejects_embeddings_outside_hcn(toy_files, tmp_path, capsys, variant):
    emb = tmp_path / "emb.txt"
    emb.write_text("1 2\nhello 0.1 0.2\n")
    code = _run("train", "--variant", variant, *_domain_flags(toy_files),
                "--embeddings", str(emb), "--max-epochs", "1",
                "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert code == 1
    assert "error: model.embedding_file applies to HCN only" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["HCN", "HHCN"])
def test_train_rejects_latent_size_outside_vhcn(toy_files, tmp_path, capsys, variant):
    code = _run("train", "--variant", variant, *_domain_flags(toy_files),
                "--latent-size", "4", "--max-epochs", "1",
                "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert code == 1
    assert "error: latent_size is only valid for VHCN" in capsys.readouterr().err


def test_pipeline_rejects_latent_size_outside_vhcn(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("model.variant = HHCN\nmodel.latent_size = 4\ntoy.n_dialogs = 24\n"
                      "toy.n_actions = 8\ntrain.max_epochs = 1\n")
    code = _run("pipeline", "--config", str(config), "--out-dir", str(tmp_path / "run"))
    assert code == 1
    assert "error: stage setup: latent_size is only valid for VHCN" in capsys.readouterr().err


def test_pipeline_rejects_toy_keys_with_data_files(toy_files, tmp_path, capsys):
    # generate_toy_domain itself would reject 7 dialogs; here no toy domain is made
    config = tmp_path / "run.cfg"
    config.write_text(_data_keys(toy_files) + "toy.n_dialogs = 7\ntoy.seed = 4\n"
                      "train.max_epochs = 1\n")
    code = _run("pipeline", "--config", str(config), "--out-dir", str(tmp_path / "run"))
    assert code == 1
    assert capsys.readouterr().err == ("error: stage data: toy.n_dialogs, toy.seed do not apply "
                                       "when data.train is set\n")
    assert not (tmp_path / "run").exists()


def test_pipeline_rejects_data_keys_without_data_train(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("data.dev = %s\ndata.lexicon = lex.txt\ntoy.n_dialogs = 24\n"
                      "toy.n_actions = 8\ntrain.max_epochs = 1\n" % (tmp_path / "nonexistent.txt"))
    code = _run("pipeline", "--config", str(config), "--out-dir", str(tmp_path / "run"))
    assert code == 1
    assert capsys.readouterr().err == ("error: stage data: data.dev, data.lexicon do not apply "
                                       "when data.train is not set\n")
    assert not (tmp_path / "run").exists()


def test_train_loads_hcn_embeddings(toy_files, tmp_path):
    emb = tmp_path / "emb.txt"
    emb.write_text("2 6\n<unk> 1 2 3 4 5 6\nzzz-not-in-vocab 0 0 0 0 0 0\n")
    ckpt = tmp_path / "m.ckpt"
    assert _run("train", "--variant", "HCN", *_domain_flags(toy_files), "--seed", "3",
                "--embedding-size", "6", "--embeddings", str(emb), "--max-epochs", "1",
                "--out-checkpoint", str(ckpt)) == 0
    loaded = load_checkpoint(ckpt)
    expected = load_embedding_table(emb, loaded.vocab, seed=3)
    assert (loaded.arrays["embedding"] == expected).all()
    assert loaded.arrays["embedding"][0].tolist() == [1, 2, 3, 4, 5, 6]


class _Captured(Exception):
    pass


def test_train_and_pipeline_resolve_the_same_configs(toy_files, tmp_path, monkeypatch):
    seen = []

    def capture(model_config, train_config, *args, **kwargs):
        seen.append((model_config, train_config))
        raise _Captured

    monkeypatch.setattr(cli, "train_model", capture)
    config = tmp_path / "run.cfg"
    config.write_text("run.seed = 5\ntoy.n_dialogs = 24\ntoy.n_actions = 8\n"
                      "model.variant = VHCN\nmodel.latent_size = 4\n"
                      "model.dialog_hidden_size = 16\nturn_dropout.unk_prob = 0.3\n"
                      "train.dev_turn_dropout = false\ntrain.learning_rate = 0.002\n")
    with pytest.raises(_Captured):
        _run("train", "--config", str(config), *_domain_flags(toy_files),
             "--out-checkpoint", str(tmp_path / "m.ckpt"))
    with pytest.raises(_Captured):
        _run("pipeline", "--config", str(config), "--out-dir", str(tmp_path / "run"))
    assert len(seen) == 2
    assert seen[0] == seen[1]
    model_config, train_config = seen[0]
    assert (model_config.latent_size, model_config.dialog_hidden_size) == (4, 16)
    assert train_config.dev_turn_dropout is False


def test_plain_dev_selection_flag_maps_to_the_config_key(toy_files, tmp_path, monkeypatch):
    seen = []

    def capture(model_config, train_config, *args, **kwargs):
        seen.append(train_config)
        raise _Captured

    monkeypatch.setattr(cli, "train_model", capture)
    for extra in ([], ["--plain-dev-selection"]):
        with pytest.raises(_Captured):
            _run("train", "--variant", "HCN", *_domain_flags(toy_files), *extra,
                 "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert [c.dev_turn_dropout for c in seen] == [True, False]


# the flags of toy, augment, train, gridsearch and pipeline that set no configuration key
_NOT_KEYS = {"help", "config", "train", "dev", "lexicon", "vocab_corpus", "actions_corpus",
             "out_checkpoint", "history_out", "stage1_grid", "stage2_grid", "jobs", "results_out",
             "out_dir", "input", "ood_pool", "segment_pool", "output", "labels_out", "stats_out"}


def test_every_key_flag_sets_its_key():
    # a flag that sets a configuration key names the key as its dest; no training runs
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    required = {"toy": ["--out-dir", "o"],
                "augment": ["--input", "i", "--ood-pool", "p", "--segment-pool", "s",
                            "--output", "o"],
                "train": ["--train", "t", "--dev", "d", "--lexicon", "l", "--out-checkpoint", "c"],
                "gridsearch": ["--train", "t", "--dev", "d", "--lexicon", "l",
                               "--stage1-grid", "4", "--results-out", "r"],
                "pipeline": []}
    for command, argv in required.items():
        expected = {}
        for action in subs[command]._actions:
            if "." not in action.dest:
                assert action.dest in _NOT_KEYS, (command, action.dest)
                continue
            assert action.dest in KNOWN_KEYS, (command, action.dest)
            if action.nargs == 0:
                argv, expected[action.dest] = argv + action.option_strings[:1], action.const
                continue
            text = (action.choices[-1] if action.choices
                    else {int: "7", float: "0.5"}.get(action.type, "x"))
            argv = argv + [action.option_strings[0], text]
            expected[action.dest] = (action.type or str)(text)
        config = cli._load_config(cli.build_parser().parse_args([command] + argv))
        assert {key: config.get(key) for key in expected} == expected, command
        assert len(expected) == {"toy": 3, "augment": 5, "train": 12, "gridsearch": 9,
                                 "pipeline": 5}[command]


def test_gridsearch_reads_model_sizes_from_config(toy_files, tmp_path, monkeypatch):
    seen = []

    def fake_train(model_config, train_config, *args, **kwargs):
        seen.append(model_config)
        history = train.TrainHistory(best_epoch=0)
        history.epochs.append(train.EpochRecord(epoch=0, train_loss=1.0, dev_acc=0.5,
                                                kl_mean=0.0))
        return None, history

    monkeypatch.setattr(train, "train_model", fake_train)
    config = tmp_path / "grid.cfg"
    config.write_text("model.dialog_hidden_size = 16\nmodel.predictor_hidden_size = 12\n")
    assert _run("gridsearch", "--config", str(config), "--variant", "HCN",
                *_domain_flags(toy_files), "--stage1-grid", "8,12", "--stage2-grid", "0.2",
                "--results-out", str(tmp_path / "grid.tsv")) == 0
    assert len(seen) == 3
    assert all((c.dialog_hidden_size, c.predictor_hidden_size) == (16, 12) for c in seen)


def test_gridsearch_rejects_model_keys_it_sets(toy_files, tmp_path, capsys):
    # (key line, variant the key applies to, stage-1 grid for that variant)
    cases = {
        "model.embedding_file": ("model.embedding_file = %s" % (tmp_path / "missing.emb"),
                                 "HCN", "8"),
        "model.embedding_size": ("model.embedding_size = 99", "HCN", "8"),
        "model.latent_size": ("model.latent_size = 3", "VHCN", "8:2"),
    }
    for key, (line, variant, grid) in cases.items():
        config = tmp_path / "grid.cfg"
        config.write_text(line + "\n")
        code = _run("gridsearch", "--config", str(config), "--variant", variant,
                    *_domain_flags(toy_files), "--stage1-grid", grid, "--stage2-grid", "0.2",
                    "--max-epochs", "1", "--results-out", str(tmp_path / "grid.tsv"))
        assert code == 1, key
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err


def _embeddings_of(toy_files, path, value):
    # one row of ``value`` for every token the toy files use, reserved tokens included
    tokens = {"<unk>", "<silence>"}
    for name in ("train.txt", "dev.txt", "test.txt"):
        tokens.update(tok for d in parse_dialogs((toy_files / name).read_text())
                      for t in d.turns for tok in t.user_tokens)
    path.write_text("%d 6\n" % len(tokens)
                    + "".join("%s%s\n" % (tok, (" " + value) * 6) for tok in sorted(tokens)))
    return path


def _overflowing_embeddings(toy_files, path):
    # finite in float32, but a turn mean of two of them is already inf
    return _embeddings_of(toy_files, path, "3e38")


def test_train_divergence_is_an_error(toy_files, tmp_path, capsys):
    emb = _overflowing_embeddings(toy_files, tmp_path / "big.emb")
    code = _run("train", "--variant", "HCN", *_domain_flags(toy_files),
                "--embedding-size", "6", "--embeddings", str(emb), "--max-epochs", "1",
                "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: non-finite loss at epoch 0")
    assert not (tmp_path / "m.ckpt").exists()


def _data_keys(toy_files):
    # configuration lines that read every pipeline input from the toy files
    return "".join("data.%s = %s\n" % (key, toy_files / name) for key, name in (
        ("train", "train.txt"), ("dev", "dev.txt"), ("test", "test.txt"),
        ("lexicon", "lexicon.txt"), ("ood_pool", "ood_pool.txt"),
        ("segment_pool", "segment_pool.txt")))


def test_pipeline_divergence_names_the_stage(toy_files, tmp_path, capsys):
    emb = _overflowing_embeddings(toy_files, tmp_path / "big.emb")
    config = tmp_path / "run.cfg"
    config.write_text(
        _data_keys(toy_files)
        + "model.variant = HCN\nmodel.embedding_size = 6\nmodel.embedding_file = %s\n"
          "train.max_epochs = 1\n" % emb)
    code = _run("pipeline", "--config", str(config), "--out-dir", str(tmp_path / "run"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: stage train: non-finite loss at epoch 0")


def test_train_rejects_nonfinite_embeddings(toy_files, tmp_path, capsys):
    emb = _embeddings_of(toy_files, tmp_path / "nan.emb", "nan")
    code = _run("train", "--variant", "HCN", *_domain_flags(toy_files),
                "--embedding-size", "6", "--embeddings", str(emb), "--max-epochs", "1",
                "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert code == 1
    assert capsys.readouterr().err == (
        "error: --embeddings / model.embedding_file file %r: line 2: value nan is not finite "
        "in float32\n" % str(emb))
    assert not (tmp_path / "m.ckpt").exists()


def test_evaluate_rejects_a_corrupt_label_line(toy_files, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert _run("train", "--variant", "HCN", *_domain_flags(toy_files), "--max-epochs", "1",
                "--out-checkpoint", str(ckpt)) == 0
    labels = tmp_path / "test.labels"
    labels.write_text("0\t0\n")
    capsys.readouterr()
    code = _run("evaluate", "--checkpoint", str(ckpt), "--test", str(toy_files / "test.txt"),
                "--labels", str(labels), "--report-out", str(tmp_path / "r.txt"))
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: --labels file %r: line 1: expected 3 tab-separated fields" % str(labels))
