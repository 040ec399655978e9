import pytest

from robusthcn import cli, train
from robusthcn.cli import main
from robusthcn.config import ConfigError, RunConfig
from robusthcn.corpus import load_embedding_table, parse_dialogs
from robusthcn.evaluation import parse_report
from robusthcn.models import load_checkpoint


def _run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("toydata")
    code = _run("toy", "--out-dir", str(out), "--seed", "3", "--n-dialogs", "24",
                "--n-actions", "8", "--foreign-per-domain", "10")
    assert code == 0
    return out


def test_version_flag(capsys):
    assert _run("--version") == 0
    out = capsys.readouterr().out
    assert "corpus format 1" in out and "checkpoint format 1" in out


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
    assert "blocks = " in stats and "config.p_ood_start = 0.3" in stats


def test_missing_input_names_the_flag(tmp_path, capsys):
    code = _run("augment", "--input", str(tmp_path / "nope.txt"),
                "--ood-pool", str(tmp_path / "nope2.txt"),
                "--segment-pool", str(tmp_path / "nope3.txt"),
                "--output", str(tmp_path / "out.txt"))
    assert code == 1
    err = capsys.readouterr().err
    assert "--input" in err


def test_train_evaluate_report_chain(toy_files, tmp_path):
    ckpt = tmp_path / "model.ckpt"
    history = tmp_path / "history.txt"
    code = _run(
        "train", "--variant", "HCN",
        "--train", str(toy_files / "train.txt"), "--dev", str(toy_files / "dev.txt"),
        "--lexicon", str(toy_files / "lexicon.txt"),
        "--vocab-corpus", str(toy_files / "test.txt"),
        "--actions-corpus", str(toy_files / "test.txt"),
        "--td-ratio", "0.0", "--max-epochs", "2", "--seed", "7",
        "--out-checkpoint", str(ckpt), "--history-out", str(history),
    )
    assert code == 0
    assert ckpt.exists()
    lines = history.read_text().split("\n")
    assert lines[0] == "epoch\ttrain_loss\tdev_acc\tkl_mean"
    assert len([l for l in lines if l and not l.startswith("#")]) == 3  # header + 2 epochs

    report = tmp_path / "report.txt"
    code = _run("evaluate", "--checkpoint", str(ckpt),
                "--plain-test", str(toy_files / "test.txt"),
                "--report-out", str(report), "--model-name", "HCN")
    assert code == 0
    record = parse_report(report.read_text())
    assert record["model"] == "HCN"
    assert "plain.overall_acc" in record

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


def test_train_loads_hcn_embeddings(toy_files, tmp_path):
    emb = tmp_path / "emb.txt"
    emb.write_text("2 6\n<unk> 1 2 3 4 5 6\nzzz-not-in-vocab 0 0 0 0 0 0\n")
    ckpt = tmp_path / "m.ckpt"
    assert _run("train", "--variant", "HCN", *_domain_flags(toy_files), "--seed", "3",
                "--embedding-size", "6", "--embeddings", str(emb), "--max-epochs", "1",
                "--out-checkpoint", str(ckpt)) == 0
    loaded = load_checkpoint(ckpt)
    expected = load_embedding_table(emb, loaded.vocab, seed=3)
    assert (loaded.arrays["embedding"] == expected.vectors).all()
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
