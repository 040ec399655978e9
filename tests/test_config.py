"""The RunConfig -> (ModelConfig, TrainConfig) resolver."""

import pytest

from robusthcn import cli
from robusthcn.config import KNOWN_KEYS, ConfigError, RunConfig, resolve_training
from robusthcn.corpus import Vocabulary, random_embedding_table, write_embedding_file
from robusthcn.models import ModelConfig
from robusthcn.train import DEFAULT_TURN_DROPOUT_RATIO, TrainConfig

TRAINING_KEYS = sorted(k for k in KNOWN_KEYS if k.split(".")[0] in ("model", "train",
                                                                    "turn_dropout"))

# a value different from the default for every training key
NON_DEFAULT = {
    "model.variant": "HHCN",
    "model.embedding_size": 7,
    "model.latent_size": 5,
    "model.dialog_hidden_size": 16,
    "model.predictor_hidden_size": 24,
    "model.embedding_file": "emb.txt",
    "train.learning_rate": 0.01,
    "train.patience": 3,
    "train.word_dropout": 0.1,
    "train.max_epochs": 4,
    "train.seed": 12345,
    "train.dev_turn_dropout": False,
    "turn_dropout.ratio": 0.25,
    "turn_dropout.unk_prob": 0.9,
}


def test_defaults_resolve_to_the_dataclass_defaults():
    model_config, train_config = resolve_training(RunConfig())
    assert model_config == ModelConfig("HCN")
    assert train_config == TrainConfig.for_variant("HCN", seed=RunConfig().seed_for("train"))


@pytest.mark.parametrize("variant", sorted(DEFAULT_TURN_DROPOUT_RATIO))
def test_turn_dropout_ratio_defaults_per_variant(variant):
    _, train_config = resolve_training(RunConfig({"model.variant": variant}))
    assert train_config.turn_dropout_ratio == DEFAULT_TURN_DROPOUT_RATIO[variant]
    _, pinned = resolve_training(RunConfig({"model.variant": variant,
                                            "turn_dropout.ratio": 0.0}))
    assert pinned.turn_dropout_ratio == 0.0


@pytest.mark.parametrize("key", TRAINING_KEYS)
def test_every_training_key_changes_what_is_resolved(key, tmp_path):
    base = RunConfig({"model.variant": "VHCN" if key == "model.latent_size" else "HCN"})
    changed = base.with_overrides({key: NON_DEFAULT[key]})
    if key == "model.embedding_file":
        # the table is aligned with the vocabulary, so it loads after prepare
        vocab = Vocabulary(["a", "b"])
        path = tmp_path / "emb.txt"
        write_embedding_file(path, vocab, random_embedding_table(vocab, 64, seed=1))
        changed = base.with_overrides({key: str(path)})
        assert cli._embedding_table(base, vocab) is None
        assert cli._embedding_table(changed, vocab).vectors.shape == (len(vocab), 64)
    else:
        assert resolve_training(changed) != resolve_training(base)


@pytest.mark.parametrize("variant", ["HCN", "HHCN"])
def test_latent_size_rejected_outside_vhcn(variant):
    with pytest.raises(ConfigError, match="latent_size"):
        resolve_training(RunConfig({"model.variant": variant, "model.latent_size": 4}))


@pytest.mark.parametrize("variant", ["HHCN", "VHCN"])
def test_embedding_file_rejected_outside_hcn(variant):
    with pytest.raises(ConfigError, match="model.embedding_file"):
        resolve_training(RunConfig({"model.variant": variant,
                                    "model.embedding_file": "emb.txt"}))


def test_invalid_training_values_are_config_errors():
    for values in ({"model.variant": "LSTM"}, {"train.max_epochs": 0},
                   {"train.patience": 0}, {"turn_dropout.ratio": 1.5}):
        with pytest.raises(ConfigError):
            resolve_training(RunConfig(values))


def test_turn_dropout_seed_is_not_a_key():
    # turn dropout draws from the train seed's streams; a separate seed
    # key would be read by nothing
    with pytest.raises(ConfigError):
        RunConfig.parse("turn_dropout.seed = 3\n")
