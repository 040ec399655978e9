"""The RunConfig -> (ModelConfig, TrainConfig) resolver."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from robusthcn import cli
from robusthcn.config import KNOWN_KEYS, ConfigError, RunConfig, _bool, resolve_training
from robusthcn.corpus import Vocabulary
from robusthcn.models import ModelConfig
from robusthcn.train import DEFAULT_TURN_DROPOUT_RATIO, TrainConfig

from util import random_embedding_table, write_embedding_file

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
        assert cli._embedding_table(changed, vocab).shape == (len(vocab), 64)
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
                   {"train.patience": 0}, {"turn_dropout.ratio": 1.5},
                   {"model.variant": "HHCN", "model.embedding_size": 0}):
        with pytest.raises(ConfigError):
            resolve_training(RunConfig(values))


def test_turn_dropout_seed_is_not_a_key():
    # turn dropout draws from the train seed's streams; a separate seed
    # key would be read by nothing
    with pytest.raises(ConfigError):
        RunConfig.parse("turn_dropout.seed = 3\n")


# ------------------------------------------------------ parsing properties

# a value as a config file can hold it: one line, no surrounding blanks
_LINE_TEXT = st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)))
_VALID = {
    int: st.integers(-10**12, 10**12),
    float: st.floats(allow_nan=False, allow_infinity=False),
    _bool: st.booleans(),
    str: _LINE_TEXT.map(str.strip),
}


def _parses(parser, text):
    try:
        parser(text)
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_config_text_round_trip_property(data):
    keys = data.draw(st.lists(st.sampled_from(sorted(KNOWN_KEYS)), unique=True), label="keys")
    values = {key: data.draw(_VALID[KNOWN_KEYS[key][0]], label=key) for key in keys}
    text = "".join("%s = %s\n" % (key, value) for key, value in values.items())
    config = RunConfig.parse(text)
    assert config.values == values
    echoed = RunConfig.parse("\n".join(config.echo_lines(prefix="")))
    for key in KNOWN_KEYS:
        if key != "pipeline.out_dir":
            assert echoed.get(key) == config.get(key), key


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_config_rejects_unknown_keys_and_bad_values_property(data):
    key = data.draw(st.sampled_from(sorted(k for k, (parser, _) in KNOWN_KEYS.items()
                                           if parser is not str)), label="key")
    parser = KNOWN_KEYS[key][0]
    bad = data.draw(_LINE_TEXT.map(str.strip).filter(lambda t: not _parses(parser, t)),
                    label="value")
    with pytest.raises(ConfigError, match="^line 1: bad value for %s: " % re.escape(key)):
        RunConfig.parse("%s = %s\n" % (key, bad))
    unknown = data.draw(_LINE_TEXT.filter(lambda t: "=" not in t)
                        .map(str.strip).filter(lambda t: t and t not in KNOWN_KEYS
                                               and not t.startswith("#")), label="unknown")
    with pytest.raises(ConfigError, match="^line 1: unknown configuration key"):
        RunConfig.parse("%s = 1\n" % unknown)


@pytest.mark.parametrize("text, message", [
    ("train.max_epochs = 3\n# a comment\ntrain.max_epochs = 5\n",
     "line 3: train.max_epochs is already set on line 1"),
    # a later line does not mend an earlier bad value
    ("train.max_epochs = x\ntrain.max_epochs = 5\n", "line 1: bad value for train.max_epochs"),
    ("run.seed = 1\ntrain.max_epochs = x\n", "line 2: bad value for train.max_epochs"),
    ("run.seed = 1\n\nmodel.variantx = HCN\n",
     "line 3: unknown configuration key 'model.variantx'"),
    ("run.seed = 1\nno separator\n", "line 2: expected 'key = value'"),
])
def test_config_errors_name_their_line(text, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        RunConfig.parse(text)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_config_parse_raises_only_config_errors_property(text):
    try:
        RunConfig.parse(text)
    except ConfigError:
        pass
