"""Flat ``section.key = value`` run configuration.

One file drives a whole pipeline run; command-line flags override file
values.  Unknown keys and keys given twice are rejected, and every run's
fully resolved configuration is echoed into its output artifacts.  All
stage seeds derive from the single ``run.seed`` unless a stage seed is
pinned explicitly.
"""

from __future__ import annotations

from .corpus import DEFAULT_FALLBACK_TEMPLATE
from .models import ModelConfig
from .seeding import derive_seed
from .train import TrainConfig


class ConfigError(ValueError):
    pass


def _bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError("expected a boolean, got %r" % text)


# key -> (parser, default); None default means unset
KNOWN_KEYS = {
    "run.seed": (int, 0),
    "corpus.fallback_template": (str, DEFAULT_FALLBACK_TEMPLATE),
    "augment.p_ood_start": (float, 0.2),
    "augment.p_ood_cont": (float, 0.4),
    "augment.independent_segment_prob": (float, 0.0),
    "augment.seed": (int, None),
    "turn_dropout.ratio": (float, None),
    "turn_dropout.unk_prob": (float, 0.5),
    "model.variant": (str, "HCN"),
    "model.embedding_size": (int, None),
    "model.latent_size": (int, None),
    "model.dialog_hidden_size": (int, 128),
    "model.predictor_hidden_size": (int, 128),
    "model.embedding_file": (str, None),
    "train.learning_rate": (float, 0.001),
    "train.patience": (int, 20),
    "train.word_dropout": (float, 0.2),
    "train.max_epochs": (int, 200),
    "train.seed": (int, None),
    "train.dev_turn_dropout": (_bool, True),
    "toy.n_dialogs": (int, 200),
    "toy.n_actions": (int, 20),
    "toy.seed": (int, None),
    "data.train": (str, None),
    "data.dev": (str, None),
    "data.test": (str, None),
    "data.lexicon": (str, None),
    "data.ood_pool": (str, None),
    "data.segment_pool": (str, None),
    "pipeline.out_dir": (str, "run_out"),
    "pipeline.eval_plain": (_bool, True),
}


class RunConfig:
    """Resolved key-value configuration with typed access."""

    def __init__(self, values=None):
        self.values = {}
        for key, raw in (values or {}).items():
            self._set(key, raw)

    def _set(self, key, raw):
        if key not in KNOWN_KEYS:
            raise ConfigError("unknown configuration key %r" % key)
        parser, _ = KNOWN_KEYS[key]
        try:
            self.values[key] = parser(raw) if isinstance(raw, str) else raw
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad value for %s: %s" % (key, exc)) from exc

    @classmethod
    def parse(cls, text):
        """Parse a config file's text; the error for a bad line or a repeated key names the line."""
        config, set_on = cls(), {}
        for line_no, line in enumerate(text.split("\n"), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            key = key.strip()
            try:
                if not sep:
                    raise ConfigError("expected 'key = value'")
                if key in set_on:
                    raise ConfigError("%s is already set on line %d" % (key, set_on[key]))
                config._set(key, value.strip())
            except ConfigError as exc:
                raise ConfigError("line %d: %s" % (line_no, exc)) from None
            set_on[key] = line_no
        return config

    def with_overrides(self, overrides):
        merged = dict(self.values)
        out = RunConfig()
        out.values = merged
        for key, raw in overrides.items():
            if raw is not None:
                out._set(key, raw)
        return out

    def get(self, key):
        if key not in KNOWN_KEYS:
            raise ConfigError("unknown configuration key %r" % key)
        if key in self.values:
            return self.values[key]
        return KNOWN_KEYS[key][1]

    def seed_for(self, stage):
        """Stage seed: explicit ``<stage>.seed`` if set, else derived from run.seed."""
        explicit = self.get("%s.seed" % stage) if "%s.seed" % stage in KNOWN_KEYS else None
        if explicit is not None:
            return explicit
        return derive_seed(self.get("run.seed"), stage)

    # where the artifacts land is not part of the run's semantics; keeping it
    # out of the echo lets two runs of one configuration produce identical
    # reports in different directories
    _ECHO_EXCLUDED = frozenset({"pipeline.out_dir"})

    def echo_lines(self, prefix="config."):
        lines = []
        for key in sorted(KNOWN_KEYS):
            if key in self._ECHO_EXCLUDED:
                continue
            value = self.get(key)
            if value is None:
                continue
            lines.append("%s%s = %s" % (prefix, key, value))
        return lines


def resolve_training(config):
    """The (ModelConfig, TrainConfig) pair a configuration describes.

    Values that do not apply to the chosen variant (a latent size outside
    VHCN, an embedding file outside HCN) are rejected rather than dropped.
    ``model.embedding_file`` is validated here but loaded by the caller,
    because the table is aligned with the vocabulary.
    """
    variant = config.get("model.variant")
    if variant != "HCN" and config.get("model.embedding_file"):
        raise ConfigError("model.embedding_file applies to HCN only, not %s "
                          "(HHCN and VHCN train their own embeddings)" % variant)
    train_values = dict(
        learning_rate=config.get("train.learning_rate"),
        patience=config.get("train.patience"),
        word_dropout=config.get("train.word_dropout"),
        turn_dropout_unk_prob=config.get("turn_dropout.unk_prob"),
        max_epochs=config.get("train.max_epochs"),
        seed=config.seed_for("train"),
        dev_turn_dropout=config.get("train.dev_turn_dropout"),
    )
    if config.get("turn_dropout.ratio") is not None:
        train_values["turn_dropout_ratio"] = config.get("turn_dropout.ratio")
    try:
        model_config = ModelConfig(
            variant=variant,
            embedding_size=config.get("model.embedding_size"),
            latent_size=config.get("model.latent_size"),
            dialog_hidden_size=config.get("model.dialog_hidden_size"),
            predictor_hidden_size=config.get("model.predictor_hidden_size"),
        )
        train_config = TrainConfig.for_variant(variant, **train_values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return model_config, train_config
