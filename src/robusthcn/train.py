"""Training loop, word dropout, early stopping, one runner for grid search and seed sweeps.

Training data must be the clean in-domain corpus; robustness to OOD input
comes from turn dropout, not from OOD examples.  One dialog is one
optimization step (backpropagation through the whole dialog), dialogs are
shuffled every epoch, and both dropout kinds are re-sampled per epoch
from derived streams, so a fixed seed reproduces the run exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace as dc_replace
from functools import partial

import numpy as np

from . import nn
from .corpus import UNK_INDEX
from .evaluation import per_utterance_accuracy
from .models import Model, ModelConfig, dialog_loss, predict_dialogs
from .seeding import stream
from .turndrop import TurnDropoutConfig, apply_turn_dropout, length_bounds_from

DEFAULT_TURN_DROPOUT_RATIO = {"HCN": 0.4, "HHCN": 0.6, "VHCN": 0.3}
DEFAULT_STAGE2_GRID = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


class TrainingDiverged(RuntimeError):
    """A non-finite loss, or a non-finite gradient in ``parameter``."""

    def __init__(self, epoch, parameter=None):
        what = "loss" if parameter is None else "gradient in %s" % parameter
        super().__init__("non-finite %s at epoch %d" % (what, epoch))
        self.epoch = epoch
        self.parameter = parameter


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    patience: int = 20
    word_dropout: float = 0.2
    turn_dropout_ratio: float = 0.0
    turn_dropout_unk_prob: float = 0.5
    max_epochs: int = 200
    seed: int = 0
    dev_turn_dropout: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be a finite number above 0, got %r"
                             % self.learning_rate)
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        for name in ("word_dropout", "turn_dropout_ratio", "turn_dropout_unk_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError("%s must be in [0, 1]" % name)

    @classmethod
    def for_variant(cls, variant, **overrides):
        overrides.setdefault("turn_dropout_ratio", DEFAULT_TURN_DROPOUT_RATIO[variant])
        return cls(**overrides)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_acc: float
    kl_mean: float


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)
    best_epoch: int = -1
    wall_time_s: float = 0.0

    @property
    def best_dev_acc(self):
        return self.epochs[self.best_epoch].dev_acc if self.epochs else 0.0

    def to_lines(self):
        lines = ["epoch\ttrain_loss\tdev_acc\tkl_mean"]
        for r in self.epochs:
            lines.append("%d\t%.6f\t%.6f\t%.6f" % (r.epoch, r.train_loss, r.dev_acc, r.kl_mean))
        lines.append("# best_epoch = %d" % self.best_epoch)
        lines.append("# wall_time_s = %.3f" % self.wall_time_s)
        return lines


def word_dropout(tokens, p, rng):
    """Each token independently becomes UNK with probability p (train only)."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    if p == 0.0:
        return tokens
    out = np.array(tokens, copy=True)
    out[rng.random(len(out)) < p] = UNK_INDEX
    return out


def train_model(model_config, train_config, train_dialogs, dev_dialogs, vocab, action_set,
                n_context, embedding_table=None):
    """Train one model; returns (model restored to its best dev epoch, history).

    Dev accuracy is the selection signal.  When turn dropout is on and
    ``dev_turn_dropout`` is set, the dev set is perturbed once with
    deterministic turn dropout at the training ratio so selection also
    reflects fallback competence; the perturbation is fixed across epochs.
    Word dropout replaces ``f_turn`` only: the bag of words that the dialog
    level and VHCN's reconstruction read keeps the turn's own words.
    """
    if not train_dialogs:
        raise ValueError("empty training set")
    if not any(dev_dialogs):
        raise ValueError("empty dev set")
    cfg = train_config
    seed = cfg.seed
    fallback_id = action_set.fallback_action_id

    model = Model(model_config, vocab, action_set, n_context,
                  rng=stream(seed, "init"), embedding_table=embedding_table)
    optimizer = nn.Adam(model.parameters(), learning_rate=cfg.learning_rate)
    draws_noise = model_config.variant == "VHCN"  # HCN and HHCN read no latent noise

    td_config = None
    if cfg.turn_dropout_ratio > 0:
        td_config = TurnDropoutConfig(
            ratio=cfg.turn_dropout_ratio,
            length_bounds=length_bounds_from(train_dialogs),
            unk_prob=cfg.turn_dropout_unk_prob,
        )

    dev_selection = dev_dialogs
    if td_config is not None and cfg.dev_turn_dropout:
        dev_selection = [
            apply_turn_dropout(d, td_config, stream(seed, "dev-turn-dropout", i), fallback_id, vocab)
            for i, d in enumerate(dev_dialogs)
        ]

    dev_targets = [features.target for dialog in dev_selection for features in dialog]
    history = TrainHistory()
    best_values = np.empty_like(optimizer.values)
    start = time.perf_counter()
    for epoch in range(cfg.max_epochs):
        order = stream(seed, "shuffle", epoch).permutation(len(train_dialogs))
        loss_sum = 0.0
        kl_sum = 0.0
        turn_count = 0
        for i in order:
            dialog = train_dialogs[int(i)]
            if td_config is not None:
                dialog = apply_turn_dropout(
                    dialog, td_config, stream(seed, "turn-dropout", epoch, int(i)), fallback_id, vocab
                )
            if cfg.word_dropout > 0:
                wd_rng = stream(seed, "word-dropout", epoch, int(i))
                dialog = [
                    dc_replace(t, f_turn=word_dropout(t.f_turn, cfg.word_dropout, wd_rng))
                    for t in dialog
                ]
            noise_rng = stream(seed, "vae-noise", epoch, int(i)) if draws_noise else None
            optimizer.zero_grad()
            # a non-finite loss or gradient norm ends the run as
            # TrainingDiverged, so numpy's overflow warnings on the way add nothing
            with np.errstate(over="ignore", invalid="ignore"):
                loss, breakdown = dialog_loss(model, dialog, noise_rng)
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(epoch)
                nn.backward(loss)
                norm = nn.clip_global_norm(optimizer.grads)
            if not np.isfinite(norm):
                raise TrainingDiverged(epoch, next(
                    (p.name for p in optimizer.params
                     if p.grad is not None and not np.isfinite(p.grad).all()),
                    "the global norm"))
            optimizer.step()
            loss_sum += breakdown["loss"]
            kl_sum += breakdown["kl"] * len(dialog)
            turn_count += len(dialog)

        dev_acc = per_utterance_accuracy(predict_dialogs(model, dev_selection), dev_targets)
        history.epochs.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / len(train_dialogs),
                dev_acc=dev_acc,
                kl_mean=kl_sum / turn_count if turn_count else 0.0,
            )
        )
        if history.best_epoch < 0 or dev_acc > history.epochs[history.best_epoch].dev_acc:
            history.best_epoch = epoch
            np.copyto(best_values, optimizer.values)
        if epoch - history.best_epoch >= cfg.patience:
            break
    history.wall_time_s = time.perf_counter() - start

    optimizer.values[...] = best_values
    return model, history


@dataclass
class GridCell:
    stage: int
    model_config: ModelConfig
    train_config: TrainConfig
    history: TrainHistory
    seconds: float

    @property
    def dev_acc(self):
        return self.history.best_dev_acc

    @property
    def n_epochs(self):
        return len(self.history.epochs)

    def to_line(self):
        return "%d\t%d\t%s\t%.4f\t%.6f\t%d\t%d\t%.3f" % (
            self.stage,
            self.model_config.embedding_size,
            "-" if self.model_config.latent_size is None else self.model_config.latent_size,
            self.train_config.turn_dropout_ratio,
            self.dev_acc,
            self.history.best_epoch,
            self.n_epochs,
            self.seconds,
        )


@dataclass
class GridSearchResult:
    cells: list
    model_config: ModelConfig
    train_config: TrainConfig

    def to_lines(self):
        lines = ["stage\tembedding\tlatent\ttd_ratio\tdev_acc\tbest_epoch\tepochs\tseconds"]
        lines.extend(cell.to_line() for cell in self.cells)
        lines.append("# best_embedding_size = %d" % self.model_config.embedding_size)
        lines.append("# best_latent_size = %s" % (self.model_config.latent_size,))
        lines.append("# best_turn_dropout_ratio = %.4f" % self.train_config.turn_dropout_ratio)
        return lines


def _train_cell(stage, data, configs):
    model_config, train_config = configs
    started = time.perf_counter()
    _, history = train_model(model_config, train_config, *data)
    return GridCell(stage, model_config, train_config, history, time.perf_counter() - started)


def train_cells(configs, train_dialogs, dev_dialogs, vocab, action_set, n_context,
                stage=0, jobs=1):
    """Train each (ModelConfig, TrainConfig) pair of ``configs`` on one dataset.

    Returns a GridCell labelled ``stage`` per pair, in input order; ``jobs`` > 1
    trains them in a pool of that many processes.  A seed sweep is one call
    whose TrainConfigs differ only in ``seed``.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1, got %r" % (jobs,))
    run = partial(_train_cell, stage, (train_dialogs, dev_dialogs, vocab, action_set, n_context))
    if jobs > 1:
        # imported here: multiprocessing costs every other command's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, configs))
    return [run(pair) for pair in configs]


def grid_search(variant, stage1_grid, stage2_grid, train_dialogs, dev_dialogs, vocab,
                action_set, n_context, base_model_config=None, base_train_config=None,
                jobs=1):
    """Two-stage hyperparameter search on dev accuracy.

    Stage 1 fixes the embedding size (and latent size) with turn dropout
    off; stage 2 sweeps the turn-dropout ratio holding the stage-1 pick.
    Ties break toward the smaller value.  ``stage1_grid`` is a list of
    (embedding_size, latent_size) pairs, latent None except for VHCN.
    ``base_model_config``, when given, must be of ``variant``.
    """
    if not stage1_grid or not stage2_grid:
        raise ValueError("grids must be non-empty")
    base_model_cfg = base_model_config or ModelConfig(variant)
    if base_model_cfg.variant != variant:
        raise ValueError("base_model_config is %s, but the grid search is for %s"
                         % (base_model_cfg.variant, variant))
    base_train_cfg = base_train_config or TrainConfig()
    data = (train_dialogs, dev_dialogs, vocab, action_set, n_context)

    stage1 = train_cells(
        [(dc_replace(base_model_cfg, embedding_size=emb, latent_size=latent),
          dc_replace(base_train_cfg, turn_dropout_ratio=0.0))
         for emb, latent in stage1_grid],
        *data, stage=1, jobs=jobs)
    best1 = min(stage1, key=lambda c: (-c.dev_acc, c.model_config.embedding_size,
                                       c.model_config.latent_size or 0))

    stage2 = train_cells(
        [(best1.model_config, dc_replace(base_train_cfg, turn_dropout_ratio=float(ratio)))
         for ratio in stage2_grid],
        *data, stage=2, jobs=jobs)
    best2 = min(stage2, key=lambda c: (-c.dev_acc, c.train_config.turn_dropout_ratio))
    return GridSearchResult(cells=stage1 + stage2, model_config=best2.model_config,
                            train_config=best2.train_config)
