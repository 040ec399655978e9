"""Training loop, word dropout, early stopping, grid search, multi-seed runs.

Training data must be the clean in-domain corpus; robustness to OOD input
comes from turn dropout, not from OOD examples.  One dialog is one
optimization step (backpropagation through the whole dialog), dialogs are
shuffled every epoch, and both dropout kinds are re-sampled per epoch
from derived streams, so a fixed seed reproduces the run exactly.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from . import nn
from .corpus import UNK_INDEX
from .models import Model, ModelConfig, dialog_loss, predict_dialog
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
    clip_norm: float = 5.0
    seed: int = 0
    dev_turn_dropout: bool = True

    def __post_init__(self):
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


def word_dropout(tokens, p, rng, unk_index=UNK_INDEX):
    """Each token independently becomes UNK with probability p (train only)."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    if p == 0.0:
        return tokens
    out = np.array(tokens, copy=True)
    out[rng.random(len(out)) < p] = unk_index
    return out


def _dev_accuracy(model, dev_dialogs):
    correct = 0
    total = 0
    for dialog in dev_dialogs:
        preds = predict_dialog(model, dialog)
        for features, pred in zip(dialog, preds):
            correct += int(pred == features.target)
            total += 1
    return correct / total if total else 0.0


def train_model(model_config, train_config, train_dialogs, dev_dialogs, vocab, action_set,
                n_context, embedding_table=None, dtype=np.float32):
    """Train one model; returns (model restored to its best dev epoch, history).

    Dev accuracy is the selection signal.  When turn dropout is on and
    ``dev_turn_dropout`` is set, the dev set is perturbed once with
    deterministic turn dropout at the training ratio so selection also
    reflects fallback competence; the perturbation is fixed across epochs.
    """
    if not train_dialogs:
        raise ValueError("empty training set")
    if not dev_dialogs:
        raise ValueError("empty dev set")
    cfg = train_config
    seed = cfg.seed
    fallback_id = action_set.fallback_action_id

    model = Model(model_config, vocab, action_set, n_context,
                  rng=stream(seed, "init"), dtype=dtype, embedding_table=embedding_table)
    optimizer = nn.Adam(model.parameters(), learning_rate=cfg.learning_rate)

    td_config = None
    if cfg.turn_dropout_ratio > 0:
        td_config = TurnDropoutConfig(
            ratio=cfg.turn_dropout_ratio,
            length_bounds=length_bounds_from(train_dialogs),
            unk_prob=cfg.turn_dropout_unk_prob,
            seed=seed,
        )

    dev_selection = dev_dialogs
    if td_config is not None and cfg.dev_turn_dropout:
        dev_selection = [
            apply_turn_dropout(d, td_config, stream(seed, "dev-turn-dropout", i), fallback_id, vocab)
            for i, d in enumerate(dev_dialogs)
        ]

    history = TrainHistory()
    best_params = None
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
            noise_rng = stream(seed, "vae-noise", epoch, int(i))
            optimizer.zero_grad()
            loss, breakdown = dialog_loss(model, dialog, noise_rng)
            if not np.isfinite(loss.data):
                raise TrainingDiverged(epoch)
            nn.backward(loss)
            if not np.isfinite(nn.clip_global_norm(model.parameters(), cfg.clip_norm)):
                raise TrainingDiverged(epoch, next(
                    (p.name for p in model.parameters()
                     if p.grad is not None and not np.isfinite(p.grad).all()),
                    "the global norm"))
            optimizer.step()
            loss_sum += breakdown["loss"]
            kl_sum += breakdown["kl"] * len(dialog)
            turn_count += len(dialog)

        dev_acc = _dev_accuracy(model, dev_selection)
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
            best_params = [p.data.copy() for p in model.parameters()]
        if epoch - history.best_epoch >= cfg.patience:
            break
    history.wall_time_s = time.perf_counter() - start

    for p, value in zip(model.parameters(), best_params):
        p.data = value
    return model, history


@dataclass
class GridCell:
    stage: int
    embedding_size: int
    latent_size: int | None
    turn_dropout_ratio: float
    dev_acc: float
    best_epoch: int
    n_epochs: int
    seconds: float
    history: TrainHistory | None = None

    def to_line(self):
        return "%d\t%d\t%s\t%.4f\t%.6f\t%d\t%d\t%.3f" % (
            self.stage,
            self.embedding_size,
            "-" if self.latent_size is None else self.latent_size,
            self.turn_dropout_ratio,
            self.dev_acc,
            self.best_epoch,
            self.n_epochs,
            self.seconds,
        )


@dataclass
class GridSearchResult:
    cells: list
    best_embedding_size: int
    best_latent_size: int | None
    best_turn_dropout_ratio: float
    model_config: ModelConfig
    train_config: TrainConfig

    def to_lines(self):
        lines = ["stage\tembedding\tlatent\ttd_ratio\tdev_acc\tbest_epoch\tepochs\tseconds"]
        lines.extend(cell.to_line() for cell in self.cells)
        lines.append("# best_embedding_size = %d" % self.best_embedding_size)
        lines.append("# best_latent_size = %s" % (self.best_latent_size,))
        lines.append("# best_turn_dropout_ratio = %.4f" % self.best_turn_dropout_ratio)
        return lines


def _run_grid_cell(args):
    (variant, emb, latent, ratio, stage, base_model_cfg, base_train_cfg,
     train_dialogs, dev_dialogs, vocab, action_set, n_context, dtype) = args
    model_cfg = dc_replace(base_model_cfg, variant=variant, embedding_size=emb,
                           latent_size=latent)
    train_cfg = dc_replace(base_train_cfg, turn_dropout_ratio=ratio)
    started = time.perf_counter()
    _, history = train_model(model_cfg, train_cfg, train_dialogs, dev_dialogs,
                             vocab, action_set, n_context, dtype=dtype)
    return GridCell(
        stage=stage,
        embedding_size=emb,
        latent_size=latent,
        turn_dropout_ratio=ratio,
        dev_acc=history.best_dev_acc,
        best_epoch=history.best_epoch,
        n_epochs=len(history.epochs),
        seconds=time.perf_counter() - started,
        history=history,
    )


def grid_search(variant, stage1_grid, stage2_grid, train_dialogs, dev_dialogs, vocab,
                action_set, n_context, base_model_config=None, base_train_config=None,
                jobs=1, dtype=np.float32):
    """Two-stage hyperparameter search on dev accuracy.

    Stage 1 fixes the embedding size (and latent size) with turn dropout
    off; stage 2 sweeps the turn-dropout ratio holding the stage-1 pick.
    Ties break toward the smaller value.  ``stage1_grid`` is a list of
    (embedding_size, latent_size) pairs, latent None except for VHCN.
    """
    if not stage1_grid or not stage2_grid:
        raise ValueError("grids must be non-empty")
    base_model_cfg = base_model_config or ModelConfig(variant)
    base_train_cfg = base_train_config or TrainConfig()

    def run_cells(specs):
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(_run_grid_cell, specs))
        return [_run_grid_cell(spec) for spec in specs]

    stage1_specs = [
        (variant, emb, latent, 0.0, 1, base_model_cfg, base_train_cfg,
         train_dialogs, dev_dialogs, vocab, action_set, n_context, dtype)
        for emb, latent in stage1_grid
    ]
    cells = run_cells(stage1_specs)
    best1 = min(cells, key=lambda c: (-c.dev_acc, c.embedding_size, c.latent_size or 0))

    stage2_specs = [
        (variant, best1.embedding_size, best1.latent_size, float(ratio), 2,
         base_model_cfg, base_train_cfg, train_dialogs, dev_dialogs, vocab,
         action_set, n_context, dtype)
        for ratio in stage2_grid
    ]
    stage2_cells = run_cells(stage2_specs)
    cells.extend(stage2_cells)
    best2 = min(stage2_cells, key=lambda c: (-c.dev_acc, c.turn_dropout_ratio))

    model_config = dc_replace(base_model_cfg, variant=variant,
                              embedding_size=best1.embedding_size,
                              latent_size=best1.latent_size)
    train_config = dc_replace(base_train_cfg, turn_dropout_ratio=best2.turn_dropout_ratio)
    return GridSearchResult(
        cells=cells,
        best_embedding_size=best1.embedding_size,
        best_latent_size=best1.latent_size,
        best_turn_dropout_ratio=best2.turn_dropout_ratio,
        model_config=model_config,
        train_config=train_config,
    )


@dataclass
class SeedRun:
    seed: int
    dev_acc: float
    metrics: object


@dataclass
class MultiSeedResult:
    runs: list

    @property
    def mean_dev_acc(self):
        return float(np.mean([r.dev_acc for r in self.runs]))

    def mean_metric(self, name):
        values = [getattr(r.metrics, name) for r in self.runs]
        if any(v is None for v in values):
            return None
        return float(np.mean(values))


def multi_seed_run(model_config, train_config, train_dialogs, dev_dialogs, vocab, action_set,
                   n_context, n=3, evaluate=None, dtype=np.float32, seeds=None):
    """Train n models with consecutive seeds and average the metrics.

    VHCN scores are stochastic across seeds, so its headline numbers are
    means over runs.  ``evaluate`` maps a trained model to a metrics
    object; pass ``seeds`` to pin the exact seed list.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if seeds is None:
        seeds = [train_config.seed + i for i in range(n)]
    runs = []
    for seed in seeds:
        cfg = dc_replace(train_config, seed=seed)
        model, history = train_model(model_config, cfg, train_dialogs, dev_dialogs,
                                     vocab, action_set, n_context, dtype=dtype)
        metrics = evaluate(model) if evaluate is not None else None
        runs.append(SeedRun(seed=seed, dev_acc=history.best_dev_acc, metrics=metrics))
    return MultiSeedResult(runs=runs)
