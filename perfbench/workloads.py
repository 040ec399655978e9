"""The benchmark workloads: inputs from a seed, one timed job, output checks.

``pipeline_hcn_td``, ``train_recurrent`` and ``ood_infer_long`` are the
gated workloads named in ``BENCHMARK.json``; ``gridsearch_jobs2`` is run
only by ``compare.py probe``.

Each workload is a closed loop with one client: ``run.py`` submits a job,
waits for it, and submits the next.  ``setup`` builds the inputs the user
would already hold (untimed, reported as ``setup_s``), ``job`` is the
timed call into the library, and ``review`` checks the job's outputs
after the clock has stopped.  Every training run uses a fixed epoch count
with patience above it, so early stopping never changes the amount of
work.  NOTES.md records why each workload exists.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from robusthcn import augment, cli, corpus, evaluation, models, toy, train
from robusthcn.config import RunConfig
from robusthcn.seeding import derive_seed, stream


@dataclass
class Review:
    """What the untimed check of one job found."""

    checks: dict = field(default_factory=dict)   # check name -> passed
    steps: int = 0                               # training-dialog steps
    evaluated: int = 0                           # dialogs scored by evaluate_model
    quality: dict = field(default_factory=dict)  # ood_f1 / plain_acc / dev_acc


def _turns(featurized):
    return sum(len(d) for d in featurized)


def _featurized_domain(seed, n_dialogs, n_actions):
    domain = toy.generate_toy_domain(seed, n_dialogs, n_actions)
    everything = domain.train + domain.dev + domain.test
    vocab = corpus.build_vocabulary([domain.train, domain.dev, domain.test])
    actions = corpus.extract_action_set(everything, domain.lexicon)

    def feats(dialogs):
        return [corpus.featurize_dialog(d, vocab, actions, domain.lexicon)
                for d in corpus.assign_actions(dialogs, actions, domain.lexicon)]

    return {
        "seed": seed,
        "train": feats(domain.train),
        "dev": feats(domain.dev),
        "vocab": vocab,
        "actions": actions,
        "n_context": len(domain.lexicon.slot_types) + 1,
    }


def _history_checks(review, label, history, epochs):
    losses = [r.train_loss for r in history.epochs]
    review.checks["%s.epochs" % label] = len(losses) == epochs
    review.checks["%s.losses_finite" % label] = all(math.isfinite(x) for x in losses)


# -- pipeline_hcn_td ------------------------------------------------------


@dataclass(frozen=True)
class PipelineHcnTd:
    """``run_pipeline`` on the criterion-5 toy config: HCN with turn dropout 0.4."""

    n_dialogs: int = 200
    n_actions: int = 20
    epochs: int = 5
    name = "pipeline_hcn_td"

    def setup(self, seed, workdir):
        # toy.seed = seed reproduces criterion 5's corpus; augment and train
        # seeds derive from run.seed exactly as criterion 5 derives them.
        return {
            "workdir": workdir,
            "config": RunConfig({
                "run.seed": seed,
                "toy.seed": seed,
                "toy.n_dialogs": self.n_dialogs,
                "toy.n_actions": self.n_actions,
                "model.variant": "HCN",
                "turn_dropout.ratio": 0.4,
                "train.max_epochs": self.epochs,
                "train.patience": self.epochs + 1,
                "pipeline.eval_plain": True,
            }),
        }

    def job(self, inputs):
        out_dir = tempfile.mkdtemp(prefix="pipeline-", dir=inputs["workdir"])
        cli.run_pipeline(inputs["config"], out_dir)
        return out_dir

    def review(self, inputs, out_dir, tracer):
        try:
            return self._review(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _review(self, out_dir):
        def read(*parts):
            with open(os.path.join(out_dir, *parts), "r", encoding="utf-8") as fh:
                return fh.read()

        def kv(text):
            return dict(line.split(" = ", 1) for line in text.splitlines()
                        if " = " in line and not line.startswith("#"))

        report = kv(read("report.txt"))
        stats = kv(read("augment_stats.txt"))
        history_lines = read("history.txt").splitlines()
        rows = [line.split("\t") for line in history_lines[1:] if not line.startswith("#")]
        best_epoch = int(next(line for line in history_lines
                              if line.startswith("# best_epoch = ")).rsplit(" ", 1)[1])
        n_train = len(read("data", "train.txt").strip().split("\n\n"))
        n_test = len(read("test_ood.txt").strip().split("\n\n"))

        r = Review()
        r.checks["ood_acc>=0.7"] = float(report["augmented.ood_acc"]) >= 0.7
        r.checks["ood_f1>=0.7"] = float(report["augmented.ood_f1"]) >= 0.7
        r.checks["epochs"] = len(rows) == self.epochs
        r.checks["losses_finite"] = all(math.isfinite(float(row[1])) for row in rows)
        r.checks["n_ood==inserted_turns"] = report["augmented.n_ood"] == stats["inserted_turns"]
        r.checks["n_segment==segment_turns"] = (
            report["augmented.n_segment"] == stats["segment_turns"])
        r.steps = len(rows) * n_train
        r.evaluated = 2 * n_test
        r.quality = {
            "ood_f1": float(report["augmented.ood_f1"]),
            "plain_acc": float(report["plain.overall_acc"]),
            "dev_acc": float(rows[best_epoch][2]),
        }
        return r


# -- train_recurrent --------------------------------------------------------


@dataclass(frozen=True)
class TrainRecurrent:
    """``train_model`` for HHCN, then VHCN, at default model sizes."""

    n_dialogs: int = 30
    n_actions: int = 10
    epochs: int = 2
    variants: tuple = ("HHCN", "VHCN")
    name = "train_recurrent"

    def setup(self, seed, workdir):
        return _featurized_domain(seed, self.n_dialogs, self.n_actions)

    def job(self, inputs):
        histories = {}
        for variant in self.variants:
            config = train.TrainConfig.for_variant(
                variant, max_epochs=self.epochs, patience=self.epochs + 1,
                seed=derive_seed(inputs["seed"], "train", variant))
            _, histories[variant] = train.train_model(
                models.ModelConfig(variant), config, inputs["train"], inputs["dev"],
                inputs["vocab"], inputs["actions"], inputs["n_context"])
        return histories

    def review(self, inputs, histories, tracer):
        r = Review()
        for variant, history in histories.items():
            _history_checks(r, variant, history, self.epochs)
            losses = [e.train_loss for e in history.epochs]
            r.checks["%s.loss_falls" % variant] = losses[-1] < losses[0]
            r.steps += len(losses) * len(inputs["train"])
        r.quality["dev_acc"] = float(np.mean([h.best_dev_acc for h in histories.values()]))
        return r


# -- ood_infer_long ---------------------------------------------------------


@dataclass(frozen=True)
class OodInferLong:
    """Augment at high OOD rates, round-trip, featurize, checkpoint, score."""

    n_dialogs: int = 100
    n_actions: int = 20
    p_ood_start: float = 0.5
    p_ood_cont: float = 0.7
    variants: tuple = models.VARIANTS
    name = "ood_infer_long"

    def setup(self, seed, workdir):
        domain = toy.generate_toy_domain(seed, self.n_dialogs, self.n_actions)
        foreign = toy.generate_foreign_dialogs(derive_seed(seed, "foreign"))
        dialogs = [corpus.Dialog(id=i, turns=d.turns)
                   for i, d in enumerate(domain.train + domain.dev + domain.test)]
        return {
            "seed": seed,
            "workdir": workdir,
            "dialogs": dialogs,
            "lexicon": domain.lexicon,
            "pool": augment.load_ood_pool(foreign, source="ood-pool"),
            "segments": augment.load_segment_pool(toy.segment_pool_text()),
        }

    def job(self, inputs):
        seed = inputs["seed"]
        lexicon = inputs["lexicon"]
        config = augment.AugmentationConfig(p_ood_start=self.p_ood_start,
                                            p_ood_cont=self.p_ood_cont,
                                            seed=derive_seed(seed, "augment"))
        augmented, stats = augment.augment_corpus(inputs["dialogs"], config,
                                                  inputs["pool"], inputs["segments"])
        parsed = augment.apply_labels(
            corpus.parse_dialogs(corpus.write_dialogs(augmented)),
            augment.parse_labels(augment.labels_text(augmented)))
        vocab = corpus.build_vocabulary([parsed])
        actions = corpus.extract_action_set(parsed, lexicon)
        feats = [corpus.featurize_dialog(d, vocab, actions, lexicon)
                 for d in corpus.assign_actions(parsed, actions, lexicon)]
        n_context = len(lexicon.slot_types) + 1

        scored = {}
        for variant in self.variants:
            # inference cost does not depend on the weight values, so the
            # seeded initial weights stand in for a trained model
            model = models.Model(models.ModelConfig(variant), vocab, actions, n_context,
                                 rng=stream(seed, "init", variant))
            path = os.path.join(inputs["workdir"], "%s.ckpt" % variant)
            models.save_checkpoint(path, model, lexicon)
            loaded = models.load_checkpoint(path)
            restored = models.model_from_checkpoint(loaded)
            row = evaluation.evaluate_model(restored, feats, vocab, actions)
            scored[variant] = (model, loaded, row)
        return {"augmented": augmented, "parsed": parsed, "stats": stats,
                "n_dialogs": len(feats), "n_turns": _turns(feats), "scored": scored}

    def review(self, inputs, out, tracer):
        r = Review()
        stats = out["stats"]
        r.checks["parse(write(x))==x"] = out["parsed"] == out["augmented"]
        for variant, (model, loaded, row) in out["scored"].items():
            r.checks["%s.ckpt_params_equal" % variant] = (
                list(loaded.arrays) == list(model.params)
                and all(np.array_equal(loaded.arrays[name], p.data)
                        for name, p in model.params.items()))
            r.checks["%s.n_ood==inserted_turns" % variant] = row.n_ood == stats.inserted_turns
            r.checks["%s.n_segment==segment_turns" % variant] = (
                row.n_segment == stats.segment_turns)
            r.checks["%s.n_turns" % variant] = row.n_turns == out["n_turns"]
            r.evaluated += out["n_dialogs"]
        r.checks["predictions_valid"] = (
            tracer.counters.get("invalid_predictions", 0) == 0
            and tracer.counters.get("predicted_turns", 0) == len(out["scored"]) * out["n_turns"])
        return r


# -- gridsearch_jobs2 -------------------------------------------------------


@dataclass(frozen=True)
class GridsearchJobs2:
    """Two-stage ``grid_search`` for HCN over a 2-worker process pool (probe only)."""

    n_dialogs: int = 100
    n_actions: int = 20
    epochs: int = 2
    stage1: tuple = ((32, None), (64, None))
    stage2: tuple = (0.2, 0.4)
    jobs: int = 2
    name = "gridsearch_jobs2"

    def setup(self, seed, workdir):
        return _featurized_domain(seed, self.n_dialogs, self.n_actions)

    def job(self, inputs):
        return train.grid_search(
            "HCN", list(self.stage1), list(self.stage2), inputs["train"], inputs["dev"],
            inputs["vocab"], inputs["actions"], inputs["n_context"],
            base_train_config=train.TrainConfig(
                max_epochs=self.epochs, patience=self.epochs + 1,
                seed=derive_seed(inputs["seed"], "train")),
            jobs=self.jobs)

    def review(self, inputs, result, tracer):
        r = Review()
        cells = result.cells
        r.checks["cells"] = (
            [c.stage for c in cells] == [1] * len(self.stage1) + [2] * len(self.stage2))
        r.checks["epochs_per_cell"] = all(c.n_epochs == self.epochs for c in cells)
        for i, cell in enumerate(cells):
            _history_checks(r, "cell%d" % i, cell.history, self.epochs)
        r.steps = sum(c.n_epochs for c in cells) * len(inputs["train"])
        r.quality["dev_acc"] = float(np.mean([c.dev_acc for c in cells]))
        return r


WORKLOADS = {w.name: w for w in (PipelineHcnTd(), TrainRecurrent(), OodInferLong(),
                                 GridsearchJobs2())}
