"""Which public names of ``robusthcn`` are traced, and the metrics their spans give.

``stage_targets`` is the small set wrapped in untraced runs: one span per
call of a stage-level function (training, scoring, the data path), enough
to split a job's wall time into stages without timing its inner loops.
``layer_targets`` adds every layer boundary for the traced run.
"""

from __future__ import annotations

import os

from robusthcn import augment, cli, corpus, evaluation, models, nn, seeding, toy, train
from spec import LAYERS
from tracing import STEP, Target, ancestors, outermost, self_times

TRAIN_SPANS = frozenset({"train.train_model", "train.grid_search"})
INFER_SPANS = frozenset({"evaluation.evaluate_model"})
PREP_SPANS = frozenset({"augment.augment_corpus", "corpus.write", "corpus.parse",
                        "corpus.featurize"})


def _dialog_turns(dialogs):
    return sum(len(d.turns) for d in dialogs)


def _train_model(tracer, span, args, kwargs, result):
    _, history = result
    train_dialogs = args[2] if len(args) > 2 else kwargs["train_dialogs"]
    span.turns = len(history.epochs) * sum(len(d) for d in train_dialogs)


def _grid_search(tracer, span, args, kwargs, result):
    train_dialogs = args[3] if len(args) > 3 else kwargs["train_dialogs"]
    per_epoch = sum(len(d) for d in train_dialogs)
    span.turns = sum(cell.n_epochs for cell in result.cells) * per_epoch
    jobs = kwargs.get("jobs", 1)
    span.info = {"cell_seconds": [cell.seconds for cell in result.cells], "jobs": jobs}


def _evaluate(tracer, span, args, kwargs, result):
    span.turns = result.n_turns


def _augment(tracer, span, args, kwargs, result):
    dialogs, _ = result
    span.turns = _dialog_turns(dialogs)
    span.info = {"in_turns": _dialog_turns(args[0])}


def _write(tracer, span, args, kwargs, result):
    span.turns = _dialog_turns(args[0])


def _parse(tracer, span, args, kwargs, result):
    span.turns = _dialog_turns(result)


def _featurize(tracer, span, args, kwargs, result):
    span.turns = len(result)


def _predict(tracer, span, args, kwargs, result):
    model = args[0]
    span.turns = len(result)
    n_actions = model.action_set.size
    tracer.count("predicted_turns", len(result))
    tracer.count("invalid_predictions", sum(1 for a in result if not 0 <= a < n_actions))


def stage_targets():
    return [
        Target("train.train_model", train, "train_model", _train_model),
        Target("train.grid_search", train, "grid_search", _grid_search),
        Target("evaluation.evaluate_model", evaluation, "evaluate_model", _evaluate),
        Target("augment.augment_corpus", augment, "augment_corpus", _augment),
        Target("corpus.write", corpus, "write_dialogs", _write),
        Target("corpus.parse", corpus, "parse_dialogs", _parse),
        Target("corpus.featurize", corpus, "featurize_dialog", _featurize),
        Target("models.predict_dialog", models, "predict_dialog", _predict),
    ]


def _graph_nodes(tracer, span, args, kwargs, result):
    loss, _ = result
    idx = tracer.open("trace.count_nodes")
    seen = set()
    todo = [loss]
    while todo:
        node = todo.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        todo.extend(node._parents)
    tracer.close(idx)
    span.turns = len(args[1])
    span.info = len(seen)


def _turn_dropout(tracer, span, args, kwargs, result):
    span.turns = len(args[0])
    span.info = sum(1 for new, old in zip(result, args[0]) if new is not old)


def _ckpt_save(tracer, span, args, kwargs, result):
    span.info = os.path.getsize(args[0])


def layer_targets():
    return stage_targets() + [
        Target("cli.run_pipeline", cli, "run_pipeline"),
        Target("toy.generate", toy, "generate_toy_domain"),
        Target("toy.generate", toy, "generate_foreign_dialogs"),
        Target("corpus.vocab", corpus, "build_vocabulary"),
        Target("corpus.vocab", corpus, "extract_action_set"),
        Target("corpus.vocab", corpus, "assign_actions"),
        Target("seeding.stream", seeding, "stream"),
        Target("turndrop.apply", train, "apply_turn_dropout", _turn_dropout),
        Target("train.word_dropout", train, "word_dropout"),
        Target(STEP, nn.Adam, "zero_grad", kind="open_step"),
        Target("nn.adam", nn.Adam, "step", kind="close_step"),
        Target("nn.backward", nn, "backward"),
        Target("nn.clip", nn, "clip_global_norm"),
        Target("models.dialog_loss", models, "dialog_loss", _graph_nodes),
        Target("models.encode_turn", models.Model, "encode_turn"),
        Target("models.dialog_step", models.Model, "dialog_step"),
        Target("models.loss_terms", nn, "softmax_ce"),
        Target("models.loss_terms", nn, "bow_sigmoid_ce"),
        Target("models.loss_terms", nn, "gaussian_kl"),
        Target("models.ckpt_save", models, "save_checkpoint", _ckpt_save),
        Target("models.ckpt_load", models, "load_checkpoint"),
        Target("models.ckpt_load", models, "model_from_checkpoint"),
    ]


def stage_totals(spans, names):
    """(seconds, turns) over the outermost spans whose name is in ``names``."""
    picked = outermost(spans, names)
    return sum(s.end - s.start for s in picked), sum(s.turns for s in picked)


def layer_metrics(spans, iterations):
    """Per-layer metrics from the spans of ``iterations`` traced set-up+job rounds.

    Times are self times (span minus the interval its children cover) per
    round, except ``train.step_s``, ``train.dev_select_s``,
    ``evaluation.evaluate_s`` and ``cli.pipeline_s``, which are inclusive
    stage times.
    """
    selfs = self_times(spans)
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def self_s(*names):
        return sum(selfs[i] for n in names for i in by_name.get(n, ())) / iterations

    def incl_s(name):
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, ())) / iterations

    def turns(name):
        return sum(spans[i].turns for i in by_name.get(name, ()))

    def split(name):
        shares = {"train": 0.0, "infer": 0.0}
        for i in by_name.get(name, ()):
            parent = spans[i].parent
            owner = spans[parent].name if parent is not None else ""
            shares["train" if owner == "models.dialog_loss" else "infer"] += selfs[i]
        return shares["train"] / iterations, shares["infer"] / iterations

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "toy.generate_s": self_s("toy.generate"),
        "corpus.write_s": self_s("corpus.write"),
        "corpus.parse_s": self_s("corpus.parse"),
        "corpus.vocab_s": self_s("corpus.vocab"),
        "corpus.featurize_s": self_s("corpus.featurize"),
        "corpus.featurize_us_per_turn": 1e6 * ratio(
            self_s("corpus.featurize") * iterations, turns("corpus.featurize")),
        "augment.augment_s": self_s("augment.augment_corpus"),
        "augment.out_turns_per_in_turn": ratio(
            turns("augment.augment_corpus"),
            sum(spans[i].info["in_turns"] for i in by_name.get("augment.augment_corpus", ()))),
        "seeding.stream_calls": len(by_name.get("seeding.stream", ())) / iterations,
        "seeding.stream_s": self_s("seeding.stream"),
        "turndrop.apply_s": self_s("turndrop.apply"),
        "turndrop.replaced_frac": ratio(
            sum(spans[i].info for i in by_name.get("turndrop.apply", ())), turns("turndrop.apply")),
        "train.word_dropout_s": self_s("train.word_dropout"),
        "train.step_s": incl_s(STEP),
        "models.forward_s": self_s("models.dialog_loss"),
        "models.encode_turn_s": self_s("models.encode_turn"),
        "models.dialog_step_s": self_s("models.dialog_step"),
        "models.loss_terms_s": self_s("models.loss_terms"),
        "models.ckpt_save_s": self_s("models.ckpt_save"),
        "models.ckpt_load_s": self_s("models.ckpt_load"),
        "models.ckpt_bytes": ratio(sum(spans[i].info for i in by_name.get("models.ckpt_save", ())),
                                   len(by_name.get("models.ckpt_save", ()))),
        "nn.backward_s": self_s("nn.backward"),
        "nn.clip_s": self_s("nn.clip"),
        "nn.adam_s": self_s("nn.adam"),
        "nn.graph_nodes_per_dialog": ratio(
            sum(spans[i].info for i in by_name.get("models.dialog_loss", ())),
            len(by_name.get("models.dialog_loss", ()))),
        "evaluation.evaluate_s": incl_s("evaluation.evaluate_model"),
        "cli.pipeline_s": incl_s("cli.run_pipeline"),
        "cli.pipeline_self_s": self_s("cli.run_pipeline"),
    }
    out["models.encode_turn_train_s"], out["models.encode_turn_infer_s"] = split("models.encode_turn")
    out["models.dialog_step_train_s"], out["models.dialog_step_infer_s"] = split("models.dialog_step")

    predict = by_name.get("models.predict_dialog", ())
    out["models.predict_us_per_turn"] = 1e6 * ratio(
        sum(spans[i].end - spans[i].start for i in predict), sum(spans[i].turns for i in predict))
    under_training = [i for i in predict
                      if any(a.name == "train.train_model" for a in ancestors(spans, i))]
    out["train.dev_select_s"] = sum(spans[i].end - spans[i].start for i in under_training) / iterations

    cells, grid_wall, jobs = [], 0.0, 1
    for i in by_name.get("train.grid_search", ()):
        cells += spans[i].info["cell_seconds"]
        grid_wall += spans[i].end - spans[i].start
        jobs = spans[i].info["jobs"]
    out["train.grid.cell_s"] = ratio(sum(cells), len(cells))
    out["train.grid.parallel_eff"] = ratio(sum(cells), jobs * grid_wall)

    for layer in LAYERS:
        mine = [s for s in spans if s.name.split(".", 1)[0] == layer]
        out[layer + ".calls"] = len(mine) / iterations
        out[layer + ".failed"] = sum(1 for s in mine if s.failed) / iterations
    return out

