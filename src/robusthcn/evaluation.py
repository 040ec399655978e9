"""Per-utterance accuracy on label subsets and fallback-as-detector F1.

Predictions are scored per user turn against gold action ids.  Subset
accuracies are restricted by OOD label; the F1 treats a fallback
prediction as a positive OOD call and a TURN_OOD gold label as a positive
OOD turn, so it measures the model as a conventional OOD detector.  The
predictions and golds may be lists or integer arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .corpus import OodLabel
from .models import check_compatible, predict_dialogs


class OodF1(NamedTuple):
    precision: float
    recall: float
    f1: float
    degenerate: bool


@dataclass
class MetricsRow:
    """One evaluation record; subset accuracies are None when the subset is empty."""

    overall_acc: float
    seg_ood_acc: float | None
    ood_acc: float | None
    ood_precision: float
    ood_recall: float
    ood_f1: float
    f1_degenerate: bool
    n_turns: int
    n_ind: int
    n_segment: int
    n_ood: int

    def to_kv(self, prefix=""):
        """One ``key = value`` line per field, in declaration order."""

        def fmt(v):
            if v is None:
                return "absent"
            if isinstance(v, bool):
                return str(v).lower()
            if isinstance(v, float):
                return "%.6f" % v
            return str(v)

        return ["%s%s = %s" % (prefix, f.name, fmt(getattr(self, f.name))) for f in fields(self)]


def _label_masks(labels):
    """One boolean mask over ``labels`` per :class:`OodLabel`, from one pass."""
    code = {label: i for i, label in enumerate(OodLabel)}
    codes = np.fromiter(map(code.__getitem__, labels), dtype=np.int8, count=len(labels))
    return {label: codes == i for label, i in code.items()}


def _share(hits):
    return int(np.count_nonzero(hits)) / hits.size if hits.size else None


def _f1(pred_pos, gold_pos):
    tp = int(np.count_nonzero(pred_pos & gold_pos))
    fp = int(np.count_nonzero(pred_pos)) - tp
    fn = int(np.count_nonzero(gold_pos)) - tp
    degenerate = (tp + fp == 0) or (tp + fn == 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return OodF1(precision=precision, recall=recall, f1=f1, degenerate=degenerate)


def per_utterance_accuracy(predictions, golds, labels=None, subset="all"):
    """Fraction of turns in the subset whose prediction matches gold.

    ``subset`` is "all" or an :class:`OodLabel`; an empty subset yields
    None (absent), never 0.
    """
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds are not aligned")
    hits = np.asarray(predictions, dtype=np.int64) == np.asarray(golds, dtype=np.int64)
    if subset != "all":
        if labels is None or len(labels) != len(golds):
            raise ValueError("subset accuracy needs aligned labels")
        hits = hits[_label_masks(labels)[subset]]
    return _share(hits)


def ood_f1(predictions, labels, fallback_id):
    """Precision/recall/F1 of fallback prediction as an OOD detector.

    Positive prediction: the model chose the fallback action.  Positive
    gold: the turn is labeled TURN_OOD.  Zero-denominator cases yield a
    0.0 score with the degenerate flag set.
    """
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels are not aligned")
    return _f1(np.asarray(predictions, dtype=np.int64) == fallback_id,
               _label_masks(labels)[OodLabel.TURN_OOD])


def evaluate_predictions(predictions, golds, labels, fallback_id):
    """All metric fields from aligned flat prediction/gold/label vectors."""
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels are not aligned")
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds are not aligned")
    preds = np.asarray(predictions, dtype=np.int64)
    hits = preds == np.asarray(golds, dtype=np.int64)
    masks = _label_masks(labels)
    f1 = _f1(preds == fallback_id, masks[OodLabel.TURN_OOD])
    return MetricsRow(
        overall_acc=_share(hits),
        seg_ood_acc=_share(hits[masks[OodLabel.SEGMENT_OOD]]),
        ood_acc=_share(hits[masks[OodLabel.TURN_OOD]]),
        ood_precision=f1.precision,
        ood_recall=f1.recall,
        ood_f1=f1.f1,
        f1_degenerate=f1.degenerate,
        n_turns=len(golds),
        n_ind=int(np.count_nonzero(masks[OodLabel.IND])),
        n_segment=int(np.count_nonzero(masks[OodLabel.SEGMENT_OOD])),
        n_ood=int(np.count_nonzero(masks[OodLabel.TURN_OOD])),
    )


def evaluate_model(model, featurized_dialogs, vocab=None, action_set=None):
    """Run the model over featurized dialogs and score every user turn.

    Deterministic: repeated evaluation of one checkpoint is bit-identical.
    Pass the vocabulary and action set used for featurization to enforce
    the checkpoint hash check; passing only one raises ``ValueError``.
    """
    if (vocab is None) != (action_set is None):
        raise ValueError("the hash check needs both vocab and action_set, or neither")
    if vocab is not None:
        check_compatible(model, vocab, action_set)
    predictions = predict_dialogs(model, featurized_dialogs)
    turns = [t for dialog in featurized_dialogs for t in dialog]
    return evaluate_predictions(predictions, [t.target for t in turns],
                                [t.ood_label for t in turns], model.action_set.fallback_action_id)


_TABLE_COLUMNS = (
    ("model", "Model"),
    ("plain.overall_acc", "IND overall"),
    ("augmented.overall_acc", "Overall"),
    ("augmented.seg_ood_acc", "Seg OOD"),
    ("augmented.ood_acc", "OOD"),
    ("augmented.ood_f1", "OOD F1"),
)


def parse_report(text):
    """A report's ``key = value`` lines as a dict, blank and ``#`` lines skipped.

    ``ValueError`` for a line without `` = ``, naming its 1-based number, and
    for a text with no ``key = value`` line.
    """
    record = {}
    for number, line in enumerate(text.split("\n"), 1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        key, equals, value = line.partition(" = ")
        if not equals:
            raise ValueError("line %d: expected 'key = value', got %r" % (number, line.strip()))
        record[key.strip()] = value.strip()
    if not record:
        raise ValueError("no 'key = value' line")
    return record


def format_report_table(records):
    """Aggregate per-model report records into aligned text rows."""
    rows = [[header for _, header in _TABLE_COLUMNS]]
    for record in records:
        row = []
        for key, _ in _TABLE_COLUMNS:
            row.append(record.get(key, "-"))
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(_TABLE_COLUMNS))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def format_report_csv(records):
    lines = [",".join(key for key, _ in _TABLE_COLUMNS)]
    for record in records:
        lines.append(",".join(record.get(key, "") for key, _ in _TABLE_COLUMNS))
    return lines
