import numpy as np
import pytest

from robusthcn.corpus import OodLabel
from robusthcn.evaluation import (
    MetricsRow,
    evaluate_model,
    evaluate_predictions,
    format_report_csv,
    format_report_table,
    ood_f1,
    parse_report,
    per_utterance_accuracy,
)
from robusthcn.models import HashMismatchError
from robusthcn.seeding import stream

from util import tiny_actions, tiny_model, tiny_turn, tiny_vocab

LABELS = [OodLabel.IND, OodLabel.TURN_OOD, OodLabel.SEGMENT_OOD]


def _random_case(rng, n, n_actions=5, fallback=0):
    preds = rng.integers(0, n_actions, size=n).tolist()
    golds = rng.integers(0, n_actions, size=n).tolist()
    labels = [LABELS[int(i)] for i in rng.integers(0, 3, size=n)]
    for i, lab in enumerate(labels):
        if lab is OodLabel.TURN_OOD:
            golds[i] = fallback
    return preds, golds, labels


# ---------------------------------------------------------------- accuracy

def test_accuracy_three_of_four():
    assert per_utterance_accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75


def test_accuracy_all_correct():
    assert per_utterance_accuracy([5, 5], [5, 5]) == 1.0


def test_accuracy_empty_subset_is_absent():
    preds, golds = [1, 2], [1, 2]
    labels = [OodLabel.IND, OodLabel.IND]
    assert per_utterance_accuracy(preds, golds, labels, OodLabel.TURN_OOD) is None
    assert per_utterance_accuracy(np.array(preds), np.array(golds), labels,
                                  OodLabel.TURN_OOD) is None


def test_accuracy_matches_recount_oracle():
    rng = stream(1, "acc")
    for _ in range(200):
        n = int(rng.integers(1, 60))
        preds, golds, labels = _random_case(rng, n)
        arrays = np.array(preds, dtype=np.int64), np.array(golds, dtype=np.int64)
        row = evaluate_predictions(preds, golds, labels, fallback_id=0)
        assert evaluate_predictions(*arrays, labels, fallback_id=0) == row
        for subset in ("all", OodLabel.IND, OodLabel.TURN_OOD, OodLabel.SEGMENT_OOD):
            got = per_utterance_accuracy(preds, golds, labels, subset)
            assert per_utterance_accuracy(*arrays, labels, subset) == got
            assert got is None or type(got) is float
            correct = 0
            total = 0
            for p, g, lab in zip(preds, golds, labels):
                if subset != "all" and lab is not subset:
                    continue
                total += 1
                correct += int(p == g)
            expected = correct / total if total else None
            assert got == expected


def test_accuracy_rejects_misaligned():
    with pytest.raises(ValueError):
        per_utterance_accuracy([1], [1, 2])


# -------------------------------------------------------------------- ood f1

def test_f1_formula():
    # TP=3, FP=1, FN=1
    preds = [0, 0, 0, 0, 1, 2]
    labels = [OodLabel.TURN_OOD, OodLabel.TURN_OOD, OodLabel.TURN_OOD,
              OodLabel.IND, OodLabel.TURN_OOD, OodLabel.IND]
    result = ood_f1(preds, labels, fallback_id=0)
    assert result.precision == pytest.approx(0.75)
    assert result.recall == pytest.approx(0.75)
    assert result.f1 == pytest.approx(0.75)
    assert not result.degenerate


def test_f1_zero_when_fallback_never_predicted():
    preds = [1, 2, 3]
    labels = [OodLabel.TURN_OOD, OodLabel.IND, OodLabel.TURN_OOD]
    result = ood_f1(preds, labels, fallback_id=0)
    assert result == (0.0, 0.0, 0.0, True)
    assert ood_f1(np.array(preds, dtype=np.int64), labels, fallback_id=0) == result


def test_f1_matches_confusion_matrix_oracle():
    rng = stream(2, "f1")
    for _ in range(200):
        n = int(rng.integers(1, 80))
        preds, golds, labels = _random_case(rng, n)
        got = ood_f1(preds, labels, fallback_id=0)
        assert ood_f1(np.array(preds, dtype=np.int64), labels, fallback_id=0) == got
        tp = sum(1 for p, lab in zip(preds, labels)
                 if p == 0 and lab is OodLabel.TURN_OOD)
        fp = sum(1 for p, lab in zip(preds, labels)
                 if p == 0 and lab is not OodLabel.TURN_OOD)
        fn = sum(1 for p, lab in zip(preds, labels)
                 if p != 0 and lab is OodLabel.TURN_OOD)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        assert got.precision == pytest.approx(prec)
        assert got.recall == pytest.approx(rec)
        assert got.f1 == pytest.approx(f1)
        assert got.degenerate == (tp + fp == 0 or tp + fn == 0)
        assert all(type(x) is float for x in got[:3])


def test_f1_invariant_under_relabeling_non_fallback():
    rng = stream(3, "relabel")
    preds, golds, labels = _random_case(rng, 50)
    ref = ood_f1(preds, labels, fallback_id=0)
    remap = {1: 4, 2: 3, 3: 1, 4: 2, 0: 0}
    assert ood_f1([remap[p] for p in preds], labels, fallback_id=0) == ref


# ------------------------------------------------------------- metrics row

def test_oracle_predictor_scores_one():
    rng = stream(4, "oracle")
    preds, golds, labels = _random_case(rng, 120)
    row = evaluate_predictions(golds, golds, labels, fallback_id=0)
    assert row.overall_acc == 1.0
    assert row.seg_ood_acc == 1.0
    assert row.ood_acc == 1.0
    # gold fallback happens only on TURN_OOD turns in this construction,
    # except chance collisions where gold IND action is also 0
    assert row.ood_recall == 1.0


def test_subset_counts_partition_the_turns():
    rng = stream(5, "count")
    preds, golds, labels = _random_case(rng, 200)
    row = evaluate_predictions(preds, golds, labels, fallback_id=0)
    assert row.n_ind + row.n_segment + row.n_ood == row.n_turns == 200
    # overall correct count equals the sum over the three label subsets
    total_correct = round(row.overall_acc * row.n_turns)
    by_subset = 0
    for subset, count in ((OodLabel.IND, row.n_ind), (OodLabel.SEGMENT_OOD, row.n_segment),
                          (OodLabel.TURN_OOD, row.n_ood)):
        acc = per_utterance_accuracy(preds, golds, labels, subset)
        by_subset += round(acc * count) if acc is not None else 0
    assert total_correct == by_subset


def test_evaluate_model_is_deterministic():
    vocab, actions = tiny_vocab(8), tiny_actions(4, fallback=1)
    model = tiny_model("HCN", vocab, actions, dtype=np.float32)
    dialogs = [[tiny_turn(vocab, actions, [2, 3], 0), tiny_turn(vocab, actions, [4], 2, prev=0)]]
    a = evaluate_model(model, dialogs)
    b = evaluate_model(model, dialogs)
    assert a == b
    assert a.n_turns == 2


def test_evaluate_model_checks_hashes_with_both_or_neither():
    vocab, actions = tiny_vocab(8), tiny_actions(4, fallback=1)
    model = tiny_model("HCN", vocab, actions, dtype=np.float32)
    dialogs = [[tiny_turn(vocab, actions, [2, 3], 0)]]
    assert evaluate_model(model, dialogs, vocab, actions) == evaluate_model(model, dialogs)
    for given in ({"vocab": vocab}, {"action_set": actions}):
        with pytest.raises(ValueError, match="both vocab and action_set"):
            evaluate_model(model, dialogs, **given)
    with pytest.raises(HashMismatchError):  # the check runs with both
        evaluate_model(model, dialogs, tiny_vocab(9), actions)


# ------------------------------------------------------------------ reports

def test_report_round_trip_and_table():
    row = MetricsRow(overall_acc=0.575, seg_ood_acc=0.257, ood_acc=0.754,
                     ood_precision=0.733, ood_recall=0.754, ood_f1=0.743,
                     f1_degenerate=False, n_turns=100, n_ind=60, n_segment=15, n_ood=25)
    # report.txt holds these lines as written, one per field in this order
    assert row.to_kv("augmented.") == [
        "augmented.overall_acc = 0.575000", "augmented.seg_ood_acc = 0.257000",
        "augmented.ood_acc = 0.754000", "augmented.ood_precision = 0.733000",
        "augmented.ood_recall = 0.754000", "augmented.ood_f1 = 0.743000",
        "augmented.f1_degenerate = false", "augmented.n_turns = 100", "augmented.n_ind = 60",
        "augmented.n_segment = 15", "augmented.n_ood = 25"]
    text = "model = TD-HCN\n" + "\n".join(row.to_kv("augmented.")) + "\n"
    record = parse_report(text)
    assert record["model"] == "TD-HCN"
    assert record["augmented.ood_f1"] == "0.743000"
    table = format_report_table([record])
    assert any("TD-HCN" in line for line in table)
    csv = format_report_csv([record])
    assert csv[1].split(",")[0] == "TD-HCN"
    assert "0.754000" in csv[1]


def test_parse_report_rejects_text_that_is_not_a_report():
    # comments, blank lines and surrounding spaces are skipped, as before
    assert parse_report("# c = 1\n\n  model = m  \nx = a = b\n") == {"model": "m", "x": "a = b"}
    for text, message in [("model = m\n\n1 hello\tapi_call\n", "line 3: expected 'key = value'"),
                          ("model=m\n", "line 1: expected"),
                          ("", "no 'key = value' line"), ("# a = 1\n  \n", "no 'key = value'")]:
        with pytest.raises(ValueError, match=message):
            parse_report(text)


def test_report_absent_subset_round_trips():
    row = MetricsRow(overall_acc=1.0, seg_ood_acc=None, ood_acc=None,
                     ood_precision=0.0, ood_recall=0.0, ood_f1=0.0,
                     f1_degenerate=True, n_turns=5, n_ind=5, n_segment=0, n_ood=0)
    record = parse_report("\n".join(row.to_kv("plain.")))
    assert record["plain.seg_ood_acc"] == "absent"
