"""Chunked no-grad inference: one packed pass over several dialogs.

``predict_dialogs`` packs whole dialogs into ``predict_dialog`` calls of
about ``INFER_CHUNK_TOKENS`` tokens.  These tests hold it to the
per-dialog path on trained toy models, and hold every caller to the
contract the benchmark's inference review counts on: each turn's action
comes back from ``predict_dialog`` exactly once.
"""

import sys

import numpy as np
import pytest

from robusthcn import evaluation, models, nn
from robusthcn.corpus import prepare
from robusthcn.evaluation import evaluate_model
from robusthcn.models import ModelConfig, predict_dialog, predict_dialogs
from robusthcn.toy import generate_toy_domain
from robusthcn.train import TrainConfig, train_model

CONFIGS = {
    "HCN": ModelConfig("HCN", embedding_size=12, dialog_hidden_size=16, predictor_hidden_size=16),
    "HHCN": ModelConfig("HHCN", embedding_size=8, dialog_hidden_size=12, predictor_hidden_size=12),
    "VHCN": ModelConfig("VHCN", embedding_size=8, latent_size=3, dialog_hidden_size=12,
                        predictor_hidden_size=12),
}


@pytest.fixture(scope="module")
def domain():
    toy = generate_toy_domain(41, 40, 8)
    data = prepare(toy.lexicon, [toy.train, toy.dev, toy.test])
    return {
        "data": data,
        "train": data.featurize(toy.train),
        "dev": data.featurize(toy.dev),
        "test": data.featurize(toy.test),
    }


@pytest.fixture(scope="module")
def trained(domain):
    data = domain["data"]
    tc = TrainConfig(turn_dropout_ratio=0.3, max_epochs=3, patience=3, seed=9)
    return {variant: train_model(config, tc, domain["train"], domain["dev"], data.vocab,
                                 data.action_set, n_context=data.n_context)[0]
            for variant, config in CONFIGS.items()}


def _tokens(dialog):
    return sum(len(f.f_turn) for f in dialog)


def _mixed_dialogs(domain):
    # whole toy dialogs, one-turn dialogs and one dialog of four toy
    # dialogs back to back, longer than a small budget on its own
    dialogs = domain["train"] + domain["dev"] + domain["test"]
    long_dialog = [f for d in domain["train"][:4] for f in d]
    return [d[:1] for d in dialogs[:3]] + dialogs[:5] + [long_dialog] + dialogs[5:] + [
        d[-1:] for d in dialogs[3:6]]


def _library_modules():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "robusthcn" or n.startswith("robusthcn."))]


@pytest.fixture
def predict_calls(monkeypatch):
    """Records (turns, lengths, result) of every ``predict_dialog`` call.

    Like the benchmark's tracer, it replaces the name in every library
    module that holds it, so calls through any import path are seen.
    """
    original = models.predict_dialog
    calls = []

    def recording(model, turns, lengths=None):
        result = original(model, turns, lengths)
        calls.append((turns, lengths, result))
        return result

    for module in _library_modules():
        if module.__dict__.get("predict_dialog") is original:
            monkeypatch.setattr(module, "predict_dialog", recording)
    return calls


@pytest.mark.parametrize("variant", list(CONFIGS))
@pytest.mark.parametrize("budget", [models.INFER_CHUNK_TOKENS, 60])
def test_chunked_predictions_equal_per_dialog_predictions(domain, trained, predict_calls,
                                                          monkeypatch, variant, budget):
    model = trained[variant]
    dialogs = _mixed_dialogs(domain)
    per_dialog = [predict_dialog(model, d) for d in dialogs]
    del predict_calls[:]
    monkeypatch.setattr(models, "INFER_CHUNK_TOKENS", budget)

    assert predict_dialogs(model, dialogs) == [a for preds in per_dialog for a in preds]

    # the chunks hold whole dialogs, several where they fit, and close as
    # soon as they reach the budget
    spans = []
    for turns, lengths, _ in predict_calls:
        assert sum(lengths) == len(turns)
        offsets = np.cumsum([0] + list(lengths))
        chunk = [turns[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
        assert sum(_tokens(d) for d in chunk[:-1]) < budget
        spans += chunk
    assert [len(d) for d in spans] == [len(d) for d in dialogs]
    assert len(predict_calls) > 1
    assert any(len(lengths) > 1 for _, lengths, _ in predict_calls)
    assert max(_tokens(d) for d in dialogs) > 60
    assert min(len(d) for d in dialogs) == 1


@pytest.mark.parametrize("variant", list(CONFIGS))
def test_batched_logits_match_per_dialog_logits(domain, trained, variant):
    model = trained[variant]
    dialogs = _mixed_dialogs(domain)
    turns = [f for d in dialogs for f in d]
    with nn.no_grad():
        batched = model.dialog_step(model.encode_turn(turns)[0], turns, [len(d) for d in dialogs])
        single = [model.dialog_step(model.encode_turn(d)[0], d).data for d in dialogs]
    # a product over more rows need not round like a smaller one
    np.testing.assert_allclose(batched.data, np.concatenate(single), rtol=1e-5, atol=1e-5)


def test_empty_dialogs_score_nothing(domain, trained, predict_calls):
    model = trained["HHCN"]
    first, second = domain["dev"][:2]
    assert evaluate_model(model, [first, [], second]) == evaluate_model(model, [first, second])
    del predict_calls[:]
    assert predict_dialogs(model, [[], []]) == []
    assert predict_calls == []


def test_dialog_step_rejects_lengths_that_do_not_split_the_turns(domain, trained):
    model = trained["HCN"]
    turns = domain["dev"][0][:3]
    vectors = model.encode_turn(turns)[0]
    for lengths in ([1, 1], [2, 2], [3, 0]):
        with pytest.raises(nn.DimensionError):
            model.dialog_step(vectors, turns, lengths)


@pytest.mark.parametrize("variant", list(CONFIGS))
def test_predict_dialog_returns_each_scored_turn_once(domain, trained, predict_calls, variant):
    # the benchmark's inference review sums len(result) over predict_dialog
    # calls and checks every entry is a valid action id
    model = trained[variant]
    row = evaluate_model(model, domain["dev"] + domain["test"])
    actions = [a for _, _, result in predict_calls for a in result]
    assert len(actions) == row.n_turns
    assert all(type(a) is int for a in actions)
    assert all(0 <= a < model.action_set.size for a in actions)


def test_dev_selection_predicts_without_evaluate_model(domain, predict_calls, monkeypatch):
    # a dev pass under training must not show up as an evaluation span
    def refuse(*args, **kwargs):
        raise AssertionError("train_model called evaluate_model")

    for module in _library_modules():
        if module.__dict__.get("evaluate_model") is evaluation.evaluate_model:
            monkeypatch.setattr(module, "evaluate_model", refuse)
    data = domain["data"]
    epochs = 2
    train_model(CONFIGS["HCN"], TrainConfig(max_epochs=epochs, patience=epochs, seed=1),
                domain["train"][:4], domain["dev"], data.vocab, data.action_set,
                n_context=data.n_context)
    dev_turns = sum(len(d) for d in domain["dev"])
    assert sum(len(result) for _, _, result in predict_calls) == epochs * dev_turns

