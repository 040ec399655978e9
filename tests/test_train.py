import numpy as np
import pytest

from robusthcn import nn, train
from robusthcn.corpus import UNK_INDEX, bow_indices, prepare
from robusthcn.models import ModelConfig, predict_dialogs
from robusthcn.seeding import stream
from robusthcn.toy import generate_toy_domain
from robusthcn.train import (
    DEFAULT_STAGE2_GRID,
    TrainConfig,
    TrainingDiverged,
    grid_search,
    train_cells,
    train_model,
    word_dropout,
)
from robusthcn.turndrop import TurnDropoutConfig, apply_turn_dropout


@pytest.fixture(scope="module")
def toy():
    domain = generate_toy_domain(41, 24, 8)
    data = prepare(domain.lexicon, [domain.train, domain.dev, domain.test])
    return (domain, data.vocab, data.action_set, data.n_context,
            data.featurize(domain.train), data.featurize(domain.dev))


SMALL = dict(embedding_size=16, dialog_hidden_size=32, predictor_hidden_size=32)


# ------------------------------------------------------------ word dropout

def test_word_dropout_identity_at_zero():
    tokens = np.array([3, 4, 5])
    out = word_dropout(tokens, 0.0, stream(0, "wd"))
    np.testing.assert_array_equal(out, tokens)


def test_word_dropout_all_unk_at_one():
    tokens = np.arange(2, 50)
    out = word_dropout(tokens, 1.0, stream(1, "wd"))
    assert (out == UNK_INDEX).all()


def test_word_dropout_monte_carlo_rate():
    tokens = np.full(100_000, 7)
    out = word_dropout(tokens, 0.2, stream(2, "wd"))
    assert np.mean(out == UNK_INDEX) == pytest.approx(0.2, abs=0.01)


def test_word_dropout_does_not_mutate_input():
    tokens = np.array([3, 4, 5, 6])
    word_dropout(tokens, 0.9, stream(3, "wd"))
    np.testing.assert_array_equal(tokens, [3, 4, 5, 6])


def test_word_dropout_reaches_the_turn_encoder_only(toy, monkeypatch):
    # train_model replaces f_turn and keeps bow_indices, so the bag of words
    # that the dialog level and VHCN's reconstruction read keeps the turn's
    # own words; whether it should see word dropout is a modelling decision
    domain, vocab, actions, nctx, train_f, dev_f = toy
    seen = []
    real_loss = train.dialog_loss

    def spy_loss(model, dialog, rng=None):
        seen.append(dialog)
        return real_loss(model, dialog, rng)

    monkeypatch.setattr(train, "dialog_loss", spy_loss)
    tc = TrainConfig(word_dropout=0.9, turn_dropout_ratio=0.0, max_epochs=1, patience=1, seed=0)
    train_model(ModelConfig("HCN", **SMALL), tc, train_f, dev_f, vocab, actions, nctx)
    originals = {id(t.bow_indices): t for dialog in train_f for t in dialog}
    turns = [t for dialog in seen for t in dialog]
    assert len(turns) == len(originals)
    dropped = 0
    for turn in turns:
        original = originals.pop(id(turn.bow_indices))
        assert turn.f_turn is not original.f_turn
        assert ((turn.f_turn == original.f_turn) | (turn.f_turn == UNK_INDEX)).all()
        np.testing.assert_array_equal(turn.bow_indices, bow_indices(original.f_turn))
        dropped += not np.array_equal(bow_indices(turn.f_turn), turn.bow_indices)
    assert dropped > len(turns) // 2


# -------------------------------------------------------------- train_model

def test_memorizes_toy_corpus(toy):
    domain, vocab, actions, nctx, train_f, _ = toy
    config = ModelConfig("HCN", **SMALL)
    tc = TrainConfig(turn_dropout_ratio=0.0, max_epochs=60, patience=20, seed=1)
    # selection on the training set: the memorization oracle
    model, history = train_model(config, tc, train_f, train_f, vocab, actions, nctx)
    correct = total = 0
    for dialog in train_f:
        for pred, features in zip(predict_dialogs(model, [dialog]), dialog):
            correct += int(pred == features.target)
            total += 1
    assert correct == total
    assert history.best_dev_acc == 1.0


def test_training_is_deterministic(toy):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    config = ModelConfig("HCN", **SMALL)
    tc = TrainConfig(turn_dropout_ratio=0.4, max_epochs=6, patience=6, seed=9)
    model_a, hist_a = train_model(config, tc, train_f, dev_f, vocab, actions, nctx)
    model_b, hist_b = train_model(config, tc, train_f, dev_f, vocab, actions, nctx)
    assert [(r.epoch, r.train_loss, r.dev_acc) for r in hist_a.epochs] == [
        (r.epoch, r.train_loss, r.dev_acc) for r in hist_b.epochs
    ]
    for p, q in zip(model_a.parameters(), model_b.parameters()):
        np.testing.assert_array_equal(p.data, q.data)


def test_early_stopping_restores_best_epoch(toy):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    config = ModelConfig("HCN", **SMALL)
    tc = TrainConfig(turn_dropout_ratio=0.0, max_epochs=40, patience=5, seed=2)
    model, history = train_model(config, tc, train_f, dev_f, vocab, actions, nctx)
    best = history.best_epoch
    assert history.epochs[best].dev_acc == max(r.dev_acc for r in history.epochs)
    # the returned parameters really are the best epoch's: re-evaluating the
    # model on the dev selection set reproduces the recorded best accuracy
    correct = total = 0
    for dialog in dev_f:
        for pred, features in zip(predict_dialogs(model, [dialog]), dialog):
            correct += int(pred == features.target)
            total += 1
    assert correct / total == pytest.approx(history.epochs[best].dev_acc)
    # training ran past the best epoch before stopping
    assert len(history.epochs) == min(best + tc.patience + 1, tc.max_epochs)


def test_turn_dropout_injects_fallback_targets(toy):
    domain, vocab, actions, nctx, train_f, _ = toy
    fallback = actions.fallback_action_id
    assert all(t.target != fallback for d in train_f for t in d)
    # the exact per-epoch streams used by train_model
    td = TurnDropoutConfig(ratio=0.6, length_bounds=(1, 8))
    seen = set()
    for i, dialog in enumerate(train_f):
        out = apply_turn_dropout(dialog, td, stream(4, "turn-dropout", 0, i), fallback, vocab)
        seen.update(t.target for t in out)
    assert fallback in seen


def test_divergence_raises_with_epoch(toy):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    config = ModelConfig("HCN", **SMALL)
    table = np.full((len(vocab), 16), np.nan, dtype=np.float32)
    tc = TrainConfig(turn_dropout_ratio=0.0, max_epochs=3, patience=3, seed=0)
    with pytest.raises(TrainingDiverged) as err:
        train_model(config, tc, train_f, dev_f, vocab, actions, nctx,
                    embedding_table=table)
    assert err.value.epoch == 0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_gradient_names_the_parameter(toy, monkeypatch, bad):
    # the loss stays finite; the third dialog's gradient is poisoned after
    # backward, and the raise must come before Adam writes it into a weight
    domain, vocab, actions, nctx, train_f, dev_f = toy
    seen = []
    real_loss, real_backward = train.dialog_loss, nn.backward

    def spy_loss(model, dialog, rng=None):
        seen.append(model)
        return real_loss(model, dialog, rng)

    def poisoned_backward(loss):
        real_backward(loss)
        if len(seen) == 3:
            seen[-1].params["dialog_lstm.w_ctx"].grad[0, 0] = bad

    monkeypatch.setattr(train, "dialog_loss", spy_loss)
    monkeypatch.setattr(nn, "backward", poisoned_backward)
    config = ModelConfig("HCN", **SMALL)
    tc = TrainConfig(turn_dropout_ratio=0.0, max_epochs=2, patience=2, seed=0)
    with pytest.raises(TrainingDiverged, match="dialog_lstm.w_ctx at epoch 0") as err:
        train_model(config, tc, train_f, dev_f, vocab, actions, nctx)
    assert (err.value.epoch, err.value.parameter) == (0, "dialog_lstm.w_ctx")
    assert len(seen) == 3
    assert all(np.isfinite(p.data).all() for p in seen[-1].parameters())


def test_empty_sets_rejected(toy):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    config = ModelConfig("HCN", **SMALL)
    tc = TrainConfig()
    with pytest.raises(ValueError):
        train_model(config, tc, [], dev_f, vocab, actions, nctx)
    with pytest.raises(ValueError):
        train_model(config, tc, train_f, [], vocab, actions, nctx)


def test_turn_dropout_mechanism_witness(toy):
    # the regularized model answers gibberish with the fallback action,
    # the plain model does not
    domain, vocab, actions, nctx, train_f, dev_f = toy
    fallback = actions.fallback_action_id
    config = ModelConfig("HCN", **SMALL)
    preds = {}
    for ratio in (0.0, 0.4):
        tc = TrainConfig(turn_dropout_ratio=ratio, max_epochs=40, patience=12, seed=3)
        model, _ = train_model(config, tc, train_f, dev_f, vocab, actions, nctx)
        td = TurnDropoutConfig(ratio=1.0, length_bounds=(3, 9))
        rng = stream(8, "gibberish")
        fallback_rate = []
        for dialog in dev_f:
            noisy = apply_turn_dropout(dialog, td, rng, fallback, vocab)
            for pred in predict_dialogs(model, [noisy]):
                fallback_rate.append(pred == fallback)
        preds[ratio] = np.mean(fallback_rate)
    assert preds[0.0] <= 0.1
    assert preds[0.4] >= 0.8


def test_dev_selection_with_turn_dropout_is_fixed_across_epochs(toy):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    config = ModelConfig("HCN", **SMALL)
    tc_on = TrainConfig(turn_dropout_ratio=0.4, max_epochs=3, patience=3, seed=6,
                        dev_turn_dropout=True)
    tc_off = TrainConfig(turn_dropout_ratio=0.4, max_epochs=3, patience=3, seed=6,
                         dev_turn_dropout=False)
    _, hist_on = train_model(config, tc_on, train_f, dev_f, vocab, actions, nctx)
    _, hist_off = train_model(config, tc_off, train_f, dev_f, vocab, actions, nctx)
    # same training stream, different selection sets
    assert [r.train_loss for r in hist_on.epochs] == [r.train_loss for r in hist_off.epochs]
    assert [r.dev_acc for r in hist_on.epochs] != [r.dev_acc for r in hist_off.epochs]


# -------------------------------------------------------------- grid search

def _stub_history(dev_acc):
    from robusthcn.train import EpochRecord, TrainHistory
    h = TrainHistory(epochs=[EpochRecord(0, 1.0, dev_acc, 0.0)], best_epoch=0)
    return h


def test_grid_search_single_cell_reduces_to_train_model(toy):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    tc = TrainConfig(max_epochs=4, patience=4, seed=7,
                     turn_dropout_ratio=0.0)
    base_model = ModelConfig("HCN", **SMALL)
    result = grid_search("HCN", [(16, None)], [0.3], train_f, dev_f, vocab, actions,
                         nctx, base_model_config=base_model, base_train_config=tc)
    direct_cfg = ModelConfig("HCN", **SMALL)
    from dataclasses import replace
    _, hist1 = train_model(direct_cfg, replace(tc, turn_dropout_ratio=0.0),
                           train_f, dev_f, vocab, actions, nctx)
    _, hist2 = train_model(direct_cfg, replace(tc, turn_dropout_ratio=0.3),
                           train_f, dev_f, vocab, actions, nctx)
    stage1, stage2 = result.cells
    assert stage1.dev_acc == hist1.best_dev_acc
    assert stage2.dev_acc == hist2.best_dev_acc
    assert result.model_config == direct_cfg
    assert result.train_config == replace(tc, turn_dropout_ratio=0.3)


def test_grid_search_tie_breaks_toward_smaller(toy, monkeypatch):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    import robusthcn.train as train_mod

    def fake_train(model_config, train_config, *args, **kwargs):
        return None, _stub_history(dev_acc=0.5)  # every cell ties

    monkeypatch.setattr(train_mod, "train_model", fake_train)
    result = train_mod.grid_search(
        "HCN", [(128, None), (32, None), (64, None)], [0.7, 0.05, 0.4],
        train_f, dev_f, vocab, actions, nctx,
        base_train_config=TrainConfig(max_epochs=1),
    )
    assert result.model_config.embedding_size == 32
    assert result.train_config.turn_dropout_ratio == 0.05
    assert [c.model_config.embedding_size for c in result.cells[:3]] == [128, 32, 64]
    assert [c.train_config.turn_dropout_ratio for c in result.cells[3:]] == [0.7, 0.05, 0.4]
    assert all(c.model_config == result.model_config for c in result.cells[3:])


def test_grid_search_default_stage2_grid():
    assert DEFAULT_STAGE2_GRID == (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    assert DEFAULT_STAGE2_GRID[0] == 0.05 and DEFAULT_STAGE2_GRID[-1] == 0.7


def test_grid_search_rejects_empty_grids(toy):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    with pytest.raises(ValueError):
        grid_search("HCN", [], [0.1], train_f, dev_f, vocab, actions, nctx)


@pytest.mark.parametrize("variant, base", [("HCN", ModelConfig("VHCN", latent_size=4)),
                                           ("VHCN", ModelConfig("HHCN", **SMALL))])
def test_grid_search_rejects_a_base_model_config_of_another_variant(toy, monkeypatch, variant,
                                                                    base):
    domain, vocab, actions, nctx, train_f, dev_f = toy

    def no_training(*args, **kwargs):
        raise AssertionError("trained a %s base config as %s" % (base.variant, variant))

    monkeypatch.setattr(train, "train_model", no_training)
    with pytest.raises(ValueError, match="base_model_config is %s" % base.variant):
        grid_search(variant, [(16, 2 if variant == "VHCN" else None)], [0.1], train_f, dev_f,
                    vocab, actions, nctx, base_model_config=base)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_an_error(toy, monkeypatch, jobs):
    domain, vocab, actions, nctx, train_f, dev_f = toy

    def no_training(*args, **kwargs):
        raise AssertionError("trained despite jobs=%d" % jobs)

    monkeypatch.setattr(train, "train_model", no_training)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        grid_search("HCN", [(16, None)], [0.1], train_f, dev_f, vocab, actions, nctx, jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        train_cells([(ModelConfig("HCN", **SMALL), TrainConfig())], train_f, dev_f, vocab,
                    actions, nctx, jobs=jobs)


# ------------------------------------------------------------- cell runner

def test_train_cells_single_cell_matches_train_model(toy):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    config = ModelConfig("HCN", **SMALL)
    tc = TrainConfig(turn_dropout_ratio=0.0, max_epochs=4, patience=4, seed=11)
    (cell,) = train_cells([(config, tc)], train_f, dev_f, vocab, actions, nctx)
    _, hist = train_model(config, tc, train_f, dev_f, vocab, actions, nctx)
    assert (cell.model_config, cell.train_config) == (config, tc)
    assert cell.history.epochs == hist.epochs
    assert cell.history.best_epoch == hist.best_epoch
    assert cell.dev_acc == hist.best_dev_acc
    assert cell.n_epochs == len(hist.epochs)


def test_train_cells_identical_seeds_give_identical_histories(toy):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    config = ModelConfig("HCN", **SMALL)
    tc = TrainConfig(turn_dropout_ratio=0.0, max_epochs=3, patience=3, seed=13)
    cells = train_cells([(config, tc)] * 3, train_f, dev_f, vocab, actions, nctx)
    assert len(cells) == 3
    assert all(c.history.epochs == cells[0].history.epochs for c in cells)
    assert all(c.history.best_epoch == cells[0].history.best_epoch for c in cells)


def test_vhcn_train_losses_differ_across_seeds(toy):
    domain, vocab, actions, nctx, train_f, dev_f = toy
    config = ModelConfig("VHCN", embedding_size=12, latent_size=3,
                         dialog_hidden_size=24, predictor_hidden_size=24)
    histories = []
    for seed in (21, 22, 23):
        tc = TrainConfig(turn_dropout_ratio=0.0, word_dropout=0.2, max_epochs=2,
                         patience=2, seed=seed)
        _, hist = train_model(config, tc, train_f, dev_f, vocab, actions, nctx)
        histories.append(tuple(r.train_loss for r in hist.epochs))
    assert len(set(histories)) == 3
