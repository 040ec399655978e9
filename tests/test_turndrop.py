import numpy as np
import pytest

from robusthcn.corpus import UNK_INDEX, prepare
from robusthcn.seeding import stream
from robusthcn.toy import generate_toy_domain
from robusthcn.turndrop import (
    TurnDropoutConfig,
    apply_turn_dropout,
    length_bounds_from,
    synth_turn,
)


@pytest.fixture(scope="module")
def featurized():
    domain = generate_toy_domain(29, 40, 8)
    data = prepare(domain.lexicon, [domain.train, domain.dev, domain.test])
    return data.vocab, data.action_set, data.featurize(domain.train)


def test_synth_all_unk_when_unk_prob_one(featurized):
    vocab, _, _ = featurized
    config = TurnDropoutConfig(ratio=1.0, length_bounds=(2, 6), unk_prob=1.0)
    for _ in range(20):
        turn = synth_turn(stream(0, "s"), vocab, config)
        assert (turn == UNK_INDEX).all()


def test_synth_fixed_length_bounds(featurized):
    vocab, _, _ = featurized
    config = TurnDropoutConfig(ratio=1.0, length_bounds=(3, 3))
    rng = stream(1, "s")
    for _ in range(20):
        assert len(synth_turn(rng, vocab, config)) == 3


def test_synth_unk_fraction_and_uniformity(featurized):
    scipy_stats = pytest.importorskip("scipy.stats")
    vocab, _, _ = featurized
    config = TurnDropoutConfig(ratio=1.0, length_bounds=(10, 10), unk_prob=0.5)
    rng = stream(2, "s")
    draws = np.concatenate([synth_turn(rng, vocab, config) for _ in range(10_000)])
    unk_fraction = np.mean(draws == UNK_INDEX)
    assert unk_fraction == pytest.approx(0.5, abs=0.01)
    words = draws[draws != UNK_INDEX]
    counts = np.bincount(words, minlength=len(vocab))[vocab.n_reserved:]
    expected = np.full(counts.shape, len(words) / len(counts))
    assert scipy_stats.chisquare(counts, expected).pvalue > 0.01
    # reserved indices are never sampled as words
    assert np.bincount(draws, minlength=2)[1] == 0  # silence index


def test_synth_lengths_uniform_in_bounds(featurized):
    vocab, _, _ = featurized
    config = TurnDropoutConfig(ratio=1.0, length_bounds=(2, 5))
    rng = stream(3, "s")
    lengths = [len(synth_turn(rng, vocab, config)) for _ in range(20_000)]
    hist = np.bincount(lengths, minlength=6)[2:6]
    assert hist.min() > 0
    np.testing.assert_allclose(hist / len(lengths), 0.25, atol=0.02)


def test_synth_validates_bounds():
    with pytest.raises(ValueError):
        TurnDropoutConfig(ratio=0.5, length_bounds=(0, 3))
    with pytest.raises(ValueError):
        TurnDropoutConfig(ratio=0.5, length_bounds=(4, 3))


def test_length_bounds_from_corpus(featurized):
    _, _, feats = featurized
    lo, hi = length_bounds_from(feats)
    lengths = [len(t.f_turn) for d in feats for t in d]
    assert (lo, hi) == (min(lengths), max(lengths))


def test_dropout_ratio_zero_is_identity(featurized):
    vocab, actions, feats = featurized
    config = TurnDropoutConfig(ratio=0.0, length_bounds=(1, 5))
    for dialog in feats[:5]:
        out = apply_turn_dropout(dialog, config, stream(4, "d"), actions.fallback_action_id, vocab)
        assert all(a is b for a, b in zip(out, dialog))


def test_dropout_ratio_one_replaces_everything(featurized):
    vocab, actions, feats = featurized
    config = TurnDropoutConfig(ratio=1.0, length_bounds=(1, 5))
    fallback = actions.fallback_action_id
    for dialog in feats[:5]:
        out = apply_turn_dropout(dialog, config, stream(5, "d"), fallback, vocab)
        for original, replaced in zip(dialog, out):
            assert replaced.target == fallback
            assert replaced is not original
            # everything else bit-identical (same objects)
            assert replaced.f_ctx is original.f_ctx
            assert replaced.f_mask is original.f_mask
            assert replaced.prev_action is original.prev_action
            assert sorted(set(replaced.f_turn.tolist())) == replaced.bow_indices.tolist()


def test_dropout_empirical_rate(featurized):
    vocab, actions, feats = featurized
    config = TurnDropoutConfig(ratio=0.4, length_bounds=(1, 5))
    turns = [t for d in feats for t in d]
    # tile the corpus to reach 10^4 turns
    big = [turns] * (10_000 // len(turns) + 1)
    replaced = 0
    total = 0
    rng = stream(6, "d")
    for dialog in big:
        out = apply_turn_dropout(dialog, config, rng, actions.fallback_action_id, vocab)
        replaced += sum(1 for a, b in zip(out, dialog) if a is not b)
        total += len(dialog)
    assert total >= 10_000
    assert replaced / total == pytest.approx(0.4, abs=0.02)


def test_dropout_resampled_per_stream(featurized):
    vocab, actions, feats = featurized
    config = TurnDropoutConfig(ratio=0.5, length_bounds=(1, 5))
    dialog = max(feats, key=len)
    out_a = apply_turn_dropout(dialog, config, stream(7, "epoch", 0), actions.fallback_action_id, vocab)
    out_b = apply_turn_dropout(dialog, config, stream(7, "epoch", 1), actions.fallback_action_id, vocab)
    chosen_a = [i for i, (x, y) in enumerate(zip(out_a, dialog)) if x is not y]
    chosen_b = [i for i, (x, y) in enumerate(zip(out_b, dialog)) if x is not y]
    assert chosen_a != chosen_b
    # identical streams replace identical subsets with identical tokens
    out_c = apply_turn_dropout(dialog, config, stream(7, "epoch", 0), actions.fallback_action_id, vocab)
    for x, y in zip(out_a, out_c):
        np.testing.assert_array_equal(x.f_turn, y.f_turn)
        assert x.target == y.target
