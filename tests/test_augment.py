import numpy as np
import pytest

from robusthcn.augment import (
    AugmentationConfig,
    OodPool,
    PoolError,
    SegmentPool,
    apply_labels,
    augment_corpus,
    augment_dialog,
    labels_text,
    load_ood_pool,
    load_segment_pool,
    merge_ood_pools,
    parse_labels,
    sample_ood_block,
)
from robusthcn.corpus import (DEFAULT_FALLBACK_TEMPLATE, Dialog, OodLabel, ParseError,
                              SILENCE_TOKEN, Turn, parse_dialogs, prepare, write_dialogs)
from robusthcn.seeding import stream
from robusthcn.toy import SEGMENT_INTERJECTIONS, generate_foreign_dialogs, generate_toy_domain

POOL = OodPool(utterances=(("will", "it", "rain"), ("book", "a", "trip"),
                           ("next", "bus", "please")))
SEGMENTS = SegmentPool(interjections=(("so", "sorry"), ("my", "mistake")))


def _ind_dialog(n_turns, did=0):
    turns = tuple(
        Turn(user_tokens=("turn", str(i)), system_utterance="reply %d" % i, system_action=i)
        for i in range(n_turns)
    )
    return Dialog(id=did, turns=turns)


# ------------------------------------------------------------------ pools

def test_load_ood_pool_takes_first_utterances_in_order():
    foreign = generate_foreign_dialogs(3, n_per_domain=10)
    pool = load_ood_pool(foreign)
    firsts = []
    for d in foreign:
        if d.turns[0].user_tokens not in firsts:
            firsts.append(d.turns[0].user_tokens)
    assert list(pool.utterances) == firsts


def test_load_ood_pool_skips_silence_and_dedups():
    d1 = Dialog(id=0, turns=(Turn((SILENCE_TOKEN,), "hello"),))
    d2 = Dialog(id=1, turns=(Turn(("same", "thing"), "x"),))
    d3 = Dialog(id=2, turns=(Turn(("same", "thing"), "y"),))
    pool = load_ood_pool([d1, d2, d3])
    assert pool.utterances == (("same", "thing"),)


def test_load_ood_pool_rejects_all_silence():
    d1 = Dialog(id=0, turns=(Turn((SILENCE_TOKEN,), "hello"),))
    with pytest.raises(PoolError):
        load_ood_pool([d1])


def test_merge_pools_dedups_across_sources():
    a = OodPool(utterances=(("x",), ("y",)), source="a")
    b = OodPool(utterances=(("y",), ("z",)), source="b")
    merged = merge_ood_pools([a, b])
    assert merged.utterances == (("x",), ("y",), ("z",))


def test_load_segment_pool_from_lines():
    pool = load_segment_pool("so sorry man\n\nmy mistake\n")
    assert pool.interjections == (("so", "sorry", "man"), ("my", "mistake"))


# ------------------------------------------------------------ block lengths

def test_block_length_one_when_cont_zero():
    config = AugmentationConfig(p_ood_start=1.0, p_ood_cont=0.0, seed=0)
    rng = stream(0, "block")
    for _ in range(50):
        block = sample_ood_block(rng, config, POOL)
        assert len(block) == 1


def test_block_turns_all_fallback_turn_ood():
    config = AugmentationConfig(p_ood_start=1.0, p_ood_cont=0.6, seed=0)
    rng = stream(1, "block")
    block = sample_ood_block(rng, config, POOL)
    for turn in block:
        # the action id is resolved from the utterance, as for every turn
        assert turn.system_utterance == DEFAULT_FALLBACK_TEMPLATE
        assert turn.system_action is None
        assert turn.ood_label is OodLabel.TURN_OOD
        assert turn.user_tokens in POOL.utterances


def test_block_length_geometric_mean():
    config = AugmentationConfig(p_ood_start=1.0, p_ood_cont=0.4, seed=0)
    rng = stream(2, "block")
    lengths = [len(sample_ood_block(rng, config, POOL)) for _ in range(100_000)]
    assert np.mean(lengths) == pytest.approx(1.0 / 0.6, abs=0.02)


def test_block_length_geometric_goodness_of_fit():
    scipy_stats = pytest.importorskip("scipy.stats")
    p_cont = 0.4
    config = AugmentationConfig(p_ood_start=1.0, p_ood_cont=p_cont, seed=0)
    rng = stream(3, "gof")
    n = 100_000
    lengths = np.array(
        [len(sample_ood_block(rng, config, POOL)) for _ in range(n)]
    )
    # bin k = 1..K with a merged tail so every expected count is >= 5
    k_max = 1
    while n * (p_cont ** k_max) * (1 - p_cont) >= 5:
        k_max += 1
    observed = np.array(
        [np.sum(lengths == k) for k in range(1, k_max)] + [np.sum(lengths >= k_max)],
        dtype=float,
    )
    expected = np.array(
        [n * (p_cont ** (k - 1)) * (1 - p_cont) for k in range(1, k_max)]
        + [n * (p_cont ** (k_max - 1))]
    )
    result = scipy_stats.chisquare(observed, expected)
    assert result.pvalue > 0.01


def test_block_empty_pool_errors():
    config = AugmentationConfig(p_ood_start=1.0, p_ood_cont=0.0, seed=0)
    with pytest.raises(PoolError):
        sample_ood_block(stream(0, "x"), config, OodPool(utterances=()))


# ---------------------------------------------------------- dialog-level

def test_augment_identity_when_p_start_zero():
    dialog = _ind_dialog(6)
    config = AugmentationConfig(p_ood_start=0.0, p_ood_cont=0.5, seed=0)
    out = augment_dialog(dialog, config, stream(0, "a"), POOL, SEGMENTS)
    assert out == dialog


def test_augment_forced_pattern():
    dialog = _ind_dialog(5)
    config = AugmentationConfig(p_ood_start=1.0, p_ood_cont=0.0, seed=0)
    out = augment_dialog(dialog, config, stream(1, "a"), POOL, SEGMENTS)
    assert len(out.turns) == 10
    for i, turn in enumerate(out.turns):
        if i % 2 == 0:
            assert turn.ood_label is OodLabel.TURN_OOD
            assert turn.system_utterance == DEFAULT_FALLBACK_TEMPLATE
            assert turn.system_action is None
        else:
            assert turn.ood_label is OodLabel.SEGMENT_OOD
            original = dialog.turns[i // 2]
            assert turn.system_action == original.system_action
            assert turn.user_tokens[-len(original.user_tokens):] == original.user_tokens
            prefix = turn.user_tokens[: -len(original.user_tokens)]
            assert prefix in SEGMENTS.interjections


def test_augment_monte_carlo_block_rate():
    config = AugmentationConfig(p_ood_start=0.2, p_ood_cont=0.4, seed=0)
    dialogs = [_ind_dialog(10, did=i) for i in range(1200)]  # 12000 original turns
    out, stats = augment_corpus(dialogs, config, POOL, SEGMENTS)
    assert stats.original_turns == 12_000
    assert stats.block_start_rate == pytest.approx(0.2, abs=0.02)
    assert stats.mean_block_length == pytest.approx(5.0 / 3.0, abs=0.05)
    assert stats.segment_turns == stats.blocks
    assert stats.ind_turns + stats.segment_turns == stats.original_turns


def test_augment_preserves_originals_exactly():
    # stripping inserted turns and interjection prefixes recovers the input
    config = AugmentationConfig(p_ood_start=0.35, p_ood_cont=0.5, seed=7)
    dialogs = [_ind_dialog(8, did=i) for i in range(40)]
    out, _ = augment_corpus(dialogs, config, POOL, SEGMENTS)
    for original, augmented in zip(dialogs, out):
        kept = [t for t in augmented.turns if t.ood_label is not OodLabel.TURN_OOD]
        assert len(kept) == len(original.turns)
        for orig, turn in zip(original.turns, kept):
            assert turn.system_utterance == orig.system_utterance
            assert turn.system_action == orig.system_action
            assert turn.kb_facts == orig.kb_facts
            if turn.ood_label is OodLabel.SEGMENT_OOD:
                assert turn.user_tokens[-len(orig.user_tokens):] == orig.user_tokens
                assert turn.user_tokens[: -len(orig.user_tokens)] in SEGMENTS.interjections
            else:
                assert turn == orig


def test_augment_deterministic_and_order_independent():
    config = AugmentationConfig(p_ood_start=0.3, p_ood_cont=0.4, seed=11)
    dialogs = [_ind_dialog(6, did=i) for i in range(30)]
    out1, _ = augment_corpus(dialogs, config, POOL, SEGMENTS)
    out2, _ = augment_corpus(dialogs, config, POOL, SEGMENTS)
    assert write_dialogs(out1) == write_dialogs(out2)
    # streams are keyed by dialog id, so a shuffled corpus gives the exact
    # same per-dialog outputs
    order = stream(0, "shuffle").permutation(len(dialogs))
    shuffled = [dialogs[int(i)] for i in order]
    out3, _ = augment_corpus(shuffled, config, POOL, SEGMENTS)
    by_id = {d.id: d for d in out3}
    for reference in out1:
        assert by_id[reference.id].turns == reference.turns


def test_independent_segment_probability():
    config = AugmentationConfig(p_ood_start=0.0, p_ood_cont=0.0, seed=0,
                                independent_segment_prob=1.0)
    dialog = _ind_dialog(4)
    out = augment_dialog(dialog, config, stream(5, "seg"), POOL, SEGMENTS)
    assert len(out.turns) == 4
    assert all(t.ood_label is OodLabel.SEGMENT_OOD for t in out.turns)


def test_toy_end_to_end_augmentation_has_both_kinds():
    domain = generate_toy_domain(23, 60, 9)
    foreign = generate_foreign_dialogs(24, n_per_domain=15)
    pool = load_ood_pool(foreign)
    segments = load_segment_pool("\n".join(SEGMENT_INTERJECTIONS))
    config = AugmentationConfig(p_ood_start=0.2, p_ood_cont=0.4, seed=1)
    out, stats = augment_corpus(domain.test, config, pool, segments)
    assert stats.inserted_turns > 0
    assert stats.segment_turns > 0
    text = write_dialogs(out)
    assert write_dialogs(parse_dialogs(text)) == text
    # featurization resolves the inserted turns' utterance to the fallback
    # action, and every other turn to its own
    data = prepare(domain.lexicon, [domain.train, domain.dev, domain.test],
                   [foreign, segments.as_dialogs()])
    targets = [f.target for dialog in data.featurize(out) for f in dialog]
    expected = [f.target for dialog in data.featurize(domain.test) for f in dialog]
    fallback = data.action_set.fallback_action_id
    labels = [t.ood_label for dialog in out for t in dialog.turns]
    assert [t for t, label in zip(targets, labels) if label is OodLabel.TURN_OOD] == [
        fallback] * stats.inserted_turns
    assert [t for t, label in zip(targets, labels) if label is not OodLabel.TURN_OOD] == expected


# ---------------------------------------------------------------- labels

def test_labels_round_trip():
    config = AugmentationConfig(p_ood_start=0.4, p_ood_cont=0.4, seed=3)
    dialogs = [_ind_dialog(5, did=i) for i in range(10)]
    out, _ = augment_corpus(dialogs, config, POOL, SEGMENTS)
    text = labels_text(out)
    labels = parse_labels(text)
    assert set(labels) == {d.id for d in out}
    for dialog in out:
        assert labels[dialog.id] == [t.ood_label for t in dialog.turns]
    # applying the labels to a label-stripped corpus restores them
    stripped = [
        Dialog(id=d.id, turns=tuple(
            Turn(t.user_tokens, t.system_utterance, t.kb_facts, OodLabel.IND, t.system_action)
            for t in d.turns
        ))
        for d in out
    ]
    restored = apply_labels(stripped, labels)
    for dialog, ref in zip(restored, out):
        assert [t.ood_label for t in dialog.turns] == [t.ood_label for t in ref.turns]


@pytest.mark.parametrize("text, line_no, message", [
    ("0\t0\n", 1, "expected 3 tab-separated fields, got 2"),
    ("0\t0\tIND\tx\n", 1, "expected 3 tab-separated fields, got 4"),
    ("0\t0\tIND\nzero\t1\tIND\n", 2, "must be non-negative integers"),
    ("0\t0\tIND\n0\t-1\tIND\n", 2, "must be non-negative integers"),
    ("0\t0\tIND\n\n0\t1\tOOD\n", 3, "unknown label 'OOD'"),
    ("0\t0\tIND\n0\t2\tIND\n", 2, "not in turn order"),
])
def test_parse_labels_rejects_corrupt_lines(text, line_no, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_labels(text)
    assert err.value.line_no == line_no


def test_apply_labels_validates_alignment():
    dialogs = [_ind_dialog(3)]
    with pytest.raises(ValueError):
        apply_labels(dialogs, {0: [OodLabel.IND]})
    with pytest.raises(ValueError):
        apply_labels(dialogs, {5: [OodLabel.IND] * 3})
    # every dialog the sidecar names must be in the transcript
    with pytest.raises(ValueError, match="labels name dialog 7, which the transcript"):
        apply_labels(dialogs, {0: [OodLabel.IND] * 3, 7: [OodLabel.IND]})


def test_config_validates_probabilities():
    with pytest.raises(ValueError):
        AugmentationConfig(p_ood_start=1.2, p_ood_cont=0.0, seed=0)
    with pytest.raises(ValueError):
        AugmentationConfig(p_ood_start=0.1, p_ood_cont=-0.1, seed=0)
