"""No-grad inference: one packed pass over all the dialogs of a call.

``predict_dialogs`` encodes each distinct turn of the call once, in one
``encode_turn`` call that walks the turn LSTM over the prefix trie of the
distinct turns (one row per distinct prefix).  It projects the dialog
level's token half once per distinct turn and its context half once per
distinct (context, previous action, mask) row, then makes one
``predict_dialog`` call over all the dialogs, given the two tables and each
turn's row index into them.  That call runs the dialog LSTM once over the
dialogs packed longest first, each level gathering its rows from the two
tables, so the rows of all turns are never built at once.  These tests hold
it to the per-dialog path, to the all-rows projection and to ``nn.lstm``
over the rows built in full, on trained toy models; bound its memory by the
dialog level's hidden states; and hold every caller to the contract the
benchmark's inference review counts on: each turn's action comes back from
``predict_dialog`` exactly once.
"""

import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robusthcn import augment, corpus, evaluation, models, nn, toy
from robusthcn.corpus import prepare
from robusthcn.evaluation import evaluate_model
from robusthcn.models import ModelConfig, predict_dialog, predict_dialogs
from robusthcn.seeding import derive_seed, stream
from robusthcn.toy import generate_toy_domain
from robusthcn.train import TrainConfig, train_model

from util import bow_vector, context_vector, tiny_actions, tiny_model, tiny_turn, tiny_vocab

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


def _key(features):
    return features.f_turn.tobytes()


def _infer(model, turns):
    rows, inverse, _ = models._infer_turn_vectors(model, turns)
    return rows[inverse]


def _all_rows_inputs(model, turns):
    """The dialog-level input rows projected at every turn, as training does."""
    with nn.no_grad():
        return model.dialog_inputs(_infer(model, turns), turns).data


def _context_key(features):
    return (features.f_ctx.slot_provided, features.f_ctx.api_returned,
            features.prev_action.tobytes(), features.f_mask.tobytes())


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
    """Records (inputs, lengths, result) of every ``predict_dialog`` call.

    Like the benchmark's tracer, it replaces the name in every library
    module that holds it, so calls through any import path are seen.
    """
    original = models.predict_dialog
    calls = []

    def recording(model, inputs, lengths):
        result = original(model, inputs, lengths)
        calls.append((inputs, lengths, result))
        return result

    for module in _library_modules():
        if module.__dict__.get("predict_dialog") is original:
            monkeypatch.setattr(module, "predict_dialog", recording)
    return calls


@pytest.fixture
def encode_calls(monkeypatch):
    """Records the turns of every ``Model.encode_turn`` call."""
    original = models.Model.encode_turn
    calls = []

    def recording(self, turns, rng=None):
        calls.append(list(turns))
        return original(self, turns, rng)

    monkeypatch.setattr(models.Model, "encode_turn", recording)
    return calls


def _dialog_walks(monkeypatch):
    """Records (inputs, levels, states) of every level loop over two tables.

    Those are the dialog level's walks without a graph: the turn level's
    trie walk reads one table.  ``states`` are the walk's hidden states in
    packed order.
    """
    original = nn._lstm_levels
    walks = []

    def recording(inputs, u, b, levels, hs, cs, *args, **kwargs):
        original(inputs, u, b, levels, hs, cs, *args, **kwargs)
        if len(inputs) == 2:
            walks.append((inputs, levels, hs[len(hs) - sum(k for k, _ in levels):].copy()))

    monkeypatch.setattr(nn, "_lstm_levels", recording)
    return walks


@pytest.mark.parametrize("variant", list(CONFIGS))
def test_one_pass_predictions_equal_per_dialog_predictions(domain, trained, predict_calls,
                                                           encode_calls, monkeypatch, variant):
    model = trained[variant]
    dialogs = _mixed_dialogs(domain)
    per_dialog = [predict_dialogs(model, [d]) for d in dialogs]
    del predict_calls[:]
    del encode_calls[:]
    walks = _dialog_walks(monkeypatch)

    assert predict_dialogs(model, dialogs) == [a for preds in per_dialog for a in preds]

    # the whole call is one encode_turn call over each distinct token
    # sequence once, though the corpus repeats turns
    (call,) = encode_calls
    distinct = {_key(f) for d in dialogs for f in d}
    assert sorted(map(_key, call)) == sorted(distinct)
    assert len(distinct) < sum(len(d) for d in dialogs)

    # and one predict_dialog call over every dialog, which returns each
    # turn's action once; its inputs are the two tables and each turn's
    # row in them, whose sums equal the turns projected row by row
    turns = [f for d in dialogs for f in d]
    (inputs, lengths, result), = predict_calls
    assert list(lengths) == [len(d) for d in dialogs] and len(result) == len(turns)
    (token, token_of), (context, context_of) = inputs
    rows = token[token_of] + context[context_of]
    assert rows.tobytes() == _all_rows_inputs(model, turns).tobytes()

    # the dialog level is one walk over the dialogs packed longest first;
    # each level gathers its rows from the two tables, equal bit for bit to
    # those rows, and the states are nn.lstm's over the rows built in full
    packed, _, sizes = nn.pack_sequences(lengths, len(turns))
    (pairs, levels, states), = walks
    assert [k for k, _ in levels] == sizes
    r = 0
    for k, _ in levels:
        gathered = sum(table[of[r:r + k]] for table, of in pairs)
        assert gathered.tobytes() == rows[packed[r:r + k]].tobytes()
        r += k
    with nn.no_grad():
        expected = nn.lstm(rows, lengths, model.dlg_u, model.dlg_b).data
    np.testing.assert_allclose(states, expected[packed], rtol=0, atol=0)
    assert max(len(d) for d in dialogs) > 20
    assert min(len(d) for d in dialogs) == 1


def _chunks(dialogs, turn_budget):
    # consecutive whole dialogs, at most turn_budget turns a chunk unless
    # one dialog is longer, each closed only when the next would not fit
    chunks, chunk, size = [], [], 0
    for dialog in dialogs:
        if chunk and size + len(dialog) > turn_budget:
            chunks.append(chunk)
            chunk, size = [], 0
        chunk.append(dialog)
        size += len(dialog)
    return chunks + [chunk]


@pytest.mark.parametrize("variant", list(CONFIGS))
@pytest.mark.parametrize("turn_budget", [256, 20], ids=str)
def test_chunked_predictions_equal_per_dialog_predictions(domain, trained, predict_calls,
                                                          encode_calls, variant, turn_budget):
    """A corpus scored in chunks of whole dialogs predicts what it does whole.

    A dialog's actions do not depend on the dialogs packed with it: chunks
    of at most ``turn_budget`` turns, several dialogs each or one longer
    dialog alone, give the per-dialog predictions, and each chunk is one
    ``encode_turn`` call and one ``predict_dialog`` call over its turns.
    """
    model = trained[variant]
    dialogs = _mixed_dialogs(domain)
    per_dialog = [predict_dialogs(model, [d]) for d in dialogs]
    whole = predict_dialogs(model, dialogs)
    chunks = _chunks(dialogs, turn_budget)
    del predict_calls[:]
    del encode_calls[:]

    chunked = [a for chunk in chunks for a in predict_dialogs(model, chunk)]
    assert chunked == whole == [a for preds in per_dialog for a in preds]

    assert len(encode_calls) == len(predict_calls) == len(chunks)
    for chunk, call, (inputs, lengths, result) in zip(chunks, encode_calls, predict_calls):
        turns = [f for d in chunk for f in d]
        assert sorted(map(_key, call)) == sorted({_key(f) for f in turns})
        assert list(lengths) == [len(d) for d in chunk] and len(result) == len(turns)
        (token, token_of), (context, context_of) = inputs
        rows = token[token_of] + context[context_of]
        assert rows.tobytes() == _all_rows_inputs(model, turns).tobytes()
    assert any(len(chunk) > 1 for chunk in chunks)
    if turn_budget < max(len(d) for d in dialogs):
        assert len(chunks) > 1
        assert any(len(chunk) == 1 and len(chunk[0]) > turn_budget for chunk in chunks)


@pytest.mark.parametrize("variant", list(CONFIGS))
def test_batched_logits_match_per_dialog_logits(domain, trained, variant):
    model = trained[variant]
    dialogs = _mixed_dialogs(domain)
    turns = [f for d in dialogs for f in d]
    with nn.no_grad():
        lengths = [len(d) for d in dialogs]
        batched = model.dialog_step(model.dialog_inputs(_infer(model, turns), turns), lengths)
        gathered = model.dialog_step(models._infer_inputs(model, turns), lengths)
        single = [model.dialog_step(model.dialog_inputs(model.encode_turn(d)[0], d)).data
                  for d in dialogs]
    # a product over more rows need not round like a smaller one
    for logits in (batched, gathered):
        np.testing.assert_allclose(logits.data, np.concatenate(single), rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("variant", list(CONFIGS))
def test_duplicate_turns_get_equal_rows(domain, trained, predict_calls, encode_calls, variant):
    model = trained[variant]
    dialog = domain["dev"][0]
    # each turn's tokens again, in another array, with another turn's
    # position, previous action and context
    copies = [dataclasses.replace(g, f_turn=f.f_turn.copy(), bow_indices=f.bow_indices)
              for f, g in zip(dialog, dialog[::-1])]
    dialogs = [dialog, copies, dialog[::-1]]
    predictions = predict_dialogs(model, dialogs)
    distinct = {_key(f) for f in dialog}
    assert sorted(_key(f) for call in encode_calls for f in call) == sorted(distinct)
    turns = [f for d in dialogs for f in d]
    rows = {}
    for f, row in zip(turns, _infer(model, turns)):
        assert rows.setdefault(_key(f), row.tobytes()) == row.tobytes()
    assert len(rows) == len(distinct)
    # equal tokens share one token-half row, equal contexts one
    # context-half row, and predict_dialog is given both tables
    (token, token_of), (context, context_of) = models._infer_inputs(model, turns)
    assert len(token) == len(distinct)
    assert len(context) == len({_context_key(f) for f in turns})
    for of, key in ((token_of, _key), (context_of, _context_key)):
        first = {}
        for f, i in zip(turns, of):
            assert first.setdefault(key(f), i) == i
        assert len(set(first.values())) == len(first)
    (inputs, lengths, _), = predict_calls
    assert list(lengths) == [len(d) for d in dialogs]
    for (table, of), (expected, expected_of) in zip(inputs, ((token, token_of),
                                                             (context, context_of))):
        assert table.tobytes() == expected.tobytes() and np.array_equal(of, expected_of)
    # each row is the turn encoded on its own; VHCN's is the posterior
    # mean, not a sample
    with nn.no_grad():
        for f in dialog:
            vector, encoding = model.encode_turn([f])
            expected = vector.data if encoding is None else encoding.mu.data
            np.testing.assert_allclose(np.frombuffer(rows[_key(f)], dtype=model.dtype),
                                       expected[0], rtol=1e-5, atol=1e-6)
    assert predictions == [a for d in dialogs for a in predict_dialogs(model, [d])]


@pytest.mark.parametrize("variant", list(CONFIGS))
@pytest.mark.parametrize("corpus", ["identical", "distinct"])
def test_corpus_of_identical_or_of_distinct_turns(domain, trained, encode_calls, variant, corpus):
    model = trained[variant]
    turns = [f for d in domain["train"] + domain["dev"] + domain["test"] for f in d]
    if corpus == "identical":
        one = turns[1]
        turns = [dataclasses.replace(f, f_turn=one.f_turn.copy(), bow_indices=one.bow_indices)
                 for f in turns]
    else:
        first = {}
        for f in turns:
            first.setdefault(_key(f), f)
        turns = list(first.values())
    dialogs = [turns[i:i + 7] for i in range(0, len(turns), 7)]
    per_dialog = [a for d in dialogs for a in predict_dialogs(model, [d])]
    del encode_calls[:]
    assert predict_dialogs(model, dialogs) == per_dialog
    encoded = [_key(f) for call in encode_calls for f in call]
    if corpus == "identical":
        assert encoded == [_key(turns[0])]
    else:
        assert sorted(encoded) == sorted(map(_key, turns))


# a few toy turns, one of them twice in separate arrays
def _turn_pool(domain):
    first = {}
    for f in domain["dev"][0] + domain["dev"][1]:
        first.setdefault(_key(f), f)
    pool = list(first.values())[:5]
    return pool + [dataclasses.replace(pool[1], f_turn=pool[1].f_turn.copy())]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_predict_dialogs_equals_per_dialog_path_on_random_corpora(domain, trained, data):
    pool = _turn_pool(domain)
    picks = data.draw(st.lists(st.lists(st.integers(0, len(pool) - 1), max_size=12),
                               max_size=8))
    dialogs = [[pool[i] for i in dialog] for dialog in picks]
    for model in trained.values():
        assert predict_dialogs(model, dialogs) == [
            a for dialog in dialogs for a in predict_dialogs(model, [dialog])]


def test_predict_dialog_rejects_inputs_of_another_row_count(domain, trained):
    model = trained["HHCN"]
    turns = domain["dev"][0][:3]
    inputs = _all_rows_inputs(model, turns)
    assert predict_dialog(model, inputs, [3]) == predict_dialogs(model, [turns])
    for wrong in (inputs[:2], np.concatenate([inputs, inputs[:1]]), inputs[:0]):
        with pytest.raises(nn.DimensionError):
            predict_dialog(model, wrong, [3])
    # index arrays into the two tables must split the turns as well
    (token, token_of), (context, context_of) = models._infer_inputs(model, turns)
    assert predict_dialog(model, [(token, token_of), (context, context_of)],
                          [3]) == predict_dialogs(model, [turns])
    assert predict_dialog(model, [(token, token_of), (context, context_of)],
                          [1, 2]) == predict_dialogs(model, [turns[:1], turns[1:]])
    for wrong_token_of, wrong_context_of, lengths in [
            (token_of[:2], context_of[:2], [3]), (token_of, context_of, [2]),
            (token_of, context_of, [2, 2]), (token_of, context_of[:2], [3]),
            (np.concatenate([token_of, token_of[:1]]), context_of, [3]),
            (token_of, np.concatenate([context_of, context_of[:1]]), [3]),
            (token_of, context_of[:0], [3]), (token_of, context_of, [3, 0])]:
        with pytest.raises(nn.DimensionError):
            predict_dialog(model, [(token, wrong_token_of), (context, wrong_context_of)], lengths)
    with pytest.raises(nn.DimensionError):  # a row outside a table
        predict_dialog(model, [(token, token_of), (context, context_of + len(context))], [3])


def _lstm_inputs(monkeypatch):
    """Records every ``nn.lstm`` call's zx and every ``nn.lstm_trie`` call's (zx, rows)."""
    lstm, trie = nn.lstm, nn.lstm_trie
    seen, walked = [], []

    def recording(zx, lengths, w_recurrent, bias):
        seen.append(zx)
        return lstm(zx, lengths, w_recurrent, bias)

    def recording_trie(zx, rows, parents, level_sizes, w_recurrent, bias):
        walked.append((zx, rows))
        return trie(zx, rows, parents, level_sizes, w_recurrent, bias)

    monkeypatch.setattr(nn, "lstm", recording)
    monkeypatch.setattr(nn, "lstm_trie", recording_trie)
    return seen, walked


@pytest.mark.parametrize("variant", ["HHCN", "VHCN", "HHCN-default"])
def test_no_grad_projects_each_distinct_token_once(domain, trained, monkeypatch, variant):
    if variant == "HHCN-default":
        data = domain["data"]
        model = models.Model(ModelConfig("HHCN"), data.vocab, data.action_set, data.n_context)
    else:
        model = trained[variant]
    dialogs = domain["dev"] + domain["test"]
    seen, walked = _lstm_inputs(monkeypatch)
    # many turns, a one-token turn, and two turns of one repeated token
    cases = [[f for d in dialogs for f in d], dialogs[0][:1],
             [dataclasses.replace(dialogs[0][1], f_turn=np.array([5, 5, 5]))] * 2]
    for turns in cases:
        tokens = np.concatenate([f.f_turn for f in turns])
        per_token = model.embedding.data[tokens] @ model.turn_w_input.data
        del seen[:], walked[:]
        with nn.no_grad():
            model.encode_turn(turns)
        # the trie walk reads one product row per distinct token (every
        # node's token where there is one distinct token), and each node's
        # row is its token's row of the per-token product bit for bit
        (zx, rows), = walked
        assert seen == []
        node_tokens = models._prefix_trie([f.f_turn for f in turns])[0]
        n_distinct = len(np.unique(tokens))
        assert len(zx) == (n_distinct if n_distinct > 1 else len(node_tokens))
        first = {t: i for i, t in reversed(list(enumerate(tokens.tolist())))}
        expected = per_token[[first[t] for t in node_tokens.tolist()]]
        assert np.asarray(zx)[rows].tobytes() == expected.tobytes()

        # while a graph is recorded, zx is the product of the gathered
        # per-token rows, so every token's gradient reaches the embedding
        del seen[:], walked[:]
        model.encode_turn(turns)
        zx = seen[0]
        assert nn.grad_enabled() and zx.requires_grad and walked == []
        weight, gathered = zx._parents
        assert weight is model.turn_w_input and gathered.data.shape[0] == tokens.size
        np.testing.assert_array_equal(zx.data, per_token)


def _prefixes(sequences):
    return {tuple(s[:d + 1]) for s in sequences for d in range(len(s))}


def _level_rows(monkeypatch):
    """Records the row count of every level of every ``nn`` level loop."""
    original = nn._lstm_levels
    levels_seen = []

    def recording(zs, u, b, levels, *args, **kwargs):
        levels_seen.append([k for k, _ in levels])
        return original(zs, u, b, levels, *args, **kwargs)

    monkeypatch.setattr(nn, "_lstm_levels", recording)
    return levels_seen


@st.composite
def _prefix_sharing_turns(draw):
    """Token sequences over four words that share prefixes.

    Strict prefixes of other turns, equal turns in separate arrays and
    one-token turns, or else one distinct turn several times.
    """
    word = st.integers(2, 5)
    base = draw(st.lists(st.lists(word, min_size=1, max_size=7), min_size=1, max_size=6))
    if draw(st.booleans()):
        turns = [base[0]] * draw(st.integers(1, 4))
    else:
        turns = list(base)
        for seq in draw(st.lists(st.sampled_from(base), max_size=4)):
            if len(seq) > 1:
                turns.append(seq[:draw(st.integers(1, len(seq) - 1))])
        turns += [[t] for t in draw(st.lists(word, max_size=2))]
        turns += draw(st.lists(st.sampled_from(turns), max_size=4))
    return draw(st.permutations(turns))


@settings(max_examples=60, deadline=None)
@given(sequences=_prefix_sharing_turns(), variant=st.sampled_from(["HHCN", "VHCN"]))
def test_no_grad_trie_walk_computes_each_prefix_once(domain, trained, sequences, variant):
    model = trained[variant]
    template = domain["dev"][0][0]
    turns = [dataclasses.replace(template, f_turn=np.array(s, dtype=template.f_turn.dtype))
             for s in sequences]
    with pytest.MonkeyPatch.context() as patch:
        levels_seen = _level_rows(patch)
        with nn.no_grad():
            vectors = model.encode_turn(turns)[0].data
    # one level per token position, one row per distinct prefix of it
    (levels,), prefixes = levels_seen, _prefixes(sequences)
    assert levels == [sum(len(p) == d + 1 for p in prefixes) for d in range(len(levels))]
    assert sum(levels) == len(prefixes)
    # each row is the turn encoded on its own with a graph (VHCN: the
    # posterior mean)
    for f, vector in zip(turns, vectors):
        alone = model.encode_turn([f])[0]
        assert alone.requires_grad
        np.testing.assert_allclose(vector, alone.data[0], rtol=1e-5, atol=1e-6)


def _ood_infer_long_dialogs(seed):
    """The featurized dialogs that the benchmark's ``ood_infer_long`` job scores for ``seed``."""
    domain = generate_toy_domain(seed, 100, 20)
    dialogs = [corpus.Dialog(id=i, turns=d.turns)
               for i, d in enumerate(domain.train + domain.dev + domain.test)]
    pool = augment.load_ood_pool(toy.generate_foreign_dialogs(derive_seed(seed, "foreign")),
                                 source="ood-pool")
    config = augment.AugmentationConfig(p_ood_start=0.5, p_ood_cont=0.7,
                                        seed=derive_seed(seed, "augment"))
    augmented, _ = augment.augment_corpus(dialogs, config, pool,
                                          augment.load_segment_pool(toy.segment_pool_text()))
    parsed = augment.apply_labels(corpus.parse_dialogs(corpus.write_dialogs(augmented)),
                                  augment.parse_labels(augment.labels_text(augmented)))
    vocab = corpus.build_vocabulary([parsed])
    actions = corpus.extract_action_set(parsed, domain.lexicon)
    return vocab, actions, len(domain.lexicon.slot_types) + 1, [
        corpus.featurize_dialog(d, vocab, actions, domain.lexicon)
        for d in corpus.assign_actions(parsed, actions, domain.lexicon)]


@pytest.fixture(scope="module")
def ood_infer_long():
    return _ood_infer_long_dialogs(101)


def test_ood_infer_long_corpus_walks_one_row_per_distinct_prefix(ood_infer_long, monkeypatch):
    # seed 101's 1612 turns hold 427 distinct token sequences of 3656
    # tokens in all, but only 1816 distinct prefixes
    vocab, actions, n_context, dialogs = ood_infer_long
    turns = [f for d in dialogs for f in d]
    model = models.Model(ModelConfig("HHCN"), vocab, actions, n_context)
    distinct = {_key(f): f.f_turn for f in turns}
    assert (len(turns), len(distinct)) == (1612, 427)
    assert sum(len(s) for s in distinct.values()) == 3656
    levels_seen = _level_rows(monkeypatch)
    models._infer_turn_vectors(model, turns)
    (levels,) = levels_seen
    assert sum(levels) == len(_prefixes([s.tolist() for s in distinct.values()])) == 1816
    assert len(levels) == max(len(s) for s in distinct.values()) == 21


@pytest.mark.parametrize("variant", list(CONFIGS))
def test_one_pass_memory_is_bounded_by_the_dialog_level_states(ood_infer_long, variant):
    # The dialog level holds the hidden and cell states of all N turns
    # behind n_seq zero rows, (n_seq + N) x H each.  The (N, 4H) input rows
    # alone would be 3.8 of those buffers on this corpus; they are gathered
    # one level at a time instead, and the peak stays under 6 of them
    # (4.3 at default sizes, for every variant).
    vocab, actions, n_context, dialogs = ood_infer_long
    model = models.Model(ModelConfig(variant), vocab, actions, n_context,
                         rng=stream(101, "init", variant))
    n_seq, n_turns = len(dialogs), sum(map(len, dialogs))
    hidden = model.config.dialog_hidden_size
    states = (n_seq + n_turns) * hidden * model.dtype.itemsize
    assert n_turns * 4 * hidden * model.dtype.itemsize > 3.7 * states
    expected = predict_dialogs(model, dialogs)
    tracemalloc.start()
    try:
        assert predict_dialogs(model, dialogs) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * states


@pytest.mark.parametrize("variant", list(CONFIGS))
def test_many_distinct_tokens_are_encoded_in_one_call(encode_calls, variant):
    # far more distinct-turn tokens than one trie walk over a toy test set
    # holds, some turns repeated, in dialogs of ten turns
    vocab, actions = tiny_vocab(40), tiny_actions(6)
    model = tiny_model(variant, vocab, actions)
    rng = stream(0, "many-distinct-tokens")
    sequences = [rng.integers(2, 40, rng.integers(4, 14)) for _ in range(550)]
    turns = [tiny_turn(vocab, actions, sequences[i % 550], i % 6, prev=(i + 1) % 6,
                       ctx_bits=(i % 2, i // 2 % 2), api=int(i % 3 == 0))
             for i in range(600)]
    dialogs = [turns[i:i + 10] for i in range(0, len(turns), 10)]
    assert sum(map(len, sequences)) > 4096
    per_dialog = [a for d in dialogs for a in predict_dialogs(model, [d])]
    del encode_calls[:]
    assert predict_dialogs(model, dialogs) == per_dialog
    (call,) = encode_calls
    assert sorted(map(_key, call)) == sorted({_key(f) for f in turns})
    assert len(call) == 550


def _edge_cases(domain):
    """Turn lists that reach each guard of the two dialog-level tables."""
    turns = [f for d in domain["dev"] + domain["test"] for f in d]
    one, other = turns[1], turns[2]
    assert _key(one) != _key(other) and _context_key(one) != _context_key(other)
    return {
        "many": turns,
        "one-token-sequence": [dataclasses.replace(f, f_turn=one.f_turn.copy(),
                                                   bow_indices=one.bow_indices)
                               for f in turns],
        "one-context": [dataclasses.replace(f, f_ctx=one.f_ctx,
                                            prev_action=one.prev_action.copy(),
                                            f_mask=one.f_mask.copy())
                        for f in turns],
        "one-turn": [one],
        "one-row-of-each": [one, dataclasses.replace(one, f_turn=one.f_turn.copy())],
    }


@pytest.mark.parametrize("case", ["many", "one-token-sequence", "one-context", "one-turn",
                                  "one-row-of-each"])
@pytest.mark.parametrize("variant", list(CONFIGS))
def test_inference_inputs_equal_the_all_rows_projection(domain, trained, variant, case):
    model = trained[variant]
    turns = _edge_cases(domain)[case]
    (token, token_of), (context, context_of) = models._infer_inputs(model, turns)
    expected = _all_rows_inputs(model, turns)
    assert (token[token_of] + context[context_of]).tobytes() == expected.tobytes()
    # the all-rows projection adds the five blocks in one fixed order
    turn, bow, ctx, prev, mask = (
        np.asarray(rows, dtype=model.dtype) @ w.data for rows, w in (
            (_infer(model, turns), model.dlg_w_turn), (model.bow_rows(turns), model.dlg_w_bow),
            (model.context_rows(turns), model.dlg_w_ctx),
            ([f.prev_action for f in turns], model.dlg_w_prev),
            ([f.f_mask for f in turns], model.dlg_w_mask)))
    assert expected.tobytes() == ((turn + bow) + (ctx + (prev + mask))).tobytes()
    assert predict_dialog(model, expected, [len(turns)]) == predict_dialogs(model, [turns])


@pytest.mark.parametrize("variant", list(CONFIGS))
@pytest.mark.parametrize("n_words", [450, 500, 800])
def test_large_vocabulary_inputs_agree_with_the_all_rows_projection(variant, n_words):
    # From about 450 words on, OpenBLAS can round the bag-of-words product
    # over two to four distinct rows differently from the same rows of the
    # all-rows product, so the rows agree only to within float32 rounding
    # (differences up to 2.4e-7 have been seen, on rows of magnitude below 1);
    # the predictions stay equal.
    vocab, actions = tiny_vocab(n_words), tiny_actions(6)
    model = models.Model(ModelConfig(variant), vocab, actions, n_context=3,
                         rng=stream(n_words, "large-vocabulary", variant))
    for n_distinct in (2, 3, 4):
        rng = stream(n_words, "large-vocabulary-turns", variant, n_distinct)
        sequences = [rng.integers(2, n_words, rng.integers(3, 9)) for _ in range(n_distinct)]
        turns = [tiny_turn(vocab, actions, sequences[i % n_distinct], i % 6, prev=(i + 1) % 6,
                           ctx_bits=(i % 2, i // 2 % 2), api=int(i % 3 == 0))
                 for i in range(12)]
        (token, token_of), (context, context_of) = models._infer_inputs(model, turns)
        expected = _all_rows_inputs(model, turns)
        np.testing.assert_allclose(token[token_of] + context[context_of], expected,
                                   rtol=0, atol=1e-6)
        assert predict_dialogs(model, [turns[:5], turns[5:]]) == predict_dialog(
            model, expected, [5, 7])


def _dialog_products(monkeypatch, model):
    """Records the rows each dialog-level input weight multiplies, per call."""
    original = nn.matvec
    names = {id(w): name for name, w in (("turn", model.dlg_w_turn), ("bow", model.dlg_w_bow),
                                         ("ctx", model.dlg_w_ctx), ("prev", model.dlg_w_prev),
                                         ("mask", model.dlg_w_mask))}
    seen = {name: [] for name in names.values()}

    def recording(m, v):
        out = original(m, v)
        if id(m) in names:
            seen[names[id(m)]].append((nn.as_tensor(v).data, out))
        return out

    monkeypatch.setattr(nn, "matvec", recording)
    return seen


def _row_set(rows):
    return sorted(row.tobytes() for row in rows)


@pytest.mark.parametrize("variant", list(CONFIGS))
def test_no_grad_projects_each_distinct_row_once(domain, trained, monkeypatch, variant):
    model = trained[variant]
    seen = _dialog_products(monkeypatch, model)
    for case, turns in _edge_cases(domain).items():
        n_tokens = len({_key(f) for f in turns})
        n_contexts = len({_context_key(f) for f in turns})
        all_rows = {"turn": _infer(model, turns), "bow": model.bow_rows(turns),
                    "ctx": model.context_rows(turns),
                    "prev": np.array([f.prev_action for f in turns], dtype=model.dtype),
                    "mask": np.array([f.f_mask for f in turns], dtype=model.dtype)}
        for calls in seen.values():
            del calls[:]
        predict_dialogs(model, [turns[i:i + 9] for i in range(0, len(turns), 9)])

        # each block multiplies its half's distinct rows, once per call,
        # or every turn's row where one distinct row stands for them all
        for names, n in ((("turn", "bow"), n_tokens), (("ctx", "prev", "mask"), n_contexts)):
            for name in names:
                (rows, _), = seen[name]
                assert len(rows) == (n if n > 1 else len(turns)), (case, name)
                assert _row_set(np.unique(rows, axis=0)) == _row_set(
                    np.unique(all_rows[name], axis=0)), (case, name)
        if n_contexts > 1:
            context = np.hstack([seen[name][0][0] for name in ("ctx", "prev", "mask")])
            assert len(np.unique(context, axis=0)) == n_contexts
        if case == "many":
            assert n_tokens < len(turns) and n_contexts < len(turns)

    # while a graph is recorded, every block multiplies all T rows once,
    # and each product is part of the graph
    dialog = domain["train"][0]
    for calls in seen.values():
        del calls[:]
    models.dialog_loss(model, dialog)
    for calls in seen.values():
        (rows, out), = calls
        assert len(rows) == len(dialog) and out.requires_grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bow_and_context_rows_equal_the_per_turn_vectors(domain, dtype):
    data = domain["data"]
    model = models.Model(CONFIGS["HCN"], data.vocab, data.action_set, data.n_context, dtype=dtype)
    dialogs = domain["dev"] + domain["test"]
    for turns in ([f for d in dialogs for f in d], dialogs[0][:1]):
        bow = model.bow_rows(turns)
        expected = np.stack([bow_vector(f, len(data.vocab), dtype) for f in turns])
        assert bow.dtype == dtype and np.array_equal(bow, expected)
        ctx = model.context_rows(turns)
        expected = np.stack([context_vector(f, dtype) for f in turns])
        assert ctx.dtype == dtype and np.array_equal(ctx, expected)


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
    inputs = model.dialog_inputs(model.encode_turn(turns)[0], turns)
    for lengths in ([1, 1], [2, 2], [3, 0]):
        with pytest.raises(nn.DimensionError):
            model.dialog_step(inputs, lengths)


@pytest.mark.parametrize("variant", list(CONFIGS))
def test_predict_dialog_returns_each_scored_turn_once(domain, trained, predict_calls, variant):
    # the benchmark's inference review sums len(result) over predict_dialog
    # calls and checks every entry is a valid action id
    model = trained[variant]
    row = evaluate_model(model, domain["dev"] + domain["test"])
    # one call, which returns every turn's action once
    assert len(predict_calls) == 1
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
    assert len(predict_calls) == epochs
    assert sum(len(result) for _, _, result in predict_calls) == epochs * dev_turns

