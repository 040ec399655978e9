import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robusthcn.augment import (
    AugmentationConfig,
    apply_labels,
    augment_corpus,
    labels_text,
    load_ood_pool,
    load_segment_pool,
    parse_labels,
)
from robusthcn.corpus import (
    DEFAULT_FALLBACK_TEMPLATE,
    ActionSet,
    ContextFeatures,
    Dialog,
    Lexicon,
    OodLabel,
    ParseError,
    SILENCE_TOKEN,
    Turn,
    TurnFeatures,
    UNK_INDEX,
    UnknownActionError,
    assign_actions,
    bow_indices,
    build_vocabulary,
    delexicalize,
    extract_action_set,
    featurize_dialog,
    load_embedding_table,
    parse_dialogs,
    prepare,
    tokenize,
    write_dialogs,
)
from robusthcn.seeding import stream
from robusthcn.toy import generate_foreign_dialogs, generate_toy_domain, segment_pool_text

from util import bow_vector, random_embedding_table, read_lexicon_file, write_embedding_file


LEX = Lexicon({
    "cuisine": ("italian", "north american", "thai"),
    "area": ("north", "south"),
    "pricerange": ("cheap", "moderate", "expensive"),
    "name": ("north star", "prezzo"),
})


# ---------------------------------------------------------------- parsing

def test_parse_minimal_exchange():
    dialogs = parse_dialogs("1 hi\thello , welcome\n\n")
    assert len(dialogs) == 1
    assert len(dialogs[0].turns) == 1
    assert dialogs[0].turns[0].user_tokens == ("hi",)
    assert dialogs[0].turns[0].system_utterance == "hello , welcome"


def test_parse_empty_input():
    assert parse_dialogs("") == []


def test_parse_two_blocks_and_round_trip():
    text = "1 hi\thello\n2 bye\tgood bye\n\n1 hello\thi there\n"
    dialogs = parse_dialogs(text)
    assert [len(d.turns) for d in dialogs] == [2, 1]
    assert write_dialogs(dialogs) == text


def test_parse_attaches_facts_to_following_turn():
    text = "1 hi\tapi_call thai\n2 prezzo r_phone 123\n3 prezzo r_area north\n4 more\tprezzo is nice\n"
    (dialog,) = parse_dialogs(text)
    assert dialog.turns[0].kb_facts == ()
    assert dialog.turns[1].kb_facts == ("prezzo r_phone 123", "prezzo r_area north")
    assert write_dialogs([dialog]) == text


def test_parse_silence_for_empty_user():
    (dialog,) = parse_dialogs("1 \thello\n")
    assert dialog.turns[0].user_tokens == (SILENCE_TOKEN,)


@pytest.mark.parametrize(
    "bad,line_no",
    [
        ("hi\thello\n", 1),
        ("1 hi\thello\nx fact\n", 2),
        ("1 \n", 1),
        ("1 a r_phone 1\n\n", 1),  # trailing facts with no exchange
    ],
)
def test_parse_errors_carry_line_numbers(bad, line_no):
    with pytest.raises(ParseError) as err:
        parse_dialogs(bad)
    assert err.value.line_no == line_no


def test_round_trip_on_generated_corpora():
    domain = generate_toy_domain(11, 60, 9)
    for split in (domain.train, domain.dev, domain.test):
        text = write_dialogs(split)
        again = parse_dialogs(text)
        assert write_dialogs(again) == text
        assert [t.user_tokens for d in again for t in d.turns] == [
            t.user_tokens for d in split for t in d.turns
        ]
        assert [t.kb_facts for d in again for t in d.turns] == [
            t.kb_facts for d in split for t in d.turns
        ]


# every kind of token tokenize() keeps whole: words, <specials>, symbols
_TOKENS = st.one_of(
    st.from_regex(r"[a-z0-9$'_]{1,6}", fullmatch=True),
    st.from_regex(r"<[a-z0-9_]{1,6}>", fullmatch=True),
    st.sampled_from(list(".,?!-:;()<>/&*")),
)
_LINE_TEXT = st.text(st.characters(exclude_characters="\n\t"), max_size=12)


@st.composite
def _dialogs(draw, labels=st.just(OodLabel.IND)):
    turn = st.builds(
        Turn,
        user_tokens=st.lists(_TOKENS, min_size=1, max_size=5).map(tuple),
        system_utterance=_LINE_TEXT,
        kb_facts=st.lists(_LINE_TEXT.filter(str.strip), max_size=2).map(tuple),
        ood_label=labels,
    )
    turn_lists = draw(st.lists(st.lists(turn, min_size=1, max_size=4), max_size=4))
    return [Dialog(id=i, turns=tuple(turns)) for i, turns in enumerate(turn_lists)]


@settings(max_examples=200, deadline=None)
@given(_dialogs())
def test_transcript_round_trip_property(dialogs):
    assert parse_dialogs(write_dialogs(dialogs)) == dialogs


@settings(max_examples=200, deadline=None)
@given(_dialogs(labels=st.sampled_from(OodLabel)))
def test_label_sidecar_round_trip_property(dialogs):
    labels = parse_labels(labels_text(dialogs))
    assert labels == {d.id: [t.ood_label for t in d.turns] for d in dialogs}
    assert apply_labels(parse_dialogs(write_dialogs(dialogs)), labels) == dialogs


# ------------------------------------------------------------- vocabulary

def _dialog_of(tokens, did=0):
    return parse_dialogs("1 %s\tok\n" % " ".join(tokens))[0]


def test_vocabulary_union_and_reserved():
    vocab = build_vocabulary([[_dialog_of(["a", "b"])], [_dialog_of(["b", "c"])]])
    # a, b, c, ok (system side) plus the two reserved entries
    assert len(vocab) == 4 + 2
    assert vocab.itos[0] == "<unk>"
    assert vocab.itos[1] == "<silence>"


def test_vocabulary_idempotent_and_order_independent():
    corpora = [[_dialog_of(["b", "a"])], [_dialog_of(["c"])], [_dialog_of(["a", "d"])]]
    ref = build_vocabulary(corpora)
    assert build_vocabulary(corpora + corpora).stoi == ref.stoi
    rng = stream(3, "perm")
    for _ in range(5):
        shuffled = [corpora[i] for i in rng.permutation(len(corpora))]
        assert build_vocabulary(shuffled).stoi == ref.stoi


def test_vocabulary_requires_a_corpus():
    with pytest.raises(ValueError):
        build_vocabulary([])


def test_unknown_token_maps_to_unk():
    vocab = build_vocabulary([[_dialog_of(["a"])]])
    assert vocab.index("never-seen") == UNK_INDEX


# --------------------------------------------------------- delexicalization

def _delex_oracle(utterance, lexicon):
    # independent greedy leftmost-longest by exhaustive slice comparison
    values = []
    for slot_type, vals in lexicon.entries.items():
        for v in vals:
            values.append((tuple(tokenize(v)), slot_type))
    toks = tokenize(utterance)
    out = []
    i = 0
    while i < len(toks):
        candidates = [
            (len(vtoks), vtoks, slot)
            for vtoks, slot in values
            if tuple(toks[i : i + len(vtoks)]) == vtoks
        ]
        if candidates:
            # same tie-break as the library: length desc, tokens asc, slot asc
            candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
            _, vtoks, slot = candidates[0]
            out.append("<%s>" % slot)
            i += len(vtoks)
        else:
            out.append(toks[i])
            i += 1
    return " ".join(out)


def test_delexicalize_single_substitution():
    assert delexicalize("prezzo is a nice restaurant", LEX) == "<name> is a nice restaurant"


def test_delexicalize_identity_without_matches():
    assert delexicalize("nothing to replace here", LEX) == "nothing to replace here"


def test_delexicalize_longest_match_wins():
    assert delexicalize("i want north american food", LEX) == "i want <cuisine> food"
    assert delexicalize("north star is in the north", LEX) == "<name> is in the <area>"


def test_delexicalize_matches_bruteforce_oracle():
    rng = stream(5, "delex")
    words = ["north", "american", "star", "cheap", "food", "i", "want", "prezzo", "thai", "x"]
    for _ in range(300):
        utt = " ".join(rng.choice(words, size=rng.integers(1, 9)))
        assert delexicalize(utt, LEX) == _delex_oracle(utt, LEX)


def test_delexicalize_idempotent():
    rng = stream(6, "delex2")
    words = ["north", "american", "star", "moderate", "south", "food", "prezzo"]
    for _ in range(100):
        utt = " ".join(rng.choice(words, size=rng.integers(1, 7)))
        once = delexicalize(utt, LEX)
        assert delexicalize(once, LEX) == once


# ------------------------------------------------------------- action set

def _dialog_with_system(utterances):
    lines = []
    for i, utt in enumerate(utterances, start=1):
        lines.append("%d hi\t%s" % (i, utt))
    return parse_dialogs("\n".join(lines) + "\n")[0]


def test_action_set_adds_fallback():
    dialog = _dialog_with_system(["hello there", "what food ?", "good bye"])
    actions = extract_action_set([dialog], LEX)
    assert actions.size == 4
    assert actions.templates[actions.fallback_action_id] == DEFAULT_FALLBACK_TEMPLATE


def test_action_set_all_identical():
    dialog = _dialog_with_system(["same reply", "same reply", "same reply"])
    actions = extract_action_set([dialog], LEX)
    assert actions.size == 2


def test_action_set_dense_lexicographic_and_stable():
    domain = generate_toy_domain(3, 60, 9)
    a1 = extract_action_set(domain.train, domain.lexicon)
    a2 = extract_action_set(list(domain.train), domain.lexicon)
    assert a1.templates == a2.templates
    assert list(a1.templates) == sorted(a1.templates)
    # independent distinct-count check
    distinct = {delexicalize(t.system_utterance, domain.lexicon)
                for d in domain.train for t in d.turns}
    distinct.add(DEFAULT_FALLBACK_TEMPLATE)
    assert a1.size == len(distinct)


def test_action_set_rejects_empty():
    with pytest.raises(ValueError):
        extract_action_set([], LEX)


# system utterances built from lexicon values and plain words, so that
# some delexicalize to one template and many repeat across turns
_SYSTEM_WORDS = ["north", "american", "star", "prezzo", "thai", "cheap", "food", "is", "api_call"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.lists(st.sampled_from(_SYSTEM_WORDS), min_size=1, max_size=5)
                         .map(" ".join), min_size=1, max_size=6), min_size=1, max_size=6))
def test_action_set_and_action_ids_equal_the_per_turn_delexicalization(system_utterances):
    dialogs = [Dialog(id=i, turns=tuple(Turn(user_tokens=("hi",), system_utterance=u)
                                        for u in utterances))
               for i, utterances in enumerate(system_utterances)]
    actions = extract_action_set(dialogs, LEX)
    templates = {delexicalize(t.system_utterance, LEX) for d in dialogs for t in d.turns}
    assert actions.templates == tuple(sorted(templates | {DEFAULT_FALLBACK_TEMPLATE}))
    assert actions.fallback_template == DEFAULT_FALLBACK_TEMPLATE
    assigned = assign_actions(dialogs, actions, LEX)
    assert [[t.system_action for t in d.turns] for d in assigned] == [
        [actions.action_id(delexicalize(t.system_utterance, LEX)) for t in d.turns]
        for d in dialogs]
    assert [[t.system_utterance for t in d.turns] for d in assigned] == system_utterances


# ------------------------------------------------------------ context bits

def _context_trace(turns, lexicon=LEX):
    """Context features of every turn of a dialog whose actions are all 0."""
    turns = [Turn(user_tokens=t.user_tokens, system_utterance=t.system_utterance,
                  kb_facts=t.kb_facts, system_action=0) for t in turns]
    vocab = build_vocabulary([[Dialog(id=0, turns=tuple(turns))]])
    actions = ActionSet(templates=("any",), fallback_action_id=0)
    feats = featurize_dialog(Dialog(id=0, turns=tuple(turns)), vocab, actions, lexicon)
    return [f.f_ctx for f in feats]


def test_track_context_empty_prefix():
    # nothing provided and no api result before the first slot value arrives
    turn = Turn(user_tokens=("hello",), system_utterance="hi")
    (ctx,) = _context_trace([turn])
    assert ctx.slot_provided == (0,) * len(LEX.slot_types)
    assert ctx.api_returned == 0


def test_track_context_price_bit():
    turn = Turn(user_tokens=("i", "want", "something", "cheap"), system_utterance="ok")
    (ctx,) = _context_trace([turn])
    provided = dict(zip(LEX.slot_types, ctx.slot_provided))
    assert provided["pricerange"] == 1
    assert sum(ctx.slot_provided) == 1


def test_track_context_api_trace():
    # hand-simulated trace: api_call with no facts, then api_call answered by facts
    t1 = Turn(user_tokens=("hi",), system_utterance="api_call thai north cheap")
    t2 = Turn(user_tokens=("hm",), system_utterance="nothing found")
    t3 = Turn(user_tokens=("again",), system_utterance="api_call thai south cheap")
    t4 = Turn(user_tokens=("and",), system_utterance="ok",
              kb_facts=("prezzo r_phone 1", "prezzo r_area south", "prezzo r_x y"))
    # facts before the most recent api_call do not count
    t5 = Turn(user_tokens=("more",), system_utterance="api_call thai north cheap")
    trace = _context_trace([t1, t2, t3, t4, t5])
    assert [ctx.api_returned for ctx in trace] == [0, 0, 0, 1, 0]


# ------------------------------------------------------------ featurization

@pytest.fixture(scope="module")
def small_domain():
    domain = generate_toy_domain(17, 40, 8)
    vocab = build_vocabulary([domain.train, domain.dev, domain.test])
    actions = extract_action_set(domain.train + domain.dev + domain.test, domain.lexicon)
    dialogs = assign_actions(domain.train, actions, domain.lexicon)
    return domain, vocab, actions, dialogs


def test_featurize_first_turn_prev_action_zero(small_domain):
    domain, vocab, actions, dialogs = small_domain
    feats = featurize_dialog(dialogs[0], vocab, actions, domain.lexicon)
    assert not feats[0].prev_action.any()
    for prev_turn, features in zip(dialogs[0].turns, feats[1:]):
        assert features.prev_action[prev_turn.system_action] == 1
        assert features.prev_action.sum() == 1


def test_featurize_oov_becomes_unk(small_domain):
    domain, vocab, actions, dialogs = small_domain
    turn = Turn(user_tokens=("zzz-unseen", "italian"), system_utterance="good bye",
                system_action=0)
    (features,) = featurize_dialog(Dialog(id=0, turns=(turn,)), vocab, actions, domain.lexicon)
    assert features.f_turn[0] == UNK_INDEX
    assert UNK_INDEX in features.bow_indices


@settings(max_examples=200, deadline=None)
@given(tokens=st.lists(st.integers(0, 2**40), max_size=30),
       dtype=st.sampled_from([np.int64, np.int32, np.intp, np.uint16]))
def test_bow_indices_equal_np_unique(tokens, dtype):
    # np.unique in values and dtype, the empty turn included, without
    # importing numpy.ma as np.unique does
    f_turn = np.array(tokens, dtype=np.int64).astype(dtype)
    indices, expected = bow_indices(f_turn), np.unique(f_turn)
    assert indices.dtype == expected.dtype and np.array_equal(indices, expected)


def test_featurize_bow_support_matches_distinct_tokens(small_domain):
    domain, vocab, actions, dialogs = small_domain
    for dialog in dialogs[:10]:
        for features in featurize_dialog(dialog, vocab, actions, domain.lexicon):
            # recount oracle
            distinct = sorted(set(int(i) for i in features.f_turn))
            assert list(features.bow_indices) == distinct
            vec = bow_vector(features, len(vocab))
            assert vec.sum() == len(distinct)
            assert all(vec[i] == 1 for i in distinct)


def test_featurize_mask_all_ones(small_domain):
    domain, vocab, actions, dialogs = small_domain
    feats = featurize_dialog(dialogs[1], vocab, actions, domain.lexicon)
    for features in feats:
        assert features.f_mask.shape == (actions.size,)
        assert (features.f_mask == 1).all()


def test_featurize_requires_assigned_actions(small_domain):
    domain, vocab, actions, _ = small_domain
    valid = Turn(user_tokens=("hi",), system_utterance="good bye", system_action=0)
    for bad in (None, actions.size):
        turn = Turn(user_tokens=("hi",), system_utterance="good bye", system_action=bad)
        for turns in ((turn,), (valid, turn)):
            with pytest.raises(UnknownActionError):
                featurize_dialog(Dialog(id=0, turns=turns), vocab, actions, domain.lexicon)


# ------------------------------------------- featurization vs the reference

def _reference_track_context(dialog_prefix, lexicon):
    """Context features recomputed from the whole prefix (the quadratic original)."""

    def value_occurs(tokens, slot_type):
        toks = tuple(tokens)
        for i in range(len(toks)):
            hit = lexicon.match_at(toks, i)
            if hit is not None and hit[1] == slot_type:
                return True
        return False

    def is_api_call(turn):
        toks = tokenize(turn.system_utterance)
        return bool(toks) and toks[0] == "api_call"

    prefix = list(dialog_prefix)
    provided = []
    for slot_type in lexicon.slot_types:
        bit = any(value_occurs(t.user_tokens, slot_type) for t in prefix)
        provided.append(int(bit))
    last_api = None
    for i, turn in enumerate(prefix):
        if is_api_call(turn):
            last_api = i
    api_returned = 0
    if last_api is not None:
        api_returned = int(any(len(t.kb_facts) > 0 for t in prefix[last_api + 1 :]))
    return ContextFeatures(slot_provided=tuple(provided), api_returned=api_returned)


def _reference_featurize_turn(turn, prefix, vocab, action_set, lexicon):
    if turn.system_action is None or not (0 <= turn.system_action < action_set.size):
        raise UnknownActionError("turn has no valid action id (run assign_actions first)")
    f_turn = vocab.encode(turn.user_tokens)
    prev = np.zeros(action_set.size, dtype=np.float32)
    if prefix:
        prev_id = prefix[-1].system_action
        if prev_id is None or not (0 <= prev_id < action_set.size):
            raise UnknownActionError("previous turn has no valid action id")
        prev[prev_id] = 1.0
    return TurnFeatures(
        f_turn=f_turn,
        bow_indices=np.unique(f_turn),
        f_ctx=_reference_track_context(list(prefix) + [turn], lexicon),
        f_mask=np.ones(action_set.size, dtype=np.float32),
        prev_action=prev,
        target=turn.system_action,
        ood_label=turn.ood_label,
    )


def _assert_matches_reference(dialog, vocab, actions, lexicon):
    got = featurize_dialog(dialog, vocab, actions, lexicon)
    expected = [_reference_featurize_turn(turn, dialog.turns[:i], vocab, actions, lexicon)
                for i, turn in enumerate(dialog.turns)]
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.f_ctx == b.f_ctx
        assert (a.target, a.ood_label) == (b.target, b.ood_label)
        for name in ("f_turn", "bow_indices", "f_mask", "prev_action"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            np.testing.assert_array_equal(x, y, err_msg=name)
    return len(got)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_featurize_matches_reference_on_toy_and_augmented(seed):
    domain = generate_toy_domain(seed, 60, 10)
    clean = domain.train + domain.dev + domain.test
    augmented, stats = augment_corpus(
        clean, AugmentationConfig(p_ood_start=0.5, p_ood_cont=0.7, seed=seed),
        load_ood_pool(generate_foreign_dialogs(seed + 100)),
        load_segment_pool(segment_pool_text()))
    assert stats.inserted_turns > 0
    data = prepare(domain.lexicon, [clean, augmented])
    n_turns = 0
    for dialog in assign_actions(clean + augmented, data.action_set, domain.lexicon):
        n_turns += _assert_matches_reference(dialog, data.vocab, data.action_set,
                                             domain.lexicon)
    assert n_turns > sum(len(d.turns) for d in clean)


_WORDS = ("i", "want", "north", "american", "star", "italian", "cheap", "prezzo",
          "south", "thai", "food", "<silence>")
_turns = st.builds(
    lambda user, api, n_facts, action: Turn(
        user_tokens=tuple(user),
        system_utterance=("api_call thai north" if api else "ok then"),
        kb_facts=tuple("prezzo r_fact %d" % k for k in range(n_facts)),
        system_action=action,
    ),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6),
    st.booleans(),
    st.integers(0, 2),
    st.integers(0, 3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_turns, min_size=1, max_size=12))
def test_featurize_matches_reference_on_random_turns(turns):
    dialog = Dialog(id=0, turns=tuple(turns))
    vocab = build_vocabulary([[dialog]])
    actions = ActionSet(templates=("a0", "a1", "a2", "a3"), fallback_action_id=0)
    _assert_matches_reference(dialog, vocab, actions, LEX)


def test_prepare_matches_the_step_by_step_sequence(small_domain):
    domain, vocab, actions, dialogs = small_domain
    data = prepare(domain.lexicon, [domain.train, domain.dev, domain.test])
    assert data.vocab == vocab
    assert data.action_set == actions
    assert data.n_context == len(domain.lexicon.slot_types) + 1
    got = data.featurize(domain.train)
    assert len(got) == len(dialogs)
    for featurized, dialog in zip(got, dialogs):
        expected = featurize_dialog(dialog, vocab, actions, domain.lexicon)
        assert len(featurized) == len(expected)
        for a, b in zip(featurized, expected):
            assert a.target == b.target and a.f_ctx == b.f_ctx and a.ood_label is b.ood_label
            np.testing.assert_array_equal(a.f_turn, b.f_turn)
            np.testing.assert_array_equal(a.prev_action, b.prev_action)


def test_prepare_vocab_corpora_add_tokens_not_actions():
    domain = generate_toy_domain(17, 40, 8)
    extra = parse_dialogs("1 zzzforeign words\tzzzforeign reply\n")
    data = prepare(domain.lexicon, [domain.train], [extra], fallback="custom fallback")
    assert "zzzforeign" in data.vocab
    assert not any("zzzforeign" in t for t in data.action_set.templates)
    assert data.action_set.fallback_template == "custom fallback"
    with pytest.raises(UnknownActionError):
        data.featurize(extra)


# ----------------------------------------------------------- embeddings io

def test_embedding_file_round_trip(tmp_path):
    vocab = build_vocabulary([[_dialog_of(["alpha", "beta", "gamma"])]])
    table = random_embedding_table(vocab, 5, seed=9)
    path = tmp_path / "emb.txt"
    write_embedding_file(path, vocab, table)
    loaded = load_embedding_table(path, vocab, seed=9)
    assert loaded.shape == (len(vocab), 5) and loaded.dtype == np.float32
    np.testing.assert_allclose(loaded, table, atol=1e-7)


def test_embedding_missing_tokens_get_deterministic_fallback(tmp_path):
    vocab_small = build_vocabulary([[_dialog_of(["alpha"])]])
    table = random_embedding_table(vocab_small, 4, seed=1)
    path = tmp_path / "emb.txt"
    write_embedding_file(path, vocab_small, table)
    vocab_big = build_vocabulary([[_dialog_of(["alpha", "zeta"])]])
    a = load_embedding_table(path, vocab_big, seed=2)
    b = load_embedding_table(path, vocab_big, seed=2)
    np.testing.assert_array_equal(a, b)
    # known token kept, new token filled
    np.testing.assert_allclose(a[vocab_big.index("alpha")], table[vocab_small.index("alpha")])


@pytest.mark.parametrize("text, line_no, message", [
    ("x 3\nalpha 1 2 3\n", 1, "header 'V d'"),
    ("3\nalpha 1 2 3\n", 1, "header 'V d'"),
    ("1 0\nalpha\n", 1, "header 'V d'"),
    ("", 1, "header 'V d'"),
    ("2 3\nalpha 1 2 3\nbeta 1 2\n", 3, "expected a token and 3 values, got 3 fields"),
    ("2 3\nalpha 1 2 3\n", 3, "got 0 fields"),
    ("1 3\nalpha 1 2 3\nbeta 1 2 3\n", 3, "more rows than the header's 1"),
    ("1 3\nalpha 1 two 3\n", 2, "could not convert string to float: 'two'"),
    ("2 3\nalpha 1 2 3\nbeta 1 nan 3\n", 3, "value nan is not finite"),
    ("1 3\nalpha -inf 2 3\n", 2, "value -inf is not finite"),
    ("1 3\nalpha 1 2 1e39\n", 2, "value 1e39 is not finite in float32"),
])
def test_corrupt_embedding_file_names_the_line(tmp_path, text, line_no, message):
    path = tmp_path / "emb.txt"
    path.write_text(text)
    vocab = build_vocabulary([[_dialog_of(["alpha", "beta"])]])
    with pytest.raises(ParseError, match="line %d: .*%s" % (line_no, re.escape(message))) as err:
        load_embedding_table(path, vocab)
    assert err.value.line_no == line_no


def test_lexicon_file_round_trip(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("\n".join(LEX.to_lines()) + "\n", encoding="utf-8")
    again = read_lexicon_file(path)
    assert again == LEX


@pytest.mark.parametrize("lines, line_no, message", [
    (["cuisine\titalian", "", "badline_without_tab"], 3, "expected slot_type<TAB>value"),
    (["Cuisine\titalian"], 1, "bad slot type 'Cuisine'"),
    (["cuisine\titalian\n", "area\t \n"], 2, "empty value under slot 'area'"),
])
def test_lexicon_lines_name_the_bad_line(lines, line_no, message):
    with pytest.raises(ParseError, match="line %d: %s" % (line_no, re.escape(message))) as err:
        Lexicon.from_lines(lines)
    assert err.value.line_no == line_no


def test_lexicon_rejects_a_slot_type_without_values():
    # to_lines writes nothing for such a slot, so a checkpoint would not load
    with pytest.raises(ValueError, match="no values under slot 'area'"):
        Lexicon({"cuisine": ["thai"], "area": []})


_slot_types = st.from_regex(r"[a-z0-9_]{1,8}", fullmatch=True)
_values = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                  min_size=1, max_size=12).filter(str.strip)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_slot_types, st.lists(_values, min_size=1, max_size=4), max_size=5))
def test_lexicon_lines_round_trip(entries):
    lexicon = Lexicon(entries)
    assert Lexicon.from_lines(lexicon.to_lines()) == lexicon
