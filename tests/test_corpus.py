import numpy as np
import pytest

from robusthcn.corpus import (
    DEFAULT_FALLBACK_TEMPLATE,
    Lexicon,
    ParseError,
    SILENCE_TOKEN,
    Turn,
    UNK_INDEX,
    UnknownActionError,
    assign_actions,
    build_vocabulary,
    delexicalize,
    extract_action_set,
    featurize_dialog,
    featurize_turn,
    load_embedding_table,
    parse_dialogs,
    prepare,
    random_embedding_table,
    tokenize,
    track_context,
    write_dialogs,
    write_embedding_file,
)
from robusthcn.seeding import stream
from robusthcn.toy import generate_toy_domain


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


# ------------------------------------------------------------ context bits

def test_track_context_empty_prefix():
    ctx = track_context([], LEX)
    assert ctx.slot_provided == (0,) * len(LEX.slot_types)
    assert ctx.api_returned == 0


def test_track_context_price_bit():
    turn = Turn(user_tokens=("i", "want", "something", "cheap"), system_utterance="ok")
    ctx = track_context([turn], LEX)
    provided = dict(zip(ctx.slot_types, ctx.slot_provided))
    assert provided["pricerange"] == 1
    assert sum(ctx.slot_provided) == 1


def test_track_context_api_trace():
    # hand-simulated trace: api_call with no facts, then api_call answered by facts
    t1 = Turn(user_tokens=("hi",), system_utterance="api_call thai north cheap")
    t2 = Turn(user_tokens=("hm",), system_utterance="nothing found")
    t3 = Turn(user_tokens=("again",), system_utterance="api_call thai south cheap")
    t4 = Turn(user_tokens=("and",), system_utterance="ok",
              kb_facts=("prezzo r_phone 1", "prezzo r_area south", "prezzo r_x y"))
    assert track_context([t1, t2], LEX).api_returned == 0
    assert track_context([t1, t2, t3], LEX).api_returned == 0
    assert track_context([t1, t2, t3, t4], LEX).api_returned == 1
    # facts before the most recent api_call do not count
    t5 = Turn(user_tokens=("more",), system_utterance="api_call thai north cheap")
    assert track_context([t1, t2, t3, t4, t5], LEX).api_returned == 0


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
    features = featurize_turn(turn, (), vocab, actions, domain.lexicon)
    assert features.f_turn[0] == UNK_INDEX
    assert UNK_INDEX in features.bow_indices


def test_featurize_bow_support_matches_distinct_tokens(small_domain):
    domain, vocab, actions, dialogs = small_domain
    for dialog in dialogs[:10]:
        for features in featurize_dialog(dialog, vocab, actions, domain.lexicon):
            # recount oracle
            distinct = sorted(set(int(i) for i in features.f_turn))
            assert list(features.bow_indices) == distinct
            vec = features.bow_vector(len(vocab))
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
    turn = Turn(user_tokens=("hi",), system_utterance="good bye")
    with pytest.raises(UnknownActionError):
        featurize_turn(turn, (), vocab, actions, domain.lexicon)


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
    assert loaded.dimension == 5
    np.testing.assert_allclose(loaded.vectors, table.vectors, atol=1e-7)


def test_embedding_missing_tokens_get_deterministic_fallback(tmp_path):
    vocab_small = build_vocabulary([[_dialog_of(["alpha"])]])
    table = random_embedding_table(vocab_small, 4, seed=1)
    path = tmp_path / "emb.txt"
    write_embedding_file(path, vocab_small, table)
    vocab_big = build_vocabulary([[_dialog_of(["alpha", "zeta"])]])
    a = load_embedding_table(path, vocab_big, seed=2)
    b = load_embedding_table(path, vocab_big, seed=2)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    # known token kept, new token filled
    np.testing.assert_allclose(
        a.vectors[vocab_big.index("alpha")], table.vectors[vocab_small.index("alpha")]
    )


def test_lexicon_file_round_trip(tmp_path):
    path = tmp_path / "lexicon.txt"
    LEX.to_file(path)
    again = Lexicon.from_file(path)
    assert again == LEX
