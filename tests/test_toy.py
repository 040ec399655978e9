import pytest

from robusthcn.corpus import (
    SILENCE_TOKEN,
    build_vocabulary,
    delexicalize,
    extract_action_set,
    parse_dialogs,
    write_dialogs,
)
from robusthcn.toy import (
    SEGMENT_INTERJECTIONS,
    generate_foreign_dialogs,
    generate_toy_domain,
    segment_pool_text,
)


def test_generation_is_deterministic():
    a = generate_toy_domain(5, 60, 9)
    b = generate_toy_domain(5, 60, 9)
    for split_a, split_b in ((a.train, b.train), (a.dev, b.dev), (a.test, b.test)):
        assert write_dialogs(split_a) == write_dialogs(split_b)
    assert a.lexicon == b.lexicon
    c = generate_toy_domain(6, 60, 9)
    assert write_dialogs(a.train) != write_dialogs(c.train)


def test_action_count_exact():
    domain = generate_toy_domain(1, 200, 20)
    actions = extract_action_set(domain.train + domain.dev + domain.test, domain.lexicon)
    assert actions.size == 20 + 1  # the configured templates plus the fallback
    # the training split alone already covers every template
    train_only = extract_action_set(domain.train, domain.lexicon)
    assert train_only.templates == actions.templates


def test_split_sizes_eight_one_one():
    domain = generate_toy_domain(2, 200, 20)
    assert len(domain.train) == 160
    assert len(domain.dev) == 20
    assert len(domain.test) == 20


def test_round_trip_identity():
    domain = generate_toy_domain(3, 60, 9)
    for split in (domain.train, domain.dev, domain.test):
        text = write_dialogs(split)
        assert write_dialogs(parse_dialogs(text)) == text


def test_size_validation():
    with pytest.raises(ValueError):
        generate_toy_domain(0, 20, 20)   # fewer than 3 * n_actions
    with pytest.raises(ValueError):
        generate_toy_domain(0, 200, 6)   # below the core template count
    with pytest.raises(ValueError):
        generate_toy_domain(0, 200, 99)  # beyond core + adjective variants


def test_dialogs_start_with_silence_and_api_flow():
    domain = generate_toy_domain(4, 40, 8)
    for dialog in domain.train:
        assert dialog.turns[0].user_tokens == (SILENCE_TOKEN,)
        api_turns = [t for t in dialog.turns if t.system_utterance.startswith("api_call")]
        assert len(api_turns) == 1
        # facts arrive on the turn after the api call
        idx = dialog.turns.index(api_turns[0])
        assert dialog.turns[idx + 1].kb_facts
        assert delexicalize(api_turns[0].system_utterance, domain.lexicon) == (
            "api_call <cuisine> <area> <pricerange>"
        )


def test_foreign_dialogs_have_disjoint_flavor():
    domain = generate_toy_domain(5, 40, 8)
    foreign = generate_foreign_dialogs(9, n_per_domain=20)
    assert len(foreign) == 60
    toy_vocab = set(build_vocabulary([domain.train]).itos)
    pool_tokens = {tok for d in foreign for tok in d.turns[0].user_tokens}
    # foreign requests carry mostly tokens never seen in the toy domain
    unseen = {tok for tok in pool_tokens if tok not in toy_vocab}
    assert len(unseen) >= len(pool_tokens) * 0.4


def test_foreign_dialogs_reject_a_negative_count():
    assert generate_foreign_dialogs(9, n_per_domain=0) == []
    with pytest.raises(ValueError, match="at least 0"):
        generate_foreign_dialogs(9, n_per_domain=-1)


def test_segment_pool_text_round_trips():
    lines = [line for line in segment_pool_text().split("\n") if line]
    assert tuple(lines) == SEGMENT_INTERJECTIONS
