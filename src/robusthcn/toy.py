"""Synthetic restaurant mini-domain plus foreign-domain pools for demos and tests.

The generated dialogs follow a slot-asking flow (cuisine, area, price,
api call, suggestion, extra-detail question, goodbye), so the correct
action is predictable from the turn text, the context bits and the
previous action.  Splits are deterministic 8/1/1 by dialog index, and
every action template is guaranteed to appear in the training split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Dialog, Lexicon, SILENCE_TOKEN, Turn, tokenize
from .seeding import stream

CUISINES = ("italian", "indian", "chinese", "thai", "french", "mexican",
            "korean", "japanese", "spanish", "greek")
AREAS = ("north", "south", "east", "west", "centre")
PRICES = ("cheap", "moderate", "expensive")
NAMES = ("prezzo", "anatolia", "graffiti", "nandos", "north star", "golden house",
         "clowns cafe", "rice boat", "saffron house", "blue spice", "yippee noodle",
         "dojo kitchen")
STREETS = ("king", "mill", "regent", "bridge", "victoria", "station")

# one extra detail-question action per adjective; caps the action inventory
VARIANT_ADJECTIVES = (
    "great", "lovely", "superb", "popular", "quiet", "cozy", "classic",
    "modern", "famous", "friendly", "cheerful", "relaxed", "elegant",
    "charming", "warm", "bright", "simple", "notable", "pleasant",
    "stylish", "festive", "serene", "vibrant", "humble", "grand",
)

N_CORE_ACTIONS = 7  # welcome, three slot questions, api call, suggestion, goodbye

WELCOME = ("hello , welcome to the restaurant system . you can ask for places "
           "by area , price range or food type . how may i help you ?")
ASK_CUISINE = "what kind of food would you like ?"
ASK_AREA = "what part of town do you have in mind ?"
ASK_PRICE = "what price range are you looking for ?"
BYE = "you are welcome . good bye"

SEGMENT_INTERJECTIONS = (
    "so sorry man",
    "oh sorry my mistake",
    "my mistake",
    "sorry about that",
    "oops sorry",
    "my bad",
    "ah sorry i meant something else",
    "whoops my mistake",
    "so sorry",
    "i am sorry my mistake",
    "sorry i misspoke",
    "apologies wrong request",
)

_TRAVEL_CITIES = ("atlanta", "boston", "denver", "chicago", "portland", "austin",
                  "seattle", "miami", "detroit", "durham")
_DAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")
_PLACES = ("airport", "stadium", "harbor", "museum", "library", "campus")


def toy_lexicon():
    entries = {
        "cuisine": CUISINES,
        "area": AREAS,
        "pricerange": PRICES,
        "name": NAMES,
        "phone": tuple(_phone(i) for i in range(len(NAMES))),
        "address": tuple(_address(i) for i in range(len(NAMES))),
    }
    return Lexicon(entries)


def _phone(i):
    return "01223 3%05d" % (11111 + i * 733)


def _address(i):
    return "%d %s street" % (4 + i * 7, STREETS[i % len(STREETS)])


def _exchange(user_text, system_text, facts=()):
    tokens = tuple(tokenize(user_text)) or (SILENCE_TOKEN,)
    return Turn(user_tokens=tokens, system_utterance=system_text, kb_facts=tuple(facts))


def _initial_request(rng, slots, mentioned):
    opening = rng.choice(["i am looking for", "i want", "i need", "im looking for"])
    parts = [opening]
    cuisine, area, price = slots
    if "pricerange" in mentioned:
        parts.append("a %s restaurant" % price)
    else:
        parts.append("a restaurant")
    if "cuisine" in mentioned:
        parts.append("serving %s food" % cuisine)
    if "area" in mentioned:
        parts.append("in the %s part of town" % area)
    return " ".join(parts)


def _slot_answer(rng, slot, slots):
    cuisine, area, price = slots
    if slot == "cuisine":
        return rng.choice(["%s food please" % cuisine, "i would like %s food" % cuisine,
                           "%s" % cuisine])
    if slot == "area":
        return rng.choice(["in the %s" % area, "%s part of town" % area,
                           "somewhere in the %s" % area])
    return rng.choice(["%s" % price, "%s price range please" % price,
                       "i want something %s" % price])


def _build_dialog(index, rng, variant_adjective):
    cuisine = rng.choice(CUISINES)
    area = rng.choice(AREAS)
    price = rng.choice(PRICES)
    slots = (cuisine, area, price)
    name_idx = int(rng.integers(0, len(NAMES)))
    name = NAMES[name_idx]

    turns = [_exchange("", WELCOME)]

    order = ("cuisine", "area", "pricerange")
    n_mentioned = int(rng.integers(0, 4))
    mentioned = set(rng.choice(order, size=n_mentioned, replace=False)) if n_mentioned else set()
    missing = [s for s in order if s not in mentioned]
    ask_for = {"cuisine": ASK_CUISINE, "area": ASK_AREA, "pricerange": ASK_PRICE}
    api_utterance = "api_call %s %s %s" % (cuisine, area, price)

    user_text = _initial_request(rng, slots, mentioned)
    while missing:
        slot = missing[0]
        turns.append(_exchange(user_text, ask_for[slot]))
        user_text = _slot_answer(rng, slot, slots)
        missing = missing[1:]
    turns.append(_exchange(user_text, api_utterance))

    facts = [
        "%s r_phone %s" % (name, _phone(name_idx)),
        "%s r_address %s" % (name, _address(name_idx)),
        "%s r_area %s" % (name, area),
    ]
    n_facts = int(rng.integers(1, len(facts) + 1))
    suggestion = "%s is a nice restaurant in the %s of town serving %s food" % (name, area, cuisine)
    ask_suggest = rng.choice(["can you suggest something", "any suggestions",
                              "what do you recommend", "please suggest a place"])
    turns.append(_exchange(ask_suggest, suggestion, facts=facts[:n_facts]))

    if variant_adjective is not None:
        question = rng.choice(["is it a %s place", "would you say it is a %s place",
                               "is this a %s spot"]) % variant_adjective
        answer = "yes , %s is a very %s place" % (name, variant_adjective)
        turns.append(_exchange(question, answer))

    goodbye = rng.choice(["thank you good bye", "thanks bye", "thank you so much good bye"])
    turns.append(_exchange(goodbye, BYE))
    return Dialog(id=index, turns=tuple(turns))


@dataclass
class ToyDomain:
    train: list
    dev: list
    test: list
    lexicon: Lexicon


def generate_toy_domain(seed, n_dialogs, n_actions):
    """Deterministic toy corpus with exactly n_actions system templates.

    Requires n_dialogs >= 3 * n_actions and
    7 <= n_actions <= 7 + len(VARIANT_ADJECTIVES).  Splits are 8/1/1 by
    dialog index; dialog ids restart at 0 within each split.
    """
    max_actions = N_CORE_ACTIONS + len(VARIANT_ADJECTIVES)
    if not (N_CORE_ACTIONS <= n_actions <= max_actions):
        raise ValueError("n_actions must be in [%d, %d]" % (N_CORE_ACTIONS, max_actions))
    if n_dialogs < 3 * n_actions or n_dialogs < 10:
        raise ValueError("n_dialogs must be at least max(10, 3 * n_actions)")
    n_variants = n_actions - N_CORE_ACTIONS
    adjectives = VARIANT_ADJECTIVES[:n_variants]

    splits = {"train": [], "dev": [], "test": []}
    train_ordinal = 0
    for i in range(n_dialogs):
        rng = stream(seed, "toy-dialog", i)
        split = "dev" if i % 10 == 8 else "test" if i % 10 == 9 else "train"
        if not adjectives:
            adjective = None
        elif split == "train":
            # cycle variants over the training split so each one is learnable
            adjective = adjectives[train_ordinal % n_variants]
            train_ordinal += 1
        else:
            adjective = adjectives[int(rng.integers(0, n_variants))]
        dialog = _build_dialog(len(splits[split]), rng, adjective)
        splits[split].append(dialog)
    return ToyDomain(train=splits["train"], dev=splits["dev"], test=splits["test"],
                     lexicon=toy_lexicon())


def _foreign_utterance(rng, domain):
    if domain == "travel":
        return rng.choice([
            "i would like to get away from %s to %s my budget is $%d and i would leave from %s"
            % (rng.choice(_DAYS), rng.choice(_DAYS), rng.integers(900, 4200), rng.choice(_TRAVEL_CITIES)),
            "i want to book a trip to %s for %d people" % (rng.choice(_TRAVEL_CITIES), rng.integers(1, 6)),
            "can i fly from %s to %s next %s"
            % (rng.choice(_TRAVEL_CITIES), rng.choice(_TRAVEL_CITIES), rng.choice(_DAYS)),
        ])
    if domain == "weather":
        return rng.choice([
            "will there be frost in %s next week" % rng.choice(_TRAVEL_CITIES),
            "what is the weather like in %s on %s" % (rng.choice(_TRAVEL_CITIES), rng.choice(_DAYS)),
            "is it going to rain in %s tomorrow" % rng.choice(_TRAVEL_CITIES),
        ])
    return rng.choice([
        "when is the next bus from the %s to the %s" % (rng.choice(_PLACES), rng.choice(_PLACES)),
        "which bus goes to the %s" % rng.choice(_PLACES),
        "how long does the bus to the %s take" % rng.choice(_PLACES),
    ])


def generate_foreign_dialogs(seed, n_per_domain=40):
    """Foreign-domain dialogs whose first user turns feed the OOD pool."""
    if n_per_domain < 0:
        raise ValueError("foreign dialogs per domain must be at least 0, got %d" % n_per_domain)
    dialogs = []
    for domain in ("travel", "weather", "transit"):
        for j in range(n_per_domain):
            rng = stream(seed, "foreign", domain, j)
            first = _foreign_utterance(rng, domain)
            turns = (_exchange(first, "ok"),)
            dialogs.append(Dialog(id=len(dialogs), turns=turns))
    return dialogs


def segment_pool_text():
    return "\n".join(SEGMENT_INTERJECTIONS) + "\n"
