"""Dialog transcripts, vocabulary, action templates and turn features.

Transcript format (read and written bit-exactly for corpora produced by
:func:`write_dialogs`):

* one exchange per line: ``N<space>user_text<TAB>system_text``
* knowledge-base facts: ``N<space>fact_text`` with no TAB; facts attach to
  the *following* exchange
* dialogs separated by exactly one blank line; N restarts at 1 per dialog

Lexicon file: one line per entry, ``slot_type<TAB>value``.
Embedding file: first line ``V d``, then ``token v1 ... vd`` per token.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass, replace

import numpy as np

from .seeding import stream

UNK_TOKEN = "<unk>"
SILENCE_TOKEN = "<silence>"
UNK_INDEX = 0
SILENCE_INDEX = 1
API_CALL_PREFIX = "api_call"

DEFAULT_FALLBACK_TEMPLATE = "sorry i didn't catch that . could you please repeat ?"

# words / angle-bracket specials stay whole, every other symbol is its own token
_TOKEN_RE = re.compile(r"<[a-z0-9_]+>|[a-z0-9$'_]+|[^\sa-z0-9$'_<>]|[<>]")


class ParseError(ValueError):
    """Malformed transcript, lexicon, label-sidecar or embedding line.

    Carries the 1-based line number; the caller names the file.
    """

    def __init__(self, line_no, message):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


class UnknownActionError(KeyError):
    def __str__(self):
        # KeyError quotes its argument; this one carries a message
        return str(self.args[0]) if self.args else ""


def tokenize(text):
    """Lowercase and split on whitespace after separating punctuation.

    Angle-bracket specials like ``<silence>`` or ``<cuisine>`` are kept
    atomic so that reserved tokens and slot-type tokens survive a
    write/parse round trip.
    """
    return _TOKEN_RE.findall(text.lower())


class OodLabel(enum.Enum):
    IND = "IND"
    TURN_OOD = "TURN_OOD"
    SEGMENT_OOD = "SEGMENT_OOD"


@dataclass(frozen=True)
class Turn:
    """One user -> system exchange.

    ``kb_facts`` are the fact lines observed immediately before this
    turn's user utterance.  ``system_action`` stays None until
    :func:`assign_actions` resolves the utterance against an ActionSet.
    """

    user_tokens: tuple
    system_utterance: str
    kb_facts: tuple = ()
    ood_label: OodLabel = OodLabel.IND
    system_action: int | None = None

    def __post_init__(self):
        if len(self.user_tokens) == 0:
            raise ValueError("user_tokens must be non-empty (use the silence token)")


@dataclass(frozen=True)
class Dialog:
    id: int
    turns: tuple

    def __post_init__(self):
        if len(self.turns) == 0:
            raise ValueError("dialog %r has no turns" % (self.id,))


def parse_dialogs(text):
    """Parse a transcript string into a list of dialogs.

    Dialog ids are assigned positionally starting at 0.  Raises
    :class:`ParseError` with a line number on malformed input.
    """
    dialogs = []
    turns = []
    pending_facts = []
    last_content_line = 0

    def flush(line_no):
        nonlocal turns, pending_facts
        if pending_facts:
            raise ParseError(line_no, "kb facts with no following exchange")
        if turns:
            dialogs.append(Dialog(id=len(dialogs), turns=tuple(turns)))
            turns = []

    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip() == "":
            flush(last_content_line or line_no)
            continue
        last_content_line = line_no
        m = re.match(r"(\d+) (.*)$", line)
        if m is None:
            raise ParseError(line_no, "expected a line number prefix")
        rest = m.group(2)
        if "\t" in rest:
            user_text, system_text = rest.split("\t", 1)
            user_tokens = tuple(tokenize(user_text)) or (SILENCE_TOKEN,)
            turns.append(
                Turn(
                    user_tokens=user_tokens,
                    system_utterance=system_text,
                    kb_facts=tuple(pending_facts),
                )
            )
            pending_facts = []
        elif rest.strip():
            pending_facts.append(rest)
        else:
            raise ParseError(line_no, "neither an exchange nor a kb fact")
    flush(last_content_line)
    return dialogs


def write_dialogs(dialogs):
    """Render dialogs in the transcript format (inverse of parse_dialogs)."""
    blocks = []
    for dialog in dialogs:
        lines = []
        n = 1
        for turn in dialog.turns:
            for fact in turn.kb_facts:
                lines.append("%d %s" % (n, fact))
                n += 1
            lines.append("%d %s\t%s" % (n, " ".join(turn.user_tokens), turn.system_utterance))
            n += 1
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def _sha256_lines(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class Vocabulary:
    """Unified token index with reserved UNK and SILENCE entries.

    Index assignment is deterministic: reserved tokens first, then all
    remaining tokens in lexicographic order.
    """

    def __init__(self, tokens):
        extras = sorted(set(tokens) - {UNK_TOKEN, SILENCE_TOKEN})
        self.itos = (UNK_TOKEN, SILENCE_TOKEN) + tuple(extras)
        self.stoi = {tok: i for i, tok in enumerate(self.itos)}

    def __len__(self):
        return len(self.itos)

    def __contains__(self, token):
        return token in self.stoi

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.itos == other.itos

    def index(self, token):
        """Token index, mapping out-of-vocabulary tokens to UNK."""
        return self.stoi.get(token, UNK_INDEX)

    def encode(self, tokens):
        return np.array([self.index(t) for t in tokens], dtype=np.int64)

    @property
    def n_reserved(self):
        return 2

    def sha256(self):
        return _sha256_lines(self.itos)


def _dialog_tokens(dialog):
    for turn in dialog.turns:
        yield from turn.user_tokens
        yield from tokenize(turn.system_utterance)
        for fact in turn.kb_facts:
            yield from tokenize(fact)


def build_vocabulary(corpora):
    """Union vocabulary over several dialog collections.

    Order-independent and idempotent: the same set of corpora yields the
    same token -> index map no matter how the list is arranged.
    """
    if not corpora:
        raise ValueError("at least one corpus is required")
    tokens = set()
    for corpus in corpora:
        for dialog in corpus:
            tokens.update(_dialog_tokens(dialog))
    return Vocabulary(tokens)


def _entry_error(slot_type, values):
    """Why a lexicon entry is invalid, or None."""
    if not re.fullmatch(r"[a-z0-9_]+", slot_type):
        return "bad slot type %r" % slot_type
    if not values:
        return "no values under slot %r" % slot_type
    if any(not v.strip() for v in values):
        return "empty value under slot %r" % slot_type
    return None


class Lexicon:
    """slot_type -> tuple of surface values, e.g. cuisine -> (italian, ...)."""

    def __init__(self, entries):
        self.entries = {}
        for slot_type, values in sorted(entries.items()):
            vals = tuple(dict.fromkeys(values))
            error = _entry_error(slot_type, vals)
            if error:
                raise ValueError(error)
            self.entries[slot_type] = vals
        self.slot_types = tuple(sorted(self.entries))
        # token-level matches, longest value first for greedy replacement
        matches = []
        for slot_type, values in self.entries.items():
            for value in values:
                toks = tuple(tokenize(value))
                if toks:
                    matches.append((toks, slot_type))
        matches.sort(key=lambda m: (-len(m[0]), m[0], m[1]))
        self._by_first = {}
        for toks, slot_type in matches:
            self._by_first.setdefault(toks[0], []).append((toks, slot_type))

    def __eq__(self, other):
        return isinstance(other, Lexicon) and self.entries == other.entries

    def match_at(self, tokens, i):
        """Longest lexicon value starting at tokens[i], or None."""
        for toks, slot_type in self._by_first.get(tokens[i], ()):
            if tuple(tokens[i : i + len(toks)]) == toks:
                return toks, slot_type
        return None

    def to_lines(self):
        return ["%s\t%s" % (slot, v) for slot in self.slot_types for v in self.entries[slot]]

    def sha256(self):
        return _sha256_lines(self.to_lines())

    @classmethod
    def from_lines(cls, lines):
        """Parse ``slot_type<TAB>value`` lines; blank lines are skipped.

        A line without a TAB, with a bad slot type or with an empty value
        raises :class:`ParseError` naming its 1-based line number.
        """
        entries = {}
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            slot_type, tab, value = line.rstrip("\n").partition("\t")
            error = _entry_error(slot_type, [value]) if tab else "expected slot_type<TAB>value"
            if error:
                raise ParseError(line_no, error)
            entries.setdefault(slot_type, []).append(value)
        return cls(entries)


def delexicalize(utterance, lexicon):
    """Replace lexicon values with slot-type tokens, longest match first.

    Output is normalized token text, so the function is idempotent and
    its fixed points are the action templates.
    """
    tokens = tokenize(utterance)
    out = []
    i = 0
    while i < len(tokens):
        hit = lexicon.match_at(tokens, i)
        if hit is not None:
            toks, slot_type = hit
            out.append("<%s>" % slot_type)
            i += len(toks)
        else:
            out.append(tokens[i])
            i += 1
    return " ".join(out)


@dataclass(frozen=True)
class ActionSet:
    """Distinct delexicalized system templates, ids dense and lexicographic."""

    templates: tuple
    fallback_action_id: int

    @property
    def size(self):
        return len(self.templates)

    @property
    def fallback_template(self):
        return self.templates[self.fallback_action_id]

    def action_id(self, template):
        try:
            return self._index[template]
        except KeyError:
            raise UnknownActionError("unknown action template %r" % template) from None

    def __post_init__(self):
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.templates)})

    def sha256(self):
        return _sha256_lines(self.templates)


def _delexicalizer(lexicon):
    """``delexicalize`` with ``lexicon``, run once per distinct utterance.

    System utterances repeat heavily; the memo lives as long as the
    function returned, one call of its caller.
    """
    memo = {}

    def template(utterance):
        if utterance not in memo:
            memo[utterance] = delexicalize(utterance, lexicon)
        return memo[utterance]

    return template


def extract_action_set(dialogs, lexicon, fallback_template=DEFAULT_FALLBACK_TEMPLATE):
    """Action inventory = distinct delexicalized system utterances + fallback."""
    if not dialogs:
        raise ValueError("empty dialog collection")
    template = _delexicalizer(lexicon)
    templates = {template(fallback_template)}
    for dialog in dialogs:
        for turn in dialog.turns:
            templates.add(template(turn.system_utterance))
    ordered = tuple(sorted(templates))
    fallback_id = ordered.index(template(fallback_template))
    return ActionSet(templates=ordered, fallback_action_id=fallback_id)


def assign_actions(dialogs, action_set, lexicon):
    """Resolve every turn's system utterance to its action id."""
    template = _delexicalizer(lexicon)
    out = []
    for dialog in dialogs:
        turns = tuple(
            replace(t, system_action=action_set.action_id(template(t.system_utterance)))
            for t in dialog.turns
        )
        out.append(Dialog(id=dialog.id, turns=turns))
    return out


def _is_api_call(turn):
    toks = tokenize(turn.system_utterance)
    return bool(toks) and toks[0] == API_CALL_PREFIX


@dataclass(frozen=True)
class ContextFeatures:
    """Binary slot-provided indicators plus the api-results indicator."""

    slot_provided: tuple
    api_returned: int


@dataclass
class TurnFeatures:
    """Model input record for one turn.

    ``bow_indices`` is the sorted set of the turn's distinct token indices
    (:func:`bow_indices`), materialized by ``Model.bow_rows``.  Training's
    word dropout replaces ``f_turn`` only, so the bag of words keeps them.
    ``f_mask`` is all ones; the models read it as an input feature and
    never apply it to the logits.
    """

    f_turn: np.ndarray
    bow_indices: np.ndarray
    f_ctx: ContextFeatures
    f_mask: np.ndarray
    prev_action: np.ndarray
    target: int
    ood_label: OodLabel = OodLabel.IND


def bow_indices(f_turn):
    """The sorted distinct token indices of ``f_turn``, in its dtype.

    That is ``np.unique(f_turn)``, which in numpy 2.4 imports ``numpy.ma``
    on first use, about 1.3 MB of resident memory for nothing masked.
    """
    return np.array(sorted(set(f_turn.tolist())), dtype=f_turn.dtype)


def featurize_dialog(dialog, vocab, action_set, lexicon):
    """Model inputs for every turn of a dialog, in one pass over its turns.

    Context tracking sees the current turn as well: slot values and kb
    facts delivered with this exchange are part of the state the system
    acts on.  A slot counts as provided once any user turn so far
    contains one of its lexicon values.  The api indicator is 1 iff at
    least one kb fact arrived after the most recent api_call.
    """
    provided = set()
    after_api_call = False
    api_returned = 0
    prev_id = None
    out = []
    for turn in dialog.turns:
        if turn.system_action is None or not (0 <= turn.system_action < action_set.size):
            raise UnknownActionError("turn has no valid action id (run assign_actions first)")
        tokens = turn.user_tokens
        for i in range(len(tokens)):
            hit = lexicon.match_at(tokens, i)
            if hit is not None:
                provided.add(hit[1])
        if _is_api_call(turn):
            after_api_call, api_returned = True, 0
        elif after_api_call and turn.kb_facts:
            api_returned = 1
        f_turn = vocab.encode(tokens)
        prev = np.zeros(action_set.size, dtype=np.float32)
        if prev_id is not None:
            prev[prev_id] = 1.0
        out.append(TurnFeatures(
            f_turn=f_turn,
            bow_indices=bow_indices(f_turn),
            f_ctx=ContextFeatures(
                slot_provided=tuple(int(s in provided) for s in lexicon.slot_types),
                api_returned=api_returned,
            ),
            f_mask=np.ones(action_set.size, dtype=np.float32),
            prev_action=prev,
            target=turn.system_action,
            ood_label=turn.ood_label,
        ))
        prev_id = turn.system_action
    return out


@dataclass(frozen=True)
class Featurizer:
    """The vocabulary and action set shared by every split of one run."""

    lexicon: Lexicon
    vocab: Vocabulary
    action_set: ActionSet

    @property
    def n_context(self):
        return len(self.lexicon.slot_types) + 1

    def featurize(self, dialogs):
        """Resolve each turn's action, then build the model inputs."""
        return [featurize_dialog(d, self.vocab, self.action_set, self.lexicon)
                for d in assign_actions(dialogs, self.action_set, self.lexicon)]


def prepare(lexicon, action_corpora, vocab_corpora=(), fallback=DEFAULT_FALLBACK_TEMPLATE):
    """Featurizer over dialog collections.

    Every corpus in ``action_corpora`` contributes both its system
    templates to the action set and its tokens to the vocabulary;
    ``vocab_corpora`` (e.g. OOD pools a model should still embed)
    contribute tokens only.
    """
    action_corpora = list(action_corpora)
    vocab = build_vocabulary(action_corpora + list(vocab_corpora))
    action_set = extract_action_set([d for c in action_corpora for d in c], lexicon, fallback)
    return Featurizer(lexicon=lexicon, vocab=vocab, action_set=action_set)


def load_embedding_table(path, vocab, seed=0):
    """Read an embedding file as a (V, d) float32 array aligned with ``vocab``.

    The file is a header ``V d`` and then V lines of a token and d
    numbers.  Tokens missing from the file get deterministic random
    vectors, drawn per token from N(0, 0.1^2); file tokens outside the
    vocabulary are ignored.  A malformed header or row, a value that is
    not a number or not finite in float32, or a row count other than V
    raises :class:`ParseError` naming the 1-based line; the caller names
    the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            n, dim = (int(x) for x in header)
        except ValueError:
            n = dim = -1
        if n < 0 or dim < 1:
            raise ParseError(1, "expected a header 'V d' with V >= 0 and d >= 1, got %r"
                             % " ".join(header))
        by_token = {}
        for line_no in range(2, n + 2):
            parts = fh.readline().split()
            if len(parts) != dim + 1:
                raise ParseError(line_no, "expected a token and %d values, got %d fields"
                                 % (dim, len(parts)))
            try:
                with np.errstate(over="ignore"):  # overflow is reported below
                    row = np.array([float(x) for x in parts[1:]], dtype=np.float32)
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            if not np.isfinite(row).all():
                raise ParseError(line_no, "value %s is not finite in float32"
                                 % parts[1 + int(np.argmin(np.isfinite(row)))])
            by_token[parts[0]] = row
        if fh.read().strip():
            raise ParseError(n + 2, "more rows than the header's %d" % n)
    rows = []
    for tok in vocab.itos:
        if tok in by_token:
            rows.append(by_token[tok])
        else:
            rows.append(stream(seed, "embedding", tok).normal(0.0, 0.1, dim).astype(np.float32))
    return np.stack(rows)
