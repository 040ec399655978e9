"""Controlled OOD augmentation of goal-oriented dialog corpora.

Two kinds of noise are injected into an otherwise clean corpus:

* turn-level OOD: before an original turn, with probability
  ``p_ood_start``, a block of foreign user requests is inserted, each
  answered by the fallback action; the block continues with probability
  ``p_ood_cont`` per extra turn (geometric block lengths).
* segment-level OOD: the original turn that resumes the dialog after a
  block is prefixed with a mistake-affirmation interjection and keeps its
  original target action.

The label sidecar format is one line per turn:
``dialog_id<TAB>turn_idx<TAB>{IND|TURN_OOD|SEGMENT_OOD}`` (turn_idx 0-based).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .corpus import (DEFAULT_FALLBACK_TEMPLATE, Dialog, OodLabel, ParseError, SILENCE_TOKEN,
                     Turn, tokenize)
from .seeding import stream


class PoolError(ValueError):
    pass


@dataclass(frozen=True)
class AugmentationConfig:
    p_ood_start: float
    p_ood_cont: float
    seed: int
    independent_segment_prob: float = 0.0

    def __post_init__(self):
        for name in ("p_ood_start", "p_ood_cont", "independent_segment_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError("%s must be in [0, 1], got %r" % (name, v))


@dataclass(frozen=True)
class OodPool:
    """Foreign-domain user utterances, each a tuple of tokens."""

    utterances: tuple
    source: str = ""

    def __post_init__(self):
        if any(len(u) == 0 for u in self.utterances):
            raise PoolError("pool contains an empty utterance")


@dataclass(frozen=True)
class SegmentPool:
    """Mistake-affirmation interjections, each a tuple of tokens."""

    interjections: tuple

    def __post_init__(self):
        if any(len(u) == 0 for u in self.interjections):
            raise PoolError("segment pool contains an empty interjection")

    def as_dialogs(self):
        """One single-turn dialog per interjection, for building a vocabulary."""
        return [Dialog(id=i, turns=(Turn(user_tokens=u, system_utterance=""),))
                for i, u in enumerate(self.interjections)]


def load_ood_pool(foreign_dialogs, source=""):
    """First user utterance of each foreign dialog, deduplicated in order.

    Dialogs that open with the silence placeholder are skipped; they carry
    no usable request.
    """
    seen = {}
    for dialog in foreign_dialogs:
        utt = dialog.turns[0].user_tokens
        if utt == (SILENCE_TOKEN,):
            continue
        seen.setdefault(utt, None)
    if not seen:
        raise PoolError("no usable first utterances in the foreign dialogs")
    return OodPool(utterances=tuple(seen), source=source)


def merge_ood_pools(pools):
    """Union of several pools, deduplicated, order preserved."""
    seen = {}
    for pool in pools:
        for utt in pool.utterances:
            seen.setdefault(utt, None)
    if not seen:
        raise PoolError("merged pool is empty")
    sources = "+".join(p.source for p in pools if p.source)
    return OodPool(utterances=tuple(seen), source=sources)


def load_segment_pool(text):
    """One interjection per non-empty line."""
    interjections = []
    for line in text.split("\n"):
        toks = tuple(tokenize(line))
        if toks:
            interjections.append(toks)
    if not interjections:
        raise PoolError("segment pool text is empty")
    return SegmentPool(interjections=tuple(interjections))


def _draw_utterance(rng, pool):
    return pool.utterances[int(rng.integers(0, len(pool.utterances)))]


def sample_ood_block(
    rng,
    config,
    pool,
    fallback_utterance=DEFAULT_FALLBACK_TEMPLATE,
):
    """One inserted OOD block: length 1 + Geometric(1 - p_ood_cont).

    Every turn of the block is labeled TURN_OOD and answered with the
    fallback utterance, which :func:`~robusthcn.corpus.assign_actions`
    resolves to the fallback action.
    """
    if len(pool.utterances) == 0:
        raise PoolError("cannot sample from an empty OOD pool")
    turns = [_make_ood_turn(rng, pool, fallback_utterance)]
    while rng.random() < config.p_ood_cont:
        turns.append(_make_ood_turn(rng, pool, fallback_utterance))
    return turns


def _make_ood_turn(rng, pool, fallback_utterance):
    return Turn(
        user_tokens=_draw_utterance(rng, pool),
        system_utterance=fallback_utterance,
        kb_facts=(),
        ood_label=OodLabel.TURN_OOD,
    )


def _prefix_interjection(rng, segment_pool, turn):
    if segment_pool is None or len(segment_pool.interjections) == 0:
        raise PoolError("segment pool required when OOD insertion is enabled")
    interjection = segment_pool.interjections[int(rng.integers(0, len(segment_pool.interjections)))]
    return replace(
        turn,
        user_tokens=interjection + turn.user_tokens,
        ood_label=OodLabel.SEGMENT_OOD,
    )


def augment_dialog(
    dialog,
    config,
    rng,
    pool,
    segment_pool,
    fallback_utterance=DEFAULT_FALLBACK_TEMPLATE,
):
    """Insert OOD blocks and interjections into one dialog.

    Original turns are never deleted or reordered and their target
    actions are untouched; the turn right after a block is marked
    SEGMENT_OOD and gains an interjection prefix.
    """
    out = []
    for turn in dialog.turns:
        if config.p_ood_start > 0 and rng.random() < config.p_ood_start:
            out.extend(sample_ood_block(rng, config, pool, fallback_utterance))
            turn = _prefix_interjection(rng, segment_pool, turn)
        elif config.independent_segment_prob > 0 and rng.random() < config.independent_segment_prob:
            turn = _prefix_interjection(rng, segment_pool, turn)
        out.append(turn)
    return Dialog(id=dialog.id, turns=tuple(out))


@dataclass
class AugmentStats:
    dialogs: int = 0
    original_turns: int = 0
    ind_turns: int = 0
    segment_turns: int = 0
    inserted_turns: int = 0
    blocks: int = 0

    @property
    def mean_block_length(self):
        return self.inserted_turns / self.blocks if self.blocks else 0.0

    @property
    def block_start_rate(self):
        return self.blocks / self.original_turns if self.original_turns else 0.0

    def to_lines(self):
        return [
            "dialogs = %d" % self.dialogs,
            "original_turns = %d" % self.original_turns,
            "ind_turns = %d" % self.ind_turns,
            "segment_turns = %d" % self.segment_turns,
            "inserted_turns = %d" % self.inserted_turns,
            "blocks = %d" % self.blocks,
            "block_start_rate = %.6f" % self.block_start_rate,
            "mean_block_length = %.6f" % self.mean_block_length,
        ]


def augment_corpus(
    dialogs,
    config,
    pool,
    segment_pool,
    fallback_utterance=DEFAULT_FALLBACK_TEMPLATE,
):
    """Augment every dialog with a per-dialog derived random stream.

    Dialog i uses the stream (config.seed, "augment", dialog.id), so the
    result does not depend on processing order and is bit-reproducible.
    """
    out = []
    stats = AugmentStats()
    for dialog in dialogs:
        rng = stream(config.seed, "augment", dialog.id)
        augmented = augment_dialog(dialog, config, rng, pool, segment_pool, fallback_utterance)
        out.append(augmented)
        stats.dialogs += 1
        stats.original_turns += len(dialog.turns)
        in_block = False
        for turn in augmented.turns:
            if turn.ood_label is OodLabel.TURN_OOD:
                stats.inserted_turns += 1
                if not in_block:
                    stats.blocks += 1
                in_block = True
                continue
            in_block = False
            if turn.ood_label is OodLabel.SEGMENT_OOD:
                stats.segment_turns += 1
            else:
                stats.ind_turns += 1
    return out, stats


def labels_text(dialogs):
    lines = []
    for dialog in dialogs:
        for idx, turn in enumerate(dialog.turns):
            lines.append("%d\t%d\t%s" % (dialog.id, idx, turn.ood_label.value))
    return "\n".join(lines) + "\n" if lines else ""


def parse_labels(text):
    """Label sidecar -> {dialog_id: [OodLabel, ...]}.

    Raises :class:`ParseError` with the 1-based line number on a malformed
    line or a turn index out of order.
    """
    labels = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(line_no, "expected 3 tab-separated fields, got %d" % len(fields))
        dialog_id, turn_idx, name = fields
        if not (re.fullmatch("[0-9]+", dialog_id) and re.fullmatch("[0-9]+", turn_idx)):
            raise ParseError(line_no, "dialog id and turn index must be non-negative integers")
        try:
            label = OodLabel(name)
        except ValueError:
            raise ParseError(line_no, "unknown label %r" % name) from None
        per_dialog = labels.setdefault(int(dialog_id), [])
        if int(turn_idx) != len(per_dialog):
            raise ParseError(line_no, "label file is not in turn order for dialog %s" % dialog_id)
        per_dialog.append(label)
    return labels


def apply_labels(dialogs, labels):
    """Attach sidecar labels to parsed dialogs (ids and lengths must agree)."""
    unknown = sorted(set(labels) - {dialog.id for dialog in dialogs})
    if unknown:
        raise ValueError("labels name dialog %d, which the transcript does not have" % unknown[0])
    out = []
    for dialog in dialogs:
        per_dialog = labels.get(dialog.id)
        if per_dialog is None or len(per_dialog) != len(dialog.turns):
            raise ValueError("labels do not match dialog %d" % dialog.id)
        turns = tuple(
            replace(t, ood_label=lab) for t, lab in zip(dialog.turns, per_dialog)
        )
        out.append(Dialog(id=dialog.id, turns=turns))
    return out
