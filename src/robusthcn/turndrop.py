"""Turn dropout: negative sampling by replacing random turns with gibberish.

A replaced turn keeps its context features, action mask and previous
system action bit-identical; only the token sequence (and hence the
bag-of-words indices) and the target action change.  The synthetic token
sequence mixes UNK tokens with words drawn uniformly from the
non-reserved vocabulary, with length bounded by the lengths seen in the
training data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import UNK_INDEX, bow_indices


@dataclass(frozen=True)
class TurnDropoutConfig:
    ratio: float
    length_bounds: tuple
    unk_prob: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.ratio <= 1.0):
            raise ValueError("ratio must be in [0, 1]")
        if not (0.0 <= self.unk_prob <= 1.0):
            raise ValueError("unk_prob must be in [0, 1]")
        lo, hi = self.length_bounds
        if not (1 <= lo <= hi):
            raise ValueError("length bounds must satisfy 1 <= min <= max")


def length_bounds_from(featurized_dialogs):
    """(min, max) user-turn length over a featurized training corpus."""
    lengths = [len(t.f_turn) for d in featurized_dialogs for t in d]
    if not lengths:
        raise ValueError("no turns to take length bounds from")
    return (min(lengths), max(lengths))


def synth_turn(rng, vocab, config):
    """Random token-index sequence: UNKs mixed with uniform vocabulary words."""
    n_vocab = len(vocab)
    n_reserved = vocab.n_reserved
    if n_vocab <= n_reserved:
        raise ValueError("vocabulary has no non-reserved tokens to sample")
    lo, hi = config.length_bounds
    length = int(rng.integers(lo, hi + 1))
    tokens = rng.integers(n_reserved, n_vocab, size=length)
    unk_mask = rng.random(length) < config.unk_prob
    tokens[unk_mask] = UNK_INDEX
    return tokens.astype(np.int64)


def apply_turn_dropout(featurized_dialog, config, rng, fallback_id, vocab):
    """Replace each turn independently with probability ``config.ratio``.

    Returns a new list; non-replaced entries are the original objects, so
    untouched features stay bit-identical.
    """
    out = []
    for turn in featurized_dialog:
        if config.ratio > 0 and rng.random() < config.ratio:
            f_turn = synth_turn(rng, vocab, config)
            out.append(
                replace(
                    turn,
                    f_turn=f_turn,
                    bow_indices=bow_indices(f_turn),
                    target=int(fallback_id),
                )
            )
        else:
            out.append(turn)
    return out
