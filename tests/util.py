"""Shared helpers for the test suite: tiny synthetic domains, fixed noise and file fixtures."""

import numpy as np

from robusthcn.corpus import (
    ActionSet,
    ContextFeatures,
    Lexicon,
    TurnFeatures,
    Vocabulary,
    parse_dialogs,
)
from robusthcn.models import Model, ModelConfig
from robusthcn.seeding import stream


class ReplayNoise:
    """Duck-typed rng that replays a fixed list of standard-normal draws.

    Makes train-mode VHCN losses deterministic functions of the
    parameters, which finite differences require.
    """

    def __init__(self, arrays):
        self.arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        self.i = 0

    def reset(self):
        self.i = 0
        return self

    def standard_normal(self, size):
        # one stored draw per row: a (T, k) request takes the next T draws
        shape = tuple(np.atleast_1d(size))
        rows = int(np.prod(shape[:-1]))
        out = self.arrays[self.i:self.i + rows]
        assert len(out) == rows and all(a.shape == shape[-1:] for a in out)
        self.i += rows
        return np.reshape(out, shape)


def bow_vector(features, vocab_size, dtype=np.float32):
    """One turn's binary bag-of-words vector, the reference for ``Model.bow_rows``."""
    vec = np.zeros(vocab_size, dtype=dtype)
    vec[features.bow_indices] = 1.0
    return vec


def context_vector(features, dtype=np.float32):
    """One turn's context features, the reference for ``Model.context_rows``."""
    ctx = features.f_ctx
    return np.array(list(ctx.slot_provided) + [ctx.api_returned], dtype=dtype)


def tiny_vocab(n_words=10):
    return Vocabulary(["w%02d" % i for i in range(n_words)])


def tiny_actions(n_actions=4, fallback=0):
    return ActionSet(
        templates=tuple("action %d" % i for i in range(n_actions)),
        fallback_action_id=fallback,
    )


def tiny_turn(vocab, actions, tokens, target, prev=None, ctx_bits=(0, 1), api=0):
    f_turn = np.asarray(tokens, dtype=np.int64)
    prev_action = np.zeros(actions.size, dtype=np.float32)
    if prev is not None:
        prev_action[prev] = 1.0
    return TurnFeatures(
        f_turn=f_turn,
        bow_indices=np.unique(f_turn),
        f_ctx=ContextFeatures(slot_provided=tuple(ctx_bits), api_returned=api),
        f_mask=np.ones(actions.size, dtype=np.float32),
        prev_action=prev_action,
        target=int(target),
    )


def two_turn_dialog(vocab, actions):
    return [
        tiny_turn(vocab, actions, [2, 5, 3], target=1, prev=None, ctx_bits=(1, 0)),
        tiny_turn(vocab, actions, [4, 4, 6, 2], target=3, prev=1, ctx_bits=(1, 1), api=1),
    ]


def tiny_model(variant, vocab, actions, dtype=np.float64, seed=0, **overrides):
    params = dict(embedding_size=6, dialog_hidden_size=8, predictor_hidden_size=8)
    if variant == "VHCN":
        params["latent_size"] = 3
    params.update(overrides)
    config = ModelConfig(variant=variant, **params)
    return Model(config, vocab, actions, n_context=3, rng=stream(seed, "tiny", variant),
                 dtype=dtype)


def read_dialog_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dialogs(fh.read())


def read_lexicon_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return Lexicon.from_lines(fh.readlines())


def random_embedding_table(vocab, dimension, seed):
    """A (V, d) float32 table drawn per token, as load_embedding_table fills missing tokens."""
    return np.stack([stream(seed, "embedding", tok).normal(0.0, 0.1, dimension)
                     .astype(np.float32) for tok in vocab.itos])


def write_embedding_file(path, vocab, table):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (len(vocab), table.shape[1]))
        for tok, row in zip(vocab.itos, table):
            fh.write(tok + " " + " ".join("%.8f" % v for v in row) + "\n")
