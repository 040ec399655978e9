"""The HCN model family: shared dialog-level encoder, three turn encoders.

All variants share a dialog-level LSTM over the turn encoding concatenated
with bag-of-words turn features, context features, the previous system
action and the (all-ones) action mask, followed by a one-hidden-layer
predictor over actions.  They differ on the turn level:

* HCN   - mean of frozen word embeddings, a constant input computed in
          numpy once per dialog
* HHCN  - final state of a turn-level LSTM over trainable embeddings
* VHCN  - variational encoder on top of the turn LSTM; the turn encoding
          is the latent sample (train) or the posterior mean (infer), and
          the objective adds a bag-of-words reconstruction and a
          closed-form KL term

The dialog-level input projection is stored in blocks (one weight matrix
per feature group), which is arithmetically identical to a single affine
map over the concatenated input.  The blocks form two halves, each one
``Model`` method: the token half (turn vector and bag of words), which
without a graph depends on a turn's tokens alone, and the context half
(context features, previous action and mask).  No dialog-level input
depends on the LSTM state, so a dialog runs as one pass with no per-turn
step: ``encode_turn`` returns the (T, d) turn encodings of the whole
dialog (in training the turn LSTM runs once over all turns, packed by
length), each input block is one product over all T turns,
``dialog_step`` runs the same LSTM op over the summed rows, returning
every step's hidden state, and the predictor and the loss see (T, .)
matrices.

Training takes one dialog per step.  Dialogs are scored by
``predict_dialogs`` (evaluation and the per-epoch dev accuracy).  Without
a graph a turn's vector depends on its tokens alone (HCN's frozen mean,
HHCN's last LSTM state, VHCN's posterior mean), and user turns repeat
heavily, so one ``encode_turn`` call encodes each distinct turn of the
call once.  User turns also share prefixes ("i want a ...", "no thanks"),
so for HHCN and VHCN that call walks the turn LSTM over the prefix trie of
the distinct turns, each distinct prefix computed once and each distinct
token projected once, as radix-tree prefix caching does in LLM serving
(Zheng et al. 2023, arXiv:2312.07104).  The token half is projected once
per distinct turn and the context half once per distinct (context,
previous action, mask) row.  One ``predict_dialog`` call then runs the
dialog LSTM, the ``nn.lstm`` that training runs, over all the dialogs of
the call packed longest first, each step gathering its turns' rows from
the two tables; then the predictor and argmax.  The predictions equal
those of one dialog at a time, though the logits may differ in the last
bits: a product over other rows need not round the same.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .corpus import ActionSet, Lexicon, Vocabulary
from .seeding import stream

VARIANTS = ("HCN", "HHCN", "VHCN")

# format 2 adds lexicon_hash; format 3 stores weights (in, out), and the
# (out, in) weights of format 1 and 2 files load transposed
CHECKPOINT_FORMAT = 3
_CHECKPOINT_MAGIC = "robusthcn-checkpoint"

DEFAULT_EMBEDDING_SIZE = {"HCN": 64, "HHCN": 128, "VHCN": 128}
DEFAULT_LATENT_SIZE = 8

# header scalars load_checkpoint reads
_HEADER_SCALARS = ("variant", "vocab_size", "n_actions", "n_context", "embedding_size",
                   "latent_size", "dialog_hidden_size", "predictor_hidden_size",
                   "fallback_action_id", "vocab_hash", "action_hash")


class HashMismatchError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class ModelConfig:
    variant: str
    embedding_size: int | None = None
    latent_size: int | None = None
    dialog_hidden_size: int = 128
    predictor_hidden_size: int = 128

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError("unknown variant %r (expected one of %s)" % (self.variant, VARIANTS))
        if self.embedding_size is None:
            self.embedding_size = DEFAULT_EMBEDDING_SIZE[self.variant]
        if self.variant == "VHCN":
            if self.latent_size is None:
                self.latent_size = DEFAULT_LATENT_SIZE
        elif self.latent_size is not None:
            raise ValueError("latent_size is only valid for VHCN")
        for name in ("embedding_size", "latent_size", "dialog_hidden_size",
                     "predictor_hidden_size"):
            size = getattr(self, name)
            if size is not None and size < 1:
                raise ValueError("%s must be at least 1, got %r" % (name, size))

    @property
    def turn_vector_size(self):
        return self.latent_size if self.variant == "VHCN" else self.embedding_size


@dataclass
class VaeEncoding:
    mu: nn.Tensor
    sigma: nn.Tensor


class Model:
    """One trained or trainable instance of a model variant.

    A fresh model draws its parameters from ``rng``; ``embedding_table``,
    a (V, d) array, replaces the drawn embedding.  ``arrays`` (name ->
    array, as ``load_checkpoint`` returns them) gives every parameter's value
    instead, and nothing is drawn.  An array that already has the model's
    dtype becomes the parameter's ``data`` as it is, not a copy, so the
    parameters alias ``arrays``.  ``Adam`` copies the trainable weights into
    its own buffer, so training the model never writes to them.
    """

    def __init__(self, config, vocab, action_set, n_context, rng=None, dtype=np.float32,
                 embedding_table=None, arrays=None):
        self.config = config
        self.vocab = vocab
        self.action_set = action_set
        self.n_context = int(n_context)
        self.dtype = np.dtype(dtype)
        self.vocab_hash = vocab.sha256()
        self.action_hash = action_set.sha256()
        if rng is None and arrays is None:
            rng = stream(0, "model-init")
        self.params = OrderedDict()
        self._build(rng, embedding_table, arrays)
        if arrays is not None and list(self.params) != list(arrays):
            raise CheckpointError("parameter inventory does not match this model variant")

    def _build(self, rng, embedding_table, arrays):
        cfg = self.config
        v_size = len(self.vocab)
        a_size = self.action_set.size
        dtype = self.dtype

        def param(name, shape, draw, trainable=True):
            if arrays is None:
                data = draw()
            elif name not in arrays:
                raise CheckpointError("parameter inventory does not match this model variant")
            elif arrays[name].shape != shape:
                raise CheckpointError("shape mismatch for parameter %s" % name)
            else:
                data = arrays[name].astype(dtype, copy=False)
            p = nn.Parameter(data, name, trainable)
            self._register(p)
            return p

        def glorot(name, shape, **fans):
            return param(name, shape, lambda: nn.glorot_uniform(rng, shape, dtype, **fans))

        def linear(name, in_size, out_size):
            return nn.Linear(glorot(name + ".weight", (in_size, out_size)),
                             param(name + ".bias", (out_size,), lambda: np.zeros(out_size, dtype)))

        def recurrent(name, hidden):
            return (param(name + ".w_recurrent", (hidden, 4 * hidden),
                          lambda: nn.lstm_recurrent_init(rng, hidden, dtype)),
                    param(name + ".bias", (4 * hidden,), lambda: nn.lstm_bias_init(hidden, dtype)))

        def embedding():
            if embedding_table is None:
                return rng.normal(0.0, 0.1, (v_size, cfg.embedding_size)).astype(dtype)
            if embedding_table.shape != (v_size, cfg.embedding_size):
                raise ValueError("embedding table shape mismatch")
            return embedding_table.astype(dtype)

        # HCN reads a frozen (optionally pretrained) table; the others train theirs
        self.embedding = param("embedding", (v_size, cfg.embedding_size), embedding,
                               trainable=cfg.variant != "HCN")

        if cfg.variant in ("HHCN", "VHCN"):
            size = cfg.embedding_size
            self.turn_w_input = glorot("turn_lstm.w_input", (size, 4 * size),
                                       fan_in=size, fan_out=size)
            self.turn_u, self.turn_b = recurrent("turn_lstm", size)
        if cfg.variant == "VHCN":
            self.mu_head = linear("mu_head", cfg.embedding_size, cfg.latent_size)
            self.logvar_head = linear("logvar_head", cfg.embedding_size, cfg.latent_size)
            self.bow_head = linear("bow_head", cfg.latent_size, v_size)

        hidden = cfg.dialog_hidden_size
        turn_dim = cfg.turn_vector_size
        fans = dict(fan_in=turn_dim + v_size + self.n_context + 2 * a_size, fan_out=hidden)
        self.dlg_w_turn = glorot("dialog_lstm.w_turn", (turn_dim, 4 * hidden), **fans)
        self.dlg_w_bow = glorot("dialog_lstm.w_bow", (v_size, 4 * hidden), **fans)
        self.dlg_w_ctx = glorot("dialog_lstm.w_ctx", (self.n_context, 4 * hidden), **fans)
        self.dlg_w_prev = glorot("dialog_lstm.w_prev", (a_size, 4 * hidden), **fans)
        self.dlg_w_mask = glorot("dialog_lstm.w_mask", (a_size, 4 * hidden), **fans)
        self.dlg_u, self.dlg_b = recurrent("dialog_lstm", hidden)

        self.pred_hidden = linear("predictor.hidden", hidden, cfg.predictor_hidden_size)
        self.pred_out = linear("predictor.out", cfg.predictor_hidden_size, a_size)

    def _register(self, param):
        if param.name in self.params:
            raise ValueError("duplicate parameter name %r" % param.name)
        self.params[param.name] = param

    def parameters(self):
        return list(self.params.values())

    def encode_turn(self, featurized_dialog, rng=None):
        """The (T, d) turn vectors of a whole dialog, and VHCN's posterior encoding.

        HCN averages each turn's frozen embeddings in numpy, outside the
        graph, since no gradient reaches them.  With a graph, HHCN and VHCN
        project every token of the dialog at once, run the turn LSTM once
        over the turns as packed sequences of their own lengths, and read
        each turn's last hidden state.  Without a graph they walk the turn
        LSTM over the prefix trie of the turns instead (:func:`_prefix_trie`,
        :func:`nn.lstm_trie`): each distinct prefix is one node, each
        distinct token is projected once, one wide step runs per level, and
        a turn's vector is the state at its last node, so the rows come back
        in input order and equal turns get equal rows.  VHCN samples the
        latents from ``rng`` when one is given (training: one (T, k)
        standard-normal draw, the same numbers as T per-turn draws in turn
        order) and uses the posterior mean otherwise (inference).  An empty
        turn raises ``ValueError``.
        """
        cfg = self.config
        lengths = np.array([len(f.f_turn) for f in featurized_dialog])
        if lengths.min() < 1:
            raise ValueError("cannot encode an empty turn")
        if cfg.variant == "HCN":
            # the embedding rows packed longest first: step j's rows, token j
            # of the turns still running, are added to the first sums, the
            # order x.mean(axis=0) adds in, so each row is that mean bit for bit
            tokens = np.concatenate([f.f_turn for f in featurized_dialog])
            rows, _, sizes = nn.pack_sequences(lengths, len(tokens))
            x = self.embedding.data[tokens[rows]]
            sums = x[:sizes[0]]
            for k, start in zip(sizes[1:], np.cumsum(sizes).tolist()):
                sums[:k] += x[start:start + k]
            turn = np.repeat(np.arange(lengths.size), lengths)[rows[:sizes[0]]]
            means = np.empty_like(sums)
            means[turn] = sums / lengths[turn].astype(self.dtype)[:, None]
            return nn.Tensor(means), None
        if nn.grad_enabled():
            tokens = np.concatenate([f.f_turn for f in featurized_dialog])
            zx = nn.matvec(self.turn_w_input, nn.gather_rows(self.embedding, tokens))
            hs = nn.lstm(zx, lengths, self.turn_u, self.turn_b)
            h = nn.gather_rows(hs, np.cumsum(lengths) - 1)
        else:
            tokens, parents, level_sizes, last = _prefix_trie(
                [f.f_turn for f in featurized_dialog])
            # one product row per distinct token, each equal to its row of
            # the per-token product bit for bit; a one-row product would
            # take numpy's vector path, which rounds differently
            distinct, inverse = np.unique(tokens, return_inverse=True)
            if distinct.size == 1:
                distinct, inverse = tokens, np.arange(tokens.size)
            zx = self.embedding.data[distinct] @ self.turn_w_input.data
            hs = nn.lstm_trie(zx, inverse, parents, level_sizes, self.turn_u, self.turn_b)
            h = nn.Tensor(hs[last])
        if cfg.variant == "HHCN":
            return h, None
        mu = self.mu_head(h)
        sigma = nn.exp(nn.mul(0.5, self.logvar_head(h)))
        if rng is not None:
            noise = rng.standard_normal((len(featurized_dialog), cfg.latent_size))
            z = nn.reparameterize(mu, sigma, np.asarray(noise, dtype=self.dtype))
        else:
            z = mu
        return z, VaeEncoding(mu=mu, sigma=sigma)

    def token_inputs(self, turn_vectors, turns):
        """The token half of the dialog-level input rows: (turn @ w_turn) + (bow @ w_bow).

        ``turn_vectors`` are the encodings of ``turns``, one row each.
        Without a graph the half depends on a turn's tokens alone.
        """
        return nn.add(nn.matvec(self.dlg_w_turn, turn_vectors),
                      nn.matvec(self.dlg_w_bow, self.bow_rows(turns)))

    def context_inputs(self, turns):
        """The context half of the dialog-level input rows.

        That is (ctx @ w_ctx) + ((prev @ w_prev) + (mask @ w_mask)) for the
        context features, previous action and action mask of ``turns``.
        """
        prev = np.array([f.prev_action for f in turns], dtype=self.dtype)
        mask = np.array([f.f_mask for f in turns], dtype=self.dtype)
        return nn.add(nn.matvec(self.dlg_w_ctx, self.context_rows(turns)),
                      nn.add(nn.matvec(self.dlg_w_prev, prev), nn.matvec(self.dlg_w_mask, mask)))

    def dialog_inputs(self, turn_vectors, turns):
        """The (T, 4H) dialog-level input rows of ``turns``: token half + context half."""
        return nn.add(self.token_inputs(turn_vectors, turns), self.context_inputs(turns))

    def dialog_step(self, inputs, lengths=None):
        """The dialog level over one or more dialogs: (T, |A|) action logits.

        ``inputs`` holds the dialog-level input rows of the dialogs' T
        turns, concatenated (:meth:`dialog_inputs`), or, without a graph,
        the ``(table, rows)`` pairs of :func:`_infer_inputs` that they are
        the sums of; ``lengths`` gives each dialog's turn count (None: one
        dialog).  No input depends on the LSTM state, so training and
        scoring alike run one :func:`nn.lstm` over the dialogs packed, on
        rows projected beforehand, then the predictor.
        """
        h = nn.lstm(inputs, lengths, self.dlg_u, self.dlg_b)
        return self.pred_out(nn.relu(self.pred_hidden(h)))

    def bow_rows(self, featurized_dialog):
        """The binary bag-of-words vectors of a dialog's turns, as rows."""
        indices = [f.bow_indices for f in featurized_dialog]
        rows = np.zeros((len(indices), len(self.vocab)), dtype=self.dtype)
        rows[np.repeat(np.arange(len(indices)), [len(i) for i in indices]),
             np.concatenate(indices)] = 1.0
        return rows

    def context_rows(self, featurized_dialog):
        """The context features of a dialog's turns (slots provided, api returned), as rows."""
        return np.array([f.f_ctx.slot_provided + (f.f_ctx.api_returned,)
                         for f in featurized_dialog], dtype=self.dtype)


def loss_vhcn(logits, targets, encoding, bow_logits, x_bow):
    """Joint objective: action CE + bag-of-words CE + closed-form KL.

    All three terms are the minimized (positive) forms, summed over the
    rows (turns) of their inputs; the same latent sample feeds the action
    path and the reconstruction.  Returns the total and a per-term
    breakdown.
    """
    ce = nn.softmax_ce(logits, targets)
    bow = nn.bow_sigmoid_ce(bow_logits, x_bow)
    kl = nn.gaussian_kl(encoding.mu, encoding.sigma)
    total = nn.add(nn.add(ce, bow), kl)
    breakdown = {
        "action_ce": float(ce.data),
        "bow_ce": float(bow.data),
        "kl": float(kl.data),
    }
    return total, breakdown


def dialog_loss(model, featurized_dialog, rng=None):
    """Mean per-turn loss over one dialog, with a term breakdown.

    ``rng`` draws the VHCN latent noise; without it VHCN uses the
    posterior mean.  HCN and HHCN ignore it.
    """
    if not featurized_dialog:
        raise ValueError("empty dialog")
    turn_vectors, encoding = model.encode_turn(featurized_dialog, rng)
    logits = model.dialog_step(model.dialog_inputs(turn_vectors, featurized_dialog))
    targets = [features.target for features in featurized_dialog]
    if encoding is not None:
        total, sums = loss_vhcn(logits, targets, encoding, model.bow_head(turn_vectors),
                                model.bow_rows(featurized_dialog))
    else:
        total = nn.softmax_ce(logits, targets)
        sums = {"action_ce": float(total.data), "bow_ce": 0.0, "kl": 0.0}
    n = len(featurized_dialog)
    mean = nn.mul(total, 1.0 / n)
    breakdown = {key: val / n for key, val in sums.items()}
    breakdown["loss"] = float(mean.data)
    return mean, breakdown


def _distinct(turns, key):
    """The first turn of each distinct ``key(turn)``, and each turn's index among them.

    Returns ``(distinct, inverse)``, ``distinct`` in input order.
    """
    first = {}
    firsts = [first.setdefault(key(f), i) for i, f in enumerate(turns)]
    index, inverse = np.unique(firsts, return_inverse=True)
    return [turns[i] for i in index], inverse


def _token_key(f):
    return f.f_turn.tobytes()


def _context_key(f):
    return (f.f_ctx.slot_provided, f.f_ctx.api_returned, f.prev_action.tobytes(),
            f.f_mask.tobytes())


def _prefix_trie(sequences):
    """The prefix trie of non-empty token sequences, its nodes numbered level by level.

    Returns ``(tokens, parents, level_sizes, last)``: level d holds
    ``level_sizes[d]`` nodes, the distinct prefixes of d + 1 tokens, in
    lexicographic order; node n's last token is ``tokens[n]``; a node below
    level 0 extends the prefix of node ``parents[n - level_sizes[0]]``; and
    sequence j ends at node ``last[j]``, so equal sequences share it,
    whatever the order of ``sequences``.
    """
    lengths = np.array([len(s) for s in sequences])
    padded = np.full((lengths.size, lengths.max()), -1, dtype=np.int64)
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = np.concatenate(sequences)
    # the padding sorts first, so a sequence sorts before the sequences it
    # is a prefix of, and the sequences that share a prefix are adjacent
    order = np.lexsort(padded.T[::-1])
    padded, lengths = padded[order], lengths[order]
    # sorted, a sequence shares the nodes of its common prefix with the
    # one before it and starts one new node at every level after that
    same = np.cumprod(padded[1:] == padded[:-1], axis=1).sum(axis=1)
    shared = np.concatenate(([0], np.minimum(same, lengths[1:])))
    depth = np.arange(padded.shape[1])
    new = ((depth >= shared[:, None]) & (depth < lengths[:, None])).T
    # node[d, j]: the level-d node of sorted sequence j, the last one
    # started at level d by j or a sequence before it
    node = np.full(new.shape, -1, dtype=np.intp)
    node[new] = np.arange(np.count_nonzero(new))
    np.maximum.accumulate(node, axis=1, out=node)
    last = np.empty_like(order)
    last[order] = node[lengths - 1, np.arange(lengths.size)]
    return padded.T[new], node[:-1][new[1:]], new.sum(axis=1), last


def _infer_turn_vectors(model, turns):
    """The no-grad encodings of the distinct turns of ``turns``.

    Returns ``(rows, inverse, row_turns)``: ``rows`` holds one encoding
    per distinct token sequence, ``rows[inverse]`` the (T, d) turn vectors
    in input order, and ``row_turns[r]`` a turn whose encoding is
    ``rows[r]``, in order of first occurrence.  Without a graph a turn's
    vector depends on its tokens alone (HCN's frozen mean, HHCN's last LSTM
    state, VHCN's posterior mean), so the distinct turns are encoded once,
    in one :meth:`Model.encode_turn` call, whose trie walk holds a state
    row per distinct prefix.
    """
    distinct, inverse = _distinct(turns, _token_key)
    with nn.no_grad():
        return model.encode_turn(distinct)[0].data, inverse, distinct


def _infer_inputs(model, turns):
    """The no-grad dialog-level input rows of ``turns``, as two tables.

    Returns ``[(token, token_of), (context, context_of)]``, the input form
    of :meth:`Model.dialog_step` that never builds the rows: the turns'
    input rows, in input order, are ``token[token_of] + context[context_of]``.
    Without a graph the token half depends on a turn's tokens alone, so it
    is projected once per distinct row of :func:`_infer_turn_vectors`; the
    context half depends on the context, previous action and mask alone,
    so it is projected once per distinct (context, previous action, mask)
    row.  One distinct row among several turns is projected at every turn
    instead, since a one-row product would take numpy's vector path, which
    rounds differently.

    The rows equal :meth:`Model.dialog_inputs` over all the turns to within
    float32 rounding: from a vocabulary of about 450 words, OpenBLAS can
    round the bag-of-words product over a few distinct rows differently.
    """
    vectors, token_of, token_turns = _infer_turn_vectors(model, turns)
    context_turns, context_of = _distinct(turns, _context_key)
    if len(token_turns) == 1:
        vectors, token_turns, token_of = vectors[token_of], turns, np.arange(len(turns))
    if len(context_turns) == 1:
        context_turns, context_of = turns, np.arange(len(turns))
    with nn.no_grad():
        return [(model.token_inputs(vectors, token_turns).data, token_of),
                (model.context_inputs(context_turns).data, context_of)]


def predict_dialog(model, inputs, lengths):
    """Greedy argmax actions from the dialog-level inputs of one or more dialogs.

    ``inputs`` and ``lengths`` are as in :meth:`Model.dialog_step`: the
    rows the dialog LSTM reads, one per turn, or the ``(table, rows)``
    pairs they are summed from, and each dialog's turn count.  Only
    ``dialog_step``, as in training, and argmax run here; the result is
    one action id per turn, a flat list in input order.  Argmax ties
    resolve to the lowest action id.  Index arrays that do not split
    ``sum(lengths)`` raise ``DimensionError``.  To score featurized
    dialogs, call :func:`predict_dialogs`.
    """
    with nn.no_grad():
        logits = model.dialog_step(inputs, lengths)
    return np.argmax(logits.data, axis=1).tolist()


def predict_dialogs(model, featurized_dialogs):
    """Greedy actions for every turn of a list of dialogs, a flat list in order.

    This is how dialogs are scored; a turn is flagged OOD when its action
    is the fallback action.  Inference is deterministic for every variant
    (VHCN uses the posterior mean).  The dialog-level inputs of all the
    dialogs' turns are built in one :func:`_infer_inputs` call, as two
    tables: each distinct token sequence is encoded and its token half
    projected once per call, and each distinct (context, previous action,
    mask) row has its context half projected once.  One
    :func:`predict_dialog` call then runs the dialog level over all the
    dialogs at once, packed longest first, each step gathering its turns'
    rows from the two tables and adding them; it returns every turn's
    action once.  Empty dialogs add nothing.  The predictions equal those
    of one dialog at a time.
    """
    dialogs = [dialog for dialog in featurized_dialogs if dialog]
    turns = [f for dialog in dialogs for f in dialog]
    if not turns:
        return []
    return predict_dialog(model, _infer_inputs(model, turns), [len(dialog) for dialog in dialogs])


def _header_lines(model, lexicon, extra):
    cfg = model.config
    lines = [
        "%s %d" % (_CHECKPOINT_MAGIC, CHECKPOINT_FORMAT),
        "variant = %s" % cfg.variant,
        "vocab_size = %d" % len(model.vocab),
        "n_actions = %d" % model.action_set.size,
        "n_context = %d" % model.n_context,
        "embedding_size = %d" % cfg.embedding_size,
        "latent_size = %s" % ("none" if cfg.latent_size is None else cfg.latent_size),
        "dialog_hidden_size = %d" % cfg.dialog_hidden_size,
        "predictor_hidden_size = %d" % cfg.predictor_hidden_size,
        "fallback_action_id = %d" % model.action_set.fallback_action_id,
        "vocab_hash = %s" % model.vocab_hash,
        "action_hash = %s" % model.action_hash,
        "lexicon_hash = %s" % lexicon.sha256(),
    ]
    for key in sorted(extra):
        lines.append("extra.%s = %s" % (key, extra[key]))
    lines.append("vocab = %s" % " ".join(model.vocab.itos))
    for template in model.action_set.templates:
        lines.append("action = %s" % template)
    for entry in lexicon.to_lines():
        lines.append("lexicon = %s" % entry)
    for name, p in model.params.items():
        lines.append("param = %s %s" % (name, ",".join(str(d) for d in p.data.shape)))
    lines.append("end_header")
    return lines


def save_checkpoint(path, model, lexicon, extra=None):
    """Versioned container: text header, then float32 little-endian arrays."""
    with open(path, "wb") as fh:
        fh.write(("\n".join(_header_lines(model, lexicon, extra or {})) + "\n").encode("utf-8"))
        for p in model.params.values():
            fh.write(np.ascontiguousarray(p.data, dtype="<f4"))


@dataclass
class LoadedCheckpoint:
    config: ModelConfig
    vocab: Vocabulary
    action_set: ActionSet
    lexicon: Lexicon
    n_context: int
    arrays: OrderedDict
    extra: dict = field(default_factory=dict)


def _header_int(text, what):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise CheckpointError("checkpoint %s is not a non-negative integer: %r" % (what, text))
    return value


def load_checkpoint(path):
    """Parse a checkpoint file; any malformed content raises CheckpointError.

    The file is read once, and each array is one aligned, writable copy of
    its bytes, C-contiguous in every format.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    marker = b"end_header\n"
    split = blob.find(marker)
    if split < 0:
        raise CheckpointError("missing end_header marker")
    try:
        header = blob[:split].decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise CheckpointError("checkpoint header is not UTF-8: %s" % exc) from None
    magic = header[0].split(" ")
    if magic[0] != _CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file")
    if len(magic) != 2:
        raise CheckpointError("checkpoint magic line lacks a format version")
    version = _header_int(magic[1], "format version")
    if not 1 <= version <= CHECKPOINT_FORMAT:
        raise CheckpointError("unsupported checkpoint format %d" % version)

    scalars = {}
    vocab_tokens = None
    actions = []
    lexicon_lines = []
    param_specs = []
    extra = {}
    for line in header[1:]:
        if not line:
            continue
        key, _, value = line.partition(" = ")
        if key == "vocab":
            vocab_tokens = value.split(" ")
        elif key == "action":
            actions.append(value)
        elif key == "lexicon":
            lexicon_lines.append(value)
        elif key == "param":
            name, _, dims = value.rpartition(" ")
            shape = tuple(_header_int(d, "dimension of %s" % name)
                          for d in dims.split(",")) if dims else ()
            param_specs.append((name, shape))
        elif key.startswith("extra."):
            extra[key[len("extra."):]] = value
        else:
            scalars[key] = value

    required = _HEADER_SCALARS + (("lexicon_hash",) if version >= 2 else ())
    missing = [key for key in required if key not in scalars]
    if vocab_tokens is None:
        missing.insert(0, "vocab")
    if missing:
        raise CheckpointError("checkpoint header lacks %s" % ", ".join(missing))
    vocab = Vocabulary(vocab_tokens)
    if tuple(vocab.itos) != tuple(vocab_tokens):
        raise CheckpointError("checkpoint vocabulary is not in canonical order")
    for key, count in (("vocab_size", len(vocab_tokens)), ("n_actions", len(actions))):
        if _header_int(scalars[key], key) != count:
            raise CheckpointError("%s = %s, but the header lists %d" % (key, scalars[key], count))
    fallback_id = _header_int(scalars["fallback_action_id"], "fallback_action_id")
    if fallback_id >= len(actions):
        raise CheckpointError("fallback_action_id %d is outside the %d actions"
                              % (fallback_id, len(actions)))
    action_set = ActionSet(templates=tuple(actions), fallback_action_id=fallback_id)
    try:
        lexicon = Lexicon.from_lines(lexicon_lines)
    except ValueError as exc:
        raise CheckpointError("bad checkpoint lexicon: %s" % exc) from None
    if vocab.sha256() != scalars["vocab_hash"] or action_set.sha256() != scalars["action_hash"]:
        raise CheckpointError("stored hashes do not match checkpoint contents")
    n_context = _header_int(scalars["n_context"], "n_context")
    if n_context != len(lexicon.slot_types) + 1:
        raise CheckpointError("n_context %d does not fit the lexicon's %d slot types (expected %d)"
                              % (n_context, len(lexicon.slot_types), len(lexicon.slot_types) + 1))
    if version >= 2 and lexicon.sha256() != scalars["lexicon_hash"]:
        raise CheckpointError("stored lexicon hash does not match the checkpoint's lexicon")

    sizes = {key: _header_int(scalars[key], key)
             for key in ("embedding_size", "dialog_hidden_size", "predictor_hidden_size")}
    latent = scalars["latent_size"]
    latent = None if latent == "none" else _header_int(latent, "latent_size")
    try:
        config = ModelConfig(variant=scalars["variant"], latent_size=latent, **sizes)
    except ValueError as exc:
        raise CheckpointError("bad checkpoint model configuration: %s" % exc) from None

    # one copy per array: frombuffer views of blob are read-only and may be
    # misaligned, and formats 1 and 2 load transposed into C order
    arrays = OrderedDict()
    offset = split + len(marker)
    for name, shape in param_specs:
        count = math.prod(shape)
        if 4 * count > len(blob) - offset:
            raise CheckpointError("truncated parameter data for %s" % name)
        try:
            array = np.frombuffer(blob, "<f4", count, offset).reshape(shape)
        except ValueError as exc:
            raise CheckpointError("bad shape for parameter %s: %s" % (name, exc)) from None
        offset += 4 * count
        arrays[name] = (array.T if version < 3 and array.ndim == 2 and name != "embedding"
                        else array).copy()
    if offset != len(blob):
        raise CheckpointError("trailing bytes after parameter data")

    return LoadedCheckpoint(
        config=config,
        vocab=vocab,
        action_set=action_set,
        lexicon=lexicon,
        n_context=n_context,
        arrays=arrays,
        extra=extra,
    )


def model_from_checkpoint(loaded):
    """Rebuild a float32 model from a loaded checkpoint (exact parameter values).

    The model's parameters are ``loaded.arrays`` themselves, not copies (see
    ``Model``), so the weights are held once.
    """
    return Model(loaded.config, loaded.vocab, loaded.action_set, loaded.n_context,
                 arrays=loaded.arrays)


def check_compatible(model, vocab, action_set):
    """Raise unless features built from (vocab, action_set) fit this model."""
    if vocab.sha256() != model.vocab_hash:
        raise HashMismatchError("vocabulary hash does not match the checkpoint")
    if action_set.sha256() != model.action_hash:
        raise HashMismatchError("action-set hash does not match the checkpoint")
