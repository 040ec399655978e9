"""The HCN model family: shared dialog-level encoder, three turn encoders.

All variants share a dialog-level LSTM over the turn encoding concatenated
with bag-of-words turn features, context features, the previous system
action and the (all-ones) action mask, followed by a one-hidden-layer
predictor over actions.  They differ on the turn level:

* HCN   - mean of frozen word embeddings
* HHCN  - final state of a turn-level LSTM over trainable embeddings
* VHCN  - variational encoder on top of the turn LSTM; the turn encoding
          is the latent sample (train) or the posterior mean (infer), and
          the objective adds a bag-of-words reconstruction and a
          closed-form KL term

The dialog-level input projection is stored in blocks (one weight matrix
per feature group), which is arithmetically identical to a single affine
map over the concatenated input but lets the vocabulary-sized
bag-of-words block be applied sparsely.
"""

from __future__ import annotations

import io
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .corpus import ActionSet, Lexicon, Vocabulary
from .seeding import stream

VARIANTS = ("HCN", "HHCN", "VHCN")

CHECKPOINT_FORMAT = 1
_CHECKPOINT_MAGIC = "robusthcn-checkpoint"

DEFAULT_EMBEDDING_SIZE = {"HCN": 64, "HHCN": 128, "VHCN": 128}
DEFAULT_LATENT_SIZE = 8


# header scalars load_checkpoint reads
_HEADER_SCALARS = ("variant", "n_context", "embedding_size", "latent_size",
                   "dialog_hidden_size", "predictor_hidden_size", "fallback_action_id",
                   "vocab_hash", "action_hash")


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
    z: nn.Tensor


class Model:
    """One trained or trainable instance of a model variant."""

    def __init__(self, config, vocab, action_set, n_context, rng=None, dtype=np.float32,
                 embedding_table=None):
        self.config = config
        self.vocab = vocab
        self.action_set = action_set
        self.n_context = int(n_context)
        self.dtype = np.dtype(dtype)
        self.vocab_hash = vocab.sha256()
        self.action_hash = action_set.sha256()
        if rng is None:
            rng = stream(0, "model-init")
        self._build(rng, embedding_table)

    def _build(self, rng, embedding_table):
        cfg = self.config
        v_size = len(self.vocab)
        a_size = self.action_set.size
        dtype = self.dtype
        self.params = OrderedDict()

        if cfg.variant == "HCN":
            if embedding_table is not None:
                if embedding_table.vectors.shape != (v_size, cfg.embedding_size):
                    raise ValueError("embedding table shape mismatch")
                vectors = embedding_table.vectors.astype(dtype)
            else:
                vectors = rng.normal(0.0, 0.1, (v_size, cfg.embedding_size)).astype(dtype)
            self.embedding = nn.Parameter(vectors, "embedding", trainable=False)
        else:
            vectors = rng.normal(0.0, 0.1, (v_size, cfg.embedding_size)).astype(dtype)
            self.embedding = nn.Parameter(vectors, "embedding", trainable=True)
        self._register(self.embedding)

        if cfg.variant in ("HHCN", "VHCN"):
            self.turn_cell = nn.LSTMCell(rng, cfg.embedding_size, cfg.embedding_size,
                                         dtype=dtype, name="turn_lstm")
            for p in self.turn_cell.parameters():
                self._register(p)
        if cfg.variant == "VHCN":
            self.mu_head = nn.Linear(rng, cfg.embedding_size, cfg.latent_size, dtype, "mu_head")
            self.logvar_head = nn.Linear(rng, cfg.embedding_size, cfg.latent_size, dtype, "logvar_head")
            self.bow_head = nn.Linear(rng, cfg.latent_size, v_size, dtype, "bow_head")
            for layer in (self.mu_head, self.logvar_head, self.bow_head):
                for p in layer.parameters():
                    self._register(p)

        hidden = cfg.dialog_hidden_size
        turn_dim = cfg.turn_vector_size
        fan_in = turn_dim + v_size + self.n_context + 2 * a_size
        fan_out = hidden

        def block(name, cols):
            p = nn.Parameter(
                nn.glorot_uniform(rng, (4 * hidden, cols), dtype, fan_in=fan_in, fan_out=fan_out),
                name,
            )
            self._register(p)
            return p

        self.dlg_w_turn = block("dialog_lstm.w_turn", turn_dim)
        self.dlg_w_bow = block("dialog_lstm.w_bow", v_size)
        self.dlg_w_ctx = block("dialog_lstm.w_ctx", self.n_context)
        self.dlg_w_prev = block("dialog_lstm.w_prev", a_size)
        self.dlg_w_mask = block("dialog_lstm.w_mask", a_size)
        u, b = nn.lstm_recurrent_init(rng, hidden, dtype)
        self.dlg_u = nn.Parameter(u, "dialog_lstm.w_recurrent")
        self.dlg_b = nn.Parameter(b, "dialog_lstm.bias")
        self._register(self.dlg_u)
        self._register(self.dlg_b)

        self.pred_hidden = nn.Linear(rng, hidden, cfg.predictor_hidden_size, dtype, "predictor.hidden")
        self.pred_out = nn.Linear(rng, cfg.predictor_hidden_size, a_size, dtype, "predictor.out")
        for layer in (self.pred_hidden, self.pred_out):
            for p in layer.parameters():
                self._register(p)

    def _register(self, param):
        if param.name in self.params:
            raise ValueError("duplicate parameter name %r" % param.name)
        self.params[param.name] = param

    def parameters(self):
        return list(self.params.values())

    def initial_state(self):
        """The dialog LSTM's [h; c] at dialog start."""
        return nn.as_tensor(np.zeros(2 * self.config.dialog_hidden_size, dtype=self.dtype))

    def encode_turn(self, features, rng=None):
        """Turn vector for one turn; VHCN also returns the posterior encoding.

        VHCN samples the latent from ``rng`` when one is given (training)
        and uses the posterior mean otherwise (inference).
        """
        cfg = self.config
        if cfg.variant == "HCN":
            return nn.embed_mean(self.embedding, features.f_turn), None
        cell, hidden = self.turn_cell, cfg.embedding_size
        zx = nn.matvec(cell.w_input, nn.gather_rows(self.embedding, features.f_turn))
        start = np.zeros(2 * hidden, dtype=self.dtype)
        h = nn.slice1d(nn.lstm(zx, start, cell.w_recurrent, cell.bias), 0, hidden)
        if cfg.variant == "HHCN":
            return h, None
        mu = self.mu_head(h)
        logvar = self.logvar_head(h)
        sigma = nn.exp(nn.mul(0.5, logvar))
        if rng is not None:
            noise = np.asarray(rng.standard_normal(cfg.latent_size), dtype=self.dtype)
            z = nn.reparameterize(mu, sigma, noise)
        else:
            z = mu
        return z, VaeEncoding(mu=mu, sigma=sigma, z=z)

    def dialog_step(self, state, turn_vector, features):
        """One dialog-level step; returns (new state, action logits)."""
        ctx = nn.as_tensor(features.f_ctx.vector(self.dtype))
        mask = np.asarray(features.f_mask, dtype=self.dtype)
        prev_idx = np.nonzero(features.prev_action)[0]
        z_x = nn.add(
            nn.add(
                nn.matvec(self.dlg_w_turn, turn_vector),
                nn.gather_cols_sum(self.dlg_w_bow, features.bow_indices),
            ),
            nn.add(
                nn.matvec(self.dlg_w_ctx, ctx),
                nn.add(
                    nn.gather_cols_sum(self.dlg_w_prev, prev_idx),
                    nn.matvec(self.dlg_w_mask, nn.as_tensor(mask)),
                ),
            ),
        )
        state = nn.lstm(z_x, state, self.dlg_u, self.dlg_b)
        h = nn.slice1d(state, 0, self.config.dialog_hidden_size)
        logits = self.pred_out(nn.relu(self.pred_hidden(h)))
        return state, logits

    def bow_logits(self, encoding):
        return self.bow_head(encoding.z)


def loss_vhcn(logits, target, encoding, bow_logits, x_bow):
    """Joint objective: action CE + bag-of-words CE + closed-form KL.

    All three terms are the minimized (positive) forms; the same latent
    sample feeds the action path and the reconstruction.  Returns the
    total and a per-term breakdown.
    """
    ce = nn.softmax_ce(logits, target)
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
    state = model.initial_state()
    total = None
    sums = {"action_ce": 0.0, "bow_ce": 0.0, "kl": 0.0}
    for features in featurized_dialog:
        turn_vec, encoding = model.encode_turn(features, rng)
        state, logits = model.dialog_step(state, turn_vec, features)
        if model.config.variant == "VHCN":
            bow = model.bow_logits(encoding)
            x_bow = features.bow_vector(len(model.vocab), model.dtype)
            term, breakdown = loss_vhcn(logits, features.target, encoding, bow, x_bow)
            for key, val in breakdown.items():
                sums[key] += val
        else:
            term = nn.softmax_ce(logits, features.target)
            sums["action_ce"] += float(term.data)
        total = term if total is None else nn.add(total, term)
    n = len(featurized_dialog)
    mean = nn.mul(total, 1.0 / n)
    breakdown = {key: val / n for key, val in sums.items()}
    breakdown["loss"] = float(mean.data)
    return mean, breakdown


def predict_dialog(model, featurized_dialog):
    """Greedy argmax actions for one dialog, state threaded across turns.

    Inference is deterministic for every variant (VHCN uses the posterior
    mean); argmax ties resolve to the lowest action id.
    """
    actions = []
    with nn.no_grad():
        state = model.initial_state()
        for features in featurized_dialog:
            turn_vec, _ = model.encode_turn(features)
            state, logits = model.dialog_step(state, turn_vec, features)
            actions.append(int(np.argmax(logits.data)))
    return actions


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
    extra = dict(extra or {})
    with open(path, "wb") as fh:
        fh.write(("\n".join(_header_lines(model, lexicon, extra)) + "\n").encode("utf-8"))
        for p in model.params.values():
            fh.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


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
    """Parse a checkpoint file; any malformed content raises CheckpointError."""
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
    payload = blob[split + len(marker):]
    magic = header[0].split(" ")
    if magic[0] != _CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file")
    if len(magic) != 2:
        raise CheckpointError("checkpoint magic line lacks a format version")
    version = _header_int(magic[1], "format version")
    if version != CHECKPOINT_FORMAT:
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

    missing = [key for key in _HEADER_SCALARS if key not in scalars]
    if vocab_tokens is None:
        missing.insert(0, "vocab")
    if missing:
        raise CheckpointError("checkpoint header lacks %s" % ", ".join(missing))
    vocab = Vocabulary(vocab_tokens)
    if tuple(vocab.itos) != tuple(vocab_tokens):
        raise CheckpointError("checkpoint vocabulary is not in canonical order")
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

    sizes = {key: _header_int(scalars[key], key)
             for key in ("embedding_size", "dialog_hidden_size", "predictor_hidden_size")}
    latent = scalars["latent_size"]
    latent = None if latent == "none" else _header_int(latent, "latent_size")
    try:
        config = ModelConfig(variant=scalars["variant"], latent_size=latent, **sizes)
    except ValueError as exc:
        raise CheckpointError("bad checkpoint model configuration: %s" % exc) from None

    arrays = OrderedDict()
    reader = io.BytesIO(payload)
    for name, shape in param_specs:
        count = int(np.prod(shape)) if shape else 1
        raw = reader.read(4 * count)
        if len(raw) != 4 * count:
            raise CheckpointError("truncated parameter data for %s" % name)
        arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if reader.read(1):
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


def model_from_checkpoint(loaded, dtype=np.float32):
    """Rebuild a model from a loaded checkpoint (exact parameter values)."""
    model = Model(
        loaded.config,
        loaded.vocab,
        loaded.action_set,
        n_context=loaded.n_context,
        rng=stream(0, "checkpoint-restore"),
        dtype=dtype,
    )
    if list(model.params) != list(loaded.arrays):
        raise CheckpointError("parameter inventory does not match this model variant")
    for name, p in model.params.items():
        arr = loaded.arrays[name]
        if arr.shape != p.data.shape:
            raise CheckpointError("shape mismatch for parameter %s" % name)
        p.data = arr.astype(dtype)
    return model


def check_compatible(model, vocab, action_set):
    """Raise unless features built from (vocab, action_set) fit this model."""
    if vocab.sha256() != model.vocab_hash:
        raise HashMismatchError("vocabulary hash does not match the checkpoint")
    if action_set.sha256() != model.action_hash:
        raise HashMismatchError("action-set hash does not match the checkpoint")
