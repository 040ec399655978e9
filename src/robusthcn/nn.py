"""Minimal reverse-mode autodiff core for the dialog models.

This is not a general autodiff system: it supports exactly the shapes the
models need (vector activations, per-token and per-turn row matrices, 2-D
weights stored (in, out) so that every forward product is ``rows @ W``,
scalar losses) and a fixed op set.  One LSTM op (:func:`lstm`)
serves every recurrence with a graph: it runs a batch of variable-length
sequences, packed row after row, as one graph node with one time loop,
returns every row's hidden state and has a hand-written backward pass.
Without a graph, :func:`lstm_trie` walks the prefix trie of token
sequences instead, one step per level; packed sequences are a trie with
no shared nodes (:func:`pack_sequences`).  Both run one level loop,
:func:`_lstm_levels`, which writes every step into preallocated buffers
and gathers each step's input rows from one or more tables.
Graphs are built eagerly; ``backward`` on a scalar loss accumulates
gradients into every reachable trainable :class:`Parameter`.  Values no
gradient can reach, such as HCN's frozen turn means, are computed in plain
numpy and enter as constant tensors.  :func:`vsum` is the one scalar
reduction; the models never call it, but finite-difference checks reduce
their outputs with it.

Training runs in float32; build the same graphs from float64 leaves to
make :func:`grad_check` meaningful.  A graph keeps its leaves' dtype: in
:func:`add` and :func:`mul` a Python int or float takes the other
operand's dtype, as numpy does for a Python scalar, and :func:`matvec`,
:func:`lstm` and :func:`lstm_trie` raise :class:`DimensionError` on
float operands of two dtypes.
"""

from __future__ import annotations

import contextlib

import numpy as np


class DimensionError(ValueError):
    pass


class NonFiniteError(FloatingPointError):
    pass


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Skip graph construction inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled():
    """Whether ops record a graph: False inside :func:`no_grad`."""
    return _grad_enabled


class Tensor:
    """A numpy array plus the backward plumbing that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape, self.requires_grad)


class Parameter(Tensor):
    """Weight tensor; frozen parameters receive no gradient and no updates."""

    __slots__ = ("name", "trainable")

    def __init__(self, data, name="", trainable=True):
        super().__init__(np.asarray(data), requires_grad=trainable)
        self.name = name
        self.trainable = trainable


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward_fn):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _ensure_grad(t):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _accum(t, g):
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise DimensionError("gradient shape %s != value shape %s" % (g.shape, t.data.shape))
    _ensure_grad(t)
    t.grad += g


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _operands(a, b):
    """Both operands as tensors; a Python int or float takes the other's dtype.

    That is numpy's own rule for a Python scalar (NEP 50): ``x * 0.5`` keeps
    a float32 ``x`` float32.  A 0-d array made from 0.5 would be float64 and
    promote the whole expression.
    """
    number = (int, float)
    if type(a) in number and type(b) not in number:
        b = as_tensor(b)
        a = np.asarray(a, dtype=np.result_type(b.data, a))
    elif type(b) in number and type(a) not in number:
        a = as_tensor(a)
        b = np.asarray(b, dtype=np.result_type(a.data, b))
    return as_tensor(a), as_tensor(b)


def _float_dtype(*arrays):
    """The arrays' result dtype; ``DimensionError`` when two float operands' dtypes differ."""
    floats = {x.dtype for x in arrays if x.dtype.kind == "f"}
    if len(floats) > 1:
        raise DimensionError("mixed float dtypes: %s" % ", ".join(sorted(map(str, floats))))
    return np.result_type(*arrays)


def add(a, b):
    a, b = _operands(a, b)
    out_data = a.data + b.data

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward_fn)


def mul(a, b):
    a, b = _operands(a, b)
    out_data = a.data * b.data

    def backward_fn(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward_fn)


def matvec(m, v):
    """v @ m for an (in, out) weight m and a vector or rows v."""
    m, v = as_tensor(m), as_tensor(v)
    if m.data.ndim != 2 or v.data.ndim not in (1, 2) or m.data.shape[0] != v.data.shape[-1]:
        raise DimensionError("matvec shapes %s @ %s" % (v.data.shape, m.data.shape))
    _float_dtype(v.data, m.data)

    def backward_fn(g):
        if m.requires_grad:
            _accum(m, np.atleast_2d(v.data).T @ np.atleast_2d(g))
        if v.requires_grad:
            _accum(v, g @ m.data.T)

    return _node(v.data @ m.data, (m, v), backward_fn)


def gather_rows(table, indices):
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)

    def backward_fn(g):
        if table.requires_grad:
            np.add.at(_ensure_grad(table), idx, g)

    return _node(table.data[idx], (table,), backward_fn)


def relu(x):
    x = as_tensor(x)

    def backward_fn(g):
        _accum(x, g * (x.data > 0))

    return _node(np.maximum(x.data, 0), (x,), backward_fn)


def exp(x):
    x = as_tensor(x)
    e = np.exp(x.data)

    def backward_fn(g):
        _accum(x, g * e)

    return _node(e, (x,), backward_fn)


def vsum(x):
    x = as_tensor(x)

    def backward_fn(g):
        if x.requires_grad:
            _ensure_grad(x)
            x.grad += g

    return _node(x.data.sum(), (x,), backward_fn)


def _lstm_levels(inputs, u, b, levels, hs, cs, gates=None, tanh_c=None):
    """The LSTM recurrence, one level at a time, written into preallocated buffers.

    Level l runs its k_l rows at once, from the states at rows ``prev`` of
    ``hs`` and ``cs``: ``prev:prev + k_l`` when ``prev`` is an int (the
    sequence layout of :func:`lstm`), the rows it lists when it is an
    index array (a trie level of :func:`lstm_trie`, gathered by parent).
    ``levels`` lists ``(k_l, prev)``.  Output row r reads its input x W from
    the ``(table, rows)`` pairs of ``inputs``: row ``rows[r]`` of each
    table, gathered one level at a time and summed in list order, so the
    rows of all outputs are never built at once.  ``hs`` and ``cs`` lead
    with zero rows, the state before any step, as many as they have rows
    beyond the output's, and receive output row r after them.  ``gates``
    and ``tanh_c``, when given, keep each output row's gates and tanh(c)
    for a backward pass.

    A step is ``z = (x + h_prev U) + b``, ``c = (f * c_prev) + (i * g)`` and
    ``h = o * tanh(c)``, with no temporary array per step.
    """
    hidden = u.shape[0]
    n0 = len(hs) - sum(k for k, _ in levels)
    width = max(k for k, _ in levels)
    dtype = hs.dtype
    z = np.empty((width, 4 * hidden), dtype=dtype) if gates is None else None
    x = np.empty((width, 4 * hidden), dtype=dtype)
    part = np.empty((width, 4 * hidden), dtype=dtype) if len(inputs) > 1 else None
    (first, first_rows), more = inputs[0], inputs[1:]
    t = np.empty((width, hidden), dtype=dtype) if tanh_c is None else None
    ig = np.empty((width, hidden), dtype=dtype)
    if any(not isinstance(prev, int) for _, prev in levels):
        h_gather = np.empty((width, hidden), dtype=dtype)
        c_gather = np.empty((width, hidden), dtype=dtype)
    # sigmoid(x) = tanh(x / 2) / 2 + 1 / 2, so one tanh gives all four
    # gates: tanh(z * scale) * scale + shift, with scale and shift 1/2 on
    # the input, forget and output blocks and 1 and 0 on the candidate.
    # tanh cannot overflow, and saturated gates come out exactly 0 or 1.
    scale = np.full(4 * hidden, 0.5, dtype=dtype)
    shift = np.full(4 * hidden, 0.5, dtype=dtype)
    scale[2 * hidden:3 * hidden], shift[2 * hidden:3 * hidden] = 1.0, 0.0
    r = 0
    for k, prev in levels:
        if isinstance(prev, int):
            h_prev, c_prev = hs[prev:prev + k], cs[prev:prev + k]
        else:
            h_prev = np.take(hs, prev, axis=0, out=h_gather[:k], mode="clip")
            c_prev = np.take(cs, prev, axis=0, out=c_gather[:k], mode="clip")
        gate = z[:k] if gates is None else gates[r:r + k]
        np.matmul(h_prev, u, out=gate)
        np.take(first, first_rows[r:r + k], axis=0, out=x[:k], mode="clip")
        for table, rows in more:
            x[:k] += np.take(table, rows[r:r + k], axis=0, out=part[:k], mode="clip")
        gate += x[:k]
        gate += b
        gate *= scale
        np.tanh(gate, out=gate)
        gate *= scale
        gate += shift
        i, f, g, o = gate.reshape(k, 4, hidden).transpose(1, 0, 2)
        c, h = cs[n0 + r:n0 + r + k], hs[n0 + r:n0 + r + k]
        tc = t[:k] if tanh_c is None else tanh_c[r:r + k]
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig[:k])
        c += ig[:k]
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
        r += k


def _check_lstm_shapes(zx, w_recurrent, bias):
    hidden = w_recurrent.shape[0]
    if (
        zx.ndim != 2
        or zx.shape[1] != 4 * hidden
        or w_recurrent.shape != (hidden, 4 * hidden)
        or bias.shape != (4 * hidden,)
    ):
        raise DimensionError("inconsistent LSTM shapes")
    return hidden


def pack_sequences(lengths, total):
    """The packed layout of sequences of ``lengths`` steps over ``total`` rows.

    That is the layout of Appleyard et al. (2016): the sequences sorted by
    length, longest first and stable, so the ones still running at step t
    are a prefix of that order and step t runs ``level_sizes[t]`` of them.
    It is returned as :func:`lstm_trie` reads a trie with no shared nodes,
    ``(rows, parents, level_sizes)``: packed position n, level by level,
    holds row ``rows[n]`` of the sequences' rows concatenated in order, and
    a position below step 0 continues the one at the same rank a step
    earlier, position ``parents[n - level_sizes[0]]``.  Raises
    ``DimensionError`` unless the lengths (each at least 1) sum to
    ``total``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != total:
        raise DimensionError("sequence lengths %s do not split %d rows" % (lengths.tolist(), total))
    order = np.argsort(-lengths, kind="stable")
    # level_sizes[t]: the sequences longer than t steps
    sizes = lengths.size - np.cumsum(np.bincount(lengths))[:-1]
    step = np.repeat(np.arange(sizes.size), sizes)
    rank = np.arange(total) - (np.cumsum(sizes) - sizes)[step]
    rows = (np.cumsum(lengths) - lengths)[order][rank] + step
    parents = np.arange(sizes[0], total) - np.repeat(sizes[:-1], sizes[1:])
    return rows, parents, sizes.tolist()


def lstm(zx, lengths, w_recurrent, bias):
    """An LSTM over packed variable-length sequences, as one graph node.

    ``zx`` holds x_t W for every step of every sequence, the sequences'
    rows concatenated in order, shape (N, 4H); ``lengths`` gives their
    step counts (each at least 1, summing to N).  Every sequence starts
    from a zero [h; c], and a step adds h_{t-1} U for the (H, 4H)
    ``w_recurrent`` U; the op returns every row's hidden state, shape
    (N, H), in input order.  Gate order along the 4H axis: input, forget,
    candidate, output.

    The sequences run in the packed layout of :func:`pack_sequences`, so
    one time loop of max(lengths) steps serves them all, each step one
    level of :func:`_lstm_levels`, which allocates nothing per step.  The
    backward pass is hand-written BPTT that takes a gradient on every row.
    It keeps tanh(c) from the forward pass and computes every
    gate-derivative factor that does not depend on the carried (dh, dc)
    once over all rows before its reverse loop; the recurrent weight
    gradient is one product H_prev^T dZ over all steps and rows.  Without a
    graph to record, no gate history is kept.
    """
    zx, w_recurrent, bias = as_tensor(zx), as_tensor(w_recurrent), as_tensor(bias)
    hidden = _check_lstm_shapes(zx.data, w_recurrent.data, bias.data)
    total = zx.data.shape[0]
    rows, parents, active = pack_sequences(lengths, total)

    # The history arrays hs and cs lead with n_seq zero rows, the state
    # before step 0, so packed position r is row n_seq + r, step 0 reads
    # the zero rows and step t reads the first active[t] rows of step t - 1.
    n_seq = active[0]
    offsets = np.cumsum([0] + active).tolist()
    u, b = w_recurrent.data, bias.data
    dtype = _float_dtype(zx.data, u, b)
    record = _grad_enabled and (zx.requires_grad or w_recurrent.requires_grad or bias.requires_grad)
    hs = np.zeros((n_seq + total, hidden), dtype=dtype)
    cs = np.zeros((n_seq + total, hidden), dtype=dtype)
    gates = np.empty((total, 4 * hidden), dtype=dtype) if record else None
    tanh_c = np.empty((total, hidden), dtype=dtype) if record else None
    levels = [(n_seq, 0)] + [(k, n_seq + lo) for k, lo in zip(active[1:], offsets)]
    _lstm_levels([(zx.data, rows)], u, b, levels, hs, cs, gates=gates, tanh_c=tanh_c)
    out = np.empty((total, hidden), dtype=dtype)
    out[rows] = hs[n_seq:]

    def backward_fn(grad):
        grad = grad[rows]
        # each row's previous state: a zero row at step 0, its parent after
        prev = np.concatenate((np.arange(n_seq), n_seq + parents))
        # dz = ((carry * first) * second) * third per gate block, with the
        # carry dc for the input, forget and candidate blocks and dh for the
        # output block: di = ((dc * g) * i) * (1 - i), df = ((dc * c_prev) *
        # f) * (1 - f), dg = ((dc * 1) * i) * (1 - g * g), do = ((dh * tanh c)
        # * o) * (1 - o); and dc gains (dh * o) * (1 - tanh^2 c)
        i, f, g, o = gates.reshape(total, 4, hidden).transpose(1, 0, 2)
        first = np.empty((total, 3, hidden), dtype=dtype)
        first[:, 0], first[:, 1], first[:, 2] = g, cs[prev], 1.0
        second = gates.copy()
        second[:, 2 * hidden:3 * hidden] = i
        third = 1.0 - gates
        third[:, 2 * hidden:3 * hidden] = 1.0 - g * g
        d_tanh = 1.0 - tanh_c * tanh_c
        # rows past step t's count stay zero: a sequence whose last step
        # is t joins with nothing carried back
        dh = np.zeros((n_seq, hidden), dtype=dtype)
        dc = np.zeros_like(dh)
        carry = np.empty_like(dh)
        dz = np.empty_like(gates)
        for t in range(len(active) - 1, -1, -1):
            k, r = active[t], offsets[t]
            dzr = dz[r:r + k].reshape(k, 4, hidden)
            dh[:k] += grad[r:r + k]
            np.multiply(dh[:k], o[r:r + k], out=carry[:k])
            carry[:k] *= d_tanh[r:r + k]
            dc[:k] += carry[:k]
            np.multiply(dc[:k, None], first[r:r + k], out=dzr[:, :3])
            np.multiply(dh[:k], tanh_c[r:r + k], out=dzr[:, 3])
            dz[r:r + k] *= second[r:r + k]
            dz[r:r + k] *= third[r:r + k]
            np.matmul(dz[r:r + k], u.T, out=dh[:k])
            dc[:k] *= f[r:r + k]
        if zx.requires_grad:
            dzx = np.empty_like(dz)
            dzx[rows] = dz
            _accum(zx, dzx)
        if w_recurrent.requires_grad:
            # np.dot, not matmul: matmul's (H,1)x(1,4H) path is ~6x slower
            _accum(w_recurrent, np.dot(hs[prev].T, dz))
        _accum(bias, dz.sum(axis=0))

    return _node(out, (zx, w_recurrent, bias), backward_fn)


def lstm_trie(inputs, parents, level_sizes, w_recurrent, bias):
    """The hidden states of an LSTM walked over a prefix trie, without a graph.

    Node n of the trie is one token prefix.  Its input x W (that of its
    last token) is the sum, in list order, of row ``rows[n]`` of each
    ``(zx, rows)`` pair of ``inputs``, so each distinct token's projection
    can be one row of a ``zx``, and rows that are sums of two tables'
    rows are gathered and added one level at a time.  The nodes are
    numbered level by level: level d holds ``level_sizes[d]`` nodes, the
    distinct prefixes of d + 1 tokens.  A level-0 node starts from a zero
    [h; c]; node n of a deeper level continues the state of node
    ``parents[n - level_sizes[0]]``.  One step of :func:`_lstm_levels` runs
    per level over all of its nodes, so each distinct prefix is computed
    once; the result is every node's hidden state, (N, H), a plain array.
    A node takes the steps of its row in :func:`lstm` over any sequence
    with this prefix, in the same order; only the row counts of the
    products differ, which BLAS may round differently in the last bits.
    Packed sequences (:func:`pack_sequences`) are a trie with no shared
    nodes.
    """
    u, b = as_tensor(w_recurrent).data, as_tensor(bias).data
    sizes = [int(k) for k in level_sizes]
    parents = np.asarray(parents, dtype=np.intp)
    n = sum(sizes)
    if not inputs or not sizes or min(sizes) < 1 or len(parents) != n - sizes[0]:
        raise DimensionError("level sizes %s and %d parents do not fit %d nodes"
                             % (sizes, len(parents), n))
    pairs = []
    for zx, rows in inputs:
        zs, rows = as_tensor(zx).data, np.asarray(rows, dtype=np.intp)
        hidden = _check_lstm_shapes(zs, u, b)
        if len(rows) != n:
            raise DimensionError("%d input rows for %d nodes" % (len(rows), n))
        if rows.min() < 0 or rows.max() >= len(zs):
            raise DimensionError("input rows outside the %d rows of zx" % len(zs))
        pairs.append((zs, rows))
    offsets = np.cumsum([0] + sizes)
    level = np.repeat(np.arange(1, len(sizes)), sizes[1:])
    if np.any((parents < offsets[level - 1]) | (parents >= offsets[level])):
        raise DimensionError("a parent is not on the level above its node")
    # hs and cs lead with level 0's count of zero rows; node n is row
    # sizes[0] + n, so level 0 reads rows 0:sizes[0] and a deeper node
    # reads its parent's row
    prev = np.split(parents + sizes[0], np.cumsum(sizes[1:-1]))
    levels = [(sizes[0], 0)] + list(zip(sizes[1:], prev))
    dtype = _float_dtype(*(zs for zs, _ in pairs), u, b)
    hs = np.empty((sizes[0] + n, hidden), dtype=dtype)
    cs = np.empty_like(hs)
    hs[:sizes[0]] = 0
    cs[:sizes[0]] = 0
    _lstm_levels(pairs, u, b, levels, hs, cs)
    return hs[sizes[0]:]


def softmax_ce(logits, targets):
    """Summed categorical cross-entropy: sum_t -log softmax(logits_t)[target_t].

    ``logits`` is one row (A,) with one target id, or (T, A) with T
    target ids.  Stable under logits of magnitude 1e4 via per-row max
    subtraction.
    """
    logits = as_tensor(logits)
    z = logits.data.reshape(-1, logits.data.shape[-1])
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.shape[0] != z.shape[0]:
        raise DimensionError("%d target ids for %d rows of logits" % (t.shape[0], z.shape[0]))
    rows = np.arange(t.shape[0])
    m = z.max(axis=1, keepdims=True)
    ez = np.exp(z - m)
    total = ez.sum(axis=1, keepdims=True)
    loss = np.sum(np.log(total[:, 0]) + m[:, 0] - z[rows, t])
    p = ez / total

    def backward_fn(g):
        if logits.requires_grad:
            gl = p * g
            gl[rows, t] -= g
            _accum(logits, gl.reshape(logits.data.shape))

    return _node(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward_fn)


def bow_sigmoid_ce(logits, targets):
    """Summed sigmoid cross-entropy of a binary bag-of-words vector."""
    logits = as_tensor(logits)
    t = np.asarray(targets.data if isinstance(targets, Tensor) else targets)
    if t.shape != logits.data.shape:
        raise DimensionError("target shape differs from logits")
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("bag-of-words target must be binary")
    x = logits.data
    # e^-|x| underflows to 0 for saturated logits, which log1p turns into
    # the correctly rounded 0
    with np.errstate(under="ignore"):
        loss = np.sum(np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x))))

    def backward_fn(g):
        if logits.requires_grad:
            # sigmoid(x) as in lstm: tanh(x / 2) / 2 + 1 / 2 cannot overflow
            _accum(logits, g * (np.tanh(0.5 * x) * 0.5 + 0.5 - t))

    return _node(np.asarray(loss, dtype=x.dtype), (logits,), backward_fn)


def gaussian_kl(mu, sigma):
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)).

    Equals sum_j -0.5 * (1 + log sigma_j^2 - mu_j^2 - sigma_j^2); zero
    exactly when mu = 0 and sigma = 1, positive otherwise.
    """
    mu, sigma = as_tensor(mu), as_tensor(sigma)
    if mu.data.shape != sigma.data.shape:
        raise DimensionError("mu and sigma shapes differ")
    if not np.all(sigma.data > 0):
        raise ValueError("sigma must be positive")
    s2 = sigma.data * sigma.data
    kl = -0.5 * np.sum(1.0 + np.log(s2) - mu.data * mu.data - s2)

    def backward_fn(g):
        _accum(mu, g * mu.data)
        _accum(sigma, g * (sigma.data - 1.0 / sigma.data))

    return _node(np.asarray(kl, dtype=mu.data.dtype), (mu, sigma), backward_fn)


def reparameterize(mu, sigma, noise):
    """mu + sigma * noise for a fixed standard-normal sample."""
    mu, sigma = as_tensor(mu), as_tensor(sigma)
    noise = as_tensor(np.asarray(noise, dtype=mu.data.dtype))
    if mu.data.shape != sigma.data.shape or mu.data.shape != noise.data.shape:
        raise DimensionError("reparameterize shapes differ")
    return add(mu, mul(sigma, noise))


def backward(loss):
    """Accumulate gradients of a scalar loss into all reachable parameters."""
    if loss.data.shape != ():
        raise DimensionError("backward expects a scalar loss")
    if not np.isfinite(loss.data):
        raise NonFiniteError("loss is not finite")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def zero_grads(params):
    for p in params:
        p.grad = None


def glorot_uniform(rng, shape, dtype, fan_in=None, fan_out=None):
    """An (in, out) weight: the transpose of an (out, in) uniform draw."""
    fan_in = shape[0] if fan_in is None else fan_in
    fan_out = shape[1] if fan_out is None else fan_out
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape[::-1]).T.astype(dtype, order="C")


def orthogonal(rng, n, dtype):
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return q.astype(dtype)


class Linear:
    """Affine map x W + b for an (in, out) weight W (x one vector or one row per input)."""

    def __init__(self, weight, bias):
        self.weight = weight
        self.bias = bias

    def __call__(self, x):
        return add(matvec(self.weight, x), self.bias)


def lstm_recurrent_init(rng, hidden_size, dtype):
    """Four orthogonal recurrent blocks, one per gate, side by side: (H, 4H)."""
    blocks = [orthogonal(rng, hidden_size, dtype) for _ in range(4)]
    return np.ascontiguousarray(np.concatenate(blocks).T)


def lstm_bias_init(hidden_size, dtype):
    """A zero LSTM bias except 1 on the forget gate."""
    b = np.zeros(4 * hidden_size, dtype=dtype)
    b[hidden_size : 2 * hidden_size] = 1.0
    return b


class Adam:
    """Adam with bias correction over one flat buffer of trainable weights.

    The constructor moves every trainable parameter into one array,
    ``values``, and rebinds its ``data`` to a view of it and its ``grad``
    to a view of one zeroed array, ``grads``, which ``backward`` then
    accumulates into.  Frozen parameters stay outside and are never
    touched.  Trainable parameters must share one dtype.  Don't rebind a
    trained parameter's ``data`` or ``grad`` (``zero_grads`` does): the
    optimizer would no longer see it.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-8
    # An update runs its twelve operations block by block, so the six
    # arrays of one block (768 KB in float32) stay in cache between them:
    # twelve passes over the whole buffer (386k weights for HHCN at default
    # sizes) made a step slower than a loop over the parameters.
    BLOCK = 32768

    def __init__(self, params, learning_rate=0.001):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        trainable = [p for p in self.params if p.trainable]
        dtypes = {p.data.dtype for p in trainable}
        if len(dtypes) > 1:
            raise ValueError("trainable parameters of mixed dtypes: %s"
                             % ", ".join(sorted(map(str, dtypes))))
        size = sum(p.data.size for p in trainable)
        dtype = dtypes.pop() if dtypes else None
        self.values = np.empty(size, dtype=dtype)
        self.grads = np.zeros(size, dtype=dtype)
        offset = 0
        for p in trainable:
            end = offset + p.data.size
            view = self.values[offset:end].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            p.grad = self.grads[offset:end].reshape(view.shape)
            offset = end
        self.first_moment = np.zeros_like(self.values)
        self.second_moment = np.zeros_like(self.values)
        block = min(size, self.BLOCK)
        self.scratch = (np.empty(block, dtype=dtype), np.empty(block, dtype=dtype))

    def zero_grad(self):
        self.grads.fill(0)

    def step(self):
        """One update of ``values`` from ``grads``, through the scratch pair.

        The operations and their order are those of the textbook form
        ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, so the result is
        the same bit for bit without its temporaries.  ``m / bc1`` is skipped
        once ``bc1`` rounds to 1 in the buffer's dtype (float32: step 165 on).
        """
        self.step_count += 1
        # cast once: numpy casts Python floats to the buffer's dtype on every call
        beta1, beta2, rest1, rest2, eps, lr, bc1, bc2 = map(self.values.dtype.type, (
            self.BETA1, self.BETA2, 1 - self.BETA1, 1 - self.BETA2, self.EPSILON,
            self.learning_rate, 1 - self.BETA1 ** self.step_count,
            1 - self.BETA2 ** self.step_count))
        for lo in range(0, self.values.size, self.BLOCK):
            hi = lo + self.BLOCK
            g, m, v = self.grads[lo:hi], self.first_moment[lo:hi], self.second_moment[lo:hi]
            a, s = (scratch[:g.size] for scratch in self.scratch)
            m *= beta1
            np.multiply(rest1, g, out=a)
            m += a
            v *= beta2
            np.multiply(g, g, out=a)
            np.multiply(rest2, a, out=a)
            v += a
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            np.add(s, eps, out=s)
            np.divide(m if bc1 == 1 else np.divide(m, bc1, out=a), s, out=a)
            np.multiply(lr, a, out=a)
            self.values[lo:hi] -= a


def clip_global_norm(grads, max_norm=5.0):
    """Scale a flat gradient array in place so its norm is at most max_norm.

    The norm is summed in float64, so large finite float32 gradients keep
    a finite norm.  A non-finite norm is returned with the gradients left
    as they are.
    """
    # One Adam block at a time through one float64 scratch block: squaring
    # a float64 copy of the whole buffer took twice as long.
    scratch = np.empty(min(grads.size, Adam.BLOCK), dtype=np.float64)
    total = 0.0
    for lo in range(0, grads.size, Adam.BLOCK):
        part = grads[lo:lo + Adam.BLOCK]
        block = scratch[:part.size]
        np.copyto(block, part)
        total += float(np.dot(block, block))
    norm = float(np.sqrt(total))
    if norm > max_norm and 0 < norm < np.inf:
        grads *= max_norm / norm
    return norm


def grad_check(fn, params, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``fn`` must rebuild the forward graph from the current parameter
    values on every call and return a scalar Tensor.  Relative error per
    coordinate is |a - n| / max(1e-8, |a| + |n|).
    """
    params = list(params)
    zero_grads(params)
    out = fn()
    if not np.isfinite(out.data):
        raise NonFiniteError("function value is not finite")
    backward(out)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    max_rel = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = float(fn().data)
            flat[j] = orig - step
            f_minus = float(fn().data)
            flat[j] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NonFiniteError("non-finite value during finite differences")
            numeric = (f_plus - f_minus) / (2.0 * step)
            rel = abs(a_flat[j] - numeric) / max(1e-8, abs(a_flat[j]) + abs(numeric))
            max_rel = max(max_rel, rel)
    zero_grads(params)
    return max_rel
