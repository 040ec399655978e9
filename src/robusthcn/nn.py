"""Minimal reverse-mode autodiff core for the dialog models.

This is not a general autodiff system: it supports exactly the shapes the
models need (vector activations, per-token row matrices, 2-D weights,
scalar losses) and a fixed op set.  An LSTM over a whole sequence is one
node (:func:`lstm`) with a hand-written backward pass.  Graphs are built
eagerly; ``backward`` on a scalar loss accumulates gradients into every
reachable trainable :class:`Parameter`.

Training runs in float32; build the same graphs from float64 leaves to
make :func:`grad_check` meaningful.
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

    def backward(self):
        backward(self)


class Parameter(Tensor):
    """Weight tensor; frozen parameters receive no gradient and no updates."""

    __slots__ = ("name", "trainable")

    def __init__(self, data, name="", trainable=True):
        super().__init__(np.asarray(data), requires_grad=trainable)
        self.name = name
        self.trainable = trainable


def as_tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


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


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward_fn(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward_fn)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward_fn(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward_fn)


def matvec(m, v):
    """m @ v for a vector v; for a matrix v, m applied to each of its rows."""
    m, v = as_tensor(m), as_tensor(v)
    if m.data.ndim != 2 or v.data.ndim not in (1, 2) or m.data.shape[1] != v.data.shape[-1]:
        raise DimensionError("matvec shapes %s @ %s" % (m.data.shape, v.data.shape))
    rows = v.data.ndim == 2
    out_data = v.data @ m.data.T if rows else m.data @ v.data

    def backward_fn(g):
        if m.requires_grad:
            _accum(m, g.T @ v.data if rows else np.outer(g, v.data))
        if v.requires_grad:
            _accum(v, g @ m.data if rows else m.data.T @ g)

    return _node(out_data, (m, v), backward_fn)


def gather_rows(table, indices):
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)

    def backward_fn(g):
        if table.requires_grad:
            np.add.at(_ensure_grad(table), idx, g)

    return _node(table.data[idx], (table,), backward_fn)


def gather_cols_sum(m, indices):
    """Sum of selected matrix columns: m @ x for a binary x given by indices.

    Duplicate indices accumulate, so this is exactly the dense product
    with a count vector.  An empty index list yields zeros.
    """
    m = as_tensor(m)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size:
        out_data = m.data[:, idx].sum(axis=1)
    else:
        out_data = np.zeros(m.data.shape[0], dtype=m.data.dtype)

    def backward_fn(g):
        if m.requires_grad and idx.size:
            np.add.at(_ensure_grad(m), (slice(None), idx), g[:, None])

    return _node(out_data, (m,), backward_fn)


def mean_rows(x):
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("mean_rows expects a 2-D input")
    n = x.data.shape[0]

    def backward_fn(g):
        if x.requires_grad:
            _ensure_grad(x)
            x.grad += g[None, :] / n

    return _node(x.data.mean(axis=0), (x,), backward_fn)


def slice1d(x, a, b):
    x = as_tensor(x)

    def backward_fn(g):
        if x.requires_grad:
            _ensure_grad(x)[a:b] += g

    return _node(x.data[a:b], (x,), backward_fn)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def embed_mean(table, token_ids):
    """Mean of the embedding rows for a non-empty token-id sequence."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("cannot embed an empty token sequence")
    return mean_rows(gather_rows(table, ids))


def lstm(zx, state, w_recurrent, bias):
    """An LSTM run over precomputed input projections, as one graph node.

    ``zx`` holds W x_t for every step, shape (T, 4H), or (4H,) for a
    single step; ``state`` is the initial [h; c] of shape (2H,).  Returns
    the final [h; c].  Gate order along the 4H axis: input, forget,
    candidate, output.  The backward pass is hand-written BPTT; the
    recurrent weight gradient is one product dZ^T H_prev over all steps.
    """
    zx, state = as_tensor(zx), as_tensor(state)
    w_recurrent, bias = as_tensor(w_recurrent), as_tensor(bias)
    hidden = w_recurrent.data.shape[1]
    if (
        zx.data.ndim not in (1, 2)
        or zx.data.shape[-1] != 4 * hidden
        or w_recurrent.data.shape != (4 * hidden, hidden)
        or bias.data.shape != (4 * hidden,)
        or state.data.shape != (2 * hidden,)
    ):
        raise DimensionError("inconsistent LSTM shapes")
    zs = zx.data.reshape(-1, 4 * hidden)
    u, b = w_recurrent.data, bias.data
    steps = zs.shape[0]
    dtype = np.result_type(zs, state.data, u, b)
    hs = np.empty((steps + 1, hidden), dtype=dtype)
    cs = np.empty((steps + 1, hidden), dtype=dtype)
    gates = np.empty((steps, 4 * hidden), dtype=dtype)
    hs[0], cs[0] = state.data[:hidden], state.data[hidden:]
    cand = slice(2 * hidden, 3 * hidden)
    for t in range(steps):
        z = zs[t] + u @ hs[t] + b
        gates[t] = _sigmoid(z)
        gates[t, cand] = np.tanh(z[cand])
        i, f, g, o = gates[t].reshape(4, hidden)
        cs[t + 1] = f * cs[t] + i * g
        hs[t + 1] = o * np.tanh(cs[t + 1])

    # Each product below multiplies in the order the old per-gate graph
    # did, so a one-step LSTM reproduces its float32 gradients bit for bit.
    def backward_fn(grad):
        dh, dc = grad[:hidden], grad[hidden:]
        dz = np.empty_like(gates)
        for t in range(steps - 1, -1, -1):
            i, f, g, o = gates[t].reshape(4, hidden)
            tc = np.tanh(cs[t + 1])
            dc = dh * o * (1.0 - tc * tc) + dc
            di, df, dg, do = dz[t].reshape(4, hidden)
            di[:] = dc * g * i * (1.0 - i)
            df[:] = dc * cs[t] * f * (1.0 - f)
            dg[:] = dc * i * (1.0 - g * g)
            do[:] = dh * tc * o * (1.0 - o)
            dh = u.T @ dz[t]
            dc = dc * f
        _accum(zx, dz.reshape(zx.data.shape))
        _accum(state, np.concatenate([dh, dc]))
        if w_recurrent.requires_grad:
            # np.dot, not matmul: matmul's (4H,1)x(1,H) path is ~6x slower
            _accum(w_recurrent, np.dot(dz.T, hs[:-1]))
        _accum(bias, dz.sum(axis=0))

    return _node(np.concatenate([hs[-1], cs[-1]]), (zx, state, w_recurrent, bias), backward_fn)


def softmax_ce(logits, target_id):
    """Categorical cross-entropy: -log softmax(logits)[target].

    Stable under logits of magnitude 1e4 via max subtraction.
    """
    logits = as_tensor(logits)
    target_id = int(target_id)
    z = logits.data
    m = z.max()
    ez = np.exp(z - m)
    total = ez.sum()
    loss = np.log(total) + m - z[target_id]
    p = ez / total

    def backward_fn(g):
        if logits.requires_grad:
            gl = p * g
            gl[target_id] -= g
            _accum(logits, gl)

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
    loss = np.sum(np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x))))

    def backward_fn(g):
        if logits.requires_grad:
            _accum(logits, g * (_sigmoid(x) - t))

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
    fan_in = shape[1] if fan_in is None else fan_in
    fan_out = shape[0] if fan_out is None else fan_out
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape).astype(dtype)


def orthogonal(rng, n, dtype):
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    return q.astype(dtype)


class Linear:
    """Affine map W x + b with Glorot-uniform weights and zero bias."""

    def __init__(self, rng, in_size, out_size, dtype=np.float32, name="linear"):
        self.weight = Parameter(glorot_uniform(rng, (out_size, in_size), dtype), name + ".weight")
        self.bias = Parameter(np.zeros(out_size, dtype=dtype), name + ".bias")

    def __call__(self, x):
        return add(matvec(self.weight, x), self.bias)

    def parameters(self):
        return [self.weight, self.bias]


def lstm_recurrent_init(rng, hidden_size, dtype):
    """Orthogonal recurrent blocks and a zero bias with forget gate 1."""
    u = np.concatenate([orthogonal(rng, hidden_size, dtype) for _ in range(4)], axis=0)
    b = np.zeros(4 * hidden_size, dtype=dtype)
    b[hidden_size : 2 * hidden_size] = 1.0
    return u, b


class LSTMCell:
    """Weights of an LSTM over input vectors; run it with :func:`lstm`."""

    def __init__(self, rng, input_size, hidden_size, dtype=np.float32, name="lstm"):
        w = glorot_uniform(rng, (4 * hidden_size, input_size), dtype, fan_in=input_size, fan_out=hidden_size)
        u, b = lstm_recurrent_init(rng, hidden_size, dtype)
        self.w_input = Parameter(w, name + ".w_input")
        self.w_recurrent = Parameter(u, name + ".w_recurrent")
        self.bias = Parameter(b, name + ".bias")

    def parameters(self):
        return [self.w_input, self.w_recurrent, self.bias]


class Adam:
    """Adam with bias correction; frozen parameters are never touched."""

    def __init__(self, params, learning_rate=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        zero_grads(self.params)

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for p, m, v in zip(self.params, self.first_moment, self.second_moment):
            if not p.trainable or p.grad is None:
                continue
            g = p.grad
            if g.shape != p.data.shape:
                raise DimensionError("gradient/parameter shape mismatch for %s" % p.name)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
            p.data -= self.learning_rate * update


def global_grad_norm(params):
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def clip_global_norm(params, max_norm=5.0):
    """Scale all gradients so their global norm is at most max_norm.

    A non-finite norm is returned with the gradients left as they are.
    """
    norm = global_grad_norm(params)
    if norm > max_norm and 0 < norm < np.inf:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
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
