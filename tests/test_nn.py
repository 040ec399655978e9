import math

import numpy as np
import pytest

from robusthcn import nn
from robusthcn.seeding import stream


# ------------------------------------------------------------------- lstm

def _zero_weights(hidden, dtype=np.float64):
    return (nn.Parameter(np.zeros((hidden, 4 * hidden), dtype=dtype)),
            nn.Parameter(np.zeros(4 * hidden, dtype=dtype)))


def test_lstm_zero_everything():
    for steps in (1, 4):
        out = nn.lstm(np.zeros((steps, 12)), [steps], *_zero_weights(3))
        np.testing.assert_allclose(out.data, np.zeros((steps, 3)))


def test_lstm_zero_weights_halve_cell_state():
    # the first step writes 0.5 * tanh(v) into the cell; with zero input
    # afterwards every gate is 0.5, so the cell halves at each later step
    v = np.array([1.0, -2.0, 4.0])
    for steps in (1, 3):
        zx = np.zeros((steps, 12))
        zx[0, 6:9] = v
        out = nn.lstm(zx, [steps], *_zero_weights(3))
        for t in range(steps):
            c = 0.5 ** (t + 1) * np.tanh(v)
            np.testing.assert_allclose(out.data[t], 0.5 * np.tanh(c))


def _lstm_oracle(x, h_prev, c_prev, W, U, b, hidden):
    # independently coded step with explicit per-gate column slices of the
    # (in, 4H) input and (H, 4H) recurrent weights
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    wi, wf, wg, wo = (W[:, k * hidden:(k + 1) * hidden] for k in range(4))
    ui, uf, ug, uo = (U[:, k * hidden:(k + 1) * hidden] for k in range(4))
    bi, bf, bg, bo = (b[k * hidden:(k + 1) * hidden] for k in range(4))
    i = sig(x @ wi + h_prev @ ui + bi)
    f = sig(x @ wf + h_prev @ uf + bf)
    g = np.tanh(x @ wg + h_prev @ ug + bg)
    o = sig(x @ wo + h_prev @ uo + bo)
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def test_lstm_matches_independent_implementation():
    rng = stream(2, "lstm")
    hidden, inputs = 5, 4
    for steps in (1, 5):
        for _ in range(20):
            W = rng.normal(size=(inputs, 4 * hidden))
            U = rng.normal(size=(hidden, 4 * hidden))
            b = rng.normal(size=4 * hidden)
            xs = rng.normal(size=(steps, inputs))
            out = nn.lstm(nn.matvec(W, xs), [steps], U, b)
            assert out.data.shape == (steps, hidden)
            h, c = np.zeros(hidden), np.zeros(hidden)
            for t, x in enumerate(xs):
                h, c = _lstm_oracle(x, h, c, W, U, b, hidden)
                np.testing.assert_allclose(out.data[t], h, atol=1e-12)


def test_lstm_packed_sequences_match_separate_runs():
    # unequal lengths in no particular order, ties and a one-step sequence:
    # every row equals the same sequence run on its own
    rng = stream(3, "lstm-packed")
    hidden, inputs = 4, 3
    W = rng.normal(size=(inputs, 4 * hidden))
    U = rng.normal(size=(hidden, 4 * hidden))
    b = rng.normal(size=4 * hidden)
    for lengths in ([3, 1, 5, 3, 2], [1], [2, 2], [1, 4, 1]):
        xs = rng.normal(size=(sum(lengths), inputs))
        out = nn.lstm(nn.matvec(W, xs), lengths, U, b)
        assert out.data.shape == (sum(lengths), hidden)
        start = 0
        for n in lengths:
            h, c = np.zeros(hidden), np.zeros(hidden)
            for t in range(start, start + n):
                h, c = _lstm_oracle(xs[t], h, c, W, U, b, hidden)
                np.testing.assert_allclose(out.data[t], h, atol=1e-12)
            start += n


def test_lstm_without_graph_matches_recorded_run():
    rng = stream(4, "lstm-nograd")
    U = nn.Parameter(rng.normal(size=(3, 12)))
    b = nn.Parameter(rng.normal(size=12))
    zx = rng.normal(size=(7, 12))
    recorded = nn.lstm(zx, [2, 4, 1], U, b)
    with nn.no_grad():
        plain = nn.lstm(zx, [2, 4, 1], U, b)
    assert recorded.requires_grad and not plain.requires_grad
    np.testing.assert_array_equal(plain.data, recorded.data)


def _fast_path_lengths(n_seq):
    # 4, 11, 6, 1, 8, ...: every length from 1 to 12 in no order, then
    # every third tied with the first
    lengths = 1 + (7 * np.arange(n_seq) + 3) % 12
    lengths[2::3] = lengths[0]
    return lengths.tolist()


@pytest.mark.parametrize("n_seq", [1, 2, 3, 9, 17, 40])
def test_lstm_at_model_size_matches_separate_runs(n_seq):
    # hidden 128, as the models run it, from one sequence to 40
    hidden = 128
    rng = stream(6, "lstm-model-size", n_seq)
    lengths = _fast_path_lengths(n_seq)
    U = rng.normal(size=(hidden, 4 * hidden)) / np.sqrt(hidden)
    b = rng.normal(size=4 * hidden)
    zx = rng.normal(size=(sum(lengths), 4 * hidden))
    out64 = nn.lstm(zx, lengths, U, b).data
    eye, start = np.eye(4 * hidden), 0
    for n in lengths:
        h, c = np.zeros(hidden), np.zeros(hidden)
        for t in range(start, start + n):
            h, c = _lstm_oracle(zx[t], h, c, eye, U, b, hidden)
            np.testing.assert_allclose(out64[t], h, rtol=0, atol=1e-12)
        start += n

    # float32 rounding, carried through up to 12 steps
    args32 = [zx.astype(np.float32), lengths,
              nn.Parameter(U.astype(np.float32)), nn.Parameter(b.astype(np.float32))]
    recorded = nn.lstm(*args32)
    assert recorded.requires_grad and recorded.data.dtype == np.float32
    np.testing.assert_allclose(recorded.data, out64, rtol=1e-4, atol=1e-6)
    with nn.no_grad():
        plain = nn.lstm(*args32)
    np.testing.assert_array_equal(plain.data, recorded.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lengths", [[4], [3, 1, 2]])
def test_lstm_saturated_gates_are_exact_and_raise_nothing(dtype, lengths):
    # pre-activations of +-1e4 put every gate at exactly 0 or 1 (the
    # candidate at -1 or 1); nothing may overflow or underflow on the way
    hidden = 4
    rng = stream(7, "lstm-saturated")
    sign = rng.choice([-1.0, 1.0], size=(sum(lengths), 4 * hidden))
    zx = nn.Parameter((1e4 * sign).astype(dtype))
    U = nn.Parameter(rng.normal(size=(hidden, 4 * hidden)).astype(dtype))
    b = nn.Parameter(np.zeros(4 * hidden, dtype=dtype))
    with np.errstate(all="raise"):
        out = nn.lstm(zx, lengths, U, b)
        nn.backward(nn.vsum(out))
    expected, start = np.empty_like(out.data), 0
    for n in lengths:
        c = np.zeros(hidden, dtype=dtype)
        for t in range(start, start + n):
            gate = (sign[t] > 0).astype(dtype)
            gate[2 * hidden:3 * hidden] = sign[t, 2 * hidden:3 * hidden]
            i, f, g, o = gate.reshape(4, hidden)
            c = f * c + i * g
            expected[t] = o * np.tanh(c)
        start += n
    np.testing.assert_array_equal(out.data, expected)
    # exact 0/1 gates pass no gradient back
    for p in (zx, U, b):
        np.testing.assert_array_equal(p.grad, 0.0)


def test_lstm_rejects_bad_shapes():
    for zx in [
        np.zeros(12),          # one step must still be a (1, 4H) row
        np.zeros((2, 8)),      # projection not 4H wide
        np.zeros((1, 2, 12)),  # 3-D projection
    ]:
        with pytest.raises(nn.DimensionError):
            nn.lstm(zx, [1], *_zero_weights(3))
    for w_recurrent, bias in [
        (np.zeros((3, 12)), np.zeros(8)),   # bias not 4H long
        (np.zeros((12, 3)), np.zeros(12)),  # recurrent weight in the old (4H, H) layout
    ]:
        with pytest.raises(nn.DimensionError):
            nn.lstm(np.zeros((2, 12)), [2], nn.Parameter(w_recurrent), nn.Parameter(bias))
    for lengths in ([], [3], [1, 0, 1], [[2]], [-1, 3]):
        with pytest.raises(nn.DimensionError, match="lengths"):
            nn.lstm(np.zeros((2, 12)), lengths, *_zero_weights(3))
    for k in range(3):  # one float32 operand among float64 ones
        args = [np.zeros((2, 12))] + [p.data for p in _zero_weights(3)]
        args[k] = args[k].astype(np.float32)
        with pytest.raises(nn.DimensionError, match="mixed float dtypes"):
            nn.lstm(args[0], [2], *args[1:])


def _trie(sequences):
    """The prefix trie of ``sequences``, built by hand: prefixes level by level, then in order."""
    prefixes = sorted({tuple(s[:d + 1]) for s in sequences for d in range(len(s))},
                      key=lambda p: (len(p), p))
    number = {p: n for n, p in enumerate(prefixes)}
    sizes = [sum(len(p) == d + 1 for p in prefixes) for d in range(len(prefixes[-1]))]
    return prefixes, number, sizes, [number[p[:-1]] for p in prefixes[sizes[0]:]]


def test_lstm_trie_matches_each_prefix_run_alone():
    # shared and strict prefixes, a repeated sequence and one-token ones:
    # every node's state is its prefix run as one sequence
    rng = stream(8, "lstm-trie")
    hidden = 4
    U, b = rng.normal(size=(hidden, 4 * hidden)), rng.normal(size=4 * hidden)
    table = rng.normal(size=(4, 4 * hidden))  # one input row per token
    sequences = [[1, 2, 3], [1, 2], [0], [1, 3, 3, 0], [1, 2, 3], [2]]
    prefixes, number, sizes, parents = _trie(sequences)
    assert sizes == [3, 2, 2, 1]
    out = nn.lstm_trie([(table, [p[-1] for p in prefixes])], parents, sizes, U, b)
    assert out.shape == (len(prefixes), hidden)
    for p in prefixes:
        h, c = np.zeros(hidden), np.zeros(hidden)
        for token in p:
            h, c = _lstm_oracle(table[token], h, c, np.eye(4 * hidden), U, b, hidden)
        np.testing.assert_allclose(out[number[p]], h, rtol=0, atol=1e-12)

    # a trie of one sequence is a chain of one-node levels, the arithmetic
    # of nn.lstm over that sequence bit for bit
    args = [x.astype(np.float32) for x in (table, U, b)]
    chain = [1, 3, 3, 0, 2]
    walked = nn.lstm_trie([(args[0], chain)], range(len(chain) - 1), [1] * len(chain), *args[1:])
    with nn.no_grad():
        packed = nn.lstm(args[0][chain], [len(chain)], *args[1:]).data
    assert walked.dtype == np.float32
    np.testing.assert_array_equal(walked, packed)


def test_lstm_trie_rejects_inconsistent_levels():
    zx = np.zeros((2, 12))
    assert nn.lstm_trie([(zx, [0, 1, 1])], [0], [2, 1], *_zero_weights(3)).shape == (3, 3)
    for rows, parents, sizes in [
        ([0, 1, 1], [0], [2, 2]),     # level sizes over 4 nodes, 3 rows
        ([0, 1, 1], [0, 1], [2, 1]),  # two parents for one deeper node
        ([0, 1, 1], [0], [2, 0, 1]),  # an empty level
        ([], [], []),                 # no level
        ([0, 1, 2], [0], [2, 1]),     # an input row outside zx
        ([0, 1, 1], [2], [2, 1]),     # a node its own parent
        ([0, 1, 1, 0], [0, 0], [2, 1, 1]),  # a parent two levels up
    ]:
        with pytest.raises(nn.DimensionError):
            nn.lstm_trie([(zx, rows)], parents, sizes, *_zero_weights(3))
    with pytest.raises(nn.DimensionError):
        nn.lstm_trie([(np.zeros((2, 8)), [0, 1])], [], [2], *_zero_weights(3))
    # a second table: its rows must be inside it and one per node, and its
    # width that of the first
    other = np.zeros((3, 12))
    for second in ((other, [0, 3, 1]), (other, [0, -1, 1]), (other, [0, 1]),
                   (np.zeros((3, 8)), [0, 1, 2])):
        with pytest.raises(nn.DimensionError):
            nn.lstm_trie([(zx, [0, 1, 1]), second], [0], [2, 1], *_zero_weights(3))
    with pytest.raises(nn.DimensionError):  # no table
        nn.lstm_trie([], [0], [2, 1], *_zero_weights(3))
    for k in range(3):  # one float32 operand among float64 ones
        args = [zx] + [p.data for p in _zero_weights(3)]
        args[k] = args[k].astype(np.float32)
        with pytest.raises(nn.DimensionError, match="mixed float dtypes"):
            nn.lstm_trie([(args[0], [0, 1, 1])], [0], [2, 1], *args[1:])


def test_lstm_trie_sums_two_tables_like_one_presummed_table():
    # each level gathers its rows from both tables and adds them, which
    # gives the states of one table of the summed rows bit for bit
    rng = stream(9, "lstm-trie-tables")
    hidden = 5
    U, b = (rng.normal(size=shape).astype(np.float32)
            for shape in ((hidden, 4 * hidden), (4 * hidden,)))
    token, context = (rng.normal(size=(n, 4 * hidden)).astype(np.float32) for n in (6, 3))
    prefixes, _, sizes, parents = _trie([[1, 2, 3], [1, 2], [0], [1, 3, 3, 0], [2]])
    n = len(prefixes)
    token_of, context_of = rng.integers(0, 6, n), rng.integers(0, 3, n)
    both = nn.lstm_trie([(token, token_of), (context, context_of)], parents, sizes, U, b)
    summed = token[token_of] + context[context_of]
    one = nn.lstm_trie([(summed, np.arange(n))], parents, sizes, U, b)
    assert both.dtype == np.float32 and both.tobytes() == one.tobytes()


@pytest.mark.parametrize("lengths", [[1], [4], [3, 1, 2], [2, 5, 5, 1, 3]])
def test_packed_sequences_walked_as_a_trie_match_lstm(lengths):
    rng = stream(10, "packed-trie", len(lengths))
    hidden, total = 4, sum(lengths)
    zx, U, b = (rng.normal(size=shape).astype(np.float32)
                for shape in ((total, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,)))
    rows, parents, sizes = nn.pack_sequences(lengths, total)
    # level t holds the sequences longer than t steps, longest first; a
    # node continues the node one row earlier in its sequence
    assert sizes == [sum(n > t for n in lengths) for t in range(max(lengths))]
    starts = np.cumsum([0] + lengths[:-1])
    order = sorted(range(len(lengths)), key=lambda j: -lengths[j])
    assert rows[:sizes[0]].tolist() == starts[order].tolist()
    assert (rows[sizes[0]:] == rows[parents] + 1).all()
    assert sorted(rows.tolist()) == list(range(total))
    # a trie with no shared nodes: walked, it gives nn.lstm's states bit for bit
    walked = np.empty((total, hidden), dtype=np.float32)
    walked[rows] = nn.lstm_trie([(zx, rows)], parents, sizes, U, b)
    with nn.no_grad():
        assert walked.tobytes() == nn.lstm(zx, lengths, U, b).data.tobytes()
    for bad in ([], lengths[:-1] + [lengths[-1] + 1], [0] + lengths, [[total]]):
        with pytest.raises(nn.DimensionError, match="lengths"):
            nn.pack_sequences(bad, total)


@pytest.mark.parametrize("tokens", [[[3]], [[1, 3, 0, 4, 3]], [[1, 3], [0], [4, 3, 2, 2], [0]]])
def test_grad_check_lstm_sequence(tokens):
    # a different weight on every row's output, as the dialog level reads
    # them; the packed case mixes unequal lengths and one-step sequences
    lengths = [len(seq) for seq in tokens]
    tokens = np.concatenate(tokens)
    rng = stream(12, "lstm-grad", len(tokens))
    hidden, inputs = 3, 4
    w_input = nn.Parameter(rng.normal(size=(inputs, 4 * hidden)) * 0.5, "W")
    w_recurrent = nn.Parameter(rng.normal(size=(hidden, 4 * hidden)) * 0.5, "U")
    bias = nn.Parameter(rng.normal(size=4 * hidden) * 0.5, "b")
    table = nn.Parameter(rng.normal(size=(5, inputs)), "emb")
    coef = rng.normal(size=(len(tokens), hidden))

    def fn():
        zx = nn.matvec(w_input, nn.gather_rows(table, tokens))
        out = nn.lstm(zx, lengths, w_recurrent, bias)
        return nn.vsum(nn.mul(out, nn.as_tensor(coef)))

    assert nn.grad_check(fn, [w_input, w_recurrent, bias, table]) < 1e-4


# -------------------------------------------------------------- softmax_ce

def test_softmax_ce_uniform_logits():
    loss = nn.softmax_ce(nn.as_tensor(np.zeros(4)), 2)
    np.testing.assert_allclose(float(loss.data), np.log(4.0), rtol=1e-12)


def test_softmax_ce_extreme_logits_stable():
    loss = nn.softmax_ce(nn.as_tensor(np.array([1000.0, -1000.0])), 0)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)
    loss = nn.softmax_ce(nn.as_tensor(np.array([1e4, -1e4, 0.0])), 1)
    assert np.isfinite(loss.data)


def test_softmax_ce_matches_naive_formula():
    rng = stream(3, "ce")
    for _ in range(50):
        n = int(rng.integers(2, 9))
        logits = rng.normal(size=n) * 3
        target = int(rng.integers(0, n))
        loss = nn.softmax_ce(nn.as_tensor(logits), target)
        naive = -np.log(np.exp(logits[target]) / np.exp(logits).sum())
        assert float(loss.data) == pytest.approx(naive, abs=1e-6)


def test_softmax_ce_rows_sum_the_row_losses():
    rng = stream(3, "ce-rows")
    w = nn.Parameter(rng.normal(size=(4, 5)) * 3)
    targets = [4, 0, 0, 2]
    loss = nn.softmax_ce(w, targets)
    rows = sum(float(nn.softmax_ce(w.data[t], k).data) for t, k in enumerate(targets))
    assert float(loss.data) == pytest.approx(rows, abs=1e-12)
    assert nn.grad_check(lambda: nn.softmax_ce(w, targets), [w]) < 1e-4
    with pytest.raises(nn.DimensionError):
        nn.softmax_ce(w, targets[:3])


# ---------------------------------------------------------- bow_sigmoid_ce

def test_bow_ce_zero_logits():
    v = 17
    loss = nn.bow_sigmoid_ce(nn.as_tensor(np.zeros(v)), np.zeros(v))
    np.testing.assert_allclose(float(loss.data), v * np.log(2.0), rtol=1e-12)


def test_bow_ce_saturated_correct():
    target = np.array([1.0, 0.0, 1.0])
    logits = np.array([40.0, -40.0, 40.0])
    loss = nn.bow_sigmoid_ce(nn.as_tensor(logits), target)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_bow_ce_matches_naive_formula():
    rng = stream(4, "bow")
    for _ in range(50):
        n = int(rng.integers(1, 12))
        logits = rng.normal(size=n) * 2
        target = (rng.random(n) < 0.5).astype(float)
        loss = nn.bow_sigmoid_ce(nn.as_tensor(logits), target)
        s = 1.0 / (1.0 + np.exp(-logits))
        naive = -np.sum(target * np.log(s) + (1 - target) * np.log(1 - s))
        assert float(loss.data) == pytest.approx(naive, abs=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bow_ce_saturated_logits_raise_nothing(dtype):
    logits = nn.Parameter(np.array([1e4, -1e4, 1e4, -1e4], dtype=dtype))
    target = np.array([1.0, 0.0, 0.0, 1.0], dtype=dtype)
    with np.errstate(all="raise"):
        loss = nn.bow_sigmoid_ce(logits, target)
        nn.backward(loss)
    assert float(loss.data) == 2e4
    np.testing.assert_array_equal(logits.grad, [0.0, 0.0, 1.0, -1.0])


def test_bow_ce_rejects_non_binary_targets():
    with pytest.raises(ValueError):
        nn.bow_sigmoid_ce(nn.as_tensor(np.zeros(3)), np.array([0.0, 0.5, 1.0]))


# ------------------------------------------------------------- gaussian_kl

def test_kl_zero_at_standard_normal():
    kl = nn.gaussian_kl(nn.as_tensor(np.zeros(4)), nn.as_tensor(np.ones(4)))
    assert float(kl.data) == 0.0


def test_kl_unit_mean_shift():
    kl = nn.gaussian_kl(nn.as_tensor(np.array([1.0])), nn.as_tensor(np.array([1.0])))
    assert float(kl.data) == pytest.approx(0.5, rel=1e-12)


def test_kl_sigma_two_matches_quadrature():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    kl = nn.gaussian_kl(nn.as_tensor(np.array([0.0])), nn.as_tensor(np.array([2.0])))

    def integrand(x):
        # q = N(0, 2^2), p = N(0, 1); log(q/p) expanded to avoid underflow
        q = np.exp(-x * x / 8.0) / np.sqrt(8.0 * np.pi)
        return q * (3.0 * x * x / 8.0 - np.log(2.0))

    oracle, _ = scipy_integrate.quad(integrand, -60, 60)
    assert float(kl.data) == pytest.approx(oracle, abs=1e-9)
    assert float(kl.data) == pytest.approx(0.8069, abs=1e-3)


def test_kl_nonnegative_property():
    rng = stream(5, "kl")
    for _ in range(10_000):
        mu = rng.normal(size=3) * 4
        sigma = np.exp(rng.normal(size=3) * 1.5)
        kl = nn.gaussian_kl(nn.as_tensor(mu), nn.as_tensor(sigma))
        assert float(kl.data) >= 0.0


def test_kl_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        nn.gaussian_kl(nn.as_tensor(np.zeros(2)), nn.as_tensor(np.array([1.0, 0.0])))


# --------------------------------------------------------- reparameterize

def test_reparameterize_zero_noise_gives_mu():
    mu = nn.as_tensor(np.array([1.0, -2.0]))
    sigma = nn.as_tensor(np.array([3.0, 4.0]))
    np.testing.assert_allclose(nn.reparameterize(mu, sigma, np.zeros(2)).data, mu.data)


def test_reparameterize_vanishing_sigma_gives_mu():
    mu = nn.as_tensor(np.array([1.0, -2.0]))
    sigma = nn.as_tensor(np.full(2, 1e-300))
    out = nn.reparameterize(mu, sigma, np.array([5.0, -9.0]))
    np.testing.assert_allclose(out.data, mu.data)


def test_reparameterize_monte_carlo_moments():
    rng = stream(6, "reparam")
    mu = np.array([0.7, -1.2])
    sigma = np.array([0.5, 2.0])
    samples = np.stack([
        nn.reparameterize(nn.as_tensor(mu), nn.as_tensor(sigma),
                          rng.standard_normal(2)).data
        for _ in range(100_000)
    ])
    np.testing.assert_allclose(samples.mean(axis=0), mu, atol=0.01 * np.abs(mu).max() + 0.005)
    np.testing.assert_allclose(samples.std(axis=0), sigma, rtol=0.01)


# --------------------------------------------------------------------- adam

def test_adam_first_step_is_signed_learning_rate():
    p = nn.Parameter(np.array([1.0, -1.0, 2.0]))
    opt = nn.Adam([p], learning_rate=0.001)
    p.grad[...] = [0.5, -3.0, 1e-4]
    before = p.data.copy()
    opt.step()
    update = p.data - before
    np.testing.assert_allclose(update, -0.001 * np.sign(p.grad), rtol=1e-3)


def test_adam_zero_gradient_is_identity():
    p = nn.Parameter(np.array([1.0, 2.0]))
    opt = nn.Adam([p])
    opt.zero_grad()
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_frozen_parameter_untouched():
    frozen = nn.Parameter(np.array([1.0]), trainable=False)
    frozen.grad = np.array([5.0])
    live = nn.Parameter(np.array([2.0]))
    opt = nn.Adam([frozen, live])
    live.grad[...] = 1.0
    opt.step()
    np.testing.assert_array_equal(frozen.data, [1.0])
    np.testing.assert_array_equal(frozen.grad, [5.0])
    assert not np.shares_memory(frozen.data, opt.values)
    assert live.data[0] < 2.0


def test_adam_in_place_matches_the_textbook_expression():
    # bit for bit against the temporaries form, over several steps, with a
    # frozen parameter of another dtype left untouched and an update that
    # spans more than one block
    rng = stream(14, "adam-exact")
    shapes = [(5, 3), (nn.Adam.BLOCK + 7,), (2, 4)]
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    for dtype, frozen_dtype in ((np.float32, np.float64), (np.float64, np.float32)):
        params = [nn.Parameter(rng.normal(size=shape).astype(dtype), "p%d" % i)
                  for i, shape in enumerate(shapes)]
        frozen = nn.Parameter(rng.normal(size=3).astype(frozen_dtype), "frozen", trainable=False)
        expected = [p.data.copy() for p in params]
        opt = nn.Adam(params + [frozen], learning_rate=lr)
        m = [np.zeros_like(p.data) for p in params]
        v = [np.zeros_like(p.data) for p in params]
        frozen_before = frozen.data.copy()
        for step in range(1, 7):
            opt.zero_grad()
            for p in params:
                p.grad += (rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-3, 3)).astype(dtype)
            frozen.grad = np.ones_like(frozen.data)
            opt.step()
            bc1 = 1.0 - beta1 ** step
            bc2 = 1.0 - beta2 ** step
            for i, p in enumerate(params):
                g = p.grad
                m[i] *= beta1
                m[i] += (1.0 - beta1) * g
                v[i] *= beta2
                v[i] += (1.0 - beta2) * (g * g)
                expected[i] -= lr * ((m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps))
            for p, want in zip(params, expected):
                assert p.data.dtype == want.dtype
                np.testing.assert_array_equal(p.data, want, err_msg="%s step %d" % (p.name, step))
        np.testing.assert_array_equal(frozen.data, frozen_before)


def test_adam_rejects_mixed_dtypes():
    a = nn.Parameter(np.zeros(2, dtype=np.float32), "a")
    b = nn.Parameter(np.zeros(2, dtype=np.float64), "b")
    with pytest.raises(ValueError, match="mixed dtypes: float32, float64"):
        nn.Adam([a, b])
    # a frozen parameter of another dtype stays outside the buffer
    nn.Adam([a, nn.Parameter(np.zeros(2), "frozen", trainable=False)])


def test_adam_descends_quadratic_bowl():
    rng = stream(7, "bowl")
    target = rng.normal(size=6) * 3
    p = nn.Parameter(np.zeros(6))
    opt = nn.Adam([p], learning_rate=0.01)
    losses = []
    for _ in range(100):
        opt.zero_grad()
        diff = nn.add(p, nn.as_tensor(-target))
        loss = nn.vsum(nn.mul(diff, diff))
        nn.backward(loss)
        opt.step()
        losses.append(float(loss.data))
    assert all(b < a for a, b in zip(losses[5:], losses[6:]))


# --------------------------------------------------------------- grad_check

def test_grad_check_exact_for_linear():
    rng = stream(8, "lin")
    w = nn.Parameter(rng.normal(size=5))
    coef = rng.normal(size=5)

    def fn():
        return nn.vsum(nn.mul(w, nn.as_tensor(coef)))

    assert nn.grad_check(fn, [w]) < 1e-9


def test_grad_check_detects_corruption():
    rng = stream(9, "bad")
    w = nn.Parameter(rng.normal(size=4))

    class Corrupted(nn.Tensor):
        pass

    def fn():
        s = nn.exp(w)
        out = nn.vsum(nn.mul(s, s))
        original = out._backward

        def broken(g):
            original(g * 1.5)  # deliberately wrong chain rule

        out._backward = broken
        return out

    assert nn.grad_check(fn, [w]) > 1e-2


@pytest.mark.parametrize("op_name", ["relu", "exp"])
def test_grad_check_elementwise_ops(op_name):
    rng = stream(10, op_name)
    w = nn.Parameter(rng.normal(size=6) * 0.8 + 0.1)
    op = getattr(nn, op_name)

    def fn():
        return nn.vsum(op(nn.mul(w, w)))

    assert nn.grad_check(fn, [w]) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op_name", ["add", "mul"])
def test_a_python_number_takes_the_other_operand_dtype(op_name, dtype):
    # as numpy does for a Python scalar: a float32 graph stays float32
    op, expected = getattr(nn, op_name), {"add": np.add, "mul": np.multiply}[op_name]
    for data in (1.3, [-1.5, 0.25, 2.0]):  # 0-d and 1-d
        x = nn.Parameter(np.array(data, dtype=dtype))
        for number in (0.5, 3, 1.0 / 7):
            for out in (op(x, number), op(number, x)):
                assert out.dtype == dtype
                np.testing.assert_array_equal(out.data, expected(x.data, number))
                nn.backward(nn.vsum(out))
                assert x.grad.dtype == dtype
                nn.zero_grads([x])
    # an integer array meets a Python float as in numpy: in float64
    assert nn.mul(np.arange(3), 0.5).dtype == np.float64
    assert nn.add(2, 0.5).dtype == np.float64


@pytest.mark.parametrize("v_shape", [(3,), (4, 3)])
def test_matvec_multiplies_by_an_in_out_weight(v_shape):
    # one vector or one row per input, times a (3, 5) weight: shape (5,) or (4, 5)
    rng = stream(13, "matvec", len(v_shape))
    m = nn.Parameter(rng.normal(size=(3, 5)), "m")
    v = nn.Parameter(rng.normal(size=v_shape), "v")
    coef = rng.normal(size=v_shape[:-1] + (5,))
    out = nn.matvec(m, v)
    np.testing.assert_allclose(out.data, np.einsum("...i,io->...o", v.data, m.data), atol=1e-12)

    def fn():
        return nn.vsum(nn.mul(nn.matvec(m, v), nn.as_tensor(coef)))

    assert nn.grad_check(fn, [m, v]) < 1e-6
    with pytest.raises(nn.DimensionError, match="matvec shapes"):
        nn.matvec(nn.Parameter(rng.normal(size=(5, 3))), v)
    for weight, rows in ((m.data.astype(np.float32), v), (m, v.data.astype(np.float32))):
        with pytest.raises(nn.DimensionError, match="mixed float dtypes"):
            nn.matvec(weight, rows)


def test_weight_inits_are_out_in_draws_transposed():
    # one seed draws the same numbers as an (out, in) layout would, stored (in, out)
    w = nn.glorot_uniform(stream(1, "init"), (3, 5), np.float32)
    bound = np.sqrt(6.0 / (3 + 5))
    expected = stream(1, "init").uniform(-bound, bound, (5, 3)).astype(np.float32).T
    np.testing.assert_array_equal(w, expected)
    u = nn.lstm_recurrent_init(stream(2, "init"), 3, np.float32)
    rng, blocks = stream(2, "init"), []
    for _ in range(4):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        blocks.append(q * np.sign(np.diag(r)))
    np.testing.assert_array_equal(u, np.vstack(blocks).astype(np.float32).T)
    assert w.flags.c_contiguous and u.flags.c_contiguous


def _mean_of_rows(table, ids):
    total = nn.gather_rows(table, ids[0])
    for i in ids[1:]:
        total = nn.add(total, nn.gather_rows(table, i))
    return nn.mul(total, 1.0 / len(ids))


def test_grad_check_losses_and_lstm_path():
    rng = stream(11, "composite")
    hidden, inputs = 3, 4
    cell_w = nn.Parameter(rng.normal(size=(inputs, 4 * hidden)) * 0.5, "W")
    cell_u = nn.Parameter(rng.normal(size=(hidden, 4 * hidden)) * 0.5, "U")
    cell_b = nn.Parameter(rng.normal(size=4 * hidden) * 0.5, "b")
    table = nn.Parameter(rng.normal(size=(5, inputs)), "emb")
    mu_w = nn.Parameter(rng.normal(size=(hidden, 2)) * 0.5, "mu")
    lv_w = nn.Parameter(rng.normal(size=(hidden, 2)) * 0.5, "lv")
    noise = rng.standard_normal(2)
    x_bow = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    params = [cell_w, cell_u, cell_b, table, mu_w, lv_w]

    def fn():
        zx = nn.matvec(cell_w, nn.gather_rows(table, [1, 3, 0]))
        h = nn.gather_rows(nn.lstm(zx, [3], cell_u, cell_b), -1)
        mu = nn.matvec(mu_w, h)
        sigma = nn.exp(nn.mul(0.5, nn.matvec(lv_w, h)))
        z = nn.reparameterize(mu, sigma, noise)
        mean_vec = _mean_of_rows(table, [0, 2, 2])
        logits = nn.add(z, nn.gather_rows(mean_vec, [0, 1]))
        ce = nn.softmax_ce(logits, 1)
        bow = nn.bow_sigmoid_ce(_mean_of_rows(table, [0, 1, 2, 3, 4]),
                                np.array([1.0, 0.0, 1.0, 0.0]))
        kl = nn.gaussian_kl(mu, sigma)
        return nn.add(nn.add(ce, bow), kl)

    assert nn.grad_check(fn, params) < 1e-4


def test_clip_global_norm():
    a = nn.Parameter(np.array([3.0, 4.0]))
    b = nn.Parameter(np.array([12.0]))
    opt = nn.Adam([a, b])
    a.grad[...] = a.data
    b.grad[...] = b.data
    norm = nn.clip_global_norm(opt.grads, max_norm=5.0)
    assert norm == pytest.approx(13.0)
    np.testing.assert_allclose(np.sqrt(np.sum(a.grad**2) + np.sum(b.grad**2)), 5.0)


def test_clip_global_norm_of_large_float32_gradients_is_finite():
    # each square overflows float32, so the norm must be summed wider
    grads = np.full(4, 1e20, dtype=np.float32)
    norm = nn.clip_global_norm(grads, max_norm=5.0)
    assert norm == pytest.approx(2e20, rel=1e-6)
    np.testing.assert_allclose(grads, 2.5, rtol=1e-6)


@pytest.mark.parametrize("size", [5, nn.Adam.BLOCK, 3 * nn.Adam.BLOCK + 11])
def test_clip_global_norm_matches_an_exact_sum(size):
    grads = stream(8, "clip", size).normal(size=size).astype(np.float32)
    exact = math.sqrt(math.fsum(float(g) * float(g) for g in grads))
    norm = nn.clip_global_norm(grads.copy(), max_norm=np.inf)
    assert abs(norm - exact) <= 1e-12 * exact


def test_clip_global_norm_leaves_a_non_finite_gradient():
    grads = np.array([1.0, np.inf, 100.0])
    assert nn.clip_global_norm(grads) == np.inf
    np.testing.assert_array_equal(grads, [1.0, np.inf, 100.0])


def test_no_grad_skips_graph():
    w = nn.Parameter(np.ones(3))
    with nn.no_grad():
        out = nn.vsum(nn.mul(w, w))
    assert out._backward is None and not out.requires_grad


def test_frozen_parameter_gets_no_gradient():
    frozen = nn.Parameter(np.eye(3), trainable=False)
    live = nn.Parameter(np.ones(3))
    out = nn.vsum(nn.mul(nn.matvec(frozen, live), live))
    nn.backward(out)
    assert frozen.grad is None
    assert live.grad is not None
