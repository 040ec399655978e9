import numpy as np
import pytest

from robusthcn import nn
from robusthcn.seeding import stream


# ------------------------------------------------------------- embed_mean

def test_embed_mean_two_point():
    table = nn.Parameter(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = nn.embed_mean(table, [0, 1])
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_embed_mean_single_token():
    table = nn.Parameter(np.array([[2.0, 3.0], [5.0, 7.0]]))
    np.testing.assert_allclose(nn.embed_mean(table, [1]).data, [5.0, 7.0])


def test_embed_mean_repeated_token_matches_direct_summation():
    rng = stream(1, "embed")
    table = nn.Parameter(rng.normal(size=(6, 4)))
    ids = [3, 3, 3, 3, 3]
    out = nn.embed_mean(table, ids)
    oracle = sum(table.data[i] for i in ids) / len(ids)  # direct summation
    np.testing.assert_allclose(out.data, oracle, rtol=1e-12)
    np.testing.assert_allclose(out.data, table.data[3], rtol=1e-12)


def test_embed_mean_rejects_empty():
    table = nn.Parameter(np.eye(2))
    with pytest.raises(ValueError):
        nn.embed_mean(table, [])


# ------------------------------------------------------------------- lstm

def _zero_weights(hidden, dtype=np.float64):
    return (nn.Parameter(np.zeros((4 * hidden, hidden), dtype=dtype)),
            nn.Parameter(np.zeros(4 * hidden, dtype=dtype)))


def test_lstm_zero_everything():
    for zx in (np.zeros(12), np.zeros((4, 12))):
        out = nn.lstm(zx, np.zeros(6), *_zero_weights(3))
        np.testing.assert_allclose(out.data, 0.0)


def test_lstm_zero_weights_halve_cell_state():
    c_prev = np.array([1.0, -2.0, 4.0])
    for steps in (1, 3):
        out = nn.lstm(np.zeros((steps, 12)), np.concatenate([np.zeros(3), c_prev]),
                      *_zero_weights(3))
        c = 0.5 ** steps * c_prev
        np.testing.assert_allclose(out.data[3:], c)
        np.testing.assert_allclose(out.data[:3], 0.5 * np.tanh(c))


def _lstm_oracle(x, h_prev, c_prev, W, U, b, hidden):
    # independently coded step with explicit per-gate slices
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    wi, wf, wg, wo = (W[k * hidden:(k + 1) * hidden] for k in range(4))
    ui, uf, ug, uo = (U[k * hidden:(k + 1) * hidden] for k in range(4))
    bi, bf, bg, bo = (b[k * hidden:(k + 1) * hidden] for k in range(4))
    i = sig(wi @ x + ui @ h_prev + bi)
    f = sig(wf @ x + uf @ h_prev + bf)
    g = np.tanh(wg @ x + ug @ h_prev + bg)
    o = sig(wo @ x + uo @ h_prev + bo)
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def test_lstm_matches_independent_implementation():
    rng = stream(2, "lstm")
    hidden, inputs = 5, 4
    for steps in (1, 5):
        for _ in range(20):
            W = rng.normal(size=(4 * hidden, inputs))
            U = rng.normal(size=(4 * hidden, hidden))
            b = rng.normal(size=4 * hidden)
            xs = rng.normal(size=(steps, inputs))
            h, c = rng.normal(size=hidden), rng.normal(size=hidden)
            # one step takes a (4H,) projection, a sequence a (T, 4H) one
            zx = nn.matvec(W, xs[0] if steps == 1 else xs)
            out = nn.lstm(zx, np.concatenate([h, c]), U, b)
            for x in xs:
                h, c = _lstm_oracle(x, h, c, W, U, b, hidden)
            np.testing.assert_allclose(out.data[:hidden], h, atol=1e-12)
            np.testing.assert_allclose(out.data[hidden:], c, atol=1e-12)


def test_lstm_rejects_bad_shapes():
    for zx, state in [
        (np.zeros(8), np.zeros(6)),           # projection not 4H wide
        (np.zeros((2, 8)), np.zeros(6)),
        (np.zeros((1, 2, 12)), np.zeros(6)),  # 3-D projection
        (np.zeros(12), np.zeros(3)),          # state is not [h; c]
    ]:
        with pytest.raises(nn.DimensionError):
            nn.lstm(zx, state, *_zero_weights(3))


@pytest.mark.parametrize("tokens", [[3], [1, 3, 0, 4, 3]])
def test_grad_check_lstm_sequence(tokens):
    rng = stream(12, "lstm-grad", len(tokens))
    hidden, inputs = 3, 4
    w_input = nn.Parameter(rng.normal(size=(4 * hidden, inputs)) * 0.5, "W")
    w_recurrent = nn.Parameter(rng.normal(size=(4 * hidden, hidden)) * 0.5, "U")
    bias = nn.Parameter(rng.normal(size=4 * hidden) * 0.5, "b")
    table = nn.Parameter(rng.normal(size=(5, inputs)), "emb")
    state = nn.Parameter(rng.normal(size=2 * hidden), "state")
    coef = rng.normal(size=2 * hidden)

    def fn():
        zx = nn.matvec(w_input, nn.gather_rows(table, tokens))
        out = nn.lstm(zx, state, w_recurrent, bias)
        return nn.vsum(nn.mul(out, nn.as_tensor(coef)))

    assert nn.grad_check(fn, [w_input, w_recurrent, bias, table, state]) < 1e-4


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
    p.grad = np.array([0.5, -3.0, 1e-4])
    opt = nn.Adam([p], learning_rate=0.001)
    before = p.data.copy()
    opt.step()
    update = p.data - before
    np.testing.assert_allclose(update, -0.001 * np.sign(p.grad), rtol=1e-3)


def test_adam_zero_gradient_is_identity():
    p = nn.Parameter(np.array([1.0, 2.0]))
    p.grad = np.zeros(2)
    opt = nn.Adam([p])
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_frozen_parameter_untouched():
    p = nn.Parameter(np.array([1.0]), trainable=False)
    p.grad = np.array([5.0])
    opt = nn.Adam([p])
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0])


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


def test_grad_check_losses_and_lstm_path():
    rng = stream(11, "composite")
    hidden, inputs = 3, 4
    cell_w = nn.Parameter(rng.normal(size=(4 * hidden, inputs)) * 0.5, "W")
    cell_u = nn.Parameter(rng.normal(size=(4 * hidden, hidden)) * 0.5, "U")
    cell_b = nn.Parameter(rng.normal(size=4 * hidden) * 0.5, "b")
    table = nn.Parameter(rng.normal(size=(5, inputs)), "emb")
    mu_w = nn.Parameter(rng.normal(size=(2, hidden)) * 0.5, "mu")
    lv_w = nn.Parameter(rng.normal(size=(2, hidden)) * 0.5, "lv")
    noise = rng.standard_normal(2)
    x_bow = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    params = [cell_w, cell_u, cell_b, table, mu_w, lv_w]

    def fn():
        zx = nn.matvec(cell_w, nn.gather_rows(table, [1, 3, 0]))
        h = nn.slice1d(nn.lstm(zx, np.zeros(2 * hidden), cell_u, cell_b), 0, hidden)
        mu = nn.matvec(mu_w, h)
        sigma = nn.exp(nn.mul(0.5, nn.matvec(lv_w, h)))
        z = nn.reparameterize(mu, sigma, noise)
        mean_vec = nn.embed_mean(table, [0, 2, 2])
        logits = nn.add(z, nn.slice1d(mean_vec, 0, 2))
        ce = nn.softmax_ce(logits, 1)
        bow_logits = nn.gather_rows(table, [0, 1, 2, 3, 4])
        bow = nn.bow_sigmoid_ce(nn.mean_rows(bow_logits),
                                np.array([1.0, 0.0, 1.0, 0.0]))
        kl = nn.gaussian_kl(mu, sigma)
        return nn.add(nn.add(ce, bow), kl)

    assert nn.grad_check(fn, params) < 1e-4


def test_clip_global_norm():
    a = nn.Parameter(np.array([3.0, 4.0]))
    b = nn.Parameter(np.array([12.0]))
    a.grad = a.data.copy()
    b.grad = b.data.copy()
    norm = nn.clip_global_norm([a, b], max_norm=5.0)
    assert norm == pytest.approx(13.0)
    np.testing.assert_allclose(np.sqrt(np.sum(a.grad**2) + np.sum(b.grad**2)), 5.0)


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
