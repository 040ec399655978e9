import contextlib
import tracemalloc
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from robusthcn import nn
from robusthcn.corpus import Lexicon, build_vocabulary, prepare
from robusthcn.models import (
    CheckpointError,
    HashMismatchError,
    Model,
    ModelConfig,
    VaeEncoding,
    check_compatible,
    dialog_loss,
    load_checkpoint,
    loss_vhcn,
    model_from_checkpoint,
    predict_dialogs,
    save_checkpoint,
)
from robusthcn.seeding import stream
from robusthcn.toy import generate_toy_domain
from robusthcn.train import TrainConfig, train_model
from robusthcn.turndrop import TurnDropoutConfig, apply_turn_dropout, length_bounds_from

from util import (ReplayNoise, bow_vector, context_vector, tiny_actions, tiny_model, tiny_turn,
                  tiny_vocab, two_turn_dialog)

VOCAB = tiny_vocab(10)
ACTIONS = tiny_actions(4)


# --------------------------------------------------------------- configs

def test_config_defaults_per_variant():
    assert ModelConfig("HCN").embedding_size == 64
    assert ModelConfig("HHCN").embedding_size == 128
    vhcn = ModelConfig("VHCN")
    assert vhcn.embedding_size == 128
    assert vhcn.latent_size == 8


def test_config_latent_only_for_vhcn():
    with pytest.raises(ValueError):
        ModelConfig("HCN", latent_size=4)


@pytest.mark.parametrize("size", ["embedding_size", "latent_size", "dialog_hidden_size",
                                  "predictor_hidden_size"])
def test_config_rejects_sizes_below_one(size):
    with pytest.raises(ValueError, match=size):
        ModelConfig("VHCN", **{size: 0})


# ------------------------------------------------------------ encode_turn

def test_hcn_encoding_is_embedding_mean():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    model.embedding.data = np.zeros_like(model.embedding.data)
    model.embedding.data[2] = np.array([1, 0, 0, 0, 0, 0], dtype=np.float64)
    model.embedding.data[3] = np.array([0, 1, 0, 0, 0, 0], dtype=np.float64)
    features = tiny_turn(VOCAB, ACTIONS, [2, 3], target=0)
    vec, encoding = model.encode_turn([features])
    np.testing.assert_allclose(vec.data, [[0.5, 0.5, 0, 0, 0, 0]])
    assert encoding is None


def test_hcn_encoding_two_point_mean():
    # each turn of a dialog gets the mean of its own two rows, not of the dialog's
    model = tiny_model("HCN", VOCAB, ACTIONS)
    model.embedding.data = np.zeros_like(model.embedding.data)
    model.embedding.data[2, 0] = 1.0
    model.embedding.data[3, 1] = 1.0
    model.embedding.data[4, 2] = 4.0
    vecs, _ = model.encode_turn([tiny_turn(VOCAB, ACTIONS, [2, 3], 0),
                                 tiny_turn(VOCAB, ACTIONS, [3, 4], 0)])
    np.testing.assert_allclose(vecs.data, [[0.5, 0.5, 0, 0, 0, 0],
                                           [0, 0.5, 2.0, 0, 0, 0]])


def test_hcn_encode_turn_rejects_empty():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    turn, empty = tiny_turn(VOCAB, ACTIONS, [2, 3], 0), tiny_turn(VOCAB, ACTIONS, [], 0)
    for dialog in ([empty], [empty, turn], [turn, empty]):
        with pytest.raises(ValueError, match="empty turn"):
            model.encode_turn(dialog)


@pytest.mark.parametrize("graph", [True, False], ids=["graph", "no-graph"])
@pytest.mark.parametrize("variant", ["HCN", "HHCN", "VHCN"])
def test_encode_turn_rejects_an_empty_turn(variant, graph):
    # one error in every variant, whether the turn LSTM would run packed
    # sequences (graph) or walk the prefix trie (no graph)
    model = tiny_model(variant, VOCAB, ACTIONS)
    turn, empty = tiny_turn(VOCAB, ACTIONS, [2, 3], 0), tiny_turn(VOCAB, ACTIONS, [], 0)
    for dialog in ([empty], [empty, turn], [turn, empty, turn]):
        with contextlib.nullcontext() if graph else nn.no_grad():
            with pytest.raises(ValueError) as raised:
                model.encode_turn(dialog)
        assert raised.type is ValueError
        assert str(raised.value) == "cannot encode an empty turn"


def test_hcn_encoding_permutation_invariant():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    a, b = model.encode_turn([tiny_turn(VOCAB, ACTIONS, [2, 5, 7], 0),
                              tiny_turn(VOCAB, ACTIONS, [7, 2, 5], 0)])[0].data
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_hhcn_encoding_is_order_sensitive():
    model = tiny_model("HHCN", VOCAB, ACTIONS)
    a, b = model.encode_turn([tiny_turn(VOCAB, ACTIONS, [2, 5, 7], 0),
                              tiny_turn(VOCAB, ACTIONS, [7, 2, 5], 0)])[0].data
    assert np.abs(a - b).max() > 1e-6


def test_vhcn_infer_deterministic():
    model = tiny_model("VHCN", VOCAB, ACTIONS)
    features = [tiny_turn(VOCAB, ACTIONS, [1, 2, 3], 0)]
    a, enc_a = model.encode_turn(features)
    b, enc_b = model.encode_turn(features)
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(enc_a.mu.data, enc_b.mu.data)
    np.testing.assert_array_equal(a.data, enc_a.mu.data)  # z = mu in infer mode
    assert (enc_a.sigma.data > 0).all()


def test_vhcn_train_mode_uses_noise():
    # an rng makes VHCN sample; without one it returns the posterior mean
    model = tiny_model("VHCN", VOCAB, ACTIONS)
    features = [tiny_turn(VOCAB, ACTIONS, [1, 2, 3], 0)]
    a, enc_a = model.encode_turn(features, stream(1, "n"))
    b, _ = model.encode_turn(features, stream(2, "n"))
    assert np.abs(a.data - b.data).max() > 1e-9
    assert np.abs(a.data - enc_a.mu.data).max() > 1e-9
    mean, _ = model.encode_turn(features)
    np.testing.assert_array_equal(mean.data, enc_a.mu.data)


# ------------------------------------------------------------ dialog_step

def _turn_vectors(model, dialog):
    return model.encode_turn(dialog)[0]


def _logits(model, turn_vectors, dialog):
    return model.dialog_step(model.dialog_inputs(turn_vectors, dialog))


def test_all_ones_mask_is_noop():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    dialog = two_turn_dialog(VOCAB, ACTIONS)
    vecs = _turn_vectors(model, dialog)
    logits = _logits(model, vecs, dialog)
    # the mask enters only as an input block, never applied to the logits
    blocks = [(model.dlg_w_turn, vecs.data),
              (model.dlg_w_bow, [bow_vector(f, len(VOCAB), model.dtype) for f in dialog]),
              (model.dlg_w_ctx, [context_vector(f, model.dtype) for f in dialog]),
              (model.dlg_w_prev, [f.prev_action for f in dialog]),
              (model.dlg_w_mask, [f.f_mask for f in dialog])]
    z_x = sum(np.asarray(x, dtype=model.dtype) @ w.data for w, x in blocks)
    h = nn.lstm(z_x, [len(dialog)], model.dlg_u, model.dlg_b)
    expected = model.pred_out(nn.relu(model.pred_hidden(h)))
    np.testing.assert_allclose(logits.data, expected.data, rtol=0, atol=1e-12)


def test_same_turn_different_positions_different_logits():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    features = tiny_turn(VOCAB, ACTIONS, [1, 2], 0)
    logits = _logits(model, _turn_vectors(model, [features] * 2), [features] * 2)
    assert np.abs(logits.data[0] - logits.data[1]).max() > 1e-9


def test_zero_weight_model_is_uniform_and_predicts_action_zero():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    for p in model.parameters():
        p.data = np.zeros_like(p.data)
    dialog = two_turn_dialog(VOCAB, ACTIONS)
    logits = _logits(model, _turn_vectors(model, dialog), dialog)
    np.testing.assert_array_equal(logits.data, np.zeros((2, ACTIONS.size)))
    loss = nn.softmax_ce(logits, [2, 1])
    assert float(loss.data) == pytest.approx(2 * np.log(ACTIONS.size), rel=1e-9)
    assert predict_dialogs(model, [dialog]) == [0, 0]


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def _encode_one_turn(model, features, rng=None):
    """The per-turn encoder: one unpacked turn-LSTM run and one noise draw per turn."""
    if model.config.variant == "HCN":
        return nn.Tensor(model.embedding.data[features.f_turn].mean(axis=0)), None
    zx = nn.matvec(model.turn_w_input, nn.gather_rows(model.embedding, features.f_turn))
    h = nn.gather_rows(nn.lstm(zx, [len(features.f_turn)], model.turn_u, model.turn_b), -1)
    if model.config.variant == "HHCN":
        return h, None
    mu = model.mu_head(h)
    sigma = nn.exp(nn.mul(0.5, model.logvar_head(h)))
    z = mu if rng is None else nn.reparameterize(mu, sigma,
                                                 rng.standard_normal(model.config.latent_size))
    return z, VaeEncoding(mu=mu, sigma=sigma)


def _per_turn_reference(model, dialog, rng=None):
    """Loss, gradients and predictions of the per-turn composition.

    The dialog level runs one turn at a time in numpy, carrying (h, c)
    from turn to turn, with a hand-written backward pass.  The turns are
    encoded one at a time, in turn order, by ``_encode_one_turn``; the
    encoder parameters get the gradient of sum_t <v_t, dL/dv_t> (plus, for
    VHCN, each turn's bag-of-words and KL terms) through the library graph.
    """
    H = model.config.dialog_hidden_size
    n = len(dialog)
    P = {name: p.data for name, p in model.params.items()}
    U, b = P["dialog_lstm.w_recurrent"], P["dialog_lstm.bias"]
    W1, b1 = P["predictor.hidden.weight"], P["predictor.hidden.bias"]
    W2, b2 = P["predictor.out.weight"], P["predictor.out.bias"]
    encoded = [_encode_one_turn(model, features, rng) for features in dialog]
    h, c = np.zeros(H), np.zeros(H)
    loss, preds, cache = 0.0, [], []
    for (vec, _), f in zip(encoded, dialog):
        x = {"turn": vec.data, "bow": bow_vector(f, len(model.vocab), np.float64),
             "ctx": context_vector(f, np.float64), "prev": f.prev_action.astype(np.float64),
             "mask": f.f_mask.astype(np.float64)}
        z = sum(x[k] @ P["dialog_lstm.w_" + k] for k in x) + h @ U + b
        i, fg, g, o = _sig(z[:H]), _sig(z[H:2 * H]), np.tanh(z[2 * H:3 * H]), _sig(z[3 * H:])
        c_t = fg * c + i * g
        h_t = o * np.tanh(c_t)
        a = h_t @ W1 + b1
        r = np.maximum(a, 0.0)
        logits = r @ W2 + b2
        p = np.exp(logits - logits.max())
        p /= p.sum()
        loss -= np.log(p[f.target]) / n
        preds.append(int(np.argmax(logits)))
        cache.append((x, h, c, i, fg, g, o, c_t, h_t, a, r, p, f.target))
        h, c = h_t, c_t

    grads = {name: np.zeros_like(value) for name, value in P.items()}
    d_turn = [None] * n
    dh_next, dc_next = np.zeros(H), np.zeros(H)
    for t in range(n - 1, -1, -1):
        x, h_prev, c_prev, i, fg, g, o, c_t, h_t, a, r, p, target = cache[t]
        dlogits = p.copy()
        dlogits[target] -= 1.0
        dlogits /= n
        grads["predictor.out.weight"] += np.outer(r, dlogits)
        grads["predictor.out.bias"] += dlogits
        da = (W2 @ dlogits) * (a > 0)
        grads["predictor.hidden.weight"] += np.outer(h_t, da)
        grads["predictor.hidden.bias"] += da
        dh = W1 @ da + dh_next
        tc = np.tanh(c_t)
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * fg * (1.0 - fg),
                             dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)])
        for k in x:
            grads["dialog_lstm.w_" + k] += np.outer(x[k], dz)
        grads["dialog_lstm.w_recurrent"] += np.outer(h_prev, dz)
        grads["dialog_lstm.bias"] += dz
        d_turn[t] = P["dialog_lstm.w_turn"] @ dz
        dh_next, dc_next = U @ dz, dc * fg

    nn.zero_grads(model.parameters())
    surrogate = nn.as_tensor(0.0)
    for (vec, enc), f, dv in zip(encoded, dialog, d_turn):
        surrogate = nn.add(surrogate, nn.vsum(nn.mul(vec, dv)))
        if enc is not None:
            x_bow = bow_vector(f, len(model.vocab), np.float64)
            term = nn.add(nn.bow_sigmoid_ce(model.bow_head(vec), x_bow),
                          nn.gaussian_kl(enc.mu, enc.sigma))
            loss += float(term.data) / n
            surrogate = nn.add(surrogate, nn.mul(term, 1.0 / n))
    nn.backward(surrogate)
    for name, param in model.params.items():
        if not name.startswith(("dialog_lstm.", "predictor.")) and param.grad is not None:
            grads[name] = param.grad.copy()
    nn.zero_grads(model.parameters())
    return loss, grads, preds


def _parity_dialogs():
    """Toy dialogs plus the edge cases a packed dialog pass must get right."""
    domain = generate_toy_domain(5, 30, 8)
    data = prepare(domain.lexicon, [domain.train, domain.dev, domain.test])
    feats = data.featurize(domain.train[:4])
    lo, hi = length_bounds_from(feats)
    fallback = data.action_set.fallback_action_id

    def dropped(dialog, ratio, bound, seed):
        config = TurnDropoutConfig(ratio=ratio, length_bounds=(bound, bound))
        return apply_turn_dropout(dialog, config, stream(seed, "parity-td"), fallback, data.vocab)

    one_token = [dc_replace(f, f_turn=f.f_turn[:1]) if t % 2 else f for t, f in enumerate(feats[1])]
    assert len({len(f.f_turn) for f in feats[0]}) > 1 and min(map(len, feats)) > 1
    dialogs = feats + [
        feats[0][:1],                   # one turn, so no previous action
        one_token,                      # one-token turns between longer ones
        dropped(feats[2], 0.5, hi, 1),  # turn-dropout turns at the upper length bound
        dropped(feats[3], 1.0, lo, 2),  # every turn replaced, at the lower bound
    ]
    return data, dialogs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hcn_encoding_equals_per_turn_mean(dtype):
    data, dialogs = _parity_dialogs()
    model = Model(ModelConfig("HCN", embedding_size=8), data.vocab, data.action_set,
                  data.n_context, rng=stream(5, "hcn-mean"), dtype=dtype)
    table = model.embedding.data
    repeated = [dc_replace(f, f_turn=np.full(5, f.f_turn[0])) for f in dialogs[0]]
    # scoring's one call: every turn twice, shuffled so lengths are unsorted
    turns = [f for dialog in dialogs for f in dialog]
    scoring = [turns[i % len(turns)] for i in stream(6, "hcn-mean").permutation(2 * len(turns))]
    lengths = [len(f.f_turn) for f in scoring]
    assert lengths != sorted(lengths, reverse=True)
    for dialog in dialogs + [repeated, scoring]:
        with nn.no_grad() if dialog is scoring else contextlib.nullcontext():
            vecs, encoding = model.encode_turn(dialog)
        expected = np.stack([table[f.f_turn].mean(axis=0) for f in dialog])
        assert vecs.dtype == dtype and not vecs.requires_grad and encoding is None
        np.testing.assert_array_equal(vecs.data, expected)


@pytest.mark.parametrize("variant", ["HCN", "HHCN", "VHCN"])
def test_dialog_pass_matches_per_turn_reference(variant):
    data, dialogs = _parity_dialogs()
    sizes = dict(embedding_size=8, dialog_hidden_size=16, predictor_hidden_size=16)
    if variant == "VHCN":
        sizes["latent_size"] = 4
    model = Model(ModelConfig(variant, **sizes), data.vocab, data.action_set, data.n_context,
                  rng=stream(5, "parity", variant), dtype=np.float64)
    for k, dialog in enumerate(dialogs):
        noise = ReplayNoise([stream(6, "parity", k, t).standard_normal(4)
                             for t in range(len(dialog))])
        ref_loss, ref_grads, _ = _per_turn_reference(model, dialog, noise.reset())
        _, _, ref_preds = _per_turn_reference(model, dialog)
        loss, _ = dialog_loss(model, dialog, noise.reset())
        nn.backward(loss)
        assert abs(float(loss.data) - ref_loss) < 1e-10
        for name, param in model.params.items():
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            np.testing.assert_allclose(grad, ref_grads[name], rtol=0, atol=1e-10, err_msg=name)
        nn.zero_grads(model.parameters())
        assert predict_dialogs(model, [dialog]) == ref_preds


def test_argmax_invariant_to_constant_logit_shift():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    dialog = two_turn_dialog(VOCAB, ACTIONS)
    preds = predict_dialogs(model, [dialog])
    shifted = tiny_model("HCN", VOCAB, ACTIONS)
    for p, q in zip(model.parameters(), shifted.parameters()):
        q.data = p.data.copy()
    shifted.pred_out.bias.data = shifted.pred_out.bias.data + 7.5
    assert predict_dialogs(shifted, [dialog]) == preds


# ----------------------------------------------------------------- losses

def test_loss_vhcn_termwise_oracle():
    rng = stream(4, "terms")
    n_actions, n_vocab, k = 5, 9, 3
    logits = nn.as_tensor(rng.normal(size=n_actions))
    mu = nn.as_tensor(rng.normal(size=k))
    sigma = nn.as_tensor(np.exp(rng.normal(size=k)))
    enc = VaeEncoding(mu=mu, sigma=sigma)
    bow_logits = nn.as_tensor(rng.normal(size=n_vocab))
    x_bow = (rng.random(n_vocab) < 0.4).astype(np.float64)
    total, breakdown = loss_vhcn(logits, 2, enc, bow_logits, x_bow)
    ce = float(nn.softmax_ce(logits, 2).data)
    bow = float(nn.bow_sigmoid_ce(bow_logits, x_bow).data)
    kl = float(nn.gaussian_kl(mu, sigma).data)
    assert float(total.data) == pytest.approx(ce + bow + kl, abs=1e-6)
    assert breakdown == {"action_ce": pytest.approx(ce), "bow_ce": pytest.approx(bow),
                         "kl": pytest.approx(kl)}
    # every term is nonnegative, so the total dominates each one
    for term in (ce, bow, kl):
        assert float(total.data) >= term - 1e-12


def test_loss_vhcn_kl_zero_at_prior():
    k = 3
    enc = VaeEncoding(mu=nn.as_tensor(np.zeros(k)), sigma=nn.as_tensor(np.ones(k)))
    total, breakdown = loss_vhcn(nn.as_tensor(np.zeros(2)), 0, enc,
                                 nn.as_tensor(np.zeros(4)), np.zeros(4))
    assert breakdown["kl"] == 0.0


# -------------------------------------------------- end-to-end grad checks

def _loss_fn(model, dialog, noise=None):
    def fn():
        rng = noise.reset() if noise is not None else None
        loss, _ = dialog_loss(model, dialog, rng)
        return loss
    return fn


@pytest.mark.parametrize("variant", ["HCN", "HHCN"])
def test_end_to_end_gradients_ce_variants(variant):
    # trainable parameters only: the frozen HCN table accumulates no
    # gradient by contract; step 1e-4 keeps float64 cancellation noise
    # well under the 1e-4 tolerance
    model = tiny_model(variant, VOCAB, ACTIONS)
    dialog = two_turn_dialog(VOCAB, ACTIONS)
    params = [p for p in model.parameters() if p.trainable]
    err = nn.grad_check(_loss_fn(model, dialog), params, step=1e-4)
    assert err < 1e-4


def test_end_to_end_gradients_vhcn():
    model = tiny_model("VHCN", VOCAB, ACTIONS)
    dialog = two_turn_dialog(VOCAB, ACTIONS)
    k = model.config.latent_size
    noise = ReplayNoise([stream(9, "noise", i).standard_normal(k) for i in range(len(dialog))])
    params = [p for p in model.parameters() if p.trainable]
    err = nn.grad_check(_loss_fn(model, dialog, noise), params, step=1e-4)
    assert err < 1e-4


def test_frozen_embedding_gets_zero_gradient():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    dialog = two_turn_dialog(VOCAB, ACTIONS)
    loss, _ = dialog_loss(model, dialog)
    nn.backward(loss)
    assert model.embedding.grad is None
    assert not model.embedding.trainable
    assert model.dlg_w_bow.grad is not None


@pytest.mark.parametrize("variant", ["HCN", "HHCN", "VHCN"])
def test_every_trainable_parameter_gets_a_gradient(variant):
    # Adam moves every trainable parameter on every step, which is right
    # only if no dialog leaves one of them without a gradient
    data, dialogs = _parity_dialogs()
    sizes = dict(embedding_size=8, dialog_hidden_size=16, predictor_hidden_size=16)
    if variant == "VHCN":
        sizes["latent_size"] = 4
    model = Model(ModelConfig(variant, **sizes), data.vocab, data.action_set, data.n_context,
                  rng=stream(5, "every-grad", variant))
    for k, dialog in enumerate(dialogs):
        nn.zero_grads(model.parameters())
        loss, _ = dialog_loss(model, dialog, stream(6, "every-grad", k))
        nn.backward(loss)
        missing = [p.name for p in model.parameters() if p.trainable and p.grad is None]
        assert missing == [], "dialog %d" % k
        assert (model.embedding.grad is None) == (variant == "HCN")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", ["HCN", "HHCN", "VHCN"])
def test_every_graph_value_and_gradient_has_the_model_dtype(variant, dtype):
    # a float64 value in a float32 graph runs every op after it in float64
    model = tiny_model(variant, VOCAB, ACTIONS, dtype=dtype)
    loss, _ = dialog_loss(model, two_turn_dialog(VOCAB, ACTIONS), stream(6, "graph-dtype"))
    nn.backward(loss)
    seen, stack, wrong = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        for what, array in (("value", node.data), ("gradient", node.grad)):
            if array is not None and array.dtype != dtype:
                wrong.append("%s %s of shape %s" % (array.dtype, what, array.shape))
    assert len(seen) > 10 and wrong == []


@pytest.mark.parametrize("variant", ["HCN", "HHCN", "VHCN"])
def test_adam_trains_views_of_its_flat_buffers(variant):
    model = tiny_model(variant, VOCAB, ACTIONS)
    before = {name: p.data.copy() for name, p in model.params.items()}
    optimizer = nn.Adam(model.parameters())
    trainable = [p for p in model.parameters() if p.trainable]
    assert optimizer.values.size == sum(p.data.size for p in trainable)
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)
        assert np.shares_memory(p.data, optimizer.values) == p.trainable, name
        if p.trainable:
            assert np.shares_memory(p.grad, optimizer.grads), name
    assert model.embedding.trainable == (variant != "HCN")
    loss, _ = dialog_loss(model, two_turn_dialog(VOCAB, ACTIONS), stream(6, "views"))
    nn.backward(loss)
    # backward accumulated straight into the flat gradient buffer
    np.testing.assert_array_equal(np.concatenate([p.grad.ravel() for p in trainable]),
                                  optimizer.grads)
    assert optimizer.grads.any()
    if variant == "HCN":
        assert model.embedding.grad is None


# -------------------------------------------------------------- checkpoints

@pytest.fixture(scope="module")
def toy_trained(tmp_path_factory):
    domain = generate_toy_domain(31, 40, 8)
    data = prepare(domain.lexicon, [domain.train, domain.dev, domain.test])
    vocab, actions = data.vocab, data.action_set
    train_feats = data.featurize(domain.train)
    dev_feats = data.featurize(domain.dev)
    config = ModelConfig("HCN", embedding_size=12, dialog_hidden_size=16,
                         predictor_hidden_size=16)
    tc = TrainConfig(turn_dropout_ratio=0.0, max_epochs=8, patience=8, seed=5)
    model, history = train_model(config, tc, train_feats, dev_feats, vocab, actions,
                                 n_context=data.n_context)
    return domain, vocab, actions, model, dev_feats


def test_checkpoint_round_trip(tmp_path, toy_trained):
    domain, vocab, actions, model, dev_feats = toy_trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon, extra={"train.seed": "5"})
    loaded = load_checkpoint(path)
    assert loaded.config.variant == "HCN"
    assert loaded.vocab == vocab
    assert loaded.action_set.templates == actions.templates
    assert loaded.extra == {"train.seed": "5"}
    restored = model_from_checkpoint(loaded)
    for name, p in model.params.items():
        np.testing.assert_array_equal(restored.params[name].data, p.data)
    for dialog in dev_feats:
        assert predict_dialogs(restored, [dialog]) == predict_dialogs(model, [dialog])


@pytest.mark.parametrize("variant", ["HCN", "HHCN", "VHCN"])
def test_restore_draws_nothing(tmp_path, monkeypatch, toy_trained, variant):
    domain, vocab, actions, _, dev_feats = toy_trained
    config = ModelConfig(variant, embedding_size=6, dialog_hidden_size=8, predictor_hidden_size=8,
                         latent_size=3 if variant == "VHCN" else None)
    model = Model(config, vocab, actions, n_context=len(domain.lexicon.slot_types) + 1,
                  rng=stream(4, "restore", variant))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    loaded = load_checkpoint(path)

    def no_draws(*args, **kwargs):
        raise AssertionError("a restored model drew initial weights")

    monkeypatch.setattr(nn, "glorot_uniform", no_draws)
    monkeypatch.setattr(nn, "orthogonal", no_draws)
    restored = model_from_checkpoint(loaded)
    assert list(restored.params) == list(model.params)
    for name, p in model.params.items():
        assert restored.params[name].trainable == p.trainable
        np.testing.assert_array_equal(restored.params[name].data, p.data)
    assert predict_dialogs(restored, [dev_feats[0]]) == predict_dialogs(model, [dev_feats[0]])


def test_restore_rejects_arrays_that_do_not_fit_the_variant(tmp_path, toy_trained):
    domain, _, _, model, _ = toy_trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    loaded = load_checkpoint(path)
    hhcn = dc_replace(loaded, config=ModelConfig("HHCN", embedding_size=12,
                                                 dialog_hidden_size=16, predictor_hidden_size=16))
    with pytest.raises(CheckpointError, match="parameter inventory"):
        model_from_checkpoint(hhcn)
    extra = dc_replace(loaded, arrays={**loaded.arrays, "spare": np.zeros(2, np.float32)})
    with pytest.raises(CheckpointError, match="parameter inventory"):
        model_from_checkpoint(extra)
    wrong = dict(loaded.arrays)
    wrong["predictor.out.bias"] = np.zeros(3, dtype=np.float32)
    with pytest.raises(CheckpointError, match="shape mismatch for parameter predictor.out.bias"):
        model_from_checkpoint(dc_replace(loaded, arrays=wrong))


@pytest.mark.parametrize("variant", ["HCN", "HHCN", "VHCN"])
def test_restored_model_holds_the_loaded_arrays(tmp_path, toy_trained, variant):
    domain, vocab, actions, _, dev_feats = toy_trained
    config = ModelConfig(variant, embedding_size=6, dialog_hidden_size=8, predictor_hidden_size=8,
                         latent_size=3 if variant == "VHCN" else None)
    n_context = len(domain.lexicon.slot_types) + 1
    model = Model(config, vocab, actions, n_context, rng=stream(4, "shared", variant))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    loaded = load_checkpoint(path)
    saved = {name: p.data.copy() for name, p in model.params.items()}
    restored = model_from_checkpoint(loaded)
    for name, p in restored.params.items():
        assert np.shares_memory(p.data, loaded.arrays[name]), name
        assert p.data.flags.aligned and p.data.flags.writeable, name
    # a float64 restore converts, so it cannot share
    wide = Model(config, vocab, actions, n_context, dtype=np.float64, arrays=loaded.arrays)
    assert not any(np.shares_memory(p.data, loaded.arrays[name])
                   for name, p in wide.params.items())
    # training the restored model updates Adam's buffer, never the loaded arrays
    optimizer = nn.Adam(restored.parameters())
    loss, _ = dialog_loss(restored, dev_feats[0], rng=stream(4, "noise"))
    nn.backward(loss)
    optimizer.step()
    assert any(not np.array_equal(p.data, saved[name]) for name, p in restored.params.items())
    for name, array in loaded.arrays.items():
        np.testing.assert_array_equal(array, saved[name], err_msg=name)


def test_load_and_restore_hold_the_weights_about_twice(tmp_path, toy_trained):
    # the file's bytes and one copy of each array; a restore adds no copy
    domain, vocab, actions, _, _ = toy_trained
    model = Model(ModelConfig("HHCN"), vocab, actions, len(domain.lexicon.slot_types) + 1,
                  rng=stream(4, "peak"))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        restored = model_from_checkpoint(load_checkpoint(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(restored.params) == list(model.params)
    assert peak < 2.5 * size, (peak, size)


@pytest.mark.parametrize("dims, message", [
    # the element count overflows int64: np.prod wrapped it to 0
    (b"1099511627776,1099511627776", "truncated parameter data for embedding"),
    (b"0,1000000000000000000000000000000", "bad shape for parameter embedding"),
])
def test_impossible_parameter_shape_is_a_checkpoint_error(tmp_path, toy_trained, dims, message):
    domain, _, _, model, _ = toy_trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    _edit_header(path, lambda lines: [b"param = embedding " + dims
                                      if l.startswith(b"param = embedding ") else l
                                      for l in lines])
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_detects_tampering(tmp_path, toy_trained):
    domain, vocab, actions, model, _ = toy_trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    blob = path.read_bytes()
    # corrupt one vocabulary token in the header
    sample = vocab.itos[5].encode()
    path.write_bytes(blob.replace(b"vocab_hash", b"vocab_hash", 1).replace(sample, b"@" * len(sample), 1))
    with pytest.raises(Exception):
        load_checkpoint(path)


def test_header_only_checkpoint_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(b"robusthcn-checkpoint 1\nend_header\n")
    with pytest.raises(CheckpointError, match="lacks vocab"):
        load_checkpoint(path)


def test_checkpoint_without_scalars_is_a_checkpoint_error(tmp_path, toy_trained):
    domain, _, _, model, _ = toy_trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    header, _, payload = path.read_bytes().partition(b"end_header\n")
    kept = [line for line in header.split(b"\n") if not line.startswith(b"fallback_action_id")]
    path.write_bytes(b"\n".join(kept) + b"end_header\n" + payload)
    with pytest.raises(CheckpointError, match="fallback_action_id"):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [
    b"robusthcn-checkpoint\nend_header\n",
    b"robusthcn-checkpoint one\nend_header\n",
    b"robusthcn-checkpoint 1\nparam = x 3,y\nend_header\n",
    b"robusthcn-checkpoint 1\nvocab = \xff\nend_header\n",
])
def test_malformed_header_is_a_checkpoint_error(tmp_path, header):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(header)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("line, message", [
    (b"fallback_action_id = 99", "outside"),
    (b"lexicon = no tab here", "lexicon"),
    (b"variant = XCN", "model configuration"),
    (b"vocab_size = 3", "vocab_size = 3, but the header lists"),
    (b"n_actions = 999", "n_actions = 999, but the header lists"),
    (b"n_actions = -1", "n_actions is not a non-negative integer"),
])
def test_bad_header_values_are_checkpoint_errors(tmp_path, toy_trained, line, message):
    domain, _, _, model, _ = toy_trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    header, _, payload = path.read_bytes().partition(b"end_header\n")
    key = line.split(b" = ")[0]
    lines = [l for l in header.split(b"\n") if not l.startswith(key + b" = ")]
    path.write_bytes(b"\n".join(lines[:1] + [line] + lines[1:]) + b"end_header\n" + payload)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_n_context_must_fit_the_lexicon(tmp_path, toy_trained):
    # drop every lexicon line of one slot type: the features the model
    # reads would be one column short
    domain, _, _, model, _ = toy_trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    header, _, payload = path.read_bytes().partition(b"end_header\n")
    slot = domain.lexicon.slot_types[0].encode()
    kept = [line for line in header.split(b"\n")
            if not line.startswith(b"lexicon = " + slot + b"\t")]
    path.write_bytes(b"\n".join(kept) + b"end_header\n" + payload)
    n_slots = len(domain.lexicon.slot_types)
    with pytest.raises(CheckpointError, match="n_context %d .* %d slot types" % (n_slots + 1, n_slots - 1)):
        load_checkpoint(path)


def _edit_header(path, edit):
    header, _, payload = path.read_bytes().partition(b"end_header\n")
    lines = edit(header.split(b"\n"))
    path.write_bytes(b"\n".join(lines) + b"end_header\n" + payload)


def _as_old_format(path, version):
    # formats 1 and 2 store every 2-D weight but the embedding (out, in),
    # and format 1 has no lexicon hash
    header, _, payload = path.read_bytes().partition(b"end_header\n")
    lines = header.split(b"\n")
    assert lines[0] == b"robusthcn-checkpoint 3"
    kept, blobs, offset = [b"robusthcn-checkpoint %d" % version], [], 0
    for line in lines[1:]:
        if version == 1 and line.startswith(b"lexicon_hash = "):
            continue
        if line.startswith(b"param = "):
            name, dims = line[len(b"param = "):].rsplit(b" ", 1)
            shape = tuple(int(d) for d in dims.split(b","))
            array = np.frombuffer(payload, "<f4", int(np.prod(shape)), offset).reshape(shape)
            offset += array.nbytes
            if array.ndim == 2 and name != b"embedding":
                array = array.T
                line = b"param = %s %d,%d" % ((name,) + array.shape)
            blobs.append(np.ascontiguousarray(array).tobytes())
        kept.append(line)
    assert offset == len(payload)
    path.write_bytes(b"\n".join(kept) + b"end_header\n" + b"".join(blobs))


def _edit_one_lexicon_value(lines):
    # same slot type, another value: n_context still fits
    at = next(i for i, l in enumerate(lines) if l.startswith(b"lexicon = "))
    return lines[:at] + [lines[at] + b"x"] + lines[at + 1:]


def test_checkpoint_rejects_an_edited_lexicon_value(tmp_path, toy_trained):
    domain, _, _, model, _ = toy_trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    _edit_header(path, _edit_one_lexicon_value)
    with pytest.raises(CheckpointError, match="lexicon hash"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2])
def test_old_format_checkpoint_loads_and_predicts_as_before(tmp_path, toy_trained, version):
    domain, vocab, actions, trained, dev_feats = toy_trained
    vhcn = Model(ModelConfig("VHCN", embedding_size=6, latent_size=3, dialog_hidden_size=8,
                             predictor_hidden_size=8),
                 vocab, actions, n_context=len(domain.lexicon.slot_types) + 1,
                 rng=stream(4, "old-format"))
    for model in (trained, vhcn):
        path = tmp_path / ("%s.ckpt" % model.config.variant)
        save_checkpoint(path, model, domain.lexicon)
        _as_old_format(path, version)
        loaded = load_checkpoint(path)
        assert loaded.lexicon == domain.lexicon and loaded.vocab == vocab
        restored = model_from_checkpoint(loaded)
        for name, p in model.params.items():
            np.testing.assert_array_equal(restored.params[name].data, p.data, err_msg=name)
            assert restored.params[name].data.flags.c_contiguous, name
        for dialog in dev_feats:
            assert predict_dialogs(restored, [dialog]) == predict_dialogs(model, [dialog])
    _edit_header(path, _edit_one_lexicon_value)
    if version == 1:
        # format 1 has no hash to check an edited lexicon against
        assert load_checkpoint(path).lexicon != domain.lexicon
    else:
        with pytest.raises(CheckpointError, match="lexicon hash"):
            load_checkpoint(path)


def test_checkpoint_format_2_requires_the_lexicon_hash(tmp_path, toy_trained):
    domain, _, _, model, _ = toy_trained
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, domain.lexicon)
    _edit_header(path, lambda lines: [l for l in lines if not l.startswith(b"lexicon_hash = ")])
    with pytest.raises(CheckpointError, match="lacks lexicon_hash"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    vocab, actions = tiny_vocab(6), tiny_actions(3)
    config = ModelConfig("VHCN", embedding_size=2, latent_size=2, dialog_hidden_size=2,
                         predictor_hidden_size=2)
    model = Model(config, vocab, actions, n_context=2, rng=stream(0, "small"))
    path = tmp_path_factory.mktemp("ckpt") / "small.ckpt"
    lexicon = Lexicon({"s0": ("w01",)})
    save_checkpoint(path, model, lexicon, extra={"train.seed": "1"})
    return path.read_bytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_checkpoint_loads_or_raises_checkpoint_error(tmp_path, small_checkpoint, data):
    blob = bytearray(small_checkpoint)
    cut = data.draw(st.integers(1, len(blob)), label="length")
    del blob[cut:]
    flips = data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), max_size=4), label="bits")
    for bit in flips:
        blob[bit // 8] ^= 1 << (bit % 8)
    path = tmp_path / "corrupt.ckpt"
    path.write_bytes(bytes(blob))
    try:
        model_from_checkpoint(load_checkpoint(path))
    except CheckpointError:
        pass


def test_hash_compatibility_check(toy_trained):
    domain, vocab, actions, model, _ = toy_trained
    check_compatible(model, vocab, actions)
    other_vocab = build_vocabulary([[d for d in domain.train[:2]]])
    with pytest.raises(HashMismatchError):
        check_compatible(model, other_vocab, actions)


def test_predictions_repeatable_for_all_variants(toy_trained):
    domain, vocab, actions, _, dev_feats = toy_trained
    for variant in ("HCN", "HHCN", "VHCN"):
        model = tiny_model(variant, vocab, actions, dtype=np.float32, seed=3)
        # n_context of the tiny model differs; rebuild against the real domain
        config = model.config
        model = Model(config, vocab, actions, n_context=len(domain.lexicon.slot_types) + 1,
                      rng=stream(3, "repeat", variant), dtype=np.float32)
        a = [predict_dialogs(model, [d]) for d in dev_feats]
        b = [predict_dialogs(model, [d]) for d in dev_feats]
        assert a == b
