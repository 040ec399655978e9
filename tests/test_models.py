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
    predict_dialog,
    save_checkpoint,
)
from robusthcn.seeding import stream
from robusthcn.toy import generate_toy_domain
from robusthcn.train import TrainConfig, train_model

from util import ReplayNoise, tiny_actions, tiny_model, tiny_turn, tiny_vocab, two_turn_dialog

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
    vec, encoding = model.encode_turn(features)
    np.testing.assert_allclose(vec.data, [0.5, 0.5, 0, 0, 0, 0])
    assert encoding is None


def test_hcn_encoding_permutation_invariant():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    a = model.encode_turn(tiny_turn(VOCAB, ACTIONS, [2, 5, 7], 0))[0]
    b = model.encode_turn(tiny_turn(VOCAB, ACTIONS, [7, 2, 5], 0))[0]
    np.testing.assert_allclose(a.data, b.data, rtol=1e-12)


def test_hhcn_encoding_is_order_sensitive():
    model = tiny_model("HHCN", VOCAB, ACTIONS)
    a = model.encode_turn(tiny_turn(VOCAB, ACTIONS, [2, 5, 7], 0))[0]
    b = model.encode_turn(tiny_turn(VOCAB, ACTIONS, [7, 2, 5], 0))[0]
    assert np.abs(a.data - b.data).max() > 1e-6


def test_vhcn_infer_deterministic():
    model = tiny_model("VHCN", VOCAB, ACTIONS)
    features = tiny_turn(VOCAB, ACTIONS, [1, 2, 3], 0)
    a, enc_a = model.encode_turn(features)
    b, enc_b = model.encode_turn(features)
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(enc_a.mu.data, enc_b.mu.data)
    np.testing.assert_array_equal(a.data, enc_a.mu.data)  # z = mu in infer mode
    assert (enc_a.sigma.data > 0).all()


def test_vhcn_train_mode_uses_noise():
    # an rng makes VHCN sample; without one it returns the posterior mean
    model = tiny_model("VHCN", VOCAB, ACTIONS)
    features = tiny_turn(VOCAB, ACTIONS, [1, 2, 3], 0)
    a, enc_a = model.encode_turn(features, stream(1, "n"))
    b, _ = model.encode_turn(features, stream(2, "n"))
    assert np.abs(a.data - b.data).max() > 1e-9
    assert np.abs(a.data - enc_a.mu.data).max() > 1e-9
    mean, _ = model.encode_turn(features)
    np.testing.assert_array_equal(mean.data, enc_a.mu.data)


# ------------------------------------------------------------ dialog_step

def test_all_ones_mask_is_noop():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    features = tiny_turn(VOCAB, ACTIONS, [1, 2], 0)
    vec, _ = model.encode_turn(features)
    state = model.initial_state()
    _, logits = model.dialog_step(state, vec, features)
    z_x = nn.add(
        nn.add(nn.matvec(model.dlg_w_turn, vec),
               nn.gather_cols_sum(model.dlg_w_bow, features.bow_indices)),
        nn.add(nn.matvec(model.dlg_w_ctx, nn.as_tensor(features.f_ctx.vector(model.dtype))),
               nn.add(nn.gather_cols_sum(model.dlg_w_prev, np.nonzero(features.prev_action)[0]),
                      nn.matvec(model.dlg_w_mask, nn.as_tensor(features.f_mask.astype(model.dtype))))),
    )
    h = nn.slice1d(nn.lstm(z_x, state, model.dlg_u, model.dlg_b), 0, model.config.dialog_hidden_size)
    hidden = model.pred_out(nn.relu(model.pred_hidden(h)))
    np.testing.assert_array_equal(logits.data, hidden.data)


def test_same_turn_different_positions_different_logits():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    features = tiny_turn(VOCAB, ACTIONS, [1, 2], 0)
    vec, _ = model.encode_turn(features)
    state = model.initial_state()
    state1, logits1 = model.dialog_step(state, vec, features)
    _, logits2 = model.dialog_step(state1, vec, features)
    assert np.abs(logits1.data - logits2.data).max() > 1e-9


def test_zero_weight_model_is_uniform_and_predicts_action_zero():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    for p in model.parameters():
        p.data = np.zeros_like(p.data)
    dialog = two_turn_dialog(VOCAB, ACTIONS)
    vec, _ = model.encode_turn(dialog[0])
    _, logits = model.dialog_step(model.initial_state(), vec, dialog[0])
    np.testing.assert_array_equal(logits.data, np.zeros(ACTIONS.size))
    loss = nn.softmax_ce(logits, 2)
    assert float(loss.data) == pytest.approx(np.log(ACTIONS.size), rel=1e-9)
    assert predict_dialog(model, dialog) == [0, 0]


def test_argmax_invariant_to_constant_logit_shift():
    model = tiny_model("HCN", VOCAB, ACTIONS)
    dialog = two_turn_dialog(VOCAB, ACTIONS)
    preds = predict_dialog(model, dialog)
    shifted = tiny_model("HCN", VOCAB, ACTIONS)
    for p, q in zip(model.parameters(), shifted.parameters()):
        q.data = p.data.copy()
    shifted.pred_out.bias.data = shifted.pred_out.bias.data + 7.5
    assert predict_dialog(shifted, dialog) == preds


# ----------------------------------------------------------------- losses

def test_loss_vhcn_termwise_oracle():
    rng = stream(4, "terms")
    n_actions, n_vocab, k = 5, 9, 3
    logits = nn.as_tensor(rng.normal(size=n_actions))
    mu = nn.as_tensor(rng.normal(size=k))
    sigma = nn.as_tensor(np.exp(rng.normal(size=k)))
    enc = VaeEncoding(mu=mu, sigma=sigma, z=mu)
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
    enc = VaeEncoding(mu=nn.as_tensor(np.zeros(k)), sigma=nn.as_tensor(np.ones(k)),
                      z=nn.as_tensor(np.zeros(k)))
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
        assert predict_dialog(restored, dialog) == predict_dialog(model, dialog)


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
        a = [predict_dialog(model, d) for d in dev_feats]
        b = [predict_dialog(model, d) for d in dev_feats]
        assert a == b
