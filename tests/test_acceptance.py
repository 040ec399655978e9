"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 6 needs externally supplied corpora and is skipped
unless ROBUSTHCN_BABI_DIR points at them (see README).
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from robusthcn import nn
from robusthcn.augment import (
    AugmentationConfig,
    augment_corpus,
    load_ood_pool,
    load_segment_pool,
    sample_ood_block,
)
from robusthcn.corpus import Dialog, OodLabel, Turn, prepare
from robusthcn.cli import main as cli_main
from robusthcn.evaluation import evaluate_model, ood_f1, per_utterance_accuracy
from robusthcn.models import ModelConfig, dialog_loss
from robusthcn.seeding import derive_seed, stream
from robusthcn.toy import generate_foreign_dialogs, generate_toy_domain, segment_pool_text
from robusthcn.train import TrainConfig, train_model
from robusthcn.turndrop import TurnDropoutConfig, apply_turn_dropout

from util import (
    ReplayNoise,
    read_dialog_file,
    read_lexicon_file,
    tiny_actions,
    tiny_model,
    tiny_vocab,
    two_turn_dialog,
)


@contextmanager
def criterion(number, title):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print("[acceptance] criterion %d FAIL: %s" % (number, title))
        raise
    print("[acceptance] criterion %d PASS: %s (%.1fs)"
          % (number, title, time.perf_counter() - started))


def _featurize_all(domain, extra_vocab_corpora=()):
    data = prepare(domain.lexicon, [domain.train, domain.dev, domain.test],
                   extra_vocab_corpora)
    return data.vocab, data.action_set, data.n_context, data.featurize


def test_criterion_1_gradient_correctness():
    with criterion(1, "finite-difference checks on all three objectives < 1e-4"):
        started = time.perf_counter()
        vocab, actions = tiny_vocab(10), tiny_actions(4)
        dialog = two_turn_dialog(vocab, actions)
        errors = {}
        for variant in ("HCN", "HHCN", "VHCN"):
            model = tiny_model(variant, vocab, actions, dtype=np.float64)
            if variant == "VHCN":
                k = model.config.latent_size
                noise = ReplayNoise(
                    [stream(1, "fd-noise", i).standard_normal(k) for i in range(len(dialog))]
                )

                def fn():
                    loss, _ = dialog_loss(model, dialog, noise.reset())
                    return loss
            else:
                def fn():
                    loss, _ = dialog_loss(model, dialog)
                    return loss

            params = [p for p in model.parameters() if p.trainable]
            errors[variant] = nn.grad_check(fn, params, step=1e-4)
        assert all(err < 1e-4 for err in errors.values()), errors
        assert time.perf_counter() - started < 60.0


def test_criterion_2_closed_form_kl():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    with criterion(2, "closed-form KL matches quadrature; KL >= 0"):
        exact = nn.gaussian_kl(nn.as_tensor(np.zeros(3)), nn.as_tensor(np.ones(3)))
        assert float(exact.data) == 0.0

        def integrand(x):
            q = np.exp(-x * x / 8.0) / np.sqrt(8.0 * np.pi)
            return q * (3.0 * x * x / 8.0 - np.log(2.0))

        oracle, _ = scipy_integrate.quad(integrand, -60, 60)
        closed = float(nn.gaussian_kl(nn.as_tensor(np.array([0.0])),
                                      nn.as_tensor(np.array([2.0]))).data)
        assert closed == pytest.approx(oracle, abs=1e-3)
        assert closed == pytest.approx(0.8069, abs=1e-3)

        rng = stream(2, "kl-draws")
        for _ in range(10_000):
            mu = rng.normal(size=4) * 3
            sigma = np.exp(rng.normal(size=4))
            assert float(nn.gaussian_kl(nn.as_tensor(mu), nn.as_tensor(sigma)).data) >= 0.0


def test_criterion_3_augmentation_statistics():
    scipy_stats = pytest.importorskip("scipy.stats")
    with criterion(3, "block rate 0.2 +- 0.02, mean length 5/3 +- 0.05, geometric GOF"):
        started = time.perf_counter()
        config = AugmentationConfig(p_ood_start=0.2, p_ood_cont=0.4, seed=33)
        pool = load_ood_pool(generate_foreign_dialogs(3, n_per_domain=20))
        segments = load_segment_pool(segment_pool_text())

        turns = tuple(
            Turn(user_tokens=("turn", str(i)), system_utterance="reply %d" % i,
                 system_action=i)
            for i in range(10)
        )
        dialogs = [Dialog(id=i, turns=turns) for i in range(1100)]  # 11000 turns
        _, stats = augment_corpus(dialogs, config, pool, segments)
        assert stats.original_turns >= 10_000
        assert abs(stats.block_start_rate - 0.2) <= 0.02
        assert abs(stats.mean_block_length - 5.0 / 3.0) <= 0.05

        rng = stream(3, "gof")
        n = 100_000
        lengths = np.array(
            [len(sample_ood_block(rng, config, pool)) for _ in range(n)]
        )
        p = config.p_ood_cont
        k_max = 1
        while n * (p ** k_max) * (1 - p) >= 5:
            k_max += 1
        observed = np.array(
            [np.sum(lengths == k) for k in range(1, k_max)] + [np.sum(lengths >= k_max)],
            dtype=float,
        )
        expected = np.array(
            [n * (p ** (k - 1)) * (1 - p) for k in range(1, k_max)]
            + [n * (p ** (k_max - 1))]
        )
        assert scipy_stats.chisquare(observed, expected).pvalue > 0.01
        assert time.perf_counter() - started < 10.0


def test_criterion_4_turn_dropout_contract():
    with criterion(4, "turn dropout: identity at 0, full at 1, 0.40 +- 0.02 rate"):
        domain = generate_toy_domain(4, 40, 8)
        vocab, actions, n_context, feats = _featurize_all(domain)
        train_feats = feats(domain.train)
        fallback = actions.fallback_action_id
        bounds = (1, max(len(t.f_turn) for d in train_feats for t in d))

        cfg0 = TurnDropoutConfig(ratio=0.0, length_bounds=bounds)
        for dialog in train_feats:
            out = apply_turn_dropout(dialog, cfg0, stream(4, "a"), fallback, vocab)
            assert all(a is b for a, b in zip(out, dialog))

        cfg1 = TurnDropoutConfig(ratio=1.0, length_bounds=bounds)
        for dialog in train_feats:
            out = apply_turn_dropout(dialog, cfg1, stream(4, "b"), fallback, vocab)
            for original, replaced in zip(dialog, out):
                assert replaced.target == fallback
                assert replaced.f_ctx is original.f_ctx
                assert replaced.f_mask is original.f_mask
                assert replaced.prev_action is original.prev_action
                assert list(replaced.bow_indices) == sorted(set(replaced.f_turn.tolist()))

        cfg = TurnDropoutConfig(ratio=0.4, length_bounds=bounds)
        rng = stream(4, "c")
        replaced = total = 0
        while total < 10_000:
            for dialog in train_feats:
                out = apply_turn_dropout(dialog, cfg, rng, fallback, vocab)
                replaced += sum(1 for a, b in zip(out, dialog) if a is not b)
                total += len(dialog)
        assert abs(replaced / total - 0.4) <= 0.02


def test_criterion_5_mechanism_reproduction_desk_scale():
    with criterion(5, "turn dropout flips OOD handling on the toy domain"):
        started = time.perf_counter()
        seed = 20250809
        domain = generate_toy_domain(seed, 200, 20)
        foreign = generate_foreign_dialogs(derive_seed(seed, "foreign"))
        pool = load_ood_pool(foreign)
        segments = load_segment_pool(segment_pool_text())
        aug_config = AugmentationConfig(p_ood_start=0.2, p_ood_cont=0.4,
                                        seed=derive_seed(seed, "augment"))
        test_aug, stats = augment_corpus(domain.test, aug_config, pool, segments)
        assert stats.inserted_turns > 0 and stats.segment_turns > 0

        vocab, actions, n_context, feats = _featurize_all(
            domain, extra_vocab_corpora=[foreign, segments.as_dialogs()]
        )
        train_f, dev_f = feats(domain.train), feats(domain.dev)
        plain_f, aug_f = feats(domain.test), feats(test_aug)

        config = ModelConfig("HCN")
        rows = {}
        for ratio in (0.0, 0.4):
            tc = TrainConfig(turn_dropout_ratio=ratio, max_epochs=120, patience=20,
                             seed=derive_seed(seed, "train"))
            model, _ = train_model(config, tc, train_f, dev_f, vocab, actions, n_context)
            rows[ratio] = (
                evaluate_model(model, plain_f, vocab, actions),
                evaluate_model(model, aug_f, vocab, actions),
            )

        plain_no_td, aug_no_td = rows[0.0]
        plain_td, aug_td = rows[0.4]
        print("        no-TD: plain=%.3f ood_acc=%.3f ood_f1=%.3f"
              % (plain_no_td.overall_acc, aug_no_td.ood_acc, aug_no_td.ood_f1))
        print("        TD-0.4: plain=%.3f ood_acc=%.3f ood_f1=%.3f"
              % (plain_td.overall_acc, aug_td.ood_acc, aug_td.ood_f1))
        assert aug_no_td.ood_acc <= 0.1
        assert aug_no_td.ood_f1 <= 0.1
        assert aug_td.ood_acc >= 0.7
        assert aug_td.ood_f1 >= 0.7
        assert plain_td.overall_acc >= 0.9 * plain_no_td.overall_acc
        assert time.perf_counter() - started < 600.0


def _babi_path(name):
    root = os.environ.get("ROBUSTHCN_BABI_DIR")
    if not root:
        return None
    path = os.path.join(root, name)
    return path if os.path.exists(path) else None


@pytest.mark.skipif(
    not os.environ.get("ROBUSTHCN_BABI_DIR"),
    reason="criterion 6 needs user-supplied bAbI Task 6 data (ROBUSTHCN_BABI_DIR)",
)
def test_criterion_6_conditional_babi_task6():
    required = {
        "train": "task6-trn.txt", "dev": "task6-dev.txt", "test": "task6-tst.txt",
        "lexicon": "lexicon.txt", "segment": "segment_pool.txt",
    }
    paths = {key: _babi_path(name) for key, name in required.items()}
    pool_paths = [p for p in (
        _babi_path("ood_frames.txt"), _babi_path("ood_kvret.txt"),
        _babi_path("ood_dstc1.txt"),
    ) if p]
    missing = [name for key, name in required.items() if paths[key] is None]
    if missing or not pool_paths:
        pytest.skip("ROBUSTHCN_BABI_DIR is missing: %s" % ", ".join(missing or ["ood pools"]))

    with criterion(6, "bAbI Task 6 + OOD: non-TD 0.0 exactly, TD-HCN >= 0.65"):
        started = time.perf_counter()
        train_d = read_dialog_file(paths["train"])
        dev_d = read_dialog_file(paths["dev"])
        test_d = read_dialog_file(paths["test"])
        lexicon = read_lexicon_file(paths["lexicon"])
        foreign = []
        for p in pool_paths:
            foreign.extend(read_dialog_file(p))
        with open(paths["segment"], encoding="utf-8") as fh:
            segments = load_segment_pool(fh.read())
        pool = load_ood_pool(foreign)

        aug_config = AugmentationConfig(p_ood_start=0.2, p_ood_cont=0.4, seed=606)
        test_aug, _ = augment_corpus(test_d, aug_config, pool, segments)

        data = prepare(lexicon, [train_d, dev_d, test_d], [foreign, segments.as_dialogs()])
        train_f, dev_f = data.featurize(train_d), data.featurize(dev_d)
        plain_f, aug_f = data.featurize(test_d), data.featurize(test_aug)

        config = ModelConfig("HCN")
        rows = {}
        for ratio in (0.0, 0.4):
            tc = TrainConfig(turn_dropout_ratio=ratio, max_epochs=60, patience=20, seed=607)
            model, _ = train_model(config, tc, train_f, dev_f, data.vocab, data.action_set,
                                   data.n_context)
            rows[ratio] = (evaluate_model(model, plain_f), evaluate_model(model, aug_f))

        _, aug_no_td = rows[0.0]
        plain_td, aug_td = rows[0.4]
        assert aug_no_td.ood_acc == 0.0
        assert aug_no_td.ood_f1 == 0.0
        assert aug_td.ood_acc >= 0.65
        assert aug_td.ood_f1 >= 0.65
        assert plain_td.overall_acc >= 0.50
        assert time.perf_counter() - started < 7200.0


def test_criterion_7_vhcn_keeps_nonzero_kl():
    with criterion(7, "VHCN mean per-turn KL > 0.1 nats at convergence, no annealing"):
        domain = generate_toy_domain(77, 80, 10)
        vocab, actions, n_context, feats = _featurize_all(domain)
        train_f, dev_f = feats(domain.train), feats(domain.dev)
        config = ModelConfig("VHCN", embedding_size=32, latent_size=8,
                             dialog_hidden_size=64, predictor_hidden_size=64)
        tc = TrainConfig(turn_dropout_ratio=0.0, max_epochs=40, patience=10, seed=5)
        _, history = train_model(config, tc, train_f, dev_f, vocab, actions, n_context)
        best = history.epochs[history.best_epoch]
        print("        best epoch %d: dev=%.3f kl=%.3f" % (best.epoch, best.dev_acc, best.kl_mean))
        assert best.dev_acc >= 0.9  # converged on the toy flow
        assert best.kl_mean > 0.1
        assert history.epochs[-1].kl_mean > 0.1


def test_criterion_8_metric_oracles_exact():
    with criterion(8, "accuracy and F1 equal brute-force recounts on 1000 cases"):
        rng = stream(8, "metrics")
        labels_pool = [OodLabel.IND, OodLabel.TURN_OOD, OodLabel.SEGMENT_OOD]
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, 6, size=n).tolist()
            golds = rng.integers(0, 6, size=n).tolist()
            labels = [labels_pool[int(i)] for i in rng.integers(0, 3, size=n)]

            correct = sum(1 for p, g in zip(preds, golds) if p == g)
            assert per_utterance_accuracy(preds, golds) == correct / n

            for subset in (OodLabel.TURN_OOD, OodLabel.SEGMENT_OOD):
                pairs = [(p, g) for p, g, lab in zip(preds, golds, labels) if lab is subset]
                expected = (sum(1 for p, g in pairs if p == g) / len(pairs)) if pairs else None
                assert per_utterance_accuracy(preds, golds, labels, subset) == expected

            got = ood_f1(preds, labels, fallback_id=2)
            tp = sum(1 for p, lab in zip(preds, labels) if p == 2 and lab is OodLabel.TURN_OOD)
            fp = sum(1 for p, lab in zip(preds, labels) if p == 2 and lab is not OodLabel.TURN_OOD)
            fn = sum(1 for p, lab in zip(preds, labels) if p != 2 and lab is OodLabel.TURN_OOD)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert (got.precision, got.recall, got.f1) == (precision, recall, f1)


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "two pipeline runs with one root seed are bit-identical"):
        config = tmp_path / "run.cfg"
        config.write_text(
            "run.seed = 99\n"
            "toy.n_dialogs = 40\n"
            "toy.n_actions = 8\n"
            "model.variant = HCN\n"
            "turn_dropout.ratio = 0.4\n"
            "train.max_epochs = 3\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["pipeline", "--config", str(config), "--out-dir", str(out_a)]) == 0
        assert cli_main(["pipeline", "--config", str(config), "--out-dir", str(out_b)]) == 0
        for name in ("test_ood.txt", "test_ood.labels", "report.txt",
                     "augment_stats.txt", "results_table.txt", "results_table.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
