#!/usr/bin/env python3
"""Desk-scale reproduction of the turn-dropout effect.

Trains the same HCN twice on the clean toy corpus, once without and once
with turn dropout, evaluates both on the OOD-augmented test split, and
prints the four-metric comparison.  Expect a few minutes on a laptop CPU:
the plain model never picks the fallback action on foreign turns, the
regularized one handles most of them while keeping its in-domain accuracy.
"""

import time

from robusthcn.augment import (
    AugmentationConfig,
    augment_corpus,
    load_ood_pool,
    load_segment_pool,
)
from robusthcn.corpus import prepare
from robusthcn.evaluation import evaluate_model
from robusthcn.models import ModelConfig
from robusthcn.toy import generate_foreign_dialogs, generate_toy_domain, segment_pool_text
from robusthcn.train import TrainConfig, train_model

SEED = 20250809


def main():
    domain = generate_toy_domain(SEED, n_dialogs=120, n_actions=12)
    foreign = generate_foreign_dialogs(SEED + 1)
    pool = load_ood_pool(foreign)
    segments = load_segment_pool(segment_pool_text())

    config = AugmentationConfig(p_ood_start=0.2, p_ood_cont=0.4, seed=SEED + 2)
    test_aug, stats = augment_corpus(domain.test, config, pool, segments)
    print("augmented test: %d IND / %d SEG / %d OOD turns\n"
          % (stats.ind_turns, stats.segment_turns, stats.inserted_turns))

    # the shared vocabulary also embeds the foreign words and interjections
    data = prepare(domain.lexicon, [domain.train, domain.dev, domain.test],
                   [foreign, segments.as_dialogs()])
    vocab, actions = data.vocab, data.action_set
    train_f, dev_f = data.featurize(domain.train), data.featurize(domain.dev)
    plain_f, aug_f = data.featurize(domain.test), data.featurize(test_aug)
    model_config = ModelConfig("HCN", embedding_size=32, dialog_hidden_size=64,
                               predictor_hidden_size=64)

    rows = []
    for name, ratio in (("HCN", 0.0), ("TD-HCN", 0.4)):
        started = time.time()
        tc = TrainConfig(turn_dropout_ratio=ratio, max_epochs=80, patience=15, seed=SEED)
        model, history = train_model(model_config, tc, train_f, dev_f, vocab, actions,
                                     data.n_context)
        plain = evaluate_model(model, plain_f, vocab, actions)
        augd = evaluate_model(model, aug_f, vocab, actions)
        rows.append((name, plain, augd))
        print("%s: %d epochs, best dev %.3f, %.0fs"
              % (name, len(history.epochs), history.best_dev_acc, time.time() - started))

    print("\n%-8s %11s %11s %9s %9s %8s" % ("model", "IND overall", "aug overall",
                                            "seg OOD", "OOD acc", "OOD F1"))
    for name, plain, augd in rows:
        print("%-8s %11.3f %11.3f %9.3f %9.3f %8.3f"
              % (name, plain.overall_acc, augd.overall_acc,
                 augd.seg_ood_acc if augd.seg_ood_acc is not None else float("nan"),
                 augd.ood_acc if augd.ood_acc is not None else float("nan"),
                 augd.ood_f1))
    print("\nthe pattern to look for: OOD accuracy and F1 jump from ~0 to high"
          "\nvalues under turn dropout, while in-domain accuracy stays put")


if __name__ == "__main__":
    main()
