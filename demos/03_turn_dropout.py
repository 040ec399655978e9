#!/usr/bin/env python3
"""Turn dropout: synthetic gibberish turns relabeled to the fallback action.

Shows what a replaced turn looks like and which features the transform
leaves untouched, then measures the empirical replacement rate.
"""

from robusthcn.corpus import prepare
from robusthcn.seeding import stream
from robusthcn.toy import generate_toy_domain
from robusthcn.turndrop import TurnDropoutConfig, apply_turn_dropout, length_bounds_from


def main():
    domain = generate_toy_domain(seed=7, n_dialogs=40, n_actions=9)
    data = prepare(domain.lexicon, [domain.train, domain.dev, domain.test])
    vocab, actions = data.vocab, data.action_set
    feats = data.featurize(domain.train)

    bounds = length_bounds_from(feats)
    config = TurnDropoutConfig(ratio=0.4, length_bounds=bounds, unk_prob=0.5)
    print("length bounds from the corpus: %s; unk probability %.1f\n"
          % (bounds, config.unk_prob))

    dialog = feats[0]
    dropped = apply_turn_dropout(dialog, config, stream(3, "demo"),
                                 actions.fallback_action_id, vocab)
    for i, (before, after) in enumerate(zip(dialog, dropped)):
        if after is before:
            print("turn %d: kept      target=%d" % (i, before.target))
            continue
        words = " ".join(vocab.itos[t] for t in after.f_turn)
        print("turn %d: REPLACED  target %d -> %d (fallback)"
              % (i, before.target, after.target))
        print("         synthetic turn: %s" % words)
        same = (after.f_ctx is before.f_ctx and after.f_mask is before.f_mask
                and after.prev_action is before.prev_action)
        print("         context/mask/prev-action untouched: %s" % same)

    rng = stream(4, "rate")
    replaced = total = 0
    for _ in range(80):
        for d in feats:
            out = apply_turn_dropout(d, config, rng, actions.fallback_action_id, vocab)
            replaced += sum(1 for a, b in zip(out, d) if a is not b)
            total += len(d)
    print("\nempirical replacement rate over %d turns: %.3f (ratio %.1f)"
          % (total, replaced / total, config.ratio))


if __name__ == "__main__":
    main()
