#!/usr/bin/env python3
"""Verifying the differentiable core with central finite differences.

Every objective (plain cross-entropy, hierarchical encoder, variational
joint loss) is checked end to end on a 2-turn dialog in float64, then the
Adam optimizer is watched descending a quadratic bowl.
"""

import numpy as np

from robusthcn import nn
from robusthcn.corpus import ActionSet, ContextFeatures, TurnFeatures, Vocabulary
from robusthcn.models import Model, ModelConfig, dialog_loss
from robusthcn.seeding import stream


def tiny_domain():
    vocab = Vocabulary(["w%d" % i for i in range(8)])
    actions = ActionSet(templates=("greet", "ask", "reply", "bye"), fallback_action_id=0)
    ctx = ContextFeatures(slot_provided=(1, 0), api_returned=0)

    def turn(tokens, target, prev):
        f_turn = np.asarray(tokens)
        prev_vec = np.zeros(actions.size, dtype=np.float32)
        if prev is not None:
            prev_vec[prev] = 1.0
        return TurnFeatures(f_turn=f_turn, bow_indices=np.unique(f_turn), f_ctx=ctx,
                            f_mask=np.ones(actions.size, dtype=np.float32),
                            prev_action=prev_vec, target=target)

    return vocab, actions, [turn([2, 4, 3], 1, None), turn([5, 2], 3, 1)]


def main():
    vocab, actions, dialog = tiny_domain()
    for variant in ("HCN", "HHCN", "VHCN"):
        config = ModelConfig(variant=variant, embedding_size=6, dialog_hidden_size=8,
                             predictor_hidden_size=8,
                             latent_size=3 if variant == "VHCN" else None)
        model = Model(config, vocab, actions, n_context=3,
                      rng=stream(0, "demo", variant), dtype=np.float64)

        def fn():
            # a fresh generator per call replays the same latent noise (VHCN)
            loss, _ = dialog_loss(model, dialog, stream(1, "noise"))
            return loss

        params = [p for p in model.parameters() if p.trainable]
        n_coords = sum(p.data.size for p in params)
        err = nn.grad_check(fn, params, step=1e-4)
        print("%-5s analytic vs numeric over %5d coordinates: max rel err %.2e"
              % (variant, n_coords, err))

    print("\nAdam on a quadratic bowl (loss every 10 steps):")
    target = stream(2, "bowl").normal(size=8)
    p = nn.Parameter(np.zeros(8))
    opt = nn.Adam([p], learning_rate=0.05)
    for step in range(51):
        opt.zero_grad()
        diff = nn.add(p, nn.as_tensor(-target))
        loss = nn.vsum(nn.mul(diff, diff))
        nn.backward(loss)
        opt.step()
        if step % 10 == 0:
            print("  step %2d  loss %.5f" % (step, float(loss.data)))


if __name__ == "__main__":
    main()
