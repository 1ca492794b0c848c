"""Property test: the hand-written encoder backward and both loss heads (MLM
and task head) agree with central finite differences over random small
shapes, pad patterns and dropout settings, with the last layer run at every
position or only at drawn ``positions`` (repeats included; the MLM head
always runs it at its labeled positions).

Each parameter tensor is checked along a random direction. Every loss
evaluation draws its dropout masks from a fresh ``Rng`` with the same seed,
so the masks stay fixed while the parameters move. Examples are
derandomized: the suite sees the same cases on every run.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import generic_params, tiny_config
from nanobert import numerics as nn
from nanobert.finetune import head_loss_and_grads
from nanobert.model import encoder_backward, encoder_forward_with_cache
from nanobert.pretrain import IGNORE_LABEL, MaskedBatch, mlm_loss_and_grads
from nanobert.rng import Rng

HEADS = ("encoder", "mlm", "classification", "regression")


@st.composite
def cases(draw):
    t = draw(st.integers(2, 6))
    b = draw(st.integers(1, 3))
    # position 0 is always real (the [CLS] slot); the rest may be pad
    # anywhere, which gives trailing, interior and all-but-one-pad rows
    rest = draw(st.lists(st.lists(st.booleans(), min_size=t - 1, max_size=t - 1),
                         min_size=b, max_size=b))
    num_heads = draw(st.integers(1, 3))
    # LayerNorm maps any 2-vector to gamma * (+-1, -+1) + beta, so at
    # hidden size 2 every gradient through it is ~1e-20 and finite
    # differences read only rounding noise; hidden sizes start at 3
    head_dim = draw(st.integers(-(-3 // num_heads), 3))
    # the positions the encoder, classification and regression heads read;
    # None runs the last layer at every position
    positions = draw(st.one_of(st.none(), st.integers(1, t + 1).flatmap(
        lambda q: st.lists(st.lists(st.integers(0, t - 1), min_size=q, max_size=q),
                           min_size=b, max_size=b))))
    return {
        "num_layers": draw(st.integers(1, 2)),
        "num_heads": num_heads,
        "head_dim": head_dim,
        "ffn_size": draw(st.integers(1, 6)),
        "mask": [[True] + row for row in rest],
        "dropout": draw(st.sampled_from([0.0, 0.25])),
        "head": draw(st.sampled_from(HEADS)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "positions": positions,
    }


def loss_and_grads(case, cfg, params, ids, mask, data_rng):
    """``f(params) -> (loss, grads)`` for the head the case names."""
    head = case["head"]
    dropout_seed = case["seed"] + 1 if case["dropout"] else None
    positions = None if case["positions"] is None else np.asarray(case["positions"])
    if head == "encoder":
        width = ids.shape[1] if positions is None else positions.shape[1]
        readout = data_rng.normal((ids.shape[0], width, cfg.hidden_size))
    elif head == "mlm":
        labels = np.where(mask, np.asarray(data_rng.integers(cfg.vocab_size, ids.shape)),
                          IGNORE_LABEL)
        batch = MaskedBatch(ids, labels, mask)
    elif head == "classification":
        labels = np.asarray(data_rng.integers(params["head.b"].size, (ids.shape[0],)))
    else:
        labels = data_rng.normal((ids.shape[0],))

    def f(p):
        rng = Rng(dropout_seed) if dropout_seed is not None else None
        if head == "mlm":
            return mlm_loss_and_grads(cfg, p, batch, dropout_rng=rng)
        h, cache = encoder_forward_with_cache(cfg, p, ids, mask, dropout_rng=rng,
                                              positions=positions)
        if head == "encoder":
            return float(np.sum(h * readout)), encoder_backward(cfg, p, cache, readout)
        loss, d_h, grads = head_loss_and_grads(p, h, labels)
        grads.update(encoder_backward(cfg, p, cache, d_h))
        return loss, grads

    return f


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=cases())
@example(case={"num_layers": 2, "num_heads": 2, "head_dim": 2, "ffn_size": 4,
               "mask": [[True, True, False, True, False, False],
                        [True, False, False, False, False, False],
                        [True, True, True, True, True, False]],
               "dropout": 0.25, "head": "classification", "seed": 3, "positions": None})
@example(case={"num_layers": 2, "num_heads": 2, "head_dim": 2, "ffn_size": 4,
               "mask": [[True, True, False, True, False, False],
                        [True, False, False, False, False, False],
                        [True, True, True, True, True, False]],
               "dropout": 0.25, "head": "encoder", "seed": 5,
               "positions": [[3, 0, 3, 5], [0, 0, 2, 1], [4, 4, 4, 4]]})
def test_gradients_match_finite_differences(case):
    mask = np.asarray(case["mask"], dtype=np.int64)
    num_labels = {"classification": 3, "regression": 1}.get(case["head"])
    cfg = tiny_config(num_layers=case["num_layers"], num_heads=case["num_heads"],
                      hidden_size=case["num_heads"] * case["head_dim"],
                      ffn_size=case["ffn_size"], vocab_size=12,
                      max_positions=mask.shape[1], dropout=case["dropout"])
    data_rng = Rng(case["seed"])
    params = generic_params(cfg, data_rng, num_labels=num_labels)
    ids = np.asarray(data_rng.integers(cfg.vocab_size, mask.shape))
    f = loss_and_grads(case, cfg, params, ids, mask, data_rng)
    _, grads = f(params)
    for name in params:
        if name == "mlm_bias" and case["head"] != "mlm":
            assert name not in grads  # only the MLM head reads it
            continue
        if name.endswith("attn.bk"):
            # a bias shared by every key shifts each score row equally and
            # softmax is shift invariant: the true gradient is exactly zero
            assert np.abs(grads[name]).max() < 1e-12, name
            continue

        # one direction through the whole tensor, not single coordinates: a
        # coordinate's true gradient can be near 1e-7, where finite
        # differences resolve no better than ~1e-11 and a relative check
        # reads noise. The direction is the analytic gradient's plus half a
        # random one, so the derivative along it is at least half the
        # gradient's norm, and an error in any component moves it
        random = Rng(case["seed"] + 2).normal(params[name].shape)
        direction = 0.5 * random / np.linalg.norm(random)
        norm = np.linalg.norm(grads[name])
        if norm > 0.0:
            direction += grads[name] / norm

        def along(step, name=name, direction=direction):
            loss, g = f({**params, name: params[name] + step[0] * direction})
            return loss, np.array([np.sum(g[name] * direction)])

        report = nn.grad_check(along, np.zeros(1), name=name)
        assert report.passed, f"{name}: rel err {report.max_rel_error:.2e} in {case}"
