"""Encoder forward/backward: hand oracles, invariances, gradient checks."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import generic_params, tiny_config
from nanobert import numerics as nn
from nanobert.model import (
    embed,
    encoder_backward,
    encoder_forward,
    encoder_forward_with_cache,
    init_params,
    param_shapes,
    pool_first_token,
    self_attention,
)
from nanobert.rng import Rng


class TestConfig:
    def test_head_dim(self):
        assert tiny_config(hidden_size=12, num_heads=3).head_dim == 4

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_config(hidden_size=10, num_heads=3)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ValueError, match="dropout"):
            tiny_config(dropout=1.0)


class TestInit:
    def test_shapes_match_schema(self):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, Rng(0))
        shapes = param_shapes(cfg)
        assert set(params) == set(shapes)
        assert all(params[k].shape == shapes[k] for k in shapes)

    def test_head_adds_exactly_nk_plus_k(self):
        cfg = tiny_config()
        base = sum(v.size for v in init_params(cfg, Rng(0)).values())
        with_head = sum(v.size for v in init_params(cfg, Rng(0), num_labels=5).values())
        assert with_head - base == cfg.hidden_size * 5 + 5

    def test_deterministic(self):
        cfg = tiny_config()
        a = init_params(cfg, Rng(7))
        b = init_params(cfg, Rng(7))
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_layer_norm_starts_as_identity(self):
        params = init_params(tiny_config(), Rng(0))
        assert (params["layers.0.ln1.gamma"] == 1.0).all()
        assert (params["layers.0.ln1.beta"] == 0.0).all()


class TestEmbed:
    def test_zero_tables_give_zero(self):
        cfg = tiny_config()
        params = init_params(cfg, Rng(0))
        params["tok_emb"][:] = 0.0
        params["pos_emb"][:] = 0.0
        out = embed(params, np.array([[1, 2, 3]]))
        assert (out == 0.0).all()

    def test_position_added(self):
        cfg = tiny_config()
        params = init_params(cfg, Rng(1))
        out = embed(params, np.array([[4, 4]]))
        expected = params["tok_emb"][4] + params["pos_emb"][1]
        np.testing.assert_array_equal(out[0, 1], expected)

    def test_rejects_long_sequence(self):
        params = init_params(tiny_config(max_positions=4), Rng(0))
        with pytest.raises(ValueError, match="max_positions"):
            embed(params, np.zeros((1, 5), dtype=np.int64))

    def test_rejects_out_of_vocab_id(self):
        params = init_params(tiny_config(), Rng(0))
        with pytest.raises(ValueError, match="out of range"):
            embed(params, np.array([[25]]))


class TestSelfAttention:
    def hand_case(self):
        """Identity projections on a 2x2 one-hot input, worked by hand."""
        cfg = tiny_config(hidden_size=2, num_heads=1, ffn_size=4)
        params = init_params(cfg, Rng(0))
        eye = np.eye(2)
        for w in ("wq", "wk", "wv", "wo"):
            params[f"layers.0.attn.{w}"] = eye.copy()
        for b in ("bq", "bk", "bv", "bo"):
            params[f"layers.0.attn.{b}"] = np.zeros(2)
        h = np.eye(2)
        return cfg, params, h

    def test_hand_computed_values(self):
        cfg, params, h = self.hand_case()
        # scores = h h^T / sqrt(2) = diag(s); softmax row i puts e^s / (e^s + 1)
        # on itself and 1 / (e^s + 1) on the other position
        s = 1.0 / math.sqrt(2.0)
        big = math.exp(s) / (math.exp(s) + 1.0)
        small = 1.0 / (math.exp(s) + 1.0)
        out = self_attention(cfg, params, 0, h, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [[big, small], [small, big]], atol=1e-12)

    def test_masked_key_excluded(self):
        cfg, params, h = self.hand_case()
        out = self_attention(cfg, params, 0, h, np.array([1.0, 0.0]))
        # only key 0 is attendable, so every query returns value row 0
        np.testing.assert_allclose(out, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)

    def test_all_masked_rejected(self):
        cfg, params, h = self.hand_case()
        with pytest.raises(ValueError, match="every position masked"):
            self_attention(cfg, params, 0, h, np.array([0.0, 0.0]))

    def test_rows_sum_to_one_under_padding(self):
        cfg = tiny_config()
        params = init_params(cfg, Rng(3))
        ids = Rng(4).integers(cfg.vocab_size, (3, 6))
        mask = np.array([[1, 1, 1, 1, 0, 0]] * 3, dtype=np.float64)
        _, cache = encoder_forward_with_cache(cfg, params, ids, mask)
        probs = cache["layers"][0]["attn"]["probs"]
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        assert (probs[..., 4:] == 0.0).all()


class TestEncoderForward:
    def test_output_shape(self):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, Rng(0))
        ids = Rng(1).integers(cfg.vocab_size, (3, 5))
        out = encoder_forward(cfg, params, ids, np.ones((3, 5)))
        assert out.shape == (3, 5, cfg.hidden_size)

    def test_deterministic(self):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, Rng(0))
        ids = Rng(1).integers(cfg.vocab_size, (2, 6))
        mask = np.ones((2, 6))
        assert np.array_equal(encoder_forward(cfg, params, ids, mask),
                              encoder_forward(cfg, params, ids, mask))

    def test_pad_ids_cannot_leak_into_real_positions(self):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, Rng(5))
        rng = Rng(6)
        ids = rng.integers(cfg.vocab_size, (2, 8))
        mask = np.ones((2, 8))
        mask[:, 5:] = 0.0
        out_a = encoder_forward(cfg, params, ids, mask)
        ids_b = ids.copy()
        ids_b[:, 5:] = rng.integers(cfg.vocab_size, (2, 3))
        out_b = encoder_forward(cfg, params, ids_b, mask)
        assert np.array_equal(out_a[:, :5], out_b[:, :5])

    def test_batch_composition_irrelevant(self):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, Rng(7))
        ids = Rng(8).integers(cfg.vocab_size, (4, 6))
        mask = np.ones((4, 6))
        full = encoder_forward(cfg, params, ids, mask)
        solo = encoder_forward(cfg, params, ids[2:3], mask[2:3])
        np.testing.assert_allclose(full[2:3], solo, atol=1e-12)

    def test_all_masked_row_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, Rng(0))
        ids = np.zeros((1, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="every position masked"):
            encoder_forward(cfg, params, ids, np.zeros((1, 4)))

    def test_matches_training_forward_without_dropout(self):
        cfg = tiny_config(num_layers=2, dropout=0.1)
        params = init_params(cfg, Rng(11))
        ids = Rng(12).integers(cfg.vocab_size, (3, 7))
        mask = np.ones((3, 7))
        mask[1, 4:] = 0.0
        h, _ = encoder_forward_with_cache(cfg, params, ids, mask)
        assert np.array_equal(encoder_forward(cfg, params, ids, mask), h)

    def test_scoring_keeps_no_training_cache(self):
        # the cache holds every layer's intermediates; scoring holds one
        # layer's at a time, so six layers peak at well under half
        cfg = tiny_config(num_layers=6, max_positions=16)
        params = init_params(cfg, Rng(13))
        ids = Rng(14).integers(cfg.vocab_size, (8, 16))
        mask = np.ones((8, 16))

        def peak(fn):
            tracemalloc.start()
            try:
                fn(cfg, params, ids, mask)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(encoder_forward) < 0.5 * peak(encoder_forward_with_cache)

    def test_pool_first_token(self):
        h = Rng(9).normal((2, 5, 3))
        np.testing.assert_array_equal(pool_first_token(h), h[:, 0, :])


def scalar_loss_closure(cfg, params, name, ids, mask, readout, dropout_seed=None):
    """loss = sum(readout * encoder output) as a function of one parameter."""

    def f(theta):
        params[name] = theta
        rng = Rng(dropout_seed) if dropout_seed is not None else None
        h, cache = encoder_forward_with_cache(cfg, params, ids, mask, dropout_rng=rng)
        grads = encoder_backward(cfg, params, cache, readout)
        return float(np.sum(h * readout)), grads[name]

    return f


class TestEncoderGradients:
    def run_all_params(self, dropout_seed=None, dropout=0.0):
        cfg = tiny_config(num_layers=2, dropout=dropout)
        params = generic_params(cfg, Rng(20))
        data_rng = Rng(21)
        ids = data_rng.integers(cfg.vocab_size, (2, 5))
        mask = np.ones((2, 5))
        mask[1, 3:] = 0.0
        readout = data_rng.normal((2, 5, cfg.hidden_size))
        for name in params:
            if name == "mlm_bias":
                continue  # unused by the encoder itself
            f = scalar_loss_closure(cfg, params, name, ids, mask, readout, dropout_seed)
            if name.endswith("attn.bk"):
                # the key bias shifts every score in a row equally and softmax
                # is shift invariant, so its true gradient is identically zero;
                # finite differences there compare noise against noise
                _, grad = f(params[name].copy())
                assert np.abs(grad).max() < 1e-12, name
                continue
            report = nn.grad_check(f, params[name].copy(), name=name,
                                   n_coords=12, rng=Rng(22))
            assert report.passed, f"{name}: rel err {report.max_rel_error:.2e}"

    def test_every_parameter_without_dropout(self):
        self.run_all_params()

    def test_every_parameter_with_dropout_active(self):
        # fixed dropout seed keeps masks identical across re-evaluations,
        # so finite differences remain valid
        self.run_all_params(dropout_seed=99, dropout=0.2)

    def test_pad_positions_get_no_token_gradient(self):
        cfg = tiny_config(num_layers=1)
        params = init_params(cfg, Rng(30))
        ids = np.array([[2, 7, 7, 19]])
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        h, cache = encoder_forward_with_cache(cfg, params, ids, mask)
        readout = np.zeros_like(h)
        readout[0, :2] = 1.0  # loss reads only real positions
        grads = encoder_backward(cfg, params, cache, readout)
        # id 19 appears only at a masked position that the loss ignores
        assert (grads["tok_emb"][19] == 0.0).all()


class TestGoldenForward:
    """Frozen output of a fixed tiny model; guards against silent drift."""

    def test_frozen_values(self):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, Rng(123))
        ids = np.array([[2, 7, 11, 3]])
        h = encoder_forward(cfg, params, ids, np.ones((1, 4)))
        golden = GOLDEN_FIRST_ROW
        np.testing.assert_allclose(h[0, 0], golden, rtol=0, atol=1e-10)


GOLDEN_FIRST_ROW = np.array([
    1.4291276073249304, -1.0681919749546676, -1.4752110595231003,
    0.48071705157978756, -0.92692044078697389, 0.78137338698363679,
    -0.1743600109708667, 0.95346544034725411,
])
