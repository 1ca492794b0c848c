"""Encoder forward/backward: hand oracles, invariances, gradient checks."""

import hashlib
import math

import numpy as np
import pytest

from helpers import generic_params, tiny_config, traced_peak_mb
from nanobert import model
from nanobert import numerics as nn
from nanobert.finetune import _train_step, head_loss_and_grads
from nanobert.model import (
    embed,
    encoder_backward,
    encoder_forward,
    encoder_forward_with_cache,
    flatten,
    init_params,
    param_shapes,
    pool_first_token,
    trim_padding,
)
from nanobert.pretrain import IGNORE_LABEL, MaskedBatch, mlm_loss_and_grads
from nanobert.rng import Rng


class TestConfig:
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

    def attend(self, cfg, params, h, mask):
        """Layer 0's attention sublayer on the one [T, N] sequence ``h``,
        dropout off, with the keys where ``mask`` is 0 left out."""
        key_bias = (1.0 - mask)[None, None, None, :] * model.ATTENTION_MASK_BIAS
        out, _ = model._attention_forward(model._layer_params(params, 0), h[None], h[None],
                                          key_bias, cfg.num_heads, 0.0, None,
                                          model._forward_slots(None, {}), False)
        return out[0]

    def test_hand_computed_values(self):
        cfg, params, h = self.hand_case()
        # scores = h h^T / sqrt(2) = diag(s); softmax row i puts e^s / (e^s + 1)
        # on itself and 1 / (e^s + 1) on the other position
        s = 1.0 / math.sqrt(2.0)
        big = math.exp(s) / (math.exp(s) + 1.0)
        small = 1.0 / (math.exp(s) + 1.0)
        out = self.attend(cfg, params, h, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [[big, small], [small, big]], atol=1e-12)

    def test_masked_key_excluded(self):
        cfg, params, h = self.hand_case()
        out = self.attend(cfg, params, h, np.array([1.0, 0.0]))
        # only key 0 is attendable, so every query returns value row 0
        np.testing.assert_allclose(out, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)

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

    def test_dropout_pass_without_cache_matches_training_forward(self, monkeypatch):
        # it stays one group, so it draws the training forward's masks
        cfg = tiny_config(num_layers=2, dropout=0.2)
        params = generic_params(cfg, Rng(11))
        ids = Rng(12).integers(cfg.vocab_size, (5, 7))
        mask = np.ones((5, 7))
        mask[1, 4:] = 0.0
        monkeypatch.setattr(model, "GROUP_POSITIONS", 7)
        h, _ = encoder_forward_with_cache(cfg, params, ids, mask, dropout_rng=Rng(13))
        assert np.array_equal(encoder_forward(cfg, params, ids, mask, dropout_rng=Rng(13)), h)

    def test_zero_dropout_draws_nothing_from_the_stream(self):
        cfg = tiny_config(num_layers=2, dropout=0.0)
        params = init_params(cfg, Rng(11))
        ids = Rng(12).integers(cfg.vocab_size, (3, 7))
        mask = np.ones((3, 7))
        mask[1, 4:] = 0.0
        stream = Rng(13)
        h = encoder_forward(cfg, params, ids, mask, dropout_rng=stream)
        assert np.array_equal(h, encoder_forward(cfg, params, ids, mask))
        assert np.array_equal(stream.random(4), Rng(13).random(4))

    def test_scoring_keeps_no_training_cache(self):
        # the cache holds every layer's intermediates; scoring holds one
        # layer's at a time, so six layers peak at well under half
        cfg = tiny_config(num_layers=6, max_positions=16)
        params = init_params(cfg, Rng(13))
        ids = Rng(14).integers(cfg.vocab_size, (8, 16))
        mask = np.ones((8, 16))
        assert (traced_peak_mb(encoder_forward, cfg, params, ids, mask)
                < 0.5 * traced_peak_mb(encoder_forward_with_cache, cfg, params, ids, mask))

    def test_scoring_peak_does_not_grow_with_depth(self):
        # each layer's intermediates are freed before the next layer runs
        ids = Rng(15).integers(20, (8, 32))
        mask = np.ones((8, 32))
        peaks = []
        for num_layers in (1, 4):
            cfg = tiny_config(num_layers=num_layers, hidden_size=32, num_heads=4, ffn_size=128,
                              max_positions=32)
            params = init_params(cfg, Rng(16))
            peaks.append(traced_peak_mb(encoder_forward, cfg, params, ids, mask))
        assert peaks[1] <= 1.1 * peaks[0]

    def test_scoring_peak_does_not_grow_with_rows(self):
        # rows run in groups of at most GROUP_POSITIONS positions, and every
        # group reuses the first group's workspace
        cfg = tiny_config(num_layers=2, hidden_size=32, num_heads=4, ffn_size=128,
                          max_positions=32)
        params = init_params(cfg, Rng(17))
        peaks = []
        for rows in (64, 256):
            ids = Rng(18).integers(cfg.vocab_size, (rows, 32))
            mask = np.ones((rows, 32))
            positions = np.zeros((rows, 1), dtype=np.int64)
            peaks.append(traced_peak_mb(encoder_forward, cfg, params, ids, mask, None, None,
                                        positions))
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("pruned", [False, True])
    def test_row_groups_match_one_group(self, monkeypatch, pruned):
        cfg = tiny_config(num_layers=2, max_positions=16)
        params = generic_params(cfg, Rng(19))
        rows = 2 * (model.GROUP_POSITIONS // 16) + 5  # two full groups and a short one
        ids = Rng(20).integers(cfg.vocab_size, (rows, 16))
        mask = np.ones((rows, 16))
        mask[3, 5:] = 0.0
        mask[rows - 2, 9:] = 0.0
        positions = Rng(21).integers(16, (rows, 3)) if pruned else None
        grouped = encoder_forward(cfg, params, ids, mask, positions=positions)
        monkeypatch.setattr(model, "GROUP_POSITIONS", rows * 16)
        assert np.array_equal(grouped, encoder_forward(cfg, params, ids, mask,
                                                       positions=positions))

    def test_pool_first_token(self):
        h = Rng(9).normal((2, 5, 3))
        np.testing.assert_array_equal(pool_first_token(h), h[:, 0, :])


class TestTrimPadding:
    def test_drops_columns_padded_in_every_row(self):
        ids = np.arange(10).reshape(2, 5)
        mask = np.array([[1, 1, 0, 0, 0], [1, 1, 1, 0, 0]])
        t_ids, t_mask = trim_padding(ids, mask)
        assert np.array_equal(t_ids, ids[:, :3])
        assert np.array_equal(t_mask, mask[:, :3])

    def test_keeps_interior_pad_column(self):
        ids = np.arange(8).reshape(2, 4)
        mask = np.array([[1, 0, 1, 0], [1, 0, 0, 0]])
        t_ids, t_mask = trim_padding(ids, mask)
        assert np.array_equal(t_mask, [[1, 0, 1], [1, 0, 0]])
        assert np.array_equal(t_ids, ids[:, :3])

    def test_batch_reaching_the_last_column_is_untouched(self):
        cfg = tiny_config(num_layers=2)
        params = init_params(cfg, Rng(40))
        ids = Rng(41).integers(cfg.vocab_size, (3, 6))
        mask = np.ones((3, 6))
        mask[0, 2:] = 0.0
        mask[1, 3] = 0.0  # interior pad; row 2 is real to the end
        t_ids, t_mask = trim_padding(ids, mask)
        assert t_ids.shape == ids.shape and t_mask.shape == mask.shape
        assert np.shares_memory(t_ids, ids) and np.shares_memory(t_mask, mask)
        assert np.array_equal(encoder_forward(cfg, params, t_ids, t_mask),
                              encoder_forward(cfg, params, ids, mask))

    def test_all_pad_batch_keeps_its_width_for_the_encoder_to_refuse(self):
        ids = np.zeros((2, 4), dtype=np.int64)
        assert trim_padding(ids, np.zeros((2, 4)))[0].shape == (2, 4)


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


def full_path_mlm(cfg, params, batch):
    """The MLM loss and gradients with every layer at every position."""
    h, cache = encoder_forward_with_cache(cfg, params, batch.input_ids, batch.attention_mask)
    rows, cols = np.nonzero(batch.labels != IGNORE_LABEL)
    logits = h[rows, cols] @ params["tok_emb"].T + params["mlm_bias"]
    loss, d_logits = nn.softmax_cross_entropy(logits, batch.labels[rows, cols])
    d_h = np.zeros_like(h)
    d_h[rows, cols] = d_logits @ params["tok_emb"]
    grads = encoder_backward(cfg, params, cache, d_h)
    grads["tok_emb"] += d_logits.T @ h[rows, cols]
    grads["mlm_bias"] = d_logits.sum(axis=0)
    return loss, grads


class TestPrunedLastLayer:
    """The last layer run at the positions a loss reads gives the full
    path's outputs there, and its loss and gradients, up to rounding."""

    def setup(self, num_labels=None, num_layers=2):
        cfg = tiny_config(num_layers=num_layers, max_positions=7)
        params = generic_params(cfg, Rng(80), num_labels=num_labels)
        ids = Rng(81).integers(cfg.vocab_size, (3, 7))
        mask = np.ones((3, 7))
        mask[1, 4:] = 0.0  # a padded row
        mask[2, 2] = 0.0  # an interior pad
        return cfg, params, ids, mask

    @staticmethod
    def assert_close(loss, grads, ref_loss, ref_grads):
        assert set(grads) == set(ref_grads)
        scale = max(np.abs(g).max() for g in ref_grads.values())
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, g in ref_grads.items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12 * scale, err_msg=name)

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_outputs_match_the_full_path_at_the_positions(self, num_layers):
        cfg, params, ids, mask = self.setup(num_layers=num_layers)
        positions = np.array([[0, 3, 3, 6], [5, 0, 1, 1], [2, 2, 2, 2]])  # repeats, pad slots
        full = encoder_forward(cfg, params, ids, mask)
        pruned = encoder_forward(cfg, params, ids, mask, positions=positions)
        assert pruned.shape == (3, 4, cfg.hidden_size)
        np.testing.assert_allclose(pruned, np.take_along_axis(full, positions[..., None], 1),
                                   rtol=0, atol=1e-12)

    def test_full_path_is_unchanged_by_the_argument(self):
        cfg, params, ids, mask = self.setup()
        h, _ = encoder_forward_with_cache(cfg, params, ids, mask, positions=None)
        assert np.array_equal(h, encoder_forward(cfg, params, ids, mask))

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_mlm_loss_and_gradients_match_the_full_path(self, num_layers):
        cfg, params, ids, mask = self.setup(num_layers=num_layers)
        labels = np.full(ids.shape, IGNORE_LABEL)
        labels[0, [0, 5]] = ids[0, [0, 5]]  # position 0 labeled; pad slots repeat it
        labels[1, [1, 2, 3]] = ids[1, [1, 2, 3]]  # the longest row sets Q = 3
        labels[2, 6] = ids[2, 6]
        batch = MaskedBatch(ids, labels, mask)
        loss, grads = mlm_loss_and_grads(cfg, params, batch)
        self.assert_close(loss, grads, *full_path_mlm(cfg, params, batch))

    @pytest.mark.parametrize("num_labels, labels", [(3, np.array([2, 0, 1])),
                                                    (1, np.array([0.5, -1.0, 2.0]))])
    def test_head_loss_and_gradients_match_the_full_path(self, num_labels, labels):
        cfg, params, ids, mask = self.setup(num_labels=num_labels)

        def step(positions):
            h, cache = encoder_forward_with_cache(cfg, params, ids, mask, positions=positions)
            loss, d_h, grads = head_loss_and_grads(params, h, labels)
            grads.update(encoder_backward(cfg, params, cache, d_h))
            return loss, grads

        self.assert_close(*step(np.zeros((3, 1), dtype=np.int64)), *step(None))

    @pytest.mark.parametrize("positions, match", [
        (np.zeros((3, 1)), r"int \[B, Q\] array.*float64 \(3, 1\)"),
        (np.zeros(3, dtype=np.int64), r"int64 \(3,\)"),
        (np.zeros((3, 0), dtype=np.int64), r"Q >= 1.*\(3, 0\)"),
        (np.zeros((2, 1), dtype=np.int64), r"B = 3.*\(2, 1\)"),
        (np.array([[0], [-1], [0]]), r"position -1 is outside \[0, 7\)"),
        (np.array([[0], [7], [0]]), r"position 7 is outside \[0, 7\)"),
    ])
    def test_refuses_bad_positions(self, positions, match):
        cfg, params, ids, mask = self.setup()
        with pytest.raises(ValueError, match=match):
            encoder_forward(cfg, params, ids, mask, positions=positions)


def dropout_step(cfg, params, head, shape, seed, grads=None, cache=None):
    """Loss and gradients of one seeded dropout step through the MLM head or
    a classification head, on random ids with a padded row."""
    data = Rng(seed)
    ids = data.integers(cfg.vocab_size, shape)
    mask = np.ones(shape)
    mask[1, shape[1] // 2:] = 0.0
    rng = Rng(seed + 1)
    if head == "mlm":
        labels = np.where((data.random(shape) < 0.3) & (mask > 0), ids, IGNORE_LABEL)
        return mlm_loss_and_grads(cfg, params, MaskedBatch(ids, labels, mask), rng, grads, cache)
    labels = data.integers(params["head.b"].size, (shape[0],))
    h, cache = encoder_forward_with_cache(cfg, params, ids, mask, rng, cache)
    loss, d_h, head_grads = head_loss_and_grads(params, h, labels, grads)
    grads = encoder_backward(cfg, params, cache, d_h, grads)
    grads.update(head_grads)
    return loss, grads


class TestTrainingWorkspace:
    """Training steps that reuse one cache and one gradient vector give the
    same bits as steps with fresh ones, and as the steps always have."""

    @pytest.mark.parametrize("head", ["mlm", "classification"])
    def test_reused_workspace_is_bit_identical(self, head):
        cfg = tiny_config(num_layers=2, max_positions=16, dropout=0.1)
        params = generic_params(cfg, Rng(61), num_labels=None if head == "mlm" else 3)
        workspace = {}
        _, grads = flatten(params)
        for step, shape in enumerate([(4, 16), (2, 8), (4, 16)]):
            loss, fresh = dropout_step(cfg, params, head, shape, 62 + step)
            reused_loss, reused = dropout_step(cfg, params, head, shape, 62 + step,
                                               grads, workspace)
            assert reused is grads and reused_loss == loss
            assert set(fresh) <= set(grads)  # a finetune step leaves mlm_bias alone
            assert flatten(fresh)[0].tobytes() == flatten({n: grads[n] for n in fresh})[0].tobytes()

    def test_smaller_step_reuses_the_buffers(self):
        cfg = tiny_config(num_layers=2, max_positions=16, dropout=0.1)
        params = generic_params(cfg, Rng(63), num_labels=3)
        workspace = {}
        dropout_step(cfg, params, "classification", (4, 16), 64, cache=workspace)
        buffers = {id(b) for b in workspace["buffers"]["layers.0"].values()}
        dropout_step(cfg, params, "classification", (2, 8), 65, cache=workspace)
        assert {id(b) for b in workspace["buffers"]["layers.0"].values()} == buffers
        probs = workspace["layers"][0]["attn"]["probs"]
        assert probs.shape == (2, 2, 8, 8) and np.shares_memory(
            probs, workspace["buffers"]["layers.0"]["probs"])
        assert workspace["layers"][0]["attn"]["pmask"].dtype == bool

    def test_warm_step_allocates_less_than_one_slot(self):
        # a step of the shape the workspace was sized for writes every
        # activation and backward temporary into it
        cfg = tiny_config(num_layers=2, hidden_size=64, num_heads=4, ffn_size=256,
                          max_positions=64, dropout=0.1)
        params = generic_params(cfg, Rng(66), num_labels=3)
        _, grads = flatten(params)
        ids = Rng(67).integers(cfg.vocab_size, (16, 64))
        masks = np.ones((16, 64))
        masks[3, 40:] = 0.0
        labels = Rng(68).integers(3, 16)
        workspace = {}
        _train_step(cfg, params, grads, workspace, ids, masks, labels, Rng(69))
        slot_mb = workspace["buffers"]["layers.0"]["u"].nbytes / 2**20
        assert traced_peak_mb(_train_step, cfg, params, grads, workspace, ids, masks, labels,
                              Rng(70)) < slot_mb

    @pytest.mark.parametrize("head, digest", [
        ("classification", "630adfd1fba6ee160a895cd0b311eb7ac4bfec985aed28d0dc4c27516ddf86e9"),
        ("mlm", "17816daba54cbb177a5641bf67c71a905f6ab6b7515b4e29668704bd7b69d5ab"),
    ])
    def test_golden_dropout_step(self, head, digest):
        # sha256 of the loss and gradient vector (x86-64, NumPy 2.4,
        # OpenBLAS); the digest pins every bit, so another BLAS or CPU may
        # give another one. The classification digest was recorded before
        # the workspace existed and runs the full path; the MLM digest was
        # re-recorded when its step began running the last layer only at
        # the labeled positions, which draws that layer's dropout masks at
        # the pruned shapes
        cfg = tiny_config(num_layers=2, max_positions=16, dropout=0.1)
        params = generic_params(cfg, Rng(71), num_labels=3)
        ids = Rng(72).integers(cfg.vocab_size, (4, 16))
        mask = np.ones((4, 16))
        mask[1, 9:] = 0.0
        mask[3, 5:] = 0.0
        if head == "mlm":
            params = {k: v for k, v in params.items() if not k.startswith("head.")}
            labels = np.where((Rng(74).random((4, 16)) < 0.3) & (mask > 0), ids, IGNORE_LABEL)
            loss, grads = mlm_loss_and_grads(cfg, params, MaskedBatch(ids, labels, mask),
                                             dropout_rng=Rng(75))
        else:
            h, cache = encoder_forward_with_cache(cfg, params, ids, mask, dropout_rng=Rng(73))
            loss, d_h, grads = head_loss_and_grads(params, h, np.array([0, 2, 1, 2]))
            grads.update(encoder_backward(cfg, params, cache, d_h))
        body = np.float64(loss).tobytes() + flatten(grads)[0].tobytes()
        assert hashlib.sha256(body).hexdigest() == digest


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
