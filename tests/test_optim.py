"""The parameter arena, AdamW mechanics, clipping, warmup, and config validation."""

import math
import struct

import numpy as np
import pytest

from helpers import tiny_config
from nanobert.checkpoint import Checkpoint, save_checkpoint
from nanobert.model import flatten, init_params, views
from nanobert.numerics import BLOCK_ENTRIES
from nanobert.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamW,
    TrainingConfig,
    check_step_finite,
    clip_global_norm,
    naming_step,
    warmup_learning_rate,
)
from nanobert.rng import Rng


class TestTrainingConfig:
    def test_defaults_valid(self):
        cfg = TrainingConfig()
        assert cfg.metric_for_best_model == "precision"

    def test_unsupported_metric_rejected(self):
        with pytest.raises(ValueError, match="unsupported metric"):
            TrainingConfig(metric_for_best_model="auc")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_train_epochs": -1},
            {"train_batch_size": 0},
            {"learning_rate": 0.0},
            {"weight_decay": -0.1},
            {"max_length": 1},
            {"mask_prob": 1.0},
            {"logging_steps": 0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


def arena(**tensors):
    """The parameter vector and its named views, for tensors given as lists."""
    return flatten({name: np.array(t, dtype=np.float64) for name, t in tensors.items()})


class TestFlatten:
    def test_views_share_memory_in_sorted_name_order(self):
        tensors = {"z": np.arange(6.0).reshape(2, 3), "a": np.array([7.0, 8.0]),
                   "m": np.array([[9.0]])}
        vector, named = flatten(tensors)
        assert list(named) == ["a", "m", "z"]
        assert vector.tolist() == [7.0, 8.0, 9.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        for name, view in named.items():
            assert view.shape == tensors[name].shape
            assert np.shares_memory(view, vector)
            assert not np.shares_memory(view, tensors[name])
        named["z"][1, 2] = -1.0
        assert vector[-1] == -1.0

    def test_vector_bytes_are_the_checkpoint_body(self, tmp_path):
        cfg = tiny_config(num_layers=2)
        vector, params = flatten(init_params(cfg, Rng(3), num_labels=3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(Checkpoint(cfg, params), str(path))
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[:8])
        assert raw[8 + header_len:] == vector.astype("<f8").tobytes()

    def test_views_of_a_copy_lay_out_the_same_names(self):
        vector, named = arena(b=[1.0, 2.0], a=[[3.0]])
        snapshot = views(vector.copy(), named)
        vector[:] = 0.0
        assert snapshot["a"].tolist() == [[3.0]] and snapshot["b"].tolist() == [1.0, 2.0]


def per_tensor_adamw(params, grads, m, v, t, lr, weight_decay):
    """One AdamW step written tensor by tensor, as the optimizer once ran it."""
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, g in grads.items():
        p = params[name]
        m[name] += (1.0 - ADAM_BETA1) * (g - m[name])
        v[name] += (1.0 - ADAM_BETA2) * (g * g - v[name])
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
        if weight_decay > 0.0 and p.ndim >= 2:
            update = update + weight_decay * p
        p -= lr * update


class TestAdamW:
    def test_first_step_moves_by_roughly_lr(self):
        # bias correction makes the first update m/(sqrt(v)+eps) ~= sign(g)
        vector, params = arena(w=[[1.0]])
        opt = AdamW(params, learning_rate=0.1)
        opt.step(vector, np.array([0.5]))
        assert abs(params["w"][0, 0] - 0.9) < 1e-6

    def test_decay_only_touches_matrices(self):
        vector, params = arena(w=[[2.0]], b=[2.0])
        opt = AdamW(params, learning_rate=0.01, weight_decay=0.1)
        opt.step(vector, np.zeros(2))
        assert params["w"][0, 0] == pytest.approx(2.0 * (1 - 0.01 * 0.1))
        assert params["b"][0] == 2.0

    def test_state_accumulates(self):
        vector, params = arena(w=[[0.0]])
        opt = AdamW(params, learning_rate=0.1)
        for _ in range(3):
            opt.step(vector, np.array([1.0]))
        assert opt.t == 3
        assert params["w"][0, 0] < -0.25

    def test_first_step_takes_the_warmup_rate(self):
        # step 1 of 4 runs at 0.1 / 4, and the first update is ~sign(g)
        vector, params = arena(w=[[1.0]])
        opt = AdamW(params, 0.1, warmup_steps=4)
        opt.step(vector, np.array([0.5]))
        assert abs(params["w"][0, 0] - 0.975) < 1e-6

    def test_zero_gradient_leaves_a_vector_bit_identical(self):
        vector, params = arena(w=[[1.0, -2.0]], bias=[0.3, -0.0, 5e-324])
        before = params["bias"].copy()
        opt = AdamW(params, 0.5, weight_decay=0.1, warmup_steps=2)
        for _ in range(3):
            opt.step(vector, np.array([0.0, 0.0, 0.0, 1.0, -1.0]))
        assert params["bias"].tobytes() == before.tobytes()

    @staticmethod
    def check_per_tensor_loop(rng, tensors, weight_decay):
        vector, params = flatten(tensors)
        opt = AdamW(params, 3e-3, weight_decay=weight_decay, warmup_steps=3)
        ref = {n: t.copy() for n, t in tensors.items()}
        m = {n: np.zeros_like(t) for n, t in tensors.items()}
        v = {n: np.zeros_like(t) for n, t in tensors.items()}
        for t in range(1, 6):
            grads = {n: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)
                     for n, p in ref.items()}
            lr = warmup_learning_rate(3e-3, t - 1, 3)
            per_tensor_adamw(ref, grads, m, v, t, lr, weight_decay)
            opt.step(vector, flatten(grads)[0])
            for name in ref:
                assert np.array_equal(params[name], ref[name]), (name, t)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_per_tensor_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(1, 3)))
                  for _ in range(rng.integers(1, 7))]
        tensors = {f"t{i}": rng.normal(size=s) for i, s in enumerate(shapes)}
        self.check_per_tensor_loop(rng, tensors, [0.0, 0.01, 0.3][seed % 3])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_blocked_step_matches_the_per_tensor_loop(self, weight_decay):
        # three full blocks and a ragged tail, with tensors across block bounds
        rng = np.random.default_rng(7)
        shapes = [(7,), (BLOCK_ENTRIES + 3, 2), (3, 11), (BLOCK_ENTRIES - 5,), (257, 9)]
        assert 3 * BLOCK_ENTRIES < sum(math.prod(s) for s in shapes) < 4 * BLOCK_ENTRIES
        tensors = {f"t{i}": rng.normal(size=s) for i, s in enumerate(shapes)}
        self.check_per_tensor_loop(rng, tensors, weight_decay)


class TestClipping:
    def test_scales_down_to_max_norm(self):
        grads = np.array([3.0, 4.0])
        norm = clip_global_norm(grads, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.sqrt(grads[0] ** 2 + grads[1] ** 2) == pytest.approx(1.0)

    def test_leaves_small_gradients_alone(self):
        grads = np.array([0.3])
        norm = clip_global_norm(grads, max_norm=1.0)
        assert norm == pytest.approx(0.3)
        assert grads[0] == 0.3

    def test_norm_matches_the_per_tensor_sum_within_rounding(self):
        # one dot product sums in another order than a per-tensor loop
        rng = np.random.default_rng(0)
        tensors = {f"t{i}": rng.normal(size=(17, i + 1)) for i in range(30)}
        grads, _ = flatten(tensors)
        loop = math.sqrt(sum(float(np.sum(g * g)) for g in tensors.values()))
        bound = grads.size * np.finfo(np.float64).eps
        assert clip_global_norm(grads.copy(), max_norm=1e30) == pytest.approx(loop, rel=bound)

    def test_overflowing_gradients_report_infinite_norm(self):
        grads = np.array([1e200, 1.0])
        with np.errstate(over="ignore"):
            assert clip_global_norm(grads, max_norm=1.0) == math.inf


class TestCheckStepFinite:
    def test_finite_step_passes(self):
        with naming_step(1, 1):
            check_step_finite(2.5, 1e30)

    @pytest.mark.parametrize("loss, norm", [(math.inf, 1.0), (math.nan, 1.0),
                                            (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_names_epoch_and_step(self, loss, norm):
        with pytest.raises(ValueError, match="diverged at epoch 3, step 7"):
            with naming_step(3, 7):
                check_step_finite(loss, norm)


class TestWarmup:
    def test_linear_ramp_then_flat(self):
        lrs = [warmup_learning_rate(1.0, s, 4) for s in range(6)]
        assert lrs == [0.25, 0.5, 0.75, 1.0, 1.0, 1.0]

    def test_zero_warmup_is_constant(self):
        assert warmup_learning_rate(0.5, 0, 0) == 0.5
