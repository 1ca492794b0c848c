"""AdamW mechanics, clipping, warmup, and config validation."""

import math

import numpy as np
import pytest

from nanobert.optim import (
    AdamW,
    TrainingConfig,
    check_step_finite,
    clip_global_norm,
    naming_step,
    warmup_learning_rate,
)


class TestTrainingConfig:
    def test_defaults_valid(self):
        cfg = TrainingConfig()
        assert cfg.metric_for_best_model == "precision"
        assert cfg.resolved_greater_is_better is True

    def test_direction_derived_from_metric(self):
        assert TrainingConfig(metric_for_best_model="mse").resolved_greater_is_better is False
        assert TrainingConfig(metric_for_best_model="rmse").resolved_greater_is_better is False
        assert TrainingConfig(metric_for_best_model="pearson_r").resolved_greater_is_better is True

    def test_explicit_direction_wins(self):
        cfg = TrainingConfig(metric_for_best_model="mse", greater_is_better=True)
        assert cfg.resolved_greater_is_better is True

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

    def test_fp16_parses_with_warning(self):
        with pytest.warns(UserWarning, match="float64"):
            cfg = TrainingConfig(fp16=True)
        assert cfg.fp16 is True

    def test_overrides(self):
        cfg = TrainingConfig().with_overrides(learning_rate=3e-4)
        assert cfg.learning_rate == 3e-4
        assert cfg.num_train_epochs == TrainingConfig().num_train_epochs


class TestAdamW:
    def test_first_step_moves_by_roughly_lr(self):
        # bias correction makes the first update m/(sqrt(v)+eps) ~= sign(g)
        params = {"w": np.array([[1.0]])}
        opt = AdamW(learning_rate=0.1)
        opt.step(params, {"w": np.array([[0.5]])})
        assert abs(params["w"][0, 0] - 0.9) < 1e-6

    def test_decay_only_touches_matrices(self):
        params = {"w": np.array([[2.0]]), "b": np.array([2.0])}
        opt = AdamW(learning_rate=0.01, weight_decay=0.1)
        zero = {"w": np.zeros((1, 1)), "b": np.zeros(1)}
        opt.step(params, zero)
        assert params["w"][0, 0] == pytest.approx(2.0 * (1 - 0.01 * 0.1))
        assert params["b"][0] == 2.0

    def test_state_accumulates(self):
        params = {"w": np.array([[0.0]])}
        opt = AdamW(learning_rate=0.1)
        for _ in range(3):
            opt.step(params, {"w": np.array([[1.0]])})
        assert opt.t == 3
        assert params["w"][0, 0] < -0.25

    def test_first_step_takes_the_warmup_rate(self):
        # step 1 of 4 runs at 0.1 / 4, and the first update is ~sign(g)
        params = {"w": np.array([[1.0]])}
        opt = AdamW(0.1, warmup_steps=4)
        opt.step(params, {"w": np.array([[0.5]])})
        assert abs(params["w"][0, 0] - 0.975) < 1e-6


class TestClipping:
    def test_scales_down_to_max_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_global_norm(grads, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        joint = np.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2)
        assert joint == pytest.approx(1.0)

    def test_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.3])}
        norm = clip_global_norm(grads, max_norm=1.0)
        assert norm == pytest.approx(0.3)
        assert grads["a"][0] == 0.3

    def test_overflowing_gradients_report_infinite_norm(self):
        grads = {"a": np.array([1e200, 1.0])}
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
