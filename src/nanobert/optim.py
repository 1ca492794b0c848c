"""Training knobs and the AdamW update rule shared by both training loops."""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

CLASSIFICATION_METRICS = ("precision", "recall", "f1", "accuracy")
REGRESSION_METRICS = ("mse", "rmse", "pearson_r")
SUPPORTED_METRICS = CLASSIFICATION_METRICS + REGRESSION_METRICS
LOWER_IS_BETTER = ("mse", "rmse")


@dataclass
class TrainingConfig:
    """Everything a training run needs beyond the model and the data.

    ``greater_is_better`` left as None is derived from the metric: error
    metrics select their minimum, all others their maximum. ``fp16`` is
    accepted for config compatibility but computation stays float64.
    """

    num_train_epochs: int = 10
    train_batch_size: int = 64
    eval_batch_size: int = 128
    learning_rate: float = 1e-5
    warmup_steps: int = 0
    weight_decay: float = 0.01
    logging_steps: int = 100
    seed: int = 11
    metric_for_best_model: str = "precision"
    greater_is_better: bool | None = None
    max_length: int = 512
    max_grad_norm: float = 1.0
    fp16: bool = False
    mask_prob: float = 0.15
    mask_token_ratio: float = 0.8
    random_token_ratio: float = 0.1

    def __post_init__(self):
        if self.num_train_epochs < 0:
            raise ValueError(f"num_train_epochs must be >= 0, got {self.num_train_epochs}")
        if min(self.train_batch_size, self.eval_batch_size) < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.warmup_steps < 0 or self.logging_steps < 1:
            raise ValueError("warmup_steps must be >= 0 and logging_steps >= 1")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.metric_for_best_model not in SUPPORTED_METRICS:
            raise ValueError(
                f"unsupported metric {self.metric_for_best_model!r}; "
                f"choose one of {sorted(SUPPORTED_METRICS)}"
            )
        if self.max_length < 2:
            raise ValueError(f"max_length must be >= 2, got {self.max_length}")
        if self.max_grad_norm <= 0:
            raise ValueError(f"max_grad_norm must be positive, got {self.max_grad_norm}")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ValueError(f"mask_prob must be in [0, 1), got {self.mask_prob}")
        if not 0.0 <= self.mask_token_ratio + self.random_token_ratio <= 1.0:
            raise ValueError("mask_token_ratio + random_token_ratio must stay within [0, 1]")
        if self.fp16:
            warnings.warn(
                "fp16 is accepted for config compatibility but ignored; "
                "all computation runs in float64",
                stacklevel=2,
            )

    @property
    def resolved_greater_is_better(self) -> bool:
        if self.greater_is_better is not None:
            return self.greater_is_better
        return self.metric_for_best_model not in LOWER_IS_BETTER

    def with_overrides(self, **kwargs) -> "TrainingConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


def warmup_learning_rate(base_lr: float, step: int, warmup_steps: int) -> float:
    """Linear ramp over the first warmup_steps optimizer steps, then flat."""
    if warmup_steps <= 0 or step >= warmup_steps:
        return base_lr
    return base_lr * (step + 1) / warmup_steps


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def check_step_finite(loss: float, grad_norm: float, epoch: int, step: int) -> None:
    """Stop a diverging run: raise if a step's loss or pre-clip gradient norm
    is not finite, before the update can carry it into the parameters."""
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise ValueError(
            f"training diverged at epoch {epoch}, step {step}: "
            f"loss {loss}, gradient norm before clipping {grad_norm}"
        )


@contextlib.contextmanager
def naming_step(epoch: int, step: int):
    """Re-raise a numeric failure inside a training step (a forward pass that
    overflows into softmax, say) with the epoch and step that hit it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"training diverged at epoch {epoch}, step {step}: {exc}") from exc


class AdamW:
    """AdamW with decoupled weight decay applied only to matrices.

    Bias vectors, layer-norm gains and shifts are one-dimensional and stay
    undecayed, matching common transformer practice.
    """

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float | None = None) -> None:
        lr = self.learning_rate if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, g in grads.items():
            p = params[name]
            m = self._m.setdefault(name, np.zeros_like(p))
            v = self._v.setdefault(name, np.zeros_like(p))
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay > 0.0 and p.ndim >= 2:
                update = update + self.weight_decay * p
            p -= lr * update
