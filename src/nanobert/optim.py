"""Training knobs and the rules both training loops share: the AdamW update
with its warmup schedule, gradient clipping, the divergence check and the
best-epoch choice.

In a training loop, parameters, gradients and both Adam moments are one
float64 vector each in ``model.flatten``'s layout; named tensors are views."""

from __future__ import annotations

import contextlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import check_field_types
from .model import flatten
from .numerics import block_rows, blocks

CLASSIFICATION_METRICS = ("precision", "recall", "f1", "accuracy")
REGRESSION_METRICS = ("mse", "rmse", "pearson_r")
SUPPORTED_METRICS = CLASSIFICATION_METRICS + REGRESSION_METRICS
LOWER_IS_BETTER = ("mse", "rmse")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainingConfig:
    """Everything a training run needs beyond the model and the data.

    The selection direction follows the metric: error metrics
    (LOWER_IS_BETTER) select their minimum, all others their maximum.
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
    max_length: int = 512
    max_grad_norm: float = 1.0
    mask_prob: float = 0.15
    mask_token_ratio: float = 0.8
    random_token_ratio: float = 0.1

    def __post_init__(self):
        check_field_types(self)
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

    def to_dict(self) -> dict:
        return asdict(self)


def warmup_learning_rate(base_lr: float, step: int, warmup_steps: int) -> float:
    """Linear ramp over the first warmup_steps optimizer steps, then flat."""
    if warmup_steps <= 0 or step >= warmup_steps:
        return base_lr
    return base_lr * (step + 1) / warmup_steps


def clip_global_norm(grads: np.ndarray, max_norm: float) -> float:
    """Scale the gradient vector in place so its L2 norm is <= max_norm.

    Returns the pre-clip norm.
    """
    norm = math.sqrt(float(np.dot(grads, grads)))
    if norm > max_norm:
        grads *= max_norm / norm
    return norm


def check_step_finite(loss: float, grad_norm: float) -> None:
    """Stop a diverging run: raise if a step's loss or pre-clip gradient norm
    is not finite, before the update can carry it into the parameters. Run
    it inside the step's ``naming_step``, which adds the epoch and step."""
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise ValueError(f"loss {loss}, gradient norm before clipping {grad_norm}")


@contextlib.contextmanager
def naming_step(epoch: int, step: int):
    """Re-raise a numeric failure inside a training step (a forward pass that
    overflows into softmax, or a non-finite loss) with the epoch and step
    that hit it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"training diverged at epoch {epoch}, step {step}: {exc}") from exc


def select_best_epoch(values, greater_is_better: bool = True) -> int:
    """Index of the best value; earliest wins ties, NaN is never best."""
    best = None
    for i, v in enumerate(values):
        v = float(v)
        if math.isnan(v):
            continue
        if best is None or (v > values[best] if greater_is_better else v < values[best]):
            best = i
    if best is None:
        raise ValueError("no comparable values to select from")
    return best


class AdamW:
    """AdamW on ``model.flatten``'s vector of the named tensors ``layout``, with
    decoupled weight decay applied only to matrices; the moments are one
    vector each, updated in place.

    Bias vectors, layer-norm gains and shifts are one-dimensional and stay
    undecayed, matching common transformer practice. An entry whose
    gradient stays zero keeps its exact value. The moment decay rates and
    epsilon are the usual fixed ADAM_BETA1, ADAM_BETA2 and ADAM_EPS. The
    learning rate ramps up over the first ``warmup_steps`` steps.
    """

    def __init__(self, layout: dict[str, np.ndarray], learning_rate: float,
                 weight_decay: float = 0.0, warmup_steps: int = 0):
        self.learning_rate = learning_rate
        self.warmup_steps = warmup_steps
        self.t = 0
        size = sum(np.size(p) for p in layout.values())
        self._m, self._v = np.zeros(size), np.zeros(size)
        self._s1, self._s2 = np.empty((2, min(size, block_rows())))  # one block's scratch
        self._decay = None  # weight_decay on matrix entries, 0.0 elsewhere
        if weight_decay > 0.0:
            self._decay, _ = flatten({n: np.full(np.shape(p), weight_decay * (np.ndim(p) >= 2))
                                      for n, p in layout.items()})

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One update of the parameter vector from the gradient vector, block
        by block; the same operations, element by element, as a loop over
        the tensors."""
        lr = warmup_learning_rate(self.learning_rate, self.t, self.warmup_steps)
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for part in blocks(params.size):
            g, m, v, p = grads[part], self._m[part], self._v[part], params[part]
            s1, s2 = self._s1[: p.size], self._s2[: p.size]
            m += np.multiply(np.subtract(g, m, out=s1), 1.0 - ADAM_BETA1, out=s1)
            np.multiply(g, g, out=s1)
            v += np.multiply(np.subtract(s1, v, out=s1), 1.0 - ADAM_BETA2, out=s1)
            np.sqrt(np.divide(v, bc2, out=s1), out=s1)
            s1 += ADAM_EPS
            update = np.divide(np.divide(m, bc1, out=s2), s1, out=s2)
            if self._decay is not None:
                update += np.multiply(self._decay[part], p, out=s1)
            p -= np.multiply(update, lr, out=s2)
