"""Task heads on a pretrained encoder: attach, train, select, predict.

A head is a single linear layer read off the first-position hidden state.
K >= 2 output columns make a classifier trained with cross-entropy; K = 1
makes a regressor trained with mean squared error. Training keeps the
epoch whose dev metric is best and returns that snapshot, never the last
one.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import numerics as nn
from .checkpoint import Checkpoint, save_checkpoint
from .data import LabeledDataset, batch_indices
from .metrics import classification_report, pearson_r, report_to_json_dict, rmse
from .model import (
    INIT_SCALE,
    encoder_backward,
    encoder_forward,
    encoder_forward_with_cache,
    pool_first_token,
)
from .optim import (
    CLASSIFICATION_METRICS,
    REGRESSION_METRICS,
    AdamW,
    TrainingConfig,
    check_step_finite,
    clip_global_norm,
    naming_step,
    warmup_learning_rate,
)
from .rng import Rng

logger = logging.getLogger(__name__)

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass
class HeadConfig:
    """Output layer description: K columns, and how they are trained."""

    num_labels: int
    task: str = CLASSIFICATION

    def __post_init__(self):
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"task must be {CLASSIFICATION!r} or {REGRESSION!r}, got {self.task!r}")
        if self.task == REGRESSION and self.num_labels != 1:
            raise ValueError(f"regression uses a single output, got num_labels={self.num_labels}")
        if self.task == CLASSIFICATION and self.num_labels < 2:
            raise ValueError(f"classification needs >= 2 labels, got {self.num_labels}")


def head_task(params: dict) -> str:
    """Task kind implied by the head shape; K = 1 means regression."""
    if "head.w" not in params:
        raise ValueError("model has no task head; call attach_head first")
    return REGRESSION if params["head.w"].shape[1] == 1 else CLASSIFICATION


def attach_head(model: Checkpoint, head: HeadConfig, rng: Rng,
                label_names: list[str] | None = None) -> Checkpoint:
    """Copy of the model with fresh head.w / head.b appended.

    Adds hidden_size * num_labels + num_labels parameters; everything else
    is carried over unchanged. An existing head is replaced.
    """
    if label_names is not None:
        if head.task != CLASSIFICATION:
            raise ValueError("label names only apply to classification heads")
        if len(label_names) != head.num_labels:
            raise ValueError(
                f"{len(label_names)} label names for a {head.num_labels}-way head"
            )
    n = model.model_config.hidden_size
    out = model.copy()
    out.params["head.w"] = rng.normal((n, head.num_labels), INIT_SCALE)
    out.params["head.b"] = np.zeros(head.num_labels)
    if label_names is not None:
        out.label_names = list(label_names)
    elif head.task == REGRESSION:
        out.label_names = None
    return out


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


def _check_head_fits(params: dict, dataset: LabeledDataset) -> None:
    """Reject a dataset whose label kind or class count the head cannot score."""
    if head_task(params) == REGRESSION:
        if dataset.label_kind != "real":
            raise ValueError("regression head requires real-valued labels")
        return
    if dataset.label_kind != "class":
        raise ValueError("classification head requires class-labeled data")
    num_labels = params["head.w"].shape[1]
    if dataset.num_classes != num_labels:
        raise ValueError(
            f"model head has {num_labels} classes but the dataset has {dataset.num_classes}"
        )


def _predictions(cfg, params, ids, masks, batch_size: int) -> np.ndarray:
    """Class ids (K >= 2) or real values (K = 1), scored batch by batch."""
    task = head_task(params)
    logits = []
    for start in range(0, ids.shape[0], batch_size):
        h = encoder_forward(cfg, params, ids[start : start + batch_size],
                            masks[start : start + batch_size])
        logits.append(pool_first_token(h) @ params["head.w"] + params["head.b"])
    logits = np.concatenate(logits, axis=0)
    if task == CLASSIFICATION:
        return np.argmax(logits, axis=1).astype(np.int64)
    return logits[:, 0].astype(np.float64)


def task_metrics(task: str, labels: np.ndarray, preds: np.ndarray,
                 label_names: list[str] | None = None) -> dict:
    """The metrics.json body for predictions against labels.

    Classification carries the weighted headline metrics plus the full
    per-class report; regression carries mse/rmse/pearson_r, with pearson_r
    NaN where it is undefined (constant labels or predictions).
    """
    if task == CLASSIFICATION:
        rep = classification_report(labels, preds)
        return {
            "task": CLASSIFICATION,
            "num_examples": len(labels),
            "metrics": {
                "accuracy": rep.accuracy,
                "precision": rep.weighted_precision,
                "recall": rep.weighted_recall,
                "f1": rep.weighted_f1,
            },
            "report": report_to_json_dict(rep, label_names=label_names),
        }
    try:
        r = pearson_r(labels, preds)
    except ValueError:
        r = float("nan")
    return {
        "task": REGRESSION,
        "num_examples": len(labels),
        "metrics": {"mse": nn.mse(preds, labels), "rmse": rmse(labels, preds), "pearson_r": r},
    }


def _jsonable(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


@dataclass
class FinetuneResult:
    checkpoint: Checkpoint
    history: list[dict]  # one entry per epoch: train_loss plus dev metrics
    best_epoch: int  # 0 means no epoch beat the initial parameters
    metric: str
    best_value: float


def train(
    config: TrainingConfig,
    model: Checkpoint,
    train_set: LabeledDataset,
    dev_set: LabeledDataset,
    output_dir: str | None = None,
) -> FinetuneResult:
    """Finetune a headed model; the input checkpoint is left untouched.

    Sequences are capped at the smaller of config.max_length and the
    model's position table. The epoch whose dev value of
    ``config.metric_for_best_model`` is best becomes the returned
    checkpoint; if the metric is NaN on every epoch the final epoch is
    kept and a warning is logged.
    """
    cfg = model.model_config
    task = head_task(model.params)

    valid = CLASSIFICATION_METRICS if task == CLASSIFICATION else REGRESSION_METRICS
    if config.metric_for_best_model not in valid:
        raise ValueError(
            f"metric {config.metric_for_best_model!r} does not apply to {task}; "
            f"choose one of {sorted(valid)}"
        )
    if train_set.label_kind != dev_set.label_kind:
        raise ValueError("train and dev sets carry different label kinds")
    _check_head_fits(model.params, train_set)

    train_ids, train_masks = model.encode_texts(train_set.texts, config.max_length)
    dev_ids, dev_masks = model.encode_texts(dev_set.texts, config.max_length)
    y_train = train_set.label_array()
    y_dev = dev_set.label_array()

    params = {k: v.copy() for k, v in model.params.items()}
    optimizer = AdamW(config.learning_rate, weight_decay=config.weight_decay)
    root = Rng(config.seed)
    greater = config.resolved_greater_is_better
    metric = config.metric_for_best_model

    history: list[dict] = []
    best_value = math.nan
    best_params = {k: v.copy() for k, v in params.items()}
    best_epoch = 0

    for epoch in range(1, config.num_train_epochs + 1):
        loss_sum, seen = 0.0, 0
        blocks = batch_indices(len(train_set), config.train_batch_size,
                               shuffle=True, seed=config.seed, epoch=epoch)
        for step, sel in enumerate(blocks):
            dropout_rng = root.spawn("dropout", epoch, step) if cfg.dropout > 0 else None
            with naming_step(epoch, step + 1):
                h, cache = encoder_forward_with_cache(
                    cfg, params, train_ids[sel], train_masks[sel], dropout_rng=dropout_rng
                )
                pooled = pool_first_token(h)
                logits = pooled @ params["head.w"] + params["head.b"]
                if task == CLASSIFICATION:
                    loss, d_logits = nn.softmax_cross_entropy(logits, y_train[sel])
                else:
                    preds = logits[:, 0]
                    loss = nn.mse(preds, y_train[sel])
                    d_logits = nn.mse_backward(preds, y_train[sel])[:, None]
                d_h = np.zeros_like(h)
                d_h[:, 0, :] = d_logits @ params["head.w"].T
                grads = encoder_backward(cfg, params, cache, d_h)
                grads["head.w"] = pooled.T @ d_logits
                grads["head.b"] = d_logits.sum(axis=0)
            grad_norm = clip_global_norm(grads, config.max_grad_norm)
            check_step_finite(loss, grad_norm, epoch, step + 1)
            lr = warmup_learning_rate(config.learning_rate, optimizer.t, config.warmup_steps)
            optimizer.step(params, grads, lr)
            loss_sum += loss * len(sel)
            seen += len(sel)

        entry = {"epoch": epoch, "train_loss": loss_sum / seen}
        with naming_step(epoch, step + 1):  # scores the parameters the last step left
            dev_preds = _predictions(cfg, params, dev_ids, dev_masks, config.eval_batch_size)
        entry.update(task_metrics(task, y_dev, dev_preds)["metrics"])
        history.append(entry)
        v = float(entry[metric])
        if not math.isnan(v) and (
            math.isnan(best_value) or (v > best_value if greater else v < best_value)
        ):
            best_value = v
            best_params = {k: p.copy() for k, p in params.items()}
            best_epoch = epoch

    if history and math.isnan(best_value):
        logger.warning("dev %s was NaN on every epoch; keeping the final epoch", metric)
        best_params = params
        best_epoch = len(history)

    best = Checkpoint(cfg, best_params, tokenizer=model.tokenizer,
                      label_names=model.label_names)
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        with open(os.path.join(output_dir, "metrics_log.jsonl"), "w", encoding="utf-8") as f:
            for entry in history:
                f.write(json.dumps({k: _jsonable(v) for k, v in entry.items()},
                                   sort_keys=True, allow_nan=False) + "\n")
        selection = {
            "metric": metric,
            "greater_is_better": greater,
            "values": [_jsonable(float(e[metric])) for e in history],
            "best_epoch": best_epoch,
            "best_value": _jsonable(best_value),
        }
        with open(os.path.join(output_dir, "selection.json"), "w", encoding="utf-8") as f:
            json.dump(selection, f, indent=2, sort_keys=True, allow_nan=False)
            f.write("\n")
        save_checkpoint(best, os.path.join(output_dir, "best.ckpt"))

    return FinetuneResult(checkpoint=best, history=history, best_epoch=best_epoch,
                          metric=metric, best_value=best_value)


def predict(model: Checkpoint, texts, *, max_length: int | None = None,
            batch_size: int = 64) -> np.ndarray:
    """Class ids (K >= 2) or real values (K = 1) for raw texts."""
    ids, masks = model.encode_texts(texts, max_length)
    return _predictions(model.model_config, model.params, ids, masks, batch_size)


def evaluate(model: Checkpoint, dataset: LabeledDataset, *,
             max_length: int | None = None, batch_size: int = 64) -> dict:
    """Metrics for a labeled dataset, shaped for metrics.json by ``task_metrics``."""
    _check_head_fits(model.params, dataset)
    preds = predict(model, dataset.texts, max_length=max_length, batch_size=batch_size)
    return task_metrics(head_task(model.params), dataset.label_array(), preds,
                        label_names=model.label_names or dataset.label_names)


@dataclass
class GridSearchResult:
    rows: list[dict]  # overrides, best_epoch, best_value per grid point
    best_index: int
    best_config: TrainingConfig
    metric: str


def grid_search(
    base_config: TrainingConfig,
    grid: dict[str, list],
    model_factory,
    train_set: LabeledDataset,
    dev_set: LabeledDataset,
) -> GridSearchResult:
    """Exhaustive sweep over the cartesian product of the grid values.

    ``model_factory()`` must return a fresh headed checkpoint per point so
    runs cannot contaminate each other. Points are compared on their best
    dev value of the base config's selection metric; the earliest point
    wins ties.
    """
    if not grid:
        raise ValueError("grid is empty")
    for forbidden in ("metric_for_best_model", "greater_is_better"):
        if forbidden in grid:
            raise ValueError(f"{forbidden} cannot vary across a grid; values would not compare")

    keys = list(grid)
    rows: list[dict] = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        config = base_config.with_overrides(**overrides)
        result = train(config, model_factory(), train_set, dev_set)
        rows.append({
            "overrides": overrides,
            "best_epoch": result.best_epoch,
            "best_value": result.best_value,
        })
    values = [row["best_value"] for row in rows]
    best_index = select_best_epoch(values, base_config.resolved_greater_is_better)
    best_config = base_config.with_overrides(**rows[best_index]["overrides"])
    return GridSearchResult(rows=rows, best_index=best_index,
                            best_config=best_config, metric=base_config.metric_for_best_model)
