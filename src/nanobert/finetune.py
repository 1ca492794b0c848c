"""Task heads on a pretrained encoder: attach, train, select, predict.

A head is a single linear layer read off the first-position hidden state,
so training and scoring run the encoder's last layer at that position only.
K >= 2 output columns make a classifier trained with cross-entropy; K = 1
makes a regressor trained with mean squared error. Training keeps the
epoch whose dev metric is best and returns that snapshot, never the last
one.
"""

from __future__ import annotations

import copy
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import numerics as nn
from .checkpoint import Checkpoint, save_checkpoint, task_of_width
from .data import (
    CLASSIFICATION,
    LABEL_KIND,
    REGRESSION,
    LabeledDataset,
    batch_indices,
    check_field_types,
    jsonable,
    write_json,
    write_lines,
)
from .metrics import classification_report, pearson_r, report_to_json_dict, rmse
from .model import (
    INIT_SCALE,
    cut_batch,
    encoder_backward,
    encoder_forward,
    encoder_forward_with_cache,
    flatten,
    pool_first_token,
    scoring_batches,
    views,
)
from .optim import (
    CLASSIFICATION_METRICS,
    LOWER_IS_BETTER,
    MAX_GRAD_NORM,
    REGRESSION_METRICS,
    AdamW,
    TrainingConfig,
    check_step_finite,
    clip_global_norm,
    naming_step,
    select_best_epoch,
)
from .rng import Rng

logger = logging.getLogger(__name__)


@dataclass
class HeadConfig:
    """Output layer description: K columns, whose count is the head's task
    (``checkpoint.task_of_width``: 1 a regressor, K >= 2 a classifier)."""

    num_labels: int

    def __post_init__(self):
        check_field_types(self)
        task_of_width(self.num_labels, "num_labels")


def head_task(params: dict) -> str:
    """The task of the model's head, by its width; a model with no head is refused."""
    if "head.w" not in params:
        raise ValueError("model has no task head; call attach_head first")
    return task_of_width(params["head.w"].shape[1])


def attach_head(model: Checkpoint, head: HeadConfig, rng: Rng,
                label_names: list[str] | None = None) -> Checkpoint:
    """Copy of the model with fresh head.w / head.b appended.

    Adds hidden_size * num_labels + num_labels parameters; everything else
    is carried over unchanged. An existing head and its label names are
    replaced. The copy is a ``Checkpoint``, so its label names are held to
    the checkpoint rule.
    """
    params = dict(model.params)
    params["head.w"] = rng.normal((model.model_config.hidden_size, head.num_labels), INIT_SCALE)
    params["head.b"] = np.zeros(head.num_labels)
    return Checkpoint(model.model_config, flatten(params)[1], model.tokenizer,
                      copy.copy(label_names))


def fit_to_head(model: Checkpoint, dataset: LabeledDataset, name: str) -> LabeledDataset:
    """The dataset with its class ids in the head's order, checked to fit it.

    Refuses an empty set by ``name``, and labels of another kind than the
    head's task reads (``LABEL_KIND``). When both the dataset and the
    checkpoint name their classes, each row's class is mapped to the
    checkpoint's id for that name, so a dataset may list any subset of the
    classes in any order; a name the checkpoint does not know is refused
    (after a class-count mismatch, which names both counts).
    """
    if len(dataset) == 0:
        raise ValueError(f"the {name} has no examples")
    task = head_task(model.params)
    if dataset.label_kind != LABEL_KIND[task]:
        raise ValueError(f"{task} head requires {LABEL_KIND[task]!r} labels, "
                         f"got {dataset.label_kind!r}")
    if task == REGRESSION:
        return dataset
    unknown = []
    if model.label_names and dataset.label_names:
        label_ids = {label: i for i, label in enumerate(model.label_names)}
        unknown = [label for label in dataset.label_names if label not in label_ids]
        if not unknown:
            labels = [label_ids[dataset.label_names[lab]] for lab in dataset.labels]
            dataset = LabeledDataset(dataset.texts, labels, "class", list(model.label_names))
    num_labels = model.params["head.w"].shape[1]
    if dataset.num_classes != num_labels:
        raise ValueError(f"model head has {num_labels} classes but the dataset has "
                         f"{dataset.num_classes}")
    if unknown:
        raise ValueError(f"dataset label {unknown[0]!r} unknown to the checkpoint "
                         f"(it has {model.label_names})")
    return dataset


def _cls_positions(rows: int) -> np.ndarray:
    """The one position a head reads, [CLS], for each of ``rows`` rows."""
    return np.zeros((rows, 1), dtype=np.int64)


def _predictions(cfg, params, ids, lengths, batch_size: int) -> np.ndarray:
    """Class ids (K >= 2) or real values (K = 1), scored batch by batch."""
    task = head_task(params)
    logits = np.empty((len(ids), params["head.b"].size))  # zero texts give [0, K]
    for sel, batch_ids, batch_mask in scoring_batches(ids, lengths, batch_size):
        h = encoder_forward(cfg, params, batch_ids, batch_mask, positions=_cls_positions(sel.size))
        logits[sel] = pool_first_token(h) @ params["head.w"] + params["head.b"]
    nn.ensure_finite_rows(logits, "logits")  # argmax would read NaN as class 0
    if task == CLASSIFICATION:
        return np.argmax(logits, axis=1).astype(np.int64)
    return logits[:, 0].astype(np.float64)


def head_loss_and_grads(params: dict, h: np.ndarray, labels: np.ndarray,
                        grads: dict | None = None) -> tuple[float, np.ndarray, dict]:
    """Task-head loss on the encoder output ``h``, d loss / d h, and the
    gradients of head.w and head.b, written into the arrays of ``grads``
    when given (a new dict of the two otherwise): cross-entropy for K >= 2
    columns, mean squared error for K = 1."""
    pooled = pool_first_token(h)
    logits = pooled @ params["head.w"] + params["head.b"]
    if head_task(params) == CLASSIFICATION:
        loss, d_logits = nn.softmax_cross_entropy(logits, labels)
    else:
        preds = logits[:, 0]
        loss = nn.mse(preds, labels)
        d_logits = nn.mse_backward(preds, labels)[:, None]
    d_h = np.zeros_like(h)
    d_h[:, 0, :] = d_logits @ params["head.w"].T
    grads = {} if grads is None else grads
    grads["head.w"] = np.matmul(pooled.T, d_logits, out=grads.get("head.w"))
    grads["head.b"] = np.sum(d_logits, axis=0, out=grads.get("head.b"))
    return loss, d_h, grads


def _train_step(cfg, params: dict, grads: dict, workspace: dict, ids: np.ndarray,
                lengths: np.ndarray, labels: np.ndarray, dropout_rng: Rng) -> float:
    """One step's loss, with every gradient written into ``grads``. The
    activations live in ``workspace``; the step's other arrays go when it
    returns."""
    h, cache = encoder_forward_with_cache(cfg, params, *cut_batch(ids, lengths),
                                          dropout_rng=dropout_rng, cache=workspace,
                                          positions=_cls_positions(len(ids)))
    loss, d_h, _ = head_loss_and_grads(params, h, labels, grads)
    encoder_backward(cfg, params, cache, d_h, grads)
    return loss


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


@dataclass
class FinetuneResult:
    checkpoint: Checkpoint
    history: list[dict]  # one entry per epoch: train_loss plus dev metrics
    best_epoch: int  # 0 only when no epoch ran; if every dev value is NaN, the final epoch
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
    train_set = fit_to_head(model, train_set, "training set")
    dev_set = fit_to_head(model, dev_set, "dev set")

    train_ids, train_lengths = model.encode_texts(train_set.texts, config.max_length)
    dev_ids, dev_lengths = model.encode_texts(dev_set.texts, config.max_length)
    y_train = train_set.label_array()
    y_dev = dev_set.label_array()

    vector, params = flatten(model.params)
    grad_vector = np.zeros_like(vector)  # mlm_bias gets no gradient and stays zero
    grad_views = views(grad_vector, params)
    optimizer = AdamW(params, config.learning_rate, config.weight_decay, config.warmup_steps)
    root = Rng(config.seed)
    metric = config.metric_for_best_model
    greater = metric not in LOWER_IS_BETTER

    history: list[dict] = []
    values: list[float] = []  # dev value of the selection metric per epoch
    best_vector = vector.copy()
    best_epoch = 0

    for epoch in range(1, config.num_train_epochs + 1):
        loss_sum, seen = 0.0, 0
        blocks = batch_indices(len(train_set), config.train_batch_size,
                               root.spawn("batch", epoch), lengths=train_lengths)
        workspace: dict = {}  # the epoch's activation buffers, reused by every step
        for step, sel in enumerate(blocks):
            with naming_step(epoch, step + 1):
                loss = _train_step(cfg, params, grad_views, workspace,
                                   train_ids[sel], train_lengths[sel], y_train[sel],
                                   root.spawn("dropout", epoch, step))
                check_step_finite(loss, clip_global_norm(grad_vector, MAX_GRAD_NORM))
                optimizer.step(vector, grad_vector)
            loss_sum += loss * len(sel)
            seen += len(sel)
        del workspace  # the dev pass below scores without the step buffers beside it

        entry = {"epoch": epoch, "train_loss": loss_sum / seen}
        with naming_step(epoch, step + 1):  # scores the parameters the last step left
            dev_preds = _predictions(cfg, params, dev_ids, dev_lengths, config.eval_batch_size)
        entry.update(task_metrics(task, y_dev, dev_preds)["metrics"])
        history.append(entry)
        values.append(float(entry[metric]))
        if not math.isnan(values[-1]) and select_best_epoch(values, greater) == epoch - 1:
            best_vector = vector.copy()
            best_epoch = epoch

    if values and best_epoch == 0:
        logger.warning("dev %s was NaN on every epoch; keeping the final epoch", metric)
        best_vector = vector
        best_epoch = len(values)
    best_value = values[best_epoch - 1] if best_epoch else math.nan

    best = Checkpoint(cfg, views(best_vector, params), tokenizer=model.tokenizer,
                      label_names=model.label_names)
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        write_lines(os.path.join(output_dir, "metrics_log.jsonl"),
                    (json.dumps(jsonable(entry), sort_keys=True, allow_nan=False)
                     for entry in history))
        write_json(os.path.join(output_dir, "selection.json"), {
            "metric": metric,
            "greater_is_better": greater,
            "values": values,
            "best_epoch": best_epoch,
            "best_value": best_value,
        })
        save_checkpoint(best, os.path.join(output_dir, "best.ckpt"))

    return FinetuneResult(checkpoint=best, history=history, best_epoch=best_epoch,
                          metric=metric, best_value=best_value)


def predict(model: Checkpoint, texts, *, max_length: int | None = None,
            batch_size: int = 64) -> np.ndarray:
    """Class ids (K >= 2) or real values (K = 1) for raw texts."""
    ids, lengths = model.encode_texts(texts, max_length)
    return _predictions(model.model_config, model.params, ids, lengths, batch_size)


def evaluate(model: Checkpoint, dataset: LabeledDataset, *,
             max_length: int | None = None, batch_size: int = 64) -> dict:
    """Metrics for a labeled dataset, shaped for metrics.json by ``task_metrics``."""
    dataset = fit_to_head(model, dataset, "dataset")
    preds = predict(model, dataset.texts, max_length=max_length, batch_size=batch_size)
    return task_metrics(head_task(model.params), dataset.label_array(), preds,
                        label_names=model.label_names or dataset.label_names)

