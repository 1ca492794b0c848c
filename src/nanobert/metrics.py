"""Evaluation metrics: per-class and weighted P/R/F1, accuracy, RMSE, Pearson r.

Zero denominators follow the convention metric = 0, recorded by a flag on
the report rather than silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import mse

# the keys ``report_to_json_dict`` sets beside its per-class blocks
REPORT_KEYS = ("accuracy", "weighted avg", "zero_division")


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class ClassificationReport:
    per_class: dict[int, ClassMetrics]
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    zero_division: bool


def _ratio(num, den) -> tuple[float, bool]:
    """``num / den`` and False, or 0.0 and True when ``den`` is zero."""
    return (num / den, False) if den else (0.0, True)


def classification_report(y_true, y_pred) -> ClassificationReport:
    """Confusion-matrix metrics over all class ids seen in either vector.

    Weighted averages use true-class support as weights, so weighted recall
    always equals accuracy.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(f"expected matching 1-D vectors, got {y_true.shape} and {y_pred.shape}")
    n = y_true.shape[0]
    if n == 0:
        raise ValueError("cannot score zero predictions")
    if y_true.min() < 0 or y_pred.min() < 0:
        raise ValueError("class ids must be non-negative")

    classes = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    zero_hit = False
    per_class: dict[int, ClassMetrics] = {}
    w_p = w_r = w_f = 0.0
    for c in classes:
        tp = int(np.sum((y_true == c) & (y_pred == c)))
        fp = int(np.sum((y_true != c) & (y_pred == c)))
        fn = int(np.sum((y_true == c) & (y_pred != c)))
        support = tp + fn
        precision, zero_p = _ratio(tp, tp + fp)
        recall, zero_r = _ratio(tp, support)
        f1, zero_f = _ratio(2.0 * precision * recall, precision + recall)
        zero_hit = zero_hit or zero_p or zero_r or zero_f
        per_class[c] = ClassMetrics(precision, recall, f1, support)
        w_p += support * precision
        w_r += support * recall
        w_f += support * f1

    accuracy = float(np.mean(y_true == y_pred))
    return ClassificationReport(
        per_class=per_class,
        accuracy=accuracy,
        weighted_precision=w_p / n,
        weighted_recall=w_r / n,
        weighted_f1=w_f / n,
        zero_division=zero_hit,
    )


def report_to_json_dict(report: ClassificationReport,
                        label_names: list[str] | None = None) -> dict:
    """Nested dict mirroring the usual text-classification report layout.

    Weighted averages live under "weighted avg" with keys "precision",
    "recall" and "f1-score"; per-class blocks are keyed by label name when
    names are given, else by the stringified id. A name that is one of
    ``REPORT_KEYS`` is refused.
    """
    if label_names:
        check_class_names(label_names)
    doc: dict = {}
    for c, m in sorted(report.per_class.items()):
        key = label_names[c] if label_names and c < len(label_names) else str(c)
        doc[key] = {
            "precision": m.precision,
            "recall": m.recall,
            "f1-score": m.f1,
            "support": m.support,
        }
    doc["accuracy"] = report.accuracy
    doc["weighted avg"] = {
        "precision": report.weighted_precision,
        "recall": report.weighted_recall,
        "f1-score": report.weighted_f1,
        "support": sum(m.support for m in report.per_class.values()),
    }
    if report.zero_division:
        doc["zero_division"] = True
    return doc


def check_class_names(names) -> None:
    """Refuse, naming it, a class name that would overwrite a report key."""
    for name in names:
        if name in REPORT_KEYS:
            raise ValueError(f"class name {name!r} is a key of the classification report")


def rmse(pred, target) -> float:
    return math.sqrt(mse(pred, target))


def pearson_r(x, y) -> float:
    """Sample Pearson correlation; undefined for constant vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"expected matching 1-D vectors, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ValueError("pearson_r needs at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sum(dx * dx))
    sy = float(np.sum(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson_r is undefined when either vector has zero variance")
    return float(np.sum(dx * dy) / math.sqrt(sx * sy))
