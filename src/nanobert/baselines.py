"""Order-blind reference models: bag-of-words classifiers and a ridge
regressor on mean-pooled encoder states.

These set the floor a contextual model has to beat. The two classifiers
see only word counts, so any task that lives in word order is invisible
to them by construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import numerics as nn
from .checkpoint import Checkpoint
from .data import LabeledDataset
from .model import encoder_forward
from .tokenizer import pre_tokenize

FORMAT_VERSION = 1


@dataclass
class BowVectorizer:
    """Word-count features over a vocabulary frozen at fit time."""

    vocab: dict[str, int]
    lowercase: bool = True

    @classmethod
    def fit(cls, texts, min_df: int = 1, lowercase: bool = True) -> "BowVectorizer":
        if min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {min_df}")
        df: dict[str, int] = {}
        for text in texts:
            if lowercase:
                text = text.lower()
            seen = {chunk for chunk, _ in pre_tokenize(text)}
            for word in seen:
                df[word] = df.get(word, 0) + 1
        kept = sorted(w for w, n in df.items() if n >= min_df)
        if not kept:
            raise ValueError("no word clears min_df; vocabulary would be empty")
        return cls(vocab={w: i for i, w in enumerate(kept)}, lowercase=lowercase)

    @property
    def num_features(self) -> int:
        return len(self.vocab)

    def transform(self, texts) -> np.ndarray:
        X = np.zeros((len(texts), len(self.vocab)))
        for row, text in enumerate(texts):
            if self.lowercase:
                text = text.lower()
            for chunk, _ in pre_tokenize(text):
                col = self.vocab.get(chunk)
                if col is not None:
                    X[row, col] += 1.0
        return X

    def to_json_dict(self) -> dict:
        return {"vocab": self.vocab, "lowercase": self.lowercase}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BowVectorizer":
        return cls(vocab={str(k): int(v) for k, v in data["vocab"].items()},
                   lowercase=bool(data["lowercase"]))


def _check_labels(y: np.ndarray, num_classes: int | None) -> int:
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("cannot fit on an empty dataset")
    k = int(y.max()) + 1 if num_classes is None else num_classes
    counts = np.bincount(y, minlength=k)
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        raise ValueError(f"class {int(empty[0])} has no training examples")
    return k


class MultinomialNB:
    """Count-based naive Bayes with additive smoothing."""

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha
        self.class_log_prior: np.ndarray | None = None
        self.feature_log_prob: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int | None = None) -> "MultinomialNB":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        k = _check_labels(y, num_classes)
        n, v = X.shape
        counts = np.zeros((k, v))
        docs = np.zeros(k)
        for c in range(k):
            rows = y == c
            counts[c] = X[rows].sum(axis=0)
            docs[c] = rows.sum()
        self.class_log_prior = np.log(docs / n)
        smoothed = counts + self.alpha
        self.feature_log_prob = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        return self

    def predict_log_joint(self, X: np.ndarray) -> np.ndarray:
        if self.feature_log_prob is None:
            raise ValueError("fit before predicting")
        return np.asarray(X, dtype=np.float64) @ self.feature_log_prob.T + self.class_log_prior

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_log_joint(X), axis=1).astype(np.int64)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "class_log_prior": self.class_log_prior.tolist(),
            "feature_log_prob": self.feature_log_prob.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MultinomialNB":
        model = cls(alpha=float(data["alpha"]))
        model.class_log_prior = np.asarray(data["class_log_prior"], dtype=np.float64)
        model.feature_log_prob = np.asarray(data["feature_log_prob"], dtype=np.float64)
        return model


class MaxEnt:
    """Multiclass logistic regression, full-batch gradient descent.

    The L2 penalty touches the weight matrix only; the intercept stays
    free, so with a crushing penalty the model falls back to the class
    priors instead of a uniform guess.
    """

    def __init__(self, l2: float = 1e-3, learning_rate: float = 0.5, epochs: int = 500):
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        if learning_rate <= 0 or epochs < 1:
            raise ValueError("learning_rate must be positive and epochs >= 1")
        self.l2 = l2
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.w: np.ndarray | None = None
        self.b: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int | None = None) -> "MaxEnt":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        k = _check_labels(y, num_classes)
        n, v = X.shape
        w = np.zeros((v, k))
        b = np.zeros(k)
        # feature scale varies with document length; normalizing the step
        # by the largest row norm keeps one learning rate usable everywhere
        scale = max(1.0, float(np.max(np.sum(X * X, axis=1))))
        lr = self.learning_rate / scale
        for _ in range(self.epochs):
            _, d_logits = nn.softmax_cross_entropy(X @ w + b, y)
            # penalty applied as a shrinkage step, stable for any l2
            w = (w - lr * (X.T @ d_logits)) / (1.0 + lr * self.l2)
            b -= lr * d_logits.sum(axis=0)
        self.w, self.b = w, b
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.w is None:
            raise ValueError("fit before predicting")
        return np.asarray(X, dtype=np.float64) @ self.w + self.b

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1).astype(np.int64)

    def to_json_dict(self) -> dict:
        return {
            "l2": self.l2,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "w": self.w.tolist(),
            "b": self.b.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MaxEnt":
        model = cls(l2=float(data["l2"]), learning_rate=float(data["learning_rate"]),
                    epochs=int(data["epochs"]))
        model.w = np.asarray(data["w"], dtype=np.float64)
        model.b = np.asarray(data["b"], dtype=np.float64)
        return model


class Ridge:
    """L2-regularized least squares with an unpenalized intercept.

    Features and targets are centered before solving the normal
    equations, so the penalty never fights the intercept; as l2 grows the
    prediction collapses to the target mean.
    """

    def __init__(self, l2: float = 1.0):
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.l2 = l2
        self.w: np.ndarray | None = None
        self.b: float | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Ridge":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"shapes {X.shape} and {y.shape} do not align")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        xc = X - x_mean
        yc = y - y_mean
        a = xc.T @ xc + self.l2 * np.eye(X.shape[1])
        self.w = np.linalg.solve(a, xc.T @ yc)
        self.b = y_mean - float(x_mean @ self.w)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.w is None:
            raise ValueError("fit before predicting")
        return np.asarray(X, dtype=np.float64) @ self.w + self.b

    def to_json_dict(self) -> dict:
        return {"l2": self.l2, "w": self.w.tolist(), "b": self.b}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Ridge":
        model = cls(l2=float(data["l2"]))
        model.w = np.asarray(data["w"], dtype=np.float64)
        model.b = float(data["b"])
        return model


def mean_pooled_features(model: Checkpoint, texts, *, max_length: int | None = None,
                         batch_size: int = 64) -> np.ndarray:
    """Encoder hidden states averaged over real (non-pad) positions."""
    ids, masks = model.encode_texts(texts, max_length)
    out = []
    for start in range(0, ids.shape[0], batch_size):
        batch_masks = masks[start : start + batch_size]
        h = encoder_forward(model.model_config, model.params, ids[start : start + batch_size],
                            batch_masks)
        weights = batch_masks.astype(np.float64)
        out.append((h * weights[:, :, None]).sum(axis=1) / weights.sum(axis=1, keepdims=True))
    return np.concatenate(out, axis=0)


BASELINE_KINDS = ("naive_bayes", "maxent")


@dataclass
class TextBaseline:
    """Bag-of-words pipeline: vectorizer plus fitted classifier."""

    kind: str
    vectorizer: BowVectorizer
    model: MultinomialNB | MaxEnt
    label_names: list[str] | None = None

    def predict(self, texts) -> np.ndarray:
        return self.model.predict(self.vectorizer.transform(texts))

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "vectorizer": self.vectorizer.to_json_dict(),
            "model": self.model.to_json_dict(),
            "label_names": self.label_names,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TextBaseline":
        if data.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported baseline format {data.get('format_version')!r}")
        kind = data["kind"]
        if kind == "naive_bayes":
            model = MultinomialNB.from_json_dict(data["model"])
        elif kind == "maxent":
            model = MaxEnt.from_json_dict(data["model"])
        else:
            raise ValueError(f"unknown baseline kind {kind!r}")
        names = data.get("label_names")
        return cls(kind=kind, vectorizer=BowVectorizer.from_json_dict(data["vectorizer"]),
                   model=model, label_names=list(names) if names else None)

    def save(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.to_json_dict(), f, sort_keys=True, allow_nan=False)
            f.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "TextBaseline":
        with open(path, encoding="utf-8") as f:
            return cls.from_json_dict(json.load(f))


def fit_text_baseline(kind: str, dataset: LabeledDataset, *, min_df: int = 1,
                      alpha: float = 1.0, l2: float = 1e-3,
                      learning_rate: float = 0.5, epochs: int = 500) -> TextBaseline:
    """Fit a bag-of-words classifier on a class-labeled dataset."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}, got {kind!r}")
    if dataset.label_kind != "class":
        raise ValueError("bag-of-words baselines require class labels")
    vectorizer = BowVectorizer.fit(dataset.texts, min_df=min_df)
    X = vectorizer.transform(dataset.texts)
    y = dataset.label_array()
    if kind == "naive_bayes":
        model = MultinomialNB(alpha=alpha).fit(X, y, num_classes=dataset.num_classes)
    else:
        model = MaxEnt(l2=l2, learning_rate=learning_rate, epochs=epochs).fit(
            X, y, num_classes=dataset.num_classes)
    return TextBaseline(kind=kind, vectorizer=vectorizer, model=model,
                        label_names=dataset.label_names)
