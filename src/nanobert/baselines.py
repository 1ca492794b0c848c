"""Order-blind reference models: bag-of-words classifiers and a ridge
regressor on mean-pooled encoder states.

These set the floor a contextual model has to beat. The two classifiers
see only word counts, so any task that lives in word order is invisible
to them by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nn
from .checkpoint import Checkpoint
from .data import LabeledDataset, check_format_version, read_json, write_json
from .model import encoder_forward, scoring_batches
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


def _check_labels(y: np.ndarray, num_classes: int | None) -> np.ndarray:
    """Rows per class id. Refuses an empty set, an id at or above
    ``num_classes`` (when given) and a class with no rows."""
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("cannot fit on an empty dataset")
    if num_classes is not None and y.max() >= num_classes:
        raise ValueError(f"label id {int(y.max())} out of range for {num_classes} classes")
    counts = np.bincount(y, minlength=num_classes or 0)
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        raise ValueError(f"class {int(empty[0])} has no training examples")
    return counts


class _Fitted:
    """A model whose state is its constructor settings (``SETTINGS``) and the
    arrays ``fit`` sets (``FITTED``, None until then), saved by those names."""

    SETTINGS: tuple[str, ...] = ()
    FITTED: tuple[str, ...] = ()

    def _fitted(self, X) -> np.ndarray:
        """``X`` as float64, once the model is fitted."""
        if getattr(self, self.FITTED[0]) is None:
            raise ValueError("fit before predicting")
        return np.asarray(X, dtype=np.float64)

    def to_json_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in self.SETTINGS},
                **{name: np.asarray(getattr(self, name)).tolist() for name in self.FITTED}}

    @classmethod
    def from_json_dict(cls, data: dict):
        model = cls(**{name: data[name] for name in cls.SETTINGS})
        for name in cls.FITTED:
            setattr(model, name, np.asarray(data[name], dtype=np.float64))
        return model


class MultinomialNB(_Fitted):
    """Count-based naive Bayes with additive smoothing."""

    SETTINGS = ("alpha",)
    FITTED = ("class_log_prior", "feature_log_prob")
    class_log_prior = feature_log_prob = None

    def __init__(self, alpha: float = 1.0):
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int | None = None) -> "MultinomialNB":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        docs = _check_labels(y, num_classes)
        n, v = X.shape
        counts = np.zeros((docs.size, v))
        for c in range(docs.size):
            counts[c] = X[y == c].sum(axis=0)
        self.class_log_prior = np.log(docs / n)
        smoothed = counts + self.alpha
        self.feature_log_prob = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
        return self

    def predict_log_joint(self, X: np.ndarray) -> np.ndarray:
        return self._fitted(X) @ self.feature_log_prob.T + self.class_log_prior

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_log_joint(X), axis=1).astype(np.int64)


class MaxEnt(_Fitted):
    """Multiclass logistic regression, full-batch gradient descent.

    The L2 penalty touches the weight matrix only; the intercept stays
    free, so with a crushing penalty the model falls back to the class
    priors instead of a uniform guess.
    """

    SETTINGS = ("l2", "learning_rate", "epochs")
    FITTED = ("w", "b")
    w = b = None

    def __init__(self, l2: float = 1e-3, learning_rate: float = 0.5, epochs: int = 500):
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        if learning_rate <= 0 or epochs < 1:
            raise ValueError("learning_rate must be positive and epochs >= 1")
        self.l2 = l2
        self.learning_rate = learning_rate
        self.epochs = epochs

    def fit(self, X: np.ndarray, y: np.ndarray, num_classes: int | None = None) -> "MaxEnt":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        k = _check_labels(y, num_classes).size
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
        return self._fitted(X) @ self.w + self.b

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1).astype(np.int64)


class Ridge(_Fitted):
    """L2-regularized least squares with an unpenalized intercept.

    Features and targets are centered before solving the normal
    equations, so the penalty never fights the intercept; as l2 grows the
    prediction collapses to the target mean.
    """

    SETTINGS = ("l2",)
    FITTED = ("w", "b")
    w = b = None

    def __init__(self, l2: float = 1.0):
        if l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {l2}")
        self.l2 = l2

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
        return self._fitted(X) @ self.w + self.b


def mean_pooled_features(model: Checkpoint, texts, *, max_length: int | None = None,
                         batch_size: int = 64) -> np.ndarray:
    """Encoder hidden states averaged over real (non-pad) positions."""
    ids, masks = model.encode_texts(texts, max_length)
    out = np.empty((len(ids), model.model_config.hidden_size))  # zero texts give [0, N]
    for sel, batch_ids, batch_masks in scoring_batches(ids, masks, batch_size):
        h = encoder_forward(model.model_config, model.params, batch_ids, batch_masks)
        weights = batch_masks.astype(np.float64)
        out[sel] = (h * weights[:, :, None]).sum(axis=1) / weights.sum(axis=1, keepdims=True)
    nn.ensure_finite_rows(out, "features")
    return out


# the bag-of-words classifier of each kind; callers iterate kinds in this order
BASELINE_KINDS = {"naive_bayes": MultinomialNB, "maxent": MaxEnt}


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
        check_format_version(data, FORMAT_VERSION)
        kind = data["kind"]
        if kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {kind!r}")
        names = data.get("label_names")
        return cls(kind=kind, vectorizer=BowVectorizer.from_json_dict(data["vectorizer"]),
                   model=BASELINE_KINDS[kind].from_json_dict(data["model"]),
                   label_names=list(names) if names else None)

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "TextBaseline":
        return read_json(path, cls.from_json_dict)


def fit_text_baseline(kind: str, dataset: LabeledDataset, *, min_df: int = 1,
                      alpha: float = 1.0, l2: float = 1e-3,
                      learning_rate: float = 0.5, epochs: int = 500) -> TextBaseline:
    """Fit a bag-of-words classifier on a class-labeled dataset."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {tuple(BASELINE_KINDS)}, got {kind!r}")
    if dataset.label_kind != "class":
        raise ValueError("bag-of-words baselines require class labels")
    vectorizer = BowVectorizer.fit(dataset.texts, min_df=min_df)
    X = vectorizer.transform(dataset.texts)
    settings = dict(alpha=alpha, l2=l2, learning_rate=learning_rate, epochs=epochs)
    classifier = BASELINE_KINDS[kind]
    model = classifier(**{name: settings[name] for name in classifier.SETTINGS}).fit(
        X, dataset.label_array(), num_classes=dataset.num_classes)
    return TextBaseline(kind=kind, vectorizer=vectorizer, model=model,
                        label_names=dataset.label_names)
