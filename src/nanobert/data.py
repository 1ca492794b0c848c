"""Labeled text datasets: CSV ingestion, seeded splitting, batching; and
the rules by which nanobert writes and reads its files.

Splits are driven by the package RNG, never the host PRNG, so a seed pins
the exact partition on every platform. Sizes may be absolute counts
(integers >= 0) or fractions (floats in [0, 1), rounded half up against the
pool they draw from: test from the full set, dev from what test leaves).
Training batches may be bucketed by length (``batch_indices(lengths=)``),
so that a batch cut to its longest row carries little padding.

Files are written through ``replacing``, so none is ever left half written,
and read through ``reading``, so every error in what they hold names the
file. JSON files are UTF-8, 2-space indented, key-sorted strict JSON with a
trailing newline, and are read as strict JSON. CSV files are read through
``read_csv``, which checks the header and numbers rows by physical line.
A config dataclass is held to its field annotations by
``check_field_types``; a CLI value, by ``check_type`` as configs merge.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
import numbers
import operator
import os
from dataclasses import dataclass, fields

import numpy as np

from .rng import Rng

logger = logging.getLogger(__name__)

CLASSIFICATION = "classification"
REGRESSION = "regression"
# the label kind each task's head reads: a classifier class labels, a regressor real ones
LABEL_KIND = {CLASSIFICATION: "class", REGRESSION: "real"}
LABEL_KINDS = tuple(LABEL_KIND.values())
# batches per window that ``batch_indices`` sorts by length when given lengths
BUCKET_BATCHES = 8


@dataclass
class LabeledDataset:
    """Parallel texts and labels; class labels are contiguous ids from 0."""

    texts: list[str]
    labels: list
    label_kind: str
    label_names: list[str] | None = None

    def __post_init__(self):
        if self.label_kind not in LABEL_KINDS:
            raise ValueError(f"label_kind must be one of {LABEL_KINDS}, got {self.label_kind!r}")
        if len(self.texts) != len(self.labels):
            raise ValueError(
                f"{len(self.texts)} texts but {len(self.labels)} labels"
            )
        if self.label_kind == "class":
            for lab in self.labels:
                if not isinstance(lab, (int, np.integer)) or lab < 0:
                    raise ValueError(f"class labels must be non-negative ints, got {lab!r}")
            if self.label_names is not None:
                top = max(self.labels, default=-1)
                if top >= len(self.label_names):
                    raise ValueError(
                        f"label id {top} out of range for {len(self.label_names)} label names"
                    )

    def __len__(self) -> int:
        return len(self.texts)

    @property
    def num_classes(self) -> int:
        if self.label_kind != "class":
            raise ValueError("num_classes is undefined for real-valued labels")
        if self.label_names is not None:
            return len(self.label_names)
        return int(max(self.labels)) + 1 if self.labels else 0

    def label_array(self) -> np.ndarray:
        dtype = np.int64 if self.label_kind == "class" else np.float64
        return np.asarray(self.labels, dtype=dtype)

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset(
            texts=[self.texts[i] for i in indices],
            labels=[self.labels[i] for i in indices],
            label_kind=self.label_kind,
            label_names=self.label_names,
        )


@contextlib.contextmanager
def replacing(path: str, mode: str = "w"):
    """Write through ``<path>.tmp`` and rename it onto ``path`` when the block
    ends, so a crash never leaves a half-written file at ``path``. If the
    write or the rename fails, the temp file is removed and the error
    re-raised. Text is UTF-8, written without newline translation."""
    tmp = f"{path}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def reading(path: str, mode: str = "r"):
    """``path`` opened for reading: UTF-8 text without newline translation,
    or bytes for ``"rb"``. A decode, lookup, type, attribute or value error
    raised in the block is re-raised as a ValueError naming ``path``."""
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(path, mode, **text) as f:
            yield f
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        detail = exc if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        raise ValueError(f"{path}: {detail}") from exc


def jsonable(obj):
    """``obj`` with NumPy scalars made Python ones and NaN made None, so it
    dumps as strict JSON (null for an undefined metric)."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def write_json(path: str, obj) -> None:
    """``obj`` as UTF-8, 2-space indented, key-sorted strict JSON with a
    trailing newline (see ``jsonable``)."""
    with replacing(path) as f:
        json.dump(jsonable(obj), f, ensure_ascii=False, indent=2, sort_keys=True,
                  allow_nan=False)
        f.write("\n")


def write_lines(path: str, lines) -> None:
    """Each of ``lines`` followed by a newline."""
    with replacing(path) as f:
        f.writelines(f"{line}\n" for line in lines)


def write_csv(path: str, texts, labels, text_column: str = "text",
              label_column: str = "label") -> None:
    """A two-column CSV: a header, then one row per text and label."""
    with replacing(path) as f:
        writer = csv.writer(f)
        writer.writerow([text_column, label_column])
        writer.writerows(zip(texts, labels))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite JSON number")
    return value


def parse_json(text):
    """``text`` parsed as strict JSON, as every writer writes it: a ``NaN``,
    ``Infinity`` or ``-Infinity`` literal is refused, and so is a number too
    large for a float, such as ``1e999``."""
    return json.loads(text, parse_constant=_refuse_constant, parse_float=_finite_float)


def check_format_version(doc: dict, version: int) -> None:
    """Refuse a file's document unless its ``format_version`` is ``version``."""
    if doc.get("format_version") != version:
        raise ValueError(f"unsupported format version {doc.get('format_version')!r}")


# an annotation's name -> the values it admits; a bool is refused where it is not named
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str,
                "None": type(None)}


def check_type(name: str, value, annotation: str) -> None:
    """Refuse, naming it, a setting ``value`` that ``annotation`` (such as
    ``int`` or ``bool | None``) does not admit: a bool passes only for
    ``bool``, and an int passes for a ``float``."""
    kinds = annotation.split(" | ")
    if (not any(isinstance(value, _FIELD_KINDS[kind]) for kind in kinds)
            or (isinstance(value, bool) and "bool" not in kinds)):
        raise ValueError(f"{name} must be {' or '.join(kinds)}, got {value!r}")


def check_field_types(config) -> None:
    """``check_type`` on each field of the dataclass ``config``, by its annotation."""
    for field in fields(config):
        check_type(field.name, getattr(config, field.name), field.type)


def read_json(path: str, parse=None):
    """The strict JSON document at ``path``, passed through ``parse`` when given."""
    with reading(path) as f:
        doc = parse_json(f.read())
        return doc if parse is None else parse(doc)


def read_csv(path: str, columns, parse):
    """``parse(rows)`` for the CSV at ``path``, once its header names each of
    ``columns``. ``rows`` yields ``(line, row)`` per record: the physical
    line it ends on (past blank lines and quoted newlines) and its fields by
    column name. A record that ends before a named column is refused by
    line. ``parse`` runs while the file is read, so its errors name the file
    too."""
    with reading(path) as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        for col in columns:
            if col not in header:
                raise ValueError(f"column {col!r} not found; file has {header}")

        def rows():
            for row in reader:
                for col in columns:
                    if row[col] is None:
                        raise ValueError(f"line {reader.line_num}: no {col!r} field")
                yield reader.line_num, row

        return parse(rows())


def load_csv(
    path: str,
    text_column: str,
    label_column: str,
    label_kind: str = "class",
    label_names: list[str] | None = None,
) -> LabeledDataset:
    """Read a CSV with headers into a LabeledDataset.

    Class labels map to contiguous ids by first appearance; pass the
    ``label_names`` of a previous load to reuse its mapping (unknown labels
    then fail instead of extending it). An empty class label is refused,
    and real labels must parse as finite floats. Rows with empty text are
    skipped with a logged count.
    """
    if label_kind not in LABEL_KINDS:
        raise ValueError(f"label_kind must be one of {LABEL_KINDS}, got {label_kind!r}")
    frozen = label_names is not None
    mapping = {name: i for i, name in enumerate(label_names or [])}  # ids in insertion order
    texts: list[str] = []
    labels: list = []

    def parse(rows) -> int:
        skipped = 0
        for line, row in rows:
            text = row[text_column].strip()
            raw = row[label_column].strip()
            if not text:
                skipped += 1
                continue
            if label_kind == "class":
                if not raw:
                    raise ValueError(f"line {line}: empty class label")
                if frozen and raw not in mapping:
                    raise ValueError(f"line {line}: label {raw!r} not in the provided mapping")
                labels.append(mapping.setdefault(raw, len(mapping)))
            else:
                try:
                    value = float(raw)
                except ValueError:
                    raise ValueError(
                        f"line {line}: cannot parse {raw!r} as a real label") from None
                if not math.isfinite(value):
                    raise ValueError(f"line {line}: real label {raw!r} is not finite")
                labels.append(value)
            texts.append(text)
        return skipped

    skipped = read_csv(path, (text_column, label_column), parse)
    if skipped:
        logger.warning("%s: skipped %d rows with empty text", path, skipped)
    names = label_names if frozen else list(mapping)
    return LabeledDataset(
        texts=texts,
        labels=labels,
        label_kind=label_kind,
        label_names=names if label_kind == "class" else None,
    )


def _as_count(size, pool: int, name: str) -> int:
    """Fractions in [0, 1) round half up against the pool; ints pass through."""
    if isinstance(size, bool):
        raise ValueError(f"{name} must be a count or fraction, got a bool")
    if isinstance(size, (int, np.integer)):
        if size < 0:
            raise ValueError(f"{name} must be >= 0, got {size}")
        return int(size)
    if isinstance(size, float):
        if 0.0 <= size < 1.0:
            return int(pool * size + 0.5)
        raise ValueError(
            f"{name}={size} is ambiguous: use a float in [0, 1) for a fraction "
            f"or an int for a count"
        )
    raise ValueError(f"{name} must be an int or float, got {type(size).__name__}")


def _largest_remainder(counts: list[int], total: int) -> list[int]:
    """Apportion ``total`` slots proportionally to ``counts``.

    Floor the quotas, then hand leftover slots to the largest fractional
    remainders; ties go to the smaller class id. An empty pool gets zeros.
    """
    pool = sum(counts)
    if not pool:
        return [0] * len(counts)
    quotas = [total * c / pool for c in counts]
    alloc = [int(q) for q in quotas]
    leftover = total - sum(alloc)
    order = sorted(range(len(counts)), key=lambda i: (-(quotas[i] - alloc[i]), i))
    for i in order[:leftover]:
        alloc[i] += 1
    return alloc


def split(
    ds: LabeledDataset,
    test_size,
    dev_size,
    seed: int,
    stratify: bool = False,
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Partition into (train, dev, test): test drawn first, dev from the rest.

    With ``stratify``, both draws allocate per class proportionally via
    largest-remainder rounding. Splits are returned in original row order.
    """
    n = len(ds)
    test_n = _as_count(test_size, n, "test_size")
    if test_n > n:
        raise ValueError(f"test_size {test_n} exceeds dataset size {n}")
    dev_n = _as_count(dev_size, n - test_n, "dev_size")
    if test_n + dev_n > n:
        raise ValueError(
            f"test_size {test_n} plus dev_size {dev_n} exceeds dataset size {n}"
        )

    perm = Rng(seed).spawn("split").permutation(n).tolist()
    groups = [perm]  # an unstratified split is a stratified one with one class
    if stratify:
        if ds.label_kind != "class":
            raise ValueError("stratified splitting requires class labels")
        groups = [[] for _ in range(ds.num_classes)]
        for pos in perm:
            groups[ds.labels[pos]].append(pos)
        parts = 1 + (test_n > 0) + (dev_n > 0)
        thin = [c for c, members in enumerate(groups) if 0 < len(members) < parts]
        if thin:
            raise ValueError(
                f"stratified split needs at least {parts} samples per class "
                f"(one per part); classes {thin} are smaller"
            )
    counts = [len(members) for members in groups]
    test_alloc = _largest_remainder(counts, test_n)
    dev_alloc = _largest_remainder([c - a for c, a in zip(counts, test_alloc)], dev_n)
    train_idx: list[int] = []
    dev_idx: list[int] = []
    test_idx: list[int] = []
    for members, t_n, d_n in zip(groups, test_alloc, dev_alloc):
        test_idx.extend(members[:t_n])
        dev_idx.extend(members[t_n : t_n + d_n])
        train_idx.extend(members[t_n + d_n :])
    return tuple(ds.subset(sorted(idx)) for idx in (train_idx, dev_idx, test_idx))


def batch_indices(n: int, batch_size: int, stream: Rng | None = None,
                  lengths=None) -> list[np.ndarray]:
    """Index blocks covering range(n), in the order the epoch's ``stream``
    draws, or in order without one.

    The rows are taken in ``stream``'s permutation, or in order. With
    ``lengths``, each window of ``BUCKET_BATCHES * batch_size`` of those
    rows is stable-sorted by length before the blocks are cut, so a block
    holds rows of similar length, and with a stream the blocks are then put
    in an order drawn from ``stream.spawn("order")``. A block is thus a run
    of similar lengths within one stretch of the permutation, not a slice of
    the whole set sorted by length.
    """
    try:
        if isinstance(batch_size, bool):
            raise TypeError
        batch_size = operator.index(batch_size)
    except TypeError:
        raise ValueError(f"batch_size must be an int, got {batch_size!r}") from None
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(n) if stream is None else stream.permutation(n)
    if lengths is not None:
        if len(lengths) != n:
            raise ValueError(f"{len(lengths)} lengths for {n} rows")
        window = np.arange(n) // (BUCKET_BATCHES * batch_size)
        order = order[np.lexsort((np.asarray(lengths)[order], window))]  # stable
    blocks = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    if lengths is not None and stream is not None:
        blocks = [blocks[i] for i in stream.spawn("order").permutation(len(blocks))]
    return blocks
