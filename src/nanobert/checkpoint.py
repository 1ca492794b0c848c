"""Model checkpoints: one binary file, bit-exact across save/load.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header (format
version, model configuration, parameter name-to-shape table, optional
tokenizer reference and label names), then the body: the little-endian
bytes of ``model.flatten``'s vector of the parameters, in the table's order.
Writes go to a temp file in the same directory followed by an atomic rename,
so a crash cannot leave a half-written checkpoint behind.

The tokenizer travels as a sibling JSON file named in the header, keeping
the binary format independent of the tokenizer schema. It is written before
the checkpoint, so a checkpoint never names a tokenizer that is not there.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .data import CLASSIFICATION, REGRESSION, check_format_version, parse_json, reading, replacing
from .metrics import check_class_names
from .model import ModelConfig, flatten, param_shapes, views
from .tokenizer import TokenizerModel

FORMAT_VERSION = 1


def task_of_width(columns: int, name: str = "head.w's column count") -> str:
    """The task of a head of ``columns`` output columns, decided here alone:
    1 is a regressor, K >= 2 a classifier, and any other width is refused."""
    if columns < 1:
        raise ValueError(f"{name} must be 1 (a regressor) or >= 2 (a classifier), got {columns}")
    return REGRESSION if columns == 1 else CLASSIFICATION


@dataclass
class Checkpoint:
    model_config: ModelConfig
    params: dict[str, np.ndarray]
    tokenizer: TokenizerModel | None = None
    label_names: list[str] | None = None

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """The one checkpoint rule, run when a checkpoint is made and saved:
        refuse parameters other than the shapes the config and its head call
        for, a head of a width no task has, label names that do not fit the
        head, a tokenizer of another vocab size, and a parameter holding NaN or
        an infinity (the first)."""
        config = self.model_config
        shapes = checked_shapes(config, {name: np.shape(p) for name, p in self.params.items()})
        head = shapes.get("head.w")
        checked_label_names(self.label_names, None if head is None else head[1])
        if self.tokenizer is not None and self.tokenizer.vocab_size != config.vocab_size:
            raise ValueError(f"model vocab_size {config.vocab_size} does not match "
                             f"tokenizer vocab of {self.tokenizer.vocab_size}")
        for name in sorted(self.params):
            if not np.isfinite(self.params[name]).all():
                raise ValueError(f"parameter {name} holds a non-finite value")

    def encode_texts(self, texts, max_length: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Padded int64 ids and attention masks, [len(texts), L], for raw texts.

        L is ``max_length``, defaulting to and capped at the position table.
        """
        if self.tokenizer is None:
            raise ValueError("model carries no tokenizer; cannot encode text")
        limit = self.model_config.max_positions
        max_length = limit if max_length is None else min(max_length, limit)
        encodings = [self.tokenizer.encode(text, max_length) for text in texts]
        shape = (len(encodings), max_length)  # [0, L] for no texts
        return (np.asarray([e.ids for e in encodings], dtype=np.int64).reshape(shape),
                np.asarray([e.attention_mask for e in encodings], dtype=np.int64).reshape(shape))


def _tokenizer_sibling(path: str) -> str:
    return path + ".tokenizer.json"


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write ``ckpt`` to ``path``, and its tokenizer beside it. Its dict may
    have changed since it was made, so the checkpoint rule is applied again
    first: a refusal names ``path``, and nothing is written."""
    try:
        ckpt.check()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    body, params = flatten(ckpt.params)
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": ckpt.model_config.to_dict(),
        "params": [[name, list(p.shape)] for name, p in params.items()],
        "tokenizer_ref": os.path.basename(_tokenizer_sibling(path)) if ckpt.tokenizer else None,
        "label_names": ckpt.label_names,
    }
    blob = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    if ckpt.tokenizer is not None:
        ckpt.tokenizer.save(_tokenizer_sibling(path))
    with replacing(path, "wb") as f:
        f.write(struct.pack("<Q", len(blob)) + blob)
        f.write(body.astype("<f8", copy=False))


def load_checkpoint(path: str) -> Checkpoint:
    """The checkpoint at ``path``, read whole; every error names the file."""
    with reading(path, "rb") as f:
        raw = f.read()
        if len(raw) < 8:
            raise ValueError("truncated before header length")
        start = 8 + struct.unpack("<Q", raw[:8])[0]
        if len(raw) < start:
            raise ValueError("truncated header")
        header = parse_json(raw[8:start].decode("utf-8"))
        check_format_version(header, FORMAT_VERSION)
        config = ModelConfig(**header["model_config"])
        names = [name for name, _ in header["params"]]
        if names != sorted(set(names)):
            raise ValueError("parameter names are not unique and in sorted order")
        shapes = checked_shapes(config, {name: tuple(shape) for name, shape in header["params"]})
        size = 8 * sum(math.prod(shape) for shape in shapes.values())
        if len(raw) - start < size:
            raise ValueError(f"truncated body: {len(raw) - start} of {size} bytes")
        if len(raw) - start > size:
            raise ValueError("trailing bytes after last parameter")
        tokenizer = None
        ref = header.get("tokenizer_ref")
        if ref:
            sibling = os.path.join(os.path.dirname(path) or ".", ref)
            if not os.path.exists(sibling):
                raise ValueError(f"the tokenizer it names is missing: {sibling}")
            tokenizer = TokenizerModel.load(sibling)
        body = np.frombuffer(raw, "<f8", offset=start).astype(np.float64)
        return Checkpoint(config, views(body, shapes), tokenizer, header.get("label_names"))


def checked_shapes(config: ModelConfig, shapes: dict) -> dict[str, tuple[int, ...]]:
    """The shapes ``config`` and its head call for, once ``shapes`` (name to
    shape tuple) holds exactly those names with exactly those shapes."""
    head = shapes.get("head.w")
    expected = param_shapes(config, head[-1] if head else None)
    missing = set(expected) - set(shapes)
    extra = set(shapes) - set(expected)
    if missing or extra:
        raise ValueError(f"parameter names do not match the model configuration "
                         f"(missing {sorted(missing)}, unexpected {sorted(extra)})")
    for name, shape in expected.items():
        if shapes[name] != shape:
            raise ValueError(f"{name} has shape {shapes[name]}, expected {shape}")
    return expected


def checked_label_names(names, columns: int | None) -> list[str] | None:
    """``names`` once they are None, or K distinct strings for a classifier
    head of K columns, none of them a key of the classification report. A
    regressor and a model with no head (``columns`` None) take no names; a
    head width ``task_of_width`` refuses is refused."""
    classifier = columns is not None and task_of_width(columns) == CLASSIFICATION
    k = columns if classifier else 0
    if names is None:
        return names
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names) == k > 0):
        raise ValueError(f"label_names must be None{f' or {k} distinct strings' if k else ''} "
                         f"for this head, got {names!r}")
    check_class_names(names)
    return names
