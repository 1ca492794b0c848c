"""Model checkpoints: one binary file, bit-exact across save/load.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header (format
version, model configuration, parameter name-to-shape table in sorted name
order, optional tokenizer reference and label names), then every parameter
as little-endian float64 in the header's order. Writes go to a temp file in
the same directory followed by an atomic rename, so a crash cannot leave a
half-written checkpoint behind.

The tokenizer travels as a sibling JSON file named in the header, keeping
the binary format independent of the tokenizer schema.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig
from .tokenizer import TokenizerModel

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    model_config: ModelConfig
    params: dict[str, np.ndarray]
    tokenizer: TokenizerModel | None = None
    label_names: list[str] | None = None

    def copy(self) -> "Checkpoint":
        return Checkpoint(
            model_config=self.model_config,
            params={k: v.copy() for k, v in self.params.items()},
            tokenizer=self.tokenizer,
            label_names=list(self.label_names) if self.label_names else None,
        )

    def encode_texts(self, texts, max_length: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Padded int64 ids and attention masks, [len(texts), L], for raw texts.

        L is ``max_length``, defaulting to and capped at the position table.
        """
        if self.tokenizer is None:
            raise ValueError("model carries no tokenizer; cannot encode text")
        limit = self.model_config.max_positions
        max_length = limit if max_length is None else min(max_length, limit)
        encodings = [self.tokenizer.encode(text, max_length) for text in texts]
        return (np.asarray([e.ids for e in encodings], dtype=np.int64),
                np.asarray([e.attention_mask for e in encodings], dtype=np.int64))


def _tokenizer_sibling(path: str) -> str:
    return path + ".tokenizer.json"


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    names = sorted(ckpt.params)
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": ckpt.model_config.to_dict(),
        "params": [[name, list(ckpt.params[name].shape)] for name in names],
        "tokenizer_ref": os.path.basename(_tokenizer_sibling(path)) if ckpt.tokenizer else None,
        "label_names": ckpt.label_names,
    }
    blob = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for name in names:
            f.write(np.ascontiguousarray(ckpt.params[name], dtype="<f8").tobytes())
    os.replace(tmp, path)
    if ckpt.tokenizer is not None:
        ckpt.tokenizer.save(_tokenizer_sibling(path))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        raw_len = f.read(8)
        if len(raw_len) != 8:
            raise ValueError(f"{path}: truncated before header length")
        (header_len,) = struct.unpack("<Q", raw_len)
        blob = f.read(header_len)
        if len(blob) != header_len:
            raise ValueError(f"{path}: truncated header")
        header = json.loads(blob.decode("utf-8"))
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported format version {header.get('format_version')}"
            )
        config = ModelConfig(**header["model_config"])
        params: dict[str, np.ndarray] = {}
        for name, shape in header["params"]:
            count = int(np.prod(shape)) if shape else 1
            body = f.read(count * 8)
            if len(body) != count * 8:
                raise ValueError(f"{path}: truncated body at parameter {name!r}")
            params[name] = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(shape)
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after last parameter")

    _validate_shapes(config, params, path)
    tokenizer = None
    ref = header.get("tokenizer_ref")
    if ref:
        sibling = os.path.join(os.path.dirname(path) or ".", ref)
        if not os.path.exists(sibling):
            raise ValueError(f"{path}: the tokenizer it names is missing: {sibling}")
        tokenizer = TokenizerModel.load(sibling)
    return Checkpoint(
        model_config=config,
        params=params,
        tokenizer=tokenizer,
        label_names=header.get("label_names"),
    )


def _validate_shapes(config: ModelConfig, params: dict[str, np.ndarray], path: str) -> None:
    from .model import param_shapes

    num_labels = params["head.w"].shape[1] if "head.w" in params else None
    expected = param_shapes(config, num_labels)
    missing = set(expected) - set(params)
    extra = set(params) - set(expected)
    if missing or extra:
        raise ValueError(
            f"{path}: parameter names do not match the model configuration "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
        )
    for name, shape in expected.items():
        if tuple(params[name].shape) != shape:
            raise ValueError(
                f"{path}: {name} has shape {tuple(params[name].shape)}, expected {shape}"
            )
