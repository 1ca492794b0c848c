"""Shared fixtures-in-code for the test suite."""

import tracemalloc

from nanobert.data import LabeledDataset
from nanobert.model import ModelConfig, param_shapes

# skewed 15-class distribution summing to 9795
REPLICA_COUNTS = [1538, 1295, 1133, 971, 809, 728, 648, 567,
                  486, 405, 324, 324, 243, 162, 162]


def class_dataset(counts) -> LabeledDataset:
    """Dataset with the given per-class sizes; texts are placeholders."""
    texts, labels = [], []
    for c, n in enumerate(counts):
        for i in range(n):
            texts.append(f"sample {c} {i}")
            labels.append(c)
    names = [f"class_{c}" for c in range(len(counts))]
    return LabeledDataset(texts=texts, labels=labels, label_kind="class", label_names=names)


def tiny_config(**overrides):
    base = dict(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                vocab_size=20, max_positions=10, dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def generic_params(cfg, rng, scale=0.4, num_labels=None):
    """Parameters at generic scale so no gradient path is vanishingly small.

    Init-scale weights make early-layer attention nearly uniform and push
    some true gradients below the finite-difference noise floor; checking
    there measures noise, not correctness.
    """
    params = {}
    for name, shape in param_shapes(cfg, num_labels=num_labels).items():
        if name.endswith(".gamma"):
            params[name] = 1.0 + rng.normal(shape, 0.2)
        else:
            params[name] = rng.normal(shape, scale)
    return params


def traced_peak_mb(fn, *args) -> float:
    """Peak of the memory Python traces while ``fn(*args)`` runs, in MB."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
