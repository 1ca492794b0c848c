"""One tiny CLI pipeline, run in-process from relative paths, checked file by
file against a checked-in manifest of sha256 digests.

The digests pin every output byte of datagen, train-tokenizer, pretrain
(with dropout), a classification and a regression finetune, evaluate,
predict, the three baselines and report. Like the other goldens they hold
for the environment the manifest records (CPU architecture, NumPy
major.minor, BLAS and its thread count); another may give other bytes. A
change that means to move output bytes re-records the manifest with
``python tests/test_golden_pipeline.py`` and says why in CHANGES.md.
"""

import hashlib
import json
import os
import platform
import sys

from nanobert import cli, datagen  # first: importing nanobert pins BLAS to one thread

import numpy as np

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_pipeline.json")

_MODEL = ["--set", "model.num_layers=2", "--set", "model.hidden_size=16",
          "--set", "model.num_heads=2", "--set", "model.ffn_size=32"]
_TRAINING = ["--set", "training.num_train_epochs=2",
             "--set", "training.per_device_train_batch_size=16",
             "--set", "training.learning_rate=1e-3", "--set", "training.max_length=16"]

# every step of the pipeline, in order; paths are relative to the run's directory
STEPS = [
    ["train-tokenizer", "--output-dir", "tok", "--set", "data.corpus=data/corpus.txt",
     "--set", "tokenizer.vocab_size=96"],
    ["pretrain", "--output-dir", "pre", "--set", "data.corpus=data/corpus.txt",
     "--set", "tokenizer.path=tok/tokenizer.json", *_MODEL, "--set", "model.dropout=0.1",
     *_TRAINING, "--set", "training.warmup_steps=5"],
    ["finetune", "--output-dir", "ft_class", "--set", "checkpoint.path=pre/best.ckpt",
     "--set", "data.train=data/order_train.csv", "--set", "data.test_size=100",
     "--set", "data.dev_size=50", *_TRAINING],
    ["finetune", "--output-dir", "ft_real", "--set", "checkpoint.path=pre/best.ckpt",
     "--set", "data.train=data/anxiety.csv", "--set", "data.label_column=anxiety",
     "--set", "data.label_kind=real", "--set", "data.test_size=0.96",
     "--set", "data.dev_size=0.3", *_TRAINING],
    ["evaluate", "--output-dir", "eval", "--set", "checkpoint.path=ft_class/best.ckpt",
     "--set", "data.test=data/order_test.csv", "--set", "eval.max_length=16"],
    ["predict", "--output-dir", "pred", "--set", "checkpoint.path=ft_class/best.ckpt",
     "--set", "data.input=data/order_test.csv", "--set", "predict.max_length=16"],
    ["baseline", "--output-dir", "naive_bayes", "--set", "data.train=data/order_train.csv",
     "--set", "data.test=data/order_test.csv"],
    ["baseline", "--output-dir", "maxent", "--set", "baseline.algorithm=maxent",
     "--set", "baseline.epochs=50", "--set", "data.train=data/order_train.csv",
     "--set", "data.test=data/order_test.csv"],
    ["baseline", "--output-dir", "ridge", "--set", "baseline.algorithm=ridge",
     "--set", "baseline.checkpoint=pre/best.ckpt", "--set", "baseline.max_length=16",
     "--set", "data.train=data/anxiety.csv", "--set", "data.label_column=anxiety",
     "--set", "data.test_size=0.5"],
    ["report", "ft_class", "eval", "naive_bayes", "maxent", "--output", "report_class.json"],
    ["report", "ft_real", "ridge", "--output", "report_real.json"],
]


def environment() -> dict:
    """What the digests depend on beyond the code: CPU architecture, NumPy
    major.minor, the BLAS NumPy was built with and its thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {"machine": platform.machine(), "numpy": ".".join(np.__version__.split(".")[:2]),
            "blas": blas, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_pipeline() -> dict:
    """sha256 of every file the pipeline writes under the working directory."""
    assert datagen.main(["--output-dir", "data", "--seed", "3", "--corpus-chars", "8000"]) == 0
    for argv in STEPS:
        assert cli.main(argv) == 0, argv
    digests = {}
    for root, _, names in os.walk("."):
        for name in names:
            path = os.path.relpath(os.path.join(root, name)).replace(os.sep, "/")
            with open(path, "rb") as f:
                digests[path] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(digests.items()))


def test_pipeline_matches_the_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_pipeline()
    with open(MANIFEST, encoding="utf-8") as f:
        manifest = json.load(f)
    want = manifest["files"]
    changed = sorted(p for p in set(got) | set(want) if got.get(p) != want.get(p))
    if changed:
        here = environment()
        note = ("" if here == manifest["environment"] else
                f"; the manifest was recorded on {manifest['environment']} but this run is "
                f"on {here}, where other bytes may be right")
        raise AssertionError(f"{len(changed)} of {len(want)} files differ from the "
                             f"manifest: {changed}{note}")


if __name__ == "__main__":
    # re-record the manifest: python tests/test_golden_pipeline.py (from the repo root,
    # with src on PYTHONPATH); the pipeline runs in a fresh scratch directory
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        files = run_pipeline()
    with open(MANIFEST, "w", encoding="utf-8") as f:
        json.dump({"environment": environment(), "files": files}, f, indent=2)
        f.write("\n")
    print(f"recorded {len(files)} digests to {MANIFEST}", file=sys.stderr)
