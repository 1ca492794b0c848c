"""The benchmark's workloads: inputs made from a seed, a timed pipeline, checks.

Every input comes from ``nanobert.datagen`` with the workload seed. Each
workload has a set-up (not timed as work), a count of the work one repeat
does, and a repeat that calls the public API the CLI wraps and checks what
comes back. A repeat also returns digests of everything it wrote, so the
runner can hold repeats of one seed to the byte-identical rerun contract.

Functions are called through their modules (``finetune.train``, not a name
bound at import), so a traced run sees every call. The checks use names
bound here at import time, so they add no spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from nanobert import baselines, checkpoint, data, datagen, finetune, model, pretrain, tokenizer
from nanobert.metrics import classification_report, report_to_json_dict
from nanobert.optim import TrainingConfig
from nanobert.rng import Rng

clock = time.perf_counter


class CheckFailed(Exception):
    """An output of the program is not what the workload requires."""


class RepeatAborted(Exception):
    """An operation of the repeat failed; its later operations cannot run."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ops:
    """Counts operations attempted and failed; a failure aborts the repeat."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # any failure of the program counts against it
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            raise RepeatAborted(name) from exc


def file_digests(directory: str) -> dict[str, str]:
    """sha256 of every file under a directory, keyed by relative path."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, directory)] = hashlib.sha256(f.read()).hexdigest()
    return out


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def all_finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


@dataclass(frozen=True)
class Pretrain:
    """One ``run_pretraining`` epoch on the generated corpus."""

    vocab_size: int
    num_layers: int
    num_heads: int
    max_length: int
    batch_size: int
    eval_batch_size: int
    learning_rate: float
    warmup_steps: int
    logging_steps: int
    corpus_chars: int = 100_000
    hidden_size: int = 64
    ffn_size: int = 256
    epochs: int = 1
    dev_fraction: float = 0.1

    def setup(self, seed: int, workdir: str):
        corpus = datagen.pretrain_corpus(seed=seed, target_chars=self.corpus_chars)
        tok = tokenizer.train_bpe([corpus], vocab_size=self.vocab_size)
        fingerprint = {"corpus": hashlib.sha256(corpus.encode()).hexdigest(),
                       "tokenizer": json.dumps(tok.to_json_dict(), sort_keys=True)}
        return (corpus, tok), fingerprint

    def work(self, inputs, seed: int) -> dict:
        """Real tokens and sequences in the training chunks of one repeat."""
        corpus, tok = inputs
        _, masks = pretrain.chunk_corpus(tok, corpus, self.max_length)
        n = masks.shape[0]
        # the dev slice run_pretraining holds out, drawn the same way
        dev_n = max(1, int(round(self.dev_fraction * n)))
        train_idx = Rng(seed).spawn("devsplit").permutation(n)[dev_n:]
        return {"tokens": int(masks[train_idx].sum()) * self.epochs,
                "examples": len(train_idx) * self.epochs}

    def repeat(self, inputs, seed: int, out: str, ops: Ops):
        corpus, tok = inputs
        cfg = model.ModelConfig(
            num_layers=self.num_layers, hidden_size=self.hidden_size,
            num_heads=self.num_heads, ffn_size=self.ffn_size,
            vocab_size=tok.vocab_size, max_positions=self.max_length, dropout=0.0)
        tc = TrainingConfig(
            num_train_epochs=self.epochs, train_batch_size=self.batch_size,
            eval_batch_size=self.eval_batch_size, learning_rate=self.learning_rate,
            warmup_steps=self.warmup_steps, logging_steps=self.logging_steps,
            max_length=self.max_length, seed=seed)
        with ops.op("run_pretraining"):
            t = clock()
            # patience above the epoch count keeps early stopping off
            res = pretrain.run_pretraining(tc, corpus, tok, cfg, output_dir=out,
                                           dev_fraction=self.dev_fraction,
                                           patience=self.epochs + 1)
            train_s = clock() - t
            losses = res.dev_losses
            check(all_finite(losses), f"dev losses not finite: {losses}")
            check(losses[-1] < losses[0],
                  f"dev loss {losses[-1]:.4f} not below untrained {losses[0]:.4f}")
        return {"train_s": train_s}, file_digests(out)


@dataclass(frozen=True)
class Finetune:
    """The CLI's finetune traffic: train, reload, predict, evaluate, baselines."""

    topic_rows: int = 156
    test_size: int = 30
    dev_size: int = 30
    anxiety_rows: int = 64
    corpus_chars: int = 100_000
    vocab_size: int = 200
    num_layers: int = 3
    num_heads: int = 4
    hidden_size: int = 64
    ffn_size: int = 256
    max_length: int = 128
    dropout: float = 0.1
    epochs: int = 3
    batch_size: int = 16
    eval_batch_size: int = 64
    learning_rate: float = 3e-3
    ridge_l2: float = 1.0

    def setup(self, seed: int, workdir: str):
        """Write a seeded encoder and the CSVs, then read them back as the CLI does."""
        corpus = datagen.pretrain_corpus(seed=seed, target_chars=self.corpus_chars)
        tok = tokenizer.train_bpe([corpus], vocab_size=self.vocab_size)
        cfg = model.ModelConfig(
            num_layers=self.num_layers, hidden_size=self.hidden_size,
            num_heads=self.num_heads, ffn_size=self.ffn_size, vocab_size=tok.vocab_size,
            max_positions=self.max_length, dropout=self.dropout)
        params = model.init_params(cfg, Rng(seed).spawn("init"))
        encoder_path = os.path.join(workdir, "encoder.ckpt")
        checkpoint.save_checkpoint(checkpoint.Checkpoint(cfg, params, tokenizer=tok),
                                   encoder_path)

        topics_csv = os.path.join(workdir, "topics.csv")
        datagen.write_csv(topics_csv, *datagen.topic_dataset(self.topic_rows, seed=seed))
        texts, scores = datagen.anxiety_dataset(self.anxiety_rows, seed=seed)
        anxiety_csv = os.path.join(workdir, "anxiety.csv")
        datagen.write_csv(anxiety_csv, texts, [f"{s:.3f}" for s in scores],
                          label_column="anxiety")

        topics = data.load_csv(topics_csv, "text", "label")
        splits = data.split(topics, self.test_size, self.dev_size, seed=seed, stratify=True)
        anxiety = data.load_csv(anxiety_csv, "text", "anxiety", label_kind="real")
        return (encoder_path, splits, anxiety), file_digests(workdir)

    def work(self, inputs, seed: int) -> dict:
        """Real tokens and examples the training loop sees in one repeat,
        and the texts the inference stages read."""
        encoder_path, (train_set, _, test_set), anxiety = inputs
        tok = checkpoint.load_checkpoint(encoder_path).tokenizer
        tokens = sum(sum(tok.encode(t, self.max_length).attention_mask) for t in train_set.texts)
        return {"tokens": tokens * self.epochs, "examples": len(train_set) * self.epochs,
                "test_texts": len(test_set), "anxiety_texts": len(anxiety)}

    def repeat(self, inputs, seed: int, out: str, ops: Ops):
        encoder_path, (train_set, dev_set, test_set), anxiety = inputs
        names = train_set.label_names
        k = len(names)
        y_test = test_set.label_array()
        tc = TrainingConfig(
            num_train_epochs=self.epochs, train_batch_size=self.batch_size,
            eval_batch_size=self.eval_batch_size, learning_rate=self.learning_rate,
            warmup_steps=0, metric_for_best_model="accuracy", max_length=self.max_length,
            seed=seed)
        samples = {}
        with ops.op("load"):
            encoder = checkpoint.load_checkpoint(encoder_path)
            check(encoder.tokenizer is not None
                  and encoder.tokenizer.vocab_size == encoder.model_config.vocab_size,
                  "encoder checkpoint lost its tokenizer")
            headed = finetune.attach_head(encoder, finetune.HeadConfig(k),
                                          Rng(seed).spawn("head"), label_names=names)
        with ops.op("train"):
            t = clock()
            res = finetune.train(tc, headed, train_set, dev_set, output_dir=out)
            samples["train_s"] = clock() - t
            check(all(all_finite(e.values()) for e in res.history),
                  f"history not finite: {res.history}")
            check(res.best_value > 1.0 / k,
                  f"dev accuracy {res.best_value:.4f} not above chance 1/{k}")
        with ops.op("reload"):
            best = checkpoint.load_checkpoint(os.path.join(out, "best.ckpt"))
            check(best.params.keys() == res.checkpoint.params.keys()
                  and all(np.array_equal(best.params[n], p)
                          for n, p in res.checkpoint.params.items()),
                  "reloaded best.ckpt differs from the returned model")
        with ops.op("predict"):
            t = clock()
            preds = finetune.predict(best, test_set.texts, max_length=self.max_length,
                                     batch_size=self.eval_batch_size)
            samples["predict_s"] = clock() - t
        with ops.op("evaluate"):
            report = finetune.evaluate(res.checkpoint, test_set, max_length=self.max_length,
                                       batch_size=self.eval_batch_size)["report"]
            check(report == report_to_json_dict(classification_report(y_test, preds),
                                                label_names=names),
                  "evaluate of the in-memory model disagrees with predict of best.ckpt")
        with ops.op("features"):
            t = clock()
            feats = baselines.mean_pooled_features(encoder, anxiety.texts,
                                                   max_length=self.max_length,
                                                   batch_size=self.eval_batch_size)
            samples["features_s"] = clock() - t
            y_anx = anxiety.label_array()
            ridge = baselines.Ridge(l2=self.ridge_l2).fit(feats, y_anx)
            fitted = ridge.predict(feats)
            check(bool(np.all(np.isfinite(fitted))), "ridge predictions not finite")
            check(float(np.corrcoef(fitted, y_anx)[0, 1]) > 0.0,
                  "ridge fit does not correlate with its training targets")
        with ops.op("bow"):
            t = clock()
            fitted_bow = [baselines.fit_text_baseline(kind, train_set)
                          for kind in baselines.BASELINE_KINDS]
            samples["bow_s"] = clock() - t
            bow_preds = [m.predict(test_set.texts) for m in fitted_bow]
            for kind, p in zip(baselines.BASELINE_KINDS, bow_preds):
                acc = float(np.mean(p == y_test))
                check(acc > 1.0 / k, f"{kind} test accuracy {acc:.4f} not above chance 1/{k}")
        digests = file_digests(out)
        digests["predictions"] = array_digest(preds, *bow_preds)
        digests["features"] = array_digest(feats, ridge.w)
        return samples, digests


WORKLOADS = {
    # criterion-07 shapes: large compute-bound steps, no padding
    "pretrain-wide": Pretrain(vocab_size=200, num_layers=3, num_heads=4, max_length=64,
                              batch_size=16, eval_batch_size=64, learning_rate=3e-4,
                              warmup_steps=50, logging_steps=1000),
    # criterion-06 shapes: many tiny steps, fixed per-step costs dominate
    "pretrain-narrow": Pretrain(vocab_size=400, num_layers=2, num_heads=2, max_length=16,
                                batch_size=4, eval_batch_size=128, learning_rate=1.5e-3,
                                warmup_steps=300, logging_steps=1),
    # the CLI's finetune defaults: max_length 128, mostly padding, dropout on
    "finetune-topic": Finetune(),
}

# small sizes of the same workloads, for the harness's own tests
TINY = {
    "pretrain-wide": replace(WORKLOADS["pretrain-wide"], corpus_chars=6_000),
    "pretrain-narrow": replace(WORKLOADS["pretrain-narrow"], corpus_chars=3_000),
    "finetune-topic": Finetune(topic_rows=105, test_size=15, dev_size=15, anxiety_rows=8,
                               corpus_chars=6_000, vocab_size=120, max_length=32),
}
