"""Traced runs: wrap nanobert functions where their callers look them up.

A traced run replaces each function in ``TRACED`` with a wrapper that
records a span (name, phase, parent, start, end) and restores the original
objects afterwards, so an untraced run in the same process is clean. The
wrapper is installed at every name a caller resolves at call time: the
model calls ``nn.gelu``, so ``nanobert.numerics.gelu`` is replaced, while
``pretrain`` imported ``encoder_backward`` by name, so
``nanobert.pretrain.encoder_backward`` is replaced there.

Spans stay in memory and are written out once, when the run ends. A span's
self time is its length minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
import tracemalloc

import numpy as np

SETUP_PHASE = "setup"

# span name, the modules or classes where callers look it up, and whether
# wrapped functions run inside it (only those report self time)
TRACED = [
    ("tokenizer.train_bpe", ["nanobert.tokenizer"], False),
    ("tokenizer.TokenizerModel.encode", ["nanobert.tokenizer:TokenizerModel"], True),
    ("tokenizer.TokenizerModel.encode_body", ["nanobert.tokenizer:TokenizerModel"], False),
    ("numerics.gelu", ["nanobert.numerics"], False),
    ("numerics.gelu_backward", ["nanobert.numerics"], False),
    ("numerics.softmax", ["nanobert.numerics"], False),
    ("numerics.softmax_backward", ["nanobert.numerics"], False),
    ("numerics.layer_norm", ["nanobert.numerics"], False),
    ("numerics.layer_norm_backward", ["nanobert.numerics"], False),
    ("numerics.matmul_backward", ["nanobert.numerics"], False),
    ("numerics.softmax_cross_entropy", ["nanobert.numerics"], False),
    ("numerics.embedding_lookup_backward", ["nanobert.numerics"], False),
    ("model.encoder_forward_with_cache",
     ["nanobert.model", "nanobert.pretrain", "nanobert.finetune"], True),
    ("model.encoder_backward", ["nanobert.pretrain", "nanobert.finetune"], True),
    ("model.encoder_forward", ["nanobert.finetune", "nanobert.baselines"], True),
    ("rng.Rng.random", ["nanobert.rng:Rng"], False),
    ("rng.Rng.spawn", ["nanobert.rng:Rng"], False),
    ("pretrain.run_pretraining", ["nanobert.pretrain"], True),
    ("pretrain.chunk_corpus", ["nanobert.pretrain"], True),
    ("pretrain.mask_tokens", ["nanobert.pretrain"], True),
    ("pretrain.mlm_loss_and_grads", ["nanobert.pretrain"], True),
    ("pretrain.mlm_loss", ["nanobert.pretrain"], True),
    ("finetune.train", ["nanobert.finetune"], True),
    ("finetune.predict", ["nanobert.finetune"], True),
    ("finetune.evaluate", ["nanobert.finetune"], True),
    ("finetune.attach_head", ["nanobert.finetune"], False),
    ("optim.AdamW.step", ["nanobert.optim:AdamW"], False),
    ("optim.clip_global_norm", ["nanobert.pretrain", "nanobert.finetune"], False),
    ("checkpoint.save_checkpoint",
     ["nanobert.checkpoint", "nanobert.pretrain", "nanobert.finetune"], False),
    ("checkpoint.load_checkpoint", ["nanobert.checkpoint"], False),
    ("data.load_csv", ["nanobert.data"], False),
    ("data.split", ["nanobert.data"], True),
    ("data.batch_indices", ["nanobert.data", "nanobert.finetune"], True),
    ("metrics.classification_report", ["nanobert.metrics", "nanobert.finetune"], False),
    ("baselines.fit_text_baseline", ["nanobert.baselines"], True),
    ("baselines.BowVectorizer.fit", ["nanobert.baselines:BowVectorizer"], False),
    ("baselines.BowVectorizer.transform", ["nanobert.baselines:BowVectorizer"], False),
    ("baselines.MultinomialNB.fit", ["nanobert.baselines:MultinomialNB"], False),
    ("baselines.MaxEnt.fit", ["nanobert.baselines:MaxEnt"], True),
    ("baselines.mean_pooled_features", ["nanobert.baselines"], True),
    ("baselines.Ridge.fit", ["nanobert.baselines:Ridge"], False),
]

# (name, unit, better) of the counters recorded at the same boundaries
COUNTERS = [
    ("model.positions", "count", "lower"),
    ("model.pad_share", "ratio", "lower"),
    ("model.cache_mb", "MB", "lower"),
    ("model.encoder_forward.peak_mb", "MB", "lower"),
    ("rng.random.draws", "count", "lower"),
    ("pretrain.masked_tokens", "count", "higher"),
    ("checkpoint.bytes_written", "bytes", "lower"),
]


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    specs = []
    for span, _, has_children in TRACED:
        specs.append((f"{span}.s", "s", "lower"))
        specs.append((f"{span}.calls", "count", "lower"))
        if has_children:
            specs.append((f"{span}.self_s", "s", "lower"))
    specs.extend(COUNTERS)
    # traced minus untraced repeat wall time: mostly the machine's drift, it
    # cannot resolve the wrappers' real cost, which wrapper_share estimates
    specs.append(("trace.overhead_share", "ratio", "lower"))
    specs.append(("trace.wrapper_call_us", "us", "lower"))
    specs.append(("trace.wrapper_share", "ratio", "lower"))
    return specs


def _resolve(site: str):
    module_name, _, class_name = site.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _held_mb(tree) -> float:
    """Megabytes of the distinct buffers the arrays in a nested cache keep alive."""
    seen: dict[int, int] = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
        elif isinstance(node, np.ndarray):
            while isinstance(node.base, np.ndarray):
                node = node.base
            seen[id(node)] = node.nbytes
    return sum(seen.values()) / 2**20


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, phase, parent index or -1, start, end]
        self.stack: list[int] = []
        self.phase = SETUP_PHASE
        self.counts: dict[tuple[str, str], float] = {}
        self.gauges: dict[str, float] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._largest_inference = None

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.phase, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                after(self, fn, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, amount: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, 0.0), value)

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for span, sites, _ in TRACED:
            attr = span.rsplit(".", 1)[1]
            after = _AFTER.get(span)
            for site in sites:
                owner = _resolve(site)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__, after))
                else:
                    new = self.wrap(span, raw, after)
                setattr(owner, attr, new)
                self._installed.append((owner, attr, raw))

    def remove(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, phase: str):
        self.phase = phase
        try:
            self.install()
            yield self
        finally:
            self.remove()

    # -- reporting -------------------------------------------------------

    def replay_peak_mb(self) -> float:
        """Traced-memory peak of the largest inference call, replayed untraced."""
        if self._largest_inference is None:
            return 0.0
        _, fn, args, kwargs = self._largest_inference
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def layer_metrics(self, repeat_phases: list[str]) -> dict[str, float]:
        """Every span and counter metric for one set-up plus one repeat.

        Set-up phase totals count once; totals of the traced repeat phases
        are averaged over those phases.
        """
        weight = {SETUP_PHASE: 1.0}
        weight.update({p: 1.0 / len(repeat_phases) for p in repeat_phases})
        out = {name: 0.0 for name, _, _ in per_layer_specs()}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            name, phase, _, start, end = span
            w = weight.get(phase, 0.0)
            out[f"{name}.s"] += w * (end - start)
            out[f"{name}.calls"] += w
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] += w * self_s
        counts: dict[str, float] = {}
        for (phase, name), value in self.counts.items():
            counts[name] = counts.get(name, 0.0) + weight.get(phase, 0.0) * value
        for name in ("model.positions", "rng.random.draws", "pretrain.masked_tokens",
                     "checkpoint.bytes_written"):
            out[name] = counts.get(name, 0.0)
        out["model.pad_share"] = (counts.get("model.pad_positions", 0.0) / out["model.positions"]
                                  if out["model.positions"] else 0.0)
        out["model.cache_mb"] = self.gauges.get("model.cache_mb", 0.0)
        for name in list(out):
            if name.endswith(".calls"):
                out[name] = round(out[name], 6)
        return out

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = {
            "names": names,
            "fields": ["name", "phase", "parent", "start_s", "end_s"],
            "spans": [[index[n], ph, parent, round(st - t0, 7), round(en - t0, 7)]
                      for n, ph, parent, st, en in self.spans],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's length minus the time covered by its direct children.

    Spans come from one call stack, so children of one parent never
    overlap and their lengths simply add up.
    """
    covered = [0.0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, _, _, start, end), c in zip(spans, covered)]


def wrapper_call_us(calls: int = 50_000) -> float:
    """Extra cost of one traced call of an empty function, in microseconds."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    t = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t
    t = clock()
    for _ in range(calls):
        traced()
    return (clock() - t - bare) / calls * 1e6


# -- counters recorded after a wrapped call returns ---------------------------

# callers whose forward pass only scores, so the cache it builds is thrown away
_INFERENCE_CALLERS = ("model.encoder_forward", "pretrain.mlm_loss")


def _after_forward(tracer, fn, args, kwargs, result):
    mask = np.asarray(args[3] if len(args) > 3 else kwargs["attention_mask"])
    tracer.count("model.positions", mask.size)
    tracer.count("model.pad_positions", mask.size - int(np.count_nonzero(mask)))
    if isinstance(result, tuple) and tracer.current() not in _INFERENCE_CALLERS:
        tracer.gauge_max("model.cache_mb", _held_mb(result[1]))


def _after_inference(tracer, fn, args, kwargs, result):
    size = np.size(args[2] if len(args) > 2 else kwargs["ids"])
    kept = tracer._largest_inference
    if kept is None or size > kept[0]:
        tracer._largest_inference = (size, fn, args, kwargs)


def _after_random(tracer, fn, args, kwargs, result):
    tracer.count("rng.random.draws", np.size(result))


def _after_mlm_step(tracer, fn, args, kwargs, result):
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    tracer.count("pretrain.masked_tokens", batch.num_labeled)


def _after_save(tracer, fn, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    size = os.path.getsize(path)
    sibling = path + ".tokenizer.json"  # the tokenizer file the header names
    if os.path.exists(sibling):
        size += os.path.getsize(sibling)
    tracer.count("checkpoint.bytes_written", size)


_AFTER = {
    "model.encoder_forward_with_cache": _after_forward,
    "model.encoder_forward": _after_inference,
    "rng.Rng.random": _after_random,
    "pretrain.mlm_loss_and_grads": _after_mlm_step,
    "checkpoint.save_checkpoint": _after_save,
}
