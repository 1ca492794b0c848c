"""Config-driven command line covering the whole pipeline.

One JSON config per run; ``--set key=value`` overrides nested keys with
JSON-literal values. Every command writes a resolved_config.json next to
its outputs so a run directory is enough to re-execute the run exactly.
Training-section key names follow the common trainer convention
(num_train_epochs, per_device_train_batch_size, ...), mapped internally
onto TrainingConfig.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import numerics as nn
from .baselines import BASELINE_KINDS, Ridge, fit_text_baseline, mean_pooled_features
from .checkpoint import load_checkpoint
from .data import LabeledDataset, load_csv, split
from .finetune import HeadConfig, attach_head, evaluate, predict, train
from .metrics import pearson_r, rmse
from .model import ModelConfig
from .optim import LOWER_IS_BETTER, TrainingConfig
from .pretrain import run_pretraining
from .rng import Rng
from .tokenizer import TokenizerModel, train_bpe

_TRAINING_KEYS = {
    "num_train_epochs": None,
    "per_device_train_batch_size": None,
    "per_device_eval_batch_size": None,
    "learning_rate": None,
    "warmup_steps": None,
    "weight_decay": None,
    "logging_steps": None,
    "metric_for_best_model": None,
    "greater_is_better": None,
    "max_length": None,
    "max_grad_norm": None,
    "fp16": None,
    "mask_prob": None,
    "mask_token_ratio": None,
    "random_token_ratio": None,
}

_TASK_DATA_KEYS = {
    "train": None, "dev": None, "test": None,
    "text_column": None, "label_column": None, "label_kind": None,
    "test_size": None, "dev_size": None, "stratify": None,
}

SCHEMAS = {
    "train-tokenizer": {
        "output_dir": None, "seed": None,
        "data": {"corpus": None},
        "tokenizer": {"vocab_size": None, "lowercase": None},
    },
    "pretrain": {
        "output_dir": None, "seed": None,
        "data": {"corpus": None},
        "tokenizer": {"path": None, "vocab_size": None, "lowercase": None},
        "model": {"num_layers": None, "hidden_size": None, "num_heads": None,
                  "ffn_size": None, "max_positions": None, "dropout": None},
        "training": _TRAINING_KEYS,
        "pretrain": {"dev_fraction": None, "patience": None, "min_delta": None},
    },
    "finetune": {
        "output_dir": None, "seed": None,
        "checkpoint": {"path": None},
        "head": {"num_labels": None, "task": None},
        "training": _TRAINING_KEYS,
        "data": _TASK_DATA_KEYS,
    },
    "evaluate": {
        "output_dir": None,
        "checkpoint": {"path": None},
        "data": {"test": None, "text_column": None, "label_column": None,
                 "label_kind": None},
        "eval": {"batch_size": None, "max_length": None},
    },
    "predict": {
        "output_dir": None,
        "checkpoint": {"path": None},
        "data": {"input": None, "text_column": None},
        "predict": {"batch_size": None, "max_length": None},
    },
    "baseline": {
        "output_dir": None, "seed": None,
        "baseline": {"algorithm": None, "alpha": None, "l2": None,
                     "learning_rate": None, "epochs": None, "min_df": None,
                     "checkpoint": None, "batch_size": None, "max_length": None},
        "data": _TASK_DATA_KEYS,
    },
}

DEFAULTS = {
    "train-tokenizer": {
        "seed": 11,
        "tokenizer": {"vocab_size": 200, "lowercase": True},
    },
    "pretrain": {
        "seed": 11,
        "tokenizer": {"path": None, "vocab_size": 200, "lowercase": True},
        "model": {"num_layers": 4, "hidden_size": 128, "num_heads": 4,
                  "ffn_size": 512, "max_positions": None, "dropout": 0.1},
        "training": {"num_train_epochs": 5, "per_device_train_batch_size": 16,
                     "per_device_eval_batch_size": 32, "learning_rate": 1e-4,
                     "warmup_steps": 100, "logging_steps": 10, "max_length": 128},
        "pretrain": {"dev_fraction": 0.1, "patience": 2, "min_delta": 1e-3},
    },
    "finetune": {
        "seed": 11,
        "head": {"num_labels": None, "task": None},
        "data": {"text_column": "text", "label_column": "label",
                 "label_kind": "class", "stratify": None},
    },
    "evaluate": {
        "data": {"text_column": "text", "label_column": "label", "label_kind": "class"},
        "eval": {"batch_size": 64, "max_length": None},
    },
    "predict": {
        "data": {"text_column": "text"},
        "predict": {"batch_size": 64, "max_length": None},
    },
    "baseline": {
        "seed": 11,
        "baseline": {"algorithm": "naive_bayes", "alpha": 1.0, "l2": None,
                     "learning_rate": 0.5, "epochs": 500, "min_df": 1,
                     "checkpoint": None, "batch_size": 64, "max_length": None},
        "data": {"text_column": "text", "label_column": "label",
                 "label_kind": "class", "stratify": None},
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _check_keys(config: dict, schema: dict, prefix: str = "") -> None:
    for key, value in config.items():
        path = f"{prefix}{key}"
        if key not in schema:
            raise ValueError(f"unknown config key {path!r}")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {path!r} must be a section (JSON object)")
            _check_keys(value, sub, prefix=f"{path}.")


def _parse_set(arg: str) -> tuple[list[str], object]:
    if "=" not in arg:
        raise ValueError(f"--set expects key=value, got {arg!r}")
    dotted, raw = arg.split("=", 1)
    keys = [k for k in dotted.split(".") if k]
    if not keys:
        raise ValueError(f"--set expects key=value, got {arg!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings need no quotes
    return keys, value


def _apply_set(config: dict, keys: list[str], value) -> None:
    node = config
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ValueError(f"--set path {'.'.join(keys)!r} crosses a non-section key")
    node[keys[-1]] = value


def resolve_config(command: str, args) -> dict:
    """defaults <- config file <- --set overrides <- dedicated flags."""
    config = copy.deepcopy(DEFAULTS[command])
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        config = _deep_merge(config, loaded)
    for item in args.set or []:
        keys, value = _parse_set(item)
        _apply_set(config, keys, value)
    if getattr(args, "output_dir", None):
        config["output_dir"] = args.output_dir
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    _check_keys(config, SCHEMAS[command])
    return config


def _require(config: dict, *keys):
    node = config
    for key in keys:
        if not isinstance(node, dict) or node.get(key) in (None, ""):
            raise ValueError(f"missing required config key {'.'.join(keys)!r}")
        node = node[key]
    return node


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_sanitize(obj), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _training_config(section: dict, seed: int, **forced) -> TrainingConfig:
    kwargs = dict(section)
    for listing, internal in (("per_device_train_batch_size", "train_batch_size"),
                              ("per_device_eval_batch_size", "eval_batch_size")):
        if listing in kwargs:
            kwargs[internal] = kwargs.pop(listing)
    kwargs.update(forced)
    return TrainingConfig(seed=seed, **kwargs)


def _listing_training_dict(config: TrainingConfig) -> dict:
    out = config.to_dict()
    out["per_device_train_batch_size"] = out.pop("train_batch_size")
    out["per_device_eval_batch_size"] = out.pop("eval_batch_size")
    return out


def _write_resolved(output_dir: str, command: str, sections: dict) -> None:
    record = {"command": command, "version": __version__}
    record.update(sections)
    _write_json(os.path.join(output_dir, "resolved_config.json"), record)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _load_task_splits(data_cfg: dict, seed: int, *, need_dev: bool, need_test: bool):
    """Train/dev/test from explicit files, or carved out of the train CSV."""
    kind = data_cfg.get("label_kind", "class")
    text_col = data_cfg.get("text_column", "text")
    label_col = data_cfg.get("label_column", "label")
    train_path = _require(data_cfg, "train")
    train_set = load_csv(train_path, text_col, label_col, label_kind=kind)
    names = train_set.label_names

    dev_set = test_set = None
    if data_cfg.get("dev"):
        dev_set = load_csv(data_cfg["dev"], text_col, label_col,
                           label_kind=kind, label_names=names)
    if data_cfg.get("test"):
        test_set = load_csv(data_cfg["test"], text_col, label_col,
                            label_kind=kind, label_names=names)

    carve_test = data_cfg.get("test_size") if test_set is None else None
    carve_dev = data_cfg.get("dev_size") if dev_set is None else None
    if carve_test or carve_dev:
        stratify = data_cfg.get("stratify")
        if stratify is None:
            stratify = kind == "class"
        train_set, carved_dev, carved_test = split(
            train_set, carve_test or 0, carve_dev or 0, seed=seed, stratify=stratify)
        if carve_dev:
            dev_set = carved_dev
        if carve_test:
            test_set = carved_test

    if need_dev and dev_set is None:
        raise ValueError("a dev set is required: provide data.dev or data.dev_size")
    if need_test and test_set is None:
        raise ValueError("a test set is required: provide data.test or data.test_size")
    return train_set, dev_set, test_set


def cmd_train_tokenizer(args) -> int:
    config = resolve_config("train-tokenizer", args)
    out = _require(config, "output_dir")
    corpus = _read_text(_require(config, "data", "corpus"))
    tok_cfg = config["tokenizer"]
    tokenizer = train_bpe([corpus], vocab_size=_require(config, "tokenizer", "vocab_size"),
                          lowercase=tok_cfg.get("lowercase", True))
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "tokenizer.json")
    tokenizer.save(path)
    _write_resolved(out, "train-tokenizer", {
        "output_dir": out, "seed": config["seed"],
        "data": config["data"], "tokenizer": tok_cfg,
    })
    print(f"trained tokenizer with {tokenizer.vocab_size} tokens -> {path}")
    return 0


def cmd_pretrain(args) -> int:
    config = resolve_config("pretrain", args)
    out = _require(config, "output_dir")
    corpus = _read_text(_require(config, "data", "corpus"))

    tok_cfg = config["tokenizer"]
    if tok_cfg.get("path"):
        tokenizer = TokenizerModel.load(tok_cfg["path"])
    else:
        tokenizer = train_bpe([corpus], vocab_size=tok_cfg["vocab_size"],
                              lowercase=tok_cfg.get("lowercase", True))

    training = _training_config(config["training"], config["seed"])
    model_cfg = dict(config["model"])
    if model_cfg.get("max_positions") is None:
        model_cfg["max_positions"] = training.max_length
    model = ModelConfig(vocab_size=tokenizer.vocab_size, **model_cfg)

    pre = config["pretrain"]
    result = run_pretraining(
        training, corpus, tokenizer, model, output_dir=out,
        dev_fraction=pre["dev_fraction"], patience=pre["patience"],
        min_delta=pre["min_delta"],
    )

    _write_resolved(out, "pretrain", {
        "output_dir": out, "seed": config["seed"],
        "data": config["data"], "tokenizer": tok_cfg,
        "model": model.to_dict(), "training": _listing_training_dict(training),
        "pretrain": pre,
    })
    _write_json(os.path.join(out, "metrics.json"), {
        "task": "pretrain",
        "num_examples": None,
        "metrics": {
            "initial_dev_loss": result.dev_losses[0],
            "best_dev_loss": min(result.dev_losses),
            "final_dev_loss": result.dev_losses[-1],
            "best_epoch": result.best_epoch,
        },
    })
    tail = " (stopped early)" if result.stopped_early else ""
    print(f"pretrained {len(result.dev_losses) - 1} epochs{tail}: dev loss "
          f"{result.dev_losses[0]:.4f} -> {min(result.dev_losses):.4f} "
          f"(best epoch {result.best_epoch}) -> {out}/best.ckpt")
    return 0


def cmd_finetune(args) -> int:
    config = resolve_config("finetune", args)
    out = _require(config, "output_dir")
    model = load_checkpoint(_require(config, "checkpoint", "path"))

    data_cfg = config["data"]
    train_set, dev_set, test_set = _load_task_splits(
        data_cfg, config["seed"], need_dev=True, need_test=False)

    head_cfg = config["head"]
    task = head_cfg.get("task")
    if task is None:
        task = "classification" if train_set.label_kind == "class" else "regression"
    num_labels = head_cfg.get("num_labels")
    if num_labels is None:
        num_labels = train_set.num_classes if task == "classification" else 1
    head = HeadConfig(num_labels=num_labels, task=task)

    training_section = dict(config.get("training", {}))
    if task == "regression" and "metric_for_best_model" not in training_section:
        training_section["metric_for_best_model"] = "mse"
    training = _training_config(training_section, config["seed"])

    names = train_set.label_names if task == "classification" else None
    headed = attach_head(model, head, Rng(config["seed"]).spawn("head"), label_names=names)
    result = train(training, headed, train_set, dev_set, output_dir=out)

    eval_split = "test" if test_set is not None else "dev"
    metrics = evaluate(result.checkpoint, test_set if test_set is not None else dev_set,
                       max_length=training.max_length,
                       batch_size=training.eval_batch_size)
    metrics["split"] = eval_split
    _write_json(os.path.join(out, "metrics.json"), metrics)
    _write_resolved(out, "finetune", {
        "output_dir": out, "seed": config["seed"],
        "checkpoint": config["checkpoint"], "data": data_cfg,
        "head": {"num_labels": num_labels, "task": task},
        "training": _listing_training_dict(training),
    })
    headline = ", ".join(f"{k}={v:.4f}" for k, v in sorted(metrics["metrics"].items())
                         if v is not None and not math.isnan(v))
    print(f"finetuned {len(result.history)} epochs, best epoch {result.best_epoch} "
          f"(dev {result.metric}={result.best_value:.4f}); {eval_split}: {headline}")
    return 0


def cmd_evaluate(args) -> int:
    config = resolve_config("evaluate", args)
    out = _require(config, "output_dir")
    model = load_checkpoint(_require(config, "checkpoint", "path"))
    data_cfg = config["data"]
    kind = data_cfg.get("label_kind", "class")
    dataset = load_csv(_require(config, "data", "test"),
                       data_cfg.get("text_column", "text"),
                       data_cfg.get("label_column", "label"),
                       label_kind=kind)
    if kind == "class" and model.label_names and "head.w" in model.params:
        # compare class counts before trying to align label ids, so a size
        # mismatch reports both numbers instead of one stray label
        num_labels = model.params["head.w"].shape[1]
        if dataset.num_classes != num_labels:
            raise ValueError(
                f"model head has {num_labels} classes but the dataset has "
                f"{dataset.num_classes}"
            )
        mapping = {name: i for i, name in enumerate(model.label_names)}
        try:
            labels = [mapping[dataset.label_names[lab]] for lab in dataset.labels]
        except KeyError as exc:
            raise ValueError(
                f"dataset label {exc.args[0]!r} unknown to the checkpoint "
                f"(it has {model.label_names})"
            ) from None
        dataset = LabeledDataset(dataset.texts, labels, "class",
                                 list(model.label_names))
    eval_cfg = config["eval"]
    metrics = evaluate(model, dataset, max_length=eval_cfg.get("max_length"),
                       batch_size=eval_cfg.get("batch_size", 64))
    metrics["split"] = "test"
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "metrics.json"), metrics)
    _write_resolved(out, "evaluate", {
        "output_dir": out, "checkpoint": config["checkpoint"],
        "data": data_cfg, "eval": eval_cfg,
    })
    headline = ", ".join(f"{k}={v:.4f}" for k, v in sorted(metrics["metrics"].items())
                         if v is not None and not math.isnan(v))
    print(f"evaluated {metrics['num_examples']} examples: {headline}")
    return 0


def cmd_predict(args) -> int:
    config = resolve_config("predict", args)
    out = _require(config, "output_dir")
    model = load_checkpoint(_require(config, "checkpoint", "path"))
    text_col = config["data"].get("text_column", "text")
    input_path = _require(config, "data", "input")

    texts = []
    with open(input_path, encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None or text_col not in reader.fieldnames:
            raise ValueError(f"{input_path} has no column {text_col!r}")
        for row in reader:
            texts.append(row[text_col])

    pred_cfg = config["predict"]
    values = predict(model, texts, max_length=pred_cfg.get("max_length"),
                     batch_size=pred_cfg.get("batch_size", 64))
    if values.dtype == np.int64 and model.label_names:
        rendered = [model.label_names[int(v)] for v in values]
    elif values.dtype == np.int64:
        rendered = [str(int(v)) for v in values]
    else:
        rendered = [f"{float(v):.6f}" for v in values]

    os.makedirs(out, exist_ok=True)
    pred_path = os.path.join(out, "predictions.csv")
    with open(pred_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([text_col, "prediction"])
        for text, value in zip(texts, rendered):
            writer.writerow([text, value])
    _write_resolved(out, "predict", {
        "output_dir": out, "checkpoint": config["checkpoint"],
        "data": config["data"], "predict": pred_cfg,
    })
    print(f"wrote {len(texts)} predictions -> {pred_path}")
    return 0


def cmd_baseline(args) -> int:
    config = resolve_config("baseline", args)
    out = _require(config, "output_dir")
    base_cfg = config["baseline"]
    algorithm = base_cfg.get("algorithm", "naive_bayes")

    if algorithm in BASELINE_KINDS:
        metrics, model_path = _run_bow_baseline(config, base_cfg, algorithm, out)
    elif algorithm == "ridge":
        metrics, model_path = _run_ridge_baseline(config, base_cfg, out)
    else:
        raise ValueError(
            f"unknown baseline algorithm {algorithm!r}; "
            f"choose one of {sorted((*BASELINE_KINDS, 'ridge'))}"
        )

    _write_json(os.path.join(out, "metrics.json"), metrics)
    _write_resolved(out, "baseline", {
        "output_dir": out, "seed": config["seed"],
        "baseline": base_cfg, "data": config["data"],
    })
    headline = ", ".join(f"{k}={v:.4f}" for k, v in sorted(metrics["metrics"].items())
                         if v is not None and not math.isnan(v))
    print(f"{algorithm} on {metrics['num_examples']} test examples: {headline} "
          f"(model -> {model_path})")
    return 0


def _run_bow_baseline(config, base_cfg, algorithm, out):
    data_cfg = dict(config["data"])
    data_cfg.setdefault("label_kind", "class")
    if data_cfg["label_kind"] != "class":
        raise ValueError("bag-of-words baselines require data.label_kind == \"class\"")
    train_set, _, test_set = _load_task_splits(
        data_cfg, config["seed"], need_dev=False, need_test=True)

    l2 = base_cfg.get("l2")
    pipeline = fit_text_baseline(
        algorithm, train_set,
        min_df=base_cfg.get("min_df", 1),
        alpha=base_cfg.get("alpha", 1.0),
        l2=1e-3 if l2 is None else l2,
        learning_rate=base_cfg.get("learning_rate", 0.5),
        epochs=base_cfg.get("epochs", 500),
    )
    os.makedirs(out, exist_ok=True)
    model_path = os.path.join(out, "baseline_model.json")
    pipeline.save(model_path)

    preds = pipeline.predict(test_set.texts)
    from .metrics import classification_report, report_to_json_dict
    rep = classification_report(test_set.label_array(), preds)
    metrics = {
        "task": "classification",
        "algorithm": algorithm,
        "split": "test",
        "num_examples": len(test_set),
        "metrics": {
            "accuracy": rep.accuracy,
            "precision": rep.weighted_precision,
            "recall": rep.weighted_recall,
            "f1": rep.weighted_f1,
        },
        "report": report_to_json_dict(rep, label_names=train_set.label_names),
    }
    return metrics, model_path


def _run_ridge_baseline(config, base_cfg, out):
    data_cfg = dict(config["data"])
    data_cfg.setdefault("label_kind", "real")
    if data_cfg["label_kind"] != "real":
        raise ValueError("the ridge baseline requires data.label_kind == \"real\"")
    ckpt_path = base_cfg.get("checkpoint")
    if not ckpt_path:
        raise ValueError("the ridge baseline needs baseline.checkpoint for features")
    model = load_checkpoint(ckpt_path)
    train_set, _, test_set = _load_task_splits(
        data_cfg, config["seed"], need_dev=False, need_test=True)

    kwargs = dict(max_length=base_cfg.get("max_length"),
                  batch_size=base_cfg.get("batch_size", 64))
    X_train = mean_pooled_features(model, train_set.texts, **kwargs)
    X_test = mean_pooled_features(model, test_set.texts, **kwargs)
    l2 = base_cfg.get("l2")
    ridge = Ridge(l2=1.0 if l2 is None else l2).fit(X_train, train_set.label_array())

    preds = ridge.predict(X_test)
    y = test_set.label_array()
    try:
        r = pearson_r(y, preds)
    except ValueError:
        r = float("nan")
    os.makedirs(out, exist_ok=True)
    model_path = os.path.join(out, "baseline_model.json")
    _write_json(model_path, {"algorithm": "ridge", "checkpoint": ckpt_path,
                             **ridge.to_json_dict()})
    metrics = {
        "task": "regression",
        "algorithm": "ridge",
        "split": "test",
        "num_examples": len(test_set),
        "metrics": {"mse": nn.mse(preds, y), "rmse": rmse(y, preds), "pearson_r": r},
    }
    return metrics, model_path


def cmd_report(args) -> int:
    runs = []
    for run_dir in args.run_dirs:
        path = os.path.join(run_dir, "metrics.json")
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        name = os.path.basename(os.path.normpath(run_dir))
        runs.append((name, data))

    tasks = {name: data.get("task") for name, data in runs}
    if len(set(tasks.values())) > 1:
        listing = ", ".join(f"{n}: {t}" for n, t in tasks.items())
        raise ValueError(f"runs mix tasks and cannot be compared ({listing})")

    metric_sets = {name: set(data.get("metrics", {})) for name, data in runs}
    reference_name, reference = runs[0][0], metric_sets[runs[0][0]]
    for name, found in metric_sets.items():
        if found != reference:
            missing = sorted(reference - found)
            extra = sorted(found - reference)
            raise ValueError(
                f"inconsistent metric sets: {name} vs {reference_name}: "
                f"missing {missing}, extra {extra}"
            )

    columns = sorted(reference)
    best: dict[str, str] = {}
    for metric in columns:
        values = [(name, data["metrics"].get(metric)) for name, data in runs]
        values = [(n, v) for n, v in values if isinstance(v, (int, float))]
        if not values:
            continue
        pick = min if metric in LOWER_IS_BETTER else max
        best[metric] = pick(values, key=lambda nv: nv[1])[0]

    header = ["run", *columns, "best"]
    rows = []
    for name, data in runs:
        cells = [name]
        for metric in columns:
            v = data["metrics"].get(metric)
            cells.append("-" if v is None else f"{v:.4f}")
        cells.append(",".join(m for m in columns if best.get(m) == name))
        rows.append(cells)

    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())

    if args.output:
        _write_json(args.output, {
            "task": runs[0][1].get("task"),
            "columns": columns,
            "best": best,
            "runs": [{"run": name, "metrics": data.get("metrics", {})}
                     for name, data in runs],
        })
        print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanobert",
        description="Pretrain, finetune, and evaluate small text models from config files.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key; value parsed as JSON, else string")
        p.add_argument("--output-dir", help="overrides config output_dir")
        p.add_argument("--seed", type=int, help="overrides config seed")

    for name, func, desc in (
        ("train-tokenizer", cmd_train_tokenizer, "fit a BPE tokenizer on a text corpus"),
        ("pretrain", cmd_pretrain, "masked-token pretraining on a text corpus"),
        ("finetune", cmd_finetune, "train a task head on a pretrained checkpoint"),
        ("evaluate", cmd_evaluate, "score a checkpoint on a labeled CSV"),
        ("predict", cmd_predict, "label raw texts with a checkpoint"),
        ("baseline", cmd_baseline, "fit and score a classical baseline"),
    ):
        p = sub.add_parser(name, help=desc)
        add_config_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="tabulate metrics.json across run directories")
    p.add_argument("run_dirs", nargs="+", metavar="RUN_DIR")
    p.add_argument("--output", help="also write the table as JSON")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
