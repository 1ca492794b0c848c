"""Config-driven command line covering the whole pipeline.

One JSON config per run; ``--set key=value`` overrides nested keys with
JSON-literal values, each held to its key's annotation in ``COMMANDS`` as
it merges, and a required key left out is refused. Every command writes a
resolved_config.json next to its outputs, and ``--config
<run>/resolved_config.json`` re-executes the run exactly. A command takes
only the keys its code reads, and no key whose value another input fixes:
training keys are the TrainingConfig fields its trainer reads but ``seed``
(the top-level ``seed``), with the batch sizes under the common trainer names
(per_device_train_batch_size, per_device_eval_batch_size); BERT's fixed mask
split, clip norm and early-stopping tolerance are constants, not keys.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from functools import partial
from typing import NamedTuple

from . import __version__
from .baselines import Ridge, fit_text_baseline, mean_pooled_features
from .checkpoint import load_checkpoint
from .data import (CLASSIFICATION, LABEL_KIND, LABEL_KINDS, REGRESSION, check_type, load_csv,
                   parse_json, read_csv, read_json, reading, split, write_csv, write_json)
from .finetune import HeadConfig, attach_head, evaluate, head_task, predict, task_metrics, train
from .model import ModelConfig
from .optim import LOWER_IS_BETTER, TrainingConfig, select_best_epoch
from .pretrain import check_settings, run_pretraining
from .rng import Rng
from .tokenizer import TokenizerModel, train_bpe

_ANY = object()  # an allowed key with no default
_REQUIRED = object()  # a key every run of the command must give

# TrainingConfig field -> the trainer-convention name configs use for it
_LISTING_NAMES = {"train_batch_size": "per_device_train_batch_size",
                  "eval_batch_size": "per_device_eval_batch_size"}
_FIELD_NAMES = {listing: name for name, listing in _LISTING_NAMES.items()}


def _training_table(unread: set, **defaults) -> dict:
    """The TrainingConfig fields but ``unread`` under their listing names, with
    their annotations; TrainingConfig's defaults apply to the ones not given."""
    table = {}
    for f in fields(TrainingConfig):
        name = _LISTING_NAMES.get(f.name, f.name)
        if f.name not in unread:
            table[name] = (f.type, defaults.get(name, _ANY))
    return table


_TASK_DATA = {
    "train": ("str", _REQUIRED), "dev": ("str | None", _ANY), "test": ("str | None", _ANY),
    "text_column": ("str", "text"), "label_column": ("str", "label"),
    "label_kind": ("str", "class"), "test_size": ("int | float | None", _ANY),
    "dev_size": ("int | float | None", _ANY), "stratify": ("bool | None", None),
}

# baseline.algorithm -> the baseline.* settings it reads, as (annotation, default)
BASELINE_SETTINGS = {
    "naive_bayes": {"alpha": ("float", 1.0), "min_df": ("int", 1)},
    "maxent": {"l2": ("float", 1e-3), "learning_rate": ("float", 0.5), "epochs": ("int", 500),
               "min_df": ("int", 1)},
    "ridge": {"l2": ("float", 1.0), "checkpoint": ("str", _ANY), "batch_size": ("int", 64),
              "max_length": ("int | None", None)},
}

# Per command, every key it accepts as (annotation, default); _ANY: no
# default, _REQUIRED: no default and refused if absent. A None default is
# kept in the config, so resolved_config.json records it.
COMMANDS = {
    "train-tokenizer": {
        "output_dir": ("str", _REQUIRED),
        "data": {"corpus": ("str", _REQUIRED)},
        "tokenizer": {"vocab_size": ("int", 200), "lowercase": ("bool", True)},
    },
    "pretrain": {
        "output_dir": ("str", _REQUIRED), "seed": ("int", 11),
        "data": {"corpus": ("str", _REQUIRED)},
        # vocab_size and lowercase: the tokenizer file's, else train-tokenizer's defaults
        "tokenizer": {"path": ("str | None", None), "vocab_size": ("int", _ANY),
                      "lowercase": ("bool", _ANY)},
        "model": {"num_layers": ("int", 4), "hidden_size": ("int", 128),
                  "num_heads": ("int", 4), "ffn_size": ("int", 512),
                  "max_positions": ("int | None", None), "dropout": ("float", 0.1),
                  "vocab_size": ("int", _ANY)},
        "training": _training_table(
            {"metric_for_best_model", "seed"},
            num_train_epochs=5, per_device_train_batch_size=16, per_device_eval_batch_size=32,
            learning_rate=1e-4, warmup_steps=100, logging_steps=10, max_length=128),
        "pretrain": {"dev_fraction": ("float", 0.1), "patience": ("int", 2)},
    },
    "finetune": {
        "output_dir": ("str", _REQUIRED), "seed": ("int", 11),
        "checkpoint": {"path": ("str", _REQUIRED)},
        "training": _training_table({"logging_steps", "mask_prob", "seed"}),
        # the head's width, and so its task, follows from data.label_kind and the training set
        "data": _TASK_DATA,
    },
    "evaluate": {
        "output_dir": ("str", _REQUIRED),
        "checkpoint": {"path": ("str", _REQUIRED)},
        # the checkpoint's head fixes the label kind
        "data": {"test": ("str", _REQUIRED), "text_column": ("str", "text"),
                 "label_column": ("str", "label")},
        "eval": {"batch_size": ("int", 64), "max_length": ("int | None", None)},
    },
    "predict": {
        "output_dir": ("str", _REQUIRED),
        "checkpoint": {"path": ("str", _REQUIRED)},
        "data": {"input": ("str", _REQUIRED), "text_column": ("str", "text")},
        "predict": {"batch_size": ("int", 64), "max_length": ("int | None", None)},
    },
    "baseline": {
        "output_dir": ("str", _REQUIRED), "seed": ("int", 11),
        # the chosen algorithm's defaults apply; a key it does not read is refused
        "baseline": {"algorithm": ("str", "naive_bayes"),
                     **{key: (annotation, _ANY) for settings in BASELINE_SETTINGS.values()
                        for key, (annotation, _) in settings.items()}},
        # baseline.algorithm fixes the label kind
        "data": {key: leaf for key, leaf in _TASK_DATA.items() if key != "label_kind"},
    },
}


def _defaults(table: dict) -> dict:
    return {key: _defaults(leaf) if isinstance(leaf, dict) else leaf[1]
            for key, leaf in table.items()
            if isinstance(leaf, dict) or leaf[1] not in (_ANY, _REQUIRED)}


def _check_required(config: dict, table: dict, prefix: str = "") -> None:
    """Refuse, naming the dotted key, the first _REQUIRED key ``config`` lacks."""
    for key, leaf in table.items():
        if isinstance(leaf, dict):
            _check_required(config[key], leaf, f"{prefix}{key}.")
        elif leaf[1] is _REQUIRED and config.get(key) is None:
            raise ValueError(f"missing required config key {prefix + key!r}")


def _merge(config: dict, override: dict, table: dict, prefix: str = "") -> dict:
    """``config`` with ``override`` merged in section by section. Refuses,
    naming the dotted key, a key ``table`` does not list, a value where it
    has a section, a section where it has a value, a value its annotation
    does not admit, and an empty string (only None means "absent")."""
    out = dict(config)
    for key, value in override.items():
        path = f"{prefix}{key}"
        if key not in table:
            raise ValueError(f"unknown config key {path!r}")
        section = isinstance(table[key], dict)
        if section != isinstance(value, dict):
            raise ValueError(f"config key {path!r} must be "
                             f"{'a section (JSON object)' if section else 'a value, not a section'}")
        if section:
            out[key] = _merge(out[key], value, table[key], f"{path}.")
        else:
            check_type(path, value, table[key][0])
            if value == "":
                raise ValueError(f"config key {path!r} must not be empty")
            out[key] = value
    return out


def _parse_set(arg: str) -> dict:
    """``--set a.b=value`` as the nested dict ``{"a": {"b": value}}``."""
    dotted, sep, raw = arg.partition("=")
    keys = [k for k in dotted.split(".") if k]
    if not sep or not keys:
        raise ValueError(f"--set expects key=value, got {arg!r}")
    try:
        value = parse_json(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings need no quotes
    except ValueError as exc:  # a NaN, an Infinity or an out-of-range number
        raise ValueError(f"--set {arg!r}: {exc}") from None
    for key in reversed(keys):
        value = {key: value}
    return value


def _check_written(key: str, written, actual) -> None:
    """A value a resolved config records must match the one this run derives."""
    if written != actual:
        raise ValueError(f"config key {key!r} is {written!r}, but this run has {actual!r}")


def resolve_config(command: str, args) -> dict:
    """defaults <- config file <- --set overrides <- dedicated flags.

    A resolved_config.json is accepted as is: its ``command`` must name this
    command, and its ``version`` is ignored.
    """
    table = COMMANDS[command]
    config = _defaults(table)

    def merge_file(loaded) -> dict:
        if not isinstance(loaded, dict):
            raise ValueError("a config must hold a JSON object")
        _check_written("command", loaded.pop("command", command), command)
        loaded.pop("version", None)
        return _merge(config, loaded, table)

    if args.config:
        config = read_json(args.config, merge_file)
    for item in args.set or []:
        config = _merge(config, _parse_set(item), table)
    if args.output_dir is not None:
        if args.output_dir == "":
            raise ValueError("--output-dir must not be empty")
        config["output_dir"] = args.output_dir
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    _check_required(config, table)
    return config


def _headline(metrics: dict) -> str:
    """The defined metrics of a metrics.json body as one summary line."""
    return ", ".join(f"{k}={v:.4f}" for k, v in sorted(metrics["metrics"].items())
                     if v is not None and not math.isnan(v))


def _training_config(section: dict, seed: int) -> TrainingConfig:
    return TrainingConfig(seed=seed, **{_FIELD_NAMES.get(key, key): value
                                        for key, value in section.items()})


def _listing_training_dict(config: TrainingConfig, command: str) -> dict:
    """The fields ``command``'s training table lists, under their listing names."""
    return {name: value for key, value in config.to_dict().items()
            if (name := _LISTING_NAMES.get(key, key)) in COMMANDS[command]["training"]}


def _load_task_splits(config: dict, kind: str, *, need_dev: bool, need_test: bool):
    """Train/dev/test with labels of ``kind`` from explicit files, or carved
    out of the train CSV."""
    data_cfg, seed = config["data"], config["seed"]
    text_col = data_cfg["text_column"]
    label_col = data_cfg["label_column"]
    train_set = load_csv(data_cfg["train"], text_col, label_col, label_kind=kind)
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
        stratify = data_cfg["stratify"]
        if stratify is None:
            stratify = kind == "class"
        train_set, carved_dev, carved_test = split(
            train_set, carve_test or 0, carve_dev or 0, seed=seed, stratify=stratify)
        if carve_dev:
            dev_set = carved_dev
        if carve_test:
            test_set = carved_test

    if len(train_set) == 0:
        raise ValueError("the training set has no examples")
    if need_dev and dev_set is None:
        raise ValueError("a dev set is required: provide data.dev or data.dev_size")
    if need_test and test_set is None:
        raise ValueError("a test set is required: provide data.test or data.test_size")
    return train_set, dev_set, test_set


class Run(NamedTuple):
    """What a command body hands ``main`` to write into its run directory."""

    summary: str  # the line printed once the directory is written
    metrics: dict | None = None  # the metrics.json body, if the command has one
    resolved: dict = {}  # config sections the run derived, for resolved_config.json
    artifacts: dict = {}  # path -> function that writes the file there


def cmd_train_tokenizer(config: dict, out: str) -> Run:
    with reading(config["data"]["corpus"]) as f:
        corpus = f.read()
    tokenizer = train_bpe([corpus], **config["tokenizer"])
    path = os.path.join(out, "tokenizer.json")
    return Run(f"trained tokenizer with {tokenizer.vocab_size} tokens -> {path}",
               artifacts={path: tokenizer.save})


def cmd_pretrain(config: dict, out: str) -> Run:
    training = _training_config(config["training"], config["seed"])
    tok_cfg = config["tokenizer"]
    if tok_cfg["path"] is None:
        tok_cfg = {**_defaults(COMMANDS["train-tokenizer"]["tokenizer"]), **tok_cfg}
    # every setting is checked before any input is read; until the tokenizer is made, the
    # vocab size asked for stands in for its own (1 when only the tokenizer file knows it)
    model_cfg = {"vocab_size": tok_cfg.get("vocab_size", 1), **config["model"]}
    if model_cfg["max_positions"] is None:
        model_cfg["max_positions"] = training.max_length
    model = ModelConfig(**model_cfg)
    pre = config["pretrain"]
    check_settings(training, model, pre["dev_fraction"], pre["patience"])

    with reading(config["data"]["corpus"]) as f:
        corpus = f.read()
    if tok_cfg["path"] is None:
        tokenizer = train_bpe([corpus], tok_cfg["vocab_size"], tok_cfg["lowercase"])
    else:
        tokenizer = TokenizerModel.load(tok_cfg["path"])
        loaded = {"vocab_size": tokenizer.vocab_size, "lowercase": tokenizer.lowercase}
        for key, value in loaded.items():
            _check_written(f"tokenizer.{key}", tok_cfg.get(key, value), value)
        tok_cfg = {**tok_cfg, **loaded}
    _check_written("model.vocab_size", config["model"].get("vocab_size", tokenizer.vocab_size),
                   tokenizer.vocab_size)
    model = replace(model, vocab_size=tokenizer.vocab_size)

    result = run_pretraining(training, corpus, tokenizer, model, output_dir=out,
                             dev_fraction=pre["dev_fraction"], patience=pre["patience"])

    tail = " (stopped early)" if result.stopped_early else ""
    return Run(
        f"pretrained {len(result.dev_losses) - 1} epochs{tail}: dev loss "
        f"{result.dev_losses[0]:.4f} -> {min(result.dev_losses):.4f} "
        f"(best epoch {result.best_epoch}) -> {out}/best.ckpt",
        metrics={
            "task": "pretrain",
            "num_examples": None,
            "metrics": {
                "initial_dev_loss": result.dev_losses[0],
                "best_dev_loss": min(result.dev_losses),
                "final_dev_loss": result.dev_losses[-1],
                "best_epoch": result.best_epoch,
            },
        },
        resolved={"tokenizer": tok_cfg, "model": model.to_dict(),
                  "training": _listing_training_dict(training, "pretrain")})


def cmd_finetune(config: dict, out: str) -> Run:
    kind = config["data"]["label_kind"]
    if kind not in LABEL_KINDS:
        raise ValueError(f"data.label_kind must be one of {LABEL_KINDS}, got {kind!r}")
    training_section = dict(config["training"])
    if kind == LABEL_KIND[REGRESSION]:
        training_section.setdefault("metric_for_best_model", "mse")
    training = _training_config(training_section, config["seed"])

    model = load_checkpoint(config["checkpoint"]["path"])
    train_set, dev_set, test_set = _load_task_splits(config, kind, need_dev=True,
                                                     need_test=False)
    if kind == LABEL_KIND[CLASSIFICATION]:
        if train_set.num_classes < 2:
            raise ValueError("the training set has a single class; a classifier needs 2 or more")
        head = HeadConfig(train_set.num_classes)
    else:
        head = HeadConfig(1)

    headed = attach_head(model, head, Rng(config["seed"]).spawn("head"),
                         label_names=train_set.label_names)
    result = train(training, headed, train_set, dev_set, output_dir=out)

    eval_split = "test" if test_set is not None else "dev"
    metrics = evaluate(result.checkpoint, test_set if test_set is not None else dev_set,
                       max_length=training.max_length,
                       batch_size=training.eval_batch_size)
    metrics["split"] = eval_split
    return Run(f"finetuned {len(result.history)} epochs, best epoch {result.best_epoch} "
               f"(dev {result.metric}={result.best_value:.4f}); {eval_split}: {_headline(metrics)}",
               metrics, {"training": _listing_training_dict(training, "finetune")})


def _load_headed(config: dict):
    """The checkpoint at ``checkpoint.path`` and its head's task, refused by path if headless."""
    path = config["checkpoint"]["path"]
    model = load_checkpoint(path)
    if "head.w" not in model.params:
        raise ValueError(f"{path}: the checkpoint has no task head; finetune it first")
    return model, head_task(model.params)


def cmd_evaluate(config: dict, out: str) -> Run:
    model, task = _load_headed(config)
    data_cfg = config["data"]
    test_path = data_cfg["test"]
    dataset = load_csv(test_path, data_cfg["text_column"], data_cfg["label_column"],
                       label_kind=LABEL_KIND[task])
    if len(dataset) == 0:
        raise ValueError(f"test file {test_path} has no rows")
    eval_cfg = config["eval"]
    metrics = evaluate(model, dataset, max_length=eval_cfg["max_length"],
                       batch_size=eval_cfg["batch_size"])
    metrics["split"] = "test"
    return Run(f"evaluated {metrics['num_examples']} examples: {_headline(metrics)}", metrics)


def cmd_predict(config: dict, out: str) -> Run:
    model, task = _load_headed(config)
    text_col = config["data"]["text_column"]
    texts = read_csv(config["data"]["input"], [text_col],
                     lambda rows: [row[text_col] for _, row in rows])

    pred_cfg = config["predict"]
    values = predict(model, texts, max_length=pred_cfg["max_length"],
                     batch_size=pred_cfg["batch_size"])
    if task == REGRESSION:
        rendered = [f"{float(v):.6f}" for v in values]
    elif model.label_names:
        rendered = [model.label_names[int(v)] for v in values]
    else:
        rendered = [str(int(v)) for v in values]

    pred_path = os.path.join(out, "predictions.csv")
    return Run(f"wrote {len(texts)} predictions -> {pred_path}", artifacts={
        pred_path: partial(write_csv, texts=texts, labels=rendered, text_column=text_col,
                           label_column="prediction")})


def cmd_baseline(config: dict, out: str) -> Run:
    given = dict(config["baseline"])
    algorithm = given.pop("algorithm")
    if algorithm not in BASELINE_SETTINGS:
        raise ValueError(f"unknown baseline algorithm {algorithm!r}; "
                         f"choose one of {sorted(BASELINE_SETTINGS)}")
    reads = BASELINE_SETTINGS[algorithm]
    for key in given:
        if key not in reads:
            raise ValueError(f"config key 'baseline.{key}' is not read by baseline.algorithm "
                             f"{algorithm!r}, which reads {sorted(reads)}")
    settings = {**_defaults(reads), **given}
    if algorithm == "ridge":
        if "checkpoint" not in settings:
            raise ValueError("the ridge baseline needs baseline.checkpoint for features")
        model = load_checkpoint(settings["checkpoint"])
    task = REGRESSION if algorithm == "ridge" else CLASSIFICATION
    train_set, _, test_set = _load_task_splits(config, LABEL_KIND[task],
                                               need_dev=False, need_test=True)

    if algorithm == "ridge":
        kwargs = dict(max_length=settings["max_length"], batch_size=settings["batch_size"])
        X_train = mean_pooled_features(model, train_set.texts, **kwargs)
        X_test = mean_pooled_features(model, test_set.texts, **kwargs)
        ridge = Ridge(l2=settings["l2"]).fit(X_train, train_set.label_array())
        save = partial(write_json, obj={"algorithm": "ridge", "checkpoint": settings["checkpoint"],
                                        **ridge.to_json_dict()})
        metrics = task_metrics(task, test_set.label_array(), ridge.predict(X_test))
    else:
        pipeline = fit_text_baseline(algorithm, train_set, **settings)
        save = pipeline.save
        metrics = task_metrics(task, test_set.label_array(),
                               pipeline.predict(test_set.texts), train_set.label_names)
    metrics.update(algorithm=algorithm, split="test")
    model_path = os.path.join(out, "baseline_model.json")
    return Run(f"{algorithm} on {metrics['num_examples']} test examples: {_headline(metrics)} "
               f"(model -> {model_path})", metrics,
               resolved={"baseline": {"algorithm": algorithm, **settings}},
               artifacts={model_path: save})


def _checked_metrics(doc) -> dict:
    """A metrics.json body: an object with a task name (or null) and an
    object of numbers (or nulls) under ``metrics``."""
    metrics = doc.get("metrics") if isinstance(doc, dict) else None
    if not (isinstance(metrics, dict) and isinstance(doc.get("task"), (str, type(None)))
            and all(v is None or isinstance(v, (int, float)) for v in metrics.values())):
        raise ValueError("not a metrics.json body: a task and an object of numbers under 'metrics'")
    return doc


def cmd_report(args) -> int:
    runs = [(os.path.basename(os.path.normpath(run_dir)),
             read_json(os.path.join(run_dir, "metrics.json"), _checked_metrics))
            for run_dir in args.run_dirs]

    tasks = {name: data.get("task") for name, data in runs}
    if len(set(tasks.values())) > 1:
        listing = ", ".join(f"{n}: {t}" for n, t in tasks.items())
        raise ValueError(f"runs mix tasks and cannot be compared ({listing})")

    metric_sets = {name: set(data["metrics"]) for name, data in runs}
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
        scored = [(name, data["metrics"][metric]) for name, data in runs
                  if isinstance(data["metrics"].get(metric), (int, float))]
        try:
            # error metrics and the pretraining dev losses are best at their minimum
            lower = metric in LOWER_IS_BETTER or metric.endswith("_loss")
            pick = select_best_epoch([v for _, v in scored], not lower)
        except ValueError:
            continue  # no run has a comparable value
        best[metric] = scored[pick][0]

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
        write_json(args.output, {
            "task": runs[0][1].get("task"),
            "columns": columns,
            "best": best,
            "runs": [{"run": name, "metrics": data["metrics"]} for name, data in runs],
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

    def add_config_flags(p, command):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key; value parsed as JSON, else string")
        p.add_argument("--output-dir", help="overrides config output_dir")
        if "seed" in COMMANDS[command]:
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
        add_config_flags(p, name)
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="tabulate metrics.json across run directories")
    p.add_argument("run_dirs", nargs="+", metavar="RUN_DIR")
    p.add_argument("--output", help="also write the table as JSON")
    return parser


def main(argv=None) -> int:
    """Run a command. A config command's run directory is made and written
    only after its body returns, so a body that fails before writing leaves
    none (pretrain and finetune write their training files as they run)."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args)
        config = resolve_config(args.command, args)
        out = config["output_dir"]
        run = args.func(config, out)
        os.makedirs(out, exist_ok=True)
        for path, save in run.artifacts.items():
            save(path)
        if run.metrics is not None:
            write_json(os.path.join(out, "metrics.json"), run.metrics)
        # the config as run, with the sections the run derived: a --config for a rerun
        write_json(os.path.join(out, "resolved_config.json"),
                   {"command": args.command, "version": __version__, **config, **run.resolved})
        print(run.summary)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
