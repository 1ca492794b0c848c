"""End-to-end command-line plumbing over tiny bundled-style datasets."""

import ast
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from nanobert import cli, datagen
from nanobert.baselines import BASELINE_KINDS
from nanobert.checkpoint import load_checkpoint, save_checkpoint
from nanobert.cli import main
from nanobert.data import _FIELD_KINDS, LabeledDataset, check_type, load_csv
from nanobert.finetune import HeadConfig, attach_head, evaluate, predict, write_json
from nanobert.optim import TrainingConfig
from nanobert.rng import Rng
from nanobert.tokenizer import TokenizerModel

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Corpus + CSVs + one pretrained checkpoint, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    data.mkdir()

    corpus = datagen.pretrain_corpus(seed=5, target_chars=4000)
    (data / "corpus.txt").write_text(corpus + "\n")

    texts, labels = datagen.topic_dataset(n_rows=150, seed=5)
    datagen.write_csv(str(data / "topics.csv"), texts, labels)

    texts, labels = datagen.order_dataset(80, seed=5)
    datagen.write_csv(str(data / "order_train.csv"), texts, labels)
    texts, labels = datagen.order_dataset(40, seed=6)
    datagen.write_csv(str(data / "order_test.csv"), texts, labels)

    texts, values = datagen.anxiety_dataset(n_rows=120, seed=5)
    datagen.write_csv(str(data / "anxiety.csv"), texts,
                      [f"{v:.3f}" for v in values], label_column="anxiety")

    pretrain_dir = root / "pretrain"
    assert main(pretrain_argv(data, pretrain_dir)) == 0
    return {"root": root, "data": data, "pretrain": pretrain_dir}


def pretrain_argv(data, out, *sets):
    """A tiny ``pretrain`` of the corpus in ``data`` into ``out``, with
    ``sets`` as further ``--set`` items."""
    argv = ["pretrain", "--output-dir", str(out), "--set", f"data.corpus={data / 'corpus.txt'}"]
    for item in ["tokenizer.vocab_size=96", "model.num_layers=1", "model.hidden_size=16",
                 "model.num_heads=2", "model.ffn_size=32", "model.dropout=0.0",
                 "training.num_train_epochs=1", "training.per_device_train_batch_size=8",
                 "training.learning_rate=1e-3", "training.warmup_steps=5",
                 "training.max_length=32", *sets]:
        argv += ["--set", item]
    return argv


def finetune_config(workdir, **training_overrides):
    training = {"num_train_epochs": 2, "per_device_train_batch_size": 16,
                "learning_rate": 1e-3, "max_length": 16}
    training.update(training_overrides)
    return {
        "checkpoint": {"path": str(workdir["pretrain"] / "best.ckpt")},
        "data": {
            "train": str(workdir["data"] / "topics.csv"),
            "test_size": 30,
            "dev_size": 30,
        },
        "training": training,
    }


@pytest.fixture(scope="module")
def finetune_run(workdir):
    out = workdir["root"] / "finetune"
    config_path = workdir["root"] / "finetune.json"
    config_path.write_text(json.dumps(finetune_config(workdir)))
    rc = main(["finetune", "--config", str(config_path), "--output-dir", str(out)])
    assert rc == 0
    return out


def headed_checkpoint(workdir, path, num_labels):
    """The module's pretrained checkpoint with a fresh ``num_labels``-column
    head and no label names, saved to ``path``."""
    base = load_checkpoint(str(workdir["pretrain"] / "best.ckpt"))
    save_checkpoint(attach_head(base, HeadConfig(num_labels), Rng(3)), str(path))
    return path


class TestTrainTokenizer:
    def test_writes_tokenizer_and_resolved_config(self, workdir, tmp_path, capsys):
        rc = main([
            "train-tokenizer",
            "--output-dir", str(tmp_path),
            "--set", f"data.corpus={workdir['data'] / 'corpus.txt'}",
            "--set", "tokenizer.vocab_size=64",
        ])
        assert rc == 0
        assert (tmp_path / "tokenizer.json").exists()
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        assert resolved["command"] == "train-tokenizer"
        assert resolved["tokenizer"]["vocab_size"] == 64
        assert "version" in resolved
        assert "tokenizer.json" in capsys.readouterr().out

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        rc = main([
            "train-tokenizer", "--output-dir", str(tmp_path),
            "--set", "data.corpus=/nope/missing.txt",
        ])
        assert rc == 2
        assert "/nope/missing.txt" in capsys.readouterr().err

    def test_non_utf8_corpus_names_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"the cat sat \xff on the mat\n")
        rc = main(["train-tokenizer", "--output-dir", str(tmp_path / "out"),
                   "--set", f"data.corpus={corpus}"])
        assert rc == 2
        assert f"error: {corpus}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self, workdir, tmp_path, capsys):
        rc = main([
            "train-tokenizer", "--output-dir", str(tmp_path),
            "--set", f"data.corpus={workdir['data'] / 'corpus.txt'}",
            "--set", "tokenizer.vocab=64",
        ])
        assert rc == 2
        assert "unknown config key 'tokenizer.vocab'" in capsys.readouterr().err

    @pytest.mark.parametrize("loaded, sets, message", [
        ({"output_dir": {"x": 1}}, [], "config key 'output_dir' must be a value, not a section"),
        ({}, ["output_dir.x=1"], "config key 'output_dir' must be a value, not a section"),
        ({"tokenizer": {"lowercase": {"on": True}}}, [],
         "config key 'tokenizer.lowercase' must be a value"),
        ({"data": "corpus.txt"}, [], "config key 'data' must be a section"),
        ({}, ["tokenizer=64"], "config key 'tokenizer' must be a section"),
    ])
    def test_sections_and_values_kept_apart(self, workdir, tmp_path, capsys, loaded, sets,
                                            message):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(loaded))
        argv = ["train-tokenizer", "--config", str(config_path),
                "--output-dir", str(tmp_path / "out"),
                "--set", f"data.corpus={workdir['data'] / 'corpus.txt'}"]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("item", ["seed=NaN", "tokenizer.vocab_size=Infinity",
                                      "seed=-Infinity", "tokenizer.vocab_size=1e999",
                                      "seed=-1e999"])
    def test_non_finite_set_values_refused(self, workdir, tmp_path, capsys, item):
        """``--set`` values are strict JSON, like every file nanobert reads,
        so the run directory never records a value its run did not use."""
        rc = main(["train-tokenizer", "--output-dir", str(tmp_path / "out"),
                   "--set", f"data.corpus={workdir['data'] / 'corpus.txt'}", "--set", item])
        assert rc == 2
        literal = item.partition("=")[2]
        number = "a finite JSON number" if literal.endswith("e999") else "a JSON number"
        assert f"error: --set {item!r}: {literal} is not {number}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_config_names_the_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{'seed': 1}")
        assert main(["train-tokenizer", "--config", str(config_path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert f"error: {config_path}: Expecting property name" in capsys.readouterr().err


class TestPretrainCommand:
    def test_artifacts(self, workdir):
        out = workdir["pretrain"]
        for name in ("best.ckpt", "best.ckpt.tokenizer.json", "loss_log.tsv",
                     "dev_losses.tsv", "metrics.json", "resolved_config.json"):
            assert (out / name).exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["task"] == "pretrain"
        assert metrics["metrics"]["best_dev_loss"] <= metrics["metrics"]["initial_dev_loss"]
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["training"]["per_device_train_batch_size"] == 8
        assert resolved["model"]["vocab_size"] == 96
        assert resolved["tokenizer"] == {"path": None, "vocab_size": 96, "lowercase": True}

    def test_checkpoint_loads(self, workdir):
        ckpt = load_checkpoint(str(workdir["pretrain"] / "best.ckpt"))
        assert ckpt.tokenizer is not None
        assert ckpt.model_config.hidden_size == 16

    @pytest.fixture
    def tokenizer_file(self, workdir, tmp_path):
        """A tokenizer file of other settings than pretrain's defaults."""
        assert main(["train-tokenizer", "--output-dir", str(tmp_path / "tok"),
                     "--set", f"data.corpus={workdir['data'] / 'corpus.txt'}",
                     "--set", "tokenizer.vocab_size=64", "--set", "tokenizer.lowercase=false"]) == 0
        return tmp_path / "tok" / "tokenizer.json"

    def test_tokenizer_file_settings_recorded(self, workdir, tokenizer_file, tmp_path):
        """With a tokenizer file, the run records that file's vocab size and
        casing, not defaults it never read."""
        config = json.loads((workdir["pretrain"] / "resolved_config.json").read_text())
        config["tokenizer"] = {"path": str(tokenizer_file)}
        del config["model"]["vocab_size"]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["pretrain", "--config", str(config_path), "--output-dir", str(out)]) == 0
        loaded = TokenizerModel.load(str(tokenizer_file))
        assert loaded.lowercase is False
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["tokenizer"] == {"path": str(tokenizer_file),
                                         "vocab_size": loaded.vocab_size, "lowercase": False}

    @pytest.mark.parametrize("item, key", [("tokenizer.vocab_size=96", "tokenizer.vocab_size"),
                                           ("tokenizer.lowercase=true", "tokenizer.lowercase")])
    def test_tokenizer_setting_beside_its_file_must_match(self, item, key, workdir,
                                                          tokenizer_file, tmp_path, capsys):
        out = tmp_path / "out"
        loaded = TokenizerModel.load(str(tokenizer_file))
        actual = {"tokenizer.vocab_size": loaded.vocab_size, "tokenizer.lowercase": False}[key]
        assert main(pretrain_argv(workdir["data"], out, f"tokenizer.path={tokenizer_file}",
                                  f"tokenizer.vocab_size={loaded.vocab_size}", item)) == 2
        err = capsys.readouterr().err
        assert f"error: config key {key!r} is " in err and f"this run has {actual!r}" in err
        assert not out.exists()


class TestFinetuneCommand:
    def test_metrics_json_schema(self, finetune_run):
        metrics = json.loads((finetune_run / "metrics.json").read_text())
        assert metrics["task"] == "classification"
        assert metrics["split"] == "test"
        assert metrics["num_examples"] == 30
        assert set(metrics["metrics"]) == {"accuracy", "precision", "recall", "f1"}
        weighted = metrics["report"]["weighted avg"]
        assert {"precision", "recall", "f1-score", "support"} <= set(weighted)

    def test_run_dir_is_self_describing(self, finetune_run):
        resolved = json.loads((finetune_run / "resolved_config.json").read_text())
        assert resolved["command"] == "finetune"
        assert resolved["seed"] == 11
        assert "head" not in resolved and "seed" not in resolved["training"]
        assert resolved["training"]["metric_for_best_model"] == "precision"
        # the head's width follows from the training set's 15 classes
        assert load_checkpoint(str(finetune_run / "best.ckpt")).params["head.w"].shape[1] == 15
        for name in ("best.ckpt", "metrics_log.jsonl", "selection.json"):
            assert (finetune_run / name).exists()

    def test_label_names_stored_in_checkpoint(self, finetune_run):
        ckpt = load_checkpoint(str(finetune_run / "best.ckpt"))
        assert ckpt.label_names is not None
        assert len(ckpt.label_names) == 15

    def test_reruns_are_byte_identical(self, workdir, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(finetune_config(workdir, num_train_epochs=1)))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["finetune", "--config", str(config_path), "--output-dir", str(out_a)]) == 0
        assert main(["finetune", "--config", str(config_path), "--output-dir", str(out_b)]) == 0
        for name in ("metrics.json", "metrics_log.jsonl", "best.ckpt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_missing_checkpoint_key(self, workdir, tmp_path, capsys):
        config = finetune_config(workdir)
        del config["checkpoint"]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        rc = main(["finetune", "--config", str(config_path), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "checkpoint.path" in capsys.readouterr().err

    def test_regression_defaults_to_mse_selection(self, workdir, tmp_path):
        out = tmp_path / "reg"
        rc = main([
            "finetune", "--output-dir", str(out),
            "--set", f"checkpoint.path={workdir['pretrain'] / 'best.ckpt'}",
            "--set", f"data.train={workdir['data'] / 'anxiety.csv'}",
            "--set", "data.label_column=anxiety",
            "--set", "data.label_kind=real",
            "--set", "data.test_size=20",
            "--set", "data.dev_size=20",
            "--set", "training.num_train_epochs=1",
            "--set", "training.max_length=16",
            "--set", "training.learning_rate=1e-3",
        ])
        assert rc == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["training"]["metric_for_best_model"] == "mse"
        assert "head" not in resolved
        # real-valued labels make a one-column regression head
        assert load_checkpoint(str(out / "best.ckpt")).params["head.w"].shape[1] == 1
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["metrics"]) == {"mse", "rmse", "pearson_r"}


    def test_single_class_training_set_refused(self, workdir, tmp_path, capsys):
        single = tmp_path / "single.csv"
        datagen.write_csv(str(single), [f"text number {i}" for i in range(40)], ["only"] * 40)
        out = tmp_path / "out"
        rc = main(["finetune", "--output-dir", str(out),
                   "--set", f"checkpoint.path={workdir['pretrain'] / 'best.ckpt'}",
                   "--set", f"data.train={single}", "--set", "data.dev_size=10"])
        assert rc == 2
        assert capsys.readouterr().err == ("error: the training set has a single class; "
                                           "a classifier needs 2 or more\n")
        assert not out.exists()


class TestEvaluateCommand:
    def test_writes_metrics(self, workdir, finetune_run, tmp_path):
        out = tmp_path / "eval"
        rc = main([
            "evaluate", "--output-dir", str(out),
            "--set", f"checkpoint.path={finetune_run / 'best.ckpt'}",
            "--set", f"data.test={workdir['data'] / 'topics.csv'}",
            "--set", "eval.max_length=16",
        ])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["num_examples"] == 150
        assert "weighted avg" in metrics["report"]

    def test_class_count_mismatch_names_both_values(self, workdir, tmp_path, capsys):
        # order task checkpoint has 2 classes; topics has 15
        order_out = tmp_path / "order_ft"
        rc = main([
            "finetune", "--output-dir", str(order_out),
            "--set", f"checkpoint.path={workdir['pretrain'] / 'best.ckpt'}",
            "--set", f"data.train={workdir['data'] / 'order_train.csv'}",
            "--set", "data.dev_size=16",
            "--set", "training.num_train_epochs=1",
            "--set", "training.max_length=16",
        ])
        assert rc == 0
        rc = main([
            "evaluate", "--output-dir", str(tmp_path / "eval"),
            "--set", f"checkpoint.path={order_out / 'best.ckpt'}",
            "--set", f"data.test={workdir['data'] / 'topics.csv'}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "2" in err and "15" in err

    def test_test_file_with_some_of_the_classes(self, workdir, finetune_run, tmp_path):
        ckpt = load_checkpoint(str(finetune_run / "best.ckpt"))
        topics = load_csv(str(workdir["data"] / "topics.csv"), "text", "label")
        kept = ckpt.label_names[-3:]  # not the first ids, so the labels need mapping
        rows = [(text, topics.label_names[lab]) for text, lab in zip(topics.texts, topics.labels)
                if topics.label_names[lab] in kept][:20]
        subset = tmp_path / "subset.csv"
        datagen.write_csv(str(subset), *zip(*rows))
        out = tmp_path / "eval"
        rc = main(["evaluate", "--output-dir", str(out),
                   "--set", f"checkpoint.path={finetune_run / 'best.ckpt'}",
                   "--set", f"data.test={subset}"])
        assert rc == 0
        expected = evaluate(ckpt, LabeledDataset([t for t, _ in rows],
                                                 [ckpt.label_names.index(n) for _, n in rows],
                                                 "class", list(ckpt.label_names)))
        expected["split"] = "test"
        write_json(str(tmp_path / "expected.json"), expected)
        assert expected["num_examples"] == 20
        assert (out / "metrics.json").read_bytes() == (tmp_path / "expected.json").read_bytes()

    def test_regression_checkpoint_reads_real_labels(self, workdir, tmp_path):
        """The head's width fixes the label kind: no key says it."""
        ckpt = headed_checkpoint(workdir, tmp_path / "regression.ckpt", 1)
        test_csv = workdir["data"] / "anxiety.csv"
        out = tmp_path / "eval"
        rc = main(["evaluate", "--output-dir", str(out), "--set", f"checkpoint.path={ckpt}",
                   "--set", f"data.test={test_csv}", "--set", "data.label_column=anxiety",
                   "--set", "eval.max_length=16"])
        assert rc == 0
        expected = evaluate(load_checkpoint(str(ckpt)),
                            load_csv(str(test_csv), "text", "anxiety", label_kind="real"),
                            max_length=16)
        expected["split"] = "test"
        write_json(str(tmp_path / "expected.json"), expected)
        assert expected["task"] == "regression" and expected["num_examples"] == 120
        assert (out / "metrics.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert "label_kind" not in resolved["data"]

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_header_only_test_file_names_the_file(self, workdir, finetune_run, tmp_path,
                                                  capsys, task):
        empty = tmp_path / "empty.csv"
        ckpt = finetune_run / "best.ckpt"
        settings = []
        if task == "regression":
            ckpt = headed_checkpoint(workdir, tmp_path / "regression.ckpt", 1)
            settings = ["--set", "data.label_column=anxiety"]
        empty.write_text("text,anxiety\n" if task == "regression" else "text,label\n")
        rc = main(["evaluate", "--output-dir", str(tmp_path / "eval"),
                   "--set", f"checkpoint.path={ckpt}", "--set", f"data.test={empty}",
                   *settings])
        assert rc == 2
        assert f"test file {empty} has no rows" in capsys.readouterr().err


class TestPredictCommand:
    def test_writes_label_names(self, workdir, finetune_run, tmp_path, capsys):
        out = tmp_path / "pred"
        rc = main([
            "predict", "--output-dir", str(out),
            "--set", f"checkpoint.path={finetune_run / 'best.ckpt'}",
            "--set", f"data.input={workdir['data'] / 'topics.csv'}",
            "--set", "predict.max_length=16",
        ])
        assert rc == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "text,prediction"
        assert len(lines) == 151
        names = set(datagen.TOPIC_KEYWORDS)
        assert all(line.rsplit(",", 1)[1] in names for line in lines[1:])

    @pytest.mark.parametrize("num_labels", [1, 3])
    def test_head_without_label_names_writes_its_values(self, workdir, tmp_path, num_labels):
        """A regressor writes six-decimal reals, a classifier without label
        names its class ids."""
        ckpt = headed_checkpoint(workdir, tmp_path / "headed.ckpt", num_labels)
        out = tmp_path / "pred"
        rc = main(["predict", "--output-dir", str(out), "--set", f"checkpoint.path={ckpt}",
                   "--set", f"data.input={workdir['data'] / 'order_test.csv'}",
                   "--set", "predict.max_length=16"])
        assert rc == 0
        texts = load_csv(str(workdir["data"] / "order_test.csv"), "text", "label").texts
        values = predict(load_checkpoint(str(ckpt)), texts, max_length=16)
        rendered = [f"{v:.6f}" if num_labels == 1 else str(v) for v in values]
        assert (out / "predictions.csv").read_text().splitlines() == [
            "text,prediction", *(f"{t},{r}" for t, r in zip(texts, rendered))]

    def test_header_only_input_writes_header_only_predictions(self, finetune_run, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("text,label\n")
        out = tmp_path / "pred"
        rc = main([
            "predict", "--output-dir", str(out),
            "--set", f"checkpoint.path={finetune_run / 'best.ckpt'}",
            "--set", f"data.input={empty}",
        ])
        assert rc == 0
        assert (out / "predictions.csv").read_text().splitlines() == ["text,prediction"]

    def test_batch_size_below_one_named(self, workdir, finetune_run, tmp_path, capsys):
        rc = main([
            "predict", "--output-dir", str(tmp_path),
            "--set", f"checkpoint.path={finetune_run / 'best.ckpt'}",
            "--set", f"data.input={workdir['data'] / 'topics.csv'}",
            "--set", "predict.batch_size=0",
        ])
        assert rc == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [("predict", "predict.batch_size", "true"),
                                                     ("evaluate", "eval.batch_size", "1.5")])
    def test_batch_size_not_an_int_named(self, workdir, finetune_run, tmp_path, capsys,
                                         command, key, value):
        data_key = "data.input" if command == "predict" else "data.test"
        out = tmp_path / "out"
        rc = main([
            command, "--output-dir", str(out),
            "--set", f"checkpoint.path={finetune_run / 'best.ckpt'}",
            "--set", f"{data_key}={workdir['data'] / 'topics.csv'}",
            "--set", f"{key}={value}",
        ])
        assert rc == 2
        message = f"error: {key} must be int, got {json.loads(value)!r}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_text_column(self, workdir, finetune_run, tmp_path, capsys):
        rc = main([
            "predict", "--output-dir", str(tmp_path),
            "--set", f"checkpoint.path={finetune_run / 'best.ckpt'}",
            "--set", f"data.input={workdir['data'] / 'topics.csv'}",
            "--set", "data.text_column=body",
        ])
        assert rc == 2
        assert (f"error: {workdir['data'] / 'topics.csv'}: column 'body' not found; "
                f"file has ['text', 'label']") in capsys.readouterr().err

    def test_row_without_text_field_named(self, finetune_run, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("id,text\n1\n")
        out = tmp_path / "pred"
        rc = main([
            "predict", "--output-dir", str(out),
            "--set", f"checkpoint.path={finetune_run / 'best.ckpt'}",
            "--set", f"data.input={short}",
        ])
        assert rc == 2
        assert f"error: {short}: line 2: no 'text' field" in capsys.readouterr().err
        assert not out.exists()

    def test_row_without_text_field_names_its_physical_line(self, finetune_run, tmp_path,
                                                             capsys):
        short = tmp_path / "short.csv"
        short.write_text('id,text\n\n1,"a\nb"\n2\n')
        rc = main([
            "predict", "--output-dir", str(tmp_path / "pred"),
            "--set", f"checkpoint.path={finetune_run / 'best.ckpt'}",
            "--set", f"data.input={short}",
        ])
        assert rc == 2
        assert f"error: {short}: line 5: no 'text' field" in capsys.readouterr().err


def baseline_sets(workdir, algorithm):
    """--set items of a small valid ``baseline`` run of ``algorithm``."""
    data = workdir["data"]
    return {
        "naive_bayes": [f"data.train={data / 'topics.csv'}", "data.test_size=30"],
        "maxent": ["baseline.algorithm=maxent", "baseline.epochs=50",
                   f"data.train={data / 'topics.csv'}", "data.test_size=30"],
        "ridge": ["baseline.algorithm=ridge",
                  f"baseline.checkpoint={workdir['pretrain'] / 'best.ckpt'}",
                  "baseline.max_length=16", "data.label_column=anxiety",
                  f"data.train={data / 'anxiety.csv'}", "data.test_size=20"],
    }[algorithm]


# a valid value of every baseline setting
BASELINE_VALUES = {"alpha": 0.5, "l2": 0.5, "learning_rate": 0.1, "epochs": 5, "min_df": 2,
                   "checkpoint": "best.ckpt", "batch_size": 8, "max_length": 16}
UNREAD_BASELINE_SETTINGS = [
    (algorithm, key, value) for algorithm, reads in cli.BASELINE_SETTINGS.items()
    for key, value in BASELINE_VALUES.items() if key not in reads
] + [("naive_bayes", "l2", -1)]


class TestBaselineCommand:
    def test_naive_bayes_on_split_files(self, workdir, tmp_path):
        out = tmp_path / "nb"
        rc = main([
            "baseline", "--output-dir", str(out),
            "--set", f"data.train={workdir['data'] / 'order_train.csv'}",
            "--set", f"data.test={workdir['data'] / 'order_test.csv'}",
        ])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["algorithm"] == "naive_bayes"
        assert metrics["num_examples"] == 40
        assert (out / "baseline_model.json").exists()

    def test_maxent_carves_test_split(self, workdir, tmp_path):
        out = tmp_path / "maxent"
        rc = main([
            "baseline", "--output-dir", str(out),
            "--set", "baseline.algorithm=maxent",
            "--set", "baseline.epochs=50",
            "--set", f"data.train={workdir['data'] / 'topics.csv'}",
            "--set", "data.test_size=30",
        ])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["num_examples"] == 30
        assert metrics["metrics"]["accuracy"] > 0.8  # disjoint keyword pools

    def test_ridge_needs_checkpoint(self, workdir, tmp_path, capsys):
        rc = main([
            "baseline", "--output-dir", str(tmp_path / "r"),
            "--set", "baseline.algorithm=ridge",
            "--set", f"data.train={workdir['data'] / 'anxiety.csv'}",
            "--set", "data.label_column=anxiety",
            "--set", "data.test_size=20",
        ])
        assert rc == 2
        assert "baseline.checkpoint" in capsys.readouterr().err

    def test_ridge_metrics(self, workdir, tmp_path):
        out = tmp_path / "ridge"
        rc = main([
            "baseline", "--output-dir", str(out),
            "--set", "baseline.algorithm=ridge",
            "--set", f"baseline.checkpoint={workdir['pretrain'] / 'best.ckpt'}",
            "--set", "baseline.max_length=16",
            "--set", f"data.train={workdir['data'] / 'anxiety.csv'}",
            "--set", "data.label_column=anxiety",
            "--set", "data.test_size=20",
        ])
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["task"] == "regression"
        assert set(metrics["metrics"]) == {"mse", "rmse", "pearson_r"}

    @pytest.mark.parametrize("algorithm, key, value", UNREAD_BASELINE_SETTINGS,
                             ids=[f"{a}-{k}={v}" for a, k, v in UNREAD_BASELINE_SETTINGS])
    def test_unread_setting_refused(self, algorithm, key, value, workdir, tmp_path, capsys):
        """A setting the chosen algorithm does not read would be recorded as
        if it mattered: refused, whatever its value, before any input is read."""
        out = tmp_path / "out"
        argv = ["baseline", "--output-dir", str(out), "--set", f"baseline.{key}={value}"]
        for item in baseline_sets(workdir, algorithm):
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"'baseline.{key}'" in err and repr(algorithm) in err, err
        assert not out.exists()

    def test_settings_are_those_the_classifiers_take(self):
        assert set(cli.BASELINE_SETTINGS) == {*BASELINE_KINDS, "ridge"}
        for kind, classifier in BASELINE_KINDS.items():
            assert set(cli.BASELINE_SETTINGS[kind]) == {"min_df", *classifier.SETTINGS}

    @pytest.mark.parametrize("algorithm", sorted(cli.BASELINE_SETTINGS))
    def test_records_and_reruns_the_settings_it_read(self, algorithm, workdir, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        argv = ["baseline", "--output-dir", str(first)]
        for item in baseline_sets(workdir, algorithm):
            argv += ["--set", item]
        assert main(argv) == 0
        resolved = json.loads((first / "resolved_config.json").read_text())
        assert set(resolved["baseline"]) == {"algorithm", *cli.BASELINE_SETTINGS[algorithm]}
        assert main(["baseline", "--config", str(first / "resolved_config.json"),
                     "--output-dir", str(again)]) == 0
        model = "baseline_model.json"
        assert (first / model).read_bytes() == (again / model).read_bytes()

    @pytest.mark.parametrize("algorithm", ["naive_bayes", "ridge"])
    def test_empty_training_set_named(self, algorithm, workdir, tmp_path, capsys):
        """A test split that takes every row leaves nothing to fit."""
        sets = {
            "naive_bayes": [f"data.train={workdir['data'] / 'topics.csv'}",
                            "data.test_size=150"],
            "ridge": ["baseline.algorithm=ridge",
                      f"baseline.checkpoint={workdir['pretrain'] / 'best.ckpt'}",
                      "data.label_column=anxiety",
                      f"data.train={workdir['data'] / 'anxiety.csv'}", "data.test_size=120"],
        }[algorithm]
        argv = ["baseline", "--output-dir", str(tmp_path / "out")]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        assert "error: the training set has no examples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_train_names_the_file(self, workdir, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_bytes(b"text,label\nred sky,colors\ncaf\xe9 cat,animals\n")
        rc = main([
            "baseline", "--output-dir", str(tmp_path / "out"),
            "--set", f"data.train={train}",
            "--set", f"data.test={workdir['data'] / 'order_test.csv'}",
        ])
        assert rc == 2
        assert f"error: {train}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_algorithm(self, workdir, tmp_path, capsys):
        rc = main([
            "baseline", "--output-dir", str(tmp_path),
            "--set", "baseline.algorithm=svm",
            "--set", f"data.train={workdir['data'] / 'order_train.csv'}",
            "--set", f"data.test={workdir['data'] / 'order_test.csv'}",
        ])
        assert rc == 2
        assert "svm" in capsys.readouterr().err


class TestReportCommand:
    def baseline_dir(self, workdir, tmp_path, name="nb_run"):
        out = tmp_path / name
        rc = main([
            "baseline", "--output-dir", str(out),
            "--set", f"data.train={workdir['data'] / 'order_train.csv'}",
            "--set", f"data.test={workdir['data'] / 'order_test.csv'}",
        ])
        assert rc == 0
        return out

    def test_table_with_best_marker(self, workdir, finetune_run, tmp_path, capsys):
        nb = self.baseline_dir(workdir, tmp_path)
        report_path = tmp_path / "report.json"
        rc = main(["report", str(finetune_run), str(nb), "--output", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run" in out and "best" in out
        assert "finetune" in out and "nb_run" in out

        report = json.loads(report_path.read_text())
        assert report["task"] == "classification"
        assert set(report["columns"]) == {"accuracy", "precision", "recall", "f1"}
        assert set(report["best"]) == {"accuracy", "precision", "recall", "f1"}
        assert len(report["runs"]) == 2

    def test_single_run_table(self, workdir, finetune_run, capsys):
        rc = main(["report", str(finetune_run)])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2  # header + one row

    def test_mixed_tasks_rejected(self, workdir, finetune_run, tmp_path, capsys):
        rc = main(["report", str(finetune_run), str(workdir["pretrain"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert "classification" in err and "pretrain" in err

    def test_inconsistent_metrics_listed(self, workdir, finetune_run, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "metrics.json").write_text(json.dumps(
            {"task": "classification", "metrics": {"accuracy": 0.5, "extra_metric": 1.0}}))
        rc = main(["report", str(finetune_run), str(broken)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "inconsistent metric sets" in err
        assert "extra_metric" in err


    @pytest.mark.parametrize("cut", [None, 0.5], ids=["list", "truncated"])
    def test_bad_metrics_file_named(self, finetune_run, tmp_path, capsys, cut):
        broken = tmp_path / "broken"
        broken.mkdir()
        body = (finetune_run / "metrics.json").read_bytes()
        path = broken / "metrics.json"
        path.write_bytes(b"[]\n" if cut is None else body[: int(len(body) * cut)])
        assert main(["report", str(finetune_run), str(broken)]) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    def test_lowest_dev_loss_is_best(self, workdir, tmp_path, capsys):
        worse = tmp_path / "worse"
        worse.mkdir()
        body = json.loads((workdir["pretrain"] / "metrics.json").read_text())
        for name in ("initial_dev_loss", "best_dev_loss", "final_dev_loss"):
            body["metrics"][name] += 1.0
        (worse / "metrics.json").write_text(json.dumps(body))
        report_path = tmp_path / "report.json"
        assert main(["report", str(worse), str(workdir["pretrain"]),
                     "--output", str(report_path)]) == 0
        best = json.loads(report_path.read_text())["best"]
        assert {best[name] for name in ("initial_dev_loss", "best_dev_loss",
                                        "final_dev_loss")} == {"pretrain"}


def first_run(command, workdir, finetune_run, out):
    """A run directory of ``command``: the module's own for pretrain and
    finetune, else a fresh small run into ``out``."""
    if command == "pretrain":
        return workdir["pretrain"]
    if command == "finetune":
        return finetune_run
    data, ckpt = workdir["data"], finetune_run / "best.ckpt"
    settings = {
        "train-tokenizer": [f"data.corpus={data / 'corpus.txt'}", "tokenizer.vocab_size=64"],
        "evaluate": [f"checkpoint.path={ckpt}", f"data.test={data / 'topics.csv'}",
                     "eval.max_length=16"],
        "predict": [f"checkpoint.path={ckpt}", f"data.input={data / 'topics.csv'}",
                    "predict.max_length=16"],
        "baseline": ["baseline.algorithm=maxent", "baseline.epochs=50",
                     f"data.train={data / 'topics.csv'}", "data.test_size=30"],
    }[command]
    argv = [command, "--output-dir", str(out)]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 0
    return out


class TestResolvedConfig:
    @pytest.mark.parametrize("command", ["train-tokenizer", "pretrain", "finetune",
                                         "evaluate", "predict", "baseline"])
    def test_reruns_to_the_same_files(self, command, workdir, finetune_run, tmp_path):
        run = first_run(command, workdir, finetune_run, tmp_path / "first")
        again = tmp_path / "again"
        rc = main([command, "--config", str(run / "resolved_config.json"),
                   "--output-dir", str(again)])
        assert rc == 0
        names = sorted(str(p.relative_to(run)) for p in run.rglob("*"))
        assert names == sorted(str(p.relative_to(again)) for p in again.rglob("*"))
        for name in names:
            if (run / name).is_file() and name != "resolved_config.json":
                assert (run / name).read_bytes() == (again / name).read_bytes(), name
        first = json.loads((run / "resolved_config.json").read_text())
        second = json.loads((again / "resolved_config.json").read_text())
        assert (first.pop("output_dir"), second.pop("output_dir")) == (str(run), str(again))
        assert first == second

    def test_other_commands_config_refused(self, finetune_run, tmp_path, capsys):
        rc = main(["evaluate", "--config", str(finetune_run / "resolved_config.json"),
                   "--output-dir", str(tmp_path / "eval")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'finetune'" in err and "'evaluate'" in err

    def test_wrong_vocab_size_refused(self, workdir, tmp_path, capsys):
        resolved = json.loads((workdir["pretrain"] / "resolved_config.json").read_text())
        resolved["model"]["vocab_size"] = 97
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(resolved))
        rc = main(["pretrain", "--config", str(config_path), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'model.vocab_size'" in err and "97" in err and "96" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train-tokenizer", "pretrain", "finetune",
                                         "evaluate", "predict", "baseline"])
    def test_empty_output_dir_flag_refused(self, command, workdir, finetune_run, tmp_path,
                                           capsys):
        """An empty --output-dir is refused, not read as "absent": the run
        its config names is not rewritten in place."""
        run = first_run(command, workdir, finetune_run, tmp_path / "run")

        def files():
            return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in run.rglob("*")
                    if p.is_file()}

        before = files()
        rc = main([command, "--config", str(run / "resolved_config.json"), "--output-dir", ""])
        assert rc == 2
        assert "error: --output-dir must not be empty" in capsys.readouterr().err
        assert files() == before


class TestEntryPoints:
    @pytest.mark.parametrize("command, offered", [("finetune", True), ("evaluate", False),
                                                  ("predict", False), ("train-tokenizer", False)])
    def test_seed_flag_only_where_a_seed_is_accepted(self, command, offered, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert ("--seed" in capsys.readouterr().out) is offered

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "nanobert", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0

    def test_datagen_module(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "nanobert.datagen",
             "--output-dir", str(tmp_path), "--corpus-chars", "1500"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "corpus.txt").exists()


class TestBlasThreads:
    def _run_dirs(self, cwd, threads, hash_seed=None) -> dict:
        """Bytes of every file a CLI pretrain and finetune write under
        ``OPENBLAS_NUM_THREADS=threads`` (None: unset) and, when given,
        ``PYTHONHASHSEED=hash_seed``."""
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))  # runs outside the repo
        if hash_seed is not None:
            env["PYTHONHASHSEED"] = hash_seed
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        commands = [
            ["pretrain", "--output-dir", "pre", "--set", "data.corpus=corpus.txt",
             "--set", "tokenizer.vocab_size=128", "--set", "model.num_layers=2",
             "--set", "model.hidden_size=32", "--set", "model.num_heads=2",
             "--set", "model.ffn_size=64", "--set", "training.num_train_epochs=2",
             "--set", "training.per_device_train_batch_size=16",
             "--set", "training.learning_rate=1e-3", "--set", "training.max_length=24"],
            ["finetune", "--output-dir", "ft", "--set", "checkpoint.path=pre/best.ckpt",
             "--set", "data.train=topics.csv", "--set", "data.test_size=20",
             "--set", "data.dev_size=20", "--set", "training.num_train_epochs=2",
             "--set", "training.per_device_train_batch_size=16",
             "--set", "training.learning_rate=1e-3", "--set", "training.max_length=24"],
        ]
        for args in commands:
            proc = subprocess.run([sys.executable, "-m", "nanobert", *args], cwd=cwd, env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for run in ("pre", "ft") for p in (cwd / run).rglob("*") if p.is_file()}
        for run in ("pre", "ft"):
            shutil.rmtree(cwd / run)
        return files

    def test_runs_are_byte_identical_at_any_blas_thread_setting(self, tmp_path):
        (tmp_path / "corpus.txt").write_text(datagen.pretrain_corpus(seed=3, target_chars=12000))
        texts, labels = datagen.topic_dataset(n_rows=120, seed=3)
        datagen.write_csv(str(tmp_path / "topics.csv"), texts, labels)
        runs = [self._run_dirs(tmp_path, threads) for threads in (None, "1", "2")]
        # string hashing, and so set and dict order, must not reach a byte
        runs += [self._run_dirs(tmp_path, "1", hash_seed) for hash_seed in ("0", "1")]
        assert "pre/best.ckpt" in runs[0] and "ft/best.ckpt" in runs[0]
        assert all(run == runs[0] for run in runs[1:])


def config_leaves(table, prefix=""):
    """(dotted key, (annotation, default)) of every value key under ``table``."""
    for key, leaf in table.items():
        if isinstance(leaf, dict):
            yield from config_leaves(leaf, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", leaf


LEAVES = [(command, key, annotation) for command, table in cli.COMMANDS.items()
          for key, (annotation, _) in config_leaves(table)]
STR_LEAVES = [(command, key) for command, key, annotation in LEAVES
              if "str" in annotation.split(" | ")]
# a probe value -> the annotation kinds that admit it
PROBES = {"true": {"bool"}, "0": {"int", "float"}, "1.5": {"float"}, '"x"': {"str"},
          "[]": set(), "{}": set()}


def nested(key: str, value) -> dict:
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


class TestConfigTypes:
    @pytest.mark.parametrize("command, key, annotation", LEAVES,
                             ids=[f"{command}-{key}" for command, key, _ in LEAVES])
    def test_every_leaf_refuses_what_its_annotation_does_not_admit(self, command, key,
                                                                   annotation, tmp_path,
                                                                   capsys):
        """Through --set and through a config file alike: exit 2, an error
        naming the dotted key, and no run directory."""
        kinds = set(annotation.split(" | "))
        refused = [value for value, admits in PROBES.items() if not admits & kinds]
        assert refused
        config_path = tmp_path / "config.json"
        out = tmp_path / "out"
        for value in refused:
            config_path.write_text(json.dumps(nested(key, json.loads(value))))
            for source in (["--set", f"{key}={value}"], ["--config", str(config_path)]):
                assert main([command, "--output-dir", str(out), *source]) == 2, (source, value)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert (f"{key} must be " in err
                        or f"config key {key!r} must be a value, not a section" in err), err
                assert not out.exists()

    @pytest.mark.parametrize("command, item, sets", [
        ("train-tokenizer", "data.corpus=0", ["tokenizer.vocab_size=64"]),
        ("train-tokenizer", "output_dir=5", ["data.corpus=corpus.txt"]),
        ("train-tokenizer", "tokenizer.vocab_size=96.5", ["data.corpus=corpus.txt"]),
        ("baseline", "baseline.epochs=2.5", ["baseline.algorithm=maxent",
                                             "data.train=topics.csv", "data.test_size=30"]),
        # keys whose value another input fixes, each set to the one value it could take
        ("pretrain", "training.seed=11", ["data.corpus=corpus.txt", "tokenizer.vocab_size=64"]),
        *(("finetune", item, ["checkpoint.path=pre.ckpt", "data.train=topics.csv",
                              "data.dev_size=30"])
          for item in ("training.seed=11", "head.num_labels=15", "head.task=classification",
                       "training.greater_is_better=true")),
        ("baseline", "data.label_kind=class", ["data.train=topics.csv", "data.test_size=30"]),
        ("baseline", "data.label_kind=real", ["baseline.algorithm=ridge",
                                              "baseline.checkpoint=pre.ckpt",
                                              "data.train=anxiety.csv",
                                              "data.label_column=anxiety", "data.test_size=20"]),
        ("evaluate", "data.label_kind=real", ["checkpoint.path=pre.ckpt", "data.test=anxiety.csv",
                                              "data.label_column=anxiety"]),
        # values BERT's recipe fixes, now constants, each set to the value it had
        *(("pretrain", item, ["data.corpus=corpus.txt", "tokenizer.vocab_size=64"])
          for item in ("training.max_grad_norm=1.0", "training.mask_token_ratio=0.8",
                       "training.random_token_ratio=0.1", "pretrain.min_delta=0.001")),
        ("finetune", "training.max_grad_norm=1.0", ["checkpoint.path=pre.ckpt",
                                                    "data.train=topics.csv", "data.dev_size=30"]),
    ])
    def test_refused_before_any_input_is_read(self, command, item, sets, workdir, tmp_path,
                                              monkeypatch, capsys):
        """A file descriptor as the corpus (0 is stdin), a number as the
        output directory, a fractional vocab size and a fractional epoch
        count, with every other input valid: refused with nothing written.
        So is a key the command does not list: the run seed, the head's
        task and width, the selection direction and the label kind of a
        baseline or an evaluation follow from other inputs, and the mask
        split, the clip norm and the early-stopping tolerance are constants:
        all are unknown keys."""
        inputs = {name: workdir["data"] / name for name in ("corpus.txt", "topics.csv",
                                                            "anxiety.csv")}
        for suffix in ("", ".tokenizer.json"):
            inputs[f"pre.ckpt{suffix}"] = workdir["pretrain"] / f"best.ckpt{suffix}"
        for name, path in inputs.items():
            shutil.copy(path, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        argv = [command, "--set", item]
        for setting in sets:
            argv += ["--set", setting]
        if not item.startswith("output_dir="):
            argv += ["--output-dir", "out"]
        assert main(argv) == 2
        key = item.partition("=")[0]
        err = capsys.readouterr().err
        if key in dict(config_leaves(cli.COMMANDS[command])):
            assert err.startswith(f"error: {key} must be "), err
        else:  # named as far as the command lists it: a section it lacks is named whole
            section = key.partition(".")[0]
            named = key if section in cli.COMMANDS[command] else section
            assert err == f"error: unknown config key {named!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)

    @pytest.mark.parametrize("command, key", STR_LEAVES,
                             ids=[f"{command}-{key}" for command, key in STR_LEAVES])
    def test_empty_string_refused(self, command, key, tmp_path, capsys):
        """Only None means "absent": an empty path, column or name is
        refused, through --set and through a config file alike."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(nested(key, "")))
        out = tmp_path / "out"
        for source in (["--set", f"{key}="], ["--config", str(config_path)]):
            assert main([command, "--output-dir", str(out), *source]) == 2, source
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert f"config key {key!r} must not be empty" in err, err
            assert not out.exists()

    def test_annotations_name_known_kinds(self):
        """A misspelt kind would surface only when its key is set; every
        default is admitted by its own annotation, and a baseline setting
        has one annotation whichever algorithm reads it."""
        baseline_tables = [{"baseline": settings} for settings in cli.BASELINE_SETTINGS.values()]
        for table in [*cli.COMMANDS.values(), *baseline_tables]:
            for key, (annotation, default) in config_leaves(table):
                assert set(annotation.split(" | ")) <= set(_FIELD_KINDS), (key, annotation)
                if default not in (cli._ANY, cli._REQUIRED):
                    check_type(key, default, annotation)
        listed = cli.COMMANDS["baseline"]["baseline"]
        for settings in cli.BASELINE_SETTINGS.values():
            for key, (annotation, _) in settings.items():
                assert listed[key][0] == annotation, key


TRAINING_FIELDS = {f.name for f in dataclasses.fields(TrainingConfig)}


class ReadSpy(TrainingConfig):
    """A TrainingConfig that adds each field read from it to ``reads``,
    except the reads of ``__post_init__`` and ``to_dict``."""

    reads = set()
    quiet = False

    def __getattribute__(self, name):
        if name in TRAINING_FIELDS and not ReadSpy.quiet:
            ReadSpy.reads.add(name)
        return super().__getattribute__(name)

    def _unread(self, method):
        ReadSpy.quiet = True
        try:
            return method()
        finally:
            ReadSpy.quiet = False

    def __post_init__(self):
        self._unread(super().__post_init__)

    def to_dict(self):
        return self._unread(super().to_dict)


class TestTrainingTables:
    # the fields a trainer reads whose value another input fixes: the run seed
    @pytest.mark.parametrize("command, fixed", [("pretrain", {"seed"}), ("finetune", {"seed"})],
                             ids=["pretrain", "finetune"])
    def test_table_lists_exactly_the_fields_its_trainer_reads(self, command, fixed, workdir,
                                                              tmp_path, monkeypatch):
        """Spied on through a run of the command: run_pretraining, or
        finetune's train and the evaluate after it, with the command's own
        reads of the config. The table lists all of them but ``fixed``."""
        monkeypatch.setattr(cli, "TrainingConfig", ReadSpy)
        monkeypatch.setattr(ReadSpy, "reads", set())
        out = tmp_path / "out"
        if command == "pretrain":
            argv = pretrain_argv(workdir["data"], out)
        else:
            config_path = tmp_path / "finetune.json"
            config_path.write_text(json.dumps(finetune_config(workdir)))
            argv = ["finetune", "--config", str(config_path), "--output-dir", str(out)]
        assert main(argv) == 0
        read = {cli._LISTING_NAMES.get(name, name) for name in ReadSpy.reads}
        assert read == set(cli.COMMANDS[command]["training"]) | fixed
        assert not fixed & set(cli.COMMANDS[command]["training"])

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_readme_lists_the_training_keys(self, command):
        """The README's list of a trainer's training keys is the table's, in
        its order, so a key added or removed cannot leave it stale."""
        with open(README, encoding="utf-8") as f:
            text = f.read()
        start = text.index(f"- `{command}`'s `training` keys are ")
        item = text[start:text.index("\n- ", start)]
        assert re.findall(r"`([^`]+)`", item)[2:] == list(cli.COMMANDS[command]["training"])


def missing_key_args(workdir):
    """Per config command: the required key left out, and the --set flags
    that complete the rest of its config."""
    data = workdir["data"]
    return {
        "train-tokenizer": ("data.corpus", ["tokenizer.vocab_size=64"]),
        "pretrain": ("data.corpus", ["tokenizer.vocab_size=64"]),
        "finetune": ("checkpoint.path", [f"data.train={data / 'topics.csv'}",
                                         "data.dev_size=0.2"]),
        "evaluate": ("checkpoint.path", [f"data.test={data / 'topics.csv'}"]),
        "predict": ("checkpoint.path", [f"data.input={data / 'topics.csv'}"]),
        "baseline": ("data.train", [f"data.test={data / 'topics.csv'}"]),
    }


class TestRunDirectory:
    @pytest.mark.parametrize("command, data_key", [("evaluate", "data.test"),
                                                   ("predict", "data.input")])
    def test_checkpoint_without_a_head_named(self, command, data_key, workdir, tmp_path,
                                             capsys):
        """A pretrained encoder has nothing to score with: refused by its
        path, with what to do about it."""
        ckpt = workdir["pretrain"] / "best.ckpt"
        out = tmp_path / "out"
        rc = main([command, "--output-dir", str(out), "--set", f"checkpoint.path={ckpt}",
                   "--set", f"{data_key}={workdir['data'] / 'topics.csv'}"])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {ckpt}: the checkpoint has no task head; "
                                           f"finetune it first\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-tokenizer", "pretrain", "finetune", "evaluate",
                                         "predict", "baseline"])
    def test_missing_required_key_leaves_no_directory(self, command, workdir, tmp_path, capsys):
        key, sets = missing_key_args(workdir)[command]
        out = tmp_path / "out"
        argv = [command, "--output-dir", str(out)]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"missing required config key {key!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("item, message", [
        ("training.num_train_epochs=1.5", "training.num_train_epochs must be int, got 1.5"),
        ("model.num_layers=true", "model.num_layers must be int, got True"),
        ("seed=1.5", "seed must be int, got 1.5"),
        ("pretrain.patience=0", "patience must be >= 1, got 0"),
        ("pretrain.patience=-3", "patience must be >= 1, got -3"),
        ("pretrain.dev_fraction=-1.0", "dev_fraction must be in (0, 1), got -1.0"),
        ("pretrain.dev_fraction=0.0", "dev_fraction must be in (0, 1), got 0.0"),
        ("pretrain.patience=true", "pretrain.patience must be int, got True"),
        ("pretrain.patience=1.5", "pretrain.patience must be int, got 1.5"),
        ("pretrain.dev_fraction=\"0.1\"", "pretrain.dev_fraction must be float, got '0.1'"),
        ("training.learning_rate=1e30", "training diverged at epoch 1, step "),
        ("model.max_positions=8", "training.max_length 32 exceeds model.max_positions 8"),
    ])
    def test_refused_pretrain_setting_leaves_no_directory(self, item, message, workdir,
                                                          tmp_path, capsys):
        out = tmp_path / "out"
        assert main(pretrain_argv(workdir["data"], out, item)) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("item, message", [
        ("training.per_device_train_batch_size=16.0",
         "training.per_device_train_batch_size must be int, got 16.0"),
        ("data.stratify=1", "data.stratify must be bool or None, got 1"),
        ("seed=1.5", "seed must be int, got 1.5"),
    ])
    def test_refused_finetune_setting_leaves_no_directory(self, item, message, workdir,
                                                          tmp_path, capsys):
        config_path = tmp_path / "finetune.json"
        config_path.write_text(json.dumps(finetune_config(workdir)))
        out = tmp_path / "out"
        assert main(["finetune", "--config", str(config_path), "--output-dir", str(out),
                     "--set", item]) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, item, message", [
        ("finetune", "data.label_kind=\"ordinal\"",
         "data.label_kind must be one of ('class', 'real'), got 'ordinal'"),
        ("finetune", "training.learning_rate=-1", "learning_rate must be positive, got -1"),
        ("finetune", "training.max_length=1", "max_length must be >= 2, got 1"),
        ("pretrain", "training.learning_rate=-1", "learning_rate must be positive, got -1"),
        ("pretrain", "training.max_length=1", "max_length must be >= 2, got 1"),
    ])
    def test_bad_setting_refused_before_any_input_is_read(self, command, item, message,
                                                          tmp_path, capsys):
        """Every input named is missing, so reading any of them would fail
        with the missing file instead of the setting."""
        inputs = {"finetune": ["checkpoint.path=missing.ckpt", "data.train=missing.csv",
                               "data.dev_size=10"],
                  "pretrain": ["data.corpus=missing.txt"]}[command]
        out = tmp_path / "out"
        argv = [command, "--output-dir", str(out), "--set", item]
        for setting in inputs:
            argv += ["--set", setting]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, items, message", [
        ("pretrain", ["model.num_heads=3", "model.hidden_size=16"],
         "hidden_size 16 not divisible by num_heads 3"),
        ("pretrain", ["model.max_positions=8"], "training.max_length 128 exceeds "
                                                "model.max_positions 8"),
        ("pretrain", ["pretrain.patience=0"], "patience must be >= 1, got 0"),
        ("pretrain", ["pretrain.dev_fraction=1.0"], "dev_fraction must be in (0, 1), got 1.0"),
        ("pretrain", ["tokenizer.path=missing.json", "pretrain.patience=0"],
         "patience must be >= 1, got 0"),
        ("finetune", ["data.dev_size=10"], "missing required config key 'data.train'"),
        ("evaluate", [], "missing required config key 'data.test'"),
        ("predict", [], "missing required config key 'data.input'"),
    ], ids=["num_heads", "max_positions", "patience", "dev_fraction", "tokenizer_path",
            "data.train", "data.test", "data.input"])
    def test_missing_or_out_of_range_setting_refused_before_any_input_is_read(
            self, command, items, message, tmp_path, capsys):
        """The corpus or checkpoint named is missing, so reading it before
        checking every setting would report the missing file instead."""
        missing = ("data.corpus=missing.txt" if command == "pretrain"
                   else "checkpoint.path=missing.ckpt")
        out = tmp_path / "out"
        argv = [command, "--output-dir", str(out)]
        for item in [missing, *items]:
            argv += ["--set", item]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["finetune", "baseline"])
    def test_class_name_equal_to_a_report_key_refused(self, command, workdir, tmp_path,
                                                      capsys):
        """Refused before a finetune trains, and before a baseline writes."""
        texts, _ = datagen.topic_dataset(n_rows=24, seed=5)
        train = tmp_path / "train.csv"
        datagen.write_csv(str(train), texts, ["weighted avg", "accuracy"] * 12)
        out = tmp_path / "out"
        sets = {"finetune": [f"checkpoint.path={workdir['pretrain'] / 'best.ckpt'}",
                             "data.dev_size=6"],
                "baseline": ["data.test_size=6"]}[command]
        argv = [command, "--output-dir", str(out), "--set", f"data.train={train}"]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: class name 'weighted avg' is a key of the classification report" in err
        assert not out.exists()

    def test_cli_imports_no_private_name(self):
        """The CLI is glue over the public API of the other modules."""
        tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
        private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").startswith("nanobert"))
                   for alias in node.names
                   if alias.name.startswith("_") and not alias.name.endswith("__")]
        assert private == []
