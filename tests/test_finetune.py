"""Head attachment, epoch selection, finetuning, prediction, grid search."""

import json
import math

import numpy as np
import pytest

from helpers import tiny_config
from nanobert import cli
from nanobert.checkpoint import Checkpoint, load_checkpoint
from nanobert.data import LabeledDataset
from nanobert.finetune import (
    FinetuneResult,
    GridSearchResult,
    HeadConfig,
    attach_head,
    evaluate,
    grid_search,
    head_task,
    predict,
    select_best_epoch,
    task_metrics,
    train,
)
from nanobert.model import init_params
from nanobert.optim import TrainingConfig
from nanobert.rng import Rng
from nanobert.tokenizer import train_bpe


class TestHeadConfig:
    def test_regression_needs_single_output(self):
        with pytest.raises(ValueError, match="single output"):
            HeadConfig(num_labels=3, task="regression")

    def test_classification_needs_two_labels(self):
        with pytest.raises(ValueError, match=">= 2"):
            HeadConfig(num_labels=1, task="classification")

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="task"):
            HeadConfig(num_labels=2, task="ranking")


def base_model(texts, vocab_size=40, **cfg_overrides):
    tok = train_bpe(texts, vocab_size=vocab_size)
    overrides = dict(vocab_size=tok.vocab_size, max_positions=8)
    overrides.update(cfg_overrides)
    cfg = tiny_config(**overrides)
    return Checkpoint(cfg, init_params(cfg, Rng(1)), tokenizer=tok)


def classification_task(n=48):
    # class decided by which word pool a text draws from; easily separable
    pools = [["cat", "dog", "mat"], ["red", "blue", "sky"]]
    rng = Rng(40)
    texts, labels = [], []
    for i in range(n):
        c = i % 2
        texts.append(" ".join(pools[c][int(rng.integers(3))] for _ in range(4)))
        labels.append(c)
    ds = LabeledDataset(texts, labels, "class", ["animals", "colors"])
    cut = int(n * 0.75)
    return ds.subset(range(cut)), ds.subset(range(cut, n))


def regression_task(n=48):
    # label is a fixed affine function of how many "worry" words appear
    rng = Rng(41)
    texts, labels = [], []
    for _ in range(n):
        k = int(rng.integers(7))
        words = ["worry"] * k + ["calm"] * (6 - k)
        texts.append(" ".join(rng.shuffled(words)))
        labels.append(1.0 + 8.0 * k / 6.0)
    ds = LabeledDataset(texts, labels, "real")
    cut = int(n * 0.75)
    return ds.subset(range(cut)), ds.subset(range(cut, n))


class TestAttachHead:
    def test_adds_exactly_head_params(self):
        train_set, _ = classification_task()
        base = base_model(train_set.texts)
        headed = attach_head(base, HeadConfig(2), Rng(2), label_names=["animals", "colors"])
        added = set(headed.params) - set(base.params)
        assert added == {"head.w", "head.b"}
        n = base.model_config.hidden_size
        assert headed.params["head.w"].shape == (n, 2)
        assert headed.params["head.b"].shape == (2,)
        assert np.all(headed.params["head.b"] == 0.0)
        assert headed.label_names == ["animals", "colors"]

    def test_base_model_unchanged(self):
        train_set, _ = classification_task()
        base = base_model(train_set.texts)
        before = {k: v.copy() for k, v in base.params.items()}
        attach_head(base, HeadConfig(3), Rng(2))
        assert set(base.params) == set(before)
        assert all(np.array_equal(base.params[k], before[k]) for k in before)

    def test_label_name_count_must_match(self):
        train_set, _ = classification_task()
        base = base_model(train_set.texts)
        with pytest.raises(ValueError, match="label names"):
            attach_head(base, HeadConfig(2), Rng(2), label_names=["just_one"])

    def test_head_task_inference(self):
        train_set, _ = classification_task()
        base = base_model(train_set.texts)
        with pytest.raises(ValueError, match="no task head"):
            head_task(base.params)
        clf = attach_head(base, HeadConfig(2), Rng(2))
        reg = attach_head(base, HeadConfig(1, task="regression"), Rng(2))
        assert head_task(clf.params) == "classification"
        assert head_task(reg.params) == "regression"


class TestSelectBestEpoch:
    def test_argmax_earliest_tie(self):
        assert select_best_epoch([0.1, 0.5, 0.3]) == 1
        assert select_best_epoch([0.2, 0.5, 0.5]) == 1

    def test_argmin_mode(self):
        assert select_best_epoch([3.0, 1.0, 2.0], greater_is_better=False) == 1
        assert select_best_epoch([1.0, 1.0], greater_is_better=False) == 0

    def test_nan_never_wins(self):
        assert select_best_epoch([math.nan, 0.1, math.nan]) == 1
        assert select_best_epoch([math.nan, 0.4, 0.4]) == 1
        with pytest.raises(ValueError, match="no comparable"):
            select_best_epoch([math.nan, math.nan])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no comparable"):
            select_best_epoch([])


def clf_setup(**config_overrides):
    train_set, dev_set = classification_task()
    base = base_model(train_set.texts + dev_set.texts)
    model = attach_head(base, HeadConfig(2), Rng(2), label_names=train_set.label_names)
    overrides = dict(num_train_epochs=12, train_batch_size=8, eval_batch_size=32,
                     learning_rate=5e-3, metric_for_best_model="accuracy",
                     max_length=8, seed=7)
    overrides.update(config_overrides)
    return TrainingConfig(**overrides), model, train_set, dev_set


class TestTrain:
    def test_learns_separable_task(self):
        config, model, train_set, dev_set = clf_setup()
        result = train(config, model, train_set, dev_set)
        assert result.best_value == 1.0
        assert len(result.history) == config.num_train_epochs
        assert result.best_epoch == min(
            e["epoch"] for e in result.history if e["accuracy"] == 1.0
        )

    def test_input_model_untouched(self):
        config, model, train_set, dev_set = clf_setup(num_train_epochs=2)
        before = {k: v.copy() for k, v in model.params.items()}
        train(config, model, train_set, dev_set)
        assert all(np.array_equal(model.params[k], before[k]) for k in before)

    def test_zero_epochs_returns_initial(self):
        config, model, train_set, dev_set = clf_setup(num_train_epochs=0)
        result = train(config, model, train_set, dev_set)
        assert result.history == []
        assert result.best_epoch == 0
        assert all(np.array_equal(result.checkpoint.params[k], model.params[k])
                   for k in model.params)

    def test_metric_task_mismatch_rejected_before_training(self):
        config, model, train_set, dev_set = clf_setup(
            metric_for_best_model="rmse", num_train_epochs=10_000)
        with pytest.raises(ValueError, match="does not apply"):
            train(config, model, train_set, dev_set)

    def test_class_count_mismatch_names_both(self):
        config, model, train_set, dev_set = clf_setup()
        three = LabeledDataset(train_set.texts, train_set.labels, "class",
                               ["a", "b", "c"])
        with pytest.raises(ValueError, match="2 classes.*3"):
            train(config, model, three, three)

    def test_missing_head_rejected(self):
        config, _, train_set, dev_set = clf_setup()
        headless = base_model(train_set.texts)
        with pytest.raises(ValueError, match="no task head"):
            train(config, headless, train_set, dev_set)

    def test_artifacts_and_determinism(self, tmp_path):
        config, model, train_set, dev_set = clf_setup(num_train_epochs=3)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        result = train(config, model, train_set, dev_set, output_dir=str(out_a))
        train(config, model, train_set, dev_set, output_dir=str(out_b))

        lines = (out_a / "metrics_log.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["epoch"] == 1
        selection = json.loads((out_a / "selection.json").read_text())
        assert selection["metric"] == "accuracy"
        assert selection["best_epoch"] == result.best_epoch
        assert len(selection["values"]) == 3

        loaded = load_checkpoint(str(out_a / "best.ckpt"))
        assert loaded.label_names == ["animals", "colors"]
        assert all(np.array_equal(loaded.params[k], result.checkpoint.params[k])
                   for k in result.checkpoint.params)

        assert (out_a / "best.ckpt").read_bytes() == (out_b / "best.ckpt").read_bytes()
        assert (out_a / "metrics_log.jsonl").read_text() == (out_b / "metrics_log.jsonl").read_text()

    def test_dropout_path_runs(self):
        train_set, dev_set = classification_task()
        base = base_model(train_set.texts + dev_set.texts, dropout=0.1)
        model = attach_head(base, HeadConfig(2), Rng(2))
        config = TrainingConfig(num_train_epochs=2, train_batch_size=8,
                                learning_rate=1e-3, metric_for_best_model="accuracy",
                                max_length=8, seed=7)
        result = train(config, model, train_set, dev_set)
        assert all(math.isfinite(e["train_loss"]) for e in result.history)

    def test_regression_improves_rmse(self):
        train_set, dev_set = regression_task()
        base = base_model(train_set.texts + dev_set.texts)
        model = attach_head(base, HeadConfig(1, task="regression"), Rng(3))
        config = TrainingConfig(num_train_epochs=15, train_batch_size=8,
                                learning_rate=5e-3, metric_for_best_model="rmse",
                                max_length=8, seed=9)
        result = train(config, model, train_set, dev_set)
        assert result.best_value < result.history[0]["rmse"]
        assert result.best_value == min(e["rmse"] for e in result.history)
        assert {"mse", "rmse", "pearson_r"} <= set(result.history[0])

    def test_diverging_regression_raises(self, tmp_path):
        # AdamW moves every weight by about the learning rate per step, so
        # the predictions grow until the gradient norm overflows; at 1e40
        # the forward pass overflows first, inside softmax, and with one
        # step per epoch it is the dev pass that overflows
        train_set, dev_set = regression_task()
        base = base_model(train_set.texts + dev_set.texts)
        model = attach_head(base, HeadConfig(1, task="regression"), Rng(3))
        for learning_rate, batch_size in ((1e4, 8), (1e40, 8), (1e40, len(train_set))):
            config = TrainingConfig(num_train_epochs=20, train_batch_size=batch_size,
                                    learning_rate=learning_rate, metric_for_best_model="rmse",
                                    max_length=8, seed=9)
            out = tmp_path / f"run-{learning_rate:g}-{batch_size}"
            with np.errstate(all="ignore"), \
                    pytest.raises(ValueError, match=r"diverged at epoch \d+, step \d+"):
                train(config, model, train_set, dev_set, output_dir=str(out))
            assert not out.exists()

    def test_all_nan_metric_keeps_final_epoch(self, caplog):
        # a single-text dev set makes pearson_r undefined every epoch
        train_set, _ = regression_task()
        degenerate = train_set.subset([0])
        base = base_model(train_set.texts)
        model = attach_head(base, HeadConfig(1, task="regression"), Rng(3))
        config = TrainingConfig(num_train_epochs=2, train_batch_size=8,
                                learning_rate=1e-3, metric_for_best_model="pearson_r",
                                max_length=8, seed=9)
        with caplog.at_level("WARNING"):
            result = train(config, model, train_set, degenerate)
        assert all(math.isnan(e["pearson_r"]) for e in result.history)
        assert result.best_epoch == len(result.history)
        assert "NaN on every epoch" in caplog.text


class TestPredictEvaluate:
    def trained(self):
        config, model, train_set, dev_set = clf_setup()
        return train(config, model, train_set, dev_set).checkpoint, train_set, dev_set

    def test_predict_classification(self):
        model, _, dev_set = self.trained()
        preds = predict(model, dev_set.texts, max_length=8)
        assert preds.dtype == np.int64
        assert preds.shape == (len(dev_set),)
        assert np.array_equal(preds, dev_set.label_array())

    def test_predict_batching_invariant(self):
        model, _, dev_set = self.trained()
        a = predict(model, dev_set.texts, max_length=8, batch_size=3)
        b = predict(model, dev_set.texts, max_length=8, batch_size=64)
        assert np.array_equal(a, b)

    def test_predict_regression_dtype(self):
        train_set, dev_set = regression_task()
        base = base_model(train_set.texts)
        model = attach_head(base, HeadConfig(1, task="regression"), Rng(3))
        preds = predict(model, dev_set.texts[:5], max_length=8)
        assert preds.dtype == np.float64
        assert preds.shape == (5,)

    def test_evaluate_classification_schema(self):
        model, _, dev_set = self.trained()
        out = evaluate(model, dev_set, max_length=8)
        assert out["task"] == "classification"
        assert out["num_examples"] == len(dev_set)
        assert set(out["metrics"]) == {"accuracy", "precision", "recall", "f1"}
        assert out["metrics"]["accuracy"] == 1.0
        assert "animals" in out["report"]

    def test_evaluate_regression_schema(self):
        train_set, dev_set = regression_task()
        base = base_model(train_set.texts)
        model = attach_head(base, HeadConfig(1, task="regression"), Rng(3))
        out = evaluate(model, dev_set, max_length=8)
        assert out["task"] == "regression"
        assert set(out["metrics"]) == {"mse", "rmse", "pearson_r"}

    def test_evaluate_class_count_mismatch(self):
        model, train_set, _ = self.trained()
        five = LabeledDataset(train_set.texts, train_set.labels, "class",
                              [f"c{i}" for i in range(5)])
        with pytest.raises(ValueError, match="2 classes.*5"):
            evaluate(model, five, max_length=8)


class TestTaskMetrics:
    def test_classification_body(self):
        out = task_metrics("classification", np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]),
                           label_names=["no", "yes"])
        assert out["task"] == "classification"
        assert out["num_examples"] == 4
        assert out["metrics"] == {"accuracy": 0.75, "precision": pytest.approx(5 / 6),
                                  "recall": 0.75, "f1": pytest.approx(11 / 15)}
        assert out["report"]["yes"]["precision"] == pytest.approx(2 / 3)
        assert out["report"]["no"]["support"] == 2

    def test_regression_body(self):
        out = task_metrics("regression", np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 5.0]))
        assert out == {"task": "regression", "num_examples": 3,
                       "metrics": {"mse": pytest.approx(4 / 3), "rmse": pytest.approx(2 / math.sqrt(3)),
                                   "pearson_r": pytest.approx(12 / math.sqrt(156))}}

    def test_constant_predictions_give_nan_then_null(self, tmp_path):
        out = task_metrics("regression", np.array([1.0, 2.0, 4.0]), np.full(3, 2.0))
        assert out["metrics"]["mse"] == pytest.approx(5 / 3)
        assert math.isnan(out["metrics"]["pearson_r"])
        path = tmp_path / "metrics.json"
        cli._write_json(str(path), out)  # how every command writes metrics.json
        assert json.loads(path.read_text())["metrics"]["pearson_r"] is None


class TestGridSearch:
    def test_sweeps_product_and_picks_best(self):
        config, model, train_set, dev_set = clf_setup(num_train_epochs=2)

        def factory():
            return model.copy()

        result = grid_search(config, {"learning_rate": [1e-5, 5e-3]},
                             factory, train_set, dev_set)
        assert len(result.rows) == 2
        assert result.rows[1]["overrides"] == {"learning_rate": 5e-3}
        values = [r["best_value"] for r in result.rows]
        assert result.best_index == values.index(max(values))
        assert result.best_config.learning_rate == result.rows[result.best_index]["overrides"]["learning_rate"]

    def test_product_order(self):
        config, model, train_set, dev_set = clf_setup(num_train_epochs=1)
        result = grid_search(
            config,
            {"learning_rate": [1e-4, 1e-3], "train_batch_size": [4, 8]},
            model.copy, train_set, dev_set,
        )
        combos = [tuple(r["overrides"].values()) for r in result.rows]
        assert combos == [(1e-4, 4), (1e-4, 8), (1e-3, 4), (1e-3, 8)]

    def test_rejects_metric_in_grid(self):
        config, model, train_set, dev_set = clf_setup()
        with pytest.raises(ValueError, match="metric_for_best_model"):
            grid_search(config, {"metric_for_best_model": ["accuracy", "f1"]},
                        model.copy, train_set, dev_set)

    def test_rejects_empty_grid(self):
        config, model, train_set, dev_set = clf_setup()
        with pytest.raises(ValueError, match="empty"):
            grid_search(config, {}, model.copy, train_set, dev_set)
