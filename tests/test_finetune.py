"""Head attachment, epoch selection, finetuning, prediction."""

import json
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from helpers import tiny_config, traced_peak_mb
from nanobert import finetune
from nanobert.checkpoint import Checkpoint, load_checkpoint
from nanobert.data import LabeledDataset, batch_indices
from nanobert.finetune import (
    FinetuneResult,
    HeadConfig,
    attach_head,
    evaluate,
    head_loss_and_grads,
    head_task,
    predict,
    select_best_epoch,
    task_metrics,
    train,
    write_json,
)
from nanobert.model import (
    encoder_backward,
    encoder_forward,
    encoder_forward_with_cache,
    init_params,
    pool_first_token,
    views,
)
from nanobert.optim import TrainingConfig
from nanobert.rng import Rng
from nanobert.tokenizer import train_bpe


class TestHeadConfig:
    @pytest.mark.parametrize("num_labels", [0, -1])
    def test_width_no_task_has_refused(self, num_labels):
        """One column is a regressor and two or more a classifier; no other
        width is a task (``TestAttachHead.test_head_task_inference``)."""
        message = f"num_labels must be 1 (a regressor) or >= 2 (a classifier), got {num_labels}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HeadConfig(num_labels)


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
        texts.append(" ".join(words[i] for i in rng.permutation(len(words))))
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
        with pytest.raises(ValueError, match="label_names must be None or 2 distinct strings"):
            attach_head(base, HeadConfig(2), Rng(2), label_names=["just_one"])

    @pytest.mark.parametrize("head, names", [
        (HeadConfig(2), ["a", "a"]),
        (HeadConfig(2), ["a", 3]),
        (HeadConfig(3), ["a", "b"]),
        (HeadConfig(1), ["a"]),
    ])
    def test_label_names_follow_the_checkpoint_rule(self, head, names):
        """A head takes only names its checkpoint can save and load."""
        train_set, _ = classification_task()
        with pytest.raises(ValueError, match="^label_names must be None.* for this head"):
            attach_head(base_model(train_set.texts), head, Rng(2), label_names=names)

    @pytest.mark.parametrize("num_labels", [3, 15, 20])
    def test_new_head_drops_the_old_label_names(self, num_labels):
        train_set, _ = classification_task()
        names = [f"topic_{c}" for c in range(15)]
        old = attach_head(base_model(train_set.texts), HeadConfig(15), Rng(2), label_names=names)
        assert attach_head(old, HeadConfig(num_labels), Rng(3)).label_names is None
        assert old.label_names == names

    def test_head_task_inference(self):
        train_set, _ = classification_task()
        base = base_model(train_set.texts)
        with pytest.raises(ValueError, match="no task head"):
            head_task(base.params)
        clf = attach_head(base, HeadConfig(2), Rng(2))
        reg = attach_head(base, HeadConfig(1), Rng(2))
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

    def test_mlm_bias_stays_bit_identical(self):
        # finetuning gives mlm_bias no gradient: its entries in the
        # parameter vector must come through decay and warmup untouched
        config, model, train_set, dev_set = clf_setup(num_train_epochs=2, weight_decay=0.1,
                                                      warmup_steps=3)
        model.params["mlm_bias"] = Rng(5).normal(model.params["mlm_bias"].shape)
        before = {k: v.copy() for k, v in model.params.items()}
        result = train(config, model, train_set, dev_set)
        assert result.checkpoint.params["mlm_bias"].tobytes() == before["mlm_bias"].tobytes()
        assert not np.array_equal(result.checkpoint.params["head.w"], before["head.w"])
        assert all(model.params[k].tobytes() == before[k].tobytes() for k in before)

    def test_best_snapshot_is_not_the_last_epochs_parameters(self):
        # a run cut at the best epoch ends on exactly the parameters the
        # longer run must have kept for that epoch
        config, model, train_set, dev_set = clf_setup()
        result = train(config, model, train_set, dev_set)
        assert 1 <= result.best_epoch < config.num_train_epochs
        cut = train(replace(config, num_train_epochs=result.best_epoch),
                    model, train_set, dev_set)
        assert cut.best_epoch == result.best_epoch
        assert all(np.array_equal(result.checkpoint.params[k], p)
                   for k, p in cut.checkpoint.params.items())

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

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_empty_training_set_says_so(self, task):
        config, model, train_set, dev_set = clf_setup()
        if task == "regression":
            model = attach_head(model, HeadConfig(1), Rng(3))
            config = replace(config, metric_for_best_model="rmse")
            dev_set = LabeledDataset(dev_set.texts, [float(y) for y in dev_set.labels], "real")
            empty = LabeledDataset([], [], "real")
        else:
            empty = LabeledDataset([], [], "class")
        with pytest.raises(ValueError, match="the training set has no examples"):
            train(config, model, empty, dev_set)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_empty_dev_set_refused_before_the_first_step(self, task, monkeypatch):
        config, model, train_set, dev_set = clf_setup()
        if task == "regression":
            model = attach_head(model, HeadConfig(1), Rng(3))
            config = replace(config, metric_for_best_model="rmse")
            train_set = LabeledDataset(train_set.texts, [float(y) for y in train_set.labels],
                                       "real")
            empty = LabeledDataset([], [], "real")
        else:
            empty = LabeledDataset([], [], "class", train_set.label_names)

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(finetune, "_train_step", no_step)
        with pytest.raises(ValueError, match="the dev set has no examples"):
            train(config, model, train_set, empty)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_dev_label_kind_the_head_cannot_score_refused_before_the_first_step(
            self, task, monkeypatch):
        config, model, train_set, dev_set = clf_setup()
        if task == "regression":
            model = attach_head(model, HeadConfig(1), Rng(3))
            config = replace(config, metric_for_best_model="rmse")
            train_set = LabeledDataset(train_set.texts, [float(y) for y in train_set.labels],
                                       "real")
            match = "regression head requires 'real' labels, got 'class'"
        else:
            dev_set = LabeledDataset(dev_set.texts, [float(y) for y in dev_set.labels], "real")
            match = "classification head requires 'class' labels, got 'real'"

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(finetune, "_train_step", no_step)
        with pytest.raises(ValueError, match=match):
            train(config, model, train_set, dev_set)

    def test_dev_classes_in_another_order_select_the_same_epoch(self, tmp_path):
        # dev accuracy is 0.5 for four epochs and 1.0 on the fifth
        config, model, train_set, dev_set = clf_setup(num_train_epochs=5)
        flipped = LabeledDataset(dev_set.texts, [1 - y for y in dev_set.labels], "class",
                                 dev_set.label_names[::-1])
        train(config, model, train_set, dev_set, output_dir=str(tmp_path / "aligned"))
        train(config, model, train_set, flipped, output_dir=str(tmp_path / "flipped"))
        for name in ("selection.json", "metrics_log.jsonl", "best.ckpt"):
            assert ((tmp_path / "aligned" / name).read_bytes()
                    == (tmp_path / "flipped" / name).read_bytes()), name

    def test_unknown_dev_label_named(self):
        config, model, train_set, dev_set = clf_setup()
        strange = LabeledDataset(dev_set.texts, dev_set.labels, "class", ["animals", "plants"])
        with pytest.raises(ValueError, match="dataset label 'plants' unknown to the checkpoint"):
            train(config, model, train_set, strange)

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
        model = attach_head(base, HeadConfig(1), Rng(3))
        config = TrainingConfig(num_train_epochs=15, train_batch_size=8,
                                learning_rate=5e-3, metric_for_best_model="rmse",
                                max_length=8, seed=9)
        result = train(config, model, train_set, dev_set)
        assert result.best_value < result.history[0]["rmse"]
        assert result.best_value == min(e["rmse"] for e in result.history)
        assert {"mse", "rmse", "pearson_r"} <= set(result.history[0])

    @pytest.mark.parametrize("metric", ["mse", "rmse", "pearson_r", "accuracy"])
    def test_selection_direction_follows_the_metric(self, metric, tmp_path):
        """An error metric selects its minimum, any other its maximum, and
        selection.json records the direction."""
        if metric == "accuracy":
            config, model, train_set, dev_set = clf_setup()
        else:
            train_set, dev_set = regression_task()
            base = base_model(train_set.texts + dev_set.texts)
            model = attach_head(base, HeadConfig(1), Rng(3))
            config = TrainingConfig(num_train_epochs=4, train_batch_size=8, learning_rate=5e-3,
                                    metric_for_best_model=metric, max_length=8, seed=9)
        result = train(config, model, train_set, dev_set, output_dir=str(tmp_path))
        greater = metric not in ("mse", "rmse")
        values = [e[metric] for e in result.history]
        assert len(set(values)) > 1
        assert result.best_value == (max if greater else min)(values)
        selection = json.loads((tmp_path / "selection.json").read_text())
        assert selection["greater_is_better"] is greater

    def test_diverging_regression_raises(self, tmp_path):
        # AdamW moves every weight by about the learning rate per step, so
        # the predictions grow until the gradient norm overflows; at 1e40
        # the forward pass overflows first, inside softmax, and with one
        # step per epoch it is the dev pass that overflows
        train_set, dev_set = regression_task()
        base = base_model(train_set.texts + dev_set.texts)
        model = attach_head(base, HeadConfig(1), Rng(3))
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
        model = attach_head(base, HeadConfig(1), Rng(3))
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
        model = attach_head(base, HeadConfig(1), Rng(3))
        preds = predict(model, dev_set.texts[:5], max_length=8)
        assert preds.dtype == np.float64
        assert preds.shape == (5,)

    def test_no_texts_give_empty_predictions(self):
        train_set, _ = classification_task()
        base = base_model(train_set.texts)
        ids, lengths = base.encode_texts([], max_length=6)
        assert ids.shape == (0, 6) and lengths.shape == (0,)
        assert ids.dtype == lengths.dtype == np.int64
        clf = attach_head(base, HeadConfig(2), Rng(2))
        reg = attach_head(base, HeadConfig(1), Rng(3))
        for model, dtype in ((clf, np.int64), (reg, np.float64)):
            preds = predict(model, [])
            assert preds.dtype == dtype and preds.shape == (0,)

    def test_non_finite_logits_refused(self):
        """A NaN set after the checkpoint rule ran never reaches a softmax,
        and argmax of NaN logits is class 0, so predict checks its logits."""
        train_set, _ = classification_task()
        model = attach_head(base_model(train_set.texts), HeadConfig(2), Rng(2))
        model.params["layers.0.ffn.w1"][0, 0] = np.nan
        with pytest.raises(ValueError, match="^logits row 0 holds a non-finite value$"):
            predict(model, train_set.texts[:2])

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_batch_size_below_one_rejected(self, batch_size):
        train_set, dev_set = classification_task()
        model = attach_head(base_model(train_set.texts), HeadConfig(2), Rng(2))
        with pytest.raises(ValueError, match="batch_size"):
            predict(model, dev_set.texts, batch_size=batch_size)
        with pytest.raises(ValueError, match="batch_size"):
            evaluate(model, dev_set, batch_size=batch_size)

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
        model = attach_head(base, HeadConfig(1), Rng(3))
        out = evaluate(model, dev_set, max_length=8)
        assert out["task"] == "regression"
        assert set(out["metrics"]) == {"mse", "rmse", "pearson_r"}

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_evaluate_without_examples_says_so(self, task):
        train_set, _ = classification_task()
        base = base_model(train_set.texts)
        if task == "regression":
            model = attach_head(base, HeadConfig(1), Rng(3))
            empty = LabeledDataset([], [], "real")
        else:
            model = attach_head(base, HeadConfig(2), Rng(2), label_names=train_set.label_names)
            empty = LabeledDataset([], [], "class", train_set.label_names)
        with pytest.raises(ValueError, match="the dataset has no examples"):
            evaluate(model, empty)

    def test_evaluate_maps_classes_by_name(self):
        model, _, dev_set = self.trained()
        flipped = LabeledDataset(dev_set.texts, [1 - y for y in dev_set.labels], "class",
                                 dev_set.label_names[::-1])
        aligned = evaluate(model, dev_set, max_length=8)
        assert aligned["metrics"]["accuracy"] == 1.0
        assert evaluate(model, flipped, max_length=8) == aligned

        rows = [i for i, y in enumerate(dev_set.labels) if y == 1]
        colors = dev_set.subset(rows)
        only = LabeledDataset(colors.texts, [0] * len(rows), "class", ["colors"])
        assert evaluate(model, only, max_length=8) == evaluate(model, colors, max_length=8)

    def test_evaluate_class_count_mismatch(self):
        model, train_set, _ = self.trained()
        five = LabeledDataset(train_set.texts, train_set.labels, "class",
                              [f"c{i}" for i in range(5)])
        with pytest.raises(ValueError, match="2 classes.*5"):
            evaluate(model, five, max_length=8)


def varied_lengths_task(n=24):
    """Texts of one to seven words, so real lengths differ inside a batch."""
    words = ["cat", "dog", "mat", "red", "blue", "sky"]
    rng = Rng(44)
    texts = [" ".join(words[int(rng.integers(6))] for _ in range(1 + i % 7)) for i in range(n)]
    return LabeledDataset(texts, [i % 2 for i in range(n)], "class", ["even", "odd"])


def spy(monkeypatch, module, name, seen):
    """Wrap ``module.name`` so every call's (args, result) lands in ``seen``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append((args, result))
        return result

    monkeypatch.setattr(module, name, wrapper)


class TestLengthAwareBatches:
    """Finetuning and scoring run each batch at its longest real row."""

    MAX_LENGTH = 16

    def task_and_model(self, dropout=0.0):
        ds = varied_lengths_task()
        base = base_model(ds.texts, max_positions=self.MAX_LENGTH, dropout=dropout)
        ids, lengths = base.encode_texts(ds.texts, self.MAX_LENGTH)
        assert lengths.max() < self.MAX_LENGTH  # every batch can be cut
        return ds, base, ids, lengths

    def full_width_masks(self, base, texts):
        return np.array([base.tokenizer.encode(t, self.MAX_LENGTH).attention_mask for t in texts])

    def test_scores_match_the_full_width_forward(self, monkeypatch):
        ds, base, ids, lengths = self.task_and_model()
        masks = self.full_width_masks(base, ds.texts)
        cfg = base.model_config
        seen = []
        spy(monkeypatch, finetune, "encoder_forward", seen)
        for head, seed in ((HeadConfig(2), 2), (HeadConfig(1), 3)):
            model = attach_head(base, head, Rng(seed))
            w, b = model.params["head.w"], model.params["head.b"]
            full_logits = pool_first_token(encoder_forward(cfg, model.params, ids, masks)) @ w + b
            seen.clear()
            preds = predict(model, ds.texts, max_length=self.MAX_LENGTH, batch_size=5)
            # rows are scored in order of length, each batch at its longest row
            order = np.argsort(lengths, kind="stable")
            assert [args[2].shape[1] for args, _ in seen] == [
                int(lengths[order[i : i + 5]].max()) for i in range(0, len(ds), 5)]
            logits = np.empty_like(full_logits)
            logits[order] = np.concatenate([pool_first_token(h) for _, h in seen]) @ w + b
            np.testing.assert_allclose(logits, full_logits, rtol=0, atol=1e-12)
            if head.num_labels == 1:
                np.testing.assert_allclose(preds, full_logits[:, 0], rtol=0, atol=1e-12)
            else:
                assert np.array_equal(preds, np.argmax(full_logits, axis=1))

    def test_training_step_runs_at_the_longest_row(self, monkeypatch):
        ds, base, _, lengths = self.task_and_model(dropout=0.1)
        model = attach_head(base, HeadConfig(2), Rng(2))
        config = TrainingConfig(num_train_epochs=2, train_batch_size=5, eval_batch_size=64,
                                max_length=self.MAX_LENGTH, seed=7)
        seen = []
        spy(monkeypatch, finetune, "encoder_forward_with_cache", seen)
        train(config, model, ds, ds)
        widths = [args[2].shape[1] for args, _ in seen]
        expected = [int(lengths[sel].max())
                    for epoch in (1, 2)
                    for sel in batch_indices(len(ds), 5, Rng(7).spawn("batch", epoch),
                                             lengths=lengths)]
        assert widths == expected

    def test_shuffled_input_gives_shuffled_predictions(self):
        ds, base, _, _ = self.task_and_model()
        perm = Rng(9).permutation(len(ds))
        shuffled = [ds.texts[i] for i in perm]
        for head in (HeadConfig(2), HeadConfig(1)):
            model = attach_head(base, head, Rng(5))
            preds = predict(model, ds.texts, max_length=self.MAX_LENGTH, batch_size=5)
            again = predict(model, shuffled, max_length=self.MAX_LENGTH, batch_size=5)
            if head.num_labels == 1:
                np.testing.assert_allclose(again, preds[perm], rtol=0, atol=1e-12)
            else:
                assert np.array_equal(again, preds[perm])

    def test_training_step_gradients_match_the_full_width_step(self, monkeypatch):
        ds, base, ids, _ = self.task_and_model()
        masks = self.full_width_masks(base, ds.texts)
        model = attach_head(base, HeadConfig(2), Rng(2))
        config = TrainingConfig(num_train_epochs=1, train_batch_size=len(ds),
                                max_length=self.MAX_LENGTH, seed=7)
        before = []  # the step's gradients as they reach clipping, which scales in place
        original = finetune.clip_global_norm

        def recording_clip(grads, max_norm):
            # clipping receives the gradient vector; record its named views
            before.append({k: g.copy() for k, g in views(grads, model.params).items()})
            return original(grads, max_norm)

        monkeypatch.setattr(finetune, "clip_global_norm", recording_clip)
        train(config, model, ds, ds)
        assert len(before) == 1

        (sel,) = batch_indices(len(ds), len(ds), Rng(7).spawn("batch", 1))
        cfg = model.model_config
        h, cache = encoder_forward_with_cache(cfg, model.params, ids[sel], masks[sel])
        assert h.shape[1] == self.MAX_LENGTH
        _, d_h, expected = head_loss_and_grads(model.params, h, ds.label_array()[sel])
        expected.update(encoder_backward(cfg, model.params, cache, d_h))
        assert set(before[0]) == set(expected) | {"mlm_bias"}
        assert not before[0]["mlm_bias"].any()  # finetuning never trains the MLM head
        for name, grad in expected.items():
            np.testing.assert_allclose(before[0][name], grad, rtol=0, atol=1e-12, err_msg=name)


class TestScoringMemory:
    """Encoded texts are one int64 id row and one length each, and scoring
    builds one batch's mask at a time, so at max_length 128 a text costs
    about 1 KB at the peak of encoding and of ``predict``."""

    MAX_LENGTH = 128

    @pytest.fixture(scope="class")
    def model_and_texts(self):
        words = ["cat", "dog", "mat", "red", "blue", "sky", "sat", "on", "the"]
        rng = Rng(45)
        # one to 79 words; the longest run past max_length and are truncated
        texts = [" ".join(words[int(rng.integers(9))] for _ in range(1 + i % 79))
                 for i in range(4000)]
        base = base_model(texts[:200], max_positions=self.MAX_LENGTH)
        return attach_head(base, HeadConfig(2), Rng(2)), texts

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_peak_per_text_below_2_kb(self, model_and_texts, n):
        model, texts = model_and_texts
        texts = texts[:n]
        assert max(model.encode_texts(texts, self.MAX_LENGTH)[1]) == self.MAX_LENGTH
        for fn in (model.encode_texts, partial(predict, model)):
            kb = traced_peak_mb(partial(fn, max_length=self.MAX_LENGTH), texts) * 1024 / n
            assert kb < 2.0, (fn, kb)


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
        write_json(str(path), out)  # how every command writes metrics.json
        assert json.loads(path.read_text())["metrics"]["pearson_r"] is None


    def test_non_finite_metric_leaves_no_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(str(path), {"metrics": {"mse": math.inf}})
        assert not path.exists() and not (tmp_path / "metrics.json.tmp").exists()

