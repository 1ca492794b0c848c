"""Hand-worked oracles for the bag-of-words classifiers and the ridge
regressor, plus pipeline behavior."""

import math

import numpy as np
import pytest

from helpers import tiny_config
from nanobert.baselines import (
    BowVectorizer,
    MaxEnt,
    MultinomialNB,
    Ridge,
    TextBaseline,
    fit_text_baseline,
    mean_pooled_features,
)
from nanobert.checkpoint import Checkpoint
from nanobert.data import LabeledDataset
from nanobert.model import encoder_forward, init_params
from nanobert.rng import Rng
from nanobert.tokenizer import train_bpe


class TestBowVectorizer:
    def test_counts_and_fixed_vocabulary(self):
        vec = BowVectorizer.fit(["apple banana", "apple apple", "carrot"])
        assert vec.vocab == {"apple": 0, "banana": 1, "carrot": 2}
        X = vec.transform(["apple apple banana", "kiwi"])
        assert X.tolist() == [[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]]

    def test_min_df_drops_rare_words(self):
        vec = BowVectorizer.fit(["apple banana", "apple carrot", "apple"], min_df=2)
        assert set(vec.vocab) == {"apple"}

    def test_lowercase_folds_case(self):
        vec = BowVectorizer.fit(["Apple APPLE"])
        assert list(vec.vocab) == ["apple"]
        assert vec.transform(["aPPle"]).tolist() == [[1.0]]

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BowVectorizer.fit(["rare words only"], min_df=5)

    def test_roundtrip(self):
        vec = BowVectorizer.fit(["apple banana carrot"])
        clone = BowVectorizer.from_json_dict(vec.to_json_dict())
        assert clone.vocab == vec.vocab


class TestMultinomialNB:
    def hand_model(self):
        # class 0: "apple banana", "apple apple"; class 1: "carrot", "banana carrot"
        X = np.array([
            [1.0, 1.0, 0.0],
            [2.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
        ])
        y = np.array([0, 0, 1, 1])
        return MultinomialNB(alpha=1.0).fit(X, y), X

    def test_smoothed_log_probabilities(self):
        nb, _ = self.hand_model()
        # class 0 totals: apple 3, banana 1, carrot 0 over 4 tokens
        expected0 = [math.log(4 / 7), math.log(2 / 7), math.log(1 / 7)]
        # class 1 totals: apple 0, banana 1, carrot 2 over 3 tokens
        expected1 = [math.log(1 / 6), math.log(2 / 6), math.log(3 / 6)]
        assert np.allclose(nb.feature_log_prob[0], expected0, atol=1e-12)
        assert np.allclose(nb.feature_log_prob[1], expected1, atol=1e-12)
        assert np.allclose(nb.class_log_prior, [math.log(0.5)] * 2, atol=1e-12)

    def test_log_joint_matches_hand_sum(self):
        nb, _ = self.hand_model()
        doc = np.array([[1.0, 1.0, 0.0]])  # "apple banana"
        joint = nb.predict_log_joint(doc)[0]
        assert joint[0] == pytest.approx(math.log(0.5) + math.log(4 / 7) + math.log(2 / 7))
        assert joint[1] == pytest.approx(math.log(0.5) + math.log(1 / 6) + math.log(2 / 6))
        assert nb.predict(doc)[0] == 0

    def test_empty_class_rejected(self):
        X = np.eye(3)
        with pytest.raises(ValueError, match="class 1 has no"):
            MultinomialNB().fit(X, np.array([0, 0, 2]), num_classes=3)

    def test_label_id_beyond_num_classes_named(self):
        with pytest.raises(ValueError, match="label id 2 out of range for 2 classes"):
            MultinomialNB().fit(np.eye(4), np.array([0, 1, 2, 0]), num_classes=2)

    def test_roundtrip(self):
        nb, X = self.hand_model()
        clone = MultinomialNB.from_json_dict(nb.to_json_dict())
        assert np.array_equal(clone.predict(X), nb.predict(X))


class TestMaxEnt:
    def test_separable_data_fits_perfectly(self):
        # one telltale feature per class
        X = np.kron(np.eye(3), np.ones((4, 1)))
        y = np.repeat(np.arange(3), 4)
        model = MaxEnt(l2=1e-4, epochs=300).fit(X, y)
        assert np.array_equal(model.predict(X), y)

    def test_crushing_l2_falls_back_to_prior(self):
        # unpenalized intercept keeps the majority class reachable
        X = np.eye(4)
        y = np.array([0, 0, 0, 1])
        model = MaxEnt(l2=1e6, epochs=2000).fit(X, y)
        assert np.max(np.abs(model.w)) < 1e-3
        assert np.array_equal(model.predict(X), np.zeros(4, dtype=np.int64))
        # intercept difference approaches the log prior ratio log(3)
        assert model.b[0] - model.b[1] == pytest.approx(math.log(3), abs=0.05)

    def test_label_id_beyond_num_classes_named(self):
        with pytest.raises(ValueError, match="label id 2 out of range for 2 classes"):
            MaxEnt().fit(np.eye(4), np.array([0, 1, 2, 0]), num_classes=2)

    def test_deterministic(self):
        X = np.kron(np.eye(2), np.ones((3, 1)))
        y = np.repeat(np.arange(2), 3)
        a = MaxEnt(epochs=50).fit(X, y)
        b = MaxEnt(epochs=50).fit(X, y)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)

    def test_roundtrip(self):
        X = np.kron(np.eye(2), np.ones((3, 1)))
        y = np.repeat(np.arange(2), 3)
        model = MaxEnt(epochs=50).fit(X, y)
        clone = MaxEnt.from_json_dict(model.to_json_dict())
        assert np.allclose(clone.decision_function(X), model.decision_function(X))


class TestRidge:
    def test_hand_solved_two_point_system(self):
        # centered normal equations with l2=1 give w=(1/4,-1/4), b=1/2
        model = Ridge(l2=1.0).fit(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
        assert np.allclose(model.w, [0.25, -0.25], atol=1e-12)
        assert model.b == pytest.approx(0.5)
        assert np.allclose(model.predict(np.eye(2)), [0.75, 0.25], atol=1e-12)

    def test_zero_penalty_interpolates_linear_data(self):
        rng = Rng(5)
        X = np.asarray(rng.normal((40, 3)))
        w_true = np.array([2.0, -1.0, 0.5])
        y = X @ w_true + 3.0
        model = Ridge(l2=0.0).fit(X, y)
        assert np.allclose(model.w, w_true, atol=1e-8)
        assert model.b == pytest.approx(3.0, abs=1e-8)

    def test_huge_penalty_predicts_mean(self):
        rng = Rng(6)
        X = np.asarray(rng.normal((30, 2)))
        y = np.asarray(rng.normal(30)) + 5.0
        model = Ridge(l2=1e12).fit(X, y)
        assert np.allclose(model.predict(X), np.full(30, y.mean()), atol=1e-6)

    def test_intercept_is_never_penalized(self):
        # constant shift in y moves b one-for-one, w not at all
        rng = Rng(7)
        X = np.asarray(rng.normal((25, 3)))
        y = np.asarray(rng.normal(25))
        lo = Ridge(l2=10.0).fit(X, y)
        hi = Ridge(l2=10.0).fit(X, y + 100.0)
        assert np.allclose(lo.w, hi.w, atol=1e-10)
        assert hi.b - lo.b == pytest.approx(100.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            Ridge().fit(np.zeros((3, 2)), np.zeros(4))

    def test_roundtrip(self):
        model = Ridge(l2=1.0).fit(np.eye(2), np.array([1.0, 0.0]))
        clone = Ridge.from_json_dict(model.to_json_dict())
        assert np.allclose(clone.predict(np.eye(2)), model.predict(np.eye(2)))


@pytest.mark.parametrize("model", [MultinomialNB(), MaxEnt(), Ridge()])
def test_predicting_before_fit_refused(model):
    with pytest.raises(ValueError, match="fit before predicting"):
        model.predict(np.eye(2))


class TestMeanPooledFeatures:
    def small_model(self, texts, max_positions=8):
        tok = train_bpe(texts, vocab_size=40)
        cfg = tiny_config(vocab_size=tok.vocab_size, max_positions=max_positions)
        return Checkpoint(cfg, init_params(cfg, Rng(1)), tokenizer=tok)

    def test_matches_manual_mask_weighted_mean(self):
        texts = ["cat dog", "cat cat dog mat"]
        model = self.small_model(texts)
        feats = mean_pooled_features(model, texts, max_length=8)
        assert feats.shape == (2, model.model_config.hidden_size)

        enc = model.tokenizer.encode(texts[0], 8)
        ids = np.asarray([enc.ids])
        mask = np.asarray([enc.attention_mask])
        h = encoder_forward(model.model_config, model.params, ids, mask)
        manual = h[0][mask[0] == 1].mean(axis=0)
        assert np.allclose(feats[0], manual, atol=1e-12)

    def test_padding_does_not_leak_into_features(self):
        # same content at two lengths; the longer one only adds pads
        texts = ["cat dog"]
        model = self.small_model(["cat dog mat"], max_positions=16)
        n_body = len(model.tokenizer.encode_body(texts[0]))
        assert n_body + 4 <= model.model_config.max_positions
        snug = mean_pooled_features(model, texts, max_length=n_body + 2)
        padded = mean_pooled_features(model, texts, max_length=n_body + 4)
        assert np.allclose(snug, padded, atol=1e-12)

    def test_batching_invariant(self):
        texts = ["cat", "dog", "mat", "cat dog", "dog mat"]
        model = self.small_model(texts)
        a = mean_pooled_features(model, texts, batch_size=2)
        b = mean_pooled_features(model, texts, batch_size=64)
        assert np.allclose(a, b, atol=1e-12)

    def test_non_finite_features_refused(self):
        texts = ["cat dog", "cat cat dog mat"]
        model = self.small_model(texts)
        model.params["layers.0.ffn.w1"][0, 0] = np.nan
        with pytest.raises(ValueError, match="^features row 0 holds a non-finite value$"):
            mean_pooled_features(model, texts, max_length=8)


    def test_matches_the_full_width_forward(self):
        texts = ["cat", "dog mat", "cat dog mat", "mat", "dog dog cat mat", "cat dog"]
        model = self.small_model(texts, max_positions=12)
        ids, masks = model.encode_texts(texts, 12)
        assert masks.sum(axis=1).max() < 12  # every batch is cut
        h = encoder_forward(model.model_config, model.params, ids, masks)
        weights = masks.astype(np.float64)[:, :, None]
        full = (h * weights).sum(axis=1) / weights.sum(axis=1)
        feats = mean_pooled_features(model, texts, max_length=12, batch_size=4)
        np.testing.assert_allclose(feats, full, rtol=0, atol=1e-12)

    def test_shuffled_input_gives_shuffled_features(self):
        texts = ["cat", "dog mat", "cat dog mat", "mat", "dog dog cat mat", "cat dog",
                 "mat mat", "dog cat dog", "cat mat dog cat", "dog"]
        model = self.small_model(texts, max_positions=12)
        perm = Rng(3).permutation(len(texts))
        feats = mean_pooled_features(model, texts, batch_size=3)
        again = mean_pooled_features(model, [texts[i] for i in perm], batch_size=3)
        np.testing.assert_allclose(again, feats[perm], rtol=0, atol=1e-12)

    def test_no_texts_give_empty_features(self):
        model = self.small_model(["cat dog"])
        feats = mean_pooled_features(model, [])
        assert feats.dtype == np.float64
        assert feats.shape == (0, model.model_config.hidden_size)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        model = self.small_model(["cat dog"])
        with pytest.raises(ValueError, match="batch_size"):
            mean_pooled_features(model, ["cat"], batch_size=batch_size)


class TestTextBaseline:
    def topic_like(self):
        pools = [["cat", "dog", "mat"], ["red", "blue", "sky"]]
        rng = Rng(50)
        texts, labels = [], []
        for i in range(40):
            c = i % 2
            texts.append(" ".join(pools[c][int(rng.integers(3))] for _ in range(5)))
            labels.append(c)
        return LabeledDataset(texts, labels, "class", ["animals", "colors"])

    @pytest.mark.parametrize("kind", ["naive_bayes", "maxent"])
    def test_pipeline_learns_disjoint_vocabularies(self, kind):
        ds = self.topic_like()
        pipeline = fit_text_baseline(kind, ds)
        assert np.array_equal(pipeline.predict(ds.texts), ds.label_array())

    @pytest.mark.parametrize("kind", ["naive_bayes", "maxent"])
    def test_save_load_roundtrip(self, kind, tmp_path):
        ds = self.topic_like()
        pipeline = fit_text_baseline(kind, ds)
        path = tmp_path / "baseline.json"
        pipeline.save(str(path))
        clone = TextBaseline.load(str(path))
        assert clone.kind == kind
        assert clone.label_names == ["animals", "colors"]
        assert np.array_equal(clone.predict(ds.texts), pipeline.predict(ds.texts))

    def test_rejects_real_labels(self):
        ds = LabeledDataset(["a b", "c d"], [1.0, 2.0], "real")
        with pytest.raises(ValueError, match="class labels"):
            fit_text_baseline("naive_bayes", ds)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            fit_text_baseline("svm", self.topic_like())
