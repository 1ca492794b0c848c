"""Classification report against a brute-force oracle; rmse and Pearson r."""

import math

import numpy as np
import pytest

from nanobert.metrics import (
    REPORT_KEYS,
    classification_report,
    pearson_r,
    report_to_json_dict,
    rmse,
)
from nanobert.rng import Rng


def brute_force_report(y_true, y_pred):
    """Straightforward confusion-matrix arithmetic, no shared code."""
    classes = sorted(set(y_true) | set(y_pred))
    confusion = {(t, p): 0 for t in classes for p in classes}
    for t, p in zip(y_true, y_pred):
        confusion[(t, p)] += 1
    out = {}
    for c in classes:
        tp = confusion[(c, c)]
        pred_c = sum(confusion[(t, c)] for t in classes)
        true_c = sum(confusion[(c, p)] for p in classes)
        precision = tp / pred_c if pred_c else 0.0
        recall = tp / true_c if true_c else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[c] = (precision, recall, f1, true_c)
    n = len(y_true)
    acc = sum(t == p for t, p in zip(y_true, y_pred)) / n
    wp = sum(v[3] * v[0] for v in out.values()) / n
    wr = sum(v[3] * v[1] for v in out.values()) / n
    wf = sum(v[3] * v[2] for v in out.values()) / n
    return out, acc, wp, wr, wf


class TestClassificationReport:
    def test_hand_worked_two_class_case(self):
        # true [0,0,1,1] vs pred [0,1,1,1]: class 0 has P=1, R=1/2, F1=2/3;
        # class 1 has P=2/3, R=1, F1=4/5
        rep = classification_report([0, 0, 1, 1], [0, 1, 1, 1])
        c0, c1 = rep.per_class[0], rep.per_class[1]
        assert (c0.precision, c0.recall) == (1.0, 0.5)
        assert abs(c0.f1 - 2 / 3) < 1e-15
        assert abs(c1.precision - 2 / 3) < 1e-15
        assert (c1.recall, c1.support) == (1.0, 2)
        assert abs(c1.f1 - 0.8) < 1e-15
        assert rep.accuracy == 0.75
        assert abs(rep.weighted_f1 - (2 * (2 / 3) + 2 * 0.8) / 4) < 1e-15
        assert not rep.zero_division

    def test_matches_brute_force_on_random_vectors(self):
        rng = Rng(100)
        for trial in range(50):
            k = 2 + int(rng.integers(14))
            n = 5 + int(rng.integers(200))
            y_true = rng.integers(k, n).tolist()
            y_pred = rng.integers(k, n).tolist()
            rep = classification_report(y_true, y_pred)
            oracle, acc, wp, wr, wf = brute_force_report(y_true, y_pred)
            assert abs(rep.accuracy - acc) < 1e-12
            assert abs(rep.weighted_precision - wp) < 1e-12
            assert abs(rep.weighted_recall - wr) < 1e-12
            assert abs(rep.weighted_f1 - wf) < 1e-12
            for c, (p, r, f, s) in oracle.items():
                m = rep.per_class[c]
                assert abs(m.precision - p) < 1e-12
                assert abs(m.recall - r) < 1e-12
                assert abs(m.f1 - f) < 1e-12
                assert m.support == s

    def test_weighted_recall_equals_accuracy(self):
        rng = Rng(101)
        for trial in range(20):
            y_true = rng.integers(5, 60)
            y_pred = rng.integers(5, 60)
            rep = classification_report(y_true, y_pred)
            assert abs(rep.weighted_recall - rep.accuracy) < 1e-12

    def test_zero_division_flagged_not_raised(self):
        # class 1 is never predicted: precision 0 by convention, flag set
        rep = classification_report([0, 1], [0, 0])
        assert rep.per_class[1].precision == 0.0
        assert rep.per_class[1].f1 == 0.0
        assert rep.zero_division

    def test_perfect_predictions(self):
        rep = classification_report([0, 1, 2], [0, 1, 2])
        assert rep.accuracy == 1.0
        assert rep.weighted_f1 == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero predictions"):
            classification_report([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            classification_report([0, 1], [0])

    def test_json_layout(self):
        rep = classification_report([0, 0, 1, 1], [0, 1, 1, 1])
        doc = report_to_json_dict(rep, label_names=["cats", "dogs"])
        assert set(doc["weighted avg"]) == {"precision", "recall", "f1-score", "support"}
        assert doc["weighted avg"]["recall"] == rep.accuracy
        assert doc["cats"]["support"] == 2
        assert abs(doc["dogs"]["f1-score"] - 0.8) < 1e-15
        assert doc["accuracy"] == 0.75

    @pytest.mark.parametrize("key", REPORT_KEYS)
    def test_class_name_equal_to_a_report_key_refused(self, key):
        rep = classification_report([0, 0, 1, 1], [0, 1, 1, 1])
        with pytest.raises(ValueError, match=f"^class name '{key}' is a key of the "
                                             f"classification report$"):
            report_to_json_dict(rep, label_names=["cats", key])

    def test_json_falls_back_to_id_keys(self):
        doc = report_to_json_dict(classification_report([0, 1], [0, 1]))
        assert "0" in doc and "1" in doc


class TestRmse:
    def test_hand_case(self):
        assert rmse([1.0, 3.0], [2.0, 2.0]) == 1.0

    def test_is_sqrt_of_mse(self):
        rng = Rng(102)
        p, t = rng.normal(50), rng.normal(50)
        assert abs(rmse(p, t) ** 2 - np.mean((p - t) ** 2)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="over zero elements"):
            rmse([], [])

    def test_bits_of_the_direct_formula(self):
        rng = Rng(103)
        for n in (1, 7, 50):
            p, t = rng.normal(n), rng.normal(n)
            assert rmse(p, t) == float(np.sqrt(np.mean((p - t) ** 2)))


class TestPearson:
    def test_hand_case(self):
        # x=[1,2,3], y=[2,4,7]: r = 5 / sqrt(2 * 114/9) = 15 / sqrt(228)
        got = pearson_r([1.0, 2.0, 3.0], [2.0, 4.0, 7.0])
        assert abs(got - 15.0 / math.sqrt(228.0)) < 1e-12
        assert abs(got - 0.9934) < 1e-3

    def test_perfect_line(self):
        x = np.arange(10.0)
        assert abs(pearson_r(x, 3.0 * x - 2.0) - 1.0) < 1e-12
        assert abs(pearson_r(x, -0.5 * x + 4.0) + 1.0) < 1e-12

    def test_scale_and_shift_invariant(self):
        rng = Rng(103)
        x, y = rng.normal(40), rng.normal(40)
        a = pearson_r(x, y)
        b = pearson_r(2.0 * x + 5.0, 0.1 * y - 3.0)
        assert abs(a - b) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two"):
            pearson_r([1.0], [2.0])
