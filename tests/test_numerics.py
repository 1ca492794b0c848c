"""Primitive forward values, gradient pairs, and the checker itself."""

import math
import tracemalloc

import numpy as np
import pytest

from nanobert import numerics as nn
from nanobert.rng import Rng


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ensure_finite_rows_names_the_first_row(value):
    x = np.zeros((5, 3))
    x[3, 0] = x[2, 2] = value
    nn.ensure_finite_rows(np.zeros((0, 3)), "scores")
    with pytest.raises(ValueError, match="^scores row 2 holds a non-finite value$"):
        nn.ensure_finite_rows(x, "scores")


class TestSoftmax:
    def test_known_values(self):
        # exp of [ln 1, ln 2, ln 7] is [1, 2, 7], normalizing to tenths
        x = np.log(np.array([1.0, 2.0, 7.0]))
        np.testing.assert_allclose(nn.softmax(x), [0.1, 0.2, 0.7], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = Rng(1)
        x = rng.normal((200, 17), scale=30.0)
        s = nn.softmax(x)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert (s > 0).all()

    def test_shift_invariance(self):
        x = Rng(2).normal(9)
        np.testing.assert_allclose(nn.softmax(x), nn.softmax(x + 123.456), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        s = nn.softmax(np.array([1e4, 0.0, -1e4]))
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s.sum(), 1.0, atol=1e-12)

    def test_single_entry(self):
        np.testing.assert_allclose(nn.softmax(np.array([3.0])), [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nn.softmax(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            nn.softmax(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4, 4)])
    def test_in_place_matches_fresh(self, shape):
        x = Rng(4).normal(shape, scale=5.0)
        want = nn.softmax(x)
        out = nn.softmax(x, out=x)
        assert out is x
        assert want.tobytes() == x.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_in_place_rejects_non_finite_and_keeps_input(self, bad):
        x = np.array([[1.0, 2.0], [bad, 0.5]])
        before = x.copy()
        with pytest.raises(ValueError, match="softmax input contains NaN or Inf"):
            nn.softmax(x.copy())
        with pytest.raises(ValueError, match="softmax input contains NaN or Inf"):
            nn.softmax(x, out=x)
        np.testing.assert_array_equal(x, before)

    def test_log_softmax_consistent(self):
        x = Rng(3).normal((5, 7), scale=8.0)
        np.testing.assert_allclose(nn.log_softmax(x), np.log(nn.softmax(x)), atol=1e-12)


class TestCrossEntropy:
    def test_probability_one_fifth(self):
        # logits placing probability exactly 0.2 on the target
        logits = np.log(np.array([0.2, 0.5, 0.3]))
        assert abs(nn.cross_entropy(logits, 0) - 1.6094) < 1e-4

    @pytest.mark.parametrize("k", [2, 15])
    def test_uniform_logits_give_ln_k_exactly(self, k):
        assert nn.cross_entropy(np.zeros(k), 0) == math.log(k)

    def test_translation_invariance(self):
        logits = Rng(4).normal(6)
        a = nn.cross_entropy(logits, 2)
        b = nn.cross_entropy(logits + 55.5, 2)
        assert abs(a - b) < 1e-9

    def test_no_underflow_for_tiny_target_probability(self):
        logits = np.array([0.0, 200.0])
        loss = nn.cross_entropy(logits, 0)
        assert math.isfinite(loss) and abs(loss - 200.0) < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            nn.cross_entropy(np.zeros(3), 3)

    @pytest.mark.parametrize("logits, target", [
        ([0.0, 200.0], 0), ([0.0, 200.0], 1), ([0.0, 0.0, 0.0], 2),
        (np.log([0.2, 0.5, 0.3]), 0), (Rng(7).normal(11, 3.0), 4),
    ])
    def test_one_row_of_the_batched_loss_bit_for_bit(self, logits, target):
        loss, d_logits = nn.softmax_cross_entropy(np.asarray(logits)[None], np.array([target]))
        assert nn.cross_entropy(logits, target) == loss
        assert nn.cross_entropy_backward(logits, target).tobytes() == d_logits[0].tobytes()

    @pytest.mark.parametrize("call", [nn.cross_entropy, nn.cross_entropy_backward])
    def test_one_row_refusals(self, call):
        with pytest.raises(ValueError, match=r"^logits must be 1-D, got shape \(1, 3\)$"):
            call(np.zeros((1, 3)), 0)
        with pytest.raises(ValueError, match="^target -1 out of range for 3 classes$"):
            call(np.zeros(3), -1)

    def test_batched_mean_and_gradient(self):
        rng = Rng(5)
        logits = rng.normal((8, 4), scale=2.0)
        targets = rng.integers(4, 8)
        loss, _ = nn.softmax_cross_entropy(logits, targets)
        per_row = [nn.cross_entropy(logits[i], int(targets[i])) for i in range(8)]
        assert abs(loss - np.mean(per_row)) < 1e-12


class TestMse:
    def test_known_value(self):
        assert nn.mse(np.array([1.0, 3.0]), np.array([2.0, 2.0])) == 1.0

    def test_zero_on_equal(self):
        x = Rng(6).normal(10)
        assert nn.mse(x, x.copy()) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            nn.mse(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="zero elements"):
            nn.mse(np.array([]), np.array([]))


class TestLayerNorm:
    def test_output_standardized(self):
        x = Rng(7).normal((4, 16), scale=5.0) + 3.0
        y = nn.layer_norm(x, np.ones(16), np.zeros(16))
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-6)

    def test_gamma_beta_applied(self):
        x = Rng(8).normal((3, 8))
        g, b = np.full(8, 2.0), np.full(8, -1.0)
        base = nn.layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(nn.layer_norm(x, g, b), 2.0 * base - 1.0, atol=1e-12)


class TestGelu:
    def test_fixed_points(self):
        assert nn.gelu(np.array([0.0]))[0] == 0.0
        x = np.array([10.0, -10.0])
        y = nn.gelu(x)
        assert abs(y[0] - 10.0) < 1e-6 and abs(y[1]) < 1e-6

    def test_known_value_at_one(self):
        # 0.5 * (1 + tanh(sqrt(2/pi) * 1.044715))
        expected = 0.5 * (1.0 + math.tanh(math.sqrt(2 / math.pi) * 1.044715))
        assert abs(nn.gelu(np.array([1.0]))[0] - expected) < 1e-12


GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715
# shapes the encoder feeds these primitives: [B, T, N], [B, T, F], [B, A, T, T]
TRAINING_SHAPES = [(16, 64, 64), (16, 64, 256), (4, 16, 64), (16, 4, 64, 64), (3, 5, 7)]


class TestTextbookForms:
    """The in-place primitives give the same bits as the plain formulas,
    except GELU, whose x**3 now runs as x*x*x and may move by one ulp."""

    @pytest.mark.parametrize("shape", TRAINING_SHAPES)
    def test_softmax_bit_identical(self, shape):
        x = Rng(11).normal(shape, scale=4.0)
        e = np.exp(x - np.max(x, axis=-1, keepdims=True))
        assert np.array_equal(nn.softmax(x), e / np.sum(e, axis=-1, keepdims=True))

    @pytest.mark.parametrize("shape", TRAINING_SHAPES)
    def test_layer_norm_bit_identical(self, shape):
        rng = Rng(12)
        x = rng.normal(shape, scale=3.0) + 1.5
        gamma, beta = 1.0 + rng.normal(shape[-1], 0.2), rng.normal(shape[-1], 0.2)
        d_out = rng.normal(shape)
        mu = np.mean(x, axis=-1, keepdims=True)
        var = np.var(x, axis=-1, keepdims=True)
        assert np.array_equal(nn.layer_norm(x, gamma, beta),
                              gamma * ((x - mu) / np.sqrt(var + nn.LAYER_NORM_EPS)) + beta)

        inv_std = 1.0 / np.sqrt(var + nn.LAYER_NORM_EPS)
        xhat = (x - mu) * inv_std
        axes = tuple(range(d_out.ndim - 1))
        d_xhat = d_out * gamma
        want = (
            inv_std * (d_xhat - np.mean(d_xhat, axis=-1, keepdims=True)
                       - xhat * np.mean(d_xhat * xhat, axis=-1, keepdims=True)),
            np.sum(d_out * xhat, axis=axes),
            np.sum(d_out, axis=axes),
        )
        for got, ref in zip(nn.layer_norm_backward(d_out, x, gamma), want):
            assert np.array_equal(got, ref)

    def test_inputs_left_untouched(self):
        rng = Rng(13)
        x, d_out = rng.normal((4, 6, 8)), rng.normal((4, 6, 8))
        gamma, beta = 1.0 + rng.normal(8, 0.2), rng.normal(8, 0.2)
        before = [a.copy() for a in (x, d_out, gamma, beta)]
        nn.softmax(x)
        nn.layer_norm(x, gamma, beta)
        nn.layer_norm_backward(d_out, x, gamma)
        nn.gelu(x)
        nn.gelu_backward(d_out, x)
        for a, b in zip((x, d_out, gamma, beta), before):
            assert np.array_equal(a, b)

    def test_gelu_within_ulps_of_pow_formula(self):
        # One rounding moves (x**3 -> x*x*x); 1 + tanh cancels for x << 0,
        # so the error is measured against the size of the terms, not of the
        # result: |x| forward, 1 + |x| (1 + 3a x^2) for the derivative.
        x = np.concatenate([np.linspace(-30.0, 30.0, 600_001), [0.0, -0.0, 1e-300, -1e-300]])
        t = np.tanh(GELU_C * (x + GELU_A * x**3))
        old = 0.5 * x * (1.0 + t)
        old_local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * GELU_C * (1.0 + 3.0 * GELU_A * x**2)
        ax = np.abs(x)
        assert np.all(np.abs(nn.gelu(x) - old) <= 4 * np.spacing(ax))
        d_out = np.linspace(-2.0, 2.0, x.size)
        term = 1.0 + ax * (1.0 + 3.0 * GELU_A * x * x)
        got = nn.gelu_backward(d_out, x)
        assert np.all(np.abs(got - d_out * old_local) <= 4 * np.spacing(np.abs(d_out) * term))
        assert nn.gelu(np.array([0.0]))[0] == 0.0
        assert nn.gelu_backward(np.array([1.0]), np.array([0.0]))[0] == 0.5

    def test_gelu_finite_where_tanh_saturates(self):
        x = np.array([-1e5, -1e3, -30.0, -20.0, 20.0, 30.0, 1e3, 1e5])
        y = nn.gelu(x)
        d = nn.gelu_backward(np.ones_like(x), x)
        assert np.isfinite(y).all() and np.isfinite(d).all()
        assert np.array_equal(y[x > 0], x[x > 0]) and np.all(y[x < 0] == 0.0)
        assert np.array_equal(d, (x > 0).astype(np.float64))


class TestTextbookFormsInSmallBlocks(TestTextbookForms):
    """The same checks with blocks small enough that the arrays span three
    or more blocks plus a ragged tail: blocking moves no bit."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(nn, "BLOCK_ENTRIES", 1000)


class TestCrossEntropyInPlace:
    """``log_softmax`` and ``softmax_cross_entropy`` run their chain in place
    beside the input: the same bits as the plain formulas, and the input
    untouched."""

    @pytest.mark.parametrize("n, k", [(289, 400), (7, 3), (1, 50), (40, 1)])
    def test_bit_identical_to_the_plain_formulas(self, n, k):
        rng = Rng(21)
        logits, targets = rng.normal((n, k), scale=4.0), rng.integers(k, n)
        before = logits.copy()
        shifted = logits - np.max(logits, axis=-1, keepdims=True)
        logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
        assert np.array_equal(nn.log_softmax(logits), logp)
        d = np.exp(logp)
        d[np.arange(n), targets] -= 1.0
        loss, d_logits = nn.softmax_cross_entropy(logits, targets)
        assert loss == -float(np.mean(logp[np.arange(n), targets]))
        assert np.array_equal(d_logits, d / n)
        assert np.array_equal(logits, before)

    def test_log_softmax_of_any_rank(self):
        x = Rng(22).normal((2, 3, 5), scale=3.0)
        assert np.array_equal(nn.log_softmax(x), np.stack([nn.log_softmax(row) for row in x]))
        shifted = x[0, 0] - np.max(x[0, 0])
        assert np.array_equal(nn.log_softmax(x[0, 0]), shifted - np.log(np.sum(np.exp(shifted))))

    def test_holds_at_most_two_arrays_beside_the_logits(self):
        # an MLM head's [M, V] at pretrain-narrow's vocab size
        logits = Rng(23).normal((1000, 400), scale=3.0)
        targets = Rng(24).integers(400, 1000)
        tracemalloc.start()
        try:
            nn.softmax_cross_entropy(logits, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * logits.nbytes


class TestEmbedding:
    def test_lookup_rows(self):
        table = np.arange(12.0).reshape(4, 3)
        out = nn.embedding_lookup(table, np.array([[0, 3], [1, 1]]))
        np.testing.assert_array_equal(out[0, 1], table[3])
        np.testing.assert_array_equal(out[1, 0], table[1])

    def test_zero_table_zero_output(self):
        out = nn.embedding_lookup(np.zeros((5, 4)), np.array([1, 2, 3]))
        assert (out == 0).all()

    def test_out_of_range_id(self):
        with pytest.raises(ValueError, match="out of range"):
            nn.embedding_lookup(np.zeros((5, 4)), np.array([5]))

    def test_backward_accumulates_repeated_ids(self):
        d_out = np.ones((3, 2))
        d_table = nn.embedding_lookup_backward(d_out, np.array([1, 1, 0]), num_rows=4)
        np.testing.assert_array_equal(d_table[1], [2.0, 2.0])
        np.testing.assert_array_equal(d_table[0], [1.0, 1.0])
        np.testing.assert_array_equal(d_table[2], [0.0, 0.0])


class TestGradientPairs:
    """Each analytic backward agrees with central differences through a
    random linear readout."""

    def check(self, f, theta, seed=0):
        report = nn.grad_check(f, theta, h=1e-5, tol=1e-4, rng=Rng(seed))
        assert report.passed, f"{report.name}: max rel error {report.max_rel_error:.3e}"

    def test_matmul_both_sides(self):
        rng = Rng(10)
        a0 = rng.normal((3, 4))
        b0 = rng.normal((4, 5))
        r = rng.normal((3, 5))

        def fa(a):
            out = nn.matmul(a, b0)
            da, _ = nn.matmul_backward(r, a, b0)
            return float(np.sum(out * r)), da

        def fb(b):
            out = nn.matmul(a0, b)
            _, db = nn.matmul_backward(r, a0, b)
            return float(np.sum(out * r)), db

        self.check(fa, a0.copy())
        self.check(fb, b0.copy())

    def test_matmul_stacked_weight(self):
        rng = Rng(11)
        a = rng.normal((2, 3, 4))
        b0 = rng.normal((4, 5))
        r = rng.normal((2, 3, 5))

        def fb(b):
            out = nn.matmul(a, b)
            _, db = nn.matmul_backward(r, a, b)
            return float(np.sum(out * r)), db

        self.check(fb, b0.copy())

    def test_layer_norm_all_inputs(self):
        rng = Rng(12)
        x0 = rng.normal((4, 8), scale=3.0)
        g0 = rng.normal(8) + 1.5
        b0 = rng.normal(8)
        r = rng.normal((4, 8))

        def fx(x):
            out = nn.layer_norm(x, g0, b0)
            dx, _, _ = nn.layer_norm_backward(r, x, g0)
            return float(np.sum(out * r)), dx

        def fg(g):
            out = nn.layer_norm(x0, g, b0)
            _, dg, _ = nn.layer_norm_backward(r, x0, g)
            return float(np.sum(out * r)), dg

        def fbeta(b):
            out = nn.layer_norm(x0, g0, b)
            _, _, db = nn.layer_norm_backward(r, x0, g0)
            return float(np.sum(out * r)), db

        self.check(fx, x0.copy())
        self.check(fg, g0.copy())
        self.check(fbeta, b0.copy())

    def test_gelu(self):
        rng = Rng(13)
        x0 = rng.normal(40, scale=2.0)
        r = rng.normal(40)

        def f(x):
            return float(np.sum(nn.gelu(x) * r)), nn.gelu_backward(r, x)

        self.check(f, x0.copy())

    def test_softmax(self):
        rng = Rng(14)
        x0 = rng.normal((5, 6), scale=2.0)
        r = rng.normal((5, 6))

        def f(x):
            y = nn.softmax(x)
            return float(np.sum(y * r)), nn.softmax_backward(r, y)

        self.check(f, x0.copy())

    def test_cross_entropy(self):
        x0 = Rng(15).normal(7, scale=2.0)

        def f(x):
            return nn.cross_entropy(x, 3), nn.cross_entropy_backward(x, 3)

        self.check(f, x0.copy())

    def test_softmax_cross_entropy_batched(self):
        rng = Rng(16)
        x0 = rng.normal((6, 5), scale=2.0)
        targets = rng.integers(5, 6)

        def f(x):
            return nn.softmax_cross_entropy(x, targets)

        self.check(f, x0.copy())

    def test_mse(self):
        rng = Rng(17)
        p0 = rng.normal(12)
        t = rng.normal(12)

        def f(p):
            return nn.mse(p, t), nn.mse_backward(p, t)

        self.check(f, p0.copy())

    def test_embedding_lookup(self):
        rng = Rng(18)
        table0 = rng.normal((6, 4))
        ids = np.array([0, 2, 2, 5])
        r = rng.normal((4, 4))

        def f(table):
            out = nn.embedding_lookup(table, ids)
            return float(np.sum(out * r)), nn.embedding_lookup_backward(r, ids, 6)

        self.check(f, table0.copy())


class TestGradCheckItself:
    def test_detects_wrong_gradient(self):
        def f(x):
            return float(np.sum(x**2)), 3.0 * x  # true gradient is 2x

        report = nn.grad_check(f, np.array([1.0, -2.0, 0.5]))
        assert not report.passed

    def test_coordinate_sampling(self):
        def f(x):
            return float(np.sum(x**2)), 2.0 * x

        report = nn.grad_check(f, Rng(19).normal(500), n_coords=20, rng=Rng(20))
        assert report.passed

    def test_rejects_bad_gradient_shape(self):
        def f(x):
            return float(np.sum(x)), np.zeros(2)

        with pytest.raises(ValueError, match="shape"):
            nn.grad_check(f, np.zeros(3))
