"""Log-domain kernel contracts: worked examples, invariances, and agreement
with direct linear-space arithmetic where that is computable."""

import math

import numpy as np
import pytest

from mlmc_evidence.errors import ContractViolation
from mlmc_evidence.logspace import (
    StreamingMoments,
    log_mean_exp_unchecked,
    softmax_weights_unchecked,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


# the kernels take a nonempty finite float64 buffer and do not check it
def log_mean_exp(values):
    return log_mean_exp_unchecked(np.asarray(values, dtype=np.float64))


def softmax_weights(values):
    return softmax_weights_unchecked(np.asarray(values, dtype=np.float64))


class TestLogMeanExp:
    def test_equal_values(self):
        assert log_mean_exp([0.0, 0.0]) == 0.0

    def test_overflow_guard(self):
        # naive exp(1000) overflows; the max-shift form must not
        assert log_mean_exp([1000.0, 1000.0]) == 1000.0

    def test_small_magnitude_arithmetic(self):
        # mean(1, 3) = 2, checked directly at magnitudes where exp is safe
        assert log_mean_exp([0.0, LN3]) == pytest.approx(LN2, abs=1e-15)

    def test_bracketed_by_min_and_max(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.uniform(-700, 700, size=rng.integers(1, 40))
            out = log_mean_exp(v)
            assert v.min() - 1e-12 <= out <= v.max() + 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = rng.uniform(-700, 700, size=rng.integers(2, 50))
            c = float(rng.uniform(-700, 700))
            assert log_mean_exp(v + c) == pytest.approx(log_mean_exp(v) + c, abs=1e-12)


class TestSoftmaxWeights:
    def test_uniform(self):
        np.testing.assert_allclose(softmax_weights([0.0] * 4), [0.25] * 4, atol=1e-15)

    def test_quarter_three_quarters(self):
        w = softmax_weights([math.log(1.0), LN3])
        np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-15)

    def test_dominance_under_extreme_spread(self):
        w = softmax_weights([-3.0, -3.0 + 1000.0])
        assert w[0] == pytest.approx(0.0, abs=1e-300)
        assert w[1] == pytest.approx(1.0, abs=1e-15)

    def test_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            v = rng.uniform(-700, 700, size=rng.integers(1, 60))
            w = softmax_weights(v)
            assert (w >= 0).all()
            assert abs(w.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(15)
        v = rng.uniform(-50, 50, size=20)
        np.testing.assert_allclose(
            softmax_weights(v), softmax_weights(v + 123.456), atol=1e-12
        )

    def test_matches_direct_ratio(self):
        # on magnitudes where exp is computable the weighted gradient sum
        # must equal sum(e^v g) / sum(e^v)
        rng = np.random.default_rng(16)
        for _ in range(100):
            v = rng.uniform(-300, 300, size=25)
            g = rng.standard_normal(25)
            direct = (np.exp(v - v.max()) * g).sum() / np.exp(v - v.max()).sum()
            assert softmax_weights(v) @ g == pytest.approx(direct, rel=1e-10, abs=1e-12)


class TestStreamingMoments:
    def test_matches_two_pass_on_scalars(self):
        rng = np.random.default_rng(17)
        values = rng.standard_normal(100_000) * 37.0 + 5.0
        acc = StreamingMoments()
        for v in values:
            acc.push(v)
        assert acc.count == values.size
        assert float(acc.mean) == pytest.approx(values.mean(), rel=1e-12)
        assert float(acc.variance()) == pytest.approx(values.var(ddof=1), rel=1e-9)

    def test_m2_nonnegative(self):
        acc = StreamingMoments()
        for v in [1.0, 1.0, 1.0]:
            acc.push(v)
            assert np.all(np.asarray(acc.m2) >= 0.0)
        assert float(acc.variance()) == 0.0

    def test_variance_needs_two(self):
        acc = StreamingMoments()
        acc.push(1.0)
        with pytest.raises(ContractViolation):
            acc.variance()
