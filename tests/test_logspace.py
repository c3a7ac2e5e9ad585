"""Log-domain kernel contracts: worked examples, invariances, and agreement
with direct linear-space arithmetic where that is computable."""

import math

import numpy as np
import pytest

from mlmc_evidence.errors import ContractViolation
from mlmc_evidence.logspace import (
    StreamingMoments,
    combine_halves,
    log_mean_exp,
    softmax_weights,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


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

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            log_mean_exp([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ContractViolation):
            log_mean_exp([0.0, bad])


class TestCombineHalves:
    def test_equal_halves_exact(self):
        for c in [-1e8, -3.5, 0.0, 1.0, 700.0]:
            assert combine_halves(c, c) == c

    def test_small_magnitude_arithmetic(self):
        assert combine_halves(0.0, LN3) == pytest.approx(LN2, abs=1e-15)

    def test_underflowing_half(self):
        # e^-745 is negligible next to e^0, so the mean is ~1/2
        assert combine_halves(-745.0, 0.0) == pytest.approx(-LN2, abs=1e-12)

    def test_matches_concatenated_buffer(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = 2 * int(rng.integers(1, 30))
            v = rng.uniform(-600, 600, size=n)
            a = log_mean_exp(v[: n // 2])
            b = log_mean_exp(v[n // 2 :])
            whole = log_mean_exp(v)
            assert combine_halves(a, b) == pytest.approx(whole, rel=1e-12, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractViolation):
            combine_halves(math.nan, 0.0)
        with pytest.raises(ContractViolation):
            combine_halves(0.0, -math.inf)


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

    def test_push_many_equals_push_loop(self):
        rng = np.random.default_rng(18)
        values = rng.standard_normal((500, 3))
        a = StreamingMoments()
        b = StreamingMoments()
        for v in values:
            a.push(v)
        b.push_many(values[:200])
        b.push_many(values[200:])
        assert a.count == b.count
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12)
        np.testing.assert_allclose(a.variance(), b.variance(), rtol=1e-9)

    @pytest.mark.parametrize("shape", [(700,), (700, 3)], ids=["scalar", "vector"])
    def test_push_many_chunks_equal_pushes(self, shape):
        rng = np.random.default_rng(20)
        values = rng.standard_normal(shape) * 3.0 + 1.5
        pushed = StreamingMoments()
        for v in values:
            pushed.push(v)
        for cuts in ([700], [1, 699], [64, 64, 300, 272]):
            chunked = StreamingMoments()
            for chunk in np.split(values, np.cumsum(cuts)[:-1]):
                chunked.push_many(chunk)
            assert chunked.count == pushed.count
            np.testing.assert_allclose(chunked.mean, pushed.mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(chunked.variance(), pushed.variance(), rtol=1e-12)

    def test_merge_matches_single_stream(self):
        rng = np.random.default_rng(19)
        values = rng.standard_normal(4001)
        whole = StreamingMoments()
        left = StreamingMoments()
        right = StreamingMoments()
        for v in values:
            whole.push(v)
        for v in values[:1234]:
            left.push(v)
        for v in values[1234:]:
            right.push(v)
        left.merge(right)
        assert left.count == whole.count
        assert float(left.mean) == pytest.approx(float(whole.mean), rel=1e-12)
        assert float(left.variance()) == pytest.approx(float(whole.variance()), rel=1e-10)

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
