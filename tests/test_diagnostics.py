"""Diagnostics contracts: exact decay-rate fits on synthetic inputs,
variance profiles at the zero-variance fixed point, reproducibility, the
concurrent profile against a sequential loop, and moment estimates with
the analytic divergence flag."""

import contextvars
import math
import sys
import threading

import numpy as np
import pytest

from mlmc_evidence.diagnostics import (
    LevelStats,
    estimate_moments,
    fit_decay_rate,
    naive_difference,
    naive_grad_theta,
    variance_profile,
)
from mlmc_evidence.errors import ContractViolation, UnsupportedOperation
from mlmc_evidence.estimator import (
    EstimatorConfig,
    antithetic_difference,
    draw_chunks,
    reduce_chunks,
)
from mlmc_evidence.gradients import grad_theta_level
from mlmc_evidence.models import (
    BernoulliGaussianModel,
    GaussianConjugateModel,
    LatentVariableModel,
)
from mlmc_evidence.rng import substream

MODEL = GaussianConjugateModel(1)
THETA = np.zeros(3)
PHI_POSTERIOR = MODEL.posterior_phi(THETA)
PHI_WIDE = np.array([0.0, 0.0, 0.5 * math.log(2.0)])
DATA = MODEL.generate_data(THETA, 20, substream(401, 0))
CFG = EstimatorConfig(n0=8)


def stats_from_values(values, levels):
    return [
        LevelStats(level=l, mean_z=0.0, var_z=v, var_grad_theta_max=v,
                   mean_cost=8.0 * 2**l, replications=100)
        for l, v in zip(levels, values)
    ]


class TestFitDecayRate:
    def test_exact_rate_two(self):
        stats = stats_from_values([2.0 ** (-2 * l) for l in range(8)], range(8))
        fit = fit_decay_rate(stats)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_rate_one(self):
        stats = stats_from_values([2.0 ** (-l) for l in range(8)], range(8))
        fit = fit_decay_rate(stats)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_three_points(self):
        stats = stats_from_values([4.0, 1.0, 0.25], [0, 1, 2])
        fit = fit_decay_rate(stats)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_levels_dropped(self, caplog):
        stats = stats_from_values([4.0, 1.0, 0.0, 0.0625, 0.015625], range(5))
        with caplog.at_level("WARNING"):
            fit = fit_decay_rate(stats)
        assert "dropped nonpositive levels [2]" in caplog.text
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)

    def test_too_few_points(self):
        stats = stats_from_values([1.0, 0.5, 0.0], range(3))
        with pytest.raises(ContractViolation):
            fit_decay_rate(stats)

    def test_field_selector(self):
        stats = stats_from_values([1.0] * 4, range(4))
        fit = fit_decay_rate(stats, "mean_cost")
        assert fit.slope == pytest.approx(1.0, abs=1e-12)  # cost doubles


class TestVarianceProfile:
    def test_zero_variance_at_posterior(self):
        stats = variance_profile(
            MODEL, DATA, THETA, PHI_POSTERIOR, range(1, 4), 100, CFG, substream(402, 0)
        )
        for s in stats:
            assert s.var_z < 1e-20
            assert s.var_grad_theta_max < 1e-20

    def test_cost_accounting_exact(self):
        stats = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(0, 3), 100, CFG, substream(403, 0)
        )
        for s in stats:
            assert s.mean_cost == 8.0 * 2**s.level

    def test_bit_reproducible(self):
        a = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(1, 4), 120, CFG, substream(404, 0)
        )
        b = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(1, 4), 120, CFG, substream(404, 0)
        )
        for sa, sb in zip(a, b):
            assert sa == sb

    def test_antithetic_variance_below_naive(self):
        # the same generator state gives both variants identical draws, so
        # the comparison is paired; antithetic must win at every level here
        anti = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(2, 6), 400, CFG, substream(405, 0)
        )
        naive = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(2, 6), 400, CFG, substream(405, 0),
            antithetic=False,
        )
        for sa, sn in zip(anti, naive):
            assert sa.var_z < sn.var_z

    def test_replication_floor(self):
        with pytest.raises(ContractViolation):
            variance_profile(
                MODEL, DATA, THETA, PHI_WIDE, range(1, 3), 99, CFG, substream(406, 0)
            )

    def test_moderate_slope_sanity(self):
        # desk-scale pre-check of the rate separation; the full-size run
        # with its calibrated windows lives in the acceptance suite
        stats = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(1, 6), 2000, CFG, substream(407, 0)
        )
        naive = variance_profile(
            MODEL, DATA, THETA, PHI_WIDE, range(1, 6), 2000, CFG, substream(407, 0),
            antithetic=False,
        )
        slope_anti = fit_decay_rate(stats).slope
        slope_naive = fit_decay_rate(naive).slope
        assert slope_anti < -1.5
        assert slope_naive > -1.5
        assert slope_naive - slope_anti > 0.5


def bounded(fn, *args, timeout=120.0, **kwargs):
    """fn(*args, **kwargs), run on a daemon thread that must return within
    `timeout` seconds, so a pool that never finishes fails the test instead
    of hanging the suite."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    # in a copy of the caller's context, as the profile runs its levels
    worker = threading.Thread(target=contextvars.copy_context().run, args=(run,), daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"no result within {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def sequential_profile(model, data, theta, phi, levels, replications, cfg, rng, antithetic=True):
    """The profile as a plain loop over the levels in order, one spawned
    child stream each, on the calling thread."""
    value_fn, grad_fn = (
        (antithetic_difference, grad_theta_level) if antithetic
        else (naive_difference, naive_grad_theta)
    )
    stats = []
    for lvl, stream in zip(levels, rng.spawn(len(levels))):
        indices = stream.integers(0, data.n_total, size=replications)
        chunks = draw_chunks(
            model, data.x[indices], np.full(replications, lvl), theta, phi, cfg, stream,
            grads=("theta",),
        )
        values, grads = reduce_chunks(chunks, [value_fn, grad_fn])
        stats.append(LevelStats(
            level=lvl,
            mean_z=float(values.mean()),
            var_z=float(values.var(ddof=1)),
            var_grad_theta_max=float(np.max(grads.var(axis=0, ddof=1))),
            mean_cost=float(cfg.n0 << lvl),
            replications=replications,
        ))
    return stats


def setting(name, dim):
    model = GaussianConjugateModel(dim) if name == "gaussian" else BernoulliGaussianModel()
    gen = substream(420, dim)
    theta = 0.3 * gen.standard_normal(model.theta_dim)
    data = model.generate_data(theta, 20, gen)
    return model, data, theta, 0.3 * gen.standard_normal(model.phi_dim)


class FailsAtDraws(GaussianConjugateModel):
    """Gaussian dim 1 whose chunks of the given draw counts fail."""

    def __init__(self, failing):
        super().__init__(1)
        self.failing = failing

    def draw_weighed(self, x, *args, **kwargs):
        if x.shape[0] in self.failing:
            raise ContractViolation(f"chunk of {x.shape[0]} draws failed")
        return super().draw_weighed(x, *args, **kwargs)


class TestConcurrentProfile:
    """The levels run on a thread pool, costliest first; every value must
    equal a sequential loop's, bit for bit, under any schedule."""

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("name, dim", [("gaussian", 1), ("gaussian", 3), ("bernoulli", 1)])
    def test_equals_a_sequential_loop(self, name, dim, antithetic):
        model, data, theta, phi = setting(name, dim)
        levels = [5, 0, 3, 3, 1]  # unsorted, with a duplicate
        want = sequential_profile(
            model, data, theta, phi, levels, 100, CFG, substream(421, dim), antithetic
        )
        got = bounded(
            variance_profile, model, data, theta, phi, levels, 100, CFG, substream(421, dim),
            antithetic=antithetic,
        )
        assert [s.level for s in got] == levels
        assert got == want

    def test_no_levels(self):
        assert bounded(
            variance_profile, MODEL, DATA, THETA, PHI_WIDE, [], 100, CFG, substream(422, 0)
        ) == []

    def test_levels_run_under_the_callers_numpy_error_state(self):
        seen = []

        class Recording(GaussianConjugateModel):
            def draw_weighed(self, *args, **kwargs):
                seen.append(np.geterr()["over"])
                return super().draw_weighed(*args, **kwargs)

        with np.errstate(over="raise"):
            bounded(
                variance_profile, Recording(1), DATA, THETA, PHI_WIDE, [3, 1, 2], 100, CFG,
                substream(425, 0),
            )
        assert seen == ["raise"] * 3

    def test_first_failing_level_in_caller_order_is_raised(self):
        # levels 2 and 5 fail (one chunk of 100 * 8 * 2^level draws each);
        # level 5 is submitted first, but level 2 comes first in `levels`
        model = FailsAtDraws({800 << 2, 800 << 5})
        before = threading.active_count()
        with pytest.raises(ContractViolation, match=f"chunk of {800 << 2} draws failed"):
            bounded(
                variance_profile, model, DATA, THETA, PHI_WIDE, [2, 5, 4], 100, CFG,
                substream(423, 0),
            )
        assert threading.active_count() == before

    def test_many_levels_under_frequent_thread_switches(self):
        levels = [3, 0, 5, 1, 4, 2, 2, 5, 0, 3, 1, 4]  # more levels than CPUs
        want = sequential_profile(
            MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG, substream(424, 0)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = bounded(
                    variance_profile, MODEL, DATA, THETA, PHI_WIDE, levels, 100, CFG,
                    substream(424, 0),
                )
                assert got == want
        finally:
            sys.setswitchinterval(interval)


class TestEstimateMoments:
    def test_posterior_q_is_unit_weight(self):
        d = estimate_moments(
            MODEL, DATA.x[0], THETA, PHI_POSTERIOR, 4.5, 3.0, 10_000, substream(408, 0)
        )
        assert d.log_s_moment_estimate == pytest.approx(0.0, abs=1e-12)
        assert d.t_moment_estimate == pytest.approx(0.0, abs=1e-40)
        assert not d.tail_warning

    def test_analytically_divergent_case_warns(self):
        # q far narrower than the posterior: E[(f/p)^s] diverges once
        # s > (1/sq^2) / (1/sq^2 - 1/var_post); here the threshold is ~1.05
        phi_narrow = np.array([0.0, 0.0, math.log(0.15)])
        d = estimate_moments(
            MODEL, np.array([0.5]), THETA, phi_narrow, 4.5, 3.0, 100_000, substream(409, 0)
        )
        assert d.tail_warning

    def test_finite_case_stays_quiet(self):
        d = estimate_moments(
            MODEL, np.array([0.5]), THETA, PHI_WIDE, 4.5, 3.0, 100_000, substream(410, 0)
        )
        assert not d.tail_warning
        assert np.isfinite(d.log_s_moment_estimate)
        assert np.isfinite(d.t_moment_estimate)

    def test_log_s_moment_finite_past_float_overflow(self):
        # log E[(f/p)^s] is about 699.45 here: below float64's overflow at
        # about 709.78, and once reported as inf by a cut-off at 700
        d = estimate_moments(
            MODEL, np.array([1.3]), np.zeros(3), np.zeros(3), 915, 3, 100_000, substream(0, 3)
        )
        assert d.log_s_moment_estimate == pytest.approx(699.45, abs=0.01)

    def test_requires_oracle(self):
        class NoOracle(LatentVariableModel):
            x_dim = z_dim = 1
            theta_dim = phi_dim = 1

            def q_loc_log_scale(self, x, phi):
                return np.zeros(1), np.zeros(1)

            def log_joint(self, x, z, theta, grad_theta):
                raise NotImplementedError

            def q_grad_phi(self, x, dloc, dlog_scale):
                raise NotImplementedError

            def generate_data(self, theta, n, rng):
                raise NotImplementedError

        with pytest.raises(UnsupportedOperation):
            estimate_moments(
                NoOracle(), np.zeros(1), np.zeros(1), np.zeros(1), 4.5, 3.0,
                10_000, substream(411, 0),
            )

    def test_parameter_validation(self):
        with pytest.raises(ContractViolation):
            estimate_moments(
                MODEL, DATA.x[0], THETA, PHI_WIDE, -1.0, 3.0, 10_000, substream(412, 0)
            )
        with pytest.raises(ContractViolation):
            estimate_moments(
                MODEL, DATA.x[0], THETA, PHI_WIDE, 4.5, 3.0, 999, substream(413, 0)
            )

    @pytest.mark.parametrize(
        "s, t", [(math.nan, 3.0), (4.5, math.nan), (math.inf, 3.0), (4.5, math.inf)]
    )
    def test_nonfinite_exponents_rejected(self, s, t):
        with pytest.raises(ContractViolation, match="finite and positive"):
            estimate_moments(MODEL, DATA.x[0], THETA, PHI_WIDE, s, t, 10_000, substream(414, 0))
